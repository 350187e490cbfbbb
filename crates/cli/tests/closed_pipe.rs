//! A reader that hangs up on `vmmigrate` (`vmmigrate orchestrate … |
//! head -1`) ends the command quietly: exit status 0, no panic.

use std::io::Read;
use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_ends_the_command_without_a_panic() {
    let scn = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/wan.scn");
    let mut child = Command::new(env!("CARGO_BIN_EXE_vmmigrate"))
        .args(["orchestrate", "--scenario", scn, "--seed", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("vmmigrate starts");
    // Hang up before the run has printed a line: every write it makes
    // finds the pipe closed.
    drop(child.stdout.take());
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr is piped")
        .read_to_string(&mut stderr)
        .expect("stderr reads");
    let status = child.wait().expect("vmmigrate exits");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(status.success(), "{status}; stderr: {stderr}");
}
