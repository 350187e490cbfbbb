//! Meta-test: the gate itself catches seeded violations end-to-end.
//!
//! `tests/rules.rs` feeds sources straight to the rules; this test goes
//! through the same path CI does — real files on disk, `Workspace::scan`,
//! `lintkit.toml` loading — by materializing a small workspace in a temp
//! directory, planting one violation per analysis, and asserting each
//! comes back naming the right rule at the right `file:line`.

use std::fs;
use std::path::PathBuf;

use lintkit::{Violation, Workspace};

/// The zone config the workspace ships.
const SHIPPED: &str = include_str!("../../../lintkit.toml");

struct TempWorkspace {
    root: PathBuf,
}

impl TempWorkspace {
    /// An empty workspace, `lintkit.toml` included unless a test writes
    /// its own or removes it.
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("lintkit-meta-{tag}-{}", std::process::id()));
        // A stale run's leftovers would poison the scan.
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("create temp workspace");
        let ws = Self { root };
        ws.write("lintkit.toml", SHIPPED);
        ws
    }

    fn write(&self, rel: &str, text: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("file has a parent")).expect("mkdir");
        fs::write(path, text).expect("write seed file");
    }

    fn scan(&self) -> Vec<Violation> {
        Workspace::scan(&self.root)
            .expect("scan temp workspace")
            .run()
    }
}

impl Drop for TempWorkspace {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn assert_finding(vs: &[Violation], rule: &str, rel: &str, line: usize) {
    assert!(
        vs.iter()
            .any(|v| v.rule == rule && v.path == rel && v.line == line),
        "expected [{rule}] at {rel}:{line}, got: {vs:#?}"
    );
}

#[test]
fn seeded_violations_surface_with_rule_and_location() {
    let ws = TempWorkspace::new("seeded");
    // One violation per analysis, each on a known line, each inside the
    // shipped zone that owns the rule.
    ws.write(
        "crates/orchestrator/src/sched.rs",
        "use std::collections::HashMap;\n\npub fn plan() -> HashMap<u32, u32> {\n    HashMap::new()\n}\n",
    );
    ws.write(
        "crates/des/src/pump.rs",
        "pub fn pump(rx: &Receiver<Ev>) {\n    let ev = rx.recv();\n    drop(ev);\n}\n",
    );
    ws.write(
        "crates/simnet/src/wire.rs",
        "pub fn relay(ep: &Sender<u8>, b: u8) {\n    ep.send(b);\n}\n",
    );
    ws.write(
        "crates/migrate/src/live/sync.rs",
        "fn grab(s: &St) {\n    let g = s.ledger.lock();\n    g.touch();\n}\n\n\
         pub fn outer(s: &St) {\n    let g = s.ledger.lock();\n    grab(s);\n    g.done();\n}\n",
    );
    ws.write(
        "crates/simnet/src/panicky.rs",
        "pub fn decode(b: Option<u8>) -> u8 {\n    b.unwrap()\n}\n",
    );

    let vs = ws.scan();
    assert_finding(&vs, "determinism", "crates/orchestrator/src/sched.rs", 3);
    assert_finding(&vs, "determinism", "crates/orchestrator/src/sched.rs", 4);
    assert_finding(&vs, "no-blocking", "crates/des/src/pump.rs", 2);
    assert_finding(&vs, "result-dropped", "crates/simnet/src/wire.rs", 2);
    assert_finding(&vs, "lock-order", "crates/migrate/src/live/sync.rs", 8);
    assert_finding(&vs, "no-panic-transport", "crates/simnet/src/panicky.rs", 2);
    // Nothing beyond the seeds fires.
    assert_eq!(vs.len(), 6, "unexpected extra findings: {vs:#?}");
}

#[test]
fn a_written_config_decides_the_zones() {
    let ws = TempWorkspace::new("config");
    // The same seeded file, but lintkit.toml moves the deterministic
    // zone elsewhere and waives the one remaining no-blocking site.
    ws.write(
        "crates/orchestrator/src/sched.rs",
        "use std::collections::HashMap;\n\npub fn plan() -> HashMap<u32, u32> {\n    HashMap::new()\n}\n",
    );
    ws.write(
        "crates/engine/src/pump.rs",
        "pub fn pump(rx: &Receiver<Ev>) {\n    let ev = rx.recv();\n    drop(ev);\n}\n",
    );
    ws.write(
        "lintkit.toml",
        "[zones]\ntransport = []\ndeterministic = []\ndeterministic-order = []\n\
         reactor-ready = [\"crates/engine/src/\"]\nresult-dropped = []\n\n\
         [allow]\nno-blocking = [\"crates/engine/src/pump.rs:2\"]\n",
    );
    let vs = ws.scan();
    assert!(
        vs.is_empty(),
        "zones moved + site waived, nothing should fire: {vs:#?}"
    );
}

#[test]
fn a_missing_config_is_a_hard_error_not_a_silent_pass() {
    let ws = TempWorkspace::new("missing");
    ws.write(
        "crates/orchestrator/src/sched.rs",
        "use std::collections::HashMap;\n",
    );
    fs::remove_file(ws.root.join("lintkit.toml")).expect("remove config");
    let err = match Workspace::scan(&ws.root) {
        Err(e) => e,
        Ok(_) => panic!("a workspace without lintkit.toml must not scan"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    assert!(err.to_string().contains("lintkit.toml"), "{err}");
}

#[test]
fn a_broken_config_is_a_hard_error_not_a_silent_pass() {
    let ws = TempWorkspace::new("broken");
    ws.write("crates/x/src/lib.rs", "pub fn f() {}\n");
    ws.write("lintkit.toml", "[zones]\ntransprot = []\n");
    let err = match Workspace::scan(&ws.root) {
        Err(e) => e,
        Ok(_) => panic!("typoed zone must not scan"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("transprot"), "{err}");
}

#[test]
fn scan_is_deterministic_across_runs() {
    let ws = TempWorkspace::new("stable");
    ws.write(
        "crates/orchestrator/src/a.rs",
        "use std::collections::HashSet;\npub fn f() -> HashSet<u8> {\n    HashSet::new()\n}\n",
    );
    ws.write(
        "crates/orchestrator/src/b.rs",
        "pub fn g() {\n    let t = std::time::Instant::now();\n    drop(t);\n}\n",
    );
    let first: Vec<String> = ws.scan().iter().map(Violation::to_string).collect();
    let second: Vec<String> = ws.scan().iter().map(Violation::to_string).collect();
    assert_eq!(first, second, "report order must be stable");
    assert_eq!(first.len(), 3, "{first:#?}");
    // Reports are path-sorted within a rule regardless of write order.
    assert!(
        first[0].starts_with("crates/orchestrator/src/a.rs:2"),
        "{first:#?}"
    );
}
