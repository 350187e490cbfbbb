//! Meta-test: the gate itself catches a seeded violation end-to-end.
//!
//! `tests/lock_order.rs` feeds sources straight to the check; this test
//! goes through the same path CI does — real files on disk,
//! `Workspace::scan` — by materializing a small workspace in a temp
//! directory, planting a lock-order violation, and asserting it comes
//! back at the right `file:line`. The other lint zones' seeds are
//! clippy's to catch: `tests/clippy_seeds/` at the repository root, run
//! by `scripts/ci.sh`.

use std::fs;
use std::path::PathBuf;

use lintkit::{Violation, Workspace};

struct TempWorkspace {
    root: PathBuf,
}

impl TempWorkspace {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("lintkit-meta-{tag}-{}", std::process::id()));
        // A stale run's leftovers would poison the scan.
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("create temp workspace");
        Self { root }
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

#[test]
fn seeded_violation_surfaces_at_its_location() {
    let ws = TempWorkspace::new("seeded");
    ws.write(
        "crates/migrate/src/live/sync.rs",
        "fn grab(s: &St) {\n    let g = s.ledger.lock();\n    g.touch();\n}\n\n\
         pub fn outer(s: &St) {\n    let g = s.ledger.lock();\n    grab(s);\n    g.done();\n}\n",
    );
    // Lock-free code beside it stays silent.
    ws.write(
        "crates/simnet/src/wire.rs",
        "pub fn relay(ep: &Sender<u8>, b: u8) {\n    ep.send(b);\n}\n",
    );
    let vs = ws.scan();
    assert_eq!(vs.len(), 1, "{vs:#?}");
    assert_eq!(
        (vs[0].path.as_str(), vs[0].line),
        ("crates/migrate/src/live/sync.rs", 8)
    );
}

#[test]
fn scan_is_deterministic_across_runs() {
    let ws = TempWorkspace::new("stable");
    ws.write(
        "crates/orchestrator/src/b.rs",
        "pub fn g(s: &S) {\n    let a = s.alpha.lock();\n    a.tx.send(1);\n}\n",
    );
    ws.write(
        "crates/orchestrator/src/a.rs",
        "pub fn f(s: &S) {\n    let b = s.beta.lock();\n    b.rx.recv();\n}\n",
    );
    let first: Vec<String> = ws.scan().iter().map(Violation::to_string).collect();
    let second: Vec<String> = ws.scan().iter().map(Violation::to_string).collect();
    assert_eq!(first, second, "report order must be stable");
    assert_eq!(first.len(), 2, "{first:#?}");
    // Reports are path-sorted regardless of write order.
    assert!(
        first[0].starts_with("crates/orchestrator/src/a.rs:3"),
        "{first:#?}"
    );
}
