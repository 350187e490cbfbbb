//! Fixture tests: the lock-order check trips on its tripping fixtures at
//! the expected lines, and stays silent on the compliant ones. Fixtures
//! live in `tests/fixtures/` and are never compiled — they are lexed by
//! lintkit under fake workspace-relative paths.

use lintkit::{Violation, Workspace};

const LOCK_ORDER_TRIP: &str = include_str!("fixtures/lock_order_trip.rs");
const LOCK_ORDER_PASS: &str = include_str!("fixtures/lock_order_pass.rs");
const INTERPROC_TRIP: &str = include_str!("fixtures/lock_order_interproc_trip.rs");
const INTERPROC_PASS: &str = include_str!("fixtures/lock_order_interproc_pass.rs");

fn run(sources: &[(&str, &str)]) -> Vec<Violation> {
    Workspace::from_sources(sources).run()
}

fn lines_of(violations: &[Violation]) -> Vec<(&str, usize)> {
    violations
        .iter()
        .map(|v| (v.path.as_str(), v.line))
        .collect()
}

#[test]
fn lock_order_finds_cycle_blocking_call_and_reacquisition() {
    let vs = run(&[("crates/migrate/src/live/fixture.rs", LOCK_ORDER_TRIP)]);
    assert_eq!(
        vs.len(),
        3,
        "cycle + blocked send + re-acquisition: {vs:#?}"
    );
    let msgs: Vec<&str> = vs.iter().map(|v| v.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("cycle")), "{msgs:?}");
    assert!(
        msgs.iter().any(|m| m.contains("blocking `send`")),
        "{msgs:?}"
    );
    assert!(msgs.iter().any(|m| m.contains("already held")), "{msgs:?}");
    // The blocking-send diagnostic points at the send, line 19.
    let hits = lines_of(&vs);
    assert!(
        hits.contains(&("crates/migrate/src/live/fixture.rs", 19)),
        "{hits:?}"
    );
}

#[test]
fn lock_order_accepts_consistent_order_and_condvar_waits() {
    let vs = run(&[("crates/migrate/src/live/fixture.rs", LOCK_ORDER_PASS)]);
    assert!(vs.is_empty(), "compliant locking flagged: {vs:#?}");
}

#[test]
fn lock_order_cycle_detection_is_cross_file() {
    // Each half of the inverted order lives in a different file; only the
    // whole-workspace graph shows the cycle.
    let a = "pub fn one(s: &S) { let x = s.alpha.lock(); let y = s.beta.lock(); x.use_both(&y); }";
    let b = "pub fn two(s: &S) { let y = s.beta.lock(); let x = s.alpha.lock(); y.use_both(&x); }";
    let vs = run(&[
        ("crates/migrate/src/a.rs", a),
        ("crates/vmstate/src/b.rs", b),
    ]);
    assert_eq!(vs.len(), 1, "one cycle, reported once: {vs:#?}");
    // Neither file alone trips.
    for (path, src) in [
        ("crates/migrate/src/a.rs", a),
        ("crates/vmstate/src/b.rs", b),
    ] {
        let solo = run(&[(path, src)]);
        assert!(solo.is_empty(), "{solo:#?}");
    }
}

#[test]
fn lock_order_sees_through_single_hop_helpers() {
    let vs = run(&[("crates/migrate/src/live/fixture.rs", INTERPROC_TRIP)]);
    assert_eq!(
        lines_of(&vs),
        [
            ("crates/migrate/src/live/fixture.rs", 12),
            ("crates/migrate/src/live/fixture.rs", 18),
        ],
        "re-acquisition via helper + cycle closed via helper: {vs:#?}"
    );
    let msgs: Vec<&str> = vs.iter().map(|v| v.message.as_str()).collect();
    assert!(
        msgs.iter()
            .any(|m| m.contains("already held via call to `grab_ledger()`")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("closing edge via call to `grab_ledger()`")),
        "{msgs:?}"
    );
}

#[test]
fn lock_order_interproc_skips_shared_released_and_foreign_receivers() {
    let vs = run(&[("crates/migrate/src/live/fixture.rs", INTERPROC_PASS)]);
    assert!(vs.is_empty(), "compliant helper calls flagged: {vs:#?}");
}

#[test]
fn violations_render_as_path_line_rule() {
    let vs = run(&[("crates/migrate/src/live/fixture.rs", LOCK_ORDER_TRIP)]);
    let first = vs.first().expect("fixture trips");
    let rendered = first.to_string();
    assert!(
        rendered.starts_with(&format!(
            "crates/migrate/src/live/fixture.rs:{}: [lock-order] ",
            first.line
        )),
        "diagnostic format drifted: {rendered}"
    );
}
