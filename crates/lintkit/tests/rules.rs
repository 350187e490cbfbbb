//! Per-rule fixture tests: each rule trips on its tripping fixture at the
//! expected lines, and stays silent on the compliant fixture. Fixtures
//! live in `tests/fixtures/` and are never compiled — they are lexed by
//! lintkit under fake workspace-relative paths chosen to land inside (or
//! outside) the zones each rule cares about.

use lintkit::{Config, Violation, Workspace};

const NO_PANIC_TRIP: &str = include_str!("fixtures/no_panic_trip.rs");
const NO_PANIC_PASS: &str = include_str!("fixtures/no_panic_pass.rs");
const LOCK_ORDER_TRIP: &str = include_str!("fixtures/lock_order_trip.rs");
const LOCK_ORDER_PASS: &str = include_str!("fixtures/lock_order_pass.rs");
const MATCH_TRIP: &str = include_str!("fixtures/match_trip.rs");
const MATCH_PASS: &str = include_str!("fixtures/match_pass.rs");
const UNSAFE_TRIP: &str = include_str!("fixtures/unsafe_trip.rs");
const UNSAFE_PASS: &str = include_str!("fixtures/unsafe_pass.rs");
const DETERMINISM_TRIP: &str = include_str!("fixtures/determinism_trip.rs");
const DETERMINISM_PASS: &str = include_str!("fixtures/determinism_pass.rs");
const NO_BLOCKING_TRIP: &str = include_str!("fixtures/no_blocking_trip.rs");
const NO_BLOCKING_PASS: &str = include_str!("fixtures/no_blocking_pass.rs");
const RESULT_DROPPED_TRIP: &str = include_str!("fixtures/result_dropped_trip.rs");
const RESULT_DROPPED_PASS: &str = include_str!("fixtures/result_dropped_pass.rs");
const INTERPROC_TRIP: &str = include_str!("fixtures/lock_order_interproc_trip.rs");
const INTERPROC_PASS: &str = include_str!("fixtures/lock_order_interproc_pass.rs");

/// The fixtures are linted under the zones the workspace ships.
fn workspace(sources: &[(&str, &str)]) -> Workspace {
    let shipped =
        Config::parse(include_str!("../../../lintkit.toml")).expect("lintkit.toml parses");
    Workspace::from_sources(sources, shipped)
}

fn run(sources: &[(&str, &str)]) -> Vec<Violation> {
    workspace(sources).run()
}

fn lines_of<'a>(violations: &'a [Violation], rule: &str) -> Vec<(&'a str, usize)> {
    violations
        .iter()
        .filter(|v| v.rule == rule)
        .map(|v| (v.path.as_str(), v.line))
        .collect()
}

#[test]
fn no_panic_trips_on_each_panic_path() {
    let vs = run(&[("crates/simnet/src/fixture.rs", NO_PANIC_TRIP)]);
    let hits = lines_of(&vs, "no-panic-transport");
    let lines: Vec<usize> = hits.iter().map(|&(_, l)| l).collect();
    assert_eq!(
        lines,
        [5, 9, 15, 20],
        "unwrap/expect/panic!/todo! sites: {vs:#?}"
    );
    assert!(hits
        .iter()
        .all(|&(p, _)| p == "crates/simnet/src/fixture.rs"));
}

#[test]
fn no_panic_ignores_test_code_and_compliant_files() {
    let vs = run(&[("crates/migrate/src/live/fixture.rs", NO_PANIC_PASS)]);
    assert!(vs.is_empty(), "compliant zone file must be clean: {vs:#?}");
}

#[test]
fn no_panic_only_applies_inside_the_zones() {
    // The same panicking code outside the transport zones is legal.
    let vs = run(&[("crates/vdisk/src/fixture.rs", NO_PANIC_TRIP)]);
    assert!(
        lines_of(&vs, "no-panic-transport").is_empty(),
        "zone rule fired outside its zones: {vs:#?}"
    );
}

#[test]
fn lock_order_finds_cycle_blocking_call_and_reacquisition() {
    let vs = run(&[("crates/migrate/src/live/fixture.rs", LOCK_ORDER_TRIP)]);
    let hits = lines_of(&vs, "lock-order");
    assert_eq!(
        hits.len(),
        3,
        "cycle + blocked send + re-acquisition: {vs:#?}"
    );
    let msgs: Vec<&str> = vs
        .iter()
        .filter(|v| v.rule == "lock-order")
        .map(|v| v.message.as_str())
        .collect();
    assert!(msgs.iter().any(|m| m.contains("cycle")), "{msgs:?}");
    assert!(
        msgs.iter().any(|m| m.contains("blocking `send`")),
        "{msgs:?}"
    );
    assert!(msgs.iter().any(|m| m.contains("already held")), "{msgs:?}");
    // The blocking-send diagnostic points at the send, line 19.
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
    let hits = lines_of(&vs, "lock-order");
    assert_eq!(hits.len(), 1, "one cycle, reported once: {vs:#?}");
    // Neither file alone trips.
    for (path, src) in [
        ("crates/migrate/src/a.rs", a),
        ("crates/vmstate/src/b.rs", b),
    ] {
        let solo = run(&[(path, src)]);
        assert!(lines_of(&solo, "lock-order").is_empty(), "{solo:#?}");
    }
}

#[test]
fn protocol_matches_must_name_every_variant() {
    let vs = run(&[("crates/migrate/src/proto_use.rs", MATCH_TRIP)]);
    let hits = lines_of(&vs, "protocol-exhaustive");
    let lines: Vec<usize> = hits.iter().map(|&(_, l)| l).collect();
    assert_eq!(
        lines,
        [8, 15, 16, 24],
        "wildcard, guarded wildcard, stacked wildcard, Self:: impl: {vs:#?}"
    );
}

#[test]
fn non_protocol_wildcards_stay_legal() {
    let vs = run(&[("crates/migrate/src/proto_use.rs", MATCH_PASS)]);
    assert!(vs.is_empty(), "compliant matches flagged: {vs:#?}");
}

#[test]
fn unsafe_outside_allowlist_is_flagged_with_missing_pragma() {
    let vs = run(&[("crates/fast/src/lib.rs", UNSAFE_TRIP)]);
    let hits = lines_of(&vs, "unsafe-audit");
    assert_eq!(hits.len(), 2, "unsafe use + missing pragma: {vs:#?}");
    assert!(hits.contains(&("crates/fast/src/lib.rs", 5)), "{hits:?}");
    assert!(hits.contains(&("crates/fast/src/lib.rs", 1)), "{hits:?}");
}

#[test]
fn allowlisted_files_may_contain_unsafe() {
    let mut ws = workspace(&[("crates/fast/src/lib.rs", UNSAFE_TRIP)]);
    ws.config
        .allow
        .entry("unsafe-audit".to_string())
        .or_default()
        .push("crates/fast/src/lib.rs".to_string());
    let vs = ws.run();
    assert!(
        !vs.iter().any(|v| v.rule == "unsafe-audit"),
        "allowlist ignored: {vs:#?}"
    );
}

#[test]
fn pragma_satisfies_the_crate_root_check() {
    let vs = run(&[("crates/good/src/lib.rs", UNSAFE_PASS)]);
    assert!(vs.is_empty(), "compliant crate root flagged: {vs:#?}");
    // Non-root files don't need the pragma at all.
    let vs = run(&[("crates/good/src/inner/util.rs", "pub fn f() {}")]);
    assert!(vs.is_empty(), "{vs:#?}");
}

#[test]
fn determinism_trips_on_every_spelling() {
    // `deterministic` zone: containers and wall-clock reads both banned.
    let vs = run(&[("crates/orchestrator/src/fixture.rs", DETERMINISM_TRIP)]);
    let hits = lines_of(&vs, "determinism");
    let lines: Vec<usize> = hits.iter().map(|&(_, l)| l).collect();
    assert_eq!(
        lines,
        [10, 14, 15, 25, 30, 31],
        "type pos, ctor, rename, hash_map module, Instant, SystemTime: {vs:#?}"
    );
}

#[test]
fn determinism_order_zone_bans_containers_but_not_the_clock() {
    // The telemetry recorder owns the wall half of the dual-clock model:
    // `deterministic-order` keeps hash containers out, lets `now()` in.
    let vs = run(&[("crates/telemetry/src/fixture.rs", DETERMINISM_TRIP)]);
    let lines: Vec<usize> = lines_of(&vs, "determinism")
        .iter()
        .map(|&(_, l)| l)
        .collect();
    assert_eq!(
        lines,
        [10, 14, 15, 25],
        "wall-clock lines must drop: {vs:#?}"
    );
}

#[test]
fn determinism_ignores_test_code_and_compliant_files() {
    let vs = run(&[("crates/orchestrator/src/fixture.rs", DETERMINISM_PASS)]);
    assert!(vs.is_empty(), "compliant zone file must be clean: {vs:#?}");
    // Outside every deterministic zone the same code is legal.
    let vs = run(&[("crates/workloads/src/fixture.rs", DETERMINISM_TRIP)]);
    assert!(
        lines_of(&vs, "determinism").is_empty(),
        "zone rule fired outside its zones: {vs:#?}"
    );
}

#[test]
fn no_blocking_trips_on_parks_receives_joins_and_accepts() {
    let vs = run(&[("crates/des/src/fixture.rs", NO_BLOCKING_TRIP)]);
    let hits = lines_of(&vs, "no-blocking");
    let lines: Vec<usize> = hits.iter().map(|&(_, l)| l).collect();
    assert_eq!(
        lines,
        [8, 9, 16, 17, 21, 22],
        "recv, recv_timeout, thread::sleep, join, park, accept: {vs:#?}"
    );
}

#[test]
fn no_blocking_allows_polling_slice_joins_and_test_code() {
    let vs = run(&[("crates/des/src/fixture.rs", NO_BLOCKING_PASS)]);
    assert!(vs.is_empty(), "compliant zone file must be clean: {vs:#?}");
    // Outside the reactor-ready zones blocking is legal.
    let vs = run(&[("crates/simnet/src/fixture.rs", NO_BLOCKING_TRIP)]);
    assert!(
        lines_of(&vs, "no-blocking").is_empty(),
        "zone rule fired outside its zones: {vs:#?}"
    );
}

#[test]
fn result_dropped_trips_on_discards() {
    let vs = run(&[("crates/simnet/src/fixture.rs", RESULT_DROPPED_TRIP)]);
    let hits = lines_of(&vs, "result-dropped");
    let lines: Vec<usize> = hits.iter().map(|&(_, l)| l).collect();
    assert_eq!(
        lines,
        [16, 17, 22, 23, 27],
        "self fn, send, flush, let _, free fn: {vs:#?}"
    );
}

#[test]
fn result_dropped_accepts_handled_results_and_merged_names() {
    let vs = run(&[("crates/simnet/src/fixture.rs", RESULT_DROPPED_PASS)]);
    assert!(vs.is_empty(), "compliant zone file must be clean: {vs:#?}");
    // Outside the result-dropped zones discards are legal.
    let vs = run(&[("crates/des/src/fixture.rs", RESULT_DROPPED_TRIP)]);
    assert!(
        lines_of(&vs, "result-dropped").is_empty(),
        "zone rule fired outside its zones: {vs:#?}"
    );
}

#[test]
fn lock_order_sees_through_single_hop_helpers() {
    let vs = run(&[("crates/migrate/src/live/fixture.rs", INTERPROC_TRIP)]);
    let hits = lines_of(&vs, "lock-order");
    assert_eq!(
        hits,
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
fn allow_entries_suppress_named_findings() {
    // An `[allow]` entry scoped to `path:line` silences exactly that
    // finding; a bare path entry silences the file.
    let mut ws = workspace(&[("crates/des/src/fixture.rs", NO_BLOCKING_TRIP)]);
    ws.config
        .allow
        .entry("no-blocking".to_string())
        .or_default()
        .push("crates/des/src/fixture.rs:16".to_string());
    let vs = ws.run();
    let lines: Vec<usize> = lines_of(&vs, "no-blocking")
        .iter()
        .map(|&(_, l)| l)
        .collect();
    assert_eq!(lines, [8, 9, 17, 21, 22], "line 16 allowed: {vs:#?}");

    let mut ws = workspace(&[("crates/des/src/fixture.rs", NO_BLOCKING_TRIP)]);
    ws.config
        .allow
        .entry("no-blocking".to_string())
        .or_default()
        .push("crates/des/src/fixture.rs".to_string());
    assert!(ws.run().is_empty(), "whole-file allow ignored");
}

#[test]
fn violations_render_as_path_line_rule() {
    let vs = run(&[("crates/simnet/src/fixture.rs", NO_PANIC_TRIP)]);
    let first = vs.first().expect("fixture trips");
    let rendered = first.to_string();
    assert!(
        rendered.starts_with("crates/simnet/src/fixture.rs:5: [no-panic-transport]"),
        "diagnostic format drifted: {rendered}"
    );
}
