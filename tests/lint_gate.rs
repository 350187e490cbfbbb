//! Tier-1 lint gate. The lint zones are stock clippy and rustc lints
//! denied at each zone's root (DESIGN.md §11), which `scripts/ci.sh`'s
//! clippy step enforces; a plain `cargo test -q` holds what makes that
//! step mean something: lintkit's lock-order check is clean, every crate
//! root forbids `unsafe`, every zone root still carries its `deny` lines,
//! and nothing in the deterministic zone waives `disallowed_types`.

use std::fs;
use std::path::{Path, PathBuf};

use lintkit::Workspace;

const TRANSPORT: &[&str] = &[
    "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]",
    "#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]",
    "#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]",
];
const DETERMINISTIC: &[&str] =
    &["#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]"];
const REACTOR_READY: &[&str] = &["#![cfg_attr(not(test), deny(clippy::disallowed_methods))]"];
const DETERMINISTIC_ORDER: &[&str] = &["#![cfg_attr(not(test), deny(clippy::disallowed_types))]"];
const RESULT_DROPPED: &[&str] =
    &["#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, unused_must_use))]"];
const PROTOCOL: &[&str] = &["#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]"];

/// Each zone root and the zones whose lines it must carry. A root that
/// is a crate's `lib.rs` or a `mod.rs` covers its directory.
const ROOTS: &[(&str, &[&[&str]])] = &[
    (
        "crates/migrate/src/live/mod.rs",
        &[TRANSPORT, RESULT_DROPPED, PROTOCOL],
    ),
    ("crates/migrate/src/live/driver.rs", &[DETERMINISTIC_ORDER]),
    ("crates/migrate/src/sim/mod.rs", &[DETERMINISTIC]),
    (
        "crates/simnet/src/lib.rs",
        &[TRANSPORT, RESULT_DROPPED, PROTOCOL],
    ),
    ("crates/telemetry/src/lib.rs", &[TRANSPORT, DETERMINISTIC]),
    (
        "crates/orchestrator/src/lib.rs",
        &[TRANSPORT, DETERMINISTIC],
    ),
    ("crates/vdisk/src/lib.rs", &[DETERMINISTIC]),
    ("crates/vdisk/src/content.rs", &[TRANSPORT]),
    ("crates/lintkit/src/lib.rs", &[TRANSPORT, RESULT_DROPPED]),
    ("crates/lintkit/src/main.rs", &[TRANSPORT, RESULT_DROPPED]),
    (
        "crates/blockstore/src/lib.rs",
        &[TRANSPORT, DETERMINISTIC, RESULT_DROPPED],
    ),
    ("crates/scenario/src/lib.rs", &[TRANSPORT, DETERMINISTIC]),
    ("crates/des/src/lib.rs", &[REACTOR_READY]),
    ("crates/block-bitmap/src/lib.rs", &[DETERMINISTIC]),
    ("crates/workloads/src/lib.rs", &[REACTOR_READY]),
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir` (or `dir` itself when it is a file).
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    if dir.is_file() {
        out.push(dir.to_path_buf());
        return;
    }
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn workspace_passes_lintkit() {
    let ws = Workspace::scan(root()).expect("workspace scan");
    assert!(
        ws.files.len() > 50,
        "scan found only {} files",
        ws.files.len()
    );
    let violations = ws.run();
    assert!(
        violations.is_empty(),
        "lintkit violations:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_crate_root_forbids_unsafe_code() {
    let mut roots = vec![root().join("src/lib.rs")];
    for member in fs::read_dir(root().join("crates")).expect("crates/") {
        let src = member.expect("crates/ entry").path().join("src");
        roots.extend(
            ["lib.rs", "main.rs"]
                .iter()
                .map(|f| src.join(f))
                .filter(|p| p.is_file()),
        );
        if src.join("bin").is_dir() {
            rust_files(&src.join("bin"), &mut roots);
        }
    }
    assert!(roots.len() > 14, "found only {} crate roots", roots.len());
    for path in roots {
        let text = fs::read_to_string(&path).expect("crate root reads");
        assert!(
            text.lines().any(|l| l == "#![forbid(unsafe_code)]"),
            "{} lacks #![forbid(unsafe_code)]",
            path.display()
        );
    }
}

#[test]
fn each_zone_root_carries_its_deny_lines() {
    for (rel, zones) in ROOTS {
        let text = fs::read_to_string(root().join(rel)).expect("zone root reads");
        for line in zones.iter().flat_map(|z| z.iter()) {
            assert!(
                text.lines().any(|l| l == *line),
                "{rel} lost its lint zone line {line}"
            );
        }
    }
}

#[test]
fn determinism_zones_carry_no_allow_entries() {
    // Same seed ⇒ byte-identical journals (tests/telemetry_journal.rs) is
    // machine-checked only as long as nobody waives it: a hash container
    // in a deterministic zone gets converted, not excused.
    let mut files = Vec::new();
    for (rel, zones) in ROOTS {
        let denies_types = zones
            .iter()
            .any(|z| z.iter().any(|l| l.contains("clippy::disallowed_types")));
        if denies_types {
            let path = root().join(rel);
            let covers_dir = rel.ends_with("/lib.rs") || rel.ends_with("/mod.rs");
            match path.parent() {
                Some(dir) if covers_dir => rust_files(dir, &mut files),
                _ => files.push(path),
            }
        }
    }
    assert!(files.len() > 30, "found only {} files", files.len());
    for path in files {
        let text: String = fs::read_to_string(&path)
            .expect("zone file reads")
            .split_whitespace()
            .collect();
        // The argument list of each `allow(` / `expect(`, whitespace gone.
        let waives = |attr: &str| {
            text.match_indices(attr).any(|(at, _)| {
                let args = text[at..].split(')').next().unwrap_or_default();
                args.contains("clippy::disallowed_types")
            })
        };
        assert!(
            !waives("allow(") && !waives("expect("),
            "{} waives clippy::disallowed_types",
            path.display()
        );
    }
}
