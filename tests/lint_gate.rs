//! Tier-1 lint gate. The lint zones are stock clippy and rustc lints
//! denied at each zone's root (DESIGN.md §11), which `scripts/ci.sh`'s
//! clippy step enforces; a plain `cargo test -q` holds what makes that
//! step mean something: every crate root forbids `unsafe`, every zone
//! root still carries its `deny` lines, and nothing in the deterministic
//! zone waives `disallowed_types`. It holds what makes the run-time lock
//! rule cover every lock: no program file takes `std::sync`'s locks past
//! the `parking_lot` stand-in, and one lock is the outer one. It also
//! holds the §IV boundary: the phase decisions and the frame charges
//! live in `migrate::phase`, and the fleet executor reaches past it into
//! nothing. And it holds the one unit store: disk blocks and RAM pages
//! are kept by `vdisk`'s, and no second byte store grows outside it; and
//! the one replica store: the images hosts kept are `blockstore`'s
//! `BlockDirectory`'s, and no second table of them grows beside it. And
//! it holds the one testbed: the fleet writes none of the paper's
//! calibration again. And it holds the one content index: the live
//! destination's migration state keeps it, and no disk grows a second.
//! And it holds the one clock: both virtual-time engines pace with
//! `migrate::phase`'s step rule, and no second pacer or two-party disk
//! share grows beside it.

use std::fs;
use std::path::{Path, PathBuf};

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
    ("crates/migrate/src/phase/mod.rs", &[DETERMINISTIC]),
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

/// A source file's lines above its trailing `#[cfg(test)]` module, by
/// the rule `scripts/loc.py` counts with: the program, not its tests.
fn program_text(path: &Path) -> String {
    let text = fs::read_to_string(path).expect("source file reads");
    let lines: Vec<&str> = text.lines().collect();
    let end = (0..lines.len())
        .rev()
        .find(|&i| {
            lines[i] == "#[cfg(test)]" && lines.get(i + 1).is_some_and(|l| l.starts_with("mod "))
        })
        .unwrap_or(lines.len());
    lines[..end].join("\n")
}

/// Every program source file: `src/` and each `crates/*/src/`.
fn program_files() -> Vec<PathBuf> {
    let mut files = Vec::new();
    rust_files(&root().join("src"), &mut files);
    for member in fs::read_dir(root().join("crates")).expect("crates/") {
        let src = member.expect("crates/ entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files
}

#[test]
fn every_lock_goes_through_the_checked_stand_in() {
    // The stand-in's lock rule (DESIGN.md §11) sees only its own locks: a
    // `std::sync` Mutex or RwLock would be taken unchecked.
    let files = program_files();
    assert!(files.len() > 100, "found only {} files", files.len());
    let mut outer = Vec::new();
    for path in &files {
        let text: String = program_text(path).split_whitespace().collect();
        for (at, _) in text.match_indices("sync::") {
            let rest = &text[at + "sync::".len()..];
            // `std::sync::X`, `sync::X` or `std::sync::{A, B as C, …}`.
            let names = match rest.strip_prefix('{') {
                Some(group) => group.split('}').next().unwrap_or_default(),
                None => rest
                    .split(|c: char| !c.is_alphanumeric() && c != '_')
                    .next()
                    .unwrap_or_default(),
            };
            for name in names.split(',') {
                let name = name.split("as").next().unwrap_or_default();
                assert!(
                    name != "Mutex" && name != "RwLock",
                    "{} names std::sync::{name}: use parking_lot's, which the lock rule checks",
                    path.display()
                );
            }
        }
        outer.extend(text.matches("Mutex::new_outer(").map(|_| path.clone()));
    }
    assert_eq!(
        outer,
        [root().join("crates/migrate/src/live/io.rs")],
        "the one outer lock is DestIo's gate"
    );
}

#[test]
fn phase_decisions_and_frame_charges_live_in_migrate_phase() {
    // The fleet executor drives the phase machine; it does not redo the
    // simulator's arithmetic or price a frame itself.
    let mut orchestrator = Vec::new();
    rust_files(&root().join("crates/orchestrator/src"), &mut orchestrator);
    assert!(orchestrator.len() > 5, "found {} files", orchestrator.len());
    for path in &orchestrator {
        let text = program_text(path);
        for name in ["migrate::sim", "BLOCK_REF_WIRE", "FRAME_OVERHEAD"] {
            assert!(
                !text.contains(name),
                "{} names {name}: book through migrate::phase",
                path.display()
            );
        }
    }
    // The hand-written charges the booking module replaced: a batch's
    // indexed payload plus its frame, a page's wire size, the freeze's
    // three frames.
    let book = root().join("crates/migrate/src/phase/book.rs");
    let files = program_files();
    assert!(files.contains(&book), "the booking module moved");
    for path in files.iter().filter(|p| **p != book) {
        let text = program_text(path);
        for charge in ["+ 8) + FRAME_OVERHEAD", "PAGE_WIRE", "3 * FRAME_OVERHEAD"] {
            assert!(
                !text.contains(charge),
                "{} books `{charge}` by hand: use migrate::phase's booking",
                path.display()
            );
        }
    }
}

#[test]
fn unit_contents_live_in_vdisk() {
    // A store that knows what its never-written units read as is a byte
    // store; guest RAM is a `VirtualDisk` of pages, not a second one.
    let vdisk = root().join("crates/vdisk/src");
    let files = program_files();
    assert!(files.iter().any(|p| p.starts_with(&vdisk)), "vdisk moved");
    for path in files.iter().filter(|p| !p.starts_with(&vdisk)) {
        assert!(
            !program_text(path).contains("Unwritten"),
            "{} names Unwritten: keep unit contents in vdisk's store",
            path.display()
        );
    }
}

/// Each struct declared in `text`: its name and its body (what lies
/// between its braces or parentheses), comments dropped and whitespace
/// removed.
fn struct_bodies(text: &str) -> Vec<(String, String)> {
    let code: String = text
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .collect::<Vec<_>>()
        .join("\n");
    let mut out = Vec::new();
    for (at, _) in code.match_indices("struct ") {
        if at > 0 && !code[..at].ends_with(char::is_whitespace) {
            continue;
        }
        let rest = &code[at + "struct ".len()..];
        let name: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        let Some(open) = rest.find(['{', '(', ';']) else {
            continue;
        };
        let close = match rest.as_bytes()[open] {
            b'{' => '}',
            b'(' => ')',
            _ => continue,
        };
        let body = &rest[open + 1..];
        let end = matching(body, rest.as_bytes()[open] as char, close);
        out.push((name, body[..end].split_whitespace().collect()));
    }
    out
}

/// Where `text` closes the `open` it starts inside of (an `->` arrow
/// closes nothing).
fn matching(text: &str, open: char, close: char) -> usize {
    let mut depth = 1;
    let mut prev = ' ';
    for (i, c) in text.char_indices() {
        if c == open {
            depth += 1;
        } else if c == close && !(close == '>' && prev == '-') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        prev = c;
    }
    text.len()
}

/// `text` names the type `name` as a whole word.
fn names(text: &str, name: &str) -> bool {
    let word = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    text.match_indices(name).any(|(at, _)| {
        !word(text[..at].chars().next_back()) && !word(text[at + name.len()..].chars().next())
    })
}

/// The images a host kept of a VM (`MetaDisk`s) live in one store,
/// `blockstore::BlockDirectory`, and no second replica store grows
/// beside it. The check reads every struct declared in a program file
/// outside `crates/blockstore/src` as text. A struct holds a store of
/// images when its body has a `Vec`, `VecDeque`, `BTreeMap` or `HashMap`
/// whose type arguments name `MetaDisk`, or a `BTreeMap` or `HashMap`
/// whose type arguments name a struct with a `MetaDisk` field (a map of
/// `Replica { disk: MetaDisk, .. }`). One image in a field (a VM's live
/// disk, a stream's destination image) is not a store, and a vector of
/// structs that each hold one (the fleet's VMs) is not either. Not
/// covered: locals and parameters, which live for one call; type aliases;
/// and images nested two structs deep.
#[test]
fn replica_images_live_in_the_block_directory() {
    let blockstore = root().join("crates/blockstore/src");
    let files = program_files();
    assert!(
        files.iter().any(|p| p.starts_with(&blockstore)),
        "blockstore moved"
    );
    let structs: Vec<(PathBuf, String, String)> = files
        .iter()
        .flat_map(|path| {
            struct_bodies(&program_text(path))
                .into_iter()
                .map(move |(name, body)| (path.clone(), name, body))
        })
        .collect();
    assert!(
        structs.iter().any(|(_, name, _)| name == "VmHandle"),
        "found no structs"
    );
    let holders: Vec<&str> = structs
        .iter()
        .filter(|(_, _, body)| body.contains(":MetaDisk,") || body.ends_with(":MetaDisk"))
        .map(|(_, name, _)| name.as_str())
        .collect();
    assert!(holders.contains(&"VmHandle"), "found no image holders");
    for (path, name, body) in structs.iter().filter(|(p, ..)| !p.starts_with(&blockstore)) {
        for kind in ["Vec<", "VecDeque<", "BTreeMap<", "HashMap<"] {
            for (at, _) in body.match_indices(kind) {
                let args = &body[at + kind.len()..];
                let args = &args[..matching(args, '<', '>')];
                let map = kind.ends_with("Map<");
                let held = std::iter::once("MetaDisk")
                    .chain(holders.iter().copied().filter(|_| map))
                    .find(|held| names(args, held));
                assert!(
                    held.is_none(),
                    "{}: {name} keeps {} in a {kind}..>: keep kept images in \
                     blockstore::BlockDirectory",
                    path.display(),
                    held.unwrap_or_default()
                );
            }
        }
    }
}

/// The paper's testbed is written once, in `migrate::testbed` (and the
/// link in `simnet::Link::gigabit`); the fleet and the scenario engine
/// read it from there. The check reads the program text of every file
/// under `crates/orchestrator/src` and `crates/scenario/src` (test
/// modules excluded) for the testbed's literals as the calibration
/// writes them: the disk's `137.7`, the link's `119.0 * 1024.0`, the
/// pipeline's `50.0 * 1024.0`, and the step and freeze costs as
/// `from_millis(250)`, `from_millis(25)` and `from_millis(15)`. Not
/// covered: the same value spelled another way (`137.70`,
/// `52_428_800.0`, `from_micros(15_000)`), and every other crate.
#[test]
fn testbed_calibration_is_written_once() {
    let mut files = Vec::new();
    for dir in ["crates/orchestrator/src", "crates/scenario/src"] {
        rust_files(&root().join(dir), &mut files);
    }
    assert!(files.len() > 10, "found {} files", files.len());
    for path in &files {
        let text = program_text(path);
        for literal in [
            "137.7",
            "119.0 * 1024.0",
            "50.0 * 1024.0",
            "from_millis(15)",
            "from_millis(25)",
            "from_millis(250)",
        ] {
            assert!(
                !text.contains(literal),
                "{} writes the testbed's `{literal}`: read it from migrate::testbed",
                path.display()
            );
        }
    }
}

/// The content index (`vdisk::ContentIndex`) has one owner: the live
/// destination's `DestState`, which builds it at a dedup handshake and
/// keeps it across reconnects. The check reads the program text of every
/// program file (test modules excluded) for the type's name as a whole
/// word. It may appear where it is defined and re-exported
/// (`crates/vdisk/src/content.rs`, `crates/vdisk/src/lib.rs`), in the
/// live destination's state and data plane (`crates/migrate/src/live/
/// dest.rs`, `plane.rs`), and in `crates/blockstore/src/planner.rs`,
/// whose `FetchPlanner::plan` borrows a caller's index for one plan and
/// keeps none. A disk, a source or a fleet that names it again is a
/// second store of fingerprints. Not covered: a type alias or a
/// re-export under another name.
#[test]
fn the_content_index_lives_with_the_destination() {
    let allowed = [
        "crates/vdisk/src/content.rs",
        "crates/vdisk/src/lib.rs",
        "crates/migrate/src/live/dest.rs",
        "crates/migrate/src/live/plane.rs",
        "crates/blockstore/src/planner.rs",
    ]
    .map(|rel| root().join(rel));
    let files = program_files();
    for path in &allowed {
        assert!(files.contains(path), "{} moved", path.display());
    }
    for path in files.iter().filter(|p| !allowed.contains(p)) {
        assert!(
            !names(&program_text(path), "ContentIndex"),
            "{} names ContentIndex: the live destination's DestState owns the \
             content index",
            path.display()
        );
    }
}

/// The freeze window is priced once, by `migrate::phase::freeze_window`,
/// for the simulator, the baselines and the fleet alike: Xen's suspend
/// and resume costs are named nowhere outside `crates/migrate/src/phase/`,
/// and the fleet's own freeze model (a fixed `frozen_mem_pages` tail and
/// a private `FREEZE_LATENCY`) is gone from every program file. The check
/// reads each program file's text (test modules excluded) for the names
/// as whole words and lists every file that writes one. Not covered: the
/// same costs written as literals, or a freeze priced by a formula that
/// names neither.
#[test]
fn the_freeze_window_is_priced_once() {
    let phase = root().join("crates/migrate/src/phase");
    let files = program_files();
    assert!(files.iter().any(|p| p.starts_with(&phase)), "phase moved");
    let mut offenders = Vec::new();
    for path in &files {
        let text = program_text(path);
        let mut banned = vec!["frozen_mem_pages", "FREEZE_LATENCY"];
        if !path.starts_with(&phase) {
            banned.extend(["SUSPEND_OVERHEAD", "RESUME_OVERHEAD"]);
        }
        for name in banned.into_iter().filter(|name| names(&text, name)) {
            let rel = path.strip_prefix(root()).unwrap_or(path);
            offenders.push(format!("{} names {name}", rel.display()));
        }
    }
    assert!(
        offenders.is_empty(),
        "price the freeze window with migrate::phase::freeze_window:\n{}",
        offenders.join("\n")
    );
}

/// The one clock (DESIGN.md §13): `migrate::phase::pace_step` paces
/// every step of both virtual-time engines, and
/// `simnet::capacity::seek_aware_share` is the one disk share. A program
/// file outside `crates/migrate/src/phase/` that defines a pacer of its
/// own (`fn pace_step`, or the fleet's former `fn quota`), or any program
/// file that names the two-party `share_two`, fails.
#[test]
fn the_clock_is_paced_once() {
    let phase = root().join("crates/migrate/src/phase");
    let files = program_files();
    assert!(files.iter().any(|p| p.starts_with(&phase)), "phase moved");
    let mut offenders = Vec::new();
    for path in &files {
        let text = program_text(path);
        let mut banned = vec!["share_two"];
        if !path.starts_with(&phase) {
            banned.extend(["fn pace_step", "fn quota"]);
        }
        for name in banned.into_iter().filter(|name| names(&text, name)) {
            let rel = path.strip_prefix(root()).unwrap_or(path);
            offenders.push(format!("{} names {name}", rel.display()));
        }
    }
    assert!(
        offenders.is_empty(),
        "pace with migrate::phase::pace_step, share a disk with seek_aware_share:\n{}",
        offenders.join("\n")
    );
}
