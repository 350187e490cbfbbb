//! Every `repro` figure is pinned by equality: each experiment's JSON,
//! at CI scale (`results/ci/`) and at paper scale (`results/`), must equal
//! its checked-in file except for the wall-clock fields listed in
//! [`WALL_CLOCK`]. Bless after a deliberate change with
//! `repro all --scale ci --out results/ci` (and `repro all --scale paper`)
//! and say why in CHANGES.md. The shape tests below then hold each paper
//! claim over the pinned CI output.

use bench_suite::{experiments, Scale};
use serde_json::Value;

/// The fields a run may change: stopwatch readings and what is derived
/// from them, per experiment. `[*]` stands for any array index. Every
/// other field is a pure function of the seed, and a new wall-clock
/// field fails the comparison until it is listed here.
const WALL_CLOCK: &[(&str, &[&str])] = &[
    (
        "bitmap",
        &["rows[*].flat_scan_us", "rows[*].layered_scan_us"],
    ),
    (
        "table3",
        &[
            "interception_cost_ns",
            "full_path_tracked_kbs",
            "rows[*].tracked_kbs",
            "rows[*].overhead_pct",
            "worst_overhead_pct",
            "holds_under_1pct",
        ],
    ),
];

/// The checked-in `<dir>/<id>.json`.
fn pinned(dir: &str, id: &str) -> Value {
    let path = format!("{}/{dir}/{id}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Walks `pinned` and `now` side by side and appends one line per field
/// that differs. `shape` is `path` with every index written `[*]`, the
/// form [`WALL_CLOCK`] lists.
fn diff(
    pinned: &Value,
    now: &Value,
    path: &str,
    shape: &str,
    skip: &[&str],
    out: &mut Vec<String>,
) {
    let join = |base: &str, key: &str| {
        if base.is_empty() {
            key.to_string()
        } else {
            format!("{base}.{key}")
        }
    };
    match (pinned, now) {
        (Value::Object(a), Value::Object(b)) => {
            for (key, va) in a {
                match now.get(key) {
                    Some(vb) => diff(va, vb, &join(path, key), &join(shape, key), skip, out),
                    None => out.push(format!("{}: pinned {va}, now absent", join(path, key))),
                }
            }
            for (key, vb) in b.iter().filter(|(k, _)| pinned.get(k).is_none()) {
                out.push(format!("{}: not pinned, now {vb}", join(path, key)));
            }
        }
        (Value::Array(a), Value::Array(b)) if a.len() == b.len() => {
            for (i, (va, vb)) in a.iter().zip(b).enumerate() {
                diff(
                    va,
                    vb,
                    &format!("{path}[{i}]"),
                    &format!("{shape}[*]"),
                    skip,
                    out,
                );
            }
        }
        (Value::Array(a), Value::Array(b)) => {
            out.push(format!("{path}: pinned {} items, now {}", a.len(), b.len()))
        }
        _ if skip.contains(&shape) => {}
        _ if pinned != now => out.push(format!("{path}: pinned {pinned}, now {now}")),
        _ => {}
    }
}

/// Runs every experiment at `scale` and compares its JSON, rendered the
/// way `repro` writes it and parsed back, with `<dir>/<id>.json`. Panics
/// listing every experiment, field, pinned value and new value that
/// differ.
fn assert_pinned(scale: Scale, dir: &str) {
    let mut moved = Vec::new();
    for id in experiments::ALL {
        let res = experiments::run(id, scale)
            .unwrap_or_else(|| panic!("experiment {id} unknown to the dispatcher"));
        assert_eq!(res.id, id);
        assert!(!res.title.is_empty());
        assert!(
            res.human.len() > 100,
            "{id} produced a suspiciously short rendering"
        );
        assert!(res.json.is_object(), "{id} must emit a JSON object");
        assert!(
            res.json.get("scale").is_some(),
            "{id} JSON must record its scale"
        );
        let text = serde_json::to_string_pretty(&res.json).expect("render");
        let now: Value = serde_json::from_str(&text).expect("re-parse");
        let skip = WALL_CLOCK
            .iter()
            .find(|(name, _)| *name == id)
            .map_or(&[][..], |(_, fields)| fields);
        let mut fields = Vec::new();
        diff(&pinned(dir, id), &now, "", "", skip, &mut fields);
        moved.extend(fields.into_iter().map(|f| format!("{id} {f}")));
    }
    assert!(
        moved.is_empty(),
        "{} field(s) differ from {dir}/ (bless with `repro all --scale {} --out {dir}` \
         and say why in CHANGES.md):\n{}",
        moved.len(),
        if scale == Scale::Ci { "ci" } else { "paper" },
        moved.join("\n")
    );
}

/// The CI-scale pins, in tier-1.
#[test]
fn every_experiment_runs_at_ci_scale() {
    assert_pinned(Scale::Ci, "results/ci");
}

#[test]
#[ignore = "paper scale, run by ci.sh in release"]
fn every_experiment_matches_its_paper_scale_pin() {
    assert_pinned(Scale::Paper, "results");
}

#[test]
fn unknown_experiment_is_rejected() {
    assert!(experiments::run("not-an-experiment", Scale::Ci).is_none());
}

#[test]
fn table1_ci_scale_is_consistent_and_ordered() {
    let json = pinned("results/ci", "table1");
    let rows = json["rows"].as_array().expect("rows array");
    assert_eq!(rows.len(), 3);
    for row in rows {
        assert_eq!(row["report"]["consistent"], true, "{}", row["workload"]);
    }
    // The diabolical server must be the slowest migration (Table I's
    // ordering), at any scale.
    let t = |i: usize| rows[i]["report"]["total_time_secs"].as_f64().expect("f64");
    assert!(t(2) > t(0) && t(2) > t(1));
}

#[test]
fn locality_ratios_track_paper_ordering() {
    let json = pinned("results/ci", "locality");
    let rows = json["rows"].as_array().expect("rows");
    let ratio = |i: usize| rows[i]["measured"]["rewrite_ratio"].as_f64().expect("f64");
    // kernel < web < bonnie, as in §IV-A-2.
    assert!(
        ratio(0) < ratio(1),
        "kernel {} !< web {}",
        ratio(0),
        ratio(1)
    );
    assert!(
        ratio(1) < ratio(2),
        "web {} !< bonnie {}",
        ratio(1),
        ratio(2)
    );
}

#[test]
fn cluster_im_aware_wave2_beats_fifo() {
    let json = pinned("results/ci", "cluster");
    let rows = json["rows"].as_array().expect("rows");
    let by_policy = |name: &str| {
        rows.iter()
            .find(|r| r["policy"] == name)
            .unwrap_or_else(|| panic!("no {name} row"))
    };
    for row in rows {
        assert_eq!(row["all_consistent"], true, "{}", row["policy"]);
        assert_eq!(row["completed"], row["migrations"], "{}", row["policy"]);
    }
    let fifo = by_policy("fifo");
    let im = by_policy("im-aware");
    assert!(im["incremental"].as_u64().expect("u64") > 0);
    assert_eq!(fifo["incremental"].as_u64(), Some(0));
    // The paper's §V win at fleet scale: the return wave ships only the
    // bitmap diff when the scheduler lands VMs on their stale replicas.
    let w2 = |r: &serde_json::Value| r["wave2_bytes"].as_u64().expect("u64");
    assert!(
        w2(im) < w2(fifo) / 2,
        "im-aware wave 2 {} !< half of fifo wave 2 {}",
        w2(im),
        w2(fifo)
    );
}

/// §VII version maintenance on the fleet's replica table: a host the VM
/// never ran on gets the whole disk in the first pass; a host it left
/// earlier gets less than a tenth of it.
#[test]
fn multisite_revisits_are_incremental() {
    let json = pinned("results/ci", "futurework");
    let disk = json["disk_blocks"].as_u64().expect("u64");
    let hops = json["multisite_hops"].as_array().expect("hops");
    let first_pass = |i: usize| hops[i]["first_pass_blocks"].as_u64().expect("u64");
    assert_eq!(hops.len(), 4);
    for hop in hops {
        assert_eq!(hop["consistent"], true, "{hop}");
    }
    // office->home and office->lab: first visits.
    assert_eq!(first_pass(0), disk);
    assert_eq!(first_pass(2), disk);
    // home->office and lab->home: revisits.
    for i in [1, 3] {
        assert!(
            first_pass(i) * 10 < disk,
            "hop {i} to a visited site shipped {} of {disk} blocks",
            first_pass(i)
        );
    }
}

#[test]
fn table3_holds_the_one_percent_claim() {
    let res = experiments::run("table3", Scale::Ci).expect("table3 exists");
    assert_eq!(res.json["holds_under_1pct"], true);
}
