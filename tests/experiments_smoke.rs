//! The repro harness must run every experiment end-to-end at CI scale
//! and produce well-formed output — guards the (d) deliverable.

use bench_suite::{experiments, Scale};

#[test]
fn every_experiment_runs_at_ci_scale() {
    for id in experiments::ALL {
        let res = experiments::run(id, Scale::Ci)
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
    }
}

#[test]
fn unknown_experiment_is_rejected() {
    assert!(experiments::run("not-an-experiment", Scale::Ci).is_none());
}

#[test]
fn table1_ci_scale_is_consistent_and_ordered() {
    let res = experiments::run("table1", Scale::Ci).expect("table1 exists");
    let rows = res.json["rows"].as_array().expect("rows array");
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
    let res = experiments::run("locality", Scale::Ci).expect("locality exists");
    let rows = res.json["rows"].as_array().expect("rows");
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
    let res = experiments::run("cluster", Scale::Ci).expect("cluster exists");
    let rows = res.json["rows"].as_array().expect("rows");
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
    let res = experiments::run("futurework", Scale::Ci).expect("futurework exists");
    let disk = res.json["disk_blocks"].as_u64().expect("u64");
    let hops = res.json["multisite_hops"].as_array().expect("hops");
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
