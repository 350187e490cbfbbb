//! Scenario-engine acceptance tests: identity, determinism, and the
//! rolling-maintenance chaos matrix.
//!
//! The scenario engine's core contract is that it is a *pure overlay*:
//! an empty scenario must reproduce the classic orchestrator run
//! byte-for-byte (same report, same JSONL journal), and any chaos
//! schedule must be a deterministic function of its seed. On top of
//! that sit the ISSUE's acceptance runs: an 8-host / 32-VM rolling
//! maintenance wave with a partition injected and healed mid-wave
//! completes block-exact consistent under every seed in the matrix,
//! and the cycle-aware policy beats the cycle-blind baseline on total
//! bytes in the E15 geometry.

use block_bitmap_migration::orchestrator::{FleetDynamics, MigrationRequest, VmId};
use block_bitmap_migration::prelude::*;
use block_bitmap_migration::scenario;
use block_bitmap_migration::telemetry::to_jsonl;

/// The shared small geometry: 4 hosts, 8 VMs, 32 MiB disks.
fn small_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(4, 8);
    spec.disk_blocks = Some(8_192);
    spec
}

/// A classic two-wave request stream expressed as scenario requests.
fn two_wave_requests(cfg: &ClusterConfig, gap: SimDuration) -> Vec<MigrationRequest> {
    Scenario::two_wave(cfg, gap).requests
}

/// Identity: a scenario with no islands, links, caps, cycles or events
/// runs the exact same simulation as the pre-scenario orchestrator —
/// the reports agree field by field and the telemetry journals are
/// byte-identical JSONL. This is what makes every pre-existing number
/// in the repo still trustworthy with the scenario engine in the loop.
#[test]
fn empty_scenario_reproduces_classic_journal_byte_for_byte() {
    let mut spec = small_spec();
    let cfg = scenario::config_for(&spec);
    let gap = SimDuration::from_secs(30);
    spec.requests = two_wave_requests(&cfg, gap);

    let classic_rec = Recorder::enabled();
    let mut classic = Orchestrator::new(cfg.clone(), Policy::ImAware, classic_rec.clone())
        .expect("classic config is valid");
    let classic_report = classic.run(&Scenario {
        requests: spec.requests.clone(),
    });

    let scn_rec = Recorder::enabled();
    let run = scenario::run_with_policy(&spec, Policy::ImAware, scn_rec.clone())
        .expect("empty scenario is valid");

    assert_eq!(
        classic_report.records.len(),
        run.report.records.len(),
        "same migrations admitted"
    );
    assert_eq!(classic_report.completed(), run.report.completed());
    assert_eq!(classic_report.total_bytes(), run.report.total_bytes());
    assert_eq!(classic_report.makespan_secs(), run.report.makespan_secs());
    assert_eq!(
        classic_report.aggregate_downtime_ms(),
        run.report.aggregate_downtime_ms()
    );
    let classic_journal = to_jsonl(&classic_rec.records());
    let scenario_journal = to_jsonl(&scn_rec.records());
    assert!(!classic_journal.is_empty(), "classic run journaled events");
    assert_eq!(
        classic_journal, scenario_journal,
        "empty scenario must journal byte-identically to the classic run"
    );
}

/// A mid-wave chaos spec on the small geometry: every VM migrates at
/// t = 0, the fleet partitions into two islands five seconds in
/// (stranding cross-island streams), and heals at t = 35 s.
fn partition_chaos_spec(seed: u64) -> ScenarioSpec {
    let mut spec = small_spec();
    spec.seed = Some(seed);
    spec.islands.push(scenario::Island {
        name: "LEFT".to_string(),
        hosts: vec![0, 1],
    });
    spec.islands.push(scenario::Island {
        name: "RIGHT".to_string(),
        hosts: vec![2, 3],
    });
    for vm in 0..spec.vms {
        spec.requests.push(MigrationRequest {
            vm: VmId(vm),
            dest: None,
            at: SimTime::ZERO,
        });
    }
    spec.events.push(TimedEvent {
        at: SimTime::ZERO + SimDuration::from_secs(5),
        event: ChaosEvent::Partition {
            islands: vec![vec![0, 1], vec![2, 3]],
        },
    });
    spec.events.push(TimedEvent {
        at: SimTime::ZERO + SimDuration::from_secs(35),
        event: ChaosEvent::Heal,
    });
    spec
}

/// Determinism: one seed pins the whole chaos run. Two executions of
/// the same partition-mid-wave spec journal byte-identical JSONL and
/// produce identical reports, and the journal actually contains the
/// partition lifecycle (this is chaos, not a quiet run).
#[test]
fn same_seed_chaos_runs_are_byte_identical() {
    let mut journals = Vec::new();
    let mut totals = Vec::new();
    for _ in 0..2 {
        let rec = Recorder::enabled();
        let run = scenario::run_with_policy(&partition_chaos_spec(7), Policy::ImAware, rec.clone())
            .expect("partition spec is valid");
        journals.push(to_jsonl(&rec.records()));
        totals.push((
            run.report.completed(),
            run.report.total_bytes(),
            run.report.makespan_secs().to_bits(),
        ));
    }
    assert_eq!(
        journals[0], journals[1],
        "same seed must replay the chaos schedule byte-identically"
    );
    assert_eq!(totals[0], totals[1]);
    assert!(
        journals[0].contains("\"partition_started\"") || journals[0].contains("PartitionStarted"),
        "chaos journal must show the partition starting"
    );
    assert!(
        journals[0].contains("\"partition_healed\"") || journals[0].contains("PartitionHealed"),
        "chaos journal must show the partition healing"
    );
}

/// The ISSUE acceptance spec: 8 hosts x 32 VMs, a rolling maintenance
/// wave over every host (10 s dwell each), and a fleet partition
/// injected 20 s in — mid-wave, while evacuations are in flight — and
/// healed 40 s later.
fn rolling_maintenance_spec(seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(8, 32);
    spec.disk_blocks = Some(8_192);
    spec.seed = Some(seed);
    spec.events.push(TimedEvent {
        at: SimTime::ZERO,
        event: ChaosEvent::Maintenance {
            hosts: (0..8).collect(),
            dwell: SimDuration::from_secs(10),
        },
    });
    spec.events.push(TimedEvent {
        at: SimTime::ZERO + SimDuration::from_secs(20),
        event: ChaosEvent::Partition {
            islands: vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]],
        },
    });
    spec.events.push(TimedEvent {
        at: SimTime::ZERO + SimDuration::from_secs(60),
        event: ChaosEvent::Heal,
    });
    spec
}

/// Acceptance: the rolling-maintenance chaos run completes block-exact
/// consistent with bounded makespan under every seed in the matrix.
/// Every evacuation the wave injects finishes, every verified image is
/// byte-identical to its source, and the whole schedule (including the
/// stall while partitioned) lands well inside the orchestrator horizon.
#[test]
fn rolling_maintenance_with_midwave_partition_acceptance_matrix() {
    for seed in [1u64, 2, 3] {
        let spec = rolling_maintenance_spec(seed);
        let horizon_secs = scenario::config_for(&spec).horizon.as_nanos() as f64 / 1e9;
        let run = scenario::run_with_policy(&spec, Policy::ImAware, Recorder::off())
            .expect("maintenance spec is valid");
        let report = run.report;
        assert!(
            !report.records.is_empty(),
            "seed {seed}: maintenance wave must inject evacuations"
        );
        assert_eq!(
            report.completed(),
            report.records.len(),
            "seed {seed}: every evacuation completes"
        );
        assert_eq!(report.unserved, 0, "seed {seed}: no unserved requests");
        assert!(
            report.all_consistent(),
            "seed {seed}: every migrated image must verify block-exact"
        );
        assert!(
            report.makespan_secs() < horizon_secs,
            "seed {seed}: makespan {}s must stay inside the {horizon_secs}s horizon",
            report.makespan_secs()
        );
    }
}

/// Maintained ≡ rebuilt: the cluster's block directory holds exactly
/// the replica table's `(vm, host)` pairs and answers every freshness
/// query as a directory folded from the table from scratch does.
fn assert_directory_matches_table(cluster: &Cluster) {
    let mut rebuilt = blockstore::BlockDirectory::new();
    for vm in &cluster.vms {
        rebuilt.merge_replicas(vm.id.0 as u64, cluster.replicas());
    }
    assert_eq!(cluster.directory().len(), rebuilt.len());
    for vm in &cluster.vms {
        let id = vm.id.0 as u64;
        assert_eq!(cluster.directory().holders(id), rebuilt.holders(id));
        for host in rebuilt.holders(id) {
            assert_eq!(
                cluster.directory().fresh_bitmap(id, host, &vm.disk),
                rebuilt.fresh_bitmap(id, host, &vm.disk),
                "{} on h{host}",
                vm.id
            );
        }
    }
}

/// A scenario's dynamics with the directory audited at the top of every
/// tick whose live streams differ from the tick before — an admission
/// adds a stream and a `finalize` removes one, and nothing else writes
/// the replica table, so that is every tick the table changed in.
struct Audited {
    inner: ScenarioDynamics,
    streams: Vec<(usize, usize)>,
    audits: usize,
}

impl FleetDynamics for Audited {
    fn advance(
        &mut self,
        now: SimTime,
        cluster: &Cluster,
        streams: &[(usize, usize)],
        recorder: &Recorder,
    ) -> Vec<MigrationRequest> {
        if streams != self.streams {
            assert_directory_matches_table(cluster);
            self.streams = streams.to_vec();
            self.audits += 1;
        }
        self.inner.advance(now, cluster, streams, recorder)
    }
    fn host_up(&self, host: usize) -> bool {
        self.inner.host_up(host)
    }
    fn cordoned(&self, host: usize) -> bool {
        self.inner.cordoned(host)
    }
    fn connected(&self, a: usize, b: usize) -> bool {
        self.inner.connected(a, b)
    }
    fn nic_capacity(&self, host: usize) -> f64 {
        self.inner.nic_capacity(host)
    }
    fn disk_capacity(&self, host: usize) -> f64 {
        self.inner.disk_capacity(host)
    }
    fn link_bandwidth(&self, a: usize, b: usize) -> f64 {
        self.inner.link_bandwidth(a, b)
    }
    fn link_quality(&self, a: usize, b: usize) -> f64 {
        self.inner.link_quality(a, b)
    }
    fn link_latency(&self, a: usize, b: usize) -> SimDuration {
        self.inner.link_latency(a, b)
    }
    fn workload_scale(&self, vm: usize, now: SimTime) -> f64 {
        self.inner.workload_scale(vm, now)
    }
    fn op_keep(&self, vm: usize, now: SimTime) -> (u64, u64) {
        self.inner.op_keep(vm, now)
    }
    fn high_activity(&self, vm: usize, now: SimTime) -> bool {
        self.inner.high_activity(vm, now)
    }
    fn exhausted(&self, now: SimTime) -> bool {
        self.inner.exhausted(now)
    }
}

/// The directory is kept, not rebuilt — and never drifts: under every
/// policy, through the rolling-maintenance wave, the mid-wave partition,
/// and the partition again with seeded connection resets on (a stream
/// that exhausts its retries leaves a partial image behind, the third
/// way a replica gets recorded), the maintained directory equals the
/// from-scratch fold after every admission and every `finalize`.
#[test]
fn maintained_directory_equals_the_rebuilt_one_through_every_chaos_run() {
    // A quarter of the acceptance fleet: replica-blind policies ship
    // every hop of the wave in full, minutes of virtual time per VM.
    let mut rolling = rolling_maintenance_spec(5);
    rolling.vms = 8;
    for policy in Policy::ALL {
        for (spec, fault_resets) in [
            (rolling.clone(), 0),
            (partition_chaos_spec(5), 0),
            (partition_chaos_spec(5), 8),
        ] {
            let mut cfg = scenario::config_for(&spec);
            cfg.fault_resets = fault_resets;
            cfg.max_retries = 1;
            let mut orch = Orchestrator::new(cfg.clone(), policy, Recorder::off())
                .expect("chaos config is valid");
            let mut dynamics = Audited {
                inner: ScenarioDynamics::new(&spec, &cfg),
                streams: Vec::new(),
                audits: 0,
            };
            let scenario = Scenario {
                requests: spec.requests.clone(),
            };
            let report = orch.run_with_dynamics(&scenario, &mut dynamics);
            assert_directory_matches_table(orch.cluster());
            let what = format!("{} vms={} resets={fault_resets}", policy.name(), spec.vms);
            assert!(
                dynamics.audits >= report.records.len(),
                "{what}: {} audits over {} migrations",
                dynamics.audits,
                report.records.len()
            );
            assert!(!orch.cluster().replicas().is_empty(), "{what}");
            assert_eq!(
                report.records.iter().any(|r| !r.completed),
                fault_resets > 0,
                "{what}: resets, and only resets, leave partial images behind"
            );
        }
    }
}

/// The fleet stops pre-copy by the same rule as the two-host engines
/// (`migrate::precopy_stops`): a pass the guest out-dirtied ends it.
/// Under the partition with seeded resets, migration 7's second pass
/// sends 1 609 blocks while its kernel-build guest dirties 2 048, so its
/// disk pre-copy ends after two passes; without the rule it starts a
/// third (and, resets spent, fails there).
#[test]
fn a_pass_the_guest_out_dirties_ends_fleet_precopy() {
    let spec = partition_chaos_spec(5);
    let mut cfg = scenario::config_for(&spec);
    cfg.fault_resets = 8;
    cfg.max_retries = 1;
    let mut orch =
        Orchestrator::new(cfg.clone(), Policy::ImAware, Recorder::off()).expect("valid config");
    let report = orch.run_with_dynamics(
        &Scenario {
            requests: spec.requests.clone(),
        },
        &mut ScenarioDynamics::new(&spec, &cfg),
    );
    let m7 = report
        .records
        .iter()
        .find(|r| r.migration == 7)
        .expect("migration 7 admitted");
    assert_eq!(m7.passes, 2, "{m7:?}");
}

/// E15 headline: on the bench-suite chaos geometry (8 hosts x 32 VMs,
/// 20 s high / 40 s low workload cycles, 25 MiB/s maintenance NICs),
/// cycle-aware scheduling ships strictly fewer total bytes than the
/// cycle-blind IM-aware baseline, because deferred evacuations run
/// against the thinned low-phase dirty rate.
#[test]
fn cycle_aware_beats_cycle_blind_on_total_bytes() {
    let spec = bench_suite::experiments::chaos::spec(bench_suite::Scale::Ci, 2008);
    let blind = scenario::run_with_policy(&spec, Policy::ImAware, Recorder::off())
        .expect("chaos bench spec is valid")
        .report;
    let aware = scenario::run_with_policy(&spec, Policy::CycleAware, Recorder::off())
        .expect("chaos bench spec is valid")
        .report;
    assert_eq!(blind.completed(), blind.records.len());
    assert_eq!(aware.completed(), aware.records.len());
    assert!(blind.all_consistent() && aware.all_consistent());
    assert!(
        aware.total_bytes() < blind.total_bytes(),
        "cycle-aware must ship fewer bytes: {} vs {}",
        aware.total_bytes(),
        blind.total_bytes()
    );
}

/// The checked-in `.scn` files are live documentation: each one must
/// parse, validate, and run to a fully consistent completion. This is
/// the same set `scripts/ci.sh` smokes across its seed matrix.
#[test]
fn checked_in_scenario_files_parse_and_run() {
    for name in ["partition.scn", "wan.scn", "maintenance.scn"] {
        let path = format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        let mut spec = scenario::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        if spec.seed.is_none() {
            spec.seed = Some(1);
        }
        let policy = spec.policy.unwrap_or(Policy::ImAware);
        let run = scenario::run_with_policy(&spec, policy, Recorder::off())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            run.report.completed(),
            run.report.records.len(),
            "{name}: every migration completes"
        );
        assert!(run.report.all_consistent(), "{name}: block-exact images");
    }
}

/// The WAN-profile run under the IM-aware policy, pinned to the byte and
/// the virtual second: `scenarios/wan.scn` (two islands over a capped,
/// lossy uplink that degrades mid-run) at seed 2008. Both figures are
/// pure functions of the file and the seed; a drift in the scenario
/// engine, the link model or the scheduler changes a digit here.
#[test]
fn wan_profile_totals_are_pinned() {
    let path = format!("{}/scenarios/wan.scn", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let mut spec = scenario::parse(&text).expect("wan.scn parses");
    spec.seed = Some(2008);
    let run =
        scenario::run_with_policy(&spec, Policy::ImAware, Recorder::off()).expect("wan.scn runs");
    assert_eq!(run.report.completed(), run.report.records.len());
    assert!(run.report.all_consistent());
    assert_eq!(run.report.total_bytes(), 560_787_272);
    assert_eq!(run.report.makespan_secs(), 9.0);
}
