//! The `virtual_time` workload: host time of the two virtual-time engines
//! (`migrate::sim` and `orchestrator` driven by `scenario`). The live data
//! plane is not executed at all.

use std::time::Instant;

use block_bitmap::{DirtyMap, FlatBitmap};
use migrate::sim::{run_template_clone_fanin_traced, run_tpm_traced};
use migrate::MigrationConfig;
use scenario::ScenarioSpec;
use serde_json::{json, Value};
use telemetry::Recorder;
use workloads::WorkloadKind;

use crate::measure::process_cpu_ms;
use crate::Case;

/// Holders of the golden image in the fan-in run.
const FANIN_PEERS: usize = 4;
/// VMs of the maintenance fleet.
const FLEET_VMS: usize = 8;

/// A rolling-maintenance fleet shaped like E15 (8 hosts, 25 MiB/s NICs,
/// 64 MiB VMs, 20 s high / 40 s low activity cycles, 15 s dwell per host)
/// under the cycle-aware policy, in the `.scn` language. It has `FLEET_VMS`
/// VMs where E15 has 32, so that the fleet takes 20 ms of a round and not
/// 370 (see README, "Steadiness").
pub fn fleet_scn(seed: u64) -> String {
    let mut text =
        format!("fleet hosts=8 vms={FLEET_VMS} blocks=16384 seed={seed} policy=cycle-aware\n");
    for h in 0..8 {
        text += &format!("host h{h} nic=25MiB\n");
    }
    for vm in 0..FLEET_VMS {
        text += &format!("cycle vm{vm} high=20s low=40s scale=0.125 keep=1/8\n");
    }
    text += "at 0s maintenance h0 h1 h2 h3 h4 h5 h6 h7 dwell=15s\n";
    text
}

/// One prepared suite: the single-VM configuration, the template
/// divergence and the parsed fleet scenario.
pub struct VirtCase {
    pub cfg: MigrationConfig,
    diverged: FlatBitmap,
    pub spec: ScenarioSpec,
}

/// One suite round, reduced to plain numbers. `virt_*` fields are
/// simulated outputs: the same seed gives the same value on every run.
#[derive(Debug, Clone, Default)]
pub struct VirtSample {
    pub total_ms: f64,
    pub cpu_ms: f64,
    pub tpm_web_ms: f64,
    pub tpm_diabolical_ms: f64,
    pub fanin_ms: f64,
    pub fleet_ms: f64,
    pub virt_total_s: f64,
    pub virt_downtime_ms: f64,
    pub virt_wire_bytes: f64,
    pub fanin_peer_share: f64,
    pub virt_makespan_s: f64,
    pub virt_fleet_bytes: f64,
    pub fleet_migrations: f64,
}

impl Case for VirtCase {
    type Sample = VirtSample;

    /// A quarter of the repository's CI scale (256 MiB disk, 16 MiB guest)
    /// with the paper testbed's rates: a round takes about 30 ms of host
    /// time. Short rounds are what repeats on a shared host (see README,
    /// "Steadiness"); the 40 GB testbed itself takes 6-8 s per round.
    fn prepare(_workload: &str, seed: u64) -> Result<Self, String> {
        let cfg = MigrationConfig {
            disk_blocks: 65_536,
            mem_pages: 4_096,
            seed,
            ..MigrationConfig::paper_testbed()
        };
        // 8 % divergence: every twelfth block rewritten on the source.
        let mut diverged = FlatBitmap::new(cfg.disk_blocks);
        for b in (0..cfg.disk_blocks).step_by(12) {
            diverged.set(b);
        }
        let spec = scenario::parse(&fleet_scn(seed)).map_err(|e| format!("fleet spec: {e}"))?;
        Ok(Self {
            cfg,
            diverged,
            spec,
        })
    }

    /// Run one round: TPM under the web and the diabolical guest, the
    /// template-clone fan-in, and the rolling-maintenance fleet, each with
    /// its telemetry journal on when `traced`. `Err` when any report is
    /// not consistent.
    fn run_once(&self, traced: bool, _corrupt_dest: bool) -> Result<VirtSample, String> {
        let recorder = || {
            if traced {
                Recorder::enabled()
            } else {
                Recorder::off()
            }
        };
        let cpu_before = process_cpu_ms();
        let start = Instant::now();
        let mut lap = start;
        let mut lap_ms = || {
            let now = Instant::now();
            let ms = now.duration_since(lap).as_secs_f64() * 1e3;
            lap = now;
            ms
        };

        let web = run_tpm_traced(self.cfg.clone(), WorkloadKind::Web, recorder());
        let tpm_web_ms = lap_ms();
        let diabolical = run_tpm_traced(self.cfg.clone(), WorkloadKind::Diabolical, recorder());
        let tpm_diabolical_ms = lap_ms();
        let fanin = run_template_clone_fanin_traced(
            self.cfg.clone(),
            WorkloadKind::Idle,
            self.diverged.clone(),
            FANIN_PEERS,
            recorder(),
        );
        let fanin_ms = lap_ms();
        let fleet = scenario::run(&self.spec, recorder());
        let fleet_ms = lap_ms();
        let total_ms = start.elapsed().as_secs_f64() * 1e3;
        let cpu_ms = process_cpu_ms() - cpu_before;

        let fleet = fleet.map_err(|e| format!("fleet run: {e}"))?.report;
        let sims = [&web.report, &diabolical.report, &fanin.report];
        if let Some(bad) = sims.iter().find(|r| !r.consistent) {
            return Err(format!("{} / {}: inconsistent", bad.scheme, bad.workload));
        }
        if !fleet.all_consistent() || fleet.completed() != fleet.records.len() {
            return Err(format!(
                "fleet: {}/{} completed, consistent = {}",
                fleet.completed(),
                fleet.records.len(),
                fleet.all_consistent()
            ));
        }
        Ok(VirtSample {
            total_ms,
            cpu_ms,
            tpm_web_ms,
            tpm_diabolical_ms,
            fanin_ms,
            fleet_ms,
            virt_total_s: sims.iter().map(|r| r.total_time_secs).sum(),
            virt_downtime_ms: sims.iter().map(|r| r.downtime_ms).sum(),
            virt_wire_bytes: sims.iter().map(|r| r.ledger.total() as f64).sum(),
            fanin_peer_share: fanin.report.multisource.peer_fraction(),
            virt_makespan_s: fleet.makespan_secs(),
            virt_fleet_bytes: fleet.total_bytes() as f64,
            fleet_migrations: fleet.records.len() as f64,
        })
    }

    fn total_ms(s: &VirtSample) -> f64 {
        s.total_ms
    }

    fn cpu_ms(s: &VirtSample) -> f64 {
        s.cpu_ms
    }

    /// Nothing beyond time and CPU: the simulated outputs repeat exactly.
    fn raw(&self, _samples: &[VirtSample]) -> Value {
        json!({})
    }
}
