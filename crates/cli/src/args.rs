//! Argument parsing (std-only, no external parser).

use orchestrator::Policy;
use workloads::WorkloadKind;

/// Top-level usage text.
pub const USAGE: &str = "\
usage:
  vmmigrate simulate   --workload KIND [--scale paper|ci] [--rate-limit MBPS]
                       [--bitmap flat|layered] [--streams N] [--seed N] [--json]
                       [--no-dedup] [--no-compress] [--sources N]
                       [--no-multisource] [--trace-out FILE] [--metrics-out FILE]
  vmmigrate roundtrip  --workload KIND [--scale paper|ci] [--dwell SECS] [--json]
  vmmigrate live       [--blocks N] [--workload KIND] [--rate-limit MBPS]
                       [--streams N] [--seed N] [--tcp] [--faults N]
                       [--max-reconnects N] [--no-dedup] [--no-compress]
                       [--sources N] [--no-multisource]
                       [--trace-out FILE] [--metrics-out FILE]
  vmmigrate baselines  --workload KIND [--scale paper|ci] [--json]
  vmmigrate orchestrate [--hosts N] [--vms N]
                       [--policy fifo|srdf|im-aware|cycle-aware]
                       [--blocks N] [--seed N] [--faults N] [--dwell SECS]
                       [--no-dedup] [--no-multisource] [--scenario FILE]
                       [--json] [--trace-out FILE] [--metrics-out FILE]
  vmmigrate trace record  --workload KIND --secs N --out FILE
  vmmigrate trace analyze FILE        (an op trace, or a --trace-out journal)

KIND: web | video | diabolical | kernel-build | idle

orchestrate runs a deterministic virtual-time cluster: every VM is
evacuated at t=0, dwells, then migrates again, with concurrent streams
contending for per-host NIC/disk capacity under the chosen scheduling
policy (im-aware returns VMs to hosts holding stale replicas, so the
second wave ships only bitmap diffs).

--trace-out writes the telemetry event journal (JSONL) and prints a phase
summary; --metrics-out writes a JSON metrics snapshot. Either flag enables
the recorder; without them telemetry stays disabled (a single relaxed
atomic load per call site).

Content-aware transfer is on by default: blocks the destination provably
already holds cross as 16-byte references (dedup), and the data plane is
allowed to compress residual full blocks on the wire. simulate always
does. live is allowed to, for blocks and for memory pages (pre-copy and
frozen tail), and decides per batch: it compresses only while a byte
costs more on the link than LZ costs to save it, so a rate-limited link
compresses and an idle in-process one ships raw. live likewise
fingerprints blocks only on a link whose bytes cost something: unpaced,
in-process or --tcp on one host, the link is free and the run is the
--no-dedup --no-compress run ('content-aware: not used: the link is
free'). --no-dedup / --no-compress restore the classic data plane exactly
on any link (bit-identical reports; live RAM is raw page frames whatever
the link); --dedup / --compress re-allow after a --no-* earlier on the
command line.

orchestrate --scenario FILE runs a declarative .scn chaos scenario
instead of the built-in two-wave run: the file declares the fleet
(hosts, vms, seed, policy), islands, WAN links, per-host capacities,
workload cycles, and a virtual-time schedule of partitions, heals,
host crashes, link degrades, and rolling maintenance waves (see
scenarios/*.scn). The spec's fleet geometry wins over --hosts/--vms;
its policy and seed (if set) win over --policy and --seed.

Multi-source transfer is on by default. simulate --sources N runs the
template-clone fan-in scenario: N peer hosts hold the golden image the
migrating VM was cloned from, and the block directory plans owed full
blocks across them under per-host NIC budgets. live --sources N registers
N shared-storage replica holders as failover peers: if the source dies
with its reconnect budget exhausted, the destination completes the image
from the survivors. --no-multisource (all subcommands) restores the
single-source engine exactly (bit-identical reports).";

/// Parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Cmd {
    /// One simulated TPM migration.
    Simulate(SimArgs),
    /// TPM out, dwell, IM back.
    Roundtrip(SimArgs),
    /// Live threaded migration.
    Live(LiveArgs),
    /// Compare TPM with the three baselines.
    Baselines(SimArgs),
    /// Deterministic cluster run under a scheduling policy.
    Orchestrate(OrchArgs),
    /// Record a workload trace to a JSON file.
    TraceRecord {
        /// Workload to record.
        workload: WorkloadKind,
        /// Virtual seconds to record.
        secs: u64,
        /// Output path.
        out: String,
    },
    /// Analyze a recorded op trace's write locality, or summarize a
    /// `--trace-out` telemetry journal.
    TraceAnalyze {
        /// Input path.
        path: String,
    },
}

/// Options shared by the simulated subcommands.
#[derive(Debug, Clone, PartialEq)]
pub struct SimArgs {
    pub workload: WorkloadKind,
    pub paper_scale: bool,
    pub rate_limit_mbps: Option<f64>,
    pub layered: bool,
    /// Parallel disk data-plane streams (word-aligned bitmap shards).
    pub streams: usize,
    /// Content-addressed dedup (on by default; `--no-dedup` disables).
    pub dedup: bool,
    /// Allow wire compression of residual full blocks (`--no-compress`
    /// forbids it).
    pub compress: bool,
    /// Multi-source block fetch (`--no-multisource` disables).
    pub multisource: bool,
    /// Template-clone fan-in: this many peer hosts hold the golden image
    /// (0 = classic two-host migration).
    pub sources: usize,
    pub seed: u64,
    pub dwell_secs: u64,
    pub json: bool,
    /// Write the telemetry event journal (JSONL) here.
    pub trace_out: Option<String>,
    /// Write a JSON metrics snapshot here.
    pub metrics_out: Option<String>,
}

impl Default for SimArgs {
    fn default() -> Self {
        Self {
            workload: WorkloadKind::Web,
            paper_scale: true,
            rate_limit_mbps: None,
            layered: false,
            streams: 1,
            dedup: true,
            compress: true,
            multisource: true,
            sources: 0,
            seed: 2008,
            dwell_secs: 1500,
            json: false,
            trace_out: None,
            metrics_out: None,
        }
    }
}

/// Options for the live subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveArgs {
    pub workload: WorkloadKind,
    pub blocks: usize,
    pub rate_limit_mbps: Option<f64>,
    /// Parallel disk data-plane streams (word-aligned bitmap shards).
    pub streams: usize,
    /// Content-addressed dedup (on by default; `--no-dedup` disables).
    pub dedup: bool,
    /// Allow wire compression of residual full blocks and memory pages;
    /// the engine uses it only while the link pays for it
    /// (`--no-compress` forbids it).
    pub compress: bool,
    /// Multi-source failover (`--no-multisource` disables).
    pub multisource: bool,
    /// Register this many shared-storage replica holders as failover
    /// peers (0 = classic two-host migration).
    pub sources: usize,
    pub seed: u64,
    /// Run over real loopback TCP sockets instead of in-process channels.
    pub tcp: bool,
    /// Inject this many seeded connection resets mid-migration; the
    /// engine must reconnect and resume from the block-bitmap.
    pub faults: u32,
    /// Reconnect attempts permitted after the initial connection.
    pub max_reconnects: u32,
    /// Write the telemetry event journal (JSONL) here.
    pub trace_out: Option<String>,
    /// Write a JSON metrics snapshot here.
    pub metrics_out: Option<String>,
}

impl Default for LiveArgs {
    fn default() -> Self {
        Self {
            workload: WorkloadKind::Web,
            blocks: 65_536,
            rate_limit_mbps: None,
            streams: 1,
            dedup: true,
            compress: true,
            multisource: true,
            sources: 0,
            seed: 2008,
            tcp: false,
            faults: 0,
            max_reconnects: 3,
            trace_out: None,
            metrics_out: None,
        }
    }
}

/// Options for the orchestrate subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct OrchArgs {
    pub hosts: usize,
    pub vms: usize,
    pub policy: Policy,
    pub blocks: usize,
    /// Content-addressed dedup in the cluster data plane (`--no-dedup`
    /// disables; byte accounting only, pacing is unchanged).
    pub dedup: bool,
    /// Multi-source peer-served accounting (`--no-multisource` disables;
    /// byte- and clock-identical either way).
    pub multisource: bool,
    pub seed: u64,
    /// Seeded connection resets injected per migration stream.
    pub faults: u32,
    /// Dwell between the evacuation wave and the return wave.
    pub dwell_secs: u64,
    pub json: bool,
    /// Run a declarative `.scn` chaos scenario from this file instead
    /// of the built-in two-wave run.
    pub scenario: Option<String>,
    /// Write the telemetry event journal (JSONL) here.
    pub trace_out: Option<String>,
    /// Write a JSON metrics snapshot here.
    pub metrics_out: Option<String>,
}

impl Default for OrchArgs {
    fn default() -> Self {
        Self {
            hosts: 4,
            vms: 8,
            policy: Policy::ImAware,
            blocks: 65_536,
            dedup: true,
            multisource: true,
            seed: 2008,
            faults: 0,
            dwell_secs: 30,
            json: false,
            scenario: None,
            trace_out: None,
            metrics_out: None,
        }
    }
}

fn parse_orch(rest: &[String]) -> Result<OrchArgs, String> {
    let mut a = OrchArgs::default();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--hosts" => {
                a.hosts = need(&mut it, flag)?
                    .parse()
                    .map_err(|_| "hosts must be an integer".to_string())?;
                if a.hosts < 2 {
                    return Err("orchestrate needs at least 2 hosts".into());
                }
            }
            "--vms" => {
                a.vms = need(&mut it, flag)?
                    .parse()
                    .map_err(|_| "vms must be an integer".to_string())?;
                if a.vms == 0 {
                    return Err("orchestrate needs at least 1 VM".into());
                }
            }
            "--policy" => {
                let s = need(&mut it, flag)?;
                a.policy = Policy::parse(s)
                    .ok_or_else(|| format!("unknown policy '{s}' (fifo|srdf|im-aware)"))?;
            }
            "--blocks" => {
                a.blocks = need(&mut it, flag)?
                    .parse()
                    .map_err(|_| "blocks must be an integer".to_string())?;
                if a.blocks < 8_192 {
                    return Err("orchestrate needs at least 8192 blocks per VM".into());
                }
            }
            "--seed" => {
                a.seed = need(&mut it, flag)?
                    .parse()
                    .map_err(|_| "seed must be an integer".to_string())?
            }
            "--faults" => {
                a.faults = need(&mut it, flag)?
                    .parse()
                    .map_err(|_| "faults must be an integer".to_string())?
            }
            "--dwell" => {
                a.dwell_secs = need(&mut it, flag)?
                    .parse()
                    .map_err(|_| "dwell must be an integer (seconds)".to_string())?
            }
            "--dedup" => a.dedup = true,
            "--no-dedup" => a.dedup = false,
            "--multisource" => a.multisource = true,
            "--no-multisource" => a.multisource = false,
            "--json" => a.json = true,
            "--scenario" => a.scenario = Some(need(&mut it, flag)?.clone()),
            "--trace-out" => a.trace_out = Some(need(&mut it, flag)?.clone()),
            "--metrics-out" => a.metrics_out = Some(need(&mut it, flag)?.clone()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(a)
}

fn parse_workload(s: &str) -> Result<WorkloadKind, String> {
    match s {
        "web" => Ok(WorkloadKind::Web),
        "video" => Ok(WorkloadKind::Video),
        "diabolical" => Ok(WorkloadKind::Diabolical),
        "kernel-build" | "kernel" => Ok(WorkloadKind::KernelBuild),
        "idle" => Ok(WorkloadKind::Idle),
        other => Err(format!("unknown workload '{other}'")),
    }
}

fn need<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{flag} requires a value"))
}

fn parse_sim(rest: &[String]) -> Result<SimArgs, String> {
    let mut a = SimArgs::default();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = parse_workload(need(&mut it, flag)?)?,
            "--scale" => {
                a.paper_scale = match need(&mut it, flag)?.as_str() {
                    "paper" => true,
                    "ci" | "small" => false,
                    other => return Err(format!("unknown scale '{other}'")),
                }
            }
            "--rate-limit" => {
                let v: f64 = need(&mut it, flag)?
                    .parse()
                    .map_err(|_| "rate limit must be a number (MB/s)".to_string())?;
                if v <= 0.0 {
                    return Err("rate limit must be positive".into());
                }
                a.rate_limit_mbps = Some(v);
            }
            "--bitmap" => {
                a.layered = match need(&mut it, flag)?.as_str() {
                    "flat" => false,
                    "layered" => true,
                    other => return Err(format!("unknown bitmap kind '{other}'")),
                }
            }
            "--streams" => {
                a.streams = need(&mut it, flag)?
                    .parse()
                    .map_err(|_| "streams must be an integer".to_string())?;
                if a.streams == 0 {
                    return Err("streams must be at least 1".into());
                }
            }
            "--seed" => {
                a.seed = need(&mut it, flag)?
                    .parse()
                    .map_err(|_| "seed must be an integer".to_string())?
            }
            "--dwell" => {
                a.dwell_secs = need(&mut it, flag)?
                    .parse()
                    .map_err(|_| "dwell must be an integer (seconds)".to_string())?
            }
            "--dedup" => a.dedup = true,
            "--no-dedup" => a.dedup = false,
            "--compress" => a.compress = true,
            "--no-compress" => a.compress = false,
            "--multisource" => a.multisource = true,
            "--no-multisource" => a.multisource = false,
            "--sources" => {
                a.sources = need(&mut it, flag)?
                    .parse()
                    .map_err(|_| "sources must be an integer".to_string())?
            }
            "--json" => a.json = true,
            "--trace-out" => a.trace_out = Some(need(&mut it, flag)?.clone()),
            "--metrics-out" => a.metrics_out = Some(need(&mut it, flag)?.clone()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(a)
}

fn parse_live(rest: &[String]) -> Result<LiveArgs, String> {
    let mut a = LiveArgs::default();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = parse_workload(need(&mut it, flag)?)?,
            "--blocks" => {
                a.blocks = need(&mut it, flag)?
                    .parse()
                    .map_err(|_| "blocks must be an integer".to_string())?;
                if a.blocks < 16_384 {
                    return Err("live mode needs at least 16384 blocks".into());
                }
            }
            "--rate-limit" => {
                let v: f64 = need(&mut it, flag)?
                    .parse()
                    .map_err(|_| "rate limit must be a number (MB/s)".to_string())?;
                a.rate_limit_mbps = Some(v);
            }
            "--streams" => {
                a.streams = need(&mut it, flag)?
                    .parse()
                    .map_err(|_| "streams must be an integer".to_string())?;
                if a.streams == 0 {
                    return Err("streams must be at least 1".into());
                }
            }
            "--seed" => {
                a.seed = need(&mut it, flag)?
                    .parse()
                    .map_err(|_| "seed must be an integer".to_string())?
            }
            "--dedup" => a.dedup = true,
            "--no-dedup" => a.dedup = false,
            "--compress" => a.compress = true,
            "--no-compress" => a.compress = false,
            "--multisource" => a.multisource = true,
            "--no-multisource" => a.multisource = false,
            "--sources" => {
                a.sources = need(&mut it, flag)?
                    .parse()
                    .map_err(|_| "sources must be an integer".to_string())?
            }
            "--tcp" => a.tcp = true,
            "--faults" => {
                a.faults = need(&mut it, flag)?
                    .parse()
                    .map_err(|_| "faults must be an integer".to_string())?
            }
            "--max-reconnects" => {
                a.max_reconnects = need(&mut it, flag)?
                    .parse()
                    .map_err(|_| "max-reconnects must be an integer".to_string())?
            }
            "--trace-out" => a.trace_out = Some(need(&mut it, flag)?.clone()),
            "--metrics-out" => a.metrics_out = Some(need(&mut it, flag)?.clone()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if a.faults > a.max_reconnects {
        return Err(format!(
            "{} faults cannot be survived with only {} reconnects",
            a.faults, a.max_reconnects
        ));
    }
    if a.tcp && a.sources > 0 {
        return Err(
            "--sources registers in-process replica holders; not available with --tcp".into(),
        );
    }
    Ok(a)
}

/// Parse a full argument vector.
pub fn parse(argv: &[String]) -> Result<Cmd, String> {
    let Some((sub, rest)) = argv.split_first() else {
        return Err("missing subcommand".into());
    };
    match sub.as_str() {
        "simulate" => Ok(Cmd::Simulate(parse_sim(rest)?)),
        "roundtrip" => Ok(Cmd::Roundtrip(parse_sim(rest)?)),
        "live" => Ok(Cmd::Live(parse_live(rest)?)),
        "baselines" => Ok(Cmd::Baselines(parse_sim(rest)?)),
        "orchestrate" => Ok(Cmd::Orchestrate(parse_orch(rest)?)),
        "trace" => {
            let Some((verb, rest)) = rest.split_first() else {
                return Err("trace requires 'record' or 'analyze'".into());
            };
            match verb.as_str() {
                "record" => {
                    let mut workload = None;
                    let mut secs = None;
                    let mut out = None;
                    let mut it = rest.iter();
                    while let Some(flag) = it.next() {
                        match flag.as_str() {
                            "--workload" => workload = Some(parse_workload(need(&mut it, flag)?)?),
                            "--secs" => {
                                secs = Some(
                                    need(&mut it, flag)?
                                        .parse()
                                        .map_err(|_| "secs must be an integer".to_string())?,
                                )
                            }
                            "--out" => out = Some(need(&mut it, flag)?.clone()),
                            other => return Err(format!("unknown flag '{other}'")),
                        }
                    }
                    Ok(Cmd::TraceRecord {
                        workload: workload.ok_or("trace record requires --workload")?,
                        secs: secs.ok_or("trace record requires --secs")?,
                        out: out.ok_or("trace record requires --out")?,
                    })
                }
                "analyze" => {
                    let path = rest.first().ok_or("trace analyze requires a file path")?;
                    Ok(Cmd::TraceAnalyze { path: path.clone() })
                }
                other => Err(format!("unknown trace verb '{other}'")),
            }
        }
        "--help" | "-h" | "help" => Err(String::new()),
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_simulate_with_flags() {
        let cmd = parse(&v(&[
            "simulate",
            "--workload",
            "diabolical",
            "--scale",
            "ci",
            "--rate-limit",
            "37",
            "--bitmap",
            "layered",
            "--seed",
            "9",
            "--json",
        ]))
        .expect("valid");
        let Cmd::Simulate(a) = cmd else {
            panic!("wrong cmd")
        };
        assert_eq!(a.workload, WorkloadKind::Diabolical);
        assert!(!a.paper_scale);
        assert_eq!(a.rate_limit_mbps, Some(37.0));
        assert!(a.layered);
        assert_eq!(a.seed, 9);
        assert!(a.json);
    }

    #[test]
    fn parses_streams_flag() {
        let Cmd::Simulate(a) = parse(&v(&["simulate", "--streams", "4"])).expect("valid") else {
            panic!("wrong cmd")
        };
        assert_eq!(a.streams, 4);
        let Cmd::Live(a) = parse(&v(&["live", "--streams", "8"])).expect("valid") else {
            panic!("wrong cmd")
        };
        assert_eq!(a.streams, 8);
        // Default is the classic single stream.
        let Cmd::Simulate(d) = parse(&v(&["simulate"])).expect("valid") else {
            panic!("wrong cmd")
        };
        assert_eq!(d.streams, 1);
    }

    #[test]
    fn defaults_apply() {
        let Cmd::Roundtrip(a) = parse(&v(&["roundtrip"])).expect("valid") else {
            panic!("wrong cmd")
        };
        assert_eq!(a.workload, WorkloadKind::Web);
        assert!(a.paper_scale);
        assert_eq!(a.dwell_secs, 1500);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&v(&[])).is_err());
        assert!(parse(&v(&["bogus"])).is_err());
        assert!(parse(&v(&["simulate", "--workload", "nope"])).is_err());
        assert!(parse(&v(&["simulate", "--rate-limit", "-3"])).is_err());
        assert!(parse(&v(&["simulate", "--rate-limit"])).is_err());
        assert!(parse(&v(&["simulate", "--streams", "0"])).is_err());
        assert!(parse(&v(&["live", "--streams", "zero"])).is_err());
        assert!(parse(&v(&["live", "--blocks", "10"])).is_err());
        assert!(parse(&v(&["live", "--faults", "5", "--max-reconnects", "2"])).is_err());
        assert!(parse(&v(&["trace"])).is_err());
        assert!(parse(&v(&["trace", "record", "--secs", "5"])).is_err());
    }

    #[test]
    fn parses_live_fault_flags() {
        let Cmd::Live(a) = parse(&v(&[
            "live",
            "--faults",
            "2",
            "--max-reconnects",
            "4",
            "--tcp",
        ]))
        .expect("valid") else {
            panic!("wrong cmd")
        };
        assert_eq!(a.faults, 2);
        assert_eq!(a.max_reconnects, 4);
        assert!(a.tcp);
        assert_eq!(a.trace_out, None);
        assert_eq!(a.metrics_out, None);
    }

    #[test]
    fn parses_content_aware_flags() {
        // Defaults: both on, everywhere.
        let Cmd::Simulate(d) = parse(&v(&["simulate"])).expect("valid") else {
            panic!("wrong cmd")
        };
        assert!(d.dedup && d.compress);
        let Cmd::Live(d) = parse(&v(&["live"])).expect("valid") else {
            panic!("wrong cmd")
        };
        assert!(d.dedup && d.compress);
        let Cmd::Orchestrate(d) = parse(&v(&["orchestrate"])).expect("valid") else {
            panic!("wrong cmd")
        };
        assert!(d.dedup);
        // Escape hatches.
        let Cmd::Simulate(a) =
            parse(&v(&["simulate", "--no-dedup", "--no-compress"])).expect("valid")
        else {
            panic!("wrong cmd")
        };
        assert!(!a.dedup && !a.compress);
        let Cmd::Live(a) = parse(&v(&["live", "--no-compress"])).expect("valid") else {
            panic!("wrong cmd")
        };
        assert!(a.dedup && !a.compress);
        let Cmd::Orchestrate(a) = parse(&v(&["orchestrate", "--no-dedup"])).expect("valid") else {
            panic!("wrong cmd")
        };
        assert!(!a.dedup);
        // Last flag wins, so scripts can append overrides.
        let Cmd::Simulate(a) = parse(&v(&["simulate", "--no-dedup", "--dedup"])).expect("valid")
        else {
            panic!("wrong cmd")
        };
        assert!(a.dedup);
        // orchestrate has no compression model.
        assert!(parse(&v(&["orchestrate", "--no-compress"])).is_err());
    }

    #[test]
    fn parses_multisource_flags() {
        // Defaults: multisource on, no peer sources.
        let Cmd::Simulate(d) = parse(&v(&["simulate"])).expect("valid") else {
            panic!("wrong cmd")
        };
        assert!(d.multisource);
        assert_eq!(d.sources, 0);
        let Cmd::Live(d) = parse(&v(&["live"])).expect("valid") else {
            panic!("wrong cmd")
        };
        assert!(d.multisource);
        assert_eq!(d.sources, 0);
        let Cmd::Orchestrate(d) = parse(&v(&["orchestrate"])).expect("valid") else {
            panic!("wrong cmd")
        };
        assert!(d.multisource);
        // Fan-in scenario plus escape hatch.
        let Cmd::Simulate(a) = parse(&v(&["simulate", "--sources", "4"])).expect("valid") else {
            panic!("wrong cmd")
        };
        assert_eq!(a.sources, 4);
        assert!(a.multisource);
        let Cmd::Live(a) =
            parse(&v(&["live", "--sources", "2", "--no-multisource"])).expect("valid")
        else {
            panic!("wrong cmd")
        };
        assert_eq!(a.sources, 2);
        assert!(!a.multisource);
        let Cmd::Orchestrate(a) = parse(&v(&["orchestrate", "--no-multisource"])).expect("valid")
        else {
            panic!("wrong cmd")
        };
        assert!(!a.multisource);
        // Last flag wins.
        let Cmd::Simulate(a) =
            parse(&v(&["simulate", "--no-multisource", "--multisource"])).expect("valid")
        else {
            panic!("wrong cmd")
        };
        assert!(a.multisource);
        // orchestrate models fan-in through the replica table, not a flag.
        assert!(parse(&v(&["orchestrate", "--sources", "2"])).is_err());
        // TCP live runs have no in-process replica holders.
        assert!(parse(&v(&["live", "--tcp", "--sources", "2"])).is_err());
        assert!(parse(&v(&["simulate", "--sources", "many"])).is_err());
    }

    #[test]
    fn parses_telemetry_flags() {
        let Cmd::Live(a) = parse(&v(&[
            "live",
            "--trace-out",
            "/tmp/j.jsonl",
            "--metrics-out",
            "/tmp/m.json",
        ]))
        .expect("valid") else {
            panic!("wrong cmd")
        };
        assert_eq!(a.trace_out.as_deref(), Some("/tmp/j.jsonl"));
        assert_eq!(a.metrics_out.as_deref(), Some("/tmp/m.json"));
        let Cmd::Simulate(a) = parse(&v(&["simulate", "--trace-out", "j.jsonl"])).expect("valid")
        else {
            panic!("wrong cmd")
        };
        assert_eq!(a.trace_out.as_deref(), Some("j.jsonl"));
        assert_eq!(a.metrics_out, None);
        assert!(parse(&v(&["live", "--trace-out"])).is_err());
        assert!(parse(&v(&["simulate", "--metrics-out"])).is_err());
    }

    #[test]
    fn parses_orchestrate() {
        let Cmd::Orchestrate(a) = parse(&v(&[
            "orchestrate",
            "--hosts",
            "4",
            "--vms",
            "8",
            "--policy",
            "im-aware",
            "--seed",
            "2008",
            "--faults",
            "1",
            "--dwell",
            "45",
            "--json",
        ]))
        .expect("valid") else {
            panic!("wrong cmd")
        };
        assert_eq!(a.hosts, 4);
        assert_eq!(a.vms, 8);
        assert_eq!(a.policy, Policy::ImAware);
        assert_eq!(a.seed, 2008);
        assert_eq!(a.faults, 1);
        assert_eq!(a.dwell_secs, 45);
        assert!(a.json);
        // Defaults.
        let Cmd::Orchestrate(d) = parse(&v(&["orchestrate"])).expect("valid") else {
            panic!("wrong cmd")
        };
        assert_eq!(d.policy, Policy::ImAware);
        assert_eq!(d.blocks, 65_536);
        assert_eq!(d.scenario, None);
        // Scenario file and the cycle-aware policy.
        let Cmd::Orchestrate(a) = parse(&v(&[
            "orchestrate",
            "--scenario",
            "scenarios/partition.scn",
            "--policy",
            "cycle-aware",
        ]))
        .expect("valid") else {
            panic!("wrong cmd")
        };
        assert_eq!(a.scenario.as_deref(), Some("scenarios/partition.scn"));
        assert_eq!(a.policy, Policy::CycleAware);
        assert!(parse(&v(&["orchestrate", "--scenario"])).is_err());
        // Rejections.
        assert!(parse(&v(&["orchestrate", "--hosts", "1"])).is_err());
        assert!(parse(&v(&["orchestrate", "--policy", "lifo"])).is_err());
        assert!(parse(&v(&["orchestrate", "--blocks", "64"])).is_err());
    }

    #[test]
    fn parses_trace_commands() {
        let cmd = parse(&v(&[
            "trace",
            "record",
            "--workload",
            "web",
            "--secs",
            "60",
            "--out",
            "/tmp/t.json",
        ]))
        .expect("valid");
        assert_eq!(
            cmd,
            Cmd::TraceRecord {
                workload: WorkloadKind::Web,
                secs: 60,
                out: "/tmp/t.json".into()
            }
        );
        let cmd = parse(&v(&["trace", "analyze", "/tmp/t.json"])).expect("valid");
        assert_eq!(
            cmd,
            Cmd::TraceAnalyze {
                path: "/tmp/t.json".into()
            }
        );
    }
}
