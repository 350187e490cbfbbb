//! Argument parsing (std-only, no external parser). Each flag is
//! declared once, in [`FLAGS`]: its name, the value it takes, its
//! default, its check and the field it sets. Each subcommand lists the
//! flags it reads: any other flag is an error, and the usage synopsis is
//! printed from the same lists.

use orchestrator::Policy;
use workloads::WorkloadKind;

use Flag::{Switch, Value};

/// Parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Cmd {
    /// One simulated TPM migration.
    Simulate(Args),
    /// TPM out, dwell, IM back.
    Roundtrip(Args),
    /// Live threaded migration.
    Live(Args),
    /// Compare TPM with the three baselines.
    Baselines(Args),
    /// Deterministic cluster run under a scheduling policy.
    Orchestrate(Args),
    /// Record `secs` virtual seconds of a workload's ops to the file `out`.
    TraceRecord {
        workload: WorkloadKind,
        secs: u64,
        out: String,
    },
    /// Analyze a recorded op trace, or summarize a `--trace-out` journal.
    TraceAnalyze { path: String },
}

/// Every subcommand's options, one field per flag. A subcommand sets the
/// fields of the flags it reads (defaults, then its command line) only.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    pub workload: WorkloadKind,
    pub paper_scale: bool,
    pub rate_limit_mbps: Option<f64>,
    pub layered: bool,
    pub streams: usize,
    pub dedup: bool,
    pub compress: bool,
    pub multisource: bool,
    pub sources: usize,
    pub seed: u64,
    pub dwell_secs: u64,
    pub json: bool,
    pub trace_out: Option<String>,
    pub metrics_out: Option<String>,
    pub blocks: usize,
    pub tcp: bool,
    pub faults: u32,
    pub max_reconnects: u32,
    pub hosts: usize,
    pub vms: usize,
    pub policy: Policy,
    pub scenario: Option<String>,
    pub secs: u64,
    pub out: String,
}

#[derive(Clone, Copy)]
enum Flag {
    /// `Switch(name, field)`: `--NAME` sets the field, off by default;
    /// `--no-NAME` clears a field on by default, and `--NAME` sets it again.
    Switch(&'static str, fn(&mut Args) -> &mut bool),
    /// `Value(name, META, default, set)`: `set` gets the value (or the
    /// default) and the subcommand, checks the value and sets the field.
    Value(&'static str, &'static str, Option<&'static str>, Set),
}

type Set = fn(&mut Args, &str, &str) -> Result<(), String>;

/// Every flag, once.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Value("--workload", "KIND", Some("web"), |a, v, _| {
        let kinds = [("web", WorkloadKind::Web), ("video", WorkloadKind::Video),
            ("diabolical", WorkloadKind::Diabolical), ("kernel-build", WorkloadKind::KernelBuild),
            ("kernel", WorkloadKind::KernelBuild), ("idle", WorkloadKind::Idle)];
        choice(v, &kinds).map(|w| a.workload = w)
    }),
    Value("--scale", "paper|ci", Some("paper"), |a, v, _| {
        choice(v, &[("paper", true), ("ci", false)]).map(|p| a.paper_scale = p)
    }),
    Value("--rate-limit", "MBPS", None, |a, v, _| {
        let mbps = v.parse::<f64>().ok().filter(|r| *r > 0.0 && r.is_finite());
        a.rate_limit_mbps = Some(mbps.ok_or("must be a positive number (MB/s)")?);
        Ok(())
    }),
    Value("--bitmap", "flat|layered", Some("flat"), |a, v, _| {
        choice(v, &[("flat", false), ("layered", true)]).map(|l| a.layered = l)
    }),
    Value("--blocks", "N", Some("65536"), |a, v, sub| {
        // A live disk holds real bytes; a fleet's must fit the paper workloads.
        at_least(v, if sub == "live" { 16_384 } else { 8_192 }).map(|n| a.blocks = n)
    }),
    Value("--policy", "fifo|srdf|im-aware|cycle-aware", Some("im-aware"), |a, v, _| {
        let names: Vec<&str> = Policy::ALL.iter().map(|p| p.name()).collect();
        a.policy = Policy::parse(v).ok_or(format!("unknown '{v}' ({})", names.join("|")))?;
        Ok(())
    }),
    Value("--streams", "N", Some("1"), |a, v, _| at_least(v, 1).map(|n| a.streams = n)),
    Value("--hosts", "N", Some("4"), |a, v, _| at_least(v, 2).map(|n| a.hosts = n)),
    Value("--vms", "N", Some("8"), |a, v, _| at_least(v, 1).map(|n| a.vms = n)),
    Value("--seed", "N", Some("2008"), |a, v, _| int(v).map(|n| a.seed = n)),
    Value("--dwell", "SECS", Some("1500"), |a, v, _| int(v).map(|n| a.dwell_secs = n)),
    Value("--sources", "N", Some("0"), |a, v, _| int(v).map(|n| a.sources = n)),
    Value("--faults", "N", Some("0"), |a, v, _| int(v).map(|n| a.faults = n)),
    Value("--max-reconnects", "N", Some("3"), |a, v, _| int(v).map(|n| a.max_reconnects = n)),
    Value("--secs", "N", None, |a, v, _| int(v).map(|n| a.secs = n)),
    Value("--scenario", "FILE", None, |a, v, _| { a.scenario = Some(v.into()); Ok(()) }),
    Value("--trace-out", "FILE", None, |a, v, _| { a.trace_out = Some(v.into()); Ok(()) }),
    Value("--metrics-out", "FILE", None, |a, v, _| { a.metrics_out = Some(v.into()); Ok(()) }),
    Value("--out", "FILE", None, |a, v, _| { a.out = v.into(); Ok(()) }),
    Switch("--json", |a| &mut a.json),
    Switch("--tcp", |a| &mut a.tcp),
    Switch("--no-dedup", |a| &mut a.dedup),
    Switch("--no-compress", |a| &mut a.compress),
    Switch("--no-multisource", |a| &mut a.multisource),
];

impl Flag {
    fn name(self) -> &'static str {
        let (Switch(name, _) | Value(name, ..)) = self;
        name
    }

    /// Is `token` this flag (or, for a `--no-NAME` switch, `--NAME`)?
    fn accepts(self, token: &str) -> bool {
        let positive = self.name().strip_prefix("--no-").map(|p| format!("--{p}"));
        token == self.name() || matches!(self, Switch(..)) && positive.as_deref() == Some(token)
    }
}

/// A subcommand: the flags it reads (by name, in synopsis order), whether
/// all of them are required, and the command it builds from them.
struct Sub {
    name: &'static str,
    flags: &'static str,
    required: bool,
    build: fn(Args) -> Result<Cmd, String>,
}

impl Sub {
    fn flags(&self) -> impl Iterator<Item = Flag> + '_ {
        let named = |name| FLAGS.iter().copied().find(|f| f.name() == name);
        self.flags.split_whitespace().filter_map(named)
    }
}

#[rustfmt::skip]
const SUBCOMMANDS: &[Sub] = &[
    Sub { name: "simulate", required: false, build: |a| Ok(Cmd::Simulate(a)), flags: "--workload \
        --scale --rate-limit --bitmap --streams --seed --json --no-dedup --no-compress --sources \
        --no-multisource --trace-out --metrics-out" },
    Sub { name: "roundtrip", required: false, build: |a| Ok(Cmd::Roundtrip(a)), flags: "--workload \
        --scale --rate-limit --bitmap --streams --seed --dwell --json --no-dedup --no-compress \
        --no-multisource" },
    Sub { name: "live", required: false, build: live, flags: "--workload --blocks --rate-limit \
        --streams --seed --tcp --faults --max-reconnects --no-dedup --no-compress --sources \
        --no-multisource --trace-out --metrics-out" },
    Sub { name: "baselines", required: false, build: |a| Ok(Cmd::Baselines(a)), flags: "--workload \
        --scale --rate-limit --bitmap --streams --seed --json --no-dedup --no-compress \
        --no-multisource" },
    Sub { name: "orchestrate", required: false, build: |a| Ok(Cmd::Orchestrate(a)), flags: "--hosts \
        --vms --policy --blocks --seed --faults --dwell --no-dedup --no-multisource --scenario \
        --json --trace-out --metrics-out" },
    Sub { name: "trace record", required: true, flags: "--workload --secs --out", build: |a| {
        Ok(Cmd::TraceRecord { workload: a.workload, secs: a.secs, out: a.out })
    } },
];

/// The live run's checks across flags.
fn live(a: Args) -> Result<Cmd, String> {
    let (f, r) = (a.faults, a.max_reconnects);
    if f > r {
        Err(format!("{f} faults need {f} reconnects, not {r}"))
    } else if a.tcp && a.sources > 0 {
        Err("--sources registers in-process replica holders; not with --tcp".into())
    } else {
        Ok(Cmd::Live(a))
    }
}

fn int<T: std::str::FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("'{v}' is not an integer"))
}

fn at_least(v: &str, min: usize) -> Result<usize, String> {
    let (n, low) = (int(v)?, format!("must be at least {min}"));
    (n >= min).then_some(n).ok_or(low)
}

/// What `v` names in `choices`.
fn choice<T: Copy>(v: &str, choices: &[(&str, T)]) -> Result<T, String> {
    let found = choices.iter().find(|(name, _)| *name == v).map(|&(_, t)| t);
    found.ok_or(format!("unknown '{v}'"))
}

/// Parse a full argument vector.
pub fn parse(argv: &[String]) -> Result<Cmd, String> {
    let (name, rest) = match argv {
        [] => return Err("missing subcommand".into()),
        [trace, verb, rest @ ..] if trace == "trace" && verb == "analyze" => {
            let path = rest.first().ok_or("trace analyze requires a file path")?;
            return Ok(Cmd::TraceAnalyze { path: path.clone() });
        }
        [trace, verb, rest @ ..] if trace == "trace" => (format!("trace {verb}"), rest),
        [sub, rest @ ..] => (sub.clone(), rest),
    };
    if matches!(name.as_str(), "--help" | "-h" | "help") {
        return Err(String::new());
    }
    let sub = SUBCOMMANDS.iter().find(|s| s.name == name);
    let sub = sub.ok_or(format!("unknown subcommand '{name}'"))?;
    let mut a = Args::default();
    for flag in sub.flags() {
        match flag {
            Switch(name, field) => *field(&mut a) = name.starts_with("--no-"),
            Value(_, _, Some(default), set) => set(&mut a, default, sub.name)?,
            Value(..) => {}
        }
    }
    if sub.name == "orchestrate" {
        // The fleet's two waves are half a minute apart.
        a.dwell_secs = 30;
    }
    let mut seen = Vec::new();
    let mut tokens = rest.iter();
    while let Some(token) = tokens.next() {
        let flag = sub.flags().find(|f| f.accepts(token));
        match flag.ok_or(format!("unknown flag '{token}'"))? {
            Switch(_, field) => *field(&mut a) = !token.starts_with("--no-"),
            Value(flag, _, _, set) => {
                let v = tokens.next().ok_or(format!("{flag} requires a value"))?;
                set(&mut a, v, sub.name).map_err(|e| format!("{flag} {v}: {e}"))?;
            }
        }
        seen.push(token.as_str());
    }
    let missing = sub.flags().find(|f| !seen.contains(&f.name()));
    if let Some(flag) = missing.filter(|_| sub.required) {
        return Err(format!("{name} requires {}", flag.name()));
    }
    (sub.build)(a)
}

/// Usage text: each subcommand's synopsis, printed from the flags it
/// reads, then what the flags mean.
pub fn usage() -> String {
    let mut lines = vec!["usage:".to_string()];
    for sub in SUBCOMMANDS {
        let mut line = format!("  vmmigrate {:<12}", sub.name);
        let (open, close) = if sub.required { ("", "") } else { ("[", "]") };
        for flag in sub.flags() {
            let word = match flag {
                Switch(name, _) => format!("{open}{name}{close}"),
                Value(name, meta, ..) => format!("{open}{name} {meta}{close}"),
            };
            if line.len() + word.len() >= 79 {
                lines.push(std::mem::replace(&mut line, " ".repeat(24)));
            }
            line = line + " " + &word;
        }
        lines.push(line);
    }
    lines.push("  vmmigrate trace analyze FILE   (an op trace, or a --trace-out journal)".into());
    // What the flags mean stays prose.
    lines.join("\n") + "\n\n" + include_str!("usage.txt")
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
        assert!(parse(&v(&["simulate", "--scale", "small"])).is_err());
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

    #[test]
    fn live_rejects_a_rate_limit_that_is_not_positive() {
        for rate in ["0", "-3", "nan", "inf"] {
            assert!(
                parse(&v(&["live", "--rate-limit", rate])).is_err(),
                "{rate}"
            );
        }
        let Cmd::Live(a) = parse(&v(&["live", "--rate-limit", "10"])).expect("valid") else {
            panic!("wrong cmd")
        };
        assert_eq!(a.rate_limit_mbps, Some(10.0));
    }

    #[test]
    fn a_flag_its_subcommand_does_not_read_is_an_error() {
        assert!(parse(&v(&["roundtrip", "--trace-out", "F"])).is_err());
        assert!(parse(&v(&["baselines", "--sources", "2"])).is_err());
        assert!(parse(&v(&["baselines", "--trace-out", "F"])).is_err());
        assert!(parse(&v(&["simulate", "--dwell", "5"])).is_err());
    }

    #[test]
    fn the_unknown_policy_message_names_every_policy() {
        let err = parse(&v(&["orchestrate", "--policy", "lifo"])).expect_err("no such policy");
        for policy in Policy::ALL {
            assert!(err.contains(policy.name()), "{err}");
        }
    }

    #[test]
    fn every_listed_flag_is_declared_and_in_the_synopsis() {
        let text = usage();
        for sub in SUBCOMMANDS {
            assert_eq!(
                sub.flags().count(),
                sub.flags.split_whitespace().count(),
                "{}",
                sub.name
            );
            for flag in sub.flags() {
                assert!(text.contains(flag.name()), "{}", flag.name());
            }
        }
    }
}
