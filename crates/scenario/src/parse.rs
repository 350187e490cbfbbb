//! The `.scn` scenario language: one directive per line, `#` comments.
//!
//! ```text
//! # fleet geometry first, then declarations in any order
//! fleet hosts=8 vms=32 blocks=16384 seed=7 policy=cycle-aware
//! island CORE h0 h1 h2 h3
//! island EDGE h4 h5 h6 h7
//! host h7 nic=50MiB disk=80MiB
//! link CORE EDGE bandwidth=20MiB latency=40ms drop=5
//! link h0->h4 bandwidth=5MiB            # directed (asymmetric uplink)
//! cycle vm5 high=60s low=120s scale=0.25 keep=1/4
//! at 30s partition CORE | EDGE
//! at 90s heal
//! at 10s host-down h2
//! at 50s host-up h2
//! at 20s link-degrade h0 h1 bandwidth=5MiB drop=100
//! at 40s link-restore h0 h1
//! at 60s maintenance CORE dwell=30s
//! migrate vm3 at=5s dest=h2
//! wave at=10s
//! ```
//!
//! Durations take `ns`/`us`/`ms`/`s`/`m`/`h` suffixes; sizes take
//! `B`/`KiB`/`MiB`/`GiB` (bare numbers are bytes); `drop` is per
//! mille. Link and maintenance endpoints may be hosts (`hN`) or island
//! names. Everything resolves at parse time into a [`ScenarioSpec`];
//! errors carry the 1-based line number.

use des::{SimDuration, SimTime};
use orchestrator::{HostId, MigrationRequest, Policy, VmId};

use crate::runner::config_for;
use crate::timeline::{ChaosEvent, CycleSpec, ScenarioSpec, TimedEvent};
use crate::topology::{HostCaps, Island, LinkSpec};
use crate::ScenarioError;

/// Parse a `.scn` scenario file.
pub fn parse(text: &str) -> Result<ScenarioSpec, ScenarioError> {
    let mut spec = ScenarioSpec::new(0, 0);
    let mut have_fleet = false;
    for (ln, raw) in text.lines().enumerate() {
        let n = ln + 1;
        let line = match raw.split('#').next() {
            Some(code) => code.trim(),
            None => "",
        };
        if line.is_empty() {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        let Some((&head, rest)) = toks.split_first() else {
            continue;
        };
        let fail = |msg: String| Err(ScenarioError::at(n, msg));
        if head == "fleet" {
            if have_fleet {
                return fail("duplicate `fleet` directive".to_string());
            }
            match parse_fleet(rest).and_then(|s| buildable(&s).map(|()| s)) {
                Ok(s) => spec = s,
                Err(m) => return fail(m),
            }
            have_fleet = true;
            continue;
        }
        if !have_fleet {
            return fail(format!("`{head}` before `fleet` (fleet must come first)"));
        }
        let step = match head {
            "island" => parse_island(rest, &mut spec),
            "host" => parse_host_caps(rest, &mut spec),
            "link" => parse_link(rest, &mut spec),
            "cycle" => parse_cycle(rest, &mut spec),
            "at" => parse_at(rest, &mut spec),
            "migrate" => parse_migrate(rest, &mut spec),
            "wave" => parse_wave(rest, &mut spec),
            other => Err(format!("unknown directive `{other}`")),
        };
        if let Err(m) = step {
            return fail(m);
        }
    }
    if !have_fleet {
        return Err(ScenarioError::spec("empty scenario: no `fleet` directive"));
    }
    spec.validate()?;
    Ok(spec)
}

fn parse_fleet(rest: &[&str]) -> Result<ScenarioSpec, String> {
    let mut hosts = None;
    let mut vms = None;
    let mut spec = ScenarioSpec::new(0, 0);
    for tok in rest {
        let (k, v) = keyval(tok)?;
        match k {
            "hosts" => hosts = Some(parse_usize(v)?),
            "vms" => vms = Some(parse_usize(v)?),
            "blocks" => spec.disk_blocks = Some(parse_usize(v)?),
            "seed" => spec.seed = Some(parse_u64(v)?),
            "policy" => {
                spec.policy = Some(Policy::parse(v).ok_or_else(|| format!("unknown policy `{v}`"))?)
            }
            other => return Err(format!("fleet: unknown key `{other}`")),
        }
    }
    spec.hosts = hosts.ok_or("fleet: missing hosts=")?;
    spec.vms = vms.ok_or("fleet: missing vms=")?;
    Ok(spec)
}

/// Refuse a fleet the orchestrator cannot build: one its configuration
/// check refuses, or one whose host-pair link matrices or per-VM block
/// maps are more bytes than a `Vec` can hold. What the rest of the file
/// says is then checked against a fleet that can exist.
fn buildable(spec: &ScenarioSpec) -> Result<(), String> {
    let cfg = config_for(spec);
    cfg.validate().map_err(|e| format!("fleet: {e}"))?;
    let fits = |count: Option<usize>, size: usize| {
        count
            .and_then(|n| n.checked_mul(size))
            .is_some_and(|bytes| isize::try_from(bytes).is_ok())
    };
    if !fits(cfg.hosts.checked_mul(cfg.hosts), size_of::<f64>()) {
        return Err(format!(
            "fleet: hosts={} needs a {0} x {0} link matrix no address space holds",
            cfg.hosts
        ));
    }
    if !fits(cfg.vms.checked_mul(cfg.disk_blocks), size_of::<u32>()) {
        return Err(format!(
            "fleet: vms={} of {} blocks each is more block state than an address space holds",
            cfg.vms, cfg.disk_blocks
        ));
    }
    Ok(())
}

fn parse_island(rest: &[&str], spec: &mut ScenarioSpec) -> Result<(), String> {
    let Some((&name, members)) = rest.split_first() else {
        return Err("island: missing name".to_string());
    };
    if parse_host(name).is_ok() {
        return Err(format!("island name `{name}` collides with a host name"));
    }
    if spec.island(name).is_some() {
        return Err(format!("duplicate island `{name}`"));
    }
    let mut hosts = Vec::new();
    for m in members {
        hosts.push(parse_host(m)?);
    }
    if hosts.is_empty() {
        return Err(format!("island `{name}`: no member hosts"));
    }
    spec.islands.push(Island {
        name: name.to_string(),
        hosts,
    });
    Ok(())
}

fn parse_host_caps(rest: &[&str], spec: &mut ScenarioSpec) -> Result<(), String> {
    let Some((&host, kvs)) = rest.split_first() else {
        return Err("host: missing host name".to_string());
    };
    let h = parse_host(host)?;
    let mut caps = HostCaps::default();
    for tok in kvs {
        let (k, v) = keyval(tok)?;
        match k {
            "nic" => caps.nic = Some(parse_size(v)?),
            "disk" => caps.disk = Some(parse_size(v)?),
            other => return Err(format!("host: unknown key `{other}`")),
        }
    }
    spec.caps.push((h, caps));
    Ok(())
}

fn parse_link(rest: &[&str], spec: &mut ScenarioSpec) -> Result<(), String> {
    let mut ends: Vec<(Vec<usize>, Vec<usize>, bool)> = Vec::new();
    let mut bandwidth = None;
    let mut latency = None;
    let mut drop = None;
    let mut positional: Vec<&str> = Vec::new();
    for tok in rest {
        if tok.contains('=') && !tok.contains("->") {
            let (k, v) = keyval(tok)?;
            match k {
                "bandwidth" => bandwidth = Some(parse_size(v)?),
                "latency" => latency = Some(parse_duration(v)?),
                "drop" => drop = Some(parse_permille(v)?),
                other => return Err(format!("link: unknown key `{other}`")),
            }
        } else {
            positional.push(tok);
        }
    }
    match positional.as_slice() {
        [directed] if directed.contains("->") => {
            let (a, b) = directed
                .split_once("->")
                .ok_or_else(|| format!("link: bad endpoint `{directed}`"))?;
            ends.push((endpoint(a, spec)?, endpoint(b, spec)?, false));
        }
        [a, b] => {
            ends.push((endpoint(a, spec)?, endpoint(b, spec)?, true));
        }
        _ => return Err("link: expected `A B` or `A->B` endpoints".to_string()),
    }
    for (from, to, symmetric) in ends {
        spec.links.push(LinkSpec {
            from,
            to,
            symmetric,
            bandwidth,
            latency,
            drop_permille: drop,
        });
    }
    Ok(())
}

fn parse_cycle(rest: &[&str], spec: &mut ScenarioSpec) -> Result<(), String> {
    let Some((&vm_tok, kvs)) = rest.split_first() else {
        return Err("cycle: missing vm".to_string());
    };
    let vm = parse_vm(vm_tok)?;
    let mut high = None;
    let mut low = None;
    let mut scale = 0.25;
    let mut keep = (1, 4);
    for tok in kvs {
        let (k, v) = keyval(tok)?;
        match k {
            "high" => high = Some(parse_duration(v)?),
            "low" => low = Some(parse_duration(v)?),
            "scale" => scale = parse_f64(v)?,
            "keep" => keep = parse_ratio(v)?,
            other => return Err(format!("cycle: unknown key `{other}`")),
        }
    }
    spec.cycles.push((
        vm,
        CycleSpec {
            high: high.ok_or("cycle: missing high=")?,
            low: low.ok_or("cycle: missing low=")?,
            scale,
            keep,
        },
    ));
    Ok(())
}

fn parse_at(rest: &[&str], spec: &mut ScenarioSpec) -> Result<(), String> {
    let Some((&when, rest)) = rest.split_first() else {
        return Err("at: missing time".to_string());
    };
    let at = SimTime::ZERO + parse_duration(when)?;
    let Some((&verb, args)) = rest.split_first() else {
        return Err("at: missing event".to_string());
    };
    let event = match verb {
        "partition" => {
            let joined = args.join(" ");
            let mut islands = Vec::new();
            for segment in joined.split('|') {
                let mut hosts = Vec::new();
                for name in segment.split_whitespace() {
                    hosts.extend(endpoint(name, spec)?);
                }
                if !hosts.is_empty() {
                    islands.push(hosts);
                }
            }
            if islands.is_empty() {
                return Err("partition: no islands listed".to_string());
            }
            ChaosEvent::Partition { islands }
        }
        "heal" => ChaosEvent::Heal,
        "host-down" => ChaosEvent::HostDown {
            host: one_host(args, "host-down")?,
        },
        "host-up" => ChaosEvent::HostUp {
            host: one_host(args, "host-up")?,
        },
        "link-degrade" => {
            let mut hosts = Vec::new();
            let mut bandwidth = None;
            let mut drop = None;
            for tok in args {
                if tok.contains('=') {
                    let (k, v) = keyval(tok)?;
                    match k {
                        "bandwidth" => bandwidth = Some(parse_size(v)?),
                        "drop" => drop = Some(parse_permille(v)?),
                        other => return Err(format!("link-degrade: unknown key `{other}`")),
                    }
                } else {
                    hosts.push(parse_host(tok)?);
                }
            }
            let [a, b] = hosts.as_slice() else {
                return Err("link-degrade: expected two hosts".to_string());
            };
            ChaosEvent::LinkDegrade {
                a: *a,
                b: *b,
                bandwidth: bandwidth.ok_or("link-degrade: missing bandwidth=")?,
                drop_permille: drop,
            }
        }
        "link-restore" => {
            let mut hosts = Vec::new();
            for tok in args {
                hosts.push(parse_host(tok)?);
            }
            let [a, b] = hosts.as_slice() else {
                return Err("link-restore: expected two hosts".to_string());
            };
            ChaosEvent::LinkRestore { a: *a, b: *b }
        }
        "maintenance" => {
            let mut hosts = Vec::new();
            let mut dwell = None;
            for tok in args {
                if tok.contains('=') {
                    let (k, v) = keyval(tok)?;
                    match k {
                        "dwell" => dwell = Some(parse_duration(v)?),
                        other => return Err(format!("maintenance: unknown key `{other}`")),
                    }
                } else {
                    hosts.extend(endpoint(tok, spec)?);
                }
            }
            if hosts.is_empty() {
                return Err("maintenance: no hosts listed".to_string());
            }
            ChaosEvent::Maintenance {
                hosts,
                dwell: dwell.ok_or("maintenance: missing dwell=")?,
            }
        }
        other => return Err(format!("at: unknown event `{other}`")),
    };
    spec.events.push(TimedEvent { at, event });
    Ok(())
}

fn parse_migrate(rest: &[&str], spec: &mut ScenarioSpec) -> Result<(), String> {
    let Some((&vm_tok, kvs)) = rest.split_first() else {
        return Err("migrate: missing vm".to_string());
    };
    let vm = parse_vm(vm_tok)?;
    let mut at = SimTime::ZERO;
    let mut dest = None;
    for tok in kvs {
        let (k, v) = keyval(tok)?;
        match k {
            "at" => at = SimTime::ZERO + parse_duration(v)?,
            "dest" => dest = Some(HostId(parse_host(v)?)),
            other => return Err(format!("migrate: unknown key `{other}`")),
        }
    }
    spec.requests.push(MigrationRequest {
        vm: VmId(vm),
        dest,
        at,
    });
    Ok(())
}

fn parse_wave(rest: &[&str], spec: &mut ScenarioSpec) -> Result<(), String> {
    let mut at = SimTime::ZERO;
    for tok in rest {
        let (k, v) = keyval(tok)?;
        match k {
            "at" => at = SimTime::ZERO + parse_duration(v)?,
            other => return Err(format!("wave: unknown key `{other}`")),
        }
    }
    spec.requests
        .try_reserve(spec.vms)
        .map_err(|_| format!("wave: {} requests do not fit in memory", spec.vms))?;
    for vm in 0..spec.vms {
        spec.requests.push(MigrationRequest {
            vm: VmId(vm),
            dest: None,
            at,
        });
    }
    Ok(())
}

fn keyval(tok: &str) -> Result<(&str, &str), String> {
    tok.split_once('=')
        .ok_or_else(|| format!("expected key=value, got `{tok}`"))
}

fn one_host(args: &[&str], what: &str) -> Result<usize, String> {
    match args {
        [h] => parse_host(h),
        _ => Err(format!("{what}: expected exactly one host")),
    }
}

/// Resolve an endpoint name: `hN` or a declared island.
fn endpoint(name: &str, spec: &ScenarioSpec) -> Result<Vec<usize>, String> {
    if let Ok(h) = parse_host(name) {
        return Ok(vec![h]);
    }
    match spec.island(name) {
        Some(island) => Ok(island.hosts.clone()),
        None => Err(format!("unknown endpoint `{name}` (not a host or island)")),
    }
}

fn parse_host(tok: &str) -> Result<usize, String> {
    match tok.strip_prefix('h') {
        Some(n) => n
            .parse::<usize>()
            .map_err(|_| format!("bad host `{tok}` (expected hN)")),
        None => Err(format!("bad host `{tok}` (expected hN)")),
    }
}

fn parse_vm(tok: &str) -> Result<usize, String> {
    match tok.strip_prefix("vm") {
        Some(n) => n
            .parse::<usize>()
            .map_err(|_| format!("bad vm `{tok}` (expected vmN)")),
        None => Err(format!("bad vm `{tok}` (expected vmN)")),
    }
}

fn parse_usize(v: &str) -> Result<usize, String> {
    v.parse::<usize>().map_err(|_| format!("bad integer `{v}`"))
}

fn parse_u64(v: &str) -> Result<u64, String> {
    v.parse::<u64>().map_err(|_| format!("bad integer `{v}`"))
}

fn parse_f64(v: &str) -> Result<f64, String> {
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() && x >= 0.0 => Ok(x),
        _ => Err(format!("bad number `{v}`")),
    }
}

fn parse_permille(v: &str) -> Result<u32, String> {
    match v.parse::<u32>() {
        Ok(x) if x <= 999 => Ok(x),
        _ => Err(format!("bad drop rate `{v}` (per mille, 0..=999)")),
    }
}

fn parse_ratio(v: &str) -> Result<(u64, u64), String> {
    let Some((num, den)) = v.split_once('/') else {
        return Err(format!("bad ratio `{v}` (expected N/M)"));
    };
    let num = parse_u64(num)?;
    let den = parse_u64(den)?;
    if den == 0 || num > den {
        return Err(format!("bad ratio `{v}` (need N ≤ M, M > 0)"));
    }
    Ok((num, den))
}

/// Parse a duration with an `ns`/`us`/`ms`/`s`/`m`/`h` suffix.
fn parse_duration(v: &str) -> Result<SimDuration, String> {
    let err = || format!("bad duration `{v}` (expected e.g. 30s, 500ms, 2m, 1h)");
    let (digits, mult_nanos) = if let Some(d) = v.strip_suffix("ns") {
        (d, 1.0)
    } else if let Some(d) = v.strip_suffix("us") {
        (d, 1e3)
    } else if let Some(d) = v.strip_suffix("ms") {
        (d, 1e6)
    } else if let Some(d) = v.strip_suffix('s') {
        (d, 1e9)
    } else if let Some(d) = v.strip_suffix('m') {
        (d, 60.0 * 1e9)
    } else if let Some(d) = v.strip_suffix('h') {
        (d, 3600.0 * 1e9)
    } else {
        return Err(err());
    };
    match digits.parse::<f64>() {
        Ok(x) if x.is_finite() && x >= 0.0 => Ok(SimDuration::from_nanos((x * mult_nanos) as u64)),
        _ => Err(err()),
    }
}

/// Parse a size in bytes/second (or plain bytes): bare number, `B`,
/// `KiB`, `MiB`, `GiB`.
fn parse_size(v: &str) -> Result<f64, String> {
    let err = || format!("bad size `{v}` (expected e.g. 4096, 20MiB)");
    let (digits, mult) = if let Some(d) = v.strip_suffix("KiB") {
        (d, 1024.0)
    } else if let Some(d) = v.strip_suffix("MiB") {
        (d, 1024.0 * 1024.0)
    } else if let Some(d) = v.strip_suffix("GiB") {
        (d, 1024.0 * 1024.0 * 1024.0)
    } else if let Some(d) = v.strip_suffix('B') {
        (d, 1.0)
    } else {
        (v, 1.0)
    };
    match digits.parse::<f64>() {
        Ok(x) if x.is_finite() && x > 0.0 => Ok(x * mult),
        _ => Err(err()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = "\
# a kitchen-sink scenario
fleet hosts=8 vms=32 blocks=16384 seed=7 policy=cycle-aware
island CORE h0 h1 h2 h3
island EDGE h4 h5 h6 h7
host h7 nic=50MiB disk=80MiB
link CORE EDGE bandwidth=20MiB latency=40ms drop=5
link h0->h4 bandwidth=5MiB
cycle vm5 high=60s low=120s scale=0.25 keep=1/4
at 30s partition CORE | EDGE
at 90s heal
at 10s host-down h2
at 50s host-up h2
at 20s link-degrade h0 h1 bandwidth=5MiB drop=100
at 40s link-restore h0 h1
at 60s maintenance CORE dwell=30s
migrate vm3 at=5s dest=h2
wave at=10s
";

    #[test]
    fn kitchen_sink_parses_and_resolves() {
        let s = parse(FULL).expect("parses");
        assert_eq!((s.hosts, s.vms), (8, 32));
        assert_eq!(s.disk_blocks, Some(16384));
        assert_eq!(s.seed, Some(7));
        assert_eq!(s.policy, Some(Policy::CycleAware));
        assert_eq!(s.islands.len(), 2);
        assert_eq!(s.links.len(), 2);
        assert!(s.links[0].symmetric);
        assert!(!s.links[1].symmetric, "-> form is directed");
        assert_eq!(s.links[1].from, vec![0]);
        assert_eq!(s.links[1].to, vec![4]);
        assert_eq!(s.cycles.len(), 1);
        assert_eq!(s.events.len(), 7);
        assert_eq!(
            s.events[0].event,
            ChaosEvent::Partition {
                islands: vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]],
            }
        );
        match &s.events[6].event {
            ChaosEvent::Maintenance { hosts, dwell } => {
                assert_eq!(hosts, &vec![0, 1, 2, 3]);
                assert_eq!(*dwell, SimDuration::from_secs(30));
            }
            other => panic!("expected maintenance, got {other:?}"),
        }
        // migrate + one request per VM from the wave.
        assert_eq!(s.requests.len(), 1 + 32);
        assert_eq!(s.requests[0].vm, VmId(3));
        assert_eq!(s.requests[0].dest, Some(HostId(2)));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("fleet hosts=4 vms=4\nat 5s explode h0\n").expect_err("bad verb");
        assert_eq!(e.line, 2);
        let e = parse("island X h0\n").expect_err("fleet first");
        assert_eq!(e.line, 1);
        let e = parse("fleet hosts=4 vms=4\nlink CORE EDGE bandwidth=1MiB\n")
            .expect_err("unknown island");
        assert_eq!(e.line, 2);
        assert!(parse("").is_err(), "empty file");
    }

    #[test]
    fn durations_and_sizes_parse_exactly() {
        assert_eq!(parse_duration("30s"), Ok(SimDuration::from_secs(30)));
        assert_eq!(parse_duration("500ms"), Ok(SimDuration::from_millis(500)));
        assert_eq!(parse_duration("2m"), Ok(SimDuration::from_secs(120)));
        assert_eq!(parse_duration("1h"), Ok(SimDuration::from_secs(3600)));
        assert_eq!(parse_duration("250us"), Ok(SimDuration::from_micros(250)));
        assert!(parse_duration("30").is_err(), "suffix required");
        assert_eq!(parse_size("4096"), Ok(4096.0));
        assert_eq!(parse_size("20MiB"), Ok(20.0 * 1024.0 * 1024.0));
        assert_eq!(parse_size("1GiB"), Ok(1024.0 * 1024.0 * 1024.0));
        assert!(parse_size("fast").is_err());
        assert_eq!(parse_ratio("1/4"), Ok((1, 4)));
        assert!(parse_ratio("4/1").is_err());
        assert!(parse_ratio("1/0").is_err());
    }

    #[test]
    fn a_fleet_the_orchestrator_cannot_build_is_refused_at_its_line() {
        // A host count no fleet can have is refused at its own line,
        // before a later check could size anything by it.
        let e = parse("fleet hosts=18446744073709551615 vms=1\nat 1s partition h0 | h1\n")
            .expect_err("no such fleet");
        assert_eq!(e.line, 1);
        assert!(e.msg.contains("link matrix"), "{}", e.msg);
        for (text, why) in [
            ("fleet hosts=1 vms=1\n", "2 hosts"),
            ("fleet hosts=2 vms=0\n", "1 VM"),
            ("fleet hosts=2 vms=1 blocks=0\n", "non-empty"),
            ("fleet hosts=2 vms=1 blocks=4096\n", "8192 blocks"),
            (
                "fleet hosts=2 vms=18446744073709551615\nwave at=0s\n",
                "block state",
            ),
            ("fleet hosts=4294967296 vms=1 blocks=8192\n", "link matrix"),
        ] {
            let e = parse(text).expect_err(text);
            assert_eq!(e.line, 1, "{text}");
            assert!(e.msg.contains(why), "{text}: {}", e.msg);
        }
    }

    #[test]
    fn out_of_range_references_fail_validation() {
        assert!(parse("fleet hosts=2 vms=2\nmigrate vm9 at=0s\n").is_err());
        assert!(parse("fleet hosts=2 vms=2\nat 1s host-down h5\n").is_err());
    }
}
