//! Benchmark of the migration engines: whole migrations end to end, every
//! layer timed from outside. See `README.md` for the workloads, the
//! metrics and how they interact; `BENCHMARK.json` at the repository root
//! is the contract this binary prints to.
//!
//! ```text
//! migration-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!                     [--quick] [--corrupt-dest]
//! ```
//!
//! One process runs one workload, closed loop, one migration at a time.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; lines before it
//! describe the machine and the sample sizes. The exit code is non-zero
//! when any run failed or produced a wrong destination image.

mod affinity;
mod images;
mod layers;
mod live;
mod measure;
mod metrics;
mod replay;
mod spans;
mod virt;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use block_bitmap::FlatBitmap;
use des::SimRng;
use serde_json::{json, Value};
use workloads::WorkloadKind;

use crate::images::{sample_blocks, text_image, TextSource};
use crate::layers::LayerInput;
use crate::live::{LiveCase, LiveSample, Wire};
use crate::measure::{mean, median, quantile};
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::spans::Tracer;
use crate::virt::{VirtCase, VirtSample};

/// An untraced run sets up until it has done so this often and for
/// `SETUP_SECONDS`; `setup_s` is the 10th percentile, like the other times.
/// A set-up costs 0.03 to 0.5 s, and the cheap ones need the most samples.
const MIN_SETUPS: usize = 9;
const SETUP_SECONDS: f64 = 2.0;
/// Journaled migrations in a traced run, at least.
const MIN_TRACED_RUNS: usize = 3;

struct Args {
    workload: String,
    /// CPUs the workload runs on.
    cpus: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Smoke mode: two timed runs, minimal kernel passes.
    quick: bool,
    /// Self-test of the checker: corrupt the destination before verifying.
    corrupt_dest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        cpus: 0,
        seed: 1,
        seconds: 20.0,
        trace: false,
        quick: false,
        corrupt_dest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "--quick" => args.quick = true,
            "--corrupt-dest" => args.corrupt_dest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let Some(&(_, cpus)) = WORKLOADS.iter().find(|(name, _)| *name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    };
    args.cpus = cpus;
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

/// Counts every migration, round and replay the process attempted.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Count one attempt; a failure is reported on standard error and the
    /// sample dropped.
    fn take<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(why) => {
                self.failed += 1;
                eprintln!("FAILED {what}: {why}");
                None
            }
        }
    }
}

/// Call `run` until `budget` has elapsed and at least `min_runs` calls
/// were made.
fn run_for<T>(
    budget: Duration,
    min_runs: usize,
    tally: &mut Tally,
    what: &str,
    mut run: impl FnMut() -> Result<T, String>,
) -> Vec<T> {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut calls = 0;
    while calls < min_runs || start.elapsed() < budget {
        calls += 1;
        samples.extend(tally.take(what, run()));
    }
    samples
}

type Metrics = BTreeMap<&'static str, f64>;

fn column<T>(samples: &[T], f: impl Fn(&T) -> f64) -> Vec<f64> {
    samples.iter().map(f).collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What both kinds of workload hand to the shared passes.
pub trait Case: Sized {
    type Sample;
    fn prepare(workload: &str, seed: u64) -> Result<Self, String>;
    fn run_once(&self, traced: bool, corrupt_dest: bool) -> Result<Self::Sample, String>;
    fn total_ms(s: &Self::Sample) -> f64;
    fn cpu_ms(s: &Self::Sample) -> f64;
    /// Per-run values beyond time and CPU, for the `# run` line.
    fn raw(&self, samples: &[Self::Sample]) -> Value;
}

/// One set-up: build the inputs from the seed, then one discarded run
/// that fills caches and faults memory in (still verified and counted).
fn set_up<C: Case>(args: &Args, tally: &mut Tally) -> Result<C, String> {
    let case = C::prepare(&args.workload, args.seed)?;
    tally.take("warm-up", case.run_once(false, args.corrupt_dest));
    Ok(case)
}

/// `--trace 0`: set up, run untraced for `--seconds`, report the
/// end-to-end metrics.
fn timed_pass<C: Case>(
    args: &Args,
    started: Instant,
    tally: &mut Tally,
) -> Result<(Metrics, Value), String> {
    let mut setup_secs = Vec::new();
    let mut case = None;
    // The first set-up is timed from process start.
    let mut clock = started;
    let (min_setups, setup_seconds) = if args.quick {
        (1, 0.0)
    } else {
        (MIN_SETUPS, SETUP_SECONDS)
    };
    while setup_secs.len() < min_setups || started.elapsed().as_secs_f64() < setup_seconds {
        // One set of images at a time: the previous set is freed first.
        drop(case.take());
        case = Some(set_up::<C>(args, tally)?);
        setup_secs.push(clock.elapsed().as_secs_f64());
        clock = Instant::now();
    }
    let case = case.ok_or("no set-up ran")?;

    let steal_before = measure::steal_ms();
    let timed = Instant::now();
    let samples = run_for(
        Duration::from_secs_f64(if args.quick { 0.0 } else { args.seconds }),
        2,
        tally,
        "timed run",
        || case.run_once(false, args.corrupt_dest),
    );
    // How much the host interfered: explains an outlying process.
    let steal_ms_per_s = (measure::steal_ms() - steal_before) / timed.elapsed().as_secs_f64();
    let totals = column(&samples, C::total_ms);
    let cpus = column(&samples, C::cpu_ms);

    let mut m = Metrics::new();
    m.insert("setup_s", quantile(&setup_secs, 0.1));
    m.insert("total_ms_p10", quantile(&totals, 0.1));
    m.insert("cpu_ms_p10", quantile(&cpus, 0.1));
    m.insert("peak_rss_mib", measure::peak_rss_mib());
    let mut info = json!({
        "timed_runs": samples.len(),
        "setups": setup_secs.len(),
        "total_ms_raw": totals,
        "cpu_ms_raw": cpus,
        "setup_s_raw": setup_secs,
        "steal_ms_per_s": steal_ms_per_s,
    });
    if let (Value::Object(i), Value::Object(raw)) = (&mut info, case.raw(&samples)) {
        i.extend(raw);
    }
    Ok((m, info))
}

/// Untraced and journaled runs of one traced process.
struct TracedRuns<S> {
    plain: Vec<S>,
    journaled: Vec<S>,
}

impl<S> TracedRuns<S> {
    /// Sample counts for the `# run` line.
    fn info(&self) -> Value {
        json!({
            "untraced_runs": self.plain.len(),
            "journaled_runs": self.journaled.len(),
        })
    }
}

fn traced_runs<C: Case>(
    args: &Args,
    case: &C,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> TracedRuns<C::Sample> {
    let seconds = if args.quick { 0.0 } else { args.seconds };
    tracer.next_run();
    let plain = tracer.span("runs.untraced", |_| {
        run_for(
            Duration::from_secs_f64(seconds * 0.55),
            2,
            tally,
            "untraced run",
            || case.run_once(false, args.corrupt_dest),
        )
    });
    tracer.next_run();
    let journaled = tracer.span("runs.journaled", |_| {
        run_for(
            Duration::from_secs_f64(seconds * 0.2),
            if args.quick { 1 } else { MIN_TRACED_RUNS },
            tally,
            "journaled run",
            || case.run_once(true, args.corrupt_dest),
        )
    });
    TracedRuns { plain, journaled }
}

/// The metrics every traced workload derives from its runs alone: the
/// middle and the tail of the untraced totals, and what journaling costs.
fn run_metrics<C: Case>(runs: &TracedRuns<C::Sample>) -> Metrics {
    let plain = column(&runs.plain, C::total_ms);
    let journaled = column(&runs.journaled, C::total_ms);
    let mut m = Metrics::new();
    m.insert("run.total_ms_p50", median(&plain));
    m.insert("run.total_ms_p75", quantile(&plain, 0.75));
    m.insert(
        "trace.overhead_pct",
        ratio(median(&journaled) - median(&plain), median(&plain)) * 100.0,
    );
    m
}

/// `--trace 1` on a live workload.
fn traced_live(
    args: &Args,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Result<(Metrics, Value), String> {
    let case: LiveCase = set_up(args, tally)?;
    let runs = traced_runs(args, &case, tally, tracer);
    let mut m = run_metrics::<LiveCase>(&runs);

    let plain = &runs.plain;
    let avg = |f: fn(&LiveSample) -> f64| mean(&column(plain, f));
    let downtimes = column(plain, |s| s.downtime_ms);
    let totals = column(plain, |s| s.total_ms);
    let image_blocks = case.cfg.num_blocks as f64;
    let wire_bytes = avg(|s| s.src_bytes + s.dst_bytes);
    m.insert("live.downtime_ms_p50", median(&downtimes));
    m.insert("live.downtime_ms_p75", quantile(&downtimes, 0.75));
    m.insert("live.disk_iterations", avg(|s| s.disk_iterations));
    m.insert("live.mem_iterations", avg(|s| s.mem_iterations));
    m.insert(
        "live.blocks_sent_per_image_block",
        avg(|s| s.blocks_sent) / image_blocks,
    );
    m.insert("live.frozen_dirty_blocks", avg(|s| s.frozen_dirty_blocks));
    m.insert("live.frozen_dirty_pages", avg(|s| s.frozen_dirty_pages));
    m.insert("live.pushed_blocks", avg(|s| s.pushed));
    m.insert("live.pulled_blocks", avg(|s| s.pulled));
    m.insert("live.dropped_blocks", avg(|s| s.dropped));
    m.insert("live.stalled_reads", avg(|s| s.stalled_reads));
    m.insert("live.reconnects", avg(|s| s.reconnects));
    m.insert(
        "live.dedup_hit_share",
        ratio(avg(|s| s.blocks_deduped), avg(|s| s.blocks_sent)),
    );
    m.insert(
        "live.lz_kept_share",
        ratio(
            avg(|s| s.blocks_compressed),
            avg(|s| s.blocks_sent - s.blocks_deduped),
        ),
    );
    m.insert(
        "live.wire_bytes_per_image_byte",
        wire_bytes / case.image_bytes(),
    );
    m.insert(
        "live.wire_bytes_per_dirty_byte",
        ratio(wire_bytes, case.dirty_bytes()),
    );
    m.insert("live.dst_bytes", avg(|s| s.dst_bytes));
    m.insert(
        "live.cpu_per_wall",
        ratio(avg(|s| s.cpu_ms), avg(|s| s.wall_ms)),
    );

    let phases: Vec<telemetry::PhaseDurations> =
        runs.journaled.iter().filter_map(|s| s.phases).collect();
    let phase_ms = |f: fn(&telemetry::PhaseDurations) -> f64| median(&column(&phases, f)) * 1e3;
    m.insert(
        "live.phase_disk_precopy_ms",
        phase_ms(|p| p.disk_precopy_secs),
    );
    m.insert(
        "live.phase_mem_precopy_ms",
        phase_ms(|p| p.mem_precopy_secs),
    );
    m.insert("live.phase_freeze_ms", phase_ms(|p| p.freeze_secs));
    m.insert("live.phase_postcopy_ms", phase_ms(|p| p.postcopy_secs));

    if let Some(stages) = tally.take("stage replay", replay::run(&case, tracer)) {
        m.extend(stages.0.iter().copied());
        let total = median(&totals);
        m.insert("stage.sum_ms", stages.sum_ms());
        m.insert(
            "stage.unattributed_share",
            ratio(total - stages.sum_ms(), total),
        );
    }

    // Kernels run on what this workload moves: its image, its bitmap.
    let image = case.source_image();
    let dirty = live_dirty_pattern(&case, avg(|s| s.frozen_dirty_blocks), args.seed);
    let input = LayerInput {
        image: &image,
        bitmap_bits: case.cfg.num_blocks,
        dirty: &dirty,
        batch: case.cfg.batch,
        mem_pages: case.cfg.mem_pages,
        mem_page_size: case.cfg.mem_page_size,
        wire: case.wire,
        rate: case.cfg.rate_limit,
        guest: case.cfg.workload,
        seed: args.seed,
    };
    m.extend(layers::run(&input, args.quick, tracer));
    Ok((m, runs.info()))
}

/// The bitmap the block-bitmap kernels scan: the first-pass worklist where
/// it is a proper subset of the disk, otherwise a random set as large as
/// the freeze bitmaps the runs produced, otherwise every block.
fn live_dirty_pattern(case: &LiveCase, frozen_dirty: f64, seed: u64) -> FlatBitmap {
    let n = case.cfg.num_blocks;
    case.first_pass_dirty().unwrap_or_else(|| {
        if frozen_dirty >= 1.0 {
            sample_blocks(&mut SimRng::new(seed), n, frozen_dirty as usize)
        } else {
            FlatBitmap::all_set(n)
        }
    })
}

/// `--trace 1` on `virtual_time`.
fn traced_virt(
    args: &Args,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Result<(Metrics, Value), String> {
    let case: VirtCase = set_up(args, tally)?;
    let runs = traced_runs(args, &case, tally, tracer);
    let mut m = run_metrics::<VirtCase>(&runs);

    let rounds = &runs.plain;
    let med = |f: fn(&VirtSample) -> f64| median(&column(rounds, f));
    let sim_wall_ms = med(|s| s.tpm_web_ms + s.tpm_diabolical_ms + s.fanin_ms);
    m.insert("sim.tpm_web_ms", med(|s| s.tpm_web_ms));
    m.insert("sim.tpm_diabolical_ms", med(|s| s.tpm_diabolical_ms));
    m.insert("sim.fanin_ms", med(|s| s.fanin_ms));
    m.insert(
        "sim.virt_secs_per_wall_sec",
        ratio(med(|s| s.virt_total_s), sim_wall_ms / 1e3),
    );
    m.insert("sim.virt_total_s", med(|s| s.virt_total_s));
    m.insert("sim.virt_downtime_ms", med(|s| s.virt_downtime_ms));
    m.insert("sim.virt_wire_bytes", med(|s| s.virt_wire_bytes));
    m.insert("sim.fanin_peer_share", med(|s| s.fanin_peer_share));
    m.insert("orchestrator.fleet_ms", med(|s| s.fleet_ms));
    m.insert("orchestrator.virt_makespan_s", med(|s| s.virt_makespan_s));
    m.insert("orchestrator.virt_bytes", med(|s| s.virt_fleet_bytes));
    m.insert(
        "orchestrator.migrations_per_wall_sec",
        ratio(med(|s| s.fleet_migrations), med(|s| s.fleet_ms) / 1e3),
    );

    // Kernels at the simulated VM's geometry: 4 KiB text-like blocks, the
    // template divergence as the dirty pattern, the web guest's op stream.
    let mut rng = SimRng::new(args.seed);
    let text = TextSource::new(&mut rng);
    let block_size = case.cfg.block_size as usize;
    let image = text_image(&text, &mut rng, block_size, 4096);
    let dirty = sample_blocks(
        &mut rng,
        case.cfg.disk_blocks,
        case.cfg.disk_blocks * 8 / 100,
    );
    let input = LayerInput {
        image: &image,
        bitmap_bits: case.cfg.disk_blocks,
        dirty: &dirty,
        batch: 256,
        mem_pages: case.cfg.mem_pages,
        mem_page_size: block_size,
        wire: Wire::Duplex,
        rate: None,
        guest: WorkloadKind::Web,
        seed: args.seed,
    };
    m.extend(layers::run(&input, args.quick, tracer));
    Ok((m, runs.info()))
}

fn print_result(names: &[(&str, &str)], values: &Metrics, tally: &Tally) -> bool {
    let mut complete = true;
    let metrics: Vec<(String, Value)> = names
        .iter()
        .map(|(name, unit)| {
            let value = values.get(name).copied().unwrap_or(f64::NAN);
            complete &= value.is_finite();
            ((*name).to_string(), json!({"value": value, "unit": *unit}))
        })
        .collect();
    let correct = complete && tally.failed == 0 && tally.attempted > 0;
    let line = json!({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": Value::Object(metrics),
    });
    println!("{line}");
    correct
}

fn run(args: &Args, started: Instant, loadavg: &str) -> Result<bool, String> {
    let cpus = affinity::restrict_to(args.cpus)?;
    let mut tally = Tally::default();
    let live = args.workload != "virtual_time";
    let mut header = json!({
        "workload": args.workload.as_str(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
    });
    let (names, values, info): (&[(&str, &str)], Metrics, Value) = if args.trace {
        let mut tracer = Tracer::new();
        let (measured, info) = if live {
            traced_live(args, &mut tally, &mut tracer)?
        } else {
            traced_virt(args, &mut tally, &mut tracer)?
        };
        // A layer this workload never executes reports 0 work.
        let mut values: Metrics = PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect();
        values.extend(measured);
        values.insert("trace.spans", tracer.len() as f64);
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}.trace.json", args.workload));
        match tracer.write_json(&path) {
            Ok(()) => println!("# spans {} -> {}", tracer.len(), path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        (&PER_LAYER, values, info)
    } else {
        let (values, info) = if live {
            timed_pass::<LiveCase>(args, started, &mut tally)?
        } else {
            timed_pass::<VirtCase>(args, started, &mut tally)?
        };
        (&END_TO_END, values, info)
    };
    if let (Value::Object(h), Value::Object(i)) = (&mut header, info) {
        h.extend(i);
    }
    println!("# run {header}");
    println!("# machine {}", measure::machine_descriptor(&cpus, loadavg));
    Ok(print_result(names, &values, &tally))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let loadavg = measure::loadavg();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args, started, &loadavg) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
