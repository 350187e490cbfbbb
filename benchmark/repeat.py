#!/usr/bin/env python3
"""Calibration and repeat check for the benchmark.

Runs the command of ../BENCHMARK.json once per workload and seed (one
process each) and prints, for every end-to-end metric x workload, the
median and the quartile spread as a share of the median. Every pairing is
checked, `setup_s` too: a spread beyond the metric's bound fails, and with
--sets 2 (or more) so does a later set whose median is worse than the first
set's by more than the bound.

Downtime and data volume are layer metrics (README, "End-to-end metrics");
their per-process values are printed in a second table, so that the
spreads which keep them out of the gated list are on record.

With --calibrate the bounds are derived, not typed: every end-to-end bound
in BENCHMARK.json is set to max(default, 3 x the widest spread or
set-to-set shift seen on any workload), capped at 0.25, the most the
driver's contract allows (which also asks for spreads below a third of the
bound). A pairing that spreads beyond 0.25 cannot be
gated at all and is listed as such.

With --trace 1 the per-layer metrics are collected instead; simulated
outputs (names containing "virt_", except rates per wall second) must then
be identical between sets.

    python3 benchmark/repeat.py --seeds 1            # one look at every number
    python3 benchmark/repeat.py --sets 2             # what the driver checks
    python3 benchmark/repeat.py --sets 3 --calibrate # derive the bounds
    python3 benchmark/repeat.py --trace 1 --seeds 2 --sets 2

The standard output of every run is kept under benchmark/out/repeat/.
Exit code 1 when a run fails or a check above does.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out" / "repeat"

# ISSUE.md's default bound per end-to-end metric; --calibrate only widens.
DEFAULT_BOUND = {
    "setup_s": 0.25,
    "total_ms_p10": 0.10,
    "cpu_ms_p10": 0.10,
    "peak_rss_mib": 0.10,
}
# The driver's contract accepts no bound above this.
MAX_BOUND = 0.25

# Layer metrics the issue proposed as end-to-end, from the raw per-run
# values of the "# run" line: name -> (raw key, statistic over the runs).
ON_RECORD = {
    "downtime_ms_p50": ("downtime_ms_raw", statistics.median),
    "wire_bytes_per_image_byte": ("wire_bytes_per_image_byte_raw", statistics.mean),
}


def run_once(command, workload, seed, seconds, trace, keep):
    """One process; returns its metrics, the layer metrics on record included."""
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    # Every run made is kept: the "# run" line carries the raw samples.
    keep.parent.mkdir(parents=True, exist_ok=True)
    keep.write_text(done.stdout)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    info = next((json.loads(l[len("# run "):]) for l in lines if l.startswith("# run ")), {})
    for name, (key, statistic) in ON_RECORD.items():
        if info.get(key):
            values[name] = statistic(info[key])
    return values


def spread(values):
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_by(first, later, better):
    """Share of `first` by which `later` is worse (negative = better)."""
    if not first:
        return 0.0
    change = (later - first) / abs(first)
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, default=10, help="seeds per workload and set")
    ap.add_argument("--sets", type=int, default=1, help="how often to repeat the whole set")
    ap.add_argument("--seconds", type=int, help="override run_seconds")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workload", action="append", help="only this workload (repeatable)")
    ap.add_argument("--command", help="run this program instead of the declared command, e.g. a prebuilt binary")
    ap.add_argument("--calibrate", action="store_true", help="write the derived bounds to BENCHMARK.json")
    args = ap.parse_args()
    if args.calibrate and (args.trace or args.workload):
        ap.error("--calibrate needs the end-to-end metrics of every workload")

    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    command = [args.command] if args.command else spec["command"]
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    better = {m["name"]: m["better"] for m in declared}
    bound = {m["name"]: m.get("bound") for m in declared}

    # values[set][workload][metric] -> list over seeds
    values = []
    for s in range(args.sets):
        values.append({})
        for w in workloads:
            per_metric = {}
            for seed in range(1, args.seeds + 1):
                keep = OUT / f"set{s + 1}-{w}-seed{seed}-trace{args.trace}.txt"
                got = run_once(command, w, seed, seconds, args.trace, keep)
                missing = set(better) - set(got)
                if missing:
                    raise SystemExit(f"{w}: metrics not printed: {sorted(missing)}")
                for name, v in got.items():
                    per_metric.setdefault(name, []).append(v)
                print(f"# set {s + 1} {w} seed {seed} done", file=sys.stderr)
            values[s][w] = per_metric

    ok = True
    # Per metric, the widest spread or set-to-set shift on any workload.
    widest = dict.fromkeys(better, 0.0)
    header = f"{'workload':22} {'metric':36} {'set':>3} {'median':>14} {'spread':>8} {'bound':>6}  verdict"
    print(header)
    for w in workloads:
        for name in better:
            first = statistics.median(values[0][w][name])
            for s in range(args.sets):
                vals = values[s][w][name]
                med = statistics.median(vals)
                sp = spread(vals)
                shift = worse_by(first, med, better[name]) if s > 0 else 0.0
                widest[name] = max(widest[name], sp, shift)
                b = bound[name]
                verdict = ""
                if b is not None:
                    if sp > b:
                        verdict, ok = "SPREAD > BOUND", False
                    elif sp > b / 3:
                        verdict = "spread > bound/3"
                    if shift > b:
                        verdict, ok = "WORSE THAN SET 1 BY > BOUND", False
                elif s > 0 and "virt_" in name and "per_wall" not in name and vals != values[0][w][name]:
                    verdict, ok = "SIMULATED OUTPUT CHANGED", False
                print(f"{w:22} {name:36} {s + 1:>3} {med:>14.4f} {sp:>8.4f} {b if b is not None else '':>6}  {verdict}")

    if not args.trace:
        print("\nlayer metrics the issue proposed as end-to-end, per process (not gated):")
        print(header)
        for w in workloads:
            for name in ON_RECORD:
                for s in range(args.sets):
                    vals = values[s][w].get(name)
                    if vals:
                        print(f"{w:22} {name:36} {s + 1:>3} {statistics.median(vals):>14.4f} {spread(vals):>8.4f}")

    if args.calibrate:
        print("\nbounds = max(default, 3 x widest spread or shift), at most 0.25:")
        for m in spec["end_to_end"]:
            name = m["name"]
            derived = max(DEFAULT_BOUND[name], 3 * widest[name])
            m["bound"] = min(MAX_BOUND, math.ceil(derived * 100) / 100)
            note = ""
            if widest[name] > MAX_BOUND:
                note, ok = "  SPREADS BEYOND 0.25 ON SOME WORKLOAD: CANNOT BE GATED", False
            print(f"{name:36} widest {widest[name]:.4f} -> bound {m['bound']}{note}")
        spec_path.write_text(json.dumps(spec, indent=1) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
