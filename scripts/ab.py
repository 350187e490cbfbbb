#!/usr/bin/env python3
"""Interleaved A/B runs of the benchmark: a parent checkout against a change.

The method of /opt/skills/guides/choosing-metrics section 8 and of every
"PR NN" section of EXPERIMENTS.md since PR 13, as one command instead of a
script rewritten per PR:

* two checkouts, each with `benchmark/` in it, each run with the command
  and the run length of the *change's* BENCHMARK.json from its own
  directory (so each side builds, once, what it then runs);
* N pairs per workload, the side that goes first alternating pair by
  pair, one seed per pair (`--first-seed` + pair index: pick seeds no
  earlier run of this PR has used);
* every run's result line appended, as it completes, to the `--out` file
  (`results/prNN_ab_runs.jsonl`), one JSON object per line, with the
  machine's per-CPU busy ticks over the run from /proc/stat beside it —
  so whether a run had one CPU's worth of machine or two is recorded, not
  guessed from its total;
* then the table EXPERIMENTS.md prints: per workload and end-to-end
  metric, each side's median and quartiles, change/parent, pairs won and
  the verdict by the rule of the guide ("better" needs nine tenths of the
  pairs and a median difference above the parent's interquartile range; a
  metric whose parent runs spread wider than its bound is unresolved
  unless every run of the change beats every run of the parent).

    # build both sides first (the first run of a side would otherwise pay for it):
    scripts/ab.py --parent /root/scratch/parent --change . --build-only
    # ten pairs of every workload on seeds 701-710:
    scripts/ab.py --parent /root/scratch/parent --change . \\
        --first-seed 701 --out results/pr21_ab_runs.jsonl --set set1
    # traced pairs (per-layer metrics; the table lists every metric both sides print):
    scripts/ab.py --parent ... --change . --trace 1 --pairs 2 --first-seed 731 \\
        --out results/pr21_traced_runs.jsonl --set traced
    # the table again from a file, without running anything:
    scripts/ab.py --table results/pr21_ab_runs.jsonl --set set1

Exit code 1 when any run exits non-zero, reports a failed migration or an
incorrect image.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
# A CPU that was busy for less than this share of the busiest one's ticks
# did not take part in the run.
IDLE_SHARE = 0.25


def cpu_ticks():
    """Busy ticks (everything but idle and iowait) per CPU, from /proc/stat."""
    busy = {}
    for line in Path("/proc/stat").read_text().splitlines():
        name, *fields = line.split()
        if name.startswith("cpu") and name != "cpu":
            ticks = [int(f) for f in fields]
            busy[name] = sum(ticks[:3]) + sum(ticks[5:8])
    return busy


def phase_label(busy):
    """'one-cpu' when one CPU did (nearly) all the work of the run."""
    ranked = sorted(busy.values(), reverse=True)
    if not ranked or ranked[0] == 0:
        return "idle"
    took_part = [t for t in ranked if t >= IDLE_SHARE * ranked[0]]
    return {1: "one-cpu", 2: "two-cpu"}.get(len(took_part), f"{len(took_part)}-cpu")


def run_once(checkout, target_dir, command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    env = dict(os.environ)
    if target_dir:
        env["CARGO_TARGET_DIR"] = str(target_dir)
    before, started = cpu_ticks(), time.monotonic()
    done = subprocess.run(argv, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    wall, after = time.monotonic() - started, cpu_ticks()
    busy = {cpu: after[cpu] - before.get(cpu, 0) for cpu in after}
    record = {
        "rc": done.returncode,
        "wall": round(wall, 1),
        "cpu_busy_ticks": busy,
        "phase": phase_label(busy),
    }
    lines = done.stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
        if result:
            record["correct"] = result.get("correct")
            record["attempted"] = result.get("attempted")
            record["failed"] = result.get("failed")
            record["metrics"] = {k: v["value"] for k, v in result.get("metrics", {}).items()}
    return record


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def fmt(x):
    return f"{x:.4g}"


def verdict(parent, change, pairs, lower_is_better, bound):
    """The guide's rule for one metric on one workload."""
    sign = 1.0 if lower_is_better else -1.0
    (pq1, pmed, pq3), (_, cmed, _) = quartiles(parent), quartiles(change)
    won = sum(1 for p, c in pairs if sign * (c - p) < 0)
    lost = sum(1 for p, c in pairs if sign * (c - p) > 0)
    iqr = pq3 - pq1
    all_below = all(sign * (c - p) < 0 for c in change for p in parent)
    all_above = all(sign * (c - p) > 0 for c in change for p in parent)
    if won * 10 >= 9 * len(pairs) and sign * (pmed - cmed) > iqr:
        text = "better"
    elif bound is None:
        text = "worse" if lost * 10 >= 9 * len(pairs) and sign * (cmed - pmed) > iqr else "no verdict"
    else:
        beyond = pmed and sign * (cmed - pmed) / abs(pmed) > bound
        text = "WORSE than the bound" if beyond else "within bound"
        # Parent runs that spread wider than the bound resolve nothing,
        # either way, unless the two sides do not even overlap.
        if pmed and iqr / abs(pmed) > bound and not (all_below or all_above):
            text = ("beyond bound" if beyond else "within bound") + \
                f", unresolved (parent spread {100 * iqr / abs(pmed):.0f}%)"
    if all_below:
        text += " (every run below every parent run)" if lower_is_better else \
            " (every run above every parent run)"
    elif all_above and text.startswith(("WORSE", "worse")):
        text += " (every run on the wrong side of every parent run)"
    return won, text


def print_tables(records, contract):
    gated = {m["name"]: m for m in contract["end_to_end"]}
    layer = {m["name"]: m for m in contract.get("per_layer", [])}
    workloads = [w["name"] for w in contract["workloads"]]
    seen = sorted({r["workload"] for r in records}, key=lambda w: workloads.index(w) if w in workloads else 99)
    migrations = sum(r.get("attempted") or 0 for r in records)
    failed = sum(r.get("failed") or 0 for r in records)
    print(f"{len(records)} runs, {migrations} migrations, {failed} failed\n")
    print("| workload | metric | parent median (Q1–Q3) | change median (Q1–Q3) "
          "| change/parent | pairs won | verdict |")
    print("|---|---|---:|---:|---:|---:|---|")
    for workload in seen:
        by_pair = {}
        for r in records:
            if r["workload"] == workload and r.get("metrics"):
                by_pair.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
        whole = [p for p in by_pair.values() if all(s in p for s in SIDES)]
        if not whole:
            continue
        names = [n for n in whole[0]["parent"] if all(n in p[s] for p in whole for s in SIDES)]
        for name in names:
            spec = gated.get(name) or layer.get(name) or {}
            pairs = [(p["parent"][name], p["change"][name]) for p in whole]
            parent, change = [p for p, _ in pairs], [c for _, c in pairs]
            (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
            won, text = verdict(parent, change, pairs, spec.get("better", "lower") == "lower",
                                gated[name]["bound"] if name in gated else None)
            ratio = f"{cmed / pmed:.3f}" if pmed else "—"
            print(f"| {workload} | {name} | {fmt(pmed)} ({fmt(pq1)}–{fmt(pq3)}) "
                  f"| {fmt(cmed)} ({fmt(cq1)}–{fmt(cq3)}) | {ratio} | {won}/{len(pairs)} | {text} |")
    print("\nPer run (busy ticks per CPU over the whole process, set-up included):\n")
    print("| workload | pair | seed | side | first | total_ms_p10 | busy ticks | phase |")
    print("|---|---:|---:|---|---|---:|---|---|")
    for r in records:
        ticks = " ".join(f"{cpu}={t}" for cpu, t in sorted(r.get("cpu_busy_ticks", {}).items()))
        total = (r.get("metrics") or {}).get("total_ms_p10")
        print(f"| {r['workload']} | {r['pair']} | {r['seed']} | {r['side']} | {r['first']} "
              f"| {fmt(total) if total is not None else '—'} | {ticks} | {r.get('phase', '—')} |")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, default=Path("."), help="checkout of the change")
    ap.add_argument("--parent-target", type=Path, help="CARGO_TARGET_DIR for the parent's runs")
    ap.add_argument("--change-target", type=Path, help="CARGO_TARGET_DIR for the change's runs")
    ap.add_argument("--workloads", help="comma-separated; default: every workload of BENCHMARK.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, help="pair i runs both sides on seed first-seed + i")
    ap.add_argument("--seconds", type=int, help="default: BENCHMARK.json run_seconds")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out", type=Path, help="append one JSON line per run here")
    ap.add_argument("--set", default="ab", help="label stored with every run; --table filters on it")
    ap.add_argument("--build-only", action="store_true", help="build both sides and stop")
    ap.add_argument("--table", type=Path, help="print the tables from this file and run nothing")
    args = ap.parse_args()

    change = args.change.resolve()
    contract = json.loads((change / "BENCHMARK.json").read_text())

    if args.table:
        records = [json.loads(line) for line in args.table.read_text().splitlines() if line.strip()]
        records = [r for r in records if r.get("set") == args.set and r.get("side") in SIDES]
        print_tables(records, contract)
        return 0

    if not args.parent:
        ap.error("--parent is required to run")
    checkouts = {"parent": (args.parent.resolve(), args.parent_target),
                 "change": (change, args.change_target)}
    command = contract["command"]

    if args.build_only:
        for side, (checkout, target) in checkouts.items():
            # Everything of the command up to cargo's `--`, as a build.
            build = [a for a in command[:command.index("--")] if a not in ("run", "--quiet")]
            env = dict(os.environ, **({"CARGO_TARGET_DIR": str(target)} if target else {}))
            print(f"building {side} in {checkout}", file=sys.stderr)
            subprocess.run([build[0], "build"] + build[1:], cwd=checkout, env=env, check=True)
        return 0

    if args.first_seed is None:
        ap.error("--first-seed is required to run: one unused seed per pair")
    seconds = args.seconds or contract["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in contract["workloads"]]
    records, bad = [], 0
    for workload in workloads:
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                checkout, target = checkouts[side]
                seed = args.first_seed + pair
                record = {"pair": pair, "seed": seed, "workload": workload, "side": side,
                          "first": order[0], "set": args.set, "trace": args.trace, "seconds": seconds}
                record.update(run_once(checkout, target, command, workload, seed, seconds, args.trace))
                ok = record["rc"] == 0 and record.get("correct") and not record.get("failed")
                bad += 0 if ok else 1
                records.append(record)
                if args.out:
                    with args.out.open("a") as f:
                        f.write(json.dumps(record) + "\n")
                total = (record.get("metrics") or {}).get("total_ms_p10")
                print(f"{workload} pair {pair} seed {seed} {side}: rc {record['rc']}, "
                      f"total_ms_p10 {total}, {record['phase']}", file=sys.stderr)
    print_tables(records, contract)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
