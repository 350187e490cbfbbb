#!/usr/bin/env python3
"""Seed sweep of two `vmmigrate` binaries: every virtual-time figure as a
distribution, the change against its parent, paired by seed.

Each batch is one `vmmigrate` command line run once per seed with each
binary (`--seed N --json` appended):

* `simulate` and `roundtrip` for every workload kind, at `--scale ci`;
* `baselines` for every workload kind, at `--scale ci`;
* the template fan-in, `simulate --workload idle --sources 4`;
* `orchestrate --policy P` for each of the four policies;
* `orchestrate --scenario F` for every `scenarios/*.scn`.

A run prints one or more JSON documents (`roundtrip` two, `baselines`
four); each becomes a row, `document index/scheme`. A row's numeric
fields are flattened by path; a list of objects (passes, fleet records)
is summed field by field (`records[].bytes` is the fleet's total bytes)
and counted (`records[]#`). For every field that differs in any pair the
script prints the parent's and the change's medians, the median over
seeds of change/parent, the pairs where the change is higher and lower,
and a two-sided sign test's p over the untied pairs. A field at
p < 0.05 is marked FLAG and listed again at the end: run it again on
fresh seeds (`--first-seed 31`) before reading anything into it.

A batch whose guest is idle (`--workload idle`) draws nothing, so its
output must not differ at all: the script compares its stdout byte for
byte and exits 1 if any seed differs, or if any run fails. With
`--identical` every batch is held to that, busy guests included: for a
change that must move no output, the sweep is a byte-for-byte check.

    cargo build --release -p vmmigrate     # the change, in target/
    scripts/sweep.py --parent PARENT/target/release/vmmigrate \\
        --change target/release/vmmigrate --seeds 30 --first-seed 1
    # one batch only (a regular expression over the batch names):
    scripts/sweep.py --parent ... --change ... --only 'orchestrate --policy'
    # every batch's stdout byte for byte:
    scripts/sweep.py --parent ... --change ... --identical
"""

import argparse
import json
import math
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

KINDS = ("web", "video", "diabolical", "kernel-build", "idle")
POLICIES = ("fifo", "im-aware", "cycle-aware", "srdf")
ALPHA = 0.05


def batches(scenarios):
    """Every (name, argv) batch of the sweep, in a fixed order."""
    out = []
    for kind in KINDS:
        for cmd in ("simulate", "roundtrip", "baselines"):
            out.append((f"{cmd} --workload {kind}", [cmd, "--workload", kind, "--scale", "ci"]))
    out.append(
        (
            "simulate --workload idle --sources 4",
            ["simulate", "--workload", "idle", "--scale", "ci", "--sources", "4"],
        )
    )
    for policy in POLICIES:
        out.append((f"orchestrate --policy {policy}", ["orchestrate", "--policy", policy]))
    for scn in scenarios:
        out.append((f"orchestrate --scenario {scn.name}", ["orchestrate", "--scenario", str(scn)]))
    return out


def idle(name):
    return "--workload idle" in name


def run(binary, argv, seed):
    """stdout of one run; raises on a non-zero exit."""
    cmd = [binary, *argv, "--seed", str(seed), "--json"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr.strip()}")
    return done.stdout


def documents(text):
    """The JSON documents a run printed, one after another."""
    decoder = json.JSONDecoder()
    docs, i = [], 0
    while True:
        while i < len(text) and text[i].isspace():
            i += 1
        if i >= len(text):
            return docs
        doc, i = decoder.raw_decode(text, i)
        docs.append(doc)


def flatten(value, path, out):
    """Numeric leaves of `value` by path; lists of objects summed and counted."""
    if isinstance(value, bool):
        out[path] = float(value)
    elif isinstance(value, (int, float)):
        out[path] = float(value)
    elif isinstance(value, dict):
        for key, item in value.items():
            flatten(item, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list):
        out[f"{path}[]#"] = float(len(value))
        sums = {}
        for item in value:
            leaves = {}
            flatten(item, "", leaves)
            for key, v in leaves.items():
                sums[key] = sums.get(key, 0.0) + v
        for key, v in sums.items():
            out[f"{path}[].{key}" if key else f"{path}[]"] = v


def fields(text):
    """Every row's flattened fields: {field path: value}."""
    out = {}
    for i, doc in enumerate(documents(text)):
        label = doc.get("scheme", "") if isinstance(doc, dict) else ""
        leaves = {}
        flatten(doc, "", leaves)
        for key, v in leaves.items():
            out[f"{i}/{label}:{key}"] = v
    return out


def sign_test(higher, lower):
    """Two-sided sign test p over the untied pairs."""
    n = higher + lower
    if n == 0:
        return 1.0
    k = min(higher, lower)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2.0**n
    return min(1.0, 2.0 * tail)


def ratio(change, parent):
    if parent == change:
        return 1.0
    if parent == 0:
        return math.inf
    return change / parent


def compare(name, parent_runs, change_runs):
    """Print one batch's differing fields; return the flagged ones."""
    paths = sorted(set().union(*parent_runs, *change_runs))
    same, flagged, lines = 0, [], []
    for path in paths:
        pairs = [(p.get(path), c.get(path)) for p, c in zip(parent_runs, change_runs)]
        pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
        if all(p == c for p, c in pairs):
            same += 1
            continue
        higher = sum(c > p for p, c in pairs)
        lower = sum(c < p for p, c in pairs)
        p_value = sign_test(higher, lower)
        med = statistics.median(ratio(c, p) for p, c in pairs)
        mark = "FLAG" if p_value < ALPHA else ""
        if mark:
            flagged.append((name, path, p_value))
        lines.append(
            f"  {path:<58} {statistics.median(p for p, _ in pairs):>14.6g} "
            f"{statistics.median(c for _, c in pairs):>14.6g} {med:>8.4f} "
            f"{higher:>3}/{lower:<3} {p_value:>7.4f} {mark}"
        )
    print(f"{name}: {len(parent_runs)} pairs, {same} fields equal in every pair, {len(lines)} differ")
    if lines:
        print(
            f"  {'field':<58} {'parent med':>14} {'change med':>14} {'ratio':>8} "
            f"{'hi/lo':>7} {'p':>7}"
        )
        print("\n".join(lines))
    return flagged


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--parent", required=True, help="the parent's vmmigrate binary")
    ap.add_argument("--change", required=True, help="the change's vmmigrate binary")
    ap.add_argument("--seeds", type=int, default=30, help="seeds per batch (default 30)")
    ap.add_argument("--first-seed", type=int, default=1, help="first seed (default 1)")
    ap.add_argument("--only", help="run only the batches whose name matches this regex")
    ap.add_argument(
        "--identical",
        action="store_true",
        help="require every batch's stdout to be byte-identical, not only the idle ones",
    )
    ap.add_argument(
        "--scenarios",
        default=str(Path(__file__).resolve().parent.parent / "scenarios"),
        help="directory of the .scn files (default: the repo's scenarios/)",
    )
    args = ap.parse_args()
    scenarios = sorted(Path(args.scenarios).glob("*.scn"))
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    started = time.monotonic()
    flagged, diffs, failures = [], [], []
    for name, argv in batches(scenarios):
        if args.only and not re.search(args.only, name):
            continue
        t0 = time.monotonic()
        exact = args.identical or idle(name)
        parent_runs, change_runs = [], []
        try:
            for seed in seeds:
                p, c = run(args.parent, argv, seed), run(args.change, argv, seed)
                if exact and p != c:
                    diffs.append((name, seed))
                parent_runs.append(fields(p))
                change_runs.append(fields(c))
        except (RuntimeError, json.JSONDecodeError) as err:
            failures.append(f"{name}: {err}")
            print(f"{name}: FAILED: {err}")
            continue
        if exact:
            bad = sum(1 for n, _ in diffs if n == name)
            why = "idle guest" if idle(name) else "--identical"
            print(f"{name}: {why}, stdout identical at {len(seeds) - bad} of {len(seeds)} seeds")
            if bad:
                flagged += compare(name, parent_runs, change_runs)
        else:
            flagged += compare(name, parent_runs, change_runs)
        print(f"  ({time.monotonic() - t0:.1f} s)\n")
    print(f"sweep: {time.monotonic() - started:.1f} s wall, seeds {seeds.start}-{seeds.stop - 1}")
    for name, path, p_value in flagged:
        print(f"FLAG {name}: {path} p={p_value:.4f}")
    for name, seed in diffs:
        print(f"DIFFERS {name} at seed {seed}")
    for line in failures:
        print(f"FAILED {line}")
    return 1 if diffs or failures else 0


if __name__ == "__main__":
    sys.exit(main())
