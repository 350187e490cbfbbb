#!/usr/bin/env bash
# Tier-1 verification + lint gate. Run from anywhere; no network needed.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== rustfmt (check only) =="
cargo fmt --all -- --check

echo "== tier-1: release build =="
# --workspace so every bin (vmmigrate, repro) is fresh before the
# smoke matrices below run them from target/.
cargo build --release --workspace --locked

echo "== tier-1: workspace tests =="
# An unoptimized build: the parking_lot stand-in's lock rule (DESIGN.md
# §11) is checked on every lock every test takes.
cargo test -q --workspace --locked

echo "== race regression in the shipped build: post-copy arrival vs guest write =="
# The workspace tests above ran it unoptimized; the window between an
# arrival's check and its write depends on timing, so the optimized
# build — the one the benchmark and the CLI run — is held to it too.
cargo test -q --release --locked -p migrate --lib \
  arrival_never_overwrites_a_newer_guest_write

echo "== incremental migration costs what is dirty, in the shipped build =="
# O(dirty) work counts on two disk sizes, the same-process round trip
# whose hop back hashes nothing at the handshake and ships what the guest
# wrote in full, and the web-guest round trip under a writing guest
# (images and read violations). Counts, not stopwatches, so the
# optimized build must give the same numbers; the arrival-versus-write
# races only have their real window there. Every hop crosses a
# link paced at Gigabit (125e6 B/s): a session fingerprints only where a
# byte costs something, the unpaced in-process link is free and would run
# none of this. The limiter's opening burst covers every image, so the
# pacing adds no wall time, and no count depends on the LZ decision.
cargo test -q --release --locked --test live_incremental

echo "== LZ and fingerprints only when the link pays for them, in the shipped build =="
# Each rule on both kinds of link. Free (unpaced duplex, same-host
# socket): the default session equals the --no-dedup one in ledgers,
# WireStats and WorkLedger, --streams 4 and a reconnect included, hashes
# nothing and journals no handshake summary, so the destination builds no
# content index, inside the freeze window least of all (multisource
# hashes its manifest and no more).
# Paying (2 MiB/s, Gigabit, a transport that cannot tell): fingerprints
# from the first block. And LZ:
# unpaced duplex never compresses and equals the --no-compress ledger,
# --streams 4 included; a paced link compresses every batch from the
# first (limiter burst included), frozen tail alike, and its ledger is
# per-batch arithmetic: a batch is one LZ stream, so the bytes are
# compress_blocks over the batches the engine formed (sharding forms
# others; each run is held to its own). Counts again, but the rule times
# the head of a stream against the link: the margins the counts rest on
# (> 100 x at 2 MiB/s) are the optimized build's.
cargo test -q --release --locked --test live_adaptive_codec

echo "== the socket's byte budget and vectored writes, in the shipped build =="
# A sender toward a receiver that stopped receiving blocks after one
# window plus the kernel's buffers while 200 000 bounces cross the other
# way; an oversize message is refused with the stream intact; a slow
# destination over loopback costs total time, not downtime, and never
# more than a window of inbox. What blocks, and when, is timing: the
# optimized build is the one whose timing the benchmark and the CLI have.
cargo test -q --release --locked -p simnet --lib tcp::
cargo test -q --release --locked --test live_backpressure

echo "== paper-scale figures by equality: every repro experiment against results/ =="
# The workspace tests above pin each experiment's CI-scale JSON
# (results/ci/); these are the paper-scale pins, the figures README.md
# and EXPERIMENTS.md cite. Forty-gigabyte disks take ~15 s even in the
# optimized build, so they run here, in release, and tier-1's debug run
# skips them (#[ignore]). Every field but the listed wall-clock ones must
# equal its file; bless with `repro all --scale paper` and say why in
# CHANGES.md.
cargo test -q --release --locked --test experiments_smoke -- --ignored

echo "== scenario smoke matrix: 3 seeds x {partition, wan, maintenance} =="
# Every checked-in chaos scenario must complete (all migrations served,
# every image block-exact) under several seeds, exercising the full
# parse -> topology compile -> chaos timeline -> orchestrator path the
# way a user would drive it. The CLI exits non-zero on any inconsistent
# or incomplete run, so plain set -e is the assertion.
for scn in partition wan maintenance; do
  for seed in 1 2 3; do
    echo "-- scenarios/$scn.scn seed=$seed"
    ./target/release/vmmigrate orchestrate \
      --scenario "scenarios/$scn.scn" --seed "$seed" >/dev/null
  done
done

echo "== CLI smoke: a free link uses no content-aware path, a paced one does =="
# Counts of an idle guest's disk, deterministic (the RAM tail in the
# printed `src sent` total follows the driver's ticks, so the disk's
# `wire.*` counters are compared instead): by default the unpaced link
# carries the bytes --no-dedup --no-compress carries and says why;
# paced at 50 MB/s the zero block crosses as a reference.
smoke=target/cli-smoke
mkdir -p "$smoke"
live="./target/release/vmmigrate live --blocks 16384 --workload idle"
$live --metrics-out "$smoke/default.json" >"$smoke/default.out"
$live --no-dedup --no-compress --metrics-out "$smoke/classic.json" >"$smoke/classic.out"
$live --rate-limit 50 --metrics-out "$smoke/paced.json" >"$smoke/paced.out"
grep -q '^content-aware: not used: the link is free$' "$smoke/default.out"
if grep -q '^content-aware' "$smoke/classic.out"; then exit 1; fi
grep -Eq '^content-aware: .*; [1-9][0-9]* deduped, ' "$smoke/paced.out"
python3 - "$smoke" <<'PY'
import json, sys
def counters(name):
    snapshot = json.load(open(f"{sys.argv[1]}/{name}.json"))
    return {c["name"]: c["value"] for c in snapshot["counters"]}
default, classic, paced = counters("default"), counters("classic"), counters("paced")
sent = [c["wire.bytes_sent"] for c in (default, classic)]
print(f"disk bytes sent: default {sent[0]}, --no-dedup --no-compress {sent[1]}")
assert sent[0] == sent[1] == 16384 * 512, sent
assert (default["dedup.sessions_fingerprinted"], default["dedup.sessions_skipped"]) == (0, 1)
assert (classic["dedup.sessions_fingerprinted"], classic["dedup.sessions_skipped"]) == (0, 0)
assert (paced["dedup.sessions_fingerprinted"], paced["wire.blocks_deduped"]) == (1, 1)
PY

echo "== CLI memory: a fresh source image is computed, not laid out =="
# The source's disk and RAM read as their stamp-0 image until the guest
# writes them, so a primary migration holds about one image in memory:
# the destination's, filled as blocks arrive. Peak RSS of the CLI over
# loopback TCP with a writing guest must stay under the destination's
# disk (65 536 x 512 B) and RAM (2 048 x 512 B) plus 16 MiB; a source
# that lays its image out again adds its 32 MiB and fails here.
python3 - <<'PY'
import resource, subprocess
subprocess.run(["./target/release/vmmigrate", "live", "--workload", "web", "--tcp"],
               check=True, stdout=subprocess.DEVNULL)
peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
bound_mib = (65536 * 512 + 2048 * 512) / 2**20 + 16
print(f"vmmigrate live --workload web --tcp: peak RSS {peak_mib:.1f} MiB (bound {bound_mib:.0f})")
assert peak_mib <= bound_mib, (peak_mib, bound_mib)
PY

echo "== CLI round trip: a run and its journal fold to one account =="
# A run reads its report off the fold of its events and prints that
# account (phase spans, iterations, post-copy counts, reconnects) in the
# rendering `trace analyze` prints for the journal the run wrote. The
# journal folds to the same account by construction, so the two blocks
# must match byte for byte: over the duplex, over loopback TCP, through
# seeded resets and reconnects, and for the simulator.
rt=target/cli-roundtrip
mkdir -p "$rt"
account() { sed -n '/^phase  *duration$/,/^reconnects /p' "$1"; }
i=0
for run in "live" "live --tcp" "live --faults 2 --max-reconnects 2" "simulate --workload web"; do
  i=$((i + 1))
  echo "-- vmmigrate $run"
  # shellcheck disable=SC2086 # $run is a list of arguments
  ./target/release/vmmigrate $run --trace-out "$rt/$i.jsonl" >"$rt/$i.run"
  ./target/release/vmmigrate trace analyze "$rt/$i.jsonl" >"$rt/$i.analyze"
  account "$rt/$i.run" >"$rt/$i.run.account"
  account "$rt/$i.analyze" >"$rt/$i.analyze.account"
  test "$(wc -l <"$rt/$i.run.account")" -eq 9
  diff "$rt/$i.run.account" "$rt/$i.analyze.account"
done
grep -Eq '^reconnects       [1-9][0-9]* src' "$rt/3.run.account"

echo "== benchmark package: build, own tests, five-workload smoke =="
# benchmark/ is its own cargo package (BENCHMARK.json's command builds it
# from this checkout), so the workspace steps above never compile it.
# Each workload runs once, traced, under a deadline: a transport change
# that hangs a layer kernel (simnet.pace_error_pct sends into a duplex
# pair nobody reads) or breaks image verification fails here, not in the
# driver. The binary exits non-zero on any failed or wrong migration.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --release --offline --manifest-path benchmark/Cargo.toml
for workload in bulk_unique template_clone_paced web_tcp incremental_return virtual_time; do
  echo "-- $workload"
  timeout 120 cargo run --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml -- \
    --workload "$workload" --quick --trace 1 >"target/smoke-$workload.out"
done
# The checker's own self-test: --corrupt-dest flips one byte of the
# destination disk after each migration and before it is verified. Each
# run must fail (exit 1) on exactly that block, found by both verifiers
# the benchmark relies on: web_tcp's image against the guest's stamps
# (LiveOutcome::inconsistent_blocks), bulk_unique's against the source
# (diff_blocks). A checker that accepts either has stopped checking.
for workload in web_tcp bulk_unique; do
  echo "-- $workload --corrupt-dest"
  rc=0
  timeout 120 cargo run --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml -- \
    --workload "$workload" --quick --corrupt-dest \
    >"target/corrupt-$workload.out" 2>"target/corrupt-$workload.err" || rc=$?
  if [ "$rc" -ne 1 ] ||
    ! grep -q 'verification failed: 0 read violations, 1 bad blocks, 0 bad pages' \
      "target/corrupt-$workload.err"; then
    echo "the benchmark did not reject a corrupted $workload destination (exit $rc)"
    exit 1
  fi
done
# The live engine's wire bytes and block forms, by equality: the three
# idle-guest live workloads write nothing while they migrate, so what the
# destination sent, what crossed per image byte and the share of blocks
# that crossed as references, as LZ streams and at all are counts fixed
# by the seed, not timings — a data-plane change that moves one byte, or
# one block from one form to another, changes a digit here. (The paced
# template clone carries 0.0447 wire bytes per image byte since its full
# blocks cross in whole 256-block LZ streams and its references in one
# frame per flush; 0.066 in streams of one chunk's ~64 blocks and one
# frame per reference, after the LZ search keyed on eight bytes as well
# as four and its offsets reached across the batch; 0.094 with one 4-byte
# key and 16-bit offsets, 0.166-0.172 with per-unit frames before one LZ
# stream per batch.) web_tcp's guest writes during the copy, so its bytes
# follow the scheduler and are not pinned.
python3 - <<'PY'
import json
want = {
    "bulk_unique": (115.0, 1.0024214320712619, 0.0, 0.0, 1.0),
    "template_clone_paced": (32899.0, 0.04473649130927192, 0.75, 1.0, 1.0),
    "incremental_return": (115.0, 0.04987819267041756, 0.0, 0.0, 0.01995849609375),
}
names = (
    "live.dst_bytes",
    "live.wire_bytes_per_image_byte",
    "live.dedup_hit_share",
    "live.lz_kept_share",
    "live.blocks_sent_per_image_block",
)
same = True
for workload, pinned in want.items():
    with open(f"target/smoke-{workload}.out") as out:
        metrics = json.loads(out.read().splitlines()[-1])["metrics"]
    got = tuple(metrics[name]["value"] for name in names)
    print(workload, ", ".join(f"{name} = {value!r}" for name, value in zip(names, got)))
    same &= got == pinned
raise SystemExit(0 if same else 1)
PY
# The virtual-time engines are pure functions of the seed: the simulated
# outputs of the default seed, by equality. Counts, not timings — a block
# directory that keeps a different image, a planner that assigns one
# block differently, a step that shares a disk or NIC differently or a
# guest that dirties one page more changes a digit here.
tail -n 1 target/smoke-virtual_time.out | python3 -c '
import json, sys
metrics = json.load(sys.stdin)["metrics"]
want = {
    "sim.virt_total_s": 16.792540988,
    "sim.virt_downtime_ms": 132.669965,
    "sim.virt_wire_bytes": 946567619,
    "sim.fanin_peer_share": 0.916656494140625,
    "orchestrator.virt_makespan_s": 205.525798183,
    "orchestrator.virt_bytes": 1055502911,
}
got = {name: metrics[name]["value"] for name in want}
for name in want:
    print(f"virtual_time {name} = {got[name]!r}")
sys.exit(0 if got == want else 1)'

echo "== clippy (deny warnings), the lint zones included =="
# Each lint zone is stock clippy/rustc lints denied at the zone's root,
# with the banned types and methods in clippy.toml (DESIGN.md §11):
# transport code never unwraps or panics, deterministic code uses neither
# hash order nor the wall clock, reactor-ready code never blocks, no
# must-use result is dropped, protocol matches name every variant.
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (deny warnings) =="
# Every intra-doc link resolves and none points at a private item; the
# doc comments the wire table (crates/simnet/src/proto.rs) hands to the
# generated MigMessage are checked here too.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --locked

echo "== lint zones: clippy reports every seeded violation at its file:line =="
# tests/clippy_seeds is a package of its own whose modules carry the zone
# roots' deny lines over seeded violations; the run must fail, reporting
# exactly the seeds (and nothing from its zone-free module).
seeds=tests/clippy_seeds
if cargo clippy --offline --quiet --manifest-path "$seeds/Cargo.toml" \
  --target-dir target/clippy-seeds --message-format json >target/clippy-seeds.jsonl 2>/dev/null; then
  echo "clippy accepted the seeded violations"
  exit 1
fi
python3 - <<'PY'
import json
want = {
    ("src/des_pump.rs", 7, "clippy::disallowed_methods"),
    ("src/des_pump.rs", 8, "clippy::disallowed_methods"),
    ("src/live_driver.rs", 4, "clippy::disallowed_types"),
    ("src/live_driver.rs", 6, "clippy::disallowed_types"),
    ("src/live_proto.rs", 13, "clippy::wildcard_enum_match_arm"),
    ("src/orchestrator_sched.rs", 4, "clippy::disallowed_types"),
    ("src/orchestrator_sched.rs", 6, "clippy::disallowed_types"),
    ("src/orchestrator_sched.rs", 7, "clippy::disallowed_types"),
    ("src/orchestrator_sched.rs", 11, "clippy::disallowed_methods"),
    ("src/simnet_wire.rs", 10, "unused_must_use"),
    ("src/simnet_wire.rs", 11, "clippy::let_underscore_must_use"),
    ("src/simnet_wire.rs", 15, "clippy::unwrap_used"),
}
got = set()
for line in open("target/clippy-seeds.jsonl"):
    record = json.loads(line)
    message = record.get("message") or {}
    if record.get("reason") != "compiler-message" or not message.get("code"):
        continue
    for span in message["spans"]:
        if span["is_primary"]:
            got.add((span["file_name"], span["line_start"], message["code"]["code"]))
for seed in sorted(got | want):
    print(("ok      " if seed in got and seed in want else "MISSING " if seed in want else "EXTRA   ")
          + "%s:%d %s" % seed)
raise SystemExit(0 if got == want else 1)
PY

echo "== size: non-test source lines (reported, not gated) =="
# One rule for every change's line count: lines of crates/*/src/**/*.rs
# and src/**/*.rs above each file's trailing #[cfg(test)] module. Last,
# with the options below, so every log ends with both counts.
python3 scripts/loc.py

echo "== size: configuration options (reported, not gated) =="
# pub fields of the configuration structs a run is set up with.
python3 scripts/options.py

echo "CI OK"
