#!/usr/bin/env sh
# Full local verification: release build, workspace tests, lint, and a
# tiny end-to-end figure3 smoke that exercises the parallel sweep path.
# Run from anywhere inside the repository.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc with warnings denied: intra-doc links to renamed or deleted
# items fail here instead of rotting silently.
echo "==> cargo doc --workspace --no-deps --lib (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib

echo "==> figure3 smoke (--scale 64 --nodes 8 --jobs 2)"
cargo run --release -p tt-bench --bin figure3 -- \
    --scale 64 --nodes 8 --jobs 2 >/dev/null

# Same smoke under the parallel simulator: --sim-threads 2 shards each
# simulation's event queue across two OS threads, and the binary's
# built-in canary asserts the cycle tables match a sequential rerun.
echo "==> figure3 smoke, parallel simulator (--sim-threads 2)"
cargo run --release -p tt-bench --bin figure3 -- \
    --scale 64 --nodes 8 --jobs 2 --sim-threads 2 >/dev/null

# Adaptive windowing: same canary-checked smoke with the idle-skipping
# per-shard window bounds in place of the fixed quantum. Cycle tables
# must be byte-identical; only the rendezvous count may change.
echo "==> figure3 smoke, adaptive windows (--sim-threads 2 --window-policy adaptive)"
cargo run --release -p tt-bench --bin figure3 -- \
    --scale 64 --nodes 8 --jobs 2 --sim-threads 2 --window-policy adaptive >/dev/null

# Bounded model-checking sweep (fixed seeds, well under a minute): 500
# litmus cases under schedule perturbation — including the
# sequential-vs-parallel simulator differential on the seeds that draw
# sim_threads > 1 — must run clean on both machines, and a planted
# protocol bug must be caught. On failure tt-check prints the seed;
# reproduce with `tt-check replay --seed S [--sim-threads N]`.
echo "==> tt-check smoke (500 seeds clean + planted bug caught)"
cargo run --release -p tt-bench --bin tt-check -- run --seeds 500
cargo run --release -p tt-bench --bin tt-check -- run --seeds 500 --planted-bug

# A dedicated 200-seed window re-checked with the parallel leg forced
# on every case: each litmus workload runs sequentially and at 2
# simulator threads, and cycles plus final memory images must match
# bit for bit.
echo "==> tt-check parallel differential (200 seeds, forced --sim-threads 2)"
cargo run --release -p tt-bench --bin tt-check -- \
    run --seeds 200 --sim-threads 2

# The same 200-seed window with the adaptive window policy forced on the
# parallel leg: idle-window batching and lookahead widening must never
# change cycles or memory images.
echo "==> tt-check adaptive differential (200 seeds, forced adaptive windows)"
cargo run --release -p tt-bench --bin tt-check -- \
    run --seeds 200 --sim-threads 2 --window-policy adaptive

# KV-serving smoke (tt-serve): the same sweep twice, once parallel
# across points and once under the parallel simulator with adaptive
# windows. Latency percentiles and cycle counts print to stdout (wall
# rates go to stderr), so the two tables must be byte-identical.
echo "==> kv_bench smoke (sweep parallelism vs parallel simulator, identical stdout)"
cargo run --release -p tt-bench --bin kv_bench -- \
    --nodes 8 --keys 512 --requests 100 --jobs 2 >/tmp/kv_a.txt
cargo run --release -p tt-bench --bin kv_bench -- \
    --nodes 8 --keys 512 --requests 100 \
    --sim-threads 2 --window-policy adaptive >/tmp/kv_b.txt
cmp /tmp/kv_a.txt /tmp/kv_b.txt

# --fault-rate 0 must be cycle-neutral: with no fault schedule nothing
# is wrapped in the reliable transport and the table stays byte-
# identical. A nonzero rate runs the same sweep over a lossy network
# (the parallel-simulator identity canary inside the binary still
# holds) and must complete every request.
echo "==> kv_bench fault smoke (--fault-rate 0 byte-identical; lossy sweep completes)"
cargo run --release -p tt-bench --bin kv_bench -- \
    --nodes 8 --keys 512 --requests 100 --jobs 2 --fault-rate 0 >/tmp/kv_c.txt
cmp /tmp/kv_a.txt /tmp/kv_c.txt
cargo run --release -p tt-bench --bin kv_bench -- \
    --nodes 8 --keys 512 --requests 100 --jobs 2 \
    --fault-rate 30 --sim-threads 2 >/dev/null
rm -f /tmp/kv_a.txt /tmp/kv_b.txt /tmp/kv_c.txt

# Lossy-network fault fuzzing: 200 seeds with a per-seed fault schedule
# (drops, duplicates, detected corruption, transient partitions) drawn
# from the case seed; the stock Stache behind the reliable transport
# must pass the full invariant set and the differential final-image
# check on every seed. On failure tt-check prints the seed; reproduce
# with `tt-check replay --seed S --faults`. A planted transport bug
# (retransmission without duplicate suppression) must be caught and
# shrunk to a minimal fault schedule.
echo "==> tt-check fault fuzz (200 lossy seeds clean + planted transport bug caught)"
cargo run --release -p tt-bench --bin tt-check -- run --seeds 200 --faults
cargo run --release -p tt-bench --bin tt-check -- \
    run --seeds 300 --faults --planted-bug

# Fault-schedule determinism: one forced fault seed replayed twice at 3
# simulator threads must produce byte-identical output (cycles and
# image digests), proving the fault schedule is keyed off deterministic
# merge state, not arrival order.
echo "==> tt-check fault replay determinism (--fault-seed, 2x at --sim-threads 3)"
cargo run --release -p tt-bench --bin tt-check -- \
    replay --seed 11 --faults --fault-seed 64023 --sim-threads 3 >/tmp/ttfr_a.txt
cargo run --release -p tt-bench --bin tt-check -- \
    replay --seed 11 --faults --fault-seed 64023 --sim-threads 3 >/tmp/ttfr_b.txt
cmp /tmp/ttfr_a.txt /tmp/ttfr_b.txt
rm -f /tmp/ttfr_a.txt /tmp/ttfr_b.txt

# KV litmus family: put/get races over tt-serve key slots, run
# differentially on three machines (Stache-served, write-update-served,
# DirNNB) with word-for-word image agreement, then a window with the
# parallel simulator forced on every seed.
echo "==> tt-check kv (200 seeds + 100 forced-parallel seeds + 100 lossy seeds)"
cargo run --release -p tt-bench --bin tt-check -- kv --seeds 200
cargo run --release -p tt-bench --bin tt-check -- \
    kv --seeds 100 --sim-threads 2 --window-policy adaptive
cargo run --release -p tt-bench --bin tt-check -- kv --seeds 100 --faults

# Big-machine smoke: a 256-node mesh figure-3 point. The cycle table
# must be bit-identical between the sequential and the 2-thread
# parallel simulator (routed-topology lookahead = one mesh hop), and
# the heap high-water mark per node must stay within 2x of the
# committed results/BENCH_figure3_256_mesh.json snapshot — the guard
# that keeps the compact directory state compact.
echo "==> figure3 big-machine smoke (256-node mesh, seq vs --sim-threads 2 + memory guard)"
cargo run --release -p tt-bench --bin figure3 -- \
    --nodes 256 --topology mesh --apps em3d --scale 64 --jobs 1 \
    --json /tmp/fig3_mesh256.json >/tmp/fig3_mesh256_a.txt
cargo run --release -p tt-bench --bin figure3 -- \
    --nodes 256 --topology mesh --apps em3d --scale 64 --jobs 1 \
    --sim-threads 2 >/tmp/fig3_mesh256_b.txt
cmp /tmp/fig3_mesh256_a.txt /tmp/fig3_mesh256_b.txt
new_bpn=$(grep -o '"bytes_per_node": [0-9]*' /tmp/fig3_mesh256.json \
    | head -1 | tr -dc 0-9)
old_bpn=$(grep -o '"bytes_per_node": [0-9]*' results/BENCH_figure3_256_mesh.json \
    | head -1 | tr -dc 0-9)
if [ "$new_bpn" -gt $((old_bpn * 2)) ]; then
    echo "FAIL: 256-node mesh bytes/node regressed >2x: $new_bpn vs snapshot $old_bpn"
    exit 1
fi
echo "    bytes/node $new_bpn (snapshot $old_bpn, guard 2x)"
rm -f /tmp/fig3_mesh256.json /tmp/fig3_mesh256_a.txt /tmp/fig3_mesh256_b.txt

echo "==> examples build"
cargo build --release --examples

# The benchmark (perfbench/, a package outside the workspace): its own
# tests, then a 1-second traced pdes-256 run, the one workload driving
# the parallel window driver. Every simulation must match its pinned
# digest, so the result line must report "correct": true.
echo "==> perfbench tests"
cargo test --manifest-path perfbench/Cargo.toml

echo "==> perfbench pdes-256 smoke (1 s, traced, digests checked)"
result=$(python3 perfbench/run.py --workload pdes-256 --seconds 1 --trace 1 | tail -n 1)
case "$result" in
    *'"correct": true'*) echo "    correct" ;;
    *)
        echo "FAIL: perfbench pdes-256: $result"
        exit 1
        ;;
esac

echo "==> verify OK"
