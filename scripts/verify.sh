#!/usr/bin/env sh
# Full local verification: release build, workspace tests, lint, and a
# tiny end-to-end figure3 smoke that exercises the parallel sweep path
# (independent sequential simulations across --jobs worker threads).
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

# Public surface: every pub fn, type, const or static needs a caller in
# non-test code (benches, examples and perfbench/src count); the script
# allowlists the test fixtures. It prints each unused item and fails.
echo "==> unused pub items (scripts/unused_pub.py)"
python3 scripts/unused_pub.py

echo "==> figure3 smoke (--scale 64 --nodes 8 --jobs 2)"
cargo run --release -p tt-bench --bin figure3 -- \
    --scale 64 --nodes 8 --jobs 2 >/dev/null

# Committed results: every file under results/ except figure4_full.txt
# (about 4 minutes; `results.py --check --all` adds it) is regenerated
# and compared with the committed copy — text byte for byte, JSON on
# each point's simulated cycles.
echo "==> committed results (scripts/results.py --check)"
python3 scripts/results.py --check

# Bounded model-checking sweep (fixed seeds, well under a minute): 500
# litmus cases under schedule perturbation must run clean on both
# machines, and a planted protocol bug must be caught. On failure
# tt-check prints the seed; reproduce with `tt-check replay --seed S`.
echo "==> tt-check smoke (500 seeds clean + planted bug caught)"
cargo run --release -p tt-bench --bin tt-check -- run --seeds 500
cargo run --release -p tt-bench --bin tt-check -- run --seeds 500 --planted-bug

# KV-serving smoke (tt-serve): the same sweep twice, on one sweep worker
# and on two. Latency percentiles and cycle counts print to stdout (wall
# rates go to stderr), so the two tables must be byte-identical.
echo "==> kv_bench smoke (--jobs 1 vs --jobs 2, identical stdout)"
cargo run --release -p tt-bench --bin kv_bench -- \
    --nodes 8 --keys 512 --requests 100 --jobs 2 >/tmp/kv_a.txt
cargo run --release -p tt-bench --bin kv_bench -- \
    --nodes 8 --keys 512 --requests 100 --jobs 1 >/tmp/kv_b.txt
cmp /tmp/kv_a.txt /tmp/kv_b.txt

# --fault-rate 0 must be cycle-neutral: with no fault schedule nothing
# is wrapped in the reliable transport and the table stays byte-
# identical. A nonzero rate runs the same sweep over a lossy network
# and must complete every request.
echo "==> kv_bench fault smoke (--fault-rate 0 byte-identical; lossy sweep completes)"
cargo run --release -p tt-bench --bin kv_bench -- \
    --nodes 8 --keys 512 --requests 100 --jobs 2 --fault-rate 0 >/tmp/kv_c.txt
cmp /tmp/kv_a.txt /tmp/kv_c.txt
cargo run --release -p tt-bench --bin kv_bench -- \
    --nodes 8 --keys 512 --requests 100 --jobs 2 \
    --fault-rate 30 >/dev/null
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

# Fault-schedule determinism: one forced fault seed replayed twice must
# produce byte-identical output (cycles and image digests), proving the
# fault schedule is keyed off deterministic state, not arrival order.
echo "==> tt-check fault replay determinism (--fault-seed, replayed twice)"
cargo run --release -p tt-bench --bin tt-check -- \
    replay --seed 11 --faults --fault-seed 64023 >/tmp/ttfr_a.txt
cargo run --release -p tt-bench --bin tt-check -- \
    replay --seed 11 --faults --fault-seed 64023 >/tmp/ttfr_b.txt
cmp /tmp/ttfr_a.txt /tmp/ttfr_b.txt
rm -f /tmp/ttfr_a.txt /tmp/ttfr_b.txt

# KV litmus family: put/get races over tt-serve key slots, run
# differentially on three machines (Stache-served, write-update-served,
# DirNNB) with word-for-word image agreement, then a lossy window.
echo "==> tt-check kv (200 seeds + 100 lossy seeds)"
cargo run --release -p tt-bench --bin tt-check -- kv --seeds 200
cargo run --release -p tt-bench --bin tt-check -- kv --seeds 100 --faults

# Big-machine memory guard: the heap high-water mark per node of the
# 256-node mesh EM3D points must stay within 2x of the committed
# results/BENCH_figure3_256_mesh.json snapshot — the guard that keeps
# the compact directory state compact. (results.py checks its cycles.)
echo "==> figure3 big-machine memory guard (256-node mesh, 2x bytes/node)"
cargo run --release -p tt-bench --bin figure3 -- \
    --nodes 256 --topology mesh --apps em3d --scale 64 --jobs 1 \
    --json /tmp/fig3_mesh256.json >/dev/null
new_bpn=$(grep -o '"bytes_per_node": [0-9]*' /tmp/fig3_mesh256.json \
    | head -1 | tr -dc 0-9)
old_bpn=$(grep -o '"bytes_per_node": [0-9]*' results/BENCH_figure3_256_mesh.json \
    | head -1 | tr -dc 0-9)
if [ "$new_bpn" -gt $((old_bpn * 2)) ]; then
    echo "FAIL: 256-node mesh bytes/node regressed >2x: $new_bpn vs snapshot $old_bpn"
    exit 1
fi
echo "    bytes/node $new_bpn (snapshot $old_bpn, guard 2x)"
rm -f /tmp/fig3_mesh256.json

echo "==> examples build"
cargo build --release --examples

# The benchmark (perfbench/, a package outside the workspace): its own
# tests, then a 1-second traced run of pdes-256, the 256-node mesh
# workload (its name predates the parallel simulator's removal). Every
# simulation must match its pinned digest, so the result line must
# report "correct": true.
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
