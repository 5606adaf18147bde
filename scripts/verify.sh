#!/usr/bin/env sh
# Full local verification: release build, workspace tests, lint, and a
# tiny end-to-end figure3 smoke that exercises the parallel sweep path
# (independent sequential simulations across --jobs worker threads).
# Run from anywhere inside the repository.
set -eu

cd "$(dirname "$0")/.."

# Scratch files of the comparisons below live in one private directory,
# removed however the script exits, so a failed step leaves nothing
# behind and two concurrent runs never compare each other's files.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' HUP INT TERM

# Formatting: the layout rustfmt.toml pins. perfbench/ is a separate
# package and is not formatted or checked here.
echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc with warnings denied: intra-doc links to renamed or deleted
# items fail here instead of rotting silently. --keep-going reports
# every crate whose docs fail, not just the first. The bench binaries
# are documented in a second run: the tt-check binary and the tt-check
# library would otherwise write the same target/doc/tt_check/index.html.
echo "==> cargo doc --workspace --no-deps --lib, then tt-bench --bins (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib --keep-going
RUSTDOCFLAGS="-D warnings" cargo doc -p tt-bench --no-deps --bins --keep-going

# Dead and over-wide public items, as rustc sees them (about 75 s): on a
# temporary copy, every `pub` item and field under crates/*/src is
# demoted to `pub(crate)`, grouped `pub use`s are split one name each,
# and each privacy error of `cargo check` (workspace lib/bins/examples/
# benches, then perfbench) promotes its definition back until both
# build; every dead_code warning left is an item only tests reach. More
# rounds then build every target this script builds, tests included
# (the workspace's --all-targets, perfbench's lib, bins and tests); a
# `pub` none of them needs outside its crate is over-wide. The script
# prints each dead and each over-wide item and fails. Test fixtures are
# exempt through its FIXTURE_FILES; delete a dead item rather than
# exempting it, and make an over-wide one `pub(crate)`.
echo "==> dead and over-wide pub items (scripts/unused_pub.py, compiler-driven)"
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
# The planted run also writes the --out JSON report, which must parse
# and record the caught, shrunk failure.
echo "==> tt-check smoke (500 seeds clean + planted bug caught, --out report)"
cargo run --release -p tt-bench --bin tt-check -- run --seeds 500
cargo run --release -p tt-bench --bin tt-check -- \
    run --seeds 500 --planted-bug --out "$tmp/ttcheck.json"
python3 - "$tmp/ttcheck.json" <<'PY'
import json, sys

report = json.load(open(sys.argv[1]))
if report["clean"] is not False:
    sys.exit(f"FAIL: tt-check --out: a planted run must not be clean: {report['clean']!r}")
if report["seeds_run"] < 1:
    sys.exit(f"FAIL: tt-check --out: seeds_run {report['seeds_run']!r}")
if report["failure"]["shrunk"] is None:
    sys.exit("FAIL: tt-check --out: the caught failure carries no shrunk shape")
print(f"    report ok: caught after {report['seeds_run']} seed(s), shrunk to {report['failure']['shrunk']}")
PY

# KV-serving smoke (tt-serve): the same sweep twice, on one sweep worker
# and on two. Latency percentiles and cycle counts print to stdout (wall
# rates go to stderr), so the two tables must be byte-identical.
echo "==> kv_bench smoke (--jobs 1 vs --jobs 2, identical stdout)"
cargo run --release -p tt-bench --bin kv_bench -- \
    --nodes 8 --keys 512 --requests 100 --jobs 2 >"$tmp/kv_a.txt"
cargo run --release -p tt-bench --bin kv_bench -- \
    --nodes 8 --keys 512 --requests 100 --jobs 1 >"$tmp/kv_b.txt"
cmp "$tmp/kv_a.txt" "$tmp/kv_b.txt"

# --fault-rate 0 must be cycle-neutral: with no fault schedule nothing
# is wrapped in the reliable transport and the table stays byte-
# identical. A nonzero rate runs the same sweep over a lossy network
# and must complete every request.
echo "==> kv_bench fault smoke (--fault-rate 0 byte-identical; lossy sweep completes)"
cargo run --release -p tt-bench --bin kv_bench -- \
    --nodes 8 --keys 512 --requests 100 --jobs 2 --fault-rate 0 >"$tmp/kv_c.txt"
cmp "$tmp/kv_a.txt" "$tmp/kv_c.txt"
cargo run --release -p tt-bench --bin kv_bench -- \
    --nodes 8 --keys 512 --requests 100 --jobs 2 \
    --fault-rate 30 >/dev/null

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
    replay --seed 11 --faults --fault-seed 64023 >"$tmp/ttfr_a.txt"
cargo run --release -p tt-bench --bin tt-check -- \
    replay --seed 11 --faults --fault-seed 64023 >"$tmp/ttfr_b.txt"
cmp "$tmp/ttfr_a.txt" "$tmp/ttfr_b.txt"

# KV litmus family: put/get races over tt-serve key slots, run
# differentially on three machines (Stache-served, write-update-served,
# DirNNB) with word-for-word image agreement, then a lossy window.
echo "==> tt-check kv (200 seeds + 100 lossy seeds)"
cargo run --release -p tt-bench --bin tt-check -- kv --seeds 200
cargo run --release -p tt-bench --bin tt-check -- kv --seeds 100 --faults

# Big-machine memory guard: the heap high-water mark per node of every
# 256- and 1024-node mesh EM3D point, matched by (point, system), must
# stay within 2x of the committed results/BENCH_figure3_{256,1024}_mesh.json
# snapshots — the guard that keeps directories, page frames and the
# mesh's per-source link slabs compact. (results.py checks their cycles.)
for nodes in 256 1024; do
    echo "==> figure3 big-machine memory guard (${nodes}-node mesh, 2x bytes/node, every point)"
    cargo run --release -p tt-bench --bin figure3 -- \
        --nodes "$nodes" --topology mesh --apps em3d --scale 64 --jobs 1 \
        --json "$tmp/fig3_mesh${nodes}.json" >/dev/null
    python3 - "$tmp/fig3_mesh${nodes}.json" "results/BENCH_figure3_${nodes}_mesh.json" "$nodes" <<'PY'
import json, sys

def bytes_per_node(path):
    points = json.load(open(path))["points"]
    return {(p["point"], p["system"]): p["cost"]["bytes_per_node"] for p in points}

new, old = (bytes_per_node(path) for path in sys.argv[1:3])
nodes = sys.argv[3]
if new.keys() != old.keys():
    sys.exit(f"FAIL: {nodes}-node mesh points differ from the snapshot: {sorted(new.keys() ^ old.keys())}")
failed = False
for key in old:
    verdict = "ok" if new[key] <= 2 * old[key] else "FAIL (>2x)"
    failed |= verdict != "ok"
    print(f"    {key[0]} {key[1]}: bytes/node {new[key]} (snapshot {old[key]}) {verdict}")
if failed:
    sys.exit(f"FAIL: {nodes}-node mesh bytes/node regressed >2x")
PY
done

echo "==> examples build"
cargo build --release --examples

# The benchmark (perfbench/, a package outside the workspace): its own
# tests, then a 1-second run of each workload, starting with a traced
# pdes-256, the 256-node mesh workload (its name predates the parallel
# simulator's removal). Every simulation must match its pinned digest,
# so each result line must report "correct": true.
echo "==> perfbench tests"
cargo test --manifest-path perfbench/Cargo.toml

# One perfbench smoke: a 1-second run of workload $1 with tracing $2
# whose result line must report "correct": true.
perfbench_smoke() {
    result=$(python3 perfbench/run.py --workload "$1" --seconds 1 --trace "$2" | tail -n 1)
    case "$result" in
        *'"correct": true'*) echo "    correct" ;;
        *)
            echo "FAIL: perfbench $1: $result"
            exit 1
            ;;
    esac
}

echo "==> perfbench pdes-256 smoke (1 s, traced, digests checked)"
perfbench_smoke pdes-256 1

# kv-mesh-64 is the one workload that runs the reliable transport, the
# kv_update protocol and the fault plan under pinned digests: a 1-second
# untraced run must report "correct": true as well.
echo "==> perfbench kv-mesh-64 smoke (1 s, digests checked)"
perfbench_smoke kv-mesh-64 0

# fig3-32 is the paper's 32-node machine: both systems over the ideal
# network on every Figure 3 point, so every digest workload is checked.
echo "==> perfbench fig3-32 smoke (1 s, digests checked)"
perfbench_smoke fig3-32 0

echo "==> verify OK"
