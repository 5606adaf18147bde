//! Parallel-sweep regression tests: `--jobs N` must never change a
//! simulated result. Every point is an independent single-threaded
//! simulation built from its own seed, so the worker count can only
//! affect wall-clock time — these tests pin that guarantee.

use tt_apps::AppId;
use tt_bench::{bench_config, figure3_runs, figure4_runs, smoke, sweep, Run, RunOutcome};

/// Asserts two sweeps over `runs` simulated the same cycles, run by run.
fn assert_same_cycles(runs: &[Run], a: &[RunOutcome], b: &[RunOutcome]) {
    assert_eq!((a.len(), b.len()), (runs.len(), runs.len()));
    for ((run, a), b) in runs.iter().zip(a).zip(b) {
        assert_eq!(a.cycles, b.cycles, "cycles differ at {} on {}", run.point, run.system);
    }
}

#[test]
fn figure3_sweep_is_identical_for_any_job_count() {
    let runs = figure3_runs(&AppId::ALL, smoke::SCALE, &bench_config(smoke::NODES));
    assert_same_cycles(&runs, &sweep(1, 1, &runs), &sweep(4, 1, &runs));
}

#[test]
fn figure4_sweep_is_identical_for_any_job_count() {
    let runs = figure4_runs(smoke::SCALE, &bench_config(smoke::NODES));
    assert_same_cycles(&runs, &sweep(1, 1, &runs), &sweep(4, 1, &runs));
}

#[test]
fn repeated_sweeps_are_bit_reproducible() {
    // Same-process determinism: two identical sweeps, identical cycles.
    // (Cross-process determinism additionally requires that no map with a
    // randomized hasher is iterated on a semantics-bearing path; see
    // tt_base::fxhash and StacheProtocol::init.)
    let runs = figure3_runs(&AppId::ALL, smoke::SCALE, &bench_config(smoke::NODES));
    assert_same_cycles(&runs, &sweep(2, 1, &runs), &sweep(2, 1, &runs));
}
