//! Parallel-sweep regression tests: `--jobs N` must never change a
//! simulated result. Every point is an independent single-threaded
//! simulation built from its own seed, so the worker count can only
//! affect wall-clock time — these tests pin that guarantee.

use tt_apps::AppId;
use tt_bench::{bench_config, figure3_sweep, figure4_sweep, smoke, FIGURE3_POINTS};

#[test]
fn figure3_sweep_is_identical_for_any_job_count() {
    let cfg = bench_config(smoke::NODES);
    let seq = figure3_sweep(&AppId::ALL, smoke::SCALE, &cfg, 1, 1);
    let par = figure3_sweep(&AppId::ALL, smoke::SCALE, &cfg, 4, 1);
    assert_eq!(seq.len(), par.len());
    let grid =
        AppId::ALL.iter().flat_map(|&app| FIGURE3_POINTS.map(|(set, cache)| (app, set, cache)));
    for ((a, b), (app, set, cache)) in seq.iter().zip(&par).zip(grid) {
        let k = cache / 1024;
        assert_eq!(a.typhoon, b.typhoon, "typhoon cycles differ at {app} {set}/{k}K");
        assert_eq!(a.dirnnb, b.dirnnb, "dirnnb cycles differ at {app} {set}/{k}K");
    }
}

#[test]
fn figure4_sweep_is_identical_for_any_job_count() {
    let cfg = bench_config(smoke::NODES);
    let seq = figure4_sweep(smoke::SCALE, &cfg, 1, 1);
    let par = figure4_sweep(smoke::SCALE, &cfg, 4, 1);
    assert_eq!(seq.len(), par.len());
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(a.pct_remote, b.pct_remote);
        assert_eq!(a.cycles, b.cycles, "cycles differ at {}% remote", a.pct_remote * 100.0);
    }
}

#[test]
fn repeated_sweeps_are_bit_reproducible() {
    // Same-process determinism: two identical sweeps, identical cycles.
    // (Cross-process determinism additionally requires that no map with a
    // randomized hasher is iterated on a semantics-bearing path; see
    // tt_base::fxhash and StacheProtocol::init.)
    let cfg = bench_config(smoke::NODES);
    let first = figure3_sweep(&AppId::ALL, smoke::SCALE, &cfg, 2, 1);
    let second = figure3_sweep(&AppId::ALL, smoke::SCALE, &cfg, 2, 1);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.typhoon, b.typhoon);
        assert_eq!(a.dirnnb, b.dirnnb);
    }
}
