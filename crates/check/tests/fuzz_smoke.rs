//! Fuzzer smoke tests: a bounded clean sweep with the real protocol, a
//! planted protocol bug the harness must catch quickly, bit-exact
//! replay, and seed shrinking. The wide 500-seed sweep runs in release
//! via the `tt-check` binary (`scripts/verify.sh`); the counts here are
//! sized for debug-mode CI.

use tt_base::NodeId;
use tt_check::scenarios::SkipInvalidate;
use tt_check::{fuzz, run_seed, shrink, stache_factory, FuzzOptions};
use tt_stache::ReliableConfig;

/// Debug-mode smoke budget; the release binary sweeps 500.
const SMOKE_SEEDS: u64 = 60;

#[test]
fn clean_fuzz_sweep_finds_nothing() {
    let report = fuzz(0, SMOKE_SEEDS, &FuzzOptions::default(), &stache_factory);
    assert_eq!(report.seeds_run, SMOKE_SEEDS);
    assert!(report.failure.is_none(), "stock Stache failed fuzzing: {}", report.failure.unwrap());
}

#[test]
fn planted_skip_invalidate_bug_is_caught_and_shrinks() {
    let factory = |id: NodeId, layout: &_, cfg: &_| {
        Box::new(SkipInvalidate::new(id, layout, cfg)) as Box<dyn tt_tempest::Protocol>
    };
    let options = FuzzOptions::default();
    let report = fuzz(0, 500, &options, &factory);
    let failure = report
        .failure
        .expect("a protocol that skips invalidations must be caught within 500 seeds");
    assert_eq!(failure.stage, "typhoon", "caught by the observed typhoon run: {failure}");

    // The failing seed replays to the identical failure.
    let seed = failure.seed;
    let again = fuzz(seed, 1, &options, &factory).failure.expect("failure replays");
    assert_eq!(again.seed, failure.seed);
    assert_eq!(again.stage, failure.stage);
    assert_eq!(again.message, failure.message);

    // And shrinking yields a (weakly) smaller shape that still fails.
    let shrunk = shrink(&failure, &factory, &ReliableConfig::default());
    let s = shrunk.shrunk.expect("shrink fills in a shape");
    assert!(s.nodes <= failure.cfg.nodes);
    assert!(s.blocks <= failure.cfg.blocks);
    assert!(s.phases <= failure.cfg.phases);
    assert!(s.pages <= failure.cfg.pages);
}

#[test]
fn clean_fault_fuzz_sweep_finds_nothing() {
    // Lossy network + reliable transport: every seed must still pass
    // the full invariant set and the differential final-image check.
    // The wide ≥200-seed sweep runs in release via `tt-check run
    // --faults` (scripts/verify.sh).
    let options = FuzzOptions { faults: true, ..FuzzOptions::default() };
    let report = fuzz(0, 30, &options, &stache_factory);
    assert_eq!(report.seeds_run, 30);
    assert!(
        report.failure.is_none(),
        "stock Stache behind the reliable transport failed fault fuzzing: {}",
        report.failure.unwrap()
    );
}

#[test]
fn replay_is_bit_exact_across_runs() {
    for seed in [3u64, 11, 29] {
        let a = run_seed(seed, &FuzzOptions::default()).expect("clean");
        let b = run_seed(seed, &FuzzOptions::default()).expect("clean");
        assert_eq!(a, b, "seed {seed} diverged between replays");
    }
}
