//! Fuzzer smoke tests: a bounded clean sweep with the real protocol, a
//! planted protocol bug the harness must catch quickly, bit-exact
//! replay, and shrinking of both families' failures. The wide 500-seed
//! sweep runs in release via the `tt-check` binary (`scripts/verify.sh`);
//! the counts here are sized for debug-mode CI.

use tt_base::{NodeId, Topology};
use tt_check::scenarios::SkipInvalidate;
use tt_check::{stache_factory, Family, FuzzOptions, PerturbConfig, Shape};
use tt_stache::ReliableConfig;

/// Debug-mode smoke budget; the release binary sweeps 500.
const SMOKE_SEEDS: u64 = 60;

/// The random family with the stock protocol.
const STACHE: Family = Family::Random(&stache_factory);

#[test]
fn clean_fuzz_sweep_finds_nothing() {
    let report = STACHE.fuzz(0, SMOKE_SEEDS, &FuzzOptions::default());
    assert_eq!(report.seeds_run, SMOKE_SEEDS);
    assert!(report.failure.is_none(), "stock Stache failed fuzzing: {}", report.failure.unwrap());
}

#[test]
fn planted_skip_invalidate_bug_is_caught_and_shrinks() {
    let factory = |id: NodeId, layout: &_, cfg: &_| {
        Box::new(SkipInvalidate::new(id, layout, cfg)) as Box<dyn tt_tempest::Protocol>
    };
    let family = Family::Random(&factory);
    let options = FuzzOptions::default();
    let report = family.fuzz(0, 500, &options);
    let failure = report
        .failure
        .expect("a protocol that skips invalidations must be caught within 500 seeds");
    assert_eq!(failure.stage, "typhoon", "caught by the observed typhoon run: {failure}");

    // The failing seed replays to the identical failure.
    let seed = failure.seed;
    let again = family.fuzz(seed, 1, &options).failure.expect("failure replays");
    assert_eq!(again.seed, failure.seed);
    assert_eq!(again.stage, failure.stage);
    assert_eq!(again.message, failure.message);

    // And shrinking yields a (weakly) smaller shape that still fails.
    let shrunk = family.shrink(&failure, &ReliableConfig::default());
    let (Some(Shape::Random(s)), Shape::Random(c)) = (shrunk.shrunk, &failure.shape) else {
        panic!("a random-family failure shrinks to a random shape");
    };
    assert!(s.nodes <= c.nodes);
    assert!(s.blocks <= c.blocks);
    assert!(s.phases <= c.phases);
    assert!(s.pages <= c.pages);
}

#[test]
fn clean_fault_fuzz_sweep_finds_nothing() {
    // Lossy network + reliable transport: every seed must still pass
    // the full invariant set and the differential final-image check.
    // The wide ≥200-seed sweep runs in release via `tt-check run
    // --faults` (scripts/verify.sh).
    let options = FuzzOptions { faults: true, ..FuzzOptions::default() };
    let report = STACHE.fuzz(0, 30, &options);
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
        let a = STACHE.run_seed(seed, &FuzzOptions::default()).expect("clean");
        let b = STACHE.run_seed(seed, &FuzzOptions::default()).expect("clean");
        assert_eq!(a, b, "seed {seed} diverged between replays");
    }
}

/// Whether schedule `s` is no less simple than `o` on every dimension:
/// each dimension either kept `o`'s value or moved to the production
/// schedule's (tie-shuffle off, jitter 0, no coalescing, no direct
/// execution, the ideal network, a fault rate of 0, no faults).
fn no_less_simple(s: &PerturbConfig, o: &PerturbConfig) -> bool {
    let faults = match (s.fault, o.fault) {
        (None, _) => true,
        (Some(_), None) => false,
        (Some(a), Some(b)) => {
            a.seed == b.seed
                && a.partition_epoch == b.partition_epoch
                && [
                    (a.drop_permille, b.drop_permille),
                    (a.dup_permille, b.dup_permille),
                    (a.corrupt_permille, b.corrupt_permille),
                    (a.partition_permille, b.partition_permille),
                ]
                .iter()
                .all(|&(x, y)| x == 0 || x == y)
        }
    };
    (s.tie_shuffle.is_none() || s.tie_shuffle == o.tie_shuffle)
        && (s.jitter_max == 0 || (s.jitter_max, s.jitter_seed) == (o.jitter_max, o.jitter_seed))
        && (!s.coalesce || o.coalesce)
        && (!s.direct_execution || o.direct_execution)
        && (s.topology == Topology::Ideal || s.topology == o.topology)
        && faults
}

#[test]
fn kv_failures_shrink_their_schedule() {
    // The KV family behind a transport that retransmits without
    // duplicate suppression fails at seed 0; the shared shrinker must
    // return a schedule that still fails and is no less simple than the
    // original on every dimension. A KV case keeps its shape.
    let broken = ReliableConfig { dedupe: false };
    let options = FuzzOptions { faults: true, transport: Some(broken), ..FuzzOptions::default() };
    let failure = Family::Kv.fuzz(0, 1, &options).failure.expect("dedupe-off caught at seed 0");
    let shrunk = Family::Kv.shrink(&failure, &broken);
    assert_eq!(shrunk.shrunk.as_ref(), Some(&failure.shape));
    let per = shrunk.shrunk_perturb.expect("schedule shrink ran");
    assert_ne!(per, failure.perturb, "the schedule must shrink");
    assert!(no_less_simple(&per, &failure.perturb), "{per:?} vs {:?}", failure.perturb);
    assert!(
        Family::Kv.run_case(&failure.shape, &per, &broken).is_err(),
        "the shrunk schedule must still fail"
    );
    assert!(per.fault.is_some(), "the failure needs faults, so shrinking must keep them");
}
