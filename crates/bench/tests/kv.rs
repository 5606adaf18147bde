//! KV-serving harness tests: the headline performance claim
//! (write-update flattens the contended write-heavy tail on a small
//! machine).

use tt_apps::run_kv_update;
use tt_base::SystemConfig;
use tt_serve::{run_kv_stache, KvOutcome, KvParams, KvVariant};

fn point(variant: KvVariant, nodes: usize, skew: f64, write_pct: u32) -> KvParams {
    let mut p = KvParams::small(variant);
    p.nodes = nodes;
    p.keys = 512;
    p.skew = skew;
    p.write_pct = write_pct;
    p.requests_per_node = 120;
    p.mean_interarrival = 500.0;
    p.value_words = 4;
    p
}

fn run(cfg: &SystemConfig, p: &KvParams) -> KvOutcome {
    match p.variant {
        KvVariant::Stache => run_kv_stache(cfg, p),
        KvVariant::Update => run_kv_update(cfg, p),
    }
}

/// The tentpole performance claim, pinned at a hot write-heavy point on
/// a small machine (the regime the custom protocol targets): the
/// write-update server beats the invalidation-based Stache server on
/// put tail latency and overall completion time.
#[test]
fn write_update_flattens_the_hot_write_tail() {
    let cfg = SystemConfig::test_config(8);
    let stache = run(&cfg, &point(KvVariant::Stache, 8, 1.2, 50));
    let update = run(&cfg, &point(KvVariant::Update, 8, 1.2, 50));
    assert_eq!(stache.lat.requests(), update.lat.requests());
    assert!(
        update.lat.put.quantile(0.99) < stache.lat.put.quantile(0.99),
        "update put p99 {} !< stache put p99 {}",
        update.lat.put.quantile(0.99),
        stache.lat.put.quantile(0.99),
    );
    assert!(
        update.lat.get.quantile(0.99) < stache.lat.get.quantile(0.99),
        "update get p99 {} !< stache get p99 {}",
        update.lat.get.quantile(0.99),
        stache.lat.get.quantile(0.99),
    );
    assert!(update.cycles < stache.cycles);
}

/// Both variants serve exactly the workload's request count at every
/// swept mix, so throughput numbers compare like-for-like.
#[test]
fn both_variants_serve_every_request_at_every_mix() {
    for write_pct in [5, 50] {
        let stache =
            run(&SystemConfig::test_config(4), &point(KvVariant::Stache, 4, 0.9, write_pct));
        let update =
            run(&SystemConfig::test_config(4), &point(KvVariant::Update, 4, 0.9, write_pct));
        let expect = 4 * 120;
        assert_eq!(stache.lat.requests(), expect);
        assert_eq!(update.lat.requests(), expect);
        assert_eq!(stache.lat.put.total(), update.lat.put.total());
    }
}
