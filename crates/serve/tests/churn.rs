//! Stache capacity eviction under KV churn.
//!
//! A serving node whose stache budget is smaller than its working set
//! must continuously evict and refetch slot pages. This test pins the
//! whole cycle: a rolling key scan overflows a two-page frame budget,
//! dirty pages are written back to their homes, evicted pages are
//! refetched on the next pass, and — with `verify_values` on — every
//! refetched word still carries the value the protocol wrote back.

use tt_base::workload::{Op, ScriptWorkload};
use tt_base::{mix64, NodeId, SystemConfig};
use tt_serve::KvLayout;
use tt_stache::StacheProtocol;
use tt_typhoon::TyphoonMachine;

const KEYS: u64 = 1024;
const NODES: usize = 2;

fn w0val(k: u64) -> u64 {
    mix64(k ^ 0xAB) | 1
}

fn w1val(k: u64) -> u64 {
    mix64(k ^ 0xCD) | 1
}

/// Node 0 seeds word 0 of every slot; node 1 then writes word 1 of
/// every slot and re-reads both words across two more full passes, so
/// each pass re-touches far more pages than the frame budget holds.
fn churn_workload(kv: &KvLayout) -> ScriptWorkload {
    let mut w = ScriptWorkload::new(NODES).with_layout(kv.layout());
    let mut seed_ops = Vec::new();
    for k in 0..KEYS {
        seed_ops.push(Op::Write { addr: kv.word_addr(k, 0), value: w0val(k) });
    }
    seed_ops.push(Op::Barrier);
    w.set(0, seed_ops);

    let mut churn_ops = vec![Op::Barrier];
    for k in 0..KEYS {
        churn_ops.push(Op::Write { addr: kv.word_addr(k, 1), value: w1val(k) });
    }
    for _pass in 0..2 {
        for k in 0..KEYS {
            churn_ops.push(Op::Read { addr: kv.word_addr(k, 0), expect: Some(w0val(k)) });
            churn_ops.push(Op::Read { addr: kv.word_addr(k, 1), expect: Some(w1val(k)) });
        }
    }
    w.set(1, churn_ops);
    w
}

fn run(capacity_bytes: usize) -> tt_typhoon::RunResult {
    let kv = KvLayout::new(KEYS, 3, NODES);
    let mut cfg = SystemConfig::test_config(NODES);
    cfg.stache_capacity_bytes = capacity_bytes;
    let mut m = TyphoonMachine::new(
        cfg.clone(),
        Box::new(churn_workload(&kv)),
        &|id: NodeId, layout: &_, cfg: &_| Box::new(StacheProtocol::new(id, layout, cfg)),
    );
    m.run()
}

#[test]
fn eviction_under_churn_refetches_correct_values() {
    let tight = run(2 * 4096);
    let roomy = run(usize::MAX);

    // The tight budget must actually churn: pages evicted, dirty ones
    // written back, and evicted pages pulled again on later passes.
    let replacements = tight.report.get("stache.replacements").unwrap();
    let writebacks = tight.report.get("stache.writebacks_sent").unwrap();
    assert!(replacements > 0.0, "no evictions despite a 2-page budget");
    assert!(writebacks > 0.0, "dirty evictions must write back");
    let tight_pf = tight.report.get("stache.page_faults").unwrap();
    let roomy_pf = roomy.report.get("stache.page_faults").unwrap();
    assert!(tight_pf > roomy_pf, "churn must refetch pages: {tight_pf} vs {roomy_pf} faults");

    // An unbounded budget faults each remote page exactly once and
    // never replaces anything.
    assert_eq!(roomy.report.get("stache.replacements"), Some(0.0));

    // Both budgets ran with verify_values on, so every Read above
    // already checked that refetched words survived the writeback
    // round-trip. Cycle counts may differ; correctness may not.
    assert!(tight.cycles > roomy.cycles, "churn should cost cycles");
}
