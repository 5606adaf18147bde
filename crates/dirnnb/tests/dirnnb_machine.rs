//! End-to-end tests of the DirNNB baseline machine: Table 2 cost
//! composition, invalidation rounds, ownership recall, and determinism.

use tt_base::addr::{VAddr, PAGE_BYTES};
use tt_base::workload::{Layout, Op, Placement, Region, ScriptWorkload, SHARED_SEGMENT_BASE};
use tt_base::{Cycles, NodeId, SystemConfig};
use tt_dirnnb::DirnnbMachine;

fn layout_pages(pages: usize, placement: Placement) -> Layout {
    let mut l = Layout::new();
    l.add(Region {
        base: VAddr::new(SHARED_SEGMENT_BASE),
        bytes: pages * PAGE_BYTES,
        placement,
        mode: 0,
    });
    l
}

fn va(off: u64) -> VAddr {
    VAddr::new(SHARED_SEGMENT_BASE + off)
}

fn run(w: ScriptWorkload, nodes: usize) -> tt_dirnnb::RunResult {
    // These tests assert specific home-node behavior, so pin the machine
    // to the layout's owner placement.
    let mut cfg = SystemConfig::test_config(nodes);
    cfg.placement = tt_base::config::DirPlacement::Owner;
    DirnnbMachine::new(cfg, Box::new(w)).run()
}

#[test]
fn local_miss_charges_table_2() {
    // A single local read on the home node: 1 (op) + 25 (TLB) + 29 (local
    // miss) = 55 cycles.
    let layout = layout_pages(1, Placement::PerPage(vec![NodeId::new(0)]));
    let mut w = ScriptWorkload::new(1).with_layout(layout);
    w.set(0, vec![Op::Read { addr: va(0), expect: Some(0) }]);
    let r = run(w, 1);
    assert_eq!(r.cycles, Cycles::new(55));
    assert_eq!(r.report.get("cpu.local_misses"), Some(1.0));
}

#[test]
fn remote_clean_read_costs_compose() {
    // Remote read of an uncached block:
    //   1 + 25 (TLB) + 23 (request) + 11 (net) + 16 (dir) + 5 (msg)
    //   + 11 (block send) + 11 (net) + 34 (finish) = 137
    //   (the access completes when the grant arrives; there is no retry).
    let layout = layout_pages(1, Placement::PerPage(vec![NodeId::new(0)]));
    let mut w = ScriptWorkload::new(2).with_layout(layout);
    w.set(0, vec![]);
    w.set(1, vec![Op::Read { addr: va(0), expect: Some(0) }]);
    let r = run(w, 2);
    assert_eq!(r.report.get("cpu.remote_misses"), Some(1.0));
    // Node 1's finish time is exactly the composition above.
    assert_eq!(r.cycles, Cycles::new(137));
}

#[test]
fn producer_consumer_values_flow() {
    let layout = layout_pages(1, Placement::PerPage(vec![NodeId::new(0)]));
    let mut w = ScriptWorkload::new(2).with_layout(layout);
    w.set(0, vec![Op::Write { addr: va(0), value: 42 }, Op::Barrier]);
    w.set(
        1,
        vec![
            Op::Barrier,
            Op::Read { addr: va(0), expect: Some(42) },
            Op::Read { addr: va(0), expect: Some(42) }, // hit
        ],
    );
    let r = run(w, 2);
    // The home held the block exclusive; the remote read recalled it.
    assert_eq!(r.report.get("dir.recalls"), Some(1.0));
}

#[test]
fn write_invalidates_sharers_and_collects_acks() {
    let nodes = 5;
    let layout = layout_pages(1, Placement::PerPage(vec![NodeId::new(0)]));
    let mut w = ScriptWorkload::new(nodes).with_layout(layout);
    w.set(0, vec![Op::Barrier, Op::Write { addr: va(0), value: 9 }, Op::Barrier]);
    for n in 1..nodes {
        w.set(
            n,
            vec![
                Op::Read { addr: va(0), expect: Some(0) },
                Op::Barrier,
                Op::Barrier,
                Op::Read { addr: va(0), expect: Some(9) },
            ],
        );
    }
    let r = run(w, nodes);
    assert_eq!(r.report.get("dir.invalidations"), Some(4.0));
    // After invalidation, all four readers re-miss.
    assert!(r.report.get("cpu.remote_misses").unwrap() >= 8.0);
}

#[test]
fn ownership_migrates_with_recalls() {
    let layout = layout_pages(1, Placement::PerPage(vec![NodeId::new(0)]));
    let mut w = ScriptWorkload::new(3).with_layout(layout);
    w.set(0, vec![Op::Barrier; 2]);
    w.set(
        1,
        vec![
            Op::Write { addr: va(0), value: 1 },
            Op::Barrier,
            Op::Barrier,
            Op::Read { addr: va(0), expect: Some(2) },
        ],
    );
    w.set(
        2,
        vec![
            Op::Barrier,
            Op::Read { addr: va(0), expect: Some(1) },
            Op::Write { addr: va(0), value: 2 },
            Op::Barrier,
        ],
    );
    let r = run(w, 3);
    assert!(r.report.get("dir.recalls").unwrap() >= 2.0);
}

#[test]
fn upgrade_from_shared_is_distinct_from_write_miss() {
    // Node 1 reads (shared copy), then writes: that second access is an
    // upgrade, not a full miss.
    let layout = layout_pages(1, Placement::PerPage(vec![NodeId::new(0)]));
    let mut w = ScriptWorkload::new(2).with_layout(layout);
    w.set(0, vec![Op::Barrier]);
    w.set(
        1,
        vec![
            Op::Read { addr: va(0), expect: Some(0) },
            Op::Write { addr: va(0), value: 3 },
            Op::Barrier,
        ],
    );
    let r = run(w, 2);
    assert_eq!(r.report.get("cpu.upgrades"), Some(1.0));
}

#[test]
fn dirty_eviction_notifies_home() {
    // Node 1 writes enough distinct blocks mapping to one cache set to
    // force dirty evictions; the home directory must return to Uncached
    // so a later read by node 0 is not a recall.
    let layout = layout_pages(32, Placement::PerPage(vec![NodeId::new(0); 32]));
    let mut w = ScriptWorkload::new(2).with_layout(layout);
    // 4 KB cache, 4-way, 32 sets: blocks with stride 32*32 bytes = 1024
    // share a set. Write 8 of them.
    let mut ops = Vec::new();
    for i in 0..8u64 {
        ops.push(Op::Write { addr: va(i * 32 * 32), value: i });
    }
    ops.push(Op::Barrier);
    w.set(1, ops);
    let mut ops0 = vec![Op::Barrier];
    for i in 0..8u64 {
        ops0.push(Op::Read { addr: va(i * 32 * 32), expect: Some(i) });
    }
    w.set(0, ops0);
    let r = run(w, 2);
    assert!(r.report.get("dir.writebacks").unwrap() >= 4.0);
}

#[test]
fn racing_writers_serialize_through_the_directory() {
    // All nodes hammer the same block with no barriers: the directory's
    // busy/queue machinery must serialize them without deadlock.
    let nodes = 4;
    let layout = layout_pages(1, Placement::PerPage(vec![NodeId::new(0)]));
    let mut w = ScriptWorkload::new(nodes).with_layout(layout);
    for n in 0..nodes {
        let mut ops = Vec::new();
        for i in 0..20u64 {
            ops.push(Op::Write { addr: va(0), value: (n as u64) << 32 | i });
            ops.push(Op::Read { addr: va(0), expect: None });
        }
        w.set(n, ops);
    }
    let mut cfg = SystemConfig::test_config(nodes);
    cfg.placement = tt_base::config::DirPlacement::Owner;
    cfg.verify_values = false; // racy by construction
    let r = DirnnbMachine::new(cfg, Box::new(w)).run();
    assert!(r.report.get("dir.deferred").unwrap() > 0.0);
    assert!(r.report.get("dir.recalls").unwrap() >= 3.0);
    // Every write completed: 4 nodes x 20 writes.
    assert_eq!(r.report.get("cpu.writes"), Some(80.0));
}

#[test]
fn dirnnb_is_deterministic() {
    let build = || {
        let layout = layout_pages(2, Placement::Cyclic);
        let mut w = ScriptWorkload::new(2).with_layout(layout);
        for n in 0..2u64 {
            let mut ops = Vec::new();
            for i in 0..64 {
                ops.push(Op::Write { addr: va(n * PAGE_BYTES as u64 + i * 8), value: i });
            }
            ops.push(Op::Barrier);
            for i in 0..64 {
                ops.push(Op::Read {
                    addr: va((1 - n) * PAGE_BYTES as u64 + i * 8),
                    expect: Some(i),
                });
            }
            w.set(n as usize, ops);
        }
        run(w, 2).cycles
    };
    assert_eq!(build(), build());
}
