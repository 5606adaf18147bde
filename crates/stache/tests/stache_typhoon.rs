//! End-to-end tests of Stache running on the Typhoon machine: the full
//! paper stack — CPU bus model, NP dispatch, user-level handlers,
//! software directory, and real data moving in messages.

use tt_base::addr::{VAddr, PAGE_BYTES};
use tt_base::workload::{Layout, Op, Placement, Region, ScriptWorkload, SHARED_SEGMENT_BASE};
use tt_base::{NodeId, SystemConfig};
use tt_stache::StacheProtocol;
use tt_typhoon::TyphoonMachine;

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

fn run_stache(cfg: SystemConfig, w: ScriptWorkload) -> tt_typhoon::RunResult {
    let mut m = TyphoonMachine::new(cfg, Box::new(w), &|id, layout, cfg| {
        Box::new(StacheProtocol::new(id, layout, cfg))
    });
    m.run()
}

#[test]
fn producer_consumer_through_stache() {
    // Node 0 is home (page 0 placed on node 0). Node 1 reads what node 0
    // wrote: remote page fault -> block fault -> GET_RO -> PUT_RO.
    let layout = layout_pages(1, Placement::PerPage(vec![NodeId::new(0)]));
    let mut w = ScriptWorkload::new(2).with_layout(layout);
    w.set(
        0,
        vec![
            Op::Write { addr: va(0), value: 111 },
            Op::Write { addr: va(8), value: 222 },
            Op::Barrier,
        ],
    );
    w.set(
        1,
        vec![
            Op::Barrier,
            Op::Read { addr: va(0), expect: Some(111) },
            Op::Read { addr: va(8), expect: Some(222) },
            // Same block: must now hit locally.
            Op::Read { addr: va(16), expect: Some(0) },
        ],
    );
    let r = run_stache(SystemConfig::test_config(2), w);
    assert_eq!(r.report.get("stache.page_faults"), Some(1.0));
    assert_eq!(r.report.get("stache.ro_requests"), Some(1.0));
    assert_eq!(r.report.get("stache.block_faults"), Some(1.0));
}

#[test]
fn write_invalidates_remote_readers() {
    // Node 1 and node 2 read a block homed on node 0; then node 0 writes
    // it (home fault -> invalidation round); then they read it again and
    // must see the new value (re-fetch).
    let layout = layout_pages(1, Placement::PerPage(vec![NodeId::new(0)]));
    let mut w = ScriptWorkload::new(3).with_layout(layout);
    w.set(
        0,
        vec![
            Op::Write { addr: va(0), value: 1 },
            Op::Barrier,
            Op::Barrier, // readers fetch between these barriers
            Op::Write { addr: va(0), value: 2 },
            Op::Barrier,
        ],
    );
    for n in 1..3 {
        w.set(
            n,
            vec![
                Op::Barrier,
                Op::Read { addr: va(0), expect: Some(1) },
                Op::Barrier,
                Op::Barrier,
                Op::Read { addr: va(0), expect: Some(2) },
            ],
        );
    }
    let r = run_stache(SystemConfig::test_config(3), w);
    // Home write to a 2-sharer block: 2 invalidations.
    assert_eq!(r.report.get("stache.invals_sent"), Some(2.0));
    assert_eq!(r.report.get("stache.home_faults"), Some(1.0));
    // Each reader re-fetched once.
    assert_eq!(r.report.get("stache.ro_requests"), Some(4.0));
}

#[test]
fn remote_writer_gets_exclusive_and_home_recalls() {
    // Node 1 writes a block homed on node 0 (GET_RW; home tag -> Invalid).
    // Then node 0 reads it back: home fault -> recall from node 1.
    let layout = layout_pages(1, Placement::PerPage(vec![NodeId::new(0)]));
    let mut w = ScriptWorkload::new(2).with_layout(layout);
    w.set(0, vec![Op::Barrier, Op::Read { addr: va(64), expect: Some(77) }]);
    w.set(1, vec![Op::Write { addr: va(64), value: 77 }, Op::Barrier]);
    let r = run_stache(SystemConfig::test_config(2), w);
    assert_eq!(r.report.get("stache.rw_requests"), Some(1.0));
    assert_eq!(r.report.get("stache.recalls_sent"), Some(1.0));
}

#[test]
fn ownership_migrates_between_writers() {
    // Two remote nodes alternately increment a counter homed on node 0.
    // Exercises Exclusive -> recall -> Exclusive migration.
    let layout = layout_pages(1, Placement::PerPage(vec![NodeId::new(0)]));
    let mut w = ScriptWorkload::new(3).with_layout(layout);
    w.set(0, vec![Op::Barrier; 4]);
    w.set(
        1,
        vec![
            Op::Write { addr: va(0), value: 10 },
            Op::Barrier,
            Op::Barrier,
            Op::Read { addr: va(0), expect: Some(20) },
            Op::Write { addr: va(0), value: 30 },
            Op::Barrier,
            Op::Barrier,
        ],
    );
    w.set(
        2,
        vec![
            Op::Barrier,
            Op::Read { addr: va(0), expect: Some(10) },
            Op::Write { addr: va(0), value: 20 },
            Op::Barrier,
            Op::Barrier,
            Op::Read { addr: va(0), expect: Some(30) },
            Op::Barrier,
        ],
    );
    let r = run_stache(SystemConfig::test_config(3), w);
    assert!(r.report.get("stache.recalls_sent").unwrap() >= 3.0);
}

#[test]
fn many_sharers_overflow_the_pointer_directory() {
    // Ten nodes read the same home block: the sharer set must overflow
    // six pointers into the bit vector, and a subsequent write must
    // invalidate all ten.
    let nodes = 11;
    let layout = layout_pages(1, Placement::PerPage(vec![NodeId::new(0)]));
    let mut w = ScriptWorkload::new(nodes).with_layout(layout);
    w.set(
        0,
        vec![
            Op::Write { addr: va(0), value: 5 },
            Op::Barrier,
            Op::Barrier,
            Op::Write { addr: va(0), value: 6 },
            Op::Barrier,
        ],
    );
    for n in 1..nodes {
        w.set(
            n,
            vec![
                Op::Barrier,
                Op::Read { addr: va(0), expect: Some(5) },
                Op::Barrier,
                Op::Barrier,
                Op::Read { addr: va(0), expect: Some(6) },
            ],
        );
    }
    let r = run_stache(SystemConfig::test_config(nodes), w);
    // Two overflows: the initial 10-sharer round, then again after the
    // invalidation clears the set and all ten readers re-fetch.
    assert_eq!(r.report.get("stache.sharer_overflows"), Some(2.0));
    assert_eq!(r.report.get("stache.invals_sent"), Some(10.0));
}

#[test]
fn page_replacement_writes_back_dirty_blocks() {
    // Node 1 has a stache budget of 2 pages but touches 4 remote pages,
    // writing one block on each: FIFO replacement must write data back,
    // and a later re-read must still see the values.
    let layout = layout_pages(4, Placement::PerPage(vec![NodeId::new(0); 4]));
    let mut w = ScriptWorkload::new(2).with_layout(layout);
    w.set(0, vec![Op::Barrier]);
    let mut ops = Vec::new();
    for p in 0..4u64 {
        ops.push(Op::Write { addr: va(p * PAGE_BYTES as u64), value: 100 + p });
    }
    // Re-read them: pages 0 and 1 were replaced, so these re-fault and
    // must fetch the written-back data from the home.
    for p in 0..4u64 {
        ops.push(Op::Read { addr: va(p * PAGE_BYTES as u64), expect: Some(100 + p) });
    }
    ops.push(Op::Barrier);
    w.set(1, ops);

    let mut cfg = SystemConfig::test_config(2);
    cfg.stache_capacity_bytes = 2 * PAGE_BYTES;
    let r = run_stache(cfg, w);
    assert!(r.report.get("stache.replacements").unwrap() >= 2.0);
    assert!(r.report.get("stache.writebacks_sent").unwrap() >= 2.0);
}

#[test]
fn cyclic_placement_spreads_homes() {
    // With cyclic placement over 4 nodes, each node writing its own page
    // never faults (it is home); writing the next page always does.
    let layout = layout_pages(4, Placement::Cyclic);
    let mut w = ScriptWorkload::new(4).with_layout(layout);
    for n in 0..4u64 {
        w.set(
            n as usize,
            vec![
                Op::Write { addr: va(n * PAGE_BYTES as u64), value: n },
                Op::Barrier,
                Op::Read { addr: va(((n + 1) % 4) * PAGE_BYTES as u64), expect: Some((n + 1) % 4) },
            ],
        );
    }
    let r = run_stache(SystemConfig::test_config(4), w);
    // 4 remote reads -> 4 page faults + 4 RO requests; 0 RW requests
    // (each writer is home for its own page).
    assert_eq!(r.report.get("stache.page_faults"), Some(4.0));
    assert_eq!(r.report.get("stache.ro_requests"), Some(4.0));
    assert_eq!(r.report.get("stache.rw_requests"), Some(0.0));
}

#[test]
fn false_sharing_ping_pong_is_coherent() {
    // Two nodes write different words of the SAME block homed on a third:
    // pure ownership ping-pong with recalls; final values must be intact.
    let layout = layout_pages(1, Placement::PerPage(vec![NodeId::new(0)]));
    let mut w = ScriptWorkload::new(3).with_layout(layout);
    // Node 0 participates in every round barrier (5 total), then reads.
    let mut ops0 = vec![Op::Barrier; 5];
    ops0.push(Op::Read { addr: va(0), expect: Some(4) });
    ops0.push(Op::Read { addr: va(8), expect: Some(4) });
    w.set(0, ops0);
    // Interleave via barriers: node 1 writes word 0, node 2 writes word 1,
    // alternating increments up to 4.
    let mut ops1 = Vec::new();
    let mut ops2 = Vec::new();
    for round in 0..4u64 {
        if round % 2 == 0 {
            ops1.push(Op::Write { addr: va(0), value: round + 1 });
            ops2.push(Op::Compute(1));
        } else {
            ops2.push(Op::Write { addr: va(8), value: round + 1 });
            ops1.push(Op::Compute(1));
        }
        ops1.push(Op::Barrier);
        ops2.push(Op::Barrier);
    }
    // Final fix-up so both words end at 4.
    ops1.push(Op::Write { addr: va(0), value: 4 });
    ops2.push(Op::Write { addr: va(8), value: 4 });
    ops1.push(Op::Barrier);
    ops2.push(Op::Barrier);
    w.set(1, ops1);
    w.set(2, ops2);
    let r = run_stache(SystemConfig::test_config(3), w);
    assert!(r.report.get("stache.recalls_sent").unwrap() >= 4.0);
}

#[test]
fn stache_run_is_deterministic() {
    let build = || {
        let layout = layout_pages(2, Placement::Cyclic);
        let mut w = ScriptWorkload::new(2).with_layout(layout);
        for n in 0..2u64 {
            let mut ops = Vec::new();
            for i in 0..50 {
                ops.push(Op::Write { addr: va(n * PAGE_BYTES as u64 + i * 8), value: i });
            }
            ops.push(Op::Barrier);
            for i in 0..50 {
                ops.push(Op::Read {
                    addr: va((1 - n) * PAGE_BYTES as u64 + i * 8),
                    expect: Some(i),
                });
            }
            w.set(n as usize, ops);
        }
        run_stache(SystemConfig::test_config(2), w).cycles
    };
    assert_eq!(build(), build());
}

#[test]
fn remote_miss_latency_is_in_the_expected_band() {
    // A single remote read round trip should land within a plausible
    // Table-2 composition: well above a local miss, well below 1000.
    let layout = layout_pages(1, Placement::PerPage(vec![NodeId::new(0)]));
    let mut w = ScriptWorkload::new(2).with_layout(layout);
    w.set(0, vec![Op::Barrier]);
    w.set(1, vec![Op::Barrier, Op::Read { addr: va(0), expect: Some(0) }]);
    let r = run_stache(SystemConfig::test_config(2), w);
    let stall = r.report.get("cpu.fault_stall_cycles").unwrap();
    // Page fault + block fault + full protocol round trip.
    assert!(stall > 100.0, "stall {stall} suspiciously small");
    assert!(stall < 1200.0, "stall {stall} suspiciously large");
}
