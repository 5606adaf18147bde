//! Microbenchmarks of the simulator substrate and the user-level
//! shared-memory hot paths: the §5.1 claims about handler invocation
//! live here (miss path, message round trip), plus raw engine
//! throughput. Uses the internal `tt_bench::harness` (criterion is
//! unavailable offline).
//!
//! Run with `cargo bench --bench microbench [-- <filter>]`.

use std::hint::black_box;

use tt_base::addr::PAGE_BYTES;
use tt_base::workload::{Layout, Op, Placement, Region, ScriptWorkload, SHARED_SEGMENT_BASE};
use tt_base::{Cycles, DetRng, NodeId, SystemConfig, VAddr};
use tt_bench::harness::Runner;
use tt_mem::{AccessKind, CacheModel, FifoTlb, NodeMemory, PageTable, Tag};
use tt_sim::EventQueue;
use tt_stache::StacheProtocol;
use tt_typhoon::cpu::{exec_access, AccessOutcome, CpuState};
use tt_typhoon::np::NpState;
use tt_typhoon::TyphoonMachine;

/// A single self-rescheduling chain: the event queue's front-slot fast
/// path should make this nearly heap-free.
fn bench_event_queue_chain(r: &Runner) {
    r.bench("sim/event_queue_chain_10k", || {
        let mut q = EventQueue::new(1, Cycles::new(11), |_| 0u64);
        q.set_origin(0);
        q.schedule(Cycles::ZERO, 10_000u64);
        let mut acc = 0u64;
        while let Some((now, ev)) = q.pop() {
            acc = acc.wrapping_add(ev);
            if ev > 0 {
                q.schedule(now + Cycles::new(3), ev - 1);
            }
        }
        black_box(acc)
    });
}

/// Heap churn with many interleaved nodes: schedule/pop with 32
/// outstanding events at staggered times, each rescheduled by the node
/// it targets — the pattern a full-machine simulation produces.
/// Exercises the slow (heap) path.
fn bench_event_queue_churn(r: &Runner) {
    r.bench("sim/event_queue_schedule_pop_churn_32", || {
        let mut q = EventQueue::new(32, Cycles::new(11), |_| 0usize);
        let mut rng = DetRng::new(11);
        for node in 0..32usize {
            q.set_origin(node);
            q.schedule(Cycles::new(node as u64 % 7), node);
        }
        let mut acc = 0u64;
        for _ in 0..20_000 {
            let (now, node) = q.pop().expect("queue never drains");
            acc = acc.wrapping_add(node as u64);
            q.set_origin(node);
            q.schedule(now + Cycles::new(1 + rng.below(13)), node);
        }
        while q.pop().is_some() {}
        black_box(acc)
    });
}

/// The Typhoon shape of the same churn: 128-byte events (a `Deliver`
/// event carries its packet payload inline) with 512 outstanding, eight
/// per node on 64 nodes. Measures what a sift costs when the heap holds
/// small records and the events wait in the queue's slab.
fn bench_event_queue_churn_fat(r: &Runner) {
    r.bench("sim/event_queue_churn_fat_512", || {
        let mut q = EventQueue::new(64, Cycles::new(11), |_| [0u64; 16]);
        let mut rng = DetRng::new(11);
        for i in 0..512u64 {
            let node = (i % 64) as usize;
            q.set_origin(node);
            q.schedule(Cycles::new(i % 13), [i; 16]);
        }
        let mut acc = 0u64;
        for _ in 0..20_000 {
            let (now, ev) = q.pop().expect("queue never drains");
            acc = acc.wrapping_add(ev[15]);
            q.set_origin((ev[0] % 64) as usize);
            q.schedule(now + Cycles::new(1 + rng.below(64)), ev);
        }
        while q.pop().is_some() {}
        black_box(acc)
    });
}

fn bench_cache_model(r: &Runner) {
    r.bench("mem/cache_probe_fill_sweep", || {
        let mut cache = CacheModel::new(64 * 1024, 4, 32, DetRng::new(1));
        let mut hits = 0u64;
        for i in 0..16_384u64 {
            let key = (i * 7) % 4096;
            if cache.probe(key).is_hit() {
                hits += 1;
            } else {
                cache.fill(key, i % 2 == 0);
            }
        }
        black_box(hits)
    });
    r.bench("mem/tlb_fifo_sweep", || {
        let mut tlb = FifoTlb::new(64);
        let mut hits = 0u64;
        for i in 0..8_192u64 {
            if tlb.access(tt_base::addr::Vpn(i % 96)) {
                hits += 1;
            }
        }
        black_box(hits)
    });
}

/// The `exec_access` cache-hit path: after one fill, every access hits
/// the CPU cache and should cost a handful of nanoseconds — this is the
/// per-op floor of the whole simulation.
fn bench_exec_access_hit(r: &Runner) {
    r.bench("typhoon/exec_access_cache_hit", || {
        let cfg = SystemConfig::test_config(2);
        let mut cpu = CpuState::new(NodeId::new(0), &cfg, DetRng::new(1));
        let mut np = NpState::new(DetRng::new(2));
        let mut mem = NodeMemory::new();
        let mut pt = PageTable::new();
        let ppn = mem.alloc();
        pt.map(tt_base::addr::Vpn(0x10000), ppn).unwrap();
        mem.frame_mut(ppn).set_all_tags(Tag::ReadWrite);
        let addr = VAddr::new(0x10000 * PAGE_BYTES as u64);
        // Prime: TLB, RTLB, and cache fill.
        exec_access(&cfg, &mut cpu, &mut np, &mut mem, &pt, addr, AccessKind::Load, 0);
        let mut acc = 0u64;
        for _ in 0..16_384 {
            match exec_access(&cfg, &mut cpu, &mut np, &mut mem, &pt, addr, AccessKind::Load, 0) {
                AccessOutcome::Done { cost, .. } => acc = acc.wrapping_add(cost.raw()),
                other => panic!("expected hit, got {other:?}"),
            }
        }
        black_box(acc)
    });
}

/// A hit-run-heavy Typhoon workload (one node streaming loads over its
/// own pages) with the direct-execution bypass on vs. off: the "on"
/// variant executes whole runs of hits inline in one handler invocation,
/// the "off" variant round-trips every quantum through the event heap.
/// Cycle counts are identical; only host time differs.
fn bench_hit_run_direct_vs_scheduled(r: &Runner) {
    let build = || {
        let mut layout = Layout::new();
        layout.add(Region {
            base: VAddr::new(SHARED_SEGMENT_BASE),
            bytes: 4 * PAGE_BYTES,
            placement: Placement::PerPage(vec![NodeId::new(0); 4]),
            mode: 0,
        });
        let mut w = ScriptWorkload::new(2).with_layout(layout);
        let ops: Vec<Op> = (0..16_384u64)
            .map(|i| Op::Read {
                addr: VAddr::new(SHARED_SEGMENT_BASE + (i % 512) * 8),
                expect: None,
            })
            .collect();
        w.set(0, ops);
        w.set(1, Vec::new());
        w
    };
    for (name, direct) in
        [("typhoon/hit_run_direct_on", true), ("typhoon/hit_run_scheduled_off", false)]
    {
        r.bench(name, || {
            let mut cfg = SystemConfig::test_config(2);
            cfg.direct_execution = direct;
            let mut m = TyphoonMachine::new(cfg, Box::new(build()), &|id, layout, cfg| {
                Box::new(StacheProtocol::new(id, layout, cfg))
            });
            black_box(m.run().cycles.raw())
        });
    }
}

/// Tag validation, packed 2-bit words vs. a one-byte-per-block array —
/// the check the inline run loop performs per access.
fn bench_tag_check_packed_vs_byte(r: &Runner) {
    use tt_mem::tags::PackedTags;
    const BLOCKS: usize = tt_base::addr::BLOCKS_PER_PAGE;
    r.bench("mem/tag_check_packed", || {
        let mut tags = PackedTags::default();
        tags.set_all(Tag::ReadOnly);
        tags.set(17, Tag::ReadWrite);
        let mut ok = 0u64;
        for i in 0..64 * BLOCKS {
            if tags.get(i % BLOCKS).permits(AccessKind::Load) {
                ok += 1;
            }
        }
        black_box(ok)
    });
    r.bench("mem/tag_check_byte_array", || {
        let mut tags = [Tag::ReadOnly; BLOCKS];
        tags[17] = Tag::ReadWrite;
        let mut ok = 0u64;
        for i in 0..64 * BLOCKS {
            if black_box(&tags)[i % BLOCKS].permits(AccessKind::Load) {
                ok += 1;
            }
        }
        black_box(ok)
    });
}

/// Payload construction on the message hot path. The payload used to
/// carry `Vec<u64>` words and a `Vec<u8>` data block — two heap
/// allocations per message; it is now a fixed inline array, so building
/// one allocates nothing. The bench measures both time and (via the
/// harness's counting allocator) allocations per message, printed once
/// after the timing line.
fn bench_payload_inline(r: &Runner) {
    use tt_net::Payload;
    let block = [0xA5u8; 32];
    let build_10k = || {
        let mut acc = 0u64;
        for i in 0..10_000u64 {
            let p = Payload::with_block(&[i, i ^ 7], block);
            acc = acc.wrapping_add(p.words()[0]).wrapping_add(p.data()[0] as u64);
        }
        black_box(acc)
    };
    if r.bench("payload/with_block_32B_10k", build_10k).is_some() {
        // One-shot allocation census outside the timed loop, only when
        // the filter selected this bench.
        let before = tt_base::alloc_stats::alloc_count();
        build_10k();
        let per_msg = (tt_base::alloc_stats::alloc_count() - before) as f64 / 10_000.0;
        eprintln!("  payload/with_block_32B: {per_msg:.4} allocations per message");
    }
}

/// The routing layer alone: a fixed, seeded mix of cross-node packets
/// (uniform random pairs, header-only to full-block wire sizes, one
/// injection per cycle) routed over a 256-node mesh through
/// `Network::transmit`, the path both machines send on. The network is warmed
/// with one pass of the mix, so the timed passes route over link queues
/// that already exist, as a long run does. Prints ns per packet beside
/// the harness's ns per pass of the mix.
fn bench_mesh_route(r: &Runner) {
    use tt_base::Topology;
    use tt_net::Network;
    const NODES: usize = 256;
    const PACKETS: usize = 16_384;
    let mut rng = DetRng::new(0x3E5);
    let mix: Vec<(NodeId, NodeId, usize)> = (0..PACKETS)
        .map(|_| {
            let src = rng.below_usize(NODES);
            let dst = (src + 1 + rng.below_usize(NODES - 1)) % NODES;
            let wire = [12, 20, 44, 76][rng.below_usize(4)];
            (NodeId::new(src as u16), NodeId::new(dst as u16), wire)
        })
        .collect();
    let mut net = Network::new(NODES, Cycles::new(11));
    net.set_topology(Topology::Mesh2D { width: 0 });
    let mut now = 0u64;
    let mut pass = move || {
        let mut acc = 0u64;
        for &(src, dst, wire) in &mix {
            now += 1;
            for t in net.transmit(Cycles::new(now), src, dst, wire).iter() {
                acc = acc.wrapping_add(t.raw());
            }
        }
        acc
    };
    black_box(pass());
    if let Some(ns) = r.bench("net/mesh_route_256_16k_packets", pass) {
        println!("  net/mesh_route_256: {:.1} ns/packet", ns / PACKETS as f64);
    }
}

/// One remote Stache miss, end to end: page fault, block fault, request,
/// home handler, reply handler, resume, retry — the §5.1 critical path.
fn bench_stache_miss_path(r: &Runner) {
    r.bench("stache/remote_miss_round_trip", || {
        let mut layout = Layout::new();
        layout.add(Region {
            base: VAddr::new(SHARED_SEGMENT_BASE),
            bytes: PAGE_BYTES,
            placement: Placement::PerPage(vec![NodeId::new(0)]),
            mode: 0,
        });
        let mut w = ScriptWorkload::new(2).with_layout(layout);
        w.set(0, vec![Op::Barrier]);
        w.set(
            1,
            vec![Op::Barrier, Op::Read { addr: VAddr::new(SHARED_SEGMENT_BASE), expect: None }],
        );
        let mut m =
            TyphoonMachine::new(SystemConfig::test_config(2), Box::new(w), &|id, layout, cfg| {
                Box::new(StacheProtocol::new(id, layout, cfg))
            });
        black_box(m.run().cycles.raw())
    });
}

fn main() {
    let r = Runner::from_args();
    bench_event_queue_chain(&r);
    bench_event_queue_churn(&r);
    bench_event_queue_churn_fat(&r);
    bench_cache_model(&r);
    bench_exec_access_hit(&r);
    bench_hit_run_direct_vs_scheduled(&r);
    bench_tag_check_packed_vs_byte(&r);
    bench_payload_inline(&r);
    bench_mesh_route(&r);
    bench_stache_miss_path(&r);
}
