//! Randomized property tests: random programs and reference models for
//! the core data structures and, most importantly, an end-to-end
//! coherence oracle — random race-free phase-structured programs must
//! observe sequentially consistent values on both machines.
//!
//! Cases are generated from [`DetRng`] with fixed seeds (the container
//! has no network access to crates.io, so the original `proptest`
//! dependency was replaced with explicit deterministic case loops —
//! same properties, reproducible by construction).

use tempest_typhoon::base::addr::{Ppn, VAddr, BLOCK_BYTES, PAGE_BYTES, WORD_BYTES};
use tempest_typhoon::base::workload::{
    Layout, Op, Placement, Region, ScriptWorkload, SHARED_SEGMENT_BASE,
};
use tempest_typhoon::base::{Cycles, DetRng, FxHashMap, NodeId, SystemConfig, Topology};
use tempest_typhoon::dirnnb::DirnnbMachine;
use tempest_typhoon::mem::cache::Probe;
use tempest_typhoon::mem::dir::Directory;
use tempest_typhoon::mem::{CacheModel, FifoTlb, NodeMemory};
use tempest_typhoon::net::{Network, ARG_WORD_BYTES, HOP_LATENCY};
use tempest_typhoon::sim::EventQueue;
use tempest_typhoon::stache::StacheProtocol;
use tempest_typhoon::typhoon::TyphoonMachine;

// --- Reference-model properties ---------------------------------------

/// The cache never holds more lines than its capacity, never reports
/// a hit for a block that was not filled (or was invalidated), and
/// ownership state round-trips.
#[test]
fn cache_model_matches_reference() {
    for case in 0..64u64 {
        let mut rng = DetRng::new(0xCAC4E ^ case);
        let mut cache = CacheModel::new(1024, 2, 32, DetRng::new(7)); // 16 sets x 2
        let mut reference: std::collections::HashMap<u64, bool> = Default::default();
        let n_ops = 1 + rng.below_usize(399);
        for _ in 0..n_ops {
            let block = rng.below(64);
            match rng.below(4) {
                0 => {
                    // probe: a reference-absent block must miss; a hit
                    // must agree on ownership.
                    match cache.probe(block) {
                        Probe::Miss => {}
                        Probe::HitOwned => assert_eq!(reference.get(&block), Some(&true)),
                        Probe::HitShared => assert_eq!(reference.get(&block), Some(&false)),
                    }
                }
                1 => {
                    if cache.peek(block) == Probe::Miss {
                        if let Some(ev) = cache.fill(block, block.is_multiple_of(2)) {
                            reference.remove(&ev.block);
                        }
                        reference.insert(block, block.is_multiple_of(2));
                    }
                }
                2 => {
                    // Invalidation removes the block wherever it was;
                    // the reference follows suit either way.
                    cache.invalidate(block);
                    reference.remove(&block);
                }
                _ => {
                    if cache.set_owned(block, true) {
                        reference.insert(block, true);
                    }
                }
            }
            // The reference holds exactly the resident lines.
            assert!(reference.len() <= 32, "more lines than capacity");
            for b in 0..64 {
                let expect = match reference.get(&b) {
                    None => Probe::Miss,
                    Some(true) => Probe::HitOwned,
                    Some(false) => Probe::HitShared,
                };
                assert_eq!(cache.peek(b), expect, "block {b}");
            }
        }
    }
}

/// FIFO TLB: never exceeds capacity; an entry is resident iff it is
/// among the last `cap` distinct insertions (with FIFO, re-access
/// does not refresh position).
#[test]
fn fifo_tlb_matches_reference() {
    use tempest_typhoon::base::addr::Vpn;
    for case in 0..64u64 {
        let mut rng = DetRng::new(0x71B ^ (case << 8));
        let cap = 4;
        let mut tlb = FifoTlb::new(cap);
        let mut fifo: Vec<u64> = Vec::new();
        let n_keys = 1 + rng.below_usize(199);
        for _ in 0..n_keys {
            let k = rng.below(20);
            let expect_hit = fifo.contains(&k);
            let hit = tlb.access(Vpn(k));
            assert_eq!(hit, expect_hit);
            if !expect_hit {
                if fifo.len() == cap {
                    fifo.remove(0);
                }
                fifo.push(k);
            }
            for page in 0..20 {
                let resident = tlb.clone().flush(Vpn(page));
                assert_eq!(resident, fifo.contains(&page), "page {page}");
            }
        }
    }
}

/// The shared coherence directory's sharer set agrees with a reference
/// list through arbitrary add/clear sequences (the only ways either
/// protocol changes a sharer set), including across the inline/bit-vector
/// overflow. Enumeration order is asserted exactly, since it is the
/// invalidation fan-out order: insertion order up to six sharers,
/// ascending from the seventh on.
#[test]
fn sharer_set_matches_reference() {
    let addr = 0x40u64;
    for case in 0..64u64 {
        let mut rng = DetRng::new(0x54A2E2 ^ (case << 4));
        let mut dir: Directory<()> = Directory::new(64);
        let mut reference: Vec<NodeId> = Vec::new();
        let n_ops = 1 + rng.below_usize(199);
        for _ in 0..n_ops {
            let node = rng.below(64) as u16;
            let n = NodeId::new(node);
            if rng.chance(0.9) {
                let fresh = !reference.contains(&n);
                if fresh {
                    reference.push(n);
                }
                let overflowed = dir.add_sharer(addr, n);
                assert_eq!(overflowed, fresh && reference.len() == 7);
            } else {
                dir.set_uncached(addr);
                reference.clear();
            }
            let mut expect = reference.clone();
            if expect.len() > 6 {
                expect.sort();
            }
            assert_eq!(dir.sharers(addr), expect);
        }
    }
}

/// Sparse page frames read exactly like dense zeroed pages: random
/// word and block writes (zero values, all-zero blocks and overwrites
/// back to zero among them), reads, and free-then-alloc reuse agree
/// byte for byte with a dense `[u8; PAGE_BYTES]` model per frame.
#[test]
fn sparse_frames_match_dense_model() {
    for case in 0..64u64 {
        let mut rng = DetRng::new(0x5FA4E ^ (case << 8));
        let mut mem = NodeMemory::new();
        let mut model: Vec<(Ppn, Box<[u8; PAGE_BYTES]>)> =
            (0..3).map(|_| (mem.alloc(), Box::new([0; PAGE_BYTES]))).collect();
        let n_ops = 1 + rng.below_usize(599);
        for _ in 0..n_ops {
            let f = rng.below_usize(model.len());
            let (ppn, dense) = &mut model[f];
            // Few blocks, so writes often land on stored blocks.
            let block = rng.below_usize(8) * 16 + rng.below_usize(2);
            let off = block * BLOCK_BYTES + rng.below_usize(BLOCK_BYTES / WORD_BYTES) * WORD_BYTES;
            let addr = ppn.base().offset(off as u64);
            let value = match rng.below(3) {
                0 => 0,
                1 => rng.below(4),
                _ => rng.next_u64(),
            };
            match rng.below(6) {
                0 => {
                    mem.write_word(addr, value);
                    dense[off..off + WORD_BYTES].copy_from_slice(&value.to_le_bytes());
                }
                1 => {
                    let mut data = [0u8; BLOCK_BYTES];
                    if rng.chance(0.5) {
                        data[rng.below_usize(BLOCK_BYTES)] = value as u8;
                    }
                    mem.write_block(addr, &data);
                    let base = block * BLOCK_BYTES;
                    dense[base..base + BLOCK_BYTES].copy_from_slice(&data);
                }
                2 => {
                    let want = u64::from_le_bytes(dense[off..off + WORD_BYTES].try_into().unwrap());
                    assert_eq!(mem.read_word(addr), want, "case {case} word {off:#x}");
                }
                3 => {
                    let base = block * BLOCK_BYTES;
                    assert_eq!(
                        mem.read_block(addr),
                        dense[base..base + BLOCK_BYTES],
                        "case {case}"
                    );
                }
                4 if rng.chance(0.1) => {
                    mem.free(*ppn);
                    *ppn = mem.alloc();
                    **dense = [0; PAGE_BYTES];
                }
                _ => {}
            }
        }
        for (ppn, dense) in &model {
            for (b, want) in dense.chunks_exact(BLOCK_BYTES).enumerate() {
                assert_eq!(mem.read_block(ppn.base().offset((b * BLOCK_BYTES) as u64)), want);
            }
        }
    }
}

/// The routed mesh's link queues as a hash map keyed `(source, link id)`,
/// link ids `node * 4 + direction` along the dimension-order (X then Y)
/// route: the reference the network's downstream-indexed slabs must
/// reproduce arrival for arrival.
struct MeshReference {
    width: usize,
    link_free: FxHashMap<(usize, usize), u64>,
}

impl MeshReference {
    fn route_links(&self, src: usize, dst: usize) -> Vec<usize> {
        let width = self.width;
        let (mut x, mut y) = (src % width, src / width);
        let (tx, ty) = (dst % width, dst / width);
        let mut links = Vec::new();
        while x != tx {
            links.push((y * width + x) * 4 + if tx > x { 0 } else { 1 });
            x = if tx > x { x + 1 } else { x - 1 };
        }
        while y != ty {
            links.push((y * width + x) * 4 + if ty > y { 2 } else { 3 });
            y = if ty > y { y + 1 } else { y - 1 };
        }
        links
    }

    fn deliver(&mut self, now: u64, src: usize, dst: usize, wire: usize) -> u64 {
        if src == dst {
            return now + 1;
        }
        let ser = wire.div_ceil(ARG_WORD_BYTES).max(1) as u64;
        let mut cursor = now;
        for link in self.route_links(src, dst) {
            let free = self.link_free.entry((src, link)).or_insert(0);
            let start = cursor.max(*free);
            *free = start + ser;
            cursor = start + HOP_LATENCY;
        }
        cursor
    }
}

/// Routed delivery matches the keyed reference on square, derived-width
/// meshes with a partial last row (7, 30 nodes), a single column
/// (width 1) and a single partial row (width above the node count).
/// Sends come in bursts at random times, some going back in time, from
/// a few hot sources, so queues build on shared route prefixes in both
/// directions of every axis.
#[test]
fn mesh_link_slabs_match_keyed_reference() {
    let meshes = [(1, 0), (2, 0), (7, 0), (16, 0), (30, 0), (9, 1), (7, 10)];
    for (nodes, width) in meshes {
        let resolved = match width {
            0 => (nodes as f64).sqrt().ceil() as usize,
            w => w,
        };
        for case in 0..16u64 {
            let seed = ((nodes as u64) << 20) ^ ((width as u64) << 12) ^ case;
            let mut rng = DetRng::new(0x3E5 ^ seed);
            let mut net = Network::new(nodes, Cycles::new(11));
            net.set_topology(Topology::Mesh2D { width });
            let mut reference = MeshReference { width: resolved, link_free: FxHashMap::default() };
            let hot: Vec<usize> = (0..3).map(|_| rng.below_usize(nodes)).collect();
            let mut base = 0u64;
            for i in 0..400 {
                base += rng.below(4);
                let now = base.saturating_sub(rng.below(8));
                let src =
                    if rng.chance(0.6) { hot[rng.below_usize(3)] } else { rng.below_usize(nodes) };
                let dst = rng.below_usize(nodes);
                let wire = 4 + rng.below_usize(77);
                let got = net.transmit(
                    Cycles::new(now),
                    NodeId::new(src as u16),
                    NodeId::new(dst as u16),
                    wire,
                );
                assert_eq!(
                    got.iter().map(Cycles::raw).collect::<Vec<_>>(),
                    [reference.deliver(now, src, dst, wire)],
                    "{nodes} nodes, width {width}, case {case}, send {i}: {src} -> {dst} at {now}"
                );
            }
        }
    }
}

/// A 128-byte event, distinct per event id in every word, so an event
/// read from the wrong slab slot cannot pass for the right one.
type FatEvent = [u64; 16];

fn fat_event(id: u64) -> FatEvent {
    std::array::from_fn(|i| id * 16 + i as u64)
}

/// Barrier releases carry ids from here up, one per generation.
const RELEASE_IDS: u64 = 1 << 40;

fn fat_release(generation: u64) -> FatEvent {
    fat_event(RELEASE_IDS + generation)
}

/// One random queue session: `schedule` from many origins with
/// same-cycle ties, reserved-key wakeups, barrier arrivals and pops,
/// with full drains in between so that slab slots are reused. Returns
/// the pops as `(time, event)`. Unsalted, every pop must equal the first
/// entry of a reference ordered by `(time, origin id, per-origin
/// counter)`. The operations never depend on which same-cycle event a
/// pop returned, so a tie-shuffled session issues exactly the same ones.
fn event_queue_session(case: u64, shuffle: Option<u64>) -> Vec<(u64, FatEvent)> {
    const NODES: usize = 6;
    const DELAY: u64 = 3;
    let mut rng = DetRng::new(0xE0E7 ^ (case << 8));
    let mut q = EventQueue::new(NODES, Cycles::new(DELAY), fat_release);
    if let Some(seed) = shuffle {
        q.enable_tie_shuffle(seed);
    }
    // Pending events by (time, origin id, per-origin counter).
    let mut reference = std::collections::BTreeMap::new();
    let mut counters = [0u64; NODES];
    let (mut releases, mut arrived, mut max_arrival) = (0u64, 0usize, 0u64);
    // Each node's last wakeup time: a wakeup earlier than `now` has
    // certainly been popped, so a new one cannot share its key.
    let mut last_wakeup = [None::<u64>; NODES];
    let mut next_id = 0u64;
    let mut pops = Vec::new();
    let mut pop =
        |q: &mut EventQueue<FatEvent>,
         reference: &mut std::collections::BTreeMap<(u64, u64, u64), u64>| {
            let got = q.pop().map(|(t, e)| (t.raw(), e));
            let want = reference.pop_first().map(|((t, _, _), id)| (t, id));
            assert_eq!(got.is_some(), want.is_some(), "case {case}: pending counts differ");
            if let (Some(got), Some((t, id))) = (got, want) {
                if shuffle.is_none() {
                    assert_eq!(got, (t, fat_event(id)), "case {case}: pop {}", pops.len());
                }
                pops.push(got);
            }
        };
    for _round in 0..4 {
        for _ in 0..rng.below_usize(300) {
            let now = q.now().raw();
            let at = now + rng.below(4);
            match rng.below(10) {
                0..=4 => {
                    let node = rng.below_usize(NODES);
                    counters[node] += 1;
                    q.set_origin(node);
                    q.schedule(Cycles::new(at), fat_event(next_id));
                    reference.insert((at, node as u64 + 1, counters[node]), next_id);
                    next_id += 1;
                }
                5 => {
                    let node = rng.below_usize(NODES);
                    if last_wakeup[node].is_none_or(|t| t < now) {
                        last_wakeup[node] = Some(at);
                        q.schedule_wakeup(Cycles::new(at), node, fat_event(next_id));
                        reference.insert((at, node as u64 + 1, 0), next_id);
                        next_id += 1;
                    }
                }
                6 => {
                    q.note_barrier_arrival(Cycles::new(at));
                    arrived += 1;
                    max_arrival = max_arrival.max(at);
                    if arrived == NODES {
                        reference
                            .insert((max_arrival + DELAY, 0, releases + 1), RELEASE_IDS + releases);
                        releases += 1;
                        (arrived, max_arrival) = (0, 0);
                    }
                }
                _ => pop(&mut q, &mut reference),
            }
            assert_eq!(q.releases(), releases);
        }
        while !reference.is_empty() {
            pop(&mut q, &mut reference);
        }
        assert!(q.is_empty(), "case {case}: the queue drains with the reference");
    }
    pops
}

/// The slab-backed event queue delivers exactly the reference order;
/// with tie-shuffle on, it delivers a same-cycle permutation of it that
/// the seed alone determines.
#[test]
fn event_queue_matches_reference() {
    let mut permuted = 0;
    for case in 0..48u64 {
        let unsalted = event_queue_session(case, None);
        let shuffled = event_queue_session(case, Some(case ^ 0x5EED));
        assert_eq!(shuffled, event_queue_session(case, Some(case ^ 0x5EED)), "case {case}");
        assert_eq!(shuffled.len(), unsalted.len());
        // Times are popped in order, so each cycle's events form one
        // contiguous run in both sequences; compare the runs as sets.
        let mut start = 0;
        while start < unsalted.len() {
            let t = unsalted[start].0;
            let end = start + unsalted[start..].iter().take_while(|(u, _)| *u == t).count();
            let mut a: Vec<FatEvent> = unsalted[start..end].iter().map(|p| p.1).collect();
            let mut b: Vec<FatEvent> = shuffled[start..end].iter().map(|p| p.1).collect();
            assert!(shuffled[start..end].iter().all(|p| p.0 == t), "case {case}: cycle {t}");
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "case {case}: cycle {t} is not a permutation");
            start = end;
        }
        permuted += usize::from(shuffled != unsalted);
    }
    assert!(permuted > 40, "tie-shuffle permuted only {permuted} of 48 sessions");
}

// --- End-to-end coherence oracle ---------------------------------------

/// Builds a race-free variant: reads of a word are suppressed in phases
/// where another node writes it.
fn race_free_program(nodes: usize, words: usize, phases: usize, seed: u64) -> ScriptWorkload {
    let mut rng = DetRng::new(seed.wrapping_mul(0x9E37_79B9));
    let pages = 2usize;
    let homes: Vec<NodeId> =
        (0..pages).map(|_| NodeId::new(rng.below(nodes as u64) as u16)).collect();
    let mut layout = Layout::new();
    layout.add(Region {
        base: VAddr::new(SHARED_SEGMENT_BASE),
        bytes: pages * PAGE_BYTES,
        placement: Placement::PerPage(homes),
        mode: 0,
    });
    let addr_of = |w: usize| {
        let page = w % pages;
        let slot = (w / pages) * 40;
        VAddr::new(SHARED_SEGMENT_BASE + (page * PAGE_BYTES + slot) as u64)
    };
    let mut values: Vec<Option<u64>> = vec![None; words];
    let mut scripts: Vec<Vec<Op>> = vec![Vec::new(); nodes];
    for phase in 0..phases {
        let mut writer: Vec<Option<usize>> = vec![None; words];
        for wr in writer.iter_mut() {
            if rng.chance(0.6) {
                *wr = Some(rng.below_usize(nodes));
            }
        }
        let mut read_plan: Vec<Vec<usize>> = vec![Vec::new(); nodes];
        for (n, plan) in read_plan.iter_mut().enumerate() {
            for (w, wr) in writer.iter().enumerate() {
                // Race-free: skip reads of words someone else writes
                // this phase.
                let racy = wr.is_some() && *wr != Some(n);
                if !racy && rng.chance(0.5) {
                    plan.push(w);
                }
            }
        }
        let mut new_values = values.clone();
        for (n, script) in scripts.iter_mut().enumerate() {
            for &w in &read_plan[n] {
                script.push(Op::Read { addr: addr_of(w), expect: values[w].or(Some(0)) });
            }
            for w in 0..words {
                if writer[w] == Some(n) {
                    let v = ((phase as u64) << 32) | ((w as u64) << 8) | n as u64;
                    script.push(Op::Write { addr: addr_of(w), value: v });
                    new_values[w] = Some(v);
                }
            }
            script.push(Op::Compute(1 + (n as u32 * 7) % 23));
            script.push(Op::Barrier);
        }
        values = new_values;
    }
    let mut w = ScriptWorkload::new(nodes).with_layout(layout);
    for (n, script) in scripts.into_iter().enumerate() {
        w.set(n, script);
    }
    w
}

/// Draws the (seed, nodes, words, phases) parameters of one oracle case.
fn oracle_params(rng: &mut DetRng) -> (u64, usize, usize, usize) {
    (rng.below(5_000), 2 + rng.below_usize(4), 2 + rng.below_usize(10), 1 + rng.below_usize(7))
}

/// Random race-free programs observe sequentially consistent values
/// on Typhoon/Stache (verify_values panics otherwise) and terminate.
#[test]
fn stache_is_sequentially_consistent_for_race_free_programs() {
    let mut rng = DetRng::new(0x0C0_FFEE);
    for _ in 0..24 {
        let (seed, nodes, words, phases) = oracle_params(&mut rng);
        let w = race_free_program(nodes, words, phases, seed);
        let cfg = SystemConfig::test_config(nodes);
        let mut m = TyphoonMachine::new(cfg, Box::new(w), &|id, layout, cfg| {
            Box::new(StacheProtocol::new(id, layout, cfg))
        });
        let r = m.run();
        assert!(r.cycles.raw() > 0);
    }
}

/// The same programs on the DirNNB machine.
#[test]
fn dirnnb_is_sequentially_consistent_for_race_free_programs() {
    let mut rng = DetRng::new(0xD14B);
    for _ in 0..24 {
        let (seed, nodes, words, phases) = oracle_params(&mut rng);
        let w = race_free_program(nodes, words, phases, seed);
        let cfg = SystemConfig::test_config(nodes);
        let r = DirnnbMachine::new(cfg, Box::new(w)).run();
        assert!(r.cycles.raw() > 0);
    }
}

/// Both machines run the same program deterministically.
#[test]
fn machines_deterministic_on_random_programs() {
    let mut case_rng = DetRng::new(0xDE7);
    let cfg = SystemConfig::test_config(3);
    for _ in 0..16 {
        let seed = case_rng.below(1_000);
        let run_t = |seed| {
            let w = race_free_program(3, 6, 3, seed);
            TyphoonMachine::new(cfg.clone(), Box::new(w), &|id, layout, cfg| {
                Box::new(StacheProtocol::new(id, layout, cfg))
            })
            .run()
            .cycles
        };
        assert_eq!(run_t(seed), run_t(seed));
        let run_d = |seed| {
            let w = race_free_program(3, 6, 3, seed);
            DirnnbMachine::new(cfg.clone(), Box::new(w)).run().cycles
        };
        assert_eq!(run_d(seed), run_d(seed));
    }
}

/// Sanity check that the race-free generator really generates work.
#[test]
fn race_free_generator_produces_reads_and_writes() {
    let w = race_free_program(4, 8, 5, 42);
    let mut reads = 0;
    let mut writes = 0;
    let mut w2 = w;
    use tempest_typhoon::base::workload::Workload;
    for n in 0..4 {
        if let Some(ops) = w2.next_chunk(NodeId::new(n)) {
            for op in ops {
                match op {
                    Op::Read { .. } => reads += 1,
                    Op::Write { .. } => writes += 1,
                    _ => {}
                }
            }
        }
    }
    assert!(reads > 0, "generator produced no reads");
    assert!(writes > 0, "generator produced no writes");
}

// --- Protocol-level property tests --------------------------------------

use tempest_typhoon::apps::em3d::{Em3d, Em3dParams};
use tempest_typhoon::apps::{PhasedWorkload, SyncMode};
use tempest_typhoon::stache::Em3dUpdateProtocol;

/// The custom EM3D update protocol stays sequentially consistent at
/// phase boundaries for arbitrary graph shapes, remote fractions, and
/// machine sizes — the fuzzy barrier must never let a phase start
/// before its values arrived (verification would fail).
#[test]
fn em3d_update_protocol_is_correct_for_random_graphs() {
    let mut rng = DetRng::new(0xE3D);
    for _ in 0..12 {
        let procs = 2 + rng.below_usize(7);
        let params = Em3dParams {
            graph_nodes: 40 * procs,
            degree: 1 + rng.below_usize(5),
            pct_remote: rng.below(101) as f64 / 100.0,
            iterations: 1 + rng.below_usize(4),
            procs,
            seed: rng.below(10_000),
            sync: SyncMode::Flush,
        };
        let cfg = SystemConfig::test_config(procs);
        let mut m = TyphoonMachine::new(
            cfg,
            Box::new(PhasedWorkload::new(Em3d::new(params))),
            &|id, layout, cfg| Box::new(Em3dUpdateProtocol::new(id, layout, cfg)),
        );
        let r = m.run();
        assert!(r.cycles.raw() > 0);
        // The custom protocol must never fall back to invalidation for
        // the graph-value pages.
        assert_eq!(r.report.get("stache.invals_sent"), Some(0.0));
    }
}
