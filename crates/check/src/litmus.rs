//! Seed-generated litmus workloads.
//!
//! A litmus case is a small shared-memory program — 2–4 nodes, 1–4
//! blocks spread over 1–2 pages, 1–4 barrier-separated phases — whose
//! entire shape derives from a single `u64` seed via [`DetRng`]. Each
//! phase picks one writer per block (so the data race is always
//! reader-vs-single-writer, which both machines must order); readers
//! issue *racy* reads of the word being written (`expect: None` — any
//! outcome is legal) and *checked* reads of the previous phase's word
//! (`expect: Some(v)` — the barrier made it visible). Every (block,
//! phase) pair writes a distinct word, so each word is written exactly
//! once and the expected final memory image is known statically; the
//! case ends with every node reading the whole image back.

use tt_base::addr::{BLOCK_BYTES, PAGE_BYTES, WORDS_PER_BLOCK, WORD_BYTES};
use tt_base::workload::{
    coalesce_computes, Layout, Op, Placement, Region, ScriptWorkload, SHARED_SEGMENT_BASE,
};
use tt_base::{Cycles, DetRng, NodeId, SystemConfig, VAddr};
use tt_stache::ReliableConfig;

use crate::fuzz::{
    differential, dirnnb_image, dirnnb_leg, stache_factory, typhoon_image, typhoon_leg,
    CaseOutcome, PerturbConfig, ProtocolFactory,
};

/// The shape of a litmus case. Usually derived from a seed with
/// [`LitmusConfig::from_seed`]; the shrinker mutates the fields
/// directly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LitmusConfig {
    /// Seed that generated (or, after shrinking, accompanies) the case.
    pub seed: u64,
    /// Processors (2–4).
    pub nodes: usize,
    /// Shared pages (1–2), round-robin homed.
    pub pages: usize,
    /// Contended blocks (1–4), spread across the pages.
    pub blocks: usize,
    /// Barrier-separated phases (1–4).
    pub phases: usize,
}

impl LitmusConfig {
    /// Derives a case shape from a seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = DetRng::new(seed).fork(1);
        let nodes = 2 + rng.below_usize(3);
        let blocks = 1 + rng.below_usize(4);
        let pages = (1 + rng.below_usize(2)).min(blocks);
        let phases = 1 + rng.below_usize(4);
        LitmusConfig { seed, nodes, pages, blocks, phases }
    }
}

/// A generated litmus case: layout, per-node op scripts, the block
/// addresses the invariant engine should watch, and the expected final
/// value of every written word.
pub struct Litmus {
    /// The shape this case was generated from.
    pub cfg: LitmusConfig,
    /// Shared-segment layout (one region per page).
    pub layout: Layout,
    /// Per-node op scripts (index = node).
    pub scripts: Vec<Vec<Op>>,
    /// Base address of every contended block.
    pub blocks: Vec<VAddr>,
    /// Expected final value of every word any phase wrote.
    pub finals: Vec<(VAddr, u64)>,
}

impl Litmus {
    /// Generates the case for `cfg`. Deterministic: the same config
    /// always yields the same scripts.
    pub fn generate(cfg: &LitmusConfig) -> Litmus {
        let mut rng = DetRng::new(cfg.seed).fork(2);

        let mut layout = Layout::new();
        for p in 0..cfg.pages {
            layout.add(Region {
                base: VAddr::new(SHARED_SEGMENT_BASE + (p * PAGE_BYTES) as u64),
                bytes: PAGE_BYTES,
                placement: Placement::PerPage(vec![NodeId::new((p % cfg.nodes) as u16)]),
                mode: 0,
            });
        }

        // Spread blocks across the pages at distinct slots; the random
        // offset rotates which slots (including the last block of a
        // frame) get exercised.
        let blocks_per_page = PAGE_BYTES / BLOCK_BYTES;
        let slot_offset = rng.below_usize(blocks_per_page);
        let blocks: Vec<VAddr> = (0..cfg.blocks)
            .map(|b| {
                let page = b % cfg.pages;
                let slot = (slot_offset + (b / cfg.pages) * 43) % blocks_per_page;
                VAddr::new(
                    SHARED_SEGMENT_BASE + (page * PAGE_BYTES) as u64 + (slot * BLOCK_BYTES) as u64,
                )
            })
            .collect();

        let mut scripts: Vec<Vec<Op>> = vec![Vec::new(); cfg.nodes];
        let mut finals: Vec<(VAddr, u64)> = Vec::new();
        let mut prev_write: Vec<Option<(VAddr, u64)>> = vec![None; cfg.blocks];
        let mut next_val: u64 = 1;

        for phase in 0..cfg.phases {
            // Each (block, phase) pair targets a distinct word of the
            // block, so no word is ever written twice and checked reads
            // of an earlier phase's word stay stable under the current
            // phase's writes.
            let word = phase % WORDS_PER_BLOCK;
            let writes: Vec<(usize, usize, VAddr, u64)> = (0..cfg.blocks)
                .map(|b| {
                    let writer = rng.below_usize(cfg.nodes);
                    let addr = VAddr::new(blocks[b].raw() + (word * WORD_BYTES) as u64);
                    let value = 0xC0DE_0000 + next_val;
                    next_val += 1;
                    (b, writer, addr, value)
                })
                .collect();
            for (node, ops) in scripts.iter_mut().enumerate() {
                for &(b, writer, addr, value) in &writes {
                    if rng.chance(0.5) {
                        ops.push(Op::Compute(1 + rng.below(16) as u32));
                    }
                    if node == writer {
                        ops.push(Op::Write { addr, value });
                        if rng.chance(0.5) {
                            // Read-own-write: program order must hold.
                            ops.push(Op::Read { addr, expect: Some(value) });
                        }
                    } else {
                        if rng.chance(0.4) {
                            // Racy read of the word being written: any
                            // value is legal, but it forces sharing.
                            ops.push(Op::Read { addr, expect: None });
                        }
                        if let Some((paddr, pval)) = prev_write[b] {
                            if rng.chance(0.5) {
                                // The previous phase's barrier ordered
                                // this write before us.
                                ops.push(Op::Read { addr: paddr, expect: Some(pval) });
                            }
                        }
                    }
                }
                ops.push(Op::Barrier);
            }
            for &(b, _, addr, value) in &writes {
                prev_write[b] = Some((addr, value));
                match finals.iter_mut().find(|(a, _)| *a == addr) {
                    Some(slot) => slot.1 = value,
                    None => finals.push((addr, value)),
                }
            }
        }

        // Everyone reads the whole image back after the last barrier.
        for ops in scripts.iter_mut() {
            for &(addr, value) in &finals {
                ops.push(Op::Read { addr, expect: Some(value) });
            }
        }

        Litmus { cfg: cfg.clone(), layout, scripts, blocks, finals }
    }

    /// Builds a fresh workload for one machine run, optionally
    /// coalescing adjacent compute ops (a legal perturbation: it only
    /// merges think-time).
    pub fn workload(&self, coalesce: bool) -> ScriptWorkload {
        let mut w = ScriptWorkload::new(self.cfg.nodes).with_layout(self.layout.clone());
        for (n, script) in self.scripts.iter().enumerate() {
            let mut ops = script.clone();
            if coalesce {
                coalesce_computes(&mut ops);
            }
            w.set(n, ops);
        }
        w
    }
}

/// Runs one random-family case: `factory`'s protocol on Typhoon under
/// the invariant engine and the full perturbation set (behind the
/// `transport` under a fault schedule), then DirNNB under the same
/// tie-break seed. Both machines, and the generator's own prediction,
/// must agree on every written word.
pub(crate) fn run_random_case(
    cfg: &LitmusConfig,
    perturb: &PerturbConfig,
    factory: ProtocolFactory,
    transport: &ReliableConfig,
) -> CaseOutcome {
    let litmus = Litmus::generate(cfg);
    let mut syscfg = SystemConfig::test_config(cfg.nodes);
    syscfg.seed = cfg.seed;
    let finals = &litmus.finals[..];
    let (typhoon_cycles, typhoon_words, events) = typhoon_leg(
        &syscfg,
        perturb,
        litmus.workload(perturb.coalesce),
        factory,
        transport,
        Some(&litmus.blocks),
        |m| typhoon_image(m, finals),
    )
    .map_err(|msg| ("typhoon", msg))?;
    let (dirnnb_cycles, dirnnb_words) =
        dirnnb_leg(&syscfg, perturb, litmus.workload(perturb.coalesce), |m| {
            dirnnb_image(m, finals)
        })
        .map_err(|msg| ("dirnnb", msg))?;
    differential(
        "differential",
        finals,
        vec![("typhoon", typhoon_cycles, typhoon_words), ("dirnnb", dirnnb_cycles, dirnnb_words)],
        events,
    )
}

/// A classic hand-written weak-memory litmus shape — store buffering,
/// message passing, load buffering, IRIW — expressed over two shared
/// variables homed at *different* nodes (so every access crosses the
/// network) and value-recording reads ([`Op::ReadRecord`]).
///
/// Both machines implement sequential consistency: a CPU blocks on its
/// single outstanding access and the coherence protocol serializes
/// conflicting writes. The `forbidden` predicate names the outcome a
/// weaker memory model would admit but SC forbids; the harness asserts
/// it never appears — on either machine, under any legal schedule
/// perturbation, and (for Typhoon) under lossy-network fault schedules
/// with the reliable transport underneath.
pub struct ClassicLitmus {
    /// Litmus-tradition name: `"SB"`, `"MP"`, `"LB"`, `"IRIW"`.
    pub name: &'static str,
    /// Processors the shape needs (2, or 4 for IRIW).
    pub nodes: usize,
    /// Per-node op scripts over variables `x` and `y`.
    pub scripts: Vec<Vec<Op>>,
    /// Returns true if the per-node recorded-read vectors form the
    /// SC-forbidden outcome.
    pub forbidden: fn(&[Vec<u64>]) -> bool,
}

/// Variable `x`: first word of a page homed at node 0.
fn var_x() -> VAddr {
    VAddr::new(SHARED_SEGMENT_BASE)
}

/// Variable `y`: first word of a page homed at node 1.
fn var_y() -> VAddr {
    VAddr::new(SHARED_SEGMENT_BASE + PAGE_BYTES as u64)
}

impl ClassicLitmus {
    /// Two one-page regions, homed at nodes 0 and 1 — the homes are
    /// always distinct from each other, and for IRIW distinct from the
    /// readers too.
    pub fn layout(&self) -> Layout {
        let mut l = Layout::new();
        for (p, home) in [(0usize, 0u16), (1, 1)] {
            l.add(Region {
                base: VAddr::new(SHARED_SEGMENT_BASE + (p * PAGE_BYTES) as u64),
                bytes: PAGE_BYTES,
                placement: Placement::PerPage(vec![NodeId::new(home)]),
                mode: 0,
            });
        }
        l
    }

    /// A fresh workload for one machine run.
    pub fn workload(&self) -> ScriptWorkload {
        let mut w = ScriptWorkload::new(self.nodes).with_layout(self.layout());
        for (n, script) in self.scripts.iter().enumerate() {
            w.set(n, script.clone());
        }
        w
    }

    /// Recorded reads each node's script will produce.
    pub fn reads_per_node(&self) -> Vec<usize> {
        self.scripts
            .iter()
            .map(|s| s.iter().filter(|o| matches!(o, Op::ReadRecord { .. })).count())
            .collect()
    }
}

/// The classic suite. Initial state is all-zero; writes store 1.
pub fn classic_suite() -> Vec<ClassicLitmus> {
    let (x, y) = (var_x(), var_y());
    let w = |addr| Op::Write { addr, value: 1 };
    let r = |addr| Op::ReadRecord { addr };
    vec![
        // Store buffering: both writes buffered past the reads would
        // let both nodes read 0.
        ClassicLitmus {
            name: "SB",
            nodes: 2,
            scripts: vec![vec![w(x), r(y)], vec![w(y), r(x)]],
            forbidden: |recs| recs[0][0] == 0 && recs[1][0] == 0,
        },
        // Message passing: the flag (y) visible without the data (x)
        // means the writes were reordered.
        ClassicLitmus {
            name: "MP",
            nodes: 2,
            scripts: vec![vec![w(x), w(y)], vec![r(y), r(x)]],
            forbidden: |recs| recs[1][0] == 1 && recs[1][1] == 0,
        },
        // Load buffering: each load observing the *other* node's later
        // store requires loads hoisted above program order.
        ClassicLitmus {
            name: "LB",
            nodes: 2,
            scripts: vec![vec![r(x), w(y)], vec![r(y), w(x)]],
            forbidden: |recs| recs[0][0] == 1 && recs[1][0] == 1,
        },
        // Independent reads of independent writes: the two readers
        // disagreeing on the write order breaks write atomicity.
        ClassicLitmus {
            name: "IRIW",
            nodes: 4,
            scripts: vec![vec![w(x)], vec![w(y)], vec![r(x), r(y)], vec![r(y), r(x)]],
            forbidden: |recs| {
                recs[2][0] == 1 && recs[2][1] == 0 && recs[3][0] == 1 && recs[3][1] == 0
            },
        },
    ]
}

/// Runs one classic shape on both machines under `perturb` (`seed`
/// feeds the machines' internal RNG streams) and checks the forbidden
/// outcome never appears. The Typhoon leg runs under the invariant
/// engine watching the x and y blocks, on the perturbation's topology
/// and, under a fault schedule, behind the reliable transport; DirNNB
/// is the fault-free ideal-network reference.
///
/// Returns the Typhoon leg's cycles and per-node recorded reads, or an
/// error naming the machine and the outcome (or panic).
pub fn run_classic(
    case: &ClassicLitmus,
    seed: u64,
    perturb: &PerturbConfig,
) -> Result<(Cycles, Vec<Vec<u64>>), String> {
    let mut syscfg = SystemConfig::test_config(case.nodes);
    syscfg.seed = seed;

    let check = |machine: &str, recs: &[Vec<u64>]| -> Result<(), String> {
        for (n, (got, want)) in recs.iter().zip(case.reads_per_node()).enumerate() {
            if got.len() != want {
                return Err(format!(
                    "{}: {machine} node {n} recorded {} reads, script has {want}",
                    case.name,
                    got.len()
                ));
            }
            if let Some(v) = got.iter().find(|v| **v > 1) {
                return Err(format!("{}: {machine} node {n} read corrupt value {v:#x}", case.name));
            }
        }
        if (case.forbidden)(recs) {
            return Err(format!(
                "{}: {machine} produced the SC-forbidden outcome {recs:?}",
                case.name
            ));
        }
        Ok(())
    };
    let panicked = |machine: &str, msg: String| format!("{}: {machine} panicked: {msg}", case.name);

    let (cycles, typhoon_recs, _) = typhoon_leg(
        &syscfg,
        perturb,
        case.workload(),
        &stache_factory,
        &ReliableConfig::default(),
        Some(&[var_x(), var_y()]),
        |m| (0..case.nodes).map(|n| m.recorded_reads(n).to_vec()).collect::<Vec<_>>(),
    )
    .map_err(|msg| panicked("typhoon+stache", msg))?;
    check("typhoon+stache", &typhoon_recs)?;

    let (_, dirnnb_recs) = dirnnb_leg(&syscfg, perturb, case.workload(), |m| {
        (0..case.nodes).map(|n| m.recorded_reads(n).to_vec()).collect::<Vec<_>>()
    })
    .map_err(|msg| panicked("dirnnb", msg))?;
    check("dirnnb", &dirnnb_recs)?;

    Ok((cycles, typhoon_recs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_base::{FaultSpec, Topology};

    #[test]
    fn config_derivation_is_deterministic_and_in_range() {
        for seed in 0..200 {
            let a = LitmusConfig::from_seed(seed);
            let b = LitmusConfig::from_seed(seed);
            assert_eq!(a, b);
            assert!((2..=4).contains(&a.nodes));
            assert!((1..=4).contains(&a.blocks));
            assert!((1..=4).contains(&a.phases));
            assert!((1..=2).contains(&a.pages) && a.pages <= a.blocks);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = LitmusConfig::from_seed(42);
        let a = Litmus::generate(&cfg);
        let b = Litmus::generate(&cfg);
        assert_eq!(a.scripts, b.scripts);
        assert_eq!(a.finals, b.finals);
        assert_eq!(a.blocks, b.blocks);
    }

    #[test]
    fn every_node_has_matching_barrier_counts() {
        for seed in 0..50 {
            let l = Litmus::generate(&LitmusConfig::from_seed(seed));
            let counts: Vec<usize> = l
                .scripts
                .iter()
                .map(|s| s.iter().filter(|o| matches!(o, Op::Barrier)).count())
                .collect();
            assert!(counts.windows(2).all(|w| w[0] == w[1]), "seed {seed}: {counts:?}");
            assert_eq!(counts[0], l.cfg.phases);
        }
    }

    #[test]
    fn blocks_are_distinct_and_words_written_once() {
        for seed in 0..50 {
            let l = Litmus::generate(&LitmusConfig::from_seed(seed));
            for (i, a) in l.blocks.iter().enumerate() {
                for b in &l.blocks[i + 1..] {
                    assert_ne!(a, b, "seed {seed}");
                }
            }
            // One final entry per (block, word) written; each written
            // exactly once, so finals length = blocks × distinct words.
            let distinct_words = l.cfg.phases.min(WORDS_PER_BLOCK);
            assert_eq!(l.finals.len(), l.cfg.blocks * distinct_words, "seed {seed}");
        }
    }

    #[test]
    fn classic_shapes_are_well_formed() {
        let suite = classic_suite();
        assert_eq!(suite.len(), 4);
        for case in &suite {
            assert_eq!(case.scripts.len(), case.nodes);
            let reads: usize = case.reads_per_node().iter().sum();
            assert!(reads >= 1, "{} records no reads", case.name);
        }
        assert_eq!(suite[3].name, "IRIW");
        assert_eq!(suite[3].nodes, 4);
    }

    /// The interconnects the classic suite must hold on.
    const TOPOLOGIES: [Topology; 2] = [Topology::Ideal, Topology::Mesh2D { width: 0 }];

    #[test]
    fn classic_suite_holds_on_both_machines() {
        for case in &classic_suite() {
            for topology in TOPOLOGIES {
                for seed in 0..6 {
                    let perturb = PerturbConfig { topology, ..PerturbConfig::from_seed(seed) };
                    run_classic(case, seed, &perturb)
                        .unwrap_or_else(|e| panic!("seed {seed} on {topology}: {e}"));
                }
            }
        }
    }

    #[test]
    fn classic_suite_holds_under_faults() {
        for case in &classic_suite() {
            for topology in TOPOLOGIES {
                for seed in 0..4u64 {
                    let perturb = PerturbConfig {
                        topology,
                        fault: Some(FaultSpec::from_seed(seed.wrapping_mul(0x9E37))),
                        ..PerturbConfig::from_seed(seed)
                    };
                    run_classic(case, seed, &perturb)
                        .unwrap_or_else(|e| panic!("faulty seed {seed} on {topology}: {e}"));
                }
            }
        }
    }

    #[test]
    fn classic_typhoon_leg_runs_on_the_drawn_topology() {
        // A routed network changes Typhoon's latencies, so the cycles
        // move with the topology (the reads stay SC either way).
        let suite = classic_suite();
        let sb = &suite[0];
        let cycles: Vec<u64> = TOPOLOGIES
            .iter()
            .map(|&topology| {
                let perturb = PerturbConfig { topology, ..PerturbConfig::from_seed(0) };
                run_classic(sb, 0, &perturb).expect("SB clean").0.raw()
            })
            .collect();
        assert_eq!(cycles, [608, 592]);
    }

    #[test]
    fn classic_runs_are_deterministic() {
        let suite = classic_suite();
        let case = &suite[0];
        let mut perturb = PerturbConfig::from_seed(5);
        perturb.fault = Some(FaultSpec::from_seed(5));
        let a = run_classic(case, 5, &perturb).expect("clean");
        let b = run_classic(case, 5, &perturb).expect("clean replay");
        assert_eq!(a, b);
    }
}
