//! The KV litmus family: proving the write-update server equivalent.
//!
//! `tt-apps::kv_update` replaces invalidation with home-serialized
//! update broadcasts for KV slot pages. That is a real protocol with
//! real races — colliding puts to one key, gets overlapping an
//! in-flight broadcast, sharers dropping pages mid-update — so it gets
//! the same treatment as Stache itself: seed-generated contended
//! workloads, schedule fuzzing, and a differential against independent
//! references.
//!
//! A case derives entirely from one `u64` seed: a handful of *hot keys*
//! sampled from a larger key space, 2–4 nodes, and 1–3 put rounds. Each
//! round has exactly one writer per hot key (put), racy concurrent gets
//! (`expect: None` — any snapshot is legal while a put is in flight),
//! and read-own-write gets by the writer (`expect: Some` — a completed
//! put must be visible to its issuer). A barrier then closes the round
//! and every node may re-read the round's values *checked* — the
//! definition of "the put completed" under an update protocol is
//! exactly that post-barrier readers see it. The case ends with every
//! node reading every hot key's full slot back against the statically
//! known final image.
//!
//! Three legs must agree word-for-word on that image:
//!
//! - **Typhoon + Stache** on the raw-store variant of the scripts,
//!   under the invariant engine (tag/directory agreement, SWMR) and the
//!   seed's schedule perturbations;
//! - **Typhoon + KvUpdateProtocol** on the staged-put variant — same
//!   requests, different coherence machinery (no invariant engine: the
//!   update protocol intentionally keeps home ReadWrite alongside
//!   sharer ReadOnly copies, so SWMR does not apply);
//! - **DirNNB** (all-hardware baseline) on the raw-store variant.
//!
//! Seeds may also draw a *tight* stache frame budget, which forces page replacement under
//! both protocols and exercises the update protocol's stale-copy path
//! (updates arriving for pages the sharer has dropped).

use tt_apps::kv_update::KvUpdateProtocol;
use tt_base::addr::{BLOCK_BYTES, PAGE_BYTES, WORD_BYTES};
use tt_base::workload::{coalesce_computes, Layout, Op, ScriptWorkload};
use tt_base::{DetRng, NodeId, SystemConfig, VAddr};
use tt_serve::{header_word, value_word, KvLayout, SharedKvLatency, KV_PUT_OP};
use tt_stache::ReliableConfig;
use tt_tempest::Protocol;

use crate::fuzz::{
    differential, dirnnb_image, dirnnb_leg, stache_factory, typhoon_image, typhoon_leg,
    CaseOutcome, PerturbConfig, ProtocolFactory,
};

/// Words written by one put: `(addr, value)` pairs over the slot.
type SlotWords = Vec<(VAddr, u64)>;

/// The shape of a KV litmus case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KvLitmusConfig {
    /// Seed that generated the case.
    pub(crate) seed: u64,
    /// Processors (2–4).
    pub(crate) nodes: usize,
    /// Key-space size the hot keys are sampled from (64–512).
    pub(crate) keyspace: u64,
    /// Contended keys (2–5).
    pub(crate) hot_keys: usize,
    /// Put rounds (1–3).
    pub(crate) rounds: usize,
    /// Value words per slot (1–6; 4+ makes slots span two blocks).
    pub(crate) value_words: usize,
    /// Cap the stache frame budget at two pages, forcing replacement
    /// and stale-update handling.
    pub(crate) tight_stache: bool,
}

impl KvLitmusConfig {
    /// Derives a case shape from a seed.
    pub(crate) fn from_seed(seed: u64) -> Self {
        let mut rng = DetRng::new(seed).fork(7);
        KvLitmusConfig {
            seed,
            nodes: 2 + rng.below_usize(3),
            keyspace: 64 + rng.below(449),
            hot_keys: 2 + rng.below_usize(4),
            rounds: 1 + rng.below_usize(3),
            value_words: 1 + rng.below_usize(6),
            tight_stache: rng.chance(0.3),
        }
    }
}

/// A generated KV litmus case: both script variants, the contended
/// blocks, and the predicted final slot image.
pub(crate) struct KvLitmus {
    /// The shape this case was generated from.
    pub(crate) cfg: KvLitmusConfig,
    /// Key layout (identical for both variants).
    pub(crate) kv: KvLayout,
    /// Raw-store scripts (Stache and DirNNB legs).
    pub(crate) stache_scripts: Vec<Vec<Op>>,
    /// Staged-put scripts (update-protocol leg).
    pub(crate) update_scripts: Vec<Vec<Op>>,
    /// Slot blocks of the hot keys (invariant-engine watch list).
    pub(crate) blocks: Vec<VAddr>,
    /// Expected final value of every written slot word.
    pub(crate) finals: Vec<(VAddr, u64)>,
}

impl KvLitmus {
    /// Generates the case for `cfg`. Deterministic.
    pub(crate) fn generate(cfg: &KvLitmusConfig) -> KvLitmus {
        let mut rng = DetRng::new(cfg.seed).fork(8);
        let kv = KvLayout::new(cfg.keyspace, cfg.value_words, cfg.nodes);

        // Sample distinct hot keys from the key space.
        let mut hot: Vec<u64> = Vec::with_capacity(cfg.hot_keys);
        while hot.len() < cfg.hot_keys {
            let k = rng.below(cfg.keyspace);
            if !hot.contains(&k) {
                hot.push(k);
            }
        }

        let mut blocks: Vec<VAddr> = Vec::new();
        for &k in &hot {
            for b in 0..kv.slot_blocks() {
                blocks.push(kv.slot_addr(k).offset((b * BLOCK_BYTES) as u64));
            }
        }

        let slot_words = kv.slot_words();
        let words_of = |k: u64, hdr: u64| -> Vec<(VAddr, u64)> {
            std::iter::once(hdr)
                .chain((0..cfg.value_words).map(|i| value_word(k, hdr, i)))
                .enumerate()
                .map(|(w, v)| (kv.word_addr(k, w), v))
                .collect()
        };

        let mut stache: Vec<Vec<Op>> = vec![Vec::new(); cfg.nodes];
        let mut update: Vec<Vec<Op>> = vec![Vec::new(); cfg.nodes];
        // Last committed words per hot key (index parallel to `hot`).
        let mut committed: Vec<Option<SlotWords>> = vec![None; cfg.hot_keys];
        let mut seq = 0u64;

        for _round in 0..cfg.rounds {
            // One writer per hot key this round.
            let puts: Vec<(usize, usize, SlotWords)> = hot
                .iter()
                .enumerate()
                .map(|(ki, &k)| {
                    let writer = rng.below_usize(cfg.nodes);
                    seq += 1;
                    let hdr = header_word(NodeId::new(writer as u16), seq, cfg.value_words);
                    (ki, writer, words_of(k, hdr))
                })
                .collect();

            // Put sub-round: writers put; everyone else may issue racy
            // gets (any snapshot legal) or checked gets of the previous
            // round's committed value is NOT legal here — the new put
            // races with it — so non-writers only read racy.
            for node in 0..cfg.nodes {
                for (ki, writer, words) in &puts {
                    let k = hot[*ki];
                    if rng.chance(0.5) {
                        let c = Op::Compute(1 + rng.below(16) as u32);
                        stache[node].push(c);
                        update[node].push(c);
                    }
                    if node == *writer {
                        // Stache variant: raw stores into the slot.
                        for &(addr, v) in words {
                            stache[node].push(Op::Write { addr, value: v });
                        }
                        // Update variant: stage locally, then publish.
                        let base = kv.staging_addr(NodeId::new(node as u16));
                        for (w, &(_, v)) in words.iter().enumerate() {
                            update[node].push(Op::Write {
                                addr: base.offset((w * WORD_BYTES) as u64),
                                value: v,
                            });
                        }
                        update[node].push(Op::UserCall { op: KV_PUT_OP, arg: k });
                        if rng.chance(0.5) {
                            // Read-own-write: a completed put is visible
                            // to its issuer in both variants.
                            for &(addr, v) in words {
                                stache[node].push(Op::Read { addr, expect: Some(v) });
                                update[node].push(Op::Read { addr, expect: Some(v) });
                            }
                        }
                    } else if rng.chance(0.4) {
                        // Racy get concurrent with the put.
                        for w in 0..slot_words {
                            let addr = kv.word_addr(k, w);
                            stache[node].push(Op::Read { addr, expect: None });
                            update[node].push(Op::Read { addr, expect: None });
                        }
                    }
                }
                stache[node].push(Op::Barrier);
                update[node].push(Op::Barrier);
            }

            for (ki, _, words) in puts {
                committed[ki] = Some(words);
            }

            // Check sub-round: post-barrier, this round's puts are
            // committed — gets must observe them exactly.
            for node in 0..cfg.nodes {
                for (ki, _k) in hot.iter().enumerate() {
                    if rng.chance(0.5) {
                        for &(addr, v) in committed[ki].as_ref().expect("put this round") {
                            stache[node].push(Op::Read { addr, expect: Some(v) });
                            update[node].push(Op::Read { addr, expect: Some(v) });
                        }
                    }
                }
                stache[node].push(Op::Barrier);
                update[node].push(Op::Barrier);
            }
        }

        // Final readback: every node checks every hot key's full slot.
        let finals: Vec<(VAddr, u64)> =
            committed.iter().flat_map(|w| w.as_ref().expect("every key written").clone()).collect();
        for node in 0..cfg.nodes {
            for &(addr, v) in &finals {
                stache[node].push(Op::Read { addr, expect: Some(v) });
                update[node].push(Op::Read { addr, expect: Some(v) });
            }
        }

        KvLitmus {
            cfg: cfg.clone(),
            kv,
            stache_scripts: stache,
            update_scripts: update,
            blocks,
            finals,
        }
    }

    /// Builds a fresh workload for one run of one variant.
    pub(crate) fn workload(&self, update_variant: bool, coalesce: bool) -> ScriptWorkload {
        let scripts = if update_variant { &self.update_scripts } else { &self.stache_scripts };
        let mut w = ScriptWorkload::new(self.cfg.nodes).with_layout(self.kv.layout());
        for (n, script) in scripts.iter().enumerate() {
            let mut ops = script.clone();
            if coalesce {
                coalesce_computes(&mut ops);
            }
            w.set(n, ops);
        }
        w
    }
}

/// Runs one KV case: three legs and a four-way image differential.
/// Under a fault schedule both protocols — Stache *and* the custom
/// `kv_update` protocol — run behind the reliable transport configured
/// by `transport`.
pub(crate) fn run_kv_case(
    cfg: &KvLitmusConfig,
    perturb: &PerturbConfig,
    transport: &ReliableConfig,
) -> CaseOutcome {
    let litmus = KvLitmus::generate(cfg);
    let mut syscfg = SystemConfig::test_config(cfg.nodes);
    syscfg.seed = cfg.seed;
    if cfg.tight_stache {
        syscfg.stache_capacity_bytes = 2 * PAGE_BYTES;
    }

    let update_factory = |id: NodeId, layout: &Layout, cfg: &SystemConfig| -> Box<dyn Protocol> {
        Box::new(KvUpdateProtocol::new(
            id,
            layout,
            cfg,
            litmus.kv.clone(),
            SharedKvLatency::default(),
        ))
    };
    let finals = &litmus.finals[..];
    let typhoon = |update_variant: bool, watch: Option<&[VAddr]>| {
        let factory: ProtocolFactory =
            if update_variant { &update_factory } else { &stache_factory };
        typhoon_leg(
            &syscfg,
            perturb,
            litmus.workload(update_variant, perturb.coalesce),
            factory,
            transport,
            watch,
            |m| typhoon_image(m, finals),
        )
    };

    // Leg 1: Typhoon + Stache on raw stores, invariant engine on.
    let (stache_cycles, stache_words, events) =
        typhoon(false, Some(&litmus.blocks)).map_err(|m| ("kv-stache", m))?;

    // Leg 2: Typhoon + the write-update protocol on staged puts. No
    // invariant engine: home-ReadWrite + sharer-ReadOnly is this
    // protocol's intended tag state and violates SWMR by design.
    let (update_cycles, update_words, _) = typhoon(true, None).map_err(|m| ("kv-update", m))?;

    // Leg 3: DirNNB on raw stores — the pristine reference the lossy or
    // mesh-routed legs' final images are held against.
    let (dirnnb_cycles, dirnnb_words) =
        dirnnb_leg(&syscfg, perturb, litmus.workload(false, perturb.coalesce), |m| {
            dirnnb_image(m, finals)
        })
        .map_err(|m| ("kv-dirnnb", m))?;

    differential(
        "kv-differential",
        finals,
        vec![
            ("stache", stache_cycles, stache_words),
            ("update", update_cycles, update_words),
            ("dirnnb", dirnnb_cycles, dirnnb_words),
        ],
        events,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::{Family, FuzzOptions};

    #[test]
    fn config_derivation_is_deterministic_and_in_range() {
        for seed in 0..200 {
            let a = KvLitmusConfig::from_seed(seed);
            assert_eq!(a, KvLitmusConfig::from_seed(seed));
            assert!((2..=4).contains(&a.nodes));
            assert!((64..=512).contains(&a.keyspace));
            assert!((2..=5).contains(&a.hot_keys));
            assert!((1..=3).contains(&a.rounds));
            assert!((1..=6).contains(&a.value_words));
        }
        assert!(
            (0..100).any(|s| KvLitmusConfig::from_seed(s).value_words > 3),
            "multi-block slots must be exercised"
        );
        assert!(
            (0..100).any(|s| KvLitmusConfig::from_seed(s).tight_stache),
            "tight frame budgets must be exercised"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = KvLitmusConfig::from_seed(42);
        let a = KvLitmus::generate(&cfg);
        let b = KvLitmus::generate(&cfg);
        assert_eq!(a.stache_scripts, b.stache_scripts);
        assert_eq!(a.update_scripts, b.update_scripts);
        assert_eq!(a.finals, b.finals);
    }

    #[test]
    fn first_seeds_pass_the_differential() {
        let report = Family::Kv.fuzz(0, 25, &FuzzOptions::default());
        assert!(report.failure.is_none(), "seed failed: {}", report.failure.unwrap());
        assert_eq!(report.seeds_run, 25);
    }

    #[test]
    fn faulty_kv_seeds_pass_the_differential() {
        let options = FuzzOptions { faults: true, ..FuzzOptions::default() };
        let report = Family::Kv.fuzz(0, 8, &options);
        assert!(report.failure.is_none(), "faulty kv seed failed: {}", report.failure.unwrap());
        assert_eq!(report.seeds_run, 8);
    }

    #[test]
    fn kv_legs_run_behind_the_configured_transport() {
        // Seed 0 is clean behind the stock transport, and caught behind
        // one that retransmits without duplicate suppression.
        let options = FuzzOptions { faults: true, ..FuzzOptions::default() };
        Family::Kv.run_seed(0, &options).expect("stock transport clean");
        let broken = FuzzOptions { transport: Some(ReliableConfig { dedupe: false }), ..options };
        let failure = Family::Kv.fuzz(0, 1, &broken).failure.expect("dedupe-off caught at seed 0");
        assert_eq!((failure.seed, failure.stage), (0, "kv-stache"), "{failure}");
    }

    #[test]
    fn same_fault_seed_replays_bit_exactly() {
        // One forced fault schedule, run twice: identical cycles on
        // every leg.
        let options =
            FuzzOptions { faults: true, fault_seed: Some(0xFA17_5EED), ..FuzzOptions::default() };
        let a = Family::Kv.run_seed(5, &options).expect("faulty kv run clean");
        let b = Family::Kv.run_seed(5, &options).expect("faulty kv replay clean");
        assert_eq!(a, b, "kv fault schedule did not replay bit-exactly");
    }
}
