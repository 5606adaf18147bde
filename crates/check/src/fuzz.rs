//! The schedule fuzzer and differential checker.
//!
//! One `u64` seed determines everything: the litmus case shape
//! ([`LitmusConfig::from_seed`]), the scripts ([`Litmus::generate`]),
//! and the schedule perturbation ([`PerturbConfig::from_seed`]). A
//! seed's run is therefore bit-exactly reproducible — `replay` is just
//! `run_seed` again — and a failure report only needs the seed.
//!
//! Each case runs the workload on **both** machines:
//!
//! - `tt-typhoon` with the Stache protocol (or an injected broken one),
//!   under the invariant engine and the chosen perturbations;
//! - `tt-dirnnb`, the all-hardware baseline, under the same tie-breaking
//!   seed.
//!
//! Afterwards the final shared-memory images are extracted and compared
//! against each other and against the generator's happens-before
//! prediction. Perturbations only touch *legal* nondeterminism
//! (same-cycle ordering, latency within the network band, compute
//! coalescing, direct execution), so any divergence — a panic, an
//! invariant trip, or an image mismatch — is a bug.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Mutex;

use tt_base::workload::{Layout, ScriptWorkload};
use tt_base::{Cycles, DetRng, FaultSpec, NodeId, SystemConfig, Topology, VAddr};
use tt_dirnnb::DirnnbMachine;
use tt_mem::Tag;
use tt_stache::{reliable_vn_policy, Reliable, ReliableConfig, StacheProtocol};
use tt_tempest::Protocol;
use tt_typhoon::TyphoonMachine;

use crate::invariants::{InvariantChecker, DEFAULT_EVENT_BUDGET};
use crate::litmus::{Litmus, LitmusConfig};

/// Builds one node's protocol instance (same shape as
/// [`TyphoonMachine::new`]'s constructor argument).
pub type ProtocolFactory<'a> = &'a dyn Fn(NodeId, &Layout, &SystemConfig) -> Box<dyn Protocol>;

/// The stock factory: the real Stache protocol.
pub fn stache_factory(id: NodeId, layout: &Layout, cfg: &SystemConfig) -> Box<dyn Protocol> {
    Box::new(StacheProtocol::new(id, layout, cfg))
}

/// Schedule perturbations for one run — all within the machines' legal
/// nondeterminism, all derived from the seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PerturbConfig {
    /// Shuffle same-cycle event ordering with this seed (None = the
    /// deterministic FIFO order production runs use).
    pub tie_shuffle: Option<u64>,
    /// Extra per-packet network latency, uniform in `0..=jitter_max`
    /// cycles on top of the configured base latency (0 = no jitter).
    /// Per-link FIFO order is preserved by construction.
    pub jitter_max: u64,
    /// Seed for the jitter stream.
    pub jitter_seed: u64,
    /// Coalesce adjacent compute ops before running.
    pub coalesce: bool,
    /// Run CPUs in direct-execution (event-frontier) mode.
    pub direct_execution: bool,
    /// Lossy-network fault schedule for the Typhoon legs (`None` =
    /// perfect network). When set, the Stache legs run wrapped in the
    /// [`Reliable`] transport, the invariant budget widens (retries
    /// inflate the event count), and the DirNNB leg stays fault-free as
    /// the reference: faults may cost cycles but must never change the
    /// final memory image.
    pub fault: Option<FaultSpec>,
    /// Interconnect model for the Typhoon legs. Routed topologies
    /// (mesh/fat-tree) change latencies — and therefore cycles — but
    /// must never change the final memory image. The
    /// DirNNB reference leg always runs `Ideal`, mirroring the
    /// fault-free pristine-reference rule.
    pub topology: Topology,
}

impl PerturbConfig {
    /// Derives the perturbation from a seed. New dimensions are drawn
    /// *after* the existing ones so old seeds keep their historical
    /// shapes.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = DetRng::new(seed).fork(3);
        let tie_shuffle = if rng.chance(0.75) { Some(rng.next_u64()) } else { None };
        let jitter_max = rng.below(4);
        let jitter_seed = rng.next_u64();
        let coalesce = rng.chance(0.5);
        let direct_execution = rng.chance(0.5);
        // Two retired dimensions (the parallel simulator's thread count
        // and window policy): still drawn and discarded, so every later
        // dimension keeps its historical value.
        rng.next_u64();
        rng.next_u64();
        PerturbConfig {
            tie_shuffle,
            jitter_max,
            jitter_seed,
            coalesce,
            direct_execution,
            fault: None,
            // Drawn last (newest dimension): half the seeds keep the
            // ideal pipe, the rest split between the routed topologies
            // with derived shape parameters (width/arity 0).
            topology: match rng.below(4) {
                0 | 1 => Topology::Ideal,
                2 => Topology::Mesh2D { width: 0 },
                _ => Topology::FatTree { arity: 0 },
            },
        }
    }
}

/// Compact one-line rendering of a fault schedule for failure reports.
pub(crate) fn fault_summary(f: &FaultSpec) -> String {
    format!(
        "faults[seed={} drop={}‰ dup={}‰ corrupt={}‰ partition={}‰/{}x{}]",
        f.seed,
        f.drop_permille,
        f.dup_permille,
        f.corrupt_permille,
        f.partition_permille,
        f.partition_epoch,
        f.partition_run
    )
}

/// A clean run's vitals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaseResult {
    /// Typhoon completion time under the perturbation.
    pub typhoon_cycles: Cycles,
    /// DirNNB completion time.
    pub dirnnb_cycles: Cycles,
    /// Events the invariant engine observed on the Typhoon run.
    pub events: u64,
}

/// A caught failure: which seed, which shape, which stage, and the
/// panic or mismatch message. `shrunk` is filled in by [`shrink`].
#[derive(Clone, Debug)]
pub struct Failure {
    /// The seed that produced the case.
    pub seed: u64,
    /// The (possibly hand-built) case shape that failed.
    pub cfg: LitmusConfig,
    /// The schedule perturbation in force.
    pub perturb: PerturbConfig,
    /// Which stage failed: `"typhoon"`, `"dirnnb"` or `"differential"`.
    pub stage: &'static str,
    /// The panic message or mismatch description.
    pub message: String,
    /// A smaller shape that still fails, if [`shrink`] ran.
    pub shrunk: Option<LitmusConfig>,
    /// A simpler perturbation/fault schedule that still fails, if
    /// [`shrink`] ran: each schedule dimension is delta-debugged toward
    /// the production schedule one at a time.
    pub shrunk_perturb: Option<PerturbConfig>,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed {} [{} stage] nodes={} pages={} blocks={} phases={}",
            self.seed, self.stage, self.cfg.nodes, self.cfg.pages, self.cfg.blocks, self.cfg.phases,
        )?;
        if let Some(fs) = &self.perturb.fault {
            write!(f, " {}", fault_summary(fs))?;
        }
        if self.perturb.topology != Topology::Ideal {
            write!(f, " topology={}", self.perturb.topology)?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(s) = &self.shrunk {
            write!(
                f,
                " (shrunk to nodes={} pages={} blocks={} phases={})",
                s.nodes, s.pages, s.blocks, s.phases
            )?;
        }
        if let Some(p) = &self.shrunk_perturb {
            write!(
                f,
                " (schedule shrunk to tie={} jitter={} coalesce={} direct={} topology={} {})",
                p.tie_shuffle.is_some(),
                p.jitter_max,
                p.coalesce,
                p.direct_execution,
                p.topology,
                match &p.fault {
                    Some(fs) => fault_summary(fs),
                    None => "no-faults".to_string(),
                }
            )?;
        }
        Ok(())
    }
}

/// Serializes panic-hook swapping so concurrent fuzz runs (e.g. test
/// threads) don't clobber each other's hooks.
static HOOK_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f`, converting a panic into its message. The default panic
/// hook is silenced for the duration: the fuzzer *expects* failures and
/// reports them itself.
pub(crate) fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    let guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let out = panic::catch_unwind(AssertUnwindSafe(f));
    panic::set_hook(prev);
    drop(guard);
    out.map_err(|e| {
        if let Some(s) = e.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = e.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// Reconstructs the word at `addr` from a finished Typhoon machine:
/// prefer the writable copy (SWMR makes it unique), then any readable
/// copy, then the home node's memory.
pub(crate) fn typhoon_word(m: &TyphoonMachine, addr: VAddr) -> u64 {
    let nodes = m.config().nodes;
    let mut readable = None;
    for n in 0..nodes {
        match m.node_tag(n, addr) {
            Some(Tag::ReadWrite) => return m.node_word(n, addr).expect("writable copy mapped"),
            Some(Tag::ReadOnly) if readable.is_none() => readable = Some(n),
            _ => {}
        }
    }
    if let Some(n) = readable {
        return m.node_word(n, addr).expect("readable copy mapped");
    }
    let home = m
        .layout()
        .pages(nodes)
        .find(|(vpn, _, _)| *vpn == addr.page())
        .map(|(_, h, _)| h.index())
        .expect("address in layout");
    m.node_word(home, addr).expect("home page mapped")
}

/// Runs one Typhoon leg of a case: the machine built from `cfg` with
/// the perturbation's direct-execution mode, fault plan, topology,
/// tie-shuffle and jitter applied. Under a fault plan `factory` runs
/// behind the [`Reliable`] transport configured by `transport`. With
/// `watch` set the run is observed by the invariant engine over those
/// blocks (accepting the transport's ack handler and a 4× event budget
/// under faults); otherwise it runs plain. `read` takes the result off
/// the finished machine. A panic anywhere becomes its message.
///
/// Returns the completion time, `read`'s value and the events the
/// invariant engine observed (0 for a plain run).
pub(crate) fn typhoon_leg<T>(
    cfg: &SystemConfig,
    perturb: &PerturbConfig,
    workload: ScriptWorkload,
    factory: ProtocolFactory,
    transport: &ReliableConfig,
    watch: Option<&[VAddr]>,
    read: impl FnOnce(&TyphoonMachine) -> T,
) -> Result<(Cycles, T, u64), String> {
    let mut cfg = cfg.clone();
    cfg.direct_execution = perturb.direct_execution;
    cfg.fault = perturb.fault;
    cfg.topology = perturb.topology;
    let reliable = |id: NodeId, layout: &Layout, scfg: &SystemConfig| -> Box<dyn Protocol> {
        Box::new(Reliable::with_config(factory(id, layout, scfg), *transport))
    };
    let factory: ProtocolFactory = if perturb.fault.is_some() { &reliable } else { factory };
    catch(move || {
        let mut m = TyphoonMachine::new(cfg, Box::new(workload), factory);
        if let Some(seed) = perturb.tie_shuffle {
            m.set_tie_shuffle(seed);
        }
        if perturb.jitter_max > 0 {
            m.set_net_jitter(perturb.jitter_seed, Cycles::new(perturb.jitter_max));
        }
        let (cycles, events) = match watch {
            Some(blocks) => {
                let mut checker = InvariantChecker::new(blocks.to_vec());
                if perturb.fault.is_some() {
                    // Every retry and ack is an extra event.
                    checker = checker
                        .with_policy(reliable_vn_policy(tt_stache::vn_policy()))
                        .with_budget(DEFAULT_EVENT_BUDGET * 4);
                }
                let r = m.run_observed(&mut |now, ev, mach| checker.check(now, ev, mach));
                (r.cycles, checker.events())
            }
            None => (m.run().cycles, 0),
        };
        (cycles, read(&m), events)
    })
}

/// Runs the DirNNB leg of a case: the pristine reference every family
/// holds its Typhoon legs against. It always runs fault-free on the
/// ideal network, under the perturbation's direct-execution mode and
/// tie-shuffle seed; jitter is a Typhoon network knob (DirNNB latencies
/// come from its cost tables). A panic becomes its message.
pub(crate) fn dirnnb_leg<T>(
    cfg: &SystemConfig,
    perturb: &PerturbConfig,
    workload: ScriptWorkload,
    read: impl FnOnce(&DirnnbMachine) -> T,
) -> Result<(Cycles, T), String> {
    let mut cfg = cfg.clone();
    cfg.direct_execution = perturb.direct_execution;
    cfg.fault = None;
    cfg.topology = Topology::Ideal;
    catch(move || {
        let mut m = DirnnbMachine::new(cfg, Box::new(workload));
        if let Some(seed) = perturb.tie_shuffle {
            m.set_tie_shuffle(seed);
        }
        let cycles = m.run().cycles;
        (cycles, read(&m))
    })
}

/// Runs one case with `factory`'s protocol on Typhoon (the stock
/// [`stache_factory`], or an injected broken one to prove the harness
/// catches planted bugs). Under a fault schedule the protocol runs
/// behind the [`Reliable`] transport configured by `transport`, so the
/// harness can also plant the transport-level bug (`dedupe: false`:
/// retransmission without duplicate suppression).
pub fn run_case(
    cfg: &LitmusConfig,
    perturb: &PerturbConfig,
    factory: ProtocolFactory,
    transport: &ReliableConfig,
) -> Result<CaseResult, Box<Failure>> {
    let litmus = Litmus::generate(cfg);
    let fail = |stage: &'static str, message: String| Box::new(Failure {
        seed: cfg.seed,
        cfg: cfg.clone(),
        perturb: perturb.clone(),
        stage,
        message,
        shrunk: None,
        shrunk_perturb: None,
    });
    let mut syscfg = SystemConfig::test_config(cfg.nodes);
    syscfg.seed = cfg.seed;
    let typhoon_image = |m: &TyphoonMachine| -> Vec<u64> {
        litmus.finals.iter().map(|&(a, _)| typhoon_word(m, a)).collect()
    };
    let dirnnb_image = |m: &DirnnbMachine| -> Vec<u64> {
        litmus.finals.iter().map(|&(a, _)| m.shared_word(a)).collect()
    };

    // Typhoon under the invariant engine and the full perturbation set,
    // then DirNNB under the same tie-break seed.
    let workload = litmus.workload(perturb.coalesce);
    let watch = Some(&litmus.blocks[..]);
    let (typhoon_cycles, typhoon_words, events) =
        typhoon_leg(&syscfg, perturb, workload, factory, transport, watch, typhoon_image)
            .map_err(|msg| fail("typhoon", msg))?;
    let (dirnnb_cycles, dirnnb_words) =
        dirnnb_leg(&syscfg, perturb, litmus.workload(perturb.coalesce), dirnnb_image)
            .map_err(|msg| fail("dirnnb", msg))?;

    // Differential: both machines, and the generator's own prediction,
    // must agree on every written word.
    for (i, &(addr, expect)) in litmus.finals.iter().enumerate() {
        let (t, d) = (typhoon_words[i], dirnnb_words[i]);
        if t != expect || d != expect {
            return Err(fail(
                "differential",
                format!(
                    "final image mismatch at {addr}: typhoon {t:#x}, dirnnb {d:#x}, \
                     expected {expect:#x}"
                ),
            ));
        }
    }

    Ok(CaseResult { typhoon_cycles, dirnnb_cycles, events })
}

/// Cross-cutting knobs for a fuzzing run or replay — everything the
/// `tt-check` CLI can force on top of the seed-derived shapes.
#[derive(Clone, Debug, Default)]
pub struct FuzzOptions {
    /// Enable the lossy-network dimension: every case gets a
    /// seed-derived fault schedule and the protocol runs behind the
    /// reliable transport.
    pub faults: bool,
    /// Force the fault-plan seed instead of deriving it from the case
    /// seed (`tt-check replay --fault-seed F`). Implies `faults`.
    pub fault_seed: Option<u64>,
    /// Reliable-transport configuration for faulty runs; `None` = the
    /// stock config. `ReliableConfig { dedupe: false, .. }` is the
    /// transport-level planted bug.
    pub transport: Option<ReliableConfig>,
    /// Force the interconnect model of the Typhoon legs
    /// (`tt-check run --topology mesh`); `None` = each seed's own draw.
    pub topology: Option<Topology>,
}

impl FuzzOptions {
    /// The perturbation this options set produces for one seed. The
    /// fault-plan seed comes from its own fork, so fault decisions are
    /// independent of every other drawn dimension.
    pub fn perturb_for(&self, seed: u64) -> PerturbConfig {
        let mut p = PerturbConfig::from_seed(seed);
        if self.faults || self.fault_seed.is_some() {
            let fs = self
                .fault_seed
                .unwrap_or_else(|| DetRng::new(seed).fork(12).next_u64());
            p.fault = Some(FaultSpec::from_seed(fs));
        }
        if let Some(t) = self.topology {
            p.topology = t;
        }
        p
    }

    /// The transport configuration in force.
    pub fn transport_config(&self) -> ReliableConfig {
        self.transport.unwrap_or_default()
    }
}

/// Derives the case from `seed` under `options` and runs it with the
/// stock protocol. This is also `replay`: the same seed and options
/// always rerun the identical case.
pub fn run_seed(seed: u64, options: &FuzzOptions) -> Result<CaseResult, Box<Failure>> {
    run_case(
        &LitmusConfig::from_seed(seed),
        &options.perturb_for(seed),
        &stache_factory,
        &options.transport_config(),
    )
}

/// What a fuzzing sweep found.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// Seeds actually run (stops at the first failure).
    pub seeds_run: u64,
    /// The first failure, if any.
    pub failure: Option<Failure>,
}

/// Fuzzes `count` consecutive seeds starting at `base_seed` under
/// `options` with `factory`'s protocol, stopping at the first failure.
/// The engine behind `tt-check run` in all its variants.
pub fn fuzz(
    base_seed: u64,
    count: u64,
    options: &FuzzOptions,
    factory: ProtocolFactory,
) -> FuzzReport {
    let transport = options.transport_config();
    for i in 0..count {
        let seed = base_seed + i;
        let cfg = LitmusConfig::from_seed(seed);
        let perturb = options.perturb_for(seed);
        if let Err(f) = run_case(&cfg, &perturb, factory, &transport) {
            return FuzzReport { seeds_run: i + 1, failure: Some(*f) };
        }
    }
    FuzzReport { seeds_run: count, failure: None }
}

/// Greedily shrinks a failing case under the protocol and transport
/// that caught it. Two interleaved dimensions:
///
/// - **shape** — repeatedly tries dropping a phase, a block, a page, or
///   a node (in that order), keeping any reduction that still fails;
/// - **schedule** — delta-debugs the perturbation and fault dimensions
///   one at a time toward the production schedule (tie-shuffle off,
///   jitter 0, no coalescing, direct execution off, ideal network,
///   each fault rate 0, finally no faults at all), keeping any
///   simplification that still fails.
///
/// Returns the failure with `shrunk` and `shrunk_perturb` filled in.
pub fn shrink(failure: &Failure, factory: ProtocolFactory, transport: &ReliableConfig) -> Failure {
    let still_fails =
        |c: &LitmusConfig, p: &PerturbConfig| run_case(c, p, factory, transport).is_err();
    let mut cur = failure.cfg.clone();
    let mut per = failure.perturb.clone();
    loop {
        let mut progressed = false;

        // Shape: drop one dimension at a time.
        loop {
            let mut candidates = Vec::new();
            if cur.phases > 1 {
                candidates.push(LitmusConfig { phases: cur.phases - 1, ..cur.clone() });
            }
            if cur.blocks > 1 {
                let blocks = cur.blocks - 1;
                candidates
                    .push(LitmusConfig { blocks, pages: cur.pages.min(blocks), ..cur.clone() });
            }
            if cur.pages > 1 {
                candidates.push(LitmusConfig { pages: cur.pages - 1, ..cur.clone() });
            }
            if cur.nodes > 2 {
                candidates.push(LitmusConfig { nodes: cur.nodes - 1, ..cur.clone() });
            }
            match candidates.into_iter().find(|c| still_fails(c, &per)) {
                Some(smaller) => {
                    cur = smaller;
                    progressed = true;
                }
                None => break,
            }
        }

        // Schedule: simplify one dimension at a time.
        loop {
            let mut candidates: Vec<PerturbConfig> = Vec::new();
            if per.tie_shuffle.is_some() {
                candidates.push(PerturbConfig { tie_shuffle: None, ..per.clone() });
            }
            if per.jitter_max > 0 {
                candidates.push(PerturbConfig { jitter_max: 0, jitter_seed: 0, ..per.clone() });
            }
            if per.coalesce {
                candidates.push(PerturbConfig { coalesce: false, ..per.clone() });
            }
            if per.direct_execution {
                candidates.push(PerturbConfig { direct_execution: false, ..per.clone() });
            }
            if per.topology != Topology::Ideal {
                candidates.push(PerturbConfig { topology: Topology::Ideal, ..per.clone() });
            }
            if let Some(fs) = per.fault {
                for zeroed in [
                    FaultSpec { drop_permille: 0, ..fs },
                    FaultSpec { dup_permille: 0, ..fs },
                    FaultSpec { corrupt_permille: 0, ..fs },
                    FaultSpec { partition_permille: 0, ..fs },
                ] {
                    if zeroed != fs {
                        candidates.push(PerturbConfig { fault: Some(zeroed), ..per.clone() });
                    }
                }
                candidates.push(PerturbConfig { fault: None, ..per.clone() });
            }
            match candidates.into_iter().find(|p| still_fails(&cur, p)) {
                Some(simpler) => {
                    per = simpler;
                    progressed = true;
                }
                None => break,
            }
        }

        if !progressed {
            break;
        }
    }
    Failure { shrunk: Some(cur), shrunk_perturb: Some(per), ..failure.clone() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perturb_derivation_is_deterministic() {
        for seed in 0..100 {
            assert_eq!(PerturbConfig::from_seed(seed), PerturbConfig::from_seed(seed));
            assert!(PerturbConfig::from_seed(seed).jitter_max <= 3);
        }
        for shape in [
            Topology::Ideal,
            Topology::Mesh2D { width: 0 },
            Topology::FatTree { arity: 0 },
        ] {
            assert!(
                (0..100).any(|s| PerturbConfig::from_seed(s).topology == shape),
                "some seeds must draw topology {shape}"
            );
        }
    }

    #[test]
    fn seeds_keep_their_historical_shapes() {
        // Values drawn before the parallel simulator's two dimensions
        // were retired: the discarded draws must keep every later one.
        let topologies: String = (0..32)
            .map(|s| match PerturbConfig::from_seed(s).topology {
                Topology::Ideal => 'i',
                Topology::Mesh2D { .. } => 'm',
                Topology::FatTree { .. } => 'f',
            })
            .collect();
        assert_eq!(topologies, "mfiifmmimimiiiiiiifiiiifiiifiifm");
        let faulty = FuzzOptions { faults: true, ..FuzzOptions::default() }.perturb_for(11);
        assert_eq!(
            faulty.fault,
            Some(FaultSpec {
                seed: 17_405_080_204_587_936_925,
                drop_permille: 143,
                dup_permille: 11,
                corrupt_permille: 73,
                partition_permille: 133,
                partition_epoch: 1061,
                partition_run: 4,
            })
        );
        assert_eq!(faulty.topology, Topology::Ideal);
    }

    #[test]
    fn catch_captures_panic_message() {
        let err = catch(|| panic!("boom {}", 7)).unwrap_err();
        assert_eq!(err, "boom 7");
        assert_eq!(catch(|| 42).unwrap(), 42);
    }

    #[test]
    fn a_single_seed_runs_clean_and_replays_identically() {
        let a = run_seed(7, &FuzzOptions::default()).expect("seed 7 clean");
        let b = run_seed(7, &FuzzOptions::default()).expect("seed 7 clean on replay");
        assert_eq!(a, b);
        assert!(a.events > 0);
    }

    #[test]
    fn fault_dimension_is_deterministic_and_varied() {
        let faulty = FuzzOptions { faults: true, ..FuzzOptions::default() };
        for seed in 0..50 {
            let a = faulty.perturb_for(seed);
            assert_eq!(a, faulty.perturb_for(seed));
            let fs = a.fault.expect("faults drawn");
            // Everything else matches the fault-free draw: the fault
            // dimension must not disturb historical seed shapes.
            assert_eq!(PerturbConfig { fault: None, ..a }, PerturbConfig::from_seed(seed));
            assert!(fs.drop_permille <= 150 && fs.dup_permille <= 150);
        }
        assert!(
            (0..50).any(|s| {
                let f = faulty.perturb_for(s).fault.unwrap();
                f.drop_permille > 0 && f.dup_permille > 0
            }),
            "some schedules must both drop and duplicate"
        );
    }

    #[test]
    fn faulty_seeds_run_clean_and_replay_identically() {
        let options = FuzzOptions { faults: true, ..FuzzOptions::default() };
        for seed in 0..4 {
            let a = run_seed(seed, &options)
                .unwrap_or_else(|f| panic!("faulty seed {seed} failed: {f}"));
            let b = run_seed(seed, &options).expect("replay clean");
            assert_eq!(a, b, "faulty seed {seed} did not replay bit-exactly");
        }
    }

    #[test]
    fn planted_transport_bug_is_caught_and_shrunk() {
        // Retransmission without duplicate suppression: the transport
        // hands stale deliveries to Stache, which the harness must
        // catch. The shrinker then delta-debugs the fault schedule.
        let broken = ReliableConfig { dedupe: false, ..ReliableConfig::default() };
        let options = FuzzOptions {
            faults: true,
            transport: Some(broken),
            ..FuzzOptions::default()
        };
        let report = fuzz(0, 30, &options, &stache_factory);
        let failure = report.failure.expect("dedupe-off transport must be caught");
        let shrunk = shrink(&failure, &stache_factory, &broken);
        let per = shrunk.shrunk_perturb.expect("schedule shrink ran");
        assert!(
            per.fault.is_some(),
            "the failure needs faults, so shrinking must keep a fault schedule"
        );
        assert!(shrunk.shrunk.is_some());
    }
}
