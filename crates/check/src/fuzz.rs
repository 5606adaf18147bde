//! The seed-family pipeline: schedule fuzzing, differential checking
//! and shrinking.
//!
//! One `u64` seed determines everything: the family's case shape
//! ([`Shape`]: a random [`LitmusConfig`] or a [`KvLitmusConfig`]), the
//! scripts generated from it, and the schedule perturbation
//! (`PerturbConfig::from_seed`). A seed's run is therefore bit-exactly
//! reproducible — replay is just [`Family::run_seed`] again — and a
//! failure report only needs the seed.
//!
//! Every family runs through one pipeline ([`Family`]): one case runner
//! whose result names its legs' cycles ([`CaseResult`]) or whose
//! [`Failure`] names the stage that failed, one sweep
//! ([`Family::fuzz`]), one replay ([`Family::run_seed`]) and one shrinker
//! ([`Family::shrink`]). Each case runs its workload on **both**
//! machines:
//!
//! - `tt-typhoon` with the family's protocols (Stache, an injected
//!   broken one, or the KV write-update protocol), the Stache legs under
//!   the invariant engine, all under the chosen perturbations;
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
use tt_base::{Cycles, DetRng, FaultSpec, NodeId, SystemConfig, Topology, VAddr, PARTITION_RUN};
use tt_dirnnb::DirnnbMachine;
use tt_mem::Tag;
use tt_stache::{reliable_vn_policy, Reliable, ReliableConfig, StacheProtocol};
use tt_tempest::Protocol;
use tt_typhoon::TyphoonMachine;

use crate::invariants::{InvariantChecker, DEFAULT_EVENT_BUDGET};
use crate::kvlitmus::{run_kv_case, KvLitmusConfig};
use crate::litmus::{run_random_case, LitmusConfig};

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
    /// Interconnect model for the Typhoon legs. The routed mesh changes
    /// latencies — and therefore cycles — but must never change the
    /// final memory image. The DirNNB reference leg always runs `Ideal`,
    /// mirroring the fault-free pristine-reference rule.
    pub topology: Topology,
}

impl PerturbConfig {
    /// Derives the perturbation from a seed. New dimensions are drawn
    /// *after* the existing ones so old seeds keep their historical
    /// shapes.
    pub(crate) fn from_seed(seed: u64) -> Self {
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
            // ideal pipe, the rest run the mesh with a derived width.
            // The draw keeps its four outcomes (3 once picked a retired
            // routed shape) so every seed keeps its historical value.
            topology: match rng.below(4) {
                0 | 1 => Topology::Ideal,
                _ => Topology::Mesh2D { width: 0 },
            },
        }
    }

    /// The schedule's one-step simplifications toward the production
    /// schedule, in the order the shrinker tries them: tie-shuffle off,
    /// jitter 0, no coalescing, direct execution off, the ideal network,
    /// each fault rate zeroed, then no faults at all.
    fn simpler(&self) -> Vec<PerturbConfig> {
        let mut out = Vec::new();
        if self.tie_shuffle.is_some() {
            out.push(PerturbConfig { tie_shuffle: None, ..self.clone() });
        }
        if self.jitter_max > 0 {
            out.push(PerturbConfig { jitter_max: 0, jitter_seed: 0, ..self.clone() });
        }
        if self.coalesce {
            out.push(PerturbConfig { coalesce: false, ..self.clone() });
        }
        if self.direct_execution {
            out.push(PerturbConfig { direct_execution: false, ..self.clone() });
        }
        if self.topology != Topology::Ideal {
            out.push(PerturbConfig { topology: Topology::Ideal, ..self.clone() });
        }
        if let Some(fs) = self.fault {
            for zeroed in [
                FaultSpec { drop_permille: 0, ..fs },
                FaultSpec { dup_permille: 0, ..fs },
                FaultSpec { corrupt_permille: 0, ..fs },
                FaultSpec { partition_permille: 0, ..fs },
            ] {
                if zeroed != fs {
                    out.push(PerturbConfig { fault: Some(zeroed), ..self.clone() });
                }
            }
            out.push(PerturbConfig { fault: None, ..self.clone() });
        }
        out
    }
}

/// Compact one-line rendering of a fault schedule for failure reports.
fn fault_summary(f: &FaultSpec) -> String {
    format!(
        "faults[seed={} drop={}‰ dup={}‰ corrupt={}‰ partition={}‰/{}x{PARTITION_RUN}]",
        f.seed,
        f.drop_permille,
        f.dup_permille,
        f.corrupt_permille,
        f.partition_permille,
        f.partition_epoch,
    )
}

/// A seed family: how a seed becomes a case, and which legs run it.
#[derive(Clone, Copy)]
pub enum Family<'a> {
    /// Random litmus shapes ([`LitmusConfig`]): the factory's protocol
    /// on Typhoon (the stock [`stache_factory`], or an injected broken
    /// one to prove the harness catches planted bugs) against DirNNB.
    Random(ProtocolFactory<'a>),
    /// KV-serving put/get races ([`KvLitmusConfig`]): Stache-served and
    /// write-update-served Typhoon against DirNNB.
    Kv,
}

/// The shape of one family's case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Shape {
    /// A random litmus case.
    Random(LitmusConfig),
    /// A KV litmus case.
    Kv(KvLitmusConfig),
}

impl Shape {
    fn seed(&self) -> u64 {
        match self {
            Shape::Random(c) => c.seed,
            Shape::Kv(c) => c.seed,
        }
    }

    /// The shape's named dimensions, as failure reports print them.
    pub fn dims(&self) -> Vec<(&'static str, u64)> {
        match self {
            Shape::Random(c) => vec![
                ("nodes", c.nodes as u64),
                ("pages", c.pages as u64),
                ("blocks", c.blocks as u64),
                ("phases", c.phases as u64),
            ],
            Shape::Kv(c) => vec![
                ("nodes", c.nodes as u64),
                ("keyspace", c.keyspace),
                ("hot", c.hot_keys as u64),
                ("rounds", c.rounds as u64),
                ("words", c.value_words as u64),
                ("tight", c.tight_stache as u64),
            ],
        }
    }

    /// One-step reductions the shrinker tries, in order: drop a phase,
    /// a block, a page or a node. Only the random family has shape
    /// steps; a KV case keeps its shape.
    fn smaller(&self) -> Vec<Shape> {
        let Shape::Random(c) = self else { return Vec::new() };
        let mut out = Vec::new();
        if c.phases > 1 {
            out.push(LitmusConfig { phases: c.phases - 1, ..c.clone() });
        }
        if c.blocks > 1 {
            let blocks = c.blocks - 1;
            out.push(LitmusConfig { blocks, pages: c.pages.min(blocks), ..c.clone() });
        }
        if c.pages > 1 {
            out.push(LitmusConfig { pages: c.pages - 1, ..c.clone() });
        }
        if c.nodes > 2 {
            out.push(LitmusConfig { nodes: c.nodes - 1, ..c.clone() });
        }
        out.into_iter().map(Shape::Random).collect()
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let dims: Vec<String> = self.dims().iter().map(|(k, v)| format!("{k}={v}")).collect();
        f.write_str(&dims.join(" "))
    }
}

/// A clean case's vitals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaseResult {
    /// Each leg's name and completion time, in the order they ran.
    pub legs: Vec<(&'static str, Cycles)>,
    /// Events the invariant engine observed on the watched Typhoon leg.
    pub events: u64,
}

/// What a case runner returns: the clean vitals, or the failing stage
/// and its panic or mismatch message.
pub(crate) type CaseOutcome = Result<CaseResult, (&'static str, String)>;

/// A caught failure: which seed, which shape, which stage, and the
/// panic or mismatch message. `shrunk` is filled in by
/// [`Family::shrink`].
#[derive(Clone, Debug)]
pub struct Failure {
    /// The seed that produced the case.
    pub seed: u64,
    /// The (possibly hand-built) case shape that failed.
    pub shape: Shape,
    /// The schedule perturbation in force.
    pub perturb: PerturbConfig,
    /// Which stage failed: a leg (`"typhoon"`, `"dirnnb"`,
    /// `"kv-stache"`, `"kv-update"`, `"kv-dirnnb"`) or the final-image
    /// comparison (`"differential"`, `"kv-differential"`).
    pub stage: &'static str,
    /// The panic message or mismatch description.
    pub message: String,
    /// A smaller shape that still fails, if the shrinker ran.
    pub shrunk: Option<Shape>,
    /// A simpler perturbation/fault schedule that still fails, if the
    /// shrinker ran: each schedule dimension is delta-debugged toward
    /// the production schedule one at a time.
    pub shrunk_perturb: Option<PerturbConfig>,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seed {} [{} stage] {}", self.seed, self.stage, self.shape)?;
        if let Some(fs) = &self.perturb.fault {
            write!(f, " {}", fault_summary(fs))?;
        }
        if self.perturb.topology != Topology::Ideal {
            write!(f, " topology={}", self.perturb.topology)?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(s) = &self.shrunk {
            write!(f, " (shrunk to {s})")?;
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

/// What a fuzzing sweep found.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// Seeds actually run (stops at the first failure).
    pub seeds_run: u64,
    /// The first failure, if any.
    pub failure: Option<Failure>,
}

impl Family<'_> {
    /// The case shape `seed` derives in this family.
    fn shape(&self, seed: u64) -> Shape {
        match self {
            Family::Random(_) => Shape::Random(LitmusConfig::from_seed(seed)),
            Family::Kv => Shape::Kv(KvLitmusConfig::from_seed(seed)),
        }
    }

    /// Runs one case of this family under `perturb`. Under a fault
    /// schedule the Typhoon legs' protocols run behind the [`Reliable`]
    /// transport configured by `transport`, so the harness can also
    /// plant the transport-level bug (`dedupe: false`: retransmission
    /// without duplicate suppression).
    ///
    /// # Panics
    ///
    /// If `shape` belongs to the other family.
    pub fn run_case(
        &self,
        shape: &Shape,
        perturb: &PerturbConfig,
        transport: &ReliableConfig,
    ) -> Result<CaseResult, Box<Failure>> {
        let outcome = match (self, shape) {
            (Family::Random(factory), Shape::Random(c)) => {
                run_random_case(c, perturb, *factory, transport)
            }
            (Family::Kv, Shape::Kv(c)) => run_kv_case(c, perturb, transport),
            _ => panic!("shape {shape} belongs to another family"),
        };
        outcome.map_err(|(stage, message)| {
            Box::new(Failure {
                seed: shape.seed(),
                shape: shape.clone(),
                perturb: perturb.clone(),
                stage,
                message,
                shrunk: None,
                shrunk_perturb: None,
            })
        })
    }

    /// Derives the case from `seed` under `options` and runs it. This is
    /// also replay: the same seed and options always rerun the identical
    /// case.
    pub fn run_seed(&self, seed: u64, options: &FuzzOptions) -> Result<CaseResult, Box<Failure>> {
        self.run_case(&self.shape(seed), &options.perturb_for(seed), &options.transport_config())
    }

    /// Fuzzes `count` consecutive seeds starting at `base_seed` under
    /// `options`, stopping at the first failure. The engine behind
    /// `tt-check run` and `tt-check kv`.
    pub fn fuzz(&self, base_seed: u64, count: u64, options: &FuzzOptions) -> FuzzReport {
        for i in 0..count {
            if let Err(f) = self.run_seed(base_seed + i, options) {
                return FuzzReport { seeds_run: i + 1, failure: Some(*f) };
            }
        }
        FuzzReport { seeds_run: count, failure: None }
    }

    /// Greedily shrinks a failing case under the transport that caught
    /// it. Two interleaved fixpoints, repeated until neither makes
    /// progress:
    ///
    /// - **shape** — the shape's one-step reductions (random family
    ///   only), keeping the first that still fails;
    /// - **schedule** — the perturbation's one-step simplifications
    ///   toward the production schedule, keeping the first that still
    ///   fails.
    ///
    /// Returns the failure with `shrunk` and `shrunk_perturb` filled in.
    pub fn shrink(&self, failure: &Failure, transport: &ReliableConfig) -> Failure {
        let fails = |s: &Shape, p: &PerturbConfig| self.run_case(s, p, transport).is_err();
        let mut shape = failure.shape.clone();
        let mut per = failure.perturb.clone();
        loop {
            let mut progressed = false;
            while let Some(smaller) = shape.smaller().into_iter().find(|s| fails(s, &per)) {
                shape = smaller;
                progressed = true;
            }
            while let Some(simpler) = per.simpler().into_iter().find(|p| fails(&shape, p)) {
                per = simpler;
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        Failure { shrunk: Some(shape), shrunk_perturb: Some(per), ..failure.clone() }
    }
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
    /// stock config. `ReliableConfig { dedupe: false }` is the
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
    pub(crate) fn perturb_for(&self, seed: u64) -> PerturbConfig {
        let mut p = PerturbConfig::from_seed(seed);
        if self.faults || self.fault_seed.is_some() {
            let fs = self.fault_seed.unwrap_or_else(|| DetRng::new(seed).fork(12).next_u64());
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
        } else if let Some(f) = e.downcast_ref::<tt_tempest::NetFault>() {
            f.to_string()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// Reconstructs the word at `addr` from a finished Typhoon machine:
/// prefer the writable copy (SWMR makes it unique), then any readable
/// copy, then the home node's memory.
fn typhoon_word(m: &TyphoonMachine, addr: VAddr) -> u64 {
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
    let (home, _) = m.layout().home_of(addr.page(), nodes).expect("address in layout");
    m.node_word(home.index(), addr).expect("home page mapped")
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

/// The final image of `finals`' addresses on a finished Typhoon machine.
pub(crate) fn typhoon_image(m: &TyphoonMachine, finals: &[(VAddr, u64)]) -> Vec<u64> {
    finals.iter().map(|&(a, _)| typhoon_word(m, a)).collect()
}

/// The final image of `finals`' addresses on a finished DirNNB machine.
pub(crate) fn dirnnb_image(m: &DirnnbMachine, finals: &[(VAddr, u64)]) -> Vec<u64> {
    finals.iter().map(|&(a, _)| m.shared_word(a)).collect()
}

/// The differential every family's case ends with: each leg's final
/// image (`(name, cycles, words)`, the words parallel to `finals`) must
/// match the generator's prediction, and so each other, word for word.
/// A mismatch fails `stage`.
pub(crate) fn differential(
    stage: &'static str,
    finals: &[(VAddr, u64)],
    legs: Vec<(&'static str, Cycles, Vec<u64>)>,
    events: u64,
) -> CaseOutcome {
    for (i, &(addr, expect)) in finals.iter().enumerate() {
        if legs.iter().any(|(_, _, image)| image[i] != expect) {
            let words: Vec<String> =
                legs.iter().map(|(name, _, image)| format!("{name} {:#x}", image[i])).collect();
            let words = words.join(", ");
            return Err((
                stage,
                format!("final image mismatch at {addr}: {words}, expected {expect:#x}"),
            ));
        }
    }
    Ok(CaseResult {
        legs: legs.into_iter().map(|(name, cycles, _)| (name, cycles)).collect(),
        events,
    })
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
        for shape in [Topology::Ideal, Topology::Mesh2D { width: 0 }] {
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
            })
            .collect();
        assert_eq!(topologies, "mmiimmmimimiiiiiiimiiiimiiimiimm");
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

    /// The random family with the stock protocol.
    const STACHE: Family = Family::Random(&stache_factory);

    #[test]
    fn a_single_seed_runs_clean_and_replays_identically() {
        let a = STACHE.run_seed(7, &FuzzOptions::default()).expect("seed 7 clean");
        let b = STACHE.run_seed(7, &FuzzOptions::default()).expect("seed 7 clean on replay");
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
            let a = STACHE
                .run_seed(seed, &options)
                .unwrap_or_else(|f| panic!("faulty seed {seed} failed: {f}"));
            let b = STACHE.run_seed(seed, &options).expect("replay clean");
            assert_eq!(a, b, "faulty seed {seed} did not replay bit-exactly");
        }
    }

    #[test]
    fn planted_transport_bug_is_caught_and_shrunk() {
        // Retransmission without duplicate suppression: the transport
        // hands stale deliveries to Stache, which the harness must
        // catch. The shrinker then delta-debugs the fault schedule.
        let broken = ReliableConfig { dedupe: false };
        let options =
            FuzzOptions { faults: true, transport: Some(broken), ..FuzzOptions::default() };
        let report = STACHE.fuzz(0, 30, &options);
        let failure = report.failure.expect("dedupe-off transport must be caught");
        let shrunk = STACHE.shrink(&failure, &broken);
        let per = shrunk.shrunk_perturb.expect("schedule shrink ran");
        assert!(
            per.fault.is_some(),
            "the failure needs faults, so shrinking must keep a fault schedule"
        );
        assert!(shrunk.shrunk.is_some());
    }
}
