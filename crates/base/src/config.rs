//! Simulation parameters — a direct transcription of Table 2 of the paper.
//!
//! Every latency the machines charge comes from this module. The values
//! the paper fixes are `pub const`s, listed below in Table 2 order; a
//! [`SystemConfig`] holds only the settings a run varies (machine size,
//! cache size, network latency and topology, handler cost and placement,
//! DirNNB page placement, plus simulator and fault-injection knobs), so
//! one `SystemConfig` value fully determines a simulation together with
//! the workload. The `Default` impl reproduces Table 2; the bench harness
//! prints these values so "Table 2" is regenerated from code rather than
//! copied prose.

use crate::cycles::Cycles;
use crate::rng::DetRng;

// --- Table 2, "Common" ------------------------------------------------------

/// CPU data cache associativity (Table 2: 4-way, random replacement; the
/// capacity is [`CpuConfig::cache_bytes`], which Figure 3 sweeps).
pub const CACHE_ASSOC: usize = 4;

/// CPU TLB entries (Table 2: 64-entry, fully associative, FIFO
/// replacement).
pub const TLB_ENTRIES: usize = 64;

/// Cycles to satisfy a cache miss from local memory (Table 2: 29). The
/// paper's local writeback costs 0 (perfect write buffer), so no charge
/// exists for it.
pub const LOCAL_MISS: Cycles = Cycles::new(29);

/// Cycles to service a TLB miss (Table 2: 25).
pub const TLB_MISS: Cycles = Cycles::new(25);

/// Cycles from the last processor's arrival to the barrier's release
/// (Table 2: 11). The network latency next to it in Table 2 is
/// [`SystemConfig::network_latency`], which ablation 2 varies.
pub const BARRIER_LATENCY: Cycles = Cycles::new(11);

// --- Table 2, "DirNNB Only" -------------------------------------------------
//
// A remote miss costs `REMOTE_MISS_REQUEST + replacement? +
// network/directory + REMOTE_MISS_FINISH`; a directory operation costs
// `DIR_OP_BASE + DIR_OP_BLOCK_RECV? + DIR_OP_PER_MSG * msgs +
// DIR_OP_BLOCK_SEND?`.

/// Request-side cycles of a DirNNB remote miss before the network
/// (Table 2: 23).
pub const REMOTE_MISS_REQUEST: Cycles = Cycles::new(23);

/// Extra cycles when a DirNNB miss or invalidation replaces a shared
/// block (Table 2: the 5 of "5-16 if replacement").
pub const REPLACE_SHARED: Cycles = Cycles::new(5);

/// Extra cycles when a DirNNB miss or invalidation replaces an exclusive
/// block (Table 2: the 16 of "5-16 if replacement").
pub const REPLACE_EXCLUSIVE: Cycles = Cycles::new(16);

/// Completion-side cycles of a DirNNB remote miss after the response
/// arrives (Table 2: 34).
pub const REMOTE_MISS_FINISH: Cycles = Cycles::new(34);

/// Cycles for a DirNNB cache to process an invalidation, before the
/// replacement charge (Table 2: 8).
pub const REMOTE_INVALIDATE: Cycles = Cycles::new(8);

/// Base cycles of every DirNNB directory operation (Table 2: 16).
pub const DIR_OP_BASE: Cycles = Cycles::new(16);

/// Extra directory cycles when the operation received a data block
/// (Table 2: 11).
pub const DIR_OP_BLOCK_RECV: Cycles = Cycles::new(11);

/// Extra directory cycles per message the operation sends (Table 2: 5).
pub const DIR_OP_PER_MSG: Cycles = Cycles::new(5);

/// Extra directory cycles when the operation sends a data block
/// (Table 2: 11).
pub const DIR_OP_BLOCK_SEND: Cycles = Cycles::new(11);

// --- Table 2, "Typhoon Only", and Sections 5-6 ------------------------------

/// NP TLB entries (Table 2: 64-entry, fully associative, FIFO).
pub const NP_TLB_ENTRIES: usize = 64;

/// Reverse-TLB entries (Table 2: 64-entry, fully associative, FIFO).
pub const RTLB_ENTRIES: usize = 64;

/// Cycles to service an NP TLB or RTLB miss (Table 2: 25).
pub const NP_TLB_MISS: Cycles = Cycles::new(25);

/// NP data cache capacity in bytes (Table 2: 16 KB).
pub const NP_DCACHE_BYTES: usize = 16 * 1024;

/// NP data cache associativity (Table 2: 2-way).
pub const NP_DCACHE_ASSOC: usize = 2;

/// Cycles for the NP's hardware-assisted dispatch to start a handler
/// (Section 5.1's dispatch loop).
pub(crate) const NP_DISPATCH: Cycles = Cycles::new(4);

/// Cycles for the bus monitor to detect a block access fault, nack the
/// transaction and deposit a BAF-buffer entry (Section 5.1).
pub(crate) const NP_FAULT_DETECT: Cycles = Cycles::new(5);

/// Cycles a handler's 32-byte block transfer occupies the NP; the block
/// transfer buffer overlaps the MBus transfer with execution (Section 5.1).
pub const NP_BLOCK_XFER: Cycles = Cycles::new(12);

/// Instructions of the Stache miss handler that sends a block request
/// (Section 6: 14 in the best case).
pub const STACHE_REQUEST_INSTR: u64 = 14;

/// Instructions of the Stache home-node handler that services a request
/// and responds with data (Section 6: 30).
pub const STACHE_HOME_INSTR: u64 = 30;

/// Instructions of the Stache reply handler that installs arriving data
/// and resumes the faulting thread (Section 6: 20).
pub const STACHE_REPLY_INSTR: u64 = 20;

/// Instructions of the user-level page fault handler that allocates and
/// maps a new stache page (Section 4; not on the critical miss path).
pub const STACHE_PAGE_FAULT_INSTR: u64 = 250;

/// In [`NpMode::OnCpu`], cycles to enter and exit the handler interrupt
/// (Section 2's software Tempest has no hardware-assisted dispatch).
pub(crate) const SOFTWARE_DISPATCH: Cycles = Cycles::new(100);

/// In [`NpMode::OnCpu`], cycles to detect a block access fault in
/// software (synthesized from ECC tricks or page protection, as a CM-5
/// port would; far costlier than the bus monitor).
pub(crate) const SOFTWARE_FAULT_DETECT: Cycles = Cycles::new(250);

/// The primary CPU's cache capacity: the one cache setting a run varies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CpuConfig {
    /// Data cache capacity in bytes (Figure 3 sweeps 4 KB – 256 KB).
    pub cache_bytes: usize,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig { cache_bytes: 64 * 1024 }
    }
}

/// How the DirNNB machine assigns pages to home nodes.
///
/// The paper's DirNNB allocates pages without application knowledge;
/// Section 6 notes that its results "can be significantly improved using
/// careful data placement" (first-touch, migration) — at extra hardware
/// or programmer cost — whereas Stache gets locality automatically.
/// `RoundRobin` reproduces the paper's baseline; `Owner` models a
/// perfectly placed (first-touch-quality) DirNNB using the workload's
/// owners-compute layout, used for the Figure 4 comparison and the
/// placement ablation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DirPlacement {
    /// Pages homed round-robin by virtual page number (paper baseline).
    #[default]
    RoundRobin,
    /// Pages homed on the workload's owning node (ideal placement).
    Owner,
}

/// Compatibility shim: the benchmark in `perfbench/` still sets
/// [`SystemConfig::window_policy`]; no simulator code reads it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WindowPolicy {
    /// The only value.
    #[default]
    Adaptive,
}

/// Interconnect topology of the simulated machine (DESIGN.md §11).
///
/// The paper models an ideal constant-latency network; big-machine mode
/// replaces it with a routed 2-D mesh whose links have occupancy queues,
/// so hot-home saturation is priced per link. Routes and queuing are pure
/// functions of `(width, src, dst, per-source send history, inject
/// time)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Topology {
    /// Constant-latency pipe (`network_latency` between any pair) —
    /// the paper's model and the byte-identical default.
    #[default]
    Ideal,
    /// 2D mesh, dimension-order (X then Y) routing. `width` 0 derives
    /// `ceil(sqrt(nodes))` at install time.
    Mesh2D {
        /// Nodes per row; node `i` sits at `(i % width, i / width)`.
        width: usize,
    },
}

impl std::str::FromStr for Topology {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (name, param) = match s.split_once(':') {
            Some((n, p)) => (n, Some(p)),
            None => (s, None),
        };
        let param = match param {
            Some(p) => Some(
                p.parse::<usize>().map_err(|_| format!("bad topology parameter {p:?} in {s:?}"))?,
            ),
            None => None,
        };
        match name {
            "ideal" if param.is_none() => Ok(Topology::Ideal),
            "mesh" => Ok(Topology::Mesh2D { width: param.unwrap_or(0) }),
            _ => Err(format!("unknown topology {s:?} (ideal|mesh[:width])")),
        }
    }
}

/// CLI / provenance spelling: `ideal`, `mesh[:width]`.
impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Topology::Ideal => f.write_str("ideal"),
            Topology::Mesh2D { width: 0 } => f.write_str("mesh"),
            Topology::Mesh2D { width } => write!(f, "mesh:{width}"),
        }
    }
}

/// Where protocol handlers execute.
///
/// The paper's Section 2 notes Tempest "can also be implemented in
/// software for existing machines" (a native CM-5 version — the design
/// that became Blizzard). [`NpMode::OnCpu`] models that: handlers
/// interrupt the primary processor instead of running on a dedicated NP,
/// and fine-grain fault detection pays a software (trap-synthesis) cost
/// instead of the bus monitor's few cycles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum NpMode {
    /// Handlers run on Typhoon's dedicated network interface processor.
    #[default]
    Dedicated,
    /// Handlers interrupt the primary CPU (software Tempest).
    OnCpu,
}

impl NpMode {
    /// Cycles to start a handler under this placement.
    pub fn dispatch(self) -> Cycles {
        match self {
            NpMode::Dedicated => NP_DISPATCH,
            NpMode::OnCpu => SOFTWARE_DISPATCH,
        }
    }

    /// Cycles to detect a block access fault under this placement.
    pub fn fault_detect(self) -> Cycles {
        match self {
            NpMode::Dedicated => NP_FAULT_DETECT,
            NpMode::OnCpu => SOFTWARE_FAULT_DETECT,
        }
    }
}

/// A deterministic lossy-network fault schedule (DESIGN.md §10).
///
/// The paper assumes a reliable interconnect; this knob drops, duplicates,
/// bit-corrupts, and transiently partitions per-link traffic so the
/// protocols' retry/idempotence machinery can be exercised. Every fault
/// decision is a pure hash of `(seed, ordered link, per-link packet
/// index)` — or, for partitions, of `(seed, link, epoch run)` — so a
/// fault schedule replays bit-exactly from its seed, exactly like
/// network jitter.
///
/// Partitions are bounded by construction: time is cut into
/// `partition_epoch`-cycle epochs grouped into runs of [`PARTITION_RUN`]
/// epochs, and a partitioned run blacks out at most `PARTITION_RUN - 1`
/// epochs from its start. The last epoch of every run is always clear,
/// so a bounded retry/backoff schedule is guaranteed to get a packet
/// through eventually (unless `drop_permille` is 1000, the
/// total-blackout setting used to test graceful degradation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Seed all fault decisions derive from.
    pub seed: u64,
    /// Per-packet drop probability in permille (1000 = drop everything).
    pub drop_permille: u32,
    /// Per-packet duplication probability in permille.
    pub dup_permille: u32,
    /// Per-packet-copy corruption probability in permille. Corruption is
    /// always detected by the wire checksum, so a corrupted copy behaves
    /// like a detected drop (and is counted separately).
    pub corrupt_permille: u32,
    /// Probability in permille that a given (link, run) is partitioned.
    pub partition_permille: u32,
    /// Cycles per partition epoch (0 disables partitions entirely).
    pub partition_epoch: u64,
}

/// Epochs per partition decision run of every [`FaultSpec`]: a partition
/// lasts at most `PARTITION_RUN - 1` epochs, so the run's last epoch is
/// always clear.
pub const PARTITION_RUN: u64 = 4;

impl FaultSpec {
    /// Derives a randomized-but-bounded fault mix from one seed: the
    /// rates stay low enough that a 24-retry capped-backoff sender
    /// succeeds with overwhelming probability, so clean fuzzing sweeps
    /// stay clean.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = DetRng::new(seed).fork(11);
        FaultSpec {
            seed,
            drop_permille: rng.below(151) as u32,
            dup_permille: rng.below(151) as u32,
            corrupt_permille: rng.below(81) as u32,
            partition_permille: if rng.chance(0.5) { 100 + rng.below(201) as u32 } else { 0 },
            partition_epoch: 1024 + rng.below(2048),
        }
    }

    /// A flat loss profile for benchmark sweeps: drop and duplicate at
    /// `permille`, corrupt at half that, no partitions.
    pub fn uniform(seed: u64, permille: u32) -> Self {
        FaultSpec {
            seed,
            drop_permille: permille,
            dup_permille: permille,
            corrupt_permille: permille / 2,
            partition_permille: 0,
            partition_epoch: 0,
        }
    }
}

/// The complete configuration of a simulated target system.
///
/// # Example
///
/// ```
/// use tt_base::SystemConfig;
/// let mut cfg = SystemConfig::default();
/// cfg.cpu.cache_bytes = 4 * 1024; // the paper's smallest cache point
/// assert_eq!(cfg.network_latency.raw(), 11);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SystemConfig {
    /// Number of processing nodes (paper: 32).
    pub nodes: usize,
    /// Seed for all simulation randomness; equal seeds give bit-identical runs.
    pub seed: u64,
    /// When true, every simulated read is checked against the workload's
    /// natively computed value — an end-to-end coherence check.
    pub verify_values: bool,
    /// When true (the default), the machines use direct execution: a
    /// node's CPU keeps running guaranteed-local work inline past the
    /// scheduling quantum whenever the event queue proves nothing can
    /// interact with it: no pending event at or before the CPU's clock
    /// (`EventQueue::peek_time`). Purely a simulator-speed knob —
    /// reported cycles and statistics are identical either way;
    /// equivalence tests pin that by toggling it.
    pub direct_execution: bool,
    /// Compatibility shim for the benchmark in `perfbench/`, which still
    /// sets it: every simulation runs sequentially, and no simulator code
    /// reads this field.
    pub sim_threads: usize,
    /// Compatibility shim for the benchmark in `perfbench/` (see
    /// [`WindowPolicy`]); no simulator code reads this field.
    pub window_policy: WindowPolicy,
    /// Interconnect topology. [`Topology::Ideal`] (the default) is the
    /// paper's constant-latency pipe; a mesh routes packets over
    /// per-link occupancy queues (DESIGN.md §11). Unlike the simulator
    /// knob above this changes reported cycles — by design.
    pub topology: Topology,
    /// Deterministic lossy-network fault schedule; `None` (the default)
    /// is the paper's reliable interconnect. Machines that model the
    /// network install this as a `tt_net::FaultPlan`; protocol stacks
    /// must then be wrapped in a reliable transport (see
    /// `tt_stache::Reliable`) to survive it.
    pub fault: Option<FaultSpec>,
    /// Bytes of local memory each node may devote to stache pages.
    /// `usize::MAX` (the default) means "as much as needed"; benchmarks of
    /// page replacement set a finite budget.
    pub stache_capacity_bytes: usize,
    /// Primary CPU cache capacity (Figure 3 sweeps it).
    pub cpu: CpuConfig,
    /// One-way network latency between any two nodes (Table 2: 11;
    /// ablation 2 sweeps it). Also the CPU scheduling quantum.
    pub network_latency: Cycles,
    /// DirNNB page-to-home assignment (Figure 4 and ablation 5 use
    /// [`DirPlacement::Owner`]).
    pub placement: DirPlacement,
    /// Multiplier applied to every Stache handler path length; 1.0
    /// reproduces the paper (ablation 1 sweeps it, DESIGN.md §5.2).
    pub handler_cost_scale: f64,
    /// Where Typhoon's handlers execute: the dedicated NP or the primary
    /// CPU (ablation 4).
    pub np_mode: NpMode,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            nodes: 32,
            seed: 0x7EA9_0457,
            verify_values: false,
            direct_execution: true,
            sim_threads: 1,
            window_policy: WindowPolicy::Adaptive,
            topology: Topology::Ideal,
            fault: None,
            stache_capacity_bytes: usize::MAX,
            cpu: CpuConfig::default(),
            network_latency: Cycles::new(11),
            placement: DirPlacement::RoundRobin,
            handler_cost_scale: 1.0,
            np_mode: NpMode::Dedicated,
        }
    }
}

impl SystemConfig {
    /// A small configuration convenient for tests: `nodes` nodes, 4 KB
    /// caches, value verification on.
    #[allow(clippy::field_reassign_with_default)] // mutate-after-default is the config idiom
    pub fn test_config(nodes: usize) -> Self {
        let mut cfg = SystemConfig::default();
        cfg.nodes = nodes;
        cfg.cpu.cache_bytes = 4 * 1024;
        cfg.verify_values = true;
        cfg
    }

    /// Effective instruction count for a Stache handler after applying the
    /// ablation scale factor, as whole cycles.
    pub fn scaled_handler_instr(&self, base: u64) -> u64 {
        ((base as f64) * self.handler_cost_scale).round() as u64
    }

    /// Checks the settings no simulation can run with: `nodes` must lie
    /// in `1..=65_535`, since node ids are 16-bit and the event-key
    /// scheme reserves origin id 0 for machine-global events.
    pub fn validate(&self) -> Result<(), String> {
        let max = usize::from(u16::MAX);
        if !(1..=max).contains(&self.nodes) {
            return Err(format!("nodes must be between 1 and {max}, got {}", self.nodes));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_2() {
        let c = SystemConfig::default();
        assert_eq!(c.nodes, 32);
        assert_eq!(c.cpu.cache_bytes, 64 * 1024);
        assert_eq!(c.network_latency.raw(), 11);
        assert_eq!(c.placement, DirPlacement::RoundRobin);
        assert_eq!(c.handler_cost_scale, 1.0);
        assert_eq!(c.np_mode, NpMode::Dedicated);
        assert_eq!(CACHE_ASSOC, 4);
        assert_eq!(TLB_ENTRIES, 64);
        assert_eq!(LOCAL_MISS.raw(), 29);
        assert_eq!(TLB_MISS.raw(), 25);
        assert_eq!(BARRIER_LATENCY.raw(), 11);
        assert_eq!(REMOTE_MISS_REQUEST.raw(), 23);
        assert_eq!(REPLACE_SHARED.raw(), 5);
        assert_eq!(REPLACE_EXCLUSIVE.raw(), 16);
        assert_eq!(REMOTE_MISS_FINISH.raw(), 34);
        assert_eq!(REMOTE_INVALIDATE.raw(), 8);
        assert_eq!(DIR_OP_BASE.raw(), 16);
        assert_eq!(DIR_OP_BLOCK_RECV.raw(), 11);
        assert_eq!(DIR_OP_PER_MSG.raw(), 5);
        assert_eq!(DIR_OP_BLOCK_SEND.raw(), 11);
        assert_eq!(NP_TLB_ENTRIES, 64);
        assert_eq!(RTLB_ENTRIES, 64);
        assert_eq!(NP_TLB_MISS.raw(), 25);
        assert_eq!(NP_DCACHE_BYTES, 16 * 1024);
        assert_eq!(NP_DCACHE_ASSOC, 2);
        assert_eq!(STACHE_REQUEST_INSTR, 14);
        assert_eq!(STACHE_HOME_INSTR, 30);
        assert_eq!(STACHE_REPLY_INSTR, 20);
    }

    #[test]
    fn np_mode_picks_dispatch_and_fault_detect_costs() {
        assert_eq!(NpMode::Dedicated.dispatch(), NP_DISPATCH);
        assert_eq!(NpMode::Dedicated.fault_detect(), NP_FAULT_DETECT);
        assert_eq!(NpMode::OnCpu.dispatch(), SOFTWARE_DISPATCH);
        assert_eq!(NpMode::OnCpu.fault_detect(), SOFTWARE_FAULT_DETECT);
    }

    #[test]
    fn validate_bounds_the_node_count() {
        let mut c = SystemConfig::default();
        assert_eq!(c.validate(), Ok(()));
        for (nodes, ok) in [(0, false), (1, true), (65_535, true), (65_536, false)] {
            c.nodes = nodes;
            assert_eq!(c.validate().is_ok(), ok, "{nodes} nodes");
        }
    }

    #[test]
    fn topology_parses_round_trip() {
        for t in [Topology::Ideal, Topology::Mesh2D { width: 0 }, Topology::Mesh2D { width: 8 }] {
            assert_eq!(t.to_string().parse::<Topology>(), Ok(t));
        }
        assert_eq!("mesh".parse::<Topology>(), Ok(Topology::Mesh2D { width: 0 }));
        assert!("fat-tree".parse::<Topology>().is_err());
        assert!("fattree:2".parse::<Topology>().is_err());
        assert!("torus".parse::<Topology>().is_err());
        assert!("mesh:x".parse::<Topology>().is_err());
        assert!("ideal:3".parse::<Topology>().is_err());
        assert_eq!(Topology::default(), Topology::Ideal);
    }

    #[test]
    fn fault_spec_derivation_is_deterministic_and_bounded() {
        for seed in 0..200 {
            let a = FaultSpec::from_seed(seed);
            assert_eq!(a, FaultSpec::from_seed(seed));
            assert!(a.drop_permille <= 150);
            assert!(a.dup_permille <= 150);
            assert!(a.corrupt_permille <= 80);
            assert!(a.partition_permille <= 300);
            assert!(a.partition_epoch >= 1024);
        }
        assert!(
            (0..50).any(|s| FaultSpec::from_seed(s).partition_permille > 0),
            "partitions must be exercised"
        );
        let u = FaultSpec::uniform(7, 100);
        assert_eq!(u.drop_permille, 100);
        assert_eq!(u.partition_permille, 0);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn handler_scale() {
        let mut c = SystemConfig::default();
        c.handler_cost_scale = 2.0;
        assert_eq!(c.scaled_handler_instr(14), 28);
        c.handler_cost_scale = 0.5;
        assert_eq!(c.scaled_handler_instr(30), 15);
    }
}
