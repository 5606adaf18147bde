//! The machine-independent workload model.
//!
//! The paper runs unmodified SPARC binaries under the Wisconsin Wind
//! Tunnel. This reproduction instead drives the simulated machines with
//! *op streams*: each simulated processor pulls a lazily generated
//! sequence of [`Op`]s — compute spans, tag-checked shared-memory reads
//! and writes, barriers, and explicit protocol calls. The five benchmark
//! kernels in `tt-apps` generate these streams while natively computing
//! the same values, so every simulated read can be verified against the
//! value a sequentially consistent execution would produce.
//!
//! A workload also declares its shared-segment [`Layout`]: which address
//! ranges exist, which node is *home* for each page, and the page `mode`
//! protocols use to select custom handlers (the EM3D update protocol
//! marks its graph-node pages with a custom mode, Section 4).
//!
//! Both machines (`tt-typhoon`, `tt-dirnnb`) consume the same streams and
//! the same layout, so measured differences come from the memory-system
//! policies alone.

use crate::addr::{VAddr, Vpn, PAGE_BYTES};
use crate::ids::NodeId;

/// Base virtual address of the user-managed shared segment.
///
/// Matches the paper's model of "a large user-reserved address range"
/// (Section 2.3); private data is below it and is modeled as compute time.
pub const SHARED_SEGMENT_BASE: u64 = 0x1000_0000;

/// One step of a processor's program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Local computation (private loads/stores, ALU, FP) for this many cycles.
    Compute(u32),
    /// A tag-checked load of the 64-bit word at `addr`. If `expect` is
    /// set and the machine's `verify_values` flag is on, the machine
    /// asserts the loaded value equals it.
    Read {
        /// Word-aligned shared virtual address.
        addr: VAddr,
        /// The value a sequentially consistent execution would load.
        expect: Option<u64>,
    },
    /// A tag-checked load of the 64-bit word at `addr` whose observed
    /// value is appended to the processor's *recorded-read log* (exposed
    /// by each machine after the run). Litmus harnesses use this to
    /// check outcome combinations across processors — the classic
    /// weak-memory shapes (SB, MP, LB, IRIW) need the values racy reads
    /// actually returned, which `Read { expect: None }` discards.
    ReadRecord {
        /// Word-aligned shared virtual address.
        addr: VAddr,
    },
    /// A tag-checked store of `value` to the 64-bit word at `addr`.
    Write {
        /// Word-aligned shared virtual address.
        addr: VAddr,
        /// The value stored.
        value: u64,
    },
    /// Global barrier across all processors.
    Barrier,
    /// An explicit call into the node's protocol library (e.g. the EM3D
    /// end-of-phase flush). Suspends the thread until the protocol
    /// resumes it.
    UserCall {
        /// Protocol-defined operation code.
        op: u32,
        /// Protocol-defined argument.
        arg: u64,
    },
    /// Open-loop idling: advance this processor's clock to `until` (an
    /// absolute simulated cycle) if it is not already past it; otherwise
    /// a free no-op. Serving workloads use this to realize scheduled
    /// request arrival times independently of how long earlier requests
    /// took — the open-loop client model, where queueing delay shows up
    /// in latency instead of being hidden by a slowed-down generator.
    /// The processor never suspends and no event is consumed, so the op
    /// is exactly as cheap and as deterministic as a `Compute` span.
    WaitUntil {
        /// Absolute cycle the processor's clock must reach before the
        /// next op.
        until: u64,
    },
}

/// How pages of a region are assigned home nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Page `i` of the region lives on node `i mod nodes` (the paper's
    /// round-robin default, IVY's "fixed distributed manager").
    Cyclic,
    /// Explicit per-page homes (owner-compute allocation).
    PerPage(Vec<NodeId>),
}

/// A contiguous range of the shared segment with a home policy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Region {
    /// Page-aligned base address.
    pub base: VAddr,
    /// Length in bytes (rounded up to whole pages).
    pub bytes: usize,
    /// Home-node assignment for the region's pages.
    pub placement: Placement,
    /// Protocol page mode (0 = default transparent shared memory; custom
    /// protocols define their own, see `tt-stache::custom`).
    pub mode: u8,
}

impl Region {
    /// Number of whole pages covering the region.
    pub fn pages(&self) -> usize {
        self.bytes.div_ceil(PAGE_BYTES)
    }

    /// The home node of the region page containing `vpn`, given the
    /// machine size.
    fn home_of(&self, vpn: Vpn, nodes: usize) -> Option<NodeId> {
        let first = self.base.page().0;
        let idx = vpn.0.checked_sub(first)? as usize;
        if idx >= self.pages() {
            return None;
        }
        Some(match &self.placement {
            Placement::Cyclic => NodeId::new((idx % nodes) as u16),
            Placement::PerPage(homes) => homes[idx],
        })
    }
}

/// The shared-segment layout a workload declares.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Layout {
    /// The regions, in increasing address order, non-overlapping
    /// ([`Layout::add`] enforces both).
    pub regions: Vec<Region>,
}

impl Layout {
    /// An empty layout.
    pub fn new() -> Self {
        Layout::default()
    }

    /// Adds a region above every region already present.
    ///
    /// # Panics
    ///
    /// Panics if `region` starts below the end of the last region (out
    /// of address order, or overlapping it): [`Layout::home_of`]'s
    /// binary search relies on that order.
    pub fn add(&mut self, region: Region) -> &mut Self {
        if let Some(last) = self.regions.last() {
            let end = last.base.page().0 + last.pages() as u64;
            assert!(
                region.base.page().0 >= end,
                "layout regions must be added in increasing address order without \
                 overlap: region at {:#x} starts below the end of the region at {:#x}",
                region.base.raw(),
                last.base.raw(),
            );
        }
        self.regions.push(region);
        self
    }

    /// The home node and page mode for `vpn`, if any region covers it:
    /// a binary search over the ordered regions.
    pub fn home_of(&self, vpn: Vpn, nodes: usize) -> Option<(NodeId, u8)> {
        let above = self.regions.partition_point(|r| r.base.page() <= vpn);
        let r = &self.regions[above.checked_sub(1)?];
        r.home_of(vpn, nodes).map(|h| (h, r.mode))
    }

    /// Iterates over every `(vpn, home, mode)` of the layout, in
    /// ascending page order.
    pub fn pages(&self, nodes: usize) -> impl Iterator<Item = (Vpn, NodeId, u8)> + '_ {
        self.regions.iter().flat_map(move |r| {
            let first = r.base.page().0;
            (0..r.pages() as u64).map(move |i| {
                let vpn = Vpn(first + i);
                let home = r.home_of(vpn, nodes).expect("page within region");
                (vpn, home, r.mode)
            })
        })
    }
}

/// A parallel program: one op stream per processor, plus a layout.
///
/// Streams are pulled in bounded *chunks* so that workloads with hundreds
/// of millions of ops never materialize them all at once.
///
/// `Send` so a workload can be built on one thread and simulated on
/// another; the machine is its only puller, so no `Sync` bound.
pub trait Workload: Send {
    /// The shared-segment layout. Called once before the run.
    fn layout(&self) -> Layout;

    /// The next chunk of ops for processor `cpu`, or `None` when that
    /// processor's program has ended. Chunks may be any nonzero length;
    /// the machine consumes them in order.
    fn next_chunk(&mut self, cpu: NodeId) -> Option<Vec<Op>>;
}

/// Merges runs of consecutive [`Op::Compute`] ops in place, saturating
/// each merged span at `u32::MAX` (a new op is started on overflow).
///
/// A chunk's total compute cycles — and therefore every simulated clock —
/// is unchanged; only the number of ops the machine's inner loop touches
/// shrinks. Workload generators that interleave many small compute spans
/// (address arithmetic, per-element work) call this once per chunk at
/// emission time.
pub fn coalesce_computes(ops: &mut Vec<Op>) {
    let mut w = 0usize;
    for r in 0..ops.len() {
        let op = ops[r];
        if let (Some(prev_i), Op::Compute(k)) = (w.checked_sub(1), op) {
            if let Op::Compute(prev) = ops[prev_i] {
                let sum = prev as u64 + k as u64;
                if sum <= u32::MAX as u64 {
                    ops[prev_i] = Op::Compute(sum as u32);
                    continue;
                }
            }
        }
        ops[w] = op;
        w += 1;
    }
    ops.truncate(w);
}

/// A workload built from explicit per-processor op scripts.
///
/// Useful for tests, examples, and microbenchmarks where the exact access
/// sequence matters more than realism.
///
/// # Example
///
/// ```
/// use tt_base::workload::{Op, ScriptWorkload, SHARED_SEGMENT_BASE};
/// use tt_base::{NodeId, VAddr};
///
/// let mut w = ScriptWorkload::new(2);
/// w.set(0, vec![Op::Write { addr: VAddr::new(SHARED_SEGMENT_BASE), value: 1 }]);
/// w.set(1, vec![Op::Compute(10)]);
/// assert_eq!(w.next_chunk(NodeId::new(1)).unwrap().len(), 1);
/// # use tt_base::workload::Workload;
/// ```
#[derive(Clone, Debug)]
pub struct ScriptWorkload {
    layout: Layout,
    per_cpu: Vec<Option<Vec<Op>>>,
}

impl ScriptWorkload {
    /// A script workload for `nodes` processors with an empty layout.
    pub fn new(nodes: usize) -> Self {
        ScriptWorkload {
            layout: Layout::new(),
            per_cpu: vec![Some(Vec::new()); nodes],
        }
    }

    /// Sets the layout.
    pub fn with_layout(mut self, layout: Layout) -> Self {
        self.layout = layout;
        self
    }

    /// Sets processor `cpu`'s full op script.
    pub fn set(&mut self, cpu: usize, ops: Vec<Op>) {
        self.per_cpu[cpu] = Some(ops);
    }
}

impl Workload for ScriptWorkload {
    fn layout(&self) -> Layout {
        self.layout.clone()
    }

    fn next_chunk(&mut self, cpu: NodeId) -> Option<Vec<Op>> {
        self.per_cpu[cpu.index()].take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(base_page: u64, pages: usize, placement: Placement) -> Region {
        Region {
            base: VAddr::new(base_page * PAGE_BYTES as u64),
            bytes: pages * PAGE_BYTES,
            placement,
            mode: 0,
        }
    }

    #[test]
    fn cyclic_placement_round_robins() {
        let mut l = Layout::new();
        l.add(region(0x10000, 5, Placement::Cyclic));
        assert_eq!(l.home_of(Vpn(0x10000), 4), Some((NodeId::new(0), 0)));
        assert_eq!(l.home_of(Vpn(0x10001), 4), Some((NodeId::new(1), 0)));
        assert_eq!(l.home_of(Vpn(0x10004), 4), Some((NodeId::new(0), 0)));
        assert_eq!(l.home_of(Vpn(0x10005), 4), None, "past the region");
        assert_eq!(l.home_of(Vpn(0xFFFF), 4), None, "before the region");
    }

    #[test]
    fn per_page_placement() {
        let homes = vec![NodeId::new(3), NodeId::new(1)];
        let mut l = Layout::new();
        l.add(region(0x20000, 2, Placement::PerPage(homes)));
        assert_eq!(l.home_of(Vpn(0x20000), 8), Some((NodeId::new(3), 0)));
        assert_eq!(l.home_of(Vpn(0x20001), 8), Some((NodeId::new(1), 0)));
    }

    #[test]
    fn pages_enumerates_all() {
        let mut l = Layout::new();
        l.add(region(0x10000, 3, Placement::Cyclic));
        l.add(region(0x20000, 2, Placement::Cyclic));
        let pages: Vec<_> = l.pages(2).collect();
        assert_eq!(pages.len(), 5);
        assert_eq!(pages[0], (Vpn(0x10000), NodeId::new(0), 0));
        assert_eq!(pages[1], (Vpn(0x10001), NodeId::new(1), 0));
    }

    #[test]
    fn partial_page_rounds_up() {
        let r = Region {
            base: VAddr::new(0),
            bytes: PAGE_BYTES + 1,
            placement: Placement::Cyclic,
            mode: 0,
        };
        assert_eq!(r.pages(), 2);
    }

    #[test]
    fn coalesce_merges_runs_and_preserves_total() {
        let mut ops = vec![
            Op::Compute(3),
            Op::Compute(4),
            Op::Compute(5),
            Op::Barrier,
            Op::Compute(1),
            Op::Read { addr: VAddr::new(SHARED_SEGMENT_BASE), expect: None },
            Op::Compute(2),
            Op::Compute(9),
        ];
        let total: u64 = ops
            .iter()
            .map(|op| match op {
                Op::Compute(k) => *k as u64,
                _ => 0,
            })
            .sum();
        coalesce_computes(&mut ops);
        assert_eq!(
            ops,
            vec![
                Op::Compute(12),
                Op::Barrier,
                Op::Compute(1),
                Op::Read { addr: VAddr::new(SHARED_SEGMENT_BASE), expect: None },
                Op::Compute(11),
            ]
        );
        let after: u64 = ops
            .iter()
            .map(|op| match op {
                Op::Compute(k) => *k as u64,
                _ => 0,
            })
            .sum();
        assert_eq!(total, after);
    }

    #[test]
    fn coalesce_splits_on_u32_overflow() {
        let mut ops = vec![
            Op::Compute(u32::MAX - 1),
            Op::Compute(10),
            Op::Compute(5),
        ];
        coalesce_computes(&mut ops);
        assert_eq!(ops, vec![Op::Compute(u32::MAX - 1), Op::Compute(15)]);
    }

    #[test]
    fn coalesce_handles_empty_and_singleton() {
        let mut empty: Vec<Op> = vec![];
        coalesce_computes(&mut empty);
        assert!(empty.is_empty());
        let mut one = vec![Op::Barrier];
        coalesce_computes(&mut one);
        assert_eq!(one, vec![Op::Barrier]);
    }

    #[test]
    fn one_page_region_lookup() {
        let mut l = Layout::new();
        l.add(region(0x1000, 1, Placement::PerPage(vec![NodeId::new(7)])));
        assert_eq!(l.home_of(Vpn(0x1000), 32), Some((NodeId::new(7), 0)));
    }

    #[test]
    fn lookup_finds_every_region_and_no_gap() {
        let mut l = Layout::new();
        l.add(region(0x10, 2, Placement::Cyclic));
        l.add(region(0x20, 0, Placement::Cyclic));
        l.add(region(0x20, 3, Placement::PerPage(vec![NodeId::new(5); 3])));
        l.add(region(0x23, 1, Placement::Cyclic));
        for (vpn, home, mode) in l.pages(4) {
            assert_eq!(l.home_of(vpn, 4), Some((home, mode)));
        }
        for gap in [0x0, 0xF, 0x12, 0x1F, 0x24, 0x1000] {
            assert_eq!(l.home_of(Vpn(gap), 4), None, "page {gap:#x}");
        }
    }

    #[test]
    #[should_panic(expected = "increasing address order")]
    fn add_rejects_an_out_of_order_region() {
        let mut l = Layout::new();
        l.add(region(0x20, 1, Placement::Cyclic));
        l.add(region(0x10, 1, Placement::Cyclic));
    }

    #[test]
    #[should_panic(expected = "without overlap")]
    fn add_rejects_an_overlapping_region() {
        let mut l = Layout::new();
        l.add(region(0x10, 4, Placement::Cyclic));
        l.add(region(0x13, 1, Placement::Cyclic));
    }
}
