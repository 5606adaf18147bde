//! The primary-processor model: an in-order CPU executing a workload op
//! stream through its data cache and TLB, with fine-grain tag checks
//! applied to its bus transactions.
//!
//! The CPU charges one cycle per op (the paper's approximation of one
//! cycle per instruction) plus Table 2 memory-system delays. Tag checks
//! happen exactly where Typhoon's hardware applies them: on *bus
//! transactions* (cache misses and write-upgrades), never on cache hits —
//! so a block cached before its tag was downgraded keeps hitting until
//! the NP purges it, which the `TempestCtx::set_tag` implementation does.

use tt_base::addr::{PAddr, VAddr};
use tt_base::config::{SystemConfig, CACHE_ASSOC, LOCAL_MISS, NP_TLB_MISS, TLB_ENTRIES, TLB_MISS};
use tt_base::stats::Counter;
use tt_base::{Cycles, NodeId};
use tt_mem::cache::Probe;
use tt_mem::{AccessKind, CacheModel, FifoTlb, NodeMemory, PageTable, Tag};
use tt_sim::cpu::Stream;
use tt_tempest::{BlockFault, PageFault, ThreadId};

use crate::np::NpState;

/// Typhoon's per-CPU statistics; the counters every machine keeps
/// (ops, compute, idle, barrier wait, stalls) live on the shared
/// [`Stream`].
#[derive(Clone, Debug, Default)]
pub struct CpuStats {
    /// Tag-checked loads executed to completion.
    pub reads: Counter,
    /// Tag-checked stores executed to completion.
    pub writes: Counter,
    /// Cache misses satisfied locally without protocol involvement.
    pub local_misses: Counter,
    /// Write-upgrades on locally writable blocks.
    pub upgrades: Counter,
    /// Block access faults taken.
    pub block_faults: Counter,
    /// Page faults taken.
    pub page_faults: Counter,
    /// RTLB misses observed on this CPU's bus transactions.
    pub rtlb_misses: Counter,
}

/// One node's primary processor: the shared op-stream state plus the
/// cache, TLB and statistics of Typhoon's bus model.
#[derive(Debug)]
pub struct CpuState {
    /// This node's id.
    pub id: NodeId,
    /// The data cache (Table 2: 4-way, random replacement).
    pub cache: CacheModel,
    /// The CPU TLB (Table 2: 64-entry fully associative FIFO).
    pub tlb: FifoTlb<tt_base::addr::Vpn>,
    /// The op stream this CPU executes (see [`tt_sim::cpu`]).
    pub stream: Stream,
    /// Statistics.
    pub stats: CpuStats,
}

impl CpuState {
    /// Creates a CPU with the configured cache and TLB.
    pub fn new(id: NodeId, cfg: &SystemConfig, rng: tt_base::DetRng) -> Self {
        CpuState {
            id,
            cache: CacheModel::new(
                cfg.cpu.cache_bytes,
                CACHE_ASSOC,
                tt_base::addr::BLOCK_BYTES,
                rng,
            ),
            tlb: FifoTlb::new(TLB_ENTRIES),
            stream: Stream::default(),
            stats: CpuStats::default(),
        }
    }

    /// The thread handle of this CPU's computation thread.
    pub fn thread(&self) -> ThreadId {
        ThreadId(self.id)
    }
}

/// Outcome of attempting one tag-checked access.
#[derive(Clone, Debug, PartialEq)]
pub enum AccessOutcome {
    /// Access completed; `cost` cycles elapsed (including the 1-cycle op).
    Done {
        /// Total cycles the access took.
        cost: Cycles,
        /// The value loaded, for reads.
        value: Option<u64>,
    },
    /// The page is unmapped: page fault, `cost` cycles elapsed first.
    PageFault(PageFault, Cycles),
    /// The block tag forbids the access: block fault after `cost` cycles.
    BlockFault(BlockFault, Cycles),
}

/// Executes one tag-checked access against the node's memory system.
///
/// This is the heart of the Typhoon bus model: the access hits the CPU
/// cache when it can, and otherwise becomes a bus transaction that the
/// NP's RTLB checks against the block's tag. The order of charges follows
/// Table 2: base cycle, TLB miss, RTLB miss (a nacked-and-retried
/// transaction), then the local miss or the fault path.
#[allow(clippy::too_many_arguments)] // free function so the machine can split borrows
pub fn exec_access(
    cfg: &SystemConfig,
    cpu: &mut CpuState,
    np: &mut NpState,
    mem: &mut NodeMemory,
    ptable: &PageTable,
    addr: VAddr,
    kind: AccessKind,
    store_value: u64,
) -> AccessOutcome {
    let mut cost = Cycles::new(1);

    // Virtual address translation.
    if !cpu.tlb.access(addr.page()) {
        cost += TLB_MISS;
    }
    let Some(ppn) = ptable.translate(addr.page()) else {
        cpu.stats.page_faults.inc();
        let fault = PageFault { thread: cpu.thread(), addr, kind };
        return AccessOutcome::PageFault(fault, cost);
    };
    let paddr = PAddr::new(ppn.base().raw() + addr.page_offset());
    let block_key = paddr.raw() / tt_base::addr::BLOCK_BYTES as u64;

    let probe = cpu.cache.probe(block_key);
    let needs_bus = match (probe, kind) {
        (Probe::HitOwned, _) | (Probe::HitShared, AccessKind::Load) => false,
        (Probe::HitShared, AccessKind::Store) | (Probe::Miss, _) => true,
    };

    if needs_bus {
        // The NP snoops the transaction; its RTLB must hold the page. A
        // miss nacks the transaction while the entry is fetched (25 cy).
        if !np.rtlb.access(ppn) {
            cost += NP_TLB_MISS;
            cpu.stats.rtlb_misses.inc();
        }
        let tag = mem.tag(paddr);
        let permitted = tag.permits(kind);
        if !permitted {
            cpu.stats.block_faults.inc();
            let frame = mem.frame(ppn);
            let fault = BlockFault { thread: cpu.thread(), addr, kind, tag, meta: frame.meta };
            return AccessOutcome::BlockFault(fault, cost + cfg.np_mode.fault_detect());
        }
        match probe {
            Probe::HitShared => {
                // Write-upgrade on a ReadWrite-tagged block: invalidate
                // transaction on the bus, memory grants ownership.
                debug_assert_eq!(tag, Tag::ReadWrite);
                cost += LOCAL_MISS;
                cpu.cache.set_owned(block_key, true);
                cpu.stats.upgrades.inc();
            }
            Probe::Miss => {
                cost += LOCAL_MISS;
                // ReadOnly blocks fill shared (the NP asserts the
                // "shared" line so the CPU never owns them); ReadWrite
                // blocks fill owned. Writebacks are free (Table 2).
                let owned = tag == Tag::ReadWrite;
                cpu.cache.fill(block_key, owned);
                cpu.stats.local_misses.inc();
            }
            Probe::HitOwned => unreachable!("owned hits do not reach the bus"),
        }
    }

    // Functional completion: values live in local memory (functionally
    // write-through; timing-wise the write buffer is perfect, Table 2).
    let value = match kind {
        AccessKind::Load => {
            cpu.stats.reads.inc();
            Some(mem.read_word(paddr))
        }
        AccessKind::Store => {
            cpu.stats.writes.inc();
            mem.write_word(paddr, store_value);
            None
        }
    };
    AccessOutcome::Done { cost, value }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_base::addr::Vpn;
    use tt_base::DetRng;
    use tt_mem::PageMeta;

    fn setup() -> (SystemConfig, CpuState, NpState, NodeMemory, PageTable) {
        let cfg = SystemConfig::test_config(2);
        let cpu = CpuState::new(NodeId::new(0), &cfg, DetRng::new(1));
        let np = NpState::new(DetRng::new(2));
        let mut mem = NodeMemory::new();
        let mut pt = PageTable::new();
        let ppn = mem.alloc();
        pt.map(Vpn(0x10000), ppn).unwrap();
        mem.frame_mut(ppn).set_all_tags(Tag::ReadWrite);
        mem.frame_mut(ppn).meta = PageMeta { vpn: Some(Vpn(0x10000)), mode: 0, user: [0, 0] };
        (cfg, cpu, np, mem, pt)
    }

    const VA: u64 = 0x10000 * 4096;

    #[test]
    fn first_access_pays_tlb_rtlb_and_miss() {
        let (cfg, mut cpu, mut np, mut mem, pt) = setup();
        let out = exec_access(
            &cfg,
            &mut cpu,
            &mut np,
            &mut mem,
            &pt,
            VAddr::new(VA),
            AccessKind::Load,
            0,
        );
        // 1 (op) + 25 (TLB) + 25 (RTLB) + 29 (local miss) = 80
        match out {
            AccessOutcome::Done { cost, value } => {
                assert_eq!(cost, Cycles::new(80));
                assert_eq!(value, Some(0));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(cpu.stats.local_misses.get(), 1);
    }

    #[test]
    fn second_access_hits_for_one_cycle() {
        let (cfg, mut cpu, mut np, mut mem, pt) = setup();
        let a = VAddr::new(VA);
        exec_access(&cfg, &mut cpu, &mut np, &mut mem, &pt, a, AccessKind::Load, 0);
        let out = exec_access(&cfg, &mut cpu, &mut np, &mut mem, &pt, a, AccessKind::Load, 0);
        assert_eq!(out, AccessOutcome::Done { cost: Cycles::new(1), value: Some(0) });
    }

    #[test]
    fn store_to_rw_block_fills_owned_then_hits() {
        let (cfg, mut cpu, mut np, mut mem, pt) = setup();
        let a = VAddr::new(VA + 32);
        exec_access(&cfg, &mut cpu, &mut np, &mut mem, &pt, a, AccessKind::Store, 5);
        let key = pt.translate_addr(a).unwrap().raw() / 32;
        assert_eq!(cpu.cache.peek(key), Probe::HitOwned);
        assert_eq!(mem.read_word(pt.translate_addr(a).unwrap()), 5);
        // Subsequent store hits silently.
        let out = exec_access(&cfg, &mut cpu, &mut np, &mut mem, &pt, a, AccessKind::Store, 6);
        match out {
            AccessOutcome::Done { cost, .. } => assert_eq!(cost, Cycles::new(1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn read_only_block_fills_shared_and_store_faults() {
        let (cfg, mut cpu, mut np, mut mem, pt) = setup();
        let a = VAddr::new(VA + 64);
        let pa = pt.translate_addr(a).unwrap();
        mem.set_tag(pa, Tag::ReadOnly);
        exec_access(&cfg, &mut cpu, &mut np, &mut mem, &pt, a, AccessKind::Load, 0);
        assert_eq!(cpu.cache.peek(pa.raw() / 32), Probe::HitShared);
        let out = exec_access(&cfg, &mut cpu, &mut np, &mut mem, &pt, a, AccessKind::Store, 0);
        match out {
            AccessOutcome::BlockFault(f, _) => {
                assert_eq!(f.tag, Tag::ReadOnly);
                assert_eq!(f.kind, AccessKind::Store);
            }
            other => panic!("expected block fault, got {other:?}"),
        }
        assert_eq!(cpu.stats.block_faults.get(), 1);
    }

    #[test]
    fn invalid_block_faults_on_load() {
        let (cfg, mut cpu, mut np, mut mem, pt) = setup();
        let a = VAddr::new(VA + 96);
        mem.set_tag(pt.translate_addr(a).unwrap(), Tag::Invalid);
        let out = exec_access(&cfg, &mut cpu, &mut np, &mut mem, &pt, a, AccessKind::Load, 0);
        assert!(matches!(out, AccessOutcome::BlockFault(f, _) if f.tag == Tag::Invalid));
    }

    #[test]
    fn unmapped_page_faults() {
        let (cfg, mut cpu, mut np, mut mem, pt) = setup();
        let out = exec_access(
            &cfg,
            &mut cpu,
            &mut np,
            &mut mem,
            &pt,
            VAddr::new(0x9999 * 4096),
            AccessKind::Store,
            0,
        );
        assert!(matches!(out, AccessOutcome::PageFault(..)));
        assert_eq!(cpu.stats.page_faults.get(), 1);
    }

    #[test]
    fn functional_values_flow_through_memory() {
        let (cfg, mut cpu, mut np, mut mem, pt) = setup();
        let a = VAddr::new(VA + 128);
        let pa = pt.translate_addr(a).unwrap();
        mem.write_word(pa, 77);
        let out = exec_access(&cfg, &mut cpu, &mut np, &mut mem, &pt, a, AccessKind::Load, 0);
        match out {
            AccessOutcome::Done { value, .. } => assert_eq!(value, Some(77)),
            other => panic!("unexpected {other:?}"),
        }
    }
}
