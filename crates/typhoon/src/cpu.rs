//! Typhoon's side of the primary processor: the bus model that applies
//! fine-grain tag checks to the CPU's bus transactions.
//!
//! The processor itself — op stream, data cache, TLB, access counters,
//! retirement — is the one both machines share ([`tt_sim::cpu::Cpu`]).
//! What Typhoon adds sits on the bus: tag checks happen exactly where
//! Typhoon's hardware applies them, on *bus transactions* (cache misses
//! and write-upgrades), never on cache hits — so a block cached before
//! its tag was downgraded keeps hitting until the NP purges it, which
//! the `TempestCtx::set_tag` implementation does.

use tt_base::addr::{PAddr, BLOCK_BYTES};
use tt_base::config::{SystemConfig, LOCAL_MISS, NP_TLB_MISS};
use tt_base::stats::Counter;
use tt_mem::{AccessKind, Tag};
use tt_sim::cpu::{Access, Flow, Lookup, Stall};
use tt_sim::EventQueue;
use tt_tempest::{BlockFault, PageFault, ThreadId};

use crate::machine::{Event, NodeState};
use crate::np::NpWork;

/// The bus monitor's per-node counters; the access counters every
/// machine keeps live on the shared [`tt_sim::cpu::Cpu`].
#[derive(Clone, Debug, Default)]
pub(crate) struct BusStats {
    /// Block access faults taken.
    pub(crate) block_faults: Counter,
    /// Page faults taken.
    pub(crate) page_faults: Counter,
    /// RTLB misses observed on the CPU's bus transactions.
    pub(crate) rtlb_misses: Counter,
}

/// Executes one tag-checked access for the node's CPU: on success it
/// retires the op; on a page or block fault it suspends
/// the CPU and hands the fault to the node's NP. The op loop issues
/// accesses through here, and so does a fault handler's resume, which
/// retries the faulted access before the NP dispatches again.
///
/// The access hits the CPU cache when it can, and otherwise becomes a
/// bus transaction that the NP's RTLB checks against the block's tag.
/// The order of charges follows Table 2: base cycle, TLB miss, RTLB miss
/// (a nacked-and-retried transaction), then the local miss or the fault
/// path.
pub(crate) fn issue_access(
    cfg: &SystemConfig,
    node: &mut NodeState,
    queue: &mut EventQueue<Event>,
    access: Access,
) -> Flow {
    let NodeState { cpu, np, mem, ptable, bus } = node;
    let Access { addr, kind, value, .. } = access;
    let thread = ThreadId(cpu.id);
    let mut cost = cpu.translate(addr);
    let work = 'fault: {
        let Some(ppn) = ptable.translate(addr.page()) else {
            bus.page_faults.inc();
            cost += cfg.np_mode.fault_detect();
            break 'fault NpWork::PageFault(PageFault { thread, addr, kind });
        };
        let paddr = PAddr::new(ppn.base().raw() + addr.page_offset());
        let key = paddr.raw() / BLOCK_BYTES as u64;
        let lookup = cpu.lookup(key, kind);
        if lookup != Lookup::Hit {
            // The NP snoops the transaction; its RTLB must hold the page.
            // A miss nacks the transaction while the entry is fetched.
            if !np.rtlb.access(ppn) {
                cost += NP_TLB_MISS;
                bus.rtlb_misses.inc();
            }
            let tag = mem.tag(paddr);
            if !tag.permits(kind) {
                bus.block_faults.inc();
                cost += cfg.np_mode.fault_detect();
                let fault = BlockFault { thread, addr, kind, tag, meta: mem.frame(ppn).meta };
                break 'fault NpWork::BlockFault(fault);
            }
            cost += LOCAL_MISS;
            if lookup == Lookup::Upgrade {
                // Write-upgrade on a ReadWrite-tagged block: invalidate
                // transaction on the bus, memory grants ownership.
                debug_assert_eq!(tag, Tag::ReadWrite);
                cpu.cache.set_owned(key, true);
                cpu.upgrades.inc();
            } else {
                // ReadOnly blocks fill shared (the NP asserts the
                // "shared" line so the CPU never owns them); ReadWrite
                // blocks fill owned. Writebacks are free (Table 2).
                cpu.cache.fill(key, tag == Tag::ReadWrite);
                cpu.local_misses.inc();
            }
        }
        // Functional completion: values live in local memory
        // (functionally write-through; timing-wise the write buffer is
        // perfect, Table 2).
        let loaded = match kind {
            AccessKind::Load => mem.read_word(paddr),
            AccessKind::Store => {
                mem.write_word(paddr, value);
                0
            }
        };
        cpu.retire(access, loaded, cost);
        return Flow::Completed;
    };
    cpu.stream.clock += cost;
    cpu.stream.block(Stall::Fault);
    let at = cpu.stream.clock;
    queue.schedule(at, Event::NpWork { node: cpu.id.index(), work });
    Flow::Blocked
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_base::addr::{VAddr, Vpn};
    use tt_base::{Cycles, DetRng, NodeId};
    use tt_mem::cache::Probe;
    use tt_mem::{NodeMemory, PageMeta, PageTable};
    use tt_sim::cpu::Cpu;

    use crate::np::NpState;

    fn setup() -> (SystemConfig, NodeState) {
        let cfg = SystemConfig::test_config(2);
        let mut mem = NodeMemory::new();
        let mut ptable = PageTable::new();
        let ppn = mem.alloc();
        ptable.map(Vpn(0x10000), ppn).unwrap();
        mem.frame_mut(ppn).set_all_tags(Tag::ReadWrite);
        mem.frame_mut(ppn).meta = PageMeta { vpn: Some(Vpn(0x10000)), mode: 0, user: [0, 0] };
        let node = NodeState {
            cpu: Cpu::new(NodeId::new(0), &cfg, DetRng::new(1)),
            np: NpState::new(DetRng::new(2)),
            mem,
            ptable,
            bus: BusStats::default(),
        };
        (cfg, node)
    }

    const VA: u64 = 0x10000 * 4096;

    /// What one access did.
    #[derive(Debug)]
    enum Outcome {
        /// It completed after `cost` cycles; a load observed `value`.
        Done { cost: Cycles, value: Option<u64> },
        /// It faulted and handed the NP this work.
        Fault(NpWork),
    }

    /// Issues one access through [`issue_access`].
    fn exec(
        cfg: &SystemConfig,
        node: &mut NodeState,
        addr: VAddr,
        kind: AccessKind,
        value: u64,
    ) -> Outcome {
        let mut queue = EventQueue::new(cfg.nodes, cfg.network_latency, |generation| {
            Event::BarrierRelease { generation }
        });
        queue.set_origin(0);
        let load = kind == AccessKind::Load;
        let access = Access { addr, kind, value, expect: None, record: load };
        let before = node.cpu.stream.clock;
        match issue_access(cfg, node, &mut queue, access) {
            Flow::Completed => {
                let value = if load { node.cpu.stream.recorded.pop() } else { None };
                Outcome::Done { cost: node.cpu.stream.clock - before, value }
            }
            Flow::Blocked => match queue.pop() {
                Some((_, Event::NpWork { work, .. })) => Outcome::Fault(work),
                other => panic!("a fault queues NP work, not {other:?}"),
            },
        }
    }

    #[test]
    fn first_access_pays_tlb_rtlb_and_miss() {
        let (cfg, mut node) = setup();
        let out = exec(&cfg, &mut node, VAddr::new(VA), AccessKind::Load, 0);
        // 1 (op) + 25 (TLB) + 25 (RTLB) + 29 (local miss) = 80
        match out {
            Outcome::Done { cost, value } => {
                assert_eq!(cost, Cycles::new(80));
                assert_eq!(value, Some(0));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(node.cpu.local_misses.get(), 1);
    }

    #[test]
    fn second_access_hits_for_one_cycle() {
        let (cfg, mut node) = setup();
        let a = VAddr::new(VA);
        exec(&cfg, &mut node, a, AccessKind::Load, 0);
        let out = exec(&cfg, &mut node, a, AccessKind::Load, 0);
        assert!(matches!(out, Outcome::Done { cost, value: Some(0) } if cost == Cycles::new(1)));
    }

    #[test]
    fn store_to_rw_block_fills_owned_then_hits() {
        let (cfg, mut node) = setup();
        let a = VAddr::new(VA + 32);
        exec(&cfg, &mut node, a, AccessKind::Store, 5);
        let pa = node.ptable.translate_addr(a).unwrap();
        assert_eq!(node.cpu.cache.peek(pa.raw() / 32), Probe::HitOwned);
        assert_eq!(node.mem.read_word(pa), 5);
        // Subsequent store hits silently.
        match exec(&cfg, &mut node, a, AccessKind::Store, 6) {
            Outcome::Done { cost, .. } => assert_eq!(cost, Cycles::new(1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn read_only_block_fills_shared_and_store_faults() {
        let (cfg, mut node) = setup();
        let a = VAddr::new(VA + 64);
        let pa = node.ptable.translate_addr(a).unwrap();
        node.mem.set_tag(pa, Tag::ReadOnly);
        exec(&cfg, &mut node, a, AccessKind::Load, 0);
        assert_eq!(node.cpu.cache.peek(pa.raw() / 32), Probe::HitShared);
        match exec(&cfg, &mut node, a, AccessKind::Store, 0) {
            Outcome::Fault(NpWork::BlockFault(f)) => {
                assert_eq!(f.tag, Tag::ReadOnly);
                assert_eq!(f.kind, AccessKind::Store);
            }
            other => panic!("expected block fault, got {other:?}"),
        }
        assert_eq!(node.bus.block_faults.get(), 1);
    }

    #[test]
    fn invalid_block_faults_on_load() {
        let (cfg, mut node) = setup();
        let a = VAddr::new(VA + 96);
        node.mem.set_tag(node.ptable.translate_addr(a).unwrap(), Tag::Invalid);
        let out = exec(&cfg, &mut node, a, AccessKind::Load, 0);
        assert!(matches!(out, Outcome::Fault(NpWork::BlockFault(f)) if f.tag == Tag::Invalid));
    }

    #[test]
    fn unmapped_page_faults() {
        let (cfg, mut node) = setup();
        let out = exec(&cfg, &mut node, VAddr::new(0x9999 * 4096), AccessKind::Store, 0);
        assert!(matches!(out, Outcome::Fault(NpWork::PageFault(..))));
        assert_eq!(node.bus.page_faults.get(), 1);
    }

    #[test]
    fn functional_values_flow_through_memory() {
        let (cfg, mut node) = setup();
        let a = VAddr::new(VA + 128);
        let pa = node.ptable.translate_addr(a).unwrap();
        node.mem.write_word(pa, 77);
        match exec(&cfg, &mut node, a, AccessKind::Load, 0) {
            Outcome::Done { value, .. } => assert_eq!(value, Some(77)),
            other => panic!("unexpected {other:?}"),
        }
    }
}
