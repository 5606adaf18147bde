//! Machine-level tests of Typhoon with minimal protocols: page-fault
//! mapping, barrier synchronization, active-message round trips, and
//! determinism.

use tt_base::addr::PAGE_BYTES;
use tt_base::config::NpMode;
use tt_base::workload::{Layout, Op, Placement, Region, Workload, SHARED_SEGMENT_BASE};
use tt_base::{Cycles, NodeId, SystemConfig, VAddr};
use tt_mem::Tag;
use tt_net::{Payload, VirtualNet};
use tt_tempest::{
    BlockFault, HandlerId, Message, PageFault, Protocol, TempestCtx, ThreadId, UserCall,
};
use tt_typhoon::TyphoonMachine;

/// A workload from pre-built per-cpu op scripts.
struct Script {
    layout: Layout,
    per_cpu: Vec<Option<Vec<Op>>>,
}

impl Script {
    fn new(nodes: usize, layout: Layout) -> Self {
        Script { layout, per_cpu: vec![Some(Vec::new()); nodes] }
    }

    fn set(&mut self, cpu: usize, ops: Vec<Op>) {
        self.per_cpu[cpu] = Some(ops);
    }
}

impl Workload for Script {
    fn layout(&self) -> Layout {
        self.layout.clone()
    }
    fn next_chunk(&mut self, cpu: NodeId) -> Option<Vec<Op>> {
        self.per_cpu[cpu.index()].take()
    }
}

/// Maps any faulting page locally with ReadWrite tags: private per-node
/// memory, no coherence. Good enough to exercise the CPU/NP fault path.
#[derive(Default)]
struct LocalAlloc;

impl Protocol for LocalAlloc {
    fn on_page_fault(&mut self, ctx: &mut dyn TempestCtx, fault: PageFault) {
        ctx.charge(50);
        let ppn = ctx.alloc_page();
        ctx.map_page(fault.addr.page(), ppn).unwrap();
        ctx.set_page_tags(fault.addr.page(), Tag::ReadWrite);
        ctx.resume(fault.thread);
    }
    fn on_block_fault(&mut self, _ctx: &mut dyn TempestCtx, fault: BlockFault) {
        panic!("unexpected block fault at {}", fault.addr);
    }
    fn on_message(&mut self, _ctx: &mut dyn TempestCtx, msg: Message) {
        panic!("unexpected message {:?}", msg.handler);
    }
}

fn shared(addr_off: u64) -> VAddr {
    VAddr::new(SHARED_SEGMENT_BASE + addr_off)
}

fn empty_layout() -> Layout {
    Layout::new()
}

fn cfg(nodes: usize) -> SystemConfig {
    let mut c = SystemConfig::test_config(nodes);
    c.verify_values = true;
    c
}

#[test]
fn single_node_write_then_read_round_trips() {
    let mut script = Script::new(1, empty_layout());
    script.set(
        0,
        vec![
            Op::Write { addr: shared(0), value: 0xABCD },
            Op::Read { addr: shared(0), expect: Some(0xABCD) },
            Op::Compute(10),
        ],
    );
    let mut m = TyphoonMachine::new(cfg(1), Box::new(script), &|_, _, _| Box::new(LocalAlloc));
    let result = m.run();
    assert!(result.cycles > Cycles::new(10));
    assert_eq!(result.report.get("cpu.page_faults"), Some(1.0));
    assert_eq!(result.report.get("cpu.writes"), Some(1.0));
    assert_eq!(result.report.get("cpu.reads"), Some(1.0));
}

#[test]
fn barrier_synchronizes_all_nodes() {
    let nodes = 4;
    let mut script = Script::new(nodes, empty_layout());
    // Node 0 computes a long time before the barrier; all others arrive
    // immediately. Everyone then computes 5 more cycles.
    for n in 0..nodes {
        let pre = if n == 0 { 10_000 } else { 1 };
        script.set(n, vec![Op::Compute(pre), Op::Barrier, Op::Compute(5)]);
    }
    let mut m = TyphoonMachine::new(cfg(nodes), Box::new(script), &|_, _, _| Box::new(LocalAlloc));
    let result = m.run();
    // All nodes finish just after the slowest + barrier latency.
    assert!(result.cycles >= Cycles::new(10_000 + 11 + 5));
    assert!(result.cycles < Cycles::new(10_100));
    assert_eq!(result.report.get("machine.barriers"), Some(1.0));
    // The fast nodes waited for the slow one.
    let wait = result.report.get("cpu.barrier_wait_cycles").unwrap();
    assert!(wait > 3.0 * 9_000.0, "barrier wait {wait}");
}

/// A ping protocol: a user call on node 0 sends a request to node 1; the
/// handler there replies; the reply handler resumes the caller.
#[derive(Default)]
struct Ping {
    node: u16,
    waiting: Option<ThreadId>,
    pings_served: u64,
}

const PING: HandlerId = HandlerId(1);
const PONG: HandlerId = HandlerId(2);

impl Protocol for Ping {
    fn on_page_fault(&mut self, ctx: &mut dyn TempestCtx, fault: PageFault) {
        let ppn = ctx.alloc_page();
        ctx.map_page(fault.addr.page(), ppn).unwrap();
        ctx.set_page_tags(fault.addr.page(), Tag::ReadWrite);
        ctx.resume(fault.thread);
    }
    fn on_block_fault(&mut self, _ctx: &mut dyn TempestCtx, _fault: BlockFault) {
        unreachable!()
    }
    fn on_message(&mut self, ctx: &mut dyn TempestCtx, msg: Message) {
        match msg.handler {
            PING => {
                self.pings_served += 1;
                ctx.charge(10);
                ctx.send(msg.src, VirtualNet::Response, PONG, Payload::args(&[]));
            }
            PONG => {
                ctx.charge(5);
                let t = self.waiting.take().expect("a thread is waiting");
                ctx.resume(t);
            }
            other => panic!("unexpected handler {other:?}"),
        }
    }
    fn on_user_call(&mut self, ctx: &mut dyn TempestCtx, thread: ThreadId, call: UserCall) {
        assert_eq!(self.node, 0, "only node 0 pings");
        assert_eq!(call.op, 42);
        self.waiting = Some(thread);
        ctx.charge(8);
        ctx.send(NodeId::new(1), VirtualNet::Request, PING, Payload::args(&[call.arg]));
    }
}

#[test]
fn user_call_message_round_trip() {
    let nodes = 2;
    let mut script = Script::new(nodes, empty_layout());
    script.set(0, vec![Op::UserCall { op: 42, arg: 7 }, Op::Compute(1)]);
    script.set(1, vec![Op::Compute(1)]);
    let mut m = TyphoonMachine::new(cfg(nodes), Box::new(script), &|id, _, _| {
        Box::new(Ping { node: id.raw(), ..Ping::default() })
    });
    let result = m.run();
    // Round trip: >= 2 network latencies plus handler costs.
    assert!(result.cycles >= Cycles::new(2 * 11 + 10));
    assert_eq!(result.report.get("net.packets"), Some(2.0));
    assert!(result.report.get("cpu.call_stall_cycles").unwrap() >= 22.0);
}

#[test]
fn same_seed_is_bit_deterministic() {
    let run = || {
        let nodes = 2;
        let mut script = Script::new(nodes, empty_layout());
        for n in 0..nodes {
            let mut ops = Vec::new();
            for i in 0..200u64 {
                ops.push(Op::Write { addr: shared((n as u64) * 65536 + 8 * i), value: i });
                ops.push(Op::Compute(3));
            }
            ops.push(Op::Barrier);
            script.set(n, ops);
        }
        let mut m =
            TyphoonMachine::new(cfg(nodes), Box::new(script), &|_, _, _| Box::new(LocalAlloc));
        m.run().cycles
    };
    assert_eq!(run(), run());
}

#[test]
fn layout_is_visible_to_protocol_factory() {
    let mut layout = Layout::new();
    layout.add(Region {
        base: VAddr::new(SHARED_SEGMENT_BASE),
        bytes: 4 * PAGE_BYTES,
        placement: Placement::Cyclic,
        mode: 0,
    });
    let mut script = Script::new(2, layout);
    script.set(0, vec![Op::Compute(1)]);
    script.set(1, vec![Op::Compute(1)]);
    // The factory can inspect the layout (this is how Stache gets its
    // distributed home map).
    let mut factory_pages = std::sync::atomic::AtomicUsize::new(0);
    let mut m = TyphoonMachine::new(cfg(2), Box::new(script), &|_, layout, _| {
        factory_pages.store(layout.pages(2).count(), std::sync::atomic::Ordering::Relaxed);
        Box::new(LocalAlloc)
    });
    let saw_pages = m.layout().pages(2).count();
    let _ = m.run();
    assert_eq!(saw_pages, 4);
    assert_eq!(*factory_pages.get_mut(), 4);
}

#[test]
fn software_tempest_is_correct_but_slower() {
    // NpMode::OnCpu (the paper's software-Tempest direction): handlers
    // interrupt the main processor and fault detection pays a software
    // trap cost. Results must be identical, just slower.
    let build = |mode| {
        let mut script = Script::new(2, empty_layout());
        let mut ops = Vec::new();
        for i in 0..100u64 {
            ops.push(Op::Write { addr: shared(8 * i), value: i });
            ops.push(Op::Compute(10));
        }
        ops.push(Op::Barrier);
        script.set(0, ops);
        script.set(1, vec![Op::Compute(1), Op::Barrier]);
        let mut cfg = cfg(2);
        cfg.np_mode = mode;
        let mut m = TyphoonMachine::new(cfg, Box::new(script), &|_, _, _| Box::new(LocalAlloc));
        m.run()
    };
    let dedicated = build(NpMode::Dedicated);
    let software = build(NpMode::OnCpu);
    // Same work performed...
    assert_eq!(dedicated.report.get("cpu.writes"), software.report.get("cpu.writes"));
    // ...but the software version pays the trap costs.
    assert!(
        software.cycles > dedicated.cycles,
        "software {} !> dedicated {}",
        software.cycles,
        dedicated.cycles
    );
}

#[test]
fn page_fault_reaches_the_np_and_its_handler_runs() {
    use tt_typhoon::np::NpWork;
    use tt_typhoon::Event;

    let mut script = Script::new(1, empty_layout());
    script.set(0, vec![Op::Write { addr: shared(0), value: 1 }]);
    let mut m = TyphoonMachine::new(cfg(1), Box::new(script), &|_, _, _| Box::new(LocalAlloc));
    let (mut fault_at, mut mapped_at) = (None, None);
    m.run_observed(&mut |at, event, m| {
        if let Event::NpWork { work: NpWork::PageFault(f), .. } = event {
            assert_eq!(f.addr, shared(0));
            fault_at.get_or_insert(at);
        }
        if mapped_at.is_none() && m.node_tag(0, shared(0)).is_some() {
            mapped_at = Some(at);
        }
    });
    // The page fault reaches the NP, then its handler maps the page.
    let fault_at = fault_at.expect("the page fault reaches the NP");
    let mapped_at = mapped_at.expect("the page-fault handler maps the page");
    assert!(fault_at <= mapped_at);
}
