//! Writing your own user-level shared-memory protocol against the
//! Tempest interface — the paper's central idea.
//!
//! This example implements a tiny *migratory* protocol: every page has a
//! single owner at a time and whole pages migrate on demand (grab the
//! page, take all 128 blocks). For a workload where one node at a time
//! works on a region (a pipeline), this needs one message pair per page
//! per handoff instead of one per block — the same kind of
//! application-specific win as the paper's EM3D protocol.
//!
//! It also demonstrates the Tempest mechanisms directly: user-level page
//! allocation and mapping, fine-grain tags, active messages, and resume.
//!
//! ```sh
//! cargo run --release --example custom_protocol
//! ```

use std::collections::HashMap;

use tempest_typhoon::base::addr::{VAddr, Vpn, PAGE_BYTES};
use tempest_typhoon::base::workload::{Layout, Op, Placement, Region, ScriptWorkload, SHARED_SEGMENT_BASE};
use tempest_typhoon::base::{NodeId, SystemConfig};
use tempest_typhoon::mem::{PageMeta, Tag};
use tempest_typhoon::net::{Payload, VirtualNet};
use tempest_typhoon::stache::StacheProtocol;
use tempest_typhoon::tempest::{
    BlockFault, HandlerId, Message, PageFault, Protocol, TempestCtx, ThreadId,
};
use tempest_typhoon::typhoon::TyphoonMachine;

/// "Give me page V": args `[vpn]`.
const GRAB: HandlerId = HandlerId(0x40);
/// "Here is one block of page V": args `[block address]` plus the block;
/// the owner force-reads the page and sends it as 128 block messages.
const PAGE_BLOCK: HandlerId = HandlerId(0x41);
/// "Page transfer complete": args `[vpn]`.
const PAGE_DONE: HandlerId = HandlerId(0x42);

/// A whole-page-migration protocol.
struct Migratory {
    node: NodeId,
    /// Current owner of each page, as believed by this node (updated on
    /// transfer; the initial owner comes from the layout).
    owner: HashMap<Vpn, NodeId>,
    /// Faulting thread awaiting a page.
    waiting: Option<(ThreadId, Vpn)>,
    /// Pages handed off (statistics).
    handoffs: u64,
}

impl Migratory {
    fn new(node: NodeId, layout: &Layout, cfg: &SystemConfig) -> Self {
        let mut owner = HashMap::new();
        for (vpn, home, _mode) in layout.pages(cfg.nodes) {
            owner.insert(vpn, home);
        }
        Migratory {
            node,
            owner,
            waiting: None,
            handoffs: 0,
        }
    }
}

impl Protocol for Migratory {
    fn init(&mut self, ctx: &mut dyn TempestCtx) {
        let mine: Vec<Vpn> = self
            .owner
            .iter()
            .filter(|(_, o)| **o == self.node)
            .map(|(v, _)| *v)
            .collect();
        for vpn in mine {
            let ppn = ctx.alloc_page();
            ctx.map_page(vpn, ppn).unwrap();
            ctx.set_page_tags(vpn, Tag::ReadWrite);
            ctx.set_page_meta(
                vpn,
                PageMeta {
                    vpn: Some(vpn),
                    mode: 0,
                    user: [self.node.raw() as u64, 0],
                },
            );
        }
    }

    fn on_page_fault(&mut self, ctx: &mut dyn TempestCtx, fault: PageFault) {
        // First touch of a page currently owned elsewhere: allocate a
        // local frame and ask the owner to migrate the whole page.
        let vpn = fault.addr.page();
        let owner = self.owner[&vpn];
        assert_ne!(owner, self.node);
        ctx.charge(80);
        let ppn = ctx.alloc_page();
        ctx.map_page(vpn, ppn).unwrap();
        ctx.set_page_tags(vpn, Tag::Invalid);
        self.waiting = Some((fault.thread, vpn));
        ctx.send(
            owner,
            VirtualNet::Request,
            GRAB,
            Payload::args(&[vpn.0]),
        );
    }

    fn on_block_fault(&mut self, ctx: &mut dyn TempestCtx, fault: BlockFault) {
        // The page is mapped but we lost ownership earlier: grab it back.
        let vpn = fault.addr.page();
        let owner = self.owner[&vpn];
        assert_ne!(owner, self.node, "owner never faults on its own page");
        ctx.charge(14);
        self.waiting = Some((fault.thread, vpn));
        ctx.send(
            owner,
            VirtualNet::Request,
            GRAB,
            Payload::args(&[vpn.0]),
        );
    }

    fn on_message(&mut self, ctx: &mut dyn TempestCtx, msg: Message) {
        match msg.handler {
            GRAB => {
                let vpn = Vpn(msg.arg(0));
                // Hand the whole page over: push every block, then mark
                // our copy Invalid and record the new owner.
                self.handoffs += 1;
                ctx.charge(40);
                let base = vpn.base();
                for b in 0..tt_base_blocks() {
                    let addr = base.offset((b * 32) as u64);
                    let data = ctx.force_read_block(addr);
                    ctx.send(
                        msg.src,
                        VirtualNet::Response,
                        PAGE_BLOCK,
                        Payload::with_block(&[addr.raw()], data),
                    );
                    ctx.set_tag(addr, Tag::Invalid);
                }
                self.owner.insert(vpn, msg.src);
                ctx.send(
                    msg.src,
                    VirtualNet::Response,
                    PAGE_DONE,
                    Payload::args(&[vpn.0]),
                );
            }
            PAGE_BLOCK => {
                let addr = VAddr::new(msg.arg(0));
                ctx.charge(6);
                let data = msg.payload.block();
                ctx.force_write_block(addr, &data);
                ctx.set_tag(addr, Tag::ReadWrite);
            }
            PAGE_DONE => {
                let vpn = Vpn(msg.arg(0));
                ctx.charge(10);
                self.owner.insert(vpn, self.node);
                let (thread, waiting_vpn) =
                    self.waiting.take().expect("a thread is waiting");
                assert_eq!(waiting_vpn, vpn);
                ctx.resume(thread);
            }
            other => panic!("migratory: unknown handler {other:?}"),
        }
    }

    fn report(&self, report: &mut tempest_typhoon::base::stats::Report) {
        report.push_count("migratory.handoffs", self.handoffs);
    }
}

fn tt_base_blocks() -> usize {
    tempest_typhoon::base::addr::BLOCKS_PER_PAGE
}

/// A pipeline workload: each node in turn updates every word of a shared
/// page, then hands off at a barrier. Whole-page migration fits this
/// pattern perfectly; block-grain transparent shared memory pays a miss
/// per block per stage.
fn pipeline_workload(nodes: usize, stages: usize) -> ScriptWorkload {
    let mut layout = Layout::new();
    layout.add(Region {
        base: VAddr::new(SHARED_SEGMENT_BASE),
        bytes: PAGE_BYTES,
        placement: Placement::PerPage(vec![NodeId::new(0)]),
        mode: 0,
    });
    let mut w = ScriptWorkload::new(nodes).with_layout(layout);
    for n in 0..nodes {
        let mut ops = Vec::new();
        for stage in 0..stages {
            if stage % nodes == n {
                for word in 0..(PAGE_BYTES / 8) as u64 {
                    ops.push(Op::Write {
                        addr: VAddr::new(SHARED_SEGMENT_BASE + word * 8),
                        value: (stage as u64) << 32 | word,
                    });
                }
            } else {
                ops.push(Op::Compute(50));
            }
            ops.push(Op::Barrier);
        }
        w.set(n, ops);
    }
    w
}

#[allow(clippy::field_reassign_with_default)] // config idiom
fn main() {
    let nodes = 4;
    let stages = 8;
    let mut cfg = SystemConfig::default();
    cfg.nodes = nodes;
    cfg.cpu.cache_bytes = 16 * 1024;

    let mut migratory = TyphoonMachine::new(
        cfg.clone(),
        Box::new(pipeline_workload(nodes, stages)),
        &|id, layout, cfg| Box::new(Migratory::new(id, layout, cfg)),
    );
    let custom = migratory.run();

    let mut stache = TyphoonMachine::new(
        cfg,
        Box::new(pipeline_workload(nodes, stages)),
        &|id, layout, cfg| Box::new(StacheProtocol::new(id, layout, cfg)),
    );
    let transparent = stache.run();

    println!("pipeline over one shared page, {stages} stages on {nodes} nodes:");
    println!(
        "  custom migratory protocol : {:>9} cycles ({} page handoffs)",
        custom.cycles,
        custom.report.get("migratory.handoffs").unwrap_or(0.0)
    );
    println!(
        "  transparent Stache        : {:>9} cycles ({} block requests)",
        transparent.cycles,
        transparent.report.get("stache.rw_requests").unwrap_or(0.0)
    );
    let speedup = transparent.cycles.as_f64() / custom.cycles.as_f64();
    println!("  custom-protocol speedup   : {speedup:.2}x");
    assert!(
        speedup > 1.0,
        "whole-page migration should beat per-block faults on a pipeline"
    );
}
