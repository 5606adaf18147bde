//! Unit tests of the Stache protocol state machine against
//! [`tt_tempest::testing::MockCtx`]: each handler's effects (messages,
//! tags, resumes, directory transitions) are asserted in isolation,
//! without a machine or network in the loop.

use tt_base::addr::{VAddr, Vpn, BLOCK_BYTES, PAGE_BYTES};
use tt_base::workload::{Layout, Placement, Region};
use tt_base::{NodeId, SystemConfig};
use tt_mem::{AccessKind, Tag};
use tt_net::{Payload, VirtualNet};
use tt_stache::stache::{
    ACK, GET_RO, GET_RW, INV, PUT_RO, PUT_RW, RECALL_DATA, RECALL_RW, WRITEBACK,
};
use tt_stache::StacheProtocol;
use tt_tempest::testing::MockCtx;
use tt_tempest::{BlockFault, HandlerId, Message, PageFault, Protocol, TempestCtx, ThreadId};

const HOME: u16 = 0;
const VPN: Vpn = Vpn(0x10000);

fn layout() -> Layout {
    let mut l = Layout::new();
    l.add(Region {
        base: VPN.base(),
        bytes: PAGE_BYTES,
        placement: Placement::PerPage(vec![NodeId::new(HOME)]),
        mode: 0,
    });
    l
}

/// A [`MockCtx`] with the Stache virtual-net policy installed: every
/// handler send in these tests is checked against the same discipline
/// the `tt-check` invariant engine enforces at machine level.
fn checked_ctx(node: u16) -> MockCtx {
    let mut ctx = MockCtx::new(node);
    ctx.set_vn_policy(tt_stache::vn_policy());
    ctx
}

/// A home-node protocol with its page installed (via `init`).
fn home() -> (StacheProtocol, MockCtx) {
    let cfg = SystemConfig::test_config(4);
    let mut p = StacheProtocol::new(NodeId::new(HOME), &layout(), &cfg);
    let mut ctx = checked_ctx(HOME);
    p.init(&mut ctx);
    assert_eq!(ctx.read_tag(VPN.base()), Tag::ReadWrite, "home pages start RW");
    ctx.clear_effects();
    (p, ctx)
}

fn msg(src: u16, dst: u16, vn: VirtualNet, handler: HandlerId, payload: Payload) -> Message {
    Message { src: NodeId::new(src), dst: NodeId::new(dst), vn, handler, payload }
}

fn get(src: u16, dst: u16, handler: HandlerId, addr: VAddr) -> Message {
    msg(src, dst, VirtualNet::Request, handler, Payload::args(&[addr.raw()]))
}

#[test]
fn get_ro_on_idle_shares_and_responds_with_data() {
    let (mut p, mut ctx) = home();
    let addr = VPN.base().offset(64);
    ctx.write_word(addr, 0xAB);
    p.on_message(&mut ctx, get(2, HOME, GET_RO, addr));

    let sent = ctx.last_sent().expect("a response was sent");
    assert_eq!(sent.dst, NodeId::new(2));
    assert_eq!(sent.vn, VirtualNet::Response, "data travels on the response net");
    assert_eq!(sent.handler, PUT_RO);
    assert_eq!(sent.payload.words()[0], addr.raw());
    assert_eq!(&sent.payload.block()[0..8], &0xABu64.to_le_bytes());
    // Home tag downgraded so local writes will fault.
    assert_eq!(ctx.read_tag(addr), Tag::ReadOnly);
}

#[test]
fn get_rw_on_idle_grants_exclusive_and_invalidates_home_tag() {
    let (mut p, mut ctx) = home();
    let addr = VPN.base();
    p.on_message(&mut ctx, get(3, HOME, GET_RW, addr));
    assert_eq!(ctx.last_sent().unwrap().handler, PUT_RW);
    assert_eq!(ctx.read_tag(addr), Tag::Invalid);
}

#[test]
fn get_rw_on_shared_runs_an_invalidation_round() {
    let (mut p, mut ctx) = home();
    let addr = VPN.base().offset(128);
    // Two readers first.
    p.on_message(&mut ctx, get(1, HOME, GET_RO, addr));
    p.on_message(&mut ctx, get(2, HOME, GET_RO, addr));
    ctx.clear_effects();

    // A third node wants to write.
    p.on_message(&mut ctx, get(3, HOME, GET_RW, addr));
    let invs: Vec<_> = ctx.sent.iter().filter(|s| s.handler == INV).collect();
    assert_eq!(invs.len(), 2, "both sharers are invalidated");
    assert!(invs.iter().all(|s| s.vn == VirtualNet::Request));
    assert!(!ctx.sent.iter().any(|s| s.handler == PUT_RW), "no grant before acknowledgments");

    // First ack: still waiting.
    p.on_message(&mut ctx, msg(1, HOME, VirtualNet::Response, ACK, Payload::args(&[addr.raw()])));
    assert!(!ctx.sent.iter().any(|s| s.handler == PUT_RW));
    // Final ack sends the data (paper §3).
    p.on_message(&mut ctx, msg(2, HOME, VirtualNet::Response, ACK, Payload::args(&[addr.raw()])));
    let grant = ctx.sent.iter().find(|s| s.handler == PUT_RW).expect("grant");
    assert_eq!(grant.dst, NodeId::new(3));
    assert_eq!(ctx.read_tag(addr), Tag::Invalid);
}

#[test]
fn upgrade_by_the_only_sharer_skips_the_invalidation_round() {
    let (mut p, mut ctx) = home();
    let addr = VPN.base().offset(32);
    p.on_message(&mut ctx, get(2, HOME, GET_RO, addr));
    ctx.clear_effects();
    p.on_message(&mut ctx, get(2, HOME, GET_RW, addr));
    assert!(!ctx.sent.iter().any(|s| s.handler == INV));
    assert_eq!(ctx.last_sent().unwrap().handler, PUT_RW);
}

#[test]
fn requests_queue_behind_a_busy_block_and_drain_in_order() {
    let (mut p, mut ctx) = home();
    let addr = VPN.base().offset(256);
    p.on_message(&mut ctx, get(1, HOME, GET_RO, addr));
    p.on_message(&mut ctx, get(2, HOME, GET_RW, addr)); // starts invalidation of 1
    ctx.clear_effects();
    // While invalidating, two more requests arrive and must defer.
    p.on_message(&mut ctx, get(3, HOME, GET_RO, addr));
    p.on_message(&mut ctx, get(1, HOME, GET_RO, addr));
    assert!(ctx.sent.is_empty(), "deferred requests produce no messages");

    // The ack completes the write grant, then the queue drains: node 3's
    // read recalls the new owner (node 2).
    p.on_message(&mut ctx, msg(1, HOME, VirtualNet::Response, ACK, Payload::args(&[addr.raw()])));
    let handlers: Vec<_> = ctx.sent.iter().map(|s| (s.dst.raw(), s.handler)).collect();
    assert_eq!(handlers[0], (2, PUT_RW), "grant to the writer first");
    assert_eq!(handlers[1].1, tt_stache::stache::RECALL_RO, "then recall for the queued read");
    assert_eq!(handlers[1].0, 2);
}

#[test]
fn recall_data_completes_a_read_and_shares_both_nodes() {
    let (mut p, mut ctx) = home();
    let addr = VPN.base().offset(512);
    p.on_message(&mut ctx, get(2, HOME, GET_RW, addr));
    ctx.clear_effects();
    // Node 3 reads: home recalls node 2.
    p.on_message(&mut ctx, get(3, HOME, GET_RO, addr));
    assert_eq!(ctx.last_sent().unwrap().handler, tt_stache::stache::RECALL_RO);
    ctx.clear_effects();
    // Owner returns the (modified) data.
    let mut block = [0u8; BLOCK_BYTES];
    block[0..8].copy_from_slice(&77u64.to_le_bytes());
    p.on_message(
        &mut ctx,
        Message {
            src: NodeId::new(2),
            dst: NodeId::new(HOME),
            vn: VirtualNet::Response,
            handler: RECALL_DATA,
            payload: Payload::with_block(&[addr.raw()], block),
        },
    );
    // Home memory updated, tag readable again, grant sent to node 3.
    assert_eq!(ctx.read_word(addr), 77);
    assert_eq!(ctx.read_tag(addr), Tag::ReadOnly);
    let grant = ctx.sent.iter().find(|s| s.handler == PUT_RO).expect("grant");
    assert_eq!(grant.dst, NodeId::new(3));
}

#[test]
fn writeback_restores_home_ownership() {
    let (mut p, mut ctx) = home();
    let addr = VPN.base().offset(96);
    p.on_message(&mut ctx, get(2, HOME, GET_RW, addr));
    ctx.clear_effects();
    let mut block = [0u8; BLOCK_BYTES];
    block[8..16].copy_from_slice(&1234u64.to_le_bytes());
    p.on_message(
        &mut ctx,
        Message {
            src: NodeId::new(2),
            dst: NodeId::new(HOME),
            vn: VirtualNet::Request,
            handler: WRITEBACK,
            payload: Payload::with_block(&[addr.raw()], block),
        },
    );
    assert_eq!(ctx.read_tag(addr), Tag::ReadWrite, "home owns the block again");
    assert_eq!(ctx.read_word(addr.offset(8)), 1234);
    assert!(ctx.sent.is_empty(), "writebacks need no reply");
}

#[test]
fn remote_block_fault_marks_busy_and_requests() {
    // A non-home node faults on its (already created) stache page.
    let cfg = SystemConfig::test_config(4);
    let mut p = StacheProtocol::new(NodeId::new(2), &layout(), &cfg);
    let mut ctx = checked_ctx(2);
    p.init(&mut ctx); // not home: installs nothing
                      // Simulate the page fault first (creates the stache page).
    let thread = ThreadId(NodeId::new(2));
    let addr = VPN.base().offset(192);
    p.on_page_fault(&mut ctx, PageFault { thread, addr, kind: AccessKind::Load });
    assert_eq!(ctx.resumed, vec![thread], "page fault handler restarts the access");
    assert_eq!(ctx.read_tag(addr), Tag::Invalid, "fresh stache page faults per block");
    ctx.clear_effects();

    // The restarted access block-faults; the handler asks the home.
    let meta = ctx.page_meta(VPN).unwrap();
    assert_eq!(meta.user[0], HOME as u64, "home id cached in page metadata");
    p.on_block_fault(
        &mut ctx,
        BlockFault { thread, addr, kind: AccessKind::Store, tag: Tag::Invalid, meta },
    );
    assert_eq!(ctx.read_tag(addr), Tag::Busy, "request outstanding");
    let sent = ctx.last_sent().unwrap();
    assert_eq!(sent.handler, GET_RW, "a store asks for an exclusive copy");
    assert_eq!(sent.dst, NodeId::new(HOME));
    assert!(ctx.resumed.is_empty(), "thread stays suspended until the reply");
}

#[test]
fn put_installs_data_upgrades_tag_and_resumes() {
    let cfg = SystemConfig::test_config(4);
    let mut p = StacheProtocol::new(NodeId::new(2), &layout(), &cfg);
    let mut ctx = checked_ctx(2);
    let thread = ThreadId(NodeId::new(2));
    let addr = VPN.base();
    p.on_page_fault(&mut ctx, PageFault { thread, addr, kind: AccessKind::Load });
    let meta = ctx.page_meta(VPN).unwrap();
    p.on_block_fault(
        &mut ctx,
        BlockFault { thread, addr, kind: AccessKind::Load, tag: Tag::Invalid, meta },
    );
    ctx.clear_effects();

    let mut block = [0u8; BLOCK_BYTES];
    block[0..8].copy_from_slice(&555u64.to_le_bytes());
    p.on_message(
        &mut ctx,
        Message {
            src: NodeId::new(HOME),
            dst: NodeId::new(2),
            vn: VirtualNet::Response,
            handler: PUT_RO,
            payload: Payload::with_block(&[addr.raw()], block),
        },
    );
    assert_eq!(ctx.read_word(addr), 555, "data installed");
    assert_eq!(ctx.read_tag(addr), Tag::ReadOnly);
    assert_eq!(ctx.resumed, vec![thread]);
}

#[test]
fn inv_at_sharer_invalidates_and_acks_even_if_unmapped() {
    let cfg = SystemConfig::test_config(4);
    let mut p = StacheProtocol::new(NodeId::new(3), &layout(), &cfg);
    let mut ctx = checked_ctx(3);
    // No page mapped at all (it was replaced): the handler must still ack.
    let addr = VPN.base().offset(32);
    p.on_message(&mut ctx, get(HOME, 3, INV, addr));
    let sent = ctx.last_sent().unwrap();
    assert_eq!(sent.handler, ACK);
    assert_eq!(sent.dst, NodeId::new(HOME));
    assert_eq!(sent.vn, VirtualNet::Response);
}

#[test]
fn owner_recall_returns_data_and_invalidates_its_copy() {
    let cfg = SystemConfig::test_config(4);
    let mut p = StacheProtocol::new(NodeId::new(2), &layout(), &cfg);
    let mut ctx = checked_ctx(2);
    let thread = ThreadId(NodeId::new(2));
    let addr = VPN.base().offset(64);
    p.on_page_fault(&mut ctx, PageFault { thread, addr, kind: AccessKind::Store });
    let meta = ctx.page_meta(VPN).unwrap();
    p.on_block_fault(
        &mut ctx,
        BlockFault { thread, addr, kind: AccessKind::Store, tag: Tag::Invalid, meta },
    );
    let mut block = [0u8; BLOCK_BYTES];
    block[0..8].copy_from_slice(&9u64.to_le_bytes());
    p.on_message(
        &mut ctx,
        Message {
            src: NodeId::new(HOME),
            dst: NodeId::new(2),
            vn: VirtualNet::Response,
            handler: PUT_RW,
            payload: Payload::with_block(&[addr.raw()], block),
        },
    );
    ctx.clear_effects();

    p.on_message(&mut ctx, get(HOME, 2, RECALL_RW, addr));
    assert_eq!(ctx.read_tag(addr), Tag::Invalid, "exclusive copy given up");
    let sent = ctx.last_sent().unwrap();
    assert_eq!(sent.handler, RECALL_DATA);
    assert_eq!(&sent.payload.block()[0..8], &9u64.to_le_bytes());
}

#[test]
fn page_replacement_writes_back_only_modified_blocks() {
    let mut cfg = SystemConfig::test_config(4);
    cfg.stache_capacity_bytes = PAGE_BYTES; // budget: one stache page
                                            // Two remote pages homed on node 0.
    let mut l = Layout::new();
    l.add(Region {
        base: VPN.base(),
        bytes: 2 * PAGE_BYTES,
        placement: Placement::PerPage(vec![NodeId::new(HOME); 2]),
        mode: 0,
    });
    let mut p = StacheProtocol::new(NodeId::new(2), &l, &cfg);
    let mut ctx = checked_ctx(2);
    let thread = ThreadId(NodeId::new(2));

    // Fault in page 0 and make one block writable (as if granted).
    p.on_page_fault(&mut ctx, PageFault { thread, addr: VPN.base(), kind: AccessKind::Store });
    ctx.set_tag(VPN.base(), Tag::ReadWrite);
    ctx.write_word(VPN.base(), 42);
    ctx.set_tag(VPN.base().offset(32), Tag::ReadOnly); // clean copy
    ctx.clear_effects();

    // Faulting in page 1 exceeds the budget: page 0 is replaced.
    let vpn1 = Vpn(VPN.0 + 1);
    p.on_page_fault(&mut ctx, PageFault { thread, addr: vpn1.base(), kind: AccessKind::Load });
    let wbs: Vec<_> = ctx.sent.iter().filter(|s| s.handler == WRITEBACK).collect();
    assert_eq!(wbs.len(), 1, "only the ReadWrite block is written back");
    assert_eq!(wbs[0].payload.words()[0], VPN.base().raw());
    assert_eq!(&wbs[0].payload.block()[0..8], &42u64.to_le_bytes());
    assert!(ctx.translate(VPN).is_none(), "victim page unmapped");
    assert!(ctx.translate(vpn1).is_some(), "new stache page mapped");
}
