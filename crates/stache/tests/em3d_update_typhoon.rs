//! End-to-end tests of the custom EM3D delayed-update protocol on
//! Typhoon: copies go stale within a phase, flushes push only modified
//! values, the fuzzy barrier counts updates, and — the whole point — the
//! steady state needs no request/response/invalidate/ack round trips.

use tt_base::addr::{VAddr, PAGE_BYTES};
use tt_base::workload::{Layout, Op, Placement, Region, ScriptWorkload, SHARED_SEGMENT_BASE};
use tt_base::{NodeId, SystemConfig};
use tt_stache::custom::{EM3D_E_MODE, EM3D_H_MODE, FLUSH_OP};
use tt_stache::Em3dUpdateProtocol;
use tt_typhoon::TyphoonMachine;

const E_BASE: u64 = SHARED_SEGMENT_BASE;
const H_BASE: u64 = SHARED_SEGMENT_BASE + 0x10_0000;

/// E values homed on node 0 (mode E), H values homed on node 1 (mode H).
fn em3d_layout() -> Layout {
    let mut l = Layout::new();
    l.add(Region {
        base: VAddr::new(E_BASE),
        bytes: PAGE_BYTES,
        placement: Placement::PerPage(vec![NodeId::new(0)]),
        mode: EM3D_E_MODE,
    });
    l.add(Region {
        base: VAddr::new(H_BASE),
        bytes: PAGE_BYTES,
        placement: Placement::PerPage(vec![NodeId::new(1)]),
        mode: EM3D_H_MODE,
    });
    l
}

fn flush(mode: u8) -> Op {
    Op::UserCall { op: FLUSH_OP, arg: mode as u64 }
}

fn run(w: ScriptWorkload, nodes: usize) -> tt_typhoon::RunResult {
    let mut m =
        TyphoonMachine::new(SystemConfig::test_config(nodes), Box::new(w), &|id, layout, cfg| {
            Box::new(Em3dUpdateProtocol::new(id, layout, cfg))
        });
    m.run()
}

#[test]
fn delayed_updates_propagate_without_refetch() {
    let mut w = ScriptWorkload::new(2).with_layout(em3d_layout());
    let e0 = VAddr::new(E_BASE);
    let h0 = VAddr::new(H_BASE);

    // Node 0 owns E; node 1 owns H. Two iterations of the EM3D pattern.
    w.set(
        0,
        vec![
            // init: write own e value.
            Op::Write { addr: e0, value: 1 },
            Op::Barrier,
            // iter 1, compute E: read h (first touch -> CGET), write e.
            Op::Read { addr: h0, expect: Some(100) },
            Op::Write { addr: e0, value: 101 },
            flush(EM3D_E_MODE),
            Op::Barrier, // warmup barrier after first E phase
            // iter 1 compute H happens on node 1.
            flush(EM3D_H_MODE),
            Op::Barrier, // warmup barrier after first H phase
            // iter 2, compute E: h was refreshed by the update push.
            Op::Read { addr: h0, expect: Some(201) },
            Op::Write { addr: e0, value: 202 },
            flush(EM3D_E_MODE),
            flush(EM3D_H_MODE),
            Op::Barrier,
            // Final value of h after node 1's second H phase.
            Op::Read { addr: h0, expect: Some(302) },
        ],
    );
    w.set(
        1,
        vec![
            // init: write own h value.
            Op::Write { addr: h0, value: 100 },
            Op::Barrier,
            // iter 1: node 0 computes E.
            flush(EM3D_E_MODE),
            Op::Barrier,
            // iter 1, compute H: read e (first touch -> CGET), write h.
            Op::Read { addr: e0, expect: Some(101) },
            Op::Write { addr: h0, value: 201 },
            flush(EM3D_H_MODE),
            Op::Barrier,
            // iter 2: node 0 computes E (pushes e update here).
            flush(EM3D_E_MODE),
            // iter 2, compute H: e refreshed by update, local hit.
            Op::Read { addr: e0, expect: Some(202) },
            Op::Write { addr: h0, value: 302 },
            flush(EM3D_H_MODE),
            Op::Barrier,
        ],
    );

    let r = run(w, 2);
    // Exactly one CGET per direction, ever: iteration 2 reads are local.
    assert_eq!(r.report.get("em3d.cgets"), Some(2.0));
    assert_eq!(r.report.get("em3d.cputs"), Some(2.0));
    // Updates flowed: e updates in iter-2 E flush; h updates in both
    // H flushes after the copy existed.
    assert!(r.report.get("em3d.updates_sent").unwrap() >= 3.0);
    assert_eq!(r.report.get("em3d.updates_sent"), r.report.get("em3d.updates_received"));
    // The custom protocol never invalidates and never acknowledges.
    assert_eq!(r.report.get("stache.invals_sent"), Some(0.0));
    assert_eq!(r.report.get("stache.recalls_sent"), Some(0.0));
    // Home writes never fault (tags stay ReadWrite at the home).
    assert_eq!(r.report.get("stache.home_faults"), Some(0.0));
}

#[test]
fn fuzzy_barrier_blocks_until_updates_arrive() {
    // Node 1 stachs node 0's e block, then both flush E. Node 0 computes
    // a long time before flushing, so node 1's flush must actually wait.
    let mut w = ScriptWorkload::new(2).with_layout(em3d_layout());
    let e0 = VAddr::new(E_BASE);
    w.set(
        0,
        vec![
            Op::Write { addr: e0, value: 7 },
            Op::Barrier,
            Op::Barrier,
            Op::Compute(20_000),
            Op::Write { addr: e0, value: 8 },
            flush(EM3D_E_MODE),
        ],
    );
    w.set(
        1,
        vec![
            Op::Barrier,
            Op::Read { addr: e0, expect: Some(7) },
            Op::Barrier,
            flush(EM3D_E_MODE),
            // The wait guarantees the update has been applied.
            Op::Read { addr: e0, expect: Some(8) },
        ],
    );
    let r = run(w, 2);
    assert!(
        r.report.get("cpu.call_stall_cycles").unwrap() > 15_000.0,
        "flush did not wait: {:?}",
        r.report.get("cpu.call_stall_cycles")
    );
    assert_eq!(r.report.get("em3d.updates_sent"), Some(1.0));
    // Node 0's flush found no pending wait (it stached nothing).
    assert!(r.report.get("em3d.instant_flushes").unwrap() >= 1.0);
}

#[test]
fn ordinary_pages_still_use_default_stache() {
    // A mode-0 region handled by the embedded Stache inside the custom
    // protocol: invalidation semantics still apply there.
    let mut layout = em3d_layout();
    let plain = SHARED_SEGMENT_BASE + 0x20_0000;
    layout.add(Region {
        base: VAddr::new(plain),
        bytes: PAGE_BYTES,
        placement: Placement::PerPage(vec![NodeId::new(0)]),
        mode: 0,
    });
    let mut w = ScriptWorkload::new(2).with_layout(layout);
    let p = VAddr::new(plain);
    w.set(
        0,
        vec![
            Op::Write { addr: p, value: 5 },
            Op::Barrier,
            Op::Barrier,
            Op::Write { addr: p, value: 6 },
            Op::Barrier,
        ],
    );
    w.set(
        1,
        vec![
            Op::Barrier,
            Op::Read { addr: p, expect: Some(5) },
            Op::Barrier,
            Op::Barrier,
            Op::Read { addr: p, expect: Some(6) },
        ],
    );
    let r = run(w, 2);
    assert_eq!(r.report.get("stache.invals_sent"), Some(1.0));
    assert_eq!(r.report.get("stache.ro_requests"), Some(2.0));
    assert_eq!(r.report.get("em3d.cgets"), Some(0.0));
}
