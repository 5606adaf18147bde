//! Cross-crate integration: every benchmark kernel runs to completion on
//! both machines (Typhoon/Stache and DirNNB) at reduced scale with value
//! verification enabled — an end-to-end coherence oracle for the whole
//! stack — and the custom EM3D protocol runs under its flush-based
//! synchronization.

use tempest_typhoon::apps::appbt::{Appbt, AppbtParams};
use tempest_typhoon::apps::barnes::{Barnes, BarnesParams};
use tempest_typhoon::apps::em3d::{Em3d, Em3dParams};
use tempest_typhoon::apps::mp3d::{Mp3d, Mp3dParams};
use tempest_typhoon::apps::ocean::{Ocean, OceanParams};
use tempest_typhoon::apps::{PhasedWorkload, SyncMode};
use tempest_typhoon::base::workload::Workload;
use tempest_typhoon::base::{Cycles, SystemConfig};
use tempest_typhoon::dirnnb::DirnnbMachine;
use tempest_typhoon::stache::{Em3dUpdateProtocol, StacheProtocol};
use tempest_typhoon::typhoon::TyphoonMachine;

const PROCS: usize = 8;

fn cfg() -> SystemConfig {
    let mut c = SystemConfig::test_config(PROCS);
    c.cpu.cache_bytes = 4 * 1024;
    c.verify_values = true;
    c
}

fn run_typhoon_stache(w: Box<dyn Workload>) -> Cycles {
    let mut m = TyphoonMachine::new(cfg(), w, &|id, layout, cfg| {
        Box::new(StacheProtocol::new(id, layout, cfg))
    });
    let r = m.run();
    assert!(r.cycles > Cycles::ZERO);
    r.cycles
}

fn run_dirnnb(w: Box<dyn Workload>) -> Cycles {
    let r = DirnnbMachine::new(cfg(), w).run();
    assert!(r.cycles > Cycles::ZERO);
    r.cycles
}

fn em3d(sync: SyncMode) -> Em3dParams {
    Em3dParams {
        graph_nodes: 800,
        degree: 4,
        pct_remote: 0.3,
        iterations: 2,
        procs: PROCS,
        seed: 11,
        sync,
    }
}

#[test]
fn em3d_runs_on_both_machines() {
    let t = run_typhoon_stache(Box::new(PhasedWorkload::new(Em3d::new(em3d(SyncMode::Barrier)))));
    let d = run_dirnnb(Box::new(PhasedWorkload::new(Em3d::new(em3d(SyncMode::Barrier)))));
    // Same workload, different machines: times differ but stay within an
    // order of magnitude of each other.
    let ratio = t.as_f64() / d.as_f64();
    assert!((0.2..5.0).contains(&ratio), "ratio {ratio}");
}

#[test]
fn em3d_update_protocol_runs_under_flush_sync() {
    let w = Box::new(PhasedWorkload::new(Em3d::new(em3d(SyncMode::Flush))));
    let mut m = TyphoonMachine::new(cfg(), w, &|id, layout, cfg| {
        Box::new(Em3dUpdateProtocol::new(id, layout, cfg))
    });
    let r = m.run();
    assert!(r.report.get("em3d.updates_sent").unwrap() > 0.0);
    assert_eq!(r.report.get("stache.invals_sent"), Some(0.0));
}

#[test]
fn em3d_update_beats_stache_at_high_remote_fraction() {
    let mut p = em3d(SyncMode::Barrier);
    p.pct_remote = 0.5;
    p.iterations = 4;
    let stache = run_typhoon_stache(Box::new(PhasedWorkload::new(Em3d::new(p.clone()))));
    let mut pf = p;
    pf.sync = SyncMode::Flush;
    let w = Box::new(PhasedWorkload::new(Em3d::new(pf)));
    let mut m = TyphoonMachine::new(cfg(), w, &|id, layout, cfg| {
        Box::new(Em3dUpdateProtocol::new(id, layout, cfg))
    });
    let update = m.run().cycles;
    assert!(
        update < stache,
        "custom update protocol ({update:?}) should beat Stache ({stache:?}) at 50% remote edges"
    );
}

#[test]
fn ocean_runs_on_both_machines() {
    let params = OceanParams { n: 34, iterations: 2, procs: PROCS, sync: SyncMode::Barrier };
    run_typhoon_stache(Box::new(PhasedWorkload::new(Ocean::new(params.clone()))));
    run_dirnnb(Box::new(PhasedWorkload::new(Ocean::new(params))));
}

#[test]
fn mp3d_runs_on_both_machines() {
    let params = Mp3dParams { molecules: 400, cells_per_side: 5, steps: 3, procs: PROCS, seed: 3 };
    run_typhoon_stache(Box::new(PhasedWorkload::new(Mp3d::new(params.clone()))));
    run_dirnnb(Box::new(PhasedWorkload::new(Mp3d::new(params))));
}

#[test]
fn barnes_runs_on_both_machines() {
    let params =
        BarnesParams { bodies: 128, iterations: 2, theta: 0.8, dt: 0.05, procs: PROCS, seed: 9 };
    run_typhoon_stache(Box::new(PhasedWorkload::new(Barnes::new(params.clone()))));
    run_dirnnb(Box::new(PhasedWorkload::new(Barnes::new(params))));
}

#[test]
fn appbt_runs_on_both_machines() {
    let params = AppbtParams { n: 8, iterations: 2, procs: PROCS };
    run_typhoon_stache(Box::new(PhasedWorkload::new(Appbt::new(params.clone()))));
    run_dirnnb(Box::new(PhasedWorkload::new(Appbt::new(params))));
}

#[test]
fn machines_are_deterministic_on_a_real_app() {
    let mk = || Box::new(PhasedWorkload::new(Em3d::new(em3d(SyncMode::Barrier))));
    assert_eq!(run_typhoon_stache(mk()), run_typhoon_stache(mk()));
    assert_eq!(run_dirnnb(mk()), run_dirnnb(mk()));
}

#[test]
fn ocean_boundary_push_beats_transparent_stache() {
    let mk = |sync| OceanParams { n: 40, iterations: 6, procs: PROCS, sync };
    // Transparent shared memory: every boundary row is invalidated and
    // re-fetched each sweep.
    let stache = {
        let w = Box::new(PhasedWorkload::new(Ocean::new(mk(SyncMode::Barrier))));
        let mut m = TyphoonMachine::new(cfg(), w, &|id, layout, cfg| {
            Box::new(StacheProtocol::new(id, layout, cfg))
        });
        m.run()
    };
    // Custom protocol: boundary rows are pushed once per sweep.
    let push = {
        let w = Box::new(PhasedWorkload::new(Ocean::new(mk(SyncMode::Flush))));
        let mut m = TyphoonMachine::new(cfg(), w, &|id, layout, cfg| {
            Box::new(Em3dUpdateProtocol::new(id, layout, cfg))
        });
        m.run()
    };
    assert!(push.report.get("em3d.updates_sent").unwrap() > 0.0);
    assert!(
        push.report.get("net.packets").unwrap() < stache.report.get("net.packets").unwrap(),
        "push {} packets !< stache {}",
        push.report.get("net.packets").unwrap(),
        stache.report.get("net.packets").unwrap()
    );
    assert!(push.cycles < stache.cycles, "push {} !< stache {}", push.cycles, stache.cycles);
}
