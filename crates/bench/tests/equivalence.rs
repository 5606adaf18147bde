//! Direct execution is purely a simulator-speed optimization: with the
//! inline hit-run executor forced off, every machine must produce the
//! exact same cycle tables. These tests pin that equivalence over the
//! full figure 3 small-scale sweep (Typhoon/Stache and DirNNB at every
//! app × cache point) and the figure 4 sweep (which adds Typhoon/Update
//! and flush synchronization).

use tt_apps::AppId;
use tt_bench::{bench_config, figure3_runs, figure4_runs, smoke, sweep};

#[test]
fn figure3_sweep_is_identical_with_direct_execution_off() {
    let on = bench_config(smoke::NODES);
    let mut off = bench_config(smoke::NODES);
    off.direct_execution = false;
    assert!(on.direct_execution, "direct execution defaults on");
    let runs = figure3_runs(&AppId::ALL, smoke::SCALE, &on);
    let fast = sweep(4, 1, &runs);
    let slow = sweep(4, 1, &figure3_runs(&AppId::ALL, smoke::SCALE, &off));
    assert_eq!(fast.len(), slow.len());
    for ((run, f), s) in runs.iter().zip(&fast).zip(&slow) {
        assert_eq!(f.cycles, s.cycles, "{} cycles diverged at {}", run.system, run.point);
    }
}

#[test]
fn figure4_sweep_is_identical_with_direct_execution_off() {
    let on = bench_config(smoke::NODES);
    let mut off = bench_config(smoke::NODES);
    off.direct_execution = false;
    let runs = figure4_runs(smoke::SCALE, &on);
    let fast = sweep(4, 1, &runs);
    let slow = sweep(4, 1, &figure4_runs(smoke::SCALE, &off));
    assert_eq!(fast.len(), slow.len());
    for ((run, f), s) in runs.iter().zip(&fast).zip(&slow) {
        assert_eq!(f.cycles, s.cycles, "{} cycles diverged at {}", run.system, run.point);
    }
}

/// `sim_threads` and `window_policy` survive only as fields the
/// benchmark in `perfbench/` still sets: no simulator code reads them,
/// so a run with them set is the sequential run, bit for bit, and
/// reports no parallel-simulator telemetry.
#[test]
fn retired_parallel_knobs_leave_runs_unchanged() {
    use tt_apps::{AppId, DataSet};
    use tt_base::WindowPolicy;
    use tt_bench::{build_app, sync_for, System};
    use tt_dirnnb::DirnnbMachine;
    use tt_stache::StacheProtocol;
    use tt_typhoon::{RunResult, TyphoonMachine};

    let run = |system: System, threads: usize| -> RunResult {
        let mut cfg = bench_config(smoke::NODES);
        cfg.sim_threads = threads;
        cfg.window_policy = WindowPolicy::Adaptive;
        let sync = sync_for(AppId::Em3d, system);
        let workload = build_app(AppId::Em3d, DataSet::Small, smoke::SCALE, cfg.nodes, sync);
        match system {
            System::Dirnnb => DirnnbMachine::new(cfg, workload).run(),
            _ => TyphoonMachine::new(cfg, workload, &|id, layout, cfg| {
                Box::new(StacheProtocol::new(id, layout, cfg))
            })
            .run(),
        }
    };
    for system in [System::TyphoonStache, System::Dirnnb] {
        let seq = run(system, 1);
        let shim = run(system, 2);
        assert_eq!(seq.cycles, shim.cycles, "{}", system.name());
        assert_eq!(seq.report, shim.report, "{}", system.name());
        assert_eq!(shim.pdes, None, "{}", system.name());
    }
}
