//! Direct execution is purely a simulator-speed optimization: with the
//! inline hit-run executor forced off, every machine must produce the
//! exact same cycle tables. These tests pin that equivalence over the
//! full figure 3 small-scale sweep (Typhoon/Stache and DirNNB at every
//! app × cache point) and the figure 4 sweep (which adds Typhoon/Update
//! and flush synchronization).

use tt_apps::AppId;
use tt_bench::{bench_config, figure3_sweep, figure4_sweep, smoke, FIGURE3_POINTS};

#[test]
fn figure3_sweep_is_identical_with_direct_execution_off() {
    let on = bench_config(smoke::NODES);
    let mut off = bench_config(smoke::NODES);
    off.direct_execution = false;
    assert!(on.direct_execution, "direct execution defaults on");
    let fast = figure3_sweep(&AppId::ALL, smoke::SCALE, &on, 4, 1);
    let slow = figure3_sweep(&AppId::ALL, smoke::SCALE, &off, 4, 1);
    assert_eq!(fast.len(), slow.len());
    let grid =
        AppId::ALL.iter().flat_map(|&app| FIGURE3_POINTS.map(|(set, cache)| (app, set, cache)));
    for ((f, s), (app, set, cache)) in fast.iter().zip(&slow).zip(grid) {
        assert_eq!(f.typhoon, s.typhoon, "Typhoon/Stache cycles diverged at {app} {set}/{cache}");
        assert_eq!(f.dirnnb, s.dirnnb, "DirNNB cycles diverged at {app} {set}/{cache}");
    }
}

#[test]
fn figure4_sweep_is_identical_with_direct_execution_off() {
    let on = bench_config(smoke::NODES);
    let mut off = bench_config(smoke::NODES);
    off.direct_execution = false;
    let fast = figure4_sweep(smoke::SCALE, &on, 4, 1);
    let slow = figure4_sweep(smoke::SCALE, &off, 4, 1);
    assert_eq!(fast.len(), slow.len());
    for (f, s) in fast.iter().zip(&slow) {
        assert_eq!(
            f.cycles,
            s.cycles,
            "cycles diverged at {}% remote (DirNNB, Typhoon/Stache, Typhoon/Update)",
            f.pct_remote * 100.0
        );
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
