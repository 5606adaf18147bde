//! PDES telemetry: the adaptive window policy must (a) report the same
//! cycle table as the fixed policy and (b) actually cut the rendezvous
//! count on a barrier-heavy, idle-heavy point — the workload shape the
//! widening exists for. Ocean small on 32 nodes leaves most processors
//! idle at barriers (12 grid rows, 32 processors), so the fixed-quantum
//! driver synchronizes a thousand windows that the per-shard bounds
//! batch into a few hundred: the surviving rounds are paced by genuine
//! cross-shard request/reply traffic (the echo clamp), not by the
//! quantum.

use tt_apps::{AppId, DataSet};
use tt_base::WindowPolicy;
use tt_bench::{bench_config, build_app, run_system, sync_for, System};

#[test]
fn adaptive_windows_cut_rendezvous_on_idle_heavy_ocean() {
    let nodes = 32;
    let scale = 40;
    let run = |policy: WindowPolicy| {
        let mut cfg = bench_config(nodes);
        cfg.sim_threads = 2;
        cfg.window_policy = policy;
        run_system(System::TyphoonStache, &cfg, 1, || {
            build_app(
                AppId::Ocean,
                DataSet::Small,
                scale,
                nodes,
                sync_for(AppId::Ocean, System::TyphoonStache),
            )
        })
    };
    let fixed = run(WindowPolicy::Fixed);
    let adaptive = run(WindowPolicy::Adaptive);
    assert_eq!(
        fixed.cycles, adaptive.cycles,
        "window policy changed the simulated result"
    );
    let f = fixed.pdes.expect("parallel run reports telemetry");
    let a = adaptive.pdes.expect("parallel run reports telemetry");
    println!("fixed:    {f:?}");
    println!("adaptive: {a:?}");
    // Event counts may differ slightly between policies: direct-execution
    // wakeup elision depends on window shape. Cycle tables never do.
    assert_eq!(f.releases, a.releases, "same barrier generations either way");
    assert!(
        a.rendezvous * 5 <= f.rendezvous,
        "expected >= 5x rendezvous reduction, got {} -> {}",
        f.rendezvous,
        a.rendezvous
    );
}
