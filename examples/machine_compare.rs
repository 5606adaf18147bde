//! Run one application on both target machines and compare where the
//! cycles go — a small version of the paper's Figure 3 methodology with
//! the statistics behind it.
//!
//! ```sh
//! cargo run --release --example machine_compare [app]
//! ```
//! where `app` is one of `appbt`, `barnes`, `mp3d`, `ocean`, `em3d`
//! (default `ocean`).

use tempest_typhoon::apps::appbt::{Appbt, AppbtParams};
use tempest_typhoon::apps::barnes::{Barnes, BarnesParams};
use tempest_typhoon::apps::em3d::{Em3d, Em3dParams};
use tempest_typhoon::apps::mp3d::{Mp3d, Mp3dParams};
use tempest_typhoon::apps::ocean::{Ocean, OceanParams};
use tempest_typhoon::apps::{PhasedWorkload, SyncMode};
use tempest_typhoon::base::stats::Report;
use tempest_typhoon::base::workload::Workload;
use tempest_typhoon::base::SystemConfig;
use tempest_typhoon::dirnnb::DirnnbMachine;
use tempest_typhoon::stache::StacheProtocol;
use tempest_typhoon::typhoon::TyphoonMachine;

fn build(app: &str, procs: usize) -> Box<dyn Workload> {
    match app {
        "appbt" => {
            Box::new(PhasedWorkload::new(Appbt::new(AppbtParams { n: 12, iterations: 2, procs })))
        }
        "barnes" => Box::new(PhasedWorkload::new(Barnes::new(BarnesParams {
            bodies: 1024,
            iterations: 2,
            theta: 0.8,
            dt: 0.05,
            procs,
            seed: 1,
        }))),
        "mp3d" => Box::new(PhasedWorkload::new(Mp3d::new(Mp3dParams {
            molecules: 4_000,
            cells_per_side: 10,
            steps: 3,
            procs,
            seed: 1,
        }))),
        "ocean" => Box::new(PhasedWorkload::new(Ocean::new(OceanParams {
            n: 66,
            iterations: 3,
            procs,
            sync: SyncMode::Barrier,
        }))),
        "em3d" => Box::new(PhasedWorkload::new(Em3d::new(Em3dParams {
            graph_nodes: 8_000,
            degree: 6,
            pct_remote: 0.15,
            iterations: 3,
            procs,
            seed: 1,
            sync: SyncMode::Barrier,
        }))),
        other => panic!("unknown app {other}; try appbt|barnes|mp3d|ocean|em3d"),
    }
}

fn show(report: &Report, keys: &[&str]) {
    for k in keys {
        if let Some(v) = report.get(k) {
            println!("    {k:32} {v}");
        }
    }
}

#[allow(clippy::field_reassign_with_default)] // config idiom
fn main() {
    let app = std::env::args().nth(1).unwrap_or_else(|| "ocean".into());
    let procs = 16;
    let mut cfg = SystemConfig::default();
    cfg.nodes = procs;
    cfg.cpu.cache_bytes = 8 * 1024;

    println!("== {app} on {procs} nodes, 8 KB caches ==\n");

    let ty = TyphoonMachine::new(cfg.clone(), build(&app, procs), &|id, layout, cfg| {
        Box::new(StacheProtocol::new(id, layout, cfg))
    })
    .run();
    println!("Typhoon/Stache: {} cycles", ty.cycles);
    show(
        &ty.report,
        &[
            "cpu.local_misses",
            "cpu.block_faults",
            "cpu.page_faults",
            "cpu.fault_stall_cycles",
            "cpu.barrier_wait_cycles",
            "np.handlers",
            "np.instructions",
            "net.packets",
            "stache.ro_requests",
            "stache.rw_requests",
            "stache.invals_sent",
        ],
    );

    let d = DirnnbMachine::new(cfg, build(&app, procs)).run();
    println!("\nDirNNB: {} cycles", d.cycles);
    show(
        &d.report,
        &[
            "cpu.local_misses",
            "cpu.remote_misses",
            "cpu.upgrades",
            "cpu.miss_stall_cycles",
            "cpu.barrier_wait_cycles",
            "dir.ops",
            "dir.invalidations",
            "dir.recalls",
            "net.packets",
        ],
    );

    println!(
        "\nTyphoon/Stache relative execution time: {:.3}",
        ty.cycles.as_f64() / d.cycles.as_f64()
    );
    println!("(< 1.0 means the user-level system is faster)");
}
