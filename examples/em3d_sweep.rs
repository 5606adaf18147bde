//! A miniature Figure 4: sweep the fraction of non-local EM3D edges and
//! compare the three systems at reduced scale.
//!
//! ```sh
//! cargo run --release --example em3d_sweep
//! ```

use tempest_typhoon::base::table::Table;
use tt_bench_shim::*;

// The bench harness lives in the workspace's tt-bench crate; the facade
// crate re-implements the few lines needed here so the example depends
// only on the published library surface.
mod tt_bench_shim {
    pub use tempest_typhoon::apps::em3d::{Em3d, Em3dParams};
    pub use tempest_typhoon::apps::{PhasedWorkload, SyncMode};
    pub use tempest_typhoon::base::config::DirPlacement;
    pub use tempest_typhoon::base::SystemConfig;
    pub use tempest_typhoon::dirnnb::DirnnbMachine;
    pub use tempest_typhoon::stache::{Em3dUpdateProtocol, StacheProtocol};
    pub use tempest_typhoon::typhoon::TyphoonMachine;
}

fn params(pct: f64, procs: usize, sync: SyncMode) -> Em3dParams {
    Em3dParams {
        graph_nodes: 6_000,
        degree: 6,
        pct_remote: pct,
        iterations: 4,
        procs,
        seed: 0xE3D,
        sync,
    }
}

#[allow(clippy::field_reassign_with_default)] // config idiom
fn main() {
    let procs = 16;
    let mut cfg = SystemConfig::default();
    cfg.nodes = procs;
    cfg.cpu.cache_bytes = 16 * 1024;
    cfg.placement = DirPlacement::Owner;

    let mut table = Table::new(vec!["% non-local", "DirNNB", "Typhoon/Stache", "Typhoon/Update"]);
    for pct in [0.0, 0.25, 0.5] {
        let app = Em3d::new(params(pct, procs, SyncMode::Barrier));
        let denom = (app.total_edges() * 4) as f64;

        let dirnnb = DirnnbMachine::new(
            cfg.clone(),
            Box::new(PhasedWorkload::new(Em3d::new(params(pct, procs, SyncMode::Barrier)))),
        )
        .run()
        .cycles;
        let stache = TyphoonMachine::new(
            cfg.clone(),
            Box::new(PhasedWorkload::new(app)),
            &|id, layout, cfg| Box::new(StacheProtocol::new(id, layout, cfg)),
        )
        .run()
        .cycles;
        let update = TyphoonMachine::new(
            cfg.clone(),
            Box::new(PhasedWorkload::new(Em3d::new(params(pct, procs, SyncMode::Flush)))),
            &|id, layout, cfg| Box::new(Em3dUpdateProtocol::new(id, layout, cfg)),
        )
        .run()
        .cycles;

        table.row(vec![
            format!("{:.0}%", pct * 100.0),
            format!("{:.2}", dirnnb.as_f64() / denom),
            format!("{:.2}", stache.as_f64() / denom),
            format!("{:.2}", update.as_f64() / denom),
        ]);
    }
    println!("EM3D cycles per edge per iteration ({procs} nodes, 6,000 graph nodes):\n");
    println!("{table}");
    println!("The custom delayed-update protocol eliminates the per-iteration");
    println!("invalidate/refetch round trips; its advantage grows with the");
    println!("fraction of remote edges (paper Figure 4).");
}
