//! Quickstart: build a Typhoon machine, run a small shared-memory
//! program under the Stache protocol, and read the statistics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use tempest_typhoon::apps::em3d::{Em3d, Em3dParams};
use tempest_typhoon::apps::{PhasedWorkload, SyncMode};
use tempest_typhoon::base::SystemConfig;
use tempest_typhoon::stache::StacheProtocol;
use tempest_typhoon::typhoon::TyphoonMachine;

#[allow(clippy::field_reassign_with_default)] // config idiom
fn main() {
    // 1. Configure the target system (defaults are the paper's Table 2).
    let mut cfg = SystemConfig::default();
    cfg.nodes = 8;
    cfg.cpu.cache_bytes = 16 * 1024;
    // Verify every load against a sequentially consistent execution.
    cfg.verify_values = true;

    // 2. Pick a workload: a small EM3D instance, transparent shared
    //    memory (barrier-synchronized).
    let params = Em3dParams {
        graph_nodes: 2_000,
        degree: 5,
        pct_remote: 0.2,
        iterations: 3,
        procs: cfg.nodes,
        seed: 42,
        sync: SyncMode::Barrier,
    };
    let workload = Box::new(PhasedWorkload::new(Em3d::new(params)));

    // 3. Build the machine with one Stache protocol instance per node and
    //    run it to completion.
    let mut machine = TyphoonMachine::new(cfg, workload, &|node, layout, cfg| {
        Box::new(StacheProtocol::new(node, layout, cfg))
    });
    let result = machine.run();

    // 4. Inspect the results.
    println!("executed in {} cycles\n", result.cycles);
    println!("{}", result.report);
}
