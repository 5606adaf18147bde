//! The benchmark's workloads: which simulations each one runs, and on
//! which machine configuration.
//!
//! A workload is a closed batch of simulations run back to back. The
//! benchmark seed reaches only the input generators: `SystemConfig::seed`,
//! the application parameters' `seed`, and `KvParams::seed`.

use tt_apps::appbt::{Appbt, AppbtParams};
use tt_apps::barnes::{Barnes, BarnesParams};
use tt_apps::em3d::{Em3d, Em3dParams};
use tt_apps::mp3d::{Mp3d, Mp3dParams};
use tt_apps::ocean::{Ocean, OceanParams};
use tt_apps::{AppId, DataSet, PhasedWorkload};
use tt_base::workload::Workload;
use tt_base::{FaultSpec, SystemConfig, Topology, WindowPolicy};
use tt_serve::{KvParams, KvVariant};

/// Every workload name, in the order the documentation lists them.
pub const WORKLOADS: [&str; 3] = ["fig3-32", "kv-mesh-64", "pdes-256"];

/// The seed whose simulated outputs are pinned in `digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// The Figure 3 legend: data set and CPU cache size.
const FIGURE3_POINTS: [(DataSet, usize); 5] = [
    (DataSet::Small, 4 * 1024),
    (DataSet::Small, 16 * 1024),
    (DataSet::Small, 64 * 1024),
    (DataSet::Small, 256 * 1024),
    (DataSet::Large, 256 * 1024),
];

/// Which machine a simulation runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    /// Typhoon with Stache, or with a KV server protocol for KV jobs.
    Typhoon,
    /// The all-hardware DirNNB directory machine.
    Dirnnb,
}

impl System {
    /// Metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            System::Typhoon => "typhoon",
            System::Dirnnb => "dirnnb",
        }
    }
}

/// What a simulation runs.
#[derive(Clone, Debug)]
pub enum Job {
    /// One of the five applications at a Table 3 data set, shrunk by
    /// `scale`.
    App {
        /// Application.
        app: AppId,
        /// Table 3 data set.
        set: DataSet,
        /// Divisor applied to the data set's element counts.
        scale: usize,
        /// Application generator seed (unused by Ocean and Appbt, whose
        /// inputs are not random).
        seed: u64,
    },
    /// A `tt-serve` run; the server protocol follows `KvParams::variant`.
    Kv(KvParams),
}

/// One simulation of a workload.
#[derive(Clone, Debug)]
pub struct Sim {
    /// Unique name within the workload; keys the expected digests.
    pub label: String,
    /// Machine.
    pub system: System,
    /// Machine configuration.
    pub cfg: SystemConfig,
    /// Workload run on the machine.
    pub job: Job,
}

impl Job {
    /// Builds the simulated program.
    pub fn build(&self, procs: usize) -> Box<dyn Workload> {
        match self {
            Job::App {
                app,
                set,
                scale,
                seed,
            } => build_app(*app, *set, *scale, procs, *seed),
            Job::Kv(p) => Box::new(tt_serve::KvWorkload::new(p.clone())),
        }
    }
}

/// Builds an application at a Table 3 data set divided by `scale`, with
/// the same shrinking rules as the figure sweeps.
fn build_app(app: AppId, set: DataSet, scale: usize, procs: usize, seed: u64) -> Box<dyn Workload> {
    let scaled = |count| tt_apps::datasets::scaled(count, scale, 4 * procs);
    match app {
        AppId::Em3d => {
            let mut p = Em3dParams::table3(set, procs);
            p.graph_nodes = scaled(p.graph_nodes);
            p.seed = seed;
            Box::new(PhasedWorkload::new(Em3d::new(p)))
        }
        AppId::Ocean => {
            let mut p = OceanParams::table3(set, procs);
            p.n = ((p.n as f64 / (scale as f64).sqrt()) as usize).max(8);
            Box::new(PhasedWorkload::new(Ocean::new(p)))
        }
        AppId::Mp3d => {
            let mut p = Mp3dParams::table3(set, procs);
            p.molecules = scaled(p.molecules);
            p.cells_per_side = ((p.molecules as f64 / 4.0).cbrt().ceil() as usize).max(4);
            p.seed = seed;
            Box::new(PhasedWorkload::new(Mp3d::new(p)))
        }
        AppId::Barnes => {
            let mut p = BarnesParams::table3(set, procs);
            p.bodies = scaled(p.bodies);
            p.seed = seed;
            Box::new(PhasedWorkload::new(Barnes::new(p)))
        }
        AppId::Appbt => {
            let mut p = AppbtParams::table3(set, procs);
            p.n = ((p.n as f64 / (scale as f64).cbrt()) as usize).max(6);
            Box::new(PhasedWorkload::new(Appbt::new(p)))
        }
    }
}

#[allow(clippy::field_reassign_with_default)] // mutate-after-default is the config idiom
fn config(nodes: usize, topology: Topology, seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::default();
    cfg.nodes = nodes;
    cfg.topology = topology;
    cfg.seed = seed;
    cfg
}

/// Every Figure 3 point of `apps` on both machines.
fn figure3_grid(apps: &[AppId], scale: usize, base: &SystemConfig, seed: u64) -> Vec<Sim> {
    let mut sims = Vec::new();
    for &app in apps {
        for (set, cache_bytes) in FIGURE3_POINTS {
            for system in [System::Typhoon, System::Dirnnb] {
                let mut cfg = base.clone();
                cfg.cpu.cache_bytes = cache_bytes;
                sims.push(Sim {
                    label: format!("{app}-{set}-{}K-{}", cache_bytes / 1024, system.name()),
                    system,
                    cfg,
                    job: Job::App {
                        app,
                        set,
                        scale,
                        seed,
                    },
                });
            }
        }
    }
    sims
}

fn kv_sim(base: &SystemConfig, seed: u64, write_pct: u32, skew: f64, variant: KvVariant) -> Sim {
    let mut p = KvParams::small(variant);
    p.nodes = base.nodes;
    p.keys = 2048;
    p.requests_per_node = 256;
    p.value_words = 4;
    p.mean_interarrival = 500.0;
    p.write_pct = write_pct;
    p.skew = skew;
    p.seed = seed;
    let lossy = if base.fault.is_some() { "-lossy" } else { "" };
    Sim {
        label: format!("{}-w{write_pct}-s{skew}{lossy}", variant.name()),
        system: System::Typhoon,
        cfg: base.clone(),
        job: Job::Kv(p),
    }
}

/// The simulations of workload `name` at `seed`, or `None` for an
/// unknown name.
pub fn sims(name: &str, seed: u64) -> Option<Vec<Sim>> {
    let mesh = Topology::Mesh2D { width: 0 };
    Some(match name {
        "fig3-32" => figure3_grid(&AppId::ALL, 8, &config(32, Topology::Ideal, seed), seed),
        "kv-mesh-64" => {
            let base = config(64, mesh, seed);
            let mut sims = Vec::new();
            for write_pct in [5, 50] {
                for skew in [0.9, 1.2] {
                    for variant in [KvVariant::Stache, KvVariant::Update] {
                        sims.push(kv_sim(&base, seed, write_pct, skew, variant));
                    }
                }
            }
            // Drop and duplicate at 20‰. The schedule's seed is fixed:
            // the benchmark seed feeds only the input generators.
            let mut lossy = base;
            lossy.fault = Some(FaultSpec::uniform(7, 20));
            for variant in [KvVariant::Stache, KvVariant::Update] {
                sims.push(kv_sim(&lossy, seed, 5, 0.9, variant));
            }
            sims
        }
        "pdes-256" => {
            let mut base = config(256, mesh, seed);
            base.sim_threads = 2;
            base.window_policy = WindowPolicy::Adaptive;
            figure3_grid(&[AppId::Ocean, AppId::Em3d], 16, &base, seed)
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_unique_labels() {
        for name in WORKLOADS {
            let sims = sims(name, DEFAULT_SEED).expect("known workload");
            let mut labels: Vec<&str> = sims.iter().map(|s| s.label.as_str()).collect();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels.len(), sims.len(), "{name}: duplicate labels");
        }
        assert!(sims("nope", DEFAULT_SEED).is_none());
    }
}
