//! The benchmark harness: builds workloads at Table 3 scale (optionally
//! scaled down), runs them on the three systems the paper compares, and
//! formats the Figure 3 / Figure 4 series.
//!
//! Binaries:
//!
//! - `tables`  — regenerates Tables 1, 2, and 3 from the live code;
//! - `figure3` — relative execution time of Typhoon/Stache vs. DirNNB for
//!   all five applications across data-set/cache-size points;
//! - `figure4` — EM3D cycles per edge vs. % non-local edges for DirNNB,
//!   Typhoon/Stache, and Typhoon with the custom update protocol;
//! - `ablations` — the design-choice sweeps listed in DESIGN.md §5.
//!
//! Benches (`cargo bench`, on the dependency-free [`harness`]):
//! `microbench` measures the simulator substrate's hot paths, and
//! `figures` runs reduced-scale figure points so the paper's comparisons
//! are exercised under `cargo bench` too.
//!
//! Sweeps fan out across OS threads via [`par`] (`--jobs N`); each point
//! is an independent single-threaded simulation, so tables are
//! byte-identical whatever `jobs` is. `--json PATH` writes per-run
//! throughput records (see [`json`]).

pub mod cli;
pub mod harness;
pub mod json;
pub mod par;

pub use cli::{parse_cli, parse_cli_with, Cli};

use std::time::Instant;

/// Every bench binary counts its heap traffic (DESIGN.md §11 reports
/// resident bytes/node for the big-machine sweeps). The counters are
/// process-global: per-run readings are attributable only at `--jobs 1`.
#[global_allocator]
static ALLOC: tt_base::alloc_stats::CountingAlloc = tt_base::alloc_stats::CountingAlloc;

use tt_apps::appbt::{Appbt, AppbtParams};
use tt_apps::barnes::{Barnes, BarnesParams};
use tt_apps::em3d::{Em3d, Em3dParams};
use tt_apps::mp3d::{Mp3d, Mp3dParams};
use tt_apps::ocean::{Ocean, OceanParams};
use tt_apps::{AppId, DataSet, PhasedWorkload, SyncMode};
use tt_base::stats::Report;
use tt_base::workload::Workload;
use tt_base::{Cycles, SystemConfig};
use tt_dirnnb::DirnnbMachine;
use tt_stache::{Em3dUpdateProtocol, StacheProtocol};
use tt_typhoon::TyphoonMachine;

/// The three systems of the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    /// All-hardware DirNNB directory protocol.
    Dirnnb,
    /// Typhoon running the default invalidation-based Stache protocol.
    TyphoonStache,
    /// Typhoon running the custom EM3D delayed-update protocol
    /// (EM3D only).
    TyphoonUpdate,
}

impl System {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            System::Dirnnb => "DirNNB",
            System::TyphoonStache => "Typhoon/Stache",
            System::TyphoonUpdate => "Typhoon/Update",
        }
    }
}

/// Outcome of one simulation run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Execution time.
    pub cycles: Cycles,
    /// Machine/protocol statistics.
    pub report: Report,
    /// Host wall-clock seconds the run took.
    pub wall_secs: f64,
    /// Workload ops the simulated CPUs executed (`cpu.ops`).
    pub ops: u64,
    /// Heap high-water mark over the run (process-global; attributable
    /// to this run only at `--jobs 1`).
    pub peak_bytes: u64,
    /// Heap allocation events during the run (same caveat).
    pub allocs: u64,
}

/// Simulator throughput of one run: the host-side cost of a simulation,
/// as opposed to the simulated result.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Host wall-clock seconds.
    pub wall_secs: f64,
    /// Workload ops executed by the simulated CPUs.
    pub ops: u64,
    /// Heap high-water mark over the run (see [`RunOutcome::peak_bytes`]).
    pub peak_bytes: u64,
    /// Heap allocation events during the run.
    pub allocs: u64,
}

impl RunStats {
    /// Condenses a [`RunOutcome`]'s host-side throughput fields.
    pub fn of(out: &RunOutcome) -> RunStats {
        RunStats {
            wall_secs: out.wall_secs,
            ops: out.ops,
            peak_bytes: out.peak_bytes,
            allocs: out.allocs,
        }
    }
}

/// Builds one of the five applications at a Table 3 data set, divided by
/// `scale` (1 = the paper's size). Element counts shrink; the machine
/// size and iteration counts do not.
pub fn build_app(
    app: AppId,
    set: DataSet,
    scale: usize,
    procs: usize,
    sync: SyncMode,
) -> Box<dyn Workload> {
    let scale = scale.max(1);
    match app {
        AppId::Em3d => {
            let mut p = Em3dParams::table3(set, procs);
            p.graph_nodes = tt_apps::datasets::scaled(p.graph_nodes, scale, 4 * procs);
            p.sync = sync;
            Box::new(PhasedWorkload::new(Em3d::new(p)))
        }
        AppId::Ocean => {
            let mut p = OceanParams::table3(set, procs);
            // Area scales by `scale`: edge by sqrt(scale). Processors
            // beyond the row count idle, as on the real machine.
            let factor = (scale as f64).sqrt();
            p.n = ((p.n as f64 / factor) as usize).max(8);
            Box::new(PhasedWorkload::new(Ocean::new(p)))
        }
        AppId::Mp3d => {
            let mut p = Mp3dParams::table3(set, procs);
            p.molecules = tt_apps::datasets::scaled(p.molecules, scale, 4 * procs);
            p.cells_per_side = ((p.molecules as f64 / 4.0).cbrt().ceil() as usize).max(4);
            Box::new(PhasedWorkload::new(Mp3d::new(p)))
        }
        AppId::Barnes => {
            let mut p = BarnesParams::table3(set, procs);
            p.bodies = tt_apps::datasets::scaled(p.bodies, scale, 4 * procs);
            Box::new(PhasedWorkload::new(Barnes::new(p)))
        }
        AppId::Appbt => {
            let mut p = AppbtParams::table3(set, procs);
            // Volume scales by `scale`: edge by cbrt(scale). The 2-D
            // band partition keeps processors busy down to small grids.
            let factor = (scale as f64).cbrt();
            p.n = ((p.n as f64 / factor) as usize).max(6);
            Box::new(PhasedWorkload::new(Appbt::new(p)))
        }
    }
}

/// Runs a workload on the chosen system `repeat` times (min-of-N wall
/// time, cycles asserted identical across repeats); `build`
/// constructs a fresh workload for each run.
pub fn run_system(
    system: System,
    cfg: &SystemConfig,
    repeat: usize,
    build: impl Fn() -> Box<dyn Workload>,
) -> RunOutcome {
    min_of_runs(repeat, || run_once(system, cfg, build()))
}

/// One run of [`run_system`], measuring host wall time and heap traffic.
fn run_once(system: System, cfg: &SystemConfig, workload: Box<dyn Workload>) -> RunOutcome {
    tt_base::alloc_stats::reset_peak();
    let allocs_before = tt_base::alloc_stats::alloc_count();
    let start = Instant::now();
    let r = match system {
        System::Dirnnb => DirnnbMachine::new(cfg.clone(), workload).run(),
        System::TyphoonStache => TyphoonMachine::new(cfg.clone(), workload, &|id, layout, cfg| {
            Box::new(StacheProtocol::new(id, layout, cfg))
        })
        .run(),
        System::TyphoonUpdate => TyphoonMachine::new(cfg.clone(), workload, &|id, layout, cfg| {
            Box::new(Em3dUpdateProtocol::new(id, layout, cfg))
        })
        .run(),
    };
    let (cycles, report) = (r.cycles, r.report);
    let wall_secs = start.elapsed().as_secs_f64();
    let ops = report.get("cpu.ops").unwrap_or(0.0) as u64;
    RunOutcome {
        cycles,
        report,
        wall_secs,
        ops,
        peak_bytes: tt_base::alloc_stats::peak_bytes(),
        allocs: tt_base::alloc_stats::alloc_count() - allocs_before,
    }
}

/// Runs `run` `repeat` times (at least once), asserting the simulated
/// cycle count is identical across repeats — the simulation is
/// deterministic, so any divergence is a bug — and keeping the outcome
/// with the smallest wall time. Min-of-N is the standard way to take a
/// wall-clock measurement on a machine with background noise.
fn min_of_runs(repeat: usize, run: impl Fn() -> RunOutcome) -> RunOutcome {
    let mut best = run();
    for _ in 1..repeat.max(1) {
        let out = run();
        assert_eq!(
            best.cycles, out.cycles,
            "repeated run diverged: simulation is not deterministic"
        );
        if out.wall_secs < best.wall_secs {
            best = out;
        }
    }
    best
}

/// The sync mode an app must use on a system (only EM3D on
/// Typhoon/Update uses flush synchronization).
pub fn sync_for(app: AppId, system: System) -> SyncMode {
    if app == AppId::Em3d && system == System::TyphoonUpdate {
        SyncMode::Flush
    } else {
        SyncMode::Barrier
    }
}

/// A Figure 3 measurement point. Which application, data set and cache
/// size it measured is its place in the sweep ([`figure3_sweep`]).
#[derive(Clone, Debug)]
pub struct Figure3Point {
    /// Typhoon/Stache execution time.
    pub typhoon: Cycles,
    /// DirNNB execution time.
    pub dirnnb: Cycles,
    /// Host-side throughput of the Typhoon/Stache run.
    pub typhoon_stats: RunStats,
    /// Host-side throughput of the DirNNB run.
    pub dirnnb_stats: RunStats,
}

impl Figure3Point {
    /// The paper's y-axis: Typhoon/Stache time relative to DirNNB
    /// (shorter bars = better Typhoon performance).
    pub fn relative(&self) -> f64 {
        self.typhoon.as_f64() / self.dirnnb.as_f64()
    }
}

/// The Figure 3 legend: data set size / CPU cache size points.
pub const FIGURE3_POINTS: [(DataSet, usize); 5] = [
    (DataSet::Small, 4 * 1024),
    (DataSet::Small, 16 * 1024),
    (DataSet::Small, 64 * 1024),
    (DataSet::Small, 256 * 1024),
    (DataSet::Large, 256 * 1024),
];

/// Measures one Figure 3 bar, with min-of-`repeat` wall timings
/// (cycles are asserted identical across repeats).
pub fn figure3_point(
    app: AppId,
    set: DataSet,
    cache_bytes: usize,
    scale: usize,
    cfg_base: &SystemConfig,
    repeat: usize,
) -> Figure3Point {
    let mut cfg = cfg_base.clone();
    cfg.cpu.cache_bytes = cache_bytes;
    let typhoon = run_system(System::TyphoonStache, &cfg, repeat, || {
        build_app(app, set, scale, cfg.nodes, sync_for(app, System::TyphoonStache))
    });
    let dirnnb = run_system(System::Dirnnb, &cfg, repeat, || {
        build_app(app, set, scale, cfg.nodes, sync_for(app, System::Dirnnb))
    });
    Figure3Point {
        typhoon: typhoon.cycles,
        dirnnb: dirnnb.cycles,
        typhoon_stats: RunStats::of(&typhoon),
        dirnnb_stats: RunStats::of(&dirnnb),
    }
}

/// Runs the Figure 3 grid for `apps` — every application at every
/// data-set / cache-size point, min-of-`repeat` wall timings per point —
/// fanning independent points across `jobs` threads (see
/// [`par::run_indexed`]; any `jobs` yields identical results). Points
/// come back app-major in the order given × [`FIGURE3_POINTS`]; the
/// big-machine sweeps (`--nodes 256|1024`) pass a single app.
pub fn figure3_sweep(
    apps: &[AppId],
    scale: usize,
    cfg: &SystemConfig,
    jobs: usize,
    repeat: usize,
) -> Vec<Figure3Point> {
    let grid: Vec<(AppId, DataSet, usize)> = apps
        .iter()
        .copied()
        .flat_map(|app| FIGURE3_POINTS.into_iter().map(move |(set, cache)| (app, set, cache)))
        .collect();
    par::run_indexed(jobs, grid.len(), |i| {
        let (app, set, cache) = grid[i];
        figure3_point(app, set, cache, scale, cfg, repeat)
    })
}

/// A Figure 4 measurement point: EM3D cycles per edge at a remote-edge
/// fraction.
#[derive(Clone, Debug)]
pub struct Figure4Point {
    /// Percent of edges with a remote source (x-axis).
    pub pct_remote: f64,
    /// Cycles per edge per iteration for each system
    /// (DirNNB, Typhoon/Stache, Typhoon/Update).
    pub cycles_per_edge: [f64; 3],
    /// Raw execution time per system (same order).
    pub cycles: [Cycles; 3],
    /// Host-side throughput per system (same order).
    pub stats: [RunStats; 3],
}

/// The three systems of a Figure 4 point, in column order.
pub const FIGURE4_SYSTEMS: [System; 3] =
    [System::Dirnnb, System::TyphoonStache, System::TyphoonUpdate];

/// Measures one Figure 4 x-axis point (all three curves), with
/// min-of-`repeat` wall timings (cycles are asserted identical across
/// repeats).
pub fn figure4_point(
    pct_remote: f64,
    scale: usize,
    cfg: &SystemConfig,
    repeat: usize,
) -> Figure4Point {
    let mk = |sync: SyncMode| -> (Box<dyn Workload>, f64) {
        let mut p = Em3dParams::table3(DataSet::Large, cfg.nodes);
        p.graph_nodes = tt_apps::datasets::scaled(p.graph_nodes, scale, 4 * cfg.nodes);
        p.pct_remote = pct_remote;
        p.sync = sync;
        // Figure 4 measures the steady state: with the static graph, all
        // stache faults happen in iteration 1, so run enough iterations
        // that warmup does not dominate (the original EM3D runs hundreds).
        p.iterations = 8;
        let app = Em3d::new(p.clone());
        let denom = (app.total_edges() * p.iterations) as f64;
        (Box::new(PhasedWorkload::new(app)), denom)
    };
    let mut cpe = [0.0f64; 3];
    let mut cycles = [Cycles::ZERO; 3];
    let mut stats = [RunStats::default(); 3];
    for (i, system) in FIGURE4_SYSTEMS.into_iter().enumerate() {
        let sync =
            if system == System::TyphoonUpdate { SyncMode::Flush } else { SyncMode::Barrier };
        // Figure 4 isolates the protocol effect: the DirNNB comparator
        // gets ideal (owner) placement so all three systems coincide at
        // 0% non-local edges, and the CPU cache is large enough (256 KB)
        // that capacity misses do not drown the coherence traffic.
        let mut cfg = cfg.clone();
        cfg.placement = tt_base::config::DirPlacement::Owner;
        cfg.cpu.cache_bytes = 256 * 1024;
        let (_, denom) = mk(sync);
        let out = run_system(system, &cfg, repeat, || mk(sync).0);
        cpe[i] = out.cycles.as_f64() / denom;
        cycles[i] = out.cycles;
        stats[i] = RunStats::of(&out);
    }
    Figure4Point { pct_remote, cycles_per_edge: cpe, cycles, stats }
}

/// The remote-edge fractions of the Figure 4 x-axis.
pub const FIGURE4_PCTS: [f64; 6] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];

/// Runs the whole Figure 4 sweep across `jobs` threads, min-of-`repeat`
/// wall timings per point (results are identical for any `jobs`; see
/// [`par::run_indexed`]).
pub fn figure4_sweep(
    scale: usize,
    cfg: &SystemConfig,
    jobs: usize,
    repeat: usize,
) -> Vec<Figure4Point> {
    par::run_indexed(jobs, FIGURE4_PCTS.len(), |i| {
        figure4_point(FIGURE4_PCTS[i], scale, cfg, repeat)
    })
}

/// Standard bench configuration: the paper's 32 nodes, verification off
/// (it is exercised by the test suite; benches measure timing).
#[allow(clippy::field_reassign_with_default)] // mutate-after-default is the config idiom
pub fn bench_config(nodes: usize) -> SystemConfig {
    let mut cfg = SystemConfig::default();
    cfg.nodes = nodes;
    cfg.verify_values = false;
    cfg
}

/// Smoke-level constants so `cargo test -p tt-bench` stays quick.
pub mod smoke {
    /// A scale factor that shrinks every app below a second of wall time.
    pub const SCALE: usize = 64;
    /// Machine size for smoke runs.
    pub const NODES: usize = 8;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_smoke_point_is_sane() {
        let cfg = bench_config(smoke::NODES);
        let p = figure3_point(AppId::Em3d, DataSet::Small, 4 * 1024, smoke::SCALE, &cfg, 1);
        let rel = p.relative();
        assert!(rel > 0.2 && rel < 3.0, "relative time {rel}");
    }

    #[test]
    fn figure4_smoke_point_orders_systems_at_high_remote() {
        let cfg = bench_config(smoke::NODES);
        let p = figure4_point(0.5, smoke::SCALE, &cfg, 1);
        let [dirnnb, stache, update] = p.cycles_per_edge;
        assert!(update < dirnnb, "update {update} should beat DirNNB {dirnnb}");
        assert!(update < stache, "update {update} should beat Stache {stache}");
    }

    #[test]
    fn all_apps_build_at_smoke_scale() {
        for app in AppId::ALL {
            build_app(app, DataSet::Small, smoke::SCALE, 4, SyncMode::Barrier);
        }
    }

    #[test]
    fn repeat_flag_parses_and_defaults_to_one() {
        let args: Vec<String> = ["--repeat", "5"].iter().map(|s| s.to_string()).collect();
        assert_eq!(parse_cli(&args, 1, "usage").repeat, 5);
        assert_eq!(parse_cli(&[], 1, "usage").repeat, 1);
        let zero: Vec<String> = ["--repeat", "0"].iter().map(|s| s.to_string()).collect();
        assert_eq!(parse_cli(&zero, 1, "usage").repeat, 1, "repeat 0 clamps to 1");
    }

    #[test]
    fn min_of_runs_keeps_fastest_wall_time() {
        let walls = std::cell::Cell::new(0usize);
        let out = min_of_runs(3, || {
            let wall = [0.5, 0.1, 0.3][walls.get()];
            walls.set(walls.get() + 1);
            RunOutcome {
                cycles: Cycles::new(42),
                report: Report::default(),
                wall_secs: wall,
                ops: 7,
                peak_bytes: 0,
                allocs: 0,
            }
        });
        assert_eq!(walls.get(), 3);
        assert_eq!(out.wall_secs, 0.1);
        assert_eq!(out.cycles, Cycles::new(42));
    }

    #[test]
    #[should_panic(expected = "not deterministic")]
    fn min_of_runs_rejects_diverging_cycles() {
        let calls = std::cell::Cell::new(0u64);
        min_of_runs(2, || {
            calls.set(calls.get() + 1);
            RunOutcome {
                cycles: Cycles::new(calls.get()),
                report: Report::default(),
                wall_secs: 1.0,
                ops: 0,
                peak_bytes: 0,
                allocs: 0,
            }
        });
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> =
            ["--scale", "8", "--nodes", "16"].iter().map(|s| s.to_string()).collect();
        let scale_nodes = |args: &[String], scale| {
            let cli = parse_cli(args, scale, "usage");
            (cli.scale, cli.nodes)
        };
        assert_eq!(scale_nodes(&args, 1), (8, 16));
        assert_eq!(scale_nodes(&[], 4), (4, 32));
        let full: Vec<String> = vec!["--full".into()];
        assert_eq!(scale_nodes(&full, 16), (1, 32));
    }
}
