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
//! - `ablations` — the design-choice sweeps listed in DESIGN.md §5;
//! - `kv_bench` — tt-serve latency percentiles under Zipfian load.
//!
//! Benches (`cargo bench`, on the dependency-free [`harness`]):
//! `microbench` measures the simulator substrate's hot paths, and
//! `figures` runs reduced-scale figure points so the paper's comparisons
//! are exercised under `cargo bench` too.
//!
//! Every sweep binary describes its grid as a list of [`Run`]s (point
//! label, system label, [`SystemConfig`] and workload) and hands it to
//! [`sweep`] once: one fan-out across OS threads via `par` (`--jobs
//! N`), min-of-`--repeat` wall time per run. Each run is an independent
//! single-threaded simulation, so tables are byte-identical whatever
//! `jobs` is. `--json PATH` writes one record per run, each with its
//! host cost (see [`json`]).

pub mod cli;
pub mod harness;
pub mod json;
mod par;

pub use cli::{parse_cli, parse_cli_with};

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
use tt_apps::{run_kv_update, AppId, DataSet, PhasedWorkload, SyncMode};
use tt_base::config::DirPlacement;
use tt_base::stats::Report;
use tt_base::workload::Workload;
use tt_base::{Cycles, SystemConfig};
use tt_dirnnb::DirnnbMachine;
use tt_serve::{run_kv_stache, KvLatency, KvParams, KvVariant};
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

/// What a [`Run`] simulates.
enum Work {
    /// A workload on one of the paper's systems; the closure builds a
    /// fresh copy for every repeat.
    Machine(System, Box<dyn Fn() -> Box<dyn Workload> + Sync>),
    /// One tt-serve point, on the server variant its parameters name.
    Kv(KvParams),
}

/// One simulation of a sweep: its labels in the tables and the `--json`
/// report, the machine it runs on, and what it runs.
pub struct Run {
    /// Sweep coordinate, e.g. `"barnes small/64K"` or `"30% remote"`.
    pub point: String,
    /// System label, e.g. `"Typhoon/Stache"`.
    pub system: &'static str,
    /// The simulated machine.
    cfg: SystemConfig,
    work: Work,
}

impl Run {
    /// Runs the workloads `build` makes on `system`, labelled with the
    /// system's name.
    pub fn new(
        point: impl Into<String>,
        system: System,
        cfg: SystemConfig,
        build: impl Fn() -> Box<dyn Workload> + Sync + 'static,
    ) -> Run {
        let work = Work::Machine(system, Box::new(build));
        Run { point: point.into(), system: system.name(), cfg, work }
    }

    /// One of the five applications at a Table 3 data set ([`build_app`]
    /// on `cfg.nodes` processors, in the sync mode `system` needs).
    pub fn app(
        point: impl Into<String>,
        system: System,
        cfg: SystemConfig,
        app: AppId,
        set: DataSet,
        scale: usize,
    ) -> Run {
        let procs = cfg.nodes;
        Run::new(point, system, cfg, move || {
            build_app(app, set, scale, procs, sync_for(app, system))
        })
    }

    /// One tt-serve point, labelled with its server variant.
    pub fn kv(point: impl Into<String>, cfg: SystemConfig, params: KvParams) -> Run {
        Run { point: point.into(), system: params.variant.name(), cfg, work: Work::Kv(params) }
    }

    /// One simulation, measuring host wall time and heap traffic. An
    /// application's workload is built before the clock starts; a KV
    /// run's is built inside `run_kv` and timed with it.
    fn once(&self) -> RunOutcome {
        let cfg = self.cfg.clone();
        match &self.work {
            Work::Machine(system, build) => {
                let workload = build();
                measure(|| {
                    let r = match system {
                        System::Dirnnb => DirnnbMachine::new(cfg, workload).run(),
                        System::TyphoonStache => {
                            TyphoonMachine::new(cfg, workload, &|id, layout, cfg| {
                                Box::new(StacheProtocol::new(id, layout, cfg))
                            })
                            .run()
                        }
                        System::TyphoonUpdate => {
                            TyphoonMachine::new(cfg, workload, &|id, layout, cfg| {
                                Box::new(Em3dUpdateProtocol::new(id, layout, cfg))
                            })
                            .run()
                        }
                    };
                    (r.cycles, r.report, None)
                })
            }
            Work::Kv(p) => measure(|| {
                let out = match p.variant {
                    KvVariant::Stache => run_kv_stache(&cfg, p),
                    KvVariant::Update => run_kv_update(&cfg, p),
                };
                let requests_per_kcycle = out.requests_per_kcycle();
                (out.cycles, out.report, Some(KvStats { lat: out.lat, requests_per_kcycle }))
            }),
        }
    }
}

/// Runs `sim` between a heap-peak reset and a wall-clock reading.
fn measure(sim: impl FnOnce() -> (Cycles, Report, Option<KvStats>)) -> RunOutcome {
    tt_base::alloc_stats::reset_peak();
    let allocs_before = tt_base::alloc_stats::alloc_count();
    let start = Instant::now();
    let (cycles, report, kv) = sim();
    let wall_secs = start.elapsed().as_secs_f64();
    let ops = report.get("cpu.ops").unwrap_or(0.0) as u64;
    RunOutcome {
        cycles,
        report,
        kv,
        wall_secs,
        ops,
        peak_bytes: tt_base::alloc_stats::peak_bytes(),
        allocs: tt_base::alloc_stats::alloc_count() - allocs_before,
    }
}

/// A KV run's request latencies.
#[derive(Clone, Debug, PartialEq)]
pub struct KvStats {
    /// Merged get and put latency histograms, in simulated cycles.
    pub lat: KvLatency,
    /// Requests served per thousand simulated cycles.
    pub requests_per_kcycle: f64,
}

/// Outcome of one simulation run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Execution time.
    pub cycles: Cycles,
    /// Machine/protocol statistics.
    pub report: Report,
    /// Request latencies, for a KV run.
    pub kv: Option<KvStats>,
    /// Host wall-clock seconds the run took.
    pub(crate) wall_secs: f64,
    /// Workload ops the simulated CPUs executed (`cpu.ops`).
    pub(crate) ops: u64,
    /// Heap high-water mark over the run (process-global; attributable
    /// to this run only at `--jobs 1`).
    pub(crate) peak_bytes: u64,
    /// Heap allocation events during the run (same caveat).
    pub(crate) allocs: u64,
}

/// Runs every run of a sweep and returns their outcomes in order: one
/// fan-out across `jobs` threads (`par::run_indexed`; any `jobs`
/// yields identical results), each run min-of-`repeat` wall time with
/// its simulated result asserted identical across repeats. A run that
/// panics re-raises its payload here (the lowest-index one if several
/// do), so a KV sweep's transport give-up reads the same at any `jobs`.
pub fn sweep(jobs: usize, repeat: usize, runs: &[Run]) -> Vec<RunOutcome> {
    par::run_indexed(jobs, runs.len(), |i| min_of_runs(repeat, || runs[i].once()))
}

/// Runs `run` `repeat` times (at least once), asserting the simulated
/// result (cycles, and a KV run's latencies) is identical across
/// repeats — the simulation is deterministic, so any divergence is a
/// bug — and keeping the outcome with the smallest wall time. Min-of-N
/// is the standard way to take a wall-clock measurement on a machine
/// with background noise.
fn min_of_runs(repeat: usize, run: impl Fn() -> RunOutcome) -> RunOutcome {
    let mut best = run();
    for _ in 1..repeat.max(1) {
        let out = run();
        assert!(
            (best.cycles, &best.kv) == (out.cycles, &out.kv),
            "repeated run diverged: simulation is not deterministic"
        );
        if out.wall_secs < best.wall_secs {
            best = out;
        }
    }
    best
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

/// The sync mode an app must use on a system (only EM3D on
/// Typhoon/Update uses flush synchronization).
pub fn sync_for(app: AppId, system: System) -> SyncMode {
    if app == AppId::Em3d && system == System::TyphoonUpdate {
        SyncMode::Flush
    } else {
        SyncMode::Barrier
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

/// The Figure 3 grid for `apps`: every application at every data-set /
/// cache-size point, app-major in the order given × [`FIGURE3_POINTS`],
/// each point a Typhoon/Stache run then a DirNNB run. The big-machine
/// sweeps (`--nodes 256|1024`) pass a single app.
pub fn figure3_runs(apps: &[AppId], scale: usize, cfg: &SystemConfig) -> Vec<Run> {
    let mut runs = Vec::new();
    for &app in apps {
        for (set, cache_bytes) in FIGURE3_POINTS {
            let mut cfg = cfg.clone();
            cfg.cpu.cache_bytes = cache_bytes;
            let point = format!("{app} {set}/{}K", cache_bytes / 1024);
            for system in [System::TyphoonStache, System::Dirnnb] {
                runs.push(Run::app(point.clone(), system, cfg.clone(), app, set, scale));
            }
        }
    }
    runs
}

/// The paper's Figure 3 y-axis over a [`figure3_runs`] grid's outcomes:
/// per point, Typhoon/Stache time relative to DirNNB (shorter bars =
/// better Typhoon performance).
pub fn figure3_relative(outs: &[RunOutcome]) -> Vec<f64> {
    outs.chunks(2).map(|pair| pair[0].cycles.as_f64() / pair[1].cycles.as_f64()).collect()
}

/// The three systems of a Figure 4 point, in column order.
pub const FIGURE4_SYSTEMS: [System; 3] =
    [System::Dirnnb, System::TyphoonStache, System::TyphoonUpdate];

/// The remote-edge fractions of the Figure 4 x-axis.
pub const FIGURE4_PCTS: [f64; 6] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];

/// EM3D's large data set at one Figure 4 point.
fn figure4_params(pct_remote: f64, scale: usize, nodes: usize, sync: SyncMode) -> Em3dParams {
    let mut p = Em3dParams::table3(DataSet::Large, nodes);
    p.graph_nodes = tt_apps::datasets::scaled(p.graph_nodes, scale, 4 * nodes);
    p.pct_remote = pct_remote;
    p.sync = sync;
    // Figure 4 measures the steady state: with the static graph, all
    // stache faults happen in iteration 1, so run enough iterations
    // that warmup does not dominate (the original EM3D runs hundreds).
    p.iterations = 8;
    p
}

/// The Figure 4 grid: every [`FIGURE4_PCTS`] point on each of
/// [`FIGURE4_SYSTEMS`], point-major.
pub fn figure4_runs(scale: usize, cfg: &SystemConfig) -> Vec<Run> {
    // Figure 4 isolates the protocol effect: the DirNNB comparator
    // gets ideal (owner) placement so all three systems coincide at
    // 0% non-local edges, and the CPU cache is large enough (256 KB)
    // that capacity misses do not drown the coherence traffic.
    let mut cfg = cfg.clone();
    cfg.placement = DirPlacement::Owner;
    cfg.cpu.cache_bytes = 256 * 1024;
    let mut runs = Vec::new();
    for pct in FIGURE4_PCTS {
        for system in FIGURE4_SYSTEMS {
            let p = figure4_params(pct, scale, cfg.nodes, sync_for(AppId::Em3d, system));
            let point = format!("{:.0}% remote", pct * 100.0);
            runs.push(Run::new(point, system, cfg.clone(), move || {
                Box::new(PhasedWorkload::new(Em3d::new(p.clone())))
            }));
        }
    }
    runs
}

/// The paper's Figure 4 y-axis: cycles per edge per iteration of each
/// outcome of a [`figure4_runs`] grid. Every point's graph has the same
/// edge count, `2 * (graph_nodes / 2) * degree` (the remote fraction
/// only moves edge sources; see [`Em3d::new`]), so no graph is built to
/// count them.
pub fn figure4_cycles_per_edge(scale: usize, nodes: usize, outs: &[RunOutcome]) -> Vec<f64> {
    let p = figure4_params(0.0, scale, nodes, SyncMode::Barrier);
    let edge_visits = (2 * (p.graph_nodes / 2) * p.degree * p.iterations) as f64;
    outs.iter().map(|out| out.cycles.as_f64() / edge_visits).collect()
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

    fn outcome(cycles: u64, wall_secs: f64) -> RunOutcome {
        RunOutcome {
            cycles: Cycles::new(cycles),
            report: Report::default(),
            kv: None,
            wall_secs,
            ops: 7,
            peak_bytes: 0,
            allocs: 0,
        }
    }

    #[test]
    fn figure3_smoke_point_is_sane() {
        let cfg = bench_config(smoke::NODES);
        // The first point of the grid: EM3D small/4K on both systems.
        let runs = figure3_runs(&[AppId::Em3d], smoke::SCALE, &cfg);
        assert_eq!((runs[0].point.as_str(), runs[0].system), ("em3d small/4K", "Typhoon/Stache"));
        assert_eq!((runs[1].point.as_str(), runs[1].system), ("em3d small/4K", "DirNNB"));
        let rel = figure3_relative(&sweep(1, 1, &runs[..2]))[0];
        assert!(rel > 0.2 && rel < 3.0, "relative time {rel}");
    }

    #[test]
    fn figure4_smoke_point_orders_systems_at_high_remote() {
        let cfg = bench_config(smoke::NODES);
        // The last point of the grid: 50% remote on all three systems.
        let runs = figure4_runs(smoke::SCALE, &cfg);
        let last = &runs[runs.len() - 3..];
        assert!(last.iter().all(|r| r.point == "50% remote"));
        let outs = sweep(1, 1, last);
        let [dirnnb, stache, update] = figure4_cycles_per_edge(smoke::SCALE, cfg.nodes, &outs)[..]
        else {
            panic!("three systems per point")
        };
        assert!(update < dirnnb, "update {update} should beat DirNNB {dirnnb}");
        assert!(update < stache, "update {update} should beat Stache {stache}");
    }

    #[test]
    fn figure4_edge_count_matches_the_built_graph() {
        let (scale, nodes) = (smoke::SCALE, smoke::NODES);
        let p = figure4_params(0.3, scale, nodes, SyncMode::Barrier);
        let built = (Em3d::new(p.clone()).total_edges() * p.iterations) as f64;
        let out = outcome(1_000_000, 1.0);
        let cpe = figure4_cycles_per_edge(scale, nodes, &[out])[0];
        assert_eq!(cpe, 1_000_000.0 / built);
    }

    /// One sweep over a mixed run list — an EM3D run on Typhoon/Update,
    /// an application on DirNNB and a KV point — gives the same cycles,
    /// reports and latencies at any job count, and every outcome's
    /// `--json` record carries the cost block.
    #[test]
    fn mixed_sweep_is_identical_at_any_job_count_and_records_cost() {
        let cfg = bench_config(smoke::NODES);
        let mut kv = KvParams::small(KvVariant::Update);
        kv.nodes = smoke::NODES;
        let (small, scale) = (DataSet::Small, smoke::SCALE);
        let runs = [
            Run::app("em3d", System::TyphoonUpdate, cfg.clone(), AppId::Em3d, small, scale),
            Run::app("ocean", System::Dirnnb, cfg.clone(), AppId::Ocean, small, scale),
            Run::kv("kv", cfg.clone(), kv),
        ];
        let seq = sweep(1, 1, &runs);
        let par = sweep(4, 2, &runs);
        for ((run, a), b) in runs.iter().zip(&seq).zip(&par) {
            assert_eq!(a.cycles, b.cycles, "{} {}", run.point, run.system);
            assert_eq!(a.report, b.report, "{} {}", run.point, run.system);
            assert_eq!(a.kv, b.kv, "{} {}", run.point, run.system);
            assert_eq!(a.kv.is_some(), run.point == "kv");
            let json = json::PointRecord::new(run, a).to_json();
            let bytes_per_node = a.peak_bytes / smoke::NODES as u64;
            assert!(
                json.contains(&format!(
                    "\"cost\": {{\"us_per_node_kilocycle\": {:.4}, \"peak_bytes\": {}, \
                     \"bytes_per_node\": {bytes_per_node}, \"allocs\": {}}}",
                    a.wall_secs * 1e6 / smoke::NODES as f64 / (a.cycles.as_f64() / 1000.0),
                    a.peak_bytes,
                    a.allocs,
                )),
                "{json}"
            );
            assert_eq!(json.contains("\"kv\": {\"mix\": \"95/5\""), run.point == "kv", "{json}");
        }
        assert_eq!(runs[0].system, "Typhoon/Update");
        assert_eq!(runs[2].system, "kv-update");
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
            outcome(42, wall)
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
            outcome(calls.get(), 1.0)
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
