//! Reduced-scale figure points under `cargo bench`, so the paper's two
//! headline comparisons are exercised by the standard bench entry point.
//! The printable full-resolution figures come from the `figure3` /
//! `figure4` binaries; these benches sweep single representative points
//! of their grids at smoke scale. Uses the internal `tt_bench::harness`
//! (criterion is unavailable offline).

use std::hint::black_box;

use tt_apps::AppId;
use tt_bench::harness::Runner;
use tt_bench::{
    bench_config, figure3_relative, figure3_runs, figure4_cycles_per_edge, figure4_runs, smoke,
    sweep,
};

fn main() {
    let r = Runner::from_args();
    let cfg = bench_config(smoke::NODES);
    // A Figure 3 grid's first two runs are its small/4K point.
    for (name, app) in [
        ("figure3/em3d_small_4k_point", AppId::Em3d),
        ("figure3/ocean_small_4k_point", AppId::Ocean),
    ] {
        let runs = figure3_runs(&[app], smoke::SCALE, &cfg);
        r.bench(name, || black_box(figure3_relative(&sweep(1, 1, &runs[..2]))[0].to_bits()));
    }
    // The Figure 4 grid is point-major, three systems per point: 30% is
    // its fourth point.
    let runs = figure4_runs(smoke::SCALE, &cfg);
    r.bench("figure4/em3d_30pct_remote_all_systems", || {
        let outs = sweep(1, 1, &runs[9..12]);
        black_box(figure4_cycles_per_edge(smoke::SCALE, cfg.nodes, &outs)[0].to_bits())
    });
}
