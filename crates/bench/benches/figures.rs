//! Reduced-scale figure points under `cargo bench`, so the paper's two
//! headline comparisons are exercised by the standard bench entry point.
//! The printable full-resolution figures come from the `figure3` /
//! `figure4` binaries; these benches run single representative points at
//! smoke scale. Uses the internal `tt_bench::harness` (criterion is
//! unavailable offline).

use std::hint::black_box;

use tt_apps::{AppId, DataSet};
use tt_bench::harness::Runner;
use tt_bench::{bench_config, figure3_point, figure4_point, smoke};

fn main() {
    let r = Runner::from_args();
    let cfg = bench_config(smoke::NODES);
    r.bench("figure3/em3d_small_4k_point", || {
        let p = figure3_point(AppId::Em3d, DataSet::Small, 4 * 1024, smoke::SCALE, &cfg, 1);
        black_box(p.relative().to_bits())
    });
    r.bench("figure3/ocean_small_4k_point", || {
        let p = figure3_point(AppId::Ocean, DataSet::Small, 4 * 1024, smoke::SCALE, &cfg, 1);
        black_box(p.relative().to_bits())
    });
    r.bench("figure4/em3d_30pct_remote_all_systems", || {
        let p = figure4_point(0.3, smoke::SCALE, &cfg, 1);
        black_box(p.cycles_per_edge[0].to_bits())
    });
}
