//! Per-point profile of the Figure 3 sweep: prints each point's relative
//! execution time and the wall-clock cost of measuring it. Useful for
//! choosing a `--scale` before a full run.
use tt_bench::{bench_config, figure3_point, FIGURE3_POINTS};
use tt_apps::AppId;

const USAGE: &str = "\
Usage: profile_apps [shared flags]

Prints each Figure 3 point's relative time and wall cost (default
--scale 16). Only --scale, --full and --nodes apply.
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = tt_bench::parse_cli(&args, 16, USAGE);
    let (scale, nodes) = (cli.scale, cli.nodes);
    let cfg = bench_config(nodes);
    for app in AppId::ALL {
        for (set, cache) in FIGURE3_POINTS {
            let t0 = std::time::Instant::now();
            let p = figure3_point(app, set, cache, scale, &cfg);
            println!(
                "{app} {set}/{cache} rel={:.3} wall={:.1}s",
                p.relative(),
                t0.elapsed().as_secs_f64()
            );
        }
    }
}
