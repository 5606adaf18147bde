//! Regenerates **Figure 3**: execution time of Typhoon/Stache relative
//! to DirNNB for the five benchmarks, across the paper's data-set /
//! cache-size points (small/4K, small/16K, small/64K, small/256K,
//! large/256K). Shorter (smaller) values mean better Typhoon/Stache
//! performance; the paper reports every bar within 1.3 and several below
//! 1.0 when the working set exceeds the hardware cache.
//!
//! Usage: `figure3 [--scale N] [--nodes N] [--jobs N] [--repeat N]
//! [--topology ideal|mesh[:W]] [--apps a,b,...]
//! [--json PATH] [--full]` (default scale 4; `--full` runs the paper's
//! exact sizes). The table is byte-identical for any `--jobs` or
//! `--repeat` value; `--repeat N` reruns each point N times and reports
//! min-of-N wall timings for stable `sim_cycles_per_sec`. Big-machine
//! sweeps (`--nodes 64|256|1024 --topology mesh`) use `--apps` to bound
//! the grid and read cost-per-node metrics from the `--json` report.

use std::time::Instant;

use tt_apps::AppId;
use tt_base::table::Table;
use tt_bench::{figure3_relative, figure3_runs, sweep, FIGURE3_POINTS};

const USAGE: &str = "\
Usage: figure3 [--apps a,b,...] [shared flags]

Regenerates Figure 3: Typhoon/Stache execution time relative to DirNNB
(default --scale 4).

  --apps a,b,...           only these of appbt, barnes, mp3d, ocean, em3d
";

/// Parses a comma-separated `--apps` list against the app names.
fn parse_apps(list: &str) -> Result<Vec<AppId>, String> {
    list.split(',')
        .map(|name| {
            AppId::ALL
                .into_iter()
                .find(|a| a.name().eq_ignore_ascii_case(name.trim()))
                .ok_or_else(|| format!("--apps: unknown application {name:?}"))
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut apps: Vec<AppId> = AppId::ALL.to_vec();
    let cli = tt_bench::parse_cli_with(&args, 4, USAGE, &mut |flag, args, i| match flag {
        "--apps" => {
            apps = parse_apps(tt_bench::cli::value(args, *i, "--apps")?)?;
            *i += 2;
            Ok(true)
        }
        _ => Ok(false),
    });
    let cfg = cli.config();
    println!(
        "FIGURE 3. Typhoon/Stache execution time relative to DirNNB \
         ({nodes} nodes, scale 1/{scale}).\n",
        nodes = cli.nodes,
        scale = cli.scale,
    );
    let runs = figure3_runs(&apps, cli.scale, &cfg);
    let start = Instant::now();
    let outs = sweep(cli.jobs, cli.repeat, &runs);
    let total_wall_secs = start.elapsed().as_secs_f64();

    let mut table = Table::new(vec![
        "benchmark",
        "small/4K",
        "small/16K",
        "small/64K",
        "small/256K",
        "large/256K",
    ]);
    let relative = figure3_relative(&outs);
    let n = FIGURE3_POINTS.len();
    for (a, app) in apps.iter().enumerate() {
        let mut row = vec![app.name().to_string()];
        for k in a * n..(a + 1) * n {
            let (typhoon, dirnnb) = (&outs[2 * k], &outs[2 * k + 1]);
            row.push(format!("{:.3}", relative[k]));
            eprintln!(
                "  {}: typhoon {} dirnnb {} -> {:.3}",
                runs[2 * k].point,
                typhoon.cycles,
                dirnnb.cycles,
                relative[k]
            );
        }
        table.row(row);
    }
    println!("{table}");
    println!(
        "(paper: all bars <= ~1.3; Typhoon/Stache wins by up to ~25% when the\n\
         data set exceeds the CPU cache — small/4K and large/256K columns)"
    );
    cli.finish("figure3", total_wall_secs, &runs, &outs);
}
