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
use tt_bench::json::PointRecord;
use tt_bench::{RunStats, FIGURE3_POINTS};

/// Big-machine cost-per-node metrics as a JSON fragment: host
/// microseconds per simulated node per kilocycle, and the heap
/// high-water mark over the run (attributable per-run only at
/// `--jobs 1`; see EXPERIMENTS.md).
fn cost_fragment(nodes: usize, cycles: u64, s: &RunStats) -> Option<String> {
    let us_per_node_kcycle =
        if cycles > 0 { s.wall_secs * 1e6 / nodes as f64 / (cycles as f64 / 1000.0) } else { 0.0 };
    Some(format!(
        "\"cost\": {{\"us_per_node_kilocycle\": {:.4}, \"peak_bytes\": {}, \
         \"bytes_per_node\": {}, \"allocs\": {}}}",
        us_per_node_kcycle,
        s.peak_bytes,
        s.peak_bytes / nodes as u64,
        s.allocs,
    ))
}

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
    let start = Instant::now();
    let points = tt_bench::figure3_sweep(&apps, cli.scale, &cfg, cli.jobs, cli.repeat);
    let total_wall_secs = start.elapsed().as_secs_f64();

    let mut table = Table::new(vec![
        "benchmark",
        "small/4K",
        "small/16K",
        "small/64K",
        "small/256K",
        "large/256K",
    ]);
    let mut records = Vec::new();
    for (a, app) in apps.iter().copied().enumerate() {
        let mut row = vec![app.name().to_string()];
        for (i, (set, cache)) in FIGURE3_POINTS.into_iter().enumerate() {
            let point = &points[a * FIGURE3_POINTS.len() + i];
            row.push(format!("{:.3}", point.relative()));
            eprintln!(
                "  {} {}/{}K: typhoon {} dirnnb {} -> {:.3}",
                app,
                set,
                cache / 1024,
                point.typhoon,
                point.dirnnb,
                point.relative()
            );
            let name = format!("{} {}/{}K", app, set, cache / 1024);
            records.push(PointRecord {
                point: name.clone(),
                system: "Typhoon/Stache".into(),
                cycles: point.typhoon.raw(),
                wall_secs: point.typhoon_stats.wall_secs,
                ops: point.typhoon_stats.ops,
                extra: cost_fragment(cli.nodes, point.typhoon.raw(), &point.typhoon_stats),
            });
            records.push(PointRecord {
                point: name,
                system: "DirNNB".into(),
                cycles: point.dirnnb.raw(),
                wall_secs: point.dirnnb_stats.wall_secs,
                ops: point.dirnnb_stats.ops,
                extra: cost_fragment(cli.nodes, point.dirnnb.raw(), &point.dirnnb_stats),
            });
        }
        table.row(row);
    }
    println!("{table}");
    println!(
        "(paper: all bars <= ~1.3; Typhoon/Stache wins by up to ~25% when the\n\
         data set exceeds the CPU cache — small/4K and large/256K columns)"
    );
    eprintln!(
        "  sweep: {n} runs in {total_wall_secs:.2}s wall ({jobs} jobs)",
        n = records.len(),
        jobs = cli.jobs,
    );
    cli.write_json("figure3", total_wall_secs, &records);
}
