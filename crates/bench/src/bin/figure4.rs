//! Regenerates **Figure 4**: EM3D cycles per edge as the fraction of
//! non-local edges grows from 0% to 50%, for DirNNB, Typhoon/Stache, and
//! Typhoon with the custom delayed-update protocol. The paper's claims:
//! all three curves rise with the remote fraction; the update protocol is
//! flattest and beats DirNNB by ~35% at 50% remote edges.
//!
//! Usage: `figure4 [--scale N] [--nodes N] [--jobs N] [--repeat N]
//! [--json PATH] [--full]` (default scale 4; `--full` runs 192,000
//! nodes, degree 15). The table is byte-identical for any `--jobs` or
//! `--repeat` value; `--repeat N` reruns each point N times and reports
//! min-of-N wall timings for stable `sim_cycles_per_sec`.

use std::time::Instant;

use tt_base::table::Table;
use tt_bench::{figure4_cycles_per_edge, figure4_runs, sweep, FIGURE4_PCTS, FIGURE4_SYSTEMS};

const USAGE: &str = "\
Usage: figure4 [shared flags]

Regenerates Figure 4: EM3D cycles per edge against the fraction of
non-local edges (default --scale 4).
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = tt_bench::parse_cli(&args, 4, USAGE);
    let cfg = cli.config();
    println!(
        "FIGURE 4. EM3D update-protocol performance, large data set \
         ({nodes} nodes, scale 1/{scale}).\n",
        nodes = cli.nodes,
        scale = cli.scale,
    );
    let runs = figure4_runs(cli.scale, &cfg);
    let start = Instant::now();
    let outs = sweep(cli.jobs, cli.repeat, &runs);
    let total_wall_secs = start.elapsed().as_secs_f64();

    let mut table = Table::new(vec![
        "% non-local edges",
        "DirNNB",
        "Typhoon/Stache",
        "Typhoon/Update",
        "Update vs DirNNB",
    ]);
    let per_edge = figure4_cycles_per_edge(cli.scale, cli.nodes, &outs);
    for (pct, cpe) in FIGURE4_PCTS.into_iter().zip(per_edge.chunks(FIGURE4_SYSTEMS.len())) {
        let [d, s, u] = cpe else { unreachable!("one column per Figure 4 system") };
        table.row(vec![
            format!("{:.0}%", pct * 100.0),
            format!("{d:.2}"),
            format!("{s:.2}"),
            format!("{u:.2}"),
            format!("{:+.1}%", (u / d - 1.0) * 100.0),
        ]);
    }
    println!("{table}");
    println!(
        "(cycles per edge per iteration; paper: Typhoon/Update beats DirNNB by\n\
         up to ~35% at 50% non-local edges, and the advantage grows with the\n\
         remote fraction)"
    );
    cli.finish("figure4", total_wall_secs, &runs, &outs);
}
