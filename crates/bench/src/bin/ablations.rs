//! Design-choice ablations (DESIGN.md §5): sensitivity of the headline
//! comparison to the knobs the paper's design fixes.
//!
//! 1. **Handler path length** — Typhoon's case rests on short user-level
//!    handlers (14/30/20 instructions). How fast does Typhoon/Stache
//!    degrade if handlers were 2× or 4× longer (or gain if 0.5×)?
//! 2. **Network latency** — the paper notes 11 cycles is optimistic and
//!    that a slower network would *favor Typhoon* by shrinking its
//!    relative overhead. Sweep 11/22/44.
//! 3. **Stache memory budget** — Stache uses "only as much of local
//!    memory as an application chooses": sweep the stache page budget to
//!    show replacement cost appearing as the budget shrinks.
//! 4. **Dedicated NP vs. software Tempest** — run the same protocol with
//!    handlers on the NP vs. interrupting the primary CPU (the paper's
//!    "native CM-5" direction, later Blizzard): the cost of *not*
//!    building the hardware.
//! 5. **DirNNB page placement** — round-robin (paper baseline) vs.
//!    owner-ideal (first-touch quality), quantifying how much of
//!    Stache's Figure 3 win is automatic locality.
//! 6. **Custom protocols beyond EM3D** — Ocean with delayed-update
//!    boundary pushes vs. transparent Stache: Section 4's idea applied
//!    to a second application.
//! 7. **Network contention** — the paper explicitly does not model
//!    contention; the same EM3D points on a routed mesh (per-hop latency
//!    and per-link queuing, charged to both systems) show which way the
//!    comparison moves when messages contend.
//!
//! Usage: `ablations [--scale N] [--nodes N] [--jobs N] [--repeat N]
//! [--json PATH] [--full]` (default scale 16). Each ablation's
//! independent runs fan out across `--jobs` threads; the tables are
//! byte-identical for any `jobs` or `repeat` value (`--repeat N` takes
//! min-of-N wall timings for stable throughput records).

use std::time::Instant;

use tt_base::table::Table;
use tt_base::Topology;
use tt_bench::json::PointRecord;
use tt_bench::{
    build_app, min_of_runs, par, run_system, sync_for, RunOutcome, System,
};
use tt_apps::{AppId, DataSet};

/// A throughput record for one completed run.
fn record(point: String, system: &str, out: &RunOutcome) -> PointRecord {
    PointRecord {
        point,
        system: system.into(),
        cycles: out.cycles.raw(),
        wall_secs: out.wall_secs,
        ops: out.ops,
        extra: None,
    }
}

const USAGE: &str = "\
Usage: ablations [shared flags]

Runs the design-choice ablations of DESIGN.md section 5 (default
--scale 16).
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = tt_bench::parse_cli(&args, 16, USAGE);
    let (scale, nodes, jobs, repeat) = (cli.scale, cli.nodes, cli.jobs, cli.repeat);
    let app = AppId::Em3d;
    let set = DataSet::Small;
    let mut records: Vec<PointRecord> = Vec::new();
    let sweep_start = Instant::now();

    println!("ABLATION 1. Stache handler path length (EM3D small, {nodes} nodes, 1/{scale}).\n");
    let mut t = Table::new(vec!["handler cost x", "Typhoon/Stache vs DirNNB"]);
    let base_cfg = {
        let mut c = cli.config();
        c.cpu.cache_bytes = 4 * 1024;
        c
    };
    let factors = [0.5, 1.0, 2.0, 4.0];
    // Task 0 is the shared DirNNB comparator; tasks 1.. sweep the factor.
    let outs = par::run_indexed(jobs, factors.len() + 1, |i| {
        if i == 0 {
            run_system(System::Dirnnb, &base_cfg, repeat, || {
                build_app(app, set, scale, nodes, sync_for(app, System::Dirnnb))
            })
        } else {
            let mut cfg = base_cfg.clone();
            cfg.handler_cost_scale = factors[i - 1];
            run_system(System::TyphoonStache, &cfg, repeat, || {
                build_app(app, set, scale, nodes, sync_for(app, System::TyphoonStache))
            })
        }
    });
    let dirnnb = outs[0].cycles;
    records.push(record("ablation1 baseline".into(), "DirNNB", &outs[0]));
    for (scale_factor, out) in factors.iter().zip(&outs[1..]) {
        t.row(vec![
            format!("{scale_factor:.1}"),
            format!("{:.3}", out.cycles.as_f64() / dirnnb.as_f64()),
        ]);
        records.push(record(
            format!("ablation1 handler x{scale_factor:.1}"),
            "Typhoon/Stache",
            out,
        ));
    }
    println!("{t}");

    println!("ABLATION 2. Network latency (EM3D small, 4K caches).\n");
    let mut t = Table::new(vec!["latency (cycles)", "Typhoon/Stache", "DirNNB", "relative"]);
    let latencies = [11u64, 22, 44];
    // Two tasks per row: even index Typhoon/Stache, odd index DirNNB.
    let outs = par::run_indexed(jobs, latencies.len() * 2, |i| {
        let mut cfg = base_cfg.clone();
        cfg.network_latency = tt_base::Cycles::new(latencies[i / 2]);
        let system = if i % 2 == 0 {
            System::TyphoonStache
        } else {
            System::Dirnnb
        };
        run_system(system, &cfg, repeat, || {
            build_app(app, set, scale, nodes, sync_for(app, system))
        })
    });
    for (r, lat) in latencies.into_iter().enumerate() {
        let (ty, d) = (&outs[r * 2], &outs[r * 2 + 1]);
        t.row(vec![
            lat.to_string(),
            ty.cycles.to_string(),
            d.cycles.to_string(),
            format!("{:.3}", ty.cycles.as_f64() / d.cycles.as_f64()),
        ]);
        records.push(record(format!("ablation2 latency {lat}"), "Typhoon/Stache", ty));
        records.push(record(format!("ablation2 latency {lat}"), "DirNNB", d));
    }
    println!("{t}");
    println!("(paper: a slower network shrinks Typhoon's relative overhead)\n");

    println!("ABLATION 3. Stache page budget (EM3D small): replacement cost.\n");
    let mut t = Table::new(vec![
        "budget (pages)",
        "cycles",
        "replacements",
        "writebacks",
    ]);
    let budgets = [usize::MAX, 64, 32, 16];
    let outs = par::run_indexed(jobs, budgets.len(), |i| {
        let mut cfg = base_cfg.clone();
        cfg.stache_capacity_bytes = if budgets[i] == usize::MAX {
            usize::MAX
        } else {
            budgets[i] * 4096
        };
        run_system(System::TyphoonStache, &cfg, repeat, || {
            build_app(app, set, scale, nodes, sync_for(app, System::TyphoonStache))
        })
    });
    for (pages, out) in budgets.into_iter().zip(&outs) {
        let label = if pages == usize::MAX {
            "unbounded".to_string()
        } else {
            pages.to_string()
        };
        t.row(vec![
            label.clone(),
            out.cycles.to_string(),
            format!("{}", out.report.get("stache.replacements").unwrap_or(0.0)),
            format!("{}", out.report.get("stache.writebacks_sent").unwrap_or(0.0)),
        ]);
        records.push(record(format!("ablation3 budget {label}"), "Typhoon/Stache", out));
    }
    println!("{t}");

    println!("ABLATION 4. Dedicated NP vs software Tempest (handlers on the CPU).\n");
    let mut t = Table::new(vec!["handler placement", "cycles", "vs dedicated"]);
    let modes = [tt_base::config::NpMode::Dedicated, tt_base::config::NpMode::OnCpu];
    let outs = par::run_indexed(jobs, modes.len(), |i| {
        let mut cfg = base_cfg.clone();
        cfg.np_mode = modes[i];
        run_system(System::TyphoonStache, &cfg, repeat, || {
            build_app(app, set, scale, nodes, sync_for(app, System::TyphoonStache))
        })
    });
    let base_cycles = outs[0].cycles.as_f64();
    for (mode, out) in modes.into_iter().zip(&outs) {
        t.row(vec![
            format!("{mode:?}"),
            out.cycles.to_string(),
            format!("{:.2}x", out.cycles.as_f64() / base_cycles),
        ]);
        records.push(record(format!("ablation4 np {mode:?}"), "Typhoon/Stache", out));
    }
    println!("{t}");
    println!("(the dedicated NP is the hardware investment the paper argues for)\n");

    // Ocean's owners span multiple pages, so owner placement genuinely
    // differs from round-robin (EM3D at this scale has one page per
    // owner, where the two coincide).
    println!("ABLATION 5. DirNNB page placement (Ocean large, 4K caches).\n");
    let mut t = Table::new(vec!["placement", "DirNNB cycles", "Typhoon/Stache relative"]);
    let oapp = AppId::Ocean;
    let oset = DataSet::Large;
    // Scale capped at 4 so each owner spans several pages (at deeper
    // scales every owner fits one page and the two policies coincide).
    let scale = scale.min(4);
    let placements = [
        tt_base::config::DirPlacement::RoundRobin,
        tt_base::config::DirPlacement::Owner,
    ];
    // Task 0 is the shared Typhoon/Stache run; tasks 1.. sweep placement.
    let outs = par::run_indexed(jobs, placements.len() + 1, |i| {
        if i == 0 {
            run_system(System::TyphoonStache, &base_cfg, repeat, || {
                build_app(oapp, oset, scale, nodes, sync_for(oapp, System::TyphoonStache))
            })
        } else {
            let mut cfg = base_cfg.clone();
            cfg.placement = placements[i - 1];
            run_system(System::Dirnnb, &cfg, repeat, || {
                build_app(oapp, oset, scale, nodes, sync_for(oapp, System::Dirnnb))
            })
        }
    });
    let ty = outs[0].cycles;
    records.push(record("ablation5 baseline".into(), "Typhoon/Stache", &outs[0]));
    for (placement, d) in placements.into_iter().zip(&outs[1..]) {
        t.row(vec![
            format!("{placement:?}"),
            d.cycles.to_string(),
            format!("{:.3}", ty.as_f64() / d.cycles.as_f64()),
        ]);
        records.push(record(format!("ablation5 {placement:?}"), "DirNNB", d));
    }
    println!("{t}");
    println!("(the paper: first-touch-quality placement 'eliminates much of the\ndifference' — Stache gets that locality automatically)\n");

    println!("ABLATION 6. Ocean with a custom boundary-push protocol.\n");
    let mut t = Table::new(vec!["protocol", "cycles", "net packets"]);
    {
        use tt_apps::ocean::{Ocean, OceanParams, OceanSync};
        use tt_apps::PhasedWorkload;
        use tt_stache::{DelayedUpdateProtocol, StacheProtocol};
        use tt_typhoon::TyphoonMachine;
        let mut p = OceanParams::table3(DataSet::Small, nodes);
        p.n = (p.n / (scale.min(4))).max(16);
        p.iterations = 6;
        // Task 0: transparent Stache; task 1: the custom push protocol.
        let outs = par::run_indexed(jobs, 2, |i| {
            min_of_runs(repeat, || {
                let start = Instant::now();
                let r = if i == 0 {
                    TyphoonMachine::new(
                        base_cfg.clone(),
                        Box::new(PhasedWorkload::new(Ocean::new(p.clone()))),
                        &|id, layout, cfg| Box::new(StacheProtocol::new(id, layout, cfg)),
                    )
                    .run()
                } else {
                    let mut p = p.clone();
                    p.sync = OceanSync::Push;
                    TyphoonMachine::new(
                        base_cfg.clone(),
                        Box::new(PhasedWorkload::new(Ocean::new(p))),
                        &|id, layout, cfg| Box::new(DelayedUpdateProtocol::new(id, layout, cfg)),
                    )
                    .run()
                };
                let wall_secs = start.elapsed().as_secs_f64();
                let ops = r.report.get("cpu.ops").unwrap_or(0.0) as u64;
                RunOutcome {
                    cycles: r.cycles,
                    report: r.report,
                    wall_secs,
                    ops,
                    peak_bytes: 0,
                    allocs: 0,
                }
            })
        });
        for (name, r) in [("Typhoon/Stache", &outs[0]), ("Typhoon/Push", &outs[1])] {
            t.row(vec![
                name.to_string(),
                r.cycles.to_string(),
                format!("{}", r.report.get("net.packets").unwrap_or(0.0)),
            ]);
            records.push(record("ablation6 ocean push".into(), name, r));
        }
    }
    println!("{t}");
    println!("(boundary rows are pushed once per sweep instead of the\ninvalidate/ack/request/response round trips)\n");

    // Contention both systems pay for: the same points on the paper's
    // constant-latency pipe and on a routed mesh, where every message
    // pays per-hop latency and per-link queuing (Typhoon's real packets
    // and DirNNB's modeled ones alike).
    println!("ABLATION 7. Network contention: ideal pipe vs mesh (EM3D small, 4K caches).\n");
    let mut t = Table::new(vec!["network", "Typhoon/Stache", "DirNNB", "relative"]);
    let topologies = [Topology::Ideal, Topology::Mesh2D { width: 0 }];
    let outs = par::run_indexed(jobs, topologies.len() * 2, |i| {
        let mut cfg = base_cfg.clone();
        cfg.topology = topologies[i / 2];
        let system = if i % 2 == 0 {
            System::TyphoonStache
        } else {
            System::Dirnnb
        };
        run_system(system, &cfg, repeat, || {
            build_app(app, set, scale, nodes, sync_for(app, system))
        })
    });
    for (r, topology) in topologies.into_iter().enumerate() {
        let (ty, d) = (&outs[r * 2], &outs[r * 2 + 1]);
        t.row(vec![
            topology.to_string(),
            ty.cycles.to_string(),
            d.cycles.to_string(),
            format!("{:.3}", ty.cycles.as_f64() / d.cycles.as_f64()),
        ]);
        records.push(record(format!("ablation7 topology {topology}"), "Typhoon/Stache", ty));
        records.push(record(format!("ablation7 topology {topology}"), "DirNNB", d));
    }
    println!("{t}");
    println!("(the paper's zero-contention network is the ideal row; on the mesh\nboth systems pay hop latency and link queuing)");

    let total_wall_secs = sweep_start.elapsed().as_secs_f64();
    eprintln!(
        "  sweep: {n} runs in {total_wall_secs:.2}s wall ({jobs} jobs)",
        n = records.len(),
    );
    cli.write_json("ablations", total_wall_secs, &records);
}
