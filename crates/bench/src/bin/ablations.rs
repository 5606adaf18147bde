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
//! [--json PATH] [--full]` (default scale 16). The runs of all seven
//! ablations fan out together across `--jobs` threads; the tables are
//! byte-identical for any `jobs` or `repeat` value (`--repeat N` takes
//! min-of-N wall timings for stable throughput records).

use std::time::Instant;

use tt_apps::ocean::{Ocean, OceanParams};
use tt_apps::{AppId, DataSet, PhasedWorkload, SyncMode};
use tt_base::config::{DirPlacement, NpMode};
use tt_base::table::Table;
use tt_base::{Cycles, SystemConfig, Topology};
use tt_bench::{sweep, Run, System};

const USAGE: &str = "\
Usage: ablations [shared flags]

Runs the design-choice ablations of DESIGN.md section 5 (default
--scale 16).
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = tt_bench::parse_cli(&args, 16, USAGE);
    let (scale, nodes) = (cli.scale, cli.nodes);
    let app = AppId::Em3d;
    let set = DataSet::Small;
    let base_cfg = {
        let mut c = cli.config();
        c.cpu.cache_bytes = 4 * 1024;
        c
    };
    // EM3D small on `system` under `cfg`, and `base_cfg` changed by
    // `change`.
    let em3d = |point: String, system, cfg| Run::app(point, system, cfg, app, set, scale);
    let with = |change: &dyn Fn(&mut SystemConfig)| {
        let mut cfg = base_cfg.clone();
        change(&mut cfg);
        cfg
    };
    // Every ablation's runs, in one list: each block below pushes its
    // runs, and the tables after the sweep read the outcomes back in
    // the same order.
    let mut runs = Vec::new();

    // 1: a shared DirNNB comparator, then the handler-cost factors.
    let factors = [0.5, 1.0, 2.0, 4.0];
    runs.push(em3d("ablation1 baseline".into(), System::Dirnnb, base_cfg.clone()));
    for f in factors {
        let cfg = with(&|c| c.handler_cost_scale = f);
        runs.push(em3d(format!("ablation1 handler x{f:.1}"), System::TyphoonStache, cfg));
    }

    // 2: Typhoon/Stache then DirNNB at each latency.
    let latencies = [11u64, 22, 44];
    for lat in latencies {
        for system in [System::TyphoonStache, System::Dirnnb] {
            let cfg = with(&|c| c.network_latency = Cycles::new(lat));
            runs.push(em3d(format!("ablation2 latency {lat}"), system, cfg));
        }
    }

    // 3: the Stache page budget.
    let budgets = [usize::MAX, 64, 32, 16];
    let budget_label =
        |pages: usize| if pages == usize::MAX { "unbounded".into() } else { pages.to_string() };
    for pages in budgets {
        let cfg = with(&|c| c.stache_capacity_bytes = pages.saturating_mul(4096));
        let point = format!("ablation3 budget {}", budget_label(pages));
        runs.push(em3d(point, System::TyphoonStache, cfg));
    }

    // 4: handlers on a dedicated NP, then on the CPU.
    let modes = [NpMode::Dedicated, NpMode::OnCpu];
    for mode in modes {
        let cfg = with(&|c| c.np_mode = mode);
        runs.push(em3d(format!("ablation4 np {mode:?}"), System::TyphoonStache, cfg));
    }

    // 5: a shared Typhoon/Stache run on Ocean large, then DirNNB under
    // each placement. Ocean's owners span multiple pages, so owner
    // placement genuinely differs from round-robin (EM3D at this scale
    // has one page per owner, where the two coincide). The scale is
    // capped at 4 so each owner spans several pages (at deeper scales
    // every owner fits one page and the two policies coincide).
    let (oapp, oset) = (AppId::Ocean, DataSet::Large);
    let ocean_scale = scale.min(4);
    let placements = [DirPlacement::RoundRobin, DirPlacement::Owner];
    let ocean = |point: String, system, cfg| Run::app(point, system, cfg, oapp, oset, ocean_scale);
    runs.push(ocean("ablation5 baseline".into(), System::TyphoonStache, base_cfg.clone()));
    for placement in placements {
        let cfg = with(&|c| c.placement = placement);
        runs.push(ocean(format!("ablation5 {placement:?}"), System::Dirnnb, cfg));
    }

    // 6: transparent Stache, then the delayed-update protocol pushing
    // boundary rows.
    let mut p = OceanParams::table3(DataSet::Small, nodes);
    p.n = (p.n / ocean_scale).max(16);
    p.iterations = 6;
    let legs = [
        ("Typhoon/Stache", System::TyphoonStache, SyncMode::Barrier),
        ("Typhoon/Push", System::TyphoonUpdate, SyncMode::Flush),
    ];
    for (name, system, sync) in legs {
        let p = OceanParams { sync, ..p.clone() };
        let mut run = Run::new("ablation6 ocean push", system, base_cfg.clone(), move || {
            Box::new(PhasedWorkload::new(Ocean::new(p.clone())))
        });
        run.system = name;
        runs.push(run);
    }

    // 7: contention both systems pay for: the same points on the paper's
    // constant-latency pipe and on a routed mesh, where every message
    // pays per-hop latency and per-link queuing (Typhoon's real packets
    // and DirNNB's modeled ones alike). Like ablations 5 and 6, this one
    // caps the scale at 4; results/ablations.txt is measured that way.
    let em3d_scale = scale.min(4);
    let topologies = [Topology::Ideal, Topology::Mesh2D { width: 0 }];
    for topology in topologies {
        for system in [System::TyphoonStache, System::Dirnnb] {
            let cfg = with(&|c| c.topology = topology);
            let point = format!("ablation7 topology {topology}");
            runs.push(Run::app(point, system, cfg, app, set, em3d_scale));
        }
    }

    let start = Instant::now();
    let outs = sweep(cli.jobs, cli.repeat, &runs);
    let total_wall_secs = start.elapsed().as_secs_f64();
    let mut outs_in_order = outs.iter();
    let mut next = || outs_in_order.next().expect("one outcome per run");
    let ratio = |a: Cycles, b: Cycles| format!("{:.3}", a.as_f64() / b.as_f64());

    println!("ABLATION 1. Stache handler path length (EM3D small, {nodes} nodes, 1/{scale}).\n");
    let mut t = Table::new(vec!["handler cost x", "Typhoon/Stache vs DirNNB"]);
    let dirnnb = next().cycles;
    for f in factors {
        t.row(vec![format!("{f:.1}"), ratio(next().cycles, dirnnb)]);
    }
    println!("{t}");

    println!("ABLATION 2. Network latency (EM3D small, 4K caches).\n");
    let mut t = Table::new(vec!["latency (cycles)", "Typhoon/Stache", "DirNNB", "relative"]);
    for lat in latencies {
        let (ty, d) = (next().cycles, next().cycles);
        t.row(vec![lat.to_string(), ty.to_string(), d.to_string(), ratio(ty, d)]);
    }
    println!("{t}");
    println!("(paper: a slower network shrinks Typhoon's relative overhead)\n");

    println!("ABLATION 3. Stache page budget (EM3D small): replacement cost.\n");
    let mut t = Table::new(vec!["budget (pages)", "cycles", "replacements", "writebacks"]);
    for pages in budgets {
        let out = next();
        t.row(vec![
            budget_label(pages),
            out.cycles.to_string(),
            format!("{}", out.report.get("stache.replacements").unwrap_or(0.0)),
            format!("{}", out.report.get("stache.writebacks_sent").unwrap_or(0.0)),
        ]);
    }
    println!("{t}");

    println!("ABLATION 4. Dedicated NP vs software Tempest (handlers on the CPU).\n");
    let mut t = Table::new(vec!["handler placement", "cycles", "vs dedicated"]);
    let cycles = modes.map(|_| next().cycles);
    for (mode, c) in modes.into_iter().zip(cycles) {
        let vs_dedicated = c.as_f64() / cycles[0].as_f64();
        t.row(vec![format!("{mode:?}"), c.to_string(), format!("{vs_dedicated:.2}x")]);
    }
    println!("{t}");
    println!("(the dedicated NP is the hardware investment the paper argues for)\n");

    println!("ABLATION 5. DirNNB page placement (Ocean large, 4K caches).\n");
    let mut t = Table::new(vec!["placement", "DirNNB cycles", "Typhoon/Stache relative"]);
    let ty = next().cycles;
    for placement in placements {
        let d = next().cycles;
        t.row(vec![format!("{placement:?}"), d.to_string(), ratio(ty, d)]);
    }
    println!("{t}");
    println!("(the paper: first-touch-quality placement 'eliminates much of the\ndifference' — Stache gets that locality automatically)\n");

    println!("ABLATION 6. Ocean with a custom boundary-push protocol.\n");
    let mut t = Table::new(vec!["protocol", "cycles", "net packets"]);
    for (name, _, _) in legs {
        let out = next();
        t.row(vec![
            name.to_string(),
            out.cycles.to_string(),
            format!("{}", out.report.get("net.packets").unwrap_or(0.0)),
        ]);
    }
    println!("{t}");
    println!("(boundary rows are pushed once per sweep instead of the\ninvalidate/ack/request/response round trips)\n");

    println!("ABLATION 7. Network contention: ideal pipe vs mesh (EM3D small, 4K caches).\n");
    let mut t = Table::new(vec!["network", "Typhoon/Stache", "DirNNB", "relative"]);
    for topology in topologies {
        let (ty, d) = (next().cycles, next().cycles);
        t.row(vec![topology.to_string(), ty.to_string(), d.to_string(), ratio(ty, d)]);
    }
    println!("{t}");
    println!("(the paper's zero-contention network is the ideal row; on the mesh\nboth systems pay hop latency and link queuing)");

    cli.finish("ablations", total_wall_secs, &runs, &outs);
}
