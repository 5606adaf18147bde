//! `tt-check` — drive the coherence model checker from the command
//! line.
//!
//! ```text
//! tt-check run [--seeds N] [--base B] [--sim-threads N] [--window-policy P]
//!              [--topology T] [--faults] [--fault-seed F] [--planted-bug] [--out PATH]
//! tt-check replay --seed S [--sim-threads N] [--window-policy P]
//!                 [--topology T] [--faults] [--fault-seed F]
//! tt-check kv [--seeds N] [--base B] [--seed S] [--sim-threads N] [--window-policy P]
//!             [--topology T] [--faults] [--fault-seed F]
//! ```
//!
//! `run` fuzzes `N` consecutive seeds (litmus workloads × schedule
//! perturbations including sequential-vs-parallel simulation,
//! differential across both machines) and exits non-zero on the first
//! failure, printing the seed so `tt-check replay --seed S` reproduces
//! it bit-exactly. `--sim-threads N` (on either command) forces the
//! parallel-differential leg to `N` simulator threads on every case —
//! the case shapes and every other perturbation stay seed-derived —
//! instead of letting each seed draw its own thread count.
//! `--window-policy fixed|adaptive` likewise forces the parallel leg's
//! window-advance policy instead of each seed's coin flip.
//! `--topology ideal|mesh[:W]|fat-tree[:A]` forces the interconnect of
//! the Typhoon legs instead of each seed's draw; the DirNNB reference
//! leg always runs the ideal pipe, so mesh cases are checked against a
//! pristine constant-latency baseline.
//! `--faults` gives every case a seed-derived lossy-network schedule
//! (drops, duplicates, detected corruption, transient partitions) with
//! the protocol running behind the reliable transport; the final image
//! must still match the fault-free DirNNB reference, and
//! `--fault-seed F` replays one specific schedule bit-exactly.
//! `--planted-bug` swaps in the deliberately broken
//! `SkipInvalidate` Stache variant — or, with `--faults`, a transport
//! that retransmits without duplicate suppression: that run *must*
//! fail, proving the harness has teeth. `--out` writes a JSON report
//! alongside the other bench reports.
//!
//! `kv` fuzzes the KV-serving litmus family instead: seed-generated
//! put/get races over `tt-serve` key slots, run through a three-machine
//! differential (Stache-served Typhoon, write-update-served Typhoon,
//! DirNNB) whose final images must agree word-for-word with each other
//! and the generator's prediction. `--seed S` replays one seed.

use std::io::Write as _;
use std::time::Instant;

use tt_base::{NodeId, Topology, WindowPolicy};
use tt_bench::json::{git_rev, hostname};
use tt_check::scenarios::SkipInvalidate;
use tt_check::{
    fuzz_kv_with_options, fuzz_with_options, run_kv_seed_with_options, run_seed_with_options,
    shrink_with_transport, stache_factory, Failure, FuzzOptions,
};
use tt_stache::ReliableConfig;

fn usage() -> ! {
    eprintln!(
        "usage: tt-check run [--seeds N] [--base B] [--sim-threads N] \
         [--window-policy fixed|adaptive] [--topology ideal|mesh[:W]|fat-tree[:A]] \
         [--faults] [--fault-seed F] \
         [--planted-bug] [--out PATH]\n\
         \x20      tt-check replay --seed S [--sim-threads N] \
         [--window-policy fixed|adaptive] [--topology T] [--faults] [--fault-seed F]\n\
         \x20      tt-check kv [--seeds N] [--base B] [--seed S] [--sim-threads N] \
         [--window-policy fixed|adaptive] [--topology T] [--faults] [--fault-seed F]\n\
         \n\
         --faults draws a seed-derived lossy-network schedule per case \
         (drops, duplicates,\n\
         detected corruption, transient partitions) and runs the protocol \
         behind the\n\
         reliable transport; --fault-seed F forces one fault schedule \
         (implies --faults).\n\
         With --faults, --planted-bug plants the transport bug \
         (retransmission without\n\
         duplicate suppression) instead of the Stache one."
    );
    std::process::exit(2);
}

fn parse_policy(args: &[String], i: &mut usize) -> WindowPolicy {
    *i += 1;
    args.get(*i)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            eprintln!("tt-check: --window-policy needs `fixed` or `adaptive`");
            usage()
        })
}

fn parse_topology(args: &[String], i: &mut usize) -> Topology {
    *i += 1;
    args.get(*i)
        .and_then(|v| v.parse().ok())
        .filter(|t: &Topology| t.validate().is_ok())
        .unwrap_or_else(|| {
            eprintln!("tt-check: --topology needs `ideal`, `mesh[:W]`, or `fat-tree[:A]` (A >= 2)");
            usage()
        })
}

fn parse_u64(args: &[String], i: &mut usize, flag: &str) -> u64 {
    *i += 1;
    args.get(*i)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            eprintln!("tt-check: {flag} needs an integer argument");
            usage()
        })
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn fault_json(fault: &Option<tt_base::FaultSpec>) -> String {
    match fault {
        Some(fs) => format!(
            "{{\"seed\": {}, \"drop_permille\": {}, \"dup_permille\": {}, \
             \"corrupt_permille\": {}, \"partition_permille\": {}}}",
            fs.seed, fs.drop_permille, fs.dup_permille, fs.corrupt_permille, fs.partition_permille
        ),
        None => "null".to_string(),
    }
}

fn failure_json(f: &Failure) -> String {
    let shrunk = match &f.shrunk {
        Some(s) => format!(
            "{{\"nodes\": {}, \"pages\": {}, \"blocks\": {}, \"phases\": {}}}",
            s.nodes, s.pages, s.blocks, s.phases
        ),
        None => "null".to_string(),
    };
    let shrunk_fault = match &f.shrunk_perturb {
        Some(p) => fault_json(&p.fault),
        None => "null".to_string(),
    };
    format!(
        "{{\n    \"seed\": {},\n    \"stage\": \"{}\",\n    \"nodes\": {},\n    \
         \"pages\": {},\n    \"blocks\": {},\n    \"phases\": {},\n    \
         \"fault\": {},\n    \"message\": \"{}\",\n    \"shrunk\": {},\n    \
         \"shrunk_fault\": {}\n  }}",
        f.seed,
        f.stage,
        f.cfg.nodes,
        f.cfg.pages,
        f.cfg.blocks,
        f.cfg.phases,
        fault_json(&f.perturb.fault),
        json_escape(&f.message),
        shrunk,
        shrunk_fault
    )
}

#[allow(clippy::too_many_arguments)] // report plumbing, one call site per command
fn write_fuzz_report(
    path: &str,
    base: u64,
    requested: u64,
    seeds_run: u64,
    planted: bool,
    options: &FuzzOptions,
    wall: f64,
    failure: Option<&Failure>,
) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"tool\": \"tt-check\",\n");
    out.push_str(&format!("  \"git_rev\": \"{}\",\n", json_escape(&git_rev())));
    out.push_str(&format!("  \"hostname\": \"{}\",\n", json_escape(&hostname())));
    out.push_str(&format!("  \"base_seed\": {base},\n"));
    out.push_str(&format!("  \"seeds_requested\": {requested},\n"));
    out.push_str(&format!("  \"seeds_run\": {seeds_run},\n"));
    out.push_str(&format!("  \"planted_bug\": {planted},\n"));
    out.push_str(&format!("  \"faults\": {},\n", options.faults || options.fault_seed.is_some()));
    out.push_str(&format!(
        "  \"fault_seed\": {},\n",
        options.fault_seed.map_or("null".to_string(), |f| f.to_string())
    ));
    out.push_str(&format!("  \"wall_secs\": {wall:.3},\n"));
    out.push_str(&format!("  \"clean\": {},\n", failure.is_none()));
    match failure {
        Some(f) => out.push_str(&format!("  \"failure\": {}\n", failure_json(f))),
        None => out.push_str("  \"failure\": null\n"),
    }
    out.push_str("}\n");
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    let mut file = std::fs::File::create(path).expect("create report file");
    file.write_all(out.as_bytes()).expect("write report");
    eprintln!("tt-check: report written to {path}");
}

fn cmd_run(args: &[String]) -> i32 {
    let mut seeds: u64 = 500;
    let mut base: u64 = 0;
    let mut options = FuzzOptions::default();
    let mut planted = false;
    let mut out_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => seeds = parse_u64(args, &mut i, "--seeds"),
            "--base" => base = parse_u64(args, &mut i, "--base"),
            "--sim-threads" => {
                options.sim_threads = Some(parse_u64(args, &mut i, "--sim-threads") as usize)
            }
            "--window-policy" => options.window_policy = Some(parse_policy(args, &mut i)),
            "--topology" => options.topology = Some(parse_topology(args, &mut i)),
            "--faults" => options.faults = true,
            "--fault-seed" => {
                options.fault_seed = Some(parse_u64(args, &mut i, "--fault-seed"));
                options.faults = true;
            }
            "--planted-bug" => planted = true,
            "--out" => {
                i += 1;
                out_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
        i += 1;
    }

    // With faults, the planted bug is the transport-level one — the
    // retry path ships without duplicate suppression, so a retransmit
    // whose original arrived replays into the protocol. Without faults
    // it stays the classic Stache skip-invalidate.
    let plant_transport = planted && options.faults;
    if plant_transport {
        options.transport = Some(ReliableConfig { dedupe: false, ..ReliableConfig::default() });
    }
    let planted_factory = |id: NodeId, layout: &_, cfg: &_| {
        Box::new(SkipInvalidate::new(id, layout, cfg)) as Box<dyn tt_tempest::Protocol>
    };
    let start = Instant::now();
    let report = if planted && !plant_transport {
        fuzz_with_options(base, seeds, &options, &planted_factory)
    } else {
        fuzz_with_options(base, seeds, &options, &stache_factory)
    };
    let transport = options.transport_config();
    let failure = report.failure.map(|f| {
        eprintln!("tt-check: shrinking failing seed {}...", f.seed);
        if planted && !plant_transport {
            shrink_with_transport(&f, &planted_factory, &transport)
        } else {
            shrink_with_transport(&f, &stache_factory, &transport)
        }
    });
    let wall = start.elapsed().as_secs_f64();

    if let Some(path) = &out_path {
        write_fuzz_report(
            path,
            base,
            seeds,
            report.seeds_run,
            planted,
            &options,
            wall,
            failure.as_ref(),
        );
    }
    match (planted, failure) {
        (false, None) => {
            println!(
                "tt-check: {} seeds clean on both machines in {wall:.1}s (base {base})",
                report.seeds_run
            );
            0
        }
        (false, Some(f)) => {
            println!("tt-check: FAILURE after {} seeds in {wall:.1}s", report.seeds_run);
            println!("  {f}");
            println!("  reproduce with: tt-check replay --seed {}", f.seed);
            1
        }
        (true, Some(f)) => {
            println!(
                "tt-check: planted bug caught after {} seeds in {wall:.1}s (expected)",
                report.seeds_run
            );
            println!("  {f}");
            0
        }
        (true, None) => {
            println!(
                "tt-check: planted bug survived {} seeds — the harness is blind!",
                report.seeds_run
            );
            1
        }
    }
}

fn cmd_replay(args: &[String]) -> i32 {
    let mut seed: Option<u64> = None;
    let mut options = FuzzOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => seed = Some(parse_u64(args, &mut i, "--seed")),
            "--sim-threads" => {
                options.sim_threads = Some(parse_u64(args, &mut i, "--sim-threads") as usize)
            }
            "--window-policy" => options.window_policy = Some(parse_policy(args, &mut i)),
            "--topology" => options.topology = Some(parse_topology(args, &mut i)),
            "--faults" => options.faults = true,
            "--fault-seed" => {
                options.fault_seed = Some(parse_u64(args, &mut i, "--fault-seed"));
                options.faults = true;
            }
            _ => usage(),
        }
        i += 1;
    }
    let seed = seed.unwrap_or_else(|| usage());
    match run_seed_with_options(seed, &options) {
        Ok(r) => {
            println!(
                "tt-check: seed {seed} clean — typhoon {} cycles, dirnnb {} cycles, \
                 {} events observed",
                r.typhoon_cycles, r.dirnnb_cycles, r.events
            );
            0
        }
        Err(f) => {
            println!("tt-check: seed {seed} FAILS");
            println!("  {f}");
            1
        }
    }
}

/// `tt-check kv`: the KV-serving litmus family. Fuzzes `--seeds`
/// consecutive seeds through the three-machine differential
/// (Stache-served, write-update-served, DirNNB) plus the parallel
/// reruns; `--seed S` replays one seed instead.
fn cmd_kv(args: &[String]) -> i32 {
    let mut seeds: u64 = 200;
    let mut base: u64 = 0;
    let mut replay: Option<u64> = None;
    let mut options = FuzzOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => seeds = parse_u64(args, &mut i, "--seeds"),
            "--base" => base = parse_u64(args, &mut i, "--base"),
            "--seed" => replay = Some(parse_u64(args, &mut i, "--seed")),
            "--sim-threads" => {
                options.sim_threads = Some(parse_u64(args, &mut i, "--sim-threads") as usize)
            }
            "--window-policy" => options.window_policy = Some(parse_policy(args, &mut i)),
            "--topology" => options.topology = Some(parse_topology(args, &mut i)),
            "--faults" => options.faults = true,
            "--fault-seed" => {
                options.fault_seed = Some(parse_u64(args, &mut i, "--fault-seed"));
                options.faults = true;
            }
            _ => usage(),
        }
        i += 1;
    }

    if let Some(seed) = replay {
        return match run_kv_seed_with_options(seed, &options) {
            Ok(r) => {
                println!(
                    "tt-check: kv seed {seed} clean — stache {} cycles, update {} cycles, \
                     dirnnb {} cycles, {} events observed",
                    r.stache_cycles, r.update_cycles, r.dirnnb_cycles, r.events
                );
                0
            }
            Err(f) => {
                println!("tt-check: kv seed {seed} FAILS");
                println!("  {f}");
                1
            }
        };
    }

    let start = Instant::now();
    let report = fuzz_kv_with_options(base, seeds, &options);
    let wall = start.elapsed().as_secs_f64();
    match report.failure {
        None => {
            println!(
                "tt-check: {} kv seeds clean on all three machines in {wall:.1}s (base {base})",
                report.seeds_run
            );
            0
        }
        Some(f) => {
            println!("tt-check: kv FAILURE after {} seeds in {wall:.1}s", report.seeds_run);
            println!("  {f}");
            println!("  reproduce with: tt-check kv --seed {}", f.seed);
            1
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("kv") => cmd_kv(&args[1..]),
        _ => usage(),
    };
    std::process::exit(code);
}
