//! `tt-check` — drive the coherence model checker from the command
//! line.
//!
//! ```text
//! tt-check run [--seeds N] [--base B] [--topology T] [--faults] [--fault-seed F]
//!              [--planted-bug] [--out PATH]
//! tt-check replay --seed S [--topology T] [--faults] [--fault-seed F]
//! tt-check kv [--seeds N] [--base B] [--seed S] [--topology T] [--faults] [--fault-seed F]
//! ```
//!
//! `run` fuzzes `N` consecutive seeds (litmus workloads × schedule
//! perturbations, differential across both machines) and exits
//! non-zero on the first failure, printing the seed so `tt-check replay
//! --seed S` reproduces it bit-exactly.
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
//!
//! The command line follows the bench binaries' conventions: `--help`
//! prints the usage to stdout and exits 0; a bad or unknown argument
//! prints `error: <flag>: …` and the usage to stderr and exits 2 before
//! anything runs — an unwritable `--out` path included, since the report
//! file is opened before the sweep.

use std::fs::File;
use std::io::Write as _;
use std::time::Instant;

use tt_base::{FaultSpec, NodeId, Topology};
use tt_bench::cli::{number, value, CliError};
use tt_bench::json::{escape, git_rev, hostname};
use tt_check::scenarios::SkipInvalidate;
use tt_check::{fuzz, fuzz_kv, run_kv_seed, run_seed, shrink, stache_factory, Failure, FuzzOptions};
use tt_stache::ReliableConfig;

const USAGE: &str = "\
Usage: tt-check run [--seeds N] [--base B] [--planted-bug] [--out PATH] [checker flags]
       tt-check replay --seed S [checker flags]
       tt-check kv [--seeds N] [--base B] [--seed S] [checker flags]

Checker flags (every command):
  --topology T             ideal | mesh[:W] | fat-tree[:A] (the Typhoon legs)
  --faults                 a seed-derived lossy-network schedule per case
  --fault-seed F           force one fault schedule (implies --faults)
  -h, --help               print this help and exit

--faults draws drops, duplicates, detected corruption and transient
partitions, and runs the protocol behind the reliable transport. With
--faults, --planted-bug plants the transport bug (retransmission without
duplicate suppression) instead of the Stache one.
";

/// Every flag of every command, parsed by one loop.
#[derive(Default)]
struct Flags {
    seeds: Option<u64>,
    base: u64,
    seed: Option<u64>,
    planted: bool,
    /// `--out`: the path and the report file, opened before any sweep
    /// so an unwritable path is a usage error.
    out: Option<(String, File)>,
    options: FuzzOptions,
}

/// Parses the checker flags every command takes plus the command's
/// `own` flags; any other argument is an error.
fn parse(args: &[String], own: &[&str]) -> Result<Flags, CliError> {
    let mut f = Flags::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let is_own = own.contains(&flag);
        match flag {
            "-h" | "--help" => return Err(CliError::Help),
            "--topology" => {
                let topology: Topology =
                    value(args, i, flag)?.parse().map_err(|e| format!("{flag}: {e}"))?;
                topology.validate().map_err(|e| format!("{flag}: {e}"))?;
                f.options.topology = Some(topology);
            }
            "--fault-seed" => {
                f.options.fault_seed = Some(number(args, i, flag)? as u64);
                f.options.faults = true;
            }
            "--seeds" if is_own => f.seeds = Some(number(args, i, flag)? as u64),
            "--base" if is_own => f.base = number(args, i, flag)? as u64,
            "--seed" if is_own => f.seed = Some(number(args, i, flag)? as u64),
            "--out" if is_own => {
                let path = value(args, i, flag)?;
                f.out = Some((path.to_string(), create_report(path)?));
            }
            "--faults" => {
                f.options.faults = true;
                i += 1;
                continue;
            }
            "--planted-bug" if is_own => {
                f.planted = true;
                i += 1;
                continue;
            }
            _ => return Err(CliError::Bad(format!("unknown argument {flag}"))),
        }
        // Every other flag takes one value.
        i += 2;
    }
    Ok(f)
}

/// Creates the `--out` report file (and its directory).
fn create_report(path: &str) -> Result<File, String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    File::create(path).map_err(|e| format!("--out: {path}: {e}"))
}

fn fault_json(fault: &Option<FaultSpec>) -> String {
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
         \"fault\": {},\n    \"message\": {},\n    \"shrunk\": {},\n    \
         \"shrunk_fault\": {}\n  }}",
        f.seed,
        f.stage,
        f.cfg.nodes,
        f.cfg.pages,
        f.cfg.blocks,
        f.cfg.phases,
        fault_json(&f.perturb.fault),
        escape(&f.message),
        shrunk,
        shrunk_fault
    )
}

/// Writes the `run` report to the file `--out` opened.
fn write_fuzz_report(
    out: &mut File,
    flags: &Flags,
    requested: u64,
    seeds_run: u64,
    wall: f64,
    failure: Option<&Failure>,
) -> std::io::Result<()> {
    let options = &flags.options;
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"tool\": \"tt-check\",\n");
    s.push_str(&format!("  \"git_rev\": {},\n", escape(&git_rev())));
    s.push_str(&format!("  \"hostname\": {},\n", escape(&hostname())));
    s.push_str(&format!("  \"base_seed\": {},\n", flags.base));
    s.push_str(&format!("  \"seeds_requested\": {requested},\n"));
    s.push_str(&format!("  \"seeds_run\": {seeds_run},\n"));
    s.push_str(&format!("  \"planted_bug\": {},\n", flags.planted));
    s.push_str(&format!("  \"faults\": {},\n", options.faults || options.fault_seed.is_some()));
    s.push_str(&format!(
        "  \"fault_seed\": {},\n",
        options.fault_seed.map_or("null".to_string(), |f| f.to_string())
    ));
    s.push_str(&format!("  \"wall_secs\": {wall:.3},\n"));
    s.push_str(&format!("  \"clean\": {},\n", failure.is_none()));
    match failure {
        Some(f) => s.push_str(&format!("  \"failure\": {}\n", failure_json(f))),
        None => s.push_str("  \"failure\": null\n"),
    }
    s.push_str("}\n");
    out.write_all(s.as_bytes())
}

fn cmd_run(mut flags: Flags) -> i32 {
    let seeds = flags.seeds.unwrap_or(500);
    let base = flags.base;
    let planted = flags.planted;

    // With faults, the planted bug is the transport-level one — the
    // retry path ships without duplicate suppression, so a retransmit
    // whose original arrived replays into the protocol. Without faults
    // it stays the classic Stache skip-invalidate.
    let plant_transport = planted && flags.options.faults;
    if plant_transport {
        flags.options.transport =
            Some(ReliableConfig { dedupe: false, ..ReliableConfig::default() });
    }
    let planted_factory = |id: NodeId, layout: &_, cfg: &_| {
        Box::new(SkipInvalidate::new(id, layout, cfg)) as Box<dyn tt_tempest::Protocol>
    };
    let factory: tt_check::fuzz::ProtocolFactory =
        if planted && !plant_transport { &planted_factory } else { &stache_factory };
    let start = Instant::now();
    let report = fuzz(base, seeds, &flags.options, factory);
    let failure = report.failure.map(|f| {
        eprintln!("tt-check: shrinking failing seed {}...", f.seed);
        shrink(&f, factory, &flags.options.transport_config())
    });
    let wall = start.elapsed().as_secs_f64();

    if let Some((path, mut file)) = flags.out.take() {
        if let Err(e) =
            write_fuzz_report(&mut file, &flags, seeds, report.seeds_run, wall, failure.as_ref())
        {
            eprintln!("error: --out: {path}: {e}");
            return 2;
        }
        eprintln!("tt-check: report written to {path}");
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

fn cmd_replay(seed: u64, options: &FuzzOptions) -> i32 {
    match run_seed(seed, options) {
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
/// (Stache-served, write-update-served, DirNNB); `--seed S` replays one
/// seed instead.
fn cmd_kv(flags: &Flags) -> i32 {
    let options = &flags.options;
    if let Some(seed) = flags.seed {
        return match run_kv_seed(seed, options) {
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

    let base = flags.base;
    let start = Instant::now();
    let report = fuzz_kv(base, flags.seeds.unwrap_or(200), options);
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

/// Parses the command line and runs the command, returning its exit
/// code.
fn run(args: &[String]) -> Result<i32, CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(CliError::Bad("missing command (run, replay or kv)".into()));
    };
    match command.as_str() {
        "-h" | "--help" => Err(CliError::Help),
        "run" => Ok(cmd_run(parse(rest, &["--seeds", "--base", "--planted-bug", "--out"])?)),
        "replay" => {
            let flags = parse(rest, &["--seed"])?;
            let seed =
                flags.seed.ok_or_else(|| CliError::Bad("--seed: replay needs a seed".into()))?;
            Ok(cmd_replay(seed, &flags.options))
        }
        "kv" => Ok(cmd_kv(&parse(rest, &["--seeds", "--base", "--seed"])?)),
        other => Err(CliError::Bad(format!("unknown command {other}"))),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = run(&args).unwrap_or_else(|e| e.exit_with_help(USAGE));
    std::process::exit(code);
}
