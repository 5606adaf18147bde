//! `tt-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Repeats the workload's batch of simulations for `S` seconds, checks
//! every output, prints each metric with its unit, and ends with one
//! JSON result line. `--trace 0` reports the end-to-end metrics; `--trace
//! 1` adds the observed and sequential legs and reports the per-layer
//! metrics.
//!
//! `tt-perfbench --bless` reruns every workload once at the default seed
//! and rewrites `digests.txt`, the expected outputs.

use std::process::ExitCode;
use std::time::Duration;

use tt_perfbench::workloads::{self, DEFAULT_SEED, WORKLOADS};
use tt_perfbench::{measure, metrics, parse_digests, run_batch, DIGESTS};

/// Counts heap bytes for the allocator metrics.
#[global_allocator]
static ALLOC: tt_base::alloc_stats::CountingAlloc = tt_base::alloc_stats::CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn bless() -> ExitCode {
    let mut text = String::new();
    for name in WORKLOADS {
        let sims = workloads::sims(name, DEFAULT_SEED).expect("known workload");
        let mut digests = vec![None; sims.len()];
        let batch = run_batch(&sims, false, &mut digests);
        if !batch.failures.is_empty() {
            eprintln!("{name}: {}", batch.failures.join("\n"));
            return ExitCode::FAILURE;
        }
        for (sim, digest) in sims.iter().zip(digests) {
            let digest = digest.expect("every simulation ran");
            text.push_str(&format!("{name} {} {digest:016x}\n", sim.label));
        }
        eprintln!("{name}: {} simulations in {:.2}s", sims.len(), batch.wall_s);
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/digests.txt");
    match std::fs::write(path, text) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("writing {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--bless"] {
        return bless();
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tt-perfbench: {e}");
            eprintln!("usage: tt-perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let sims = workloads::sims(&args.workload, args.seed).expect("validated workload");
    let mut reference = vec![None; sims.len()];
    if args.seed == DEFAULT_SEED {
        let pinned = parse_digests(DIGESTS);
        for (slot, sim) in reference.iter_mut().zip(&sims) {
            let key = format!("{} {}", args.workload, sim.label);
            // An unpinned simulation is expected to digest to 0: it fails.
            *slot = Some(pinned.get(&key).copied().unwrap_or_else(|| {
                eprintln!("no pinned digest for {key}; run --bless");
                0
            }));
        }
    }
    // Panics are caught and counted per simulation; keep stderr readable.
    std::panic::set_hook(Box::new(|info| eprintln!("simulation panicked: {info}")));
    let batches = measure(
        &sims,
        args.trace,
        Duration::from_secs(args.seconds),
        &mut reference,
    );

    let attempted: u64 = batches.iter().map(|b| b.attempted).sum();
    let failures: Vec<&String> = batches.iter().flat_map(|b| &b.failures).collect();
    for f in &failures {
        eprintln!("FAILED {f}");
    }
    let metrics = if args.trace {
        metrics::per_layer(&sims, &batches)
    } else {
        metrics::end_to_end(&sims, &batches)
    };
    let walls: Vec<String> = batches.iter().map(|b| format!("{:.2}", b.wall_s)).collect();
    println!(
        "{} seed {} trace {}: {attempted} simulations, {} failed; batch wall seconds {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        failures.len(),
        walls.join(" ")
    );
    for m in &metrics {
        println!("  {:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let failed = failures.len() as u64;
    println!(
        "{}",
        metrics::json_line(failed == 0, attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}
