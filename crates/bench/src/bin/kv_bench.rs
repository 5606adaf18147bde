//! **kv_bench** — the `tt-serve` distributed KV cache under Zipfian
//! fire: tail latency and throughput for the Stache-backed server vs.
//! the hot-key write-update custom protocol.
//!
//! The sweep crosses request mix {95/5 read-mostly, 50/50 write-heavy}
//! with Zipf skew {0.5, 0.9, 1.2} and runs each point on both server
//! variants. Latencies are *simulated cycles* from each request's
//! open-loop arrival time to its completion stamp, so queueing delay is
//! included and every number on stdout is bit-reproducible — the table
//! is byte-identical for any `--jobs` value (wall-clock rates go to
//! stderr and the `--json` report only).
//!
//! Usage: `kv_bench [--nodes N] [--keys N] [--requests N]
//! [--value-words N] [--interarrival CYCLES] [--fault-rate PERMILLE]
//! [--jobs N] [--repeat N] [--json PATH]`
//!
//! `--fault-rate R` runs the sweep over a lossy network: every packet
//! is dropped and duplicated with probability R‰ (corrupted at R/2‰),
//! and both server variants run behind the reliable transport. The
//! table gains a retransmission column; at the default rate 0 nothing
//! is wrapped and the output is byte-identical to a fault-free build.
//! If the transport exhausts its retry budget on some point, the sweep
//! prints that point's network fault as an `error:` line and exits 1.

use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use tt_base::table::Table;
use tt_base::FaultSpec;
use tt_bench::{cli, sweep, Run};
use tt_serve::{KvParams, KvVariant, MAX_VALUE_WORDS};
use tt_tempest::NetFault;

/// Request mixes swept: percent of requests that are puts.
const MIXES: [u32; 2] = [5, 50];
/// Zipf skew levels swept.
const SKEWS: [f64; 3] = [0.5, 0.9, 1.2];
/// Server variants swept.
const VARIANTS: [KvVariant; 2] = [KvVariant::Stache, KvVariant::Update];

/// KV-specific sweep knobs layered on the shared [`tt_bench::cli::Cli`].
struct KvCli {
    keys: u64,
    requests_per_node: u64,
    value_words: usize,
    mean_interarrival: f64,
    fault_permille: u32,
}

fn params(kv: &KvCli, nodes: usize, mix: u32, skew: f64, variant: KvVariant) -> KvParams {
    let mut p = KvParams::small(variant);
    p.nodes = nodes;
    p.keys = kv.keys;
    p.skew = skew;
    p.write_pct = mix;
    p.requests_per_node = kv.requests_per_node;
    p.mean_interarrival = kv.mean_interarrival;
    p.value_words = kv.value_words;
    p
}

const USAGE: &str = "\
Usage: kv_bench [kv flags] [shared flags]

Runs tt-serve under open-loop Zipfian load: latency percentiles for the
Stache-served and write-update-served caches (default --nodes 32).

  --keys N                 keys in the cache (default 2048)
  --requests N             requests per node (default 256)
  --value-words N          words per value, 1 to 255 (default 4)
  --interarrival CYCLES    mean open-loop interarrival, at least 1 (default 500)
  --fault-rate PERMILLE    lossy network: drop/duplicate rate, 0 to 500 (default 0)
";

/// [`cli::number`] for a flag that must lie in `min..=max`.
fn bounded(args: &[String], i: usize, flag: &str, min: usize, max: usize) -> Result<usize, String> {
    match cli::number(args, i, flag)? {
        n if (min..=max).contains(&n) => Ok(n),
        _ => Err(format!("{flag}: must be {min} to {max}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut kv = KvCli {
        keys: 2048,
        requests_per_node: 256,
        value_words: 4,
        mean_interarrival: 500.0,
        fault_permille: 0,
    };
    let shared = cli::parse_cli_with(&args, 1, USAGE, &mut |flag, args, i| {
        match flag {
            "--keys" => kv.keys = bounded(args, *i, "--keys", 1, u32::MAX as usize)? as u64,
            "--requests" => kv.requests_per_node = cli::number(args, *i, "--requests")? as u64,
            "--value-words" => {
                kv.value_words = bounded(args, *i, "--value-words", 1, MAX_VALUE_WORDS)?;
            }
            "--interarrival" => {
                let max = u32::MAX as usize;
                kv.mean_interarrival = bounded(args, *i, "--interarrival", 1, max)? as f64;
            }
            "--fault-rate" => {
                kv.fault_permille = bounded(args, *i, "--fault-rate", 0, 500)? as u32;
            }
            _ => return Ok(false),
        }
        *i += 2;
        Ok(true)
    });
    let mut cfg = shared.config();
    let faulty = kv.fault_permille > 0;
    if faulty {
        cfg.fault = Some(FaultSpec::uniform(cfg.seed, kv.fault_permille));
    }
    // A network fault is reported once, as an error, not as a panic.
    let default_hook = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        if !info.payload().is::<NetFault>() {
            default_hook(info);
        }
    }));

    let mut grid = Vec::new();
    for mix in MIXES {
        for skew in SKEWS {
            for variant in VARIANTS {
                grid.push((mix, skew, variant));
            }
        }
    }
    let runs: Vec<Run> = grid
        .iter()
        .map(|&(mix, skew, variant)| {
            let point = format!("{}/{} skew {:.1}", 100 - mix, mix, skew);
            Run::kv(point, cfg.clone(), params(&kv, shared.nodes, mix, skew, variant))
        })
        .collect();
    // A reliable transport that gives up unwinds with its [`NetFault`]
    // as the payload, which the sweep re-raises (the lowest-index
    // point's at any --jobs); any other panic keeps unwinding.
    let start = Instant::now();
    let outs = panic::catch_unwind(AssertUnwindSafe(|| sweep(shared.jobs, shared.repeat, &runs)))
        .unwrap_or_else(|payload| match payload.downcast::<NetFault>() {
            Ok(fault) => {
                eprintln!("error: {fault}");
                std::process::exit(1);
            }
            Err(other) => panic::resume_unwind(other),
        });
    let total_wall_secs = start.elapsed().as_secs_f64();

    println!(
        "KV SERVING. {nodes}-node tt-serve under open-loop Zipfian load \
         ({keys} keys, {req} requests/node, {vw}-word values, mean \
         interarrival {ia:.0} cycles).{faults}\n",
        nodes = shared.nodes,
        keys = kv.keys,
        req = kv.requests_per_node,
        vw = kv.value_words,
        ia = kv.mean_interarrival,
        faults = if faulty {
            format!(
                "\nLossy network: drop/dup {r}\u{2030}, corrupt {h}\u{2030} \
                 (detected), reliable transport on.",
                r = kv.fault_permille,
                h = kv.fault_permille / 2,
            )
        } else {
            String::new()
        },
    );

    // The retransmission column exists only on lossy sweeps: at
    // --fault-rate 0 the table (and the JSON `kv` member) must stay
    // byte-identical to a fault-free build.
    let mut columns = vec![
        "mix", "skew", "server", "cycles", "req/kcyc", "get p50", "get p99", "get p999", "put p50",
        "put p99", "put p999",
    ];
    if faulty {
        columns.push("retx");
    }
    let mut table = Table::new(columns);
    for (&(mix, skew, variant), out) in grid.iter().zip(&outs) {
        let kv = out.kv.as_ref().expect("a KV run reports latencies");
        let (get, put) = (&kv.lat.get, &kv.lat.put);
        let mut row = vec![
            format!("{}/{}", 100 - mix, mix),
            format!("{skew:.1}"),
            variant.name().into(),
            format!("{}", out.cycles.raw()),
            format!("{:.3}", kv.requests_per_kcycle),
            format!("{}", get.quantile(0.50)),
            format!("{}", get.quantile(0.99)),
            format!("{}", get.quantile(0.999)),
            format!("{}", put.quantile(0.50)),
            format!("{}", put.quantile(0.99)),
            format!("{}", put.quantile(0.999)),
        ];
        if faulty {
            row.push(format!("{}", out.report.get("rel.retransmits").unwrap_or(0.0) as u64));
        }
        table.row(row);
    }
    println!("{table}");
    println!(
        "(latencies in simulated cycles, arrival to completion; write-update\n\
         flattens the hot-key tail while the sharer count stays moderate —\n\
         read-mostly mixes and small machines — but pays a per-put broadcast\n\
         to every sharer, which inverts the verdict for write-heavy mixes on\n\
         large machines)"
    );
    shared.finish("kv_bench", total_wall_secs, &runs, &outs);
}
