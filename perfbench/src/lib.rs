//! Host-throughput benchmark of the Tempest/Typhoon simulator.
//!
//! A run repeats one workload's batch of simulations until its time
//! budget is spent ([`measure`]), checks every simulated output, and
//! condenses the batches into the metrics of `BENCHMARK.json`
//! ([`metrics`]). See `README.md` beside this crate for the workloads and
//! the layer-to-metric map.

pub mod metrics;
pub mod run;
pub mod workloads;

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use run::{run_sim, Measured, Mode};
use workloads::{Job, Sim, System};

/// Expected outcome digests of every workload at
/// [`workloads::DEFAULT_SEED`], one `workload label digest` line each.
pub const DIGESTS: &str = include_str!("../digests.txt");

/// Parses [`DIGESTS`]-format text into `"workload label" -> digest`.
pub fn parse_digests(text: &str) -> HashMap<String, u64> {
    text.lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            let (workload, label, hex) = (parts.next()?, parts.next()?, parts.next()?);
            let digest = u64::from_str_radix(hex, 16).ok()?;
            Some((format!("{workload} {label}"), digest))
        })
        .collect()
}

/// One simulation's legs within a batch.
#[derive(Clone, Debug)]
pub struct SimRun {
    /// Index into the workload's simulations.
    pub index: usize,
    /// The measured run, as a user would make it.
    pub plain: Measured,
    /// Traced runs only: the `run_observed` leg (Typhoon).
    pub observed: Option<Measured>,
    /// Traced runs only: the sequential leg of a parallel simulation.
    pub sequential: Option<Measured>,
}

/// One pass over every simulation of a workload.
#[derive(Clone, Debug, Default)]
pub struct Batch {
    /// Host seconds the whole pass took.
    pub wall_s: f64,
    /// Simulations whose plain leg completed.
    pub runs: Vec<SimRun>,
    /// Simulation legs started.
    pub attempted: u64,
    /// One line per failed check or panicked leg.
    pub failures: Vec<String>,
}

/// Runs `sim` in `mode`, turning a panic into an error message.
fn try_run(sim: &Sim, mode: Mode) -> Result<Measured, String> {
    catch_unwind(AssertUnwindSafe(|| run_sim(sim, mode))).map_err(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic");
        format!("{} ({mode:?}): panicked: {msg}", sim.label)
    })
}

/// Runs every simulation once and checks its outputs:
///
/// - each digest must equal `reference[i]` when set (pinned digests, or
///   the first batch's); unset entries learn this batch's digest;
/// - every KV request completes exactly once;
/// - with `trace`, the observed leg and, for parallel simulations, the
///   sequential leg reproduce the plain leg exactly.
pub fn run_batch(sims: &[Sim], trace: bool, reference: &mut [Option<u64>]) -> Batch {
    let start = Instant::now();
    let mut batch = Batch::default();
    for (index, sim) in sims.iter().enumerate() {
        batch.attempted += 1;
        let plain = match try_run(sim, Mode::Plain) {
            Ok(m) => m,
            Err(e) => {
                batch.failures.push(e);
                continue;
            }
        };
        let digest = plain.outcome.digest();
        let mut problems = Vec::new();
        match reference[index] {
            Some(want) if want != digest => {
                problems.push(format!("digest {digest:016x}, expected {want:016x}"))
            }
            Some(_) => {}
            None => reference[index] = Some(digest),
        }
        if let Job::Kv(p) = &sim.job {
            let want = p.requests_per_node * p.nodes as u64;
            let timed = plain.outcome.lat.as_ref().map_or(0, |l| l.requests());
            let served = plain.outcome.count("kv.gets") + plain.outcome.count("kv.puts");
            if timed != want || served != want as f64 {
                problems.push(format!(
                    "{want} requests issued, {timed} timed, {served} served"
                ));
            }
        }
        if !problems.is_empty() {
            batch
                .failures
                .push(format!("{}: {}", sim.label, problems.join("; ")));
        }
        let mut leg = |wanted: bool, mode: Mode| -> Option<Measured> {
            if !wanted {
                return None;
            }
            batch.attempted += 1;
            match try_run(sim, mode) {
                Ok(m) if m.outcome.digest() == digest => Some(m),
                Ok(m) => {
                    batch.failures.push(format!(
                        "{} ({mode:?}): digest {:016x} differs from the plain run's {digest:016x}",
                        sim.label,
                        m.outcome.digest()
                    ));
                    Some(m)
                }
                Err(e) => {
                    batch.failures.push(e);
                    None
                }
            }
        };
        let observed = leg(trace && sim.system == System::Typhoon, Mode::Observed);
        let sequential = leg(trace && sim.cfg.sim_threads > 1, Mode::Sequential);
        batch.runs.push(SimRun {
            index,
            plain,
            observed,
            sequential,
        });
    }
    batch.wall_s = start.elapsed().as_secs_f64();
    batch
}

/// Runs batches back to back within `budget` (at least one).
///
/// A further batch starts only if the previous one's duration says it
/// ends within `budget`, so a run lasts about `budget`, not up to a
/// batch longer. The first batch is the warm-up: it is checked like the
/// others, and [`metrics`] leaves it out of the host times when later
/// batches ran.
pub fn measure(
    sims: &[Sim],
    trace: bool,
    budget: Duration,
    reference: &mut [Option<u64>],
) -> Vec<Batch> {
    let start = Instant::now();
    let mut batches: Vec<Batch> = Vec::new();
    loop {
        batches.push(run_batch(sims, trace, reference));
        let last = Duration::from_secs_f64(batches[batches.len() - 1].wall_s);
        if start.elapsed() + last > budget {
            return batches;
        }
    }
}
