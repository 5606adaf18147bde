//! Condenses measured batches into the named metrics of `BENCHMARK.json`
//! and prints them.
//!
//! Host times are medians over a run's batches after the warm-up batch.
//! Simulated counts are identical in every batch (the batch runner checks
//! the digests), so their median is the count itself. A layer a workload
//! does not exercise reads 0.

use tt_serve::KvLatency;

use crate::run::{Measured, EVENT_KINDS};
use crate::workloads::{Job, Sim, System};
use crate::Batch;

/// One named value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// An ordered metric list under construction.
#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        // An empty f64 sum is -0.0; print idle layers as plain 0.
        let value = if value.is_finite() && value != 0.0 {
            value
        } else {
            0.0
        };
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// The middle value (mean of the middle two for even counts).
fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Takes each metric's median across per-batch metric lists, which all
/// carry the same names in the same order.
fn median_across(per_batch: Vec<Vec<Metric>>) -> Vec<Metric> {
    let Some(first) = per_batch.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| Metric {
            name: m.name.clone(),
            value: median(per_batch.iter().map(|b| b[i].value).collect()),
            unit: m.unit,
        })
        .collect()
}

/// The batches whose host times count: all but the warm-up batch, unless
/// it is the only one.
fn timed(batches: &[Batch]) -> &[Batch] {
    if batches.len() > 1 {
        &batches[1..]
    } else {
        batches
    }
}

/// Simulated cycles summed over every node: the denominator of the
/// per-node cost and utilisation ratios.
fn node_cycles(sim: &Sim, m: &Measured) -> f64 {
    sim.cfg.nodes as f64 * m.outcome.cycles.raw() as f64
}

/// The end-to-end metrics, with tracing off.
pub fn end_to_end(sims: &[Sim], batches: &[Batch]) -> Vec<Metric> {
    let per_batch = timed(batches)
        .iter()
        .map(|b| {
            let plain = || b.runs.iter().map(|r| (&sims[r.index], &r.plain));
            let cycles: f64 = plain().map(|(_, m)| m.outcome.cycles.raw() as f64).sum();
            let run_s: f64 = plain().map(|(_, m)| m.spans.run).sum();
            let peak = plain()
                .map(|(s, m)| m.peak_bytes as f64 / s.cfg.nodes as f64)
                .fold(0.0, f64::max);
            let mut out = Metrics::default();
            out.push("wall_s", b.wall_s, "s");
            out.push("setup_s", plain().map(|(_, m)| m.spans.setup()).sum(), "s");
            out.push("sim_cycles_per_sec", ratio(cycles, run_s), "cycles/s");
            out.push("peak_bytes_per_node", peak, "bytes");
            out.0
        })
        .collect();
    median_across(per_batch)
}

/// The per-layer metrics of a traced run.
pub fn per_layer(sims: &[Sim], batches: &[Batch]) -> Vec<Metric> {
    median_across(
        timed(batches)
            .iter()
            .map(|b| batch_layers(sims, b))
            .collect(),
    )
}

fn batch_layers(sims: &[Sim], b: &Batch) -> Vec<Metric> {
    let mut out = Metrics::default();
    let runs = || b.runs.iter().map(|r| (&sims[r.index], r));
    let is_kv = |s: &Sim| matches!(s.job, Job::Kv(_));
    let of = |system: System| runs().filter(move |(s, _)| s.system == system);
    let sum =
        |f: &dyn Fn(&Sim, &Measured) -> f64| -> f64 { runs().map(|(s, r)| f(s, &r.plain)).sum() };
    let count = |name: &str| sum(&|_, m| m.outcome.count(name));

    // Spans around the public calls.
    out.push("apps.build_s", sum(&|_, m| m.spans.build), "s");
    for system in [System::Typhoon, System::Dirnnb] {
        let sys = system.name();
        let new_s: f64 = of(system).map(|(_, r)| r.plain.spans.new).sum();
        let run_s: f64 = of(system).map(|(_, r)| r.plain.spans.run).sum();
        let teardown_s: f64 = of(system)
            .filter(|(s, _)| !is_kv(s))
            .map(|(_, r)| r.plain.spans.teardown)
            .sum();
        let kcycles: f64 = of(system)
            .map(|(s, r)| node_cycles(s, &r.plain) / 1000.0)
            .sum();
        out.push(format!("{sys}.new_s"), new_s, "s");
        out.push(format!("{sys}.run_s"), run_s, "s");
        out.push(format!("{sys}.teardown_s"), teardown_s, "s");
        out.push(
            format!("{sys}.us_per_node_kcycle"),
            ratio(run_s * 1e6, kcycles),
            "us",
        );
    }
    let harvest: f64 = runs()
        .filter(|(s, _)| is_kv(s))
        .map(|(_, r)| r.plain.spans.teardown)
        .sum();
    out.push("serve.harvest_s", harvest, "s");
    let legs =
        runs().flat_map(|(_, r)| [Some(&r.plain), r.observed.as_ref(), r.sequential.as_ref()]);
    let covered: f64 = legs.flatten().map(|m| m.spans.total()).sum();
    out.push("spans.coverage", ratio(covered, b.wall_s), "ratio");

    // Traced Typhoon runs: host time per event kind.
    let mut profile = crate::run::EventProfile::default();
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    for (_, r) in runs() {
        if let Some(obs) = &r.observed {
            profile.add(&obs.events.unwrap_or_default());
            traced_s += obs.spans.run;
            untraced_s += r.plain.spans.run;
        }
    }
    for (k, kind) in EVENT_KINDS.iter().enumerate() {
        out.push(
            format!("typhoon.ev.{kind}.count"),
            profile.count[k] as f64,
            "count",
        );
        out.push(format!("typhoon.ev.{kind}.self_s"), profile.self_s[k], "s");
    }
    let events: u64 = profile.count.iter().sum();
    out.push(
        "typhoon.ns_per_event",
        ratio(traced_s * 1e9, events as f64),
        "ns",
    );
    out.push("trace.overhead_ratio", ratio(traced_s, untraced_s), "ratio");

    // Allocator.
    for system in [System::Typhoon, System::Dirnnb] {
        let sys = system.name();
        let peak = of(system)
            .map(|(s, r)| r.plain.peak_bytes as f64 / s.cfg.nodes as f64)
            .fold(0.0, f64::max);
        out.push(format!("{sys}.peak_bytes_per_node"), peak, "bytes");
        let allocs: f64 = of(system).map(|(_, r)| r.plain.run_allocs as f64).sum();
        let kops: f64 = of(system)
            .map(|(_, r)| r.plain.outcome.count("cpu.ops") / 1000.0)
            .sum();
        out.push(
            format!("{sys}.allocs_per_kop"),
            ratio(allocs, kops),
            "allocs/kop",
        );
    }

    // Parallel simulator.
    let pdes = |f: fn(&tt_base::stats::PdesTelemetry) -> u64| -> f64 {
        runs()
            .filter_map(|(_, r)| r.plain.pdes.as_ref())
            .map(|t| f(t) as f64)
            .sum()
    };
    out.push("pdes.windows", pdes(|t| t.windows), "count");
    out.push("pdes.rendezvous", pdes(|t| t.rendezvous), "count");
    out.push(
        "pdes.events_per_window",
        ratio(pdes(|t| t.events), pdes(|t| t.windows)),
        "events",
    );
    out.push("pdes.cross_messages", pdes(|t| t.cross_messages), "count");
    let (mut seq_s, mut par_s) = (0.0, 0.0);
    for (_, r) in runs() {
        if let Some(seq) = &r.sequential {
            seq_s += seq.spans.run;
            par_s += r.plain.spans.run;
        }
    }
    out.push("pdes.speedup_vs_seq", ratio(seq_s, par_s), "ratio");

    // Simulated work, wait and failures, summed over the batch.
    out.push("cpu.ops", count("cpu.ops"), "count");
    for name in [
        "cpu.compute_cycles",
        "cpu.fault_stall_cycles",
        "cpu.call_stall_cycles",
        "cpu.barrier_wait_cycles",
        "cpu.idle_cycles",
    ] {
        out.push(name, count(name), "cycles");
    }
    let hits = count("cpu.cache_hits");
    out.push(
        "mem.cache_hit_ratio",
        ratio(hits, hits + count("cpu.cache_misses")),
        "ratio",
    );
    out.push("cpu.tlb_misses", count("cpu.tlb_misses"), "count");
    out.push("np.handlers", count("np.handlers"), "count");
    let typhoon_node_cycles: f64 = of(System::Typhoon)
        .map(|(s, r)| node_cycles(s, &r.plain))
        .sum();
    out.push(
        "np.busy_frac",
        ratio(count("np.busy_cycles"), typhoon_node_cycles),
        "ratio",
    );
    out.push("net.packets", count("net.packets"), "count");
    out.push("net.bytes", count("net.bytes"), "bytes");
    for name in [
        "stache.block_faults",
        "stache.invals_sent",
        "stache.deferred_requests",
    ] {
        out.push(name, count(name), "count");
    }
    out.push("dir.ops", count("dir.ops"), "count");
    out.push("dir.deferred", count("dir.deferred"), "count");
    out.push("cpu.remote_misses", count("cpu.remote_misses"), "count");
    out.push(
        "cpu.miss_stall_cycles",
        count("cpu.miss_stall_cycles"),
        "cycles",
    );
    let mut lat = KvLatency::default();
    for (_, r) in runs() {
        if let Some(l) = &r.plain.outcome.lat {
            lat.merge(l);
        }
    }
    let p99 = |h: &tt_base::stats::LatHistogram| if h.total() == 0 { 0 } else { h.quantile(0.99) };
    out.push("kv.get_p99_cycles", p99(&lat.get) as f64, "cycles");
    out.push("kv.put_p99_cycles", p99(&lat.put) as f64, "cycles");
    out.push("kvu.updates_sent", count("kvu.updates_sent"), "count");
    let (sent, retransmits) = (count("rel.sent"), count("rel.retransmits"));
    out.push("rel.retransmits", retransmits, "count");
    out.push("rel.useful_ratio", ratio(sent, sent + retransmits), "ratio");

    // Cycle accounting: node-cycles no CPU counter claims.
    for system in [System::Typhoon, System::Dirnnb] {
        let unattributed: f64 = of(system)
            .map(|(s, r)| {
                let o = &r.plain.outcome;
                let claimed: f64 = [
                    "cpu.compute_cycles",
                    "cpu.fault_stall_cycles",
                    "cpu.call_stall_cycles",
                    "cpu.miss_stall_cycles",
                    "cpu.barrier_wait_cycles",
                    "cpu.idle_cycles",
                ]
                .iter()
                .map(|n| o.count(n))
                .sum();
                node_cycles(s, &r.plain) - claimed
            })
            .sum();
        out.push(
            format!("{}.cpu.unattributed_cycles", system.name()),
            unattributed,
            "cycles",
        );
    }
    out.0
}

/// The benchmark's result line: one JSON object.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
