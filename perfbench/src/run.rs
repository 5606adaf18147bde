//! Runs one simulation through the machines' public entry points and
//! times the spans around each call.
//!
//! The spans are workload build (`apps.build_s`), machine construction
//! (`*.new_s`), the simulation (`*.run_s`) and machine drop
//! (`*.teardown_s`; for KV runs the drop is where every node's latency
//! sink merges, so it is reported as `serve.harvest_s`).

use std::time::Instant;

use tt_apps::KvUpdateProtocol;
use tt_base::alloc_stats;
use tt_base::stats::{PdesTelemetry, Report};
use tt_base::workload::Layout;
use tt_base::{Cycles, NodeId, SystemConfig};
use tt_dirnnb::DirnnbMachine;
use tt_serve::{KvLatency, KvParams, KvStacheProtocol, KvVariant, SharedKvLatency};
use tt_stache::{Reliable, StacheProtocol};
use tt_tempest::Protocol;
use tt_typhoon::{Event, TyphoonMachine};

use crate::workloads::{Job, Sim, System};

/// Typhoon event kinds the traced run attributes host time to, in the
/// order of [`EventProfile`]'s arrays.
pub const EVENT_KINDS: [&str; 6] = [
    "cpu_step",
    "np_dispatch",
    "np_work",
    "deliver",
    "barrier",
    "bulk",
];

fn event_kind(event: &Event) -> usize {
    match event {
        Event::CpuStep(_) => 0,
        Event::NpDispatch(_) => 1,
        Event::NpWork { .. } => 2,
        Event::Deliver(_) => 3,
        Event::BarrierRelease { .. } => 4,
        Event::BulkInject { .. } => 5,
    }
}

/// Host time per Typhoon event kind, from `run_observed`. The time
/// between two callbacks is charged to the event handled in between; the
/// queue pop therefore folds into the event it returned.
#[derive(Clone, Copy, Debug, Default)]
pub struct EventProfile {
    /// Events handled, per kind.
    pub count: [u64; 6],
    /// Host seconds, per kind.
    pub self_s: [f64; 6],
}

impl EventProfile {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &EventProfile) {
        for k in 0..EVENT_KINDS.len() {
            self.count[k] += other.count[k];
            self.self_s[k] += other.self_s[k];
        }
    }
}

/// How to drive the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `run()` with the simulation's own configuration.
    Plain,
    /// `run()` forced onto the sequential simulator (`sim_threads = 1`).
    Sequential,
    /// Typhoon's `run_observed`, profiling host time per event kind.
    /// DirNNB has no observed run, so it falls back to `Plain`.
    Observed,
}

/// The simulated result of one run: everything a simulator-only change
/// must leave identical.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Simulated execution time.
    pub cycles: Cycles,
    /// Machine and protocol statistics.
    pub report: Report,
    /// Merged KV request latencies (KV jobs only).
    pub lat: Option<KvLatency>,
}

impl Outcome {
    /// FNV-1a digest of cycles, the full report and the KV histograms.
    pub fn digest(&self) -> u64 {
        let text = format!("{:?}|{:?}|{:?}", self.cycles, self.report, self.lat);
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// A report counter, 0 when the machine does not report it.
    pub fn count(&self, name: &str) -> f64 {
        self.report.get(name).unwrap_or(0.0)
    }
}

/// Host seconds of each span around the public calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct Spans {
    /// Building the simulated program.
    pub build: f64,
    /// Machine construction.
    pub new: f64,
    /// The simulation itself.
    pub run: f64,
    /// Dropping the machine (and, for KV, harvesting its latencies).
    pub teardown: f64,
}

impl Spans {
    /// Set-up share: workload build plus machine construction.
    pub fn setup(&self) -> f64 {
        self.build + self.new
    }

    /// All spans.
    pub fn total(&self) -> f64 {
        self.build + self.new + self.run + self.teardown
    }
}

/// One measured simulation.
#[derive(Clone, Debug)]
pub struct Measured {
    /// Simulated result.
    pub outcome: Outcome,
    /// Parallel-simulator telemetry (`None` on the sequential path).
    pub pdes: Option<PdesTelemetry>,
    /// Host spans.
    pub spans: Spans,
    /// Heap high-water mark from build to teardown, in bytes.
    pub peak_bytes: u64,
    /// Heap allocations made while the simulation ran.
    pub run_allocs: u64,
    /// Per-event host profile (observed Typhoon runs only).
    pub events: Option<EventProfile>,
}

/// Marks span boundaries.
struct Lap(Instant);

impl Lap {
    /// Seconds since the previous mark.
    fn next(&mut self) -> f64 {
        let now = Instant::now();
        let secs = now.duration_since(self.0).as_secs_f64();
        self.0 = now;
        secs
    }
}

/// Runs `sim` in `mode`. Panics if the simulation does (the caller
/// counts that as a failed simulation).
pub fn run_sim(sim: &Sim, mode: Mode) -> Measured {
    let mut cfg = sim.cfg.clone();
    if mode == Mode::Sequential {
        cfg.sim_threads = 1;
    }
    alloc_stats::reset_peak();
    let mut lap = Lap(Instant::now());
    let workload = sim.job.build(cfg.nodes);
    let mut spans = Spans {
        build: lap.next(),
        ..Spans::default()
    };
    let allocs_before;
    let (result, lat, events) = match (&sim.job, sim.system) {
        (Job::App { .. }, System::Dirnnb) => {
            let mut machine = DirnnbMachine::new(cfg, workload);
            spans.new = lap.next();
            allocs_before = alloc_stats::alloc_count();
            let r = machine.run();
            spans.run = lap.next();
            drop(machine);
            ((r.cycles, r.report, r.pdes), None, None)
        }
        (Job::App { .. }, System::Typhoon) => {
            let stache = |node: NodeId, layout: &Layout, cfg: &SystemConfig| -> Box<dyn Protocol> {
                Box::new(StacheProtocol::new(node, layout, cfg))
            };
            let mut machine = TyphoonMachine::new(cfg, workload, &stache);
            spans.new = lap.next();
            allocs_before = alloc_stats::alloc_count();
            let (r, events) = run_typhoon(&mut machine, mode);
            spans.run = lap.next();
            drop(machine);
            ((r.cycles, r.report, r.pdes), None, events)
        }
        (Job::Kv(params), _) => {
            let shared = SharedKvLatency::default();
            let factory = kv_factory(params, &shared);
            let mut machine = TyphoonMachine::new(cfg, workload, &factory);
            spans.new = lap.next();
            allocs_before = alloc_stats::alloc_count();
            let (r, events) = run_typhoon(&mut machine, mode);
            spans.run = lap.next();
            drop(machine); // every node's latency sink merges into `shared` here
            let lat = std::mem::take(&mut *shared.lock().expect("latency collector poisoned"));
            ((r.cycles, r.report, r.pdes), Some(lat), events)
        }
    };
    let run_allocs = alloc_stats::alloc_count() - allocs_before;
    spans.teardown = lap.next();
    let (cycles, report, pdes) = result;
    Measured {
        outcome: Outcome {
            cycles,
            report,
            lat,
        },
        pdes,
        spans,
        peak_bytes: alloc_stats::peak_bytes(),
        run_allocs,
        events,
    }
}

/// The protocol factory `tt_serve::run_kv` builds for the variant in
/// `params`, with the same `Reliable` wrapping on lossy networks. The
/// benchmark assembles it itself so it can time the machine's
/// construction, run and drop separately.
fn kv_factory<'a>(
    params: &'a KvParams,
    shared: &'a SharedKvLatency,
) -> impl Fn(NodeId, &Layout, &SystemConfig) -> Box<dyn Protocol> + 'a {
    let kv = params.kv_layout();
    move |node, layout, cfg| {
        let inner: Box<dyn Protocol> = match params.variant {
            KvVariant::Stache => Box::new(KvStacheProtocol::new(node, layout, cfg, shared.clone())),
            KvVariant::Update => Box::new(KvUpdateProtocol::new(
                node,
                layout,
                cfg,
                kv.clone(),
                shared.clone(),
            )),
        };
        if cfg.fault.is_some() {
            Box::new(Reliable::new(inner))
        } else {
            inner
        }
    }
}

fn run_typhoon(
    machine: &mut TyphoonMachine,
    mode: Mode,
) -> (tt_typhoon::RunResult, Option<EventProfile>) {
    if mode != Mode::Observed {
        return (machine.run(), None);
    }
    let mut profile = EventProfile::default();
    let mut last = Instant::now();
    let result = machine.run_observed(&mut |_, event, _| {
        let now = Instant::now();
        let kind = event_kind(event);
        profile.count[kind] += 1;
        profile.self_s[kind] += now.duration_since(last).as_secs_f64();
        last = now;
    });
    (result, Some(profile))
}
