//! One-call runners for KV serving experiments.
//!
//! The machine's protocol factory has a fixed shape —
//! `(NodeId, &Layout, &SystemConfig) -> Box<dyn Protocol>` — but KV
//! protocols additionally need the key layout and the shared latency
//! collector. [`run_kv`] owns that plumbing: it builds the collector and
//! the workload, adapts a KV-aware factory to the machine's shape, runs,
//! and harvests the merged histograms after the machine (and with it
//! every node's `LatSink`) is dropped.
//!
//! The update-variant protocol lives upstack in `tt-apps` (it is an
//! application-level custom protocol, exactly like the paper's EM3D
//! update protocol), so this module only hardwires the stache variant
//! and takes a factory for anything else.

use tt_base::stats::Report;
use tt_base::workload::{Layout, Workload};
use tt_base::{Cycles, NodeId, SystemConfig};
use tt_stache::Reliable;
use tt_tempest::Protocol;
use tt_typhoon::TyphoonMachine;

use crate::lat::{KvLatency, SharedKvLatency};
use crate::layout::KvLayout;
use crate::protocol::KvStacheProtocol;
use crate::workload::{KvParams, KvWorkload};

/// A protocol factory that also receives the KV layout and collector.
pub type KvProtocolFactory<'a> =
    &'a dyn Fn(NodeId, &Layout, &SystemConfig, &KvLayout, SharedKvLatency) -> Box<dyn Protocol>;

/// What one KV run produced.
#[derive(Clone, Debug)]
pub struct KvOutcome {
    /// Total simulated cycles.
    pub cycles: Cycles,
    /// Machine + protocol statistics.
    pub report: Report,
    /// Merged request-latency histograms (all nodes).
    pub lat: KvLatency,
}

impl KvOutcome {
    /// Requests served per thousand simulated cycles (all nodes).
    pub fn requests_per_kcycle(&self) -> f64 {
        self.lat.requests() as f64 * 1000.0 / self.cycles.raw() as f64
    }
}

/// Runs the workload of `params` on a Typhoon machine whose protocols
/// come from `factory`. `cfg.nodes` must equal `params.nodes`.
///
/// When `cfg.fault` carries a lossy-network schedule, every node's
/// protocol runs behind the [`Reliable`] transport (seq/ack/retransmit,
/// duplicate suppression), so the server survives drops, duplicates,
/// detected corruption, and transient partitions; the retry traffic
/// shows up in the report as `rel.*` counters. With `cfg.fault = None`
/// nothing is wrapped and the run is bit-identical to builds before the
/// fault machinery existed.
pub fn run_kv(cfg: &SystemConfig, params: &KvParams, factory: KvProtocolFactory) -> KvOutcome {
    assert_eq!(cfg.nodes, params.nodes, "machine and workload sizes differ");
    let shared: SharedKvLatency = Default::default();
    let kv = params.kv_layout();
    let workload: Box<dyn Workload> = Box::new(KvWorkload::new(params.clone()));
    let adapt = |node: NodeId, layout: &Layout, cfg: &SystemConfig| {
        let inner = factory(node, layout, cfg, &kv, shared.clone());
        if cfg.fault.is_some() {
            Box::new(Reliable::new(inner)) as Box<dyn Protocol>
        } else {
            inner
        }
    };
    let mut machine = TyphoonMachine::new(cfg.clone(), workload, &adapt);
    let result = machine.run();
    drop(machine); // every node's LatSink folds into `shared` here
    let lat = std::mem::take(&mut *shared.lock().expect("latency collector poisoned"));
    KvOutcome { cycles: result.cycles, report: result.report, lat }
}

/// [`run_kv`] with the baseline stache-variant protocol.
pub fn run_kv_stache(cfg: &SystemConfig, params: &KvParams) -> KvOutcome {
    run_kv(cfg, params, &|node, layout, cfg, _kv, shared| {
        Box::new(KvStacheProtocol::new(node, layout, cfg, shared))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::KvVariant;

    #[test]
    fn stache_serving_runs_and_counts_every_request() {
        let params = KvParams::small(KvVariant::Stache);
        let cfg = SystemConfig::test_config(params.nodes);
        let out = run_kv_stache(&cfg, &params);
        assert_eq!(
            out.lat.requests(),
            params.requests_per_node * params.nodes as u64,
            "every request must be stamped exactly once"
        );
        assert_eq!(
            out.report.get("kv.gets").unwrap() as u64 + out.report.get("kv.puts").unwrap() as u64,
            out.lat.requests(),
            "report counters agree with the merged histograms"
        );
        assert!(out.lat.get.quantile(0.99) >= out.lat.get.quantile(0.50));
        assert!(out.cycles.raw() > 0);
    }

    #[test]
    fn lossy_serving_completes() {
        let params = KvParams::small(KvVariant::Stache);
        let mut cfg = SystemConfig::test_config(params.nodes);
        cfg.fault = Some(tt_base::FaultSpec::uniform(7, 30));
        let out = run_kv_stache(&cfg, &params);
        assert_eq!(
            out.lat.requests(),
            params.requests_per_node * params.nodes as u64,
            "every request must complete despite the lossy network"
        );
        assert!(
            out.report.get("rel.sent").unwrap_or(0.0) > 0.0,
            "the reliable transport must be in the path"
        );
    }
}
