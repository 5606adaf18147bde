//! The open-loop Zipfian client population.
//!
//! Each node fronts a slice of a large logical client population. The
//! population is *open-loop*: request arrival times follow a Poisson
//! process fixed up front by the seed, independent of how long the
//! server takes — a slow request does not slow the arrival of the next
//! one, it just queues behind it, and the queueing delay lands in the
//! measured latency (the standard serving-systems methodology; closed
//! loops hide overload by throttling the generator, a mistake this
//! module is built to avoid).
//!
//! Keys are drawn from a Zipf(`skew`) distribution over `0..keys`; a
//! coin with probability `write_pct`/100 picks put vs get. Every stream
//! is generated from a per-node fork of the run seed, so the order in
//! which nodes pull their chunks cannot perturb the programs.
//!
//! Each request compiles to ops:
//!
//! - `WaitUntil(arrival)` — realize the scheduled arrival;
//! - `Compute(think)` — request parsing / hash lookup;
//! - get: tag-checked `Read`s of the slot's header and value words;
//! - put (stache variant): tag-checked `Write`s of the slot words —
//!   plain shared-memory stores, Stache does the rest;
//! - put (update variant): `Write`s into the node's local staging page
//!   followed by `UserCall(KV_PUT_OP, key)`, which publishes the staged
//!   value through the write-update protocol;
//! - `UserCall(KV_STAMP_OP, arrival << 1 | is_put)` — latency stamp.

use tt_base::addr::WORD_BYTES;
use tt_base::workload::{Layout, Op, Workload};
use tt_base::{DetRng, NodeId, Zipf};

use crate::layout::{header_word, value_word, KvLayout, KV_PUT_OP, KV_STAMP_OP};

/// Which server variant the generated programs target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvVariant {
    /// Plain transparent shared memory: puts are ordinary stores into
    /// the slot; Stache's invalidation protocol propagates them.
    Stache,
    /// The hot-key write-update protocol: puts stage locally and
    /// publish via `KV_PUT_OP`.
    Update,
}

impl KvVariant {
    /// Short name for tables and reports.
    pub fn name(self) -> &'static str {
        match self {
            KvVariant::Stache => "kv-stache",
            KvVariant::Update => "kv-update",
        }
    }
}

/// Full parameter set for one KV serving run.
#[derive(Clone, Debug)]
pub struct KvParams {
    /// Machine size.
    pub nodes: usize,
    /// Key-space size.
    pub keys: u64,
    /// Zipf skew `s` (0 = uniform; 1+ = heavily skewed).
    pub skew: f64,
    /// Percentage of requests that are puts (5 = read-mostly 95/5,
    /// 50 = write-heavy 50/50).
    pub write_pct: u32,
    /// Requests each node serves.
    pub requests_per_node: u64,
    /// Mean cycles between request arrivals at one node (exponential).
    pub mean_interarrival: f64,
    /// Value size in 64-bit words.
    pub value_words: usize,
    /// Per-request compute cycles (parse + hash).
    pub think: u32,
    /// Workload seed (independent of the machine seed).
    pub seed: u64,
    /// Which server variant the programs drive.
    pub variant: KvVariant,
}

impl KvParams {
    /// A small default point, used by tests and as the CLI baseline.
    pub fn small(variant: KvVariant) -> Self {
        KvParams {
            nodes: 4,
            keys: 256,
            skew: 0.9,
            write_pct: 5,
            requests_per_node: 200,
            mean_interarrival: 150.0,
            value_words: 3,
            think: 10,
            seed: 0x5e7e,
            variant,
        }
    }

    /// The layout these parameters imply.
    pub fn kv_layout(&self) -> KvLayout {
        KvLayout::new(self.keys, self.value_words, self.nodes)
    }
}

/// Requests generated per `next_chunk` call.
const CHUNK_REQUESTS: u64 = 64;

struct NodeGen {
    rng: DetRng,
    /// Next request's scheduled arrival (absolute cycle).
    arrival: u64,
    /// Requests generated so far.
    issued: u64,
    /// Per-node put sequence number (feeds the header word).
    seq: u64,
}

/// The open-loop client workload (implements [`Workload`]).
pub struct KvWorkload {
    params: KvParams,
    kv: KvLayout,
    zipf: Zipf,
    gens: Vec<NodeGen>,
}

impl KvWorkload {
    /// Builds the workload; all randomness derives from `params.seed`.
    pub fn new(params: KvParams) -> Self {
        let kv = params.kv_layout();
        let zipf = Zipf::new(params.keys, params.skew);
        let root = DetRng::new(params.seed);
        let gens = (0..params.nodes)
            .map(|n| NodeGen {
                rng: root.clone().fork(n as u64 + 1),
                arrival: 0,
                issued: 0,
                seq: 0,
            })
            .collect();
        KvWorkload { params, kv, zipf, gens }
    }

    fn push_request(&mut self, cpu: NodeId, ops: &mut Vec<Op>) {
        let p = &self.params;
        let g = &mut self.gens[cpu.raw() as usize];
        // Exponential interarrival, floored at one cycle.
        let u = g.rng.unit_f64();
        let gap = (-(1.0 - u).ln() * p.mean_interarrival).ceil().max(1.0) as u64;
        g.arrival += gap;
        let key = self.zipf.sample(&mut g.rng);
        let is_put = g.rng.below(100) < p.write_pct as u64;
        ops.push(Op::WaitUntil { until: g.arrival });
        ops.push(Op::Compute(p.think));
        if is_put {
            g.seq += 1;
            let hdr = header_word(cpu, g.seq, p.value_words);
            let words: Vec<u64> = std::iter::once(hdr)
                .chain((0..p.value_words).map(|i| value_word(key, hdr, i)))
                .collect();
            match p.variant {
                KvVariant::Stache => {
                    for (w, &v) in words.iter().enumerate() {
                        ops.push(Op::Write { addr: self.kv.word_addr(key, w), value: v });
                    }
                }
                KvVariant::Update => {
                    let base = self.kv.staging_addr(cpu);
                    for (w, &v) in words.iter().enumerate() {
                        ops.push(Op::Write {
                            addr: base.offset((w * WORD_BYTES) as u64),
                            value: v,
                        });
                    }
                    ops.push(Op::UserCall { op: KV_PUT_OP, arg: key });
                }
            }
        } else {
            // Concurrent writers make the loaded values unpredictable;
            // `expect: None` reads still exercise the full coherence
            // path and the machine's tag checks.
            for w in 0..self.kv.slot_words() {
                ops.push(Op::Read { addr: self.kv.word_addr(key, w), expect: None });
            }
        }
        ops.push(Op::UserCall { op: KV_STAMP_OP, arg: g.arrival << 1 | is_put as u64 });
        g.issued += 1;
    }
}

impl Workload for KvWorkload {
    fn layout(&self) -> Layout {
        self.kv.layout()
    }

    fn next_chunk(&mut self, cpu: NodeId) -> Option<Vec<Op>> {
        let total = self.params.requests_per_node;
        let issued = self.gens[cpu.raw() as usize].issued;
        if issued >= total {
            return None;
        }
        let batch = CHUNK_REQUESTS.min(total - issued);
        let mut ops = Vec::with_capacity(batch as usize * (6 + 2 * self.kv.slot_words()));
        for _ in 0..batch {
            self.push_request(cpu, &mut ops);
        }
        Some(ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut KvWorkload, cpu: NodeId) -> Vec<Op> {
        let mut all = Vec::new();
        while let Some(chunk) = w.next_chunk(cpu) {
            all.extend(chunk);
        }
        all
    }

    #[test]
    fn streams_are_pull_order_independent() {
        let params = KvParams::small(KvVariant::Stache);
        let mut a = KvWorkload::new(params.clone());
        let mut b = KvWorkload::new(params);
        // a: node 0 fully, then node 1; b: interleaved.
        let a0 = drain(&mut a, NodeId::new(0));
        let a1 = drain(&mut a, NodeId::new(1));
        let mut b0 = Vec::new();
        let mut b1 = Vec::new();
        loop {
            let c1 = b.next_chunk(NodeId::new(1));
            let c0 = b.next_chunk(NodeId::new(0));
            if let Some(c) = &c1 {
                b1.extend(c.iter().copied());
            }
            if let Some(c) = &c0 {
                b0.extend(c.iter().copied());
            }
            if c0.is_none() && c1.is_none() {
                break;
            }
        }
        assert_eq!(a0, b0);
        assert_eq!(a1, b1);
    }

    #[test]
    fn variants_differ_only_in_put_compilation() {
        let mut s = KvParams::small(KvVariant::Stache);
        s.write_pct = 50;
        let mut u = s.clone();
        u.variant = KvVariant::Update;
        let sv = drain(&mut KvWorkload::new(s), NodeId::new(2));
        let uv = drain(&mut KvWorkload::new(u), NodeId::new(2));
        // Same request count (same number of stamps)...
        let stamps = |ops: &[Op]| {
            ops.iter()
                .filter(|o| matches!(o, Op::UserCall { op, .. } if *op == KV_STAMP_OP))
                .count()
        };
        assert_eq!(stamps(&sv), 200);
        assert_eq!(stamps(&uv), 200);
        // ...same arrivals and key choices (identical rng draws).
        let waits = |ops: &[Op]| -> Vec<u64> {
            ops.iter()
                .filter_map(|o| match o {
                    Op::WaitUntil { until } => Some(*until),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(waits(&sv), waits(&uv));
        // The update variant publishes each put with a KV_PUT_OP call.
        let puts = |ops: &[Op]| {
            ops.iter().filter(|o| matches!(o, Op::UserCall { op, .. } if *op == KV_PUT_OP)).count()
        };
        assert_eq!(puts(&sv), 0);
        assert!(puts(&uv) > 0);
    }

    #[test]
    fn read_mostly_mix_is_mostly_reads() {
        let params = KvParams::small(KvVariant::Stache);
        let ops = drain(&mut KvWorkload::new(params), NodeId::new(0));
        let stamps: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o {
                Op::UserCall { op, arg } if *op == KV_STAMP_OP => Some(*arg),
                _ => None,
            })
            .collect();
        let puts = stamps.iter().filter(|&&s| s & 1 == 1).count();
        assert_eq!(stamps.len(), 200);
        assert!(puts <= 30, "95/5 mix produced {puts} puts of 200");
    }
}
