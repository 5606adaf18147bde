//! Point-to-point interconnect model.
//!
//! Typhoon's network (Section 5) is based on the Thinking Machines CM-5
//! network, with a larger maximum packet payload (twenty 32-bit words) and
//! **two independent virtual networks** so that a pure request/response
//! protocol is deadlock-free: requests travel on the low-priority net and
//! responses on the high-priority net, and response handlers can never be
//! starved by request handlers.
//!
//! Following the paper's methodology, the default model charges a constant
//! network latency (Table 2: 11 cycles) and does not model contention.
//! Big-machine mode (DESIGN.md §11) replaces the constant pipe with a
//! routed 2-D mesh ([`Topology::Mesh2D`]): each packet traverses a
//! deterministic dimension-order route, and every link keeps a
//! `next_free` occupancy cycle that serializes packets by wire size —
//! so hot-home saturation shows up as queuing delay. Routes and queuing
//! depend only on the sending node's own traffic: each source keeps its
//! own link queues, in dense slabs indexed by the node each hop enters
//! (see `MeshLinks`).
//!
//! The network is a *passive* component and times packet *headers*:
//! [`Network::transmit`], the one send path of both machines, takes a
//! packet's source, destination and wire size, records statistics, and
//! returns the delivery times. The owning machine carries whatever the
//! packet holds in its own delivery events.

use tt_base::addr::BLOCK_BYTES;
use tt_base::stats::Counter;
use tt_base::{mix64, Cycles, FaultSpec, NodeId, Topology, PARTITION_RUN};

/// The two independent virtual networks (Section 5.1).
///
/// The scheduler gives [`VirtualNet::Request`] lower priority, so request
/// handlers cannot starve response handlers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VirtualNet {
    /// Low-priority net carrying protocol requests.
    Request,
    /// High-priority net carrying protocol responses.
    Response,
}

/// Maximum packet payload in bytes: twenty 32-bit words (Section 5),
/// vs. the CM-5's five.
pub(crate) const MAX_PACKET_BYTES: usize = 80;

/// Bytes charged for the handler word at the head of every message.
pub const HANDLER_WORD_BYTES: usize = 4;

/// Bytes charged per 64-bit argument word.
pub const ARG_WORD_BYTES: usize = 8;

/// Maximum argument words a payload can carry inline. Nine words plus the
/// handler word fills the 80-byte packet; a payload that also carries a
/// coherence block fits the packet with at most five.
pub(crate) const MAX_ARG_WORDS: usize = 9;

/// A message payload: argument words plus at most one coherence block.
///
/// By Active Messages convention the *receiver's handler* is named
/// separately (see `tt-tempest`); the payload here is everything after the
/// handler word. Protocols move data one 32-byte block per message, so
/// the data carrier is either empty or exactly one block.
///
/// The representation is fully inline — fixed arrays, a word count and
/// a block flag — so constructing, cloning, and queuing a payload never
/// touches the heap (the microbench in `tt-bench` counts allocations per
/// message). Inactive words and an absent block are always zero, so the
/// derived `Eq`/`Ord`/`Hash` agree with logical equality of the active
/// parts.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Payload {
    nwords: u8,
    has_block: bool,
    words: [u64; MAX_ARG_WORDS],
    block: [u8; BLOCK_BYTES],
}

impl Payload {
    /// An empty payload.
    pub fn new() -> Self {
        Payload::default()
    }

    /// A payload of argument words only.
    ///
    /// # Panics
    ///
    /// Panics if `words` exceeds `MAX_ARG_WORDS`.
    pub fn args(words: &[u64]) -> Self {
        assert!(
            words.len() <= MAX_ARG_WORDS,
            "payload of {} argument words exceeds the {}-word maximum",
            words.len(),
            MAX_ARG_WORDS
        );
        let mut p = Payload::default();
        p.words[..words.len()].copy_from_slice(words);
        p.nwords = words.len() as u8;
        p
    }

    /// A payload of argument words plus one coherence block of data.
    ///
    /// # Panics
    ///
    /// Panics if `words` exceeds `MAX_ARG_WORDS`.
    pub fn with_block(words: &[u64], block: [u8; BLOCK_BYTES]) -> Self {
        let mut p = Payload::args(words);
        p.has_block = true;
        p.block = block;
        p
    }

    /// The active argument words.
    pub fn words(&self) -> &[u64] {
        &self.words[..self.nwords as usize]
    }

    /// The data carrier's bytes: the block, or nothing.
    pub fn data(&self) -> &[u8] {
        if self.has_block {
            &self.block
        } else {
            &[]
        }
    }

    /// Appends one argument word (the reliable transport's sequence word).
    ///
    /// # Panics
    ///
    /// Panics if the payload already carries `MAX_ARG_WORDS` words.
    pub fn push_word(&mut self, w: u64) {
        assert!(
            (self.nwords as usize) < MAX_ARG_WORDS,
            "payload exceeds the {MAX_ARG_WORDS}-word maximum"
        );
        self.words[self.nwords as usize] = w;
        self.nwords += 1;
    }

    /// Removes and returns the last argument word (the receive side of
    /// [`Payload::push_word`]), or `None` if there are no words.
    pub fn pop_word(&mut self) -> Option<u64> {
        if self.nwords == 0 {
            return None;
        }
        self.nwords -= 1;
        let w = self.words[self.nwords as usize];
        // Keep inactive tail bytes zero so derived equality stays logical.
        self.words[self.nwords as usize] = 0;
        Some(w)
    }

    /// Total wire size in bytes, including the handler word.
    pub fn wire_bytes(&self) -> usize {
        HANDLER_WORD_BYTES + ARG_WORD_BYTES * self.nwords as usize + self.data().len()
    }

    /// The coherence block the payload carries.
    ///
    /// # Panics
    ///
    /// Panics if the payload carries no block.
    pub fn block(&self) -> [u8; BLOCK_BYTES] {
        assert!(self.has_block, "payload does not carry a block");
        self.block
    }
}

/// Wire traffic statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Packets that crossed the wire.
    packets: Counter,
    /// Bytes that crossed the wire.
    bytes: Counter,
    /// Packets a node sent to itself (short-circuited, never on the wire).
    pub local_packets: Counter,
}

impl NetStats {
    /// Total packets that crossed the wire.
    pub fn total_packets(&self) -> u64 {
        self.packets.get()
    }

    /// Total bytes that crossed the wire.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.get()
    }
}

/// Cycles one hop takes through the mesh: a switch traversal
/// plus the wire. The minimum cross-node delivery is one hop.
pub const HOP_LATENCY: u64 = 3;

/// Per-source link occupancy of a routed mesh (DESIGN.md §11): the
/// earliest free cycle of every `(source node, link)` pair.
///
/// The X-then-Y routes from one source form a spanning tree of the
/// mesh, so the node a hop enters names that hop's link for that
/// source. The queues are therefore stored by downstream node: a
/// source's X hops all run along its own row, in one *row slab* indexed
/// by the downstream column, and its Y hops run down the destination's
/// column, in one *column slab* per destination column indexed by the
/// downstream row. A slab is allocated the first time its source routes
/// over it, so a source pays only for the columns it sends down.
#[derive(Clone, Debug)]
struct MeshLinks {
    width: usize,
    /// Rows, counting a partial last row.
    height: usize,
    /// Source `s`'s slabs at `s * (1 + width) ..`: its row slab, then
    /// one column slab per destination column; `None` until first use.
    slabs: Vec<Option<Box<[Cycles]>>>,
}

impl MeshLinks {
    fn new(nodes: usize, width: usize) -> Self {
        MeshLinks { width, height: nodes.div_ceil(width), slabs: vec![None; nodes * (1 + width)] }
    }

    /// Source `src`'s slab `k` (0 = its row, `1 + c` = column `c`),
    /// allocated zeroed with `len` slots on first use.
    fn slab(&mut self, src: usize, k: usize, len: usize) -> &mut [Cycles] {
        self.slabs[src * (1 + self.width) + k]
            .get_or_insert_with(|| vec![Cycles::ZERO; len].into_boxed_slice())
    }

    /// Routes one wire packet and returns its arrival time: each link of
    /// the route delays the head by [`HOP_LATENCY`] and is then busy for
    /// the packet's serialization time (`wire bytes / 8`), so later
    /// packets from the same source queue behind it.
    fn route_deliver(&mut self, now: Cycles, src: usize, dst: usize, wire: usize) -> Cycles {
        let ser = Cycles::new(wire.div_ceil(ARG_WORD_BYTES).max(1) as u64);
        let mut cursor = now;
        self.for_each_hop(src, dst, |free| {
            let start = cursor.max(*free);
            *free = start + ser;
            cursor = start + Cycles::new(HOP_LATENCY);
        });
        cursor
    }

    /// Visits the occupancy slot of every directed link of the
    /// dimension-order (X then Y) route `src -> dst`, in traversal
    /// order.
    fn for_each_hop(&mut self, src: usize, dst: usize, mut f: impl FnMut(&mut Cycles)) {
        let (width, height) = (self.width, self.height);
        let (sx, sy) = (src % width, src / width);
        let (tx, ty) = (dst % width, dst / width);
        if sx != tx {
            let row = self.slab(src, 0, width);
            downstream(sx, tx, |x| f(&mut row[x]));
        }
        if sy != ty {
            let column = self.slab(src, 1 + tx, height);
            downstream(sy, ty, |y| f(&mut column[y]));
        }
    }
}

/// Visits the coordinates a straight route from `from` to `to` enters,
/// in order: every one strictly after `from`, up to and including `to`.
fn downstream(from: usize, to: usize, mut f: impl FnMut(usize)) {
    if to > from {
        (from + 1..=to).for_each(&mut f);
    } else {
        (to..from).rev().for_each(&mut f);
    }
}

/// The interconnect: latency model plus traffic accounting.
///
/// # Example
///
/// ```
/// use tt_net::{Network, Payload};
/// use tt_base::{Cycles, NodeId};
///
/// let mut net = Network::new(4, Cycles::new(11));
/// let wire = Payload::args(&[0x1000]).wire_bytes();
/// let deliveries = net.transmit(Cycles::new(100), NodeId::new(0), NodeId::new(2), wire);
/// let arrivals: Vec<Cycles> = deliveries.iter().collect();
/// assert_eq!(arrivals, [Cycles::new(111)]);
/// ```
#[derive(Clone, Debug)]
pub struct Network {
    latency: Cycles,
    /// Machine size (sizes the per-pair jitter and fault state).
    nodes: usize,
    /// Link queues of the routed mesh (`None` = the ideal
    /// constant-latency pipe). The queue state is per *source*: a
    /// source's packets queue behind its own earlier traffic on every
    /// link of their route, never behind another source's (cross-source
    /// contention is approximated away — DESIGN.md §11 discusses the
    /// trade).
    link_free: Option<MeshLinks>,
    stats: NetStats,
    /// Seeded per-packet latency jitter (`None` = the paper's constant
    /// latency). A legal-nondeterminism knob for the `tt-check` fuzzer.
    jitter: Option<Jitter>,
    /// Seeded lossy-network fault schedule (`None` = the paper's
    /// reliable interconnect). Applied only by [`Network::transmit`].
    faults: Option<FaultPlan>,
}

/// State for seeded latency jitter (see [`Network::set_jitter`]).
///
/// The extra delay for a packet is a pure hash of `(seed, src, dst,
/// per-pair packet index)` rather than a draw from an RNG *stream*, so a
/// packet's jitter depends only on its own pair's traffic, never on how
/// sends from other nodes interleave with it.
#[derive(Clone, Debug)]
struct Jitter {
    seed: u64,
    max_extra: Cycles,
    /// Latest delivery time handed out for each ordered `(src, dst)`
    /// pair (`src * nodes + dst`): jitter may stretch latencies but must
    /// never reorder traffic between the same two nodes, which the
    /// protocols are entitled to assume (e.g. an INV racing past an
    /// earlier PUT_RO to the same sharer would clobber its Busy tag).
    pair_last: Vec<Cycles>,
    /// Wire packets sent so far per ordered `(src, dst)` pair.
    pair_sent: Vec<u64>,
    nodes: usize,
}

/// Delivery times [`Network::transmit`] produced for one logical send:
/// zero (dropped / corrupted / partitioned), one (the normal case), or
/// two (the fault plan duplicated the packet).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Deliveries {
    times: [Option<Cycles>; 2],
}

impl Deliveries {
    fn one(t: Cycles) -> Self {
        Deliveries { times: [Some(t), None] }
    }

    fn push(&mut self, t: Cycles) {
        if self.times[0].is_none() {
            self.times[0] = Some(t);
        } else {
            self.times[1] = Some(t);
        }
    }

    /// Iterates the arrival times in send order.
    pub fn iter(&self) -> impl Iterator<Item = Cycles> + '_ {
        self.times.iter().filter_map(|t| *t)
    }
}

/// Deterministic per-link fault schedule (see [`FaultSpec`]).
///
/// Like [`Jitter`], every decision is a pure hash of per-ordered-pair
/// state — never a draw from a shared RNG stream — so a link's fault
/// schedule depends only on its own traffic and replays exactly from
/// its seed.
#[derive(Clone, Debug)]
struct FaultPlan {
    spec: FaultSpec,
    /// Logical sends considered so far per ordered `(src, dst)` pair
    /// (the per-link fault decision index).
    pair_seen: Vec<u64>,
    nodes: usize,
}

/// Salt separating the independent per-packet fault decisions.
const SALT_DROP: u64 = 0xD0;
const SALT_DUP: u64 = 0xD1;
const SALT_CORRUPT: u64 = 0xC0;
const SALT_PARTITION: u64 = 0xBA;

impl FaultPlan {
    fn new(spec: FaultSpec, nodes: usize) -> Self {
        FaultPlan { spec, pair_seen: vec![0; nodes * nodes], nodes }
    }

    /// The decision hash for packet `n` on `pair` under `salt`.
    fn draw(&self, salt: u64, pair: usize, n: u64) -> u64 {
        mix64(mix64(mix64(self.spec.seed ^ salt) ^ pair as u64) ^ n)
    }

    /// Permille-threshold decision.
    fn hit(&self, salt: u64, pair: usize, n: u64, permille: u32) -> bool {
        permille > 0 && self.draw(salt, pair, n) % 1000 < permille as u64
    }

    /// Whether the ordered link is partitioned at sender time `now`.
    /// Partitions are decided per `(link, run)` and always clear before
    /// the run ends (see [`FaultSpec`]).
    fn partitioned(&self, pair: usize, now: Cycles) -> bool {
        let spec = &self.spec;
        if spec.partition_permille == 0 || spec.partition_epoch == 0 {
            return false;
        }
        let epoch = now.raw() / spec.partition_epoch;
        let run = epoch / PARTITION_RUN;
        let d = self.draw(SALT_PARTITION, pair, run);
        if d % 1000 >= spec.partition_permille as u64 {
            return false;
        }
        // Outage covers the first `len` epochs of the run, 1 ..= run-1.
        let len = 1 + mix64(d) % (PARTITION_RUN - 1);
        epoch % PARTITION_RUN < len
    }
}

impl Network {
    /// Creates a network with the given one-way latency for `nodes` nodes.
    pub fn new(nodes: usize, latency: Cycles) -> Self {
        Network {
            latency,
            nodes,
            link_free: None,
            stats: NetStats::default(),
            jitter: None,
            faults: None,
        }
    }

    /// Installs the interconnect topology (DESIGN.md §11).
    /// [`Topology::Ideal`] keeps the constant-latency pipe;
    /// [`Topology::Mesh2D`] routes every cross-node packet over per-link
    /// occupancy queues. A mesh width of 0 is resolved here against the
    /// node count to `ceil(sqrt(nodes))` columns; a width above the node
    /// count routes exactly like one row of `nodes` columns (the columns
    /// past the last node are never entered), so it is clamped to that
    /// and sizes no queue state for them.
    pub fn set_topology(&mut self, topology: Topology) {
        let width = match topology {
            Topology::Ideal => {
                self.link_free = None;
                return;
            }
            Topology::Mesh2D { width: 0 } => (self.nodes as f64).sqrt().ceil() as usize,
            Topology::Mesh2D { width } => width.min(self.nodes),
        };
        assert!(width != 0, "mesh width must be at least 1");
        self.link_free = Some(MeshLinks::new(self.nodes, width));
    }

    /// Turns on seeded latency jitter: every wire packet is delayed by a
    /// deterministic extra `0..=max_extra` cycles drawn from `seed`.
    /// Delivery between the same ordered node pair stays strictly FIFO
    /// (a jittered delivery is clamped past the pair's previous one), so
    /// only latencies change, never per-link message order. Self-sends
    /// never leave the node and are not jittered.
    pub fn set_jitter(&mut self, seed: u64, max_extra: Cycles) {
        let nodes = self.nodes;
        self.jitter = Some(Jitter {
            seed,
            max_extra,
            pair_last: vec![Cycles::ZERO; nodes * nodes],
            pair_sent: vec![0; nodes * nodes],
            nodes,
        });
    }

    /// Installs a deterministic lossy-network fault schedule.
    pub fn set_fault_plan(&mut self, spec: FaultSpec) {
        self.faults = Some(FaultPlan::new(spec, self.nodes));
    }

    /// Injects one cross-node wire packet: counts it, charges the ideal
    /// pipe's constant latency or the mesh route, and applies jitter if
    /// installed. Returns the arrival time.
    fn inject_wire(&mut self, now: Cycles, src: NodeId, dst: NodeId, wire_bytes: usize) -> Cycles {
        self.stats.packets.inc();
        self.stats.bytes.add(wire_bytes as u64);
        let base = match &mut self.link_free {
            Some(links) => links.route_deliver(now, src.index(), dst.index(), wire_bytes),
            None => now + self.latency,
        };
        let Some(j) = &mut self.jitter else {
            return base;
        };
        let pair = src.index() * j.nodes + dst.index();
        let draw = mix64(mix64(j.seed ^ pair as u64) ^ j.pair_sent[pair]);
        j.pair_sent[pair] += 1;
        let bound = j.max_extra.raw() + 1;
        let extra = Cycles::new(((draw as u128 * bound as u128) >> 64) as u64);
        let floor = j.pair_last[pair] + Cycles::new(1);
        let t = (base + extra).max(floor);
        j.pair_last[pair] = t;
        t
    }

    /// Accepts a `wire_bytes`-byte packet from `src` to `dst` at time
    /// `now` and returns the delivery times of every copy that will
    /// arrive — the one send path of both machines. Under the ideal
    /// topology a cross-node packet is charged the constant network
    /// latency; the mesh charges the route's hop count plus any per-link
    /// queuing. A node messaging itself short-circuits the network and
    /// is delivered after one cycle (Section 5.1), never jittered or
    /// faulted.
    ///
    /// An installed fault schedule then applies: a transient partition
    /// or a drop yields no copies, a corrupted copy fails the receiver's
    /// checksum and is discarded, and duplication yields a second copy.
    /// The sender cannot observe a fault, so every copy is injected and
    /// counted like any other wire packet, and delivery between an
    /// ordered node pair stays monotonic: per-link FIFO holds for the
    /// copies that do arrive. With no fault plan this is exactly one
    /// delivery.
    ///
    /// # Panics
    ///
    /// Panics if `wire_bytes` exceeds the 80-byte packet maximum (too
    /// many argument words alongside a block).
    #[inline]
    pub fn transmit(
        &mut self,
        now: Cycles,
        src: NodeId,
        dst: NodeId,
        wire_bytes: usize,
    ) -> Deliveries {
        assert!(
            wire_bytes <= MAX_PACKET_BYTES,
            "packet of {wire_bytes} bytes exceeds the {MAX_PACKET_BYTES}-byte maximum"
        );
        if src == dst {
            self.stats.local_packets.inc();
            return Deliveries::one(now + Cycles::new(1));
        }
        let t1 = self.inject_wire(now, src, dst, wire_bytes);
        if self.faults.is_none() {
            return Deliveries::one(t1);
        }
        self.apply_faults(now, src, dst, wire_bytes, t1)
    }

    /// The fault plan's verdict on a packet already injected at `now`
    /// and due at `t1`: which copies arrive, and when. Kept out of line
    /// so the fault-free path, which callers inline, stays as short as
    /// one injection.
    #[inline(never)]
    fn apply_faults(
        &mut self,
        now: Cycles,
        src: NodeId,
        dst: NodeId,
        wire_bytes: usize,
        t1: Cycles,
    ) -> Deliveries {
        let plan = self.faults.as_mut().expect("transmit checked for a fault plan");
        let pair = src.index() * plan.nodes + dst.index();
        let n = plan.pair_seen[pair];
        plan.pair_seen[pair] += 1;
        let spec = plan.spec;
        if plan.partitioned(pair, now) || plan.hit(SALT_DROP, pair, n, spec.drop_permille) {
            return Deliveries::default();
        }
        let duplicated = plan.hit(SALT_DUP, pair, n, spec.dup_permille);
        let corrupt1 = plan.hit(SALT_CORRUPT, pair, n, spec.corrupt_permille);
        let corrupt2 = duplicated && plan.hit(SALT_CORRUPT ^ 0xFF, pair, n, spec.corrupt_permille);
        let mut out = Deliveries::default();
        if !corrupt1 {
            out.push(t1);
        }
        if duplicated {
            // The duplicate is one more wire packet, injected at the
            // same instant; jitter's pair clamp keeps link order.
            let t2 = self.inject_wire(now, src, dst, wire_bytes);
            if !corrupt2 {
                out.push(t2.max(t1));
            }
        }
        out
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Wire sizes of a one-word request, a two-word request, a
    /// one-word block response, and the largest packet (5 words and a
    /// block, 76 of the 80 bytes).
    const SMALL: usize = HANDLER_WORD_BYTES + ARG_WORD_BYTES;
    const TWO_WORDS: usize = HANDLER_WORD_BYTES + 2 * ARG_WORD_BYTES;
    const BLOCK: usize = HANDLER_WORD_BYTES + ARG_WORD_BYTES + BLOCK_BYTES;
    const FULL: usize = HANDLER_WORD_BYTES + 5 * ARG_WORD_BYTES + BLOCK_BYTES;

    fn transmit(net: &mut Network, now: u64, src: u16, dst: u16, wire: usize) -> Vec<Cycles> {
        net.transmit(Cycles::new(now), NodeId::new(src), NodeId::new(dst), wire).iter().collect()
    }

    /// The one arrival of a send on a network without a fault plan.
    fn send(net: &mut Network, now: u64, src: u16, dst: u16, wire: usize) -> Cycles {
        let arrivals = transmit(net, now, src, dst, wire);
        assert_eq!(arrivals.len(), 1, "without a fault plan every send arrives once");
        arrivals[0]
    }

    #[test]
    fn constant_latency() {
        let mut net = Network::new(4, Cycles::new(11));
        assert_eq!(send(&mut net, 100, 0, 1, SMALL), Cycles::new(111));
        assert_eq!(net.stats().total_packets(), 1);
        assert_eq!(net.stats().total_bytes(), SMALL as u64);
    }

    #[test]
    fn self_send_short_circuits() {
        let mut net = Network::new(4, Cycles::new(11));
        assert_eq!(send(&mut net, 5, 2, 2, SMALL), Cycles::new(6));
        assert_eq!(net.stats().total_packets(), 0);
        assert_eq!(net.stats().total_bytes(), 0);
        assert_eq!(net.stats().local_packets.get(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_payload_panics_at_construction() {
        // 10 args exceed the 9-word inline capacity.
        let _ = Payload::args(&[0; 10]);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_packet_panics() {
        let mut net = Network::new(2, Cycles::new(11));
        // Constructible (6 words + a block) but 4 + 48 + 32 = 84B > 80B.
        let wire = Payload::with_block(&[0; 6], [0u8; BLOCK_BYTES]).wire_bytes();
        send(&mut net, 0, 0, 1, wire);
    }

    #[test]
    fn max_size_packet_is_accepted() {
        let mut net = Network::new(2, Cycles::new(11));
        // 4 + 5*8 + 32 = 76 <= 80
        let wire = Payload::with_block(&[0; 5], [7u8; BLOCK_BYTES]).wire_bytes();
        send(&mut net, 0, 0, 1, wire);
        assert_eq!(net.stats().total_bytes(), 76);
    }

    #[test]
    fn payload_accessors_and_push() {
        let mut p = Payload::args(&[9, 8]);
        assert_eq!(p.words(), &[9, 8]);
        assert_eq!(p.data(), &[] as &[u8]);
        p.push_word(7);
        assert_eq!(p.words(), &[9, 8, 7]);
        assert_eq!(p.wire_bytes(), HANDLER_WORD_BYTES + 3 * ARG_WORD_BYTES);
        let d = Payload::with_block(&[1], [3u8; BLOCK_BYTES]);
        assert_eq!(d.data(), &[3u8; BLOCK_BYTES]);
        assert_eq!(d.wire_bytes(), BLOCK);
        // Equality ignores inactive tail words by construction.
        let mut popped = Payload::args(&[5, 6]);
        assert_eq!(popped.pop_word(), Some(6));
        assert_eq!(popped, Payload::args(&[5]));
        assert_ne!(Payload::args(&[5]), Payload::args(&[5, 0]));
        // An all-zero block is still a block.
        assert_ne!(Payload::args(&[5]), Payload::with_block(&[5], [0u8; BLOCK_BYTES]));
    }

    #[test]
    fn mesh_routes_charge_hop_counts() {
        let mut net = Network::new(16, Cycles::new(11));
        net.set_topology(Topology::Mesh2D { width: 4 });
        // Node 0 = (0,0), node 5 = (1,1): 2 hops.
        assert_eq!(send(&mut net, 100, 0, 5, 4), Cycles::new(100 + 2 * HOP_LATENCY));
        // Node 0 -> node 15 = (3,3): 6 hops.
        assert_eq!(send(&mut net, 500, 0, 15, 4), Cycles::new(500 + 6 * HOP_LATENCY));
        // Neighbors: one hop.
        assert_eq!(send(&mut net, 900, 0, 1, 4), Cycles::new(900 + HOP_LATENCY));
    }

    #[test]
    fn mesh_links_queue_by_serialization() {
        let mut net = Network::new(4, Cycles::new(11));
        net.set_topology(Topology::Mesh2D { width: 2 });
        // A full packet serializes for ceil(76 / 8) = 10 cycles per link.
        assert_eq!(send(&mut net, 0, 0, 1, FULL), Cycles::new(HOP_LATENCY));
        // Same source, same instant: the shared first link is busy.
        assert_eq!(send(&mut net, 0, 0, 1, FULL), Cycles::new(10 + HOP_LATENCY));
        assert_eq!(send(&mut net, 0, 0, 1, FULL), Cycles::new(20 + HOP_LATENCY));
        // A different destination from the same source over a different
        // link (0 -> 2 is a +y hop) is unaffected.
        assert_eq!(send(&mut net, 0, 0, 2, 4), Cycles::new(HOP_LATENCY));
    }

    #[test]
    fn routed_delivery_is_monotonic_per_pair() {
        let mut net = Network::new(16, Cycles::new(11));
        net.set_topology(Topology::Mesh2D { width: 4 });
        let mut last = Cycles::ZERO;
        for i in 0..200u64 {
            let t = send(&mut net, i, 3, 12, BLOCK);
            assert!(t > last, "per-pair FIFO violated: {t:?} <= {last:?}");
            last = t;
        }
    }

    #[test]
    fn routed_runs_are_deterministic_and_clone_independent() {
        let mut a = Network::new(64, Cycles::new(11));
        a.set_topology(Topology::Mesh2D { width: 0 }); // derives 8
        let mut b = a.clone();
        let run = |net: &mut Network| -> Vec<u64> {
            (0..100u64)
                .map(|i| send(net, i * 3, (i % 8) as u16, (i % 63) as u16, TWO_WORDS).raw())
                .collect()
        };
        assert_eq!(run(&mut a), run(&mut b), "clones replay identically");
    }

    #[test]
    fn transmit_matches_ideal_and_routes() {
        let mut net = Network::new(16, Cycles::new(11));
        assert_eq!(send(&mut net, 50, 0, 5, SMALL), Cycles::new(61));
        assert_eq!(net.stats().total_packets(), 1);
        assert_eq!(net.stats().total_bytes(), SMALL as u64);
        // Self-delivery: no wire, arrival one cycle after injection.
        assert_eq!(send(&mut net, 70, 0, 0, SMALL), Cycles::new(71));
        assert_eq!(net.stats().local_packets.get(), 1);
        assert_eq!(net.stats().total_packets(), 1);
        // Routed: 2 hops for (0,0) -> (1,1) on a width-4 mesh.
        net.set_topology(Topology::Mesh2D { width: 4 });
        assert_eq!(send(&mut net, 90, 0, 5, SMALL), Cycles::new(90 + 2 * HOP_LATENCY));
        assert_eq!(send(&mut net, 95, 5, 5, SMALL), Cycles::new(96));
        // Both virtual nets' bytes land in the one total: a two-word
        // request and a one-word block response.
        let mut both = Network::new(4, Cycles::new(11));
        send(&mut both, 0, 0, 1, TWO_WORDS);
        send(&mut both, 0, 1, 0, BLOCK);
        assert_eq!(both.stats().total_packets(), 2);
        assert_eq!(both.stats().total_bytes(), (TWO_WORDS + BLOCK) as u64);
    }

    #[test]
    fn jitter_stays_within_band_and_is_deterministic() {
        let deliveries = |seed: u64| {
            let mut net = Network::new(4, Cycles::new(11));
            net.set_jitter(seed, Cycles::new(3));
            (0..100).map(|i| send(&mut net, i * 50, 0, 1, 4).raw()).collect::<Vec<_>>()
        };
        let a = deliveries(42);
        assert_eq!(a, deliveries(42), "same seed, same deliveries");
        assert_ne!(a, deliveries(43));
        for (i, &t) in a.iter().enumerate() {
            let base = i as u64 * 50 + 11;
            assert!((base..=base + 3).contains(&t), "delivery {t} off-band");
        }
        assert!(
            a.iter().enumerate().any(|(i, &t)| t != i as u64 * 50 + 11),
            "seed 42 should actually jitter something"
        );
    }

    #[test]
    fn jitter_preserves_per_pair_fifo() {
        let mut net = Network::new(4, Cycles::new(11));
        net.set_jitter(7, Cycles::new(3));
        let mut last = Cycles::ZERO;
        // Closely spaced sends of two sizes: deliveries must be strictly
        // increasing for the ordered pair even when jitter would reorder.
        for i in 0..200u64 {
            let wire = if i % 2 == 0 { 4 } else { BLOCK };
            let t = send(&mut net, i, 0, 1, wire);
            assert!(t > last, "pair FIFO violated: {t:?} <= {last:?}");
            last = t;
        }
    }

    #[test]
    fn jitter_leaves_self_sends_alone() {
        let mut net = Network::new(4, Cycles::new(11));
        net.set_jitter(1, Cycles::new(3));
        for i in 0..20 {
            assert_eq!(send(&mut net, i, 2, 2, 4), Cycles::new(i + 1));
        }
    }

    #[test]
    fn no_jitter_means_constant_latency() {
        let mut net = Network::new(4, Cycles::new(11));
        for i in 0..20 {
            assert_eq!(send(&mut net, i * 100, 0, 3, 4), Cycles::new(i * 100 + 11));
        }
    }

    fn quiet_spec(seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            drop_permille: 0,
            dup_permille: 0,
            corrupt_permille: 0,
            partition_permille: 0,
            partition_epoch: 0,
        }
    }

    #[test]
    fn transmit_without_plan_equals_send() {
        // No plan: one copy per send, at the constant latency, each
        // counted once.
        let mut net = Network::new(4, Cycles::new(11));
        for i in 0..50u64 {
            assert_eq!(transmit(&mut net, i * 7, 0, 1, SMALL), [Cycles::new(i * 7 + 11)]);
        }
        assert_eq!(net.stats().total_packets(), 50);
        assert_eq!(net.stats().total_bytes(), 50 * SMALL as u64);
    }

    #[test]
    fn zero_rate_plan_is_cycle_neutral() {
        let mut a = Network::new(4, Cycles::new(11));
        a.set_jitter(9, Cycles::new(3));
        a.set_fault_plan(quiet_spec(1234));
        let mut b = Network::new(4, Cycles::new(11));
        b.set_jitter(9, Cycles::new(3));
        for i in 0..100u64 {
            let t = send(&mut b, i * 5, 0, 1, SMALL);
            assert_eq!(transmit(&mut a, i * 5, 0, 1, SMALL), [t], "send {i}");
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn faulty_transmission_is_deterministic_and_counted() {
        let lossy = || {
            let mut net = Network::new(4, Cycles::new(11));
            let mut spec = quiet_spec(42);
            spec.drop_permille = 300;
            spec.dup_permille = 300;
            spec.corrupt_permille = 200;
            net.set_fault_plan(spec);
            net
        };
        let run = |src: u16, dst: u16| {
            let mut net = lossy();
            let pattern: Vec<Vec<Cycles>> =
                (0..300u64).map(|i| transmit(&mut net, i * 20, src, dst, TWO_WORDS)).collect();
            (pattern, net.stats().clone())
        };
        let (a, sa) = run(0, 1);
        let (b, sb) = run(0, 1);
        assert_eq!(a, b, "same seed, same fault schedule");
        assert_eq!(sa, sb);
        assert!(a.iter().any(|d| d.len() == 2), "some send must deliver twice");
        assert!(a.iter().any(|d| d.is_empty()), "some send must deliver never");
        // Fault decisions are per ordered pair: a different link with the
        // same seed sees a different schedule.
        let (other, _) = run(2, 3);
        let a_shape: Vec<usize> = a.iter().map(Vec::len).collect();
        let o_shape: Vec<usize> = other.iter().map(Vec::len).collect();
        assert_ne!(a_shape, o_shape, "links draw independent schedules");
    }

    #[test]
    fn faulty_transmission_keeps_per_pair_fifo() {
        let mut net = Network::new(4, Cycles::new(11));
        net.set_jitter(7, Cycles::new(5));
        let mut spec = quiet_spec(3);
        spec.drop_permille = 200;
        spec.dup_permille = 400;
        net.set_fault_plan(spec);
        let mut last = Cycles::ZERO;
        for i in 0..400u64 {
            for t in transmit(&mut net, i, 0, 1, 4) {
                assert!(t >= last, "pair FIFO violated: {t:?} < {last:?}");
                last = t;
            }
        }
    }

    #[test]
    fn partitions_are_bounded_and_heal_before_the_run_ends() {
        let mut spec = quiet_spec(99);
        spec.partition_permille = 1000; // every run partitioned
        spec.partition_epoch = 100;
        let mut net = Network::new(2, Cycles::new(11));
        net.set_fault_plan(spec);
        let mut lost_some = false;
        for run in 0..20u64 {
            // The last epoch of every run must be clear.
            let t_last = ((run + 1) * PARTITION_RUN - 1) * 100 + 50;
            assert_eq!(
                transmit(&mut net, t_last, 0, 1, 4).len(),
                1,
                "run {run} last epoch not clear"
            );
            // The first epoch of a partitioned run is blacked out.
            let t_first = run * PARTITION_RUN * 100 + 50;
            if transmit(&mut net, t_first, 0, 1, 4).is_empty() {
                lost_some = true;
            }
        }
        assert!(lost_some, "a fully partition-prone plan must lose packets");
    }

    #[test]
    fn corruption_of_a_retransmitted_copy_is_detected_and_dropped() {
        // Find a seed whose link-(0,1) schedule delivers the original
        // (decision index 0) but corrupts the retransmitted copy
        // (decision index 1) — the edge case where the retry itself is
        // damaged and a further retry must follow.
        let mut spec = quiet_spec(0);
        spec.corrupt_permille = 300;
        let lossy = |seed: u64| {
            let mut net = Network::new(2, Cycles::new(11));
            net.set_fault_plan(FaultSpec { seed, ..spec });
            net
        };
        let seed = (0..500u64)
            .find(|&s| {
                let mut net = lossy(s);
                let first = transmit(&mut net, 0, 0, 1, SMALL).len();
                let second = transmit(&mut net, 1000, 0, 1, SMALL).len();
                first == 1 && second == 0
            })
            .expect("some seed corrupts exactly the retransmission");
        let mut net = lossy(seed);
        assert_eq!(transmit(&mut net, 0, 0, 1, SMALL).len(), 1);
        assert_eq!(transmit(&mut net, 1000, 0, 1, SMALL).len(), 0);
        // A corrupted copy is discarded, but it crossed the wire.
        assert_eq!(net.stats().total_packets(), 2);
        // The third attempt (a fresh decision index) can still get through
        // eventually; scan a few more attempts.
        let delivered =
            (2..30u64).any(|i| !transmit(&mut net, 1000 + i * 500, 0, 1, SMALL).is_empty());
        assert!(delivered, "corruption at 30% cannot black out the link forever");
    }

    /// The lossy schedule, pinned: two plans, each run with jitter on a
    /// 4-node net, 300 transmits over three links. The digests were
    /// recorded from the network before it timed headers only (when it
    /// still took whole packets and modelled a checksum), so a refactor
    /// that moves any drop, duplicate, corruption, partition or jittered
    /// arrival fails here rather than shifting every lossy run silently.
    #[test]
    fn fault_schedules_match_recorded_digests() {
        let digest = |spec: FaultSpec| {
            let mut net = Network::new(4, Cycles::new(11));
            net.set_jitter(5, Cycles::new(4));
            net.set_fault_plan(spec);
            let links = [(0, 1), (1, 0), (2, 3)];
            let wires = [SMALL, TWO_WORDS, BLOCK, FULL];
            let (mut copies, mut h) = (0u64, 0u64);
            for i in 0..300u64 {
                let (src, dst) = links[i as usize % 3];
                h = mix64(h ^ i);
                for t in transmit(&mut net, i * 97, src, dst, wires[i as usize % 4]) {
                    copies += 1;
                    h = mix64(h ^ t.raw());
                }
            }
            (copies, h)
        };
        // Seed 0's plan partitions, and its outages fall inside the run.
        let partitioning = FaultSpec::from_seed(0);
        assert!(partitioning.partition_permille > 0);
        let healed = FaultSpec { partition_permille: 0, ..partitioning };
        assert_ne!(digest(healed), digest(partitioning), "no partition hit the run");
        assert_eq!(digest(partitioning), (261, 0xd9b5_de7f_d518_4001));
        assert_eq!(digest(FaultSpec::uniform(7, 200)), (262, 0x5209_5592_0a74_587f));
    }

    #[test]
    fn block_round_trip() {
        let mut b = [0u8; BLOCK_BYTES];
        b[5] = 99;
        let p = Payload::with_block(&[], b);
        assert_eq!(p.block()[5], 99);
    }
}
