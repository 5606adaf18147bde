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
//! The network is a *passive* component: [`Network::transmit`] validates
//! the packet, records statistics, and returns the delivery times; the
//! owning machine schedules its own delivery events.

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

impl VirtualNet {
    /// Index for per-net statistics arrays.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            VirtualNet::Request => 0,
            VirtualNet::Response => 1,
        }
    }
}

/// Maximum packet payload in bytes: twenty 32-bit words (Section 5),
/// vs. the CM-5's five.
pub const MAX_PACKET_BYTES: usize = 80;

/// Bytes charged for the handler word at the head of every message.
pub const HANDLER_WORD_BYTES: usize = 4;

/// Bytes charged per 64-bit argument word.
pub const ARG_WORD_BYTES: usize = 8;

/// Maximum argument words a payload can carry inline. Nine words plus the
/// handler word fills the 80-byte packet; a payload that also carries a
/// coherence block fits the packet with at most five.
pub const MAX_ARG_WORDS: usize = 9;

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
    /// Panics if `words` exceeds [`MAX_ARG_WORDS`].
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
    /// Panics if `words` exceeds [`MAX_ARG_WORDS`].
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
    /// Panics if the payload already carries [`MAX_ARG_WORDS`] words.
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

/// A packet in flight between two nodes.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Packet {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Which virtual network carries the packet.
    pub vn: VirtualNet,
    /// Receive-handler identifier (the paper's "handler PC" head word).
    pub handler: u32,
    /// Everything after the handler word.
    pub payload: Payload,
}

impl Packet {
    /// Total wire size in bytes.
    pub fn wire_bytes(&self) -> usize {
        self.payload.wire_bytes()
    }
}

/// Per-virtual-network traffic statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Packets sent on each virtual network.
    pub packets: [Counter; 2],
    /// Payload bytes sent on each virtual network.
    pub bytes: [Counter; 2],
    /// Packets a node sent to itself (short-circuited, never on the wire).
    pub local_packets: Counter,
}

impl NetStats {
    /// Total packets that crossed the wire.
    pub fn total_packets(&self) -> u64 {
        self.packets[0].get() + self.packets[1].get()
    }

    /// Total bytes that crossed the wire.
    pub fn total_bytes(&self) -> u64 {
        self.bytes[0].get() + self.bytes[1].get()
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
/// use tt_net::{Network, Packet, Payload, VirtualNet};
/// use tt_base::{Cycles, NodeId};
///
/// let mut net = Network::new(4, Cycles::new(11));
/// let packet = Packet {
///     src: NodeId::new(0),
///     dst: NodeId::new(2),
///     vn: VirtualNet::Request,
///     handler: 7,
///     payload: Payload::args(&[0x1000]),
/// };
/// let arrivals: Vec<Cycles> = net.transmit(Cycles::new(100), &packet).iter().collect();
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

/// The serialized wire image of a packet: handler word, argument words,
/// then data bytes — the layout [`Packet::wire_bytes`] charges for.
/// Only the fault model materializes it (checksum verification of a
/// corrupted copy); the fast path never allocates.
fn wire_image(p: &Packet) -> Vec<u8> {
    let mut image = Vec::with_capacity(p.wire_bytes());
    image.extend_from_slice(&p.handler.to_le_bytes());
    for w in p.payload.words() {
        image.extend_from_slice(&w.to_le_bytes());
    }
    image.extend_from_slice(p.payload.data());
    image
}

/// The checksum word every wire packet carries (modeled, not stored):
/// a splitmix chain over the wire image plus the routing header. Any
/// single-bit flip in the image changes it, which is what makes the
/// fault model's corruption *detectable* — a receiver verifying this
/// word discards the copy, so corruption degrades to a drop.
pub fn packet_checksum(routing: u64, image: &[u8]) -> u64 {
    let mut h = mix64(0x74_74_63_6B ^ routing); // "ttck"
    for (i, &b) in image.iter().enumerate() {
        h = mix64(h ^ ((b as u64) << 8) ^ i as u64);
    }
    h
}

/// Packed routing header (src, dst, vn) for [`packet_checksum`].
fn routing_word(p: &Packet) -> u64 {
    ((p.src.index() as u64) << 32) | ((p.dst.index() as u64) << 16) | p.vn.index() as u64
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

    /// Installs a deterministic lossy-network fault schedule. Faults
    /// apply only to packets sent through [`Network::transmit`], the
    /// path every protocol message takes; [`Network::deliver_at`] is
    /// unaffected.
    pub fn set_fault_plan(&mut self, spec: FaultSpec) {
        self.faults = Some(FaultPlan::new(spec, self.nodes));
    }

    /// The one injection path for a cross-node wire packet: counts it,
    /// charges the ideal pipe's constant latency or the mesh route, and
    /// applies jitter if installed. Returns the arrival time.
    fn inject_wire(
        &mut self,
        now: Cycles,
        src: NodeId,
        dst: NodeId,
        vn: VirtualNet,
        wire_bytes: usize,
    ) -> Cycles {
        self.stats.packets[vn.index()].inc();
        self.stats.bytes[vn.index()].add(wire_bytes as u64);
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

    /// Accepts a packet at time `now` and returns its delivery time at the
    /// destination. Under the ideal topology, packets between distinct
    /// nodes are charged the constant network latency; the mesh charges
    /// the route's hop count plus any per-link queuing. A node
    /// messaging itself short-circuits the network and is delivered after
    /// one cycle (Section 5.1).
    ///
    /// # Panics
    ///
    /// Panics if the packet exceeds [`MAX_PACKET_BYTES`] (too many
    /// argument words alongside a block).
    fn send(&mut self, now: Cycles, packet: &Packet) -> Cycles {
        assert!(
            packet.wire_bytes() <= MAX_PACKET_BYTES,
            "packet of {} bytes exceeds the {}-byte maximum",
            packet.wire_bytes(),
            MAX_PACKET_BYTES
        );
        if packet.src == packet.dst {
            self.stats.local_packets.inc();
            return now + Cycles::new(1);
        }
        self.inject_wire(now, packet.src, packet.dst, packet.vn, packet.wire_bytes())
    }

    /// Accepts a packet at time `now` and returns the delivery times of
    /// every copy that will actually arrive, after applying the fault
    /// schedule (if one is installed): a transient partition or a drop
    /// yields no copies, corruption of a copy is detected by the wire
    /// checksum and discards that copy, and duplication yields a second
    /// copy. With no fault plan this is exactly one injection — same
    /// accounting, same jitter draws, same delivery time — so the fault
    /// plumbing is cycle-neutral when unused. Self-sends never
    /// traverse the wire and are never faulted.
    ///
    /// Faulted copies are injected (and counted) like any other wire
    /// packet; delivery between an ordered node pair remains monotonic,
    /// so per-link FIFO holds for the copies that do arrive.
    pub fn transmit(&mut self, now: Cycles, packet: &Packet) -> Deliveries {
        if self.faults.is_none() || packet.src == packet.dst {
            return Deliveries::one(self.send(now, packet));
        }
        let (pair, n, partitioned) = {
            let plan = self.faults.as_mut().expect("checked above");
            let pair = packet.src.index() * plan.nodes + packet.dst.index();
            let n = plan.pair_seen[pair];
            plan.pair_seen[pair] += 1;
            (pair, n, plan.partitioned(pair, now))
        };
        let plan_decisions = |net: &Network, salt: u64| {
            let plan = net.faults.as_ref().expect("checked above");
            (
                plan.hit(SALT_DROP, pair, n, plan.spec.drop_permille),
                plan.hit(SALT_DUP, pair, n, plan.spec.dup_permille),
                plan.hit(salt, pair, n, plan.spec.corrupt_permille),
                plan.draw(salt, pair, n),
            )
        };
        // The sender injects the packet either way: it cannot observe
        // the fault, so injection stats and jitter state advance exactly
        // as on a healthy link.
        let t1 = self.send(now, packet);
        if partitioned {
            return Deliveries::default();
        }
        let (dropped, duplicated, corrupt1, draw1) = plan_decisions(self, SALT_CORRUPT);
        if dropped {
            return Deliveries::default();
        }
        let mut out = Deliveries::default();
        let verify_copy = |draw: u64| {
            // Model the receiver's checksum check on a corrupted copy:
            // flip one deterministic wire bit and confirm the checksum
            // word changes, then discard the copy.
            let image = wire_image(packet);
            let routing = routing_word(packet);
            let clean = packet_checksum(routing, &image);
            let bit = draw % (image.len() as u64 * 8);
            let mut flipped = image;
            flipped[(bit / 8) as usize] ^= 1 << (bit % 8);
            assert_ne!(
                packet_checksum(routing, &flipped),
                clean,
                "wire checksum failed to detect a single-bit flip"
            );
        };
        if corrupt1 {
            verify_copy(draw1);
        } else {
            out.push(t1);
        }
        if duplicated {
            // The duplicate is one more wire packet, injected at the
            // same instant; jitter's pair clamp keeps link order.
            let t2 = self.send(now, packet);
            let (_, _, corrupt2, draw2) = plan_decisions(self, SALT_CORRUPT ^ 0xFF);
            if corrupt2 {
                verify_copy(draw2);
            } else {
                out.push(t2.max(t1));
            }
        }
        out
    }

    /// Accounts for a packet the caller does not build and returns its
    /// arrival time for an injection at `inject`: the same injection path
    /// as [`Network::transmit`], without constructing a [`Payload`] per
    /// message. A self-send arrives at `inject` (the caller's cost model
    /// already covers local hand-off). Used by the DirNNB machine, whose
    /// protocol messages carry no payload the simulator needs.
    pub fn deliver_at(
        &mut self,
        inject: Cycles,
        src: NodeId,
        dst: NodeId,
        vn: VirtualNet,
        wire_bytes: usize,
    ) -> Cycles {
        if src == dst {
            self.stats.local_packets.inc();
            return inject;
        }
        self.inject_wire(inject, src, dst, vn, wire_bytes)
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(src: u16, dst: u16, vn: VirtualNet, payload: Payload) -> Packet {
        Packet { src: NodeId::new(src), dst: NodeId::new(dst), vn, handler: 1, payload }
    }

    #[test]
    fn constant_latency() {
        let mut net = Network::new(4, Cycles::new(11));
        let p = packet(0, 1, VirtualNet::Request, Payload::args(&[42]));
        assert_eq!(net.send(Cycles::new(100), &p), Cycles::new(111));
    }

    #[test]
    fn self_send_short_circuits() {
        let mut net = Network::new(4, Cycles::new(11));
        let p = packet(2, 2, VirtualNet::Request, Payload::new());
        assert_eq!(net.send(Cycles::new(5), &p), Cycles::new(6));
        assert_eq!(net.stats().total_packets(), 0);
        assert_eq!(net.stats().local_packets.get(), 1);
    }

    #[test]
    fn stats_split_by_virtual_net() {
        let mut net = Network::new(4, Cycles::new(11));
        let req = packet(0, 1, VirtualNet::Request, Payload::args(&[1, 2]));
        let rsp = packet(1, 0, VirtualNet::Response, Payload::with_block(&[1], [0u8; BLOCK_BYTES]));
        net.send(Cycles::ZERO, &req);
        net.send(Cycles::ZERO, &rsp);
        let s = net.stats();
        assert_eq!(s.packets[VirtualNet::Request.index()].get(), 1);
        assert_eq!(s.packets[VirtualNet::Response.index()].get(), 1);
        assert_eq!(
            s.bytes[VirtualNet::Request.index()].get(),
            (HANDLER_WORD_BYTES + 2 * ARG_WORD_BYTES) as u64
        );
        assert_eq!(
            s.bytes[VirtualNet::Response.index()].get(),
            (HANDLER_WORD_BYTES + ARG_WORD_BYTES + BLOCK_BYTES) as u64
        );
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
        let p = packet(0, 1, VirtualNet::Request, Payload::with_block(&[0; 6], [0u8; BLOCK_BYTES]));
        net.send(Cycles::ZERO, &p);
    }

    #[test]
    fn max_size_packet_is_accepted() {
        let mut net = Network::new(2, Cycles::new(11));
        // 4 + 5*8 + 32 = 76 <= 80
        let p =
            packet(0, 1, VirtualNet::Response, Payload::with_block(&[0; 5], [7u8; BLOCK_BYTES]));
        net.send(Cycles::ZERO, &p);
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
        assert_eq!(d.wire_bytes(), HANDLER_WORD_BYTES + ARG_WORD_BYTES + BLOCK_BYTES);
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
        let p = packet(0, 5, VirtualNet::Request, Payload::new());
        assert_eq!(net.send(Cycles::new(100), &p), Cycles::new(100 + 2 * HOP_LATENCY));
        // Node 0 -> node 15 = (3,3): 6 hops.
        let q = packet(0, 15, VirtualNet::Request, Payload::new());
        assert_eq!(net.send(Cycles::new(500), &q), Cycles::new(500 + 6 * HOP_LATENCY));
        // Neighbors: one hop.
        let r = packet(0, 1, VirtualNet::Request, Payload::new());
        assert_eq!(net.send(Cycles::new(900), &r), Cycles::new(900 + HOP_LATENCY));
    }

    #[test]
    fn mesh_links_queue_by_serialization() {
        let mut net = Network::new(4, Cycles::new(11));
        net.set_topology(Topology::Mesh2D { width: 2 });
        // A block packet serializes for ceil(76 / 8) = 10 cycles per link.
        let big =
            packet(0, 1, VirtualNet::Response, Payload::with_block(&[0; 5], [0u8; BLOCK_BYTES]));
        assert_eq!(net.send(Cycles::new(0), &big), Cycles::new(HOP_LATENCY));
        // Same source, same instant: the shared first link is busy.
        assert_eq!(net.send(Cycles::new(0), &big), Cycles::new(10 + HOP_LATENCY));
        assert_eq!(net.send(Cycles::new(0), &big), Cycles::new(20 + HOP_LATENCY));
        // A different destination from the same source over a different
        // link (0 -> 2 is a +y hop) is unaffected.
        let other = packet(0, 2, VirtualNet::Request, Payload::new());
        assert_eq!(net.send(Cycles::new(0), &other), Cycles::new(HOP_LATENCY));
    }

    #[test]
    fn routed_delivery_is_monotonic_per_pair() {
        let mut net = Network::new(16, Cycles::new(11));
        net.set_topology(Topology::Mesh2D { width: 4 });
        let p = packet(3, 12, VirtualNet::Request, Payload::with_block(&[1], [0u8; BLOCK_BYTES]));
        let mut last = Cycles::ZERO;
        for i in 0..200u64 {
            let t = net.send(Cycles::new(i), &p);
            assert!(t > last, "per-pair FIFO violated: {t:?} <= {last:?}");
            last = t;
        }
    }

    #[test]
    fn routed_runs_are_deterministic_and_clone_independent() {
        let mut a = Network::new(64, Cycles::new(11));
        a.set_topology(Topology::Mesh2D { width: 0 }); // derives 8
        let mut b = a.clone();
        let mk = |src, dst| packet(src, dst, VirtualNet::Request, Payload::args(&[1, 2]));
        let ta: Vec<u64> = (0..100u64)
            .map(|i| a.send(Cycles::new(i * 3), &mk((i % 8) as u16, (i % 63) as u16)).raw())
            .collect();
        let tb: Vec<u64> = (0..100u64)
            .map(|i| b.send(Cycles::new(i * 3), &mk((i % 8) as u16, (i % 63) as u16)).raw())
            .collect();
        assert_eq!(ta, tb, "clones replay identically");
    }

    #[test]
    fn deliver_at_matches_ideal_and_routes() {
        let mut net = Network::new(16, Cycles::new(11));
        let a = NodeId::new(0);
        let b = NodeId::new(5);
        assert_eq!(net.deliver_at(Cycles::new(50), a, b, VirtualNet::Request, 12), Cycles::new(61));
        assert_eq!(net.stats().packets[0].get(), 1);
        assert_eq!(net.stats().bytes[0].get(), 12);
        // Self-delivery: no wire, arrival at the injection time.
        assert_eq!(net.deliver_at(Cycles::new(70), a, a, VirtualNet::Request, 12), Cycles::new(70));
        assert_eq!(net.stats().local_packets.get(), 1);
        // Routed: 2 hops for (0,0) -> (1,1) on a width-4 mesh.
        net.set_topology(Topology::Mesh2D { width: 4 });
        assert_eq!(
            net.deliver_at(Cycles::new(90), a, b, VirtualNet::Request, 12),
            Cycles::new(90 + 2 * HOP_LATENCY)
        );
    }

    #[test]
    fn jitter_stays_within_band_and_is_deterministic() {
        let deliveries = |seed: u64| {
            let mut net = Network::new(4, Cycles::new(11));
            net.set_jitter(seed, Cycles::new(3));
            let p = packet(0, 1, VirtualNet::Request, Payload::new());
            (0..100).map(|i| net.send(Cycles::new(i * 50), &p).raw()).collect::<Vec<_>>()
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
        let p = packet(0, 1, VirtualNet::Request, Payload::new());
        let q = packet(0, 1, VirtualNet::Response, Payload::new());
        let mut last = Cycles::ZERO;
        // Closely spaced sends on both vns: deliveries must be strictly
        // increasing for the ordered pair even when jitter would reorder.
        for i in 0..200u64 {
            let pk = if i % 2 == 0 { &p } else { &q };
            let t = net.send(Cycles::new(i), pk);
            assert!(t > last, "pair FIFO violated: {t:?} <= {last:?}");
            last = t;
        }
    }

    #[test]
    fn jitter_leaves_self_sends_alone() {
        let mut net = Network::new(4, Cycles::new(11));
        net.set_jitter(1, Cycles::new(3));
        let p = packet(2, 2, VirtualNet::Request, Payload::new());
        for i in 0..20 {
            assert_eq!(net.send(Cycles::new(i), &p), Cycles::new(i + 1));
        }
    }

    #[test]
    fn no_jitter_means_constant_latency() {
        let mut net = Network::new(4, Cycles::new(11));
        let p = packet(0, 3, VirtualNet::Response, Payload::new());
        for i in 0..20 {
            assert_eq!(net.send(Cycles::new(i * 100), &p), Cycles::new(i * 100 + 11));
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
        let mut a = Network::new(4, Cycles::new(11));
        let mut b = Network::new(4, Cycles::new(11));
        let p = packet(0, 1, VirtualNet::Request, Payload::args(&[1]));
        for i in 0..50u64 {
            let d = a.transmit(Cycles::new(i * 7), &p);
            let t = b.send(Cycles::new(i * 7), &p);
            assert_eq!(d.iter().collect::<Vec<_>>(), vec![t]);
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn zero_rate_plan_is_cycle_neutral() {
        let mut a = Network::new(4, Cycles::new(11));
        a.set_jitter(9, Cycles::new(3));
        a.set_fault_plan(quiet_spec(1234));
        let mut b = Network::new(4, Cycles::new(11));
        b.set_jitter(9, Cycles::new(3));
        let p = packet(0, 1, VirtualNet::Request, Payload::args(&[1]));
        for i in 0..100u64 {
            let d = a.transmit(Cycles::new(i * 5), &p);
            let t = b.send(Cycles::new(i * 5), &p);
            assert_eq!(d.iter().collect::<Vec<_>>(), vec![t], "send {i}");
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn faulty_transmission_is_deterministic_and_counted() {
        let run = || {
            let mut net = Network::new(4, Cycles::new(11));
            let mut spec = quiet_spec(42);
            spec.drop_permille = 300;
            spec.dup_permille = 300;
            spec.corrupt_permille = 200;
            net.set_fault_plan(spec);
            let p = packet(0, 1, VirtualNet::Request, Payload::args(&[7, 8]));
            let pattern: Vec<Vec<u64>> = (0..300u64)
                .map(|i| net.transmit(Cycles::new(i * 20), &p).iter().map(Cycles::raw).collect())
                .collect();
            (pattern, net.stats().clone())
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b, "same seed, same fault schedule");
        assert_eq!(sa, sb);
        assert!(a.iter().any(|d| d.len() == 2), "some send must deliver twice");
        assert!(a.iter().any(|d| d.is_empty()), "some send must deliver never");
        // Fault decisions are per ordered pair: a different link with the
        // same seed sees a different schedule.
        let mut net = Network::new(4, Cycles::new(11));
        let mut spec = quiet_spec(42);
        spec.drop_permille = 300;
        spec.dup_permille = 300;
        spec.corrupt_permille = 200;
        net.set_fault_plan(spec);
        let q = packet(2, 3, VirtualNet::Request, Payload::args(&[7, 8]));
        let other: Vec<Vec<u64>> = (0..300u64)
            .map(|i| net.transmit(Cycles::new(i * 20), &q).iter().map(Cycles::raw).collect())
            .collect();
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
        let p = packet(0, 1, VirtualNet::Request, Payload::new());
        let mut last = Cycles::ZERO;
        for i in 0..400u64 {
            for t in net.transmit(Cycles::new(i), &p).iter() {
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
        let p = packet(0, 1, VirtualNet::Request, Payload::new());
        let mut lost_some = false;
        for run in 0..20u64 {
            // The last epoch of every run must be clear.
            let t_last = Cycles::new(((run + 1) * PARTITION_RUN - 1) * 100 + 50);
            assert_eq!(
                net.transmit(t_last, &p).iter().count(),
                1,
                "run {run} last epoch not clear"
            );
            // The first epoch of a partitioned run is blacked out.
            let t_first = Cycles::new(run * PARTITION_RUN * 100 + 50);
            if net.transmit(t_first, &p).iter().count() == 0 {
                lost_some = true;
            }
        }
        assert!(lost_some, "a fully partition-prone plan must lose packets");
    }

    #[test]
    fn checksum_detects_every_single_bit_flip() {
        let p = packet(
            1,
            2,
            VirtualNet::Response,
            Payload::with_block(&[0xDEAD_BEEF, 42], [0xA5u8; BLOCK_BYTES]),
        );
        let image = wire_image(&p);
        assert_eq!(image.len(), p.wire_bytes());
        let routing = routing_word(&p);
        let clean = packet_checksum(routing, &image);
        for bit in 0..image.len() * 8 {
            let mut flipped = image.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(packet_checksum(routing, &flipped), clean, "bit {bit} undetected");
        }
        // The routing header is covered too (a misrouted copy is detected).
        assert_ne!(packet_checksum(routing ^ 1, &image), clean);
    }

    #[test]
    fn corruption_of_a_retransmitted_copy_is_detected_and_dropped() {
        // Find a seed whose link-(0,1) schedule delivers the original
        // (decision index 0) but corrupts the retransmitted copy
        // (decision index 1) — the edge case where the retry itself is
        // damaged and a further retry must follow.
        let mut spec = quiet_spec(0);
        spec.corrupt_permille = 300;
        let p = packet(0, 1, VirtualNet::Request, Payload::args(&[5]));
        let seed = (0..500u64)
            .find(|&s| {
                let mut net = Network::new(2, Cycles::new(11));
                spec.seed = s;
                net.set_fault_plan(spec);
                let first = net.transmit(Cycles::new(0), &p).iter().count();
                let second = net.transmit(Cycles::new(1000), &p).iter().count();
                first == 1 && second == 0
            })
            .expect("some seed corrupts exactly the retransmission");
        let mut net = Network::new(2, Cycles::new(11));
        spec.seed = seed;
        net.set_fault_plan(spec);
        assert_eq!(net.transmit(Cycles::new(0), &p).iter().count(), 1);
        assert_eq!(net.transmit(Cycles::new(1000), &p).iter().count(), 0);
        // The third attempt (a fresh decision index) can still get through
        // eventually; scan a few more attempts.
        let delivered =
            (2..30u64).any(|i| net.transmit(Cycles::new(1000 + i * 500), &p).iter().count() > 0);
        assert!(delivered, "corruption at 30% cannot black out the link forever");
    }

    #[test]
    fn block_round_trip() {
        let mut b = [0u8; BLOCK_BYTES];
        b[5] = 99;
        let p = Payload::with_block(&[], b);
        assert_eq!(p.block()[5], 99);
    }
}
