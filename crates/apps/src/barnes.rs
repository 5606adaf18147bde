//! Barnes: gravitational N-body simulation with the Barnes-Hut
//! hierarchical O(N log N) algorithm (SPLASH; Table 3 data sets 2,048 and
//! 8,192 bodies).
//!
//! Each iteration rebuilds an octree over the bodies, computes a
//! center-of-mass for every internal cell, then computes forces by
//! walking the tree per body — distant cells are approximated by their
//! center of mass (opening criterion θ), near bodies interact directly.
//!
//! Shared-memory structure (as in SPLASH):
//!
//! - **bodies** are owner-placed (positions written by their owner every
//!   iteration, read by everyone during force computation);
//! - **tree cells** are round-robin placed and rebuilt every iteration —
//!   the dynamic, pointer-based structure the paper calls out as needing
//!   transparent replication at run time. Cell writers are assigned
//!   round-robin, approximating SPLASH's parallel tree build.
//!
//! The octree itself (geometry, child pointers) is computed natively and
//! charged as compute; the shared traffic is the cells' center-of-mass
//! data and the bodies' positions, which is what the coherence protocols
//! see. Reads are verified against the native physics.

use tt_base::workload::{Layout, Op};
use tt_base::DetRng;

use crate::alloc::{even_split, ArenaPlanner, CyclicArray, OwnedArray};
use crate::phased::PhasedApp;

/// Barnes parameters.
#[derive(Clone, Debug)]
pub struct BarnesParams {
    /// Number of bodies.
    pub bodies: usize,
    /// Iterations (tree build + force + update per iteration).
    pub iterations: usize,
    /// Opening criterion θ: larger = more approximation, shorter
    /// interaction lists.
    pub theta: f64,
    /// Time step.
    pub dt: f64,
    /// Processors.
    pub procs: usize,
    /// Initial-condition seed.
    pub seed: u64,
}

impl BarnesParams {
    /// The Table 3 data set.
    pub fn table3(set: crate::DataSet, procs: usize) -> Self {
        let bodies = match set {
            crate::DataSet::Small => 2_048,
            crate::DataSet::Large => 8_192,
        };
        BarnesParams { bodies, iterations: 3, theta: 0.8, dt: 0.05, procs, seed: 0xBA51 }
    }
}

/// Cycles per cell (center-of-mass) interaction.
const CELL_COMPUTE: u32 = 20;
/// Cycles per direct body-body interaction.
const BODY_COMPUTE: u32 = 20;
/// Cycles of traversal overhead per tree node visited.
const VISIT_COMPUTE: u32 = 3;
/// Cycles to fold one cell's center of mass during the build.
const BUILD_COMPUTE: u32 = 15;
/// Gravitational softening.
const SOFTENING: f64 = 1e-3;

/// A node of the native octree.
#[derive(Clone, Debug)]
enum BhNode {
    /// An internal cell: geometric box + aggregated mass.
    Cell { center: [f64; 3], half: f64, children: [i32; 8], com: [f64; 3], mass: f64 },
    /// A single body (global index).
    Leaf(u32),
}

/// The native octree, rebuilt each iteration.
struct BhTree {
    nodes: Vec<BhNode>,
}

impl BhTree {
    fn build(pos: &[[f64; 3]], mass: &[f64]) -> BhTree {
        // Bounding cube.
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for p in pos {
            for d in 0..3 {
                lo[d] = lo[d].min(p[d]);
                hi[d] = hi[d].max(p[d]);
            }
        }
        let mut half = 0.0f64;
        let mut center = [0.0; 3];
        for d in 0..3 {
            center[d] = 0.5 * (lo[d] + hi[d]);
            half = half.max(0.5 * (hi[d] - lo[d]) + 1e-9);
        }
        let mut tree = BhTree {
            nodes: vec![BhNode::Cell { center, half, children: [-1; 8], com: [0.0; 3], mass: 0.0 }],
        };
        for (i, _) in pos.iter().enumerate() {
            tree.insert(0, i as u32, pos);
        }
        tree.fold_mass(0, pos, mass);
        tree
    }

    fn octant(center: &[f64; 3], p: &[f64; 3]) -> usize {
        (usize::from(p[0] >= center[0]) << 2)
            | (usize::from(p[1] >= center[1]) << 1)
            | usize::from(p[2] >= center[2])
    }

    fn child_box(center: &[f64; 3], half: f64, oct: usize) -> ([f64; 3], f64) {
        let h = half * 0.5;
        let c = [
            center[0] + if oct & 4 != 0 { h } else { -h },
            center[1] + if oct & 2 != 0 { h } else { -h },
            center[2] + if oct & 1 != 0 { h } else { -h },
        ];
        (c, h)
    }

    fn insert(&mut self, node: usize, body: u32, pos: &[[f64; 3]]) {
        let (center, half, oct) = match &self.nodes[node] {
            BhNode::Cell { center, half, .. } => {
                (*center, *half, Self::octant(center, &pos[body as usize]))
            }
            BhNode::Leaf(_) => unreachable!("insert into a leaf"),
        };
        let child = match &self.nodes[node] {
            BhNode::Cell { children, .. } => children[oct],
            _ => unreachable!(),
        };
        match child {
            -1 => {
                let leaf = self.nodes.len() as i32;
                self.nodes.push(BhNode::Leaf(body));
                if let BhNode::Cell { children, .. } = &mut self.nodes[node] {
                    children[oct] = leaf;
                }
            }
            c => {
                let c = c as usize;
                match self.nodes[c].clone() {
                    BhNode::Cell { .. } => self.insert(c, body, pos),
                    BhNode::Leaf(other) => {
                        // Split: replace the leaf with a cell holding both
                        // bodies (coincident bodies would recurse forever;
                        // the perturbed initial conditions avoid that).
                        let (cc, ch) = Self::child_box(&center, half, oct);
                        let cell = BhNode::Cell {
                            center: cc,
                            half: ch,
                            children: [-1; 8],
                            com: [0.0; 3],
                            mass: 0.0,
                        };
                        self.nodes[c] = cell;
                        self.insert(c, other, pos);
                        self.insert(c, body, pos);
                    }
                }
            }
        }
    }

    /// Bottom-up center-of-mass computation; returns `(com*mass, mass)`.
    fn fold_mass(&mut self, node: usize, pos: &[[f64; 3]], mass: &[f64]) -> ([f64; 3], f64) {
        match self.nodes[node].clone() {
            BhNode::Leaf(b) => {
                let m = mass[b as usize];
                let p = pos[b as usize];
                ([p[0] * m, p[1] * m, p[2] * m], m)
            }
            BhNode::Cell { children, .. } => {
                let mut acc = [0.0; 3];
                let mut total = 0.0;
                for c in children.iter().filter(|c| **c >= 0) {
                    let (a, m) = self.fold_mass(*c as usize, pos, mass);
                    for d in 0..3 {
                        acc[d] += a[d];
                    }
                    total += m;
                }
                if let BhNode::Cell { com, mass: m, .. } = &mut self.nodes[node] {
                    *m = total;
                    for d in 0..3 {
                        com[d] = if total > 0.0 { acc[d] / total } else { 0.0 };
                    }
                }
                (acc, total)
            }
        }
    }

    /// Indices of internal cells in node order (their shared-array slots).
    fn cell_slots(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n, BhNode::Cell { .. }))
            .map(|(i, _)| i)
            .collect()
    }
}

/// The Barnes workload (see module docs).
pub struct Barnes {
    params: BarnesParams,
    /// Body positions: 3 words each, owner-placed.
    body_arr: OwnedArray,
    /// Tree cells: 4 words each (com x, y, z, mass), round-robin pages.
    cell_arr: CyclicArray,
    /// Native state (global body index).
    pos: Vec<[f64; 3]>,
    vel: Vec<[f64; 3]>,
    mass: Vec<f64>,
    /// Body index ranges per owner.
    first_body: Vec<usize>,
    counts: Vec<usize>,
    /// Tree of the current iteration (built in phase A).
    tree: Option<BhTree>,
    /// node index -> shared cell slot for the current tree.
    slot_of_node: Vec<i32>,
    phase: usize,
    /// Accelerations computed by the force phase, consumed by the update
    /// phase.
    pending_accels: Option<Vec<[f64; 3]>>,
}

impl Barnes {
    /// Builds the initial body distribution.
    pub fn new(params: BarnesParams) -> Self {
        let counts = even_split(params.bodies, params.procs);
        let mut first_body = Vec::with_capacity(params.procs);
        let mut acc = 0;
        for &c in &counts {
            first_body.push(acc);
            acc += c;
        }
        let mut planner = ArenaPlanner::new();
        let body_arr = OwnedArray::plan(&mut planner, &counts, 3, 0);
        // Internal cells are bounded by ~2N for non-degenerate inputs;
        // reserve 4N slots.
        let cell_arr = CyclicArray::plan(&mut planner, params.bodies * 4, 4, 0);
        let mut rng = DetRng::new(params.seed);
        let pos: Vec<[f64; 3]> =
            (0..params.bodies).map(|_| [rng.unit_f64(), rng.unit_f64(), rng.unit_f64()]).collect();
        let vel = (0..params.bodies)
            .map(|_| {
                [
                    0.01 * (rng.unit_f64() - 0.5),
                    0.01 * (rng.unit_f64() - 0.5),
                    0.01 * (rng.unit_f64() - 0.5),
                ]
            })
            .collect();
        let mass = vec![1.0 / params.bodies as f64; params.bodies];
        Barnes {
            params,
            body_arr,
            cell_arr,
            pos,
            vel,
            mass,
            first_body,
            counts,
            tree: None,
            slot_of_node: Vec::new(),
            phase: 0,
            pending_accels: None,
        }
    }

    fn owner_of(&self, body: usize) -> usize {
        match self.first_body.binary_search(&body) {
            Ok(o) => o,
            Err(o) => o - 1,
        }
    }

    fn body_addr(&self, body: usize, word: usize) -> tt_base::VAddr {
        let o = self.owner_of(body);
        self.body_arr.addr(o, body - self.first_body[o], word)
    }

    /// Init phase: owners publish initial positions.
    fn init_phase(&self) -> Vec<Vec<Op>> {
        (0..self.params.procs)
            .map(|p| {
                let mut ops = Vec::new();
                for i in 0..self.counts[p] {
                    let b = self.first_body[p] + i;
                    for w in 0..3 {
                        ops.push(Op::Write {
                            addr: self.body_arr.addr(p, i, w),
                            value: self.pos[b][w].to_bits(),
                        });
                    }
                }
                ops.push(Op::Barrier);
                ops
            })
            .collect()
    }

    /// Phase A: rebuild the tree natively; cell writers (round-robin over
    /// internal cells) publish each cell's center of mass and mass.
    fn build_phase(&mut self) -> Vec<Vec<Op>> {
        let tree = BhTree::build(&self.pos, &self.mass);
        let slots = tree.cell_slots();
        assert!(
            slots.len() <= self.cell_arr.len(),
            "tree cell count exceeded the reserved shared array"
        );
        let mut slot_of_node = vec![-1i32; tree.nodes.len()];
        for (slot, node) in slots.iter().enumerate() {
            slot_of_node[*node] = slot as i32;
        }
        let procs = self.params.procs;
        let mut chunks: Vec<Vec<Op>> = (0..procs).map(|_| Vec::new()).collect();
        for (slot, node) in slots.iter().enumerate() {
            let writer = slot % procs;
            if let BhNode::Cell { com, mass, .. } = &tree.nodes[*node] {
                let ops = &mut chunks[writer];
                ops.push(Op::Compute(BUILD_COMPUTE));
                for (w, v) in [com[0], com[1], com[2], *mass].into_iter().enumerate() {
                    ops.push(Op::Write { addr: self.cell_arr.addr(slot, w), value: v.to_bits() });
                }
            }
        }
        for ops in &mut chunks {
            ops.push(Op::Barrier);
        }
        self.tree = Some(tree);
        self.slot_of_node = slot_of_node;
        chunks
    }

    /// Phase B: per-body force computation via tree traversal.
    /// Returns the ops and natively accumulates accelerations.
    fn force_phase(&mut self) -> (Vec<Vec<Op>>, Vec<[f64; 3]>) {
        let tree = self.tree.as_ref().expect("build phase ran");
        let procs = self.params.procs;
        let theta2 = self.params.theta * self.params.theta;
        let mut accels = vec![[0.0f64; 3]; self.pos.len()];
        let mut chunks: Vec<Vec<Op>> = (0..procs).map(|_| Vec::new()).collect();
        for p in 0..procs {
            let ops = &mut chunks[p];
            for i in 0..self.counts[p] {
                let b = self.first_body[p] + i;
                let bp = self.pos[b];
                let mut acc = [0.0f64; 3];
                // Iterative traversal.
                let mut stack = vec![0usize];
                while let Some(node) = stack.pop() {
                    ops.push(Op::Compute(VISIT_COMPUTE));
                    match &tree.nodes[node] {
                        BhNode::Leaf(ob) => {
                            let ob = *ob as usize;
                            if ob == b {
                                continue;
                            }
                            // Direct interaction: read the other body's
                            // first position word (rest of the record is
                            // charged as compute).
                            if self.owner_of(ob) != p {
                                ops.push(Op::Read {
                                    addr: self.body_addr(ob, 0),
                                    expect: Some(self.pos[ob][0].to_bits()),
                                });
                            }
                            ops.push(Op::Compute(BODY_COMPUTE));
                            add_gravity(&mut acc, &bp, &self.pos[ob], self.mass[ob]);
                        }
                        BhNode::Cell { half, children, com, mass, .. } => {
                            if *mass <= 0.0 {
                                continue;
                            }
                            let d2 = dist2(&bp, com).max(1e-12);
                            let size = 2.0 * half;
                            if size * size < theta2 * d2 {
                                // Accept the cell: read its center of
                                // mass x and mass words from the shared
                                // cell array.
                                let slot = self.slot_of_node[node] as usize;
                                ops.push(Op::Read {
                                    addr: self.cell_arr.addr(slot, 0),
                                    expect: Some(com[0].to_bits()),
                                });
                                ops.push(Op::Read {
                                    addr: self.cell_arr.addr(slot, 3),
                                    expect: Some(mass.to_bits()),
                                });
                                ops.push(Op::Compute(CELL_COMPUTE));
                                add_gravity(&mut acc, &bp, com, *mass);
                            } else {
                                for c in children.iter().filter(|c| **c >= 0) {
                                    stack.push(*c as usize);
                                }
                            }
                        }
                    }
                }
                accels[b] = acc;
            }
            ops.push(Op::Barrier);
        }
        (chunks, accels)
    }

    /// Phase C: leapfrog update; owners publish new positions.
    fn update_phase(&mut self, accels: &[[f64; 3]]) -> Vec<Vec<Op>> {
        let dt = self.params.dt;
        let procs = self.params.procs;
        let mut chunks = Vec::with_capacity(procs);
        for p in 0..procs {
            let mut ops = Vec::new();
            for i in 0..self.counts[p] {
                let b = self.first_body[p] + i;
                for d in 0..3 {
                    self.vel[b][d] += accels[b][d] * dt;
                    self.pos[b][d] += self.vel[b][d] * dt;
                }
                ops.push(Op::Compute(12));
                for w in 0..3 {
                    ops.push(Op::Write {
                        addr: self.body_arr.addr(p, i, w),
                        value: self.pos[b][w].to_bits(),
                    });
                }
            }
            ops.push(Op::Barrier);
            chunks.push(ops);
        }
        chunks
    }
}

fn dist2(a: &[f64; 3], b: &[f64; 3]) -> f64 {
    let mut s = 0.0;
    for d in 0..3 {
        let x = a[d] - b[d];
        s += x * x;
    }
    s
}

fn add_gravity(acc: &mut [f64; 3], at: &[f64; 3], from: &[f64; 3], mass: f64) {
    let d2 = dist2(at, from) + SOFTENING;
    let inv = mass / (d2 * d2.sqrt());
    for d in 0..3 {
        acc[d] += (from[d] - at[d]) * inv;
    }
}

impl PhasedApp for Barnes {
    fn layout(&self) -> Layout {
        let mut l = Layout::new();
        l.add(self.body_arr.region());
        l.add(self.cell_arr.region());
        l
    }

    fn procs(&self) -> usize {
        self.params.procs
    }

    fn next_phase(&mut self) -> Option<Vec<Vec<Op>>> {
        let phase = self.phase;
        self.phase += 1;
        if phase == 0 {
            return Some(self.init_phase());
        }
        let step = phase - 1;
        let iteration = step / 3;
        if iteration >= self.params.iterations {
            return None;
        }
        match step % 3 {
            0 => Some(self.build_phase()),
            1 => {
                let (chunks, accels) = self.force_phase();
                // Stash accelerations for the update phase by applying
                // them now; phase C publishes the results.
                self.pending_accels = Some(accels);
                Some(chunks)
            }
            _ => {
                let accels = self.pending_accels.take().expect("force phase ran");
                Some(self.update_phase(&accels))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> BarnesParams {
        BarnesParams { bodies: 64, iterations: 2, theta: 0.8, dt: 0.05, procs: 4, seed: 5 }
    }

    #[test]
    fn tree_holds_every_body_once() {
        let b = Barnes::new(small());
        let tree = BhTree::build(&b.pos, &b.mass);
        let mut seen = [false; 64];
        for n in &tree.nodes {
            if let BhNode::Leaf(i) = n {
                assert!(!seen[*i as usize], "body {i} appears twice");
                seen[*i as usize] = true;
            }
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn root_mass_is_total_mass() {
        let b = Barnes::new(small());
        let tree = BhTree::build(&b.pos, &b.mass);
        if let BhNode::Cell { mass, .. } = &tree.nodes[0] {
            assert!((mass - 1.0).abs() < 1e-9);
        } else {
            panic!("root is not a cell");
        }
    }

    #[test]
    fn phases_cycle_build_force_update() {
        let mut b = Barnes::new(small());
        let mut n = 0;
        let mut interactions = 0;
        let charges = [Op::Compute(BODY_COMPUTE), Op::Compute(CELL_COMPUTE)];
        while let Some(phase) = b.next_phase() {
            n += 1;
            interactions += phase.iter().flatten().filter(|op| charges.contains(op)).count();
        }
        assert_eq!(n, 1 + 3 * 2);
        assert!(interactions > 0);
    }

    #[test]
    fn owner_lookup() {
        let b = Barnes::new(small());
        assert_eq!(b.owner_of(0), 0);
        assert_eq!(b.owner_of(15), 0);
        assert_eq!(b.owner_of(16), 1);
        assert_eq!(b.owner_of(63), 3);
    }

    #[test]
    fn force_phase_reads_cells_written_in_build_phase() {
        let mut b = Barnes::new(small());
        let _ = b.next_phase(); // init
        let build = b.next_phase().unwrap(); // build
        let force = b.next_phase().unwrap(); // force
        let written: std::collections::HashMap<u64, u64> = build
            .iter()
            .flatten()
            .filter_map(|op| match op {
                Op::Write { addr, value } => Some((addr.raw(), *value)),
                _ => None,
            })
            .collect();
        let cell_base = b.cell_arr.addr(0, 0).raw();
        for op in force.iter().flatten() {
            if let Op::Read { addr, expect } = op {
                if addr.raw() >= cell_base {
                    let expect = expect.expect("cell reads are verified");
                    assert_eq!(written.get(&addr.raw()), Some(&expect));
                }
            }
        }
    }

    #[test]
    fn bodies_move_between_iterations() {
        let mut b = Barnes::new(small());
        let p0 = b.pos.clone();
        for _ in 0..4 {
            b.next_phase();
        }
        assert_ne!(b.pos, p0);
    }
}
