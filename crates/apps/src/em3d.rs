//! EM3D: electromagnetic wave propagation on a static bipartite graph
//! (paper Section 4, Program 1; data sets in Table 3).
//!
//! E nodes hold electric-field values, H nodes magnetic-field values.
//! Each iteration first recomputes every E value as a weighted sum of its
//! neighboring H values, then every H value from the new E values. Nodes
//! are split evenly across processors (owners-compute); the fraction of
//! edges whose source lives on a *remote* processor is the key knob —
//! Figure 4 sweeps it from 0% to 50%.
//!
//! Value arrays are shared (one 64-bit word per graph node, placed on the
//! owner's pages); edge lists and weights are private per processor and
//! are modeled as compute cycles, as in the Split-C original where they
//! are local arrays.
//!
//! Two synchronization modes:
//! - [`SyncMode::Barrier`]: plain barriers between phases — the
//!   transparent-shared-memory version (runs on DirNNB and on Stache);
//! - [`SyncMode::Flush`]: the custom delayed-update protocol's phase
//!   flush (`tt-stache::custom`), with hardware barriers only around the
//!   first iteration while the (static) access pattern is discovered.

use tt_base::workload::{Layout, Op};
use tt_base::DetRng;

use crate::alloc::{even_split, ArenaPlanner, OwnedArray};
use crate::phased::PhasedApp;
use crate::SyncMode;

/// Page modes matching `tt_stache::custom::{EM3D_E_MODE, EM3D_H_MODE}`.
/// Redeclared here so the apps crate does not depend on the protocol
/// crate; an integration test asserts they stay equal.
pub const E_MODE: u8 = 2;
/// See [`E_MODE`].
pub const H_MODE: u8 = 3;

/// The protocol-call op code for the phase flush (must equal
/// `tt_stache::custom::FLUSH_OP`).
pub const FLUSH_OP: u32 = 1;

/// EM3D parameters.
#[derive(Clone, Debug)]
pub struct Em3dParams {
    /// Total graph nodes (half E, half H).
    pub graph_nodes: usize,
    /// In-degree of every node.
    pub degree: usize,
    /// Fraction of edges whose source node is remote (Figure 4 x-axis).
    pub pct_remote: f64,
    /// Iterations to simulate.
    pub iterations: usize,
    /// Processors.
    pub procs: usize,
    /// Graph-generation seed.
    pub seed: u64,
    /// Synchronization mode: under [`SyncMode::Flush`], hardware
    /// barriers only around iteration 0.
    pub sync: SyncMode,
}

impl Em3dParams {
    /// The Table 3 data set.
    pub fn table3(set: crate::DataSet, procs: usize) -> Self {
        let (graph_nodes, degree) = match set {
            crate::DataSet::Small => (64_000, 10),
            crate::DataSet::Large => (192_000, 15),
        };
        Em3dParams {
            graph_nodes,
            degree,
            pct_remote: 0.10,
            iterations: 4,
            procs,
            seed: 0xE3D,
            sync: SyncMode::Barrier,
        }
    }
}

/// One directed edge: value flows from `(src_owner, src_idx)` of the
/// other kind into the destination node.
#[derive(Clone, Copy, Debug)]
struct Edge {
    src_owner: u16,
    src_idx: u32,
    weight: f64,
}

/// Per-kind (E or H) graph side.
struct Side {
    /// Shared value array, one word per node, owner-placed.
    vals: OwnedArray,
    /// Native values, indexed `[owner][idx]`.
    native: Vec<Vec<f64>>,
    /// Edges into each node: `edges[owner][idx]` lists sources of the
    /// *other* kind.
    edges: Vec<Vec<Vec<Edge>>>,
    mode: u8,
}

/// The EM3D workload (see module docs).
pub struct Em3d {
    params: Em3dParams,
    e: Side,
    h: Side,
    layout: Layout,
    /// 0 = init; then pairs of (E phase, H phase) per iteration.
    phase: usize,
    total_edges: usize,
}

/// Cycles of private computation per edge (weight load, multiply,
/// subtract — the Split-C inner loop).
const EDGE_COMPUTE: u32 = 4;
/// Cycles of per-node loop overhead.
const NODE_COMPUTE: u32 = 6;

impl Em3d {
    /// Builds the graph and plans the shared arrays.
    pub fn new(params: Em3dParams) -> Self {
        assert!(params.procs >= 1);
        assert!((0.0..=1.0).contains(&params.pct_remote));
        let mut rng = DetRng::new(params.seed);
        let per_kind = params.graph_nodes / 2;
        let counts = even_split(per_kind, params.procs);
        let mut planner = ArenaPlanner::new();
        let build_side = |planner: &mut ArenaPlanner, rng: &mut DetRng, mode: u8| {
            let vals = OwnedArray::plan(planner, &counts, 1, mode);
            let native: Vec<Vec<f64>> = counts
                .iter()
                .map(|&c| (0..c).map(|_| rng.unit_f64()).collect())
                .collect();
            Side {
                vals,
                native,
                edges: Vec::new(),
                mode,
            }
        };
        let mut e = build_side(&mut planner, &mut rng, E_MODE);
        let mut h = build_side(&mut planner, &mut rng, H_MODE);

        // Edges: destinations of one kind draw sources from the other.
        let mut total_edges = 0usize;
        let mut gen_edges = |rng: &mut DetRng, src_counts: &[usize]| -> Vec<Vec<Vec<Edge>>> {
            counts
                .iter()
                .enumerate()
                .map(|(owner, &c)| {
                    (0..c)
                        .map(|_| {
                            (0..params.degree)
                                .map(|_| {
                                    let src_owner = if params.procs > 1
                                        && rng.chance(params.pct_remote)
                                    {
                                        // A uniformly random *other* processor.
                                        let mut o = rng.below_usize(params.procs - 1);
                                        if o >= owner {
                                            o += 1;
                                        }
                                        o
                                    } else {
                                        owner
                                    };
                                    total_edges += 1;
                                    Edge {
                                        src_owner: src_owner as u16,
                                        src_idx: rng
                                            .below_usize(src_counts[src_owner].max(1))
                                            as u32,
                                        weight: 0.5 + rng.unit_f64(),
                                    }
                                })
                                .collect()
                        })
                        .collect()
                })
                .collect()
        };
        e.edges = gen_edges(&mut rng, &counts); // E reads H
        h.edges = gen_edges(&mut rng, &counts); // H reads E

        let mut layout = Layout::new();
        layout.add(e.vals.region());
        layout.add(h.vals.region());
        Em3d {
            params,
            e,
            h,
            layout,
            phase: 0,
            total_edges,
        }
    }

    /// Total directed edges in the graph (both kinds).
    pub fn total_edges(&self) -> usize {
        self.total_edges
    }

    /// The parameters this instance was built with.
    pub fn params(&self) -> &Em3dParams {
        &self.params
    }

    /// Generates the init phase: owners write their initial values.
    fn init_phase(&self) -> Vec<Vec<Op>> {
        (0..self.params.procs)
            .map(|p| {
                let mut ops = Vec::new();
                for side in [&self.e, &self.h] {
                    for i in 0..side.vals.count(p) {
                        ops.push(Op::Write {
                            addr: side.vals.addr(p, i, 0),
                            value: side.native[p][i].to_bits(),
                        });
                    }
                }
                ops.push(Op::Barrier);
                ops
            })
            .collect()
    }

    /// Generates one compute phase (`dst` = E reading H, or H reading E)
    /// and applies the native update. `first_iteration` adds the warmup
    /// barrier in flush mode.
    fn compute_phase(&mut self, kind_e: bool, first_iteration: bool) -> Vec<Vec<Op>> {
        let procs = self.params.procs;
        let (dst, src) = if kind_e {
            (&self.e, &self.h)
        } else {
            (&self.h, &self.e)
        };
        let mut chunks: Vec<Vec<Op>> = Vec::with_capacity(procs);
        let mut new_vals: Vec<Vec<f64>> = Vec::with_capacity(procs);
        for p in 0..procs {
            let mut ops = Vec::new();
            let mut news = Vec::with_capacity(dst.vals.count(p));
            for i in 0..dst.vals.count(p) {
                let old = dst.native[p][i];
                // n->value -= n->h_nodes[k]->value * n->weights[k]
                let mut acc = old;
                ops.push(Op::Read {
                    addr: dst.vals.addr(p, i, 0),
                    expect: Some(old.to_bits()),
                });
                for edge in &dst.edges[p][i] {
                    let sv = src.native[edge.src_owner as usize][edge.src_idx as usize];
                    acc -= sv * edge.weight;
                    ops.push(Op::Read {
                        addr: src.vals.addr(edge.src_owner as usize, edge.src_idx as usize, 0),
                        expect: Some(sv.to_bits()),
                    });
                }
                // Keep values bounded so long runs stay finite.
                let newv = acc * 0.25;
                ops.push(Op::Compute(
                    NODE_COMPUTE + EDGE_COMPUTE * dst.edges[p][i].len() as u32,
                ));
                ops.push(Op::Write {
                    addr: dst.vals.addr(p, i, 0),
                    value: newv.to_bits(),
                });
                news.push(newv);
            }
            match self.params.sync {
                SyncMode::Barrier => ops.push(Op::Barrier),
                SyncMode::Flush => {
                    ops.push(Op::UserCall {
                        op: FLUSH_OP,
                        arg: dst.mode as u64,
                    });
                    if first_iteration {
                        ops.push(Op::Barrier);
                    }
                }
            }
            chunks.push(ops);
            new_vals.push(news);
        }
        let dst = if kind_e { &mut self.e } else { &mut self.h };
        dst.native = new_vals;
        chunks
    }
}

impl PhasedApp for Em3d {
    fn layout(&self) -> Layout {
        self.layout.clone()
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
        let iteration = step / 2;
        if iteration >= self.params.iterations {
            return None;
        }
        let kind_e = step.is_multiple_of(2);
        Some(self.compute_phase(kind_e, iteration == 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_base::workload::Workload;
    use crate::phased::PhasedWorkload;

    fn small() -> Em3dParams {
        Em3dParams {
            graph_nodes: 200,
            degree: 3,
            pct_remote: 0.3,
            iterations: 2,
            procs: 4,
            seed: 1,
            sync: SyncMode::Barrier,
        }
    }

    #[test]
    fn edge_sources_respect_pct_remote_zero_and_one() {
        let mut p = small();
        p.pct_remote = 0.0;
        let app = Em3d::new(p);
        for (owner, per_node) in app.e.edges.iter().enumerate() {
            for edges in per_node {
                for e in edges {
                    assert_eq!(e.src_owner as usize, owner);
                }
            }
        }
        let mut p = small();
        p.pct_remote = 1.0;
        let app = Em3d::new(p);
        for (owner, per_node) in app.h.edges.iter().enumerate() {
            for edges in per_node {
                for e in edges {
                    assert_ne!(e.src_owner as usize, owner);
                }
            }
        }
    }

    #[test]
    fn phase_count_is_init_plus_two_per_iteration() {
        let mut app = Em3d::new(small());
        let mut phases = 0;
        while app.next_phase().is_some() {
            phases += 1;
        }
        assert_eq!(phases, 1 + 2 * 2);
    }

    #[test]
    fn total_edges_matches_degree() {
        let app = Em3d::new(small());
        assert_eq!(app.total_edges(), 200 * 3);
    }

    #[test]
    fn flush_mode_emits_user_calls_and_warmup_barriers() {
        let mut p = small();
        p.sync = SyncMode::Flush;
        let mut app = Em3d::new(p);
        let _init = app.next_phase().unwrap();
        let e_phase = app.next_phase().unwrap();
        let last_two: Vec<_> = e_phase[0].iter().rev().take(2).collect();
        assert_eq!(*last_two[0], Op::Barrier, "warmup barrier in iter 0");
        assert!(matches!(last_two[1], Op::UserCall { op: FLUSH_OP, .. }));
        // Second iteration's phases end with the flush only.
        let _h = app.next_phase().unwrap();
        let e2 = app.next_phase().unwrap();
        assert!(matches!(e2[0].last(), Some(Op::UserCall { .. })));
    }

    #[test]
    fn reads_expect_previous_phase_values() {
        let mut app = Em3d::new(small());
        let init = app.next_phase().unwrap();
        // Collect the values written at init for owner 0's h array.
        let h0: Vec<u64> = init[0]
            .iter()
            .filter_map(|op| match op {
                Op::Write { addr, value }
                    if addr.raw() >= app.h.vals.addr(0, 0, 0).raw() =>
                {
                    Some(*value)
                }
                _ => None,
            })
            .collect();
        assert!(!h0.is_empty());
        let e_phase = app.next_phase().unwrap();
        // Every read of owner-0 h values in the E phase expects one of
        // the values init wrote.
        for ops in &e_phase {
            for op in ops {
                if let Op::Read { addr, expect } = op {
                    if addr.raw() >= app.h.vals.addr(0, 0, 0).raw()
                        && addr.raw() <= app.h.vals.addr(0, app.h.vals.count(0) - 1, 0).raw()
                    {
                        assert!(h0.contains(&expect.unwrap()));
                    }
                }
            }
        }
    }

    #[test]
    fn workload_wrapper_round_trips() {
        let mut w = PhasedWorkload::new(Em3d::new(small()));
        assert_eq!(w.layout().regions.len(), 2);
        let mut total_ops = 0;
        for cpu in 0..4 {
            while let Some(chunk) = w.next_chunk(tt_base::NodeId::new(cpu)) {
                total_ops += chunk.len();
            }
        }
        assert!(total_ops > 200 * 3);
    }
}
