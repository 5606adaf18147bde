//! Ocean: hydrodynamic simulation of a 2-D cuboidal ocean basin
//! (SPLASH; Table 3 data sets 98×98 and 386×386).
//!
//! The SPLASH code relaxes a set of n×n grids with 5-point stencils
//! inside a multigrid solver. This reproduction keeps the part that
//! drives the memory system: row-block-partitioned Jacobi sweeps over a
//! pair of grids (read one, write the other, swap), whose only remote
//! traffic is the boundary rows between adjacent partitions, plus a
//! per-sweep global error reduction (each processor publishes a partial
//! sum; processor 0 combines them) that adds the original's
//! serialization point.
//!
//! Sharing pattern: large per-processor working sets (the Figure 3
//! capacity story — a 386×386 double grid is ~1.2 MB, far over every CPU
//! cache), nearest-neighbor boundary exchange, and producer-consumer
//! reduction.
//!
//! # Boundary-push mode
//!
//! [`SyncMode::Flush`] demonstrates that the paper's delayed-update idea
//! (Section 4) is not EM3D-specific: each band's *boundary rows* are
//! allocated on custom-mode pages, and a per-sweep flush pushes the
//! freshly written boundary values to the neighbors holding copies —
//! one update message per boundary block per sweep instead of the
//! invalidate/ack/request/response round trips of transparent shared
//! memory. Run it with `tt_stache::Em3dUpdateProtocol`.

use tt_base::workload::{Layout, Op};

use crate::alloc::{ArenaPlanner, OwnedArray};
use crate::phased::PhasedApp;
use crate::SyncMode;

/// Mode of grid 0's boundary pages (= the delayed-update protocol's
/// first custom mode).
pub(crate) const BOUNDARY_MODE_G0: u8 = crate::em3d::E_MODE;
/// Mode of grid 1's boundary pages.
pub(crate) const BOUNDARY_MODE_G1: u8 = crate::em3d::H_MODE;

/// Ocean parameters.
#[derive(Clone, Debug)]
pub struct OceanParams {
    /// Grid edge (points per side).
    pub n: usize,
    /// Jacobi sweeps to run.
    pub iterations: usize,
    /// Processors.
    pub procs: usize,
    /// Boundary synchronization mode: under [`SyncMode::Flush`] the
    /// boundary rows live on custom update pages and each sweep ends with
    /// a flush that pushes the new boundary values.
    pub sync: SyncMode,
}

impl OceanParams {
    /// The Table 3 data set.
    pub fn table3(set: crate::DataSet, procs: usize) -> Self {
        let n = match set {
            crate::DataSet::Small => 98,
            crate::DataSet::Large => 386,
        };
        OceanParams { n, iterations: 4, procs, sync: SyncMode::Barrier }
    }
}

/// Cycles of floating-point work per stencil point.
const POINT_COMPUTE: u32 = 8;
/// Cycles for a processor's part of the reduction bookkeeping.
const REDUCE_COMPUTE: u32 = 20;

/// Where a grid row lives.
#[derive(Clone, Copy, Debug)]
struct RowSlot {
    owner: usize,
    /// Index into the owner's interior (false) or boundary (true) array.
    boundary: bool,
    local_row: usize,
}

/// The Ocean workload (see module docs).
pub struct Ocean {
    params: OceanParams,
    /// Interior rows of the two grids, owner-placed, mode 0.
    grids: [OwnedArray; 2],
    /// Boundary rows of the two grids. In `Flush` mode these carry the
    /// delayed-update page modes; in `Barrier` mode they are ordinary
    /// pages (mode 0) and behave exactly like the interior.
    bounds: [OwnedArray; 2],
    /// Partial-sum slots, one per processor, owner-placed.
    partials: OwnedArray,
    /// Native grid values, `native[g][row * n + col]`.
    native: [Vec<f64>; 2],
    /// Row placement map.
    rows: Vec<RowSlot>,
    layout: Layout,
    phase: usize,
}

impl Ocean {
    /// Builds the grids and partition.
    pub fn new(params: OceanParams) -> Self {
        let n = params.n;
        assert!(n >= 4, "grid too small");
        let band = crate::alloc::even_split(n, params.procs);
        // Row map: the first and last row of each band are boundary rows
        // (read by the neighboring bands).
        let mut rows = Vec::with_capacity(n);
        let mut interior_counts = vec![0usize; params.procs];
        let mut boundary_counts = vec![0usize; params.procs];
        {
            let mut row = 0;
            for (owner, &r) in band.iter().enumerate() {
                for k in 0..r {
                    let boundary = k == 0 || k == r - 1;
                    let counts = if boundary { &mut boundary_counts } else { &mut interior_counts };
                    rows.push(RowSlot { owner, boundary, local_row: counts[owner] });
                    counts[owner] += 1;
                    row += 1;
                }
            }
            assert_eq!(row, n);
        }
        let interior_elems: Vec<usize> = interior_counts.iter().map(|&r| r * n).collect();
        let boundary_elems: Vec<usize> = boundary_counts.iter().map(|&r| r * n).collect();
        let (mode0, mode1) = match params.sync {
            SyncMode::Barrier => (0, 0),
            SyncMode::Flush => (BOUNDARY_MODE_G0, BOUNDARY_MODE_G1),
        };
        let mut planner = ArenaPlanner::new();
        let grids = [
            OwnedArray::plan(&mut planner, &interior_elems, 1, 0),
            OwnedArray::plan(&mut planner, &interior_elems, 1, 0),
        ];
        let bounds = [
            OwnedArray::plan(&mut planner, &boundary_elems, 1, mode0),
            OwnedArray::plan(&mut planner, &boundary_elems, 1, mode1),
        ];
        let partials = OwnedArray::plan(&mut planner, &vec![1; params.procs], 1, 0);
        // Deterministic initial field: a smooth-ish function of position.
        let init: Vec<f64> = (0..n * n)
            .map(|i| {
                let (r, c) = (i / n, i % n);
                ((r as f64) * 0.37).sin() + ((c as f64) * 0.21).cos()
            })
            .collect();
        let native = [init.clone(), init];
        let mut layout = Layout::new();
        layout.add(grids[0].region());
        layout.add(grids[1].region());
        layout.add(bounds[0].region());
        layout.add(bounds[1].region());
        layout.add(partials.region());
        Ocean { params, grids, bounds, partials, native, rows, layout, phase: 0 }
    }

    fn addr(&self, g: usize, row: usize, col: usize) -> tt_base::VAddr {
        let slot = self.rows[row];
        let arr = if slot.boundary { &self.bounds[g] } else { &self.grids[g] };
        arr.addr(slot.owner, slot.local_row * self.params.n + col, 0)
    }

    /// Init phase: owners write their rows of both grids.
    fn init_phase(&self) -> Vec<Vec<Op>> {
        let n = self.params.n;
        (0..self.params.procs)
            .map(|p| {
                let mut ops = Vec::new();
                for g in 0..2 {
                    for row in 0..n {
                        if self.rows[row].owner != p {
                            continue;
                        }
                        for col in 0..n {
                            ops.push(Op::Write {
                                addr: self.addr(g, row, col),
                                value: self.native[g][row * n + col].to_bits(),
                            });
                        }
                    }
                }
                ops.push(Op::Write { addr: self.partials.addr(p, 0, 0), value: 0 });
                ops.push(Op::Barrier);
                ops
            })
            .collect()
    }

    /// One Jacobi sweep reading grid `src` and writing grid `dst`,
    /// followed by the partial-sum publication; a trailing reduction lets
    /// processor 0 combine the partials.
    fn sweep_phase(&mut self, src: usize, dst: usize) -> Vec<Vec<Op>> {
        let n = self.params.n;
        let mut chunks = Vec::with_capacity(self.params.procs);
        let mut new_grid = self.native[dst].clone();
        let mut partial_bits = Vec::with_capacity(self.params.procs);
        for p in 0..self.params.procs {
            let mut ops = Vec::new();
            let mut partial = 0.0f64;
            for row in 1..n - 1 {
                if self.rows[row].owner != p {
                    continue;
                }
                for col in 1..n - 1 {
                    let a = &self.native[src];
                    let center = a[row * n + col];
                    let north = a[(row - 1) * n + col];
                    let south = a[(row + 1) * n + col];
                    let west = a[row * n + col - 1];
                    let east = a[row * n + col + 1];
                    for (ar, ac, v) in [
                        (row, col, center),
                        (row - 1, col, north),
                        (row + 1, col, south),
                        (row, col - 1, west),
                        (row, col + 1, east),
                    ] {
                        ops.push(Op::Read {
                            addr: self.addr(src, ar, ac),
                            expect: Some(v.to_bits()),
                        });
                    }
                    let newv = 0.2 * (center + north + south + west + east);
                    partial += (newv - center).abs();
                    ops.push(Op::Compute(POINT_COMPUTE));
                    ops.push(Op::Write { addr: self.addr(dst, row, col), value: newv.to_bits() });
                    new_grid[row * n + col] = newv;
                }
            }
            ops.push(Op::Compute(REDUCE_COMPUTE));
            ops.push(Op::Write { addr: self.partials.addr(p, 0, 0), value: partial.to_bits() });
            if self.params.sync == SyncMode::Flush {
                // Push the dst grid's freshly written boundary rows to
                // whoever holds copies, and wait for the updates of the
                // boundary blocks we hold.
                let mode = if dst == 0 { BOUNDARY_MODE_G0 } else { BOUNDARY_MODE_G1 };
                ops.push(Op::UserCall { op: crate::em3d::FLUSH_OP, arg: mode as u64 });
            }
            ops.push(Op::Barrier);
            chunks.push(ops);
            partial_bits.push(partial.to_bits());
        }
        self.native[dst] = new_grid;
        // Reduction: processor 0 reads every partial after the barrier.
        for (p, chunk) in chunks.iter_mut().enumerate() {
            if p == 0 {
                for (q, &bits) in partial_bits.iter().enumerate() {
                    chunk.push(Op::Read { addr: self.partials.addr(q, 0, 0), expect: Some(bits) });
                }
                chunk.push(Op::Compute(REDUCE_COMPUTE * self.params.procs as u32));
            }
            chunk.push(Op::Barrier);
        }
        chunks
    }
}

impl PhasedApp for Ocean {
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
        let sweep = phase - 1;
        if sweep >= self.params.iterations {
            return None;
        }
        let (src, dst) = if sweep.is_multiple_of(2) { (0, 1) } else { (1, 0) };
        Some(self.sweep_phase(src, dst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> OceanParams {
        OceanParams { n: 16, iterations: 2, procs: 4, sync: SyncMode::Barrier }
    }

    #[test]
    fn rows_are_block_partitioned() {
        let o = Ocean::new(small());
        assert_eq!(o.rows[0].owner, 0);
        assert_eq!(o.rows[3].owner, 0);
        assert_eq!(o.rows[4].owner, 1);
        assert_eq!(o.rows[15].owner, 3);
    }

    #[test]
    fn band_edges_are_boundary_rows() {
        let o = Ocean::new(small());
        // Bands of 4 rows: rows 0,3 | 4,7 | 8,11 | 12,15 are boundaries.
        for row in 0..16 {
            let expect = matches!(row % 4, 0 | 3);
            assert_eq!(o.rows[row].boundary, expect, "row {row}");
        }
    }

    #[test]
    fn phase_structure() {
        let mut o = Ocean::new(small());
        let mut phases = 0;
        while o.next_phase().is_some() {
            phases += 1;
        }
        assert_eq!(phases, 1 + 2);
    }

    #[test]
    fn sweep_reads_cross_partition_boundaries() {
        let mut o = Ocean::new(small());
        let _ = o.next_phase();
        let sweep = o.next_phase().unwrap();
        // Processor 1 (rows 4..8) must read rows 3 and 8, owned by 0 and 2.
        let foreign = [o.addr(0, 3, 5).page(), o.addr(0, 8, 5).page()];
        let crosses = sweep[1].iter().any(|op| match op {
            Op::Read { addr, .. } => foreign.contains(&addr.page()),
            _ => false,
        });
        assert!(crosses);
    }

    #[test]
    fn push_mode_marks_boundary_pages_and_emits_flushes() {
        let mut p = small();
        p.sync = SyncMode::Flush;
        let mut o = Ocean::new(p);
        let modes: Vec<u8> = o.layout().regions.iter().map(|r| r.mode).collect();
        assert_eq!(modes, vec![0, 0, BOUNDARY_MODE_G0, BOUNDARY_MODE_G1, 0]);
        let _ = o.next_phase();
        let sweep = o.next_phase().unwrap();
        assert!(sweep[0]
            .iter()
            .any(|op| matches!(op, Op::UserCall { op: f, .. } if *f == crate::em3d::FLUSH_OP)));
    }

    #[test]
    fn barrier_mode_keeps_everything_mode_zero() {
        let o = Ocean::new(small());
        assert!(o.layout().regions.iter().all(|r| r.mode == 0));
    }

    #[test]
    fn jacobi_native_update_is_applied() {
        let mut o = Ocean::new(small());
        let before = o.native[1].clone();
        let _ = o.next_phase();
        let _ = o.next_phase();
        assert_ne!(o.native[1], before, "sweep wrote grid 1");
    }

    #[test]
    fn reduction_is_done_by_processor_zero() {
        let mut o = Ocean::new(small());
        let _ = o.next_phase();
        let sweep = o.next_phase().unwrap();
        let partial_base = o.partials.addr(0, 0, 0).raw();
        let count = |ops: &Vec<Op>| {
            ops.iter()
                .filter(|op| matches!(op, Op::Read { addr, .. } if addr.raw() >= partial_base))
                .count()
        };
        assert_eq!(count(&sweep[0]), 4);
        assert_eq!(count(&sweep[1]), 0);
    }

    #[test]
    fn sweep_writes_every_interior_point_once() {
        let mut o = Ocean::new(small());
        let _ = o.next_phase();
        let sweep = o.next_phase().unwrap();
        let partial_base = o.partials.addr(0, 0, 0).raw();
        let writes = sweep
            .iter()
            .flatten()
            .filter(|op| matches!(op, Op::Write { addr, .. } if addr.raw() < partial_base))
            .count();
        assert_eq!(writes, 14 * 14);
    }
}
