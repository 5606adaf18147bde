//! Appbt: the NAS BT (block-tridiagonal) computational-fluid-dynamics
//! kernel (Table 3 data sets 12×12×12 and 24×24×24).
//!
//! BT solves multiple independent systems of block-tridiagonal equations
//! with 5×5 blocks: each iteration computes a right-hand side from the
//! 7-point stencil of 5-element solution vectors, then performs line
//! solves along x, y, and z. The grid is partitioned in two dimensions —
//! a `py × pz` processor grid over (y, z) bands, so even the 12³ small
//! set keeps all 32 processors busy. x lines are always processor-local;
//! the y and z line solves and the rhs stencil exchange boundary planes
//! with neighboring bands.
//!
//! Simplifications (documented per DESIGN.md): the 5×5 block LU math is
//! charged as compute cycles (its operands are the 5-word vectors that
//! *are* simulated); and the y/z line solves' software pipelines are
//! approximated by a boundary-plane exchange phase followed by a local
//! sweep — the same communication volume without the pipeline
//! serialization.

use tt_base::workload::{Layout, Op};

use crate::alloc::{even_split, ArenaPlanner, OwnedArray};
use crate::phased::PhasedApp;

/// Words per grid cell (the 5-element solution/rhs vectors).
const VEC: usize = 5;
/// Cycles for the rhs stencil arithmetic per cell.
const RHS_COMPUTE: u32 = 60;
/// Cycles for one 5×5 block-tridiagonal elimination step per cell.
const SOLVE_COMPUTE: u32 = 150;

/// Appbt parameters.
#[derive(Clone, Debug)]
pub struct AppbtParams {
    /// Grid edge.
    pub n: usize,
    /// Iterations.
    pub iterations: usize,
    /// Processors.
    pub procs: usize,
}

impl AppbtParams {
    /// The Table 3 data set.
    pub fn table3(set: crate::DataSet, procs: usize) -> Self {
        let n = match set {
            crate::DataSet::Small => 12,
            crate::DataSet::Large => 24,
        };
        AppbtParams { n, iterations: 3, procs }
    }
}

/// The processor grid: `py * pz == procs`, as square as `procs` allows.
fn proc_grid(procs: usize) -> (usize, usize) {
    let mut py = (procs as f64).sqrt() as usize;
    while py > 1 && !procs.is_multiple_of(py) {
        py -= 1;
    }
    (py.max(1), procs / py.max(1))
}

/// The sweep dimensions with cross-band coupling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BandDim {
    Y,
    Z,
}

/// The Appbt workload (see module docs).
pub struct Appbt {
    params: AppbtParams,
    /// Solution vectors: 5 words per cell, band-placed.
    u: OwnedArray,
    /// Right-hand sides: 5 words per cell, band-placed.
    rhs: OwnedArray,
    /// Native state, indexed `[cell][word]` with `cell = (z*n + y)*n + x`.
    u_native: Vec<[f64; VEC]>,
    rhs_native: Vec<[f64; VEC]>,
    /// Bands in z of the processor grid (owner = `by * pz + bz`).
    pz: usize,
    /// First row / rows per y-band.
    first_y: Vec<usize>,
    rows_y: Vec<usize>,
    /// First plane / planes per z-band.
    first_z: Vec<usize>,
    planes_z: Vec<usize>,
    layout: Layout,
    phase: usize,
}

impl Appbt {
    /// Builds the grid and the 2-D partition.
    pub fn new(params: AppbtParams) -> Self {
        let n = params.n;
        assert!(n >= 4);
        let (py, pz) = proc_grid(params.procs);
        let rows_y = even_split(n, py);
        let planes_z = even_split(n, pz);
        let cum = |v: &[usize]| {
            let mut first = Vec::with_capacity(v.len());
            let mut acc = 0;
            for &x in v {
                first.push(acc);
                acc += x;
            }
            first
        };
        let first_y = cum(&rows_y);
        let first_z = cum(&planes_z);
        // counts[owner] with owner = by * pz + bz.
        let mut counts = Vec::with_capacity(params.procs);
        for by in 0..py {
            for bz in 0..pz {
                counts.push(rows_y[by] * planes_z[bz] * n);
            }
        }
        let mut planner = ArenaPlanner::new();
        let u = OwnedArray::plan(&mut planner, &counts, VEC, 0);
        let rhs = OwnedArray::plan(&mut planner, &counts, VEC, 0);
        let cells = n * n * n;
        let u_native: Vec<[f64; VEC]> = (0..cells)
            .map(|c| {
                let (x, y, z) = (c % n, (c / n) % n, c / (n * n));
                let base = (x as f64 * 0.3).sin() + (y as f64 * 0.5).cos() + z as f64 * 0.01;
                [base, base * 0.5, base * 0.25, base * 0.125, base * 0.0625]
            })
            .collect();
        let rhs_native = vec![[0.0; VEC]; cells];
        let mut layout = Layout::new();
        layout.add(u.region());
        layout.add(rhs.region());
        Appbt {
            params,
            u,
            rhs,
            u_native,
            rhs_native,
            pz,
            first_y,
            rows_y,
            first_z,
            planes_z,
            layout,
            phase: 0,
        }
    }

    fn band_of(firsts: &[usize], sizes: &[usize], coord: usize) -> usize {
        for (b, &f) in firsts.iter().enumerate() {
            if coord < f + sizes[b] {
                return b;
            }
        }
        unreachable!("coordinate {coord} out of range")
    }

    fn owner_of(&self, y: usize, z: usize) -> usize {
        let by = Self::band_of(&self.first_y, &self.rows_y, y);
        let bz = Self::band_of(&self.first_z, &self.planes_z, z);
        by * self.pz + bz
    }

    /// The (y range, z range) owned by processor `p`.
    fn bands_of(&self, p: usize) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        let by = p / self.pz;
        let bz = p % self.pz;
        (
            self.first_y[by]..self.first_y[by] + self.rows_y[by],
            self.first_z[bz]..self.first_z[bz] + self.planes_z[bz],
        )
    }

    fn cell(&self, x: usize, y: usize, z: usize) -> usize {
        (z * self.params.n + y) * self.params.n + x
    }

    fn addr(&self, arr: &OwnedArray, x: usize, y: usize, z: usize, w: usize) -> tt_base::VAddr {
        let n = self.params.n;
        let owner = self.owner_of(y, z);
        let by = owner / self.pz;
        let bz = owner % self.pz;
        let local_y = y - self.first_y[by];
        let local_z = z - self.first_z[bz];
        let idx = (local_z * self.rows_y[by] + local_y) * n + x;
        arr.addr(owner, idx, w)
    }

    /// Emits verified reads of all five words of `arr` at a cell.
    fn read_vec(
        &self,
        ops: &mut Vec<Op>,
        arr: &OwnedArray,
        native: &[[f64; VEC]],
        x: usize,
        y: usize,
        z: usize,
    ) {
        let c = self.cell(x, y, z);
        for w in 0..VEC {
            ops.push(Op::Read {
                addr: self.addr(arr, x, y, z, w),
                expect: Some(native[c][w].to_bits()),
            });
        }
    }

    fn write_vec(
        &self,
        ops: &mut Vec<Op>,
        arr: &OwnedArray,
        value: &[f64; VEC],
        x: usize,
        y: usize,
        z: usize,
    ) {
        for w in 0..VEC {
            ops.push(Op::Write { addr: self.addr(arr, x, y, z, w), value: value[w].to_bits() });
        }
    }

    /// Init phase: owners publish initial u.
    fn init_phase(&self) -> Vec<Vec<Op>> {
        let n = self.params.n;
        (0..self.params.procs)
            .map(|p| {
                let (ys, zs) = self.bands_of(p);
                let mut ops = Vec::new();
                for z in zs {
                    for y in ys.clone() {
                        for x in 0..n {
                            let v = self.u_native[self.cell(x, y, z)];
                            self.write_vec(&mut ops, &self.u, &v, x, y, z);
                        }
                    }
                }
                ops.push(Op::Barrier);
                ops
            })
            .collect()
    }

    /// rhs phase: 7-point stencil over u (reads cross band boundaries in
    /// y and z), writing rhs. u is read-only here, so it is race-free.
    fn rhs_phase(&mut self) -> Vec<Vec<Op>> {
        let n = self.params.n;
        let mut chunks = Vec::with_capacity(self.params.procs);
        let mut new_rhs = self.rhs_native.clone();
        for p in 0..self.params.procs {
            let (ys, zs) = self.bands_of(p);
            let mut ops = Vec::new();
            for z in zs {
                for y in ys.clone() {
                    for x in 0..n {
                        self.read_vec(&mut ops, &self.u, &self.u_native, x, y, z);
                        let c = self.cell(x, y, z);
                        let mut acc = self.u_native[c];
                        let neighbors = [
                            (x.wrapping_sub(1), y, z),
                            (x + 1, y, z),
                            (x, y.wrapping_sub(1), z),
                            (x, y + 1, z),
                            (x, y, z.wrapping_sub(1)),
                            (x, y, z + 1),
                        ];
                        for (nx, ny, nz) in neighbors {
                            if nx < n && ny < n && nz < n {
                                self.read_vec(&mut ops, &self.u, &self.u_native, nx, ny, nz);
                                let nc = self.cell(nx, ny, nz);
                                for w in 0..VEC {
                                    acc[w] -= 0.05 * self.u_native[nc][w];
                                }
                            }
                        }
                        ops.push(Op::Compute(RHS_COMPUTE));
                        self.write_vec(&mut ops, &self.rhs, &acc, x, y, z);
                        new_rhs[c] = acc;
                    }
                }
            }
            ops.push(Op::Barrier);
            chunks.push(ops);
        }
        self.rhs_native = new_rhs;
        chunks
    }

    /// x line solve: entirely local, Gauss-Seidel along x. Reads of the
    /// previous line cell observe the value just written (native state is
    /// updated in emission order, so expectations match).
    fn x_sweep_phase(&mut self) -> Vec<Vec<Op>> {
        let n = self.params.n;
        let mut chunks = Vec::with_capacity(self.params.procs);
        for p in 0..self.params.procs {
            let (ys, zs) = self.bands_of(p);
            let mut ops = Vec::new();
            for z in zs {
                for y in ys.clone() {
                    for x in 0..n {
                        self.read_vec(&mut ops, &self.rhs, &self.rhs_native, x, y, z);
                        let c = self.cell(x, y, z);
                        let prev = if x > 0 {
                            self.read_vec(&mut ops, &self.u, &self.u_native, x - 1, y, z);
                            Some(self.u_native[self.cell(x - 1, y, z)])
                        } else {
                            None
                        };
                        let mut v = self.u_native[c];
                        for w in 0..VEC {
                            v[w] = 0.85 * v[w]
                                + 0.1 * self.rhs_native[c][w]
                                + prev.map_or(0.0, |pv| 0.05 * pv[w]);
                        }
                        ops.push(Op::Compute(SOLVE_COMPUTE));
                        self.write_vec(&mut ops, &self.u, &v, x, y, z);
                        self.u_native[c] = v;
                    }
                }
            }
            ops.push(Op::Barrier);
            chunks.push(ops);
        }
        chunks
    }

    /// Boundary-exchange phase before a banded line solve: each processor
    /// reads the predecessor band's boundary plane of u (race-free:
    /// nobody writes u in this phase).
    fn exchange_phase(&mut self, dim: BandDim) -> Vec<Vec<Op>> {
        let n = self.params.n;
        let mut chunks = Vec::with_capacity(self.params.procs);
        for p in 0..self.params.procs {
            let (ys, zs) = self.bands_of(p);
            let mut ops = Vec::new();
            match dim {
                BandDim::Y => {
                    if ys.start > 0 {
                        let y = ys.start - 1;
                        for z in zs {
                            for x in 0..n {
                                self.read_vec(&mut ops, &self.u, &self.u_native, x, y, z);
                            }
                        }
                        ops.push(Op::Compute(RHS_COMPUTE));
                    }
                }
                BandDim::Z => {
                    if zs.start > 0 {
                        let z = zs.start - 1;
                        for y in ys {
                            for x in 0..n {
                                self.read_vec(&mut ops, &self.u, &self.u_native, x, y, z);
                            }
                        }
                        ops.push(Op::Compute(RHS_COMPUTE));
                    }
                }
            }
            ops.push(Op::Barrier);
            chunks.push(ops);
        }
        chunks
    }

    /// A banded line solve (y or z): Gauss-Seidel along the dimension
    /// inside each band, coupled to the predecessor band through the
    /// boundary plane captured in the exchange phase.
    fn band_sweep_phase(&mut self, dim: BandDim) -> Vec<Vec<Op>> {
        let n = self.params.n;
        // Pre-phase values: cross-band coupling uses the exchanged plane.
        let boundary = self.u_native.clone();
        let mut chunks = Vec::with_capacity(self.params.procs);
        for p in 0..self.params.procs {
            let (ys, zs) = self.bands_of(p);
            let mut ops = Vec::new();
            for z in zs.clone() {
                for y in ys.clone() {
                    for x in 0..n {
                        self.read_vec(&mut ops, &self.rhs, &self.rhs_native, x, y, z);
                        let c = self.cell(x, y, z);
                        let (coord, start) = match dim {
                            BandDim::Y => (y, ys.start),
                            BandDim::Z => (z, zs.start),
                        };
                        let prev_cell = |d: usize| match dim {
                            BandDim::Y => self.cell(x, y - d, z),
                            BandDim::Z => self.cell(x, y, z - d),
                        };
                        let prev = if coord > start {
                            // In-band predecessor: just written this phase.
                            let (px, py_, pz_) = match dim {
                                BandDim::Y => (x, y - 1, z),
                                BandDim::Z => (x, y, z - 1),
                            };
                            self.read_vec(&mut ops, &self.u, &self.u_native, px, py_, pz_);
                            Some(self.u_native[prev_cell(1)])
                        } else if coord > 0 {
                            // Cross-band coupling via the exchanged plane
                            // (the shared read happened last phase).
                            Some(boundary[prev_cell(1)])
                        } else {
                            None
                        };
                        let mut v = self.u_native[c];
                        for w in 0..VEC {
                            v[w] = 0.85 * v[w]
                                + 0.1 * self.rhs_native[c][w]
                                + prev.map_or(0.0, |pv| 0.05 * pv[w]);
                        }
                        ops.push(Op::Compute(SOLVE_COMPUTE));
                        self.write_vec(&mut ops, &self.u, &v, x, y, z);
                        self.u_native[c] = v;
                    }
                }
            }
            ops.push(Op::Barrier);
            chunks.push(ops);
        }
        chunks
    }
}

impl PhasedApp for Appbt {
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
        let iteration = step / 6;
        if iteration >= self.params.iterations {
            return None;
        }
        match step % 6 {
            0 => Some(self.rhs_phase()),
            1 => Some(self.x_sweep_phase()),
            2 => Some(self.exchange_phase(BandDim::Y)),
            3 => Some(self.band_sweep_phase(BandDim::Y)),
            4 => Some(self.exchange_phase(BandDim::Z)),
            _ => Some(self.band_sweep_phase(BandDim::Z)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> AppbtParams {
        AppbtParams { n: 8, iterations: 2, procs: 8 }
    }

    #[test]
    fn processor_grid_factors() {
        assert_eq!(proc_grid(32), (4, 8));
        assert_eq!(proc_grid(16), (4, 4));
        assert_eq!(proc_grid(8), (2, 4));
        assert_eq!(proc_grid(1), (1, 1));
        assert_eq!(proc_grid(7), (1, 7));
    }

    #[test]
    fn every_processor_owns_cells_on_the_small_set() {
        // 12^3 over 32 processors: the 2-D partition keeps everyone busy.
        let a = Appbt::new(AppbtParams { n: 12, iterations: 1, procs: 32 });
        for p in 0..32 {
            let (ys, zs) = a.bands_of(p);
            assert!(!ys.is_empty() && !zs.is_empty(), "processor {p} idle");
        }
    }

    #[test]
    fn phase_structure_is_six_per_iteration() {
        let mut a = Appbt::new(small());
        let mut n = 0;
        while a.next_phase().is_some() {
            n += 1;
        }
        assert_eq!(n, 1 + 6 * 2);
    }

    #[test]
    fn banded_partition_assigns_each_cell_once() {
        let a = Appbt::new(small());
        let mut seen = vec![false; 8 * 8 * 8];
        for p in 0..8 {
            let (ys, zs) = a.bands_of(p);
            for z in zs {
                for y in ys.clone() {
                    for x in 0..8 {
                        let c = a.cell(x, y, z);
                        assert!(!seen[c], "cell owned twice");
                        seen[c] = true;
                    }
                }
            }
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn rhs_phase_reads_neighbor_bands() {
        let mut a = Appbt::new(small());
        let _ = a.next_phase();
        let rhs = a.next_phase().unwrap();
        // Some processor other than 0 must read data homed on another
        // band (its stencil crosses the partition).
        let (ys, zs) = a.bands_of(3);
        let own_pages: std::collections::HashSet<_> = zs
            .flat_map(|z| {
                let ys = ys.clone();
                ys.map(move |y| (y, z))
            })
            .map(|(y, z)| a.addr(&a.u, 0, y, z, 0).page())
            .collect();
        let crosses = rhs[3].iter().any(|op| match op {
            Op::Read { addr, .. } => !own_pages.contains(&addr.page()),
            _ => false,
        });
        assert!(crosses);
    }

    #[test]
    fn exchange_reads_only_for_non_first_bands() {
        let mut a = Appbt::new(small());
        for _ in 0..3 {
            a.next_phase();
        }
        let exch_y = a.next_phase().unwrap(); // phase index 3 = y exchange
        let reads = |ops: &Vec<Op>| ops.iter().filter(|o| matches!(o, Op::Read { .. })).count();
        // Processors in the first y band (owners 0..pz) have no
        // predecessor; others read a full boundary plane.
        let (_, pz) = (2, 4);
        assert_eq!(reads(&exch_y[0]), 0);
        assert!(reads(&exch_y[pz]) > 0);
    }

    #[test]
    fn native_values_evolve() {
        let mut a = Appbt::new(small());
        let u0 = a.u_native.clone();
        for _ in 0..7 {
            a.next_phase();
        }
        assert_ne!(a.u_native, u0);
    }
}
