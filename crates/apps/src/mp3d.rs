//! MP3D: rarefied hypersonic flow simulation (SPLASH; Table 3 data sets
//! 10,000 and 50,000 molecules).
//!
//! MP3D moves molecules through a 3-D array of *space cells*, colliding
//! molecules that share a cell. Molecules are statically partitioned
//! across processors, but space cells are touched by whichever processors
//! own the molecules currently inside them — the classic migratory,
//! write-shared pattern that made MP3D the stress test of its era.
//!
//! This reproduction keeps exactly that structure:
//!
//! - molecule records live on their owner's pages (three words of
//!   position read and rewritten every step — verified against the
//!   native motion integration);
//! - space cells live on round-robin pages and take a read-modify-write
//!   from every molecule that traverses them each step. Cell accesses
//!   race by design, so their reads carry no expected value (the paper's
//!   MP3D is likewise non-deterministic under concurrency).
//!
//! Collisions perturb velocities natively (deterministically seeded) and
//! are charged as compute cycles.

use tt_base::workload::{Layout, Op};
use tt_base::DetRng;

use crate::alloc::{even_split, ArenaPlanner, CyclicArray, OwnedArray};
use crate::phased::PhasedApp;

/// MP3D parameters.
#[derive(Clone, Debug)]
pub struct Mp3dParams {
    /// Number of molecules.
    pub molecules: usize,
    /// Space-cell grid edge (cells per side of the cube).
    pub cells_per_side: usize,
    /// Time steps.
    pub steps: usize,
    /// Processors.
    pub procs: usize,
    /// Motion/collision seed.
    pub seed: u64,
}

impl Mp3dParams {
    /// The Table 3 data set.
    pub fn table3(set: crate::DataSet, procs: usize) -> Self {
        let molecules = match set {
            crate::DataSet::Small => 10_000,
            crate::DataSet::Large => 50_000,
        };
        // SPLASH sizes the space array to a few molecules per cell.
        let cells_per_side = ((molecules as f64 / 4.0).cbrt().ceil() as usize).max(4);
        Mp3dParams {
            molecules,
            cells_per_side,
            steps: 4,
            procs,
            seed: 0x3D,
        }
    }
}

/// Cycles of computation per molecule move (position integration,
/// boundary-condition tests, cell indexing — the SPLASH `move` path is a
/// few hundred instructions).
const MOVE_COMPUTE: u32 = 120;
/// Extra cycles when a collision is processed.
const COLLIDE_COMPUTE: u32 = 90;

/// One molecule's native state.
#[derive(Clone, Copy, Debug)]
struct Molecule {
    pos: [f64; 3],
    vel: [f64; 3],
}

/// The MP3D workload (see module docs).
pub struct Mp3d {
    params: Mp3dParams,
    /// Molecule records: 3 words (packed position), owner-placed.
    mols: OwnedArray,
    /// Space cells: 1 word each, round-robin pages.
    cells: CyclicArray,
    /// Native molecule state, `[owner][idx]`.
    native: Vec<Vec<Molecule>>,
    rng: DetRng,
    phase: usize,
}

impl Mp3d {
    /// Builds the molecule population.
    pub fn new(params: Mp3dParams) -> Self {
        let counts = even_split(params.molecules, params.procs);
        let mut planner = ArenaPlanner::new();
        let mols = OwnedArray::plan(&mut planner, &counts, 3, 0);
        let n_cells = params.cells_per_side.pow(3);
        // A space cell is a full record (counts, sums) of one coherence
        // block, as in SPLASH; giving each cell its own block also
        // avoids false sharing the original does not have.
        let cells = CyclicArray::plan(&mut planner, n_cells, 4, 0);
        let mut rng = DetRng::new(params.seed);
        let native = counts
            .iter()
            .map(|&c| {
                (0..c)
                    .map(|_| Molecule {
                        pos: [rng.unit_f64(), rng.unit_f64(), rng.unit_f64()],
                        // A directed stream with thermal spread (the wind
                        // tunnel's inflow).
                        vel: [
                            0.02 + 0.01 * rng.unit_f64(),
                            0.01 * (rng.unit_f64() - 0.5),
                            0.01 * (rng.unit_f64() - 0.5),
                        ],
                    })
                    .collect()
            })
            .collect();
        Mp3d {
            params,
            mols,
            cells,
            native,
            rng,
            phase: 0,
        }
    }

    /// The parameters this instance was built with.
    pub fn params(&self) -> &Mp3dParams {
        &self.params
    }

    fn cell_of(&self, pos: &[f64; 3]) -> usize {
        let s = self.params.cells_per_side;
        let clamp = |x: f64| ((x * s as f64) as usize).min(s - 1);
        (clamp(pos[0]) * s + clamp(pos[1])) * s + clamp(pos[2])
    }

    /// Init phase: owners write their molecules' position words.
    fn init_phase(&self) -> Vec<Vec<Op>> {
        (0..self.params.procs)
            .map(|p| {
                let mut ops = Vec::new();
                for (i, m) in self.native[p].iter().enumerate() {
                    for w in 0..3 {
                        ops.push(Op::Write {
                            addr: self.mols.addr(p, i, w),
                            value: m.pos[w].to_bits(),
                        });
                    }
                }
                ops.push(Op::Barrier);
                ops
            })
            .collect()
    }

    /// One time step: every processor moves its molecules and
    /// read-modify-writes the space cells they land in.
    fn step_phase(&mut self, step: usize) -> Vec<Vec<Op>> {
        let procs = self.params.procs;
        let mut chunks = Vec::with_capacity(procs);
        for p in 0..procs {
            let mut ops = Vec::new();
            for i in 0..self.native[p].len() {
                let m = self.native[p][i];
                // Read the old position (verified).
                for w in 0..3 {
                    ops.push(Op::Read {
                        addr: self.mols.addr(p, i, w),
                        expect: Some(m.pos[w].to_bits()),
                    });
                }
                // Native motion: advance and reflect at the walls.
                let mut nm = m;
                for d in 0..3 {
                    nm.pos[d] += nm.vel[d];
                    if nm.pos[d] < 0.0 {
                        nm.pos[d] = -nm.pos[d];
                        nm.vel[d] = -nm.vel[d];
                    } else if nm.pos[d] >= 1.0 {
                        nm.pos[d] = 2.0 - nm.pos[d] - 1e-12;
                        nm.vel[d] = -nm.vel[d];
                    }
                }
                let mut compute = MOVE_COMPUTE;
                // Occasional collision: deterministic perturbation.
                if self.rng.chance(0.2) {
                    compute += COLLIDE_COMPUTE;
                    let kick = 0.002 * (self.rng.unit_f64() - 0.5);
                    nm.vel[0] += kick;
                }
                ops.push(Op::Compute(compute));
                // Write the new position (verified by the next step).
                for w in 0..3 {
                    ops.push(Op::Write {
                        addr: self.mols.addr(p, i, w),
                        value: nm.pos[w].to_bits(),
                    });
                }
                // Read-modify-write the destination space cell. Multiple
                // processors hit the same cell concurrently, so the read
                // is unverified and the written token is arbitrary.
                let cell = self.cell_of(&nm.pos);
                ops.push(Op::Read {
                    addr: self.cells.addr(cell, 0),
                    expect: None,
                });
                ops.push(Op::Write {
                    addr: self.cells.addr(cell, 0),
                    value: ((step as u64) << 32) | (p as u64) << 20 | i as u64,
                });
                self.native[p][i] = nm;
            }
            ops.push(Op::Barrier);
            chunks.push(ops);
        }
        chunks
    }
}

impl PhasedApp for Mp3d {
    fn layout(&self) -> Layout {
        let mut l = Layout::new();
        l.add(self.mols.region());
        l.add(self.cells.region());
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
        if phase > self.params.steps {
            return None;
        }
        Some(self.step_phase(phase - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Mp3dParams {
        Mp3dParams {
            molecules: 100,
            cells_per_side: 4,
            steps: 3,
            procs: 4,
            seed: 7,
        }
    }

    #[test]
    fn phases_are_init_plus_steps() {
        let mut m = Mp3d::new(small());
        let mut n = 0;
        while m.next_phase().is_some() {
            n += 1;
        }
        assert_eq!(n, 1 + 3);
    }

    #[test]
    fn molecules_stay_in_the_unit_box() {
        let mut m = Mp3d::new(small());
        for _ in 0..4 {
            m.next_phase();
        }
        for per in &m.native {
            for mol in per {
                for d in 0..3 {
                    assert!((0.0..1.0).contains(&mol.pos[d]), "pos {:?}", mol.pos);
                }
            }
        }
    }

    #[test]
    fn cell_reads_are_unverified_and_molecule_reads_verified() {
        let mut m = Mp3d::new(small());
        let _ = m.next_phase();
        let step = m.next_phase().unwrap();
        let cell_base = m.cells.addr(0, 0).raw();
        for op in &step[0] {
            if let Op::Read { addr, expect } = op {
                if addr.raw() >= cell_base {
                    assert!(expect.is_none(), "cell reads race");
                } else {
                    assert!(expect.is_some(), "molecule reads are verified");
                }
            }
        }
    }

    #[test]
    fn cell_indexing_is_in_range() {
        let m = Mp3d::new(small());
        assert_eq!(m.cell_of(&[0.0, 0.0, 0.0]), 0);
        let last = m.cell_of(&[0.9999, 0.9999, 0.9999]);
        assert_eq!(last, 4 * 4 * 4 - 1);
    }

    #[test]
    fn multiple_processors_touch_shared_cells() {
        // With 100 molecules in 64 cells, distinct owners must hit
        // overlapping cells in step 1.
        let mut m = Mp3d::new(small());
        let _ = m.next_phase();
        let step = m.next_phase().unwrap();
        let cell_base = m.cells.addr(0, 0).raw();
        let cells_of = |ops: &Vec<Op>| -> std::collections::HashSet<u64> {
            ops.iter()
                .filter_map(|op| match op {
                    Op::Write { addr, .. } if addr.raw() >= cell_base => Some(addr.raw()),
                    _ => None,
                })
                .collect()
        };
        let c0 = cells_of(&step[0]);
        let c1 = cells_of(&step[1]);
        assert!(c0.intersection(&c1).count() > 0, "no migratory sharing");
    }
}
