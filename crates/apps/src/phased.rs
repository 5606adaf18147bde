//! Adapter from barrier-phase applications to the machine's chunked
//! [`Workload`] interface.
//!
//! All five benchmarks are SPMD programs whose processors march through
//! global phases separated by barriers (or, for the custom EM3D
//! protocol, by flush calls). [`PhasedApp::next_phase`] generates the ops
//! of one phase *for every processor at once*, advancing the native
//! computation as it goes; [`PhasedWorkload`] buffers those per-processor
//! chunks and hands them out as the machines pull them.
//!
//! Because every generated chunk ends with a synchronization op, a
//! processor can never pull phase `p + 1` before all processors finished
//! phase `p`, so generating a whole phase at a time is safe — and keeps
//! memory bounded to a single phase of ops.

use std::collections::VecDeque;

use tt_base::workload::{Layout, Op, Workload};
use tt_base::NodeId;

/// A barrier-phase SPMD application.
pub trait PhasedApp: Send {
    /// The shared-segment layout.
    fn layout(&self) -> Layout;

    /// Number of processors the app was built for.
    fn procs(&self) -> usize;

    /// Generates the next phase: one op vector per processor (each ending
    /// with a synchronization op, except possibly the final phase).
    /// Returns `None` when the program is complete.
    fn next_phase(&mut self) -> Option<Vec<Vec<Op>>>;
}

/// Wraps a [`PhasedApp`] as a machine [`Workload`].
pub struct PhasedWorkload<A> {
    app: A,
    buffered: Vec<VecDeque<Vec<Op>>>,
    done: bool,
}

impl<A: PhasedApp> PhasedWorkload<A> {
    /// Wraps `app`.
    pub fn new(app: A) -> Self {
        let procs = app.procs();
        PhasedWorkload {
            app,
            buffered: vec![VecDeque::new(); procs],
            done: false,
        }
    }

    fn pull(&mut self, cpu: NodeId) -> Option<Vec<Op>> {
        let q = &mut self.buffered[cpu.index()];
        if let Some(chunk) = q.pop_front() {
            return Some(chunk);
        }
        if self.done {
            return None;
        }
        match self.app.next_phase() {
            Some(chunks) => {
                assert_eq!(chunks.len(), self.buffered.len(), "one chunk per processor");
                for (q, c) in self.buffered.iter_mut().zip(chunks) {
                    q.push_back(c);
                }
                self.buffered[cpu.index()].pop_front()
            }
            None => {
                self.done = true;
                None
            }
        }
    }
}

impl<A: PhasedApp> Workload for PhasedWorkload<A> {
    fn layout(&self) -> Layout {
        self.app.layout()
    }

    fn next_chunk(&mut self, cpu: NodeId) -> Option<Vec<Op>> {
        self.pull(cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three phases, two cpus, phase index encoded in compute cycles.
    struct Toy {
        phase: u32,
    }

    impl PhasedApp for Toy {
        fn layout(&self) -> Layout {
            Layout::new()
        }
        fn procs(&self) -> usize {
            2
        }
        fn next_phase(&mut self) -> Option<Vec<Vec<Op>>> {
            if self.phase == 3 {
                return None;
            }
            self.phase += 1;
            Some(vec![
                vec![Op::Compute(self.phase), Op::Barrier],
                vec![Op::Compute(self.phase * 10), Op::Barrier],
            ])
        }
    }

    #[test]
    fn chunks_are_handed_out_per_cpu_in_phase_order() {
        let mut w = PhasedWorkload::new(Toy { phase: 0 });
        let c0 = w.next_chunk(NodeId::new(0)).unwrap();
        assert_eq!(c0[0], Op::Compute(1));
        // Cpu 1's phase-1 chunk was buffered by cpu 0's pull.
        let c1 = w.next_chunk(NodeId::new(1)).unwrap();
        assert_eq!(c1[0], Op::Compute(10));
        // Next pulls get phase 2.
        assert_eq!(w.next_chunk(NodeId::new(1)).unwrap()[0], Op::Compute(20));
        assert_eq!(w.next_chunk(NodeId::new(0)).unwrap()[0], Op::Compute(2));
    }

    #[test]
    fn exhaustion_returns_none_for_everyone() {
        let mut w = PhasedWorkload::new(Toy { phase: 0 });
        for _ in 0..3 {
            w.next_chunk(NodeId::new(0)).unwrap();
        }
        assert!(w.next_chunk(NodeId::new(0)).is_none());
        // Cpu 1 still drains its buffered phases first.
        for _ in 0..3 {
            assert!(w.next_chunk(NodeId::new(1)).is_some());
        }
        assert!(w.next_chunk(NodeId::new(1)).is_none());
    }
}
