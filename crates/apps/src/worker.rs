//! The WORKER synthetic benchmark (paper §5).
//!
//! WORKER builds a data structure whose memory blocks have an *exact*
//! worker-set size, then iterates: all readers of each block read it,
//! a barrier, the block's writer writes it, a barrier. "Every read
//! request causes a cache miss and every write request causes a
//! directory protocol to send exactly one invalidation message to each
//! reader" — a completely deterministic access pattern and the
//! controlled experiment behind Figure 2 and Tables 1–2.

use limitless_machine::{Op, Program};
use limitless_sim::Addr;

use crate::layout::{slot, AddressSpace};
use crate::phased::Phased;
use crate::App;

/// WORKER configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Worker {
    /// Worker-set size: the number of readers per block.
    pub set_size: usize,
    /// Blocks per node (each node is the writer of this many blocks).
    pub blocks_per_node: usize,
    /// Read/barrier/write/barrier iterations.
    pub iterations: usize,
}

impl Worker {
    /// The Figure 2 configuration: one block per node, the given
    /// worker-set size, enough iterations for steady-state behaviour.
    pub fn fig2(set_size: usize) -> Self {
        Worker {
            set_size,
            blocks_per_node: 1,
            iterations: 12,
        }
    }

    /// The Tables 1–2 configuration: `readers` readers per block on a
    /// 16-node machine.
    pub fn table1(readers: usize) -> Self {
        Worker {
            set_size: readers,
            blocks_per_node: 2,
            iterations: 10,
        }
    }

    /// The base address of the worker-set structure.
    fn data_base() -> Addr {
        AddressSpace::new(0x4_0000).watermark()
    }
}

impl App for Worker {
    fn name(&self) -> &'static str {
        "WORKER"
    }

    fn language(&self) -> &'static str {
        "synthetic"
    }

    fn size_description(&self) -> String {
        format!(
            "worker sets of {}, {} iterations",
            self.set_size, self.iterations
        )
    }

    fn programs(&self, nodes: usize) -> Vec<Box<dyn Program>> {
        assert!(self.set_size <= nodes, "worker set cannot exceed nodes");
        let base = Self::data_base();
        let total_blocks = nodes * self.blocks_per_node;
        // Block j is written by node (j + nodes/2) % nodes — offset
        // from the block's home so the previous owner occupies a real
        // directory pointer, not the home's one-bit local pointer —
        // and read by the next `set_size` nodes after the writer
        // (wrapping): an exact, evenly distributed worker set.
        let w = *self;
        (0..nodes)
            .map(|me| {
                // One phase is one iteration.
                Box::new(Phased::new(None, move |iteration, ops: &mut Vec<Op>| {
                    if iteration == w.iterations {
                        return false;
                    }
                    // Read phase: read every block whose worker set
                    // contains me.
                    for j in 0..total_blocks {
                        let writer = (j + nodes / 2) % nodes;
                        let offset = (me + nodes - writer) % nodes;
                        let is_reader = offset >= 1 && offset <= w.set_size;
                        if is_reader {
                            ops.push(Op::Read(slot(base, j as u64)));
                        }
                    }
                    ops.push(Op::Barrier);
                    // Write phase: write the blocks I am the writer of.
                    for j in 0..total_blocks {
                        if (j + nodes / 2) % nodes == me {
                            ops.push(Op::Write(slot(base, j as u64), (j + 1) as u64));
                        }
                    }
                    ops.push(Op::Barrier);
                    true
                })) as Box<dyn Program>
            })
            .collect()
    }

    fn expected_results(&self) -> Vec<(Addr, u64)> {
        // After any number of iterations every block holds its own
        // index + 1.
        (0..self.blocks_per_node as u64)
            .map(|j| (slot(Self::data_base(), j), j + 1))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_app;
    use limitless_core::ProtocolSpec;
    use limitless_machine::MachineConfig;

    fn cfg(p: ProtocolSpec) -> MachineConfig {
        MachineConfig::builder()
            .nodes(8)
            .protocol(p)
            .check_coherence(true)
            .build()
    }

    #[test]
    fn worker_runs_and_produces_expected_values() {
        let app = Worker {
            set_size: 4,
            blocks_per_node: 1,
            iterations: 3,
        };
        run_app(&app, cfg(ProtocolSpec::limitless(5)));
    }

    #[test]
    fn worker_set_size_controls_invalidations() {
        // With worker sets of k, each write invalidates ~k copies.
        let invs = |k: usize| {
            let app = Worker {
                set_size: k,
                blocks_per_node: 1,
                iterations: 4,
            };
            let r = run_app(&app, cfg(ProtocolSpec::full_map()));
            r.stats.engine.invs_sent as f64 / r.stats.writes as f64
        };
        let small = invs(2);
        let large = invs(6);
        assert!(
            large > small + 2.0,
            "6-reader sets ({large:.1} invs/write) must invalidate more than 2-reader sets ({small:.1})"
        );
    }

    #[test]
    fn sets_beyond_hw_capacity_cause_traps() {
        let app = Worker::fig2(6);
        let within = run_app(
            &Worker::fig2(3),
            MachineConfig::builder()
                .nodes(8)
                .protocol(ProtocolSpec::limitless(5))
                .build(),
        );
        // Three readers + the re-recorded previous owner fit in five
        // pointers: no software.
        assert_eq!(within.stats.engine.write_extend_traps, 0);
        let beyond = run_app(
            &app,
            MachineConfig::builder()
                .nodes(8)
                .protocol(ProtocolSpec::limitless(5))
                .build(),
        );
        assert!(
            beyond.stats.engine.traps > 0,
            "6 readers overflow 5 pointers"
        );
    }

    #[test]
    #[should_panic(expected = "worker set cannot exceed nodes")]
    fn oversized_worker_set_panics() {
        Worker::fig2(9).programs(8);
    }

    #[test]
    fn deterministic_across_runs() {
        let app = Worker::fig2(4);
        let r1 = run_app(&app, cfg(ProtocolSpec::limitless(1)));
        let r2 = run_app(&app, cfg(ProtocolSpec::limitless(1)));
        assert_eq!(r1.cycles, r2.cycles);
    }
}
