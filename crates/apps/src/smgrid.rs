//! SMGRID: static multigrid solver for elliptic PDEs (paper §6,
//! Figure 4c).
//!
//! Jacobi-style relaxation sweeps over a pyramid of grids
//! (129×129 at paper scale). The grid is partitioned into horizontal
//! strips; each sweep reads the strip's interior (private after the
//! first touch) plus the boundary rows of the two neighbouring strips
//! (worker sets of 2–3). On the *coarser* levels of the pyramid only a
//! subset of nodes works, so data is shared more widely — which is why
//! the protocols separate on SMGRID ("data is more widely shared in
//! this application than in either TSP or AQ") and the software-only
//! directory does >3x worse than full-map.

use limitless_machine::{Op, Program};
use limitless_sim::Addr;

use crate::layout::{chunk, word, AddressSpace};
use crate::phased::Phased;
use crate::{App, Scale};

/// SMGRID configuration.
#[derive(Clone, Copy, Debug)]
pub struct Smgrid {
    /// Fine-grid side (paper: 129).
    pub side: usize,
    /// Pyramid levels (each coarser level halves the side).
    pub levels: usize,
    /// Relaxation sweeps per level per V-cycle.
    pub sweeps: usize,
    /// V-cycles.
    pub cycles: usize,
}

impl Smgrid {
    /// Paper scale: 129×129, 4 levels; quick scale: 33×33, 3 levels.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Quick => Smgrid {
                side: 33,
                levels: 3,
                sweeps: 3,
                cycles: 2,
            },
            Scale::Paper => Smgrid {
                side: 129,
                levels: 4,
                sweeps: 2,
                cycles: 4,
            },
        }
    }

    fn level_side(&self, level: usize) -> usize {
        ((self.side - 1) >> level) + 1
    }

    fn grid_base(&self, level: usize) -> Addr {
        let mut space = AddressSpace::new(0xC_0000);
        let mut base = space.region(0);
        for l in 0..=level {
            let s = self.level_side(l) as u64;
            base = space.region(s * s * 8 / 16 + 1);
        }
        base
    }
}

impl App for Smgrid {
    fn name(&self) -> &'static str {
        "SMGRID"
    }

    fn language(&self) -> &'static str {
        "Mul-T"
    }

    fn size_description(&self) -> String {
        format!("{0} x {0}", self.side)
    }

    fn programs(&self, nodes: usize) -> Vec<Box<dyn Program>> {
        // Every level needs at least one interior row (a side of 3) or
        // the strip arithmetic in `emit_level` degenerates: a side of 2
        // has no interior, and a side of 1 underflows `side - 2`.
        // Reject the configuration up front with a clear error instead.
        assert!(self.levels >= 1, "SMGRID needs at least one grid level");
        assert!(
            self.side >= 3,
            "SMGRID needs a fine grid of at least 3x3, got {0}x{0}",
            self.side
        );
        let coarsest = self.level_side(self.levels - 1);
        assert!(
            coarsest >= 3,
            "SMGRID with side {} and {} levels leaves a {coarsest}x{coarsest} coarsest grid \
             with no interior rows (need at least 3x3); use fewer levels or a larger grid",
            self.side,
            self.levels
        );
        // One phase is one barrier-delimited sweep. A V-cycle visits
        // the levels descending the pyramid (restriction), then
        // ascending (prolongation): 0, 1, .., L-1, .., 1, 0, each
        // relaxed `sweeps` times.
        let visits = 2 * self.levels - 1;
        let phases = self.cycles * visits * self.sweeps;
        let grid = *self;
        (0..nodes)
            .map(|me| {
                Box::new(Phased::new(None, move |phase, ops: &mut Vec<Op>| {
                    if phase == phases {
                        return false;
                    }
                    let visit = phase / grid.sweeps % visits;
                    let level = visit.min(visits - 1 - visit);
                    grid.emit_sweep(ops, nodes, me, level);
                    true
                })) as Box<dyn Program>
            })
            .collect()
    }
}

impl Smgrid {
    /// One relaxation sweep of `level` for node `me`, ending at the
    /// sweep's barrier.
    fn emit_sweep(&self, ops: &mut Vec<Op>, nodes: usize, me: usize, level: usize) {
        let side = self.level_side(level);
        let base = self.grid_base(level);
        // Coarse levels engage fewer nodes (at most one row each):
        // the paper's "only a subset of nodes work during the
        // relaxation on the upper levels of the pyramid".
        let active = nodes.min(side.saturating_sub(2)).max(1);
        if me < active {
            let (r0, r1) = chunk(side - 2, active, me);
            // Read the halo row above and below the strip
            // (neighbour-owned: the sharing traffic). Every point
            // is consumed; two points share each 16-byte block.
            for col in 0..side {
                ops.push(Op::Read(word(base, (r0 as u64) * side as u64 + col as u64)));
                ops.push(Op::Read(word(
                    base,
                    (r1 as u64 + 1) * side as u64 + col as u64,
                )));
            }
            // Relax the interior rows: read-modify every point
            // (~25 cycles of stencil arithmetic each).
            for row in r0 + 1..=r1 {
                for col in 1..side - 1 {
                    let idx = (row as u64) * side as u64 + col as u64;
                    ops.push(Op::Read(word(base, idx)));
                    ops.push(Op::Write(word(base, idx), (level as u64) << 32 | idx));
                    ops.push(Op::Compute(150));
                }
            }
        }
        ops.push(Op::Barrier);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_app;
    use limitless_core::ProtocolSpec;
    use limitless_machine::MachineConfig;

    fn tiny() -> Smgrid {
        Smgrid {
            side: 17,
            levels: 2,
            sweeps: 1,
            cycles: 1,
        }
    }

    #[test]
    fn level_sides_halve() {
        let g = Smgrid::new(Scale::Paper);
        assert_eq!(g.level_side(0), 129);
        assert_eq!(g.level_side(1), 65);
        assert_eq!(g.level_side(2), 33);
        assert_eq!(g.level_side(3), 17);
    }

    #[test]
    fn grids_do_not_overlap() {
        let g = Smgrid::new(Scale::Quick);
        let b0 = g.grid_base(0);
        let b1 = g.grid_base(1);
        let s0 = g.level_side(0) as u64;
        assert!(b1.0 >= b0.0 + s0 * s0 * 8);
    }

    #[test]
    fn runs_coherently_across_spectrum() {
        for p in [
            ProtocolSpec::zero_ptr(),
            ProtocolSpec::limitless(1),
            ProtocolSpec::limitless(5),
            ProtocolSpec::full_map(),
        ] {
            run_app(
                &tiny(),
                MachineConfig::builder()
                    .nodes(4)
                    .protocol(p)
                    .check_coherence(true)
                    .build(),
            );
        }
    }

    #[test]
    fn neighbour_sharing_produces_invalidations() {
        let r = run_app(
            &tiny(),
            MachineConfig::builder()
                .nodes(4)
                .protocol(ProtocolSpec::full_map())
                .build(),
        );
        assert!(r.stats.engine.invs_sent > 0);
    }

    #[test]
    fn tiniest_legal_grid_runs() {
        // side 9 with 3 levels leaves a 3x3 coarsest grid — exactly one
        // interior row everywhere. Regression test for the strip-count
        // clamp degenerating on tiny grids.
        let g = Smgrid {
            side: 9,
            levels: 3,
            sweeps: 1,
            cycles: 1,
        };
        run_app(
            &g,
            MachineConfig::builder()
                .nodes(4)
                .protocol(ProtocolSpec::limitless(2))
                .check_coherence(true)
                .build(),
        );
    }

    #[test]
    #[should_panic(expected = "coarsest grid")]
    fn interiorless_coarse_grid_is_rejected() {
        // side 9 with 4 levels would leave a 2x2 coarsest grid: no
        // interior rows, previously a degenerate strip computation.
        let g = Smgrid {
            side: 9,
            levels: 4,
            sweeps: 1,
            cycles: 1,
        };
        g.programs(4);
    }

    #[test]
    #[should_panic(expected = "at least 3x3")]
    fn degenerate_fine_grid_is_rejected() {
        let g = Smgrid {
            side: 2,
            levels: 1,
            sweeps: 1,
            cycles: 1,
        };
        g.programs(2);
    }

    #[test]
    fn coarse_levels_idle_some_nodes() {
        // With more nodes than coarse-grid rows, some nodes just wait
        // at barriers — the speedup limiter the paper describes.
        let g = Smgrid {
            side: 9,
            levels: 2,
            sweeps: 1,
            cycles: 1,
        };
        let progs = g.programs(16);
        assert_eq!(progs.len(), 16);
    }
}
