//! MP3D: rarefied-fluid wind-tunnel simulation from SPLASH (paper §6,
//! Figure 4e).
//!
//! Particles move through a 3-D space array of cells; each step every
//! particle advances, and the cell it lands in is updated (collision
//! accounting). Particles owned by different nodes land in the same
//! cells, so cell blocks have medium-size, *frequently written* worker
//! sets — the communication pattern behind MP3D's notoriously low
//! speedups. Run with the locking option off, as in the paper.

use std::sync::Arc;

use limitless_machine::{Op, Program, Rmw};
use limitless_sim::{Addr, SplitMix64};

use crate::layout::{chunk, slot, word, AddressSpace};
use crate::phased::Phased;
use crate::{App, Scale};

/// MP3D configuration.
#[derive(Clone, Copy, Debug)]
pub struct Mp3d {
    /// Number of particles (paper: 10 000).
    pub particles: usize,
    /// Space-array cells per dimension (cube).
    pub cells_side: usize,
    /// Simulated steps.
    pub steps: usize,
    /// Seed for initial positions/velocities.
    pub seed: u64,
}

impl Mp3d {
    /// Paper scale: 10 000 particles; quick: 1 500.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Quick => Mp3d {
                particles: 1_500,
                cells_side: 8,
                steps: 3,
                seed: 0x3D,
            },
            Scale::Paper => Mp3d {
                particles: 10_000,
                cells_side: 14,
                steps: 4,
                seed: 0x3D,
            },
        }
    }

    fn cells(&self) -> u64 {
        (self.cells_side * self.cells_side * self.cells_side) as u64
    }

    fn layout(&self) -> Mp3dLayout {
        let mut space = AddressSpace::new(0x40_0000);
        // Particle records: position+velocity, one block each
        // (node-private by ownership).
        let particles = space.region(self.particles as u64);
        // Space array: one word per cell, two cells per block — cells
        // are the contended structure.
        let cells = space.region(self.cells() * 8 / 16 + 1);
        let momentum = space.block(); // global accumulators
        Mp3dLayout {
            particles,
            cells,
            momentum,
        }
    }

    /// Offline particle trajectories: `traj[step][particle]` = cell.
    fn trajectories(&self) -> Vec<Vec<u64>> {
        let side = self.cells_side as i64;
        let mut rng = SplitMix64::new(self.seed);
        let mut pos: Vec<(i64, i64, i64)> = Vec::with_capacity(self.particles);
        let mut vel: Vec<(i64, i64, i64)> = Vec::with_capacity(self.particles);
        for _ in 0..self.particles {
            pos.push((
                rng.next_below(side as u64 * 16) as i64,
                rng.next_below(side as u64 * 16) as i64,
                rng.next_below(side as u64 * 16) as i64,
            ));
            vel.push((
                rng.next_below(31) as i64 - 15 + 8, // drift in +x: the wind
                rng.next_below(31) as i64 - 15,
                rng.next_below(31) as i64 - 15,
            ));
        }
        let bound = side * 16;
        let mut traj = Vec::with_capacity(self.steps);
        for _ in 0..self.steps {
            let mut cells_now = Vec::with_capacity(self.particles);
            for p in 0..self.particles {
                pos[p].0 = (pos[p].0 + vel[p].0).rem_euclid(bound);
                pos[p].1 = (pos[p].1 + vel[p].1).rem_euclid(bound);
                pos[p].2 = (pos[p].2 + vel[p].2).rem_euclid(bound);
                let c = (pos[p].0 / 16) * side * side + (pos[p].1 / 16) * side + pos[p].2 / 16;
                cells_now.push(c as u64);
            }
            traj.push(cells_now);
        }
        traj
    }
}

#[derive(Clone, Copy)]
struct Mp3dLayout {
    particles: Addr,
    cells: Addr,
    momentum: Addr,
}

impl App for Mp3d {
    fn name(&self) -> &'static str {
        "MP3D"
    }

    fn language(&self) -> &'static str {
        "C"
    }

    fn size_description(&self) -> String {
        format!("{} particles", self.particles)
    }

    fn programs(&self, nodes: usize) -> Vec<Box<dyn Program>> {
        let l = self.layout();
        let traj = Arc::new(self.trajectories());
        (0..nodes)
            .map(|me| {
                let (p0, p1) = chunk(self.particles, nodes, me);
                let traj = Arc::clone(&traj);
                // One phase is one time step.
                Box::new(Phased::new(None, move |step, ops: &mut Vec<Op>| {
                    let Some(cells) = traj.get(step) else {
                        return false;
                    };
                    for (p, &dest) in cells.iter().enumerate().take(p1).skip(p0) {
                        // Advance my particle: read + write its record
                        // (private), then update the destination cell
                        // (shared, contended).
                        ops.push(Op::Read(slot(l.particles, p as u64)));
                        ops.push(Op::Write(slot(l.particles, p as u64), dest));
                        // Collision step: read the cell state (creates
                        // shared copies across nodes), then update it.
                        ops.push(Op::Read(word(l.cells, dest)));
                        ops.push(Op::Rmw(word(l.cells, dest), Rmw::Add(1)));
                        ops.push(Op::Compute(400));
                    }
                    // Per-step global momentum accumulation, then sync.
                    ops.push(Op::Rmw(l.momentum, Rmw::Add((p1 - p0) as u64)));
                    ops.push(Op::Barrier);
                    true
                })) as Box<dyn Program>
            })
            .collect()
    }

    fn expected_results(&self) -> Vec<(Addr, u64)> {
        vec![(self.layout().momentum, (self.particles * self.steps) as u64)]
    }

    fn racy_read_ranges(&self) -> Vec<(Addr, Addr)> {
        // The space-array cells are updated without locking (the paper
        // runs MP3D with the locking option off): between barriers,
        // several nodes Read+Rmw the same cell, so the value a cell
        // read observes depends on message timing and legitimately
        // differs across protocols. The atomic adds commute, so the
        // final memory image still verifies in full.
        let l = self.layout();
        vec![(l.cells, l.momentum)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_app;
    use limitless_core::ProtocolSpec;
    use limitless_machine::MachineConfig;

    fn tiny() -> Mp3d {
        Mp3d {
            particles: 120,
            cells_side: 4,
            steps: 2,
            seed: 0x3D,
        }
    }

    #[test]
    fn trajectories_stay_in_bounds() {
        let m = tiny();
        for step in m.trajectories() {
            for &c in &step {
                assert!(c < m.cells());
            }
        }
    }

    #[test]
    fn trajectories_are_deterministic() {
        assert_eq!(tiny().trajectories(), tiny().trajectories());
    }

    #[test]
    fn cell_counts_conserve_particles() {
        let app = tiny();
        let r = run_app(
            &app,
            MachineConfig::builder()
                .nodes(4)
                .protocol(ProtocolSpec::limitless(5))
                .check_coherence(true)
                .build(),
        );
        // momentum check is in expected_results (asserted by run_app);
        // also: every particle wrote its record each step.
        assert!(r.stats.writes >= (app.particles * app.steps) as u64);
    }

    #[test]
    fn cells_are_contended() {
        let r = run_app(
            &tiny(),
            MachineConfig::builder()
                .nodes(8)
                .protocol(ProtocolSpec::full_map())
                .build(),
        );
        assert!(
            r.stats.engine.invs_sent > 50,
            "cell updates must invalidate: {}",
            r.stats.engine.invs_sent
        );
    }

    #[test]
    fn zero_ptr_suffers_most() {
        let cycles = |p| {
            run_app(
                &tiny(),
                MachineConfig::builder().nodes(8).protocol(p).build(),
            )
            .cycles
            .as_u64()
        };
        let full = cycles(ProtocolSpec::full_map());
        let zero = cycles(ProtocolSpec::zero_ptr());
        assert!(
            zero > full,
            "software-only ({zero}) must trail full-map ({full})"
        );
    }
}
