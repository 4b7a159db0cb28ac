//! WATER: molecular dynamics of liquid water from SPLASH (paper §6,
//! Figure 4f).
//!
//! An O(n²/2) pairwise force computation over 64 molecules (paper
//! size), with per-step position updates and global energy
//! reductions. Every node reads every other node's molecule positions
//! each step (read-mostly all-to-all: worker sets near `p`), but
//! writes stay on the owner's molecules — which is why WATER runs well
//! across the whole spectrum and the software-only directory still
//! achieves ~70 % of full-map.

use std::sync::Arc;

use limitless_machine::{Op, Program, Rmw};
use limitless_sim::{Addr, SplitMix64};

use crate::layout::{chunk, slot, AddressSpace};
use crate::phased::Phased;
use crate::{App, Scale};

/// WATER configuration.
#[derive(Clone, Copy, Debug)]
pub struct Water {
    /// Molecule count (paper: 64).
    pub molecules: usize,
    /// Time steps.
    pub steps: usize,
    /// Seed for initial state.
    pub seed: u64,
}

impl Water {
    /// Paper scale: 64 molecules; quick: 24.
    pub fn new(scale: Scale) -> Self {
        Water {
            molecules: match scale {
                Scale::Quick => 32,
                Scale::Paper => 64,
            },
            steps: 4,
            seed: 0xAA_u64 ^ 0xFF,
        }
    }

    fn layout(&self) -> WaterLayout {
        let mut space = AddressSpace::new(0x60_0000);
        // One block per molecule: position record (read by everyone).
        let positions = space.region(self.molecules as u64);
        // One block per molecule: force accumulator (owner-written).
        let forces = space.region(self.molecules as u64);
        let energy = space.block();
        WaterLayout {
            positions,
            forces,
            energy,
        }
    }

    /// Offline per-step per-molecule "position" words (a deterministic
    /// toy integrator — the protocols only see the access pattern, but
    /// the values let tests verify end-to-end data flow).
    fn states(&self) -> Vec<Vec<u64>> {
        let mut rng = SplitMix64::new(self.seed);
        let mut state: Vec<u64> = (0..self.molecules).map(|_| rng.next_u64() >> 32).collect();
        let mut per_step = Vec::with_capacity(self.steps);
        for _ in 0..self.steps {
            state = state
                .iter()
                .map(|&s| {
                    s.wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407)
                        >> 8
                })
                .collect();
            per_step.push(state.clone());
        }
        per_step
    }
}

#[derive(Clone, Copy)]
struct WaterLayout {
    positions: Addr,
    forces: Addr,
    energy: Addr,
}

impl App for Water {
    fn name(&self) -> &'static str {
        "WATER"
    }

    fn language(&self) -> &'static str {
        "C"
    }

    fn size_description(&self) -> String {
        format!("{} molecules", self.molecules)
    }

    fn programs(&self, nodes: usize) -> Vec<Box<dyn Program>> {
        let l = self.layout();
        let states = Arc::new(self.states());
        let molecules = self.molecules;
        (0..nodes)
            .map(|me| {
                let (m0, m1) = chunk(molecules, nodes, me);
                let states = Arc::clone(&states);
                // One phase is one time step.
                Box::new(Phased::new(None, move |step, ops: &mut Vec<Op>| {
                    let Some(step) = states.get(step) else {
                        return false;
                    };
                    // Force phase: for each owned molecule, interact
                    // with every later molecule (the classic
                    // triangular loop): read the partner's position.
                    for (i, &st) in step.iter().enumerate().take(m1).skip(m0) {
                        for j in i + 1..molecules {
                            ops.push(Op::Read(slot(l.positions, j as u64)));
                            ops.push(Op::Compute(2500));
                        }
                        ops.push(Op::Write(slot(l.forces, i as u64), st & 0xFFFF));
                    }
                    ops.push(Op::Barrier);
                    // Update phase: write my molecules' new positions.
                    for (i, &st) in step.iter().enumerate().take(m1).skip(m0) {
                        ops.push(Op::Read(slot(l.forces, i as u64)));
                        ops.push(Op::Write(slot(l.positions, i as u64), st));
                        ops.push(Op::Compute(1500));
                    }
                    // Energy reduction.
                    let e: u64 = (m0..m1).map(|i| step[i] & 0xFF).sum();
                    ops.push(Op::Rmw(l.energy, Rmw::Add(e)));
                    ops.push(Op::Barrier);
                    true
                })) as Box<dyn Program>
            })
            .collect()
    }

    fn expected_results(&self) -> Vec<(Addr, u64)> {
        let states = self.states();
        let l = self.layout();
        let mut res: Vec<(Addr, u64)> = (0..self.molecules)
            .map(|i| (slot(l.positions, i as u64), states[self.steps - 1][i]))
            .collect();
        let energy: u64 = states
            .iter()
            .flat_map(|s| s.iter().map(|&v| v & 0xFF))
            .sum();
        res.push((l.energy, energy));
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_app;
    use limitless_core::ProtocolSpec;
    use limitless_machine::MachineConfig;

    fn tiny() -> Water {
        Water {
            molecules: 10,
            steps: 2,
            seed: 7,
        }
    }

    #[test]
    fn states_are_deterministic() {
        assert_eq!(tiny().states(), tiny().states());
    }

    #[test]
    fn results_verified_across_spectrum() {
        for p in [
            ProtocolSpec::zero_ptr(),
            ProtocolSpec::one_ptr_ack(),
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
    fn read_sharing_is_wide() {
        let mut m = limitless_machine::Machine::new(
            MachineConfig::builder()
                .nodes(8)
                .protocol(ProtocolSpec::full_map())
                .track_worker_sets(true)
                .build(),
        );
        let app = tiny();
        m.load(app.programs(8));
        let report = m.run();
        let h = report.stats.worker_sets.expect("tracking");
        // Some molecule blocks are read by many nodes between writes.
        assert!(h.max_value().unwrap_or(0) >= 4, "{h:?}");
    }
}
