//! EVOLVE: genome evolution as hypercube traversal (paper §6,
//! Figures 4d and 6).
//!
//! Genomes are vertices of a 12-dimensional hypercube; evolution is a
//! walk from initial conditions toward a local fitness maximum
//! (repeatedly move to the best-fitness neighbour). Fitness values are
//! shared: most vertices are touched by a single walk (the ~10⁴
//! size-one worker sets of Figure 6), while vertices near strong
//! maxima attract walks from *every* node (the ~25 size-64 sets). The
//! heavy tail of nontrivial worker sets is what makes EVOLVE the worst
//! case for `Dir_nH_5S_{NB}` in Figure 4.

use std::cmp::Ordering;
use std::sync::Arc;

use limitless_machine::{Op, Program, Rmw};
use limitless_sim::{Addr, SplitMix64};

use crate::layout::{slot, word, AddressSpace};
use crate::phased::Phased;
use crate::{App, Scale};

/// EVOLVE configuration.
#[derive(Clone, Copy, Debug)]
pub struct Evolve {
    /// Hypercube dimensions (paper: 12 → 4096 vertices).
    pub dims: u32,
    /// Total walks (fixed work, partitioned round-robin over nodes so
    /// speedups compare like with like).
    pub total_walks: usize,
    /// Fitness-function seed.
    pub seed: u64,
}

impl Evolve {
    /// Paper scale: 12 dimensions; quick: 9.
    pub fn new(scale: Scale) -> Self {
        Evolve {
            dims: match scale {
                Scale::Quick => 9,
                Scale::Paper => 12,
            },
            total_walks: match scale {
                Scale::Quick => 192,
                Scale::Paper => 1024,
            },
            seed: 0xEE01,
        }
    }

    fn vertices(&self) -> u64 {
        1u64 << self.dims
    }

    /// Deterministic fitness: hashed base fitness plus a strong ridge
    /// pulling walks toward a single global maximum — this
    /// concentration is what creates the large worker sets.
    fn fitness(&self, v: u64) -> u64 {
        let hashed = SplitMix64::new(self.seed ^ v).next_u64() % 1000;
        let peak = self.peak();
        let closeness = self.dims - (v ^ peak).count_ones();
        hashed + u64::from(closeness) * 2000
    }

    fn peak(&self) -> u64 {
        SplitMix64::new(self.seed).next_u64() & (self.vertices() - 1)
    }

    /// One hill-climbing walk: the visited vertex sequence.
    fn walk(&self, start: u64) -> Vec<u64> {
        let mut cur = start & (self.vertices() - 1);
        let mut path = vec![cur];
        loop {
            let mut best = (self.fitness(cur), cur);
            for d in 0..self.dims {
                let n = cur ^ (1 << d);
                let f = self.fitness(n);
                if f > best.0 {
                    best = (f, n);
                }
            }
            if best.1 == cur {
                return path;
            }
            cur = best.1;
            path.push(cur);
        }
    }

    fn layout(&self) -> EvolveLayout {
        let mut space = AddressSpace::new(0x20_0000);
        // One word per vertex, two vertices per block.
        let fitness = space.region(self.vertices() * 8 / 16 + 1);
        // Per-vertex visit marks: written by every walk that passes
        // through — the read-write sharing that challenges the
        // software-extended directories on EVOLVE (Figure 4d).
        let marks = space.region(self.vertices() * 8 / 16 + 1);
        let best = space.block();
        let done = space.block();
        let starts = space.region(4096);
        EvolveLayout {
            fitness,
            marks,
            best,
            done,
            starts,
        }
    }
}

#[derive(Clone, Copy)]
struct EvolveLayout {
    fitness: Addr,
    marks: Addr,
    best: Addr,
    done: Addr,
    starts: Addr,
}

impl App for Evolve {
    fn name(&self) -> &'static str {
        "EVOLVE"
    }

    fn language(&self) -> &'static str {
        "Mul-T"
    }

    fn size_description(&self) -> String {
        format!("{} dimensions", self.dims)
    }

    fn init_memory(&self) -> Vec<(Addr, u64)> {
        let l = self.layout();
        // Fitness table is input data (computed lazily by the walks'
        // reads; seed only the vertices actually visited, plus starts).
        let mut init = Vec::new();
        for me in 0..4096u64 {
            init.push((slot(l.starts, me % 4096), me * 37));
        }
        init
    }

    fn programs(&self, nodes: usize) -> Vec<Box<dyn Program>> {
        let l = self.layout();
        let starts: Arc<[u64]> = self.walk_starts().into();
        let e = *self;
        (0..nodes)
            .map(|me| {
                let starts = Arc::clone(&starts);
                // Walks are dealt round-robin: one phase per walk of
                // mine, then a last phase reports completion.
                let walks = starts.len().saturating_sub(me).div_ceil(nodes);
                Box::new(Phased::new(None, move |k, ops: &mut Vec<Op>| {
                    match k.cmp(&walks) {
                        Ordering::Less => {
                            let w = me + k * nodes;
                            // Fetch the assigned start descriptor.
                            ops.push(Op::Read(slot(l.starts, (w as u64) % 4096)));
                            let path = e.walk(starts[w]);
                            for &v in &path {
                                // Evaluate the neighbourhood: read the
                                // fitness words of the vertex and a
                                // sample of its neighbours (the shared
                                // traffic), and mark the vertex visited
                                // (read-write sharing: popular vertices
                                // near the global maximum are marked by
                                // walks from every node).
                                ops.push(Op::Read(word(l.fitness, v)));
                                for d in 0..e.dims.min(4) {
                                    ops.push(Op::Read(word(l.fitness, v ^ (1 << d))));
                                }
                                ops.push(Op::Rmw(word(l.marks, v), Rmw::Add(1)));
                                ops.push(Op::Compute(1800 + 40 * u64::from(e.dims)));
                            }
                            let end = *path.last().expect("walk is non-empty");
                            // Publish improvements to the global maximum
                            // (the widely-written hot block).
                            ops.push(Op::Rmw(l.best, Rmw::Max(e.fitness(end))));
                        }
                        Ordering::Equal => {
                            ops.push(Op::Rmw(l.done, Rmw::Add(1)));
                            ops.push(Op::Barrier);
                            if me == 0 {
                                ops.push(Op::Read(l.best));
                            }
                        }
                        Ordering::Greater => return false,
                    }
                    true
                })) as Box<dyn Program>
            })
            .collect()
    }

    fn expected_results(&self) -> Vec<(Addr, u64)> {
        vec![(self.layout().best, expected_best(self))]
    }
}

impl Evolve {
    /// The deterministic walk starting points (total work, independent
    /// of node count).
    fn walk_starts(&self) -> Vec<u64> {
        let mask = self.vertices() - 1;
        let mut rng = SplitMix64::new(self.seed ^ 0x9E37);
        (0..self.total_walks)
            .map(|_| rng.next_u64() & mask)
            .collect()
    }
}

/// The global maximum fitness every run must discover (offline replay
/// of every walk; independent of node count because the work is
/// fixed).
pub fn expected_best(e: &Evolve) -> u64 {
    e.walk_starts()
        .into_iter()
        .map(|s| e.fitness(*e.walk(s).last().expect("non-empty")))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use limitless_core::ProtocolSpec;
    use limitless_machine::{Machine, MachineConfig};

    fn tiny() -> Evolve {
        Evolve {
            dims: 6,
            total_walks: 24,
            seed: 0xEE01,
        }
    }

    #[test]
    fn walks_climb_monotonically() {
        let e = tiny();
        for s in [0u64, 17, 42] {
            let path = e.walk(s);
            let mut prev = None;
            for &v in &path {
                let f = e.fitness(v);
                if let Some(p) = prev {
                    assert!(f > p, "fitness must increase along the walk");
                }
                prev = Some(f);
            }
        }
    }

    #[test]
    fn walks_end_at_local_maxima() {
        let e = tiny();
        let end = *e.walk(5).last().unwrap();
        let f = e.fitness(end);
        for d in 0..e.dims {
            assert!(e.fitness(end ^ (1 << d)) <= f);
        }
    }

    #[test]
    fn machine_discovers_the_offline_best() {
        let e = tiny();
        let nodes = 4;
        let mut m = Machine::new(
            MachineConfig::builder()
                .nodes(nodes)
                .protocol(ProtocolSpec::limitless(2))
                .check_coherence(true)
                .build(),
        );
        for (a, v) in e.init_memory() {
            m.poke(a, v);
        }
        m.load(e.programs(nodes));
        m.run();
        assert_eq!(m.peek(e.layout().best), expected_best(&e));
        assert_eq!(m.peek(e.layout().done), nodes as u64);
    }

    #[test]
    fn worker_sets_are_heavy_tailed() {
        // Figure 6's shape at miniature scale: many singleton worker
        // sets and at least one set spanning every node.
        let e = tiny();
        let nodes = 8;
        let mut m = Machine::new(
            MachineConfig::builder()
                .nodes(nodes)
                .protocol(ProtocolSpec::full_map())
                .track_worker_sets(true)
                .build(),
        );
        m.load(e.programs(nodes));
        let report = m.run();
        let h = report.stats.worker_sets.expect("tracking on");
        assert!(h.count(1) > 20, "many singletons: {h:?}");
        assert!(
            h.max_value().unwrap_or(0) >= nodes as u64 / 2,
            "some wide sets: {h:?}"
        );
    }
}
