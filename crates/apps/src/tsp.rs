//! TSP: branch-and-bound traveling salesman (paper §6, Figures 3–5).
//!
//! The paper's TSP is a Mul-T branch-and-bound search whose best-path
//! value is *seeded with the optimal tour* so the amount of work is
//! deterministic. Its memory behaviour has two signatures:
//!
//! * mostly *small* worker sets (partial tours shared by a few nodes),
//!   plus two blocks — the best-bound and the global work counter —
//!   read by **every** node;
//! * an unlucky code layout: the hot inner-loop instructions map onto
//!   the same direct-mapped cache sets as those two globally-shared
//!   blocks, so instruction fetches continually evict them
//!   (instruction/data thrashing). Every re-read is a remote miss, and
//!   under software-extended protocols the re-read stream drives the
//!   home node's directory through overflow traps — the >3x
//!   degradation of Figure 3, repaired by perfect-ifetch or a victim
//!   cache.
//!
//! The search itself runs in plain Rust (exact): each simulated node
//! searches the subtrees assigned to it one at a time, as it reaches
//! them, and emits the reference stream of each search.

use std::cmp::Ordering;
use std::sync::Arc;

use limitless_cache::InstrFootprint;
use limitless_machine::{Op, Program};
use limitless_sim::{Addr, SplitMix64};

use crate::layout::{word, AddressSpace, LINE};
use crate::phased::Phased;
use crate::{App, Scale};

/// TSP configuration.
#[derive(Clone, Debug)]
pub struct Tsp {
    /// Number of cities (paper: 10).
    pub cities: usize,
    /// RNG seed for city coordinates.
    pub seed: u64,
    /// Hot-code working set in cache blocks (the thrash driver).
    pub code_blocks: u64,
}

impl Tsp {
    /// The paper's 10-city tour (or an 8-city tour at quick scale).
    pub fn new(scale: Scale) -> Self {
        Tsp {
            cities: match scale {
                Scale::Quick => 8,
                Scale::Paper => 10,
            },
            seed: 0x7591,
            code_blocks: 48,
        }
    }

    fn layout(&self) -> TspLayout {
        const SETS: u64 = 4096; // 64 KB / 16 B direct-mapped
        let mut space = AddressSpace::new(0x8_0000);
        let n = self.cities as u64;
        // Distance matrix: n*n words, widely shared, read-only — kept
        // on low cache sets, clear of the hot code sweep.
        let matrix = space.region(n * n * 8 / LINE + 1);
        // The two globally-shared hot blocks land on the sets the hot
        // loop's code sweeps over — the paper's accidental layout,
        // made explicit.
        space.align_to_set(2048, SETS);
        let bound = space.block(); // hot block 1: the seeded best bound
        let counter = space.block(); // hot block 2: global expansion count
                                     // Everything else lives far from the code sweep.
        space.align_to_set(3072, SETS);
        let result = space.block();
        let subtrees = space.region(512); // work descriptors, one block each
        let private = space.region(0); // per-node stacks appended later
        TspLayout {
            matrix,
            bound,
            counter,
            result,
            subtrees,
            private_base: private,
        }
    }

    fn distances(&self) -> Vec<Vec<u64>> {
        let mut rng = SplitMix64::new(self.seed);
        let pts: Vec<(i64, i64)> = (0..self.cities)
            .map(|_| (rng.next_below(1000) as i64, rng.next_below(1000) as i64))
            .collect();
        (0..self.cities)
            .map(|i| {
                (0..self.cities)
                    .map(|j| {
                        let dx = (pts[i].0 - pts[j].0) as f64;
                        let dy = (pts[i].1 - pts[j].1) as f64;
                        (dx * dx + dy * dy).sqrt().round() as u64
                    })
                    .collect()
            })
            .collect()
    }

    /// Exact optimal tour length (offline solve, branch and bound).
    pub fn optimal(&self) -> u64 {
        let d = self.distances();
        let n = self.cities;
        let mut best = u64::MAX;
        let mut path = vec![0usize];
        let mut visited = vec![false; n];
        visited[0] = true;
        solve(
            &d,
            &mut path,
            &mut visited,
            0,
            &mut best,
            &mut Vec::new(),
            false,
        );
        best
    }

    /// The depth-3 subtree prefixes `[0, a, b, c]` that the runtime
    /// distributes round-robin over nodes (504 units for 10 cities —
    /// enough parallel slack for a 256-node machine).
    fn prefixes(&self) -> Vec<[usize; 3]> {
        let n = self.cities;
        let mut out = Vec::new();
        for a in 1..n {
            for b in (1..n).filter(|&b| b != a) {
                for c in (1..n).filter(|&c| c != a && c != b) {
                    out.push([a, b, c]);
                }
            }
        }
        out
    }

    /// The branch-and-bound visit list for one subtree prefix
    /// `[0, a, b, c]`, with the bound seeded at the optimum (so pruning
    /// is maximal and deterministic, exactly as the paper configures
    /// it).
    fn subtree_visits(&self, d: &[Vec<u64>], optimal: u64, p: [usize; 3]) -> Vec<usize> {
        let n = self.cities;
        let [a, b, c] = p;
        let mut path = vec![0, a, b, c];
        let mut visited = vec![false; n];
        for &x in &path {
            visited[x] = true;
        }
        let cost = d[0][a] + d[a][b] + d[b][c];
        let mut best = optimal;
        let mut visits = Vec::new();
        solve(
            d,
            &mut path,
            &mut visited,
            cost,
            &mut best,
            &mut visits,
            true,
        );
        visits
    }
}

/// Depth-first branch and bound. When `record` is set, pushes the
/// current city of every expanded tree node into `visits`.
fn solve(
    d: &[Vec<u64>],
    path: &mut Vec<usize>,
    visited: &mut [bool],
    cost: u64,
    best: &mut u64,
    visits: &mut Vec<usize>,
    record: bool,
) {
    let n = d.len();
    let current = *path.last().expect("non-empty path");
    if record {
        visits.push(current);
    }
    if path.len() == n {
        let total = cost + d[current][0];
        if total < *best {
            *best = total;
        }
        return;
    }
    // Lower bound: current cost + the cheapest outgoing edge of every
    // unvisited city (admissible, cheap).
    let lb: u64 = cost
        + (0..n)
            .filter(|&c| !visited[c])
            .map(|c| {
                (0..n)
                    .filter(|&x| x != c)
                    .map(|x| d[c][x])
                    .min()
                    .unwrap_or(0)
            })
            .sum::<u64>();
    if lb > *best {
        return;
    }
    for next in 1..n {
        if visited[next] {
            continue;
        }
        let step = cost + d[current][next];
        if step >= *best {
            continue;
        }
        visited[next] = true;
        path.push(next);
        solve(d, path, visited, step, best, visits, record);
        path.pop();
        visited[next] = false;
    }
}

#[derive(Clone, Copy)]
struct TspLayout {
    matrix: Addr,
    bound: Addr,
    counter: Addr,
    result: Addr,
    subtrees: Addr,
    private_base: Addr,
}

impl App for Tsp {
    fn name(&self) -> &'static str {
        "TSP"
    }

    fn language(&self) -> &'static str {
        "Mul-T"
    }

    fn size_description(&self) -> String {
        format!("{} city tour", self.cities)
    }

    fn init_memory(&self) -> Vec<(Addr, u64)> {
        let l = self.layout();
        let d = self.distances();
        let n = self.cities as u64;
        let mut init: Vec<(Addr, u64)> = d
            .iter()
            .enumerate()
            .flat_map(|(i, row)| {
                row.iter()
                    .enumerate()
                    .map(move |(j, &v)| (word(l.matrix, i as u64 * n + j as u64), v))
            })
            .collect();
        init.push((l.bound, self.optimal()));
        init.push((l.counter, 1)); // live work flag, read each visit
        init
    }

    fn programs(&self, nodes: usize) -> Vec<Box<dyn Program>> {
        let l = self.layout();
        let d = Arc::new(self.distances());
        let n = self.cities as u64;
        let optimal = self.optimal();

        let prefixes: Arc<[[usize; 3]]> = self.prefixes().into();

        // The thrash layout: position the hot loop's code on the same
        // cache sets as the bound and counter blocks (and nothing
        // else).
        let sets = 4096u64; // 64 KB / 16 B
        let bound_set = (l.bound.0 / LINE) % sets;
        let code_off = (bound_set + sets - self.code_blocks / 2) % sets;
        let footprint = InstrFootprint::new(code_off, self.code_blocks);
        debug_assert_eq!(bound_set, 2048);

        (0..nodes)
            .map(|me| {
                let tsp = self.clone();
                let d = Arc::clone(&d);
                let prefixes = Arc::clone(&prefixes);
                let mut total = 0u64;
                // Per-node tour stack: unique addresses per node, all
                // mapping to cache sets 1024.. — clear of the matrix
                // (low sets) and the code sweep (around 2048) in the
                // node's own cache.
                let private = Addr((0x10_0000 + me as u64 * 4096 + 1024) * LINE);
                let _ = l.private_base;
                // Subtrees are dealt round-robin: one phase per subtree
                // of mine, then a last phase publishes the results.
                let subtrees = prefixes.len().saturating_sub(me).div_ceil(nodes);
                let program = Phased::new(Some(footprint), move |k, ops: &mut Vec<Op>| {
                    match k.cmp(&subtrees) {
                        Ordering::Less => {
                            let t = me + k * nodes;
                            // Fetch the work descriptor for this subtree.
                            ops.push(Op::Read(Addr(l.subtrees.0 + (t as u64 % 512) * LINE)));
                            let visits = tsp.subtree_visits(&d, optimal, prefixes[t]);
                            for (v, &city) in visits.iter().enumerate() {
                                // The inner loop: consult the global
                                // bound and the shared work counter (the
                                // two blocks every node touches), scan
                                // this city's distance row, push the
                                // tour frame to the private stack,
                                // think.
                                ops.push(Op::Read(l.bound));
                                ops.push(Op::Read(l.counter));
                                ops.push(Op::Read(word(l.matrix, city as u64 * n)));
                                ops.push(Op::Read(word(l.matrix, city as u64 * n + n / 2)));
                                ops.push(Op::Write(
                                    Addr(private.0 + (v as u64 % 32) * LINE),
                                    city as u64,
                                ));
                                ops.push(Op::Compute(1600));
                            }
                            total += visits.len() as u64;
                        }
                        Ordering::Equal => {
                            // Publish this node's expansion count to its
                            // own slot; node 0 folds them after the
                            // barrier. (A fetch-add on one global
                            // counter would serialize a machine-wide
                            // write storm at the end of the run — the
                            // paper's two hot blocks are read-mostly.)
                            ops.push(Op::Write(
                                Addr(l.subtrees.0 + (256 + me as u64 % 256) * LINE),
                                total,
                            ));
                            ops.push(Op::Barrier);
                            if me == 0 {
                                // Publish the answer (already optimal by
                                // seeding).
                                ops.push(Op::Read(l.bound));
                                ops.push(Op::Write(l.result, optimal));
                            }
                        }
                        Ordering::Greater => return false,
                    }
                    true
                });
                Box::new(program) as Box<dyn Program>
            })
            .collect()
    }

    fn expected_results(&self) -> Vec<(Addr, u64)> {
        vec![(self.layout().result, self.optimal())]
    }
}

/// Total branch-and-bound tree visits across all subtrees (work size —
/// used by tests and the harness to report problem scale).
pub fn total_visits(tsp: &Tsp) -> usize {
    let d = tsp.distances();
    let optimal = tsp.optimal();
    tsp.prefixes()
        .into_iter()
        .map(|p| tsp.subtree_visits(&d, optimal, p).len())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_app;
    use limitless_core::ProtocolSpec;
    use limitless_machine::MachineConfig;

    fn quick() -> Tsp {
        Tsp {
            cities: 7,
            seed: 0x7591,
            code_blocks: 48,
        }
    }

    #[test]
    fn optimal_is_a_valid_tour_length() {
        let t = quick();
        let opt = t.optimal();
        let d = t.distances();
        // Any concrete tour is an upper bound.
        let naive: u64 = (0..t.cities).map(|i| d[i][(i + 1) % t.cities]).sum();
        assert!(opt > 0);
        assert!(opt <= naive);
    }

    #[test]
    fn optimal_is_deterministic() {
        assert_eq!(quick().optimal(), quick().optimal());
    }

    #[test]
    fn seeded_search_visits_are_pruned() {
        // With the optimal seed the search must expand far fewer nodes
        // than the full permutation tree.
        let t = quick();
        let visits = total_visits(&t);
        let full: usize = (1..t.cities).product::<usize>() * 2;
        assert!(visits > 0);
        assert!(
            visits < full * 10,
            "visits {visits} vs factorial scale {full}"
        );
    }

    #[test]
    fn runs_on_machine_and_result_checks() {
        let app = quick();
        run_app(
            &app,
            MachineConfig::builder()
                .nodes(8)
                .protocol(ProtocolSpec::limitless(5))
                .victim_cache(true)
                .check_coherence(true)
                .build(),
        );
    }

    #[test]
    fn thrashing_hurts_and_victim_cache_helps() {
        // Figure 3's mechanism at miniature scale: base (no victim,
        // real ifetch) must show more data misses than the
        // victim-cache configuration.
        let app = quick();
        let base = run_app(
            &app,
            MachineConfig::builder()
                .nodes(4)
                .protocol(ProtocolSpec::limitless(5))
                .build(),
        );
        let victim = run_app(
            &app,
            MachineConfig::builder()
                .nodes(4)
                .protocol(ProtocolSpec::limitless(5))
                .victim_cache(true)
                .build(),
        );
        let perfect = run_app(
            &app,
            MachineConfig::builder()
                .nodes(4)
                .protocol(ProtocolSpec::limitless(5))
                .perfect_ifetch(true)
                .build(),
        );
        assert!(
            victim.cycles < base.cycles,
            "victim caching must help: {} vs {}",
            victim.cycles,
            base.cycles
        );
        assert!(
            perfect.cycles < base.cycles,
            "perfect ifetch must help: {} vs {}",
            perfect.cycles,
            base.cycles
        );
    }
}
