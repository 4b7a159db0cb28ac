//! SYNTH: the parameterized synthetic workload generator.
//!
//! The protocols only ever observe the memory reference stream, so a
//! seeded generator over *sharing structure* — worker-set sizes,
//! read/write mix, sharing pattern, synchronization density,
//! instruction footprint — explores protocol behaviour the six paper
//! applications never reach: worker sets straddling the five-pointer
//! hardware boundary, directory-thrashing interleavings, migratory vs
//! wide-shared mixes (DESIGN.md §11).
//!
//! The generated programs are **data-race-free by construction**:
//! every round is two barrier-separated phases (everyone reads, then
//! designated writers write), each block has exactly one writer per
//! round, and contended counters are touched only through lock-guarded
//! atomic adds. That discipline is what lets every random spec run
//! through the full differential oracle — plain-read values are
//! protocol-independent, so any divergence is a coherence bug, not
//! workload noise.
//!
//! The shared layout is independent of the machine size: `blocks`
//! names a *total* shared-block count and every address is fixed, so
//! [`App::init_memory`] and [`App::expected_results`] — which cannot
//! see the node count — stay consistent with [`App::programs`] at any
//! machine size.

use std::sync::Arc;

use limitless_cache::InstrFootprint;
use limitless_machine::{Op, Program, Rmw};
use limitless_sim::{Addr, SplitMix64};

use crate::layout::slot;
use crate::phased::Phased;
use crate::{App, Scale};

/// How block ownership moves between rounds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SharingPattern {
    /// Ownership migrates: each round's writer is one of the previous
    /// round's readers, so the directory sees read-then-own handoffs
    /// (small worker sets, heavy ownership transfer).
    Migratory,
    /// A fixed producer per block writes; a fixed consumer set reads —
    /// the AQ-style pattern, stable small worker sets.
    #[default]
    ProducerConsumer,
    /// A slowly rotating writer invalidates a *fresh* random reader
    /// set every round — maximal directory pressure, the pattern that
    /// straddles the five-pointer boundary.
    WideShared,
}

impl SharingPattern {
    /// The spec-grammar spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            SharingPattern::Migratory => "migratory",
            SharingPattern::ProducerConsumer => "producer-consumer",
            SharingPattern::WideShared => "wide-shared",
        }
    }

    /// Parses a spec-grammar spelling (underscores accepted).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().replace('_', "-").as_str() {
            "migratory" => Some(SharingPattern::Migratory),
            "producer-consumer" | "pc" => Some(SharingPattern::ProducerConsumer),
            "wide-shared" | "wide" => Some(SharingPattern::WideShared),
            _ => None,
        }
    }

    /// Every pattern, for samplers and docs.
    pub const ALL: [SharingPattern; 3] = [
        SharingPattern::Migratory,
        SharingPattern::ProducerConsumer,
        SharingPattern::WideShared,
    ];
}

/// Instruction working-set size streamed through the combined cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Footprint {
    /// Negligible code footprint (no instruction-fetch traffic).
    #[default]
    None,
    /// 64 instruction blocks — fits comfortably, warm after round one.
    Small,
    /// 2048 instruction blocks — half the 4096-set Alewife cache, so
    /// code evicts data the way TSP's hot loop does.
    Large,
}

impl Footprint {
    /// The spec-grammar spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Footprint::None => "none",
            Footprint::Small => "small",
            Footprint::Large => "large",
        }
    }

    /// Parses a spec-grammar spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "none" => Some(Footprint::None),
            "small" => Some(Footprint::Small),
            "large" => Some(Footprint::Large),
            _ => None,
        }
    }

    fn code_blocks(self) -> Option<u64> {
        match self {
            Footprint::None => None,
            Footprint::Small => Some(64),
            Footprint::Large => Some(2048),
        }
    }
}

/// Number of FIFO locks (and lock-guarded counters) the sync episodes
/// spread across.
const LOCKS: u64 = 4;
/// Private accesses per node per round (split read/write by `rw`).
const PRIVATE_OPS: usize = 4;
/// Most shared blocks a spec may name (keeps the fixed regions apart).
pub const MAX_BLOCKS: usize = 4096;

/// Fixed region bases — independent of machine size by design.
const SHARED_BASE: u64 = 0xD0_0000;
const COUNTER_BASE: u64 = 0xE0_0000;
const PRIVATE_BASE: u64 = 0xE1_0000;

/// The synthetic workload. Build one directly or through the registry
/// spec `synth:seed=7,pattern=wide-shared,ws=6,...`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Synth {
    /// Master seed: same seed, same programs, bit-identical runs.
    pub seed: u64,
    /// Preferred machine size (a hint for harnesses that size the
    /// machine from the spec; `programs(nodes)` adapts to any size).
    pub nodes_hint: Option<usize>,
    /// Sharing pattern.
    pub pattern: SharingPattern,
    /// Target worker-set size: distinct nodes caching each block per
    /// round, *including* the round's writer (whose directory pointer
    /// survives the read phase) — the quantity Figure 6 histograms.
    /// A p-pointer protocol first traps at `ws = p + 1`.
    pub ws: usize,
    /// Half-width of the worker-set size distribution: each block's
    /// worker-set size is sampled uniformly from `ws ± jitter`
    /// (clamped to `[1, nodes]`). 0 = exact sets, the Figure-2
    /// discipline.
    pub jitter: usize,
    /// Fraction of private data accesses that are writes, in `[0, 1]`.
    pub rw: f64,
    /// Per-node per-round probability of a lock-guarded counter
    /// episode (acquire, atomic add, release), in `[0, 1]`.
    pub sync: f64,
    /// Instruction working-set size.
    pub footprint: Footprint,
    /// Total shared blocks (at most [`MAX_BLOCKS`]).
    pub blocks: usize,
    /// Read-barrier-write-barrier rounds.
    pub rounds: usize,
}

impl Synth {
    /// Defaults at a scale: quick keeps rounds short for CI; paper
    /// runs long enough for steady-state directory behaviour.
    pub fn new(scale: Scale) -> Self {
        Synth {
            seed: 1,
            nodes_hint: None,
            pattern: SharingPattern::default(),
            ws: 4,
            jitter: 0,
            rw: 0.3,
            sync: 0.05,
            footprint: Footprint::None,
            blocks: 32,
            rounds: match scale {
                Scale::Quick => 6,
                Scale::Paper => 16,
            },
        }
    }

    /// The scale-out stress preset behind the registry's `scale:`
    /// family: wide-shared sharing whose worker sets grow with the
    /// machine (`ws = nodes / 8`, at least 12, jittered by
    /// `nodes / 32`), so on any limited-pointer protocol the reader
    /// sets blow far past the hardware pointers and every block
    /// overflows into the software extension — the workload that makes
    /// 512- and 1024-node runs exercise the directory's multi-word
    /// presence rows rather than coast on small worker sets. Only a full-map
    /// directory (capacity = nodes) absorbs it without trapping.
    pub fn scale_out(nodes: usize, scale: Scale) -> Self {
        Synth {
            seed: 0x5CA1E,
            nodes_hint: Some(nodes),
            pattern: SharingPattern::WideShared,
            ws: (nodes / 8).max(12),
            jitter: (nodes / 32).max(2),
            rw: 0.3,
            sync: 0.02,
            footprint: Footprint::None,
            blocks: 48,
            rounds: match scale {
                Scale::Quick => 4,
                Scale::Paper => 12,
            },
        }
    }

    /// The canonical spec string this workload parses back from.
    pub fn spec_string(&self) -> String {
        let mut s = format!(
            "synth:seed={},pattern={},ws={},jitter={},rw={},sync={},footprint={},blocks={},rounds={}",
            self.seed,
            self.pattern.as_str(),
            self.ws,
            self.jitter,
            self.rw,
            self.sync,
            self.footprint.as_str(),
            self.blocks,
            self.rounds,
        );
        if let Some(n) = self.nodes_hint {
            s.push_str(&format!(",nodes={n}"));
        }
        s
    }

    fn shared_slot(&self, b: usize) -> Addr {
        slot(Addr(SHARED_BASE), b as u64)
    }

    fn counter_slot(lock: u32) -> Addr {
        slot(Addr(COUNTER_BASE), u64::from(lock))
    }

    fn private_slot(me: usize, s: usize) -> Addr {
        slot(Addr(PRIVATE_BASE), (me * PRIVATE_OPS + s) as u64)
    }

    /// The deterministic value block `b` holds after round `r`
    /// (`r = usize::MAX` is the initial image).
    fn value(&self, b: usize, r: usize) -> u64 {
        let mut rng = SplitMix64::new(
            self.seed ^ (b as u64).wrapping_mul(0xA24B_AED4_963E_E407) ^ ((r as u64) << 40),
        );
        rng.next_u64() | 1
    }

    /// The writer of block `b` in round `r`.
    fn writer(&self, b: usize, r: usize, nodes: usize) -> usize {
        match self.pattern {
            SharingPattern::Migratory => (b + r) % nodes,
            SharingPattern::ProducerConsumer => b % nodes,
            // Rotate every fourth round: long enough for wide sets to
            // build up, short enough to exercise ownership changes.
            SharingPattern::WideShared => (b + r / 4) % nodes,
        }
    }

    /// The full round-by-round schedule: `readers[r][b]` is the sorted
    /// reader set of block `b` in round `r`, and `sync_nodes[r][n]`
    /// the lock node `n` takes that round, if any. Computed once from
    /// the master seed; per-node programs are projections of this
    /// table, which is what keeps the collective schedule consistent.
    fn schedule(&self, nodes: usize) -> SynthSchedule {
        let mut rng = SplitMix64::new(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED);
        // Sampled size counts the writer, so the reader count handed
        // to `pick_readers` is one less.
        let sample_k = |rng: &mut SplitMix64, nodes: usize| {
            let lo = self.ws.saturating_sub(self.jitter).max(1).min(nodes);
            let hi = (self.ws + self.jitter).min(nodes);
            lo + rng.next_below((hi - lo + 1) as u64) as usize - 1
        };
        // Producer-consumer: one fixed reader set per block.
        let fixed: Vec<Vec<usize>> = (0..self.blocks)
            .map(|b| {
                let k = sample_k(&mut rng, nodes);
                pick_readers(&mut rng, nodes, self.writer(b, 0, nodes), k, None)
            })
            .collect();
        let mut readers = Vec::with_capacity(self.rounds);
        let mut sync_nodes = Vec::with_capacity(self.rounds);
        for r in 0..self.rounds {
            let row: Vec<Vec<usize>> = (0..self.blocks)
                .map(|b| match self.pattern {
                    SharingPattern::ProducerConsumer => fixed[b].clone(),
                    SharingPattern::Migratory => {
                        // The next round's writer always reads first —
                        // that read-then-own handoff is the migratory
                        // signature.
                        let k = sample_k(&mut rng, nodes);
                        let next = self.writer(b, r + 1, nodes);
                        pick_readers(&mut rng, nodes, self.writer(b, r, nodes), k, Some(next))
                    }
                    SharingPattern::WideShared => {
                        let k = sample_k(&mut rng, nodes);
                        pick_readers(&mut rng, nodes, self.writer(b, r, nodes), k, None)
                    }
                })
                .collect();
            readers.push(row);
            // Bernoulli(sync) per node, plus which lock it takes.
            let episodes: Vec<Option<u32>> = (0..nodes)
                .map(|_| {
                    let hit = rng.next_f64() < self.sync;
                    let lock = rng.next_below(LOCKS) as u32;
                    hit.then_some(lock)
                })
                .collect();
            sync_nodes.push(episodes);
        }
        SynthSchedule {
            readers,
            sync_nodes,
        }
    }

    /// Total lock episodes per lock across the whole run at a given
    /// machine size — the deterministic final counter values.
    pub fn counter_totals(&self, nodes: usize) -> [u64; LOCKS as usize] {
        let sched = self.schedule(nodes);
        let mut totals = [0u64; LOCKS as usize];
        for round in &sched.sync_nodes {
            for lock in round.iter().flatten() {
                totals[*lock as usize] += 1;
            }
        }
        totals
    }
}

struct SynthSchedule {
    /// `readers[r][b]`: reader set of block `b` in round `r`.
    readers: Vec<Vec<Vec<usize>>>,
    /// `sync_nodes[r][n]`: the lock node `n` takes in round `r`, if any.
    sync_nodes: Vec<Vec<Option<u32>>>,
}

/// Picks `k` distinct reader nodes excluding `writer`, optionally
/// forcing `must` into the set: a random rotation over the node ring.
fn pick_readers(
    rng: &mut SplitMix64,
    nodes: usize,
    writer: usize,
    k: usize,
    must: Option<usize>,
) -> Vec<usize> {
    let k = k.min(nodes - 1);
    let start = rng.next_below(nodes as u64) as usize;
    let mut set = Vec::with_capacity(k);
    if let Some(m) = must {
        if m != writer {
            set.push(m);
        }
    }
    let mut i = 0;
    while set.len() < k && i < nodes {
        let cand = (start + i) % nodes;
        i += 1;
        // Ring candidates are distinct, so only `must` can repeat.
        if cand != writer && Some(cand) != must {
            set.push(cand);
        }
    }
    set.sort_unstable();
    set
}

impl App for Synth {
    fn name(&self) -> &'static str {
        "SYNTH"
    }

    fn language(&self) -> &'static str {
        "generated"
    }

    fn size_description(&self) -> String {
        self.spec_string()
    }

    fn preferred_nodes(&self) -> Option<usize> {
        self.nodes_hint
    }

    fn programs(&self, nodes: usize) -> Vec<Box<dyn Program>> {
        assert!(nodes >= 2, "synth needs at least two nodes");
        assert!(self.blocks <= MAX_BLOCKS, "synth blocks exceed MAX_BLOCKS");
        let sched = self.schedule(nodes);
        let footprint = self
            .footprint
            .code_blocks()
            .map(|code| InstrFootprint::new(0, code));
        // Transpose the reader sets once: `reads[r][n]` lists, in
        // ascending order, the blocks node `n` reads in round `r`.
        let reads: Vec<Vec<Vec<usize>>> = sched
            .readers
            .iter()
            .map(|row| {
                let mut by_node = vec![Vec::new(); nodes];
                for (b, set) in row.iter().enumerate() {
                    for &n in set {
                        by_node[n].push(b);
                    }
                }
                by_node
            })
            .collect();
        let rounds = Arc::new((reads, sched.sync_nodes));
        let spec = *self;

        (0..nodes)
            .map(|me| {
                let rounds = Arc::clone(&rounds);
                // Private traffic draws from a per-node stream so its
                // volume varies node-to-node without touching the
                // shared schedule.
                let mut rng =
                    SplitMix64::new(self.seed ^ (me as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
                let mut priv_vals = [0u64; PRIVATE_OPS];
                // One phase is one round.
                Box::new(Phased::new(footprint, move |r, ops: &mut Vec<Op>| {
                    let (reads, sync_nodes) = &*rounds;
                    let Some(mine) = reads.get(r) else {
                        return false;
                    };
                    // Read phase: every block whose reader set holds me.
                    for &b in &mine[me] {
                        ops.push(Op::Read(spec.shared_slot(b)));
                    }
                    // Private mix: reads and writes in the rw ratio,
                    // on this node's own blocks — protocol-invisible
                    // values, real cache/home traffic.
                    for (s, val) in priv_vals.iter_mut().enumerate() {
                        let a = Self::private_slot(me, s);
                        if rng.next_f64() < spec.rw {
                            *val = val.wrapping_add(1 + r as u64);
                            ops.push(Op::Write(a, *val));
                        } else {
                            ops.push(Op::Read(a));
                        }
                    }
                    ops.push(Op::Compute(1 + rng.next_below(64)));
                    // Sync episode: lock-guarded atomic add. The grant
                    // order varies across protocols; the sum does not.
                    if let Some(lock) = sync_nodes[r][me] {
                        ops.push(Op::LockAcquire(lock));
                        ops.push(Op::Rmw(Self::counter_slot(lock), Rmw::Add(1)));
                        ops.push(Op::LockRelease(lock));
                    }
                    ops.push(Op::Barrier);
                    // Write phase: the blocks I own this round.
                    for b in 0..spec.blocks {
                        if spec.writer(b, r, nodes) == me {
                            ops.push(Op::Write(spec.shared_slot(b), spec.value(b, r)));
                        }
                    }
                    ops.push(Op::Barrier);
                    true
                })) as Box<dyn Program>
            })
            .collect()
    }

    fn init_memory(&self) -> Vec<(Addr, u64)> {
        // Round-0 reads must observe deterministic values: seed every
        // shared block (and zero the counters) before the run. The
        // fixed layout makes this valid at any machine size.
        let mut init: Vec<(Addr, u64)> = (0..self.blocks)
            .map(|b| (self.shared_slot(b), self.value(b, usize::MAX)))
            .collect();
        for lock in 0..LOCKS as u32 {
            init.push((Self::counter_slot(lock), 0));
        }
        init
    }

    fn expected_results(&self) -> Vec<(Addr, u64)> {
        // Every block's final value is its last round's write —
        // node-count-independent because values are a function of
        // (block, round) alone. Counter totals depend on the machine
        // size, so they are verified in tests via `counter_totals`.
        if self.rounds == 0 {
            return Vec::new();
        }
        (0..self.blocks)
            .map(|b| (self.shared_slot(b), self.value(b, self.rounds - 1)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_app, run_app_with_machine};
    use limitless_core::ProtocolSpec;
    use limitless_machine::MachineConfig;

    fn cfg(p: ProtocolSpec, nodes: usize) -> MachineConfig {
        MachineConfig::builder()
            .nodes(nodes)
            .protocol(p)
            .victim_cache(true)
            .check_coherence(true)
            .build()
    }

    fn base() -> Synth {
        Synth {
            blocks: 16,
            ..Synth::new(Scale::Quick)
        }
    }

    #[test]
    fn every_pattern_runs_clean_and_verifies() {
        for pattern in SharingPattern::ALL {
            let app = Synth { pattern, ..base() };
            let r = run_app(&app, cfg(ProtocolSpec::limitless(5), 8));
            assert!(r.cycles.as_u64() > 0, "{pattern:?}");
        }
    }

    #[test]
    fn worker_set_parameter_drives_invalidations() {
        let invs = |ws: usize| {
            let app = Synth {
                pattern: SharingPattern::WideShared,
                ws,
                ..base()
            };
            let r = run_app(&app, cfg(ProtocolSpec::full_map(), 8));
            r.stats.engine.invs_sent
        };
        assert!(
            invs(6) > invs(2),
            "wider worker sets must invalidate more copies"
        );
    }

    #[test]
    fn sets_beyond_five_pointers_trap() {
        let traps = |ws: usize| {
            let app = Synth {
                pattern: SharingPattern::WideShared,
                ws,
                sync: 0.0,
                ..base()
            };
            run_app(&app, cfg(ProtocolSpec::limitless(5), 8))
                .stats
                .engine
                .traps
        };
        let below = traps(3);
        let above = traps(7);
        assert!(
            above > below,
            "ws=7 ({above} traps) must out-trap ws=3 ({below} traps) on 5 pointers"
        );
    }

    #[test]
    fn same_seed_is_bit_identical_different_seed_is_not() {
        let a = run_app(&base(), cfg(ProtocolSpec::limitless(5), 8));
        let b = run_app(&base(), cfg(ProtocolSpec::limitless(5), 8));
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.stats, b.stats);
        let c = run_app(
            &Synth { seed: 2, ..base() },
            cfg(ProtocolSpec::limitless(5), 8),
        );
        assert_ne!(a.cycles, c.cycles, "different seed, different stream");
    }

    #[test]
    fn sync_density_produces_lock_traffic_with_exact_counter_totals() {
        let app = Synth {
            sync: 0.8,
            rounds: 8,
            ..base()
        };
        let totals = app.counter_totals(8);
        assert!(
            totals.iter().sum::<u64>() > 0,
            "sync=0.8 must schedule episodes"
        );
        let (_, m) = run_app_with_machine(&app, cfg(ProtocolSpec::limitless(5), 8));
        for (lock, want) in totals.into_iter().enumerate() {
            assert_eq!(
                m.peek(Synth::counter_slot(lock as u32)),
                want,
                "lock {lock} counter"
            );
        }
    }

    #[test]
    fn runs_at_sizes_other_than_the_hint() {
        // The fixed layout means init/expected stay valid even when
        // the machine is larger or smaller than the spec's hint.
        let app = Synth {
            nodes_hint: Some(8),
            ..base()
        };
        run_app(&app, cfg(ProtocolSpec::limitless(5), 4));
        run_app(&app, cfg(ProtocolSpec::limitless(5), 16));
    }

    #[test]
    fn spec_string_round_trips_through_the_registry() {
        let app = Synth {
            seed: 7,
            pattern: SharingPattern::Migratory,
            ws: 6,
            ..base()
        };
        let spec: crate::AppSpec = app.spec_string().parse().unwrap();
        let rebuilt = crate::registry::build(&spec, Scale::Quick).unwrap();
        assert_eq!(rebuilt.size_description(), app.spec_string());
    }

    #[test]
    fn jitter_spreads_worker_set_sizes() {
        let app = Synth {
            pattern: SharingPattern::WideShared,
            ws: 4,
            jitter: 2,
            ..base()
        };
        let sched = app.schedule(8);
        let sizes: std::collections::BTreeSet<usize> = sched
            .readers
            .iter()
            .flat_map(|row| row.iter().map(Vec::len))
            .collect();
        assert!(sizes.len() > 1, "jitter=2 must vary set sizes: {sizes:?}");
    }

    #[test]
    fn scale_out_traps_at_every_limited_pointer_regime_past_512_nodes() {
        // 520 nodes gives every directory row nine presence words,
        // whatever the pointer count. scale_out's worker sets (ws = 65
        // here) overflow every limited-pointer capacity, so the
        // software extension traps at 1, 8 and 16 pointers alike; only
        // a full map (capacity = nodes) absorbs the sharing in
        // hardware. Blocks and rounds are trimmed to keep
        // the 520-node machine test-sized.
        let app = Synth {
            blocks: 6,
            rounds: 2,
            sync: 0.0,
            ..Synth::scale_out(520, Scale::Quick)
        };
        let run = |p: ProtocolSpec| {
            let cfg = MachineConfig::builder().nodes(520).protocol(p).build();
            run_app(&app, cfg).stats.engine.traps
        };
        for ptrs in [1usize, 8, 16] {
            assert!(
                run(ProtocolSpec::limitless(ptrs)) > 0,
                "{ptrs}-pointer directory must overflow into software"
            );
        }
        assert_eq!(run(ProtocolSpec::full_map()), 0, "full map never traps");
    }

    #[test]
    fn footprint_slows_the_run_down() {
        let cycles = |footprint: Footprint| {
            let app = Synth {
                footprint,
                ..base()
            };
            run_app(&app, cfg(ProtocolSpec::limitless(5), 8))
                .cycles
                .as_u64()
        };
        assert!(
            cycles(Footprint::Large) > cycles(Footprint::None),
            "a 2048-block code sweep must cost instruction fetches"
        );
    }
}
