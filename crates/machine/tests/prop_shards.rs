//! The engine-equivalence property at scale: a 256-node machine run
//! serially and with 2, 3, 4 and 8 event lanes must produce
//! bit-identical results — the same cycle count, event count,
//! aggregate statistics, final memory image and, most sensitively, the
//! same machine-wide block-id assignment. Dense block ids are handed
//! out in first-touch order at each home node, so the per-home
//! interner fingerprints detect *any* reordering of directory events
//! between engines, even one that happens not to change a counter.
//!
//! Two extra cases target the lookahead-matrix machinery specifically:
//! a prime node count (67 nodes over 4 lanes — maximally uneven
//! partition bounds on a non-square mesh) and a tiny barrier-latency
//! override that collapses lane 0's matrix rows far below everyone
//! else's (a strongly asymmetric `D`).

use limitless_core::ProtocolSpec;
use limitless_machine::{FnProgram, Machine, MachineConfig, Op, Program, RunReport};
use limitless_sim::{Addr, NodeId, SplitMix64};

const NODES: usize = 256;
const BLOCKS: u64 = 512;
const STEPS: usize = 48;

/// Random partitioned-writer programs (each node writes only its own
/// blocks, reads anywhere), the same construction the protocol
/// equivalence property uses.
fn programs(nodes: usize, blocks: u64, steps: usize, seed: u64) -> Vec<Box<dyn Program>> {
    (0..nodes)
        .map(|i| {
            let mut rng = SplitMix64::new(seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
            let mut step = 0usize;
            Box::new(FnProgram(move |node: NodeId, _| {
                if step >= steps {
                    return Op::Finish;
                }
                step += 1;
                if step.is_multiple_of(16) {
                    return Op::Barrier;
                }
                let r = rng.next_below(10);
                if r < 3 {
                    let b =
                        u64::from(node.0) + nodes as u64 * rng.next_below(blocks / nodes as u64);
                    Op::Write(Addr(0x1000 + b * 16), u64::from(node.0) << 32 | step as u64)
                } else if r < 4 {
                    Op::Compute(rng.next_below(60) + 1)
                } else {
                    Op::Read(Addr(0x1000 + rng.next_below(blocks) * 16))
                }
            })) as Box<dyn Program>
        })
        .collect()
}

struct RunOutput {
    report: RunReport,
    image: Vec<(Addr, u64)>,
    fingerprints: Vec<u64>,
}

fn run_cfg(cfg: MachineConfig, nodes: usize, seed: u64) -> RunOutput {
    run_sized(cfg, nodes, BLOCKS, STEPS, seed)
}

fn run_sized(cfg: MachineConfig, nodes: usize, blocks: u64, steps: usize, seed: u64) -> RunOutput {
    let mut m = Machine::new(cfg);
    m.load(programs(nodes, blocks, steps, seed));
    let report = m.run();
    RunOutput {
        image: m.memory_image(),
        fingerprints: m.interner_fingerprints(),
        report,
    }
}

fn run(seed: u64, shards: usize) -> RunOutput {
    run_cfg(
        MachineConfig::builder()
            .nodes(NODES)
            .protocol(ProtocolSpec::limitless(5))
            .shards(shards)
            .build(),
        NODES,
        seed,
    )
}

fn assert_identical(reference: &RunOutput, sharded: &RunOutput, tag: &str) {
    assert_eq!(
        reference.report.cycles, sharded.report.cycles,
        "cycle count diverged: {tag}"
    );
    assert_eq!(
        reference.report.events, sharded.report.events,
        "event count diverged: {tag}"
    );
    assert_eq!(
        reference.report.stats, sharded.report.stats,
        "aggregate statistics diverged: {tag}"
    );
    assert_eq!(
        reference.image, sharded.image,
        "memory image diverged: {tag}"
    );
    assert_eq!(
        reference.fingerprints, sharded.fingerprints,
        "block-id assignment diverged: {tag}"
    );
}

#[test]
fn sharded_runs_at_256_nodes_are_bit_identical() {
    const CASES: u64 = 3;
    let mut case_rng = SplitMix64::new(0x256);
    for _ in 0..CASES {
        let seed = case_rng.next_u64();
        let reference = run(seed, 1);
        assert_eq!(
            reference.fingerprints.len(),
            NODES,
            "one interner fingerprint per home node"
        );
        assert!(
            reference.fingerprints.iter().any(|&f| f != 0),
            "the workload must touch the directories"
        );
        for shards in [2usize, 3, 4, 8] {
            let sharded = run(seed, shards);
            assert_identical(
                &reference,
                &sharded,
                &format!("{shards} shards (seed {seed:#x})"),
            );
        }
    }
}

/// A prime node count over 4 and 8 lanes: the partition bounds are
/// maximally uneven (17/17/17/16) and the mesh rows are ragged, so
/// `range_hops` sees every row-segment shape the partitioner can
/// produce.
#[test]
fn prime_node_counts_are_bit_identical() {
    const PRIME_NODES: usize = 67;
    let cfg = |shards: usize| {
        MachineConfig::builder()
            .nodes(PRIME_NODES)
            .protocol(ProtocolSpec::limitless(5))
            .shards(shards)
            .build()
    };
    let mut case_rng = SplitMix64::new(0x67);
    let seed = case_rng.next_u64();
    let reference = run_cfg(cfg(1), PRIME_NODES, seed);
    assert!(
        reference.fingerprints.iter().any(|&f| f != 0),
        "the workload must touch the directories"
    );
    for shards in [4usize, 8] {
        let sharded = run_cfg(cfg(shards), PRIME_NODES, seed);
        assert_identical(
            &reference,
            &sharded,
            &format!("67 nodes, {shards} shards (seed {seed:#x})"),
        );
    }
}

/// The scale-out boundary node counts: 255 and 257 straddle a
/// presence-word seam in the directory rows (four words either side of
/// 256), 1023 and 1024 are the paper-fidelity rung where `u16` node
/// ids, the lane partitioner and the lookahead matrix meet their
/// largest machines. The big rungs run the 16-pointer protocol so
/// wide hardware pointer sets carry the directory traffic end to end;
/// programs are shortened to keep the 1024-node machines test-sized.
#[test]
fn scale_boundary_node_counts_are_bit_identical() {
    let mut case_rng = SplitMix64::new(0x400);
    let cases: [(usize, usize, &[usize]); 4] = [
        (255, 5, &[4]),
        (257, 5, &[4]),
        (1023, 16, &[2, 4]),
        (1024, 16, &[2, 4]),
    ];
    for (nodes, ptrs, lane_counts) in cases {
        let cfg = |shards: usize| {
            MachineConfig::builder()
                .nodes(nodes)
                .protocol(ProtocolSpec::limitless(ptrs))
                .shards(shards)
                .build()
        };
        let blocks = 2 * nodes as u64;
        let steps = if nodes > 512 { 20 } else { 32 };
        let seed = case_rng.next_u64();
        let reference = run_sized(cfg(1), nodes, blocks, steps, seed);
        assert_eq!(reference.fingerprints.len(), nodes, "{nodes} nodes");
        assert!(
            reference.fingerprints.iter().any(|&f| f != 0),
            "the workload must touch the directories at {nodes} nodes"
        );
        for &shards in lane_counts {
            let sharded = run_sized(cfg(shards), nodes, blocks, steps, seed);
            assert_identical(
                &reference,
                &sharded,
                &format!("{nodes} nodes, {shards} shards (seed {seed:#x})"),
            );
        }
    }
}

/// A strongly asymmetric lookahead matrix: with the barrier latency
/// forced down to 2 cycles, lane 0 (the barrier master's lane) has
/// `D[0][b]` rows far below every mesh-message row, so its peers run
/// much shorter windows against it than against each other. Identity
/// must survive the imbalance.
#[test]
fn asymmetric_lookahead_matrix_is_bit_identical() {
    const SMALL_NODES: usize = 64;
    let cfg = |shards: usize| {
        MachineConfig::builder()
            .nodes(SMALL_NODES)
            .protocol(ProtocolSpec::limitless(5))
            .barrier_cycles(2)
            .shards(shards)
            .build()
    };
    let mut case_rng = SplitMix64::new(0xA5);
    let seed = case_rng.next_u64();
    let reference = run_cfg(cfg(1), SMALL_NODES, seed);
    for shards in [2usize, 3, 4, 8] {
        let sharded = run_cfg(cfg(shards), SMALL_NODES, seed);
        assert_identical(
            &reference,
            &sharded,
            &format!("barrier_cycles=2, {shards} shards (seed {seed:#x})"),
        );
    }
}
