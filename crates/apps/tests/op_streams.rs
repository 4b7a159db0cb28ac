//! Op-stream pins: every node's operation sequence, for a fixed set of
//! workload specs, folded into one 64-bit digest per spec.
//!
//! The machine only ever observes what a program emits, so two
//! generators with equal digests drive bit-identical simulations. The
//! constants were recorded from the whole-stream script generators;
//! any change to how programs are produced must reproduce them.

use limitless_apps::{registry, Scale};
use limitless_machine::{Op, Rmw};
use limitless_sim::NodeId;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn op(&mut self, op: Op) {
        let rmw = |r: Rmw| match r {
            Rmw::Add(x) => (0, x),
            Rmw::Exchange(x) => (1, x),
            Rmw::Min(x) => (2, x),
            Rmw::Max(x) => (3, x),
        };
        let (tag, a, b) = match op {
            Op::Read(a) => (0, a.0, 0),
            Op::Write(a, v) => (1, a.0, v),
            Op::Rmw(a, r) => {
                let (kind, x) = rmw(r);
                (2 + kind, a.0, x)
            }
            Op::Compute(c) => (6, c, 0),
            Op::Barrier => (7, 0, 0),
            Op::LockAcquire(l) => (8, u64::from(l), 0),
            Op::LockRelease(l) => (9, u64::from(l), 0),
            Op::Finish => (10, 0, 0),
        };
        self.word(tag);
        self.word(a);
        self.word(b);
    }
}

/// Most operations one node may emit before the pin gives up on it.
const OP_LIMIT: u64 = 50_000_000;

/// Drives every node's program to `Finish` and digests the streams,
/// node by node, each prefixed by its instruction footprint.
fn digest(spec: &str, scale: Scale, nodes: usize) -> u64 {
    let app = registry::build_str(spec, scale).unwrap_or_else(|e| panic!("{spec}: {e}"));
    let mut d = Digest::new();
    for (n, mut program) in app.programs(nodes).into_iter().enumerate() {
        let node = NodeId(n as u16);
        for b in format!("{:?}", program.instr_footprint(node)).bytes() {
            d.word(u64::from(b));
        }
        let mut ops = 0u64;
        loop {
            let op = program.next(node, None);
            d.op(op);
            if op == Op::Finish {
                break;
            }
            ops += 1;
            assert!(ops < OP_LIMIT, "{spec} node {n} never finishes");
        }
    }
    d.0
}

/// `(spec, scale, nodes, digest)`.
const PINS: &[(&str, Scale, usize, u64)] = &[
    ("tsp", Scale::Quick, 16, 0x2DE6BB25B5AED6D4),
    ("tsp", Scale::Quick, 64, 0xD1B035E083EBF7AB),
    ("tsp", Scale::Paper, 16, 0xE16FB62C2C1D5176),
    ("tsp", Scale::Paper, 64, 0xF30683EFBA979CA1),
    ("aq", Scale::Quick, 16, 0xA3B4B72D0B6A86A3),
    ("aq", Scale::Quick, 64, 0xD3C3E9F50A4F5B20),
    ("aq", Scale::Paper, 16, 0xB0D7811F5A13B3D8),
    ("aq", Scale::Paper, 64, 0xE2A3E8B607D18FDD),
    ("smgrid", Scale::Quick, 16, 0xCBC451EE64A73E99),
    ("smgrid", Scale::Quick, 64, 0x1DEAF2C887E73229),
    ("smgrid", Scale::Paper, 16, 0x83C40DD53EAD3BA5),
    ("smgrid", Scale::Paper, 64, 0xB4A9ADE7226213A5),
    ("evolve", Scale::Quick, 16, 0x8F87957BF7D91418),
    ("evolve", Scale::Quick, 64, 0xA250922CF7DDD050),
    ("evolve", Scale::Paper, 16, 0xA73C2653D74A02F6),
    ("evolve", Scale::Paper, 64, 0x2D4DB6B46CC45B0E),
    ("mp3d", Scale::Quick, 16, 0x700E67D58C1B93AA),
    ("mp3d", Scale::Quick, 64, 0x7BF97374F9902362),
    ("mp3d", Scale::Paper, 16, 0x6C916DD446E5D0CF),
    ("mp3d", Scale::Paper, 64, 0xA3FA0F6F7F13710F),
    ("water", Scale::Quick, 16, 0x5B3298F382F8706E),
    ("water", Scale::Quick, 64, 0x0D2A58B45102154F),
    ("water", Scale::Paper, 16, 0x4A4B0AE52B4A3BEB),
    ("water", Scale::Paper, 64, 0x61CD764FCAA0C099),
    ("scale:nodes=1024", Scale::Paper, 1024, 0xB53C8ED554D1F1AC),
    ("worker:ws=8", Scale::Quick, 16, 0x1AC613AE222B5825),
    (
        "synth:seed=7,pattern=migratory,ws=6,jitter=2,rw=0.4,sync=0.3,footprint=small,blocks=40",
        Scale::Quick,
        16,
        0xE91A58F1C8F77952,
    ),
    (
        "synth:seed=11,pattern=producer-consumer,ws=3,sync=0.5,blocks=24",
        Scale::Quick,
        16,
        0x01C6B69F443A945B,
    ),
    (
        "synth:seed=3,pattern=wide-shared,ws=9,jitter=3,sync=0.2,footprint=large,rounds=10",
        Scale::Quick,
        64,
        0x472B8076E977FD99,
    ),
];

#[test]
fn op_streams_match_the_pinned_digests() {
    let mut wrong = Vec::new();
    for &(spec, scale, nodes, want) in PINS {
        let got = digest(spec, scale, nodes);
        if got != want {
            wrong.push(format!(
                "    ({spec:?}, Scale::{scale:?}, {nodes}, {got:#018X}), // pinned {want:#018X}"
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "op streams changed:\n{}",
        wrong.join("\n")
    );
}
