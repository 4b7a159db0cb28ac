//! Differential randomized tests for the hot-path directory storage:
//! the production structures (presence-word [`HwDirTable`] rows,
//! id-keyed open-addressed [`SwDirectory`]) must behave identically to
//! the fat reference models ([`HwDirEntry`], [`SwDirModel`]) under long
//! random operation tapes, across every pointer-capacity × row-width
//! pairing. Companion to `prop_model.rs`, which checks the reference
//! models themselves against pure set semantics.
//!
//! Cases are generated with the deterministic `SplitMix64` generator,
//! so every failure is reproducible from the printed case number.

use limitless_dir::{HwDirEntry, HwDirTable, SwDirModel, SwDirectory};
use limitless_sim::{BlockAddr, NodeId, SplitMix64};

const CASES: u64 = 48;

/// Node counts spanning one-word rows (16, 64), a barely-used second
/// word (68), and the 255/256/257 and 1023/1024 boundaries where the
/// presence-word count steps and the scale-out machines actually run.
const NODE_COUNTS: [usize; 8] = [16, 64, 68, 255, 256, 257, 1023, 1024];

fn sorted(mut v: Vec<NodeId>) -> Vec<NodeId> {
    v.sort_unstable();
    v
}

#[test]
fn hw_rows_match_fat_entry_under_random_tapes() {
    let mut rng = SplitMix64::new(0x7001);
    for &nodes in &NODE_COUNTS {
        for capacity in [0usize, 1, 2, 5, 8, 9, 13] {
            // Node ids drawn slightly past 64 to force low-bit alias
            // pairs (`node & 63`) across the first word seam when the
            // machine allows it; on the big boundary machines the full
            // range is used instead so the upper presence words see
            // traffic.
            let span = if nodes > 256 { nodes } else { nodes.min(80) } as u64;
            for case in 0..CASES {
                let mut t = HwDirTable::with_nodes(capacity, nodes);
                let row = t.push_row();
                let mut m = HwDirEntry::new(capacity);
                let mut scratch: Vec<NodeId> = Vec::new();
                let tag = format!("nodes={nodes} cap={capacity} case={case}");
                for _ in 0..60 {
                    let node = NodeId(rng.next_below(span) as u16);
                    match rng.next_below(10) {
                        // Record a reader: outcomes must agree exactly.
                        0..=5 => {
                            let got = t.row_mut(row).record_reader(node);
                            let want = m.record_reader(node);
                            assert_eq!(got, want, "{tag}");
                        }
                        // Remove: agreement on whether it was present.
                        6 | 7 => {
                            let got = t.row_mut(row).remove_ptr(node);
                            let want = m.remove_ptr(node);
                            assert_eq!(got, want, "{tag}");
                        }
                        // Drain into a reused buffer vs the model's
                        // fresh-Vec drain: same set, both left empty.
                        8 => {
                            scratch.clear();
                            t.row_mut(row).take_ptrs_into(&mut scratch);
                            assert_eq!(sorted(scratch.clone()), sorted(m.drain_ptrs()), "{tag}");
                            assert_eq!(t.row(row).ptr_count(), 0, "{tag}");
                        }
                        // Clear without observing.
                        _ => {
                            t.row_mut(row).clear_ptrs();
                            m.drain_ptrs();
                        }
                    }
                    // Full-state agreement after every operation.
                    assert_eq!(t.row(row).ptr_count(), m.ptr_count(), "{tag}");
                    assert_eq!(
                        sorted(t.row(row).ptrs_vec()),
                        sorted(m.ptrs().to_vec()),
                        "{tag}"
                    );
                    let probe = NodeId(rng.next_below(span) as u16);
                    assert_eq!(
                        t.row(row).contains_ptr(probe),
                        m.ptrs().contains(&probe),
                        "{tag} probe={probe:?}"
                    );
                    t.row(row)
                        .structural_invariants()
                        .unwrap_or_else(|e| panic!("{tag}: {e}"));
                }
            }
        }
    }
}

#[test]
fn sw_directory_matches_model_under_random_tapes() {
    let mut rng = SplitMix64::new(0x7002);
    for &nodes in &NODE_COUNTS {
        let span = nodes as u64;
        for case in 0..CASES {
            let mut d = SwDirectory::for_nodes(nodes);
            let mut m = SwDirModel::new();
            let mut scratch: Vec<NodeId> = Vec::new();
            let tag = format!("nodes={nodes} case={case}");
            for _ in 0..120 {
                let id = rng.next_below(6) as u32;
                let block = BlockAddr(u64::from(id));
                let node = NodeId(rng.next_below(span) as u16);
                match rng.next_below(12) {
                    0..=5 => {
                        let got = d.record_reader(id, node);
                        let want = m.record_reader(block, node);
                        assert_eq!(got, want, "{tag}");
                    }
                    6 => {
                        // Batch record: same count of new readers.
                        let batch = [node, NodeId(rng.next_below(span) as u16)];
                        let got = d.record_readers(id, &batch);
                        let want = m.record_readers(block, &batch);
                        assert_eq!(got, want, "{tag}");
                    }
                    7 | 8 => {
                        scratch.clear();
                        let got = d.drain_readers_into(id, &mut scratch);
                        let want = m.drain_readers(block);
                        assert_eq!(got, want.len(), "{tag}");
                        assert_eq!(sorted(scratch.clone()), sorted(want), "{tag}");
                        assert_eq!(d.reader_count(id), 0, "{tag}");
                    }
                    9 => {
                        assert_eq!(d.clear_readers(id), m.clear_readers(block), "{tag}");
                    }
                    _ => {
                        let got = d.remove_reader(id, node);
                        let want = m.remove_reader(block, node);
                        assert_eq!(got, want, "{tag}");
                    }
                }
                // Full-state agreement after every operation.
                assert_eq!(d.reader_count(id), m.readers(block).len(), "{tag}");
                assert_eq!(
                    sorted(d.readers_vec(id)),
                    sorted(m.readers(block).to_vec()),
                    "{tag}"
                );
                let probe = NodeId(rng.next_below(span) as u16);
                assert_eq!(
                    d.contains_reader(id, probe),
                    m.readers(block).contains(&probe),
                    "{tag}"
                );
                assert_eq!(d.live_entries(), m.live_entries(), "{tag}");
                d.structural_invariants(id)
                    .unwrap_or_else(|e| panic!("{tag}: {e}"));
            }
            // The operation counters bill identically: the id-keyed
            // table must not make software traps look cheaper (or
            // dearer) than the reference hash-map implementation did.
            assert_eq!(d.stats(), m.stats(), "{tag}");
        }
    }
}

/// The overflow handler's bulk transfer (`ptr_words` →
/// `record_reader_words`) must be observationally identical — contents
/// *and* stat billing — to feeding the same pointers through the
/// per-node loop, at every row width.
#[test]
fn word_bulk_transfer_matches_per_node_loop() {
    let mut rng = SplitMix64::new(0x7003);
    for &nodes in &NODE_COUNTS {
        let width = nodes.div_ceil(64);
        for case in 0..CASES {
            let mut fast = SwDirectory::for_nodes(nodes);
            let mut slow = SwDirectory::for_nodes(nodes);
            let mut m = SwDirModel::new();
            let tag = format!("nodes={nodes} case={case}");
            for round in 0..8 {
                let id = rng.next_below(3) as u32;
                let block = BlockAddr(u64::from(id));
                // Sparse-ish words, masked to the machine's node ids.
                let mut words: Vec<u64> = (0..width)
                    .map(|_| rng.next_u64() & rng.next_u64())
                    .collect();
                if nodes % 64 != 0 {
                    words[width - 1] &= (1u64 << (nodes % 64)) - 1;
                }
                let stored = fast.record_reader_words(id, &words);
                let mut stored_slow = 0usize;
                let mut stored_model = 0usize;
                for node in 0..nodes as u16 {
                    if words[usize::from(node >> 6)] & (1u64 << (node & 63)) != 0 {
                        stored_slow += usize::from(slow.record_reader(id, NodeId(node)));
                        stored_model += usize::from(m.record_reader(block, NodeId(node)));
                    }
                }
                assert_eq!(stored, stored_slow, "{tag} round {round}");
                assert_eq!(stored, stored_model, "{tag} round {round}");
                assert_eq!(
                    fast.readers_vec(id),
                    slow.readers_vec(id),
                    "{tag} round {round}"
                );
                assert_eq!(fast.stats(), slow.stats(), "{tag} round {round}");
                assert_eq!(fast.stats(), m.stats(), "{tag} round {round}");
                // Occasionally drain so empty→nonempty alloc billing
                // gets re-exercised on emptied records.
                if rng.next_below(3) == 0 {
                    let mut a = Vec::new();
                    let mut b = Vec::new();
                    assert_eq!(
                        fast.drain_readers_into(id, &mut a),
                        slow.drain_readers_into(id, &mut b)
                    );
                    m.drain_readers(block);
                    assert_eq!(a, b, "{tag} round {round}");
                }
            }
        }
    }
}
