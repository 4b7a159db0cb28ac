//! The software-extended directory: what the protocol extension
//! software maintains in the home node's ordinary memory.
//!
//! The flexible coherence interface (paper §4.1) gives handlers a
//! free-listing memory manager and hash-table administration; the
//! hand-tuned assembly version replaces both with a special-purpose
//! scheme. The *cost* of those operations is charged by the protocol
//! layer's cost model; this module provides the functional behaviour
//! plus operation counts so the cost model has something to bill.
//!
//! Two implementations live here:
//!
//! * [`SwDirectory`] — production storage, keyed by the **dense `u32`
//!   block ids** the per-home interner hands out. Because the ids are
//!   dense and unique, the "hash table" is an open-addressed table
//!   whose hash is the identity: slot = id, probe length exactly 1,
//!   growth by plain extension with **no rehash** (a stored id's slot
//!   never moves — the degenerate limit of the growable node-cache
//!   scheme in SNIPPETS.md snippet 2). Slot `id` is row `id` of a
//!   [`PresenceRows`] column: `ceil(nodes / 64)` presence words, the
//!   same layout as the hardware pointers, so membership is one bit
//!   test and draining walks 64 presence bits per step.
//! * [`SwDirModel`] — the original `FxHashMap<BlockAddr, SwDirEntry>`
//!   implementation, kept as the reference model the production table
//!   is differentially tested against (`tests/prop_dirhot.rs`).

use std::collections::hash_map::Entry;

use limitless_sim::{BlockAddr, FxHashMap, NodeId};

use crate::presence::{popcount, PresenceRows};

/// The software extension record for one overflowed block: the
/// pointers that did not fit in hardware.
///
/// The paper's memory-usage optimization for small worker sets
/// (§5: `Dir_nH_1S_{NB,LACK}` beating `Dir_nH_1S_{NB}` at size 4) is
/// modelled by the free list handing out small records first; the
/// functional content is just the pointer set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SwDirEntry {
    readers: Vec<NodeId>,
}

impl SwDirEntry {
    /// Creates an empty extension record.
    pub fn new() -> Self {
        SwDirEntry::default()
    }

    /// Records a reader; returns `true` if it was new.
    pub fn record_reader(&mut self, node: NodeId) -> bool {
        if self.readers.contains(&node) {
            false
        } else {
            self.readers.push(node);
            true
        }
    }

    /// The recorded readers.
    pub fn readers(&self) -> &[NodeId] {
        &self.readers
    }

    /// Removes all readers, returning them (for invalidation).
    pub fn drain(&mut self) -> Vec<NodeId> {
        std::mem::take(&mut self.readers)
    }

    /// Number of recorded readers.
    pub fn len(&self) -> usize {
        self.readers.len()
    }

    /// Whether no readers are recorded.
    pub fn is_empty(&self) -> bool {
        self.readers.is_empty()
    }
}

/// Operation counters for the software directory (inputs to the
/// handler cost model and to memory-overhead accounting).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SwDirStats {
    /// Hash-table lookups performed.
    pub lookups: u64,
    /// Extension records allocated from the free list.
    pub allocs: u64,
    /// Extension records returned to the free list.
    pub frees: u64,
    /// Pointers stored into extension records.
    pub ptrs_stored: u64,
    /// High-water mark of live extension records.
    pub peak_entries: u64,
}

/// The per-home software directory, keyed by dense `u32` block ids.
///
/// Slot `id` of the table belongs to block id `id` forever (identity
/// hash, probe length 1): it is row `id` of a [`PresenceRows`] column,
/// and an empty row *is* "no record". Growing the table appends rows
/// without moving anything. The operation counters ([`SwDirStats`])
/// bill exactly like the reference [`SwDirModel`]: one lookup per
/// recorded/queried pointer on the mutating paths, an "allocation"
/// whenever an empty record goes live, a "free" whenever a live record
/// empties.
///
/// # Examples
///
/// ```
/// use limitless_dir::SwDirectory;
/// use limitless_sim::NodeId;
///
/// let mut d = SwDirectory::new();
/// d.record_reader(7, NodeId(3));
/// assert_eq!(d.readers_vec(7), vec![NodeId(3)]);
/// assert!(d.contains_reader(7, NodeId(3)));
/// ```
#[derive(Clone, Debug)]
pub struct SwDirectory {
    /// Reader set of every block id seen so far, one row each.
    readers: PresenceRows,
    /// Live (non-empty) record count.
    live: usize,
    stats: SwDirStats,
}

impl Default for SwDirectory {
    fn default() -> Self {
        SwDirectory::new()
    }
}

impl SwDirectory {
    /// Creates an empty software directory for a paper-scale machine
    /// (<= 64 nodes, one presence word per record). Equivalent to
    /// `for_nodes(64)`.
    pub fn new() -> Self {
        SwDirectory::for_nodes(64)
    }

    /// Creates an empty software directory for a `nodes`-node machine;
    /// records are `ceil(nodes / 64)` presence words.
    pub fn for_nodes(nodes: usize) -> Self {
        SwDirectory {
            readers: PresenceRows::new(nodes),
            live: 0,
            stats: SwDirStats::default(),
        }
    }

    /// Whether `id` has a row (a slot that may hold a record).
    #[inline]
    fn has_slot(&self, id: u32) -> bool {
        self.readers.has_row(id as usize)
    }

    /// Bumps the live-record count and its high-water mark (a record
    /// just went empty → non-empty, an "allocation" to the cost model).
    #[inline]
    fn note_alloc(&mut self) {
        self.stats.allocs += 1;
        self.live += 1;
        self.stats.peak_entries = self.stats.peak_entries.max(self.live as u64);
    }

    /// Bills the release of a record that just emptied.
    #[inline]
    fn note_free(&mut self) {
        self.stats.frees += 1;
        self.live -= 1;
    }

    /// Whether an extension record exists for `id` (uncounted probe
    /// for assertions and stats).
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        self.has_slot(id) && !self.readers.is_empty(id as usize)
    }

    /// Records a reader for `id`, allocating an extension record if
    /// needed. Returns `true` if the reader was newly recorded.
    pub fn record_reader(&mut self, id: u32, node: NodeId) -> bool {
        self.stats.lookups += 1;
        self.readers.grow_to(id as usize + 1);
        let was_empty = self.readers.is_empty(id as usize);
        let new = self.readers.insert(id as usize, node);
        if was_empty && new {
            self.note_alloc();
        }
        self.stats.ptrs_stored += u64::from(new);
        new
    }

    /// Records many readers at once. Returns how many were new.
    pub fn record_readers(&mut self, id: u32, nodes: &[NodeId]) -> usize {
        nodes.iter().filter(|&&n| self.record_reader(id, n)).count()
    }

    /// The overflow handler's bulk path: ORs presence words (from
    /// [`HwEntryRef::ptr_words`]; bit `b` of word `w` is node
    /// `w * 64 + b`) into the record 64 readers per step, billing
    /// exactly like the equivalent per-node
    /// [`SwDirectory::record_readers`] loop. Returns how many readers
    /// were new.
    ///
    /// [`HwEntryRef::ptr_words`]: crate::HwEntryRef::ptr_words
    pub fn record_reader_words(&mut self, id: u32, words: &[u64]) -> usize {
        let total = popcount(words);
        self.stats.lookups += total as u64;
        if total == 0 {
            return 0;
        }
        self.readers.grow_to(id as usize + 1);
        if self.readers.is_empty(id as usize) {
            self.note_alloc();
        }
        let new = self.readers.or_in(id as usize, words);
        self.stats.ptrs_stored += new as u64;
        new
    }

    /// Removes all readers for `id`, appending them to `out` in
    /// ascending node order and freeing the record. Returns how many
    /// readers were removed.
    pub fn drain_readers_into(&mut self, id: u32, out: &mut Vec<NodeId>) -> usize {
        self.stats.lookups += 1;
        if !self.contains(id) {
            return 0;
        }
        self.note_free();
        self.readers.drain_into(id as usize, out)
    }

    /// Removes all readers for `id` without returning them, freeing
    /// the record. This is the zero-allocation path for handlers that
    /// invalidate from a separately computed sharer list. Returns how
    /// many readers were dropped.
    pub fn clear_readers(&mut self, id: u32) -> usize {
        self.stats.lookups += 1;
        if !self.contains(id) {
            return 0;
        }
        self.note_free();
        self.readers.clear_row(id as usize)
    }

    /// Number of readers recorded for `id` (uncounted).
    #[inline]
    pub fn reader_count(&self, id: u32) -> usize {
        if self.has_slot(id) {
            self.readers.count(id as usize)
        } else {
            0
        }
    }

    /// Whether `node` is recorded as a reader of `id` (uncounted).
    #[inline]
    pub fn contains_reader(&self, id: u32, node: NodeId) -> bool {
        self.has_slot(id) && self.readers.contains(id as usize, node)
    }

    /// Appends the readers of `id` to `out` without removing them
    /// (ascending node order; uncounted).
    #[inline]
    pub fn extend_readers(&self, id: u32, out: &mut Vec<NodeId>) {
        if self.has_slot(id) {
            out.extend(self.readers.iter(id as usize));
        }
    }

    /// The readers of `id` as a fresh vector (sanitizer and test
    /// convenience).
    pub fn readers_vec(&self, id: u32) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.extend_readers(id, &mut out);
        out
    }

    /// Removes one reader pointer from `id`'s record (replacement
    /// hint). Frees the record if it becomes empty. Returns whether
    /// the pointer was present.
    pub fn remove_reader(&mut self, id: u32, node: NodeId) -> bool {
        self.stats.lookups += 1;
        if !self.has_slot(id) || !self.readers.remove(id as usize, node) {
            return false;
        }
        if self.readers.is_empty(id as usize) {
            self.note_free();
        }
        true
    }

    /// Number of live extension records.
    pub fn live_entries(&self) -> usize {
        self.live
    }

    /// Empties the directory while keeping the record width and the
    /// storage capacity — the machine-reuse reset path. Afterwards the
    /// directory behaves exactly like a freshly constructed one
    /// (counters restart at zero).
    pub fn clear(&mut self) {
        self.readers.clear();
        self.live = 0;
        self.stats = SwDirStats::default();
    }

    /// Extension-record invariants for `id`, checked by the coherence
    /// sanitizer. None can fail: duplicate readers are unrepresentable
    /// in presence words, and an empty row *is* "no record", so no
    /// record can be left allocated but empty.
    pub fn structural_invariants(&self, _id: u32) -> Result<(), String> {
        Ok(())
    }

    /// Operation counters.
    pub fn stats(&self) -> SwDirStats {
        self.stats
    }
}

/// The original hash-table software directory, kept as the reference
/// model for differential tests of [`SwDirectory`]: an
/// `FxHashMap<BlockAddr, SwDirEntry>` with free-list accounting.
#[derive(Clone, Debug, Default)]
pub struct SwDirModel {
    table: FxHashMap<BlockAddr, SwDirEntry>,
    free_list: Vec<SwDirEntry>,
    stats: SwDirStats,
}

impl SwDirModel {
    /// Creates an empty software directory.
    pub fn new() -> Self {
        SwDirModel::default()
    }

    /// Looks up the extension record for `block`, if one exists.
    pub fn lookup(&mut self, block: BlockAddr) -> Option<&SwDirEntry> {
        self.stats.lookups += 1;
        self.table.get(&block)
    }

    /// Whether an extension record exists for `block` (uncounted probe
    /// for assertions and stats).
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.table.contains_key(&block)
    }

    /// Records a reader for `block`, allocating an extension record
    /// if needed. Returns `true` if the reader was newly recorded.
    pub fn record_reader(&mut self, block: BlockAddr, node: NodeId) -> bool {
        self.stats.lookups += 1;
        let entry = match self.table.entry(block) {
            Entry::Occupied(o) => o.into_mut(),
            Entry::Vacant(v) => {
                self.stats.allocs += 1;
                let rec = self.free_list.pop().unwrap_or_default();
                v.insert(rec)
            }
        };
        let new = entry.record_reader(node);
        if new {
            self.stats.ptrs_stored += 1;
        }
        self.stats.peak_entries = self.stats.peak_entries.max(self.table.len() as u64);
        new
    }

    /// Records many readers at once. Returns how many were new.
    pub fn record_readers(&mut self, block: BlockAddr, nodes: &[NodeId]) -> usize {
        nodes
            .iter()
            .filter(|&&n| self.record_reader(block, n))
            .count()
    }

    /// Removes and returns all readers for `block`, freeing its record
    /// back to the free list. Returns an empty vector if no record
    /// exists.
    pub fn drain_readers(&mut self, block: BlockAddr) -> Vec<NodeId> {
        self.stats.lookups += 1;
        match self.table.remove(&block) {
            Some(mut rec) => {
                let readers = rec.drain();
                self.stats.frees += 1;
                self.free_list.push(rec);
                readers
            }
            None => Vec::new(),
        }
    }

    /// Removes all readers for `block` without returning them, freeing
    /// its record with capacity intact. Returns how many were dropped.
    pub fn clear_readers(&mut self, block: BlockAddr) -> usize {
        self.stats.lookups += 1;
        match self.table.remove(&block) {
            Some(mut rec) => {
                let n = rec.readers.len();
                rec.readers.clear();
                self.stats.frees += 1;
                self.free_list.push(rec);
                n
            }
            None => 0,
        }
    }

    /// The readers recorded for `block` (empty slice if none).
    pub fn readers(&self, block: BlockAddr) -> &[NodeId] {
        self.table.get(&block).map_or(&[], |e| e.readers())
    }

    /// Removes one reader pointer from `block`'s record. Frees the
    /// record if it becomes empty. Returns whether it was present.
    pub fn remove_reader(&mut self, block: BlockAddr, node: NodeId) -> bool {
        self.stats.lookups += 1;
        if let Some(rec) = self.table.get_mut(&block) {
            if let Some(i) = rec.readers.iter().position(|&p| p == node) {
                rec.readers.swap_remove(i);
                if rec.is_empty() {
                    let rec = self.table.remove(&block).expect("record vanished");
                    self.stats.frees += 1;
                    self.free_list.push(rec);
                }
                return true;
            }
        }
        false
    }

    /// Number of live extension records.
    pub fn live_entries(&self) -> usize {
        self.table.len()
    }

    /// Extension-record invariants for `block`: no duplicate reader
    /// pointers, no record left allocated but empty.
    pub fn structural_invariants(&self, block: BlockAddr) -> Result<(), String> {
        let Some(rec) = self.table.get(&block) else {
            return Ok(());
        };
        if rec.is_empty() {
            return Err("empty software record left allocated".to_string());
        }
        for (i, &p) in rec.readers.iter().enumerate() {
            if rec.readers[..i].contains(&p) {
                return Err(format!("duplicate software reader pointer {p}"));
            }
        }
        Ok(())
    }

    /// Operation counters.
    pub fn stats(&self) -> SwDirStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Record widths a test should cover: one word (16, 64), a
    /// barely-used second word (65), and the 255..=257 and 1023/1024
    /// seams.
    const NODE_COUNTS: [usize; 8] = [16, 64, 65, 255, 256, 257, 1023, 1024];

    /// Runs a test body at every record width. NodeIds must stay < 16.
    fn at_every_width(f: impl Fn(&mut SwDirectory)) {
        for nodes in NODE_COUNTS {
            let mut d = SwDirectory::for_nodes(nodes);
            f(&mut d);
        }
    }

    #[test]
    fn last_node_round_trips_at_every_width() {
        // The last addressable node on odd-sized machines lives in a
        // partially-used top word and must round-trip.
        for nodes in NODE_COUNTS {
            let mut d = SwDirectory::for_nodes(nodes);
            let last = NodeId((nodes - 1) as u16);
            assert!(d.record_reader(7, last), "{nodes}");
            assert!(d.contains_reader(7, last), "{nodes}");
            assert!(!d.contains_reader(7, NodeId::NONE), "{nodes}");
            assert_eq!(d.readers_vec(7), vec![last], "{nodes}");
            assert!(d.remove_reader(7, last), "{nodes}");
            assert_eq!(d.live_entries(), 0, "{nodes}");
            d.structural_invariants(7).unwrap();
        }
    }

    #[test]
    fn record_and_read_back() {
        at_every_width(|d| {
            assert!(d.record_reader(1, NodeId(5)));
            assert!(!d.record_reader(1, NodeId(5)));
            assert!(d.record_reader(1, NodeId(6)));
            assert_eq!(d.readers_vec(1), vec![NodeId(5), NodeId(6)]);
            assert_eq!(d.reader_count(1), 2);
            assert!(d.contains_reader(1, NodeId(5)));
            assert!(!d.contains_reader(1, NodeId(7)));
            assert_eq!(d.readers_vec(2), Vec::new());
        });
    }

    #[test]
    fn drain_frees_record() {
        at_every_width(|d| {
            d.record_reader(1, NodeId(5));
            d.record_reader(1, NodeId(6));
            let mut readers = Vec::new();
            assert_eq!(d.drain_readers_into(1, &mut readers), 2);
            assert_eq!(readers, vec![NodeId(5), NodeId(6)]);
            assert_eq!(d.live_entries(), 0);
            assert_eq!(d.stats().frees, 1);
            readers.clear();
            assert_eq!(d.drain_readers_into(1, &mut readers), 0);
            assert!(readers.is_empty());
        });
    }

    #[test]
    fn free_list_recycles_records() {
        at_every_width(|d| {
            d.record_reader(1, NodeId(5));
            let mut scratch = Vec::new();
            d.drain_readers_into(1, &mut scratch);
            d.record_reader(2, NodeId(6));
            let s = d.stats();
            // Second record came off the free list but still counts as
            // an allocation event for the cost model.
            assert_eq!(s.allocs, 2);
            assert_eq!(s.frees, 1);
        });
    }

    #[test]
    fn batch_record_counts_new_only() {
        at_every_width(|d| {
            d.record_reader(1, NodeId(2));
            let added = d.record_readers(1, &[NodeId(2), NodeId(3), NodeId(4)]);
            assert_eq!(added, 2);
            assert_eq!(d.reader_count(1), 3);
        });
    }

    #[test]
    fn word_record_bills_like_the_node_loop() {
        // The bulk path (presence words from the hardware table) must
        // leave stats and contents identical to the per-node loop it
        // replaces, across word boundaries.
        for nodes in NODE_COUNTS {
            let mut a = SwDirectory::for_nodes(nodes);
            let mut b = SwDirectory::for_nodes(nodes);
            a.record_reader(1, NodeId(3));
            b.record_reader(1, NodeId(3));
            let readers: Vec<NodeId> = [3u16, 5, 63, 64, 70, 200, 1023]
                .into_iter()
                .filter(|&n| usize::from(n) < nodes)
                .map(NodeId)
                .collect();
            let mut words = vec![0u64; nodes.div_ceil(64)];
            for n in &readers {
                words[usize::from(n.0 >> 6)] |= 1 << (n.0 & 63);
            }
            assert_eq!(
                a.record_reader_words(1, &words),
                b.record_readers(1, &readers)
            );
            assert_eq!(a.stats(), b.stats(), "{nodes}");
            assert_eq!(a.readers_vec(1), b.readers_vec(1), "{nodes}");
            // All-zero word slices are free: no lookup, no allocation.
            let before = a.stats();
            assert_eq!(a.record_reader_words(2, &vec![0u64; words.len()]), 0);
            assert_eq!(a.stats(), before);
            assert!(!a.contains(2));
        }
    }

    #[test]
    fn word_seams_round_trip() {
        for nodes in NODE_COUNTS {
            let mut d = SwDirectory::for_nodes(nodes);
            let ids: Vec<u16> = [0u16, 15, 63, 64, 65, 511, 512, 1023]
                .into_iter()
                .filter(|&n| usize::from(n) < nodes)
                .collect();
            for &n in &ids {
                assert!(d.record_reader(9, NodeId(n)));
                assert!(!d.record_reader(9, NodeId(n)));
            }
            assert_eq!(d.reader_count(9), ids.len());
            assert_eq!(
                d.readers_vec(9),
                ids.iter().map(|&n| NodeId(n)).collect::<Vec<_>>()
            );
            let last = *ids.last().unwrap();
            assert!(d.contains_reader(9, NodeId(last)));
            assert!(!d.contains_reader(9, NodeId(1)));
            assert!(d.remove_reader(9, NodeId(last)));
            let mut out = Vec::new();
            assert_eq!(d.drain_readers_into(9, &mut out), ids.len() - 1);
            assert_eq!(d.live_entries(), 0);
            assert!(d.structural_invariants(9).is_ok());
        }
    }

    #[test]
    fn clear_readers_frees_the_record() {
        at_every_width(|d| {
            for n in 0..8 {
                d.record_reader(1, NodeId(n));
            }
            assert_eq!(d.clear_readers(1), 8);
            assert_eq!(d.live_entries(), 0);
            assert_eq!(d.stats().frees, 1);
            // The slot keeps its zeroed words, so re-recording is a
            // fresh allocation to the cost model only.
            d.record_reader(2, NodeId(0));
            assert_eq!(d.readers_vec(2), vec![NodeId(0)]);
            assert_eq!(d.clear_readers(3), 0);
        });
    }

    #[test]
    fn remove_reader_frees_empty_record() {
        at_every_width(|d| {
            d.record_reader(1, NodeId(2));
            assert!(d.remove_reader(1, NodeId(2)));
            assert_eq!(d.live_entries(), 0);
            assert!(!d.remove_reader(1, NodeId(2)));
            assert!(!d.contains(1));
        });
    }

    #[test]
    fn peak_entries_tracks_high_water() {
        at_every_width(|d| {
            let mut scratch = Vec::new();
            for b in 0..10 {
                d.record_reader(b, NodeId(0));
            }
            for b in 0..10 {
                d.drain_readers_into(b, &mut scratch);
            }
            assert_eq!(d.stats().peak_entries, 10);
            assert_eq!(d.live_entries(), 0);
        });
    }

    #[test]
    fn contains_does_not_bill_lookup() {
        at_every_width(|d| {
            d.record_reader(1, NodeId(0));
            let before = d.stats().lookups;
            assert!(d.contains(1));
            assert!(!d.contains(9));
            assert!(d.contains_reader(1, NodeId(0)));
            assert_eq!(d.reader_count(1), 1);
            assert_eq!(d.stats().lookups, before);
        });
    }

    #[test]
    fn slots_are_identity_hashed_and_growth_never_rehashes() {
        at_every_width(|d| {
            d.record_reader(3, NodeId(1));
            // Growing the table (touching a much larger id) must leave
            // the earlier record exactly where it was.
            d.record_reader(4000, NodeId(2));
            assert_eq!(d.readers_vec(3), vec![NodeId(1)]);
            assert_eq!(d.readers_vec(4000), vec![NodeId(2)]);
            assert_eq!(d.live_entries(), 2);
        });
    }

    #[test]
    fn model_matches_old_behaviour() {
        // The reference model keeps the original BlockAddr-keyed API
        // and billing.
        let mut d = SwDirModel::new();
        assert!(d.record_reader(BlockAddr(1), NodeId(5)));
        assert!(!d.record_reader(BlockAddr(1), NodeId(5)));
        assert_eq!(d.readers(BlockAddr(1)), &[NodeId(5)]);
        assert_eq!(d.drain_readers(BlockAddr(1)), vec![NodeId(5)]);
        d.record_reader(BlockAddr(2), NodeId(6));
        let s = d.stats();
        assert_eq!((s.allocs, s.frees), (2, 1));
        assert!(d.lookup(BlockAddr(2)).is_some());
        assert!(d.structural_invariants(BlockAddr(2)).is_ok());
    }
}
