//! Struct-of-arrays storage for directory entries: the one per-block
//! directory row.
//!
//! [`super::hw::HwDirEntry`] models one entry as a fat struct with its
//! own heap-allocated pointer array — fine for reasoning, wasteful for
//! a table of hundreds of thousands of entries where a directory event
//! touches exactly one. `HwDirTable` stores the same state as parallel
//! columns: one `Vec` per field, flag bits packed into a `u8` bitset
//! column, `Option<NodeId>` fields collapsed to [`NodeId::NONE`]
//! sentinels.
//!
//! A row is the whole per-block record the home keeps (paper §2–§3.1):
//! the pointers, the one-bit local pointer, the overflow and
//! transaction meta-state, the ack counter, and the engine's
//! bookkeeping for the same transactions — the zero-pointer protocol's
//! remote-access bit, the upgrade and software-transaction flags, and
//! the owner a Flush/Downgrade is waiting on.
//!
//! Pointer sets live in one [`PresenceRows`] column (DESIGN.md §12):
//! each row is `ceil(nodes / 64)` presence words at every machine
//! size, and the protocol's pointer count `i` is a bound on the row's
//! set size, not a storage shape. [`HwEntryMut`] and [`HwEntryRef`]
//! are row views exposing the [`HwDirEntry`] method set, so the
//! protocol engine and the [`ExtensionHandler`](../../limitless_core)
//! ecosystem never see the layout; `hw.rs` is kept as the reference
//! model the table is differentially tested against. The one
//! observable difference is pointer *iteration order* (ascending node
//! id here, insertion order in the model) — the engine only consumes
//! pointer sets through sorted/deduplicated sharer lists, membership
//! tests and counts, so the order never reaches a simulation output.

use limitless_sim::NodeId;

#[cfg(doc)]
use crate::hw::HwDirEntry;
use crate::hw::{HwState, PtrStoreOutcome};
use crate::presence::{PresenceRows, PtrIter};

/// Bit positions in the packed per-entry flag column.
mod flag {
    /// The home node itself holds a read-only copy (one-bit pointer).
    pub const LOCAL_BIT: u8 = 1 << 0;
    /// The entry has overflowed into the software extension.
    pub const OVERFLOWED: u8 = 1 << 1;
    /// The pending transaction request is a write.
    pub const PENDING_IS_WRITE: u8 = 1 << 2;
    /// Zero-pointer protocol: the block has been accessed by a remote
    /// node (the per-block extra bit of §2.3). Never reset.
    pub const REMOTE_ACCESSED: u8 = 1 << 3;
    /// The in-flight write transaction grants an upgrade (permission
    /// without data).
    pub const UPGRADE_PENDING: u8 = 1 << 4;
    /// The current write transaction was initiated by software
    /// (determines LACK/ACK behaviour on completion).
    pub const SW_TRANSACTION: u8 = 1 << 5;
}

/// Column-oriented storage for every per-block directory row of one
/// home node.
///
/// # Examples
///
/// ```
/// use limitless_dir::{HwDirTable, HwState, PtrStoreOutcome};
/// use limitless_sim::NodeId;
///
/// let mut t = HwDirTable::new(2);
/// let row = t.push_row();
/// let mut e = t.row_mut(row);
/// assert_eq!(e.record_reader(NodeId(1)), PtrStoreOutcome::Stored);
/// assert_eq!(e.record_reader(NodeId(2)), PtrStoreOutcome::Stored);
/// assert_eq!(e.record_reader(NodeId(3)), PtrStoreOutcome::Overflow);
/// assert_eq!(t.row(row).state(), HwState::Uncached); // engine sets states
/// assert_eq!(t.row(row).ptrs_vec(), vec![NodeId(1), NodeId(2)]);
/// assert!(t.row(row).contains_ptr(NodeId(2)));
/// ```
#[derive(Clone, Debug)]
pub struct HwDirTable {
    /// Uniform pointer capacity per entry.
    capacity: usize,
    state: Vec<HwState>,
    flags: Vec<u8>,
    acks: Vec<u32>,
    /// Pending transaction requester ([`NodeId::NONE`] when absent).
    pending: Vec<NodeId>,
    /// Sole owner in `ReadWrite` ([`NodeId::NONE`] when absent).
    owner: Vec<NodeId>,
    /// The owner a Flush/Downgrade response is awaited from
    /// ([`NodeId::NONE`] when absent).
    owner_fetch: Vec<NodeId>,
    /// The hardware pointer set of every entry, one row each.
    ptrs: PresenceRows,
    /// Pointers in use per entry: the row's popcount, kept so the
    /// capacity check on every `record_reader` is O(1) on wide rows.
    len: Vec<u16>,
}

impl Default for HwDirTable {
    fn default() -> Self {
        HwDirTable::new(0)
    }
}

impl HwDirTable {
    /// Creates an empty table for a paper-scale machine (<= 64 nodes,
    /// one presence word per row) whose entries have `capacity`
    /// hardware pointers each. Equivalent to `with_nodes(capacity, 64)`.
    pub fn new(capacity: usize) -> Self {
        HwDirTable::with_nodes(capacity, 64)
    }

    /// Creates an empty table for a `nodes`-node machine whose entries
    /// have `capacity` hardware pointers each. Rows are
    /// `ceil(nodes / 64)` presence words (see the module docs).
    pub fn with_nodes(capacity: usize, nodes: usize) -> Self {
        HwDirTable {
            capacity,
            state: Vec::new(),
            flags: Vec::new(),
            acks: Vec::new(),
            pending: Vec::new(),
            owner: Vec::new(),
            owner_fetch: Vec::new(),
            ptrs: PresenceRows::new(nodes),
            len: Vec::new(),
        }
    }

    /// The uniform pointer capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// Removes every entry while keeping the row width and the column
    /// capacity — the machine-reuse reset path. The table is
    /// indistinguishable from a freshly constructed one afterwards;
    /// rows are re-created by [`HwDirTable::push_row`] as blocks are
    /// re-interned.
    pub fn clear(&mut self) {
        self.state.clear();
        self.flags.clear();
        self.acks.clear();
        self.pending.clear();
        self.owner.clear();
        self.owner_fetch.clear();
        self.ptrs.clear();
        self.len.clear();
    }

    /// Appends a fresh `Uncached` entry with every flag clear, returning
    /// its row index.
    pub fn push_row(&mut self) -> u32 {
        let row = u32::try_from(self.state.len()).expect("more than 2^32 directory rows");
        self.state.push(HwState::Uncached);
        self.flags.push(0);
        self.acks.push(0);
        self.pending.push(NodeId::NONE);
        self.owner.push(NodeId::NONE);
        self.owner_fetch.push(NodeId::NONE);
        self.ptrs.push_row();
        self.len.push(0);
        row
    }

    /// Read-only view of one entry.
    #[inline]
    pub fn row(&self, row: u32) -> HwEntryRef<'_> {
        HwEntryRef {
            t: self,
            i: row as usize,
        }
    }

    /// Mutable view of one entry.
    #[inline]
    pub fn row_mut(&mut self, row: u32) -> HwEntryMut<'_> {
        HwEntryMut {
            i: row as usize,
            t: self,
        }
    }
}

macro_rules! shared_row_accessors {
    () => {
        /// Current coherence state.
        #[inline]
        pub fn state(&self) -> HwState {
            self.t.state[self.i]
        }

        /// The hardware pointer capacity.
        #[inline]
        pub fn capacity(&self) -> usize {
            self.t.capacity
        }

        /// Iterates the pointers currently stored in hardware, in
        /// ascending node order.
        #[inline]
        pub fn ptr_iter(&self) -> PtrIter<'_> {
            self.t.ptrs.iter(self.i)
        }

        /// The stored pointers as a fresh vector (sanitizer and test
        /// convenience — the hot paths use [`Self::ptr_iter`],
        /// [`Self::contains_ptr`] and [`Self::ptr_count`]).
        pub fn ptrs_vec(&self) -> Vec<NodeId> {
            self.ptr_iter().collect()
        }

        /// Whether `node` is recorded as a hardware pointer.
        #[inline]
        pub fn contains_ptr(&self, node: NodeId) -> bool {
            self.t.ptrs.contains(self.i, node)
        }

        /// The pointer set as presence words (bit `b` of word `w` is
        /// node `w * 64 + b`) — what the overflow trap handler ORs into
        /// the software directory.
        #[inline]
        pub fn ptr_words(&self) -> &[u64] {
            self.t.ptrs.row(self.i)
        }

        /// Number of hardware pointers in use.
        #[inline]
        pub fn ptr_count(&self) -> usize {
            usize::from(self.t.len[self.i])
        }

        /// Whether the one-bit local pointer is set.
        #[inline]
        pub fn local_bit(&self) -> bool {
            self.t.flags[self.i] & flag::LOCAL_BIT != 0
        }

        /// Whether the entry has overflowed into the software extension.
        #[inline]
        pub fn overflowed(&self) -> bool {
            self.t.flags[self.i] & flag::OVERFLOWED != 0
        }

        /// Outstanding acknowledgment count.
        #[inline]
        pub fn acks_pending(&self) -> u32 {
            self.t.acks[self.i]
        }

        /// The requester recorded for transaction completion.
        #[inline]
        pub fn pending_requester(&self) -> Option<NodeId> {
            self.t.pending[self.i].get()
        }

        /// Whether the pending request is a write.
        #[inline]
        pub fn pending_is_write(&self) -> bool {
            self.t.flags[self.i] & flag::PENDING_IS_WRITE != 0
        }

        /// The sole owner when in `ReadWrite` state.
        #[inline]
        pub fn owner(&self) -> Option<NodeId> {
            if self.state() == HwState::ReadWrite {
                self.t.owner[self.i].get()
            } else {
                None
            }
        }

        /// Zero-pointer protocol: has a remote node ever accessed the
        /// block?
        #[inline]
        pub fn remote_accessed(&self) -> bool {
            self.t.flags[self.i] & flag::REMOTE_ACCESSED != 0
        }

        /// Whether the in-flight write transaction grants an upgrade.
        #[inline]
        pub fn upgrade_pending(&self) -> bool {
            self.t.flags[self.i] & flag::UPGRADE_PENDING != 0
        }

        /// Whether the current write transaction was initiated by
        /// software.
        #[inline]
        pub fn sw_transaction(&self) -> bool {
            self.t.flags[self.i] & flag::SW_TRANSACTION != 0
        }

        /// The owner this block is waiting on for a Flush/Downgrade
        /// response, if any.
        #[inline]
        pub fn owner_fetch(&self) -> Option<NodeId> {
            self.t.owner_fetch[self.i].get()
        }

        /// Entry-local structural invariants (same checks and messages
        /// as [`HwDirEntry::structural_invariants`], plus the pointer
        /// count matching the presence bits; duplicate pointers are
        /// unrepresentable).
        pub fn structural_invariants(&self) -> Result<(), String> {
            let n = self.ptr_count();
            let stored = self.t.ptrs.count(self.i);
            if n != stored {
                return Err(format!("entry counts {n} pointers but stores {stored}"));
            }
            if n > self.capacity() {
                return Err(format!(
                    "{} pointers stored in a {}-pointer entry",
                    n,
                    self.capacity()
                ));
            }
            match self.state() {
                HwState::Uncached | HwState::ReadOnly | HwState::ReadWrite => {
                    if self.acks_pending() != 0 {
                        return Err(format!(
                            "{} acknowledgments outstanding outside a transaction ({:?})",
                            self.acks_pending(),
                            self.state()
                        ));
                    }
                }
                HwState::ReadTransaction | HwState::WriteTransaction => {
                    if self.pending_requester().is_none() {
                        return Err(format!("{:?} with no pending requester", self.state()));
                    }
                    if n != 0 {
                        return Err(format!(
                            "{:?} holds {} pointers while the storage doubles as the ack counter",
                            self.state(),
                            n
                        ));
                    }
                    let want_write = self.state() == HwState::WriteTransaction;
                    if self.pending_is_write() != want_write {
                        return Err(format!(
                            "{:?} records a pending {}",
                            self.state(),
                            if self.pending_is_write() {
                                "write"
                            } else {
                                "read"
                            }
                        ));
                    }
                }
            }
            Ok(())
        }
    };
}

/// Read-only view of one [`HwDirTable`] row.
#[derive(Clone, Copy, Debug)]
pub struct HwEntryRef<'a> {
    t: &'a HwDirTable,
    i: usize,
}

impl<'a> HwEntryRef<'a> {
    shared_row_accessors!();
}

/// Mutable view of one [`HwDirTable`] row, exposing the
/// [`HwDirEntry`] method set over the column storage.
#[derive(Debug)]
pub struct HwEntryMut<'a> {
    t: &'a mut HwDirTable,
    i: usize,
}

impl<'a> HwEntryMut<'a> {
    shared_row_accessors!();

    /// Sets the coherence state.
    #[inline]
    pub fn set_state(&mut self, s: HwState) {
        self.t.state[self.i] = s;
    }

    /// Sets or clears the one-bit local pointer.
    #[inline]
    pub fn set_local_bit(&mut self, v: bool) {
        self.set_flag(flag::LOCAL_BIT, v);
    }

    /// Marks the entry as extended in software, or back to
    /// hardware-only.
    #[inline]
    pub fn set_overflowed(&mut self, v: bool) {
        self.set_flag(flag::OVERFLOWED, v);
    }

    /// Marks the block as remotely accessed (never reset).
    #[inline]
    pub fn set_remote_accessed(&mut self) {
        self.set_flag(flag::REMOTE_ACCESSED, true);
    }

    /// Sets or clears the upgrade-pending flag.
    #[inline]
    pub fn set_upgrade_pending(&mut self, v: bool) {
        self.set_flag(flag::UPGRADE_PENDING, v);
    }

    /// Reads and clears the upgrade-pending flag.
    #[inline]
    pub fn take_upgrade_pending(&mut self) -> bool {
        let v = self.upgrade_pending();
        self.set_upgrade_pending(false);
        v
    }

    /// Sets or clears the software-transaction flag.
    #[inline]
    pub fn set_sw_transaction(&mut self, v: bool) {
        self.set_flag(flag::SW_TRANSACTION, v);
    }

    /// Sets or clears the owner-fetch target.
    #[inline]
    pub fn set_owner_fetch(&mut self, o: Option<NodeId>) {
        self.t.owner_fetch[self.i] = NodeId::from_option(o);
    }

    #[inline]
    fn set_flag(&mut self, bit: u8, v: bool) {
        if v {
            self.t.flags[self.i] |= bit;
        } else {
            self.t.flags[self.i] &= !bit;
        }
    }

    /// Records a read-only sharer; identical semantics to
    /// [`HwDirEntry::record_reader`] (duplicates are stored, a full
    /// pointer array overflows).
    #[inline]
    pub fn record_reader(&mut self, node: NodeId) -> PtrStoreOutcome {
        if self.t.ptrs.contains(self.i, node) {
            PtrStoreOutcome::Stored
        } else if usize::from(self.t.len[self.i]) < self.t.capacity {
            self.t.ptrs.insert(self.i, node);
            self.t.len[self.i] += 1;
            PtrStoreOutcome::Stored
        } else {
            PtrStoreOutcome::Overflow
        }
    }

    /// Removes a specific pointer (set-semantics, like the model's
    /// swap-remove). Returns whether it was present.
    pub fn remove_ptr(&mut self, node: NodeId) -> bool {
        let present = self.t.ptrs.remove(self.i, node);
        self.t.len[self.i] -= u16::from(present);
        present
    }

    /// Empties all hardware pointers into `out` (appending, ascending
    /// node order) without touching the heap beyond `out` itself.
    pub fn take_ptrs_into(&mut self, out: &mut Vec<NodeId>) {
        self.t.ptrs.drain_into(self.i, out);
        self.t.len[self.i] = 0;
    }

    /// Empties all hardware pointers without reading them.
    pub fn clear_ptrs(&mut self) {
        self.t.ptrs.clear_row(self.i);
        self.t.len[self.i] = 0;
    }

    /// Installs a single owner pointer for the `ReadWrite` state.
    pub fn set_sole_owner(&mut self, node: NodeId) {
        self.clear_ptrs();
        self.t.owner[self.i] = node;
        self.t.state[self.i] = HwState::ReadWrite;
        self.set_local_bit(false);
    }

    /// Clears the owner pointer (leaving `ReadWrite`).
    pub fn clear_owner(&mut self) {
        self.t.owner[self.i] = NodeId::NONE;
    }

    /// Begins a transaction; identical semantics to
    /// [`HwDirEntry::begin_transaction`] (the ack counter reuses
    /// pointer storage, so the pointers are cleared).
    pub fn begin_transaction(
        &mut self,
        state: HwState,
        acks: u32,
        requester: Option<NodeId>,
        is_write: bool,
    ) {
        debug_assert!(matches!(
            state,
            HwState::ReadTransaction | HwState::WriteTransaction
        ));
        self.clear_ptrs();
        self.t.state[self.i] = state;
        self.t.acks[self.i] = acks;
        self.t.pending[self.i] = NodeId::from_option(requester);
        self.set_flag(flag::PENDING_IS_WRITE, is_write);
    }

    /// Counts one acknowledgment; returns the number still pending.
    ///
    /// # Panics
    ///
    /// Panics if no acknowledgments are outstanding (a protocol bug).
    pub fn count_ack(&mut self) -> u32 {
        assert!(self.t.acks[self.i] > 0, "spurious acknowledgment");
        self.t.acks[self.i] -= 1;
        self.t.acks[self.i]
    }

    /// Clears the hardware transaction bookkeeping (on completion). The
    /// engine's upgrade, software-transaction and owner-fetch fields
    /// have their own clear points.
    pub fn end_transaction(&mut self) {
        self.t.acks[self.i] = 0;
        self.t.pending[self.i] = NodeId::NONE;
        self.set_flag(flag::PENDING_IS_WRITE, false);
    }

    /// Resets the hardware entry to `Uncached` with no pointers (the
    /// engine's flags and owner-fetch field are left as they are).
    pub fn reset(&mut self) {
        self.t.state[self.i] = HwState::Uncached;
        self.clear_ptrs();
        self.t.owner[self.i] = NodeId::NONE;
        self.set_local_bit(false);
        self.set_overflowed(false);
        self.end_transaction();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hw::HwDirEntry;

    /// Row widths a test should cover: one word (16, 64), a barely-used
    /// second word (65), and the 255..=257 and 1023/1024 seams.
    const NODE_COUNTS: [usize; 8] = [16, 64, 65, 255, 256, 257, 1023, 1024];

    fn one_row(capacity: usize, nodes: usize) -> HwDirTable {
        let mut t = HwDirTable::with_nodes(capacity, nodes);
        t.push_row();
        t
    }

    fn sorted(mut v: Vec<NodeId>) -> Vec<NodeId> {
        v.sort_unstable();
        v
    }

    #[test]
    fn pointers_fill_then_overflow_at_every_width() {
        for nodes in NODE_COUNTS {
            let mut t = one_row(2, nodes);
            let mut e = t.row_mut(0);
            assert_eq!(e.record_reader(NodeId(1)), PtrStoreOutcome::Stored);
            assert_eq!(e.record_reader(NodeId(2)), PtrStoreOutcome::Stored);
            assert_eq!(e.record_reader(NodeId(3)), PtrStoreOutcome::Overflow);
            assert_eq!(e.ptr_count(), 2);
            assert_eq!(e.record_reader(NodeId(1)), PtrStoreOutcome::Stored);
            assert!(e.contains_ptr(NodeId(1)) && e.contains_ptr(NodeId(2)));
            assert!(!e.contains_ptr(NodeId(3)));
        }
    }

    #[test]
    fn row_width_follows_nodes_not_capacity() {
        // The pointer count is a bound on the set, never a layout: a
        // 2-pointer and a full-map table on the same machine store the
        // same ceil(nodes / 64) presence words per row.
        for nodes in NODE_COUNTS {
            for cap in [0usize, 2, 8, 9, nodes] {
                let t = one_row(cap, nodes);
                assert_eq!(t.row(0).ptr_words().len(), nodes.div_ceil(64), "{nodes}");
            }
        }
    }

    #[test]
    fn last_node_and_sentinel_round_trip_at_every_width() {
        // Machines whose node count is not a multiple of 64 leave the
        // top word partially used; the last addressable node must
        // round-trip, and the NodeId::NONE sentinel (u16::MAX) must
        // never read as present or corrupt a word out of bounds.
        for nodes in NODE_COUNTS {
            let mut t = one_row(nodes, nodes);
            let mut e = t.row_mut(0);
            let last = NodeId((nodes - 1) as u16);
            assert_eq!(e.record_reader(last), PtrStoreOutcome::Stored, "{nodes}");
            assert!(e.contains_ptr(last), "{nodes}");
            assert!(!e.contains_ptr(NodeId::NONE), "{nodes}");
            assert!(!e.remove_ptr(NodeId::NONE), "{nodes}");
            assert_eq!(e.ptr_iter().collect::<Vec<_>>(), vec![last], "{nodes}");
            assert!(e.remove_ptr(last), "{nodes}");
            assert_eq!(e.ptr_count(), 0, "{nodes}");
            t.row(0).structural_invariants().unwrap();
        }
    }

    #[test]
    fn full_map_holds_every_node() {
        for nodes in NODE_COUNTS {
            let mut t = one_row(nodes, nodes);
            let mut e = t.row_mut(0);
            for n in 0..nodes as u16 {
                assert_eq!(e.record_reader(NodeId(n)), PtrStoreOutcome::Stored);
            }
            assert_eq!(e.ptr_count(), nodes);
            assert!(e.contains_ptr(NodeId((nodes - 1) as u16)));
            assert!(e.remove_ptr(NodeId(10)));
            assert_eq!(e.ptr_count(), nodes - 1);
            assert!(!e.contains_ptr(NodeId(10)));
            e.structural_invariants().unwrap();
        }
    }

    #[test]
    fn word_seams_iterate_in_ascending_order() {
        // Exercise ids on both sides of every word seam the machine
        // has; iteration walks one word at a time, ascending.
        for nodes in NODE_COUNTS {
            let ids: Vec<u16> = [0u16, 63, 64, 65, 127, 128, 255, 256, 511, 512, 767, 1023]
                .into_iter()
                .filter(|&n| usize::from(n) < nodes)
                .collect();
            let mut t = one_row(nodes, nodes);
            let mut e = t.row_mut(0);
            for &n in &ids {
                assert_eq!(e.record_reader(NodeId(n)), PtrStoreOutcome::Stored);
            }
            assert_eq!(e.ptr_count(), ids.len());
            for &n in &ids {
                assert!(e.contains_ptr(NodeId(n)), "missing {n}");
            }
            assert!(!e.contains_ptr(NodeId(62)));
            let got: Vec<u16> = e.ptr_iter().map(|p| p.0).collect();
            assert_eq!(got, ids, "{nodes}");
            if nodes > 65 {
                assert!(e.remove_ptr(NodeId(64)));
                assert!(!e.contains_ptr(NodeId(64)));
                assert!(e.contains_ptr(NodeId(63)) && e.contains_ptr(NodeId(65)));
                assert_eq!(e.ptr_count(), ids.len() - 1);
            }
        }
    }

    #[test]
    fn ptr_words_are_the_presence_words() {
        for nodes in [256usize, 257, 1024] {
            let mut t = one_row(nodes, nodes);
            let mut e = t.row_mut(0);
            for n in [3u16, 64, 130, 255] {
                e.record_reader(NodeId(n));
            }
            let words = e.ptr_words();
            assert_eq!(words.len(), nodes.div_ceil(64));
            assert_eq!(words[..4], [1 << 3, 1 << 0, 1 << 2, 1 << 63]);
            assert!(words[4..].iter().all(|&w| w == 0));
            e.clear_ptrs();
            assert_eq!(e.ptr_count(), 0);
            assert!(e.ptr_words().iter().all(|&w| w == 0));
        }
    }

    #[test]
    fn low_bit_aliases_are_distinct_nodes() {
        // NodeId(3) and NodeId(67) share `node & 63`; removing one must
        // leave the other findable on every multi-word machine.
        for nodes in NODE_COUNTS.into_iter().filter(|&n| n > 67) {
            let mut t = one_row(5, nodes);
            let mut e = t.row_mut(0);
            e.record_reader(NodeId(3));
            e.record_reader(NodeId(67));
            assert!(e.remove_ptr(NodeId(3)));
            assert!(e.contains_ptr(NodeId(67)));
            assert!(!e.contains_ptr(NodeId(3)));
            assert!(e.remove_ptr(NodeId(67)));
            assert_eq!(e.ptr_count(), 0);
        }
    }

    #[test]
    fn rows_are_independent() {
        for nodes in NODE_COUNTS {
            let mut t = HwDirTable::with_nodes(3, nodes);
            let (a, b) = (t.push_row(), t.push_row());
            t.row_mut(a).record_reader(NodeId(1));
            t.row_mut(b).record_reader(NodeId(9));
            t.row_mut(b).set_local_bit(true);
            assert_eq!(t.row(a).ptrs_vec(), vec![NodeId(1)]);
            assert_eq!(t.row(b).ptrs_vec(), vec![NodeId(9)]);
            assert!(!t.row(a).local_bit());
            assert!(t.row(b).local_bit());
        }
    }

    #[test]
    fn drain_yields_the_pointer_set_and_keeps_storage() {
        for nodes in NODE_COUNTS {
            let mut t = one_row(3, nodes);
            let mut e = t.row_mut(0);
            e.record_reader(NodeId(2));
            e.record_reader(NodeId(1));
            let mut out = Vec::new();
            e.take_ptrs_into(&mut out);
            assert_eq!(out, vec![NodeId(1), NodeId(2)]);
            assert_eq!(e.ptr_count(), 0);
            assert_eq!(e.record_reader(NodeId(3)), PtrStoreOutcome::Stored);
        }
    }

    #[test]
    fn remove_ptr_matches_the_model_set() {
        for nodes in NODE_COUNTS {
            let mut t = one_row(4, nodes);
            let mut m = HwDirEntry::new(4);
            let mut e = t.row_mut(0);
            for n in [1u16, 2, 3, 4] {
                e.record_reader(NodeId(n));
                m.record_reader(NodeId(n));
            }
            assert_eq!(e.remove_ptr(NodeId(2)), m.remove_ptr(NodeId(2)));
            assert_eq!(sorted(e.ptrs_vec()), sorted(m.ptrs().to_vec()));
            assert_eq!(e.remove_ptr(NodeId(2)), m.remove_ptr(NodeId(2)));
        }
    }

    #[test]
    fn transaction_round_trip_matches_model_invariants() {
        for nodes in NODE_COUNTS {
            let mut t = one_row(2, nodes);
            let mut e = t.row_mut(0);
            e.record_reader(NodeId(1));
            e.begin_transaction(HwState::WriteTransaction, 2, Some(NodeId(9)), true);
            assert_eq!(e.ptr_count(), 0);
            assert!(e.structural_invariants().is_ok());
            assert_eq!(e.count_ack(), 1);
            assert_eq!(e.count_ack(), 0);
            assert_eq!(e.pending_requester(), Some(NodeId(9)));
            e.end_transaction();
            assert_eq!(e.acks_pending(), 0);
            assert_eq!(e.pending_requester(), None);
        }
    }

    #[test]
    #[should_panic(expected = "spurious acknowledgment")]
    fn spurious_ack_panics() {
        let mut t = one_row(1, 64);
        t.row_mut(0).count_ack();
    }

    #[test]
    fn owner_only_visible_in_read_write() {
        let mut t = one_row(0, 64);
        let mut e = t.row_mut(0);
        e.set_sole_owner(NodeId(3));
        assert_eq!(e.owner(), Some(NodeId(3)));
        e.set_state(HwState::Uncached);
        assert_eq!(e.owner(), None);
    }

    #[test]
    fn reset_clears_everything() {
        for nodes in NODE_COUNTS {
            let mut t = one_row(2, nodes);
            let mut e = t.row_mut(0);
            e.record_reader(NodeId(1));
            e.set_local_bit(true);
            e.set_overflowed(true);
            e.begin_transaction(HwState::WriteTransaction, 1, Some(NodeId(3)), false);
            e.reset();
            assert_eq!(e.state(), HwState::Uncached);
            assert_eq!(e.ptr_count(), 0);
            assert!(!e.local_bit());
            assert!(!e.overflowed());
            assert_eq!(e.acks_pending(), 0);
            assert!(e.structural_invariants().is_ok());
        }
    }

    #[test]
    fn packed_flags_start_clear_and_are_independent() {
        let mut t = one_row(2, 64);
        let mut e = t.row_mut(0);
        assert!(!e.remote_accessed() && !e.upgrade_pending() && !e.sw_transaction());
        assert!(!e.local_bit() && !e.overflowed() && !e.pending_is_write());
        assert_eq!(e.owner_fetch(), None);
        e.set_remote_accessed();
        e.set_upgrade_pending(true);
        e.set_sw_transaction(true);
        e.set_owner_fetch(Some(NodeId(7)));
        assert!(e.remote_accessed() && e.upgrade_pending() && e.sw_transaction());
        assert!(e.take_upgrade_pending());
        assert!(!e.upgrade_pending());
        assert!(e.remote_accessed() && e.sw_transaction());
        e.set_sw_transaction(false);
        assert!(e.remote_accessed());
        // The hardware transitions leave the engine's fields alone.
        e.set_local_bit(true);
        e.set_overflowed(true);
        e.begin_transaction(HwState::WriteTransaction, 1, Some(NodeId(3)), true);
        e.end_transaction();
        e.reset();
        assert!(e.remote_accessed() && !e.local_bit() && !e.overflowed());
        assert_eq!(e.owner_fetch(), Some(NodeId(7)));
        e.set_owner_fetch(None);
        assert_eq!(t.row(0).owner_fetch(), None);
    }

    /// Differential check: a pseudo-random operation tape applied to
    /// both representations must leave them observably identical —
    /// as *sets* — at every step, at every row width.
    #[test]
    fn differential_against_fat_model() {
        for nodes in NODE_COUNTS {
            for cap in [0usize, 1, 2, 5, 9] {
                let mut t = one_row(cap, nodes);
                let mut m = HwDirEntry::new(cap);
                let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ (cap as u64) ^ ((nodes as u64) << 32);
                let mut scratch = Vec::new();
                for step in 0..4000 {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    // Drawing nodes just past 64 also crosses the
                    // first word seam on multi-word machines.
                    let span = nodes.min(68) as u64;
                    let node = NodeId(((rng >> 33) % span) as u16);
                    let mut e = t.row_mut(0);
                    match (rng >> 56) % 10 {
                        0..=2 => {
                            assert_eq!(
                                e.record_reader(node),
                                m.record_reader(node),
                                "step {step} nodes {nodes} cap {cap}"
                            );
                        }
                        3 => {
                            assert_eq!(e.remove_ptr(node), m.remove_ptr(node));
                        }
                        4 => {
                            scratch.clear();
                            e.take_ptrs_into(&mut scratch);
                            assert_eq!(sorted(scratch.clone()), sorted(m.drain_ptrs()));
                        }
                        5 => {
                            e.set_sole_owner(node);
                            m.set_sole_owner(node);
                        }
                        6 => {
                            e.begin_transaction(HwState::WriteTransaction, 3, Some(node), true);
                            m.begin_transaction(HwState::WriteTransaction, 3, Some(node), true);
                            assert_eq!(e.count_ack(), m.count_ack());
                            e.end_transaction();
                            m.end_transaction();
                            e.set_state(HwState::Uncached);
                            m.set_state(HwState::Uncached);
                        }
                        7 => {
                            e.set_local_bit(node.0.is_multiple_of(2));
                            m.set_local_bit(node.0.is_multiple_of(2));
                            e.set_overflowed(node.0.is_multiple_of(3));
                            m.set_overflowed(node.0.is_multiple_of(3));
                        }
                        8 => {
                            e.reset();
                            m.reset();
                        }
                        _ => {
                            e.clear_owner();
                            m.clear_owner();
                        }
                    }
                    let e = t.row(0);
                    assert_eq!(e.state(), m.state(), "step {step}");
                    assert_eq!(
                        sorted(e.ptrs_vec()),
                        sorted(m.ptrs().to_vec()),
                        "step {step} nodes {nodes} cap {cap}"
                    );
                    for probe in 0..68u16.min(nodes as u16) {
                        assert_eq!(
                            e.contains_ptr(NodeId(probe)),
                            m.ptrs().contains(&NodeId(probe)),
                            "step {step} probe {probe}"
                        );
                    }
                    assert_eq!(e.ptr_count(), m.ptr_count());
                    assert_eq!(e.local_bit(), m.local_bit());
                    assert_eq!(e.overflowed(), m.overflowed());
                    assert_eq!(e.acks_pending(), m.acks_pending());
                    assert_eq!(e.pending_requester(), m.pending_requester());
                    assert_eq!(e.owner(), m.owner());
                    assert_eq!(
                        e.structural_invariants().is_ok(),
                        m.structural_invariants().is_ok()
                    );
                }
            }
        }
    }
}
