//! The unified per-block directory table, stored as struct-of-arrays.
//!
//! Each directory event used to consult up to five parallel
//! `HashMap<BlockAddr, …>`s; PR 1 collapsed them into one dense
//! `Vec<BlockState>` keyed by an interned id. This revision goes one
//! step further: the fat `BlockState` record is split into parallel
//! columns — the hardware entries live in a [`HwDirTable`] (packed
//! flag bits, sentinel-encoded options, one flat presence-word
//! column for the pointers), and
//! the engine-side booleans are packed into a one-byte bitset column
//! beside a sentinel-encoded owner-fetch column — so a directory event
//! touches a few adjacent bytes instead of a fat struct. Interning is
//! delegated to the machine-wide [`BlockInterner`], whose ids are
//! globally unique across homes and bit-identical between the serial
//! and sharded engines.
//!
//! [`BlockStateMut`]/[`BlockStateRef`] are row views: `hw` is a public
//! field exposing the hardware entry's method set, and the packed
//! engine flags are reached through accessors.

use limitless_dir::{HwDirTable, HwEntryMut, HwEntryRef};
use limitless_sim::{BlockAddr, BlockInterner, NodeId};

/// Bit positions in the packed per-block engine-flag column.
mod flag {
    /// Zero-pointer protocol: the block has been accessed by a remote
    /// node (the per-block extra bit of §2.3). Never reset.
    pub const REMOTE_ACCESSED: u8 = 1 << 0;
    /// The in-flight write transaction grants an upgrade (permission
    /// without data).
    pub const UPGRADE_PENDING: u8 = 1 << 1;
    /// The current write transaction was initiated by software
    /// (determines LACK/ACK behaviour on completion).
    pub const SW_TRANSACTION: u8 = 1 << 2;
}

/// Mutable row view: everything the home node tracks about one block.
#[derive(Debug)]
pub struct BlockStateMut<'a> {
    /// The hardware directory entry (state machine, pointer storage,
    /// local bit, overflow bit, transaction bookkeeping).
    pub hw: HwEntryMut<'a>,
    flags: &'a mut u8,
    owner_fetch: &'a mut NodeId,
}

impl<'a> BlockStateMut<'a> {
    /// Zero-pointer protocol: has a remote node ever accessed the
    /// block?
    #[inline]
    pub fn remote_accessed(&self) -> bool {
        *self.flags & flag::REMOTE_ACCESSED != 0
    }

    /// Marks the block as remotely accessed (never reset).
    #[inline]
    pub fn set_remote_accessed(&mut self) {
        *self.flags |= flag::REMOTE_ACCESSED;
    }

    /// Whether the in-flight write transaction grants an upgrade.
    #[inline]
    pub fn upgrade_pending(&self) -> bool {
        *self.flags & flag::UPGRADE_PENDING != 0
    }

    /// Sets or clears the upgrade-pending flag.
    #[inline]
    pub fn set_upgrade_pending(&mut self, v: bool) {
        if v {
            *self.flags |= flag::UPGRADE_PENDING;
        } else {
            *self.flags &= !flag::UPGRADE_PENDING;
        }
    }

    /// Reads and clears the upgrade-pending flag.
    #[inline]
    pub fn take_upgrade_pending(&mut self) -> bool {
        let v = self.upgrade_pending();
        self.set_upgrade_pending(false);
        v
    }

    /// Whether the current write transaction was initiated by software.
    #[inline]
    pub fn sw_transaction(&self) -> bool {
        *self.flags & flag::SW_TRANSACTION != 0
    }

    /// Sets or clears the software-transaction flag.
    #[inline]
    pub fn set_sw_transaction(&mut self, v: bool) {
        if v {
            *self.flags |= flag::SW_TRANSACTION;
        } else {
            *self.flags &= !flag::SW_TRANSACTION;
        }
    }

    /// The owner this block is waiting on for a Flush/Downgrade
    /// response, if any.
    #[inline]
    pub fn owner_fetch(&self) -> Option<NodeId> {
        self.owner_fetch.get()
    }

    /// Sets or clears the owner-fetch target.
    #[inline]
    pub fn set_owner_fetch(&mut self, o: Option<NodeId>) {
        *self.owner_fetch = NodeId::from_option(o);
    }

    /// Downgrades to a shared row view.
    #[inline]
    pub fn as_ref(&self) -> BlockStateRef<'_> {
        BlockStateRef {
            hw: self.hw.as_ref(),
            flags: *self.flags,
            owner_fetch: *self.owner_fetch,
        }
    }
}

/// Shared row view (the engine-flag bits are copied out by value).
#[derive(Clone, Copy, Debug)]
pub struct BlockStateRef<'a> {
    /// The hardware directory entry.
    pub hw: HwEntryRef<'a>,
    flags: u8,
    owner_fetch: NodeId,
}

impl<'a> BlockStateRef<'a> {
    /// Zero-pointer protocol: has a remote node ever accessed the
    /// block?
    #[inline]
    pub fn remote_accessed(&self) -> bool {
        self.flags & flag::REMOTE_ACCESSED != 0
    }

    /// Whether the in-flight write transaction grants an upgrade.
    #[inline]
    pub fn upgrade_pending(&self) -> bool {
        self.flags & flag::UPGRADE_PENDING != 0
    }

    /// Whether the current write transaction was initiated by software.
    #[inline]
    pub fn sw_transaction(&self) -> bool {
        self.flags & flag::SW_TRANSACTION != 0
    }

    /// The owner this block is waiting on for a Flush/Downgrade
    /// response, if any.
    #[inline]
    pub fn owner_fetch(&self) -> Option<NodeId> {
        self.owner_fetch.get()
    }
}

/// Dense, interned, column-oriented storage of per-block directory
/// state for one home node.
#[derive(Clone, Debug)]
pub struct DirectoryTable {
    interner: BlockInterner,
    hw: HwDirTable,
    flags: Vec<u8>,
    owner_fetch: Vec<NodeId>,
}

impl DirectoryTable {
    /// Creates an empty table for home `home` of `homes`, whose
    /// hardware entries have `capacity` pointers each (a per-machine
    /// constant: the protocol's pointer count). `homes` is the machine
    /// node count, which sets the presence-word width of every pointer
    /// row (see [`HwDirTable::with_nodes`]).
    pub fn new(capacity: usize, home: u32, homes: u32) -> Self {
        DirectoryTable {
            interner: BlockInterner::new(home, homes),
            hw: HwDirTable::with_nodes(capacity, homes as usize),
            flags: Vec::new(),
            owner_fetch: Vec::new(),
        }
    }

    /// A standalone single-home table (for tests and tools).
    pub fn solo(capacity: usize) -> Self {
        DirectoryTable::new(capacity, 0, 1)
    }

    /// Number of blocks ever touched.
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// Whether no block has been touched.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// The machine-wide interner segment backing this table.
    pub fn interner(&self) -> &BlockInterner {
        &self.interner
    }

    /// The uniform hardware pointer capacity.
    pub fn capacity(&self) -> usize {
        self.hw.capacity()
    }

    /// Interns `block`, creating fresh column rows on first touch.
    /// Returns the block's local id (dense per home; see
    /// [`BlockInterner::global_id`] for the machine-wide id).
    pub fn intern(&mut self, block: BlockAddr) -> u32 {
        let (id, new) = self.interner.intern(block);
        if new {
            let row = self.hw.push_row();
            debug_assert_eq!(row, id);
            self.flags.push(0);
            self.owner_fetch.push(NodeId::NONE);
        }
        id
    }

    /// The interned id for `block`, if it has ever been touched.
    pub fn id_of(&self, block: BlockAddr) -> Option<u32> {
        self.interner.id_of(block)
    }

    /// Forgets every block while keeping the home parameters and the
    /// column capacity — the machine-reuse reset path. Ids restart at
    /// 0 in first-touch order, so a cleared table replaying the same
    /// event sequence reproduces the same id assignment (and the same
    /// interner fingerprint) as a freshly constructed one.
    pub fn clear(&mut self) {
        self.interner.clear();
        self.hw.clear();
        self.flags.clear();
        self.owner_fetch.clear();
    }

    /// Iterates every touched block in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, u32, BlockStateRef<'_>)> + '_ {
        self.interner
            .blocks()
            .iter()
            .enumerate()
            .map(|(i, &b)| (b, i as u32, self.state(i as u32)))
    }

    /// Mutable row view for an interned id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by [`DirectoryTable::intern`].
    #[inline]
    pub fn state_mut(&mut self, id: u32) -> BlockStateMut<'_> {
        BlockStateMut {
            hw: self.hw.row_mut(id),
            flags: &mut self.flags[id as usize],
            owner_fetch: &mut self.owner_fetch[id as usize],
        }
    }

    /// Shared row view for an interned id.
    #[inline]
    pub fn state(&self, id: u32) -> BlockStateRef<'_> {
        BlockStateRef {
            hw: self.hw.row(id),
            flags: self.flags[id as usize],
            owner_fetch: self.owner_fetch[id as usize],
        }
    }

    /// One-lookup combined intern + fetch.
    pub fn entry(&mut self, block: BlockAddr) -> BlockStateMut<'_> {
        let id = self.intern(block);
        self.state_mut(id)
    }

    /// Read-only lookup without interning (for `&self` queries on
    /// blocks that may never have been touched).
    pub fn get(&self, block: BlockAddr) -> Option<BlockStateRef<'_>> {
        self.interner.id_of(block).map(|id| self.state(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let mut t = DirectoryTable::solo(5);
        let a = t.intern(BlockAddr(10));
        let b = t.intern(BlockAddr(20));
        assert_ne!(a, b);
        assert_eq!(t.intern(BlockAddr(10)), a);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn fresh_state_is_inert() {
        let mut t = DirectoryTable::solo(3);
        let st = t.entry(BlockAddr(1));
        assert!(!st.remote_accessed());
        assert!(!st.upgrade_pending());
        assert!(st.owner_fetch().is_none());
        assert!(!st.sw_transaction());
        assert_eq!(st.hw.ptr_count(), 0);
    }

    #[test]
    fn iteration_follows_interning_order() {
        let mut t = DirectoryTable::solo(5);
        t.intern(BlockAddr(10));
        t.intern(BlockAddr(20));
        let seen: Vec<_> = t.iter().map(|(b, id, _)| (b, id)).collect();
        assert_eq!(seen, vec![(BlockAddr(10), 0), (BlockAddr(20), 1)]);
        assert_eq!(t.id_of(BlockAddr(20)), Some(1));
        assert_eq!(t.id_of(BlockAddr(30)), None);
    }

    #[test]
    fn state_persists_across_lookups() {
        let mut t = DirectoryTable::solo(3);
        t.entry(BlockAddr(1)).set_remote_accessed();
        t.entry(BlockAddr(2)).set_owner_fetch(Some(NodeId(7)));
        assert!(t.get(BlockAddr(1)).unwrap().remote_accessed());
        assert_eq!(t.get(BlockAddr(2)).unwrap().owner_fetch(), Some(NodeId(7)));
        assert!(t.get(BlockAddr(3)).is_none());
    }

    #[test]
    fn packed_flags_are_independent() {
        let mut t = DirectoryTable::solo(2);
        let mut st = t.entry(BlockAddr(9));
        st.set_remote_accessed();
        st.set_upgrade_pending(true);
        st.set_sw_transaction(true);
        assert!(st.remote_accessed() && st.upgrade_pending() && st.sw_transaction());
        assert!(st.take_upgrade_pending());
        assert!(!st.upgrade_pending());
        assert!(st.remote_accessed() && st.sw_transaction());
        st.set_sw_transaction(false);
        assert!(st.remote_accessed());
        let shared = st.as_ref();
        assert!(shared.remote_accessed() && !shared.sw_transaction());
    }

    #[test]
    fn ids_reach_the_machine_wide_space() {
        let mut t = DirectoryTable::new(5, 2, 8);
        let a = t.intern(BlockAddr(40));
        assert_eq!(t.interner().global_id(a), 2);
        let b = t.intern(BlockAddr(48));
        assert_eq!(t.interner().global_id(b), 10);
    }
}
