//! The hardware directory entry.

use limitless_sim::NodeId;

/// Coherence state of a block as seen by its home directory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum HwState {
    /// No cached copies anywhere.
    #[default]
    Uncached,
    /// One or more read-only copies; pointers (plus the software
    /// extension, if overflowed) name them.
    ReadOnly,
    /// Exactly one read-write copy; pointer 0 names the owner.
    ReadWrite,
    /// A read request is waiting for the current owner to flush its
    /// dirty copy back (transient; requests answered with BUSY).
    ReadTransaction,
    /// Invalidations are outstanding; the ack counter is live
    /// (transient; requests answered with BUSY).
    WriteTransaction,
}

impl HwState {
    /// Whether the directory can accept a new request in this state,
    /// or must bounce it with a BUSY reply.
    pub fn accepts_requests(self) -> bool {
        !matches!(self, HwState::ReadTransaction | HwState::WriteTransaction)
    }
}

/// Result of asking the hardware to record a reader pointer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PtrStoreOutcome {
    /// The pointer fit in hardware (or was already present).
    Stored,
    /// All hardware pointers are in use: the directory must interrupt
    /// the local processor to extend itself in software.
    Overflow,
}

/// The hardware directory entry for one memory block.
///
/// Capacity is `ptrs` explicit pointers (0–64 in this model; Alewife
/// implements 0–5) plus, optionally, a dedicated one-bit pointer for
/// the home node's own copy. The one-bit local pointer's documented
/// purpose (paper §3.1) is to keep the local node from overflowing its
/// own directory; it buys only ~2 % performance.
///
/// During write transactions the pointer storage doubles as an
/// acknowledgment counter, which is why a one-pointer protocol can
/// count acks in hardware but then has nowhere to remember the
/// requester (`Dir_nH_1S_{NB,LACK}`) — and why counting acks *and*
/// remembering the requester needs two pointers' worth of storage
/// (paper §2.4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HwDirEntry {
    state: HwState,
    /// Explicit hardware pointers (remote sharers, or the single
    /// owner when `ReadWrite`).
    ptrs: Vec<NodeId>,
    capacity: usize,
    /// One-bit pointer: the home node itself holds a read-only copy.
    local_bit: bool,
    /// Entry has overflowed; the software extension holds additional
    /// pointers and must be consulted on writes ("trap on write"
    /// meta-state).
    overflowed: bool,
    /// Outstanding invalidation acknowledgments (live in the
    /// transaction states).
    acks_pending: u32,
    /// Requester to satisfy when the transaction completes (uses the
    /// second pointer's storage).
    pending_requester: Option<NodeId>,
    /// Pending request was a write (vs. a read).
    pending_is_write: bool,
    /// The single owner in `ReadWrite` state. Functionally this is
    /// pointer 0; it is stored separately so that a zero-capacity
    /// entry (whose "owner" lives in protocol software) reuses the
    /// same code path.
    owner: Option<NodeId>,
}

impl HwDirEntry {
    /// Creates an `Uncached` entry with `capacity` hardware pointers.
    pub fn new(capacity: usize) -> Self {
        HwDirEntry {
            state: HwState::Uncached,
            ptrs: Vec::with_capacity(capacity.min(8)),
            capacity,
            local_bit: false,
            overflowed: false,
            acks_pending: 0,
            pending_requester: None,
            pending_is_write: false,
            owner: None,
        }
    }

    /// Current coherence state.
    pub fn state(&self) -> HwState {
        self.state
    }

    /// Sets the coherence state.
    pub fn set_state(&mut self, s: HwState) {
        self.state = s;
    }

    /// The hardware pointer capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The pointers currently stored in hardware.
    pub fn ptrs(&self) -> &[NodeId] {
        &self.ptrs
    }

    /// Whether the one-bit local pointer is set.
    pub fn local_bit(&self) -> bool {
        self.local_bit
    }

    /// Sets or clears the one-bit local pointer.
    pub fn set_local_bit(&mut self, v: bool) {
        self.local_bit = v;
    }

    /// Whether the entry has overflowed into the software extension.
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Marks the entry as extended in software (set by the overflow
    /// trap handler) or back to hardware-only.
    pub fn set_overflowed(&mut self, v: bool) {
        self.overflowed = v;
    }

    /// Records a read-only sharer. Returns [`PtrStoreOutcome::Overflow`]
    /// when the pointer array is full and the sharer is not already
    /// recorded — the condition that raises the software-extension
    /// interrupt.
    pub fn record_reader(&mut self, node: NodeId) -> PtrStoreOutcome {
        if self.ptrs.contains(&node) {
            return PtrStoreOutcome::Stored;
        }
        if self.ptrs.len() < self.capacity {
            self.ptrs.push(node);
            PtrStoreOutcome::Stored
        } else {
            PtrStoreOutcome::Overflow
        }
    }

    /// Removes a specific pointer (e.g. on a replacement hint or a
    /// transfer to software). Returns whether it was present.
    pub fn remove_ptr(&mut self, node: NodeId) -> bool {
        if let Some(i) = self.ptrs.iter().position(|&p| p == node) {
            self.ptrs.swap_remove(i);
            true
        } else {
            false
        }
    }

    /// Empties all hardware pointers, returning them (the overflow
    /// handler moves them into the software directory).
    pub fn drain_ptrs(&mut self) -> Vec<NodeId> {
        std::mem::take(&mut self.ptrs)
    }

    /// Installs a single owner pointer for the `ReadWrite` state.
    pub fn set_sole_owner(&mut self, node: NodeId) {
        self.ptrs.clear();
        self.owner = Some(node);
        self.state = HwState::ReadWrite;
        self.local_bit = false;
    }

    /// The sole owner when in `ReadWrite` state (kept in pointer 0; in
    /// a zero-pointer directory the owner lives in software instead).
    pub fn owner(&self) -> Option<NodeId> {
        if self.state == HwState::ReadWrite {
            self.owner
        } else {
            None
        }
    }

    /// Clears the owner pointer (leaving `ReadWrite`).
    pub fn clear_owner(&mut self) {
        self.owner = None;
    }

    /// Begins a transaction: `acks` acknowledgments outstanding,
    /// `requester` to be satisfied on completion (`is_write` says
    /// with which permission). The ack counter reuses pointer storage,
    /// so the pointers are cleared.
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
        self.ptrs.clear();
        self.state = state;
        self.acks_pending = acks;
        self.pending_requester = requester;
        self.pending_is_write = is_write;
    }

    /// Outstanding acknowledgment count.
    pub fn acks_pending(&self) -> u32 {
        self.acks_pending
    }

    /// Counts one acknowledgment; returns the number still pending.
    ///
    /// # Panics
    ///
    /// Panics if no acknowledgments are outstanding (a protocol bug).
    pub fn count_ack(&mut self) -> u32 {
        assert!(self.acks_pending > 0, "spurious acknowledgment");
        self.acks_pending -= 1;
        self.acks_pending
    }

    /// The requester recorded for transaction completion.
    pub fn pending_requester(&self) -> Option<NodeId> {
        self.pending_requester
    }

    /// Whether the pending request is a write.
    pub fn pending_is_write(&self) -> bool {
        self.pending_is_write
    }

    /// Clears transaction bookkeeping (on completion).
    pub fn end_transaction(&mut self) {
        self.acks_pending = 0;
        self.pending_requester = None;
        self.pending_is_write = false;
    }

    /// Resets the entry to `Uncached` with no pointers (used by
    /// invalidation completion when the block returns to memory).
    pub fn reset(&mut self) {
        self.state = HwState::Uncached;
        self.ptrs.clear();
        self.owner = None;
        self.local_bit = false;
        self.overflowed = false;
        self.end_transaction();
    }

    /// Number of hardware pointers in use.
    pub fn ptr_count(&self) -> usize {
        self.ptrs.len()
    }

    /// Entry-local structural invariants, checked by the coherence
    /// sanitizer after every directory transition: pointer bounds, no
    /// duplicate pointers, and counter/requester bookkeeping agreeing
    /// with the state machine.
    pub fn structural_invariants(&self) -> Result<(), String> {
        if self.ptrs.len() > self.capacity {
            return Err(format!(
                "{} pointers stored in a {}-pointer entry",
                self.ptrs.len(),
                self.capacity
            ));
        }
        for (i, &p) in self.ptrs.iter().enumerate() {
            if self.ptrs[..i].contains(&p) {
                return Err(format!("duplicate hardware pointer {p}"));
            }
        }
        match self.state {
            HwState::Uncached | HwState::ReadOnly | HwState::ReadWrite => {
                if self.acks_pending != 0 {
                    return Err(format!(
                        "{} acknowledgments outstanding outside a transaction ({:?})",
                        self.acks_pending, self.state
                    ));
                }
            }
            HwState::ReadTransaction | HwState::WriteTransaction => {
                if self.pending_requester.is_none() {
                    return Err(format!("{:?} with no pending requester", self.state));
                }
                if !self.ptrs.is_empty() {
                    return Err(format!(
                        "{:?} holds {} pointers while the storage doubles as the ack counter",
                        self.state,
                        self.ptrs.len()
                    ));
                }
                let want_write = self.state == HwState::WriteTransaction;
                if self.pending_is_write != want_write {
                    return Err(format!(
                        "{:?} records a pending {}",
                        self.state,
                        if self.pending_is_write {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointers_fill_then_overflow() {
        let mut e = HwDirEntry::new(2);
        assert_eq!(e.record_reader(NodeId(1)), PtrStoreOutcome::Stored);
        assert_eq!(e.record_reader(NodeId(2)), PtrStoreOutcome::Stored);
        assert_eq!(e.record_reader(NodeId(3)), PtrStoreOutcome::Overflow);
        assert_eq!(e.ptr_count(), 2);
    }

    #[test]
    fn duplicate_reader_does_not_overflow() {
        let mut e = HwDirEntry::new(1);
        assert_eq!(e.record_reader(NodeId(1)), PtrStoreOutcome::Stored);
        assert_eq!(e.record_reader(NodeId(1)), PtrStoreOutcome::Stored);
        assert_eq!(e.ptr_count(), 1);
    }

    #[test]
    fn zero_capacity_always_overflows() {
        let mut e = HwDirEntry::new(0);
        assert_eq!(e.record_reader(NodeId(1)), PtrStoreOutcome::Overflow);
    }

    #[test]
    fn drain_empties_pointers() {
        let mut e = HwDirEntry::new(3);
        e.record_reader(NodeId(1));
        e.record_reader(NodeId(2));
        let drained = e.drain_ptrs();
        assert_eq!(drained, vec![NodeId(1), NodeId(2)]);
        assert_eq!(e.ptr_count(), 0);
        // After draining, hardware pointers are free again.
        assert_eq!(e.record_reader(NodeId(3)), PtrStoreOutcome::Stored);
    }

    #[test]
    fn sole_owner_round_trip() {
        let mut e = HwDirEntry::new(2);
        e.record_reader(NodeId(1));
        e.set_sole_owner(NodeId(5));
        assert_eq!(e.state(), HwState::ReadWrite);
        assert_eq!(e.owner(), Some(NodeId(5)));
        assert_eq!(e.ptr_count(), 0); // owner uses dedicated storage
        e.set_state(HwState::Uncached);
        assert_eq!(e.owner(), None); // owner only meaningful in ReadWrite
        e.clear_owner();
    }

    #[test]
    fn zero_capacity_entry_still_tracks_owner() {
        let mut e = HwDirEntry::new(0);
        e.set_sole_owner(NodeId(3));
        assert_eq!(e.owner(), Some(NodeId(3)));
    }

    #[test]
    fn ack_counting() {
        let mut e = HwDirEntry::new(2);
        e.record_reader(NodeId(1));
        e.record_reader(NodeId(2));
        e.begin_transaction(HwState::WriteTransaction, 2, Some(NodeId(9)), true);
        assert_eq!(e.state(), HwState::WriteTransaction);
        assert!(!e.state().accepts_requests());
        assert_eq!(e.ptr_count(), 0); // counter reuses pointer storage
        assert_eq!(e.count_ack(), 1);
        assert_eq!(e.count_ack(), 0);
        assert_eq!(e.pending_requester(), Some(NodeId(9)));
        assert!(e.pending_is_write());
        e.end_transaction();
        assert_eq!(e.acks_pending(), 0);
        assert_eq!(e.pending_requester(), None);
    }

    #[test]
    #[should_panic(expected = "spurious acknowledgment")]
    fn spurious_ack_panics() {
        let mut e = HwDirEntry::new(1);
        e.count_ack();
    }

    #[test]
    fn local_bit_is_independent_of_pointers() {
        let mut e = HwDirEntry::new(1);
        e.set_local_bit(true);
        assert!(e.local_bit());
        assert_eq!(e.record_reader(NodeId(1)), PtrStoreOutcome::Stored);
        assert_eq!(e.record_reader(NodeId(2)), PtrStoreOutcome::Overflow);
        assert!(e.local_bit());
    }

    #[test]
    fn reset_clears_everything() {
        let mut e = HwDirEntry::new(2);
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
    }

    #[test]
    fn remove_ptr_reports_presence() {
        let mut e = HwDirEntry::new(3);
        e.record_reader(NodeId(1));
        e.record_reader(NodeId(2));
        assert!(e.remove_ptr(NodeId(1)));
        assert!(!e.remove_ptr(NodeId(1)));
        assert_eq!(e.ptrs(), &[NodeId(2)]);
    }

    #[test]
    fn transient_states_bounce_requests() {
        assert!(HwState::Uncached.accepts_requests());
        assert!(HwState::ReadOnly.accepts_requests());
        assert!(HwState::ReadWrite.accepts_requests());
        assert!(!HwState::ReadTransaction.accepts_requests());
        assert!(!HwState::WriteTransaction.accepts_requests());
    }
}
