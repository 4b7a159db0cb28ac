//! The home-side coherence engine: one per node, owning the directory
//! entries for the blocks whose home is that node.
//!
//! The engine is the CMMU's protocol state machine plus the trap
//! boundary into extension software. It is *timing-annotated but
//! time-free*: given a protocol event it returns an [`Outcome`]
//! describing the messages to send (with relative timing), whether the
//! home's own cache must invalidate a line, and the [`TrapBill`] of
//! any software handler that ran. The machine layer turns outcomes
//! into scheduled events and processor occupancy.

use limitless_dir::{HwDirTable, HwEntryRef, HwState, PtrStoreOutcome, SwDirectory};
use limitless_sim::{BlockAddr, BlockInterner, MessagePool, NodeId};

use crate::check::{CheckLevel, EventHistory, HistoryRecord};
use crate::cost::{CostModel, HandlerImpl, HandlerKind, TrapBill};
use crate::iface::{BroadcastHandler, ExtensionHandler, HandlerCtx, LimitlessHandler, QueuedSend};
use crate::msg::ProtoMsg;
use crate::spec::{AckMode, ProtocolSpec, SwMode};

/// Fixed hardware latencies of the CMMU datapath.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HwTiming {
    /// Directory lookup / state-machine transition.
    pub dir_cycles: u64,
    /// DRAM access to read or write a memory block.
    pub dram_cycles: u64,
    /// Per-message pacing when hardware transmits a burst of
    /// invalidations.
    pub inv_pipeline: u64,
}

impl Default for HwTiming {
    fn default() -> Self {
        HwTiming {
            dir_cycles: 4,
            dram_cycles: 10,
            inv_pipeline: 2,
        }
    }
}

/// A protocol event arriving at a home node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirEvent {
    /// A read request (cache-miss fill).
    Read {
        /// Requesting node.
        from: NodeId,
    },
    /// A write request (write miss or upgrade).
    Write {
        /// Requesting node.
        from: NodeId,
    },
    /// An invalidation acknowledgment.
    InvAck {
        /// Acknowledging node.
        from: NodeId,
    },
    /// The owner's response to a `Flush` or `Downgrade`.
    OwnerAck {
        /// Responding node.
        from: NodeId,
        /// Whether the response carried the dirty block.
        had_data: bool,
        /// True for `DowngradeAck` (owner keeps a shared copy), false
        /// for `FlushAck`.
        downgrade: bool,
    },
    /// An unsolicited writeback of a replaced dirty line.
    Writeback {
        /// The evicting owner.
        from: NodeId,
    },
}

/// When a message produced by the engine actually leaves the node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendTiming {
    /// Sent by hardware: `offset` cycles after the event is processed.
    Hw {
        /// Cycles after event processing starts.
        offset: u64,
    },
    /// Sent by the software handler: `offset` cycles after the handler
    /// begins running on the home processor.
    Sw {
        /// Cycles after handler start.
        offset: u64,
    },
}

/// One outgoing message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Send {
    /// Destination node.
    pub dst: NodeId,
    /// The message.
    pub msg: ProtoMsg,
    /// When it departs.
    pub timing: SendTiming,
}

/// The outgoing messages of one [`Outcome`].
///
/// A small-buffer list: the common case (zero to a handful of sends —
/// a data reply, a few hardware invalidations) lives inline with no
/// heap allocation, which matters because every protocol event on the
/// simulator's hottest path builds one of these. Bursts larger than
/// the inline capacity (full-map invalidations, broadcasts) spill to a
/// `Vec`. Derefs to `[Send]`, so indexing, `len` and iteration read
/// like a slice.
#[derive(Clone, Debug)]
pub enum SendList {
    /// Up to `INLINE` sends stored in place.
    Inline {
        /// The storage; only `..len` is meaningful.
        buf: [Send; SendList::INLINE],
        /// Number of live entries.
        len: u8,
    },
    /// Spilled storage for large bursts.
    Heap(Vec<Send>),
}

impl SendList {
    /// Inline capacity: covers a data reply plus the deepest
    /// hardware-invalidation burst of the five-pointer protocol.
    pub const INLINE: usize = 6;

    const DUMMY: Send = Send {
        dst: NodeId(0),
        msg: ProtoMsg::ReadReq,
        timing: SendTiming::Hw { offset: 0 },
    };

    /// Appends a send, spilling to the heap when the inline buffer
    /// fills.
    pub fn push(&mut self, s: Send) {
        match self {
            SendList::Inline { buf, len } => {
                let l = usize::from(*len);
                if l < SendList::INLINE {
                    buf[l] = s;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(2 * SendList::INLINE);
                    v.extend_from_slice(buf);
                    v.push(s);
                    *self = SendList::Heap(v);
                }
            }
            SendList::Heap(v) => v.push(s),
        }
    }

    /// Moves the list to heap storage backed by `spare` (an empty
    /// recycled vector) when appending `extra` more sends would spill
    /// the inline buffer; hands `spare` back unused otherwise. Lets
    /// the engine source burst storage from its recycling pool instead
    /// of a fresh allocation.
    pub(crate) fn spill_into(&mut self, spare: Vec<Send>, extra: usize) -> Option<Vec<Send>> {
        debug_assert!(spare.is_empty());
        match self {
            SendList::Inline { buf, len } if usize::from(*len) + extra > SendList::INLINE => {
                let mut v = spare;
                v.extend_from_slice(&buf[..usize::from(*len)]);
                *self = SendList::Heap(v);
                None
            }
            _ => Some(spare),
        }
    }
}

impl Default for SendList {
    fn default() -> Self {
        SendList::Inline {
            buf: [SendList::DUMMY; SendList::INLINE],
            len: 0,
        }
    }
}

impl std::ops::Deref for SendList {
    type Target = [Send];
    fn deref(&self) -> &[Send] {
        match self {
            SendList::Inline { buf, len } => &buf[..usize::from(*len)],
            SendList::Heap(v) => v,
        }
    }
}

impl<'a> IntoIterator for &'a SendList {
    type Item = &'a Send;
    type IntoIter = std::slice::Iter<'a, Send>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The result of handling one directory event.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Messages to transmit.
    pub sends: SendList,
    /// The home node must invalidate this block in its own cache
    /// (one-bit local pointer invalidation, or the zero-pointer
    /// protocol's first-remote-access flush). Dirty data is written
    /// to local memory synchronously.
    pub invalidate_local: bool,
    /// The software handler that ran, if any: the home processor is
    /// occupied for `trap.total()` cycles.
    pub trap: Option<TrapBill>,
    /// Hardware processing cycles for this event (directory + DRAM as
    /// applicable), charged before any `SendTiming::Hw` offsets.
    pub hw_cycles: u64,
    /// The event was stale (e.g. a `FlushAck` that raced with a
    /// writeback) and was ignored.
    pub stale: bool,
}

impl Outcome {
    fn hw_send(&mut self, dst: NodeId, msg: ProtoMsg, offset: u64) {
        self.sends.push(Send {
            dst,
            msg,
            timing: SendTiming::Hw { offset },
        });
    }

    /// Clears the outcome for reuse without releasing its storage: a
    /// heap-spilled send list keeps its capacity, so a caller that
    /// feeds the same `Outcome` back into
    /// [`DirEngine::handle_into`] performs no per-event allocation
    /// *and* no per-event copy of this (large) struct.
    pub fn reset(&mut self) {
        match &mut self.sends {
            SendList::Inline { len, .. } => *len = 0,
            SendList::Heap(v) => v.clear(),
        }
        self.invalidate_local = false;
        self.trap = None;
        self.hw_cycles = 0;
        self.stale = false;
    }
}

/// Counters describing protocol behaviour at one home node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Read requests processed.
    pub read_reqs: u64,
    /// Write requests processed.
    pub write_reqs: u64,
    /// Software traps, total.
    pub traps: u64,
    /// Read-overflow traps.
    pub read_extend_traps: u64,
    /// Write-overflow traps.
    pub write_extend_traps: u64,
    /// Per-acknowledgment traps.
    pub ack_traps: u64,
    /// Last-acknowledgment traps.
    pub last_ack_traps: u64,
    /// Software BUSY bounces.
    pub busy_traps: u64,
    /// Cycles the home processor spent in protocol handlers.
    pub trap_cycles: u64,
    /// Invalidations transmitted (hardware and software).
    pub invs_sent: u64,
    /// BUSY replies (hardware and software).
    pub busys_sent: u64,
    /// Stale messages ignored.
    pub stale_msgs: u64,
}

/// The per-node directory engine.
///
/// # Examples
///
/// ```
/// use limitless_core::{DirEngine, DirEvent, ProtocolSpec};
/// use limitless_core::cost::HandlerImpl;
/// use limitless_sim::{BlockAddr, NodeId};
///
/// let mut home = DirEngine::new(NodeId(0), 16, ProtocolSpec::limitless(5), HandlerImpl::FlexibleC);
/// let out = home.handle(BlockAddr(42), DirEvent::Read { from: NodeId(3) });
/// // An uncached block: the hardware answers with data, no trap.
/// assert_eq!(out.sends.len(), 1);
/// assert!(out.trap.is_none());
/// ```
#[derive(Debug)]
pub struct DirEngine {
    home: NodeId,
    nodes: usize,
    spec: ProtocolSpec,
    costs: CostModel,
    timing: HwTiming,
    /// The machine-wide interner segment of this home: block address
    /// to dense row id, bit-identical between the serial and sharded
    /// engines.
    interner: BlockInterner,
    /// All per-block state — hardware entry, zero-pointer
    /// remote-access bit, upgrade/owner-fetch/software-transaction
    /// bookkeeping — in one row per interned block.
    dir: HwDirTable,
    sw: SwDirectory,
    handler: Box<dyn ExtensionHandler>,
    stats: EngineStats,
    /// Scratch sharer set reused across events: invalidation rounds
    /// collect their targets here instead of allocating.
    scratch_sharers: Vec<NodeId>,
    /// Recycled handler send queues ([`HandlerCtx::with_send_buf`]).
    send_pool: MessagePool<QueuedSend>,
    /// Recycled heap storage for spilled [`SendList`]s; refilled by
    /// [`DirEngine::recycle`].
    spill_pool: MessagePool<Send>,
    /// Sanitizer level. At `Off` (the default) the only cost is one
    /// predictable branch per event.
    check: CheckLevel,
    /// Bounded per-block event history, populated only while the
    /// sanitizer is enabled; dumped on invariant-violation panics.
    history: EventHistory,
}

impl DirEngine {
    /// Creates the engine for `home` in a machine of `nodes` nodes.
    pub fn new(home: NodeId, nodes: usize, spec: ProtocolSpec, imp: HandlerImpl) -> Self {
        let handler: Box<dyn ExtensionHandler> = match spec.sw {
            SwMode::NoBroadcast => Box::new(LimitlessHandler),
            SwMode::Broadcast => Box::new(BroadcastHandler),
        };
        DirEngine {
            home,
            nodes,
            spec,
            costs: CostModel::new(imp),
            timing: HwTiming::default(),
            interner: BlockInterner::new(u32::from(home.0), nodes as u32),
            dir: HwDirTable::with_nodes(spec.capacity(nodes), nodes),
            sw: SwDirectory::for_nodes(nodes),
            handler: Box::new(LimitlessHandler),
            stats: EngineStats::default(),
            scratch_sharers: Vec::new(),
            send_pool: MessagePool::new(),
            spill_pool: MessagePool::new(),
            check: CheckLevel::Off,
            history: EventHistory::new(),
        }
        .with_handler(handler)
    }

    fn with_handler(mut self, h: Box<dyn ExtensionHandler>) -> Self {
        self.handler = h;
        self
    }

    /// Replaces the extension handler with a custom protocol (the §7
    /// enhancement hook).
    pub fn set_handler(&mut self, h: Box<dyn ExtensionHandler>) {
        self.handler = h;
    }

    /// Reinitializes the engine in place for a fresh run: the interner,
    /// the directory rows, the software extension, the statistics and
    /// the diagnostic history all return to their just-constructed
    /// state, while the column vectors, the open-addressed extension
    /// slots and the recycled send/spill pools keep their capacity. A
    /// reset engine replaying the same event sequence is bit-identical
    /// to a freshly constructed one — including the interner
    /// fingerprint — which the machine-level reset property test
    /// asserts. A custom [`ExtensionHandler`] installed via
    /// [`DirEngine::set_handler`] is replaced by the spec's default
    /// handler, exactly as construction would.
    pub fn reset(&mut self) {
        self.interner.clear();
        self.dir.clear();
        self.sw.clear();
        self.handler = match self.spec.sw {
            SwMode::NoBroadcast => Box::new(LimitlessHandler),
            SwMode::Broadcast => Box::new(BroadcastHandler),
        };
        self.stats = EngineStats::default();
        self.scratch_sharers.clear();
        self.history.clear();
    }

    /// Sets the coherence-sanitizer level (default
    /// [`CheckLevel::Off`]). When enabled, every event is followed by
    /// a directory-invariant validation pass and recorded in a bounded
    /// per-block history that violation panics dump.
    pub fn set_check_level(&mut self, level: CheckLevel) {
        self.check = level;
    }

    /// The protocol this engine runs.
    pub fn spec(&self) -> ProtocolSpec {
        self.spec
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Live software-extension records (for memory-overhead studies).
    pub fn sw_entries(&self) -> usize {
        self.sw.live_entries()
    }

    /// Order-sensitive fingerprint of this home's block-id assignment
    /// (see [`limitless_sim::BlockInterner::fingerprint`]): serial and
    /// sharded runs must agree exactly, which the cross-engine
    /// property tests assert.
    pub fn interner_fingerprint(&self) -> u64 {
        self.interner.fingerprint()
    }

    /// Zero-pointer protocol: whether `block` still qualifies for the
    /// uniprocessor fast path (never accessed by a remote node). For
    /// all other protocols this returns `false` — they have real
    /// hardware directories and take the normal path.
    pub fn local_fast_path(&self, block: BlockAddr) -> bool {
        self.spec.hw_ptrs == 0
            && !self.spec.full_map
            && !self.row_of(block).is_some_and(|st| st.remote_accessed())
    }

    /// The directory row of `block`, if it has ever been touched.
    fn row_of(&self, block: BlockAddr) -> Option<HwEntryRef<'_>> {
        self.interner.id_of(block).map(|id| self.dir.row(id))
    }

    /// Whether every event on this protocol traps to software (the
    /// software-only directory).
    fn all_software(&self) -> bool {
        self.spec.hw_ptrs == 0 && !self.spec.full_map
    }

    /// The current sharer count visible to the directory (hardware +
    /// software + local bit), for tests and instrumentation.
    pub fn sharer_count(&self, block: BlockAddr) -> usize {
        let Some(id) = self.interner.id_of(block) else {
            return 0;
        };
        let st = self.dir.row(id);
        let mut set: Vec<NodeId> = st.ptrs_vec();
        self.sw.extend_readers(id, &mut set);
        if st.local_bit() {
            set.push(self.home);
        }
        set.sort_unstable();
        set.dedup();
        set.len()
    }

    /// Handles one protocol event for `block`, returning what must
    /// happen.
    ///
    /// The block is interned exactly once here — one hash probe —
    /// and every helper then reaches the block's [`HwDirTable`] row by
    /// dense index.
    ///
    /// # Panics
    ///
    /// Panics on protocol-invariant violations (e.g. an
    /// acknowledgment when none is outstanding), which indicate
    /// simulator bugs rather than recoverable conditions.
    pub fn handle(&mut self, block: BlockAddr, event: DirEvent) -> Outcome {
        let mut out = Outcome::default();
        self.handle_into(block, event, &mut out);
        out
    }

    /// [`DirEngine::handle`] without the by-value return: the outcome
    /// is built in `out` (which is [`Outcome::reset`] first). Hot-path
    /// callers keep one `Outcome` alive across events so neither the
    /// ~300-byte struct copy nor the re-initialization of its inline
    /// send buffer is paid per event, and a send list that once
    /// spilled to the heap keeps servicing later bursts from the same
    /// allocation.
    pub fn handle_into(&mut self, block: BlockAddr, event: DirEvent, out: &mut Outcome) {
        out.reset();
        // The block's dense per-home id is also its directory row,
        // pushed on first touch.
        let (id, new) = self.interner.intern(block);
        if new {
            let row = self.dir.push_row();
            debug_assert_eq!(row, id);
        }
        self.dispatch(block, id, event, out);
        if self.check.enabled() {
            self.record_and_validate(block, id, event, out);
        }
    }

    /// Returns an outcome's heap-spilled send storage to the engine's
    /// recycling pool. Hot-path callers (the machine's trap boundary,
    /// the micro-benchmarks) hand outcomes back after consuming them
    /// so steady-state operation performs zero payload allocations.
    pub fn recycle(&mut self, out: Outcome) {
        if let SendList::Heap(v) = out.sends {
            self.spill_pool.put(v);
        }
    }

    #[inline]
    fn dispatch(&mut self, block: BlockAddr, id: u32, event: DirEvent, out: &mut Outcome) {
        match event {
            DirEvent::Read { from } => self.handle_read(block, id, from, out),
            DirEvent::Write { from } => self.handle_write(block, id, from, out),
            DirEvent::InvAck { from } => self.handle_inv_ack(id, from, out),
            DirEvent::OwnerAck {
                from,
                had_data,
                downgrade,
            } => self.handle_owner_ack(block, id, from, had_data, downgrade, out),
            DirEvent::Writeback { from } => self.handle_writeback(block, id, from, out),
        }
    }

    // ---------------------------------------------------------- reads

    fn handle_read(&mut self, block: BlockAddr, id: u32, from: NodeId, out: &mut Outcome) {
        self.stats.read_reqs += 1;
        let all_sw = self.all_software();
        let home = self.home;
        let spec = self.spec;
        let timing = self.timing;
        let mut st = self.dir.row_mut(id);
        let first_remote = all_sw && from != home && !st.remote_accessed();
        if all_sw {
            st.set_remote_accessed();
        }

        match st.state() {
            HwState::Uncached | HwState::ReadOnly => {
                st.set_state(HwState::ReadOnly);
                let data_off = timing.dir_cycles + timing.dram_cycles;
                if from == home && spec.local_bit {
                    // The dedicated one-bit pointer: the home's own
                    // copy never consumes (or overflows) the pointer
                    // array.
                    st.set_local_bit(true);
                    out.hw_send(from, ProtoMsg::ReadData, data_off);
                    out.hw_cycles = timing.dir_cycles;
                    return;
                }
                match st.record_reader(from) {
                    PtrStoreOutcome::Stored if !all_sw => {
                        out.hw_send(from, ProtoMsg::ReadData, data_off);
                        out.hw_cycles = timing.dir_cycles;
                    }
                    _ => {
                        // Overflow (or the software-only directory,
                        // where every access extends in software).
                        if spec.sw == SwMode::Broadcast {
                            // Dir₁SW never traps on reads: hardware
                            // just sets the broadcast bit.
                            st.set_overflowed(true);
                            out.hw_send(from, ProtoMsg::ReadData, data_off);
                            out.hw_cycles = timing.dir_cycles;
                        } else {
                            // The hardware still returns the data; the
                            // software only records the request.
                            out.hw_send(from, ProtoMsg::ReadData, data_off);
                            out.hw_cycles = timing.dir_cycles;
                            if first_remote {
                                out.invalidate_local = true;
                            }
                            self.run_read_overflow(block, id, from, out);
                        }
                    }
                }
            }
            HwState::ReadWrite => {
                let owner = st.owner().expect("ReadWrite entry without owner");
                if owner == from {
                    // Under FIFO delivery the owner's writeback always
                    // precedes its next request, so this indicates the
                    // owner silently lost the line; re-grant data.
                    out.hw_send(
                        from,
                        ProtoMsg::ReadData,
                        timing.dir_cycles + timing.dram_cycles,
                    );
                    out.hw_cycles = timing.dir_cycles;
                } else {
                    st.begin_transaction(HwState::ReadTransaction, 1, Some(from), false);
                    st.set_owner_fetch(Some(owner));
                    out.hw_send(owner, ProtoMsg::Downgrade, timing.dir_cycles);
                    out.hw_cycles = timing.dir_cycles;
                    if all_sw {
                        self.bill(out, self.costs.ack_trap());
                    }
                }
            }
            HwState::ReadTransaction | HwState::WriteTransaction => {
                self.send_busy(id, from, out);
            }
        }
    }

    fn run_read_overflow(&mut self, block: BlockAddr, id: u32, from: NodeId, out: &mut Outcome) {
        let buf = self.send_pool.get();
        let st = self.dir.row_mut(id);
        let mut ctx = HandlerCtx::with_send_buf(
            self.home,
            self.nodes,
            self.spec,
            block,
            id,
            st,
            &mut self.sw,
            buf,
        );
        self.handler.read_overflow(&mut ctx, from);
        let small_opt = self.spec.small_set_opt();
        let (bill, sends, _, local) =
            ctx.finish(HandlerKind::ReadExtend, false, &self.costs, small_opt);
        if self.check.enabled() {
            assert!(
                sends.is_empty(),
                "coherence sanitizer: read handler transmitted {} message(s) for {block}",
                sends.len()
            );
        } else {
            debug_assert!(sends.is_empty(), "read handlers do not transmit");
        }
        self.send_pool.put(sends);
        out.invalidate_local |= local;
        self.bill(out, bill);
    }

    // --------------------------------------------------------- writes

    fn handle_write(&mut self, block: BlockAddr, id: u32, from: NodeId, out: &mut Outcome) {
        self.stats.write_reqs += 1;
        let all_sw = self.all_software();
        let home = self.home;
        let timing = self.timing;
        let mut st = self.dir.row_mut(id);
        let first_remote = all_sw && from != home && !st.remote_accessed();
        if all_sw {
            st.set_remote_accessed();
        }

        match st.state() {
            HwState::Uncached | HwState::ReadOnly => {
                let overflowed = st.overflowed() || all_sw;
                if first_remote {
                    out.invalidate_local = true;
                }
                if !overflowed {
                    self.hw_write_path(id, from, out);
                } else {
                    self.sw_write_path(block, id, from, out);
                }
            }
            HwState::ReadWrite => {
                let owner = st.owner().expect("ReadWrite entry without owner");
                if owner == from {
                    out.hw_send(
                        from,
                        ProtoMsg::WriteData,
                        timing.dir_cycles + timing.dram_cycles,
                    );
                    out.hw_cycles = timing.dir_cycles;
                } else {
                    st.begin_transaction(HwState::WriteTransaction, 1, Some(from), true);
                    st.set_owner_fetch(Some(owner));
                    st.set_upgrade_pending(false);
                    out.hw_send(owner, ProtoMsg::Flush, timing.dir_cycles);
                    out.hw_cycles = timing.dir_cycles;
                    if all_sw {
                        self.bill(out, self.costs.ack_trap());
                    }
                }
            }
            HwState::ReadTransaction | HwState::WriteTransaction => {
                self.send_busy(id, from, out);
            }
        }
    }

    /// Write serviced entirely by the hardware directory: invalidate
    /// the (hardware-tracked) sharers, count acknowledgments in
    /// hardware, grant.
    fn hw_write_path(&mut self, id: u32, from: NodeId, out: &mut Outcome) {
        let home = self.home;
        let timing = self.timing;
        self.scratch_sharers.clear();
        let mut st = self.dir.row_mut(id);
        st.take_ptrs_into(&mut self.scratch_sharers);
        if st.local_bit() && home != from {
            // Kill the home's copy synchronously (no network, no ack).
            st.set_local_bit(false);
            out.invalidate_local = true;
        }
        let was_sharer = self.scratch_sharers.contains(&from) || (from == home && st.local_bit());
        st.set_local_bit(false);
        self.scratch_sharers.retain(|&s| s != from);
        self.scratch_sharers.sort_unstable();
        self.scratch_sharers.dedup();

        out.hw_cycles = timing.dir_cycles;
        if self.scratch_sharers.is_empty() {
            // No remote copies: grant immediately.
            st.set_sole_owner(from);
            let grant = if was_sharer {
                ProtoMsg::UpgradeAck
            } else {
                ProtoMsg::WriteData
            };
            let off = timing.dir_cycles + if was_sharer { 0 } else { timing.dram_cycles };
            out.hw_send(from, grant, off);
            return;
        }

        // Hardware invalidation round. Under `EveryAckTrap` the
        // pointer is unused and software will field the acks; either
        // way the hardware transmits these invalidations.
        let acks = self.scratch_sharers.len() as u32;
        if let Some(spare) = out
            .sends
            .spill_into(self.spill_pool.get(), self.scratch_sharers.len())
        {
            self.spill_pool.put(spare);
        }
        for (i, &s) in self.scratch_sharers.iter().enumerate() {
            out.hw_send(
                s,
                ProtoMsg::Inv,
                timing.dir_cycles + timing.inv_pipeline * (i as u64 + 1),
            );
        }
        self.stats.invs_sent += acks as u64;
        let mut st = self.dir.row_mut(id);
        st.begin_transaction(HwState::WriteTransaction, acks, Some(from), true);
        st.set_upgrade_pending(was_sharer);
        st.set_sw_transaction(false);
    }

    /// Write to an overflowed block: trap to the extension software.
    fn sw_write_path(&mut self, block: BlockAddr, id: u32, from: NodeId, out: &mut Outcome) {
        let home = self.home;
        let nodes = self.nodes;
        let spec = self.spec;
        let buf = self.send_pool.get();
        let st = self.dir.row_mut(id);

        let mut ctx =
            HandlerCtx::with_send_buf(home, nodes, spec, block, id, st, &mut self.sw, buf);
        ctx.sharers_into(&mut self.scratch_sharers);
        let was_sharer = self.scratch_sharers.contains(&from);
        self.scratch_sharers.retain(|&s| s != from);
        let acks = self
            .handler
            .write_overflow(&mut ctx, from, &self.scratch_sharers);
        let (bill, sends, counter, local) =
            ctx.finish(HandlerKind::WriteExtend, true, &self.costs, false);
        out.invalidate_local |= local;

        // Software transmits the invalidations sequentially.
        if let Some(spare) = out.sends.spill_into(self.spill_pool.get(), sends.len() + 1) {
            self.spill_pool.put(spare);
        }
        let mut inv_i = 0usize;
        for s in &sends {
            let offset = if s.is_inv {
                let o = bill.inv_offset(inv_i);
                inv_i += 1;
                o
            } else {
                bill.data_offset(0)
            };
            out.sends.push(Send {
                dst: s.dst,
                msg: s.msg,
                timing: SendTiming::Sw { offset },
            });
        }
        self.stats.invs_sent += inv_i as u64;
        self.send_pool.put(sends);

        let acks = counter.unwrap_or(acks);
        let mut st = self.dir.row_mut(id);
        if acks == 0 {
            // Nothing to invalidate: grant directly from software.
            st.set_sole_owner(from);
            st.set_overflowed(false);
            let grant = if was_sharer {
                ProtoMsg::UpgradeAck
            } else {
                ProtoMsg::WriteData
            };
            out.sends.push(Send {
                dst: from,
                msg: grant,
                timing: SendTiming::Sw {
                    offset: bill.data_offset(0),
                },
            });
        } else {
            st.begin_transaction(HwState::WriteTransaction, acks, Some(from), true);
            st.set_upgrade_pending(was_sharer);
            st.set_sw_transaction(true);
        }
        self.bill(out, bill);
    }

    // ----------------------------------------------- acknowledgments

    fn handle_inv_ack(&mut self, id: u32, _from: NodeId, out: &mut Outcome) {
        let timing = self.timing;
        let mut st = self.dir.row_mut(id);
        if st.state() != HwState::WriteTransaction || st.acks_pending() == 0 {
            self.stats.stale_msgs += 1;
            out.stale = true;
            return;
        }
        let remaining = st.count_ack();
        out.hw_cycles = timing.dir_cycles;

        // Which acknowledgments trap? Every one under `EveryAckTrap`
        // (if the round was software-initiated, i.e. the pointer is
        // unused); only the last under `LastAckTrap`; none under
        // hardware counting.
        let traps_this_ack = match self.spec.ack {
            AckMode::EveryAckTrap => true,
            AckMode::LastAckTrap => remaining == 0,
            AckMode::Hardware => false,
        };

        if remaining > 0 {
            if traps_this_ack {
                self.bill(out, self.costs.ack_trap());
            }
            return;
        }

        // Transaction complete: grant to the waiting requester.
        let mut st = self.dir.row_mut(id);
        let requester = st
            .pending_requester()
            .expect("write transaction without requester");
        let upgrade = st.take_upgrade_pending();
        st.end_transaction();
        st.set_sole_owner(requester);
        st.set_overflowed(false);
        st.set_sw_transaction(false);
        let grant = if upgrade {
            ProtoMsg::UpgradeAck
        } else {
            ProtoMsg::WriteData
        };
        if traps_this_ack {
            let bill = self.costs.last_ack_trap();
            out.sends.push(Send {
                dst: requester,
                msg: grant,
                timing: SendTiming::Sw {
                    offset: bill.data_offset(0),
                },
            });
            self.bill(out, bill);
        } else {
            let off = timing.dir_cycles + if upgrade { 0 } else { timing.dram_cycles };
            out.hw_send(requester, grant, off);
        }
    }

    fn handle_owner_ack(
        &mut self,
        block: BlockAddr,
        id: u32,
        from: NodeId,
        had_data: bool,
        downgrade: bool,
        out: &mut Outcome,
    ) {
        let timing = self.timing;
        let all_sw = self.all_software();
        let mut st = self.dir.row_mut(id);
        let expecting = st.owner_fetch() == Some(from);
        let in_fetch = expecting
            && matches!(
                st.state(),
                HwState::ReadTransaction | HwState::WriteTransaction
            );
        if !in_fetch || !had_data {
            // Stale response: the owner's writeback raced ahead (and,
            // under FIFO delivery, already completed the transaction).
            self.stats.stale_msgs += 1;
            out.stale = true;
            return;
        }
        st.set_owner_fetch(None);
        let requester = st
            .pending_requester()
            .expect("owner fetch without requester");
        let was_read = st.state() == HwState::ReadTransaction;
        st.end_transaction();
        out.hw_cycles = timing.dir_cycles + timing.dram_cycles;

        if was_read {
            debug_assert!(downgrade, "read transaction answered by FlushAck");
            st.set_state(HwState::ReadOnly);
            st.clear_owner();
            // The owner keeps a shared copy; record owner then
            // requester, extending in software on overflow.
            self.record_after_fetch(block, id, from, out);
            self.record_after_fetch(block, id, requester, out);
            out.hw_send(requester, ProtoMsg::ReadData, out.hw_cycles);
        } else {
            st.set_sole_owner(requester);
            st.set_upgrade_pending(false);
            out.hw_send(requester, ProtoMsg::WriteData, out.hw_cycles);
        }
        if all_sw {
            self.bill(out, self.costs.ack_trap());
        }
    }

    /// Records a sharer after an owner fetch, trapping to software on
    /// overflow exactly like a fresh read request.
    fn record_after_fetch(&mut self, block: BlockAddr, id: u32, node: NodeId, out: &mut Outcome) {
        let home = self.home;
        let spec = self.spec;
        let all_sw = self.all_software();
        let mut st = self.dir.row_mut(id);
        if node == home && spec.local_bit {
            st.set_local_bit(true);
            return;
        }
        match st.record_reader(node) {
            PtrStoreOutcome::Stored if !all_sw => {}
            _ => {
                if spec.sw == SwMode::Broadcast {
                    st.set_overflowed(true);
                } else {
                    self.run_read_overflow(block, id, node, out);
                }
            }
        }
    }

    fn handle_writeback(&mut self, block: BlockAddr, id: u32, from: NodeId, out: &mut Outcome) {
        let timing = self.timing;
        let all_sw = self.all_software();
        out.hw_cycles = timing.dir_cycles + timing.dram_cycles;
        let mut st = self.dir.row_mut(id);
        let expecting = st.owner_fetch() == Some(from);
        match st.state() {
            HwState::ReadWrite if st.owner() == Some(from) => {
                st.set_state(HwState::Uncached);
                st.clear_owner();
            }
            HwState::ReadTransaction | HwState::WriteTransaction if expecting => {
                // The owner evicted while our fetch was in flight; the
                // writeback carries the data, so complete the
                // transaction now. The stale Flush/DowngradeAck that
                // follows will be ignored.
                st.set_owner_fetch(None);
                let requester = st
                    .pending_requester()
                    .expect("owner fetch without requester");
                let was_read = st.state() == HwState::ReadTransaction;
                st.end_transaction();
                if was_read {
                    st.set_state(HwState::ReadOnly);
                    st.clear_owner();
                    self.record_after_fetch(block, id, requester, out);
                    out.hw_send(requester, ProtoMsg::ReadData, out.hw_cycles);
                } else {
                    st.set_sole_owner(requester);
                    st.set_upgrade_pending(false);
                    out.hw_send(requester, ProtoMsg::WriteData, out.hw_cycles);
                }
            }
            _ => {
                self.stats.stale_msgs += 1;
                out.stale = true;
                return;
            }
        }
        if all_sw {
            self.bill(out, self.costs.ack_trap());
        }
    }

    // -------------------------------------------------------- helpers

    fn send_busy(&mut self, id: u32, from: NodeId, out: &mut Outcome) {
        self.stats.busys_sent += 1;
        // During a software-managed acknowledgment round (`S_{NB,ACK}`
        // and the software-only directory) even the BUSY bounce is a
        // software action.
        let sw_round = self.dir.row(id).sw_transaction();
        let sw_busy = self.all_software() || (sw_round && self.spec.ack == AckMode::EveryAckTrap);
        if sw_busy {
            let bill = self.costs.busy_trap();
            out.sends.push(Send {
                dst: from,
                msg: ProtoMsg::Busy,
                timing: SendTiming::Sw {
                    offset: bill.data_offset(0),
                },
            });
            self.bill(out, bill);
        } else {
            out.hw_send(from, ProtoMsg::Busy, self.timing.dir_cycles);
            out.hw_cycles = self.timing.dir_cycles;
        }
    }

    fn bill(&mut self, out: &mut Outcome, bill: TrapBill) {
        self.stats.traps += 1;
        self.stats.trap_cycles += bill.total();
        match bill.kind {
            HandlerKind::ReadExtend => self.stats.read_extend_traps += 1,
            HandlerKind::WriteExtend => self.stats.write_extend_traps += 1,
            HandlerKind::AckTrap => self.stats.ack_traps += 1,
            HandlerKind::LastAckTrap => self.stats.last_ack_traps += 1,
            HandlerKind::BusyTrap => self.stats.busy_traps += 1,
        }
        // Multiple bills for one event merge into one occupancy.
        out.trap = Some(match out.trap.take() {
            None => bill,
            Some(mut prev) => {
                prev.absorb(&bill);
                prev
            }
        });
    }

    // ------------------------------------------------------ sanitizer

    /// Records the post-event snapshot in the block history, then
    /// validates every directory invariant the spectrum promises.
    /// Called once per event while the sanitizer is enabled.
    fn record_and_validate(&mut self, block: BlockAddr, id: u32, event: DirEvent, out: &Outcome) {
        let st = self.dir.row(id);
        let sw_readers = self.sw.reader_count(id);
        self.history.record(
            id,
            HistoryRecord {
                event,
                state: st.state(),
                acks: st.acks_pending(),
                ptr_count: st.ptr_count().min(usize::from(u8::MAX)) as u8,
                sw_readers: sw_readers.min(usize::from(u16::MAX)) as u16,
                local_bit: st.local_bit(),
                overflowed: st.overflowed(),
                owner_fetch: st.owner_fetch(),
                stale: out.stale,
            },
        );
        if let Err(msg) = self.block_invariants(block, id) {
            panic!(
                "coherence sanitizer: {msg}\n  home {} block {block} after {event:?}\n{}",
                self.home,
                self.history.dump(block, id)
            );
        }
    }

    /// The per-block directory invariants. These must hold after
    /// *every* event, in every protocol of the spectrum; each arm
    /// documents why.
    fn block_invariants(&self, block: BlockAddr, id: u32) -> Result<(), String> {
        let st = self.dir.row(id);
        st.structural_invariants()?;
        self.sw.structural_invariants(id)?;
        let sw_readers = self.sw.reader_count(id);
        let _ = block;

        match st.state() {
            HwState::Uncached => {
                // No copies anywhere: every pointer form must be clear.
                if st.ptr_count() != 0 || st.local_bit() || st.overflowed() || sw_readers != 0 {
                    return Err(format!(
                        "Uncached entry still tracks sharers \
                         (ptrs={}, local_bit={}, overflowed={}, sw={sw_readers})",
                        st.ptr_count(),
                        st.local_bit(),
                        st.overflowed()
                    ));
                }
            }
            HwState::ReadOnly => {
                // Read-only copies: the overflow meta-state and the
                // software extension move together (the overflow trap
                // sets both; `release_to_hardware` clears both) — for
                // non-broadcast protocols. Broadcast protocols never
                // extend in software: the overflow bit alone stands
                // for "potentially everyone".
                match self.spec.sw {
                    SwMode::NoBroadcast => {
                        if st.overflowed() != (sw_readers != 0) {
                            return Err(format!(
                                "overflow bit ({}) and software record ({sw_readers} readers) \
                                 out of sync",
                                st.overflowed()
                            ));
                        }
                    }
                    SwMode::Broadcast => {
                        if sw_readers != 0 {
                            return Err(format!(
                                "broadcast protocol holds {sw_readers} software readers"
                            ));
                        }
                    }
                }
                if self.spec.full_map && st.overflowed() {
                    return Err("full-map directory overflowed".to_string());
                }
            }
            HwState::ReadWrite => {
                // Single-writer: exactly one owner and nothing else.
                if st.owner().is_none() {
                    return Err("ReadWrite entry without an owner".to_string());
                }
                if st.ptr_count() != 0 || st.local_bit() || st.overflowed() || sw_readers != 0 {
                    return Err(format!(
                        "ReadWrite entry also tracks readers \
                         (ptrs={}, local_bit={}, overflowed={}, sw={sw_readers}) — \
                         single-writer xor multi-reader violated",
                        st.ptr_count(),
                        st.local_bit(),
                        st.overflowed()
                    ));
                }
            }
            HwState::ReadTransaction => {
                // An owner fetch for a read: exactly one response
                // outstanding, and we must remember whom to fetch from.
                if st.acks_pending() != 1 {
                    return Err(format!(
                        "ReadTransaction with {} responses outstanding (expected 1)",
                        st.acks_pending()
                    ));
                }
                if st.owner_fetch().is_none() {
                    return Err("ReadTransaction without an owner fetch".to_string());
                }
            }
            HwState::WriteTransaction => {
                // Ack counting in progress: the transaction completes
                // (and leaves this state) on the final acknowledgment,
                // so an entry observed in it has acks outstanding.
                if st.acks_pending() == 0 {
                    return Err("WriteTransaction with no acknowledgments outstanding".to_string());
                }
            }
        }

        // Cross-state bookkeeping flags are meaningful only during
        // their transactions.
        if st.owner_fetch().is_some()
            && !matches!(
                st.state(),
                HwState::ReadTransaction | HwState::WriteTransaction
            )
        {
            return Err(format!(
                "owner fetch from {:?} outside a transaction ({:?})",
                st.owner_fetch(),
                st.state()
            ));
        }
        if st.upgrade_pending() && st.state() != HwState::WriteTransaction {
            return Err(format!("upgrade pending in {:?}", st.state()));
        }
        if st.sw_transaction() && st.state() != HwState::WriteTransaction {
            return Err(format!("software transaction flag set in {:?}", st.state()));
        }
        Ok(())
    }

    /// Whether the directory currently accounts for a copy of `block`
    /// at `node` — via the owner pointer, a hardware pointer, the
    /// software extension, the one-bit local pointer, or (broadcast
    /// protocols) the overflow bit that stands for "potentially
    /// everyone". The quiesce audit checks cached copies against this:
    /// the directory may track a superset (silent evictions of clean
    /// lines are invisible to it) but never miss a real copy.
    pub fn dir_tracks(&self, block: BlockAddr, node: NodeId) -> bool {
        if self.local_fast_path(block) {
            return node == self.home;
        }
        let Some(id) = self.interner.id_of(block) else {
            return false;
        };
        let st = self.dir.row(id);
        st.owner() == Some(node)
            || st.contains_ptr(node)
            || (st.local_bit() && node == self.home)
            || (st.overflowed() && self.spec.sw == SwMode::Broadcast)
            || self.sw.contains_reader(id, node)
    }

    /// The exclusive owner the directory records for `block`, if any.
    pub fn dir_owner(&self, block: BlockAddr) -> Option<NodeId> {
        self.row_of(block).and_then(|st| st.owner())
    }

    /// Violations of the quiesce contract: once the machine drains,
    /// no entry may be mid-transaction or carry live transaction
    /// bookkeeping, and every per-event invariant must still hold.
    pub fn quiesce_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for (id, &block) in self.interner.blocks().iter().enumerate() {
            let id = id as u32;
            let st = self.dir.row(id);
            if !st.state().accepts_requests() {
                v.push(format!(
                    "home {} block {block}: still in {:?} at quiesce",
                    self.home,
                    st.state()
                ));
                continue;
            }
            if st.acks_pending() != 0 {
                v.push(format!(
                    "home {} block {block}: {} acknowledgments never arrived",
                    self.home,
                    st.acks_pending()
                ));
            }
            if st.owner_fetch().is_some() || st.upgrade_pending() || st.sw_transaction() {
                v.push(format!(
                    "home {} block {block}: live transaction bookkeeping at quiesce \
                     (owner_fetch={:?}, upgrade_pending={}, sw_transaction={})",
                    self.home,
                    st.owner_fetch(),
                    st.upgrade_pending(),
                    st.sw_transaction()
                ));
            }
            if let Err(e) = self.block_invariants(block, id) {
                v.push(format!("home {} block {block}: {e}", self.home));
            }
        }
        v
    }

    /// The retained event history for `block`, formatted for
    /// diagnostics (the retry watchdog includes this in its panic).
    pub fn history_dump(&self, block: BlockAddr) -> String {
        match self.interner.id_of(block) {
            Some(id) => self.history.dump(block, id),
            None => format!("no directory events recorded for {block}"),
        }
    }
}

impl ProtocolSpec {
    /// Whether this protocol implements the small-worker-set
    /// memory-usage optimization (paper §5: the `LACK`, `ACK` and
    /// zero-pointer protocols).
    pub fn small_set_opt(&self) -> bool {
        matches!(self.ack, AckMode::LastAckTrap | AckMode::EveryAckTrap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(spec: ProtocolSpec) -> DirEngine {
        DirEngine::new(NodeId(0), 16, spec, HandlerImpl::FlexibleC)
    }

    fn read(e: &mut DirEngine, b: u64, n: u16) -> Outcome {
        e.handle(BlockAddr(b), DirEvent::Read { from: NodeId(n) })
    }

    fn write(e: &mut DirEngine, b: u64, n: u16) -> Outcome {
        e.handle(BlockAddr(b), DirEvent::Write { from: NodeId(n) })
    }

    fn ack(e: &mut DirEngine, b: u64, n: u16) -> Outcome {
        e.handle(BlockAddr(b), DirEvent::InvAck { from: NodeId(n) })
    }

    #[test]
    fn simple_read_is_pure_hardware() {
        let mut e = engine(ProtocolSpec::limitless(5));
        let out = read(&mut e, 1, 3);
        assert_eq!(out.sends.len(), 1);
        assert_eq!(out.sends[0].dst, NodeId(3));
        assert_eq!(out.sends[0].msg, ProtoMsg::ReadData);
        assert!(out.trap.is_none());
        assert_eq!(e.sharer_count(BlockAddr(1)), 1);
    }

    #[test]
    fn reads_beyond_capacity_trap_and_extend() {
        let mut e = engine(ProtocolSpec::limitless(2));
        for n in 1..=2 {
            assert!(read(&mut e, 1, n).trap.is_none());
        }
        let out = read(&mut e, 1, 3);
        let bill = out.trap.expect("overflow must trap");
        assert_eq!(bill.kind, HandlerKind::ReadExtend);
        // Data still comes from hardware.
        assert_eq!(out.sends[0].msg, ProtoMsg::ReadData);
        assert!(matches!(out.sends[0].timing, SendTiming::Hw { .. }));
        assert_eq!(e.sharer_count(BlockAddr(1)), 3);
        // Pointers were drained: the next readers fit in hardware
        // again.
        assert!(read(&mut e, 1, 4).trap.is_none());
        assert!(read(&mut e, 1, 5).trap.is_none());
        assert!(read(&mut e, 1, 6).trap.is_some());
        assert_eq!(e.sharer_count(BlockAddr(1)), 6);
    }

    #[test]
    fn full_map_never_traps() {
        let mut e = engine(ProtocolSpec::full_map());
        for n in 1..16 {
            assert!(read(&mut e, 1, n).trap.is_none());
        }
        let out = write(&mut e, 1, 1);
        assert!(out.trap.is_none());
        // 14 invalidations (everyone but the writer), all hardware.
        assert_eq!(
            out.sends.iter().filter(|s| s.msg == ProtoMsg::Inv).count(),
            14
        );
    }

    #[test]
    fn hw_write_round_counts_acks_and_grants() {
        let mut e = engine(ProtocolSpec::limitless(5));
        read(&mut e, 1, 1);
        read(&mut e, 1, 2);
        let out = write(&mut e, 1, 3);
        assert!(out.trap.is_none());
        assert_eq!(
            out.sends.iter().filter(|s| s.msg == ProtoMsg::Inv).count(),
            2
        );
        // First ack: nothing. Second: grant.
        assert!(ack(&mut e, 1, 1).sends.is_empty());
        let done = ack(&mut e, 1, 2);
        assert_eq!(done.sends.len(), 1);
        assert_eq!(done.sends[0].msg, ProtoMsg::WriteData);
        assert_eq!(done.sends[0].dst, NodeId(3));
    }

    #[test]
    fn upgrade_grants_permission_without_data() {
        let mut e = engine(ProtocolSpec::limitless(5));
        read(&mut e, 1, 3);
        let out = write(&mut e, 1, 3);
        assert_eq!(out.sends.len(), 1);
        assert_eq!(out.sends[0].msg, ProtoMsg::UpgradeAck);
    }

    #[test]
    fn overflowed_write_traps_and_invalidates_everyone() {
        let mut e = engine(ProtocolSpec::limitless(2));
        for n in 1..=5 {
            read(&mut e, 1, n);
        }
        assert_eq!(e.sharer_count(BlockAddr(1)), 5);
        let out = write(&mut e, 1, 9);
        let bill = out.trap.expect("overflowed write must trap");
        assert_eq!(bill.kind, HandlerKind::WriteExtend);
        let invs: Vec<_> = out
            .sends
            .iter()
            .filter(|s| s.msg == ProtoMsg::Inv)
            .collect();
        assert_eq!(invs.len(), 5);
        assert!(invs
            .iter()
            .all(|s| matches!(s.timing, SendTiming::Sw { .. })));
        // Acks complete in hardware for the 2-pointer protocol.
        for n in 1..=4 {
            assert!(ack(&mut e, 1, n).sends.is_empty());
        }
        let done = ack(&mut e, 1, 5);
        assert_eq!(done.sends[0].msg, ProtoMsg::WriteData);
        assert!(done.trap.is_none());
        // Directory is back under hardware control with a sole owner.
        assert_eq!(e.sharer_count(BlockAddr(1)), 0);
        assert_eq!(e.sw_entries(), 0);
    }

    #[test]
    fn lack_traps_only_on_last_ack() {
        let mut e = engine(ProtocolSpec::one_ptr_lack());
        read(&mut e, 1, 1);
        read(&mut e, 1, 2); // overflow: 1 ptr
        read(&mut e, 1, 3);
        let out = write(&mut e, 1, 9);
        assert!(out.trap.is_some());
        assert!(ack(&mut e, 1, 1).trap.is_none());
        assert!(ack(&mut e, 1, 2).trap.is_none());
        let done = ack(&mut e, 1, 3);
        let bill = done.trap.expect("last ack traps in LACK");
        assert_eq!(bill.kind, HandlerKind::LastAckTrap);
        // Data transmitted by software.
        assert!(matches!(done.sends[0].timing, SendTiming::Sw { .. }));
    }

    #[test]
    fn ack_variant_traps_on_every_ack() {
        let mut e = engine(ProtocolSpec::one_ptr_ack());
        for n in 1..=3 {
            read(&mut e, 1, n);
        }
        write(&mut e, 1, 9);
        let t1 = ack(&mut e, 1, 1);
        assert_eq!(t1.trap.expect("every ack traps").kind, HandlerKind::AckTrap);
        let t2 = ack(&mut e, 1, 2);
        assert!(t2.trap.is_some());
        let done = ack(&mut e, 1, 3);
        assert_eq!(done.trap.expect("last").kind, HandlerKind::LastAckTrap);
    }

    #[test]
    fn busy_during_software_ack_round_traps() {
        let mut e = engine(ProtocolSpec::one_ptr_ack());
        for n in 1..=3 {
            read(&mut e, 1, n);
        }
        write(&mut e, 1, 9);
        let bounced = read(&mut e, 1, 12);
        assert_eq!(bounced.sends[0].msg, ProtoMsg::Busy);
        assert_eq!(bounced.trap.expect("sw busy").kind, HandlerKind::BusyTrap);
        // Hardware-counted rounds bounce in hardware.
        let mut e2 = engine(ProtocolSpec::limitless(2));
        for n in 1..=3 {
            read(&mut e2, 1, n);
        }
        write(&mut e2, 1, 9);
        let bounced2 = read(&mut e2, 1, 12);
        assert_eq!(bounced2.sends[0].msg, ProtoMsg::Busy);
        assert!(bounced2.trap.is_none());
    }

    #[test]
    fn dirty_remote_read_does_three_hops() {
        let mut e = engine(ProtocolSpec::limitless(5));
        write(&mut e, 1, 3);
        let out = read(&mut e, 1, 4);
        assert_eq!(out.sends.len(), 1);
        assert_eq!(out.sends[0].msg, ProtoMsg::Downgrade);
        assert_eq!(out.sends[0].dst, NodeId(3));
        // Requests bounce while the fetch is outstanding.
        assert_eq!(read(&mut e, 1, 5).sends[0].msg, ProtoMsg::Busy);
        let done = e.handle(
            BlockAddr(1),
            DirEvent::OwnerAck {
                from: NodeId(3),
                had_data: true,
                downgrade: true,
            },
        );
        assert_eq!(done.sends[0].msg, ProtoMsg::ReadData);
        assert_eq!(done.sends[0].dst, NodeId(4));
        // Both the old owner and the reader are now sharers.
        assert_eq!(e.sharer_count(BlockAddr(1)), 2);
    }

    #[test]
    fn dirty_remote_write_flushes_owner() {
        let mut e = engine(ProtocolSpec::limitless(5));
        write(&mut e, 1, 3);
        let out = write(&mut e, 1, 4);
        assert_eq!(out.sends[0].msg, ProtoMsg::Flush);
        let done = e.handle(
            BlockAddr(1),
            DirEvent::OwnerAck {
                from: NodeId(3),
                had_data: true,
                downgrade: false,
            },
        );
        assert_eq!(done.sends[0].msg, ProtoMsg::WriteData);
        assert_eq!(done.sends[0].dst, NodeId(4));
    }

    #[test]
    fn writeback_races_flush_and_wins() {
        let mut e = engine(ProtocolSpec::limitless(5));
        write(&mut e, 1, 3);
        write(&mut e, 1, 4); // Flush in flight to node 3
                             // Node 3's writeback (sent before the Flush arrived) comes
                             // first under FIFO delivery:
        let wb = e.handle(BlockAddr(1), DirEvent::Writeback { from: NodeId(3) });
        assert_eq!(wb.sends[0].msg, ProtoMsg::WriteData);
        assert_eq!(wb.sends[0].dst, NodeId(4));
        // The stale FlushAck is ignored.
        let stale = e.handle(
            BlockAddr(1),
            DirEvent::OwnerAck {
                from: NodeId(3),
                had_data: false,
                downgrade: false,
            },
        );
        assert!(stale.stale);
        assert_eq!(e.stats().stale_msgs, 1);
    }

    #[test]
    fn plain_writeback_returns_block_to_memory() {
        let mut e = engine(ProtocolSpec::limitless(5));
        write(&mut e, 1, 3);
        let wb = e.handle(BlockAddr(1), DirEvent::Writeback { from: NodeId(3) });
        assert!(wb.sends.is_empty());
        assert!(!wb.stale);
        // Fresh read is a plain hardware fill.
        let out = read(&mut e, 1, 5);
        assert!(out.trap.is_none());
        assert_eq!(out.sends[0].msg, ProtoMsg::ReadData);
    }

    #[test]
    fn local_bit_spares_home_reads_from_pointers() {
        let mut e = engine(ProtocolSpec::limitless(1));
        let out = read(&mut e, 1, 0); // home reads its own block
        assert!(out.trap.is_none());
        assert_eq!(e.sharer_count(BlockAddr(1)), 1);
        // The single pointer is still free:
        assert!(read(&mut e, 1, 5).trap.is_none());
        // A write by a third node invalidates the home copy locally,
        // without a network invalidation.
        let w = write(&mut e, 1, 7);
        assert!(w.invalidate_local);
        assert_eq!(w.sends.iter().filter(|s| s.msg == ProtoMsg::Inv).count(), 1);
    }

    #[test]
    fn zero_ptr_fast_path_until_first_remote_access() {
        let mut e = engine(ProtocolSpec::zero_ptr());
        assert!(e.local_fast_path(BlockAddr(1)));
        let out = read(&mut e, 1, 5);
        assert!(
            out.invalidate_local,
            "first remote access flushes home cache"
        );
        assert!(
            out.trap.is_some(),
            "software-only directory traps on everything"
        );
        assert!(!e.local_fast_path(BlockAddr(1)));
        // Non-zero-pointer protocols never use the fast path.
        let e2 = engine(ProtocolSpec::limitless(1));
        assert!(!e2.local_fast_path(BlockAddr(1)));
    }

    #[test]
    fn zero_ptr_write_traps_and_uses_software_state() {
        let mut e = engine(ProtocolSpec::zero_ptr());
        read(&mut e, 1, 5);
        read(&mut e, 1, 6);
        let out = write(&mut e, 1, 7);
        assert!(out.trap.is_some());
        assert_eq!(
            out.sends.iter().filter(|s| s.msg == ProtoMsg::Inv).count(),
            2
        );
        // Acks trap (EveryAckTrap mode).
        assert!(ack(&mut e, 1, 5).trap.is_some());
        let done = ack(&mut e, 1, 6);
        assert_eq!(done.sends[0].msg, ProtoMsg::WriteData);
    }

    #[test]
    fn broadcast_protocol_never_traps_on_reads() {
        let mut e = engine(ProtocolSpec::dir1_sw());
        assert!(read(&mut e, 1, 1).trap.is_none());
        let o = read(&mut e, 1, 2); // beyond the single pointer
        assert!(o.trap.is_none(), "Dir1SW sets the broadcast bit silently");
        let o3 = read(&mut e, 1, 3);
        assert!(o3.trap.is_none());
    }

    #[test]
    fn broadcast_write_invalidates_all_nodes() {
        let mut e = engine(ProtocolSpec::dir1_sw());
        read(&mut e, 1, 1);
        read(&mut e, 1, 2);
        read(&mut e, 1, 3);
        let out = write(&mut e, 1, 4);
        assert!(out.trap.is_some());
        // Broadcast: every node except writer and home gets an inv.
        assert_eq!(
            out.sends.iter().filter(|s| s.msg == ProtoMsg::Inv).count(),
            14
        );
        // All 14 must ack; the last ack traps (LACK).
        for n in (1..16).filter(|&n| n != 4) {
            let o = ack(&mut e, 1, n);
            if n == 15 {
                assert!(o.trap.is_some());
                assert_eq!(o.sends[0].msg, ProtoMsg::WriteData);
            }
        }
    }

    #[test]
    fn spurious_inv_ack_is_stale_not_fatal() {
        let mut e = engine(ProtocolSpec::limitless(5));
        let out = ack(&mut e, 1, 5);
        assert!(out.stale);
        assert_eq!(e.stats().stale_msgs, 1);
    }

    #[test]
    fn stats_count_traps_by_kind() {
        let mut e = engine(ProtocolSpec::limitless(1));
        read(&mut e, 1, 1);
        read(&mut e, 1, 2); // read-extend trap
        write(&mut e, 1, 3); // write-extend trap
        let s = e.stats();
        assert_eq!(s.read_extend_traps, 1);
        assert_eq!(s.write_extend_traps, 1);
        assert_eq!(s.traps, 2);
        assert!(s.trap_cycles > 0);
    }

    #[test]
    fn sanitizer_accepts_a_full_protocol_round() {
        for spec in [
            ProtocolSpec::zero_ptr(),
            ProtocolSpec::limitless(2),
            ProtocolSpec::dir1_sw(),
            ProtocolSpec::full_map(),
        ] {
            let mut e = engine(spec);
            e.set_check_level(CheckLevel::Basic);
            for n in 1..=5 {
                read(&mut e, 1, n);
            }
            let out = write(&mut e, 1, 9);
            let invs = out.sends.iter().filter(|s| s.msg == ProtoMsg::Inv).count();
            for n in 1..16 {
                ack(&mut e, 1, n);
            }
            let _ = invs;
            assert_eq!(e.dir_owner(BlockAddr(1)), Some(NodeId(9)));
            assert!(e.dir_tracks(BlockAddr(1), NodeId(9)));
            assert!(
                e.quiesce_violations().is_empty(),
                "{spec:?} left quiesce violations"
            );
        }
    }

    #[test]
    fn sanitizer_tracks_sharers_and_dumps_history() {
        let mut e = engine(ProtocolSpec::limitless(2));
        e.set_check_level(CheckLevel::Basic);
        for n in 1..=5 {
            read(&mut e, 1, n);
        }
        for n in 1..=5 {
            assert!(e.dir_tracks(BlockAddr(1), NodeId(n)));
        }
        assert!(!e.dir_tracks(BlockAddr(1), NodeId(9)));
        let dump = e.history_dump(BlockAddr(1));
        assert!(dump.contains("directory event"));
        assert!(e
            .history_dump(BlockAddr(99))
            .contains("no directory events"));
    }

    #[test]
    fn quiesce_flags_unfinished_transactions() {
        let mut e = engine(ProtocolSpec::limitless(2));
        e.set_check_level(CheckLevel::Basic);
        read(&mut e, 1, 1);
        read(&mut e, 1, 2);
        write(&mut e, 1, 3); // invalidation round left unacknowledged
        let v = e.quiesce_violations();
        assert!(!v.is_empty());
        assert!(v[0].contains("still in"));
    }

    #[test]
    fn deterministic_outcomes() {
        let run = || {
            let mut e = engine(ProtocolSpec::limitless(2));
            let mut log = Vec::new();
            for i in 0..50u64 {
                let n = (i % 7 + 1) as u16;
                let out = if i % 3 == 0 {
                    write(&mut e, i % 5, n)
                } else {
                    read(&mut e, i % 5, n)
                };
                log.push((out.sends.len(), out.trap.map(|t| t.total())));
                // Drain any pending acks so transactions finish.
                for m in 1..8 {
                    let _ = ack(&mut e, i % 5, m);
                }
            }
            log
        };
        assert_eq!(run(), run());
    }
}
