//! The flexible coherence interface (paper §4.1).
//!
//! The C version of Alewife's protocol extension software is built on
//! an interface that provides "C macros for hardware directory
//! manipulation, protocol message transmission, a free-listing memory
//! manager, and hash table administration", letting a protocol
//! designer treat every protocol event as an asynchronous inter-node
//! request without understanding the hardware. This module is that
//! interface: [`HandlerCtx`] exposes those services to an
//! [`ExtensionHandler`], and bills every service at the measured
//! Table 2 activity costs so that flexibility has its measured price.
//!
//! Two handlers cover the paper's spectrum: [`LimitlessHandler`]
//! (`S_{NB}`: extend the directory to `n` pointers in software) and
//! [`BroadcastHandler`] (`S_B`: record nothing, broadcast
//! invalidations). Users can implement [`ExtensionHandler`] themselves
//! to build the §7 enhancements (application-specific protocols,
//! dynamic invalidation strategies, …).

use limitless_dir::{HwEntryMut, SwDirectory};
use limitless_sim::{BlockAddr, NodeId};

use crate::cost::{Activity, ComposeInputs, CostModel, HandlerKind, TrapBill};
use crate::msg::ProtoMsg;
use crate::spec::ProtocolSpec;

/// A message queued by a software handler, with its position in the
/// handler's sequential transmit order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueuedSend {
    /// Destination node.
    pub dst: NodeId,
    /// The message.
    pub msg: ProtoMsg,
    /// True if this send is part of the invalidation sequence (paced
    /// at the per-invalidation cost); false for data/completion sends
    /// (paced at the data-transmit cost, after the invalidations).
    pub is_inv: bool,
}

/// The environment a software protocol handler runs in: directory
/// manipulation, message transmission, memory management and hash
/// administration — each billed at the measured activity costs.
///
/// A `HandlerCtx` is created by the protocol engine for the duration
/// of one trap; the engine turns its accumulated effects into a
/// [`TrapBill`] and a set of timed message sends.
#[derive(Debug)]
pub struct HandlerCtx<'a> {
    home: NodeId,
    nodes: usize,
    spec: ProtocolSpec,
    block: BlockAddr,
    /// The block's dense per-home interner id — the software
    /// directory's key (identity-hashed open addressing needs no
    /// `BlockAddr` hash).
    id: u32,
    hw: HwEntryMut<'a>,
    sw: &'a mut SwDirectory,
    // --- accumulated effects ---
    sends: Vec<QueuedSend>,
    ptrs_stored: usize,
    wrote_state: bool,
    used: ActivityFlags,
    extra: Vec<(Activity, u64)>,
    ack_counter: Option<u32>,
    invalidate_local: bool,
}

#[derive(Clone, Copy, Debug, Default)]
struct ActivityFlags {
    decode: bool,
    save_state: bool,
    mem_mgmt: bool,
    hash_admin: bool,
    non_alewife: bool,
}

impl<'a> HandlerCtx<'a> {
    #[cfg(test)]
    pub(crate) fn new(
        home: NodeId,
        nodes: usize,
        spec: ProtocolSpec,
        block: BlockAddr,
        hw: HwEntryMut<'a>,
        sw: &'a mut SwDirectory,
    ) -> Self {
        // Test fixtures have no interner; the block address doubles as
        // the dense id.
        let id = block.0 as u32;
        HandlerCtx::with_send_buf(home, nodes, spec, block, id, hw, sw, Vec::new())
    }

    /// Like [`HandlerCtx::new`], but the caller supplies the block's
    /// interned id and the send queue reuses a recycled buffer (the
    /// engine's message pool) so steady-state traps allocate nothing.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn with_send_buf(
        home: NodeId,
        nodes: usize,
        spec: ProtocolSpec,
        block: BlockAddr,
        id: u32,
        hw: HwEntryMut<'a>,
        sw: &'a mut SwDirectory,
        sends: Vec<QueuedSend>,
    ) -> Self {
        debug_assert!(sends.is_empty());
        HandlerCtx {
            home,
            nodes,
            spec,
            block,
            id,
            hw,
            sw,
            sends,
            ptrs_stored: 0,
            wrote_state: false,
            used: ActivityFlags::default(),
            extra: Vec::new(),
            ack_counter: None,
            invalidate_local: false,
        }
    }

    /// The node this handler runs on (the block's home).
    pub fn home(&self) -> NodeId {
        self.home
    }

    /// Machine size.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The protocol being run.
    pub fn spec(&self) -> ProtocolSpec {
        self.spec
    }

    /// The block this trap concerns.
    pub fn block(&self) -> BlockAddr {
        self.block
    }

    // ---- hardware directory manipulation ----

    /// Decodes and (later) modifies the hardware directory entry.
    /// Handlers must call this before touching the entry; it charges
    /// the `decode and modify hardware directory` activity.
    pub fn decode_directory(&mut self) -> &mut HwEntryMut<'a> {
        self.used.decode = true;
        &mut self.hw
    }

    /// Read-only view of the hardware entry (free: the trap already
    /// received the decoded state from hardware).
    pub fn hw_entry(&self) -> &HwEntryMut<'a> {
        &self.hw
    }

    /// Empties all hardware pointers into the software directory
    /// (billed per pointer stored). Returns how many moved.
    ///
    /// Both sides store presence words of the same width, so the
    /// transfer ORs the hardware row into the software record 64
    /// pointers per step ([`HwEntryRef::ptr_words`] into
    /// [`SwDirectory::record_reader_words`]), billed exactly like a
    /// per-pointer [`SwDirectory::record_reader`] loop, with no
    /// allocation or intermediate buffer.
    ///
    /// [`HwEntryRef::ptr_words`]: limitless_dir::HwEntryRef::ptr_words
    pub fn drain_hw_to_sw(&mut self) -> usize {
        let n = self.sw.record_reader_words(self.id, self.hw.ptr_words());
        self.hw.clear_ptrs();
        self.ptrs_stored += n;
        n
    }

    /// Records one pointer in the software directory (billed per
    /// pointer).
    pub fn record_sw(&mut self, node: NodeId) {
        if self.sw.record_reader(self.id, node) {
            self.ptrs_stored += 1;
        }
    }

    /// Stores the handler's write-transaction state into the extended
    /// directory (the fixed `store pointers` cost of a write handler).
    pub fn store_write_state(&mut self) {
        self.wrote_state = true;
    }

    /// All sharers of the block — hardware pointers, software-extended
    /// pointers and (if set) the home node via its one-bit pointer —
    /// deduplicated. Requires [`HandlerCtx::hash_admin`]-style lookup,
    /// which is billed separately by the handler.
    pub fn sharers(&mut self) -> Vec<NodeId> {
        let mut all = Vec::new();
        self.sharers_into(&mut all);
        all
    }

    /// [`HandlerCtx::sharers`] into a caller-provided buffer (cleared
    /// first) — the engine's allocation-free path.
    pub fn sharers_into(&self, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(self.hw.ptr_iter());
        self.sw.extend_readers(self.id, out);
        if self.hw.local_bit() {
            out.push(self.home);
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Drops the software-extended record for the block (freeing it to
    /// the free list) and clears the overflow meta-state; the entry is
    /// back under pure hardware control.
    pub fn release_to_hardware(&mut self) {
        self.sw.clear_readers(self.id);
        self.hw.set_overflowed(false);
    }

    /// Requests invalidation of the home node's own cached copy (the
    /// one-bit local pointer, or the zero-pointer protocol's
    /// first-remote-access flush). Clears the local bit.
    pub fn invalidate_local(&mut self) {
        self.hw.set_local_bit(false);
        self.invalidate_local = true;
    }

    // ---- protocol message transmission ----

    /// Queues an invalidation to `dst` (billed per invalidation,
    /// transmitted sequentially).
    pub fn send_inv(&mut self, dst: NodeId) {
        self.sends.push(QueuedSend {
            dst,
            msg: ProtoMsg::Inv,
            is_inv: true,
        });
    }

    /// Queues a non-invalidation message (data grant, busy, …) to be
    /// transmitted after the handler's bookkeeping.
    pub fn send_msg(&mut self, dst: NodeId, msg: ProtoMsg) {
        self.sends.push(QueuedSend {
            dst,
            msg,
            is_inv: false,
        });
    }

    /// Hands the directory back to hardware in acknowledgment-
    /// collection mode: `n` acknowledgments outstanding for
    /// `requester`, which will be granted `upgrade`-style (permission
    /// only) or with data.
    pub fn arm_ack_counter(&mut self, n: u32) {
        self.ack_counter = Some(n);
    }

    // ---- billed flexible-interface services ----

    /// Saves processor state for C function calls (flexible interface
    /// overhead; free for the assembly implementation).
    pub fn save_state(&mut self) {
        self.used.save_state = true;
    }

    /// Uses the free-listing memory manager (allocation/free of
    /// extended directory records).
    pub fn memory_mgmt(&mut self) {
        self.used.mem_mgmt = true;
    }

    /// Administers the block → extended-record hash table.
    pub fn hash_admin(&mut self) {
        self.used.hash_admin = true;
    }

    /// The checks supporting simulator-only protocols.
    pub fn non_alewife_support(&mut self) {
        self.used.non_alewife = true;
    }

    /// Charges arbitrary extra cycles (for custom protocol handlers
    /// whose work has no Table 2 analogue).
    pub fn charge(&mut self, activity: Activity, cycles: u64) {
        self.extra.push((activity, cycles));
    }

    /// Number of invalidations queued so far.
    pub fn invs_queued(&self) -> usize {
        self.sends.iter().filter(|s| s.is_inv).count()
    }

    pub(crate) fn finish(
        self,
        kind: HandlerKind,
        is_write: bool,
        costs: &CostModel,
        small_opt: bool,
    ) -> (TrapBill, Vec<QueuedSend>, Option<u32>, bool) {
        let invs = self.sends.iter().filter(|s| s.is_inv).count();
        let extras = self.sends.len() - invs;
        let bill = costs.compose(
            kind,
            is_write,
            ComposeInputs {
                decode: self.used.decode,
                save_state: self.used.save_state,
                mem_mgmt: self.used.mem_mgmt,
                hash_admin: self.used.hash_admin,
                non_alewife: self.used.non_alewife,
                ptrs_stored: self.ptrs_stored,
                wrote_state: self.wrote_state,
                invs,
                data_sends: extras,
                extra: self.extra,
                small_opt,
            },
        );
        (bill, self.sends, self.ack_counter, self.invalidate_local)
    }
}

/// A software protocol extension handler: the code the CMMU traps to
/// when the hardware directory needs help.
///
/// Implementations receive a [`HandlerCtx`] whose services are billed
/// at measured costs; whatever they do through the context becomes
/// both the functional protocol behaviour and its price.
pub trait ExtensionHandler: std::fmt::Debug + Send {
    /// A read request from `from` overflowed the hardware pointer
    /// array. The hardware has already sent the data; the handler only
    /// needs to extend the directory.
    fn read_overflow(&mut self, ctx: &mut HandlerCtx<'_>, from: NodeId);

    /// A write request from `from` hit a block whose directory has
    /// overflowed into software: look up every sharer, transmit
    /// invalidations, and hand the acknowledgment count back to
    /// hardware. `sharers` is pre-deduplicated and excludes `from`.
    /// Returns the number of acknowledgments to expect.
    fn write_overflow(&mut self, ctx: &mut HandlerCtx<'_>, from: NodeId, sharers: &[NodeId])
        -> u32;
}

/// The LimitLESS `S_{NB}` handler: software extends the directory to
/// all `n` pointers, never broadcasts.
#[derive(Clone, Copy, Debug, Default)]
pub struct LimitlessHandler;

impl ExtensionHandler for LimitlessHandler {
    fn read_overflow(&mut self, ctx: &mut HandlerCtx<'_>, from: NodeId) {
        ctx.decode_directory();
        ctx.save_state();
        ctx.memory_mgmt(); // allocate/locate the extension record
        ctx.hash_admin(); // find it again next time
        ctx.drain_hw_to_sw();
        ctx.record_sw(from);
        ctx.decode_directory().set_overflowed(true);
        ctx.non_alewife_support();
    }

    fn write_overflow(
        &mut self,
        ctx: &mut HandlerCtx<'_>,
        _from: NodeId,
        sharers: &[NodeId],
    ) -> u32 {
        ctx.decode_directory();
        ctx.save_state();
        ctx.memory_mgmt(); // free the extension record
        ctx.hash_admin();
        ctx.store_write_state();
        let mut acks = 0u32;
        for &s in sharers {
            if s == ctx.home() {
                // The home's own copy dies synchronously via the local
                // cache; no network round trip, no acknowledgment.
                ctx.invalidate_local();
            } else {
                ctx.send_inv(s);
                acks += 1;
            }
        }
        ctx.release_to_hardware();
        ctx.arm_ack_counter(acks);
        ctx.non_alewife_support();
        acks
    }
}

/// The `S_B` handler (Dir₁SW-style): software records nothing beyond
/// the hardware pointers and broadcasts invalidations to every node
/// when a write hits an overflowed block.
#[derive(Clone, Copy, Debug, Default)]
pub struct BroadcastHandler;

impl ExtensionHandler for BroadcastHandler {
    fn read_overflow(&mut self, _ctx: &mut HandlerCtx<'_>, _from: NodeId) {
        // Never called: in broadcast mode the hardware just sets the
        // overflow bit without trapping (Dir₁SW does not trap on read
        // requests).
        unreachable!("broadcast protocols do not trap on reads");
    }

    fn write_overflow(
        &mut self,
        ctx: &mut HandlerCtx<'_>,
        from: NodeId,
        _sharers: &[NodeId],
    ) -> u32 {
        ctx.decode_directory();
        ctx.store_write_state();
        let mut acks = 0u32;
        for i in 0..ctx.nodes() {
            let dst = NodeId::from_index(i);
            if dst == from {
                continue;
            }
            if dst == ctx.home() {
                ctx.invalidate_local();
                continue;
            }
            ctx.send_inv(dst);
            acks += 1;
        }
        ctx.release_to_hardware();
        ctx.arm_ack_counter(acks);
        acks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::HandlerImpl;
    use limitless_dir::HwDirTable;

    fn fixture() -> (HwDirTable, SwDirectory) {
        let mut t = HwDirTable::new(2);
        t.push_row();
        (t, SwDirectory::new())
    }

    #[test]
    fn limitless_read_overflow_extends_directory() {
        let (mut t, mut sw) = fixture();
        let mut hw = t.row_mut(0);
        hw.record_reader(NodeId(1));
        hw.record_reader(NodeId(2));
        let spec = ProtocolSpec::limitless(2);
        let mut ctx = HandlerCtx::new(NodeId(0), 16, spec, BlockAddr(7), hw, &mut sw);
        LimitlessHandler.read_overflow(&mut ctx, NodeId(3));
        let (bill, sends, counter, local) = ctx.finish(
            HandlerKind::ReadExtend,
            false,
            &CostModel::new(HandlerImpl::FlexibleC),
            false,
        );
        assert!(bill.total() > 0);
        assert!(sends.is_empty());
        assert_eq!(counter, None);
        assert!(!local);
        assert!(t.row(0).overflowed());
        assert_eq!(t.row(0).ptr_count(), 0);
        let readers = sw.readers_vec(7);
        assert_eq!(readers, vec![NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn limitless_write_overflow_invalidates_all_sharers() {
        let (mut t, mut sw) = fixture();
        let mut hw = t.row_mut(0);
        hw.set_overflowed(true);
        sw.record_reader(7, NodeId(1));
        sw.record_reader(7, NodeId(2));
        hw.record_reader(NodeId(3));
        let spec = ProtocolSpec::limitless(2);
        let mut ctx = HandlerCtx::new(NodeId(0), 16, spec, BlockAddr(7), hw, &mut sw);
        let sharers = ctx.sharers();
        let acks = LimitlessHandler.write_overflow(&mut ctx, NodeId(9), &sharers);
        assert_eq!(acks, 3);
        let (bill, sends, counter, _) = ctx.finish(
            HandlerKind::WriteExtend,
            true,
            &CostModel::new(HandlerImpl::FlexibleC),
            false,
        );
        assert_eq!(sends.iter().filter(|s| s.is_inv).count(), 3);
        assert_eq!(counter, Some(3));
        assert!(bill.total() > 0);
        assert!(!t.row(0).overflowed());
        assert_eq!(sw.reader_count(7), 0);
    }

    #[test]
    fn limitless_write_overflow_kills_local_copy_without_ack() {
        let (mut t, mut sw) = fixture();
        let mut hw = t.row_mut(0);
        hw.set_overflowed(true);
        hw.set_local_bit(true);
        sw.record_reader(7, NodeId(1));
        let spec = ProtocolSpec::limitless(2);
        let mut ctx = HandlerCtx::new(NodeId(0), 16, spec, BlockAddr(7), hw, &mut sw);
        let sharers = ctx.sharers();
        assert!(sharers.contains(&NodeId(0)));
        let acks = LimitlessHandler.write_overflow(&mut ctx, NodeId(9), &sharers);
        assert_eq!(acks, 1); // local copy invalidated synchronously
        let (_, _, _, local) = ctx.finish(
            HandlerKind::WriteExtend,
            true,
            &CostModel::new(HandlerImpl::FlexibleC),
            false,
        );
        assert!(local);
        assert!(!t.row(0).local_bit());
    }

    #[test]
    fn broadcast_write_invalidates_everyone_but_writer() {
        let (mut t, mut sw) = fixture();
        let mut hw = t.row_mut(0);
        hw.set_overflowed(true);
        let spec = ProtocolSpec::dir1_sw();
        let mut ctx = HandlerCtx::new(NodeId(0), 8, spec, BlockAddr(7), hw, &mut sw);
        let acks = BroadcastHandler.write_overflow(&mut ctx, NodeId(3), &[]);
        // 8 nodes minus the writer minus the home = 6 network invs.
        assert_eq!(acks, 6);
        let (_, sends, counter, local) = ctx.finish(
            HandlerKind::WriteExtend,
            true,
            &CostModel::new(HandlerImpl::FlexibleC),
            false,
        );
        assert_eq!(sends.len(), 6);
        assert!(local); // home's own copy handled locally
        assert_eq!(counter, Some(6));
        assert!(sends
            .iter()
            .all(|s| s.dst != NodeId(3) && s.dst != NodeId(0)));
    }

    #[test]
    fn sharers_deduplicates_hw_and_sw() {
        let (mut t, mut sw) = fixture();
        let mut hw = t.row_mut(0);
        hw.record_reader(NodeId(1));
        sw.record_reader(7, NodeId(1));
        sw.record_reader(7, NodeId(2));
        let spec = ProtocolSpec::limitless(2);
        let mut ctx = HandlerCtx::new(NodeId(0), 16, spec, BlockAddr(7), hw, &mut sw);
        assert_eq!(ctx.sharers(), vec![NodeId(1), NodeId(2)]);
        let mut buf = vec![NodeId(9)];
        ctx.sharers_into(&mut buf);
        assert_eq!(buf, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn drain_hw_to_sw_matches_a_per_pointer_record_loop() {
        // The bulk word transfer must leave the software directory's
        // stats and reader set exactly as a per-pointer
        // `record_reader` loop would, including the record that was
        // already live and readers already recorded in software.
        for nodes in [64usize, 1024] {
            let cap = 8;
            let ptrs: Vec<NodeId> = [1u16, 7, 33, 63, 64, 500, 1023]
                .into_iter()
                .filter(|&n| usize::from(n) < nodes)
                .map(NodeId)
                .collect();
            for prior in [&[][..], &[NodeId(7), NodeId(2)][..]] {
                let mut t = HwDirTable::with_nodes(cap, nodes);
                t.push_row();
                let mut bulk = SwDirectory::for_nodes(nodes);
                let mut looped = SwDirectory::for_nodes(nodes);
                for &p in prior {
                    bulk.record_reader(7, p);
                    looped.record_reader(7, p);
                }
                let mut hw = t.row_mut(0);
                for &p in &ptrs {
                    hw.record_reader(p);
                }
                let want = ptrs.iter().filter(|&&p| looped.record_reader(7, p)).count();
                let spec = ProtocolSpec::limitless(cap);
                let mut ctx = HandlerCtx::new(NodeId(0), nodes, spec, BlockAddr(7), hw, &mut bulk);
                assert_eq!(ctx.drain_hw_to_sw(), want, "{nodes}");
                drop(ctx);
                assert_eq!(bulk.stats(), looped.stats(), "{nodes}");
                assert_eq!(bulk.readers_vec(7), looped.readers_vec(7), "{nodes}");
                assert_eq!(t.row(0).ptr_count(), 0, "{nodes}");
            }
        }
    }

    #[test]
    fn custom_charges_show_up_in_the_bill() {
        let (mut t, mut sw) = fixture();
        let spec = ProtocolSpec::limitless(2);
        let mut ctx = HandlerCtx::new(NodeId(0), 16, spec, BlockAddr(7), t.row_mut(0), &mut sw);
        ctx.charge(Activity::DataTransmit, 123);
        let (bill, ..) = ctx.finish(
            HandlerKind::ReadExtend,
            false,
            &CostModel::new(HandlerImpl::FlexibleC),
            false,
        );
        assert!(bill.total() >= 123);
    }
}
