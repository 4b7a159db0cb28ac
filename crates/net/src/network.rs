//! The network timing model: per-hop latency plus endpoint-queue
//! contention.

use limitless_sim::{Cycle, NodeId};

use crate::topology::MeshTopology;

/// Network timing parameters.
///
/// Defaults approximate the Alewife mesh at the granularity NWO models:
/// one cycle per hop for the head flit, one cycle per flit of
/// serialization at each endpoint queue, and a small fixed injection
/// overhead for composing the message in the CMMU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetConfig {
    /// Cycles for the head flit to traverse one mesh hop.
    pub hop_cycles: u64,
    /// Cycles per flit spent serializing through an endpoint queue.
    pub flit_cycles: u64,
    /// Fixed cost for the sending CMMU to compose and inject a message.
    pub inject_cycles: u64,
    /// Minimum latency for a node sending a message to itself: the
    /// CMMU-internal loopback FIFO, no mesh traversal and no flit
    /// serialization (the CMMU forwards internally at this modelling
    /// granularity).
    pub loopback_cycles: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            hop_cycles: 1,
            flit_cycles: 1,
            inject_cycles: 2,
            loopback_cycles: 6,
        }
    }
}

impl NetConfig {
    /// Lower bound on the cycles between a cross-node send call and the
    /// head flit's arrival at the destination, for messages of at least
    /// `min_flits` flits: injection, serialization out of the transmit
    /// queue, and at least one mesh hop. Transmit-queue contention and
    /// longer routes only push arrival later.
    ///
    /// This is the conservative-lookahead bound the sharded engine's
    /// window protocol is built on: a message sent at `now` cannot
    /// become visible at another node before `now +
    /// min_cross_latency(..)`.
    pub fn min_cross_latency(&self, min_flits: u32) -> u64 {
        self.inject_cycles + u64::from(min_flits) * self.flit_cycles + self.hop_cycles
    }
}

/// Counters describing network behaviour during a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages sent.
    pub messages: u64,
    /// Total flits sent.
    pub flits: u64,
    /// Total cycles messages spent waiting behind earlier traffic in
    /// transmit queues.
    pub tx_wait_cycles: u64,
    /// Total cycles messages spent waiting behind earlier traffic in
    /// receive queues.
    pub rx_wait_cycles: u64,
    /// Sum over messages of end-to-end latency (send call to delivery).
    pub total_latency: u64,
    /// Messages that never touched the mesh: CMMU-internal loopback
    /// deliveries. Counted separately and excluded from `messages`,
    /// `flits` and `total_latency`, which describe mesh traffic only.
    pub loopback_messages: u64,
}

impl NetStats {
    /// Mean end-to-end message latency in cycles, or 0.0 if no
    /// messages were sent.
    pub fn mean_latency(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.messages as f64
        }
    }

    /// Merges another stats block into this one. Every field is a sum,
    /// so merging is associative and commutative — the sharded engine
    /// relies on this to sum per-shard network clones into totals that
    /// are independent of the shard count.
    pub fn merge(&mut self, other: &NetStats) {
        self.messages += other.messages;
        self.flits += other.flits;
        self.tx_wait_cycles += other.tx_wait_cycles;
        self.rx_wait_cycles += other.rx_wait_cycles;
        self.total_latency += other.total_latency;
        self.loopback_messages += other.loopback_messages;
    }
}

/// The transmit-side outcome of [`Network::tx`]: either a finished
/// CMMU-internal loopback delivery, or a mesh head-flit arrival time
/// that the destination completes with [`Network::rx`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxPhase {
    /// Self-addressed message, delivered through the per-node loopback
    /// FIFO without touching the mesh. The time is final.
    Loopback {
        /// When the message is fully received back at the sender.
        deliver: Cycle,
    },
    /// Mesh message: the head flit reaches the destination at this
    /// time; receive-queue serialization still follows.
    Mesh {
        /// When the head flit arrives at the destination's CMMU.
        head_arrives: Cycle,
    },
}

/// The mesh network: computes delivery times for messages, modelling
/// contention at the per-node CMMU transmit and receive queues only
/// (switch-internal contention is deliberately not modelled, matching
/// NWO).
///
/// # Examples
///
/// ```
/// use limitless_net::{MeshTopology, NetConfig, Network};
/// use limitless_sim::{Cycle, NodeId};
///
/// let mut net = Network::new(MeshTopology::for_nodes(4), NetConfig::default());
/// let first = net.send(Cycle(0), NodeId(0), NodeId(3), 4);
/// // A second message from the same node queues behind the first:
/// let second = net.send(Cycle(0), NodeId(0), NodeId(3), 4);
/// assert!(second > first);
/// ```
/// Per-node endpoint state, kept together so one send touches one
/// cache line of network state instead of three parallel arrays.
#[derive(Clone, Copy, Debug, Default)]
struct PortState {
    /// Earliest time the node's transmit queue is free.
    tx_free: Cycle,
    /// Earliest time the node's receive queue is free.
    rx_free: Cycle,
    /// The CMMU-internal loopback channel: the delivery time of the
    /// most recent self-addressed message. Local protocol traffic (a
    /// home's own requests/fills and local invalidations) does not
    /// touch the mesh; it flows through this dedicated FIFO so that a
    /// local invalidation can never pass a local fill still in flight
    /// (window-of-vulnerability closure), and never queues behind
    /// unrelated network traffic.
    loopback_free: Cycle,
}

#[derive(Clone, Debug)]
pub struct Network {
    topo: MeshTopology,
    cfg: NetConfig,
    /// Endpoint-queue state, one entry per node.
    ports: Vec<PortState>,
    stats: NetStats,
}

impl Network {
    /// Creates a quiescent network over `topo`.
    pub fn new(topo: MeshTopology, cfg: NetConfig) -> Self {
        let n = topo.nodes();
        Network {
            topo,
            cfg,
            ports: vec![PortState::default(); n],
            stats: NetStats::default(),
        }
    }

    /// The topology this network spans.
    pub fn topology(&self) -> &MeshTopology {
        &self.topo
    }

    /// Sends a message of `flits` flits from `src` to `dst` at time
    /// `now`, returning the cycle at which the message is fully
    /// received at `dst`.
    ///
    /// Ordering guarantee: two messages sent from the same `src` to the
    /// same `dst` are delivered in send order (the transmit queue is
    /// FIFO and all same-pair messages share a path).
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` lies outside the mesh.
    pub fn send(&mut self, now: Cycle, src: NodeId, dst: NodeId, flits: u32) -> Cycle {
        match self.tx(now, src, dst, flits) {
            TxPhase::Loopback { deliver } => deliver,
            TxPhase::Mesh { head_arrives } => self.rx(head_arrives, dst, flits, now),
        }
    }

    /// The transmit half of [`Network::send`]: loopback resolution or
    /// injection, transmit-queue serialization, and mesh traversal up
    /// to head-flit arrival. Touches only sender-side state
    /// (`loopback_free[src]`/`tx_free[src]` and the tx-side counters),
    /// so the sharded engine can run it on the lane that owns `src`.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` lies outside the mesh.
    pub fn tx(&mut self, now: Cycle, src: NodeId, dst: NodeId, flits: u32) -> TxPhase {
        if src == dst {
            // CMMU-internal loopback: fixed latency through a dedicated
            // per-node FIFO (delivery strictly in send order). It never
            // touches the mesh or the endpoint queues, message size is
            // irrelevant at this granularity, and it is not mesh
            // traffic for the stats.
            let ch = &mut self.ports[src.index()].loopback_free;
            let deliver = (now + Cycle(self.cfg.loopback_cycles)).max(*ch + Cycle(1));
            *ch = deliver;
            self.stats.loopback_messages += 1;
            return TxPhase::Loopback { deliver };
        }

        let serialize = Cycle(u64::from(flits) * self.cfg.flit_cycles);

        // Transmit side: wait for the queue, then serialize out.
        let inject_ready = now + Cycle(self.cfg.inject_cycles);
        let tx = &mut self.ports[src.index()].tx_free;
        let tx_start = inject_ready.max(*tx);
        self.stats.tx_wait_cycles += (tx_start - inject_ready).as_u64();
        let tx_done = tx_start + serialize;
        *tx = tx_done;

        // Mesh traversal: head-flit pipeline latency.
        let hops = self.topo.hops(src, dst);
        let head_arrives = tx_done + Cycle(u64::from(hops) * self.cfg.hop_cycles);
        TxPhase::Mesh { head_arrives }
    }

    /// The receive half of [`Network::send`]: receive-queue wait and
    /// serialization for a head flit arriving at `head_arrives`,
    /// returning full delivery time. `sent_at` is the original send
    /// call time, used for the end-to-end latency statistic. Touches
    /// only receiver-side state (`rx_free[dst]` and the rx-side
    /// counters), so the sharded engine can run it on the lane that
    /// owns `dst` when the arrival event fires.
    pub fn rx(&mut self, head_arrives: Cycle, dst: NodeId, flits: u32, sent_at: Cycle) -> Cycle {
        let serialize = Cycle(u64::from(flits) * self.cfg.flit_cycles);
        let rx = &mut self.ports[dst.index()].rx_free;
        let rx_start = head_arrives.max(*rx);
        self.stats.rx_wait_cycles += (rx_start - head_arrives).as_u64();
        let deliver = rx_start + serialize;
        *rx = deliver;

        self.record(sent_at, deliver, flits);
        deliver
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    fn record(&mut self, now: Cycle, deliver: Cycle, flits: u32) {
        self.stats.messages += 1;
        self.stats.flits += u64::from(flits);
        self.stats.total_latency += (deliver - now).as_u64();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::FlitCount;

    fn net(n: usize) -> Network {
        Network::new(MeshTopology::for_nodes(n), NetConfig::default())
    }

    #[test]
    fn uncontended_latency_scales_with_hops() {
        let mut n = net(16);
        let near = n.send(Cycle(0), NodeId(0), NodeId(1), 4);
        let mut n2 = net(16);
        let far = n2.send(Cycle(0), NodeId(0), NodeId(15), 4);
        assert!(far > near);
        // 4x4 mesh: 0 -> 15 is 6 hops; 0 -> 1 is 1 hop; difference is
        // 5 hop-cycles.
        assert_eq!((far - near).as_u64(), 5);
    }

    #[test]
    fn bigger_messages_take_longer() {
        let mut a = net(16);
        let ctl = a.send(Cycle(0), NodeId(0), NodeId(5), FlitCount::CONTROL.as_u32());
        let mut b = net(16);
        let data = b.send(Cycle(0), NodeId(0), NodeId(5), FlitCount::DATA.as_u32());
        // Data serializes through both endpoint queues.
        assert_eq!(
            (data - ctl).as_u64(),
            2 * u64::from(FlitCount::DATA.as_u32() - FlitCount::CONTROL.as_u32())
        );
    }

    #[test]
    fn same_pair_messages_deliver_in_fifo_order() {
        let mut n = net(16);
        let mut last = Cycle::ZERO;
        for _ in 0..20 {
            let t = n.send(Cycle(0), NodeId(2), NodeId(9), 4);
            assert!(t > last);
            last = t;
        }
    }

    #[test]
    fn tx_queue_contention_serializes_sends() {
        let mut n = net(16);
        let a = n.send(Cycle(0), NodeId(0), NodeId(1), 8);
        let b = n.send(Cycle(0), NodeId(0), NodeId(2), 8);
        // Second message leaves only after the first finishes
        // serializing out of node 0.
        assert!(b >= a);
        assert!(n.stats().tx_wait_cycles > 0);
    }

    #[test]
    fn rx_queue_contention_counts_waiting() {
        let mut n = net(16);
        // Many nodes flood node 0 simultaneously.
        for src in 1..16 {
            n.send(Cycle(0), NodeId(src), NodeId(0), 8);
        }
        assert!(n.stats().rx_wait_cycles > 0);
    }

    #[test]
    fn loopback_is_cheap_but_nonzero() {
        let mut n = net(16);
        let t = n.send(Cycle(0), NodeId(3), NodeId(3), 4);
        assert!(t > Cycle(0));
        let mut m = net(16);
        let remote = m.send(Cycle(0), NodeId(3), NodeId(4), 4);
        assert!(t < remote);
    }

    #[test]
    fn loopback_is_a_dedicated_fifo() {
        let mut n = net(16);
        // Strictly in send order, one cycle apart when saturated...
        let a = n.send(Cycle(0), NodeId(3), NodeId(3), 4);
        let b = n.send(Cycle(0), NodeId(3), NodeId(3), 12);
        assert_eq!(a, Cycle(NetConfig::default().loopback_cycles));
        assert_eq!(b, a + Cycle(1)); // size-independent
                                     // ...and independent of mesh traffic through the same node.
        let before = n.send(Cycle(0), NodeId(2), NodeId(3), 8);
        let c = n.send(Cycle(0), NodeId(3), NodeId(3), 4);
        assert_eq!(c, b + Cycle(1));
        assert!(before > Cycle(0));
        // Loopback is counted separately, not as mesh traffic.
        assert_eq!(n.stats().loopback_messages, 3);
        assert_eq!(n.stats().messages, 1);
    }

    #[test]
    fn later_sends_never_deliver_earlier_from_same_source() {
        let mut n = net(64);
        let t1 = n.send(Cycle(10), NodeId(0), NodeId(63), 4);
        let t2 = n.send(Cycle(11), NodeId(0), NodeId(63), 4);
        assert!(t2 > t1);
    }

    #[test]
    fn stats_track_messages_and_flits() {
        let mut n = net(4);
        n.send(Cycle(0), NodeId(0), NodeId(1), 4);
        n.send(Cycle(0), NodeId(1), NodeId(2), 12);
        let s = n.stats();
        assert_eq!(s.messages, 2);
        assert_eq!(s.flits, 16);
        assert!(s.mean_latency() > 0.0);
    }

    #[test]
    fn quiescent_network_mean_latency_is_zero() {
        let n = net(4);
        assert_eq!(n.stats().mean_latency(), 0.0);
    }

    #[test]
    fn split_tx_rx_matches_send() {
        // Interleave a mixed traffic pattern through both APIs; every
        // delivery time and the final stats must agree.
        let mut whole = net(16);
        let mut split = net(16);
        let pattern = [
            (0u64, 0u16, 5u16, 4u32),
            (0, 0, 9, 12),
            (3, 5, 5, 4),
            (3, 9, 0, 8),
            (4, 0, 5, 4),
            (10, 5, 0, 12),
            (10, 5, 0, 4),
        ];
        for &(now, src, dst, flits) in &pattern {
            let a = whole.send(Cycle(now), NodeId(src), NodeId(dst), flits);
            let b = match split.tx(Cycle(now), NodeId(src), NodeId(dst), flits) {
                TxPhase::Loopback { deliver } => deliver,
                TxPhase::Mesh { head_arrives } => {
                    split.rx(head_arrives, NodeId(dst), flits, Cycle(now))
                }
            };
            assert_eq!(a, b, "delivery diverged for {now} {src}->{dst}");
        }
        assert_eq!(whole.stats(), split.stats());
    }

    #[test]
    fn min_cross_latency_bounds_every_mesh_send() {
        let cfg = NetConfig::default();
        let floor = cfg.min_cross_latency(FlitCount::CONTROL.as_u32());
        assert_eq!(floor, 7); // inject 2 + 4 flits * 1 + 1 hop
        let mut n = net(64);
        for dst in 1..64 {
            let mut fresh = net(64);
            if let TxPhase::Mesh { head_arrives } = fresh.tx(
                Cycle(100),
                NodeId(0),
                NodeId(dst),
                FlitCount::CONTROL.as_u32(),
            ) {
                assert!(head_arrives >= Cycle(100 + floor), "dst {dst}");
            } else {
                panic!("cross-node send took the loopback path");
            }
            // Contention only increases arrival time.
            n.send(Cycle(100), NodeId(0), NodeId(dst), FlitCount::DATA.as_u32());
            if let TxPhase::Mesh { head_arrives } = n.tx(
                Cycle(100),
                NodeId(0),
                NodeId(dst),
                FlitCount::CONTROL.as_u32(),
            ) {
                assert!(head_arrives >= Cycle(100 + floor), "contended dst {dst}");
            }
        }
    }

    #[test]
    fn stats_merge_sums_fields() {
        let mut a = net(16);
        a.send(Cycle(0), NodeId(0), NodeId(1), 4);
        a.send(Cycle(0), NodeId(0), NodeId(2), 8);
        a.send(Cycle(0), NodeId(3), NodeId(3), 4);
        let mut b = net(16);
        for src in 1..8 {
            b.send(Cycle(0), NodeId(src), NodeId(0), 8);
        }
        let (sa, sb) = (a.stats(), b.stats());
        let mut merged = sa;
        merged.merge(&sb);
        assert_eq!(merged.messages, sa.messages + sb.messages);
        assert_eq!(merged.flits, sa.flits + sb.flits);
        assert_eq!(merged.tx_wait_cycles, sa.tx_wait_cycles + sb.tx_wait_cycles);
        assert_eq!(merged.rx_wait_cycles, sa.rx_wait_cycles + sb.rx_wait_cycles);
        assert_eq!(merged.total_latency, sa.total_latency + sb.total_latency);
        assert_eq!(
            merged.loopback_messages,
            sa.loopback_messages + sb.loopback_messages
        );
        // Commutative: the other order gives the same totals.
        let mut flipped = sb;
        flipped.merge(&sa);
        assert_eq!(merged, flipped);
    }
}
