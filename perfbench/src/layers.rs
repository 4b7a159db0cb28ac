//! Per-layer metrics: work counts read from the runs' `RunReport.stats`,
//! and host nanoseconds per operation measured by calling each layer's
//! public functions alone, at the workload's shape (node count, mesh,
//! two event lanes). The timings run only in traced runs, after the
//! timed passes.
//!
//! `limitless_bench::micro` already times the node-independent shapes
//! (the event queue and the cache); the benchmark takes those numbers
//! from `micro::run_all`. Its directory, mesh and lane shapes are fixed
//! at 64 nodes, so the node-dependent ones are timed here with the
//! node count as a parameter.

use std::hint::black_box;
use std::time::Instant;

use limitless_core::{DirEngine, DirEvent, HandlerImpl, Outcome, ProtocolSpec};
use limitless_dir::{HwDirTable, SwDirectory};
use limitless_machine::lane_sync::LaneSync;
use limitless_machine::{MachineConfig, MachineStats};
use limitless_net::{FlitCount, MeshTopology, NetConfig, Network};
use limitless_sim::{BlockAddr, Cycle, NodeId};

/// A named per-layer value.
pub type Metric = (&'static str, f64, &'static str);

/// Counts summed over every simulation of one pass (deterministic).
pub fn counts(s: &MachineStats, events: u64) -> Vec<Metric> {
    let e = &s.engine;
    let c = &s.cache;
    let n = &s.net;
    let accesses = (s.reads + s.writes) as f64;
    let useful = accesses / (accesses + s.busy_retries as f64).max(1.0);
    vec![
        ("machine.events", events as f64, "count"),
        ("machine.busy_retries", s.busy_retries as f64, "count"),
        ("machine.watchdog_fires", s.watchdog_fires as f64, "count"),
        ("machine.useful_access_share", useful, "ratio"),
        ("machine.barriers", s.barriers as f64, "count"),
        ("machine.lock_handoffs", s.lock_handoffs as f64, "count"),
        ("machine.lock_conflicts", s.lock_conflicts as f64, "count"),
        ("cache.hits", c.hits as f64, "count"),
        ("cache.misses", c.misses as f64, "count"),
        ("cache.victim_hits", c.victim_hits as f64, "count"),
        ("cache.ifetch_misses", c.ifetch_misses as f64, "count"),
        ("cache.invalidations", c.invalidations as f64, "count"),
        ("cache.miss_ratio", c.miss_ratio(), "ratio"),
        ("core.read_reqs", e.read_reqs as f64, "count"),
        ("core.write_reqs", e.write_reqs as f64, "count"),
        ("core.traps", e.traps as f64, "count"),
        (
            "core.read_extend_traps",
            e.read_extend_traps as f64,
            "count",
        ),
        (
            "core.write_extend_traps",
            e.write_extend_traps as f64,
            "count",
        ),
        ("core.ack_traps", e.ack_traps as f64, "count"),
        ("core.last_ack_traps", e.last_ack_traps as f64, "count"),
        ("core.busy_traps", e.busy_traps as f64, "count"),
        ("core.invs_sent", e.invs_sent as f64, "count"),
        ("core.stale_msgs", e.stale_msgs as f64, "count"),
        ("core.trap_cycles", e.trap_cycles as f64, "cycles"),
        ("net.messages", n.messages as f64, "count"),
        ("net.flits", n.flits as f64, "count"),
        ("net.tx_wait_cycles", n.tx_wait_cycles as f64, "cycles"),
        ("net.rx_wait_cycles", n.rx_wait_cycles as f64, "cycles"),
        ("net.mean_latency_cycles", n.mean_latency(), "cycles"),
    ]
}

const BATCHES: usize = 9;
const WARMUP: u32 = 50;

/// Median over [`BATCHES`] batches of host ns per call of `f`.
fn ns_per_call<R>(iters: u32, mut f: impl FnMut() -> R) -> f64 {
    for _ in 0..WARMUP {
        black_box(f());
    }
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    crate::stats::median(&batches)
}

/// Up to `n` distinct node ids spread evenly over the machine, skipping
/// node 0 (the directory's home in the engine shapes).
fn spread(nodes: usize, n: usize) -> Vec<NodeId> {
    let n = n.min(nodes - 1);
    (0..n)
        .map(|i| NodeId::from_index(1 + i * (nodes - 1) / n))
        .collect()
}

/// One in-hardware directory transaction cycle: four readers (within
/// the five hardware pointers), a write invalidating them, their acks,
/// and the owner's writeback back to `Uncached`.
fn hw_cycle_ns(nodes: usize) -> f64 {
    let mut e = DirEngine::new(
        NodeId(0),
        nodes,
        ProtocolSpec::limitless(5),
        HandlerImpl::FlexibleC,
    );
    let mut out = Outcome::default();
    let ids = spread(nodes, 5);
    let (readers, writer) = (&ids[..4], ids[4]);
    ns_per_call(2_000, || {
        for &r in readers {
            e.handle_into(BlockAddr(7), DirEvent::Read { from: r }, &mut out);
        }
        e.handle_into(BlockAddr(7), DirEvent::Write { from: writer }, &mut out);
        let sends = out.sends.len();
        for &r in readers {
            e.handle_into(BlockAddr(7), DirEvent::InvAck { from: r }, &mut out);
        }
        e.handle_into(BlockAddr(7), DirEvent::Writeback { from: writer }, &mut out);
        sends
    })
}

/// The software-extension cycle of `micro`'s `dir_engine_overflow_cycle`
/// with readers spread over the machine: seven readers overflow the
/// five hardware pointers (ReadExtend trap), a write traps again and
/// sends seven software invalidations, the acks return and the owner
/// writes back.
fn overflow_cycle_ns(nodes: usize) -> f64 {
    let mut e = DirEngine::new(
        NodeId(0),
        nodes,
        ProtocolSpec::limitless(5),
        HandlerImpl::FlexibleC,
    );
    let mut out = Outcome::default();
    let ids = spread(nodes, 8);
    let (readers, writer) = (&ids[..7], ids[7]);
    ns_per_call(2_000, || {
        for &r in readers {
            e.handle_into(BlockAddr(9), DirEvent::Read { from: r }, &mut out);
        }
        e.handle_into(BlockAddr(9), DirEvent::Write { from: writer }, &mut out);
        let sends = out.sends.len();
        for &r in readers {
            e.handle_into(BlockAddr(9), DirEvent::InvAck { from: r }, &mut out);
        }
        e.handle_into(BlockAddr(9), DirEvent::Writeback { from: writer }, &mut out);
        sends
    })
}

/// `limitless-dir` hardware table with full-map capacity (bitmask
/// regime up to 64 nodes, slab regime above): sixteen `record_reader`
/// calls on one row, then one `take_ptrs_into`; ns per table call.
fn hw_table_ns(nodes: usize) -> f64 {
    let mut t = HwDirTable::with_nodes(nodes, nodes);
    let row = t.push_row();
    let readers = spread(nodes, 16);
    let mut drained = Vec::with_capacity(readers.len());
    let per_iter = ns_per_call(2_000, || {
        let mut e = t.row_mut(row);
        for &r in &readers {
            e.record_reader(r);
        }
        drained.clear();
        e.take_ptrs_into(&mut drained);
        drained.len()
    });
    per_iter / (readers.len() + 1) as f64
}

/// `limitless-dir` software directory (bitmask regime up to 64 nodes,
/// presence-word record regime above): sixteen `record_reader` calls
/// on one block, then one `drain_readers_into`; ns per call.
fn sw_table_ns(nodes: usize) -> f64 {
    let mut d = SwDirectory::for_nodes(nodes);
    let readers = spread(nodes, 16);
    let mut drained = Vec::with_capacity(readers.len());
    let per_iter = ns_per_call(2_000, || {
        for &r in &readers {
            d.record_reader(3, r);
        }
        drained.clear();
        d.drain_readers_into(3, &mut drained)
    });
    per_iter / (readers.len() + 1) as f64
}

/// `Network::send` across the machine's mesh (8×8 at 64 nodes, 32×32
/// at 1024).
fn send_ns(nodes: usize) -> f64 {
    let mut net = Network::new(MeshTopology::for_nodes(nodes), NetConfig::default());
    let (src, dst) = (NodeId(3), NodeId::from_index(nodes * 2 / 3));
    let mut t = Cycle::ZERO;
    ns_per_call(20_000, || {
        t += 1u64;
        net.send(t, src, dst, 4)
    })
}

/// The two-lane lookahead matrix of a `nodes`-node machine, built as
/// the sharded engine builds it: contiguous lane node ranges, the
/// minimum mesh latency between them, and the barrier-release bound on
/// the lane that owns node 0.
fn lookahead(nodes: usize) -> Vec<u64> {
    let cfg = MachineConfig::builder().nodes(nodes).build();
    let topo = MeshTopology::for_nodes(nodes);
    let net = cfg.net;
    let base = net.inject_cycles + u64::from(FlitCount::CONTROL.as_u32()) * net.flit_cycles;
    let ranges = [0..nodes / 2, nodes / 2..nodes];
    let mut dist = vec![0; 4];
    for a in 0..2 {
        for b in 0..2 {
            if a == b {
                continue;
            }
            let hops = u64::from(topo.range_hops(ranges[a].clone(), ranges[b].clone()));
            let mut d = base + hops * net.hop_cycles;
            if a == 0 {
                let release =
                    cfg.barrier_cycles + u64::from(topo.range_hops(0..1, ranges[b].clone()));
                d = d.min(release);
            }
            dist[a * 2 + b] = d.max(1);
        }
    }
    dist
}

/// One lane-synchronization round at two lanes: each lane computes its
/// window end and publishes an advanced floor, then one quiescent
/// snapshot runs (the shape of `micro`'s `lane_sync_round_trip_s2`,
/// with the machine's lookahead matrix).
fn lane_round_ns(nodes: usize) -> f64 {
    let sync = LaneSync::new(2, lookahead(nodes));
    let mut scratch = Vec::with_capacity(2);
    let mut t = 0u64;
    ns_per_call(20_000, || {
        t += 1;
        let mut acc = 0u64;
        for lane in 0..2 {
            acc = acc.wrapping_add(sync.window_end(lane));
            sync.publish(lane, t, t + 1, 0, t);
        }
        let q = sync.try_quiescent_min(&mut scratch);
        acc.wrapping_add(q.map_or(0, |q| q.global_min))
    })
}

/// Host ns per operation of every layer at `nodes` nodes.
pub fn timings(nodes: usize) -> Vec<Metric> {
    let micro = limitless_bench::micro::run_all();
    let median_of = |name: &str| {
        micro
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median_ns() as f64)
            .unwrap_or_else(|| panic!("micro benchmark {name} is gone"))
    };
    vec![
        // One push and one pop per event over a 1000-event queue.
        (
            "sim.queue_ns_per_op",
            median_of("event_queue_push_pop_1k") / 2000.0,
            "ns",
        ),
        // One read plus the fill that follows it.
        (
            "cache.ns_per_access",
            median_of("cache_read_write_mix"),
            "ns",
        ),
        ("core.ns_per_hw_cycle", hw_cycle_ns(nodes), "ns"),
        ("core.ns_per_overflow_cycle", overflow_cycle_ns(nodes), "ns"),
        ("dir.hw_ns_per_op", hw_table_ns(nodes), "ns"),
        ("dir.sw_ns_per_op", sw_table_ns(nodes), "ns"),
        ("net.ns_per_send", send_ns(nodes), "ns"),
        ("machine.lane_sync.ns_per_round", lane_round_ns(nodes), "ns"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_ids_stay_inside_the_machine_and_skip_the_home() {
        for nodes in [16, 64, 1024] {
            let ids = spread(nodes, 16);
            assert!(ids.iter().all(|n| n.0 >= 1 && usize::from(n.0) < nodes));
            let mut unique = ids.clone();
            unique.dedup();
            assert_eq!(unique.len(), ids.len(), "{nodes}");
        }
    }

    #[test]
    fn lookahead_is_positive_off_the_diagonal_at_every_shape() {
        for nodes in [16, 64, 1024] {
            let d = lookahead(nodes);
            assert_eq!((d[0], d[3]), (0, 0));
            assert!(d[1] >= 1 && d[2] >= 1, "{nodes}: {d:?}");
        }
    }
}
