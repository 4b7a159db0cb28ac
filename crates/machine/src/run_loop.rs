//! The run drivers and the requester-side protocol.
//!
//! Two drivers share one handler body ([`Shard::handle`] and friends):
//!
//! * **serial** — one lane owns every node and runs a single unbounded
//!   window to completion;
//! * **sharded** — `S` lanes run asynchronously, each bounding its
//!   window end by the per-lane-pair lookahead matrix over its peers'
//!   published floors (`min over d != b of floor[d] + D[d][b]`, see
//!   [`crate::lane_sync`]). There is no driver and no barrier: lanes
//!   drain their inboxes, execute a window, flush their outboxes and
//!   tagged write logs to peer inboxes, publish a new floor, and — when
//!   blocked — attempt a quiescent snapshot that jumps the whole
//!   machine across idle stretches in one round.
//!
//! Because a cross-lane effect from lane `d` needs at least `D[d][b]`
//! cycles of simulated travel (a mesh message or a barrier release),
//! events below a lane's window end are causally complete, and each
//! lane executes its own events in the same strict `(time, key)` order
//! the serial engine uses — so both drivers produce bit-identical
//! results (asserted by the differential tests).
//!
//! Lanes are multiplexed onto at most `available_parallelism` OS
//! threads (cooperative round-robin within a thread), so the lane
//! *partition* — and with it the bit-identical event order — never
//! depends on the host. Threads are pinned to distinct cores on Linux.

use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use limitless_cache::{Access, LineState, INSTR_BLOCK_BASE};
use limitless_core::{BlockMsg, DirEvent, ProtoMsg};
use limitless_net::{FlitCount, NetStats};
use limitless_sim::{Addr, BlockAddr, Cycle, EventQueue, NodeId};

use crate::lane_sync::{pin_current_thread, LaneSync};
use crate::machine::{Ev, Machine, Payload, Pending, SyncMsg, TieKey};
use crate::program::{Op, Rmw};
use crate::shard::{lane_of, Shard, Wctx, WriteRec};
use crate::stats::{MachineStats, RunReport};

/// Hard ceiling on simulation events — a drained queue that never
/// empties indicates livelock, which is a bug this backstop surfaces.
const MAX_EVENTS: u64 = 4_000_000_000;

/// With the sanitizer on, a requester bouncing off BUSY this many
/// times without completing is diagnosed as a livelock: the run panics
/// with the home directory's event history instead of spinning to the
/// event-limit backstop.
const CHECKED_RETRY_LIMIT: u32 = 10_000;

/// The event-queue near-future window in cycles for a `nodes`-node
/// machine (always a power of two: the ladder masks with it).
/// Invalidation rounds pipeline one send per sharer, so a wide-shared
/// block on an N-node machine schedules events ~N pipeline slots out;
/// 4×nodes keeps that fan-out (and the software extension's sequential
/// sends) inside the bucket window instead of spilling it to the
/// overflow heap. 1024 remains the floor, matching the historical
/// fixed window on CM-5-scale machines. Simulated results are
/// bit-identical for every width; only host wall time and memory
/// change.
fn event_horizon(nodes: usize) -> usize {
    (4 * nodes)
        .max(limitless_sim::DEFAULT_WINDOW)
        .next_power_of_two()
}

/// A lane's inbox: cross-lane events plus tagged write-log batches
/// from every peer, behind one mutex. Producers push at publish
/// boundaries; the owner drains at the top of each round.
#[derive(Default)]
struct Inbox {
    inner: Mutex<InboxInner>,
}

#[derive(Default)]
struct InboxInner {
    events: Vec<(Cycle, TieKey, Ev)>,
    writes: Vec<Arc<Vec<WriteRec>>>,
}

/// Driver-local per-lane scheduling state (never shared).
struct LaneRun {
    /// The lane finished (global quiescence observed).
    done: bool,
    /// Last published floor: the lane's promise that nothing below it
    /// will execute — drained events are checked against it.
    floor: u64,
    /// Best proven global event floor (from quiescent snapshots);
    /// monotone, so it keeps lifting idle peers' floors in
    /// [`LaneSync::jump_end`] without re-proving.
    g: u64,
    /// Drained cross-lane events not yet covered by a publish.
    uncovered: u64,
    /// Snapshot scratch (reserved once; keeps rounds allocation-free).
    snap: Vec<(u64, u64)>,
    /// Drain scratch, swapped with the inbox under its lock.
    evs: Vec<(Cycle, TieKey, Ev)>,
    wbatches: Vec<Arc<Vec<WriteRec>>>,
}

impl LaneRun {
    fn new(lanes: usize) -> Self {
        LaneRun {
            done: false,
            floor: 0,
            g: 0,
            uncovered: 0,
            snap: Vec::with_capacity(lanes),
            evs: Vec::new(),
            wbatches: Vec::new(),
        }
    }
}

/// Warns (once per process) that more lanes were requested than the
/// host has cores: the partition is kept — so results stay identical —
/// and lanes timeshare threads instead.
fn warn_oversubscribed(lanes: usize, cores: usize, threads: usize) {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        eprintln!(
            "limitless: {lanes} event lanes on a {cores}-core host; \
             multiplexing onto {threads} thread(s) (event order unchanged, \
             expect no parallel speedup)"
        );
    });
}

/// The busy-spin budget for this host: a real spin window when every
/// worker thread owns a core (always true after clamping), none when
/// there is only one thread (nothing external to wait for).
fn spin_budget_for(threads: usize) -> u32 {
    if threads > 1 {
        1 << 12
    } else {
        0
    }
}

/// Builds the per-lane-pair lookahead matrix `D[a][b]` (row-major):
/// the minimum simulated latency from an event on lane `a` to any
/// event it can cause on lane `b`. Two mechanisms cross lanes:
///
/// * a mesh message — at least `inject + CONTROL·flit +
///   range_hops(a, b)·hop` cycles after the emitting event;
/// * a barrier release — posted by the barrier master (node 0) at
///   `barrier_cycles + hops(0, dst)` after the closing arrival, so the
///   master's lane additionally carries that bound (raw hops, matching
///   `sync::barrier_check`).
///
/// Every off-diagonal entry is clamped to at least 1 so the floor
/// ratchet always progresses.
fn lookahead_matrix(m: &Machine, lanes: usize, bounds: &[usize]) -> Vec<u64> {
    let topo = m.net.topology();
    let cfg = &m.cfg.net;
    let msg_base = cfg.inject_cycles + u64::from(FlitCount::CONTROL.as_u32()) * cfg.flit_cycles;
    let mut dist = vec![0u64; lanes * lanes];
    for a in 0..lanes {
        let ra = bounds[a]..bounds[a + 1];
        for b in 0..lanes {
            if a == b {
                continue;
            }
            let rb = bounds[b]..bounds[b + 1];
            let hops = u64::from(topo.range_hops(ra.clone(), rb.clone()));
            let mut d = msg_base + hops * cfg.hop_cycles;
            if ra.start == 0 {
                // Lane `a` owns the barrier master.
                let release = m.cfg.barrier_cycles + u64::from(topo.range_hops(0..1, rb));
                d = d.min(release);
            }
            dist[a * lanes + b] = d.max(1);
        }
    }
    dist
}

/// Drains `lane`'s inbox into its queue and pending remote writes.
/// Returns the number of events drained. Must run *after* the round's
/// window end was computed from the peers' floors: an event flushed
/// before a peer published floor `F` is visible to whoever read
/// `floor >= F` and then took this lock.
fn drain_inbox(s: &mut Shard, run: &mut LaneRun, inbox: &Inbox) -> u64 {
    {
        let mut inner = inbox.inner.lock().expect("inbox poisoned");
        if inner.events.is_empty() && inner.writes.is_empty() {
            return 0;
        }
        std::mem::swap(&mut run.evs, &mut inner.events);
        std::mem::swap(&mut run.wbatches, &mut inner.writes);
    }
    let drained = run.evs.len() as u64;
    for (at, key, ev) in run.evs.drain(..) {
        // A drained event below the lane's published floor means some
        // peer (or the matrix) broke the lookahead contract: the event
        // order would silently diverge from serial, so this always
        // fails loudly, whatever the check level.
        assert!(
            at.as_u64() >= run.floor,
            "cross-lane event at {at} arrived under lane {}'s published floor {}",
            s.lane,
            run.floor
        );
        s.post_keyed(at, key, ev);
    }
    for batch in run.wbatches.drain(..) {
        s.take_rwrites(&batch);
    }
    drained
}

/// Flushes `lane`'s outboxes and write log to the peers' inboxes.
/// Event counts are noted on the board *before* the push so the
/// quiescent snapshot's sent-sum never undercounts in-flight events.
fn flush_lane(s: &mut Shard, sync: &LaneSync, inboxes: &[Inbox]) {
    for (dst, inbox) in inboxes.iter().enumerate() {
        if dst == s.lane || s.outboxes[dst].is_empty() {
            continue;
        }
        sync.note_sent(s.lane, s.outboxes[dst].len() as u64);
        let mut inner = inbox.inner.lock().expect("inbox poisoned");
        inner.events.append(&mut s.outboxes[dst]);
    }
    if !s.wlog.is_empty() {
        let batch = Arc::new(std::mem::take(&mut s.wlog));
        for (dst, inbox) in inboxes.iter().enumerate() {
            if dst != s.lane {
                let mut inner = inbox.inner.lock().expect("inbox poisoned");
                inner.writes.push(batch.clone());
            }
        }
    }
}

/// One scheduling round for a lane: window-end computation, inbox
/// drain, window execution, flush, publish, and — when blocked — the
/// quiescent-snapshot skip-jump. Returns whether the lane advanced.
fn lane_round(
    s: &mut Shard,
    run: &mut LaneRun,
    cx: &Wctx,
    sync: &LaneSync,
    inboxes: &[Inbox],
    max_events: u64,
) -> bool {
    let me = s.lane;
    // 1. Window end from the peers' floors, lifted by any proven
    //    global floor. Reading floors *before* draining closes the
    //    race with peers flushing as they publish.
    let end = sync.jump_end(me, run.g);
    // 2. Drain the inbox.
    run.uncovered += drain_inbox(s, run, &inboxes[me]);
    // 3. Execute everything strictly below the window end.
    let advanced = if s.next_time().is_some_and(|t| t.as_u64() < end) {
        s.t_end = Cycle(end);
        s.run_window(cx);
        true
    } else {
        false
    };
    // 4 + 5. Flush and publish (coupled: a published floor promises
    //    that every event it clears has been flushed).
    let t_next = s.next_time().map_or(u64::MAX, |t| t.as_u64());
    let floor = t_next.min(end);
    if !advanced || floor >= run.floor {
        flush_lane(s, sync, inboxes);
        sync.publish(me, floor, t_next, run.uncovered, s.executed);
        run.floor = floor;
        run.uncovered = 0;
    }
    if advanced {
        return true;
    }
    // 6. Blocked: attempt the quiescent snapshot.
    let Some(q) = sync.try_quiescent_min(&mut run.snap) else {
        return false;
    };
    assert!(
        q.executed < max_events,
        "event limit exceeded: probable livelock around {floor}"
    );
    if q.global_min == u64::MAX {
        // Global quiescence: every queue is empty and nothing is in
        // flight. Converge the replica and retire the lane.
        s.apply_rwrites_below(Cycle(u64::MAX), u64::MAX);
        run.done = true;
        return true;
    }
    if q.global_min > run.g {
        // A proven global event floor: the next round jumps this
        // lane's window across the idle stretch. It must recompute the
        // window end there, *before* its drain — publishing a floor
        // from fresh peer floors here, after this round's drain, could
        // leave an event a peer flushed in between below that floor.
        run.g = q.global_min;
        return true;
    }
    false
}

/// Runs a group of lanes on one OS thread, round-robin. With one
/// thread per lane this is a plain loop over a single lane; on an
/// oversubscribed host a thread interleaves its lanes cooperatively,
/// so the partition (and the event order) never changes — only the
/// wall-clock schedule does.
fn lane_group_loop(
    group: &mut [Shard],
    cx: &Wctx,
    sync: &LaneSync,
    inboxes: &[Inbox],
    max_events: u64,
    spin_budget: u32,
) {
    let lanes = sync.lanes();
    let mut runs: Vec<LaneRun> = group.iter().map(|_| LaneRun::new(lanes)).collect();
    let mut spins = 0u32;
    loop {
        let mut live = false;
        let mut advanced = false;
        for (s, run) in group.iter_mut().zip(runs.iter_mut()) {
            if run.done {
                continue;
            }
            live = true;
            advanced |= lane_round(s, run, cx, sync, inboxes, max_events);
        }
        if !live || sync.is_poisoned() {
            return;
        }
        if advanced {
            spins = 0;
        } else if spins < spin_budget {
            spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

impl Machine {
    /// Runs the machine until every program has finished and all
    /// protocol traffic has drained. Returns the measurements.
    ///
    /// # Panics
    ///
    /// Panics if no programs were loaded, if the event limit is
    /// exceeded (livelock backstop), or — with coherence checking
    /// enabled — on a protocol invariant violation.
    pub fn run(&mut self) -> RunReport {
        assert!(self.loaded, "load programs before running");
        let start = Instant::now();
        let max_events = std::env::var("LIMITLESS_MAX_EVENTS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(MAX_EVENTS);
        let lanes = self.cfg.shards.clamp(1, self.nodes.len());
        let (events, net_stats) = if lanes <= 1 {
            self.run_serial(max_events)
        } else {
            self.run_sharded(lanes, max_events)
        };
        assert_eq!(
            self.finished,
            self.nodes.len(),
            "simulation drained with unfinished programs (deadlock?)"
        );
        if self.cfg.check.is_full() {
            self.read_log = Some(
                self.nodes
                    .iter_mut()
                    .map(|n| n.read_log.replace(Vec::new()).unwrap_or_default())
                    .collect(),
            );
        }
        if self.registry.is_some() {
            self.check_quiesce();
        }
        self.collect_report(start.elapsed().as_secs_f64(), events, net_stats)
    }

    /// The serial driver: one lane, every node, one window to `∞`.
    fn run_serial(&mut self, max_events: u64) -> (u64, NetStats) {
        let total = self.nodes.len();
        let mut shard = Shard {
            lane: 0,
            first: 0,
            lanes: 1,
            total_nodes: total,
            nodes: std::mem::take(&mut self.nodes),
            net: self.net.clone(),
            queue: EventQueue::with_window(event_horizon(self.cfg.nodes)),
            slot: None,
            executed: 0,
            finished: 0,
            finish_time: Cycle::ZERO,
            mem: std::mem::take(&mut self.mem),
            record_writes: false,
            wlog: Vec::new(),
            rwrites: Vec::new(),
            rw_pos: 0,
            rw_gate: (Cycle(u64::MAX), u64::MAX),
            cur_time: Cycle::ZERO,
            cur_key: 0,
            dist_row: vec![0],
            outboxes: Vec::new(),
            t_end: Cycle(u64::MAX),
            max_events,
            scratch_out: limitless_core::Outcome::default(),
        };
        for i in 0..total {
            let n = NodeId::from_index(i);
            let key = shard.next_key(n);
            shard.queue.schedule_keyed(Cycle::ZERO, key, Ev::Resume(n));
        }
        let registry = self.registry.take().map(Mutex::new);
        let tracker = self.tracker.take().map(Mutex::new);
        {
            let cx = Wctx {
                cfg: &self.cfg,
                registry: registry.as_ref(),
                tracker: tracker.as_ref(),
            };
            shard.run_window(&cx);
        }
        self.nodes = shard.nodes;
        self.mem = shard.mem;
        self.registry = registry.map(|m| m.into_inner().expect("registry lock poisoned"));
        self.tracker = tracker.map(|m| m.into_inner().expect("tracker lock poisoned"));
        self.finished = shard.finished;
        self.finish_time = shard.finish_time;
        (shard.executed, shard.net.stats())
    }

    /// The asynchronous watermark driver: `lanes` event lanes bounded
    /// by the lookahead matrix over published floors, multiplexed onto
    /// at most `available_parallelism` pinned OS threads.
    fn run_sharded(&mut self, lanes: usize, max_events: u64) -> (u64, NetStats) {
        let total = self.nodes.len();

        // Partition the nodes into contiguous lanes.
        let mut bounds = vec![0usize; lanes + 1];
        for i in 0..total {
            bounds[lane_of(i, lanes, total) + 1] += 1;
        }
        for l in 0..lanes {
            bounds[l + 1] += bounds[l];
        }
        let dist = lookahead_matrix(self, lanes, &bounds);

        let mut all = std::mem::take(&mut self.nodes);
        let template_mem = std::mem::take(&mut self.mem);
        let mut shards: Vec<Shard> = Vec::with_capacity(lanes);
        for l in (0..lanes).rev() {
            let mut shard = Shard {
                lane: l,
                first: bounds[l],
                lanes,
                total_nodes: total,
                nodes: all.split_off(bounds[l]),
                net: self.net.clone(),
                queue: EventQueue::with_window(event_horizon(self.cfg.nodes)),
                slot: None,
                executed: 0,
                finished: 0,
                finish_time: Cycle::ZERO,
                // Every lane starts from the same full replica of the
                // memory shadow; tagged write broadcasts keep them
                // converged (see the shard module docs).
                mem: template_mem.clone(),
                record_writes: true,
                wlog: Vec::new(),
                rwrites: Vec::new(),
                rw_pos: 0,
                rw_gate: (Cycle(u64::MAX), u64::MAX),
                cur_time: Cycle::ZERO,
                cur_key: 0,
                dist_row: dist[l * lanes..(l + 1) * lanes].to_vec(),
                outboxes: (0..lanes).map(|_| Vec::new()).collect(),
                t_end: Cycle::ZERO,
                max_events,
                scratch_out: limitless_core::Outcome::default(),
            };
            for i in bounds[l]..bounds[l + 1] {
                let n = NodeId::from_index(i);
                let key = shard.next_key(n);
                shard.queue.schedule_keyed(Cycle::ZERO, key, Ev::Resume(n));
            }
            shards.push(shard);
        }
        shards.reverse();

        let registry = self.registry.take().map(Mutex::new);
        let tracker = self.tracker.take().map(Mutex::new);
        let cx = Wctx {
            cfg: &self.cfg,
            registry: registry.as_ref(),
            tracker: tracker.as_ref(),
        };
        let sync = LaneSync::new(lanes, dist);
        let inboxes: Vec<Inbox> = (0..lanes).map(|_| Inbox::default()).collect();

        // Clamp worker *threads* (never the lane partition, which
        // fixes the event order) to the host's parallelism.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = lanes.min(cores);
        if threads < lanes {
            warn_oversubscribed(lanes, cores, threads);
        }
        let pin = threads > 1;
        let spin_budget = spin_budget_for(threads);

        // Carve the shards into one contiguous group per thread.
        let mut groups: Vec<&mut [Shard]> = Vec::with_capacity(threads);
        let mut rest = shards.as_mut_slice();
        for t in 0..threads {
            let take = (t + 1) * lanes / threads - t * lanes / threads;
            let (g, r) = rest.split_at_mut(take);
            groups.push(g);
            rest = r;
        }

        std::thread::scope(|scope| {
            for (t, group) in groups.into_iter().enumerate() {
                let (cx, sync, inboxes) = (&cx, &sync, &inboxes);
                scope.spawn(move || {
                    if pin {
                        pin_current_thread(t);
                    }
                    let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        lane_group_loop(group, cx, sync, inboxes, max_events, spin_budget);
                    }));
                    if let Err(p) = r {
                        sync.poison();
                        std::panic::resume_unwind(p);
                    }
                });
            }
        });

        // Dissolve the lanes back into the machine. Every replica has
        // converged; lane 0's becomes the machine's memory shadow.
        let mut events = 0u64;
        let mut net_stats = NetStats::default();
        let mut nodes = Vec::with_capacity(total);
        self.finished = 0;
        self.finish_time = Cycle::ZERO;
        for (l, s) in shards.into_iter().enumerate() {
            events += s.executed;
            self.finished += s.finished;
            self.finish_time = self.finish_time.max(s.finish_time);
            net_stats.merge(&s.net.stats());
            nodes.extend(s.nodes);
            if l == 0 {
                self.mem = s.mem;
            }
        }
        self.nodes = nodes;
        self.registry = registry.map(|m| m.into_inner().expect("registry lock poisoned"));
        self.tracker = tracker.map(|m| m.into_inner().expect("tracker lock poisoned"));
        (events, net_stats)
    }

    /// Folds everything measured into the final report: per-node
    /// counters in node-index order (so the totals — including the
    /// bill-aggregator group order — are partition-independent), the
    /// merged network counters, and the worker-set histogram.
    fn collect_report(&mut self, wall_seconds: f64, events: u64, net: NetStats) -> RunReport {
        let mut stats = MachineStats::default();
        for node in &mut self.nodes {
            let per_node = std::mem::take(&mut node.stats);
            stats.merge(&per_node);
            stats.absorb_node(node.engine.stats(), node.cache.stats());
        }
        stats.net = net;
        stats.worker_sets = self.tracker.take().map(|t| t.finish());
        RunReport {
            cycles: self.finish_time,
            events,
            wall_seconds,
            stats,
        }
    }

    // ------------------------------------------------------ sanitizer

    /// The quiesce audit: with all programs finished and all traffic
    /// drained, the caches, the copy registry, every home directory
    /// and the sync runtime must agree exactly.
    ///
    /// # Panics
    ///
    /// Panics listing every discrepancy found.
    fn check_quiesce(&mut self) {
        // Forward any still-pending silent drops (direct-mapped
        // conflict evictions of clean lines) before auditing.
        for i in 0..self.nodes.len() {
            while let Some(b) = self.nodes[i].cache.pop_dropped() {
                if b.0 < INSTR_BLOCK_BASE {
                    if let Some(r) = self.registry.as_mut() {
                        r.drop_copy(b, NodeId::from_index(i));
                    }
                }
            }
        }
        let Some(r) = self.registry.as_ref() else {
            return;
        };
        let mut problems: Vec<String> = Vec::new();
        // Every cached copy must be registered with the right
        // permission.
        for (i, node) in self.nodes.iter().enumerate() {
            let n = NodeId::from_index(i);
            for (b, state) in node.cache.resident_blocks() {
                if b.0 >= INSTR_BLOCK_BASE {
                    continue;
                }
                match state {
                    LineState::Dirty if r.owner(b) != Some(n) => problems.push(format!(
                        "node {n} holds {b} dirty but the registry owner is {:?}",
                        r.owner(b)
                    )),
                    LineState::Shared if !r.is_sharer(b, n) => problems.push(format!(
                        "node {n} holds {b} shared but is not a registered sharer"
                    )),
                    _ => {}
                }
            }
        }
        // Every registered copy must be cached, and the block's home
        // directory must still track it (the directory may track a
        // superset — silent evictions leave stale pointers — but never
        // less than the true copy set).
        for (b, owner, sharers) in r.iter() {
            let home = self.home_of(b);
            let engine = &self.nodes[home.index()].engine;
            if let Some(o) = owner {
                if self.nodes[o.index()].cache.state_anywhere(b) != Some(LineState::Dirty) {
                    problems.push(format!(
                        "registry says {o} owns {b} but its cache disagrees"
                    ));
                }
                let dir_ok = if engine.local_fast_path(b) {
                    o == home
                } else {
                    engine.dir_owner(b) == Some(o)
                };
                if !dir_ok {
                    problems.push(format!(
                        "registry says {o} owns {b} but home {home}'s directory says {:?}",
                        engine.dir_owner(b)
                    ));
                }
            }
            for &s in sharers {
                if self.nodes[s.index()].cache.state_anywhere(b) != Some(LineState::Shared) {
                    problems.push(format!(
                        "registry says {s} shares {b} but its cache disagrees"
                    ));
                }
                if !engine.dir_tracks(b, s) {
                    problems.push(format!(
                        "registry says {s} shares {b} but home {home}'s directory does not track it"
                    ));
                }
            }
        }
        // Every directory entry must have settled into a stable,
        // internally consistent state.
        for (i, node) in self.nodes.iter().enumerate() {
            for v in node.engine.quiesce_violations() {
                problems.push(format!("home {}: {v}", NodeId::from_index(i)));
            }
        }
        // Every invalidation must have been acknowledged exactly once.
        for (b, bal) in r.unbalanced_invs() {
            problems.push(format!("{b}: {bal} invalidation(s) never acknowledged"));
        }
        // Deferred (non-fatal under Basic) violations.
        problems.extend(r.violations().iter().cloned());
        // The sync runtime must have drained.
        for node in &self.nodes {
            for (lock, st) in node.locks.iter() {
                if let Some(h) = st.holder {
                    problems.push(format!("lock {lock} still held by {h} at quiesce"));
                }
                if !st.waiters.is_empty() {
                    problems.push(format!(
                        "lock {lock} still has {} waiter(s) at quiesce",
                        st.waiters.len()
                    ));
                }
            }
        }
        if !self.nodes[0].barrier_arrived.is_empty() {
            problems.push(format!(
                "{} node(s) still waiting at a barrier at quiesce",
                self.nodes[0].barrier_arrived.len()
            ));
        }
        assert!(
            problems.is_empty(),
            "coherence sanitizer: quiesce audit failed with {} problem(s):\n  {}",
            problems.len(),
            problems.join("\n  ")
        );
    }
}

impl Shard {
    // ----------------------------------------------------- dispatch

    /// Executes one event.
    pub(crate) fn handle(&mut self, cx: &Wctx, now: Cycle, ev: Ev) {
        match ev {
            Ev::Resume(n) => self.step_program(cx, n, now),
            Ev::NetArrive {
                src,
                dst,
                flits,
                sent_at,
                payload,
            } => {
                // Resolve the receive side (rx-port contention and
                // serialization) on the lane that owns the receiver.
                let deliver = self.net.rx(now, dst, flits, sent_at);
                self.post(dst, deliver, Ev::Deliver { src, dst, payload });
            }
            Ev::Deliver { src, dst, payload } => match payload {
                Payload::Proto(bm) => self.deliver(cx, src, dst, bm, now),
                Payload::Sync(sm) => self.sync_deliver(cx, src, dst, sm, now),
            },
            Ev::Retry(n) => self.retry(cx, n, now),
        }
    }

    // ---------------------------------------------------- sanitizer

    /// Forwards silently dropped clean lines (direct-mapped conflict
    /// evictions of `Shared` copies, which send no message) from node
    /// `n`'s cache mirror to the registry. No-op when checking is off.
    ///
    /// Drops may sit in the mirror for arbitrary stretches of the run;
    /// the one ordering that matters is that a node's mirror is drained
    /// **before** the registry gains a copy for that node, so a stale
    /// pending drop of block `B` cannot delete a fresh registration of
    /// `B`. Hence the call sites: immediately ahead of every
    /// `registry_fill_*` (the cold miss paths) and at the start of the
    /// quiesce audit — never on the hit path.
    ///
    /// The gate is inline (one discriminant load and a predicted branch
    /// when checking is off); the drain loop itself stays outlined and
    /// cold.
    #[inline]
    fn drain_silent_drops(&mut self, cx: &Wctx, n: NodeId) {
        if cx.checking() {
            self.drain_silent_drops_slow(cx, n);
        }
    }

    #[cold]
    fn drain_silent_drops_slow(&mut self, cx: &Wctx, n: NodeId) {
        while let Some(b) = self.node_mut(n).cache.pop_dropped() {
            if b.0 < INSTR_BLOCK_BASE {
                cx.registry(|r| r.drop_copy(b, n));
            }
        }
    }

    /// Bounded-retry progress violated: diagnose the livelock with the
    /// home directory's event history instead of spinning to the
    /// event-limit backstop.
    #[cold]
    fn livelock_panic(&self, cx: &Wctx, dst: NodeId, addr: Addr, retries: u32) -> ! {
        let b = addr.block(cx.cfg.cache.line_bytes);
        let home = self.home_of(b);
        let dump = if self.owns(home) {
            self.node(home).engine.history_dump(b)
        } else {
            format!("(home {home} lives on another event lane; rerun with the serial engine for its event history)")
        };
        panic!(
            "coherence sanitizer: node {dst} bounced {retries} times \
             requesting {b} — bounded-retry progress violated (livelock)\n{dump}"
        );
    }

    /// The `CheckLevel::Full` freshness check: the simulator keeps one
    /// shadow memory, so a stale *value* is unobservable — instead a
    /// completing access must hold the permission the registry implies.
    #[cold]
    fn check_access_permission(&self, cx: &Wctx, n: NodeId, addr: Addr, is_write: bool) {
        let block = addr.block(cx.cfg.cache.line_bytes);
        let Some(owner) = cx.registry(|r| r.owner(block)) else {
            return;
        };
        if is_write {
            assert!(
                owner == Some(n),
                "coherence sanitizer: node {n} completed a write to {addr} ({block}) \
                 without exclusive ownership (registry owner: {owner:?})"
            );
        } else {
            assert!(
                owner.is_none() || owner == Some(n),
                "coherence sanitizer: node {n} completed a read of {addr} ({block}) \
                 while {owner:?} holds it exclusively"
            );
        }
    }

    // ------------------------------------------------------ programs

    /// Steps `n`'s program, chaining consecutive operations inline:
    /// after a cache hit, a compute phase or a local fast fill, if the
    /// resume moment is provably this lane's next event (nothing queued
    /// at or before it in `(time, key)` order, inline slot empty) and
    /// stays inside the window, the loop advances the clock and
    /// executes the next operation directly — no `Resume` event is
    /// built, scheduled, popped or dispatched. Each chained step still
    /// counts as one executed event, so event counts (and the total
    /// order) are exactly those of a queue-only run.
    fn step_program(&mut self, cx: &Wctx, n: NodeId, mut now: Cycle) {
        loop {
            // One node lookup covers the whole prologue (done flag,
            // trap occupancy, last value, program step).
            let node = self.node_mut(n);
            if node.done {
                return;
            }
            // Protocol handlers steal processor cycles: user code
            // resumes only when the handler (and any watchdog grace)
            // completes.
            let busy = node.trap_busy_until;
            if busy > now {
                self.post(n, busy, Ev::Resume(n));
                return;
            }
            node.trap_accum = 0; // user code made progress

            let last = node.last_value.take();
            let op = node.program.next(n, last);
            // The time this node's program resumes, when that is known
            // synchronously; `None` means the operation handed control
            // to the protocol or sync machinery, which resumes the
            // program itself.
            let resume = match op {
                Op::Compute(c) => {
                    let instr_blocks = (c / 8).max(1);
                    let penalty = self.ifetch(cx, n, instr_blocks, now);
                    Some(now + Cycle(c) + Cycle(penalty))
                }
                Op::Barrier => {
                    self.send_payload(
                        n,
                        NodeId::from_index(0),
                        Payload::Sync(SyncMsg::BarrierArrive),
                        now,
                    );
                    None
                }
                Op::LockAcquire(lock) => {
                    let home = self.lock_home(lock);
                    self.send_payload(n, home, Payload::Sync(SyncMsg::LockReq(lock)), now);
                    None
                }
                Op::LockRelease(lock) => {
                    let home = self.lock_home(lock);
                    self.send_payload(n, home, Payload::Sync(SyncMsg::LockRel(lock)), now);
                    // Fire-and-forget: the processor continues once the
                    // release is handed to the CMMU.
                    Some(now + Cycle(4))
                }
                Op::Finish => {
                    self.node_mut(n).done = true;
                    self.finished += 1;
                    self.finish_time = self.finish_time.max(now);
                    // The barrier master must learn this node will
                    // never arrive at another barrier.
                    self.send_payload(
                        n,
                        NodeId::from_index(0),
                        Payload::Sync(SyncMsg::NodeDone),
                        now,
                    );
                    None
                }
                Op::Read(addr) => {
                    let penalty = self.ifetch(cx, n, 1, now);
                    let block = addr.block(cx.cfg.cache.line_bytes);
                    let node = self.node_mut(n);
                    match node.cache.read(block) {
                        Access::Hit => {
                            node.stats.hits += 1;
                            let t = now + Cycle(cx.cfg.proc.hit + penalty);
                            Some(self.finish_access(cx, n, addr, false, None, 0, false, t))
                        }
                        Access::VictimHit => {
                            node.stats.hits += 1;
                            let t = now + Cycle(cx.cfg.proc.hit + cx.cfg.proc.victim_hit + penalty);
                            Some(self.finish_access(cx, n, addr, false, None, 0, false, t))
                        }
                        Access::UpgradeMiss | Access::Miss { .. } => {
                            self.start_miss(cx, n, addr, false, 0, None, now + Cycle(penalty))
                        }
                    }
                }
                Op::Write(addr, v) => self.write_like(cx, n, addr, v, None, now),
                Op::Rmw(addr, rmw) => self.write_like(cx, n, addr, 0, Some(rmw), now),
            };
            let Some(t) = resume else {
                return;
            };
            // Chain inline when the resume is provably next; otherwise
            // schedule it under the key just allocated (the key is
            // consumed either way, keeping the counter — and with it
            // every later key — partition-independent). A pending
            // remote write tagged at or below the resume blocks
            // chaining: it must be applied between the two events, so
            // the resume goes through the window loop.
            let key = self.next_key(n);
            if self.slot.is_none()
                && t < self.t_end
                && (t, key) < self.rw_gate
                && self.queue.peek().is_none_or(|(pt, pk)| (t, key) < (pt, pk))
            {
                self.queue.advance_to(t);
                self.executed += 1;
                assert!(
                    self.executed < self.max_events,
                    "event limit exceeded: probable livelock at {t}"
                );
                self.cur_time = t;
                self.cur_key = key;
                now = t;
                continue;
            }
            self.post_keyed(t, key, Ev::Resume(n));
            return;
        }
    }

    /// Executes a write-flavoured op, returning the synchronous resume
    /// time (hits and local fast fills) or `None` when the protocol
    /// takes over.
    fn write_like(
        &mut self,
        cx: &Wctx,
        n: NodeId,
        addr: Addr,
        v: u64,
        rmw: Option<Rmw>,
        now: Cycle,
    ) -> Option<Cycle> {
        let penalty = self.ifetch(cx, n, 1, now);
        let block = addr.block(cx.cfg.cache.line_bytes);
        let node = self.node_mut(n);
        match node.cache.write(block) {
            Access::Hit => {
                node.stats.hits += 1;
                let t = now + Cycle(cx.cfg.proc.hit + penalty);
                Some(self.finish_access(cx, n, addr, true, rmw, v, false, t))
            }
            Access::VictimHit => {
                node.stats.hits += 1;
                let t = now + Cycle(cx.cfg.proc.hit + cx.cfg.proc.victim_hit + penalty);
                Some(self.finish_access(cx, n, addr, true, rmw, v, false, t))
            }
            Access::UpgradeMiss | Access::Miss { .. } => {
                self.start_miss(cx, n, addr, true, v, rmw, now + Cycle(penalty))
            }
        }
    }

    /// Completes a memory operation at time `t`: applies its effect to
    /// shadow memory and returns the time the program resumes. The
    /// caller either chains the next operation inline (see
    /// [`Shard::step_program`]) or posts a `Resume`.
    ///
    /// `squashed` marks a window-of-vulnerability completion (the fill
    /// was invalidated in flight; the access completes with the data
    /// but installs nothing) — the sanitizer's permission check is
    /// skipped for those, since the line legitimately belongs to
    /// someone else by completion time.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    fn finish_access(
        &mut self,
        cx: &Wctx,
        n: NodeId,
        addr: Addr,
        is_write: bool,
        rmw: Option<Rmw>,
        wvalue: u64,
        squashed: bool,
        t: Cycle,
    ) -> Cycle {
        if !squashed && cx.cfg.check.is_full() {
            self.check_access_permission(cx, n, addr, is_write);
        }
        if is_write {
            self.node_mut(n).stats.writes += 1;
            match rmw {
                Some(r) => {
                    let old = self.mem_load(addr);
                    self.mem_store(addr, r.apply(old));
                    self.node_mut(n).last_value = Some(old);
                }
                None => self.mem_store(addr, wvalue),
            }
        } else {
            self.node_mut(n).stats.reads += 1;
            let v = self.mem_load(addr);
            let node = self.node_mut(n);
            node.last_value = Some(v);
            if let Some(log) = node.read_log.as_mut() {
                log.push((addr, v));
            }
        }
        if let Some(tr) = cx.tracker {
            let block = addr.block(cx.cfg.cache.line_bytes);
            tr.lock()
                .expect("tracker lock poisoned")
                .touch(block.0, n.0, is_write);
        }
        t
    }

    /// Issues a miss. Returns the resume time when the access completes
    /// synchronously (the local fast path), `None` once the protocol
    /// owns the transaction.
    #[allow(clippy::too_many_arguments)]
    fn start_miss(
        &mut self,
        cx: &Wctx,
        n: NodeId,
        addr: Addr,
        is_write: bool,
        wvalue: u64,
        rmw: Option<Rmw>,
        now: Cycle,
    ) -> Option<Cycle> {
        self.node_mut(n).stats.misses += 1;
        let block = addr.block(cx.cfg.cache.line_bytes);
        let home = self.home_of(block);

        // The software-only directory's uniprocessor fast path: local
        // blocks never touched by a remote node fill straight from
        // local DRAM, with no protocol involvement at all (§2.3).
        if home == n && self.node(n).engine.local_fast_path(block) {
            self.node_mut(n).stats.local_fast_fills += 1;
            self.drain_silent_drops(cx, n);
            let wb = if is_write {
                self.registry_fill_exclusive(cx, block, n);
                self.node_mut(n).cache.fill_dirty(block)
            } else {
                self.registry_fill_shared(cx, block, n);
                self.node_mut(n).cache.fill_shared(block)
            };
            self.handle_displacement(cx, n, wb, now);
            let t = now + Cycle(cx.cfg.proc.issue + 10 /* local DRAM */ + cx.cfg.proc.fill);
            return Some(self.finish_access(cx, n, addr, is_write, rmw, wvalue, false, t));
        }

        debug_assert!(
            self.node(n).pending.is_none(),
            "one outstanding miss per node"
        );
        self.node_mut(n).pending = Some(Pending {
            addr,
            is_write,
            wvalue,
            rmw,
            retries: 0,
            squashed: false,
        });
        let msg = if is_write {
            ProtoMsg::WriteReq
        } else {
            ProtoMsg::ReadReq
        };
        self.send(n, home, block, msg, now + Cycle(cx.cfg.proc.issue));
        None
    }

    fn retry(&mut self, cx: &Wctx, n: NodeId, now: Cycle) {
        let Some(p) = self.node(n).pending.as_ref() else {
            return; // satisfied in the meantime
        };
        let block = p.addr.block(cx.cfg.cache.line_bytes);
        let msg = if p.is_write {
            ProtoMsg::WriteReq
        } else {
            ProtoMsg::ReadReq
        };
        let home = self.home_of(block);
        self.send(n, home, block, msg, now);
    }

    // ------------------------------------------------------- network

    /// Sends a protocol message about `block` from `src` at `at`.
    pub(crate) fn send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        block: BlockAddr,
        msg: ProtoMsg,
        at: Cycle,
    ) {
        self.send_payload(src, dst, Payload::Proto(BlockMsg::new(block, msg)), at);
    }

    fn deliver(&mut self, cx: &Wctx, src: NodeId, dst: NodeId, bm: BlockMsg, now: Cycle) {
        let block = bm.block;
        #[cfg(debug_assertions)]
        if std::env::var("LIMITLESS_TRACE_BLOCK").ok().as_deref()
            == Some(&format!("{:#x}", block.0))
        {
            eprintln!("[{now}] {src} -> {dst}: {:?}", bm.msg);
        }
        match bm.msg {
            // ---- home-side protocol events ----
            ProtoMsg::ReadReq => self.home_event(cx, dst, block, DirEvent::Read { from: src }, now),
            ProtoMsg::WriteReq => {
                self.home_event(cx, dst, block, DirEvent::Write { from: src }, now)
            }
            ProtoMsg::InvAck => {
                cx.registry(|r| r.note_inv_ack(block));
                self.home_event(cx, dst, block, DirEvent::InvAck { from: src }, now);
            }
            ProtoMsg::FlushAck { had_data } => self.home_event(
                cx,
                dst,
                block,
                DirEvent::OwnerAck {
                    from: src,
                    had_data,
                    downgrade: false,
                },
                now,
            ),
            ProtoMsg::DowngradeAck { had_data } => self.home_event(
                cx,
                dst,
                block,
                DirEvent::OwnerAck {
                    from: src,
                    had_data,
                    downgrade: true,
                },
                now,
            ),
            ProtoMsg::Wb => self.home_event(cx, dst, block, DirEvent::Writeback { from: src }, now),

            // ---- requester/sharer-side events (CMMU hardware) ----
            ProtoMsg::ReadData => {
                let squashed =
                    self.node(dst).pending.as_ref().is_some_and(|p| {
                        p.squashed && p.addr.block(cx.cfg.cache.line_bytes) == block
                    });
                if !squashed {
                    self.drain_silent_drops(cx, dst);
                    let wb = self.node_mut(dst).cache.fill_shared(block);
                    self.registry_fill_shared(cx, block, dst);
                    self.handle_displacement(cx, dst, wb, now);
                }
                self.complete_pending(cx, dst, now);
            }
            ProtoMsg::WriteData => {
                self.drain_silent_drops(cx, dst);
                // The line may still sit Shared in our cache if the
                // grant raced nothing at all; normally it is absent.
                let wb = match self.node(dst).cache.state_of(block) {
                    Some(_) => {
                        self.node_mut(dst).cache.upgrade(block);
                        None
                    }
                    None => self.node_mut(dst).cache.fill_dirty(block),
                };
                self.registry_fill_exclusive(cx, block, dst);
                self.handle_displacement(cx, dst, wb, now);
                self.complete_pending(cx, dst, now);
            }
            ProtoMsg::UpgradeAck => {
                self.drain_silent_drops(cx, dst);
                if !self.node_mut(dst).cache.upgrade(block) {
                    // The shared line was displaced while the upgrade
                    // was in flight (e.g. by instruction thrashing).
                    // In Alewife the transaction store pins the line
                    // for the duration of the transaction, so the
                    // grant is still good: install it as a fresh
                    // exclusive copy. (Memory is current — the line
                    // was only ever shared.) Re-requesting instead
                    // would leave the directory believing we own a
                    // line we never held, wedging later owner fetches.
                    self.node_mut(dst).stats.upgrade_races += 1;
                    let wb = self.node_mut(dst).cache.fill_dirty(block);
                    self.handle_displacement(cx, dst, wb, now);
                }
                self.registry_fill_exclusive(cx, block, dst);
                self.complete_pending(cx, dst, now);
            }
            ProtoMsg::Busy => {
                self.node_mut(dst).stats.busy_retries += 1;
                let Some(p) = self.node_mut(dst).pending.as_mut() else {
                    return;
                };
                p.retries += 1;
                let retries = p.retries;
                let addr = p.addr;
                if retries >= CHECKED_RETRY_LIMIT && cx.checking() {
                    self.livelock_panic(cx, dst, addr, retries);
                }
                let backoff = cx.cfg.proc.busy_backoff * u64::from(retries.min(8));
                self.post(dst, now + Cycle(backoff), Ev::Retry(dst));
            }
            ProtoMsg::Inv => {
                self.node_mut(dst).cache.invalidate(block);
                cx.registry(|r| r.drop_copy(block, dst));
                // Acknowledge regardless of presence (the copy may have
                // been evicted silently).
                self.send(dst, src, block, ProtoMsg::InvAck, now + Cycle(2));
            }
            ProtoMsg::Flush => {
                let had = self.node_mut(dst).cache.invalidate(block).is_some();
                cx.registry(|r| r.drop_copy(block, dst));
                self.send(
                    dst,
                    src,
                    block,
                    ProtoMsg::FlushAck { had_data: had },
                    now + Cycle(2),
                );
            }
            ProtoMsg::Downgrade => {
                let had = self.node_mut(dst).cache.downgrade(block);
                if had {
                    cx.registry(|r| r.downgrade(block, dst));
                }
                self.send(
                    dst,
                    src,
                    block,
                    ProtoMsg::DowngradeAck { had_data: had },
                    now + Cycle(2),
                );
            }
        }
    }

    fn complete_pending(&mut self, cx: &Wctx, n: NodeId, now: Cycle) {
        let Some(p) = self.node_mut(n).pending.take() else {
            return; // duplicate grant (e.g. after an upgrade race)
        };
        let t = now + Cycle(cx.cfg.proc.fill);
        let t = self.finish_access(cx, n, p.addr, p.is_write, p.rmw, p.wvalue, p.squashed, t);
        // Chain straight into program stepping when the resume is
        // provably this lane's next event (the common case for a solo
        // in-flight miss); `step_program` keeps chaining from there.
        // Otherwise go through the normal dispatch.
        let key = self.next_key(n);
        if self.slot.is_none()
            && t < self.t_end
            && (t, key) < self.rw_gate
            && self.queue.peek().is_none_or(|(pt, pk)| (t, key) < (pt, pk))
        {
            self.queue.advance_to(t);
            self.executed += 1;
            self.cur_time = t;
            self.cur_key = key;
            self.step_program(cx, n, t);
        } else {
            self.post_keyed(t, key, Ev::Resume(n));
        }
    }

    /// A fill displaced a dirty block out of the victim path: write it
    /// back to its home.
    fn handle_displacement(&mut self, cx: &Wctx, n: NodeId, wb: Option<BlockAddr>, now: Cycle) {
        if let Some(victim) = wb {
            cx.registry(|r| r.drop_copy(victim, n));
            let home = self.home_of(victim);
            self.send(n, home, victim, ProtoMsg::Wb, now);
        }
    }

    fn registry_fill_shared(&mut self, cx: &Wctx, block: BlockAddr, n: NodeId) {
        cx.registry(|r| r.fill_shared(block, n));
    }

    fn registry_fill_exclusive(&mut self, cx: &Wctx, block: BlockAddr, n: NodeId) {
        cx.registry(|r| r.fill_exclusive(block, n));
    }

    /// Streams `blocks` instruction blocks through the cache, returning
    /// the total miss penalty in cycles.
    fn ifetch(&mut self, cx: &Wctx, n: NodeId, blocks: u64, now: Cycle) -> u64 {
        if cx.cfg.perfect_ifetch {
            return 0;
        }
        let Some(mut fp) = self.node(n).footprint else {
            return 0;
        };
        let mut penalty = 0;
        for _ in 0..blocks.min(fp.blocks()) {
            let b = fp.next_block();
            let (miss, wb) = self.node_mut(n).cache.ifetch(b);
            if miss {
                penalty += cx.cfg.proc.ifetch_miss;
            }
            self.handle_displacement(cx, n, wb, now);
        }
        self.node_mut(n).footprint = Some(fp);
        penalty
    }
}

#[cfg(test)]
mod tests {
    use super::event_horizon;

    #[test]
    fn event_horizon_derivation_scales_with_nodes() {
        // CM-5-scale machines keep the historical 1024-cycle window;
        // 1024-node meshes widen to cover O(nodes) invalidation
        // fan-out. Always a power of two (the ladder masks with it).
        for (nodes, want) in [
            (16, 1024),
            (64, 1024),
            (256, 1024),
            (512, 2048),
            (1024, 4096),
        ] {
            assert_eq!(event_horizon(nodes), want, "nodes {nodes}");
            assert!(event_horizon(nodes).is_power_of_two());
        }
    }
}
