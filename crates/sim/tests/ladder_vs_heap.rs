//! Differential property test: the ladder [`EventQueue`] must be
//! observationally identical to the [`HeapEventQueue`] reference under
//! randomized schedule/pop interleavings — same pop sequences, same
//! clock, same lengths — including same-time FIFO ties and
//! window-overflow boundaries.
//!
//! Over a thousand independently seeded trials run in CI; any
//! divergence prints the trial seed so the failure replays exactly.

use limitless_sim::{Cycle, EventQueue, HeapEventQueue, SplitMix64};

/// Mirror of the ladder's window size: delays are drawn to straddle
/// this boundary so migration between buckets and overflow is
/// exercised on both sides.
const WINDOW: u64 = 1024;

/// Draws a scheduling delay from a mixture that covers every regime
/// the machine model produces: zero-delay resumes, short protocol
/// latencies, window-boundary straddlers, and far-future spills.
fn random_delay(rng: &mut SplitMix64) -> u64 {
    match rng.next_below(10) {
        0 => 0,                               // same-cycle fast lane
        1..=4 => rng.next_below(64),          // hit/hop latencies
        5..=6 => rng.next_below(600),         // backoffs, handlers
        7 => WINDOW - 2 + rng.next_below(5),  // exactly at the window edge
        8 => WINDOW + rng.next_below(WINDOW), // just past the window
        _ => 5_000 + rng.next_below(100_000), // barriers, long Compute
    }
}

/// Draws a delay that straddles an arbitrary window width — the
/// wide-horizon analogue of [`random_delay`], used to exercise
/// [`EventQueue::with_window`] geometries at their own boundaries.
fn random_delay_for(rng: &mut SplitMix64, window: u64) -> u64 {
    match rng.next_below(10) {
        0 => 0,
        1..=4 => rng.next_below(64),
        5..=6 => rng.next_below(window / 2 + 1),
        7 => window - 2 + rng.next_below(5),
        8 => window + rng.next_below(window),
        _ => 5 * window + rng.next_below(100 * window),
    }
}

/// One randomized interleaving: both queues receive the identical
/// operation sequence; every observable must match at every step.
fn run_trial(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let mut ladder = EventQueue::new();
    let mut heap = HeapEventQueue::new();
    let mut next_id: u64 = 0;
    let ops = 60 + rng.next_below(240);
    for op in 0..ops {
        // Bias toward scheduling early so pops have work to drain.
        let scheduling = rng.next_below(100) < if op < ops / 2 { 65 } else { 35 };
        if scheduling {
            // Schedule a burst; same-time ties are common because the
            // burst reuses one delay for several events.
            let at = Cycle(ladder.now().as_u64() + random_delay(&mut rng));
            let burst = 1 + rng.next_below(4);
            for _ in 0..burst {
                ladder.schedule(at, next_id);
                heap.schedule(at, next_id);
                next_id += 1;
            }
        } else {
            assert_eq!(
                ladder.pop(),
                heap.pop(),
                "pop diverged at op {op} (seed {seed:#x})"
            );
        }
        assert_eq!(ladder.len(), heap.len(), "len diverged (seed {seed:#x})");
        assert_eq!(
            ladder.peek_time(),
            heap.peek_time(),
            "peek diverged (seed {seed:#x})"
        );
        assert_eq!(ladder.now(), heap.now(), "clock diverged (seed {seed:#x})");
    }
    // Drain completely: the tails must agree event for event.
    loop {
        let (l, h) = (ladder.pop(), heap.pop());
        assert_eq!(l, h, "drain diverged (seed {seed:#x})");
        if l.is_none() {
            break;
        }
    }
    assert_eq!(ladder.processed(), heap.processed(), "seed {seed:#x}");
}

#[test]
fn ladder_matches_heap_on_randomized_interleavings() {
    // Independent trial seeds from the crate's deterministic RNG: the
    // whole test is reproducible, yet every trial explores a different
    // interleaving.
    let mut seeder = SplitMix64::new(0x1a_dde2_0ec4);
    for _ in 0..1_200 {
        run_trial(seeder.next_u64());
    }
}

#[test]
fn wide_window_ladders_match_heap_on_randomized_interleavings() {
    // The scaling path (the machine derives its window from the node
    // count) widens the bucket window; every geometry must stay
    // observationally identical to the heap reference, with delays
    // drawn to straddle *that* window's boundary rather than the
    // default one.
    let mut seeder = SplitMix64::new(0x71de_11a2_dde2);
    for window in [64usize, 2048, 4096, 16384] {
        for _ in 0..150 {
            let seed = seeder.next_u64();
            let mut rng = SplitMix64::new(seed);
            let mut ladder = EventQueue::with_window(window);
            let mut heap = HeapEventQueue::new();
            let mut next_id: u64 = 0;
            let ops = 60 + rng.next_below(180);
            for op in 0..ops {
                if rng.next_below(100) < if op < ops / 2 { 65 } else { 35 } {
                    let delay = random_delay_for(&mut rng, window as u64);
                    let at = Cycle(ladder.now().as_u64() + delay);
                    for _ in 0..=rng.next_below(3) {
                        let key = (rng.next_below(1 << 16) << 32) | next_id;
                        ladder.schedule_keyed(at, key, next_id);
                        heap.schedule_keyed(at, key, next_id);
                        next_id += 1;
                    }
                } else {
                    assert_eq!(
                        ladder.pop(),
                        heap.pop(),
                        "pop diverged (window {window}, seed {seed:#x})"
                    );
                }
                assert_eq!(ladder.peek(), heap.peek(), "window {window} seed {seed:#x}");
                assert_eq!(ladder.len(), heap.len(), "window {window} seed {seed:#x}");
                assert_eq!(ladder.now(), heap.now(), "window {window} seed {seed:#x}");
            }
            loop {
                let (l, h) = (ladder.pop(), heap.pop());
                assert_eq!(l, h, "drain diverged (window {window}, seed {seed:#x})");
                if l.is_none() {
                    break;
                }
            }
            assert_eq!(ladder.processed(), heap.processed(), "seed {seed:#x}");
        }
    }
}

#[test]
fn ladder_matches_heap_with_caller_keys() {
    // The sharded machine engine supplies structural tie-break keys
    // (origin node, per-origin counter) instead of scheduling-order
    // sequence numbers, so same-time keys arrive in arbitrary order.
    // Both queues must still agree on the (time, key) total order.
    let mut seeder = SplitMix64::new(0x5a_4ded_0ccb_a5e5);
    for _ in 0..400 {
        let seed = seeder.next_u64();
        let mut rng = SplitMix64::new(seed);
        let mut ladder = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut next_id: u64 = 0;
        for op in 0..160 {
            if rng.next_below(100) < if op < 80 { 65 } else { 35 } {
                let at = Cycle(ladder.now().as_u64() + random_delay(&mut rng));
                for _ in 0..=rng.next_below(3) {
                    // Random high bits model the origin node; low bits
                    // keep (time, key) pairs unique.
                    let key = (rng.next_below(1 << 16) << 32) | next_id;
                    ladder.schedule_keyed(at, key, next_id);
                    heap.schedule_keyed(at, key, next_id);
                    next_id += 1;
                }
            } else {
                assert_eq!(ladder.pop(), heap.pop(), "seed {seed:#x}");
            }
            assert_eq!(ladder.peek(), heap.peek(), "peek diverged (seed {seed:#x})");
        }
        loop {
            let (l, h) = (ladder.pop(), heap.pop());
            assert_eq!(l, h, "seed {seed:#x}");
            if l.is_none() {
                break;
            }
        }
    }
}

#[test]
fn ladder_matches_heap_under_advance_to() {
    // The inline-dispatch companion: advancing the clock between
    // schedules (as Machine's fast lane does) must keep both queues in
    // lockstep, including overflow refills triggered by the advance.
    let mut seeder = SplitMix64::new(0x0_0ad7_a9ce);
    for _ in 0..300 {
        let seed = seeder.next_u64();
        let mut rng = SplitMix64::new(seed);
        let mut ladder = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut next_id = 0u64;
        for _ in 0..120 {
            match rng.next_below(4) {
                0 => {
                    // advance_to is only legal strictly before every
                    // pending event; mirror Machine's inline rule.
                    let gap = rng.next_below(2 * WINDOW);
                    let to = Cycle(ladder.now().as_u64() + gap);
                    if ladder.peek_time().is_none_or(|pt| pt > to) {
                        ladder.advance_to(to);
                        heap.advance_to(to);
                    }
                }
                1 => {
                    assert_eq!(ladder.pop(), heap.pop(), "seed {seed:#x}");
                }
                _ => {
                    let at = Cycle(ladder.now().as_u64() + random_delay(&mut rng));
                    for _ in 0..=rng.next_below(3) {
                        ladder.schedule(at, next_id);
                        heap.schedule(at, next_id);
                        next_id += 1;
                    }
                }
            }
            assert_eq!(ladder.peek_time(), heap.peek_time(), "seed {seed:#x}");
            assert_eq!(ladder.processed(), heap.processed(), "seed {seed:#x}");
        }
        loop {
            let (l, h) = (ladder.pop(), heap.pop());
            assert_eq!(l, h, "seed {seed:#x}");
            if l.is_none() {
                break;
            }
        }
    }
}
