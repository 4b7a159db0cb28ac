//! The phase-at-a-time application program.
//!
//! Each node's program is a generator that writes one *phase* of its
//! reference stream (one sweep, time step, round, walk, …) into a
//! buffer the program reuses. The machine drains the buffer op by op
//! and the next phase is generated only when it runs dry, so a node
//! holds at most its largest phase rather than its whole run — the way
//! a real processor produces references as it executes.

use limitless_cache::InstrFootprint;
use limitless_machine::{Op, Program};
use limitless_sim::NodeId;

/// A program that generates its operations one phase at a time.
///
/// The generator is called with phase numbers `0, 1, 2, …` and appends
/// that phase's operations to the (cleared) buffer. It returns `false`
/// once the phase number is past the program's end, writing nothing;
/// from then on the program returns [`Op::Finish`] for good. A phase
/// may be empty: the program simply asks for the next one.
///
/// # Examples
///
/// ```
/// use limitless_apps::phased::Phased;
/// use limitless_machine::{Op, Program};
/// use limitless_sim::NodeId;
///
/// // Two phases, each a compute step then a barrier.
/// let mut p = Phased::new(None, |phase, ops: &mut Vec<Op>| {
///     if phase == 2 {
///         return false;
///     }
///     ops.extend([Op::Compute(phase as u64 + 1), Op::Barrier]);
///     true
/// });
/// let n = NodeId(0);
/// let ops: Vec<Op> = std::iter::from_fn(|| Some(p.next(n, None)))
///     .take(5)
///     .collect();
/// assert_eq!(
///     ops,
///     [Op::Compute(1), Op::Barrier, Op::Compute(2), Op::Barrier, Op::Finish]
/// );
/// ```
pub struct Phased<G> {
    generate: G,
    buf: Vec<Op>,
    pos: usize,
    phase: usize,
    done: bool,
    footprint: Option<InstrFootprint>,
}

impl<G> Phased<G>
where
    G: FnMut(usize, &mut Vec<Op>) -> bool + Send,
{
    /// A program with code footprint `footprint` whose phases come
    /// from `generate`.
    pub fn new(footprint: Option<InstrFootprint>, generate: G) -> Self {
        Phased {
            generate,
            buf: Vec::new(),
            pos: 0,
            phase: 0,
            done: false,
            footprint,
        }
    }
}

impl<G> Program for Phased<G>
where
    G: FnMut(usize, &mut Vec<Op>) -> bool + Send,
{
    fn next(&mut self, _node: NodeId, _last_value: Option<u64>) -> Op {
        loop {
            if let Some(&op) = self.buf.get(self.pos) {
                self.pos += 1;
                return op;
            }
            if self.done {
                return Op::Finish;
            }
            self.buf.clear();
            self.pos = 0;
            self.done = !(self.generate)(self.phase, &mut self.buf);
            debug_assert!(
                !self.done || self.buf.is_empty(),
                "a finished generator wrote operations"
            );
            self.phase += 1;
        }
    }

    fn instr_footprint(&self, _node: NodeId) -> Option<InstrFootprint> {
        self.footprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use limitless_sim::Addr;

    const N: NodeId = NodeId(3);

    #[test]
    fn empty_phases_are_skipped() {
        let mut p = Phased::new(None, |phase, ops: &mut Vec<Op>| {
            match phase {
                0 | 2 | 3 => {}
                1 => ops.push(Op::Read(Addr(16))),
                4 => ops.push(Op::Barrier),
                _ => return false,
            }
            true
        });
        assert_eq!(p.next(N, None), Op::Read(Addr(16)));
        assert_eq!(p.next(N, Some(7)), Op::Barrier);
        assert_eq!(p.next(N, None), Op::Finish);
    }

    #[test]
    fn finish_stays_returned_after_the_end() {
        let mut calls = 0;
        let mut p = Phased::new(None, |phase, ops: &mut Vec<Op>| {
            calls += 1;
            if phase == 1 {
                return false;
            }
            ops.push(Op::Compute(5));
            true
        });
        assert_eq!(p.next(N, None), Op::Compute(5));
        for _ in 0..4 {
            assert_eq!(p.next(N, None), Op::Finish);
        }
        drop(p);
        assert_eq!(calls, 2, "the generator is not asked again once done");
    }

    #[test]
    fn a_program_without_phases_finishes_at_once() {
        let mut p = Phased::new(None, |_, _: &mut Vec<Op>| false);
        assert_eq!(p.next(N, None), Op::Finish);
        assert_eq!(p.next(N, None), Op::Finish);
    }

    #[test]
    fn footprint_passes_through() {
        let fp = InstrFootprint::new(2048, 48);
        let p = Phased::new(Some(fp), |_, _: &mut Vec<Op>| false);
        assert_eq!(p.instr_footprint(N), Some(fp));
        let q = Phased::new(None, |_, _: &mut Vec<Op>| false);
        assert_eq!(q.instr_footprint(N), None);
    }

    #[test]
    fn buffer_stops_growing_after_the_largest_phase() {
        // Phase sizes rise to a peak of 64 ops, then fall.
        let sizes = [3usize, 64, 10, 40, 64, 1];
        let mut p = Phased::new(None, move |phase, ops: &mut Vec<Op>| {
            let Some(&len) = sizes.get(phase) else {
                return false;
            };
            ops.extend((0..len).map(|i| Op::Compute(i as u64)));
            true
        });
        let mut emitted = 0;
        let mut cap_after_peak = None;
        while p.next(N, None) != Op::Finish {
            emitted += 1;
            if p.phase == 2 {
                cap_after_peak.get_or_insert(p.buf.capacity());
            }
            if let Some(cap) = cap_after_peak {
                assert_eq!(p.buf.capacity(), cap, "grew after the largest phase");
            }
        }
        assert_eq!(emitted, sizes.iter().sum::<usize>());
        assert!(cap_after_peak.is_some_and(|c| c >= 64));
    }
}
