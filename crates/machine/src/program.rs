//! The program abstraction: how applications drive the simulated
//! machine.
//!
//! NWO executes real Sparcle binaries; this simulator executes
//! *programs* — per-node state machines that emit typed operations.
//! The coherence protocols only ever observe the resulting memory
//! reference stream (addresses, read/write mix, synchronization), so a
//! program that reproduces an application's sharing structure
//! reproduces its protocol behaviour. See DESIGN.md for the
//! substitution argument.

use limitless_cache::InstrFootprint;
use limitless_sim::{Addr, NodeId};

/// One operation issued by a node's program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Load a shared-memory word; its value arrives in the next
    /// [`Program::next`] call.
    Read(Addr),
    /// Store a value to shared memory.
    Write(Addr, u64),
    /// Atomic read-modify-write (Alewife's fetch-op style primitives);
    /// behaves like a write for the coherence protocol and returns the
    /// *old* value.
    Rmw(Addr, Rmw),
    /// Execute for the given number of cycles without touching shared
    /// memory (instruction fetches still stream through the cache).
    Compute(u64),
    /// Join the all-node barrier; resume when every node arrives.
    Barrier,
    /// Acquire a FIFO lock (the §7 lock data type built on the
    /// protocol extension software): resume once the lock is held.
    /// Requests are granted strictly in arrival order.
    LockAcquire(u32),
    /// Release a FIFO lock, handing it to the oldest waiter (if any).
    ///
    /// Releasing a lock this node does not hold is a program bug and
    /// panics the simulation.
    LockRelease(u32),
    /// This node is done. Must not be followed by further operations,
    /// and no other node may be waiting at a barrier this node would
    /// have joined.
    Finish,
}

/// Atomic update applied by [`Op::Rmw`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rmw {
    /// `mem += x`.
    Add(u64),
    /// `mem = x`.
    Exchange(u64),
    /// `mem = min(mem, x)` (branch-and-bound best updates).
    Min(u64),
    /// `mem = max(mem, x)`.
    Max(u64),
}

impl Rmw {
    /// Applies the update to `old`, returning the new value.
    pub fn apply(self, old: u64) -> u64 {
        match self {
            Rmw::Add(x) => old.wrapping_add(x),
            Rmw::Exchange(x) => x,
            Rmw::Min(x) => old.min(x),
            Rmw::Max(x) => old.max(x),
        }
    }
}

/// A per-node program: a deterministic state machine emitting
/// operations.
///
/// The machine calls [`Program::next`] with the result of the previous
/// operation (`Some(value)` after a `Read` or `Rmw`, `None`
/// otherwise). Implementations keep their own program counter.
pub trait Program: Send {
    /// Produces the next operation. `last_value` carries the value
    /// returned by the previous `Read`/`Rmw`, if any.
    fn next(&mut self, node: NodeId, last_value: Option<u64>) -> Op;

    /// The instruction working set this program streams through the
    /// combined cache (None = negligible code footprint).
    fn instr_footprint(&self, _node: NodeId) -> Option<InstrFootprint> {
        None
    }
}

/// A program defined by a closure (handy for tests).
pub struct FnProgram<F>(pub F);

impl<F> Program for FnProgram<F>
where
    F: FnMut(NodeId, Option<u64>) -> Op + Send,
{
    fn next(&mut self, node: NodeId, last_value: Option<u64>) -> Op {
        (self.0)(node, last_value)
    }
}

impl<F> std::fmt::Debug for FnProgram<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FnProgram")
    }
}

/// A program assembled from a fixed list of operations (ends with an
/// implicit `Finish`).
#[derive(Clone, Debug)]
pub struct ScriptProgram {
    ops: Vec<Op>,
    pc: usize,
}

impl ScriptProgram {
    /// Creates a program that runs `ops` then finishes.
    pub fn new(ops: Vec<Op>) -> Self {
        ScriptProgram { ops, pc: 0 }
    }
}

impl Program for ScriptProgram {
    fn next(&mut self, _node: NodeId, _last_value: Option<u64>) -> Op {
        let op = self.ops.get(self.pc).copied().unwrap_or(Op::Finish);
        self.pc += 1;
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmw_semantics() {
        assert_eq!(Rmw::Add(5).apply(10), 15);
        assert_eq!(Rmw::Exchange(5).apply(10), 5);
        assert_eq!(Rmw::Min(5).apply(10), 5);
        assert_eq!(Rmw::Min(50).apply(10), 10);
        assert_eq!(Rmw::Max(50).apply(10), 50);
        assert_eq!(Rmw::Add(1).apply(u64::MAX), 0); // wrapping
    }

    #[test]
    fn script_program_plays_ops_then_finishes() {
        let mut p = ScriptProgram::new(vec![Op::Compute(5), Op::Read(Addr(16))]);
        assert_eq!(p.next(NodeId(0), None), Op::Compute(5));
        assert_eq!(p.next(NodeId(0), None), Op::Read(Addr(16)));
        assert_eq!(p.next(NodeId(0), Some(42)), Op::Finish);
        assert_eq!(p.next(NodeId(0), None), Op::Finish);
    }

    #[test]
    fn fn_program_wraps_closures() {
        let mut calls = 0;
        {
            let mut p = FnProgram(|_, _| {
                calls += 1;
                Op::Finish
            });
            assert_eq!(p.next(NodeId(1), None), Op::Finish);
        }
        assert_eq!(calls, 1);
    }
}
