//! The full Alewife-style machine model.
//!
//! A [`Machine`] assembles `n` nodes — each a processor, a combined
//! direct-mapped cache (with optional victim cache), a CMMU protocol
//! engine and a slice of globally shared memory — on a 2-D mesh, and
//! executes one [`Program`] per node under a deterministic event loop.
//!
//! The pieces the paper's methodology depends on are all here:
//!
//! * **trap model** — protocol extension software occupies the home
//!   node's processor, stealing cycles from user code (the essential
//!   cost of software-extended coherence);
//! * **livelock watchdog** (§4.1) — a timer that detects handler
//!   storms and temporarily shuts off asynchronous events so user code
//!   makes progress (armed for the `S_{NB,ACK}` protocols);
//! * **BUSY/retry** — transient directory states bounce requests
//!   rather than queueing them, Alewife's livelock-free design;
//! * **coherence sanitizer** — an opt-in, zero-cost-when-off checking
//!   stack (see [`limitless_core::CheckLevel`]): per-event directory
//!   invariants, a shadow registry asserting the single-writer
//!   invariant on every fill, an inv/ack balance ledger, a
//!   bounded-retry watchdog and a full quiesce audit (enable with
//!   `check_level`);
//! * **instruction-fetch model** — code streams through the combined
//!   cache and can thrash against data (Figure 3).
//!
//! # Examples
//!
//! ```
//! use limitless_machine::{Machine, MachineConfig, Op, Program, ScriptProgram};
//! use limitless_core::ProtocolSpec;
//! use limitless_sim::Addr;
//!
//! let cfg = MachineConfig::builder()
//!     .nodes(4)
//!     .protocol(ProtocolSpec::limitless(1))
//!     .check_coherence(true)
//!     .build();
//! let mut m = Machine::new(cfg);
//! let programs = (0..4)
//!     .map(|_| {
//!         Box::new(ScriptProgram::new(vec![
//!             Op::Read(Addr(0x1000)),
//!             Op::Barrier,
//!         ])) as Box<dyn Program>
//!     })
//!     .collect();
//! m.load(programs);
//! let report = m.run();
//! assert!(report.cycles.as_u64() > 0);
//! ```

pub mod config;
mod dense;
pub mod lane_sync;
pub mod machine;
pub mod program;
pub mod registry;
mod run_loop;
mod shard;
pub mod stats;
mod sync;
mod trap_path;

pub use config::{ConfigError, MachineConfig, MachineConfigBuilder, ProcTiming, WatchdogConfig};
pub use limitless_core::CheckLevel;
pub use machine::Machine;
pub use program::{FnProgram, Op, Program, Rmw, ScriptProgram};
pub use registry::CoherenceRegistry;
pub use stats::{BillAggregator, MachineStats, RunReport};

#[cfg(test)]
mod tests;
