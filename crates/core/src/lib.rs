//! The LimitLESS protocol spectrum — the primary contribution of
//! *Chaiken & Agarwal, "Software-Extended Coherent Shared Memory:
//! Performance and Cost" (ISCA 1994)*.
//!
//! A software-extended directory protocol implements a small number of
//! sharer pointers per memory block in hardware and traps to *protocol
//! extension software* on the home node when they are exhausted. This
//! crate provides:
//!
//! * [`ProtocolSpec`] — the `Dir_i H_X S_{Y,A}` notation covering the
//!   whole spectrum, from the software-only directory
//!   (`Dir_nH_0S_{NB,ACK}`) through the LimitLESS family
//!   (`Dir_nH_XS_{NB}`), the three one-pointer acknowledgment variants,
//!   the broadcast protocol (`Dir_1H_1S_{B,LACK}`), up to full-map
//!   (`Dir_nH_{NB}S_-`);
//! * [`DirEngine`] — the home-side coherence state machine: hardware
//!   transitions, trap boundary, acknowledgment counting modes,
//!   transient-state BUSY handling;
//! * the **flexible coherence interface** ([`iface`]) — the services a
//!   software handler composes protocols from, each billed at the
//!   cycle costs measured in the paper's Table 2;
//! * [`cost`] — the C and assembly handler cost models themselves.
//!
//! # Examples
//!
//! ```
//! use limitless_core::{DirEngine, DirEvent, ProtocolSpec};
//! use limitless_core::cost::HandlerImpl;
//! use limitless_sim::{BlockAddr, NodeId};
//!
//! // Alewife's default boot protocol: five hardware pointers.
//! let spec = ProtocolSpec::limitless(5);
//! let mut home = DirEngine::new(NodeId(0), 64, spec, HandlerImpl::FlexibleC);
//!
//! // Five readers fit in hardware; the sixth overflows into software.
//! for n in 1..=5 {
//!     let out = home.handle(BlockAddr(7), DirEvent::Read { from: NodeId(n) });
//!     assert!(out.trap.is_none());
//! }
//! let out = home.handle(BlockAddr(7), DirEvent::Read { from: NodeId(6) });
//! assert!(out.trap.is_some()); // the LimitLESS trap
//! ```

pub mod check;
pub mod cost;
pub mod engine;
pub mod enhancements;
pub mod iface;
pub mod msg;
pub mod spec;

pub use check::{CheckLevel, EventHistory, HistoryRecord};
pub use cost::{CostModel, HandlerImpl, HandlerKind, TrapBill};
pub use engine::{DirEngine, DirEvent, EngineStats, HwTiming, Outcome, Send, SendTiming};
pub use enhancements::{AdaptiveBroadcastHandler, MigratoryHandler, ProfilingHandler};
pub use iface::{BroadcastHandler, ExtensionHandler, HandlerCtx, LimitlessHandler};
pub use msg::{BlockMsg, ProtoMsg};
pub use spec::{AckMode, ProtocolSpec, SwMode};
