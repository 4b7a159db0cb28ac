//! Directory structures for software-extended coherence.
//!
//! Every memory block has a *home node* that stores the block's DRAM
//! copy and its **directory entry**. This crate provides the two
//! halves of a software-extended directory:
//!
//! * [`HwDirEntry`] — the hardware part: between zero and a handful of
//!   explicit node pointers, a one-bit pointer for the home node's own
//!   cached copy, the meta-state that says whether the entry has
//!   overflowed into software, and the acknowledgment counter that
//!   reuses pointer storage during write transactions (paper §2, §3.1).
//! * [`SwDirectory`] — the software part: an open-addressed table
//!   keyed by dense `u32` block ids (identity hash, probe length 1,
//!   growth without rehash) holding the extension records the protocol
//!   extension software manipulates through the flexible coherence
//!   interface (paper §4.1).
//!
//! Both halves store their sharer sets in one format, [`PresenceRows`]:
//! rows of `ceil(nodes / 64)` `u64` presence words at every machine
//! size (DESIGN.md §12). Production storage for the hardware half is
//! the struct-of-arrays [`HwDirTable`], whose [`HwEntryMut`]/
//! [`HwEntryRef`] row views expose the `HwDirEntry` method set over
//! packed columns, with the protocol's pointer count as a bound on the
//! row's set size. The same row carries the protocol engine's
//! per-block transaction bookkeeping, so it is the only store of
//! per-block directory state. [`SwDirectory`] gives every block id one unbounded
//! row. `HwDirEntry` and [`SwDirModel`] remain the fat reference models
//! both halves are differentially tested against.
//!
//! # Examples
//!
//! ```
//! use limitless_dir::{HwDirEntry, PtrStoreOutcome};
//! use limitless_sim::NodeId;
//!
//! let mut e = HwDirEntry::new(2); // two hardware pointers
//! assert_eq!(e.record_reader(NodeId(4)), PtrStoreOutcome::Stored);
//! assert_eq!(e.record_reader(NodeId(9)), PtrStoreOutcome::Stored);
//! assert_eq!(e.record_reader(NodeId(12)), PtrStoreOutcome::Overflow);
//! ```

pub mod hw;
pub mod hw_table;
pub mod presence;
pub mod sw;

pub use hw::{HwDirEntry, HwState, PtrStoreOutcome};
pub use hw_table::{HwDirTable, HwEntryMut, HwEntryRef};
pub use presence::{PresenceRows, PtrIter};
pub use sw::{SwDirEntry, SwDirModel, SwDirStats, SwDirectory};
