//! Shared-address-space layout helpers.

use limitless_sim::Addr;

/// Bytes per cache line / memory block (the Alewife 16-byte block).
pub const LINE: u64 = 16;

/// A bump allocator over the shared data address space, handing out
/// block-aligned regions. Data stays far below the instruction region
/// (`limitless_cache::ifetch::INSTR_BLOCK_BASE`).
///
/// # Examples
///
/// ```
/// use limitless_apps::layout::{AddressSpace, LINE};
///
/// let mut space = AddressSpace::new(0x10_000);
/// let a = space.region(3); // three blocks
/// let b = space.region(1);
/// assert_eq!(b.0, a.0 + 3 * LINE);
/// ```
#[derive(Clone, Debug)]
pub struct AddressSpace {
    next: u64,
}

impl AddressSpace {
    /// Starts allocating at `base` (block-aligned).
    pub fn new(base: u64) -> Self {
        assert_eq!(base % LINE, 0, "base must be block-aligned");
        AddressSpace { next: base }
    }

    /// Allocates `blocks` consecutive blocks, returning the base
    /// address.
    pub fn region(&mut self, blocks: u64) -> Addr {
        let a = Addr(self.next);
        self.next += blocks * LINE;
        a
    }

    /// Allocates one block and returns its base address.
    pub fn block(&mut self) -> Addr {
        self.region(1)
    }

    /// Skips forward so the next allocated block maps to cache set
    /// `set` in a direct-mapped cache of `sets` sets. Lets a workload
    /// place hot data on chosen sets (TSP's thrash layout).
    pub fn align_to_set(&mut self, set: u64, sets: u64) {
        let cur_set = (self.next / LINE) % sets;
        let skip = (set + sets - cur_set) % sets;
        self.next += skip * LINE;
    }

    /// The next unallocated address.
    pub fn watermark(&self) -> Addr {
        Addr(self.next)
    }
}

/// The address of element `i` in an array of `u64` starting at `base`
/// (8 bytes per element, two per block).
pub fn word(base: Addr, i: u64) -> Addr {
    Addr(base.0 + i * 8)
}

/// The address of element `i` in a block-strided array (one element
/// per block — used when elements must not share cache lines, e.g.
/// per-node slots).
pub fn slot(base: Addr, i: u64) -> Addr {
    Addr(base.0 + i * LINE)
}

/// Splits `total` items into `parts` contiguous chunks as evenly as
/// possible, returning the `(start, end)` of chunk `part`.
pub fn chunk(total: usize, parts: usize, part: usize) -> (usize, usize) {
    let base = total / parts;
    let extra = total % parts;
    let start = part * base + part.min(extra);
    let len = base + usize::from(part < extra);
    (start, start + len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap() {
        let mut s = AddressSpace::new(0x1000);
        let a = s.region(2);
        let b = s.region(5);
        assert_eq!(a, Addr(0x1000));
        assert_eq!(b, Addr(0x1000 + 2 * LINE));
        assert_eq!(s.watermark(), Addr(0x1000 + 7 * LINE));
    }

    #[test]
    #[should_panic(expected = "block-aligned")]
    fn unaligned_base_panics() {
        AddressSpace::new(0x1001);
    }

    #[test]
    fn word_and_slot_addressing() {
        let base = Addr(0x1000);
        assert_eq!(word(base, 0), Addr(0x1000));
        assert_eq!(word(base, 3), Addr(0x1018));
        assert_eq!(slot(base, 3), Addr(0x1030));
    }

    #[test]
    fn chunk_covers_everything_exactly_once() {
        for total in [0usize, 1, 7, 64, 100] {
            for parts in [1usize, 3, 8, 64] {
                let mut covered = 0;
                let mut last_end = 0;
                for p in 0..parts {
                    let (s, e) = chunk(total, parts, p);
                    assert_eq!(s, last_end);
                    covered += e - s;
                    last_end = e;
                }
                assert_eq!(covered, total);
                assert_eq!(last_end, total);
            }
        }
    }

    #[test]
    fn chunk_is_balanced() {
        let sizes: Vec<usize> = (0..8)
            .map(|p| {
                let (s, e) = chunk(100, 8, p);
                e - s
            })
            .collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(max - min <= 1);
    }
}
