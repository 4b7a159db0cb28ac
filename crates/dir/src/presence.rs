//! The one pointer-set format every directory uses: rows of presence
//! words.
//!
//! A row is `words = ceil(nodes / 64)` contiguous `u64`s (at least
//! one); bit `b` of word `w` records node `w * 64 + b`. Row `r` owns
//! `bits[r * words..][..words]` directly — there is no per-row
//! allocation, indirection, free list or count column. Membership,
//! insert and remove are one bit operation after a word index;
//! counting, draining and OR-ing walk 64 presence bits per step and
//! skip empty words (the baseline target has no `popcnt`
//! instruction, so a zero test is much cheaper than a popcount).
//!
//! Both halves of a LimitLESS directory store their sharer set here:
//! [`HwDirTable`](crate::HwDirTable) bounds a row by the protocol's
//! pointer count `i` (a count limit, not a layout), and
//! [`SwDirectory`](crate::SwDirectory) keeps one unbounded row per
//! block id. Because both sides share the word layout, moving the
//! hardware pointers into software on overflow is an OR of one row
//! into the other ([`PresenceRows::or_in`]).
//!
//! Iteration and draining are in ascending node order. Every consumer
//! either sorts the set or ignores its order, so the order never
//! reaches a simulation output.

use limitless_sim::NodeId;

/// Population count of presence words, skipping empty ones.
#[inline]
pub(crate) fn popcount(words: &[u64]) -> usize {
    words
        .iter()
        .filter(|&&w| w != 0)
        .map(|w| w.count_ones() as usize)
        .sum()
}

/// Rows of fixed-width presence-word sets over node ids.
///
/// # Examples
///
/// ```
/// use limitless_dir::PresenceRows;
/// use limitless_sim::NodeId;
///
/// let mut p = PresenceRows::new(1024); // 16 words per row
/// p.push_row();
/// assert!(p.insert(0, NodeId(700)));
/// assert!(!p.insert(0, NodeId(700)));
/// assert!(p.insert(0, NodeId(3)));
/// assert_eq!(p.count(0), 2);
/// assert_eq!(p.iter(0).collect::<Vec<_>>(), vec![NodeId(3), NodeId(700)]);
/// ```
#[derive(Clone, Debug)]
pub struct PresenceRows {
    /// Presence words per row.
    words: usize,
    /// Row `r` owns `bits[r * words..][..words]`.
    bits: Vec<u64>,
}

impl PresenceRows {
    /// Creates an empty set of rows for a `nodes`-node machine.
    pub fn new(nodes: usize) -> Self {
        PresenceRows {
            words: nodes.div_ceil(64).max(1),
            bits: Vec::new(),
        }
    }

    /// Whether row `r` exists.
    #[inline]
    pub fn has_row(&self, r: usize) -> bool {
        r * self.words < self.bits.len()
    }

    /// Appends an empty row.
    pub fn push_row(&mut self) {
        self.bits.resize(self.bits.len() + self.words, 0);
    }

    /// Appends empty rows until there are at least `rows`. Existing
    /// rows never move.
    #[inline]
    pub fn grow_to(&mut self, rows: usize) {
        let len = rows * self.words;
        if self.bits.len() < len {
            self.bits.resize(len, 0);
        }
    }

    /// Removes every row, keeping the storage capacity.
    pub fn clear(&mut self) {
        self.bits.clear();
    }

    /// The presence words of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[u64] {
        &self.bits[r * self.words..][..self.words]
    }

    #[inline]
    fn row_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.bits[r * self.words..][..self.words]
    }

    /// Word index and bit of `node`, or `None` past the row's words.
    #[inline]
    fn locate(&self, node: NodeId) -> Option<(usize, u64)> {
        let w = usize::from(node.0 >> 6);
        (w < self.words).then_some((w, 1u64 << (node.0 & 63)))
    }

    /// Whether row `r` records no node.
    #[inline]
    pub fn is_empty(&self, r: usize) -> bool {
        self.row(r).iter().all(|&w| w == 0)
    }

    /// Set size of row `r`.
    #[inline]
    pub fn count(&self, r: usize) -> usize {
        popcount(self.row(r))
    }

    /// Whether row `r` records `node`.
    #[inline]
    pub fn contains(&self, r: usize, node: NodeId) -> bool {
        self.locate(node)
            .is_some_and(|(w, bit)| self.bits[r * self.words + w] & bit != 0)
    }

    /// Adds `node` to row `r`; returns whether it was new.
    ///
    /// # Panics
    ///
    /// Debug-panics if `node` lies past the machine's presence words.
    #[inline]
    pub fn insert(&mut self, r: usize, node: NodeId) -> bool {
        let Some((w, bit)) = self.locate(node) else {
            debug_assert!(false, "node {node} outside the presence words");
            return false;
        };
        let word = &mut self.bits[r * self.words + w];
        let new = *word & bit == 0;
        *word |= bit;
        new
    }

    /// Removes `node` from row `r`; returns whether it was present.
    #[inline]
    pub fn remove(&mut self, r: usize, node: NodeId) -> bool {
        let Some((w, bit)) = self.locate(node) else {
            return false;
        };
        let word = &mut self.bits[r * self.words + w];
        let present = *word & bit != 0;
        *word &= !bit;
        present
    }

    /// ORs presence words `src` (no wider than a row) into row `r`;
    /// returns how many nodes were new.
    pub fn or_in(&mut self, r: usize, src: &[u64]) -> usize {
        debug_assert!(src.len() <= self.words, "presence words wider than the row");
        let mut new = 0usize;
        for (dst, &s) in self.row_mut(r).iter_mut().zip(src) {
            if s != 0 {
                new += (s & !*dst).count_ones() as usize;
                *dst |= s;
            }
        }
        new
    }

    /// Empties row `r` without reading it out; returns its former size.
    #[inline]
    pub fn clear_row(&mut self, r: usize) -> usize {
        let row = self.row_mut(r);
        let n = popcount(row);
        row.fill(0);
        n
    }

    /// Empties row `r`, appending its nodes to `out` in ascending
    /// order; returns how many were appended.
    pub fn drain_into(&mut self, r: usize, out: &mut Vec<NodeId>) -> usize {
        let start = out.len();
        for (wi, w) in self.row_mut(r).iter_mut().enumerate() {
            let mut m = std::mem::take(w);
            while m != 0 {
                out.push(NodeId((wi as u32 * 64 + m.trailing_zeros()) as u16));
                m &= m - 1;
            }
        }
        out.len() - start
    }

    /// Iterates row `r` in ascending node order.
    #[inline]
    pub fn iter(&self, r: usize) -> PtrIter<'_> {
        let (&cur, rest) = self.row(r).split_first().expect("rows are never empty");
        PtrIter {
            rest: rest.iter(),
            cur,
            base: 0,
        }
    }
}

/// Iterator over one presence-word row, in ascending node order: the
/// current word's remaining bits plus the words not yet reached.
#[derive(Clone, Debug)]
pub struct PtrIter<'a> {
    /// Presence words after the current one.
    rest: std::slice::Iter<'a, u64>,
    /// Bits remaining in the current word.
    cur: u64,
    /// Node id of the current word's bit 0.
    base: u32,
}

impl Iterator for PtrIter<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        while self.cur == 0 {
            self.cur = *self.rest.next()?;
            self.base += 64;
        }
        let bit = self.cur.trailing_zeros();
        self.cur &= self.cur - 1;
        Some(NodeId((self.base + bit) as u16))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Machine sizes on both sides of every word seam the simulator
    /// runs at: one word (16, 64), a barely-used second word (65), and
    /// the 255..=257 and 1023/1024 boundaries.
    const NODE_COUNTS: [usize; 8] = [16, 64, 65, 255, 256, 257, 1023, 1024];

    #[test]
    fn word_count_tracks_machine_size() {
        for (nodes, want) in [
            (0, 1),
            (16, 1),
            (64, 1),
            (65, 2),
            (255, 4),
            (256, 4),
            (257, 5),
            (1023, 16),
            (1024, 16),
        ] {
            let mut p = PresenceRows::new(nodes);
            p.push_row();
            assert_eq!(p.row(0).len(), want, "{nodes}");
        }
    }

    #[test]
    fn set_operations_at_every_width() {
        for nodes in NODE_COUNTS {
            let mut p = PresenceRows::new(nodes);
            p.push_row();
            let last = NodeId((nodes - 1) as u16);
            let ids = [NodeId(0), NodeId(5), NodeId((nodes / 2) as u16), last];
            for n in ids {
                p.insert(0, n);
            }
            let mut want: Vec<NodeId> = ids.to_vec();
            want.dedup();
            assert_eq!(p.count(0), want.len(), "{nodes}");
            assert_eq!(p.iter(0).collect::<Vec<_>>(), want, "{nodes}");
            assert!(p.contains(0, last), "{nodes}");
            assert!(!p.contains(0, NodeId(1)), "{nodes}");
            // The NodeId::NONE sentinel never reads as present.
            assert!(!p.contains(0, NodeId::NONE), "{nodes}");
            assert!(!p.remove(0, NodeId::NONE), "{nodes}");
            assert!(p.remove(0, last), "{nodes}");
            assert!(!p.remove(0, last), "{nodes}");
            assert_eq!(p.count(0), want.len() - 1, "{nodes}");
            let mut out = vec![NodeId(9999)];
            assert_eq!(p.drain_into(0, &mut out), want.len() - 1, "{nodes}");
            assert_eq!(out[1..], want[..want.len() - 1], "{nodes}");
            assert_eq!(p.count(0), 0, "{nodes}");
            assert_eq!(p.iter(0).next(), None, "{nodes}");
        }
    }

    #[test]
    fn or_in_counts_only_new_nodes_and_rows_stay_independent() {
        for nodes in NODE_COUNTS {
            let mut p = PresenceRows::new(nodes);
            p.grow_to(3);
            assert!(p.has_row(2) && !p.has_row(3));
            p.insert(1, NodeId(2));
            let mut src = PresenceRows::new(nodes);
            src.push_row();
            for n in [2u16, 3, (nodes - 1) as u16] {
                src.insert(0, NodeId(n));
            }
            assert_eq!(p.or_in(1, src.row(0)), src.count(0) - 1, "{nodes}");
            assert_eq!(p.count(1), src.count(0), "{nodes}");
            assert_eq!(p.count(0) + p.count(2), 0, "{nodes}");
            assert_eq!(p.clear_row(1), src.count(0), "{nodes}");
            // Growth never moves a row.
            p.insert(2, NodeId(1));
            p.grow_to(100);
            assert_eq!(p.iter(2).collect::<Vec<_>>(), vec![NodeId(1)], "{nodes}");
            p.clear();
            assert!(!p.has_row(0));
        }
    }
}
