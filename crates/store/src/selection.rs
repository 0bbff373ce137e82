//! Selection vectors: the currency of the batch execution pipeline.
//!
//! A [`SelectionVector`] holds the row indexes of one block that survive a
//! filter, in **strictly ascending** order. Columnar filter kernels
//! ([`BoundPredicate::refine_scratch`](crate::predicate::BoundPredicate::refine_scratch))
//! narrow a selection in place, and the boolean combinators compose as set
//! operations on sorted index lists: `And` intersects by refining the
//! selection through each conjunct in turn ([`SelectionVector::retain`]),
//! `Or` is a sorted-merge union ([`SelectionVector::union_with`]), `Not`
//! is a sorted difference against the candidate set
//! ([`SelectionVector::subtract`]). Keeping rows sorted is what makes
//! downstream aggregation *order-preserving*: feeding each aggregate view
//! the selected values in ascending row order reproduces the scalar
//! row-at-a-time pipeline bit for bit.
//!
//! Row indexes are `u32` (a block — indeed a whole backing table — of more
//! than `u32::MAX` rows is far beyond the engine's block-addressed design;
//! [`SelectionVector::all`] debug-asserts the bound).

use std::ops::Range;

/// A sorted list of selected row indexes within one block's row range.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SelectionVector {
    rows: Vec<u32>,
}

impl SelectionVector {
    /// An empty selection.
    pub fn empty() -> Self {
        Self::default()
    }

    /// The full selection over a block's row range (every row selected).
    pub fn all(rows: Range<usize>) -> Self {
        debug_assert!(
            rows.end <= u32::MAX as usize,
            "row index overflows the u32 selection representation"
        );
        Self {
            rows: (rows.start as u32..rows.end as u32).collect(),
        }
    }

    /// A selection from pre-sorted row indexes (ascending, no duplicates).
    pub fn from_sorted_rows(rows: Vec<u32>) -> Self {
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows must ascend");
        Self { rows }
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows are selected.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The selected row indexes, ascending.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Removes every selected row. Capacity is retained, so a selection
    /// reused across blocks stops allocating after the first.
    pub fn clear(&mut self) {
        self.rows.clear();
    }

    /// Appends a row index, which must exceed every index already present —
    /// the append path of a seed kernel filling a reused selection.
    #[inline]
    pub fn push(&mut self, row: u32) {
        debug_assert!(self.rows.last().map_or(true, |&last| last < row));
        self.rows.push(row);
    }

    /// Fills the selection (discarding its contents) with `base + i` for
    /// every `i` in `0..len` accepted by `keep`, reusing the allocation.
    ///
    /// The append is **branch-free** — every candidate index is written and
    /// the length advances only on a match — so the hot seed loop of a
    /// filter kernel carries no data-dependent branch to mispredict.
    #[inline]
    pub fn fill_where(&mut self, base: u32, len: usize, keep: impl Fn(usize) -> bool) {
        self.rows.clear();
        self.rows.resize(len, 0);
        let mut out = 0usize;
        for i in 0..len {
            self.rows[out] = base + i as u32;
            out += keep(i) as usize;
        }
        self.rows.truncate(out);
    }

    /// Resets this selection to the full row range, reusing its allocation.
    pub fn reset_to_all(&mut self, rows: Range<usize>) {
        debug_assert!(
            rows.end <= u32::MAX as usize,
            "row index overflows the u32 selection representation"
        );
        self.rows.clear();
        self.rows.extend(rows.start as u32..rows.end as u32);
    }

    /// Keeps only the rows for which `keep` returns true, preserving order.
    /// This is the refinement step of a conjunctive filter kernel.
    #[inline]
    pub fn retain(&mut self, mut keep: impl FnMut(u32) -> bool) {
        self.rows.retain(|&r| keep(r));
    }

    /// Adds every row of `other` to this selection (sorted-set union).
    /// This is how `Or` composes its children's selections.
    ///
    /// Merges **in place** from the back: the buffer grows to worst-case
    /// size once and is reused thereafter, so repeated unions (an Or root
    /// evaluated per block) stop allocating after the first few blocks.
    pub fn union_with(&mut self, other: &SelectionVector) {
        if other.rows.is_empty() {
            return;
        }
        if self.rows.is_empty() {
            self.rows.extend_from_slice(&other.rows);
            return;
        }
        let old_len = self.rows.len();
        let total = old_len + other.rows.len();
        self.rows.resize(total, 0);
        // Backward merge with dedup. Invariant: the write cursor `k` never
        // catches the unread prefix (`k >= i + j` holds throughout, and
        // dedup only widens the gap), so no unread element is overwritten.
        let (mut i, mut j, mut k) = (old_len, other.rows.len(), total);
        while i > 0 && j > 0 {
            let (a, b) = (self.rows[i - 1], other.rows[j - 1]);
            k -= 1;
            self.rows[k] = if a == b {
                i -= 1;
                j -= 1;
                a
            } else if a > b {
                i -= 1;
                a
            } else {
                j -= 1;
                b
            };
        }
        while j > 0 {
            k -= 1;
            j -= 1;
            self.rows[k] = other.rows[j];
        }
        // `[0..i)` is already in place; close the dedup gap before it and
        // the merged tail at `[k..total)`.
        if i < k {
            self.rows.copy_within(k..total, i);
        }
        self.rows.truncate(i + total - k);
    }

    /// Removes every row of `other` from this selection (sorted-set
    /// difference). This is how `Not` composes: the candidate set minus the
    /// rows the child matched.
    pub fn subtract(&mut self, other: &SelectionVector) {
        if other.rows.is_empty() || self.rows.is_empty() {
            return;
        }
        let mut o = other.rows.iter().copied().peekable();
        self.rows.retain(|&r| {
            while o.peek().is_some_and(|&x| x < r) {
                o.next();
            }
            o.peek() != Some(&r)
        });
    }
}

/// A free-list of spare [`SelectionVector`]s for the temporaries a filter
/// kernel's `Or`/`Not` arms need. Owned by the scan loop and reused across
/// every block of a partition, so nested boolean predicates stop
/// allocating once the pool is warm — the same design as the reused root
/// selection itself.
#[derive(Debug, Default)]
pub struct SelectionScratch {
    pool: Vec<SelectionVector>,
}

impl SelectionScratch {
    /// An empty pool (no allocation until a selection is returned to it).
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a cleared selection from the pool, or a fresh one.
    pub fn take(&mut self) -> SelectionVector {
        let mut sel = self.pool.pop().unwrap_or_default();
        sel.clear();
        sel
    }

    /// Returns a selection's buffer to the pool for reuse.
    pub fn put(&mut self, sel: SelectionVector) {
        self.pool.push(sel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(rows: &[u32]) -> SelectionVector {
        SelectionVector::from_sorted_rows(rows.to_vec())
    }

    #[test]
    fn all_covers_the_range() {
        let s = SelectionVector::all(3..7);
        assert_eq!(s.rows(), &[3, 4, 5, 6]);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert!(SelectionVector::all(5..5).is_empty());
        assert!(SelectionVector::empty().is_empty());
    }

    #[test]
    fn retain_preserves_order() {
        let mut s = SelectionVector::all(0..10);
        s.retain(|r| r % 3 == 0);
        assert_eq!(s.rows(), &[0, 3, 6, 9]);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn union_merges_sorted_and_dedups() {
        let mut a = sel(&[1, 4, 6]);
        a.union_with(&sel(&[2, 4, 9]));
        assert_eq!(a.rows(), &[1, 2, 4, 6, 9]);

        let mut a = SelectionVector::empty();
        a.union_with(&sel(&[3, 5]));
        assert_eq!(a.rows(), &[3, 5]);
        a.union_with(&SelectionVector::empty());
        assert_eq!(a.rows(), &[3, 5]);
    }

    #[test]
    fn union_in_place_handles_dedup_gaps_and_interleavings() {
        // Heavy overlap: the dedup gap between the untouched prefix and the
        // merged tail must be closed correctly.
        let mut a = sel(&[1, 2, 3, 4, 5]);
        a.union_with(&sel(&[2, 3, 4, 5, 6]));
        assert_eq!(a.rows(), &[1, 2, 3, 4, 5, 6]);

        // Other entirely before / entirely after self.
        let mut a = sel(&[10, 11]);
        a.union_with(&sel(&[1, 2]));
        assert_eq!(a.rows(), &[1, 2, 10, 11]);
        let mut a = sel(&[1, 2]);
        a.union_with(&sel(&[10, 11]));
        assert_eq!(a.rows(), &[1, 2, 10, 11]);

        // Identical sets collapse to one copy.
        let mut a = sel(&[3, 7, 9]);
        a.union_with(&sel(&[3, 7, 9]));
        assert_eq!(a.rows(), &[3, 7, 9]);

        // Exhaustive cross-check against a naive merge for many shapes.
        for mask_a in 0u32..64 {
            for mask_b in 0u32..64 {
                let rows_of =
                    |mask: u32| -> Vec<u32> { (0..6).filter(|b| mask & (1 << b) != 0).collect() };
                let mut s = sel(&rows_of(mask_a));
                s.union_with(&sel(&rows_of(mask_b)));
                let expected: Vec<u32> = (0..6)
                    .filter(|b| (mask_a | mask_b) & (1 << b) != 0)
                    .collect();
                assert_eq!(s.rows(), expected, "a={mask_a:#b} b={mask_b:#b}");
            }
        }
    }

    #[test]
    fn subtraction() {
        let mut a = sel(&[1, 2, 3, 4, 5]);
        a.subtract(&sel(&[2, 4, 6]));
        assert_eq!(a.rows(), &[1, 3, 5]);
        a.subtract(&SelectionVector::empty());
        assert_eq!(a.rows(), &[1, 3, 5]);
        a.subtract(&sel(&[1, 3, 5]));
        assert!(a.is_empty());
    }
}
