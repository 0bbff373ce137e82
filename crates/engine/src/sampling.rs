//! Sampling strategies: which blocks of the scramble to fetch (§4.3).
//!
//! All three strategies consume blocks in scramble order (starting from a
//! random position), which preserves the without-replacement sampling
//! semantics of the scramble; they differ in which blocks they *skip*:
//!
//! * [`SamplingStrategy::Scan`] skips only blocks that cannot satisfy a fixed
//!   categorical equality predicate (when one exists and is indexed);
//! * [`SamplingStrategy::ActiveSync`] additionally skips blocks containing no
//!   rows of any *active* group, deciding each batch against the active set
//!   current when the batch is planned;
//! * [`SamplingStrategy::ActivePeek`] makes the same probes, but decides each
//!   batch (1024 blocks) against the active set of one batch earlier, as the
//!   paper's lookahead does (§4.3). It is defined by those one-batch-stale
//!   decisions: a group that became inactive in the meantime only causes
//!   extra fetches, never missed ones.
//!
//! [`BlockPlanner`] makes every decision, inline on the coordinating thread,
//! for every strategy and for the Exact pass (a planner with nothing to
//! probe).
//!
//! Independently of the strategy, two predicate-level pruning mechanisms
//! apply to every block: the categorical equality bitmap (as before) and
//! per-block **zone maps** for numeric range conjuncts (`DepTime > $t`
//! fetches no block whose `[min, max]` sits entirely at or below `$t`).
//! Both work through the [`BlockSource`] metadata surface, so in-memory
//! scrambles and on-disk segments plan identically.
//!
//! Planning composes with the partitioned scan pipeline of
//! `crate::parallel`: the planner decides *which* blocks a round fetches,
//! and the worker pool then scans the granted blocks. Decisions depend only
//! on the active sets handed to the planner — never on worker scheduling —
//! so the planned block sequence, and with it every result, is independent
//! of the scan thread count.

use std::sync::Arc;

use fastframe_store::bitmap::BlockBitmapIndex;
use fastframe_store::block::BlockId;
use fastframe_store::source::BlockSource;
use fastframe_store::zone::{RangeFilter, ZoneMap};

use crate::config::SamplingStrategy;

/// The set of groups still requiring samples: a membership bitset over the
/// executor's view ids. A group's dictionary-code tuple, which the planner
/// probes, is looked up in the query's code table by id, so the set holds
/// no codes and sharing it clones nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ActiveSet {
    /// `false` until the first OptStop round has produced group snapshots; a
    /// planner must treat every group as active until then.
    pub(crate) initialized: bool,
    /// Bit `id` is set iff group `id` is active (ids past the end are not).
    members: Vec<u64>,
    /// Number of active groups.
    len: usize,
}

impl ActiveSet {
    /// The "everything is active" state used before the first round.
    pub(crate) fn all_active() -> Self {
        Self {
            initialized: false,
            ..Self::of([])
        }
    }

    /// An initialized active set of the given group ids.
    pub(crate) fn of(ids: impl IntoIterator<Item = usize>) -> Self {
        let mut members = Vec::new();
        let mut len = 0;
        for id in ids {
            if members.len() <= id / 64 {
                members.resize(id / 64 + 1, 0);
            }
            let bit = 1u64 << (id % 64);
            len += usize::from(members[id / 64] & bit == 0);
            members[id / 64] |= bit;
        }
        Self {
            initialized: true,
            members,
            len,
        }
    }

    /// Whether no group is active (only meaningful once initialized).
    pub(crate) fn is_empty(&self) -> bool {
        self.initialized && self.len == 0
    }

    /// Whether group `id` is active (every group is before initialization).
    pub(crate) fn contains(&self, id: usize) -> bool {
        !self.initialized
            || self
                .members
                .get(id / 64)
                .is_some_and(|w| w & (1u64 << (id % 64)) != 0)
    }

    /// The active group ids in ascending order (none before
    /// initialization).
    pub(crate) fn ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.members.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    i * 64 + bit
                })
            })
        })
    }
}

/// Why the planner skipped a block: what the skip tells each view about
/// the block's rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Skip {
    /// The predicate's bitmap or a zone map rules out every row of the
    /// block, so it holds none of any view's rows.
    Pruned,
    /// No group of the set the batch was decided against has rows in the
    /// block (active scanning). It may hold other groups' rows.
    Inactive,
}

/// The per-query block planner: decides, one batch of blocks at a time,
/// which blocks to fetch.
///
/// A batch is decided word-parallel. Each run of consecutive block ids in it
/// (one, or two when the batch wraps past the last block) covers a range of
/// 64-block bitmap words. Per word, the planner starts from the run's bits
/// and ANDs in the predicate bitmap's word. With active skipping it then
/// ORs, over the active groups, the AND of each group's GROUP BY code
/// bitmaps, ANDed into what is still undecided, so a word stops costing
/// probes once every candidate block in it is covered. Zone maps are
/// tested last, once per surviving block. The fetched blocks are exactly
/// those a per-block probe of every condition would fetch. A block no
/// active group covers is skipped as [`Skip::Inactive`], whatever its zone
/// map says; one the predicate bitmap or a zone map rules out otherwise as
/// [`Skip::Pruned`].
pub(crate) struct BlockPlanner<'a> {
    /// Bitmap indexes of the GROUP BY columns, in query order (columns
    /// without an index are `None` and treated as "always present", which
    /// is conservative).
    group_indexes: Vec<Option<&'a BlockBitmapIndex>>,
    /// Every group's dictionary codes over the GROUP BY columns, indexed by
    /// view id: the code table an [`ActiveSet`]'s ids refer to.
    tuples: &'a [Vec<u32>],
    /// Bitmap index and code for a categorical equality predicate, if the
    /// query has one on an indexed column.
    predicate_index: Option<(&'a BlockBitmapIndex, u32)>,
    /// Zone maps and range filters for the query's numeric range conjuncts,
    /// in predicate extraction order (only conjuncts whose column has a zone
    /// map; the rest cannot rule blocks out).
    zone_filters: Vec<(&'a ZoneMap, RangeFilter)>,
    /// Whether group-level (active-scanning) skipping is enabled.
    use_active_skipping: bool,
    /// Whether a batch is decided against the active set handed in with the
    /// previous batch (ActivePeek) rather than its own.
    one_batch_stale: bool,
    /// The active set handed in with the previous batch (ActivePeek only).
    previous: Option<Arc<ActiveSet>>,
    /// The active set the latest batch was decided against.
    planned_with: Arc<ActiveSet>,
    /// The latest batch's fetch decisions, one per block.
    decisions: Vec<bool>,
    /// Bit `i` is set iff the latest batch's block `i` was skipped as
    /// [`Skip::Inactive`].
    inactive: Vec<u64>,
    /// Per word of the run being planned: its fetch mask so far, and the
    /// candidate blocks no active group has covered yet.
    mask: Vec<u64>,
    uncovered: Vec<u64>,
    /// One group's bitmaps, one per indexed GROUP BY column.
    group_bitmaps: Vec<&'a [u64]>,
}

impl<'a> BlockPlanner<'a> {
    /// Builds the planner of a query over `source`. Exact's planner has
    /// nothing to probe (no columns, no predicate, `Scan`), so it fetches
    /// every block with zero index checks.
    ///
    /// `group_columns` are the GROUP BY column names and `tuples` the
    /// groups' code tuples over them, indexed by view id; `predicate_eq` is
    /// the `(column, code)` of a categorical equality predicate if one
    /// exists; `range_filters` are the predicate's numeric range conjuncts
    /// (see [`fastframe_store::predicate::Predicate::range_filters`]),
    /// matched here against the source's zone maps.
    pub(crate) fn new(
        source: &'a dyn BlockSource,
        group_columns: &[String],
        tuples: &'a [Vec<u32>],
        predicate_eq: Option<(String, u32)>,
        range_filters: &[(String, RangeFilter)],
        strategy: SamplingStrategy,
    ) -> Self {
        let group_indexes = group_columns
            .iter()
            .map(|c| source.bitmap_index(c))
            .collect();
        let predicate_index =
            predicate_eq.and_then(|(col, code)| source.bitmap_index(&col).map(|idx| (idx, code)));
        let zone_filters = range_filters
            .iter()
            .filter_map(|(col, filter)| source.zone_map(col).map(|z| (z, *filter)))
            .collect();
        Self {
            group_indexes,
            tuples,
            predicate_index,
            zone_filters,
            use_active_skipping: strategy != SamplingStrategy::Scan,
            one_batch_stale: strategy == SamplingStrategy::ActivePeek,
            previous: None,
            planned_with: Arc::new(ActiveSet::all_active()),
            decisions: Vec::new(),
            inactive: Vec::new(),
            mask: Vec::new(),
            uncovered: Vec::new(),
            group_bitmaps: Vec::new(),
        }
    }

    /// Decides the next batch of `blocks` given the caller's current
    /// `active` set, and returns the number of index checks made: bitmap
    /// words examined plus zone-map tests. The decisions are then read
    /// with [`decisions`](Self::decisions). ActivePeek decides against the
    /// set handed in with the previous batch (its first batch against its
    /// own); the other strategies against `active`.
    pub(crate) fn plan(&mut self, blocks: &[BlockId], active: &Arc<ActiveSet>) -> u64 {
        let previous = if self.one_batch_stale {
            self.previous.replace(Arc::clone(active))
        } else {
            None
        };
        self.planned_with = previous.unwrap_or_else(|| Arc::clone(active));
        self.decisions.clear();
        self.decisions.resize(blocks.len(), false);
        self.inactive.clear();
        self.inactive.resize(blocks.len().div_ceil(64), 0);
        if self.use_active_skipping && self.planned_with.is_empty() {
            // Stopping condition met; no block needs fetching.
            self.inactive.fill(u64::MAX);
            return 0;
        }
        let mut checks = 0;
        let mut start = 0;
        while start < blocks.len() {
            let first = blocks[start].index();
            let len = blocks[start..]
                .iter()
                .enumerate()
                .take_while(|&(j, b)| b.index() == first + j)
                .count();
            checks += self.plan_run(first, start, len);
            start += len;
        }
        checks
    }

    /// The fetch decision of every block of the latest batch, in batch
    /// order.
    pub(crate) fn decisions(&self) -> &[bool] {
        &self.decisions
    }

    /// Why the latest batch's block `i`, which is not fetched, was skipped.
    pub(crate) fn skip_reason(&self, i: usize) -> Skip {
        if self.inactive[i / 64] & (1u64 << (i % 64)) != 0 {
            Skip::Inactive
        } else {
            Skip::Pruned
        }
    }

    /// The active set the latest [`plan`](Self::plan) call decided its batch
    /// against.
    pub(crate) fn planned_with(&self) -> &ActiveSet {
        &self.planned_with
    }

    /// Decides the `len` consecutive blocks from block id `first`, which
    /// sit at batch position `at`, and returns the index checks made.
    fn plan_run(&mut self, first: usize, at: usize, len: usize) -> u64 {
        let (w0, w1) = (first / 64, (first + len - 1) / 64);
        let mut checks = 0;
        self.mask.clear();
        self.mask.extend((w0..=w1).map(|w| {
            let lo = (w * 64).max(first) - w * 64;
            let hi = ((w + 1) * 64).min(first + len) - w * 64;
            (u64::MAX >> (64 - (hi - lo))) << lo
        }));

        // Predicate-level skipping applies to every strategy.
        if let Some((idx, code)) = self.predicate_index {
            let words = idx.bitmap(code).map(|bs| &bs.words()[w0..=w1]);
            for (i, m) in self.mask.iter_mut().enumerate() {
                checks += 1;
                *m &= words.map_or(0, |words| words[i]);
            }
        }

        if self.use_active_skipping && self.planned_with.initialized {
            checks += self.cover_by_active_groups(w0, w1);
            // The blocks no active group covers are skipped as inactive.
            for (i, &word) in self.uncovered.iter().enumerate() {
                let mut rest = word;
                while rest != 0 {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    let position = at + (w0 + i) * 64 + bit - first;
                    self.inactive[position / 64] |= 1u64 << (position % 64);
                }
            }
        }

        // Zone-map skipping for numeric range conjuncts, likewise
        // strategy-independent: a block whose [min, max] misses a conjunct's
        // range contains no matching row.
        if !self.zone_filters.is_empty() {
            for (i, m) in self.mask.iter_mut().enumerate() {
                let mut rest = *m;
                while rest != 0 {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    let block = BlockId((w0 + i) * 64 + bit as usize);
                    for (zone, filter) in &self.zone_filters {
                        checks += 1;
                        if !zone.block_may_match(block, *filter) {
                            *m &= !(1u64 << bit);
                            break;
                        }
                    }
                }
            }
        }

        for (j, decision) in self.decisions[at..at + len].iter_mut().enumerate() {
            let block = first + j;
            *decision = self.mask[block / 64 - w0] & (1u64 << (block % 64)) != 0;
        }
        checks
    }

    /// Narrows the mask of words `w0..=w1` to the blocks some active group
    /// could have rows in: for every indexed GROUP BY column, the group's
    /// code appears in the block. Columns without an index cannot rule a
    /// group out (all ones). The candidate blocks no group covers are left
    /// in `uncovered`. Returns the bitmap words examined.
    fn cover_by_active_groups(&mut self, w0: usize, w1: usize) -> u64 {
        let mut checks = 0;
        self.uncovered.clear();
        self.uncovered.extend_from_slice(&self.mask);
        self.mask.fill(0);
        let mut open = self.uncovered.iter().filter(|&&w| w != 0).count();
        let active = Arc::clone(&self.planned_with);
        for id in active.ids() {
            if open == 0 {
                break;
            }
            let Some(codes) = self.tuples.get(id) else {
                continue;
            };
            // A code outside its column's dictionary is in no block.
            self.group_bitmaps.clear();
            let mut possible = true;
            for (col, &code) in self.group_indexes.iter().zip(codes) {
                if let Some(idx) = col {
                    match idx.bitmap(code) {
                        Some(bs) => self.group_bitmaps.push(&bs.words()[w0..=w1]),
                        None => possible = false,
                    }
                }
            }
            if !possible {
                continue;
            }
            for (i, uncovered) in self.uncovered.iter_mut().enumerate() {
                if *uncovered == 0 {
                    continue;
                }
                let mut hit = *uncovered;
                for words in &self.group_bitmaps {
                    checks += 1;
                    hit &= words[i];
                    if hit == 0 {
                        break;
                    }
                }
                self.mask[i] |= hit;
                *uncovered &= !hit;
                open -= usize::from(*uncovered == 0);
            }
        }
        checks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastframe_store::column::Column;
    use fastframe_store::scramble::Scramble;
    use fastframe_store::table::Table;
    use fastframe_store::zone::RangeFilter;

    /// 200 rows, block size 25 → 8 blocks. Group column `g` has value "hot"
    /// only in rows 0..25 of the *original* table; after scrambling it is
    /// spread around, so we locate its blocks via the index itself and then
    /// cross-check decisions.
    fn scramble() -> Scramble {
        let groups: Vec<String> = (0..200)
            .map(|i| {
                if i < 25 {
                    "hot".to_string()
                } else {
                    format!("g{}", i % 5)
                }
            })
            .collect();
        let preds: Vec<String> = (0..200)
            .map(|i| {
                if i % 2 == 0 {
                    "yes".to_string()
                } else {
                    "no".to_string()
                }
            })
            .collect();
        let t = Table::new(vec![
            Column::float("x", (0..200).map(|i| i as f64).collect()),
            Column::categorical("g", &groups),
            Column::categorical("p", &preds),
        ])
        .unwrap();
        Scramble::build_with(&t, 99, 25).unwrap()
    }

    /// Plans `blocks` and returns the decisions with the index checks made.
    fn plan(
        planner: &mut BlockPlanner<'_>,
        blocks: &[BlockId],
        active: ActiveSet,
    ) -> (Vec<bool>, u64) {
        let checks = planner.plan(blocks, &Arc::new(active));
        (planner.decisions().to_vec(), checks)
    }

    #[test]
    fn active_set_membership_and_ids() {
        let set = ActiveSet::of([130, 3, 64, 3]);
        assert_eq!(set.ids().collect::<Vec<_>>(), vec![3, 64, 130]);
        assert!(set.contains(64) && !set.contains(65) && !set.contains(10_000));
        assert!(!set.is_empty());
        let all = ActiveSet::all_active();
        assert!(all.contains(10_000) && !all.is_empty());
        assert_eq!(all.ids().count(), 0);
    }

    #[test]
    fn scan_strategy_only_uses_predicate_index() {
        let s = scramble();
        let mut planner = BlockPlanner::new(
            &s,
            &["g".to_string()],
            &[],
            None,
            &[],
            SamplingStrategy::Scan,
        );
        // Even with an "initialized" active set that excludes everything,
        // Scan fetches every block.
        let blocks: Vec<BlockId> = (0..s.num_blocks()).map(BlockId).collect();
        let (decisions, checks) = plan(&mut planner, &blocks, ActiveSet::of([]));
        assert!(decisions.iter().all(|&d| d));
        assert_eq!(checks, 0);
    }

    #[test]
    fn predicate_skipping_applies_to_all_strategies() {
        let s = scramble();
        let p_code = s.table().column("p").unwrap().code_of("yes").unwrap();
        for strategy in SamplingStrategy::ALL {
            let mut planner =
                BlockPlanner::new(&s, &[], &[], Some(("p".to_string(), p_code)), &[], strategy);
            let blocks: Vec<BlockId> = (0..s.num_blocks()).map(BlockId).collect();
            let (decisions, checks) = plan(&mut planner, &blocks, ActiveSet::all_active());
            // "yes" appears in every block with overwhelming probability
            // (100 rows spread over 8 blocks); verify agreement with the
            // index rather than assuming.
            let idx = s.bitmap_index("p").unwrap();
            for (i, d) in decisions.iter().enumerate() {
                assert_eq!(*d, idx.block_contains(p_code, BlockId(i)));
            }
            // Eight blocks are one bitmap word.
            assert_eq!(checks, 1);
        }
    }

    #[test]
    fn active_skipping_matches_bitmap_membership() {
        let s = scramble();
        let hot = s.table().column("g").unwrap().code_of("hot").unwrap();
        let tuples = [vec![hot]];
        let mut planner = BlockPlanner::new(
            &s,
            &["g".to_string()],
            &tuples,
            None,
            &[],
            SamplingStrategy::ActiveSync,
        );
        let blocks: Vec<BlockId> = (0..s.num_blocks()).map(BlockId).collect();
        let (decisions, _) = plan(&mut planner, &blocks, ActiveSet::of([0]));
        let idx = s.bitmap_index("g").unwrap();
        for (i, d) in decisions.iter().enumerate() {
            assert_eq!(*d, idx.block_contains(hot, BlockId(i)));
        }
    }

    #[test]
    fn zone_map_skipping_matches_block_ranges() {
        let s = scramble();
        // The scramble's "x" column is 0..200 permuted; with 8 blocks, each
        // block's zone range is known from the data itself.
        let filters = vec![("x".to_string(), RangeFilter::Gt(150.0))];
        let mut planner = BlockPlanner::new(&s, &[], &[], None, &filters, SamplingStrategy::Scan);
        assert_eq!(planner.zone_filters.len(), 1);
        let blocks: Vec<BlockId> = (0..s.num_blocks()).map(BlockId).collect();
        let (decisions, checks) = plan(&mut planner, &blocks, ActiveSet::all_active());
        let zone = s.zone_map("x").unwrap();
        for (i, d) in decisions.iter().enumerate() {
            let (_, max) = zone.block_range(BlockId(i)).unwrap();
            assert_eq!(*d, max > 150.0, "block {i}");
        }
        assert_eq!(checks, blocks.len() as u64);
        // A filter nothing satisfies skips every block; an unknown column
        // has no zone map and cannot skip anything.
        let filters = vec![("x".to_string(), RangeFilter::Gt(1e9))];
        let mut planner = BlockPlanner::new(&s, &[], &[], None, &filters, SamplingStrategy::Scan);
        let (decisions, _) = plan(&mut planner, &blocks, ActiveSet::all_active());
        assert!(decisions.iter().all(|&d| !d));
        let filters = vec![("missing".to_string(), RangeFilter::Gt(1e9))];
        let mut planner = BlockPlanner::new(&s, &[], &[], None, &filters, SamplingStrategy::Scan);
        assert!(planner.zone_filters.is_empty());
        let (decisions, _) = plan(&mut planner, &blocks, ActiveSet::all_active());
        assert!(decisions.iter().all(|&d| d));
    }

    #[test]
    fn uninitialized_active_set_fetches_everything() {
        let s = scramble();
        let mut planner = BlockPlanner::new(
            &s,
            &["g".to_string()],
            &[],
            None,
            &[],
            SamplingStrategy::ActivePeek,
        );
        let blocks: Vec<BlockId> = (0..s.num_blocks()).map(BlockId).collect();
        let (decisions, _) = plan(&mut planner, &blocks, ActiveSet::all_active());
        assert!(decisions.iter().all(|&d| d));
    }

    #[test]
    fn empty_active_set_skips_everything() {
        let s = scramble();
        let mut planner = BlockPlanner::new(
            &s,
            &["g".to_string()],
            &[],
            None,
            &[],
            SamplingStrategy::ActiveSync,
        );
        let blocks: Vec<BlockId> = (0..s.num_blocks()).map(BlockId).collect();
        let (decisions, _) = plan(&mut planner, &blocks, ActiveSet::of([]));
        assert!(decisions.iter().all(|&d| !d));
        assert!(ActiveSet::of([]).is_empty());
        assert!(!ActiveSet::all_active().is_empty());
    }

    #[test]
    fn multi_column_groups_require_all_codes_present() {
        // Build a table where group columns c1/c2 are perfectly correlated
        // with row ranges, so some blocks contain c1's code but not c2's.
        let c1: Vec<String> = (0..100).map(|i| format!("a{}", i / 50)).collect();
        let c2: Vec<String> = (0..100).map(|i| format!("b{}", i / 25)).collect();
        let t = Table::new(vec![
            Column::float("x", (0..100).map(|i| i as f64).collect()),
            Column::categorical("c1", &c1),
            Column::categorical("c2", &c2),
        ])
        .unwrap();
        // Identity-ish scramble not guaranteed; use the index to cross-check.
        let s = Scramble::build_with(&t, 5, 10).unwrap();
        let code_a0 = s.table().column("c1").unwrap().code_of("a0").unwrap();
        let code_b3 = s.table().column("c2").unwrap().code_of("b3").unwrap();
        // Group (a0, b3) does not exist in the data (a0 covers rows 0..50,
        // b3 covers rows 75..100), but the planner only knows per-column
        // membership; a block is fetched only if both codes appear in it.
        let tuples = [vec![code_a0, code_b3]];
        let mut planner = BlockPlanner::new(
            &s,
            &["c1".to_string(), "c2".to_string()],
            &tuples,
            None,
            &[],
            SamplingStrategy::ActiveSync,
        );
        let blocks: Vec<BlockId> = (0..s.num_blocks()).map(BlockId).collect();
        let (decisions, _) = plan(&mut planner, &blocks, ActiveSet::of([0]));
        let idx1 = s.bitmap_index("c1").unwrap();
        let idx2 = s.bitmap_index("c2").unwrap();
        for (i, d) in decisions.iter().enumerate() {
            let expected = idx1.block_contains(code_a0, BlockId(i))
                && idx2.block_contains(code_b3, BlockId(i));
            assert_eq!(*d, expected);
        }
    }

    #[test]
    fn active_peek_decides_each_batch_against_the_previous_batch_set() {
        let s = scramble();
        let hot = s.table().column("g").unwrap().code_of("hot").unwrap();
        let group_by = ["g".to_string()];
        let tuples = [vec![hot]];
        let blocks: Vec<BlockId> = (0..s.num_blocks()).map(BlockId).collect();
        let batches: Vec<&[BlockId]> = blocks.chunks(2).collect();
        // The active set handed in with each batch, changing every batch.
        let sets = [
            ActiveSet::of([]),
            ActiveSet::of([0]),
            ActiveSet::of([]),
            ActiveSet::of([0]),
        ];
        assert_eq!(batches.len(), sets.len());
        let sync = |batch: &[BlockId], set: &ActiveSet| {
            let mut planner = BlockPlanner::new(
                &s,
                &group_by,
                &tuples,
                None,
                &[],
                SamplingStrategy::ActiveSync,
            );
            plan(&mut planner, batch, set.clone())
        };

        let mut peek = BlockPlanner::new(
            &s,
            &group_by,
            &tuples,
            None,
            &[],
            SamplingStrategy::ActivePeek,
        );
        let mut stale_differs = false;
        for (k, (batch, set)) in batches.iter().zip(&sets).enumerate() {
            // Batch 0 is decided against its own set, batch k against the
            // set handed in at k - 1 — decisions and index checks alike.
            let decided_against = &sets[k.saturating_sub(1)];
            let decisions = plan(&mut peek, batch, set.clone());
            assert_eq!(decisions, sync(batch, decided_against), "batch {k}");
            assert_eq!(peek.planned_with(), decided_against, "batch {k}");
            stale_differs |= decisions.0 != sync(batch, set).0;
        }
        // The sets differ enough that planning against the fresh set would
        // have decided differently.
        assert!(stale_differs);

        // Exact has nothing to probe: every block, zero checks, whatever the
        // active set.
        let mut exact = BlockPlanner::new(&s, &[], &[], None, &[], SamplingStrategy::Scan);
        for (batch, set) in batches.iter().zip(&sets) {
            assert_eq!(
                plan(&mut exact, batch, set.clone()),
                (vec![true; batch.len()], 0)
            );
        }
    }

    /// The per-block probe the word-parallel mask must agree with: the
    /// predicate bitmap, then (with active skipping and an initialized set)
    /// some active group whose code is in the block for every indexed
    /// GROUP BY column, then every zone map. A block the predicate or a
    /// zone map rules out is pruned; one no active group covers is skipped
    /// as inactive.
    struct NaiveProbe<'a> {
        s: &'a Scramble,
        group_by: &'a [String],
        tuples: &'a [Vec<u32>],
        predicate: Option<(&'a str, u32)>,
        zones: &'a [(String, RangeFilter)],
        strategy: SamplingStrategy,
    }

    impl NaiveProbe<'_> {
        /// `None` to fetch `block`, or why it is skipped.
        fn decide(&self, planned: &ActiveSet, block: BlockId) -> Option<Skip> {
            let NaiveProbe {
                s,
                group_by,
                tuples,
                predicate,
                zones,
                strategy,
            } = *self;
            if strategy != SamplingStrategy::Scan && planned.is_empty() {
                return Some(Skip::Inactive);
            }
            if let Some((col, code)) = predicate {
                if !s.bitmap_index(col).unwrap().block_contains(code, block) {
                    return Some(Skip::Pruned);
                }
            }
            let covered = strategy == SamplingStrategy::Scan
                || !planned.initialized
                || planned.ids().any(|id| {
                    group_by.iter().zip(&tuples[id]).all(|(col, &code)| {
                        s.bitmap_index(col)
                            .is_none_or(|idx| idx.block_contains(code, block))
                    })
                });
            if !covered {
                return Some(Skip::Inactive);
            }
            for (col, filter) in zones {
                if let Some(zone) = s.zone_map(col) {
                    if !zone.block_may_match(block, *filter) {
                        return Some(Skip::Pruned);
                    }
                }
            }
            None
        }
    }

    /// The word-parallel decisions equal the per-block probe's for every
    /// strategy, random active sets, one- and two-column GROUP BYs plus a
    /// column without an index, a predicate bitmap and zone maps, on
    /// batches that start mid-word and batches that wrap past the last
    /// block.
    #[test]
    fn fetch_mask_equals_the_per_block_probe() {
        // 3 000 rows in blocks of 10: 300 blocks, the last word 44 bits.
        let rows = 3_000usize;
        let cat = |name: &str, k: usize, salt: usize| {
            let values: Vec<String> = (0..rows)
                .map(|i| format!("{name}{}", (i * salt / 7 + i * i % 13) % k))
                .collect();
            Column::categorical(name, &values)
        };
        let t = Table::new(vec![
            Column::float("x", (0..rows).map(|i| ((i * 37) % 1_000) as f64).collect()),
            cat("a", 61, 3),
            cat("b", 4, 11),
            cat("p", 3, 5),
        ])
        .unwrap();
        let s = Scramble::build_with(&t, 17, 10).unwrap();
        let n = s.num_blocks();
        assert_eq!(n, 300);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };

        let p_code = s.table().column("p").unwrap().code_of("p1").unwrap();
        let group_bys: [&[&str]; 3] = [&["a"], &["a", "b"], &["b", "x"]];
        let zone_sets = [vec![], vec![("x".to_string(), RangeFilter::Lt(300.0))]];
        let (mut fetched, mut pruned, mut inactive) = (0usize, 0usize, 0usize);
        for group_by in group_bys {
            let group_by: Vec<String> = group_by.iter().map(|c| c.to_string()).collect();
            // Every code combination, plus one code outside `a`'s
            // dictionary (in no block).
            let card = |c: &str| {
                s.table()
                    .column(c)
                    .map_or(5, |c| c.cardinality().unwrap_or(5))
            };
            let mut tuples: Vec<Vec<u32>> = vec![Vec::new()];
            for col in &group_by {
                tuples = tuples
                    .into_iter()
                    .flat_map(|t| {
                        (0..card(col) as u32).map(move |code| {
                            let mut t = t.clone();
                            t.push(code);
                            t
                        })
                    })
                    .collect();
            }
            tuples.push(vec![99; group_by.len()]);
            for predicate in [None, Some(("p", p_code))] {
                for zones in &zone_sets {
                    for strategy in SamplingStrategy::ALL {
                        let mut planner = BlockPlanner::new(
                            &s,
                            &group_by,
                            &tuples,
                            predicate.map(|(c, code)| (c.to_string(), code)),
                            zones,
                            strategy,
                        );
                        let naive = NaiveProbe {
                            s: &s,
                            group_by: &group_by,
                            tuples: &tuples,
                            predicate,
                            zones,
                            strategy,
                        };
                        let mut handed: Option<ActiveSet> = None;
                        for round in 0..12 {
                            // Random sets, dense to sparse; the first
                            // uninitialized, one empty.
                            let active = match round {
                                0 => ActiveSet::all_active(),
                                5 => ActiveSet::of([]),
                                _ if round % 2 == 0 => {
                                    let keep = 1 + next(tuples.len());
                                    ActiveSet::of(
                                        (0..tuples.len()).filter(|_| next(tuples.len()) < keep),
                                    )
                                }
                                _ => ActiveSet::of((0..1 + next(4)).map(|_| next(tuples.len()))),
                            };
                            // Starts mid-word and lengths crossing words;
                            // some batches wrap past block 299.
                            let start = next(n);
                            let len = 1 + next(2 * n / 3);
                            let batch: Vec<BlockId> =
                                (start..start + len).map(|b| BlockId(b % n)).collect();
                            let stale = handed.replace(active.clone());
                            let planned = match (strategy, stale) {
                                (SamplingStrategy::ActivePeek, Some(previous)) => previous,
                                _ => active.clone(),
                            };
                            planner.plan(&batch, &Arc::new(active));
                            assert_eq!(planner.planned_with(), &planned);
                            for (i, (&block, &fetch)) in
                                batch.iter().zip(planner.decisions()).enumerate()
                            {
                                let decision = (!fetch).then(|| planner.skip_reason(i));
                                let want = naive.decide(&planned, block);
                                assert_eq!(
                                    decision,
                                    want,
                                    "{group_by:?} {predicate:?} {zones:?} {strategy} \
                                     round {round} block {}",
                                    block.index()
                                );
                                match decision {
                                    None => fetched += 1,
                                    Some(Skip::Pruned) => pruned += 1,
                                    Some(Skip::Inactive) => inactive += 1,
                                }
                            }
                        }
                    }
                }
            }
        }
        // Every outcome occurs often enough for the comparison to bite
        // (nearly every block has a row the predicate or the zone map
        // admits, so pruning is the rarest).
        assert!(
            fetched > 5_000 && pruned > 500 && inactive > 5_000,
            "{fetched} / {pruned} / {inactive}"
        );
    }
}
