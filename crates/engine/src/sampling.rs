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

use fastframe_store::bitmap::BlockBitmapIndex;
use fastframe_store::block::BlockId;
use fastframe_store::source::BlockSource;
use fastframe_store::zone::{RangeFilter, ZoneMap};

pub use crate::config::SamplingStrategy;

/// The set of groups still requiring samples. Each group is known by its id
/// (the executor's view id) and by its dictionary-code tuple over the
/// query's GROUP BY columns, which is what the planner probes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveSet {
    /// `false` until the first OptStop round has produced group snapshots; a
    /// planner must treat every group as active until then.
    pub initialized: bool,
    /// One entry per active group: the group's dictionary codes, one per
    /// GROUP BY column (in query order).
    tuples: Vec<Vec<u32>>,
    /// `members[id]` is whether group `id` is active (ids past the end are
    /// not).
    members: Vec<bool>,
}

impl ActiveSet {
    /// The "everything is active" state used before the first round.
    pub fn all_active() -> Self {
        Self {
            initialized: false,
            ..Self::of([])
        }
    }

    /// An initialized active set of `(group id, dictionary codes)` pairs.
    pub fn of(groups: impl IntoIterator<Item = (usize, Vec<u32>)>) -> Self {
        let (ids, tuples): (Vec<usize>, _) = groups.into_iter().unzip();
        let mut members = vec![false; ids.iter().max().map_or(0, |&id| id + 1)];
        for id in ids {
            members[id] = true;
        }
        Self {
            initialized: true,
            tuples,
            members,
        }
    }

    /// Whether no group is active (only meaningful once initialized).
    pub fn is_empty(&self) -> bool {
        self.initialized && self.tuples.is_empty()
    }

    /// Whether group `id` is active (every group is before initialization).
    pub fn contains(&self, id: usize) -> bool {
        !self.initialized || self.members.get(id).copied().unwrap_or(false)
    }
}

/// The per-query block planner: decides, one batch of blocks at a time,
/// which blocks to fetch.
pub struct BlockPlanner<'a> {
    /// Bitmap indexes of the GROUP BY columns, in query order (only columns
    /// that have an index; columns without one are treated as "always
    /// present", which is conservative).
    group_indexes: Vec<Option<&'a BlockBitmapIndex>>,
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
    previous: Option<ActiveSet>,
    /// The active set the latest batch was decided against.
    planned_with: ActiveSet,
}

impl<'a> BlockPlanner<'a> {
    /// Builds the planner of a query over `source`. Exact's planner has
    /// nothing to probe (no columns, no predicate, `Scan`), so it fetches
    /// every block with zero index checks.
    ///
    /// `group_columns` are the GROUP BY column names; `predicate_eq` is the
    /// `(column, code)` of a categorical equality predicate if one exists;
    /// `range_filters` are the predicate's numeric range conjuncts (see
    /// [`fastframe_store::predicate::Predicate::range_filters`]), matched
    /// here against the source's zone maps.
    pub fn new(
        source: &'a dyn BlockSource,
        group_columns: &[String],
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
            predicate_index,
            zone_filters,
            use_active_skipping: strategy != SamplingStrategy::Scan,
            one_batch_stale: strategy == SamplingStrategy::ActivePeek,
            previous: None,
            planned_with: ActiveSet::all_active(),
        }
    }

    /// Decides the next batch of `blocks` given the caller's current
    /// `active` set: returns a fetch/skip decision per block plus the number
    /// of index probes performed (bitmap lookups and zone-map overlap tests
    /// alike). ActivePeek decides against the set handed in with the
    /// previous batch (its first batch against its own); the other
    /// strategies against `active`.
    pub fn plan(&mut self, blocks: &[BlockId], active: &ActiveSet) -> (Vec<bool>, u64) {
        let previous = if self.one_batch_stale {
            self.previous.replace(active.clone())
        } else {
            None
        };
        self.planned_with = previous.unwrap_or_else(|| active.clone());
        let mut checks = 0u64;
        let decisions = blocks
            .iter()
            .map(|&block| {
                let (fetch, c) = self.block_decision(block);
                checks += c;
                fetch
            })
            .collect();
        (decisions, checks)
    }

    /// The active set the latest [`plan`](Self::plan) call decided its batch
    /// against.
    pub fn planned_with(&self) -> &ActiveSet {
        &self.planned_with
    }

    /// Decides whether `block` must be fetched given `planned_with`, and
    /// counts the index probes performed.
    fn block_decision(&self, block: BlockId) -> (bool, u64) {
        let mut checks = 0u64;

        // Predicate-level skipping applies to every strategy.
        if let Some((idx, code)) = self.predicate_index {
            checks += 1;
            if !idx.block_contains(code, block) {
                return (false, checks);
            }
        }

        // Zone-map skipping for numeric range conjuncts, likewise
        // strategy-independent: a block whose [min, max] misses a conjunct's
        // range contains no matching row.
        for (zone, filter) in &self.zone_filters {
            checks += 1;
            if !zone.block_may_match(block, *filter) {
                return (false, checks);
            }
        }

        let active = &self.planned_with;
        if !self.use_active_skipping || !active.initialized {
            return (true, checks);
        }
        if active.tuples.is_empty() {
            // Stopping condition met; no block needs fetching.
            return (false, checks);
        }
        // Fetch if some active group could have rows in this block: for every
        // indexed GROUP BY column, the group's code must appear in the block.
        // Columns without an index cannot rule the group out (conservative).
        for tuple in &active.tuples {
            let mut possible = true;
            for (col, code) in self.group_indexes.iter().zip(tuple) {
                if let Some(idx) = col {
                    checks += 1;
                    if !idx.block_contains(*code, block) {
                        possible = false;
                        break;
                    }
                }
            }
            if possible {
                return (true, checks);
            }
        }
        (false, checks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastframe_store::column::Column;
    use fastframe_store::scramble::Scramble;
    use fastframe_store::table::Table;

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
        Scramble::build_with(&t, 99, 25, 0.0).unwrap()
    }

    #[test]
    fn scan_strategy_only_uses_predicate_index() {
        let s = scramble();
        let g_code = s.table().column("g").unwrap().code_of("hot").unwrap();
        let mut planner =
            BlockPlanner::new(&s, &["g".to_string()], None, &[], SamplingStrategy::Scan);
        // Even with an "initialized" active set that excludes everything,
        // Scan fetches every block.
        let active = ActiveSet::of([]);
        let blocks: Vec<BlockId> = (0..s.num_blocks()).map(BlockId).collect();
        let (decisions, _) = planner.plan(&blocks, &active);
        assert!(decisions.iter().all(|&d| d));
        // Unused but exercised: the group bitmap exists.
        assert!(s.bitmap_index("g").unwrap().num_values() > 0);
        let _ = g_code;
    }

    #[test]
    fn predicate_skipping_applies_to_all_strategies() {
        let s = scramble();
        let p_code = s.table().column("p").unwrap().code_of("yes").unwrap();
        for strategy in SamplingStrategy::ALL {
            let mut planner =
                BlockPlanner::new(&s, &[], Some(("p".to_string(), p_code)), &[], strategy);
            let blocks: Vec<BlockId> = (0..s.num_blocks()).map(BlockId).collect();
            let (decisions, checks) = planner.plan(&blocks, &ActiveSet::all_active());
            // "yes" appears in every block with overwhelming probability
            // (100 rows spread over 8 blocks); verify agreement with the
            // index rather than assuming.
            let idx = s.bitmap_index("p").unwrap();
            for (i, d) in decisions.iter().enumerate() {
                assert_eq!(*d, idx.block_contains(p_code, BlockId(i)));
            }
            assert!(checks >= blocks.len() as u64);
        }
    }

    #[test]
    fn active_skipping_matches_bitmap_membership() {
        let s = scramble();
        let hot = s.table().column("g").unwrap().code_of("hot").unwrap();
        let mut planner = BlockPlanner::new(
            &s,
            &["g".to_string()],
            None,
            &[],
            SamplingStrategy::ActiveSync,
        );
        let active = ActiveSet::of([(0, vec![hot])]);
        let blocks: Vec<BlockId> = (0..s.num_blocks()).map(BlockId).collect();
        let (decisions, _) = planner.plan(&blocks, &active);
        let idx = s.bitmap_index("g").unwrap();
        for (i, d) in decisions.iter().enumerate() {
            assert_eq!(*d, idx.block_contains(hot, BlockId(i)));
        }
        // At least one block must be skippable (hot rows occupy only 25 of
        // 200 rows, so they can cover at most 25 blocks... with 8 blocks they
        // may cover all; check via the index count instead).
        let covered = (0..s.num_blocks())
            .filter(|&i| idx.block_contains(hot, BlockId(i)))
            .count();
        assert_eq!(decisions.iter().filter(|&&d| d).count(), covered);
    }

    #[test]
    fn zone_map_skipping_matches_block_ranges() {
        let s = scramble();
        // The scramble's "x" column is 0..200 permuted; with 8 blocks, each
        // block's zone range is known from the data itself.
        let filters = vec![(
            "x".to_string(),
            fastframe_store::zone::RangeFilter::Gt(150.0),
        )];
        let mut planner = BlockPlanner::new(&s, &[], None, &filters, SamplingStrategy::Scan);
        assert_eq!(planner.zone_filters.len(), 1);
        let blocks: Vec<BlockId> = (0..s.num_blocks()).map(BlockId).collect();
        let (decisions, checks) = planner.plan(&blocks, &ActiveSet::all_active());
        let zone = s.zone_map("x").unwrap();
        for (i, d) in decisions.iter().enumerate() {
            let (_, max) = zone.block_range(BlockId(i)).unwrap();
            assert_eq!(*d, max > 150.0, "block {i}");
        }
        assert_eq!(checks, blocks.len() as u64);
        // A filter nothing satisfies skips every block; an unknown column
        // has no zone map and cannot skip anything.
        let filters = vec![("x".to_string(), fastframe_store::zone::RangeFilter::Gt(1e9))];
        let mut planner = BlockPlanner::new(&s, &[], None, &filters, SamplingStrategy::Scan);
        let (decisions, _) = planner.plan(&blocks, &ActiveSet::all_active());
        assert!(decisions.iter().all(|&d| !d));
        let filters = vec![(
            "missing".to_string(),
            fastframe_store::zone::RangeFilter::Gt(1e9),
        )];
        let mut planner = BlockPlanner::new(&s, &[], None, &filters, SamplingStrategy::Scan);
        assert!(planner.zone_filters.is_empty());
        let (decisions, _) = planner.plan(&blocks, &ActiveSet::all_active());
        assert!(decisions.iter().all(|&d| d));
    }

    #[test]
    fn uninitialized_active_set_fetches_everything() {
        let s = scramble();
        let mut planner = BlockPlanner::new(
            &s,
            &["g".to_string()],
            None,
            &[],
            SamplingStrategy::ActivePeek,
        );
        let blocks: Vec<BlockId> = (0..s.num_blocks()).map(BlockId).collect();
        let (decisions, _) = planner.plan(&blocks, &ActiveSet::all_active());
        assert!(decisions.iter().all(|&d| d));
    }

    #[test]
    fn empty_active_set_skips_everything() {
        let s = scramble();
        let mut planner = BlockPlanner::new(
            &s,
            &["g".to_string()],
            None,
            &[],
            SamplingStrategy::ActiveSync,
        );
        let blocks: Vec<BlockId> = (0..s.num_blocks()).map(BlockId).collect();
        let (decisions, _) = planner.plan(&blocks, &ActiveSet::of([]));
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
        let s = Scramble::build_with(&t, 5, 10, 0.0).unwrap();
        let code_a0 = s.table().column("c1").unwrap().code_of("a0").unwrap();
        let code_b3 = s.table().column("c2").unwrap().code_of("b3").unwrap();
        let mut planner = BlockPlanner::new(
            &s,
            &["c1".to_string(), "c2".to_string()],
            None,
            &[],
            SamplingStrategy::ActiveSync,
        );
        // Group (a0, b3) does not exist in the data (a0 covers rows 0..50,
        // b3 covers rows 75..100), but the planner only knows per-column
        // membership; a block is fetched only if both codes appear in it.
        let active = ActiveSet::of([(0, vec![code_a0, code_b3])]);
        let blocks: Vec<BlockId> = (0..s.num_blocks()).map(BlockId).collect();
        let (decisions, _) = planner.plan(&blocks, &active);
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
        let blocks: Vec<BlockId> = (0..s.num_blocks()).map(BlockId).collect();
        let batches: Vec<&[BlockId]> = blocks.chunks(2).collect();
        // The active set handed in with each batch, changing every batch.
        let sets = [
            ActiveSet::of([]),
            ActiveSet::of([(0, vec![hot])]),
            ActiveSet::of([]),
            ActiveSet::of([(0, vec![hot])]),
        ];
        assert_eq!(batches.len(), sets.len());
        let sync = |batch: &[BlockId], set: &ActiveSet| {
            BlockPlanner::new(&s, &group_by, None, &[], SamplingStrategy::ActiveSync)
                .plan(batch, set)
        };

        let mut peek = BlockPlanner::new(&s, &group_by, None, &[], SamplingStrategy::ActivePeek);
        let mut stale_differs = false;
        for (k, (batch, set)) in batches.iter().zip(&sets).enumerate() {
            // Batch 0 is decided against its own set, batch k against the
            // set handed in at k - 1 — decisions and index checks alike.
            let decided_against = &sets[k.saturating_sub(1)];
            let decisions = peek.plan(batch, set);
            assert_eq!(decisions, sync(batch, decided_against), "batch {k}");
            assert_eq!(peek.planned_with(), decided_against, "batch {k}");
            stale_differs |= decisions.0 != sync(batch, set).0;
        }
        // The sets differ enough that planning against the fresh set would
        // have decided differently.
        assert!(stale_differs);

        // Exact has nothing to probe: every block, zero checks, whatever the
        // active set.
        let mut exact = BlockPlanner::new(&s, &[], None, &[], SamplingStrategy::Scan);
        for (batch, set) in batches.iter().zip(&sets) {
            assert_eq!(exact.plan(batch, set), (vec![true; batch.len()], 0));
        }
    }
}
