//! Sampling strategies: which blocks of the scramble to fetch (§4.3).
//!
//! All three strategies consume blocks in scramble order (starting from a
//! random position), which preserves the without-replacement sampling
//! semantics of the scramble; they differ in which blocks they *skip*:
//!
//! * [`SamplingStrategy::Scan`] skips only blocks the query's predicate
//!   rules out;
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
//! probe). It hands a batch's decisions back as [`Span`]s, maximal
//! stretches of consecutive blocks with one decision, so the coordinator
//! grants and counts whole spans and touches a block id only to hand it to
//! a scan partition.
//!
//! Which blocks the predicate rules out depends only on the query, so each
//! planner computes it once: one **admitted-block mask** from the bitmap
//! indexes of categorical equalities and the per-block **zone maps** of
//! numeric comparisons (`DepTime > $t` admits no block whose `[min, max]`
//! sits at or below `$t`). Both come through the [`BlockSource`] metadata
//! surface, so in-memory scrambles and on-disk segments plan identically.
//!
//! Planning composes with the partitioned scan pipeline of
//! `crate::parallel`: the planner decides *which* blocks a round fetches,
//! and the worker pool then scans the granted blocks. Decisions depend only
//! on the active sets handed to the planner — never on worker scheduling —
//! so the planned block sequence, and with it every result, is independent
//! of the scan thread count.

use std::ops::Range;
use std::sync::Arc;

use fastframe_store::bitmap::BlockBitmapIndex;
use fastframe_store::predicate::BoundPredicate;
use fastframe_store::source::BlockSource;
use fastframe_store::zone::RangeFilter;

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
        for id in ids {
            if members.len() <= id / 64 {
                members.resize(id / 64 + 1, 0);
            }
            members[id / 64] |= 1u64 << (id % 64);
        }
        Self {
            initialized: true,
            members,
        }
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
    /// The query's admitted-block mask rules the block out: no row of it
    /// matches the predicate, so it holds none of any view's rows.
    Pruned,
    /// No group of the set the batch was decided against has rows in the
    /// block (active scanning). It may hold other groups' rows.
    Inactive,
}

/// A maximal stretch of consecutive blocks of one batch with one decision:
/// fetch them all, or skip them all for one reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    /// The first block id.
    pub(crate) first: usize,
    /// The number of blocks, at least one.
    pub(crate) len: usize,
    /// `None` if the blocks are fetched, else why they are skipped.
    pub(crate) skip: Option<Skip>,
}

/// The per-query block planner: decides, one batch of blocks at a time,
/// which blocks to fetch.
///
/// It computes the query's admitted-block mask once, when it is built
/// ([`admitted_blocks`]). A batch is decided word-parallel. Each range of
/// consecutive block ids in it (one, or two when the batch wraps past the
/// last block) covers a range of 64-block words. Per word, the planner ANDs
/// the range's bits with the mask's word. With active skipping it then ORs,
/// over the active groups, the AND of each group's GROUP BY code bitmaps,
/// ANDed into what is still undecided, so a word stops costing probes once
/// every candidate block in it is covered. A skipped block outside the mask
/// is [`Skip::Pruned`]; any other is [`Skip::Inactive`]. The decisions are
/// read off the words as [`Span`]s, one `trailing_ones` per word a span
/// touches; no block is decided on its own.
pub(crate) struct BlockPlanner<'a> {
    /// Bitmap indexes of the GROUP BY columns, in query order (columns
    /// without an index are `None` and treated as "always present", which
    /// is conservative).
    group_indexes: Vec<Option<&'a BlockBitmapIndex>>,
    /// Every group's dictionary codes over the GROUP BY columns, indexed by
    /// view id: the code table an [`ActiveSet`]'s ids refer to.
    tuples: &'a [Vec<u32>],
    /// The query's admitted-block mask, one bit per block; `None` when the
    /// predicate rules no block out.
    admitted: Option<Vec<u64>>,
    /// Zone-map tests made building the mask, not yet reported by
    /// [`plan`](Self::plan).
    unreported_checks: u64,
    /// Whether group-level (active-scanning) skipping is enabled.
    use_active_skipping: bool,
    /// Whether a batch is decided against the active set handed in with the
    /// previous batch (ActivePeek) rather than its own.
    one_batch_stale: bool,
    /// The active set handed in with the previous batch (ActivePeek only).
    previous: Option<Arc<ActiveSet>>,
    /// The active set the latest batch was decided against.
    planned_with: Arc<ActiveSet>,
    /// The latest batch's decisions, in scan order.
    spans: Vec<Span>,
    /// Per word of the range being planned: its fetch mask so far, and the
    /// candidate blocks no active group has covered yet.
    mask: Vec<u64>,
    uncovered: Vec<u64>,
    /// One group's bitmaps, one per indexed GROUP BY column.
    group_bitmaps: Vec<&'a [u64]>,
}

impl<'a> BlockPlanner<'a> {
    /// Builds the planner of a query over `source`, computing the query's
    /// admitted-block mask from `predicate`. Exact's planner has nothing to
    /// probe (no columns, [`BoundPredicate::True`], `Scan`), so it fetches
    /// every block with zero index checks.
    ///
    /// `group_columns` are the GROUP BY column names and `tuples` the
    /// groups' code tuples over them, indexed by view id.
    pub(crate) fn new(
        source: &'a dyn BlockSource,
        group_columns: &[String],
        tuples: &'a [Vec<u32>],
        predicate: &BoundPredicate,
        strategy: SamplingStrategy,
    ) -> Self {
        let group_indexes = group_columns
            .iter()
            .map(|c| source.bitmap_index(c))
            .collect();
        let mut unreported_checks = 0;
        let admitted = admitted_blocks(source, predicate, &mut unreported_checks);
        Self {
            group_indexes,
            tuples,
            admitted,
            unreported_checks,
            use_active_skipping: strategy != SamplingStrategy::Scan,
            one_batch_stale: strategy == SamplingStrategy::ActivePeek,
            previous: None,
            planned_with: Arc::new(ActiveSet::all_active()),
            spans: Vec::new(),
            mask: Vec::new(),
            uncovered: Vec::new(),
            group_bitmaps: Vec::new(),
        }
    }

    /// Decides the next batch, the block ids of `ranges` in order, given
    /// the caller's current `active` set, and returns the number of index
    /// checks made: mask words ANDed plus group-bitmap words examined, and
    /// on the first call also the zone-map tests made building the mask.
    /// The decisions are then read with [`spans`](Self::spans). ActivePeek
    /// decides against the set handed in with the previous batch (its first
    /// batch against its own); the other strategies against `active`.
    pub(crate) fn plan(&mut self, ranges: &[Range<usize>], active: &Arc<ActiveSet>) -> u64 {
        let previous = if self.one_batch_stale {
            self.previous.replace(Arc::clone(active))
        } else {
            None
        };
        self.planned_with = previous.unwrap_or_else(|| Arc::clone(active));
        self.spans.clear();
        let mut checks = std::mem::take(&mut self.unreported_checks);
        for range in ranges.iter().filter(|r| !r.is_empty()) {
            checks += self.plan_range(range.start, range.end);
        }
        checks
    }

    /// The latest batch's decisions: spans covering its blocks in scan
    /// order, adjacent ones differing in decision unless the batch wraps
    /// between them.
    pub(crate) fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The active set the latest [`plan`](Self::plan) call decided its batch
    /// against.
    pub(crate) fn planned_with(&self) -> &ActiveSet {
        &self.planned_with
    }

    /// Decides blocks `first..end` and returns the index checks made.
    fn plan_range(&mut self, first: usize, end: usize) -> u64 {
        let (w0, w1) = (first / 64, (end - 1) / 64);
        let mut checks = 0;
        self.mask.clear();
        self.mask
            .extend((w0..=w1).map(|w| range_bits(w, first, end)));
        if let Some(admitted) = &self.admitted {
            for (m, &word) in self.mask.iter_mut().zip(&admitted[w0..=w1]) {
                checks += 1;
                *m &= word;
            }
        }
        if self.use_active_skipping && self.planned_with.initialized {
            checks += self.cover_by_active_groups(w0, w1);
        }
        self.emit_spans(first, end);
        checks
    }

    /// Appends the spans of blocks `first..end`, whose fetch mask is
    /// planned. A span grows by its decision's trailing ones, word by word
    /// while they run on to the word's end. A word whose first bit has
    /// another decision ends it: the step that found no block stops the
    /// span rather than repeating, even when the decision changes exactly
    /// on a word boundary.
    fn emit_spans(&mut self, first: usize, end: usize) {
        let w0 = first / 64;
        let admitted = |w: usize| self.admitted.as_ref().map_or(u64::MAX, |a| a[w]);
        // The blocks of word `w` with decision `skip`.
        let bits = |skip: Option<Skip>, w: usize| {
            let fetch = self.mask[w - w0];
            match skip {
                None => fetch,
                Some(Skip::Pruned) => range_bits(w, first, end) & !admitted(w),
                Some(Skip::Inactive) => range_bits(w, first, end) & admitted(w) & !fetch,
            }
        };
        let mut at = first;
        while at < end {
            let (w, bit) = (at / 64, at % 64);
            let skip = if self.mask[w - w0] >> bit & 1 == 1 {
                None
            } else if admitted(w) >> bit & 1 == 0 {
                Some(Skip::Pruned)
            } else {
                Some(Skip::Inactive)
            };
            let start = at;
            loop {
                let ones = (bits(skip, at / 64) >> (at % 64)).trailing_ones() as usize;
                at += ones;
                if ones == 0 || at % 64 != 0 || at == end {
                    break;
                }
            }
            self.spans.push(Span {
                first: start,
                len: at - start,
                skip,
            });
        }
    }

    /// Narrows the mask of words `w0..=w1` to the blocks some active group
    /// could have rows in: for every indexed GROUP BY column, the group's
    /// code appears in the block. Columns without an index cannot rule a
    /// group out (all ones). Returns the bitmap words examined.
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

/// The bits of blocks `first..end` in 64-block word `w`.
fn range_bits(w: usize, first: usize, end: usize) -> u64 {
    let lo = (w * 64).max(first) - w * 64;
    let hi = ((w + 1) * 64).min(end) - w * 64;
    (u64::MAX >> (64 - (hi - lo))) << lo
}

/// The query's admitted-block mask, one bit per block (`None` if the
/// predicate rules no block out), by one arm per shape: `True` and `Not`
/// rule nothing out; `CatEq` admits its code's bitmap; a numeric comparison
/// admits the blocks its column's zone map may match, filled a word at a
/// time ([`may_match_words`](fastframe_store::zone::ZoneMap::may_match_words))
/// and adding one test per block to `checks`; `And` and `Or` AND and OR
/// their children's masks. A column without an index or zone map rules
/// nothing out.
fn admitted_blocks(
    source: &dyn BlockSource,
    predicate: &BoundPredicate,
    checks: &mut u64,
) -> Option<Vec<u64>> {
    let (n, words) = (source.num_blocks(), source.num_blocks().div_ceil(64));
    let name = |column: usize| source.schema().column_at(column).name();
    let mut zone = |column: usize, filter: RangeFilter| {
        let map = source.zone_map(name(column))?;
        *checks += n as u64;
        Some(map.may_match_words(filter, n))
    };
    match predicate {
        BoundPredicate::True | BoundPredicate::Not(_) => None,
        BoundPredicate::CatEq { column, code } => source.bitmap_index(name(*column)).map(|index| {
            (index.bitmap(*code)).map_or_else(|| vec![0; words], |bits| bits.words().to_vec())
        }),
        BoundPredicate::NumGt { column, threshold } => zone(*column, RangeFilter::Gt(*threshold)),
        BoundPredicate::NumLt { column, threshold } => zone(*column, RangeFilter::Lt(*threshold)),
        BoundPredicate::NumBetween { column, low, high } => {
            zone(*column, RangeFilter::Between(*low, *high))
        }
        BoundPredicate::And(children) => children
            .iter()
            .filter_map(|c| admitted_blocks(source, c, checks))
            .reduce(|mut all, mask| {
                all.iter_mut().zip(&mask).for_each(|(a, m)| *a &= m);
                all
            }),
        BoundPredicate::Or(children) => children
            .iter()
            .map(|c| admitted_blocks(source, c, checks))
            .collect::<Option<Vec<_>>>()?
            .into_iter()
            .reduce(|mut any, mask| {
                any.iter_mut().zip(&mask).for_each(|(a, m)| *a |= m);
                any
            }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastframe_store::block::BlockId;
    use fastframe_store::column::Column;
    use fastframe_store::predicate::Predicate;
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
        Scramble::build_with(&t, 99, 25).unwrap()
    }

    /// Plans the blocks of `blocks` and returns the fetch decision of each,
    /// rebuilt from the spans, with the index checks made.
    fn plan(
        planner: &mut BlockPlanner<'_>,
        blocks: Range<usize>,
        active: ActiveSet,
    ) -> (Vec<bool>, u64) {
        let checks = planner.plan(&[blocks], &Arc::new(active));
        let fetch = per_block(planner).map(|(_, skip)| skip.is_none());
        (fetch.collect(), checks)
    }

    /// The latest batch's blocks in scan order, each with its decision.
    fn per_block<'p>(
        planner: &'p BlockPlanner<'_>,
    ) -> impl Iterator<Item = (usize, Option<Skip>)> + 'p {
        planner
            .spans()
            .iter()
            .flat_map(|span| (span.first..span.first + span.len).map(move |b| (b, span.skip)))
    }

    #[test]
    fn active_set_membership_and_ids() {
        let set = ActiveSet::of([130, 3, 64, 3]);
        assert_eq!(set.ids().collect::<Vec<_>>(), vec![3, 64, 130]);
        assert!(set.contains(64) && !set.contains(65) && !set.contains(10_000));
        let all = ActiveSet::all_active();
        assert!(all.contains(10_000));
        assert_eq!(all.ids().count(), 0);
    }

    #[test]
    fn scan_strategy_only_uses_predicate_index() {
        let s = scramble();
        let mut planner = BlockPlanner::new(
            &s,
            &["g".to_string()],
            &[],
            &BoundPredicate::True,
            SamplingStrategy::Scan,
        );
        // Even with an "initialized" active set that excludes everything,
        // Scan fetches every block.
        let blocks = 0..s.num_blocks();
        let (decisions, checks) = plan(&mut planner, blocks.clone(), ActiveSet::of([]));
        assert!(decisions.iter().all(|&d| d));
        assert_eq!(checks, 0);
    }

    #[test]
    fn predicate_skipping_applies_to_all_strategies() {
        let s = scramble();
        let p_code = s.table().column("p").unwrap().code_of("yes").unwrap();
        let predicate = Predicate::cat_eq("p", "yes").bind(s.table()).unwrap();
        for strategy in SamplingStrategy::ALL {
            let mut planner = BlockPlanner::new(&s, &[], &[], &predicate, strategy);
            let blocks = 0..s.num_blocks();
            let (decisions, checks) = plan(&mut planner, blocks.clone(), ActiveSet::all_active());
            // "yes" appears in every block with overwhelming probability
            // (100 rows spread over 8 blocks); verify agreement with the
            // index rather than assuming.
            let idx = s.bitmap_index("p").unwrap();
            for (i, d) in decisions.iter().enumerate() {
                assert_eq!(*d, idx.block_contains(p_code, BlockId(i)));
            }
            // Eight blocks are one mask word; a bitmap costs no test to
            // turn into the mask.
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
            &BoundPredicate::True,
            SamplingStrategy::ActiveSync,
        );
        let blocks = 0..s.num_blocks();
        let (decisions, _) = plan(&mut planner, blocks.clone(), ActiveSet::of([0]));
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
        let gt = |threshold: f64| Predicate::num_gt("x", threshold).bind(s.table()).unwrap();
        let mut planner = BlockPlanner::new(&s, &[], &[], &gt(150.0), SamplingStrategy::Scan);
        let blocks = 0..s.num_blocks();
        let (decisions, checks) = plan(&mut planner, blocks.clone(), ActiveSet::all_active());
        let zone = s.zone_map("x").unwrap();
        for (i, d) in decisions.iter().enumerate() {
            let (_, max) = zone.block_range(BlockId(i)).unwrap();
            assert_eq!(*d, max > 150.0, "block {i}");
        }
        // One zone-map test per block, made once when the mask is built,
        // plus the batch's one mask word; a later batch pays the word only.
        assert_eq!(checks, blocks.len() as u64 + 1);
        assert_eq!(
            plan(&mut planner, blocks.clone(), ActiveSet::all_active()).1,
            1
        );
        // A filter nothing satisfies skips every block; a column without a
        // zone map (the categorical `g`) cannot skip anything or cost a
        // check.
        let mut planner = BlockPlanner::new(&s, &[], &[], &gt(1e9), SamplingStrategy::Scan);
        let (decisions, _) = plan(&mut planner, blocks.clone(), ActiveSet::all_active());
        assert!(decisions.iter().all(|&d| !d));
        let unmapped = BoundPredicate::NumGt {
            column: s.table().column_index("g").unwrap(),
            threshold: 1e9,
        };
        let mut planner = BlockPlanner::new(&s, &[], &[], &unmapped, SamplingStrategy::Scan);
        let (decisions, checks) = plan(&mut planner, blocks.clone(), ActiveSet::all_active());
        assert!(decisions.iter().all(|&d| d));
        assert_eq!(checks, 0);
    }

    #[test]
    fn uninitialized_active_set_fetches_everything() {
        let s = scramble();
        let mut planner = BlockPlanner::new(
            &s,
            &["g".to_string()],
            &[],
            &BoundPredicate::True,
            SamplingStrategy::ActivePeek,
        );
        let blocks = 0..s.num_blocks();
        let (decisions, _) = plan(&mut planner, blocks.clone(), ActiveSet::all_active());
        assert!(decisions.iter().all(|&d| d));
    }

    #[test]
    fn empty_active_set_skips_everything() {
        let s = scramble();
        let mut planner = BlockPlanner::new(
            &s,
            &["g".to_string()],
            &[],
            &BoundPredicate::True,
            SamplingStrategy::ActiveSync,
        );
        let blocks = 0..s.num_blocks();
        let (decisions, _) = plan(&mut planner, blocks.clone(), ActiveSet::of([]));
        assert!(decisions.iter().all(|&d| !d));
        // Without a predicate, every skip is inactive: one span.
        assert_eq!(
            planner.spans(),
            [Span {
                first: 0,
                len: blocks.len(),
                skip: Some(Skip::Inactive)
            }]
        );
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
            &BoundPredicate::True,
            SamplingStrategy::ActiveSync,
        );
        let blocks = 0..s.num_blocks();
        let (decisions, _) = plan(&mut planner, blocks.clone(), ActiveSet::of([0]));
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
        let batches: Vec<Range<usize>> = (0..s.num_blocks()).step_by(2).map(|b| b..b + 2).collect();
        // The active set handed in with each batch, changing every batch.
        let sets = [
            ActiveSet::of([]),
            ActiveSet::of([0]),
            ActiveSet::of([]),
            ActiveSet::of([0]),
        ];
        assert_eq!(batches.len(), sets.len());
        let sync = |batch: Range<usize>, set: &ActiveSet| {
            let mut planner = BlockPlanner::new(
                &s,
                &group_by,
                &tuples,
                &BoundPredicate::True,
                SamplingStrategy::ActiveSync,
            );
            plan(&mut planner, batch, set.clone())
        };

        let mut peek = BlockPlanner::new(
            &s,
            &group_by,
            &tuples,
            &BoundPredicate::True,
            SamplingStrategy::ActivePeek,
        );
        let mut stale_differs = false;
        for (k, (batch, set)) in batches.iter().zip(&sets).enumerate() {
            // Batch 0 is decided against its own set, batch k against the
            // set handed in at k - 1 — decisions and index checks alike.
            let decided_against = &sets[k.saturating_sub(1)];
            let decisions = plan(&mut peek, batch.clone(), set.clone());
            assert_eq!(decisions, sync(batch.clone(), decided_against), "batch {k}");
            assert_eq!(peek.planned_with(), decided_against, "batch {k}");
            stale_differs |= decisions.0 != sync(batch.clone(), set).0;
        }
        // The sets differ enough that planning against the fresh set would
        // have decided differently.
        assert!(stale_differs);

        // Exact has nothing to probe: every block, zero checks, whatever the
        // active set.
        let mut exact =
            BlockPlanner::new(&s, &[], &[], &BoundPredicate::True, SamplingStrategy::Scan);
        for (batch, set) in batches.iter().zip(&sets) {
            assert_eq!(
                plan(&mut exact, batch.clone(), set.clone()),
                (vec![true; batch.len()], 0)
            );
        }
    }

    /// The per-block probe the word-parallel mask must agree with. Pruning
    /// is ruled on first: a block the predicate cannot match (evaluated
    /// recursively per block, from the bitmap indexes and zone maps) is
    /// pruned. Then, with active skipping and an initialized set, a block
    /// is fetched only if some active group has its code in the block for
    /// every indexed GROUP BY column; otherwise it is skipped as inactive.
    struct NaiveProbe<'a> {
        s: &'a Scramble,
        group_by: &'a [String],
        tuples: &'a [Vec<u32>],
        predicate: &'a Predicate,
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
                strategy,
            } = *self;
            if !self.may_match(predicate, block) {
                return Some(Skip::Pruned);
            }
            let covered = strategy == SamplingStrategy::Scan
                || !planned.initialized
                || planned.ids().any(|id| {
                    group_by.iter().zip(&tuples[id]).all(|(col, &code)| {
                        s.bitmap_index(col)
                            .is_none_or(|idx| idx.block_contains(code, block))
                    })
                });
            (!covered).then_some(Skip::Inactive)
        }

        /// Whether `predicate` may match a row of `block`.
        fn may_match(&self, predicate: &Predicate, block: BlockId) -> bool {
            let zone = |column: &str, filter| {
                self.s
                    .zone_map(column)
                    .is_none_or(|z| z.block_may_match(block, filter))
            };
            match predicate {
                Predicate::True | Predicate::Not(_) => true,
                Predicate::CatEq { column, value } => {
                    let code = self.s.table().column(column).unwrap().code_of(value);
                    self.s
                        .bitmap_index(column)
                        .is_none_or(|idx| idx.block_contains(code.unwrap(), block))
                }
                Predicate::NumGt { column, threshold } => zone(column, RangeFilter::Gt(*threshold)),
                Predicate::NumLt { column, threshold } => zone(column, RangeFilter::Lt(*threshold)),
                Predicate::NumBetween { column, low, high } => {
                    zone(column, RangeFilter::Between(*low, *high))
                }
                Predicate::And(children) => children.iter().all(|c| self.may_match(c, block)),
                Predicate::Or(children) => children.iter().any(|c| self.may_match(c, block)),
            }
        }
    }

    /// The word-parallel decisions and skip reasons equal the per-block
    /// probe's for every strategy, random active sets, one- and two-column
    /// GROUP BYs plus a column without an index, categorical and range
    /// predicates and their `And`, `Or` and `Not`, on batches that start
    /// mid-word and batches that wrap past the last block. The spans cover
    /// the batch exactly, in order, and are maximal: adjacent spans differ
    /// in decision unless the wrap separates them, also where the decision
    /// changes exactly on a 64-block word boundary.
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

        let group_bys: [&[&str]; 3] = [&["a"], &["a", "b"], &["b", "x"]];
        let (p1, a7, x_lt) = (
            Predicate::cat_eq("p", "p1"),
            Predicate::cat_eq("a", "a7"),
            Predicate::num_lt("x", 300.0),
        );
        let predicates = [
            Predicate::True,
            p1.clone(),
            x_lt.clone(),
            Predicate::And(vec![p1.clone(), x_lt.clone()]),
            Predicate::And(vec![p1.clone(), a7.clone()]),
            Predicate::Or(vec![a7, x_lt]),
            Predicate::Not(Box::new(p1)),
        ];
        let (mut fetched, mut pruned, mut inactive) = (0usize, 0usize, 0usize);
        // Decision changes exactly on a word boundary.
        let mut word_edges = 0usize;
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
            for predicate in &predicates {
                let bound = predicate.bind(s.table()).unwrap();
                for strategy in SamplingStrategy::ALL {
                    let mut planner = BlockPlanner::new(&s, &group_by, &tuples, &bound, strategy);
                    let naive = NaiveProbe {
                        s: &s,
                        group_by: &group_by,
                        tuples: &tuples,
                        predicate,
                        strategy,
                    };
                    let mut handed: Option<ActiveSet> = None;
                    for round in 0..16 {
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
                        // Starts mid-word and lengths crossing words; some
                        // batches wrap past block 299. Then fixed shapes: a
                        // wrapping batch, one across two word boundaries,
                        // one ending mid-word in the ragged last word
                        // (blocks 256..300), and the whole table.
                        let (start, len) = match round {
                            12 => (n - 20, 50),
                            13 => (40, 100),
                            14 => (250, 40),
                            15 => (0, n),
                            _ => (next(n), 1 + next(2 * n / 3)),
                        };
                        let batch = [
                            start..(start + len).min(n),
                            0..(start + len).saturating_sub(n),
                        ];
                        let stale = handed.replace(active.clone());
                        let planned = match (strategy, stale) {
                            (SamplingStrategy::ActivePeek, Some(previous)) => previous,
                            _ => active.clone(),
                        };
                        planner.plan(&batch, &Arc::new(active));
                        assert_eq!(planner.planned_with(), &planned);
                        let what = format!("{group_by:?} {predicate:?} {strategy} round {round}");
                        let spans = planner.spans();
                        assert!(spans.iter().all(|span| span.len > 0), "{what}");
                        for pair in spans.windows(2) {
                            let (a, b) = (pair[0], pair[1]);
                            if a.first + a.len == b.first {
                                assert_ne!(a.skip, b.skip, "{what}: {a:?} {b:?}");
                                word_edges += usize::from(b.first % 64 == 0);
                            }
                        }
                        let blocks: Vec<usize> = per_block(&planner).map(|(b, _)| b).collect();
                        let want: Vec<usize> = batch.iter().cloned().flatten().collect();
                        assert_eq!(blocks, want, "{what}");
                        for (block, decision) in per_block(&planner) {
                            let want = naive.decide(&planned, BlockId(block));
                            assert_eq!(decision, want, "{what} block {block}");
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
        // Every outcome occurs often enough for the comparison to bite
        // (nearly every block has a row the predicate or the zone map
        // admits, so pruning is the rarest).
        assert!(
            fetched > 5_000 && pruned > 500 && inactive > 5_000,
            "{fetched} / {pruned} / {inactive}"
        );
        assert!(
            word_edges > 50,
            "{word_edges} decision changes on a word boundary"
        );
    }
}
