//! Query predicates (WHERE clauses) over tables.
//!
//! The Flights queries of Figure 5 filter on categorical equality
//! (`Origin = 'ORD'`, `Airline = 'HP'`) and numeric comparisons
//! (`DepTime > $min_dep_time`); [`Predicate`] covers those plus boolean
//! combinations. Predicates are *bound* against a concrete table before
//! evaluation, resolving column names to indexes and categorical values to
//! dictionary codes so that the per-row check is cheap.

use crate::column::Column;
use crate::selection::{SelectionScratch, SelectionVector};
use crate::table::{StoreError, StoreResult, Table};

/// An unbound (name-based) predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (no WHERE clause).
    True,
    /// Categorical equality: `column = value`.
    CatEq {
        /// Categorical column name.
        column: String,
        /// Value to compare against.
        value: String,
    },
    /// Numeric comparison `column > threshold` (strict).
    NumGt {
        /// Numeric column name.
        column: String,
        /// Threshold.
        threshold: f64,
    },
    /// Numeric comparison `column < threshold` (strict).
    NumLt {
        /// Numeric column name.
        column: String,
        /// Threshold.
        threshold: f64,
    },
    /// Numeric range `low <= column <= high` (inclusive).
    NumBetween {
        /// Numeric column name.
        column: String,
        /// Inclusive lower bound.
        low: f64,
        /// Inclusive upper bound.
        high: f64,
    },
    /// Conjunction of sub-predicates.
    And(Vec<Predicate>),
    /// Disjunction of sub-predicates.
    Or(Vec<Predicate>),
    /// Negation of a sub-predicate.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Convenience constructor for categorical equality.
    pub fn cat_eq(column: impl Into<String>, value: impl Into<String>) -> Self {
        Predicate::CatEq {
            column: column.into(),
            value: value.into(),
        }
    }

    /// Convenience constructor for `column > threshold`.
    pub fn num_gt(column: impl Into<String>, threshold: f64) -> Self {
        Predicate::NumGt {
            column: column.into(),
            threshold,
        }
    }

    /// Convenience constructor for `column < threshold`.
    pub fn num_lt(column: impl Into<String>, threshold: f64) -> Self {
        Predicate::NumLt {
            column: column.into(),
            threshold,
        }
    }

    /// Binds the predicate against a table, resolving names and categorical
    /// values.
    pub fn bind(&self, table: &Table) -> StoreResult<BoundPredicate> {
        Ok(match self {
            Predicate::True => BoundPredicate::True,
            Predicate::CatEq { column, value } => {
                let col = table.categorical_column(column)?;
                let code = col
                    .code_of(value)
                    .ok_or_else(|| StoreError::UnknownCategory {
                        column: column.clone(),
                        value: value.clone(),
                    })?;
                BoundPredicate::CatEq {
                    column: table.column_index(column)?,
                    code,
                }
            }
            Predicate::NumGt { column, threshold } => {
                table.numeric_column(column)?;
                BoundPredicate::NumGt {
                    column: table.column_index(column)?,
                    threshold: *threshold,
                }
            }
            Predicate::NumLt { column, threshold } => {
                table.numeric_column(column)?;
                BoundPredicate::NumLt {
                    column: table.column_index(column)?,
                    threshold: *threshold,
                }
            }
            Predicate::NumBetween { column, low, high } => {
                table.numeric_column(column)?;
                BoundPredicate::NumBetween {
                    column: table.column_index(column)?,
                    low: *low,
                    high: *high,
                }
            }
            Predicate::And(children) => BoundPredicate::And(
                children
                    .iter()
                    .map(|c| c.bind(table))
                    .collect::<StoreResult<Vec<_>>>()?,
            ),
            Predicate::Or(children) => BoundPredicate::Or(
                children
                    .iter()
                    .map(|c| c.bind(table))
                    .collect::<StoreResult<Vec<_>>>()?,
            ),
            Predicate::Not(child) => BoundPredicate::Not(Box::new(child.bind(table)?)),
        })
    }

    /// If the predicate is (a conjunction containing) a categorical
    /// equality, returns the first one's `(column, value)`. No engine code
    /// calls it; perfbench's trace does, to replay bitmap probes.
    pub fn categorical_equality(&self) -> Option<(&str, &str)> {
        match self {
            Predicate::CatEq { column, value } => Some((column, value)),
            Predicate::And(children) => children.iter().find_map(Predicate::categorical_equality),
            _ => None,
        }
    }

    /// The numeric range conjuncts of the predicate, as `(column, filter)`
    /// pairs. No engine code calls it; perfbench's trace does, to replay
    /// zone-map probes.
    ///
    /// Only conjuncts that every matching row *must* satisfy are extracted
    /// (the predicate itself, or children of a top-level `And`, recursively).
    /// Anything under `Or` or `Not` is ignored: skipping on those would be
    /// unsound.
    pub fn range_filters(&self) -> Vec<(String, crate::zone::RangeFilter)> {
        let mut out = Vec::new();
        self.collect_range_filters(&mut out);
        out
    }

    fn collect_range_filters(&self, out: &mut Vec<(String, crate::zone::RangeFilter)>) {
        use crate::zone::RangeFilter;
        match self {
            Predicate::NumGt { column, threshold } => {
                out.push((column.clone(), RangeFilter::Gt(*threshold)));
            }
            Predicate::NumLt { column, threshold } => {
                out.push((column.clone(), RangeFilter::Lt(*threshold)));
            }
            Predicate::NumBetween { column, low, high } => {
                out.push((column.clone(), RangeFilter::Between(*low, *high)));
            }
            Predicate::And(children) => {
                for c in children {
                    c.collect_range_filters(out);
                }
            }
            _ => {}
        }
    }
}

/// A predicate bound to a concrete table (columns by index, categories by
/// code) that can be evaluated per row.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundPredicate {
    /// Always true.
    True,
    /// Categorical equality by dictionary code.
    CatEq {
        /// Column index.
        column: usize,
        /// Dictionary code to match.
        code: u32,
    },
    /// `column > threshold`.
    NumGt {
        /// Column index.
        column: usize,
        /// Threshold.
        threshold: f64,
    },
    /// `column < threshold`.
    NumLt {
        /// Column index.
        column: usize,
        /// Threshold.
        threshold: f64,
    },
    /// `low <= column <= high`.
    NumBetween {
        /// Column index.
        column: usize,
        /// Inclusive lower bound.
        low: f64,
        /// Inclusive upper bound.
        high: f64,
    },
    /// Conjunction.
    And(Vec<BoundPredicate>),
    /// Disjunction.
    Or(Vec<BoundPredicate>),
    /// Negation.
    Not(Box<BoundPredicate>),
}

/// Applies a numeric comparison kernel over the column's raw storage,
/// narrowing `sel` to the rows that satisfy `keep`. Integer columns are
/// widened to `f64` exactly as the scalar path's
/// [`Column::numeric_value`] does; a non-numeric column clears the
/// selection (the scalar path returns `false` for every row).
#[inline]
fn retain_numeric(column: &Column, sel: &mut SelectionVector, keep: impl Fn(f64) -> bool) {
    // `get` mirrors the scalar path's `numeric_value`: a row beyond the
    // column's storage (a zero-row projection placeholder) matches nothing
    // rather than panicking.
    if let Some(values) = column.float_values() {
        sel.retain(|r| values.get(r as usize).is_some_and(|&v| keep(v)));
    } else if let Some(values) = column.int_values() {
        sel.retain(|r| values.get(r as usize).is_some_and(|&v| keep(v as f64)));
    } else {
        sel.clear();
    }
}

/// Fills `sel` by scanning the row range's slice of one column's raw
/// storage — the seed kernel of a leaf predicate at the root of a filter.
/// Iterating the pre-sliced storage keeps the hot loop free of per-row
/// bounds checks; `sel` arrives cleared and keeps its allocation. Rows
/// beyond the column's storage (a zero-row projection placeholder) match
/// nothing, exactly as the scalar path's per-row accessors return `None`.
#[inline]
fn seed<T: Copy>(
    values: &[T],
    rows: std::ops::Range<usize>,
    keep: impl Fn(T) -> bool,
    sel: &mut SelectionVector,
) {
    let base = rows.start as u32;
    let end = rows.end.min(values.len());
    let Some(slice) = values.get(rows.start..end) else {
        return;
    };
    sel.fill_where(base, slice.len(), |i| keep(slice[i]));
}

/// Seed kernel for a numeric leaf over the column's raw storage. A
/// non-numeric column leaves `sel` empty (the scalar path rejects every
/// row).
#[inline]
fn seed_numeric(
    column: &Column,
    rows: std::ops::Range<usize>,
    keep: impl Fn(f64) -> bool,
    sel: &mut SelectionVector,
) {
    if let Some(values) = column.float_values() {
        seed(values, rows, keep, sel);
    } else if let Some(values) = column.int_values() {
        seed(values, rows, |v| keep(v as f64), sel);
    }
}

impl BoundPredicate {
    /// Evaluates the predicate for one row of `table`.
    pub fn matches(&self, table: &Table, row: usize) -> bool {
        match self {
            BoundPredicate::True => true,
            BoundPredicate::CatEq { column, code } => {
                table.column_at(*column).category_code(row) == Some(*code)
            }
            BoundPredicate::NumGt { column, threshold } => table
                .column_at(*column)
                .numeric_value(row)
                .is_some_and(|v| v > *threshold),
            BoundPredicate::NumLt { column, threshold } => table
                .column_at(*column)
                .numeric_value(row)
                .is_some_and(|v| v < *threshold),
            BoundPredicate::NumBetween { column, low, high } => table
                .column_at(*column)
                .numeric_value(row)
                .is_some_and(|v| v >= *low && v <= *high),
            BoundPredicate::And(children) => children.iter().all(|c| c.matches(table, row)),
            BoundPredicate::Or(children) => children.iter().any(|c| c.matches(table, row)),
            BoundPredicate::Not(child) => !child.matches(table, row),
        }
    }

    /// Evaluates the predicate over a whole block as a columnar filter
    /// kernel, returning the selection of matching rows in ascending order.
    ///
    /// The result is exactly the set of rows in `rows` for which
    /// [`Self::matches`] returns true — the batch kernels are an execution
    /// strategy, not a semantic change — but each conjunct touches one
    /// column's raw storage in a tight loop (dictionary codes for `CatEq`,
    /// raw `f64`/`i64` slices for numeric comparisons) instead of walking
    /// the predicate tree per row.
    ///
    /// Leaves and `And`/`Or` roots *seed* the selection straight from the
    /// column scan — for a selective first conjunct the full-range index
    /// vector is never materialized; only `True` and `Not` roots pay for
    /// the dense `0..n` seed before refining.
    pub fn filter_block(&self, table: &Table, rows: std::ops::Range<usize>) -> SelectionVector {
        let mut sel = SelectionVector::empty();
        self.filter_block_scratch(table, rows, &mut sel, &mut SelectionScratch::new());
        sel
    }

    /// [`Self::filter_block`] writing into a caller-owned selection, with a
    /// caller-owned scratch pool for the temporaries `Or` and `Not` need —
    /// the form the scan loop uses. Blocks are small (the paper scans
    /// 25-row blocks), so the loop calls this tens of thousands of times per
    /// query, and reusing the root selection and the nested boolean
    /// predicates' buffers across blocks keeps allocation out of the
    /// kernels.
    pub fn filter_block_scratch(
        &self,
        table: &Table,
        rows: std::ops::Range<usize>,
        sel: &mut SelectionVector,
        scratch: &mut SelectionScratch,
    ) {
        debug_assert!(
            rows.end <= u32::MAX as usize,
            "row index overflows the u32 selection representation"
        );
        sel.clear();
        match self {
            BoundPredicate::True => sel.reset_to_all(rows),
            BoundPredicate::CatEq { column, code } => {
                if let Some(codes) = table.column_at(*column).category_codes() {
                    seed(codes, rows, |c| c == *code, sel);
                }
            }
            BoundPredicate::NumGt { column, threshold } => {
                seed_numeric(table.column_at(*column), rows, |v| v > *threshold, sel);
            }
            BoundPredicate::NumLt { column, threshold } => {
                seed_numeric(table.column_at(*column), rows, |v| v < *threshold, sel);
            }
            BoundPredicate::NumBetween { column, low, high } => {
                seed_numeric(
                    table.column_at(*column),
                    rows,
                    |v| v >= *low && v <= *high,
                    sel,
                );
            }
            BoundPredicate::And(children) => match children.split_first() {
                None => sel.reset_to_all(rows),
                Some((first, rest)) => {
                    first.filter_block_scratch(table, rows, sel, scratch);
                    for child in rest {
                        if sel.is_empty() {
                            break;
                        }
                        child.refine_scratch(table, sel, scratch);
                    }
                }
            },
            BoundPredicate::Or(children) => {
                // One pooled child selection reused across the disjuncts
                // (and, via the scratch, across blocks).
                let mut child_sel = scratch.take();
                for child in children {
                    child.filter_block_scratch(table, rows.clone(), &mut child_sel, scratch);
                    sel.union_with(&child_sel);
                }
                scratch.put(child_sel);
            }
            BoundPredicate::Not(_) => {
                sel.reset_to_all(rows);
                self.refine_scratch(table, sel, scratch);
            }
        }
    }

    /// Narrows `sel` in place to the rows satisfying this predicate, drawing
    /// `Or`/`Not` temporaries from a caller-owned scratch pool.
    ///
    /// Boolean structure composes as selection-set algebra: `And` refines
    /// the selection through each conjunct in turn (intersection, with an
    /// empty-selection early exit), `Or` unions the children's refinements
    /// of the candidate set, and `Not` subtracts the child's matches from
    /// the candidates.
    pub fn refine_scratch(
        &self,
        table: &Table,
        sel: &mut SelectionVector,
        scratch: &mut SelectionScratch,
    ) {
        match self {
            BoundPredicate::True => {}
            BoundPredicate::CatEq { column, code } => {
                match table.column_at(*column).category_codes() {
                    Some(codes) => {
                        sel.retain(|r| codes.get(r as usize) == Some(code));
                    }
                    // Scalar semantics: a non-categorical column never
                    // equals a dictionary code.
                    None => sel.clear(),
                }
            }
            BoundPredicate::NumGt { column, threshold } => {
                retain_numeric(table.column_at(*column), sel, |v| v > *threshold);
            }
            BoundPredicate::NumLt { column, threshold } => {
                retain_numeric(table.column_at(*column), sel, |v| v < *threshold);
            }
            BoundPredicate::NumBetween { column, low, high } => {
                retain_numeric(table.column_at(*column), sel, |v| v >= *low && v <= *high);
            }
            BoundPredicate::And(children) => {
                for child in children {
                    if sel.is_empty() {
                        break;
                    }
                    child.refine_scratch(table, sel, scratch);
                }
            }
            BoundPredicate::Or(children) => {
                let mut union = scratch.take();
                let mut candidate = scratch.take();
                for child in children {
                    candidate.clone_from(sel);
                    child.refine_scratch(table, &mut candidate, scratch);
                    union.union_with(&candidate);
                }
                std::mem::swap(sel, &mut union);
                scratch.put(union);
                scratch.put(candidate);
            }
            BoundPredicate::Not(child) => {
                let mut matched = scratch.take();
                matched.clone_from(sel);
                child.refine_scratch(table, &mut matched, scratch);
                sel.subtract(&matched);
                scratch.put(matched);
            }
        }
    }

    /// The column indexes this predicate reads, in first-occurrence order —
    /// the engine's projection pushdown decodes exactly these (plus the
    /// target and group-by columns).
    pub fn referenced_columns(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            BoundPredicate::True => {}
            BoundPredicate::CatEq { column, .. }
            | BoundPredicate::NumGt { column, .. }
            | BoundPredicate::NumLt { column, .. }
            | BoundPredicate::NumBetween { column, .. } => {
                if !out.contains(column) {
                    out.push(*column);
                }
            }
            BoundPredicate::And(children) | BoundPredicate::Or(children) => {
                for c in children {
                    c.collect_columns(out);
                }
            }
            BoundPredicate::Not(child) => child.collect_columns(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    fn table() -> Table {
        Table::new(vec![
            Column::float("delay", vec![5.0, -2.0, 12.0, 0.0, 30.0]),
            Column::categorical("airline", &["UA", "AA", "UA", "DL", "AA"]),
            Column::int("dep_time", vec![900, 1200, 1800, 600, 2300]),
        ])
        .unwrap()
    }

    #[test]
    fn true_predicate_matches_everything() {
        let t = table();
        let p = Predicate::True.bind(&t).unwrap();
        assert!((0..5).all(|r| p.matches(&t, r)));
    }

    #[test]
    fn categorical_equality() {
        let t = table();
        let p = Predicate::cat_eq("airline", "UA").bind(&t).unwrap();
        let matches: Vec<usize> = (0..5).filter(|&r| p.matches(&t, r)).collect();
        assert_eq!(matches, vec![0, 2]);
    }

    #[test]
    fn unknown_category_fails_to_bind() {
        let t = table();
        assert!(matches!(
            Predicate::cat_eq("airline", "ZZ").bind(&t),
            Err(StoreError::UnknownCategory { .. })
        ));
    }

    #[test]
    fn numeric_comparisons() {
        let t = table();
        let gt = Predicate::num_gt("dep_time", 1000.0).bind(&t).unwrap();
        assert_eq!(
            (0..5).filter(|&r| gt.matches(&t, r)).collect::<Vec<_>>(),
            vec![1, 2, 4]
        );
        let lt = Predicate::num_lt("delay", 0.0).bind(&t).unwrap();
        assert_eq!(
            (0..5).filter(|&r| lt.matches(&t, r)).collect::<Vec<_>>(),
            vec![1]
        );
        let between = Predicate::NumBetween {
            column: "delay".into(),
            low: 0.0,
            high: 12.0,
        }
        .bind(&t)
        .unwrap();
        assert_eq!(
            (0..5)
                .filter(|&r| between.matches(&t, r))
                .collect::<Vec<_>>(),
            vec![0, 2, 3]
        );
    }

    #[test]
    fn boolean_combinations() {
        let t = table();
        let p = Predicate::And(vec![
            Predicate::cat_eq("airline", "AA"),
            Predicate::num_gt("dep_time", 2000.0),
        ])
        .bind(&t)
        .unwrap();
        assert_eq!(
            (0..5).filter(|&r| p.matches(&t, r)).collect::<Vec<_>>(),
            vec![4]
        );

        let p = Predicate::Or(vec![
            Predicate::cat_eq("airline", "DL"),
            Predicate::num_lt("delay", -1.0),
        ])
        .bind(&t)
        .unwrap();
        assert_eq!(
            (0..5).filter(|&r| p.matches(&t, r)).collect::<Vec<_>>(),
            vec![1, 3]
        );

        let p = Predicate::Not(Box::new(Predicate::cat_eq("airline", "UA")))
            .bind(&t)
            .unwrap();
        assert_eq!(
            (0..5).filter(|&r| p.matches(&t, r)).collect::<Vec<_>>(),
            vec![1, 3, 4]
        );
    }

    #[test]
    fn binding_validates_types() {
        let t = table();
        assert!(matches!(
            Predicate::num_gt("airline", 1.0).bind(&t),
            Err(StoreError::TypeMismatch { .. })
        ));
        assert!(matches!(
            Predicate::cat_eq("delay", "x").bind(&t),
            Err(StoreError::TypeMismatch { .. })
        ));
        assert!(matches!(
            Predicate::num_gt("missing", 1.0).bind(&t),
            Err(StoreError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn range_filter_extraction_is_sound() {
        use crate::zone::RangeFilter;
        let p = Predicate::num_gt("dep_time", 1200.0);
        assert_eq!(
            p.range_filters(),
            vec![("dep_time".to_string(), RangeFilter::Gt(1200.0))]
        );
        // And-conjuncts are extracted recursively.
        let p = Predicate::And(vec![
            Predicate::cat_eq("airline", "UA"),
            Predicate::And(vec![
                Predicate::num_lt("delay", 5.0),
                Predicate::NumBetween {
                    column: "dep_time".into(),
                    low: 600.0,
                    high: 1200.0,
                },
            ]),
        ]);
        assert_eq!(
            p.range_filters(),
            vec![
                ("delay".to_string(), RangeFilter::Lt(5.0)),
                ("dep_time".to_string(), RangeFilter::Between(600.0, 1200.0)),
            ]
        );
        // Or / Not children are never extracted — skipping on them would be
        // unsound.
        let p = Predicate::Or(vec![
            Predicate::num_gt("delay", 5.0),
            Predicate::cat_eq("airline", "UA"),
        ]);
        assert!(p.range_filters().is_empty());
        let p = Predicate::Not(Box::new(Predicate::num_gt("delay", 5.0)));
        assert!(p.range_filters().is_empty());
        assert!(Predicate::True.range_filters().is_empty());
    }

    /// The filter kernels are a pure execution-strategy change: for every
    /// predicate shape (leaves, And/Or/Not nesting), `filter_block` must
    /// select exactly the rows the scalar `matches` accepts, in ascending
    /// order.
    #[test]
    fn filter_block_matches_scalar_evaluation() {
        let t = table();
        let predicates = vec![
            Predicate::True,
            Predicate::cat_eq("airline", "UA"),
            Predicate::num_gt("dep_time", 1000.0),
            Predicate::num_lt("delay", 1.0),
            Predicate::NumBetween {
                column: "delay".into(),
                low: 0.0,
                high: 12.0,
            },
            Predicate::And(vec![
                Predicate::cat_eq("airline", "AA"),
                Predicate::num_gt("dep_time", 1000.0),
            ]),
            Predicate::Or(vec![
                Predicate::cat_eq("airline", "DL"),
                Predicate::num_lt("delay", -1.0),
                Predicate::num_gt("delay", 20.0),
            ]),
            Predicate::Not(Box::new(Predicate::cat_eq("airline", "UA"))),
            Predicate::And(vec![
                Predicate::Not(Box::new(Predicate::num_lt("delay", 0.0))),
                Predicate::Or(vec![
                    Predicate::cat_eq("airline", "UA"),
                    Predicate::And(vec![
                        Predicate::cat_eq("airline", "AA"),
                        Predicate::num_gt("dep_time", 2000.0),
                    ]),
                ]),
            ]),
        ];
        for (i, p) in predicates.iter().enumerate() {
            let bound = p.bind(&t).unwrap();
            // Whole table and a sub-range, to exercise non-zero block starts.
            for rows in [0..5usize, 1..4] {
                let expected: Vec<u32> = rows
                    .clone()
                    .filter(|&r| bound.matches(&t, r))
                    .map(|r| r as u32)
                    .collect();
                let sel = bound.filter_block(&t, rows.clone());
                assert_eq!(sel.rows(), expected, "predicate #{i} over {rows:?}");
            }
        }
    }

    /// The kernels must mirror scalar semantics — not panic — when a
    /// predicate references a column that holds no rows (a zero-row
    /// projection placeholder in a projected block): every row simply
    /// fails to match, as the scalar per-row accessors return `None`.
    #[test]
    fn filter_block_treats_placeholder_columns_as_matching_nothing() {
        let t = Table::with_placeholders(
            vec![
                Column::float("delay", vec![]),
                Column::categorical::<&str>("airline", &[]),
                Column::int("dep_time", vec![700, 1100, 1900]),
            ],
            3,
        )
        .unwrap();
        let schema = Table::new(vec![
            Column::float("delay", vec![0.0]),
            Column::categorical("airline", &["UA"]),
            Column::int("dep_time", vec![0]),
        ])
        .unwrap();
        let live = Predicate::num_gt("dep_time", 1000.0).bind(&schema).unwrap();
        assert_eq!(live.filter_block(&t, 0..3).rows(), &[1, 2]);
        for p in [
            Predicate::num_lt("delay", 10.0),
            Predicate::cat_eq("airline", "UA"),
            Predicate::And(vec![
                Predicate::num_gt("dep_time", 0.0),
                Predicate::num_lt("delay", 10.0),
            ]),
            Predicate::Not(Box::new(Predicate::num_lt("delay", 10.0))),
        ] {
            let bound = p.bind(&schema).unwrap();
            let sel = bound.filter_block(&t, 0..3);
            let expected: Vec<u32> = (0..3u32)
                .filter(|&r| bound.matches(&t, r as usize))
                .collect();
            assert_eq!(sel.rows(), expected, "{p:?}");
        }
    }

    #[test]
    fn referenced_columns_cover_every_leaf_once() {
        let t = table();
        let p = Predicate::And(vec![
            Predicate::num_gt("dep_time", 100.0),
            Predicate::Or(vec![
                Predicate::cat_eq("airline", "UA"),
                Predicate::Not(Box::new(Predicate::num_gt("dep_time", 2000.0))),
            ]),
        ])
        .bind(&t)
        .unwrap();
        assert_eq!(p.referenced_columns(), vec![2, 1]);
        assert!(Predicate::True
            .bind(&t)
            .unwrap()
            .referenced_columns()
            .is_empty());
    }

    #[test]
    fn categorical_equality_extraction() {
        let p = Predicate::cat_eq("airline", "UA");
        assert_eq!(p.categorical_equality(), Some(("airline", "UA")));
        let p = Predicate::And(vec![
            Predicate::num_gt("dep_time", 100.0),
            Predicate::cat_eq("origin", "ORD"),
        ]);
        assert_eq!(p.categorical_equality(), Some(("origin", "ORD")));
        assert_eq!(Predicate::True.categorical_equality(), None);
        assert_eq!(Predicate::num_gt("delay", 0.0).categorical_equality(), None);
    }
}
