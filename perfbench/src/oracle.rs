//! The correctness oracle: each template's per-group AVG and selected set,
//! computed by a plain fold over the generated rows. It works on its own
//! copy of the columns as plain vectors and shares no code with the
//! engine's scan, binding or selection paths, so an engine bug cannot hide
//! in it. The same fold is the fixed reference scan the time metrics are
//! measured against.

use std::collections::{BTreeMap, HashMap};

use fastframe_engine::query::{AggQuery, AggregateFunction, CmpOp};
use fastframe_engine::result::{GroupResult, QueryResult};
use fastframe_store::column::ColumnData;
use fastframe_store::expr::Expr;
use fastframe_store::predicate::Predicate;
use fastframe_store::table::Table;

/// Relative tolerance between two summation orders of the same values.
const FLOAT_TOL: f64 = 1e-9;

/// One column as a plain vector.
enum Col {
    Num(Vec<f64>),
    Cat { codes: Vec<u32>, dict: Vec<String> },
}

/// The generated rows, copied out of the table once.
pub struct Rows {
    cols: HashMap<String, Col>,
}

impl Rows {
    pub fn new(table: &Table) -> Self {
        let cols = table
            .columns()
            .iter()
            .map(|c| {
                let col = match c.data() {
                    ColumnData::Float64(v) => Col::Num(v.clone()),
                    ColumnData::Int64(v) => Col::Num(v.iter().map(|&x| x as f64).collect()),
                    ColumnData::Categorical { dictionary, codes } => Col::Cat {
                        codes: codes.clone(),
                        dict: dictionary.to_vec(),
                    },
                };
                (c.name().to_string(), col)
            })
            .collect();
        Self { cols }
    }

    fn col(&self, name: &str) -> Result<&Col, String> {
        self.cols
            .get(name)
            .ok_or_else(|| format!("no column {name}"))
    }

    fn num(&self, name: &str) -> Result<&[f64], String> {
        match self.col(name)? {
            Col::Num(v) => Ok(v),
            Col::Cat { .. } => Err(format!("column {name} is not numeric")),
        }
    }

    fn cat(&self, name: &str) -> Result<(&[u32], &[String]), String> {
        match self.col(name)? {
            Col::Cat { codes, dict } => Ok((codes, dict)),
            Col::Num(_) => Err(format!("column {name} is not categorical")),
        }
    }
}

/// The reference answer of one template.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Per-group AVG, keyed by the group's display label (`"ORD"`,
    /// `"Mon/ORD"`, `"<all>"`). Groups with no selected row are absent.
    pub means: BTreeMap<String, f64>,
    /// Labels of the selected groups, sorted.
    pub selected: Vec<String>,
}

/// A predicate resolved against the plain columns.
enum RowPred<'r> {
    True,
    CatEq(&'r [u32], Option<u32>),
    Gt(&'r [f64], f64),
    Lt(&'r [f64], f64),
    Between(&'r [f64], f64, f64),
    And(Vec<RowPred<'r>>),
    Or(Vec<RowPred<'r>>),
    Not(Box<RowPred<'r>>),
}

impl<'r> RowPred<'r> {
    fn resolve(p: &Predicate, rows: &'r Rows) -> Result<Self, String> {
        let all = |ps: &[Predicate]| -> Result<Vec<RowPred<'r>>, String> {
            ps.iter().map(|p| Self::resolve(p, rows)).collect()
        };
        Ok(match p {
            Predicate::True => RowPred::True,
            Predicate::CatEq { column, value } => {
                let (codes, dict) = rows.cat(column)?;
                let code = dict.iter().position(|d| d == value).map(|i| i as u32);
                RowPred::CatEq(codes, code)
            }
            Predicate::NumGt { column, threshold } => RowPred::Gt(rows.num(column)?, *threshold),
            Predicate::NumLt { column, threshold } => RowPred::Lt(rows.num(column)?, *threshold),
            Predicate::NumBetween { column, low, high } => {
                RowPred::Between(rows.num(column)?, *low, *high)
            }
            Predicate::And(ps) => RowPred::And(all(ps)?),
            Predicate::Or(ps) => RowPred::Or(all(ps)?),
            Predicate::Not(p) => RowPred::Not(Box::new(Self::resolve(p, rows)?)),
        })
    }

    fn holds(&self, row: usize) -> bool {
        match self {
            RowPred::True => true,
            RowPred::CatEq(codes, code) => Some(codes[row]) == *code,
            RowPred::Gt(v, t) => v[row] > *t,
            RowPred::Lt(v, t) => v[row] < *t,
            RowPred::Between(v, lo, hi) => v[row] >= *lo && v[row] <= *hi,
            RowPred::And(ps) => ps.iter().all(|p| p.holds(row)),
            RowPred::Or(ps) => ps.iter().any(|p| p.holds(row)),
            RowPred::Not(p) => !p.holds(row),
        }
    }
}

/// Computes the reference answer of an AVG query over a single column.
pub fn reference(rows: &Rows, query: &AggQuery) -> Result<Reference, String> {
    if query.aggregate != AggregateFunction::Avg {
        return Err(format!("{}: the oracle covers AVG only", query.name));
    }
    let Expr::Column(target) = &query.target else {
        return Err(format!(
            "{}: the oracle covers column targets only",
            query.name
        ));
    };
    let target = rows.num(target)?;
    let pred = RowPred::resolve(&query.filter, rows)?;
    // Groups are indexed densely by the mixed-radix number of their
    // dictionary codes, so the fold allocates nothing per row.
    let group_cols: Vec<(&[u32], &[String])> = query
        .group_by
        .iter()
        .map(|g| rows.cat(g))
        .collect::<Result<_, _>>()?;
    let slots: usize = group_cols.iter().map(|(_, d)| d.len()).product();
    let mut acc = vec![(0.0f64, 0u64); slots];
    for (row, &v) in target.iter().enumerate() {
        if !pred.holds(row) {
            continue;
        }
        let slot = group_cols
            .iter()
            .fold(0, |k, (codes, dict)| k * dict.len() + codes[row] as usize);
        acc[slot].0 += v;
        acc[slot].1 += 1;
    }
    let label = |mut slot: usize| -> String {
        if group_cols.is_empty() {
            return "<all>".to_string();
        }
        let mut parts = vec![""; group_cols.len()];
        for (i, (_, dict)) in group_cols.iter().enumerate().rev() {
            parts[i] = &dict[slot % dict.len()];
            slot /= dict.len();
        }
        parts.join("/")
    };
    let means: BTreeMap<String, f64> = acc
        .iter()
        .enumerate()
        .filter(|(_, (_, n))| *n > 0)
        .map(|(slot, (sum, n))| (label(slot), sum / *n as f64))
        .collect();

    let mut selected: Vec<(&String, f64)> = means
        .iter()
        .filter(|(_, &m)| match &query.having {
            None => true,
            Some(h) => match h.op {
                CmpOp::Gt => m > h.threshold,
                CmpOp::Lt => m < h.threshold,
            },
        })
        .map(|(k, &m)| (k, m))
        .collect();
    if let Some(order) = &query.order {
        selected.sort_by(|a, b| {
            if order.descending {
                b.1.total_cmp(&a.1)
            } else {
                a.1.total_cmp(&b.1)
            }
        });
        selected.truncate(order.limit);
    }
    let mut selected: Vec<String> = selected.into_iter().map(|(k, _)| k.clone()).collect();
    selected.sort();
    Ok(Reference { means, selected })
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= FLOAT_TOL * b.abs().max(1.0)
}

fn sorted_selection(result: &QueryResult) -> Vec<String> {
    let mut s = result.selected_labels();
    s.sort();
    s
}

/// Checks an approximate answer: the same selected set, and every group's
/// interval holding the reference value (at δ = 1e-15 a miss is a bug).
pub fn check_approx(reference: &Reference, result: &QueryResult) -> Result<(), String> {
    let selected = sorted_selection(result);
    if selected != reference.selected {
        return Err(format!(
            "selection {:?} differs from the oracle's {:?}",
            selected, reference.selected
        ));
    }
    let by_label: HashMap<String, &GroupResult> =
        result.groups.iter().map(|g| (g.key.display(), g)).collect();
    for (label, &truth) in &reference.means {
        let Some(g) = by_label.get(label) else {
            return Err(format!("group {label} missing from the answer"));
        };
        let tol = FLOAT_TOL * truth.abs().max(1.0);
        if !(g.ci.lo - tol <= truth && truth <= g.ci.hi + tol) {
            return Err(format!(
                "group {label}: interval [{}, {}] excludes the reference {truth}",
                g.ci.lo, g.ci.hi
            ));
        }
    }
    Ok(())
}

/// Checks an Exact answer: the same selected set and every group's value
/// equal to the reference within float tolerance.
pub fn check_exact(reference: &Reference, result: &QueryResult) -> Result<(), String> {
    let selected = sorted_selection(result);
    if selected != reference.selected {
        return Err(format!(
            "selection {:?} differs from the oracle's {:?}",
            selected, reference.selected
        ));
    }
    let answered = result
        .groups
        .iter()
        .filter(|g| g.estimate.is_some())
        .count();
    if answered != reference.means.len() {
        return Err(format!(
            "{answered} groups answered, the oracle has {}",
            reference.means.len()
        ));
    }
    for g in &result.groups {
        let Some(est) = g.estimate else { continue };
        let label = g.key.display();
        match reference.means.get(&label) {
            Some(&truth) if close(est, truth) => {}
            Some(&truth) => return Err(format!("group {label}: {est} != reference {truth}")),
            None => return Err(format!("group {label} is not in the oracle")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastframe_store::column::Column;

    fn rows() -> Rows {
        Rows::new(
            &Table::new(vec![
                Column::categorical("g", &["a", "b", "a", "c", "b", "a"]),
                Column::float("x", vec![1.0, 10.0, 3.0, -4.0, 20.0, 5.0]),
                Column::int("t", vec![1, 2, 3, 4, 5, 6]),
            ])
            .unwrap(),
        )
    }

    #[test]
    fn grouped_having_and_order() {
        let q = AggQuery::avg("q", Expr::col("x"))
            .group_by("g")
            .having_gt(0.0)
            .build();
        let r = reference(&rows(), &q).unwrap();
        assert_eq!(r.means["a"], 3.0);
        assert_eq!(r.means["b"], 15.0);
        assert_eq!(r.means["c"], -4.0);
        assert_eq!(r.selected, vec!["a", "b"]);

        let q = AggQuery::avg("q", Expr::col("x"))
            .group_by("g")
            .order_asc_limit(1)
            .build();
        assert_eq!(reference(&rows(), &q).unwrap().selected, vec!["c"]);
    }

    #[test]
    fn filtered_global() {
        let q = AggQuery::avg("q", Expr::col("x"))
            .filter(Predicate::And(vec![
                Predicate::num_gt("t", 1.0),
                Predicate::Not(Box::new(Predicate::cat_eq("g", "c"))),
            ]))
            .build();
        let r = reference(&rows(), &q).unwrap();
        assert_eq!(r.means.len(), 1);
        assert_eq!(r.means["<all>"], (10.0 + 3.0 + 20.0 + 5.0) / 4.0);
        assert_eq!(r.selected, vec!["<all>"]);
    }
}
