//! Query results: per-group estimates with confidence intervals, the derived
//! group selection, and execution metrics.

use fastframe_core::bounder::Ci;

use crate::metrics::QueryMetrics;
use crate::query::{AggQuery, CmpOp};

/// Identifies one group of a GROUP BY query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroupKey {
    /// Dictionary codes of the group-by columns, in query order. Empty for
    /// ungrouped queries.
    pub codes: Vec<u32>,
    /// Human-readable labels corresponding to `codes`.
    pub labels: Vec<String>,
}

impl GroupKey {
    /// The key of the single implicit group of an ungrouped query.
    pub fn global() -> Self {
        Self {
            codes: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Renders the key for display (`"ORD"`, `"Mon/ORD"`, or `"<all>"`).
    pub fn display(&self) -> String {
        if self.labels.is_empty() {
            "<all>".to_string()
        } else {
            self.labels.join("/")
        }
    }
}

/// The approximation state of one group at query completion.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupResult {
    /// Group identity.
    pub key: GroupKey,
    /// Point estimate of the group's aggregate (running mean for AVG, scaled
    /// for SUM/COUNT), if any row contributed.
    pub estimate: Option<f64>,
    /// Confidence interval for the group's aggregate.
    pub ci: Ci,
    /// Number of rows that contributed to the group's aggregate.
    pub samples: u64,
    /// Confidence interval for the number of rows in the group's aggregate
    /// view (its COUNT).
    pub count_ci: Ci,
    /// Whether the group's aggregate is exact (every row of its aggregate
    /// view was read).
    pub exact: bool,
}

/// The outcome of executing a query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Query name this result belongs to.
    pub query_name: String,
    /// Per-group approximation states, in discovery order.
    pub groups: Vec<GroupResult>,
    /// Indices into `groups` selected by the query's HAVING / ORDER BY-LIMIT
    /// semantics (all groups when neither clause is present).
    pub selected: Vec<usize>,
    /// Whether the stopping condition was satisfied before the scramble was
    /// exhausted.
    pub converged: bool,
    /// Execution metrics.
    pub metrics: QueryMetrics,
}

impl QueryResult {
    /// The selected groups, resolved.
    pub fn selected_groups(&self) -> Vec<&GroupResult> {
        self.selected.iter().map(|&i| &self.groups[i]).collect()
    }

    /// Labels of the selected groups (convenience for tests and examples).
    pub fn selected_labels(&self) -> Vec<String> {
        self.selected_groups()
            .iter()
            .map(|g| g.key.display())
            .collect()
    }

    /// The single group of an ungrouped query.
    pub fn global(&self) -> Option<&GroupResult> {
        self.groups.first()
    }
}

/// Applies the query's HAVING / ORDER BY-LIMIT semantics to a set of group
/// results, producing the indices of selected groups.
///
/// Selection uses the point estimates; once the query's stopping condition is
/// satisfied those estimates lie on the correct side of every relevant
/// threshold / separation boundary with probability at least `1 − δ`.
pub fn select_groups(query: &AggQuery, groups: &[GroupResult]) -> Vec<usize> {
    let mut indices: Vec<usize> = (0..groups.len())
        .filter(|&i| groups[i].estimate.is_some())
        .collect();

    if let Some(having) = &query.having {
        indices.retain(|&i| {
            let est = groups[i].estimate.expect("filtered to Some above");
            match having.op {
                CmpOp::Gt => est > having.threshold,
                CmpOp::Lt => est < having.threshold,
            }
        });
    }

    if let Some(order) = &query.order {
        indices.sort_by(|&x, &y| {
            let ex = groups[x].estimate.expect("filtered to Some above");
            let ey = groups[y].estimate.expect("filtered to Some above");
            if order.descending {
                ey.total_cmp(&ex)
            } else {
                ex.total_cmp(&ey)
            }
        });
        indices.truncate(order.limit);
    }

    indices
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::AggQuery;
    use fastframe_store::expr::Expr;

    fn group(label: &str, estimate: f64) -> GroupResult {
        GroupResult {
            key: GroupKey {
                codes: vec![0],
                labels: vec![label.to_string()],
            },
            estimate: Some(estimate),
            ci: Ci::new(estimate - 1.0, estimate + 1.0),
            samples: 100,
            count_ci: Ci::new(90.0, 110.0),
            exact: false,
        }
    }

    #[test]
    fn group_key_display() {
        assert_eq!(GroupKey::global().display(), "<all>");
        let k = GroupKey {
            codes: vec![1, 2],
            labels: vec!["Mon".into(), "ORD".into()],
        };
        assert_eq!(k.display(), "Mon/ORD");
    }

    #[test]
    fn having_selection() {
        let q = AggQuery::avg("q", Expr::col("x"))
            .group_by("g")
            .having_gt(5.0)
            .build();
        let groups = vec![group("a", 3.0), group("b", 7.0), group("c", 5.5)];
        assert_eq!(select_groups(&q, &groups), vec![1, 2]);

        let q = AggQuery::avg("q", Expr::col("x"))
            .group_by("g")
            .having_lt(5.0)
            .build();
        assert_eq!(select_groups(&q, &groups), vec![0]);
    }

    #[test]
    fn order_limit_selection() {
        let q = AggQuery::avg("q", Expr::col("x"))
            .group_by("g")
            .order_desc_limit(2)
            .build();
        let groups = vec![
            group("a", 3.0),
            group("b", 7.0),
            group("c", 5.5),
            group("d", 9.0),
        ];
        assert_eq!(select_groups(&q, &groups), vec![3, 1]);

        let q = AggQuery::avg("q", Expr::col("x"))
            .group_by("g")
            .order_asc_limit(2)
            .build();
        assert_eq!(select_groups(&q, &groups), vec![0, 2]);
    }

    /// A NaN estimate sorts by `total_cmp` (above +∞) instead of panicking
    /// in ORDER BY; the finite groups keep their relative order.
    #[test]
    fn order_limit_with_a_nan_estimate_does_not_panic() {
        let nan = GroupResult {
            estimate: Some(f64::NAN),
            ci: Ci {
                lo: f64::NAN,
                hi: f64::NAN,
            },
            ..group("nan", 0.0)
        };
        let groups = vec![group("a", 3.0), nan, group("b", 7.0)];
        let desc = AggQuery::avg("q", Expr::col("x"))
            .group_by("g")
            .order_desc_limit(3)
            .build();
        assert_eq!(select_groups(&desc, &groups), vec![1, 2, 0]);
        let asc = AggQuery::avg("q", Expr::col("x"))
            .group_by("g")
            .order_asc_limit(2)
            .build();
        assert_eq!(select_groups(&asc, &groups), vec![0, 2]);
    }

    #[test]
    fn no_clause_selects_everything_with_estimates() {
        let q = AggQuery::avg("q", Expr::col("x")).group_by("g").build();
        let mut groups = vec![group("a", 3.0), group("b", 7.0)];
        groups.push(GroupResult {
            estimate: None,
            ..group("empty", 0.0)
        });
        assert_eq!(select_groups(&q, &groups), vec![0, 1]);
    }

    #[test]
    fn result_accessors() {
        let q = AggQuery::avg("q", Expr::col("x")).group_by("g").build();
        let groups = vec![group("a", 3.0), group("b", 7.0)];
        let selected = select_groups(&q, &groups);
        let r = QueryResult {
            query_name: "q".into(),
            groups,
            selected,
            converged: true,
            metrics: QueryMetrics::default(),
        };
        assert_eq!(r.selected_labels(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(r.selected_groups().len(), 2);
        assert_eq!(r.global().unwrap().key.display(), "a");
    }
}
