//! Stopping conditions Ê–Ï for early termination of approximate queries
//! (§4.2), and the corresponding *active-group* rules used by active scanning
//! (§4.3).
//!
//! A stopping condition inspects the per-group confidence intervals of a
//! query and decides whether further sampling could still change the query's
//! (implicit or explicit) answer. The matching active-group rule identifies
//! which groups should be prioritized for additional samples because they are
//! the ones preventing the condition from being satisfied.

use crate::bounder::Ci;

/// A group's current approximation state as seen by the stopping logic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupSnapshot {
    /// Opaque group identifier (assigned by the engine).
    pub group: usize,
    /// Point estimate `ĝ` (running mean) for the group's aggregate.
    pub estimate: f64,
    /// Current `(1 − δ)` confidence interval for the group's aggregate.
    pub ci: Ci,
    /// Number of samples that have contributed to this group so far.
    pub samples: u64,
}

/// The stopping conditions of §4.2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StoppingCondition {
    /// Ê Desired samples taken: terminate once every group has received at
    /// least `m` contributing samples.
    SampleCount {
        /// Desired number of samples per group.
        m: u64,
    },
    /// Ë Sufficient absolute accuracy: every group's interval width is below
    /// `epsilon`.
    AbsoluteWidth {
        /// Maximum acceptable interval width.
        epsilon: f64,
    },
    /// Ì Sufficient relative accuracy: every group's relative error
    /// `max{(g_r − ĝ)/g_r, (ĝ − g_l)/g_l}` is below `epsilon`.
    RelativeError {
        /// Maximum acceptable relative error.
        epsilon: f64,
    },
    /// Í Threshold side determined: no group's interval contains `threshold`,
    /// so each group is known (w.h.p.) to lie on one side of it.
    ThresholdSide {
        /// The comparison threshold (e.g. a `HAVING AVG(x) > v` constant).
        threshold: f64,
    },
    /// Î Top-K (or bottom-K) separated: the intervals of the groups with the
    /// `k` largest (`largest = true`) or smallest aggregates do not intersect
    /// the intervals of any remaining group.
    TopKSeparated {
        /// Number of extreme groups that must be separated.
        k: usize,
        /// `true` for top-K (largest aggregates), `false` for bottom-K.
        largest: bool,
    },
    /// Ï Groups ordered correctly: no two group intervals intersect, so the
    /// full ordering of group aggregates is determined.
    GroupsOrdered,
}

impl StoppingCondition {
    /// Whether the condition is satisfied by the given set of group
    /// snapshots.
    ///
    /// An empty snapshot set is considered satisfied only for conditions that
    /// do not require any group information (none of the current conditions),
    /// so this returns `false` on empty input — except `SampleCount { m: 0 }`
    /// which is vacuously satisfied.
    pub fn is_satisfied(&self, groups: &[GroupSnapshot]) -> bool {
        match self {
            StoppingCondition::SampleCount { m } => {
                if *m == 0 {
                    return true;
                }
                !groups.is_empty() && groups.iter().all(|g| g.samples >= *m)
            }
            _ => !groups.is_empty() && self.active_groups(groups).is_empty(),
        }
    }

    /// The verdict and the active groups of one round, with the active set
    /// computed once: every condition but Ê is satisfied exactly when there
    /// are groups and none of them is active. Ê keeps its own test, which
    /// also holds vacuously for `m = 0`.
    pub fn evaluate(&self, groups: &[GroupSnapshot]) -> (bool, Vec<usize>) {
        let active = self.active_groups(groups);
        let satisfied = match self {
            StoppingCondition::SampleCount { .. } => self.is_satisfied(groups),
            _ => !groups.is_empty() && active.is_empty(),
        };
        (satisfied, active)
    }

    /// Whether a particular group is *active*: further samples for it are
    /// needed before this condition can be satisfied (§4.3).
    pub fn group_is_active(&self, group: &GroupSnapshot, all: &[GroupSnapshot]) -> bool {
        match *self {
            StoppingCondition::SampleCount { m } => group.samples < m,
            StoppingCondition::AbsoluteWidth { epsilon } => group.ci.width() >= epsilon,
            StoppingCondition::RelativeError { epsilon } => {
                group.ci.relative_error(group.estimate) >= epsilon
            }
            StoppingCondition::ThresholdSide { threshold } => group.ci.contains(threshold),
            StoppingCondition::TopKSeparated { k, largest } => {
                top_k_group_is_active(group, all, k, largest)
            }
            StoppingCondition::GroupsOrdered => all
                .iter()
                .any(|other| other.group != group.group && other.ci.intersects(&group.ci)),
        }
    }

    /// The set of active groups under this condition.
    ///
    /// Semantically equivalent to filtering with [`Self::group_is_active`];
    /// the group-set conditions use single-pass implementations so that
    /// per-round active-set computation stays `O(G)` for Î and
    /// `O(G log G)` for Ï even for queries with thousands of groups (F-q6
    /// has |DayOfWeek| × |Origin| of them). Î returns its active groups in
    /// input order, Ï in order of their intervals' lower bounds, the other
    /// conditions in input order.
    pub fn active_groups(&self, all: &[GroupSnapshot]) -> Vec<usize> {
        match *self {
            StoppingCondition::TopKSeparated { k, largest } => top_k_active_groups(all, k, largest),
            StoppingCondition::GroupsOrdered => groups_ordered_active_groups(all),
            _ => all
                .iter()
                .filter(|g| self.group_is_active(g, all))
                .map(|g| g.group)
                .collect(),
        }
    }

    /// Short human-readable description (used in logs and harness output).
    pub fn describe(&self) -> String {
        match self {
            StoppingCondition::SampleCount { m } => format!("samples >= {m}"),
            StoppingCondition::AbsoluteWidth { epsilon } => format!("CI width < {epsilon}"),
            StoppingCondition::RelativeError { epsilon } => format!("relative error < {epsilon}"),
            StoppingCondition::ThresholdSide { threshold } => {
                format!("threshold {threshold} outside every CI")
            }
            StoppingCondition::TopKSeparated { k, largest } => {
                if *largest {
                    format!("top-{k} separated")
                } else {
                    format!("bottom-{k} separated")
                }
            }
            StoppingCondition::GroupsOrdered => "groups fully ordered".to_string(),
        }
    }
}

/// Active-group rule for condition Î (§4.3).
///
/// Sort groups by estimate. With `largest = true`, the top-K groups are those
/// with the K largest estimates; the *separation midpoint* is the midpoint
/// between the smallest estimate among the top-K and the largest estimate
/// among the remaining groups. A top-K group is active if its lower
/// confidence bound crosses the midpoint; a non-top-K group is active if its
/// upper confidence bound crosses the midpoint. (Mirror-image definitions
/// apply for bottom-K.)
fn top_k_group_is_active(
    group: &GroupSnapshot,
    all: &[GroupSnapshot],
    k: usize,
    largest: bool,
) -> bool {
    if all.len() <= k {
        // Every group is trivially in the selected set; nothing to separate.
        return false;
    }
    if k == 0 {
        return false;
    }
    let mut sorted: Vec<&GroupSnapshot> = all.iter().collect();
    // Sort descending by estimate for top-K, ascending for bottom-K, so the
    // "selected" set is always the first k entries.
    if largest {
        sorted.sort_by(|x, y| y.estimate.total_cmp(&x.estimate));
    } else {
        sorted.sort_by(|x, y| x.estimate.total_cmp(&y.estimate));
    }
    let selected_boundary = sorted[k - 1].estimate;
    let rest_boundary = sorted[k].estimate;
    let midpoint = 0.5 * (selected_boundary + rest_boundary);
    let in_selected = sorted[..k].iter().any(|g| g.group == group.group);
    if largest {
        if in_selected {
            // Selected (top) group: active while its lower bound dips below
            // the midpoint.
            group.ci.lo <= midpoint
        } else {
            // Rest: active while its upper bound rises above the midpoint.
            group.ci.hi >= midpoint
        }
    } else if in_selected {
        // Selected (bottom) group: active while its upper bound rises above
        // the midpoint.
        group.ci.hi >= midpoint
    } else {
        group.ci.lo <= midpoint
    }
}

/// Active-group computation for condition Î in O(G): a selection instead of
/// a sort. Only the k-th and (k+1)-th estimates in sort order fix the
/// separation midpoint, and a group is selected exactly when it orders no
/// later than the k-th, so one `select_nth_unstable_by` and one
/// classification pass suffice. Groups order by estimate (descending for
/// top-K), ties by input position, as a stable sort would leave them; that
/// order is total, so the selected set is the one sorting would give.
///
/// The active groups are returned in input order.
fn top_k_active_groups(all: &[GroupSnapshot], k: usize, largest: bool) -> Vec<usize> {
    if all.len() <= k || k == 0 {
        return Vec::new();
    }
    let order = |&x: &usize, &y: &usize| {
        let (ex, ey) = (all[x].estimate, all[y].estimate);
        let by_estimate = if largest {
            ey.total_cmp(&ex)
        } else {
            ex.total_cmp(&ey)
        };
        by_estimate.then(x.cmp(&y))
    };
    let mut positions: Vec<usize> = (0..all.len()).collect();
    let (_, &mut kth, rest) = positions.select_nth_unstable_by(k - 1, order);
    let next = *rest
        .iter()
        .min_by(|x, y| order(x, y))
        .expect("more groups than k");
    let midpoint = 0.5 * (all[kth].estimate + all[next].estimate);
    all.iter()
        .enumerate()
        .filter(|&(pos, g)| {
            let selected = order(&pos, &kth) != std::cmp::Ordering::Greater;
            if largest == selected {
                // A selected top group, or a rest group of bottom-K: active
                // while its lower bound dips below the midpoint.
                g.ci.lo <= midpoint
            } else {
                g.ci.hi >= midpoint
            }
        })
        .map(|(_, g)| g.group)
        .collect()
}

/// Single-pass active-group computation for condition Ï: sort by interval
/// lower bound; a group overlaps some other group iff either the maximum
/// upper bound among groups before it reaches its lower bound, or the next
/// group's lower bound falls below its upper bound.
fn groups_ordered_active_groups(all: &[GroupSnapshot]) -> Vec<usize> {
    if all.len() < 2 {
        return Vec::new();
    }
    let mut sorted: Vec<&GroupSnapshot> = all.iter().collect();
    sorted.sort_by(|x, y| x.ci.lo.total_cmp(&y.ci.lo));
    let mut active = Vec::new();
    let mut prefix_max_hi = f64::NEG_INFINITY;
    for (pos, g) in sorted.iter().enumerate() {
        let overlaps_earlier = pos > 0 && prefix_max_hi >= g.ci.lo;
        let overlaps_later = pos + 1 < sorted.len() && sorted[pos + 1].ci.lo <= g.ci.hi;
        if overlaps_earlier || overlaps_later {
            active.push(g.group);
        }
        prefix_max_hi = prefix_max_hi.max(g.ci.hi);
    }
    active
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(group: usize, estimate: f64, lo: f64, hi: f64, samples: u64) -> GroupSnapshot {
        GroupSnapshot {
            group,
            estimate,
            ci: Ci::new(lo, hi),
            samples,
        }
    }

    #[test]
    fn sample_count_condition() {
        let cond = StoppingCondition::SampleCount { m: 100 };
        let groups = vec![snap(0, 1.0, 0.0, 2.0, 150), snap(1, 1.0, 0.0, 2.0, 50)];
        assert!(!cond.is_satisfied(&groups));
        assert_eq!(cond.active_groups(&groups), vec![1]);

        let done = vec![snap(0, 1.0, 0.0, 2.0, 150), snap(1, 1.0, 0.0, 2.0, 100)];
        assert!(cond.is_satisfied(&done));

        assert!(StoppingCondition::SampleCount { m: 0 }.is_satisfied(&[]));
        assert!(!cond.is_satisfied(&[]));
    }

    #[test]
    fn absolute_width_condition() {
        let cond = StoppingCondition::AbsoluteWidth { epsilon: 1.0 };
        let groups = vec![snap(0, 5.0, 4.8, 5.2, 10), snap(1, 5.0, 3.0, 7.0, 10)];
        assert!(!cond.is_satisfied(&groups));
        assert_eq!(cond.active_groups(&groups), vec![1]);
        let tight = vec![snap(0, 5.0, 4.8, 5.2, 10)];
        assert!(cond.is_satisfied(&tight));
    }

    #[test]
    fn relative_error_condition() {
        let cond = StoppingCondition::RelativeError { epsilon: 0.5 };
        // CI [8, 12] around 10: relative error 0.25 < 0.5 → inactive.
        let ok = snap(0, 10.0, 8.0, 12.0, 10);
        // CI [2, 30] around 10: relative error max((30-10)/30, (10-2)/2) = 4 → active.
        let bad = snap(1, 10.0, 2.0, 30.0, 10);
        let groups = vec![ok, bad];
        assert!(!cond.is_satisfied(&groups));
        assert_eq!(cond.active_groups(&groups), vec![1]);
        assert!(cond.is_satisfied(&[ok]));
    }

    #[test]
    fn threshold_side_condition() {
        let cond = StoppingCondition::ThresholdSide { threshold: 0.0 };
        let above = snap(0, 3.0, 1.0, 5.0, 10);
        let below = snap(1, -2.0, -4.0, -1.0, 10);
        let straddling = snap(2, 0.5, -0.5, 1.5, 10);
        assert!(cond.is_satisfied(&[above, below]));
        assert!(!cond.is_satisfied(&[above, below, straddling]));
        assert_eq!(cond.active_groups(&[above, below, straddling]), vec![2]);
    }

    #[test]
    fn groups_ordered_condition() {
        let cond = StoppingCondition::GroupsOrdered;
        let disjoint = vec![
            snap(0, 1.0, 0.5, 1.5, 10),
            snap(1, 3.0, 2.5, 3.5, 10),
            snap(2, 5.0, 4.5, 5.5, 10),
        ];
        assert!(cond.is_satisfied(&disjoint));

        let overlapping = vec![
            snap(0, 1.0, 0.5, 2.6, 10),
            snap(1, 3.0, 2.5, 3.5, 10),
            snap(2, 5.0, 4.5, 5.5, 10),
        ];
        assert!(!cond.is_satisfied(&overlapping));
        let active = cond.active_groups(&overlapping);
        assert!(active.contains(&0) && active.contains(&1));
        assert!(!active.contains(&2));
    }

    #[test]
    fn top_k_separated_condition() {
        let cond = StoppingCondition::TopKSeparated {
            k: 1,
            largest: true,
        };
        // Group 2 clearly above all others.
        let separated = vec![
            snap(0, 1.0, 0.5, 1.5, 10),
            snap(1, 2.0, 1.5, 2.5, 10),
            snap(2, 10.0, 9.0, 11.0, 10),
        ];
        assert!(cond.is_satisfied(&separated));

        // The top group's lower bound dips below the midpoint with group 1.
        // Midpoint between 10 (top) and 2 (next) is 6 → lower bound 5 < 6.
        let entangled = vec![
            snap(0, 1.0, 0.5, 1.5, 10),
            snap(1, 2.0, 1.5, 2.5, 10),
            snap(2, 10.0, 5.0, 15.0, 10),
        ];
        assert!(!cond.is_satisfied(&entangled));
        assert_eq!(cond.active_groups(&entangled), vec![2]);
    }

    #[test]
    fn bottom_k_separated_condition() {
        let cond = StoppingCondition::TopKSeparated {
            k: 2,
            largest: false,
        };
        // Bottom-2 = groups 0 and 1; midpoint between estimates 2 (2nd
        // smallest) and 5 (3rd smallest) is 3.5.
        let separated = vec![
            snap(0, 1.0, 0.5, 1.5, 10),
            snap(1, 2.0, 1.5, 2.5, 10),
            snap(2, 5.0, 4.5, 5.5, 10),
            snap(3, 9.0, 8.5, 9.5, 10),
        ];
        assert!(cond.is_satisfied(&separated));

        // Group 2's lower bound dips below 3.5 → active; bottom groups fine.
        let entangled = vec![
            snap(0, 1.0, 0.5, 1.5, 10),
            snap(1, 2.0, 1.5, 2.5, 10),
            snap(2, 5.0, 3.0, 7.0, 10),
            snap(3, 9.0, 8.5, 9.5, 10),
        ];
        assert!(!cond.is_satisfied(&entangled));
        assert_eq!(cond.active_groups(&entangled), vec![2]);
    }

    #[test]
    fn top_k_with_fewer_groups_than_k_is_satisfied() {
        let cond = StoppingCondition::TopKSeparated {
            k: 5,
            largest: true,
        };
        let groups = vec![snap(0, 1.0, 0.0, 2.0, 10), snap(1, 2.0, 1.0, 3.0, 10)];
        assert!(cond.is_satisfied(&groups));
        assert!(cond.active_groups(&groups).is_empty());
    }

    #[test]
    fn describe_is_informative() {
        assert!(StoppingCondition::SampleCount { m: 7 }
            .describe()
            .contains('7'));
        assert!(StoppingCondition::ThresholdSide { threshold: 2.5 }
            .describe()
            .contains("2.5"));
        assert!(StoppingCondition::TopKSeparated {
            k: 3,
            largest: false
        }
        .describe()
        .contains("bottom-3"));
        assert!(StoppingCondition::GroupsOrdered
            .describe()
            .contains("ordered"));
    }

    #[test]
    fn empty_groups_not_satisfied_for_interval_conditions() {
        assert!(!StoppingCondition::AbsoluteWidth { epsilon: 1.0 }.is_satisfied(&[]));
        assert!(!StoppingCondition::GroupsOrdered.is_satisfied(&[]));
    }

    /// The single-pass active-set computations for Î and Ï must agree exactly
    /// with the per-group pairwise definitions across many pseudo-random
    /// snapshot configurations.
    #[test]
    fn fast_active_set_matches_pairwise_definition() {
        // Simple deterministic LCG so the test needs no RNG dependency.
        let mut seed: u64 = 0x1234_5678;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / (u32::MAX as f64)
        };
        for trial in 0..200 {
            let n = 2 + (trial % 12);
            let groups: Vec<GroupSnapshot> = (0..n)
                .map(|g| {
                    let estimate = next() * 100.0;
                    let half = next() * 30.0;
                    snap(g, estimate, estimate - half, estimate + half, 100)
                })
                .collect();
            let conditions = [
                StoppingCondition::GroupsOrdered,
                StoppingCondition::TopKSeparated {
                    k: 1,
                    largest: true,
                },
                StoppingCondition::TopKSeparated {
                    k: 2,
                    largest: true,
                },
                StoppingCondition::TopKSeparated {
                    k: 2,
                    largest: false,
                },
                StoppingCondition::TopKSeparated {
                    k: n + 1,
                    largest: true,
                },
            ];
            for cond in conditions {
                let mut fast = cond.active_groups(&groups);
                let mut pairwise: Vec<usize> = groups
                    .iter()
                    .filter(|g| cond.group_is_active(g, &groups))
                    .map(|g| g.group)
                    .collect();
                fast.sort_unstable();
                pairwise.sort_unstable();
                assert_eq!(fast, pairwise, "mismatch for {cond:?} on trial {trial}");
            }
        }
    }

    /// The sort-based computation of Î's active set that the selection
    /// replaced: a stable sort by estimate, the midpoint between the k-th
    /// and (k+1)-th, every group classified in sorted order.
    fn top_k_active_by_sort(all: &[GroupSnapshot], k: usize, largest: bool) -> Vec<usize> {
        if all.len() <= k || k == 0 {
            return Vec::new();
        }
        let mut sorted: Vec<&GroupSnapshot> = all.iter().collect();
        if largest {
            sorted.sort_by(|x, y| y.estimate.total_cmp(&x.estimate));
        } else {
            sorted.sort_by(|x, y| x.estimate.total_cmp(&y.estimate));
        }
        let midpoint = 0.5 * (sorted[k - 1].estimate + sorted[k].estimate);
        let mut active = Vec::new();
        for (pos, g) in sorted.iter().enumerate() {
            let selected = pos < k;
            let is_active = if largest == selected {
                g.ci.lo <= midpoint
            } else {
                g.ci.hi >= midpoint
            };
            if is_active {
                active.push(g.group);
            }
        }
        active
    }

    #[test]
    fn top_k_selection_matches_the_sort_based_reference() {
        let mut seed: u64 = 0x9E37_79B9;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as f64 / f64::from(u32::MAX)
        };
        for trial in 0..400 {
            let n = 1 + trial % 40;
            // Every third trial draws estimates from four values, so ties
            // straddle the k boundary; group ids are not positions, so a
            // tie broken by id instead of position would show.
            let tied = trial % 3 == 0;
            let groups: Vec<GroupSnapshot> = (0..n)
                .map(|pos| {
                    let estimate = if tied {
                        (next() * 4.0).floor() * 10.0
                    } else {
                        next() * 100.0
                    };
                    let (below, above) = (next() * 15.0, next() * 15.0);
                    snap(
                        (pos * 37 + 11) % 41,
                        estimate,
                        estimate - below,
                        estimate + above,
                        10,
                    )
                })
                .collect();
            for k in [0, 1, 2, n / 2, n.saturating_sub(1), n, n + 3] {
                for largest in [true, false] {
                    let fast = top_k_active_groups(&groups, k, largest);
                    let mut reference = top_k_active_by_sort(&groups, k, largest);
                    // The selection reports in input order.
                    let position = |id: &usize| groups.iter().position(|g| g.group == *id);
                    assert!(fast.windows(2).all(|w| position(&w[0]) < position(&w[1])));
                    let mut sorted_fast = fast.clone();
                    sorted_fast.sort_unstable();
                    reference.sort_unstable();
                    assert_eq!(
                        sorted_fast, reference,
                        "trial {trial}, n {n}, k {k}, largest {largest}"
                    );
                }
            }
        }
        // Ties exactly at the boundary: three groups share the k-th
        // estimate; the earliest positions are selected.
        let groups = [
            snap(13, 5.0, 4.0, 6.0, 1),
            snap(11, 9.0, 8.9, 9.1, 1),
            snap(14, 5.0, 4.0, 6.0, 1),
            snap(10, 5.0, 4.0, 6.0, 1),
            snap(12, 1.0, 0.0, 2.0, 1),
        ];
        for k in 1..=4 {
            for largest in [true, false] {
                let mut fast = top_k_active_groups(&groups, k, largest);
                let mut reference = top_k_active_by_sort(&groups, k, largest);
                fast.sort_unstable();
                reference.sort_unstable();
                assert_eq!(fast, reference, "k {k}, largest {largest}");
            }
        }
    }

    /// A NaN estimate or bound orders by `total_cmp` instead of panicking
    /// inside the sort; the finite groups keep their order.
    #[test]
    fn nan_estimates_and_bounds_do_not_panic_the_sorts() {
        let nan = GroupSnapshot {
            group: 3,
            estimate: f64::NAN,
            ci: Ci {
                lo: f64::NAN,
                hi: f64::NAN,
            },
            samples: 10,
        };
        let groups = vec![
            snap(0, 10.0, 9.0, 11.0, 100),
            snap(1, 50.0, 49.0, 51.0, 100),
            snap(2, 30.0, 29.0, 31.0, 100),
            nan,
        ];
        for largest in [true, false] {
            let cond = StoppingCondition::TopKSeparated { k: 1, largest };
            let _ = cond.is_satisfied(&groups);
            let _ = cond.group_is_active(&groups[0], &groups);
        }
        let _ = StoppingCondition::GroupsOrdered.active_groups(&groups);
        // Among finite groups the separation is still decided correctly.
        let finite = &groups[..3];
        let top = StoppingCondition::TopKSeparated {
            k: 1,
            largest: true,
        };
        assert!(top.is_satisfied(finite));
        assert!(StoppingCondition::GroupsOrdered.is_satisfied(finite));
    }
}
