//! Order statistics used to summarize per-query timings.

/// The median of `values` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Geometric mean over groups of each group's median — the TPC-H power
/// style summary, in which a fast query weighs as much as a slow one.
/// `None` if any group is empty or holds a non-positive median.
pub fn geomean_of_medians(groups: &[Vec<f64>]) -> Option<f64> {
    if groups.is_empty() {
        return None;
    }
    let mut log_sum = 0.0;
    for g in groups {
        let m = median(g)?;
        if m <= 0.0 {
            return None;
        }
        log_sum += m.ln();
    }
    Some((log_sum / groups.len() as f64).exp())
}

/// Percentiles considered for the tail report, highest last.
const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_TAIL_SAMPLES`] samples strictly beyond its nearest-rank position,
/// with its value. `None` when even the median has too few samples beyond
/// it (fewer than 20 samples).
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let n = sorted.len();
    TAIL_LADDER.iter().rev().find_map(|&p| {
        // The epsilon keeps e.g. 99.9% of 10 000 at rank 9990 despite
        // 99.9 having no exact binary representation.
        let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
        (rank >= 1 && n - rank >= MIN_TAIL_SAMPLES).then(|| (p, sorted[rank - 1]))
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn geomean_weighs_each_group_equally() {
        // Medians 1 and 100: the geometric mean is 10 whatever the group
        // sizes.
        let groups = vec![vec![1.0, 0.5, 2.0], vec![100.0, 90.0, 110.0, 100.0, 100.0]];
        let g = geomean_of_medians(&groups).unwrap();
        assert!((g - 10.0).abs() < 1e-12, "{g}");
        assert_eq!(geomean_of_medians(&[]), None);
        assert_eq!(geomean_of_medians(&[vec![]]), None);
        assert_eq!(geomean_of_medians(&[vec![0.0]]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        // 20 samples: p50 sits at rank 10 with exactly 10 beyond it.
        assert_eq!(tail_percentile(&v), Some((50.0, 10.0)));
        assert_eq!(tail_percentile(&v[..19]), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // 100 samples: p90 has 10 beyond it, p95 only 5.
        assert_eq!(tail_percentile(&v), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((99.0, 990.0)));
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((99.9, 9990.0)));
    }
}
