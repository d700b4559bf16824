//! Order statistics for timings.

/// Percentiles the benchmark may report, lowest first.
const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The smallest number of samples that must lie beyond a reported
/// percentile: a tail read off fewer samples is one outlier wide.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Each unit's upper-quartile time over several passes, where
/// `passes[p][u]` is unit `u`'s time in pass `p` (the nearest-rank 75th
/// percentile: with up to three passes, the slowest).
///
/// The development host switches every few seconds between a steady slow
/// speed and a fast but noisy one (README.md). A unit's slow-state time is
/// the steady one, and at least a quarter of a unit's passes land in the
/// slow state in practice, so the upper quartile reads it without picking
/// up the rare preempted pass that the maximum would.
///
/// # Panics
///
/// Panics when the passes do not all time the same units.
pub fn upper_quartile_per_unit(passes: &[Vec<f64>]) -> Vec<f64> {
    let n = passes.first().map_or(0, Vec::len);
    (0..n)
        .map(|u| {
            let xs: Vec<f64> = passes
                .iter()
                .map(|p| {
                    assert_eq!(p.len(), n, "every pass times the same units");
                    p[u]
                })
                .collect();
            nearest_rank_value(&xs, 75.0).expect("at least one pass")
        })
        .collect()
}

/// `true` when at least [`MIN_BEYOND`] of `n` samples lie strictly beyond
/// the nearest-rank `p`-th percentile.
pub fn has_tail(n: usize, p: f64) -> bool {
    n > 0 && n - nearest_rank(n, p) >= MIN_BEYOND
}

/// The highest percentile of the ladder (p50, p90, p99, p99.9) that
/// keeps [`MIN_BEYOND`] samples beyond it, or `None` when even the median
/// does not.
pub fn highest_percentile(n: usize) -> Option<f64> {
    LADDER.iter().copied().rev().find(|&p| has_tail(n, p))
}

/// The nearest-rank `p`-th percentile of `xs`, or `None` when fewer than
/// [`MIN_BEYOND`] samples would lie beyond it.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if has_tail(xs.len(), p) {
        nearest_rank_value(xs, p)
    } else {
        None
    }
}

/// The nearest-rank `p`-th percentile of `xs` however few samples lie
/// beyond it; `None` when `xs` is empty.
pub fn nearest_rank_value(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[nearest_rank(xs.len(), p) - 1])
}

/// 1-based nearest rank: the smallest `k` with `k / n ≥ p / 100`, in
/// integer per-mille arithmetic so that p99.9 of 10 000 is rank 9 990.
fn nearest_rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn upper_quartile_per_unit_takes_each_units_third_of_four() {
        assert!(upper_quartile_per_unit(&[]).is_empty());
        let passes = [vec![3.0, 1.0], vec![2.0, 4.0], vec![2.5, 1.5], vec![9.0, 1.2]];
        assert_eq!(upper_quartile_per_unit(&passes), vec![3.0, 1.5]);
        // One pass: its own times.
        assert_eq!(upper_quartile_per_unit(&passes[..1]), vec![3.0, 1.0]);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples is rank 90: exactly ten lie beyond it.
        assert!(has_tail(100, 90.0));
        assert!(!has_tail(99, 90.0));
        // The median needs 20 samples (rank 10, ten beyond).
        assert!(has_tail(20, 50.0));
        assert!(!has_tail(19, 50.0));
        assert!(!has_tail(0, 50.0));
    }

    #[test]
    fn highest_percentile_climbs_the_ladder_with_the_sample_count() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(99), Some(50.0));
        assert_eq!(highest_percentile(192), Some(90.0));
        assert_eq!(highest_percentile(999), Some(90.0));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_reads_the_nearest_rank() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), None);
        assert_eq!(nearest_rank_value(&xs, 99.0), Some(99.0));
        assert_eq!(nearest_rank_value(&[2.0, 1.0], 50.0), Some(1.0));
        assert_eq!(nearest_rank_value(&[2.0, 1.0], 90.0), Some(2.0));
        assert_eq!(nearest_rank_value(&[], 50.0), None);
    }
}
