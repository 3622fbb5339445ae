//! Exact order statistics over every recorded sample.
//!
//! Latencies are kept whole (no histogram buckets): a bucketed percentile
//! cannot resolve a change smaller than its bucket width, and the
//! benchmark's regression bounds are narrower than that.

/// A growable set of samples with exact percentiles.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn extend(&mut self, other: Samples) {
        self.values.extend(other.values);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// The nearest-rank `p`-th percentile (`0 < p <= 100`): the smallest
    /// sample such that at least `p`% of all samples are no larger. It is
    /// always one of the recorded samples. `NaN` when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        nearest_rank(&sorted, p)
    }
}

/// Nearest-rank percentile of an ascending slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` by nearest rank (the lower middle for an even
/// count). `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: &[f64]) -> Samples {
        let mut s = Samples::default();
        for &v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn nearest_rank_picks_recorded_samples() {
        // 1..=10 shuffled: p50 is the 5th order statistic, p90 the 9th.
        let s = samples(&[7.0, 3.0, 10.0, 1.0, 5.0, 9.0, 2.0, 8.0, 4.0, 6.0]);
        assert_eq!(s.percentile(50.0), 5.0);
        assert_eq!(s.percentile(90.0), 9.0);
        assert_eq!(s.percentile(99.0), 10.0);
        assert_eq!(s.percentile(100.0), 10.0);
        assert_eq!(s.percentile(1.0), 1.0);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn percentile_resolves_changes_inside_one_bucket() {
        // A 2^(1/4) bucket spans ≈19%; exact order statistics separate
        // samples 5% apart.
        let a = samples(&[1.00; 20]);
        let b = samples(&[1.05; 20]);
        assert!(b.percentile(90.0) > a.percentile(90.0));
        assert_eq!(b.percentile(90.0), 1.05);
    }

    #[test]
    fn single_and_empty_sets() {
        assert_eq!(samples(&[3.5]).percentile(50.0), 3.5);
        assert_eq!(samples(&[3.5]).percentile(99.0), 3.5);
        assert!(Samples::default().percentile(50.0).is_nan());
    }

    #[test]
    fn median_of_even_count_is_lower_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[2.0, 9.0, 4.0]), 4.0);
    }

    #[test]
    fn extend_merges_threads() {
        let mut a = samples(&[1.0, 2.0]);
        a.extend(samples(&[3.0, 4.0]));
        assert_eq!(a.len(), 4);
        assert_eq!(a.percentile(100.0), 4.0);
    }
}
