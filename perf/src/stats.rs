//! Order statistics for timing samples.
//!
//! A tail percentile is only reported when at least ten samples lie
//! beyond it: with fewer, one slow sample decides the figure. So a p99
//! needs n >= 1000 and a p90 needs n >= 100.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The tail levels tried, highest first.
const TAIL_LEVELS: [f64; 3] = [99.9, 99.0, 90.0];

/// A sorted sample set.
#[derive(Clone, Debug, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    /// Sorts `samples` into a distribution.
    pub fn new(mut samples: Vec<f64>) -> Dist {
        samples.sort_by(f64::total_cmp);
        Dist { sorted: samples }
    }

    /// Number of samples.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// The median (0 when there are no samples).
    pub fn p50(&self) -> f64 {
        percentile(&self.sorted, 50.0)
    }

    /// The largest sample (0 when there are none).
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    /// The value at `level`, when at least [`TAIL_SAMPLES`] samples lie
    /// beyond it.
    pub fn at(&self, level: f64) -> Option<f64> {
        let n = self.n();
        (n > 0 && n - rank(n, level) >= TAIL_SAMPLES).then(|| percentile(&self.sorted, level))
    }

    /// The highest tried tail level that [`Dist::at`] reports, with its
    /// value.
    pub fn tail(&self) -> Option<(f64, f64)> {
        TAIL_LEVELS
            .iter()
            .find_map(|&level| self.at(level).map(|v| (level, v)))
    }
}

/// The 1-based nearest rank of `level` among `n` samples. The epsilon
/// keeps float error (99.9 / 100 * 10000 = 9990.000000000002) from
/// rounding an exact rank up.
fn rank(n: usize, level: f64) -> usize {
    ((level / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The nearest-rank percentile of sorted samples (0 when empty).
fn percentile(sorted: &[f64], level: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), level) - 1]
}

/// The median of `values`: the mean of the middle two when their count
/// is even (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let d = Dist::new(values.to_vec());
    match d.n() {
        0 => 0.0,
        n if n % 2 == 1 => d.sorted[n / 2],
        n => (d.sorted[n / 2 - 1] + d.sorted[n / 2]) / 2.0,
    }
}

/// The elementwise nearest-rank tenth percentile of span lists: the
/// fastest of up to ten repeats, the second fastest of up to twenty,
/// and so on. Lists of different length are cut to the shortest.
pub fn fast_spans<'a>(lists: impl IntoIterator<Item = &'a [f64]>) -> Vec<f64> {
    let lists: Vec<&[f64]> = lists.into_iter().collect();
    let len = lists.iter().map(|l| l.len()).min().unwrap_or(0);
    (0..len)
        .map(|i| {
            percentile(
                &Dist::new(lists.iter().map(|l| l[i]).collect()).sorted,
                10.0,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Dist {
        Dist::new((1..=n).rev().map(|i| i as f64).collect())
    }

    #[test]
    fn empty_samples_have_no_tail() {
        let d = Dist::new(Vec::new());
        assert_eq!((d.n(), d.p50(), d.max(), d.tail()), (0, 0.0, 0.0, None));
    }

    #[test]
    fn median_is_the_nearest_rank() {
        assert_eq!(ramp(5).p50(), 3.0);
        assert_eq!(ramp(4).p50(), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fast_spans_take_each_position_s_tenth_percentile() {
        let a = [3.0, 1.0, 4.0];
        let b = [2.0, 7.0, 1.0];
        assert_eq!(fast_spans([&a[..], &b[..]]), vec![2.0, 1.0, 1.0]);
        assert_eq!(fast_spans([&a[..], &b[..2]]), vec![2.0, 1.0]);
        assert_eq!(fast_spans([&a[..]]), a.to_vec());
        assert!(fast_spans(std::iter::empty::<&[f64]>()).is_empty());
        // Of 11 to 20 repeats, the second fastest.
        let many: Vec<[f64; 1]> = (1..=15).map(|i| [f64::from(i)]).collect();
        assert_eq!(fast_spans(many.iter().map(|l| &l[..])), vec![2.0]);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // Below 100 samples no tail level has ten samples beyond it.
        assert_eq!(ramp(99).tail(), None);
        assert_eq!(ramp(100).tail(), Some((90.0, 90.0)));
        assert_eq!(ramp(999).tail(), Some((90.0, 900.0)));
        assert_eq!(ramp(1000).tail(), Some((99.0, 990.0)));
        assert_eq!(ramp(10_000).tail(), Some((99.9, 9990.0)));
        for n in [100, 150, 1000, 1234, 10_000] {
            let d = ramp(n);
            let (_, value) = d.tail().expect("tail");
            let beyond = d.sorted.iter().filter(|&&x| x > value).count();
            assert!(beyond >= TAIL_SAMPLES, "n={n}: {beyond} beyond");
        }
    }

    #[test]
    fn fixed_levels_need_enough_samples() {
        assert_eq!(ramp(999).at(99.0), None);
        assert_eq!(ramp(999).at(90.0), Some(900.0));
        assert_eq!(ramp(1000).at(99.0), Some(990.0));
        assert_eq!(ramp(1000).max(), 1000.0);
    }
}
