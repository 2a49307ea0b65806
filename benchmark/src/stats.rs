//! Order statistics: percentiles over latency samples and the
//! median-over-slices summary every end-to-end metric is reported as.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. `q` in `(0, 1]`.
///
/// # Panics
/// On an empty slice.
pub fn percentile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and quartiles of a set of samples, the quartiles as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method), so
/// the spreads printed here are the ones the driver computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `values` (any order). An empty set summarises to zeros;
    /// a single value is its own median and quartiles.
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        match n {
            0 => Summary {
                median: 0.0,
                q1: 0.0,
                q3: 0.0,
                n,
            },
            1 => Summary {
                median: sorted[0],
                q1: sorted[0],
                q3: sorted[0],
                n,
            },
            _ => Summary {
                median: exclusive_quantile(&sorted, 2),
                q1: exclusive_quantile(&sorted, 1),
                q3: exclusive_quantile(&sorted, 3),
                n,
            },
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `i`-th of the three cut points dividing `sorted` into quarters,
/// interpolated at position `i·(n+1)/4` (1-based); like Python it
/// extrapolates when that position falls outside the data.
fn exclusive_quantile(sorted: &[f64], i: usize) -> f64 {
    let n = sorted.len();
    let j = (i * (n + 1) / 4).clamp(1, n - 1);
    let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle: count samples at or below each candidate directly.
    fn oracle(sorted: &[u32], q: f64) -> u32 {
        *sorted
            .iter()
            .find(|&&v| {
                sorted.iter().filter(|&&w| w <= v).count() as f64 >= q * sorted.len() as f64
            })
            .expect("some sample covers q")
    }

    #[test]
    fn percentiles_match_the_counting_oracle() {
        let mut state = 7u64;
        for len in [1usize, 2, 3, 10, 99, 100, 101, 1000] {
            let mut values: Vec<u32> = (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 40) as u32 % 500
                })
                .collect();
            values.sort_unstable();
            for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(
                    percentile_sorted(&values, q),
                    oracle(&values, q),
                    "len {len} q {q}"
                );
            }
        }
    }

    #[test]
    fn p99_of_one_to_hundred_is_ninety_nine() {
        let values: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&values, 0.5), 50);
        assert_eq!(percentile_sorted(&values, 0.99), 99);
        assert_eq!(percentile_sorted(&values, 1.0), 100);
    }

    #[test]
    fn quartiles_agree_with_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3.0, 1.0], n=4) == [0.5, 2.0, 3.5]
        let two = Summary::of(&[3.0, 1.0]);
        assert_eq!((two.q1, two.median, two.q3), (0.5, 2.0, 3.5));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        let five = Summary::of(&[160.0, 10.0, 80.0, 20.0, 40.0]);
        assert_eq!((five.q1, five.median, five.q3), (15.0, 40.0, 120.0));
    }

    #[test]
    fn slice_median_ignores_one_wild_slice() {
        let mut slices = vec![100.0; 9];
        slices.push(10_000.0);
        let s = Summary::of(&slices);
        assert_eq!(s.median, 100.0);
        assert_eq!(Summary::of(&[42.0]).q3, 42.0);
        assert_eq!(Summary::of(&[]).n, 0);
    }
}
