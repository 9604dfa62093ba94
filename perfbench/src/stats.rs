//! Order statistics used by every metric the benchmark reports.

/// Ascending copy of `xs` (NaN-free input; `total_cmp` keeps the order
/// total regardless).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The quartiles `[q1, q2, q3]` by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the spreads this benchmark reports match the ones its consumers
/// compute from the printed values. One sample gives three copies of
/// itself; no samples give `None`.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let d = sorted(xs);
    let ld = d.len();
    match ld {
        0 => None,
        1 => Some([d[0]; 3]),
        _ => {
            let (n, m) = (4usize, ld + 1);
            let mut out = [0.0; 3];
            for (i, slot) in (1..n).zip(out.iter_mut()) {
                let j = (i * m / n).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * n) as f64;
                *slot = (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64;
            }
            Some(out)
        }
    }
}

/// The median (middle quartile); `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let d = sorted(xs);
    let mid = d.len() / 2;
    Some(if d.len() % 2 == 1 {
        d[mid]
    } else {
        (d[mid - 1] + d[mid]) / 2.0
    })
}

/// A tail statistic: the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples above it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile it sits at: the share of samples at or below it,
    /// in percent.
    pub percentile: f64,
    /// Samples above it (`TAIL_BEYOND`, or fewer when the run was too
    /// short — see [`tail`]).
    pub beyond: usize,
    /// All samples.
    pub samples: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it, with its sample count. With `n` samples that is the
/// `(n - 10)`-th smallest, i.e. percentile `100 (n - 10) / n`. A run
/// with fewer than 11 samples has no such percentile; it reports its
/// maximum instead, and `beyond` says so (it is 0). `None` when empty.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let d = sorted(xs);
    let n = d.len();
    if n == 0 {
        return None;
    }
    let k = if n > TAIL_BEYOND {
        n - TAIL_BEYOND - 1
    } else {
        n - 1
    };
    Some(Tail {
        value: d[k],
        percentile: 100.0 * (k + 1) as f64 / n as f64,
        beyond: n - 1 - k,
        samples: n,
    })
}

/// Samples per slice of [`sliced_tail`]: each slice's tail is then its
/// 95th percentile.
pub const TAIL_SLICE: usize = 20 * TAIL_BEYOND;

/// A run's tail, made steady: the samples, in the order they were
/// taken, are cut into consecutive slices of [`TAIL_SLICE`] (the last
/// partial slice is dropped); each slice's [`tail`] is taken and the
/// median of those is reported, with the first slice's [`Tail`] for its
/// percentile and sample count. A burst of slow samples then moves one
/// slice, not the result. A run shorter than one slice takes [`tail`] of
/// all its samples.
pub fn sliced_tail(xs: &[f64]) -> Option<(f64, Tail)> {
    let k = (xs.len() / TAIL_SLICE).max(1);
    let size = if k == 1 { xs.len() } else { TAIL_SLICE };
    let tails: Vec<Tail> = (0..k)
        .filter_map(|i| tail(&xs[i * size..(i + 1) * size]))
        .collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    Some((median(&values)?, tails[0]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&xs).unwrap();
        assert!(
            close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25),
            "{q:?}"
        );
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]).unwrap(), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[2.0, 1.0]).unwrap();
        assert!(
            close(q[0], 0.75) && close(q[1], 1.5) && close(q[2], 2.25),
            "{q:?}"
        );
        assert_eq!(quartiles(&[7.0]).unwrap(), [7.0; 3]);
        assert!(quartiles(&[]).is_none());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 1000);
        assert!(close(t.percentile, 99.0));
        // Eleven samples: the smallest has exactly ten beyond it.
        let xs: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.value, t.beyond), (1.0, 10));
    }

    #[test]
    fn sliced_tail_is_the_median_of_slice_tails() {
        // Five slices of 200: slice i holds 1..=200 scaled by i, so its
        // tail (ten beyond) is 190 i; the median slice is 570.
        let xs: Vec<f64> = (1..=5)
            .flat_map(|i| (1..=200).map(move |x| f64::from(x * i)))
            .collect();
        let (v, first) = sliced_tail(&xs).unwrap();
        assert_eq!(v, 570.0);
        assert_eq!((first.value, first.beyond, first.samples), (190.0, 10, 200));
        assert!(close(first.percentile, 95.0));
        // One outlier moves one slice only; a partial last slice is
        // dropped.
        let mut spiked = xs.clone();
        spiked[999] = 1e9;
        spiked.extend([1e9; 150]);
        assert_eq!(sliced_tail(&spiked).unwrap().0, 570.0);
        // Too few samples to slice: the plain tail.
        let few: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(sliced_tail(&few).unwrap().0, 30.0);
        assert_eq!(sliced_tail(&[4.0, 2.0, 8.0]).unwrap().0, 8.0);
        assert!(sliced_tail(&[]).is_none());
    }

    #[test]
    fn short_runs_fall_back_to_the_maximum() {
        let t = tail(&[3.0, 9.0, 1.0]).unwrap();
        assert_eq!((t.value, t.beyond, t.samples), (9.0, 0, 3));
        assert!(close(t.percentile, 100.0));
        assert!(tail(&[]).is_none());
    }
}
