//! Order statistics over a run's samples.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(xs, n=4)` (the default `exclusive` method)
/// computes them. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// The highest whole percentile with at least ten samples beyond it,
/// and its nearest-rank value; `None` with ten samples or fewer.
pub fn tail_percentile(xs: &[f64]) -> Option<(u32, f64)> {
    let n = xs.len();
    if n <= 10 {
        return None;
    }
    let p = (100 * (n - 10) / n) as u32;
    if p == 0 {
        return None;
    }
    let rank = (p as usize * n).div_ceil(100).max(1);
    Some((p, sorted(xs)[rank - 1]))
}

/// Failed cells as a share of attempted cells.
pub fn failed_share(failed: usize, attempted: usize) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(&[1.0; 10]), None);
        let xs: Vec<f64> = (1..=42).map(f64::from).collect();
        let (p, v) = tail_percentile(&xs).unwrap();
        assert_eq!((p, v), (76, 32.0));
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((99, 990.0)));
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((50, 10.0)));
    }

    #[test]
    fn failed_share_is_failed_over_attempted() {
        assert_eq!(failed_share(0, 42), 0.0);
        assert_eq!(failed_share(1, 54), 1.0 / 54.0);
        assert_eq!(failed_share(0, 0), 0.0);
    }
}
