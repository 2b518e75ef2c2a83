//! Order statistics over per-iteration samples.

/// The median of `values`: the middle value, or the mean of the two
/// middle values for an even count. `None` for no values.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile of `values`, by the same rule
/// as Python's `statistics.quantiles(values, n=4)` (the default
/// `exclusive` method). Needs at least two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        // Negative when the clamp moved `j` up: Python extrapolates then.
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// The mean of the values between the first and third quartile
/// (inclusive); the plain mean for fewer than four values.
#[must_use]
pub fn middle_mean(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return mean(values);
    }
    let [q1, _, q3] = quartiles(values)?;
    let middle: Vec<f64> = values
        .iter()
        .copied()
        .filter(|v| (q1..=q3).contains(v))
        .collect();
    mean(&middle)
}

/// The nearest-rank `p`-quantile (`0 < p <= 1`) of `values`: the smallest
/// value with at least a share `p` of the values at or below it. `None`
/// for no values.
#[must_use]
pub fn nearest_rank(values: &[f64], p: f64) -> Option<f64> {
    let data = sorted(values);
    if data.is_empty() {
        return None;
    }
    let rank = ((p * data.len() as f64).ceil() as usize).clamp(1, data.len());
    Some(data[rank - 1])
}

/// The mean of the lowest share `p` (`0 < p <= 1`) of `values`, at least
/// one value. `None` for no values.
#[must_use]
pub fn low_mean(values: &[f64], p: f64) -> Option<f64> {
    let data = sorted(values);
    let k = ((p * data.len() as f64) as usize).max(1).min(data.len());
    mean(&data[..k])
}

/// The arithmetic mean, `None` for no values.
#[must_use]
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
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
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([7, 1, 3, 9, 5], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[7.0, 1.0, 3.0, 9.0, 5.0]), Some([2.0, 5.0, 8.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn nearest_rank_picks_the_covering_value() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&v, 0.2), Some(20.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(100.0));
        // 0.2 of 7 values is 1.4: the second smallest covers it.
        let w = [7.0, 1.0, 6.0, 2.0, 5.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&w, 0.2), Some(2.0));
        assert_eq!(nearest_rank(&w, 0.8), Some(6.0));
        // A tiny share still picks the smallest value, never rank 0.
        assert_eq!(nearest_rank(&w, 1e-9), Some(1.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn middle_mean_drops_the_outer_quarters() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        // Values 3..=8 lie within [2.75, 8.25]; the outlier never counts.
        let mut w = v.clone();
        w[9] = 1e9;
        assert_eq!(middle_mean(&w), Some(5.5));
        assert_eq!(middle_mean(&[1.0, 2.0, 9.0]), Some(4.0));
        assert_eq!(middle_mean(&[]), None);
    }

    #[test]
    fn low_mean_averages_the_lowest_share() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        // The lowest 5 of 100 values are 1..=5.
        assert_eq!(low_mean(&v, 0.05), Some(3.0));
        // A share below one value still takes the smallest value.
        assert_eq!(low_mean(&[9.0, 4.0, 7.0], 0.05), Some(4.0));
        assert_eq!(low_mean(&[9.0, 4.0, 7.0], 1.0), Some(20.0 / 3.0));
        assert_eq!(low_mean(&[], 0.05), None);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}
