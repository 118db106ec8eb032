//! Order statistics over raw samples.

/// Sorts `samples` and returns the nearest-rank `q`-quantile
/// (`0 < q <= 1`): the smallest sample with at least `q` of the samples
/// at or below it. Returns 0 for an empty slice.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// The median, averaging the two middle samples of an even count.
/// Returns 0 for an empty slice.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// First and third quartile by the "exclusive" method, which is what
/// Python's `statistics.quantiles(values, n=4)` computes and the
/// benchmark contract measures spread with. Needs two samples.
pub fn quartiles(samples: &mut [f64]) -> Option<(f64, f64)> {
    if samples.len() < 2 {
        return None;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let n = samples.len();
    let at = |quarter: usize| {
        let position = quarter as f64 * (n + 1) as f64 / 4.0;
        let below = (position.floor() as usize).clamp(1, n - 1);
        let fraction = position - below as f64;
        samples[below - 1] + fraction * (samples[below] - samples[below - 1])
    };
    Some((at(1), at(3)))
}

/// The arithmetic mean; 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut samples, 0.5), 50.0);
        assert_eq!(quantile(&mut samples, 0.99), 99.0);
        assert_eq!(quantile(&mut samples, 1.0), 100.0);
        assert_eq!(quantile(&mut [7.0], 0.99), 7.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&mut [2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&mut [1.0]), None);
    }
}
