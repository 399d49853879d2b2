//! Order statistics over timing samples.
//!
//! A tail percentile is only reported when at least [`MIN_BEYOND`] samples
//! lie beyond it: with fewer, the "p99" of a run is just its slowest few
//! samples, and it can even come out below the median of another run.

/// Samples that must lie strictly beyond a percentile before it is
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Median (mean of the two middle samples for an even count). `None` for
/// no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// Median over consecutive groups of `group` samples of each group's mean
/// (a last, shorter group included). Steadier than the plain median when
/// single samples fall into two modes. `None` for no samples.
pub fn median_of_group_means(samples: &[f64], group: usize) -> Option<f64> {
    let means: Vec<f64> = samples
        .chunks(group)
        .map(|g| g.iter().sum::<f64>() / g.len() as f64)
        .collect();
    median(&means)
}

/// Nearest-rank percentile `p` (0 < p < 1) and the number of samples that
/// lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<(f64, usize)> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    Some((s[rank - 1], s.len() - rank))
}

/// Percentile `p`, but only when at least [`MIN_BEYOND`] samples lie
/// beyond it.
pub fn tail(samples: &[f64], p: f64) -> Option<f64> {
    percentile(samples, p).and_then(|(v, beyond)| (beyond >= MIN_BEYOND).then_some(v))
}

/// The highest of the percentiles `ps` (tried in order) that has at least
/// [`MIN_BEYOND`] samples beyond it, with its value.
pub fn highest_tail(samples: &[f64], ps: &[f64]) -> Option<(f64, f64)> {
    ps.iter().find_map(|&p| tail(samples, p).map(|v| (p, v)))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn median_of_group_means_smooths_two_modes() {
        let two_modes = [12.0, 17.0, 17.0, 12.0, 12.0, 17.0, 17.0, 12.0, 17.0];
        assert_eq!(median_of_group_means(&two_modes, 3), Some(46.0 / 3.0));
        assert_eq!(median_of_group_means(&[1.0, 3.0, 5.0], 2), Some(3.5));
        assert_eq!(median_of_group_means(&[], 3), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 999 samples: p99 sits at rank 990, leaving 9 beyond — refused.
        let few: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&few, 0.99), Some((990.0, 9)));
        assert_eq!(tail(&few, 0.99), None);
        // 1,000 samples: rank 990, exactly 10 beyond — reported.
        let enough: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&enough, 0.99), Some(990.0));
        // A 20-sample run has a p50 (10 beyond) but no p90.
        let small: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&small, 0.5), Some(10.0));
        assert_eq!(tail(&small, 0.9), None);
    }

    #[test]
    fn the_highest_qualifying_percentile_is_reported() {
        let ps = [0.99, 0.9, 0.5];
        let n = |k: i32| (1..=k).map(f64::from).collect::<Vec<_>>();
        assert_eq!(highest_tail(&n(1000), &ps), Some((0.99, 990.0)));
        assert_eq!(highest_tail(&n(150), &ps), Some((0.9, 135.0)));
        assert_eq!(highest_tail(&n(25), &ps), Some((0.5, 13.0)));
        assert_eq!(highest_tail(&n(15), &ps), None);
    }

    #[test]
    fn tail_is_never_below_median() {
        let samples: Vec<f64> = (0..5000).map(|i| ((i * 7919) % 5000) as f64).collect();
        let p50 = median(&samples).unwrap();
        assert!(tail(&samples, 0.99).unwrap() >= p50);
    }
}
