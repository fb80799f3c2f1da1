//! Order statistics over timing samples.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; `NaN` for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method (Python's
/// `statistics.quantiles(xs, n=4)`). Falls back to min/max below two
/// samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let at = |p: f64| {
        let m = (n + 1) as f64 * p;
        let j = (m.floor() as usize).clamp(1, n - 1);
        let delta = m - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(0.25), at(0.75))
}

/// The highest percentile that has at least ten samples beyond it, as
/// `(value, percentile)`. With eleven samples or fewer there is no such
/// percentile beyond the minimum, so the result degrades to the minimum
/// (percentile 0) — the sample count printed beside it says how deep the
/// tail is.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, 0.0);
    }
    let i = n.saturating_sub(11);
    (v[i], 100.0 * i as f64 / n as f64)
}

/// Median of per-set medians: with several production schedules per
/// incident, each set is one sample of the mix, and a schedule whose cost
/// is far from the others moves this less than one run's noise.
pub fn set_median(sets: &[Vec<f64>]) -> f64 {
    median(&sets.iter().map(|s| median(s)).collect::<Vec<_>>())
}

/// [`tail`] of each sample relative to its own set's median, pooled over
/// sets and scaled by [`set_median`]: the jitter of repeated identical
/// passes, not the spread between schedules. With one set it is [`tail`].
pub fn set_tail(sets: &[Vec<f64>]) -> f64 {
    let ratios: Vec<f64> = sets
        .iter()
        .flat_map(|s| {
            let m = median(s);
            s.iter().map(move |x| x / m)
        })
        .collect();
    set_median(sets) * tail(&ratios).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(median(&xs), 5.5);
    }

    #[test]
    fn one_set_reduces_to_the_plain_statistics() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(set_median(std::slice::from_ref(&xs)), median(&xs));
        assert!((set_tail(std::slice::from_ref(&xs)) - tail(&xs).0).abs() < 1e-9);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        let (v, p) = tail(&xs);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert_eq!(p, 89.0);
    }
}
