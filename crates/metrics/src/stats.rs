//! Small descriptive-statistics helpers shared by summaries and harnesses.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `q`-th quantile (0 ≤ q ≤ 1) with linear interpolation between order
/// statistics; 0 for an empty slice.
///
/// The two order statistics come from one selection pass, not a sort: the
/// lower one by `select_nth_unstable_by`, the upper one as the minimum of
/// the partition above it.
///
/// # Panics
/// Panics if `q` is outside `[0, 1]`, or on a NaN input.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
    if xs.is_empty() {
        return 0.0;
    }
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let by = |a: &f64, b: &f64| a.partial_cmp(b).expect("NaN in quantile input");
    let mut values = xs.to_vec();
    let (_, &mut at_lo, above) = values.select_nth_unstable_by(lo, by);
    if lo == hi {
        return at_lo;
    }
    let at_hi = above.iter().copied().min_by(by).expect("hi is above lo");
    let frac = pos - lo as f64;
    at_lo * (1.0 - frac) + at_hi * frac
}

/// Median, via [`quantile`].
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The sorting definition `quantile` must reproduce bit for bit.
    fn quantile_by_sorting(xs: &[f64], q: f64) -> f64 {
        if xs.is_empty() {
            return 0.0;
        }
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pos = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        if lo == hi {
            sorted[lo]
        } else {
            let frac = pos - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }

    proptest! {
        #[test]
        fn selection_matches_the_sorting_definition(
            // Half-minute grid values: waits repeat, so ties are common.
            grid in prop::collection::vec((0u64..400).prop_map(|m| m as f64 * 0.5), 0..60),
            spread in prop::collection::vec(0.0f64..1e7, 0..60),
            q in 0.0f64..1.0,
        ) {
            for xs in [&grid, &spread] {
                for q in [q, 0.0, 0.25, 0.5, 0.9, 1.0] {
                    let want = quantile_by_sorting(xs, q);
                    prop_assert_eq!(quantile(xs, q).to_bits(), want.to_bits());
                }
            }
        }
    }

    #[test]
    fn mean_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[4.0]), 4.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&xs, 0.0), 10.0);
        assert_eq!(quantile(&xs, 1.0), 40.0);
        assert!((quantile(&xs, 1.0 / 3.0) - 20.0).abs() < 1e-12);
        assert!((quantile(&xs, 0.5) - 25.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn quantile_rejects_bad_q() {
        quantile(&[1.0], 1.5);
    }
}
