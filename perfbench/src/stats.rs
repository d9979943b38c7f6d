//! Sample statistics and outcome accounting.

/// Tail percentiles the benchmark may quote, in per mille, lowest
/// first.
const TAIL_LADDER: [u64; 6] = [500, 750, 900, 950, 990, 999];

/// Samples that must lie beyond a percentile before it is quoted.
pub const MIN_BEYOND: usize = 10;

/// Percentile `p` (0..=100) of `xs` by linear interpolation between the
/// closest ranks. `xs` need not be sorted; it must not be empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 100.0) / 100.0 * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `xs` (must not be empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The highest percentile of the ladder p50, p75, p90, p95, p99, p99.9
/// that has at least [`MIN_BEYOND`] of `n` samples beyond it; `None`
/// when not even the median has.
pub fn supported_tail(n: usize) -> Option<f64> {
    let n = n as u64;
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        // Samples above the percentile's rank ⌈n·p⌉.
        .find(|&pm| n - (n * pm).div_ceil(1000) >= MIN_BEYOND as u64)
        .map(|pm| pm as f64 / 10.0)
}

/// Attempted and failed operations of one run. An operation fails when
/// it panics or its output is wrong.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that panicked or produced a wrong output.
    pub failed: u64,
}

impl Tally {
    /// Count one checked operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed ÷ attempted (0 before any attempt).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Every element of `got` within `rel` of `want` (relative to
/// `|want|`, floored at 1e-30 so zeros compare absolutely).
pub fn within_rel(got: &[f64], want: &[f64], rel: f64) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| (a - b).abs() <= rel * b.abs().max(1e-30))
}

/// `got` equals `want` bit for bit.
pub fn bit_identical(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(39), Some(50.0));
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(99), Some(75.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(9999), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn failed_frac_counts_wrong_and_panicked_outputs() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        let want = [1.0, 2.0];
        let outputs: Vec<std::thread::Result<Vec<f64>>> = vec![
            Ok(vec![1.0, 2.0]),
            Ok(vec![1.0, 2.0 + 1e-9]),
            Err(Box::new("solver panicked")),
            Ok(vec![1.0, 2.0]),
        ];
        for out in outputs {
            t.record(matches!(out, Ok(phi) if bit_identical(&phi, &want)));
        }
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert_eq!(t.failed_frac(), 0.5);
    }

    #[test]
    fn comparisons() {
        assert!(within_rel(&[1.0 + 1e-12, 0.0], &[1.0, 0.0], 1e-11));
        assert!(!within_rel(&[1.0 + 1e-10], &[1.0], 1e-11));
        assert!(!within_rel(&[1.0], &[1.0, 2.0], 1e-11));
        assert!(bit_identical(&[0.1, 0.2], &[0.1, 0.2]));
        assert!(!bit_identical(&[0.0], &[-0.0]));
    }
}
