//! Order statistics and operation accounting shared by every workload.

/// Linear-interpolation quantile of an ascending slice (`q` in `[0, 1]`,
/// position `q·(n−1)`). `NaN` for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Quantile of an unsorted sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest of p99.9, p99, p90 and p50 that still has at least ten
/// samples beyond it in a sample of `n` — the tail a run of that size
/// can actually resolve. `None` when even the median has fewer than ten
/// samples above it.
pub fn resolvable_tail(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= 10)
}

/// How many of `n` samples lie strictly above the `q` quantile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// One line for the run record: how many latencies a run measured and
/// which tail they resolve.
pub fn tail_note(what: &str, n: usize) -> String {
    match resolvable_tail(n) {
        Some(q) => format!(
            "{n} {what}; p90 has {} beyond it; highest resolvable tail p{}",
            samples_beyond(n, 0.9),
            q * 100.0
        ),
        None => format!("{n} {what}; too few for a tail with ten samples beyond it"),
    }
}

/// Counts attempted and failed operations. A failure is any wrong
/// verdict, fingerprint mismatch, error reply or refusal; the first few
/// are kept for the diagnostic on stderr.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Records one operation; `Err` carries why it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.fail(e);
        }
    }

    /// Marks an already-counted operation as failed (a check that runs
    /// after the timed window, e.g. the sequential replay).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    /// Every attempted operation passed its check.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_choice_keeps_ten_samples_beyond_it() {
        assert_eq!(resolvable_tail(19), None);
        assert_eq!(resolvable_tail(20), Some(0.5));
        assert_eq!(resolvable_tail(99), Some(0.5));
        assert_eq!(resolvable_tail(100), Some(0.9));
        assert_eq!(resolvable_tail(999), Some(0.9));
        assert_eq!(resolvable_tail(1000), Some(0.99));
        assert_eq!(resolvable_tail(10_000), Some(0.999));
        for n in [20, 100, 1000, 10_000, 12_345] {
            let q = resolvable_tail(n).unwrap();
            assert!(samples_beyond(n, q) >= 10, "n={n} q={q}");
        }
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut t = Tally::default();
        assert!(!t.correct(), "nothing attempted is not a pass");
        t.record(Ok(()));
        t.record(Err("fingerprint mismatch".into()));
        t.record(Ok(()));
        assert_eq!((t.attempted, t.failed), (3, 1));
        assert!(!t.correct());
        t.fail("replay diverged".into());
        assert_eq!((t.attempted, t.failed), (3, 2));
        assert_eq!(t.errors.len(), 2);
    }
}
