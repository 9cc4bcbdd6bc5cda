//! Machine-speed calibration for the benchmark's run record.
//!
//! The declared benchmark (`perfbench/`, judged by
//! `.github/perf_gate.sh`) prints [`calibration_score`] with every run,
//! so a result can be read against the speed of the host that measured
//! it.

use std::time::Instant;

/// Machine-speed calibration: iterations/sec of a fixed, deterministic
/// integer spin loop, best of five runs (the minimum time is the
/// noise-robust estimator: preemption only ever slows a run down).
pub fn calibration_score() -> f64 {
    const ITERS: u64 = 20_000_000;
    const REPEATS: u64 = 5;
    let mut best = f64::INFINITY;
    for rep in 0..REPEATS {
        // The seed varies per repetition and the result is consumed
        // inside the timed region: the optimizer can neither hoist the
        // loop out of the repeat loop nor fold the LCG chain, so every
        // repetition executes the full dependency chain.
        let seed = std::hint::black_box(rep);
        let t = Instant::now();
        let mut acc = seed;
        for i in 0..ITERS {
            acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        std::hint::black_box(acc);
        best = best.min(t.elapsed().as_secs_f64());
    }
    ITERS as f64 / best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_is_sane_and_repeatable() {
        let a = calibration_score();
        let b = calibration_score();
        // A modern core does between ~10M and ~100G of these per second;
        // anything outside means the loop was folded away or the clock
        // is broken. Repeatability bound is loose (CI runners are noisy).
        for c in [a, b] {
            assert!(
                c.is_finite() && (1.0e7..1.0e11).contains(&c),
                "score {c:.3e}"
            );
        }
        let ratio = a.max(b) / a.min(b);
        assert!(ratio < 10.0, "calibration unstable: {a:.3e} vs {b:.3e}");
    }
}
