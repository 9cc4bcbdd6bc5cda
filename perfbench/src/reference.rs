//! Host-speed reference: normalises `smc_sweep`'s timings and set-up
//! time.
//!
//! Neighbours on a shared host slow CPU-bound code by up to 40% for
//! minutes at a time (a fixed-seed `smc_sweep` read 25k–38k samples/s,
//! the δ battery 7.7–12.5 s per pass, on successive runs), while the
//! integer calibration loop stays flat. This kernel does work shaped
//! like the program's hot loops — a stack-machine right-hand side
//! integrated by RK4 with a running monitor — in the benchmark's own
//! code, so it slows with the neighbours but never with a change to the
//! program. Timings taken around each measured operation are divided by
//! the kernel's slowdown against [`NOMINAL_MS`]: in eight fixed-seed
//! runs of a prototype the raw sweep spread 28k–35k samples/s, the
//! normalised one 27.4k–29.9k.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on a quiet host of the reference type (two-core
/// 2.0 GHz Xeon VM; 400 runs: min 0.48 ms, p10 0.51–0.53 ms), so
/// normalised figures read as "on that host, undisturbed".
pub const NOMINAL_MS: f64 = 0.5;

#[derive(Clone, Copy)]
enum Op {
    Load(usize),
    Const(f64),
    Add,
    Sub,
    Mul,
}

/// A three-state cubic system in the shape of the Fenton–Karma RHS.
const RHS: [&[Op]; 3] = {
    use Op::*;
    [
        &[
            Load(0),
            Load(0),
            Mul,
            Load(0),
            Mul,
            Const(-1.0),
            Mul,
            Load(0),
            Add,
            Load(1),
            Sub,
            Const(0.3),
            Add,
        ],
        &[
            Load(0),
            Const(0.08),
            Mul,
            Load(1),
            Const(0.7),
            Mul,
            Sub,
            Const(0.02),
            Add,
            Load(2),
            Const(0.1),
            Mul,
            Sub,
        ],
        &[
            Load(0),
            Load(1),
            Mul,
            Const(0.05),
            Mul,
            Load(2),
            Const(0.2),
            Mul,
            Sub,
        ],
    ]
};

fn eval(y: &[f64; 3], out: &mut [f64; 3]) {
    for (slot, prog) in out.iter_mut().zip(RHS) {
        let mut stack = [0.0f64; 8];
        let mut top = 0;
        for op in prog {
            match *op {
                Op::Load(i) => {
                    stack[top] = y[i];
                    top += 1;
                }
                Op::Const(c) => {
                    stack[top] = c;
                    top += 1;
                }
                Op::Add | Op::Sub | Op::Mul => {
                    top -= 1;
                    let (a, b) = (stack[top - 1], stack[top]);
                    stack[top - 1] = match op {
                        Op::Add => a + b,
                        Op::Sub => a - b,
                        _ => a * b,
                    };
                }
            }
        }
        *slot = stack[0];
    }
}

/// Runs the kernel once (eight 300-step RK4 trajectories from
/// seed-dependent initial states) and returns its wall time in ms.
pub fn kernel_ms(seed: u64) -> f64 {
    let t = Instant::now();
    let mut s = black_box(seed);
    let mut acc = 0.0;
    for _ in 0..8 {
        s = s
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let mut y = [(s >> 11) as f64 / (1u64 << 53) as f64 * 0.1, 0.9, 0.9];
        let h = 0.05;
        let (mut k1, mut k2, mut k3, mut k4, mut tmp) =
            ([0.0; 3], [0.0; 3], [0.0; 3], [0.0; 3], [0.0; 3]);
        let mut peak = f64::MIN;
        for _ in 0..300 {
            eval(&y, &mut k1);
            for i in 0..3 {
                tmp[i] = y[i] + 0.5 * h * k1[i];
            }
            eval(&tmp, &mut k2);
            for i in 0..3 {
                tmp[i] = y[i] + 0.5 * h * k2[i];
            }
            eval(&tmp, &mut k3);
            for i in 0..3 {
                tmp[i] = y[i] + h * k3[i];
            }
            eval(&tmp, &mut k4);
            for i in 0..3 {
                y[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
            }
            peak = peak.max(y[0]);
        }
        acc += peak;
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// Tracks the host's slowdown across a sequence of measured operations:
/// each call to [`Speed::factor`] takes a reading and returns the mean of
/// this and the previous reading over [`NOMINAL_MS`] (above 1 means a
/// slower host than nominal). Divide a duration by it, multiply a rate
/// by it.
pub struct Speed {
    last_ms: f64,
    calls: u64,
}

impl Speed {
    /// Takes the first reading.
    pub fn start() -> Speed {
        let mut speed = Speed {
            last_ms: 0.0,
            calls: 0,
        };
        speed.last_ms = speed.reading();
        speed
    }

    /// One reading: the median of five kernel runs (a single run can
    /// catch an interrupt).
    fn reading(&mut self) -> f64 {
        let runs: Vec<f64> = (0..5).map(|i| kernel_ms(self.calls * 5 + i)).collect();
        self.calls += 1;
        crate::stats::median(&runs)
    }

    /// Slowdown over the operation just measured.
    pub fn factor(&mut self) -> f64 {
        let now = self.reading();
        let f = 0.5 * (self.last_ms + now) / NOMINAL_MS;
        self.last_ms = now;
        f
    }
}

/// Median normalised time, in seconds, of `op` repeated for about a
/// second (at least five runs), each run normalised by the slowdown
/// read right after it. Returns the last run's result.
pub fn median_reps<R>(mut op: impl FnMut() -> R) -> (f64, R) {
    let mut speed = Speed::start();
    let mut times = Vec::new();
    let began = Instant::now();
    loop {
        let t = Instant::now();
        let r = op();
        let s = t.elapsed().as_secs_f64();
        times.push(s / speed.factor());
        if times.len() >= 5 && began.elapsed().as_secs_f64() >= 1.0 {
            return (crate::stats::median(&times), r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_work_and_scales_with_it() {
        // Same inputs, same arithmetic: two calls take comparable time,
        // and the time is real (not folded away).
        let a = (0..5).map(kernel_ms).fold(f64::INFINITY, f64::min);
        assert!(a > 0.01 && a < 100.0, "kernel took {a} ms");
        let mut y = [0.05, 0.9, 0.9];
        let mut out = [0.0; 3];
        eval(&y, &mut out);
        let expect0 = -y[0] * y[0] * y[0] + y[0] - y[1] + 0.3;
        assert!((out[0] - expect0).abs() < 1e-12);
        y[2] = 0.5;
        eval(&y, &mut out);
        assert!((out[2] - (y[0] * y[1] * 0.05 - y[2] * 0.2)).abs() < 1e-12);
    }

    #[test]
    fn speed_factor_is_the_mean_of_adjacent_readings() {
        let mut s = Speed::start();
        let f = s.factor();
        assert!(f > 0.0 && f.is_finite());
    }
}
