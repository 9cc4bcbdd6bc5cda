//! BioCheck benchmark: two workloads that each stress different
//! layers, measured end to end (untraced runs) and layer by layer
//! (traced runs). See `NOTES.md` for what each metric means on each
//! workload and for the findings recorded so far.
//!
//! ```text
//! bash perfbench/run.sh --workload smc_sweep|daemon_mix
//!                       --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the run record
//! (commit, source digest, nproc, pool width, calibration) goes to
//! standard error. A failed output check exits with status 1.

mod battery;
mod daemon_mix;
mod layers;
mod metrics;
mod reference;
mod smc_sweep;
mod stats;
mod sys;

use metrics::{Values, END_TO_END, PER_LAYER};
use stats::Tally;
use std::time::Duration;

pub const WORKLOADS: [&str; 2] = ["smc_sweep", "daemon_mix"];

/// One invocation's settings.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small inputs and a short window: exercises every code path and
    /// check in a few seconds (used by the self-tests).
    pub smoke: bool,
}

impl Config {
    /// The measurement window.
    pub fn measure(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.0))
    }

    /// Divisor applied to per-query sample counts.
    pub fn scale(&self) -> usize {
        if self.smoke {
            20
        } else {
            1
        }
    }
}

/// splitmix64 of `seed` and a stream index: independent, reproducible
/// per-operation seeds.
pub fn mix_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn parse_args(args: &[String]) -> Result<(Config, bool), String> {
    let flag = |name: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let pool_probe = args.iter().any(|a| a == "--pool-probe");
    let workload = flag("--workload").unwrap_or("smc_sweep").to_string();
    if !pool_probe && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let num = |name: &str, default: &str| -> Result<f64, String> {
        flag(name)
            .unwrap_or(default)
            .parse::<f64>()
            .map_err(|e| format!("{name}: {e}"))
    };
    let cfg = Config {
        workload,
        seed: flag("--seed")
            .unwrap_or("1")
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: num("--seconds", "10")?,
        trace: num("--trace", "0")? != 0.0,
        smoke: args.iter().any(|a| a == "--smoke"),
    };
    Ok((cfg, pool_probe))
}

/// Runs one workload; returns the result line and whether every check
/// passed.
pub fn run(cfg: &Config) -> (String, bool) {
    let mut values = Values::new();
    if cfg.trace {
        // Layers a workload leaves idle read 0; the probes and the
        // workload overwrite what they measure.
        values.extend(PER_LAYER.iter().map(|(n, _)| (*n, 0.0)));
    }
    let mut tally = Tally::default();
    if cfg.trace {
        layers::probe_all(cfg, &mut values);
        battery::probe(cfg, &mut values, &mut tally);
    }
    match cfg.workload.as_str() {
        "smc_sweep" => smc_sweep::run(cfg, &mut values, &mut tally),
        "daemon_mix" => daemon_mix::run(cfg, &mut values, &mut tally),
        other => unreachable!("workload {other} validated at parse time"),
    }
    let catalogue = if cfg.trace { PER_LAYER } else { END_TO_END };
    for (name, _) in catalogue {
        if !values.contains_key(name) {
            tally.fail(format!("workload did not report {name}"));
            values.insert(name, f64::NAN);
        }
    }
    for (name, v) in &values {
        if !v.is_finite() {
            tally.fail(format!("metric {name} is not finite ({v})"));
        }
    }
    let correct = tally.correct();
    for e in &tally.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let line = metrics::result_json(correct, tally.attempted, tally.failed, cfg.trace, &values);
    (line, correct)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, pool_probe) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if pool_probe {
        println!("{}", smc_sweep::pool_probe(&cfg));
        return;
    }
    if cfg.workload == "smc_sweep" {
        // The pool fixes its width at first use. Two pool threads on a
        // shared two-core host measured ±20–35% run to run, one thread
        // ±3%, so the sweep's end-to-end figures are single-threaded and
        // the traced run measures the nproc-thread speed-up on the side.
        std::env::set_var("BIOCHECK_THREADS", "1");
    }
    let root = std::env::current_dir().unwrap_or_default();
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} {} nproc={} pool={} calibration={:.4e}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        sys::source_stamp(&root),
        sys::nproc(),
        rayon::current_num_threads(),
        // The integer spin loop of `BENCH_<n>.json`, so a run can be
        // placed against the repository's trajectory.
        biocheck_bench::perf::calibration_score(),
    );
    let (line, correct) = run(&cfg);
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_reject_unknown_workloads() {
        let args: Vec<String> = [
            "--workload",
            "daemon_mix",
            "--seed",
            "9",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (cfg, probe) = parse_args(&args).unwrap();
        assert!(!probe);
        assert_eq!(
            (cfg.workload.as_str(), cfg.seed, cfg.seconds, cfg.trace),
            ("daemon_mix", 9, 12.0, true)
        );
        let bad: Vec<String> = ["--workload", "nope"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_args(&bad).is_err());
    }

    #[test]
    fn seeds_mix_reproducibly() {
        assert_eq!(mix_seed(3, 4), mix_seed(3, 4));
        assert_ne!(mix_seed(3, 4), mix_seed(3, 5));
        assert_ne!(mix_seed(3, 4), mix_seed(4, 4));
    }
}
