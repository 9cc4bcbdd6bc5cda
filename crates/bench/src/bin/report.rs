//! Regenerates the experiment table (E1–E9, markdown on stdout, rows in
//! `experiment_results.json`):
//!
//! ```text
//! cargo run --release -p biocheck_bench --bin report
//! ```
//!
//! It takes no arguments. Any argument prints the usage line and exits
//! with status 2, so a mistyped flag never starts the minutes-long
//! sweep. Performance is measured by the declared benchmark
//! (`perfbench/`, judged by `.github/perf_gate.sh`).

use biocheck_bench as exp;
use std::time::Instant;

const USAGE: &str = "usage: report   (no arguments; prints the E1–E9 experiment table)";

fn run(name: &str, f: impl FnOnce() -> Vec<exp::Row>) -> Vec<exp::Row> {
    let t0 = Instant::now();
    let rows = f();
    eprintln!("{name}: {:?}", t0.elapsed());
    rows
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("report: unexpected argument {arg:?}\n{USAGE}");
        std::process::exit(2);
    }

    let mut all = Vec::new();
    all.extend(run("E1", exp::e1_cardiac_falsification));
    all.extend(run("E2", exp::e2_parameter_synthesis));
    all.extend(run("E3", exp::e3_prostate));
    all.extend(run("E4", exp::e4_radiation));
    all.extend(run("E5", exp::e5_robustness));
    all.extend(run("E6", exp::e6_lyapunov));
    all.extend(run("E7", exp::e7_smc));
    all.extend(run("E8", || exp::e8_delta_sweep(&[1e-1, 1e-2, 1e-3])));
    all.extend(run("E9", || exp::e9_depth_scaling(3)));
    println!("{}", exp::to_markdown(&all));
    let holds = all.iter().filter(|r| r.holds).count();
    println!("\n{holds}/{} rows match the paper's shape.", all.len());
    let _ = std::fs::write("experiment_results.json", exp::rows_to_json(&all));
}
