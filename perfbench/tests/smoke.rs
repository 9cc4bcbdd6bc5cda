//! Smoke mode end to end: every workload, untraced and traced, through
//! the real binary (and, for `daemon_mix`, a real `biocheckd` child).
//! Each run must pass its own output checks, exit 0, and end its stdout
//! with a result object that names every metric of its catalogue.

use std::process::Command;

fn run(workload: &str, trace: u8) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "11", "--seconds", "0.5"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    if !out.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&out.stderr));
    }
    (out.status.success(), last)
}

fn check(workload: &str, trace: u8, names: &[&str]) {
    let (ok, line) = run(workload, trace);
    assert!(ok, "{workload} trace={trace} failed: {line}");
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0,"), "{line}");
    for name in names {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing: {line}"
        );
    }
    assert!(!line.contains("null"), "a metric was not finite: {line}");
}

const END_TO_END: &[&str] = &[
    "setup_s",
    "rss_mb",
    "throughput_per_s",
    "pass_s",
    "p50_ms",
    "p90_ms",
];

#[test]
fn smc_sweep_smoke() {
    check("smc_sweep", 0, END_TO_END);
    check(
        "smc_sweep",
        1,
        &[
            "expr.eval_ns",
            "pool.speedup",
            "trace.overhead",
            "engine.falsify_ms",
            "icp.boxes",
            "lyapunov.iterations",
        ],
    );
}

#[test]
fn daemon_mix_smoke() {
    check("daemon_mix", 0, END_TO_END);
    check(
        "daemon_mix",
        1,
        &[
            "socket.overhead_us",
            "serve.execute_ms",
            "registry.session_builds",
        ],
    );
}

#[test]
fn unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result on a refused run");
}
