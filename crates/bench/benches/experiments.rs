//! Criterion benches: one group per experiment (E1–E9) of
//! `biocheck_bench`, the harness described in `docs/ARCHITECTURE.md`.
//!
//! Each bench runs a configuration sized for repeated timing. The three
//! heavyweight syntheses (E1 dome refutation, E3 threshold synthesis,
//! E4 rescue-schedule synthesis — seconds to minutes each) are executed
//! once by the `report` binary instead; benching them here would take
//! hours under Criterion's sampling. Their fast sub-checks (E5 shares
//! E1's model and encoding; E9 shares E3/E4's BMC machinery) are benched
//! as proxies for the per-query cost.

use biocheck_bench as exp;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_experiments(c: &mut Criterion) {
    let mut g = c.benchmark_group("experiments");
    g.sample_size(10);

    // E1/E5 proxy: the cardiac reachability query (sub- and supra-
    // threshold stimulus verdicts; ~0.3 s per query pair).
    g.bench_function("e1_e5_cardiac_reach", |b| b.iter(exp::e5_robustness));
    // E2: guaranteed parameter synthesis (decay + Michaelis–Menten).
    g.bench_function("e2_parameter_synthesis", |b| {
        b.iter(exp::e2_parameter_synthesis)
    });
    // E6: CEGIS Lyapunov synthesis (3 systems).
    g.bench_function("e6_lyapunov", |b| b.iter(exp::e6_lyapunov));
    // E7: SMC verdicts (Chernoff + SPRT + p53).
    g.bench_function("e7_smc", |b| b.iter(exp::e7_smc));
    // E8: δ sweep — timing vs δ is the figure; bench the two extremes.
    g.bench_function("e8_delta_1e-1", |b| b.iter(|| exp::e8_delta_sweep(&[1e-1])));
    g.bench_function("e8_delta_1e-3", |b| b.iter(|| exp::e8_delta_sweep(&[1e-3])));
    // E9 (and E3/E4 proxy): BMC depth scaling with both solver routes.
    g.bench_function("e9_depth_k1", |b| b.iter(|| exp::e9_depth_scaling(1)));
    g.bench_function("e9_depth_k3", |b| b.iter(|| exp::e9_depth_scaling(3)));
    g.finish();
}

criterion_group!(benches, bench_experiments);
criterion_main!(benches);
