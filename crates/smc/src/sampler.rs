//! Random model instantiation and Bernoulli sampling.
//!
//! The hot path is **fused simulate-and-monitor**: the BLTL property is
//! compiled once (at [`TraceSampler::new`]) into a streaming
//! [`CompiledBltl`] plan, and each sample drives the integrator's
//! step-streaming entry point, feeding every accepted step to the
//! monitor and stopping the moment the Boolean verdict decides. No
//! [`Trace`](biocheck_ode::Trace) is materialized, no
//! [`Monitor`] is built, and — with a reused [`SampleScratch`] — the
//! steady-state loop performs zero heap allocations (enforced by
//! `tests/alloc.rs`). Early termination cannot change any property
//! verdict: a verdict decided on a prefix equals the offline verdict on
//! the full trajectory (property-tested against
//! [`TraceSampler::sample_offline`] in `tests/prop.rs`).
//!
//! One deliberate edge-case divergence from the pre-fusion pipeline:
//! when a trajectory's ODE would blow up *after* the streaming verdict
//! has already decided, the fused path keeps the decided verdict (the
//! observed prefix fully determines the property), while the offline
//! reference — which always integrates the whole horizon — hits the
//! integration error and conservatively counts the sample as a
//! violation. Simulation failures *before* the verdict decides count as
//! violations on both paths.
//!
//! A query's [`LaneStream`](crate::LaneStream) runs the same fused body
//! over [`LANES`] stage-synchronous lanes
//! ([`DormandPrince::integrate_lanes`]), with each sweep's accepted
//! samples fed to every lane's monitor in one lane-wide call
//! ([`CompiledBltl::feed_lanes`]); the one-sample entry points are its
//! one-lane instances, so both produce the same bits. A Boolean outcome
//! ([`SampleStats`]) monitors without the robustness arenas it never
//! reads. Lanes claim their indices one at a time from a source,
//! refilling a lane at the step boundary after its sample ends: the one
//! slot of a one-sample call, or the stream, which several samplers
//! share.

use crate::parallel::fork_rng;
use biocheck_bltl::{Bltl, CompiledBltl, Monitor, MonitorScratch};
use biocheck_expr::{Context, VarId};
use biocheck_ode::{
    CompiledOde, DormandPrince, LaneDriver, Load, OdeError, OdeScratch, OdeSystem, StepControl,
    StreamEnd,
};
use rand::Rng;
use std::sync::{Arc, Mutex, PoisonError};

/// Trajectories one sampler advances in lockstep: each sweep of the
/// compiled right-hand side evaluates this many samples at once.
pub const LANES: usize = 16;

/// A sampling distribution for an initial state or parameter.
#[derive(Clone, Debug)]
pub enum Dist {
    /// Deterministic value.
    Point(f64),
    /// Uniform on `[lo, hi]`.
    Uniform(f64, f64),
    /// Normal with the given mean and standard deviation.
    Normal {
        /// Mean.
        mean: f64,
        /// Standard deviation.
        sd: f64,
    },
    /// Log-normal: `exp(N(mu, sigma))`.
    LogNormal {
        /// Location (of the underlying normal).
        mu: f64,
        /// Scale (of the underlying normal).
        sigma: f64,
    },
}

impl Dist {
    /// Draws a sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            Dist::Point(v) => v,
            Dist::Uniform(lo, hi) => rng.gen_range(lo..=hi),
            Dist::Normal { mean, sd } => mean + sd * standard_normal(rng),
            Dist::LogNormal { mu, sigma } => (mu + sigma * standard_normal(rng)).exp(),
        }
    }

    /// Refuses an ill-defined distribution before anything draws from
    /// it: a non-finite parameter, an empty uniform range (`lo > hi`), a
    /// uniform width that overflows, or a negative spread. Any of these
    /// would give samples non-finite starts (each counted as a
    /// violation) or panic the draw. The error names the parameters at
    /// fault (`"uniform bounds"`, ...) and says what is wrong.
    pub fn check(&self) -> Result<(), (&'static str, String)> {
        let (what, ok) = match *self {
            Dist::Point(v) => ("point value", v.is_finite()),
            // A finite width keeps every draw `lo + (hi - lo)·u` finite.
            Dist::Uniform(lo, hi) => ("uniform bounds", lo <= hi && (hi - lo).is_finite()),
            Dist::Normal { mean, sd } => (
                "normal parameters",
                mean.is_finite() && sd.is_finite() && sd >= 0.0,
            ),
            Dist::LogNormal { mu, sigma } => (
                "lognormal parameters",
                mu.is_finite() && sigma.is_finite() && sigma >= 0.0,
            ),
        };
        if ok {
            return Ok(());
        }
        let detail = match *self {
            Dist::Uniform(lo, hi) if lo > hi => format!("uniform lo {lo} exceeds hi {hi}"),
            _ => format!(
                "need finite parameters, lo <= hi with a finite width, \
                 and no negative spread; got {self:?}"
            ),
        };
        Err((what, detail))
    }

    /// The distribution mean (exact).
    pub fn mean(&self) -> f64 {
        match *self {
            Dist::Point(v) => v,
            Dist::Uniform(lo, hi) => 0.5 * (lo + hi),
            Dist::Normal { mean, .. } => mean,
            Dist::LogNormal { mu, sigma } => (mu + 0.5 * sigma * sigma).exp(),
        }
    }
}

/// Box–Muller standard normal. The guarded loop rejects `u1` values too
/// close to zero so `ln(u1)` can never produce an infinity; the loop
/// terminates with overwhelming probability on the first draw (the vendored
/// `rand` generates `u1 = 0` with probability 2⁻⁵³ per attempt).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

/// Reusable per-worker workspace for fused sampling: the parameter
/// environment, the initial-state buffer, the integrator's step buffers,
/// and the lanes' streaming-monitor workspace. After the first sample
/// (or range) through a given sampler (warm-up), every subsequent sample
/// or range through the same scratch is allocation-free.
#[derive(Clone, Debug, Default)]
pub struct SampleScratch {
    env: Vec<f64>,
    y0: Vec<f64>,
    ode: OdeScratch,
    mon: MonitorScratch,
}

impl SampleScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> SampleScratch {
        SampleScratch::default()
    }
}

/// Idle warm scratches, shared by every sampler: a scratch carries no
/// sampler state, only buffer capacity.
static SPARE: Mutex<Vec<SampleScratch>> = Mutex::new(Vec::new());

/// Runs `f` with a warm scratch from the process-wide pool of idle ones
/// (a new one when all are in use) and returns the scratch to the pool
/// afterwards. Every sampler of a [`LaneStream`](crate::LaneStream)
/// borrows its scratch here, so lane buffers stay warm across queries
/// instead of regrowing each time, and the pool holds one scratch per
/// concurrent sampler at most. Scratch reuse carries no state between
/// samples, so results do not depend on which scratch a call gets.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut SampleScratch) -> R) -> R {
    let pool = || SPARE.lock().unwrap_or_else(PoisonError::into_inner);
    let mut scratch = pool().pop().unwrap_or_default();
    let r = f(&mut scratch);
    pool().push(scratch);
    r
}

/// Outcome of one instrumented Bernoulli sample.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SampleStats {
    /// Did the property hold on this trajectory?
    pub sat: bool,
    /// Number of integration samples taken (initial point included).
    pub steps: usize,
    /// Did the streaming verdict decide before the time horizon, cutting
    /// the integration short?
    pub early_stop: bool,
}

/// Draws random instantiations of an ODE model and monitors a BLTL
/// property on each simulated trace.
pub struct TraceSampler {
    cx: Context,
    ode: Arc<CompiledOde>,
    states: Vec<VarId>,
    init: Vec<Dist>,
    params: Vec<(VarId, Dist)>,
    property: Bltl,
    plan: CompiledBltl,
    t_end: f64,
    integrator: DormandPrince,
}

impl TraceSampler {
    /// Creates a sampler. The property is compiled once, here, into a
    /// streaming monitor plan; per-sample monitoring builds nothing.
    ///
    /// # Panics
    ///
    /// Panics when `init` does not match the system dimension.
    pub fn new(
        cx: Context,
        sys: &OdeSystem,
        init: Vec<Dist>,
        params: Vec<(VarId, Dist)>,
        property: Bltl,
        t_end: f64,
    ) -> TraceSampler {
        let ode = Arc::new(sys.compile(&cx));
        let plan = CompiledBltl::compile(&cx, &sys.states, &property);
        TraceSampler::from_artifacts(cx, ode, plan, init, params, property, t_end)
    }

    /// Assembles a sampler from **precompiled** artifacts: a compiled
    /// RHS and a compiled streaming-monitor plan. Performs no lowering
    /// of any kind — this is the constructor behind the engine crate's
    /// per-session artifact cache, where the RHS is compiled once per
    /// model (and shared, not copied, by every sampler built from it)
    /// and each formula's plan once per session, then shared across
    /// every query that reuses them.
    ///
    /// `property` must be the formula `plan` was compiled from (it backs
    /// [`TraceSampler::sample_offline`], the reference path).
    ///
    /// # Panics
    ///
    /// Panics when `init` does not match the system dimension.
    pub fn from_artifacts(
        cx: Context,
        ode: Arc<CompiledOde>,
        plan: CompiledBltl,
        init: Vec<Dist>,
        params: Vec<(VarId, Dist)>,
        property: Bltl,
        t_end: f64,
    ) -> TraceSampler {
        assert_eq!(init.len(), ode.dim(), "one init distribution per state");
        TraceSampler {
            states: ode.states().to_vec(),
            ode,
            plan,
            cx,
            init,
            params,
            property,
            t_end,
            integrator: DormandPrince::with_tolerances(1e-6, 1e-8),
        }
    }

    /// A workspace for [`TraceSampler::sample_with`] and friends; hold
    /// one per worker and reuse it across samples.
    pub fn scratch(&self) -> SampleScratch {
        SampleScratch::new()
    }

    /// Draws the random instantiation into `env` / `y0`. This is the
    /// only RNG consumption of a sample, so early termination never
    /// perturbs the per-index random streams.
    fn draw<R: Rng + ?Sized>(&self, rng: &mut R, env: &mut Vec<f64>, y0: &mut Vec<f64>) {
        env.clear();
        env.resize(self.cx.num_vars(), 0.0);
        for (v, d) in &self.params {
            env[v.index()] = d.sample(rng);
        }
        y0.clear();
        for d in &self.init {
            y0.push(d.sample(rng));
        }
    }

    /// Draws one Bernoulli sample: simulates a random instantiation and
    /// returns whether the property holds (failed simulations count as
    /// violations — the conservative reading). Fused simulate-and-monitor
    /// through a reused scratch: integration stops the moment the
    /// streaming verdict decides, and the steady-state loop is
    /// allocation-free.
    pub fn sample_with<R: Rng + ?Sized>(&self, rng: &mut R, scratch: &mut SampleScratch) -> bool {
        self.sample_stats_with(rng, scratch).sat
    }

    /// [`TraceSampler::sample_with`] plus instrumentation: integration
    /// step count and whether the verdict decided early. The one-lane
    /// instance of [`TraceSampler::stats_stream`]'s sample body.
    pub fn sample_stats_with<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        scratch: &mut SampleScratch,
    ) -> SampleStats {
        let mut out = [SampleStats::default()];
        self.fuse::<1, _, _>(scratch, one_draw(rng), &mut Range::new(&mut out));
        out[0]
    }

    /// Fused single-pass `(satisfied, robustness)` sample; a failed
    /// simulation is `(false, −∞)`. Robustness needs the whole horizon,
    /// so there is no early termination, but simulation and both
    /// semantics still run in one pass with no trace materialization and
    /// no steady-state allocation. The one-lane instance of
    /// [`TraceSampler::robustness_stream`]'s sample body.
    pub fn sample_robustness_with<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        scratch: &mut SampleScratch,
    ) -> (bool, f64) {
        let mut out = [(false, 0.0)];
        self.fuse::<1, _, _>(scratch, one_draw(rng), &mut Range::new(&mut out));
        out[0]
    }

    /// Samples what `source` hands out, at most `len` samples, in
    /// lockstep lanes: index `j` draws through `draw`. Returns when no
    /// lane is live (see [`DormandPrince::integrate_lanes`]).
    pub(crate) fn fuse_any<O: SampleOutcome>(
        &self,
        scratch: &mut SampleScratch,
        draw: impl FnMut(usize, &TraceSampler, &mut Vec<f64>, &mut Vec<f64>),
        source: &mut impl Source<O>,
        len: usize,
    ) {
        // A one-sample stream on 16 lanes takes 1.6 (prostate), 2.0
        // (radiation) and 2.4 (cardiac) times as long as on one lane
        // (sequential `Estimate`, x86-64 with AVX2, release build).
        // Four or more trajectories run faster on 16 lanes for all
        // three case studies: at four, in 0.87, 0.61 and 0.74 of the
        // one-lane time; at three prostate takes 1.31. `Robustness`
        // crosses over at three. So a stream of fewer than four samples
        // runs through a single lane, refilled index by index.
        if len < 4 {
            self.fuse::<1, _, _>(scratch, draw, source);
        } else {
            self.fuse::<LANES, _, _>(scratch, draw, source);
        }
    }

    /// The one fused sample body: claims index after index of `source`,
    /// draws each claimed sample through `draw`, integrates them over
    /// `K` lockstep lanes with a lane-wide streaming monitor, and hands
    /// each sample's outcome back to `source`.
    fn fuse<const K: usize, O: SampleOutcome, S: Source<O>>(
        &self,
        scratch: &mut SampleScratch,
        draw: impl FnMut(usize, &TraceSampler, &mut Vec<f64>, &mut Vec<f64>),
        source: &mut S,
    ) {
        let SampleScratch { env, y0, ode, mon } = scratch;
        let mut lanes = Fused {
            sampler: self,
            draw,
            env,
            y0,
            mon,
            source,
            held: [0; K],
            outcome: std::marker::PhantomData,
        };
        self.integrator
            .integrate_lanes::<K>(&self.ode, (0.0, self.t_end), ode, &mut lanes);
    }

    /// Reference implementation used by the equivalence property tests:
    /// integrate the full horizon into a trace, then monitor it offline
    /// with a freshly built [`Monitor`] — exactly the pre-fusion
    /// pipeline. Returns `(satisfied, robustness)`.
    ///
    /// Equals the fused path whenever full-horizon integration
    /// succeeds. The one divergence: a trajectory that blows up *after*
    /// the streaming verdict decided is a conservative `false` here but
    /// keeps its decided verdict on the fused path (see the module
    /// docs).
    pub fn sample_offline<R: Rng + ?Sized>(&self, rng: &mut R) -> (bool, f64) {
        let mut env = vec![0.0; self.cx.num_vars()];
        for (v, d) in &self.params {
            env[v.index()] = d.sample(rng);
        }
        let y0: Vec<f64> = self.init.iter().map(|d| d.sample(rng)).collect();
        match self
            .integrator
            .integrate(&self.ode, &env, &y0, (0.0, self.t_end))
        {
            Ok(trace) => {
                let mut mon = Monitor::new(&self.cx, &self.states).with_env(env);
                let sat = mon.check(&self.property, &trace);
                let rob = mon.robustness(&self.property, &trace);
                (sat, rob)
            }
            Err(_) => (false, f64::NEG_INFINITY),
        }
    }
}

/// The per-sample draw of a single-sample call: slot 0 from `rng`.
fn one_draw<R: Rng + ?Sized>(
    rng: &mut R,
) -> impl FnMut(usize, &TraceSampler, &mut Vec<f64>, &mut Vec<f64>) + '_ {
    move |_, s, env, y0| s.draw(rng, env, y0)
}

/// The per-sample draw of a stream: index `j` from `fork_rng(seed, j)`.
pub(crate) fn range_draw(
    seed: u64,
) -> impl FnMut(usize, &TraceSampler, &mut Vec<f64>, &mut Vec<f64>) {
    move |j, s, env, y0| s.draw(&mut fork_rng(seed, j as u64), env, y0)
}

/// What a fused sample reports: the Boolean [`SampleStats`] (the monitor
/// stops integration once the verdict decides) or `(satisfied,
/// robustness)` (the whole horizon). Sealed: these two are the only
/// outcomes.
pub trait SampleOutcome: Copy + Send + sealed::Sealed {
    /// Whether the outcome is the Boolean verdict alone: a decided
    /// verdict then ends the trajectory, and the monitor keeps no
    /// robustness.
    #[doc(hidden)]
    const BOOLEAN: bool;
    /// The outcome of the trajectory in `lane` of `mon`, which ended
    /// with `end`.
    #[doc(hidden)]
    fn finish(
        plan: &CompiledBltl,
        mon: &mut MonitorScratch,
        lane: usize,
        end: Result<StreamEnd, OdeError>,
    ) -> Self;
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::SampleStats {}
    impl Sealed for (bool, f64) {}
}

impl SampleOutcome for SampleStats {
    const BOOLEAN: bool = true;
    fn finish(
        plan: &CompiledBltl,
        mon: &mut MonitorScratch,
        lane: usize,
        end: Result<StreamEnd, OdeError>,
    ) -> Self {
        match end {
            Ok(end) => SampleStats {
                sat: plan.finish_bool_lane(mon, lane),
                steps: end.steps,
                early_stop: end.stopped_early,
            },
            // Failed simulations count as violations (conservative), as
            // in the offline path.
            Err(_) => SampleStats {
                sat: false,
                steps: mon.lane_samples(lane),
                early_stop: false,
            },
        }
    }
}

impl SampleOutcome for (bool, f64) {
    const BOOLEAN: bool = false;
    fn finish(
        plan: &CompiledBltl,
        mon: &mut MonitorScratch,
        lane: usize,
        end: Result<StreamEnd, OdeError>,
    ) -> Self {
        match end {
            Ok(_) => (
                plan.finish_bool_lane(mon, lane),
                plan.finish_robustness_lane(mon, lane),
            ),
            Err(_) => (false, f64::NEG_INFINITY),
        }
    }
}

/// A sampler's answer to a free lane: the next index to sample, or why
/// there is none.
pub(crate) enum Claim {
    /// Sample this index.
    Index(usize),
    /// None yet: ask again at the next step boundary.
    Later,
    /// None is left.
    Done,
}

/// Where a fused run's samples come from and where their outcomes go.
pub(crate) trait Source<O> {
    /// The next index for a free lane.
    fn claim(&mut self) -> Claim;
    /// Whether in-flight lanes should stop at their next accepted step,
    /// their samples unwanted.
    fn halted(&self) -> bool {
        false
    }
    /// Sample `index` ended with `outcome`.
    fn put(&mut self, index: usize, outcome: O);
}

/// The source of a one-sample call: slot `j` of a slice is sample `j`,
/// claimed in order.
struct Range<'o, O> {
    out: &'o mut [O],
    next: usize,
}

impl<'o, O> Range<'o, O> {
    fn new(out: &'o mut [O]) -> Range<'o, O> {
        Range { out, next: 0 }
    }
}

impl<O> Source<O> for Range<'_, O> {
    fn claim(&mut self) -> Claim {
        if self.next == self.out.len() {
            return Claim::Done;
        }
        self.next += 1;
        Claim::Index(self.next - 1)
    }

    fn put(&mut self, index: usize, outcome: O) {
        self.out[index] = outcome;
    }
}

/// The lane driver of [`TraceSampler::fuse`]: loads index after claimed
/// index, feeds each sweep's accepted steps to the lanes' monitor, and
/// hands each outcome to the source.
struct Fused<'a, D, O, S, const K: usize> {
    sampler: &'a TraceSampler,
    draw: D,
    env: &'a mut Vec<f64>,
    y0: &'a mut Vec<f64>,
    mon: &'a mut MonitorScratch,
    source: &'a mut S,
    /// The index each lane is sampling.
    held: [usize; K],
    outcome: std::marker::PhantomData<O>,
}

impl<D, O, S, const K: usize> LaneDriver<K> for Fused<'_, D, O, S, K>
where
    D: FnMut(usize, &TraceSampler, &mut Vec<f64>, &mut Vec<f64>),
    O: SampleOutcome,
    S: Source<O>,
{
    fn load(&mut self, lane: usize) -> Load<'_> {
        let j = match self.source.claim() {
            Claim::Index(j) => j,
            Claim::Later => return Load::Later,
            Claim::Done => return Load::Done,
        };
        (self.draw)(j, self.sampler, self.env, self.y0);
        let robustness = !O::BOOLEAN;
        self.sampler
            .plan
            .begin_lane::<K>(self.mon, lane, self.env, robustness);
        self.held[lane] = j;
        Load::Start(self.env, self.y0)
    }

    fn sink(
        &mut self,
        accepted: &[bool; K],
        t: &[f64; K],
        y: &[[f64; K]],
        _dy: &[[f64; K]],
    ) -> [StepControl; K] {
        if self.source.halted() {
            return [StepControl::Stop; K];
        }
        let verdicts = self.sampler.plan.feed_lanes(self.mon, accepted, t, y);
        verdicts.map(|v| {
            if O::BOOLEAN && v.decided() {
                StepControl::Stop
            } else {
                StepControl::Continue
            }
        })
    }

    fn finish(&mut self, lane: usize, end: Result<StreamEnd, OdeError>) {
        if self.source.halted() {
            return;
        }
        let outcome = O::finish(&self.sampler.plan, self.mon, lane, end);
        self.source.put(self.held[lane], outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq_estimate;
    use biocheck_expr::{Atom, RelOp};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dist_sampling_statistics() {
        let mut rng = StdRng::seed_from_u64(7);
        for d in [
            Dist::Point(2.0),
            Dist::Uniform(1.0, 3.0),
            Dist::Normal { mean: 2.0, sd: 0.5 },
        ] {
            let n = 4000;
            let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
            assert!(
                (mean - d.mean()).abs() < 0.1,
                "{d:?}: sample mean {mean} vs {}",
                d.mean()
            );
        }
        // Log-normal is skewed; just check positivity and rough mean.
        let d = Dist::LogNormal {
            mu: 0.0,
            sigma: 0.25,
        };
        let mut all_positive = true;
        for _ in 0..100 {
            all_positive &= d.sample(&mut rng) > 0.0;
        }
        assert!(all_positive);
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = Dist::Uniform(-2.0, -1.0);
        for _ in 0..200 {
            let v = d.sample(&mut rng);
            assert!((-2.0..=-1.0).contains(&v));
        }
    }

    /// Decay from x₀ ~ U[0.5, 1.5]: F≤5 (x ≤ 0.2) always true (slowest
    /// case 1.5·e⁻⁵ ≈ 0.01), while F≤5 (x ≥ 2) is always false.
    fn decay_sampler(prop_src: &str, op: RelOp) -> TraceSampler {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let rhs = cx.parse("-x").unwrap();
        let sys = OdeSystem::new(vec![x], vec![rhs]);
        let e = cx.parse(prop_src).unwrap();
        let prop = Bltl::eventually(5.0, Bltl::Prop(Atom::new(e, op)));
        TraceSampler::new(cx, &sys, vec![Dist::Uniform(0.5, 1.5)], vec![], prop, 5.0)
    }

    #[test]
    fn certain_property_samples_true() {
        let s = decay_sampler("0.2 - x", RelOp::Ge);
        let (mut rng, mut scratch) = (StdRng::seed_from_u64(42), s.scratch());
        assert!((0..50).all(|_| s.sample_with(&mut rng, &mut scratch)));
        assert_eq!(seq_estimate(&s, 42, 20), 1.0);
    }

    #[test]
    fn impossible_property_samples_false() {
        let s = decay_sampler("x - 2", RelOp::Ge);
        let (mut rng, mut scratch) = (StdRng::seed_from_u64(42), s.scratch());
        assert!((0..50).all(|_| !s.sample_with(&mut rng, &mut scratch)));
    }

    #[test]
    fn threshold_property_has_intermediate_probability() {
        // x₀ ~ U[0.5, 1.5]; G≤1 (x ≥ x₀·e⁻¹ threshold)… simpler: initial
        // value already decides: F≤0.01 (x ≥ 1) ⇔ x₀ ≥ ~1 ⇒ p ≈ 0.5.
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let rhs = cx.parse("-x").unwrap();
        let sys = OdeSystem::new(vec![x], vec![rhs]);
        let e = cx.parse("x - 1").unwrap();
        let prop = Bltl::eventually(0.01, Bltl::Prop(Atom::new(e, RelOp::Ge)));
        let s = TraceSampler::new(cx, &sys, vec![Dist::Uniform(0.5, 1.5)], vec![], prop, 0.01);
        let p = seq_estimate(&s, 3, 600);
        assert!((p - 0.5).abs() < 0.1, "p = {p}");
    }

    #[test]
    #[should_panic(expected = "n: need at least one sample")]
    fn estimate_refuses_zero_samples() {
        let s = decay_sampler("0.2 - x", RelOp::Ge);
        seq_estimate(&s, 1, 0);
    }

    #[test]
    fn robustness_reported() {
        let s = decay_sampler("0.2 - x", RelOp::Ge);
        let mut rng = StdRng::seed_from_u64(9);
        let (sat, rob) = s.sample_robustness_with(&mut rng, &mut s.scratch());
        assert!(sat && rob > 0.0);
    }
}
