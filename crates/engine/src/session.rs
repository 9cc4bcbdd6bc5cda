//! Per-model analysis sessions with compiled-artifact caching.

use crate::budget::Budget;
use crate::calibrate::{self, CalibrationProblem};
use crate::error::Error;
use crate::exec_smc::{Sampling, SmcOutcome};
use crate::falsify::{self, FalsificationOutcome};
use crate::query::{push_bltl, push_smc, EstimateMethod, Query, QueryKind, SmcSpec};
use crate::report::{Outcome, Provenance, Report, Value};
use crate::stability;
use crate::therapy;
use biocheck_bltl::{Bltl, CompiledBltl};
use biocheck_bmc::{ReachOptions, ReachSpec};
use biocheck_expr::Context;
use biocheck_hybrid::HybridAutomaton;
use biocheck_models::OdeModel;
use biocheck_ode::{CompiledOde, OdeSystem, Trace};
use biocheck_smc::{
    check_bayes, check_chernoff, check_samples, check_sprt, fork_seed, Dist, TraceSampler,
};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Single-mode ODE model: context + system + the RHS compiled once
/// (shared by every view of the session).
struct OdeParts {
    cx: Context,
    sys: OdeSystem,
    ode: Arc<CompiledOde>,
}

/// The model a session analyzes.
enum Model {
    /// Single-mode ODE model.
    Ode(Box<OdeParts>),
    /// Multi-mode hybrid automaton.
    Hybrid(Arc<HybridAutomaton>),
}

impl Model {
    fn name(&self) -> &'static str {
        match self {
            Model::Ode(_) => "ODE model",
            Model::Hybrid(_) => "hybrid automaton",
        }
    }
}

/// Lowering work performed by a session since construction. The
/// counters count lowering actually performed: under sequential use,
/// compilation happens at most once per distinct artifact and repeated
/// queries are pure cache hits (the invariant the engine's cache tests
/// pin down). Concurrent queries racing on the *same brand-new* setup
/// may each speculatively compile it (lowering runs outside the cache
/// lock; the duplicate is discarded on insert and every caller shares
/// one sampler), so under `run_batch` the counters are an upper bound,
/// not an exact artifact count.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// RHS `Program` compilations (1 for ODE sessions, 0 for hybrid).
    pub rhs_compiles: usize,
    /// BLTL formulas lowered into streaming plans.
    pub plan_compiles: usize,
    /// Samplers assembled from cached artifacts.
    pub sampler_builds: usize,
    /// Queries answered entirely from cache (no lowering of any kind).
    pub cache_hits: usize,
    /// Interned expression nodes in the session's context. 0 for
    /// hybrid sessions, whose queries carry no text expressions.
    pub arena_nodes: usize,
    /// Compiled artifacts currently cached (plans + samplers).
    pub artifact_count: usize,
    /// Artifacts dropped by the [`Session::MAX_ARTIFACTS`] LRU bound.
    pub artifact_evictions: usize,
}

#[derive(Default)]
struct Counters {
    rhs: AtomicUsize,
    plans: AtomicUsize,
    samplers: AtomicUsize,
    hits: AtomicUsize,
    evictions: AtomicUsize,
}

/// Compiled artifacts shared across queries, each stamped with the
/// store tick of its last use so the LRU bound evicts cold artifacts
/// first. Keys are the canonical renderings
/// ([`Query::canonical`]'s pieces): names and round-trip floats, never
/// `NodeId`s, so views whose private arenas number nodes differently
/// share an artifact exactly when they describe the same setup.
#[derive(Default)]
struct Artifacts {
    /// Streaming monitor plans, keyed by formula.
    plans: HashMap<String, (CompiledBltl, u64)>,
    /// Fully assembled samplers, keyed by the whole [`SmcSpec`].
    samplers: HashMap<String, (Arc<TraceSampler>, u64)>,
}

impl Artifacts {
    fn len(&self) -> usize {
        self.plans.len() + self.samplers.len()
    }

    /// Evicts least-recently-used artifacts until at most `max` remain;
    /// returns how many were dropped. An evicted artifact recompiles on
    /// next use bit-identically, and samplers still borrowed by
    /// in-flight queries stay alive through their `Arc`.
    fn evict_to(&mut self, max: usize) -> usize {
        let over = self.len().saturating_sub(max);
        if over == 0 {
            return 0;
        }
        // Oldest tick across both maps goes first; a plan and a sampler
        // never share a stamp (the tick is a per-use counter).
        let mut stamps: Vec<u64> = self
            .plans
            .values()
            .map(|(_, t)| *t)
            .chain(self.samplers.values().map(|(_, t)| *t))
            .collect();
        stamps.sort_unstable();
        let cutoff = stamps[over - 1];
        self.plans.retain(|_, (_, t)| *t > cutoff);
        self.samplers.retain(|_, (_, t)| *t > cutoff);
        over
    }
}

/// The artifact cache and lowering counters of one model, shared by its
/// session and every view opened on it ([`Session::view`]).
#[derive(Default)]
struct Store {
    artifacts: Mutex<Artifacts>,
    counters: Counters,
    /// Monotone use clock for artifact LRU ordering.
    tick: AtomicU64,
}

/// A per-model analysis session.
///
/// Construct one per model ([`Session::new`] /
/// [`Session::from_automaton`]) and reuse it for every query against
/// that model: the ODE right-hand side is compiled exactly once (at
/// construction), each BLTL formula is lowered into its streaming
/// [`CompiledBltl`] plan exactly once, and repeated queries re-lower
/// nothing — verified by [`Session::stats`] counters and bit-identical
/// cached-vs-fresh results.
///
/// Queries run through the builder ([`Session::query`]) or in bulk
/// through [`Session::run_batch`]. All methods take `&self`; a session
/// is `Sync` and can serve queries from many threads. A session's
/// context never changes after construction: queries whose text must
/// be parsed go through [`Session::view`], which parses into a private
/// copy and shares everything compiled.
pub struct Session {
    model: Model,
    nominal_init: Vec<f64>,
    nominal_env: Vec<f64>,
    store: Arc<Store>,
}

impl Session {
    /// How many compiled artifacts (plans + samplers) a session and its
    /// views retain; inserting past it evicts the least recently used.
    /// It holds six query setups (a plan and a sampler each) warm, and
    /// at 4–6 KB per case-study pair it keeps a model's store under
    /// 40 KB however many literals a sweep sends.
    pub const MAX_ARTIFACTS: usize = 12;

    /// Opens a session over a packaged ODE model, compiling its
    /// right-hand side once. The model's nominal initial state and
    /// environment back [`Session::simulate`].
    pub fn new(model: &OdeModel) -> Session {
        let mut s = Session::from_parts(model.cx.clone(), model.sys.clone());
        s.nominal_init.clone_from(&model.init);
        s.nominal_env.clone_from(&model.env);
        s
    }

    /// Opens a session over a hand-built context + system (nominal
    /// initial state and environment default to zero).
    pub fn from_parts(cx: Context, sys: OdeSystem) -> Session {
        let ode = Arc::new(sys.compile(&cx));
        let store = Store::default();
        store.counters.rhs.store(1, Ordering::Relaxed);
        Session {
            nominal_init: vec![0.0; sys.dim()],
            nominal_env: vec![0.0; cx.num_vars()],
            model: Model::Ode(Box::new(OdeParts { cx, sys, ode })),
            store: Arc::new(store),
        }
    }

    /// Opens a session over a hybrid automaton (for `Falsify` and
    /// `Therapy` queries).
    pub fn from_automaton(ha: &HybridAutomaton) -> Session {
        Session {
            model: Model::Hybrid(Arc::new(ha.clone())),
            nominal_init: Vec::new(),
            nominal_env: Vec::new(),
            store: Arc::default(),
        }
    }

    /// Opens a view of this session for a query given in text form.
    /// `build` parses into a private copy of the session's context —
    /// a copy can only *extend* the model's arena, so the session
    /// itself never changes — and the returned view resolves the
    /// query's expressions against that copy. The view shares the
    /// compiled right-hand side, the artifact store and the counters,
    /// so whatever it compiles stays warm for later views (keyed by
    /// content, not by node id). Hybrid sessions have no expression
    /// arena; `build` then gets an empty context.
    pub fn view<T, E>(
        &self,
        build: impl FnOnce(&mut Context) -> Result<T, E>,
    ) -> Result<(Session, T), E> {
        let (model, out) = match &self.model {
            Model::Ode(parts) => {
                let mut cx = parts.cx.clone();
                let out = build(&mut cx)?;
                let parts = OdeParts {
                    cx,
                    sys: parts.sys.clone(),
                    ode: Arc::clone(&parts.ode),
                };
                (Model::Ode(Box::new(parts)), out)
            }
            Model::Hybrid(ha) => (Model::Hybrid(Arc::clone(ha)), build(&mut Context::new())?),
        };
        let view = Session {
            model,
            nominal_init: self.nominal_init.clone(),
            nominal_env: self.nominal_env.clone(),
            store: Arc::clone(&self.store),
        };
        Ok((view, out))
    }

    /// Lowering counters and memory gauges since construction (shared
    /// with every view of the session).
    pub fn stats(&self) -> CacheStats {
        let counters = &self.store.counters;
        CacheStats {
            rhs_compiles: counters.rhs.load(Ordering::Relaxed),
            plan_compiles: counters.plans.load(Ordering::Relaxed),
            sampler_builds: counters.samplers.load(Ordering::Relaxed),
            cache_hits: counters.hits.load(Ordering::Relaxed),
            arena_nodes: self.arena_nodes(),
            artifact_count: self.artifact_count(),
            artifact_evictions: counters.evictions.load(Ordering::Relaxed),
        }
    }

    /// Interned nodes in the session's expression arena (for a view,
    /// its private copy).
    pub fn arena_nodes(&self) -> usize {
        match &self.model {
            Model::Ode(parts) => parts.cx.num_nodes(),
            Model::Hybrid(_) => 0,
        }
    }

    /// Compiled artifacts currently cached (plans + samplers), at most
    /// [`Session::MAX_ARTIFACTS`].
    pub fn artifact_count(&self) -> usize {
        self.store
            .artifacts
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Simulates the ODE model from its nominal initial state and
    /// environment using the session's cached compiled RHS (unlike
    /// [`OdeModel::simulate`], which recompiles on every call).
    ///
    /// # Errors
    ///
    /// [`Error::WrongModel`] on hybrid sessions; [`Error::Ode`] when
    /// integration fails.
    pub fn simulate(&self, t_end: f64) -> Result<Trace, Error> {
        let ode = &self.ode_parts("simulate")?.ode;
        Ok(ode.integrate(&self.nominal_env, &self.nominal_init, (0.0, t_end))?)
    }

    /// Starts building a query run; finish with
    /// [`QueryRun::run`]. Defaults: seed 0, unlimited budget, parallel
    /// sampling.
    pub fn query(&self, query: Query) -> QueryRun<'_> {
        QueryRun {
            session: self,
            query,
            seed: 0,
            budget: Budget::default(),
            parallel: true,
        }
    }

    /// Executes many queries concurrently: the calling thread and pool
    /// helpers each claim the next query index and write its report into
    /// that index's slot. Query `i` runs with seed `fork_seed(seed, i)`,
    /// so the result vector is bit-for-bit identical to running each
    /// query alone with its forked seed — at any thread count.
    pub fn run_batch(&self, queries: &[Query], seed: u64) -> Vec<Result<Report, Error>> {
        let entries: Vec<(Query, Option<Budget>)> =
            queries.iter().map(|q| (q.clone(), None)).collect();
        self.run_batch_entries(&entries, seed, &Budget::default())
    }

    /// [`Session::run_batch`] with budgets: each entry may carry its own
    /// [`Budget`], and entries with `None` fall back to `shared`. Every
    /// budget is polled independently inside its query, so raising a
    /// shared cancellation token stops every entry that uses it at its
    /// next poll point. Every deadline — shared or per-entry — is
    /// resolved **once**, against the batch start instant, so the shared
    /// one bounds the whole batch, not each query. Query `i` still runs
    /// with seed `fork_seed(seed, i)`, so the result vector is
    /// bit-for-bit identical to running each entry alone with its forked
    /// seed and its own budget — at any thread count (count-based caps
    /// only; deadline cut points are wall-clock-dependent as always).
    pub fn run_batch_entries(
        &self,
        entries: &[(Query, Option<Budget>)],
        seed: u64,
        shared: &Budget,
    ) -> Vec<Result<Report, Error>> {
        let start = Instant::now();
        let shared_deadline = shared.deadline_from(start);
        let deadlines: Vec<Option<Instant>> = entries
            .iter()
            .map(|(_, b)| match b {
                Some(b) => b.deadline_from(start),
                None => shared_deadline,
            })
            .collect();
        (0..entries.len())
            .into_par_iter()
            .map(|i| {
                let (query, budget) = &entries[i];
                self.execute(
                    query,
                    fork_seed(seed, i as u64),
                    budget.as_ref().unwrap_or(shared),
                    deadlines[i],
                    true,
                )
            })
            .collect()
    }

    /// The one gate every query passes before it runs: [`QueryRun::run`]
    /// and [`Session::run_batch`] call it first, and a server can call it
    /// before its cache probe. It checks, in this order, the parameter
    /// rule of the query's kind, the model kind, every per-component
    /// length against the model dimension, and last the references into
    /// the model: a goal mode the automaton has, observed components and
    /// calibration parameters the model has. Past it, only a failure
    /// during execution is an error.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] naming the parameter at fault, then
    /// [`Error::WrongModel`], then [`Error::Shape`], then
    /// [`Error::InvalidParameter`] for a reference outside the model.
    pub fn check(&self, query: &Query) -> Result<(), Error> {
        check_params(query).map_err(|(what, detail)| Error::InvalidParameter { what, detail })?;
        let ode_dim = |kind| self.ode_parts(kind).map(|parts| parts.sys.dim());
        match query {
            Query::Estimate { smc, .. }
            | Query::Sprt { smc, .. }
            | Query::Robustness { smc, .. } => shape(
                "init distributions",
                ode_dim("SMC sampling")?,
                smc.init.len(),
            ),
            Query::Falsify { spec, opts } => check_reach(self.automaton("Falsify")?, spec, opts),
            Query::Therapy { spec, opts } => check_reach(self.automaton("Therapy")?, spec, opts),
            Query::Calibrate {
                data,
                init,
                params,
                state_bounds,
                ..
            } => {
                let parts = self.ode_parts("Calibrate")?;
                let dim = parts.sys.dim();
                shape("initial state", dim, init.len())?;
                shape("state bounds", dim, state_bounds.len())?;
                if let Some(bad) = data.observed.iter().find(|&&c| c >= dim) {
                    return Err(Error::InvalidParameter {
                        what: "data.observed",
                        detail: format!("component {bad} out of range for dimension {dim}"),
                    });
                }
                let vars = parts.cx.num_vars();
                match params.iter().find(|(v, _)| v.index() >= vars) {
                    Some((bad, _)) => Err(Error::InvalidParameter {
                        what: "params",
                        detail: format!(
                            "variable #{} is not one of the model's {vars} variables",
                            bad.index()
                        ),
                    }),
                    None => Ok(()),
                }
            }
            Query::Stability { region, .. } => shape("region", ode_dim("Stability")?, region.len()),
            Query::Lint { .. } => Ok(()),
        }
    }

    fn ode_parts(&self, query: &'static str) -> Result<&OdeParts, Error> {
        match &self.model {
            Model::Ode(parts) => Ok(parts),
            Model::Hybrid(_) => Err(Error::WrongModel {
                query,
                expected: "ODE model",
                got: self.model.name(),
            }),
        }
    }

    fn automaton(&self, query: &'static str) -> Result<&HybridAutomaton, Error> {
        match &self.model {
            Model::Hybrid(ha) => Ok(ha),
            Model::Ode { .. } => Err(Error::WrongModel {
                query,
                expected: "hybrid automaton",
                got: self.model.name(),
            }),
        }
    }

    /// [`sampler`](Session::sampler), measuring its wall time into the
    /// report's compile-phase provenance.
    fn timed_sampler(
        &self,
        smc: &SmcSpec,
        budget: &Budget,
        compile: &mut Duration,
    ) -> Result<Arc<TraceSampler>, Error> {
        let _tspan = budget.trace.as_ref().map(|t| t.span("engine.compile"));
        let t = Instant::now();
        let sampler = self.sampler(smc);
        *compile = t.elapsed();
        sampler
    }

    /// The cached sampler for an SMC setup: assembled from the cached
    /// compiled RHS and the (cached) compiled plan; a repeated setup is
    /// a pure lookup.
    fn sampler(&self, smc: &SmcSpec) -> Result<Arc<TraceSampler>, Error> {
        let OdeParts { cx, sys, ode } = self.ode_parts("SMC sampling")?;
        let mut key = String::new();
        push_smc(&mut key, cx, smc);
        let mut plan_key = String::new();
        push_bltl(&mut plan_key, cx, &smc.property);
        let Store {
            artifacts,
            counters,
            tick,
        } = &*self.store;
        // Fast path under the lock: hit the sampler cache, or at least
        // grab the formula's cached plan. Every touch restamps the
        // entry's tick so the LRU bound drops cold artifacts first.
        let cached_plan = {
            let mut artifacts = artifacts.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some((sampler, stamp)) = artifacts.samplers.get_mut(&key) {
                *stamp = tick.fetch_add(1, Ordering::Relaxed);
                counters.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(sampler));
            }
            artifacts.plans.get(&plan_key).map(|(p, _)| p.clone())
        };
        // Compile OUTSIDE the lock so concurrent queries on other
        // formulas (the cold-batch shape) lower in parallel instead of
        // serializing. Two racers on the same key may duplicate the
        // work; artifacts are bit-identical and first-insert-wins below
        // keeps every caller on one shared sampler. The counters count
        // lowering work actually performed.
        let plan = match cached_plan {
            Some(plan) => plan,
            None => {
                counters.plans.fetch_add(1, Ordering::Relaxed);
                CompiledBltl::compile(cx, &sys.states, &smc.property)
            }
        };
        counters.samplers.fetch_add(1, Ordering::Relaxed);
        let sampler = Arc::new(TraceSampler::from_artifacts(
            cx.clone(),
            Arc::clone(ode),
            plan.clone(),
            smc.init.clone(),
            smc.params.clone(),
            smc.property.clone(),
            smc.t_end,
        ));
        let mut artifacts = artifacts.lock().unwrap_or_else(PoisonError::into_inner);
        let stamp = tick.fetch_add(1, Ordering::Relaxed);
        artifacts
            .plans
            .entry(plan_key)
            .and_modify(|(_, t)| *t = stamp)
            .or_insert((plan, stamp));
        let stamp = tick.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(
            &artifacts
                .samplers
                .entry(key)
                .or_insert_with(|| (sampler, stamp))
                .0,
        );
        let evicted = artifacts.evict_to(Session::MAX_ARTIFACTS);
        counters.evictions.fetch_add(evicted, Ordering::Relaxed);
        Ok(shared)
    }

    /// Overlays the query budget onto reachability solver options.
    /// Precedence is uniform: a budget field that is set wins over the
    /// corresponding `ReachOptions` field (matching `max_splits`), so a
    /// [`CancelToken`](crate::CancelToken) attached to the run always
    /// stops the query; deadlines take the **earlier** of the two, so
    /// neither side's time bound is ever loosened.
    fn apply_budget(
        opts: &ReachOptions,
        budget: &Budget,
        deadline: Option<Instant>,
    ) -> ReachOptions {
        let mut opts = opts.clone();
        if let Some(boxes) = budget.max_paver_boxes {
            opts.max_splits = boxes;
        }
        if let Some(flag) = budget.cancel_flag() {
            opts.cancel = Some(flag);
        }
        if let Some(trace) = &budget.trace {
            opts.progress_depth = Some(Arc::clone(&trace.progress.depth));
            opts.progress_boxes = Some(Arc::clone(&trace.progress.boxes));
            opts.progress_conflicts = Some(Arc::clone(&trace.progress.conflicts));
            opts.progress_restarts = Some(Arc::clone(&trace.progress.restarts));
        }
        opts.deadline = match (opts.deadline, deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        opts
    }

    fn smc_report(&self, kind: QueryKind, seed: u64, out: SmcOutcome) -> Report {
        Report {
            kind,
            outcome: out.outcome,
            value: out.value,
            provenance: Provenance {
                seed,
                samples: out.samples,
                early_stop_rate: out.early_stop_rate,
                avg_steps: out.avg_steps,
                ..Provenance::default()
            },
        }
    }

    fn delta_report(&self, kind: QueryKind, seed: u64, exhausted: bool, value: Value) -> Report {
        Report {
            kind,
            outcome: if exhausted {
                Outcome::Exhausted
            } else {
                Outcome::Complete
            },
            value,
            provenance: Provenance {
                seed,
                ..Provenance::default()
            },
        }
    }

    /// The single dispatch point behind [`QueryRun::run`] and
    /// [`Session::run_batch`]. `deadline` is the budget's relative
    /// allowance already resolved against the run's start instant (once
    /// per `run()`, once per whole batch).
    ///
    /// Every successful report gets its `compile_time` / `run_time`
    /// provenance stamped here: the compile phase is the
    /// [`sampler`](Session::sampler) artifact acquisition (near-zero on
    /// a warm session; δ-decision queries lower inline and report 0),
    /// the run phase is everything else. The timings are observability
    /// only — [`Report::fingerprint`] ignores them, so determinism
    /// properties are unaffected.
    fn execute(
        &self,
        query: &Query,
        seed: u64,
        budget: &Budget,
        deadline: Option<Instant>,
        parallel: bool,
    ) -> Result<Report, Error> {
        self.check(query)?;
        let _tspan = budget.trace.as_ref().map(|t| t.span("engine.query"));
        let started = Instant::now();
        let mut compile = Duration::ZERO;
        let mut report =
            self.execute_inner(query, seed, budget, deadline, parallel, &mut compile)?;
        let total = started.elapsed();
        report.provenance.compile_time = Some(compile);
        report.provenance.run_time = Some(total.saturating_sub(compile));
        Ok(report)
    }

    fn execute_inner(
        &self,
        query: &Query,
        seed: u64,
        budget: &Budget,
        deadline: Option<Instant>,
        parallel: bool,
        compile: &mut Duration,
    ) -> Result<Report, Error> {
        let _kind_span = budget.trace.as_ref().map(|t| t.span(kind_span_name(query)));
        let sampling = |sampler| Sampling {
            sampler,
            seed,
            budget,
            deadline,
            parallel,
        };
        match query {
            Query::Estimate { smc, method } => {
                let sampler = self.timed_sampler(smc, budget, compile)?;
                let out = sampling(&sampler).estimate(*method);
                Ok(self.smc_report(query.kind(), seed, out))
            }
            Query::Sprt {
                smc,
                theta,
                indiff,
                alpha,
                beta,
                max_samples,
            } => {
                let sampler = self.timed_sampler(smc, budget, compile)?;
                let out = sampling(&sampler).sprt(*theta, *indiff, *alpha, *beta, *max_samples);
                Ok(self.smc_report(query.kind(), seed, out))
            }
            Query::Robustness { smc, samples } => {
                let sampler = self.timed_sampler(smc, budget, compile)?;
                let out = sampling(&sampler).robustness(*samples);
                Ok(self.smc_report(query.kind(), seed, out))
            }
            Query::Falsify { spec, opts } => {
                let ha = self.automaton("Falsify")?;
                let opts = Session::apply_budget(opts, budget, deadline);
                let verdict = falsify::falsify_reachability(ha, spec, &opts);
                let exhausted = matches!(verdict, FalsificationOutcome::Undecided);
                Ok(self.delta_report(query.kind(), seed, exhausted, Value::Falsify(verdict)))
            }
            Query::Therapy { spec, opts } => {
                let ha = self.automaton("Therapy")?;
                let opts = Session::apply_budget(opts, budget, deadline);
                let (plan, exhausted) = therapy::synthesize_therapy_checked(ha, spec, &opts);
                Ok(self.delta_report(query.kind(), seed, exhausted, Value::Therapy(plan)))
            }
            Query::Calibrate {
                data,
                init,
                params,
                state_bounds,
                delta,
                flow_step,
            } => {
                let OdeParts { cx, sys, .. } = self.ode_parts("Calibrate")?;
                let problem = CalibrationProblem {
                    cx: cx.clone(),
                    sys: sys.clone(),
                    init: init.clone(),
                    params: params.clone(),
                    state_bounds: state_bounds.clone(),
                    delta: *delta,
                    flow_step: *flow_step,
                };
                let (fit, exhausted) = calibrate::run_calibrate(&problem, data, budget, deadline);
                Ok(self.delta_report(query.kind(), seed, exhausted, Value::Calibration(fit)))
            }
            Query::Stability {
                region,
                r_min,
                r_max,
            } => {
                let OdeParts { cx, sys, .. } = self.ode_parts("Stability")?;
                let (report, exhausted) =
                    stability::run_stability(cx, sys, region, *r_min, *r_max, budget, deadline);
                Ok(self.delta_report(query.kind(), seed, exhausted, Value::Stability(report)))
            }
            Query::Lint {
                ranges,
                declared,
                property,
            } => {
                // Pure static evaluation over shared references: no
                // artifact is compiled, no expression interned, no
                // sample drawn — linting cannot perturb any other
                // query's fingerprint.
                let diags = match &self.model {
                    Model::Ode(parts) => biocheck_lint::lint_ode(
                        &parts.cx,
                        &parts.sys,
                        ranges,
                        declared,
                        property.as_ref(),
                    ),
                    Model::Hybrid(ha) => {
                        biocheck_lint::lint_automaton(ha, ranges, declared, property.as_ref())
                    }
                };
                Ok(self.delta_report(query.kind(), seed, false, Value::Lint(diags)))
            }
        }
    }
}

/// Name of the kind-level trace span opened under `engine.query`.
fn kind_span_name(query: &Query) -> &'static str {
    match query {
        Query::Estimate { .. } => "engine.smc.estimate",
        Query::Sprt { .. } => "engine.smc.sprt",
        Query::Robustness { .. } => "engine.smc.robustness",
        Query::Falsify { .. } => "engine.falsify",
        Query::Therapy { .. } => "engine.therapy",
        Query::Calibrate { .. } => "engine.calibrate",
        Query::Stability { .. } => "engine.stability",
        Query::Lint { .. } => "engine.lint",
    }
}

/// A refused parameter: its name and what is wrong with it.
type Refusal = (&'static str, String);

/// The parameter rule of each query kind. SMC kinds apply their
/// method's rule ([`check_samples`], [`check_sprt`], [`check_chernoff`],
/// [`check_bayes`]), a finite positive horizon, finite non-negative
/// temporal bounds ([`check_bounds`]) and [`Dist::check`]. δ-decision
/// kinds need a finite positive δ and `flow_step`, and their own ranges.
fn check_params(query: &Query) -> Result<(), Refusal> {
    let smc = match *query {
        Query::Estimate { ref smc, method } => {
            match method {
                EstimateMethod::Fixed { n } => check_samples("n", n),
                EstimateMethod::Chernoff { eps, delta } => check_chernoff(eps, delta),
                EstimateMethod::Bayes {
                    half_width,
                    confidence,
                    max_samples,
                } => check_bayes(half_width, confidence)
                    .and(check_samples("max_samples", max_samples)),
            }?;
            smc
        }
        Query::Sprt {
            ref smc,
            theta,
            indiff,
            alpha,
            beta,
            max_samples,
        } => {
            check_sprt(theta, indiff, alpha, beta)?;
            check_samples("max_samples", max_samples)?;
            smc
        }
        Query::Robustness { ref smc, samples } => {
            check_samples("samples", samples)?;
            smc
        }
        Query::Falsify { ref spec, ref opts } | Query::Therapy { ref spec, ref opts } => {
            finite_positive("delta", opts.delta, false)?;
            finite_positive("flow_step", opts.flow_step, false)?;
            return finite_positive("time_bound", spec.time_bound, true);
        }
        Query::Calibrate {
            ref data,
            delta,
            flow_step,
            ..
        } => {
            finite_positive("delta", delta, false)?;
            finite_positive("flow_step", flow_step, false)?;
            let (times, width) = (&data.times, data.observed.len());
            times
                .iter()
                .try_for_each(|&t| finite_positive("data.times", t, false))?;
            if let Some(w) = times.windows(2).find(|w| w[0] >= w[1]) {
                let detail = format!("must increase strictly, got {} then {}", w[0], w[1]);
                return Err(("data.times", detail));
            }
            let row_ok = |row: &Vec<f64>| row.len() == width && row.iter().all(|v| v.is_finite());
            if data.values.len() != times.len() || !data.values.iter().all(row_ok) {
                let detail = format!("need one row of {width} finite values per time");
                return Err(("data.values", format!("{detail}, got {:?}", data.values)));
            }
            return finite_positive("data.tolerance", data.tolerance, true);
        }
        Query::Stability { r_min, r_max, .. }
            if !(r_min > 0.0 && r_max > r_min && r_max.is_finite()) =>
        {
            let detail = format!("need 0 < r_min < r_max < inf, got {r_min}, {r_max}");
            return Err(("r_min/r_max", detail));
        }
        Query::Stability { .. } | Query::Lint { .. } => return Ok(()),
    };
    finite_positive("t_end", smc.t_end, false)?;
    check_bounds(&smc.property)?;
    let params = smc.params.iter().map(|(_, d)| d);
    smc.init.iter().chain(params).try_for_each(Dist::check)
}

/// Refuses `v` unless it is finite and positive, or zero when
/// `zero_ok`.
fn finite_positive(what: &'static str, v: f64, zero_ok: bool) -> Result<(), Refusal> {
    if v.is_finite() && (v > 0.0 || zero_ok && v == 0.0) {
        return Ok(());
    }
    let need = if zero_ok { "non-negative" } else { "positive" };
    Err((what, format!("must be finite and {need}, got {v}")))
}

/// Every `Until` bound in `f` must be finite and non-negative. No trace
/// satisfies `F≤b φ` for b < 0, so such a property would run and report
/// p̂ = 0 instead of being refused.
fn check_bounds(f: &Bltl) -> Result<(), Refusal> {
    match f {
        Bltl::Prop(_) => Ok(()),
        Bltl::Not(g) => check_bounds(g),
        Bltl::And(gs) | Bltl::Or(gs) => gs.iter().try_for_each(check_bounds),
        Bltl::Until { lhs, rhs, bound } => {
            finite_positive("bound", *bound, true)?;
            check_bounds(lhs)?;
            check_bounds(rhs)
        }
    }
}

/// A per-component argument of `got` entries against the model
/// dimension `expected`.
/// The model-dependent rules of a `Falsify` or `Therapy` query: one
/// state bound per component, and a goal mode the automaton has.
fn check_reach(ha: &HybridAutomaton, spec: &ReachSpec, opts: &ReachOptions) -> Result<(), Error> {
    shape("state bounds", ha.dim(), opts.state_bounds.len())?;
    let modes = ha.modes.len();
    match spec.goal_mode {
        Some(q) if q >= modes => Err(Error::InvalidParameter {
            what: "goal_mode",
            detail: format!("mode {q} out of range for an automaton of {modes} modes"),
        }),
        _ => Ok(()),
    }
}

fn shape(what: &'static str, expected: usize, got: usize) -> Result<(), Error> {
    if got == expected {
        return Ok(());
    }
    Err(Error::Shape {
        what,
        expected,
        got,
    })
}

/// Builder for one query run; construct with [`Session::query`].
#[must_use = "finish the builder with .run()"]
pub struct QueryRun<'a> {
    session: &'a Session,
    query: Query,
    seed: u64,
    budget: Budget,
    parallel: bool,
}

impl QueryRun<'_> {
    /// Sets the master seed for the per-sample RNG streams (default 0).
    /// Reports are a pure function of `(model, query, seed, budget)`.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches a resource budget (default unlimited).
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Forces single-threaded sampling. Results are bit-for-bit
    /// identical to the parallel default; this exists for timing
    /// comparisons and debugging.
    pub fn sequential(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Runs the query.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] on model/query mismatches and invalid
    /// parameters. Budget exhaustion is **not** an error: it yields
    /// `Ok` with [`Outcome::Exhausted`] and a well-formed partial value.
    pub fn run(self) -> Result<Report, Error> {
        let deadline = self.budget.deadline_from(Instant::now());
        self.session.execute(
            &self.query,
            self.seed,
            &self.budget,
            deadline,
            self.parallel,
        )
    }
}
