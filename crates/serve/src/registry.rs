//! The multi-model session registry: model name → fingerprint + shared
//! [`Session`].
//!
//! A model registers under a name with a textual [`ModelSource`]; its
//! **fingerprint** is a hash of the canonical source, so re-registering
//! the same definition keeps the fingerprint (and every memoized
//! result), while re-registering a *changed* definition rotates it —
//! result-cache keys embed the fingerprint, so stale reports become
//! unreachable by construction (and the server additionally purges
//! them).
//!
//! Queries arrive with expressions in text form. Each registered model
//! keeps one immutable [`Session`] for the life of its registration;
//! [`ModelEntry::prepare`] parses a query into a private copy of that
//! session's context ([`Session::view`]) and hands back a view that
//! shares the compiled right-hand side and the artifact store. A new
//! literal therefore costs one context clone, never a session rebuild,
//! and the model's arena never grows. Artifacts are keyed by canonical
//! text, so a sampler compiled for one query's private arena serves
//! every later query with the same setup, up to the engine's
//! [`Session::MAX_ARTIFACTS`] LRU bound.

pub mod persist;

use crate::wire::ModelSource;
use biocheck_engine::{Query, Session};
use biocheck_expr::Context;
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

/// FNV-1a, 64-bit: tiny, dependency-free, stable across runs — exactly
/// what a cache-key fingerprint needs (it is not a defense against
/// adversarial collisions).
pub fn fingerprint64(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Snapshot of the registry's artifact gauges, surfaced through
/// `{"op":"stats"}` and `{"op":"metrics"}`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Cached compiled artifacts across registered models, now.
    pub artifact_count: usize,
    /// Artifacts evicted by the LRU bound across registered models.
    pub artifact_evictions: usize,
}

/// One registered model.
pub struct ModelEntry {
    name: String,
    fingerprint: String,
    /// The canonical source the model registered with — the payload
    /// the registry persistence log records.
    source: ModelSource,
    /// Parameters pinned as constants at registration. They were
    /// substituted out of the right-hand sides, so randomizing one in
    /// a query would silently have no effect (the server rejects
    /// that); referencing one in a *property* expression substitutes
    /// its pinned value, so `"x - k"` means what the model says it
    /// means rather than silently evaluating `k` as 0.
    consts: Vec<(String, f64)>,
    /// The model's frozen session: built once at registration, never
    /// rebuilt; every query runs on a view of it.
    session: Session,
}

impl ModelEntry {
    /// The model's fingerprint (hash of its canonical source).
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// The registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Was `name` pinned as a constant at registration?
    pub fn is_const(&self, name: &str) -> bool {
        self.consts.iter().any(|(n, _)| n == name)
    }

    /// The canonical source the model registered with.
    pub fn source(&self) -> &ModelSource {
        &self.source
    }

    /// The model's frozen session (its arena stays at registration
    /// size; its artifact store is the one every view shares).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Sessions built for this registration: always 1, since queries
    /// run on views of the frozen session instead of rebuilding it.
    pub fn session_builds(&self) -> usize {
        1
    }

    /// Lowers a wire payload into an engine query and returns it with
    /// the session view to run it on and its canonical memoization key
    /// (fingerprint-prefixed).
    ///
    /// `build` parses text into a private copy of the model's context
    /// ([`Session::view`]); pinned constants are substituted and the
    /// key rendered in that same copy. No lock is taken and the model
    /// session is never modified, so concurrent prepares on one model
    /// proceed in parallel.
    pub fn prepare<E>(
        &self,
        build: impl FnOnce(&mut Context) -> Result<Query, E>,
    ) -> Result<(Arc<Session>, Query, String), E> {
        let (view, (query, key)) = self.session.view(|cx| {
            let mut query = build(cx)?;
            self.substitute_consts(cx, &mut query);
            let key = format!("{}|{}", self.fingerprint, query.canonical(cx));
            Ok((query, key))
        })?;
        Ok((Arc::new(view), query, key))
    }

    /// Replaces registration-time constants inside the query's property
    /// expressions with their pinned values — the right-hand sides had
    /// the same substitution applied at registration, so a property
    /// mentioning `k` evaluates it at the registered value instead of
    /// the sampler's zero-filled environment. Runs before
    /// canonicalization (so `"x - k"` and the literal it means
    /// share one memoization key).
    fn substitute_consts(&self, cx: &mut Context, query: &mut Query) {
        if self.consts.is_empty() {
            return;
        }
        let smc = match query {
            Query::Estimate { smc, .. }
            | Query::Sprt { smc, .. }
            | Query::Robustness { smc, .. } => smc,
            _ => return,
        };
        let map: HashMap<biocheck_expr::VarId, biocheck_expr::NodeId> = self
            .consts
            .iter()
            .filter_map(|(name, v)| {
                let vid = cx.var_id(name)?;
                let c = cx.constant(*v);
                Some((vid, c))
            })
            .collect();
        smc.property = subst_bltl(cx, &smc.property, &map);
    }
}

fn subst_bltl(
    cx: &mut Context,
    f: &biocheck_bltl::Bltl,
    map: &HashMap<biocheck_expr::VarId, biocheck_expr::NodeId>,
) -> biocheck_bltl::Bltl {
    use biocheck_bltl::Bltl;
    match f {
        Bltl::Prop(a) => Bltl::Prop(biocheck_expr::Atom::new(cx.subst(a.expr, map), a.op)),
        Bltl::Not(inner) => Bltl::Not(Box::new(subst_bltl(cx, inner, map))),
        Bltl::And(fs) => Bltl::And(fs.iter().map(|g| subst_bltl(cx, g, map)).collect()),
        Bltl::Or(fs) => Bltl::Or(fs.iter().map(|g| subst_bltl(cx, g, map)).collect()),
        Bltl::Until { lhs, rhs, bound } => Bltl::Until {
            lhs: Box::new(subst_bltl(cx, lhs, map)),
            rhs: Box::new(subst_bltl(cx, rhs, map)),
            bound: *bound,
        },
    }
}

/// The name → model map. All methods take `&self`.
#[derive(Default)]
pub struct Registry {
    models: RwLock<HashMap<String, Arc<ModelEntry>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers (or replaces) a model. Returns the new entry and, when
    /// a previous registration was replaced, the old fingerprint (the
    /// server purges its memoized results).
    pub fn register(
        &self,
        name: &str,
        source: &ModelSource,
    ) -> Result<(Arc<ModelEntry>, Option<String>), String> {
        let (cx, sys) = source.build()?;
        let entry = Arc::new(ModelEntry {
            name: name.to_string(),
            fingerprint: fingerprint64(&source.canonical()),
            source: source.clone(),
            consts: source.consts.clone(),
            session: Session::from_parts(cx, sys),
        });
        let old = self
            .models
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.to_string(), Arc::clone(&entry));
        let replaced = old
            .filter(|o| o.fingerprint != entry.fingerprint)
            .map(|o| o.fingerprint.clone());
        Ok((entry, replaced))
    }

    /// Artifact gauges summed over the registered models. The snapshot
    /// is not atomic across models (it is an observability surface,
    /// not a synchronization point).
    pub fn memory_stats(&self) -> MemoryStats {
        let mut m = MemoryStats::default();
        for entry in self
            .models
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
        {
            let s = entry.session.stats();
            m.artifact_count += s.artifact_count;
            m.artifact_evictions += s.artifact_evictions;
        }
        m
    }

    /// Looks up a model by name.
    pub fn get(&self, name: &str) -> Option<Arc<ModelEntry>> {
        self.models
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
    }

    /// Registered model count.
    pub fn len(&self) -> usize {
        self.models
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registered `(name, fingerprint)` pairs, sorted by name.
    pub fn list(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = self
            .models
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .map(|e| (e.name.clone(), e.fingerprint.clone()))
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{DistSpec, MethodSpec, PropSpec, QuerySpec, SmcSpecWire};
    use biocheck_expr::RelOp;

    fn decay_source() -> ModelSource {
        ModelSource {
            states: vec![("x".into(), "-k*x".into())],
            consts: vec![("k".into(), 1.0)],
        }
    }

    fn estimate_spec(expr: &str) -> QuerySpec {
        QuerySpec::Estimate {
            smc: SmcSpecWire {
                init: vec![DistSpec::Uniform(0.5, 1.5)],
                params: vec![],
                property: PropSpec::Eventually {
                    bound: 0.01,
                    inner: Box::new(PropSpec::Prop {
                        expr: expr.into(),
                        rel: RelOp::Ge,
                    }),
                },
                t_end: 0.01,
            },
            method: MethodSpec::Fixed { n: 20 },
        }
    }

    #[test]
    fn fingerprint_is_stable_and_source_sensitive() {
        let a = fingerprint64(&decay_source().canonical());
        let b = fingerprint64(&decay_source().canonical());
        assert_eq!(a, b);
        let other = ModelSource {
            states: vec![("x".into(), "-2*k*x".into())],
            consts: vec![("k".into(), 1.0)],
        };
        assert_ne!(a, fingerprint64(&other.canonical()));
    }

    #[test]
    fn canonical_source_cannot_collide_on_smuggled_delimiters() {
        // Two different models whose naive joined rendering would be
        // identical: consts [p=1, q=2] vs one const literally named
        // "p=1,q". JSON-quoted canonicalization keeps them distinct.
        let honest = ModelSource {
            states: vec![("x".into(), "-x".into())],
            consts: vec![("p".into(), 1.0), ("q".into(), 2.0)],
        };
        let smuggler = ModelSource {
            states: vec![("x".into(), "-x".into())],
            consts: vec![("p=1,q".into(), 2.0)],
        };
        assert_ne!(honest.canonical(), smuggler.canonical());
        assert_ne!(
            fingerprint64(&honest.canonical()),
            fingerprint64(&smuggler.canonical())
        );
    }

    /// The fingerprint a fresh, unshared session gives the spec.
    fn fresh_fingerprint(spec: &QuerySpec, seed: u64) -> String {
        let (mut cx, sys) = decay_source().build().unwrap();
        let query = spec.build(&mut cx).unwrap();
        Session::from_parts(cx, sys)
            .query(query)
            .seed(seed)
            .run()
            .unwrap()
            .fingerprint()
    }

    #[test]
    fn fresh_literals_share_node_ids_but_never_artifacts() {
        let reg = Registry::new();
        let (entry, _) = reg.register("decay", &decay_source()).unwrap();
        let model_nodes = entry.session().arena_nodes();
        let (lo, hi) = (estimate_spec("x - 0.8"), estimate_spec("x - 0.9"));
        let (s_lo, q_lo, k_lo) = entry.prepare(|cx| lo.build(cx)).unwrap();
        let (s_hi, q_hi, k_hi) = entry.prepare(|cx| hi.build(cx)).unwrap();
        // Each literal parsed into its own copy of the same frozen arena,
        // so both properties got the same node ids: a key built from
        // `{:?}` of the query could not tell them apart.
        assert_eq!(format!("{q_lo:?}"), format!("{q_hi:?}"), "hazard is real");
        assert_ne!(k_lo, k_hi, "canonical keys tell the literals apart");
        let run = |s: &Session, q: Query| s.query(q).seed(7).run().unwrap().fingerprint();
        assert_eq!(run(&s_lo, q_lo), fresh_fingerprint(&lo, 7));
        assert_eq!(run(&s_hi, q_hi), fresh_fingerprint(&hi, 7));
        assert_eq!(entry.session().arena_nodes(), model_nodes, "model frozen");
        assert_eq!(entry.session_builds(), 1);

        // Known vocabulary, new seed, after a literal miss: every
        // artifact is still warm, so nothing compiles.
        let before = entry.session().stats();
        let (s, q, _) = entry.prepare(|cx| lo.build(cx)).unwrap();
        assert_eq!(run(&s, q), fresh_fingerprint(&lo, 7));
        let (s, q, _) = entry.prepare(|cx| lo.build(cx)).unwrap();
        let fp = s.query(q).seed(8).run().unwrap().fingerprint();
        assert_eq!(fp, fresh_fingerprint(&lo, 8));
        let after = entry.session().stats();
        assert_eq!(
            (after.plan_compiles, after.sampler_builds),
            (before.plan_compiles, before.sampler_builds),
            "a known-vocabulary miss must reuse the warm artifacts"
        );
    }

    #[test]
    fn reregistration_rotates_fingerprint_only_on_change() {
        let reg = Registry::new();
        let (e1, _) = reg.register("m", &decay_source()).unwrap();
        // Same source: same fingerprint, nothing to purge.
        let (e2, replaced) = reg.register("m", &decay_source()).unwrap();
        assert_eq!(e1.fingerprint(), e2.fingerprint());
        assert!(replaced.is_none());
        // Changed source: new fingerprint, old one reported for purging.
        let changed = ModelSource {
            states: vec![("x".into(), "-3*x".into())],
            consts: vec![],
        };
        let (e3, replaced) = reg.register("m", &changed).unwrap();
        assert_ne!(e1.fingerprint(), e3.fingerprint());
        assert_eq!(replaced.as_deref(), Some(e1.fingerprint()));
        assert_eq!(reg.len(), 1);
    }
}
