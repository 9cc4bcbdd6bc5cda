//! The three case-study SMC setups shared by the engine's integration
//! tests: each is a session plus the random instantiation and BLTL
//! property that `Estimate`/`Sprt`/`Robustness` queries sample.

use biocheck_bltl::Bltl;
use biocheck_engine::{Session, SmcSpec};
use biocheck_expr::{Atom, RelOp};
use biocheck_models::{cardiac, prostate, radiation};
use biocheck_ode::OdeSystem;
use biocheck_smc::Dist;

/// Prostate CAS therapy: P(PSA = x + y stays below 18 for 100 days) over
/// noisy initial tumor burden and androgen level. The threshold sits
/// inside the initial-PSA range, so p is strictly between 0 and 1.
pub fn prostate_case() -> (Session, SmcSpec) {
    let mut m = prostate::cas_model(&prostate::PatientParams::default());
    let psa_ok = m.cx.parse("18 - (x + y)").unwrap();
    let spec = SmcSpec {
        init: vec![
            Dist::Uniform(10.0, 20.0),
            Dist::Uniform(0.05, 0.2),
            Dist::Uniform(10.0, 14.0),
        ],
        params: vec![],
        property: Bltl::globally(100.0, Bltl::Prop(Atom::new(psa_ok, RelOp::Ge))),
        t_end: 100.0,
    };
    (Session::new(&m), spec)
}

/// Fenton–Karma cardiac cell: P(an action potential fires within 30 time
/// units) over a random sustained stimulus current.
pub fn cardiac_case() -> (Session, SmcSpec) {
    let mut m = cardiac::fenton_karma();
    let stim = m.cx.var_id("I_stim").unwrap();
    let fires = m.cx.parse("u - 0.8").unwrap();
    let spec = SmcSpec {
        init: vec![
            Dist::Uniform(0.0, 0.05),
            Dist::Uniform(0.9, 1.0),
            Dist::Uniform(0.9, 1.0),
        ],
        params: vec![(stim, Dist::Uniform(0.0, 0.4))],
        property: Bltl::eventually(30.0, Bltl::Prop(Atom::new(fires, RelOp::Ge))),
        t_end: 30.0,
    };
    (Session::new(&m), spec)
}

/// Radiation-damaged cell (untreated live mode): P(RIP3 commitment —
/// rip3 ≥ 1 — within 20 hours) over noisy initial lipid oxidation.
pub fn radiation_case() -> (Session, SmcSpec) {
    let ha = radiation::tbi_automaton();
    let live = ha.mode_by_name("0").unwrap();
    let sys = OdeSystem::new(ha.states.clone(), ha.modes[live].rhs.clone());
    let mut cx = ha.cx.clone();
    let committed = cx.parse("rip3 - 1").unwrap();
    let mut init: Vec<Dist> = radiation::tbi_init().into_iter().map(Dist::Point).collect();
    init[0] = Dist::Uniform(0.1, 0.3); // clox
    let spec = SmcSpec {
        init,
        params: vec![],
        property: Bltl::eventually(20.0, Bltl::Prop(Atom::new(committed, RelOp::Ge))),
        t_end: 20.0,
    };
    (Session::from_parts(cx, sys), spec)
}
