//! Case-study model library: every biological system the paper's
//! evaluation (Section IV) touches, built as BioCheck ODE systems and
//! hybrid automata.
//!
//! * [`cardiac`] — the Fenton–Karma 3-variable and Bueno–Cherry–Fenton
//!   4-variable minimal ventricular action-potential models (Sec. IV-A,
//!   IV-C; CMSB'14 companion study), with a stimulus-protocol hybrid
//!   wrapper. Heaviside gates are smoothed with steep `tanh` sigmoids so
//!   the dynamics stay inside the differentiable LRF fragment.
//! * [`prostate`] — the Ideta intermittent androgen suppression (IAS)
//!   model of prostate cancer used for personalized-therapy synthesis
//!   (Sec. IV-B; HSCC'15 companion study).
//! * [`radiation`] — a synthetic multi-mode TBI (total-body irradiation)
//!   cell-death network with treatment modes A–E and a death mode,
//!   reproducing the structure of the paper's Fig. 1/Fig. 3 (the wet-lab
//!   kinetics are proprietary; the [`radiation`] module docs give the
//!   substitution note).
//! * [`classics`] — Michaelis–Menten, genetic toggle switch,
//!   repressilator, p53–Mdm2 feedback, a kinetic-proofreading chain and a
//!   Goldbeter–Koshland (ERK-like) switch — workloads for calibration,
//!   SMC, and Lyapunov experiments.

pub mod cardiac;
pub mod classics;
pub mod prostate;
pub mod radiation;

use biocheck_expr::Context;
use biocheck_ode::OdeSystem;

/// A packaged single-mode ODE model: context, system, nominal initial
/// state, and nominal parameter environment.
#[derive(Clone, Debug)]
pub struct OdeModel {
    /// The expression context.
    pub cx: Context,
    /// The ODE system.
    pub sys: OdeSystem,
    /// Nominal initial state (one value per state variable).
    pub init: Vec<f64>,
    /// Nominal environment (parameter values at their variable slots).
    pub env: Vec<f64>,
}

impl OdeModel {
    /// Simulates the model with nominal values.
    ///
    /// # Errors
    ///
    /// Propagates integrator failures.
    pub fn simulate(&self, t_end: f64) -> Result<biocheck_ode::Trace, biocheck_ode::OdeError> {
        let ode = self.sys.compile(&self.cx);
        ode.integrate(&self.env, &self.init, (0.0, t_end))
    }

    /// Index of a state variable by name.
    pub fn state_index(&self, name: &str) -> Option<usize> {
        let v = self.cx.var_id(name)?;
        self.sys.states.iter().position(|&s| s == v)
    }
}
