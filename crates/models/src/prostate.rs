//! The Ideta et al. intermittent androgen suppression (IAS) model of
//! prostate cancer — the personalized-therapy case study of Sec. IV-B
//! (HSCC'15 companion paper "Towards personalized prostate cancer therapy
//! using delta-reachability analysis").
//!
//! States: `x` (androgen-dependent tumor cells), `y`
//! (androgen-independent cells), `z` (serum androgen). The serum PSA
//! marker is `x + y`. Two treatment modes: `on` (androgen suppressed,
//! `z → 0`) and `off` (androgen recovers to `z0`). The therapy schedule
//! switches on when PSA exceeds `r1` and off when it falls below `r0` —
//! the thresholds are the synthesis targets.

use crate::OdeModel;
use biocheck_expr::{Atom, Context, RelOp};
use biocheck_hybrid::HybridAutomaton;
use biocheck_interval::Interval;
use biocheck_ode::OdeSystem;

/// Nominal patient parameters (per-day rates; Ideta 2008-style).
#[derive(Clone, Copy, Debug)]
pub struct PatientParams {
    /// AD proliferation rate.
    pub alpha_x: f64,
    /// AD apoptosis rate.
    pub beta_x: f64,
    /// AI proliferation rate.
    pub alpha_y: f64,
    /// AI apoptosis rate.
    pub beta_y: f64,
    /// AD→AI mutation rate scale.
    pub m1: f64,
    /// Normal androgen level.
    pub z0: f64,
    /// Androgen dynamics time constant (days).
    pub tau: f64,
    /// AI growth attenuation by androgen.
    pub d: f64,
    /// Androgen half-saturation of AD proliferation.
    pub k1: f64,
}

impl Default for PatientParams {
    fn default() -> PatientParams {
        PatientParams {
            alpha_x: 0.0204,
            beta_x: 0.0076,
            alpha_y: 0.0242,
            beta_y: 0.0168,
            m1: 0.00005,
            z0: 12.0,
            tau: 12.5,
            d: 0.45,
            k1: 2.0,
        }
    }
}

/// Builds the two-mode IAS automaton with PSA thresholds `r0 < r1` as
/// parameters (ranges given for synthesis). Initial state `(x, y, z)` =
/// `(15, 0.1, 12)`, treatment off.
pub fn ias_automaton(p: &PatientParams) -> HybridAutomaton {
    let mut cx = Context::new();
    let x = cx.intern_var("x");
    let y = cx.intern_var("y");
    let z = cx.intern_var("z");
    let PatientParams {
        alpha_x,
        beta_x,
        alpha_y,
        beta_y,
        m1,
        z0,
        tau,
        d,
        k1,
    } = *p;
    // Growth terms shared by both modes (androgen enters through z).
    let dx =
        format!("({alpha_x}*z/(z + {k1}) - {beta_x}*((1-0.8)*z/{z0} + 0.8) - {m1}*(1 - z/{z0}))*x");
    let dy = format!("{m1}*(1 - z/{z0})*x + ({alpha_y}*(1 - {d}*z/{z0}) - {beta_y})*y");
    let dz_on = format!("-z/{tau}");
    let dz_off = format!("({z0} - z)/{tau}");
    let dx = cx.parse(&dx).unwrap();
    let dy = cx.parse(&dy).unwrap();
    let dz_on = cx.parse(&dz_on).unwrap();
    let dz_off = cx.parse(&dz_off).unwrap();
    // PSA thresholds as parameters.
    let psa_hi = cx.parse("x + y - r1").unwrap(); // fire on-treatment
    let psa_lo = cx.parse("r0 - (x + y)").unwrap(); // fire off-treatment
    let mut ha = HybridAutomaton::new(cx, vec![x, y, z]);
    ha.add_param("r0", Interval::new(2.0, 10.0));
    ha.add_param("r1", Interval::new(10.0, 20.0));
    let off = ha.add_mode("off", vec![dx, dy, dz_off], vec![]);
    let on = ha.add_mode("on", vec![dx, dy, dz_on], vec![]);
    ha.add_jump(off, on, vec![Atom::new(psa_hi, RelOp::Ge)], vec![]);
    ha.add_jump(on, off, vec![Atom::new(psa_lo, RelOp::Ge)], vec![]);
    // init: x = 15, y = 0.1, z = z0, off treatment.
    let init = {
        let cx = &mut ha.cx;
        let xi = cx.parse("x - 15").unwrap();
        let yi = cx.parse("y - 0.1").unwrap();
        let zi = cx.parse(&format!("z - {z0}")).unwrap();
        vec![
            Atom::new(xi, RelOp::Eq),
            Atom::new(yi, RelOp::Eq),
            Atom::new(zi, RelOp::Eq),
        ]
    };
    ha.set_init(off, init);
    ha
}

/// The continuous androgen suppression (CAS) variant: a single `on` mode
/// with no switching — the baseline the paper's IAS therapy improves on
/// (AI cells escape under permanent suppression).
pub fn cas_model(p: &PatientParams) -> OdeModel {
    let ha = ias_automaton(p);
    let cx = ha.cx.clone();
    let on = ha.mode_by_name("on").unwrap();
    let sys = OdeSystem::new(ha.states.clone(), ha.modes[on].rhs.clone());
    let env = vec![0.0; cx.num_vars()];
    OdeModel {
        cx,
        sys,
        init: vec![15.0, 0.1, 12.0],
        env,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ias_cycles_between_modes() {
        let ha = ias_automaton(&PatientParams::default());
        // PSA starts at 15.1 and grows off-treatment; r1 = 20 is crossed
        // from below (event detection needs the crossing), r0 = 6 below.
        let mut env = ha.default_env();
        let r0 = ha.cx.var_id("r0").unwrap().index();
        let r1 = ha.cx.var_id("r1").unwrap().index();
        env[r0] = 6.0;
        env[r1] = 20.0;
        // Two full cycles: on ≈ day 29, off ≈ day 392, on ≈ day 567
        // (the long-run relapse of AI cells is tested separately).
        let traj = ha.simulate(&env, &[15.0, 0.1, 12.0], 700.0).unwrap();
        assert!(
            traj.mode_path().len() >= 3,
            "IAS should cycle: {:?}",
            traj.mode_path()
        );
        // PSA stays bounded over the first cycles.
        for (_, s) in traj.iter() {
            assert!(s[0] + s[1] < 40.0, "PSA runaway");
        }
    }

    #[test]
    fn androgen_tracks_mode() {
        let ha = ias_automaton(&PatientParams::default());
        let mut env = ha.default_env();
        env[ha.cx.var_id("r0").unwrap().index()] = 6.0;
        env[ha.cx.var_id("r1").unwrap().index()] = 20.0;
        let traj = ha.simulate(&env, &[15.0, 0.1, 12.0], 700.0).unwrap();
        // In 'on' segments androgen decays, in 'off' it recovers.
        for seg in &traj.segments {
            let z_first = seg.trace.state(0)[2];
            let z_last = seg.trace.last_state()[2];
            if seg.trace.t_end() - seg.trace.t_start() < 1.0 {
                continue;
            }
            match ha.modes[seg.mode].name.as_str() {
                "on" => assert!(z_last < z_first + 1e-6, "androgen must fall on-treatment"),
                "off" => assert!(z_last > z_first - 1e-6, "androgen must rise off-treatment"),
                other => panic!("unexpected mode {other}"),
            }
        }
    }

    #[test]
    fn cas_lets_ai_cells_escape() {
        // Permanent suppression: AD cells collapse but AI cells grow
        // (relapse) — the motivation for IAS.
        let m = cas_model(&PatientParams::default());
        let tr = m.simulate(1500.0).unwrap();
        let x_end = tr.last_state()[0];
        let y_end = tr.last_state()[1];
        assert!(x_end < 1.0, "AD cells should regress, x = {x_end}");
        assert!(y_end > 0.1, "AI cells should expand under CAS, y = {y_end}");
    }

    #[test]
    fn dot_export_shows_structure() {
        let ha = ias_automaton(&PatientParams::default());
        let dot = ha.to_dot();
        assert!(dot.contains("off") && dot.contains("on"));
    }
}
