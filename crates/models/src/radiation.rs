//! A synthetic multi-mode cell-death network for radiation injury — the
//! structure of the paper's Fig. 1 (pathway crosstalk) and Fig. 3
//! (treatment automaton), built as a hybrid automaton whose treatment
//! modes correspond to drug deliveries:
//!
//! * Mode `0` — live cell, no treatment.
//! * Mode `A` — apoptosis inhibition (JP4-039).
//! * Mode `B` — necroptosis inhibition (necrostatin-1).
//! * Mode `C` — ferroptosis inhibition (baicalein).
//! * Mode `D` — pyroptosis inhibition (MCC950).
//! * Mode `E` — parthanatos inhibition (XJB-veliparib).
//! * Mode `1` — death (absorbing), entered when accumulated damage
//!   crosses `theta_death`.
//!
//! States: `clox` (oxidized cardiolipin), `rip3` (phospho-RIP3), `c3`
//! (executioner caspase-3 activity), `mlkl` (phospho-MLKL), `gpx4`
//! (glutathione peroxidase 4 reserve), `dmg` (integrated lethal damage).
//! The wet-lab kinetics behind Fig. 1 are not public; rates here are
//! synthetic but preserve the decision structure: untreated cells die,
//! a correctly-ordered two-drug sequence (A then B) rescues them — so the
//! therapy-synthesis question of Sec. IV-B is non-trivial. The E4 row of
//! the experiment harness (`crates/bench`, run as in the README's
//! *Benchmarks* section) checks both outcomes.

use biocheck_expr::{Atom, Context, RelOp};
use biocheck_hybrid::HybridAutomaton;
use biocheck_interval::Interval;

/// Damage level at which the cell irreversibly dies.
pub const THETA_DEATH: f64 = 10.0;

/// Builds the TBI cell-death automaton. The jump thresholds `theta1`
/// (CLox level that triggers delivering drug A) and `theta2` (RIP3 level
/// that triggers drug B) are parameters with synthesis ranges — exactly
/// the "which drug at what time" question of the paper.
pub fn tbi_automaton() -> HybridAutomaton {
    let mut cx = Context::new();
    let clox = cx.intern_var("clox");
    let rip3 = cx.intern_var("rip3");
    let c3 = cx.intern_var("c3");
    let mlkl = cx.intern_var("mlkl");
    let gpx4 = cx.intern_var("gpx4");
    let dmg = cx.intern_var("dmg");
    let states = vec![clox, rip3, c3, mlkl, gpx4, dmg];

    // Base kinetics (per-hour synthetic rates).
    //   clox' = k_rad − d_cl·clox − k_gpx·gpx4·clox   (bounded oxidized-lipid load)
    //   rip3' = k_r·clox − d_r·rip3
    //   c3'   = k_c·clox − d_c·c3            (suppressed in mode A)
    //   mlkl' = k_m·rip3 − d_m·mlkl          (suppressed in mode B)
    //   gpx4' = −k_dep·clox·gpx4             (protected in mode C)
    //   dmg'  = w_a·c3 + w_n·mlkl + w_f·clox·(1 − gpx4)
    let rhs = |cx: &mut Context, kc: f64, km: f64, kdep: f64, krad: f64| {
        let dclox = cx
            .parse(&format!("{krad} - 0.5*clox - 0.4*gpx4*clox"))
            .unwrap();
        let drip3 = cx.parse("0.5*clox - 0.1*rip3").unwrap();
        let dc3 = cx.parse(&format!("{kc}*clox - 0.3*c3")).unwrap();
        let dmlkl = cx.parse(&format!("{km}*rip3 - 0.3*mlkl")).unwrap();
        let dgpx4 = cx.parse(&format!("-{kdep}*clox*gpx4")).unwrap();
        let ddmg = cx
            .parse("0.2*c3 + 0.2*mlkl + 0.02*clox*(1 - gpx4)")
            .unwrap();
        vec![dclox, drip3, dc3, dmlkl, dgpx4, ddmg]
    };

    let rhs0 = rhs(&mut cx, 0.6, 0.6, 0.05, 0.8);
    let rhs_a = rhs(&mut cx, 0.03, 0.6, 0.05, 0.8); // caspase-3 blocked
    let rhs_b = rhs(&mut cx, 0.03, 0.03, 0.05, 0.8); // + MLKL blocked (A given earlier)
    let rhs_c = rhs(&mut cx, 0.6, 0.6, 0.005, 0.3); // GPX4 spared, lipid repair
    let rhs_d = rhs(&mut cx, 0.45, 0.6, 0.05, 0.8); // partial (pyroptosis arm)
    let rhs_e = rhs(&mut cx, 0.6, 0.45, 0.05, 0.8); // partial (parthanatos arm)
    let zero = cx.constant(0.0);
    let rhs_dead = vec![zero; 6];

    let live_inv = {
        let e = cx.parse(&format!("{THETA_DEATH} - dmg")).unwrap();
        vec![Atom::new(e, RelOp::Ge)]
    };
    let mut ha = HybridAutomaton::new(cx, states);
    let th1 = ha.add_param("theta1", Interval::new(0.5, 3.0));
    let th2 = ha.add_param("theta2", Interval::new(0.5, 6.0));
    let _ = (th1, th2);
    let m0 = ha.add_mode("0", rhs0, live_inv.clone());
    let m1 = ha.add_mode("1", rhs_dead, vec![]);
    let ma = ha.add_mode("A", rhs_a, live_inv.clone());
    let mb = ha.add_mode("B", rhs_b, live_inv.clone());
    let mc = ha.add_mode("C", rhs_c, live_inv.clone());
    let md = ha.add_mode("D", rhs_d, live_inv.clone());
    let me = ha.add_mode("E", rhs_e, live_inv);

    // Signature-triggered drug deliveries (Fig. 3's labeled jumps).
    let g_clox = ha.cx.parse("clox - theta1").unwrap();
    ha.add_jump(m0, ma, vec![Atom::new(g_clox, RelOp::Ge)], vec![]);
    let g_rip3 = ha.cx.parse("rip3 - theta2").unwrap();
    ha.add_jump(ma, mb, vec![Atom::new(g_rip3, RelOp::Ge)], vec![]);
    // Alternative single-drug branches from mode 0 (C/D/E).
    let g_gpx = ha.cx.parse("0.5 - gpx4").unwrap();
    ha.add_jump(m0, mc, vec![Atom::new(g_gpx, RelOp::Ge)], vec![]);
    let g_c3 = ha.cx.parse("c3 - 4").unwrap();
    ha.add_jump(m0, md, vec![Atom::new(g_c3, RelOp::Ge)], vec![]);
    let g_mlkl = ha.cx.parse("mlkl - 4").unwrap();
    ha.add_jump(m0, me, vec![Atom::new(g_mlkl, RelOp::Ge)], vec![]);
    // Death from any live mode once damage crosses the threshold.
    let g_death = ha.cx.parse(&format!("dmg - {THETA_DEATH}")).unwrap();
    for m in [m0, ma, mb, mc, md, me] {
        ha.add_jump(m, m1, vec![Atom::new(g_death, RelOp::Ge)], vec![]);
    }
    // Init: irradiated live cell, all signals low, full GPX4 reserve.
    let init = {
        let cx = &mut ha.cx;
        let mut atoms = Vec::new();
        for (name, v) in [
            ("clox", 0.2),
            ("rip3", 0.0),
            ("c3", 0.0),
            ("mlkl", 0.0),
            ("gpx4", 1.0),
            ("dmg", 0.0),
        ] {
            let e = cx.parse(&format!("{name} - {v}")).unwrap();
            atoms.push(Atom::new(e, RelOp::Eq));
        }
        atoms
    };
    ha.set_init(m0, init);
    ha
}

/// Nominal initial state in the automaton's state order.
pub fn tbi_init() -> Vec<f64> {
    vec![0.2, 0.0, 0.0, 0.0, 1.0, 0.0]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_with(ha: &HybridAutomaton, th1: f64, th2: f64) -> Vec<f64> {
        let mut env = ha.default_env();
        env[ha.cx.var_id("theta1").unwrap().index()] = th1;
        env[ha.cx.var_id("theta2").unwrap().index()] = th2;
        env
    }

    #[test]
    fn untreated_cell_dies() {
        let ha = tbi_automaton();
        // Thresholds too high to ever trigger treatment.
        let env = env_with(&ha, 1e6, 1e6);
        let traj = ha.simulate(&env, &tbi_init(), 40.0).unwrap();
        let dmg_end = traj.final_state()[5];
        let died = traj.mode_path().contains(&ha.mode_by_name("1").unwrap());
        assert!(
            died || dmg_end >= THETA_DEATH,
            "untreated damage must cross θ_death, got {dmg_end}"
        );
    }

    #[test]
    fn timely_two_drug_sequence_rescues() {
        let ha = tbi_automaton();
        // Early triggers: drug A at low CLox, drug B at low RIP3.
        let env = env_with(&ha, 0.8, 1.0);
        let traj = ha.simulate(&env, &tbi_init(), 40.0).unwrap();
        let path: Vec<String> = traj
            .mode_path()
            .iter()
            .map(|&m| ha.modes[m].name.clone())
            .collect();
        assert!(path.contains(&"A".to_string()), "path {path:?}");
        assert!(path.contains(&"B".to_string()), "path {path:?}");
        let dmg_end = traj.final_state()[5];
        assert!(
            dmg_end < THETA_DEATH,
            "treated cell should survive 40 h, dmg = {dmg_end}"
        );
        assert!(!path.contains(&"1".to_string()), "no death state");
    }

    #[test]
    fn late_second_drug_fails() {
        let ha = tbi_automaton();
        // Drug A on time, drug B far too late: necroptosis kills the cell.
        let env = env_with(&ha, 0.8, 1e6);
        let traj = ha.simulate(&env, &tbi_init(), 40.0).unwrap();
        let died = traj.mode_path().contains(&ha.mode_by_name("1").unwrap())
            || traj.final_state()[5] >= THETA_DEATH;
        assert!(died, "single drug is not enough in this regime");
    }

    #[test]
    fn automaton_structure_matches_fig3() {
        let ha = tbi_automaton();
        assert_eq!(ha.modes.len(), 7); // 0, 1, A..E
        for name in ["0", "1", "A", "B", "C", "D", "E"] {
            assert!(ha.mode_by_name(name).is_some(), "mode {name}");
        }
        // 0 has branches to A, C, D, E and death.
        let m0 = ha.mode_by_name("0").unwrap();
        assert!(ha.jumps_from(m0).count() >= 4);
        let dot = ha.to_dot();
        assert!(dot.contains("theta1"));
    }

    #[test]
    fn gpx4_depletes_without_ferroptosis_protection() {
        let ha = tbi_automaton();
        let env = env_with(&ha, 1e6, 1e6);
        let traj = ha.simulate(&env, &tbi_init(), 20.0).unwrap();
        // GPX4 reserve decays under oxidized-lipid load.
        assert!(traj.final_state()[4] < 1.0);
    }
}
