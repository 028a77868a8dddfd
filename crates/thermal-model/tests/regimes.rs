//! Regime tests for the analytical model: the Table-I-verbatim flow regime,
//! extreme loads, and solver robustness.

use liquamod_thermal_model::{
    ChannelColumn, HeatProfile, Model, ModelParams, SolveOptions, WidthProfile,
};
use liquamod_units::{Length, LinearHeatFlux};

fn strip(params: &ModelParams, width_um: f64, q_w_per_m: f64) -> Model {
    let col = ChannelColumn::new(WidthProfile::uniform(Length::from_micrometers(width_um)))
        .with_heat_top(HeatProfile::uniform(LinearHeatFlux::from_w_per_m(
            q_w_per_m,
        )))
        .with_heat_bottom(HeatProfile::uniform(LinearHeatFlux::from_w_per_m(
            q_w_per_m,
        )));
    Model::new(params.clone(), Length::from_centimeters(1.0), vec![col]).expect("model builds")
}

#[test]
fn verbatim_flow_regime_is_convection_dominated() {
    // At Table I's printed 4.8 mL/min/channel the sensible coolant rise is
    // ~1.5 K, so the gradient is set by the convective offsets instead —
    // exactly the inconsistency the `ModelParams` flow-rate calibration
    // docs describe. Verify the physics the calibration argument rests on.
    let params = ModelParams::table1_verbatim();
    let solve = SolveOptions::with_mesh_intervals(256);
    let sol = strip(&params, 50.0, 50.0).solve(&solve).expect("solves");
    let rise = sol.coolant_outlet(0).as_kelvin() - params.inlet_temperature.as_kelvin();
    assert!(
        rise < 3.5,
        "sensible rise should be tiny at 4.8 mL/min: {rise:.2} K"
    );
    // Gradient ≪ the paper's 28 K in this regime.
    assert!(
        sol.thermal_gradient().as_kelvin() < 10.0,
        "gradient {} K",
        sol.thermal_gradient().as_kelvin()
    );
    // In this regime the width sets the (z-constant) convective offset, so
    // under a UNIFORM load neither width produces an appreciable gradient —
    // but the narrow channel runs much closer to the coolant temperature.
    let sol_min = strip(&params, 10.0, 50.0).solve(&solve).expect("solves");
    let sol_max = strip(&params, 50.0, 50.0).solve(&solve).expect("solves");
    assert!(sol_min.thermal_gradient().as_kelvin() < 5.0);
    assert!(sol_max.thermal_gradient().as_kelvin() < 5.0);
    assert!(
        sol_min.peak_temperature().as_kelvin() + 3.0 < sol_max.peak_temperature().as_kelvin(),
        "narrow channel should sit much closer to the coolant: {} vs {}",
        sol_min.peak_temperature().as_kelvin(),
        sol_max.peak_temperature().as_kelvin()
    );
}

#[test]
fn extreme_load_still_solves_cleanly() {
    // 250 W/cm² per layer on the narrowest channel: the stiffest case in
    // the paper's parameter envelope.
    let params = ModelParams::date2012();
    let sol = strip(&params, 10.0, 250.0)
        .solve(&SolveOptions::with_mesh_intervals(512))
        .expect("solves");
    assert!(sol.energy_balance_residual() < 1e-9);
    assert!(
        sol.peak_temperature().as_kelvin() > 400.0,
        "very hot, but finite"
    );
    assert!(sol.peak_temperature().as_kelvin() < 700.0);
}

#[test]
fn asymmetric_layers_break_symmetry_the_right_way() {
    let params = ModelParams::date2012();
    let col = ChannelColumn::new(WidthProfile::uniform(Length::from_micrometers(30.0)))
        .with_heat_top(HeatProfile::uniform(LinearHeatFlux::from_w_per_m(100.0)))
        .with_heat_bottom(HeatProfile::uniform(LinearHeatFlux::from_w_per_m(20.0)));
    let model = Model::new(params, Length::from_centimeters(1.0), vec![col]).expect("model builds");
    let sol = model
        .solve(&SolveOptions::with_mesh_intervals(128))
        .expect("solves");
    for j in 0..sol.n_nodes() {
        assert!(
            sol.column(0).t_top_kelvin()[j] > sol.column(0).t_bottom_kelvin()[j],
            "hotter layer must stay hotter at node {j}"
        );
    }
}

#[test]
fn mesh_breakpoints_handle_many_segments() {
    // 64-segment width profile + 32-segment heat profile: mesh merging must
    // stay consistent and the solve exact on energy.
    let params = ModelParams::date2012();
    let d = Length::from_centimeters(1.0);
    let widths: Vec<Length> = (0..64)
        .map(|k| Length::from_micrometers(10.0 + 40.0 * ((k as f64 * 0.37).sin().abs())))
        .collect();
    let heats: Vec<LinearHeatFlux> = (0..32)
        .map(|k| LinearHeatFlux::from_w_per_m(20.0 + 10.0 * (k % 5) as f64))
        .collect();
    let col = ChannelColumn::new(WidthProfile::piecewise_constant(widths))
        .with_heat_top(HeatProfile::equal_segments(&heats, d))
        .with_heat_bottom(HeatProfile::equal_segments(&heats, d));
    let model = Model::new(params, d, vec![col]).expect("builds");
    let sol = model
        .solve(&SolveOptions::with_mesh_intervals(100))
        .expect("solves");
    assert!(sol.energy_balance_residual() < 1e-9);
    // The mesh grew to include the breakpoints.
    assert!(sol.n_nodes() > 100);
}

#[test]
fn width_profile_kinds_agree_when_equivalent() {
    // A piecewise-linear profile with constant knots equals uniform.
    let params = ModelParams::date2012();
    let solve = SolveOptions::with_mesh_intervals(128);
    let w = Length::from_micrometers(33.0);
    let uniform = strip(&params, 33.0, 50.0).solve(&solve).expect("solves");
    let col = ChannelColumn::new(WidthProfile::piecewise_linear(vec![w, w, w]))
        .with_heat_top(HeatProfile::uniform(LinearHeatFlux::from_w_per_m(50.0)))
        .with_heat_bottom(HeatProfile::uniform(LinearHeatFlux::from_w_per_m(50.0)));
    let linear = Model::new(params, Length::from_centimeters(1.0), vec![col])
        .expect("builds")
        .solve(&solve)
        .expect("solves");
    assert!(
        (uniform.thermal_gradient().as_kelvin() - linear.thermal_gradient().as_kelvin()).abs()
            < 1e-9
    );
}
