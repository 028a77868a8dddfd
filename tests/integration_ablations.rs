//! Ablation assertions: each modeling alternative must shift the results in
//! the physically expected direction.

use liquamod::microfluidics::{friction::FrictionModel, nusselt::NusseltCorrelation};
use liquamod::prelude::*;

fn solve_test_a(params: &ModelParams) -> Solution {
    let model = strip_model(&liquamod::floorplan::testcase::test_a(), params).expect("builds");
    model
        .solve(&SolveOptions::with_mesh_intervals(128))
        .expect("solves")
}

#[test]
fn nusselt_t_condition_runs_hotter_than_h1() {
    // Nu_T < Nu_H1 for every aspect ratio → lower film coefficient →
    // hotter silicon at the same load.
    let mut params = ModelParams::date2012();
    let peak_h1 = solve_test_a(&params).peak_temperature().as_kelvin();
    params.nusselt = NusseltCorrelation::ShahLondonT;
    let peak_t = solve_test_a(&params).peak_temperature().as_kelvin();
    assert!(
        peak_t > peak_h1,
        "T-condition must run hotter: {peak_t:.2} vs {peak_h1:.2}"
    );
}

#[test]
fn developing_flow_runs_cooler_than_fully_developed() {
    let mut params = ModelParams::date2012();
    let base = solve_test_a(&params).peak_temperature().as_kelvin();
    params.developing_flow = true;
    let dev = solve_test_a(&params).peak_temperature().as_kelvin();
    assert!(dev <= base, "entry-length correction only adds conductance");
}

#[test]
fn shah_london_friction_costs_more_pressure() {
    // f·Re(α) ≥ 64 on the paper's width range, with the gap widening for
    // narrow channels — the rectangular model makes narrowing costlier.
    let mut params = ModelParams::date2012();
    let model = strip_model(&liquamod::floorplan::testcase::test_a(), &params).expect("builds");
    let narrow = WidthProfile::uniform(params.w_min);
    let dp_circular = model
        .column_pressure_drop(&narrow)
        .expect("dp")
        .as_pascals();
    params.friction = FrictionModel::ShahLondonRect;
    let model = strip_model(&liquamod::floorplan::testcase::test_a(), &params).expect("builds");
    let dp_rect = model
        .column_pressure_drop(&narrow)
        .expect("dp")
        .as_pascals();
    assert!(
        dp_rect > 1.2 * dp_circular,
        "rectangular friction should cost >20% more at w_min: {dp_rect:.0} vs {dp_circular:.0}"
    );
}

#[test]
fn tighter_pressure_budget_yields_smaller_reduction() {
    // The design-space trade-off behind Fig. 6: less pressure headroom →
    // less narrowing → less gradient reduction.
    let config = OptimizationConfig {
        segments: 6,
        mesh_intervals: 64,
        ..OptimizationConfig::fast()
    };
    let mut tight = ModelParams::date2012();
    tight.dp_max = Pressure::from_bar(2.0);
    let mut loose = ModelParams::date2012();
    loose.dp_max = Pressure::from_bar(40.0);
    let r_tight = experiments::test_a(&tight, &config)
        .expect("runs")
        .gradient_reduction();
    let r_loose = experiments::test_a(&loose, &config)
        .expect("runs")
        .gradient_reduction();
    assert!(
        r_loose > r_tight,
        "loose budget should buy more reduction: {r_loose:.3} vs {r_tight:.3}"
    );
}

#[test]
fn higher_flow_shrinks_gradient_but_costs_pressure() {
    // Run-time flow scaling (the knob of the paper's refs [4, 5]) vs the
    // design-time width modulation studied here: more flow flattens the
    // ramp but pays pressure linearly.
    let solve = |flow_ml_min: f64| -> (f64, f64) {
        let mut params = ModelParams::date2012();
        params.flow_rate_per_channel = VolumetricFlowRate::from_ml_per_min(flow_ml_min);
        let model = strip_model(&liquamod::floorplan::testcase::test_a(), &params).expect("builds");
        let sol = model
            .solve(&SolveOptions::with_mesh_intervals(96))
            .expect("solves");
        let dp = model.pressure_drops().expect("dp")[0].as_pascals();
        (sol.thermal_gradient().as_kelvin(), dp)
    };
    let (g_low, dp_low) = solve(0.25);
    let (g_high, dp_high) = solve(1.0);
    assert!(
        g_high < g_low,
        "more flow, flatter: {g_high:.2} vs {g_low:.2}"
    );
    assert!(
        (dp_high / dp_low - 4.0).abs() < 0.01,
        "laminar dp scales linearly with flow: ratio {}",
        dp_high / dp_low
    );
}

#[test]
fn segment_resolution_improves_or_matches_reduction() {
    // More control segments can only help (nested feasible sets), up to
    // optimizer noise.
    let params = ModelParams::date2012();
    let run = |segments: usize| {
        let config = OptimizationConfig {
            segments,
            mesh_intervals: 64,
            ..OptimizationConfig::fast()
        };
        experiments::test_a(&params, &config)
            .expect("runs")
            .gradient_reduction()
    };
    let r2 = run(2);
    let r8 = run(8);
    assert!(
        r8 > r2 - 0.02,
        "8 segments should not do materially worse than 2: {r8:.3} vs {r2:.3}"
    );
    assert!(r2 > 0.0, "even 2 segments buys something: {r2:.3}");
}
