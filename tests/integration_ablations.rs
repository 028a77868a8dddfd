//! Ablation assertions along the three design axes the model leaves open —
//! the pressure budget, the coolant flow and the control resolution: each
//! must shift the results in the physically expected direction.

use liquamod::prelude::*;

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
