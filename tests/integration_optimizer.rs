//! End-to-end optimizer behaviour on the paper's scenarios (fast configs):
//! the optimum must beat both uniform baselines, respect the pressure
//! budget, and show the Fig. 6 profile shape.

use liquamod::prelude::*;

fn fast_config() -> OptimizationConfig {
    OptimizationConfig {
        segments: 6,
        mesh_intervals: 64,
        ..OptimizationConfig::fast()
    }
}

#[test]
fn test_a_optimum_beats_uniform_and_respects_pressure() {
    let params = ModelParams::date2012();
    let cmp = experiments::test_a(&params, &fast_config()).expect("test A runs");

    // Paper Fig. 5a shape: uniform baselines close, optimal clearly better.
    let uniform_gap =
        (cmp.minimum.gradient_k - cmp.maximum.gradient_k).abs() / cmp.maximum.gradient_k;
    assert!(
        uniform_gap < 0.2,
        "uniform cases should nearly tie: {uniform_gap:.3}"
    );
    assert!(
        cmp.gradient_reduction() > 0.10,
        "optimal should reduce the gradient by >10%: {:.3}",
        cmp.gradient_reduction()
    );

    // Pressure budget (paper Eq. 9).
    assert!(cmp.outcome.feasible, "pressure constraints must be met");
    for dp in &cmp.outcome.pressure_drops {
        assert!(
            dp.as_pascals() <= params.dp_max.as_pascals() * 1.02,
            "dp = {} bar exceeds the budget",
            dp.as_bar()
        );
    }

    // §V-B peak observation.
    assert!(cmp.peak_tracks_minimum_width(1.0));
}

#[test]
fn test_a_profile_tapers_toward_outlet() {
    let params = ModelParams::date2012();
    let cmp = experiments::test_a(&params, &fast_config()).expect("test A runs");
    match &cmp.optimal_widths()[0] {
        WidthProfile::PiecewiseConstant { widths } => {
            assert!(
                widths.last().unwrap().si() < widths.first().unwrap().si(),
                "Fig. 6a: outlet narrower than inlet, got {widths:?}"
            );
            // Mostly monotone narrowing.
            let down = widths
                .windows(2)
                .filter(|w| w[1].si() <= w[0].si() + 1e-9)
                .count();
            assert!(
                down >= widths.len() - 2,
                "mostly monotone taper, got {widths:?}"
            );
        }
        other => panic!("expected piecewise-constant profile, got {other:?}"),
    }
}

#[test]
fn test_b_narrows_over_hotspots() {
    // Fig. 6b: besides the global taper, the width dips where the local
    // flux exceeds its surroundings. Verify via correlation between the
    // combined segment flux and how much the width sits below w_max,
    // correcting for the global trend by comparing neighbours.
    let params = ModelParams::date2012();
    let config = OptimizationConfig {
        segments: liquamod::floorplan::testcase::TEST_B_SEGMENTS,
        mesh_intervals: 64,
        ..OptimizationConfig::fast()
    };
    let load = liquamod::floorplan::testcase::test_b();
    let cmp = experiments::test_b(&params, &config).expect("test B runs");
    let widths = match &cmp.optimal_widths()[0] {
        WidthProfile::PiecewiseConstant { widths } => widths.clone(),
        other => panic!("expected piecewise profile, got {other:?}"),
    };
    // Optimal improves on both baselines.
    assert!(
        cmp.gradient_reduction() > 0.10,
        "reduction {:.3}",
        cmp.gradient_reduction()
    );
    // Hotspot response: for interior segments, when the combined flux jumps
    // up relative to the previous segment, the width should not increase.
    let combined: Vec<f64> = load
        .top_w_cm2
        .iter()
        .zip(&load.bottom_w_cm2)
        .map(|(a, b)| a + b)
        .collect();
    let mut consistent = 0;
    let mut total = 0;
    for k in 1..widths.len() {
        let flux_jump = combined[k] - combined[k - 1];
        let width_step = widths[k].si() - widths[k - 1].si();
        if flux_jump.abs() > 40.0 {
            total += 1;
            if (flux_jump > 0.0 && width_step <= 1e-9) || (flux_jump < 0.0 && width_step >= -1e-9) {
                consistent += 1;
            }
        }
    }
    assert!(total > 0, "test B should contain significant flux jumps");
    assert!(
        consistent * 2 >= total,
        "width response should track flux jumps: {consistent}/{total}"
    );
}

#[test]
fn equal_pressure_coupling_holds_across_groups() {
    // A 2-group MPSoC-style model with unbalanced heat: Eq. (10) forces the
    // optimizer to equalize per-channel pressure drops across groups.
    let params = ModelParams::date2012();
    let config = OptimizationConfig {
        segments: 4,
        mesh_intervals: 48,
        ..OptimizationConfig::fast()
    };
    let (_, cmp) = experiments::mpsoc_small_for_tests(&params, &config).expect("runs");
    let drops: Vec<f64> = cmp
        .outcome
        .pressure_drops
        .iter()
        .map(|p| p.as_pascals())
        .collect();
    let mean = drops.iter().sum::<f64>() / drops.len() as f64;
    for dp in &drops {
        assert!(
            (dp - mean).abs() / params.dp_max.as_pascals() < 0.02,
            "per-group drops should equalize: {drops:?}"
        );
    }
}
