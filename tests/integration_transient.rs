//! End-to-end tests of the transient workload-driven modulation loop:
//! the paper's acceptance scenario (modulation beats the frozen design over
//! time), bitwise determinism of the parallel transient sweep, and
//! randomized invariants of the controller under proptest.

use liquamod::floorplan::testcase::StripLoad;
use liquamod::floorplan::trace::{self, Phase, PowerTrace};
use liquamod::transient::{
    run_transient_sweep, ModulationController, ModulationPolicy, TraceSpec, TransientConfig,
    TransientGrid, TransientSweepOptions,
};
use liquamod::{ExecutionMode, OptimizationConfig};
use proptest::prelude::*;
use std::num::NonZeroUsize;

/// A small-but-real configuration: 4 control segments, 48-interval BVP
/// mesh, 24 finite-volume cells along the channel.
fn small_config() -> TransientConfig {
    TransientConfig {
        optimizer: OptimizationConfig {
            segments: 4,
            mesh_intervals: 48,
            ..OptimizationConfig::fast()
        },
        nz: 24,
        ..TransientConfig::fast()
    }
}

/// An even smaller configuration for the randomized properties.
fn tiny_config() -> TransientConfig {
    TransientConfig {
        optimizer: OptimizationConfig {
            segments: 2,
            mesh_intervals: 32,
            ..OptimizationConfig::fast()
        },
        nz: 16,
        ..TransientConfig::fast()
    }
}

/// The headline acceptance test: a transient Test-B run with modulation
/// enabled reports a strictly lower time-peak inter-layer gradient than the
/// same run with a frozen uniform-width design.
#[test]
fn modulated_test_b_beats_frozen_uniform_design() {
    let config = small_config();
    let dt = config.dt_seconds;
    // Three migrating Test-B phases of 16 steps each; re-optimize every 8.
    let trace = trace::test_b_phases(
        liquamod::floorplan::testcase::TEST_B_DEFAULT_SEED,
        3,
        16.0 * dt,
    );
    let modulated = ModulationController::new(config.clone(), ModulationPolicy::every(8))
        .unwrap()
        .run(&trace)
        .unwrap();
    let frozen = ModulationController::new(config, ModulationPolicy::FrozenUniform)
        .unwrap()
        .run(&trace)
        .unwrap();
    assert_eq!(modulated.snapshots.len(), frozen.snapshots.len());
    assert!(
        modulated.peak_gradient_k() < frozen.peak_gradient_k(),
        "modulated {} K must undercut frozen {} K",
        modulated.peak_gradient_k(),
        frozen.peak_gradient_k()
    );
    // The win is substantial, not a rounding artifact.
    assert!(
        modulated.peak_gradient_k() < 0.95 * frozen.peak_gradient_k(),
        "reduction too small: {} vs {}",
        modulated.peak_gradient_k(),
        frozen.peak_gradient_k()
    );
    // The modulated run actually modulated: epochs fired and at least one
    // optimized profile was adopted.
    assert!(modulated.epochs.len() >= 3);
    assert!(modulated.epochs_adopted() >= 1);
    assert!(frozen.epochs.is_empty());
    // Peak silicon temperature also improves (the §V-B side observation
    // carries over to the transient loop).
    assert!(modulated.peak_temperature_k() < frozen.peak_temperature_k() + 1e-9);
}

/// Transient sweeps are bitwise deterministic across execution modes and
/// worker counts — the same pattern `core::sweep` guarantees.
#[test]
fn transient_sweep_parallel_matches_serial_bitwise() {
    let grid = TransientGrid {
        traces: vec![
            TraceSpec::TestAStep { high_scale: 1.5 },
            TraceSpec::TestBPhases { seed: 7, phases: 2 },
        ],
        flow_scales: vec![0.75, 1.0],
    };
    let mut options = TransientSweepOptions::fast(ExecutionMode::Serial);
    options.config = tiny_config();
    options.epoch_steps = 6;
    options.phase_seconds = 6.0 * options.config.dt_seconds;
    let serial = run_transient_sweep(&grid, &options).unwrap();
    assert_eq!(serial.rows.len(), grid.len());
    assert_eq!(serial.workers, 1);
    for workers in [2usize, 3] {
        let parallel = run_transient_sweep(
            &grid,
            &TransientSweepOptions {
                mode: ExecutionMode::Parallel {
                    workers: NonZeroUsize::new(workers),
                },
                ..options.clone()
            },
        )
        .unwrap();
        // PartialEq on ModulationRow compares every f64 exactly.
        assert_eq!(serial.rows, parallel.rows, "workers = {workers}");
        assert_eq!(parallel.workers, workers.min(grid.len()));
    }
    // Rows come back in grid order and every variant improved on frozen.
    let labels: Vec<String> = serial.rows.iter().map(|r| r.label.clone()).collect();
    let expected: Vec<String> = grid.variants().iter().map(|v| v.label()).collect();
    assert_eq!(labels, expected);
    for row in &serial.rows {
        // This deliberately coarse configuration (2 control segments, a
        // 12-step run far from steady state) is sized for the determinism
        // check, not for the headline win — mid-transient, a steady-optimal
        // profile can even be temporarily worse than frozen. The win under a
        // real configuration is asserted in
        // `modulated_test_b_beats_frozen_uniform_design`.
        assert!(row.peak_gradient_modulated_k.is_finite());
        assert!(row.peak_gradient_frozen_k > 0.0);
        assert!(row.epochs > 0 && row.evaluations > 0);
    }
}

/// Builds a random two-phase strip trace from drawn segment fluxes.
fn random_trace(fluxes_a: &[f64], fluxes_b: &[f64], phase_seconds: f64) -> PowerTrace<StripLoad> {
    let mk = |name: &str, fluxes: &[f64]| StripLoad {
        name: name.to_string(),
        top_w_cm2: fluxes.to_vec(),
        bottom_w_cm2: fluxes.iter().rev().copied().collect(),
    };
    PowerTrace::new(vec![
        Phase {
            label: "phase-a".into(),
            duration_seconds: phase_seconds,
            load: mk("a", fluxes_a),
        },
        Phase {
            label: "phase-b".into(),
            duration_seconds: phase_seconds,
            load: mk("b", fluxes_b),
        },
    ])
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any non-negative power trace, transient silicon temperatures
    /// never drop below the coolant inlet (no spurious cooling), under
    /// both policies.
    #[test]
    fn transient_temperatures_stay_above_inlet(
        fluxes_a in proptest::collection::vec(0.0f64..250.0, 1..5),
        fluxes_b in proptest::collection::vec(0.0f64..250.0, 1..5),
    ) {
        let config = tiny_config();
        let dt = config.dt_seconds;
        let inlet_k = config.params.inlet_temperature.as_kelvin();
        let trace = random_trace(&fluxes_a, &fluxes_b, 5.0 * dt);
        for policy in [
            ModulationPolicy::FrozenUniform,
            ModulationPolicy::every(5),
        ] {
            let outcome = ModulationController::new(config.clone(), policy)
                .unwrap()
                .run(&trace)
                .unwrap();
            prop_assert_eq!(outcome.snapshots.len(), 10);
            for s in &outcome.snapshots {
                prop_assert!(
                    s.min_k >= inlet_k - 1e-6,
                    "{policy:?}: t = {} s, min {} K below inlet {} K",
                    s.time_seconds, s.min_k, inlet_k
                );
                prop_assert!(s.peak_k >= s.min_k - 1e-12);
                prop_assert!(s.gradient_k >= -1e-12);
            }
        }
    }

    /// A modulation epoch never increases the steady-state peak gradient
    /// versus keeping the previous profile: the controller adopts the
    /// optimizer's candidate only when it is at least as good as the
    /// incumbent on the phase's analytical model.
    #[test]
    fn epochs_never_worsen_the_steady_gradient(
        fluxes_a in proptest::collection::vec(10.0f64..250.0, 1..5),
        fluxes_b in proptest::collection::vec(10.0f64..250.0, 1..5),
    ) {
        let config = tiny_config();
        let dt = config.dt_seconds;
        let trace = random_trace(&fluxes_a, &fluxes_b, 6.0 * dt);
        let outcome = ModulationController::new(
            config,
            ModulationPolicy::every(6),
        )
        .unwrap()
        .run(&trace)
        .unwrap();
        prop_assert_eq!(outcome.epochs.len(), 2);
        for e in &outcome.epochs {
            // The effective post-epoch gradient is min(candidate, incumbent):
            // adopting never trades above the incumbent.
            let effective = if e.adopted {
                e.candidate_gradient_k
            } else {
                e.incumbent_gradient_k
            };
            prop_assert!(
                effective <= e.incumbent_gradient_k + 1e-12,
                "epoch at step {}: effective {} K vs incumbent {} K",
                e.step, effective, e.incumbent_gradient_k
            );
            prop_assert_eq!(
                e.adopted,
                e.candidate_gradient_k <= e.incumbent_gradient_k
            );
            prop_assert!(e.candidate_gradient_k.is_finite());
            prop_assert!(e.incumbent_gradient_k > 0.0);
            // Recorded widths stay inside the manufacturable range.
            for w in e.widths_um.iter().flatten() {
                prop_assert!((10.0 - 1e-9..=50.0 + 1e-9).contains(w), "width {w} µm");
            }
        }
    }
}
