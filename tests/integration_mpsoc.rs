//! End-to-end tests of the full-chip MPSoC modulation subsystem: the
//! two-die Fig. 7 stacks driven through the transient channel-modulation
//! loop, the headline modulated-beats-frozen acceptance, and bitwise
//! determinism of the parallel MPSoC sweep.

use liquamod::floorplan::{arch, trace::Phase, trace::PowerTrace, FluxGrid, PowerLevel};
use liquamod::grid_sim::solver::SolverOptions;
use liquamod::grid_sim::{ExponentialOptions, StepperKind};
use liquamod::mpsoc::{
    arch_trace, run_mpsoc_sweep, ArchSpec, MpsocConfig, MpsocGrid, MpsocLoad, MpsocModulated,
    MpsocSweepOptions, MpsocTraceSpec,
};
use liquamod::serve::{ServeOptions, ServePool};
use liquamod::thermal_model::ModelParams;
use liquamod::transient::{EpochPolicy, ModulationController, ModulationPolicy, TransientConfig};
use liquamod::units::{Length, Pressure, ThermalConductivity, VolumetricFlowRate};
use liquamod::{CoreError, ExecutionMode, OptimizationConfig};
use std::num::NonZeroUsize;

/// A small-but-real configuration: 20 channel columns in 2 groups, 11 cells
/// along the flow, 2-segment control profiles.
fn small_config() -> MpsocConfig {
    MpsocConfig {
        optimizer: OptimizationConfig {
            segments: 2,
            mesh_intervals: 32,
            ..OptimizationConfig::fast()
        },
        nx: 20,
        nz: 11,
        n_groups: 2,
        ..MpsocConfig::fast()
    }
}

/// The headline acceptance test scaled to the full-chip stacks: an Arch. 1
/// average→peak Niagara burst with modulation enabled reports a strictly
/// lower time-peak inter-layer gradient than the frozen uniform-width
/// design.
#[test]
fn modulated_arch1_beats_frozen_uniform_design() {
    let config = small_config();
    let dt = config.dt_seconds;
    let a1 = arch::arch1();
    let trace = arch_trace(
        &a1,
        &[PowerLevel::Average, PowerLevel::Peak],
        16.0 * dt,
        config.nx,
        config.nz,
    );
    let modulated = MpsocModulated::for_arch(&a1, config.clone())
        .unwrap()
        .controller(ModulationPolicy::every(8))
        .unwrap()
        .run(&trace)
        .unwrap();
    let frozen = MpsocModulated::for_arch(&a1, config)
        .unwrap()
        .controller(ModulationPolicy::FrozenUniform)
        .unwrap()
        .run(&trace)
        .unwrap();
    assert_eq!(modulated.snapshots.len(), 32);
    assert_eq!(frozen.snapshots.len(), 32);
    assert!(
        modulated.peak_gradient_k() < frozen.peak_gradient_k(),
        "modulated {} K must undercut frozen {} K",
        modulated.peak_gradient_k(),
        frozen.peak_gradient_k()
    );
    // The modulated run actually modulated: epochs fired and at least one
    // jointly optimized two-cavity profile was adopted.
    assert!(modulated.epochs.len() >= 3);
    assert!(modulated.epochs_adopted() >= 1);
    assert!(frozen.epochs.is_empty());
    // Epoch records carry both cavities' group profiles (2 cavities × 2
    // groups of 2-segment samples).
    for e in &modulated.epochs {
        assert_eq!(e.widths_um.len(), 4);
        assert_eq!(e.widths_um[0].len(), 2);
        for w in e.widths_um.iter().flatten() {
            assert!((10.0 - 1e-9..=50.0 + 1e-9).contains(w), "width {w} µm");
        }
    }
    // Both runs stay physical: silicon never below the 300 K inlet.
    for s in modulated.snapshots.iter().chain(&frozen.snapshots) {
        assert!(s.min_k >= 300.0 - 1e-6);
        assert!(s.peak_k >= s.min_k);
    }
}

/// The phase-boundary policy re-optimizes exactly once per Niagara phase on
/// the MPSoC stacks.
#[test]
fn phase_boundary_policy_tracks_niagara_phases() {
    let config = small_config();
    let dt = config.dt_seconds;
    let a2 = arch::arch2();
    let trace = arch_trace(
        &a2,
        &[PowerLevel::Average, PowerLevel::Peak, PowerLevel::Average],
        7.0 * dt,
        config.nx,
        config.nz,
    );
    let outcome = MpsocModulated::for_arch(&a2, config)
        .unwrap()
        .controller(ModulationPolicy::Modulated(EpochPolicy::PhaseBoundary))
        .unwrap()
        .run(&trace)
        .unwrap();
    assert_eq!(outcome.snapshots.len(), 21);
    let steps: Vec<usize> = outcome.epochs.iter().map(|e| e.step).collect();
    assert_eq!(steps, vec![0, 7, 14], "one epoch per phase boundary");
    assert_eq!(outcome.epochs[1].phase, trace.phases()[1].label);
}

/// MPSoC sweeps are bitwise deterministic across execution modes and worker
/// counts — the same guarantee as `core::sweep` and the strip transient
/// sweep.
#[test]
fn mpsoc_sweep_parallel_matches_serial_bitwise() {
    let grid = MpsocGrid {
        archs: vec![ArchSpec::Arch1, ArchSpec::Arch3],
        traces: vec![MpsocTraceSpec::avg_to_peak()],
        flow_scales: vec![0.75, 1.0],
    };
    let mut options = MpsocSweepOptions::fast(ExecutionMode::Serial);
    options.config = small_config();
    options.policy = EpochPolicy::FixedCadence { epoch_steps: 6 };
    options.phase_seconds = 6.0 * options.config.dt_seconds;
    let serial = run_mpsoc_sweep(&grid, &options).unwrap();
    assert_eq!(serial.rows.len(), grid.len());
    assert_eq!(serial.workers, 1);
    for workers in [2usize, 3] {
        let parallel = run_mpsoc_sweep(
            &grid,
            &MpsocSweepOptions {
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
    // Rows come back in grid order; this deliberately short run (12 steps,
    // far from steady state) checks determinism, not the headline win.
    let labels: Vec<String> = serial.rows.iter().map(|r| r.label.clone()).collect();
    let expected: Vec<String> = grid.variants().iter().map(|v| v.label()).collect();
    assert_eq!(labels, expected);
    for row in &serial.rows {
        assert!(row.peak_gradient_modulated_k.is_finite());
        assert!(row.peak_gradient_frozen_k > 0.0);
        assert!(row.epochs > 0 && row.evaluations > 0);
    }
}

/// The idle-phase rule carries over: an all-zero workload phase skips its
/// epoch and the stack stays at the inlet temperature.
#[test]
fn zero_power_phase_skips_its_epoch_on_the_mpsoc_stack() {
    let config = small_config();
    let dt = config.dt_seconds;
    let a1 = arch::arch1();
    let peak = MpsocLoad::from_arch(&a1, PowerLevel::Peak, config.nx, config.nz);
    let zero = MpsocLoad {
        top: FluxGrid::from_fn(
            config.nx,
            config.nz,
            a1.top_die().width(),
            a1.top_die().depth(),
            |_, _| 0.0,
        ),
        bottom: FluxGrid::from_fn(
            config.nx,
            config.nz,
            a1.top_die().width(),
            a1.top_die().depth(),
            |_, _| 0.0,
        ),
    };
    let trace = PowerTrace::new(vec![
        Phase {
            label: "idle".into(),
            duration_seconds: 4.0 * dt,
            load: zero,
        },
        Phase {
            label: "peak".into(),
            duration_seconds: 4.0 * dt,
            load: peak,
        },
    ])
    .unwrap();
    let outcome = MpsocModulated::for_arch(&a1, config)
        .unwrap()
        .controller(ModulationPolicy::every(4))
        .unwrap()
        .run(&trace)
        .unwrap();
    // The idle epoch at step 0 is skipped; the loaded one at step 4 runs.
    assert_eq!(outcome.epochs.len(), 1);
    assert_eq!(outcome.epochs[0].step, 4);
    assert!((outcome.snapshots[0].gradient_k).abs() < 1e-6);
    assert!(outcome.snapshots[0].injected_w.abs() < 1e-12);
}

/// One setting every run would fail on, applied to the parts the strip and
/// MPSoC configurations share.
type Defect = fn(&mut ModelParams, &mut OptimizationConfig, &mut SolverOptions, &mut StepperKind);

/// Each configuration defect that used to be accepted at construction and
/// then fail (or evict the session) at the first run, or run a plant of
/// another silicon than the model's, is refused up front:
/// by `ServePool::new` and `MpsocModulated::for_arch` for the MPSoC
/// configuration, and by `ModulationController::new` for its strip twin.
#[test]
fn configs_refuse_at_construction_what_every_run_fails_on() {
    let cases: [(&str, Defect); 13] = [
        ("0 optimizer segments", |_, o, _, _| o.segments = 0),
        ("0 mesh intervals", |_, o, _, _| o.mesh_intervals = 0),
        ("a NaN solver tolerance", |_, _, s, _| {
            s.tolerance = f64::NAN
        }),
        ("a solver tolerance of -1", |_, _, s, _| s.tolerance = -1.0),
        ("a solver cap of 0 iterations", |_, _, s, _| {
            s.max_iterations = 0;
        }),
        ("an exponential stepper with 0 cells", |_, _, _, k| {
            *k = StepperKind::Exponential(ExponentialOptions {
                x_cells: 0,
                ..ExponentialOptions::default()
            });
        }),
        ("a negative flow rate", |p, _, _, _| {
            p.flow_rate_per_channel = VolumetricFlowRate::from_ml_per_min(-0.5);
        }),
        ("a NaN flow rate", |p, _, _, _| {
            p.flow_rate_per_channel = VolumetricFlowRate::from_ml_per_min(f64::NAN);
        }),
        ("w_min above w_max", |p, _, _, _| {
            p.w_min = p.w_max + Length::from_micrometers(10.0);
        }),
        ("w_max above the pitch", |p, _, _, _| {
            p.w_max = p.pitch * 1.5;
        }),
        ("a NaN h_si", |p, _, _, _| {
            p.h_si = Length::from_meters(f64::NAN)
        }),
        ("a negative dp_max", |p, _, _, _| {
            p.dp_max = Pressure::from_bar(-1.0)
        }),
        (
            "a k_si of 150 W/(m·K), not the plant's silicon",
            |p, _, _, _| p.k_si = ThermalConductivity::from_w_per_m_k(150.0),
        ),
    ];
    let mut accepted = Vec::new();
    for (what, defect) in cases {
        let mut mpsoc = small_config();
        defect(
            &mut mpsoc.params,
            &mut mpsoc.optimizer,
            &mut mpsoc.solver,
            &mut mpsoc.stepper,
        );
        let mut strip = TransientConfig::fast();
        defect(
            &mut strip.params,
            &mut strip.optimizer,
            &mut strip.solver,
            &mut strip.stepper,
        );
        let options = ServeOptions::single(mpsoc.clone(), ModulationPolicy::every(6));
        if !matches!(
            ServePool::new(options),
            Err(CoreError::InvalidConfig { .. })
        ) {
            accepted.push(format!("ServePool::new with {what}"));
        }
        if !matches!(
            MpsocModulated::for_arch(&arch::arch1(), mpsoc),
            Err(CoreError::InvalidConfig { .. })
        ) {
            accepted.push(format!("MpsocModulated::for_arch with {what}"));
        }
        if !matches!(
            ModulationController::new(strip, ModulationPolicy::every(4)),
            Err(CoreError::InvalidConfig { .. })
        ) {
            accepted.push(format!("ModulationController::new with {what}"));
        }
    }
    assert!(accepted.is_empty(), "accepted: {accepted:#?}");
}
