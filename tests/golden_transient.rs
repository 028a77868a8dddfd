//! Golden-regression fixtures for the transient modulation loop: one
//! Test-A and one Test-B run are pinned as JSON snapshots (sampled
//! temperatures plus the widths chosen at every epoch), next to an MPSoC
//! run, two fleet runs and the steady design flow underneath them all.
//! Every fixture is compared member by member by one tree comparer
//! (numbers within 1e-9), so modulation numerics cannot drift silently.
//!
//! The fixtures live in `tests/golden/`; regenerate them after an
//! *intentional* numerical change with:
//!
//! ```text
//! LIQUAMOD_REGEN_GOLDEN=1 cargo test --test golden_transient
//! ```
//!
//! (the run overwrites the fixtures and then passes trivially — re-run
//! without the variable to verify, and review the diff before committing).
//!
//! The 1e-9 tolerance assumes the fixtures and the run share a platform
//! libm: the solve path goes through `powf`, whose last-ulp behaviour can
//! differ across targets, and the optimizer's branchy line search can
//! amplify that. CI and the checked-in fixtures are both x86-64 Linux; on
//! another target, regenerate locally first rather than chasing phantom
//! diffs.

use liquamod::faults::{self, run_faulted_fleet, DegradedKind, FaultEvent, FaultSchedule};
use liquamod::fleet::{run_fleet, BudgetPolicy, FleetOptions, PumpBudget, StackSpec};
use liquamod::floorplan::testcase::{self, TEST_B_DEFAULT_SEED};
use liquamod::floorplan::{arch, trace, PowerLevel};
use liquamod::json::Json;
use liquamod::mpsoc::{
    arch_trace, run_mpsoc_sweep, ArchSpec, MpsocConfig, MpsocGrid, MpsocModulated,
    MpsocSweepOptions, MpsocTraceSpec,
};
use liquamod::thermal_model::ModelParams;
use liquamod::transient::{
    run_transient_sweep, EpochPolicy, ModulationController, ModulationPolicy, ModulationRow,
    StripTrace, TraceSpec, TransientConfig, TransientGrid, TransientOutcome, TransientSweepOptions,
};
use liquamod::{
    experiments, optimize_min_pumping, optimize_resumed, strip_model, DesignOutcome, ExecutionMode,
    OptimizationConfig,
};
use liquamod_repro::golden;
use std::path::PathBuf;

/// Absolute tolerance of the golden diff for numbers.
const TOLERANCE: f64 = 1e-9;

/// The pinned scenario configuration. Deliberately spelled out rather than
/// taken from `TransientConfig::fast()`: changing the fast defaults must
/// not silently re-baseline the fixtures.
fn golden_config() -> TransientConfig {
    TransientConfig {
        optimizer: OptimizationConfig {
            segments: 4,
            mesh_intervals: 48,
            ..OptimizationConfig::fast()
        },
        dt_seconds: 2e-3,
        nz: 24,
        ..TransientConfig::fast()
    }
}

/// Two 24 ms phases (12 steps each), epochs every 8 steps → 0, 8, 16.
fn run_scenario(trace: &StripTrace) -> TransientOutcome {
    ModulationController::new(golden_config(), ModulationPolicy::every(8))
        .unwrap()
        .run(trace)
        .unwrap()
}

/// The one golden comparer: both documents parse strictly with
/// `liquamod::json`, declare the schema version this comparer understands,
/// and walk as two trees with the same member names in the same order, the
/// same array nesting and lengths, equal strings, bools and integers, and
/// numbers within [`TOLERANCE`].
fn assert_matches_fixture(expected: &str, actual: &str) {
    let expected = Json::parse(expected).expect("the fixture parses strictly");
    let actual = Json::parse(actual).expect("the run's document parses strictly");
    assert_eq!(expected.get("schema_version"), Some(&Json::Int(1)));
    assert_same_tree("$", &expected, &actual);
}

fn assert_same_tree(at: &str, expected: &Json, actual: &Json) {
    match (expected, actual) {
        (Json::Object(e), Json::Object(a)) => {
            let names = |m: &[(String, Json)]| m.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
            assert_eq!(names(e), names(a), "{at}: members differ");
            for ((key, e), (_, a)) in e.iter().zip(a) {
                assert_same_tree(&format!("{at}.{key}"), e, a);
            }
        }
        (Json::Array(e), Json::Array(a)) => {
            assert_eq!(
                e.len(),
                a.len(),
                "{at}: fixture has {} elements, run produced {}",
                e.len(),
                a.len()
            );
            for (i, (e, a)) in e.iter().zip(a).enumerate() {
                assert_same_tree(&format!("{at}[{i}]"), e, a);
            }
        }
        (Json::Number(e, _), Json::Number(a, _)) => assert!(
            (e - a).abs() <= TOLERANCE,
            "{at}: fixture {e} vs run {a} (|Δ| = {})",
            (e - a).abs()
        ),
        _ => assert_eq!(expected, actual, "{at}"),
    }
}

fn check_golden(name: &str, trace: &StripTrace) {
    let outcome = run_scenario(trace);
    // Sanity: the pinned strip scenarios are 24 steps with 3 epochs.
    assert_eq!(outcome.snapshots.len(), 24);
    assert_eq!(
        outcome.epochs.iter().map(|e| e.step).collect::<Vec<_>>(),
        vec![0, 8, 16]
    );
    diff_or_regen(name, &outcome);
}

fn diff_or_regen(name: &str, outcome: &TransientOutcome) {
    golden::check(
        &format!("{name}.json"),
        &outcome.golden_json(name),
        assert_matches_fixture,
    );
}

/// The fault-injection fixture: a two-stack fleet (aligned-hotspot Arch. 1
/// next to the all-cache Arch. 3) whose shared pump decays to 40% over the
/// first phase — deep enough that the decayed total leaves the nominal
/// valve band, so the fixture pins the `BudgetClamped` degraded path along
/// with the fall-back allocation numerics.
#[test]
fn golden_faults_pump_ramp_run() {
    let config = MpsocConfig {
        optimizer: OptimizationConfig {
            segments: 2,
            mesh_intervals: 32,
            ..OptimizationConfig::fast()
        },
        nx: 20,
        nz: 11,
        n_groups: 2,
        ..MpsocConfig::fast()
    };
    let options = FleetOptions {
        policy: EpochPolicy::FixedCadence { epoch_steps: 6 },
        phase_seconds: 6.0 * config.dt_seconds,
        segments_per_phase: 1,
        config,
        ..FleetOptions::fast(2, ExecutionMode::Serial)
    };
    let stacks = vec![
        StackSpec {
            arch: ArchSpec::Arch1,
            trace: MpsocTraceSpec::avg_to_peak(),
        },
        StackSpec {
            arch: ArchSpec::Arch3,
            trace: MpsocTraceSpec::avg_to_peak(),
        },
    ];
    let schedule = FaultSchedule {
        seed: 7,
        events: vec![FaultEvent::PumpRamp {
            start_seconds: 0.0,
            end_seconds: options.phase_seconds,
            final_factor: 0.4,
        }],
    };
    let outcome = run_faulted_fleet(&stacks, &options, &schedule, true).unwrap();
    // The scenario must actually exercise the degraded path it pins.
    assert!(
        outcome
            .degraded
            .iter()
            .any(|e| e.kind == DegradedKind::BudgetClamped),
        "the 0.4x ramp must clamp the budget: {:?}",
        outcome.degraded
    );
    golden::check(
        "faults_pump_ramp.json",
        &faults::golden_json(&outcome, "faults_pump_ramp", true),
        assert_matches_fixture,
    );
}

/// The predictive-allocator fixture: a three-stack fleet whose hot spot
/// migrates between stacks at every phase boundary (`migrating_peak`
/// staggering — the workload the one-step MPC exists for), under an
/// under-provisioned shared pump. Pins the forecast-driven allocation
/// decisions, the surrogate-diagnostics counters and the trajectory
/// numerics within 1e-9.
#[test]
fn golden_fleet_predictive_run() {
    let config = MpsocConfig {
        optimizer: OptimizationConfig {
            segments: 2,
            mesh_intervals: 32,
            ..OptimizationConfig::fast()
        },
        nx: 20,
        nz: 11,
        n_groups: 2,
        ..MpsocConfig::fast()
    };
    let stacks: Vec<StackSpec> = ArchSpec::all()
        .into_iter()
        .enumerate()
        .map(|(i, arch)| StackSpec {
            arch,
            trace: MpsocTraceSpec::migrating_peak(i, 3),
        })
        .collect();
    let options = FleetOptions {
        policy: EpochPolicy::FixedCadence { epoch_steps: 6 },
        allocation: BudgetPolicy::Predictive,
        budget: PumpBudget::per_stack(0.9, stacks.len()),
        phase_seconds: 6.0 * config.dt_seconds,
        segments_per_phase: 1,
        config,
        mode: ExecutionMode::Serial,
    };
    let outcome = run_fleet(&stacks, &options).unwrap();
    // The scenario must actually exercise the machinery it pins: phase
    // boundaries with a migrating peak make every forecast informative,
    // and each post-measurement boundary refits the surrogate.
    let diag = outcome
        .predictive
        .expect("predictive run carries diagnostics");
    assert!(diag.forecast_hits > 0, "no informative forecasts: {diag:?}");
    assert!(diag.surrogate_refits > 0, "surrogate never refit: {diag:?}");
    golden::check(
        "fleet_predictive.json",
        &outcome.golden_json("fleet_predictive"),
        assert_matches_fixture,
    );
}

#[test]
fn golden_test_a_transient_run() {
    check_golden("transient_test_a", &trace::test_a_step(0.024, 1.5));
}

#[test]
fn golden_test_b_transient_run() {
    check_golden(
        "transient_test_b",
        &trace::test_b_phases(TEST_B_DEFAULT_SEED, 2, 0.024),
    );
}

/// The full-chip fixture: an Arch. 1 stack (20 channel columns in 2 groups
/// per cavity, 11 cells along the flow) through a Niagara average→peak
/// burst of two 16 ms phases, re-optimizing both cavities jointly every 8
/// steps → epochs at 0 and 8.
#[test]
fn golden_mpsoc_arch1_niagara_run() {
    let config = MpsocConfig {
        optimizer: OptimizationConfig {
            segments: 2,
            mesh_intervals: 32,
            ..OptimizationConfig::fast()
        },
        nx: 20,
        nz: 11,
        n_groups: 2,
        dt_seconds: 2e-3,
        ..MpsocConfig::fast()
    };
    let a1 = arch::arch1();
    let trace = arch_trace(
        &a1,
        &[PowerLevel::Average, PowerLevel::Peak],
        0.016,
        config.nx,
        config.nz,
    );
    let outcome = MpsocModulated::for_arch(&a1, config)
        .unwrap()
        .controller(ModulationPolicy::every(8))
        .unwrap()
        .run(&trace)
        .unwrap();
    assert_eq!(outcome.snapshots.len(), 16);
    assert_eq!(
        outcome.epochs.iter().map(|e| e.step).collect::<Vec<_>>(),
        vec![0, 8]
    );
    // Every epoch records 2 cavities × 2 groups of 2-segment samples.
    assert_eq!(outcome.epochs[0].widths_um.len(), 4);
    diff_or_regen("mpsoc_arch1_niagara", &outcome);
}

/// One modulated-vs-frozen sweep row as a fixture member.
fn modulation_row(row: &ModulationRow) -> Json {
    Json::object([
        ("label", Json::from(row.label.as_str())),
        (
            "peak_gradient_modulated_k",
            Json::from(row.peak_gradient_modulated_k),
        ),
        (
            "peak_gradient_frozen_k",
            Json::from(row.peak_gradient_frozen_k),
        ),
        (
            "peak_temperature_modulated_k",
            Json::from(row.peak_temperature_modulated_k),
        ),
        ("gradient_reduction", Json::from(row.gradient_reduction)),
        ("epochs", Json::from(row.epochs)),
        ("epochs_adopted", Json::from(row.epochs_adopted)),
        ("evaluations", Json::from(row.evaluations)),
    ])
}

/// The two modulated-vs-frozen sweeps, run serially on the grids and
/// configurations of their parallel-matches-serial tests: the strip sweep
/// (Test-A burst and a 2-phase Test-B draw) and the MPSoC sweep (Arch. 1
/// and Arch. 3 through the average→peak burst), each at two flow scales,
/// 6-step phases with an epoch every 6 steps. Pins every row metric.
#[test]
fn golden_modulation_sweeps() {
    let strip_grid = TransientGrid {
        traces: vec![
            TraceSpec::TestAStep { high_scale: 1.5 },
            TraceSpec::TestBPhases { seed: 7, phases: 2 },
        ],
        flow_scales: vec![0.75, 1.0],
    };
    let mut strip_options = TransientSweepOptions::fast(ExecutionMode::Serial);
    strip_options.config = TransientConfig {
        optimizer: OptimizationConfig {
            segments: 2,
            mesh_intervals: 32,
            ..OptimizationConfig::fast()
        },
        nz: 16,
        ..TransientConfig::fast()
    };
    strip_options.epoch_steps = 6;
    strip_options.phase_seconds = 6.0 * strip_options.config.dt_seconds;
    let strip = run_transient_sweep(&strip_grid, &strip_options).unwrap();

    let mpsoc_grid = MpsocGrid {
        archs: vec![ArchSpec::Arch1, ArchSpec::Arch3],
        traces: vec![MpsocTraceSpec::avg_to_peak()],
        flow_scales: vec![0.75, 1.0],
    };
    let mut mpsoc_options = MpsocSweepOptions::fast(ExecutionMode::Serial);
    mpsoc_options.config = MpsocConfig {
        optimizer: OptimizationConfig {
            segments: 2,
            mesh_intervals: 32,
            ..OptimizationConfig::fast()
        },
        nx: 20,
        nz: 11,
        n_groups: 2,
        ..MpsocConfig::fast()
    };
    mpsoc_options.policy = EpochPolicy::FixedCadence { epoch_steps: 6 };
    mpsoc_options.phase_seconds = 6.0 * mpsoc_options.config.dt_seconds;
    let mpsoc = run_mpsoc_sweep(&mpsoc_grid, &mpsoc_options).unwrap();

    assert_eq!(strip.rows.len(), strip_grid.len());
    assert_eq!(mpsoc.rows.len(), mpsoc_grid.len());
    let document = Json::object([
        ("schema_version", Json::Int(1)),
        ("scenario", Json::from("modulation_sweeps")),
        (
            "transient",
            Json::Array(strip.rows.iter().map(modulation_row).collect()),
        ),
        (
            "mpsoc",
            Json::Array(mpsoc.rows.iter().map(modulation_row).collect()),
        ),
    ])
    .to_document();
    golden::check("modulation_sweeps.json", &document, assert_matches_fixture);
}

/// One steady design outcome as a fixture member.
fn design_json(outcome: &DesignOutcome) -> Json {
    Json::object([
        ("x_opt", Json::numbers(&outcome.x_opt)),
        ("objective", Json::from(outcome.objective)),
        ("evaluations", Json::from(outcome.evaluations)),
        ("feasible", Json::flag(outcome.feasible)),
        (
            "pressure_drops_pa",
            Json::numbers(outcome.pressure_drops.iter().map(|p| p.as_pascals())),
        ),
        (
            "gradient_k",
            Json::from(outcome.solution.thermal_gradient().as_kelvin()),
        ),
    ])
}

/// The steady design flow (paper §IV) that every transient, fleet and serve
/// fixture reaches only through an epoch: Test A on the strip, the
/// two-column slice whose Eq. (10) equalities couple the groups, the §IV-B
/// min-pumping dual at a cost bound halfway between the uniform-`w_max` and
/// the optimal cost, and a cold → resumed pair (cold on Test B, resumed on
/// Test A) whose second solve runs under the resume caps.
#[test]
fn golden_design_steady_run() {
    let params = ModelParams::date2012();
    let config = OptimizationConfig {
        segments: 4,
        mesh_intervals: 48,
        ..OptimizationConfig::fast()
    };
    let test_a = experiments::test_a(&params, &config).unwrap();
    let (_, slice) = experiments::mpsoc_small_for_tests(&params, &config).unwrap();
    assert_eq!(slice.outcome.pressure_drops.len(), 2, "two coupled columns");

    let strip_a = strip_model(&testcase::test_a(), &params).unwrap();
    let bound = 0.5 * (test_a.outcome.objective + test_a.maximum_solution.cost_gradient_squared());
    let min_pumping = optimize_min_pumping(&strip_a, &config, bound).unwrap();

    let strip_b = strip_model(&testcase::test_b(), &params).unwrap();
    let (cold, warm) = optimize_resumed(&strip_b, &config, None).unwrap();
    let (resumed, next) = optimize_resumed(&strip_a, &config, Some(&warm)).unwrap();

    let document = Json::object([
        ("schema_version", Json::Int(1)),
        ("scenario", Json::from("design_steady")),
        ("test_a", design_json(&test_a.outcome)),
        ("two_column_slice", design_json(&slice.outcome)),
        ("min_pumping_cost_bound", Json::from(bound)),
        ("min_pumping", design_json(&min_pumping)),
        ("cold", design_json(&cold)),
        ("resumed", design_json(&resumed)),
        (
            "resumed_inequality_multipliers",
            Json::numbers(&next.inequality_multipliers),
        ),
        ("resumed_penalty", Json::from(next.penalty)),
    ])
    .to_document();
    golden::check("design_steady.json", &document, assert_matches_fixture);
}

/// The reader is part of the regression surface: it reads back exactly
/// what `golden_json` writes, bitwise, and re-renders the same bytes.
#[test]
fn golden_serialization_roundtrips() {
    let outcome = run_scenario(&trace::test_a_step(0.024, 1.5));
    let json = outcome.golden_json("roundtrip");
    let doc = Json::parse(&json).unwrap();
    assert_eq!(doc.to_document(), json);
    let times = doc.number_array("times").unwrap();
    assert_eq!(times.len(), outcome.snapshots.len());
    for (parsed, snap) in times.iter().zip(&outcome.snapshots) {
        assert_eq!(parsed.to_bits(), snap.time_seconds.to_bits());
    }
    let Some(Json::Array(epochs)) = doc.get("epoch_widths_um") else {
        panic!("epoch_widths_um is not an array");
    };
    assert_eq!(epochs.len(), outcome.epochs.len());
    for (row, epoch) in epochs.iter().zip(&outcome.epochs) {
        let Json::Array(widths) = row else {
            panic!("an epoch's widths are not an array");
        };
        let flat: Vec<f64> = epoch.widths_um.iter().flatten().copied().collect();
        assert_eq!(widths.len(), flat.len());
        for (parsed, w) in widths.iter().zip(&flat) {
            assert_eq!(parsed.as_f64().unwrap().to_bits(), w.to_bits());
        }
    }
    assert_eq!(
        doc.number("dt_seconds").unwrap().to_bits(),
        outcome.dt_seconds.to_bits()
    );
    assert_eq!(doc.get("schema_version"), Some(&Json::Int(1)));
    assert_eq!(doc.get("scenario"), Some(&Json::from("roundtrip")));
}

/// Every checked-in BENCH record parses strictly and declares, as
/// top-level members, the schema version its consumers (the CI
/// bench-smoke comparisons) parse, the core count it was measured on and
/// the observability counter registry.
#[test]
fn bench_records_declare_schema_version() {
    // BENCH_fleet.json is at v6: v2 added `stepper` and the segment-level
    // scheduler's `segment_wall_seconds`; v3 added `available_cores`, the
    // detected core count CI's speedup gate judges `parallel_speedup`
    // against (on a 1–2 core box parallel can only match serial); v4 (and
    // the other records' v2) added the `counters` observability block; v5
    // added the predictive (one-step-MPC) policy column: per-variant
    // `worst_gradient_predictive_k`, `predictive_margin` and the surrogate
    // diagnostics CI's predictive-vs-waterfill gate reads; v6 dropped the
    // greedy policy's columns. BENCH_sweep.json is at v3: it dropped the
    // `warm_start` flag once every steady sweep chained warm starts.
    let read = |name: &str| {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(name);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        Json::parse(&text).unwrap_or_else(|e| panic!("{name} is not strict JSON: {e}"))
    };
    for (name, version) in [
        ("BENCH_sweep.json", 3),
        ("BENCH_transient.json", 2),
        ("BENCH_mpsoc.json", 2),
        ("BENCH_fleet.json", 6),
        ("BENCH_faults.json", 2),
        ("BENCH_serve.json", 2),
    ] {
        let record = read(name);
        assert_eq!(
            record.get("schema_version"),
            Some(&Json::Int(version)),
            "{name} must declare schema_version {version}"
        );
        assert!(
            matches!(record.get("available_cores"), Some(Json::Int(n)) if *n >= 1),
            "{name} must record the core count it was measured on"
        );
        assert!(
            matches!(record.get("counters"), Some(Json::Object(c)) if !c.is_empty()),
            "{name} must carry the observability counter registry"
        );
    }
    let fleet = read("BENCH_fleet.json");
    assert!(
        matches!(fleet.get("segment_wall_seconds"), Some(Json::Array(w)) if !w.is_empty()),
        "BENCH_fleet.json v2 must carry the per-wavefront wall breakdown"
    );
    assert!(
        matches!(fleet.get("stepper"), Some(Json::String(_))),
        "BENCH_fleet.json v2 must name its integrator backend"
    );
    let Some(Json::Array(variants)) = fleet.get("variants") else {
        panic!("BENCH_fleet.json must carry its variant rows");
    };
    assert!(!variants.is_empty());
    for row in variants {
        for key in [
            "worst_gradient_predictive_k",
            "predictive_margin",
            "predictive_forecast_hits",
            "predictive_surrogate_refits",
        ] {
            assert!(
                row.get(key).and_then(Json::as_f64).is_some(),
                "BENCH_fleet.json v5 must carry the predictive policy column ({key})"
            );
        }
    }
}
