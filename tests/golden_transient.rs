//! Golden-regression fixtures for the transient modulation loop: one
//! Test-A and one Test-B run are pinned as JSON snapshots (sampled
//! temperatures plus the widths chosen at every epoch) and diffed within
//! 1e-9, so modulation numerics cannot drift silently.
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
use liquamod::floorplan::testcase::TEST_B_DEFAULT_SEED;
use liquamod::floorplan::{arch, trace, PowerLevel};
use liquamod::mpsoc::{arch_trace, ArchSpec, MpsocConfig, MpsocModulated, MpsocTraceSpec};
use liquamod::transient::{
    EpochPolicy, ModulationController, ModulationPolicy, StripTrace, TransientConfig,
    TransientOutcome,
};
use liquamod::{ExecutionMode, OptimizationConfig};
use std::path::PathBuf;

/// Absolute tolerance of the golden diff (the ISSUE's contract).
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

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

// ---- a minimal parser for the fixtures' flat JSON schema ----------------

/// Returns the balanced `[…]` source span following `"key":`.
fn raw_span<'a>(json: &'a str, key: &str) -> &'a str {
    let tag = format!("\"{key}\":");
    let start = json
        .find(&tag)
        .unwrap_or_else(|| panic!("fixture is missing key {key}"));
    let rest = &json[start + tag.len()..];
    let open = rest.find('[').expect("key is not an array");
    let mut depth = 0usize;
    for (i, c) in rest[open..].char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return &rest[open..=open + i];
                }
            }
            _ => {}
        }
    }
    panic!("unbalanced array for key {key}");
}

/// Parses every number in a span (commas/brackets/whitespace separate).
fn numbers(span: &str) -> Vec<f64> {
    span.split(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .filter(|s| !s.is_empty() && s.chars().any(|c| c.is_ascii_digit()))
        .map(|s| s.parse().unwrap_or_else(|_| panic!("bad number {s:?}")))
        .collect()
}

/// A flat numeric array under `key`.
fn num_array(json: &str, key: &str) -> Vec<f64> {
    numbers(raw_span(json, key))
}

/// A scalar numeric field under `key`.
fn num_scalar(json: &str, key: &str) -> f64 {
    let tag = format!("\"{key}\":");
    let start = json
        .find(&tag)
        .unwrap_or_else(|| panic!("fixture is missing key {key}"));
    let rest = &json[start + tag.len()..];
    let end = rest.find([',', '\n']).unwrap_or(rest.len());
    rest[..end].trim().parse().expect("bad scalar")
}

fn assert_close(label: &str, expected: &[f64], actual: &[f64]) {
    assert_eq!(
        expected.len(),
        actual.len(),
        "{label}: fixture has {} values, run produced {}",
        expected.len(),
        actual.len()
    );
    for (i, (e, a)) in expected.iter().zip(actual).enumerate() {
        assert!(
            (e - a).abs() <= TOLERANCE,
            "{label}[{i}]: fixture {e} vs run {a} (|Δ| = {})",
            (e - a).abs()
        );
    }
}

/// Compares every numeric channel of the golden schema.
fn assert_matches_fixture(expected: &str, actual: &str) {
    // The schema version is part of the fixture contract: both sides must
    // declare the version this comparer understands.
    assert_eq!(num_scalar(expected, "schema_version"), 1.0);
    assert_eq!(num_scalar(actual, "schema_version"), 1.0);
    assert!(
        (num_scalar(expected, "dt_seconds") - num_scalar(actual, "dt_seconds")).abs() <= TOLERANCE
    );
    for key in [
        "times",
        "peak_k",
        "min_k",
        "gradient_k",
        "epoch_steps_at",
        "epoch_adopted",
        "epoch_candidate_gradient_k",
        "epoch_incumbent_gradient_k",
        "epoch_widths_um",
    ] {
        assert_close(key, &num_array(expected, key), &num_array(actual, key));
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
    let actual = outcome.golden_json(name);
    let path = fixture_path(&format!("{name}.json"));
    if std::env::var("LIQUAMOD_REGEN_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
    assert_matches_fixture(&expected, &actual);
}

/// Compares every numeric channel of the faulted-fleet golden schema
/// (allocations, per-stack segment metrics, the degraded-event quadruples
/// and the headline worst gradient).
fn assert_matches_faults_fixture(expected: &str, actual: &str) {
    assert_eq!(num_scalar(expected, "schema_version"), 1.0);
    assert_eq!(num_scalar(actual, "schema_version"), 1.0);
    for key in [
        "allocations",
        "segment_gradient_k",
        "segment_temperature_k",
        "segment_evaluations",
        "degraded_events",
    ] {
        assert_close(key, &num_array(expected, key), &num_array(actual, key));
    }
    assert!(
        (num_scalar(expected, "worst_gradient_k") - num_scalar(actual, "worst_gradient_k")).abs()
            <= TOLERANCE
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
    let actual = faults::golden_json(&outcome, "faults_pump_ramp", true);
    let path = fixture_path("faults_pump_ramp.json");
    if std::env::var("LIQUAMOD_REGEN_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
    assert_matches_faults_fixture(&expected, &actual);
}

/// Compares every numeric channel of the predictive-fleet golden schema
/// (allocator decisions, per-stack segment metrics, the surrogate
/// diagnostics and the headline worst gradient).
fn assert_matches_fleet_fixture(expected: &str, actual: &str) {
    assert_eq!(num_scalar(expected, "schema_version"), 1.0);
    assert_eq!(num_scalar(actual, "schema_version"), 1.0);
    for key in [
        "allocations",
        "segment_gradient_k",
        "segment_temperature_k",
        "segment_evaluations",
    ] {
        assert_close(key, &num_array(expected, key), &num_array(actual, key));
    }
    for key in ["forecast_hits", "surrogate_refits", "worst_gradient_k"] {
        assert!(
            (num_scalar(expected, key) - num_scalar(actual, key)).abs() <= TOLERANCE,
            "{key}: {} vs {}",
            num_scalar(expected, key),
            num_scalar(actual, key)
        );
    }
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
    let actual = outcome.golden_json("fleet_predictive");
    let path = fixture_path("fleet_predictive.json");
    if std::env::var("LIQUAMOD_REGEN_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
    assert_matches_fleet_fixture(&expected, &actual);
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

/// The parser itself is part of the regression surface: make sure it reads
/// back exactly what `golden_json` writes.
#[test]
fn golden_serialization_roundtrips() {
    let outcome = run_scenario(&trace::test_a_step(0.024, 1.5));
    let json = outcome.golden_json("roundtrip");
    let times = num_array(&json, "times");
    assert_eq!(times.len(), outcome.snapshots.len());
    for (parsed, snap) in times.iter().zip(&outcome.snapshots) {
        assert_eq!(parsed.to_bits(), snap.time_seconds.to_bits());
    }
    let widths = num_array(&json, "epoch_widths_um");
    let flat: Vec<f64> = outcome
        .epochs
        .iter()
        .flat_map(|e| e.widths_um.iter().flatten().copied())
        .collect();
    assert_eq!(widths.len(), flat.len());
    for (parsed, w) in widths.iter().zip(&flat) {
        assert_eq!(parsed.to_bits(), w.to_bits());
    }
    assert_eq!(
        num_scalar(&json, "dt_seconds").to_bits(),
        outcome.dt_seconds.to_bits()
    );
    assert_eq!(num_scalar(&json, "schema_version"), 1.0);
}

/// Every checked-in BENCH record declares the schema version its consumers
/// (the CI bench-smoke comparisons) parse.
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
    // greedy policy's columns.
    for (name, version) in [
        ("BENCH_sweep.json", 2.0),
        ("BENCH_transient.json", 2.0),
        ("BENCH_mpsoc.json", 2.0),
        ("BENCH_fleet.json", 6.0),
        ("BENCH_faults.json", 2.0),
        ("BENCH_serve.json", 2.0),
    ] {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(name);
        let record = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        assert_eq!(
            num_scalar(&record, "schema_version"),
            version,
            "{name} must declare schema_version {version}"
        );
        assert!(
            record.contains("\"available_cores\""),
            "{name} must record the core count it was measured on"
        );
        assert!(
            record.contains("\"counters\""),
            "{name} must carry the observability counter registry"
        );
    }
    let fleet =
        std::fs::read_to_string(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("BENCH_fleet.json"))
            .unwrap();
    assert!(
        fleet.contains("\"segment_wall_seconds\""),
        "BENCH_fleet.json v2 must carry the per-wavefront wall breakdown"
    );
    assert!(
        fleet.contains("\"stepper\""),
        "BENCH_fleet.json v2 must name its integrator backend"
    );
    for key in [
        "\"worst_gradient_predictive_k\"",
        "\"predictive_margin\"",
        "\"predictive_forecast_hits\"",
        "\"predictive_surrogate_refits\"",
    ] {
        assert!(
            fleet.contains(key),
            "BENCH_fleet.json v5 must carry the predictive policy column ({key})"
        );
    }
}
