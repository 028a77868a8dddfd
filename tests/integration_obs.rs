//! End-to-end tests of the observability layer: recording must be
//! invisible to the numerics (every sweep mode's rows are bitwise
//! identical with a session active and without one), the deterministic
//! exports (JSONL log, counter registry) must not depend on the worker
//! count, and the Chrome-trace export of a pinned serial fleet run is a
//! golden fixture (wall-clock fields zeroed).
//!
//! Sessions are process-global (serialized internally), so these tests
//! interleave safely with the rest of the suite: recording is
//! thread-local, and another test's threads can never contribute spans or
//! counters to a session this file's thread holds.
//!
//! Regenerate the trace fixture after an *intentional* span-taxonomy or
//! numerics change with:
//!
//! ```text
//! LIQUAMOD_REGEN_GOLDEN=1 cargo test --test integration_obs
//! ```

use liquamod::faults::{run_faulted_fleet, FaultEvent, FaultScenario, FaultSchedule};
use liquamod::fleet::{
    run_fleet, run_fleet_sweep, FleetGrid, FleetOptions, FleetSweepOptions, PumpBudget, StackSpec,
};
use liquamod::json::Json;
use liquamod::mpsoc::{
    run_mpsoc_sweep, ArchSpec, MpsocConfig, MpsocGrid, MpsocSweepOptions, MpsocTraceSpec,
};
use liquamod::serve::{run_soak, soak_outcomes_match, ServeOptions, SoakPlan};
use liquamod::sweep::{run_sweep, LoadSpec, SweepGrid, SweepOptions};
use liquamod::transient::{
    run_transient_sweep, EpochPolicy, ModulationPolicy, TraceSpec, TransientConfig, TransientGrid,
    TransientSweepOptions,
};
use liquamod::{BudgetPolicy, ExecutionMode, ObsSession, OptimizationConfig};
use liquamod_repro::golden;
use std::num::NonZeroUsize;

/// The fleet tests' small-but-real per-stack configuration: 20 channel
/// columns in 2 groups, 11 cells along the flow, 2-segment profiles.
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

fn two_stacks() -> Vec<StackSpec> {
    vec![
        StackSpec {
            arch: ArchSpec::Arch1,
            trace: MpsocTraceSpec::avg_to_peak(),
        },
        StackSpec {
            arch: ArchSpec::Arch3,
            trace: MpsocTraceSpec::avg_to_peak(),
        },
    ]
}

fn fleet_sweep_options(mode: ExecutionMode) -> FleetSweepOptions {
    let config = small_config();
    FleetSweepOptions {
        policy: EpochPolicy::FixedCadence { epoch_steps: 6 },
        phase_seconds: 12.0 * config.dt_seconds,
        segments_per_phase: 2,
        config,
        mode,
    }
}

/// A one-variant strip sweep: a Test-A burst at nominal flow, 8-step
/// phases with an epoch every 4 steps.
fn strip_sweep(mode: ExecutionMode) -> (TransientGrid, TransientSweepOptions) {
    let config = TransientConfig {
        optimizer: OptimizationConfig {
            segments: 2,
            mesh_intervals: 32,
            ..OptimizationConfig::fast()
        },
        nz: 20,
        ..TransientConfig::fast()
    };
    let grid = TransientGrid {
        traces: vec![TraceSpec::TestAStep { high_scale: 1.5 }],
        flow_scales: vec![1.0],
    };
    let options = TransientSweepOptions {
        phase_seconds: 8.0 * config.dt_seconds,
        epoch_steps: 4,
        config,
        mode,
    };
    (grid, options)
}

/// A one-variant MPSoC sweep: Arch. 1 through the average→peak burst at
/// nominal flow, 6-step phases with an epoch every 6 steps.
fn mpsoc_sweep(mode: ExecutionMode) -> (MpsocGrid, MpsocSweepOptions) {
    let config = small_config();
    let grid = MpsocGrid {
        archs: vec![ArchSpec::Arch1],
        traces: vec![MpsocTraceSpec::avg_to_peak()],
        flow_scales: vec![1.0],
    };
    let options = MpsocSweepOptions {
        policy: EpochPolicy::FixedCadence { epoch_steps: 6 },
        phase_seconds: 6.0 * config.dt_seconds,
        config,
        mode,
    };
    (grid, options)
}

fn parallel(workers: usize) -> ExecutionMode {
    ExecutionMode::Parallel {
        workers: NonZeroUsize::new(workers),
    }
}

// ---- recording is invisible to the numerics, mode by mode ---------------

#[test]
fn steady_sweep_rows_are_identical_with_a_session_active() {
    let grid = SweepGrid {
        loads: vec![LoadSpec::TestA],
        flux_scales: vec![1.0],
        flow_scales: vec![0.75, 1.0],
    };
    let options = SweepOptions::fast(parallel(2));
    let bare = run_sweep(&grid, &options).unwrap();
    let session = ObsSession::start();
    let observed = run_sweep(&grid, &options).unwrap();
    let report = session.finish();
    // PartialEq on the rows compares every f64 exactly.
    assert_eq!(bare.rows, observed.rows);
    assert!(report.counter("optimizer.evaluations") > 0);
    assert!(!report.spans.is_empty());
}

#[test]
fn transient_sweep_rows_are_identical_with_a_session_active() {
    let (grid, options) = strip_sweep(parallel(2));
    let bare = run_transient_sweep(&grid, &options).unwrap();
    let session = ObsSession::start();
    let observed = run_transient_sweep(&grid, &options).unwrap();
    let report = session.finish();
    assert_eq!(bare.rows, observed.rows);
    assert!(report.counter("assembly.full_rebuilds") > 0);
}

#[test]
fn mpsoc_sweep_rows_are_identical_with_a_session_active() {
    let (grid, options) = mpsoc_sweep(parallel(2));
    let bare = run_mpsoc_sweep(&grid, &options).unwrap();
    let session = ObsSession::start();
    let observed = run_mpsoc_sweep(&grid, &options).unwrap();
    let report = session.finish();
    assert_eq!(bare.rows, observed.rows);
    assert!(report.counter("epoch.adopted") + report.counter("epoch.rejected") > 0);
}

#[test]
fn fleet_sweep_rows_are_identical_with_a_session_active() {
    let grid = FleetGrid {
        stacks: two_stacks(),
        budget_scales: vec![0.9],
    };
    let options = fleet_sweep_options(parallel(2));
    let bare = run_fleet_sweep(&grid, &options).unwrap();
    let session = ObsSession::start();
    let observed = run_fleet_sweep(&grid, &options).unwrap();
    let report = session.finish();
    assert_eq!(bare.rows, observed.rows);
    assert!(report.counter("fleet.segments") > 0);
    assert!(
        report.counter("fleet.dedup_hits") > 0,
        "segment-0 sharing across the policy lanes must be visible"
    );
}

#[test]
fn faulted_fleet_outcome_is_identical_with_a_session_active() {
    let config = small_config();
    let options = FleetOptions {
        policy: EpochPolicy::FixedCadence { epoch_steps: 6 },
        phase_seconds: 6.0 * config.dt_seconds,
        segments_per_phase: 1,
        config,
        ..FleetOptions::fast(2, parallel(2))
    };
    let schedule = FaultSchedule {
        seed: 7,
        events: vec![FaultEvent::PumpRamp {
            start_seconds: 0.0,
            end_seconds: options.phase_seconds,
            final_factor: 0.4,
        }],
    };
    let stacks = two_stacks();
    let bare = run_faulted_fleet(&stacks, &options, &schedule, true).unwrap();
    let session = ObsSession::start();
    let observed = run_faulted_fleet(&stacks, &options, &schedule, true).unwrap();
    let report = session.finish();
    assert_eq!(bare.degraded, observed.degraded);
    assert_eq!(bare.allocations, observed.allocations);
    assert_eq!(
        bare.worst_stack_peak_gradient_k().to_bits(),
        observed.worst_stack_peak_gradient_k().to_bits()
    );
    // The run's degraded events fold into the session as structured events.
    assert_eq!(report.events.len() as u64, report.counter("obs.events"));
    assert!(
        report.events.len() >= observed.degraded.len(),
        "every degraded event must surface in the obs stream"
    );
}

#[test]
fn serve_soak_is_identical_with_a_session_active() {
    let plan = SoakPlan {
        sessions: vec![ArchSpec::Arch1, ArchSpec::Arch3],
        phases_per_session: 2,
        initial_sessions: 2,
        arrivals_per_batch: 0,
        restore_at_batch: None,
        ..SoakPlan::bench_default()
    };
    let options = ServeOptions {
        config: small_config(),
        policy: ModulationPolicy::every(6),
        budget_policy: BudgetPolicy::GradientWaterfill,
        avg_scale: 1.0,
        planned_capacity: plan.sessions.len(),
        workers: 2,
    };
    let bare = run_soak(&options, &plan).unwrap();
    let session = ObsSession::start();
    let observed = run_soak(&options, &plan).unwrap();
    let report = session.finish();
    assert!(soak_outcomes_match(&bare, &observed));
    assert_eq!(
        report.counter("serve.decisions") as usize,
        observed.decisions.len()
    );
}

// ---- the deterministic exports are worker-count independent -------------

/// The JSONL log and the counter registry carry no wall-clock or worker
/// fields, so their *content* must be byte-identical across worker counts
/// — the same index-ordered join that keeps parallel rows bitwise equal to
/// serial ones orders the merged span records.
#[test]
fn deterministic_exports_match_across_worker_counts() {
    let grid = FleetGrid {
        stacks: two_stacks(),
        budget_scales: vec![0.9],
    };
    // A faulted fleet runs the same wavefront loop, so its fleet spans and
    // counters — and the degraded events its posture hooks and controllers
    // record — carry the same contract. Its schedule holds every
    // scenario's faults at once.
    let config = small_config();
    let faulted_options = FleetOptions {
        policy: EpochPolicy::FixedCadence { epoch_steps: 6 },
        phase_seconds: 6.0 * config.dt_seconds,
        segments_per_phase: 2,
        config,
        ..FleetOptions::fast(2, ExecutionMode::Serial)
    };
    let horizon = 2.0 * faulted_options.phase_seconds;
    let schedule = FaultSchedule {
        seed: 3,
        events: FaultScenario::all()
            .iter()
            .flat_map(|s| s.schedule(horizon, 2, 3).events)
            .collect(),
    };
    let run = |mode: ExecutionMode| {
        let session = ObsSession::start();
        let report = run_fleet_sweep(&grid, &fleet_sweep_options(mode)).unwrap();
        let options = FleetOptions {
            mode,
            ..faulted_options.clone()
        };
        let faulted = run_faulted_fleet(&two_stacks(), &options, &schedule, true).unwrap();
        // The modulated-vs-frozen sweeps schedule each variant as a
        // modulated unit and a frozen unit, so even one variant splits
        // across workers.
        let (mpsoc_grid, mpsoc_options) = mpsoc_sweep(mode);
        let mpsoc = run_mpsoc_sweep(&mpsoc_grid, &mpsoc_options).unwrap();
        let (strip_grid, strip_options) = strip_sweep(mode);
        let strip = run_transient_sweep(&strip_grid, &strip_options).unwrap();
        (
            (report.rows, faulted, mpsoc.rows, strip.rows),
            session.finish(),
        )
    };
    let (rows_1, obs_1) = run(ExecutionMode::Serial);
    assert!(!obs_1.events.is_empty(), "the faulted run records events");
    for workers in [2usize, 4] {
        let (rows_n, obs_n) = run(parallel(workers));
        assert_eq!(rows_1, rows_n, "workers = {workers}");
        assert_eq!(
            obs_1.to_jsonl(),
            obs_n.to_jsonl(),
            "JSONL log must not depend on the worker count (workers = {workers})"
        );
        assert_eq!(
            obs_1.counters_json(),
            obs_n.counters_json(),
            "counters must not depend on the worker count (workers = {workers})"
        );
    }
    // What *may* differ across worker counts is exactly the wall-clock
    // view: zeroing start/dur/worker makes even the span records equal.
    let (_, obs_p) = run(parallel(3));
    assert_eq!(obs_1.zeroed().spans, obs_p.zeroed().spans);
}

// ---- the Chrome-trace export is a golden fixture ------------------------

/// A pinned serial single-lane fleet run: its zeroed Chrome trace is
/// byte-stable, Perfetto-loadable JSON. Spelled out rather than taken from
/// the fast defaults so changing those cannot silently re-baseline the
/// fixture.
fn golden_trace() -> String {
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
        allocation: BudgetPolicy::GradientWaterfill,
        budget: PumpBudget::per_stack(0.9, 2),
        config,
        mode: ExecutionMode::Serial,
    };
    let session = ObsSession::start();
    run_fleet(&two_stacks(), &options).unwrap();
    session.finish().zeroed().to_chrome_trace()
}

#[test]
fn fleet_trace_matches_the_golden_fixture() {
    let trace = golden_trace();
    // Schema round trip: the export is one JSON object whose traceEvents
    // carry thread/process metadata and seq/depth/parent-linked complete
    // events — what the CI validator and Perfetto both consume.
    assert!(trace.starts_with("{\"traceEvents\": ["));
    assert!(trace.ends_with("]}\n"));
    for needle in [
        "\"ph\": \"M\"",
        "\"process_name\"",
        "\"thread_name\"",
        "\"ph\": \"X\"",
        "\"name\": \"fleet.run\"",
        "\"name\": \"fleet.segment\"",
        "\"name\": \"epoch.solve\"",
        "\"parent\": null",
    ] {
        assert!(trace.contains(needle), "trace is missing {needle}");
    }
    let parsed = Json::parse(&trace).expect("the trace is strict JSON");
    assert!(matches!(parsed.get("traceEvents"), Some(Json::Array(events)) if !events.is_empty()));
    // Wall-clock fields are zeroed in the fixture.
    assert!(trace.contains("\"ts\": 0.000"));
    assert!(!trace.contains("\"tid\": 1"), "workers are zeroed");

    golden::check("obs_fleet_trace.json", &trace, |expected, actual| {
        assert_eq!(
            expected, actual,
            "the zeroed fleet trace drifted from tests/golden/obs_fleet_trace.json; \
             regenerate with LIQUAMOD_REGEN_GOLDEN=1 if the change is intentional"
        );
    });
}
