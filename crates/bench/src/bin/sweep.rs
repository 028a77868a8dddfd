//! Parallel design-space sweep over scenario variants, with transient
//! channel-modulation modes for both the validation strips and the
//! full-chip MPSoC stacks.
//!
//! The default (steady) mode expands a grid of workloads × heat-flux
//! scales × coolant-flow scales, evaluates the full minimum/maximum/optimal
//! comparison for every variant and prints one comparable report — the
//! throughput-oriented counterpart to the per-figure reproduction binaries.
//!
//! The `transient` mode runs the closed-loop modulation controller over
//! time-varying strip workload traces (trace × flow-scale grid), comparing
//! the time-peak inter-layer gradient of the modulated run against the
//! frozen uniform-width baseline of each variant.
//!
//! The `mpsoc` mode does the same for the paper's two-die Fig. 7
//! architectures (arch × trace × flow-scale grid): each variant drives a
//! five-layer two-cavity stack through a Niagara average→peak burst, with
//! the cavities' per-group width profiles re-optimized jointly at every
//! epoch.
//!
//! The `fleet` mode co-optimizes *several* MPSoC stacks under one shared
//! pump budget: per budget variant, the same fleet runs under uniform,
//! gradient-water-filling and predictive (one-step-MPC) flow
//! allocation, and a double gate requires water-filling to strictly beat
//! the uniform split *and* the predictive allocator to strictly beat
//! water-filling on the worst stack's time-peak gradient.
//!
//! The `faults` mode drives a three-stack average→peak fleet (one stack
//! per Fig. 7 architecture) through adversarial operating scenarios
//! (pump-degradation ramp, stuck valve group, coolant inlet excursion)
//! under a deterministic seeded fault schedule, head-to-head between the
//! fault-aware degraded controller and a fault-oblivious baseline. The
//! gate requires the aware controller to strictly beat the oblivious one
//! on every scenario's worst-stack time-peak gradient, stay within the
//! declared excursion bound of the healthy run, and surface structured
//! degraded-mode events for every fault scenario.
//!
//! The `serve` mode soaks the streaming modulation service: a pool of
//! concurrent stack sessions streaming phases one at a time under a shared
//! pump budget, with staggered arrivals, snapshot/restore churn and
//! departures. The gates require the streamed trajectory to equal the
//! one-shot run **bitwise**, a session serialized mid-stream to continue
//! after a restart within 1e-9 K (and its JSON document to round-trip
//! byte-identically), and the whole soak to be bitwise deterministic
//! against a single-worker rerun.
//!
//! Run with: `cargo run --release -p bench --bin sweep [-- transient|mpsoc|fleet|faults|serve]`
//!
//! Options: `sweep --help` prints them (`print_help` is the one list;
//! CI smoke checks README.md's flag table against it). `--json`,
//! `--trace` and `--counters` write the perf record, the Chrome trace and
//! the deterministic JSONL log, all through `liquamod::json`;
//! `LIQUAMOD_FAST=1` selects the coarse CI settings.
//!
//! By default the steady grid is the 16-variant paper neighborhood, the
//! transient grid the 4-variant trace neighborhood and the mpsoc grid the
//! 6-variant architecture neighborhood, evaluated in parallel *and*
//! serially; the tail of the output reports wall times, effective
//! throughput and the parallel speedup.

use liquamod::faults::{run_faults_sweep, FaultScenario, FaultsReport, FaultsSweepOptions};
use liquamod::fleet::{run_fleet_sweep, BudgetPolicy, FleetGrid, FleetSweepOptions, StackSpec};
use liquamod::floorplan::PowerLevel;
use liquamod::grid_sim::{ExponentialOptions, StepperKind};
use liquamod::json::Json;
use liquamod::mpsoc::{run_mpsoc_sweep, ArchSpec, MpsocGrid, MpsocSweepOptions, MpsocTraceSpec};
use liquamod::serve::{
    run_soak, soak_level, soak_outcomes_match, verify_snapshot_restore, verify_streaming_identity,
    ServeOptions, SnapshotFidelity, SoakPlan, StreamingIdentity,
};
use liquamod::sweep::{run_sweep, ExecutionMode, SweepGrid, SweepOptions, SweepReport};
use liquamod::transient::{
    run_transient_sweep, EpochPolicy, ModulationPolicy, ModulationReport, TransientGrid,
    TransientSweepOptions,
};
use liquamod::{ObsReport, ObsSession};
use liquamod_bench::{banner, print_table};
use std::collections::BTreeSet;
use std::num::NonZeroUsize;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Steady,
    Transient,
    Mpsoc,
    Fleet,
    Faults,
    Serve,
}

struct Args {
    mode: Mode,
    serial: bool,
    workers: Option<NonZeroUsize>,
    baseline: bool,
    stepper: StepperKind,
    json: Option<String>,
    trace: Option<String>,
    counters: Option<String>,
}

/// The mode names as the CLI and the default artifact paths spell them
/// (steady mode spells its artifacts `sweep`, after the binary).
const MODE_NAMES: [&str; 5] = ["transient", "mpsoc", "fleet", "faults", "serve"];

/// The artifact-path name of a mode.
fn mode_name(mode: Mode) -> &'static str {
    match mode {
        Mode::Steady => "sweep",
        Mode::Transient => "transient",
        Mode::Mpsoc => "mpsoc",
        Mode::Fleet => "fleet",
        Mode::Faults => "faults",
        Mode::Serve => "serve",
    }
}

/// The usage text `--help` prints. README.md's flag table mirrors it, and
/// CI smoke fails when the two flag sets differ.
fn print_help() {
    println!(
        "liquamod design-space sweep bench

usage: sweep [MODE] [OPTIONS]

modes (default: steady):
  transient          strip transient modulation sweep
  mpsoc              full-chip MPSoC modulation sweep
  fleet              shared-pump fleet sharding sweep
  faults             fault-injection scenario grid
  serve              streaming modulation service soak

options (all modes unless noted):
  --serial           run on one thread only (no speedup baseline)
  --workers N        override the parallel worker count
  --no-baseline      skip the serial reference run (faster, but no speedup
                     figure and no runtime determinism check)
  --stepper KIND     all modes but steady: transient integrator backend,
                     backward-euler (default) or exponential
  --json [PATH]      write a machine-readable perf record
                     (PATH defaults to BENCH_<mode>.json)
  --trace [PATH]     record hierarchical spans and write a Perfetto-loadable
                     Chrome trace (PATH defaults to TRACE_<mode>.json), plus
                     a self-time profile table on stdout
  --counters [PATH]  write the deterministic observability JSONL log: spans,
                     counters and degraded events without wall-clock fields
                     (PATH defaults to COUNTERS_<mode>.jsonl)
  --help             print this help

environment:
  LIQUAMOD_FAST=1    coarse optimizer/grid settings (CI)"
    );
}

/// The record's name for a stepper backend (also the `--stepper` spelling,
/// modulo `-` vs `_`).
fn stepper_name(stepper: &StepperKind) -> &'static str {
    match stepper {
        StepperKind::BackwardEuler => "backward_euler",
        StepperKind::Exponential(_) => "exponential",
    }
}

/// Consumes the next argument as an optional flag value: bare flags (next
/// token is another flag, a mode name, or nothing) leave the value to the
/// mode-specific default.
fn optional_path(it: &mut std::iter::Peekable<std::vec::IntoIter<String>>) -> String {
    match it.peek() {
        Some(next) if !next.starts_with('-') && !MODE_NAMES.contains(&next.as_str()) => {
            it.next().unwrap_or_default()
        }
        _ => String::new(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::Steady,
        serial: false,
        workers: None,
        baseline: true,
        stepper: StepperKind::BackwardEuler,
        json: None,
        trace: None,
        counters: None,
    };
    // `args_os`: `std::env::args` panics on an argument that is not UTF-8.
    let argv = std::env::args_os()
        .skip(1)
        .map(|arg| {
            arg.into_string()
                .map_err(|bad| format!("argument {bad:?} is not valid UTF-8"))
        })
        .collect::<Result<Vec<String>, String>>()?;
    let mut it = argv.into_iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "transient" => args.mode = Mode::Transient,
            "mpsoc" => args.mode = Mode::Mpsoc,
            "fleet" => args.mode = Mode::Fleet,
            "faults" => args.mode = Mode::Faults,
            "serve" => args.mode = Mode::Serve,
            "--serial" => args.serial = true,
            "--no-baseline" => args.baseline = false,
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad worker count: {v}"))?;
                args.workers = Some(NonZeroUsize::new(n).ok_or("worker count must be positive")?);
            }
            "--stepper" => {
                let v = it.next().ok_or("--stepper needs a value")?;
                args.stepper = match v.as_str() {
                    "backward-euler" => StepperKind::BackwardEuler,
                    "exponential" => StepperKind::Exponential(ExponentialOptions::default()),
                    other => {
                        return Err(format!(
                            "bad stepper: {other} (try backward-euler or exponential)"
                        ))
                    }
                };
            }
            // The paths are optional: a bare flag writes the mode's
            // default file name in the working directory.
            "--json" => args.json = Some(optional_path(&mut it)),
            "--trace" => args.trace = Some(optional_path(&mut it)),
            "--counters" => args.counters = Some(optional_path(&mut it)),
            other => return Err(format!("unknown argument: {other} (try --help)")),
        }
    }
    // Resolve the default artifact paths once the mode is known.
    let name = mode_name(args.mode);
    for (slot, default) in [
        (&mut args.json, format!("BENCH_{name}.json")),
        (&mut args.trace, format!("TRACE_{name}.json")),
        (&mut args.counters, format!("COUNTERS_{name}.jsonl")),
    ] {
        if let Some(path) = slot {
            if path.is_empty() {
                *path = default;
            }
        }
    }
    for path in [&args.json, &args.trace, &args.counters]
        .into_iter()
        .flatten()
    {
        check_output_path(path)?;
    }
    Ok(args)
}

/// Refuses an output path no write can succeed on — a directory, or a file
/// in a directory that does not exist — before the run, so a long run does
/// not discard its work at the end. A path can still fail when it is
/// written (permissions, a full disk); the writers report that.
fn check_output_path(path: &str) -> Result<(), String> {
    let file = Path::new(path);
    if file.is_dir() {
        return Err(format!("cannot write {path}: it is a directory"));
    }
    let dir = match file.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    if !dir.is_dir() {
        return Err(format!(
            "cannot write {path}: directory {} does not exist",
            dir.display()
        ));
    }
    Ok(())
}

/// Runs a mode's workload inside an observability session when any
/// consumer asked for one — a trace, a counters log, or the perf record
/// (whose tail carries the counter registry) — and writes the requested
/// exports; the self-time profile prints whenever tracing was on. The
/// session finishes before the serial baseline runs, so it covers exactly
/// the run whose wall time the record reports. Spans and counters recorded
/// outside a session are dropped at near-zero cost, so the un-flagged
/// paths stay unobserved. The `Err` is the exit code of a failed run.
fn observed<R>(
    args: &Args,
    what: &str,
    run: impl FnOnce() -> liquamod::Result<R>,
) -> Result<(R, Option<ObsReport>), ExitCode> {
    let fail = |message: String| {
        eprintln!("{message}");
        ExitCode::FAILURE
    };
    let session = (args.trace.is_some() || args.counters.is_some() || args.json.is_some())
        .then(ObsSession::start);
    let report = run().map_err(|e| fail(format!("{what} failed: {e}")))?;
    let Some(session) = session else {
        return Ok((report, None));
    };
    let obs = session.finish();
    let write = |path: &str, contents: String| {
        std::fs::write(path, contents).map_err(|e| fail(format!("error: cannot write {path}: {e}")))
    };
    if let Some(path) = &args.trace {
        write(path, obs.to_chrome_trace())?;
        println!("wrote Perfetto-loadable trace to {path}");
        print_table(&obs.self_time_table());
    }
    if let Some(path) = &args.counters {
        write(path, obs.to_jsonl())?;
        println!("wrote deterministic observability log to {path}");
    }
    Ok((report, Some(obs)))
}

fn report_stats(label: &str, report: &SweepReport) {
    println!(
        "{label}: {} variants in {:.2} s on {} worker(s) — {:.2} variants/s, {} evaluations",
        report.rows.len(),
        report.wall.as_secs_f64(),
        report.workers,
        report.throughput_per_second(),
        report.total_evaluations(),
    );
}

/// A record's members, in order.
type Members = Vec<(&'static str, Json)>;

/// Renders a BENCH record: the bench name and schema version, the mode's
/// `header` members (grid, stack and clock), the shared run-stats `tail`
/// ([`record_tail`]), then the mode's results — the `variants` rows, or
/// serve's gate and soak blocks. docs/PERFORMANCE.md lists every record's
/// schema and how the CI bench-smoke job consumes it.
fn record(bench: &str, schema: usize, header: Members, tail: Members, variants: Members) -> String {
    let head = [("bench", bench.into()), ("schema_version", schema.into())];
    Json::object(head.into_iter().chain(header).chain(tail).chain(variants)).to_document()
}

/// The run-stats tail every record shares: worker count, the core count
/// the box actually had (so downstream gates can judge the speedup against
/// the hardware, not against an assumption), fast-mode flag, wall time,
/// the serial baseline + speedup when one ran, the determinism flag (set
/// exactly when the serial baseline ran and matched), and the
/// observability counter registry of the run (present whenever an obs
/// session ran, i.e. always under `--json`).
fn record_tail(
    workers: usize,
    wall: Duration,
    serial_wall: Option<Duration>,
    obs: Option<&ObsReport>,
) -> Members {
    let mut tail: Members = vec![
        ("workers", workers.into()),
        ("available_cores", available_cores().into()),
        ("fast_mode", liquamod_bench::fast_mode().into()),
        ("wall_seconds", Json::fixed(wall.as_secs_f64(), 6)),
    ];
    if let Some(serial) = serial_wall {
        let speedup = serial.as_secs_f64() / wall.as_secs_f64().max(1e-12);
        tail.push(("serial_wall_seconds", Json::fixed(serial.as_secs_f64(), 6)));
        tail.push(("parallel_speedup", Json::fixed(speedup, 4)));
    }
    tail.push(("determinism_verified", serial_wall.is_some().into()));
    if let Some(report) = obs {
        tail.push(("counters", report.counters_value()));
    }
    tail
}

/// The `variants` member of a record: one row object per variant.
fn variants(rows: impl Iterator<Item = Json>) -> Members {
    vec![("variants", Json::Array(rows.collect()))]
}

/// A record's `grid` member: the variant count and each axis's length.
fn grid_member(axes: &[(&'static str, usize)]) -> (&'static str, Json) {
    let axes = axes.iter().map(|&(name, n)| (name, n.into()));
    ("grid", Json::object(axes))
}

/// The `stack` header member of the full-chip records.
fn stack_member(config: &liquamod::MpsocConfig) -> (&'static str, Json) {
    let stack = [
        ("nx", config.nx.into()),
        ("nz", config.nz.into()),
        ("n_groups", config.n_groups.into()),
    ];
    ("stack", Json::object(stack))
}

/// A fleet's stack labels, as the fleet and faults records list them.
fn fleet_labels(stacks: &[StackSpec]) -> Json {
    Json::Array(stacks.iter().map(|s| s.label().into()).collect())
}

/// A value's `Debug` form as a record string (epoch and budget policies).
fn debug_string(value: &impl std::fmt::Debug) -> Json {
    format!("{value:?}").into()
}

/// Numbers with 6 fixed-point decimals, the records' default precision.
fn fixed6(v: f64) -> Json {
    Json::fixed(v, 6)
}

/// An array of [`fixed6`] numbers (allocations, budget scales,
/// per-wavefront walls).
fn fixed6_array(values: &[f64]) -> Json {
    Json::Array(values.iter().copied().map(fixed6).collect())
}

/// The core count this box actually has, as the records report it: the
/// detected parallelism, 1 when detection fails. CI's speedup gates read
/// this back to judge `parallel_speedup` against the hardware — on a 1- or
/// 2-core runner the parallel run cannot beat serial, only match it.
fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Scheduling mode shared by both sweeps: serial on request, otherwise
/// parallel with at least 2 workers — even on a single-core box the
/// dynamic scheduler interleaves two workers correctly (and the report is
/// honest about the cores actually available).
fn execution_mode(args: &Args, available: usize) -> ExecutionMode {
    if args.serial {
        ExecutionMode::Serial
    } else {
        let workers = args.workers.or_else(|| NonZeroUsize::new(available.max(2)));
        ExecutionMode::Parallel { workers }
    }
}

/// What a strictly-beats-baseline gate compares, for its messages: the
/// candidate metric that must stay strictly below the baseline metric.
struct GateNames {
    /// The metric under test, e.g. "modulated time-peak gradient".
    candidate: &'static str,
    /// What it must strictly undercut, e.g. "frozen uniform-width baseline".
    baseline: &'static str,
}

/// The `transient` and `mpsoc` gate: every modulated run strictly below
/// its frozen uniform-width baseline.
const MODULATED_GATE: GateNames = GateNames {
    candidate: "modulated time-peak gradient",
    baseline: "frozen uniform-width baseline",
};

/// The strictly-beats-baseline gate of the `transient`, `mpsoc` and
/// `fleet` modes over `(label, candidate K, baseline K)` rows. Returns the
/// failure message, if any.
fn beats_baseline(
    gate: &GateNames,
    rows: impl IntoIterator<Item = (String, f64, f64)>,
) -> Option<String> {
    if let Some((label, candidate, baseline)) = rows
        .into_iter()
        .find(|(_, candidate, baseline)| candidate >= baseline)
    {
        return Some(format!(
            "{label}: {} did not beat the {} \
             ({candidate:.3} K vs {baseline:.3} K)",
            gate.candidate, gate.baseline
        ));
    }
    println!(
        "every variant: {} strictly below the {}",
        gate.candidate, gate.baseline
    );
    None
}

/// Shared tail of every mode: the serial reference run (unless `--serial`
/// or `--no-baseline`), whose rows must equal the parallel report's
/// bitwise, then the mode's acceptance `gate`, then the JSON record
/// `render`ed over the shared [`record_tail`] — written even when a gate
/// failed, because the failing run is exactly the one whose numbers are
/// needed. Returns the process exit code.
// One parameter per closure the report types differ by; bundling them
// into a trait would just move the same names elsewhere.
#[allow(clippy::too_many_arguments)]
fn finish_mode<R>(
    what: &str,
    args: &Args,
    wall: Duration,
    workers: usize,
    obs: Option<&ObsReport>,
    run_serial: impl FnOnce() -> Result<R, String>,
    rows_equal: impl FnOnce(&R) -> bool,
    wall_of: impl Fn(&R) -> Duration,
    gate: impl FnOnce() -> Option<String>,
    render: impl FnOnce(Members) -> String,
) -> ExitCode {
    let mut serial_wall = None;
    let mut failure: Option<String> = None;
    if !args.serial && args.baseline {
        match run_serial() {
            Ok(serial) if rows_equal(&serial) => {
                println!("parallel and serial {what} reports are bitwise identical");
                let speedup = wall_of(&serial).as_secs_f64() / wall.as_secs_f64().max(1e-12);
                println!(
                    "parallel speedup over --serial: {speedup:.2}x with {workers} workers on \
                     {} core(s)",
                    available_cores()
                );
                serial_wall = Some(wall_of(&serial));
            }
            Ok(_) => {
                failure = Some(format!(
                    "parallel and serial {what} reports disagree — determinism bug"
                ));
            }
            Err(e) => failure = Some(e),
        }
    }
    if failure.is_none() {
        failure = gate();
    }
    if let Some(path) = &args.json {
        let record = render(record_tail(workers, wall, serial_wall, obs));
        if let Err(e) = std::fs::write(path, record) {
            // Don't let a write failure swallow an already-detected gate
            // failure — that diagnosis matters more than the record.
            if let Some(gate) = &failure {
                eprintln!("error: {gate}");
            }
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {what} perf record to {path}");
    }
    if let Some(e) = failure {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Shared tail of the `transient` and `mpsoc` modes, after their banner,
/// grid and clock lines: the observed `sweep` at `mode`, its table, the
/// serial reference, the strictly-below-frozen gate and the schema-v2
/// record — the mode's `header` members, then one row per variant.
fn finish_modulation_mode(
    what: &'static str,
    args: &Args,
    mode: ExecutionMode,
    header: Members,
    sweep: impl Fn(ExecutionMode) -> liquamod::Result<ModulationReport>,
) -> ExitCode {
    let (report, obs) = match observed(args, &format!("{what} sweep"), || sweep(mode)) {
        Ok(done) => done,
        Err(code) => return code,
    };
    print_table(&report.to_table());
    println!(
        "{} variants in {:.2} s on {} worker(s)",
        report.rows.len(),
        report.wall.as_secs_f64(),
        report.workers,
    );
    let gate_rows = report.rows.iter().map(|row| {
        let (modulated, frozen) = (row.peak_gradient_modulated_k, row.peak_gradient_frozen_k);
        (row.label.clone(), modulated, frozen)
    });
    let rows = report.rows.iter().map(|row| {
        Json::object([
            ("label", row.label.as_str().into()),
            (
                "peak_gradient_modulated_k",
                fixed6(row.peak_gradient_modulated_k),
            ),
            ("peak_gradient_frozen_k", fixed6(row.peak_gradient_frozen_k)),
            ("gradient_reduction", fixed6(row.gradient_reduction)),
            ("epochs", row.epochs.into()),
            ("epochs_adopted", row.epochs_adopted.into()),
            ("evaluations", row.evaluations.into()),
        ])
    });
    finish_mode(
        what,
        args,
        report.wall,
        report.workers,
        obs.as_ref(),
        || sweep(ExecutionMode::Serial).map_err(|e| format!("serial baseline failed: {e}")),
        |s| s.rows == report.rows,
        |s| s.wall,
        || beats_baseline(&MODULATED_GATE, gate_rows),
        |tail| record(what, 2, header, tail, variants(rows)),
    )
}

/// The transient mode: modulated-vs-frozen trace scenarios through the
/// deterministic parallel fan-out.
fn run_transient_mode(args: &Args) -> ExitCode {
    banner("transient channel modulation: trace x flow-scale grid");
    let grid = TransientGrid::bench_default();
    let available = available_cores();
    let mode = execution_mode(args, available);
    // The epoch optimizer follows LIQUAMOD_FAST like the steady mode (the
    // clock and grid stay fixed), so the JSON's fast_mode flag describes
    // the run truthfully.
    let mut options = TransientSweepOptions::fast(mode);
    options.config.optimizer = liquamod_bench::config_from_env();
    options.config.stepper = args.stepper.clone();
    let steps_per_phase = (options.phase_seconds / options.config.dt_seconds).round() as usize;
    println!(
        "grid: {} variants ({} traces x {} flow scales); {available} core(s) available",
        grid.len(),
        grid.traces.len(),
        grid.flow_scales.len(),
    );
    println!(
        "clock: dt = {:.1} ms, {} steps per {:.0} ms phase, re-optimization epoch every {} steps",
        options.config.dt_seconds * 1e3,
        steps_per_phase,
        options.phase_seconds * 1e3,
        options.epoch_steps,
    );

    // v2: adds the `counters` observability block.
    let header = vec![
        grid_member(&[
            ("variants", grid.len()),
            ("traces", grid.traces.len()),
            ("flow_scales", grid.flow_scales.len()),
        ]),
        ("dt_seconds", Json::scientific(options.config.dt_seconds, 6)),
        ("epoch_steps", options.epoch_steps.into()),
        ("phase_seconds", Json::scientific(options.phase_seconds, 6)),
        ("stepper", stepper_name(&options.config.stepper).into()),
    ];
    finish_modulation_mode("transient", args, mode, header, |mode| {
        run_transient_sweep(
            &grid,
            &TransientSweepOptions {
                mode,
                ..options.clone()
            },
        )
    })
}

/// `LIQUAMOD_FAST=1`'s coarsening of the full-chip stacks, shared by the
/// `mpsoc` and `fleet` modes: the along-flow grid halves and so do the
/// width groups per cavity (the channel count stays, so the modulation
/// picture is preserved at CI cost).
fn coarsen_if_fast(config: &mut liquamod::MpsocConfig) {
    if liquamod_bench::fast_mode() {
        config.nz = 11;
        config.n_groups = 2;
    }
}

/// The MPSoC sweep options the bench runs: the full 100-channel stacks by
/// default; `LIQUAMOD_FAST=1` coarsens them via [`coarsen_if_fast`].
fn mpsoc_options(mode: ExecutionMode) -> MpsocSweepOptions {
    let mut options = MpsocSweepOptions::fast(mode);
    coarsen_if_fast(&mut options.config);
    options
}

/// The mpsoc mode: full-chip modulated-vs-frozen architecture scenarios
/// through the deterministic parallel fan-out.
fn run_mpsoc_mode(args: &Args) -> ExitCode {
    banner("full-chip MPSoC modulation: arch x trace x flow-scale grid");
    let grid = MpsocGrid::bench_default();
    let available = available_cores();
    let mode = execution_mode(args, available);
    let mut options = mpsoc_options(mode);
    options.config.stepper = args.stepper.clone();
    let steps_per_phase = (options.phase_seconds / options.config.dt_seconds).round() as usize;
    println!(
        "grid: {} variants ({} archs x {} traces x {} flow scales); {available} core(s) available",
        grid.len(),
        grid.archs.len(),
        grid.traces.len(),
        grid.flow_scales.len(),
    );
    println!(
        "stack: {} channels x {} cells, {} width groups per cavity, two cavities",
        options.config.nx, options.config.nz, options.config.n_groups,
    );
    match options.policy {
        EpochPolicy::FixedCadence { epoch_steps } => println!(
            "clock: dt = {:.1} ms, {} steps per {:.0} ms phase, re-optimization epoch every {} steps",
            options.config.dt_seconds * 1e3,
            steps_per_phase,
            options.phase_seconds * 1e3,
            epoch_steps,
        ),
        ref policy => println!(
            "clock: dt = {:.1} ms, {} steps per {:.0} ms phase, epoch policy {policy:?}",
            options.config.dt_seconds * 1e3,
            steps_per_phase,
            options.phase_seconds * 1e3,
        ),
    }

    // v2: adds the `counters` observability block.
    let header = vec![
        grid_member(&[
            ("variants", grid.len()),
            ("archs", grid.archs.len()),
            ("traces", grid.traces.len()),
            ("flow_scales", grid.flow_scales.len()),
        ]),
        stack_member(&options.config),
        ("dt_seconds", Json::scientific(options.config.dt_seconds, 6)),
        ("epoch_policy", debug_string(&options.policy)),
        ("phase_seconds", Json::scientific(options.phase_seconds, 6)),
        ("stepper", stepper_name(&options.config.stepper).into()),
    ];
    finish_modulation_mode("mpsoc", args, mode, header, |mode| {
        run_mpsoc_sweep(
            &grid,
            &MpsocSweepOptions {
                mode,
                ..options.clone()
            },
        )
    })
}

/// The fleet mode: several full-chip stacks co-optimized under one shared
/// pump budget, with the three allocation policies head-to-head. Gates
/// twice per variant: waterfill strictly beats uniform, and predictive
/// strictly beats waterfill.
fn run_fleet_mode(args: &Args) -> ExitCode {
    banner("fleet sharding: shared-pump budget x allocation-policy head-to-head");
    let grid = FleetGrid::bench_default();
    let available = available_cores();
    let mode = execution_mode(args, available);
    let mut options = FleetSweepOptions::fast(mode);
    coarsen_if_fast(&mut options.config);
    options.config.stepper = args.stepper.clone();
    let steps_per_phase = (options.phase_seconds / options.config.dt_seconds).round() as usize;
    println!(
        "grid: {} variants ({} stacks x {} pump budgets); {available} core(s) available",
        grid.len(),
        grid.stacks.len(),
        grid.budget_scales.len(),
    );
    println!(
        "fleet: {}",
        grid.stacks
            .iter()
            .map(StackSpec::label)
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "stack: {} channels x {} cells, {} width groups per cavity, two cavities",
        options.config.nx, options.config.nz, options.config.n_groups,
    );
    println!(
        "clock: dt = {:.1} ms, {} steps per {:.0} ms phase, {} reallocation segment(s) per phase, \
         epoch policy {:?}",
        options.config.dt_seconds * 1e3,
        steps_per_phase,
        options.phase_seconds * 1e3,
        options.segments_per_phase,
        options.policy,
    );

    let (report, obs) = match observed(args, "fleet sweep", || run_fleet_sweep(&grid, &options)) {
        Ok(done) => done,
        Err(code) => return code,
    };
    print_table(&report.to_table());
    println!(
        "{} variants in {:.2} s on {} worker(s)",
        report.rows.len(),
        report.wall.as_secs_f64(),
        report.workers,
    );

    let serial_options = FleetSweepOptions {
        mode: ExecutionMode::Serial,
        ..options.clone()
    };
    // Two gate rows per variant: the reactive allocator must beat static
    // provisioning, and the one-step MPC must beat the reactive allocator.
    let gate_rows = report.rows.iter().flat_map(|row| {
        let label = row.variant.label();
        [
            (
                format!("{label} waterfill-vs-uniform"),
                row.worst_gradient_waterfill_k,
                row.worst_gradient_uniform_k,
            ),
            (
                format!("{label} predictive-vs-waterfill"),
                row.worst_gradient_predictive_k,
                row.worst_gradient_waterfill_k,
            ),
        ]
    });
    let gate = GateNames {
        candidate: "candidate policy's worst-stack time-peak gradient",
        baseline: "policy one rung down the ladder",
    };
    // v2: adds `stepper` and `segment_wall_seconds` (the per-wavefront
    // serial critical path of the segment-level scheduler).
    // v4: adds the `counters` observability block.
    // v5: the policy ladder grows to four — adds the per-variant predictive
    // fields (`worst_gradient_predictive_k`, `predictive_reduction`,
    // `predictive_margin`, `predictive_final_allocation`) and the
    // surrogate-fit diagnostics (`predictive_forecast_hits`,
    // `predictive_surrogate_refits`,
    // `predictive_mean_abs_slope_k_per_scale`).
    // v6: the greedy policy is gone — drops `worst_gradient_greedy_k` and
    // `greedy_reduction`.
    let header = vec![
        grid_member(&[
            ("variants", grid.len()),
            ("stacks", grid.stacks.len()),
            ("budget_scales", grid.budget_scales.len()),
        ]),
        stack_member(&options.config),
        ("fleet", fleet_labels(&grid.stacks)),
        ("budget_scales", fixed6_array(&grid.budget_scales)),
        ("dt_seconds", Json::scientific(options.config.dt_seconds, 6)),
        ("epoch_policy", debug_string(&options.policy)),
        ("phase_seconds", Json::scientific(options.phase_seconds, 6)),
        ("segments_per_phase", options.segments_per_phase.into()),
        ("stepper", stepper_name(&options.config.stepper).into()),
        (
            "segment_wall_seconds",
            fixed6_array(&report.segment_wall_seconds),
        ),
    ];
    let rows = report.rows.iter().map(|row| {
        Json::object([
            ("label", row.variant.label().into()),
            (
                "worst_gradient_uniform_k",
                fixed6(row.worst_gradient_uniform_k),
            ),
            (
                "worst_gradient_waterfill_k",
                fixed6(row.worst_gradient_waterfill_k),
            ),
            (
                "worst_gradient_predictive_k",
                fixed6(row.worst_gradient_predictive_k),
            ),
            ("waterfill_reduction", fixed6(row.waterfill_reduction)),
            ("predictive_reduction", fixed6(row.predictive_reduction)),
            ("predictive_margin", fixed6(row.predictive_margin)),
            (
                "waterfill_final_allocation",
                fixed6_array(&row.waterfill_final_allocation),
            ),
            (
                "predictive_final_allocation",
                fixed6_array(&row.predictive_final_allocation),
            ),
            (
                "predictive_forecast_hits",
                row.predictive_forecast_hits.into(),
            ),
            (
                "predictive_surrogate_refits",
                row.predictive_surrogate_refits.into(),
            ),
            (
                "predictive_mean_abs_slope_k_per_scale",
                fixed6(row.predictive_mean_abs_slope_k_per_scale),
            ),
            ("evaluations", row.evaluations.into()),
        ])
    });
    finish_mode(
        "fleet",
        args,
        report.wall,
        report.workers,
        obs.as_ref(),
        || {
            run_fleet_sweep(&grid, &serial_options)
                .map_err(|e| format!("serial baseline failed: {e}"))
        },
        |s| s.rows == report.rows,
        |s| s.wall,
        || beats_baseline(&gate, gate_rows),
        |tail| record("fleet", 6, header, tail, variants(rows)),
    )
}

/// The faults mode's robustness gate: per scenario, the fault-aware
/// controller strictly beats the fault-oblivious baseline on the
/// worst-stack time-peak gradient; per *fault* scenario, the degraded run
/// stays within the declared excursion bound of the healthy reference and
/// surfaces at least one structured degraded-mode event. Returns the
/// failure message, if any.
fn faults_gate(report: &FaultsReport) -> Option<String> {
    let Some(healthy) = report.healthy_reference_k() else {
        return Some("faults grid has no healthy reference scenario".into());
    };
    for row in &report.rows {
        let label = row.scenario.label();
        let aware = row.aware_worst_gradient_k();
        let oblivious = row.oblivious_worst_gradient_k();
        if aware >= oblivious {
            return Some(format!(
                "{label}: the fault-aware controller did not strictly beat the \
                 fault-oblivious baseline ({aware:.3} K vs {oblivious:.3} K)"
            ));
        }
        if row.scenario != FaultScenario::Healthy {
            let bound = report.excursion_bound * healthy;
            if aware > bound {
                return Some(format!(
                    "{label}: degraded worst-stack gradient {aware:.3} K exceeds the \
                     {:.1}x excursion bound over the healthy run ({bound:.3} K)",
                    report.excursion_bound
                ));
            }
            if row.aware.degraded.is_empty() {
                return Some(format!(
                    "{label}: the fault-aware run surfaced no degraded-mode events"
                ));
            }
        }
    }
    println!(
        "every scenario: fault-aware strictly beats fault-oblivious, within the {:.1}x \
         excursion bound of the healthy run, with degraded-mode events surfaced",
        report.excursion_bound
    );
    None
}

/// The faults mode: the fleet through adversarial operating scenarios,
/// fault-aware vs fault-oblivious.
fn run_faults_mode(args: &Args) -> ExitCode {
    banner("fault injection: scenario grid, fault-aware vs fault-oblivious");
    // All three architectures through the same average→peak burst, the
    // fleet BENCH_faults.json and its gate were recorded on. Not the fleet
    // bench's migrating-peak fleet: on its healthy row, at the nominal
    // budget, the reactive allocator loses to the uniform split.
    let stacks: Vec<StackSpec> = ArchSpec::all()
        .into_iter()
        .map(|arch| StackSpec {
            arch,
            trace: MpsocTraceSpec::avg_to_peak(),
        })
        .collect();
    let available = available_cores();
    let mode = execution_mode(args, available);
    let mut options = FaultsSweepOptions::fast(stacks.len(), mode);
    coarsen_if_fast(&mut options.fleet.config);
    options.fleet.config.stepper = args.stepper.clone();
    let fleet = &options.fleet;
    let steps_per_phase = (fleet.phase_seconds / fleet.config.dt_seconds).round() as usize;
    println!(
        "grid: {} scenarios x {{aware, oblivious}} over a {}-stack fleet; \
         {available} core(s) available",
        options.scenarios.len(),
        stacks.len(),
    );
    println!(
        "fleet: {}",
        stacks
            .iter()
            .map(StackSpec::label)
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "stack: {} channels x {} cells, {} width groups per cavity, two cavities",
        fleet.config.nx, fleet.config.nz, fleet.config.n_groups,
    );
    println!(
        "clock: dt = {:.1} ms, {} steps per {:.0} ms phase, {} reallocation segment(s) per \
         phase, epoch policy {:?}, fault seed {}",
        fleet.config.dt_seconds * 1e3,
        steps_per_phase,
        fleet.phase_seconds * 1e3,
        fleet.segments_per_phase,
        fleet.policy,
        options.seed,
    );

    let (report, obs) = match observed(args, "faults sweep", || run_faults_sweep(&stacks, &options))
    {
        Ok(done) => done,
        Err(code) => return code,
    };
    print_table(&report.to_table());
    println!(
        "{} scenarios in {:.2} s on {} worker(s)",
        report.rows.len(),
        report.wall.as_secs_f64(),
        report.workers,
    );

    let mut serial_options = options.clone();
    serial_options.fleet.mode = ExecutionMode::Serial;
    // v2: adds the `counters` observability block.
    let header = vec![
        grid_member(&[("scenarios", report.rows.len()), ("stacks", stacks.len())]),
        stack_member(&fleet.config),
        ("fleet", fleet_labels(&stacks)),
        ("seed", options.seed.into()),
        ("excursion_bound", fixed6(report.excursion_bound)),
        ("dt_seconds", Json::scientific(fleet.config.dt_seconds, 6)),
        ("epoch_policy", debug_string(&fleet.policy)),
        ("phase_seconds", Json::scientific(fleet.phase_seconds, 6)),
        ("segments_per_phase", fleet.segments_per_phase.into()),
        ("stepper", stepper_name(&fleet.config.stepper).into()),
    ];
    let rows = report.rows.iter().map(|row| {
        let aware = row.aware_worst_gradient_k();
        let oblivious = row.oblivious_worst_gradient_k();
        let kinds: BTreeSet<&str> = row.aware.degraded.iter().map(|e| e.kind.label()).collect();
        Json::object([
            ("label", row.scenario.label().into()),
            ("worst_gradient_aware_k", fixed6(aware)),
            ("worst_gradient_oblivious_k", fixed6(oblivious)),
            (
                "aware_margin",
                fixed6((oblivious - aware) / oblivious.max(1e-12)),
            ),
            (
                "peak_temperature_aware_k",
                fixed6(row.aware.peak_temperature_k()),
            ),
            ("degraded_events", row.aware.degraded.len().into()),
            (
                "degraded_kinds",
                Json::Array(kinds.into_iter().map(Json::from).collect()),
            ),
            ("evaluations_aware", row.aware.total_evaluations().into()),
            (
                "evaluations_oblivious",
                row.oblivious.total_evaluations().into(),
            ),
        ])
    });
    finish_mode(
        "faults",
        args,
        report.wall,
        report.workers,
        obs.as_ref(),
        || {
            run_faults_sweep(&stacks, &serial_options)
                .map_err(|e| format!("serial baseline failed: {e}"))
        },
        |s| s.rows == report.rows,
        |s| s.wall,
        || faults_gate(&report),
        |tail| record("faults", 2, header, tail, variants(rows)),
    )
}

/// The serve mode's acceptance gates, short of the soak determinism check
/// (which rides the shared serial-baseline machinery): streamed == one-shot
/// bitwise, and the restored continuation within 1e-9 K of the
/// uninterrupted stream with a byte-identical JSON round trip. Returns the
/// failure message, if any.
fn serve_gate(identity: &StreamingIdentity, fidelity: &SnapshotFidelity) -> Option<String> {
    if !identity.bitwise {
        return Some(format!(
            "streamed trajectory diverged from the one-shot run by {:.3e} K \
             over {} steps — the streaming path must be bitwise identical",
            identity.max_abs_diff_k, identity.steps
        ));
    }
    println!(
        "streaming identity: {} steps, {} epochs — bitwise identical to the one-shot run",
        identity.steps, identity.epochs
    );
    if !fidelity.json_round_trip {
        return Some("the session snapshot document did not re-serialize byte-identically".into());
    }
    // `>` plus an explicit NaN check rather than `!(x <= 1e-9)`: a NaN
    // divergence must fail the gate, not slip through a negated compare.
    if fidelity.max_abs_diff_k > 1e-9 || fidelity.max_abs_diff_k.is_nan() {
        return Some(format!(
            "restored continuation diverged from the uninterrupted stream by {:.3e} K \
             (gate: 1e-9 K)",
            fidelity.max_abs_diff_k
        ));
    }
    println!(
        "snapshot/restore: {} steps through a {}-byte golden document — \
         round trip byte-identical, continuation {}",
        fidelity.steps,
        fidelity.snapshot_bytes,
        if fidelity.bitwise {
            "bitwise".to_string()
        } else {
            format!("within {:.3e} K", fidelity.max_abs_diff_k)
        }
    );
    None
}

/// The serve mode: streaming-vs-one-shot identity, snapshot/restore
/// fidelity, then a churning multi-session soak gated on parallel
/// determinism.
fn run_serve_mode(args: &Args) -> ExitCode {
    banner("streaming modulation service: identity, snapshot/restore, churn soak");
    let plan = SoakPlan::bench_default();
    let available = available_cores();
    let workers = if args.serial {
        1
    } else {
        args.workers.map_or(available.max(2), NonZeroUsize::get)
    };
    let mut config = liquamod::MpsocConfig::fast();
    coarsen_if_fast(&mut config);
    config.stepper = args.stepper.clone();
    let steps_per_phase = (plan.phase_seconds / config.dt_seconds).round() as usize;
    // The epoch cadence divides the phase length so streamed segment
    // boundaries land exactly on one-shot epoch steps — the precondition
    // for the bitwise identity gate.
    let policy = ModulationPolicy::every(steps_per_phase / 2);
    let options = ServeOptions {
        config: config.clone(),
        policy,
        budget_policy: BudgetPolicy::GradientWaterfill,
        avg_scale: 1.0,
        planned_capacity: plan.sessions.len(),
        workers,
    };
    println!(
        "plan: {} sessions x {} phases, {} up front then {} per batch, restore churn at \
         batch {:?}; {available} core(s) available",
        plan.sessions.len(),
        plan.phases_per_session,
        plan.initial_sessions,
        plan.arrivals_per_batch,
        plan.restore_at_batch,
    );
    println!(
        "stack: {} channels x {} cells, {} width groups per cavity, two cavities",
        config.nx, config.nz, config.n_groups,
    );
    println!(
        "clock: dt = {:.1} ms, {steps_per_phase} steps per {:.0} ms phase, epoch policy \
         {policy:?}, budget policy {:?} over a {}-session provisioning",
        config.dt_seconds * 1e3,
        plan.phase_seconds * 1e3,
        options.budget_policy,
        options.planned_capacity,
    );

    let levels: Vec<PowerLevel> = (0..plan.phases_per_session).map(soak_level).collect();
    let identity = match verify_streaming_identity(
        &config,
        policy,
        plan.sessions[0],
        &levels[..2.min(levels.len())],
        plan.phase_seconds,
    ) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("streaming identity check failed to run: {e}");
            return ExitCode::FAILURE;
        }
    };
    let fidelity = match verify_snapshot_restore(
        &config,
        policy,
        plan.sessions[1],
        &levels,
        plan.phase_seconds,
    ) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("snapshot/restore check failed to run: {e}");
            return ExitCode::FAILURE;
        }
    };

    let (outcome, obs) = match observed(args, "serve soak", || run_soak(&options, &plan)) {
        Ok(done) => done,
        Err(code) => return code,
    };
    println!(
        "soak: {} decisions over {} batches in {:.2} s on {} worker(s) — {:.2} decisions/s, \
         {} sessions served, {} degraded events",
        outcome.decisions.len(),
        outcome.batches,
        outcome.wall_seconds,
        options.workers,
        outcome.decisions_per_second(),
        outcome.sessions_served,
        outcome.metrics.degraded_events,
    );

    let serial_options = ServeOptions {
        workers: 1,
        ..options.clone()
    };
    // v2: adds the `counters` observability block.
    let header = vec![
        (
            "plan",
            Json::object([
                ("sessions", plan.sessions.len().into()),
                ("phases_per_session", plan.phases_per_session.into()),
                ("initial_sessions", plan.initial_sessions.into()),
                ("arrivals_per_batch", plan.arrivals_per_batch.into()),
                ("restore_at_batch", plan.restore_at_batch.into()),
            ]),
        ),
        stack_member(&config),
        ("phase_seconds", Json::scientific(plan.phase_seconds, 6)),
        ("dt_seconds", Json::scientific(config.dt_seconds, 6)),
        ("epoch_policy", debug_string(&policy)),
        ("budget_policy", debug_string(&options.budget_policy)),
        ("planned_capacity", options.planned_capacity.into()),
        ("stepper", stepper_name(&config.stepper).into()),
    ];
    let latency = &outcome.metrics.latency;
    let per_second = |v: f64| Json::fixed(v, 4);
    let seconds = |v: f64| Json::scientific(v, 6);
    let kinds = outcome.event_kind_counts().into_iter();
    let results = vec![
        (
            "streaming_identity",
            Json::object([
                ("steps", identity.steps.into()),
                ("epochs", identity.epochs.into()),
                ("bitwise", identity.bitwise.into()),
                (
                    "max_abs_diff_k",
                    Json::scientific(identity.max_abs_diff_k, 3),
                ),
            ]),
        ),
        (
            "snapshot_restore",
            Json::object([
                ("steps", fidelity.steps.into()),
                ("bitwise", fidelity.bitwise.into()),
                ("json_round_trip", fidelity.json_round_trip.into()),
                (
                    "max_abs_diff_k",
                    Json::scientific(fidelity.max_abs_diff_k, 3),
                ),
                ("snapshot_bytes", fidelity.snapshot_bytes.into()),
            ]),
        ),
        (
            "soak",
            Json::object([
                ("decisions", outcome.decisions.len().into()),
                ("batches", outcome.batches.into()),
                ("sessions_served", outcome.sessions_served.into()),
                ("snapshots", outcome.snapshots.len().into()),
                ("epochs", outcome.metrics.epochs.into()),
                ("evaluations", outcome.metrics.evaluations.into()),
                ("degraded_events", outcome.metrics.degraded_events.into()),
                ("peak_gradient_k", fixed6(outcome.peak_gradient_k())),
                (
                    "decisions_per_second",
                    per_second(outcome.decisions_per_second()),
                ),
                (
                    "sessions_per_second",
                    per_second(outcome.sessions_per_second()),
                ),
                (
                    "decisions_per_second_per_core",
                    per_second(outcome.decisions_per_second() / available as f64),
                ),
                (
                    "event_kinds",
                    Json::object(kinds.map(|(k, n)| (k, n.into()))),
                ),
            ]),
        ),
        (
            "decision_latency",
            Json::object([
                ("samples", latency.count().into()),
                ("mean_seconds", seconds(latency.mean_seconds())),
                ("p50_seconds", seconds(latency.quantile(0.5))),
                ("p99_seconds", seconds(latency.quantile(0.99))),
                ("min_seconds", seconds(latency.min_seconds())),
                ("max_seconds", seconds(latency.max_seconds())),
            ]),
        ),
    ];
    finish_mode(
        "serve",
        args,
        Duration::from_secs_f64(outcome.wall_seconds),
        options.workers,
        obs.as_ref(),
        || run_soak(&serial_options, &plan).map_err(|e| format!("serial soak failed: {e}")),
        |s| soak_outcomes_match(s, &outcome),
        |s| Duration::from_secs_f64(s.wall_seconds),
        || serve_gate(&identity, &fidelity),
        |tail| record("serve", 2, header, tail, results),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.mode == Mode::Transient {
        return run_transient_mode(&args);
    }
    if args.mode == Mode::Mpsoc {
        return run_mpsoc_mode(&args);
    }
    if args.mode == Mode::Fleet {
        return run_fleet_mode(&args);
    }
    if args.mode == Mode::Faults {
        return run_faults_mode(&args);
    }
    if args.mode == Mode::Serve {
        return run_serve_mode(&args);
    }

    banner("scenario sweep: workload x flux-scale x flow-scale grid");
    let grid = SweepGrid::paper_neighborhood();
    let config = liquamod_bench::config_from_env();
    let available = available_cores();
    println!(
        "grid: {} variants ({} loads x {} flux scales x {} flow scales); {available} core(s) available",
        grid.len(),
        grid.loads.len(),
        grid.flux_scales.len(),
        grid.flow_scales.len(),
    );
    let mode = execution_mode(&args, available);
    let options = SweepOptions {
        config,
        ..SweepOptions::fast(mode)
    };

    let (report, obs) = match observed(&args, "sweep", || run_sweep(&grid, &options)) {
        Ok(done) => done,
        Err(code) => return code,
    };
    print_table(&report.to_table());
    if let Some(best) = report.best_by_gradient() {
        println!(
            "best variant: {} — optimal gradient {:.3} K ({:.1}% below its best uniform baseline)\n",
            best.variant.label(),
            best.gradient_opt_k,
            best.gradient_reduction * 100.0,
        );
    }

    let main_label = if args.serial { "serial" } else { "parallel" };
    report_stats(main_label, &report);

    let serial_options = SweepOptions {
        mode: ExecutionMode::Serial,
        ..options.clone()
    };
    // v2: adds the `counters` observability block.
    // v3: drops `warm_start` (every run chains warm starts).
    let header = vec![grid_member(&[
        ("variants", grid.len()),
        ("loads", grid.loads.len()),
        ("flux_scales", grid.flux_scales.len()),
        ("flow_scales", grid.flow_scales.len()),
    ])];
    let rows = report.rows.iter().map(|row| {
        Json::object([
            ("label", row.variant.label().into()),
            ("evaluations", row.evaluations.into()),
            ("gradient_opt_k", fixed6(row.gradient_opt_k)),
            ("gradient_reduction", fixed6(row.gradient_reduction)),
            ("feasible", row.feasible.into()),
        ])
    });
    finish_mode(
        "sweep",
        &args,
        report.wall,
        report.workers,
        obs.as_ref(),
        || {
            let serial = run_sweep(&grid, &serial_options)
                .map_err(|e| format!("serial baseline failed: {e}"))?;
            report_stats("serial baseline (--serial)", &serial);
            Ok(serial)
        },
        |s| s.rows == report.rows,
        |s| s.wall,
        // The steady mode gates on determinism only.
        || None,
        |mut tail| {
            // The steady record predates the shared tail: it reports its
            // throughput right after the wall time.
            let throughput = Json::fixed(report.throughput_per_second(), 4);
            tail.insert(4, ("throughput_variants_per_second", throughput));
            tail.insert(5, ("total_evaluations", report.total_evaluations().into()));
            record("sweep", 3, header, tail, variants(rows))
        },
    )
}
