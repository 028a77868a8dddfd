//! Parallel scenario-sweep engine: batch design-space exploration.
//!
//! The paper evaluates a handful of hand-picked scenarios; this module
//! turns the one-shot reproduction into a throughput-oriented explorer. A
//! [`SweepGrid`] spans the cartesian product of workload, heat-flux-scale
//! and flow-rate axes; [`run_sweep`] fans the variants out across worker
//! threads (or runs them serially for baselining) and collects one
//! [`SweepRow`] of thermal-balance metrics per variant into a single
//! comparable [`SweepReport`].
//!
//! Guarantees:
//!
//! * **Determinism** — results are independent of the execution mode and
//!   worker count: every variant evaluation is a pure function of its
//!   inputs, and `fd_threads` is pinned to 1 inside the sweep so the
//!   scenario-level parallelism owns the cores. Parallel and serial runs
//!   produce bitwise-identical rows. Warm starting keeps the guarantee
//!   because the scheduling unit is a whole flow-scale chain (see
//!   [`run_sweep`]).
//! * **Stable ordering** — rows come back in grid order (loads outermost,
//!   then flux scales, then flow scales) regardless of which worker
//!   finished first.
//! * **Warm-started chains** — within one (load, flux) block the optimizer
//!   starts from the previous flow scale's optimum, which typically
//!   converges in a fraction of the evaluations a cold start needs (the
//!   paper starts every design from the uniformly-maximal widths) while
//!   landing on the same optimum within the solver's tolerances.
//!
//! ```
//! use liquamod::prelude::*;
//! use liquamod::sweep::{run_sweep, ExecutionMode, LoadSpec, SweepGrid, SweepOptions};
//!
//! let grid = SweepGrid {
//!     loads: vec![LoadSpec::TestA],
//!     flux_scales: vec![1.0],
//!     flow_scales: vec![1.0, 1.25],
//! };
//! let mut options = SweepOptions::fast(ExecutionMode::parallel());
//! options.config.segments = 2;
//! options.config.mesh_intervals = 32;
//! let report = run_sweep(&grid, &options)?;
//! assert_eq!(report.rows.len(), 2);
//! // More coolant flow never hurts the gradient-optimal design.
//! assert!(report.rows[1].gradient_opt_k <= report.rows[0].gradient_opt_k * 1.05);
//! # Ok::<(), liquamod::CoreError>(())
//! ```

use crate::compare::DesignComparison;
use crate::design::OptimizationConfig;
use crate::obs;
use crate::scenario::strip_model;
use crate::{CoreError, CsvTable, Result};
use liquamod_floorplan::testcase::{self, StripLoad};
use liquamod_thermal_model::ModelParams;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Which workload a sweep variant evaluates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadSpec {
    /// The paper's Test A: uniform 50 W/cm² on both layers.
    TestA,
    /// The paper's Test B with an explicit seed: random 50–250 W/cm²
    /// segments on both layers.
    TestB {
        /// Seed of the deterministic segment draw.
        seed: u64,
    },
}

impl LoadSpec {
    /// Short label used in report rows.
    pub fn label(&self) -> String {
        match self {
            LoadSpec::TestA => "testA".to_string(),
            LoadSpec::TestB { seed } => format!("testB#{seed:x}"),
        }
    }

    /// Materializes the strip load, with every segment flux multiplied by
    /// `flux_scale`.
    pub fn strip_load(&self, flux_scale: f64) -> StripLoad {
        let mut load = match self {
            LoadSpec::TestA => testcase::test_a(),
            LoadSpec::TestB { seed } => testcase::test_b_seeded(*seed, testcase::TEST_B_SEGMENTS),
        };
        if flux_scale != 1.0 {
            for q in load
                .top_w_cm2
                .iter_mut()
                .chain(load.bottom_w_cm2.iter_mut())
            {
                *q *= flux_scale;
            }
        }
        load
    }
}

/// The axes of a sweep; variants are the cartesian product.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    /// Workloads to evaluate.
    pub loads: Vec<LoadSpec>,
    /// Multipliers applied to every segment heat flux.
    pub flux_scales: Vec<f64>,
    /// Multipliers applied to the per-channel coolant flow rate.
    pub flow_scales: Vec<f64>,
}

impl SweepGrid {
    /// A 16-variant neighborhood of the paper's operating point: Test A and
    /// two Test-B draws × two flux levels plus a flow ladder. The default
    /// grid of the `sweep` binary.
    #[must_use]
    pub fn paper_neighborhood() -> Self {
        Self {
            loads: vec![
                LoadSpec::TestA,
                LoadSpec::TestB {
                    seed: testcase::TEST_B_DEFAULT_SEED,
                },
            ],
            flux_scales: vec![0.75, 1.0],
            flow_scales: vec![0.5, 0.75, 1.0, 1.5],
        }
    }

    /// Number of variants in the grid.
    #[must_use]
    pub fn len(&self) -> usize {
        self.loads.len() * self.flux_scales.len() * self.flow_scales.len()
    }

    /// `true` when any axis is empty (no variants).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid into concrete variants, in stable report order:
    /// loads outermost, then flux scales, then flow scales.
    #[must_use]
    pub fn variants(&self) -> Vec<SweepVariant> {
        let mut out = Vec::with_capacity(self.len());
        for load in &self.loads {
            for &flux_scale in &self.flux_scales {
                for &flow_scale in &self.flow_scales {
                    out.push(SweepVariant {
                        index: out.len(),
                        load: load.clone(),
                        flux_scale,
                        flow_scale,
                    });
                }
            }
        }
        out
    }
}

/// One concrete point of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepVariant {
    /// Position in grid order (also the row position in the report).
    pub index: usize,
    /// Workload.
    pub load: LoadSpec,
    /// Heat-flux multiplier.
    pub flux_scale: f64,
    /// Flow-rate multiplier.
    pub flow_scale: f64,
}

impl SweepVariant {
    /// Human-readable variant label, e.g. `testA q*0.75 f*1.50`.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{} q*{:.2} f*{:.2}",
            self.load.label(),
            self.flux_scale,
            self.flow_scale
        )
    }
}

/// How the sweep schedules its variant evaluations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// One variant after another on the calling thread (baseline for
    /// speedup measurements; bitwise-identical results to `Parallel`).
    Serial,
    /// Fan out across worker threads. `workers` of `None` uses the
    /// machine's available parallelism.
    Parallel {
        /// Worker-thread count override.
        workers: Option<NonZeroUsize>,
    },
}

impl ExecutionMode {
    /// Parallel mode sized to the machine.
    #[must_use]
    pub fn parallel() -> Self {
        ExecutionMode::Parallel { workers: None }
    }

    /// The worker count this mode resolves to before any grid-size cap:
    /// 1 for serial, the explicit override or the machine's available
    /// parallelism otherwise. Shared by the steady and transient sweeps so
    /// their scheduling can never drift apart.
    #[must_use]
    pub fn resolved_workers(&self) -> usize {
        match self {
            ExecutionMode::Serial => 1,
            ExecutionMode::Parallel { workers } => {
                workers.map(NonZeroUsize::get).unwrap_or_else(|| {
                    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
                })
            }
        }
    }
}

/// Configuration of one sweep run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOptions {
    /// Baseline model parameters each variant perturbs.
    pub params: ModelParams,
    /// Optimizer configuration used for every variant. The sweep pins
    /// `fd_threads` to 1 during evaluation: cores belong to the
    /// scenario-level fan-out, and single-threaded finite differences keep
    /// results independent of the execution mode.
    pub config: OptimizationConfig,
    /// Scheduling mode.
    pub mode: ExecutionMode,
}

impl SweepOptions {
    /// Paper parameters with the fast optimizer configuration and
    /// warm-started flow chains.
    #[must_use]
    pub fn fast(mode: ExecutionMode) -> Self {
        Self {
            params: ModelParams::date2012(),
            config: OptimizationConfig::fast(),
            mode,
        }
    }

    /// The worker count this sweep will actually use.
    pub fn resolved_workers(&self) -> usize {
        self.mode.resolved_workers()
    }
}

/// Thermal-balance metrics of one evaluated variant.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// The variant the metrics belong to.
    pub variant: SweepVariant,
    /// Gradient of the uniformly-minimum-width baseline, kelvin.
    pub gradient_min_k: f64,
    /// Gradient of the uniformly-maximum-width baseline, kelvin.
    pub gradient_max_k: f64,
    /// Gradient of the optimally modulated design, kelvin.
    pub gradient_opt_k: f64,
    /// Gradient reduction vs the best uniform baseline, fraction in [0, 1].
    pub gradient_reduction: f64,
    /// Peak silicon temperature of the optimal design, °C.
    pub peak_opt_celsius: f64,
    /// Largest per-channel pressure drop of the optimal design, bar.
    pub max_pressure_opt_bar: f64,
    /// Pump power of the optimal design, watts.
    pub pump_power_opt_w: f64,
    /// Objective evaluations the optimizer spent.
    pub evaluations: usize,
    /// Whether the optimizer met the pressure constraints.
    pub feasible: bool,
}

impl SweepRow {
    /// Formats the row for [`SweepReport::to_table`].
    fn table_cells(&self) -> Vec<String> {
        vec![
            self.variant.label(),
            format!("{:.3}", self.gradient_min_k),
            format!("{:.3}", self.gradient_max_k),
            format!("{:.3}", self.gradient_opt_k),
            format!("{:.1}", self.gradient_reduction * 100.0),
            format!("{:.2}", self.peak_opt_celsius),
            format!("{:.3}", self.max_pressure_opt_bar),
            format!("{:.4}", self.pump_power_opt_w),
            format!("{}", self.evaluations),
            if self.feasible { "yes" } else { "no" }.to_string(),
        ]
    }
}

/// The collected result of one sweep invocation.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// One row per variant, in grid order.
    pub rows: Vec<SweepRow>,
    /// Worker threads the run actually used: the requested count capped at
    /// the number of flow-scale chains (the unit of scheduling).
    pub workers: usize,
    /// Wall-clock time of the evaluation phase.
    pub wall: Duration,
}

impl SweepReport {
    /// Renders the report as the workspace's standard table format.
    #[must_use]
    pub fn to_table(&self) -> CsvTable {
        let mut table = CsvTable::new(vec![
            "variant",
            "grad min [K]",
            "grad max [K]",
            "grad opt [K]",
            "reduction [%]",
            "peak opt [degC]",
            "max dP opt [bar]",
            "pump opt [W]",
            "evals",
            "feasible",
        ]);
        for row in &self.rows {
            table.push_row(row.table_cells());
        }
        table
    }

    /// The row whose optimal design has the smallest thermal gradient.
    #[must_use]
    pub fn best_by_gradient(&self) -> Option<&SweepRow> {
        self.rows.iter().min_by(|a, b| {
            a.gradient_opt_k
                .partial_cmp(&b.gradient_opt_k)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    /// Evaluated variants per wall-clock second.
    #[must_use]
    pub fn throughput_per_second(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.rows.len() as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    /// Total optimizer objective (BVP) evaluations across all rows.
    #[must_use]
    pub fn total_evaluations(&self) -> usize {
        self.rows.iter().map(|r| r.evaluations).sum()
    }
}

/// Evaluates one variant: perturb the parameters, build the strip model and
/// run the full minimum/maximum/optimal comparison, starting the optimizer
/// from `start` (the uniformly-maximal widths when `None`). Also returns
/// the normalized optimum for chaining into the next variant.
///
/// # Errors
///
/// Propagates model-construction and optimizer failures.
fn solve_variant(
    variant: &SweepVariant,
    params: &ModelParams,
    config: &OptimizationConfig,
    start: Option<&[f64]>,
) -> Result<(SweepRow, Vec<f64>)> {
    let _span = obs::span("sweep.variant");
    if start.is_some() {
        obs::add("optimizer.warm_start_hits", 1);
    }
    let load = variant.load.strip_load(variant.flux_scale);
    // The base parameters are only cloned when the variant actually perturbs
    // them; `strip_model` hands the (possibly borrowed) set to the model.
    let model = if variant.flow_scale == 1.0 {
        strip_model(&load, params)?
    } else {
        let mut scaled = params.clone();
        scaled.flow_rate_per_channel = scaled.flow_rate_per_channel * variant.flow_scale;
        strip_model(&load, &scaled)?
    };
    let cmp = DesignComparison::run_warm(&model, config, start)?;
    obs::add("optimizer.evaluations", cmp.outcome.evaluations as u64);
    let row = SweepRow {
        variant: variant.clone(),
        gradient_min_k: cmp.minimum.gradient_k,
        gradient_max_k: cmp.maximum.gradient_k,
        gradient_opt_k: cmp.optimal.gradient_k,
        gradient_reduction: cmp.gradient_reduction(),
        peak_opt_celsius: cmp.optimal.peak_celsius,
        max_pressure_opt_bar: cmp.optimal.max_pressure_bar,
        pump_power_opt_w: cmp.optimal.pump_power_w,
        evaluations: cmp.outcome.evaluations,
        feasible: cmp.outcome.feasible,
    };
    Ok((row, cmp.outcome.x_opt))
}

/// Evaluates one flow-scale chain of variants in order, threading each
/// optimum into the next variant's start.
fn evaluate_chain(
    chain: &[SweepVariant],
    params: &ModelParams,
    config: &OptimizationConfig,
) -> Vec<Result<SweepRow>> {
    let _span = obs::span("sweep.chain");
    let mut out = Vec::with_capacity(chain.len());
    let mut prev: Option<Vec<f64>> = None;
    for variant in chain {
        match solve_variant(variant, params, config, prev.as_deref()) {
            Ok((row, x_opt)) => {
                prev = Some(x_opt);
                out.push(Ok(row));
            }
            Err(e) => {
                prev = None;
                out.push(Err(e));
            }
        }
    }
    out
}

/// Runs every variant of `grid` under `options` and collects the report.
///
/// Rows come back in grid order whatever the scheduling; parallel and
/// serial runs of the same grid produce bitwise-identical rows (see the
/// module docs for why). Warm starting preserves that guarantee: the unit of
/// scheduling is a whole flow-scale chain (the innermost-axis run of
/// variants sharing a load and flux scale), evaluated sequentially on one
/// worker, so each variant's starting point is independent of the execution
/// mode.
///
/// # Errors
///
/// Every variant is evaluated regardless of failures (so serial and
/// parallel runs behave identically); the sweep then returns the first
/// failure in grid order and discards the partial report.
pub fn run_sweep(grid: &SweepGrid, options: &SweepOptions) -> Result<SweepReport> {
    let variants = grid.variants();
    let workers = options.resolved_workers().max(1);
    // Scenario-level fan-out owns the cores; see `SweepOptions::config`.
    let config = OptimizationConfig {
        fd_threads: 1,
        ..options.config.clone()
    };
    // Grid order is loads → flux → flow, so each chunk of `flow_scales.len()`
    // consecutive variants is one flow-scale chain.
    let chains: Vec<&[SweepVariant]> = variants.chunks(grid.flow_scales.len().max(1)).collect();
    // A whole chain is the unit of scheduling, so more workers than chains
    // can never run; record the count that actually did.
    let workers = if chains.len() <= 1 {
        1
    } else {
        workers.min(chains.len())
    };

    // A chain is labelled by its first variant — enough to identify the
    // scheduling unit in a `WorkerPanicked` report.
    let chain_label = |c: &&[SweepVariant]| {
        c.first()
            .map_or_else(|| "empty chain".to_string(), |v| v.label())
    };
    let eval = |c: &&[SweepVariant]| Ok(evaluate_chain(c, &options.params, &config));
    let start = Instant::now();
    let chain_results = parallel_map(&chains, workers, chain_label, eval);
    let wall = start.elapsed();

    // The first failure in grid order; a panicked chain fails in its place.
    let mut rows = Vec::with_capacity(variants.len());
    for chain in chain_results {
        for row in chain? {
            rows.push(row?);
        }
    }
    Ok(SweepReport {
        rows,
        workers,
        wall,
    })
}

/// Stringifies a worker panic payload — `panic!`/`assert!` carry `&str` or
/// `String`; anything else is reported generically.
fn panic_payload(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Evaluates one scheduling unit behind the panic boundary every fan-out
/// shares: a panic inside `f` becomes that unit's
/// [`CoreError::WorkerPanicked`], carrying the unit's label, instead of
/// unwinding the whole process — a served host must degrade, not die.
/// `AssertUnwindSafe` is sound here because units share state only through
/// `f`'s shared borrows (`Fn + Sync` over `&T`): what a panicking unit was
/// building is dropped with it, and no other unit's result depends on it.
fn catch_unit<T, R>(
    item: &T,
    label: &(impl Fn(&T) -> String + ?Sized),
    f: &(impl Fn(&T) -> Result<R> + ?Sized),
) -> Result<R> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item))).unwrap_or_else(|p| {
        Err(CoreError::WorkerPanicked {
            unit: label(item),
            payload: panic_payload(p),
        })
    })
}

/// Maps `f` over `items` on `workers` threads, preserving input order in
/// the output. Work is distributed dynamically (an atomic cursor) so slow
/// variants don't serialize behind a static partition. The one fan-out
/// path of the workspace: the sweeps, the fleet wavefront scheduler and
/// the serve session pool all go through it. With `workers <= 1` the units
/// run inline on the calling thread, in item order, with no thread spawned.
///
/// Every unit gets its own result: a panicking unit yields
/// [`CoreError::WorkerPanicked`] labelled via `label` in its own slot and
/// leaves the other units' results untouched, at any worker count. Callers
/// that fail the whole fan-out take the first `Err` in **item order**, so
/// the reported failure is independent of thread interleaving.
///
/// When an [`crate::obs`] session is recording, each unit's spans,
/// counters and events are captured from the worker's thread-local buffer
/// right after the unit finishes and absorbed into the caller's buffer in
/// **item order** after the index sort — the observability twin of the
/// bitwise parallel==serial result guarantee: record *content* is
/// independent of the worker count (wall-clock timestamps and worker ids
/// are the only fields that vary, and the deterministic exports exclude
/// them).
pub(crate) fn parallel_map<T, R, F, N>(
    items: &[T],
    workers: usize,
    label: N,
    f: F,
) -> Vec<Result<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> Result<R> + Sync,
    N: Fn(&T) -> String + Sync,
{
    if workers <= 1 {
        return items
            .iter()
            .map(|item| catch_unit(item, &label, &f))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let workers = workers.min(items.len()).max(1);
    // The worker closures `move` their 1-based id and borrow the rest.
    let (cursor, label, f) = (&cursor, &label, &f);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let worker_tag = (w + 1) as u32;
                    let mut chunk = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        let result = catch_unit(&items[i], label, f);
                        let unit_obs = obs::capture_unit().map(|mut u| {
                            u.tag_worker(worker_tag);
                            u
                        });
                        chunk.push((i, result, unit_obs));
                    }
                    chunk
                })
            })
            .collect();
        let mut indexed: Vec<(usize, Result<R>, Option<obs::UnitObs>)> = handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .expect("workers catch unit panics, so joining cannot fail")
            })
            .collect();
        indexed.sort_by_key(|(i, _, _)| *i);
        indexed
            .into_iter()
            .map(|(_, r, unit_obs)| {
                if let Some(u) = unit_obs {
                    obs::absorb_unit(u);
                }
                r
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smallest configuration that still runs the whole design flow.
    fn tiny_config() -> OptimizationConfig {
        OptimizationConfig {
            segments: 2,
            mesh_intervals: 32,
            ..OptimizationConfig::fast()
        }
    }

    fn tiny_options(mode: ExecutionMode) -> SweepOptions {
        SweepOptions {
            config: tiny_config(),
            ..SweepOptions::fast(mode)
        }
    }

    fn small_grid() -> SweepGrid {
        SweepGrid {
            loads: vec![LoadSpec::TestA, LoadSpec::TestB { seed: 7 }],
            flux_scales: vec![1.0],
            flow_scales: vec![0.75, 1.0],
        }
    }

    #[test]
    fn grid_expansion_order_and_len() {
        let grid = SweepGrid {
            loads: vec![LoadSpec::TestA, LoadSpec::TestB { seed: 1 }],
            flux_scales: vec![0.5, 1.0],
            flow_scales: vec![1.0, 2.0],
        };
        assert_eq!(grid.len(), 8);
        assert!(!grid.is_empty());
        let variants = grid.variants();
        assert_eq!(variants.len(), 8);
        // Loads outermost, flow innermost, indices sequential.
        assert_eq!(variants[0].label(), "testA q*0.50 f*1.00");
        assert_eq!(variants[1].label(), "testA q*0.50 f*2.00");
        assert_eq!(variants[2].label(), "testA q*1.00 f*1.00");
        assert_eq!(variants[4].load, LoadSpec::TestB { seed: 1 });
        assert!(variants.iter().enumerate().all(|(i, v)| v.index == i));
    }

    #[test]
    fn empty_grid_yields_empty_report() {
        let grid = SweepGrid {
            loads: vec![],
            flux_scales: vec![1.0],
            flow_scales: vec![1.0],
        };
        assert!(grid.is_empty());
        let report = run_sweep(&grid, &tiny_options(ExecutionMode::parallel())).unwrap();
        assert!(report.rows.is_empty());
        assert!(report.to_table().is_empty());
        assert!(report.best_by_gradient().is_none());
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let grid = small_grid();
        let serial = run_sweep(&grid, &tiny_options(ExecutionMode::Serial)).unwrap();
        let parallel = run_sweep(
            &grid,
            &tiny_options(ExecutionMode::Parallel {
                workers: NonZeroUsize::new(3),
            }),
        )
        .unwrap();
        assert_eq!(serial.rows.len(), grid.len());
        // PartialEq on SweepRow compares every f64 exactly — bitwise equality.
        assert_eq!(serial.rows, parallel.rows);
        assert_eq!(serial.workers, 1);
        // The grid has two flow-scale chains, so a requested 3 workers is
        // capped at the 2 that can actually run.
        assert_eq!(parallel.workers, 2);
    }

    #[test]
    fn report_rows_follow_grid_order() {
        let grid = small_grid();
        let report = run_sweep(
            &grid,
            &tiny_options(ExecutionMode::Parallel {
                workers: NonZeroUsize::new(2),
            }),
        )
        .unwrap();
        let expected: Vec<String> = grid.variants().iter().map(SweepVariant::label).collect();
        let got: Vec<String> = report.rows.iter().map(|r| r.variant.label()).collect();
        assert_eq!(got, expected);
        // The table mirrors the rows.
        let table = report.to_table();
        assert_eq!(table.len(), grid.len());
    }

    #[test]
    fn flux_scaling_scales_the_load() {
        let base = LoadSpec::TestB { seed: 3 }.strip_load(1.0);
        let scaled = LoadSpec::TestB { seed: 3 }.strip_load(2.0);
        for (b, s) in base.top_w_cm2.iter().zip(&scaled.top_w_cm2) {
            assert!((s - 2.0 * b).abs() < 1e-12);
        }
        assert_eq!(base.top_w_cm2.len(), scaled.top_w_cm2.len());
    }

    #[test]
    fn rows_carry_physical_metrics() {
        let grid = SweepGrid {
            loads: vec![LoadSpec::TestA],
            flux_scales: vec![1.0],
            flow_scales: vec![1.0],
        };
        let report = run_sweep(&grid, &tiny_options(ExecutionMode::Serial)).unwrap();
        let row = &report.rows[0];
        // Optimal modulation beats the best uniform baseline (paper Fig. 5).
        assert!(row.gradient_opt_k < row.gradient_min_k.min(row.gradient_max_k));
        assert!(row.gradient_reduction > 0.0);
        assert!(row.peak_opt_celsius > 26.85, "above the 300 K inlet");
        assert!(row.max_pressure_opt_bar > 0.0);
        assert!(row.pump_power_opt_w > 0.0);
        assert!(row.evaluations > 0);
        assert!(report.throughput_per_second() > 0.0);
        assert_eq!(report.best_by_gradient().unwrap().variant.index, 0);
    }

    #[test]
    fn paper_neighborhood_is_sixteen_variants() {
        assert_eq!(SweepGrid::paper_neighborhood().len(), 16);
    }

    #[test]
    fn warm_start_matches_cold_start_within_tolerance() {
        // Warm-started chains must land on the same optima as cold starts,
        // within the optimizer's (loose, fast-config) convergence tolerance,
        // while spending no more evaluations in total.
        let grid = SweepGrid {
            loads: vec![LoadSpec::TestA],
            flux_scales: vec![1.0],
            flow_scales: vec![0.75, 1.0, 1.25],
        };
        let options = tiny_options(ExecutionMode::Serial);
        let warm = run_sweep(&grid, &options).unwrap();
        // The cold reference: every variant from the uniformly-maximal
        // widths, under the same single-threaded configuration the sweep
        // pins.
        let config = OptimizationConfig {
            fd_threads: 1,
            ..options.config.clone()
        };
        let cold: Vec<SweepRow> = grid
            .variants()
            .iter()
            .map(|v| solve_variant(v, &options.params, &config, None).unwrap().0)
            .collect();
        assert_eq!(warm.rows.len(), cold.len());
        for (w, c) in warm.rows.iter().zip(&cold) {
            // Uniform baselines don't involve the optimizer at all.
            assert_eq!(w.gradient_min_k.to_bits(), c.gradient_min_k.to_bits());
            assert_eq!(w.gradient_max_k.to_bits(), c.gradient_max_k.to_bits());
            let rel = (w.gradient_opt_k - c.gradient_opt_k).abs() / c.gradient_opt_k;
            assert!(
                rel < 0.05,
                "{}: warm {} K vs cold {} K (rel {rel})",
                w.variant.label(),
                w.gradient_opt_k,
                c.gradient_opt_k
            );
            assert_eq!(w.feasible, c.feasible, "{}", w.variant.label());
        }
        let cold_evaluations: usize = cold.iter().map(|r| r.evaluations).sum();
        assert!(
            warm.total_evaluations() <= cold_evaluations,
            "warm {} evals vs cold {cold_evaluations}",
            warm.total_evaluations(),
        );
    }

    #[test]
    fn parallel_map_preserves_order_under_contention() {
        let items: Vec<usize> = (0..97).collect();
        let run = |workers, f: fn(usize) -> usize| {
            parallel_map(&items, workers, |&x| format!("item {x}"), |&x| Ok(f(x)))
                .into_iter()
                .collect::<Result<Vec<_>>>()
                .unwrap()
        };
        assert_eq!(
            run(5, |x| x * 3),
            items.iter().map(|x| x * 3).collect::<Vec<_>>()
        );
        // Degenerate worker counts still work.
        assert_eq!(run(200, |x| x + 1).len(), 97);
    }

    #[test]
    fn worker_panic_is_a_typed_error_not_a_crash() {
        // Before `catch_unit`, the join did `.expect("sweep worker
        // panicked")` and took the whole process down with the variant. A
        // panic now fails only its own unit, at any worker count: units 7
        // and 11 panic, unit 2 returns a typed error, the rest land.
        let items: Vec<usize> = (0..16).collect();
        for workers in [1, 4] {
            let out = parallel_map(
                &items,
                workers,
                |&x| format!("unit {x}"),
                |&x| {
                    assert!(x != 7 && x != 11, "injected failure on item {x}");
                    if x == 2 {
                        return Err(CoreError::InvalidConfig {
                            what: "typed failure".into(),
                        });
                    }
                    Ok(x * 2)
                },
            );
            assert_eq!(out.len(), items.len());
            for (&x, result) in items.iter().zip(&out) {
                match (x, result) {
                    (7 | 11, Err(CoreError::WorkerPanicked { unit, payload })) => {
                        assert_eq!(unit, &format!("unit {x}"));
                        assert!(
                            payload.contains(&format!("injected failure on item {x}")),
                            "payload: {payload}"
                        );
                    }
                    (2, Err(CoreError::InvalidConfig { .. })) => {}
                    (x, Ok(doubled)) if ![2, 7, 11].contains(&x) => assert_eq!(*doubled, 2 * x),
                    (x, other) => panic!("{workers} workers, unit {x}: {other:?}"),
                }
            }
            // The first failure in item order is the typed error ahead of
            // both panics, whatever the thread interleaving.
            let first = out.into_iter().collect::<Result<Vec<_>>>().unwrap_err();
            assert!(
                matches!(first, CoreError::InvalidConfig { .. }),
                "{workers} workers: {first:?}"
            );
        }
    }
}
