//! The fleet sharding sweep: pump-budget variants through policy
//! head-to-heads.
//!
//! One variant = one fleet at one pump budget, evaluated under **all
//! three** [`BudgetPolicy`]s on identical traces; a [`FleetRow`] records
//! the head-to-head on the worst stack's time-peak inter-layer gradient.
//! The bench `sweep -- fleet` mode gates on
//! [`BudgetPolicy::GradientWaterfill`] strictly beating
//! [`BudgetPolicy::Uniform`] *and* [`BudgetPolicy::Predictive`] strictly
//! beating [`BudgetPolicy::GradientWaterfill`] in every row.

use super::allocator::{BudgetPolicy, PumpBudget};
use super::shard::{run_fleet_lanes, FleetLane, FleetOptions, FleetOutcome, StackSpec};
use crate::faults::FaultPosture;
use crate::mpsoc::{ArchSpec, MpsocConfig, MpsocTraceSpec};
use crate::sweep::ExecutionMode;
use crate::transient::EpochPolicy;
use crate::{CsvTable, Result};
use std::time::{Duration, Instant};

/// The axes of a fleet sweep: one fleet composition through a ladder of
/// pump budgets.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetGrid {
    /// The fleet composition every variant runs.
    pub stacks: Vec<StackSpec>,
    /// Average per-stack flow scales to provision the pump at (each
    /// expands to [`PumpBudget::per_stack`]).
    pub budget_scales: Vec<f64>,
}

impl FleetGrid {
    /// The default bench grid: all three Fig. 7 architectures under a
    /// *migrating* Niagara peak burst — stack `i` runs its peak phase at
    /// position `i` of a three-phase schedule, so the fleet hot-spot walks
    /// from stack to stack at every phase boundary — at two
    /// under-provisioned pump budgets (0.75× and 0.85×). Under-provisioning
    /// is where reallocation earns its keep (with budget to spare, chasing
    /// a walking hot-spot reactively can even lose to the uniform split),
    /// and the migration is where a reactive allocator (always one segment
    /// behind) cedes further ground to the predictive one.
    #[must_use]
    pub fn bench_default() -> Self {
        let archs = ArchSpec::all();
        let phases = archs.len();
        Self {
            stacks: archs
                .into_iter()
                .enumerate()
                .map(|(i, arch)| StackSpec {
                    arch,
                    trace: MpsocTraceSpec::migrating_peak(i, phases),
                })
                .collect(),
            budget_scales: vec![0.75, 0.85],
        }
    }

    /// Number of variants in the grid.
    #[must_use]
    pub fn len(&self) -> usize {
        if self.stacks.is_empty() {
            0
        } else {
            self.budget_scales.len()
        }
    }

    /// `true` when the grid has no variants.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid in stable report order (budget ladder).
    #[must_use]
    pub fn variants(&self) -> Vec<FleetVariant> {
        self.budget_scales
            .iter()
            .enumerate()
            .map(|(index, &avg_scale)| FleetVariant {
                index,
                n_stacks: self.stacks.len(),
                avg_scale,
            })
            .collect()
    }
}

/// One concrete point of a fleet sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetVariant {
    /// Position in grid order (also the row position in the report).
    pub index: usize,
    /// Fleet size the budget is provisioned for.
    pub n_stacks: usize,
    /// Average per-stack flow scale of the pump budget.
    pub avg_scale: f64,
}

impl FleetVariant {
    /// Human-readable variant label, e.g. `fleet3 B*0.85`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("fleet{} B*{:.2}", self.n_stacks, self.avg_scale)
    }
}

/// Configuration of one fleet sweep run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSweepOptions {
    /// Base per-stack configuration each variant shares.
    pub config: MpsocConfig,
    /// Per-stack width-modulation policy inside each segment.
    pub policy: EpochPolicy,
    /// Duration of every trace phase, seconds.
    pub phase_seconds: f64,
    /// Reallocation epochs per trace phase.
    pub segments_per_phase: usize,
    /// Scheduling mode of the per-segment stack fan-out.
    pub mode: ExecutionMode,
}

impl FleetSweepOptions {
    /// The fast configuration, mirroring the bench MPSoC mode's clock.
    #[must_use]
    pub fn fast(mode: ExecutionMode) -> Self {
        Self {
            config: MpsocConfig::fast(),
            policy: EpochPolicy::FixedCadence { epoch_steps: 8 },
            phase_seconds: 0.032,
            segments_per_phase: 2,
            mode,
        }
    }
}

/// The three-policy head-to-head of one fleet variant, on the worst
/// stack's time-peak inter-layer gradient.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRow {
    /// The variant the metrics belong to.
    pub variant: FleetVariant,
    /// Worst-stack time-peak gradient under [`BudgetPolicy::Uniform`],
    /// kelvin.
    pub worst_gradient_uniform_k: f64,
    /// Worst-stack time-peak gradient under
    /// [`BudgetPolicy::GradientWaterfill`], kelvin.
    pub worst_gradient_waterfill_k: f64,
    /// Worst-stack time-peak gradient under [`BudgetPolicy::Predictive`],
    /// kelvin.
    pub worst_gradient_predictive_k: f64,
    /// Waterfill's reduction vs uniform, as a signed fraction.
    pub waterfill_reduction: f64,
    /// Predictive's reduction vs uniform, as a signed fraction.
    pub predictive_reduction: f64,
    /// Predictive's margin over waterfill —
    /// `(waterfill − predictive) / waterfill`, positive when the one-step
    /// MPC strictly beats the reactive allocator. The bench gate requires
    /// this to be strictly positive in every row.
    pub predictive_margin: f64,
    /// Fleet-wide time-peak silicon temperature of the waterfill run,
    /// kelvin.
    pub peak_temperature_waterfill_k: f64,
    /// The waterfill run's final-segment allocation (flow share per
    /// stack, spec order) — where the allocator ended up steering.
    pub waterfill_final_allocation: Vec<f64>,
    /// The predictive run's final-segment allocation (flow share per
    /// stack, spec order).
    pub predictive_final_allocation: Vec<f64>,
    /// Reallocation boundaries of the predictive run where the power
    /// forecast was informative.
    pub predictive_forecast_hits: u64,
    /// Sensitivity-surrogate slope refits of the predictive run.
    pub predictive_surrogate_refits: u64,
    /// Mean |gradient-vs-flow-share slope| of the predictive run's final
    /// surrogate, kelvin per flow-scale unit.
    pub predictive_mean_abs_slope_k_per_scale: f64,
    /// Objective evaluations the waterfill run spent across all stacks.
    pub evaluations: usize,
}

/// The collected result of one fleet sweep invocation.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// One row per variant, in grid order.
    pub rows: Vec<FleetRow>,
    /// Worker threads the per-wavefront fan-outs actually used. The task
    /// pool is the whole (variant × policy × stack) front, not one fleet's
    /// stacks, so this can exceed the fleet size.
    pub workers: usize,
    /// Wall-clock time of the evaluation phase.
    pub wall: Duration,
    /// Wall-clock seconds of each reallocation-segment wavefront, in time
    /// order — the sweep's serial critical path between allocator joins.
    pub segment_wall_seconds: Vec<f64>,
}

impl FleetReport {
    /// Renders the report as the workspace's standard table format.
    #[must_use]
    pub fn to_table(&self) -> CsvTable {
        let mut table = CsvTable::new(vec![
            "variant",
            "worst grad uniform [K]",
            "worst grad waterfill [K]",
            "worst grad predictive [K]",
            "waterfill red. [%]",
            "predictive red. [%]",
            "pred. margin [%]",
            "peak T waterfill [K]",
            "final allocation",
            "pred. final allocation",
            "evals",
        ]);
        for row in &self.rows {
            table.push_row(vec![
                row.variant.label(),
                format!("{:.3}", row.worst_gradient_uniform_k),
                format!("{:.3}", row.worst_gradient_waterfill_k),
                format!("{:.3}", row.worst_gradient_predictive_k),
                format!("{:.1}", row.waterfill_reduction * 100.0),
                format!("{:.1}", row.predictive_reduction * 100.0),
                format!("{:.2}", row.predictive_margin * 100.0),
                format!("{:.2}", row.peak_temperature_waterfill_k),
                row.waterfill_final_allocation
                    .iter()
                    .map(|s| format!("{s:.2}"))
                    .collect::<Vec<_>>()
                    .join("/"),
                row.predictive_final_allocation
                    .iter()
                    .map(|s| format!("{s:.2}"))
                    .collect::<Vec<_>>()
                    .join("/"),
                format!("{}", row.evaluations),
            ]);
        }
        table
    }
}

/// The fixed policy order every variant's lane triple uses.
const POLICIES: [BudgetPolicy; 3] = [
    BudgetPolicy::Uniform,
    BudgetPolicy::GradientWaterfill,
    BudgetPolicy::Predictive,
];

/// Expands one variant into its three policy lanes. All three share the
/// variant's index as deduplication group: segment 0 is
/// policy-independent (uniform split, no carry-over — the predictive
/// lane's surrogate has seen nothing yet and its allocator only runs at
/// later boundaries), so the scheduler runs it once per variant instead
/// of three times.
fn variant_lanes(
    variant: &FleetVariant,
    stacks: &[StackSpec],
    options: &FleetSweepOptions,
) -> Vec<FleetLane> {
    let budget = PumpBudget::per_stack(variant.avg_scale, stacks.len());
    POLICIES
        .iter()
        .map(|&allocation| FleetLane {
            options: FleetOptions {
                config: options.config.clone(),
                policy: options.policy,
                allocation,
                budget,
                phase_seconds: options.phase_seconds,
                segments_per_phase: options.segments_per_phase,
                mode: options.mode,
            },
            posture: FaultPosture::Healthy,
            dedup_group: variant.index,
        })
        .collect()
}

/// Folds one variant's three policy outcomes (in [`POLICIES`] order) into
/// its head-to-head row.
fn build_row(variant: &FleetVariant, outcomes: &[FleetOutcome]) -> FleetRow {
    let [uniform, waterfill, predictive] = outcomes else {
        unreachable!("one outcome per policy lane");
    };
    let worst_uniform = uniform.worst_stack_peak_gradient_k();
    let worst_waterfill = waterfill.worst_stack_peak_gradient_k();
    let worst_predictive = predictive.worst_stack_peak_gradient_k();
    let reduction = |worst: f64| {
        if worst_uniform > 0.0 {
            (worst_uniform - worst) / worst_uniform
        } else {
            0.0
        }
    };
    let diag = predictive.predictive.unwrap_or_default();
    FleetRow {
        variant: variant.clone(),
        worst_gradient_uniform_k: worst_uniform,
        worst_gradient_waterfill_k: worst_waterfill,
        worst_gradient_predictive_k: worst_predictive,
        waterfill_reduction: reduction(worst_waterfill),
        predictive_reduction: reduction(worst_predictive),
        predictive_margin: if worst_waterfill > 0.0 {
            (worst_waterfill - worst_predictive) / worst_waterfill
        } else {
            0.0
        },
        peak_temperature_waterfill_k: waterfill.peak_temperature_k(),
        waterfill_final_allocation: waterfill.allocations.last().cloned().unwrap_or_default(),
        predictive_final_allocation: predictive.allocations.last().cloned().unwrap_or_default(),
        predictive_forecast_hits: diag.forecast_hits,
        predictive_surrogate_refits: diag.surrogate_refits,
        predictive_mean_abs_slope_k_per_scale: diag.mean_abs_slope_k_per_scale,
        evaluations: waterfill.total_evaluations(),
    }
}

/// Runs every variant of `grid` under `options` and collects the report.
///
/// The whole sweep is **one** wavefront group: every (variant × policy ×
/// stack) reallocation-segment task of wavefront `k` goes through one
/// shared worker fan-out, so threads drain the full front instead of
/// idling behind the slowest stack of a single fleet run. Scheduling only
/// decides *when* a task runs, never *what* it computes — rows are
/// bitwise identical across execution modes and worker counts, like every
/// sweep engine in the workspace.
///
/// # Errors
///
/// Returns the first lane failure in (variant, policy) order.
pub fn run_fleet_sweep(grid: &FleetGrid, options: &FleetSweepOptions) -> Result<FleetReport> {
    let start = Instant::now();
    let variants = grid.variants();
    let lanes: Vec<FleetLane> = variants
        .iter()
        .flat_map(|v| variant_lanes(v, &grid.stacks, options))
        .collect();
    if lanes.is_empty() {
        return Ok(FleetReport {
            rows: vec![],
            workers: super::shard::resolved_fleet_workers(options.mode, grid.stacks.len()),
            wall: start.elapsed(),
            segment_wall_seconds: vec![],
        });
    }
    let outcomes = run_fleet_lanes(&grid.stacks, &lanes)?;
    let rows = variants
        .iter()
        .zip(outcomes.chunks_exact(POLICIES.len()))
        .map(|(variant, chunk)| build_row(variant, chunk))
        .collect();
    Ok(FleetReport {
        rows,
        workers: outcomes[0].workers,
        wall: start.elapsed(),
        segment_wall_seconds: outcomes[0].segment_wall_seconds.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::OptimizationConfig;
    use std::num::NonZeroUsize;

    fn tiny_grid() -> FleetGrid {
        FleetGrid {
            stacks: vec![
                StackSpec {
                    arch: ArchSpec::Arch1,
                    trace: MpsocTraceSpec::avg_to_peak(),
                },
                StackSpec {
                    arch: ArchSpec::Arch3,
                    trace: MpsocTraceSpec::avg_to_peak(),
                },
            ],
            budget_scales: vec![0.9],
        }
    }

    fn tiny_sweep_options(mode: ExecutionMode) -> FleetSweepOptions {
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
        FleetSweepOptions {
            policy: EpochPolicy::FixedCadence { epoch_steps: 6 },
            phase_seconds: 6.0 * config.dt_seconds,
            segments_per_phase: 1,
            config,
            mode,
        }
    }

    #[test]
    fn sweep_is_bitwise_deterministic_across_worker_counts() {
        let grid = tiny_grid();
        let serial = run_fleet_sweep(&grid, &tiny_sweep_options(ExecutionMode::Serial)).unwrap();
        for workers in [2_usize, 4] {
            let parallel = run_fleet_sweep(
                &grid,
                &tiny_sweep_options(ExecutionMode::Parallel {
                    workers: NonZeroUsize::new(workers),
                }),
            )
            .unwrap();
            assert_eq!(
                serial.rows, parallel.rows,
                "rows diverged at {workers} workers"
            );
            assert!(parallel.workers <= workers);
        }
        assert_eq!(serial.workers, 1);
        assert_eq!(
            serial.segment_wall_seconds.len(),
            2,
            "avg→peak at 1 segment per phase is 2 wavefronts"
        );
    }

    #[test]
    fn empty_grid_yields_empty_report() {
        let grid = FleetGrid {
            budget_scales: vec![],
            ..tiny_grid()
        };
        let report = run_fleet_sweep(&grid, &tiny_sweep_options(ExecutionMode::Serial)).unwrap();
        assert!(report.rows.is_empty());
        assert!(report.segment_wall_seconds.is_empty());
    }

    #[test]
    fn grid_expansion_and_labels() {
        let grid = FleetGrid::bench_default();
        assert_eq!(grid.len(), 2);
        assert!(!grid.is_empty());
        let variants = grid.variants();
        assert!(variants.iter().enumerate().all(|(i, v)| v.index == i));
        assert_eq!(variants[0].label(), "fleet3 B*0.75");
        assert_eq!(variants[1].label(), "fleet3 B*0.85");
        let empty = FleetGrid {
            stacks: vec![],
            budget_scales: vec![1.0],
        };
        assert!(empty.is_empty());
        assert_eq!(
            FleetGrid {
                budget_scales: vec![],
                ..FleetGrid::bench_default()
            }
            .len(),
            0
        );
    }
}
