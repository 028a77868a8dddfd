//! The optimal channel-modulation design flow (paper §IV).
//!
//! Decision variables are the per-segment channel widths of every column,
//! normalized to `[0, 1]` over the manufacturable range `[w_min, w_max]`
//! (normalization keeps the finite-difference steps and the box geometry
//! well-conditioned; raw widths are ~1e-5 m). Each objective evaluation
//! applies the candidate widths, solves the §III boundary-value problem and
//! integrates the paper's Eq. (7) cost. Pressure bounds (Eq. 9) and the
//! equal-pressure coupling (Eq. 10) enter as augmented-Lagrangian
//! constraints; pressure evaluations are closed-form integrals, so the
//! constraint side costs nothing compared to the thermal solves.

use crate::{CoreError, Result};
use liquamod_optimal_control::{
    augmented_lagrangian, augmented_lagrangian_warm, AugLagOptions, AugLagResult, AugLagWarmStart,
    Bounds, ConstrainedObjective, LbfgsOptions,
};
use liquamod_thermal_model::{
    Model, Solution, SolveOptions, SolveWorkspace, WidthProfile, WorkspacePool,
};
use liquamod_units::{Length, Pressure};

/// Outer-iteration cap of a cold solve.
const OUTER_ITERATIONS: usize = 4;

/// Inner (L-BFGS) iteration cap of each outer iteration of a cold solve.
const INNER_ITERATIONS: usize = 25;

/// Constraint-violation target of the normalized pressure constraints.
const VIOLATION_TOL: f64 = 1e-3;

/// Initial augmented-Lagrangian penalty `μ`.
const INITIAL_PENALTY: f64 = 10.0;

/// Projected-gradient stationarity at which an inner solve stops.
const STATIONARITY_TOL: f64 = 1e-6;

/// Per-iteration relative improvement below which an inner solve stops.
const IMPROVEMENT_TOL: f64 = 1e-7;

/// Inner-iteration cap for *resumed* solves ([`optimize_resumed`] with
/// dual state): a resumed epoch starts at the previous optimum with
/// converged multipliers, so after the first few refinement iterations the
/// remaining budget only polishes finite-difference noise. Cold solves (and
/// plain [`optimize_warm`]) run [`INNER_ITERATIONS`].
const RESUME_INNER_ITERATIONS: usize = 8;

/// Outer-iteration cap for *resumed* solves, the dual-side twin of
/// [`RESUME_INNER_ITERATIONS`]. With warm multipliers each outer iteration
/// is one capped primal solve plus one multiplier update, so a cap of 1
/// turns every resumed epoch into a single real-time-style correction step;
/// the multiplier updates still accumulate *across* epochs because the
/// controller carries the dual state forward, and the
/// adopt-only-if-not-worse rule discards any correction that converged too
/// little to help. Cold solves run [`OUTER_ITERATIONS`].
const RESUME_OUTER_ITERATIONS: usize = 1;

/// Configuration of one design-flow run: the control and mesh resolution
/// and the finite-difference worker count.
///
/// Every run minimizes the paper's Eq. (7) cost with the augmented
/// Lagrangian over projected L-BFGS under one fixed solver schedule (4
/// outer and 25 inner iterations, violation target 1e-3, initial penalty
/// 10, stationarity 1e-6, improvement 1e-7; resumed solves take 1 outer
/// and 8 inner iterations). The paper's Eq. (10) equal-pressure coupling
/// applies whenever the model has two or more columns.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizationConfig {
    /// Piecewise-constant segments per column (the control resolution `K`).
    pub segments: usize,
    /// Base mesh intervals for each BVP solve.
    pub mesh_intervals: usize,
    /// Worker threads for finite-difference gradients.
    pub fd_threads: usize,
}

impl OptimizationConfig {
    /// The coarse configuration every caller starts from: 8 segments on a
    /// 96-interval mesh, with one finite-difference worker per available
    /// core (at most 16). Accuracy is enough to demonstrate every
    /// qualitative result; callers refine `segments` and `mesh_intervals`.
    pub fn fast() -> Self {
        Self {
            segments: 8,
            mesh_intervals: 96,
            fd_threads: default_threads(),
        }
    }

    pub(crate) fn validate(&self) -> Result<()> {
        if self.segments == 0 {
            return Err(CoreError::InvalidConfig {
                what: "segments must be ≥ 1".into(),
            });
        }
        if self.mesh_intervals == 0 {
            return Err(CoreError::InvalidConfig {
                what: "mesh_intervals must be ≥ 1".into(),
            });
        }
        Ok(())
    }

    /// The constrained-solver options of one run: the fixed schedule with
    /// the finite-difference workers, capped for a `resumed` solve.
    fn solver_options(&self, resumed: bool) -> AugLagOptions {
        let (outer, inner) = if resumed {
            (RESUME_OUTER_ITERATIONS, RESUME_INNER_ITERATIONS)
        } else {
            (OUTER_ITERATIONS, INNER_ITERATIONS)
        };
        AugLagOptions {
            max_outer_iterations: outer,
            violation_tol: VIOLATION_TOL,
            initial_penalty: INITIAL_PENALTY,
            inner: LbfgsOptions {
                max_iterations: inner,
                stationarity_tol: STATIONARITY_TOL,
                improvement_tol: IMPROVEMENT_TOL,
                fd_threads: self.fd_threads,
            },
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(16)
}

/// Outcome of an optimal channel-modulation run.
#[derive(Debug, Clone)]
pub struct DesignOutcome {
    /// The model with the optimal width profiles applied.
    pub model: Model,
    /// Thermal solution at the optimum.
    pub solution: Solution,
    /// Optimal per-column width profiles.
    pub widths: Vec<WidthProfile>,
    /// The optimum in the solver's normalized coordinates (per-segment
    /// widths mapped to `[0, 1]` over `[w_min, w_max]`); feed it to
    /// [`optimize_warm`] to warm-start a neighbouring scenario.
    pub x_opt: Vec<f64>,
    /// Per-column (per physical channel) pressure drops at the optimum.
    pub pressure_drops: Vec<Pressure>,
    /// Final objective value.
    pub objective: f64,
    /// Total BVP/objective evaluations spent.
    pub evaluations: usize,
    /// Whether pressure constraints were met (within the solver tolerance).
    pub feasible: bool,
}

/// Resumable optimizer state linking successive design solves.
///
/// The receding-horizon transient loop re-optimizes the same width problem
/// every reallocation epoch under a mildly drifting load. Carrying the
/// converged primal point *and* the augmented-Lagrangian dual state
/// (multipliers + penalty) from the previous epoch lets the next solve skip
/// the penalty continuation entirely: the first inner L-BFGS solve starts
/// at (or near) the stationary point of the *final* inner problem, which in
/// practice collapses a warm epoch from thousands of BVP evaluations to a
/// few hundred. Obtain one from [`optimize_resumed`] and feed it back to the
/// next call.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignWarmStart {
    /// Converged point in the solver's normalized `[0, 1]` coordinates.
    pub x: Vec<f64>,
    /// Inequality (pressure-cap) multiplier estimates `ν`.
    pub inequality_multipliers: Vec<f64>,
    /// Equality (equal-pressure coupling) multiplier estimates `λ`.
    pub equality_multipliers: Vec<f64>,
    /// Penalty parameter `μ` the previous solve finished at.
    pub penalty: f64,
}

impl DesignWarmStart {
    /// What keeps this warm start from resuming a solve over `columns`
    /// width columns of `segments` segments each, or `None` when it fits:
    /// a point of dimension `columns · segments`, one pressure-cap
    /// multiplier per column, one equal-pressure multiplier per column when
    /// there are two or more (none otherwise), finite entries and a finite
    /// positive penalty.
    pub(crate) fn mismatch(&self, columns: usize, segments: usize) -> Option<String> {
        let equality = if columns >= 2 { columns } else { 0 };
        let counts = [
            ("coordinates", self.x.len(), columns * segments),
            (
                "pressure-cap multipliers",
                self.inequality_multipliers.len(),
                columns,
            ),
            (
                "equal-pressure multipliers",
                self.equality_multipliers.len(),
                equality,
            ),
        ];
        if let Some((what, got, need)) = counts.into_iter().find(|&(_, got, need)| got != need) {
            return Some(format!(
                "warm start has {got} {what}, the problem needs {need}"
            ));
        }
        if let Some(v) = self.values().find(|v| !v.is_finite()) {
            return Some(format!("warm start holds a non-finite value ({v})"));
        }
        (self.penalty <= 0.0)
            .then(|| format!("warm start penalty {} is not positive", self.penalty))
    }

    /// Every number of the warm start: the point, the multipliers and the
    /// penalty.
    fn values(&self) -> impl Iterator<Item = &f64> {
        let multipliers = self.inequality_multipliers.iter();
        let multipliers = multipliers.chain(&self.equality_multipliers);
        self.x.iter().chain(multipliers).chain([&self.penalty])
    }
}

/// Refuses a warm start holding a non-finite value: the solver would carry
/// it into every evaluation.
fn finite_warm_start<'a>(mut values: impl Iterator<Item = &'a f64>) -> Result<()> {
    match values.find(|v| !v.is_finite()) {
        Some(v) => Err(CoreError::InvalidConfig {
            what: format!("warm start holds a non-finite value ({v})"),
        }),
        None => Ok(()),
    }
}

struct WidthProblem<'a> {
    base: &'a Model,
    config: &'a OptimizationConfig,
    n_cols: usize,
    w_min: f64,
    w_max: f64,
    dp_max: f64,
    solve: SolveOptions,
    /// Objective normalization: the cost at the uniformly-`w_max` point
    /// (the paper's baseline). The raw Eq. (7) integral is O(1e4–1e6) while
    /// the normalized pressure constraints are O(1); without this scaling
    /// the augmented-Lagrangian penalties would be invisible next to the
    /// objective.
    j_scale: f64,
    /// Per-worker [`SolveWorkspace`]s: every objective evaluation solves the
    /// BVP through a pooled workspace, so the mesh and banded-system buffers
    /// are built once per worker and recycled across the whole run
    /// (including every line-search and finite-difference evaluation).
    pool: WorkspacePool,
}

impl<'a> WidthProblem<'a> {
    /// The width problem of `model` under `config`, normalized by the cost
    /// at the uniformly-`w_max` anchor — the same anchor for cold and
    /// warm-started solves, so both minimize exactly the same scaled
    /// problem.
    fn new(model: &'a Model, config: &'a OptimizationConfig) -> Result<Self> {
        config.validate()?;
        let params = model.params();
        let mut problem = WidthProblem {
            base: model,
            config,
            n_cols: model.columns().len(),
            w_min: params.w_min.si(),
            w_max: params.w_max.si(),
            dp_max: params.dp_max.si(),
            solve: SolveOptions::with_mesh_intervals(config.mesh_intervals),
            j_scale: 1.0,
            pool: WorkspacePool::new(),
        };
        let j0 = problem.raw_objective(&problem.anchor());
        if !(j0.is_finite() && j0 > 0.0) {
            return Err(CoreError::InvalidConfig {
                what: format!("cost at the starting point is unusable ({j0})"),
            });
        }
        problem.j_scale = j0;
        Ok(problem)
    }

    /// The uniformly-`w_max` point, every normalized width at 1.
    fn anchor(&self) -> Vec<f64> {
        vec![1.0; ConstrainedObjective::dim(self)]
    }

    fn widths_from_x(&self, x: &[f64]) -> Vec<WidthProfile> {
        let k = self.config.segments;
        (0..self.n_cols)
            .map(|c| {
                let widths = x[c * k..(c + 1) * k]
                    .iter()
                    .map(|t| {
                        // Deliberately NOT clamped to [0, 1]: finite-difference
                        // probes step just outside the box at active bounds,
                        // and clamping them would zero the gradient there
                        // (the optimizer's box keeps actual iterates inside).
                        // The wide guard only protects duct validity.
                        let t = t.clamp(-0.1, 1.1);
                        Length::from_meters(self.w_min + t * (self.w_max - self.w_min))
                    })
                    .collect();
                WidthProfile::piecewise_constant(widths)
            })
            .collect()
    }

    fn model_with(&self, x: &[f64]) -> Model {
        let mut model = self.base.clone();
        for (c, w) in self.widths_from_x(x).into_iter().enumerate() {
            model
                .set_width_profile(c, w)
                .expect("normalized widths stay inside (0, pitch)");
        }
        model
    }

    fn pressure_drops(&self, x: &[f64]) -> Vec<f64> {
        // Pressure depends only on the widths, the parameters and the
        // length, all of which the *base* model already carries — no need to
        // clone a model just to apply the candidate widths.
        self.widths_from_x(x)
            .iter()
            .map(|w| {
                self.base
                    .column_pressure_drop(w)
                    .expect("normalized widths are valid ducts")
                    .as_pascals()
            })
            .collect()
    }

    fn raw_objective(&self, x: &[f64]) -> f64 {
        let model = self.model_with(x);
        // Cost-only solve: skips the Solution profile materialization while
        // producing a bit-identical integral (see `Model::solve_cost_with`).
        // Infinite cost steers the line search away from pathological
        // candidates instead of aborting the whole run.
        self.pool
            .with(|ws| model.solve_cost_with(&self.solve, ws))
            .unwrap_or(f64::INFINITY)
    }

    /// Re-solves the design at `x_opt` with its full solution profile and
    /// reports it; `objective` maps that solution to the reported cost.
    fn outcome(
        &self,
        x_opt: Vec<f64>,
        evaluations: usize,
        feasible: bool,
        objective: impl FnOnce(&Solution) -> f64,
    ) -> Result<DesignOutcome> {
        let widths = self.widths_from_x(&x_opt);
        let model = self.model_with(&x_opt);
        let solution = self.pool.with(|ws| model.solve_with(&self.solve, ws))?;
        let pressure_drops = model.pressure_drops()?;
        Ok(DesignOutcome {
            objective: objective(&solution),
            model,
            solution,
            widths,
            x_opt,
            pressure_drops,
            evaluations,
            feasible,
        })
    }
}

impl ConstrainedObjective for WidthProblem<'_> {
    fn dim(&self) -> usize {
        self.n_cols * self.config.segments
    }

    fn objective(&self, x: &[f64]) -> f64 {
        self.raw_objective(x) / self.j_scale
    }

    fn inequality(&self, x: &[f64]) -> Vec<f64> {
        // ΔPᵢ/ΔP_max − 1 ≤ 0 (paper Eq. 9).
        self.pressure_drops(x)
            .iter()
            .map(|dp| dp / self.dp_max - 1.0)
            .collect()
    }

    fn equality(&self, x: &[f64]) -> Vec<f64> {
        // (ΔPᵢ − mean)/ΔP_max = 0 (paper Eq. 10), only with several columns.
        if self.n_cols < 2 {
            return Vec::new();
        }
        let drops = self.pressure_drops(x);
        let mean = drops.iter().sum::<f64>() / drops.len() as f64;
        drops.iter().map(|dp| (dp - mean) / self.dp_max).collect()
    }
}

/// Runs the optimal channel-modulation flow on `model` (whose current width
/// profiles are ignored; the optimizer starts from uniformly maximal
/// widths, the paper's common baseline).
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] for empty segment/mesh settings, and
/// propagated model errors if the optimized design cannot be re-solved.
pub fn optimize(model: &Model, config: &OptimizationConfig) -> Result<DesignOutcome> {
    optimize_warm(model, config, None)
}

/// [`optimize`] with an optional warm start.
///
/// `start` is a point in the solver's normalized coordinates — typically the
/// [`DesignOutcome::x_opt`] of a neighbouring scenario (the sweep engine
/// chains variants along its flow-scale axis this way). It is projected into
/// the `[0, 1]` box before use. The objective normalization stays anchored
/// at the uniformly-maximal-width point regardless of the start, so a
/// warm-started run minimizes exactly the same scaled problem as a cold one
/// and converges to the same optimum (within the solver's tolerances) in
/// fewer evaluations.
///
/// # Errors
///
/// Same as [`optimize`]; additionally rejects a `start` of the wrong
/// dimension or with a non-finite coordinate.
pub fn optimize_warm(
    model: &Model,
    config: &OptimizationConfig,
    start: Option<&[f64]>,
) -> Result<DesignOutcome> {
    finite_warm_start(start.into_iter().flatten())?;
    optimize_inner(model, config, start, None).map(|(outcome, _)| outcome)
}

/// [`optimize_warm`] resuming both the primal point *and* the
/// augmented-Lagrangian dual state of a previous solve.
///
/// Passing `warm = None` is identical to a cold [`optimize`]. With a
/// [`DesignWarmStart`] from a previous epoch, the solve seeds the start
/// point from `warm.x` (projected, pressure-feasibility-repaired as in
/// [`optimize_warm`]) and the multipliers/penalty from the stored dual
/// state, and caps the solve at 8 inner and 1 outer iteration (it starts
/// next to the previous optimum). Returns the outcome plus the warm start
/// for the *next* solve.
///
/// # Errors
///
/// Same as [`optimize_warm`]; additionally rejects a warm start whose
/// multipliers or penalty are not finite.
pub fn optimize_resumed(
    model: &Model,
    config: &OptimizationConfig,
    warm: Option<&DesignWarmStart>,
) -> Result<(DesignOutcome, DesignWarmStart)> {
    finite_warm_start(warm.into_iter().flat_map(DesignWarmStart::values))?;
    let dual = warm.map(|w| AugLagWarmStart {
        inequality_multipliers: w.inequality_multipliers.clone(),
        equality_multipliers: w.equality_multipliers.clone(),
        penalty: w.penalty,
    });
    optimize_inner(model, config, warm.map(|w| w.x.as_slice()), dual.as_ref())
}

fn optimize_inner(
    model: &Model,
    config: &OptimizationConfig,
    start: Option<&[f64]>,
    dual: Option<&AugLagWarmStart>,
) -> Result<(DesignOutcome, DesignWarmStart)> {
    let problem = WidthProblem::new(model, config)?;
    let dim = ConstrainedObjective::dim(&problem);
    let x0 = match start {
        Some(s) if s.len() != dim => {
            return Err(CoreError::InvalidConfig {
                what: format!("warm start has dimension {}, problem needs {dim}", s.len()),
            })
        }
        // Project into the [0, 1] box (identity for in-box starts, so sweep
        // warm-starting is unaffected).
        Some(s) => {
            let boxed: Vec<f64> = s.iter().map(|v| v.clamp(0.0, 1.0)).collect();
            feasible_warm_start(&problem, &boxed)
        }
        None => problem.anchor(),
    };
    let bounds = Bounds::uniform(dim, 0.0, 1.0)?;
    let AugLagResult {
        x,
        objective,
        evaluations,
        feasible,
        inequality_multipliers,
        equality_multipliers,
        penalty,
        ..
    } = augmented_lagrangian_warm(
        &problem,
        &bounds,
        &x0,
        &config.solver_options(dual.is_some()),
        dual,
    );
    let next_warm = DesignWarmStart {
        x: x.clone(),
        inequality_multipliers,
        equality_multipliers,
        penalty,
    };
    // Report the raw Eq. (7) cost, not the normalized solver value.
    let outcome = problem.outcome(x, evaluations, feasible, |_| objective * problem.j_scale)?;
    Ok((outcome, next_warm))
}

/// Restores pressure feasibility of a warm start without BVP solves.
///
/// A warm start inherited from a neighbouring scenario (e.g. a lower coolant
/// flow) can violate the `ΔP ≤ ΔP_max` caps of the new scenario, and the
/// augmented-Lagrangian method pays dearly to climb back into the feasible
/// region from outside. Pressure drops are closed-form integrals, so
/// feasibility can be checked and repaired for free: bisect the blend
/// `x(α) = (1−α)·x_warm + α·1` toward the uniformly-maximal-width point
/// (the widest, lowest-pressure design) and return the least-blended point
/// whose inequality constraints all hold. Already-feasible warm starts are
/// returned unchanged; if even `x(1)` is infeasible (`ΔP_max` unattainable),
/// the blend falls back to the anchor and the solver reports infeasibility
/// as it would from a cold start.
fn feasible_warm_start(problem: &WidthProblem<'_>, start: &[f64]) -> Vec<f64> {
    let feasible = |x: &[f64]| problem.inequality(x).iter().all(|&g| g <= 0.0);
    let blend = |alpha: f64| -> Vec<f64> { start.iter().map(|&s| s + alpha * (1.0 - s)).collect() };
    if feasible(start) {
        return start.to_vec();
    }
    let mut lo = 0.0; // infeasible
    let mut hi = 1.0; // feasible (or best effort)
    if !feasible(&blend(hi)) {
        return blend(hi);
    }
    for _ in 0..24 {
        let mid = 0.5 * (lo + hi);
        if feasible(&blend(mid)) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    blend(hi)
}

/// The paper's §IV-B dual formulation: minimize the pumping effort with an
/// upper bound on the thermal cost. ("Note that the optimal design problem
/// can alternatively be stated as minimizing the pumping effort, with an
/// upper bound for the temperature gradient.")
///
/// The objective is the mean per-channel pressure drop normalized by
/// `ΔP_max`; constraints are `J(x) ≤ cost_bound` (thermal) plus the usual
/// `ΔPᵢ ≤ ΔP_max` and, with several columns, the Eq. (10) equal-pressure
/// coupling.
///
/// # Errors
///
/// Same as [`optimize`]; additionally rejects a non-positive `cost_bound`.
pub fn optimize_min_pumping(
    model: &Model,
    config: &OptimizationConfig,
    cost_bound: f64,
) -> Result<DesignOutcome> {
    if !(cost_bound.is_finite() && cost_bound > 0.0) {
        return Err(CoreError::InvalidConfig {
            what: format!("cost_bound must be positive, got {cost_bound}"),
        });
    }
    let thermal = WidthProblem::new(model, config)?;

    struct MinPumping<'a> {
        inner: &'a WidthProblem<'a>,
        cost_bound: f64,
    }
    impl ConstrainedObjective for MinPumping<'_> {
        fn dim(&self) -> usize {
            ConstrainedObjective::dim(self.inner)
        }
        fn objective(&self, x: &[f64]) -> f64 {
            let drops = self.inner.pressure_drops(x);
            drops.iter().sum::<f64>() / drops.len() as f64 / self.inner.dp_max
        }
        fn inequality(&self, x: &[f64]) -> Vec<f64> {
            // Thermal bound first, then the per-column pressure caps.
            let mut g = vec![self.inner.raw_objective(x) / self.cost_bound - 1.0];
            g.extend(self.inner.inequality(x));
            g
        }
        fn equality(&self, x: &[f64]) -> Vec<f64> {
            self.inner.equality(x)
        }
    }

    let dual = MinPumping {
        inner: &thermal,
        cost_bound,
    };
    let bounds = Bounds::uniform(ConstrainedObjective::dim(&thermal), 0.0, 1.0)?;
    let AugLagResult {
        x,
        evaluations,
        feasible,
        ..
    } = augmented_lagrangian(
        &dual,
        &bounds,
        &thermal.anchor(),
        &config.solver_options(false),
    );
    thermal.outcome(x, evaluations, feasible, Solution::cost_gradient_squared)
}

/// Convenience used by comparisons and benches: solve `model` with every
/// column forced to one uniform width, reusing `ws` for the solve buffers.
///
/// # Errors
///
/// Propagates model solve errors.
pub(crate) fn solve_uniform(
    model: &Model,
    width: Length,
    mesh_intervals: usize,
    ws: &mut SolveWorkspace,
) -> Result<(Model, Solution)> {
    let mut m = model.clone();
    for c in 0..m.columns().len() {
        m.set_width_profile(c, WidthProfile::uniform(width))?;
    }
    let solution = m.solve_with(&SolveOptions::with_mesh_intervals(mesh_intervals), ws)?;
    Ok((m, solution))
}

#[cfg(test)]
mod tests {
    use super::*;
    use liquamod_thermal_model::{ChannelColumn, HeatProfile, ModelParams};
    use liquamod_units::LinearHeatFlux;

    fn strip(params: &ModelParams) -> Model {
        let col = ChannelColumn::new(WidthProfile::uniform(params.w_max))
            .with_heat_top(HeatProfile::uniform(LinearHeatFlux::from_w_per_m(50.0)))
            .with_heat_bottom(HeatProfile::uniform(LinearHeatFlux::from_w_per_m(50.0)));
        Model::new(params.clone(), Length::from_centimeters(1.0), vec![col]).unwrap()
    }

    #[test]
    fn config_validation() {
        let model = strip(&ModelParams::date2012());
        let bad = OptimizationConfig {
            segments: 0,
            ..OptimizationConfig::fast()
        };
        assert!(matches!(
            optimize(&model, &bad),
            Err(CoreError::InvalidConfig { .. })
        ));
        let bad = OptimizationConfig {
            mesh_intervals: 0,
            ..OptimizationConfig::fast()
        };
        assert!(matches!(
            optimize(&model, &bad),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn warm_starts_with_non_finite_values_are_refused() {
        let model = strip(&ModelParams::date2012());
        let config = OptimizationConfig {
            segments: 2,
            ..OptimizationConfig::fast()
        };
        for start in [[f64::NAN, 0.5], [0.5, f64::INFINITY]] {
            assert!(matches!(
                optimize_warm(&model, &config, Some(&start)),
                Err(CoreError::InvalidConfig { .. })
            ));
        }
        let fits = DesignWarmStart {
            x: vec![0.5, 0.5],
            inequality_multipliers: vec![0.0],
            equality_multipliers: vec![],
            penalty: 10.0,
        };
        for broken in [
            DesignWarmStart {
                penalty: f64::NAN,
                ..fits.clone()
            },
            DesignWarmStart {
                inequality_multipliers: vec![f64::INFINITY],
                ..fits.clone()
            },
        ] {
            assert!(matches!(
                optimize_resumed(&model, &config, Some(&broken)),
                Err(CoreError::InvalidConfig { .. })
            ));
        }
        assert!(optimize_resumed(&model, &config, Some(&fits)).is_ok());
    }

    #[test]
    fn width_mapping_roundtrip() {
        let model = strip(&ModelParams::date2012());
        let config = OptimizationConfig {
            segments: 4,
            ..OptimizationConfig::fast()
        };
        let problem = WidthProblem::new(&model, &config).unwrap();
        let widths = problem.widths_from_x(&[0.0, 1.0, 0.5, 2.0]);
        match &widths[0] {
            WidthProfile::PiecewiseConstant { widths } => {
                assert!((widths[0].as_micrometers() - 10.0).abs() < 1e-9);
                assert!((widths[1].as_micrometers() - 50.0).abs() < 1e-9);
                assert!((widths[2].as_micrometers() - 30.0).abs() < 1e-9);
                // Far out-of-box inputs clamp to the FD guard band
                // (t = 1.1 → 54 µm), still safely inside the pitch.
                assert!((widths[3].as_micrometers() - 54.0).abs() < 1e-9);
            }
            other => panic!("expected piecewise profile, got {other:?}"),
        }
    }

    #[test]
    fn pressure_constraints_signal_violations() {
        let model = strip(&ModelParams::date2012());
        let config = OptimizationConfig {
            segments: 2,
            ..OptimizationConfig::fast()
        };
        let problem = WidthProblem::new(&model, &config).unwrap();
        // All-minimum widths exceed ΔP_max at the calibrated flow → g > 0.
        let g_min = problem.inequality(&[0.0, 0.0]);
        assert!(g_min[0] > 0.0, "min width should violate: g = {}", g_min[0]);
        // All-maximum widths sit well below ΔP_max → g < 0.
        let g_max = problem.inequality(&[1.0, 1.0]);
        assert!(g_max[0] < 0.0, "max width should satisfy: g = {}", g_max[0]);
    }

    #[test]
    fn equality_constraints_only_with_multiple_columns() {
        let model = strip(&ModelParams::date2012());
        let config = OptimizationConfig::fast();
        let problem = WidthProblem::new(&model, &config).unwrap();
        assert!(problem.equality(&vec![1.0; config.segments]).is_empty());
    }

    #[test]
    fn min_pumping_dual_meets_thermal_bound_at_lower_pressure() {
        // §IV-B dual: minimize pumping with a bound on the thermal cost.
        // The bound is set between the uniform-max cost and the primal
        // optimum, so the dual must spend *some* pressure — but less than
        // the gradient-optimal design does.
        let params = ModelParams::date2012();
        let model = strip(&params);
        let config = OptimizationConfig::fast();
        let primal = optimize(&model, &config).unwrap();
        let (_, uniform) = solve_uniform(
            &model,
            params.w_max,
            config.mesh_intervals,
            &mut SolveWorkspace::new(),
        )
        .unwrap();
        let j_uniform = uniform.cost_gradient_squared();
        let bound = 0.5 * (primal.objective + j_uniform);
        let dual = optimize_min_pumping(&model, &config, bound).unwrap();

        // Thermal bound honored (within the solver's constraint tolerance).
        assert!(
            dual.objective <= bound * 1.05,
            "thermal cost {} exceeds bound {}",
            dual.objective,
            bound
        );
        // And the relaxed target is bought with less pressure than the
        // primal optimum needed.
        let max_dp = |drops: &[Pressure]| drops.iter().map(|p| p.as_pascals()).fold(0.0, f64::max);
        assert!(
            max_dp(&dual.pressure_drops) < max_dp(&primal.pressure_drops),
            "dual dp {} should undercut primal dp {}",
            max_dp(&dual.pressure_drops),
            max_dp(&primal.pressure_drops)
        );
        // Rejects nonsense bounds.
        assert!(optimize_min_pumping(&model, &config, 0.0).is_err());
        assert!(optimize_min_pumping(&model, &config, f64::NAN).is_err());
    }

    #[test]
    fn optimize_strip_reduces_cost_and_meets_pressure() {
        let params = ModelParams::date2012();
        let model = strip(&params);
        let config = OptimizationConfig::fast();
        let outcome = optimize(&model, &config).unwrap();
        // The optimum must beat the uniform-max starting point…
        let (_, uniform) = solve_uniform(
            &model,
            params.w_max,
            config.mesh_intervals,
            &mut SolveWorkspace::new(),
        )
        .unwrap();
        assert!(
            outcome.solution.thermal_gradient().as_kelvin()
                < uniform.thermal_gradient().as_kelvin(),
            "optimal {} K vs uniform {} K",
            outcome.solution.thermal_gradient().as_kelvin(),
            uniform.thermal_gradient().as_kelvin()
        );
        // …and stay inside the pressure budget.
        assert!(outcome.feasible);
        for dp in &outcome.pressure_drops {
            assert!(
                dp.as_pascals() <= params.dp_max.as_pascals() * 1.01,
                "dp = {dp}"
            );
        }
        // The optimal profile narrows toward the outlet (paper Fig. 6a).
        match &outcome.widths[0] {
            WidthProfile::PiecewiseConstant { widths } => {
                assert!(
                    widths.last().unwrap().si() < widths.first().unwrap().si(),
                    "outlet should be narrower than inlet: {widths:?}"
                );
            }
            other => panic!("expected piecewise profile, got {other:?}"),
        }
        assert!(outcome.evaluations > 0);
    }
}
