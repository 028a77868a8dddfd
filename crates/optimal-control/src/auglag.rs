//! Augmented-Lagrangian method for general constraints.
//!
//! Handles `min f(x)` s.t. `g(x) ≤ 0`, `h(x) = 0` and box bounds by the
//! Powell–Hestenes–Rockafellar augmented Lagrangian:
//!
//! `L(x; λ, ν, μ) = f(x) + 1/(2μ)·Σᵢ [max(0, νᵢ + μ·gᵢ(x))² − νᵢ²]
//!                 + Σⱼ λⱼ·hⱼ(x) + μ/2·Σⱼ hⱼ(x)²`
//!
//! Each outer iteration minimizes `L` over the box with the projected
//! L-BFGS inner solver, then updates the multipliers
//! (`νᵢ ← max(0, νᵢ + μ·gᵢ)`, `λⱼ ← λⱼ + μ·hⱼ`) and increases `μ` when the
//! constraint violation has not dropped enough.
//!
//! This is the constraint machinery behind the paper's Eq. (9)–(10): the
//! per-channel pressure-drop caps are inequalities and the equal-pressure
//! coupling across channels is a set of equalities.

use crate::lbfgs::{lbfgs_b, LbfgsOptions};
use crate::{Bounds, ConstrainedObjective, Objective};

/// Factor applied to `μ` when the violation stalls.
const PENALTY_GROWTH: f64 = 10.0;
/// Per-outer-iteration violation reduction required to keep `μ` fixed (and
/// advance the multipliers instead).
const VIOLATION_REDUCTION: f64 = 0.25;
/// Cap on `μ`; beyond it the problem is reported as-is.
const MAX_PENALTY: f64 = 1e12;

/// Options for [`augmented_lagrangian`]. The penalty schedule is fixed:
/// `μ` grows tenfold whenever an outer iteration fails to cut the violation
/// to a quarter of its previous value, up to `1e12`.
#[derive(Debug, Clone, PartialEq)]
pub struct AugLagOptions {
    /// Outer (multiplier-update) iteration cap.
    pub max_outer_iterations: usize,
    /// Constraint-violation target (∞-norm over `max(0, g)` and `|h|`).
    pub violation_tol: f64,
    /// Initial penalty parameter `μ`.
    pub initial_penalty: f64,
    /// Inner-solver options.
    pub inner: LbfgsOptions,
}

impl Default for AugLagOptions {
    fn default() -> Self {
        Self {
            max_outer_iterations: 20,
            violation_tol: 1e-8,
            initial_penalty: 1.0,
            inner: LbfgsOptions::default(),
        }
    }
}

/// Result of a constrained solve.
#[derive(Debug, Clone, PartialEq)]
pub struct AugLagResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective `f(x)` (not the augmented value).
    pub objective: f64,
    /// Largest inequality violation `max(0, gᵢ)` at `x`.
    pub max_inequality_violation: f64,
    /// Largest equality violation `|hⱼ|` at `x`.
    pub max_equality_violation: f64,
    /// Outer iterations taken.
    pub outer_iterations: usize,
    /// Total objective evaluations across all inner solves.
    pub evaluations: usize,
    /// Final multipliers for the inequalities.
    pub inequality_multipliers: Vec<f64>,
    /// Final multipliers for the equalities.
    pub equality_multipliers: Vec<f64>,
    /// Final penalty parameter `μ`; feed it back through
    /// [`AugLagWarmStart`] when resuming a neighbouring problem.
    pub penalty: f64,
    /// `true` when the violation target was met.
    pub feasible: bool,
}

/// Dual/penalty state carried between successive related solves.
///
/// The plain [`augmented_lagrangian`] entry point restarts the multiplier
/// estimates at `ν = λ = 0` and `μ = initial_penalty` every call. When the
/// problem changes only slightly between calls — the situation in a
/// receding-horizon loop, where each epoch re-optimizes the same widths
/// under a mildly different load — the converged multipliers of the previous
/// solve are an excellent estimate for the next one, and carrying them over
/// lets the first inner solve start near the *final* inner problem's
/// stationary point instead of re-walking the whole penalty continuation.
/// Build one from the previous call's [`AugLagResult`] fields.
#[derive(Debug, Clone, PartialEq)]
pub struct AugLagWarmStart {
    /// Inequality multiplier estimates `ν` (entries must be ≥ 0; negative
    /// entries are clamped to 0 on use).
    pub inequality_multipliers: Vec<f64>,
    /// Equality multiplier estimates `λ`.
    pub equality_multipliers: Vec<f64>,
    /// Penalty parameter `μ` to resume at; clamped into
    /// `[initial_penalty, 1e12]` on use.
    pub penalty: f64,
}

impl AugLagWarmStart {
    /// Extracts the resumable dual state from a finished solve.
    #[must_use]
    pub fn from_result(result: &AugLagResult) -> Self {
        Self {
            inequality_multipliers: result.inequality_multipliers.clone(),
            equality_multipliers: result.equality_multipliers.clone(),
            penalty: result.penalty,
        }
    }
}

struct AugLagInner<'a, P: ConstrainedObjective + ?Sized> {
    problem: &'a P,
    nu: Vec<f64>,
    lambda: Vec<f64>,
    mu: f64,
}

impl<P: ConstrainedObjective + ?Sized> Objective for AugLagInner<'_, P> {
    fn dim(&self) -> usize {
        self.problem.dim()
    }

    fn value(&self, x: &[f64]) -> f64 {
        let f = self.problem.objective(x);
        let g = self.problem.inequality(x);
        let h = self.problem.equality(x);
        let mut value = f;
        for (gi, nui) in g.iter().zip(&self.nu) {
            let t = (nui + self.mu * gi).max(0.0);
            value += (t * t - nui * nui) / (2.0 * self.mu);
        }
        for (hj, lj) in h.iter().zip(&self.lambda) {
            value += lj * hj + 0.5 * self.mu * hj * hj;
        }
        value
    }
}

fn violation(g: &[f64], h: &[f64]) -> f64 {
    let gi = g.iter().map(|v| v.max(0.0)).fold(0.0, f64::max);
    let hj = h.iter().map(|v| v.abs()).fold(0.0, f64::max);
    gi.max(hj)
}

/// Solves the constrained problem; see the module docs for the method.
///
/// The start point is projected into the bounds first. When the problem has
/// no `g`/`h` constraints this reduces to one inner L-BFGS solve.
pub fn augmented_lagrangian(
    problem: &dyn ConstrainedObjective,
    bounds: &Bounds,
    x0: &[f64],
    options: &AugLagOptions,
) -> AugLagResult {
    augmented_lagrangian_warm(problem, bounds, x0, options, None)
}

/// [`augmented_lagrangian`] resuming from previously converged dual state.
///
/// `warm` seeds the multipliers `ν`, `λ` and the penalty `μ` (clamped into
/// `[initial_penalty, 1e12]`; negative `ν` entries are clamped to 0).
/// A warm start whose multiplier vectors do not match the problem's
/// constraint counts is ignored — the solve falls back to a cold start
/// rather than erroring, since a mismatch means the problem structure
/// changed and the old duals are meaningless anyway.
pub fn augmented_lagrangian_warm(
    problem: &dyn ConstrainedObjective,
    bounds: &Bounds,
    x0: &[f64],
    options: &AugLagOptions,
    warm: Option<&AugLagWarmStart>,
) -> AugLagResult {
    let mut x = bounds.projected(x0);
    let n_ineq = problem.inequality(&x).len();
    let n_eq = problem.equality(&x).len();
    let dual = warm.filter(|w| {
        w.inequality_multipliers.len() == n_ineq
            && w.equality_multipliers.len() == n_eq
            && w.penalty.is_finite()
    });
    let mut inner = match dual {
        Some(w) => AugLagInner {
            problem,
            nu: w
                .inequality_multipliers
                .iter()
                .map(|v| v.max(0.0))
                .collect(),
            lambda: w.equality_multipliers.clone(),
            mu: w.penalty.clamp(options.initial_penalty, MAX_PENALTY),
        },
        None => AugLagInner {
            problem,
            nu: vec![0.0; n_ineq],
            lambda: vec![0.0; n_eq],
            mu: options.initial_penalty,
        },
    };
    let mut evaluations = 0;
    let mut prev_violation = f64::INFINITY;
    let mut outer_iterations = 0;

    for _ in 0..options.max_outer_iterations {
        outer_iterations += 1;
        let result = lbfgs_b(&inner, bounds, &x, &options.inner);
        evaluations += result.evaluations;
        x = result.x;

        let g = problem.inequality(&x);
        let h = problem.equality(&x);
        let v = violation(&g, &h);
        if v <= options.violation_tol {
            break;
        }
        // Safeguarded first-order updates (Bertsekas): advance the
        // multipliers only when the violation decreased enough; otherwise
        // escalate the penalty and retry. Updating unconditionally lets the
        // multipliers chase inner-solver noise with `μ`-sized increments and
        // diverge once `μ` grows large.
        if v <= VIOLATION_REDUCTION * prev_violation {
            for (nui, gi) in inner.nu.iter_mut().zip(&g) {
                *nui = (*nui + inner.mu * gi).max(0.0);
            }
            for (lj, hj) in inner.lambda.iter_mut().zip(&h) {
                *lj += inner.mu * hj;
            }
            prev_violation = v;
        } else {
            inner.mu = (inner.mu * PENALTY_GROWTH).min(MAX_PENALTY);
        }
        if n_ineq == 0 && n_eq == 0 {
            break;
        }
    }

    let g = problem.inequality(&x);
    let h = problem.equality(&x);
    let max_ineq = g.iter().map(|v| v.max(0.0)).fold(0.0, f64::max);
    let max_eq = h.iter().map(|v| v.abs()).fold(0.0, f64::max);
    AugLagResult {
        objective: problem.objective(&x),
        max_inequality_violation: max_ineq,
        max_equality_violation: max_eq,
        outer_iterations,
        evaluations,
        inequality_multipliers: inner.nu,
        equality_multipliers: inner.lambda,
        penalty: inner.mu,
        feasible: max_ineq.max(max_eq) <= options.violation_tol.max(1e-6),
        x,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// min (x−2)² s.t. x ≤ 1 (written as g = x − 1 ≤ 0): optimum x = 1.
    struct IneqToy;
    impl ConstrainedObjective for IneqToy {
        fn dim(&self) -> usize {
            1
        }
        fn objective(&self, x: &[f64]) -> f64 {
            (x[0] - 2.0).powi(2)
        }
        fn inequality(&self, x: &[f64]) -> Vec<f64> {
            vec![x[0] - 1.0]
        }
    }

    #[test]
    fn inequality_becomes_active() {
        let bounds = Bounds::uniform(1, -5.0, 5.0).unwrap();
        let r = augmented_lagrangian(&IneqToy, &bounds, &[0.0], &AugLagOptions::default());
        assert!((r.x[0] - 1.0).abs() < 1e-4, "x = {:?}", r.x);
        assert!(r.feasible, "violation {}", r.max_inequality_violation);
        assert!(
            r.inequality_multipliers[0] > 0.1,
            "active constraint has λ > 0"
        );
    }

    /// min x² + y² s.t. x + y = 1: optimum (0.5, 0.5).
    struct EqToy;
    impl ConstrainedObjective for EqToy {
        fn dim(&self) -> usize {
            2
        }
        fn objective(&self, x: &[f64]) -> f64 {
            x[0] * x[0] + x[1] * x[1]
        }
        fn equality(&self, x: &[f64]) -> Vec<f64> {
            vec![x[0] + x[1] - 1.0]
        }
    }

    #[test]
    fn equality_constraint_is_met() {
        let bounds = Bounds::uniform(2, -5.0, 5.0).unwrap();
        let r = augmented_lagrangian(&EqToy, &bounds, &[2.0, -1.0], &AugLagOptions::default());
        assert!((r.x[0] - 0.5).abs() < 1e-4, "x = {:?}", r.x);
        assert!((r.x[1] - 0.5).abs() < 1e-4);
        assert!(r.max_equality_violation < 1e-5);
        // λ* = −1 for this problem (∇f = −λ∇h → 2·0.5 = −λ).
        assert!((r.equality_multipliers[0] + 1.0).abs() < 1e-2);
    }

    /// Inactive inequality: min (x−0.2)² s.t. x ≤ 1 — interior optimum.
    struct InactiveToy;
    impl ConstrainedObjective for InactiveToy {
        fn dim(&self) -> usize {
            1
        }
        fn objective(&self, x: &[f64]) -> f64 {
            (x[0] - 0.2).powi(2)
        }
        fn inequality(&self, x: &[f64]) -> Vec<f64> {
            vec![x[0] - 1.0]
        }
    }

    #[test]
    fn inactive_constraint_leaves_unconstrained_optimum() {
        let bounds = Bounds::uniform(1, -5.0, 5.0).unwrap();
        let r = augmented_lagrangian(&InactiveToy, &bounds, &[3.0], &AugLagOptions::default());
        assert!((r.x[0] - 0.2).abs() < 1e-5);
        assert!(
            r.inequality_multipliers[0].abs() < 1e-6,
            "inactive constraint has λ = 0"
        );
    }

    /// Mixed: min (x−3)² + (y−3)² s.t. x + y = 2, x − y ≤ 0.5.
    /// With the equality, optimum of the objective along x+y=2 is (1,1),
    /// which satisfies x − y = 0 ≤ 0.5 → solution (1,1).
    struct Mixed;
    impl ConstrainedObjective for Mixed {
        fn dim(&self) -> usize {
            2
        }
        fn objective(&self, x: &[f64]) -> f64 {
            (x[0] - 3.0).powi(2) + (x[1] - 3.0).powi(2)
        }
        fn inequality(&self, x: &[f64]) -> Vec<f64> {
            vec![x[0] - x[1] - 0.5]
        }
        fn equality(&self, x: &[f64]) -> Vec<f64> {
            vec![x[0] + x[1] - 2.0]
        }
    }

    #[test]
    fn mixed_constraints() {
        let bounds = Bounds::uniform(2, -5.0, 5.0).unwrap();
        let r = augmented_lagrangian(&Mixed, &bounds, &[0.0, 0.0], &AugLagOptions::default());
        assert!((r.x[0] - 1.0).abs() < 1e-3, "x = {:?}", r.x);
        assert!((r.x[1] - 1.0).abs() < 1e-3);
        assert!(r.feasible);
    }

    #[test]
    fn unconstrained_problem_is_single_inner_solve() {
        struct Free;
        impl ConstrainedObjective for Free {
            fn dim(&self) -> usize {
                1
            }
            fn objective(&self, x: &[f64]) -> f64 {
                (x[0] - 0.3).powi(2)
            }
        }
        let bounds = Bounds::uniform(1, -1.0, 1.0).unwrap();
        let r = augmented_lagrangian(&Free, &bounds, &[0.9], &AugLagOptions::default());
        assert_eq!(r.outer_iterations, 1);
        assert!((r.x[0] - 0.3).abs() < 1e-6);
        assert!(r.feasible);
    }

    #[test]
    fn bounds_and_constraints_compose() {
        // min (x−2)² s.t. x ≤ 1 AND box x ∈ [0, 0.7]: the box wins → x = 0.7.
        let bounds = Bounds::uniform(1, 0.0, 0.7).unwrap();
        let r = augmented_lagrangian(&IneqToy, &bounds, &[0.0], &AugLagOptions::default());
        assert!((r.x[0] - 0.7).abs() < 1e-6);
    }

    #[test]
    fn warm_start_resumes_in_fewer_evaluations() {
        let bounds = Bounds::uniform(2, -5.0, 5.0).unwrap();
        // Production-style tolerances (the design flow runs at 1e-3/1e-4):
        // at the default 1e-8 the multiplier steps near the optimum are
        // larger than the tolerance band itself and both runs churn.
        let opts = AugLagOptions {
            violation_tol: 1e-4,
            max_outer_iterations: 8,
            ..AugLagOptions::default()
        };
        let cold = augmented_lagrangian(&Mixed, &bounds, &[0.0, 0.0], &opts);
        assert!(cold.feasible);
        let warm_state = AugLagWarmStart::from_result(&cold);
        let warm = augmented_lagrangian_warm(&Mixed, &bounds, &cold.x, &opts, Some(&warm_state));
        assert!((warm.x[0] - 1.0).abs() < 1e-3, "x = {:?}", warm.x);
        assert!((warm.x[1] - 1.0).abs() < 1e-3);
        assert!(warm.feasible);
        // With converged duals the first inner solve already sits at the
        // stationary point of the final inner problem.
        assert!(
            warm.evaluations < cold.evaluations,
            "warm {} vs cold {} evaluations",
            warm.evaluations,
            cold.evaluations
        );
        assert!(warm.outer_iterations <= cold.outer_iterations);
    }

    #[test]
    fn mismatched_warm_start_falls_back_to_cold() {
        let bounds = Bounds::uniform(2, -5.0, 5.0).unwrap();
        let opts = AugLagOptions::default();
        let bogus = AugLagWarmStart {
            inequality_multipliers: vec![1.0, 2.0, 3.0], // Mixed has 1 inequality
            equality_multipliers: vec![],                // …and 1 equality
            penalty: 100.0,
        };
        let r = augmented_lagrangian_warm(&Mixed, &bounds, &[0.0, 0.0], &opts, Some(&bogus));
        let cold = augmented_lagrangian(&Mixed, &bounds, &[0.0, 0.0], &opts);
        assert_eq!(r, cold, "bad dual state must be ignored, not applied");
    }

    #[test]
    fn warm_start_sanitizes_penalty_and_multipliers() {
        let bounds = Bounds::uniform(1, -5.0, 5.0).unwrap();
        let opts = AugLagOptions::default();
        // Negative ν and an out-of-range μ must be clamped, not trusted.
        let sketchy = AugLagWarmStart {
            inequality_multipliers: vec![-3.0],
            equality_multipliers: vec![],
            penalty: 1e30,
        };
        let r = augmented_lagrangian_warm(&IneqToy, &bounds, &[0.0], &opts, Some(&sketchy));
        assert!((r.x[0] - 1.0).abs() < 1e-4, "x = {:?}", r.x);
        assert!(r.feasible);
        assert!(r.penalty <= MAX_PENALTY);
        assert!(r.inequality_multipliers[0] >= 0.0);
    }

    #[test]
    fn result_reports_final_penalty() {
        let bounds = Bounds::uniform(2, -5.0, 5.0).unwrap();
        let opts = AugLagOptions::default();
        let r = augmented_lagrangian(&Mixed, &bounds, &[0.0, 0.0], &opts);
        assert!(r.penalty >= opts.initial_penalty, "μ = {}", r.penalty);
        assert!(r.penalty <= MAX_PENALTY);
    }
}
