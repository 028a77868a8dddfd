//! Projected L-BFGS for box-constrained minimization.
//!
//! A limited-memory BFGS direction (two-loop recursion over the last `m`
//! curvature pairs) combined with projection onto the bounds and Armijo
//! backtracking along the projected ray. Components pinned at an active
//! bound with an outward-pointing model direction are handled by the
//! projection itself; curvature pairs that fail the positivity test
//! (`yᵀs ≤ 0`, which projection can produce) are skipped, falling back to
//! the well-scaled gradient direction.

use crate::gradient;
use crate::linesearch::armijo_projected;
use crate::report::{OptimizeResult, StopReason};
use crate::{Bounds, CountingObjective, Objective};
use std::collections::VecDeque;

/// History length `m`: curvature pairs retained.
const MEMORY: usize = 8;
/// Relative step of the forward-difference gradient.
const FD_STEP: f64 = gradient::DEFAULT_RELATIVE_STEP;

/// Options for [`lbfgs_b`]. The history length (8 curvature pairs) and the
/// relative finite-difference step ([`gradient::DEFAULT_RELATIVE_STEP`])
/// are fixed.
#[derive(Debug, Clone, PartialEq)]
pub struct LbfgsOptions {
    /// Iteration cap.
    pub max_iterations: usize,
    /// Stop when projected-gradient stationarity falls below this.
    pub stationarity_tol: f64,
    /// Stop when the per-iteration relative improvement falls below this.
    pub improvement_tol: f64,
    /// Worker threads for the finite-difference gradient.
    pub fd_threads: usize,
}

impl Default for LbfgsOptions {
    fn default() -> Self {
        Self {
            max_iterations: 200,
            stationarity_tol: 1e-8,
            improvement_tol: 1e-10,
            fd_threads: 1,
        }
    }
}

/// Two-loop recursion: applies the inverse-Hessian approximation to `grad`,
/// writing the model direction into `q` (`alphas` is per-call scratch; both
/// buffers are reused across iterations by the caller).
fn two_loop(
    grad: &[f64],
    pairs: &VecDeque<(Vec<f64>, Vec<f64>, f64)>, // (s, y, 1/yᵀs)
    q: &mut Vec<f64>,
    alphas: &mut Vec<f64>,
) {
    q.clear();
    q.extend_from_slice(grad);
    alphas.clear();
    for (s, y, rho) in pairs.iter().rev() {
        let alpha = rho * dot(s, q);
        for (qi, yi) in q.iter_mut().zip(y) {
            *qi -= alpha * yi;
        }
        alphas.push(alpha);
    }
    // Initial scaling H₀ = γI with γ = sᵀy/yᵀy of the most recent pair.
    if let Some((s, y, _)) = pairs.back() {
        let gamma = dot(s, y) / dot(y, y).max(1e-300);
        q.iter_mut().for_each(|qi| *qi *= gamma);
    }
    for ((s, y, rho), alpha) in pairs.iter().zip(alphas.iter().copied().rev()) {
        let beta = rho * dot(y, q);
        for (qi, si) in q.iter_mut().zip(s) {
            *qi += (alpha - beta) * si;
        }
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Minimizes `obj` over the box by projected L-BFGS.
///
/// The start point is projected into the bounds first. A non-finite
/// objective at the start yields an immediate
/// [`StopReason::LineSearchFailed`] result at the projected start.
pub fn lbfgs_b(
    obj: &dyn Objective,
    bounds: &Bounds,
    x0: &[f64],
    options: &LbfgsOptions,
) -> OptimizeResult {
    let counting = CountingObjective::new(obj);
    let mut x = bounds.projected(x0);
    let mut f = counting.value(&x);
    let mut history = vec![f];
    let dim = x.len();

    if !f.is_finite() {
        return OptimizeResult {
            x,
            objective: f,
            iterations: 0,
            evaluations: counting.count(),
            stop: StopReason::LineSearchFailed,
            history,
        };
    }

    let mut grad = vec![0.0; dim];
    gradient::forward_diff_parallel(
        &counting,
        &x,
        f,
        FD_STEP,
        &mut grad,
        options.fd_threads.max(1),
    );

    let mut pairs: VecDeque<(Vec<f64>, Vec<f64>, f64)> = VecDeque::new();
    let mut stop = StopReason::MaxIterations;
    let mut iterations = 0;
    // Iteration-scoped buffers, allocated once and recycled.
    let mut direction: Vec<f64> = Vec::with_capacity(dim);
    let mut alphas: Vec<f64> = Vec::with_capacity(MEMORY);
    let mut grad_scratch: Vec<f64> = vec![0.0; dim];

    for _ in 0..options.max_iterations {
        iterations += 1;
        if bounds.stationarity(&x, &grad) < options.stationarity_tol {
            stop = StopReason::Stationary;
            break;
        }
        // Quasi-Newton direction; fall back to a scaled gradient when the
        // model direction is not a descent direction.
        two_loop(&grad, &pairs, &mut direction, &mut alphas);
        if dot(&direction, &grad) <= 0.0 {
            direction.clear();
            direction.extend_from_slice(&grad);
        }
        let ls = armijo_projected(&counting, bounds, &x, f, &grad, &direction);
        if ls.step == 0.0 {
            // Retry with pure gradient before declaring failure — the
            // quasi-Newton direction can be poor right after projection
            // changes the active set.
            let ls_grad = armijo_projected(&counting, bounds, &x, f, &grad, &grad);
            if ls_grad.step == 0.0 {
                // A failed backtracking search from the gradient direction
                // means the attainable decrease is below the
                // finite-difference noise floor; after any real progress
                // that is convergence, not error.
                stop = if history.len() > 1 {
                    StopReason::SmallImprovement
                } else {
                    StopReason::LineSearchFailed
                };
                break;
            }
            pairs.clear();
            update_state(
                &counting,
                options,
                &mut x,
                &mut f,
                &mut grad,
                &mut grad_scratch,
                &mut pairs,
                ls_grad.x,
                ls_grad.f,
            );
            history.push(f);
            continue;
        }
        let improvement = (f - ls.f) / f.abs().max(1e-30);
        update_state(
            &counting,
            options,
            &mut x,
            &mut f,
            &mut grad,
            &mut grad_scratch,
            &mut pairs,
            ls.x,
            ls.f,
        );
        history.push(f);
        if improvement < options.improvement_tol {
            stop = StopReason::SmallImprovement;
            break;
        }
    }

    OptimizeResult {
        x,
        objective: f,
        iterations,
        evaluations: counting.count(),
        stop,
        history,
    }
}

/// Moves to the accepted point, refreshes the gradient (into the reusable
/// `grad_scratch`, which is then swapped with `grad`) and pushes the new
/// curvature pair when it passes the positivity test. Evicted pairs donate
/// their storage to the new one, so a full history churns without
/// reallocating.
#[allow(clippy::too_many_arguments)]
fn update_state<O: Objective + ?Sized>(
    counting: &CountingObjective<'_, O>,
    options: &LbfgsOptions,
    x: &mut Vec<f64>,
    f: &mut f64,
    grad: &mut Vec<f64>,
    grad_scratch: &mut Vec<f64>,
    pairs: &mut VecDeque<(Vec<f64>, Vec<f64>, f64)>,
    x_new: Vec<f64>,
    f_new: f64,
) {
    grad_scratch.clear();
    grad_scratch.resize(x.len(), 0.0);
    gradient::forward_diff_parallel(
        counting,
        &x_new,
        f_new,
        FD_STEP,
        grad_scratch,
        options.fd_threads.max(1),
    );
    let grad_new = grad_scratch;
    // Positivity test without materializing (s, y): identical summation
    // order to `dot` on the materialized vectors.
    let mut sy = 0.0;
    let mut ss = 0.0;
    let mut yy = 0.0;
    for i in 0..x.len() {
        let si = x_new[i] - x[i];
        let yi = grad_new[i] - grad[i];
        sy += si * yi;
        ss += si * si;
        yy += yi * yi;
    }
    if sy > 1e-12 * ss.sqrt() * yy.sqrt() {
        // Only a passing pair evicts history; the evicted pair donates its
        // storage so a churning full history does not reallocate.
        let (mut s, mut y) = if pairs.len() == MEMORY {
            let (s, y, _) = pairs.pop_front().expect("non-empty history");
            (s, y)
        } else {
            (Vec::with_capacity(x.len()), Vec::with_capacity(x.len()))
        };
        s.clear();
        s.extend(x_new.iter().zip(x.iter()).map(|(a, b)| a - b));
        y.clear();
        y.extend(grad_new.iter().zip(grad.iter()).map(|(a, b)| a - b));
        pairs.push_back((s, y, 1.0 / sy));
    }
    *x = x_new;
    *f = f_new;
    std::mem::swap(grad, grad_new);
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Rosenbrock;
    impl Objective for Rosenbrock {
        fn dim(&self) -> usize {
            2
        }
        fn value(&self, x: &[f64]) -> f64 {
            (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2)
        }
    }

    #[test]
    fn solves_rosenbrock_inside_box() {
        let bounds = Bounds::uniform(2, -2.0, 2.0).unwrap();
        let r = lbfgs_b(
            &Rosenbrock,
            &bounds,
            &[-1.2, 1.0],
            &LbfgsOptions {
                max_iterations: 500,
                ..Default::default()
            },
        );
        assert!((r.x[0] - 1.0).abs() < 1e-3, "x = {:?} ({:?})", r.x, r.stop);
        assert!((r.x[1] - 1.0).abs() < 1e-3);
        assert!(r.objective < 1e-6);
    }

    #[test]
    fn solves_bound_pinned_problem() {
        // Optimum of the sphere at (2,2) lies outside the [−1,1]² box.
        struct Shifted;
        impl Objective for Shifted {
            fn dim(&self) -> usize {
                2
            }
            fn value(&self, x: &[f64]) -> f64 {
                (x[0] - 2.0).powi(2) + (x[1] - 2.0).powi(2)
            }
        }
        let bounds = Bounds::uniform(2, -1.0, 1.0).unwrap();
        let r = lbfgs_b(&Shifted, &bounds, &[0.0, 0.0], &LbfgsOptions::default());
        assert!((r.x[0] - 1.0).abs() < 1e-6);
        assert!((r.x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn solves_ill_conditioned_quadratic() {
        // Curvatures 1, 10, 100, 1000 along the axes: the quasi-Newton
        // model must absorb the 1000:1 scaling that stalls steepest descent.
        struct IllQuad;
        impl Objective for IllQuad {
            fn dim(&self) -> usize {
                4
            }
            fn value(&self, x: &[f64]) -> f64 {
                x.iter()
                    .enumerate()
                    .map(|(i, v)| 10f64.powi(i as i32) * (v - 0.5) * (v - 0.5))
                    .sum()
            }
        }
        let bounds = Bounds::uniform(4, 0.0, 1.0).unwrap();
        let opts = LbfgsOptions {
            max_iterations: 60,
            ..Default::default()
        };
        let r = lbfgs_b(&IllQuad, &bounds, &[0.1; 4], &opts);
        assert!(r.objective < 1e-6, "lbfgs should nail the quadratic");
    }

    #[test]
    fn history_non_increasing_and_evaluations_counted() {
        let bounds = Bounds::uniform(2, -2.0, 2.0).unwrap();
        let r = lbfgs_b(&Rosenbrock, &bounds, &[0.0, 0.0], &LbfgsOptions::default());
        for w in r.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        // At least dim+1 evaluations per iteration (gradient + line search).
        assert!(r.evaluations >= r.iterations * 3);
    }

    #[test]
    fn degenerate_one_dimensional_problem() {
        struct Abs;
        impl Objective for Abs {
            fn dim(&self) -> usize {
                1
            }
            fn value(&self, x: &[f64]) -> f64 {
                (x[0] - 0.25).powi(2)
            }
        }
        let bounds = Bounds::uniform(1, 0.0, 1.0).unwrap();
        let r = lbfgs_b(&Abs, &bounds, &[0.9], &LbfgsOptions::default());
        assert!((r.x[0] - 0.25).abs() < 1e-6);
    }
}
