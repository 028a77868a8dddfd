//! Optimization result reporting.

/// Why a solver stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Projected-gradient stationarity fell below tolerance.
    Stationary,
    /// Objective improvement fell below tolerance.
    SmallImprovement,
    /// Step size collapsed in the line search.
    LineSearchFailed,
    /// Iteration cap reached.
    MaxIterations,
}

/// Outcome of a box-constrained solve.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeResult {
    /// Best point found (inside the bounds).
    pub x: Vec<f64>,
    /// Objective at `x`.
    pub objective: f64,
    /// Iterations taken.
    pub iterations: usize,
    /// Objective evaluations consumed (including finite differences).
    pub evaluations: usize,
    /// Why the solver stopped.
    pub stop: StopReason,
    /// Objective value after each iteration (for convergence plots).
    pub history: Vec<f64>,
}

impl OptimizeResult {
    /// `true` when the solver stopped for a convergence-like reason rather
    /// than hitting its iteration cap.
    pub fn converged(&self) -> bool {
        matches!(
            self.stop,
            StopReason::Stationary | StopReason::SmallImprovement
        )
    }

    /// Relative improvement from the first to the last recorded objective.
    pub fn total_improvement(&self) -> f64 {
        match (self.history.first(), self.history.last()) {
            (Some(&first), Some(&last)) if first.abs() > 0.0 => (first - last) / first.abs(),
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convergence_classification() {
        let mut r = OptimizeResult {
            x: vec![0.0],
            objective: 1.0,
            iterations: 3,
            evaluations: 12,
            stop: StopReason::Stationary,
            history: vec![4.0, 2.0, 1.0],
        };
        assert!(r.converged());
        r.stop = StopReason::MaxIterations;
        assert!(!r.converged());
        r.stop = StopReason::LineSearchFailed;
        assert!(!r.converged());
    }

    #[test]
    fn improvement() {
        let r = OptimizeResult {
            x: vec![],
            objective: 1.0,
            iterations: 0,
            evaluations: 0,
            stop: StopReason::Stationary,
            history: vec![4.0, 1.0],
        };
        assert!((r.total_improvement() - 0.75).abs() < 1e-12);
        let empty = OptimizeResult {
            history: vec![],
            ..r
        };
        assert_eq!(empty.total_improvement(), 0.0);
    }
}
