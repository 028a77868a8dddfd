//! Error type for the grid simulator.

use std::fmt;

/// Error returned by stack construction and solving.
#[derive(Debug, Clone, PartialEq)]
pub enum GridSimError {
    /// The stack description is inconsistent.
    InvalidStack {
        /// Human-readable description of the problem.
        what: String,
    },
    /// A power map's grid does not match the stack grid.
    PowerMapMismatch {
        /// Expected `(nx, nz)`.
        expected: (usize, usize),
        /// Provided `(nx, nz)`.
        got: (usize, usize),
    },
    /// The iterative solver failed to converge.
    NoConvergence {
        /// Iterations performed before giving up.
        iterations: usize,
        /// Final relative residual.
        residual: f64,
    },
    /// A transient-stepping option is invalid.
    InvalidTransient {
        /// Human-readable description of the problem.
        what: String,
    },
}

impl fmt::Display for GridSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridSimError::InvalidStack { what } => write!(f, "invalid stack: {what}"),
            GridSimError::PowerMapMismatch { expected, got } => write!(
                f,
                "power map grid {}x{} does not match stack grid {}x{}",
                got.0, got.1, expected.0, expected.1
            ),
            GridSimError::NoConvergence { iterations, residual } => write!(
                f,
                "linear solver did not converge after {iterations} iterations (residual {residual:.3e})"
            ),
            GridSimError::InvalidTransient { what } => write!(f, "invalid transient options: {what}"),
        }
    }
}

impl std::error::Error for GridSimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(GridSimError::InvalidStack {
            what: "no layers".into()
        }
        .to_string()
        .contains("no layers"));
        assert!(GridSimError::PowerMapMismatch {
            expected: (10, 20),
            got: (5, 5)
        }
        .to_string()
        .contains("5x5"));
        assert!(GridSimError::NoConvergence {
            iterations: 100,
            residual: 1e-3
        }
        .to_string()
        .contains("100"));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<GridSimError>();
    }
}
