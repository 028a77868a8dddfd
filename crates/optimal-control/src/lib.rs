//! A self-contained nonlinear-programming toolkit for the *direct
//! sequential* optimal-control method (control vector parameterization).
//!
//! The DATE'12 channel-modulation paper formulates thermal balancing as an
//! optimal control problem (its Eq. 7): minimize an integral cost over the
//! channel-width control function, subject to the thermal ODE, box bounds on
//! the control (Eq. 8) and pressure constraints (Eq. 9–10), and solves it by
//! the direct sequential method — piecewise-constant controls and a
//! nonlinear program over the segment values. This crate supplies that NLP
//! layer, from scratch:
//!
//! * [`Objective`] / [`ConstrainedObjective`] — problem contracts. Costs are
//!   expensive (each evaluation integrates a BVP), so evaluation counts are
//!   tracked in every report.
//! * [`gradient`] — forward/central finite differences, with an optional
//!   multi-threaded forward mode for expensive objectives.
//! * [`Bounds`] — box constraints with projection (the natural home of the
//!   paper's width bounds).
//! * [`lbfgs_b`] — projected limited-memory quasi-Newton with Armijo
//!   backtracking along the projected path.
//! * [`augmented_lagrangian`] — PHR augmented Lagrangian handling
//!   `g(x) ≤ 0` and `h(x) = 0` constraints around the L-BFGS inner solver.
//!
//! The augmented Lagrangian over projected L-BFGS is the one NLP path: every
//! design, epoch, fleet segment and serve decision runs through it.
//!
//! The solvers' internal schedule is fixed, not configurable: L-BFGS keeps
//! 8 curvature pairs and differentiates with the relative forward step
//! [`gradient::DEFAULT_RELATIVE_STEP`], and the augmented Lagrangian grows
//! `μ` tenfold whenever an outer iteration fails to cut the violation to a
//! quarter of its previous value, up to `μ = 1e12`. [`LbfgsOptions`] and
//! [`AugLagOptions`] carry only what callers set: iteration caps,
//! tolerances, the initial penalty and the finite-difference worker count.
//!
//! # Example
//!
//! ```
//! use liquamod_optimal_control::{lbfgs_b, Bounds, LbfgsOptions, Objective};
//!
//! struct Quadratic;
//! impl Objective for Quadratic {
//!     fn dim(&self) -> usize { 2 }
//!     fn value(&self, x: &[f64]) -> f64 {
//!         (x[0] - 3.0).powi(2) + 10.0 * (x[1] + 1.0).powi(2)
//!     }
//! }
//!
//! let bounds = Bounds::new(vec![0.0, 0.0], vec![2.0, 2.0])?;
//! let result = lbfgs_b(&Quadratic, &bounds, &[1.0, 1.0], &LbfgsOptions::default());
//! // The unconstrained optimum (3, −1) projects onto the box corner (2, 0).
//! assert!((result.x[0] - 2.0).abs() < 1e-6);
//! assert!(result.x[1].abs() < 1e-6);
//! # Ok::<(), liquamod_optimal_control::OptimalControlError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod auglag;
mod bounds;
mod error;
pub mod gradient;
mod lbfgs;
mod linesearch;
mod problem;
mod report;

pub use auglag::{
    augmented_lagrangian, augmented_lagrangian_warm, AugLagOptions, AugLagResult, AugLagWarmStart,
};
pub use bounds::Bounds;
pub use error::OptimalControlError;
pub use lbfgs::{lbfgs_b, LbfgsOptions};
pub use problem::{ConstrainedObjective, CountingObjective, Objective};
pub use report::{OptimizeResult, StopReason};

/// Convenient result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, OptimalControlError>;
