//! The iterative sparse solver: BiCGSTAB with Jacobi preconditioning.
//!
//! Advection makes the assembled conductance matrix nonsymmetric, ruling out
//! plain conjugate gradients; BiCGSTAB is the standard Krylov method for
//! this class of convection–diffusion systems.

use crate::sparse::CsrMatrix;
use crate::GridSimError;

/// Convergence controls for [`bicgstab`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolverOptions {
    /// Relative residual target `‖b − Ax‖/‖b‖`.
    pub tolerance: f64,
    /// Iteration cap before reporting failure.
    pub max_iterations: usize,
}

impl Default for SolverOptions {
    fn default() -> Self {
        Self {
            tolerance: 1e-10,
            max_iterations: 20_000,
        }
    }
}

/// Outcome of a converged solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveStats {
    /// Iterations used.
    pub iterations: usize,
    /// Final relative residual.
    pub residual: f64,
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Solves `A·x = b` by Jacobi-preconditioned BiCGSTAB, starting from `x0`.
///
/// Returns the solution and the iteration statistics.
///
/// # Errors
///
/// [`GridSimError::NoConvergence`] if the residual target is not met within
/// the iteration cap, or the method breaks down (`ρ → 0`).
///
/// # Panics
///
/// Panics if the dimensions of `b` or `x0` disagree with `a`.
pub fn bicgstab(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    options: &SolverOptions,
) -> Result<(Vec<f64>, SolveStats), GridSimError> {
    let n = a.size();
    assert_eq!(b.len(), n);
    assert_eq!(x0.len(), n);

    // Jacobi preconditioner M⁻¹ = 1/diag(A) (identity where the diagonal
    // vanishes — assembly always produces positive diagonals in practice).
    let inv_diag: Vec<f64> = a
        .diagonal()
        .iter()
        .map(|&d| if d.abs() > 0.0 { 1.0 / d } else { 1.0 })
        .collect();

    let b_norm = norm(b).max(f64::MIN_POSITIVE);
    let mut x = x0.to_vec();
    let mut r = b.to_vec();
    let ax = a.mul(&x);
    for i in 0..n {
        r[i] -= ax[i];
    }
    let r0 = r.clone();
    let mut rho = 1.0;
    let mut alpha = 1.0;
    let mut omega = 1.0;
    let mut v = vec![0.0; n];
    let mut p = vec![0.0; n];
    let mut residual = norm(&r) / b_norm;
    if residual <= options.tolerance {
        return Ok((
            x,
            SolveStats {
                iterations: 0,
                residual,
            },
        ));
    }

    for it in 1..=options.max_iterations {
        let rho_next = dot(&r0, &r);
        if rho_next.abs() < 1e-300 {
            return Err(GridSimError::NoConvergence {
                iterations: it,
                residual,
            });
        }
        let beta = (rho_next / rho) * (alpha / omega);
        rho = rho_next;
        for i in 0..n {
            p[i] = r[i] + beta * (p[i] - omega * v[i]);
        }
        // Preconditioned direction.
        let p_hat: Vec<f64> = p.iter().zip(&inv_diag).map(|(pi, di)| pi * di).collect();
        a.mul_into(&p_hat, &mut v);
        alpha = rho / dot(&r0, &v);
        let s: Vec<f64> = (0..n).map(|i| r[i] - alpha * v[i]).collect();
        if norm(&s) / b_norm <= options.tolerance {
            for i in 0..n {
                x[i] += alpha * p_hat[i];
            }
            let final_res = norm(&s) / b_norm;
            return Ok((
                x,
                SolveStats {
                    iterations: it,
                    residual: final_res,
                },
            ));
        }
        let s_hat: Vec<f64> = s.iter().zip(&inv_diag).map(|(si, di)| si * di).collect();
        let t = a.mul(&s_hat);
        let tt = dot(&t, &t);
        if tt.abs() < 1e-300 {
            return Err(GridSimError::NoConvergence {
                iterations: it,
                residual,
            });
        }
        omega = dot(&t, &s) / tt;
        for i in 0..n {
            x[i] += alpha * p_hat[i] + omega * s_hat[i];
            r[i] = s[i] - omega * t[i];
        }
        residual = norm(&r) / b_norm;
        if residual <= options.tolerance {
            return Ok((
                x,
                SolveStats {
                    iterations: it,
                    residual,
                },
            ));
        }
        if omega.abs() < 1e-300 {
            return Err(GridSimError::NoConvergence {
                iterations: it,
                residual,
            });
        }
    }
    Err(GridSimError::NoConvergence {
        iterations: options.max_iterations,
        residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletMatrix;

    /// 1D Poisson matrix with Dirichlet-ish anchoring on the first node.
    fn poisson(n: usize) -> CsrMatrix {
        let mut t = TripletMatrix::new(n);
        for i in 0..n {
            t.add(i, i, 2.0 + if i == 0 { 1.0 } else { 0.0 });
            if i > 0 {
                t.add(i, i - 1, -1.0);
            }
            if i + 1 < n {
                t.add(i, i + 1, -1.0);
            }
        }
        t.to_csr()
    }

    /// Nonsymmetric convection–diffusion-like matrix.
    fn advective(n: usize) -> CsrMatrix {
        let mut t = TripletMatrix::new(n);
        for i in 0..n {
            t.add(i, i, 3.0);
            if i > 0 {
                t.add(i, i - 1, -2.0); // upwind
            }
            if i + 1 < n {
                t.add(i, i + 1, -0.5);
            }
        }
        t.to_csr()
    }

    #[test]
    fn bicgstab_solves_spd() {
        let a = poisson(50);
        let x_true: Vec<f64> = (0..50).map(|i| ((i as f64) * 0.3).sin()).collect();
        let b = a.mul(&x_true);
        let (x, stats) = bicgstab(&a, &b, &vec![0.0; 50], &SolverOptions::default()).unwrap();
        for i in 0..50 {
            assert!((x[i] - x_true[i]).abs() < 1e-7, "x[{i}]");
        }
        assert!(stats.iterations < 200);
    }

    #[test]
    fn bicgstab_solves_nonsymmetric() {
        let a = advective(80);
        let x_true: Vec<f64> = (0..80).map(|i| 1.0 + (i % 7) as f64).collect();
        let b = a.mul(&x_true);
        let (x, _) = bicgstab(&a, &b, &vec![0.0; 80], &SolverOptions::default()).unwrap();
        for i in 0..80 {
            assert!(
                (x[i] - x_true[i]).abs() < 1e-6,
                "x[{i}] = {} vs {}",
                x[i],
                x_true[i]
            );
        }
    }

    #[test]
    fn bicgstab_zero_rhs_is_immediate() {
        let a = poisson(10);
        let (x, stats) = bicgstab(&a, &[0.0; 10], &[0.0; 10], &SolverOptions::default()).unwrap();
        assert!(x.iter().all(|&v| v == 0.0));
        assert_eq!(stats.iterations, 0);
    }

    #[test]
    fn bicgstab_respects_iteration_cap() {
        let a = poisson(100);
        let b = vec![1.0; 100];
        let err = bicgstab(
            &a,
            &b,
            &vec![0.0; 100],
            &SolverOptions {
                tolerance: 1e-14,
                max_iterations: 2,
            },
        );
        assert!(matches!(err, Err(GridSimError::NoConvergence { .. })));
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let a = poisson(200);
        let x_true: Vec<f64> = (0..200).map(|i| (i as f64 * 0.05).sin()).collect();
        let b = a.mul(&x_true);
        let opts = SolverOptions::default();
        let (_, cold) = bicgstab(&a, &b, &vec![0.0; 200], &opts).unwrap();
        let mut warm_guess = x_true.clone();
        warm_guess.iter_mut().for_each(|v| *v += 1e-6);
        let (_, warm) = bicgstab(&a, &b, &warm_guess, &opts).unwrap();
        assert!(warm.iterations <= cold.iterations);
    }
}
