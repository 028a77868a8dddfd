//! Midpoint-collocation assembly and solve for the channel-stack BVP.
//!
//! The linear ODE `dX/dz = A(z)·X + b(z)` with separated boundary conditions
//! is discretized on a breakpoint-aligned mesh `z_0 < z_1 < … < z_n` by the
//! second-order midpoint (box) scheme: for each interval,
//!
//! `X_{j+1} − X_j = h_j · [A(z_{j+½})·(X_j + X_{j+1})/2 + b(z_{j+½})]`
//!
//! All node states are solved simultaneously from one banded linear system;
//! boundary-condition rows are placed first (inlet-side) and last
//! (outlet-side) to keep the bandwidth at `O(states)`. This global approach
//! is immune to the exponential dichotomy that defeats single shooting on
//! this problem (see the crate docs).

use crate::linalg::{BandedLu, BandedMatrix, SingularMatrix};

/// Which channel end a boundary condition applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BcEnd {
    /// `z = 0`.
    Start,
    /// `z = d`.
    End,
}

/// A Dirichlet boundary condition on one state component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BoundaryCondition {
    /// Index of the constrained state component.
    pub state: usize,
    /// Which end of the domain the value is pinned at.
    pub end: BcEnd,
    /// The pinned value (SI units of the state).
    pub value: f64,
}

/// Callback contract for supplying the ODE coefficients at a position.
///
/// Implementors fill `a` (dense row-major `n_states × n_states`) and `b`
/// (length `n_states`) with `dX/dz = A·X + b` evaluated at `z`.
pub(crate) trait Coefficients {
    /// Number of state components.
    fn n_states(&self) -> usize;
    /// Evaluates `A(z)` and `b(z)` into the provided buffers.
    fn eval(&self, z: f64, a: &mut [f64], b: &mut [f64]);
}

/// Solution of the collocation system: states at every mesh node (the
/// one-shot [`solve`] wrapper's output; production code goes through
/// [`solve_into`] and reads the flat workspace states directly).
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct BvpSolution {
    /// Mesh nodes (metres from the inlet).
    pub z: Vec<f64>,
    /// `states[j]` is the state vector at `z[j]`.
    pub states: Vec<Vec<f64>>,
}

/// Builds the mesh: `base_intervals` uniform intervals on `[0, d]` merged
/// with the supplied breakpoints (deduplicated; near-coincident nodes within
/// `d·1e-12` collapse so intervals never degenerate).
#[cfg(test)]
pub(crate) fn build_mesh(d: f64, base_intervals: usize, breakpoints: &[f64]) -> Vec<f64> {
    let mut nodes = Vec::new();
    build_mesh_into(d, base_intervals, breakpoints, &mut nodes);
    nodes
}

/// [`build_mesh`] into a caller-owned buffer (mesh-cache refresh path of
/// [`crate::workspace::SolveWorkspace`]).
pub(crate) fn build_mesh_into(
    d: f64,
    base_intervals: usize,
    breakpoints: &[f64],
    nodes: &mut Vec<f64>,
) {
    let n = base_intervals.max(1);
    nodes.clear();
    nodes.extend((0..=n).map(|j| d * j as f64 / n as f64));
    nodes.extend(breakpoints.iter().copied().filter(|&z| z > 0.0 && z < d));
    nodes.sort_by(|a, b| a.partial_cmp(b).expect("finite mesh positions"));
    let tol = d * 1e-12;
    nodes.dedup_by(|a, b| (*a - *b).abs() <= tol);
}

/// Reusable storage for repeated collocation solves.
///
/// The banded matrix, factorization, right-hand side and coefficient scratch
/// buffers are all owned here and recycled by [`solve_into`]; once warmed up
/// at a given problem shape, a solve performs no heap allocation. After
/// [`solve_into`] returns, `rhs` holds the node-major solution states (node
/// `j`'s state vector at `rhs[j * s..(j + 1) * s]`).
#[derive(Debug)]
pub(crate) struct BvpWorkspace {
    /// Collocation matrix (assembly target; dirty after factorization).
    mat: BandedMatrix,
    /// Right-hand side, overwritten with the solution by the solve.
    pub rhs: Vec<f64>,
    /// Factorization storage, swapped with `mat` each solve.
    lu: BandedLu,
    /// Dense `A(z)` scratch for [`Coefficients::eval`].
    a: Vec<f64>,
    /// `b(z)` scratch for [`Coefficients::eval`].
    b: Vec<f64>,
}

impl BvpWorkspace {
    pub fn new() -> Self {
        Self {
            mat: BandedMatrix::zeros(0, 0, 0),
            rhs: Vec::new(),
            lu: BandedLu::empty(),
            a: Vec::new(),
            b: Vec::new(),
        }
    }
}

/// Assembles and solves the collocation system into `ws`, allocation-free in
/// steady state. On success the node-major solution is left in `ws.rhs`.
///
/// # Errors
///
/// Returns [`SingularMatrix`] if the assembled system cannot be factored
/// (e.g. inconsistent boundary conditions).
///
/// # Panics
///
/// Panics if the number of boundary conditions differs from the number of
/// states, or the mesh has fewer than two nodes — both indicate a bug in the
/// model assembly, not a user-recoverable condition.
pub(crate) fn solve_into(
    coeffs: &dyn Coefficients,
    mesh: &[f64],
    bcs: &[BoundaryCondition],
    ws: &mut BvpWorkspace,
) -> Result<(), SingularMatrix> {
    assemble_into(coeffs, mesh, bcs, ws);
    ws.mat.factor_into(&mut ws.lu)?;
    ws.lu.solve_in_place(&mut ws.rhs);
    Ok(())
}

/// Assembles the collocation matrix and right-hand side into `ws.mat` and
/// `ws.rhs` (the first half of [`solve_into`], with the same panics).
fn assemble_into(
    coeffs: &dyn Coefficients,
    mesh: &[f64],
    bcs: &[BoundaryCondition],
    ws: &mut BvpWorkspace,
) {
    let s = coeffs.n_states();
    assert_eq!(
        bcs.len(),
        s,
        "need exactly one boundary condition per state"
    );
    assert!(mesh.len() >= 2, "mesh needs at least two nodes");
    let n_nodes = mesh.len();
    let n_unknowns = n_nodes * s;

    let n_start = bcs.iter().filter(|bc| bc.end == BcEnd::Start).count();

    // Bandwidths (see the module docs): interval rows couple two
    // adjacent node blocks, offset by the leading BC rows.
    let kl = n_start + s - 1;
    let ku = 2 * s - 1 - n_start.min(2 * s - 1);
    ws.mat.reset(n_unknowns, kl.max(1), ku.max(s));
    ws.rhs.clear();
    ws.rhs.resize(n_unknowns, 0.0);

    // Leading boundary rows: states at node 0.
    for (r, bc) in bcs.iter().filter(|bc| bc.end == BcEnd::Start).enumerate() {
        ws.mat.set(r, bc.state, 1.0);
        ws.rhs[r] = bc.value;
    }

    // Interval rows.
    ws.a.clear();
    ws.a.resize(s * s, 0.0);
    ws.b.clear();
    ws.b.resize(s, 0.0);
    let klm = ws.mat.lower_bandwidth();
    for j in 0..n_nodes - 1 {
        let h = mesh[j + 1] - mesh[j];
        let zm = 0.5 * (mesh[j] + mesh[j + 1]);
        coeffs.eval(zm, &mut ws.a, &mut ws.b);
        let row0 = n_start + j * s;
        let col_j = j * s;
        let col_j1 = (j + 1) * s;
        for t in 0..s {
            let r = row0 + t;
            // Entry (r, c) sits at local index c + kl − r of the row slice;
            // resolving the row once replaces ~4·s banded-offset lookups.
            let row = ws.mat.row_mut(r);
            let lj = col_j + klm - r;
            let lj1 = col_j1 + klm - r;
            for u in 0..s {
                let half_ha = 0.5 * h * ws.a[t * s + u];
                if u == t {
                    row[lj + u] += -1.0 - half_ha;
                    row[lj1 + u] += 1.0 - half_ha;
                } else if half_ha != 0.0 {
                    row[lj + u] += -half_ha;
                    row[lj1 + u] += -half_ha;
                }
            }
            ws.rhs[r] = h * ws.b[t];
        }
    }

    // Trailing boundary rows: states at the last node.
    let last = (n_nodes - 1) * s;
    let row0 = n_start + (n_nodes - 1) * s;
    for (r, bc) in bcs.iter().filter(|bc| bc.end == BcEnd::End).enumerate() {
        ws.mat.set(row0 + r, last + bc.state, 1.0);
        ws.rhs[row0 + r] = bc.value;
    }
}

/// The assembled collocation matrix and right-hand side, before any
/// factorization (the kernel tests' view of a real system).
#[cfg(test)]
pub(crate) fn assemble(
    coeffs: &dyn Coefficients,
    mesh: &[f64],
    bcs: &[BoundaryCondition],
) -> (BandedMatrix, Vec<f64>) {
    let mut ws = BvpWorkspace::new();
    assemble_into(coeffs, mesh, bcs, &mut ws);
    (ws.mat, ws.rhs)
}

/// Assembles and solves the collocation system with one-shot storage.
///
/// Convenience wrapper over [`solve_into`]; repeated solves should reuse a
/// [`BvpWorkspace`] (or, at the model level, a
/// [`crate::workspace::SolveWorkspace`]) instead.
///
/// # Errors
///
/// Returns [`SingularMatrix`] if the assembled system cannot be factored
/// (e.g. inconsistent boundary conditions).
#[cfg(test)]
pub(crate) fn solve(
    coeffs: &dyn Coefficients,
    mesh: &[f64],
    bcs: &[BoundaryCondition],
) -> Result<BvpSolution, SingularMatrix> {
    let mut ws = BvpWorkspace::new();
    solve_into(coeffs, mesh, bcs, &mut ws)?;
    let s = coeffs.n_states();
    let states = (0..mesh.len())
        .map(|j| ws.rhs[j * s..(j + 1) * s].to_vec())
        .collect();
    Ok(BvpSolution {
        z: mesh.to_vec(),
        states,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::sliding_row;

    /// dX/dz = [[0, 1], [0, 0]]·X + [0, c] — i.e. x'' = c, a beam-like toy
    /// problem with exact quadratic solution.
    struct Quadratic {
        c: f64,
    }

    impl Coefficients for Quadratic {
        fn n_states(&self) -> usize {
            2
        }
        fn eval(&self, _z: f64, a: &mut [f64], b: &mut [f64]) {
            a.copy_from_slice(&[0.0, 1.0, 0.0, 0.0]);
            b.copy_from_slice(&[0.0, self.c]);
        }
    }

    #[test]
    fn quadratic_two_point_problem() {
        // x(0) = 0, x(1) = 0, x'' = 2 → x(z) = z² − z, x'(z) = 2z − 1.
        let coeffs = Quadratic { c: 2.0 };
        let mesh = build_mesh(1.0, 64, &[]);
        let bcs = [
            BoundaryCondition {
                state: 0,
                end: BcEnd::Start,
                value: 0.0,
            },
            BoundaryCondition {
                state: 0,
                end: BcEnd::End,
                value: 0.0,
            },
        ];
        let sol = solve(&coeffs, &mesh, &bcs).unwrap();
        for (j, &z) in sol.z.iter().enumerate() {
            let exact = z * z - z;
            assert!(
                (sol.states[j][0] - exact).abs() < 1e-10,
                "x({z}) = {} vs {exact}",
                sol.states[j][0]
            );
            let exact_slope = 2.0 * z - 1.0;
            assert!((sol.states[j][1] - exact_slope).abs() < 1e-10);
        }
    }

    /// Stiff dichotomic system: x' = λ·x + forcing with one growing and one
    /// decaying mode — the failure case for single shooting.
    struct Dichotomy {
        lambda: f64,
    }

    impl Coefficients for Dichotomy {
        fn n_states(&self) -> usize {
            2
        }
        fn eval(&self, _z: f64, a: &mut [f64], b: &mut [f64]) {
            // Diagonalized: u' = +λu, v' = −λv.
            a.copy_from_slice(&[self.lambda, 0.0, 0.0, -self.lambda]);
            b.copy_from_slice(&[0.0, 0.0]);
        }
    }

    #[test]
    fn dichotomic_system_is_stable_with_correct_bc_placement() {
        // Growing mode pinned at the END, decaying mode at the START — the
        // well-posed arrangement. λ·d = 80 ⇒ e⁸⁰ dynamic range, far beyond
        // double precision for shooting.
        let coeffs = Dichotomy { lambda: 80.0 };
        let mesh = build_mesh(1.0, 2000, &[]);
        let bcs = [
            BoundaryCondition {
                state: 0,
                end: BcEnd::End,
                value: 1.0,
            },
            BoundaryCondition {
                state: 1,
                end: BcEnd::Start,
                value: 1.0,
            },
        ];
        let sol = solve(&coeffs, &mesh, &bcs).unwrap();
        // u(z) = e^{λ(z−1)}, v(z) = e^{−λz}; check interior values stay
        // bounded and accurate to discretization order.
        let mid = sol.z.len() / 2;
        let z = sol.z[mid];
        let u_exact = (80.0 * (z - 1.0)).exp();
        let v_exact = (-80.0 * z).exp();
        assert!((sol.states[mid][0] - u_exact).abs() < 1e-4);
        assert!((sol.states[mid][1] - v_exact).abs() < 1e-4);
        // End values match the pinned conditions exactly.
        assert!((sol.states.last().unwrap()[0] - 1.0).abs() < 1e-12);
        assert!((sol.states[0][1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn workspace_reuse_is_bitwise_identical_to_fresh() {
        // Solve two different problems (different state counts, so the
        // workspace reshapes in between) through one reused workspace and
        // compare against fresh solves bit for bit.
        let mesh = build_mesh(1.0, 32, &[]);
        let bcs2 = [
            BoundaryCondition {
                state: 0,
                end: BcEnd::Start,
                value: 0.0,
            },
            BoundaryCondition {
                state: 0,
                end: BcEnd::End,
                value: 0.0,
            },
        ];
        let mut ws = BvpWorkspace::new();
        for &c in &[2.0, -1.5, 0.75] {
            let coeffs = Quadratic { c };
            solve_into(&coeffs, &mesh, &bcs2, &mut ws).unwrap();
            let fresh = solve(&coeffs, &mesh, &bcs2).unwrap();
            for (j, state) in fresh.states.iter().enumerate() {
                for (t, v) in state.iter().enumerate() {
                    assert!(
                        ws.rhs[j * 2 + t].to_bits() == v.to_bits(),
                        "c={c}, node {j}, state {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn mesh_includes_breakpoints() {
        let mesh = build_mesh(1.0, 4, &[0.3, 0.77, 0.3]);
        assert!(mesh.windows(2).all(|w| w[1] > w[0]), "strictly increasing");
        assert!(mesh.iter().any(|&z| (z - 0.3).abs() < 1e-15));
        assert!(mesh.iter().any(|&z| (z - 0.77).abs() < 1e-15));
        assert_eq!(mesh[0], 0.0);
        assert_eq!(*mesh.last().unwrap(), 1.0);
    }

    #[test]
    fn mesh_drops_out_of_range_and_duplicate_breakpoints() {
        let mesh = build_mesh(1.0, 2, &[-0.5, 0.0, 0.5, 1.0, 1.5]);
        // 0.5 coincides with a uniform node; ends are not duplicated.
        assert_eq!(mesh, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    #[should_panic(expected = "one boundary condition per state")]
    fn wrong_bc_count_panics() {
        let coeffs = Quadratic { c: 1.0 };
        let mesh = build_mesh(1.0, 4, &[]);
        let _ = solve(
            &coeffs,
            &mesh,
            &[BoundaryCondition {
                state: 0,
                end: BcEnd::Start,
                value: 0.0,
            }],
        );
    }

    /// A cooled channel in miniature — `T' = −q`, `q' = 4·(T − T_c) − 1`,
    /// `T_c' = (T − T_c)/2` — with one coefficient or forcing term replaced
    /// by `poison` on the interval around `z_poison`.
    struct Poisoned {
        slot: usize,
        poison: f64,
        z_poison: f64,
    }

    impl Coefficients for Poisoned {
        fn n_states(&self) -> usize {
            3
        }
        fn eval(&self, z: f64, a: &mut [f64], b: &mut [f64]) {
            a.copy_from_slice(&[0.0, -1.0, 0.0, 4.0, 0.0, -4.0, 0.5, 0.0, -0.5]);
            b.copy_from_slice(&[0.0, -1.0, 0.0]);
            if z == self.z_poison {
                match self.slot {
                    s if s < 9 => a[s] = self.poison,
                    s => b[s - 9] = self.poison,
                }
            }
        }
    }

    #[test]
    fn non_finite_coefficients_never_solve_finite() {
        // A NaN or ±inf anywhere in the assembled system must surface as an
        // error or a non-finite state, so the optimizer's line search keeps
        // rejecting the point; the plain sliding-row solve behaves the same.
        let mesh = build_mesh(1.0, 16, &[]);
        let bcs = [
            BoundaryCondition {
                state: 1,
                end: BcEnd::Start,
                value: 0.0,
            },
            BoundaryCondition {
                state: 2,
                end: BcEnd::Start,
                value: 1.0,
            },
            BoundaryCondition {
                state: 1,
                end: BcEnd::End,
                value: 0.0,
            },
        ];
        let clean = Poisoned {
            slot: 0,
            poison: 0.0,
            z_poison: f64::NAN,
        };
        let x = solve(&clean, &mesh, &bcs).unwrap();
        assert!(x.states.iter().flatten().all(|v| v.is_finite()));
        for interval in mesh.windows(2) {
            for slot in 0..12 {
                for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    let coeffs = Poisoned {
                        slot,
                        poison,
                        z_poison: 0.5 * (interval[0] + interval[1]),
                    };
                    let (matrix, rhs) = assemble(&coeffs, &mesh, &bcs);
                    let kernel = solve(&coeffs, &mesh, &bcs).map(|s| s.states.concat());
                    for (path, solved) in [
                        ("kernel", kernel),
                        ("oracle", sliding_row::solve(&matrix, &rhs)),
                    ] {
                        assert!(
                            solved.map_or(true, |x| x.iter().any(|v| !v.is_finite())),
                            "{path}: {poison} in slot {slot} at z = {} solved finite",
                            coeffs.z_poison
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn first_order_decay_matches_exact() {
        // Single state: x' = −k x, x(0) = 1 → e^{−kz}; sanity for the n=1
        // corner of the band layout.
        struct Decay;
        impl Coefficients for Decay {
            fn n_states(&self) -> usize {
                1
            }
            fn eval(&self, _z: f64, a: &mut [f64], b: &mut [f64]) {
                a[0] = -3.0;
                b[0] = 0.0;
            }
        }
        let mesh = build_mesh(2.0, 256, &[]);
        let bcs = [BoundaryCondition {
            state: 0,
            end: BcEnd::Start,
            value: 1.0,
        }];
        let sol = solve(&Decay, &mesh, &bcs).unwrap();
        for (j, &z) in sol.z.iter().enumerate() {
            let exact = (-3.0 * z).exp();
            assert!((sol.states[j][0] - exact).abs() < 1e-4, "x({z})");
        }
    }
}
