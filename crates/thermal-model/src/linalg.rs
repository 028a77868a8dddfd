//! Dense and banded linear solvers used by the collocation BVP engine.
//!
//! Everything here is implemented from scratch (no external linear algebra
//! crates, per `DESIGN.md` §9):
//!
//! * [`DenseLu`] — LU with partial pivoting for small dense systems
//!   (boundary-condition blocks, verification, unit tests).
//! * [`BandedMatrix`] / [`BandedLu`] — LU with partial pivoting for banded
//!   systems, stored in the fixed-offset layout of LAPACK's `gbtrf`: row `i`
//!   keeps columns `i−kl … i+ku+kl`, each at a fixed offset. The first
//!   `kl+ku+1` slots hold the assembled band. Partial pivoting only swaps
//!   rows within `kl` of the diagonal, so the upper factor widens to at most
//!   `kl+ku` super-diagonals, and the last `kl` slots hold that fill. No row
//!   is ever shifted during elimination, so a swap or an update touches only
//!   the columns it changes. The nonzero multipliers of each elimination
//!   step are kept in a separate list for the solve phase.
//!
//! # Zero skipping
//!
//! A collocation row couples two adjacent node blocks through the sparse
//! coefficient matrix `A(z)`, so most of its band, and most multipliers,
//! are exactly zero. The banded factorization therefore
//!
//! * skips every candidate row whose multiplier is exactly zero,
//! * limits each row update to the pivot row's nonzero extent (its first
//!   to its last nonzero column right of the diagonal), and
//! * skips the same zeros when solving: forward substitution applies only
//!   the nonzero multipliers, and back substitution sweeps each row of the
//!   upper factor over its nonzero extent.
//!
//! Every skipped operation is `a − 0·u` or `a − m·0`, which returns `a`
//! unchanged for finite operands. The pivot choice and each entry's
//! sequence of `a − m·u` operations are those of the plain band algorithm
//! (no fused multiply-add, no reassociation), so while every value stays
//! finite, every nonzero factor entry and every solution component is
//! bitwise what the plain algorithm computes; only the sign of an exact
//! zero may differ. A zero never becomes a divisor: an exactly zero pivot
//! is still a [`SingularMatrix`]. The unit tests keep the plain sliding-row
//! algorithm as a bitwise oracle.

use std::fmt;

/// Error produced when a factorization encounters an (exactly) singular pivot.
#[derive(Debug, Clone, PartialEq)]
pub struct SingularMatrix {
    /// Pivot column at which elimination broke down.
    pub column: usize,
}

impl fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix is singular at pivot column {}", self.column)
    }
}

impl std::error::Error for SingularMatrix {}

// ---------------------------------------------------------------------------
// Dense LU
// ---------------------------------------------------------------------------

/// Dense LU factorization with partial pivoting (row-major storage).
#[derive(Debug, Clone)]
pub struct DenseLu {
    n: usize,
    lu: Vec<f64>,
    piv: Vec<usize>,
}

impl DenseLu {
    /// Factors the `n × n` row-major matrix `a`.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrix`] if a pivot is exactly zero.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n * n`.
    pub fn factor(mut a: Vec<f64>, n: usize) -> Result<Self, SingularMatrix> {
        assert_eq!(a.len(), n * n, "matrix storage must be n*n");
        let mut piv: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Pivot search in column k.
            let mut p = k;
            let mut max = a[k * n + k].abs();
            for i in (k + 1)..n {
                let v = a[i * n + k].abs();
                if v > max {
                    max = v;
                    p = i;
                }
            }
            if max == 0.0 {
                return Err(SingularMatrix { column: k });
            }
            if p != k {
                for j in 0..n {
                    a.swap(k * n + j, p * n + j);
                }
                piv.swap(k, p);
            }
            let pivot = a[k * n + k];
            for i in (k + 1)..n {
                let m = a[i * n + k] / pivot;
                a[i * n + k] = m;
                for j in (k + 1)..n {
                    a[i * n + j] -= m * a[k * n + j];
                }
            }
        }
        Ok(Self { n, lu: a, piv })
    }

    /// Solves `A x = b`, overwriting `b` with `x`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n`.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.n, "rhs length must match matrix size");
        let n = self.n;
        // Apply the row permutation.
        let mut x: Vec<f64> = (0..n).map(|i| b[self.piv[i]]).collect();
        // Forward substitution (unit lower triangle).
        for i in 1..n {
            let row = &self.lu[i * n..i * n + i];
            let s: f64 = row.iter().zip(&x[..i]).map(|(l, xj)| l * xj).sum();
            x[i] -= s;
        }
        // Back substitution.
        for i in (0..n).rev() {
            let row = &self.lu[i * n + i + 1..i * n + n];
            let s: f64 = row.iter().zip(&x[i + 1..n]).map(|(u, xj)| u * xj).sum();
            x[i] = (x[i] - s) / self.lu[i * n + i];
        }
        b.copy_from_slice(&x);
    }

    /// Convenience wrapper returning the solution as a new vector.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }
}

// ---------------------------------------------------------------------------
// Banded LU (fixed-offset storage)
// ---------------------------------------------------------------------------

/// A square banded matrix with `kl` sub-diagonals and `ku` super-diagonals,
/// stored row by row at fixed offsets: `data[i·stride + c]` holds
/// `A[i, i − kl + c]` for `c ∈ 0..stride`, with `stride = 2·kl + ku + 1`.
/// Slots `c < kl + ku + 1` are the assembled band; the trailing `kl` slots
/// are room for the factorization's fill and stay zero until
/// [`BandedMatrix::factor_into`] runs. Entries outside the matrix are zero
/// padding.
#[derive(Debug, Clone)]
pub struct BandedMatrix {
    n: usize,
    kl: usize,
    ku: usize,
    /// Storage per row: the `kl + ku + 1` band slots plus `kl` fill slots.
    stride: usize,
    data: Vec<f64>,
}

impl BandedMatrix {
    /// Creates a zero matrix of size `n` with bandwidths `kl`, `ku`.
    pub fn zeros(n: usize, kl: usize, ku: usize) -> Self {
        let stride = 2 * kl + ku + 1;
        Self {
            n,
            kl,
            ku,
            stride,
            data: vec![0.0; n * stride],
        }
    }

    /// Matrix dimension.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Lower bandwidth.
    pub fn lower_bandwidth(&self) -> usize {
        self.kl
    }

    /// Upper bandwidth.
    pub fn upper_bandwidth(&self) -> usize {
        self.ku
    }

    #[inline]
    fn offset(&self, i: usize, j: usize) -> Option<usize> {
        let c = j as isize - i as isize + self.kl as isize;
        if c < 0 || c > (self.kl + self.ku) as isize {
            None
        } else {
            Some(i * self.stride + c as usize)
        }
    }

    /// Reads `A[i, j]` (zero outside the band).
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of range");
        self.offset(i, j).map_or(0.0, |o| self.data[o])
    }

    /// Writes `A[i, j] = v`.
    ///
    /// # Panics
    ///
    /// Panics if the entry lies outside the band or the matrix.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.n && j < self.n, "index out of range");
        let o = self.offset(i, j).expect("entry outside the band");
        self.data[o] = v;
    }

    /// Adds `v` to `A[i, j]`.
    ///
    /// # Panics
    ///
    /// Panics if the entry lies outside the band or the matrix.
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.n && j < self.n, "index out of range");
        let o = self.offset(i, j).expect("entry outside the band");
        self.data[o] += v;
    }

    /// Mutable view of row `i`'s band storage: entry `(i, j)` lives at
    /// local index `j + kl − i`. Assembly hot loops use this to write a
    /// row's entries without recomputing the banded offset per entry.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range (and out-of-band local indices panic at
    /// the slice boundary, preserving [`BandedMatrix::add`]'s band check).
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.n, "row out of range");
        let start = i * self.stride;
        &mut self.data[start..start + self.kl + self.ku + 1]
    }

    /// Resets all entries to zero, keeping the allocation (assembly reuse in
    /// optimizer inner loops). Also restores the storage length after a
    /// [`BandedMatrix::factor_into`] swapped buffers with a [`BandedLu`].
    pub fn clear(&mut self) {
        self.data.clear();
        self.data.resize(self.n * self.stride, 0.0);
    }

    /// Re-shapes the matrix to `n × n` with bandwidths `kl`, `ku` and zeroes
    /// every entry, reusing the existing allocation when it is large enough.
    pub fn reset(&mut self, n: usize, kl: usize, ku: usize) {
        self.n = n;
        self.kl = kl;
        self.ku = ku;
        self.stride = 2 * kl + ku + 1;
        self.clear();
    }

    /// Matrix–vector product `y = A x` (used by tests and residual checks).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    pub fn mat_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "vector length must match matrix size");
        let mut y = vec![0.0; self.n];
        for (i, yi) in y.iter_mut().enumerate() {
            let j0 = i.saturating_sub(self.kl);
            let j1 = (i + self.ku).min(self.n - 1);
            let row = &self.data[i * self.stride + (j0 + self.kl - i)..];
            *yi = row.iter().zip(&x[j0..=j1]).map(|(a, xj)| a * xj).sum();
        }
        y
    }

    /// Factors the matrix in place (consumes `self`).
    ///
    /// Band LU with partial pivoting: at step `k` the pivot is chosen among
    /// rows `k..=k+kl`; see [`BandedMatrix::factor_into`] for the storage
    /// and the zero-skip invariant.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrix`] if a pivot is exactly zero.
    pub fn factor(mut self) -> Result<BandedLu, SingularMatrix> {
        let mut lu = BandedLu::empty();
        self.factor_into(&mut lu)?;
        Ok(lu)
    }

    /// Factors the matrix into `lu` without allocating in steady state.
    ///
    /// The elimination runs directly on this matrix's fixed-offset storage.
    /// At step `k` the pivot is the first largest `|A[r, k]|` among rows
    /// `k..=k+kl`. Swapping it into row `k` exchanges only columns `k…` up
    /// to the two rows' last nonzero, and no row is ever shifted, because
    /// every row already has the `kl` fill slots a swap can bring in. The
    /// last nonzero column of each row is tracked as an upper bound for
    /// that: a row updated by pivot row `k` fills no further right than
    /// row `k` reaches.
    ///
    /// Zero skipping: a candidate row whose multiplier is exactly zero is
    /// skipped, and a row update covers only the pivot row's nonzero extent,
    /// its first to its last nonzero column right of the diagonal. Each
    /// skipped operation is `a − 0·u` or `a − m·0`, which leaves a finite
    /// `a` as it is. The others run with the plain band algorithm's pivots
    /// and in its order, each as `a − m·u` (no fused multiply-add), so while
    /// every value stays finite, every nonzero entry of the factors, and
    /// every solution component [`BandedLu::solve_in_place`] computes from
    /// them, is bitwise what the plain algorithm computes; only the sign of
    /// an exact zero may differ. Zeros never become divisors: the only
    /// divisions are by pivots, and an exactly zero pivot is a
    /// [`SingularMatrix`].
    ///
    /// The storage is then swapped into `lu`, and the nonzero multipliers,
    /// the pivots and each upper row's nonzero extent go into `lu`'s
    /// arrays, which keep their capacity across calls. Afterwards this
    /// matrix holds `lu`'s previous storage and arbitrary values — call
    /// [`BandedMatrix::clear`] (or [`BandedMatrix::reset`]) before the next
    /// assembly, exactly as the workspace-driven solve loop does. Repeated
    /// factorizations through a reused `lu` are bitwise identical to fresh
    /// ones.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrix`] if a pivot is exactly zero. The matrix is
    /// then left with arbitrary values, and `lu` as an empty factorization
    /// that solves nothing.
    pub fn factor_into(&mut self, lu: &mut BandedLu) -> Result<(), SingularMatrix> {
        let (n, kl, ku, stride) = (self.n, self.kl, self.ku, self.stride);
        let a = &mut self.data;
        // Entry (i, j) lives at i·stride + kl + j − i.
        let at = move |i: usize, j: usize| i * (stride - 1) + kl + j;

        // Reserve each array's final size (kl multipliers per step at most)
        // up front, so a cold `lu` allocates once per array. A failed
        // factorization leaves `lu` empty.
        lu.n = 0;
        lu.piv.clear();
        lu.piv.reserve(n);
        lu.first.clear();
        lu.first.reserve(n);
        lu.lower.clear();
        lu.lower.reserve(n * kl);
        lu.lower_start.clear();
        lu.lower_start.reserve(n + 1);
        lu.lower_start.push(0);
        // An upper bound on the last nonzero column of each row, starting
        // from the assembled band and never left of the diagonal there.
        let last = &mut lu.last;
        last.clear();
        last.extend((0..n).map(|i| {
            (i..=(i + ku).min(n - 1))
                .rev()
                .find(|&j| a[at(i, j)] != 0.0)
                .unwrap_or(i)
        }));

        for k in 0..n {
            let below = (k + kl).min(n - 1);
            // Pivot search in column k.
            let mut p = k;
            let mut max = a[at(k, k)].abs();
            for r in (k + 1)..=below {
                let v = a[at(r, k)].abs();
                if v > max {
                    max = v;
                    p = r;
                }
            }
            lu.piv.push(p);
            if max == 0.0 {
                return Err(SingularMatrix { column: k });
            }
            if p != k {
                let end = last[k].max(last[p]);
                let (head, tail) = a.split_at_mut(at(p, k));
                head[at(k, k)..=at(k, end)].swap_with_slice(&mut tail[..=end - k]);
                last.swap(k, p);
            }
            // Eliminate below the pivot over the pivot row's nonzero extent
            // first..=end. Split borrows so the pivot row and the candidate
            // rows are disjoint slices.
            let end = last[k];
            let split = (k + 1) * stride;
            let (head, tail) = a.split_at_mut(split);
            let pivot = head[at(k, k)];
            let first = ((k + 1)..=end)
                .find(|&c| head[at(k, c)] != 0.0)
                .unwrap_or(end + 1);
            lu.first.push(first);
            let pivot_row = &head[at(k, first)..=at(k, end)];
            for r in (k + 1)..=below {
                let x = tail[at(r, k) - split];
                if x == 0.0 {
                    continue;
                }
                let m = x / pivot;
                if m == 0.0 {
                    continue;
                }
                lu.lower.push((r, m));
                let row = &mut tail[at(r, first) - split..=at(r, end) - split];
                for (t, &u) in row.iter_mut().zip(pivot_row) {
                    *t -= m * u;
                }
                last[r] = last[r].max(end);
            }
            lu.lower_start.push(lu.lower.len());
        }
        lu.n = n;
        lu.kl = kl;
        lu.stride = stride;
        std::mem::swap(&mut self.data, &mut lu.upper);
        Ok(())
    }
}

/// Factored form of a [`BandedMatrix`]; solves systems by forward and back
/// substitution.
#[derive(Debug, Clone)]
pub struct BandedLu {
    n: usize,
    kl: usize,
    stride: usize,
    /// Upper-triangular factor in the matrix's fixed-offset storage: row `k`
    /// holds its diagonal at `k·stride + kl`, followed by the columns up to
    /// `last[k]`.
    upper: Vec<f64>,
    /// First and last nonzero column of each upper row right of the
    /// diagonal (`first[k] == last[k] + 1` when there is none).
    first: Vec<usize>,
    last: Vec<usize>,
    /// Nonzero multipliers `(row, m)` of elimination step `k`, at
    /// `lower[lower_start[k]..lower_start[k + 1]]`.
    lower: Vec<(usize, f64)>,
    lower_start: Vec<usize>,
    /// Row swapped with row `k` at elimination step `k`.
    piv: Vec<usize>,
}

impl BandedLu {
    /// An empty factorization to be filled by [`BandedMatrix::factor_into`]
    /// (workspace storage; solving before a factorization panics on the size
    /// assertion for any non-empty right-hand side).
    pub fn empty() -> Self {
        Self {
            n: 0,
            kl: 0,
            stride: 0,
            upper: Vec::new(),
            first: Vec::new(),
            last: Vec::new(),
            lower: Vec::new(),
            lower_start: Vec::new(),
            piv: Vec::new(),
        }
    }

    /// Dimension of the factored system (zero for [`BandedLu::empty`]).
    pub fn size(&self) -> usize {
        self.n
    }

    /// Solves `A x = b`, overwriting `b` with `x`.
    ///
    /// The forward sweep applies only the nonzero multipliers, and the back
    /// substitution sweeps each upper row over its nonzero extent only: the
    /// zeros the factorization skipped are skipped here too, under the
    /// invariant stated on [`BandedMatrix::factor_into`].
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the matrix size.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.n, "rhs length must match matrix size");
        for (k, step) in self.lower_start.windows(2).enumerate() {
            b.swap(k, self.piv[k]);
            let bk = b[k];
            for &(r, m) in &self.lower[step[0]..step[1]] {
                b[r] -= m * bk;
            }
        }
        for k in (0..self.n).rev() {
            let diagonal = k * self.stride + self.kl;
            let first = self.first[k];
            let row = &self.upper[diagonal + first - k..=diagonal + self.last[k] - k];
            let mut s = b[k];
            for (&u, &x) in row.iter().zip(&b[first..]) {
                s -= u * x;
            }
            b[k] = s / self.upper[diagonal];
        }
    }

    /// Convenience wrapper returning the solution as a new vector.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }
}

/// The plain sliding-row band LU — every multiply-subtract of the band, no
/// zero skipping — kept as the bitwise oracle of the zero-skip invariant.
#[cfg(test)]
pub(crate) mod sliding_row {
    use super::{BandedMatrix, SingularMatrix};

    /// Solves `A x = b` with the plain algorithm: row `i` is stored as
    /// columns `i−kl … i+ku`, left-justified before elimination, and every
    /// elimination step shifts each candidate row one slot left.
    pub(crate) fn solve(m: &BandedMatrix, b: &[f64]) -> Result<Vec<f64>, SingularMatrix> {
        let (n, kl, ku) = (m.size(), m.lower_bandwidth(), m.upper_bandwidth());
        let width = kl + ku + 1;
        let mut a = vec![0.0; n * width];
        for i in 0..n {
            for j in i.saturating_sub(kl)..=(i + ku).min(n - 1) {
                a[i * width + j + kl - i] = m.get(i, j);
            }
        }
        // Left-justify the first kl rows (only the rows that exist).
        for i in 0..kl.min(n) {
            let shift = kl - i;
            for c in shift..width {
                a[i * width + c - shift] = a[i * width + c];
            }
            for c in (width - shift)..width {
                a[i * width + c] = 0.0;
            }
        }
        let mut al = vec![0.0; n * kl];
        let mut piv = vec![0usize; n];
        let mut l = kl;
        for k in 0..n {
            if l < n {
                l += 1;
            }
            let mut p = k;
            let mut max = a[k * width].abs();
            for i in (k + 1)..l.min(n) {
                let v = a[i * width].abs();
                if v > max {
                    max = v;
                    p = i;
                }
            }
            piv[k] = p;
            if max == 0.0 {
                return Err(SingularMatrix { column: k });
            }
            if p != k {
                for j in 0..width {
                    a.swap(k * width + j, p * width + j);
                }
            }
            let (head, tail) = a.split_at_mut((k + 1) * width);
            let pivot_row = &head[k * width..];
            let n_elim = l.min(n) - (k + 1);
            for (idx, row) in tail.chunks_exact_mut(width).take(n_elim).enumerate() {
                let m = row[0] / pivot_row[0];
                al[k * kl + idx] = m;
                for j in 1..width {
                    row[j - 1] = row[j] - m * pivot_row[j];
                }
                row[width - 1] = 0.0;
            }
        }

        let mut x = b.to_vec();
        let mut l = kl;
        for k in 0..n {
            let p = piv[k];
            if p != k {
                x.swap(k, p);
            }
            if l < n {
                l += 1;
            }
            let (head, tail) = x.split_at_mut(k + 1);
            let bk = head[k];
            for (bi, m) in tail.iter_mut().zip(&al[k * kl..]).take(l.min(n) - (k + 1)) {
                *bi -= m * bk;
            }
        }
        let mut l = 1;
        for k in (0..n).rev() {
            let row = &a[k * width..k * width + l];
            let mut s = x[k];
            for (u, xj) in row[1..].iter().zip(&x[k + 1..]) {
                s -= u * xj;
            }
            x[k] = s / row[0];
            if l < width {
                l += 1;
            }
        }
        Ok(x)
    }

    /// The first component where two solutions of one system differ, bit
    /// for bit except that exact zeros compare by value (the zero-skip
    /// invariant leaves their sign open).
    pub(crate) fn first_difference(x: &[f64], y: &[f64]) -> Option<usize> {
        assert_eq!(x.len(), y.len(), "solutions of one system");
        x.iter()
            .zip(y)
            .position(|(a, b)| a.to_bits() != b.to_bits() && !(*a == 0.0 && *b == 0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mat_vec_dense(a: &[f64], n: usize, x: &[f64]) -> Vec<f64> {
        (0..n)
            .map(|i| (0..n).map(|j| a[i * n + j] * x[j]).sum())
            .collect()
    }

    #[test]
    fn dense_solves_known_system() {
        // [2 1; 1 3] x = [3; 5] → x = [4/5, 7/5]
        let lu = DenseLu::factor(vec![2.0, 1.0, 1.0, 3.0], 2).unwrap();
        let x = lu.solve(&[3.0, 5.0]);
        assert!((x[0] - 0.8).abs() < 1e-14);
        assert!((x[1] - 1.4).abs() < 1e-14);
    }

    #[test]
    fn dense_requires_pivoting() {
        // Zero on the diagonal forces a swap.
        let lu = DenseLu::factor(vec![0.0, 1.0, 1.0, 0.0], 2).unwrap();
        let x = lu.solve(&[2.0, 3.0]);
        assert!((x[0] - 3.0).abs() < 1e-14);
        assert!((x[1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn dense_detects_singularity() {
        let r = DenseLu::factor(vec![1.0, 2.0, 2.0, 4.0], 2);
        assert!(r.is_err());
    }

    #[test]
    fn dense_random_roundtrip() {
        // Deterministic pseudo-random matrix; verify A·x = b reproduction.
        let n = 12;
        let mut seed = 0x12345678u64;
        let mut rnd = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let a: Vec<f64> = (0..n * n).map(|_| rnd()).collect();
        let x_true: Vec<f64> = (0..n).map(|_| rnd()).collect();
        let b = mat_vec_dense(&a, n, &x_true);
        let lu = DenseLu::factor(a, n).unwrap();
        let x = lu.solve(&b);
        for i in 0..n {
            assert!(
                (x[i] - x_true[i]).abs() < 1e-9,
                "x[{i}] = {} vs {}",
                x[i],
                x_true[i]
            );
        }
    }

    #[test]
    fn banded_get_set() {
        let mut m = BandedMatrix::zeros(5, 1, 2);
        m.set(0, 0, 1.0);
        m.set(0, 2, 3.0);
        m.set(4, 3, -2.0);
        m.add(4, 3, 1.0);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(4, 3), -1.0);
        assert_eq!(m.get(2, 2), 0.0);
        // Out-of-band reads are zero.
        assert_eq!(m.get(0, 4), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside the band")]
    fn banded_set_out_of_band_panics() {
        let mut m = BandedMatrix::zeros(5, 1, 1);
        m.set(0, 4, 1.0);
    }

    #[test]
    fn banded_tridiagonal_solve() {
        // Classic -1 2 -1 tridiagonal with known solution.
        let n = 10;
        let mut m = BandedMatrix::zeros(n, 1, 1);
        for i in 0..n {
            m.set(i, i, 2.0);
            if i > 0 {
                m.set(i, i - 1, -1.0);
            }
            if i + 1 < n {
                m.set(i, i + 1, -1.0);
            }
        }
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = m.mat_vec(&x_true);
        let lu = m.factor().unwrap();
        let x = lu.solve(&b);
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-11, "x[{i}]");
        }
    }

    #[test]
    fn banded_matches_dense_on_random_bands() {
        // Cross-validate the band factorization against the dense one on
        // deterministic random banded matrices of several shapes.
        let mut seed = 0xdeadbeefu64;
        let mut rnd = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for &(n, kl, ku) in &[
            (8usize, 2usize, 1usize),
            (15, 3, 4),
            (30, 5, 5),
            (12, 0, 3),
            (12, 3, 0),
        ] {
            let mut band = BandedMatrix::zeros(n, kl, ku);
            let mut dense = vec![0.0; n * n];
            for i in 0..n {
                for j in i.saturating_sub(kl)..=(i + ku).min(n - 1) {
                    let v = rnd() + if i == j { 4.0 } else { 0.0 };
                    band.set(i, j, v);
                    dense[i * n + j] = v;
                }
            }
            let b: Vec<f64> = (0..n).map(|_| rnd()).collect();
            let xb = band.factor().unwrap().solve(&b);
            let xd = DenseLu::factor(dense, n).unwrap().solve(&b);
            for i in 0..n {
                assert!(
                    (xb[i] - xd[i]).abs() < 1e-9,
                    "(n={n},kl={kl},ku={ku}) x[{i}]: banded {} vs dense {}",
                    xb[i],
                    xd[i]
                );
            }
        }
    }

    #[test]
    fn banded_pivoting_stress() {
        // Matrix engineered so the natural pivot order is bad: tiny diagonal
        // with large off-diagonal neighbours.
        let n = 20;
        let mut band = BandedMatrix::zeros(n, 2, 2);
        let mut dense = vec![0.0; n * n];
        for i in 0..n {
            for j in i.saturating_sub(2)..=(i + 2).min(n - 1) {
                let v = if i == j {
                    1e-12
                } else {
                    1.0 + (i + 2 * j) as f64 * 0.1
                };
                band.set(i, j, v);
                dense[i * n + j] = v;
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let xb = band.factor().unwrap().solve(&b);
        let xd = DenseLu::factor(dense, n).unwrap().solve(&b);
        for i in 0..n {
            let scale = xd[i].abs().max(1.0);
            assert!(
                (xb[i] - xd[i]).abs() / scale < 1e-8,
                "x[{i}]: banded {} vs dense {}",
                xb[i],
                xd[i]
            );
        }
    }

    #[test]
    fn banded_detects_singularity() {
        let m = BandedMatrix::zeros(4, 1, 1);
        assert!(m.factor().is_err());
        // A reused factorization is emptied by a singular matrix, so it
        // cannot go on solving with the previous factors.
        let mut lu = BandedLu::empty();
        let mut m = BandedMatrix::zeros(4, 1, 1);
        fill_tridiagonal(&mut m, 4, 1.0);
        m.factor_into(&mut lu).unwrap();
        assert_eq!(lu.size(), 4);
        m.reset(4, 1, 1);
        m.set(0, 0, 1.0);
        assert_eq!(m.factor_into(&mut lu), Err(SingularMatrix { column: 1 }));
        assert_eq!(lu.size(), 0);
    }

    #[test]
    fn banded_mat_vec_agrees_with_dense() {
        let n = 9;
        let (kl, ku) = (2, 3);
        let mut band = BandedMatrix::zeros(n, kl, ku);
        let mut dense = vec![0.0; n * n];
        for i in 0..n {
            for j in i.saturating_sub(kl)..=(i + ku).min(n - 1) {
                let v = (i * 7 + j * 3) as f64 * 0.01 - 0.1;
                band.set(i, j, v);
                dense[i * n + j] = v;
            }
        }
        let x: Vec<f64> = (0..n).map(|i| i as f64 - 4.0).collect();
        let yb = band.mat_vec(&x);
        let yd = mat_vec_dense(&dense, n, &x);
        for i in 0..n {
            assert!((yb[i] - yd[i]).abs() < 1e-12);
        }
    }

    fn fill_tridiagonal(m: &mut BandedMatrix, n: usize, scale: f64) {
        for i in 0..n {
            m.set(i, i, 2.0 * scale);
            if i > 0 {
                m.set(i, i - 1, -scale);
            }
            if i + 1 < n {
                m.set(i, i + 1, -scale);
            }
        }
    }

    #[test]
    fn factor_into_reuse_is_bitwise_identical_to_fresh() {
        // Factor two different systems through one reused BandedLu and one
        // reused BandedMatrix; every solve must match a fresh factorization
        // bit for bit.
        let n = 24;
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.73).sin()).collect();
        let mut mat = BandedMatrix::zeros(n, 1, 1);
        let mut lu = BandedLu::empty();
        for &scale in &[1.0, 3.5, 0.25] {
            mat.reset(n, 1, 1);
            fill_tridiagonal(&mut mat, n, scale);
            let mut fresh = BandedMatrix::zeros(n, 1, 1);
            fill_tridiagonal(&mut fresh, n, scale);

            mat.factor_into(&mut lu).unwrap();
            let x_reused = lu.solve(&b);
            let x_fresh = fresh.factor().unwrap().solve(&b);
            assert_eq!(lu.size(), n);
            for i in 0..n {
                assert!(
                    x_reused[i].to_bits() == x_fresh[i].to_bits(),
                    "scale {scale}, x[{i}]: reused {} vs fresh {}",
                    x_reused[i],
                    x_fresh[i]
                );
            }
        }
    }

    #[test]
    fn reset_reshapes_and_zeroes() {
        let mut m = BandedMatrix::zeros(3, 1, 1);
        m.set(1, 1, 5.0);
        m.reset(6, 2, 1);
        assert_eq!(m.size(), 6);
        assert_eq!(m.lower_bandwidth(), 2);
        assert_eq!(m.upper_bandwidth(), 1);
        for i in 0..6usize {
            for j in i.saturating_sub(2)..=(i + 1).min(5) {
                assert_eq!(m.get(i, j), 0.0);
            }
        }
        // Still factors correctly after the reshape.
        fill_tridiagonal(&mut m, 6, 1.0);
        assert!(m.factor().is_ok());
    }

    #[test]
    fn banded_clear_resets() {
        let mut m = BandedMatrix::zeros(3, 1, 1);
        m.set(1, 1, 5.0);
        m.clear();
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn lower_bandwidth_beyond_size_solves() {
        // kl > n: the band reaches past both ends of every row.
        let mut m = BandedMatrix::zeros(2, 3, 0);
        m.set(0, 0, 1.0);
        m.set(1, 1, 1.0);
        assert_eq!(m.clone().factor().unwrap().solve(&[2.0, -3.0]), [2.0, -3.0]);
        let mut lu = BandedLu::empty();
        m.factor_into(&mut lu).unwrap();
        assert_eq!(lu.solve(&[0.5, 4.0]), [0.5, 4.0]);

        // A full matrix with both bandwidths beyond n, pivoting included.
        let n = 3;
        let dense = vec![1e-3, 2.0, -1.0, 4.0, 0.5, 3.0, -2.0, 1.0, 0.25];
        let mut band = BandedMatrix::zeros(n, 5, 4);
        for i in 0..n {
            for j in 0..n {
                band.set(i, j, dense[i * n + j]);
            }
        }
        let b = [1.0, -2.0, 0.5];
        let xb = band.factor().unwrap().solve(&b);
        let xd = DenseLu::factor(dense, n).unwrap().solve(&b);
        for i in 0..n {
            assert!(
                (xb[i] - xd[i]).abs() < 1e-12,
                "x[{i}]: {} vs {}",
                xb[i],
                xd[i]
            );
        }
        assert_eq!(BandedMatrix::zeros(0, 3, 1).factor().unwrap().size(), 0);
    }

    /// Deterministic generator for the oracle tests.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }

        /// Uniform in `[-1, 1)`.
        fn unit(&mut self) -> f64 {
            (self.next() as f64 / (1u64 << 30) as f64) - 1.0
        }

        fn chance(&mut self, p: f64) -> bool {
            (self.next() as f64 / (1u64 << 31) as f64) < p
        }
    }

    /// A random banded system: each in-band entry is nonzero with
    /// probability `density` (a signed zero otherwise), magnitudes span
    /// 2⁻⁸…2⁸, and the diagonal is either dominant-ish (`diag == 0`), tiny
    /// so that pivoting must swap (`1`), or drawn like the rest (`2`).
    fn random_system(
        n: usize,
        kl: usize,
        ku: usize,
        density: f64,
        diag: usize,
        rng: &mut Lcg,
    ) -> (BandedMatrix, Vec<f64>) {
        let mut m = BandedMatrix::zeros(n, kl, ku);
        for i in 0..n {
            for j in i.saturating_sub(kl)..=(i + ku).min(n - 1) {
                let scale = f64::from(2u32.pow((rng.next() % 17) as u32)) / 256.0;
                let v = if rng.chance(density) {
                    rng.unit() * scale
                } else if rng.chance(0.5) {
                    -0.0
                } else {
                    0.0
                };
                let v = match (i == j, diag) {
                    (true, 0) => 2.0 + rng.unit(),
                    (true, 1) => 1e-12 * (1.5 + rng.unit()),
                    _ => v,
                };
                m.set(i, j, v);
            }
        }
        let b = (0..n)
            .map(|_| if rng.chance(0.2) { 0.0 } else { rng.unit() })
            .collect();
        (m, b)
    }

    /// The kernel's solve must equal the sliding-row oracle's bit for bit
    /// (exact zeros by value), and a singular input must fail at the same
    /// pivot column. Where the oracle overflows (tiny pivots that nothing
    /// can swap away), `0·inf` terms it keeps and the kernel skips may
    /// differ, so only a non-finite component is required then.
    fn assert_matches_oracle(m: &BandedMatrix, b: &[f64], what: &str) {
        let expected = sliding_row::solve(m, b);
        let mut lu = BandedLu::empty();
        let got = m.clone().factor_into(&mut lu).map(|()| lu.solve(b));
        match (got, expected) {
            (Ok(x), Ok(y)) if y.iter().all(|v| v.is_finite()) => {
                if let Some(i) = sliding_row::first_difference(&x, &y) {
                    panic!("{what}: x[{i}] = {:e} vs oracle {:e}", x[i], y[i]);
                }
            }
            (Ok(x), Ok(_)) => assert!(
                x.iter().any(|v| !v.is_finite()),
                "{what}: the oracle overflowed, the kernel did not"
            ),
            (Err(e), Err(f)) => assert_eq!(e.column, f.column, "{what}: singular column"),
            (got, expected) => panic!("{what}: kernel {got:?} vs oracle {expected:?}"),
        }
    }

    #[test]
    fn small_shapes_match_oracle_bitwise() {
        // Every shape up to 6×6 with bandwidths up to 8, so kl ≥ n and
        // ku ≥ n are covered exhaustively.
        let mut rng = Lcg(0x5eed);
        for n in 1..=6 {
            for kl in 0..=8 {
                for ku in 0..=8 {
                    for (density, diag) in [(1.0, 0), (0.5, 1), (0.3, 2), (0.7, 2)] {
                        let (m, b) = random_system(n, kl, ku, density, diag, &mut rng);
                        let what = format!("n={n} kl={kl} ku={ku} density={density} diag={diag}");
                        assert_matches_oracle(&m, &b, &what);
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn zero_skipping_lu_matches_sliding_row_oracle_bitwise(
            n in 1usize..200,
            kl in 0usize..40,
            ku in 0usize..40,
            density in 0.0f64..1.0,
            diag in 0usize..3,
            seed in 0usize..1_000_000,
        ) {
            // A quarter of the cases shrink n below the bandwidths.
            let n = if seed.is_multiple_of(4) { 1 + n % 12 } else { n };
            let mut rng = Lcg(seed as u64);
            let (m, b) = random_system(n, kl, ku, density, diag, &mut rng);
            assert_matches_oracle(&m, &b, &format!("n={n} kl={kl} ku={ku}"));
        }

        #[test]
        fn nan_anywhere_in_the_band_never_solves_finite(
            n in 1usize..60,
            kl in 0usize..12,
            ku in 0usize..12,
            density in 0.2f64..1.0,
            diag in 0usize..3,
            seed in 0usize..1_000_000,
        ) {
            let mut rng = Lcg(seed as u64);
            let (mut m, b) = random_system(n, kl, ku, density, diag, &mut rng);
            let i = rng.next() as usize % n;
            let lo = i.saturating_sub(kl);
            let j = lo + rng.next() as usize % ((i + ku).min(n - 1) - lo + 1);
            m.set(i, j, f64::NAN);
            for solved in [
                sliding_row::solve(&m, &b),
                m.factor().map(|lu| lu.solve(&b)),
            ] {
                prop_assert!(
                    solved.map_or(true, |x| x.iter().any(|v| !v.is_finite())),
                    "NaN at ({i}, {j}) gave a finite solution"
                );
            }
        }
    }
}
