//! Minimal sparse-matrix support: triplet assembly into CSR.

/// Coordinate-format accumulator used during assembly; duplicate entries sum.
#[derive(Debug, Clone, Default)]
pub struct TripletMatrix {
    n: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl TripletMatrix {
    /// Creates an empty `n × n` accumulator.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            entries: Vec::new(),
        }
    }

    /// Matrix dimension.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Adds `v` at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.n && j < self.n, "triplet index out of range");
        if v != 0.0 {
            self.entries.push((i, j, v));
        }
    }

    /// Compresses into CSR form, summing duplicates.
    pub fn to_csr(&self) -> CsrMatrix {
        self.to_csr_with_pattern().0
    }

    /// Compresses into CSR form and additionally returns the
    /// [`CsrPattern`] mapping this triplet sequence onto the compressed
    /// layout, so later value-only refreshes can skip the sort entirely.
    ///
    /// The matrix is bit-identical to [`TripletMatrix::to_csr`]: the sort is
    /// stable, so duplicates at the same `(i, j)` sum in emission order.
    pub fn to_csr_with_pattern(&self) -> (CsrMatrix, CsrPattern) {
        let n = self.n;
        // Stable sort over *indices* so the original emission position of
        // every entry is known when its compressed slot is assigned.
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.sort_by_key(|&k| (self.entries[k].0, self.entries[k].1));
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(self.entries.len());
        let mut values = Vec::with_capacity(self.entries.len());
        let mut scatter = vec![0usize; self.entries.len()];
        row_ptr.push(0);
        let mut row = 0usize;
        for &k in &order {
            let (i, j, v) = self.entries[k];
            while row < i {
                row_ptr.push(col_idx.len());
                row += 1;
            }
            if let (Some(&last_j), Some(last_v)) = (col_idx.last(), values.last_mut()) {
                if col_idx.len() > row_ptr[row] && last_j == j {
                    *last_v += v;
                    scatter[k] = values.len() - 1;
                    continue;
                }
            }
            scatter[k] = values.len();
            col_idx.push(j);
            values.push(v);
        }
        while row < n {
            row_ptr.push(col_idx.len());
            row += 1;
        }
        let emit = self.entries.iter().map(|&(i, j, _)| (i, j)).collect();
        let matrix = CsrMatrix {
            n,
            row_ptr: row_ptr.into(),
            col_idx: col_idx.into(),
            values,
        };
        let pattern = CsrPattern {
            matrix: CsrMatrix {
                n: matrix.n,
                row_ptr: matrix.row_ptr.clone(),
                col_idx: matrix.col_idx.clone(),
                values: Vec::new(),
            },
            emit,
            scatter,
        };
        (matrix, pattern)
    }
}

/// A frozen sparsity pattern: the symbolic outcome of one
/// [`TripletMatrix::to_csr_with_pattern`] compression.
///
/// It remembers the emission-order `(i, j)` sequence of the triplets it was
/// built from and, for each emission, the compressed value slot it summed
/// into. [`CsrPattern::refresh`] replays a *new* triplet sequence with the
/// same `(i, j)` structure straight into a matrix sharing the cached
/// `row_ptr`/`col_idx` arrays — no sort, no symbolic work, and the only
/// allocation is the fresh value vector. Because the stable sort in
/// [`TripletMatrix::to_csr`] sums duplicates in emission order, the replay
/// is **bitwise identical** to a full recompression.
#[derive(Debug, Clone)]
pub struct CsrPattern {
    /// Structure-only template; `values` are all zero and are cloned as the
    /// scratch for each refresh (`row_ptr`/`col_idx` are shared via `Arc`).
    matrix: CsrMatrix,
    /// `(i, j)` of every emitted (nonzero) triplet, in emission order.
    emit: Vec<(usize, usize)>,
    /// Emission index → compressed value slot.
    scatter: Vec<usize>,
}

impl CsrPattern {
    /// Whether `(i, j)` matches the recorded emission at position `k`.
    #[must_use]
    pub fn emission_matches(&self, k: usize, i: usize, j: usize) -> bool {
        self.emit.get(k) == Some(&(i, j))
    }

    /// Starts a values-only refresh; feed it every triplet in emission order.
    #[must_use]
    pub fn refresh(&self) -> CsrRefresh<'_> {
        CsrRefresh {
            pattern: self,
            values: vec![0.0; self.matrix.col_idx.len()],
            cursor: 0,
        }
    }
}

/// In-flight values-only refresh over a [`CsrPattern`]; see
/// [`CsrPattern::refresh`].
#[derive(Debug)]
pub struct CsrRefresh<'a> {
    pattern: &'a CsrPattern,
    values: Vec<f64>,
    cursor: usize,
}

impl CsrRefresh<'_> {
    /// Accumulates the next emitted triplet. Exact zeros are skipped without
    /// consuming an emission (mirroring [`TripletMatrix::add`]). Returns
    /// `false` — leaving the refresh unusable — when `(i, j)` deviates from
    /// the recorded pattern; the caller must fall back to a full symbolic
    /// rebuild.
    #[must_use]
    pub fn push(&mut self, i: usize, j: usize, v: f64) -> bool {
        if v == 0.0 {
            return true;
        }
        if !self.pattern.emission_matches(self.cursor, i, j) {
            return false;
        }
        self.values[self.pattern.scatter[self.cursor]] += v;
        self.cursor += 1;
        true
    }

    /// Finishes the refresh. Returns `None` when the number of emissions
    /// differs from the pattern (structural change).
    #[must_use]
    pub fn finish(self) -> Option<CsrMatrix> {
        if self.cursor != self.pattern.scatter.len() {
            return None;
        }
        Some(CsrMatrix {
            n: self.pattern.matrix.n,
            row_ptr: self.pattern.matrix.row_ptr.clone(),
            col_idx: self.pattern.matrix.col_idx.clone(),
            values: self.values,
        })
    }
}

/// Compressed-sparse-row matrix.
///
/// The structural arrays (`row_ptr`, `col_idx`) are immutable after
/// construction and shared (`Arc`) between clones, so matrices refreshed
/// through a [`CsrPattern`] reuse the symbolic layout without copying it.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: std::sync::Arc<[usize]>,
    col_idx: std::sync::Arc<[usize]>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Matrix dimension.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` or `y.len()` differ from the matrix size.
    pub fn mul_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        for (i, yi) in y.iter_mut().enumerate() {
            let mut s = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                s += self.values[k] * x[self.col_idx[k]];
            }
            *yi = s;
        }
    }

    /// `A·x` as a fresh vector.
    #[must_use]
    pub fn mul(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.mul_into(x, &mut y);
        y
    }

    /// Diagonal entries (zero when absent) — the Jacobi preconditioner.
    #[must_use]
    pub fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.n];
        for (i, di) in d.iter_mut().enumerate() {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                if self.col_idx[k] == i {
                    *di = self.values[k];
                }
            }
        }
        d
    }

    /// Index range of row `i`'s stored entries, for use with
    /// [`CsrMatrix::col_at`] / [`CsrMatrix::value_at`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn row_range(&self, i: usize) -> std::ops::Range<usize> {
        assert!(i < self.n, "row out of range");
        self.row_ptr[i]..self.row_ptr[i + 1]
    }

    /// Column index of stored entry `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn col_at(&self, k: usize) -> usize {
        self.col_idx[k]
    }

    /// Value of stored entry `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn value_at(&self, k: usize) -> f64 {
        self.values[k]
    }

    /// Reads `A[i, j]` (zero when not stored).
    ///
    /// Column indices within a row are sorted (see [`TripletMatrix::to_csr`]),
    /// so the lookup is a binary search: `O(log nnz_row)` instead of a linear
    /// scan — the difference matters for the dense-ish rows that boundary
    /// assembly produces.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of range");
        let row = &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]];
        match row.binary_search(&j) {
            Ok(k) => self.values[self.row_ptr[i] + k],
            Err(_) => 0.0,
        }
    }

    /// Iterates row `i`'s stored `(column, value)` entries in column order.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(i < self.n, "index out of range");
        let range = self.row_ptr[i]..self.row_ptr[i + 1];
        self.col_idx[range.clone()]
            .iter()
            .zip(&self.values[range])
            .map(|(&j, &v)| (j, v))
    }

    /// Returns a copy with `scale·D` added to the diagonal, where `D` is the
    /// supplied per-row values (backward-Euler system construction:
    /// `A + C/Δt`).
    ///
    /// The merge is direct — `O(nnz)`, no triplet round-trip — and bitwise
    /// identical to re-accumulating through a [`TripletMatrix`]: within a
    /// row the stored entries precede the diagonal increment in emission
    /// order, so a stable recompression would sum them exactly as the
    /// in-place `aᵢᵢ + dᵢ·scale` here does. Exact-zero stored entries and
    /// exact-zero diagonal increments are dropped, matching
    /// [`TripletMatrix::add`].
    ///
    /// # Panics
    ///
    /// Panics if `d.len()` differs from the matrix size.
    #[must_use]
    pub fn plus_diagonal(&self, d: &[f64], scale: f64) -> CsrMatrix {
        assert_eq!(d.len(), self.n);
        let mut row_ptr = Vec::with_capacity(self.n + 1);
        let mut col_idx = Vec::with_capacity(self.nnz() + self.n);
        let mut values = Vec::with_capacity(self.nnz() + self.n);
        row_ptr.push(0);
        for (i, &di) in d.iter().enumerate() {
            let add = di * scale;
            // Nothing to insert when the increment is an exact zero (the
            // triplet path would have dropped it).
            let mut placed = add == 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let j = self.col_idx[k];
                let v = self.values[k];
                if v == 0.0 {
                    continue;
                }
                if !placed && j >= i {
                    placed = true;
                    if j == i {
                        col_idx.push(j);
                        values.push(v + add);
                        continue;
                    }
                    col_idx.push(i);
                    values.push(add);
                }
                col_idx.push(j);
                values.push(v);
            }
            if !placed {
                col_idx.push(i);
                values.push(add);
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            n: self.n,
            row_ptr: row_ptr.into(),
            col_idx: col_idx.into(),
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplets_sum_duplicates() {
        let mut t = TripletMatrix::new(3);
        t.add(0, 0, 1.0);
        t.add(0, 0, 2.0);
        t.add(2, 1, -1.0);
        let m = t.to_csr();
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.get(2, 1), -1.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn empty_rows_are_handled() {
        let mut t = TripletMatrix::new(4);
        t.add(3, 0, 5.0);
        let m = t.to_csr();
        assert_eq!(m.get(3, 0), 5.0);
        assert_eq!(m.mul(&[1.0, 0.0, 0.0, 0.0]), vec![0.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn mat_vec() {
        let mut t = TripletMatrix::new(2);
        t.add(0, 0, 2.0);
        t.add(0, 1, 1.0);
        t.add(1, 0, -1.0);
        t.add(1, 1, 3.0);
        let m = t.to_csr();
        assert_eq!(m.mul(&[1.0, 2.0]), vec![4.0, 5.0]);
    }

    #[test]
    fn diagonal_extraction() {
        let mut t = TripletMatrix::new(3);
        t.add(0, 0, 2.0);
        t.add(1, 2, 1.0);
        t.add(2, 2, 7.0);
        let m = t.to_csr();
        assert_eq!(m.diagonal(), vec![2.0, 0.0, 7.0]);
    }

    #[test]
    fn get_binary_search_hits_every_stored_column() {
        // A wide row with scattered columns: every stored entry is found and
        // every gap reads zero (exercises both binary-search arms).
        let n = 64;
        let mut t = TripletMatrix::new(n);
        for j in (1..n).step_by(3) {
            t.add(5, j, j as f64);
        }
        let m = t.to_csr();
        for j in 0..n {
            let expect = if j >= 1 && (j - 1) % 3 == 0 {
                j as f64
            } else {
                0.0
            };
            assert_eq!(m.get(5, j), expect, "column {j}");
        }
    }

    #[test]
    fn zero_entries_are_dropped() {
        let mut t = TripletMatrix::new(2);
        t.add(0, 1, 0.0);
        assert_eq!(t.to_csr().nnz(), 0);
    }

    #[test]
    fn plus_diagonal() {
        let mut t = TripletMatrix::new(2);
        t.add(0, 0, 1.0);
        t.add(1, 0, 2.0);
        let m = t.to_csr().plus_diagonal(&[10.0, 20.0], 0.5);
        assert_eq!(m.get(0, 0), 6.0);
        assert_eq!(m.get(1, 1), 10.0);
        assert_eq!(m.get(1, 0), 2.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn triplet_bounds_checked() {
        let mut t = TripletMatrix::new(2);
        t.add(2, 0, 1.0);
    }

    /// A messy matrix: duplicates, empty rows, rows with and without
    /// diagonals, and an entry pair summing to exactly zero.
    fn messy() -> TripletMatrix {
        let mut t = TripletMatrix::new(5);
        t.add(0, 2, 1.5);
        t.add(0, 0, 2.0);
        t.add(0, 2, -1.5); // duplicate summing to exact zero
        t.add(2, 1, 3.0);
        t.add(2, 4, -1.0);
        t.add(2, 1, 0.25);
        t.add(4, 4, 7.0);
        t.add(3, 0, 1.0);
        t
    }

    /// Reference implementation of `plus_diagonal` through the triplet path
    /// (the pre-optimization behaviour).
    fn plus_diagonal_reference(m: &CsrMatrix, d: &[f64], scale: f64) -> CsrMatrix {
        let mut t = TripletMatrix::new(m.size());
        for (i, &di) in d.iter().enumerate().take(m.size()) {
            for k in m.row_range(i) {
                t.add(i, m.col_at(k), m.value_at(k));
            }
            t.add(i, i, di * scale);
        }
        t.to_csr()
    }

    fn assert_bitwise_equal(a: &CsrMatrix, b: &CsrMatrix) {
        assert_eq!(a.size(), b.size());
        assert_eq!(a.nnz(), b.nnz(), "nnz differ");
        for i in 0..a.size() {
            assert_eq!(a.row_range(i), b.row_range(i), "row {i}");
            for k in a.row_range(i) {
                assert_eq!(a.col_at(k), b.col_at(k), "col at {k}");
                assert_eq!(
                    a.value_at(k).to_bits(),
                    b.value_at(k).to_bits(),
                    "value at {k}"
                );
            }
        }
    }

    #[test]
    fn plus_diagonal_direct_merge_matches_triplet_path_bitwise() {
        let m = messy().to_csr();
        for (d, scale) in [
            (vec![10.0, 20.0, 30.0, 40.0, 50.0], 0.5),
            (vec![0.0, 1.0, 0.0, 2.0, 0.0], 1.0 / 3.0),
            (vec![0.0; 5], 1.0),
            (vec![1e-300, 2.0, 3.0, 4.0, 5.0], 1e7),
        ] {
            let fast = m.plus_diagonal(&d, scale);
            let reference = plus_diagonal_reference(&m, &d, scale);
            assert_bitwise_equal(&fast, &reference);
        }
    }

    #[test]
    fn pattern_refresh_is_bitwise_identical_to_recompression() {
        let t = messy();
        let (first, pattern) = t.to_csr_with_pattern();
        assert_bitwise_equal(&first, &t.to_csr());
        // New values, same structure: refresh must equal a fresh to_csr.
        let mut t2 = TripletMatrix::new(5);
        let mut refresh = pattern.refresh();
        for (k, &(i, j, _)) in t.entries.iter().enumerate() {
            let v = (k as f64 + 1.0) * 0.37 - 1.0;
            t2.add(i, j, v);
            assert!(refresh.push(i, j, v), "emission {k} should match");
        }
        let refreshed = refresh.finish().expect("emission counts match");
        assert_bitwise_equal(&refreshed, &t2.to_csr());
    }

    #[test]
    fn pattern_refresh_detects_structural_drift() {
        let t = messy();
        let (_, pattern) = t.to_csr_with_pattern();
        // Wrong coordinate at the second emission.
        let mut refresh = pattern.refresh();
        assert!(refresh.push(0, 2, 1.0));
        assert!(!refresh.push(1, 1, 2.0), "deviating emission must fail");
        // Too few emissions.
        let mut refresh = pattern.refresh();
        assert!(refresh.push(0, 2, 1.0));
        assert!(refresh.finish().is_none(), "short replay must fail");
    }

    #[test]
    fn refreshed_matrices_share_structure_storage() {
        let t = messy();
        let (first, pattern) = t.to_csr_with_pattern();
        let mut refresh = pattern.refresh();
        for &(i, j, v) in &t.entries {
            assert!(refresh.push(i, j, v));
        }
        let second = refresh.finish().unwrap();
        assert!(std::sync::Arc::ptr_eq(&first.row_ptr, &second.row_ptr));
        assert!(std::sync::Arc::ptr_eq(&first.col_idx, &second.col_idx));
    }
}
