//! Compressed sparse column (CSC) matrix storage for the LP pipeline.
//!
//! The mechanism-design LPs this workspace solves have `(n+1)²` variables but only
//! 2 to `n+1` nonzeros per constraint row: differential-privacy ratio rows touch
//! exactly two variables, column-sum rows touch `n+1`.  Storing the constraint
//! matrix densely therefore wastes `O(rows · cols)` memory and forces `O(rows ·
//! cols)` work per simplex pivot; CSC storage gives `O(nnz)` for both.
//!
//! ## Layout
//!
//! A [`SparseMatrix`] keeps three parallel arrays in the standard CSC scheme:
//!
//! * `col_ptr[j] .. col_ptr[j + 1]` is the index range of column `j`,
//! * `row_idx[k]` is the row of the `k`-th stored entry,
//! * `values[k]` is its coefficient.
//!
//! Rows are strictly ascending within every column (the triplet constructor sorts
//! and merges duplicates), so per-column scans are cache-friendly and
//! [`SparseMatrix::get`] can binary-search.
//!
//! The matrix is built from `(row, col, value)` triplets via a counting sort —
//! `O(nnz + cols)`, no comparisons — which is how
//! the crate's `standardize` step assembles the standard-form constraint matrix
//! row by row.

/// An immutable sparse matrix in compressed sparse column form.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    num_rows: usize,
    num_cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl SparseMatrix {
    /// Build a matrix from `(row, col, value)` triplets.
    ///
    /// Duplicate `(row, col)` entries are summed; entries that are exactly `0.0`
    /// (including duplicates that cancel) are dropped.  Triplets may arrive in any
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if a triplet lies outside `num_rows × num_cols` or a value is
    /// non-finite.
    pub fn from_triplets(
        num_rows: usize,
        num_cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Self {
        for &(r, c, v) in triplets {
            assert!(
                r < num_rows && c < num_cols,
                "triplet ({r}, {c}) outside a {num_rows}x{num_cols} matrix"
            );
            assert!(v.is_finite(), "non-finite value at ({r}, {c})");
        }

        // Counting sort by column.
        let mut counts = vec![0usize; num_cols + 1];
        for &(_, c, _) in triplets {
            counts[c + 1] += 1;
        }
        for j in 0..num_cols {
            counts[j + 1] += counts[j];
        }
        let mut positions = counts.clone();
        let mut row_idx = vec![0usize; triplets.len()];
        let mut values = vec![0.0f64; triplets.len()];
        for &(r, c, v) in triplets {
            let slot = positions[c];
            positions[c] += 1;
            row_idx[slot] = r;
            values[slot] = v;
        }

        // Sort each column by row and merge duplicates in place.
        let mut write = 0usize;
        let mut col_ptr = vec![0usize; num_cols + 1];
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for j in 0..num_cols {
            let (start, end) = (counts[j], counts[j + 1]);
            scratch.clear();
            scratch.extend(
                row_idx[start..end]
                    .iter()
                    .copied()
                    .zip(values[start..end].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(r, _)| r);
            let col_start = write;
            for &(r, v) in &scratch {
                if write > col_start && row_idx[write - 1] == r {
                    values[write - 1] += v;
                } else {
                    row_idx[write] = r;
                    values[write] = v;
                    write += 1;
                }
            }
            // Drop entries that cancelled to exactly zero.
            let mut keep = col_start;
            for k in col_start..write {
                if values[k] != 0.0 {
                    row_idx[keep] = row_idx[k];
                    values[keep] = values[k];
                    keep += 1;
                }
            }
            write = keep;
            col_ptr[j + 1] = write;
        }
        row_idx.truncate(write);
        values.truncate(write);

        SparseMatrix {
            num_rows,
            num_cols,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    #[inline]
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Number of explicitly stored (nonzero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The `(row, value)` entries of column `j`, rows ascending.
    #[inline]
    pub fn column(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.col_ptr[j]..self.col_ptr[j + 1];
        self.row_idx[range.clone()]
            .iter()
            .copied()
            .zip(self.values[range].iter().copied())
    }

    /// Number of stored entries in column `j`.
    #[inline]
    pub fn column_nnz(&self, j: usize) -> usize {
        self.col_ptr[j + 1] - self.col_ptr[j]
    }

    /// Column `j` as parallel `(rows, values)` slices, rows ascending.
    #[inline]
    pub fn column_slices(&self, j: usize) -> (&[usize], &[f64]) {
        let range = self.col_ptr[j]..self.col_ptr[j + 1];
        (&self.row_idx[range.clone()], &self.values[range])
    }

    /// The value at `(row, col)` (zero when not stored).  `O(log column_nnz)`.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        let range = self.col_ptr[col]..self.col_ptr[col + 1];
        match self.row_idx[range.clone()].binary_search(&row) {
            Ok(offset) => self.values[range.start + offset],
            Err(_) => 0.0,
        }
    }

    /// Sparse dot product of column `j` with a dense vector.
    #[inline]
    pub fn column_dot(&self, j: usize, dense: &[f64]) -> f64 {
        let mut total = 0.0;
        for (r, v) in self.column(j) {
            total += v * dense[r];
        }
        total
    }

    /// Materialise the matrix as dense row-major rows (used by the dense
    /// reference solver and by tests).
    pub fn to_dense_rows(&self) -> Vec<Vec<f64>> {
        let mut rows = vec![vec![0.0; self.num_cols]; self.num_rows];
        for (j, window) in self.col_ptr.windows(2).enumerate() {
            let entries = self.row_idx[window[0]..window[1]]
                .iter()
                .zip(&self.values[window[0]..window[1]]);
            for (&r, &v) in entries {
                rows[r][j] = v;
            }
        }
        rows
    }

    /// Density `nnz / (rows · cols)` — handy for logging and bench labels.
    pub fn fill_ratio(&self) -> f64 {
        if self.num_rows == 0 || self.num_cols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.num_rows as f64 * self.num_cols as f64)
    }

    /// Build the compressed sparse **row** mirror of this matrix.
    ///
    /// The revised simplex is column-oriented almost everywhere, but two hot
    /// kernels want rows: the pricing update multiplies the (sparse) pivot row of
    /// `B⁻¹` against *every* nonbasic column, which is `O(nnz(A))` column-wise
    /// but only `O(Σ_{r ∈ supp} row_nnz(r))` row-wise, and the LU
    /// factorisation's pivot search wants row counts.  Built once per solve.
    pub fn to_row_major(&self) -> RowMajor {
        let mut row_ptr = vec![0usize; self.num_rows + 1];
        for &r in &self.row_idx {
            row_ptr[r + 1] += 1;
        }
        for r in 0..self.num_rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let mut cursor = row_ptr.clone();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        for j in 0..self.num_cols {
            for (r, v) in self.column(j) {
                let slot = cursor[r];
                cursor[r] += 1;
                col_idx[slot] = j;
                values[slot] = v;
            }
        }
        RowMajor {
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// A compressed sparse **row** view of a [`SparseMatrix`] (columns ascending
/// within each row), produced by [`SparseMatrix::to_row_major`].
#[derive(Debug, Clone, PartialEq)]
pub struct RowMajor {
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl RowMajor {
    /// The `(col, value)` entries of row `r`, columns ascending.
    #[inline]
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.row_ptr[r]..self.row_ptr[r + 1];
        self.col_idx[range.clone()]
            .iter()
            .copied()
            .zip(self.values[range].iter().copied())
    }

    /// Number of stored entries in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }
}

/// A dense-backed sparse accumulator (the classic "SPA" of sparse-matrix codes):
/// a dense value array plus an explicit pattern of touched indices, so a sparse
/// linear combination costs `O(nnz)` to build and `O(pattern)` to reset — no
/// `O(n)` clears between uses.
///
/// Used by the Forrest–Tomlin row elimination and the pricing update's
/// pivot-row accumulation.
#[derive(Debug, Clone, Default)]
pub struct SparseAccumulator {
    values: Vec<f64>,
    marked: Vec<bool>,
    pattern: Vec<usize>,
}

impl SparseAccumulator {
    /// An accumulator over indices `0..len`, initially empty.
    pub fn with_len(len: usize) -> Self {
        SparseAccumulator {
            values: vec![0.0; len],
            marked: vec![false; len],
            pattern: Vec::new(),
        }
    }

    /// Add `v` at index `i`, extending the pattern if `i` is untouched.
    #[inline]
    pub fn add(&mut self, i: usize, v: f64) {
        if self.marked[i] {
            self.values[i] += v;
        } else {
            self.marked[i] = true;
            self.values[i] = v;
            self.pattern.push(i);
        }
    }

    /// The current value at index `i` (zero when untouched).
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        if self.marked[i] {
            self.values[i]
        } else {
            0.0
        }
    }

    /// Whether index `i` is in the pattern.
    #[inline]
    pub fn is_marked(&self, i: usize) -> bool {
        self.marked[i]
    }

    /// The touched indices, in insertion order.
    #[inline]
    pub fn pattern(&self) -> &[usize] {
        &self.pattern
    }

    /// Reset to empty in `O(pattern)`.
    pub fn clear(&mut self) {
        for &i in &self.pattern {
            self.marked[i] = false;
            self.values[i] = 0.0;
        }
        self.pattern.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_from_unordered_triplets() {
        let m = SparseMatrix::from_triplets(
            3,
            4,
            &[
                (2, 1, 5.0),
                (0, 0, 1.0),
                (1, 1, -2.0),
                (0, 3, 4.0),
                (2, 0, 3.0),
            ],
        );
        assert_eq!(m.num_rows(), 3);
        assert_eq!(m.num_cols(), 4);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(2, 0), 3.0);
        assert_eq!(m.get(1, 1), -2.0);
        assert_eq!(m.get(2, 1), 5.0);
        assert_eq!(m.get(0, 3), 4.0);
        assert_eq!(m.get(1, 3), 0.0);
    }

    #[test]
    fn duplicates_are_summed_and_zeros_dropped() {
        let m = SparseMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 2.0), (0, 0, 1.5), (1, 1, 4.0), (1, 1, -4.0)],
        );
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(m.nnz(), 1, "cancelled entry must be dropped");
    }

    #[test]
    fn columns_iterate_rows_ascending() {
        let m = SparseMatrix::from_triplets(4, 1, &[(3, 0, 3.0), (1, 0, 1.0), (2, 0, 2.0)]);
        let column: Vec<(usize, f64)> = m.column(0).collect();
        assert_eq!(column, vec![(1, 1.0), (2, 2.0), (3, 3.0)]);
        assert_eq!(m.column_nnz(0), 3);
    }

    #[test]
    fn dot_and_densify_agree() {
        let m = SparseMatrix::from_triplets(3, 2, &[(0, 0, 1.0), (2, 0, -2.0), (1, 1, 4.0)]);
        let dense = m.to_dense_rows();
        assert_eq!(dense, vec![vec![1.0, 0.0], vec![0.0, 4.0], vec![-2.0, 0.0]]);
        let x = [1.0, 2.0, 3.0];
        assert_eq!(m.column_dot(0, &x), 1.0 - 6.0);
        assert_eq!(m.column_dot(1, &x), 8.0);
        assert!((m.fill_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_bounds_triplets_panic() {
        SparseMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]);
    }

    #[test]
    fn row_major_mirror_matches_columns() {
        let m = SparseMatrix::from_triplets(
            3,
            4,
            &[
                (2, 1, 5.0),
                (0, 0, 1.0),
                (1, 1, -2.0),
                (0, 3, 4.0),
                (2, 0, 3.0),
            ],
        );
        let rm = m.to_row_major();
        assert_eq!(rm.row(0).collect::<Vec<_>>(), vec![(0, 1.0), (3, 4.0)]);
        assert_eq!(rm.row(1).collect::<Vec<_>>(), vec![(1, -2.0)]);
        assert_eq!(rm.row(2).collect::<Vec<_>>(), vec![(0, 3.0), (1, 5.0)]);
        assert_eq!(rm.row_nnz(2), 2);
        // Round-trip: every stored entry is found through the row view.
        for j in 0..m.num_cols() {
            for (r, v) in m.column(j) {
                assert!(rm.row(r).any(|(c, value)| c == j && value == v));
            }
        }
    }

    #[test]
    fn sparse_accumulator_tracks_pattern_and_resets_cheaply() {
        let mut spa = SparseAccumulator::with_len(5);
        spa.add(3, 1.5);
        spa.add(1, 2.0);
        spa.add(3, -0.5);
        assert_eq!(spa.get(3), 1.0);
        assert_eq!(spa.get(1), 2.0);
        assert_eq!(spa.get(0), 0.0);
        assert!(spa.is_marked(1) && !spa.is_marked(2));
        assert_eq!(spa.pattern(), &[3, 1]);
        spa.clear();
        assert_eq!(spa.pattern(), &[] as &[usize]);
        assert_eq!(spa.get(3), 0.0);
        spa.add(3, 7.0);
        assert_eq!(spa.get(3), 7.0, "cleared slot must start from zero again");
    }
}
