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
//! Offsets and indices are `u32`, as in the LU factors: an entry costs 12
//! bytes, and a program with 2³² nonzeros is far beyond anything the solver
//! could pivot on.
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
    col_ptr: Vec<u32>,
    row_idx: Vec<u32>,
    values: Vec<f64>,
}

/// Panic unless `count` fits the `u32` offsets and indices of the
/// compressed formats.
pub(crate) fn check_u32(count: usize, what: &str) {
    assert!(
        u32::try_from(count).is_ok(),
        "{count} {what} overflow the u32 indices of a sparse matrix"
    );
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

        check_u32(num_rows, "rows");
        check_u32(num_cols, "columns");
        check_u32(triplets.len(), "entries");

        // Counting sort by column.
        let mut counts = vec![0u32; num_cols + 1];
        for &(_, c, _) in triplets {
            counts[c + 1] += 1;
        }
        for j in 0..num_cols {
            counts[j + 1] += counts[j];
        }
        let mut positions = counts.clone();
        let mut row_idx = vec![0u32; triplets.len()];
        let mut values = vec![0.0f64; triplets.len()];
        for &(r, c, v) in triplets {
            let slot = positions[c] as usize;
            positions[c] += 1;
            row_idx[slot] = r as u32;
            values[slot] = v;
        }

        // Sort each column by row and merge duplicates in place.
        let mut write = 0usize;
        let mut col_ptr = vec![0u32; num_cols + 1];
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        for j in 0..num_cols {
            let (start, end) = (counts[j] as usize, counts[j + 1] as usize);
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
            col_ptr[j + 1] = write as u32;
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

    /// Assemble a matrix from its CSC arrays: column `j` holds entries
    /// `col_ptr[j] .. col_ptr[j + 1]` of `row_idx`/`values`, rows strictly
    /// ascending, no stored zeros.
    pub(crate) fn from_csc(
        num_rows: usize,
        col_ptr: Vec<u32>,
        row_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        check_u32(num_rows, "rows");
        debug_assert_eq!(col_ptr.first(), Some(&0));
        debug_assert_eq!(col_ptr.last().map(|&end| end as usize), Some(row_idx.len()));
        debug_assert_eq!(row_idx.len(), values.len());
        debug_assert!(col_ptr.windows(2).all(|w| {
            let rows = &row_idx[w[0] as usize..w[1] as usize];
            rows.windows(2).all(|pair| pair[0] < pair[1])
                && rows.iter().all(|&r| (r as usize) < num_rows)
        }));
        debug_assert!(values.iter().all(|&v| v != 0.0 && v.is_finite()));
        SparseMatrix {
            num_rows,
            num_cols: col_ptr.len() - 1,
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
        let (rows, values) = self.column_slices(j);
        rows.iter().map(|&r| r as usize).zip(values.iter().copied())
    }

    /// Number of stored entries in column `j`.
    #[inline]
    pub fn column_nnz(&self, j: usize) -> usize {
        (self.col_ptr[j + 1] - self.col_ptr[j]) as usize
    }

    /// Column `j` as parallel `(rows, values)` slices, rows ascending.
    #[inline]
    pub fn column_slices(&self, j: usize) -> (&[u32], &[f64]) {
        let range = self.col_ptr[j] as usize..self.col_ptr[j + 1] as usize;
        (&self.row_idx[range.clone()], &self.values[range])
    }

    /// The value at `(row, col)` (zero when not stored).  `O(log column_nnz)`.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        let (rows, values) = self.column_slices(col);
        match u32::try_from(row).map(|row| rows.binary_search(&row)) {
            Ok(Ok(offset)) => values[offset],
            _ => 0.0,
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
            let range = window[0] as usize..window[1] as usize;
            for (&r, &v) in self.row_idx[range.clone()].iter().zip(&self.values[range]) {
                rows[r as usize][j] = v;
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
        self.leading_row_major(self.num_cols)
    }

    /// The compressed sparse row mirror of the first `cols` columns: row `r`
    /// lists the entries `(j, a_rj)` with `j < cols`, columns ascending.  A
    /// counting-sort transpose, `O(nnz + rows)`.
    pub(crate) fn leading_row_major(&self, cols: usize) -> RowMajor {
        let end = self.col_ptr[cols] as usize;
        let mut row_ptr = vec![0u32; self.num_rows + 1];
        for &r in &self.row_idx[..end] {
            row_ptr[r as usize + 1] += 1;
        }
        for r in 0..self.num_rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let mut cursor = row_ptr.clone();
        let mut col_idx = vec![0u32; end];
        let mut values = vec![0.0f64; end];
        for j in 0..cols {
            for (r, v) in self.column(j) {
                let slot = cursor[r] as usize;
                cursor[r] += 1;
                col_idx[slot] = j as u32;
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
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl RowMajor {
    /// The `(col, value)` entries of row `r`, columns ascending.
    #[inline]
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (cols, values) = self.row_slices(r);
        cols.iter().map(|&j| j as usize).zip(values.iter().copied())
    }

    /// Row `r` as parallel `(cols, values)` slices, columns ascending.
    #[inline]
    pub fn row_slices(&self, r: usize) -> (&[u32], &[f64]) {
        let range = self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize;
        (&self.col_idx[range.clone()], &self.values[range])
    }

    /// Number of stored entries in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        (self.row_ptr[r + 1] - self.row_ptr[r]) as usize
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

    /// Bytes this accumulator holds (its buffers' capacity).
    pub fn bytes(&self) -> usize {
        self.values.capacity() * std::mem::size_of::<f64>()
            + self.marked.capacity()
            + self.pattern.capacity() * std::mem::size_of::<usize>()
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
