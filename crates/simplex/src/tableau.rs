//! Dense simplex tableau and pivot operations.

/// A dense full tableau: the constraint matrix (including slack and artificial
/// columns), the right-hand side, the current reduced-cost row, the objective value
/// of the current basic solution, and the basis.
#[derive(Debug, Clone)]
pub(crate) struct Tableau {
    num_rows: usize,
    num_cols: usize,
    /// Row-major `num_rows * num_cols` constraint coefficients.
    a: Vec<f64>,
    /// Right-hand sides (kept non-negative throughout).
    rhs: Vec<f64>,
    /// Reduced costs for the current basis and cost vector.
    reduced: Vec<f64>,
    /// Objective value `c_B' x_B` of the current basic solution.
    objective: f64,
    /// Basic column of each row.
    basis: Vec<usize>,
}

impl Tableau {
    /// Create a tableau from dense rows, right-hand sides, and an initial basis.
    ///
    /// The initial basis must be valid: `basis[r]` must be a column whose only
    /// non-zero entry is a `1.0` in row `r` (slack or artificial column).
    pub fn new(rows: Vec<Vec<f64>>, rhs: Vec<f64>, basis: Vec<usize>) -> Self {
        let num_rows = rows.len();
        let num_cols = if num_rows == 0 { 0 } else { rows[0].len() };
        debug_assert!(rows.iter().all(|r| r.len() == num_cols));
        debug_assert_eq!(rhs.len(), num_rows);
        debug_assert_eq!(basis.len(), num_rows);
        let mut a = Vec::with_capacity(num_rows * num_cols);
        for row in &rows {
            a.extend_from_slice(row);
        }
        Tableau {
            num_rows,
            num_cols,
            a,
            rhs,
            reduced: vec![0.0; num_cols],
            objective: 0.0,
            basis,
        }
    }

    #[inline]
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    #[inline]
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    #[inline]
    pub fn basis(&self) -> &[usize] {
        &self.basis
    }

    #[inline]
    pub fn rhs(&self, row: usize) -> f64 {
        self.rhs[row]
    }

    #[inline]
    pub fn objective(&self) -> f64 {
        self.objective
    }

    #[inline]
    pub fn reduced_cost(&self, col: usize) -> f64 {
        self.reduced[col]
    }

    #[inline]
    fn at(&self, row: usize, col: usize) -> f64 {
        self.a[row * self.num_cols + col]
    }

    #[inline]
    fn row(&self, row: usize) -> &[f64] {
        &self.a[row * self.num_cols..(row + 1) * self.num_cols]
    }

    /// Recompute the reduced-cost row and objective value for a new cost vector,
    /// given the current basis.  `costs[j]` is the cost of column `j`.
    pub fn set_costs(&mut self, costs: &[f64]) {
        debug_assert_eq!(costs.len(), self.num_cols);
        // reduced_j = c_j - sum_r c_{basis[r]} * a[r][j];   objective = sum_r c_{basis[r]} * rhs[r]
        self.reduced.copy_from_slice(costs);
        self.objective = 0.0;
        for r in 0..self.num_rows {
            let cb = costs[self.basis[r]];
            if cb != 0.0 {
                self.objective += cb * self.rhs[r];
                let row = &self.a[r * self.num_cols..(r + 1) * self.num_cols];
                for (j, &arj) in row.iter().enumerate() {
                    self.reduced[j] -= cb * arj;
                }
            }
        }
    }

    /// Extract the current basic solution as a dense vector over all columns.
    pub fn basic_solution(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.num_cols];
        for r in 0..self.num_rows {
            x[self.basis[r]] = self.rhs[r];
        }
        x
    }

    /// The ratio test: among rows with `a[r][col] > min_pivot`, pick the one
    /// minimising `rhs[r] / a[r][col]`, treating ratios within `eps` as ties
    /// and breaking them by the smallest basic-variable index (which is what
    /// Bland's rule requires).  Returns `None` if no row qualifies, i.e. the
    /// column is unbounded.
    pub fn ratio_test(&self, col: usize, min_pivot: f64, eps: f64) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for r in 0..self.num_rows {
            let arc = self.at(r, col);
            if arc > min_pivot {
                let ratio = self.rhs[r] / arc;
                match best {
                    None => best = Some((r, ratio)),
                    Some((best_row, best_ratio)) => {
                        if ratio < best_ratio - eps
                            || (ratio < best_ratio + eps && self.basis[r] < self.basis[best_row])
                        {
                            best = Some((r, ratio));
                        }
                    }
                }
            }
        }
        best.map(|(r, _)| r)
    }

    /// Perform a pivot on `(row, col)`: column `col` enters the basis, the variable
    /// basic in `row` leaves.  Returns `true` if the pivot was non-degenerate
    /// (the objective strictly changed, i.e. the leaving value was positive).
    pub fn pivot(&mut self, row: usize, col: usize) -> bool {
        let pivot_value = self.at(row, col);
        debug_assert!(pivot_value.abs() > 0.0, "pivot on a zero element");
        let nondegenerate = self.rhs[row] > 0.0;

        // Normalise the pivot row.
        let inv = 1.0 / pivot_value;
        {
            let start = row * self.num_cols;
            for value in &mut self.a[start..start + self.num_cols] {
                *value *= inv;
            }
            self.rhs[row] *= inv;
        }

        // Eliminate the entering column from every other row.
        for r in 0..self.num_rows {
            if r == row {
                continue;
            }
            let factor = self.at(r, col);
            if factor != 0.0 {
                let (pivot_row_start, target_row_start) = (row * self.num_cols, r * self.num_cols);
                for j in 0..self.num_cols {
                    let pivot_entry = self.a[pivot_row_start + j];
                    if pivot_entry != 0.0 {
                        self.a[target_row_start + j] -= factor * pivot_entry;
                    }
                }
                self.rhs[r] -= factor * self.rhs[row];
                if self.rhs[r] < 0.0 && self.rhs[r] > -1e-11 {
                    self.rhs[r] = 0.0;
                }
            }
        }

        // Eliminate from the reduced-cost row.
        let rc_factor = self.reduced[col];
        if rc_factor != 0.0 {
            let pivot_row_start = row * self.num_cols;
            for j in 0..self.num_cols {
                let pivot_entry = self.a[pivot_row_start + j];
                if pivot_entry != 0.0 {
                    self.reduced[j] -= rc_factor * pivot_entry;
                }
            }
            // The entering variable takes the value now stored in `rhs[row]`, so the
            // objective changes by (reduced cost of entering column) * (that value).
            self.objective += rc_factor * self.rhs[row];
        }
        // Force exact zero in the entering column's reduced cost to avoid drift.
        self.reduced[col] = 0.0;

        self.basis[row] = col;
        nondegenerate
    }

    /// Find the row (if any) whose basic variable is `col`.
    #[cfg(test)]
    pub fn row_of_basic(&self, col: usize) -> Option<usize> {
        self.basis.iter().position(|&b| b == col)
    }

    /// True if the row has no entry with magnitude above `eps` among the columns in
    /// `0..limit` (used to detect redundant rows when driving artificials out).
    pub fn row_is_zero_up_to(&self, row: usize, limit: usize, eps: f64) -> bool {
        self.row(row)[..limit].iter().all(|&v| v.abs() <= eps)
    }

    /// First column in `0..limit` with `|a[row][col]| > eps`, if any.
    pub fn first_nonzero_in_row(&self, row: usize, limit: usize, eps: f64) -> Option<usize> {
        self.row(row)[..limit].iter().position(|&v| v.abs() > eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small helper building the tableau for
    ///   min -3x - 5y  s.t.  x + s1 = 4,  2y + s2 = 12,  3x + 2y + s3 = 18.
    fn example_tableau() -> Tableau {
        let rows = vec![
            vec![1.0, 0.0, 1.0, 0.0, 0.0],
            vec![0.0, 2.0, 0.0, 1.0, 0.0],
            vec![3.0, 2.0, 0.0, 0.0, 1.0],
        ];
        let rhs = vec![4.0, 12.0, 18.0];
        let basis = vec![2, 3, 4];
        Tableau::new(rows, rhs, basis)
    }

    #[test]
    fn set_costs_computes_reduced_costs_for_slack_basis() {
        let mut t = example_tableau();
        t.set_costs(&[-3.0, -5.0, 0.0, 0.0, 0.0]);
        assert_eq!(t.reduced_cost(0), -3.0);
        assert_eq!(t.reduced_cost(1), -5.0);
        assert_eq!(t.objective(), 0.0);
    }

    #[test]
    fn pivot_updates_objective_and_basis() {
        let mut t = example_tableau();
        t.set_costs(&[-3.0, -5.0, 0.0, 0.0, 0.0]);
        // Enter y (column 1): ratio test picks row 1 (12/2 = 6 vs 18/2 = 9).
        let row = t.ratio_test(1, 1e-9, 1e-9).unwrap();
        assert_eq!(row, 1);
        let nondegenerate = t.pivot(row, 1);
        assert!(nondegenerate);
        assert_eq!(t.basis()[1], 1);
        assert!((t.objective() - (-30.0)).abs() < 1e-12);
        // Enter x (column 0): ratio test now picks row 2 (6/3 = 2 vs 4/1 = 4).
        let row = t.ratio_test(0, 1e-9, 1e-9).unwrap();
        assert_eq!(row, 2);
        t.pivot(row, 0);
        assert!((t.objective() - (-36.0)).abs() < 1e-12);
        // Optimal: no negative reduced costs.
        assert!((0..t.num_cols()).all(|j| t.reduced_cost(j) >= -1e-9));
        let x = t.basic_solution();
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn ratio_test_detects_unbounded_column() {
        let rows = vec![vec![-1.0, 1.0, 0.0], vec![0.0, 0.0, 1.0]];
        let rhs = vec![1.0, 2.0];
        let basis = vec![1, 2];
        let t = Tableau::new(rows, rhs, basis);
        assert_eq!(t.ratio_test(0, 1e-9, 1e-9), None);
    }

    #[test]
    fn degenerate_pivot_is_reported() {
        let rows = vec![vec![1.0, 1.0, 0.0], vec![1.0, 0.0, 1.0]];
        let rhs = vec![0.0, 5.0];
        let basis = vec![1, 2];
        let mut t = Tableau::new(rows, rhs, basis);
        t.set_costs(&[-1.0, 0.0, 0.0]);
        let row = t.ratio_test(0, 1e-9, 1e-9).unwrap();
        assert_eq!(row, 0);
        let nondegenerate = t.pivot(row, 0);
        assert!(!nondegenerate);
    }

    #[test]
    fn row_helpers_find_nonzero_columns() {
        let t = example_tableau();
        assert!(!t.row_is_zero_up_to(0, 2, 1e-9));
        assert!(t.row_is_zero_up_to(1, 1, 1e-9));
        assert_eq!(t.first_nonzero_in_row(1, 2, 1e-9), Some(1));
        assert_eq!(t.first_nonzero_in_row(1, 1, 1e-9), None);
    }

    #[test]
    fn row_of_basic_locates_basis_members() {
        let t = example_tableau();
        assert_eq!(t.row_of_basic(3), Some(1));
        assert_eq!(t.row_of_basic(0), None);
    }
}
