//! A small dense linear-algebra kernel.
//!
//! The fitting routines in this crate only need matrices with a handful of
//! columns (one per model parameter), so a simple row-major `Vec<f64>`
//! representation with partial-pivot Gaussian elimination is both adequate
//! and dependency-free.

use crate::FitError;

/// A dense, row-major matrix of `f64` values.
///
/// # Example
///
/// ```
/// use ipso_fit::matrix::Matrix;
///
/// let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]);
/// let b = a.mul(&Matrix::identity(2));
/// assert_eq!(b.get(1, 1), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have unequal lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix must have at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a column vector from a slice.
    pub fn column(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "column vector must be non-empty");
        Matrix {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the element at (`r`, `c`).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets the element at (`r`, `c`).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Returns the transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.set(c, r, self.get(r, c));
            }
        }
        t
    }

    /// Matrix multiplication `self · other`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not match.
    pub fn mul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must match");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(r, k);
                if a == 0.0 {
                    continue;
                }
                for c in 0..other.cols {
                    let v = out.get(r, c) + a * other.get(k, c);
                    out.set(r, c, v);
                }
            }
        }
        out
    }

    /// Adds `lambda` to every diagonal element, in place. Used by the
    /// Levenberg–Marquardt damping step.
    pub fn add_diagonal(&mut self, lambda: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            let v = self.get(i, i) + lambda;
            self.set(i, i, v);
        }
    }

    /// Solves the linear system `self · x = rhs` for `x` using Gaussian
    /// elimination with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`FitError::Singular`] if the matrix is (numerically)
    /// singular, and [`FitError::NonFinite`] if a non-finite value appears
    /// during elimination.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not square or `rhs` has a different row count.
    pub fn solve(&self, rhs: &Matrix) -> Result<Matrix, FitError> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(rhs.rows, self.rows, "rhs row count must match");
        let n = self.rows;
        let m = rhs.cols;

        // Augmented working copies.
        let mut a = self.clone();
        let mut b = rhs.clone();

        for col in 0..n {
            // Partial pivot: find the row with the largest magnitude in this
            // column at or below the diagonal.
            let mut pivot_row = col;
            let mut pivot_val = a.get(col, col).abs();
            for r in (col + 1)..n {
                let v = a.get(r, col).abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if !pivot_val.is_finite() {
                return Err(FitError::NonFinite);
            }
            if pivot_val < 1e-12 {
                return Err(FitError::Singular);
            }
            if pivot_row != col {
                for c in 0..n {
                    let (x, y) = (a.get(col, c), a.get(pivot_row, c));
                    a.set(col, c, y);
                    a.set(pivot_row, c, x);
                }
                for c in 0..m {
                    let (x, y) = (b.get(col, c), b.get(pivot_row, c));
                    b.set(col, c, y);
                    b.set(pivot_row, c, x);
                }
            }
            // Eliminate below the pivot.
            let pivot = a.get(col, col);
            for r in (col + 1)..n {
                let factor = a.get(r, col) / pivot;
                if factor == 0.0 {
                    continue;
                }
                for c in col..n {
                    let v = a.get(r, c) - factor * a.get(col, c);
                    a.set(r, c, v);
                }
                for c in 0..m {
                    let v = b.get(r, c) - factor * b.get(col, c);
                    b.set(r, c, v);
                }
            }
        }

        // Back substitution.
        let mut x = Matrix::zeros(n, m);
        for c in 0..m {
            for r in (0..n).rev() {
                let mut sum = b.get(r, c);
                for k in (r + 1)..n {
                    sum -= a.get(r, k) * x.get(k, c);
                }
                let v = sum / a.get(r, r);
                if !v.is_finite() {
                    return Err(FitError::NonFinite);
                }
                x.set(r, c, v);
            }
        }
        Ok(x)
    }

    /// Returns the contents of a single-column matrix as a `Vec<f64>`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix has more than one column.
    pub fn into_column_vec(self) -> Vec<f64> {
        assert_eq!(
            self.cols, 1,
            "into_column_vec requires a single-column matrix"
        );
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_multiplication_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.mul(&i), a);
        assert_eq!(i.mul(&a), a);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn solve_simple_system() {
        // 2x + y = 5, x - y = 1  =>  x = 2, y = 1
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, -1.0]]);
        let b = Matrix::column(&[5.0, 1.0]);
        let x = a.solve(&b).unwrap().into_column_vec();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the leading diagonal requires a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let b = Matrix::column(&[3.0, 7.0]);
        let x = a.solve(&b).unwrap().into_column_vec();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_detects_singularity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let b = Matrix::column(&[1.0, 2.0]);
        assert_eq!(a.solve(&b).unwrap_err(), FitError::Singular);
    }

    #[test]
    fn add_diagonal_damps_in_place() {
        let mut a = Matrix::identity(3);
        a.add_diagonal(0.5);
        for i in 0..3 {
            assert!((a.get(i, i) - 1.5).abs() < 1e-15);
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions must match")]
    fn mul_rejects_mismatched_dims() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.mul(&b);
    }

    #[test]
    fn solve_3x3_system() {
        let a = Matrix::from_rows(&[&[1.0, 1.0, 1.0], &[0.0, 2.0, 5.0], &[2.0, 5.0, -1.0]]);
        let b = Matrix::column(&[6.0, -4.0, 27.0]);
        let x = a.solve(&b).unwrap().into_column_vec();
        // Known solution: x = 5, y = 3, z = -2
        assert!((x[0] - 5.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
        assert!((x[2] + 2.0).abs() < 1e-10);
    }
}
