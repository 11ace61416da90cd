//! A minimal dense row-major matrix with Gaussian elimination.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::solve::SolveError;

/// A dense row-major matrix of `f64`.
///
/// Only the operations the Markov models need are provided: construction,
/// element access, transpose, matrix–vector product, and [`Matrix::solve`].
///
/// # Examples
///
/// ```
/// use linsolve::Matrix;
///
/// let mut m = Matrix::zeros(2, 2);
/// m[(0, 0)] = 2.0;
/// m[(1, 1)] = 4.0;
/// let x = m.solve(&[6.0, 8.0]).unwrap();
/// assert_eq!(x, vec![3.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
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
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from explicit rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all have the same length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            assert_eq!(row.len(), ncols, "ragged rows passed to Matrix::from_rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: nrows,
            cols: ncols,
            data,
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

    /// Computes the matrix–vector product `self · v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch in mul_vec");
        let mut out = vec![0.0; self.rows];
        for r in 0..self.rows {
            let mut acc = 0.0;
            for c in 0..self.cols {
                acc += self[(r, c)] * v[c];
            }
            out[r] = acc;
        }
        out
    }

    /// Solves `self · x = b` by Gaussian elimination with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Singular`] when no pivot above the numerical
    /// tolerance can be found (the system has no unique solution), and
    /// [`SolveError::DimensionMismatch`] when the matrix is not square or
    /// `b` has the wrong length.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SolveError> {
        if self.rows != self.cols {
            return Err(SolveError::DimensionMismatch {
                rows: self.rows,
                cols: self.cols,
                rhs: b.len(),
            });
        }
        if b.len() != self.rows {
            return Err(SolveError::DimensionMismatch {
                rows: self.rows,
                cols: self.cols,
                rhs: b.len(),
            });
        }
        let n = self.rows;
        if n == 0 {
            return Ok(Vec::new());
        }

        // Augmented copy we can destroy.
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        let idx = |r: usize, c: usize| r * n + c;

        for col in 0..n {
            // Partial pivoting: pick the largest remaining entry in this column.
            let mut pivot = col;
            let mut best = a[idx(col, col)].abs();
            for r in (col + 1)..n {
                let v = a[idx(r, col)].abs();
                if v > best {
                    best = v;
                    pivot = r;
                }
            }
            if best < 1e-12 {
                return Err(SolveError::Singular { column: col });
            }
            if pivot != col {
                for c in 0..n {
                    a.swap(idx(col, c), idx(pivot, c));
                }
                x.swap(col, pivot);
            }
            let diag = a[idx(col, col)];
            for r in (col + 1)..n {
                let factor = a[idx(r, col)] / diag;
                if factor == 0.0 {
                    continue;
                }
                for c in col..n {
                    a[idx(r, c)] -= factor * a[idx(col, c)];
                }
                x[r] -= factor * x[col];
            }
        }

        // Back substitution.
        for col in (0..n).rev() {
            let mut acc = x[col];
            for c in (col + 1)..n {
                acc -= a[idx(col, c)] * x[c];
            }
            x[col] = acc / a[idx(col, col)];
        }
        Ok(x)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:8.4}", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_round_trips() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
    }

    #[test]
    fn mul_vec_works() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.mul_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the diagonal forces a row swap.
        let m = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = m.solve(&[5.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 5.0]);
    }

    #[test]
    fn solve_singular_reports_error() {
        let m = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0]]);
        assert!(matches!(
            m.solve(&[1.0, 2.0]),
            Err(SolveError::Singular { .. })
        ));
    }

    #[test]
    fn solve_rejects_non_square() {
        let m = Matrix::zeros(2, 3);
        assert!(matches!(
            m.solve(&[1.0, 2.0]),
            Err(SolveError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn solve_empty_system() {
        let m = Matrix::zeros(0, 0);
        assert!(m.solve(&[]).unwrap().is_empty());
    }

    #[test]
    fn display_is_nonempty() {
        let m = Matrix::identity(1);
        assert!(!format!("{m}").is_empty());
    }
}
