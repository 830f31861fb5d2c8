//! Minimal dense linear algebra: symmetric solves for the BLUE analysis.

use crate::AssimError;

/// A dense row-major matrix.
///
/// Just enough linear algebra for the analysis step: construction,
/// element access, and a Cholesky solve for symmetric positive-definite
/// systems (the innovation covariance `H B Hᵀ + R`).
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix by evaluating `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.data[i * cols + j] = f(i, j);
            }
        }
        m
    }

    /// Creates a symmetric `n × n` matrix from its lower triangle:
    /// `f(i, j)` is evaluated for `j <= i` only and mirrored.
    pub(crate) fn symmetric_from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = f(i, j);
                m.data[i * n + j] = v;
                m.data[j * n + i] = v;
            }
        }
        m
    }

    /// The square sub-matrix of the rows and columns listed in `indices`.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or names a row or column out of range.
    pub(crate) fn principal_submatrix(&self, indices: &[usize]) -> Self {
        let k = indices.len();
        assert!(k > 0, "matrix dimensions must be positive");
        let mut data = Vec::with_capacity(k * k);
        for &i in indices {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            data.extend(indices.iter().map(|&j| row[j]));
        }
        Self {
            rows: k,
            cols: k,
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

    /// Element `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range"
        );
        self.data[i * self.cols + j]
    }

    /// Sets element `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range"
        );
        self.data[i * self.cols + j] = value;
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        (0..self.rows)
            .map(|i| {
                self.data[i * self.cols..(i + 1) * self.cols]
                    .iter()
                    .zip(v)
                    .map(|(a, b)| a * b)
                    .sum()
            })
            .collect()
    }

    /// Solves `self · x = b` for a symmetric positive-definite matrix via
    /// unblocked Cholesky decomposition.
    ///
    /// This is the retained straight-line reference implementation; the
    /// hot paths call [`Matrix::solve_spd_blocked`], whose factorization
    /// visits the same arithmetic in a cache-friendlier order. The two are
    /// held equal by a property test.
    ///
    /// # Errors
    ///
    /// Returns [`AssimError::SingularCovariance`] when the matrix is not
    /// positive definite (within a small tolerance).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `b.len() != self.rows()`.
    pub fn solve_spd(&self, b: &[f64]) -> Result<Vec<f64>, AssimError> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(b.len(), self.rows, "rhs dimension mismatch");
        let n = self.rows;
        // Cholesky: self = L Lᵀ, L lower triangular.
        let mut l = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self.get(i, j);
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if sum <= 1e-12 {
                        return Err(AssimError::SingularCovariance);
                    }
                    l[i * n + i] = sum.sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        Ok(substitute(&l, n, b))
    }

    /// Solves `self · x = b` via a blocked (right-looking) Cholesky
    /// factorization.
    ///
    /// The factorization proceeds in panels of `CHOLESKY_BLOCK` columns:
    /// factor the diagonal block, triangular-solve the panel below it,
    /// then rank-update the trailing submatrix. The trailing update — the
    /// O(n³) bulk of the work — runs over contiguous row slices, so it
    /// stays in cache where the unblocked column sweep thrashes it.
    ///
    /// # Errors
    ///
    /// Returns [`AssimError::SingularCovariance`] when the matrix is not
    /// positive definite (within a small tolerance).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `b.len() != self.rows()`.
    pub fn solve_spd_blocked(&self, b: &[f64]) -> Result<Vec<f64>, AssimError> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(b.len(), self.rows, "rhs dimension mismatch");
        let n = self.rows;
        let mut l = self.data.clone();
        for k0 in (0..n).step_by(CHOLESKY_BLOCK) {
            let k1 = (k0 + CHOLESKY_BLOCK).min(n);
            // Factor the diagonal block in place (columns < k0 have
            // already been folded in by earlier trailing updates).
            for i in k0..k1 {
                for j in k0..=i {
                    let mut sum = l[i * n + j];
                    for k in k0..j {
                        sum -= l[i * n + k] * l[j * n + k];
                    }
                    if i == j {
                        if sum <= 1e-12 {
                            return Err(AssimError::SingularCovariance);
                        }
                        l[i * n + i] = sum.sqrt();
                    } else {
                        l[i * n + j] = sum / l[j * n + j];
                    }
                }
            }
            // Triangular solve of the panel below the diagonal block:
            // L[k1.., k0..k1] ← A[k1.., k0..k1] · L[k0..k1, k0..k1]⁻ᵀ.
            for i in k1..n {
                for j in k0..k1 {
                    let mut sum = l[i * n + j];
                    for k in k0..j {
                        sum -= l[i * n + k] * l[j * n + k];
                    }
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
            // Rank-k1−k0 update of the trailing submatrix (lower half):
            // A[i][j] −= Σ_p L[i][p] · L[j][p], contiguous in p.
            for i in k1..n {
                for j in k1..=i {
                    let mut sum = 0.0;
                    for k in k0..k1 {
                        sum -= l[i * n + k] * l[j * n + k];
                    }
                    l[i * n + j] += sum;
                }
            }
        }
        Ok(substitute(&l, n, b))
    }
}

/// Panel width of the blocked Cholesky factorization. Three 48×48 `f64`
/// panels (~55 KiB) fit comfortably in a typical L2 cache.
const CHOLESKY_BLOCK: usize = 48;

/// Forward/backward substitution through a lower-triangular Cholesky
/// factor stored row-major in `l` (upper entries ignored).
fn substitute(l: &[f64], n: usize, b: &[f64]) -> Vec<f64> {
    // Forward substitution: L y = b.
    let mut y = vec![0.0f64; n];
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[i * n + k] * y[k];
        }
        y[i] = sum / l[i * n + i];
    }
    // Back substitution: Lᵀ x = y.
    let mut x = vec![0.0f64; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in (i + 1)..n {
            sum -= l[k * n + i] * x[k];
        }
        x[i] = sum / l[i * n + i];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve_returns_rhs() {
        let eye = Matrix::from_fn(3, 3, |i, j| if i == j { 1.0 } else { 0.0 });
        let b = vec![1.0, -2.0, 3.0];
        assert_eq!(eye.solve_spd(&b).unwrap(), b);
    }

    #[test]
    fn solve_known_system() {
        // A = [[4, 2], [2, 3]], b = [10, 9] -> x = [1.5, 2].
        let mut a = Matrix::zeros(2, 2);
        a.set(0, 0, 4.0);
        a.set(0, 1, 2.0);
        a.set(1, 0, 2.0);
        a.set(1, 1, 3.0);
        let x = a.solve_spd(&[10.0, 9.0]).unwrap();
        assert!((x[0] - 1.5).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_round_trips_with_mul() {
        // Build an SPD matrix A = M Mᵀ + I, solve A x = b, check A·x = b.
        let m = Matrix::from_fn(5, 5, |i, j| ((i * 7 + j * 3) % 11) as f64 / 11.0);
        let a = Matrix::from_fn(5, 5, |i, j| {
            let dot: f64 = (0..5).map(|k| m.get(i, k) * m.get(j, k)).sum();
            dot + if i == j { 1.0 } else { 0.0 }
        });
        let b = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let x = a.solve_spd(&b).unwrap();
        let back = a.mul_vec(&x);
        for (u, v) in back.iter().zip(&b) {
            assert!((u - v).abs() < 1e-9, "{u} vs {v}");
        }
    }

    #[test]
    fn blocked_solve_agrees_with_unblocked_across_block_boundaries() {
        // Sizes straddling multiples of the panel width exercise the
        // diagonal-factor, panel-solve and trailing-update paths.
        for n in [1usize, 2, 5, 47, 48, 49, 96, 101] {
            let m = Matrix::from_fn(n, n, |i, j| ((i * 13 + j * 7) % 17) as f64 / 17.0);
            let a = Matrix::from_fn(n, n, |i, j| {
                let dot: f64 = (0..n).map(|k| m.get(i, k) * m.get(j, k)).sum();
                dot + if i == j { 2.0 } else { 0.0 }
            });
            let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
            let reference = a.solve_spd(&b).unwrap();
            let blocked = a.solve_spd_blocked(&b).unwrap();
            for (u, v) in blocked.iter().zip(&reference) {
                assert!((u - v).abs() < 1e-9, "n={n}: {u} vs {v}");
            }
        }
    }

    #[test]
    fn blocked_solve_rejects_non_spd() {
        let mut a = Matrix::zeros(2, 2);
        a.set(0, 0, 1.0);
        a.set(1, 1, -1.0);
        assert_eq!(
            a.solve_spd_blocked(&[1.0, 1.0]).unwrap_err(),
            AssimError::SingularCovariance
        );
    }

    #[test]
    fn non_spd_is_rejected() {
        let mut a = Matrix::zeros(2, 2);
        a.set(0, 0, 1.0);
        a.set(1, 1, -1.0);
        assert_eq!(
            a.solve_spd(&[1.0, 1.0]).unwrap_err(),
            AssimError::SingularCovariance
        );
        let zero = Matrix::zeros(2, 2);
        assert!(zero.solve_spd(&[0.0, 0.0]).is_err());
    }

    #[test]
    fn mul_vec_known() {
        let a = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
        // [[0,1,2],[3,4,5]] * [1,1,1] = [3, 12].
        assert_eq!(a.mul_vec(&[1.0, 1.0, 1.0]), vec![3.0, 12.0]);
        assert_eq!((a.rows(), a.cols()), (2, 3));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mul_vec_checks_dims() {
        let a = Matrix::zeros(2, 2);
        let _ = a.mul_vec(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_checks_range() {
        let a = Matrix::zeros(2, 2);
        let _ = a.get(2, 0);
    }
}
