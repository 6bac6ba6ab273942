//! Size and density statistics (Table 1 and Fig. 4 of the paper).

use crate::SparseMatrix;

/// Table-1 style summary of a data set.
#[derive(Clone, Debug, PartialEq)]
pub struct MatrixStats {
    pub rows: usize,
    pub cols: usize,
    /// Columns with at least one 1 (the column-id space may be larger).
    pub nonzero_cols: usize,
    pub nnz: usize,
    /// Mean 1s per row.
    pub avg_row_density: f64,
    /// Largest number of 1s in any row.
    pub max_row_density: usize,
    /// Largest number of 1s in any column.
    pub max_col_ones: usize,
}

/// Computes the Table-1 style summary of `matrix`.
#[must_use]
pub fn matrix_stats(matrix: &SparseMatrix) -> MatrixStats {
    let ones = matrix.column_ones();
    let max_row_density = (0..matrix.n_rows())
        .map(|r| matrix.row_len(r))
        .max()
        .unwrap_or(0);
    MatrixStats {
        rows: matrix.n_rows(),
        cols: matrix.n_cols(),
        nonzero_cols: ones.iter().filter(|&&o| o > 0).count(),
        nnz: matrix.nnz(),
        avg_row_density: if matrix.n_rows() == 0 {
            0.0
        } else {
            matrix.nnz() as f64 / matrix.n_rows() as f64
        },
        max_row_density,
        max_col_ones: ones.iter().copied().max().unwrap_or(0) as usize,
    }
}

/// The Fig.-4 column-density distribution: `histogram[b]` is the number of
/// columns whose 1-count falls in the log2 bucket `b` (bucket 0 holds counts
/// 0..=1, bucket `i` holds `[2^i, 2^(i+1))`).
///
/// The paper plots the number of columns against the number of 1s per
/// column on log-log axes; log2 buckets carry the same shape.
#[must_use]
pub fn column_density_histogram(matrix: &SparseMatrix) -> Vec<usize> {
    let ones = matrix.column_ones();
    let mut hist = Vec::new();
    for &o in &ones {
        let bucket = crate::order::density_bucket(o as usize);
        if bucket >= hist.len() {
            hist.resize(bucket + 1, 0);
        }
        hist[bucket] += 1;
    }
    hist
}

/// Exact column-density counts: `counts[k]` = number of columns with exactly
/// `k` ones. The tail is truncated at the largest occurring count.
#[must_use]
pub fn column_density_counts(matrix: &SparseMatrix) -> Vec<usize> {
    let ones = matrix.column_ones();
    let max = ones.iter().copied().max().unwrap_or(0) as usize;
    let mut counts = vec![0usize; max + 1];
    for &o in &ones {
        counts[o as usize] += 1;
    }
    counts
}

/// Row-density histogram over the paper's `[2^i, 2^(i+1))` buckets — the
/// bucket sizes a §4.1 first scan would produce.
#[must_use]
pub fn row_density_histogram(matrix: &SparseMatrix) -> Vec<usize> {
    let mut hist = Vec::new();
    for r in 0..matrix.n_rows() {
        let bucket = crate::order::density_bucket(matrix.row_len(r));
        if bucket >= hist.len() {
            hist.resize(bucket + 1, 0);
        }
        hist[bucket] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SparseMatrix {
        SparseMatrix::from_rows(
            5,
            vec![vec![0, 1, 2, 3], vec![1], vec![1, 2], vec![], vec![1, 2]],
        )
    }

    #[test]
    fn stats_of_sample() {
        let s = matrix_stats(&sample());
        assert_eq!(s.rows, 5);
        assert_eq!(s.cols, 5);
        assert_eq!(s.nonzero_cols, 4, "column 4 is all-zero");
        assert_eq!(s.nnz, 9);
        assert!((s.avg_row_density - 1.8).abs() < 1e-12);
        assert_eq!(s.max_row_density, 4);
        assert_eq!(s.max_col_ones, 4, "column 1 appears in 4 rows");
    }

    #[test]
    fn stats_of_empty() {
        let s = matrix_stats(&SparseMatrix::from_rows(3, vec![]));
        assert_eq!(s.rows, 0);
        assert_eq!(s.nnz, 0);
        assert_eq!(s.avg_row_density, 0.0);
        assert_eq!(s.max_row_density, 0);
    }

    #[test]
    fn column_histogram_buckets() {
        // ones per column: [1, 4, 3, 1, 0] -> buckets [0, 2, 1, 0, 0]
        let hist = column_density_histogram(&sample());
        assert_eq!(hist, vec![3, 1, 1]);
    }

    #[test]
    fn column_density_exact_counts() {
        let counts = column_density_counts(&sample());
        // count 0: col 4; count 1: cols 0 and 3; count 3: col 2; count 4: col 1
        assert_eq!(counts, vec![1, 2, 0, 1, 1]);
    }

    #[test]
    fn row_histogram_buckets() {
        // row lens: [4, 1, 2, 0, 2] -> buckets [2, 0, 1, 0, 1]
        let hist = row_density_histogram(&sample());
        assert_eq!(hist, vec![2, 2, 1]);
    }
}
