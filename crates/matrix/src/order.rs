//! Row re-ordering (§4.1 of the paper).
//!
//! DMC-base's memory footprint depends heavily on the order rows are
//! scanned: dense rows early create many candidates. §4.1 therefore scans
//! sparser rows first. Sorting exactly by density is expensive on disk-scale
//! data, so the paper instead buckets rows by density ranges `[2^i, 2^(i+1))`
//! during the first scan and reads lower-density buckets first — at most
//! `ceil(log2 m) + 1` buckets.
//!
//! This module computes both orders as row-index permutations; algorithms
//! scan via the permutation rather than physically shuffling the matrix.

use crate::{RowId, SparseMatrix};

/// How the second scan should visit rows.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum RowOrder {
    /// Original row order (no §4.1 optimization).
    #[default]
    Original,
    /// The paper's bucketed order: density buckets `[2^i, 2^(i+1))`,
    /// sparsest bucket first, original order within a bucket.
    BucketedSparsestFirst,
    /// Exact stable sort by ascending density (the idealized order §4.1
    /// approximates).
    ExactSparsestFirst,
    /// A caller-supplied permutation of `0..n_rows`.
    Custom(Vec<RowId>),
}

impl RowOrder {
    /// Materializes this order as a permutation of row indices for `matrix`.
    ///
    /// # Panics
    ///
    /// Panics if a [`RowOrder::Custom`] permutation has the wrong length or
    /// is not a permutation of `0..n_rows`.
    #[must_use]
    pub fn permutation(&self, matrix: &SparseMatrix) -> Vec<RowId> {
        match self {
            RowOrder::Original => (0..matrix.n_rows() as RowId).collect(),
            RowOrder::BucketedSparsestFirst => bucketed_sparsest_first(matrix),
            RowOrder::ExactSparsestFirst => exact_sparsest_first(matrix),
            RowOrder::Custom(perm) => {
                validate_permutation(perm, matrix.n_rows());
                perm.clone()
            }
        }
    }
}

/// Density bucket index of a row with `len` 1s: rows with 0 or 1 entries
/// share bucket 0; otherwise bucket `i` holds `[2^i, 2^(i+1))`.
#[inline]
#[must_use]
pub fn density_bucket(len: usize) -> usize {
    if len <= 1 {
        0
    } else {
        usize::BITS as usize - 1 - len.leading_zeros() as usize
    }
}

/// The paper's bucketed sparsest-first permutation.
#[must_use]
pub fn bucketed_sparsest_first(matrix: &SparseMatrix) -> Vec<RowId> {
    // Counting sort over at most ceil(log2 m) + 1 buckets, stable within
    // a bucket — exactly the "write rows into per-bucket files during the
    // first scan, then read buckets in order" behaviour of §4.1.
    let n = matrix.n_rows();
    let max_bucket = density_bucket(matrix.n_cols().max(1)) + 1;
    let mut counts = vec![0usize; max_bucket + 1];
    for r in 0..n {
        counts[density_bucket(matrix.row_len(r))] += 1;
    }
    let mut starts = vec![0usize; max_bucket + 1];
    let mut acc = 0;
    for (bucket, &count) in counts.iter().enumerate() {
        starts[bucket] = acc;
        acc += count;
    }
    let mut perm = vec![0 as RowId; n];
    for r in 0..n {
        let bucket = density_bucket(matrix.row_len(r));
        perm[starts[bucket]] = r as RowId;
        starts[bucket] += 1;
    }
    perm
}

/// Exact stable ascending-density permutation.
#[must_use]
pub fn exact_sparsest_first(matrix: &SparseMatrix) -> Vec<RowId> {
    let mut perm: Vec<RowId> = (0..matrix.n_rows() as RowId).collect();
    perm.sort_by_key(|&r| matrix.row_len(r as usize));
    perm
}

fn validate_permutation(perm: &[RowId], n_rows: usize) {
    assert_eq!(
        perm.len(),
        n_rows,
        "custom row order has {} entries for {} rows",
        perm.len(),
        n_rows
    );
    let mut seen = vec![false; n_rows];
    for &r in perm {
        let idx = r as usize;
        assert!(idx < n_rows, "row index {r} out of range");
        assert!(!seen[idx], "row index {r} appears twice");
        seen[idx] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SparseMatrix;

    /// Figure 2 of the paper, reconstructed from the textual constraints of
    /// Example 3.1 and §4.1 (9 rows, 6 columns with five 1s each; the unique
    /// matrix reproducing the Example 3.1 trace, the final 80% rules and the
    /// original-order candidate history). 0-indexed columns.
    pub(crate) fn fig2() -> SparseMatrix {
        SparseMatrix::from_rows(
            6,
            vec![
                vec![1, 5],          // r1 = {c2, c6}
                vec![2, 3, 4],       // r2 = {c3, c4, c5}
                vec![2, 4],          // r3 = {c3, c5}
                vec![0, 1, 2, 5],    // r4 = {c1, c2, c3, c6}
                vec![0, 1, 2, 3, 4], // r5 = {c1..c5}
                vec![0, 1, 3, 5],    // r6 = {c1, c2, c4, c6}
                vec![0, 2, 3, 4, 5], // r7 = {c1, c3, c4, c5, c6}
                vec![3, 5],          // r8 = {c4, c6}
                vec![0, 1, 4],       // r9 = {c1, c2, c5}
            ],
        )
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(density_bucket(0), 0);
        assert_eq!(density_bucket(1), 0);
        assert_eq!(density_bucket(2), 1);
        assert_eq!(density_bucket(3), 1);
        assert_eq!(density_bucket(4), 2);
        assert_eq!(density_bucket(7), 2);
        assert_eq!(density_bucket(8), 3);
    }

    #[test]
    fn sparsest_first_order_of_fig2_matches_paper() {
        // §4.1 lists the sparsest-first order of Fig. 2 as
        // (r1, r3, r8, r2, r5, r4, r6, r9, r7); with the reconstructed
        // densities (2,3,2,4,5,4,5,2,3) the true stable density sort is
        // (r1, r3, r8, r2, r9, r4, r6, r5, r7) — the paper's listing swaps
        // r5 and r9 (see DESIGN.md).
        let m = fig2();
        let perm = exact_sparsest_first(&m);
        let densities: Vec<usize> = perm.iter().map(|&r| m.row_len(r as usize)).collect();
        assert!(densities.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(perm, vec![0, 2, 7, 1, 8, 3, 5, 4, 6]);
    }

    #[test]
    fn bucketed_order_is_stable_and_bucket_monotone() {
        let m = fig2();
        let perm = bucketed_sparsest_first(&m);
        let buckets: Vec<usize> = perm
            .iter()
            .map(|&r| density_bucket(m.row_len(r as usize)))
            .collect();
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]));
        // Bucket [2,4) holds r1,r2,r3,r8,r9 in original order; bucket [4,8)
        // holds r4..r7 in original order.
        assert_eq!(perm, vec![0, 1, 2, 7, 8, 3, 4, 5, 6]);
    }

    #[test]
    fn original_and_custom_orders() {
        let m = fig2();
        assert_eq!(
            RowOrder::Original.permutation(&m),
            (0..9).collect::<Vec<RowId>>()
        );
        let custom: Vec<RowId> = (0..9).rev().collect();
        assert_eq!(RowOrder::Custom(custom.clone()).permutation(&m), custom);
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn custom_order_rejects_duplicates() {
        let m = fig2();
        let _ = RowOrder::Custom(vec![0; 9]).permutation(&m);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn custom_order_rejects_out_of_range() {
        let m = SparseMatrix::from_rows(2, vec![vec![0], vec![1]]);
        let _ = RowOrder::Custom(vec![0, 5]).permutation(&m);
    }

    #[test]
    fn empty_matrix_orders() {
        let m = SparseMatrix::from_rows(3, vec![]);
        assert!(RowOrder::BucketedSparsestFirst.permutation(&m).is_empty());
        assert!(RowOrder::ExactSparsestFirst.permutation(&m).is_empty());
    }
}
