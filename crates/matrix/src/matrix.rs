//! CSR storage for 0/1 matrices.

use crate::{ColumnId, RowId};
use std::fmt;

/// A sparse 0/1 matrix in row-major (CSR) form.
///
/// Each row is stored as a strictly increasing slice of [`ColumnId`]s.
/// Construct via [`crate::MatrixBuilder`] or [`SparseMatrix::from_rows`].
/// Existing rows never change, but new rows can be appended in place with
/// [`SparseMatrix::append_row`] — CSR appends are `O(row length)` — which
/// is what the incremental-ingest engine builds on.
///
/// # Examples
///
/// ```
/// use dmc_matrix::SparseMatrix;
///
/// // Figure 1 of the paper: rows r1..r4 over columns c1..c3 (0-indexed).
/// let m = SparseMatrix::from_rows(3, vec![
///     vec![1, 2],    // r1 = {c2, c3}
///     vec![0, 1, 2], // r2 = {c1, c2, c3}
///     vec![0],       // r3 = {c1}
///     vec![1],       // r4 = {c2}
/// ]);
/// assert_eq!(m.n_rows(), 4);
/// assert_eq!(m.n_cols(), 3);
/// assert_eq!(m.row(0), &[1, 2]);
/// assert_eq!(m.column_ones(), vec![2, 3, 2]); // |S_1|=2, |S_2|=3, |S_3|=2
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct SparseMatrix {
    /// `row_offsets[r]..row_offsets[r+1]` indexes `col_indices` for row `r`.
    row_offsets: Vec<usize>,
    /// Concatenated sorted column ids of every row.
    col_indices: Vec<ColumnId>,
    n_cols: usize,
}

impl SparseMatrix {
    /// Builds a matrix from per-row column lists.
    ///
    /// Rows are sorted and deduplicated; `n_cols` is the column-space size
    /// (may exceed the largest id present, to represent all-zero columns).
    ///
    /// # Panics
    ///
    /// Panics if any column id is `>= n_cols`.
    #[must_use]
    pub fn from_rows(n_cols: usize, rows: Vec<Vec<ColumnId>>) -> Self {
        let mut builder = crate::MatrixBuilder::new(n_cols);
        for row in rows {
            builder.push_row(row);
        }
        builder.finish()
    }

    pub(crate) fn from_parts(
        row_offsets: Vec<usize>,
        col_indices: Vec<ColumnId>,
        n_cols: usize,
    ) -> Self {
        debug_assert!(!row_offsets.is_empty());
        debug_assert_eq!(*row_offsets.last().unwrap(), col_indices.len());
        Self {
            row_offsets,
            col_indices,
            n_cols,
        }
    }

    /// Number of rows `n`.
    #[inline]
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// Number of columns `m` (the column-id space, including all-zero
    /// columns).
    #[inline]
    #[must_use]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Total number of 1 entries.
    #[inline]
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.col_indices.len()
    }

    /// The sorted column ids of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= n_rows()`.
    #[inline]
    #[must_use]
    pub fn row(&self, r: usize) -> &[ColumnId] {
        &self.col_indices[self.row_offsets[r]..self.row_offsets[r + 1]]
    }

    /// Number of 1s in row `r`.
    #[inline]
    #[must_use]
    pub fn row_len(&self, r: usize) -> usize {
        self.row_offsets[r + 1] - self.row_offsets[r]
    }

    /// `true` iff entry `(r, c)` is 1.
    #[must_use]
    pub fn contains(&self, r: usize, c: ColumnId) -> bool {
        self.row(r).binary_search(&c).is_ok()
    }

    /// Iterates rows in index order.
    #[must_use]
    pub fn rows(&self) -> RowsIter<'_> {
        RowsIter {
            matrix: self,
            next: 0,
        }
    }

    /// Per-column 1-counts: `ones[c] = |S_c|` (the first scan of
    /// Algorithm 3.1, step 1).
    #[must_use]
    pub fn column_ones(&self) -> Vec<u32> {
        let mut ones = vec![0u32; self.n_cols];
        for &c in &self.col_indices {
            ones[c as usize] += 1;
        }
        ones
    }

    /// The row sets `S_c` for every column — i.e. the transpose as adjacency
    /// lists, in ascending row order.
    #[must_use]
    pub fn column_rows(&self) -> Vec<Vec<RowId>> {
        let mut cols = vec![Vec::new(); self.n_cols];
        for (r, row) in self.rows().enumerate() {
            for &c in row {
                cols[c as usize].push(r as RowId);
            }
        }
        cols
    }

    /// Appends a row given as an arbitrary-order, possibly-duplicated
    /// column list, normalizing it to a strictly increasing set (same
    /// contract as [`crate::MatrixBuilder::push_row`]).
    ///
    /// # Panics
    ///
    /// Panics if any column id is `>= n_cols`.
    pub fn append_row(&mut self, mut cols: Vec<ColumnId>) {
        cols.sort_unstable();
        cols.dedup();
        self.append_sorted_row(&cols);
    }

    /// Appends a row that is already strictly increasing.
    ///
    /// # Panics
    ///
    /// Panics if `cols` is not strictly increasing or any id is
    /// `>= n_cols`.
    pub fn append_sorted_row(&mut self, cols: &[ColumnId]) {
        if let Some(&last) = cols.last() {
            assert!(
                (last as usize) < self.n_cols,
                "column id {last} out of range for {} columns",
                self.n_cols
            );
        }
        assert!(
            cols.windows(2).all(|w| w[0] < w[1]),
            "append_sorted_row requires a strictly increasing column list"
        );
        self.col_indices.extend_from_slice(cols);
        self.row_offsets.push(self.col_indices.len());
    }

    /// Approximate heap bytes held by the storage.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.row_offsets.capacity() * std::mem::size_of::<usize>()
            + self.col_indices.capacity() * std::mem::size_of::<ColumnId>()
    }
}

impl fmt::Debug for SparseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SparseMatrix({} x {}, nnz {})",
            self.n_rows(),
            self.n_cols(),
            self.nnz()
        )
    }
}

/// Iterator over the rows of a [`SparseMatrix`], yielding sorted column
/// slices.
pub struct RowsIter<'a> {
    matrix: &'a SparseMatrix,
    next: usize,
}

impl<'a> Iterator for RowsIter<'a> {
    type Item = &'a [ColumnId];

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.matrix.n_rows() {
            return None;
        }
        let row = self.matrix.row(self.next);
        self.next += 1;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.matrix.n_rows() - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for RowsIter<'_> {}
impl std::iter::FusedIterator for RowsIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1() -> SparseMatrix {
        SparseMatrix::from_rows(3, vec![vec![1, 2], vec![0, 1, 2], vec![0], vec![1]])
    }

    #[test]
    fn basic_shape() {
        let m = fig1();
        assert_eq!(m.n_rows(), 4);
        assert_eq!(m.n_cols(), 3);
        assert_eq!(m.nnz(), 7);
        assert_eq!(m.row_len(2), 1);
        assert_eq!(format!("{m:?}"), "SparseMatrix(4 x 3, nnz 7)");
    }

    #[test]
    fn contains_checks_entries() {
        let m = fig1();
        assert!(m.contains(0, 1));
        assert!(!m.contains(0, 0));
        assert!(m.contains(3, 1));
        assert!(!m.contains(2, 2));
    }

    #[test]
    fn column_ones_counts() {
        assert_eq!(fig1().column_ones(), vec![2, 3, 2]);
    }

    #[test]
    fn column_rows_is_transpose_adjacency() {
        let m = fig1();
        let cols = m.column_rows();
        assert_eq!(cols[0], vec![1, 2]);
        assert_eq!(cols[1], vec![0, 1, 3]);
        assert_eq!(cols[2], vec![0, 1]);
    }

    #[test]
    fn rows_iterator_yields_all() {
        let m = fig1();
        let rows: Vec<&[ColumnId]> = m.rows().collect();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[1], &[0, 1, 2]);
        assert_eq!(m.rows().len(), 4);
    }

    #[test]
    fn append_row_extends_in_place() {
        let mut m = fig1();
        m.append_row(vec![2, 0, 2]); // unsorted + duplicate: normalized
        m.append_sorted_row(&[1]);
        assert_eq!(m.n_rows(), 6);
        assert_eq!(m.row(4), &[0, 2]);
        assert_eq!(m.row(5), &[1]);
        assert_eq!(m.column_ones(), vec![3, 4, 3]);
        // Identical to building the whole thing at once.
        let rebuilt = SparseMatrix::from_rows(
            3,
            vec![
                vec![1, 2],
                vec![0, 1, 2],
                vec![0],
                vec![1],
                vec![0, 2],
                vec![1],
            ],
        );
        assert_eq!(m, rebuilt);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn append_rejects_out_of_range_column() {
        let mut m = fig1();
        m.append_row(vec![3]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn append_sorted_rejects_unsorted() {
        let mut m = fig1();
        m.append_sorted_row(&[2, 1]);
    }

    #[test]
    fn empty_matrix() {
        let m = SparseMatrix::from_rows(5, vec![]);
        assert_eq!(m.n_rows(), 0);
        assert_eq!(m.n_cols(), 5);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.column_ones(), vec![0; 5]);
        assert_eq!(m.rows().count(), 0);
    }

    #[test]
    fn empty_rows_and_columns_allowed() {
        let m = SparseMatrix::from_rows(4, vec![vec![], vec![2], vec![]]);
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.row(0), &[] as &[ColumnId]);
        assert_eq!(m.column_ones(), vec![0, 0, 1, 0]);
    }
}
