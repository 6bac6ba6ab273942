//! Out-of-core mining: two passes over a row *stream*, never holding the
//! matrix in memory.
//!
//! This is the workflow the paper actually ran: the corpora live on disk,
//! the first scan counts per-column 1s and partitions rows into density
//! bucket files (§4.1), and the second scan replays the buckets sparsest
//! first. Memory holds only the counter array (and the bitmap tail when
//! the §4.2 switch fires) — `O(columns + candidates)`, independent of the
//! row count.
//!
//! [`find_implications_streamed`] / [`find_similarities_streamed`] accept
//! any fallible row iterator (e.g. `dmc_matrix::io::RowLines` over a file)
//! and spill to a [`BucketSpill`] in the system temp directory. The scan
//! order is always the paper's bucketed sparsest-first (that is what the
//! spill files encode); other [`crate::RowOrder`]s require an in-memory
//! matrix.

use crate::config::{ImplicationConfig, SimilarityConfig};
use crate::imp::ImplicationOutput;
use crate::sim::SimilarityOutput;
use dmc_matrix::spill::{BucketSpill, SpillReadError};
use dmc_matrix::spill_io::{SpillIoSnapshot, SpillSettings};
use dmc_matrix::ColumnId;
use dmc_metrics::IoReport;
use std::io;

/// Errors from the streaming drivers.
#[derive(Debug)]
pub enum StreamError<E> {
    /// The caller's row source failed.
    Source(E),
    /// Spill-file IO failed (after any transient-fault retries). The
    /// original [`io::ErrorKind`] and the spill operation that hit it are
    /// both preserved, so callers can classify the failure.
    Io {
        /// What the spill was doing ("spill io", "open spill bucket",
        /// "read spill frame").
        context: &'static str,
        /// The underlying error, kind intact.
        error: io::Error,
    },
    /// A spill frame failed its integrity checks (torn write, truncation,
    /// bit rot): the run aborts rather than decode garbage rows.
    CorruptSpill {
        /// 0-based index of the offending frame in replay order.
        frame: u64,
        /// Which guard tripped (e.g. "checksum mismatch").
        reason: &'static str,
    },
    /// A row contained an id `>= n_cols`; payload is (row index, id).
    ColumnOutOfRange { row: usize, id: ColumnId },
}

impl<E> StreamError<E> {
    /// The underlying [`io::ErrorKind`], for I/O failures.
    #[must_use]
    pub fn io_kind(&self) -> Option<io::ErrorKind> {
        match self {
            StreamError::Io { error, .. } => Some(error.kind()),
            _ => None,
        }
    }
}

impl<E: std::fmt::Display> std::fmt::Display for StreamError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Source(e) => write!(f, "row source error: {e}"),
            StreamError::Io { context, error } => {
                write!(f, "spill io error ({context}): {error}")
            }
            StreamError::CorruptSpill { frame, reason } => {
                write!(f, "corrupt spill frame {frame}: {reason}")
            }
            StreamError::ColumnOutOfRange { row, id } => {
                write!(f, "row {row}: column id {id} out of range")
            }
        }
    }
}

impl<E: std::error::Error + 'static> std::error::Error for StreamError<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Source(e) => Some(e),
            StreamError::Io { error, .. } => Some(error),
            StreamError::CorruptSpill { .. } | StreamError::ColumnOutOfRange { .. } => None,
        }
    }
}

impl<E> From<io::Error> for StreamError<E> {
    fn from(error: io::Error) -> Self {
        StreamError::Io {
            context: "spill io",
            error,
        }
    }
}

impl<E> From<SpillReadError> for StreamError<E> {
    fn from(e: SpillReadError) -> Self {
        match e {
            SpillReadError::Io { context, error } => StreamError::Io { context, error },
            SpillReadError::Corrupt { frame, reason } => {
                StreamError::CorruptSpill { frame, reason }
            }
        }
    }
}

/// Converts a spill stats snapshot into the report's `io` section.
pub(crate) fn io_report(snap: SpillIoSnapshot) -> IoReport {
    IoReport {
        frames_written: snap.frames_written,
        frames_read: snap.frames_read,
        replays: snap.replays,
        write_retries: snap.write_retries,
        read_retries: snap.read_retries,
        corrupt_frames: snap.corrupt_frames,
    }
}

/// Pass 1: count column 1s and spill normalized rows into density buckets.
pub(crate) fn prescan<I, E>(
    rows: I,
    n_cols: usize,
    settings: &SpillSettings,
) -> Result<(Vec<u32>, BucketSpill), StreamError<E>>
where
    I: IntoIterator<Item = Result<Vec<ColumnId>, E>>,
{
    let mut spill = BucketSpill::with_settings(n_cols, settings.clone())?;
    let mut ones = vec![0u32; n_cols];
    for (idx, row) in rows.into_iter().enumerate() {
        let mut row = row.map_err(StreamError::Source)?;
        row.sort_unstable();
        row.dedup();
        if let Some(&max) = row.last() {
            if max as usize >= n_cols {
                return Err(StreamError::ColumnOutOfRange { row: idx, id: max });
            }
        }
        for &c in &row {
            ones[c as usize] += 1;
        }
        spill.push_row(&row)?;
    }
    Ok((ones, spill))
}

/// Streaming DMC-imp over a fallible row iterator.
///
/// Equivalent to [`crate::find_implications`] with
/// `RowOrder::BucketedSparsestFirst` (the config's `row_order` is ignored —
/// the spill files *are* the bucket order).
///
/// New code should prefer the [`crate::Miner`] facade
/// (`Miner::implications(minconf).mine_streamed(rows, n_cols)`).
///
/// # Errors
///
/// Fails on source errors, spill IO errors, or out-of-range column ids.
pub fn find_implications_streamed<I, E>(
    rows: I,
    n_cols: usize,
    config: &ImplicationConfig,
) -> Result<ImplicationOutput, StreamError<E>>
where
    I: IntoIterator<Item = Result<Vec<ColumnId>, E>>,
{
    crate::pipeline::mine_streamed(rows, n_cols, config)
}

/// Streaming DMC-sim over a fallible row iterator (see
/// [`find_implications_streamed`]).
///
/// New code should prefer the [`crate::Miner`] facade
/// (`Miner::similarities(minsim).mine_streamed(rows, n_cols)`).
///
/// # Errors
///
/// Fails on source errors, spill IO errors, or out-of-range column ids.
pub fn find_similarities_streamed<I, E>(
    rows: I,
    n_cols: usize,
    config: &SimilarityConfig,
) -> Result<SimilarityOutput, StreamError<E>>
where
    I: IntoIterator<Item = Result<Vec<ColumnId>, E>>,
{
    crate::pipeline::mine_streamed(rows, n_cols, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{find_implications, find_similarities, SparseMatrix, SwitchPolicy};
    use dmc_matrix::order::RowOrder;
    use std::convert::Infallible;

    fn fig2() -> SparseMatrix {
        SparseMatrix::from_rows(
            6,
            vec![
                vec![1, 5],
                vec![2, 3, 4],
                vec![2, 4],
                vec![0, 1, 2, 5],
                vec![0, 1, 2, 3, 4],
                vec![0, 1, 3, 5],
                vec![0, 2, 3, 4, 5],
                vec![3, 5],
                vec![0, 1, 4],
            ],
        )
    }

    fn rows_of(m: &SparseMatrix) -> Vec<Result<Vec<ColumnId>, Infallible>> {
        m.rows().map(|r| Ok(r.to_vec())).collect()
    }

    #[test]
    fn streamed_imp_matches_in_memory() {
        let m = fig2();
        for &minconf in &[1.0, 0.8, 0.5] {
            let cfg = ImplicationConfig::new(minconf);
            let in_mem = find_implications(&m, &cfg);
            let streamed = find_implications_streamed(rows_of(&m), m.n_cols(), &cfg).unwrap();
            assert_eq!(streamed.rules, in_mem.rules, "minconf={minconf}");
        }
    }

    #[test]
    fn streamed_sim_matches_in_memory() {
        let m = fig2();
        for &minsim in &[1.0, 0.75, 0.4] {
            let cfg = SimilarityConfig::new(minsim);
            let in_mem = find_similarities(&m, &cfg);
            let streamed = find_similarities_streamed(rows_of(&m), m.n_cols(), &cfg).unwrap();
            assert_eq!(streamed.rules, in_mem.rules, "minsim={minsim}");
        }
    }

    #[test]
    fn streamed_imp_with_forced_switch() {
        let m = fig2();
        let cfg = ImplicationConfig::new(0.8).with_switch(SwitchPolicy::always_at(3));
        let streamed = find_implications_streamed(rows_of(&m), m.n_cols(), &cfg).unwrap();
        assert_eq!(streamed.pairs(), vec![(0, 1), (2, 4)]);
        assert!(streamed.bitmap_switch_at.is_some());
    }

    #[test]
    fn streamed_normalizes_unsorted_rows() {
        let rows: Vec<Result<Vec<ColumnId>, Infallible>> =
            vec![Ok(vec![2, 0, 2]), Ok(vec![0, 2]), Ok(vec![1])];
        let out = find_implications_streamed(rows, 3, &ImplicationConfig::new(1.0)).unwrap();
        // Columns 0 and 2 are identical: both directions canonical -> (0, 2).
        assert_eq!(out.pairs(), vec![(0, 2)]);
    }

    #[test]
    fn streamed_rejects_out_of_range_ids() {
        let rows: Vec<Result<Vec<ColumnId>, Infallible>> = vec![Ok(vec![0, 9])];
        let err = find_implications_streamed(rows, 3, &ImplicationConfig::new(1.0)).unwrap_err();
        assert!(matches!(
            err,
            StreamError::ColumnOutOfRange { row: 0, id: 9 }
        ));
    }

    #[test]
    fn streamed_propagates_source_errors() {
        #[derive(Debug)]
        struct Boom;
        impl std::fmt::Display for Boom {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "boom")
            }
        }
        let rows: Vec<Result<Vec<ColumnId>, Boom>> = vec![Ok(vec![0]), Err(Boom)];
        let err = find_implications_streamed(rows, 2, &ImplicationConfig::new(1.0)).unwrap_err();
        assert!(matches!(err, StreamError::Source(Boom)));
        assert!(err.to_string().contains("boom"));
    }

    #[test]
    fn streamed_equals_bucketed_in_memory_on_random_data() {
        // The stream replays in bucket order; in-memory with the same order
        // must agree rule-for-rule (order invariance is proven elsewhere,
        // this checks the plumbing end to end).
        let mut rows: Vec<Vec<ColumnId>> = Vec::new();
        for i in 0..60u32 {
            rows.push(vec![i % 5, 5 + (i % 3), 8 + (i % 7) % 4]);
        }
        rows.push((0..12).collect());
        let m = SparseMatrix::from_rows(12, rows);
        let cfg = ImplicationConfig::new(0.7).with_row_order(RowOrder::BucketedSparsestFirst);
        let in_mem = find_implications(&m, &cfg);
        let streamed = find_implications_streamed(rows_of(&m), 12, &cfg).unwrap();
        assert_eq!(streamed.rules, in_mem.rules);
    }
}
