//! The [`Miner`] facade: one builder-style entry point over the four
//! `find_*` drivers.
//!
//! The crate has two implication drivers and two similarity drivers
//! (in-memory and streamed), each a free function with its own
//! signature. [`Miner`] folds that choice into configuration: the *what*
//! (implications vs similarities, threshold, knobs) is set on the
//! builder, and the *how* (in-memory vs streamed) falls out of which
//! `mine` method is called.
//!
//! ```
//! use dmc_core::{Miner, SparseMatrix};
//!
//! let m = SparseMatrix::from_rows(3, vec![
//!     vec![1, 2], vec![0, 1, 2], vec![0], vec![1],
//! ]);
//! let out = Miner::implications(1.0).mine(&m).unwrap();
//! assert_eq!(out.pairs(), vec![(2, 1)]);
//!
//! // Same mine over a row stream, spilled to disk:
//! let rows: Vec<Result<Vec<u32>, std::convert::Infallible>> =
//!     vec![Ok(vec![1, 2]), Ok(vec![0, 1, 2]), Ok(vec![0]), Ok(vec![1])];
//! let streamed = Miner::implications(1.0).mine_streamed(rows, 3).unwrap();
//! assert_eq!(streamed.pairs(), vec![(2, 1)]);
//! ```
//!
//! Both drivers produce the same rules for the same input (the streamed
//! driver is bit-identical to the in-memory one under bucketed
//! sparsest-first order), so switching execution strategy is purely an
//! operational decision. The free `find_*` functions remain for backward
//! compatibility; new code should prefer the facade — or, for long-lived
//! use (incremental ingest, point queries), the [`Engine`](crate::Engine).
//!
//! [`ImplicationMiner::threads`] picks the in-memory implication
//! executor: one worker (the default) runs the sequential row-major
//! pipeline; more run the column-unit executor, where each worker mines
//! whole LHS columns from their postings (DESIGN.md §8). Both give
//! byte-identical rules. Similarity and streamed mines are always
//! sequential.
//!
//! ```
//! use dmc_core::{Miner, SparseMatrix};
//!
//! let m = SparseMatrix::from_rows(3, vec![
//!     vec![0, 1], vec![0, 1, 2], vec![1], vec![0, 1],
//! ]);
//! let one = Miner::implications(0.6).mine(&m).unwrap();
//! let two = Miner::implications(0.6).threads(2).mine(&m).unwrap();
//! assert_eq!(one.rules, two.rules);
//! ```
//!
//! Both `mine` methods return [`MineError`], the unified error enum: the
//! in-memory path never actually fails (its only possible error, a bad
//! threshold, panics in the constructor instead), and the streamed path
//! folds the [`StreamError`](crate::StreamError) variants in.

use crate::config::{ImplicationConfig, SimilarityConfig, SwitchPolicy};
use crate::error::MineError;
use crate::imp::ImplicationOutput;
use crate::sim::{find_similarities, SimilarityOutput};
use crate::stream::{find_implications_streamed, find_similarities_streamed};
use dmc_matrix::order::RowOrder;
use dmc_matrix::spill_io::SpillSettings;
use dmc_matrix::{ColumnId, SparseMatrix};

/// Entry point of the facade; see the [module docs](self).
pub struct Miner;

impl Miner {
    /// Starts configuring an implication mine at `minconf`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < minconf <= 1`.
    #[must_use]
    pub fn implications(minconf: f64) -> ImplicationMiner {
        ImplicationMiner {
            config: ImplicationConfig::new(minconf),
            threads: 1,
        }
    }

    /// Starts configuring a similarity mine at `minsim`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < minsim <= 1`.
    #[must_use]
    pub fn similarities(minsim: f64) -> SimilarityMiner {
        SimilarityMiner {
            config: SimilarityConfig::new(minsim),
        }
    }
}

/// A configured implication mine, created by [`Miner::implications`].
#[derive(Clone, Debug)]
pub struct ImplicationMiner {
    config: ImplicationConfig,
    threads: usize,
}

impl ImplicationMiner {
    /// Worker threads for in-memory mines (default 1).
    ///
    /// With `n > 1`, [`mine`](Self::mine) runs the column-unit executor
    /// (DESIGN.md §8) on `n` workers, capped at
    /// [`std::thread::available_parallelism`] and at the number of columns
    /// the sub-100% stage mines. Its rules are byte-identical to the
    /// sequential mine's; its report carries one
    /// [`WorkerSummary`](crate::WorkerSummary) per worker and no bitmap
    /// switch, since it ignores the [`SwitchPolicy`]. When the cap leaves
    /// one worker, and for memory-history runs, the mine is the
    /// sequential one. `0` and `1` mean sequential. Streamed mines ignore
    /// this.
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Row scan order for the counting pass (§4.1). In-memory runs only;
    /// streamed runs always replay in bucketed sparsest-first order.
    #[must_use]
    pub fn order(mut self, order: RowOrder) -> Self {
        self.config.row_order = order;
        self
    }

    /// DMC-bitmap switch policy (§4.2).
    #[must_use]
    pub fn switch(mut self, policy: SwitchPolicy) -> Self {
        self.config.switch = policy;
        self
    }

    /// Toggle the dedicated 100%-rule stage (§4.3).
    #[must_use]
    pub fn hundred_stage(mut self, on: bool) -> Self {
        self.config.hundred_stage = on;
        self
    }

    /// Also emit qualifying reverse directions `c_j ⇒ c_i`.
    #[must_use]
    pub fn reverse(mut self, on: bool) -> Self {
        self.config.emit_reverse = on;
        self
    }

    /// Record the per-row candidate-count history (the Fig-3 curve).
    #[must_use]
    pub fn memory_history(mut self, on: bool) -> Self {
        self.config.record_memory_history = on;
        self
    }

    /// Spill I/O settings for streamed runs (backend, retry policy,
    /// directory). Ignored by `mine`.
    #[must_use]
    pub fn spill(mut self, spill: SpillSettings) -> Self {
        self.config.spill = spill;
        self
    }

    /// Cap on transient spill-fault retries for streamed runs.
    #[must_use]
    pub fn spill_retries(mut self, max_retries: u32) -> Self {
        self.config = self.config.with_spill_retries(max_retries);
        self
    }

    /// The underlying [`ImplicationConfig`].
    #[must_use]
    pub fn config(&self) -> &ImplicationConfig {
        &self.config
    }

    /// Mines an in-memory matrix.
    ///
    /// # Errors
    ///
    /// Never fails today — the constructor already validated the
    /// threshold, and in-memory mines have no IO — but the signature is
    /// uniform with [`mine_streamed`](Self::mine_streamed) so generic
    /// callers handle one error type.
    pub fn mine(&self, matrix: &SparseMatrix) -> Result<ImplicationOutput, MineError> {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Ok(crate::pipeline::mine_implications_in_memory(
            matrix,
            &self.config,
            self.threads.min(cores),
        ))
    }

    /// Mines a fallible row stream out-of-core (two passes, §4.1 density
    /// buckets on disk).
    ///
    /// # Errors
    ///
    /// Fails on source errors, spill IO errors, or out-of-range column
    /// ids.
    pub fn mine_streamed<I, E>(
        &self,
        rows: I,
        n_cols: usize,
    ) -> Result<ImplicationOutput, MineError<E>>
    where
        I: IntoIterator<Item = Result<Vec<ColumnId>, E>>,
    {
        find_implications_streamed(rows, n_cols, &self.config).map_err(MineError::from)
    }
}

/// A configured similarity mine, created by [`Miner::similarities`].
#[derive(Clone, Debug)]
pub struct SimilarityMiner {
    config: SimilarityConfig,
}

impl SimilarityMiner {
    /// Accepted for symmetry with [`ImplicationMiner::threads`] and
    /// ignored: similarity mines are sequential. The §5.2 max-hits bound
    /// reads the RHS column's count of rows scanned so far, which a worker
    /// mining one LHS column from its postings does not have.
    #[must_use]
    pub fn threads(self, _n: usize) -> Self {
        self
    }

    /// Row scan order for the counting pass (§4.1). In-memory runs only;
    /// streamed runs always replay in bucketed sparsest-first order.
    #[must_use]
    pub fn order(mut self, order: RowOrder) -> Self {
        self.config.row_order = order;
        self
    }

    /// DMC-bitmap switch policy (§4.2).
    #[must_use]
    pub fn switch(mut self, policy: SwitchPolicy) -> Self {
        self.config.switch = policy;
        self
    }

    /// Toggle the dedicated identical-column stage (Algorithm 5.1).
    #[must_use]
    pub fn hundred_stage(mut self, on: bool) -> Self {
        self.config.hundred_stage = on;
        self
    }

    /// Toggle maximum-hits pruning (§5.2).
    #[must_use]
    pub fn max_hits_pruning(mut self, on: bool) -> Self {
        self.config.max_hits_pruning = on;
        self
    }

    /// Record the per-row candidate-count history.
    #[must_use]
    pub fn memory_history(mut self, on: bool) -> Self {
        self.config.record_memory_history = on;
        self
    }

    /// Spill I/O settings for streamed runs (backend, retry policy,
    /// directory). Ignored by `mine`.
    #[must_use]
    pub fn spill(mut self, spill: SpillSettings) -> Self {
        self.config.spill = spill;
        self
    }

    /// Cap on transient spill-fault retries for streamed runs.
    #[must_use]
    pub fn spill_retries(mut self, max_retries: u32) -> Self {
        self.config = self.config.with_spill_retries(max_retries);
        self
    }

    /// The underlying [`SimilarityConfig`].
    #[must_use]
    pub fn config(&self) -> &SimilarityConfig {
        &self.config
    }

    /// Mines an in-memory matrix.
    ///
    /// # Errors
    ///
    /// Never fails today; see [`ImplicationMiner::mine`].
    pub fn mine(&self, matrix: &SparseMatrix) -> Result<SimilarityOutput, MineError> {
        Ok(find_similarities(matrix, &self.config))
    }

    /// Mines a fallible row stream out-of-core (see
    /// [`ImplicationMiner::mine_streamed`]).
    ///
    /// # Errors
    ///
    /// Fails on source errors, spill IO errors, or out-of-range column
    /// ids.
    pub fn mine_streamed<I, E>(
        &self,
        rows: I,
        n_cols: usize,
    ) -> Result<SimilarityOutput, MineError<E>>
    where
        I: IntoIterator<Item = Result<Vec<ColumnId>, E>>,
    {
        find_similarities_streamed(rows, n_cols, &self.config).map_err(MineError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imp::find_implications;
    use crate::sim::find_similarities;
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
    fn facade_matches_free_functions_across_all_strategies() {
        let m = fig2();
        let expected = find_implications(&m, &ImplicationConfig::new(0.8));

        let in_memory = Miner::implications(0.8).mine(&m).unwrap();
        assert_eq!(in_memory.rules, expected.rules);
        assert_eq!(in_memory.report.mode, "in-memory");

        let streamed = Miner::implications(0.8)
            .mine_streamed(rows_of(&m), m.n_cols())
            .unwrap();
        assert_eq!(streamed.rules, expected.rules);
        assert_eq!(streamed.report.mode, "streamed");
    }

    #[test]
    fn sim_facade_matches_free_functions() {
        let m = fig2();
        let expected = find_similarities(&m, &SimilarityConfig::new(0.4));

        assert_eq!(
            Miner::similarities(0.4).mine(&m).unwrap().rules,
            expected.rules
        );
        assert_eq!(
            Miner::similarities(0.4)
                .mine_streamed(rows_of(&m), m.n_cols())
                .unwrap()
                .rules,
            expected.rules
        );
    }

    /// Serializes rule vectors through the canonical text format, so the
    /// wrapper comparisons below are byte-level, not just `Eq`-level.
    fn imp_bytes(rules: &[crate::ImplicationRule]) -> Vec<u8> {
        let mut buf = Vec::new();
        crate::write_rules(rules, &[], &mut buf).unwrap();
        buf
    }

    fn sim_bytes(rules: &[crate::SimilarityRule]) -> Vec<u8> {
        let mut buf = Vec::new();
        crate::write_rules(&[], rules, &mut buf).unwrap();
        buf
    }

    #[test]
    fn threads_knob_mines_identically() {
        let m = fig2();
        // Every worker count byte-matches the plain mine, in memory and
        // streamed (which ignores the knob).
        let expected = imp_bytes(&Miner::implications(0.8).mine(&m).unwrap().rules);
        for n in [0, 1, 4] {
            let miner = Miner::implications(0.8).threads(n);
            assert_eq!(imp_bytes(&miner.mine(&m).unwrap().rules), expected);
            let streamed = miner.mine_streamed(rows_of(&m), m.n_cols()).unwrap();
            assert_eq!(imp_bytes(&streamed.rules), expected, "threads({n})");
        }

        let expected = sim_bytes(&Miner::similarities(0.4).mine(&m).unwrap().rules);
        for n in [0, 1, 4] {
            let miner = Miner::similarities(0.4).threads(n);
            assert_eq!(sim_bytes(&miner.mine(&m).unwrap().rules), expected);
            let streamed = miner.mine_streamed(rows_of(&m), m.n_cols()).unwrap();
            assert_eq!(sim_bytes(&streamed.rules), expected, "threads({n})");
        }
    }

    #[test]
    fn builder_knobs_reach_the_config() {
        let m = fig2();
        let imp = Miner::implications(0.8)
            .order(RowOrder::Original)
            .switch(SwitchPolicy::always_at(3))
            .hundred_stage(false)
            .reverse(true)
            .memory_history(true);
        let cfg = imp.config();
        assert_eq!(cfg.row_order, RowOrder::Original);
        assert!(!cfg.hundred_stage);
        assert!(cfg.emit_reverse);
        assert!(cfg.record_memory_history);
        let out = imp.mine(&m).unwrap();
        let expected = find_implications(&m, cfg);
        assert_eq!(out.rules, expected.rules);
        assert!(
            !out.memory.history().is_empty(),
            "memory_history(true) records the Fig-3 curve"
        );

        let sim = Miner::similarities(0.6).max_hits_pruning(false);
        assert!(!sim.config().max_hits_pruning);
        assert_eq!(
            sim.mine(&m).unwrap().rules,
            find_similarities(&m, &SimilarityConfig::new(0.6).with_max_hits_pruning(false)).rules
        );
    }

    #[test]
    fn zero_threads_means_sequential() {
        let m = fig2();
        let out = Miner::implications(0.8).threads(0).mine(&m).unwrap();
        assert_eq!(out.report.threads, 0);
        assert!(out.report.workers.is_empty());
    }

    #[test]
    #[should_panic(expected = "minconf must be in (0, 1]")]
    fn facade_validates_threshold() {
        let _ = Miner::implications(0.0);
    }
}
