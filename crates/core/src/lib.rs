//! Dynamic Miss-Counting (DMC) algorithms.
//!
//! This crate implements the contribution of *"Dynamic Miss-Counting
//! Algorithms: Finding Implication and Similarity Rules with Confidence
//! Pruning"* (Fujiwara, Ullman, Motwani — ICDE 2000): mining **all**
//! implication rules `c_i ⇒ c_j` with confidence ≥ *minconf* and all
//! similarity rules `c_i ≃ c_j` with Jaccard similarity ≥ *minsim* from a
//! 0/1 matrix, **without support pruning** and without the false
//! positives/negatives of sketch-based methods.
//!
//! # The idea
//!
//! For a rule `c_i ⇒ c_j`, every row where `c_i` is 1 but `c_j` is 0 is a
//! **miss**. The rule holds iff the number of misses is at most
//! `maxmis(c_i) = floor((1 − minconf) · ones(c_i))`. DMC therefore counts
//! misses rather than hits: a candidate pair is deleted the moment its miss
//! counter exceeds the budget, and no new candidate is admitted for a column
//! once the column has been seen more than `maxmis` times (any unseen
//! partner has already missed too often). With high thresholds the budgets
//! are small and candidate lists stay tiny — *confidence pruning*.
//!
//! # Entry points
//!
//! The [`Miner`] facade is the front door for one-shot mines: pick
//! implications or similarities, set the knobs builder-style, then `mine`
//! (in-memory) or `mine_streamed` (out-of-core). Both return the unified
//! [`MineError`].
//!
//! ```
//! use dmc_core::{Miner, SparseMatrix};
//!
//! // Figure 1 of the paper.
//! let m = SparseMatrix::from_rows(3, vec![
//!     vec![1, 2], vec![0, 1, 2], vec![0], vec![1],
//! ]);
//! let out = Miner::implications(1.0).mine(&m).unwrap();
//! let rules: Vec<String> = out.rules.iter().map(ToString::to_string).collect();
//! // Only c3 => c2 survives at 100% confidence (0-indexed: 2 => 1).
//! assert_eq!(rules, vec!["c2 => c1 (conf 2/2 = 1.000)"]);
//! ```
//!
//! For long-lived use — serving rule queries, appending rows without
//! re-mining from scratch — construct an [`Engine`] from a [`MineConfig`]
//! instead. The engine owns the matrix and per-candidate counters across
//! calls: [`Engine::mine`] runs the batch drivers, [`Engine::ingest`]
//! folds appended rows in incrementally (bit-identical to a from-scratch
//! mine; see the [`engine`](Engine) docs for the monotonicity argument),
//! and [`Engine::query`] answers point lookups from column postings. The
//! `dmc-serve` crate wraps an engine in a TCP daemon.
//!
//! The underlying free functions remain available:
//!
//! * [`find_implications`] — DMC-imp (Algorithm 4.2): two scans, 100%-rule
//!   fast path, bucketed sparsest-first row order, automatic switch to the
//!   low-memory DMC-bitmap tail phase.
//! * [`find_similarities`] — DMC-sim (Algorithm 5.1): adds column-density
//!   and maximum-hits pruning.
//! * [`find_implications_streamed`], [`find_similarities_streamed`] — the
//!   same mines over disk-spilled row streams.
//!
//! All of them run one staged pipeline (pre-scan, 100% stage, sub-100%
//! scan, bitmap tail), written once for both measures and both row
//! sources; rows reach it through a single sequential stage loop. In-memory
//! implication mines can instead spread the sub-100% stage over several
//! workers, one LHS column at a time
//! ([`ImplicationMiner::threads`]), with byte-identical rules.
//!
//! # Observability
//!
//! Every driver attaches a [`RunReport`] to its output: typed scan
//! counters (rows scanned, candidates admitted/deleted, misses counted,
//! rules emitted), per-stage breakdowns, phase timings, memory peaks, the
//! bitmap-switch position and spill bytes, all in one schema
//! (`dmc.run_report.v8`) across the four drivers. `RunReport::to_json`
//! serializes it; the `dmc` CLI exposes that as `--metrics`. The
//! [`MinedOutput`] trait gives generic code one surface over both output
//! types.
//!
//! # Fidelity notes
//!
//! Threshold boundaries are evaluated through the shared predicates in
//! [`threshold`] (a rule with confidence exactly `minconf` qualifies, with a
//! small epsilon guarding against `f64` artifacts such as
//! `0.1 * 10 > 1`). Three off-by-one issues in the paper's pruning bounds
//! are resolved to their exact forms — see `DESIGN.md` and the `threshold`
//! module docs.

mod base;
mod bitmap;
mod candidates;
pub mod compact;
mod config;
mod engine;
mod error;
pub mod fxhash;
pub mod groups;
mod hundred;
mod imp;
mod miner;
mod output;
mod pipeline;
mod rules;
pub mod rules_io;
pub mod shard;
mod sim;
pub mod stream;
pub mod threshold;
pub mod validate;

pub use base::{BaseOutcome, BaseScan};
pub use compact::{
    compact, compact_implications, compact_similarities, BoostedImplication, BoostedSimilarity,
    CompactedBase, CompactionConfig, BOOST_HIST_EDGES,
};
pub use config::{ImplicationConfig, SimilarityConfig, SwitchPolicy};
pub use engine::{Engine, IngestReport, MineConfig, RuleAnswer};
pub use error::{ConfigError, MineError};
pub use groups::{rule_closure, rule_group_summaries, rule_groups, DisjointSets, GroupSummary};
pub use imp::{find_implications, ImplicationOutput};
pub use miner::{ImplicationMiner, Miner, SimilarityMiner};
pub use output::MinedOutput;
pub use rules::{ImplicationRule, SimilarityRule};
pub use rules_io::{read_rules, write_rules, RuleParseError};
pub use shard::{
    merge_shards, mine_shard, plan_shards, shard_mine, shard_path, MergedOutput, ShardError,
    ShardOutput,
};
pub use sim::{find_similarities, SimilarityOutput};
pub use stream::{find_implications_streamed, find_similarities_streamed, StreamError};
pub use validate::{verify_implications, verify_similarities, RuleCheck};

// Re-exports so downstream users need only this crate for common flows.
pub use dmc_matrix::spill_io::{RetryPolicy, SpillSettings};
pub use dmc_matrix::{order::RowOrder, ColumnId, SparseMatrix};
pub use dmc_metrics::{
    CompactionReport, IngestStats, IoReport, RunReport, ScanTally, ServeStats, StageReport,
    WorkerSummary, RUN_REPORT_SCHEMA,
};
