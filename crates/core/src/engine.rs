//! The persistent mining [`Engine`]: mine once, then serve queries and
//! ingest row batches without re-mining from scratch.
//!
//! Every other entry point in this crate is a batch run that throws its
//! scan state away. The engine keeps it: the loaded [`SparseMatrix`], the
//! per-column row postings (`S_c` as sorted adjacency lists, so
//! `ones(c) = |S_c|` is always current), the live candidate set — one
//! exact hit counter per pair in the current rule set — and the last
//! [`RunReport`].
//!
//! # Why incremental ingest is exact (monotonicity argument)
//!
//! Under row *appends*, `ones(c)` only grows and a pair's `hits` only
//! grows. Confidence in the canonical direction is
//! `hits / min(ones_i, ones_j)` and Jaccard similarity is
//! `hits / (ones_i + ones_j − hits)`; appending a batch changes a pair's
//! score in exactly two ways:
//!
//! * rows where the pair **co-occurs** increment `hits` (score can rise),
//! * rows touching only one side increment one `ones` (score can only
//!   fall).
//!
//! So a pair **not** in the current rule set can newly qualify only if it
//! co-occurs in the appended batch — otherwise its score moved
//! monotonically down. The engine therefore (a) bumps the exact counters
//! of tracked pairs that co-occur in the batch, (b) recounts from the
//! postings — a sorted-list intersection, no row rescan — every
//! *untracked* pair that co-occurs in the batch and admits it if it now
//! qualifies, and (c) re-derives the rule set from the tracked counters,
//! pruning pairs whose budget is now exceeded. Pruning revives nothing:
//! a pruned pair is simply untracked again, and can only re-enter through
//! a fresh batch co-occurrence and exact recount (step b), never through
//! stale state. The result is byte-identical to a from-scratch mine over
//! the concatenated rows (property-tested in `tests/tests/engine_ingest.rs`).
//!
//! Rule direction is *not* monotone — an append can flip which side of a
//! pair has fewer ones — so the canonical direction is re-derived from
//! the current `ones` at every derivation, never cached.
//!
//! # Example
//!
//! ```
//! use dmc_core::{Engine, MineConfig, SparseMatrix};
//!
//! let m = SparseMatrix::from_rows(3, vec![
//!     vec![1, 2], vec![0, 1, 2], vec![0], vec![1],
//! ]);
//! let mut engine = Engine::new(MineConfig::implications(1.0).unwrap(), m);
//! engine.mine();
//! assert_eq!(engine.implication_rules().len(), 1); // c2 => c1
//!
//! let report = engine.ingest(&[vec![1, 2], vec![2]]).unwrap();
//! assert_eq!(report.rows, 2);
//! let answer = engine.query(2, 1).unwrap();
//! assert_eq!((answer.hits, answer.lhs_ones), (3, 4));
//! ```

use crate::compact::{CompactedBase, CompactionConfig};
use crate::config::{ImplicationConfig, SimilarityConfig};
use crate::error::{ConfigError, MineError};
use crate::fxhash::FxHashMap;
use crate::imp::find_implications;
use crate::rules::{ImplicationRule, SimilarityRule};
use crate::sim::find_similarities;
use crate::threshold::{conf_qualifies, sim_qualifies};
use dmc_matrix::{canonical_less, ColumnId, RowId, SparseMatrix};
use dmc_metrics::{IngestStats, RunReport};
use std::time::Instant;

/// Which mine an [`Engine`] runs, unifying the two config types.
#[derive(Clone, Debug)]
pub enum MineConfig {
    /// DMC-imp with this configuration.
    Implication(ImplicationConfig),
    /// DMC-sim with this configuration.
    Similarity(SimilarityConfig),
}

impl MineConfig {
    /// An implication mine at `minconf`, with the paper's defaults.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] unless `0 < minconf <= 1` — the typed
    /// replacement for the `Miner::implications` panic.
    pub fn implications(minconf: f64) -> Result<Self, ConfigError> {
        if !(minconf > 0.0 && minconf <= 1.0) {
            return Err(ConfigError {
                name: "minconf",
                value: minconf,
            });
        }
        Ok(Self::Implication(ImplicationConfig::new(minconf)))
    }

    /// A similarity mine at `minsim`, with the paper's defaults.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] unless `0 < minsim <= 1`.
    pub fn similarities(minsim: f64) -> Result<Self, ConfigError> {
        if !(minsim > 0.0 && minsim <= 1.0) {
            return Err(ConfigError {
                name: "minsim",
                value: minsim,
            });
        }
        Ok(Self::Similarity(SimilarityConfig::new(minsim)))
    }

    /// The configured threshold (`minconf` or `minsim`).
    #[must_use]
    pub fn threshold(&self) -> f64 {
        match self {
            MineConfig::Implication(c) => c.minconf,
            MineConfig::Similarity(c) => c.minsim,
        }
    }

    /// `"implication"` or `"similarity"` (matches the run-report field).
    #[must_use]
    pub fn algorithm(&self) -> &'static str {
        match self {
            MineConfig::Implication(_) => "implication",
            MineConfig::Similarity(_) => "similarity",
        }
    }

    /// Whether the configuration emits reverse implication rules
    /// (always `false` for similarity — those are symmetric).
    #[must_use]
    pub fn emit_reverse(&self) -> bool {
        match self {
            MineConfig::Implication(c) => c.emit_reverse,
            MineConfig::Similarity(_) => false,
        }
    }
}

impl From<ImplicationConfig> for MineConfig {
    fn from(c: ImplicationConfig) -> Self {
        MineConfig::Implication(c)
    }
}

impl From<SimilarityConfig> for MineConfig {
    fn from(c: SimilarityConfig) -> Self {
        MineConfig::Similarity(c)
    }
}

/// What one [`Engine::ingest`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IngestReport {
    /// Rows appended by this call.
    pub rows: usize,
    /// Tracked pairs whose hit counter was bumped by a batch co-occurrence.
    pub pairs_bumped: u64,
    /// Untracked batch-co-occurring pairs recounted from the postings.
    pub pairs_recounted: u64,
    /// Recounted pairs that qualified and entered the rule set.
    pub rules_born: u64,
    /// Previously tracked pairs pruned because their budget is now exceeded.
    pub rules_died: u64,
    /// Rules in the set after re-derivation.
    pub rules: usize,
    /// Wall clock of the ingest, in seconds.
    pub wall_seconds: f64,
}

/// Answer to a point [`Engine::query`] — exact counts from the postings,
/// no row rescan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RuleAnswer {
    pub lhs: ColumnId,
    pub rhs: ColumnId,
    /// Rows where both columns are 1.
    pub hits: u32,
    /// `|S_lhs|`.
    pub lhs_ones: u32,
    /// `|S_rhs|`.
    pub rhs_ones: u32,
    /// `hits / lhs_ones` in the queried direction (0 for an empty LHS).
    pub confidence: f64,
    /// Jaccard `hits / |S_lhs ∪ S_rhs|` (0 for an empty union).
    pub similarity: f64,
    /// Whether the queried direction meets the engine's threshold, via
    /// the same boundary predicates the miners use.
    pub qualifies: bool,
}

/// Pairs are tracked keyed by id order; the canonical *rule* direction is
/// re-derived from the current ones at every derivation.
#[inline]
fn pair_key(a: ColumnId, b: ColumnId) -> (ColumnId, ColumnId) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Size of the sorted-list intersection (both inputs strictly increasing).
fn intersect_len(a: &[RowId], b: &[RowId]) -> u32 {
    let (mut i, mut j, mut n) = (0, 0, 0u32);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// A persistent mining engine; see the [module docs](self).
#[derive(Debug)]
pub struct Engine {
    config: MineConfig,
    matrix: SparseMatrix,
    /// `S_c` per column, ascending row ids; `ones(c) = postings[c].len()`.
    postings: Vec<Vec<RowId>>,
    /// Exact hit counters for every pair in the current rule set.
    tracked: FxHashMap<(ColumnId, ColumnId), u32>,
    imp_rules: Vec<ImplicationRule>,
    sim_rules: Vec<SimilarityRule>,
    report: Option<RunReport>,
    ingest_stats: IngestStats,
    mined: bool,
    /// Serving-side compaction filters; `Some` turns on the compaction
    /// stage (base maintenance + report section).
    compaction: Option<CompactionConfig>,
    /// Irredundant base of the current rule set, refreshed after every
    /// mine and ingest when compaction is configured.
    base: Option<CompactedBase>,
}

impl Engine {
    /// Wraps a loaded matrix; call [`Engine::mine`] (or let the first
    /// [`Engine::ingest`] trigger it) before querying rules.
    #[must_use]
    pub fn new(config: MineConfig, matrix: SparseMatrix) -> Self {
        let postings = matrix.column_rows();
        Self {
            config,
            matrix,
            postings,
            tracked: FxHashMap::default(),
            imp_rules: Vec::new(),
            sim_rules: Vec::new(),
            report: None,
            ingest_stats: IngestStats::default(),
            mined: false,
            compaction: None,
            base: None,
        }
    }

    /// Builder-style compaction stage: the engine maintains an
    /// irredundant [`CompactedBase`] of the rule set (refreshed on every
    /// mine and ingest), serves rule queries from it filtered by
    /// `config`, and attaches the v7 `compaction` report section.
    #[must_use]
    pub fn with_compaction(mut self, config: CompactionConfig) -> Self {
        self.compaction = Some(config);
        self
    }

    /// The serving-side compaction filters, when compaction is on.
    #[must_use]
    pub fn compaction(&self) -> Option<&CompactionConfig> {
        self.compaction.as_ref()
    }

    /// The irredundant base of the current rule set (`None` until the
    /// first mine, or when compaction is off).
    #[must_use]
    pub fn compacted_base(&self) -> Option<&CompactedBase> {
        self.base.as_ref()
    }

    /// Expands the irredundant base back into the full rule set — the
    /// serve layer's expansion query. For engines without a configured
    /// compaction stage the base is computed on the fly; either way the
    /// result is byte-identical to the engine's current rules.
    #[must_use]
    pub fn expand_rules(&self) -> (Vec<ImplicationRule>, Vec<SimilarityRule>) {
        match &self.base {
            Some(base) => base.expand(),
            None => self.compact_current().expand(),
        }
    }

    fn compact_current(&self) -> CompactedBase {
        let (minconf, minsim) = match &self.config {
            MineConfig::Implication(c) => (c.minconf, 1.0),
            MineConfig::Similarity(c) => (1.0, c.minsim),
        };
        crate::compact::compact(
            &self.imp_rules,
            &self.sim_rules,
            minconf,
            minsim,
            Some(self.config.emit_reverse()),
        )
    }

    fn refresh_base(&mut self) {
        if self.compaction.is_some() {
            self.base = Some(self.compact_current());
        }
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &MineConfig {
        &self.config
    }

    /// The owned matrix (base rows plus everything ingested).
    #[must_use]
    pub fn matrix(&self) -> &SparseMatrix {
        &self.matrix
    }

    /// Current `ones(c)`, or `None` for an out-of-range id.
    #[must_use]
    pub fn ones(&self, c: ColumnId) -> Option<u32> {
        self.postings.get(c as usize).map(|p| p.len() as u32)
    }

    /// Implication rules of the current set (empty for similarity engines
    /// and before the first mine).
    #[must_use]
    pub fn implication_rules(&self) -> &[ImplicationRule] {
        &self.imp_rules
    }

    /// Similarity rules of the current set (empty for implication engines
    /// and before the first mine).
    #[must_use]
    pub fn similarity_rules(&self) -> &[SimilarityRule] {
        &self.sim_rules
    }

    /// Rules in the current set.
    #[must_use]
    pub fn rule_count(&self) -> usize {
        self.imp_rules.len() + self.sim_rules.len()
    }

    /// The last full mine's report, if one ran.
    #[must_use]
    pub fn report(&self) -> Option<&RunReport> {
        self.report.as_ref()
    }

    /// Cumulative ingest counters since construction.
    #[must_use]
    pub fn ingest_stats(&self) -> IngestStats {
        self.ingest_stats
    }

    /// The last mine's report with the cumulative `ingest` section — and,
    /// when compaction is on, the `compaction` section — attached: the
    /// `dmc.run_report.v7` shape a serving layer reports.
    #[must_use]
    pub fn report_with_ingest(&self) -> Option<RunReport> {
        let mut report = self.report.clone()?;
        if self.ingest_stats.batches > 0 {
            report.ingest = Some(self.ingest_stats);
        }
        if let Some(base) = &self.base {
            report.compaction = Some(base.report());
        }
        Some(report)
    }

    /// Mines the owned matrix from scratch, (re)building the tracked
    /// candidate set, and returns the run report. Runs the same
    /// in-memory drivers as [`Miner`](crate::Miner).
    pub fn mine(&mut self) -> &RunReport {
        let _span = dmc_metrics::span!("engine.mine");
        dmc_metrics::telemetry::global()
            .counter("engine.mines")
            .inc();
        match &self.config {
            MineConfig::Implication(cfg) => {
                let out = find_implications(&self.matrix, cfg);
                self.tracked = out
                    .rules
                    .iter()
                    .map(|r| (pair_key(r.lhs, r.rhs), r.hits))
                    .collect();
                self.imp_rules = out.rules;
                self.report = Some(out.report);
            }
            MineConfig::Similarity(cfg) => {
                let out = find_similarities(&self.matrix, cfg);
                self.tracked = out
                    .rules
                    .iter()
                    .map(|r| (pair_key(r.a, r.b), r.hits))
                    .collect();
                self.sim_rules = out.rules;
                self.report = Some(out.report);
            }
        }
        self.mined = true;
        self.refresh_base();
        self.report.as_ref().expect("mine stores a report")
    }

    /// Appends a row batch and incrementally re-derives the rule set
    /// (see the [module docs](self) for why this is exact). The first
    /// ingest on an un-mined engine runs [`Engine::mine`] first, so the
    /// tracked-candidate invariant always holds.
    ///
    /// # Errors
    ///
    /// Returns [`MineError::ColumnOutOfRange`] — with the would-be global
    /// row index — and leaves the engine untouched if any id is
    /// `>= n_cols()`.
    pub fn ingest(&mut self, rows: &[Vec<ColumnId>]) -> Result<IngestReport, MineError> {
        let _span = dmc_metrics::span!("engine.ingest");
        let start = Instant::now();
        let n_cols = self.matrix.n_cols();
        for (k, row) in rows.iter().enumerate() {
            if let Some(&id) = row.iter().find(|&&id| id as usize >= n_cols) {
                return Err(MineError::ColumnOutOfRange {
                    row: self.matrix.n_rows() + k,
                    id,
                });
            }
        }
        if !self.mined {
            self.mine();
        }

        let mut report = IngestReport {
            rows: rows.len(),
            ..IngestReport::default()
        };
        let mut recount: Vec<(ColumnId, ColumnId)> = Vec::new();
        for row in rows {
            let mut cols = row.clone();
            cols.sort_unstable();
            cols.dedup();
            let row_id = self.matrix.n_rows() as RowId;
            self.matrix.append_sorted_row(&cols);
            for &c in &cols {
                self.postings[c as usize].push(row_id);
            }
            for (i, &a) in cols.iter().enumerate() {
                for &b in &cols[i + 1..] {
                    match self.tracked.get_mut(&(a, b)) {
                        Some(hits) => {
                            *hits += 1;
                            report.pairs_bumped += 1;
                        }
                        None => recount.push((a, b)),
                    }
                }
            }
        }
        // An untracked pair can appear in several batch rows; recount it
        // once (the intersection below already covers the whole batch).
        recount.sort_unstable();
        recount.dedup();
        for (a, b) in recount {
            report.pairs_recounted += 1;
            let hits = intersect_len(&self.postings[a as usize], &self.postings[b as usize]);
            if self.pair_qualifies(a, b, hits) {
                self.tracked.insert((a, b), hits);
                report.rules_born += 1;
            }
        }
        report.rules_died = self.derive_rules();
        report.rules = self.rule_count();
        report.wall_seconds = start.elapsed().as_secs_f64();

        let registry = dmc_metrics::telemetry::global();
        registry.counter("engine.ingest_batches").inc();
        registry
            .counter("engine.ingest_rows")
            .add(report.rows as u64);
        registry
            .histogram("engine.ingest")
            .record_us(start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);

        self.ingest_stats.batches += 1;
        self.ingest_stats.rows_ingested += report.rows as u64;
        self.ingest_stats.pairs_bumped += report.pairs_bumped;
        self.ingest_stats.pairs_recounted += report.pairs_recounted;
        self.ingest_stats.rules_born += report.rules_born;
        self.ingest_stats.rules_died += report.rules_died;
        Ok(report)
    }

    /// Exact confidence/similarity for one directed pair, from the
    /// postings (no row rescan). `None` when either id is out of range.
    #[must_use]
    pub fn query(&self, lhs: ColumnId, rhs: ColumnId) -> Option<RuleAnswer> {
        let _span = dmc_metrics::span!("engine.query");
        dmc_metrics::telemetry::global()
            .counter("engine.queries")
            .inc();
        let pl = self.postings.get(lhs as usize)?;
        let pr = self.postings.get(rhs as usize)?;
        let hits = intersect_len(pl, pr);
        let (lhs_ones, rhs_ones) = (pl.len() as u32, pr.len() as u32);
        let confidence = if lhs_ones == 0 {
            0.0
        } else {
            f64::from(hits) / f64::from(lhs_ones)
        };
        let union = lhs_ones + rhs_ones - hits;
        let similarity = if union == 0 {
            0.0
        } else {
            f64::from(hits) / f64::from(union)
        };
        let qualifies = match &self.config {
            MineConfig::Implication(c) => {
                conf_qualifies(u64::from(hits), u64::from(lhs_ones), c.minconf)
            }
            MineConfig::Similarity(c) => sim_qualifies(
                u64::from(hits),
                u64::from(lhs_ones),
                u64::from(rhs_ones),
                c.minsim,
            ),
        };
        Some(RuleAnswer {
            lhs,
            rhs,
            hits,
            lhs_ones,
            rhs_ones,
            confidence,
            similarity,
            qualifies,
        })
    }

    /// Does the pair qualify in its canonical direction under the current
    /// ones? Uses the exact boundary predicates of [`crate::threshold`].
    fn pair_qualifies(&self, a: ColumnId, b: ColumnId, hits: u32) -> bool {
        let (ones_a, ones_b) = (
            self.postings[a as usize].len() as u32,
            self.postings[b as usize].len() as u32,
        );
        match &self.config {
            MineConfig::Implication(c) => {
                let lhs_ones = if canonical_less(a, ones_a, b, ones_b) {
                    ones_a
                } else {
                    ones_b
                };
                conf_qualifies(u64::from(hits), u64::from(lhs_ones), c.minconf)
            }
            MineConfig::Similarity(c) => sim_qualifies(
                u64::from(hits),
                u64::from(ones_a),
                u64::from(ones_b),
                c.minsim,
            ),
        }
    }

    /// Rebuilds the rule vectors from the tracked counters, pruning pairs
    /// that no longer qualify. Returns how many pairs were pruned.
    fn derive_rules(&mut self) -> u64 {
        let mut died = 0u64;
        match &self.config {
            MineConfig::Implication(cfg) => {
                let mut rules = Vec::with_capacity(self.tracked.len());
                let postings = &self.postings;
                self.tracked.retain(|&(a, b), hits| {
                    let (ones_a, ones_b) = (
                        postings[a as usize].len() as u32,
                        postings[b as usize].len() as u32,
                    );
                    // Canonical direction from the *current* ones: appends
                    // can flip which side is sparser.
                    let (lhs, rhs, lhs_ones, rhs_ones) = if canonical_less(a, ones_a, b, ones_b) {
                        (a, b, ones_a, ones_b)
                    } else {
                        (b, a, ones_b, ones_a)
                    };
                    let keep = conf_qualifies(u64::from(*hits), u64::from(lhs_ones), cfg.minconf);
                    if keep {
                        let rule = ImplicationRule {
                            lhs,
                            rhs,
                            hits: *hits,
                            lhs_ones,
                            rhs_ones,
                        };
                        rules.push(rule);
                        // conf(lhs ⇒ rhs) >= conf(rhs ⇒ lhs), so checking
                        // the reverse alone matches the driver's filter.
                        if cfg.emit_reverse
                            && conf_qualifies(u64::from(*hits), u64::from(rhs_ones), cfg.minconf)
                        {
                            rules.push(rule.reversed());
                        }
                    } else {
                        died += 1;
                    }
                    keep
                });
                rules.sort_unstable();
                rules.dedup();
                self.imp_rules = rules;
            }
            MineConfig::Similarity(cfg) => {
                let mut rules = Vec::with_capacity(self.tracked.len());
                let postings = &self.postings;
                self.tracked.retain(|&(i, j), hits| {
                    let (ones_i, ones_j) = (
                        postings[i as usize].len() as u32,
                        postings[j as usize].len() as u32,
                    );
                    let keep = sim_qualifies(
                        u64::from(*hits),
                        u64::from(ones_i),
                        u64::from(ones_j),
                        cfg.minsim,
                    );
                    if keep {
                        let (a, b, a_ones, b_ones) = if canonical_less(i, ones_i, j, ones_j) {
                            (i, j, ones_i, ones_j)
                        } else {
                            (j, i, ones_j, ones_i)
                        };
                        rules.push(SimilarityRule {
                            a,
                            b,
                            hits: *hits,
                            a_ones,
                            b_ones,
                        });
                    } else {
                        died += 1;
                    }
                    keep
                });
                rules.sort_unstable();
                rules.dedup();
                self.sim_rules = rules;
            }
        }
        self.refresh_base();
        died
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmc_matrix::MatrixBuilder;

    fn fig2_rows() -> Vec<Vec<ColumnId>> {
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
        ]
    }

    fn matrix_of(rows: &[Vec<ColumnId>]) -> SparseMatrix {
        let mut b = MatrixBuilder::new(6);
        for row in rows {
            b.push_row(row.clone());
        }
        b.finish()
    }

    fn from_scratch_imp(rows: &[Vec<ColumnId>], minconf: f64) -> Vec<ImplicationRule> {
        find_implications(&matrix_of(rows), &ImplicationConfig::new(minconf)).rules
    }

    #[test]
    fn config_constructors_validate() {
        assert!(MineConfig::implications(0.9).is_ok());
        assert!(MineConfig::similarities(1.0).is_ok());
        let err = MineConfig::implications(0.0).unwrap_err();
        assert_eq!(err.name, "minconf");
        let err = MineConfig::similarities(1.5).unwrap_err();
        assert_eq!(err.to_string(), "minsim must be in (0, 1], got 1.5");
        assert!(MineConfig::implications(f64::NAN).is_err());
    }

    #[test]
    fn mine_matches_the_batch_drivers() {
        let rows = fig2_rows();
        let mut engine = Engine::new(MineConfig::implications(0.8).unwrap(), matrix_of(&rows));
        engine.mine();
        assert_eq!(engine.implication_rules(), from_scratch_imp(&rows, 0.8));
        assert_eq!(engine.report().unwrap().algorithm, "implication");

        let expected = find_similarities(&matrix_of(&rows), &SimilarityConfig::new(0.4)).rules;
        let mut engine = Engine::new(MineConfig::similarities(0.4).unwrap(), matrix_of(&rows));
        engine.mine();
        assert_eq!(engine.similarity_rules(), expected);
    }

    #[test]
    fn ingest_is_byte_identical_to_from_scratch() {
        let all = fig2_rows();
        for minconf in [0.5, 0.8, 1.0] {
            for split in [1, 4, 7] {
                let (base, batch) = all.split_at(split);
                let mut engine =
                    Engine::new(MineConfig::implications(minconf).unwrap(), matrix_of(base));
                engine.mine();
                let report = engine.ingest(batch).unwrap();
                assert_eq!(report.rows, batch.len());
                assert_eq!(
                    engine.implication_rules(),
                    from_scratch_imp(&all, minconf),
                    "minconf {minconf} split {split}"
                );
                assert_eq!(report.rules, engine.rule_count());
            }
        }
    }

    #[test]
    fn ingest_row_by_row_matches_too() {
        let all = fig2_rows();
        let mut engine = Engine::new(MineConfig::similarities(0.4).unwrap(), matrix_of(&all[..2]));
        engine.mine();
        for row in &all[2..] {
            engine.ingest(std::slice::from_ref(row)).unwrap();
        }
        let expected = find_similarities(&matrix_of(&all), &SimilarityConfig::new(0.4)).rules;
        assert_eq!(engine.similarity_rules(), expected);
        assert_eq!(engine.ingest_stats().batches, 7);
        assert_eq!(engine.ingest_stats().rows_ingested, 7);
    }

    #[test]
    fn ingest_with_emit_reverse_matches() {
        let all = fig2_rows();
        let cfg = ImplicationConfig::new(0.6).with_reverse(true);
        let expected = find_implications(&matrix_of(&all), &cfg).rules;
        let mut engine = Engine::new(cfg.into(), matrix_of(&all[..5]));
        engine.mine();
        engine.ingest(&all[5..]).unwrap();
        assert_eq!(engine.implication_rules(), expected);
    }

    #[test]
    fn first_ingest_mines_implicitly() {
        let all = fig2_rows();
        let mut engine = Engine::new(MineConfig::implications(0.8).unwrap(), matrix_of(&all[..6]));
        engine.ingest(&all[6..]).unwrap();
        assert_eq!(engine.implication_rules(), from_scratch_imp(&all, 0.8));
    }

    #[test]
    fn ingest_rejects_out_of_range_ids_atomically() {
        let all = fig2_rows();
        let mut engine = Engine::new(MineConfig::implications(0.8).unwrap(), matrix_of(&all));
        engine.mine();
        let before_rows = engine.matrix().n_rows();
        let err = engine.ingest(&[vec![1], vec![2, 6]]).unwrap_err();
        match err {
            MineError::ColumnOutOfRange { row, id } => {
                assert_eq!(row, before_rows + 1);
                assert_eq!(id, 6);
            }
            other => panic!("expected ColumnOutOfRange, got {other:?}"),
        }
        assert_eq!(engine.matrix().n_rows(), before_rows, "nothing appended");
    }

    #[test]
    fn query_answers_from_postings() {
        let all = fig2_rows();
        let mut engine = Engine::new(MineConfig::implications(0.8).unwrap(), matrix_of(&all));
        engine.mine();
        // c5 occurs in rows {0,3,5,6,7} (5 ones); c3 in {1,4,5,6,7} (5 ones);
        // they co-occur in rows {5,6,7}.
        let a = engine.query(5, 3).unwrap();
        assert_eq!((a.hits, a.lhs_ones, a.rhs_ones), (3, 5, 5));
        assert!((a.confidence - 0.6).abs() < 1e-12);
        assert!((a.similarity - 3.0 / 7.0).abs() < 1e-12);
        assert!(!a.qualifies);
        assert!(engine.query(0, 6).is_none(), "out of range is None");
        assert_eq!(engine.ones(5), Some(5));
        assert_eq!(engine.ones(6), None);
    }

    #[test]
    fn report_with_ingest_attaches_the_v5_section() {
        let all = fig2_rows();
        let mut engine = Engine::new(MineConfig::implications(0.8).unwrap(), matrix_of(&all[..7]));
        assert!(engine.report_with_ingest().is_none(), "no mine yet");
        engine.mine();
        assert!(
            engine.report_with_ingest().unwrap().ingest.is_none(),
            "no ingest yet"
        );
        engine.ingest(&all[7..]).unwrap();
        let ingest = engine.report_with_ingest().unwrap().ingest.unwrap();
        assert_eq!(ingest.batches, 1);
        assert_eq!(ingest.rows_ingested, 2);
    }

    #[test]
    fn compaction_engine_maintains_base_and_report_section() {
        let all = fig2_rows();
        let mut engine = Engine::new(MineConfig::implications(0.6).unwrap(), matrix_of(&all[..5]))
            .with_compaction(CompactionConfig::default());
        assert!(engine.compacted_base().is_none(), "no base before mine");
        engine.mine();

        let base = engine.compacted_base().expect("base after mine");
        assert!(base.rules_in_base() <= engine.rule_count());
        let (expanded, _) = engine.expand_rules();
        assert_eq!(expanded, engine.implication_rules());

        let report = engine.report_with_ingest().unwrap();
        let section = report.compaction.expect("compaction section attached");
        assert_eq!(section.rules_in as usize, engine.rule_count());
        assert!(report.reconciles());

        // Ingest refreshes the base: expansion still matches exactly.
        engine.ingest(&all[5..]).unwrap();
        let (expanded, _) = engine.expand_rules();
        assert_eq!(expanded, engine.implication_rules());
        let section = engine.report_with_ingest().unwrap().compaction.unwrap();
        assert_eq!(section.rules_in as usize, engine.rule_count());
    }

    #[test]
    fn expand_rules_without_compaction_matches_rules() {
        let all = fig2_rows();
        let mut engine = Engine::new(
            MineConfig::Implication(ImplicationConfig::new(0.6).with_reverse(true)),
            matrix_of(&all),
        );
        engine.mine();
        assert!(engine.compacted_base().is_none());
        let (expanded, _) = engine.expand_rules();
        assert_eq!(expanded, engine.implication_rules());
        assert!(
            engine.report_with_ingest().unwrap().compaction.is_none(),
            "no section without a compaction stage"
        );
    }

    #[test]
    fn intersect_len_basics() {
        assert_eq!(intersect_len(&[], &[]), 0);
        assert_eq!(intersect_len(&[1, 3, 5], &[2, 4]), 0);
        assert_eq!(intersect_len(&[1, 3, 5, 9], &[3, 5, 6, 9]), 3);
    }
}
