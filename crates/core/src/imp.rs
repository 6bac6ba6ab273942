//! DMC-imp (Algorithm 4.2): the full implication-rule pipeline.
//!
//! 1. Pre-scan: per-column 1-counts (and, implicitly, the §4.1 density
//!    buckets through the configured [`RowOrder`]).
//! 2. Exact stage: 100%-confidence rules via the simplified scan (§4.3).
//! 3. Remove columns that can only carry exact rules
//!    (`maxmis(c) = 0`; the corrected Algorithm 4.2 step 3 bound).
//! 4. Sub-100% stage: DMC-base over the surviving columns, switching to
//!    DMC-bitmap per the configured [`SwitchPolicy`].
//!
//! Both counting stages scan rows in the configured order and monitor the
//! counter-array footprint; the staged pipeline ([`crate::pipeline`])
//! collects phase timings, peak memory and (optionally) the Fig-3 memory
//! history into [`ImplicationOutput`].

use crate::config::ImplicationConfig;
use crate::rules::ImplicationRule;
use dmc_matrix::{ColumnId, SparseMatrix};
use dmc_metrics::{CounterMemory, PhaseReport, RunReport};

/// Result of [`find_implications`].
#[derive(Debug)]
pub struct ImplicationOutput {
    /// All qualifying rules, sorted by `(lhs, rhs)`.
    pub rules: Vec<ImplicationRule>,
    /// Phase breakdown: `pre-scan`, `100% rules`, `<100% rules`,
    /// `bitmap tail`.
    pub phases: PhaseReport,
    /// Counter-array accounting across all stages (peak = max over stages).
    pub memory: CounterMemory,
    /// Whether the sub-100% stage switched to DMC-bitmap, and after how
    /// many scanned rows.
    pub bitmap_switch_at: Option<usize>,
    /// The machine-readable run report (same schema across all drivers).
    pub report: RunReport,
}

impl ImplicationOutput {
    /// Convenience: `(lhs, rhs)` pairs of the rules.
    #[must_use]
    pub fn pairs(&self) -> Vec<(ColumnId, ColumnId)> {
        self.rules.iter().map(|r| (r.lhs, r.rhs)).collect()
    }

    /// The `k` rules with the highest confidence (ties by more hits, then
    /// canonical order).
    ///
    /// Thin wrapper kept for backward compatibility; prefer
    /// [`MinedOutput::top`](crate::MinedOutput::top), which works across
    /// both output types.
    #[must_use]
    pub fn top_by_confidence(&self, k: usize) -> Vec<&ImplicationRule> {
        crate::MinedOutput::top(self, k)
    }

    /// All rules whose LHS is `col`, in canonical order.
    #[must_use]
    pub fn for_lhs(&self, col: ColumnId) -> Vec<&ImplicationRule> {
        self.rules.iter().filter(|r| r.lhs == col).collect()
    }
}

/// Mines all implication rules of `matrix` at `config.minconf`.
///
/// Returns every rule `c_i ⇒ c_j` with confidence ≥ *minconf* in the
/// paper's canonical direction (`|S_i| < |S_j|`, ties by id), plus reverse
/// directions when [`ImplicationConfig::emit_reverse`] is set. Exact — no
/// false positives or negatives.
///
/// New code should prefer the [`crate::Miner`] facade
/// (`Miner::implications(minconf).mine(&matrix)`); this free function
/// remains for backward compatibility.
#[must_use]
pub fn find_implications(matrix: &SparseMatrix, config: &ImplicationConfig) -> ImplicationOutput {
    find_implications_masked(matrix, config, None)
}

/// [`find_implications`] restricted to the LHS columns selected by
/// `lhs_mask` (`None` = all). Masked columns still serve as RHS partners,
/// still appear in tail bitmaps, and their pre-scan counts are unchanged,
/// so each unmasked column's candidate evolution is byte-identical to the
/// unsharded run — the shard workers rely on this to make the merged
/// union exact (DESIGN.md §13).
#[must_use]
pub(crate) fn find_implications_masked(
    matrix: &SparseMatrix,
    config: &ImplicationConfig,
    lhs_mask: Option<&[bool]>,
) -> ImplicationOutput {
    crate::pipeline::mine_in_memory(matrix, config, lhs_mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SwitchPolicy;
    use dmc_matrix::order::RowOrder;

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

    #[test]
    fn fig2_at_80_percent() {
        let out = find_implications(&fig2(), &ImplicationConfig::new(0.8));
        assert_eq!(out.pairs(), vec![(0, 1), (2, 4)]);
        assert!(out.phases.total() > std::time::Duration::ZERO);
    }

    #[test]
    fn hundred_stage_toggle_is_equivalent() {
        let m = fig2();
        for &minconf in &[1.0, 0.9, 0.8, 0.6, 0.35] {
            let with = find_implications(&m, &ImplicationConfig::new(minconf));
            let without = find_implications(
                &m,
                &ImplicationConfig::new(minconf).with_hundred_stage(false),
            );
            assert_eq!(with.rules, without.rules, "minconf={minconf}");
        }
    }

    #[test]
    fn row_orders_are_equivalent() {
        let m = fig2();
        let base = find_implications(&m, &ImplicationConfig::new(0.8));
        for order in [
            RowOrder::Original,
            RowOrder::ExactSparsestFirst,
            RowOrder::Custom((0..9).rev().collect()),
        ] {
            let out = find_implications(
                &m,
                &ImplicationConfig::new(0.8).with_row_order(order.clone()),
            );
            assert_eq!(out.rules, base.rules, "order={order:?}");
        }
    }

    #[test]
    fn forced_bitmap_switch_is_equivalent() {
        let m = fig2();
        for tail in 1..=9 {
            let cfg = ImplicationConfig::new(0.8).with_switch(SwitchPolicy::always_at(tail));
            let out = find_implications(&m, &cfg);
            assert_eq!(out.pairs(), vec![(0, 1), (2, 4)], "tail={tail}");
            assert_eq!(out.bitmap_switch_at, Some(9 - tail));
            assert!(out.phases.phase("bitmap tail") > std::time::Duration::ZERO);
        }
    }

    #[test]
    fn no_switch_under_never_policy() {
        let m = fig2();
        let out = find_implications(
            &m,
            &ImplicationConfig::new(0.8).with_switch(SwitchPolicy::never()),
        );
        assert_eq!(out.bitmap_switch_at, None);
    }

    #[test]
    fn reverse_emission_adds_qualifying_reverses() {
        // Columns 0 and 1 identical => both directions at 100%.
        let m = SparseMatrix::from_rows(3, vec![vec![0, 1], vec![0, 1], vec![2]]);
        let fwd = find_implications(&m, &ImplicationConfig::new(1.0));
        assert_eq!(fwd.pairs(), vec![(0, 1)]);
        let both = find_implications(&m, &ImplicationConfig::new(1.0).with_reverse(true));
        assert_eq!(both.pairs(), vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn reverse_emission_respects_threshold() {
        // S_0 = {0}, S_1 = {0, 1}: 0 => 1 holds at 1.0; 1 => 0 at 0.5.
        let m = SparseMatrix::from_rows(2, vec![vec![0, 1], vec![1]]);
        let out = find_implications(&m, &ImplicationConfig::new(0.8).with_reverse(true));
        assert_eq!(out.pairs(), vec![(0, 1)]);
        let loose = find_implications(&m, &ImplicationConfig::new(0.5).with_reverse(true));
        assert_eq!(loose.pairs(), vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn memory_history_is_recorded_when_requested() {
        let m = fig2();
        let mut cfg = ImplicationConfig::new(0.8)
            .with_row_order(RowOrder::Original)
            .with_hundred_stage(false); // a single scan records one history
        cfg.record_memory_history = true;
        cfg.release_completed = false;
        let out = find_implications(&m, &cfg);
        let hist = out.memory.history();
        assert_eq!(hist.len(), 9, "one sample per row");
        let candidates: Vec<usize> = hist.iter().map(|s| s.candidates).collect();
        assert_eq!(candidates, vec![1, 4, 4, 7, 9, 7, 7, 6, 2], "§4.1 history");
    }

    #[test]
    fn empty_and_degenerate_matrices() {
        let empty = SparseMatrix::from_rows(0, vec![]);
        assert!(find_implications(&empty, &ImplicationConfig::new(0.9))
            .rules
            .is_empty());

        let single = SparseMatrix::from_rows(3, vec![vec![0, 1, 2]]);
        let out = find_implications(&single, &ImplicationConfig::new(1.0));
        assert_eq!(out.pairs(), vec![(0, 1), (0, 2), (1, 2)]);

        let no_rows = SparseMatrix::from_rows(5, vec![]);
        assert!(find_implications(&no_rows, &ImplicationConfig::new(0.5))
            .rules
            .is_empty());
    }

    #[test]
    fn all_ones_matrix_yields_all_pairs() {
        let m = SparseMatrix::from_rows(4, vec![vec![0, 1, 2, 3]; 3]);
        let out = find_implications(&m, &ImplicationConfig::new(1.0));
        assert_eq!(out.rules.len(), 6);
        assert!(out.rules.iter().all(|r| r.confidence() == 1.0));
    }
}

#[cfg(test)]
mod output_tests {
    use super::*;
    use dmc_matrix::SparseMatrix;

    #[test]
    fn top_and_lhs_queries() {
        // c0 ⊂ c2 (conf 1.0), c1 => c2 at 2/3.
        let m = SparseMatrix::from_rows(3, vec![vec![0, 1, 2], vec![1, 2], vec![0, 1, 2], vec![1]]);
        let out = find_implications(&m, &ImplicationConfig::new(0.6));
        let top = out.top_by_confidence(1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].confidence(), 1.0);
        let from_zero = out.for_lhs(0);
        assert!(from_zero.iter().all(|r| r.lhs == 0));
        assert!(!from_zero.is_empty());
        assert_eq!(out.top_by_confidence(100).len(), out.rules.len());
    }
}
