//! The shared accessor surface of the two mining outputs.
//!
//! [`ImplicationOutput`](crate::ImplicationOutput) and
//! [`SimilarityOutput`](crate::SimilarityOutput) carry different rule
//! types but answer the same questions: which pairs qualified, which rules
//! scored highest, what happened during the run. [`MinedOutput`] is that
//! common surface, so generic tooling (the CLI, benches, tests) can handle
//! either output through one bound instead of mirroring
//! `top_by_confidence` / `top_by_similarity` and `for_lhs` / `involving`
//! pairs of near-identical methods.

use crate::imp::ImplicationOutput;
use crate::rules::{ImplicationRule, SimilarityRule};
use crate::sim::SimilarityOutput;
use dmc_matrix::ColumnId;
use dmc_metrics::RunReport;

/// Uniform read access to a mining run's results, implemented by both
/// output types. The score is confidence for implications and Jaccard
/// similarity for similarity pairs.
pub trait MinedOutput {
    /// The concrete rule type.
    type Rule;

    /// All qualifying rules in canonical sorted order.
    fn rules(&self) -> &[Self::Rule];

    /// The structured run report (same schema across all four drivers).
    fn report(&self) -> &RunReport;

    /// The rules' column pairs, in rule order.
    fn pairs(&self) -> Vec<(ColumnId, ColumnId)>;

    /// The `k` highest-scoring rules (ties by more hits, then canonical
    /// order).
    fn top(&self, k: usize) -> Vec<&Self::Rule>;

    /// All rules involving `col` on either side.
    fn involving(&self, col: ColumnId) -> Vec<&Self::Rule>;
}

impl MinedOutput for ImplicationOutput {
    type Rule = ImplicationRule;

    fn rules(&self) -> &[ImplicationRule] {
        &self.rules
    }

    fn report(&self) -> &RunReport {
        &self.report
    }

    fn pairs(&self) -> Vec<(ColumnId, ColumnId)> {
        ImplicationOutput::pairs(self)
    }

    fn top(&self, k: usize) -> Vec<&ImplicationRule> {
        let mut refs: Vec<&ImplicationRule> = self.rules.iter().collect();
        refs.sort_by(|a, b| {
            b.confidence()
                .partial_cmp(&a.confidence())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.hits.cmp(&a.hits))
                .then(a.cmp(b))
        });
        refs.truncate(k);
        refs
    }

    fn involving(&self, col: ColumnId) -> Vec<&ImplicationRule> {
        self.rules
            .iter()
            .filter(|r| r.lhs == col || r.rhs == col)
            .collect()
    }
}

impl MinedOutput for SimilarityOutput {
    type Rule = SimilarityRule;

    fn rules(&self) -> &[SimilarityRule] {
        &self.rules
    }

    fn report(&self) -> &RunReport {
        &self.report
    }

    fn pairs(&self) -> Vec<(ColumnId, ColumnId)> {
        SimilarityOutput::pairs(self)
    }

    fn top(&self, k: usize) -> Vec<&SimilarityRule> {
        let mut refs: Vec<&SimilarityRule> = self.rules.iter().collect();
        refs.sort_by(|a, b| {
            b.similarity()
                .partial_cmp(&a.similarity())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.hits.cmp(&a.hits))
                .then(a.cmp(b))
        });
        refs.truncate(k);
        refs
    }

    fn involving(&self, col: ColumnId) -> Vec<&SimilarityRule> {
        self.rules
            .iter()
            .filter(|r| r.a == col || r.b == col)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        find_implications, find_similarities, ImplicationConfig, SimilarityConfig, SparseMatrix,
    };

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

    /// A generic consumer compiles against the trait once for both outputs.
    fn summarize<O: MinedOutput>(out: &O) -> (usize, usize, u64) {
        (
            out.rules().len(),
            out.top(2).len(),
            out.report().counters.rows_scanned,
        )
    }

    #[test]
    fn trait_surface_matches_inherent_methods() {
        let m = fig2();
        let imp = find_implications(&m, &ImplicationConfig::new(0.8));
        let sim = find_similarities(&m, &SimilarityConfig::new(0.4));

        assert_eq!(MinedOutput::pairs(&imp), imp.pairs());
        assert_eq!(MinedOutput::pairs(&sim), sim.pairs());
        assert_eq!(imp.top(3), imp.top_by_confidence(3));
        assert_eq!(sim.top(3), sim.top_by_similarity(3));
        assert_eq!(MinedOutput::involving(&sim, 4), sim.involving(4));

        let (imp_rules, imp_top, imp_rows) = summarize(&imp);
        assert_eq!(imp_rules, imp.rules.len());
        assert!(imp_top <= 2);
        assert!(imp_rows > 0, "report is populated through the trait");
        let (sim_rules, ..) = summarize(&sim);
        assert_eq!(sim_rules, sim.rules.len());
    }

    #[test]
    fn implication_involving_covers_both_sides() {
        let m = fig2();
        let imp = find_implications(&m, &ImplicationConfig::new(0.8));
        assert_eq!(imp.pairs(), vec![(0, 1), (2, 4)]);
        // Column 1 appears only as an RHS; `involving` still finds it.
        assert_eq!(MinedOutput::involving(&imp, 1).len(), 1);
        assert!(imp.for_lhs(1).is_empty());
    }
}
