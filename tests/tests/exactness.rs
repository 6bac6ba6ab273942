//! The central correctness property: every DMC configuration produces
//! exactly the oracle's rule set — no false positives, no false negatives,
//! for implication and similarity alike.

use dmc_baselines::oracle;
use dmc_core::{
    find_implications, find_similarities, ImplicationConfig, RowOrder, SimilarityConfig,
    SwitchPolicy,
};
use dmc_integration_tests::{matrix_strategy, random_matrix, threshold_strategy};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn imp_matches_oracle(m in matrix_strategy(24, 14), minconf in threshold_strategy()) {
        let out = find_implications(&m, &ImplicationConfig::new(minconf));
        let exact = oracle::exact_implications(&m, minconf, false);
        prop_assert_eq!(out.rules, exact);
    }

    #[test]
    fn imp_matches_oracle_with_reverse(
        m in matrix_strategy(20, 10),
        minconf in threshold_strategy(),
    ) {
        let out = find_implications(&m, &ImplicationConfig::new(minconf).with_reverse(true));
        let exact = oracle::exact_implications(&m, minconf, true);
        prop_assert_eq!(out.rules, exact);
    }

    #[test]
    fn sim_matches_oracle(m in matrix_strategy(24, 14), minsim in threshold_strategy()) {
        let out = find_similarities(&m, &SimilarityConfig::new(minsim));
        let exact = oracle::exact_similarities(&m, minsim);
        prop_assert_eq!(out.rules, exact);
    }

    #[test]
    fn imp_invariant_under_row_order(
        m in matrix_strategy(20, 12),
        minconf in threshold_strategy(),
    ) {
        let base = find_implications(&m, &ImplicationConfig::new(minconf));
        for order in [RowOrder::Original, RowOrder::ExactSparsestFirst] {
            let out = find_implications(
                &m,
                &ImplicationConfig::new(minconf).with_row_order(order),
            );
            prop_assert_eq!(&out.rules, &base.rules);
        }
    }

    #[test]
    fn imp_invariant_under_forced_switch(
        m in matrix_strategy(20, 12),
        minconf in threshold_strategy(),
        tail in 1usize..24,
    ) {
        let base = find_implications(&m, &ImplicationConfig::new(minconf));
        let forced = find_implications(
            &m,
            &ImplicationConfig::new(minconf).with_switch(SwitchPolicy::always_at(tail)),
        );
        prop_assert_eq!(forced.rules, base.rules);
    }

    #[test]
    fn sim_invariant_under_forced_switch(
        m in matrix_strategy(20, 12),
        minsim in threshold_strategy(),
        tail in 1usize..24,
    ) {
        let base = find_similarities(&m, &SimilarityConfig::new(minsim));
        let forced = find_similarities(
            &m,
            &SimilarityConfig::new(minsim).with_switch(SwitchPolicy::always_at(tail)),
        );
        prop_assert_eq!(forced.rules, base.rules);
    }

    #[test]
    fn imp_invariant_under_stage_and_release_toggles(
        m in matrix_strategy(20, 12),
        minconf in threshold_strategy(),
    ) {
        let base = find_implications(&m, &ImplicationConfig::new(minconf));
        let mut cfg = ImplicationConfig::new(minconf).with_hundred_stage(false);
        cfg.release_completed = false;
        let toggled = find_implications(&m, &cfg);
        prop_assert_eq!(toggled.rules, base.rules);
    }

    #[test]
    fn sim_invariant_under_pruning_toggles(
        m in matrix_strategy(20, 12),
        minsim in threshold_strategy(),
    ) {
        let base = find_similarities(&m, &SimilarityConfig::new(minsim));
        let toggled = find_similarities(
            &m,
            &SimilarityConfig::new(minsim)
                .with_max_hits_pruning(false)
                .with_hundred_stage(false),
        );
        prop_assert_eq!(toggled.rules, base.rules);
    }

    #[test]
    fn rule_counts_are_internally_consistent(
        m in matrix_strategy(24, 14),
        minconf in threshold_strategy(),
    ) {
        let ones = m.column_ones();
        for rule in &find_implications(&m, &ImplicationConfig::new(minconf)).rules {
            prop_assert_eq!(rule.lhs_ones, ones[rule.lhs as usize]);
            prop_assert_eq!(rule.rhs_ones, ones[rule.rhs as usize]);
            prop_assert!(rule.hits <= rule.lhs_ones.min(rule.rhs_ones));
            prop_assert!(rule.confidence() >= minconf - 1e-6);
            // Canonical direction only.
            prop_assert!(
                rule.lhs_ones < rule.rhs_ones
                    || (rule.lhs_ones == rule.rhs_ones && rule.lhs < rule.rhs)
            );
        }
    }
}

/// Larger deterministic cross-checks at a few densities and thresholds
/// (bigger than the proptest sizes, run once each).
#[test]
fn medium_random_matrices_match_oracle() {
    for (density, seed) in [(0.05, 1u64), (0.15, 2), (0.35, 3)] {
        let m = random_matrix(300, 60, density, seed);
        for &thr in &[1.0, 0.9, 0.75, 0.5] {
            let imp = find_implications(&m, &ImplicationConfig::new(thr));
            assert_eq!(
                imp.rules,
                oracle::exact_implications(&m, thr, false),
                "imp density={density} thr={thr}"
            );
            let sim = find_similarities(&m, &SimilarityConfig::new(thr));
            assert_eq!(
                sim.rules,
                oracle::exact_similarities(&m, thr),
                "sim density={density} thr={thr}"
            );
        }
    }
}

/// The paper-style pipeline on a skewed matrix: crawlers + near-duplicate
/// columns + empty rows, forced through the bitmap switch.
#[test]
fn skewed_matrix_with_forced_switch_matches_oracle() {
    let mut rows: Vec<Vec<u32>> = Vec::new();
    // Ordinary sparse rows.
    for i in 0..120u32 {
        rows.push(vec![i % 7, 7 + (i % 5)]);
    }
    // Duplicate column pair (20, 21) and near-duplicate (22, 23).
    for i in 0..40u32 {
        rows.push(vec![20, 21, i % 3]);
        if i % 2 == 0 {
            rows.push(vec![22, 23]);
        } else {
            rows.push(vec![22]);
        }
    }
    rows.push(vec![]);
    // Two crawler rows covering everything.
    rows.push((0..24).collect());
    rows.push((0..24).collect());
    let m = dmc_core::SparseMatrix::from_rows(24, rows);

    for &thr in &[1.0, 0.9, 0.8, 0.6] {
        let cfg = ImplicationConfig::new(thr).with_switch(SwitchPolicy::always_at(8));
        assert_eq!(
            find_implications(&m, &cfg).rules,
            oracle::exact_implications(&m, thr, false),
            "imp thr={thr}"
        );
        let scfg = SimilarityConfig::new(thr).with_switch(SwitchPolicy::always_at(8));
        assert_eq!(
            find_similarities(&m, &scfg).rules,
            oracle::exact_similarities(&m, thr),
            "sim thr={thr}"
        );
    }
}

mod streamed {
    use super::*;
    use dmc_core::{find_implications_streamed, find_similarities_streamed};
    use std::convert::Infallible;

    fn rows_of(m: &dmc_core::SparseMatrix) -> Vec<Result<Vec<u32>, Infallible>> {
        m.rows().map(|r| Ok(r.to_vec())).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn streamed_imp_matches_oracle(
            m in matrix_strategy(20, 12),
            minconf in threshold_strategy(),
        ) {
            let streamed = find_implications_streamed(
                rows_of(&m),
                m.n_cols(),
                &ImplicationConfig::new(minconf),
            )
            .unwrap();
            prop_assert_eq!(
                streamed.rules,
                oracle::exact_implications(&m, minconf, false)
            );
        }

        #[test]
        fn streamed_sim_matches_oracle(
            m in matrix_strategy(20, 12),
            minsim in threshold_strategy(),
        ) {
            let streamed = find_similarities_streamed(
                rows_of(&m),
                m.n_cols(),
                &SimilarityConfig::new(minsim),
            )
            .unwrap();
            prop_assert_eq!(streamed.rules, oracle::exact_similarities(&m, minsim));
        }

        #[test]
        fn streamed_with_forced_switch_matches_oracle(
            m in matrix_strategy(20, 12),
            minconf in threshold_strategy(),
            tail in 1usize..24,
        ) {
            let cfg = ImplicationConfig::new(minconf)
                .with_switch(SwitchPolicy::always_at(tail));
            let streamed =
                find_implications_streamed(rows_of(&m), m.n_cols(), &cfg).unwrap();
            prop_assert_eq!(
                streamed.rules,
                oracle::exact_implications(&m, minconf, false)
            );
        }
    }
}
