//! The out-of-core drivers are bit-identical to the in-memory drivers:
//! same rules, same order, same switch position and same scan counters,
//! for every reverse mode and switch policy. Both run the one staged
//! pipeline over the same bucketed sparsest-first row order.

use dmc_core::{
    find_implications, find_implications_streamed, find_similarities, find_similarities_streamed,
    ImplicationConfig, SimilarityConfig, SwitchPolicy,
};
use dmc_integration_tests::matrix_strategy;
use dmc_matrix::{ColumnId, SparseMatrix};
use proptest::prelude::*;
use std::convert::Infallible;

fn rows_of(m: &SparseMatrix) -> impl Iterator<Item = Result<Vec<ColumnId>, Infallible>> + '_ {
    (0..m.n_rows()).map(|r| Ok(m.row(r).to_vec()))
}

fn switch_policies() -> [SwitchPolicy; 3] {
    [
        SwitchPolicy::never(),
        SwitchPolicy::always_at(7),
        SwitchPolicy::paper(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn imp_streamed_parallel_matches_in_memory(
        m in matrix_strategy(24, 12),
        minconf in prop_oneof![Just(1.0), Just(0.9), Just(0.6), Just(0.34)],
        reverse in any::<bool>(),
        policy in 0usize..3,
    ) {
        let config = ImplicationConfig::new(minconf)
            .with_reverse(reverse)
            .with_switch(switch_policies()[policy]);
        let expected = find_implications(&m, &config);
        let out = find_implications_streamed(rows_of(&m), m.n_cols(), &config)
            .expect("streamed");
        prop_assert_eq!(out.rules, expected.rules);
        prop_assert_eq!(out.bitmap_switch_at, expected.bitmap_switch_at);
        prop_assert_eq!(out.report.counters, expected.report.counters);
    }

    #[test]
    fn sim_streamed_parallel_matches_in_memory(
        m in matrix_strategy(24, 12),
        minsim in prop_oneof![Just(1.0), Just(0.8), Just(0.5), Just(0.25)],
        policy in 0usize..3,
    ) {
        let config = SimilarityConfig::new(minsim)
            .with_switch(switch_policies()[policy]);
        let expected = find_similarities(&m, &config);
        let out = find_similarities_streamed(rows_of(&m), m.n_cols(), &config)
            .expect("streamed");
        prop_assert_eq!(out.rules, expected.rules);
        prop_assert_eq!(out.bitmap_switch_at, expected.bitmap_switch_at);
        prop_assert_eq!(out.report.counters, expected.report.counters);
    }
}
