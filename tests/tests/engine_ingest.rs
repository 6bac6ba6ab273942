//! Incremental-ingest fidelity: a long-lived [`Engine`] that mines a
//! base matrix and then ingests the remaining rows batch-by-batch must
//! end with *exactly* the rule set of a from-scratch mine over the full
//! dataset — byte-identical structs, not merely the same pairs. This is
//! the exactness guarantee of DESIGN.md §12: appends only grow `ones`
//! and `hits`, so re-deriving from bumped tracked counters plus exact
//! recounts of newly co-occurring pairs revives nothing and misses
//! nothing.

use dmc_baselines::oracle;
use dmc_core::{
    find_implications, Engine, ImplicationConfig, MineConfig, MineError, Miner, SparseMatrix,
};
use dmc_datagen::{planted_implications, PlantedConfig};
use dmc_integration_tests::{matrix_strategy, threshold_strategy};
use proptest::prelude::*;

/// Splits `m`'s rows at `base_len`, mines the base, then ingests the
/// tail in `batch`-row chunks; returns the engine after the last batch.
fn ingest_tail(config: MineConfig, m: &SparseMatrix, base_len: usize, batch: usize) -> Engine {
    let rows: Vec<Vec<u32>> = m.rows().map(<[u32]>::to_vec).collect();
    let base_len = base_len.min(rows.len());
    let base = SparseMatrix::from_rows(m.n_cols(), rows[..base_len].to_vec());
    let mut engine = Engine::new(config, base);
    engine.mine();
    for chunk in rows[base_len..].chunks(batch.max(1)) {
        engine.ingest(chunk).expect("planted ids are in range");
    }
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn imp_ingest_matches_from_scratch_mine(
        m in matrix_strategy(24, 14),
        minconf in threshold_strategy(),
        base_len in 0usize..=24,
        batch in 1usize..8,
    ) {
        let config = MineConfig::implications(minconf).unwrap();
        let engine = ingest_tail(config, &m, base_len, batch);
        let scratch = Miner::implications(minconf)
            .mine(&m)
            .expect("in-memory mines cannot fail");
        prop_assert_eq!(engine.implication_rules(), &scratch.rules[..]);
        // And both agree with the oracle, so the pair cannot be wrong
        // together.
        prop_assert_eq!(
            engine.implication_rules(),
            &oracle::exact_implications(&m, minconf, false)[..]
        );
    }

    #[test]
    fn sim_ingest_matches_from_scratch_mine(
        m in matrix_strategy(24, 14),
        minsim in threshold_strategy(),
        base_len in 0usize..=24,
        batch in 1usize..8,
    ) {
        let config = MineConfig::similarities(minsim).unwrap();
        let engine = ingest_tail(config, &m, base_len, batch);
        let scratch = Miner::similarities(minsim)
            .mine(&m)
            .expect("in-memory mines cannot fail");
        prop_assert_eq!(engine.similarity_rules(), &scratch.rules[..]);
        prop_assert_eq!(
            engine.similarity_rules(),
            &oracle::exact_similarities(&m, minsim)[..]
        );
    }

    #[test]
    fn imp_ingest_with_reverse_matches_from_scratch_mine(
        m in matrix_strategy(20, 10),
        minconf in threshold_strategy(),
        base_len in 0usize..=20,
        batch in 1usize..6,
    ) {
        let config: MineConfig =
            ImplicationConfig::new(minconf).with_reverse(true).into();
        let engine = ingest_tail(config, &m, base_len, batch);
        let scratch =
            find_implications(&m, &ImplicationConfig::new(minconf).with_reverse(true));
        prop_assert_eq!(engine.implication_rules(), &scratch.rules[..]);
        prop_assert_eq!(
            engine.implication_rules(),
            &oracle::exact_implications(&m, minconf, true)[..]
        );
    }

    #[test]
    fn ingest_auto_mines_an_unmined_engine(
        m in matrix_strategy(20, 12),
        minconf in threshold_strategy(),
        base_len in 0usize..=20,
    ) {
        let rows: Vec<Vec<u32>> = m.rows().map(<[u32]>::to_vec).collect();
        let base_len = base_len.min(rows.len());
        let base = SparseMatrix::from_rows(m.n_cols(), rows[..base_len].to_vec());
        // No explicit mine(): the first ingest must run it.
        let mut engine = Engine::new(MineConfig::implications(minconf).unwrap(), base);
        engine.ingest(&rows[base_len..]).expect("ids are in range");
        let scratch = Miner::implications(minconf)
            .mine(&m)
            .expect("in-memory mines cannot fail");
        prop_assert_eq!(engine.implication_rules(), &scratch.rules[..]);
    }

    #[test]
    fn query_agrees_with_the_rule_set_after_ingest(
        m in matrix_strategy(18, 10),
        minconf in threshold_strategy(),
        base_len in 0usize..=18,
    ) {
        let config = MineConfig::implications(minconf).unwrap();
        let engine = ingest_tail(config, &m, base_len, 3);
        // Every emitted rule must qualify under query; scan all pairs so
        // non-rules are checked for the converse too.
        let rules = engine.implication_rules().to_vec();
        for lhs in 0..m.n_cols() as u32 {
            for rhs in 0..m.n_cols() as u32 {
                if lhs == rhs {
                    continue;
                }
                let answer = engine.query(lhs, rhs).expect("ids in range");
                let emitted = rules.iter().any(|r| r.lhs == lhs && r.rhs == rhs);
                if emitted {
                    prop_assert!(
                        answer.qualifies,
                        "emitted rule {lhs}=>{rhs} must qualify under query"
                    );
                }
            }
        }
    }
}

/// The acceptance check on the planted generators: deterministic planted
/// datasets, several split points and batch sizes, byte-identical rule
/// vectors, and ingest stats that reconcile in the v5 run report.
#[test]
fn planted_datasets_are_ingest_exact_at_every_split() {
    for (rows, cols, pairs, seed) in [(600, 80, 8, 3u64), (1200, 120, 12, 7)] {
        let m = planted_implications(&PlantedConfig::new(rows, cols, pairs, seed)).matrix;
        let scratch = Miner::implications(0.9)
            .mine(&m)
            .expect("in-memory mines cannot fail");
        for (numer, denom) in [(0, 1), (1, 4), (1, 2), (3, 4), (99, 100)] {
            let base_len = rows * numer / denom;
            for batch in [1, 64, 512] {
                let engine =
                    ingest_tail(MineConfig::implications(0.9).unwrap(), &m, base_len, batch);
                assert_eq!(
                    engine.implication_rules(),
                    &scratch.rules[..],
                    "split {numer}/{denom}, batch {batch}"
                );
                let stats = engine.ingest_stats();
                assert_eq!(stats.rows_ingested, (rows - base_len) as u64);
                assert!(stats.rules_born <= stats.pairs_recounted);
                let report = engine.report_with_ingest().expect("engine has mined");
                assert!(report.reconciles(), "split {numer}/{denom} batch {batch}");
            }
        }
    }
}

/// An out-of-range column id fails the whole batch up front: no rows are
/// appended, no counters move, and the rule set is untouched.
#[test]
fn out_of_range_ingest_is_rejected_atomically() {
    let m = planted_implications(&PlantedConfig::new(200, 40, 4, 5)).matrix;
    let mut engine = Engine::new(MineConfig::implications(0.9).unwrap(), m.clone());
    engine.mine();
    let rules_before = engine.implication_rules().to_vec();
    let rows_before = engine.matrix().n_rows();
    let err = engine
        .ingest(&[vec![0, 1], vec![2, 40]])
        .expect_err("column 40 is out of range for 40 columns");
    assert!(
        matches!(err, MineError::ColumnOutOfRange { id: 40, .. }),
        "{err}"
    );
    assert_eq!(engine.matrix().n_rows(), rows_before);
    assert_eq!(engine.implication_rules(), &rules_before[..]);
    assert_eq!(engine.ingest_stats().batches, 0);
}
