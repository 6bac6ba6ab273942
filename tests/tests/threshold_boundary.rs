//! Boundary behavior of the shared threshold predicates and the drivers
//! built on them: `minconf = 1.0` (zero miss budget) and single-one
//! columns, where off-by-ones are easiest to introduce.

use dmc_core::threshold::{
    conf_qualifies, max_misses_conf, max_misses_sim, min_hits_conf, min_hits_sim, sim_qualifies,
};
use dmc_core::{
    find_implications, find_implications_streamed, find_similarities, find_similarities_streamed,
    ImplicationConfig, SimilarityConfig,
};
use dmc_matrix::SparseMatrix;

#[test]
fn min_hits_conf_at_full_confidence_requires_every_row() {
    for ones in [1u64, 2, 3, 10, 100, 1_000_000] {
        assert_eq!(min_hits_conf(ones, 1.0), ones, "ones={ones}");
        assert_eq!(max_misses_conf(ones, 1.0), 0, "ones={ones}");
        assert!(conf_qualifies(ones, ones, 1.0));
        assert!(!conf_qualifies(ones - 1, ones, 1.0), "ones={ones}");
    }
    // Degenerate column: no 1s, nothing to hit.
    assert_eq!(min_hits_conf(0, 1.0), 0);
}

#[test]
fn min_hits_conf_single_one_column_is_all_or_nothing() {
    // A column with a single 1 either hits its partner in that row
    // (confidence 1) or misses (confidence 0): every positive minconf
    // needs the one hit.
    for minconf in [0.05, 0.34, 0.5, 0.9, 0.99, 1.0] {
        assert_eq!(min_hits_conf(1, minconf), 1, "minconf={minconf}");
        assert_eq!(max_misses_conf(1, minconf), 0, "minconf={minconf}");
    }
}

#[test]
fn min_hits_sim_at_full_similarity_requires_identical_columns() {
    for ones in [1u64, 2, 5, 100] {
        assert_eq!(min_hits_sim(ones, ones, 1.0), Some(ones), "ones={ones}");
        assert_eq!(max_misses_sim(ones, ones, 1.0), Some(0));
        // Different sizes can never be identical: pruned outright.
        assert_eq!(min_hits_sim(ones, ones + 1, 1.0), None, "ones={ones}");
    }
    assert!(sim_qualifies(3, 3, 3, 1.0));
    assert!(!sim_qualifies(2, 3, 3, 1.0));
}

#[test]
fn min_hits_sim_single_one_columns() {
    // Two single-one columns: Jaccard is 1 when they share the row,
    // 0 otherwise — any positive threshold needs the shared row.
    for minsim in [0.05, 0.5, 0.99, 1.0] {
        assert_eq!(min_hits_sim(1, 1, minsim), Some(1), "minsim={minsim}");
    }
    // A single-one column against a large one: best case 1/(big), so the
    // pair is density-pruned once minsim exceeds that.
    assert_eq!(min_hits_sim(1, 10, 0.5), None);
    assert_eq!(min_hits_sim(1, 10, 0.1), Some(1));
}

/// Drivers at minconf = 1.0 on data with single-one columns: column 2
/// has one 1 co-occurring with column 0; column 3 has one 1 alone.
#[test]
fn drivers_handle_single_one_columns_at_full_thresholds() {
    let m = SparseMatrix::from_rows(
        4,
        vec![vec![0, 1, 2], vec![0, 1], vec![0, 1], vec![3], vec![0, 1]],
    );
    let out = find_implications(&m, &ImplicationConfig::new(1.0));
    let text: Vec<String> = out.rules.iter().map(ToString::to_string).collect();
    // Each qualifying pair appears once, sparser column as LHS (the
    // reverse direction is opt-in via `with_reverse`).
    assert_eq!(
        text,
        vec![
            "c0 => c1 (conf 4/4 = 1.000)",
            "c2 => c0 (conf 1/1 = 1.000)",
            "c2 => c1 (conf 1/1 = 1.000)",
        ]
    );
    let rows = || {
        m.rows()
            .map(|r| Ok::<_, std::convert::Infallible>(r.to_vec()))
    };
    let streamed = find_implications_streamed(rows(), 4, &ImplicationConfig::new(1.0)).unwrap();
    assert_eq!(streamed.rules, out.rules);

    let sim = find_similarities(&m, &SimilarityConfig::new(1.0));
    let sim_text: Vec<String> = sim.rules.iter().map(ToString::to_string).collect();
    assert_eq!(sim_text, vec!["c0 ~ c1 (sim 4/4 = 1.000)"]);
    let streamed = find_similarities_streamed(rows(), 4, &SimilarityConfig::new(1.0)).unwrap();
    assert_eq!(streamed.rules, sim.rules);
}
