//! The out-of-core drivers must never leave spill files behind — not on
//! success, and not when the run aborts mid-stream with an error.
//!
//! Spill files carry a `dmc-spill-<pid>-` prefix, so this process can
//! check for its own leftovers without racing concurrent test runs.
//! Kept as a single `#[test]` so the success and error paths cannot
//! interleave with each other inside this binary.

use dmc_core::{
    find_implications_streamed, find_similarities_streamed, ImplicationConfig, SimilarityConfig,
    StreamError,
};
use dmc_matrix::ColumnId;
use std::convert::Infallible;

fn my_spill_files() -> Vec<String> {
    let dir = std::env::temp_dir().join("dmc-spill");
    let prefix = format!("dmc-spill-{}-", std::process::id());
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with(&prefix))
        .collect()
}

fn good_rows() -> Vec<Result<Vec<ColumnId>, Infallible>> {
    (0..200).map(|r| Ok(vec![r % 5, 5 + r % 3])).collect()
}

#[test]
fn streamed_drivers_leave_no_spill_files() {
    assert_eq!(
        my_spill_files(),
        Vec::<String>::new(),
        "pre-existing spill files for this pid"
    );

    // Success paths: implication and similarity.
    find_implications_streamed(good_rows(), 8, &ImplicationConfig::new(0.8)).unwrap();
    assert_eq!(my_spill_files(), Vec::<String>::new(), "after imp");

    find_similarities_streamed(good_rows(), 8, &SimilarityConfig::new(0.5)).unwrap();
    assert_eq!(my_spill_files(), Vec::<String>::new(), "after sim");

    // Error path: a row references a column out of range after enough
    // valid rows that spill files exist when the error hits.
    let bad: Vec<Result<Vec<ColumnId>, Infallible>> = (0..100)
        .map(|r| {
            Ok(if r == 90 {
                vec![99]
            } else {
                vec![r % 4, 4 + r % 4]
            })
        })
        .collect();
    let err = find_implications_streamed(bad, 8, &ImplicationConfig::new(0.9)).unwrap_err();
    assert!(matches!(
        err,
        StreamError::ColumnOutOfRange { row: 90, id: 99 }
    ));
    assert_eq!(my_spill_files(), Vec::<String>::new(), "after error");
}
