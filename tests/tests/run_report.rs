//! The run-report observability layer: schema stability across all four
//! drivers, JSON well-formedness, and the counter reconciliation
//! invariants on random inputs.

use dmc_core::{ImplicationConfig, MinedOutput, Miner, RunReport, SimilarityConfig, SparseMatrix};
use dmc_integration_tests::{matrix_strategy, threshold_strategy};
use dmc_metrics::json::JsonValue;
use proptest::prelude::*;
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

fn rows_of(m: &SparseMatrix) -> Vec<Result<Vec<u32>, Infallible>> {
    m.rows().map(|r| Ok(r.to_vec())).collect()
}

/// Every report from every driver for `m`, labeled.
fn all_reports(m: &SparseMatrix, threshold: f64) -> Vec<(String, RunReport)> {
    let imp = Miner::implications(threshold)
        .mine(m)
        .expect("in-memory mines cannot fail");
    let imp_s = Miner::implications(threshold)
        .mine_streamed(rows_of(m), m.n_cols())
        .unwrap();
    let sim = Miner::similarities(threshold)
        .mine(m)
        .expect("in-memory mines cannot fail");
    let sim_s = Miner::similarities(threshold)
        .mine_streamed(rows_of(m), m.n_cols())
        .unwrap();
    vec![
        ("imp mem".into(), imp.report),
        ("imp stream".into(), imp_s.report),
        ("sim mem".into(), sim.report),
        ("sim stream".into(), sim_s.report),
    ]
}

/// The golden top-level key set of `dmc.run_report.v8`, in serialization
/// order. A failure here means the schema changed: bump the version.
const GOLDEN_KEYS: &[&str] = &[
    "schema",
    "algorithm",
    "mode",
    "threads",
    "rows",
    "cols",
    "threshold",
    "rules",
    "counters",
    "hundred_stage",
    "sub_stage",
    "reverse_rules",
    "phases",
    "wall_seconds",
    "peak_candidates",
    "peak_counter_bytes",
    "bitmap_switch_at",
    "spill_bytes",
    "io",
    "workers",
    "serve",
    "ingest",
    "shard",
    "compaction",
    "telemetry",
];

const GOLDEN_IO_KEYS: &[&str] = &[
    "frames_written",
    "frames_read",
    "replays",
    "write_retries",
    "read_retries",
    "corrupt_frames",
];

const GOLDEN_COUNTER_KEYS: &[&str] = &[
    "rows_scanned",
    "candidates_admitted",
    "candidates_deleted",
    "misses_counted",
    "rules_emitted",
];

#[test]
fn all_four_drivers_emit_the_same_schema() {
    let m = fig2();
    for (label, report) in all_reports(&m, 0.8) {
        let json = JsonValue::parse(&report.to_json())
            .unwrap_or_else(|e| panic!("{label}: invalid JSON: {e}"));
        assert_eq!(json.keys(), GOLDEN_KEYS, "{label}: top-level keys");
        assert_eq!(
            json.get("schema").and_then(JsonValue::as_str),
            Some(dmc_core::RUN_REPORT_SCHEMA),
            "{label}"
        );
        assert_eq!(
            json.get("counters").unwrap().keys(),
            GOLDEN_COUNTER_KEYS,
            "{label}: counter keys"
        );
        // Both stages ran at 0.8 with the hundred stage on.
        for stage in ["hundred_stage", "sub_stage"] {
            let s = json.get(stage).unwrap();
            assert_eq!(
                s.get("counters").unwrap().keys(),
                GOLDEN_COUNTER_KEYS,
                "{label}: {stage} counter keys"
            );
        }
        // Streamed runs carry the spill-io counter section; in-memory
        // runs serialize it as null.
        let io = json.get("io").unwrap();
        if label.contains("stream") {
            assert_eq!(io.keys(), GOLDEN_IO_KEYS, "{label}: io keys");
        } else {
            assert!(matches!(io, JsonValue::Null), "{label}: io must be null");
        }
        // The driver's own end-to-end wall clock covers at least the
        // named phases (the bench suite reads it instead of re-timing).
        let wall = json
            .get("wall_seconds")
            .and_then(JsonValue::as_f64)
            .expect("wall_seconds is a number");
        assert!(
            wall + 1e-6 >= report.phase_total_seconds(),
            "{label}: wall {wall} < phase sum {}",
            report.phase_total_seconds()
        );
        assert!(report.reconciles(), "{label}: reconciliation");
        // Every driver is sequential.
        assert_eq!(report.threads, 0, "{label}");
        assert!(report.workers.is_empty(), "{label}");
    }
}

#[test]
fn golden_report_values_fig2() {
    let m = fig2();
    let out = Miner::implications(0.8)
        .mine(&m)
        .expect("in-memory mines cannot fail");
    let json = JsonValue::parse(&out.report.to_json()).unwrap();
    let u = |k: &str| json.get(k).and_then(JsonValue::as_u64).unwrap();
    assert_eq!(
        json.get("algorithm").and_then(JsonValue::as_str),
        Some("implication")
    );
    assert_eq!(
        json.get("mode").and_then(JsonValue::as_str),
        Some("in-memory")
    );
    assert_eq!(u("rows"), 9);
    assert_eq!(u("cols"), 6);
    assert_eq!(u("rules"), 2);
    assert_eq!(json.get("threshold").and_then(JsonValue::as_f64), Some(0.8));
    let counters = json.get("counters").unwrap();
    let c = |k: &str| counters.get(k).and_then(JsonValue::as_u64).unwrap();
    assert_eq!(
        c("candidates_admitted"),
        c("candidates_deleted") + c("rules_emitted")
    );
    assert!(c("rows_scanned") >= 9, "both stages scan all rows");
    // Sequential in-memory run: no workers, no spill.
    assert_eq!(u("spill_bytes"), 0);
    assert_eq!(
        json.get("workers")
            .and_then(JsonValue::as_array)
            .unwrap()
            .len(),
        0
    );
}

#[test]
fn streamed_reports_carry_spill_bytes() {
    let m = fig2();
    // Encoded spill size: 12-byte frame header (len, ~len guard, crc32)
    // per row + 4 bytes per id.
    let expected = (12 * m.n_rows() + 4 * m.nnz()) as u64;
    let out = Miner::implications(0.8)
        .mine_streamed(rows_of(&m), m.n_cols())
        .unwrap();
    assert_eq!(out.report.spill_bytes, expected);
    assert_eq!(out.report.mode, "streamed");
    // The io section mirrors what the run actually did: one frame per
    // row written, every frame read back once per replay, and no
    // corruption on a healthy filesystem.
    let io = out.report.io.expect("streamed runs report io counters");
    assert_eq!(io.frames_written, m.n_rows() as u64);
    assert!(io.replays >= 1);
    assert_eq!(io.frames_read, io.frames_written * io.replays);
    assert_eq!(io.corrupt_frames, 0);
    assert_eq!(io.write_retries + io.read_retries, 0);
}

#[test]
fn report_accessible_through_the_output_trait() {
    let m = fig2();
    let imp = Miner::implications(0.8)
        .mine(&m)
        .expect("in-memory mines cannot fail");
    let sim = Miner::similarities(0.4)
        .mine(&m)
        .expect("in-memory mines cannot fail");
    assert_eq!(MinedOutput::report(&imp).algorithm, "implication");
    assert_eq!(MinedOutput::report(&sim).algorithm, "similarity");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Counters reconcile and the switch position stays in range on random
    /// matrices, across every driver, at boundary-heavy thresholds.
    #[test]
    fn reports_reconcile_on_random_matrices(
        m in matrix_strategy(24, 10),
        threshold in threshold_strategy(),
    ) {
        for (label, report) in all_reports(&m, threshold) {
            prop_assert!(report.reconciles(), "{}: {:?}", label, report);
            if let Some(at) = report.bitmap_switch_at {
                prop_assert!(at <= m.n_rows(), "{label}: switch at {at}");
            }
            prop_assert_eq!(report.rows, m.n_rows());
            prop_assert_eq!(report.cols, m.n_cols());
            let json = report.to_json();
            let parsed = JsonValue::parse(&json);
            prop_assert!(parsed.is_ok(), "{}: {:?}", label, parsed.err());
        }
    }

    /// The forced bitmap switch records a position never past the row
    /// count, and the rules stay identical to the unswitched run.
    #[test]
    fn forced_switch_positions_stay_in_range(
        m in matrix_strategy(20, 8),
        at in 0usize..12,
    ) {
        let cfg = ImplicationConfig::new(0.8)
            .with_switch(dmc_core::SwitchPolicy::always_at(at));
        let out = dmc_core::find_implications(&m, &cfg);
        if let Some(pos) = out.report.bitmap_switch_at {
            prop_assert!(pos <= m.n_rows());
        }
        prop_assert!(out.report.reconciles());
        let plain = dmc_core::find_implications(
            &m,
            &ImplicationConfig::new(0.8).with_switch(dmc_core::SwitchPolicy::never()),
        );
        prop_assert_eq!(out.rules, plain.rules);

        let sim = dmc_core::find_similarities(
            &m,
            &SimilarityConfig::new(0.75).with_switch(dmc_core::SwitchPolicy::always_at(at)),
        );
        prop_assert!(sim.report.reconciles());
    }
}
