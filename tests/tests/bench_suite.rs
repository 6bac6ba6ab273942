//! The benchmark suite as a correctness instrument: a real (tiny) suite
//! run must emit a valid `dmc.bench.v1` record whose counters reconcile,
//! and the comparator must pass a record against itself and fail a
//! synthetically slowed cell.

use dmc_bench::baseline::{self, BENCH_SCHEMA};
use dmc_bench::compare::{compare, Tolerance, Verdict};
use dmc_bench::datasets::Scale;
use dmc_bench::suite::{run_suite, BenchSuite, SuiteConfig};

/// The smallest honest suite: one scale, three repeats (so the
/// repeat-invariance cross-check actually fires).
fn tiny_config() -> SuiteConfig {
    let mut config = SuiteConfig::quick();
    config.name = "test".into();
    config.scales = vec![Scale::Small];
    config.warmup = 0;
    config.repeats = 3;
    config
}

fn run_tiny() -> BenchSuite {
    run_suite(&tiny_config(), |_| {})
}

#[test]
fn suite_run_emits_a_valid_reconciled_record() {
    let suite = run_tiny();
    assert_eq!(suite.schema, BENCH_SCHEMA);
    // 1 scale x 2 modes x 2 algorithms, plus the engine query/ingest,
    // shard mine/merge and compact base/expand cell pairs for the scale.
    assert_eq!(suite.cells.len(), 10);
    assert_eq!(suite.threads, vec![1, 4], "t1 mining cells, t4 shard cells");
    for cell in &suite.cells {
        assert_eq!(cell.seconds.len(), 3, "{}", cell.id);
        assert!(cell.median_seconds > 0.0, "{}", cell.id);
        assert!(cell.mad_seconds >= 0.0, "{}", cell.id);
        assert!(cell.rules > 0, "{}: planted rules must be found", cell.id);
        assert!(cell.rows_per_sec > 0.0, "{}", cell.id);
        let streamed = cell.mode == "stream";
        assert_eq!(
            cell.counters.spill_bytes > 0,
            streamed,
            "{}: spill bytes iff streamed",
            cell.id
        );
        assert_eq!(cell.spill_bytes_per_sec > 0.0, streamed, "{}", cell.id);
        let expected_id = format!(
            "{}/{}/t{}/{}",
            cell.algorithm, cell.mode, cell.threads, cell.scale
        );
        assert_eq!(cell.id, expected_id);
        if cell.algorithm == "engine" {
            // Engine cells repurpose rows_scanned as their unit of work
            // (queries answered / rows ingested); the miss-counting
            // identity below is a driver-scan property and does not
            // apply to them.
            assert_eq!(cell.threads, 1, "{}", cell.id);
            assert!(cell.counters.rows_scanned > 0, "{}", cell.id);
            continue;
        }
        if cell.algorithm == "compact" {
            // Compact cells count rules through the stage (in via
            // rows_scanned, out via rules_emitted), not row scans, so
            // the miss-counting identity does not apply.
            assert_eq!(cell.threads, 1, "{}", cell.id);
            assert!(cell.counters.rows_scanned > 0, "{}", cell.id);
            continue;
        }
        if cell.algorithm == "shard" {
            // Shard cells report the merged run: per-shard counters
            // summed, so rows_scanned is shards x dataset rows and the
            // identity holds on the sums too.
            assert_eq!(cell.threads, 4, "{}", cell.id);
            assert_eq!(
                cell.counters.candidates_admitted,
                cell.counters.candidates_deleted + cell.counters.rules_emitted,
                "{}",
                cell.id
            );
            continue;
        }
        // Mining cells run the one sequential pipeline.
        assert_eq!(cell.threads, 1, "{}", cell.id);
        // The miss-counting identity, straight from the recorded
        // fingerprint: every admitted candidate was deleted or emitted.
        assert_eq!(
            cell.counters.candidates_admitted,
            cell.counters.candidates_deleted + cell.counters.rules_emitted,
            "{}",
            cell.id
        );
    }
    // The engine pair reports its throughput units: queries answered and
    // rows ingested (a quarter of the dataset, per the 3:4 base split).
    let query = suite.cell("engine/query/t1/small").unwrap();
    assert_eq!(query.counters.rows_scanned, 20_000);
    let ingest = suite.cell("engine/ingest/t1/small").unwrap();
    assert_eq!(ingest.counters.rows_scanned, 1500);
    assert_eq!(
        ingest.rules,
        suite.cell("imp/mem/t1/small").unwrap().rules,
        "incremental ingest ends at the batch miner's rule set"
    );
    // The compact pair is a closed loop: the base cell's output count is
    // the expand cell's input count, and expansion ends back at the base
    // cell's input count (the identity run_suite asserts each repeat).
    let base = suite.cell("compact/base/t1/small").unwrap();
    let expand = suite.cell("compact/expand/t1/small").unwrap();
    assert!(base.counters.rules_emitted <= base.counters.rows_scanned);
    assert_eq!(expand.counters.rows_scanned, base.counters.rules_emitted);
    assert_eq!(expand.counters.rules_emitted, base.counters.rows_scanned);
    // In-memory and streamed mines run the same pipeline over the same
    // rows in the same (bucketed) order, so their work counters agree.
    for algorithm in ["imp", "sim"] {
        let mem = suite.cell(&format!("{algorithm}/mem/t1/small")).unwrap();
        let stream = suite.cell(&format!("{algorithm}/stream/t1/small")).unwrap();
        assert_eq!(
            mem.counters.work_counters(),
            stream.counters.work_counters()
        );
        assert_eq!(mem.rules, stream.rules);
    }
}

#[test]
fn suite_record_round_trips_and_self_compares_clean() {
    let suite = run_tiny();
    let text = baseline::to_json(&suite);
    let back = baseline::parse(&text).expect("emitted record parses");
    assert_eq!(back, suite);

    let cmp = compare(&suite, &back, Tolerance::default()).unwrap();
    assert!(cmp.passes());
    assert!(cmp.cells.iter().all(|c| c.verdict == Verdict::Unchanged));
    assert!(cmp.cells.iter().all(|c| !c.counters_diverged));
}

#[test]
fn synthetically_slowed_cell_trips_the_gate() {
    let baseline = run_tiny();
    let mut slowed = baseline.clone();
    {
        let cell = &mut slowed.cells[0];
        // Well past any plausible noise band: 10x the median plus a
        // fat absolute offset.
        cell.median_seconds = cell.median_seconds * 10.0 + 1.0;
        for s in &mut cell.seconds {
            *s = *s * 10.0 + 1.0;
        }
    }
    let cmp = compare(&baseline, &slowed, Tolerance::default()).unwrap();
    assert!(!cmp.passes());
    let regressions = cmp.regressions();
    assert_eq!(regressions.len(), 1);
    assert_eq!(regressions[0].id, baseline.cells[0].id);
    // Every other cell is untouched and stays unchanged.
    assert!(cmp.cells[1..]
        .iter()
        .all(|c| c.verdict == Verdict::Unchanged));
}
