//! The column-unit executor (`Miner::implications(..).threads(n)` with
//! `n > 1`) mines the same rules as the sequential pipeline and as the
//! brute-force oracle, byte for byte, for every worker count, reverse
//! mode, exact-stage toggle and switch policy. Its report reconciles, and
//! under `SwitchPolicy::never()` its workers' event counts sum to the
//! sequential run's.
//!
//! Worker counts are capped at the host's cores, so a request above them
//! runs on as many workers as there are cores.

use dmc_baselines::oracle;
use dmc_core::{
    write_rules, ImplicationOutput, ImplicationRule, Miner, SparseMatrix, SwitchPolicy,
};
use dmc_datagen::{planted_implications, weblog, PlantedConfig, WeblogConfig};
use dmc_integration_tests::matrix_strategy;
use proptest::prelude::*;

const THREADS: [usize; 4] = [2, 3, 4, 8];

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn policies() -> [SwitchPolicy; 3] {
    [
        SwitchPolicy::paper(),
        SwitchPolicy::never(),
        SwitchPolicy::always_at(3),
    ]
}

fn bytes(rules: &[ImplicationRule]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_rules(rules, &[], &mut buf).expect("writing to a Vec cannot fail");
    buf
}

fn mine(
    m: &SparseMatrix,
    minconf: f64,
    reverse: bool,
    hundred: bool,
    switch: SwitchPolicy,
    threads: usize,
) -> ImplicationOutput {
    Miner::implications(minconf)
        .reverse(reverse)
        .hundred_stage(hundred)
        .switch(switch)
        .threads(threads)
        .mine(m)
        .expect("in-memory mines are infallible")
}

/// Checks every worker count against the sequential mine and the oracle;
/// returns a description of the first difference.
fn check(
    m: &SparseMatrix,
    minconf: f64,
    reverse: bool,
    hundred: bool,
    switch: SwitchPolicy,
) -> Result<(), String> {
    let want = bytes(&oracle::exact_implications(m, minconf, reverse));
    let seq = mine(m, minconf, reverse, hundred, switch, 1);
    if bytes(&seq.rules) != want {
        return Err("threads(1) differs from the oracle".into());
    }
    for threads in THREADS {
        let out = mine(m, minconf, reverse, hundred, switch, threads);
        let what = format!(
            "threads({threads}) minconf {minconf} reverse {reverse} hundred {hundred} {switch:?}"
        );
        if bytes(&out.rules) != want {
            return Err(format!("{what}: rules differ from the oracle"));
        }
        if !out.report.reconciles() {
            return Err(format!("{what}: report does not reconcile"));
        }
        if out.report.threads != out.report.workers.len() || out.report.threads > cores() {
            return Err(format!(
                "{what}: {} threads, {} workers",
                out.report.threads,
                out.report.workers.len()
            ));
        }
        if !out.report.workers.is_empty() && out.bitmap_switch_at.is_some() {
            return Err(format!("{what}: the column-unit executor switched"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn column_units_match_sequential_and_oracle(
        m in matrix_strategy(40, 14),
        minconf in prop_oneof![Just(1.0), Just(0.9), Just(0.75), Just(0.5), Just(0.3)],
        reverse in any::<bool>(),
        hundred in any::<bool>(),
        policy in 0usize..3,
    ) {
        let result = check(&m, minconf, reverse, hundred, policies()[policy]);
        prop_assert!(result.is_ok(), "{}", result.unwrap_err());
    }
}

#[test]
fn planted_and_weblog_matrices_match_for_every_configuration() {
    let planted = planted_implications(&PlantedConfig::new(3000, 60, 10, 7)).matrix;
    let mut cfg = WeblogConfig::new(3000, 250, 11);
    cfg.hub_chains = 6;
    let web = weblog(&cfg);
    for m in [&planted, &web] {
        for minconf in [0.95, 0.9, 0.7] {
            for reverse in [false, true] {
                for hundred in [true, false] {
                    for switch in policies() {
                        check(m, minconf, reverse, hundred, switch).unwrap();
                    }
                }
            }
        }
    }
}

#[test]
fn worker_tallies_sum_to_the_sequential_run() {
    let m = planted_implications(&PlantedConfig::new(4000, 80, 12, 3)).matrix;
    for hundred in [true, false] {
        let seq = mine(&m, 0.8, false, hundred, SwitchPolicy::never(), 1);
        for threads in THREADS {
            let out = mine(&m, 0.8, false, hundred, SwitchPolicy::never(), threads);
            assert!(out.report.reconciles());
            if cores() < 2 {
                assert!(out.report.workers.is_empty(), "one core mines sequentially");
                continue;
            }
            assert_eq!(out.report.workers.len(), threads.min(cores()));
            let mut sum = dmc_core::ScanTally::new();
            for w in &out.report.workers {
                sum.merge(&w.tally);
            }
            let t1 = seq.report.counters;
            assert_eq!(sum.candidates_admitted, t1.candidates_admitted);
            assert_eq!(sum.candidates_deleted, t1.candidates_deleted);
            assert_eq!(sum.misses_counted, t1.misses_counted);
            assert_eq!(sum.rules_emitted, t1.rules_emitted);
            assert_eq!(out.report.counters, t1, "hundred {hundred}");
            let claimed: u64 = out.report.workers.iter().map(|w| w.blocks_processed).sum();
            let units = m.column_ones().iter().filter(|&&o| o > 0).count() as u64;
            assert!(
                claimed <= units && claimed > 0,
                "{claimed} of {units} columns"
            );
        }
    }
}

#[test]
fn edge_cases_mine_like_the_oracle() {
    let cases = [
        // No rows at all.
        SparseMatrix::from_rows(5, vec![]),
        // Empty columns (1 and 4 never occur) beside busy ones.
        SparseMatrix::from_rows(
            5,
            vec![
                vec![0, 2],
                vec![0, 2, 3],
                vec![0, 3],
                vec![2, 3],
                vec![0, 2],
            ],
        ),
        // Fewer columns than workers.
        SparseMatrix::from_rows(2, vec![vec![0, 1], vec![0], vec![0, 1], vec![1]]),
        // One column.
        SparseMatrix::from_rows(1, vec![vec![0], vec![], vec![0]]),
    ];
    for m in &cases {
        for minconf in [1.0, 0.9, 0.5] {
            for reverse in [false, true] {
                for hundred in [true, false] {
                    for switch in policies() {
                        check(m, minconf, reverse, hundred, switch).unwrap();
                    }
                }
            }
        }
    }
}

#[test]
fn full_confidence_and_single_columns_mine_sequentially() {
    // At minconf 1.0 the sub-100% stage does not run, so there is no
    // column to hand out and the mine is the sequential one.
    let m = planted_implications(&PlantedConfig::new(500, 20, 4, 5)).matrix;
    let out = mine(&m, 1.0, true, true, SwitchPolicy::paper(), 4);
    assert_eq!(out.report.threads, 0);
    assert!(out.report.workers.is_empty());
    let seq = mine(&m, 1.0, true, true, SwitchPolicy::paper(), 1);
    assert_eq!(out.report.counters, seq.report.counters);
    assert_eq!(bytes(&out.rules), bytes(&seq.rules));

    // One column with ones: one unit, so one worker, so sequential.
    let m = SparseMatrix::from_rows(3, vec![vec![1], vec![1], vec![]]);
    let out = mine(&m, 0.5, false, false, SwitchPolicy::never(), 8);
    assert!(out.report.workers.is_empty());
}
