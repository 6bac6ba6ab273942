//! Differential fuzzer: random matrices × random configurations, every
//! result checked against the brute-force oracle.
//!
//! ```text
//! cargo run --release -p dmc-bench --bin dmc-fuzz -- [iterations] [seed]
//! ```
//!
//! Each iteration draws a random sparse matrix (dimensions, density and
//! skew all randomized), a random threshold, and a random configuration
//! (row order, switch point, stage/pruning toggles, and for in-memory
//! implication mines a worker count in 1..=4), mines it in memory and
//! streamed, and asserts byte-identical agreement with
//! `dmc_baselines::oracle`. The seed is printed before the first
//! iteration; the run exits non-zero on the first mismatch with a
//! reproduction line.

use dmc_baselines::oracle;
use dmc_core::{
    find_implications, find_implications_streamed, find_similarities, find_similarities_streamed,
    ImplicationConfig, Miner, RowOrder, SimilarityConfig, SparseMatrix, SwitchPolicy,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::process::ExitCode;

fn random_matrix(rng: &mut StdRng) -> SparseMatrix {
    let rows = rng.gen_range(0..120);
    let cols = rng.gen_range(1..40);
    let density = rng.gen_range(0.02..0.5);
    // Skew: some columns are much more likely than others.
    let col_weight: Vec<f64> = (0..cols)
        .map(|_| rng.gen_range(0.2..3.0) * density)
        .collect();
    let mut data = Vec::with_capacity(rows);
    for _ in 0..rows {
        let mut row: Vec<u32> = Vec::new();
        for (c, &w) in col_weight.iter().enumerate() {
            if rng.gen::<f64>() < w.min(0.95) {
                row.push(c as u32);
            }
        }
        // Occasionally duplicate a previous row (identical-column pressure).
        data.push(row);
    }
    // Occasionally append a dense crawler row.
    if rows > 0 && rng.gen::<f64>() < 0.3 {
        data.push((0..cols as u32).collect());
    }
    SparseMatrix::from_rows(cols, data)
}

fn random_threshold(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..4) {
        0 => 1.0,
        1 => [0.99, 0.95, 0.9, 0.85, 0.8, 0.75][rng.gen_range(0..6usize)],
        2 => rng.gen_range(0.3..1.0),
        _ => rng.gen_range(0.05..0.4),
    }
}

fn random_order(rng: &mut StdRng, n_rows: usize) -> RowOrder {
    match rng.gen_range(0..4) {
        0 => RowOrder::Original,
        1 => RowOrder::BucketedSparsestFirst,
        2 => RowOrder::ExactSparsestFirst,
        _ => {
            let mut perm: Vec<u32> = (0..n_rows as u32).collect();
            for i in (1..perm.len()).rev() {
                perm.swap(i, rng.gen_range(0..=i));
            }
            RowOrder::Custom(perm)
        }
    }
}

fn random_switch(rng: &mut StdRng, n_rows: usize) -> SwitchPolicy {
    match rng.gen_range(0..3) {
        0 => SwitchPolicy::never(),
        1 => SwitchPolicy::paper(),
        _ => SwitchPolicy::always_at(rng.gen_range(1..=n_rows.max(1))),
    }
}

fn check_iteration(iter: u64, rng: &mut StdRng) -> Result<(), String> {
    let m = random_matrix(rng);
    let thr = random_threshold(rng);

    let mut imp_cfg = ImplicationConfig::new(thr)
        .with_row_order(random_order(rng, m.n_rows()))
        .with_switch(random_switch(rng, m.n_rows()))
        .with_hundred_stage(rng.gen())
        .with_reverse(rng.gen());
    imp_cfg.release_completed = rng.gen();

    let want_imp = oracle::exact_implications(&m, thr, imp_cfg.emit_reverse);
    let got = find_implications(&m, &imp_cfg);
    if got.rules != want_imp {
        return Err(format!(
            "iter {iter}: find_implications mismatch (thr {thr})"
        ));
    }
    // Above one worker (and as many cores) this is the column-unit
    // executor.
    let threads = rng.gen_range(1..=4);
    let got = Miner::implications(thr)
        .order(imp_cfg.row_order.clone())
        .switch(imp_cfg.switch)
        .hundred_stage(imp_cfg.hundred_stage)
        .reverse(imp_cfg.emit_reverse)
        .threads(threads)
        .mine(&m)
        .expect("in-memory mining cannot fail");
    if got.rules != want_imp || !got.report.reconciles() {
        return Err(format!(
            "iter {iter}: threads({threads}) implications mismatch (thr {thr})"
        ));
    }
    let rows: Vec<Result<Vec<u32>, std::convert::Infallible>> =
        m.rows().map(|r| Ok(r.to_vec())).collect();
    let streamed =
        find_implications_streamed(rows, m.n_cols(), &imp_cfg).expect("streamed mining failed");
    if streamed.rules != want_imp {
        return Err(format!(
            "iter {iter}: streamed implications mismatch (thr {thr})"
        ));
    }

    let mut sim_cfg = SimilarityConfig::new(thr)
        .with_row_order(random_order(rng, m.n_rows()))
        .with_switch(random_switch(rng, m.n_rows()))
        .with_hundred_stage(rng.gen())
        .with_max_hits_pruning(rng.gen());
    sim_cfg.release_completed = rng.gen();

    let want_sim = oracle::exact_similarities(&m, thr);
    let got = find_similarities(&m, &sim_cfg);
    if got.rules != want_sim {
        return Err(format!(
            "iter {iter}: find_similarities mismatch (thr {thr})"
        ));
    }
    let rows: Vec<Result<Vec<u32>, std::convert::Infallible>> =
        m.rows().map(|r| Ok(r.to_vec())).collect();
    let streamed =
        find_similarities_streamed(rows, m.n_cols(), &sim_cfg).expect("streamed mining failed");
    if streamed.rules != want_sim {
        return Err(format!(
            "iter {iter}: streamed similarities mismatch (thr {thr})"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let iterations: u64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(500);
    let seed: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(0xFACE);

    eprintln!("dmc-fuzz: {iterations} iterations, seed {seed}");
    let mut rng = StdRng::seed_from_u64(seed);
    for iter in 0..iterations {
        if let Err(msg) = check_iteration(iter, &mut rng) {
            eprintln!("FUZZ FAILURE: {msg}");
            eprintln!("reproduce with: dmc-fuzz {} {seed}", iter + 1);
            return ExitCode::FAILURE;
        }
        if (iter + 1) % 100 == 0 {
            eprintln!("{} iterations clean", iter + 1);
        }
    }
    eprintln!("all {iterations} iterations agree with the oracle (seed {seed})");
    ExitCode::SUCCESS
}
