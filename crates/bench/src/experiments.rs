//! One function per table/figure of the paper's evaluation (§6).
//!
//! Each experiment returns rendered text so the `dmc-experiments` binary
//! can print it and `EXPERIMENTS.md` can record it. Absolute times are this
//! machine's, not the paper's Sun Ultra 2; the claims under reproduction
//! are the *shapes*: which algorithm wins where, where memory explodes,
//! and where the bitmap phase jumps.

use crate::datasets::{self, Scale};
use crate::table::{bytes, secs, Table};
use dmc_baselines::apriori::{apriori_implications, apriori_similarities, AprioriConfig};
use dmc_baselines::kmin::{kmin_implications, KMinConfig};
use dmc_baselines::minhash::{minhash_similarities, MinHashConfig};
use dmc_baselines::oracle;
use dmc_core::{
    find_implications, find_similarities, ImplicationConfig, Miner, RowOrder, SimilarityConfig,
    SparseMatrix,
};
use dmc_matrix::stats::{column_density_histogram, matrix_stats};
use dmc_matrix::transform::prune_min_support;
use std::fmt::Write as _;
use std::time::Instant;

/// The threshold sweep used across Fig 6.
pub const SWEEP: [f64; 7] = [1.0, 0.95, 0.9, 0.85, 0.8, 0.75, 0.7];

/// Table 1: data-set sizes (rows, columns, plus our nnz for context).
#[must_use]
pub fn table1(scale: Scale) -> String {
    let mut t = Table::new(vec!["data", "rows", "columns", "nnz", "max row", "max col"]);
    let mut add = |name: &str, m: &SparseMatrix| {
        let s = matrix_stats(m);
        t.row(vec![
            name.into(),
            s.rows.to_string(),
            s.cols.to_string(),
            s.nnz.to_string(),
            s.max_row_density.to_string(),
            s.max_col_ones.to_string(),
        ]);
    };
    add("Wlog", &datasets::wlog(scale));
    add("WlogP", &datasets::wlogp(scale));
    let g = datasets::plink(scale);
    add("plinkF", &g.forward);
    add("plinkT", &g.transposed);
    add("News", &datasets::news_full(scale).matrix);
    add("NewsP", &datasets::newsp(scale));
    add("dicD", &datasets::dicd(scale));
    format!(
        "Table 1 (synthetic analogues, scale {scale:?})\n{}",
        t.render()
    )
}

/// Figure 2 trace: the worked Example 3.1 on the reconstructed matrix.
#[must_use]
pub fn fig2_trace() -> String {
    let m = SparseMatrix::from_rows(
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
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig 2 / Example 3.1 (80% confidence, reconstructed matrix)"
    );
    let cfg = ImplicationConfig::new(0.8).with_row_order(RowOrder::Original);
    let result = find_implications(&m, &cfg);
    for rule in &result.rules {
        // Report 1-indexed ids like the paper.
        let _ = writeln!(
            out,
            "  c{} => c{}  (confidence {:.2})",
            rule.lhs + 1,
            rule.rhs + 1,
            rule.confidence()
        );
    }
    let mut hist_cfg = ImplicationConfig::new(0.8).with_row_order(RowOrder::Original);
    hist_cfg.record_memory_history = true;
    hist_cfg.release_completed = false;
    hist_cfg.hundred_stage = false;
    let hist = find_implications(&m, &hist_cfg);
    let counts: Vec<String> = hist
        .memory
        .history()
        .iter()
        .map(|s| s.candidates.to_string())
        .collect();
    let _ = writeln!(
        out,
        "  candidate history (original order): ({})",
        counts.join(",")
    );
    let _ = writeln!(
        out,
        "  paper:                              (1,4,4,7,9,7,7,6,2)"
    );
    out
}

/// Figure 3: counter-array memory vs rows scanned at 100% confidence, in
/// original vs sparsest-first order.
#[must_use]
pub fn fig3(scale: Scale) -> String {
    let mut out = String::new();
    for (name, m) in [
        ("Wlog", datasets::wlog(scale)),
        ("plinkT", datasets::plink(scale).transposed),
    ] {
        let _ = writeln!(
            out,
            "Fig 3 — {name}: candidate entries vs rows scanned (minconf 1.0)"
        );
        let mut t = Table::new(vec!["order", "25%", "50%", "75%", "100%", "peak"]);
        for (label, order) in [
            ("original", RowOrder::Original),
            ("sparsest-first", RowOrder::BucketedSparsestFirst),
        ] {
            let mut cfg = ImplicationConfig::new(1.0).with_row_order(order);
            cfg.hundred_stage = false; // general scan records the history
            cfg.record_memory_history = true;
            let result = find_implications(&m, &cfg);
            let hist = result.memory.history();
            let at = |frac: f64| -> String {
                if hist.is_empty() {
                    return "0".into();
                }
                let idx = ((hist.len() - 1) as f64 * frac) as usize;
                hist[idx].candidates.to_string()
            };
            t.row(vec![
                label.into(),
                at(0.25),
                at(0.5),
                at(0.75),
                at(1.0),
                result.memory.peak_candidates().to_string(),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Figure 4: column-density distributions (log2 buckets).
#[must_use]
pub fn fig4(scale: Scale) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Fig 4 — columns per 1-count bucket [2^i, 2^(i+1))");
    let sets: Vec<(&str, SparseMatrix)> = vec![
        ("Wlog", datasets::wlog(scale)),
        ("plinkF", datasets::plink(scale).forward),
        ("News", datasets::news_full(scale).matrix),
        ("dicD", datasets::dicd(scale)),
    ];
    let max_buckets = sets
        .iter()
        .map(|(_, m)| column_density_histogram(m).len())
        .max()
        .unwrap_or(0);
    let mut headers = vec!["bucket".to_string()];
    headers.extend(sets.iter().map(|(n, _)| (*n).to_string()));
    let mut t = Table::new(headers.iter().map(String::as_str).collect());
    let hists: Vec<Vec<usize>> = sets
        .iter()
        .map(|(_, m)| column_density_histogram(m))
        .collect();
    for b in 0..max_buckets {
        let mut row = vec![format!("2^{b}")];
        for h in &hists {
            row.push(h.get(b).copied().unwrap_or(0).to_string());
        }
        t.row(row);
    }
    out.push_str(&t.render());
    out
}

fn six_datasets(scale: Scale) -> Vec<(&'static str, SparseMatrix)> {
    let g = datasets::plink(scale);
    vec![
        ("Wlog", datasets::wlog(scale)),
        ("WlogP", datasets::wlogp(scale)),
        ("plinkF", g.forward),
        ("plinkT", g.transposed),
        ("News", datasets::news_full(scale).matrix),
        ("dicD", datasets::dicd(scale)),
    ]
}

/// Figure 6(a): DMC-imp execution time vs minconf on the six data sets.
#[must_use]
pub fn fig6a(scale: Scale) -> String {
    sweep_table(
        "Fig 6(a) — DMC-imp time (s) vs minconf",
        scale,
        |m, thr| {
            let start = Instant::now();
            let out = find_implications(m, &ImplicationConfig::new(thr));
            (start.elapsed(), out.rules.len())
        },
    )
}

/// Figure 6(b): DMC-sim execution time vs minsim.
#[must_use]
pub fn fig6b(scale: Scale) -> String {
    sweep_table(
        "Fig 6(b) — DMC-sim time (s) vs minsim",
        scale,
        |m, thr| {
            let start = Instant::now();
            let out = find_similarities(m, &SimilarityConfig::new(thr));
            (start.elapsed(), out.rules.len())
        },
    )
}

fn sweep_table(
    title: &str,
    scale: Scale,
    mut run: impl FnMut(&SparseMatrix, f64) -> (std::time::Duration, usize),
) -> String {
    let mut headers = vec!["data".to_string()];
    headers.extend(SWEEP.iter().map(|t| format!("{t:.2}")));
    let mut t = Table::new(headers.iter().map(String::as_str).collect());
    let mut rules_t = t.clone();
    for (name, m) in six_datasets(scale) {
        let mut row = vec![name.to_string()];
        let mut rrow = vec![name.to_string()];
        for &thr in &SWEEP {
            let (elapsed, rules) = run(&m, thr);
            row.push(secs(elapsed));
            rrow.push(rules.to_string());
        }
        t.row(row);
        rules_t.row(rrow);
    }
    format!("{title}\n{}\nrules found\n{}", t.render(), rules_t.render())
}

/// Figure 6(c),(d): execution-time breakdown for Wlog.
#[must_use]
pub fn fig6cd(scale: Scale) -> String {
    breakdown_table(
        "Fig 6(c),(d) — Wlog breakdown (s)",
        datasets::wlog(scale),
        dmc_core::SwitchPolicy::paper(),
    )
}

/// Figure 6(e),(f): execution-time breakdown for plinkT — the DMC-bitmap
/// jump as the threshold stops pruning frequency-4 columns.
///
/// The paper's 50 MB switch threshold is calibrated to its 700k-column
/// corpus; at laptop scale the counter array peaks in the hundreds of KiB,
/// so the switch policy is scaled down proportionally (64 tail rows /
/// 96 KiB) to exercise the same mechanism.
#[must_use]
pub fn fig6ef(scale: Scale) -> String {
    let switch = dmc_core::SwitchPolicy {
        max_tail_rows: 64,
        memory_limit_bytes: 96 * 1024,
    };
    breakdown_table(
        "Fig 6(e),(f) — plinkT breakdown (s, scaled switch 64 rows/96KiB)",
        datasets::plink(scale).transposed,
        switch,
    )
}

fn breakdown_table(title: &str, m: SparseMatrix, switch: dmc_core::SwitchPolicy) -> String {
    let mut out = String::new();
    for kind in ["imp", "sim"] {
        let _ = writeln!(out, "{title} [{kind}]");
        let mut t = Table::new(vec![
            "threshold",
            "pre-scan",
            "100% rules",
            "<100% rules",
            "bitmap tail",
            "total",
            "rules",
        ]);
        for &thr in &SWEEP {
            let (phases, rules) = if kind == "imp" {
                let r = find_implications(&m, &ImplicationConfig::new(thr).with_switch(switch));
                (r.phases, r.rules.len())
            } else {
                let r = find_similarities(&m, &SimilarityConfig::new(thr).with_switch(switch));
                (r.phases, r.rules.len())
            };
            t.row(vec![
                format!("{thr:.2}"),
                secs(phases.phase("pre-scan")),
                secs(phases.phase("100% rules")),
                secs(phases.phase("<100% rules")),
                secs(phases.phase("bitmap tail")),
                secs(phases.total()),
                rules.to_string(),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Figure 6(g),(h): peak counter-array memory vs threshold.
#[must_use]
pub fn fig6gh(scale: Scale) -> String {
    let mut out = String::new();
    for kind in ["imp (g)", "sim (h)"] {
        let _ = writeln!(out, "Fig 6(g),(h) — peak counter-array bytes [{kind}]");
        let mut headers = vec!["data".to_string()];
        headers.extend(SWEEP.iter().map(|t| format!("{t:.2}")));
        let mut t = Table::new(headers.iter().map(String::as_str).collect());
        for (name, m) in six_datasets(scale) {
            let mut row = vec![name.to_string()];
            for &thr in &SWEEP {
                let peak = if kind.starts_with("imp") {
                    find_implications(&m, &ImplicationConfig::new(thr))
                        .memory
                        .peak_bytes()
                } else {
                    find_similarities(&m, &SimilarityConfig::new(thr))
                        .memory
                        .peak_bytes()
                };
                row.push(bytes(peak));
            }
            t.row(row);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Figure 6(i),(j): DMC vs a-priori vs K-Min / Min-Hash on NewsP.
#[must_use]
pub fn fig6ij(scale: Scale) -> String {
    let m = datasets::newsp(scale);
    let stats = matrix_stats(&m);
    let mut out = format!(
        "Fig 6(i),(j) — NewsP comparison ({} rows, {} columns)\n",
        stats.rows, stats.cols
    );

    // (i): implication rules.
    let mut t = Table::new(vec!["minconf", "DMC-imp", "a-priori", "K-Min", "K-Min FN%"]);
    for &thr in &SWEEP {
        let start = Instant::now();
        let dmc = find_implications(&m, &ImplicationConfig::new(thr));
        let dmc_time = start.elapsed();

        let start = Instant::now();
        let ap = apriori_implications(&m, &AprioriConfig::new(1, u32::MAX), thr);
        let ap_time = start.elapsed();

        let start = Instant::now();
        let km = kmin_implications(&m, thr, &KMinConfig::new(32));
        let km_time = start.elapsed();
        let fn_rate = if dmc.rules.is_empty() {
            0.0
        } else {
            let found = km.rules.iter().filter(|r| dmc.rules.contains(r)).count();
            100.0 * (dmc.rules.len() - found) as f64 / dmc.rules.len() as f64
        };
        assert_eq!(
            ap.rules, dmc.rules,
            "a-priori (unpruned) and DMC must agree exactly at {thr}"
        );
        t.row(vec![
            format!("{thr:.2}"),
            secs(dmc_time),
            secs(ap_time),
            secs(km_time),
            format!("{fn_rate:.1}"),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');

    // (j): similarity rules.
    let mut t = Table::new(vec!["minsim", "DMC-sim", "a-priori", "Min-Hash", "MH FN%"]);
    for &thr in &SWEEP {
        let start = Instant::now();
        let dmc = find_similarities(&m, &SimilarityConfig::new(thr));
        let dmc_time = start.elapsed();

        let start = Instant::now();
        let ap = apriori_similarities(&m, &AprioriConfig::new(1, u32::MAX), thr);
        let ap_time = start.elapsed();

        let start = Instant::now();
        let mh = minhash_similarities(&m, thr, &MinHashConfig::new(96).with_banding(24, 4));
        let mh_time = start.elapsed();
        let fn_rate = if dmc.rules.is_empty() {
            0.0
        } else {
            let found = mh.rules.iter().filter(|r| dmc.rules.contains(r)).count();
            100.0 * (dmc.rules.len() - found) as f64 / dmc.rules.len() as f64
        };
        assert_eq!(
            ap.rules, dmc.rules,
            "a-priori and DMC-sim must agree at {thr}"
        );
        t.row(vec![
            format!("{thr:.2}"),
            secs(dmc_time),
            secs(ap_time),
            secs(mh_time),
            format!("{fn_rate:.1}"),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// The Fig-7 vocabulary: topic 0 is the Polgar story.
#[must_use]
pub fn fig7_word_name(data: &dmc_datagen::NewsData, col: u32) -> String {
    const POLGAR_THEME: [&str; 12] = [
        "chess",
        "judit",
        "grandmaster",
        "kasparov",
        "champion",
        "soviet",
        "hungary",
        "international",
        "top",
        "youngest",
        "players",
        "federation",
    ];
    if data.anchors.first() == Some(&col) {
        return "polgar".into();
    }
    if let Some(theme) = data.themes.first() {
        if let Some(pos) = theme.iter().position(|&w| w == col) {
            if pos < POLGAR_THEME.len() {
                return POLGAR_THEME[pos].into();
            }
        }
    }
    for (t, anchor) in data.anchors.iter().enumerate().skip(1) {
        if *anchor == col {
            return format!("anchor{t}");
        }
        if let Some(pos) = data.themes[t].iter().position(|&w| w == col) {
            return format!("t{t}w{pos}");
        }
    }
    format!("word{col}")
}

/// Figure 7: rules reachable from the "polgar" keyword at 85% confidence
/// with support-< 5 pruning, expanded recursively like §6.3.
#[must_use]
pub fn fig7(scale: Scale) -> String {
    let data = datasets::news_full(scale);
    let pruned = prune_min_support(&data.matrix, 5);
    let result = find_implications(&pruned.matrix, &ImplicationConfig::new(0.85));

    // Map pruned ids back to original ids for naming.
    let orig = |c: u32| pruned.original_ids[c as usize];
    let seed_col = data.anchors[0];
    let Some(seed_pruned) = pruned.original_ids.iter().position(|&c| c == seed_col) else {
        return "Fig 7 — anchor pruned away (increase scale)".into();
    };

    // Recursive closure over rule successors.
    let mut frontier = vec![seed_pruned as u32];
    let mut seen: Vec<u32> = frontier.clone();
    let mut lines: Vec<String> = Vec::new();
    while let Some(lhs) = frontier.pop() {
        for rule in result.rules.iter().filter(|r| r.lhs == lhs) {
            lines.push(format!(
                "  {} -> {}  ({:.2})",
                fig7_word_name(&data, orig(rule.lhs)),
                fig7_word_name(&data, orig(rule.rhs)),
                rule.confidence()
            ));
            if !seen.contains(&rule.rhs) {
                seen.push(rule.rhs);
                frontier.push(rule.rhs);
            }
        }
    }
    lines.sort();
    lines.dedup();
    format!(
        "Fig 7 — rules reachable from 'polgar' (minconf 0.85, support >= 5)\n{}\n",
        lines.join("\n")
    )
}

/// §7 headline speedups at the 85% threshold on NewsP.
#[must_use]
pub fn speedups(scale: Scale) -> String {
    let m = datasets::newsp(scale);
    let thr = 0.85;
    let time = |f: &mut dyn FnMut() -> usize| {
        let start = Instant::now();
        let n = f();
        (start.elapsed(), n)
    };
    let (dmc_imp, n_imp) = time(&mut || {
        find_implications(&m, &ImplicationConfig::new(thr))
            .rules
            .len()
    });
    let (ap_imp, _) = time(&mut || {
        apriori_implications(&m, &AprioriConfig::new(1, u32::MAX), thr)
            .rules
            .len()
    });
    let (km, _) = time(&mut || kmin_implications(&m, thr, &KMinConfig::new(32)).rules.len());
    let (dmc_sim, n_sim) = time(&mut || {
        find_similarities(&m, &SimilarityConfig::new(thr))
            .rules
            .len()
    });
    let (ap_sim, _) = time(&mut || {
        apriori_similarities(&m, &AprioriConfig::new(1, u32::MAX), thr)
            .rules
            .len()
    });
    let (mh, _) = time(&mut || {
        minhash_similarities(&m, thr, &MinHashConfig::new(96).with_banding(24, 4))
            .rules
            .len()
    });

    let ratio = |a: std::time::Duration, b: std::time::Duration| {
        format!("{:.1}x", a.as_secs_f64() / b.as_secs_f64().max(1e-9))
    };
    let mut out = format!("§7 speedups at 85% on NewsP ({n_imp} imp rules, {n_sim} sim rules)\n");
    let mut t = Table::new(vec!["comparison", "measured", "paper"]);
    t.row(vec![
        "DMC-imp vs a-priori".into(),
        ratio(ap_imp, dmc_imp),
        "1.7x".into(),
    ]);
    t.row(vec![
        "DMC-imp vs K-Min".into(),
        ratio(km, dmc_imp),
        "1.9x".into(),
    ]);
    t.row(vec![
        "DMC-sim vs a-priori".into(),
        ratio(ap_sim, dmc_sim),
        "5.9x".into(),
    ]);
    t.row(vec![
        "DMC-sim vs Min-Hash".into(),
        ratio(mh, dmc_sim),
        "1.7x".into(),
    ]);
    out.push_str(&t.render());
    out
}

/// Ablation: each §4/§5 optimization toggled off, on Wlog and plinkT.
#[must_use]
pub fn ablation(scale: Scale) -> String {
    let mut out = String::new();
    for (name, m) in [
        ("Wlog", datasets::wlog(scale)),
        ("plinkT", datasets::plink(scale).transposed),
    ] {
        let _ = writeln!(out, "Ablation — {name} (imp @ 0.85 / sim @ 0.85)");
        let mut t = Table::new(vec!["variant", "time", "peak candidates", "rules"]);
        let mut run_imp = |label: &str, cfg: ImplicationConfig| {
            let start = Instant::now();
            let r = find_implications(&m, &cfg);
            t.row(vec![
                label.into(),
                secs(start.elapsed()),
                r.memory.peak_candidates().to_string(),
                r.rules.len().to_string(),
            ]);
        };
        run_imp("imp: full", ImplicationConfig::new(0.85));
        run_imp(
            "imp: original row order",
            ImplicationConfig::new(0.85).with_row_order(RowOrder::Original),
        );
        run_imp(
            "imp: no 100% stage",
            ImplicationConfig::new(0.85).with_hundred_stage(false),
        );
        run_imp(
            "imp: no bitmap switch",
            ImplicationConfig::new(0.85).with_switch(dmc_core::SwitchPolicy::never()),
        );
        let mut run_sim = |label: &str, cfg: SimilarityConfig| {
            let start = Instant::now();
            let r = find_similarities(&m, &cfg);
            t.row(vec![
                label.into(),
                secs(start.elapsed()),
                r.memory.peak_candidates().to_string(),
                r.rules.len().to_string(),
            ]);
        };
        run_sim("sim: full", SimilarityConfig::new(0.85));
        run_sim(
            "sim: no max-hits pruning",
            SimilarityConfig::new(0.85).with_max_hits_pruning(false),
        );
        run_sim(
            "sim: original row order",
            SimilarityConfig::new(0.85).with_row_order(RowOrder::Original),
        );
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Structured run reports: mines NewsP at 85% (implications in memory and
/// streamed, similarities in memory), checks each report's counters
/// reconcile, writes the JSON array to
/// `BENCH_reports.json`, and returns a counter summary table.
///
/// # Panics
///
/// Panics if any run report fails its reconciliation invariants.
#[must_use]
pub fn reports(scale: Scale) -> String {
    let m = datasets::newsp(scale);
    let thr = 0.85;
    let mut entries = Vec::new();
    let mut t = Table::new(vec![
        "run",
        "rules",
        "rows scanned",
        "admitted",
        "deleted",
        "misses",
        "peak cands",
    ]);
    let mut record = |label: String, r: &dmc_core::RunReport| {
        assert!(r.reconciles(), "run report must reconcile ({label})");
        t.row(vec![
            label,
            r.rules.to_string(),
            r.counters.rows_scanned.to_string(),
            r.counters.candidates_admitted.to_string(),
            r.counters.candidates_deleted.to_string(),
            r.counters.misses_counted.to_string(),
            r.peak_candidates.to_string(),
        ]);
        entries.push(r.to_json());
    };
    let out = Miner::implications(thr)
        .mine(&m)
        .expect("in-memory mines cannot fail");
    record("imp".into(), &out.report);
    let rows: Vec<Result<Vec<dmc_core::ColumnId>, std::convert::Infallible>> =
        m.rows().map(|r| Ok(r.to_vec())).collect();
    let streamed = Miner::implications(thr)
        .mine_streamed(rows, m.n_cols())
        .expect("in-memory rows cannot fail");
    record("imp streamed".into(), &streamed.report);
    let sim = Miner::similarities(thr)
        .mine(&m)
        .expect("in-memory mines cannot fail");
    record("sim".into(), &sim.report);

    let path = "BENCH_reports.json";
    let json = format!("[\n{}\n]\n", entries.join(",\n"));
    let note = match std::fs::write(path, json) {
        Ok(()) => format!("JSON written to {path}"),
        Err(e) => format!("could not write {path}: {e}"),
    };
    format!(
        "Run reports (NewsP @ 0.85, schema {}), {note}\n{}",
        dmc_core::RUN_REPORT_SCHEMA,
        t.render()
    )
}

/// Sanity experiment: DMC against the exact oracle on a small slice (used
/// by `dmc-experiments verify`).
#[must_use]
pub fn verify(scale: Scale) -> String {
    let m = datasets::newsp(match scale {
        Scale::Small => Scale::Small,
        _ => Scale::Small, // the oracle is quadratic; keep it small
    });
    let mut out = String::from("Exactness check vs brute-force oracle (NewsP small)\n");
    for &thr in &[0.9, 0.8, 0.7] {
        let dmc = find_implications(&m, &ImplicationConfig::new(thr));
        let exact = oracle::exact_implications(&m, thr, false);
        let ok = dmc.rules == exact;
        let _ = writeln!(
            out,
            "  imp @ {thr:.2}: {} rules, oracle match: {ok}",
            exact.len()
        );
        assert!(ok, "DMC-imp diverged from the oracle at {thr}");
        let dmc_s = find_similarities(&m, &SimilarityConfig::new(thr));
        let exact_s = oracle::exact_similarities(&m, thr);
        let ok = dmc_s.rules == exact_s;
        let _ = writeln!(
            out,
            "  sim @ {thr:.2}: {} rules, oracle match: {ok}",
            exact_s.len()
        );
        assert!(ok, "DMC-sim diverged from the oracle at {thr}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_trace_reports_paper_rules() {
        let out = fig2_trace();
        assert!(out.contains("c1 => c2"), "{out}");
        assert!(out.contains("c3 => c5"), "{out}");
        assert!(out.contains("(1,4,4,7,9,7,7,6,2)"), "{out}");
    }

    #[test]
    fn verify_passes_at_small_scale() {
        let out = verify(Scale::Small);
        assert!(out.contains("oracle match: true"));
    }

    #[test]
    fn fig7_finds_polgar_rules() {
        let out = fig7(Scale::Small);
        assert!(out.contains("polgar ->"), "{out}");
        assert!(out.contains("chess"), "{out}");
    }
}
