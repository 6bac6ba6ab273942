//! The two batch-mining workloads: `weblog-imp` (DMC-imp, in memory) and
//! `news-sim-stream` (DMC-sim, streamed through the disk spill).
//!
//! One closed-loop caller mines the same generated corpus over and over
//! for the measured window, at one worker per core. Every mine is checked
//! after the window: each rule must pass the independent re-verification,
//! and the rule list must be byte-identical to a sequential (1-worker)
//! in-memory mine of the same input.

use crate::measure::{
    median, overhead, peak_rss_mb, quantile, ratio, traced_slot, Outcome, Tracer, MIB,
};
use crate::Args;
use dmc_core::rules_io::write_rules;
use dmc_core::{
    verify_implications, verify_similarities, ImplicationOutput, ImplicationRule, MinedOutput,
    Miner, RuleCheck, RunReport, SimilarityOutput, SimilarityRule, SparseMatrix, SpillSettings,
};
use dmc_datagen::{news, weblog, NewsConfig, WeblogConfig};
use dmc_matrix::spill::BucketSpill;
use std::convert::Infallible;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// One worker per core, as a user of the parallel miners would ask for.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A per-process scratch directory under the build directory, removed on
/// drop, so streamed mines spill inside the benchmark's own checkout.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create() -> Result<Self, String> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join(".bench_build")
            .join(format!("dmcbench-spill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What differs between the two mining workloads.
pub trait MineWorkload {
    type Out: MinedOutput;
    fn generate(&self, args: &Args) -> SparseMatrix;
    /// The measured call.
    fn mine(&self, m: &SparseMatrix, spill: &Path) -> Result<Self::Out, String>;
    /// A sequential (1-worker) in-memory mine of the same input.
    fn reference(&self, m: &SparseMatrix) -> Self::Out;
    fn rules_valid(&self, m: &SparseMatrix, out: &Self::Out) -> bool;
    fn rules_text(&self, out: &Self::Out) -> Vec<u8>;
    /// Makes one output wrong, for `--inject-wrong`.
    fn corrupt(&self, out: &mut Self::Out);
    fn streamed(&self) -> bool;
}

fn all_valid(checks: &[RuleCheck]) -> bool {
    checks.iter().all(|c| *c == RuleCheck::Valid)
}

fn text(imps: &[ImplicationRule], sims: &[SimilarityRule]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_rules(imps, sims, &mut buf).expect("writing to a Vec cannot fail");
    buf
}

pub struct WeblogImp;

const MINCONF: f64 = 0.9;

impl MineWorkload for WeblogImp {
    type Out = ImplicationOutput;

    fn generate(&self, args: &Args) -> SparseMatrix {
        weblog(&WeblogConfig::new(
            args.scale.weblog_clients,
            args.scale.weblog_urls,
            args.seed,
        ))
    }

    fn mine(&self, m: &SparseMatrix, _spill: &Path) -> Result<ImplicationOutput, String> {
        Miner::implications(MINCONF)
            .threads(workers())
            .mine(m)
            .map_err(|e| e.to_string())
    }

    fn reference(&self, m: &SparseMatrix) -> ImplicationOutput {
        Miner::implications(MINCONF)
            .threads(1)
            .mine(m)
            .expect("in-memory mines are infallible")
    }

    fn rules_valid(&self, m: &SparseMatrix, out: &ImplicationOutput) -> bool {
        all_valid(&verify_implications(m, &out.rules, MINCONF))
    }

    fn rules_text(&self, out: &ImplicationOutput) -> Vec<u8> {
        text(&out.rules, &[])
    }

    fn corrupt(&self, out: &mut ImplicationOutput) {
        match out.rules.first_mut() {
            Some(r) => r.hits += 1,
            None => out.rules.push(ImplicationRule {
                lhs: 0,
                rhs: 1,
                hits: 1,
                lhs_ones: 1,
                rhs_ones: 1,
            }),
        }
    }

    fn streamed(&self) -> bool {
        false
    }
}

pub struct NewsSimStream;

const MINSIM: f64 = 0.5;

impl MineWorkload for NewsSimStream {
    type Out = SimilarityOutput;

    fn generate(&self, args: &Args) -> SparseMatrix {
        news(&NewsConfig::new(
            args.scale.news_docs,
            args.scale.news_vocab,
            args.seed,
        ))
        .matrix
    }

    fn mine(&self, m: &SparseMatrix, spill: &Path) -> Result<SimilarityOutput, String> {
        let settings = SpillSettings {
            dir: Some(spill.to_path_buf()),
            ..SpillSettings::default()
        };
        let rows = m.rows().map(|r| Ok::<_, Infallible>(r.to_vec()));
        Miner::similarities(MINSIM)
            .threads(workers())
            .spill(settings)
            .mine_streamed(rows, m.n_cols())
            .map_err(|e| e.to_string())
    }

    fn reference(&self, m: &SparseMatrix) -> SimilarityOutput {
        Miner::similarities(MINSIM)
            .threads(1)
            .mine(m)
            .expect("in-memory mines are infallible")
    }

    fn rules_valid(&self, m: &SparseMatrix, out: &SimilarityOutput) -> bool {
        all_valid(&verify_similarities(m, &out.rules, MINSIM))
    }

    fn rules_text(&self, out: &SimilarityOutput) -> Vec<u8> {
        text(&[], &out.rules)
    }

    fn corrupt(&self, out: &mut SimilarityOutput) {
        match out.rules.first_mut() {
            Some(r) => r.hits += 1,
            None => out.rules.push(SimilarityRule {
                a: 0,
                b: 1,
                hits: 1,
                a_ones: 1,
                b_ones: 1,
            }),
        }
    }

    fn streamed(&self) -> bool {
        true
    }
}

/// Pushes every row through the public spill writer, then replays it
/// once; returns (write seconds, replay seconds, rows replayed).
fn time_spill(
    m: &SparseMatrix,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<(f64, f64, usize), String> {
    let io = |e: std::io::Error| format!("spill: {e}");
    let span = tracer.begin("spill.write");
    let mut spill = BucketSpill::new(dir, m.n_cols()).map_err(io)?;
    for row in m.rows() {
        spill.push_row(row).map_err(io)?;
    }
    let mut replay = spill.replay().map_err(io)?;
    let write_s = tracer.end(span);
    let span = tracer.begin("spill.replay");
    let mut rows = 0;
    for row in &mut replay {
        row.map_err(|e| format!("spill replay: {e}"))?;
        rows += 1;
    }
    let replay_s = tracer.end(span);
    Ok((write_s, replay_s, rows))
}

/// Runs one mining workload and reports the metrics of the requested mode.
pub fn run<W: MineWorkload>(w: &W, args: &Args) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(args.trace, Instant::now());
    let root = tracer.begin("workload");

    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut matrix = None;
    for _ in 0..SETUP_REPEATS {
        drop(matrix.take());
        let t = Instant::now();
        matrix = Some(w.generate(args));
        setup.push(t.elapsed().as_secs_f64());
    }
    let m = matrix.expect("at least one set-up ran");
    let scratch = ScratchDir::create()?;

    // The measured window. A traced run traces half of the calls, so the
    // traced and untraced halves give the tracing overhead.
    let mut latencies = Vec::new();
    let mut traced_flags = Vec::new();
    let mut outputs = Vec::new();
    let start = Instant::now();
    while latencies.is_empty() || start.elapsed() < args.window {
        let traced = args.trace && traced_slot(latencies.len());
        let span = if traced {
            Some(tracer.begin("mine"))
        } else {
            None
        };
        let t = Instant::now();
        let out = w.mine(&m, scratch.path());
        latencies.push(t.elapsed().as_secs_f64());
        if let Some(span) = span {
            tracer.end(span);
        }
        traced_flags.push(traced);
        outputs.push(out);
    }
    let window = start.elapsed().as_secs_f64();
    let peak_rss = peak_rss_mb();

    // Correctness, outside the window and outside set-up.
    let span = tracer.begin("seq_mine");
    let t = Instant::now();
    let reference = w.reference(&m);
    let seq_mine_s = t.elapsed().as_secs_f64();
    tracer.end(span);
    let reference_text = w.rules_text(&reference);
    let mut outcome = Outcome::default();
    let mut reports = Vec::new();
    for (i, out) in outputs.iter_mut().enumerate() {
        match out {
            Ok(out) => {
                if args.inject_wrong && i == 0 {
                    w.corrupt(out);
                }
                outcome.check(w.rules_valid(&m, out) && w.rules_text(out) == reference_text);
                if traced_flags[i] {
                    reports.push((latencies[i], out.report().clone()));
                }
            }
            Err(e) => {
                eprintln!("mine {i} failed: {e}");
                outcome.check(false);
            }
        }
    }

    let ms: Vec<f64> = latencies.iter().map(|s| s * 1e3).collect();
    if !args.trace {
        outcome.metric("setup_s", median(&setup), setup.len());
        outcome.metric("peak_rss_mb", peak_rss, 1);
        outcome.metric("op_p50_ms", median(&ms), ms.len());
        outcome.metric("ops_per_s", latencies.len() as f64 / window, ms.len());
        return Ok(outcome);
    }

    let (spill_write_s, spill_replay_s) = if w.streamed() {
        let (write_s, replay_s, rows) = time_spill(&m, scratch.path(), &mut tracer)?;
        outcome.check(rows == m.n_rows());
        (write_s, replay_s)
    } else {
        (0.0, 0.0)
    };
    tracer.end(root);

    let Some((_, first)) = reports.first() else {
        return Err("no traced mine succeeded".into());
    };
    let n = reports.len();
    let per_op = |f: &dyn Fn(f64, &RunReport) -> f64| -> f64 {
        median(
            &reports
                .iter()
                .map(|(wall, r)| f(*wall, r))
                .collect::<Vec<_>>(),
        )
    };
    let busy = |r: &RunReport, pick: fn(f64, f64) -> f64| {
        r.workers
            .iter()
            .map(|w| w.busy_seconds)
            .reduce(pick)
            .unwrap_or(0.0)
    };
    outcome.metric(
        "core.prescan_s",
        per_op(&|_, r| r.phase_seconds("pre-scan")),
        n,
    );
    outcome.metric(
        "core.hundred_s",
        per_op(&|_, r| r.phase_seconds("100% rules")),
        n,
    );
    outcome.metric(
        "core.sub_s",
        per_op(&|_, r| r.phase_seconds("<100% rules")),
        n,
    );
    outcome.metric(
        "core.bitmap_s",
        per_op(&|_, r| r.phase_seconds("bitmap tail")),
        n,
    );
    outcome.metric(
        "core.phase_share",
        per_op(&|wall, r| ratio(r.phase_total_seconds(), wall)),
        n,
    );
    let admitted = first.counters.candidates_admitted as f64;
    outcome.metric("core.admitted", admitted, 1);
    outcome.metric("core.misses", first.counters.misses_counted as f64, 1);
    outcome.metric("core.admit_yield", ratio(first.rules as f64, admitted), 1);
    outcome.metric(
        "core.peak_counter_mb",
        per_op(&|_, r| r.peak_counter_bytes as f64 / MIB),
        n,
    );
    outcome.metric("core.seq_mine_s", seq_mine_s, 1);
    let max = per_op(&|_, r| busy(r, f64::max));
    let min = per_op(&|_, r| busy(r, f64::min));
    outcome.metric("fanout.busy_max_s", max, n);
    outcome.metric("fanout.busy_min_s", min, n);
    outcome.metric("fanout.busy_skew", ratio(max, min), n);
    outcome.metric(
        "fanout.blocks_stolen",
        per_op(&|_, r| r.workers.iter().map(|w| w.blocks_stolen as f64).sum()),
        n,
    );
    outcome.metric("matrix.spill_bytes", first.spill_bytes as f64, 1);
    let io = first.io.unwrap_or_default();
    outcome.metric("matrix.spill_frames_read", io.frames_read as f64, 1);
    outcome.metric(
        "matrix.spill_retries",
        (io.write_retries + io.read_retries) as f64,
        1,
    );
    outcome.metric(
        "matrix.spill_write_s",
        spill_write_s,
        usize::from(w.streamed()),
    );
    outcome.metric(
        "matrix.spill_replay_s",
        spill_replay_s,
        usize::from(w.streamed()),
    );
    outcome.metric("loadgen.op_p50_ms", median(&ms), ms.len());
    outcome.metric("loadgen.op_p90_ms", quantile(&ms, 0.9), ms.len());
    outcome.metric(
        "trace.overhead_frac",
        overhead(&latencies, &traced_flags),
        latencies.len(),
    );
    outcome.fill_bypassed();
    outcome.spans = tracer.summary();
    Ok(outcome)
}
