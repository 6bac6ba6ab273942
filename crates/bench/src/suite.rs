//! The `dmc-benchsuite` workload matrix and runner.
//!
//! A suite run mines a fixed matrix of cells — execution mode (in-memory
//! vs streamed) × algorithm (implication vs similarity) × dataset scale —
//! on planted-rule datasets whose qualifying rule set is known by
//! construction. Every cell runs `warmup` discarded passes plus
//! `repeats` measured passes; the wall time of each pass is taken from the
//! driver's own [`RunReport::wall_seconds`] (not re-measured outside), so
//! the record and the observability layer cannot drift apart.
//!
//! The counters double as a correctness cross-check: every repeat's report
//! must satisfy [`RunReport::reconciles`], and repeats of a cell must
//! produce identical counter fingerprints. Every mining cell runs the one
//! sequential pipeline (`t1`); the comparator flags a cell whose work
//! counters moved against the baseline, because a timing record whose
//! work counters moved is measuring a different computation, not a
//! faster one.
//!
//! Besides the driver matrix, every scale contributes an **engine cell
//! pair** measuring the persistent [`Engine`]: `engine/query/t1/*` (point
//! queries per second against a mined engine) and `engine/ingest/t1/*`
//! (rows per second through incremental [`Engine::ingest`], asserted
//! byte-identical to a from-scratch mine on every repeat), and a **shard
//! cell pair** measuring the column-sharded protocol: `shard/mine/t4/*`
//! (the full plan → worker → checksummed-merge pipeline) and
//! `shard/merge/t4/*` (the fingerprint-verified merge alone), each
//! asserting the union byte-identical to the unsharded mine, and a
//! **compact cell pair**: `compact/base/t1/*` (irredundant-base
//! construction over the mined rule set, reverses emitted so the base
//! genuinely shrinks) and `compact/expand/t1/*` (the inverse expansion,
//! asserted identical to the mined rules on every repeat).
//!
//! [`baseline`](crate::baseline) serializes the result under the
//! `dmc.bench.v1` schema and [`compare`](crate::compare) diffs two such
//! records with a noise-aware gate.

use crate::datasets::Scale;
use dmc_core::{Engine, MineConfig, Miner, RunReport, SparseMatrix};
use dmc_datagen::{planted_implications, PlantedConfig};
use dmc_metrics::ScanTally;
use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Which rule family a cell mines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// DMC-imp at the suite's `minconf`.
    Implication,
    /// DMC-sim at the suite's `minsim`.
    Similarity,
}

impl Algorithm {
    /// Short id segment (`imp` / `sim`).
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            Algorithm::Implication => "imp",
            Algorithm::Similarity => "sim",
        }
    }
}

/// How a cell's rows reach the driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The whole matrix is resident; single counting pass per stage.
    InMemory,
    /// Rows stream through the two-pass out-of-core spill drivers.
    Streamed,
}

impl Mode {
    /// Short id segment (`mem` / `stream`).
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            Mode::InMemory => "mem",
            Mode::Streamed => "stream",
        }
    }
}

/// Scale's lowercase name for ids and JSON.
#[must_use]
pub fn scale_tag(scale: Scale) -> &'static str {
    match scale {
        Scale::Small => "small",
        Scale::Medium => "medium",
        Scale::Large => "large",
    }
}

/// Configuration of one suite run.
#[derive(Clone, Debug)]
pub struct SuiteConfig {
    /// Record name (lands in the JSON `name` field).
    pub name: String,
    /// Dataset scales to cover.
    pub scales: Vec<Scale>,
    /// Discarded warm-up passes per cell.
    pub warmup: usize,
    /// Measured passes per cell.
    pub repeats: usize,
    /// Implication confidence threshold.
    pub minconf: f64,
    /// Similarity threshold.
    pub minsim: f64,
}

impl SuiteConfig {
    /// The full matrix: small + medium planted data, 1 warm-up + 5
    /// measured repeats per cell (8 driver cells plus an engine
    /// query/ingest pair, a shard mine/merge pair and a compact
    /// base/expand pair per scale, 20 total).
    #[must_use]
    pub fn full() -> Self {
        Self {
            name: "full".into(),
            scales: vec![Scale::Small, Scale::Medium],
            warmup: 1,
            repeats: 5,
            minconf: 0.9,
            minsim: 0.75,
        }
    }

    /// The CI gate matrix: small planted data only, 1 warm-up + 5
    /// measured repeats per cell (4 driver cells plus the engine
    /// query/ingest, shard mine/merge and compact base/expand pairs, 10
    /// total). The extra
    /// repeats over the minimum of 3 cost well under a second and buy a
    /// noticeably steadier median on shared runners.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            name: "quick".into(),
            scales: vec![Scale::Small],
            warmup: 1,
            repeats: 5,
            minconf: 0.9,
            minsim: 0.75,
        }
    }
}

/// The planted-rule dataset a scale maps to: strongly planted implication
/// pairs over light background noise (see `dmc_datagen::planted`), sized
/// so a full suite stays in seconds per cell.
#[must_use]
pub fn planted_matrix(scale: Scale) -> SparseMatrix {
    let (rows, cols, pairs) = match scale {
        Scale::Small => (6000, 400, 40),
        Scale::Medium => (24000, 800, 80),
        Scale::Large => (96000, 1600, 160),
    };
    planted_implications(&PlantedConfig::new(
        rows,
        cols,
        pairs,
        0xBE7C + scale_tag(scale).len() as u64,
    ))
    .matrix
}

/// The counter fingerprint of a cell: every [`ScanTally`] field that must
/// be identical across repeats, plus `spill_bytes` (deterministic for a
/// fixed dataset). `rows_scanned` and `spill_bytes` are kept for the
/// record but excluded from the cross-record work comparison.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterFingerprint {
    pub rows_scanned: u64,
    pub candidates_admitted: u64,
    pub candidates_deleted: u64,
    pub misses_counted: u64,
    pub rules_emitted: u64,
    pub spill_bytes: u64,
}

impl CounterFingerprint {
    fn of(report: &RunReport) -> Self {
        let ScanTally {
            rows_scanned,
            candidates_admitted,
            candidates_deleted,
            misses_counted,
            rules_emitted,
        } = report.counters;
        Self {
            rows_scanned,
            candidates_admitted,
            candidates_deleted,
            misses_counted,
            rules_emitted,
            spill_bytes: report.spill_bytes,
        }
    }

    /// The fingerprint with the accounting- and mode-dependent fields
    /// zeroed: `rows_scanned` depends on the stage accounting and
    /// `spill_bytes` on the mode, while the work counters must not move
    /// between two records of the same cell.
    #[must_use]
    pub fn work_counters(&self) -> Self {
        Self {
            rows_scanned: 0,
            spill_bytes: 0,
            ..*self
        }
    }
}

/// One measured cell of the suite.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchCell {
    /// Stable id, e.g. `imp/stream/t4/small`.
    pub id: String,
    /// `imp` or `sim`.
    pub algorithm: String,
    /// `mem` or `stream`.
    pub mode: String,
    /// Worker count the cell ran with.
    pub threads: u64,
    /// Dataset scale tag.
    pub scale: String,
    /// Dataset rows.
    pub rows: u64,
    /// Dataset columns.
    pub cols: u64,
    /// Threshold mined at.
    pub threshold: f64,
    /// Rules found (identical on every repeat).
    pub rules: u64,
    /// Measured wall times, in repeat order (seconds).
    pub seconds: Vec<f64>,
    /// Median of `seconds`.
    pub median_seconds: f64,
    /// Median absolute deviation of `seconds`.
    pub mad_seconds: f64,
    /// `counters.rows_scanned / median_seconds`.
    pub rows_per_sec: f64,
    /// `counters.candidates_deleted / median_seconds`.
    pub deletions_per_sec: f64,
    /// `spill_bytes / median_seconds` (zero for in-memory cells).
    pub spill_bytes_per_sec: f64,
    /// Counter fingerprint (identical on every repeat).
    pub counters: CounterFingerprint,
}

/// A complete suite record (serialized as `dmc.bench.v1`).
#[derive(Clone, Debug, PartialEq)]
pub struct BenchSuite {
    /// Schema identifier; [`crate::baseline::BENCH_SCHEMA`] when produced
    /// by [`run_suite`].
    pub schema: String,
    /// Record name from the config.
    pub name: String,
    /// Scale tags covered.
    pub scales: Vec<String>,
    /// Distinct worker counts of the cells, ascending (mining cells are
    /// `t1`; the shard cells run one worker per shard).
    pub threads: Vec<u64>,
    /// Warm-up passes per cell.
    pub warmup: u64,
    /// Measured passes per cell.
    pub repeats: u64,
    /// All cells, in matrix order.
    pub cells: Vec<BenchCell>,
}

impl BenchSuite {
    /// The cell with the given id, if present.
    #[must_use]
    pub fn cell(&self, id: &str) -> Option<&BenchCell> {
        self.cells.iter().find(|c| c.id == id)
    }
}

/// Median of `values` (which need not be sorted). Zero for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median absolute deviation around [`median`].
#[must_use]
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let deviations: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&deviations)
}

/// Runs one pass of a cell and returns its run report.
///
/// # Panics
///
/// Panics if the report fails its reconciliation identities — a timing
/// measured against unreconciled counters is not evidence.
fn run_cell_once(
    matrix: &SparseMatrix,
    algorithm: Algorithm,
    mode: Mode,
    config: &SuiteConfig,
    id: &str,
) -> RunReport {
    let rows =
        || -> Vec<Result<Vec<u32>, Infallible>> { matrix.rows().map(|r| Ok(r.to_vec())).collect() };
    let report = match (algorithm, mode) {
        (Algorithm::Implication, Mode::InMemory) => {
            Miner::implications(config.minconf)
                .mine(matrix)
                .expect("in-memory mines cannot fail")
                .report
        }
        (Algorithm::Implication, Mode::Streamed) => {
            Miner::implications(config.minconf)
                .mine_streamed(rows(), matrix.n_cols())
                .expect("in-memory row replay cannot fail")
                .report
        }
        (Algorithm::Similarity, Mode::InMemory) => {
            Miner::similarities(config.minsim)
                .mine(matrix)
                .expect("in-memory mines cannot fail")
                .report
        }
        (Algorithm::Similarity, Mode::Streamed) => {
            Miner::similarities(config.minsim)
                .mine_streamed(rows(), matrix.n_cols())
                .expect("in-memory row replay cannot fail")
                .report
        }
    };
    assert!(
        report.reconciles(),
        "{id}: run report failed reconciliation"
    );
    report
}

/// The `{imp,sim}/{mem,stream}/t1/{scale}` driver cell: one mine per
/// pass through the [`Miner`] facade, timed by the driver's own
/// `wall_seconds`.
fn driver_cell(
    matrix: &SparseMatrix,
    scale: Scale,
    algorithm: Algorithm,
    mode: Mode,
    config: &SuiteConfig,
) -> BenchCell {
    let id = format!("{}/{}/t1/{}", algorithm.tag(), mode.tag(), scale_tag(scale));
    let mut rules = None;
    let (seconds, fp) = measure(config, &id, || {
        let report = run_cell_once(matrix, algorithm, mode, config, &id);
        let n = report.rules as u64;
        assert_eq!(
            *rules.get_or_insert(n),
            n,
            "{id}: rule count drifted between repeats"
        );
        (report.wall_seconds, CounterFingerprint::of(&report))
    });
    let threshold = match algorithm {
        Algorithm::Implication => config.minconf,
        Algorithm::Similarity => config.minsim,
    };
    let spec = CellSpec {
        family: algorithm.tag(),
        mode: mode.tag(),
        threads: 1,
        scale,
        matrix_shape: (matrix.n_rows() as u64, matrix.n_cols() as u64),
        threshold,
        rules: rules.expect("repeats >= 1"),
    };
    let mut cell = family_cell(spec, seconds, fp);
    if cell.median_seconds > 0.0 {
        cell.spill_bytes_per_sec = fp.spill_bytes as f64 / cell.median_seconds;
    }
    cell
}

/// Point queries per pass of the `engine/query` cell.
const QUERY_PASSES: u64 = 20_000;
/// Rows per [`Engine::ingest`] batch in the `engine/ingest` cell.
const INGEST_BATCH_ROWS: usize = 512;
/// Fraction of rows mined up front in the `engine/ingest` cell; the rest
/// arrive through ingest batches.
const INGEST_BASE_FRACTION: (usize, usize) = (3, 4);

/// Advances a splitmix-style LCG and returns a column id below `cols`.
fn next_column(state: &mut u64, cols: u64) -> u32 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 33) % cols) as u32
}

/// Identity and workload shape of a non-driver cell — everything about
/// it except the measurements.
struct CellSpec<'a> {
    family: &'a str,
    mode: &'a str,
    threads: u64,
    scale: Scale,
    matrix_shape: (u64, u64),
    threshold: f64,
    rules: u64,
}

/// Assembles a [`BenchCell`] from per-repeat seconds and the (repeat-
/// invariant) counter fingerprint, mirroring the driver cells' rate
/// derivations — for engine cells `rows_per_sec` is queries/sec or
/// ingested rows/sec, depending on what `rows_scanned` counts; for shard
/// cells it is shard-scans/sec (each worker re-scans every row).
fn family_cell(spec: CellSpec, seconds: Vec<f64>, fp: CounterFingerprint) -> BenchCell {
    let CellSpec {
        family,
        mode,
        threads,
        scale,
        matrix_shape,
        threshold,
        rules,
    } = spec;
    let median_seconds = median(&seconds);
    let mad_seconds = mad(&seconds);
    let rate = |work: u64| {
        if median_seconds > 0.0 {
            work as f64 / median_seconds
        } else {
            0.0
        }
    };
    BenchCell {
        id: format!("{family}/{mode}/t{threads}/{}", scale_tag(scale)),
        algorithm: family.into(),
        mode: mode.into(),
        threads,
        scale: scale_tag(scale).into(),
        rows: matrix_shape.0,
        cols: matrix_shape.1,
        threshold,
        rules,
        median_seconds,
        mad_seconds,
        rows_per_sec: rate(fp.rows_scanned),
        deletions_per_sec: rate(fp.candidates_deleted),
        spill_bytes_per_sec: 0.0,
        seconds,
        counters: fp,
    }
}

/// The `engine/query/t1/{scale}` cell: [`QUERY_PASSES`] deterministic
/// pseudo-random point queries against a mined engine. `rows_scanned`
/// counts queries, so `rows_per_sec` is queries per second;
/// `rules_emitted` counts qualifying answers (a repeat-invariance check
/// that the engine answered, not just returned).
fn engine_query_cell(matrix: &SparseMatrix, scale: Scale, config: &SuiteConfig) -> BenchCell {
    let id = format!("engine/query/t1/{}", scale_tag(scale));
    let mut engine = Engine::new(
        MineConfig::implications(config.minconf).expect("suite minconf is valid"),
        matrix.clone(),
    );
    engine.mine();
    let cols = matrix.n_cols() as u64;
    let pass = |engine: &Engine| {
        let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ cols;
        let mut qualifying = 0u64;
        let start = Instant::now();
        for _ in 0..QUERY_PASSES {
            let lhs = next_column(&mut state, cols);
            let rhs = next_column(&mut state, cols);
            let answer = engine.query(lhs, rhs).expect("generated ids are in range");
            qualifying += u64::from(answer.qualifies);
        }
        (start.elapsed().as_secs_f64(), qualifying)
    };
    for _ in 0..config.warmup {
        let _ = pass(&engine);
    }
    let mut seconds = Vec::with_capacity(config.repeats);
    let mut first_qualifying = None;
    for repeat in 0..config.repeats {
        let (secs, qualifying) = pass(&engine);
        match first_qualifying {
            None => first_qualifying = Some(qualifying),
            Some(q0) => assert_eq!(
                qualifying, q0,
                "{id}: qualifying answers drifted between repeats 0 and {repeat}"
            ),
        }
        seconds.push(secs);
    }
    let qualifying = first_qualifying.expect("repeats >= 1");
    let fp = CounterFingerprint {
        rows_scanned: QUERY_PASSES,
        rules_emitted: qualifying,
        ..CounterFingerprint::default()
    };
    family_cell(
        CellSpec {
            family: "engine",
            mode: "query",
            threads: 1,
            scale,
            matrix_shape: (matrix.n_rows() as u64, cols),
            threshold: config.minconf,
            rules: engine.rule_count() as u64,
        },
        seconds,
        fp,
    )
}

/// The `engine/ingest/t1/{scale}` cell: mine the first ¾ of the dataset
/// (untimed), then ingest the remaining quarter in
/// [`INGEST_BATCH_ROWS`]-row batches, re-deriving the rule set after
/// every batch. `rows_scanned` counts ingested rows, so `rows_per_sec`
/// is ingest rows per second. Every repeat asserts the incremental rule
/// set is byte-identical to a from-scratch mine of the full dataset.
fn engine_ingest_cell(matrix: &SparseMatrix, scale: Scale, config: &SuiteConfig) -> BenchCell {
    let id = format!("engine/ingest/t1/{}", scale_tag(scale));
    let rows: Vec<Vec<u32>> = matrix.rows().map(<[u32]>::to_vec).collect();
    let split = rows.len() * INGEST_BASE_FRACTION.0 / INGEST_BASE_FRACTION.1;
    let expected = Miner::implications(config.minconf)
        .mine(matrix)
        .expect("in-memory mines cannot fail")
        .rules;
    let pass = || {
        let base = SparseMatrix::from_rows(matrix.n_cols(), rows[..split].to_vec());
        let mut engine = Engine::new(
            MineConfig::implications(config.minconf).expect("suite minconf is valid"),
            base,
        );
        engine.mine();
        let start = Instant::now();
        for batch in rows[split..].chunks(INGEST_BATCH_ROWS) {
            engine
                .ingest(batch)
                .expect("planted rows are always in range");
        }
        let seconds = start.elapsed().as_secs_f64();
        assert_eq!(
            engine.implication_rules(),
            expected,
            "{id}: incremental ingest diverged from the from-scratch mine"
        );
        let stats = engine.ingest_stats();
        let fp = CounterFingerprint {
            rows_scanned: stats.rows_ingested,
            candidates_admitted: stats.rules_born,
            candidates_deleted: stats.rules_died,
            misses_counted: stats.pairs_bumped,
            rules_emitted: engine.rule_count() as u64,
            spill_bytes: 0,
        };
        (seconds, fp)
    };
    for _ in 0..config.warmup {
        let _ = pass();
    }
    let mut seconds = Vec::with_capacity(config.repeats);
    let mut first: Option<CounterFingerprint> = None;
    for repeat in 0..config.repeats {
        let (secs, fp) = pass();
        match &first {
            None => first = Some(fp),
            Some(fp0) => assert_eq!(
                fp, *fp0,
                "{id}: ingest counters drifted between repeats 0 and {repeat}"
            ),
        }
        seconds.push(secs);
    }
    let fp = first.expect("repeats >= 1");
    family_cell(
        CellSpec {
            family: "engine",
            mode: "ingest",
            threads: 1,
            scale,
            matrix_shape: (matrix.n_rows() as u64, matrix.n_cols() as u64),
            threshold: config.minconf,
            rules: fp.rules_emitted,
        },
        seconds,
        fp,
    )
}

/// Worker-shard count of the shard cell family.
const SHARD_WORKERS: usize = 4;

/// Warm-up + measured passes of one cell body, asserting the counter
/// fingerprint is repeat-invariant.
fn measure(
    config: &SuiteConfig,
    id: &str,
    mut pass: impl FnMut() -> (f64, CounterFingerprint),
) -> (Vec<f64>, CounterFingerprint) {
    for _ in 0..config.warmup {
        let _ = pass();
    }
    let mut seconds = Vec::with_capacity(config.repeats);
    let mut first: Option<CounterFingerprint> = None;
    for repeat in 0..config.repeats {
        let (secs, fp) = pass();
        match &first {
            None => first = Some(fp),
            Some(fp0) => assert_eq!(
                fp, *fp0,
                "{id}: counters drifted between repeats 0 and {repeat}"
            ),
        }
        seconds.push(secs);
    }
    (seconds, first.expect("repeats >= 1"))
}

/// The `shard/mine/t4/{scale}` and `shard/merge/t4/{scale}` cells:
/// the full column-sharded pipeline (plan → [`SHARD_WORKERS`] workers
/// writing checksummed spills → fingerprint-verified merge) and the
/// merge step alone over pre-written spills. Every repeat asserts the
/// merged rule set is byte-identical to an unsharded mine, so the cells
/// double as a continuous fidelity check on the shard protocol.
fn shard_cells(matrix: &SparseMatrix, scale: Scale, config: &SuiteConfig) -> Vec<BenchCell> {
    use dmc_core::shard::run_worker;
    use dmc_core::{merge_shards, plan_shards, shard_mine, RetryPolicy};
    use dmc_matrix::spill_io::StdFsIo;

    // Concurrent suite runs in one process (the test harness runs tests
    // in parallel) must not share, and so delete, each other's spills.
    static RUN: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dmc-bench-shard-{}-{}-{}",
        std::process::id(),
        RUN.fetch_add(1, Ordering::Relaxed),
        scale_tag(scale)
    ));
    std::fs::create_dir_all(&dir).expect("bench shard temp dir");
    let cfg = MineConfig::implications(config.minconf).expect("suite minconf is valid");
    let retry = RetryPolicy::none();
    let shape = (matrix.n_rows() as u64, matrix.n_cols() as u64);
    let expected = Miner::implications(config.minconf)
        .mine(matrix)
        .expect("in-memory mines cannot fail")
        .rules;

    let mine_id = format!("shard/mine/t{SHARD_WORKERS}/{}", scale_tag(scale));
    let manifest = dir.join("mine.manifest");
    let (mine_seconds, mine_fp) = measure(config, &mine_id, || {
        let start = Instant::now();
        let merged = shard_mine(
            &StdFsIo,
            &manifest,
            retry,
            &cfg,
            matrix,
            SHARD_WORKERS,
            false,
        )
        .expect("bench shard mine");
        let seconds = start.elapsed().as_secs_f64();
        assert_eq!(
            merged.imp_rules, expected,
            "{mine_id}: merged rules diverged from the unsharded mine"
        );
        assert!(merged.report.reconciles(), "{mine_id}: report reconciles");
        (seconds, CounterFingerprint::of(&merged.report))
    });

    // Merge-only: the spills are written once, untimed, and kept across
    // passes (`keep_shards`), so each pass re-validates and re-unions.
    let merge_id = format!("shard/merge/t{SHARD_WORKERS}/{}", scale_tag(scale));
    let merge_manifest = dir.join("merge.manifest");
    let plan = plan_shards(matrix.n_cols(), SHARD_WORKERS).expect("suite shard plan");
    for index in 0..plan.len() {
        run_worker(&StdFsIo, &merge_manifest, retry, &cfg, matrix, &plan, index)
            .expect("bench shard worker");
    }
    let (merge_seconds, merge_fp) = measure(config, &merge_id, || {
        let start = Instant::now();
        let merged = merge_shards(&StdFsIo, &merge_manifest, plan.len(), retry, true)
            .expect("bench shard merge");
        let seconds = start.elapsed().as_secs_f64();
        assert_eq!(
            merged.imp_rules, expected,
            "{merge_id}: merged rules diverged from the unsharded mine"
        );
        (seconds, CounterFingerprint::of(&merged.report))
    });
    let _ = std::fs::remove_dir_all(&dir);

    let rules = expected.len() as u64;
    let spec = |mode| CellSpec {
        family: "shard",
        mode,
        threads: SHARD_WORKERS as u64,
        scale,
        matrix_shape: shape,
        threshold: config.minconf,
        rules,
    };
    vec![
        family_cell(spec("mine"), mine_seconds, mine_fp),
        family_cell(spec("merge"), merge_seconds, merge_fp),
    ]
}

/// The `compact/base/t1/{scale}` and `compact/expand/t1/{scale}` cells:
/// irredundant-base construction over the mined rule set and the inverse
/// expansion. The mine runs once, untimed, with reverse emission so the
/// base genuinely shrinks; every expand repeat asserts the rebuilt rule
/// set equals the mined one, making the pair a continuous fidelity check
/// on the compaction round trip. `rows_scanned` counts input rules and
/// `rules_emitted` output rules, so `rows_per_sec` is rules through the
/// stage per second.
fn compact_cells(matrix: &SparseMatrix, scale: Scale, config: &SuiteConfig) -> Vec<BenchCell> {
    use dmc_core::compact_implications;
    let shape = (matrix.n_rows() as u64, matrix.n_cols() as u64);
    let rules = Miner::implications(config.minconf)
        .reverse(true)
        .mine(matrix)
        .expect("in-memory mines cannot fail")
        .rules;

    let base_id = format!("compact/base/t1/{}", scale_tag(scale));
    let (base_seconds, base_fp) = measure(config, &base_id, || {
        let start = Instant::now();
        let base = compact_implications(&rules, config.minconf, None);
        let seconds = start.elapsed().as_secs_f64();
        let fp = CounterFingerprint {
            rows_scanned: base.rules_in() as u64,
            rules_emitted: base.rules_in_base() as u64,
            ..CounterFingerprint::default()
        };
        (seconds, fp)
    });

    let expand_id = format!("compact/expand/t1/{}", scale_tag(scale));
    let base = compact_implications(&rules, config.minconf, None);
    let (expand_seconds, expand_fp) = measure(config, &expand_id, || {
        let start = Instant::now();
        let (expanded, _) = base.expand();
        let seconds = start.elapsed().as_secs_f64();
        assert_eq!(
            expanded, rules,
            "{expand_id}: expansion diverged from the mined rule set"
        );
        let fp = CounterFingerprint {
            rows_scanned: base.rules_in_base() as u64,
            rules_emitted: expanded.len() as u64,
            ..CounterFingerprint::default()
        };
        (seconds, fp)
    });

    let spec = |mode, rules| CellSpec {
        family: "compact",
        mode,
        threads: 1,
        scale,
        matrix_shape: shape,
        threshold: config.minconf,
        rules,
    };
    vec![
        family_cell(spec("base", base_fp.rules_emitted), base_seconds, base_fp),
        family_cell(
            spec("expand", expand_fp.rules_emitted),
            expand_seconds,
            expand_fp,
        ),
    ]
}

/// Runs the whole matrix and assembles the suite record.
///
/// `progress` receives one line per finished cell (pass `|_| {}` to run
/// silently).
///
/// # Panics
///
/// Panics when a correctness cross-check fails: a repeat's report does not
/// reconcile, or repeats of a cell disagree on counters or rules.
#[must_use]
pub fn run_suite(config: &SuiteConfig, mut progress: impl FnMut(&str)) -> BenchSuite {
    assert!(config.repeats >= 1, "need at least one measured repeat");
    let mut cells = Vec::new();
    for &scale in &config.scales {
        let matrix = planted_matrix(scale);
        for mode in [Mode::InMemory, Mode::Streamed] {
            for algorithm in [Algorithm::Implication, Algorithm::Similarity] {
                let cell = driver_cell(&matrix, scale, algorithm, mode, config);
                progress(&format!(
                    "{}: median {:.4}s mad {:.4}s ({} rules)",
                    cell.id, cell.median_seconds, cell.mad_seconds, cell.rules
                ));
                cells.push(cell);
            }
        }
        // The engine cell family: persistent-engine point queries and
        // incremental ingest, always single-threaded (both paths hold
        // the engine exclusively, there is no worker fan-out to scale).
        let mut extra = vec![
            engine_query_cell(&matrix, scale, config),
            engine_ingest_cell(&matrix, scale, config),
        ];
        // The shard cell family: the multi-process protocol measured
        // in-process (plan → workers → checksummed merge), plus the merge
        // step alone.
        extra.extend(shard_cells(&matrix, scale, config));
        // The compact cell family: irredundant-base construction and the
        // identity-checked inverse expansion.
        extra.extend(compact_cells(&matrix, scale, config));
        for cell in extra {
            progress(&format!(
                "{}: median {:.4}s mad {:.4}s ({} rules)",
                cell.id, cell.median_seconds, cell.mad_seconds, cell.rules
            ));
            cells.push(cell);
        }
    }
    let mut threads: Vec<u64> = cells.iter().map(|c| c.threads).collect();
    threads.sort_unstable();
    threads.dedup();
    BenchSuite {
        schema: crate::baseline::BENCH_SCHEMA.into(),
        name: config.name.clone(),
        scales: config.scales.iter().map(|s| scale_tag(*s).into()).collect(),
        threads,
        warmup: config.warmup as u64,
        repeats: config.repeats as u64,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad_basics() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mad(&[1.0, 1.0, 1.0]), 0.0);
        // median 3, deviations {2,1,0,1,2} -> mad 1.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 5.0]), 1.0);
    }

    #[test]
    fn fingerprint_work_counters_ignore_rows_and_spill() {
        let a = CounterFingerprint {
            rows_scanned: 10,
            candidates_admitted: 5,
            candidates_deleted: 3,
            misses_counted: 7,
            rules_emitted: 2,
            spill_bytes: 100,
        };
        let b = CounterFingerprint {
            rows_scanned: 40,
            spill_bytes: 0,
            ..a
        };
        assert_ne!(a, b);
        assert_eq!(a.work_counters(), b.work_counters());
    }

    #[test]
    fn cell_ids_are_stable() {
        assert_eq!(Algorithm::Implication.tag(), "imp");
        assert_eq!(Mode::Streamed.tag(), "stream");
        assert_eq!(scale_tag(Scale::Medium), "medium");
    }
}
