//! The machine-readable run report.
//!
//! A [`RunReport`] rolls one mining run's trajectory — phase timings,
//! typed event counters, per-stage outcomes, the DMC-bitmap switch
//! position and spill volume — into a single value that is attached to
//! the driver output and can be rendered as JSON with
//! [`RunReport::to_json`]. All four drivers (implication/similarity ×
//! in-memory/streamed) populate the same schema, identified by
//! [`RUN_REPORT_SCHEMA`].
//!
//! The report is self-checking: [`RunReport::reconciles`] verifies the
//! §6-style accounting identities (admitted = deleted + emitted per stage,
//! stage sums = run totals, kept rules = rendered rules, switch position
//! within the scanned row range), which the proptest suite exercises on
//! random matrices and CI re-checks on the emitted JSON.

use crate::json::JsonWriter;
use crate::memory::CounterMemory;
use crate::tally::ScanTally;
use crate::timer::PhaseReport;

/// Schema identifier embedded in every JSON report. v2 added the `io`
/// section (spill frame/retry/corruption counters); v3 added
/// `wall_seconds` (driver-measured end-to-end wall clock); v4 added the
/// per-worker `blocks_processed` / `blocks_stolen` counters of the
/// work-assisting block scheduler; v5 added the `serve` and `ingest`
/// sections (null for plain batch runs) reported by long-lived engines;
/// v6 added the `shard` section (null for single-process runs) carrying
/// the per-shard column ranges, rule counts, counter fingerprints and
/// counters of a multi-process `dmc shard` merge; v7 added the
/// `compaction` section (null unless a compaction stage ran) carrying the
/// input/base rule counts, the compaction ratio and the boost histogram
/// of the irredundant rule base; v8 added the `telemetry` section (null
/// unless live telemetry was captured) summarizing the run's registry —
/// named counters plus per-histogram count/p50/p90/p99/max — reconciled
/// against the `serve` section's request counter.
pub const RUN_REPORT_SCHEMA: &str = "dmc.run_report.v8";

/// Cumulative incremental-ingest counters of a long-lived engine. `None`
/// in the run report until the engine has ingested at least one batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Ingest calls (row batches) applied since the mine.
    pub batches: u64,
    /// Rows appended across all batches.
    pub rows_ingested: u64,
    /// Tracked-pair hit counters bumped by batch co-occurrences.
    pub pairs_bumped: u64,
    /// Untracked batch-co-occurring pairs recounted from the postings.
    pub pairs_recounted: u64,
    /// Recounted pairs admitted to the rule set.
    pub rules_born: u64,
    /// Tracked pairs pruned because their budget was exceeded.
    pub rules_died: u64,
}

/// Request-serving counters of a rule-serving daemon. `None` in the run
/// report unless a serving layer attaches them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Client connections accepted.
    pub connections: u64,
    /// Requests answered (including error responses).
    pub requests: u64,
    /// Requests answered with an error response.
    pub errors: u64,
}

/// Spill I/O counters for one out-of-core run: how many frames crossed
/// the disk boundary, how often transient faults were retried, and how
/// many frames the integrity checks rejected. `None` in the run report
/// for in-memory runs (no spill).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoReport {
    /// Row frames written to the spill during the pre-scan.
    pub frames_written: u64,
    /// Row frames decoded across all replays.
    pub frames_read: u64,
    /// Full spill replays (one per counting stage).
    pub replays: u64,
    /// Write calls retried after a transient failure.
    pub write_retries: u64,
    /// Read calls retried after a transient failure.
    pub read_retries: u64,
    /// Frames rejected by the checksum/framing guards.
    pub corrupt_frames: u64,
}

/// One shard's manifest entry inside a merged (multi-process) run report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardSummary {
    /// Shard index (0-based, dense).
    pub index: usize,
    /// First LHS column owned by the shard (inclusive).
    pub col_lo: u32,
    /// One past the last LHS column owned by the shard.
    pub col_hi: u32,
    /// Rules the shard emitted (including its reverse rules).
    pub rules: u64,
    /// CRC32 counter fingerprint over the shard's header and rule bytes.
    pub fingerprint: u32,
    /// The shard worker's run-level event counters.
    pub counters: ScanTally,
}

/// The shard section of a merged run report: one entry per worker, in
/// shard order. `None` for single-process runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// Number of shards the column range was split into.
    pub n_shards: usize,
    /// Per-shard manifest entries, ordered by shard index.
    pub shards: Vec<ShardSummary>,
}

/// Number of buckets in [`CompactionReport::boost_hist`].
pub const BOOST_HIST_BUCKETS: usize = 6;

/// The compaction section of a run report: how far the post-mining
/// compaction stage shrank the rule set, and the confidence-boost
/// distribution of the surviving base. `None` unless a compaction stage
/// ran.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompactionReport {
    /// Rules fed into compaction (reverse rules included).
    pub rules_in: u64,
    /// Rules in the irredundant base (always ≤ `rules_in`; the dropped
    /// rules are reconstructed exactly by expansion).
    pub rules_in_base: u64,
    /// `rules_in_base / rules_in` (1.0 for an empty input).
    pub ratio: f64,
    /// Histogram of base-rule boosts: `< 1.0`, `[1.0, 1.05)`,
    /// `[1.05, 1.25)`, `[1.25, 2.0)`, `[2.0, 4.0)`, `≥ 4.0`. Sums to
    /// `rules_in_base`.
    pub boost_hist: [u64; BOOST_HIST_BUCKETS],
}

impl Default for CompactionReport {
    fn default() -> Self {
        Self {
            rules_in: 0,
            rules_in_base: 0,
            ratio: 1.0,
            boost_hist: [0; BOOST_HIST_BUCKETS],
        }
    }
}

/// One latency histogram's summary inside the run report's `telemetry`
/// section.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetryHistogram {
    /// The instrument's dotted registry name (`"serve.request.rule"`).
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Median latency in microseconds.
    pub p50_us: u64,
    /// 90th-percentile latency in microseconds.
    pub p90_us: u64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: u64,
    /// Largest observed latency in microseconds.
    pub max_us: u64,
}

/// The telemetry section of a run report: a final summary of the live
/// registry (counters and latency histograms) captured when the run shut
/// down. `None` unless a telemetry-aware surface (the serve daemon, the
/// shard coordinator) attached it. Gauges are deliberately absent — they
/// are instantaneous values and carry no information once the run is over.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetryReport {
    /// `(name, value)` for every registered counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Per-histogram summaries, sorted by name.
    pub histograms: Vec<TelemetryHistogram>,
    /// Span events the bounded ring buffer evicted during the run.
    pub events_dropped: u64,
}

impl TelemetryReport {
    /// Summarizes a live registry snapshot into the report form.
    #[must_use]
    pub fn from_snapshot(snapshot: &crate::telemetry::RegistrySnapshot) -> Self {
        Self {
            counters: snapshot.counters.clone(),
            histograms: snapshot
                .histograms
                .iter()
                .map(|(name, h)| TelemetryHistogram {
                    name: name.clone(),
                    count: h.count,
                    p50_us: h.quantile_us(0.50),
                    p90_us: h.quantile_us(0.90),
                    p99_us: h.quantile_us(0.99),
                    max_us: h.max_us,
                })
                .collect(),
            events_dropped: crate::telemetry::events_dropped(),
        }
    }

    /// Total observations across histograms whose name starts with
    /// `prefix`.
    #[must_use]
    pub fn count_with_prefix(&self, prefix: &str) -> u64 {
        self.histograms
            .iter()
            .filter(|h| h.name.starts_with(prefix))
            .map(|h| h.count)
            .sum()
    }
}

/// Outcome of one driver stage (the 100%-rule stage or the sub-100% stage).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageReport {
    /// Event counters summed over the stage's scans (all workers).
    pub tally: ScanTally,
    /// Rules from this stage that survived driver-level filtering.
    pub rules_kept: u64,
    /// Largest candidate count observed in any single counter array.
    pub peak_candidates: usize,
}

impl StageReport {
    /// A stage report from a finished scan's tally.
    #[must_use]
    pub fn new(tally: ScanTally, rules_kept: u64, peak_candidates: usize) -> Self {
        Self {
            tally,
            rules_kept,
            peak_candidates,
        }
    }
}

/// Per-worker aggregate of a multi-worker run: one per worker of the
/// in-memory column-unit implication executor. Sequential runs leave
/// [`RunReport::workers`] empty.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkerSummary {
    /// Worker index (0-based).
    pub worker: usize,
    /// Total busy time across the worker's phases, in seconds.
    pub busy_seconds: f64,
    /// Event counters summed over the worker's stages.
    pub tally: ScanTally,
    /// Peak candidate count in the worker's counter arrays.
    pub peak_candidates: usize,
    /// Row position where this worker observed the bitmap switch.
    pub switch_at: Option<usize>,
    /// Work units this worker claimed (LHS columns, for the column-unit
    /// executor).
    pub blocks_processed: u64,
    /// Claimed blocks whose preferred owner was another worker.
    pub blocks_stolen: u64,
}

/// The full trajectory of one mining run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// `"implication"` or `"similarity"`.
    pub algorithm: &'static str,
    /// `"in-memory"` or `"streamed"`.
    pub mode: &'static str,
    /// Worker threads used (0: a sequential run).
    pub threads: usize,
    /// Rows in the input (after the pre-scan, for streamed runs).
    pub rows: usize,
    /// Columns in the input.
    pub cols: usize,
    /// The confidence / similarity threshold mined at.
    pub threshold: f64,
    /// Rules in the final output.
    pub rules: usize,
    /// Event counters summed over every stage and worker.
    pub counters: ScanTally,
    /// The 100%-rule stage, when the driver ran it.
    pub hundred: Option<StageReport>,
    /// The sub-100% counting stage, when the driver ran it.
    pub sub: Option<StageReport>,
    /// Reversed implication rules appended by `emit_reverse`.
    pub reverse_rules: u64,
    /// Wall-clock phase timings `(name, seconds)`, first-seen order.
    pub phases: Vec<(&'static str, f64)>,
    /// End-to-end wall clock of the driver invocation in seconds, measured
    /// by the driver itself (entry to exit). Covers the gaps between named
    /// phases, so `wall_seconds >=` the phase sum up to timer resolution;
    /// benchmark harnesses should read this instead of re-measuring around
    /// the call.
    pub wall_seconds: f64,
    /// Peak candidate count across all counter arrays.
    pub peak_candidates: usize,
    /// Peak counter-array footprint in bytes (paper's memory model).
    pub peak_counter_bytes: usize,
    /// Global row position of the DMC-bitmap switch, if it happened
    /// (per-worker positions live in [`RunReport::workers`]).
    pub bitmap_switch_at: Option<usize>,
    /// Bytes written to the out-of-core spill (streamed runs).
    pub spill_bytes: u64,
    /// Spill I/O counters (streamed runs; `None` in-memory).
    pub io: Option<IoReport>,
    /// Per-worker aggregates (empty for sequential runs).
    pub workers: Vec<WorkerSummary>,
    /// Request-serving counters (`None` for batch runs; a serving layer
    /// attaches them before rendering).
    pub serve: Option<ServeStats>,
    /// Cumulative incremental-ingest counters (`None` for batch runs and
    /// for engines that have not ingested yet).
    pub ingest: Option<IngestStats>,
    /// Per-shard manifest entries of a multi-process merge (`None` for
    /// single-process runs).
    pub shard: Option<ShardReport>,
    /// Rule-base compaction outcome (`None` unless a compaction stage
    /// ran).
    pub compaction: Option<CompactionReport>,
    /// Final live-telemetry summary (`None` unless a telemetry-aware
    /// surface attached it).
    pub telemetry: Option<TelemetryReport>,
}

impl RunReport {
    /// Sum of the named phase timings in seconds (a lower bound on
    /// [`RunReport::wall_seconds`]).
    #[must_use]
    pub fn phase_total_seconds(&self) -> f64 {
        self.phases.iter().map(|(_, s)| s).sum()
    }

    /// Seconds spent in the named phase (zero if the phase never ran).
    #[must_use]
    pub fn phase_seconds(&self, name: &str) -> f64 {
        self.phases
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, s)| *s)
    }

    /// Renders the report as pretty-printed JSON with a fixed key order.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.object();
        w.string("schema", RUN_REPORT_SCHEMA);
        w.string("algorithm", self.algorithm);
        w.string("mode", self.mode);
        w.uint("threads", self.threads as u64);
        w.uint("rows", self.rows as u64);
        w.uint("cols", self.cols as u64);
        w.float("threshold", self.threshold);
        w.uint("rules", self.rules as u64);
        write_tally(&mut w, "counters", &self.counters);
        match &self.hundred {
            Some(stage) => write_stage(&mut w, "hundred_stage", stage),
            None => w.null("hundred_stage"),
        }
        match &self.sub {
            Some(stage) => write_stage(&mut w, "sub_stage", stage),
            None => w.null("sub_stage"),
        }
        w.uint("reverse_rules", self.reverse_rules);
        w.array_key("phases");
        for (name, seconds) in &self.phases {
            w.object();
            w.string("phase", name);
            w.float("seconds", *seconds);
            w.end_object();
        }
        w.end_array();
        w.float("wall_seconds", self.wall_seconds);
        w.uint("peak_candidates", self.peak_candidates as u64);
        w.uint("peak_counter_bytes", self.peak_counter_bytes as u64);
        w.opt_uint("bitmap_switch_at", self.bitmap_switch_at.map(|v| v as u64));
        w.uint("spill_bytes", self.spill_bytes);
        match &self.io {
            Some(io) => {
                w.object_key("io");
                w.uint("frames_written", io.frames_written);
                w.uint("frames_read", io.frames_read);
                w.uint("replays", io.replays);
                w.uint("write_retries", io.write_retries);
                w.uint("read_retries", io.read_retries);
                w.uint("corrupt_frames", io.corrupt_frames);
                w.end_object();
            }
            None => w.null("io"),
        }
        w.array_key("workers");
        for worker in &self.workers {
            w.object();
            w.uint("worker", worker.worker as u64);
            w.float("busy_seconds", worker.busy_seconds);
            write_tally(&mut w, "counters", &worker.tally);
            w.uint("peak_candidates", worker.peak_candidates as u64);
            w.opt_uint("switch_at", worker.switch_at.map(|v| v as u64));
            w.uint("blocks_processed", worker.blocks_processed);
            w.uint("blocks_stolen", worker.blocks_stolen);
            w.end_object();
        }
        w.end_array();
        match &self.serve {
            Some(s) => {
                w.object_key("serve");
                w.uint("connections", s.connections);
                w.uint("requests", s.requests);
                w.uint("errors", s.errors);
                w.end_object();
            }
            None => w.null("serve"),
        }
        match &self.ingest {
            Some(i) => {
                w.object_key("ingest");
                w.uint("batches", i.batches);
                w.uint("rows_ingested", i.rows_ingested);
                w.uint("pairs_bumped", i.pairs_bumped);
                w.uint("pairs_recounted", i.pairs_recounted);
                w.uint("rules_born", i.rules_born);
                w.uint("rules_died", i.rules_died);
                w.end_object();
            }
            None => w.null("ingest"),
        }
        match &self.shard {
            Some(s) => {
                w.object_key("shard");
                w.uint("n_shards", s.n_shards as u64);
                w.array_key("shards");
                for entry in &s.shards {
                    w.object();
                    w.uint("index", entry.index as u64);
                    w.uint("col_lo", u64::from(entry.col_lo));
                    w.uint("col_hi", u64::from(entry.col_hi));
                    w.uint("rules", entry.rules);
                    w.uint("fingerprint", u64::from(entry.fingerprint));
                    write_tally(&mut w, "counters", &entry.counters);
                    w.end_object();
                }
                w.end_array();
                w.end_object();
            }
            None => w.null("shard"),
        }
        match &self.compaction {
            Some(c) => {
                w.object_key("compaction");
                w.uint("rules_in", c.rules_in);
                w.uint("rules_in_base", c.rules_in_base);
                w.float("ratio", c.ratio);
                w.array_key("boost_hist");
                for &bucket in &c.boost_hist {
                    w.item_uint(bucket);
                }
                w.end_array();
                w.end_object();
            }
            None => w.null("compaction"),
        }
        match &self.telemetry {
            Some(t) => {
                w.object_key("telemetry");
                w.object_key("counters");
                for (name, v) in &t.counters {
                    w.uint(name, *v);
                }
                w.end_object();
                w.array_key("histograms");
                for h in &t.histograms {
                    w.object();
                    w.string("name", &h.name);
                    w.uint("count", h.count);
                    w.uint("p50_us", h.p50_us);
                    w.uint("p90_us", h.p90_us);
                    w.uint("p99_us", h.p99_us);
                    w.uint("max_us", h.max_us);
                    w.end_object();
                }
                w.end_array();
                w.uint("events_dropped", t.events_dropped);
                w.end_object();
            }
            None => w.null("telemetry"),
        }
        w.end_object();
        w.finish()
    }

    /// Checks the report's accounting identities.
    ///
    /// * each stage tally reconciles (admitted = deleted + emitted),
    /// * run counters equal the sum of the stage tallies,
    /// * rendered rules equal kept 100%-stage rules + kept sub-stage rules
    ///   + reversed rules,
    /// * worker tallies (when present) sum to the run counters,
    /// * the switch position and per-stage rows stay within the scanned
    ///   row range.
    #[must_use]
    pub fn reconciles(&self) -> bool {
        let mut stage_sum = ScanTally::new();
        let mut kept = self.reverse_rules;
        for stage in self.hundred.iter().chain(self.sub.iter()) {
            if !stage.tally.reconciles() {
                return false;
            }
            stage_sum.merge(&stage.tally);
            kept += stage.rules_kept;
        }
        if stage_sum != self.counters || kept != self.rules as u64 {
            return false;
        }
        if !self.workers.is_empty() {
            let mut worker_sum = ScanTally::new();
            for worker in &self.workers {
                worker_sum.merge(&worker.tally);
                if worker.switch_at.is_some_and(|at| at > self.rows) {
                    return false;
                }
            }
            if worker_sum != self.counters {
                return false;
            }
        }
        if self.bitmap_switch_at.is_some_and(|at| at > self.rows) {
            return false;
        }
        // The io section (streamed runs) has its own identities: every row
        // became exactly one spilled frame, every replay decoded every
        // frame, and a report from a *successful* run carries no corrupt
        // frames (corruption aborts the run before a report exists).
        if let Some(io) = &self.io {
            if io.frames_written != self.rows as u64
                || io.frames_read != io.frames_written * io.replays
                || io.corrupt_frames != 0
            {
                return false;
            }
        }
        // The v5 sections have their own identities: a daemon cannot have
        // erred on more requests than it answered, and an ingesting engine
        // cannot have birthed more rules than it recounted pairs (a birth
        // is an admission from a recount) nor ingested rows without a
        // batch.
        if let Some(s) = &self.serve {
            if s.errors > s.requests {
                return false;
            }
        }
        if let Some(i) = &self.ingest {
            if i.rules_born > i.pairs_recounted || (i.batches == 0 && i.rows_ingested > 0) {
                return false;
            }
        }
        // The v6 shard section: entries are dense by index, every shard's
        // own tally reconciles, the column ranges tile `[0, cols)` exactly
        // (no gap, no overlap), and the per-shard counters and rule counts
        // sum to the merged totals.
        if let Some(s) = &self.shard {
            if s.n_shards != s.shards.len() || s.shards.is_empty() {
                return false;
            }
            let mut shard_sum = ScanTally::new();
            let mut shard_rules = 0u64;
            let mut ranges: Vec<(u32, u32)> = Vec::with_capacity(s.shards.len());
            for (i, entry) in s.shards.iter().enumerate() {
                if entry.index != i || entry.col_lo > entry.col_hi || !entry.counters.reconciles() {
                    return false;
                }
                shard_sum.merge(&entry.counters);
                shard_rules += entry.rules;
                ranges.push((entry.col_lo, entry.col_hi));
            }
            ranges.sort_unstable();
            if ranges.first().map(|r| r.0) != Some(0)
                || ranges.last().map(|r| r.1) != Some(self.cols as u32)
                || ranges.windows(2).any(|w| w[0].1 != w[1].0)
            {
                return false;
            }
            if shard_sum != self.counters || shard_rules != self.rules as u64 {
                return false;
            }
        }
        // The v7 compaction section: the base can never exceed the input
        // (every drop is a provable redundancy), the boost histogram
        // accounts for every base rule exactly once, and the recorded
        // ratio matches the counts (1.0 by convention for empty input).
        if let Some(c) = &self.compaction {
            if c.rules_in_base > c.rules_in {
                return false;
            }
            if c.boost_hist.iter().sum::<u64>() != c.rules_in_base {
                return false;
            }
            let expected = if c.rules_in == 0 {
                1.0
            } else {
                c.rules_in_base as f64 / c.rules_in as f64
            };
            if (c.ratio - expected).abs() > 1e-9 {
                return false;
            }
        }
        // The v8 telemetry section: quantiles are monotone and bounded by
        // the recorded max (the bucket scheme guarantees it, so a report
        // violating it was tampered with), an empty histogram has all-zero
        // latencies, and — because the daemon times *every* received frame
        // into exactly one `serve.request.*` histogram (parse failures and
        // shutdown included) — the per-type request counts must sum to the
        // serve section's request counter exactly.
        if let Some(t) = &self.telemetry {
            for h in &t.histograms {
                if h.p50_us > h.p90_us || h.p90_us > h.p99_us || h.p99_us > h.max_us {
                    return false;
                }
                if h.count == 0 && h.max_us != 0 {
                    return false;
                }
            }
            if let Some(s) = &self.serve {
                if t.count_with_prefix("serve.request.") != s.requests {
                    return false;
                }
            }
        }
        // Each stage scans every row once per participating worker.
        let scans = self.threads.max(1) as u64;
        let per_stage_cap = self.rows as u64 * scans;
        self.hundred
            .iter()
            .chain(self.sub.iter())
            .all(|stage| stage.tally.rows_scanned <= per_stage_cap)
    }
}

fn write_tally(w: &mut JsonWriter, key: &str, tally: &ScanTally) {
    w.object_key(key);
    w.uint("rows_scanned", tally.rows_scanned);
    w.uint("candidates_admitted", tally.candidates_admitted);
    w.uint("candidates_deleted", tally.candidates_deleted);
    w.uint("misses_counted", tally.misses_counted);
    w.uint("rules_emitted", tally.rules_emitted);
    w.end_object();
}

fn write_stage(w: &mut JsonWriter, key: &str, stage: &StageReport) {
    w.object_key(key);
    write_tally(w, "counters", &stage.tally);
    w.uint("rules_kept", stage.rules_kept);
    w.uint("peak_candidates", stage.peak_candidates as u64);
    w.end_object();
}

/// Assembles a [`RunReport`] as a driver run progresses.
#[derive(Debug)]
pub struct ReportBuilder {
    report: RunReport,
}

impl ReportBuilder {
    /// Starts a report for one driver invocation.
    #[must_use]
    pub fn new(
        algorithm: &'static str,
        mode: &'static str,
        threads: usize,
        threshold: f64,
    ) -> Self {
        Self {
            report: RunReport {
                algorithm,
                mode,
                threads,
                threshold,
                ..RunReport::default()
            },
        }
    }

    /// Records the input dimensions.
    pub fn dims(&mut self, rows: usize, cols: usize) -> &mut Self {
        self.report.rows = rows;
        self.report.cols = cols;
        self
    }

    /// Records the 100%-rule stage outcome.
    pub fn hundred_stage(&mut self, stage: StageReport) -> &mut Self {
        self.report.hundred = Some(stage);
        self
    }

    /// Records the sub-100% counting stage outcome.
    pub fn sub_stage(&mut self, stage: StageReport) -> &mut Self {
        self.report.sub = Some(stage);
        self
    }

    /// Records how many reversed rules the driver appended.
    pub fn reverse_rules(&mut self, n: u64) -> &mut Self {
        self.report.reverse_rules = n;
        self
    }

    /// Records the per-worker aggregates of a multi-worker run; the run's
    /// `threads` becomes the number of workers.
    pub fn workers(&mut self, workers: Vec<WorkerSummary>) -> &mut Self {
        self.report.threads = workers.len();
        self.report.workers = workers;
        self
    }

    /// Records bytes written to the out-of-core spill.
    pub fn spill_bytes(&mut self, bytes: u64) -> &mut Self {
        self.report.spill_bytes = bytes;
        self
    }

    /// Records the spill I/O counters (streamed runs).
    pub fn io_counters(&mut self, io: IoReport) -> &mut Self {
        self.report.io = Some(io);
        self
    }

    /// Records the driver's end-to-end wall clock. When never called,
    /// [`ReportBuilder::finish`] falls back to the sum of the named phases.
    pub fn wall(&mut self, elapsed: std::time::Duration) -> &mut Self {
        self.report.wall_seconds = elapsed.as_secs_f64();
        self
    }

    /// Finalizes the report from the run-level aggregates.
    #[must_use]
    pub fn finish(
        mut self,
        rules: usize,
        phases: &PhaseReport,
        memory: &CounterMemory,
        bitmap_switch_at: Option<usize>,
    ) -> RunReport {
        self.report.rules = rules;
        self.report.phases = phases
            .phases()
            .iter()
            .map(|(name, d)| (*name, d.as_secs_f64()))
            .collect();
        if self.report.wall_seconds == 0.0 {
            self.report.wall_seconds = phases.total().as_secs_f64();
        }
        self.report.peak_candidates = memory.peak_candidates();
        self.report.peak_counter_bytes = memory.peak_bytes();
        self.report.bitmap_switch_at = bitmap_switch_at;
        let mut counters = ScanTally::new();
        for stage in self.report.hundred.iter().chain(self.report.sub.iter()) {
            counters.merge(&stage.tally);
        }
        self.report.counters = counters;
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;
    use std::time::Duration;

    fn sample_tally(admit: u64, delete: u64, emit: u64) -> ScanTally {
        ScanTally {
            rows_scanned: 10,
            candidates_admitted: admit,
            candidates_deleted: delete,
            misses_counted: 4,
            rules_emitted: emit,
        }
    }

    fn sample_report() -> RunReport {
        let mut timer = crate::timer::PhaseTimer::new();
        timer.record("pre-scan", Duration::from_millis(2));
        timer.record("<100% rules", Duration::from_millis(5));
        let phases = timer.report();
        let mut memory = CounterMemory::new();
        memory.add_list();
        memory.add_candidates(7);

        let mut builder = ReportBuilder::new("implication", "in-memory", 0, 0.9);
        builder
            .dims(10, 5)
            .hundred_stage(StageReport::new(sample_tally(3, 1, 2), 2, 3))
            .sub_stage(StageReport::new(sample_tally(6, 2, 4), 3, 7))
            .reverse_rules(1);
        builder.finish(6, &phases, &memory, Some(8))
    }

    #[test]
    fn builder_sums_stage_counters() {
        let report = sample_report();
        assert_eq!(report.counters.candidates_admitted, 9);
        assert_eq!(report.counters.rules_emitted, 6);
        assert_eq!(report.peak_candidates, 7);
        assert_eq!(report.phases.len(), 2);
        assert!(report.reconciles());
    }

    #[test]
    fn wall_seconds_defaults_to_phase_total_and_accepts_override() {
        let report = sample_report();
        assert!((report.wall_seconds - 0.007).abs() < 1e-9);
        assert!((report.phase_total_seconds() - 0.007).abs() < 1e-9);
        assert!((report.phase_seconds("pre-scan") - 0.002).abs() < 1e-9);
        assert_eq!(report.phase_seconds("absent"), 0.0);

        let mut timer = crate::timer::PhaseTimer::new();
        timer.record("pre-scan", Duration::from_millis(2));
        let mut builder = ReportBuilder::new("implication", "in-memory", 0, 0.9);
        builder.wall(Duration::from_millis(10));
        let report = builder.finish(0, &timer.report(), &CounterMemory::new(), None);
        assert!((report.wall_seconds - 0.010).abs() < 1e-9);

        let v = JsonValue::parse(&report.to_json()).unwrap();
        assert_eq!(
            v.get("wall_seconds").and_then(JsonValue::as_f64),
            Some(0.01)
        );
    }

    #[test]
    fn reconcile_catches_rule_mismatch() {
        let mut report = sample_report();
        report.rules += 1;
        assert!(!report.reconciles());
    }

    #[test]
    fn reconcile_catches_switch_past_rows() {
        let mut report = sample_report();
        report.bitmap_switch_at = Some(report.rows + 1);
        assert!(!report.reconciles());
    }

    fn with_io(mut report: RunReport, io: IoReport) -> RunReport {
        report.io = Some(io);
        report
    }

    fn good_io(rows: u64) -> IoReport {
        IoReport {
            frames_written: rows,
            frames_read: rows * 2,
            replays: 2,
            write_retries: 1,
            read_retries: 3,
            corrupt_frames: 0,
        }
    }

    #[test]
    fn reconcile_accepts_consistent_io_section() {
        let report = sample_report();
        let rows = report.rows as u64;
        assert!(with_io(report, good_io(rows)).reconciles());
    }

    #[test]
    fn reconcile_catches_io_frame_mismatch() {
        let report = sample_report();
        let rows = report.rows as u64;
        let mut io = good_io(rows);
        io.frames_written += 1;
        assert!(!with_io(report.clone(), io).reconciles());

        let mut io = good_io(rows);
        io.frames_read += 1;
        assert!(!with_io(report.clone(), io).reconciles());

        let mut io = good_io(rows);
        io.corrupt_frames = 1;
        assert!(
            !with_io(report, io).reconciles(),
            "a successful run never reports corrupt frames"
        );
    }

    #[test]
    fn io_section_renders_and_defaults_to_null() {
        let report = sample_report();
        let text = report.to_json();
        let v = JsonValue::parse(&text).expect("report JSON parses");
        assert!(
            matches!(v.get("io"), Some(JsonValue::Null)),
            "in-memory runs carry io: null"
        );

        let rows = report.rows as u64;
        let with = with_io(report, good_io(rows));
        let v = JsonValue::parse(&with.to_json()).expect("report JSON parses");
        let io = v.get("io").expect("io object present");
        assert_eq!(
            io.get("frames_written").and_then(JsonValue::as_u64),
            Some(rows)
        );
        assert_eq!(io.get("replays").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(
            io.get("corrupt_frames").and_then(JsonValue::as_u64),
            Some(0)
        );
    }

    #[test]
    fn reconcile_catches_worker_sum_mismatch() {
        let mut report = sample_report();
        report.workers.push(WorkerSummary {
            worker: 0,
            busy_seconds: 0.1,
            tally: sample_tally(1, 0, 1),
            peak_candidates: 2,
            switch_at: None,
            blocks_processed: 1,
            blocks_stolen: 0,
        });
        assert!(!report.reconciles());
    }

    #[test]
    fn serve_and_ingest_sections_render_and_reconcile() {
        let report = sample_report();
        let v = JsonValue::parse(&report.to_json()).unwrap();
        assert!(matches!(v.get("serve"), Some(JsonValue::Null)));
        assert!(matches!(v.get("ingest"), Some(JsonValue::Null)));

        let mut report = sample_report();
        report.serve = Some(ServeStats {
            connections: 3,
            requests: 41,
            errors: 2,
        });
        report.ingest = Some(IngestStats {
            batches: 4,
            rows_ingested: 2000,
            pairs_bumped: 900,
            pairs_recounted: 120,
            rules_born: 5,
            rules_died: 3,
        });
        assert!(report.reconciles());
        let v = JsonValue::parse(&report.to_json()).unwrap();
        assert_eq!(
            v.get("serve")
                .and_then(|s| s.get("requests"))
                .and_then(JsonValue::as_u64),
            Some(41)
        );
        assert_eq!(
            v.get("ingest")
                .and_then(|i| i.get("rows_ingested"))
                .and_then(JsonValue::as_u64),
            Some(2000)
        );

        report.serve.as_mut().unwrap().errors = 99;
        assert!(!report.reconciles(), "errors > requests is impossible");
        report.serve.as_mut().unwrap().errors = 2;
        report.ingest.as_mut().unwrap().rules_born = 1000;
        assert!(!report.reconciles(), "births come from recounts");
    }

    /// Builds a consistent shard section for `sample_report`: two shards
    /// splitting the run counters and rules.
    fn sample_shard_section(report: &RunReport) -> ShardReport {
        let mut left = report.counters;
        left.rows_scanned = 10;
        left.candidates_admitted = 5;
        left.candidates_deleted = 2;
        left.rules_emitted = 3;
        let mut right = report.counters;
        right.rows_scanned = report.counters.rows_scanned - 10;
        right.candidates_admitted = report.counters.candidates_admitted - 5;
        right.candidates_deleted = report.counters.candidates_deleted - 2;
        right.rules_emitted = report.counters.rules_emitted - 3;
        right.misses_counted = 0;
        ShardReport {
            n_shards: 2,
            shards: vec![
                ShardSummary {
                    index: 0,
                    col_lo: 0,
                    col_hi: 2,
                    rules: 2,
                    fingerprint: 0xDEAD_BEEF,
                    counters: left,
                },
                ShardSummary {
                    index: 1,
                    col_lo: 2,
                    col_hi: report.cols as u32,
                    rules: report.rules as u64 - 2,
                    fingerprint: 0x1234_5678,
                    counters: right,
                },
            ],
        }
    }

    #[test]
    fn shard_section_renders_and_reconciles() {
        let report = sample_report();
        let v = JsonValue::parse(&report.to_json()).unwrap();
        assert!(
            matches!(v.get("shard"), Some(JsonValue::Null)),
            "single-process runs carry shard: null"
        );

        let mut report = sample_report();
        report.shard = Some(sample_shard_section(&report));
        assert!(report.reconciles());
        let v = JsonValue::parse(&report.to_json()).unwrap();
        let shard = v.get("shard").expect("shard object present");
        assert_eq!(shard.get("n_shards").and_then(JsonValue::as_u64), Some(2));
        let shards = shard
            .get("shards")
            .and_then(JsonValue::as_array)
            .expect("shards array");
        assert_eq!(shards.len(), 2);
        assert_eq!(
            shards[0].get("fingerprint").and_then(JsonValue::as_u64),
            Some(0xDEAD_BEEF)
        );
    }

    #[test]
    fn shard_reconcile_catches_gap_overlap_and_sum_mismatch() {
        let base = sample_report();

        let mut gap = base.clone();
        let mut section = sample_shard_section(&base);
        section.shards[1].col_lo = 3; // hole between shard 0 and 1
        gap.shard = Some(section);
        assert!(!gap.reconciles(), "range gap must fail");

        let mut overlap = base.clone();
        let mut section = sample_shard_section(&base);
        section.shards[1].col_lo = 1; // overlaps shard 0
        overlap.shard = Some(section);
        assert!(!overlap.reconciles(), "range overlap must fail");

        let mut sum = base.clone();
        let mut section = sample_shard_section(&base);
        section.shards[0].counters.candidates_admitted += 1;
        section.shards[0].counters.rules_emitted += 1;
        sum.shard = Some(section);
        assert!(!sum.reconciles(), "counter sum mismatch must fail");

        let mut rules = base;
        let mut section = sample_shard_section(&rules);
        section.shards[0].rules += 1;
        rules.shard = Some(section);
        assert!(!rules.reconciles(), "rule sum mismatch must fail");
    }

    fn sample_compaction_section() -> CompactionReport {
        CompactionReport {
            rules_in: 10,
            rules_in_base: 4,
            ratio: 0.4,
            boost_hist: [1, 1, 0, 2, 0, 0],
        }
    }

    #[test]
    fn compaction_section_renders_and_reconciles() {
        let report = sample_report();
        let v = JsonValue::parse(&report.to_json()).unwrap();
        assert!(
            matches!(v.get("compaction"), Some(JsonValue::Null)),
            "runs without a compaction stage carry compaction: null"
        );

        let mut report = sample_report();
        report.compaction = Some(sample_compaction_section());
        assert!(report.reconciles());
        let v = JsonValue::parse(&report.to_json()).unwrap();
        let section = v.get("compaction").expect("compaction object present");
        assert_eq!(
            section.get("rules_in").and_then(JsonValue::as_u64),
            Some(10)
        );
        assert_eq!(
            section.get("rules_in_base").and_then(JsonValue::as_u64),
            Some(4)
        );
        assert_eq!(section.get("ratio").and_then(JsonValue::as_f64), Some(0.4));
        let hist = section
            .get("boost_hist")
            .and_then(JsonValue::as_array)
            .expect("boost_hist array");
        assert_eq!(hist.len(), BOOST_HIST_BUCKETS);
        let total: u64 = hist.iter().filter_map(JsonValue::as_u64).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn compaction_reconcile_catches_inflation_and_bad_histogram() {
        let base = sample_report();

        let mut grown = base.clone();
        let mut section = sample_compaction_section();
        section.rules_in_base = section.rules_in + 1;
        section.ratio = section.rules_in_base as f64 / section.rules_in as f64;
        section.boost_hist = [section.rules_in_base, 0, 0, 0, 0, 0];
        grown.compaction = Some(section);
        assert!(!grown.reconciles(), "base larger than input must fail");

        let mut hist = base.clone();
        let mut section = sample_compaction_section();
        section.boost_hist[0] += 1;
        hist.compaction = Some(section);
        assert!(!hist.reconciles(), "histogram sum mismatch must fail");

        let mut ratio = base.clone();
        let mut section = sample_compaction_section();
        section.ratio = 0.7;
        ratio.compaction = Some(section);
        assert!(!ratio.reconciles(), "ratio mismatch must fail");

        let mut empty = base;
        empty.compaction = Some(CompactionReport::default());
        assert!(empty.reconciles(), "empty input with ratio 1.0 reconciles");
    }

    fn sample_telemetry_section(requests: u64) -> TelemetryReport {
        TelemetryReport {
            counters: vec![("serve.bytes_in".to_string(), 512)],
            histograms: vec![
                TelemetryHistogram {
                    name: "serve.request.rule".to_string(),
                    count: requests - 1,
                    p50_us: 4,
                    p90_us: 8,
                    p99_us: 15,
                    max_us: 15,
                },
                TelemetryHistogram {
                    name: "serve.request.stats".to_string(),
                    count: 1,
                    p50_us: 9,
                    p90_us: 9,
                    p99_us: 9,
                    max_us: 9,
                },
            ],
            events_dropped: 0,
        }
    }

    #[test]
    fn telemetry_section_renders_and_reconciles() {
        let report = sample_report();
        let v = JsonValue::parse(&report.to_json()).unwrap();
        assert!(
            matches!(v.get("telemetry"), Some(JsonValue::Null)),
            "runs without telemetry carry telemetry: null"
        );

        let mut report = sample_report();
        report.serve = Some(ServeStats {
            connections: 2,
            requests: 7,
            errors: 0,
        });
        report.telemetry = Some(sample_telemetry_section(7));
        assert!(report.reconciles());
        let v = JsonValue::parse(&report.to_json()).unwrap();
        let section = v.get("telemetry").expect("telemetry object present");
        assert_eq!(
            section
                .get("counters")
                .and_then(|c| c.get("serve.bytes_in"))
                .and_then(JsonValue::as_u64),
            Some(512)
        );
        let hists = section
            .get("histograms")
            .and_then(JsonValue::as_array)
            .expect("histograms array");
        assert_eq!(hists.len(), 2);
        assert_eq!(
            hists[0].get("name").and_then(JsonValue::as_str),
            Some("serve.request.rule")
        );
        assert_eq!(hists[0].get("p99_us").and_then(JsonValue::as_u64), Some(15));
    }

    #[test]
    fn telemetry_reconcile_catches_count_and_quantile_violations() {
        let mut base = sample_report();
        base.serve = Some(ServeStats {
            connections: 2,
            requests: 7,
            errors: 0,
        });

        let mut short = base.clone();
        short.telemetry = Some(sample_telemetry_section(6));
        assert!(
            !short.reconciles(),
            "histogram counts must sum to serve.requests"
        );

        let mut order = base.clone();
        let mut section = sample_telemetry_section(7);
        section.histograms[0].p50_us = 100; // above p90
        order.telemetry = Some(section);
        assert!(!order.reconciles(), "non-monotone quantiles must fail");

        let mut over_max = base.clone();
        let mut section = sample_telemetry_section(7);
        section.histograms[1].max_us = section.histograms[1].p99_us - 1;
        over_max.telemetry = Some(section);
        assert!(!over_max.reconciles(), "p99 above max must fail");

        let mut ghost = base;
        let mut section = sample_telemetry_section(7);
        section.histograms[1].count = 0;
        section.histograms[0].count += 1; // keep the sum identity intact
        ghost.telemetry = Some(section);
        assert!(!ghost.reconciles(), "an empty histogram cannot carry a max");
    }

    #[test]
    fn telemetry_from_snapshot_summarizes_registry() {
        let registry = crate::telemetry::Registry::new();
        registry.counter("mine.blocks_claimed").add(3);
        let h = registry.histogram("serve.request.rule");
        h.record_us(10);
        h.record_us(1000);
        let t = TelemetryReport::from_snapshot(&registry.snapshot());
        assert_eq!(t.counters, vec![("mine.blocks_claimed".to_string(), 3)]);
        assert_eq!(t.histograms.len(), 1);
        let hist = &t.histograms[0];
        assert_eq!(hist.count, 2);
        assert_eq!(hist.max_us, 1000);
        assert!(hist.p50_us <= hist.p90_us && hist.p99_us <= hist.max_us);
        assert_eq!(t.count_with_prefix("serve.request."), 2);
        assert_eq!(t.count_with_prefix("absent."), 0);
    }

    #[test]
    fn json_round_trips_through_parser() {
        let report = sample_report();
        let text = report.to_json();
        let v = JsonValue::parse(&text).expect("report JSON parses");
        assert_eq!(
            v.get("schema").and_then(JsonValue::as_str),
            Some(RUN_REPORT_SCHEMA)
        );
        assert_eq!(
            v.get("algorithm").and_then(JsonValue::as_str),
            Some("implication")
        );
        assert_eq!(v.get("rules").and_then(JsonValue::as_u64), Some(6));
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("candidates_admitted"))
                .and_then(JsonValue::as_u64),
            Some(9)
        );
        assert_eq!(
            v.get("hundred_stage")
                .and_then(|s| s.get("rules_kept"))
                .and_then(JsonValue::as_u64),
            Some(2)
        );
        assert_eq!(
            v.get("bitmap_switch_at").and_then(JsonValue::as_u64),
            Some(8)
        );
        let phases = v.get("phases").and_then(JsonValue::as_array).unwrap();
        assert_eq!(phases.len(), 2);
        assert_eq!(
            v.get("workers")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(0)
        );
    }
}
