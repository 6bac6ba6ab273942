//! Instrumentation substrate for the DMC rule-mining workspace.
//!
//! The paper's evaluation (§6.2) reports two quantities per run:
//!
//! * **execution time**, broken down into pre-scan, 100%-rule extraction and
//!   sub-100%-rule extraction (Fig 6(c)–(f)), and
//! * **the maximum memory size of the counter array** that holds candidate
//!   ids and miss counters (Fig 3, Fig 6(g),(h)).
//!
//! [`PhaseTimer`] provides the first, [`CounterMemory`] the second. Both are
//! plain single-threaded accumulators the algorithms update inline; the
//! experiments harness then renders them into the paper's tables.
//!
//! On top of those accumulators sits the structured observability layer:
//! [`ScanTally`] counts scan events (rows, candidate admissions/deletions,
//! misses, emitted rules), and [`RunReport`] rolls phase times, tallies,
//! stage outcomes, worker aggregates, the bitmap-switch position and spill
//! volume into one machine-readable value ([`RunReport::to_json`]) that
//! every driver attaches to its output. The [`json`] module provides the
//! dependency-free writer/parser pair behind it.
//!
//! The [`telemetry`] module is the *live* counterpart: lock-free latency
//! [`Histogram`]s, [`Counter`]s and [`Gauge`]s in a named [`Registry`],
//! and near-zero-cost hierarchical spans ([`span!`]) — what the serve
//! daemon and the shard coordinator expose while they run, and what the
//! run report's final `telemetry` section summarizes.

pub mod json;
mod memory;
mod report;
mod tally;
pub mod telemetry;
mod timer;

pub use memory::{CounterMemory, MemorySample, COL_OVERHEAD_BYTES, ENTRY_BYTES};
pub use report::{
    CompactionReport, IngestStats, IoReport, ReportBuilder, RunReport, ServeStats, ShardReport,
    ShardSummary, StageReport, TelemetryHistogram, TelemetryReport, WorkerSummary,
    BOOST_HIST_BUCKETS, RUN_REPORT_SCHEMA,
};
pub use tally::ScanTally;
pub use telemetry::{
    Counter, Gauge, Histogram, HistogramSnapshot, Registry, RegistrySnapshot, SpanEvent,
};
pub use timer::{PhaseReport, PhaseTimer};
