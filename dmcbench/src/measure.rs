//! Measurement helpers shared by the workloads: order statistics, the
//! process's peak resident memory, the run outcome, and the span recorder
//! the traced runs use to time calls into each layer from outside.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The end-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// The per-layer metrics every traced run reports, with their units. A
/// workload that bypasses a layer reports 0 for it, with no samples.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("core.prescan_s", "s"),
    ("core.hundred_s", "s"),
    ("core.sub_s", "s"),
    ("core.bitmap_s", "s"),
    ("core.phase_share", "ratio"),
    ("core.admitted", "count"),
    ("core.misses", "count"),
    ("core.admit_yield", "ratio"),
    ("core.peak_counter_mb", "MB"),
    ("core.seq_mine_s", "s"),
    ("fanout.busy_max_s", "s"),
    ("fanout.busy_min_s", "s"),
    ("fanout.busy_skew", "ratio"),
    ("fanout.blocks_stolen", "count"),
    ("matrix.spill_bytes", "bytes"),
    ("matrix.spill_frames_read", "count"),
    ("matrix.spill_retries", "count"),
    ("matrix.spill_write_s", "s"),
    ("matrix.spill_replay_s", "s"),
    ("engine.query_us", "us"),
    ("engine.ingest_ms", "ms"),
    ("engine.pairs_recounted", "count"),
    ("engine.pairs_bumped", "count"),
    ("engine.recount_yield", "ratio"),
    ("engine.remine_s", "s"),
    ("serve.handle_p50_us.rule", "us"),
    ("serve.handle_p50_us.rules_ge", "us"),
    ("serve.handle_p50_us.ingest", "us"),
    ("serve.transport_ms", "ms"),
    ("serve.codec_us", "us"),
    ("serve.write_lock_frac", "ratio"),
    ("loadgen.ingest_late_ms", "ms"),
    ("loadgen.op_p50_ms", "ms"),
    ("loadgen.op_p90_ms", "ms"),
    ("loadgen.ingest_p50_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Observations the value summarises.
    pub samples: usize,
}

/// What one workload run produced: operations attempted and failed (an
/// error or a wrong output), and the metrics of the requested mode.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// The traced run's span summary.
    pub spans: String,
}

impl Outcome {
    /// Records a metric declared in [`END_TO_END`] or [`PER_LAYER`].
    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Reports 0 for every per-layer metric the workload did not record:
    /// the layers it bypasses.
    pub fn fill_bypassed(&mut self) {
        for (name, _) in PER_LAYER {
            if !self.metrics.iter().any(|m| m.name == name) {
                self.metric(name, 0.0, 0);
            }
        }
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// The `q`-quantile by linear interpolation between order statistics
/// (0 for an empty sample).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when the denominator is 0 (a bypassed layer).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Whether operation `i` of a traced run is traced. The pattern traced,
/// untraced, untraced, traced (repeated) balances drift and any effect
/// that alternates from one operation to the next between both halves.
pub fn traced_slot(i: usize) -> bool {
    matches!(i % 4, 0 | 3)
}

/// Tracing overhead from a run that traced half of its operations: the
/// median traced latency over the median untraced one, minus 1.
pub fn overhead(latencies: &[f64], traced: &[bool]) -> f64 {
    let pick = |want: bool| -> Vec<f64> {
        latencies
            .iter()
            .zip(traced)
            .filter(|(_, &t)| t == want)
            .map(|(l, _)| *l)
            .collect()
    };
    let (on, off) = (pick(true), pick(false));
    if on.is_empty() || off.is_empty() {
        0.0
    } else {
        median(&on) / median(&off) - 1.0
    }
}

pub const MIB: f64 = (1u64 << 20) as f64;

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux exposes /proc/self");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line in kB");
    kib / 1024.0
}

/// One timed call: name, interval relative to the tracer's origin, and
/// the enclosing span.
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
}

/// Records spans around calls into the system, kept in memory and
/// summarised when the run ends. A disabled tracer records nothing, so
/// untraced runs pay no cost for it.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Tracer::begin`].
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Self {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A tracer for another thread, on the same clock, to [`absorb`](Self::absorb) later.
    pub fn fork(&self) -> Self {
        Self::new(self.enabled, self.origin)
    }

    /// Opens a span; its parent is the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes a span and returns its duration in seconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let Some(i) = id.0 else { return 0.0 };
        self.spans[i].end = self.origin.elapsed();
        self.open.retain(|&o| o != i);
        (self.spans[i].end - self.spans[i].start).as_secs_f64()
    }

    /// Moves another thread's spans (same origin) in under `parent`.
    pub fn absorb(&mut self, other: Tracer, parent: Option<usize>) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base).or(parent),
            ..s
        }));
    }

    /// Index of the innermost open span.
    pub fn current(&self) -> Option<usize> {
        self.open.last().copied()
    }

    /// Per span name: count, total time and self time (total minus the
    /// time covered by child spans), in first-seen order.
    pub fn summary(&self) -> String {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        let mut out = String::from("span                     count    total_ms     self_ms\n");
        for name in names {
            let (mut count, mut total, mut own) = (0, Duration::ZERO, Duration::ZERO);
            for (i, s) in self
                .spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.name == name)
            {
                count += 1;
                total += s.end - s.start;
                own += (s.end - s.start).saturating_sub(child_time[i]);
            }
            let _ = writeln!(
                out,
                "{name:<24} {count:>6} {:>11.3} {:>11.3}",
                total.as_secs_f64() * 1e3,
                own.as_secs_f64() * 1e3
            );
        }
        out
    }
}

/// A small deterministic generator for the load mix (splitmix64), so the
/// request sequence depends only on the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        std::thread::sleep(Duration::from_millis(5));
        t.end(inner);
        t.end(outer);
        let text = t.summary();
        let outer_line = text.lines().find(|l| l.starts_with("outer")).unwrap();
        let cols: Vec<f64> = outer_line
            .split_whitespace()
            .skip(1)
            .map(|c| c.parse().unwrap())
            .collect();
        assert_eq!(cols[0], 1.0);
        assert!(cols[1] >= 5.0 && cols[2] < cols[1], "{outer_line}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let s = t.begin("x");
        assert_eq!(t.end(s), 0.0);
        assert_eq!(t.summary().lines().count(), 1, "only the header");
    }
}
