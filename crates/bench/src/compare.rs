//! Noise-aware comparison of two bench records.
//!
//! A raw wall-time diff on a shared CI runner flaps: the same binary on
//! the same data jitters by scheduler noise, and a gate that fires on
//! jitter trains people to ignore it. The comparator therefore classifies
//! each cell against a **noise band** derived from the measurements
//! themselves — a multiple of the two runs' MADs — widened by a relative
//! floor (small medians have small MADs, but a 2% swing on 40ms is still
//! noise) and an absolute floor (sub-millisecond cells where even the
//! relative floor is below timer resolution). Only a median outside the
//! band counts as a change; inside it, the verdict is `Unchanged`, so
//! comparing a record against itself is always clean.

use crate::baseline::BaselineError;
use crate::suite::BenchSuite;
use crate::table::Table;
use std::fmt;

/// Noise thresholds for verdict classification.
#[derive(Clone, Copy, Debug)]
pub struct Tolerance {
    /// MAD multiplier: the band includes `mad_k * (base.mad + cur.mad)`.
    pub mad_k: f64,
    /// Relative floor: the band is at least `rel_floor * base.median`.
    pub rel_floor: f64,
    /// Absolute floor in seconds: the band is at least this wide.
    pub abs_floor: f64,
}

impl Default for Tolerance {
    fn default() -> Self {
        Self {
            mad_k: 3.0,
            rel_floor: 0.05,
            // The quick matrix's cells sit in the tens of milliseconds,
            // where a shared machine jitters by whole scheduler quanta
            // between back-to-back runs; a sub-20ms swing is noise, not
            // a regression.
            abs_floor: 0.02,
        }
    }
}

impl Tolerance {
    /// Half-width of the noise band around the baseline median, given the
    /// two cells' MADs.
    #[must_use]
    pub fn band(&self, base_median: f64, base_mad: f64, cur_mad: f64) -> f64 {
        (self.mad_k * (base_mad + cur_mad))
            .max(self.rel_floor * base_median)
            .max(self.abs_floor)
    }
}

/// Per-cell classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Current median is more than the band below the baseline.
    Improved,
    /// Current median is within the band of the baseline.
    Unchanged,
    /// Current median is more than the band above the baseline.
    Regressed,
}

impl Verdict {
    /// Lowercase label for tables and JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "REGRESSED",
        }
    }
}

/// One compared cell.
#[derive(Clone, Debug)]
pub struct CellComparison {
    /// Cell id shared by both records.
    pub id: String,
    /// Baseline median (seconds).
    pub base_median: f64,
    /// Current median (seconds).
    pub cur_median: f64,
    /// Band half-width used for this cell (seconds).
    pub band: f64,
    /// `(cur - base) / base`, or 0 when the baseline median is 0.
    pub delta_ratio: f64,
    /// Classification.
    pub verdict: Verdict,
    /// True when the work counters disagree between the records — the two
    /// runs measured different computations, so the timing verdict is
    /// advisory at best.
    pub counters_diverged: bool,
}

/// Result of comparing two records.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Per-cell results, in baseline order.
    pub cells: Vec<CellComparison>,
    /// Tolerance the verdicts were computed with.
    pub tolerance: Tolerance,
}

/// Why two records could not be compared.
#[derive(Debug)]
pub enum CompareError {
    /// A record failed to load or declared the wrong schema.
    Baseline(BaselineError),
    /// The current record lacks a cell the baseline has (or vice versa).
    MissingCell { id: String, side: &'static str },
    /// A record has no cells at all.
    Empty { side: &'static str },
}

impl fmt::Display for CompareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompareError::Baseline(e) => write!(f, "{e}"),
            CompareError::MissingCell { id, side } => {
                write!(f, "cell {id:?} is missing from the {side} record")
            }
            CompareError::Empty { side } => write!(f, "the {side} record has no cells"),
        }
    }
}

impl std::error::Error for CompareError {}

impl From<BaselineError> for CompareError {
    fn from(e: BaselineError) -> Self {
        CompareError::Baseline(e)
    }
}

/// Compares `current` against `baseline`, cell by cell.
///
/// Every baseline cell must exist in the current record and vice versa;
/// a partial run cannot pass the gate by silently skipping its slow
/// cells.
pub fn compare(
    baseline: &BenchSuite,
    current: &BenchSuite,
    tolerance: Tolerance,
) -> Result<Comparison, CompareError> {
    if baseline.cells.is_empty() {
        return Err(CompareError::Empty { side: "baseline" });
    }
    if current.cells.is_empty() {
        return Err(CompareError::Empty { side: "current" });
    }
    for cell in &current.cells {
        if baseline.cell(&cell.id).is_none() {
            return Err(CompareError::MissingCell {
                id: cell.id.clone(),
                side: "baseline",
            });
        }
    }
    let mut cells = Vec::with_capacity(baseline.cells.len());
    for base in &baseline.cells {
        let cur = current
            .cell(&base.id)
            .ok_or_else(|| CompareError::MissingCell {
                id: base.id.clone(),
                side: "current",
            })?;
        let band = tolerance.band(base.median_seconds, base.mad_seconds, cur.mad_seconds);
        let delta = cur.median_seconds - base.median_seconds;
        let verdict = if delta > band {
            Verdict::Regressed
        } else if -delta > band {
            Verdict::Improved
        } else {
            Verdict::Unchanged
        };
        cells.push(CellComparison {
            id: base.id.clone(),
            base_median: base.median_seconds,
            cur_median: cur.median_seconds,
            band,
            delta_ratio: if base.median_seconds > 0.0 {
                delta / base.median_seconds
            } else {
                0.0
            },
            verdict,
            counters_diverged: base.counters.work_counters() != cur.counters.work_counters()
                || base.rules != cur.rules,
        });
    }
    Ok(Comparison { cells, tolerance })
}

impl Comparison {
    /// True when no cell regressed.
    #[must_use]
    pub fn passes(&self) -> bool {
        self.cells.iter().all(|c| c.verdict != Verdict::Regressed)
    }

    /// Cells that regressed.
    #[must_use]
    pub fn regressions(&self) -> Vec<&CellComparison> {
        self.cells
            .iter()
            .filter(|c| c.verdict == Verdict::Regressed)
            .collect()
    }

    /// Renders the verdict table (aligned text, one row per cell).
    #[must_use]
    pub fn render(&self) -> String {
        let mut table = Table::new(vec![
            "cell", "base (s)", "cur (s)", "delta", "band (s)", "verdict",
        ]);
        for c in &self.cells {
            let mut verdict = c.verdict.label().to_string();
            if c.counters_diverged {
                verdict.push_str(" [counters diverged]");
            }
            table.row(vec![
                c.id.clone(),
                format!("{:.4}", c.base_median),
                format!("{:.4}", c.cur_median),
                format!("{:+.1}%", c.delta_ratio * 100.0),
                format!("{:.4}", c.band),
                verdict,
            ]);
        }
        table.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::BENCH_SCHEMA;
    use crate::suite::{BenchCell, BenchSuite, CounterFingerprint};
    use proptest::prelude::*;

    fn cell(id: &str, median: f64, mad: f64) -> BenchCell {
        BenchCell {
            id: id.into(),
            algorithm: "imp".into(),
            mode: "mem".into(),
            threads: 1,
            scale: "small".into(),
            rows: 100,
            cols: 20,
            threshold: 0.9,
            rules: 7,
            median_seconds: median,
            mad_seconds: mad,
            rows_per_sec: 0.0,
            deletions_per_sec: 0.0,
            spill_bytes_per_sec: 0.0,
            seconds: vec![median; 3],
            counters: CounterFingerprint {
                rows_scanned: 200,
                candidates_admitted: 57,
                candidates_deleted: 50,
                misses_counted: 90,
                rules_emitted: 7,
                spill_bytes: 0,
            },
        }
    }

    fn suite(cells: Vec<BenchCell>) -> BenchSuite {
        BenchSuite {
            schema: BENCH_SCHEMA.into(),
            name: "t".into(),
            scales: vec!["small".into()],
            threads: vec![1],
            warmup: 0,
            repeats: 3,
            cells,
        }
    }

    /// MAD term dominant: band = 3 * (0.01 + 0.01) = 0.06 on a 1s median.
    fn tol() -> Tolerance {
        Tolerance {
            mad_k: 3.0,
            rel_floor: 0.05,
            abs_floor: 0.005,
        }
    }

    #[test]
    fn verdicts_at_the_noise_boundary() {
        let base = suite(vec![cell("a", 1.0, 0.01)]);
        // band = max(3*(0.01+0.01), 0.05*1.0, 0.005) = 0.06.
        let just_inside = suite(vec![cell("a", 1.059, 0.01)]);
        let just_over = suite(vec![cell("a", 1.061, 0.01)]);
        let way_under = suite(vec![cell("a", 0.90, 0.01)]);
        assert_eq!(
            compare(&base, &just_inside, tol()).unwrap().cells[0].verdict,
            Verdict::Unchanged
        );
        assert_eq!(
            compare(&base, &just_over, tol()).unwrap().cells[0].verdict,
            Verdict::Regressed
        );
        assert_eq!(
            compare(&base, &way_under, tol()).unwrap().cells[0].verdict,
            Verdict::Improved
        );
    }

    #[test]
    fn relative_floor_absorbs_small_mad_jitter() {
        // Tiny MADs: the 5% relative floor (0.05s on a 1s median) rules.
        let base = suite(vec![cell("a", 1.0, 0.0001)]);
        let inside = suite(vec![cell("a", 1.04, 0.0001)]);
        let outside = suite(vec![cell("a", 1.06, 0.0001)]);
        assert_eq!(
            compare(&base, &inside, tol()).unwrap().cells[0].verdict,
            Verdict::Unchanged
        );
        assert_eq!(
            compare(&base, &outside, tol()).unwrap().cells[0].verdict,
            Verdict::Regressed
        );
    }

    #[test]
    fn absolute_floor_absorbs_sub_millisecond_cells() {
        // 1ms median: MAD and relative bands are microscopic, but the 5ms
        // absolute floor keeps a 3ms swing from gating.
        let base = suite(vec![cell("a", 0.001, 0.00005)]);
        let noisy = suite(vec![cell("a", 0.004, 0.00005)]);
        assert_eq!(
            compare(&base, &noisy, tol()).unwrap().cells[0].verdict,
            Verdict::Unchanged
        );
    }

    #[test]
    fn missing_cells_error_both_ways() {
        let base = suite(vec![cell("a", 1.0, 0.01), cell("b", 1.0, 0.01)]);
        let cur = suite(vec![cell("a", 1.0, 0.01)]);
        match compare(&base, &cur, tol()) {
            Err(CompareError::MissingCell { id, side }) => {
                assert_eq!(id, "b");
                assert_eq!(side, "current");
            }
            other => panic!("expected missing cell, got {other:?}"),
        }
        match compare(&cur, &base, tol()) {
            Err(CompareError::MissingCell { id, side }) => {
                assert_eq!(id, "b");
                assert_eq!(side, "baseline");
            }
            other => panic!("expected missing cell, got {other:?}"),
        }
        assert!(matches!(
            compare(&suite(vec![]), &cur, tol()),
            Err(CompareError::Empty { side: "baseline" })
        ));
    }

    #[test]
    fn counter_divergence_is_flagged_but_not_a_verdict() {
        let base = suite(vec![cell("a", 1.0, 0.01)]);
        let mut changed = cell("a", 1.0, 0.01);
        changed.counters.candidates_deleted += 1;
        let cur = suite(vec![changed]);
        let cmp = compare(&base, &cur, tol()).unwrap();
        assert!(cmp.cells[0].counters_diverged);
        assert_eq!(cmp.cells[0].verdict, Verdict::Unchanged);
        assert!(cmp.render().contains("counters diverged"));
    }

    #[test]
    fn gate_summary_helpers() {
        let base = suite(vec![cell("a", 1.0, 0.01), cell("b", 1.0, 0.01)]);
        let cur = suite(vec![cell("a", 2.0, 0.01), cell("b", 1.0, 0.01)]);
        let cmp = compare(&base, &cur, tol()).unwrap();
        assert!(!cmp.passes());
        assert_eq!(cmp.regressions().len(), 1);
        assert_eq!(cmp.regressions()[0].id, "a");
        assert!(cmp.render().contains("REGRESSED"));
    }

    proptest! {
        /// A record compared against itself is always fully unchanged,
        /// for any positive tolerance and any timings.
        #[test]
        fn self_comparison_is_always_unchanged(
            medians in proptest::collection::vec(0.0f64..100.0, 1..8),
            mads in proptest::collection::vec(0.0f64..1.0, 8),
            mad_k in 0.0f64..10.0,
            rel_floor in 0.0f64..0.5,
            abs_floor in 1e-6f64..0.1,
        ) {
            let cells: Vec<BenchCell> = medians
                .iter()
                .enumerate()
                .map(|(i, &m)| cell(&format!("c{i}"), m, mads[i]))
                .collect();
            let s = suite(cells);
            let t = Tolerance { mad_k, rel_floor, abs_floor };
            let cmp = compare(&s, &s, t).unwrap();
            prop_assert!(cmp.passes());
            for c in &cmp.cells {
                prop_assert_eq!(c.verdict, Verdict::Unchanged);
                prop_assert!(!c.counters_diverged);
            }
        }
    }
}
