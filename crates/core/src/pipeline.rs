//! The staged DMC pipeline, written once for both measures and both row
//! sources.
//!
//! Every mine runs the same stages (Algorithm 4.2 / Algorithm 5.1):
//!
//! 1. **Pre-scan** — per-column 1-counts and the §4.1 scan order. The
//!    in-memory entry points permute the matrix's rows; the streamed ones
//!    spill rows into density buckets ([`crate::stream`]).
//! 2. **100% stage** — exact rules through the simplified scan (§4.3):
//!    100%-confidence implications or identical columns.
//! 3. **Exact-only removal** — columns whose budget is zero can carry only
//!    exact rules, already found, so the sub-100% scan skips them.
//! 4. **<100% stage** — DMC-base or the similarity scan over the remaining
//!    columns, switching to the DMC-bitmap tail (§4.2) when the
//!    [`SwitchPolicy`] fires.
//!
//! What differs between implications and similarities is captured by
//! [`Measure`], implemented by the two config types. Where the rows come
//! from is captured by a `replay` closure that yields one pass over the
//! rows in scan order per counting stage: borrowed matrix rows for the
//! in-memory drivers (no per-row copy), decoded spill frames for the
//! streamed ones. Both feed [`replay_with_switch`], the only stage loop.

use crate::base::BaseScan;
use crate::config::{ImplicationConfig, SimilarityConfig, SwitchPolicy};
use crate::hundred::{HundredMode, HundredScan};
use crate::imp::ImplicationOutput;
use crate::rules::{ImplicationRule, SimilarityRule};
use crate::sim::{SimScan, SimilarityOutput};
use crate::stream::{io_report, prescan, StreamError};
use crate::threshold::{conf_qualifies, only_exact_rules_conf, only_exact_rules_sim};
use dmc_matrix::order::RowOrder;
use dmc_matrix::spill_io::SpillSettings;
use dmc_matrix::{ColumnId, RowId, SparseMatrix};
use dmc_metrics::{
    CounterMemory, PhaseReport, PhaseTimer, ReportBuilder, RunReport, ScanTally, StageReport,
    WorkerSummary,
};
use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// One counting stage's scan state, as the stage loop drives it.
pub(crate) trait StageScan {
    /// Modeled counter-array footprint, read by the switch policy.
    fn counter_bytes(&self) -> usize;
    /// Processes one row (sorted, deduplicated column ids).
    fn row(&mut self, row: &[ColumnId]);
    /// Takes a memory-history sample after `rows_scanned` rows (a no-op
    /// unless the scan records history).
    fn sample(&mut self, rows_scanned: usize);
    /// Finishes the scan over the unscanned tail rows with bitmaps.
    fn tail(&mut self, tail: &[&[ColumnId]]);
    /// Event counters of the scan so far.
    fn tally(&self) -> ScanTally;
}

impl StageScan for HundredScan {
    fn counter_bytes(&self) -> usize {
        self.memory().current_bytes()
    }
    fn row(&mut self, row: &[ColumnId]) {
        self.process_row(row);
    }
    fn sample(&mut self, rows_scanned: usize) {
        self.sample_memory(rows_scanned);
    }
    fn tail(&mut self, tail: &[&[ColumnId]]) {
        self.finish_with_bitmaps(tail);
    }
    fn tally(&self) -> ScanTally {
        self.tally()
    }
}

impl StageScan for BaseScan {
    fn counter_bytes(&self) -> usize {
        self.memory().current_bytes()
    }
    fn row(&mut self, row: &[ColumnId]) {
        self.process_row(row);
    }
    fn sample(&mut self, rows_scanned: usize) {
        self.sample_memory(rows_scanned);
    }
    fn tail(&mut self, tail: &[&[ColumnId]]) {
        crate::bitmap::finish_with_bitmaps(self, tail);
    }
    fn tally(&self) -> ScanTally {
        self.tally()
    }
}

impl StageScan for SimScan {
    fn counter_bytes(&self) -> usize {
        self.memory_bytes()
    }
    fn row(&mut self, row: &[ColumnId]) {
        self.process_row(row);
    }
    fn sample(&mut self, rows_scanned: usize) {
        self.mem.sample(rows_scanned);
    }
    fn tail(&mut self, tail: &[&[ColumnId]]) {
        self.finish_with_bitmaps(tail);
    }
    fn tally(&self) -> ScanTally {
        self.tally()
    }
}

/// What the pipeline needs to know about the rule measure: implemented by
/// [`ImplicationConfig`] (confidence) and [`SimilarityConfig`] (Jaccard).
pub(crate) trait Measure {
    /// The mined rule type.
    type Rule: Ord;
    /// The sub-100% scan.
    type Scan: StageScan;
    /// The driver output.
    type Output;
    /// The run report's `algorithm` field.
    const ALGORITHM: &'static str;
    /// Which exact rules the 100% stage extracts.
    const EXACT_MODE: HundredMode;

    /// `minconf` or `minsim`.
    fn threshold(&self) -> f64;
    /// Row scan order of the in-memory pre-scan.
    fn row_order(&self) -> &RowOrder;
    /// Spill settings of the streamed pre-scan.
    fn spill(&self) -> &SpillSettings;
    /// Whether the dedicated 100% stage runs before the sub-100% scan.
    fn hundred_stage(&self) -> bool;
    /// The DMC-bitmap switch policy.
    fn switch(&self) -> SwitchPolicy;
    /// Whether the scans record the per-row memory history.
    fn record_history(&self) -> bool;
    /// `true` when a column with `ones` 1s can carry only exact rules.
    fn exact_only(&self, ones: u32) -> bool;
    /// A sub-100% scan over the `active` columns (`None` = all), owning
    /// rules only for the LHS columns in `lhs_mask` (`None` = all).
    fn sub_scan(
        &self,
        ones: Vec<u32>,
        active: Option<Vec<bool>>,
        lhs_mask: Option<&[bool]>,
    ) -> Self::Scan;
    /// Consumes a sub-100% scan: its rules and memory tracker.
    fn scan_parts(scan: Self::Scan) -> (Vec<Self::Rule>, CounterMemory);
    /// Picks this measure's rules from the 100% stage's output.
    fn exact_rules(imp: Vec<ImplicationRule>, sim: Vec<SimilarityRule>) -> Vec<Self::Rule>;
    /// `true` for a rule with at least one miss — the ones the 100% stage
    /// did not already emit.
    fn has_miss(rule: &Self::Rule) -> bool;
    /// The reversed rules to append, if this measure emits any.
    fn reversed(&self, rules: &[Self::Rule]) -> Option<Vec<Self::Rule>>;
    /// Assembles the driver output.
    fn output(
        rules: Vec<Self::Rule>,
        phases: PhaseReport,
        memory: CounterMemory,
        bitmap_switch_at: Option<usize>,
        report: RunReport,
    ) -> Self::Output;
}

impl Measure for ImplicationConfig {
    type Rule = ImplicationRule;
    type Scan = BaseScan;
    type Output = ImplicationOutput;
    const ALGORITHM: &'static str = "implication";
    const EXACT_MODE: HundredMode = HundredMode::Implication;

    fn threshold(&self) -> f64 {
        self.minconf
    }
    fn row_order(&self) -> &RowOrder {
        &self.row_order
    }
    fn spill(&self) -> &SpillSettings {
        &self.spill
    }
    fn hundred_stage(&self) -> bool {
        self.hundred_stage
    }
    fn switch(&self) -> SwitchPolicy {
        self.switch
    }
    fn record_history(&self) -> bool {
        self.record_memory_history
    }
    fn exact_only(&self, ones: u32) -> bool {
        only_exact_rules_conf(u64::from(ones), self.minconf)
    }
    fn sub_scan(
        &self,
        ones: Vec<u32>,
        active: Option<Vec<bool>>,
        lhs_mask: Option<&[bool]>,
    ) -> BaseScan {
        let mut scan = BaseScan::new(
            ones.len(),
            self.minconf,
            ones,
            active,
            self.release_completed,
            self.record_memory_history,
        );
        scan.lhs_mask = lhs_mask.map(<[bool]>::to_vec);
        scan
    }
    fn scan_parts(scan: BaseScan) -> (Vec<ImplicationRule>, CounterMemory) {
        scan.into_parts()
    }
    fn exact_rules(imp: Vec<ImplicationRule>, _: Vec<SimilarityRule>) -> Vec<ImplicationRule> {
        imp
    }
    fn has_miss(rule: &ImplicationRule) -> bool {
        rule.misses() > 0
    }
    fn reversed(&self, rules: &[ImplicationRule]) -> Option<Vec<ImplicationRule>> {
        self.emit_reverse.then(|| {
            rules
                .iter()
                .filter(|r| conf_qualifies(u64::from(r.hits), u64::from(r.rhs_ones), self.minconf))
                .map(ImplicationRule::reversed)
                .collect()
        })
    }
    fn output(
        rules: Vec<ImplicationRule>,
        phases: PhaseReport,
        memory: CounterMemory,
        bitmap_switch_at: Option<usize>,
        report: RunReport,
    ) -> ImplicationOutput {
        ImplicationOutput {
            rules,
            phases,
            memory,
            bitmap_switch_at,
            report,
        }
    }
}

impl Measure for SimilarityConfig {
    type Rule = SimilarityRule;
    type Scan = SimScan;
    type Output = SimilarityOutput;
    const ALGORITHM: &'static str = "similarity";
    const EXACT_MODE: HundredMode = HundredMode::Identical;

    fn threshold(&self) -> f64 {
        self.minsim
    }
    fn row_order(&self) -> &RowOrder {
        &self.row_order
    }
    fn spill(&self) -> &SpillSettings {
        &self.spill
    }
    fn hundred_stage(&self) -> bool {
        self.hundred_stage
    }
    fn switch(&self) -> SwitchPolicy {
        self.switch
    }
    fn record_history(&self) -> bool {
        self.record_memory_history
    }
    fn exact_only(&self, ones: u32) -> bool {
        only_exact_rules_sim(u64::from(ones), self.minsim)
    }
    fn sub_scan(
        &self,
        ones: Vec<u32>,
        active: Option<Vec<bool>>,
        lhs_mask: Option<&[bool]>,
    ) -> SimScan {
        let mut scan = SimScan::new(ones.len(), self, ones, active);
        scan.lhs_mask = lhs_mask.map(<[bool]>::to_vec);
        scan
    }
    fn scan_parts(scan: SimScan) -> (Vec<SimilarityRule>, CounterMemory) {
        scan.into_parts()
    }
    fn exact_rules(_: Vec<ImplicationRule>, sim: Vec<SimilarityRule>) -> Vec<SimilarityRule> {
        sim
    }
    fn has_miss(rule: &SimilarityRule) -> bool {
        rule.hits < rule.union()
    }
    fn reversed(&self, _: &[SimilarityRule]) -> Option<Vec<SimilarityRule>> {
        None
    }
    fn output(
        rules: Vec<SimilarityRule>,
        phases: PhaseReport,
        memory: CounterMemory,
        bitmap_switch_at: Option<usize>,
        report: RunReport,
    ) -> SimilarityOutput {
        SimilarityOutput {
            rules,
            phases,
            memory,
            bitmap_switch_at,
            report,
        }
    }
}

/// The stage loop: feeds `rows` (one pass, in scan order) to `scan` until
/// the switch policy fires, sampling the memory history after every row.
///
/// Returns `None` when every row was scanned, or the switch position and
/// the unscanned tail rows, which the caller hands to [`StageScan::tail`].
/// Borrowed rows stay borrowed: the tail holds the source's own row
/// handles, so an in-memory tail copies no row.
fn replay_with_switch<R, E, S>(
    rows: impl IntoIterator<Item = Result<R, E>>,
    total_rows: usize,
    switch: SwitchPolicy,
    scan: &mut S,
) -> Result<Option<(usize, Vec<R>)>, E>
where
    R: AsRef<[ColumnId]>,
    S: StageScan,
{
    let mut rows = rows.into_iter();
    let mut pos = 0usize;
    loop {
        let remaining = total_rows.saturating_sub(pos);
        if switch.should_switch(remaining, scan.counter_bytes()) {
            // Materialize the tail (bounded by the policy's max_tail_rows).
            let tail = rows.collect::<Result<Vec<R>, E>>()?;
            return Ok(Some((pos, tail)));
        }
        let Some(row) = rows.next() else {
            return Ok(None);
        };
        scan.row(row?.as_ref());
        pos += 1;
        scan.sample(pos);
    }
}

/// Runs the bitmap tail over the rows [`replay_with_switch`] left unscanned.
fn finish_tail<R: AsRef<[ColumnId]>>(scan: &mut impl StageScan, tail: &[R]) {
    let tail: Vec<&[ColumnId]> = tail.iter().map(AsRef::as_ref).collect();
    scan.tail(&tail);
}

/// A pipeline run in progress: the state the pre-scan sets up and the
/// counting stages fill in.
struct Run {
    started: Instant,
    /// Phase timings; the pre-scan runs under `"pre-scan"` before the
    /// stages do.
    timer: PhaseTimer,
    /// The run report under construction.
    report: ReportBuilder,
}

/// The sub-100% stage's column mask: with the exact stage on, columns that
/// can carry only exact rules sit the stage out (`None` = all columns).
fn sub_active<M: Measure>(measure: &M, ones: &[u32]) -> Option<Vec<bool>> {
    measure
        .hundred_stage()
        .then(|| ones.iter().map(|&o| !measure.exact_only(o)).collect())
}

/// Appends the sub-100% stage's rules to `rules` and returns how many
/// it kept. The exact stage already emitted every 0-miss rule (over all
/// columns), so with that stage on only rules with at least one miss
/// are kept, to avoid duplicates. Without the exact stage this scan is
/// the sole source.
fn keep_sub_rules<M: Measure>(
    measure: &M,
    rules: &mut Vec<M::Rule>,
    stage_rules: Vec<M::Rule>,
) -> u64 {
    let before = rules.len();
    if measure.hundred_stage() {
        rules.extend(stage_rules.into_iter().filter(M::has_miss));
    } else {
        rules.extend(stage_rules);
    }
    (rules.len() - before) as u64
}

/// The value of a result that cannot fail.
fn infallible<T>(result: Result<T, Infallible>) -> T {
    match result {
        Ok(value) => value,
        Err(never) => match never {},
    }
}

/// The 100% stage's outcome, for the stages after it.
struct Exact<R> {
    rules: Vec<R>,
    memory: CounterMemory,
    tally: ScanTally,
}

impl Run {
    /// Starts the clock for a run of measure `M` in `mode`
    /// (`"in-memory"` or `"streamed"`).
    fn start<M: Measure>(measure: &M, mode: &'static str) -> Self {
        Self {
            started: Instant::now(),
            timer: PhaseTimer::new(),
            report: ReportBuilder::new(M::ALGORITHM, mode, 0, measure.threshold()),
        }
    }

    /// The in-memory pre-scan: column counts and the scan order.
    fn prescan_in_memory<M: Measure>(
        &mut self,
        matrix: &SparseMatrix,
        measure: &M,
    ) -> (Vec<u32>, Vec<RowId>) {
        let _g = self.timer.enter("pre-scan");
        (
            matrix.column_ones(),
            measure.row_order().permutation(matrix),
        )
    }

    /// Runs the counting stages over the matrix's rows in `order`,
    /// borrowing every row.
    fn in_memory_stages<M: Measure>(
        self,
        matrix: &SparseMatrix,
        measure: &M,
        ones: Vec<u32>,
        order: &[RowId],
        lhs_mask: Option<&[bool]>,
    ) -> M::Output {
        let rows = || Ok(order.iter().map(|&r| Ok(matrix.row(r as usize))));
        infallible(self.stages(measure, matrix.n_rows(), ones, lhs_mask, rows, |_| {}))
    }

    /// The 100% stage, when the measure runs it or the threshold is 1:
    /// exact rules through the simplified scan (§4.3). Records the stage
    /// report.
    fn exact_stage<M, F, I, R, E>(
        &mut self,
        measure: &M,
        n_rows: usize,
        ones: &[u32],
        lhs_mask: Option<&[bool]>,
        replay: &mut F,
    ) -> Result<Option<Exact<M::Rule>>, E>
    where
        M: Measure,
        F: FnMut() -> Result<I, E>,
        I: Iterator<Item = Result<R, E>>,
        R: AsRef<[ColumnId]>,
    {
        if !(measure.hundred_stage() || measure.threshold() >= 1.0) {
            return Ok(None);
        }
        let _span = dmc_metrics::span!("mine.stage.hundred");
        let _g = self.timer.enter("100% rules");
        let mut scan = HundredScan::new(
            ones.len(),
            M::EXACT_MODE,
            ones.to_vec(),
            measure.record_history(),
        );
        if let Some(mask) = lhs_mask {
            scan.set_lhs_mask(mask.to_vec());
        }
        if let Some((_, tail)) = replay_with_switch(replay()?, n_rows, measure.switch(), &mut scan)?
        {
            finish_tail(&mut scan, &tail);
        }
        let tally = scan.tally();
        let (imp, sim, mem) = scan.into_parts();
        let exact = M::exact_rules(imp, sim);
        self.report.hundred_stage(StageReport::new(
            tally,
            exact.len() as u64,
            mem.peak_candidates(),
        ));
        Ok(Some(Exact {
            rules: exact,
            memory: mem,
            tally,
        }))
    }

    /// Runs the counting stages after the pre-scan, then assembles the
    /// output.
    ///
    /// `replay` yields one pass over the `n_rows` rows in scan order; it is
    /// called once per counting stage. `ones` are the pre-scan's column
    /// counts. `lhs_mask` restricts which columns own rules (`None` = all):
    /// masked columns still serve as RHS partners, still appear in tail
    /// bitmaps and keep their pre-scan counts, so each unmasked column's
    /// candidate evolution is byte-identical to the unmasked run — the
    /// shard workers rely on this to make the merged union exact
    /// (DESIGN.md §13). `finish_report` adds source-specific report fields
    /// once the stages are done.
    fn stages<M, F, I, R, E>(
        mut self,
        measure: &M,
        n_rows: usize,
        ones: Vec<u32>,
        lhs_mask: Option<&[bool]>,
        mut replay: F,
        finish_report: impl FnOnce(&mut ReportBuilder),
    ) -> Result<M::Output, E>
    where
        M: Measure,
        F: FnMut() -> Result<I, E>,
        I: Iterator<Item = Result<R, E>>,
        R: AsRef<[ColumnId]>,
    {
        self.report.dims(n_rows, ones.len());
        let mut memory = if measure.record_history() {
            CounterMemory::with_history(4096)
        } else {
            CounterMemory::new()
        };
        let mut rules: Vec<M::Rule> = Vec::new();
        let mut bitmap_switch_at = None;

        if let Some(exact) = self.exact_stage(measure, n_rows, &ones, lhs_mask, &mut replay)? {
            rules.extend(exact.rules);
            memory.absorb_peak(&exact.memory);
        }

        if measure.threshold() < 1.0 {
            let _span = dmc_metrics::span!("mine.stage.sub");
            let active = sub_active(measure, &ones);
            let mut scan = measure.sub_scan(ones, active, lhs_mask);
            let switched = {
                let _g = self.timer.enter("<100% rules");
                replay_with_switch(replay()?, n_rows, measure.switch(), &mut scan)?
            };
            if let Some((pos, tail)) = switched {
                let _g = self.timer.enter("bitmap tail");
                finish_tail(&mut scan, &tail);
                bitmap_switch_at = Some(pos);
            }
            let tally = scan.tally();
            let (stage_rules, mem) = M::scan_parts(scan);
            let kept = keep_sub_rules(measure, &mut rules, stage_rules);
            self.report
                .sub_stage(StageReport::new(tally, kept, mem.peak_candidates()));
            memory.absorb_peak(&mem);
        }

        Ok(self.finish(measure, rules, memory, bitmap_switch_at, finish_report))
    }

    /// Adds the reverse rules, sorts and deduplicates, and assembles the
    /// output and its report.
    fn finish<M: Measure>(
        mut self,
        measure: &M,
        mut rules: Vec<M::Rule>,
        memory: CounterMemory,
        bitmap_switch_at: Option<usize>,
        finish_report: impl FnOnce(&mut ReportBuilder),
    ) -> M::Output {
        if let Some(reversed) = measure.reversed(&rules) {
            self.report.reverse_rules(reversed.len() as u64);
            rules.extend(reversed);
        }
        rules.sort_unstable();
        rules.dedup();
        finish_report(&mut self.report);
        let phases = self.timer.report();
        self.report.wall(self.started.elapsed());
        let report = self
            .report
            .finish(rules.len(), &phases, &memory, bitmap_switch_at);
        M::output(rules, phases, memory, bitmap_switch_at, report)
    }

    /// The column-unit executor's counting stages (DESIGN.md §8).
    ///
    /// The 100% stage runs row-major as in [`Run::stages`]. The sub-100%
    /// stage then builds one postings list per unit column — its rows, in
    /// scan order — and `workers` threads (the calling thread is worker 0)
    /// claim unit columns from a shared cursor, heaviest first, feeding
    /// each column its own rows through [`BaseScan::process_column`]. A
    /// column's candidate list depends only on those rows, so the rules
    /// need no fold: the workers' rules are concatenated, then filtered,
    /// reversed, sorted and deduplicated as in the sequential run.
    ///
    /// Only the lists of in-flight columns are alive, so the §4.2 switch
    /// is never needed: the executor ignores the [`SwitchPolicy`] of the
    /// sub-100% stage and always releases a completed column's list.
    /// Worker 0 also accounts for the shared set-up — the 100% stage and
    /// the postings pass over every row — so the worker tallies sum to the
    /// run's.
    fn column_units(
        mut self,
        matrix: &SparseMatrix,
        config: &ImplicationConfig,
        ones: Vec<u32>,
        order: &[RowId],
        units: &[ColumnId],
        workers: usize,
    ) -> ImplicationOutput {
        let n_rows = matrix.n_rows();
        let n_cols = ones.len();
        self.report.dims(n_rows, n_cols);
        let mut memory = CounterMemory::new();
        let mut rules: Vec<ImplicationRule> = Vec::new();
        let mut setup = ScanTally::new();
        let mut setup_peak = 0;

        let mut rows = || Ok(order.iter().map(|&r| Ok(matrix.row(r as usize))));
        if let Some(exact) = infallible(self.exact_stage(config, n_rows, &ones, None, &mut rows)) {
            rules.extend(exact.rules);
            memory.absorb_peak(&exact.memory);
            setup.merge(&exact.tally);
            setup_peak = exact.memory.peak_candidates();
        }

        let _span = dmc_metrics::span!("mine.stage.sub");
        let postings = {
            let _g = self.timer.enter("postings");
            Postings::build(matrix, order, &ones, units)
        };
        setup.rows(n_rows);
        let active = sub_active(config, &ones).unwrap_or_else(|| vec![true; n_cols]);
        // The cursor only hands out indices: everything the workers read
        // was built before the scope spawned them, so `Relaxed` suffices.
        let cursor = AtomicUsize::new(0);
        let work = |worker: usize| {
            let started = Instant::now();
            let mut scan = BaseScan::new(
                n_cols,
                config.minconf,
                ones.clone(),
                Some(active.clone()),
                true,
                false,
            );
            let mut claimed = 0;
            while let Some(&j) = units.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                claimed += 1;
                for &r in postings.rows(j) {
                    scan.process_column(j, matrix.row(r as usize));
                }
            }
            let tally = scan.tally();
            let (rules, mem) = scan.into_parts();
            let summary = WorkerSummary {
                worker,
                busy_seconds: started.elapsed().as_secs_f64(),
                tally,
                peak_candidates: mem.peak_candidates(),
                switch_at: None,
                blocks_processed: claimed,
                blocks_stolen: 0,
            };
            (summary, rules, mem)
        };
        let done = {
            let _g = self.timer.enter("<100% rules");
            std::thread::scope(|s| {
                let work = &work;
                // A helper that cannot be started leaves its share to the
                // others: the cursor hands out every column regardless.
                let helpers: Vec<_> = (1..workers)
                    .filter_map(|w| {
                        std::thread::Builder::new()
                            .name(format!("dmc-column-{w}"))
                            .spawn_scoped(s, move || work(w))
                            .ok()
                    })
                    .collect();
                let mut done = vec![work(0)];
                done.extend(
                    helpers
                        .into_iter()
                        .map(|h| h.join().expect("column-unit worker panicked")),
                );
                done
            })
        };

        let mut stage_tally = ScanTally::new();
        stage_tally.rows(n_rows);
        let mut stage_peak = 0;
        let mut summaries = Vec::with_capacity(done.len());
        let mut mems = Vec::with_capacity(done.len());
        let mut stage_rules = Vec::new();
        for (worker, (mut summary, worker_rules, mem)) in done.into_iter().enumerate() {
            stage_tally.merge(&summary.tally);
            stage_peak = stage_peak.max(summary.peak_candidates);
            if worker == 0 {
                summary.tally.merge(&setup);
                summary.peak_candidates = summary.peak_candidates.max(setup_peak);
            }
            summary.worker = worker;
            summaries.push(summary);
            mems.push(mem);
            stage_rules.extend(worker_rules);
        }
        let kept = keep_sub_rules(config, &mut rules, stage_rules);
        self.report
            .sub_stage(StageReport::new(stage_tally, kept, stage_peak))
            .workers(summaries);
        memory.absorb_concurrent_peaks(&mems);
        self.finish(config, rules, memory, None, |_| {})
    }
}

/// The rows of each unit column, in scan order, as one flat array (CSR):
/// the postings the column-unit workers read. Non-unit columns own no
/// rows.
struct Postings {
    /// `rows[start[c]..start[c + 1]]` are column `c`'s rows.
    start: Vec<usize>,
    rows: Vec<RowId>,
}

impl Postings {
    fn build(matrix: &SparseMatrix, order: &[RowId], ones: &[u32], units: &[ColumnId]) -> Self {
        let n_cols = ones.len();
        let mut is_unit = vec![false; n_cols];
        for &c in units {
            is_unit[c as usize] = true;
        }
        let mut start = Vec::with_capacity(n_cols + 1);
        let mut total = 0usize;
        start.push(0);
        for c in 0..n_cols {
            if is_unit[c] {
                total += ones[c] as usize;
            }
            start.push(total);
        }
        let mut rows = vec![0; total];
        let mut next = start[..n_cols].to_vec();
        for &r in order {
            for &c in matrix.row(r as usize) {
                if is_unit[c as usize] {
                    rows[next[c as usize]] = r;
                    next[c as usize] += 1;
                }
            }
        }
        Self { start, rows }
    }

    fn rows(&self, c: ColumnId) -> &[RowId] {
        &self.rows[self.start[c as usize]..self.start[c as usize + 1]]
    }
}

/// The sub-100% stage's work units: columns that take part in it and
/// occur at least once, heaviest (most 1s) first, ties by column id. Empty
/// when the stage does not run.
fn unit_columns(config: &ImplicationConfig, ones: &[u32]) -> Vec<ColumnId> {
    if config.minconf >= 1.0 {
        return Vec::new();
    }
    let active = sub_active(config, ones);
    let mut units: Vec<ColumnId> = (0..ones.len())
        .filter(|&c| ones[c] > 0 && active.as_ref().is_none_or(|a| a[c]))
        .map(|c| c as ColumnId)
        .collect();
    units.sort_by_key(|&c| (std::cmp::Reverse(ones[c as usize]), c));
    units
}

/// Mines an in-memory matrix: the pre-scan counts columns and orders rows
/// by [`Measure::row_order`], and every stage borrows the matrix's rows.
pub(crate) fn mine_in_memory<M: Measure>(
    matrix: &SparseMatrix,
    measure: &M,
    lhs_mask: Option<&[bool]>,
) -> M::Output {
    let mut run = Run::start(measure, "in-memory");
    let (ones, order) = run.prescan_in_memory(matrix, measure);
    run.in_memory_stages(matrix, measure, ones, &order, lhs_mask)
}

/// Mines implications in memory on up to `workers` column-unit workers
/// ([`Run::column_units`]), capped at the number of unit columns.
///
/// With one worker or fewer after the cap — or a memory-history run,
/// whose Fig-3 curve is a row-major trajectory — this is
/// [`mine_in_memory`] exactly.
pub(crate) fn mine_implications_in_memory(
    matrix: &SparseMatrix,
    config: &ImplicationConfig,
    workers: usize,
) -> ImplicationOutput {
    let mut run = Run::start(config, "in-memory");
    let (ones, order) = run.prescan_in_memory(matrix, config);
    let units = if workers > 1 && !config.record_memory_history {
        unit_columns(config, &ones)
    } else {
        Vec::new()
    };
    let workers = workers.min(units.len());
    if workers <= 1 {
        return run.in_memory_stages(matrix, config, ones, &order, None);
    }
    run.column_units(matrix, config, ones, &order, &units, workers)
}

/// Mines a fallible row stream out-of-core: the pre-scan spills rows into
/// density buckets, and every stage replays the spill sparsest-first.
pub(crate) fn mine_streamed<M, I, E>(
    rows: I,
    n_cols: usize,
    measure: &M,
) -> Result<M::Output, StreamError<E>>
where
    M: Measure,
    I: IntoIterator<Item = Result<Vec<ColumnId>, E>>,
{
    let mut run = Run::start(measure, "streamed");
    let (ones, mut spill) = {
        let _g = run.timer.enter("pre-scan");
        prescan(rows, n_cols, measure.spill())?
    };
    let n_rows = spill.rows();
    let spill_bytes = spill.bytes();
    let stats = spill.stats();
    let replay = || Ok(spill.replay()?.map(|row| row.map_err(StreamError::from)));
    run.stages(measure, n_rows, ones, None, replay, |report| {
        report.spill_bytes(spill_bytes);
        report.io_counters(io_report(stats.snapshot()));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        find_implications, find_implications_streamed, find_similarities,
        find_similarities_streamed,
    };

    fn fig2() -> SparseMatrix {
        SparseMatrix::from_rows(
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
        )
    }

    fn rows_of(m: &SparseMatrix) -> Vec<Result<Vec<ColumnId>, Infallible>> {
        m.rows().map(|r| Ok(r.to_vec())).collect()
    }

    fn exact_scan(m: &SparseMatrix) -> HundredScan {
        HundredScan::new(m.n_cols(), HundredMode::Implication, m.column_ones(), false)
    }

    #[test]
    fn stage_loop_hands_back_the_unscanned_tail_without_copying() {
        let m = fig2();
        let mut scan = exact_scan(&m);
        let rows = (0..m.n_rows()).map(|r| Ok::<_, Infallible>(m.row(r)));
        let (pos, tail) =
            replay_with_switch(rows, m.n_rows(), SwitchPolicy::always_at(3), &mut scan)
                .unwrap()
                .expect("the policy fires with three rows left");
        assert_eq!(pos, 6);
        assert_eq!(scan.tally().rows_scanned, 6);
        assert_eq!(tail.len(), 3);
        for (t, row) in tail.iter().enumerate() {
            assert!(
                std::ptr::eq(*row, m.row(6 + t)),
                "tail row {t} borrows the matrix"
            );
        }
    }

    #[test]
    fn stage_loop_without_a_switch_scans_every_row() {
        let m = fig2();
        let mut scan = exact_scan(&m);
        let rows = (0..m.n_rows()).map(|r| Ok::<_, Infallible>(m.row(r)));
        let switched = replay_with_switch(rows, m.n_rows(), SwitchPolicy::never(), &mut scan);
        assert!(matches!(switched, Ok(None)));
        assert_eq!(scan.tally().rows_scanned, m.n_rows() as u64);
    }

    #[test]
    fn stage_loop_stops_at_the_first_source_error() {
        let rows = || vec![Ok(vec![0, 1]), Err("boom"), Ok(vec![1])];
        let mut scan = HundredScan::new(2, HundredMode::Implication, vec![2, 2], false);
        let err = replay_with_switch(rows(), 3, SwitchPolicy::never(), &mut scan).unwrap_err();
        assert_eq!(err, "boom");
        assert_eq!(scan.tally().rows_scanned, 1);
        // An error among the tail rows surfaces too.
        let mut scan = HundredScan::new(2, HundredMode::Implication, vec![2, 2], false);
        let err = replay_with_switch(rows(), 3, SwitchPolicy::always_at(3), &mut scan).unwrap_err();
        assert_eq!(err, "boom");
    }

    #[test]
    fn exact_only_columns_keep_their_exact_rules() {
        // Column 5 appears once: at minconf 0.9 its maxmis is 0, so the
        // staged pipeline removes it from the sub-100% stage (Algorithm
        // 4.2 step 3) yet still reports its exact rules from the 100%
        // stage — matching the single general pass.
        let m = SparseMatrix::from_rows(
            6,
            vec![
                vec![0, 1, 2],
                vec![0, 1, 2, 5],
                vec![0, 1],
                vec![0, 1, 3],
                vec![1, 3, 4],
                vec![0, 2, 4],
                vec![0, 1, 4],
                vec![1, 2, 3],
                vec![0, 1, 2],
                vec![0, 1, 3],
            ],
        );
        for &minconf in &[0.9, 0.75, 0.6] {
            let cfg = ImplicationConfig::new(minconf);
            let staged = find_implications(&m, &cfg);
            assert!(
                !staged.rules.is_empty(),
                "test needs a non-trivial rule set at {minconf}"
            );
            let single = find_implications(&m, &cfg.clone().with_hundred_stage(false));
            assert_eq!(staged.rules, single.rules, "minconf={minconf}");
            let streamed = find_implications_streamed(rows_of(&m), m.n_cols(), &cfg).unwrap();
            assert_eq!(streamed.rules, staged.rules, "minconf={minconf}");
        }
        let staged = find_implications(&m, &ImplicationConfig::new(0.9));
        assert!(
            staged.rules.iter().any(|r| r.lhs == 5),
            "column 5's exact rule must come from the 100% stage"
        );
    }

    /// A deterministic pseudo-random matrix with skewed column densities.
    fn skewed(rows: usize, cols: usize, seed: u64) -> SparseMatrix {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let data = (0..rows)
            .map(|_| {
                (0..cols as ColumnId)
                    .filter(|&c| next() % (u64::from(c) + 3) < 2)
                    .collect()
            })
            .collect();
        SparseMatrix::from_rows(cols, data)
    }

    #[test]
    fn unit_columns_are_the_sub_stage_columns_heaviest_first() {
        let ones = [3, 0, 9, 1, 9, 4];
        // minconf 0.6: a column with 1 one has budget 0 (exact-only).
        let cfg = ImplicationConfig::new(0.6);
        assert_eq!(unit_columns(&cfg, &ones), vec![2, 4, 5, 0]);
        let cfg = ImplicationConfig::new(0.6).with_hundred_stage(false);
        assert_eq!(unit_columns(&cfg, &ones), vec![2, 4, 5, 0, 3]);
        assert!(unit_columns(&ImplicationConfig::new(1.0), &ones).is_empty());
    }

    #[test]
    fn postings_hold_each_unit_columns_rows_in_scan_order() {
        let m = fig2();
        let order: Vec<RowId> = vec![8, 0, 2, 7, 1, 5, 3, 4, 6];
        let postings = Postings::build(&m, &order, &m.column_ones(), &[0, 3]);
        assert_eq!(postings.rows(0), &[8, 5, 3, 4, 6]);
        assert_eq!(postings.rows(3), &[7, 1, 5, 4, 6]);
        assert!(postings.rows(1).is_empty(), "not a unit column");
    }

    /// The executor at 2–4 workers (more than this host may have cores:
    /// the dispatcher's core cap is bypassed here) mines the sequential
    /// rules, with a reconciled report and one summary per worker.
    #[test]
    fn column_units_match_the_sequential_mine_at_every_worker_count() {
        for (m, minconf) in [
            (fig2(), 0.6),
            (skewed(300, 24, 7), 0.7),
            (skewed(500, 40, 11), 0.5),
        ] {
            for reverse in [false, true] {
                for hundred in [true, false] {
                    let cfg = ImplicationConfig::new(minconf)
                        .with_reverse(reverse)
                        .with_hundred_stage(hundred)
                        .with_switch(SwitchPolicy::always_at(3));
                    let seq = find_implications(&m, &cfg);
                    let units = unit_columns(&cfg, &m.column_ones()).len();
                    for workers in 2..=4 {
                        let out = mine_implications_in_memory(&m, &cfg, workers);
                        let what = format!("minconf {minconf} reverse {reverse} workers {workers}");
                        assert_eq!(out.rules, seq.rules, "{what}");
                        assert!(out.report.reconciles(), "{what}");
                        assert_eq!(out.report.threads, workers.min(units), "{what}");
                        assert_eq!(out.report.workers.len(), workers.min(units), "{what}");
                        assert_eq!(out.bitmap_switch_at, None, "{what}");
                        let claimed: u64 =
                            out.report.workers.iter().map(|w| w.blocks_processed).sum();
                        assert_eq!(claimed, units as u64, "{what}: every unit claimed once");
                        let phases: Vec<_> = out.report.phases.iter().map(|(n, _)| *n).collect();
                        let want: &[&str] = if hundred {
                            &["pre-scan", "100% rules", "postings", "<100% rules"]
                        } else {
                            &["pre-scan", "postings", "<100% rules"]
                        };
                        assert_eq!(phases, want, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn one_worker_is_the_sequential_mine() {
        let m = skewed(200, 16, 3);
        let cfg = ImplicationConfig::new(0.7).with_switch(SwitchPolicy::always_at(5));
        let seq = find_implications(&m, &cfg);
        for workers in [0, 1] {
            let out = mine_implications_in_memory(&m, &cfg, workers);
            assert_eq!(out.rules, seq.rules);
            assert_eq!(out.bitmap_switch_at, seq.bitmap_switch_at);
            assert_eq!(out.report.counters, seq.report.counters);
            assert_eq!(out.report.threads, 0);
        }
        // A memory-history run keeps its row-major Fig-3 curve.
        let mut cfg = cfg;
        cfg.record_memory_history = true;
        let out = mine_implications_in_memory(&m, &cfg, 4);
        assert!(out.report.workers.is_empty());
        assert!(!out.memory.history().is_empty());
    }

    #[test]
    fn in_memory_and_streamed_runs_report_the_same_stages() {
        let m = fig2();
        let phase_names = |r: &RunReport| r.phases.iter().map(|(n, _)| *n).collect::<Vec<_>>();
        let switch = SwitchPolicy::always_at(3);

        let cfg = ImplicationConfig::new(0.8).with_switch(switch);
        let mem = find_implications(&m, &cfg);
        let streamed = find_implications_streamed(rows_of(&m), m.n_cols(), &cfg).unwrap();
        assert_eq!(streamed.rules, mem.rules);
        assert_eq!(mem.bitmap_switch_at, Some(6));
        assert_eq!(streamed.bitmap_switch_at, mem.bitmap_switch_at);
        assert_eq!(streamed.report.counters, mem.report.counters);
        assert_eq!(streamed.report.hundred, mem.report.hundred);
        assert_eq!(streamed.report.sub, mem.report.sub);
        assert_eq!(
            phase_names(&mem.report),
            ["pre-scan", "100% rules", "<100% rules", "bitmap tail"]
        );
        assert_eq!(phase_names(&streamed.report), phase_names(&mem.report));

        let cfg = SimilarityConfig::new(0.4).with_switch(switch);
        let mem = find_similarities(&m, &cfg);
        let streamed = find_similarities_streamed(rows_of(&m), m.n_cols(), &cfg).unwrap();
        assert_eq!(streamed.rules, mem.rules);
        assert_eq!(streamed.bitmap_switch_at, mem.bitmap_switch_at);
        assert_eq!(streamed.report.counters, mem.report.counters);
        assert_eq!(phase_names(&streamed.report), phase_names(&mem.report));
    }
}
