//! DMC-sim (Algorithm 5.1): mining similarity rules.
//!
//! Similarity (Jaccard) rules reuse the miss-counting machinery with three
//! twists:
//!
//! * **Per-pair budgets.** The tolerable miss count of a pair depends on
//!   both column sizes (`Sim ≥ minsim ⟺ hits ≥ minsim(|S_i|+|S_j|)/(1+minsim)`),
//!   so each candidate stores its own budget, computed at admission from
//!   [`crate::threshold::max_misses_sim`].
//! * **Column-density pruning (§5.1).** A pair with
//!   `|S_i|/|S_j| < minsim` cannot qualify; such candidates are never
//!   admitted (`max_misses_sim` returns `None`).
//! * **Maximum-hits pruning (§5.2).** Misses are only counted from the
//!   smaller column, but the remaining 1s of *both* columns bound the final
//!   hit count: `ĥ = hits_so_far + min(rem_i, rem_j)`. A candidate whose
//!   optimistic similarity `ĥ/(|S_i|+|S_j|−ĥ)` is below `minsim` is deleted
//!   even if it never misses again (Example 5.1). The check uses the
//!   pre-row snapshot (`cnt` before this row, misses before this row's
//!   update), exactly as in the paper's example.
//!
//! Identical columns (100% similarity) come from the shared exact scan
//! ([`crate::hundred`]); this module's scan finds the sub-100% pairs.

use crate::candidates::{ColumnLists, SimCandidate};
use crate::config::SimilarityConfig;
use crate::fxhash::FxHashMap;
use crate::rules::SimilarityRule;
use crate::threshold::{max_misses_sim, sim_qualifies};
use dmc_bitset::BitMatrix;
use dmc_matrix::{canonical_less, ColumnId, SparseMatrix};
use dmc_metrics::{CounterMemory, PhaseReport, RunReport, ScanTally};

/// Result of [`find_similarities`].
#[derive(Debug)]
pub struct SimilarityOutput {
    /// All qualifying pairs, canonical (`a` before `b`), sorted.
    pub rules: Vec<SimilarityRule>,
    /// Phase breakdown: `pre-scan`, `100% rules`, `<100% rules`,
    /// `bitmap tail`.
    pub phases: PhaseReport,
    /// Counter-array accounting across all stages.
    pub memory: CounterMemory,
    /// Whether the sub-100% stage switched to DMC-bitmap, and after how
    /// many scanned rows.
    pub bitmap_switch_at: Option<usize>,
    /// The machine-readable run report (same schema across all drivers).
    pub report: RunReport,
}

impl SimilarityOutput {
    /// Convenience: `(a, b)` pairs of the rules.
    #[must_use]
    pub fn pairs(&self) -> Vec<(ColumnId, ColumnId)> {
        self.rules.iter().map(|r| (r.a, r.b)).collect()
    }

    /// The `k` pairs with the highest similarity (ties by more hits, then
    /// canonical order).
    ///
    /// Thin wrapper kept for backward compatibility; prefer
    /// [`MinedOutput::top`](crate::MinedOutput::top), which works across
    /// both output types.
    #[must_use]
    pub fn top_by_similarity(&self, k: usize) -> Vec<&SimilarityRule> {
        crate::MinedOutput::top(self, k)
    }

    /// All pairs involving `col` (either side).
    ///
    /// Thin wrapper kept for backward compatibility; prefer
    /// [`MinedOutput::involving`](crate::MinedOutput::involving).
    #[must_use]
    pub fn involving(&self, col: ColumnId) -> Vec<&SimilarityRule> {
        crate::MinedOutput::involving(self, col)
    }
}

/// Mines all similarity rules of `matrix` at `config.minsim`. Exact — no
/// false positives or negatives.
///
/// New code should prefer the [`crate::Miner`] facade
/// (`Miner::similarities(minsim).mine(&matrix)`); this free function
/// remains for backward compatibility.
#[must_use]
pub fn find_similarities(matrix: &SparseMatrix, config: &SimilarityConfig) -> SimilarityOutput {
    find_similarities_masked(matrix, config, None)
}

/// [`find_similarities`] restricted to the LHS (canonically smaller)
/// columns selected by `lhs_mask` (`None` = all). Masked columns still
/// serve as RHS partners — their `cnt` advances so the §5.2 bound reads
/// the same values as in an unmasked run — so each unmasked column's
/// candidate evolution is byte-identical to the unsharded run (DESIGN.md
/// §13).
#[must_use]
pub(crate) fn find_similarities_masked(
    matrix: &SparseMatrix,
    config: &SimilarityConfig,
    lhs_mask: Option<&[bool]>,
) -> SimilarityOutput {
    crate::pipeline::mine_in_memory(matrix, config, lhs_mask)
}

/// The sub-100% similarity scan state.
pub(crate) struct SimScan {
    minsim: f64,
    max_hits_pruning: bool,
    release_completed: bool,
    ones: Vec<u32>,
    cnt: Vec<u32>,
    /// Per-column admission limit: the largest budget any pair of this
    /// column can have (attained at an equal-sized partner). Once
    /// `cnt > limit`, no new candidate can ever be viable.
    admit_limit: Vec<u32>,
    lists: ColumnLists<SimCandidate>,
    active: Vec<bool>,
    /// Optional additional LHS restriction (columns outside it still count
    /// and serve as RHS) — installed by the shard workers so one shard
    /// owns exactly the rules of its LHS-column range.
    pub(crate) lhs_mask: Option<Vec<bool>>,
    done: Vec<bool>,
    rules: Vec<SimilarityRule>,
    pub(crate) mem: CounterMemory,
    pub(crate) tally: ScanTally,
    scratch: Vec<SimCandidate>,
}

impl SimScan {
    pub(crate) fn new(
        n_cols: usize,
        config: &SimilarityConfig,
        ones: Vec<u32>,
        active: Option<Vec<bool>>,
    ) -> Self {
        let m = n_cols;
        assert_eq!(ones.len(), m);
        let admit_limit: Vec<u32> = ones
            .iter()
            .map(|&o| {
                max_misses_sim(u64::from(o), u64::from(o), config.minsim).map_or(0, |b| b as u32)
            })
            .collect();
        let active = active.unwrap_or_else(|| vec![true; m]);
        assert_eq!(active.len(), m);
        Self {
            minsim: config.minsim,
            max_hits_pruning: config.max_hits_pruning,
            release_completed: config.release_completed,
            ones,
            cnt: vec![0; m],
            admit_limit,
            lists: ColumnLists::new(m),
            active,
            lhs_mask: None,
            done: vec![false; m],
            rules: Vec::new(),
            mem: if config.record_memory_history {
                CounterMemory::with_history(4096)
            } else {
                CounterMemory::new()
            },
            tally: ScanTally::new(),
            scratch: Vec::new(),
        }
    }

    pub(crate) fn into_parts(self) -> (Vec<SimilarityRule>, CounterMemory) {
        (self.rules, self.mem)
    }

    /// Event counters of this scan so far.
    pub(crate) fn tally(&self) -> ScanTally {
        self.tally
    }

    /// Modeled counter-array footprint (for switch policies).
    pub(crate) fn memory_bytes(&self) -> usize {
        self.mem.current_bytes()
    }

    #[inline]
    fn is_lhs(&self, j: ColumnId) -> bool {
        let ji = j as usize;
        self.active[ji] && !self.done[ji] && self.lhs_mask.as_ref().is_none_or(|m| m[ji])
    }

    /// Budget for the pair `(j, k)` if it is admissible at all.
    #[inline]
    fn pair_budget(&self, j: ColumnId, k: ColumnId) -> Option<u32> {
        if k == j || !self.active[k as usize] {
            return None;
        }
        let (oj, ok) = (self.ones[j as usize], self.ones[k as usize]);
        if !canonical_less(j, oj, k, ok) {
            return None;
        }
        max_misses_sim(u64::from(oj), u64::from(ok), self.minsim).map(|b| b as u32)
    }

    /// §5.2: `true` if the pair can still reach `minsim`, judged from the
    /// pre-row snapshot (`miss_old` = misses before this row's update).
    #[inline]
    fn max_hits_viable(&self, j: ColumnId, k: ColumnId, miss_old: u32) -> bool {
        if !self.max_hits_pruning {
            return true;
        }
        let (oj, ok) = (self.ones[j as usize], self.ones[k as usize]);
        let (cj, ck) = (self.cnt[j as usize], self.cnt[k as usize]);
        let hits_so_far = cj - miss_old;
        let rem = (oj - cj).min(ok - ck);
        let hat = u64::from(hits_so_far + rem);
        sim_qualifies(hat, u64::from(oj), u64::from(ok), self.minsim)
    }

    pub(crate) fn process_row(&mut self, row: &[ColumnId]) {
        self.tally.row();
        for &j in row {
            let ji = j as usize;
            if !self.is_lhs(j) || self.ones[ji] == 0 {
                continue;
            }
            let cnt_j = self.cnt[ji];
            if cnt_j == 0 {
                self.create_list(j, row);
            } else if cnt_j <= self.admit_limit[ji] {
                self.merge_open(j, row, cnt_j);
            } else {
                self.update_closed(j, row);
            }
        }
        // `cnt` advances for every active column — the §5.2 bound reads the
        // RHS column's remaining count even when that column does not own
        // rules in this scan. Masked-out columns never complete: they own
        // no list and emit no rules.
        for &j in row {
            let ji = j as usize;
            if !self.active[ji] || self.done[ji] || self.ones[ji] == 0 {
                continue;
            }
            self.cnt[ji] += 1;
            if self.cnt[ji] == self.ones[ji] && self.lhs_mask.as_ref().is_none_or(|m| m[ji]) {
                self.complete_column(j);
            }
        }
    }

    fn create_list(&mut self, j: ColumnId, row: &[ColumnId]) {
        let list: Vec<SimCandidate> = row
            .iter()
            .filter_map(|&k| {
                self.pair_budget(j, k).map(|budget| SimCandidate {
                    col: k,
                    miss: 0,
                    budget,
                })
            })
            .collect();
        self.tally.admit(list.len());
        self.lists.install(j, list, &mut self.mem);
    }

    fn merge_open(&mut self, j: ColumnId, row: &[ColumnId], cnt_j: u32) {
        let Some(mut list) = self.lists.take(j) else {
            debug_assert!(false, "open merge on column c{j} without a list");
            self.lists.install(j, Vec::new(), &mut self.mem);
            return;
        };
        let before = list.len();
        self.scratch.clear();
        let mut li = 0;
        let mut ri = 0;
        loop {
            let list_col = list.get(li).map(|c| c.col);
            let row_col = row.get(ri).copied();
            match (list_col, row_col) {
                (Some(lc), Some(rc)) if lc == rc => {
                    // Hit — but §5.2 may still kill the pair (Example 5.1
                    // deletes (c1, c2) at a row where both are 1).
                    let c = list[li];
                    if self.max_hits_viable(j, c.col, c.miss) {
                        self.scratch.push(c);
                    } else {
                        self.tally.delete(1);
                    }
                    li += 1;
                    ri += 1;
                }
                (Some(lc), Some(rc)) if lc < rc => {
                    self.miss_candidate(j, list[li]);
                    li += 1;
                }
                (Some(_), None) => {
                    self.miss_candidate(j, list[li]);
                    li += 1;
                }
                (_, Some(rc)) => {
                    if let Some(budget) = self.pair_budget(j, rc) {
                        if cnt_j <= budget {
                            let cand = SimCandidate {
                                col: rc,
                                miss: cnt_j,
                                budget,
                            };
                            if self.max_hits_viable(j, rc, cnt_j) {
                                self.tally.admit(1);
                                self.scratch.push(cand);
                            }
                        }
                    }
                    ri += 1;
                }
                (None, None) => break,
            }
        }
        std::mem::swap(&mut list, &mut self.scratch);
        let after = list.len();
        if after > before {
            self.mem.add_candidates(after - before);
        } else {
            self.mem.remove_candidates(before - after);
        }
        self.lists.put_back(j, list);
    }

    /// Applies a miss to a candidate during the open merge; pushes the
    /// survivor into `scratch`.
    #[inline]
    fn miss_candidate(&mut self, j: ColumnId, mut c: SimCandidate) {
        let miss_old = c.miss;
        c.miss += 1;
        self.tally.miss(1);
        if c.miss <= c.budget && self.max_hits_viable(j, c.col, miss_old) {
            self.scratch.push(c);
        } else {
            self.tally.delete(1);
        }
    }

    fn update_closed(&mut self, j: ColumnId, row: &[ColumnId]) {
        let Some(mut list) = self.lists.take(j) else {
            return;
        };
        let before = list.len();
        let mut write = 0;
        let mut ri = 0;
        for read in 0..list.len() {
            let mut c = list[read];
            while ri < row.len() && row[ri] < c.col {
                ri += 1;
            }
            let hit = ri < row.len() && row[ri] == c.col;
            let miss_old = c.miss;
            if !hit {
                c.miss += 1;
                self.tally.miss(1);
                if c.miss > c.budget {
                    self.tally.delete(1);
                    continue;
                }
            }
            if !self.max_hits_viable(j, c.col, miss_old) {
                self.tally.delete(1);
                continue;
            }
            list[write] = c;
            write += 1;
        }
        list.truncate(write);
        self.mem.remove_candidates(before - write);
        if list.is_empty() {
            self.mem.remove_list();
        } else {
            self.lists.put_back(j, list);
        }
    }

    fn complete_column(&mut self, j: ColumnId) {
        let ji = j as usize;
        self.done[ji] = true;
        let ones_j = self.ones[ji];
        if self.release_completed {
            if let Some(list) = self.lists.release(j, &mut self.mem) {
                for c in &list {
                    self.emit(j, ones_j, c);
                }
            }
        } else if let Some(list) = self.lists.take(j) {
            for c in &list {
                self.emit(j, ones_j, c);
            }
            self.lists.put_back(j, list);
        }
    }

    fn emit(&mut self, j: ColumnId, ones_j: u32, c: &SimCandidate) {
        debug_assert!(c.miss <= c.budget);
        self.tally.emit(1);
        self.rules.push(SimilarityRule {
            a: j,
            b: c.col,
            hits: ones_j - c.miss,
            a_ones: ones_j,
            b_ones: self.ones[c.col as usize],
        });
    }

    /// §4.2 applied to the similarity scan.
    pub(crate) fn finish_with_bitmaps(&mut self, tail: &[&[ColumnId]]) {
        let bm = crate::bitmap::build_tail_bitmaps(tail, &self.active, &self.done);
        for j in 0..self.ones.len() as ColumnId {
            let ji = j as usize;
            if !self.is_lhs(j) || self.ones[ji] == 0 {
                continue;
            }
            if self.cnt[ji] > self.admit_limit[ji] {
                self.phase1_closed(&bm, j);
            } else {
                self.phase2_open(&bm, tail, j);
            }
            self.done[ji] = true;
        }
    }

    fn phase1_closed(&mut self, bm: &BitMatrix, j: ColumnId) {
        let ones_j = self.ones[j as usize];
        let Some(list) = self.lists.release(j, &mut self.mem) else {
            return;
        };
        for c in list {
            let total_miss = c.miss + bm.miss_count(j, c.col) as u32;
            if total_miss <= c.budget {
                self.tally.emit(1);
                self.rules.push(SimilarityRule {
                    a: j,
                    b: c.col,
                    hits: ones_j - total_miss,
                    a_ones: ones_j,
                    b_ones: self.ones[c.col as usize],
                });
            } else {
                self.tally.delete(1);
            }
        }
    }

    fn phase2_open(&mut self, bm: &BitMatrix, tail: &[&[ColumnId]], j: ColumnId) {
        let ji = j as usize;
        let ones_j = self.ones[ji];
        let cnt_j = self.cnt[ji];
        let mut hits: FxHashMap<ColumnId, u32> = FxHashMap::default();
        let mut from_list = 0;
        if let Some(list) = self.lists.release(j, &mut self.mem) {
            from_list = list.len();
            for c in list {
                hits.insert(c.col, cnt_j - c.miss);
            }
        }
        if let Some(rows_of_j) = bm.get(j) {
            for t in rows_of_j.ones() {
                for &k in tail[t] {
                    if k != j && self.active[k as usize] {
                        *hits.entry(k).or_insert(0) += 1;
                    }
                }
            }
        }
        // Tail-only partners are admissions the counting scan never saw.
        self.tally.admit(hits.len() - from_list);
        for (k, h) in hits {
            let ok = self.ones[k as usize];
            if canonical_less(j, ones_j, k, ok)
                && sim_qualifies(u64::from(h), u64::from(ones_j), u64::from(ok), self.minsim)
            {
                self.tally.emit(1);
                self.rules.push(SimilarityRule {
                    a: j,
                    b: k,
                    hits: h,
                    a_ones: ones_j,
                    b_ones: ok,
                });
            } else {
                self.tally.delete(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SwitchPolicy;
    use dmc_matrix::order::RowOrder;

    /// Figure 5 / Example 5.1: columns c1 (4 ones) and c2 (5 ones) with a
    /// single shared row early; maximum-hits pruning kills the pair at r4.
    fn fig5() -> SparseMatrix {
        // Reconstruction satisfying the example's trace: before r4,
        // cnt(c1) = 1 and cnt(c2) = 3; r2 is the hit; r4 has both.
        SparseMatrix::from_rows(
            2,
            vec![
                vec![1],    // r1: c2 only
                vec![0, 1], // r2: both (the 1 hit)
                vec![1],    // r3: c2 only
                vec![0, 1], // r4: both — pruned here in the example
                vec![0],
                vec![0],
                vec![1],
            ],
        )
    }

    #[test]
    fn example_5_1_max_hits_pruning_fires() {
        let m = fig5();
        // ones: c0 = 4, c1 = 5. At minsim 0.75 the best possible outcome
        // after r3 is 3 hits -> sim 0.5 < 0.75: no rule.
        let out = find_similarities(&m, &SimilarityConfig::new(0.75));
        assert!(out.rules.is_empty());
        // Sanity: with pruning disabled the result is identical (pruning
        // only saves memory).
        let no_prune = find_similarities(
            &m,
            &SimilarityConfig::new(0.75).with_max_hits_pruning(false),
        );
        assert!(no_prune.rules.is_empty());
    }

    #[test]
    fn example_5_1_candidate_deleted_at_r4() {
        let m = fig5();
        let cfg = SimilarityConfig::new(0.75);
        let ones = m.column_ones();
        let mut scan = SimScan::new(m.n_cols(), &cfg, ones, None);
        for r in 0..3 {
            scan.process_row(m.row(r));
        }
        assert_eq!(
            scan.lists.get(0).map(Vec::len),
            Some(1),
            "pair (c1, c2) alive before r4"
        );
        scan.process_row(m.row(3));
        // Deleted at r4 despite r4 being a hit (Example 5.1).
        assert!(scan.lists.get(0).is_none() || scan.lists.get(0).unwrap().is_empty());
    }

    #[test]
    fn without_pruning_candidate_survives_r4_but_no_rule() {
        let m = fig5();
        let cfg = SimilarityConfig::new(0.75).with_max_hits_pruning(false);
        let ones = m.column_ones();
        let mut scan = SimScan::new(m.n_cols(), &cfg, ones, None);
        for r in 0..4 {
            scan.process_row(m.row(r));
        }
        assert_eq!(scan.lists.get(0).map(Vec::len), Some(1), "still counted");
        for r in 4..m.n_rows() {
            scan.process_row(m.row(r));
        }
        let (rules, _) = scan.into_parts();
        assert!(rules.is_empty(), "budget deletion catches it by the end");
    }

    #[test]
    fn finds_similar_and_identical_pairs() {
        // c0 = c1 identical; c2 similar to both (3 of 4 rows); c3 disjoint.
        let m = SparseMatrix::from_rows(
            4,
            vec![vec![0, 1, 2], vec![0, 1, 2], vec![0, 1, 2], vec![0, 1, 3]],
        );
        let out = find_similarities(&m, &SimilarityConfig::new(0.75));
        let described: Vec<String> = out.rules.iter().map(ToString::to_string).collect();
        assert_eq!(
            described,
            vec![
                "c0 ~ c1 (sim 4/4 = 1.000)",
                "c2 ~ c0 (sim 3/4 = 0.750)",
                "c2 ~ c1 (sim 3/4 = 0.750)",
            ]
        );
    }

    #[test]
    fn minsim_one_returns_only_identicals() {
        let m = SparseMatrix::from_rows(3, vec![vec![0, 1], vec![0, 1, 2], vec![0, 1]]);
        let out = find_similarities(&m, &SimilarityConfig::new(1.0));
        assert_eq!(out.pairs(), vec![(0, 1)]);
    }

    #[test]
    fn hundred_stage_toggle_is_equivalent() {
        let m = fig_mixed();
        for &minsim in &[1.0, 0.9, 0.75, 0.5, 0.3] {
            let with = find_similarities(&m, &SimilarityConfig::new(minsim));
            let without =
                find_similarities(&m, &SimilarityConfig::new(minsim).with_hundred_stage(false));
            assert_eq!(with.rules, without.rules, "minsim={minsim}");
        }
    }

    #[test]
    fn pruning_toggle_is_equivalent() {
        let m = fig_mixed();
        for &minsim in &[0.9, 0.75, 0.5, 0.3] {
            let with = find_similarities(&m, &SimilarityConfig::new(minsim));
            let without = find_similarities(
                &m,
                &SimilarityConfig::new(minsim).with_max_hits_pruning(false),
            );
            assert_eq!(with.rules, without.rules, "minsim={minsim}");
        }
    }

    #[test]
    fn forced_bitmap_switch_is_equivalent() {
        let m = fig_mixed();
        let base = find_similarities(&m, &SimilarityConfig::new(0.5));
        for tail in 1..=m.n_rows() {
            let cfg = SimilarityConfig::new(0.5).with_switch(SwitchPolicy::always_at(tail));
            let out = find_similarities(&m, &cfg);
            assert_eq!(out.rules, base.rules, "tail={tail}");
        }
    }

    #[test]
    fn row_orders_are_equivalent() {
        let m = fig_mixed();
        let base = find_similarities(&m, &SimilarityConfig::new(0.5));
        for order in [
            RowOrder::Original,
            RowOrder::ExactSparsestFirst,
            RowOrder::Custom((0..m.n_rows() as u32).rev().collect()),
        ] {
            let out = find_similarities(
                &m,
                &SimilarityConfig::new(0.5).with_row_order(order.clone()),
            );
            assert_eq!(out.rules, base.rules, "order={order:?}");
        }
    }

    /// Block application emits exactly the rules of row-by-row processing
    /// at every block size (misses_counted may legitimately differ — a
    /// boundary §5.2 deletion pre-empts later sequential misses — but the
    /// admitted/deleted/emitted balance must match).
    #[test]
    fn density_pruning_blocks_lopsided_pairs() {
        // c0 ⊂ c1 with |S_0| = 2, |S_1| = 8: containment sim = 0.25.
        let rows: Vec<Vec<ColumnId>> = (0..8)
            .map(|r| if r < 2 { vec![0, 1] } else { vec![1] })
            .collect();
        let m = SparseMatrix::from_rows(2, rows);
        assert!(find_similarities(&m, &SimilarityConfig::new(0.5))
            .rules
            .is_empty());
        let loose = find_similarities(&m, &SimilarityConfig::new(0.25));
        assert_eq!(loose.pairs(), vec![(0, 1)]);
    }

    /// A small matrix mixing identical, similar and dissimilar columns.
    fn fig_mixed() -> SparseMatrix {
        SparseMatrix::from_rows(
            6,
            vec![
                vec![0, 1, 2, 4],
                vec![0, 1, 2],
                vec![0, 1, 3, 4],
                vec![2, 3, 5],
                vec![0, 1, 2, 3],
                vec![4, 5],
                vec![0, 1, 4, 5],
            ],
        )
    }
}

#[cfg(test)]
mod output_tests {
    use super::*;

    #[test]
    fn top_and_involving_queries() {
        let m = SparseMatrix::from_rows(3, vec![vec![0, 1], vec![0, 1], vec![0, 1, 2], vec![2]]);
        let out = find_similarities(&m, &SimilarityConfig::new(0.3));
        assert!(!out.rules.is_empty());
        let top = out.top_by_similarity(1);
        assert_eq!(top.len(), 1);
        let best = top[0].similarity();
        assert!(out.rules.iter().all(|r| r.similarity() <= best + 1e-12));
        let with_two = out.involving(2);
        assert!(with_two.iter().all(|r| r.a == 2 || r.b == 2));
    }
}
