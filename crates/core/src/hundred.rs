//! The 100%-threshold fast paths (§4.3 of the paper).
//!
//! Exact rules are much cheaper than sub-100% rules:
//!
//! * no miss counters are needed — a single miss kills a candidate, so
//!   lists store bare column ids;
//! * after a column's first 1, no new candidate can ever be admitted
//!   (`maxmis = 0` closes the list immediately), so the per-row update is a
//!   pure sorted intersection.
//!
//! Two modes share the machinery:
//!
//! * [`HundredMode::Implication`] — 100%-confidence rules `c_j ⇒ c_k`
//!   (`S_j ⊆ S_k`), admission by the canonical column order;
//! * [`HundredMode::Identical`] — 100%-similar (identical) columns
//!   (DMC-sim step 2), admission restricted to equal 1-counts. Zero misses
//!   from the smaller side plus equal cardinality already implies set
//!   equality, so one direction of miss checking suffices.
//!
//! The DMC-bitmap tail (§4.2) applies here too: a closed column's candidate
//! survives iff `bm(c_j) & !bm(c_k)` is empty; a column entirely inside the
//! tail needs full tail hit counting.

use crate::candidates::ColumnLists;
use crate::fxhash::FxHashMap;
use crate::rules::{ImplicationRule, SimilarityRule};
use dmc_bitset::BitMatrix;
use dmc_matrix::{canonical_less, ColumnId};
use dmc_metrics::{CounterMemory, ScanTally};

/// Which kind of exact rule a [`HundredScan`] extracts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HundredMode {
    /// 100%-confidence implication rules.
    Implication,
    /// 100%-similar (identical) column pairs.
    Identical,
}

/// The simplified DMC scan for exact rules.
pub struct HundredScan {
    mode: HundredMode,
    ones: Vec<u32>,
    cnt: Vec<u32>,
    lists: ColumnLists<ColumnId>,
    /// Optional additional LHS restriction (columns outside it still serve
    /// as RHS candidates) — installed by the shard workers so one shard
    /// owns exactly the rules of its LHS-column range.
    lhs_mask: Option<Vec<bool>>,
    done: Vec<bool>,
    imp_rules: Vec<ImplicationRule>,
    sim_rules: Vec<SimilarityRule>,
    mem: CounterMemory,
    tally: ScanTally,
}

impl HundredScan {
    /// Prepares a scan over an `n_cols`-column matrix with the given
    /// pre-scan `ones`, optionally recording the per-row memory history
    /// (the Fig-3 curve) — sample it via [`HundredScan::sample_memory`].
    #[must_use]
    pub fn new(n_cols: usize, mode: HundredMode, ones: Vec<u32>, record_history: bool) -> Self {
        let m = n_cols;
        assert_eq!(ones.len(), m);
        Self {
            mode,
            ones,
            cnt: vec![0; m],
            lists: ColumnLists::new(m),
            lhs_mask: None,
            done: vec![false; m],
            imp_rules: Vec::new(),
            sim_rules: Vec::new(),
            mem: if record_history {
                CounterMemory::with_history(4096)
            } else {
                CounterMemory::new()
            },
            tally: ScanTally::new(),
        }
    }

    /// Event counters of this scan so far.
    #[must_use]
    pub fn tally(&self) -> ScanTally {
        self.tally
    }

    /// Records a history sample after `rows_scanned` rows.
    pub fn sample_memory(&mut self, rows_scanned: usize) {
        self.mem.sample(rows_scanned);
    }

    /// Memory accounting of this stage's candidate lists.
    #[must_use]
    pub fn memory(&self) -> &CounterMemory {
        &self.mem
    }

    /// Restricts which columns act as LHS (they still serve as RHS
    /// candidates of other columns). Must be installed before the first
    /// row; masked columns keep `cnt = 0` and never complete, which is
    /// safe because nothing reads another column's counter here.
    pub(crate) fn set_lhs_mask(&mut self, mask: Vec<bool>) {
        assert_eq!(mask.len(), self.ones.len());
        self.lhs_mask = Some(mask);
    }

    #[inline]
    fn is_lhs(&self, j: ColumnId) -> bool {
        !self.done[j as usize] && self.lhs_mask.as_ref().is_none_or(|m| m[j as usize])
    }

    #[inline]
    fn admissible(&self, j: ColumnId, k: ColumnId) -> bool {
        if k == j {
            return false;
        }
        let (oj, ok) = (self.ones[j as usize], self.ones[k as usize]);
        match self.mode {
            HundredMode::Implication => canonical_less(j, oj, k, ok),
            HundredMode::Identical => oj == ok && k > j,
        }
    }

    /// Processes one row: create-on-first-1, otherwise intersect.
    pub fn process_row(&mut self, row: &[ColumnId]) {
        self.tally.row();
        for &j in row {
            if !self.is_lhs(j) {
                continue;
            }
            if self.cnt[j as usize] == 0 {
                let list: Vec<ColumnId> = row
                    .iter()
                    .copied()
                    .filter(|&k| self.admissible(j, k))
                    .collect();
                self.tally.admit(list.len());
                self.lists.install(j, list, &mut self.mem);
            } else {
                self.intersect(j, row);
            }
        }
        for &j in row {
            if !self.is_lhs(j) {
                continue;
            }
            self.cnt[j as usize] += 1;
            if self.cnt[j as usize] == self.ones[j as usize] {
                self.complete(j);
            }
        }
    }

    /// In-place sorted intersection of the candidate list with the row.
    fn intersect(&mut self, j: ColumnId, row: &[ColumnId]) {
        let Some(mut list) = self.lists.take(j) else {
            return;
        };
        let before = list.len();
        let mut write = 0;
        let mut ri = 0;
        for read in 0..list.len() {
            let k = list[read];
            while ri < row.len() && row[ri] < k {
                ri += 1;
            }
            if ri < row.len() && row[ri] == k {
                list[write] = k;
                write += 1;
            }
        }
        list.truncate(write);
        self.tally.miss(before - write);
        self.tally.delete(before - write);
        self.mem.remove_candidates(before - write);
        if list.is_empty() {
            self.mem.remove_list();
        } else {
            self.lists.put_back(j, list);
        }
    }

    fn complete(&mut self, j: ColumnId) {
        self.done[j as usize] = true;
        let Some(list) = self.lists.release(j, &mut self.mem) else {
            return;
        };
        let ones_j = self.ones[j as usize];
        for k in list {
            self.emit(j, k, ones_j);
        }
    }

    fn emit(&mut self, j: ColumnId, k: ColumnId, ones_j: u32) {
        self.tally.emit(1);
        let ones_k = self.ones[k as usize];
        match self.mode {
            HundredMode::Implication => self.imp_rules.push(ImplicationRule {
                lhs: j,
                rhs: k,
                hits: ones_j,
                lhs_ones: ones_j,
                rhs_ones: ones_k,
            }),
            HundredMode::Identical => self.sim_rules.push(SimilarityRule {
                a: j,
                b: k,
                hits: ones_j,
                a_ones: ones_j,
                b_ones: ones_k,
            }),
        }
    }

    /// Finishes over unscanned tail rows with bitmaps (§4.2 applied to the
    /// exact-rule scan).
    pub fn finish_with_bitmaps(&mut self, tail: &[&[ColumnId]]) {
        let all_active = vec![true; self.ones.len()];
        let bm = crate::bitmap::build_tail_bitmaps(tail, &all_active, &self.done);
        for j in 0..self.ones.len() as ColumnId {
            let ji = j as usize;
            if !self.is_lhs(j) || self.ones[ji] == 0 {
                continue;
            }
            if self.cnt[ji] > 0 {
                // Closed: survivors are candidates with no tail miss.
                if let Some(list) = self.lists.release(j, &mut self.mem) {
                    let ones_j = self.ones[ji];
                    for k in list {
                        if bm.miss_count(j, k) == 0 {
                            self.emit(j, k, ones_j);
                        } else {
                            self.tally.delete(1);
                        }
                    }
                }
            } else {
                // Entirely in the tail: count hits over j's tail rows.
                self.tail_only_column(&bm, tail, j);
            }
            self.done[ji] = true;
        }
    }

    fn tail_only_column(&mut self, bm: &BitMatrix, tail: &[&[ColumnId]], j: ColumnId) {
        let ones_j = self.ones[j as usize];
        let mut hits: FxHashMap<ColumnId, u32> = FxHashMap::default();
        if let Some(rows_of_j) = bm.get(j) {
            for t in rows_of_j.ones() {
                for &k in tail[t] {
                    if k != j {
                        *hits.entry(k).or_insert(0) += 1;
                    }
                }
            }
        }
        // Tail-only partners count as admissions so the tally reconciles.
        self.tally.admit(hits.len());
        for (k, h) in hits {
            if h == ones_j && self.admissible(j, k) {
                self.emit(j, k, ones_j);
            } else {
                self.tally.delete(1);
            }
        }
    }

    /// Consumes the scan, returning the emitted rules (implication rules in
    /// [`HundredMode::Implication`], similarity rules otherwise) and the
    /// memory tracker.
    #[must_use]
    pub fn into_parts(self) -> (Vec<ImplicationRule>, Vec<SimilarityRule>, CounterMemory) {
        (self.imp_rules, self.sim_rules, self.mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmc_matrix::SparseMatrix;

    fn fig1() -> SparseMatrix {
        SparseMatrix::from_rows(3, vec![vec![1, 2], vec![0, 1, 2], vec![0], vec![1]])
    }

    fn run_imp(matrix: &SparseMatrix, head: usize) -> Vec<(ColumnId, ColumnId)> {
        let mut scan = HundredScan::new(
            matrix.n_cols(),
            HundredMode::Implication,
            matrix.column_ones(),
            false,
        );
        for r in 0..head {
            scan.process_row(matrix.row(r));
        }
        let tail: Vec<&[ColumnId]> = (head..matrix.n_rows()).map(|r| matrix.row(r)).collect();
        scan.finish_with_bitmaps(&tail);
        let (mut rules, sims, _) = scan.into_parts();
        assert!(sims.is_empty());
        rules.sort();
        rules.iter().map(|r| (r.lhs, r.rhs)).collect()
    }

    /// Example 1.2: only c3 => c2 (0-indexed 2 => 1) holds at 100%.
    #[test]
    fn fig1_exact_rules() {
        let m = fig1();
        assert_eq!(run_imp(&m, m.n_rows()), vec![(2, 1)]);
    }

    #[test]
    fn switch_invariance_imp() {
        let m = fig1();
        let expected = run_imp(&m, m.n_rows());
        for head in 0..m.n_rows() {
            assert_eq!(run_imp(&m, head), expected, "head={head}");
        }
    }

    fn run_ident(matrix: &SparseMatrix, head: usize) -> Vec<(ColumnId, ColumnId)> {
        let mut scan = HundredScan::new(
            matrix.n_cols(),
            HundredMode::Identical,
            matrix.column_ones(),
            false,
        );
        for r in 0..head {
            scan.process_row(matrix.row(r));
        }
        let tail: Vec<&[ColumnId]> = (head..matrix.n_rows()).map(|r| matrix.row(r)).collect();
        scan.finish_with_bitmaps(&tail);
        let (imps, mut sims, _) = scan.into_parts();
        assert!(imps.is_empty());
        sims.sort();
        sims.iter().map(|r| (r.a, r.b)).collect()
    }

    #[test]
    fn identical_columns_found() {
        // Columns 0 and 2 identical; 1 and 4 identical; 3 different with
        // the same cardinality as 1/4.
        let m = SparseMatrix::from_rows(5, vec![vec![0, 1, 2, 4], vec![0, 2, 3], vec![1, 3, 4]]);
        assert_eq!(run_ident(&m, m.n_rows()), vec![(0, 2), (1, 4)]);
    }

    #[test]
    fn switch_invariance_identical() {
        let m = SparseMatrix::from_rows(
            4,
            vec![vec![0, 1], vec![0, 1, 2], vec![2, 3], vec![0, 1, 3]],
        );
        let expected = run_ident(&m, m.n_rows());
        for head in 0..m.n_rows() {
            assert_eq!(run_ident(&m, head), expected, "head={head}");
        }
    }

    #[test]
    fn different_cardinalities_never_pair_identically() {
        let m = SparseMatrix::from_rows(2, vec![vec![0, 1], vec![1]]);
        assert!(run_ident(&m, m.n_rows()).is_empty());
    }

    #[test]
    fn all_zero_columns_do_not_pair() {
        // Columns 2 and 3 have no 1s at all; "identical empty columns" are
        // not meaningful rules and must not be emitted.
        let m = SparseMatrix::from_rows(4, vec![vec![0, 1], vec![0, 1]]);
        assert_eq!(run_ident(&m, m.n_rows()), vec![(0, 1)]);
    }

    /// Block application is state-identical to row-by-row processing for
    /// both modes at every block size — rules, tallies, counters.
    #[test]
    fn memory_is_released_at_completion() {
        let m = fig1();
        let mut scan =
            HundredScan::new(m.n_cols(), HundredMode::Implication, m.column_ones(), false);
        for row in m.rows() {
            scan.process_row(row);
        }
        assert_eq!(scan.memory().current_candidates(), 0);
        assert!(scan.memory().peak_candidates() > 0);
    }
}
