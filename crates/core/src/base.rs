//! DMC-base (Algorithm 3.1): the miss-counting scan for implication rules.
//!
//! [`BaseScan`] holds the full second-scan state — per-column 1-counts from
//! the pre-scan, running `cnt` counters, miss budgets and candidate lists —
//! and processes one row at a time. The staged pipeline ([`crate::pipeline`]) feeds it
//! rows in the configured order and may hand the remainder of the scan to
//! the DMC-bitmap tail phase ([`crate::bitmap`]).
//!
//! The three cases of Algorithm 3.1 step 3(a) map to:
//!
//! * `cnt = 0` — create the candidate list from the row (`create_list`),
//! * `0 < cnt ≤ maxmis` — the *open* merge: new candidates may still be
//!   admitted with their miss counter initialized to `cnt` (`merge_open`),
//! * `cnt > maxmis` — the *closed* update: only miss increments and
//!   deletions (`update_closed`).
//!
//! One deliberate deviation: a candidate whose miss counter exceeds the
//! budget is deleted immediately in *every* case (the paper spells the
//! deletion out only in the closed case). This changes no output — an
//! over-budget candidate can never qualify — and keeps the "every stored
//! candidate is still viable" invariant, which lets column completion emit
//! its whole list as rules without re-checking.

use crate::candidates::{ColumnLists, ImpCandidate};
use crate::rules::ImplicationRule;
use crate::threshold::max_misses_conf;
use dmc_matrix::{canonical_less, ColumnId};
use dmc_metrics::{CounterMemory, ScanTally};

/// What a [`BaseScan`] did with a processed row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaseOutcome {
    /// The row was counted normally.
    Counted,
}

/// The DMC-base scan state for implication rules.
pub struct BaseScan {
    minconf: f64,
    pub(crate) ones: Vec<u32>,
    pub(crate) maxmis: Vec<u32>,
    pub(crate) cnt: Vec<u32>,
    pub(crate) lists: ColumnLists<ImpCandidate>,
    /// Column participates in this scan (Algorithm 4.2 step 3 removal).
    pub(crate) active: Vec<bool>,
    /// Optional additional LHS restriction (columns outside it still serve
    /// as RHS candidates) — installed by the shard workers so one shard
    /// owns exactly the rules of its LHS-column range.
    pub(crate) lhs_mask: Option<Vec<bool>>,
    /// Column has completed (all its 1s seen) and its rules were emitted.
    pub(crate) done: Vec<bool>,
    release_completed: bool,
    pub(crate) rules: Vec<ImplicationRule>,
    pub(crate) mem: CounterMemory,
    pub(crate) tally: ScanTally,
    scratch: Vec<ImpCandidate>,
}

impl BaseScan {
    /// Prepares a scan over an `n_cols`-column matrix at `minconf`.
    ///
    /// `active` restricts which columns participate (as LHS *and* RHS);
    /// `None` means all. `ones` must come from the pre-scan of the same
    /// data.
    #[must_use]
    pub fn new(
        n_cols: usize,
        minconf: f64,
        ones: Vec<u32>,
        active: Option<Vec<bool>>,
        release_completed: bool,
        record_history: bool,
    ) -> Self {
        let m = n_cols;
        assert_eq!(ones.len(), m, "ones vector must cover every column");
        let maxmis: Vec<u32> = ones
            .iter()
            .map(|&o| max_misses_conf(u64::from(o), minconf) as u32)
            .collect();
        let active = active.unwrap_or_else(|| vec![true; m]);
        assert_eq!(active.len(), m, "active mask must cover every column");
        Self {
            minconf,
            ones,
            maxmis,
            cnt: vec![0; m],
            lists: ColumnLists::new(m),
            active,
            lhs_mask: None,
            done: vec![false; m],
            release_completed,
            rules: Vec::new(),
            mem: if record_history {
                CounterMemory::with_history(4096)
            } else {
                CounterMemory::new()
            },
            tally: ScanTally::new(),
            scratch: Vec::new(),
        }
    }

    /// The configured minimum confidence.
    #[must_use]
    pub fn minconf(&self) -> f64 {
        self.minconf
    }

    /// Memory accounting of the counter array.
    #[must_use]
    pub fn memory(&self) -> &CounterMemory {
        &self.mem
    }

    /// Event counters of this scan so far.
    #[must_use]
    pub fn tally(&self) -> ScanTally {
        self.tally
    }

    /// Rules emitted so far.
    #[must_use]
    pub fn rules(&self) -> &[ImplicationRule] {
        &self.rules
    }

    /// Consumes the scan, returning the emitted rules and the memory
    /// tracker.
    #[must_use]
    pub fn into_parts(self) -> (Vec<ImplicationRule>, CounterMemory) {
        (self.rules, self.mem)
    }

    #[inline]
    fn is_lhs(&self, j: ColumnId) -> bool {
        self.active[j as usize]
            && !self.done[j as usize]
            && self.lhs_mask.as_ref().is_none_or(|m| m[j as usize])
    }

    /// `true` when the bitmap tail phase still owes this column its rules.
    #[inline]
    pub(crate) fn needs_finish(&self, j: ColumnId) -> bool {
        self.is_lhs(j)
    }

    /// `true` when column `k` is a valid candidate RHS for LHS `j`.
    #[inline]
    fn admissible(&self, j: ColumnId, k: ColumnId) -> bool {
        k != j
            && self.active[k as usize]
            && canonical_less(j, self.ones[j as usize], k, self.ones[k as usize])
    }

    /// Processes one row (Algorithm 3.1 step 3).
    pub fn process_row(&mut self, row: &[ColumnId]) -> BaseOutcome {
        self.tally.row();
        // Step 3(a): update candidate lists of every active column in the
        // row. Per-column updates are independent because `cnt` is only
        // advanced in step 3(b).
        for &j in row {
            if self.is_lhs(j) {
                self.update_list(j, row);
            }
        }
        // Step 3(b): advance counters and emit completed columns.
        for &j in row {
            if self.is_lhs(j) {
                self.advance(j);
            }
        }
        BaseOutcome::Counted
    }

    /// Runs steps 3(a) and 3(b) of [`process_row`](Self::process_row) for
    /// LHS column `j` alone, on a row that contains `j`.
    ///
    /// Column `j`'s candidate list, counter and rules depend only on the
    /// rows that contain `j`, in scan order, so feeding each column its own
    /// rows through this method gives the same rules and the same
    /// admission, miss, deletion and emission counts as feeding every row
    /// to `process_row`. It does not count a scanned row.
    pub fn process_column(&mut self, j: ColumnId, row: &[ColumnId]) {
        debug_assert!(row.binary_search(&j).is_ok(), "row lacks column c{j}");
        if self.is_lhs(j) {
            self.update_list(j, row);
            self.advance(j);
        }
    }

    /// Step 3(a) for column `j`: the three cases of Algorithm 3.1.
    #[inline]
    fn update_list(&mut self, j: ColumnId, row: &[ColumnId]) {
        let cnt_j = self.cnt[j as usize];
        let maxmis_j = self.maxmis[j as usize];
        if cnt_j == 0 {
            self.create_list(j, row);
        } else if cnt_j <= maxmis_j {
            self.merge_open(j, row, cnt_j, maxmis_j);
        } else {
            self.update_closed(j, row, maxmis_j);
        }
    }

    /// Step 3(b) for column `j`: count the row and emit the column's rules
    /// once all its 1s are seen.
    #[inline]
    fn advance(&mut self, j: ColumnId) {
        self.cnt[j as usize] += 1;
        if self.cnt[j as usize] == self.ones[j as usize] {
            self.complete_column(j);
        }
    }

    /// Records the per-row memory history sample.
    pub fn sample_memory(&mut self, rows_scanned: usize) {
        self.mem.sample(rows_scanned);
    }

    fn create_list(&mut self, j: ColumnId, row: &[ColumnId]) {
        let list: Vec<ImpCandidate> = row
            .iter()
            .filter(|&&k| self.admissible(j, k))
            .map(|&k| ImpCandidate { col: k, miss: 0 })
            .collect();
        self.tally.admit(list.len());
        self.lists.install(j, list, &mut self.mem);
    }

    /// The open merge: row-only columns are admitted with `miss = cnt_j`
    /// (they missed every earlier occurrence of `j`); list-only candidates
    /// take a miss.
    fn merge_open(&mut self, j: ColumnId, row: &[ColumnId], cnt_j: u32, maxmis_j: u32) {
        let Some(mut list) = self.lists.take(j) else {
            // An open column always has a list (created at its first row and
            // only released once closed or complete); recover by recreating.
            debug_assert!(false, "open merge on column c{j} without a list");
            self.lists.install(j, Vec::new(), &mut self.mem);
            self.merge_open_into_empty(j, row, cnt_j);
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
                    // Hit: candidate unchanged.
                    self.scratch.push(list[li]);
                    li += 1;
                    ri += 1;
                }
                (Some(lc), Some(rc)) if lc < rc => {
                    // List-only: a miss.
                    let mut c = list[li];
                    c.miss += 1;
                    self.tally.miss(1);
                    if c.miss <= maxmis_j {
                        self.scratch.push(c);
                    } else {
                        self.tally.delete(1);
                    }
                    li += 1;
                }
                (Some(_), None) => {
                    let mut c = list[li];
                    c.miss += 1;
                    self.tally.miss(1);
                    if c.miss <= maxmis_j {
                        self.scratch.push(c);
                    } else {
                        self.tally.delete(1);
                    }
                    li += 1;
                }
                (_, Some(rc)) => {
                    // Row-only: admit with the misses already accumulated
                    // before this column's list could know about it.
                    if self.admissible(j, rc) {
                        self.tally.admit(1);
                        self.scratch.push(ImpCandidate {
                            col: rc,
                            miss: cnt_j,
                        });
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

    fn merge_open_into_empty(&mut self, j: ColumnId, row: &[ColumnId], cnt_j: u32) {
        let additions: Vec<ImpCandidate> = row
            .iter()
            .filter(|&&k| self.admissible(j, k))
            .map(|&k| ImpCandidate {
                col: k,
                miss: cnt_j,
            })
            .collect();
        if additions.is_empty() {
            return;
        }
        self.tally.admit(additions.len());
        self.mem.add_candidates(additions.len());
        let list = self.lists.get_mut(j).expect("list was just installed");
        list.extend(additions);
    }

    /// The closed update: in-place miss increments and deletions only.
    fn update_closed(&mut self, j: ColumnId, row: &[ColumnId], maxmis_j: u32) {
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
            if !hit {
                c.miss += 1;
                self.tally.miss(1);
                if c.miss > maxmis_j {
                    self.tally.delete(1);
                    continue; // deleted
                }
            }
            list[write] = c;
            write += 1;
        }
        list.truncate(write);
        self.mem.remove_candidates(before - write);
        if list.is_empty() {
            // No admissions are possible anymore; drop the empty list.
            self.mem.remove_list();
        } else {
            self.lists.put_back(j, list);
        }
    }

    /// Column `j` has all its 1s counted: every remaining candidate is a
    /// rule (the immediate-deletion invariant guarantees `miss ≤ maxmis`).
    fn complete_column(&mut self, j: ColumnId) {
        self.done[j as usize] = true;
        let ones_j = self.ones[j as usize];
        if self.release_completed {
            if let Some(list) = self.lists.release(j, &mut self.mem) {
                self.emit_rules(j, ones_j, list.iter());
            }
        } else if let Some(list) = self.lists.take(j) {
            self.emit_rules(j, ones_j, list.iter());
            self.lists.put_back(j, list);
        }
    }

    fn emit_rules<'a>(
        &mut self,
        j: ColumnId,
        ones_j: u32,
        list: impl Iterator<Item = &'a ImpCandidate>,
    ) {
        for c in list {
            debug_assert!(c.miss <= self.maxmis[j as usize]);
            self.tally.emit(1);
            self.rules.push(ImplicationRule {
                lhs: j,
                rhs: c.col,
                hits: ones_j - c.miss,
                lhs_ones: ones_j,
                rhs_ones: self.ones[c.col as usize],
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmc_matrix::SparseMatrix;

    fn run(matrix: &SparseMatrix, minconf: f64) -> Vec<ImplicationRule> {
        let mut scan = BaseScan::new(
            matrix.n_cols(),
            minconf,
            matrix.column_ones(),
            None,
            true,
            false,
        );
        for row in matrix.rows() {
            scan.process_row(row);
        }
        let (mut rules, _) = scan.into_parts();
        rules.sort();
        rules
    }

    /// Figure 1 / Example 1.2: at 100% confidence only c3 => c2 survives
    /// (0-indexed: c2 => c1). The matrix is reconstructed from the
    /// example's walk: r3 must contain c1 alone (it kills c1 => c2 and
    /// c1 => c3), and a final c2-only row breaks c2 => c3.
    #[test]
    fn example_1_2_hundred_percent() {
        let m = SparseMatrix::from_rows(3, vec![vec![1, 2], vec![0, 1, 2], vec![0], vec![1]]);
        let rules = run(&m, 1.0);
        assert_eq!(rules.len(), 1);
        assert_eq!((rules[0].lhs, rules[0].rhs), (2, 1));
        assert_eq!(rules[0].hits, 2);
        assert_eq!(rules[0].confidence(), 1.0);
    }

    /// Figure 2 / Example 3.1: at 80% confidence the rules are c1 => c2 and
    /// c3 => c5 (0-indexed: 0 => 1 and 2 => 4).
    #[test]
    fn example_3_1_eighty_percent() {
        let m = fig2();
        let rules = run(&m, 0.8);
        let pairs: Vec<(ColumnId, ColumnId)> = rules.iter().map(|r| (r.lhs, r.rhs)).collect();
        assert_eq!(pairs, vec![(0, 1), (2, 4)]);
        // c1 => c2: one miss (r7), so 4 hits out of 5.
        assert_eq!(rules[0].hits, 4);
        assert_eq!(rules[1].hits, 4);
    }

    /// The Example 3.1 mid-scan trace: candidate lists after r4.
    #[test]
    fn example_3_1_state_after_r4() {
        let m = fig2();
        let mut scan = BaseScan::new(m.n_cols(), 0.8, m.column_ones(), None, true, false);
        for r in 0..4 {
            scan.process_row(m.row(r));
        }
        // Fig 2(c): c1 -> {c2, c3, c6}, c2 -> {c3, c6}, c3 -> {c5}, c4 -> {c5}.
        // (c5 and c6 own empty lists — the paper draws no entry for them.)
        let lists: Vec<(ColumnId, Vec<(ColumnId, u32)>)> = scan
            .lists
            .iter()
            .filter(|(_, l)| !l.is_empty())
            .map(|(c, l)| (c, l.iter().map(|x| (x.col, x.miss)).collect()))
            .collect();
        assert_eq!(
            lists,
            vec![
                (0, vec![(1, 0), (2, 0), (5, 0)]),
                (1, vec![(2, 1), (5, 0)]),
                (2, vec![(4, 1)]),
                (3, vec![(4, 0)]),
            ]
        );
        assert_eq!(&scan.cnt, &[1, 2, 3, 1, 2, 2]);
    }

    /// §4.1: the total candidate count history in original row order is
    /// (1,4,4,7,9,7,7,6,2), measured with lists retained at completion.
    #[test]
    fn fig2_candidate_history_original_order() {
        let m = fig2();
        let mut scan = BaseScan::new(m.n_cols(), 0.8, m.column_ones(), None, false, false);
        let mut history = Vec::new();
        for row in m.rows() {
            scan.process_row(row);
            history.push(scan.lists.total_candidates());
        }
        assert_eq!(history, vec![1, 4, 4, 7, 9, 7, 7, 6, 2]);
    }

    /// §4.1 sparsest-first: the paper lists (1,2,3,5,6,8,5,2,2) for the
    /// order (r1,r3,r8,r2,r5,r4,r6,r9,r7). The reconstructed matrix's true
    /// density-sorted order is (r1,r3,r8,r2,r9,r4,r6,r5,r7) — the paper
    /// swaps r5/r9 — and yields (1,2,3,5,8,8,5,2,2): entry 5 differs from
    /// the paper's 6, every other entry and the final rules match (see
    /// DESIGN.md). The §4.1 point stands: the peak drops from 9 to 8.
    #[test]
    fn fig2_candidate_history_sparsest_order() {
        let m = fig2();
        let mut scan = BaseScan::new(m.n_cols(), 0.8, m.column_ones(), None, false, false);
        let mut history = Vec::new();
        for &r in &[0usize, 2, 7, 1, 8, 3, 5, 4, 6] {
            scan.process_row(m.row(r));
            history.push(scan.lists.total_candidates());
        }
        assert_eq!(history, vec![1, 2, 3, 5, 8, 8, 5, 2, 2]);
        let (mut rules, _) = scan.into_parts();
        rules.sort();
        let pairs: Vec<(ColumnId, ColumnId)> = rules.iter().map(|r| (r.lhs, r.rhs)).collect();
        assert_eq!(pairs, vec![(0, 1), (2, 4)]);
    }

    #[test]
    fn rule_output_is_order_invariant() {
        let m = fig2();
        let forward = run(&m, 0.8);
        let mut scan = BaseScan::new(m.n_cols(), 0.8, m.column_ones(), None, true, false);
        for r in (0..m.n_rows()).rev() {
            scan.process_row(m.row(r));
        }
        let (mut rules, _) = scan.into_parts();
        rules.sort();
        assert_eq!(rules, forward);
    }

    #[test]
    fn release_toggle_does_not_change_rules() {
        let m = fig2();
        for release in [true, false] {
            let mut scan = BaseScan::new(m.n_cols(), 0.8, m.column_ones(), None, release, false);
            for row in m.rows() {
                scan.process_row(row);
            }
            let (mut rules, _) = scan.into_parts();
            rules.sort();
            assert_eq!(rules, run(&m, 0.8), "release={release}");
        }
    }

    #[test]
    fn inactive_columns_are_ignored() {
        let m = fig2();
        let mut active = vec![true; 6];
        active[1] = false; // drop c2
        let mut scan = BaseScan::new(m.n_cols(), 0.8, m.column_ones(), Some(active), true, false);
        for row in m.rows() {
            scan.process_row(row);
        }
        let (rules, _) = scan.into_parts();
        let pairs: Vec<(ColumnId, ColumnId)> = rules.iter().map(|r| (r.lhs, r.rhs)).collect();
        assert_eq!(
            pairs,
            vec![(2, 4)],
            "rules touching c1 (0-indexed col 1) vanish"
        );
    }

    /// Feeding each column its own rows, column by column, gives the
    /// row-major scan's rules and event counts at every threshold.
    #[test]
    fn column_at_a_time_matches_row_major() {
        let m = fig2();
        let postings = m.column_rows();
        for &minconf in &[1.0, 0.9, 0.8, 0.6, 0.3] {
            let mut rows = BaseScan::new(m.n_cols(), minconf, m.column_ones(), None, true, false);
            for row in m.rows() {
                rows.process_row(row);
            }
            let mut cols = BaseScan::new(m.n_cols(), minconf, m.column_ones(), None, true, false);
            for j in (0..m.n_cols()).rev() {
                for &r in &postings[j] {
                    cols.process_column(j as ColumnId, m.row(r as usize));
                }
            }
            let (rows_tally, cols_tally) = (rows.tally(), cols.tally());
            assert_eq!(cols_tally.rows_scanned, 0, "no whole row was scanned");
            assert_eq!(
                ScanTally {
                    rows_scanned: 0,
                    ..rows_tally
                },
                cols_tally,
                "minconf={minconf}"
            );
            let (mut want, _) = rows.into_parts();
            let (mut got, _) = cols.into_parts();
            want.sort();
            got.sort();
            assert_eq!(got, want, "minconf={minconf}");
        }
    }

    #[test]
    fn memory_accounting_matches_list_contents() {
        let m = fig2();
        let mut scan = BaseScan::new(m.n_cols(), 0.8, m.column_ones(), None, false, false);
        for row in m.rows() {
            scan.process_row(row);
            assert_eq!(
                scan.memory().current_candidates(),
                scan.lists.total_candidates(),
                "tracker and lists agree after every row"
            );
        }
        assert_eq!(scan.memory().peak_candidates(), 9);
    }

    #[test]
    fn empty_matrix_yields_no_rules() {
        let m = SparseMatrix::from_rows(4, vec![]);
        assert!(run(&m, 0.9).is_empty());
    }

    #[test]
    fn duplicate_columns_pair_at_full_confidence() {
        // Columns 0 and 1 are identical; 2 is different.
        let m = SparseMatrix::from_rows(3, vec![vec![0, 1], vec![0, 1, 2], vec![0, 1]]);
        let rules = run(&m, 1.0);
        let pairs: Vec<(ColumnId, ColumnId)> = rules.iter().map(|r| (r.lhs, r.rhs)).collect();
        // ones: [3,3,1]. Canonical: c2 (1 one) < c0 < c1.
        // c2 => c0 and c2 => c1 hold (1/1); c0 => c1 holds (3/3).
        assert_eq!(pairs, vec![(0, 1), (2, 0), (2, 1)]);
    }

    /// Figure 2 of the paper (see dmc-matrix's order module and DESIGN.md
    /// for the reconstruction).
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
}
