//! Typed event counters for one DMC counting scan.
//!
//! Every scan (the general miss-counting scan, the similarity scan and the
//! 100%-rule scan) tallies the same five events so the run report can
//! reconcile them against the rendered rule set:
//!
//! * a **row** was scanned,
//! * a candidate was **admitted** (entered a candidate list, or entered the
//!   bitmap tail's hit table for a tail-only partner),
//! * a candidate was **deleted** (left without becoming a rule: miss budget
//!   exceeded, §5.2 maximum-hits pruning, a tail miss, or a failed
//!   qualification in the bitmap phase),
//! * a **miss** counter was incremented (counting scans only; the bitmap
//!   tail counts misses by popcount, not by increment),
//! * a rule was **emitted** by the scan (before any driver-level
//!   deduplication against the 100%-rule stage).
//!
//! The invariant the recorder maintains — and the test suite checks on
//! random matrices — is **admitted = deleted + emitted** once a scan has
//! finished: every candidate that ever entered the counter array either
//! died or became a rule.
//!
//! Recording is a handful of inlined integer adds per event, cheap enough
//! to stay on in the hot counting loop; the heavyweight recording (the
//! Fig-3 memory history, report assembly and JSON rendering) only happens
//! when a caller asks for it.

/// Cumulative event counts of one scan (or a merge of several).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanTally {
    /// Rows fed through the scan.
    pub rows_scanned: u64,
    /// Candidates that entered the counter array (or the tail hit table).
    pub candidates_admitted: u64,
    /// Candidates removed without being emitted as rules.
    pub candidates_deleted: u64,
    /// Miss-counter increments performed by the counting scan.
    pub misses_counted: u64,
    /// Rules emitted by the scan itself (pre driver-level filtering).
    pub rules_emitted: u64,
}

impl ScanTally {
    /// An empty tally.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one scanned row.
    #[inline]
    pub fn row(&mut self) {
        self.rows_scanned += 1;
    }

    /// Records `n` scanned rows (block-granular scans).
    #[inline]
    pub fn rows(&mut self, n: usize) {
        self.rows_scanned += n as u64;
    }

    /// Records `n` admitted candidates.
    #[inline]
    pub fn admit(&mut self, n: usize) {
        self.candidates_admitted += n as u64;
    }

    /// Records `n` deleted candidates.
    #[inline]
    pub fn delete(&mut self, n: usize) {
        self.candidates_deleted += n as u64;
    }

    /// Records `n` miss-counter increments.
    #[inline]
    pub fn miss(&mut self, n: usize) {
        self.misses_counted += n as u64;
    }

    /// Records `n` emitted rules.
    #[inline]
    pub fn emit(&mut self, n: usize) {
        self.rules_emitted += n as u64;
    }

    /// Adds another tally into this one (stage or worker aggregation).
    pub fn merge(&mut self, other: &ScanTally) {
        self.rows_scanned += other.rows_scanned;
        self.candidates_admitted += other.candidates_admitted;
        self.candidates_deleted += other.candidates_deleted;
        self.misses_counted += other.misses_counted;
        self.rules_emitted += other.rules_emitted;
    }

    /// `true` when every admitted candidate is accounted for:
    /// `admitted == deleted + emitted`. Holds once a scan has finished.
    #[must_use]
    pub fn reconciles(&self) -> bool {
        self.candidates_admitted == self.candidates_deleted + self.rules_emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_accumulate() {
        let mut t = ScanTally::new();
        t.row();
        t.row();
        t.admit(5);
        t.miss(3);
        t.delete(2);
        t.emit(3);
        assert_eq!(t.rows_scanned, 2);
        assert_eq!(t.candidates_admitted, 5);
        assert_eq!(t.candidates_deleted, 2);
        assert_eq!(t.misses_counted, 3);
        assert_eq!(t.rules_emitted, 3);
        assert!(t.reconciles());
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = ScanTally::new();
        a.admit(4);
        a.emit(4);
        let mut b = ScanTally::new();
        b.row();
        b.admit(2);
        b.delete(2);
        a.merge(&b);
        assert_eq!(a.rows_scanned, 1);
        assert_eq!(a.candidates_admitted, 6);
        assert!(a.reconciles());
    }

    #[test]
    fn unbalanced_tally_does_not_reconcile() {
        let mut t = ScanTally::new();
        t.admit(3);
        t.delete(1);
        assert!(!t.reconciles());
    }
}
