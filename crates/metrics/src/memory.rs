//! The paper's counter-array memory model.
//!
//! §4 measures "the memory size for the counter array that keeps candidate
//! IDs and their miss-counters". We model it as:
//!
//! * [`ENTRY_BYTES`] per live candidate (candidate column id + miss
//!   counter, two `u32`s), plus
//! * [`COL_OVERHEAD_BYTES`] per column with a live candidate list (the
//!   per-column `cnt` counter and list header).
//!
//! Algorithms report candidate-count deltas as they add and delete
//! candidates; the tracker maintains the current and peak footprint and an
//! optional per-row history (the Fig-3 curve). History sampling is
//! decimated to a bounded number of points so instrumenting a 700k-row scan
//! stays cheap.

/// Bytes attributed to one live candidate entry (id + miss counter).
pub const ENTRY_BYTES: usize = 8;

/// Bytes attributed to each column that currently owns a candidate list.
pub const COL_OVERHEAD_BYTES: usize = 16;

/// One point of the Fig-3 memory curve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemorySample {
    /// Rows scanned when the sample was taken.
    pub rows_scanned: usize,
    /// Live candidate entries at that point.
    pub candidates: usize,
    /// Modeled bytes at that point.
    pub bytes: usize,
}

/// Tracks the candidate-counter array footprint of a DMC run.
///
/// # Examples
///
/// ```
/// use dmc_metrics::{CounterMemory, ENTRY_BYTES, COL_OVERHEAD_BYTES};
///
/// let mut mem = CounterMemory::new();
/// mem.add_candidates(3);
/// mem.add_list();
/// assert_eq!(mem.current_bytes(), 3 * ENTRY_BYTES + COL_OVERHEAD_BYTES);
/// mem.remove_candidates(2);
/// assert_eq!(mem.peak_candidates(), 3);
/// assert_eq!(mem.current_candidates(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct CounterMemory {
    candidates: usize,
    lists: usize,
    peak_candidates: usize,
    peak_bytes: usize,
    history: Vec<MemorySample>,
    history_cap: usize,
    /// Take a history sample every `stride` rows (doubles when full).
    stride: usize,
}

impl CounterMemory {
    /// A tracker with no history recording.
    #[must_use]
    pub fn new() -> Self {
        Self {
            history_cap: 0,
            stride: 1,
            ..Self::default()
        }
    }

    /// A tracker keeping a decimated history of at most `cap` samples
    /// (`cap >= 2`; the tracker doubles its sampling stride when full).
    #[must_use]
    pub fn with_history(cap: usize) -> Self {
        Self {
            history_cap: cap.max(2),
            stride: 1,
            ..Self::default()
        }
    }

    /// Records `n` new candidate entries.
    #[inline]
    pub fn add_candidates(&mut self, n: usize) {
        self.candidates += n;
        if self.candidates > self.peak_candidates {
            self.peak_candidates = self.candidates;
        }
        let bytes = self.current_bytes();
        if bytes > self.peak_bytes {
            self.peak_bytes = bytes;
        }
    }

    /// Records deletion of `n` candidate entries.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if more candidates are removed than exist.
    #[inline]
    pub fn remove_candidates(&mut self, n: usize) {
        debug_assert!(n <= self.candidates, "removing more candidates than live");
        self.candidates = self.candidates.saturating_sub(n);
    }

    /// Records creation of a per-column candidate list.
    #[inline]
    pub fn add_list(&mut self) {
        self.lists += 1;
        let bytes = self.current_bytes();
        if bytes > self.peak_bytes {
            self.peak_bytes = bytes;
        }
    }

    /// Records release of a per-column candidate list.
    #[inline]
    pub fn remove_list(&mut self) {
        debug_assert!(self.lists > 0, "removing a list when none is live");
        self.lists = self.lists.saturating_sub(1);
    }

    /// Live candidate entries.
    #[inline]
    #[must_use]
    pub fn current_candidates(&self) -> usize {
        self.candidates
    }

    /// Peak live candidate entries seen so far.
    #[inline]
    #[must_use]
    pub fn peak_candidates(&self) -> usize {
        self.peak_candidates
    }

    /// Modeled current footprint in bytes.
    #[inline]
    #[must_use]
    pub fn current_bytes(&self) -> usize {
        self.candidates * ENTRY_BYTES + self.lists * COL_OVERHEAD_BYTES
    }

    /// Modeled peak footprint in bytes.
    #[inline]
    #[must_use]
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Takes a history sample after `rows_scanned` rows (no-op without
    /// history, or off-stride).
    pub fn sample(&mut self, rows_scanned: usize) {
        if self.history_cap == 0 || rows_scanned % self.stride != 0 {
            return;
        }
        if self.history.len() >= self.history_cap {
            // Decimate: keep every other sample and double the stride.
            let mut keep = 0;
            for i in (0..self.history.len()).step_by(2) {
                self.history[keep] = self.history[i];
                keep += 1;
            }
            self.history.truncate(keep);
            self.stride *= 2;
            if rows_scanned % self.stride != 0 {
                return;
            }
        }
        self.history.push(MemorySample {
            rows_scanned,
            candidates: self.candidates,
            bytes: self.current_bytes(),
        });
    }

    /// The recorded Fig-3 curve (empty unless built
    /// [`CounterMemory::with_history`]).
    #[must_use]
    pub fn history(&self) -> &[MemorySample] {
        &self.history
    }

    /// Merges another tracker's peak into this one (used when an algorithm
    /// runs in stages with separate trackers).
    pub fn absorb_peak(&mut self, other: &CounterMemory) {
        self.peak_candidates = self.peak_candidates.max(other.peak_candidates);
        self.peak_bytes = self.peak_bytes.max(other.peak_bytes);
        self.history.extend_from_slice(&other.history);
    }

    /// Merges the peaks of trackers that ran at the same time: the sum of
    /// their peaks bounds what they held at once.
    pub fn absorb_concurrent_peaks<'a>(&mut self, others: impl IntoIterator<Item = &'a Self>) {
        let (candidates, bytes) = others.into_iter().fold((0, 0), |(c, b), o| {
            (c + o.peak_candidates, b + o.peak_bytes)
        });
        self.peak_candidates = self.peak_candidates.max(candidates);
        self.peak_bytes = self.peak_bytes.max(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut mem = CounterMemory::new();
        mem.add_candidates(5);
        mem.remove_candidates(4);
        mem.add_candidates(2);
        assert_eq!(mem.current_candidates(), 3);
        assert_eq!(mem.peak_candidates(), 5);
    }

    #[test]
    fn bytes_model_counts_lists_and_entries() {
        let mut mem = CounterMemory::new();
        mem.add_list();
        mem.add_list();
        mem.add_candidates(10);
        assert_eq!(
            mem.current_bytes(),
            10 * ENTRY_BYTES + 2 * COL_OVERHEAD_BYTES
        );
        mem.remove_list();
        assert_eq!(mem.current_bytes(), 10 * ENTRY_BYTES + COL_OVERHEAD_BYTES);
        assert_eq!(mem.peak_bytes(), 10 * ENTRY_BYTES + 2 * COL_OVERHEAD_BYTES);
    }

    #[test]
    fn history_records_samples() {
        let mut mem = CounterMemory::with_history(100);
        for row in 1..=5 {
            mem.add_candidates(row);
            mem.sample(row);
        }
        let hist = mem.history();
        assert_eq!(hist.len(), 5);
        assert_eq!(hist[0].rows_scanned, 1);
        assert_eq!(hist[4].candidates, 1 + 2 + 3 + 4 + 5);
        assert_eq!(hist[2].bytes, hist[2].candidates * ENTRY_BYTES);
    }

    #[test]
    fn history_decimates_when_full() {
        let mut mem = CounterMemory::with_history(4);
        for row in 1..=32 {
            mem.add_candidates(1);
            mem.sample(row);
        }
        let hist = mem.history();
        assert!(hist.len() <= 4 + 1, "bounded: got {}", hist.len());
        // Samples remain in increasing row order.
        assert!(hist
            .windows(2)
            .all(|w| w[0].rows_scanned < w[1].rows_scanned));
    }

    #[test]
    fn no_history_by_default() {
        let mut mem = CounterMemory::new();
        mem.add_candidates(1);
        mem.sample(1);
        assert!(mem.history().is_empty());
    }

    #[test]
    fn with_history_clamps_tiny_caps() {
        let mut mem = CounterMemory::with_history(0);
        for row in 1..=16 {
            mem.add_candidates(1);
            mem.sample(row);
        }
        assert!(!mem.history().is_empty(), "cap is clamped to at least 2");
        assert!(mem.history().len() <= 3);
    }

    #[test]
    fn absorb_merges_histories() {
        let mut a = CounterMemory::with_history(8);
        a.add_candidates(1);
        a.sample(1);
        let mut b = CounterMemory::with_history(8);
        b.add_candidates(2);
        b.sample(1);
        a.absorb_peak(&b);
        assert_eq!(a.history().len(), 2);
    }

    #[test]
    fn absorb_peak_takes_max() {
        let mut a = CounterMemory::new();
        a.add_candidates(3);
        let mut b = CounterMemory::new();
        b.add_candidates(10);
        b.remove_candidates(10);
        a.absorb_peak(&b);
        assert_eq!(a.peak_candidates(), 10);
        assert_eq!(a.current_candidates(), 3);
    }
}
