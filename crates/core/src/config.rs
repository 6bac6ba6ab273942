//! Run configuration for the DMC drivers.

use dmc_matrix::order::RowOrder;
use dmc_matrix::spill_io::{RetryPolicy, SpillSettings};

/// When to abandon DMC-base counting and finish with the low-memory
/// DMC-bitmap tail phase (§4.2 "memory-explosion elimination").
///
/// The paper switches "when the number of remaining rows becomes 64 or less,
/// and the memory size for the counter array … exceeds 50MB"; both knobs are
/// configurable here. [`SwitchPolicy::never`] disables the switch (useful
/// for ablation).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SwitchPolicy {
    /// Switch only when this many or fewer rows remain.
    pub max_tail_rows: usize,
    /// Switch only once the modeled counter-array footprint exceeds this
    /// many bytes.
    pub memory_limit_bytes: usize,
}

impl SwitchPolicy {
    /// The paper's settings: 64 remaining rows, 50 MB counter array.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            max_tail_rows: 64,
            memory_limit_bytes: 50 * 1024 * 1024,
        }
    }

    /// Never switch to the bitmap phase.
    #[must_use]
    pub fn never() -> Self {
        Self {
            max_tail_rows: 0,
            memory_limit_bytes: usize::MAX,
        }
    }

    /// Switch as soon as `max_tail_rows` or fewer rows remain, regardless
    /// of memory (useful for tests and ablation).
    #[must_use]
    pub fn always_at(max_tail_rows: usize) -> Self {
        Self {
            max_tail_rows,
            memory_limit_bytes: 0,
        }
    }

    /// `true` when the scan should switch with `remaining` rows left and
    /// the given counter footprint.
    #[inline]
    #[must_use]
    pub fn should_switch(&self, remaining: usize, counter_bytes: usize) -> bool {
        remaining > 0 && remaining <= self.max_tail_rows && counter_bytes >= self.memory_limit_bytes
    }
}

impl Default for SwitchPolicy {
    fn default() -> Self {
        Self::paper()
    }
}

/// Configuration for [`crate::find_implications`] (DMC-imp).
#[derive(Clone, Debug)]
pub struct ImplicationConfig {
    /// Minimum confidence in `(0, 1]`.
    pub minconf: f64,
    /// Row scan order for the counting pass (§4.1). Default: the paper's
    /// bucketed sparsest-first order.
    pub row_order: RowOrder,
    /// DMC-bitmap switch policy (§4.2).
    pub switch: SwitchPolicy,
    /// Run the dedicated 100%-rule stage before the sub-100% stage
    /// (§4.3 / Algorithm 4.2 steps 2–3). Disabling it runs a single general
    /// pass; the rule set is identical either way.
    pub hundred_stage: bool,
    /// Release a column's candidate list as soon as the column completes
    /// (Algorithm 3.1 step 3(b)). Kept as a toggle because the paper's
    /// §4.1 memory histories were evidently measured without the release.
    pub release_completed: bool,
    /// Also emit the reverse direction `c_j ⇒ c_i` when it independently
    /// meets `minconf`. The paper reports only the canonical
    /// small-to-large direction; the reverse is recoverable because
    /// `Conf(c_j ⇒ c_i) ≤ Conf(c_i ⇒ c_j)`.
    pub emit_reverse: bool,
    /// Record the per-row candidate-count history (the Fig-3 curve) in the
    /// output's memory tracker.
    pub record_memory_history: bool,
    /// Spill I/O settings for the streamed drivers (backend, retry policy,
    /// directory). Ignored by the in-memory drivers.
    pub spill: SpillSettings,
}

impl ImplicationConfig {
    /// A configuration with the paper's defaults at the given `minconf`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < minconf <= 1`.
    #[must_use]
    pub fn new(minconf: f64) -> Self {
        assert!(
            minconf > 0.0 && minconf <= 1.0,
            "minconf must be in (0, 1], got {minconf}"
        );
        Self {
            minconf,
            row_order: RowOrder::BucketedSparsestFirst,
            switch: SwitchPolicy::paper(),
            hundred_stage: true,
            release_completed: true,
            emit_reverse: false,
            record_memory_history: false,
            spill: SpillSettings::default(),
        }
    }

    /// Builder-style: set the row order.
    #[must_use]
    pub fn with_row_order(mut self, order: RowOrder) -> Self {
        self.row_order = order;
        self
    }

    /// Builder-style: set the switch policy.
    #[must_use]
    pub fn with_switch(mut self, switch: SwitchPolicy) -> Self {
        self.switch = switch;
        self
    }

    /// Builder-style: toggle the 100%-rule stage.
    #[must_use]
    pub fn with_hundred_stage(mut self, on: bool) -> Self {
        self.hundred_stage = on;
        self
    }

    /// Builder-style: toggle reverse-rule emission.
    #[must_use]
    pub fn with_reverse(mut self, on: bool) -> Self {
        self.emit_reverse = on;
        self
    }

    /// Builder-style: set the spill I/O settings (streamed drivers).
    #[must_use]
    pub fn with_spill(mut self, spill: SpillSettings) -> Self {
        self.spill = spill;
        self
    }

    /// Builder-style: cap transient spill-fault retries (streamed drivers).
    #[must_use]
    pub fn with_spill_retries(mut self, max_retries: u32) -> Self {
        self.spill.retry = RetryPolicy {
            max_retries,
            ..self.spill.retry
        };
        self
    }
}

/// Configuration for [`crate::find_similarities`] (DMC-sim).
#[derive(Clone, Debug)]
pub struct SimilarityConfig {
    /// Minimum Jaccard similarity in `(0, 1]`.
    pub minsim: f64,
    /// Row scan order for the counting pass (§4.1).
    pub row_order: RowOrder,
    /// DMC-bitmap switch policy (§4.2).
    pub switch: SwitchPolicy,
    /// Run the dedicated identical-column stage before the sub-100% stage
    /// (Algorithm 5.1 steps 2–3).
    pub hundred_stage: bool,
    /// Apply maximum-hits pruning (§5.2).
    pub max_hits_pruning: bool,
    /// Release candidate lists at column completion (see
    /// [`ImplicationConfig::release_completed`]).
    pub release_completed: bool,
    /// Record the per-row candidate-count history.
    pub record_memory_history: bool,
    /// Spill I/O settings for the streamed drivers (backend, retry policy,
    /// directory). Ignored by the in-memory drivers.
    pub spill: SpillSettings,
}

impl SimilarityConfig {
    /// A configuration with the paper's defaults at the given `minsim`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < minsim <= 1`.
    #[must_use]
    pub fn new(minsim: f64) -> Self {
        assert!(
            minsim > 0.0 && minsim <= 1.0,
            "minsim must be in (0, 1], got {minsim}"
        );
        Self {
            minsim,
            row_order: RowOrder::BucketedSparsestFirst,
            switch: SwitchPolicy::paper(),
            hundred_stage: true,
            max_hits_pruning: true,
            release_completed: true,
            record_memory_history: false,
            spill: SpillSettings::default(),
        }
    }

    /// Builder-style: set the row order.
    #[must_use]
    pub fn with_row_order(mut self, order: RowOrder) -> Self {
        self.row_order = order;
        self
    }

    /// Builder-style: set the switch policy.
    #[must_use]
    pub fn with_switch(mut self, switch: SwitchPolicy) -> Self {
        self.switch = switch;
        self
    }

    /// Builder-style: toggle maximum-hits pruning.
    #[must_use]
    pub fn with_max_hits_pruning(mut self, on: bool) -> Self {
        self.max_hits_pruning = on;
        self
    }

    /// Builder-style: toggle the identical-column stage.
    #[must_use]
    pub fn with_hundred_stage(mut self, on: bool) -> Self {
        self.hundred_stage = on;
        self
    }

    /// Builder-style: set the spill I/O settings (streamed drivers).
    #[must_use]
    pub fn with_spill(mut self, spill: SpillSettings) -> Self {
        self.spill = spill;
        self
    }

    /// Builder-style: cap transient spill-fault retries (streamed drivers).
    #[must_use]
    pub fn with_spill_retries(mut self, max_retries: u32) -> Self {
        self.spill.retry = RetryPolicy {
            max_retries,
            ..self.spill.retry
        };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_switch_policy_values() {
        let p = SwitchPolicy::paper();
        assert_eq!(p.max_tail_rows, 64);
        assert_eq!(p.memory_limit_bytes, 50 * 1024 * 1024);
        // Over-limit memory but too many remaining rows: no switch.
        assert!(!p.should_switch(65, usize::MAX));
        // Few rows but small memory: no switch.
        assert!(!p.should_switch(10, 1024));
        assert!(p.should_switch(64, 51 * 1024 * 1024));
        assert!(
            !p.should_switch(0, usize::MAX),
            "nothing left to switch for"
        );
    }

    #[test]
    fn never_and_always_policies() {
        assert!(!SwitchPolicy::never().should_switch(1, usize::MAX));
        assert!(SwitchPolicy::always_at(100).should_switch(100, 0));
        assert!(!SwitchPolicy::always_at(100).should_switch(101, 0));
    }

    #[test]
    #[should_panic(expected = "minconf must be in (0, 1]")]
    fn rejects_zero_minconf() {
        let _ = ImplicationConfig::new(0.0);
    }

    #[test]
    #[should_panic(expected = "minsim must be in (0, 1]")]
    fn rejects_oversized_minsim() {
        let _ = SimilarityConfig::new(1.5);
    }

    #[test]
    fn builders_set_fields() {
        let c = ImplicationConfig::new(0.9)
            .with_row_order(RowOrder::Original)
            .with_switch(SwitchPolicy::never())
            .with_hundred_stage(false)
            .with_reverse(true);
        assert_eq!(c.row_order, RowOrder::Original);
        assert_eq!(c.switch, SwitchPolicy::never());
        assert!(!c.hundred_stage);
        assert!(c.emit_reverse);

        let s = SimilarityConfig::new(0.8).with_max_hits_pruning(false);
        assert!(!s.max_hits_pruning);
    }
}
