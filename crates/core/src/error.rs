//! Unified error types for the mining entry points.
//!
//! Historically the in-memory `run` path was infallible while the
//! streamed path returned [`StreamError`], so generic callers had to
//! special-case the two. [`MineError`] folds both — plus the typed
//! threshold validation of the [`Engine`](crate::Engine) path — into one
//! enum: in-memory mines simply never produce the stream-only variants.

use crate::stream::StreamError;
use dmc_matrix::ColumnId;
use std::convert::Infallible;
use std::fmt;
use std::io;

/// A mining threshold outside its domain.
///
/// Produced by the typed constructors ([`MineConfig::implications`]
/// (crate::MineConfig::implications) and friends); the legacy
/// `Miner::implications` / `Miner::similarities` wrappers keep their
/// documented panic for compatibility.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConfigError {
    /// Which knob was out of range (`"minconf"` or `"minsim"`).
    pub name: &'static str,
    /// The rejected value.
    pub value: f64,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} must be in (0, 1], got {}", self.name, self.value)
    }
}

impl std::error::Error for ConfigError {}

/// One error enum across every mining path.
///
/// The generic `E` is the row-source error of streamed mines and defaults
/// to [`Infallible`] for in-memory mines, where only
/// [`MineError::Config`] and [`MineError::ColumnOutOfRange`] can occur.
#[derive(Debug)]
pub enum MineError<E = Infallible> {
    /// A threshold failed validation (engine path only; the builder
    /// facade panics instead).
    Config(ConfigError),
    /// The caller's row source failed (streamed mines).
    Source(E),
    /// Spill-file IO failed after any transient-fault retries (streamed
    /// mines).
    Io {
        /// What the spill was doing when it failed.
        context: &'static str,
        /// The underlying error, kind intact.
        error: io::Error,
    },
    /// A spill frame failed its integrity checks (streamed mines).
    CorruptSpill {
        /// 0-based index of the offending frame in replay order.
        frame: u64,
        /// Which guard tripped (e.g. "checksum mismatch").
        reason: &'static str,
    },
    /// A row contained an id `>= n_cols`; payload is (row index, id).
    ColumnOutOfRange { row: usize, id: ColumnId },
}

impl<E> From<ConfigError> for MineError<E> {
    fn from(e: ConfigError) -> Self {
        MineError::Config(e)
    }
}

impl<E> From<StreamError<E>> for MineError<E> {
    fn from(e: StreamError<E>) -> Self {
        match e {
            StreamError::Source(e) => MineError::Source(e),
            StreamError::Io { context, error } => MineError::Io { context, error },
            StreamError::CorruptSpill { frame, reason } => {
                MineError::CorruptSpill { frame, reason }
            }
            StreamError::ColumnOutOfRange { row, id } => MineError::ColumnOutOfRange { row, id },
        }
    }
}

impl<E: fmt::Display> fmt::Display for MineError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MineError::Config(e) => write!(f, "{e}"),
            MineError::Source(e) => write!(f, "row source error: {e}"),
            MineError::Io { context, error } => {
                write!(f, "spill io error ({context}): {error}")
            }
            MineError::CorruptSpill { frame, reason } => {
                write!(f, "corrupt spill frame {frame}: {reason}")
            }
            MineError::ColumnOutOfRange { row, id } => {
                write!(f, "row {row}: column id {id} out of range")
            }
        }
    }
}

impl<E: fmt::Display + fmt::Debug> std::error::Error for MineError<E> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_error_display_matches_the_legacy_panic_message() {
        let e = ConfigError {
            name: "minconf",
            value: 0.0,
        };
        assert_eq!(e.to_string(), "minconf must be in (0, 1], got 0");
        let e = ConfigError {
            name: "minsim",
            value: 1.5,
        };
        assert_eq!(e.to_string(), "minsim must be in (0, 1], got 1.5");
    }

    #[test]
    fn stream_errors_convert_variant_for_variant() {
        let cases: Vec<(StreamError<String>, &str)> = vec![
            (StreamError::Source("boom".into()), "row source error: boom"),
            (
                StreamError::Io {
                    context: "spill io",
                    error: io::Error::other("disk"),
                },
                "spill io error (spill io): disk",
            ),
            (
                StreamError::CorruptSpill {
                    frame: 7,
                    reason: "checksum mismatch",
                },
                "corrupt spill frame 7: checksum mismatch",
            ),
            (
                StreamError::ColumnOutOfRange { row: 3, id: 99 },
                "row 3: column id 99 out of range",
            ),
        ];
        for (err, text) in cases {
            let mined: MineError<String> = err.into();
            assert_eq!(mined.to_string(), text);
        }
        let mined: MineError<String> = ConfigError {
            name: "minconf",
            value: 2.0,
        }
        .into();
        assert!(matches!(mined, MineError::Config(_)));
    }
}
