//! Minimal argument parsing for the `dmc` binary.
//!
//! Hand-rolled (the sanctioned offline dependency set has no CLI parser):
//! positional arguments plus `--flag` / `--key value` options, collected
//! into an [`Args`] bag the subcommands query with typed accessors.

use std::collections::BTreeMap;

/// Parsed command line: positionals in order, options by name.
#[derive(Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    options: BTreeMap<String, Option<String>>,
}

/// Errors from parsing or typed access.
#[derive(Debug, PartialEq, Eq)]
pub enum ArgError {
    /// An option needed a value but none followed.
    MissingValue(String),
    /// A value failed to parse; payload is (option, value).
    BadValue(String, String),
    /// A required option was absent.
    Required(String),
    /// The option no longer exists; payload is (option, why).
    Removed(String, &'static str),
    /// No command takes this option (a misspelling, most likely).
    Unknown(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingValue(opt) => write!(f, "option --{opt} needs a value"),
            ArgError::BadValue(opt, v) => write!(f, "option --{opt}: invalid value {v:?}"),
            ArgError::Required(opt) => write!(f, "option --{opt} is required"),
            ArgError::Removed(opt, why) => write!(f, "option --{opt} was removed: {why}"),
            ArgError::Unknown(opt) => write!(f, "unknown option --{opt}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Option names that take a value.
const VALUED: &[&str] = &[
    "minconf",
    "minsim",
    "order",
    "output",
    "rows",
    "cols",
    "seed",
    "min-support",
    "max-support",
    "switch-rows",
    "switch-bytes",
    "spill-retries",
    "limit",
    "scale",
    "rules",
    "metrics",
    "addr",
    "shards",
    "worker",
    "manifest",
    "min-boost",
    "top",
    "base",
    "telemetry-addr",
];

/// Option names that take no value. A `--name` in neither list is an
/// [`ArgError::Unknown`].
const FLAGS: &[&str] = &[
    "compact",
    "expand",
    "keep-shards",
    "merge",
    "no-hundred-stage",
    "no-max-hits",
    "quiet",
    "reverse",
    "stream",
];

impl Args {
    /// Parses raw arguments (without the program/subcommand names).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::MissingValue`] when a valued option ends the
    /// argument list, [`ArgError::Removed`] for a removed option and
    /// [`ArgError::Unknown`] for any other option no command takes.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self, ArgError> {
        let mut args = Args::default();
        let mut iter = raw.into_iter();
        while let Some(token) = iter.next() {
            if let Some(name) = token.strip_prefix("--") {
                // A removed option is a usage error, not a silently
                // ignored flag.
                if name == "threads" {
                    return Err(ArgError::Removed(
                        name.to_string(),
                        "the CLI runs every mine on one thread",
                    ));
                }
                if VALUED.contains(&name) {
                    match iter.next() {
                        Some(value) => {
                            args.options.insert(name.to_string(), Some(value));
                        }
                        None => return Err(ArgError::MissingValue(name.to_string())),
                    }
                } else if FLAGS.contains(&name) {
                    args.options.insert(name.to_string(), None);
                } else {
                    return Err(ArgError::Unknown(name.to_string()));
                }
            } else {
                args.positional.push(token);
            }
        }
        Ok(args)
    }

    /// Positional argument `i`.
    #[must_use]
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// `true` when `--name` was given (with or without a value).
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.options.contains_key(name)
    }

    /// String value of `--name`, if present.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).and_then(|v| v.as_deref())
    }

    /// Parsed value of `--name`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] when the value fails to parse.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError::BadValue(name.to_string(), v.to_string())),
        }
    }

    /// Parsed value of a required `--name`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::Required`] when absent, [`ArgError::BadValue`]
    /// when unparsable.
    pub fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, ArgError> {
        match self.get(name) {
            None => Err(ArgError::Required(name.to_string())),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError::BadValue(name.to_string(), v.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(parts: &[&str]) -> Args {
        Args::parse(parts.iter().map(ToString::to_string)).unwrap()
    }

    #[test]
    fn positionals_and_flags() {
        let a = parse(&["input.txt", "--reverse", "--minconf", "0.9"]);
        assert_eq!(a.positional(0), Some("input.txt"));
        assert_eq!(a.positional(1), None);
        assert!(a.flag("reverse"));
        assert!(!a.flag("quiet"));
        assert_eq!(a.get("minconf"), Some("0.9"));
    }

    #[test]
    fn typed_access() {
        let a = parse(&["--minconf", "0.85", "--limit", "4"]);
        assert_eq!(a.get_or("minconf", 1.0).unwrap(), 0.85);
        assert_eq!(a.get_or("limit", 1usize).unwrap(), 4);
        assert_eq!(a.get_or("rows", 10usize).unwrap(), 10, "default applies");
        assert_eq!(a.require::<f64>("minconf").unwrap(), 0.85);
    }

    #[test]
    fn error_cases() {
        let err = Args::parse(vec!["--minconf".to_string()]).unwrap_err();
        assert_eq!(err, ArgError::MissingValue("minconf".into()));

        let a = parse(&["--minconf", "high"]);
        assert!(matches!(
            a.get_or("minconf", 1.0),
            Err(ArgError::BadValue(_, _))
        ));
        assert!(matches!(
            a.require::<f64>("minsim"),
            Err(ArgError::Required(_))
        ));

        let err = Args::parse(vec!["--threads".to_string(), "4".to_string()]).unwrap_err();
        assert!(matches!(err, ArgError::Removed(ref opt, _) if opt == "threads"));
        assert!(err.to_string().contains("--threads was removed"));

        // A misspelled option is an error, not a silently ignored flag,
        // and its would-be value does not land in the positionals.
        let err = Args::parse(["data.txt", "--limt", "5"].map(String::from)).unwrap_err();
        assert_eq!(err, ArgError::Unknown("limt".into()));
        assert_eq!(err.to_string(), "unknown option --limt");
    }

    #[test]
    fn flag_and_valued_lists_are_disjoint() {
        for name in FLAGS {
            assert!(!VALUED.contains(name), "--{name} is both a flag and valued");
            assert!(parse(&[&format!("--{name}")]).flag(name));
        }
        for name in VALUED {
            assert_eq!(parse(&[&format!("--{name}"), "v"]).get(name), Some("v"));
        }
    }

    #[test]
    fn error_display() {
        assert_eq!(
            ArgError::Required("minsim".into()).to_string(),
            "option --minsim is required"
        );
        assert!(ArgError::BadValue("x".into(), "y".into())
            .to_string()
            .contains("invalid"));
    }
}
