//! `dmc` — mine implication and similarity rules from transaction files.
//!
//! ```text
//! dmc imp <file> --minconf 0.9 [--order bucketed|sorted|original]
//!                [--reverse] [--limit N] [--quiet]
//! dmc sim <file> --minsim 0.8 [--order …] [--limit N] [--quiet]
//! dmc groups <file> --minconf 0.9 --minsim 0.9
//! dmc stats <file>
//! dmc gen <weblog|linkgraph|news|dictionary> --rows N --cols N
//!         [--seed N] [--output file]
//! ```
//!
//! Files use the line-oriented transaction format of `dmc_matrix::io`
//! (one row per line, space-separated column ids; `-` reads stdin).

mod args;
mod commands;

use args::Args;
use std::process::ExitCode;

const USAGE: &str = "\
usage: dmc <command> [args]
commands:
  imp <file> --minconf X   mine implication rules (file '-' = stdin)
      [--order bucketed|sorted|original] [--reverse]
      [--switch-rows N --switch-bytes N] [--limit N] [--quiet]
      [--metrics FILE|-]   write the JSON run report ('-' = stdout)
      [--stream --cols N]  out-of-core: spill to disk, never materialize
      [--spill-retries N]  transient spill-fault retry cap (default 3)
      [--compact] [--base FILE]
                           also compute the irredundant rule base: report
                           the compaction ratio (and the report's
                           'compaction' section), write the base to FILE
  sim <file> --minsim X    mine similarity rules
      [--order ...] [--no-max-hits] [--limit N] [--quiet]
      [--metrics FILE|-] [--stream --cols N] [--spill-retries N]
      [--compact] [--base FILE]
  compact <rules-file> --minconf X | --minsim X
                           shrink a rules file to its irredundant base
                           (confidence boost per kept rule); '-' = stdin
      [--min-boost X] [--top N] [--output FILE|-] [--limit N] [--quiet]
      [--expand]           inverse: rebuild the full implied rule set
                           from a base file ([--reverse] if the original
                           mine emitted reverse directions)
  groups <file> --minconf X --minsim X
                           cluster columns connected by rules
      [--compact]          annotate each group with its base rule count
  verify <file> --rules R  re-check a rules file against the data
      [--minconf X] [--minsim X]
  stats <file>             print data-set statistics
  gen <kind> --rows N --cols N [--seed N] [--output file]
                           generate a synthetic data set
                           (weblog | linkgraph | news | dictionary)
  serve <file> --minconf X | --minsim X
                           mine once, then serve rule queries and row
                           ingest over length-framed JSON TCP
      [--addr HOST:PORT] [--metrics FILE|-]
                           (default addr 127.0.0.1:0; the chosen port is
                           printed as 'listening on HOST:PORT')
      [--telemetry-addr HOST:PORT]
                           also serve live telemetry in Prometheus text
                           format over plain HTTP ('telemetry on
                           HOST:PORT' is printed before the listening
                           line)
  top --addr HOST:PORT     one-shot telemetry view of a running daemon:
                           per-request-type latency histograms
                           (count/p50/p90/p99/max) plus counters and
                           gauges
  shard <file> --minconf X | --minsim X --shards N --manifest M
                           column-sharded multi-process mine: split the
                           columns into N LHS shards, mine each in a
                           worker child process, then verify checksums
                           and counter fingerprints and merge — output
                           is byte-identical to the unsharded mine
      [--output FILE] [--metrics FILE|-] [--keep-shards]
      [--order ...] [--reverse] [--limit N] [--quiet]
      [--worker I:LO-HI,...]  internal: mine one shard of the plan
      [--merge]               merge existing shard spills only";

fn main() -> ExitCode {
    let mut raw = std::env::args().skip(1);
    let Some(command) = raw.next() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let args = match Args::parse(raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dmc: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match command.as_str() {
        "imp" => commands::imp(&args),
        "sim" => commands::sim(&args),
        "compact" => commands::compact(&args),
        "groups" => commands::groups(&args),
        "verify" => commands::verify(&args),
        "stats" => commands::stats(&args),
        "gen" => commands::gen(&args),
        "serve" => commands::serve(&args),
        "top" => commands::top(&args),
        "shard" => commands::shard(&args),
        _ => {
            eprintln!("dmc: unknown command {command:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // Usage errors (bad or missing arguments) exit 2 with the usage
        // text; runtime failures (IO, bad data) exit 1.
        Err(e) if e.is::<args::ArgError>() => {
            eprintln!("dmc: {e}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("dmc: {e}");
            ExitCode::FAILURE
        }
    }
}
