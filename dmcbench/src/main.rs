//! End-to-end and per-layer benchmark of the DMC workspace.
//!
//! ```text
//! dmcbench --workload NAME --seed N --seconds N --trace 0|1
//!          [--scale full|tiny] [--inject-wrong]
//! ```
//!
//! Each workload generates its input in-process from `--seed`, drives the
//! system through its public entry points for `--seconds`, checks every
//! output, and prints one line per metric (value, unit, sample count)
//! followed by a final JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is a separate
//! run that times the calls into each layer and reports the per-layer
//! metrics. `--scale tiny` and `--inject-wrong` exist for the
//! benchmark's own tests. See `NOTES.md` for why each workload exists.

mod measure;
mod mine;
mod serve;

use measure::Outcome;
use std::process::ExitCode;
use std::time::Duration;

/// Input sizes of the workloads.
pub struct Scale {
    pub weblog_clients: usize,
    pub weblog_urls: usize,
    pub news_docs: usize,
    pub news_vocab: usize,
    pub serve_docs: usize,
    pub serve_vocab: usize,
}

impl Scale {
    fn full() -> Self {
        Self {
            weblog_clients: 400_000,
            weblog_urls: 12_000,
            news_docs: 80_000,
            news_vocab: 20_000,
            serve_docs: 100_000,
            serve_vocab: 20_000,
        }
    }

    fn tiny() -> Self {
        Self {
            weblog_clients: 4_000,
            weblog_urls: 400,
            news_docs: 2_000,
            news_vocab: 1_000,
            serve_docs: 2_000,
            serve_vocab: 1_000,
        }
    }
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
    pub scale: Scale,
    /// Corrupts the first checked output, to show the checks catch it.
    pub inject_wrong: bool,
}

const USAGE: &str = "usage: dmcbench --workload weblog-imp|news-sim-stream|serve-mixed \
--seed N --seconds N --trace 0|1 [--scale full|tiny] [--inject-wrong]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut scale = Scale::full();
    let mut inject_wrong = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|_| "--seconds needs an integer")?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--scale" => {
                scale = match value()?.as_str() {
                    "full" => Scale::full(),
                    "tiny" => Scale::tiny(),
                    _ => return Err("--scale takes full or tiny".into()),
                }
            }
            "--inject-wrong" => inject_wrong = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        window: Duration::from_secs(seconds.ok_or("--seconds is required")?),
        trace: trace.ok_or("--trace is required")?,
        scale,
        inject_wrong,
    })
}

/// Prints the metric table and the final JSON result line.
fn report(args: &Args, outcome: &Outcome) {
    let mode = if args.trace {
        "per-layer"
    } else {
        "end-to-end"
    };
    println!("# {} seed {} ({mode})", args.workload, args.seed);
    for m in &outcome.metrics {
        println!(
            "{:<30} {:>16.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "{:<30} {:>16.6} {:<6} n={}",
        "fail_frac",
        measure::ratio(outcome.failed as f64, outcome.attempted as f64),
        "ratio",
        outcome.attempted
    );
    print!("{}", outcome.spans);
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dmcbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Both modes measure the program with its own span capture at the
    // default (off), whatever the environment says.
    dmc_metrics::telemetry::set_spans_enabled(false);
    let outcome = match args.workload.as_str() {
        "weblog-imp" => mine::run(&mine::WeblogImp, &args),
        "news-sim-stream" => mine::run(&mine::NewsSimStream, &args),
        "serve-mixed" => serve::run(&args),
        other => {
            eprintln!("dmcbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(outcome) => {
            if outcome.metrics.iter().any(|m| !m.value.is_finite()) {
                eprintln!("dmcbench: a metric is not a finite number");
                return ExitCode::FAILURE;
            }
            report(&args, &outcome);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dmcbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
