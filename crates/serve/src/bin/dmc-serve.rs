//! The standalone daemon: load a matrix, mine once, serve until a
//! `shutdown` request.
//!
//! ```text
//! dmc-serve <matrix-file> (--minconf X | --minsim X)
//!           [--addr HOST:PORT] [--metrics FILE]
//!           [--telemetry-addr HOST:PORT]
//! ```
//!
//! Prints `listening on HOST:PORT` once ready (with `--addr` defaulting
//! to `127.0.0.1:0`, the OS picks the port and this line is how clients
//! learn it). Exit code 2 for usage errors, 1 for runtime failures.

use dmc_core::{Engine, MineConfig};
use dmc_matrix::io::read_matrix;
use dmc_serve::{run_daemon, DaemonOptions};
use std::fs::File;
use std::process::ExitCode;

const USAGE: &str = "usage: dmc-serve <matrix-file> (--minconf X | --minsim X) \
[--addr HOST:PORT] [--metrics FILE] [--telemetry-addr HOST:PORT]";

struct Cli {
    matrix: String,
    config: MineConfig,
    options: DaemonOptions,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut matrix = None;
    let mut minconf = None;
    let mut minsim = None;
    let mut options = DaemonOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--minconf" => minconf = Some(value("--minconf")?),
            "--minsim" => minsim = Some(value("--minsim")?),
            "--addr" => options.addr = value("--addr")?,
            "--metrics" => options.metrics = Some(value("--metrics")?),
            "--telemetry-addr" => options.telemetry_addr = Some(value("--telemetry-addr")?),
            other if other.starts_with('-') => return Err(format!("unknown option {other}")),
            other if matrix.is_none() => matrix = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    let matrix = matrix.ok_or_else(|| "a matrix file is required".to_string())?;
    let parse_threshold = |name: &str, text: String| {
        text.parse::<f64>()
            .map_err(|_| format!("{name} needs a number"))
    };
    let config =
        match (minconf, minsim) {
            (Some(c), None) => MineConfig::implications(parse_threshold("--minconf", c)?)
                .map_err(|e| e.to_string())?,
            (None, Some(s)) => MineConfig::similarities(parse_threshold("--minsim", s)?)
                .map_err(|e| e.to_string())?,
            _ => return Err("exactly one of --minconf or --minsim is required".to_string()),
        };
    Ok(Cli {
        matrix,
        config,
        options,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let matrix = match File::open(&cli.matrix)
        .map_err(|e| e.to_string())
        .and_then(|f| read_matrix(f).map_err(|e| e.to_string()))
    {
        Ok(matrix) => matrix,
        Err(message) => {
            eprintln!("{}: {message}", cli.matrix);
            return ExitCode::from(1);
        }
    };
    let engine = Engine::new(cli.config, matrix);
    match run_daemon(engine, &cli.options) {
        Ok(stats) => {
            eprintln!(
                "served {} requests over {} connections ({} errors)",
                stats.requests, stats.connections, stats.errors
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve failed: {e}");
            ExitCode::from(1)
        }
    }
}
