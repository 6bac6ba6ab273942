//! `dmc-benchsuite` — machine-readable benchmark suite with a
//! noise-aware regression gate.
//!
//! ```text
//! dmc-benchsuite run [--quick] [-o FILE] [--name NAME]
//! dmc-benchsuite compare BASELINE CURRENT [--gate]
//!     [--mad-k K] [--rel-floor F] [--abs-floor S]
//! ```
//!
//! `run` executes the workload matrix (in-memory vs streamed ×
//! implication vs similarity × planted scales), records median/MAD wall
//! times and work-normalized rates per cell, and writes a `dmc.bench.v1`
//! record. `compare` diffs two records and renders a per-cell verdict
//! table; with `--gate` it exits nonzero when any cell regressed beyond
//! the noise band.

use dmc_bench::baseline;
use dmc_bench::compare::{compare, Tolerance};
use dmc_bench::suite::{run_suite, SuiteConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: dmc-benchsuite run [--quick] [-o FILE] [--name NAME]\n\
         \x20      dmc-benchsuite compare BASELINE CURRENT [--gate]\n\
         \x20          [--mad-k K] [--rel-floor F] [--abs-floor S]\n\
         \n\
         run      mine the workload matrix and write a dmc.bench.v1 record\n\
         \x20        --quick    small scale, 5 repeats (CI gate matrix)\n\
         \x20        -o FILE    output path (default BENCH_<name>.json)\n\
         \x20        --name N   record name (default full/quick)\n\
         compare  diff two records with a noise-aware threshold\n\
         \x20        --gate       exit 1 when any cell regressed\n\
         \x20        --mad-k K    MAD multiplier in the noise band (default 3)\n\
         \x20        --rel-floor F  relative band floor (default 0.05)\n\
         \x20        --abs-floor S  absolute band floor in seconds (default 0.02)"
    );
    ExitCode::from(2)
}

fn parse_flag_value(
    args: &mut std::iter::Peekable<std::vec::IntoIter<String>>,
    flag: &str,
) -> Result<String, ExitCode> {
    args.next().ok_or_else(|| {
        eprintln!("dmc-benchsuite: {flag} needs a value");
        ExitCode::from(2)
    })
}

fn run(args: Vec<String>) -> ExitCode {
    let mut quick = false;
    let mut out: Option<PathBuf> = None;
    let mut name: Option<String> = None;
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "-o" | "--out" => match parse_flag_value(&mut args, &arg) {
                Ok(v) => out = Some(PathBuf::from(v)),
                Err(code) => return code,
            },
            "--name" => match parse_flag_value(&mut args, &arg) {
                Ok(v) => name = Some(v),
                Err(code) => return code,
            },
            _ => {
                eprintln!("dmc-benchsuite: unknown run argument {arg:?}");
                return usage();
            }
        }
    }
    let mut config = if quick {
        SuiteConfig::quick()
    } else {
        SuiteConfig::full()
    };
    if let Some(name) = name {
        config.name = name;
    }
    let out = out.unwrap_or_else(|| PathBuf::from(format!("BENCH_{}.json", config.name)));
    eprintln!(
        "running {} suite: scales {:?}, {} warmup + {} repeats per cell",
        config.name, config.scales, config.warmup, config.repeats
    );
    let suite = run_suite(&config, |line| eprintln!("  {line}"));
    if let Err(e) = baseline::save(&suite, &out) {
        eprintln!("dmc-benchsuite: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {} ({} cells)", out.display(), suite.cells.len());
    ExitCode::SUCCESS
}

fn run_compare(args: Vec<String>) -> ExitCode {
    let mut gate = false;
    let mut tolerance = Tolerance::default();
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        let float_flag = |args: &mut std::iter::Peekable<std::vec::IntoIter<String>>,
                          target: &mut f64|
         -> Option<ExitCode> {
            match parse_flag_value(args, &arg) {
                Ok(v) => match v.parse::<f64>() {
                    Ok(parsed) if parsed >= 0.0 => {
                        *target = parsed;
                        None
                    }
                    _ => {
                        eprintln!("dmc-benchsuite: {arg} needs a non-negative number, got {v:?}");
                        Some(ExitCode::from(2))
                    }
                },
                Err(code) => Some(code),
            }
        };
        match arg.as_str() {
            "--gate" => gate = true,
            "--mad-k" => {
                if let Some(code) = float_flag(&mut args, &mut tolerance.mad_k) {
                    return code;
                }
            }
            "--rel-floor" => {
                if let Some(code) = float_flag(&mut args, &mut tolerance.rel_floor) {
                    return code;
                }
            }
            "--abs-floor" => {
                if let Some(code) = float_flag(&mut args, &mut tolerance.abs_floor) {
                    return code;
                }
            }
            _ if arg.starts_with('-') => {
                eprintln!("dmc-benchsuite: unknown compare argument {arg:?}");
                return usage();
            }
            _ => paths.push(PathBuf::from(arg)),
        }
    }
    let [base_path, cur_path] = paths.as_slice() else {
        eprintln!("dmc-benchsuite: compare needs exactly two record paths");
        return usage();
    };
    let load = |path: &Path| {
        baseline::load(path).map_err(|e| {
            eprintln!("dmc-benchsuite: {}: {e}", path.display());
            ExitCode::FAILURE
        })
    };
    let (base, cur) = match (load(base_path), load(cur_path)) {
        (Ok(b), Ok(c)) => (b, c),
        _ => return ExitCode::FAILURE,
    };
    let cmp = match compare(&base, &cur, tolerance) {
        Ok(cmp) => cmp,
        Err(e) => {
            eprintln!("dmc-benchsuite: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", cmp.render());
    let regressions = cmp.regressions();
    if regressions.is_empty() {
        println!(
            "gate: PASS ({} cells within the noise band)",
            cmp.cells.len()
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "gate: {} ({} of {} cells regressed)",
            if gate {
                "FAIL"
            } else {
                "problems found (advisory, no --gate)"
            },
            regressions.len(),
            cmp.cells.len()
        );
        if gate {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let subcommand = args.remove(0);
    match subcommand.as_str() {
        "run" => run(args),
        "compare" => run_compare(args),
        "--help" | "-h" | "help" => {
            usage();
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("dmc-benchsuite: unknown subcommand {subcommand:?}");
            usage()
        }
    }
}
