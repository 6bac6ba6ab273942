//! Subcommand implementations for the `dmc` binary.

use crate::args::{ArgError, Args};
use dmc_core::{
    find_implications, find_similarities, rule_group_summaries, rule_groups, CompactedBase,
    CompactionConfig, Engine, ImplicationConfig, MineConfig, Miner, RowOrder, RunReport,
    SimilarityConfig, SwitchPolicy,
};
use dmc_datagen::{
    dictionary, link_graph, news, weblog, DictionaryConfig, LinkGraphConfig, NewsConfig,
    WeblogConfig,
};
use dmc_matrix::io::{read_matrix, write_matrix, RowLines};
use dmc_matrix::stats::{column_density_histogram, matrix_stats, row_density_histogram};
use dmc_matrix::SparseMatrix;
use std::error::Error;
use std::fs::File;
use std::io::{BufWriter, Write as _};

type CmdResult = Result<(), Box<dyn Error>>;

fn load(args: &Args) -> Result<SparseMatrix, Box<dyn Error>> {
    let path = args
        .positional(0)
        .ok_or_else(|| ArgError::Required("<file>".into()))?;
    let matrix = if path == "-" {
        read_matrix(std::io::stdin().lock())?
    } else {
        read_matrix(File::open(path)?)?
    };
    Ok(matrix)
}

fn row_order(args: &Args) -> Result<RowOrder, Box<dyn Error>> {
    Ok(match args.get("order") {
        None | Some("bucketed") => RowOrder::BucketedSparsestFirst,
        Some("sorted") => RowOrder::ExactSparsestFirst,
        Some("original") => RowOrder::Original,
        Some(other) => return Err(Box::new(ArgError::BadValue("order".into(), other.into()))),
    })
}

fn switch_policy(args: &Args) -> Result<SwitchPolicy, Box<dyn Error>> {
    let mut policy = SwitchPolicy::paper();
    policy.max_tail_rows = args.get_or("switch-rows", policy.max_tail_rows)?;
    policy.memory_limit_bytes = args.get_or("switch-bytes", policy.memory_limit_bytes)?;
    Ok(policy)
}

/// Writes the run report JSON to the `--metrics` destination (`-` is
/// stdout). No-op when the option is absent.
fn write_metrics(args: &Args, report: &RunReport) -> CmdResult {
    let Some(dest) = args.get("metrics") else {
        return Ok(());
    };
    let json = report.to_json();
    if dest == "-" {
        println!("{json}");
    } else {
        std::fs::write(dest, format!("{json}\n"))?;
        eprintln!("run report written to {dest}");
    }
    Ok(())
}

/// `dmc imp`: implication rules.
pub fn imp(args: &Args) -> CmdResult {
    let minconf: f64 = args.require("minconf")?;
    let miner = Miner::implications(minconf)
        .order(row_order(args)?)
        .switch(switch_policy(args)?)
        .reverse(args.flag("reverse"))
        .hundred_stage(!args.flag("no-hundred-stage"))
        .spill_retries(args.get_or("spill-retries", 3)?);

    if args.flag("stream") {
        // Out-of-core: one pass over the file plus spill-file replays;
        // the matrix is never materialized. Needs the column count up
        // front.
        let n_cols: usize = args.require("cols")?;
        let path = args
            .positional(0)
            .ok_or_else(|| ArgError::Required("<file>".into()))?;
        let reader = std::io::BufReader::new(File::open(path)?);
        let out = miner.mine_streamed(RowLines::new(reader), n_cols)?;
        return print_imp(args, &out, minconf, None);
    }

    let matrix = load(args)?;
    let out = miner.mine(&matrix)?;
    print_imp(args, &out, minconf, Some(&matrix))
}

fn print_imp(
    args: &Args,
    out: &dmc_core::ImplicationOutput,
    minconf: f64,
    matrix: Option<&SparseMatrix>,
) -> CmdResult {
    if let Some(path) = args.get("output") {
        let mut file = BufWriter::new(File::create(path)?);
        dmc_core::write_rules(&out.rules, &[], &mut file)?;
        file.flush()?;
    }
    let limit: usize = args.get_or("limit", usize::MAX)?;
    if !args.flag("quiet") {
        for rule in out.rules.iter().take(limit) {
            println!("{rule}");
        }
    }
    match matrix {
        Some(m) => eprintln!(
            "{} rules at minconf {minconf} ({} rows, {} cols); peak counter array {} entries",
            out.rules.len(),
            m.n_rows(),
            m.n_cols(),
            out.memory.peak_candidates()
        ),
        None => eprintln!(
            "{} rules at minconf {minconf} (streamed); peak counter array {} entries",
            out.rules.len(),
            out.memory.peak_candidates()
        ),
    }
    for (phase, time) in out.phases.phases() {
        eprintln!("  {phase:<12} {:.3}s", time.as_secs_f64());
    }
    let mut report = out.report.clone();
    if args.flag("compact") || args.get("base").is_some() {
        let base = dmc_core::compact_implications(&out.rules, minconf, None);
        write_base(args, &base)?;
        report.compaction = Some(base.report());
    }
    write_metrics(args, &report)
}

/// Shared `--compact` / `--base FILE` tail of the mine commands: writes
/// the irredundant base as a rules file and reports the ratio.
fn write_base(args: &Args, base: &CompactedBase) -> CmdResult {
    if let Some(path) = args.get("base") {
        let imps: Vec<_> = base.implications.iter().map(|b| b.rule).collect();
        let sims: Vec<_> = base.similarities.iter().map(|b| b.rule).collect();
        let mut file = BufWriter::new(File::create(path)?);
        dmc_core::write_rules(&imps, &sims, &mut file)?;
        file.flush()?;
        eprintln!("base written to {path}");
    }
    eprintln!(
        "compacted base: {} of {} rules (ratio {:.3})",
        base.rules_in_base(),
        base.rules_in(),
        base.ratio()
    );
    Ok(())
}

/// `dmc sim`: similarity rules.
pub fn sim(args: &Args) -> CmdResult {
    let minsim: f64 = args.require("minsim")?;
    let miner = Miner::similarities(minsim)
        .order(row_order(args)?)
        .switch(switch_policy(args)?)
        .max_hits_pruning(!args.flag("no-max-hits"))
        .hundred_stage(!args.flag("no-hundred-stage"))
        .spill_retries(args.get_or("spill-retries", 3)?);

    let out = if args.flag("stream") {
        let n_cols: usize = args.require("cols")?;
        let path = args
            .positional(0)
            .ok_or_else(|| ArgError::Required("<file>".into()))?;
        let reader = std::io::BufReader::new(File::open(path)?);
        miner.mine_streamed(RowLines::new(reader), n_cols)?
    } else {
        let matrix = load(args)?;
        miner.mine(&matrix)?
    };
    if let Some(path) = args.get("output") {
        let mut file = BufWriter::new(File::create(path)?);
        dmc_core::write_rules(&[], &out.rules, &mut file)?;
        file.flush()?;
    }
    let limit: usize = args.get_or("limit", usize::MAX)?;
    if !args.flag("quiet") {
        for rule in out.rules.iter().take(limit) {
            println!("{rule}");
        }
    }
    eprintln!(
        "{} pairs at minsim {minsim}; peak counter array {} entries",
        out.rules.len(),
        out.memory.peak_candidates()
    );
    let mut report = out.report.clone();
    if args.flag("compact") || args.get("base").is_some() {
        let base = dmc_core::compact_similarities(&out.rules, minsim);
        write_base(args, &base)?;
        report.compaction = Some(base.report());
    }
    write_metrics(args, &report)
}

/// `dmc compact`: shrink a rules file to its irredundant base, or
/// (`--expand`) rebuild the full implied rule set from a base file. The
/// round trip `compact` then `--expand` reproduces the original rules
/// file byte for byte.
pub fn compact(args: &Args) -> CmdResult {
    let path = args
        .positional(0)
        .ok_or_else(|| ArgError::Required("<rules-file>".into()))?;
    let (imps, sims) = if path == "-" {
        dmc_core::read_rules(std::io::stdin().lock())?
    } else {
        dmc_core::read_rules(File::open(path)?)?
    };
    // Each threshold is required exactly when rules of that kind are
    // present — compaction and expansion both reason about which implied
    // rules qualify at the mining threshold.
    let minconf: f64 = if imps.is_empty() {
        args.get_or("minconf", 1.0)?
    } else {
        args.require("minconf")?
    };
    let minsim: f64 = if sims.is_empty() {
        args.get_or("minsim", 1.0)?
    } else {
        args.require("minsim")?
    };

    if args.flag("expand") {
        let n_base = imps.len() + sims.len();
        let base =
            CompactedBase::from_base_rules(imps, sims, minconf, minsim, args.flag("reverse"));
        let (ei, es) = base.expand();
        write_rule_listing(args, &ei, &es)?;
        eprintln!(
            "expanded {n_base} base rules to {} rules",
            ei.len() + es.len()
        );
        return Ok(());
    }

    let base = dmc_core::compact(
        &imps,
        &sims,
        minconf,
        minsim,
        args.flag("reverse").then_some(true),
    );
    let config = CompactionConfig::default().with_min_boost(args.get_or("min-boost", 0.0)?);
    let config = match args.get("top") {
        Some(_) => config.with_top_k(args.require("top")?),
        None => config,
    };
    let (bi, bs) = base.select(&config);
    let imps: Vec<_> = bi.iter().map(|b| b.rule).collect();
    let sims: Vec<_> = bs.iter().map(|b| b.rule).collect();
    write_rule_listing(args, &imps, &sims)?;
    if !args.flag("quiet") && args.get("output") != Some("-") {
        let limit: usize = args.get_or("limit", usize::MAX)?;
        for b in bi.iter().take(limit) {
            println!("{} [boost {:.3}]", b.rule, b.boost);
        }
        for b in bs.iter().take(limit.saturating_sub(bi.len())) {
            println!("{} [boost {:.3}]", b.rule, b.boost);
        }
    }
    eprintln!(
        "compacted base: {} of {} rules (ratio {:.3}); {} selected",
        base.rules_in_base(),
        base.rules_in(),
        base.ratio(),
        imps.len() + sims.len()
    );
    Ok(())
}

/// Writes implication + similarity rules to `--output` in the rules-file
/// format (`-` is stdout; stdout suppresses the human listing).
fn write_rule_listing(
    args: &Args,
    imps: &[dmc_core::ImplicationRule],
    sims: &[dmc_core::SimilarityRule],
) -> CmdResult {
    let Some(path) = args.get("output") else {
        return Ok(());
    };
    if path == "-" {
        let stdout = std::io::stdout();
        dmc_core::write_rules(imps, sims, &mut stdout.lock())?;
    } else {
        let mut file = BufWriter::new(File::create(path)?);
        dmc_core::write_rules(imps, sims, &mut file)?;
        file.flush()?;
    }
    Ok(())
}

/// `dmc groups`: rule-graph clusters (§6.3).
pub fn groups(args: &Args) -> CmdResult {
    let matrix = load(args)?;
    let minconf: f64 = args.get_or("minconf", 1.0)?;
    let minsim: f64 = args.get_or("minsim", 1.0)?;
    let imps = find_implications(&matrix, &ImplicationConfig::new(minconf));
    let sims = find_similarities(&matrix, &SimilarityConfig::new(minsim));
    if args.flag("compact") {
        // Per-group compaction outcome: how much of each cluster the
        // irredundant base retains.
        let base = dmc_core::compact(&imps.rules, &sims.rules, minconf, minsim, None);
        let bi: Vec<_> = base.implications.iter().map(|b| b.rule).collect();
        let bs: Vec<_> = base.similarities.iter().map(|b| b.rule).collect();
        let summaries = rule_group_summaries(matrix.n_cols(), &imps.rules, &sims.rules, &bi, &bs);
        for (i, s) in summaries.iter().enumerate() {
            let members: Vec<String> = s.members.iter().map(|c| format!("c{c}")).collect();
            println!(
                "group {i}: {} ({} rules, {} in base)",
                members.join(" "),
                s.rules,
                s.base_rules
            );
        }
        eprintln!(
            "{} groups from {} rules ({} in base)",
            summaries.len(),
            base.rules_in(),
            base.rules_in_base()
        );
        return Ok(());
    }
    let clusters = rule_groups(matrix.n_cols(), &imps.rules, &sims.rules);
    for (i, cluster) in clusters.iter().enumerate() {
        let members: Vec<String> = cluster.iter().map(|c| format!("c{c}")).collect();
        println!("group {i}: {}", members.join(" "));
    }
    eprintln!(
        "{} groups from {} implication + {} similarity rules",
        clusters.len(),
        imps.rules.len(),
        sims.rules.len()
    );
    Ok(())
}

/// `dmc verify`: re-check a rules file against a matrix.
pub fn verify(args: &Args) -> CmdResult {
    let matrix = load(args)?;
    let rules_path: String = args.require("rules")?;
    let (imps, sims) = dmc_core::read_rules(File::open(&rules_path)?)?;
    let minconf: f64 = args.get_or("minconf", 1.0)?;
    let minsim: f64 = args.get_or("minsim", 1.0)?;
    let mut bad = 0usize;
    for (rule, check) in imps
        .iter()
        .zip(dmc_core::verify_implications(&matrix, &imps, minconf))
    {
        if check != dmc_core::RuleCheck::Valid {
            println!("FAIL {rule}: {check:?}");
            bad += 1;
        }
    }
    for (rule, check) in sims
        .iter()
        .zip(dmc_core::verify_similarities(&matrix, &sims, minsim))
    {
        if check != dmc_core::RuleCheck::Valid {
            println!("FAIL {rule}: {check:?}");
            bad += 1;
        }
    }
    eprintln!(
        "{} of {} rules verified",
        imps.len() + sims.len() - bad,
        imps.len() + sims.len()
    );
    if bad > 0 {
        return Err(format!("{bad} rules failed verification").into());
    }
    Ok(())
}

/// `dmc stats`: data-set statistics.
pub fn stats(args: &Args) -> CmdResult {
    let matrix = load(args)?;
    let s = matrix_stats(&matrix);
    println!("rows            {}", s.rows);
    println!("columns         {}", s.cols);
    println!("nonzero columns {}", s.nonzero_cols);
    println!("nnz             {}", s.nnz);
    println!("avg row density {:.2}", s.avg_row_density);
    println!("max row density {}", s.max_row_density);
    println!("max column ones {}", s.max_col_ones);
    println!("row-density histogram [2^i, 2^(i+1)):");
    for (b, count) in row_density_histogram(&matrix).iter().enumerate() {
        println!("  2^{b:<2} {count}");
    }
    println!("column-density histogram [2^i, 2^(i+1)):");
    for (b, count) in column_density_histogram(&matrix).iter().enumerate() {
        println!("  2^{b:<2} {count}");
    }
    Ok(())
}

/// `dmc serve`: mine once, then serve rule queries and row ingest over
/// TCP until a `shutdown` request (see `dmc-serve`'s protocol docs).
pub fn serve(args: &Args) -> CmdResult {
    let config = match (args.get("minconf"), args.get("minsim")) {
        (Some(c), None) => {
            let minconf: f64 = c
                .parse()
                .map_err(|_| ArgError::BadValue("minconf".into(), c.into()))?;
            MineConfig::implications(minconf)?
        }
        (None, Some(s)) => {
            let minsim: f64 = s
                .parse()
                .map_err(|_| ArgError::BadValue("minsim".into(), s.into()))?;
            MineConfig::similarities(minsim)?
        }
        _ => return Err(Box::new(ArgError::Required("minconf | --minsim".into()))),
    };
    let matrix = load(args)?;
    let engine = Engine::new(config, matrix);
    let options = dmc_serve::DaemonOptions {
        addr: args.get("addr").unwrap_or("127.0.0.1:0").to_string(),
        metrics: args.get("metrics").map(str::to_string),
        telemetry_addr: args.get("telemetry-addr").map(str::to_string),
    };
    let stats = dmc_serve::run_daemon(engine, &options)?;
    eprintln!(
        "served {} requests over {} connections ({} errors)",
        stats.requests, stats.connections, stats.errors
    );
    Ok(())
}

/// `dmc top`: one-shot view of a running daemon's telemetry — sends a
/// `metrics` request and renders the registry as a table.
pub fn top(args: &Args) -> CmdResult {
    use dmc_metrics::json::JsonValue;
    let addr: String = args.require("addr")?;
    let mut stream = std::net::TcpStream::connect(&addr)?;
    let v = dmc_serve::request(&mut stream, "{\"type\": \"metrics\"}")?;
    if v.get("ok") != Some(&JsonValue::Bool(true)) {
        let message = v
            .get("error")
            .and_then(JsonValue::as_str)
            .unwrap_or("daemon refused the metrics request");
        return Err(message.to_string().into());
    }
    let m = v
        .get("metrics")
        .ok_or("malformed metrics response: no \"metrics\" payload")?;

    let hists = m.get("histograms");
    let hist_names: Vec<&str> = hists.map(JsonValue::keys).unwrap_or_default();
    if !hist_names.is_empty() {
        println!(
            "{:<28} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "histogram", "count", "p50_us", "p90_us", "p99_us", "max_us"
        );
        for name in hist_names {
            let h = hists.and_then(|hs| hs.get(name));
            let field = |key: &str| {
                h.and_then(|h| h.get(key))
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0)
            };
            println!(
                "{name:<28} {:>10} {:>10} {:>10} {:>10} {:>10}",
                field("count"),
                field("p50_us"),
                field("p90_us"),
                field("p99_us"),
                field("max_us")
            );
        }
    }
    for (section, title) in [("counters", "counter"), ("gauges", "gauge")] {
        let Some(values) = m.get(section) else {
            continue;
        };
        let names = values.keys();
        if names.is_empty() {
            continue;
        }
        println!("{:<28} {:>10}", title, "value");
        for name in names {
            let value = values.get(name).and_then(JsonValue::as_f64).unwrap_or(0.0);
            println!("{name:<28} {value:>10}");
        }
    }
    Ok(())
}

/// Exactly one of `--minconf` / `--minsim`, folded with the shared
/// mining knobs into a [`MineConfig`] (the same shape the workers use).
fn shard_config(args: &Args) -> Result<MineConfig, Box<dyn Error>> {
    match (args.get("minconf"), args.get("minsim")) {
        (Some(c), None) => {
            let minconf: f64 = c
                .parse()
                .map_err(|_| ArgError::BadValue("minconf".into(), c.into()))?;
            MineConfig::implications(minconf)?; // range check with the typed error
            Ok(ImplicationConfig::new(minconf)
                .with_row_order(row_order(args)?)
                .with_switch(switch_policy(args)?)
                .with_reverse(args.flag("reverse"))
                .with_hundred_stage(!args.flag("no-hundred-stage"))
                .into())
        }
        (None, Some(s)) => {
            let minsim: f64 = s
                .parse()
                .map_err(|_| ArgError::BadValue("minsim".into(), s.into()))?;
            MineConfig::similarities(minsim)?;
            Ok(SimilarityConfig::new(minsim)
                .with_row_order(row_order(args)?)
                .with_switch(switch_policy(args)?)
                .with_max_hits_pruning(!args.flag("no-max-hits"))
                .with_hundred_stage(!args.flag("no-hundred-stage"))
                .into())
        }
        _ => Err(Box::new(ArgError::Required("minconf | --minsim".into()))),
    }
}

/// Parses a `--worker INDEX:LO-HI,LO-HI,...` spec into the worker's index
/// and the full shard plan. Malformed specs, an out-of-range index and
/// overlapping or duplicate ranges are usage errors (exit 2); gaps
/// against the matrix width can only be checked after the input loads.
fn parse_worker_spec(spec: &str) -> Result<(usize, Vec<(u32, u32)>), ArgError> {
    let bad = || ArgError::BadValue("worker".into(), spec.into());
    let (idx, ranges_str) = spec.split_once(':').ok_or_else(bad)?;
    let index: usize = idx.parse().map_err(|_| bad())?;
    let mut ranges = Vec::new();
    for part in ranges_str.split(',') {
        let (lo, hi) = part.split_once('-').ok_or_else(bad)?;
        let lo: u32 = lo.parse().map_err(|_| bad())?;
        let hi: u32 = hi.parse().map_err(|_| bad())?;
        if lo > hi {
            return Err(bad());
        }
        ranges.push((lo, hi));
    }
    if index >= ranges.len() {
        return Err(bad());
    }
    let mut sorted = ranges.clone();
    sorted.sort_unstable();
    if sorted.windows(2).any(|w| w[1].0 < w[0].1 || w[0] == w[1]) {
        return Err(bad());
    }
    Ok((index, ranges))
}

/// Option names a shard coordinator forwards verbatim to its workers so
/// every worker mines under the exact configuration of the parent.
const FORWARDED_VALUED: &[&str] = &[
    "minconf",
    "minsim",
    "order",
    "switch-rows",
    "switch-bytes",
    "spill-retries",
];
const FORWARDED_FLAGS: &[&str] = &["reverse", "no-hundred-stage", "no-max-hits"];

/// `dmc shard`: column-sharded multi-process mining.
///
/// Without `--worker` or `--merge` this is the coordinator: it plans the
/// column split, spawns one worker child process per shard (each re-runs
/// this binary with `--worker INDEX:PLAN`), then validates and merges the
/// shard spills into the consolidated manifest and the merged rule set —
/// byte-identical to an unsharded `dmc imp` / `dmc sim` run.
pub fn shard(args: &Args) -> CmdResult {
    let config = shard_config(args)?;
    let manifest: String = args.require("manifest")?;
    let retry = dmc_core::RetryPolicy::with_retries(args.get_or("spill-retries", 3)?);
    let io = dmc_matrix::spill_io::StdFsIo;

    // Worker mode: mine one shard of the plan and write its spill.
    if let Some(spec) = args.get("worker") {
        let (index, plan) = parse_worker_spec(spec)?;
        let matrix = load(args)?;
        let out = dmc_core::shard::run_worker(
            &io,
            std::path::Path::new(&manifest),
            retry,
            &config,
            &matrix,
            &plan,
            index,
        )?;
        let (lo, hi) = plan[index];
        if !args.flag("quiet") {
            eprintln!(
                "shard {index}: {} rules (columns {lo}..{hi})",
                out.rule_count()
            );
        }
        return Ok(());
    }

    let n_shards: usize = args.require("shards")?;
    if n_shards == 0 {
        return Err(Box::new(ArgError::BadValue("shards".into(), "0".into())));
    }
    if args.get("output") == Some(manifest.as_str()) {
        return Err(Box::new(ArgError::BadValue(
            "manifest".into(),
            format!("{manifest} (collides with --output)"),
        )));
    }

    let n_merge = if args.flag("merge") {
        // Merge-only: the shard spills already exist (e.g. written by
        // workers of an earlier invocation); just validate and merge.
        n_shards
    } else {
        let input = args
            .positional(0)
            .ok_or_else(|| ArgError::Required("<file>".into()))?
            .to_string();
        if input == "-" {
            // Workers each re-read the input, so it must be a real file.
            return Err(Box::new(ArgError::BadValue("<file>".into(), "-".into())));
        }
        let matrix = load(args)?;
        let plan = dmc_core::plan_shards(matrix.n_cols(), n_shards)?;
        drop(matrix);
        let ranges: Vec<String> = plan.iter().map(|(lo, hi)| format!("{lo}-{hi}")).collect();
        let ranges = ranges.join(",");
        let exe = std::env::current_exe()?;
        let mut children = Vec::with_capacity(plan.len());
        for index in 0..plan.len() {
            let mut cmd = std::process::Command::new(&exe);
            cmd.arg("shard")
                .arg(&input)
                .arg("--manifest")
                .arg(&manifest)
                .arg("--worker")
                .arg(format!("{index}:{ranges}"))
                .arg("--quiet");
            for name in FORWARDED_VALUED {
                if let Some(v) = args.get(name) {
                    cmd.arg(format!("--{name}")).arg(v);
                }
            }
            for name in FORWARDED_FLAGS {
                if args.flag(name) {
                    cmd.arg(format!("--{name}"));
                }
            }
            children.push((index, cmd.spawn()?));
        }
        // Poll every child rather than blocking on each in turn: every
        // child is still awaited before judging any (a failure does not
        // leave the rest running unattended), and between polls the
        // coordinator reads the workers' advisory progress frames and
        // mirrors them into the process-wide telemetry registry.
        let _span = dmc_metrics::span!("shard.coordinate");
        let registry = dmc_metrics::telemetry::global();
        let workers_running = registry.gauge("shard.workers_running");
        let workers_done = registry.gauge("shard.workers_done");
        let rules_reported = registry.counter("shard.rules_reported");
        workers_running.set(children.len() as i64);
        let manifest_path = std::path::Path::new(&manifest);
        let mut failed = Vec::new();
        let mut pending = children;
        let mut rules_seen = 0u64;
        while !pending.is_empty() {
            let mut still_running = Vec::with_capacity(pending.len());
            for (index, mut child) in pending {
                match child.try_wait()? {
                    Some(status) => {
                        workers_running.add(-1);
                        workers_done.add(1);
                        if !status.success() {
                            failed.push((index, status));
                        }
                    }
                    None => still_running.push((index, child)),
                }
            }
            pending = still_running;
            // Progress frames are best-effort advisory files; a torn or
            // missing frame reads as None and simply skips this tick.
            let rules_now: u64 = (0..plan.len())
                .filter_map(|i| dmc_core::shard::read_progress(manifest_path, i))
                .map(|p| p.rules)
                .sum();
            if rules_now > rules_seen {
                rules_reported.add(rules_now - rules_seen);
                rules_seen = rules_now;
            }
            if !pending.is_empty() {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        }
        if let Some((index, status)) = failed.first() {
            return Err(format!("shard worker {index} failed with {status}").into());
        }
        plan.len()
    };

    let merged = dmc_core::merge_shards(
        &io,
        std::path::Path::new(&manifest),
        n_merge,
        retry,
        args.flag("keep-shards"),
    )?;
    if let Some(path) = args.get("output") {
        let mut file = BufWriter::new(File::create(path)?);
        dmc_core::write_rules(&merged.imp_rules, &merged.sim_rules, &mut file)?;
        file.flush()?;
    }
    let limit: usize = args.get_or("limit", usize::MAX)?;
    if !args.flag("quiet") {
        for rule in merged.imp_rules.iter().take(limit) {
            println!("{rule}");
        }
        for rule in merged.sim_rules.iter().take(limit) {
            println!("{rule}");
        }
    }
    eprintln!(
        "{} rules from {} shards at {} {} (manifest {})",
        merged.report.rules,
        n_merge,
        if merged.report.algorithm == "implication" {
            "minconf"
        } else {
            "minsim"
        },
        merged.report.threshold,
        manifest
    );
    write_metrics(args, &merged.report)
}

/// `dmc gen`: synthetic data sets in the text format.
pub fn gen(args: &Args) -> CmdResult {
    let kind = args
        .positional(0)
        .ok_or_else(|| ArgError::Required("<kind>".into()))?;
    let rows: usize = args.get_or("rows", 10_000)?;
    let cols: usize = args.get_or("cols", 2_000)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let matrix = match kind {
        "weblog" => weblog(&WeblogConfig::new(rows, cols, seed)),
        "linkgraph" => link_graph(&LinkGraphConfig::new(rows, seed)).forward,
        "news" => news(&NewsConfig::new(rows, cols, seed)).matrix,
        "dictionary" => dictionary(&DictionaryConfig::new(cols, rows, seed)),
        other => return Err(Box::new(ArgError::BadValue("<kind>".into(), other.into()))),
    };
    match args.get("output") {
        Some(path) => {
            let mut file = BufWriter::new(File::create(path)?);
            write_matrix(&matrix, &mut file)?;
            file.flush()?;
            eprintln!(
                "wrote {} ({} rows, {} cols, {} nnz)",
                path,
                matrix.n_rows(),
                matrix.n_cols(),
                matrix.nnz()
            );
        }
        None => {
            let stdout = std::io::stdout();
            write_matrix(&matrix, stdout.lock())?;
        }
    }
    Ok(())
}
