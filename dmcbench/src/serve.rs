//! `serve-mixed`: a `dmc-serve` daemon on loopback over a news engine,
//! with one closed-loop reader and one open-loop writer.
//!
//! The daemon serves DMC-imp rules of the first 90% of the corpus. The
//! reader sends `rule` point queries (half on mined pairs, half random)
//! and `rules_ge` listings through the shipped `dmc_serve::request`
//! client, each as soon as the previous one is answered. The writer sends
//! one 10-row `ingest` batch from the held-out rows per second, timed from
//! when it was due, so a stall shows as lateness of later batches. After
//! the window the daemon's rule set must equal a from-scratch mine of the
//! head rows plus every ingested row.

use crate::measure::{
    median, overhead, peak_rss_mb, quantile, ratio, traced_slot, Outcome, Rng, Tracer,
};
use crate::mine::SETUP_REPEATS;
use crate::Args;
use dmc_core::rules_io::write_rules;
use dmc_core::{Engine, ImplicationRule, MineConfig, Miner, SparseMatrix};
use dmc_datagen::{news, NewsConfig};
use dmc_matrix::ColumnId;
use dmc_metrics::json::JsonValue;
use dmc_serve::{read_frame, request, write_frame, Request, Server};
use std::io::{self, Cursor};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

const MINCONF: f64 = 0.9;
const INGEST_PERIOD: Duration = Duration::from_secs(1);
const INGEST_ROWS: usize = 10;
const RULES_GE_LIMIT: usize = 100;

/// One read: the pair of a `rule` request (`None` for `rules_ge`), its
/// round-trip time, and whether the traced run traced it.
struct Sent {
    pair: Option<(ColumnId, ColumnId)>,
    latency_s: f64,
    traced: bool,
}

/// Frames of the traced run, kept to time the codec on a buffer.
type Frames = Vec<(String, String)>;

/// One round trip through the shipped client; a traced run does the
/// client's three steps itself to keep the raw response frame.
fn exchange(
    stream: &mut TcpStream,
    payload: &str,
    frames: Option<&mut Frames>,
) -> io::Result<JsonValue> {
    let Some(frames) = frames else {
        return request(stream, payload);
    };
    write_frame(stream, payload)?;
    let text = read_frame(stream)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before the response",
        )
    })?;
    let value = JsonValue::parse(&text).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad response JSON: {e}"),
        )
    })?;
    frames.push((payload.to_string(), text));
    Ok(value)
}

fn ok(v: &JsonValue) -> bool {
    v.get("ok").and_then(JsonValue::as_bool) == Some(true)
}

/// Whether a `rule` answer is well-formed and about the asked pair.
fn answer_ok(v: &JsonValue, lhs: ColumnId, rhs: ColumnId) -> bool {
    let Some(a) = v.get("answer") else {
        return false;
    };
    let field = |k: &str| a.get(k).and_then(JsonValue::as_u64);
    match (
        field("lhs"),
        field("rhs"),
        field("hits"),
        field("lhs_ones"),
        field("rhs_ones"),
    ) {
        (Some(l), Some(r), Some(h), Some(ol), Some(or)) => {
            l == u64::from(lhs) && r == u64::from(rhs) && h <= ol.min(or)
        }
        _ => false,
    }
}

/// Whether a `rules_ge` answer lists `min(limit, total)` rules.
fn listing_ok(v: &JsonValue) -> bool {
    match (
        v.get("total").and_then(JsonValue::as_u64),
        v.get("rules").and_then(JsonValue::as_array),
    ) {
        (Some(total), Some(rules)) => rules.len() as u64 == total.min(RULES_GE_LIMIT as u64),
        _ => false,
    }
}

struct ReaderLog {
    sent: Vec<Sent>,
    failed: u64,
    frames: Frames,
    tracer: Tracer,
}

/// The closed-loop reader: 90% `rule` (half mined pairs, half random),
/// 10% `rules_ge`, until `end`.
fn reader(
    addr: SocketAddr,
    mined: &[(ColumnId, ColumnId)],
    n_cols: usize,
    seed: u64,
    end: Instant,
    mut tracer: Tracer,
) -> io::Result<ReaderLog> {
    let mut stream = TcpStream::connect(addr)?;
    let mut rng = Rng::new(seed ^ 0x5EAD);
    let (mut sent, mut failed, mut frames) = (Vec::new(), 0, Vec::new());
    let trace = tracer.enabled();
    let random = |rng: &mut Rng| rng.below(n_cols as u64) as ColumnId;
    while Instant::now() < end {
        let roll = rng.below(20);
        let pair = if roll < 2 {
            None
        } else if roll < 11 && !mined.is_empty() {
            Some(mined[rng.below(mined.len() as u64) as usize])
        } else {
            Some((random(&mut rng), random(&mut rng)))
        };
        let (payload, name) = match pair {
            Some((lhs, rhs)) => (
                format!("{{\"type\": \"rule\", \"lhs\": {lhs}, \"rhs\": {rhs}}}"),
                "serve.rule",
            ),
            None => (
                format!(
                    "{{\"type\": \"rules_ge\", \"threshold\": {MINCONF}, \"limit\": {RULES_GE_LIMIT}}}"
                ),
                "serve.rules_ge",
            ),
        };
        let traced = trace && traced_slot(sent.len());
        let span = traced.then(|| tracer.begin(name));
        let t = Instant::now();
        let reply = exchange(&mut stream, &payload, trace.then_some(&mut frames));
        let latency_s = t.elapsed().as_secs_f64();
        if let Some(span) = span {
            tracer.end(span);
        }
        let good = match (&reply, pair) {
            (Ok(v), Some((lhs, rhs))) => ok(v) && answer_ok(v, lhs, rhs),
            (Ok(v), None) => ok(v) && listing_ok(v),
            (Err(e), _) => {
                eprintln!("read failed: {e}");
                false
            }
        };
        failed += u64::from(!good);
        sent.push(Sent {
            pair,
            latency_s,
            traced,
        });
        if reply.is_err() {
            break;
        }
    }
    Ok(ReaderLog {
        sent,
        failed,
        frames,
        tracer,
    })
}

struct WriterLog {
    /// Batches acknowledged, in order (each `INGEST_ROWS` held-out rows).
    batches: usize,
    latency_s: Vec<f64>,
    late_s: Vec<f64>,
    failed: u64,
    frames: Frames,
    tracer: Tracer,
}

fn ingest_payload(rows: &[Vec<ColumnId>]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            let ids: Vec<String> = r.iter().map(ToString::to_string).collect();
            format!("[{}]", ids.join(", "))
        })
        .collect();
    format!("{{\"type\": \"ingest\", \"rows\": [{}]}}", rows.join(", "))
}

/// The open-loop writer: batch `k` is due at `start + k·period`; its
/// latency runs from the due time to the acknowledgement.
fn writer(
    addr: SocketAddr,
    held: &[Vec<ColumnId>],
    start: Instant,
    end: Instant,
    mut tracer: Tracer,
) -> io::Result<WriterLog> {
    let mut stream = TcpStream::connect(addr)?;
    let trace = tracer.enabled();
    let (mut batches, mut failed) = (0, 0);
    let (mut latency_s, mut late_s, mut frames) = (Vec::new(), Vec::new(), Vec::new());
    for (k, batch) in held.chunks_exact(INGEST_ROWS).enumerate() {
        let due = start + INGEST_PERIOD * k as u32;
        if due >= end {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }
        late_s.push(Instant::now().duration_since(due).as_secs_f64());
        let span = tracer.begin("serve.ingest");
        let reply = exchange(
            &mut stream,
            &ingest_payload(batch),
            trace.then_some(&mut frames),
        );
        latency_s.push(due.elapsed().as_secs_f64());
        tracer.end(span);
        let good = reply.as_ref().is_ok_and(|v| {
            ok(v)
                && v.get("report")
                    .and_then(|r| r.get("rows"))
                    .and_then(JsonValue::as_u64)
                    == Some(INGEST_ROWS as u64)
        });
        failed += u64::from(!good);
        if let Err(e) = reply {
            eprintln!("ingest failed: {e}");
            break;
        }
        batches += 1;
    }
    Ok(WriterLog {
        batches,
        latency_s,
        late_s,
        failed,
        frames,
        tracer,
    })
}

/// The `q`-quantile of a daemon latency histogram in microseconds,
/// interpolated inside its power-of-two bucket (bucket `i` holds
/// `[2^i, 2^(i+1))` µs, bucket 0 from 0).
fn hist_quantile_us(metrics: &JsonValue, kind: &str, q: f64) -> Option<f64> {
    let h = metrics
        .get("histograms")?
        .get(&format!("serve.request.{kind}"))?;
    let buckets: Vec<u64> = h
        .get("buckets")?
        .as_array()?
        .iter()
        .map(JsonValue::as_u64)
        .collect::<Option<_>>()?;
    let max = h.get("max_us")?.as_u64()? as f64;
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return Some(0.0);
    }
    let rank = q * count as f64;
    let mut below = 0.0;
    for (i, &b) in buckets.iter().enumerate() {
        if b > 0 && below + b as f64 >= rank {
            let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
            let hi = ((1u64 << (i + 1)) as f64).min(max).max(lo);
            return Some(lo + (hi - lo) * (rank - below) / b as f64);
        }
        below += b as f64;
    }
    Some(max)
}

/// Total microseconds the daemon spent handling `kind` requests.
fn hist_sum_us(metrics: &JsonValue, kind: &str) -> Option<f64> {
    let h = metrics
        .get("histograms")?
        .get(&format!("serve.request.{kind}"))?;
    Some(h.get("sum_us")?.as_u64()? as f64)
}

fn rules_text(rules: &[ImplicationRule]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_rules(rules, &[], &mut buf).expect("writing to a Vec cannot fail");
    buf
}

/// Mean microseconds to frame, unframe and parse one request and its
/// response on an in-memory buffer.
fn codec_us(frames: &Frames) -> Result<f64, String> {
    let mut buf = Vec::new();
    let t = Instant::now();
    for (req, resp) in frames {
        buf.clear();
        write_frame(&mut buf, req).map_err(|e| e.to_string())?;
        write_frame(&mut buf, resp).map_err(|e| e.to_string())?;
        let mut r = Cursor::new(&buf);
        let req = read_frame(&mut r)
            .map_err(|e| e.to_string())?
            .unwrap_or_default();
        let resp = read_frame(&mut r)
            .map_err(|e| e.to_string())?
            .unwrap_or_default();
        Request::parse(&req)?;
        JsonValue::parse(&resp).map_err(|e| e.to_string())?;
    }
    Ok(ratio(t.elapsed().as_secs_f64() * 1e6, frames.len() as f64))
}

/// Sends one request on a fresh connection.
fn control(addr: SocketAddr, payload: &str) -> io::Result<JsonValue> {
    request(&mut TcpStream::connect(addr)?, payload)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let io = |e: io::Error| e.to_string();
    let config = MineConfig::implications(MINCONF).map_err(|e| e.to_string())?;
    let mut tracer = Tracer::new(args.trace, Instant::now());
    let root = tracer.begin("workload");

    // Set-up: generate, split 90/10, build the engine, bind, initial mine.
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let t = Instant::now();
        let m = news(&NewsConfig::new(
            args.scale.serve_docs,
            args.scale.serve_vocab,
            args.seed,
        ))
        .matrix;
        let n_cols = m.n_cols();
        let mut head: Vec<Vec<ColumnId>> = m.rows().map(<[ColumnId]>::to_vec).collect();
        drop(m);
        let held = head.split_off(head.len() * 9 / 10);
        let engine = Engine::new(
            config.clone(),
            SparseMatrix::from_rows(n_cols, head.clone()),
        );
        let server = Server::bind(engine, "127.0.0.1:0").map_err(io)?;
        server
            .engine()
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .mine();
        setup.push(t.elapsed().as_secs_f64());
        state = Some((server, head, held, n_cols));
    }
    let (server, head, held, n_cols) = state.expect("at least one set-up ran");
    let engine = server.engine();
    let addr = server.local_addr().map_err(io)?;
    let mined: Vec<(ColumnId, ColumnId)> = engine
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .implication_rules()
        .iter()
        .map(|r| (r.lhs, r.rhs))
        .collect();

    let server = Arc::new(server);
    let daemon = {
        let server = Arc::clone(&server);
        thread::spawn(move || server.run())
    };
    let start = Instant::now();
    let end = start + args.window;
    let (reader_tracer, writer_tracer) = (tracer.fork(), tracer.fork());
    let (reads, writes) = thread::scope(|s| {
        let w = s.spawn(|| writer(addr, &held, start, end, writer_tracer));
        let r = reader(addr, &mined, n_cols, args.seed, end, reader_tracer);
        (r, w.join().expect("the writer thread does not panic"))
    });
    let window = start.elapsed().as_secs_f64();
    let metrics = control(addr, "{\"type\": \"metrics\"}");
    let stopped = control(addr, "{\"type\": \"shutdown\"}");
    // Join the daemon only once it was told to stop; otherwise its accept
    // loop would never return.
    if stopped.as_ref().is_ok_and(ok) {
        daemon
            .join()
            .expect("the daemon thread does not panic")
            .map_err(io)?;
    }
    let metrics = metrics.map_err(io)?;
    let metrics = metrics
        .get("metrics")
        .cloned()
        .ok_or("metrics reply has no metrics")?;
    let (reads, writes) = (reads.map_err(io)?, writes.map_err(io)?);
    let peak_rss = peak_rss_mb();

    let mut outcome = Outcome::default();
    outcome.attempted += reads.sent.len() as u64;
    outcome.failed += reads.failed;
    outcome.attempted += writes.latency_s.len() as u64;
    outcome.failed += writes.failed;

    // The daemon's final rule set against a from-scratch mine of the head
    // rows plus every acknowledged batch, in order.
    let ingested = &held[..writes.batches * INGEST_ROWS];
    let mut all_rows = head.clone();
    all_rows.extend_from_slice(ingested);
    let full = SparseMatrix::from_rows(n_cols, all_rows);
    let reference = Miner::implications(MINCONF)
        .threads(1)
        .mine(&full)
        .expect("in-memory mines are infallible");
    let mut daemon_text = rules_text(
        engine
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .implication_rules(),
    );
    if args.inject_wrong {
        daemon_text.extend_from_slice(b"imp 0 1 1 1 1\n");
    }
    outcome.check(daemon_text == rules_text(&reference.rules));

    let read_ms: Vec<f64> = reads.sent.iter().map(|r| r.latency_s * 1e3).collect();
    let write_ms: Vec<f64> = writes.latency_s.iter().map(|s| s * 1e3).collect();
    if !args.trace {
        outcome.metric("setup_s", median(&setup), setup.len());
        outcome.metric("peak_rss_mb", peak_rss, 1);
        outcome.metric("op_p50_ms", median(&read_ms), read_ms.len());
        outcome.metric("ops_per_s", read_ms.len() as f64 / window, read_ms.len());
        return Ok(outcome);
    }

    // Engine layer, called directly: point queries on the reader's pairs
    // against the final engine, then the same batches ingested into an
    // identical engine, then a from-scratch re-mine of the result.
    let pairs: Vec<(ColumnId, ColumnId)> = reads.sent.iter().filter_map(|r| r.pair).collect();
    let span = tracer.begin("engine.query");
    let t = Instant::now();
    {
        let engine = engine.read().unwrap_or_else(PoisonError::into_inner);
        for &(lhs, rhs) in &pairs {
            std::hint::black_box(engine.query(lhs, rhs));
        }
    }
    let query_us = ratio(t.elapsed().as_secs_f64() * 1e6, pairs.len() as f64);
    tracer.end(span);

    let mut twin = Engine::new(config, SparseMatrix::from_rows(n_cols, head));
    let span = tracer.begin("engine.mine");
    twin.mine();
    tracer.end(span);
    let (mut ingest_ms, mut recounted, mut bumped, mut born) = (Vec::new(), 0, 0, 0);
    for batch in ingested.chunks_exact(INGEST_ROWS) {
        let span = tracer.begin("engine.ingest");
        let report = twin.ingest(batch).map_err(|e| e.to_string())?;
        ingest_ms.push(tracer.end(span) * 1e3);
        recounted += report.pairs_recounted;
        bumped += report.pairs_bumped;
        born += report.rules_born;
    }
    outcome.check(rules_text(twin.implication_rules()) == rules_text(&reference.rules));
    let span = tracer.begin("engine.remine");
    twin.mine();
    let remine_s = tracer.end(span);
    outcome.check(rules_text(twin.implication_rules()) == rules_text(&reference.rules));

    let span = tracer.begin("serve.codec");
    let mut frames = reads.frames;
    frames.extend(writes.frames);
    let codec = codec_us(&frames)?;
    tracer.end(span);
    let current = tracer.current();
    tracer.absorb(reads.tracer, current);
    tracer.absorb(writes.tracer, current);
    tracer.end(root);

    let handle = |kind: &str| hist_quantile_us(&metrics, kind, 0.5).unwrap_or(0.0);
    let rule_rtt_ms: Vec<f64> = reads
        .sent
        .iter()
        .filter(|r| r.pair.is_some())
        .map(|r| r.latency_s * 1e3)
        .collect();
    let ingest_sum_us = hist_sum_us(&metrics, "ingest").unwrap_or(0.0);
    let n_ingest = ingest_ms.len();
    outcome.metric("engine.query_us", query_us, pairs.len());
    outcome.metric("engine.ingest_ms", median(&ingest_ms), n_ingest);
    outcome.metric("engine.pairs_recounted", recounted as f64, n_ingest);
    outcome.metric("engine.pairs_bumped", bumped as f64, n_ingest);
    outcome.metric(
        "engine.recount_yield",
        ratio(born as f64, recounted as f64),
        n_ingest,
    );
    outcome.metric("engine.remine_s", remine_s, 1);
    outcome.metric(
        "serve.handle_p50_us.rule",
        handle("rule"),
        rule_rtt_ms.len(),
    );
    outcome.metric(
        "serve.handle_p50_us.rules_ge",
        handle("rules_ge"),
        reads.sent.len() - rule_rtt_ms.len(),
    );
    outcome.metric(
        "serve.handle_p50_us.ingest",
        handle("ingest"),
        write_ms.len(),
    );
    outcome.metric(
        "serve.transport_ms",
        median(&rule_rtt_ms) - handle("rule") / 1e3,
        rule_rtt_ms.len(),
    );
    outcome.metric("serve.codec_us", codec, frames.len());
    outcome.metric(
        "serve.write_lock_frac",
        ingest_sum_us / (window * 1e6),
        write_ms.len(),
    );
    outcome.metric(
        "loadgen.ingest_late_ms",
        writes.late_s.iter().copied().fold(0.0, f64::max) * 1e3,
        writes.late_s.len(),
    );
    outcome.metric("loadgen.op_p50_ms", median(&read_ms), read_ms.len());
    outcome.metric("loadgen.op_p90_ms", quantile(&read_ms, 0.9), read_ms.len());
    outcome.metric("loadgen.ingest_p50_ms", median(&write_ms), write_ms.len());
    let traced: Vec<bool> = reads.sent.iter().map(|r| r.traced).collect();
    let lat: Vec<f64> = reads.sent.iter().map(|r| r.latency_s).collect();
    outcome.metric("trace.overhead_frac", overhead(&lat, &traced), lat.len());
    outcome.fill_bypassed();
    outcome.spans = tracer.summary();
    Ok(outcome)
}
