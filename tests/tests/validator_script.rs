//! `scripts/validate_run_report.py` against freshly mined reports: the
//! CI validator must accept every driver's real output and reject a
//! tampered report, so the script cannot silently drift from the
//! `dmc_core::RUN_REPORT_SCHEMA` version it gates.

use dmc_core::{Miner, SparseMatrix};
use dmc_datagen::{planted_implications, PlantedConfig};
use std::convert::Infallible;
use std::path::{Path, PathBuf};
use std::process::Command;

fn script() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../scripts/validate_run_report.py")
}

fn matrix() -> SparseMatrix {
    planted_implications(&PlantedConfig::new(400, 60, 6, 11)).matrix
}

fn rows_of(m: &SparseMatrix) -> Vec<Result<Vec<u32>, Infallible>> {
    m.rows().map(|r| Ok(r.to_vec())).collect()
}

/// A scratch directory owned by one test: the harness runs the tests of
/// this file concurrently, so each names its own directory (`tag`) and a
/// finished test's cleanup cannot delete files another is still using.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("dmc-validator-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs the validator; returns (exit code, stdout, stderr).
fn validate(report: &Path, algorithm: &str, mode: &str, workers: usize) -> (i32, String, String) {
    let out = Command::new("python3")
        .arg(script())
        .arg(report)
        .arg(algorithm)
        .arg(mode)
        .arg(workers.to_string())
        .output()
        .expect("python3 must be available (CI and dev images ship it)");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn accepts_reports_from_real_drivers() {
    let dir = TempDir::new("accepts");
    let m = matrix();
    // Column-unit workers: as many as the host has cores, up to two.
    let parallel = Miner::implications(0.9)
        .threads(2)
        .mine(&m)
        .expect("in-memory mines cannot fail")
        .report;
    let cases: Vec<(&str, String, &str, &str, usize)> = vec![
        (
            "imp-mem-columns.json",
            parallel.to_json(),
            "implication",
            "in-memory",
            parallel.workers.len(),
        ),
        (
            "imp-mem.json",
            Miner::implications(0.9)
                .mine(&m)
                .expect("in-memory mines cannot fail")
                .report
                .to_json(),
            "implication",
            "in-memory",
            0,
        ),
        (
            "sim-stream.json",
            Miner::similarities(0.7)
                .mine_streamed(rows_of(&m), m.n_cols())
                .unwrap()
                .report
                .to_json(),
            "similarity",
            "streamed",
            0,
        ),
        (
            "imp-stream.json",
            Miner::implications(0.9)
                .mine_streamed(rows_of(&m), m.n_cols())
                .unwrap()
                .report
                .to_json(),
            "implication",
            "streamed",
            0,
        ),
    ];
    for (name, json, algorithm, mode, workers) in cases {
        let path = dir.0.join(name);
        std::fs::write(&path, json).unwrap();
        let (code, stdout, stderr) = validate(&path, algorithm, mode, workers);
        assert_eq!(code, 0, "{name}: stdout {stdout:?} stderr {stderr:?}");
        assert!(stdout.contains("ok"), "{name}: {stdout:?}");
    }
}

#[test]
fn rejects_tampered_and_mismatched_reports() {
    let dir = TempDir::new("rejects");
    let m = matrix();
    let good = Miner::implications(0.9)
        .mine(&m)
        .expect("in-memory mines cannot fail")
        .report
        .to_json();

    // Wrong expectations against a valid report.
    let path = dir.0.join("good.json");
    std::fs::write(&path, &good).unwrap();
    let (code, _, stderr) = validate(&path, "similarity", "in-memory", 0);
    assert_eq!(code, 1, "wrong algorithm must fail: {stderr}");

    // A tampered counter breaks the reconciliation identity.
    let rigged = good.replacen("\"candidates_admitted\": ", "\"candidates_admitted\": 9", 1);
    assert_ne!(rigged, good, "tamper target must exist");
    let path = dir.0.join("rigged.json");
    std::fs::write(&path, rigged).unwrap();
    let (code, _, stderr) = validate(&path, "implication", "in-memory", 0);
    assert_eq!(code, 1, "tampered counters must fail: {stderr}");
    assert!(stderr.contains("INVALID"), "{stderr}");

    // An old schema version is rejected outright.
    let old = good.replace(dmc_core::RUN_REPORT_SCHEMA, "dmc.run_report.v2");
    assert_ne!(old, good, "schema tamper target must exist");
    let path = dir.0.join("old.json");
    std::fs::write(&path, old).unwrap();
    let (code, _, _) = validate(&path, "implication", "in-memory", 0);
    assert_eq!(code, 1, "old schema must fail");

    // Usage errors exit 2.
    let out = Command::new("python3").arg(script()).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

/// A real sharded merge's report, as `dmc shard --metrics` writes it.
fn sharded_json(dir: &TempDir, n_shards: usize) -> String {
    use dmc_matrix::spill_io::{RetryPolicy, StdFsIo};
    let merged = dmc_core::shard_mine(
        &StdFsIo,
        &dir.0.join(format!("fixture-{n_shards}.manifest")),
        RetryPolicy::none(),
        &dmc_core::MineConfig::implications(0.85).unwrap(),
        &matrix(),
        n_shards,
        false,
    )
    .unwrap();
    merged.report.to_json()
}

#[test]
fn accepts_sharded_reports() {
    let dir = TempDir::new("sharded");
    for n_shards in [1usize, 4] {
        let json = sharded_json(&dir, n_shards);
        let path = dir.0.join(format!("sharded-{n_shards}.json"));
        std::fs::write(&path, json).unwrap();
        // A sharded merge reports one "thread" (worker process) per shard
        // but no in-process worker summaries.
        let (code, stdout, stderr) = validate(&path, "implication", "sharded", 0);
        assert_eq!(code, 0, "{n_shards} shards: {stdout:?} {stderr:?}");
    }
}

#[test]
fn rejects_tampered_shard_sections() {
    let dir = TempDir::new("shard-tamper");
    let good = sharded_json(&dir, 4);

    // A shard's counters no longer sum to the run counters.
    let tampers = [
        (
            "counter",
            "\"candidates_admitted\": ",
            "\"candidates_admitted\": 9",
        ),
        // The first shard's range no longer starts at column 0.
        ("range", "\"col_lo\": 0,", "\"col_lo\": 1,"),
        // A shard claims a different rule count than the merged total.
        ("rules", "\"rules\": ", "\"rules\": 9"),
        // The shard section vanishes from a sharded-mode report.
        ("missing", "\"shard\": {", "\"shard_gone\": {"),
    ];
    for (name, from, to) in tampers {
        // Tamper inside the shard section only: split the JSON at the
        // section start so run-level keys with the same names stay intact.
        let at = good.find("\"shard\"").expect("shard section present");
        let (head, tail) = good.split_at(at);
        let rigged = format!("{head}{}", tail.replacen(from, to, 1));
        assert_ne!(rigged, good, "{name}: tamper target must exist");
        let path = dir.0.join(format!("shard-tamper-{name}.json"));
        std::fs::write(&path, rigged).unwrap();
        let (code, _, stderr) = validate(&path, "implication", "sharded", 0);
        assert_eq!(code, 1, "{name}: tampered shard section must fail");
        assert!(stderr.contains("INVALID"), "{name}: {stderr}");
    }

    // An unsharded mode claim over a report carrying a shard section is
    // fine (the section still has to be internally consistent), but a
    // sharded mode claim requires the section.
    let (code, _, _) = validate(
        &{
            let path = dir.0.join("mode-mismatch.json");
            std::fs::write(&path, &good).unwrap();
            path
        },
        "implication",
        "in-memory",
        0,
    );
    assert_eq!(code, 1, "mode mismatch must fail");
}
