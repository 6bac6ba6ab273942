//! End-to-end tests of the `dmc` binary.

use std::io::Write as _;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_dmc");

fn run(args: &[&str], stdin: Option<&str>) -> (String, String, bool) {
    let mut cmd = Command::new(BIN);
    cmd.args(args).stdout(Stdio::piped()).stderr(Stdio::piped());
    if stdin.is_some() {
        cmd.stdin(Stdio::piped());
    }
    let mut child = cmd.spawn().expect("spawn dmc");
    if let Some(input) = stdin {
        // The child may exit before reading stdin (usage errors); a broken
        // pipe here is fine.
        let _ = child.stdin.as_mut().unwrap().write_all(input.as_bytes());
    }
    let out = child.wait_with_output().expect("wait dmc");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// The Figure 1 matrix in the text format.
const FIG1: &str = "# cols 3\n1 2\n0 1 2\n0\n1\n";

#[test]
fn imp_from_stdin() {
    let (stdout, stderr, ok) = run(&["imp", "-", "--minconf", "1.0"], Some(FIG1));
    assert!(ok, "stderr: {stderr}");
    assert_eq!(stdout.trim(), "c2 => c1 (conf 2/2 = 1.000)");
    assert!(stderr.contains("1 rules"));
}

#[test]
fn sim_from_stdin() {
    let input = "# cols 3\n0 1\n0 1 2\n0 1\n";
    let (stdout, _, ok) = run(&["sim", "-", "--minsim", "1.0"], Some(input));
    assert!(ok);
    assert_eq!(stdout.trim(), "c0 ~ c1 (sim 3/3 = 1.000)");
}

#[test]
fn quiet_and_limit() {
    let (stdout, stderr, ok) = run(&["imp", "-", "--minconf", "0.5", "--quiet"], Some(FIG1));
    assert!(ok);
    assert!(stdout.is_empty(), "quiet suppresses rules: {stdout}");
    assert!(stderr.contains("rules at minconf"));
}

#[test]
fn stats_reports_shape() {
    let (stdout, _, ok) = run(&["stats", "-"], Some(FIG1));
    assert!(ok);
    assert!(stdout.contains("rows            4"));
    assert!(stdout.contains("columns         3"));
    assert!(stdout.contains("nnz             7"));
}

#[test]
fn groups_clusters_rules() {
    let input = "# cols 4\n0 1\n0 1\n2 3\n2 3\n";
    let (stdout, _, ok) = run(
        &["groups", "-", "--minconf", "1.0", "--minsim", "1.0"],
        Some(input),
    );
    assert!(ok);
    assert!(stdout.contains("group 0: c0 c1"), "{stdout}");
    assert!(stdout.contains("group 1: c2 c3"), "{stdout}");
}

#[test]
fn gen_roundtrips_through_stats() {
    let (matrix_text, _, ok) = run(
        &[
            "gen", "news", "--rows", "200", "--cols", "300", "--seed", "5",
        ],
        None,
    );
    assert!(ok);
    let (stats, _, ok) = run(&["stats", "-"], Some(&matrix_text));
    assert!(ok);
    assert!(stats.contains("rows            200"), "{stats}");
    assert!(stats.contains("columns         300"));
}

#[test]
fn bad_usage_fails_cleanly() {
    let (_, stderr, ok) = run(&["imp", "-"], Some(FIG1));
    assert!(!ok, "missing --minconf must fail");
    assert!(stderr.contains("minconf"));

    let (_, stderr, ok) = run(&["frobnicate"], None);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));

    let (_, stderr, ok) = run(
        &["imp", "-", "--minconf", "0.9", "--order", "zigzag"],
        Some(FIG1),
    );
    assert!(!ok);
    assert!(stderr.contains("order"));
}

#[test]
fn reverse_flag_adds_reverse_rules() {
    let input = "# cols 2\n0 1\n0 1\n";
    let (fwd, _, _) = run(&["imp", "-", "--minconf", "1.0"], Some(input));
    assert_eq!(fwd.lines().count(), 1);
    let (both, _, _) = run(&["imp", "-", "--minconf", "1.0", "--reverse"], Some(input));
    assert_eq!(both.lines().count(), 2);
}

#[test]
fn streamed_mode_matches_in_memory() {
    let dir = std::env::temp_dir().join("dmc-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stream-input.txt");
    std::fs::write(&path, "# cols 4\n0 1 2\n0 1\n1 2 3\n0 1 2\n0 1\n").unwrap();
    let p = path.to_str().unwrap();
    let (in_mem, _, ok1) = run(&["imp", p, "--minconf", "0.6"], None);
    let (streamed, stderr, ok2) = run(
        &["imp", p, "--minconf", "0.6", "--stream", "--cols", "4"],
        None,
    );
    assert!(ok1 && ok2, "{stderr}");
    assert_eq!(in_mem, streamed);
    assert!(stderr.contains("streamed"));

    let (sim_mem, _, _) = run(&["sim", p, "--minsim", "0.5"], None);
    let (sim_str, _, _) = run(
        &["sim", p, "--minsim", "0.5", "--stream", "--cols", "4"],
        None,
    );
    assert_eq!(sim_mem, sim_str);
}

/// Like [`run`], but returns the raw exit code (usage errors exit 2,
/// runtime failures exit 1).
fn run_code(args: &[&str], stdin: Option<&str>) -> (String, Option<i32>) {
    let mut cmd = Command::new(BIN);
    cmd.args(args).stdout(Stdio::piped()).stderr(Stdio::piped());
    if stdin.is_some() {
        cmd.stdin(Stdio::piped());
    }
    let mut child = cmd.spawn().expect("spawn dmc");
    if let Some(input) = stdin {
        let _ = child.stdin.as_mut().unwrap().write_all(input.as_bytes());
    }
    let out = child.wait_with_output().expect("wait dmc");
    (
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

/// `--threads` was removed (the CLI runs every mine on one thread): any value,
/// zero included, is a usage error rather than a silently ignored flag.
#[test]
fn zero_threads_is_a_usage_error() {
    for cmd in [
        vec!["imp", "-", "--minconf", "0.9", "--threads", "0"],
        vec!["sim", "-", "--minsim", "0.8", "--threads", "0"],
        vec!["imp", "-", "--minconf", "0.9", "--threads", "4"],
        vec!["serve", "-", "--minconf", "0.9", "--threads", "2"],
    ] {
        let (stderr, code) = run_code(&cmd, Some(FIG1));
        assert_eq!(code, Some(2), "usage error exit code: {stderr}");
        assert!(stderr.contains("threads"), "{stderr}");
        assert!(stderr.contains("usage:"), "usage text shown: {stderr}");
    }
}

/// A misspelled option is a usage error (exit 2) naming the option, not
/// a silently ignored flag.
#[test]
fn misspelled_option_is_a_usage_error() {
    for cmd in [
        vec!["imp", "-", "--minconf", "0.9", "--quiet", "--limt", "5"],
        vec!["sim", "-", "--minsim", "0.8", "--revrse"],
    ] {
        let (stderr, code) = run_code(&cmd, Some(FIG1));
        assert_eq!(code, Some(2), "usage error exit code: {stderr}");
        assert!(stderr.contains("unknown option --"), "{stderr}");
        assert!(stderr.contains("usage:"), "usage text shown: {stderr}");
    }
}

#[test]
fn streamed_mode_requires_cols() {
    let dir = std::env::temp_dir().join("dmc-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stream-nocols.txt");
    std::fs::write(&path, "0 1\n").unwrap();
    let (_, stderr, ok) = run(
        &[
            "imp",
            path.to_str().unwrap(),
            "--minconf",
            "0.9",
            "--stream",
        ],
        None,
    );
    assert!(!ok);
    assert!(stderr.contains("cols"));
}

#[test]
fn metrics_to_stdout_emits_reconciling_json() {
    let input = "# cols 4\n0 1 2\n0 1\n1 2 3\n0 1 2\n0 1\n";
    let (stdout, stderr, ok) = run(
        &["imp", "-", "--minconf", "0.6", "--quiet", "--metrics", "-"],
        Some(input),
    );
    assert!(ok, "{stderr}");
    let json = dmc_metrics::json::JsonValue::parse(&stdout).expect("stdout is one JSON report");
    assert_eq!(
        json.get("schema").and_then(|v| v.as_str()),
        Some(dmc_metrics::RUN_REPORT_SCHEMA)
    );
    assert_eq!(
        json.get("algorithm").and_then(|v| v.as_str()),
        Some("implication")
    );
    let counters = json.get("counters").expect("counters object");
    let c = |k: &str| counters.get(k).and_then(|v| v.as_u64()).unwrap();
    assert_eq!(
        c("candidates_admitted"),
        c("candidates_deleted") + c("rules_emitted"),
        "counters reconcile"
    );
}

#[test]
fn metrics_file_written_for_streamed_sim() {
    let dir = std::env::temp_dir().join("dmc-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("metrics-input.txt");
    std::fs::write(&data, "# cols 4\n0 1 2\n0 1\n1 2 3\n0 1 2\n0 1\n").unwrap();
    let metrics = dir.join("metrics-report.json");
    let (_, stderr, ok) = run(
        &[
            "sim",
            data.to_str().unwrap(),
            "--minsim",
            "0.4",
            "--stream",
            "--cols",
            "4",
            "--quiet",
            "--metrics",
            metrics.to_str().unwrap(),
        ],
        None,
    );
    assert!(ok, "{stderr}");
    assert!(stderr.contains("run report written"), "{stderr}");
    let text = std::fs::read_to_string(&metrics).unwrap();
    let json = dmc_metrics::json::JsonValue::parse(&text).expect("file is valid JSON");
    assert_eq!(
        json.get("algorithm").and_then(|v| v.as_str()),
        Some("similarity")
    );
    assert_eq!(json.get("mode").and_then(|v| v.as_str()), Some("streamed"));
    assert_eq!(json.get("threads").and_then(|v| v.as_u64()), Some(0));
    let workers = json.get("workers").and_then(|v| v.as_array()).unwrap();
    assert!(workers.is_empty(), "the CLI mines on one thread");
    assert!(
        json.get("spill_bytes").and_then(|v| v.as_u64()).unwrap() > 0,
        "streamed runs record spill bytes"
    );
}

#[test]
fn verify_roundtrip_through_rules_file() {
    let dir = std::env::temp_dir().join("dmc-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("verify-input.txt");
    std::fs::write(&data, "# cols 3\n0 1\n0 1 2\n0 1\n2\n").unwrap();
    let rules = dir.join("verify-rules.txt");
    let d = data.to_str().unwrap();
    let r = rules.to_str().unwrap();

    let (_, _, ok) = run(
        &["imp", d, "--minconf", "0.6", "--output", r, "--quiet"],
        None,
    );
    assert!(ok);
    let (_, stderr, ok) = run(&["verify", d, "--rules", r, "--minconf", "0.6"], None);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("verified"), "{stderr}");

    // Tampered rules file fails verification.
    let text = std::fs::read_to_string(&rules).unwrap();
    let tampered = text.replace("imp 0", "imp 2");
    std::fs::write(&rules, tampered).unwrap();
    let (stdout, _, ok) = run(&["verify", d, "--rules", r, "--minconf", "0.6"], None);
    assert!(!ok);
    assert!(stdout.contains("FAIL"), "{stdout}");
}

#[test]
fn shard_matches_unsharded_through_real_child_processes() {
    let dir = std::env::temp_dir().join("dmc-cli-shard-happy");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.txt");
    let (_, stderr, ok) = run(
        &[
            "gen",
            "weblog",
            "--rows",
            "400",
            "--cols",
            "60",
            "--seed",
            "7",
            "--output",
            data.to_str().unwrap(),
        ],
        None,
    );
    assert!(ok, "{stderr}");
    let d = data.to_str().unwrap();

    for (cmd, opt, threshold) in [("imp", "--minconf", "0.8"), ("sim", "--minsim", "0.4")] {
        let unsharded = dir.join(format!("{cmd}-unsharded.rules"));
        let (_, stderr, ok) = run(
            &[
                cmd,
                d,
                opt,
                threshold,
                "--output",
                unsharded.to_str().unwrap(),
                "--quiet",
            ],
            None,
        );
        assert!(ok, "{stderr}");

        let sharded = dir.join(format!("{cmd}-sharded.rules"));
        let manifest = dir.join(format!("{cmd}.manifest"));
        let metrics = dir.join(format!("{cmd}-report.json"));
        let (_, stderr, ok) = run(
            &[
                "shard",
                d,
                opt,
                threshold,
                "--shards",
                "4",
                "--manifest",
                manifest.to_str().unwrap(),
                "--output",
                sharded.to_str().unwrap(),
                "--metrics",
                metrics.to_str().unwrap(),
                "--quiet",
            ],
            None,
        );
        assert!(ok, "{stderr}");
        assert_eq!(
            std::fs::read(&unsharded).unwrap(),
            std::fs::read(&sharded).unwrap(),
            "{cmd}: merged rules byte-identical to the unsharded mine"
        );
        assert!(manifest.exists(), "consolidated manifest written");
        for i in 0..4 {
            let mut spill = manifest.clone().into_os_string();
            spill.push(format!(".shard{i}"));
            assert!(
                !std::path::Path::new(&spill).exists(),
                "{cmd}: shard spill {i} removed after merge"
            );
        }

        let json = dmc_metrics::json::JsonValue::parse(&std::fs::read_to_string(&metrics).unwrap())
            .expect("report is valid JSON");
        assert_eq!(json.get("mode").and_then(|v| v.as_str()), Some("sharded"));
        assert_eq!(json.get("threads").and_then(|v| v.as_u64()), Some(4));
        let shard = json.get("shard").expect("shard section");
        assert_eq!(shard.get("n_shards").and_then(|v| v.as_u64()), Some(4));
        assert_eq!(
            shard
                .get("shards")
                .and_then(|v| v.as_array())
                .unwrap()
                .len(),
            4
        );
    }
}

#[test]
fn shard_usage_errors_exit_2() {
    let cases: &[&[&str]] = &[
        // zero shards
        &[
            "shard",
            "x.txt",
            "--minconf",
            "0.9",
            "--shards",
            "0",
            "--manifest",
            "m",
        ],
        // overlapping worker ranges
        &[
            "shard",
            "x.txt",
            "--minconf",
            "0.9",
            "--manifest",
            "m",
            "--worker",
            "0:0-10,5-20",
        ],
        // duplicate worker ranges
        &[
            "shard",
            "x.txt",
            "--minconf",
            "0.9",
            "--manifest",
            "m",
            "--worker",
            "1:0-10,0-10",
        ],
        // worker index out of range
        &[
            "shard",
            "x.txt",
            "--minconf",
            "0.9",
            "--manifest",
            "m",
            "--worker",
            "2:0-10,10-20",
        ],
        // manifest collides with the rule output
        &[
            "shard",
            "x.txt",
            "--minconf",
            "0.9",
            "--shards",
            "2",
            "--manifest",
            "same",
            "--output",
            "same",
        ],
        // neither --minconf nor --minsim
        &["shard", "x.txt", "--shards", "2", "--manifest", "m"],
        // both thresholds at once
        &[
            "shard",
            "x.txt",
            "--minconf",
            "0.9",
            "--minsim",
            "0.9",
            "--shards",
            "2",
            "--manifest",
            "m",
        ],
        // stdin cannot be re-read by worker children
        &[
            "shard",
            "-",
            "--minconf",
            "0.9",
            "--shards",
            "2",
            "--manifest",
            "m",
        ],
    ];
    for case in cases {
        let (stderr, code) = run_code(case, None);
        assert_eq!(code, Some(2), "{case:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{case:?}: {stderr}");
    }
}

#[test]
fn worker_killed_mid_write_is_detected_by_merge() {
    let dir = std::env::temp_dir().join("dmc-cli-shard-killed");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.txt");
    let (_, _, ok) = run(
        &[
            "gen",
            "weblog",
            "--rows",
            "300",
            "--cols",
            "30",
            "--seed",
            "3",
            "--output",
            data.to_str().unwrap(),
        ],
        None,
    );
    assert!(ok);
    let d = data.to_str().unwrap();
    let manifest = dir.join("m");
    let mf = manifest.to_str().unwrap();

    // Run the three workers by hand (what the coordinator would spawn).
    for index in 0..3 {
        let spec = format!("{index}:0-10,10-20,20-30");
        let (_, stderr, ok) = run(
            &[
                "shard",
                d,
                "--minconf",
                "0.8",
                "--manifest",
                mf,
                "--worker",
                &spec,
            ],
            None,
        );
        assert!(ok, "worker {index}: {stderr}");
        assert!(stderr.contains(&format!("shard {index}:")), "{stderr}");
    }

    // A worker killed mid-write leaves a truncated spill; the merge-only
    // coordinator must reject it (runtime error: exit 1) and must not
    // write a manifest.
    let mut spill = manifest.clone().into_os_string();
    spill.push(".shard1");
    let len = std::fs::metadata(&spill).unwrap().len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&spill)
        .unwrap();
    f.set_len(len - 5).unwrap();
    drop(f);

    let (stderr, code) = run_code(
        &[
            "shard",
            d,
            "--minconf",
            "0.8",
            "--shards",
            "3",
            "--manifest",
            mf,
            "--merge",
        ],
        None,
    );
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("shard 1 corrupt"), "{stderr}");
    assert!(!manifest.exists(), "failed merge leaves no manifest");

    // Re-running the lost worker repairs the set; the merge then succeeds
    // and matches the unsharded mine.
    let (_, _, ok) = run(
        &[
            "shard",
            d,
            "--minconf",
            "0.8",
            "--manifest",
            mf,
            "--worker",
            "1:0-10,10-20,20-30",
            "--quiet",
        ],
        None,
    );
    assert!(ok);
    let merged = dir.join("merged.rules");
    let (_, stderr, ok) = run(
        &[
            "shard",
            d,
            "--minconf",
            "0.8",
            "--shards",
            "3",
            "--manifest",
            mf,
            "--merge",
            "--output",
            merged.to_str().unwrap(),
            "--quiet",
        ],
        None,
    );
    assert!(ok, "{stderr}");
    let unsharded = dir.join("unsharded.rules");
    let (_, _, ok) = run(
        &[
            "imp",
            d,
            "--minconf",
            "0.8",
            "--output",
            unsharded.to_str().unwrap(),
            "--quiet",
        ],
        None,
    );
    assert!(ok);
    assert_eq!(
        std::fs::read(&merged).unwrap(),
        std::fs::read(&unsharded).unwrap()
    );
}
