//! Fault-injection matrix over the two streamed drivers.
//!
//! Every fault kind in the [`FaultKind`](dmc_matrix::spill_io::FaultKind)
//! taxonomy is driven through both implication and similarity mining,
//! with three invariants:
//!
//! * **transient faults are invisible** — with retries enabled the run
//!   succeeds and its rules are byte-identical to a fault-free run;
//! * **permanent faults surface typed errors** — `MineError::Io` with
//!   the original `ErrorKind`/os-error intact, or
//!   `MineError::CorruptSpill` for silent data damage (torn writes,
//!   bit flips, lost tails) — never garbage rules;
//! * **no spill files leak**, success or failure.
//!
//! The seeded sweep at the bottom replays pseudo-random single-fault
//! plans; CI runs it with `DMC_FAULT_SWEEP`/`DMC_FAULT_SEED_BASE` raised
//! and uploads the printed fault plan of any failing seed as an artifact
//! (the panic message embeds the plan, which `FaultPlan::seeded` makes
//! exactly replayable from the seed).

use dmc_core::{MineError, Miner, RetryPolicy, SpillSettings};
use dmc_matrix::spill_io::{FaultPlan, FaultyIo};
use dmc_matrix::ColumnId;
use std::convert::Infallible;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const N_COLS: usize = 8;
const DRIVERS: &[&str] = &["imp", "sim"];

/// 60 rows with densities 1–4, so several density buckets exist and
/// every operation class (create/write/open/read) runs enough times to
/// host the planned faults.
fn rows() -> Vec<Result<Vec<ColumnId>, Infallible>> {
    (0..60u32)
        .map(|r| {
            let mut row = vec![r % 8];
            if r % 2 == 0 {
                row.push((r + 1) % 8);
            }
            if r % 3 == 0 {
                row.push((r + 2) % 8);
            }
            if r % 5 == 0 {
                row.push((r + 4) % 8);
            }
            row.sort_unstable();
            row.dedup();
            Ok(row)
        })
        .collect()
}

/// Runs one streamed driver end to end, returning its rules rendered to
/// strings so implication and similarity runs compare uniformly.
fn run_driver(driver: &str, settings: SpillSettings) -> Result<Vec<String>, MineError<Infallible>> {
    match driver {
        "imp" => Miner::implications(0.8)
            .spill(settings)
            .mine_streamed(rows(), N_COLS)
            .map(|o| o.rules.iter().map(ToString::to_string).collect()),
        "sim" => Miner::similarities(0.5)
            .spill(settings)
            .mine_streamed(rows(), N_COLS)
            .map(|o| o.rules.iter().map(ToString::to_string).collect()),
        other => panic!("unknown driver {other}"),
    }
}

/// A private, empty spill directory for one test case; cases never share
/// one, so leak checks cannot race across concurrently running tests.
fn case_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dmc-fault-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn leftover(dir: &Path) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect()
}

/// Retries without sleeping, so fault tests stay fast.
fn fast_retry(max_retries: u32) -> RetryPolicy {
    RetryPolicy {
        max_retries,
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
        seed: 7,
    }
}

/// Settings injecting `plan` into a private directory; returns the
/// `FaultyIo` too so tests can check what actually fired.
fn faulty_settings(plan: FaultPlan, dir: &Path) -> (Arc<FaultyIo>, SpillSettings) {
    let io = Arc::new(FaultyIo::new(plan));
    let settings = SpillSettings {
        io: Arc::clone(&io) as Arc<dyn dmc_matrix::spill_io::SpillIo>,
        retry: fast_retry(3),
        dir: Some(dir.to_path_buf()),
    };
    (io, settings)
}

#[test]
fn transient_faults_are_invisible() {
    let plans = [
        FaultPlan::new().fail_write(5, true),
        FaultPlan::new().fail_read(3, true),
        FaultPlan::new().fail_open(1, true),
    ];
    for driver in DRIVERS {
        let clean = run_driver(driver, SpillSettings::default()).expect("fault-free run");
        for (i, plan) in plans.iter().enumerate() {
            let dir = case_dir(&format!("transient-{driver}-{i}"));
            let (io, settings) = faulty_settings(plan.clone(), &dir);
            let out = run_driver(driver, settings)
                .unwrap_or_else(|e| panic!("{driver} under {plan}: {e}"));
            assert_eq!(out, clean, "{driver} under {plan}: rules differ");
            assert_eq!(
                io.fired().len(),
                1,
                "{driver} under {plan}: fault never fired"
            );
            assert_eq!(
                leftover(&dir),
                Vec::<String>::new(),
                "{driver} under {plan}: leaked spill files"
            );
        }
    }
}

#[test]
fn transient_retries_surface_in_the_run_report() {
    let dir = case_dir("retry-report");
    let plan = FaultPlan::new().fail_write(5, true).fail_read(3, true);
    let (io, settings) = faulty_settings(plan, &dir);
    let out = Miner::implications(0.8)
        .spill(settings)
        .mine_streamed(rows(), N_COLS)
        .expect("transient faults retried");
    assert_eq!(io.fired().len(), 2);
    let counters = out.report.io.expect("streamed run reports io counters");
    assert_eq!(counters.write_retries, 1);
    assert_eq!(counters.read_retries, 1);
    assert_eq!(counters.corrupt_frames, 0);
    assert_eq!(counters.frames_written, 60);
    assert!(
        out.report.reconciles(),
        "io section reconciles after retries"
    );
    assert_eq!(leftover(&dir), Vec::<String>::new());
}

/// What a permanent fault must surface as.
enum Expected {
    /// `MineError::Io` carrying this raw os error.
    Io(i32),
    /// `MineError::CorruptSpill` from the framing/checksum guards.
    Corrupt,
}

#[test]
fn permanent_faults_surface_typed_errors_without_leaks() {
    let cases = [
        (FaultPlan::new().fail_write(5, false), Expected::Io(28)), // ENOSPC
        (FaultPlan::new().fail_create(0), Expected::Io(28)),       // ENOSPC
        (FaultPlan::new().fail_read(3, false), Expected::Io(5)),   // EIO
        (FaultPlan::new().fail_open(1, false), Expected::Io(5)),   // EIO
        (FaultPlan::new().short_read(2), Expected::Corrupt),       // lost tail
        (FaultPlan::new().torn_write(10), Expected::Corrupt),      // torn frame
        (FaultPlan::new().flip_byte(7, 0x10), Expected::Corrupt),  // bit rot
    ];
    for driver in DRIVERS {
        for (i, (plan, expected)) in cases.iter().enumerate() {
            let dir = case_dir(&format!("permanent-{driver}-{i}"));
            let (_io, settings) = faulty_settings(plan.clone(), &dir);
            let err = match run_driver(driver, settings) {
                Err(e) => e,
                Ok(_) => panic!("{driver} under {plan}: run succeeded"),
            };
            match expected {
                Expected::Io(raw) => match &err {
                    MineError::Io { error, .. } => assert_eq!(
                        error.raw_os_error(),
                        Some(*raw),
                        "{driver} under {plan}: wrong os error ({error})"
                    ),
                    other => panic!("{driver} under {plan}: expected Io, got {other}"),
                },
                Expected::Corrupt => assert!(
                    matches!(err, MineError::CorruptSpill { .. }),
                    "{driver} under {plan}: expected CorruptSpill, got {err}"
                ),
            }
            assert_eq!(
                leftover(&dir),
                Vec::<String>::new(),
                "{driver} under {plan}: leaked spill files after error"
            );
        }
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Seeded sweep: pseudo-random single-fault plans against every driver.
/// A successful run must produce exactly the fault-free rules (no silent
/// corruption, ever); a failed run must fail typed; nothing may leak.
/// CI raises `DMC_FAULT_SWEEP` and archives the plan printed by a
/// failing seed.
#[test]
fn seeded_fault_sweep() {
    let base = env_u64("DMC_FAULT_SEED_BASE", 0x00DA_7A00);
    let sweep = env_u64("DMC_FAULT_SWEEP", 8);
    for driver in DRIVERS {
        let clean = run_driver(driver, SpillSettings::default()).expect("fault-free run");
        for s in 0..sweep {
            let seed = base + s;
            let plan = FaultPlan::seeded(seed);
            let dir = case_dir(&format!("sweep-{driver}-{seed}"));
            let (io, settings) = faulty_settings(plan.clone(), &dir);
            match run_driver(driver, settings) {
                Ok(out) => assert_eq!(
                    out,
                    clean,
                    "seed {seed} {driver}: wrong rules from successful run \
                     (fired: {:?}); {plan}",
                    io.fired()
                ),
                Err(e) => {
                    assert!(
                        !plan.all_transient(),
                        "seed {seed} {driver}: transient-only plan failed: {e}; {plan}"
                    );
                    assert!(
                        matches!(e, MineError::Io { .. } | MineError::CorruptSpill { .. }),
                        "seed {seed} {driver}: untyped failure {e}; {plan}"
                    );
                }
            }
            assert_eq!(
                leftover(&dir),
                Vec::<String>::new(),
                "seed {seed} {driver}: leaked spill files; {plan}"
            );
        }
    }
}
