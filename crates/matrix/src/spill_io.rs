//! Pluggable I/O surface for the out-of-core spill, with deterministic
//! fault injection.
//!
//! The DMC paper's exactness guarantee ("no false positives or negatives")
//! is only as strong as the spill files the out-of-core drivers stake it
//! on. [`SpillIo`] abstracts the create/open/remove surface that
//! [`crate::spill::BucketSpill`] writes through, so tests (in any crate)
//! can swap the real filesystem ([`StdFsIo`]) for [`FaultyIo`]: a wrapper
//! that injects a seeded, deterministic [`FaultPlan`] of write failures,
//! torn writes, bit flips, short reads and EINTR-style transient errors.
//!
//! Two more pieces live here because every spill user needs them:
//!
//! * [`RetryPolicy`] — bounded retries with deterministic jittered
//!   exponential backoff for faults classified transient by
//!   [`is_transient`]. The contract an implementation must honor for
//!   retries to be sound: a *transient* failure is clean (no bytes were
//!   consumed or produced by the failed call).
//! * [`SpillIoStats`] — shared atomic counters (frames, retries, detected
//!   corruption) that the drivers roll into the run report's `io` section.
//!
//! [`crc32`] is the hand-rolled IEEE CRC-32 the framed spill codec
//! checksums rows with (the sanctioned offline dependency set has no
//! checksum crate).

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// A writable spill file. Implementations may buffer internally; the
/// spill calls [`Write::flush`] before any replay.
pub trait SpillWrite: Write + Send {}
impl<T: Write + Send> SpillWrite for T {}

/// A readable spill file.
pub trait SpillRead: Read + Send {}
impl<T: Read + Send> SpillRead for T {}

/// The spill's file-system surface: everything `BucketSpill` and
/// `SpillReplay` do to disk goes through one of these three calls.
pub trait SpillIo: Send + Sync {
    /// Creates (truncating) a bucket file for writing.
    ///
    /// # Errors
    ///
    /// Propagates creation failures.
    fn create(&self, path: &Path) -> io::Result<Box<dyn SpillWrite>>;

    /// Opens an existing bucket file for reading.
    ///
    /// # Errors
    ///
    /// Propagates open failures.
    fn open(&self, path: &Path) -> io::Result<Box<dyn SpillRead>>;

    /// Removes a bucket file (cleanup; callers ignore failures).
    ///
    /// # Errors
    ///
    /// Propagates removal failures.
    fn remove(&self, path: &Path) -> io::Result<()>;

    /// Short name for debug output.
    fn label(&self) -> &'static str {
        "spill-io"
    }
}

/// The real filesystem: buffered `std::fs` files.
#[derive(Clone, Copy, Debug, Default)]
pub struct StdFsIo;

impl SpillIo for StdFsIo {
    fn create(&self, path: &Path) -> io::Result<Box<dyn SpillWrite>> {
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(path)?;
        Ok(Box::new(BufWriter::new(file)))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn SpillRead>> {
        Ok(Box::new(BufReader::new(File::open(path)?)))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn label(&self) -> &'static str {
        "std-fs"
    }
}

/// `true` for error kinds worth retrying: the EINTR-style interruptions
/// that clear on their own. Everything else (disk full, I/O error,
/// permission) is permanent and must surface to the caller.
#[must_use]
pub fn is_transient(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Bounded retry with deterministic jittered exponential backoff, applied
/// by the spill to operations that fail with a [transient](is_transient)
/// error kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries per operation after the first attempt. `0` disables
    /// retrying entirely.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub base_backoff: Duration,
    /// Hard cap on a single backoff sleep.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl RetryPolicy {
    /// The default policy: 3 retries, 1 ms base backoff, 50 ms cap.
    #[must_use]
    pub fn standard() -> Self {
        Self {
            max_retries: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// No retries: every failure is final.
    #[must_use]
    pub fn none() -> Self {
        Self {
            max_retries: 0,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            seed: 0,
        }
    }

    /// A policy with `max_retries` retries and the standard backoff.
    #[must_use]
    pub fn with_retries(max_retries: u32) -> Self {
        Self {
            max_retries,
            ..Self::standard()
        }
    }

    /// The jittered backoff before retry number `attempt` (1-based),
    /// advancing the caller's jitter state. Deterministic per seed.
    #[must_use]
    pub fn backoff(&self, attempt: u32, jitter: &mut u64) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
        // Full jitter: uniform in [exp/2, exp], so synchronized retriers
        // de-correlate while the expected backoff still doubles.
        let r = xorshift64(jitter);
        let nanos = exp.as_nanos().min(u128::from(u64::MAX)) as u64;
        let jittered = nanos / 2 + (r % (nanos / 2 + 1));
        Duration::from_nanos(jittered).min(self.max_backoff)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::standard()
    }
}

/// The xorshift64 step used for jitter and seeded fault plans: tiny,
/// deterministic, and good enough for test scheduling (not cryptography).
fn xorshift64(state: &mut u64) -> u64 {
    let mut x = state.wrapping_add(0x2545_f491_4f6c_dd1d) | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// IEEE CRC-32 (polynomial `0xEDB88320`), table-driven and hand-rolled:
/// the integrity check on every spill frame.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        table
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = table[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Shared atomic counters for one spill's I/O trajectory. Cloned into
/// every replay, snapshotted by the drivers into the run report's `io`
/// section.
#[derive(Debug, Default)]
pub struct SpillIoStats {
    /// Row frames appended by `push_row`.
    pub frames_written: AtomicU64,
    /// Row frames successfully decoded across all replays.
    pub frames_read: AtomicU64,
    /// Full replays started.
    pub replays: AtomicU64,
    /// Write calls retried after a transient failure.
    pub write_retries: AtomicU64,
    /// Read calls retried after a transient failure.
    pub read_retries: AtomicU64,
    /// Frames rejected by the checksum/framing guards.
    pub corrupt_frames: AtomicU64,
}

impl SpillIoStats {
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// A plain-value copy of the counters.
    #[must_use]
    pub fn snapshot(&self) -> SpillIoSnapshot {
        SpillIoSnapshot {
            frames_written: self.frames_written.load(Ordering::Relaxed),
            frames_read: self.frames_read.load(Ordering::Relaxed),
            replays: self.replays.load(Ordering::Relaxed),
            write_retries: self.write_retries.load(Ordering::Relaxed),
            read_retries: self.read_retries.load(Ordering::Relaxed),
            corrupt_frames: self.corrupt_frames.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value snapshot of [`SpillIoStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpillIoSnapshot {
    /// Row frames appended by `push_row`.
    pub frames_written: u64,
    /// Row frames successfully decoded across all replays.
    pub frames_read: u64,
    /// Full replays started.
    pub replays: u64,
    /// Write calls retried after a transient failure.
    pub write_retries: u64,
    /// Read calls retried after a transient failure.
    pub read_retries: u64,
    /// Frames rejected by the checksum/framing guards.
    pub corrupt_frames: u64,
}

/// How the spill performs its I/O: which [`SpillIo`] backend, which
/// [`RetryPolicy`], and where the bucket files live.
#[derive(Clone)]
pub struct SpillSettings {
    /// The I/O backend. Tests substitute [`FaultyIo`]; everything else
    /// uses [`StdFsIo`].
    pub io: Arc<dyn SpillIo>,
    /// Retry policy for transient failures.
    pub retry: RetryPolicy,
    /// Spill directory; `None` means the system temp directory.
    pub dir: Option<PathBuf>,
}

impl SpillSettings {
    /// Standard settings over `io`.
    #[must_use]
    pub fn with_io(io: Arc<dyn SpillIo>) -> Self {
        Self {
            io,
            ..Self::default()
        }
    }

    /// Builder-style: set the retry policy.
    #[must_use]
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

impl Default for SpillSettings {
    fn default() -> Self {
        Self {
            io: Arc::new(StdFsIo),
            retry: RetryPolicy::standard(),
            dir: None,
        }
    }
}

impl fmt::Debug for SpillSettings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpillSettings")
            .field("io", &self.io.label())
            .field("retry", &self.retry)
            .field("dir", &self.dir)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// One injectable fault kind.
///
/// *Transient* faults fire once and are clean: the failed call consumed
/// and produced no bytes, so a retry succeeds. *Sticky* faults keep
/// firing from their trigger operation onward (the disk stayed broken).
/// The data-damage kinds — [`TornWrite`](FaultKind::TornWrite) and
/// [`FlipByte`](FaultKind::FlipByte) — fire once, *report success*, and
/// silently damage the stream; the framed codec must detect them at
/// replay, not avoid them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The write call fails cleanly: EINTR-style if transient, ENOSPC
    /// forever after if not.
    WriteError {
        /// Whether retrying the write succeeds.
        transient: bool,
    },
    /// The write persists only a prefix of the buffer but reports full
    /// success (power loss after a partial page persist).
    TornWrite,
    /// One byte of the written buffer is flipped with `xor`; the write
    /// reports success (bit rot / silent medium corruption).
    FlipByte {
        /// The mask xor-ed into a middle byte; zero is promoted to 1.
        xor: u8,
    },
    /// The read call fails cleanly (transient or sticky-permanent EIO).
    ReadError {
        /// Whether retrying the read succeeds.
        transient: bool,
    },
    /// Reads report end-of-file from the trigger operation onward (the
    /// file lost its tail).
    ShortRead,
    /// Creating a bucket file fails with ENOSPC (sticky).
    CreateError,
    /// Opening a bucket file for replay fails (transient or sticky EIO).
    OpenError {
        /// Whether retrying the open succeeds.
        transient: bool,
    },
}

/// A [`FaultKind`] scheduled at the `op`-th operation of its class
/// (0-based; writes, reads, creates and opens are counted separately,
/// across all files of the wrapped io).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    /// 0-based operation index within the fault's class.
    pub op: u64,
    /// What goes wrong.
    pub kind: FaultKind,
}

impl Fault {
    fn class(&self) -> OpClass {
        match self.kind {
            FaultKind::WriteError { .. } | FaultKind::TornWrite | FaultKind::FlipByte { .. } => {
                OpClass::Write
            }
            FaultKind::ReadError { .. } | FaultKind::ShortRead => OpClass::Read,
            FaultKind::CreateError => OpClass::Create,
            FaultKind::OpenError { .. } => OpClass::Open,
        }
    }

    fn sticky(&self) -> bool {
        matches!(
            self.kind,
            FaultKind::WriteError { transient: false }
                | FaultKind::ReadError { transient: false }
                | FaultKind::ShortRead
                | FaultKind::CreateError
                | FaultKind::OpenError { transient: false }
        )
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum OpClass {
    Write,
    Read,
    Create,
    Open,
}

/// A deterministic schedule of faults. Build one explicitly with the
/// `fail_*` builders or derive one from a seed with [`FaultPlan::seeded`];
/// either way the same plan injects the same faults at the same
/// operations on every run, so a failing seed replays exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (no faults; [`FaultyIo`] behaves like its inner io).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault.
    #[must_use]
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Fail the `n`-th write call.
    #[must_use]
    pub fn fail_write(self, n: u64, transient: bool) -> Self {
        self.with(Fault {
            op: n,
            kind: FaultKind::WriteError { transient },
        })
    }

    /// Tear the `n`-th write call: persist a prefix, report success.
    #[must_use]
    pub fn torn_write(self, n: u64) -> Self {
        self.with(Fault {
            op: n,
            kind: FaultKind::TornWrite,
        })
    }

    /// Flip a byte of the `n`-th write call's buffer with `xor`.
    #[must_use]
    pub fn flip_byte(self, n: u64, xor: u8) -> Self {
        self.with(Fault {
            op: n,
            kind: FaultKind::FlipByte { xor },
        })
    }

    /// Fail the `n`-th read call.
    #[must_use]
    pub fn fail_read(self, n: u64, transient: bool) -> Self {
        self.with(Fault {
            op: n,
            kind: FaultKind::ReadError { transient },
        })
    }

    /// Report end-of-file from the `n`-th read call onward.
    #[must_use]
    pub fn short_read(self, n: u64) -> Self {
        self.with(Fault {
            op: n,
            kind: FaultKind::ShortRead,
        })
    }

    /// Fail the `n`-th bucket-file creation with ENOSPC.
    #[must_use]
    pub fn fail_create(self, n: u64) -> Self {
        self.with(Fault {
            op: n,
            kind: FaultKind::CreateError,
        })
    }

    /// Fail the `n`-th bucket-file open.
    #[must_use]
    pub fn fail_open(self, n: u64, transient: bool) -> Self {
        self.with(Fault {
            op: n,
            kind: FaultKind::OpenError { transient },
        })
    }

    /// A pseudo-random single-fault plan derived from `seed`: uniform over
    /// the fault taxonomy, operation index in `0..48`. The same seed
    /// always yields the same plan (the CI fault sweep depends on this to
    /// replay failing seeds).
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        let mut s = seed;
        let op = xorshift64(&mut s) % 48;
        let transient = xorshift64(&mut s) % 2 == 0;
        let kind = match xorshift64(&mut s) % 7 {
            0 => FaultKind::WriteError { transient },
            1 => FaultKind::TornWrite,
            2 => FaultKind::FlipByte {
                xor: (xorshift64(&mut s) % 255 + 1) as u8,
            },
            3 => FaultKind::ReadError { transient },
            4 => FaultKind::ShortRead,
            5 => FaultKind::CreateError,
            _ => FaultKind::OpenError { transient },
        };
        Self::new().with(Fault { op, kind })
    }

    /// The scheduled faults.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// `true` when every scheduled fault is transient — i.e. a run under
    /// this plan with retries enabled must produce output identical to a
    /// fault-free run.
    #[must_use]
    pub fn all_transient(&self) -> bool {
        self.faults.iter().all(|f| {
            matches!(
                f.kind,
                FaultKind::WriteError { transient: true }
                    | FaultKind::ReadError { transient: true }
                    | FaultKind::OpenError { transient: true }
            )
        })
    }
}

impl fmt::Display for FaultPlan {
    /// One replayable `[op N Kind]` entry per fault — the format the CI
    /// fault sweep uploads as its failing-seed artifact.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.faults.is_empty() {
            return write!(f, "fault plan: (empty)");
        }
        write!(f, "fault plan:")?;
        for fault in &self.faults {
            write!(f, " [op {} {:?}]", fault.op, fault.kind)?;
        }
        Ok(())
    }
}

struct FaultState {
    plan: FaultPlan,
    fired: Vec<bool>,
    writes: u64,
    reads: u64,
    creates: u64,
    opens: u64,
}

impl FaultState {
    /// The fault to inject for the next operation of `class`, if any,
    /// advancing the class counter.
    fn next_op(&mut self, class: OpClass) -> Option<Fault> {
        let n = match class {
            OpClass::Write => {
                self.writes += 1;
                self.writes - 1
            }
            OpClass::Read => {
                self.reads += 1;
                self.reads - 1
            }
            OpClass::Create => {
                self.creates += 1;
                self.creates - 1
            }
            OpClass::Open => {
                self.opens += 1;
                self.opens - 1
            }
        };
        for (i, fault) in self.plan.faults.iter().enumerate() {
            if fault.class() != class {
                continue;
            }
            let hit = if fault.sticky() {
                fault.op <= n
            } else {
                fault.op == n && !self.fired[i]
            };
            if hit {
                self.fired[i] = true;
                return Some(*fault);
            }
        }
        None
    }
}

fn enospc() -> io::Error {
    // ENOSPC by number: the StorageFull kind is younger than our MSRV.
    io::Error::from_raw_os_error(28)
}

fn eio() -> io::Error {
    io::Error::from_raw_os_error(5)
}

fn eintr() -> io::Error {
    io::Error::new(io::ErrorKind::Interrupted, "injected transient fault")
}

/// A [`SpillIo`] that injects a [`FaultPlan`] on top of an inner backend
/// (the real filesystem by default). Wraps at the *outermost* layer —
/// above any buffering — so one spill-frame write or read is one counted
/// operation and fault positions are deterministic.
///
/// Share it via `Arc` so the miner under test and the asserting test
/// observe the same [`fired`](FaultyIo::fired) state.
pub struct FaultyIo {
    inner: Arc<dyn SpillIo>,
    state: Arc<Mutex<FaultState>>,
}

impl FaultyIo {
    /// Faults injected over the real filesystem.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        Self::over(Arc::new(StdFsIo), plan)
    }

    /// Faults injected over an arbitrary inner backend.
    #[must_use]
    pub fn over(inner: Arc<dyn SpillIo>, plan: FaultPlan) -> Self {
        let fired = vec![false; plan.faults.len()];
        Self {
            inner,
            state: Arc::new(Mutex::new(FaultState {
                plan,
                fired,
                writes: 0,
                reads: 0,
                creates: 0,
                opens: 0,
            })),
        }
    }

    /// The plan this io injects.
    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        self.lock().plan.clone()
    }

    /// The scheduled faults that have fired at least once so far.
    #[must_use]
    pub fn fired(&self) -> Vec<Fault> {
        let state = self.lock();
        state
            .plan
            .faults
            .iter()
            .zip(&state.fired)
            .filter(|&(_, fired)| *fired)
            .map(|(f, _)| *f)
            .collect()
    }

    fn lock(&self) -> MutexGuard<'_, FaultState> {
        self.state.lock().expect("fault state poisoned")
    }
}

impl fmt::Debug for FaultyIo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultyIo")
            .field("plan", &self.plan())
            .finish()
    }
}

impl SpillIo for FaultyIo {
    fn create(&self, path: &Path) -> io::Result<Box<dyn SpillWrite>> {
        if self.lock().next_op(OpClass::Create).is_some() {
            return Err(enospc());
        }
        let inner = self.inner.create(path)?;
        Ok(Box::new(FaultyWriter {
            inner,
            state: Arc::clone(&self.state),
        }))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn SpillRead>> {
        if let Some(fault) = self.lock().next_op(OpClass::Open) {
            return Err(match fault.kind {
                FaultKind::OpenError { transient: true } => eintr(),
                _ => eio(),
            });
        }
        let inner = self.inner.open(path)?;
        Ok(Box::new(FaultyReader {
            inner,
            state: Arc::clone(&self.state),
        }))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn label(&self) -> &'static str {
        "faulty"
    }
}

struct FaultyWriter {
    inner: Box<dyn SpillWrite>,
    state: Arc<Mutex<FaultState>>,
}

impl Write for FaultyWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let fault = self
            .state
            .lock()
            .expect("fault state poisoned")
            .next_op(OpClass::Write);
        match fault.map(|f| f.kind) {
            None => self.inner.write(buf),
            Some(FaultKind::WriteError { transient }) => {
                Err(if transient { eintr() } else { enospc() })
            }
            Some(FaultKind::TornWrite) => {
                // Persist a prefix, report full success: the classic torn
                // write the replay-side framing must catch.
                let torn = buf.len() / 2;
                self.inner.write_all(&buf[..torn])?;
                Ok(buf.len())
            }
            Some(FaultKind::FlipByte { xor }) => {
                let mut damaged = buf.to_vec();
                if let Some(last) = damaged.len().checked_sub(1) {
                    damaged[last / 2] ^= xor.max(1);
                }
                self.inner.write_all(&damaged)?;
                Ok(buf.len())
            }
            Some(_) => unreachable!("non-write fault routed to writer"),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

struct FaultyReader {
    inner: Box<dyn SpillRead>,
    state: Arc<Mutex<FaultState>>,
}

impl Read for FaultyReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let fault = self
            .state
            .lock()
            .expect("fault state poisoned")
            .next_op(OpClass::Read);
        match fault.map(|f| f.kind) {
            None => self.inner.read(buf),
            Some(FaultKind::ReadError { transient }) => {
                Err(if transient { eintr() } else { eio() })
            }
            Some(FaultKind::ShortRead) => Ok(0),
            Some(_) => unreachable!("non-read fault routed to reader"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dmc-spill-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_detects_single_byte_change() {
        let base = b"hello spill frame".to_vec();
        let reference = crc32(&base);
        for i in 0..base.len() {
            for xor in [0x01u8, 0x80, 0xFF] {
                let mut damaged = base.clone();
                damaged[i] ^= xor;
                assert_ne!(crc32(&damaged), reference, "flip at {i} xor {xor:#x}");
            }
        }
    }

    #[test]
    fn transient_classification() {
        assert!(is_transient(io::ErrorKind::Interrupted));
        assert!(is_transient(io::ErrorKind::WouldBlock));
        assert!(is_transient(io::ErrorKind::TimedOut));
        assert!(!is_transient(io::ErrorKind::NotFound));
        assert!(!is_transient(enospc().kind()));
        assert!(!is_transient(eio().kind()));
    }

    #[test]
    fn backoff_is_bounded_and_deterministic() {
        let policy = RetryPolicy::standard();
        let mut j1 = policy.seed;
        let mut j2 = policy.seed;
        for attempt in 1..=8 {
            let a = policy.backoff(attempt, &mut j1);
            let b = policy.backoff(attempt, &mut j2);
            assert_eq!(a, b, "same seed, same backoff");
            assert!(a <= policy.max_backoff);
        }
        let mut j = 0;
        assert_eq!(RetryPolicy::none().backoff(1, &mut j), Duration::ZERO);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_varied() {
        for seed in 0..64 {
            assert_eq!(FaultPlan::seeded(seed), FaultPlan::seeded(seed));
        }
        let kinds: std::collections::BTreeSet<String> = (0..64)
            .map(|s| format!("{:?}", FaultPlan::seeded(s).faults()[0].kind))
            .collect();
        assert!(kinds.len() > 4, "seed space covers the taxonomy: {kinds:?}");
    }

    #[test]
    fn transient_write_fault_fires_once() {
        let path = scratch("fault-once.bin");
        let io = FaultyIo::new(FaultPlan::new().fail_write(1, true));
        let mut w = io.create(&path).unwrap();
        assert_eq!(w.write(b"aa").unwrap(), 2);
        let err = w.write(b"bb").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert_eq!(w.write(b"bb").unwrap(), 2, "clean retry succeeds");
        w.flush().unwrap();
        drop(w);
        assert_eq!(std::fs::read(&path).unwrap(), b"aabb");
        assert_eq!(io.fired().len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn permanent_write_fault_is_sticky() {
        let path = scratch("fault-sticky.bin");
        let io = FaultyIo::new(FaultPlan::new().fail_write(0, false));
        let mut w = io.create(&path).unwrap();
        for _ in 0..3 {
            let err = w.write(b"xx").unwrap_err();
            assert_eq!(err.raw_os_error(), Some(28), "ENOSPC every time");
        }
        drop(w);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn short_read_reports_eof_forever() {
        let path = scratch("fault-short.bin");
        std::fs::write(&path, b"0123456789").unwrap();
        let io = FaultyIo::new(FaultPlan::new().short_read(1));
        let mut r = io.open(&path).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(r.read(&mut buf).unwrap(), 4);
        assert_eq!(r.read(&mut buf).unwrap(), 0, "tail is gone");
        assert_eq!(r.read(&mut buf).unwrap(), 0, "and stays gone");
        drop(r);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flip_byte_damages_exactly_one_byte() {
        let path = scratch("fault-flip.bin");
        let io = FaultyIo::new(FaultPlan::new().flip_byte(0, 0x40));
        let mut w = io.create(&path).unwrap();
        w.write_all(b"abcdefgh").unwrap();
        w.flush().unwrap();
        drop(w);
        let written = std::fs::read(&path).unwrap();
        let diffs: Vec<usize> = written
            .iter()
            .zip(b"abcdefgh")
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(diffs.len(), 1, "exactly one byte flipped");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn create_fault_is_enospc() {
        let io = FaultyIo::new(FaultPlan::new().fail_create(0));
        let err = match io.create(Path::new("/nonexistent-dir-ignored/by-fault")) {
            Err(e) => e,
            Ok(_) => panic!("create should fail"),
        };
        assert_eq!(err.raw_os_error(), Some(28));
    }

    #[test]
    fn fault_plan_display_is_replayable() {
        let plan = FaultPlan::new().fail_write(3, true).short_read(7);
        let s = plan.to_string();
        assert!(s.contains("op 3"), "{s}");
        assert!(s.contains("op 7"), "{s}");
        assert!(FaultPlan::new().to_string().contains("empty"));
    }
}
