//! Disk-backed density buckets (§4.1's out-of-core row re-ordering).
//!
//! The paper avoids sorting disk-resident data by density: during the
//! first scan each row is appended to one of `⌈log₂ m⌉ + 1` bucket files
//! by its 1-count, and the second scan reads the bucket files sparsest
//! first. [`BucketSpill`] implements exactly that: rows go in via
//! [`BucketSpill::push_row`], come back out in bucketed sparsest-first
//! order via [`BucketSpill::replay`], any number of times.
//!
//! # Frame format
//!
//! Every row is one self-checking little-endian frame:
//!
//! ```text
//! len: u32 | !len: u32 | crc: u32 | ids: len × u32
//! ```
//!
//! `!len` is the bitwise complement of `len` (a guard that catches any
//! corruption of the length field itself), and `crc` is the IEEE CRC-32
//! of the payload bytes. [`SpillReplay`] verifies both, plus a per-bucket
//! frame count recorded at flush time, so torn writes, truncation, bit
//! rot and lost tails all surface as a typed
//! [`SpillReadError::Corrupt`] — never as silently-wrong rows. The DMC
//! exactness guarantee survives a bad disk by failing loudly.
//!
//! # Faults and retries
//!
//! All file I/O goes through the [`crate::spill_io::SpillIo`] backend in
//! [`SpillSettings`], so tests can inject deterministic faults with
//! [`crate::spill_io::FaultyIo`]. Failures whose
//! [`io::ErrorKind`] is [transient](crate::spill_io::is_transient) are
//! retried with bounded jittered backoff per the settings'
//! [`RetryPolicy`]; retry and corruption counts accumulate in the spill's
//! shared [`SpillIoStats`] for the run report.
//!
//! # Cleanup
//!
//! Every handle that can read the files — the [`BucketSpill`] itself and
//! each live [`SpillReplay`] — shares ownership of an internal guard; the
//! bucket files are unlinked when the **last** handle drops. An early
//! error return (or a spill dropped mid-replay) therefore never strands
//! files on disk, and a replay in flight keeps its files alive even if the
//! spill that created it is gone.

use crate::order::density_bucket;
use crate::spill_io::{
    crc32, is_transient, RetryPolicy, SpillIo, SpillIoStats, SpillRead, SpillSettings, SpillWrite,
};
use crate::ColumnId;
use std::fmt;
use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

static SPILL_ID: AtomicU64 = AtomicU64::new(0);

/// Bytes of frame header preceding the payload: `len | !len | crc`.
pub const FRAME_HEADER_BYTES: u64 = 12;

/// Upper bound on a decoded row length. A frame whose length field passes
/// the complement guard but exceeds this is corrupt framing (e.g. a torn
/// write that happened to produce complementary words), not a real row.
const MAX_ROW_LEN: u32 = 1 << 26;

/// A spill read failure: either the underlying I/O failed permanently, or
/// the frame integrity checks rejected the data.
#[derive(Debug)]
pub enum SpillReadError {
    /// The backend failed after exhausting any retries.
    Io {
        /// What the spill was doing ("open spill bucket", "read spill frame").
        context: &'static str,
        /// The underlying error, kind preserved.
        error: io::Error,
    },
    /// A frame failed its integrity checks.
    Corrupt {
        /// 0-based index of the offending frame in replay order.
        frame: u64,
        /// Which guard tripped.
        reason: &'static str,
    },
}

impl fmt::Display for SpillReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpillReadError::Io { context, error } => write!(f, "spill io ({context}): {error}"),
            SpillReadError::Corrupt { frame, reason } => {
                write!(f, "corrupt spill frame {frame}: {reason}")
            }
        }
    }
}

impl std::error::Error for SpillReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpillReadError::Io { error, .. } => Some(error),
            SpillReadError::Corrupt { .. } => None,
        }
    }
}

/// Owns the on-disk bucket files; unlinks them (through the spill's io
/// backend) on drop. Shared (via `Arc`) by the spill and its live
/// replays, so the files survive exactly as long as something can still
/// read them.
struct SpillFiles {
    io: Arc<dyn SpillIo>,
    paths: Mutex<Vec<Option<PathBuf>>>,
    /// Frames per bucket, recorded at flush time; replays verify against it.
    counts: Mutex<Vec<u64>>,
}

impl Drop for SpillFiles {
    fn drop(&mut self) {
        let paths = self.paths.get_mut().expect("spill path lock poisoned");
        for path in paths.iter().flatten() {
            let _ = self.io.remove(path);
        }
    }
}

impl SpillFiles {
    fn snapshot(&self) -> (Vec<Option<PathBuf>>, Vec<u64>) {
        (
            self.paths.lock().expect("spill path lock poisoned").clone(),
            self.counts
                .lock()
                .expect("spill count lock poisoned")
                .clone(),
        )
    }
}

/// Encodes `row` as one frame into `scratch` (cleared first).
fn encode_frame(scratch: &mut Vec<u8>, row: &[ColumnId]) {
    scratch.clear();
    scratch.reserve(FRAME_HEADER_BYTES as usize + 4 * row.len());
    let len = row.len() as u32;
    scratch.extend_from_slice(&len.to_le_bytes());
    scratch.extend_from_slice(&(!len).to_le_bytes());
    scratch.extend_from_slice(&[0u8; 4]); // crc placeholder
    for &c in row {
        scratch.extend_from_slice(&c.to_le_bytes());
    }
    let crc = crc32(&scratch[FRAME_HEADER_BYTES as usize..]);
    scratch[8..12].copy_from_slice(&crc.to_le_bytes());
}

/// Writes all of `buf`, retrying transient failures per `retry`.
/// Assumes the transient-failure contract: a failed call wrote nothing.
fn write_full_retry(
    writer: &mut dyn Write,
    buf: &[u8],
    retry: &RetryPolicy,
    jitter: &mut u64,
    stats: &SpillIoStats,
) -> io::Result<()> {
    let mut offset = 0;
    let mut attempts = 0u32;
    while offset < buf.len() {
        match writer.write(&buf[offset..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "spill write accepted no bytes",
                ))
            }
            Ok(n) => offset += n,
            Err(e) if is_transient(e.kind()) && attempts < retry.max_retries => {
                attempts += 1;
                SpillIoStats::add(&stats.write_retries, 1);
                let pause = retry.backoff(attempts, jitter);
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads up to `buf.len()` bytes, stopping early only at end-of-file;
/// transient failures are retried per `retry`. Returns the bytes read.
fn read_full_retry(
    reader: &mut dyn Read,
    buf: &mut [u8],
    retry: &RetryPolicy,
    jitter: &mut u64,
    stats: &SpillIoStats,
) -> io::Result<usize> {
    let mut offset = 0;
    let mut attempts = 0u32;
    while offset < buf.len() {
        match reader.read(&mut buf[offset..]) {
            Ok(0) => break,
            Ok(n) => offset += n,
            Err(e) if is_transient(e.kind()) && attempts < retry.max_retries => {
                attempts += 1;
                SpillIoStats::add(&stats.read_retries, 1);
                let pause = retry.backoff(attempts, jitter);
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(offset)
}

/// Writes rows into per-density bucket files and replays them sparsest
/// bucket first.
pub struct BucketSpill {
    dir: PathBuf,
    prefix: String,
    /// Lazily opened writers, one per bucket.
    writers: Vec<Option<Box<dyn SpillWrite>>>,
    /// Frames pushed per bucket; synced to `files` at flush time.
    counts: Vec<u64>,
    files: Arc<SpillFiles>,
    settings: SpillSettings,
    stats: Arc<SpillIoStats>,
    scratch: Vec<u8>,
    jitter: u64,
    rows: usize,
    bytes: u64,
}

impl BucketSpill {
    /// Creates a spill area under `dir` for matrices of up to `n_cols`
    /// columns, with default I/O settings.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn new(dir: impl Into<PathBuf>, n_cols: usize) -> io::Result<Self> {
        let settings = SpillSettings {
            dir: Some(dir.into()),
            ..SpillSettings::default()
        };
        Self::with_settings(n_cols, settings)
    }

    /// Creates a spill area in the system temp directory with default
    /// I/O settings.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn in_temp(n_cols: usize) -> io::Result<Self> {
        Self::with_settings(n_cols, SpillSettings::default())
    }

    /// Creates a spill area with explicit [`SpillSettings`] (backend,
    /// retry policy, directory).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn with_settings(n_cols: usize, settings: SpillSettings) -> io::Result<Self> {
        let dir = settings
            .dir
            .clone()
            .unwrap_or_else(|| std::env::temp_dir().join("dmc-spill"));
        std::fs::create_dir_all(&dir)?;
        let buckets = density_bucket(n_cols.max(1)) + 1;
        let prefix = format!(
            "dmc-spill-{}-{}",
            std::process::id(),
            SPILL_ID.fetch_add(1, Ordering::Relaxed)
        );
        let mut writers = Vec::with_capacity(buckets);
        writers.resize_with(buckets, || None);
        let jitter = settings.retry.seed;
        Ok(Self {
            dir,
            prefix,
            writers,
            counts: vec![0; buckets],
            files: Arc::new(SpillFiles {
                io: Arc::clone(&settings.io),
                paths: Mutex::new(vec![None; buckets]),
                counts: Mutex::new(vec![0; buckets]),
            }),
            settings,
            stats: Arc::new(SpillIoStats::default()),
            scratch: Vec::new(),
            jitter,
            rows: 0,
            bytes: 0,
        })
    }

    fn bucket_path(&self, bucket: usize) -> PathBuf {
        self.dir.join(format!("{}-b{bucket}.rows", self.prefix))
    }

    /// Rows spilled so far.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bytes written to the bucket files so far (frame headers included).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The spill's shared I/O counters.
    #[must_use]
    pub fn stats(&self) -> Arc<SpillIoStats> {
        Arc::clone(&self.stats)
    }

    /// Appends a sorted row to its density bucket as one checksummed
    /// frame, retrying transient write failures per the retry policy.
    ///
    /// # Errors
    ///
    /// Propagates file IO errors (after retries are exhausted).
    pub fn push_row(&mut self, row: &[ColumnId]) -> io::Result<()> {
        let bucket = density_bucket(row.len()).min(self.writers.len() - 1);
        if self.writers[bucket].is_none() {
            let path = self.bucket_path(bucket);
            let writer = self.settings.io.create(&path)?;
            self.writers[bucket] = Some(writer);
            self.files.paths.lock().expect("spill path lock poisoned")[bucket] = Some(path);
        }
        encode_frame(&mut self.scratch, row);
        let writer = self.writers[bucket].as_mut().expect("just opened");
        write_full_retry(
            writer.as_mut(),
            &self.scratch,
            &self.settings.retry,
            &mut self.jitter,
            &self.stats,
        )?;
        self.counts[bucket] += 1;
        self.rows += 1;
        self.bytes += self.scratch.len() as u64;
        SpillIoStats::add(&self.stats.frames_written, 1);
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        for writer in self.writers.iter_mut().flatten() {
            writer.flush()?;
        }
        *self.files.counts.lock().expect("spill count lock poisoned") = self.counts.clone();
        Ok(())
    }

    /// Flushes writers and returns an iterator over all rows, sparsest
    /// bucket first (original order within a bucket). Can be called
    /// repeatedly. The replay keeps the bucket files alive even if the
    /// spill is dropped before the replay finishes.
    ///
    /// # Errors
    ///
    /// Propagates flush failures.
    pub fn replay(&mut self) -> io::Result<SpillReplay> {
        self.flush()?;
        Ok(SpillReplay::over(
            Arc::clone(&self.files),
            self.settings.retry,
            Arc::clone(&self.stats),
        ))
    }
}

/// Row iterator over a [`BucketSpill`], sparsest bucket first. Each frame
/// is integrity-checked; the first error (I/O after retries, or corrupt
/// frame) ends the iteration.
pub struct SpillReplay {
    paths: Vec<Option<PathBuf>>,
    counts: Vec<u64>,
    next_bucket: usize,
    current: Option<Box<dyn SpillRead>>,
    /// Frames expected in the current bucket (recorded at flush).
    expected_in_bucket: u64,
    /// Frames decoded from the current bucket so far.
    read_in_bucket: u64,
    /// Global frame index in replay order, for error reporting.
    frame_index: u64,
    retry: RetryPolicy,
    jitter: u64,
    stats: Arc<SpillIoStats>,
    finished: bool,
    /// Keeps the bucket files on disk while this replay is alive.
    files: Arc<SpillFiles>,
}

impl SpillReplay {
    fn over(files: Arc<SpillFiles>, retry: RetryPolicy, stats: Arc<SpillIoStats>) -> Self {
        let (paths, counts) = files.snapshot();
        SpillIoStats::add(&stats.replays, 1);
        let jitter = retry.seed ^ 0xD6E8_FEB8_6659_FD93;
        Self {
            paths,
            counts,
            next_bucket: 0,
            current: None,
            expected_in_bucket: 0,
            read_in_bucket: 0,
            frame_index: 0,
            retry,
            jitter,
            stats,
            finished: false,
            files,
        }
    }

    fn corrupt(&mut self, reason: &'static str) -> SpillReadError {
        SpillIoStats::add(&self.stats.corrupt_frames, 1);
        self.finished = true;
        SpillReadError::Corrupt {
            frame: self.frame_index,
            reason,
        }
    }

    fn io_error(&mut self, context: &'static str, error: io::Error) -> SpillReadError {
        self.finished = true;
        SpillReadError::Io { context, error }
    }

    /// Opens bucket `bucket`, retrying transient open failures.
    fn open_bucket(&mut self, bucket: usize) -> io::Result<Box<dyn SpillRead>> {
        let path = self.paths[bucket].as_ref().expect("caller checked");
        let mut attempts = 0u32;
        loop {
            match self.files.io.open(path) {
                Ok(reader) => return Ok(reader),
                Err(e) if is_transient(e.kind()) && attempts < self.retry.max_retries => {
                    attempts += 1;
                    SpillIoStats::add(&self.stats.read_retries, 1);
                    let pause = self.retry.backoff(attempts, &mut self.jitter);
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Decodes the next frame from the current reader. `Ok(None)` means a
    /// clean end-of-bucket (count verified by the caller's loop).
    fn read_frame(&mut self) -> Result<Option<Vec<ColumnId>>, SpillReadError> {
        let mut header = [0u8; FRAME_HEADER_BYTES as usize];
        let reader = self.current.as_mut().expect("caller checked").as_mut();
        let got = match read_full_retry(
            reader,
            &mut header,
            &self.retry,
            &mut self.jitter,
            &self.stats,
        ) {
            Ok(got) => got,
            Err(e) => return Err(self.io_error("read spill frame", e)),
        };
        if got == 0 {
            // Clean end-of-bucket; verify the frame count before moving on.
            if self.read_in_bucket != self.expected_in_bucket {
                return Err(self.corrupt("row count mismatch"));
            }
            return Ok(None);
        }
        if got < header.len() {
            return Err(self.corrupt("truncated frame"));
        }
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        let guard = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        if guard != !len {
            return Err(self.corrupt("length guard mismatch"));
        }
        if len > MAX_ROW_LEN {
            return Err(self.corrupt("implausible row length"));
        }
        let mut payload = vec![0u8; 4 * len as usize];
        let reader = self.current.as_mut().expect("caller checked").as_mut();
        let got = match read_full_retry(
            reader,
            &mut payload,
            &self.retry,
            &mut self.jitter,
            &self.stats,
        ) {
            Ok(got) => got,
            Err(e) => return Err(self.io_error("read spill frame", e)),
        };
        if got < payload.len() {
            return Err(self.corrupt("truncated frame"));
        }
        if crc32(&payload) != crc {
            return Err(self.corrupt("checksum mismatch"));
        }
        let row: Vec<ColumnId> = payload
            .chunks_exact(4)
            .map(|b| ColumnId::from_le_bytes(b.try_into().expect("4 bytes")))
            .collect();
        self.read_in_bucket += 1;
        self.frame_index += 1;
        SpillIoStats::add(&self.stats.frames_read, 1);
        Ok(Some(row))
    }
}

impl Iterator for SpillReplay {
    type Item = Result<Vec<ColumnId>, SpillReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.finished {
            return None;
        }
        loop {
            if self.current.is_some() {
                match self.read_frame() {
                    Ok(Some(row)) => return Some(Ok(row)),
                    Ok(None) => self.current = None,
                    Err(e) => return Some(Err(e)),
                }
            }
            // Advance to the next existing bucket file.
            loop {
                if self.next_bucket >= self.paths.len() {
                    self.finished = true;
                    return None;
                }
                let bucket = self.next_bucket;
                self.next_bucket += 1;
                if self.paths[bucket].is_some() {
                    match self.open_bucket(bucket) {
                        Ok(reader) => {
                            self.current = Some(reader);
                            self.expected_in_bucket = self.counts[bucket];
                            self.read_in_bucket = 0;
                            break;
                        }
                        Err(e) => return Some(Err(self.io_error("open spill bucket", e))),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill_io::{FaultPlan, FaultyIo};

    fn temp_dir() -> PathBuf {
        std::env::temp_dir().join("dmc-spill-tests")
    }

    fn faulty_settings(plan: FaultPlan, retry: RetryPolicy) -> (SpillSettings, Arc<FaultyIo>) {
        let io = Arc::new(FaultyIo::new(plan));
        let settings = SpillSettings::with_io(Arc::<FaultyIo>::clone(&io) as Arc<dyn SpillIo>)
            .retry(RetryPolicy {
                base_backoff: std::time::Duration::ZERO,
                ..retry
            });
        let settings = SpillSettings {
            dir: Some(temp_dir()),
            ..settings
        };
        (settings, io)
    }

    #[test]
    fn replay_orders_buckets_sparsest_first() {
        let mut spill = BucketSpill::new(temp_dir(), 100).unwrap();
        spill.push_row(&[1, 2, 3, 4, 5, 6, 7, 8]).unwrap(); // bucket 3
        spill.push_row(&[9]).unwrap(); // bucket 0
        spill.push_row(&[1, 2]).unwrap(); // bucket 1
        spill.push_row(&[7]).unwrap(); // bucket 0
        assert_eq!(spill.rows(), 4);

        let rows: Vec<Vec<ColumnId>> = spill.replay().unwrap().map(Result::unwrap).collect();
        assert_eq!(
            rows,
            vec![vec![9], vec![7], vec![1, 2], vec![1, 2, 3, 4, 5, 6, 7, 8]]
        );
    }

    #[test]
    fn replay_is_repeatable() {
        let mut spill = BucketSpill::new(temp_dir(), 10).unwrap();
        spill.push_row(&[0, 1]).unwrap();
        spill.push_row(&[2]).unwrap();
        let first: Vec<Vec<ColumnId>> = spill.replay().unwrap().map(Result::unwrap).collect();
        let second: Vec<Vec<ColumnId>> = spill.replay().unwrap().map(Result::unwrap).collect();
        assert_eq!(first, second);
        assert_eq!(first.len(), 2);
        let snap = spill.stats().snapshot();
        assert_eq!(snap.frames_written, 2);
        assert_eq!(snap.frames_read, 4, "two frames per replay");
        assert_eq!(snap.replays, 2);
        assert_eq!(snap.corrupt_frames, 0);
    }

    #[test]
    fn byte_count_tracks_encoded_size() {
        let mut spill = BucketSpill::new(temp_dir(), 10).unwrap();
        assert_eq!(spill.bytes(), 0);
        spill.push_row(&[0, 1, 2]).unwrap(); // 12-byte header + 3*4
        spill.push_row(&[]).unwrap(); // 12-byte header
        assert_eq!(spill.bytes(), 36);
    }

    #[test]
    fn empty_spill_replays_nothing() {
        let mut spill = BucketSpill::new(temp_dir(), 5).unwrap();
        assert_eq!(spill.replay().unwrap().count(), 0);
    }

    #[test]
    fn empty_rows_are_preserved() {
        let mut spill = BucketSpill::new(temp_dir(), 5).unwrap();
        spill.push_row(&[]).unwrap();
        spill.push_row(&[3]).unwrap();
        let rows: Vec<Vec<ColumnId>> = spill.replay().unwrap().map(Result::unwrap).collect();
        assert_eq!(rows, vec![vec![], vec![3]]);
    }

    #[test]
    fn files_are_cleaned_up_on_drop() {
        let dir = temp_dir();
        let path;
        {
            let mut spill = BucketSpill::new(&dir, 10).unwrap();
            spill.push_row(&[1]).unwrap();
            path = spill.bucket_path(0);
            let _ = spill.replay().unwrap();
            assert!(path.exists());
        }
        assert!(!path.exists(), "bucket file removed on drop");
    }

    #[test]
    fn live_replay_keeps_files_after_spill_drop() {
        let dir = temp_dir();
        let mut spill = BucketSpill::new(&dir, 10).unwrap();
        spill.push_row(&[1]).unwrap();
        spill.push_row(&[2]).unwrap();
        let path = spill.bucket_path(0);
        let mut replay = spill.replay().unwrap();
        assert_eq!(replay.next().unwrap().unwrap(), vec![1]);
        drop(spill);
        assert!(path.exists(), "replay in flight keeps the file");
        assert_eq!(replay.next().unwrap().unwrap(), vec![2]);
        drop(replay);
        assert!(!path.exists(), "last handle removes the file");
    }

    #[test]
    fn large_roundtrip() {
        let mut spill = BucketSpill::new(temp_dir(), 1000).unwrap();
        let mut expected_by_bucket: Vec<Vec<Vec<ColumnId>>> = vec![Vec::new(); 16];
        for i in 0..500u32 {
            let len = (i % 37) as usize;
            let row: Vec<ColumnId> = (0..len as u32).map(|k| k * 7 % 1000).collect();
            let mut sorted = row.clone();
            sorted.sort_unstable();
            sorted.dedup();
            spill.push_row(&sorted).unwrap();
            expected_by_bucket[density_bucket(sorted.len())].push(sorted);
        }
        let expected: Vec<Vec<ColumnId>> = expected_by_bucket.into_iter().flatten().collect();
        let rows: Vec<Vec<ColumnId>> = spill.replay().unwrap().map(Result::unwrap).collect();
        assert_eq!(rows, expected);
    }

    #[test]
    fn transient_write_fault_is_retried_transparently() {
        let (settings, io) = faulty_settings(
            FaultPlan::new().fail_write(1, true),
            RetryPolicy::standard(),
        );
        let mut spill = BucketSpill::with_settings(10, settings).unwrap();
        spill.push_row(&[0, 1]).unwrap();
        spill.push_row(&[2]).unwrap(); // second write: transient fault + retry
        let rows: Vec<Vec<ColumnId>> = spill.replay().unwrap().map(Result::unwrap).collect();
        assert_eq!(rows, vec![vec![2], vec![0, 1]]);
        let snap = spill.stats().snapshot();
        assert_eq!(snap.write_retries, 1);
        assert_eq!(snap.corrupt_frames, 0);
        assert_eq!(io.fired().len(), 1);
    }

    #[test]
    fn transient_read_fault_is_retried_transparently() {
        let (settings, _io) =
            faulty_settings(FaultPlan::new().fail_read(0, true), RetryPolicy::standard());
        let mut spill = BucketSpill::with_settings(10, settings).unwrap();
        spill.push_row(&[5]).unwrap();
        let rows: Vec<Vec<ColumnId>> = spill.replay().unwrap().map(Result::unwrap).collect();
        assert_eq!(rows, vec![vec![5]]);
        assert!(spill.stats().snapshot().read_retries >= 1);
    }

    #[test]
    fn exhausted_retries_surface_the_transient_error() {
        let (settings, _io) =
            faulty_settings(FaultPlan::new().fail_write(0, true), RetryPolicy::none());
        let mut spill = BucketSpill::with_settings(10, settings).unwrap();
        let err = spill.push_row(&[1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
    }

    #[test]
    fn permanent_write_fault_surfaces_enospc() {
        let (settings, _io) = faulty_settings(
            FaultPlan::new().fail_write(0, false),
            RetryPolicy::standard(),
        );
        let mut spill = BucketSpill::with_settings(10, settings).unwrap();
        let err = spill.push_row(&[1]).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28), "ENOSPC, not retried");
        assert_eq!(spill.stats().snapshot().write_retries, 0);
    }

    #[test]
    fn flipped_byte_is_detected_as_corrupt() {
        let (settings, _io) =
            faulty_settings(FaultPlan::new().flip_byte(0, 0x04), RetryPolicy::standard());
        let mut spill = BucketSpill::with_settings(10, settings).unwrap();
        spill.push_row(&[1, 2, 3]).unwrap();
        let results: Vec<_> = spill.replay().unwrap().collect();
        assert_eq!(results.len(), 1, "error ends the iteration");
        assert!(
            matches!(results[0], Err(SpillReadError::Corrupt { frame: 0, .. })),
            "got {results:?}"
        );
        assert_eq!(spill.stats().snapshot().corrupt_frames, 1);
    }

    #[test]
    fn torn_write_is_detected_as_corrupt() {
        let (settings, _io) =
            faulty_settings(FaultPlan::new().torn_write(1), RetryPolicy::standard());
        let mut spill = BucketSpill::with_settings(10, settings).unwrap();
        spill.push_row(&[1, 2]).unwrap();
        spill.push_row(&[3, 4]).unwrap(); // torn: only half the frame lands
        let results: Vec<_> = spill.replay().unwrap().collect();
        let errs: Vec<_> = results.iter().filter(|r| r.is_err()).collect();
        assert_eq!(errs.len(), 1, "exactly one error: {results:?}");
        assert!(matches!(errs[0], Err(SpillReadError::Corrupt { .. })));
    }

    #[test]
    fn lost_tail_is_detected_via_row_counts() {
        let (settings, _io) =
            faulty_settings(FaultPlan::new().short_read(2), RetryPolicy::standard());
        let mut spill = BucketSpill::with_settings(10, settings).unwrap();
        spill.push_row(&[1]).unwrap();
        spill.push_row(&[2]).unwrap();
        spill.push_row(&[3]).unwrap();
        let results: Vec<_> = spill.replay().unwrap().collect();
        assert!(
            results
                .iter()
                .any(|r| matches!(r, Err(SpillReadError::Corrupt { .. }))),
            "a lost tail must not pass silently: {results:?}"
        );
    }

    #[test]
    fn permanent_read_fault_preserves_kind_and_context() {
        let (settings, _io) = faulty_settings(
            FaultPlan::new().fail_read(0, false),
            RetryPolicy::standard(),
        );
        let mut spill = BucketSpill::with_settings(10, settings).unwrap();
        spill.push_row(&[1]).unwrap();
        let results: Vec<_> = spill.replay().unwrap().collect();
        match &results[0] {
            Err(SpillReadError::Io { context, error }) => {
                assert_eq!(*context, "read spill frame");
                assert_eq!(error.raw_os_error(), Some(5), "EIO preserved");
            }
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn spill_read_error_display_and_source() {
        let io_err = SpillReadError::Io {
            context: "read spill frame",
            error: io::Error::new(io::ErrorKind::Interrupted, "boom"),
        };
        assert!(io_err.to_string().contains("read spill frame"));
        assert!(std::error::Error::source(&io_err).is_some());
        let corrupt = SpillReadError::Corrupt {
            frame: 7,
            reason: "checksum mismatch",
        };
        assert!(corrupt.to_string().contains("frame 7"));
        assert!(corrupt.to_string().contains("checksum mismatch"));
        assert!(std::error::Error::source(&corrupt).is_none());
    }
}
