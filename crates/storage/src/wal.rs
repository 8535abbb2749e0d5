//! Write-ahead logging.
//!
//! Tebaldi's durability module (§4.5.4) is based on write-ahead logging and
//! two-phase commit: a *precommit log* per participating data server is
//! written when all CCs pass precommit, and a transaction is guaranteed to
//! commit once all its precommit logs are persistent.
//!
//! A shard log carries each committed write **once**: the transaction's
//! write set travels in its `Precommit` record (or, for a 2PC participant,
//! its `Prepare` record), generated at commit. This deliberately departs
//! from the paper's wording, which also has data servers write an
//! *operation log* per write during execution: recovery replays the
//! precommit's write list and never needed a per-operation record, so there
//! is none — the execution path does not touch the log, and an attempt that
//! aborts before its commit point logs nothing.
//!
//! Tebaldi does not implement its own persistent storage: it outsources
//! persistence to any key-value-ish backend. Here the backend is a
//! [`LogDevice`]: an append-only record sink with a `flush` barrier and a
//! full `read_back`. Two devices are provided: an in-memory device (for
//! tests and for the durability-off configurations) and a file device.

use crate::key::Key;
use crate::types::{Timestamp, TxnId};
use crate::value::Value;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A single log record.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub enum LogRecord {
    /// Precommit record emitted by one participating data server.
    Precommit {
        /// Committing transaction.
        txn: TxnId,
        /// Number of data servers participating in the transaction.
        participants: u32,
        /// Index of the data server that produced this record.
        shard: u32,
        /// GCP epoch the record belongs to (asynchronous flushing, §4.5.4).
        gcp_epoch: u64,
        /// Ordered writes of this transaction on this shard, used to
        /// reconstruct the latest version of each object during recovery.
        writes: Vec<(Key, Value)>,
    },
    /// Commit notification carrying the transaction's global epoch id and
    /// commit timestamp.
    Commit {
        /// Committed transaction.
        txn: TxnId,
        /// The transaction's global GCP epoch (max over participants).
        global_epoch: u64,
        /// Commit timestamp.
        commit_ts: Timestamp,
        /// Cluster-wide HLC stamp of the commit (`0` = unstamped; see
        /// `Version::hlc`). Recovery re-installs it on the recovered
        /// versions and re-bases the shard clock past the maximum seen.
        hlc: u64,
    },
    /// Marker appended when a GCP epoch has been fully flushed; records with
    /// a larger epoch are discarded by recovery after a crash.
    EpochSeal {
        /// The sealed epoch.
        epoch: u64,
    },
    /// Participant prepare record of the cluster's cross-shard two-phase
    /// commit: local transaction `txn`, acting on behalf of cluster-global
    /// transaction `global`, has passed validation and holds every resource
    /// needed to commit on demand. Always flushed synchronously — the shard
    /// may vote "yes" only once this record is durable. A prepared
    /// transaction with neither a later `Commit` nor an `Abort` record is
    /// *in doubt* and is resolved against the coordinator's decision log
    /// during recovery.
    Prepare {
        /// Local (per-shard) transaction id.
        txn: TxnId,
        /// Cluster-global transaction id assigned by the coordinator.
        global: u64,
        /// Ordered writes of the transaction on this shard.
        writes: Vec<(Key, Value)>,
    },
    /// Abort marker: resolves a `Prepare` during recovery without consulting
    /// the coordinator (and lets diagnostics distinguish an explicit abort
    /// from a crash-induced in-doubt state).
    Abort {
        /// Aborted transaction.
        txn: TxnId,
    },
    /// Coordinator-side decision record of the cross-shard two-phase
    /// commit, appended (and flushed) to the coordinator's own decision log
    /// at the commit point — before any participant is told to commit.
    /// Never appears in a shard's log; shard recovery resolves in-doubt
    /// prepares against the set of these records.
    Decision {
        /// Cluster-global transaction id.
        global: u64,
        /// `true` for commit; abort decisions may be logged for diagnostics
        /// but are implied by absence (presumed abort).
        commit: bool,
        /// The coordinator-chosen HLC decision stamp: every participant
        /// stamps its committed versions with exactly this value, which is
        /// what makes a cross-shard commit atomically visible to snapshot
        /// reads. `0` on abort decisions and reservation markers.
        hlc: u64,
    },
}

/// An append-only log backend.
pub trait LogDevice: Send + Sync {
    /// Appends a record to the device buffer (not necessarily durable yet).
    fn append(&self, record: &LogRecord);
    /// Makes all previously appended records durable.
    fn flush(&self);
    /// Reads every durable record back, in append order.
    fn read_back(&self) -> Vec<LogRecord>;
    /// Number of durable records — the watermark a log shipper follows, so
    /// devices override this with an O(1) count. The default pays a full
    /// [`read_back`](LogDevice::read_back), with whatever side effects the
    /// device's `read_back` has.
    fn durable_len(&self) -> usize {
        self.read_back().len()
    }
    /// Reads the durable records from index `from` onward, in append order
    /// — the incremental tail a log shipper follows. An index at or past
    /// the durable length yields an empty vector, never an error. Must not
    /// make anything durable that `flush` has not; the default goes through
    /// [`read_back`](LogDevice::read_back) and inherits its behaviour, so
    /// devices a shipper follows override it.
    fn read_from(&self, from: usize) -> Vec<LogRecord> {
        let mut records = self.read_back();
        if from >= records.len() {
            return Vec::new();
        }
        records.split_off(from)
    }
    /// Truncates the durable log to its first `len` records, discarding any
    /// buffered (unflushed) tail as well. Returns `false` when the device
    /// does not support truncation (the default), `true` on success — a
    /// no-op truncation (`len >= durable_len`) still counts as success.
    /// Used by replication to cut a rejoining primary's divergent suffix:
    /// records past what the surviving quorum replicated must not resurface
    /// on recovery.
    fn truncate_to(&self, _len: usize) -> bool {
        false
    }
}

/// An in-memory log device. "Durable" records survive only as long as the
/// process, which is exactly what the durability-off experiments need; a
/// simulated crash is modelled by dropping the unflushed buffer. An
/// optional flush latency emulates the write barrier of a real device
/// (an NVMe fsync is tens of microseconds), which is what makes group
/// commit measurable: only a flush that takes time lets concurrent
/// transactions pile onto the same barrier.
#[derive(Default)]
pub struct MemLogDevice {
    inner: Mutex<MemLogInner>,
    flush_latency: std::time::Duration,
}

#[derive(Default)]
struct MemLogInner {
    buffered: Vec<LogRecord>,
    durable: Vec<LogRecord>,
}

impl MemLogDevice {
    /// Creates an empty device with instantaneous flushes.
    pub fn new() -> Self {
        MemLogDevice::default()
    }

    /// Creates an empty device whose every flush blocks for `latency`
    /// (outside the buffer lock — appends proceed while a flush "waits on
    /// the hardware", exactly like a real write barrier).
    pub fn with_flush_latency(latency: std::time::Duration) -> Self {
        MemLogDevice {
            inner: Mutex::new(MemLogInner::default()),
            flush_latency: latency,
        }
    }

    /// Simulates a crash: unflushed records are lost.
    pub fn crash(&self) {
        self.inner.lock().buffered.clear();
    }
}

impl LogDevice for MemLogDevice {
    fn append(&self, record: &LogRecord) {
        self.inner.lock().buffered.push(record.clone());
    }

    fn flush(&self) {
        if !self.flush_latency.is_zero() {
            // Spin rather than sleep: OS sleep granularity (~50µs+) would
            // distort the tens-of-microseconds barriers being modelled.
            let start = std::time::Instant::now();
            while start.elapsed() < self.flush_latency {
                std::hint::spin_loop();
            }
        }
        let mut inner = self.inner.lock();
        let buffered = std::mem::take(&mut inner.buffered);
        inner.durable.extend(buffered);
    }

    fn read_back(&self) -> Vec<LogRecord> {
        self.inner.lock().durable.clone()
    }

    fn durable_len(&self) -> usize {
        self.inner.lock().durable.len()
    }

    fn read_from(&self, from: usize) -> Vec<LogRecord> {
        let inner = self.inner.lock();
        match inner.durable.get(from..) {
            Some(tail) => tail.to_vec(),
            None => Vec::new(),
        }
    }

    fn truncate_to(&self, len: usize) -> bool {
        let mut inner = self.inner.lock();
        inner.durable.truncate(len);
        inner.buffered.clear();
        true
    }
}

/// A file-backed log device writing one JSON record per line.
///
/// The device keeps a byte-offset index of the records it holds and the
/// count `flush` last made durable, so a log shipper following it pays
/// O(1) for [`durable_len`](LogDevice::durable_len) and reads only the
/// tail it asks for — and, unlike [`read_back`](LogDevice::read_back),
/// neither accessor flushes: a reader never moves the durable prefix.
pub struct FileLogDevice {
    inner: Mutex<FileLogInner>,
    /// Records durable as of the last `flush` (or found at `open`).
    durable: AtomicUsize,
    path: std::path::PathBuf,
}

struct FileLogInner {
    writer: BufWriter<File>,
    /// `offsets[i]` is the byte offset where record `i`'s line starts; the
    /// final entry is the end of everything appended so far.
    offsets: Vec<u64>,
}

/// Parses the records of a one-JSON-record-per-line stream, skipping blank
/// and unparsable (torn) lines.
fn parse_lines(reader: impl Read) -> Vec<LogRecord> {
    BufReader::new(reader)
        .lines()
        .map_while(Result::ok)
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| serde_json::from_str(&l).ok())
        .collect()
}

impl FileLogDevice {
    /// Opens (or creates) the log file at `path`, appending to existing
    /// content. Records already in the file count as durable.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&path)?;
        // Index what is already there with the same filter `read_back`
        // applies, so record indices agree between the two.
        let mut offsets = Vec::new();
        let mut at = 0u64;
        let mut existing = BufReader::new(File::open(&path)?);
        let mut line = String::new();
        loop {
            line.clear();
            let n = existing.read_line(&mut line)?;
            if n == 0 {
                break;
            }
            if !line.trim().is_empty() && serde_json::from_str::<LogRecord>(&line).is_ok() {
                offsets.push(at);
            }
            at += n as u64;
        }
        offsets.push(at);
        Ok(FileLogDevice {
            durable: AtomicUsize::new(offsets.len() - 1),
            inner: Mutex::new(FileLogInner {
                writer: BufWriter::new(file),
                offsets,
            }),
            path,
        })
    }
}

impl LogDevice for FileLogDevice {
    fn append(&self, record: &LogRecord) {
        let mut inner = self.inner.lock();
        let line = serde_json::to_string(record).expect("log records serialize");
        writeln!(inner.writer, "{line}").expect("log append");
        let end = inner.offsets.last().expect("offsets hold the end") + line.len() as u64 + 1;
        inner.offsets.push(end);
    }

    fn flush(&self) {
        let mut inner = self.inner.lock();
        inner.writer.flush().expect("log flush");
        inner.writer.get_ref().sync_data().ok();
        self.durable
            .store(inner.offsets.len() - 1, Ordering::Release);
    }

    fn read_back(&self) -> Vec<LogRecord> {
        // Ensure buffered data is visible to the reader.
        self.flush();
        match File::open(&self.path) {
            Ok(file) => parse_lines(file),
            Err(_) => Vec::new(),
        }
    }

    fn durable_len(&self) -> usize {
        self.durable.load(Ordering::Acquire)
    }

    fn read_from(&self, from: usize) -> Vec<LogRecord> {
        // The byte range of records `from..durable`: everything in it was
        // written out by the flush that advanced `durable`, and nothing
        // below `from` is read, let alone parsed.
        let (start, end) = {
            let inner = self.inner.lock();
            let durable = self.durable.load(Ordering::Acquire);
            if from >= durable {
                return Vec::new();
            }
            (inner.offsets[from], inner.offsets[durable])
        };
        let Ok(mut file) = File::open(&self.path) else {
            return Vec::new();
        };
        if file.seek(SeekFrom::Start(start)).is_err() {
            return Vec::new();
        }
        parse_lines(file.take(end - start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableId;

    /// A one-write record to fill a device with.
    fn rec(txn: u64, id: u64) -> LogRecord {
        LogRecord::Prepare {
            txn: TxnId(txn),
            global: 0,
            writes: vec![(Key::simple(TableId(0), id), Value::Int(id as i64))],
        }
    }

    #[test]
    fn mem_device_flush_and_crash() {
        let dev = MemLogDevice::new();
        dev.append(&rec(1, 1));
        dev.append(&rec(1, 2));
        assert_eq!(dev.read_back().len(), 0);
        dev.flush();
        assert_eq!(dev.read_back().len(), 2);
        dev.append(&rec(2, 3));
        dev.crash();
        assert_eq!(dev.read_back().len(), 2, "unflushed records are lost");
    }

    #[test]
    fn mem_device_incremental_read_and_truncate() {
        let dev = MemLogDevice::new();
        for i in 0..5 {
            dev.append(&rec(1, i));
        }
        dev.flush();
        assert_eq!(dev.durable_len(), 5);
        assert_eq!(dev.read_from(0).len(), 5);
        assert_eq!(dev.read_from(3), vec![rec(1, 3), rec(1, 4)]);
        assert_eq!(dev.read_from(5), Vec::new());
        assert_eq!(dev.read_from(99), Vec::new());
        // Truncation cuts the durable suffix and any buffered tail.
        dev.append(&rec(2, 9));
        assert!(dev.truncate_to(2));
        assert_eq!(dev.read_back(), vec![rec(1, 0), rec(1, 1)]);
        dev.flush();
        assert_eq!(dev.durable_len(), 2, "buffered tail was discarded too");
        // No-op truncation past the end still succeeds.
        assert!(dev.truncate_to(10));
        assert_eq!(dev.durable_len(), 2);
    }

    #[test]
    fn file_device_roundtrip() {
        let dir = std::env::temp_dir().join(format!("tebaldi-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        let dev = FileLogDevice::open(&path).unwrap();
        dev.append(&rec(1, 1));
        dev.append(&LogRecord::Commit {
            txn: TxnId(1),
            global_epoch: 3,
            commit_ts: Timestamp(7),
            hlc: 0,
        });
        dev.flush();
        let records = dev.read_back();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], rec(1, 1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_device_tail_reads_never_flush() {
        let dir = std::env::temp_dir().join(format!("tebaldi-wal-tail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        let dev = FileLogDevice::open(&path).unwrap();
        for i in 0..3 {
            dev.append(&rec(1, i));
        }
        dev.flush();
        dev.append(&rec(2, 3));
        dev.append(&rec(2, 4));
        // Neither accessor moves the durable prefix, however often asked.
        for _ in 0..3 {
            assert_eq!(dev.durable_len(), 3);
            assert_eq!(dev.read_from(0), vec![rec(1, 0), rec(1, 1), rec(1, 2)]);
            assert_eq!(dev.read_from(2), vec![rec(1, 2)]);
            assert_eq!(dev.read_from(3), Vec::new());
            assert_eq!(dev.read_from(99), Vec::new());
        }
        dev.flush();
        assert_eq!(dev.durable_len(), 5);
        assert_eq!(dev.read_from(3), vec![rec(2, 3), rec(2, 4)]);
        drop(dev);
        // Reopening indexes what the file holds: indices keep their meaning.
        let dev = FileLogDevice::open(&path).unwrap();
        assert_eq!(dev.durable_len(), 5);
        dev.append(&rec(3, 5));
        assert_eq!(dev.read_from(4), vec![rec(2, 4)]);
        dev.flush();
        assert_eq!(dev.read_from(4), vec![rec(2, 4), rec(3, 5)]);
        assert_eq!(dev.read_back().len(), 6);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn precommit_record_roundtrip_serde() {
        let rec = LogRecord::Precommit {
            txn: TxnId(9),
            participants: 3,
            shard: 1,
            gcp_epoch: 12,
            writes: vec![(Key::simple(TableId(2), 5), Value::Int(50))],
        };
        let s = serde_json::to_string(&rec).unwrap();
        let back: LogRecord = serde_json::from_str(&s).unwrap();
        assert_eq!(rec, back);
    }
}
