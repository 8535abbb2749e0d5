//! Write-ahead logging.
//!
//! Tebaldi's durability module (§4.5.4) is based on write-ahead logging and
//! two-phase commit: a *precommit log* per participating data server is
//! written when all CCs pass precommit, and a transaction is guaranteed to
//! commit once all its precommit logs are persistent.
//!
//! Here a `Database` is one data server, and a transaction spanning several
//! is the cluster's `Prepare` / `Decision` two-phase commit. So a local
//! commit is **one** record: its `Precommit` carries the write set and the
//! commit stamp, and a crash keeps it whole or not at all. A 2PC
//! participant logs its write set in a `Prepare` record, and its decision
//! adds a `Commit` or an `Abort`. This departs from the paper's wording,
//! which also has data servers write an *operation log* per write during
//! execution: recovery replays the write lists and never needed a
//! per-operation record, so there is none — the execution path does not
//! touch the log, and an attempt that aborts before its commit point logs
//! nothing.
//!
//! Tebaldi does not implement its own persistent storage: it outsources
//! persistence to any key-value-ish backend. Here the backend is a
//! [`LogDevice`]: an append-only record sink with a `flush` barrier and a
//! full `read_back`. Two devices are provided: an in-memory device (for
//! tests and for the durability-off configurations) and a file device.

use crate::codec::{ByteReader, ByteWriter};
use crate::key::Key;
use crate::types::{Timestamp, TxnId};
use crate::value::Value;
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A single log record.
#[derive(Clone, Debug, PartialEq)]
pub enum LogRecord {
    /// A whole local commit: the transaction's writes and its commit stamp.
    Precommit {
        /// Committing transaction.
        txn: TxnId,
        /// GCP epoch the record belongs to (asynchronous flushing, §4.5.4);
        /// `0` under synchronous flushing, which recovery never discards.
        gcp_epoch: u64,
        /// Commit timestamp.
        commit_ts: Timestamp,
        /// Cluster-wide HLC stamp of the commit (`0` = unstamped; see
        /// `Version::hlc`). Recovery re-installs it on the recovered
        /// versions and re-bases the shard clock past the maximum seen.
        hlc: u64,
        /// Each key the transaction wrote, once, with the value it commits.
        writes: Vec<(Key, Value)>,
    },
    /// The commit decision of a `Prepare`d transaction, whose writes the
    /// `Prepare` record already carries.
    Commit {
        /// Committed transaction.
        txn: TxnId,
        /// The GCP epoch current when the decision was logged. Recovery
        /// replays a decided prepare whatever this epoch is.
        global_epoch: u64,
        /// Commit timestamp.
        commit_ts: Timestamp,
        /// The coordinator's HLC decision stamp (`0` = unstamped).
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

/// A file-backed log device. Each record is one length-prefixed frame of
/// the binary codec ([`ByteWriter::put_log_frame`]) — the encoding a log
/// shipper puts on the wire.
///
/// The device keeps a byte-offset index of the records it holds and the
/// count `flush` last made durable, so a log shipper following it pays
/// O(1) for [`durable_len`](LogDevice::durable_len) and reads only the
/// tail it asks for. No reader flushes: only `flush` moves the durable
/// prefix.
pub struct FileLogDevice {
    inner: Mutex<FileLogInner>,
    /// Records durable as of the last `flush` (or found at `open`).
    durable: AtomicUsize,
    path: std::path::PathBuf,
}

struct FileLogInner {
    writer: BufWriter<File>,
    /// `offsets[i]` is the byte offset where record `i`'s frame starts; the
    /// final entry is the end of everything appended so far.
    offsets: Vec<u64>,
}

/// The whole frames at the head of `bytes`, each with the offset it ends
/// at. The first torn or unreadable frame ends the log.
fn frames(bytes: &[u8]) -> impl Iterator<Item = (u64, LogRecord)> + '_ {
    let mut reader = ByteReader::new(bytes);
    std::iter::from_fn(move || {
        let record = reader.log_frame().ok()?;
        Some(((bytes.len() - reader.remaining()) as u64, record))
    })
}

impl FileLogDevice {
    /// Opens (or creates) the log file at `path`, appending to existing
    /// content. Records already in the file count as durable; a torn frame
    /// at its end (a crash mid-append) is cut off, so the next record
    /// starts where the last whole one ends.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut offsets = vec![0];
        offsets.extend(frames(&bytes).map(|(end, _)| end));
        file.set_len(*offsets.last().expect("offsets hold the end"))?;
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
        let mut frame = ByteWriter::new();
        frame.put_log_frame(record);
        let frame = frame.into_bytes();
        let mut inner = self.inner.lock();
        inner.writer.write_all(&frame).expect("log append");
        let end = inner.offsets.last().expect("offsets hold the end") + frame.len() as u64;
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
        self.read_from(0)
    }

    fn durable_len(&self) -> usize {
        self.durable.load(Ordering::Acquire)
    }

    fn read_from(&self, from: usize) -> Vec<LogRecord> {
        // The byte range of records `from..durable`: everything in it was
        // written out by the flush that advanced `durable`, and nothing
        // below `from` is read, let alone decoded.
        let (start, end) = {
            let inner = self.inner.lock();
            let durable = self.durable.load(Ordering::Acquire);
            if from >= durable {
                return Vec::new();
            }
            (inner.offsets[from], inner.offsets[durable])
        };
        let mut bytes = vec![0; (end - start) as usize];
        let read = File::open(&self.path).and_then(|mut file| {
            file.seek(SeekFrom::Start(start))?;
            file.read_exact(&mut bytes)
        });
        if read.is_err() {
            return Vec::new();
        }
        frames(&bytes).map(|(_, record)| record).collect()
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

    /// A fresh log file path for one test.
    fn log_path(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tebaldi-wal-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        path
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
        let path = log_path("roundtrip");
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
        let path = log_path("tail");
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
    fn file_device_cuts_a_torn_tail_before_appending() {
        let path = log_path("torn");
        let dev = FileLogDevice::open(&path).unwrap();
        dev.append(&rec(1, 1));
        dev.flush();
        let whole = std::fs::metadata(&path).unwrap().len();
        dev.append(&rec(2, 2));
        dev.flush();
        drop(dev);
        // A crash in the middle of the second append leaves half of it.
        let torn = whole + (std::fs::metadata(&path).unwrap().len() - whole) / 2;
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(torn).unwrap();
        drop(file);

        let dev = FileLogDevice::open(&path).unwrap();
        assert_eq!(dev.durable_len(), 1, "the torn record is not a record");
        dev.append(&rec(3, 3));
        dev.flush();
        assert_eq!(dev.durable_len(), 2);
        assert_eq!(dev.read_from(1), vec![rec(3, 3)]);
        assert_eq!(
            dev.read_back(),
            vec![rec(1, 1), rec(3, 3)],
            "what recovery reads"
        );
        drop(dev);
        let dev = FileLogDevice::open(&path).unwrap();
        assert_eq!(dev.durable_len(), 2);
        assert_eq!(dev.read_back(), vec![rec(1, 1), rec(3, 3)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_device_read_back_holds_only_flushed_records() {
        let path = log_path("read-back");
        let dev = FileLogDevice::open(&path).unwrap();
        dev.append(&rec(1, 1));
        dev.flush();
        dev.append(&rec(2, 2));
        for _ in 0..2 {
            assert_eq!(dev.read_back(), vec![rec(1, 1)], "appended, not flushed");
            assert_eq!(dev.durable_len(), 1);
        }
        dev.flush();
        assert_eq!(dev.read_back(), vec![rec(1, 1), rec(2, 2)]);
        let _ = std::fs::remove_file(&path);
    }
}
