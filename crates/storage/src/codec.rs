//! A small self-describing binary codec for keys, values, log records, and
//! the primitive integers the cluster's wire protocol and procedure-argument
//! encoding are built from. It is the one encoding of a [`LogRecord`]: the
//! log shipper puts it on the wire and the file device on disk.
//!
//! A length-prefixed binary framing needs exact byte budgets and must
//! reject truncated or hostile input without panicking. Everything here returns
//! [`CodecError`] instead of panicking, and every variable-length field is
//! bounded by [`MAX_FIELD_LEN`] so a garbage length prefix cannot trigger a
//! huge allocation.

use crate::key::Key;
use crate::schema::TableId;
use crate::types::{Timestamp, TxnId};
use crate::value::{Row, Value};
use crate::wal::LogRecord;
use bytes::Bytes;
use std::sync::Arc;

/// Upper bound on any single variable-length field (strings, byte blobs,
/// row/field counts). Workload rows are tiny; anything past this is a
/// corrupt or hostile frame.
pub const MAX_FIELD_LEN: usize = 1 << 24;

/// Why a decode failed. Decoding never panics: a malformed buffer is a
/// protocol error the caller turns into a dropped connection or an aborted
/// transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the announced content.
    Truncated,
    /// A tag or length field held an impossible value.
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "buffer truncated"),
            CodecError::Malformed(what) => write!(f, "malformed field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Result alias for decoding.
pub type CodecResult<T> = Result<T, CodecError>;

/// An append-only byte buffer with little-endian primitive writers.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// A writer that appends behind what `buf` already holds, so several
    /// encodings can share one buffer (and one allocation).
    pub fn from_vec(buf: Vec<u8>) -> Self {
        ByteWriter { buf }
    }

    /// Finishes and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u128`.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Appends a [`Key`] (table id + packed row id).
    pub fn put_key(&mut self, key: Key) {
        self.put_u32(key.table.0);
        self.put_u128(key.row);
    }

    /// Appends a [`Value`] with a one-byte variant tag.
    pub fn put_value(&mut self, value: &Value) {
        match value {
            Value::Null => self.put_u8(0),
            Value::Int(v) => {
                self.put_u8(1);
                self.put_i64(*v);
            }
            Value::Row(fields) => {
                self.put_u8(2);
                self.put_u32(fields.len() as u32);
                for &f in fields.iter() {
                    self.put_i64(f);
                }
            }
            Value::Str(s) => {
                self.put_u8(3);
                self.put_str(s);
            }
            Value::Bytes(b) => {
                self.put_u8(4);
                self.put_bytes(b);
            }
        }
    }

    fn put_writes(&mut self, writes: &[(Key, Value)]) {
        self.put_u32(writes.len() as u32);
        for (key, value) in writes {
            self.put_key(*key);
            self.put_value(value);
        }
    }

    /// Appends a [`LogRecord`] with a one-byte variant tag — what the log
    /// shipper puts on the wire. Tag `0` belonged to the retired
    /// per-operation record and stays unassigned.
    pub fn put_log_record(&mut self, record: &LogRecord) {
        match record {
            LogRecord::Precommit {
                txn,
                gcp_epoch,
                commit_ts,
                hlc,
                writes,
            } => {
                self.put_u8(1);
                self.put_u64(txn.0);
                self.put_u64(*gcp_epoch);
                self.put_u64(commit_ts.0);
                self.put_u64(*hlc);
                self.put_writes(writes);
            }
            LogRecord::Commit {
                txn,
                global_epoch,
                commit_ts,
                hlc,
            } => {
                self.put_u8(2);
                self.put_u64(txn.0);
                self.put_u64(*global_epoch);
                self.put_u64(commit_ts.0);
                self.put_u64(*hlc);
            }
            LogRecord::EpochSeal { epoch } => {
                self.put_u8(3);
                self.put_u64(*epoch);
            }
            LogRecord::Prepare {
                txn,
                global,
                writes,
            } => {
                self.put_u8(4);
                self.put_u64(txn.0);
                self.put_u64(*global);
                self.put_writes(writes);
            }
            LogRecord::Abort { txn } => {
                self.put_u8(5);
                self.put_u64(txn.0);
            }
            LogRecord::Decision {
                global,
                commit,
                hlc,
            } => {
                self.put_u8(6);
                self.put_u64(*global);
                self.put_bool(*commit);
                self.put_u64(*hlc);
            }
        }
    }

    /// Appends `record` as one frame — a `u32` byte count, then
    /// [`put_log_record`](ByteWriter::put_log_record)'s bytes — the unit a
    /// file log holds.
    pub fn put_log_frame(&mut self, record: &LogRecord) {
        let at = self.buf.len();
        self.put_u32(0);
        self.put_log_record(record);
        let len = self.buf.len() - at - 4;
        // A frame the reader refuses would read back as a torn tail.
        assert!(len <= MAX_FIELD_LEN, "a {len}-byte log record is too large");
        self.buf[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
    }
}

/// A cursor over an encoded buffer with bounds-checked readers.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over the whole buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless every byte was consumed (trailing garbage detection).
    pub fn expect_end(&self) -> CodecResult<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Malformed("trailing bytes"))
        }
    }

    fn take(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> CodecResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> CodecResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> CodecResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> CodecResult<u128> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> CodecResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a bool byte (strictly 0 or 1).
    pub fn bool(&mut self) -> CodecResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Malformed("bool")),
        }
    }

    /// Reads a length prefix, bounded by [`MAX_FIELD_LEN`] *and* by the
    /// bytes actually remaining, so garbage lengths can neither allocate
    /// wildly nor run past the buffer.
    pub fn len_prefix(&mut self) -> CodecResult<usize> {
        let len = self.u32()? as usize;
        if len > MAX_FIELD_LEN {
            return Err(CodecError::Malformed("length prefix too large"));
        }
        Ok(len)
    }

    /// Reads a length-prefixed byte slice.
    pub fn bytes(&mut self) -> CodecResult<&'a [u8]> {
        let len = self.len_prefix()?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> CodecResult<String> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec()).map_err(|_| CodecError::Malformed("utf-8 string"))
    }

    /// Reads a [`Key`].
    pub fn key(&mut self) -> CodecResult<Key> {
        let table = TableId(self.u32()?);
        let row = self.u128()?;
        Ok(Key::new(table, row))
    }

    /// Reads a [`Value`].
    pub fn value(&mut self) -> CodecResult<Value> {
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int(self.i64()?)),
            2 => {
                let len = self.len_prefix()?;
                // Each field costs 8 bytes: bound the allocation by what the
                // buffer can actually hold.
                let raw = self.take(len * 8)?;
                Ok(Value::Row(Row::build(len, |fields| {
                    for (field, bytes) in fields.iter_mut().zip(raw.chunks_exact(8)) {
                        *field = i64::from_le_bytes(bytes.try_into().unwrap());
                    }
                })))
            }
            3 => Ok(Value::Str(Arc::from(self.str()?.as_str()))),
            4 => Ok(Value::Bytes(Bytes::from(self.bytes()?.to_vec()))),
            _ => Err(CodecError::Malformed("value tag")),
        }
    }

    fn writes(&mut self) -> CodecResult<Vec<(Key, Value)>> {
        let len = self.len_prefix()?;
        // A write costs at least a key (20 bytes) and a value tag.
        if self.remaining() < len * 21 {
            return Err(CodecError::Truncated);
        }
        let mut writes = Vec::with_capacity(len);
        for _ in 0..len {
            writes.push((self.key()?, self.value()?));
        }
        Ok(writes)
    }

    /// Reads a [`LogRecord`] written by
    /// [`put_log_record`](ByteWriter::put_log_record).
    pub fn log_record(&mut self) -> CodecResult<LogRecord> {
        Ok(match self.u8()? {
            1 => LogRecord::Precommit {
                txn: TxnId(self.u64()?),
                gcp_epoch: self.u64()?,
                commit_ts: Timestamp(self.u64()?),
                hlc: self.u64()?,
                writes: self.writes()?,
            },
            2 => LogRecord::Commit {
                txn: TxnId(self.u64()?),
                global_epoch: self.u64()?,
                commit_ts: Timestamp(self.u64()?),
                hlc: self.u64()?,
            },
            3 => LogRecord::EpochSeal { epoch: self.u64()? },
            4 => LogRecord::Prepare {
                txn: TxnId(self.u64()?),
                global: self.u64()?,
                writes: self.writes()?,
            },
            5 => LogRecord::Abort {
                txn: TxnId(self.u64()?),
            },
            6 => LogRecord::Decision {
                global: self.u64()?,
                commit: self.bool()?,
                hlc: self.u64()?,
            },
            _ => return Err(CodecError::Malformed("log record tag")),
        })
    }

    /// Reads one frame written by
    /// [`put_log_frame`](ByteWriter::put_log_frame). A frame a crash cut
    /// short is an error like any other malformed input.
    pub fn log_frame(&mut self) -> CodecResult<LogRecord> {
        let mut frame = ByteReader::new(self.bytes()?);
        let record = frame.log_record()?;
        frame.expect_end()?;
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_records_roundtrip_and_reject_truncation() {
        let writes = vec![
            (Key::simple(TableId(2), 5), Value::Int(50)),
            (Key::composite(TableId(3), &[1, 2]), Value::row(&[7, -8, 9])),
            (Key::simple(TableId(4), 0), Value::Null),
            (Key::simple(TableId(1), 3), Value::Str(Arc::from("payload"))),
        ];
        let records = [
            LogRecord::Precommit {
                txn: TxnId(9),
                gcp_epoch: 12,
                commit_ts: Timestamp(77),
                hlc: 0xABCD,
                writes: writes.clone(),
            },
            LogRecord::Commit {
                txn: TxnId(9),
                global_epoch: 12,
                commit_ts: Timestamp(77),
                hlc: 0xABCD,
            },
            LogRecord::EpochSeal { epoch: 12 },
            LogRecord::Prepare {
                txn: TxnId(10),
                global: u64::MAX,
                writes,
            },
            LogRecord::Abort { txn: TxnId(10) },
            LogRecord::Decision {
                global: 4,
                commit: true,
                hlc: 99,
            },
        ];
        for record in &records {
            let mut w = ByteWriter::new();
            w.put_log_record(record);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(&r.log_record().unwrap(), record);
            r.expect_end().unwrap();
            for cut in 0..bytes.len() {
                assert!(
                    ByteReader::new(&bytes[..cut]).log_record().is_err(),
                    "{record:?} cut at {cut}"
                );
            }
            // A file log's frame is the count, then the same bytes.
            let mut w = ByteWriter::new();
            w.put_log_frame(record);
            let frame = w.into_bytes();
            assert_eq!(frame[4..], bytes[..]);
            assert_eq!(ByteReader::new(&frame).log_frame().as_ref(), Ok(record));
            for cut in 0..frame.len() {
                assert!(ByteReader::new(&frame[..cut]).log_frame().is_err());
            }
        }
        // Garbage, and tag 0 — the retired per-operation record, never
        // reassigned — are both malformed.
        for tag in [0xEE, 0] {
            assert_eq!(
                ByteReader::new(&[tag]).log_record(),
                Err(CodecError::Malformed("log record tag"))
            );
        }
        // A hostile write count cannot make the decoder allocate for it.
        let mut w = ByteWriter::new();
        w.put_u8(4);
        w.put_u64(1);
        w.put_u64(1);
        w.put_u32(1 << 20);
        assert_eq!(
            ByteReader::new(&w.into_bytes()).log_record(),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn primitives_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 3);
        w.put_i64(-42);
        w.put_bool(true);
        w.put_str("hello");
        w.put_key(Key::composite(TableId(9), &[1, 2, 3]));
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i64().unwrap(), -42);
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(r.key().unwrap(), Key::composite(TableId(9), &[1, 2, 3]));
        r.expect_end().unwrap();
    }

    #[test]
    fn values_roundtrip() {
        let values = [
            Value::Null,
            Value::Int(-7),
            Value::row(&[1, -2, 3]),
            Value::row(&[]),
            Value::row(&[1, 2, 3, 4, 5]),
            Value::str("tebaldi"),
            Value::Bytes(Bytes::from_static(b"\x00\xff\x01")),
        ];
        for value in &values {
            let mut w = ByteWriter::new();
            w.put_value(value);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(&r.value().unwrap(), value);
            r.expect_end().unwrap();
        }
    }

    #[test]
    fn truncated_and_malformed_inputs_error_cleanly() {
        // Truncated integer.
        assert_eq!(ByteReader::new(&[1, 2]).u32(), Err(CodecError::Truncated));
        // Huge length prefix must not allocate.
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        assert!(ByteReader::new(&bytes).bytes().is_err());
        // A row claiming more fields than the buffer holds.
        let mut w = ByteWriter::new();
        w.put_u8(2);
        w.put_u32(1_000_000);
        let bytes = w.into_bytes();
        assert_eq!(ByteReader::new(&bytes).value(), Err(CodecError::Truncated));
        // Unknown value tag.
        assert!(matches!(
            ByteReader::new(&[9]).value(),
            Err(CodecError::Malformed(_))
        ));
        // Invalid UTF-8.
        let mut w = ByteWriter::new();
        w.put_bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        assert!(ByteReader::new(&bytes).str().is_err());
        // Trailing garbage.
        let r = ByteReader::new(&[0]);
        assert!(r.expect_end().is_err());
    }
}
