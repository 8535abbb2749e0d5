//! Binary wire format for the shard-RPC API.
//!
//! A message is a *frame*: a little-endian `u32` payload length followed by
//! the payload. Payloads carry a `u64` request id (the client multiplexes
//! many in-flight requests over one connection and matches replies by id),
//! the sender's `u64` HLC reading (every frame carries a clock sample in
//! both directions; the receiver merges it, which is what keeps the
//! cluster's hybrid logical clocks within one message delay of each other),
//! and an encoded [`ShardRequest`] or [`ShardResult`](crate::api::ShardResult).
//!
//! Decoding is total: truncated, oversized, or garbage input yields a
//! [`CodecError`], never a panic — the server answers by dropping the
//! connection, the client by failing the affected tickets with a clean
//! `CcError::Internal` (which aborts the transaction that was waiting).

use crate::api::{ShardRequest, ShardResponse};
use crate::worker::Vote;
use std::io::{Read, Write};
use std::net::TcpStream;
use tebaldi_cc::{CcError, Reason, WaitLabel};
use tebaldi_core::{ProcId, ProcedureCall};
use tebaldi_obs::{HistogramSnapshot, MetricsSnapshot, TraceCtx};
use tebaldi_storage::codec::{ByteReader, ByteWriter, CodecError, CodecResult};
use tebaldi_storage::TxnId;

/// Upper bound on one frame's payload. Workload requests are tiny (ids +
/// argument buffers); anything past this is corrupt or hostile and drops
/// the connection.
pub const MAX_FRAME_LEN: usize = 16 << 20;

// ---------------------------------------------------------------------------
// CcError codec
// ---------------------------------------------------------------------------

// An abort's cause travels as tag bytes: the variant, then a `Timeout`'s
// label or a `Conflict`'s reason by its place in `WaitLabel::ALL` /
// `Reason::ALL`. A byte no variant owns is `CodecError::Malformed`. A
// `Conflict`'s winner follows its reason as an optional `u64`: a presence
// byte, then the id when present.

fn put_cc_error(w: &mut ByteWriter, err: &CcError) {
    match err {
        CcError::Timeout(label) => {
            w.put_u8(0);
            w.put_u8(label.index() as u8);
        }
        CcError::Conflict { reason, winner } => {
            w.put_u8(1);
            w.put_u8(*reason as u8);
            w.put_bool(winner.is_some());
            if let Some(winner) = winner {
                w.put_u64(winner.0);
            }
        }
        CcError::DependencyAborted => w.put_u8(2),
        CcError::Requested => w.put_u8(3),
        CcError::Internal(msg) => {
            w.put_u8(4);
            w.put_str(msg);
        }
        CcError::Unreachable {
            target,
            maybe_delivered,
        } => {
            w.put_u8(5);
            w.put_str(target);
            w.put_u8(u8::from(*maybe_delivered));
        }
    }
}

fn get_cc_error(r: &mut ByteReader<'_>) -> CodecResult<CcError> {
    Ok(match r.u8()? {
        0 => CcError::Timeout(tagged(&WaitLabel::ALL, r.u8()?, "wait label")?),
        1 => CcError::Conflict {
            reason: tagged(&Reason::ALL, r.u8()?, "conflict reason")?,
            winner: if r.bool()? {
                Some(TxnId(r.u64()?))
            } else {
                None
            },
        },
        2 => CcError::DependencyAborted,
        3 => CcError::Requested,
        4 => CcError::Internal(r.str()?),
        5 => CcError::Unreachable {
            target: r.str()?,
            maybe_delivered: r.u8()? != 0,
        },
        _ => return Err(CodecError::Malformed("error tag")),
    })
}

/// The entry of `all` that tag byte `tag` names.
fn tagged<T: Copy>(all: &[T], tag: u8, what: &'static str) -> CodecResult<T> {
    all.get(usize::from(tag))
        .copied()
        .ok_or(CodecError::Malformed(what))
}

// ---------------------------------------------------------------------------
// ProcedureCall codec
// ---------------------------------------------------------------------------

fn put_call(w: &mut ByteWriter, call: &ProcedureCall) {
    w.put_u32(call.ty.0);
    w.put_u64(call.instance_seed);
    w.put_u32(call.promised_keys.len() as u32);
    for &key in &call.promised_keys {
        w.put_key(key);
    }
}

fn get_call(r: &mut ByteReader<'_>) -> CodecResult<ProcedureCall> {
    let ty = tebaldi_storage::TxnTypeId(r.u32()?);
    let instance_seed = r.u64()?;
    let n = r.len_prefix()?;
    if r.remaining() < n * 20 {
        // A key costs 20 bytes; reject impossible counts before allocating.
        return Err(CodecError::Truncated);
    }
    let mut promised_keys = Vec::with_capacity(n);
    for _ in 0..n {
        promised_keys.push(r.key()?);
    }
    Ok(ProcedureCall {
        ty,
        instance_seed,
        promised_keys,
    })
}

// ---------------------------------------------------------------------------
// Metrics-snapshot codec
// ---------------------------------------------------------------------------

fn put_histogram(w: &mut ByteWriter, h: &HistogramSnapshot) {
    w.put_u64(h.count);
    w.put_u64(h.sum);
    w.put_u64(h.max);
    w.put_u32(h.buckets.len() as u32);
    for &(index, count) in &h.buckets {
        w.put_u32(index);
        w.put_u64(count);
    }
}

fn get_histogram(r: &mut ByteReader<'_>) -> CodecResult<HistogramSnapshot> {
    let count = r.u64()?;
    let sum = r.u64()?;
    let max = r.u64()?;
    let n = r.len_prefix()?;
    if r.remaining() < n * 12 {
        // A bucket costs 12 bytes; reject impossible counts before allocating.
        return Err(CodecError::Truncated);
    }
    let mut buckets = Vec::with_capacity(n);
    for _ in 0..n {
        buckets.push((r.u32()?, r.u64()?));
    }
    Ok(HistogramSnapshot {
        count,
        sum,
        max,
        buckets,
    })
}

fn put_metrics(w: &mut ByteWriter, m: &MetricsSnapshot) {
    w.put_u32(m.counters.len() as u32);
    for (name, value) in &m.counters {
        w.put_str(name);
        w.put_u64(*value);
    }
    w.put_u32(m.gauges.len() as u32);
    for (name, value) in &m.gauges {
        w.put_str(name);
        w.put_u64(*value);
    }
    w.put_u32(m.histograms.len() as u32);
    for (name, h) in &m.histograms {
        w.put_str(name);
        put_histogram(w, h);
    }
}

fn get_metrics(r: &mut ByteReader<'_>) -> CodecResult<MetricsSnapshot> {
    // Minimum entry sizes (length-prefixed name + fixed fields) bound the
    // pre-allocation against hostile length prefixes.
    fn entries<T>(
        r: &mut ByteReader<'_>,
        min_entry: usize,
        read: impl Fn(&mut ByteReader<'_>) -> CodecResult<T>,
    ) -> CodecResult<Vec<T>> {
        let n = r.len_prefix()?;
        if r.remaining() < n * min_entry {
            return Err(CodecError::Truncated);
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(read(r)?);
        }
        Ok(out)
    }
    let counters = entries(r, 12, |r| Ok((r.str()?, r.u64()?)))?;
    let gauges = entries(r, 12, |r| Ok((r.str()?, r.u64()?)))?;
    let histograms = entries(r, 32, |r| Ok((r.str()?, get_histogram(r)?)))?;
    Ok(MetricsSnapshot {
        counters,
        gauges,
        histograms,
    })
}

// ---------------------------------------------------------------------------
// Request / response codecs
// ---------------------------------------------------------------------------

/// Encodes a request payload (without the frame length prefix). `hlc` is
/// the sender's clock reading at send time, merged into the receiving
/// shard's clock before the request is dispatched.
///
/// Request tags 3 and 5 and response tag 3 belonged to retired variants
/// (a one-phase flavor of `Commit`, and a stats admin request/reply); they
/// stay unassigned — never renumber the others — and decode to
/// [`CodecError::Malformed`].
pub fn encode_request(req_id: u64, hlc: u64, request: &ShardRequest) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_request(&mut w, req_id, hlc, request);
    w.into_bytes()
}

/// Appends one whole request frame — length prefix and
/// [`encode_request`] payload — to `buf`.
pub(crate) fn append_request_frame(
    buf: &mut Vec<u8>,
    req_id: u64,
    hlc: u64,
    request: &ShardRequest,
) {
    append_frame(buf, |w| put_request(w, req_id, hlc, request));
}

fn put_request(w: &mut ByteWriter, req_id: u64, hlc: u64, request: &ShardRequest) {
    w.put_u64(req_id);
    w.put_u64(hlc);
    match request {
        ShardRequest::Execute {
            proc,
            call,
            args,
            max_attempts,
            trace,
        } => {
            w.put_u8(0);
            w.put_u32(proc.0);
            put_call(w, call);
            w.put_bytes(args);
            w.put_u32(*max_attempts);
            w.put_u64(trace.trace_id);
        }
        ShardRequest::Prepare {
            global,
            proc,
            call,
            args,
            trace,
        } => {
            w.put_u8(1);
            w.put_u64(*global);
            w.put_u32(proc.0);
            put_call(w, call);
            w.put_bytes(args);
            w.put_u64(trace.trace_id);
        }
        ShardRequest::Commit { global, hlc } => {
            w.put_u8(2);
            w.put_u64(*global);
            w.put_u64(*hlc);
        }
        ShardRequest::Abort { global } => {
            w.put_u8(4);
            w.put_u64(*global);
        }
        ShardRequest::Flush => w.put_u8(6),
        ShardRequest::Metrics => w.put_u8(7),
        ShardRequest::SnapshotRead {
            snapshot,
            wait_ms,
            keys,
        } => {
            w.put_u8(8);
            w.put_u64(*snapshot);
            w.put_u64(*wait_ms);
            w.put_u32(keys.len() as u32);
            for &key in keys {
                w.put_key(key);
            }
        }
    }
}

/// Decodes a request payload into `(req_id, sender_hlc, request)`.
pub fn decode_request(payload: &[u8]) -> CodecResult<(u64, u64, ShardRequest)> {
    let mut r = ByteReader::new(payload);
    let req_id = r.u64()?;
    let hlc = r.u64()?;
    let request = match r.u8()? {
        0 => ShardRequest::Execute {
            proc: ProcId(r.u32()?),
            call: get_call(&mut r)?,
            args: r.bytes()?.to_vec(),
            max_attempts: r.u32()?,
            trace: TraceCtx { trace_id: r.u64()? },
        },
        1 => ShardRequest::Prepare {
            global: r.u64()?,
            proc: ProcId(r.u32()?),
            call: get_call(&mut r)?,
            args: r.bytes()?.to_vec(),
            trace: TraceCtx { trace_id: r.u64()? },
        },
        2 => ShardRequest::Commit {
            global: r.u64()?,
            hlc: r.u64()?,
        },
        4 => ShardRequest::Abort { global: r.u64()? },
        6 => ShardRequest::Flush,
        7 => ShardRequest::Metrics,
        8 => {
            let snapshot = r.u64()?;
            let wait_ms = r.u64()?;
            let n = r.len_prefix()?;
            if r.remaining() < n * 20 {
                // A key costs 20 bytes; reject impossible counts first.
                return Err(CodecError::Truncated);
            }
            let mut keys = Vec::with_capacity(n);
            for _ in 0..n {
                keys.push(r.key()?);
            }
            ShardRequest::SnapshotRead {
                snapshot,
                wait_ms,
                keys,
            }
        }
        _ => return Err(CodecError::Malformed("request tag")),
    };
    r.expect_end()?;
    Ok((req_id, hlc, request))
}

/// Encodes a result payload (without the frame length prefix). `hlc` is
/// the shard's clock reading at reply time, merged into the client's clock
/// on receive.
pub fn encode_result(req_id: u64, hlc: u64, result: &Result<ShardResponse, CcError>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_result(&mut w, req_id, hlc, result);
    w.into_bytes()
}

/// Appends one whole reply frame — length prefix and [`encode_result`]
/// payload — to `buf`.
pub(crate) fn append_result_frame(
    buf: &mut Vec<u8>,
    req_id: u64,
    hlc: u64,
    result: &Result<ShardResponse, CcError>,
) {
    append_frame(buf, |w| put_result(w, req_id, hlc, result));
}

fn put_result(w: &mut ByteWriter, req_id: u64, hlc: u64, result: &Result<ShardResponse, CcError>) {
    w.put_u64(req_id);
    w.put_u64(hlc);
    match result {
        Ok(response) => {
            w.put_u8(0);
            match response {
                ShardResponse::Executed { value, aborts } => {
                    w.put_u8(0);
                    w.put_value(value);
                    w.put_u32(*aborts);
                }
                ShardResponse::Prepared { value, vote, hlc } => {
                    w.put_u8(1);
                    w.put_value(value);
                    w.put_u8(match vote {
                        Vote::ReadOnly => 0,
                        Vote::ReadWrite => 1,
                    });
                    w.put_u64(*hlc);
                }
                ShardResponse::Decided => w.put_u8(2),
                ShardResponse::Flushed => w.put_u8(4),
                ShardResponse::Metrics(snapshot) => {
                    w.put_u8(5);
                    put_metrics(w, snapshot);
                }
                ShardResponse::Snapshot { values, hlc } => {
                    w.put_u8(6);
                    w.put_u32(values.len() as u32);
                    for value in values {
                        w.put_value(value);
                    }
                    w.put_u64(*hlc);
                }
            }
        }
        Err(err) => {
            w.put_u8(1);
            put_cc_error(w, err);
        }
    }
}

/// Decodes a result payload into `(req_id, shard_hlc, result)`.
pub fn decode_result(payload: &[u8]) -> CodecResult<(u64, u64, Result<ShardResponse, CcError>)> {
    let mut r = ByteReader::new(payload);
    let req_id = r.u64()?;
    let hlc = r.u64()?;
    let result = match r.u8()? {
        0 => Ok(match r.u8()? {
            0 => ShardResponse::Executed {
                value: r.value()?,
                aborts: r.u32()?,
            },
            1 => ShardResponse::Prepared {
                value: r.value()?,
                vote: match r.u8()? {
                    0 => Vote::ReadOnly,
                    1 => Vote::ReadWrite,
                    _ => return Err(CodecError::Malformed("vote tag")),
                },
                hlc: r.u64()?,
            },
            2 => ShardResponse::Decided,
            4 => ShardResponse::Flushed,
            5 => ShardResponse::Metrics(Box::new(get_metrics(&mut r)?)),
            6 => {
                let n = r.len_prefix()?;
                if r.remaining() < n {
                    // A value costs at least 1 byte (its tag).
                    return Err(CodecError::Truncated);
                }
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(r.value()?);
                }
                ShardResponse::Snapshot {
                    values,
                    hlc: r.u64()?,
                }
            }
            _ => return Err(CodecError::Malformed("response tag")),
        }),
        1 => Err(get_cc_error(&mut r)?),
        _ => return Err(CodecError::Malformed("result tag")),
    };
    r.expect_end()?;
    Ok((req_id, hlc, result))
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Socket tuning applied at every end of every cluster connection (shard
/// RPC and WAL shipping alike). Frames are small and each one is somebody's
/// reply: with Nagle on, a frame written while an earlier one is unacked
/// sits in the kernel until the peer's delayed-ACK timer (40 ms) fires.
/// Writers batch in user space instead — one `write` per burst of frames.
pub(crate) fn tune(stream: &TcpStream) {
    stream.set_nodelay(true).ok();
}

/// Appends one frame to `buf`: reserves the length prefix, lets `encode`
/// write the payload behind it, then fills the length in place — so a
/// burst of frames shares one buffer and goes out in one `write`.
pub(crate) fn append_frame<R>(buf: &mut Vec<u8>, encode: impl FnOnce(&mut ByteWriter) -> R) -> R {
    let at = buf.len();
    let mut w = ByteWriter::from_vec(std::mem::take(buf));
    w.put_u32(0);
    let encoded = encode(&mut w);
    *buf = w.into_bytes();
    let len = buf.len() - at - 4;
    debug_assert!(len <= MAX_FRAME_LEN);
    buf[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
    encoded
}

/// Writes one length-prefixed frame. Returns the bytes put on the wire.
/// The one-shot form: connection loops build bursts with
/// `append_request_frame`/`append_result_frame` instead.
pub fn write_frame(stream: &mut impl Write, payload: &[u8]) -> std::io::Result<usize> {
    debug_assert!(payload.len() <= MAX_FRAME_LEN);
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    stream.write_all(&frame)?;
    Ok(frame.len())
}

fn oversized(len: usize) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("frame length {len} exceeds the {MAX_FRAME_LEN}-byte limit"),
    )
}

/// Reads one length-prefixed frame. `Ok(None)` means the peer closed the
/// connection cleanly at a frame boundary; an oversized length prefix is a
/// protocol error. The one-shot form (two `read`s and one allocation per
/// frame): connection loops read through a `FrameReader` instead.
pub fn read_frame(stream: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match stream.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(err) if err.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(err) => return Err(err),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(oversized(len));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// A buffered frame reader for a connection loop: one `read` pulls in
/// however many frames the peer's burst carried, and each is handed out as
/// a slice of the buffer — no per-frame syscall pair, no per-frame
/// allocation. Same contract as [`read_frame`]: `Ok(None)` on a clean close
/// at a frame boundary, an error on a close mid-frame or an oversized
/// length prefix.
pub(crate) struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
    /// `buf[start..end]` holds bytes read and not yet handed out.
    start: usize,
    end: usize,
}

/// Initial buffer: several bursts of workload-sized frames.
const FRAME_READER_CAPACITY: usize = 16 << 10;

impl<R: Read> FrameReader<R> {
    /// Wraps `inner` with an empty buffer.
    pub(crate) fn new(inner: R) -> Self {
        FrameReader {
            inner,
            buf: vec![0; FRAME_READER_CAPACITY],
            start: 0,
            end: 0,
        }
    }

    /// The wrapped reader (a connection loop shuts its socket down
    /// through this).
    pub(crate) fn get_ref(&self) -> &R {
        &self.inner
    }

    /// The next frame's payload, reading more only when the buffer does
    /// not already hold a whole frame.
    pub(crate) fn next_frame(&mut self) -> std::io::Result<Option<&[u8]>> {
        let mut need = 4;
        loop {
            let have = self.end - self.start;
            if have >= 4 {
                let prefix = &self.buf[self.start..self.start + 4];
                let len = u32::from_le_bytes(prefix.try_into().expect("4-byte slice")) as usize;
                if len > MAX_FRAME_LEN {
                    return Err(oversized(len));
                }
                need = 4 + len;
                if have >= need {
                    let payload = self.start + 4..self.start + need;
                    self.start += need;
                    return Ok(Some(&self.buf[payload]));
                }
            }
            // Make room for the rest of this frame behind what is held.
            if self.start + need > self.buf.len() {
                self.buf.copy_within(self.start..self.end, 0);
                self.end = have;
                self.start = 0;
                if need > self.buf.len() {
                    self.buf.resize(need, 0);
                }
            }
            match self.inner.read(&mut self.buf[self.end..]) {
                Ok(0) if have == 0 => return Ok(None),
                Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.end += n,
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
                Err(err) => return Err(err),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tebaldi_cc::CcKind;
    use tebaldi_storage::{Key, TableId, TxnTypeId, Value};

    fn sample_call() -> ProcedureCall {
        ProcedureCall::new(TxnTypeId(3))
            .with_instance_seed(99)
            .with_promises(vec![Key::composite(TableId(1), &[4, 5])])
    }

    #[test]
    fn requests_roundtrip() {
        let requests = [
            ShardRequest::Execute {
                proc: ProcId(7),
                call: sample_call(),
                args: vec![1, 2, 3],
                max_attempts: 20,
                trace: TraceCtx::sampled(0xDEAD_BEEF),
            },
            ShardRequest::Prepare {
                global: 42,
                proc: ProcId(8),
                call: ProcedureCall::new(TxnTypeId(0)),
                args: Vec::new(),
                trace: TraceCtx::NONE,
            },
            ShardRequest::Commit {
                global: 1,
                hlc: 0x7777,
            },
            ShardRequest::Abort { global: 3 },
            ShardRequest::Flush,
            ShardRequest::Metrics,
            ShardRequest::SnapshotRead {
                snapshot: 0x9999,
                wait_ms: 250,
                keys: vec![
                    Key::simple(TableId(4), 17),
                    Key::composite(TableId(5), &[1, 2]),
                ],
            },
            ShardRequest::SnapshotRead {
                snapshot: 0,
                wait_ms: 0,
                keys: Vec::new(),
            },
        ];
        for request in &requests {
            let payload = encode_request(11, 0xABCD, request);
            let (id, hlc, back) = decode_request(&payload).unwrap();
            assert_eq!(id, 11);
            assert_eq!(hlc, 0xABCD, "every frame carries the sender's clock");
            assert_eq!(&back, request);
        }
    }

    #[test]
    fn results_roundtrip() {
        let results: Vec<Result<ShardResponse, CcError>> = vec![
            Ok(ShardResponse::Executed {
                value: Value::row(&[1, 2]),
                aborts: 3,
            }),
            Ok(ShardResponse::Prepared {
                value: Value::Null,
                vote: Vote::ReadOnly,
                hlc: 42,
            }),
            Ok(ShardResponse::Prepared {
                value: Value::Int(-1),
                vote: Vote::ReadWrite,
                hlc: 0xFFEE,
            }),
            Ok(ShardResponse::Decided),
            Ok(ShardResponse::Snapshot {
                values: vec![Value::Int(3), Value::Null, Value::row(&[7, 8])],
                hlc: 0x1234,
            }),
            Ok(ShardResponse::Snapshot {
                values: Vec::new(),
                hlc: 0,
            }),
            Ok(ShardResponse::Flushed),
            Ok(ShardResponse::Metrics(Box::new(MetricsSnapshot {
                counters: vec![("cluster.multi_shard".to_string(), 12)],
                gauges: vec![("pipeline.max_depth".to_string(), 4)],
                histograms: vec![(
                    "proc.payment.latency_ns".to_string(),
                    HistogramSnapshot {
                        count: 3,
                        sum: 300,
                        max: 150,
                        buckets: vec![(10, 2), (63, 1)],
                    },
                )],
            }))),
            Ok(ShardResponse::Metrics(Box::default())),
            Err(CcError::Requested),
            Err(CcError::DependencyAborted),
            Err(CcError::Internal("boom".to_string())),
            Err(CcError::Unreachable {
                target: "shard 3".to_string(),
                maybe_delivered: true,
            }),
            Err(CcError::Unreachable {
                target: "connection".to_string(),
                maybe_delivered: false,
            }),
            Err(CcError::conflict(Reason::BodyNoOp)),
            Err(CcError::Conflict {
                reason: Reason::CrossGroupWriteWrite,
                winner: Some(TxnId(u64::MAX - 3)),
            }),
            Err(CcError::Timeout(WaitLabel::Lock(CcKind::TwoPl))),
        ];
        for result in &results {
            let payload = encode_result(77, 0xC0FFEE, result);
            let (id, hlc, back) = decode_result(&payload).unwrap();
            assert_eq!(id, 77);
            assert_eq!(hlc, 0xC0FFEE, "every frame carries the shard's clock");
            assert_eq!(&back, result);
        }
    }

    /// Every abort cause: each wait label (a lock wait once per owner),
    /// each conflict reason, each other variant once.
    fn every_cause() -> Vec<CcError> {
        use CcKind::{NoCc, Rp, Ssi, Tso, TwoPl};
        use Reason::*;
        use WaitLabel::{DependencyCommit, Lock, PipelineStep, PromisedWrite, SnapshotWriter};
        let causes: Vec<CcError> = [TwoPl, Rp, Ssi, Tso, NoCc]
            .map(Lock)
            .into_iter()
            .chain([
                PipelineStep,
                PromisedWrite,
                DependencyCommit,
                SnapshotWriter,
            ])
            .map(CcError::Timeout)
            .chain(
                [
                    FirstCommitterWins,
                    CrossGroupWriteWrite,
                    DoomsPrepared,
                    PivotOnWrite,
                    Pivot,
                    PivotAtPrepare,
                    LaterReader,
                    OrderedAfter,
                    MarkedForAbort,
                    BodyNoOp,
                ]
                .map(CcError::conflict),
            )
            .chain([
                CcError::DependencyAborted,
                CcError::Requested,
                CcError::Internal("boom".to_string()),
                CcError::unreachable("shard 3", true),
            ])
            .collect();
        // No wildcard: a new variant stops this compiling until it is
        // listed above.
        for cause in &causes {
            match cause {
                CcError::Timeout(
                    Lock(TwoPl | Rp | Ssi | Tso | NoCc)
                    | PipelineStep
                    | PromisedWrite
                    | DependencyCommit
                    | SnapshotWriter,
                )
                | CcError::Conflict {
                    reason:
                        FirstCommitterWins | CrossGroupWriteWrite | DoomsPrepared | PivotOnWrite | Pivot
                        | PivotAtPrepare | LaterReader | OrderedAfter | MarkedForAbort | BodyNoOp,
                    ..
                }
                | CcError::DependencyAborted
                | CcError::Requested
                | CcError::Internal(_)
                | CcError::Unreachable { .. } => {}
            }
        }
        assert_eq!(causes.len(), CcError::CAUSES, "a cause is missing above");
        causes
    }

    /// Every cause, and every conflict once more with a winner.
    #[test]
    fn every_abort_cause_roundtrips() {
        let with_winners = every_cause().into_iter().filter_map(|cause| match cause {
            CcError::Conflict { reason, .. } => Some(CcError::Conflict {
                reason,
                winner: Some(TxnId(0x0102_0304_0506_0708)),
            }),
            _ => None,
        });
        for cause in every_cause().into_iter().chain(with_winners) {
            let payload = encode_result(0, 0, &Err(cause.clone()));
            let (_, _, back) = decode_result(&payload).unwrap();
            assert_eq!(back, Err(cause));
        }
    }

    /// Counts the calling thread's allocations.
    struct CountingAlloc;

    thread_local! {
        static ALLOCATIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    // SAFETY: every call is forwarded unchanged to `System`, which upholds
    // the `GlobalAlloc` contract; the count is a const-initialized
    // thread-local `Cell`, which allocates nothing and is touched by no
    // other thread.
    unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
            // SAFETY: the caller's guarantees for `layout` are `System`'s.
            unsafe { std::alloc::System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
            // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
            unsafe { std::alloc::System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static COUNTING: CountingAlloc = CountingAlloc;

    #[test]
    fn a_cause_byte_out_of_range_is_malformed_and_allocates_nothing() {
        // An error reply up to its variant tag.
        let mut head = encode_result(1, 2, &Err(CcError::Requested));
        head.pop();
        for (cause, what) in [
            (&[6][..], "error tag"),
            (&[0, 9], "wait label"),
            (&[1, 10], "conflict reason"),
            (&[1, 0xFF], "conflict reason"),
        ] {
            let frame = [&head[..], cause].concat();
            let before = ALLOCATIONS.with(|n| n.get());
            let decoded = decode_result(&frame);
            let allocated = ALLOCATIONS.with(|n| n.get()) - before;
            assert_eq!(decoded, Err(CodecError::Malformed(what)), "{cause:?}");
            assert_eq!(allocated, 0, "{cause:?}");
        }
    }

    #[test]
    fn garbage_payloads_error_cleanly() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_result(&[]).is_err());
        let good = encode_request(1, 0, &ShardRequest::Flush);
        // Truncations at every split point.
        for cut in 0..good.len() {
            assert!(decode_request(&good[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage.
        let mut padded = good.clone();
        padded.push(0);
        assert!(decode_request(&padded).is_err());
        // Bad tags — 3 and 5 are retired requests (see `encode_request`):
        // refused, never decoded as some other variant.
        for tag in [3, 5, 0xEE] {
            let mut bad = good.clone();
            *bad.last_mut().unwrap() = tag;
            assert_eq!(
                decode_request(&bad),
                Err(CodecError::Malformed("request tag")),
                "request tag {tag}"
            );
        }
        // Likewise the retired `Stats` response (tag 3).
        let mut bad = encode_result(1, 0, &Ok(ShardResponse::Flushed));
        *bad.last_mut().unwrap() = 3;
        assert_eq!(
            decode_result(&bad),
            Err(CodecError::Malformed("response tag"))
        );
    }

    /// Hands out one scripted chunk per `read` call and counts the calls.
    struct ScriptedReader {
        chunks: std::collections::VecDeque<Vec<u8>>,
        reads: usize,
    }

    impl ScriptedReader {
        fn new(chunks: Vec<Vec<u8>>) -> Self {
            ScriptedReader {
                chunks: chunks.into(),
                reads: 0,
            }
        }
    }

    impl Read for ScriptedReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let Some(mut chunk) = self.chunks.pop_front() else {
                return Ok(0);
            };
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            if n < chunk.len() {
                self.chunks.push_front(chunk.split_off(n));
            }
            Ok(n)
        }
    }

    fn flush_requests(ids: std::ops::Range<u64>) -> Vec<u8> {
        let mut segment = Vec::new();
        for id in ids {
            append_request_frame(&mut segment, id, 7, &ShardRequest::Abort { global: id });
        }
        segment
    }

    #[test]
    fn appended_frames_match_the_one_shot_writer() {
        let request = ShardRequest::Commit { global: 9, hlc: 3 };
        let mut one_shot = Vec::new();
        write_frame(&mut one_shot, &encode_request(5, 1, &request)).unwrap();
        // Appending behind existing bytes fills in the right prefix.
        let mut burst = vec![0xAA];
        append_request_frame(&mut burst, 5, 1, &request);
        assert_eq!(burst[1..], one_shot[..]);
        let result = Ok(ShardResponse::Decided);
        let mut one_shot = Vec::new();
        write_frame(&mut one_shot, &encode_result(5, 1, &result)).unwrap();
        let mut burst = Vec::new();
        append_result_frame(&mut burst, 5, 1, &result);
        assert_eq!(burst, one_shot);
    }

    #[test]
    fn a_burst_in_one_segment_decodes_from_one_read() {
        let mut frames = FrameReader::new(ScriptedReader::new(vec![flush_requests(0..8)]));
        for id in 0..8 {
            let payload = frames.next_frame().unwrap().expect("a frame");
            let (req_id, hlc, request) = decode_request(payload).unwrap();
            assert_eq!((req_id, hlc), (id, 7));
            assert_eq!(request, ShardRequest::Abort { global: id });
            assert_eq!(frames.get_ref().reads, 1, "frame {id} cost another read");
        }
        // Clean EOF at a frame boundary.
        assert!(frames.next_frame().unwrap().is_none());
    }

    #[test]
    fn frames_split_across_reads_still_decode() {
        let segment = flush_requests(0..3);
        // Every split point, including inside a length prefix.
        for cut in 1..segment.len() {
            let chunks = vec![segment[..cut].to_vec(), segment[cut..].to_vec()];
            let mut frames = FrameReader::new(ScriptedReader::new(chunks));
            for id in 0..3 {
                let payload = frames.next_frame().unwrap().expect("a frame");
                assert_eq!(decode_request(payload).unwrap().0, id, "cut at {cut}");
            }
            assert!(frames.next_frame().unwrap().is_none());
        }
        // A frame larger than the reader's buffer grows it.
        let big = ShardRequest::Execute {
            proc: ProcId(1),
            call: ProcedureCall::new(tebaldi_storage::TxnTypeId(0)),
            args: vec![0x5A; 3 * FRAME_READER_CAPACITY],
            max_attempts: 1,
            trace: TraceCtx::NONE,
        };
        let mut segment = flush_requests(0..2);
        append_request_frame(&mut segment, 2, 7, &big);
        segment.extend(flush_requests(3..4));
        let mut frames = FrameReader::new(ScriptedReader::new(vec![segment]));
        for id in 0..4 {
            let payload = frames.next_frame().unwrap().expect("a frame");
            assert_eq!(decode_request(payload).unwrap().0, id);
        }
        // A close mid-frame is an error, not a clean end.
        let mut torn = flush_requests(0..1);
        torn.pop();
        let mut frames = FrameReader::new(ScriptedReader::new(vec![torn]));
        assert!(frames.next_frame().is_err());
    }

    #[test]
    fn an_oversized_length_prefix_fails_the_reader() {
        let mut segment = flush_requests(0..1);
        segment.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut frames = FrameReader::new(ScriptedReader::new(vec![segment]));
        assert!(frames.next_frame().unwrap().is_some());
        // An error, not an allocation: the connection loop drops the link.
        assert!(frames.next_frame().is_err());
    }

    #[test]
    fn frames_roundtrip_and_reject_oversize() {
        let mut buf = Vec::new();
        let payload = encode_request(5, 0, &ShardRequest::Flush);
        let written = write_frame(&mut buf, &payload).unwrap();
        assert_eq!(written, payload.len() + 4);
        let mut cursor = std::io::Cursor::new(buf);
        let back = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(back, payload);
        // Clean EOF at a frame boundary.
        assert!(read_frame(&mut cursor).unwrap().is_none());
        // An oversized length prefix is an error, not an allocation.
        let huge = (u32::MAX).to_le_bytes().to_vec();
        let mut cursor = std::io::Cursor::new(huge);
        assert!(read_frame(&mut cursor).is_err());
        // Truncated mid-payload is an error.
        let mut truncated = Vec::new();
        write_frame(&mut truncated, &payload).unwrap();
        truncated.truncate(truncated.len() - 2);
        let mut cursor = std::io::Cursor::new(truncated);
        assert!(read_frame(&mut cursor).is_err());
    }
}
