//! Builtin key-value shard procedures.
//!
//! Generic single-operation bodies (get/put/delete/increment) registered
//! in every cluster's [`ProcRegistry`]. They give tests, examples, and ad
//! hoc tooling a data-only way to touch shards without declaring a
//! workload-specific procedure first — a cross-shard bank transfer is just
//! two [`increment_part`]s.
//!
//! Ids live in the reserved `0xFFFF_00xx` range; workload ranges (TPC-C
//! 100.., SEATS 200..) never collide with them.

use crate::cluster::ShardPart;
use tebaldi_cc::CcError;
use tebaldi_core::{ProcId, ProcRegistry, ProcedureCall};
use tebaldi_storage::codec::{ByteReader, ByteWriter};
use tebaldi_storage::{Key, TxnTypeId, Value};

/// The transaction type id builtin read-path calls run under (CC trees
/// without a routing rule for it fall to their default mechanism, which is
/// all a read-only multi-get needs).
pub const KV_READ_TYPE: TxnTypeId = TxnTypeId(0xFFF0);

/// `get(key)` → the stored value or `Null`. Writes nothing, so a 2PC part
/// built from it votes `ReadOnly`.
pub const KV_GET: ProcId = ProcId(0xFFFF_0001);
/// `put(key, value)` → `Null`.
pub const KV_PUT: ProcId = ProcId(0xFFFF_0002);
/// `delete(key)` → `Null`.
pub const KV_DELETE: ProcId = ProcId(0xFFFF_0003);
/// `increment(key, field, delta)` → the new field value as `Int`.
pub const KV_INCREMENT: ProcId = ProcId(0xFFFF_0004);
/// `multi_get(keys)` → every stored value, encoded as one `Bytes` payload
/// (decode with [`decode_multi_get`]). Writes nothing, so a 2PC part built
/// from it votes `ReadOnly` — this is the body behind
/// [`ReadConsistency::Strong`](crate::cluster::ReadConsistency) multi-key
/// reads, where one part covers all of a shard's keys instead of one part
/// per key.
pub const KV_MULTI_GET: ProcId = ProcId(0xFFFF_0005);

fn decode(err: tebaldi_storage::codec::CodecError) -> CcError {
    CcError::Internal(format!("malformed kv args: {err}"))
}

/// Registers the builtin procedures into `registry` (the
/// [`crate::ClusterBuilder`] does this automatically).
pub fn register_builtins(registry: &mut ProcRegistry) {
    registry.register_fn(KV_GET, |txn, args| {
        let mut r = ByteReader::new(args);
        let key = r.key().map_err(decode)?;
        Ok(txn.get(key)?.unwrap_or(Value::Null))
    });
    registry.register_fn(KV_PUT, |txn, args| {
        let mut r = ByteReader::new(args);
        let key = r.key().map_err(decode)?;
        let value = r.value().map_err(decode)?;
        txn.put(key, value).map(|()| Value::Null)
    });
    registry.register_fn(KV_DELETE, |txn, args| {
        let mut r = ByteReader::new(args);
        let key = r.key().map_err(decode)?;
        txn.delete(key).map(|()| Value::Null)
    });
    registry.register_fn(KV_INCREMENT, |txn, args| {
        let mut r = ByteReader::new(args);
        let key = r.key().map_err(decode)?;
        let field = r.u32().map_err(decode)? as usize;
        let delta = r.i64().map_err(decode)?;
        txn.increment(key, field, delta).map(Value::Int)
    });
    registry.register_fn(KV_MULTI_GET, |txn, args| {
        let mut r = ByteReader::new(args);
        let count = r.u32().map_err(decode)? as usize;
        let mut w = ByteWriter::new();
        w.put_u32(count as u32);
        for _ in 0..count {
            let key = r.key().map_err(decode)?;
            w.put_value(&txn.get(key)?.unwrap_or(Value::Null));
        }
        Ok(Value::bytes(w.into_bytes()))
    });
}

/// Argument buffer for [`KV_GET`]/[`KV_DELETE`].
pub fn key_args(key: Key) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_key(key);
    w.into_bytes()
}

/// Argument buffer for [`KV_PUT`].
pub fn put_args(key: Key, value: &Value) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_key(key);
    w.put_value(value);
    w.into_bytes()
}

/// Argument buffer for [`KV_INCREMENT`].
pub fn increment_args(key: Key, field: u32, delta: i64) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_key(key);
    w.put_u32(field);
    w.put_i64(delta);
    w.into_bytes()
}

/// Argument buffer for [`KV_MULTI_GET`].
pub fn multi_get_args(keys: &[Key]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(keys.len() as u32);
    for &key in keys {
        w.put_key(key);
    }
    w.into_bytes()
}

/// Decodes a [`KV_MULTI_GET`] result back into per-key values, `None` for
/// keys the shard does not hold.
pub fn decode_multi_get(result: &Value) -> Result<Vec<Option<Value>>, CcError> {
    let bytes = match result {
        Value::Bytes(bytes) => bytes,
        other => {
            return Err(CcError::Internal(format!(
                "multi_get returned a non-bytes value: {other:?}"
            )))
        }
    };
    let mut r = ByteReader::new(bytes);
    let count = r.u32().map_err(decode)? as usize;
    let mut values = Vec::with_capacity(count);
    for _ in 0..count {
        let value = r.value().map_err(decode)?;
        values.push(if value == Value::Null {
            None
        } else {
            Some(value)
        });
    }
    Ok(values)
}

/// A 2PC part reading one key (votes `ReadOnly`).
pub fn get_part(shard: usize, call: ProcedureCall, key: Key) -> ShardPart {
    ShardPart::new(shard, call, KV_GET, key_args(key))
}

/// A 2PC part writing one key.
pub fn put_part(shard: usize, call: ProcedureCall, key: Key, value: &Value) -> ShardPart {
    ShardPart::new(shard, call, KV_PUT, put_args(key, value))
}

/// A 2PC part incrementing one field of one key.
pub fn increment_part(
    shard: usize,
    call: ProcedureCall,
    key: Key,
    field: u32,
    delta: i64,
) -> ShardPart {
    ShardPart::new(shard, call, KV_INCREMENT, increment_args(key, field, delta))
}
