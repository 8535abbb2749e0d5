//! One hop of a read profile, whoever serves it.
//!
//! A read-only procedure reads in hops: the keys of each hop depend only on
//! what earlier hops returned (stock_level reads the district, then its
//! recent orders, then their lines, then the lines' stock rows). A
//! [`HopReader`] reads one hop, so a procedure body is written once and run
//! by either reader:
//!
//! * a [`Txn`] on one database — a single-node run or one 2PC part on a
//!   shard — reads the hop in warmed chunks of [`READ_GROUP`] keys: one
//!   [`Txn::prefetch`] of the chunk starts loading every key's store lines
//!   at once, then one [`Txn::get`] per key, in input order, reads it under
//!   the CC tree — the same accesses in the same order as without the
//!   hint, each finding its lines on their way;
//! * a cluster [`SnapshotHandle`] reads the hop with one
//!   [`SnapshotHandle::read`] at its pinned HLC stamp, one [`ReadPart`] per
//!   key group, so groups owned by different shards are read in parallel.
//!
//! Either appends the hop's values to a buffer the caller owns, so a body
//! reuses one buffer across its hops.

use tebaldi_cc::CcResult;
use tebaldi_cluster::{ReadPart, SnapshotHandle};
use tebaldi_core::Txn;
use tebaldi_storage::{Key, Value, READ_GROUP};

/// Keys of one partition (a TPC-C warehouse, a SEATS flight): the partition
/// key routes the group to its shard.
pub type KeyGroup = (u64, Vec<Key>);

/// Reads one hop of a read profile.
pub trait HopReader {
    /// Reads every key of `groups` and appends the values to `out`,
    /// flattened in input order, `None` for an absent key. A hop without
    /// keys reads nothing.
    fn read_hop(&mut self, groups: Vec<KeyGroup>, out: &mut Vec<Option<Value>>) -> CcResult<()>;
}

impl HopReader for Txn<'_> {
    fn read_hop(&mut self, groups: Vec<KeyGroup>, out: &mut Vec<Option<Value>>) -> CcResult<()> {
        // Sized up front: growing the vector from empty made stock_level's
        // 200-key hops about a fifth slower than reading key by key.
        out.reserve(groups.iter().map(|(_, keys)| keys.len()).sum());
        for (_, keys) in &groups {
            for chunk in keys.chunks(READ_GROUP) {
                self.prefetch(chunk.iter().copied());
                for &key in chunk {
                    out.push(self.get(key)?);
                }
            }
        }
        Ok(())
    }
}

impl HopReader for SnapshotHandle<'_> {
    fn read_hop(&mut self, groups: Vec<KeyGroup>, out: &mut Vec<Option<Value>>) -> CcResult<()> {
        let parts: Vec<ReadPart> = groups
            .into_iter()
            .filter(|(_, keys)| !keys.is_empty())
            .map(|(partition, keys)| ReadPart::new(self.shard_of(partition), keys))
            .collect();
        if parts.is_empty() {
            return Ok(());
        }
        // The reply is a vector of its own: an empty buffer takes it as it
        // is rather than copying it in.
        let values = self.read(parts)?;
        if out.is_empty() {
            *out = values;
        } else {
            out.extend(values);
        }
        Ok(())
    }
}
