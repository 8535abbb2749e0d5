//! One hop of a read profile, whoever serves it.
//!
//! A read-only procedure reads in hops: the keys of each hop depend only on
//! what earlier hops returned (stock_level reads the district, then its
//! recent orders, then their lines, then the lines' stock rows). A
//! [`HopReader`] reads one hop, so a procedure body is written once and run
//! by either reader:
//!
//! * a [`Txn`] on one database — a single-node run or one 2PC part on a
//!   shard — reads the hop's keys with one [`Txn::get`] each, in input
//!   order, under the CC tree;
//! * a cluster [`SnapshotHandle`] reads the hop with one
//!   [`SnapshotHandle::read`] at its pinned HLC stamp, one [`ReadPart`] per
//!   key group, so groups owned by different shards are read in parallel.

use tebaldi_cc::CcResult;
use tebaldi_cluster::{ReadPart, SnapshotHandle};
use tebaldi_core::Txn;
use tebaldi_storage::{Key, Value};

/// Keys of one partition (a TPC-C warehouse, a SEATS flight): the partition
/// key routes the group to its shard.
pub type KeyGroup = (u64, Vec<Key>);

/// Reads one hop of a read profile.
pub trait HopReader {
    /// Reads every key of `groups` and returns the values flattened in
    /// input order, `None` for an absent key. A hop without keys reads
    /// nothing.
    fn read_hop(&mut self, groups: Vec<KeyGroup>) -> CcResult<Vec<Option<Value>>>;
}

impl HopReader for Txn<'_> {
    fn read_hop(&mut self, groups: Vec<KeyGroup>) -> CcResult<Vec<Option<Value>>> {
        // Sized up front: collecting through the `Result` adapter grows the
        // vector from empty, which made stock_level's 200-key hops about a
        // fifth slower than reading key by key.
        let mut values = Vec::with_capacity(groups.iter().map(|(_, keys)| keys.len()).sum());
        for (_, keys) in groups {
            for key in keys {
                values.push(self.get(key)?);
            }
        }
        Ok(values)
    }
}

impl HopReader for SnapshotHandle<'_> {
    fn read_hop(&mut self, groups: Vec<KeyGroup>) -> CcResult<Vec<Option<Value>>> {
        let parts: Vec<ReadPart> = groups
            .into_iter()
            .filter(|(_, keys)| !keys.is_empty())
            .map(|(partition, keys)| ReadPart::new(self.shard_of(partition), keys))
            .collect();
        if parts.is_empty() {
            return Ok(Vec::new());
        }
        self.read(parts)
    }
}
