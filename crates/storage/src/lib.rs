//! # tebaldi-storage
//!
//! The storage module of the Tebaldi reproduction.
//!
//! Tebaldi (SIGMOD 2017, "Bringing Modular Concurrency Control to the Next
//! Level") separates its concurrency-control logic from storage management:
//! the storage module keeps **all committed and uncommitted versions** of
//! every data object so that both single-versioned and multi-versioned
//! concurrency controls can be federated on top of it (§4.3 of the paper).
//!
//! This crate provides:
//!
//! * [`MvStore`] — a sharded, multiversion key-value store ("data servers"
//!   in the paper's cluster architecture are modelled as partitions/shards).
//!   A key's history is one chain of [`Version`]s, read through [`Chain`]
//!   and mutated through [`ChainWrite`].
//! * [`schema`] — table identifiers, ordered by runtime
//!   pipelining's static analysis.
//! * [`wal`] / [`durability`] — write-ahead logging (one record per local
//!   commit) and the asynchronous-flushing protocol with global-checkpoint
//!   (GCP) epochs of §4.5.4.
//! * [`recovery`] — the three-step recovery protocol of §4.5.4.
//! * [`gc`] — the garbage collection of §4.5.3, its horizon read from the
//!   timestamp oracle and the CC tree's watermark instead of GC epochs.

pub mod arena;
pub mod codec;
pub mod ebr;
pub mod gc;
pub mod key;
pub mod mvstore;
pub mod recovery;
pub mod schema;
pub mod types;
pub mod value;
pub mod version;
pub mod wal;

pub mod durability;

pub use key::{Key, KeyMap};
pub use mvstore::{
    Chain, ChainWrite, IndexStats, MvStore, ReadSpec, SnapshotRead, StoreStats, WriteOutcome,
    READ_GROUP,
};
pub use schema::TableId;
pub use types::{GroupId, NodeId, Timestamp, TxnId, TxnTypeId};
pub use value::{Row, Value};
pub use version::Version;
