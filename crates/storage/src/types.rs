//! Core identifier and timestamp types shared by every crate in the
//! workspace.
//!
//! They live in the storage crate because it is the lowest layer of the
//! stack; the concurrency-control crate and the engine re-export them.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A globally unique transaction identifier.
///
/// Transaction ids are assigned by the engine's transaction coordinator when
/// the transaction starts and never reused. Id 0 is reserved for the
/// "initial load" pseudo-transaction that populates the database.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TxnId(pub u64);

impl TxnId {
    /// The pseudo transaction that installs initially loaded data.
    pub const BOOTSTRAP: TxnId = TxnId(0);

    /// Returns true for the bootstrap/loader pseudo transaction.
    pub fn is_bootstrap(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A static transaction *type* (e.g. TPC-C `new_order`).
///
/// The automatic-configuration algorithm partitions transactions by type
/// (§5.1), so types are first-class identifiers throughout the stack.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TxnTypeId(pub u32);

impl fmt::Debug for TxnTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ty{}", self.0)
    }
}

/// Identifier of a *leaf group* of the CC tree: every transaction instance
/// is assigned to exactly one leaf group (possibly through a
/// partition-by-instance function, §5.4.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GroupId(pub u32);

impl GroupId {
    /// The group no tree has: what a version written outside the CC tree
    /// carries (see [`Version::group`](crate::Version::group)).
    pub const NONE: GroupId = GroupId(u32::MAX);
}

impl fmt::Debug for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "G{}", self.0)
    }
}

/// Identifier of a node of the CC tree (both leaf and inner nodes).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// A logical timestamp drawn from a monotonically increasing oracle.
///
/// Commit timestamps, snapshot-isolation start timestamps, and TSO
/// serialization timestamps all use this type. Value 0 means "the beginning
/// of time" (initial load).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// Timestamp of the initial database load.
    pub const ZERO: Timestamp = Timestamp(0);
    /// A timestamp greater than any the oracle will hand out.
    pub const MAX: Timestamp = Timestamp(u64::MAX);

    /// Next timestamp (saturating).
    pub fn next(self) -> Timestamp {
        Timestamp(self.0.saturating_add(1))
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ts{}", self.0)
    }
}

// Lets maps keyed by the id newtypes serialize as JSON objects, matching
// serde's integer-keyed-map stringification.
macro_rules! impl_json_key_newtype {
    ($($t:ident),*) => {$(
        impl serde::JsonKey for $t {
            fn to_key(&self) -> String {
                self.0.to_string()
            }

            fn from_key(s: &str) -> Result<Self, serde::DeError> {
                s.parse()
                    .map($t)
                    .map_err(|_| serde::DeError::msg(format!(
                        concat!("bad ", stringify!($t), " key {:?}"), s
                    )))
            }
        }
    )*};
}
impl_json_key_newtype!(TxnId, TxnTypeId, GroupId, NodeId, Timestamp);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_id_bootstrap() {
        assert!(TxnId::BOOTSTRAP.is_bootstrap());
        assert!(!TxnId(7).is_bootstrap());
        assert_eq!(format!("{}", TxnId(7)), "T7");
    }

    #[test]
    fn timestamp_ordering_and_next() {
        assert!(Timestamp(3) < Timestamp(4));
        assert_eq!(Timestamp(3).next(), Timestamp(4));
        assert_eq!(Timestamp::MAX.next(), Timestamp::MAX);
        assert!(Timestamp::ZERO < Timestamp::MAX);
    }
}
