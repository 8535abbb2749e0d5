//! Table identifiers.
//!
//! Runtime pipelining's static analysis orders *tables*, not keys
//! (§4.4.2), and every [`Key`](crate::Key) names its table.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TableId(pub u32);

impl fmt::Debug for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tbl{}", self.0)
    }
}

// Lets `HashMap<TableId, _>` serialize as a JSON object, matching serde's
// integer-keyed-map stringification.
impl serde::JsonKey for TableId {
    fn to_key(&self) -> String {
        self.0.to_string()
    }

    fn from_key(s: &str) -> Result<Self, serde::DeError> {
        s.parse()
            .map(TableId)
            .map_err(|_| serde::DeError::msg(format!("bad TableId key {s:?}")))
    }
}
