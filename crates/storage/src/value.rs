//! Values stored by the multiversion store.
//!
//! Tebaldi supports variable-sized columns and read-modify-write operations
//! (§4.5). Workload rows are either a single integer counter (e.g. the
//! district's `next_order_id`), a fixed small tuple of integers, or an
//! opaque payload. `Value` covers all three without requiring a schema
//! compiler. A row of up to [`INLINE_FIELDS`] integers lives inside the
//! value itself — and so inside the version slot that holds it — so
//! building, updating, cloning and dropping one never touches the heap;
//! cloning is cheap (copies of inline integers, or reference-count bumps for
//! strings, byte payloads and rows wider than that).

use bytes::Bytes;
use serde::{DeError, Deserialize, Json, Serialize};
use std::sync::Arc;

/// A stored value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Absent value — used to model deletes while keeping version history.
    Null,
    /// A single 64-bit integer (counters, balances in cents, flags).
    Int(i64),
    /// A small tuple of integers (fixed-width multi-column rows).
    Row(Row),
    /// A string payload (customer data, item names).
    Str(Arc<str>),
    /// An opaque byte payload (filler columns of TPC-C rows). The vendored
    /// `bytes` stub implements the serde traits directly, so no `with`
    /// adapter is needed.
    Bytes(Bytes),
}

// A version slot embeds its value: an inline row is the widest variant.
const _: () = assert!(std::mem::size_of::<Value>() == 40);

/// Fields a [`Row`] holds inline. A layout constant, not a knob: every row
/// any workload in the tree builds has at most four fields (TPC-C's order
/// line is the widest), and each one more would grow every version by 8 B.
pub const INLINE_FIELDS: usize = 4;

/// A tuple of integer fields: up to [`INLINE_FIELDS`] inline, a wider row
/// behind one shared allocation ([`Value::with_field`] may widen a row, and
/// the codec accepts any width). Derefs to its fields.
#[derive(Clone)]
pub struct Row(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        fields: [i64; INLINE_FIELDS],
    },
    Heap(Arc<[i64]>),
}

impl Row {
    fn new(fields: &[i64]) -> Row {
        Row::build(fields.len(), |out| out.copy_from_slice(fields))
    }

    /// A row of `len` zeros that `fill` then writes: in place when it fits
    /// inline, in one heap buffer otherwise.
    pub(crate) fn build(len: usize, fill: impl FnOnce(&mut [i64])) -> Row {
        if len <= INLINE_FIELDS {
            let mut fields = [0; INLINE_FIELDS];
            fill(&mut fields[..len]);
            Row(Repr::Inline {
                len: len as u8,
                fields,
            })
        } else {
            let mut fields = vec![0; len];
            fill(&mut fields);
            Row(Repr::Heap(Arc::from(fields)))
        }
    }
}

impl std::ops::Deref for Row {
    type Target = [i64];

    fn deref(&self) -> &[i64] {
        match &self.0 {
            Repr::Inline { len, fields } => &fields[..*len as usize],
            Repr::Heap(fields) => fields,
        }
    }
}

impl PartialEq for Row {
    fn eq(&self, other: &Row) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A JSON array of the fields, as the WAL file device has always written
/// rows.
impl Serialize for Row {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl Deserialize for Row {
    fn from_json(j: &Json) -> Result<Self, DeError> {
        Vec::<i64>::from_json(j).map(|fields| Row::new(&fields))
    }
}

impl Value {
    /// Builds a multi-column integer row.
    pub fn row(fields: &[i64]) -> Value {
        Value::Row(Row::new(fields))
    }

    /// Builds a string value.
    pub fn str(s: &str) -> Value {
        Value::Str(Arc::from(s))
    }

    /// Builds a `Bytes` value from an owned buffer.
    pub fn bytes(buf: Vec<u8>) -> Value {
        Value::Bytes(Bytes::from(buf))
    }

    /// Returns the integer content of an `Int` value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the `idx`-th field of a `Row` value (or the sole field of an
    /// `Int` value when `idx == 0`).
    pub fn field(&self, idx: usize) -> Option<i64> {
        match self {
            Value::Int(v) if idx == 0 => Some(*v),
            Value::Row(r) => r.get(idx).copied(),
            _ => None,
        }
    }

    /// Returns a copy of this row with field `idx` replaced by `v`.
    ///
    /// Read-modify-write transactions use this to update a single column.
    pub fn with_field(&self, idx: usize, v: i64) -> Value {
        // Promoting a non-row value to a row keeps workloads simple when a
        // column is added to an initially scalar row.
        let base: &[i64] = match self {
            Value::Int(_) if idx == 0 => return Value::Int(v),
            Value::Int(i) => std::slice::from_ref(i),
            Value::Row(r) => r,
            _ => &[],
        };
        Value::Row(Row::build(base.len().max(idx + 1), |out| {
            out[..base.len()].copy_from_slice(base);
            out[idx] = v;
        }))
    }

    /// True when the value represents a deleted row.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Approximate heap bytes the value holds beyond its own slot, used by
    /// GC statistics (an integer or an inline row holds none).
    pub fn approx_size(&self) -> usize {
        match self {
            Value::Row(Row(Repr::Heap(fields))) => 8 * fields.len(),
            Value::Null | Value::Int(_) | Value::Row(_) => 0,
            Value::Str(s) => s.len(),
            Value::Bytes(b) => b.len(),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_roundtrip() {
        let v = Value::Int(42);
        assert_eq!(v.as_int(), Some(42));
        assert_eq!(v.field(0), Some(42));
        assert_eq!(v.field(1), None);
    }

    #[test]
    fn row_field_access_and_update() {
        let v = Value::row(&[1, 2, 3]);
        assert_eq!(v.field(1), Some(2));
        let v2 = v.with_field(1, 20);
        assert_eq!(v2.field(1), Some(20));
        // original untouched (persistent update)
        assert_eq!(v.field(1), Some(2));
    }

    #[test]
    fn with_field_extends_row() {
        let v = Value::row(&[1]);
        let v2 = v.with_field(3, 9);
        assert_eq!(v2, Value::row(&[1, 0, 0, 9]));
        // Past the inline width the row moves to the heap, unchanged.
        let v3 = v2.with_field(5, 4);
        assert_eq!(v3, Value::row(&[1, 0, 0, 9, 0, 4]));
        assert_eq!(v3.with_field(0, 2).field(0), Some(2));
    }

    #[test]
    fn with_field_promotes_scalar() {
        let v = Value::Int(5);
        let v2 = v.with_field(2, 7);
        assert_eq!(v2, Value::row(&[5, 0, 7]));
        assert_eq!(Value::Null.with_field(1, 3), Value::row(&[0, 3]));
    }

    #[test]
    fn null_and_sizes() {
        assert!(Value::Null.is_null());
        assert!(!Value::Int(0).is_null());
        // Only what lives beyond the version slot counts.
        assert_eq!(Value::row(&[1, 2]).approx_size(), 0);
        assert_eq!(Value::row(&[1, 2, 3, 4, 5]).approx_size(), 40);
        assert_eq!(Value::str("abcd").approx_size(), 4);
    }

    #[test]
    fn debug_prints_the_fields() {
        assert_eq!(format!("{:?}", Value::row(&[1, -2])), "Row([1, -2])");
    }

    #[test]
    fn serde_roundtrip() {
        for v in [
            Value::Bytes(Bytes::from_static(b"hello")),
            Value::row(&[1, -2, 3]),
            Value::row(&[1, 2, 3, 4, 5, 6]),
        ] {
            let s = serde_json::to_string(&v).unwrap();
            let back: Value = serde_json::from_str(&s).unwrap();
            assert_eq!(v, back);
        }
    }
}
