//! Static descriptions of stored procedures.
//!
//! Tebaldi supports interactive transactions as well as stored procedures;
//! concurrency controls that analyse or reorder transaction code (runtime
//! pipelining's static analysis, TSO's promises, §5.4.2) need a static
//! description of each transaction *type*: the sequence of tables it
//! touches, in program order, with access modes, plus optionally the set of
//! keys it promises to write.
//!
//! Workloads provide a [`ProcedureInfo`] per transaction type; the engine
//! collects them in a [`ProcedureSet`] handed to the CC tree when it is
//! built, so preprocessing (§5.4.2) can run without user involvement.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use tebaldi_storage::{TableId, TxnTypeId};

/// Read or write access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessMode {
    /// The operation only reads the table.
    Read,
    /// The operation writes (or read-modify-writes) the table.
    Write,
}

/// Static description of one transaction type.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ProcedureInfo {
    /// The transaction type being described.
    pub ty: TxnTypeId,
    /// Human-readable name, e.g. `"new_order"`.
    pub name: String,
    /// Tables accessed in program order. Repeated accesses to the same table
    /// may appear multiple times; loops are represented by a single entry.
    pub table_sequence: Vec<(TableId, AccessMode)>,
    /// True when the transaction performs no writes at all.
    pub read_only: bool,
    /// Tables whose written keys are fully determined by the transaction's
    /// input (usable as TSO promises).
    pub promised_write_tables: Vec<TableId>,
}

impl ProcedureInfo {
    /// Creates a description with just a name and an access sequence.
    pub fn new(ty: TxnTypeId, name: &str, table_sequence: Vec<(TableId, AccessMode)>) -> Self {
        let read_only = table_sequence
            .iter()
            .all(|(_, mode)| *mode == AccessMode::Read);
        ProcedureInfo {
            ty,
            name: name.to_string(),
            table_sequence,
            read_only,
            promised_write_tables: Vec::new(),
        }
    }

    /// Marks tables whose writes can be promised at start time.
    pub fn with_promises(mut self, tables: Vec<TableId>) -> Self {
        self.promised_write_tables = tables;
        self
    }
}

/// The set of procedure descriptions known to the database.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ProcedureSet {
    procedures: HashMap<TxnTypeId, ProcedureInfo>,
}

impl ProcedureSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        ProcedureSet::default()
    }

    /// Registers (or replaces) a description.
    pub fn insert(&mut self, info: ProcedureInfo) {
        self.procedures.insert(info.ty, info);
    }

    /// Looks a description up by type.
    pub fn get(&self, ty: TxnTypeId) -> Option<&ProcedureInfo> {
        self.procedures.get(&ty)
    }

    /// All registered types.
    pub fn types(&self) -> Vec<TxnTypeId> {
        let mut tys: Vec<TxnTypeId> = self.procedures.keys().copied().collect();
        tys.sort_unstable();
        tys
    }

    /// Name of a type, falling back to a numeric placeholder.
    pub fn name(&self, ty: TxnTypeId) -> String {
        self.get(ty)
            .map(|p| p.name.clone())
            .unwrap_or_else(|| format!("type{}", ty.0))
    }

    /// True when every listed type is read-only.
    pub fn all_read_only(&self, types: &[TxnTypeId]) -> bool {
        types
            .iter()
            .all(|ty| self.get(*ty).map(|p| p.read_only).unwrap_or(false))
    }

    /// Number of registered procedures.
    pub fn len(&self) -> usize {
        self.procedures.len()
    }

    /// True when no procedure is registered.
    pub fn is_empty(&self) -> bool {
        self.procedures.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info() -> ProcedureInfo {
        ProcedureInfo::new(
            TxnTypeId(1),
            "payment",
            vec![
                (TableId(0), AccessMode::Write),
                (TableId(1), AccessMode::Write),
                (TableId(2), AccessMode::Read),
                (TableId(1), AccessMode::Write),
            ],
        )
    }

    #[test]
    fn read_only_detection() {
        let p = ProcedureInfo::new(TxnTypeId(2), "scan", vec![(TableId(0), AccessMode::Read)]);
        assert!(p.read_only);
    }

    #[test]
    fn set_lookup_and_read_only_groups() {
        let mut s = ProcedureSet::new();
        s.insert(info());
        s.insert(ProcedureInfo::new(
            TxnTypeId(2),
            "scan",
            vec![(TableId(0), AccessMode::Read)],
        ));
        assert_eq!(s.len(), 2);
        assert_eq!(s.name(TxnTypeId(1)), "payment");
        assert_eq!(s.name(TxnTypeId(9)), "type9");
        assert!(s.all_read_only(&[TxnTypeId(2)]));
        assert!(!s.all_read_only(&[TxnTypeId(1), TxnTypeId(2)]));
        assert!(!s.all_read_only(&[TxnTypeId(42)]));
        assert_eq!(s.types(), vec![TxnTypeId(1), TxnTypeId(2)]);
    }
}
