//! TPC-C schema, adapted to Tebaldi's key-value interface as in §4.6.
//!
//! The paper removes the last-name scans from `payment` / `order_status`
//! and adds a separate table acting as a secondary index on the order table
//! to locate a customer's latest order. This module defines the tables,
//! the packed key layouts and the per-transaction-type
//! [`ProcedureInfo`] descriptions (whose table access *order* drives
//! runtime pipelining's static analysis; the declared orders follow the
//! reordering RP's preprocessing would produce, with `new_order` and
//! `payment` sharing the warehouse → district → customer prefix and
//! `stock_level` preferring order_line before stock, which is what creates
//! the famous cycle when it is grouped with `new_order`, Fig. 3.1).

use serde::{Deserialize, Serialize};
use tebaldi_cc::{AccessMode, ProcedureInfo, ProcedureSet};
use tebaldi_storage::{Key, TableId, TxnTypeId};

/// TPC-C tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TpccTables {
    /// `warehouse(w) → [ytd]`
    pub warehouse: TableId,
    /// `district(w, d) → [next_o_id, ytd, next_delivery_o_id]`
    pub district: TableId,
    /// `customer(w, d, c) → [balance, payment_cnt, delivery_cnt]`
    pub customer: TableId,
    /// `history(w, d, seq) → [amount]`
    pub history: TableId,
    /// `order(w, d, o) → [ol_cnt, c_id, carrier]`
    pub order: TableId,
    /// `new_order(w, d, o) → [1]`
    pub new_order: TableId,
    /// `order_line(w, d, o, line) → [item_id, qty, delivered]`
    pub order_line: TableId,
    /// `stock(w, item) → [quantity, ytd, order_cnt]`
    pub stock: TableId,
    /// `item(item) → [price]`
    pub item: TableId,
    /// `customer_order_index(w, d, c) → [latest_o_id]`  (secondary index)
    pub customer_order_index: TableId,
    /// `item_stats(item) → [sale_count]`  (hot_item extension, §4.6.3)
    pub item_stats: TableId,
}

impl Default for TpccTables {
    fn default() -> Self {
        TpccTables {
            warehouse: TableId(0),
            district: TableId(1),
            customer: TableId(2),
            history: TableId(3),
            order: TableId(4),
            new_order: TableId(5),
            order_line: TableId(6),
            stock: TableId(7),
            item: TableId(8),
            customer_order_index: TableId(9),
            item_stats: TableId(10),
        }
    }
}

/// TPC-C transaction types.
pub mod types {
    use tebaldi_storage::TxnTypeId;

    /// payment (PAY)
    pub const PAYMENT: TxnTypeId = TxnTypeId(0);
    /// new_order (NO)
    pub const NEW_ORDER: TxnTypeId = TxnTypeId(1);
    /// delivery (DEL)
    pub const DELIVERY: TxnTypeId = TxnTypeId(2);
    /// order_status (OS) — read-only
    pub const ORDER_STATUS: TxnTypeId = TxnTypeId(3);
    /// stock_level (SL) — read-only
    pub const STOCK_LEVEL: TxnTypeId = TxnTypeId(4);
    /// hot_item (HI) — the extensibility extension of §4.6.3
    pub const HOT_ITEM: TxnTypeId = TxnTypeId(5);
}

/// Scale parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TpccParams {
    /// Number of warehouses (the paper populates ten).
    pub warehouses: u32,
    /// Districts per warehouse (TPC-C fixes this at ten).
    pub districts_per_warehouse: u32,
    /// Customers per district (scaled down from 3 000 to keep load times
    /// laptop-friendly; contention lives on warehouses/districts/stock).
    pub customers_per_district: u32,
    /// Number of items (scaled down from 100 000).
    pub items: u32,
    /// Whether the hot_item extension transaction is part of the mix.
    pub with_hot_item: bool,
}

impl Default for TpccParams {
    fn default() -> Self {
        TpccParams {
            warehouses: 4,
            districts_per_warehouse: 10,
            customers_per_district: 300,
            items: 10_000,
            with_hot_item: false,
        }
    }
}

impl TpccParams {
    /// A very small instance for unit tests.
    pub fn tiny() -> Self {
        TpccParams {
            warehouses: 2,
            districts_per_warehouse: 2,
            customers_per_district: 20,
            items: 200,
            with_hot_item: false,
        }
    }
}

/// Key constructors.
#[derive(Clone, Copy, Debug, Default)]
pub struct TpccKeys {
    /// Table ids in use.
    pub tables: TpccTables,
}

impl TpccKeys {
    /// warehouse(w)
    pub fn warehouse(&self, w: u32) -> Key {
        Key::simple(self.tables.warehouse, w as u64)
    }
    /// district(w, d)
    pub fn district(&self, w: u32, d: u32) -> Key {
        Key::composite(self.tables.district, &[w, d])
    }
    /// customer(w, d, c)
    pub fn customer(&self, w: u32, d: u32, c: u32) -> Key {
        Key::composite(self.tables.customer, &[w, d, c])
    }
    /// history(w, d, seq)
    pub fn history(&self, w: u32, d: u32, seq: u32) -> Key {
        Key::composite(self.tables.history, &[w, d, seq])
    }
    /// order(w, d, o)
    pub fn order(&self, w: u32, d: u32, o: u32) -> Key {
        Key::composite(self.tables.order, &[w, d, o])
    }
    /// new_order(w, d, o)
    pub fn new_order(&self, w: u32, d: u32, o: u32) -> Key {
        Key::composite(self.tables.new_order, &[w, d, o])
    }
    /// order_line(w, d, o, line)
    pub fn order_line(&self, w: u32, d: u32, o: u32, line: u32) -> Key {
        Key::composite(self.tables.order_line, &[w, d, o, line])
    }
    /// stock(w, item)
    pub fn stock(&self, w: u32, item: u32) -> Key {
        Key::composite(self.tables.stock, &[w, item])
    }
    /// item(i)
    pub fn item(&self, i: u32) -> Key {
        Key::simple(self.tables.item, i as u64)
    }
    /// customer_order_index(w, d, c)
    pub fn customer_order_index(&self, w: u32, d: u32, c: u32) -> Key {
        Key::composite(self.tables.customer_order_index, &[w, d, c])
    }
    /// item_stats(i)
    pub fn item_stats(&self, i: u32) -> Key {
        Key::simple(self.tables.item_stats, i as u64)
    }
}

/// Builds the [`ProcedureSet`] describing every TPC-C transaction type.
pub fn procedures(tables: &TpccTables, with_hot_item: bool) -> ProcedureSet {
    use AccessMode::{Read, Write};
    let mut set = ProcedureSet::new();
    set.insert(ProcedureInfo::new(
        types::PAYMENT,
        "payment",
        vec![
            (tables.warehouse, Write),
            (tables.district, Write),
            (tables.customer, Write),
            (tables.history, Write),
        ],
    ));
    set.insert(ProcedureInfo::new(
        types::NEW_ORDER,
        "new_order",
        vec![
            (tables.warehouse, Read),
            (tables.district, Write),
            (tables.customer, Read),
            (tables.order, Write),
            (tables.new_order, Write),
            (tables.item, Read),
            (tables.stock, Write),
            (tables.order_line, Write),
            (tables.customer_order_index, Write),
        ],
    ));
    set.insert(ProcedureInfo::new(
        types::DELIVERY,
        "delivery",
        vec![
            (tables.district, Write),
            (tables.new_order, Write),
            (tables.order, Write),
            (tables.order_line, Write),
            (tables.customer, Write),
        ],
    ));
    set.insert(ProcedureInfo::new(
        types::ORDER_STATUS,
        "order_status",
        vec![
            (tables.customer, Read),
            (tables.customer_order_index, Read),
            (tables.order, Read),
            (tables.order_line, Read),
        ],
    ));
    set.insert(ProcedureInfo::new(
        types::STOCK_LEVEL,
        "stock_level",
        vec![
            (tables.district, Read),
            (tables.order, Read),
            (tables.order_line, Read),
            (tables.stock, Read),
        ],
    ));
    if with_hot_item {
        set.insert(ProcedureInfo::new(
            types::HOT_ITEM,
            "hot_item",
            vec![
                (tables.district, Read),
                (tables.order, Read),
                (tables.order_line, Read),
                (tables.item_stats, Write),
            ],
        ));
    }
    set
}

/// All transaction types in the standard mix.
pub fn standard_types() -> Vec<TxnTypeId> {
    vec![
        types::PAYMENT,
        types::NEW_ORDER,
        types::DELIVERY,
        types::ORDER_STATUS,
        types::STOCK_LEVEL,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procedure_set_covers_types() {
        let set = procedures(&TpccTables::default(), true);
        assert_eq!(set.len(), 6);
        assert!(set.get(types::ORDER_STATUS).unwrap().read_only);
        assert!(set.get(types::STOCK_LEVEL).unwrap().read_only);
        assert!(!set.get(types::NEW_ORDER).unwrap().read_only);
        assert!(!set.get(types::HOT_ITEM).unwrap().read_only);
        assert_eq!(standard_types().len(), 5);
    }

    #[test]
    fn keys_distinguish_rows() {
        let keys = TpccKeys::default();
        assert_ne!(keys.district(1, 2), keys.district(2, 1));
        assert_ne!(keys.order_line(1, 1, 1, 1), keys.order_line(1, 1, 1, 2));
        assert_ne!(keys.stock(1, 5), keys.item(5));
    }
}
