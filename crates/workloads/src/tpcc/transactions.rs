//! TPC-C transaction bodies.
//!
//! The bodies follow the access order declared in the procedure
//! descriptions (see [`super::schema`]) so runtime pipelining's step
//! assignment and the actual execution agree. Scans are removed as in the
//! paper's adaptation; the customer's latest order is located through the
//! explicit secondary-index table, and delivery finds pending orders through
//! the district's `next_delivery_o_id` cursor instead of scanning the
//! new_order table.
//!
//! The read-only bodies (`order_status`, `stock_level`) read through a
//! [`HopReader`], one hop per table: the same code runs on a [`Txn`] — a
//! single-node run or a cluster shard's procedure — and on a cluster's
//! HLC snapshot.
//!
//! The read-write bodies warm the rows they know before they touch them:
//! one [`Txn::prefetch`] of every key known up front, another of each set
//! of keys an earlier read reveals. A hint, not an access: the accesses
//! that follow keep their order, so each body still follows its declared
//! table sequence and no hook runs earlier or later than without it.
//!
//! Every row a procedure updates is updated once, by one [`Txn::update`]:
//! the read and the write of the row are one operation (a locking node
//! takes the row exclusive before reading it, never shared and then
//! upgraded), and a row whose fields change together — a stock row's
//! quantity, year-to-date and order count; a customer's balance and
//! counters — gets one new version, not one per field.

use super::schema::{TpccKeys, TpccParams};
use crate::hops::{HopReader, KeyGroup};
use tebaldi_cc::CcResult;
use tebaldi_core::Txn;
use tebaldi_storage::{Key, Value};

/// `row` (zeros when absent) with each `(field, delta)` added.
fn add_fields(row: Option<&Value>, deltas: &[(usize, i64)]) -> Value {
    let base = row.cloned().unwrap_or(Value::Int(0));
    deltas.iter().fold(base, |row, &(idx, delta)| {
        let v = row.field(idx).unwrap_or(0) + delta;
        row.with_field(idx, v)
    })
}

/// District row fields.
pub mod district_fields {
    /// Next order id to assign.
    pub const NEXT_O_ID: usize = 0;
    /// Year-to-date payment total.
    pub const YTD: usize = 1;
    /// Next order id to deliver.
    pub const NEXT_DELIVERY_O_ID: usize = 2;
}

/// Inputs of one `payment` invocation.
#[derive(Clone, Copy, Debug)]
pub struct PaymentInput {
    /// Warehouse.
    pub w: u32,
    /// District.
    pub d: u32,
    /// Customer.
    pub c: u32,
    /// Amount in cents.
    pub amount: i64,
    /// Unique-ish id used for the history row.
    pub history_seq: u32,
}

/// The payment transaction: update warehouse and district year-to-date
/// totals, update the customer's balance, insert a history record.
pub fn payment(txn: &mut Txn<'_>, keys: &TpccKeys, input: &PaymentInput) -> CcResult<()> {
    payment_home(txn, keys, input, Some((input.w, input.d)))
}

/// Payment on the home warehouse: the warehouse and district totals and
/// the history record, with the paying customer's update between them when
/// `customer` — the customer's (warehouse, district) — lives on the same
/// shard. A remote customer is `None` here: in the cluster its shard runs
/// [`payment_customer`] as a second 2PC part. Keeps the declared table
/// order (warehouse → district → customer → history) that runtime
/// pipelining's static analysis relies on.
pub fn payment_home(
    txn: &mut Txn<'_>,
    keys: &TpccKeys,
    input: &PaymentInput,
    customer: Option<(u32, u32)>,
) -> CcResult<()> {
    txn.prefetch(
        [keys.warehouse(input.w), keys.district(input.w, input.d)]
            .into_iter()
            .chain(customer.map(|(c_w, c_d)| keys.customer(c_w, c_d, input.c))),
    );
    txn.increment(keys.warehouse(input.w), 0, input.amount)?;
    txn.increment(
        keys.district(input.w, input.d),
        district_fields::YTD,
        input.amount,
    )?;
    if let Some((c_w, c_d)) = customer {
        payment_customer(txn, keys, c_w, c_d, input.c, input.amount)?;
    }
    txn.put(
        keys.history(input.w, input.d, input.history_seq),
        Value::row(&[input.amount]),
    )?;
    Ok(())
}

/// The customer part of payment: balance debit and payment count, on the
/// customer's warehouse.
pub fn payment_customer(
    txn: &mut Txn<'_>,
    keys: &TpccKeys,
    c_w: u32,
    c_d: u32,
    c: u32,
    amount: i64,
) -> CcResult<()> {
    txn.update(keys.customer(c_w, c_d, c), |row| {
        Some(add_fields(row, &[(0, -amount), (1, 1)]))
    })?;
    Ok(())
}

/// Inputs of one `new_order` invocation.
#[derive(Clone, Debug)]
pub struct NewOrderInput {
    /// Warehouse.
    pub w: u32,
    /// District.
    pub d: u32,
    /// Customer.
    pub c: u32,
    /// Ordered items: (item id, supplying warehouse, quantity).
    pub lines: Vec<(u32, u32, i64)>,
}

/// One order line's stock update, as one write of the stock row: the
/// quantity falls by `qty` (restocked by 91 when it would drop below 10),
/// the year-to-date quantity rises by `qty` and the order count by one.
fn take_stock(
    txn: &mut Txn<'_>,
    keys: &TpccKeys,
    item: u32,
    supply_w: u32,
    qty: i64,
) -> CcResult<()> {
    txn.update(keys.stock(supply_w, item), |row| {
        let field = |idx| row.and_then(|v| v.field(idx)).unwrap_or(0);
        let left = field(0) - qty;
        let quantity = if left >= 10 { left } else { left + 91 };
        Some(Value::row(&[quantity, field(1) + qty, field(2) + 1]))
    })?;
    Ok(())
}

/// Takes the district's `NEXT_O_ID` as the new order's id and advances it.
/// `increment` returns the advanced value, so the id is one below it: the
/// first order of a district is order 1, which `delivery` (starting from
/// `NEXT_DELIVERY_O_ID = 1`) delivers first.
fn allocate_order_id(txn: &mut Txn<'_>, keys: &TpccKeys, input: &NewOrderInput) -> CcResult<u32> {
    let next = txn.increment(
        keys.district(input.w, input.d),
        district_fields::NEXT_O_ID,
        1,
    )?;
    Ok((next - 1) as u32)
}

/// The new_order transaction.
pub fn new_order(txn: &mut Txn<'_>, keys: &TpccKeys, input: &NewOrderInput) -> CcResult<u32> {
    new_order_filtered(txn, keys, input, |_| true)
}

/// The home-shard part of new_order in the cluster: identical to
/// [`new_order`] except stock rows are only updated for supplying
/// warehouses accepted by `stock_local` — the remaining stock updates run
/// on their owning shards through [`new_order_remote_stock`] under the
/// cross-shard two-phase commit.
pub fn new_order_filtered(
    txn: &mut Txn<'_>,
    keys: &TpccKeys,
    input: &NewOrderInput,
    stock_local: impl Fn(u32) -> bool,
) -> CcResult<u32> {
    let (w, d) = (input.w, input.d);
    // Every row the order reads or updates is known up front: warm them
    // all before the first access (a hint — the accesses below keep their
    // order).
    txn.prefetch(
        [
            keys.warehouse(w),
            keys.district(w, d),
            keys.customer(w, d, input.c),
        ]
        .into_iter()
        .chain(input.lines.iter().flat_map(|&(item, supply_w, _)| {
            let stock = stock_local(supply_w).then(|| keys.stock(supply_w, item));
            std::iter::once(keys.item(item)).chain(stock)
        })),
    );
    // Warehouse tax rate (read only).
    let _ = txn.get(keys.warehouse(input.w))?;
    let o_id = allocate_order_id(txn, keys, input)?;
    // The rows the order inserts are known once its id is.
    txn.prefetch(
        [
            keys.order(w, d, o_id),
            keys.new_order(w, d, o_id),
            keys.customer_order_index(w, d, input.c),
        ]
        .into_iter()
        .chain((0..input.lines.len() as u32).map(|line| keys.order_line(w, d, o_id, line))),
    );
    // Customer discount / credit (read only).
    let _ = txn.get(keys.customer(input.w, input.d, input.c))?;
    // Insert the order and its new_order marker.
    txn.put(
        keys.order(input.w, input.d, o_id),
        Value::row(&[input.lines.len() as i64, input.c as i64, 0]),
    )?;
    txn.put(keys.new_order(input.w, input.d, o_id), Value::Int(1))?;
    // Order lines and (local) stock updates.
    for (line_no, (item, supply_w, qty)) in input.lines.iter().enumerate() {
        let price = txn
            .get(keys.item(*item))?
            .and_then(|v| v.field(0))
            .unwrap_or(100);
        if stock_local(*supply_w) {
            take_stock(txn, keys, *item, *supply_w, *qty)?;
        }
        txn.put(
            keys.order_line(input.w, input.d, o_id, line_no as u32),
            Value::row(&[*item as i64, *qty, 0, price]),
        )?;
    }
    // Secondary index: the customer's latest order.
    txn.put(
        keys.customer_order_index(input.w, input.d, input.c),
        Value::Int(o_id as i64),
    )?;
    Ok(o_id)
}

/// The remote-shard part of a cross-shard new_order: the stock updates for
/// the order lines supplied by warehouses living on that shard.
pub fn new_order_remote_stock(
    txn: &mut Txn<'_>,
    keys: &TpccKeys,
    lines: &[(u32, u32, i64)],
) -> CcResult<()> {
    txn.prefetch(
        lines
            .iter()
            .map(|&(item, supply_w, _)| keys.stock(supply_w, item)),
    );
    for (item, supply_w, qty) in lines {
        take_stock(txn, keys, *item, *supply_w, *qty)?;
    }
    Ok(())
}

/// A variant of [`new_order`] that updates the stock rows *before* touching
/// the district table. Under a 2PL cross-group node this inverts the lock
/// acquisition order against `stock_level` (district first, stock last),
/// producing the deadlocks of Table 3.1's second column.
pub fn new_order_stock_first(
    txn: &mut Txn<'_>,
    keys: &TpccKeys,
    input: &NewOrderInput,
) -> CcResult<u32> {
    let _ = txn.get(keys.warehouse(input.w))?;
    // Stock updates first (the deadlock-prone order).
    for (item, supply_w, qty) in &input.lines {
        take_stock(txn, keys, *item, *supply_w, *qty)?;
    }
    let o_id = allocate_order_id(txn, keys, input)?;
    let _ = txn.get(keys.customer(input.w, input.d, input.c))?;
    txn.put(
        keys.order(input.w, input.d, o_id),
        Value::row(&[input.lines.len() as i64, input.c as i64, 0]),
    )?;
    txn.put(keys.new_order(input.w, input.d, o_id), Value::Int(1))?;
    for (line_no, (item, _supply_w, qty)) in input.lines.iter().enumerate() {
        let price = txn
            .get(keys.item(*item))?
            .and_then(|v| v.field(0))
            .unwrap_or(100);
        txn.put(
            keys.order_line(input.w, input.d, o_id, line_no as u32),
            Value::row(&[*item as i64, *qty, 0, price]),
        )?;
    }
    txn.put(
        keys.customer_order_index(input.w, input.d, input.c),
        Value::Int(o_id as i64),
    )?;
    Ok(o_id)
}

/// Inputs of one `delivery` invocation.
#[derive(Clone, Copy, Debug)]
pub struct DeliveryInput {
    /// Warehouse.
    pub w: u32,
    /// Carrier id recorded on delivered orders.
    pub carrier: i64,
    /// Number of districts in the warehouse.
    pub districts: u32,
}

/// The delivery transaction: delivers the oldest undelivered order of every
/// district of a warehouse.
pub fn delivery(txn: &mut Txn<'_>, keys: &TpccKeys, input: &DeliveryInput) -> CcResult<u32> {
    use district_fields::{NEXT_DELIVERY_O_ID, NEXT_O_ID};
    let mut delivered = 0;
    txn.prefetch((0..input.districts).map(|d| keys.district(input.w, d)));
    for d in 0..input.districts {
        // Take the district's oldest undelivered order and advance the
        // cursor past it; a district with nothing pending is left as it is.
        let mut pending = None;
        txn.update(keys.district(input.w, d), |district| {
            let field = |idx| district.and_then(|v| v.field(idx)).unwrap_or(1);
            let next_delivery = field(NEXT_DELIVERY_O_ID);
            if next_delivery >= field(NEXT_O_ID) {
                return None;
            }
            pending = Some(next_delivery as u32);
            district.map(|row| row.with_field(NEXT_DELIVERY_O_ID, next_delivery + 1))
        })?;
        let Some(o_id) = pending else {
            continue;
        };
        // Remove the new_order marker.
        txn.delete(keys.new_order(input.w, d, o_id))?;
        // Stamp the carrier on the order.
        let order = txn.update(keys.order(input.w, d, o_id), |order| {
            order.map(|row| row.with_field(2, input.carrier))
        })?;
        let field = |idx| order.as_ref().and_then(|v| v.field(idx)).unwrap_or(0);
        let (ol_cnt, c_id) = (field(0), field(1));
        txn.prefetch(
            (0..ol_cnt.max(0) as u32)
                .map(|line| keys.order_line(input.w, d, o_id, line))
                .chain((c_id > 0).then(|| keys.customer(input.w, d, c_id as u32))),
        );
        // Stamp delivery on each order line and sum the amounts.
        let mut amount = 0i64;
        for line in 0..ol_cnt.max(0) as u32 {
            let key = keys.order_line(input.w, d, o_id, line);
            if let Some(row) = txn.update(key, |row| row.map(|r| r.with_field(2, 1)))? {
                amount += row.field(3).unwrap_or(0);
            }
        }
        // Credit the customer.
        if c_id > 0 {
            txn.update(keys.customer(input.w, d, c_id as u32), |row| {
                Some(add_fields(row, &[(0, amount), (2, 1)]))
            })?;
        }
        delivered += 1;
    }
    Ok(delivered)
}

/// Inputs of one `order_status` invocation.
#[derive(Clone, Copy, Debug)]
pub struct OrderStatusInput {
    /// Warehouse.
    pub w: u32,
    /// District.
    pub d: u32,
    /// Customer.
    pub c: u32,
}

/// The order_status read-only transaction: the customer's balance, after
/// reading its latest order and that order's lines.
pub fn order_status(
    reader: &mut impl HopReader,
    keys: &TpccKeys,
    input: &OrderStatusInput,
) -> CcResult<i64> {
    order_status_at(reader, keys, input, None)
}

/// The warehouse and district rows a remote customer's order_status reads
/// at the home desk `(w, d)`.
pub fn order_status_desk(keys: &TpccKeys, w: u32, d: u32) -> KeyGroup {
    (w as u64, vec![keys.warehouse(w), keys.district(w, d)])
}

/// order_status in three hops — customer and latest-order index, the
/// order, its lines — with the home desk's rows ([`order_status_desk`])
/// read in the first hop when the customer belongs to a remote warehouse.
pub fn order_status_at(
    reader: &mut impl HopReader,
    keys: &TpccKeys,
    input: &OrderStatusInput,
    desk: Option<(u32, u32)>,
) -> CcResult<i64> {
    let (w, d, c) = (input.w, input.d, input.c);
    let mut first = vec![(
        w as u64,
        vec![keys.customer(w, d, c), keys.customer_order_index(w, d, c)],
    )];
    first.extend(desk.map(|(w, d)| order_status_desk(keys, w, d)));
    // One buffer for every hop: an order has at most 15 lines.
    let mut values = Vec::with_capacity(16);
    reader.read_hop(first, &mut values)?;
    let balance = values[0].as_ref().and_then(|v| v.field(0)).unwrap_or(0);
    if let Some(o_id) = values[1].as_ref().and_then(|v| v.as_int()) {
        let o_id = o_id as u32;
        values.clear();
        reader.read_hop(vec![(w as u64, vec![keys.order(w, d, o_id)])], &mut values)?;
        let ol_cnt = values[0].as_ref().and_then(|v| v.field(0)).unwrap_or(0);
        let lines = (0..ol_cnt.max(0) as u32)
            .map(|line| keys.order_line(w, d, o_id, line))
            .collect();
        values.clear();
        reader.read_hop(vec![(w as u64, lines)], &mut values)?;
    }
    Ok(balance)
}

/// Inputs of one `stock_level` invocation.
#[derive(Clone, Copy, Debug)]
pub struct StockLevelInput {
    /// Warehouse.
    pub w: u32,
    /// District.
    pub d: u32,
    /// Quantity threshold.
    pub threshold: i64,
    /// How many recent orders to examine (TPC-C uses 20).
    pub recent_orders: u32,
}

/// The stock_level read-only transaction: counts recently sold items whose
/// stock is below the threshold. Reads in its declared table order, one
/// hop per table: the district's order cursor, the recent orders, their
/// lines, the lines' stock rows.
pub fn stock_level(
    reader: &mut impl HopReader,
    keys: &TpccKeys,
    input: &StockLevelInput,
) -> CcResult<u64> {
    let (w, d) = (input.w, input.d);
    let hop = |keys: Vec<Key>| vec![(w as u64, keys)];
    // One buffer for every hop: each hop's keys are built from the last
    // hop's values before the buffer is cleared for its own.
    let mut values = Vec::new();
    reader.read_hop(hop(vec![keys.district(w, d)]), &mut values)?;
    let next_o_id = values[0]
        .as_ref()
        .and_then(|v| v.field(district_fields::NEXT_O_ID))
        .unwrap_or(1);
    let low = (next_o_id - input.recent_orders as i64).max(1);
    let order_ids = (low..next_o_id).map(|o| o as u32);
    let order_keys = order_ids.clone().map(|o_id| keys.order(w, d, o_id));
    values.clear();
    reader.read_hop(hop(order_keys.collect()), &mut values)?;
    let mut line_keys = Vec::new();
    for (o_id, order) in order_ids.zip(&values) {
        let ol_cnt = order.as_ref().and_then(|v| v.field(0)).unwrap_or(0);
        line_keys.extend((0..ol_cnt.max(0) as u32).map(|line| keys.order_line(w, d, o_id, line)));
    }
    values.clear();
    reader.read_hop(hop(line_keys), &mut values)?;
    let stock_keys = values
        .iter()
        .map(|line| {
            let item = line.as_ref().and_then(|v| v.field(0)).unwrap_or(0);
            keys.stock(w, item as u32)
        })
        .collect();
    values.clear();
    reader.read_hop(hop(stock_keys), &mut values)?;
    Ok(values
        .iter()
        .filter(|stock| stock.as_ref().and_then(|v| v.field(0)).unwrap_or(0) < input.threshold)
        .count() as u64)
}

/// Inputs of one `hot_item` invocation (§4.6.3).
#[derive(Clone, Copy, Debug)]
pub struct HotItemInput {
    /// Warehouse to sample.
    pub w: u32,
    /// District to sample.
    pub d: u32,
    /// How many recent orders to sample.
    pub recent_orders: u32,
}

/// The hot_item extension transaction: samples recent orders and aggregates
/// per-item sale counts into the item_stats table.
pub fn hot_item(txn: &mut Txn<'_>, keys: &TpccKeys, input: &HotItemInput) -> CcResult<u64> {
    let next_o_id = txn
        .get(keys.district(input.w, input.d))?
        .and_then(|v| v.field(district_fields::NEXT_O_ID))
        .unwrap_or(1);
    let low = (next_o_id - input.recent_orders as i64).max(1);
    let mut updated = 0u64;
    for o_id in low..next_o_id {
        let order = txn.get(keys.order(input.w, input.d, o_id as u32))?;
        let ol_cnt = order.and_then(|v| v.field(0)).unwrap_or(0);
        for line in 0..ol_cnt.max(0) as u32 {
            let item = txn
                .get(keys.order_line(input.w, input.d, o_id as u32, line))?
                .and_then(|v| v.field(0))
                .unwrap_or(0);
            txn.increment(keys.item_stats(item as u32), 0, 1)?;
            updated += 1;
        }
    }
    Ok(updated)
}

/// Loads the initial TPC-C population directly into the store.
pub fn load(db: &tebaldi_core::Database, keys: &TpccKeys, params: &TpccParams) {
    load_partition(db, keys, params, |_| true)
}

/// Loads only the warehouses accepted by `owns` (cluster shards own
/// disjoint warehouse sets); the read-mostly item catalog is replicated on
/// every shard.
pub fn load_partition(
    db: &tebaldi_core::Database,
    keys: &TpccKeys,
    params: &TpccParams,
    owns: impl Fn(u32) -> bool,
) {
    for w in (0..params.warehouses).filter(|w| owns(*w)) {
        db.load(keys.warehouse(w), Value::row(&[0]));
        for d in 0..params.districts_per_warehouse {
            // next_o_id starts at 1, ytd 0, next_delivery 1.
            db.load(keys.district(w, d), Value::row(&[1, 0, 1]));
            for c in 0..params.customers_per_district {
                db.load(keys.customer(w, d, c), Value::row(&[0, 0, 0]));
            }
        }
        for item in 0..params.items {
            db.load(keys.stock(w, item), Value::row(&[100, 0, 0]));
        }
    }
    for item in 0..params.items {
        db.load(keys.item(item), Value::row(&[(item as i64 % 90) + 10]));
        if params.with_hot_item {
            db.load(keys.item_stats(item), Value::Int(0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpcc::configs;
    use crate::tpcc::schema::{procedures, types, TpccTables};
    use tebaldi_core::{Database, DbConfig, ProcedureCall};

    #[test]
    fn order_ids_start_at_one_and_every_order_is_delivered() {
        let params = TpccParams::tiny();
        let keys = TpccKeys {
            tables: TpccTables::default(),
        };
        let db = Database::builder(DbConfig::for_tests())
            .procedures(procedures(&keys.tables, false))
            .cc_spec(configs::monolithic_2pl())
            .build()
            .expect("database build");
        load(&db, &keys, &params);
        let (w, d, k) = (0, 1, 5u32);
        let read = |key| {
            db.execute(&ProcedureCall::new(types::ORDER_STATUS), |txn| txn.get(key))
                .expect("read")
        };

        let input = NewOrderInput {
            w,
            d,
            c: 3,
            lines: vec![(7, w, 2), (8, w, 1)],
        };
        for i in 1..=k {
            let o_id = db
                .execute(&ProcedureCall::new(types::NEW_ORDER), |txn| {
                    if i % 2 == 0 {
                        new_order_stock_first(txn, &keys, &input)
                    } else {
                        new_order(txn, &keys, &input)
                    }
                })
                .expect("new_order");
            assert_eq!(o_id, i, "the i-th order of a district is order i");
        }
        for o_id in 1..=k {
            assert!(read(keys.order(w, d, o_id)).is_some(), "order {o_id}");
            assert!(read(keys.new_order(w, d, o_id)).is_some(), "marker {o_id}");
        }
        assert!(read(keys.order(w, d, k + 1)).is_none());

        let delivery_input = DeliveryInput {
            w,
            carrier: 4,
            districts: params.districts_per_warehouse,
        };
        for _ in 0..k {
            let delivered = db
                .execute(&ProcedureCall::new(types::DELIVERY), |txn| {
                    delivery(txn, &keys, &delivery_input)
                })
                .expect("delivery");
            assert_eq!(delivered, 1, "only district {d} has an order pending");
        }
        for o_id in 1..=k {
            assert!(read(keys.new_order(w, d, o_id)).is_none(), "marker {o_id}");
            let order = read(keys.order(w, d, o_id)).expect("order");
            assert_eq!(order.field(2), Some(4), "order {o_id} carries the carrier");
        }
        let district = read(keys.district(w, d)).expect("district");
        assert_eq!(
            district.field(district_fields::NEXT_O_ID),
            Some(k as i64 + 1)
        );
        assert_eq!(
            district.field(district_fields::NEXT_DELIVERY_O_ID),
            Some(k as i64 + 1)
        );
        db.shutdown();
    }
}
