//! The TPC-C workload (§4.6.1, §5.6.1) and its CC-tree configurations.
//!
//! The standard mix follows TPC-C (45% new_order, 43% payment, 4% each of
//! delivery, order_status and stock_level); when the hot_item extension of
//! §4.6.3 is enabled the mix becomes 41.8 / 41.8 / 4.1 / 4.1 / 4.1 / 4.1 as
//! in the paper.
//!
//! [`configs`] builds every configuration evaluated in the paper:
//! monolithic 2PL and SSI, the two Callas groupings of Fig. 4.6a/b, and the
//! Tebaldi two- and three-layer hierarchies of Fig. 4.6c/d (plus the
//! three-/four-layer hot_item variants of §4.6.3 and the manual/automatic
//! configurations referenced in Chapter 5).

pub mod cluster;
pub mod schema;
pub mod transactions;

use crate::workload::{WorkUnit, Workload};
use rand::rngs::StdRng;
use rand::Rng;
use schema::{types, TpccKeys, TpccParams, TpccTables};
use std::sync::atomic::{AtomicU32, Ordering};
use tebaldi_cc::{CcKind, CcNodeSpec, CcTreeSpec, ProcedureSet};
use tebaldi_core::{Database, ProcedureCall};
use tebaldi_storage::TxnTypeId;

/// The TPC-C workload generator.
pub struct Tpcc {
    /// Scale parameters.
    pub params: TpccParams,
    /// Key constructors.
    pub keys: TpccKeys,
    history_seq: AtomicU32,
    /// Maximum retry attempts per transaction.
    pub max_attempts: usize,
    /// Optional custom transaction mix: `(type, weight)` pairs replacing the
    /// standard mix (used by the grouping study of Table 3.1 and the
    /// profiling case study of §5.3.1).
    pub custom_mix: Option<Vec<(TxnTypeId, f64)>>,
    /// Table 3.1's "deadlock" column: make new_order access the stock table
    /// before the district table, inverting the lock order against
    /// stock_level at a 2PL cross-group node.
    pub new_order_stock_first: bool,
    /// Table 3.1's "no conflict" column: new_order/payment use the lower
    /// half of the warehouses while the read-only transactions use the upper
    /// half, eliminating cross-group read-write conflicts.
    pub disjoint_warehouses: bool,
}

impl Tpcc {
    /// Creates the workload with the given parameters.
    pub fn new(params: TpccParams) -> Self {
        Tpcc {
            params,
            keys: TpccKeys {
                tables: TpccTables::default(),
            },
            history_seq: AtomicU32::new(1),
            max_attempts: 50,
            custom_mix: None,
            new_order_stock_first: false,
            disjoint_warehouses: false,
        }
    }

    /// Replaces the standard transaction mix.
    pub fn with_mix(mut self, mix: Vec<(TxnTypeId, f64)>) -> Self {
        self.custom_mix = Some(mix);
        self
    }

    fn pick_warehouse(&self, ty: TxnTypeId, rng: &mut StdRng) -> u32 {
        if self.disjoint_warehouses && self.params.warehouses > 1 {
            let half = self.params.warehouses / 2;
            let read_only = ty == types::ORDER_STATUS || ty == types::STOCK_LEVEL;
            if read_only {
                half + rng.gen_range(0..(self.params.warehouses - half))
            } else {
                rng.gen_range(0..half)
            }
        } else {
            rng.gen_range(0..self.params.warehouses)
        }
    }

    fn pick_type(&self, rng: &mut StdRng) -> TxnTypeId {
        if let Some(mix) = &self.custom_mix {
            let total: f64 = mix.iter().map(|(_, w)| w).sum();
            let mut roll: f64 = rng.gen::<f64>() * total;
            for (ty, weight) in mix {
                if roll < *weight {
                    return *ty;
                }
                roll -= weight;
            }
            return mix.last().map(|(ty, _)| *ty).unwrap_or(types::PAYMENT);
        }
        let roll: f64 = rng.gen();
        if self.params.with_hot_item {
            // 41.8 / 41.8 / 4.1 / 4.1 / 4.1 / 4.1 (§4.6.3)
            match roll {
                r if r < 0.418 => types::NEW_ORDER,
                r if r < 0.836 => types::PAYMENT,
                r if r < 0.877 => types::DELIVERY,
                r if r < 0.918 => types::ORDER_STATUS,
                r if r < 0.959 => types::STOCK_LEVEL,
                _ => types::HOT_ITEM,
            }
        } else {
            match roll {
                r if r < 0.45 => types::NEW_ORDER,
                r if r < 0.88 => types::PAYMENT,
                r if r < 0.92 => types::DELIVERY,
                r if r < 0.96 => types::ORDER_STATUS,
                _ => types::STOCK_LEVEL,
            }
        }
    }

    fn execute_type(&self, db: &Database, ty: TxnTypeId, rng: &mut StdRng) -> WorkUnit {
        let w = self.pick_warehouse(ty, rng);
        let d = rng.gen_range(0..self.params.districts_per_warehouse);
        let c = rng.gen_range(0..self.params.customers_per_district);
        let keys = &self.keys;
        let call = ProcedureCall::new(ty);
        let result = match ty {
            t if t == types::PAYMENT => {
                let input = transactions::PaymentInput {
                    w,
                    d,
                    c,
                    amount: rng.gen_range(100..5_000),
                    history_seq: self.history_seq.fetch_add(1, Ordering::Relaxed),
                };
                db.execute_with_retry(&call, self.max_attempts, |txn| {
                    transactions::payment(txn, keys, &input)
                })
                .map(|(_, aborts)| aborts)
            }
            t if t == types::NEW_ORDER => {
                let line_count = rng.gen_range(5..=15);
                let lines: Vec<(u32, u32, i64)> = (0..line_count)
                    .map(|_| {
                        let item = rng.gen_range(0..self.params.items);
                        // 1% remote warehouse accesses as in TPC-C.
                        let supply_w = if self.params.warehouses > 1 && rng.gen_bool(0.01) {
                            (w + 1) % self.params.warehouses
                        } else {
                            w
                        };
                        (item, supply_w, rng.gen_range(1..10))
                    })
                    .collect();
                let input = transactions::NewOrderInput { w, d, c, lines };
                let stock_first = self.new_order_stock_first;
                db.execute_with_retry(&call, self.max_attempts, |txn| {
                    if stock_first {
                        transactions::new_order_stock_first(txn, keys, &input)
                    } else {
                        transactions::new_order(txn, keys, &input)
                    }
                })
                .map(|(_, aborts)| aborts)
            }
            t if t == types::DELIVERY => {
                let input = transactions::DeliveryInput {
                    w,
                    carrier: rng.gen_range(1..10),
                    districts: self.params.districts_per_warehouse,
                };
                db.execute_with_retry(&call, self.max_attempts, |txn| {
                    transactions::delivery(txn, keys, &input)
                })
                .map(|(_, aborts)| aborts)
            }
            t if t == types::ORDER_STATUS => {
                let input = transactions::OrderStatusInput { w, d, c };
                db.execute_with_retry(&call, self.max_attempts, |txn| {
                    transactions::order_status(txn, keys, &input)
                })
                .map(|(_, aborts)| aborts)
            }
            t if t == types::HOT_ITEM => {
                let input = transactions::HotItemInput {
                    w,
                    d,
                    recent_orders: 10,
                };
                db.execute_with_retry(&call, self.max_attempts, |txn| {
                    transactions::hot_item(txn, keys, &input)
                })
                .map(|(_, aborts)| aborts)
            }
            _ => {
                let input = transactions::StockLevelInput {
                    w,
                    d,
                    threshold: 50,
                    recent_orders: 20,
                };
                db.execute_with_retry(&call, self.max_attempts, |txn| {
                    transactions::stock_level(txn, keys, &input)
                })
                .map(|(_, aborts)| aborts)
            }
        };
        match result {
            Ok(aborts) => WorkUnit::committed(ty, aborts),
            Err(_) => WorkUnit::failed(ty, self.max_attempts),
        }
    }
}

impl Workload for Tpcc {
    fn name(&self) -> &str {
        "tpcc"
    }

    fn procedures(&self) -> ProcedureSet {
        schema::procedures(&self.keys.tables, self.params.with_hot_item)
    }

    fn load(&self, db: &Database) {
        transactions::load(db, &self.keys, &self.params);
    }

    fn run_once(&self, db: &Database, rng: &mut StdRng) -> WorkUnit {
        let ty = self.pick_type(rng);
        self.execute_type(db, ty, rng)
    }
}

/// The CC-tree configurations evaluated on TPC-C.
pub mod configs {
    use super::*;

    /// Monolithic two-phase locking.
    pub fn monolithic_2pl() -> CcTreeSpec {
        CcTreeSpec::monolithic(CcKind::TwoPl, schema::standard_types())
    }

    /// Monolithic serializable snapshot isolation.
    pub fn monolithic_ssi() -> CcTreeSpec {
        CcTreeSpec::monolithic(CcKind::Ssi, schema::standard_types())
    }

    /// Callas-1 (Fig. 4.6a): 2PL cross-group over RP{PAY,NO}, RP{DEL} and
    /// the read-only group.
    pub fn callas_1() -> CcTreeSpec {
        CcTreeSpec::new(CcNodeSpec::inner(
            CcKind::TwoPl,
            "callas-1",
            vec![
                CcNodeSpec::leaf(CcKind::Rp, "pay+no", vec![types::PAYMENT, types::NEW_ORDER]),
                CcNodeSpec::leaf(CcKind::Rp, "del", vec![types::DELIVERY]),
                CcNodeSpec::leaf(
                    CcKind::NoCc,
                    "read-only",
                    vec![types::ORDER_STATUS, types::STOCK_LEVEL],
                ),
            ],
        ))
    }

    /// Callas-2 (Fig. 4.6b): stock_level moved into the RP group with
    /// payment and new_order.
    pub fn callas_2() -> CcTreeSpec {
        CcTreeSpec::new(CcNodeSpec::inner(
            CcKind::TwoPl,
            "callas-2",
            vec![
                CcNodeSpec::leaf(
                    CcKind::Rp,
                    "pay+no+sl",
                    vec![types::PAYMENT, types::NEW_ORDER, types::STOCK_LEVEL],
                ),
                CcNodeSpec::leaf(CcKind::Rp, "del", vec![types::DELIVERY]),
                CcNodeSpec::leaf(CcKind::NoCc, "read-only", vec![types::ORDER_STATUS]),
            ],
        ))
    }

    /// Tebaldi two-layer (Fig. 4.6c): SSI cross-group over the read-only
    /// group and one RP update group.
    pub fn tebaldi_two_layer() -> CcTreeSpec {
        CcTreeSpec::new(CcNodeSpec::inner(
            CcKind::Ssi,
            "tebaldi-2layer",
            vec![
                CcNodeSpec::leaf(
                    CcKind::NoCc,
                    "read-only",
                    vec![types::ORDER_STATUS, types::STOCK_LEVEL],
                ),
                CcNodeSpec::leaf(
                    CcKind::Rp,
                    "updates",
                    vec![types::PAYMENT, types::NEW_ORDER, types::DELIVERY],
                ),
            ],
        ))
    }

    /// Tebaldi three-layer (Fig. 4.6d): SSI at the root, 2PL between the
    /// update groups, RP inside each.
    pub fn tebaldi_three_layer() -> CcTreeSpec {
        CcTreeSpec::new(CcNodeSpec::inner(
            CcKind::Ssi,
            "tebaldi-3layer",
            vec![
                CcNodeSpec::leaf(
                    CcKind::NoCc,
                    "read-only",
                    vec![types::ORDER_STATUS, types::STOCK_LEVEL],
                ),
                CcNodeSpec::inner(
                    CcKind::TwoPl,
                    "updates",
                    vec![
                        CcNodeSpec::leaf(
                            CcKind::Rp,
                            "pay+no",
                            vec![types::PAYMENT, types::NEW_ORDER],
                        ),
                        CcNodeSpec::leaf(CcKind::Rp, "del", vec![types::DELIVERY]),
                    ],
                ),
            ],
        ))
    }

    /// §4.6.3: hot_item placed inside the payment/new_order RP group (the
    /// three-layer option).
    pub fn hot_item_three_layer() -> CcTreeSpec {
        CcTreeSpec::new(CcNodeSpec::inner(
            CcKind::Ssi,
            "hot-item-3layer",
            vec![
                CcNodeSpec::leaf(
                    CcKind::NoCc,
                    "read-only",
                    vec![types::ORDER_STATUS, types::STOCK_LEVEL],
                ),
                CcNodeSpec::inner(
                    CcKind::TwoPl,
                    "updates",
                    vec![
                        CcNodeSpec::leaf(
                            CcKind::Rp,
                            "pay+no+hi",
                            vec![types::PAYMENT, types::NEW_ORDER, types::HOT_ITEM],
                        ),
                        CcNodeSpec::leaf(CcKind::Rp, "del", vec![types::DELIVERY]),
                    ],
                ),
            ],
        ))
    }

    /// §4.6.3: hot_item in its own group with RP as the cross-group
    /// mechanism towards payment/new_order (the four-layer option).
    pub fn hot_item_four_layer() -> CcTreeSpec {
        CcTreeSpec::new(CcNodeSpec::inner(
            CcKind::Ssi,
            "hot-item-4layer",
            vec![
                CcNodeSpec::leaf(
                    CcKind::NoCc,
                    "read-only",
                    vec![types::ORDER_STATUS, types::STOCK_LEVEL],
                ),
                CcNodeSpec::inner(
                    CcKind::TwoPl,
                    "updates",
                    vec![
                        CcNodeSpec::inner(
                            CcKind::Rp,
                            "pay+no|hi",
                            vec![
                                CcNodeSpec::leaf(
                                    CcKind::Rp,
                                    "pay+no",
                                    vec![types::PAYMENT, types::NEW_ORDER],
                                ),
                                CcNodeSpec::leaf(CcKind::TwoPl, "hi", vec![types::HOT_ITEM]),
                            ],
                        ),
                        CcNodeSpec::leaf(CcKind::Rp, "del", vec![types::DELIVERY]),
                    ],
                ),
            ],
        ))
    }

    /// The initial configuration of the automatic configurator (Fig. 5.2):
    /// SSI separating read-only transactions from a single 2PL update group.
    pub fn autoconf_initial() -> CcTreeSpec {
        CcTreeSpec::new(CcNodeSpec::inner(
            CcKind::Ssi,
            "initial",
            vec![
                CcNodeSpec::leaf(
                    CcKind::NoCc,
                    "read-only",
                    vec![types::ORDER_STATUS, types::STOCK_LEVEL],
                ),
                CcNodeSpec::leaf(
                    CcKind::TwoPl,
                    "updates",
                    vec![types::PAYMENT, types::NEW_ORDER, types::DELIVERY],
                ),
            ],
        ))
    }

    /// The manual configuration referenced by the Chapter 5 experiments
    /// (Fig. 5.12) — the same shape as the Tebaldi three-layer tree.
    pub fn manual_chapter5() -> CcTreeSpec {
        tebaldi_three_layer()
    }

    /// Every named configuration of Fig. 4.7, in presentation order.
    pub fn figure_4_7() -> Vec<(&'static str, CcTreeSpec)> {
        vec![
            ("2PL", monolithic_2pl()),
            ("SSI", monolithic_ssi()),
            ("Callas-1", callas_1()),
            ("Callas-2", callas_2()),
            ("Tebaldi 2-layer", tebaldi_two_layer()),
            ("Tebaldi 3-layer", tebaldi_three_layer()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{bench_config, BenchOptions};
    use std::sync::Arc;
    use tebaldi_core::DbConfig;

    #[test]
    fn configs_are_valid() {
        for (name, spec) in configs::figure_4_7() {
            assert!(spec.validate().is_ok(), "config {name} invalid");
        }
        assert!(configs::hot_item_three_layer().validate().is_ok());
        assert!(configs::hot_item_four_layer().validate().is_ok());
        assert!(configs::autoconf_initial().validate().is_ok());
    }

    /// Runs a quick smoke bench, retrying a couple of times: the 400 ms
    /// measurement window can record zero commits when the whole workspace
    /// test suite saturates the machine and the closed-loop clients get
    /// descheduled mid-run.
    fn smoke_bench(spec: CcTreeSpec, clients: usize, label: &str) -> u64 {
        let workload: Arc<dyn Workload> = Arc::new(Tpcc::new(TpccParams::tiny()));
        let mut committed = 0;
        for _ in 0..3 {
            committed = bench_config(
                &workload,
                spec.clone(),
                DbConfig::for_tests(),
                &BenchOptions::quick(clients).labeled(label),
            )
            .committed;
            if committed > 0 {
                break;
            }
        }
        committed
    }

    #[test]
    fn tpcc_runs_under_three_layer_config() {
        assert!(smoke_bench(configs::tebaldi_three_layer(), 4, "3layer") > 0);
    }

    #[test]
    fn tpcc_runs_under_monolithic_2pl() {
        assert!(smoke_bench(configs::monolithic_2pl(), 2, "2PL") > 0);
    }
}
