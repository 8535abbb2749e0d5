//! TPC-C partitioned by warehouse across a [`Cluster`].
//!
//! Each shard owns the warehouses the router maps to it (plus a replica of
//! the read-mostly item catalog). Transactions route by their home
//! warehouse:
//!
//! * `delivery`, `stock_level`, `hot_item` — always single-shard (they
//!   touch one warehouse),
//! * `new_order` — single-shard unless an order line's supplying warehouse
//!   lives on another shard (TPC-C's ~1% remote lines, configurable),
//! * `payment` — single-shard unless the paying customer belongs to a
//!   remote warehouse (TPC-C's 15% remote customers, configurable),
//! * `order_status` — single-shard unless the status check targets a
//!   remote warehouse's customer; the cross-shard variant is *fully
//!   read-only*, so every participant votes `ReadOnly` and the 2PC commits
//!   with zero prepare and zero decision records.
//!
//! Every invocation crosses the shard boundary as data: the transaction
//! bodies are registered once per cluster (see [`register_procedures`])
//! under the ids in [`procs`], and each call ships a
//! [`ProcId`](tebaldi_core::ProcId) plus an encoded argument buffer — so
//! the same workload runs unchanged over the in-process transport and over
//! TCP. An invocation is a list of per-shard parts — its home part plus one
//! part per other shard it touches — run by
//! [`Cluster::execute_multi_with_retry`]: one part takes the single-shard
//! path, several run under the coordinator's two-phase commit.
//!
//! Under a non-`Strong` default read consistency, `order_status` and
//! `stock_level` run on a pinned HLC snapshot instead: the same bodies
//! ([`transactions::order_status_at`], [`transactions::stock_level`]) read
//! their hops through the [`SnapshotHandle`](tebaldi_cluster::SnapshotHandle)
//! rather than a [`Txn`](tebaldi_core::Txn) — zero 2PC, zero locks, zero WAL
//! records.

use super::schema::types;
use super::{transactions, Tpcc};
use crate::hops::HopReader;
use crate::workload::{ClusterWorkload, WorkUnit};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use tebaldi_cc::{CcError, CcResult, ProcedureSet};
use tebaldi_cluster::{Cluster, ReadConsistency, ShardPart};
use tebaldi_core::{ProcRegistry, ProcedureCall};
use tebaldi_storage::codec::{ByteReader, ByteWriter, CodecError};
use tebaldi_storage::{TxnTypeId, Value};

/// One new_order line: (item, supplying warehouse, quantity).
type OrderLine = (u32, u32, i64);

/// The cluster-TPC-C shard-procedure ids (the workload owns the 100..120
/// range).
pub mod procs {
    use tebaldi_core::ProcId;

    /// new_order's home part: everything except the stock updates of the
    /// supplying warehouses its arguments name as remote (all of new_order
    /// when none is).
    pub const NEW_ORDER: ProcId = ProcId(100);
    /// Remote part of a cross-shard new_order: the stock updates owned by
    /// one remote shard.
    pub const NEW_ORDER_REMOTE_STOCK: ProcId = ProcId(102);
    /// payment with its customer on the home shard.
    pub const PAYMENT: ProcId = ProcId(103);
    /// Home part of a cross-shard payment (warehouse/district totals +
    /// history row, no customer).
    pub const PAYMENT_HOME: ProcId = ProcId(104);
    /// Customer part of a cross-shard payment (balance update on the
    /// customer's shard).
    pub const PAYMENT_CUSTOMER: ProcId = ProcId(105);
    /// Full order_status (read-only).
    pub const ORDER_STATUS: ProcId = ProcId(106);
    /// Home-desk part of a cross-shard order_status: reads the local
    /// warehouse/district reference rows (read-only vote).
    pub const ORDER_STATUS_DESK: ProcId = ProcId(107);
    /// Single-shard delivery.
    pub const DELIVERY: ProcId = ProcId(108);
    /// Single-shard stock_level (read-only).
    pub const STOCK_LEVEL: ProcId = ProcId(109);
    /// Single-shard hot_item.
    pub const HOT_ITEM: ProcId = ProcId(110);
}

fn bad_args(err: CodecError) -> CcError {
    CcError::Internal(format!("malformed tpcc args: {err}"))
}

fn put_lines(w: &mut ByteWriter, lines: &[OrderLine]) {
    w.put_u32(lines.len() as u32);
    for &(item, supply_w, qty) in lines {
        w.put_u32(item);
        w.put_u32(supply_w);
        w.put_i64(qty);
    }
}

fn get_lines(r: &mut ByteReader<'_>) -> Result<Vec<OrderLine>, CodecError> {
    let n = r.len_prefix()?;
    let mut lines = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        lines.push((r.u32()?, r.u32()?, r.i64()?));
    }
    Ok(lines)
}

/// new_order's home-part args: the input plus the supplying warehouses
/// whose stock rows live on other shards. The router computes the set, so
/// the shard body needs no routing knowledge at all.
fn new_order_args(input: &transactions::NewOrderInput, remote_ws: &[u32]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(input.w);
    w.put_u32(input.d);
    w.put_u32(input.c);
    put_lines(&mut w, &input.lines);
    w.put_u32(remote_ws.len() as u32);
    for &rw in remote_ws {
        w.put_u32(rw);
    }
    w.into_bytes()
}

fn remote_stock_args(lines: &[OrderLine]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_lines(&mut w, lines);
    w.into_bytes()
}

fn payment_args(input: &transactions::PaymentInput, c_w: u32, c_d: u32) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(input.w);
    w.put_u32(input.d);
    w.put_u32(input.c);
    w.put_i64(input.amount);
    w.put_u32(input.history_seq);
    w.put_u32(c_w);
    w.put_u32(c_d);
    w.into_bytes()
}

fn get_payment_input(
    r: &mut ByteReader<'_>,
) -> Result<(transactions::PaymentInput, u32, u32), CodecError> {
    let input = transactions::PaymentInput {
        w: r.u32()?,
        d: r.u32()?,
        c: r.u32()?,
        amount: r.i64()?,
        history_seq: r.u32()?,
    };
    let c_w = r.u32()?;
    let c_d = r.u32()?;
    Ok((input, c_w, c_d))
}

fn order_status_args(input: &transactions::OrderStatusInput) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(input.w);
    w.put_u32(input.d);
    w.put_u32(input.c);
    w.into_bytes()
}

fn stock_level_args(input: &transactions::StockLevelInput) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(input.w);
    w.put_u32(input.d);
    w.put_i64(input.threshold);
    w.put_u32(input.recent_orders);
    w.into_bytes()
}

/// Registers the cluster-TPC-C transaction bodies under the ids in
/// [`procs`]. `keys` is the workload's key-builder set; the bodies capture
/// it by value.
pub fn register_procedures(registry: &mut ProcRegistry, keys: super::schema::TpccKeys) {
    registry.register_fn(procs::NEW_ORDER, move |txn, args| {
        let mut r = ByteReader::new(args);
        let input = transactions::NewOrderInput {
            w: r.u32().map_err(bad_args)?,
            d: r.u32().map_err(bad_args)?,
            c: r.u32().map_err(bad_args)?,
            lines: get_lines(&mut r).map_err(bad_args)?,
        };
        let n = r.len_prefix().map_err(bad_args)?;
        let mut remote_ws = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            remote_ws.push(r.u32().map_err(bad_args)?);
        }
        transactions::new_order_filtered(txn, &keys, &input, |supply_w| {
            !remote_ws.contains(&supply_w)
        })
        .map(|o_id| Value::Int(o_id as i64))
    });
    registry.register_fn(procs::NEW_ORDER_REMOTE_STOCK, move |txn, args| {
        let mut r = ByteReader::new(args);
        let lines = get_lines(&mut r).map_err(bad_args)?;
        transactions::new_order_remote_stock(txn, &keys, &lines).map(|()| Value::Null)
    });
    registry.register_fn(procs::PAYMENT, move |txn, args| {
        let mut r = ByteReader::new(args);
        let (input, c_w, c_d) = get_payment_input(&mut r).map_err(bad_args)?;
        transactions::payment_home(txn, &keys, &input, Some((c_w, c_d))).map(|()| Value::Null)
    });
    registry.register_fn(procs::PAYMENT_HOME, move |txn, args| {
        let mut r = ByteReader::new(args);
        let (input, _, _) = get_payment_input(&mut r).map_err(bad_args)?;
        transactions::payment_home(txn, &keys, &input, None).map(|()| Value::Null)
    });
    registry.register_fn(procs::PAYMENT_CUSTOMER, move |txn, args| {
        let mut r = ByteReader::new(args);
        let (input, c_w, c_d) = get_payment_input(&mut r).map_err(bad_args)?;
        transactions::payment_customer(txn, &keys, c_w, c_d, input.c, input.amount)
            .map(|()| Value::Null)
    });
    registry.register_fn(procs::ORDER_STATUS, move |txn, args| {
        let mut r = ByteReader::new(args);
        let input = transactions::OrderStatusInput {
            w: r.u32().map_err(bad_args)?,
            d: r.u32().map_err(bad_args)?,
            c: r.u32().map_err(bad_args)?,
        };
        transactions::order_status(txn, &keys, &input).map(Value::Int)
    });
    registry.register_fn(procs::ORDER_STATUS_DESK, move |txn, args| {
        let mut r = ByteReader::new(args);
        let w = r.u32().map_err(bad_args)?;
        let d = r.u32().map_err(bad_args)?;
        txn.read_hop(
            vec![transactions::order_status_desk(&keys, w, d)],
            &mut Vec::new(),
        )?;
        Ok(Value::Null)
    });
    registry.register_fn(procs::DELIVERY, move |txn, args| {
        let mut r = ByteReader::new(args);
        let input = transactions::DeliveryInput {
            w: r.u32().map_err(bad_args)?,
            carrier: r.i64().map_err(bad_args)?,
            districts: r.u32().map_err(bad_args)?,
        };
        transactions::delivery(txn, &keys, &input).map(|n| Value::Int(n as i64))
    });
    registry.register_fn(procs::STOCK_LEVEL, move |txn, args| {
        let mut r = ByteReader::new(args);
        let input = transactions::StockLevelInput {
            w: r.u32().map_err(bad_args)?,
            d: r.u32().map_err(bad_args)?,
            threshold: r.i64().map_err(bad_args)?,
            recent_orders: r.u32().map_err(bad_args)?,
        };
        transactions::stock_level(txn, &keys, &input).map(|n| Value::Int(n as i64))
    });
    registry.register_fn(procs::HOT_ITEM, move |txn, args| {
        let mut r = ByteReader::new(args);
        let input = transactions::HotItemInput {
            w: r.u32().map_err(bad_args)?,
            d: r.u32().map_err(bad_args)?,
            recent_orders: r.u32().map_err(bad_args)?,
        };
        transactions::hot_item(txn, &keys, &input).map(|n| Value::Int(n as i64))
    });
}

/// TPC-C over a warehouse-sharded cluster.
pub struct ClusterTpcc {
    /// The underlying single-node workload (parameters, key builders, mix).
    pub inner: Tpcc,
    /// Probability that a new_order line is supplied by a remote warehouse
    /// (TPC-C: 0.01).
    pub remote_line_pct: f64,
    /// Probability that a payment is made by a customer of a remote
    /// warehouse (TPC-C: 0.15).
    pub remote_payment_pct: f64,
}

impl ClusterTpcc {
    /// Wraps a TPC-C instance with the standard remote-access rates.
    pub fn new(inner: Tpcc) -> Self {
        ClusterTpcc {
            inner,
            remote_line_pct: 0.01,
            remote_payment_pct: 0.15,
        }
    }

    /// Overrides the remote-access rates (the cluster bench sweeps these to
    /// control the single-shard fraction).
    pub fn with_remote_rates(mut self, line_pct: f64, payment_pct: f64) -> Self {
        self.remote_line_pct = line_pct;
        self.remote_payment_pct = payment_pct;
        self
    }

    /// Picks a warehouse different from `home` (requires ≥ 2 warehouses).
    fn pick_other_warehouse(&self, home: u32, rng: &mut StdRng) -> u32 {
        let n = self.inner.params.warehouses;
        let other = rng.gen_range(0..n - 1);
        if other >= home {
            other + 1
        } else {
            other
        }
    }

    fn run_new_order(&self, cluster: &Cluster, w: u32, rng: &mut StdRng) -> WorkUnit {
        let params = &self.inner.params;
        let d = rng.gen_range(0..params.districts_per_warehouse);
        let c = rng.gen_range(0..params.customers_per_district);
        let line_count = rng.gen_range(5..=15);
        let lines: Vec<OrderLine> = (0..line_count)
            .map(|_| {
                let item = rng.gen_range(0..params.items);
                let supply_w = if params.warehouses > 1 && rng.gen_bool(self.remote_line_pct) {
                    self.pick_other_warehouse(w, rng)
                } else {
                    w
                };
                (item, supply_w, rng.gen_range(1..10))
            })
            .collect();

        let home = cluster.shard_of(w as u64);
        // Group the remote-shard stock updates.
        let mut remote: HashMap<usize, Vec<OrderLine>> = HashMap::new();
        for line in &lines {
            let shard = cluster.shard_of(line.1 as u64);
            if shard != home {
                remote.entry(shard).or_default().push(*line);
            }
        }
        // Supplying warehouses whose stock lives on another shard — the
        // router decides here, once, and the shard bodies stay
        // routing-agnostic.
        let mut remote_ws: Vec<u32> = remote.values().flatten().map(|line| line.1).collect();
        remote_ws.sort_unstable();
        remote_ws.dedup();

        let call = ProcedureCall::new(types::NEW_ORDER);
        let input = transactions::NewOrderInput { w, d, c, lines };
        let result = cluster.execute_multi_with_retry(self.inner.max_attempts, || {
            let mut parts = Vec::with_capacity(1 + remote.len());
            parts.push(ShardPart::new(
                home,
                call.clone(),
                procs::NEW_ORDER,
                new_order_args(&input, &remote_ws),
            ));
            for (&shard, shard_lines) in remote.iter() {
                parts.push(ShardPart::new(
                    shard,
                    call.clone(),
                    procs::NEW_ORDER_REMOTE_STOCK,
                    remote_stock_args(shard_lines),
                ));
            }
            parts
        });
        unit(
            types::NEW_ORDER,
            result.map(|(_, aborts)| aborts),
            self.inner.max_attempts,
        )
    }

    fn run_payment(&self, cluster: &Cluster, w: u32, rng: &mut StdRng) -> WorkUnit {
        let params = &self.inner.params;
        let d = rng.gen_range(0..params.districts_per_warehouse);
        let c = rng.gen_range(0..params.customers_per_district);
        let input = transactions::PaymentInput {
            w,
            d,
            c,
            amount: rng.gen_range(100..5_000),
            history_seq: self.inner.history_seq.fetch_add(1, Ordering::Relaxed),
        };
        // Remote customer: the payer belongs to another warehouse.
        let (c_w, c_d) = if params.warehouses > 1 && rng.gen_bool(self.remote_payment_pct) {
            (
                self.pick_other_warehouse(w, rng),
                rng.gen_range(0..params.districts_per_warehouse),
            )
        } else {
            (w, d)
        };

        let call = ProcedureCall::new(types::PAYMENT);
        let home = cluster.shard_of(w as u64);
        let customer_shard = cluster.shard_of(c_w as u64);
        let result = cluster.execute_multi_with_retry(self.inner.max_attempts, || {
            let args = payment_args(&input, c_w, c_d);
            if home == customer_shard {
                return vec![ShardPart::new(home, call.clone(), procs::PAYMENT, args)];
            }
            vec![
                ShardPart::new(home, call.clone(), procs::PAYMENT_HOME, args.clone()),
                ShardPart::new(customer_shard, call.clone(), procs::PAYMENT_CUSTOMER, args),
            ]
        });
        unit(
            types::PAYMENT,
            result.map(|(_, aborts)| aborts),
            self.inner.max_attempts,
        )
    }

    /// order_status, routed. With probability `remote_payment_pct` the
    /// status check is for a customer of a *remote* warehouse (the same
    /// remote-customer model payment uses): the home desk reads its
    /// warehouse/district reference rows while the customer's shard runs
    /// the actual status query. Every part is read-only, so under the
    /// read-only participant optimization the whole cross-shard
    /// transaction commits with zero prepare records and zero decision
    /// records.
    fn run_order_status(&self, cluster: &Cluster, w: u32, rng: &mut StdRng) -> WorkUnit {
        let params = &self.inner.params;
        let d = rng.gen_range(0..params.districts_per_warehouse);
        let c = rng.gen_range(0..params.customers_per_district);
        let (c_w, c_d) = if params.warehouses > 1 && rng.gen_bool(self.remote_payment_pct) {
            (
                self.pick_other_warehouse(w, rng),
                rng.gen_range(0..params.districts_per_warehouse),
            )
        } else {
            (w, d)
        };
        let status = transactions::OrderStatusInput { w: c_w, d: c_d, c };
        let home = cluster.shard_of(w as u64);
        let customer_shard = cluster.shard_of(c_w as u64);
        // Under a snapshot (or bounded-staleness) default consistency the
        // pure read skips the procedure machinery entirely: the body reads
        // its hops from one pinned snapshot with zero 2PC, zero locks, and
        // zero WAL records, and reads the home desk's rows in its first
        // hop. BoundedStaleness routes here too — the multi-hop traversal
        // needs one pinned cut, which per-replica bounded reads cannot
        // provide.
        if !matches!(cluster.default_read_consistency(), ReadConsistency::Strong) {
            let desk = (home != customer_shard).then_some((w, d));
            let result = transactions::order_status_at(
                &mut cluster.snapshot(),
                &self.inner.keys,
                &status,
                desk,
            );
            return unit(
                types::ORDER_STATUS,
                result.map(|_| 0),
                self.inner.max_attempts,
            );
        }
        let call = ProcedureCall::new(types::ORDER_STATUS);
        let result = cluster.execute_multi_with_retry(self.inner.max_attempts, || {
            let mut parts = Vec::with_capacity(2);
            if home != customer_shard {
                let mut desk_args = ByteWriter::new();
                desk_args.put_u32(w);
                desk_args.put_u32(d);
                parts.push(ShardPart::new(
                    home,
                    call.clone(),
                    procs::ORDER_STATUS_DESK,
                    desk_args.into_bytes(),
                ));
            }
            parts.push(ShardPart::new(
                customer_shard,
                call.clone(),
                procs::ORDER_STATUS,
                order_status_args(&status),
            ));
            parts
        });
        unit(
            types::ORDER_STATUS,
            result.map(|(_, aborts)| aborts),
            self.inner.max_attempts,
        )
    }

    fn run_local(&self, cluster: &Cluster, ty: TxnTypeId, w: u32, rng: &mut StdRng) -> WorkUnit {
        let params = &self.inner.params;
        let d = rng.gen_range(0..params.districts_per_warehouse);
        let shard = cluster.shard_of(w as u64);
        let call = ProcedureCall::new(ty);
        let (proc, args) = match ty {
            t if t == types::DELIVERY => {
                let mut buf = ByteWriter::new();
                buf.put_u32(w);
                buf.put_i64(rng.gen_range(1..10));
                buf.put_u32(params.districts_per_warehouse);
                (procs::DELIVERY, buf.into_bytes())
            }
            t if t == types::HOT_ITEM => {
                let mut buf = ByteWriter::new();
                buf.put_u32(w);
                buf.put_u32(d);
                buf.put_u32(10);
                (procs::HOT_ITEM, buf.into_bytes())
            }
            _ => {
                let input = transactions::StockLevelInput {
                    w,
                    d,
                    threshold: 50,
                    recent_orders: 20,
                };
                // stock_level is a pure read: under a non-Strong default
                // consistency it rides the zero-2PC snapshot path.
                if !matches!(cluster.default_read_consistency(), ReadConsistency::Strong) {
                    let result = transactions::stock_level(
                        &mut cluster.snapshot(),
                        &self.inner.keys,
                        &input,
                    );
                    return unit(ty, result.map(|_| 0), self.inner.max_attempts);
                }
                (procs::STOCK_LEVEL, stock_level_args(&input))
            }
        };
        let result = cluster
            .execute_single(shard, proc, &call, args, self.inner.max_attempts)
            .map(|(_, aborts)| aborts);
        unit(ty, result, self.inner.max_attempts)
    }
}

fn unit(ty: TxnTypeId, result: CcResult<usize>, max_attempts: usize) -> WorkUnit {
    match result {
        Ok(aborts) => WorkUnit::committed(ty, aborts),
        Err(_) => WorkUnit::failed(ty, max_attempts),
    }
}

/// The TPC-C procedure set with the cluster-variant access list:
/// `order_status` additionally *reads* the home desk's warehouse and
/// district rows (the cross-shard decomposition's home part) — the
/// single-node transaction never touches them, so the shared
/// `schema::procedures` list stays untouched, mirroring how SEATS keeps a
/// separate `cluster_procedures`.
pub fn cluster_procedures(tables: &super::schema::TpccTables, with_hot_item: bool) -> ProcedureSet {
    use tebaldi_cc::{AccessMode::Read, ProcedureInfo};
    let mut set = super::schema::procedures(tables, with_hot_item);
    set.insert(ProcedureInfo::new(
        types::ORDER_STATUS,
        "order_status",
        vec![
            (tables.warehouse, Read),
            (tables.district, Read),
            (tables.customer, Read),
            (tables.customer_order_index, Read),
            (tables.order, Read),
            (tables.order_line, Read),
        ],
    ));
    set
}

impl ClusterWorkload for ClusterTpcc {
    fn name(&self) -> &str {
        "tpcc-cluster"
    }

    fn procedures(&self) -> ProcedureSet {
        cluster_procedures(&self.inner.keys.tables, self.inner.params.with_hot_item)
    }

    fn register_procedures(&self, registry: &mut ProcRegistry) {
        register_procedures(registry, self.inner.keys);
    }

    fn load(&self, cluster: &Cluster) {
        for shard in 0..cluster.shard_count() {
            let db = cluster.shard(shard);
            transactions::load_partition(&db, &self.inner.keys, &self.inner.params, |w| {
                cluster.shard_of(w as u64) == shard
            });
        }
    }

    fn run_once(&self, cluster: &Cluster, rng: &mut StdRng) -> WorkUnit {
        let ty = self.inner.pick_type(rng);
        let w = self.inner.pick_warehouse(ty, rng);
        match ty {
            t if t == types::NEW_ORDER => self.run_new_order(cluster, w, rng),
            t if t == types::PAYMENT => self.run_payment(cluster, w, rng),
            t if t == types::ORDER_STATUS => self.run_order_status(cluster, w, rng),
            _ => self.run_local(cluster, ty, w, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{configs, schema::TpccParams};
    use super::*;
    use crate::driver::{bench_cluster_config, BenchOptions};
    use std::sync::Arc;
    use tebaldi_cluster::ClusterConfig;

    #[test]
    fn cluster_tpcc_commits_on_four_shards() {
        let workload: Arc<dyn ClusterWorkload> =
            Arc::new(ClusterTpcc::new(Tpcc::new(TpccParams::tiny())).with_remote_rates(0.05, 0.2));
        // Retry: the quick measurement window can miss every commit when
        // the workspace test suite saturates the machine.
        let mut committed = 0;
        for _ in 0..3 {
            committed = bench_cluster_config(
                &workload,
                configs::monolithic_2pl(),
                ClusterConfig::for_tests(2),
                &BenchOptions::quick(4).labeled("cluster-2PL"),
            )
            .committed;
            if committed > 0 {
                break;
            }
        }
        assert!(committed > 0, "cluster TPC-C must make progress");
    }

    #[test]
    fn shards_own_disjoint_warehouses() {
        let workload = ClusterTpcc::new(Tpcc::new(TpccParams::tiny()));
        let mut registry = ProcRegistry::new();
        ClusterWorkload::register_procedures(&workload, &mut registry);
        let cluster = tebaldi_cluster::Cluster::builder(ClusterConfig::for_tests(2))
            .procedures(ClusterWorkload::procedures(&workload))
            .shard_procedures(registry)
            .cc_spec(configs::monolithic_2pl())
            .build()
            .unwrap();
        ClusterWorkload::load(&workload, &cluster);
        // Warehouse 0 lives on shard 0, warehouse 1 on shard 1 (modulo).
        let keys = &workload.inner.keys;
        let (db0, db1) = (cluster.shard(0), cluster.shard(1));
        let (shard0, shard1) = (db0.store(), db1.store());
        use tebaldi_storage::ReadSpec::LatestCommitted;
        assert!(shard0.read(&keys.warehouse(0), LatestCommitted).is_some());
        assert!(shard0.read(&keys.warehouse(1), LatestCommitted).is_none());
        assert!(shard1.read(&keys.warehouse(1), LatestCommitted).is_some());
        assert!(shard1.read(&keys.warehouse(0), LatestCommitted).is_none());
        // The item catalog is replicated.
        assert!(shard0.read(&keys.item(0), LatestCommitted).is_some());
        assert!(shard1.read(&keys.item(0), LatestCommitted).is_some());
        cluster.shutdown();
    }
}
