//! One body per procedure: the read-only TPC-C and SEATS bodies are written
//! once against the hop reader, so over a `Txn` on the owning shard's
//! database and over a cluster HLC snapshot they are handed the same keys,
//! hop by hop, and return the same answer.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tebaldi_suite::cc::CcResult;
use tebaldi_suite::cluster::{Cluster, ClusterConfig};
use tebaldi_suite::core::{ProcRegistry, ProcedureCall};
use tebaldi_suite::storage::Value;
use tebaldi_suite::workloads::seats::cluster::ClusterSeats;
use tebaldi_suite::workloads::seats::{self, Seats, SeatsParams};
use tebaldi_suite::workloads::tpcc::cluster::ClusterTpcc;
use tebaldi_suite::workloads::tpcc::schema::{types, TpccParams};
use tebaldi_suite::workloads::tpcc::transactions::{
    order_status_at, stock_level, OrderStatusInput, StockLevelInput,
};
use tebaldi_suite::workloads::tpcc::{configs, Tpcc};
use tebaldi_suite::workloads::{ClusterWorkload, HopReader, KeyGroup};

/// A hop reader that records every hop it is handed before passing it on.
struct Recording<'r> {
    reader: &'r mut dyn HopReader,
    hops: Vec<Vec<KeyGroup>>,
}

impl<'r> Recording<'r> {
    fn new(reader: &'r mut dyn HopReader) -> Self {
        Recording {
            reader,
            hops: Vec::new(),
        }
    }
}

impl HopReader for Recording<'_> {
    fn read_hop(&mut self, groups: Vec<KeyGroup>, out: &mut Vec<Option<Value>>) -> CcResult<()> {
        self.hops.push(groups.clone());
        self.reader.read_hop(groups, out)
    }
}

fn build(workload: &dyn ClusterWorkload, spec: tebaldi_suite::cc::CcTreeSpec) -> Cluster {
    let mut registry = ProcRegistry::new();
    workload.register_procedures(&mut registry);
    let cluster = Cluster::builder(ClusterConfig::for_tests(2))
        .procedures(workload.procedures())
        .shard_procedures(registry)
        .cc_spec(spec)
        .build()
        .unwrap();
    workload.load(&cluster);
    cluster
}

/// An answer and the hops the body was handed on the way.
type Recorded<T> = (T, Vec<Vec<KeyGroup>>);

/// Runs `body` over a `Txn` on `shard`'s database and over a cluster
/// snapshot.
fn both_readers<T>(
    cluster: &Cluster,
    shard: usize,
    call: &ProcedureCall,
    body: impl Fn(&mut Recording<'_>) -> CcResult<T>,
) -> (Recorded<T>, Recorded<T>) {
    let over_txn = cluster
        .shard(shard)
        .execute(call, |txn| {
            let mut recording = Recording::new(txn);
            let answer = body(&mut recording)?;
            Ok((answer, recording.hops))
        })
        .expect("read over a Txn");
    let mut snapshot = cluster.snapshot();
    let mut recording = Recording::new(&mut snapshot);
    let answer = body(&mut recording).expect("read over a snapshot");
    (over_txn, (answer, recording.hops))
}

/// Commits `units` transactions of `workload` through the cluster, then
/// waits out the millisecond: a single-shard commit is stamped by its
/// shard's clock, so a snapshot drawn a millisecond later covers it.
fn commit(workload: &dyn ClusterWorkload, cluster: &Cluster, units: usize) -> usize {
    let mut rng = StdRng::seed_from_u64(7);
    let committed = (0..units)
        .filter(|_| workload.run_once(cluster, &mut rng).committed)
        .count();
    std::thread::sleep(std::time::Duration::from_millis(5));
    committed
}

#[test]
fn tpcc_read_bodies_agree_over_a_txn_and_a_snapshot() {
    let params = TpccParams::tiny();
    let workload = ClusterTpcc::new(
        Tpcc::new(params).with_mix(vec![(types::NEW_ORDER, 0.8), (types::DELIVERY, 0.2)]),
    );
    let cluster = build(&workload, configs::monolithic_2pl());
    assert!(commit(&workload, &cluster, 120) > 60);
    let keys = workload.inner.keys;
    let (mut with_orders, mut remote_desks) = (0, 0);
    for w in 0..params.warehouses {
        let shard = cluster.shard_of(w as u64);
        let other = (w + 1) % params.warehouses;
        for d in 0..params.districts_per_warehouse {
            let input = StockLevelInput {
                w,
                d,
                threshold: 95,
                recent_orders: 20,
            };
            let ((txn_count, txn_hops), (snap_count, snap_hops)) = both_readers(
                &cluster,
                shard,
                &ProcedureCall::new(types::STOCK_LEVEL),
                |reader| stock_level(reader, &keys, &input),
            );
            assert_eq!(txn_count, snap_count, "stock_level of ({w}, {d})");
            assert_eq!(txn_hops, snap_hops, "stock_level of ({w}, {d})");
            assert_eq!(txn_hops.len(), 4, "district, orders, lines, stock");
            assert!(!txn_hops[3][0].1.is_empty(), "({w}, {d}) sold items");

            for c in 0..params.customers_per_district {
                let input = OrderStatusInput { w, d, c };
                for desk in [None, Some((other, d))] {
                    let ((txn_balance, txn_hops), (snap_balance, snap_hops)) = both_readers(
                        &cluster,
                        shard,
                        &ProcedureCall::new(types::ORDER_STATUS),
                        |reader| order_status_at(reader, &keys, &input, desk),
                    );
                    assert_eq!(txn_balance, snap_balance, "order_status of {input:?}");
                    assert_eq!(txn_hops, snap_hops, "order_status of {input:?}");
                    with_orders += usize::from(txn_hops.len() == 3);
                    remote_desks += usize::from(txn_hops[0].len() == 2);
                }
            }
        }
    }
    assert!(with_orders > 0, "some customer has an order");
    assert!(remote_desks > 0, "some check ran with a remote desk");
    cluster.shutdown();
}

#[test]
fn seats_find_open_seats_agrees_over_a_txn_and_a_snapshot() {
    let params = SeatsParams::tiny();
    let workload = ClusterSeats::new(Seats::new(params));
    let cluster = build(&workload, seats::configs::monolithic_2pl());
    // Book every other seat of each flight's first window.
    let window = params.window();
    let mut booked = 0;
    for flight in 0..params.flights {
        for seat in (0..window.probes).map(|probe| probe * 37 % window.seats_per_flight) {
            let customer = (flight * 7 + seat) % params.customers;
            booked += usize::from(
                seat % 2 == 0
                    && workload
                        .new_reservation(&cluster, flight, seat, customer)
                        .committed,
            );
        }
    }
    assert!(booked > 0);
    std::thread::sleep(std::time::Duration::from_millis(5));
    let t = workload.inner.tables;
    for flight in 0..params.flights {
        for seat in [0, 1, 37] {
            let ((txn_open, txn_hops), (snap_open, snap_hops)) = both_readers(
                &cluster,
                cluster.shard_of(flight as u64),
                &ProcedureCall::new(seats::types::FIND_OPEN_SEATS),
                |reader| seats::find_open_seats(reader, &t, window, flight, seat),
            );
            assert_eq!(txn_open, snap_open, "flight {flight} from seat {seat}");
            assert_eq!(txn_hops, snap_hops, "flight {flight} from seat {seat}");
            assert_eq!(txn_hops.len(), 1, "one hop");
            assert_eq!(txn_hops[0][0].1.len(), 1 + window.probes as usize);
            if seat == 0 {
                assert!(
                    txn_open < window.probes,
                    "flight {flight}'s window has sold seats"
                );
            }
        }
    }
    cluster.shutdown();
}
