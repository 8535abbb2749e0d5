//! SEATS partitioned by flight across a [`Cluster`].
//!
//! Flights, their seat maps, and the per-flight/seat reservation rows are
//! owned by the shard the router assigns to the *flight id*; customers and
//! the customer→reservation index live on the shard assigned to the
//! *customer id* (the customer's home shard). Transactions route
//! accordingly:
//!
//! * `find_flights`, `find_open_seats` — always single-shard (they touch
//!   one flight's data),
//! * `update_customer` — always single-shard (the customer's home shard),
//! * `new_reservation`, `delete_reservation`, `update_reservation` —
//!   single-shard when the customer happens to live on the flight's shard,
//!   otherwise decomposed into a flight part plus a customer part under the
//!   coordinator's two-phase commit.
//!
//! The transaction bodies are registered once per cluster (see
//! [`register_procedures`]) under the ids in [`procs`]; every invocation
//! ships a [`ProcId`] plus a `(flight, seat,
//! customer)` argument buffer, so the workload runs unchanged over the
//! in-process transport and over TCP.
//!
//! The flight part carries the workload-level conditional (seat already
//! taken, reservation missing or owned by someone else): it votes to abort
//! the whole distributed transaction with a dedicated no-op error, which
//! rolls the unconditional customer part back on its shard — so the
//! cross-shard invariant "seats sold = reservation rows = customer
//! reservation counts" can never be violated, crash or no crash. The no-op
//! vote is [`Reason::BodyNoOp`], a body's own conditional abort, and
//! crosses the wire as a tag like every other abort cause.

use super::{book_seat, finish, release_seat, types, Seats, SeatsTables};
use crate::workload::{ClusterWorkload, WorkUnit};
use rand::rngs::StdRng;
use rand::Rng;
use tebaldi_cc::{AccessMode, CcError, CcResult, ProcedureInfo, ProcedureSet, Reason};
use tebaldi_cluster::{Cluster, ReadConsistency, ReadPart, ShardPart};
use tebaldi_core::{ProcId, ProcRegistry, ProcedureCall, Txn};
use tebaldi_storage::codec::{ByteReader, ByteWriter, CodecError};
use tebaldi_storage::{TxnTypeId, Value};

/// The cluster-SEATS shard-procedure ids (the workload owns the 200..220
/// range).
pub mod procs {
    use tebaldi_core::ProcId;

    /// Full single-shard new_reservation (customer co-located).
    pub const NR_SINGLE: ProcId = ProcId(200);
    /// Flight part of a cross-shard new_reservation (conditional).
    pub const NR_FLIGHT: ProcId = ProcId(201);
    /// Customer part of a cross-shard new_reservation (unconditional).
    pub const NR_CUSTOMER: ProcId = ProcId(202);
    /// Full single-shard delete_reservation.
    pub const DR_SINGLE: ProcId = ProcId(203);
    /// Flight part of a cross-shard delete_reservation (conditional).
    pub const DR_FLIGHT: ProcId = ProcId(204);
    /// Customer part of a cross-shard delete_reservation (unconditional).
    pub const DR_CUSTOMER: ProcId = ProcId(205);
    /// Full single-shard update_reservation.
    pub const UR_SINGLE: ProcId = ProcId(206);
    /// Flight part of a cross-shard update_reservation (read-write).
    pub const UR_FLIGHT: ProcId = ProcId(207);
    /// Customer part of a cross-shard update_reservation (read-only tier
    /// check → `ReadOnly` vote → one-phase commit).
    pub const UR_CUSTOMER: ProcId = ProcId(208);
    /// update_customer (always single-shard).
    pub const UPDATE_CUSTOMER: ProcId = ProcId(209);
    /// find_flights (read-only).
    pub const FIND_FLIGHTS: ProcId = ProcId(210);
    /// find_open_seats (read-only).
    pub const FIND_OPEN_SEATS: ProcId = ProcId(211);
}

/// The flight part's abort vote for a workload-level no-op (seat already
/// taken, reservation missing or owned by someone else): any part error
/// aborts the distributed transaction, rolling the unconditional customer
/// part back on its shard. A dedicated error value keeps the vote
/// distinguishable from the engine's own [`CcError::Requested`] aborts
/// (reconfiguration drains, gate timeouts), which must keep retrying.
fn no_op_vote() -> CcError {
    CcError::conflict(Reason::BodyNoOp)
}

/// Whether a 2PC failure was this workload's own no-op vote.
fn is_no_op_vote(err: &CcError) -> bool {
    *err == no_op_vote()
}

fn bad_args(err: CodecError) -> CcError {
    CcError::Internal(format!("malformed seats args: {err}"))
}

/// Every SEATS procedure takes the same `(flight, seat, customer)` triple.
fn fsc_args(flight: u32, seat: u32, customer: u32) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(flight);
    w.put_u32(seat);
    w.put_u32(customer);
    w.into_bytes()
}

fn get_fsc(args: &[u8]) -> CcResult<(u32, u32, u32)> {
    let mut r = ByteReader::new(args);
    let flight = r.u32().map_err(bad_args)?;
    let seat = r.u32().map_err(bad_args)?;
    let customer = r.u32().map_err(bad_args)?;
    Ok((flight, seat, customer))
}

/// The seat-window verify read set: like the full SEATS NewReservation,
/// the cluster variant re-checks availability around the chosen seat, so a
/// conflicted attempt wastes real work — the same contention shape that
/// makes TPC-C's new_order collapse under a single hot shard.
fn verify_window(
    txn: &mut Txn<'_>,
    t: &SeatsTables,
    flight: u32,
    seat: u32,
    probes: u32,
    seats_per_flight: u32,
) -> CcResult<()> {
    for probe in 0..probes {
        let s = (seat + probe * 37) % seats_per_flight;
        let _ = txn.get(t.reservation_key(flight, s))?;
    }
    Ok(())
}

/// Registers the cluster-SEATS transaction bodies under the ids in
/// [`procs`]. The bodies capture the table set and scale parameters by
/// value.
pub fn register_procedures(
    registry: &mut ProcRegistry,
    t: SeatsTables,
    probes: u32,
    seats_per_flight: u32,
) {
    registry.register_fn(procs::NR_SINGLE, move |txn, args| {
        let (flight, seat, customer) = get_fsc(args)?;
        // The seat is the window's first probe: booking it first, the verify
        // reads it as this transaction's own write instead of taking it
        // shared before the update.
        let booked = book_seat(txn, &t, flight, seat, customer)?;
        verify_window(txn, &t, flight, seat, probes, seats_per_flight)?;
        if booked {
            txn.increment(t.flight_key(flight), 0, 1)?;
            txn.increment(t.customer_key(customer), 1, 1)?;
            txn.put(
                t.customer_res_key(customer),
                Value::row(&[flight as i64, seat as i64]),
            )?;
        }
        Ok(Value::Null)
    });
    registry.register_fn(procs::NR_FLIGHT, move |txn, args| {
        let (flight, seat, customer) = get_fsc(args)?;
        if !book_seat(txn, &t, flight, seat, customer)? {
            return Err(no_op_vote());
        }
        verify_window(txn, &t, flight, seat, probes, seats_per_flight)?;
        txn.increment(t.flight_key(flight), 0, 1)?;
        Ok(Value::Null)
    });
    registry.register_fn(procs::NR_CUSTOMER, move |txn, args| {
        let (flight, seat, customer) = get_fsc(args)?;
        txn.increment(t.customer_key(customer), 1, 1)?;
        txn.put(
            t.customer_res_key(customer),
            Value::row(&[flight as i64, seat as i64]),
        )?;
        Ok(Value::Null)
    });
    registry.register_fn(procs::DR_SINGLE, move |txn, args| {
        let (flight, seat, customer) = get_fsc(args)?;
        if release_seat(txn, &t, flight, seat, customer)? {
            txn.increment(t.flight_key(flight), 0, -1)?;
            txn.increment(t.customer_key(customer), 1, -1)?;
            txn.delete(t.customer_res_key(customer))?;
        }
        Ok(Value::Null)
    });
    registry.register_fn(procs::DR_FLIGHT, move |txn, args| {
        let (flight, seat, customer) = get_fsc(args)?;
        if !release_seat(txn, &t, flight, seat, customer)? {
            return Err(no_op_vote());
        }
        txn.increment(t.flight_key(flight), 0, -1)?;
        Ok(Value::Null)
    });
    registry.register_fn(procs::DR_CUSTOMER, move |txn, args| {
        let (_, _, customer) = get_fsc(args)?;
        txn.increment(t.customer_key(customer), 1, -1)?;
        txn.delete(t.customer_res_key(customer))?;
        Ok(Value::Null)
    });
    registry.register_fn(procs::UR_SINGLE, move |txn, args| {
        let (flight, seat, customer) = get_fsc(args)?;
        let _ = txn.get(t.flight_key(flight))?;
        let _ = txn.get(t.customer_key(customer))?;
        txn.update(t.reservation_key(flight, seat), |row| {
            row.map(|r| r.with_field(2, 1))
        })?;
        Ok(Value::Null)
    });
    registry.register_fn(procs::UR_FLIGHT, move |txn, args| {
        let (flight, seat, _) = get_fsc(args)?;
        let _ = txn.get(t.flight_key(flight))?;
        txn.update(t.reservation_key(flight, seat), |row| {
            row.map(|r| r.with_field(2, 1))
        })?
        .map(|_| Value::Null)
        .ok_or_else(no_op_vote)
    });
    // Read-only customer part: fetch the profile, write nothing.
    registry.register_fn(procs::UR_CUSTOMER, move |txn, args| {
        let (_, _, customer) = get_fsc(args)?;
        Ok(txn.get(t.customer_key(customer))?.unwrap_or(Value::Null))
    });
    registry.register_fn(procs::UPDATE_CUSTOMER, move |txn, args| {
        let (_, _, customer) = get_fsc(args)?;
        txn.increment(t.customer_key(customer), 0, 10)?;
        Ok(Value::Null)
    });
    registry.register_fn(procs::FIND_FLIGHTS, move |txn, args| {
        let (flight, _, _) = get_fsc(args)?;
        let _ = txn.get(t.flight_info_key(flight))?;
        let _ = txn.get(t.flight_key(flight))?;
        Ok(Value::Null)
    });
    registry.register_fn(procs::FIND_OPEN_SEATS, move |txn, args| {
        let (flight, seat, _) = get_fsc(args)?;
        let _ = txn.get(t.flight_key(flight))?;
        verify_window(txn, &t, flight, seat, probes, seats_per_flight)?;
        Ok(Value::Null)
    });
}

/// SEATS over a flight-sharded cluster.
pub struct ClusterSeats {
    /// The underlying single-node workload (parameters, tables, mix).
    pub inner: Seats,
    /// Probability that a reservation transaction books for a customer
    /// whose home shard differs from the flight's shard (cross-shard 2PC).
    /// Mirrors TPC-C's remote-payment rate; the default keeps ~90% of the
    /// reservation traffic single-shard.
    pub remote_customer_pct: f64,
}

impl ClusterSeats {
    /// Wraps a SEATS instance with the standard remote-customer rate.
    pub fn new(inner: Seats) -> Self {
        ClusterSeats {
            inner,
            remote_customer_pct: 0.10,
        }
    }

    /// Overrides the remote-customer rate (benches and tests sweep this to
    /// control the single-shard fraction).
    pub fn with_remote_rate(mut self, pct: f64) -> Self {
        self.remote_customer_pct = pct;
        self
    }

    /// Picks a customer with the requested co-location relative to the
    /// flight's shard. Rejection sampling keeps this correct under both
    /// hash and range routing; the fallback only triggers when the routing
    /// cannot satisfy the request at all (e.g. a one-shard cluster).
    fn pick_customer(&self, cluster: &Cluster, flight_shard: usize, rng: &mut StdRng) -> u32 {
        let n = self.inner.params.customers;
        let want_remote = cluster.shard_count() > 1 && rng.gen_bool(self.remote_customer_pct);
        for _ in 0..64 {
            let c = rng.gen_range(0..n);
            if (cluster.shard_of(c as u64) != flight_shard) == want_remote {
                return c;
            }
        }
        rng.gen_range(0..n)
    }

    /// Runs a decomposed reservation transaction through 2PC with retries.
    fn run_multi(
        &self,
        cluster: &Cluster,
        ty: TxnTypeId,
        mut parts: impl FnMut() -> Vec<ShardPart>,
    ) -> WorkUnit {
        let max_attempts = self.inner.max_attempts;
        let attempt = || match cluster.execute_multi(parts()) {
            // The flight part hit the workload-level no-op condition: the
            // distributed transaction rolled back everywhere and the unit
            // counts as committed work, exactly like the single-node no-op
            // commit. Mapped to success *inside* the attempt: the vote is a
            // retryable `Conflict`, and a taken seat must not be retried to
            // exhaustion.
            Err(err) if is_no_op_vote(&err) => Ok(()),
            outcome => outcome.map(drop),
        };
        match tebaldi_core::retry_attempts(max_attempts, CcError::is_retryable, attempt) {
            Ok(((), aborts)) => WorkUnit::committed(ty, aborts),
            Err(_) => WorkUnit::failed(ty, max_attempts),
        }
    }

    /// The flight-part/customer-part decomposition shared by the three
    /// reservation transactions.
    #[allow(clippy::too_many_arguments)]
    fn reservation_parts(
        &self,
        cluster: &Cluster,
        ty: TxnTypeId,
        flight_proc: ProcId,
        customer_proc: ProcId,
        flight: u32,
        seat: u32,
        customer: u32,
    ) -> Vec<ShardPart> {
        vec![
            ShardPart::new(
                cluster.shard_of(flight as u64),
                ProcedureCall::new(ty).with_instance_seed(flight as u64),
                flight_proc,
                fsc_args(flight, seat, customer),
            ),
            ShardPart::new(
                cluster.shard_of(customer as u64),
                ProcedureCall::new(ty).with_instance_seed(customer as u64),
                customer_proc,
                fsc_args(flight, seat, customer),
            ),
        ]
    }

    #[allow(clippy::too_many_arguments)]
    fn run_reservation(
        &self,
        cluster: &Cluster,
        ty: TxnTypeId,
        single_proc: ProcId,
        flight_proc: ProcId,
        customer_proc: ProcId,
        flight: u32,
        seat: u32,
        customer: u32,
    ) -> WorkUnit {
        let flight_shard = cluster.shard_of(flight as u64);
        let customer_shard = cluster.shard_of(customer as u64);
        if flight_shard == customer_shard {
            let call = ProcedureCall::new(ty).with_instance_seed(flight as u64);
            let result = cluster
                .execute_single(
                    flight_shard,
                    single_proc,
                    &call,
                    fsc_args(flight, seat, customer),
                    self.inner.max_attempts,
                )
                .map(|(_, a)| a);
            return finish(ty, result, self.inner.max_attempts);
        }
        self.run_multi(cluster, ty, || {
            self.reservation_parts(
                cluster,
                ty,
                flight_proc,
                customer_proc,
                flight,
                seat,
                customer,
            )
        })
    }

    /// new_reservation for a specific flight/seat/customer, routed. Public
    /// so deterministic tests can drive exact cross-shard interleavings.
    pub fn new_reservation(
        &self,
        cluster: &Cluster,
        flight: u32,
        seat: u32,
        customer: u32,
    ) -> WorkUnit {
        self.run_reservation(
            cluster,
            types::NEW_RESERVATION,
            procs::NR_SINGLE,
            procs::NR_FLIGHT,
            procs::NR_CUSTOMER,
            flight,
            seat,
            customer,
        )
    }

    /// delete_reservation for a specific flight/seat/customer, routed. The
    /// seat is released iff it is currently held by that customer.
    pub fn delete_reservation(
        &self,
        cluster: &Cluster,
        flight: u32,
        seat: u32,
        customer: u32,
    ) -> WorkUnit {
        self.run_reservation(
            cluster,
            types::DELETE_RESERVATION,
            procs::DR_SINGLE,
            procs::DR_FLIGHT,
            procs::DR_CUSTOMER,
            flight,
            seat,
            customer,
        )
    }

    /// update_reservation: verifies the customer's profile (frequent-flyer
    /// tier) on the customer's home shard and flips the reservation's flag
    /// on the flight shard. The customer part only *reads*, so under the
    /// read-only participant optimization it votes `ReadOnly`, releases at
    /// phase one, and the flight part — the lone remaining read-write
    /// participant — commits one-phase with no decision record at all.
    /// Public so deterministic tests can drive exact vote-class mixes.
    pub fn update_reservation(
        &self,
        cluster: &Cluster,
        flight: u32,
        seat: u32,
        customer: u32,
    ) -> WorkUnit {
        self.run_reservation(
            cluster,
            types::UPDATE_RESERVATION,
            procs::UR_SINGLE,
            procs::UR_FLIGHT,
            procs::UR_CUSTOMER,
            flight,
            seat,
            customer,
        )
    }

    /// The two pure-read profiles (find_flights, find_open_seats) served
    /// by the zero-2PC snapshot path: every key the procedure body would
    /// touch is computable up front, so one batched snapshot read covers
    /// the whole profile without locks or WAL records.
    fn snapshot_read_profile(
        &self,
        cluster: &Cluster,
        ty: TxnTypeId,
        flight: u32,
        seat: u32,
    ) -> WorkUnit {
        let t = &self.inner.tables;
        let shard = cluster.shard_of(flight as u64);
        let read_keys = if ty == types::FIND_FLIGHTS {
            vec![t.flight_info_key(flight), t.flight_key(flight)]
        } else {
            // find_open_seats probes the same deterministic seat window
            // the shard procedure walks.
            let params = &self.inner.params;
            let mut keys = vec![t.flight_key(flight)];
            for probe in 0..params.open_seat_probes {
                let s = (seat + probe * 37) % params.seats_per_flight;
                keys.push(t.reservation_key(flight, s));
            }
            keys
        };
        let result = cluster
            .snapshot()
            .read(vec![ReadPart::new(shard, read_keys)])
            .map(|_| 0);
        finish(ty, result, self.inner.max_attempts)
    }

    fn run_single_shard(
        &self,
        cluster: &Cluster,
        ty: TxnTypeId,
        flight: u32,
        seat: u32,
        customer: u32,
    ) -> WorkUnit {
        // Pure reads ride the snapshot path under a non-Strong default
        // consistency (update_customer writes, so it never does).
        if (ty == types::FIND_FLIGHTS || ty == types::FIND_OPEN_SEATS)
            && !matches!(cluster.default_read_consistency(), ReadConsistency::Strong)
        {
            return self.snapshot_read_profile(cluster, ty, flight, seat);
        }
        let (shard, proc, call) = match ty {
            ty if ty == types::UPDATE_CUSTOMER => (
                cluster.shard_of(customer as u64),
                procs::UPDATE_CUSTOMER,
                ProcedureCall::new(ty).with_instance_seed(customer as u64),
            ),
            ty if ty == types::FIND_FLIGHTS => (
                cluster.shard_of(flight as u64),
                procs::FIND_FLIGHTS,
                ProcedureCall::new(ty).with_instance_seed(flight as u64),
            ),
            _ => (
                cluster.shard_of(flight as u64),
                procs::FIND_OPEN_SEATS,
                ProcedureCall::new(types::FIND_OPEN_SEATS).with_instance_seed(flight as u64),
            ),
        };
        let result = cluster
            .execute_single(
                shard,
                proc,
                &call,
                fsc_args(flight, seat, customer),
                self.inner.max_attempts,
            )
            .map(|(_, a)| a);
        finish(ty, result, self.inner.max_attempts)
    }
}

/// The SEATS procedure set with the cluster-variant access lists:
/// `update_reservation` additionally *reads* the customer table (the
/// frequent-flyer tier check on the customer's home shard — a read-only
/// 2PC participant).
pub fn cluster_procedures(workload: &Seats) -> ProcedureSet {
    use AccessMode::{Read, Write};
    let t = &workload.tables;
    let mut set = ProcedureSet::new();
    set.insert(ProcedureInfo::new(
        types::NEW_RESERVATION,
        "new_reservation",
        vec![
            (t.flight, Write),
            (t.customer, Write),
            (t.reservation, Write),
            (t.customer_res_index, Write),
        ],
    ));
    set.insert(ProcedureInfo::new(
        types::DELETE_RESERVATION,
        "delete_reservation",
        vec![
            (t.flight, Write),
            (t.customer, Write),
            (t.reservation, Write),
            (t.customer_res_index, Write),
        ],
    ));
    set.insert(ProcedureInfo::new(
        types::UPDATE_RESERVATION,
        "update_reservation",
        vec![(t.flight, Read), (t.reservation, Write), (t.customer, Read)],
    ));
    set.insert(ProcedureInfo::new(
        types::UPDATE_CUSTOMER,
        "update_customer",
        vec![(t.customer, Write)],
    ));
    set.insert(ProcedureInfo::new(
        types::FIND_FLIGHTS,
        "find_flights",
        vec![(t.flight_info, Read), (t.flight, Read)],
    ));
    set.insert(ProcedureInfo::new(
        types::FIND_OPEN_SEATS,
        "find_open_seats",
        vec![(t.flight, Read), (t.reservation, Read)],
    ));
    set
}

impl ClusterWorkload for ClusterSeats {
    fn name(&self) -> &str {
        "seats-cluster"
    }

    fn procedures(&self) -> ProcedureSet {
        cluster_procedures(&self.inner)
    }

    fn register_procedures(&self, registry: &mut ProcRegistry) {
        register_procedures(
            registry,
            self.inner.tables,
            self.inner.params.open_seat_probes,
            self.inner.params.seats_per_flight,
        );
    }

    fn load(&self, cluster: &Cluster) {
        let params = &self.inner.params;
        let t = &self.inner.tables;
        for f in 0..params.flights {
            cluster.load(f as u64, t.flight_key(f), Value::row(&[0, 300, 1]));
            cluster.load(
                f as u64,
                t.flight_info_key(f),
                Value::row(&[f as i64, f as i64 + 2]),
            );
        }
        for c in 0..params.customers {
            cluster.load(c as u64, t.customer_key(c), Value::row(&[1_000, 0]));
        }
    }

    fn run_once(&self, cluster: &Cluster, rng: &mut StdRng) -> WorkUnit {
        let ty = self.inner.pick_type(rng);
        let flight = rng.gen_range(0..self.inner.params.flights);
        let seat = rng.gen_range(0..self.inner.params.seats_per_flight);
        match ty {
            ty if ty == types::NEW_RESERVATION
                || ty == types::DELETE_RESERVATION
                || ty == types::UPDATE_RESERVATION =>
            {
                let flight_shard = cluster.shard_of(flight as u64);
                let customer = self.pick_customer(cluster, flight_shard, rng);
                match ty {
                    ty if ty == types::NEW_RESERVATION => {
                        self.new_reservation(cluster, flight, seat, customer)
                    }
                    ty if ty == types::DELETE_RESERVATION => {
                        self.delete_reservation(cluster, flight, seat, customer)
                    }
                    _ => self.update_reservation(cluster, flight, seat, customer),
                }
            }
            _ => {
                let customer = rng.gen_range(0..self.inner.params.customers);
                self.run_single_shard(cluster, ty, flight, seat, customer)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{configs, SeatsParams};
    use super::*;
    use crate::driver::{bench_cluster_config, BenchOptions};
    use std::sync::Arc;
    use tebaldi_cluster::ClusterConfig;
    use tebaldi_storage::ReadSpec::LatestCommitted;

    fn build_cluster(
        workload: &ClusterSeats,
        config: ClusterConfig,
        spec: tebaldi_cc::CcTreeSpec,
    ) -> Cluster {
        let mut registry = ProcRegistry::new();
        ClusterWorkload::register_procedures(workload, &mut registry);
        let cluster = Cluster::builder(config)
            .procedures(ClusterWorkload::procedures(workload))
            .shard_procedures(registry)
            .cc_spec(spec)
            .build()
            .unwrap();
        ClusterWorkload::load(workload, &cluster);
        cluster
    }

    #[test]
    fn cluster_seats_commits_on_two_shards() {
        let workload: Arc<dyn ClusterWorkload> =
            Arc::new(ClusterSeats::new(Seats::new(SeatsParams::tiny())).with_remote_rate(0.4));
        // Retry: the quick measurement window can miss every commit when
        // the workspace test suite saturates the machine.
        let mut committed = 0;
        for _ in 0..3 {
            committed = bench_cluster_config(
                &workload,
                configs::monolithic_ssi(),
                ClusterConfig::for_tests(2),
                &BenchOptions::quick(4).labeled("cluster-SSI"),
            )
            .committed;
            if committed > 0 {
                break;
            }
        }
        assert!(committed > 0, "cluster SEATS must make progress");
    }

    #[test]
    fn shards_own_disjoint_flights_and_customers() {
        let workload = ClusterSeats::new(Seats::new(SeatsParams::tiny()));
        let cluster = build_cluster(
            &workload,
            ClusterConfig::for_tests(2),
            configs::monolithic_2pl(),
        );
        let t = &workload.inner.tables;
        for f in 0..workload.inner.params.flights {
            let owner = cluster.shard_of(f as u64);
            for shard in 0..cluster.shard_count() {
                let present = cluster
                    .shard(shard)
                    .store()
                    .read(&t.flight_key(f), LatestCommitted)
                    .is_some();
                assert_eq!(present, shard == owner, "flight {f} on shard {shard}");
            }
        }
        for c in 0..workload.inner.params.customers {
            let owner = cluster.shard_of(c as u64);
            for shard in 0..cluster.shard_count() {
                let present = cluster
                    .shard(shard)
                    .store()
                    .read(&t.customer_key(c), LatestCommitted)
                    .is_some();
                assert_eq!(present, shard == owner, "customer {c} on shard {shard}");
            }
        }
        cluster.shutdown();
    }

    #[test]
    fn cross_shard_update_reservation_takes_one_phase_fast_path() {
        let workload = ClusterSeats::new(Seats::new(SeatsParams::tiny()));
        let mut config = ClusterConfig::for_tests(2);
        config.db_config.durability = tebaldi_core::DurabilityMode::Synchronous;
        let cluster = build_cluster(&workload, config, configs::monolithic_2pl());
        let t = workload.inner.tables;
        let flight = 0u32;
        let customer = (0..workload.inner.params.customers)
            .find(|&c| cluster.shard_of(c as u64) != cluster.shard_of(flight as u64))
            .expect("a remote customer exists");

        // Book the seat with a full cross-shard 2PC (two read-write parts:
        // one decision record).
        assert!(
            workload
                .new_reservation(&cluster, flight, 3, customer)
                .committed
        );
        let after_booking = cluster.stats().coordinator.decisions_logged;
        assert!(after_booking >= 1, "booking logs a commit decision");

        // The tier-check update: read-only customer part + read-write
        // flight part → one-phase commit, no new decision-log appends.
        let unit = workload.update_reservation(&cluster, flight, 3, customer);
        assert!(unit.committed);
        let stats = cluster.stats();
        assert_eq!(stats.coordinator.decisions_logged, after_booking);
        assert_eq!(stats.coordinator.one_phase, 1);
        assert_eq!(stats.read_only_votes, 1);
        let fs = cluster.shard_of(flight as u64);
        assert_eq!(
            cluster
                .shard(fs)
                .store()
                .read_visible(&t.reservation_key(flight, 3), LatestCommitted)
                .and_then(|v| v.field(2)),
            Some(1),
            "the flag flip committed"
        );
        assert_eq!(cluster.in_doubt_count(), 0);
        cluster.shutdown();
    }

    #[test]
    fn cross_shard_reservation_books_and_releases_atomically() {
        let workload = ClusterSeats::new(Seats::new(SeatsParams::tiny()));
        let cluster = build_cluster(
            &workload,
            ClusterConfig::for_tests(2),
            configs::monolithic_2pl(),
        );
        let t = workload.inner.tables;
        // A flight and a customer on different shards.
        let flight = 0u32;
        let customer = (0..workload.inner.params.customers)
            .find(|&c| cluster.shard_of(c as u64) != cluster.shard_of(flight as u64))
            .expect("a remote customer exists");

        let unit = workload.new_reservation(&cluster, flight, 7, customer);
        assert!(unit.committed);
        assert!(cluster.stats().multi_shard >= 1);
        let read = |shard: usize, key| {
            cluster
                .shard(shard)
                .store()
                .read_visible(&key, LatestCommitted)
        };
        let fs = cluster.shard_of(flight as u64);
        let cs = cluster.shard_of(customer as u64);
        assert_eq!(
            read(fs, t.flight_key(flight)).and_then(|v| v.field(0)),
            Some(1),
            "one seat sold"
        );
        assert_eq!(
            read(cs, t.customer_key(customer)).and_then(|v| v.field(1)),
            Some(1),
            "customer holds one reservation"
        );
        assert!(read(fs, t.reservation_key(flight, 7)).is_some());

        // Booking the same seat again is a no-op that rolls back everywhere.
        let unit = workload.new_reservation(&cluster, flight, 7, customer);
        assert!(unit.committed, "taken seat is a committed no-op");
        assert_eq!(
            read(fs, t.flight_key(flight)).and_then(|v| v.field(0)),
            Some(1),
            "seat count unchanged by the no-op"
        );

        // Release it again.
        let unit = workload.delete_reservation(&cluster, flight, 7, customer);
        assert!(unit.committed);
        assert_eq!(
            read(fs, t.flight_key(flight)).and_then(|v| v.field(0)),
            Some(0)
        );
        assert_eq!(
            read(cs, t.customer_key(customer)).and_then(|v| v.field(1)),
            Some(0)
        );
        assert!(read(fs, t.reservation_key(flight, 7)).is_none());
        assert_eq!(cluster.in_doubt_count(), 0);
        cluster.shutdown();
    }
}
