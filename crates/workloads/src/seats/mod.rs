//! The SEATS airline-reservation workload (§4.6.2, §5.6.2).
//!
//! Adapted as in the paper: customer-name scans are removed, explicit
//! secondary-index tables locate a reservation from its flight/seat, the
//! number of flights is reduced (to concentrate contention) and the number
//! of seats per flight is increased so the benchmark can run long enough.
//! Reservation-modifying transactions on the *same* flight conflict heavily
//! (they all update the flight's seat counter), while transactions on
//! different flights rarely do — which is exactly what the per-flight TSO
//! groups of the three-layer configuration exploit.

use crate::hops::{HopReader, KeyGroup};
use crate::workload::{WorkUnit, Workload};
use rand::rngs::StdRng;
use rand::Rng;
use tebaldi_cc::{
    AccessMode, CcKind, CcNodeSpec, CcResult, CcTreeSpec, ProcedureInfo, ProcedureSet,
};
use tebaldi_core::{Database, ProcedureCall, Txn};
use tebaldi_storage::{Key, TableId, TxnTypeId, Value};

pub mod cluster;

/// SEATS transaction types.
pub mod types {
    use tebaldi_storage::TxnTypeId;

    /// new_reservation (NR)
    pub const NEW_RESERVATION: TxnTypeId = TxnTypeId(10);
    /// delete_reservation (DR)
    pub const DELETE_RESERVATION: TxnTypeId = TxnTypeId(11);
    /// update_reservation (UR)
    pub const UPDATE_RESERVATION: TxnTypeId = TxnTypeId(12);
    /// update_customer (UC)
    pub const UPDATE_CUSTOMER: TxnTypeId = TxnTypeId(13);
    /// find_flights (FF) — read-only
    pub const FIND_FLIGHTS: TxnTypeId = TxnTypeId(14);
    /// find_open_seats (FOS) — read-only
    pub const FIND_OPEN_SEATS: TxnTypeId = TxnTypeId(15);
}

/// SEATS tables.
#[derive(Clone, Copy, Debug)]
pub struct SeatsTables {
    /// flight(f) → [seats_sold, price, status]
    pub flight: TableId,
    /// customer(c) → [balance, reservations]
    pub customer: TableId,
    /// reservation(f, seat) → [customer, price, flags]
    pub reservation: TableId,
    /// customer_res_index(c) → [flight, seat]
    pub customer_res_index: TableId,
    /// flight_info(f) → [departure, arrival] (read-only side data)
    pub flight_info: TableId,
}

impl Default for SeatsTables {
    fn default() -> Self {
        SeatsTables {
            flight: TableId(20),
            customer: TableId(21),
            reservation: TableId(22),
            customer_res_index: TableId(23),
            flight_info: TableId(24),
        }
    }
}

impl SeatsTables {
    /// Key of a flight row.
    pub fn flight_key(&self, f: u32) -> Key {
        Key::simple(self.flight, f as u64)
    }
    /// Key of a flight's read-only side data.
    pub fn flight_info_key(&self, f: u32) -> Key {
        Key::simple(self.flight_info, f as u64)
    }
    /// Key of a customer row.
    pub fn customer_key(&self, c: u32) -> Key {
        Key::simple(self.customer, c as u64)
    }
    /// Key of a reservation row (unique per flight/seat pair — this
    /// uniqueness is what makes overselling impossible).
    pub fn reservation_key(&self, f: u32, seat: u32) -> Key {
        Key::composite(self.reservation, &[f, seat])
    }
    /// Key of a customer's reservation-index entry.
    pub fn customer_res_key(&self, c: u32) -> Key {
        Key::simple(self.customer_res_index, c as u64)
    }
}

/// Scale parameters.
#[derive(Clone, Copy, Debug)]
pub struct SeatsParams {
    /// Number of flights (the paper reduces this to 50).
    pub flights: u32,
    /// Seats per flight (the paper increases this to 30 000).
    pub seats_per_flight: u32,
    /// Number of customers.
    pub customers: u32,
    /// Seats probed by find_open_seats (the paper reduces this to 30).
    pub open_seat_probes: u32,
}

impl Default for SeatsParams {
    fn default() -> Self {
        SeatsParams {
            flights: 50,
            seats_per_flight: 30_000,
            customers: 5_000,
            open_seat_probes: 30,
        }
    }
}

impl SeatsParams {
    /// Tiny instance for unit tests.
    pub fn tiny() -> Self {
        SeatsParams {
            flights: 5,
            seats_per_flight: 200,
            customers: 100,
            open_seat_probes: 10,
        }
    }

    /// The seat window find_open_seats probes.
    pub fn window(&self) -> SeatWindow {
        SeatWindow {
            probes: self.open_seat_probes,
            seats_per_flight: self.seats_per_flight,
        }
    }
}

/// The seats probed around a starting seat: `probes` seats, 37 apart,
/// wrapping at `seats_per_flight`. find_open_seats reads the window, and the
/// cluster's new_reservation re-reads it around the seat it books.
#[derive(Clone, Copy, Debug)]
pub struct SeatWindow {
    /// Seats in the window.
    pub probes: u32,
    /// Seats per flight.
    pub seats_per_flight: u32,
}

impl SeatWindow {
    /// The window around `seat` as one key group of `flight`, after `first`.
    fn group(self, t: &SeatsTables, flight: u32, seat: u32, first: Option<Key>) -> KeyGroup {
        let window = (0..self.probes)
            .map(|probe| t.reservation_key(flight, (seat + probe * 37) % self.seats_per_flight));
        (flight as u64, first.into_iter().chain(window).collect())
    }
}

/// The SEATS workload generator.
pub struct Seats {
    /// Scale parameters.
    pub params: SeatsParams,
    /// Table ids.
    pub tables: SeatsTables,
    /// Maximum retry attempts.
    pub max_attempts: usize,
}

impl Seats {
    /// Creates the workload.
    pub fn new(params: SeatsParams) -> Self {
        Seats {
            params,
            tables: SeatsTables::default(),
            max_attempts: 50,
        }
    }

    /// Executes one new_reservation for a specific flight/seat/customer:
    /// books the seat iff it is still free (a taken seat commits as a
    /// no-op). Public so deterministic tests can drive exact interleavings.
    pub fn new_reservation(
        &self,
        db: &Database,
        flight: u32,
        seat: u32,
        customer: u32,
    ) -> WorkUnit {
        let call = ProcedureCall::new(types::NEW_RESERVATION).with_instance_seed(flight as u64);
        let result = db
            .execute_with_retry(&call, self.max_attempts, |txn| {
                new_reservation(txn, &self.tables, flight, seat, customer, None)
            })
            .map(|(_, a)| a);
        finish(types::NEW_RESERVATION, result, self.max_attempts)
    }

    /// Executes one delete_reservation for a specific flight/seat/customer:
    /// releases the seat iff it is currently held by that customer (anything
    /// else commits as a no-op, keeping per-customer reservation counts
    /// non-negative).
    pub fn delete_reservation(
        &self,
        db: &Database,
        flight: u32,
        seat: u32,
        customer: u32,
    ) -> WorkUnit {
        let call = ProcedureCall::new(types::DELETE_RESERVATION).with_instance_seed(flight as u64);
        let result = db
            .execute_with_retry(&call, self.max_attempts, |txn| {
                delete_reservation(txn, &self.tables, flight, seat, customer)
            })
            .map(|(_, a)| a);
        finish(types::DELETE_RESERVATION, result, self.max_attempts)
    }

    fn pick_type(&self, rng: &mut StdRng) -> TxnTypeId {
        // SEATS default mix: FF 10%, FOS 35%, NR 20%, UC 10%, UR 15%, DR 10%.
        let roll: f64 = rng.gen();
        match roll {
            r if r < 0.10 => types::FIND_FLIGHTS,
            r if r < 0.45 => types::FIND_OPEN_SEATS,
            r if r < 0.65 => types::NEW_RESERVATION,
            r if r < 0.75 => types::UPDATE_CUSTOMER,
            r if r < 0.90 => types::UPDATE_RESERVATION,
            _ => types::DELETE_RESERVATION,
        }
    }
}

impl Workload for Seats {
    fn name(&self) -> &str {
        "seats"
    }

    fn procedures(&self) -> ProcedureSet {
        use AccessMode::{Read, Write};
        let t = &self.tables;
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
            vec![(t.flight, Read), (t.reservation, Write)],
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

    fn load(&self, db: &Database) {
        for f in 0..self.params.flights {
            db.load(self.tables.flight_key(f), Value::row(&[0, 300, 1]));
            db.load(
                self.tables.flight_info_key(f),
                Value::row(&[f as i64, f as i64 + 2]),
            );
        }
        for c in 0..self.params.customers {
            db.load(self.tables.customer_key(c), Value::row(&[1_000, 0]));
        }
    }

    fn run_once(&self, db: &Database, rng: &mut StdRng) -> WorkUnit {
        let ty = self.pick_type(rng);
        let flight = rng.gen_range(0..self.params.flights);
        let seat = rng.gen_range(0..self.params.seats_per_flight);
        let customer = rng.gen_range(0..self.params.customers);
        if ty == types::NEW_RESERVATION {
            return self.new_reservation(db, flight, seat, customer);
        }
        if ty == types::DELETE_RESERVATION {
            return self.delete_reservation(db, flight, seat, customer);
        }
        // Partition-by-instance: the flight id is the instance seed, so
        // per-flight TSO groups receive exactly the transactions touching
        // their flight.
        let call = ProcedureCall::new(ty).with_instance_seed(flight as u64);
        let t = &self.tables;
        let result = db
            .execute_with_retry(&call, self.max_attempts, |txn| match ty {
                ty if ty == types::UPDATE_RESERVATION => {
                    flag_reservation(txn, t, flight, seat, None).map(drop)
                }
                ty if ty == types::UPDATE_CUSTOMER => update_customer(txn, t, customer),
                ty if ty == types::FIND_FLIGHTS => find_flights(txn, t, flight),
                _ => find_open_seats(txn, t, self.params.window(), flight, seat).map(drop),
            })
            .map(|(_, a)| a);
        finish(ty, result, self.max_attempts)
    }
}

/// new_reservation: the flight half, then — when it booked the seat — the
/// customer half. `window` is the verify window the cluster re-reads (see
/// [`reserve_flight`]).
fn new_reservation(
    txn: &mut Txn<'_>,
    t: &SeatsTables,
    flight: u32,
    seat: u32,
    customer: u32,
    window: Option<SeatWindow>,
) -> CcResult<()> {
    if reserve_flight(txn, t, flight, seat, customer, window)? {
        reserve_customer(txn, t, flight, seat, customer)?;
    }
    Ok(())
}

/// new_reservation's flight half: books `seat` for `customer` if it is
/// free, as one update of its reservation row, and counts the sold seat;
/// true when it booked. A taken seat writes and reads nothing more. With a
/// `window` — the cluster variant, which like the full SEATS
/// NewReservation re-checks availability around the chosen seat, so a
/// conflicted attempt wastes real work — the window is read between the
/// booking and the count. The seat is the window's first probe: booked
/// first, the window reads it as this transaction's own write instead of
/// taking it shared before the update.
fn reserve_flight(
    txn: &mut Txn<'_>,
    t: &SeatsTables,
    flight: u32,
    seat: u32,
    customer: u32,
    window: Option<SeatWindow>,
) -> CcResult<bool> {
    let booked = txn.update(t.reservation_key(flight, seat), |existing| {
        existing
            .is_none()
            .then(|| Value::row(&[customer as i64, 300, 0]))
    })?;
    if booked.is_none() {
        return Ok(false);
    }
    if let Some(window) = window {
        txn.read_hop(vec![window.group(t, flight, seat, None)], &mut Vec::new())?;
    }
    txn.increment(t.flight_key(flight), 0, 1)?;
    Ok(true)
}

/// new_reservation's customer half: one more reservation on the customer
/// and its index entry.
fn reserve_customer(
    txn: &mut Txn<'_>,
    t: &SeatsTables,
    flight: u32,
    seat: u32,
    customer: u32,
) -> CcResult<()> {
    txn.increment(t.customer_key(customer), 1, 1)?;
    txn.put(
        t.customer_res_key(customer),
        Value::row(&[flight as i64, seat as i64]),
    )?;
    Ok(())
}

/// delete_reservation: the flight half, then — when it released the seat
/// — the customer half.
fn delete_reservation(
    txn: &mut Txn<'_>,
    t: &SeatsTables,
    flight: u32,
    seat: u32,
    customer: u32,
) -> CcResult<()> {
    if release_flight(txn, t, flight, seat, customer)? {
        release_customer(txn, t, customer)?;
    }
    Ok(())
}

/// delete_reservation's flight half: deletes `seat`'s reservation if
/// `customer` holds it, as one update of the row, and counts the seat back;
/// true when it did.
fn release_flight(
    txn: &mut Txn<'_>,
    t: &SeatsTables,
    flight: u32,
    seat: u32,
    customer: u32,
) -> CcResult<bool> {
    let released = txn.update(t.reservation_key(flight, seat), |row| {
        let owner = row.and_then(|row| row.field(0));
        (owner == Some(customer as i64)).then_some(Value::Null)
    })?;
    if released.is_none() {
        return Ok(false);
    }
    txn.increment(t.flight_key(flight), 0, -1)?;
    Ok(true)
}

/// delete_reservation's customer half: one reservation fewer on the
/// customer, and its index entry deleted.
fn release_customer(txn: &mut Txn<'_>, t: &SeatsTables, customer: u32) -> CcResult<()> {
    txn.increment(t.customer_key(customer), 1, -1)?;
    txn.delete(t.customer_res_key(customer))?;
    Ok(())
}

/// update_reservation's flight half: reads the flight, then — in the
/// cluster, when the customer is co-located — the `customer`'s profile,
/// and flags the reservation; true when there was one to flag.
fn flag_reservation(
    txn: &mut Txn<'_>,
    t: &SeatsTables,
    flight: u32,
    seat: u32,
    customer: Option<u32>,
) -> CcResult<bool> {
    let _ = txn.get(t.flight_key(flight))?;
    if let Some(customer) = customer {
        let _ = txn.get(t.customer_key(customer))?;
    }
    let flagged = txn.update(t.reservation_key(flight, seat), |row| {
        row.map(|r| r.with_field(2, 1))
    })?;
    Ok(flagged.is_some())
}

/// update_customer: credits the customer's balance.
fn update_customer(txn: &mut Txn<'_>, t: &SeatsTables, customer: u32) -> CcResult<()> {
    txn.increment(t.customer_key(customer), 0, 10)?;
    Ok(())
}

/// find_flights: one hop reading the flight's side data and its row.
pub fn find_flights(reader: &mut impl HopReader, t: &SeatsTables, flight: u32) -> CcResult<()> {
    reader.read_hop(
        vec![(
            flight as u64,
            vec![t.flight_info_key(flight), t.flight_key(flight)],
        )],
        &mut Vec::new(),
    )?;
    Ok(())
}

/// find_open_seats: one hop reading the flight row and the seat `window`
/// around `seat`; returns how many of the window's seats are free.
pub fn find_open_seats(
    reader: &mut impl HopReader,
    t: &SeatsTables,
    window: SeatWindow,
    flight: u32,
    seat: u32,
) -> CcResult<u32> {
    let mut values = Vec::new();
    reader.read_hop(
        vec![window.group(t, flight, seat, Some(t.flight_key(flight)))],
        &mut values,
    )?;
    Ok(values[1..].iter().filter(|row| row.is_none()).count() as u32)
}

/// Converts a retried execution result into a [`WorkUnit`].
fn finish(
    ty: TxnTypeId,
    result: Result<usize, tebaldi_cc::CcError>,
    max_attempts: usize,
) -> WorkUnit {
    match result {
        Ok(aborts) => WorkUnit::committed(ty, aborts),
        Err(_) => WorkUnit::failed(ty, max_attempts),
    }
}

/// The CC-tree configurations evaluated on SEATS.
pub mod configs {
    use super::*;

    fn all_types() -> Vec<TxnTypeId> {
        vec![
            types::NEW_RESERVATION,
            types::DELETE_RESERVATION,
            types::UPDATE_RESERVATION,
            types::UPDATE_CUSTOMER,
            types::FIND_FLIGHTS,
            types::FIND_OPEN_SEATS,
        ]
    }

    /// Monolithic 2PL.
    pub fn monolithic_2pl() -> CcTreeSpec {
        CcTreeSpec::monolithic(CcKind::TwoPl, all_types())
    }

    /// Monolithic SSI — the per-shard configuration the cluster bench uses
    /// (prepared-but-undecided 2PC participants block no readers).
    pub fn monolithic_ssi() -> CcTreeSpec {
        CcTreeSpec::monolithic(CcKind::Ssi, all_types())
    }

    /// Two-layer: SSI separating the read-only transactions, 2PL among the
    /// update transactions.
    pub fn two_layer() -> CcTreeSpec {
        CcTreeSpec::new(CcNodeSpec::inner(
            CcKind::Ssi,
            "seats-2layer",
            vec![
                CcNodeSpec::leaf(
                    CcKind::NoCc,
                    "read-only",
                    vec![types::FIND_FLIGHTS, types::FIND_OPEN_SEATS],
                ),
                CcNodeSpec::leaf(
                    CcKind::TwoPl,
                    "updates",
                    vec![
                        types::NEW_RESERVATION,
                        types::DELETE_RESERVATION,
                        types::UPDATE_RESERVATION,
                        types::UPDATE_CUSTOMER,
                    ],
                ),
            ],
        ))
    }

    /// Three-layer: SSI at the root, 2PL across the update groups, and
    /// per-flight TSO instances for the reservation transactions
    /// (partition-by-instance with `tso_partitions` copies).
    pub fn three_layer(tso_partitions: u32) -> CcTreeSpec {
        CcTreeSpec::new(CcNodeSpec::inner(
            CcKind::Ssi,
            "seats-3layer",
            vec![
                CcNodeSpec::leaf(
                    CcKind::NoCc,
                    "read-only",
                    vec![types::FIND_FLIGHTS, types::FIND_OPEN_SEATS],
                ),
                CcNodeSpec::inner(
                    CcKind::TwoPl,
                    "updates",
                    vec![
                        CcNodeSpec::leaf_by_instance(
                            CcKind::Tso,
                            "per-flight",
                            vec![
                                types::NEW_RESERVATION,
                                types::DELETE_RESERVATION,
                                types::UPDATE_RESERVATION,
                            ],
                            tso_partitions,
                        ),
                        CcNodeSpec::leaf(CcKind::TwoPl, "customer", vec![types::UPDATE_CUSTOMER]),
                    ],
                ),
            ],
        ))
    }

    /// Same as [`three_layer`] but without partition-by-instance (a single
    /// TSO group): the baseline of Table 5.1.
    pub fn three_layer_single_tso() -> CcTreeSpec {
        three_layer(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{bench_config, BenchOptions};
    use std::sync::Arc;
    use tebaldi_core::DbConfig;

    #[test]
    fn configs_validate() {
        assert!(configs::monolithic_2pl().validate().is_ok());
        assert!(configs::two_layer().validate().is_ok());
        assert!(configs::three_layer(8).validate().is_ok());
    }

    #[test]
    fn seats_runs_under_three_layer_config() {
        let workload: Arc<dyn Workload> = Arc::new(Seats::new(SeatsParams::tiny()));
        let result = bench_config(
            &workload,
            configs::three_layer(5),
            DbConfig::for_tests(),
            &BenchOptions::quick(4).labeled("3layer"),
        );
        assert!(result.committed > 0);
    }

    #[test]
    fn seats_runs_under_monolithic_2pl() {
        let workload: Arc<dyn Workload> = Arc::new(Seats::new(SeatsParams::tiny()));
        let result = bench_config(
            &workload,
            configs::monolithic_2pl(),
            DbConfig::for_tests(),
            &BenchOptions::quick(2).labeled("2PL"),
        );
        assert!(result.committed > 0);
    }
}
