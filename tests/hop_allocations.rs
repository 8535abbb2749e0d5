//! What the read path asks of the heap: a prefetch hint allocates nothing,
//! and a warm order_status over a `Txn` — three hops into one buffer the
//! body owns — stays within a fixed count of heap calls.
//!
//! A counting global allocator tallies the heap calls of the calling
//! thread, so the test harness's other threads do not disturb a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tebaldi_suite::core::{Database, DbConfig, ProcedureCall};
use tebaldi_suite::workloads::tpcc::configs;
use tebaldi_suite::workloads::tpcc::schema::{procedures, types, TpccKeys, TpccParams};
use tebaldi_suite::workloads::tpcc::transactions::{
    load, new_order, order_status, NewOrderInput, OrderStatusInput,
};

struct Counting;

thread_local! {
    // `const` and free of destructors: safe to touch from inside the
    // allocator, at any point of a thread's life.
    static HEAP_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    HEAP_CALLS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count();
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` returns, and how many allocations, reallocations and frees it
/// made on this thread.
fn heap_calls<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = HEAP_CALLS.with(Cell::get);
    let out = f();
    (out, HEAP_CALLS.with(Cell::get) - before)
}

/// A tiny TPC-C database under monolithic SSI, with customer 3 of
/// district (0, 1) holding a five-line order.
fn db_with_an_order(keys: &TpccKeys) -> Database {
    let db = Database::builder(DbConfig {
        record_history: false,
        ..DbConfig::for_tests()
    })
    .procedures(procedures(&keys.tables, false))
    .cc_spec(configs::monolithic_ssi())
    .build()
    .unwrap();
    load(&db, keys, &TpccParams::tiny());
    let input = NewOrderInput {
        w: 0,
        d: 1,
        c: 3,
        lines: (0..5).map(|i| (10 + i, 0, 1)).collect(),
    };
    db.execute(&ProcedureCall::new(types::NEW_ORDER), |txn| {
        new_order(txn, keys, &input)
    })
    .unwrap();
    db
}

#[test]
fn a_prefetch_allocates_nothing() {
    let keys = TpccKeys::default();
    let db = db_with_an_order(&keys);
    // Present keys, absent keys, and more than one group of them.
    let hint: Vec<_> = (0..40)
        .map(|c| keys.customer(0, 1, c))
        .chain((0..10).map(|o| keys.order(0, 1, 500 + o)))
        .collect();
    let ((), calls) = heap_calls(|| db.store().prefetch(hint.iter().copied()));
    assert_eq!(calls, 0, "MvStore::prefetch");
    db.execute(&ProcedureCall::new(types::ORDER_STATUS), |txn| {
        let ((), calls) = heap_calls(|| txn.prefetch(hint.iter().copied()));
        assert_eq!(calls, 0, "Txn::prefetch");
        Ok(())
    })
    .unwrap();
    db.shutdown();
}

/// Heap calls of a warm order_status body over a `Txn` under monolithic
/// SSI that reads all three hops (customer and index, order, five lines):
/// six key vectors (an outer and an inner one per hop) and one value
/// buffer, each allocated and freed once (14); SSI's read set of the
/// transaction, allocated and grown once (2); and in debug builds the
/// transaction's log of plain reads, allocated and grown once (2).
const ORDER_STATUS_HEAP_CALLS: u64 = if cfg!(debug_assertions) { 18 } else { 16 };

#[test]
fn a_warm_order_status_over_a_txn_stays_within_its_heap_calls() {
    let keys = TpccKeys::default();
    let db = db_with_an_order(&keys);
    let input = OrderStatusInput { w: 0, d: 1, c: 3 };
    let run = || {
        db.execute(&ProcedureCall::new(types::ORDER_STATUS), |txn| {
            Ok(heap_calls(|| order_status(txn, &keys, &input)))
        })
        .unwrap()
    };
    run().0.unwrap();
    let (balance, calls) = run();
    assert_eq!(balance.unwrap(), 0);
    assert!(
        calls <= ORDER_STATUS_HEAP_CALLS,
        "{calls} heap calls, at most {ORDER_STATUS_HEAP_CALLS} expected"
    );
    db.shutdown();
}
