//! A row of up to four fields never touches the heap: building one,
//! updating a field (widening it up to four fields included), cloning,
//! dropping and a codec round trip all allocate and free nothing. Wider
//! rows still work, on the heap, and a row's JSON form is the array of
//! integers the WAL file device has always written.
//!
//! A counting global allocator tallies the heap calls of the calling
//! thread, so the test harness's other threads do not disturb a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tebaldi_suite::storage::codec::{ByteReader, ByteWriter};
use tebaldi_suite::storage::Value;

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

/// Rows of zero to four fields.
fn narrow_rows() -> Vec<Vec<i64>> {
    (0..=4)
        .map(|n| (1..=n).map(|f| f * 11 - 30).collect())
        .collect()
}

#[test]
fn building_a_row_allocates_nothing() {
    for fields in narrow_rows() {
        let (row, calls) = heap_calls(|| Value::row(&fields));
        assert_eq!(calls, 0, "{fields:?}");
        assert_eq!(
            (0..fields.len())
                .map(|i| row.field(i).unwrap())
                .collect::<Vec<_>>(),
            fields
        );
    }
}

#[test]
fn updating_and_widening_a_row_allocates_nothing() {
    for fields in narrow_rows() {
        let row = Value::row(&fields);
        for idx in 0..4 {
            let (updated, calls) = heap_calls(|| row.with_field(idx, 99));
            assert_eq!(calls, 0, "{fields:?} at {idx}");
            assert_eq!(updated.field(idx), Some(99));
        }
    }
    // A scalar promoted to a row of up to four fields.
    for idx in 1..4 {
        let (promoted, calls) = heap_calls(|| Value::Int(5).with_field(idx, 7));
        assert_eq!(calls, 0);
        assert_eq!((promoted.field(0), promoted.field(idx)), (Some(5), Some(7)));
    }
}

#[test]
fn cloning_and_dropping_a_row_allocate_and_free_nothing() {
    for fields in narrow_rows() {
        let row = Value::row(&fields);
        let (copy, calls) = heap_calls(|| row.clone());
        assert_eq!(calls, 0, "clone of {fields:?}");
        assert_eq!(copy, row);
        let ((), calls) = heap_calls(|| drop(copy));
        assert_eq!(calls, 0, "drop of {fields:?}");
    }
}

#[test]
fn a_codec_round_trip_of_a_row_allocates_nothing() {
    for fields in narrow_rows() {
        let row = Value::row(&fields);
        // The buffer is the caller's: reserved before counting.
        let buf = Vec::with_capacity(64);
        let (bytes, calls) = heap_calls(|| {
            let mut w = ByteWriter::from_vec(buf);
            w.put_value(&row);
            w.into_bytes()
        });
        assert_eq!(calls, 0, "encode of {fields:?}");
        let (decoded, calls) = heap_calls(|| ByteReader::new(&bytes).value());
        assert_eq!(calls, 0, "decode of {fields:?}");
        assert_eq!(decoded, Ok(row));
    }
}

#[test]
fn a_five_field_row_round_trips_on_the_heap() {
    let fields = [1, -2, 3, -4, 5];
    let (row, calls) = heap_calls(|| Value::row(&fields));
    assert!(calls > 0, "past four fields a row lives on the heap");
    let mut w = ByteWriter::new();
    w.put_value(&row);
    let bytes = w.into_bytes();
    assert_eq!(ByteReader::new(&bytes).value(), Ok(row.clone()));
    let json = serde_json::to_string(&row).unwrap();
    assert_eq!(json, r#"{"Row":[1,-2,3,-4,5]}"#);
    assert_eq!(serde_json::from_str::<Value>(&json).unwrap(), row);
    assert_eq!(row.with_field(0, 0).field(4), Some(5));
}

/// The WAL file device writes values as JSON: this is the string a row has
/// always been written as, so existing logs still read back.
#[test]
fn a_rows_json_is_unchanged() {
    let row = Value::row(&[1, 2, 3]);
    let json = serde_json::to_string(&row).unwrap();
    assert_eq!(json, r#"{"Row":[1,2,3]}"#);
    assert_eq!(serde_json::from_str::<Value>(&json).unwrap(), row);
}
