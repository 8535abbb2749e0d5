//! Criterion microbenchmarks of the storage and framework hot paths.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::sync::Arc;
use tebaldi_autoconf::analyze;
use tebaldi_cc::{BlockingEvent, NullSink};
use tebaldi_storage::{Key, MvStore, TableId, Timestamp, TxnId, TxnTypeId, Value};

fn bench_storage(c: &mut Criterion) {
    let store = MvStore::new(16);
    for i in 0..10_000u64 {
        store.load(&Key::simple(TableId(0), i), Value::Int(i as i64));
    }
    let mut group = c.benchmark_group("storage");
    group.bench_function("read_latest_committed", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 10_000;
            store.read(
                &Key::simple(TableId(0), i),
                tebaldi_storage::ReadSpec::LatestCommitted,
            )
        });
    });
    group.bench_function("write_and_commit", |b| {
        let mut txn = 1_000_000u64;
        b.iter(|| {
            txn += 1;
            let key = Key::simple(TableId(1), txn % 50_000);
            store.write(&key, TxnId(txn), Value::Int(txn as i64));
            store.commit_writes(TxnId(txn), &[key], Timestamp(txn));
        });
    });
    group.finish();
}

/// One index lookup (`with_chain` of an existing key, no version to read)
/// in a store holding 64 k and 4 M keys shaped like TPC-C order lines: the
/// directory doubles with the key count, so the two should differ by what
/// the cache misses cost and nothing else. Keys are visited in a scrambled
/// order so neither case is served from a warm line. `4M_keys_batch16` reads
/// the 4 M store's keys sixteen to a call through
/// `MvStore::read_snapshot_hlc` and reports the time per key;
/// `4M_keys_prefetched16` looks the same keys up one at a time, as a
/// transaction does, after one `MvStore::prefetch` of each sixteen, and
/// reports the time per key with the hint included.
fn bench_store_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_lookup");
    for (name, orders) in [("64k_keys", 160u32), ("4M_keys", 10_000)] {
        let keys: Vec<Key> = (1..=4u32)
            .flat_map(|w| (1..=10u32).map(move |d| (w, d)))
            .flat_map(|(w, d)| (1..=orders).map(move |o| (w, d, o)))
            .flat_map(|(w, d, o)| {
                (1..=10u32).map(move |ol| Key::composite(TableId(8), &[w, d, o, ol]))
            })
            .collect();
        let store = MvStore::new(32);
        for key in &keys {
            store.with_chain_mut(key, |_| ());
        }
        group.bench_function(name, |b| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 7_919) % keys.len();
                store.with_chain(&keys[i], |chain| chain.len())
            });
        });
        if name == "4M_keys" {
            // The same lookups, sixteen at a time through the batched
            // snapshot read (one prefetching pass), timed per key.
            group.bench_function("4M_keys_batch16", |b| {
                let mut i = 0usize;
                let mut batch = [keys[0]; 16];
                let mut reads = Vec::with_capacity(batch.len());
                b.iter_custom(|iters| {
                    let started = std::time::Instant::now();
                    for _ in 0..iters {
                        for key in &mut batch {
                            i = (i + 7_919) % keys.len();
                            *key = keys[i];
                        }
                        reads.clear();
                        store.read_snapshot_hlc(&batch, u64::MAX, &mut reads);
                        criterion::black_box(&reads);
                    }
                    started.elapsed() / batch.len() as u32
                });
            });
            // The same lookups one `with_chain` at a time, each sixteen
            // warmed first by one prefetch hint, timed per key.
            group.bench_function("4M_keys_prefetched16", |b| {
                let mut i = 0usize;
                let mut batch = [keys[0]; 16];
                b.iter_custom(|iters| {
                    let started = std::time::Instant::now();
                    for _ in 0..iters {
                        for key in &mut batch {
                            i = (i + 7_919) % keys.len();
                            *key = keys[i];
                        }
                        store.prefetch(batch);
                        for key in &batch {
                            criterion::black_box(store.with_chain(key, |chain| chain.len()));
                        }
                    }
                    started.elapsed() / batch.len() as u32
                });
            });
        }
    }
    group.finish();
}

fn bench_lock_manager(c: &mut Criterion) {
    use tebaldi_cc::lock::{LockManager, LockMode};
    use tebaldi_cc::{NodeEnv, Topology, TsOracle, TxnCtx, TxnRegistry};
    let env = NodeEnv {
        node: tebaldi_storage::NodeId(0),
        registry: Arc::new(TxnRegistry::default()),
        topology: Arc::new(Topology::new()),
        events: Arc::new(NullSink),
        oracle: Arc::new(TsOracle::new()),
        wait_timeout: std::time::Duration::from_millis(10),
    };
    let lm = LockManager::default();
    c.bench_function("lock_acquire_release_uncontended", |b| {
        let mut txn = 0u64;
        b.iter(|| {
            txn += 1;
            let ctx = TxnCtx::new(TxnId(txn), TxnTypeId(0), tebaldi_storage::GroupId(0));
            let key = Key::simple(TableId(0), txn % 1_000);
            lm.acquire(&env, &ctx, &key, txn, LockMode::Exclusive, "bench")
                .unwrap();
            lm.release_all(TxnId(txn));
        });
    });
}

fn bench_profiler(c: &mut Criterion) {
    let origin = std::time::Instant::now();
    let events: Vec<BlockingEvent> = (0..2_000)
        .map(|i| BlockingEvent {
            blocked: TxnId(i + 1),
            blocked_type: TxnTypeId((i % 5) as u32),
            blocking: TxnId(i),
            blocking_type: TxnTypeId(((i + 1) % 5) as u32),
            node: tebaldi_storage::NodeId(0),
            start: origin + std::time::Duration::from_micros(i * 10),
            end: origin + std::time::Duration::from_micros(i * 10 + 50),
        })
        .collect();
    c.bench_function("profiler_analyze_2000_events", |b| {
        b.iter_batched(
            || events.clone(),
            |events| analyze(&events),
            BatchSize::SmallInput,
        );
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1_000));
    targets = bench_storage, bench_store_lookup, bench_lock_manager, bench_profiler
}
criterion_main!(benches);
