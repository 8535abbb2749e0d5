//! The layer ladder and the component probes.
//!
//! One non-conflicting `increment` over 1 000 preloaded keys is pushed
//! through the stack one layer at a time — raw store, engine under each CC
//! mechanism, engine with a synchronous WAL, one-shard cluster in process,
//! over TCP, over TCP with a quorum backup — so the cost each layer adds is
//! the difference between two rungs. Single-threaded, fixed operation
//! counts: every rung does the same work on every run. A value is the
//! median of [`BATCHES`] batch means.

use crate::harness::median;
use crate::sut::{build_cluster, cluster_config, Wire, FLUSH_LATENCY};
use std::hint::black_box;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tebaldi_cc::lock::{LockManager, LockMode};
use tebaldi_cc::{CcKind, CcTreeSpec, NodeEnv, NullSink, Topology, TsOracle, TxnCtx, TxnRegistry};
use tebaldi_cluster::procs::{increment_args, increment_part, KV_INCREMENT};
use tebaldi_cluster::wire::{
    decode_request, decode_result, encode_request, encode_result, read_frame, write_frame,
};
use tebaldi_cluster::{Cluster, ReadConsistency, ReadPart, ShardRequest, ShardResponse};
use tebaldi_core::{Database, DbConfig, DurabilityMode, Hlc, ProcedureCall};
use tebaldi_obs::{Histogram, TraceCtx};
use tebaldi_storage::codec::{ByteReader, ByteWriter};
use tebaldi_storage::durability::GroupCommit;
use tebaldi_storage::wal::{LogRecord, MemLogDevice};
use tebaldi_storage::{
    GroupId, Key, MvStore, NodeId, ReadSpec, Timestamp, TxnId, TxnTypeId, Value,
};
use tebaldi_workloads::tpcc::configs;
use tebaldi_workloads::tpcc::schema::{self, types, TpccKeys};

/// Keys every rung cycles over.
const KEYS: u64 = 1_000;
/// Batches per probe after one discarded warm-up batch.
const BATCHES: usize = 10;

/// Median over batches of the mean nanoseconds `op` takes; `op` gets a
/// running operation number.
fn probe(ops_per_batch: u64, mut op: impl FnMut(u64)) -> f64 {
    let mut n = 0u64;
    let mut means = Vec::with_capacity(BATCHES);
    for batch in 0..=BATCHES {
        let start = Instant::now();
        for _ in 0..ops_per_batch {
            n += 1;
            op(n);
        }
        if batch > 0 {
            means.push(start.elapsed().as_nanos() as f64 / ops_per_batch as f64);
        }
    }
    median(&mut means)
}

/// The rungs run as TPC-C `payment` on warehouse-table keys, so the same
/// operation is valid under every tree, the 3-layer one included.
fn key(n: u64) -> Key {
    TpccKeys::default().warehouse((n % KEYS) as u32)
}

fn payment_call() -> ProcedureCall {
    ProcedureCall::new(types::PAYMENT)
}

fn database(spec: CcTreeSpec, wal: bool) -> Database {
    let mut config = DbConfig::for_benchmarks();
    if wal {
        config.durability = DurabilityMode::Synchronous;
    }
    let mut builder = Database::builder(config)
        .procedures(schema::procedures(&TpccKeys::default().tables, false))
        .cc_spec(spec);
    if wal {
        builder = builder.log_device(Arc::new(MemLogDevice::with_flush_latency(FLUSH_LATENCY)));
    }
    let db = builder.build().expect("database build");
    for n in 0..KEYS {
        db.load(key(n), Value::row(&[0]));
    }
    db
}

fn db_rung(spec: CcTreeSpec, wal: bool, ops: u64) -> f64 {
    let db = database(spec, wal);
    let call = payment_call();
    let ns = probe(ops, |n| {
        db.execute(&call, |txn| txn.increment(key(n), 0, 1))
            .expect("uncontended increment");
    });
    db.shutdown();
    ns
}

fn cluster(shards: usize, wire: Wire) -> Arc<Cluster> {
    let config = cluster_config(shards, wire, 0);
    let cluster = build_cluster(config, None, configs::monolithic_ssi());
    for shard in 0..shards {
        for n in 0..KEYS {
            cluster.shard(shard).load(key(n), Value::row(&[0]));
        }
    }
    cluster
}

fn single_shard_rung(wire: Wire, ops: u64) -> f64 {
    let cluster = cluster(1, wire);
    let call = payment_call();
    let ns = probe(ops, |n| {
        cluster
            .execute_single(0, KV_INCREMENT, &call, increment_args(key(n), 0, 1), 1)
            .expect("uncontended increment");
    });
    cluster.shutdown();
    ns
}

fn two_phase_rung(wire: Wire, ops: u64) -> f64 {
    let cluster = cluster(2, wire);
    let ns = probe(ops, |n| {
        cluster
            .execute_multi(vec![
                increment_part(0, payment_call(), key(n), 0, -1),
                increment_part(1, payment_call(), key(n), 0, 1),
            ])
            .expect("uncontended transfer");
    });
    cluster.shutdown();
    ns
}

fn read_rung(consistency: ReadConsistency, ops: u64) -> f64 {
    let cluster = cluster(2, Wire::InProcess);
    let ns = probe(ops, |n| {
        let parts = vec![
            ReadPart::new(0, vec![key(n)]),
            ReadPart::new(1, vec![key(n + 1)]),
        ];
        black_box(cluster.execute_read(parts, consistency).expect("read"));
    });
    cluster.shutdown();
    ns
}

fn store_rung(ops: u64) -> f64 {
    let store = MvStore::new(DbConfig::for_benchmarks().shards);
    for n in 0..KEYS {
        store.load(&key(n), Value::row(&[0]));
    }
    probe(ops, |n| {
        let (key, txn) = (key(n), TxnId(1_000_000 + n));
        let old = store.read(&key, ReadSpec::LatestCommitted);
        let new = old.map_or(Value::row(&[1]), |v| {
            v.with_field(0, v.field(0).unwrap_or(0) + 1)
        });
        store.write(&key, txn, new);
        store.commit_writes(txn, &[key], Timestamp(1_000_000 + n));
    })
}

fn chain_read(depth: u64, ops: u64) -> f64 {
    let store = MvStore::new(16);
    for n in 0..KEYS {
        let key = key(n);
        store.load(&key, Value::row(&[0]));
        for v in 1..depth {
            store.write(&key, TxnId(v), Value::row(&[v as i64]));
            store.commit_writes(TxnId(v), &[key], Timestamp(v + 1));
        }
    }
    // A one-version chain is read at its head; a deep one at an old
    // snapshot, so the reader walks nearly the whole chain.
    let spec = if depth == 1 {
        ReadSpec::LatestCommitted
    } else {
        ReadSpec::SnapshotBefore(Timestamp(3))
    };
    probe(ops, |n| {
        black_box(store.read(&key(n), spec));
    })
}

fn wal_append_flush(ops: u64) -> f64 {
    let group = GroupCommit::new(Arc::new(MemLogDevice::with_flush_latency(FLUSH_LATENCY)));
    probe(ops, |n| {
        group.append_durable(&[LogRecord::Commit {
            txn: TxnId(n),
            global_epoch: 0,
            commit_ts: Timestamp(n),
            hlc: 0,
        }]);
    })
}

fn codec_value(ops: u64) -> f64 {
    let value = Value::row(&[100, 7, 3]);
    probe(ops, |_| {
        let mut w = ByteWriter::new();
        w.put_value(black_box(&value));
        let bytes = w.into_bytes();
        black_box(ByteReader::new(&bytes).value().expect("value round trip"));
    })
}

fn lock_acquire_release(ops: u64) -> f64 {
    let env = NodeEnv {
        node: NodeId(0),
        registry: Arc::new(TxnRegistry::default()),
        topology: Arc::new(Topology::new()),
        events: Arc::new(NullSink),
        oracle: Arc::new(TsOracle::new()),
        wait_timeout: Duration::from_millis(10),
    };
    let locks = LockManager::default();
    probe(ops, |n| {
        let ctx = TxnCtx::new(TxnId(n), TxnTypeId(0), GroupId(0));
        locks
            .acquire(&env, &ctx, &key(n), n, LockMode::Exclusive, "probe")
            .expect("uncontended lock");
        locks.release_all(TxnId(n));
    })
}

fn wire_codec(ops: u64) -> f64 {
    probe(ops, |n| {
        let request = ShardRequest::Execute {
            proc: KV_INCREMENT,
            call: payment_call(),
            args: increment_args(key(n), 0, 1),
            max_attempts: 1,
            trace: TraceCtx::NONE,
        };
        let frame = encode_request(n, n, black_box(&request));
        black_box(decode_request(&frame).expect("request round trip"));
        let reply = Ok(ShardResponse::Executed {
            value: Value::Int(n as i64),
            aborts: 0,
        });
        let frame = encode_result(n, n, black_box(&reply));
        let _ = black_box(decode_result(&frame).expect("result round trip"));
    })
}

fn frame_roundtrip(ops: u64) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let echo = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        stream.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = BufWriter::new(stream);
        while let Ok(Some(payload)) = read_frame(&mut reader) {
            if write_frame(&mut writer, &payload).is_err() || writer.flush().is_err() {
                break;
            }
        }
    });
    let stream = TcpStream::connect(addr).expect("connect loopback");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    let payload = vec![7u8; 64];
    let ns = probe(ops, |_| {
        write_frame(&mut writer, &payload).expect("write frame");
        writer.flush().expect("flush");
        black_box(read_frame(&mut reader).expect("read frame"));
    });
    drop(writer);
    drop(reader);
    echo.join().expect("echo thread");
    ns
}

/// Runs every rung and probe; returns `(metric name, ns per operation)`
/// plus the ratios between rungs.
pub fn run() -> Vec<(String, f64)> {
    let monolithic = |kind| CcTreeSpec::monolithic(kind, schema::standard_types());
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, ns: f64| out.push((name.to_string(), ns));

    put("ladder.store_ns", store_rung(4_000));
    put(
        "ladder.db_nocc_ns",
        db_rung(monolithic(CcKind::NoCc), false, 2_000),
    );
    put(
        "ladder.db_2pl_ns",
        db_rung(monolithic(CcKind::TwoPl), false, 2_000),
    );
    put(
        "ladder.db_ssi_ns",
        db_rung(monolithic(CcKind::Ssi), false, 2_000),
    );
    put(
        "ladder.db_rp_ns",
        db_rung(monolithic(CcKind::Rp), false, 2_000),
    );
    put(
        "ladder.db_tso_ns",
        db_rung(monolithic(CcKind::Tso), false, 2_000),
    );
    put(
        "ladder.db_tree2_ns",
        db_rung(configs::tebaldi_two_layer(), false, 2_000),
    );
    put(
        "ladder.db_tree3_ns",
        db_rung(configs::tebaldi_three_layer(), false, 2_000),
    );
    put(
        "ladder.db_ssi_wal_ns",
        db_rung(monolithic(CcKind::Ssi), true, 500),
    );
    put(
        "ladder.cluster_inproc_ns",
        single_shard_rung(Wire::InProcess, 500),
    );
    put("ladder.cluster_tcp_ns", single_shard_rung(Wire::Tcp, 200));
    put(
        "ladder.cluster_tcp_repl_ns",
        single_shard_rung(Wire::TcpReplicated, 150),
    );
    put(
        "ladder.cluster_2pc_inproc_ns",
        two_phase_rung(Wire::InProcess, 150),
    );
    put("ladder.cluster_2pc_tcp_ns", two_phase_rung(Wire::Tcp, 100));
    put(
        "ladder.cluster_snapshot_read_ns",
        read_rung(ReadConsistency::Snapshot, 500),
    );
    put(
        "ladder.cluster_strong_read_ns",
        read_rung(ReadConsistency::Strong, 200),
    );

    put("storage.chain_read_ns", chain_read(1, 20_000));
    put("storage.chain_read_deep_ns", chain_read(64, 5_000));
    put("storage.wal_append_flush_ns", wal_append_flush(500));
    put("storage.codec_value_ns", codec_value(20_000));
    put("cc.lock_acquire_release_ns", lock_acquire_release(10_000));
    put("cluster.wire_codec_ns", wire_codec(5_000));
    put("cluster.frame_roundtrip_ns", frame_roundtrip(1_000));
    let hlc = Hlc::new();
    put(
        "core.hlc_now_ns",
        probe(50_000, |_| {
            black_box(hlc.now());
        }),
    );
    let histogram = Histogram::new();
    put(
        "obs.histogram_record_ns",
        probe(50_000, |n| histogram.record(n)),
    );

    let value = |name: &str| out.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v);
    let over = |num: &str, den: &str| {
        let den = value(den);
        if den == 0.0 {
            0.0
        } else {
            value(num) / den
        }
    };
    let ratios = [
        (
            "ratio.ladder_tcp_over_inproc",
            over("ladder.cluster_tcp_ns", "ladder.cluster_inproc_ns"),
        ),
        (
            "ratio.ladder_repl_over_tcp",
            over("ladder.cluster_tcp_repl_ns", "ladder.cluster_tcp_ns"),
        ),
        (
            "ratio.ladder_tree2_over_ssi",
            over("ladder.db_tree2_ns", "ladder.db_ssi_ns"),
        ),
        (
            "ratio.ladder_tree3_over_ssi",
            over("ladder.db_tree3_ns", "ladder.db_ssi_ns"),
        ),
        (
            "ratio.ladder_snapshot_over_strong_read",
            over(
                "ladder.cluster_snapshot_read_ns",
                "ladder.cluster_strong_read_ns",
            ),
        ),
    ];
    out.extend(ratios.into_iter().map(|(n, v)| (n.to_string(), v)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_reports_the_median_batch_mean() {
        // Every operation sleeps ~200 µs; one slow batch must not move the
        // median.
        let mut calls = 0u64;
        let ns = probe(5, |n| {
            calls += 1;
            let slow = (11..=15).contains(&n);
            std::thread::sleep(Duration::from_micros(if slow { 3_000 } else { 200 }));
        });
        assert_eq!(calls, 5 * (BATCHES as u64 + 1));
        assert!((200_000.0..1_500_000.0).contains(&ns), "{ns}");
    }
}
