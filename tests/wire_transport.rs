//! Wire-format and transport robustness tests.
//!
//! The shard-RPC boundary must be total: every encodable
//! `ShardRequest`/`ShardResponse` round-trips bit-exactly, and *no* byte
//! sequence — truncated, oversized, or random garbage — may panic the
//! decoder. A garbage frame costs one connection (and aborts the waiting
//! transaction), never the shard.

use proptest::prelude::*;
use tebaldi_suite::cc::{CcError, Reason};
use tebaldi_suite::cluster::wire;
use tebaldi_suite::cluster::{ShardRequest, ShardResponse, Vote};
use tebaldi_suite::core::{ProcId, ProcedureCall};
use tebaldi_suite::obs::{HistogramSnapshot, MetricsSnapshot, TraceCtx};
use tebaldi_suite::storage::{Key, TableId, TxnTypeId, Value};

/// The `variant` seed that makes [`request_from_seed`] produce this kind of
/// request. Wildcard-free on purpose: a `ShardRequest` variant added
/// without an arm here fails to compile, and
/// `generators_cover_every_variant` then demands a generator arm for it.
fn request_variant(request: &ShardRequest) -> u32 {
    match request {
        ShardRequest::Execute { .. } => 0,
        ShardRequest::Prepare { .. } => 1,
        ShardRequest::Commit { .. } => 2,
        ShardRequest::Abort { .. } => 3,
        ShardRequest::SnapshotRead { .. } => 4,
        ShardRequest::Flush => 5,
        ShardRequest::Metrics => 6,
    }
}
const REQUEST_VARIANTS: u32 = 7;

/// [`request_variant`] for successful responses (errors take the seeds
/// from `RESPONSE_VARIANTS` up).
fn response_variant(response: &ShardResponse) -> u32 {
    match response {
        ShardResponse::Executed { .. } => 0,
        ShardResponse::Prepared { .. } => 1,
        ShardResponse::Decided => 2,
        ShardResponse::Snapshot { .. } => 3,
        ShardResponse::Flushed => 4,
        ShardResponse::Metrics(_) => 5,
    }
}
const RESPONSE_VARIANTS: u32 = 6;
const RESULT_VARIANTS: u32 = RESPONSE_VARIANTS + 4;

#[test]
fn generators_cover_every_variant() {
    for variant in 0..REQUEST_VARIANTS {
        assert_eq!(
            request_variant(&request_from_seed((variant, 5, 9))),
            variant
        );
    }
    for variant in 0..RESPONSE_VARIANTS {
        let response = result_from_seed((variant, 5, 9)).expect("a response seed");
        assert_eq!(response_variant(&response), variant);
    }
    for variant in RESPONSE_VARIANTS..RESULT_VARIANTS {
        assert!(result_from_seed((variant, 5, 9)).is_err());
    }
}

/// Deterministically expands a seed tuple into a request covering every
/// variant, with value-dependent payloads.
fn request_from_seed((variant, a, b): (u32, u64, u64)) -> ShardRequest {
    let call = ProcedureCall::new(TxnTypeId((a % 17) as u32))
        .with_instance_seed(b)
        .with_promises(
            (0..(a % 4))
                .map(|i| Key::composite(TableId((b % 5) as u32), &[i as u32, (a % 99) as u32]))
                .collect(),
        );
    let args: Vec<u8> = (0..(b % 32)).map(|i| (i as u8).wrapping_mul(31)).collect();
    // Both sampled (nonzero) and unsampled (zero) trace ids must survive
    // the wire.
    let trace = TraceCtx {
        trace_id: if a % 3 == 0 { 0 } else { a ^ b.rotate_left(17) },
    };
    match variant % REQUEST_VARIANTS {
        0 => ShardRequest::Execute {
            proc: ProcId((a % 1000) as u32),
            call,
            args,
            max_attempts: (b % 50) as u32 + 1,
            trace,
        },
        1 => ShardRequest::Prepare {
            global: a.wrapping_mul(b),
            proc: ProcId((b % 1000) as u32),
            call,
            args,
            trace,
        },
        2 => ShardRequest::Commit {
            global: a,
            hlc: a.wrapping_mul(7),
        },
        3 => ShardRequest::Abort { global: a ^ b },
        4 => ShardRequest::SnapshotRead {
            snapshot: a.wrapping_add(b),
            wait_ms: b % 10_000,
            keys: (0..(a % 5))
                .map(|i| Key::simple(TableId((b % 7) as u32), i ^ b))
                .collect(),
        },
        5 => ShardRequest::Flush,
        _ => ShardRequest::Metrics,
    }
}

/// Deterministically expands a seed tuple into a result covering every
/// response and error variant.
fn result_from_seed((variant, a, b): (u32, u64, u64)) -> Result<ShardResponse, CcError> {
    let value = match a % 5 {
        0 => Value::Null,
        1 => Value::Int(b as i64 - 1000),
        2 => Value::row(&[(a as i64), -(b as i64), 7]),
        3 => Value::str("wire-payload"),
        _ => Value::Bytes(bytes::Bytes::from(vec![(a % 251) as u8; (b % 24) as usize])),
    };
    match variant % RESULT_VARIANTS {
        0 => Ok(ShardResponse::Executed {
            value,
            aborts: (b % 30) as u32,
        }),
        1 => Ok(ShardResponse::Prepared {
            value,
            vote: if a % 2 == 0 {
                Vote::ReadOnly
            } else {
                Vote::ReadWrite
            },
            hlc: a.wrapping_mul(b) | 1,
        }),
        2 => Ok(ShardResponse::Decided),
        3 => Ok(ShardResponse::Snapshot {
            values: (0..(a % 4)).map(|i| Value::Int((i ^ b) as i64)).collect(),
            hlc: a.wrapping_add(b),
        }),
        4 => Ok(ShardResponse::Flushed),
        5 => Ok(ShardResponse::Metrics(Box::new(MetricsSnapshot {
            counters: vec![(format!("counter.{}", a % 13), b)],
            gauges: (0..(b % 3))
                .map(|i| (format!("gauge.{i}"), a ^ i))
                .collect(),
            histograms: vec![(
                "latency_ns".to_string(),
                HistogramSnapshot {
                    count: a % 100,
                    sum: a.wrapping_mul(b),
                    max: b,
                    buckets: (0..(a % 5) as u32).map(|i| (i, b % 7 + 1)).collect(),
                },
            )],
        }))),
        6 => Err(CcError::conflict(Reason::BodyNoOp)),
        7 => Err(CcError::Internal(format!("remote failure {a}"))),
        8 => Err(CcError::Unreachable {
            target: format!("shard {}", a % 16),
            maybe_delivered: b % 2 == 0,
        }),
        _ => Err(CcError::Requested),
    }
}

proptest! {
    /// encode→decode equality for random requests, including the frame
    /// layer.
    #[test]
    fn shard_requests_roundtrip_through_frames(
        seeds in proptest::collection::vec((0..REQUEST_VARIANTS, 0u64..1_000_000, 0u64..1_000_000), 1..24),
        req_id in 0u64..1_000_000_000,
        hlc in 0u64..u64::MAX,
    ) {
        for seed in seeds {
            let request = request_from_seed(seed);
            let payload = wire::encode_request(req_id, hlc, &request);
            // Through the frame layer: write, read back, decode.
            let mut buf = Vec::new();
            wire::write_frame(&mut buf, &payload).unwrap();
            let mut cursor = std::io::Cursor::new(buf);
            let framed = wire::read_frame(&mut cursor).unwrap().unwrap();
            let (id, frame_hlc, back) = wire::decode_request(&framed).unwrap();
            prop_assert_eq!(id, req_id);
            prop_assert_eq!(frame_hlc, hlc);
            prop_assert_eq!(back, request);
        }
    }

    /// encode→decode equality for random responses and errors.
    #[test]
    fn shard_results_roundtrip(
        seeds in proptest::collection::vec((0..RESULT_VARIANTS, 0u64..1_000_000, 0u64..1_000_000), 1..24),
        req_id in 0u64..1_000_000_000,
        hlc in 0u64..u64::MAX,
    ) {
        for seed in seeds {
            let result = result_from_seed(seed);
            let payload = wire::encode_result(req_id, hlc, &result);
            let (id, frame_hlc, back) = wire::decode_result(&payload).unwrap();
            prop_assert_eq!(id, req_id);
            prop_assert_eq!(frame_hlc, hlc);
            prop_assert_eq!(back, result);
        }
    }

    /// Decoding arbitrary garbage never panics — it returns an error (or,
    /// by astronomical luck, a valid message), and truncating a valid
    /// payload at any point yields a clean error too.
    #[test]
    fn garbage_and_truncated_payloads_never_panic(
        garbage in proptest::collection::vec(0u32..256, 0..64),
        seed in (0..REQUEST_VARIANTS, 0u64..1_000_000, 0u64..1_000_000),
    ) {
        let bytes: Vec<u8> = garbage.iter().map(|&b| b as u8).collect();
        let _ = wire::decode_request(&bytes);
        let _ = wire::decode_result(&bytes);
        // Truncations of a valid request payload: always a clean error.
        let payload = wire::encode_request(7, 11, &request_from_seed(seed));
        for cut in 0..payload.len() {
            prop_assert!(wire::decode_request(&payload[..cut]).is_err());
        }
    }
}

/// The prepare pipeline over real sockets: one connection carrying many
/// outstanding req-ids with out-of-order completion, a bounded in-flight
/// window, timeout behavior when the pipeline wedges solid, and per-
/// connection fairness under a hostile burst.
mod pipelining {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    use tebaldi_suite::cc::{AccessMode, CcError, CcKind, CcTreeSpec, ProcedureInfo, ProcedureSet};
    use tebaldi_suite::cluster::{
        procs, Cluster, ClusterConfig, ShardRequest, ShardTransport, ShardWorkers, TcpShardServer,
        TcpTransport, TransportKind,
    };
    use tebaldi_suite::core::{Database, DbConfig, ProcId, ProcRegistry, ProcedureCall};
    use tebaldi_suite::obs::MetricsRegistry;
    use tebaldi_suite::storage::wal::{LogDevice, MemLogDevice};
    use tebaldi_suite::storage::{Key, TableId, TxnTypeId, Value};

    const TABLE: TableId = TableId(0);
    const TY: TxnTypeId = TxnTypeId(0);
    const PUT7: ProcId = ProcId(50);
    const NAP_GET: ProcId = ProcId(51);

    /// The peak number of bodies the shard had in flight, as it reports it.
    fn max_depth(workers: &ShardWorkers) -> u64 {
        workers
            .db()
            .metrics()
            .snapshot()
            .gauge("pipeline.max_depth")
            .unwrap_or(0)
    }

    fn registry() -> ProcRegistry {
        let mut reg = ProcRegistry::new();
        procs::register_builtins(&mut reg);
        // put7(key_id): write Int(7) — a read-write body whose prepare
        // needs hardening.
        reg.register_fn(PUT7, |txn, args| {
            let mut r = tebaldi_suite::storage::codec::ByteReader::new(args);
            let id = r.u64().map_err(|e| CcError::Internal(e.to_string()))?;
            txn.put(Key::simple(TABLE, id), Value::Int(7))
                .map(|()| Value::Null)
        });
        // nap_get(key_id): sleep ~10ms, then read — a slow body for
        // burst/fairness tests.
        reg.register_fn(NAP_GET, |txn, args| {
            let mut r = tebaldi_suite::storage::codec::ByteReader::new(args);
            let id = r.u64().map_err(|e| CcError::Internal(e.to_string()))?;
            std::thread::sleep(Duration::from_millis(10));
            Ok(txn.get(Key::simple(TABLE, id))?.unwrap_or(Value::Null))
        });
        reg
    }

    fn key_args(id: u64) -> Vec<u8> {
        let mut w = tebaldi_suite::storage::codec::ByteWriter::new();
        w.put_u64(id);
        w.into_bytes()
    }

    /// A 1-worker shard over a WAL device with a real flush latency, so a
    /// prepare's hardening takes measurable time.
    fn slow_flush_pool(window: usize, flush: Duration) -> (Arc<ShardWorkers>, Arc<dyn LogDevice>) {
        let mut procedures = ProcedureSet::new();
        procedures.insert(ProcedureInfo::new(
            TY,
            "pipeline",
            vec![(TABLE, AccessMode::Write)],
        ));
        let mut config = DbConfig::for_tests();
        config.durability = tebaldi_suite::core::DurabilityMode::Synchronous;
        let device: Arc<dyn LogDevice> = Arc::new(MemLogDevice::with_flush_latency(flush));
        let db = Arc::new(
            Database::builder(config)
                .procedures(procedures)
                .cc_spec(CcTreeSpec::monolithic(CcKind::TwoPl, vec![TY]))
                .log_device(Arc::clone(&device))
                .build()
                .unwrap(),
        );
        (
            ShardWorkers::spawn(0, db, 1, Arc::new(registry()), window, None),
            device,
        )
    }

    /// One TCP connection, two outstanding requests: a prepare whose
    /// hardening takes ~100ms and a fast execute submitted after it. The
    /// execute's reply overtakes the prepare's on the
    /// same connection — out-of-order completion — because the worker
    /// defers the flush wait to the completion loop and picks up the next
    /// body immediately.
    #[test]
    fn replies_complete_out_of_order_on_one_connection() {
        let flush = Duration::from_millis(100);
        let (workers, _device) = slow_flush_pool(16, flush);
        let server = TcpShardServer::spawn(0, Arc::clone(&workers), 16).unwrap();
        let transport = TcpTransport::connect(
            &[server.addr()],
            16,
            Duration::from_secs(5),
            &MetricsRegistry::new(),
        )
        .unwrap();
        workers.db().load(Key::simple(TABLE, 5), Value::Int(41));

        let started = Instant::now();
        let prepare_ticket = transport.submit(
            0,
            ShardRequest::Prepare {
                global: 1,
                proc: PUT7,
                call: ProcedureCall::new(TY),
                args: key_args(9),
                trace: tebaldi_suite::obs::TraceCtx::NONE,
            },
        );
        let execute_ticket = transport.submit(
            0,
            ShardRequest::Execute {
                proc: procs::KV_GET,
                call: ProcedureCall::new(TY),
                args: procs::key_args(Key::simple(TABLE, 5)),
                max_attempts: 5,
                trace: tebaldi_suite::obs::TraceCtx::NONE,
            },
        );
        // The read completes while the prepare is still hardening: its
        // reply must not be stuck behind the earlier request's flush.
        let (value, _) = execute_ticket
            .wait()
            .unwrap()
            .unwrap()
            .into_executed()
            .unwrap();
        assert_eq!(value, Value::Int(41));
        let overtook_at = started.elapsed();
        assert!(
            overtook_at < flush,
            "the fast execute must overtake the hardening prepare \
             (completed after {overtook_at:?}, flush takes {flush:?})"
        );
        // The prepare still completes correctly — durable, parked, and
        // decidable — it was just slower.
        let (_, vote, _) = prepare_ticket
            .wait()
            .unwrap()
            .unwrap()
            .into_prepared()
            .unwrap();
        assert_eq!(vote, tebaldi_suite::cluster::Vote::ReadWrite);
        assert!(
            started.elapsed() >= flush,
            "hardening cannot beat the flush"
        );
        assert_eq!(workers.in_doubt_count(), 1);
        workers.decide_stamped(1, true, 0);
        assert_eq!(workers.in_doubt_count(), 0);
        assert!(
            max_depth(&workers) >= 2,
            "one worker must have had both bodies in flight"
        );
        ShardTransport::shutdown(&transport);
        server.shutdown();
        workers.shutdown();
    }

    /// Many concurrent prepares over one connection: every one completes,
    /// and the shard never admits more bodies than the in-flight window —
    /// the backpressure the window exists to provide.
    #[test]
    fn inflight_window_bounds_concurrent_prepares() {
        const WINDOW: usize = 4;
        let (workers, device) = slow_flush_pool(WINDOW, Duration::from_millis(2));
        let server = TcpShardServer::spawn(0, Arc::clone(&workers), WINDOW).unwrap();
        let transport = Arc::new(
            TcpTransport::connect(
                &[server.addr()],
                WINDOW,
                Duration::from_secs(10),
                &MetricsRegistry::new(),
            )
            .unwrap(),
        );
        let n = 24u64;
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let transport = Arc::clone(&transport);
                std::thread::spawn(move || {
                    transport
                        .submit(
                            0,
                            ShardRequest::Prepare {
                                global: 100 + i,
                                proc: PUT7,
                                call: ProcedureCall::new(TY),
                                args: key_args(1000 + i),
                                trace: tebaldi_suite::obs::TraceCtx::NONE,
                            },
                        )
                        .wait()
                        .unwrap()
                        .unwrap()
                        .into_prepared()
                        .unwrap()
                })
            })
            .collect();
        for handle in handles {
            let (_, vote, _) = handle.join().unwrap();
            assert_eq!(vote, tebaldi_suite::cluster::Vote::ReadWrite);
        }
        assert_eq!(workers.in_doubt_count(), n as usize);
        // Every yes-vote was hardened before it was acknowledged.
        let prepares = device
            .read_back()
            .iter()
            .filter(|r| matches!(r, tebaldi_suite::storage::wal::LogRecord::Prepare { .. }))
            .count();
        assert_eq!(prepares, n as usize);
        let depth = max_depth(&workers);
        assert!(
            depth as usize <= WINDOW,
            "admission exceeded the window: {depth} > {WINDOW}"
        );
        assert!(
            depth >= 2,
            "a 1-worker shard must still overlap prepares, depth={depth}"
        );
        for i in 0..n {
            workers.decide_stamped(100 + i, false, 0);
        }
        ShardTransport::shutdown(&*transport);
        server.shutdown();
        workers.shutdown();
    }

    /// A wedged shard with a full pipeline: every queued request — those on
    /// the wire *and* those still waiting for a window slot — resolves
    /// within the prepare timeout; nothing hangs head-of-line, and no late
    /// prepare stays parked.
    #[test]
    fn full_pipeline_still_honors_prepare_timeout() {
        let mut procedures = ProcedureSet::new();
        procedures.insert(ProcedureInfo::new(
            TY,
            "pipeline",
            vec![(TABLE, AccessMode::Write)],
        ));
        let mut config = ClusterConfig::for_tests(2);
        config.transport = TransportKind::Tcp;
        config.workers_per_shard = 1;
        config.max_inflight_per_shard = 2;
        config.prepare_timeout_ms = 300;
        config.db_config.durability = tebaldi_suite::core::DurabilityMode::Synchronous;
        let cluster = Arc::new(
            Cluster::builder(config)
                .procedures(procedures)
                .cc_spec(CcTreeSpec::monolithic(CcKind::TwoPl, vec![TY]))
                // Wedge: every prepare body on this procedure sleeps far
                // past the prepare timeout.
                .shard_procedure(ProcId(60), |txn, args| {
                    let mut r = tebaldi_suite::storage::codec::ByteReader::new(args);
                    let id = r.u64().map_err(|e| CcError::Internal(e.to_string()))?;
                    std::thread::sleep(Duration::from_millis(1_200));
                    txn.increment(Key::simple(TABLE, id), 0, 1).map(Value::Int)
                })
                .build()
                .unwrap(),
        );
        for account in 0..8u64 {
            cluster.load(account, Key::simple(TABLE, account), Value::Int(0));
        }
        // Six concurrent cross-shard transactions all needing the wedged
        // procedure on shard 1: the window (2) fills, later submissions
        // wait for a slot that never opens in time.
        let started = Instant::now();
        let done = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let cluster = Arc::clone(&cluster);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let healthy = procs::increment_part(
                        0,
                        ProcedureCall::new(TY),
                        Key::simple(TABLE, 2 * (i as u64)),
                        0,
                        1,
                    );
                    let wedged = tebaldi_suite::cluster::ShardPart::new(
                        1,
                        ProcedureCall::new(TY),
                        ProcId(60),
                        key_args(2 * (i as u64) + 1),
                    );
                    let result = cluster.execute_multi(vec![healthy, wedged]);
                    done.fetch_add(1, Ordering::SeqCst);
                    result
                })
            })
            .collect();
        for handle in handles {
            let result = handle.join().unwrap();
            assert!(
                matches!(result, Err(CcError::Internal(_))),
                "a wedged pipeline must time out cleanly, got {result:?}"
            );
        }
        assert_eq!(done.load(Ordering::SeqCst), 6, "no request may hang");
        // Every caller resolved within a small multiple of the prepare
        // timeout (queued requests must not serialize their timeouts).
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "queued requests serialized their timeouts: {:?}",
            started.elapsed()
        );
        // The late prepares eventually land and must abort against the
        // orphan decisions rather than park holding locks.
        std::thread::sleep(Duration::from_millis(1_500));
        assert_eq!(cluster.in_doubt_count(), 0, "late prepares must not park");
        cluster.shutdown();
    }

    /// One client blasting an oversized burst down a single connection
    /// cannot starve a second connection: the server stops reading the
    /// burster once its per-connection admission budget is full, so the
    /// victim's single request reaches the shard queue almost immediately.
    #[test]
    fn burst_from_one_connection_cannot_starve_another() {
        let mut procedures = ProcedureSet::new();
        procedures.insert(ProcedureInfo::new(
            TY,
            "pipeline",
            vec![(TABLE, AccessMode::Write)],
        ));
        let db = Arc::new(
            Database::builder(DbConfig::for_tests())
                .procedures(procedures)
                .cc_spec(CcTreeSpec::monolithic(CcKind::TwoPl, vec![TY]))
                .build()
                .unwrap(),
        );
        db.load(Key::simple(TABLE, 1), Value::Int(9));
        let workers = ShardWorkers::spawn(0, db, 1, Arc::new(registry()), 8, None);
        // Small per-connection budget: at most 4 of the burster's requests
        // may occupy the shard queue at once.
        let server = TcpShardServer::spawn(0, Arc::clone(&workers), 4).unwrap();

        // The burster: 40 slow executes (~10ms each) down one connection,
        // with a client-side window wider than the whole burst (a
        // misbehaving client that does not match the server's budget).
        let window_wait = Duration::from_secs(10);
        let burster = Arc::new(
            TcpTransport::connect(&[server.addr()], 64, window_wait, &MetricsRegistry::new())
                .unwrap(),
        );
        let burst_tickets: Vec<_> = (0..40)
            .map(|_| {
                burster.submit(
                    0,
                    ShardRequest::Execute {
                        proc: NAP_GET,
                        call: ProcedureCall::new(TY),
                        args: key_args(1),
                        max_attempts: 3,
                        trace: tebaldi_suite::obs::TraceCtx::NONE,
                    },
                )
            })
            .collect();
        // Give the burst a moment to fill the server-side budget.
        std::thread::sleep(Duration::from_millis(30));

        // The victim: one fast request on its own connection.
        let victim =
            TcpTransport::connect(&[server.addr()], 4, window_wait, &MetricsRegistry::new())
                .unwrap();
        let started = Instant::now();
        let (value, _) = victim
            .submit(
                0,
                ShardRequest::Execute {
                    proc: procs::KV_GET,
                    call: ProcedureCall::new(TY),
                    args: procs::key_args(Key::simple(TABLE, 1)),
                    max_attempts: 3,
                    trace: tebaldi_suite::obs::TraceCtx::NONE,
                },
            )
            .wait()
            .unwrap()
            .unwrap()
            .into_executed()
            .unwrap();
        let victim_latency = started.elapsed();
        assert_eq!(value, Value::Int(9));
        // Unthrottled, the victim would wait out the whole ~400ms burst;
        // with the budget it queues behind at most a handful of naps.
        assert!(
            victim_latency < Duration::from_millis(200),
            "victim starved behind the burst: {victim_latency:?}"
        );
        // The burst still completes fully (throttled, not dropped).
        for ticket in burst_tickets {
            ticket.wait().unwrap().unwrap();
        }
        ShardTransport::shutdown(&victim);
        ShardTransport::shutdown(&*burster);
        server.shutdown();
        workers.shutdown();
    }
}

mod tcp_cluster {
    use tebaldi_suite::cc::{AccessMode, CcKind, CcTreeSpec, ProcedureInfo, ProcedureSet};
    use tebaldi_suite::cluster::{procs, Cluster, ClusterConfig, TransportKind};
    use tebaldi_suite::core::ProcedureCall;
    use tebaldi_suite::storage::{Key, TableId, TxnTypeId, Value};

    const ACCOUNTS: TableId = TableId(0);
    const TRANSFER: TxnTypeId = TxnTypeId(0);

    fn build(shards: usize) -> Cluster {
        let mut procedures = ProcedureSet::new();
        procedures.insert(ProcedureInfo::new(
            TRANSFER,
            "transfer",
            vec![(ACCOUNTS, AccessMode::Write)],
        ));
        let mut config = ClusterConfig::for_tests(shards);
        config.transport = TransportKind::Tcp;
        config.db_config.durability = tebaldi_suite::core::DurabilityMode::Synchronous;
        let cluster = Cluster::builder(config)
            .procedures(procedures)
            .cc_spec(CcTreeSpec::monolithic(CcKind::TwoPl, vec![TRANSFER]))
            .build()
            .unwrap();
        for account in 0..16u64 {
            cluster.load(account, Key::simple(ACCOUNTS, account), Value::Int(100));
        }
        cluster
    }

    /// A full 2PC over real sockets: prepares, durable decision, commits —
    /// and the wire counters prove the traffic actually crossed the
    /// transport.
    #[test]
    fn cross_shard_transfer_over_tcp_counts_wire_traffic() {
        let cluster = build(2);
        let values = cluster
            .execute_multi(vec![
                procs::increment_part(
                    cluster.shard_of(1),
                    ProcedureCall::new(TRANSFER),
                    Key::simple(ACCOUNTS, 1),
                    0,
                    -40,
                ),
                procs::increment_part(
                    cluster.shard_of(2),
                    ProcedureCall::new(TRANSFER),
                    Key::simple(ACCOUNTS, 2),
                    0,
                    40,
                ),
            ])
            .unwrap();
        assert_eq!(values, vec![Value::Int(60), Value::Int(140)]);
        assert_eq!(cluster.in_doubt_count(), 0);
        let stats = cluster.stats();
        assert_eq!(stats.coordinator.committed, 1);
        // 2 prepares + 2 decisions at minimum.
        assert!(stats.messages_sent >= 4, "got {}", stats.messages_sent);
        assert!(stats.bytes_on_wire > 0);
        assert_eq!(stats.decision_ack_timeouts, 0);
        cluster.shutdown();
    }

    /// The read-only vote class survives the wire: a get-only part still
    /// commits at phase one and the commit degenerates to one-phase.
    #[test]
    fn vote_classes_survive_the_wire() {
        let cluster = build(2);
        let values = cluster
            .execute_multi(vec![
                procs::increment_part(
                    cluster.shard_of(1),
                    ProcedureCall::new(TRANSFER),
                    Key::simple(ACCOUNTS, 1),
                    0,
                    5,
                ),
                procs::get_part(
                    cluster.shard_of(2),
                    ProcedureCall::new(TRANSFER),
                    Key::simple(ACCOUNTS, 2),
                ),
            ])
            .unwrap();
        assert_eq!(values, vec![Value::Int(105), Value::Int(100)]);
        let stats = cluster.stats();
        assert_eq!(stats.read_only_votes, 1);
        assert_eq!(stats.coordinator.one_phase, 1);
        assert_eq!(stats.coordinator.decisions_logged, 0);
        cluster.shutdown();
    }

    /// Single-shard executions and admin requests also frame correctly.
    #[test]
    fn single_shard_and_admin_over_tcp() {
        let cluster = build(2);
        let (value, _aborts) = cluster
            .execute_single(
                cluster.shard_of(3),
                procs::KV_INCREMENT,
                &ProcedureCall::new(TRANSFER),
                procs::increment_args(Key::simple(ACCOUNTS, 3), 0, 11),
                10,
            )
            .unwrap();
        assert_eq!(value, Value::Int(111));
        // Builtin get over the wire.
        let (value, _) = cluster
            .execute_single(
                cluster.shard_of(3),
                procs::KV_GET,
                &ProcedureCall::new(TRANSFER),
                procs::key_args(Key::simple(ACCOUNTS, 3)),
                10,
            )
            .unwrap();
        assert_eq!(value, Value::Int(111));
        cluster.shutdown();
    }
}

/// The delayed-ACK stall: a server that writes small replies on a socket
/// with Nagle on leaves every reply behind an unacknowledged one sitting in
/// the kernel until the client ACKs — which a client with nothing to send
/// does 40 ms later. It takes a link shared by several callers, one of
/// which is slow to come back with its next request (in a cluster: it is
/// busy on another shard): while its last reply stays un-ACKed, everybody
/// else's replies queue behind it.
mod stall {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    use tebaldi_suite::cc::{AccessMode, CcKind, CcTreeSpec, ProcedureInfo, ProcedureSet};
    use tebaldi_suite::cluster::{
        procs, Cluster, ClusterConfig, ReplicationConfig, ShardRequest, ShardTransport,
        ShardWorkers, TcpShardServer, TcpTransport, TransportKind,
    };
    use tebaldi_suite::core::{Database, DbConfig, DurabilityMode, ProcRegistry, ProcedureCall};
    use tebaldi_suite::obs::{MetricsRegistry, TraceCtx};
    use tebaldi_suite::storage::{Key, TableId, TxnTypeId};

    const TABLE: TableId = TableId(0);
    const TY: TxnTypeId = TxnTypeId(0);
    /// Back-to-back callers, and the calls each makes.
    const FAST_CLIENTS: u64 = 3;
    const CALLS: u64 = 300;
    /// How long the slow caller stays away between its calls: longer than
    /// `STALL`, so a reply held until it returns counts as stalled.
    const THINK: Duration = Duration::from_millis(25);
    const STALL: Duration = Duration::from_millis(20);

    fn procedures() -> ProcedureSet {
        let mut set = ProcedureSet::new();
        set.insert(ProcedureInfo::new(
            TY,
            "increment",
            vec![(TABLE, AccessMode::Write)],
        ));
        set
    }

    /// Four callers on one link — three back to back for `CALLS` calls
    /// each, one that pauses `THINK` between calls for as long as the
    /// others run — and the assertion that fewer than 1 % of all calls
    /// stalled. (With Nagle on the server's accepted socket 2 % of them
    /// did on the bare link and 11 % on the replicated shard, 25–44 ms
    /// each: held until the slow caller's next request carried the ACK.)
    fn hammer(what: &str, call: impl Fn(u64) + Sync) {
        let timed = |client: u64| {
            let started = Instant::now();
            call(client);
            started.elapsed()
        };
        let running = AtomicU64::new(FAST_CLIENTS);
        let mut latencies: Vec<Duration> = std::thread::scope(|scope| {
            let mut clients: Vec<_> = (1..=FAST_CLIENTS)
                .map(|client| {
                    let (timed, running) = (&timed, &running);
                    scope.spawn(move || {
                        let latencies = (0..CALLS).map(|_| timed(client)).collect::<Vec<_>>();
                        running.fetch_sub(1, Ordering::SeqCst);
                        latencies
                    })
                })
                .collect();
            clients.push(scope.spawn(|| {
                let mut latencies = Vec::new();
                while running.load(Ordering::SeqCst) > 0 {
                    latencies.push(timed(0));
                    std::thread::sleep(THINK);
                }
                latencies
            }));
            clients
                .into_iter()
                .flat_map(|client| client.join().expect("client thread"))
                .collect()
        });
        latencies.sort();
        let stalled = latencies.iter().filter(|l| **l > STALL).count();
        println!(
            "{what}: {} calls, median {:?}, p99 {:?}, slowest {:?}, {stalled} over {STALL:?}",
            latencies.len(),
            latencies[latencies.len() / 2],
            latencies[latencies.len() * 99 / 100],
            latencies[latencies.len() - 1],
        );
        assert!(
            stalled * 100 < latencies.len(),
            "{what}: {stalled} of {} calls took longer than {STALL:?} (slowest {:?})",
            latencies.len(),
            latencies[latencies.len() - 1],
        );
    }

    #[test]
    fn no_delayed_ack_stall_on_a_multiplexed_link() {
        let db = Arc::new(
            Database::builder(DbConfig::for_tests())
                .procedures(procedures())
                .cc_spec(CcTreeSpec::monolithic(CcKind::TwoPl, vec![TY]))
                .build()
                .unwrap(),
        );
        let mut registry = ProcRegistry::new();
        procs::register_builtins(&mut registry);
        let workers = ShardWorkers::spawn(0, db, 2, Arc::new(registry), 32, None);
        let server = TcpShardServer::spawn(0, Arc::clone(&workers), 32).unwrap();
        let transport = TcpTransport::connect(
            &[server.addr()],
            32,
            Duration::from_secs(10),
            &MetricsRegistry::new(),
        )
        .unwrap();
        hammer("one link, one shard server", |client| {
            let request = ShardRequest::Execute {
                proc: procs::KV_INCREMENT,
                call: ProcedureCall::new(TY),
                args: procs::increment_args(Key::simple(TABLE, client), 0, 1),
                max_attempts: 50,
                trace: TraceCtx::NONE,
            };
            transport.call(0, request).expect("increment commits");
        });
        ShardTransport::shutdown(&transport);
        server.shutdown();
        workers.shutdown();
    }

    #[test]
    fn no_delayed_ack_stall_on_a_replicated_shard() {
        let mut config = ClusterConfig::for_tests(1);
        config.transport = TransportKind::Tcp;
        config.db_config.durability = DurabilityMode::Synchronous;
        config.replication = Some(ReplicationConfig {
            replicas: 1,
            quorum: 1,
            ack_timeout_ms: 5_000,
        });
        let cluster = Cluster::builder(config)
            .procedures(procedures())
            .cc_spec(CcTreeSpec::monolithic(CcKind::TwoPl, vec![TY]))
            .build()
            .unwrap();
        hammer("one link, one replicated shard", |client| {
            let args = procs::increment_args(Key::simple(TABLE, client), 0, 1);
            cluster
                .execute_single(0, procs::KV_INCREMENT, &ProcedureCall::new(TY), args, 50)
                .expect("increment commits");
        });
        assert_eq!(cluster.stats().replica_acks_timed_out, 0);
        cluster.shutdown();
    }
}
