//! The workloads and the systems under test they run against.
//!
//! Everything here goes through the crates' public items: the builders,
//! `Database::stats`, `MvStore::stats/access_counts`, the durability
//! manager's stats, `Cluster::stats/metrics` and the process trace sink.

use crate::layers::Counters;
use crate::spans::ProgramSpan;
use crate::tpcc::{
    check_state, ClusterClient, DbClient, Generator, Ledger, StateSummary, TpccClient, MAX_ATTEMPTS,
};
use std::sync::atomic::AtomicU32;
use std::sync::Arc;
use std::time::Duration;
use tebaldi_cc::CcTreeSpec;
use tebaldi_cluster::{Cluster, ClusterConfig, ReadConsistency, ReplicationConfig, TransportKind};
use tebaldi_core::{Database, DbConfig, DurabilityMode, ProcRegistry};
use tebaldi_storage::wal::{LogDevice, MemLogDevice};
use tebaldi_storage::{Key, TableId};
use tebaldi_workloads::tpcc::cluster::ClusterTpcc;
use tebaldi_workloads::tpcc::schema::{self, types, TpccKeys, TpccParams};
use tebaldi_workloads::tpcc::{configs, Tpcc};
use tebaldi_workloads::ClusterWorkload;

/// Write barrier of every WAL device (an NVMe fsync is tens of µs): group
/// commit is only measurable when a flush takes time.
pub const FLUSH_LATENCY: Duration = Duration::from_micros(20);
/// Shards of every cluster workload.
pub const SHARDS: usize = 2;
/// The traced pass samples one cluster transaction in this many.
pub const TRACE_SAMPLE_EVERY: u64 = 8;
/// A maintenance thread runs one GC cycle per database this often, as a
/// deployment would; without it no version is ever retired.
pub const GC_INTERVAL: Duration = Duration::from_millis(1_000);

/// A wire-bound workload idles this long before its first set-up, because the
/// host remembers what ran before it. Started within 3 s of a CPU-bound run
/// (another workload, or 5 s of busy loops on both cores) `cluster_tcp_repl`
/// commits 15 % fewer units on 50 % more CPU time per unit, and stays that way
/// for as long as it runs (45 s measured); started after 4 s or more of
/// idleness it does not. The CPU-bound workloads measure the same either way.
pub const SETTLE: Duration = Duration::from_secs(6);

/// The CC tree of a single-node workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tree {
    /// Monolithic SSI.
    Ssi,
    /// Tebaldi 2-layer (Fig. 4.6c): SSI over {read-only NoCC, RP updates}.
    TwoLayer,
    /// Tebaldi 3-layer (Fig. 4.6d): SSI over {NoCC, 2PL over {RP, RP}}.
    ThreeLayer,
}

/// How a cluster's coordinator reaches its shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wire {
    InProcess,
    Tcp,
    /// TCP plus one backup per shard, every commit gated on its ack.
    TcpReplicated,
}

/// Which system a workload runs against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    /// One `Database`, durability off, under the given CC tree.
    Db(Tree),
    /// A two-shard `Cluster`, monolithic SSI per shard, synchronous WAL.
    /// `readmix_snapshot`: the 10/10/50/30 mix with reads on the HLC
    /// snapshot path instead of the standard mix.
    Cluster { wire: Wire, readmix_snapshot: bool },
}

/// One workload of the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadDef {
    pub name: &'static str,
    /// Why it exists (one line; also written to `BENCHMARK.json`).
    pub why: &'static str,
    pub system: System,
    /// Closed-loop clients: a fixed constant, not scaled by the core count.
    /// 2 = cores of the reference box where clients are CPU-bound; 4 where a
    /// client mostly waits for a lock or a shard reply.
    pub clients: usize,
    pub warehouses: u32,
    /// In a traced pass, every n-th unit of a client records harness spans.
    pub span_every: u64,
}

const fn cluster(
    name: &'static str,
    why: &'static str,
    wire: Wire,
    readmix_snapshot: bool,
) -> WorkloadDef {
    WorkloadDef {
        name,
        why,
        system: System::Cluster {
            wire,
            readmix_snapshot,
        },
        clients: 4,
        warehouses: 8,
        span_every: 1,
    }
}

/// The workloads of `BENCHMARK.json`: each passes its state check and
/// repeats within the bounds at this commit.
pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "tpcc_ssi",
        why: "CPU-bound floor: version chains, SSI bookkeeping and txn machinery do all the work, \
              locks and waits none; hot-path work shows here, contention changes must not",
        system: System::Db(Tree::Ssi),
        clients: 2,
        warehouses: 4,
        span_every: 4,
    },
    WorkloadDef {
        name: "tpcc_hot_ssi",
        why:
            "Abort-bound: one warehouse, 4 clients; validation, abort clean-up and retry back-off \
              dominate; the reference the paper's ordering is stated against",
        system: System::Db(Tree::Ssi),
        clients: 4,
        warehouses: 1,
        span_every: 4,
    },
    cluster(
        "cluster_inproc",
        "Adds router, worker queue, sync WAL with group commit, pipeline and 2PC with zero wire; \
         WAL, pipeline and cluster-surface changes show here",
        Wire::InProcess,
        false,
    ),
    cluster(
        "cluster_tcp_repl",
        "Adds wire codec, TCP frames, WAL shipping and quorum ack to cluster_inproc; storage and \
         CC are a small share, so it shows wire and replication work and bypasses engine work",
        Wire::TcpReplicated,
        false,
    ),
    cluster(
        "cluster_readmix_snap",
        "Read-mostly mix (10/10/50/30) on HLC snapshot reads: same cluster and storage layers \
         used by readers beside writers; a write-path gain that taxes readers shows as a loss",
        Wire::InProcess,
        true,
    ),
];

/// Workloads the full command also runs and reports but `BENCHMARK.json`
/// does not gate, because at this commit they do not repeat within the
/// largest bound it allows (25 %). `cluster_tcp`: one unit in sixteen waits
/// 44 ms for a reply held back on the shard's socket, `tps` is a count of
/// those stalls, and how often they happen swings with whatever else the host
/// runs (inter-quartile range 19 to 32 % of the median on a busy host, where
/// `cluster_tcp_repl`, which stalls too, stays within 7 %). The layered
/// trees neither pass the state check reliably nor repeat (their throughput
/// is a count of 150 ms lock timeouts, 100 to 2000 txn/s from run to run).
pub const UNGATED_WORKLOADS: [WorkloadDef; 3] = [
    cluster(
        "cluster_tcp",
        "Adds wire codec and TCP frames to cluster_inproc, without replication: separates what \
         the wire costs from what replication costs",
        Wire::Tcp,
        false,
    ),
    WorkloadDef {
        name: "tpcc_hot_tree2",
        why:
            "Wait-bound: tpcc_hot_ssi's input under the 2-layer tree (SSI over RP); lock manager, \
              RP pipeline waits and the wait timeout do the work",
        system: System::Db(Tree::TwoLayer),
        clients: 4,
        warehouses: 1,
        span_every: 1,
    },
    WorkloadDef {
        name: "tpcc_hot_tree3",
        why: "The paper's headline configuration (3-layer tree) on the same input; loses district \
              updates even with one client, so its state check fails",
        system: System::Db(Tree::ThreeLayer),
        clients: 4,
        warehouses: 1,
        span_every: 1,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS
        .iter()
        .chain(&UNGATED_WORKLOADS)
        .find(|w| w.name == name)
}

impl WorkloadDef {
    pub fn params(&self) -> TpccParams {
        TpccParams {
            warehouses: self.warehouses,
            ..TpccParams::default()
        }
    }

    /// Idle time before the first set-up: see [`SETTLE`].
    pub fn settle(&self) -> Duration {
        match self.system {
            System::Cluster {
                wire: Wire::Tcp | Wire::TcpReplicated,
                ..
            } => SETTLE,
            _ => Duration::ZERO,
        }
    }

    fn tree(&self) -> CcTreeSpec {
        match self.system {
            System::Db(Tree::TwoLayer) => configs::tebaldi_two_layer(),
            System::Db(Tree::ThreeLayer) => configs::tebaldi_three_layer(),
            _ => configs::monolithic_ssi(),
        }
    }
}

fn wal_device() -> Arc<dyn LogDevice> {
    Arc::new(MemLogDevice::with_flush_latency(FLUSH_LATENCY))
}

/// The cluster every cluster workload and ladder rung is built from.
pub fn cluster_config(shards: usize, wire: Wire, sample_every: u64) -> ClusterConfig {
    let mut config = ClusterConfig::for_benchmarks(shards);
    config.workers_per_shard = 2;
    config.db_config.durability = DurabilityMode::Synchronous;
    config.trace_sample_every = sample_every;
    if wire != Wire::InProcess {
        config.transport = TransportKind::Tcp;
    }
    if wire == Wire::TcpReplicated {
        config.replication = Some(ReplicationConfig {
            replicas: 1,
            quorum: 1,
            ack_timeout_ms: 1_000,
        });
    }
    config
}

/// Builds a cluster over WAL devices with the benchmark's flush latency.
pub fn build_cluster(
    config: ClusterConfig,
    workload: Option<&ClusterTpcc>,
    spec: CcTreeSpec,
) -> Arc<Cluster> {
    let shards = config.shards;
    let mut builder = Cluster::builder(config)
        .cc_spec(spec)
        .shard_logs((0..shards).map(|_| wal_device()).collect())
        .decision_log(wal_device());
    builder = match workload {
        Some(workload) => {
            let mut registry = ProcRegistry::new();
            workload.register_procedures(&mut registry);
            builder
                .procedures(ClusterWorkload::procedures(workload))
                .shard_procedures(registry)
        }
        None => builder.procedures(schema::procedures(&TpccKeys::default().tables, false)),
    };
    Arc::new(builder.build().expect("cluster build"))
}

/// A built and loaded system under test.
pub enum Sut {
    Db(Arc<Database>),
    Cluster {
        cluster: Arc<Cluster>,
        workload: Arc<ClusterTpcc>,
    },
}

impl Sut {
    /// Builds the system and loads the initial TPC-C population. With
    /// `traced`, a cluster samples its own `coord.*`/`shard.*` spans.
    pub fn setup(def: &WorkloadDef, traced: bool) -> Sut {
        match def.system {
            System::Db(_) => {
                let db = Arc::new(
                    Database::builder(DbConfig::for_benchmarks())
                        .procedures(schema::procedures(&TpccKeys::default().tables, false))
                        .cc_spec(def.tree())
                        .build()
                        .expect("database build"),
                );
                tebaldi_workloads::tpcc::transactions::load(
                    &db,
                    &TpccKeys::default(),
                    &def.params(),
                );
                Sut::Db(db)
            }
            System::Cluster {
                wire,
                readmix_snapshot,
            } => {
                let mut tpcc = Tpcc::new(def.params());
                tpcc.max_attempts = MAX_ATTEMPTS;
                let (tpcc, remote_status) = if readmix_snapshot {
                    let mix = vec![
                        (types::NEW_ORDER, 10.0),
                        (types::PAYMENT, 10.0),
                        (types::ORDER_STATUS, 50.0),
                        (types::STOCK_LEVEL, 30.0),
                    ];
                    (tpcc.with_mix(mix), 0.30)
                } else {
                    (tpcc, 0.10)
                };
                // 1 % remote order lines; the second rate is the share of
                // payments and status checks for a remote customer.
                let workload =
                    Arc::new(ClusterTpcc::new(tpcc).with_remote_rates(0.01, remote_status));
                let sample = if traced { TRACE_SAMPLE_EVERY } else { 0 };
                let mut config = cluster_config(SHARDS, wire, sample);
                if readmix_snapshot {
                    config.default_read_consistency = ReadConsistency::Snapshot;
                }
                let cluster = build_cluster(config, Some(&workload), def.tree());
                workload.load(&cluster);
                Sut::Cluster { cluster, workload }
            }
        }
    }

    /// Client `i` draws its inputs from `seed + i`.
    pub fn clients(&self, def: &WorkloadDef, seed: u64) -> Vec<TpccClient> {
        let history_seq = Arc::new(AtomicU32::new(1));
        (0..def.clients as u64)
            .map(|i| match self {
                Sut::Db(db) => TpccClient::Db(DbClient::new(
                    Arc::clone(db),
                    Generator::new(def.params(), seed + i, Arc::clone(&history_seq)),
                )),
                Sut::Cluster { cluster, workload } => TpccClient::Cluster(ClusterClient::new(
                    Arc::clone(cluster),
                    Arc::clone(workload),
                    seed + i,
                )),
            })
            .collect()
    }

    pub fn databases(&self) -> Vec<Arc<Database>> {
        match self {
            Sut::Db(db) => vec![Arc::clone(db)],
            Sut::Cluster { cluster, .. } => (0..cluster.shard_count())
                .map(|i| cluster.shard(i))
                .collect(),
        }
    }

    /// Reads every cumulative counter the layers export.
    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for db in self.databases() {
            c.add_database(&db);
        }
        if let Sut::Cluster { cluster, .. } = self {
            c.add_cluster(cluster);
        }
        c
    }

    /// The program's trace-id sequence number reached so far (0 on the
    /// single-node engine, which samples nothing).
    pub fn trace_seq(&self) -> u64 {
        match self {
            Sut::Db(_) => 0,
            Sut::Cluster { cluster, .. } => {
                cluster.last_trace_id() & ((1u64 << tebaldi_obs::TRACE_SCOPE_SHIFT) - 1)
            }
        }
    }

    /// Pulls the spans of the program's sampled traces `from+1 ..= to` out
    /// of the process trace sink.
    pub fn collect_program_spans(&self, from: u64, to: u64, out: &mut Vec<ProgramSpan>) {
        let Sut::Cluster { cluster, .. } = self else {
            return;
        };
        for seq in from + 1..=to {
            let id = tebaldi_obs::scoped_trace_id(cluster.trace_scope(), seq);
            out.extend(tebaldi_obs::collect(id).into_iter().map(|s| ProgramSpan {
                trace_id: s.trace_id,
                name: s.name,
                start_ns: s.start_ns,
                end_ns: s.end_ns,
                status: s.status,
            }));
        }
    }

    /// Checks the final state against what the harness saw commit; on the
    /// replicated cluster also that each backup caught up with its
    /// primary's durable log.
    pub fn check(&self, def: &WorkloadDef, ledger: &Ledger) -> Result<StateSummary, String> {
        let stores: Vec<_> = self
            .databases()
            .iter()
            .map(|db| Arc::clone(db.store()))
            .collect();
        match self {
            Sut::Db(_) => check_state(&stores, |_| 0, &def.params(), ledger, true),
            Sut::Cluster { cluster, .. } => {
                let summary = check_state(
                    &stores,
                    |w| cluster.shard_of(w as u64),
                    &def.params(),
                    ledger,
                    false,
                )?;
                if cluster.config().replication.is_some() {
                    for shard in 0..cluster.shard_count() {
                        cluster
                            .follower_read(
                                shard,
                                0,
                                &Key::simple(TableId(0), shard as u64),
                                Duration::from_secs(5),
                            )
                            .map_err(|e| {
                                format!(
                                    "shard {shard}: backup did not catch up with the primary: {e}"
                                )
                            })?;
                    }
                }
                Ok(summary)
            }
        }
    }

    pub fn shutdown(&self) {
        match self {
            Sut::Db(db) => db.shutdown(),
            Sut::Cluster { cluster, .. } => cluster.shutdown(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_wire_bound_workloads_settle() {
        for def in WORKLOADS.iter().chain(&UNGATED_WORKLOADS) {
            let wire_bound = def.name.starts_with("cluster_tcp");
            assert_eq!(def.settle() == SETTLE, wire_bound, "{}", def.name);
            assert!(wire_bound || def.settle().is_zero(), "{}", def.name);
        }
    }
}
