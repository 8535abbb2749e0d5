//! # tebaldi-core
//!
//! The Tebaldi transactional key-value store: the engine that federates
//! concurrency-control mechanisms in a hierarchical tree (Chapter 4 of the
//! dissertation / the SIGMOD 2017 paper) and supports online
//! reconfiguration (Chapter 5).
//!
//! ## Quick tour
//!
//! ```
//! use tebaldi_core::{Database, DbConfig, ProcedureCall};
//! use tebaldi_cc::{AccessMode, CcKind, CcTreeSpec, ProcedureInfo, ProcedureSet};
//! use tebaldi_storage::{Key, TableId, TxnTypeId, Value};
//!
//! // Describe the workload's transaction types.
//! let counter_table = TableId(0);
//! let ty = TxnTypeId(0);
//! let mut procedures = ProcedureSet::new();
//! procedures.insert(ProcedureInfo::new(
//!     ty,
//!     "bump",
//!     vec![(counter_table, AccessMode::Write)],
//! ));
//!
//! // Start with a monolithic 2PL configuration.
//! let db = Database::builder(DbConfig::for_tests())
//!     .procedures(procedures)
//!     .cc_spec(CcTreeSpec::monolithic(CcKind::TwoPl, vec![ty]))
//!     .build()
//!     .unwrap();
//!
//! // Run a transaction.
//! let key = Key::simple(counter_table, 1);
//! db.load(key, Value::Int(0));
//! let call = ProcedureCall::new(ty);
//! let new_value = db
//!     .execute(&call, |txn| txn.increment(key, 0, 1))
//!     .unwrap();
//! assert_eq!(new_value, 1);
//! ```
//!
//! The modules map onto the paper's components:
//!
//! * [`db`] / [`txn`] — transaction coordinators and the four-phase
//!   execution protocol over the CC tree (§4.3.1, §4.5.1),
//! * [`config`] — engine configuration (shards, timeouts, durability),
//! * [`procedure`] — per-invocation descriptors (instance seed for
//!   partition-by-instance, TSO promises),
//! * [`reconfig`] — the partial-restart and online-update protocols (§5.5),
//! * [`gate`] — the admission gate those protocols use to drain
//!   transaction types; it holds only the drain scope, the transaction
//!   directory says who is in flight,
//! * [`stats`] — the commit and per-cause abort counters, kept in the
//!   database's metrics registry and read by the evaluation harness.

pub mod config;
pub mod db;
pub mod gate;
pub mod hlc;
pub mod prepared;
pub mod procedure;
pub mod reconfig;
pub mod stats;
pub mod txn;

pub use config::{DbConfig, DurabilityMode};
pub use db::{retry_attempts, Database, DatabaseBuilder};
pub use hlc::{Hlc, HLC_ZERO};
pub use prepared::{ParticipantVote, PreparedTxn};
pub use procedure::{ProcId, ProcRegistry, ProcedureCall, ShardProcedure};
pub use reconfig::{diff_specs, ReconfigProtocol, ReconfigReport, SpecDiff};
pub use stats::StatsSnapshot;
pub use txn::Txn;
