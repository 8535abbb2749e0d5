//! # tebaldi-cc
//!
//! The Hierarchical Modular Concurrency Control (HMCC) framework of the
//! Tebaldi reproduction, together with the four concurrency-control
//! mechanisms the paper federates (§4.4):
//!
//! * [`twopl`] — two-phase locking with group-aware *nexus* locks,
//! * [`rp`] — runtime pipelining (static table-order analysis + pipelined
//!   step execution),
//! * [`ssi`] — serializable snapshot isolation with per-group batching,
//!   the read-only-root optimisation and safe read-only snapshots,
//! * [`tso`] — multiversion timestamp ordering with promises,
//! * [`nocc`] — the empty mechanism used for read-only groups.
//!
//! The framework pieces are:
//!
//! * [`mechanism`] — the four-phase [`CcMechanism`](mechanism::CcMechanism)
//!   trait (start / execution / validation / commit, §4.3.1) and the
//!   per-transaction context threaded through the tree,
//! * [`tree`] — CC-tree specifications (serializable configuration) and the
//!   runtime tree with per-group root→leaf paths,
//! * [`registry`] — the shared transaction directory (status, type, group)
//!   used for dependency waiting and group membership tests,
//! * [`lock`] — the group-aware lock manager shared by 2PL and RP,
//! * [`error`] — the closed list of abort causes: [`CcError`], the
//!   [`WaitLabel`] of a timeout and the [`Reason`] of a conflict,
//! * [`wait`] — the one bounded wait every blocking rule goes through
//!   (lock, pipeline step, promise, commit order), with its deadline, its
//!   timeout error and its blocking event,
//! * [`events`] — blocking-event instrumentation consumed by the automatic
//!   configuration profiler (§5.3.2),
//! * [`history`] / [`dsg`] — Adya-style execution histories and direct
//!   serialization graphs, used by the test suite as a serializability
//!   oracle (§2.2.3).

pub mod dsg;
pub mod error;
pub mod events;
pub mod history;
pub mod lock;
pub mod mechanism;
pub mod nocc;
pub mod oracle;
pub mod procinfo;
pub mod registry;
pub mod rp;
pub mod rp_analysis;
pub mod ssi;
pub mod topology;
pub mod tree;
pub mod tso;
pub mod twopl;
pub mod wait;

pub use error::{CcError, CcResult, Reason, WaitLabel};
pub use events::{BlockingEvent, EventSink, NullSink, VecSink};
pub use mechanism::{Access, CcKind, CcMechanism, Lane, NodeEnv, TxnCtx, VersionPick};
pub use oracle::TsOracle;
pub use procinfo::{AccessMode, ProcedureInfo, ProcedureSet};
pub use registry::{TxnRegistry, TxnStatus};
pub use topology::Topology;
pub use tree::{CcNodeSpec, CcTree, CcTreeSpec, GroupMap, PathEntry, TreeServices};
