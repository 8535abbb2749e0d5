//! Engine configuration.
//!
//! A [`DbConfig`] bundles everything that is *not* the MCC configuration:
//! how many hash stripes the store has, how long internal waits may last
//! before a transaction is timed out (deadlock resolution), whether and how
//! durability is enabled, and whether the history recorder is active.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Durability mode of the engine (maps onto
/// [`FlushPolicy`](tebaldi_storage::durability::FlushPolicy)).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DurabilityMode {
    /// No logging at all — the setting used by the Chapter 4 performance
    /// experiments, which predate the durability module.
    Off,
    /// Flush at every precommit.
    Synchronous,
    /// Asynchronous flushing with GCP epochs of the given length in
    /// milliseconds (§4.5.4; the paper uses one second).
    Asynchronous {
        /// GCP epoch length in milliseconds.
        epoch_ms: u64,
    },
}

/// Static engine configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DbConfig {
    /// Number of hash stripes of the store's key space. They are not the
    /// paper's data servers: a `Database` is one data server (it has one
    /// log); the many-server protocol of this tree is the cluster crate's
    /// `Prepare`/`Decision` two-phase commit.
    ///
    /// What the number buys: one insert lock per stripe (how many *first*
    /// writes of new keys can proceed at once) and the granularity of
    /// directory growth (a stripe rebuilds its own table, stalling new
    /// keys of that stripe only). Nothing else — lookups, chain reads and
    /// writes to existing keys are lock-free at any count, and the
    /// directory sizes itself from the key count, not from this.
    pub shards: usize,
    /// Bound on each internal wait (`tebaldi_cc::wait`): a lock, a pipeline
    /// step, a promised write — and the validation-phase wait on the
    /// transaction's *whole* dependency set, not each dependency in turn.
    pub wait_timeout_ms: u64,
    /// Durability mode.
    pub durability: DurabilityMode,
    /// Record an Adya-style execution history (tests only; costs memory).
    pub record_history: bool,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            shards: 16,
            wait_timeout_ms: 100,
            durability: DurabilityMode::Off,
            record_history: false,
        }
    }
}

impl DbConfig {
    /// Configuration used by most unit and integration tests: small, no
    /// durability, history recording enabled.
    pub fn for_tests() -> Self {
        DbConfig {
            shards: 4,
            wait_timeout_ms: 50,
            record_history: true,
            ..DbConfig::default()
        }
    }

    /// Configuration used by the benchmark harness: more shards, longer
    /// timeouts, no history.
    pub fn for_benchmarks() -> Self {
        DbConfig {
            shards: 32,
            wait_timeout_ms: 150,
            record_history: false,
            ..DbConfig::default()
        }
    }

    /// The wait timeout as a [`Duration`].
    pub fn wait_timeout(&self) -> Duration {
        Duration::from_millis(self.wait_timeout_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = DbConfig::default();
        assert!(c.shards > 0);
        assert_eq!(c.durability, DurabilityMode::Off);
        assert_eq!(c.wait_timeout(), Duration::from_millis(100));
    }

    #[test]
    fn serde_roundtrip() {
        let c = DbConfig {
            durability: DurabilityMode::Asynchronous { epoch_ms: 1000 },
            ..DbConfig::for_benchmarks()
        };
        let json = serde_json::to_string(&c).unwrap();
        let back: DbConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.durability, c.durability);
        assert_eq!(back.shards, c.shards);
    }
}
