//! Deterministic, seed-driven fault injection for any [`ShardTransport`].
//!
//! [`FaultyTransport`] wraps an inner transport and injects per-shard
//! drop, delay (which reorders messages relative to their peers),
//! duplication, and full-partition faults from a reproducible schedule: a
//! [`FaultPlan`] seeds one RNG lane per shard, so a fixed seed and a
//! deterministic submission order replay the exact same fault sequence —
//! the property the chaos suite builds on (a failing seed is a
//! reproducible bug report).
//!
//! The faults are chosen to stay inside the failure model the 2PC
//! machinery claims to survive:
//!
//! * **Dropped request** — the frame never reaches the shard. Surfaces as
//!   [`CcError::Unreachable`] with `maybe_delivered = false`, exactly what
//!   the TCP transport reports for a failed send.
//! * **Dropped reply** — the shard processes the request but the answer is
//!   lost (`maybe_delivered = true`). For a prepare this means a shard may
//!   hold a prepared transaction the coordinator counts as a "no" vote;
//!   for a decision it means the decision applied but was never
//!   acknowledged.
//! * **Delay** — the request is held for a bounded interval before being
//!   forwarded, reordering it against every message submitted meanwhile.
//! * **Duplicated decision** — a Commit/Abort frame is delivered twice
//!   (network retransmission), exercising shard-side decision idempotency.
//!   Only decisions are duplicated: duplicating a body-running request
//!   would genuinely run it twice, which no transport layer can make safe.
//! * **Partition** — a window of consecutive messages to one shard is
//!   dropped wholesale, as if the link went away and came back.
//!
//! Admin requests (`Metrics`, `Flush`) pass through untouched so
//! tests can always observe the cluster they are torturing.
//!
//! Every injected fault increments a `transport.faults.*` counter in the
//! metrics registry the transport was built with.

use crate::api::{ShardRequest, ShardResult};
use crate::transport::ShardTransport;
use crate::worker::Ticket;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;
use tebaldi_cc::CcError;
use tebaldi_obs::{Counter, MetricsRegistry};

/// A reproducible fault schedule. All probabilities are per message in
/// `[0, 1]`; `0` disables that fault class.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seeds the per-shard RNG lanes (lane `s` uses `seed + s`).
    pub seed: u64,
    /// Probability a request frame is dropped before reaching the shard.
    pub drop_request: f64,
    /// Probability the shard's reply is dropped after it processed the
    /// request.
    pub drop_reply: f64,
    /// Probability a request is held for a random interval before being
    /// forwarded (reordering it against concurrent messages).
    pub delay: f64,
    /// Inclusive bounds, in milliseconds, of the injected delay.
    pub delay_ms: (u64, u64),
    /// Probability a decision frame (Commit/Abort) is delivered twice.
    pub duplicate_decision: f64,
    /// Probability a full-partition window opens at a message boundary.
    pub partition: f64,
    /// Inclusive bounds on how many consecutive messages one partition
    /// window swallows.
    pub partition_len: (u64, u64),
    /// Probability one shipped log batch on a primary→replica link is
    /// dropped (the shipper retries from the replica's acknowledged LSN, so
    /// a drop costs latency — replica lag — never divergence).
    pub drop_log_frame: f64,
    /// Probability a shipped log batch is held before the send.
    pub delay_log: f64,
    /// Inclusive bounds, in milliseconds, of the injected log delay.
    pub delay_log_ms: (u64, u64),
    /// Probability a replica-link partition window opens at a batch
    /// boundary: a run of consecutive ship attempts is swallowed, as if the
    /// log stream's link went away and came back.
    pub partition_log: f64,
    /// Inclusive bounds on how many consecutive ship attempts one
    /// replica-link partition window swallows.
    pub partition_log_len: (u64, u64),
}

impl FaultPlan {
    /// A plan that injects nothing (wiring tests).
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_request: 0.0,
            drop_reply: 0.0,
            delay: 0.0,
            delay_ms: (0, 0),
            duplicate_decision: 0.0,
            partition: 0.0,
            partition_len: (0, 0),
            drop_log_frame: 0.0,
            delay_log: 0.0,
            delay_log_ms: (0, 0),
            partition_log: 0.0,
            partition_log_len: (0, 0),
        }
    }

    /// The chaos-suite default: every fault class armed at rates high
    /// enough that a few hundred transactions hit each one, with delays
    /// short enough to stay under the coordinator's prepare timeout.
    pub fn hostile(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_request: 0.05,
            drop_reply: 0.05,
            delay: 0.10,
            delay_ms: (1, 10),
            duplicate_decision: 0.20,
            partition: 0.01,
            partition_len: (2, 8),
            drop_log_frame: 0.10,
            delay_log: 0.15,
            delay_log_ms: (1, 5),
            partition_log: 0.02,
            partition_log_len: (2, 6),
        }
    }

    /// Builds the deterministic fault lane for one primary→replica log
    /// stream. The lane seed mixes the shard and replica indices into the
    /// plan seed on a different stride than the transport lanes
    /// (`seed + shard`), so the log stream's fault sequence is independent
    /// of the request traffic while staying replayable from the same seed.
    pub fn replica_lane(&self, shard: usize, replica: usize) -> ReplicaLinkLane {
        let salt = 0x5265_706c_6963_6173u64 // "Replicas"
            .wrapping_add((shard as u64) << 8)
            .wrapping_add(replica as u64);
        ReplicaLinkLane {
            plan: self.clone(),
            rng: StdRng::seed_from_u64(self.seed.wrapping_add(salt)),
            partition_remaining: 0,
        }
    }
}

/// What a replica-link lane decided for one shipped log batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogLinkVerdict {
    /// Ship the batch now.
    Deliver,
    /// Hold the batch for the given interval, then ship it.
    Delay(Duration),
    /// Swallow this ship attempt (lost frame). The shipper retries from
    /// the replica's acknowledged LSN, so the cost is lag, not divergence.
    Drop,
    /// Swallow this attempt as part of an open partition window.
    Partitioned,
}

/// The deterministic fault lane of one primary→replica log stream: the
/// replica-link half of a [`FaultPlan`]. Owned by the shipper thread, so no
/// locking — the per-link fault sequence replays from the plan seed alone.
pub struct ReplicaLinkLane {
    plan: FaultPlan,
    rng: StdRng,
    /// Ship attempts the currently open partition window still swallows.
    partition_remaining: u64,
}

impl ReplicaLinkLane {
    /// Draws the fate of the next shipped log batch.
    pub fn judge(&mut self) -> LogLinkVerdict {
        if self.partition_remaining > 0 {
            self.partition_remaining -= 1;
            return LogLinkVerdict::Partitioned;
        }
        if self.plan.partition_log > 0.0 && self.rng.gen_bool(self.plan.partition_log) {
            let (lo, hi) = self.plan.partition_log_len;
            let window = self.rng.gen_range(lo.max(1)..=hi.max(lo.max(1)));
            self.partition_remaining = window.saturating_sub(1);
            return LogLinkVerdict::Partitioned;
        }
        if self.plan.drop_log_frame > 0.0 && self.rng.gen_bool(self.plan.drop_log_frame) {
            return LogLinkVerdict::Drop;
        }
        if self.plan.delay_log > 0.0 && self.rng.gen_bool(self.plan.delay_log) {
            let (lo, hi) = self.plan.delay_log_ms;
            return LogLinkVerdict::Delay(Duration::from_millis(
                self.rng.gen_range(lo..=hi.max(lo)),
            ));
        }
        LogLinkVerdict::Deliver
    }
}

/// One shard's fault lane: its RNG plus the partition state machine.
struct Lane {
    rng: StdRng,
    /// Messages the currently open partition window still swallows.
    partition_remaining: u64,
}

/// What the lane decided for one message.
struct Verdict {
    drop_request: bool,
    partitioned: bool,
    drop_reply: bool,
    duplicate: bool,
    delay: Option<Duration>,
}

/// A [`ShardTransport`] decorator injecting faults per [`FaultPlan`].
pub struct FaultyTransport {
    inner: Arc<dyn ShardTransport>,
    plan: FaultPlan,
    lanes: Vec<Mutex<Lane>>,
    dropped_requests: Arc<Counter>,
    dropped_replies: Arc<Counter>,
    delayed: Arc<Counter>,
    duplicated: Arc<Counter>,
    partitioned: Arc<Counter>,
}

impl FaultyTransport {
    /// Wraps `inner`, drawing fault decisions from `plan` and counting
    /// every injection under `transport.faults.*` in `metrics`.
    pub fn new(
        inner: Arc<dyn ShardTransport>,
        plan: FaultPlan,
        metrics: &MetricsRegistry,
    ) -> FaultyTransport {
        let lanes = (0..inner.shard_count())
            .map(|shard| {
                Mutex::new(Lane {
                    rng: StdRng::seed_from_u64(plan.seed.wrapping_add(shard as u64)),
                    partition_remaining: 0,
                })
            })
            .collect();
        FaultyTransport {
            inner,
            plan,
            lanes,
            dropped_requests: metrics.counter("transport.faults.dropped_requests"),
            dropped_replies: metrics.counter("transport.faults.dropped_replies"),
            delayed: metrics.counter("transport.faults.delayed"),
            duplicated: metrics.counter("transport.faults.duplicated"),
            partitioned: metrics.counter("transport.faults.partitioned"),
        }
    }

    /// Draws this message's fate from its shard lane. One lane lock per
    /// message keeps the per-shard fault sequence deterministic for a
    /// deterministic submission order.
    fn judge(&self, shard: usize, decision: bool) -> Verdict {
        let plan = &self.plan;
        let mut lane = self.lanes[shard].lock();
        // The partition state machine first: an open window swallows the
        // message outright, and a closed one may open here.
        if lane.partition_remaining > 0 {
            lane.partition_remaining -= 1;
            return Verdict {
                drop_request: true,
                partitioned: true,
                drop_reply: false,
                duplicate: false,
                delay: None,
            };
        }
        if plan.partition > 0.0 && lane.rng.gen_bool(plan.partition) {
            let (lo, hi) = plan.partition_len;
            let window = lane.rng.gen_range(lo.max(1)..=hi.max(lo.max(1)));
            // This message is the window's first casualty.
            lane.partition_remaining = window.saturating_sub(1);
            return Verdict {
                drop_request: true,
                partitioned: true,
                drop_reply: false,
                duplicate: false,
                delay: None,
            };
        }
        let drop_request = plan.drop_request > 0.0 && lane.rng.gen_bool(plan.drop_request);
        let drop_reply =
            !drop_request && plan.drop_reply > 0.0 && lane.rng.gen_bool(plan.drop_reply);
        let duplicate =
            decision && plan.duplicate_decision > 0.0 && lane.rng.gen_bool(plan.duplicate_decision);
        let delay = (plan.delay > 0.0 && lane.rng.gen_bool(plan.delay)).then(|| {
            let (lo, hi) = plan.delay_ms;
            Duration::from_millis(lane.rng.gen_range(lo..=hi.max(lo)))
        });
        Verdict {
            drop_request,
            partitioned: false,
            drop_reply,
            duplicate,
            delay,
        }
    }
}

/// The error a victim of request loss observes: identical to what the TCP
/// transport reports for a failed send.
fn never_delivered(shard: usize) -> Ticket<ShardResult> {
    Ticket::ready(Err(CcError::unreachable(
        format!("shard {shard} (injected fault)"),
        false,
    )))
}

impl ShardTransport for FaultyTransport {
    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn supports_repoint(&self) -> bool {
        self.inner.supports_repoint()
    }

    fn repoint(&self, shard: usize, addr: std::net::SocketAddr) -> bool {
        // Failover control traffic, like admin ops, is exempt from faults.
        self.inner.repoint(shard, addr)
    }

    fn submit(&self, shard: usize, request: ShardRequest) -> Ticket<ShardResult> {
        let decision = request.is_decision();
        if !decision && !request.runs_body() {
            // Admin traffic is exempt: observability of the cluster under
            // torture must stay reliable.
            return self.inner.submit(shard, request);
        }
        if shard >= self.lanes.len() {
            return self.inner.submit(shard, request);
        }
        let verdict = self.judge(shard, decision);
        if verdict.drop_request {
            if verdict.partitioned {
                self.partitioned.inc();
            } else {
                self.dropped_requests.inc();
            }
            return never_delivered(shard);
        }
        if verdict.duplicate {
            // Deliver the decision twice, keeping only the first reply —
            // a retransmission. Safe only because decisions are idempotent
            // shard-side (which is exactly what this fault proves).
            self.duplicated.inc();
            let _ = self.inner.submit(shard, request.clone());
        }
        match verdict.delay {
            None => {
                if verdict.drop_reply {
                    self.dropped_replies.inc();
                    // The shard processes the request; its answer is lost.
                    // A reaper thread consumes the real reply so windowed
                    // transports get their in-flight slot back.
                    let inner_ticket = self.inner.submit(shard, request);
                    std::thread::spawn(move || {
                        let _ = inner_ticket.wait();
                    });
                    Ticket::ready(Err(CcError::unreachable(
                        format!("shard {shard} (reply dropped)"),
                        true,
                    )))
                } else {
                    self.inner.submit(shard, request)
                }
            }
            Some(delay) => {
                self.delayed.inc();
                let inner = Arc::clone(&self.inner);
                let drop_reply = verdict.drop_reply;
                if drop_reply {
                    self.dropped_replies.inc();
                }
                let (tx, ticket) = Ticket::pending();
                std::thread::spawn(move || {
                    std::thread::sleep(delay);
                    let result = inner.call(shard, request);
                    let reply = if drop_reply {
                        Err(CcError::unreachable(
                            format!("shard {shard} (reply dropped)"),
                            true,
                        ))
                    } else {
                        result
                    };
                    let _ = tx.send(reply);
                });
                ticket
            }
        }
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_injects_nothing_and_hostile_plan_replays() {
        // Pure lane-math test: identical seeds draw identical verdicts.
        let plan = FaultPlan::hostile(42);
        let draw = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..64).map(|_| rng.gen::<u64>()).collect::<Vec<_>>()
        };
        assert_eq!(draw(plan.seed), draw(plan.seed));
        assert_ne!(draw(plan.seed), draw(plan.seed + 1));
        let quiet = FaultPlan::quiet(7);
        assert_eq!(quiet.drop_request, 0.0);
        assert_eq!(quiet.partition, 0.0);
        assert_eq!(quiet.drop_log_frame, 0.0);
        assert_eq!(quiet.partition_log, 0.0);
    }

    #[test]
    fn replica_lanes_replay_and_stay_independent() {
        let plan = FaultPlan::hostile(42);
        let draw = |shard: usize, replica: usize| {
            let mut lane = plan.replica_lane(shard, replica);
            (0..256).map(|_| lane.judge()).collect::<Vec<_>>()
        };
        // Same link → same schedule; different links → different schedules.
        assert_eq!(draw(0, 0), draw(0, 0));
        assert_ne!(draw(0, 0), draw(0, 1));
        assert_ne!(draw(0, 0), draw(1, 0));
        // Hostile rates actually fire every verdict class over 256 draws.
        let verdicts = draw(2, 0);
        assert!(verdicts.iter().any(|v| matches!(v, LogLinkVerdict::Drop)));
        assert!(verdicts
            .iter()
            .any(|v| matches!(v, LogLinkVerdict::Delay(_))));
        assert!(verdicts
            .iter()
            .any(|v| matches!(v, LogLinkVerdict::Partitioned)));
        // A quiet lane delivers everything.
        let mut quiet = FaultPlan::quiet(7).replica_lane(0, 0);
        assert!((0..64).all(|_| quiet.judge() == LogLinkVerdict::Deliver));
    }
}
