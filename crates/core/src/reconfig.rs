//! Online reconfiguration protocols (§5.5).
//!
//! Tebaldi keeps evolving its MCC configuration at runtime. Two protocols
//! switch the database from the current CC tree to a new one while ongoing
//! transactions stay isolated:
//!
//! * **Partial restart** (§5.5.1) — drain every group, rebuild the whole
//!   concurrency-control module (including reconstructing its internal
//!   state from storage, the expensive part a full restart would also pay),
//!   swap, resume. Cheap compared to a real restart because the storage
//!   module and its data survive untouched.
//! * **Online update** (§5.5.2) — when the change is contained in a proper
//!   subtree of the CC tree, only the groups below the lowest changed node
//!   need to drain; the rest of the database keeps executing while the new
//!   subtree is prepared. The final swap still uses a brief global barrier
//!   in this reproduction (so old and new mechanism instances never serve
//!   overlapping transactions), which is documented as a substitution in
//!   DESIGN.md; the measurable difference — a much smaller throughput dip
//!   because the expensive preparation happens outside the barrier and only
//!   the affected groups stop early — is preserved (Fig. 5.19).

use crate::db::Database;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tebaldi_cc::{CcNodeSpec, CcTree, CcTreeSpec, TreeServices};
use tebaldi_storage::{GroupId, TxnTypeId};

/// Which reconfiguration protocol to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReconfigProtocol {
    /// Drain everything, rebuild everything.
    PartialRestart,
    /// Drain only the affected subtree's groups; falls back to a partial
    /// restart when the change reaches the root.
    OnlineUpdate,
}

/// Outcome of a reconfiguration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReconfigReport {
    /// Protocol actually executed (OnlineUpdate may fall back).
    pub protocol: ReconfigProtocol,
    /// Whether OnlineUpdate had to fall back to a partial restart.
    pub used_fallback: bool,
    /// Total wall-clock time of the switch.
    pub total_ms: f64,
    /// Time spent with (some) groups drained.
    pub drained_ms: f64,
    /// Number of groups that had to drain before the swap.
    pub drained_groups: usize,
    /// Keys scanned while rebuilding CC-internal state (partial restart
    /// only).
    pub scanned_keys: usize,
}

/// Result of comparing two configuration trees.
#[derive(Clone, Debug, PartialEq)]
pub struct SpecDiff {
    /// Transaction types whose handling changes.
    pub affected_types: Vec<TxnTypeId>,
    /// True when the lowest node containing every change is the root.
    pub change_at_root: bool,
    /// True when the specs are identical.
    pub identical: bool,
}

/// Computes which transaction types are affected by switching from `old` to
/// `new`, and whether the change reaches the root of the tree.
pub fn diff_specs(old: &CcTreeSpec, new: &CcTreeSpec) -> SpecDiff {
    fn node_differs(a: &CcNodeSpec, b: &CcNodeSpec) -> bool {
        a.kind != b.kind
            || a.is_leaf() != b.is_leaf()
            || a.txn_types != b.txn_types
            || a.children.len() != b.children.len()
            || a.instance_partitions != b.instance_partitions
    }

    /// Returns the set of affected types of the lowest changed subtree pair,
    /// plus the depth (0 = root) at which the change was rooted. `None`
    /// means the subtrees are identical.
    fn walk(a: &CcNodeSpec, b: &CcNodeSpec, depth: usize) -> Option<(Vec<TxnTypeId>, usize)> {
        if node_differs(a, b) {
            let mut types = a.all_types();
            types.extend(b.all_types());
            types.sort_unstable();
            types.dedup();
            return Some((types, depth));
        }
        let changed: Vec<(Vec<TxnTypeId>, usize)> = a
            .children
            .iter()
            .zip(&b.children)
            .filter_map(|(ca, cb)| walk(ca, cb, depth + 1))
            .collect();
        match changed.len() {
            0 => None,
            1 => changed.into_iter().next(),
            _ => {
                // Multiple children changed: this node is the change root.
                let mut types = a.all_types();
                types.extend(b.all_types());
                types.sort_unstable();
                types.dedup();
                Some((types, depth))
            }
        }
    }

    match walk(&old.root, &new.root, 0) {
        None => SpecDiff {
            affected_types: Vec::new(),
            change_at_root: false,
            identical: true,
        },
        Some((types, depth)) => SpecDiff {
            affected_types: types,
            change_at_root: depth == 0,
            identical: false,
        },
    }
}

impl Database {
    /// Switches the database to `new_spec` using the requested protocol.
    pub fn reconfigure(
        &self,
        new_spec: CcTreeSpec,
        protocol: ReconfigProtocol,
    ) -> Result<ReconfigReport, String> {
        new_spec.validate()?;
        let started = Instant::now();
        let old_spec = self.current_spec();
        let diff = diff_specs(&old_spec, &new_spec);
        if diff.identical {
            return Ok(ReconfigReport {
                protocol,
                used_fallback: false,
                total_ms: 0.0,
                drained_ms: 0.0,
                drained_groups: 0,
                scanned_keys: 0,
            });
        }

        let drain_timeout = Duration::from_secs(10);
        match protocol {
            ReconfigProtocol::PartialRestart => {
                let drain_started = Instant::now();
                self.gate.drain_all(drain_timeout);
                let scanned = self.rebuild_cc_module(&new_spec)?;
                let drained_groups = self.current_tree().group_count();
                self.gate.resume();
                Ok(ReconfigReport {
                    protocol: ReconfigProtocol::PartialRestart,
                    used_fallback: false,
                    total_ms: ms(started.elapsed()),
                    drained_ms: ms(drain_started.elapsed()),
                    drained_groups,
                    scanned_keys: scanned,
                })
            }
            ReconfigProtocol::OnlineUpdate => {
                if diff.change_at_root {
                    // The paper's online update only applies below the root;
                    // otherwise fall back.
                    let mut report =
                        self.reconfigure(new_spec, ReconfigProtocol::PartialRestart)?;
                    report.protocol = ReconfigProtocol::OnlineUpdate;
                    report.used_fallback = true;
                    return Ok(report);
                }
                // Prepare the new tree while unaffected groups keep running.
                let new_tree = self.build_tree(&new_spec)?;
                // Drain only the groups below the change point.
                let old_tree = self.current_tree();
                let affected: HashSet<GroupId> = diff
                    .affected_types
                    .iter()
                    .flat_map(|ty| old_tree.groups_of_type(*ty).iter().copied())
                    .collect();
                let drain_started = Instant::now();
                self.gate
                    .drain_groups(affected.iter().copied(), drain_timeout);
                // Brief global barrier for the swap itself.
                self.gate.drain_all(drain_timeout);
                *self.tree.write() = Arc::new(new_tree);
                self.reconfigurations.fetch_add(1, Ordering::Relaxed);
                self.gate.resume();
                Ok(ReconfigReport {
                    protocol: ReconfigProtocol::OnlineUpdate,
                    used_fallback: false,
                    total_ms: ms(started.elapsed()),
                    drained_ms: ms(drain_started.elapsed()),
                    drained_groups: affected.len(),
                    scanned_keys: 0,
                })
            }
        }
    }

    fn build_tree(&self, spec: &CcTreeSpec) -> Result<CcTree, String> {
        let services = TreeServices {
            registry: Arc::clone(&self.registry),
            oracle: Arc::clone(&self.oracle),
            events: Arc::clone(&self.events),
            wait_timeout: self.config.wait_timeout(),
            metrics: Arc::clone(&self.metrics),
        };
        CcTree::build(spec.clone(), &self.procedures, &services)
    }

    /// Rebuilds the whole concurrency-control module: new mechanism
    /// instances for every node plus the state-reconstruction scan of the
    /// prepare phase (§5.5.1). Returns the number of keys scanned.
    fn rebuild_cc_module(&self, spec: &CcTreeSpec) -> Result<usize, String> {
        let tree = self.build_tree(spec)?;
        // Reconstruct CC-internal state (indices, version maps): logically a
        // recovery transaction that touches the latest committed version of
        // every object (§4.5.4 / §5.5.1). The scan cost is what makes the
        // partial restart visibly more expensive than the online update.
        let mut scanned = 0usize;
        self.store.for_each_key(|_, chain| {
            if chain.latest_committed().is_some() {
                scanned += 1;
            }
        });
        self.registry.compact();
        *self.tree.write() = Arc::new(tree);
        self.reconfigurations.fetch_add(1, Ordering::Relaxed);
        Ok(scanned)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use tebaldi_cc::CcKind;

    fn leaf(kind: CcKind, label: &str, tys: &[u32]) -> CcNodeSpec {
        CcNodeSpec::leaf(kind, label, tys.iter().map(|t| TxnTypeId(*t)).collect())
    }

    #[test]
    fn identical_specs_have_empty_diff() {
        let spec = CcTreeSpec::new(CcNodeSpec::inner(
            CcKind::Ssi,
            "root",
            vec![leaf(CcKind::TwoPl, "a", &[0]), leaf(CcKind::Rp, "b", &[1])],
        ));
        let diff = diff_specs(&spec, &spec.clone());
        assert!(diff.identical);
        assert!(diff.affected_types.is_empty());
    }

    #[test]
    fn leaf_change_is_not_at_root() {
        let old = CcTreeSpec::new(CcNodeSpec::inner(
            CcKind::Ssi,
            "root",
            vec![
                leaf(CcKind::NoCc, "readers", &[2]),
                CcNodeSpec::inner(
                    CcKind::TwoPl,
                    "updates",
                    vec![
                        leaf(CcKind::TwoPl, "a", &[0]),
                        leaf(CcKind::TwoPl, "b", &[1]),
                    ],
                ),
            ],
        ));
        // Change only the mechanism of leaf "a".
        let new = CcTreeSpec::new(CcNodeSpec::inner(
            CcKind::Ssi,
            "root",
            vec![
                leaf(CcKind::NoCc, "readers", &[2]),
                CcNodeSpec::inner(
                    CcKind::TwoPl,
                    "updates",
                    vec![leaf(CcKind::Rp, "a", &[0]), leaf(CcKind::TwoPl, "b", &[1])],
                ),
            ],
        ));
        let diff = diff_specs(&old, &new);
        assert!(!diff.identical);
        assert!(!diff.change_at_root);
        assert_eq!(diff.affected_types, vec![TxnTypeId(0)]);
    }

    #[test]
    fn root_change_detected() {
        let old = CcTreeSpec::new(leaf(CcKind::TwoPl, "all", &[0, 1]));
        let new = CcTreeSpec::new(CcNodeSpec::inner(
            CcKind::Ssi,
            "root",
            vec![
                leaf(CcKind::TwoPl, "a", &[0]),
                leaf(CcKind::TwoPl, "b", &[1]),
            ],
        ));
        let diff = diff_specs(&old, &new);
        assert!(diff.change_at_root);
        assert_eq!(diff.affected_types.len(), 2);
    }

    #[test]
    fn multiple_changed_children_root_the_change_at_parent() {
        let old = CcTreeSpec::new(CcNodeSpec::inner(
            CcKind::Ssi,
            "root",
            vec![
                CcNodeSpec::inner(
                    CcKind::TwoPl,
                    "u",
                    vec![
                        leaf(CcKind::TwoPl, "a", &[0]),
                        leaf(CcKind::TwoPl, "b", &[1]),
                    ],
                ),
                leaf(CcKind::NoCc, "r", &[2]),
            ],
        ));
        let new = CcTreeSpec::new(CcNodeSpec::inner(
            CcKind::Ssi,
            "root",
            vec![
                CcNodeSpec::inner(
                    CcKind::TwoPl,
                    "u",
                    vec![leaf(CcKind::Rp, "a", &[0]), leaf(CcKind::Tso, "b", &[1])],
                ),
                leaf(CcKind::NoCc, "r", &[2]),
            ],
        ));
        let diff = diff_specs(&old, &new);
        assert!(!diff.change_at_root);
        assert_eq!(diff.affected_types, vec![TxnTypeId(0), TxnTypeId(1)]);
    }
}
