//! Static analysis for runtime pipelining (§4.4.2).
//!
//! RP "statically constructs a directed graph of tables, with edges
//! representing transactional data / control-flow dependencies, and
//! topologically sorts each strongly connected set of tables. Transactions
//! are correspondingly reordered and split into steps, with step *i*
//! accessing tables in set *i*."
//!
//! The input is the set of [`ProcedureInfo`](crate::procinfo::ProcedureInfo)
//! descriptions of the transaction types assigned to the RP group; the
//! output is an [`RpPlan`] mapping every table to a pipeline step. Tables
//! that participate in a circular access-order dependency collapse into the
//! same step, which is exactly the "coarser pipeline" effect the paper's
//! TPC-C discussion relies on (new_order + stock_level creating a cycle
//! between `stock`, `order_line` and `district`).

use crate::procinfo::ProcedureInfo;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use tebaldi_storage::TableId;

/// The result of RP's static analysis for one group.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RpPlan {
    /// Pipeline step of each table.
    step_of: HashMap<TableId, usize>,
    /// Number of steps.
    pub num_steps: usize,
    /// Number of tables that had to be merged into a shared step because of
    /// circular dependencies (a quality indicator: 0 means the finest
    /// possible pipeline).
    pub merged_tables: usize,
}

impl RpPlan {
    /// The pipeline step of a table. Tables unknown to the analysis are
    /// conservatively mapped to step 0 (the runtime clamps steps so they
    /// never run backwards).
    pub fn step_of(&self, table: TableId) -> usize {
        self.step_of.get(&table).copied().unwrap_or(0)
    }

    /// True when the table was part of the analysed access graph.
    pub fn covers(&self, table: TableId) -> bool {
        self.step_of.contains_key(&table)
    }
}

/// Builds the pipeline plan for a set of procedures.
///
/// Edges are added between consecutive distinct tables in each procedure's
/// access sequence; strongly connected components are merged into a single
/// step; components are then ordered topologically.
pub fn analyze(procedures: &[&ProcedureInfo]) -> RpPlan {
    // Collect tables and order edges.
    let mut tables: Vec<TableId> = Vec::new();
    let mut seen: HashSet<TableId> = HashSet::new();
    let mut edges: HashSet<(TableId, TableId)> = HashSet::new();
    for proc_info in procedures {
        let mut prev: Option<TableId> = None;
        for (table, _) in &proc_info.table_sequence {
            if seen.insert(*table) {
                tables.push(*table);
            }
            if let Some(p) = prev {
                if p != *table {
                    edges.insert((p, *table));
                }
            }
            prev = Some(*table);
        }
    }
    if tables.is_empty() {
        return RpPlan::default();
    }

    // Tarjan's strongly connected components.
    let index_of: HashMap<TableId, usize> =
        tables.iter().enumerate().map(|(i, t)| (*t, i)).collect();
    let n = tables.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (a, b) in &edges {
        adj[index_of[a]].push(index_of[b]);
    }

    struct Tarjan<'a> {
        adj: &'a [Vec<usize>],
        index: Vec<Option<usize>>,
        lowlink: Vec<usize>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        next_index: usize,
        component: Vec<usize>,
        components: usize,
    }
    impl Tarjan<'_> {
        fn strongconnect(&mut self, v: usize) {
            self.index[v] = Some(self.next_index);
            self.lowlink[v] = self.next_index;
            self.next_index += 1;
            self.stack.push(v);
            self.on_stack[v] = true;
            for &w in &self.adj[v].to_vec() {
                if self.index[w].is_none() {
                    self.strongconnect(w);
                    self.lowlink[v] = self.lowlink[v].min(self.lowlink[w]);
                } else if self.on_stack[w] {
                    self.lowlink[v] = self.lowlink[v].min(self.index[w].unwrap());
                }
            }
            if self.lowlink[v] == self.index[v].unwrap() {
                loop {
                    let w = self.stack.pop().unwrap();
                    self.on_stack[w] = false;
                    self.component[w] = self.components;
                    if w == v {
                        break;
                    }
                }
                self.components += 1;
            }
        }
    }

    let mut tarjan = Tarjan {
        adj: &adj,
        index: vec![None; n],
        lowlink: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        next_index: 0,
        component: vec![0; n],
        components: 0,
    };
    for v in 0..n {
        if tarjan.index[v].is_none() {
            tarjan.strongconnect(v);
        }
    }
    let component = tarjan.component;
    let num_components = tarjan.components;

    // Topological order of the condensed graph (Kahn). Tarjan emits
    // components in reverse topological order, but we recompute explicitly
    // so ties are broken deterministically by first-appearance order.
    let mut comp_edges: HashSet<(usize, usize)> = HashSet::new();
    let mut indegree = vec![0usize; num_components];
    for (a, b) in &edges {
        let ca = component[index_of[a]];
        let cb = component[index_of[b]];
        if ca != cb && comp_edges.insert((ca, cb)) {
            indegree[cb] += 1;
        }
    }
    let mut order: Vec<usize> = Vec::with_capacity(num_components);
    let mut ready: Vec<usize> = (0..num_components).filter(|c| indegree[*c] == 0).collect();
    ready.sort_unstable();
    while let Some(c) = ready.pop() {
        order.push(c);
        for &(a, b) in comp_edges.iter() {
            if a == c {
                indegree[b] -= 1;
                if indegree[b] == 0 {
                    ready.push(b);
                }
            }
        }
        ready.sort_unstable();
    }
    let step_of_component: HashMap<usize, usize> = order
        .iter()
        .enumerate()
        .map(|(step, comp)| (*comp, step))
        .collect();

    // Component sizes to report merged tables.
    let mut comp_size: HashMap<usize, usize> = HashMap::new();
    for &c in &component {
        *comp_size.entry(c).or_insert(0) += 1;
    }
    let merged_tables = comp_size
        .values()
        .filter(|s| **s > 1)
        .copied()
        .sum::<usize>();

    let step_of: HashMap<TableId, usize> = tables
        .iter()
        .map(|t| (*t, step_of_component[&component[index_of[t]]]))
        .collect();

    RpPlan {
        num_steps: num_components,
        step_of,
        merged_tables,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procinfo::AccessMode;
    use tebaldi_storage::TxnTypeId;

    fn proc(ty: u32, tables: &[u32]) -> ProcedureInfo {
        ProcedureInfo::new(
            TxnTypeId(ty),
            &format!("p{ty}"),
            tables
                .iter()
                .map(|t| (TableId(*t), AccessMode::Write))
                .collect(),
        )
    }

    #[test]
    fn linear_order_gives_one_step_per_table() {
        let p1 = proc(1, &[0, 1, 2]);
        let p2 = proc(2, &[1, 2]);
        let plan = analyze(&[&p1, &p2]);
        assert_eq!(plan.num_steps, 3);
        assert!(plan.step_of(TableId(0)) < plan.step_of(TableId(1)));
        assert!(plan.step_of(TableId(1)) < plan.step_of(TableId(2)));
        assert_eq!(plan.merged_tables, 0);
        assert!(plan.covers(TableId(2)));
        assert!(!plan.covers(TableId(9)));
    }

    #[test]
    fn conflicting_orders_merge_into_one_step() {
        // p1 accesses A then B, p2 accesses B then A: circular dependency.
        let p1 = proc(1, &[0, 1]);
        let p2 = proc(2, &[1, 0]);
        let plan = analyze(&[&p1, &p2]);
        assert_eq!(plan.step_of(TableId(0)), plan.step_of(TableId(1)));
        assert_eq!(plan.num_steps, 1);
        assert_eq!(plan.merged_tables, 2);
    }

    #[test]
    fn partial_cycle_keeps_rest_of_pipeline() {
        // Cycle between tables 1 and 2; tables 0 and 3 stay separate.
        let p1 = proc(1, &[0, 1, 2, 3]);
        let p2 = proc(2, &[2, 1]);
        let plan = analyze(&[&p1, &p2]);
        assert_eq!(plan.step_of(TableId(1)), plan.step_of(TableId(2)));
        assert!(plan.step_of(TableId(0)) < plan.step_of(TableId(1)));
        assert!(plan.step_of(TableId(2)) < plan.step_of(TableId(3)));
        assert_eq!(plan.num_steps, 3);
        assert_eq!(plan.merged_tables, 2);
    }

    #[test]
    fn tpcc_like_cycle_detected() {
        // new_order: district -> stock -> order_line
        // stock_level: district -> order_line -> stock
        // The preferred orders of stock and order_line conflict, so they
        // merge; district stays an earlier, separate step.
        let new_order = proc(1, &[10, 20, 30]);
        let stock_level = proc(2, &[10, 30, 20]);
        let plan = analyze(&[&new_order, &stock_level]);
        assert_eq!(plan.step_of(TableId(20)), plan.step_of(TableId(30)));
        assert!(plan.step_of(TableId(10)) < plan.step_of(TableId(20)));
        // Restricting the analysis to new_order alone recovers the finer
        // pipeline — the motivation for grouping (§3.1).
        let plan_no = analyze(&[&new_order]);
        assert_eq!(plan_no.num_steps, 3);
        assert_eq!(plan_no.merged_tables, 0);
    }

    #[test]
    fn empty_input_is_empty_plan() {
        let plan = analyze(&[]);
        assert_eq!(plan.num_steps, 0);
        assert_eq!(plan.step_of(TableId(1)), 0);
    }
}
