//! Cluster transitioning (paper §7).
//!
//! When a new fragmentation/replication scheme is adopted, each node of the
//! old cluster should be "turned into" the new node it already most
//! resembles, so that as few tuples as possible cross the network. With
//! per-node data modeled as tuple [`IntervalSet`]s, the cost of turning old
//! node `m` into new node `m′` is `|Data(m′) − Data(m)|`; adding dummy
//! vertices for provisioned/decommissioned nodes makes the cost matrix
//! square, and a minimum-weight perfect matching ([`hungarian`]) is the
//! optimal transition strategy (Eq. 10).

mod hungarian;
mod interval_set;

pub use hungarian::{hungarian, HungarianError};
pub use interval_set::IntervalSet;

use crate::ids::NodeId;
use crate::replication::ClusterScheme;

/// One node's fate in a transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeMove {
    /// An existing node is kept and turned into a node of the new scheme,
    /// copying `transfer` tuples it does not already hold.
    Reuse {
        /// The node's id in the old scheme.
        old: NodeId,
        /// Its id in the new scheme.
        new: NodeId,
        /// Tuples to copy onto it.
        transfer: u64,
    },
    /// A fresh node is provisioned and receives its full contents.
    Provision {
        /// The node's id in the new scheme.
        new: NodeId,
        /// Tuples to copy onto it (its entire data set).
        transfer: u64,
    },
    /// An old node is released; nothing is copied.
    Decommission {
        /// The node's id in the old scheme.
        old: NodeId,
    },
}

impl NodeMove {
    /// Tuples this move copies.
    pub fn transfer(&self) -> u64 {
        match self {
            NodeMove::Reuse { transfer, .. } | NodeMove::Provision { transfer, .. } => *transfer,
            NodeMove::Decommission { .. } => 0,
        }
    }
}

/// The optimal transition between two schemes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionPlan {
    /// One entry per matched pair (including dummy pairings rendered as
    /// provision/decommission moves).
    pub moves: Vec<NodeMove>,
    /// Total tuples copied — the minimized objective (Eq. 10).
    pub total_transfer: u64,
}

impl TransitionPlan {
    /// Moves that reuse an old node.
    pub fn reused(&self) -> impl Iterator<Item = (NodeId, NodeId, u64)> + '_ {
        self.moves.iter().filter_map(|m| match m {
            NodeMove::Reuse { old, new, transfer } => Some((*old, *new, *transfer)),
            _ => None,
        })
    }

    /// Number of freshly provisioned nodes.
    pub fn provisioned(&self) -> usize {
        self.moves
            .iter()
            .filter(|m| matches!(m, NodeMove::Provision { .. }))
            .count()
    }

    /// Number of decommissioned nodes.
    pub fn decommissioned(&self) -> usize {
        self.moves
            .iter()
            .filter(|m| matches!(m, NodeMove::Decommission { .. }))
            .count()
    }
}

/// Plans the minimum-transfer transition from the nodes of `old` to the
/// nodes of `new`, each given as the interval set of tuples it stores.
pub fn plan_transition(old: &[IntervalSet], new: &[IntervalSet]) -> TransitionPlan {
    let watch = nashdb_obs::stopwatch();
    let n = old.len().max(new.len());
    if n == 0 {
        nashdb_obs::counter_add("transition.plans", 1);
        watch.record("transition.plan_ns");
        return TransitionPlan {
            moves: Vec::new(),
            total_transfer: 0,
        };
    }

    // Rows: old nodes then dummies. Columns: new nodes then dummies. With
    // `n = max(|old|, |new|)`, dummies only ever pad the smaller side, so a
    // dummy row never meets a dummy column; the `(_, None)` arm folds that
    // impossible pairing in with decommissioning (both cost 0).
    let cost: Vec<Vec<u64>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| match (old.get(i), new.get(j)) {
                    // Turning an old node into a new one: copy what's missing.
                    (Some(o), Some(nw)) => nw.difference_len(o),
                    // Provisioning a fresh node: copy everything.
                    (None, Some(nw)) => nw.len(),
                    // Decommissioning: free.
                    (_, None) => 0,
                })
                .collect()
        })
        .collect();

    // The matrix is square by construction with n ≥ 1 (checked above), so
    // the solver is called directly rather than through the validating
    // public wrapper.
    let (assignment, total_transfer) = hungarian::solve_square(&cost, n);

    let moves = assignment
        .iter()
        .enumerate()
        .filter_map(|(i, &j)| match (i < old.len(), j < new.len()) {
            (true, true) => Some(NodeMove::Reuse {
                old: NodeId(i as u64),
                new: NodeId(j as u64),
                transfer: cost[i][j],
            }),
            (false, true) => Some(NodeMove::Provision {
                new: NodeId(j as u64),
                transfer: cost[i][j],
            }),
            (true, false) => Some(NodeMove::Decommission {
                old: NodeId(i as u64),
            }),
            // Dummy-to-dummy pairs cannot occur (dummies pad one side only);
            // dropping the arm keeps the plan well-typed without a panic.
            (false, false) => None,
        })
        .collect();

    let plan = TransitionPlan {
        moves,
        total_transfer,
    };
    nashdb_obs::counter_add("transition.plans", 1);
    nashdb_obs::counter_add("transition.tuples_moved", plan.total_transfer);
    nashdb_obs::counter_add("transition.provisioned", plan.provisioned() as u64);
    nashdb_obs::counter_add("transition.decommissioned", plan.decommissioned() as u64);
    nashdb_obs::record("transition.matrix_dim", n as u64);
    watch.record("transition.plan_ns");
    plan
}

/// The per-node tuple interval sets of a [`ClusterScheme`], in node order —
/// the representation [`plan_transition`] consumes.
pub fn scheme_intervals(scheme: &ClusterScheme) -> Vec<IntervalSet> {
    scheme
        .nodes
        .iter()
        .map(|frags| {
            frags
                .iter()
                .filter_map(|f| scheme.range_of(*f))
                .map(|r| (r.start, r.end))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(runs: &[(u64, u64)]) -> IntervalSet {
        IntervalSet::from_intervals(runs.iter().copied())
    }

    #[test]
    fn identity_transition_is_free() {
        let nodes = vec![set(&[(0, 100)]), set(&[(100, 200)])];
        let plan = plan_transition(&nodes, &nodes);
        assert_eq!(plan.total_transfer, 0);
        assert_eq!(plan.provisioned(), 0);
        assert_eq!(plan.decommissioned(), 0);
        // Each node maps to its identical twin.
        for (old, new, t) in plan.reused() {
            assert_eq!(t, 0);
            assert_eq!(nodes[old.index()], nodes[new.index()]);
        }
    }

    #[test]
    fn scale_up_provisions_new_nodes() {
        let old = vec![set(&[(0, 100)])];
        let new = vec![set(&[(0, 100)]), set(&[(100, 200)])];
        let plan = plan_transition(&old, &new);
        assert_eq!(plan.total_transfer, 100);
        assert_eq!(plan.provisioned(), 1);
        assert_eq!(plan.decommissioned(), 0);
        // The surviving node keeps its data.
        let reused: Vec<_> = plan.reused().collect();
        assert_eq!(reused, vec![(NodeId(0), NodeId(0), 0)]);
    }

    #[test]
    fn scale_down_decommissions_for_free() {
        let old = vec![set(&[(0, 100)]), set(&[(100, 200)])];
        let new = vec![set(&[(0, 100)])];
        let plan = plan_transition(&old, &new);
        assert_eq!(plan.total_transfer, 0);
        assert_eq!(plan.decommissioned(), 1);
    }

    #[test]
    fn reuses_most_similar_node() {
        // New node wants (0, 90): old node A holds (0, 80), old node B holds
        // (200, 300). Matching must pick A (transfer 10), not B (90).
        let old = vec![set(&[(200, 300)]), set(&[(0, 80)])];
        let new = vec![set(&[(0, 90)])];
        let plan = plan_transition(&old, &new);
        assert_eq!(plan.total_transfer, 10);
        let reused: Vec<_> = plan.reused().collect();
        assert_eq!(reused, vec![(NodeId(1), NodeId(0), 10)]);
    }

    /// Structure of the paper's Fig. 5: three old nodes, four new nodes
    /// after re-fragmentation; the matching reuses the similar nodes and the
    /// total is the sum of the cheap edges.
    #[test]
    fn refragmentation_transition() {
        let old = vec![
            set(&[(0, 20), (30, 50)]),
            set(&[(20, 30), (30, 50)]),
            set(&[(0, 20), (50, 75)]),
        ];
        let new = vec![set(&[(0, 20), (20, 35)]), set(&[(35, 55), (55, 75)])];
        let plan = plan_transition(&old, &new);
        // One old node is destroyed (dummy column), two are reused.
        assert_eq!(plan.decommissioned(), 1);
        assert_eq!(plan.provisioned(), 0);
        // Brute force over the 3 choices of destroyed node × 2 pairings:
        // old0 -> new0 costs |(0,35) - {0-20,30-50}| = 10; old0 -> new1 = 20
        // old1 -> new0 costs 35 - (20..35∩{20-50}=15) = 20; old1 -> new1 = 20
        // old2 -> new0 costs 35 - 20 = 15;                  old2 -> new1 = 15
        // Best: old0->new0 (10) + old2->new1 (15) = 25, destroy old1.
        assert_eq!(plan.total_transfer, 25);
        let reused: Vec<_> = plan.reused().collect();
        assert!(reused.contains(&(NodeId(0), NodeId(0), 10)));
        assert!(reused.contains(&(NodeId(2), NodeId(1), 15)));
    }

    #[test]
    fn empty_both_sides() {
        let plan = plan_transition(&[], &[]);
        assert!(plan.moves.is_empty());
        assert_eq!(plan.total_transfer, 0);
    }

    #[test]
    fn scale_to_zero_decommissions_everything() {
        // New side empty: the cost matrix is all dummy columns.
        let old = vec![set(&[(0, 100)]), set(&[(100, 200)]), set(&[(200, 300)])];
        let plan = plan_transition(&old, &[]);
        assert_eq!(plan.total_transfer, 0);
        assert_eq!(plan.decommissioned(), 3);
        assert_eq!(plan.provisioned(), 0);
        assert_eq!(plan.reused().count(), 0);
    }

    #[test]
    fn single_old_node_to_single_new_node() {
        let old = vec![set(&[(0, 100)])];
        let new = vec![set(&[(50, 180)])];
        let plan = plan_transition(&old, &new);
        assert_eq!(plan.total_transfer, 80);
        let reused: Vec<_> = plan.reused().collect();
        assert_eq!(reused, vec![(NodeId(0), NodeId(0), 80)]);
    }

    #[test]
    fn rectangular_wide_growth() {
        // 1 old node, 4 new: three provisions plus one reuse, and the reuse
        // must pick the new node most similar to the survivor.
        let old = vec![set(&[(0, 100)])];
        let new = vec![
            set(&[(300, 400)]),
            set(&[(0, 90)]),
            set(&[(100, 200)]),
            set(&[(200, 300)]),
        ];
        let plan = plan_transition(&old, &new);
        assert_eq!(plan.provisioned(), 3);
        assert_eq!(plan.decommissioned(), 0);
        let reused: Vec<_> = plan.reused().collect();
        assert_eq!(reused, vec![(NodeId(0), NodeId(1), 0)]);
        // 100 + 100 + 100 provisioned, 0 for the reuse.
        assert_eq!(plan.total_transfer, 300);
    }

    #[test]
    fn rectangular_deep_shrink() {
        // 4 old nodes, 1 new: three decommissions, and the survivor is the
        // old node needing the least copying.
        let old = vec![
            set(&[(300, 400)]),
            set(&[(0, 60)]),
            set(&[(0, 95)]),
            set(&[(200, 300)]),
        ];
        let new = vec![set(&[(0, 100)])];
        let plan = plan_transition(&old, &new);
        assert_eq!(plan.decommissioned(), 3);
        assert_eq!(plan.provisioned(), 0);
        let reused: Vec<_> = plan.reused().collect();
        assert_eq!(reused, vec![(NodeId(2), NodeId(0), 5)]);
        assert_eq!(plan.total_transfer, 5);
    }

    #[test]
    fn empty_interval_sets_are_valid_nodes() {
        // A node holding nothing (all replicas evacuated) still matches:
        // turning it into any new node costs that node's full contents.
        let old = vec![IntervalSet::new(), set(&[(0, 100)])];
        let new = vec![set(&[(0, 100)]), set(&[(100, 150)])];
        let plan = plan_transition(&old, &new);
        // Reuse the full node for free, fill the empty one with 50 tuples.
        assert_eq!(plan.total_transfer, 50);
        assert_eq!(plan.provisioned(), 0);
    }

    #[test]
    fn cold_start_provisions_everything() {
        let new = vec![set(&[(0, 50)]), set(&[(50, 100)])];
        let plan = plan_transition(&[], &new);
        assert_eq!(plan.total_transfer, 100);
        assert_eq!(plan.provisioned(), 2);
    }

    #[test]
    fn plan_is_optimal_vs_brute_force() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for _ in 0..20 {
            let n_old = rng.gen_range(1..5usize);
            let n_new = rng.gen_range(1..5usize);
            let mk = |rng: &mut rand::rngs::StdRng| {
                let a = rng.gen_range(0..100u64);
                let b = a + rng.gen_range(1..100u64);
                set(&[(a, b)])
            };
            let old: Vec<_> = (0..n_old).map(|_| mk(&mut rng)).collect();
            let new: Vec<_> = (0..n_new).map(|_| mk(&mut rng)).collect();
            let plan = plan_transition(&old, &new);

            // Brute force over all injections of new nodes into old ∪ fresh.
            let n = n_old.max(n_new);
            let cost = |i: usize, j: usize| -> u64 {
                match (old.get(i), new.get(j)) {
                    (Some(o), Some(nw)) => nw.difference_len(o),
                    (None, Some(nw)) => nw.len(),
                    _ => 0,
                }
            };
            let mut best = u64::MAX;
            let mut perm: Vec<usize> = (0..n).collect();
            permute(&mut perm, 0, &mut |p: &[usize]| {
                let total: u64 = p.iter().enumerate().map(|(i, &j)| cost(i, j)).sum();
                best = best.min(total);
            });
            assert_eq!(plan.total_transfer, best);
        }
    }

    fn permute(items: &mut Vec<usize>, k: usize, visit: &mut impl FnMut(&[usize])) {
        if k == items.len() {
            visit(items);
            return;
        }
        for i in k..items.len() {
            items.swap(k, i);
            permute(items, k + 1, visit);
            items.swap(k, i);
        }
    }
}
