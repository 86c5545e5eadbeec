//! Integration tests for the paper's Theorem 6.1: schemes produced by the
//! full estimation → fragmentation → replication pipeline are Nash
//! equilibria (Definition 6.1), verified by the independent checker.

use nashdb_core::economics::{check_equilibrium, NodeSpec};
use nashdb_core::fragment::{
    fragment_stats, optimal_fragmentation, split_oversized, ChunkPrefix, GreedyFragmenter,
};
use nashdb_core::replication::{ClusterScheme, ReplicationPolicy};
use nashdb_core::value::{PricedScan, TupleValueEstimator};
use nashdb_sim::SimRng;

const TABLE: u64 = 1_000_000;
const WINDOW: usize = 50;

fn estimator_after(scans: usize, seed: u64) -> TupleValueEstimator {
    let mut est = TupleValueEstimator::new(WINDOW);
    let mut rng = SimRng::seed_from_u64(seed);
    for _ in 0..scans {
        let a = rng.uniform_u64(0, TABLE - 1);
        let len = rng.uniform_u64(1_000, TABLE / 3);
        est.observe(PricedScan::new(
            a,
            (a + len).min(TABLE),
            0.5 + 4.0 * rng.uniform_f64(),
        ));
    }
    est
}

fn spec() -> NodeSpec {
    NodeSpec::new(30.0, 300_000)
}

#[test]
fn greedy_pipeline_schemes_are_equilibria() {
    for seed in [1u64, 7, 42, 1337] {
        let est = estimator_after(200, seed);
        let chunks = est.chunks(TABLE);
        let prefix = ChunkPrefix::new(&chunks).unwrap();
        let mut frag = GreedyFragmenter::new(TABLE, 16);
        frag.run(&prefix, 64);
        let frag = split_oversized(&frag.fragmentation(), spec().disk).unwrap();
        let stats = fragment_stats(&frag, &prefix).unwrap();
        let scheme = ClusterScheme::build(&stats, ReplicationPolicy::new(WINDOW, spec())).unwrap();
        assert_eq!(
            check_equilibrium(&scheme.economic_config()),
            Ok(()),
            "seed {seed}: scheme is not in equilibrium"
        );
    }
}

#[test]
fn optimal_pipeline_schemes_are_equilibria() {
    let est = estimator_after(120, 5);
    let chunks = est.chunks(TABLE);
    let prefix = ChunkPrefix::new(&chunks).unwrap();
    let frag = optimal_fragmentation(&chunks, 12).unwrap();
    let frag = split_oversized(&frag, spec().disk).unwrap();
    let stats = fragment_stats(&frag, &prefix).unwrap();
    let scheme = ClusterScheme::build(&stats, ReplicationPolicy::new(WINDOW, spec())).unwrap();
    assert_eq!(check_equilibrium(&scheme.economic_config()), Ok(()));
}

#[test]
fn equilibrium_holds_across_window_evolution() {
    // Keep observing and rebuilding: every intermediate scheme must be an
    // equilibrium for its own window state.
    let mut est = TupleValueEstimator::new(WINDOW);
    let mut rng = SimRng::seed_from_u64(9);
    let mut fragmenter = GreedyFragmenter::new(TABLE, 12);
    for round in 0..10 {
        for _ in 0..25 {
            let a = rng.uniform_u64(0, TABLE - 1);
            let len = rng.uniform_u64(10_000, TABLE / 4);
            est.observe(PricedScan::new(a, (a + len).min(TABLE), 1.0));
        }
        let chunks = est.chunks(TABLE);
        let prefix = ChunkPrefix::new(&chunks).unwrap();
        fragmenter.run(&prefix, 8);
        let frag = split_oversized(&fragmenter.fragmentation(), spec().disk).unwrap();
        let stats = fragment_stats(&frag, &prefix).unwrap();
        let scheme = ClusterScheme::build(&stats, ReplicationPolicy::new(WINDOW, spec())).unwrap();
        assert_eq!(
            check_equilibrium(&scheme.economic_config()),
            Ok(()),
            "round {round}"
        );
    }
}

#[test]
fn replica_cap_can_break_equilibrium_but_only_toward_entry() {
    // With a hard replica cap, very hot fragments stay under-replicated:
    // the only violations the checker may report are profitable additions
    // (conditions 2/4), never profitable drops (condition 1).
    let mut est = TupleValueEstimator::new(WINDOW);
    for _ in 0..WINDOW {
        // A single scalding range read by every scan in the window.
        est.observe(PricedScan::new(0, 10_000, 100.0));
    }
    let chunks = est.chunks(TABLE);
    let prefix = ChunkPrefix::new(&chunks).unwrap();
    let frag = optimal_fragmentation(&chunks, 4).unwrap();
    let frag = split_oversized(&frag, spec().disk).unwrap();
    let stats = fragment_stats(&frag, &prefix).unwrap();
    let policy = ReplicationPolicy::new(WINDOW, spec()).with_max_replicas(3);
    let scheme = ClusterScheme::build(&stats, policy).unwrap();
    match check_equilibrium(&scheme.economic_config()) {
        Ok(()) => {}
        Err(nashdb_core::economics::EquilibriumViolation::AddProfitable { .. })
        | Err(nashdb_core::economics::EquilibriumViolation::EntryProfitable { .. }) => {}
        Err(other) => panic!("unexpected violation under a cap: {other:?}"),
    }
}
