//! NashDB proper: the value-estimation → fragmentation → replication
//! pipeline behind the [`Distributor`] interface.

use std::collections::HashMap;

use nashdb_cluster::QueryRequest;
use nashdb_core::economics::NodeSpec;
use nashdb_core::fragment::{
    fragment_stats, split_oversized, ChunkPrefix, FragmentRange, FragmentStats, GreedyFragmenter,
};
use nashdb_core::ids::{FragmentId, TableId};
use nashdb_core::num::{saturating_u64, usize_from};
use nashdb_core::replication::{decide_replicas, ReplicationPolicy};
use nashdb_core::value::{PricedScan, TupleValueEstimator};
use nashdb_workload::Database;

use crate::scheme::{DistScheme, Distributor, GlobalFragment};

/// NashDB configuration.
#[derive(Debug, Clone, Copy)]
pub struct NashDbConfig {
    /// Scan window size `|W|` (the paper's experiments use 50).
    pub window: usize,
    /// Node economics: rent per reconfiguration period (1/100 cent) and
    /// disk capacity (tuples).
    pub spec: NodeSpec,
    /// Fragment cap per table (`maxFrags`), the paper's "average fragment
    /// fills a disk block" knob.
    pub max_frags_per_table: usize,
    /// Greedy split/merge rounds per reconfiguration.
    pub greedy_rounds: usize,
    /// Safety cap on replicas per fragment.
    pub max_replicas: u64,
    /// Maximum fragment size in tuples (the paper's "average fragment fits
    /// a disk block": fragments are the unit of a replica *and* of a read,
    /// so oversized uniform-value regions are split to this cap to keep
    /// single reads bounded). Always additionally capped by `spec.disk`.
    pub max_fragment_tuples: u64,
    /// Minimum relative error improvement for a refragmentation change
    /// (paper footnote 2); damps boundary churn from window noise.
    pub refrag_sensitivity: f64,
}

impl Default for NashDbConfig {
    fn default() -> Self {
        NashDbConfig {
            window: 50,
            spec: NodeSpec::new(100.0, 50_000_000), // 50 GB-equivalent nodes
            max_frags_per_table: 64,
            greedy_rounds: 96,
            max_replicas: 512,
            max_fragment_tuples: u64::MAX,
            refrag_sensitivity: 0.05,
        }
    }
}

struct TableState {
    tuples: u64,
    estimator: TupleValueEstimator,
    fragmenter: GreedyFragmenter,
}

/// One table's slice of the fragmentation stage: value chunks -> greedy
/// fragmentation -> disk-fit split -> per-fragment statistics.
/// Stats come back with table-local ids; the caller re-identifies them
/// globally. The chunks' prefix statistics are built once and serve both
/// the greedy fragmenter and the statistics.
fn table_fragments(
    cfg: &NashDbConfig,
    converged: bool,
    t_idx: usize,
    t: &mut TableState,
) -> Vec<FragmentStats> {
    let chunks = {
        let _chunks = nashdb_obs::span("value_chunks");
        t.estimator.chunks(t.tuples)
    };
    // The estimator always emits contiguous chunks over a nonempty table,
    // so the fallbacks below only guard a broken estimator (or config);
    // debug builds surface it.
    let prefix = ChunkPrefix::new(&chunks);
    debug_assert!(prefix.is_ok(), "table {t_idx}: {:?}", prefix.as_ref().err());
    let Ok(prefix) = prefix else {
        return Vec::new();
    };
    let rounds = if converged {
        cfg.greedy_rounds
    } else {
        cfg.greedy_rounds.max(24 * cfg.max_frags_per_table)
    };
    t.fragmenter.run(&prefix, rounds);
    let frag = t.fragmenter.fragmentation();
    #[cfg(feature = "invariant-audit")]
    {
        let audit = nashdb_core::audit::audit_value_tree(&t.estimator);
        assert!(
            audit.is_ok(),
            "table {t_idx} value-tree audit failed: {audit:?}"
        );
        let audit =
            nashdb_core::audit::audit_fragmentation(&frag, &chunks, cfg.max_frags_per_table);
        assert!(
            audit.is_ok(),
            "table {t_idx} fragmentation audit failed: {audit:?}"
        );
    }
    #[cfg(not(feature = "invariant-audit"))]
    let _ = t_idx;
    let split = split_oversized(&frag, cfg.spec.disk.min(cfg.max_fragment_tuples.max(1)));
    debug_assert!(split.is_ok(), "table {t_idx}: {:?}", split.as_ref().err());
    let stats = fragment_stats(&split.unwrap_or(frag), &prefix);
    debug_assert!(stats.is_ok(), "table {t_idx}: {:?}", stats.as_ref().err());
    stats.unwrap_or_default()
}

/// The NashDB system: per-table tuple value estimators and fragmenters, plus
/// the economic replication manager.
pub struct NashDbDistributor {
    cfg: NashDbConfig,
    tables: Vec<TableState>,
    /// False until the first scheme computation, which runs the greedy
    /// fragmenter to convergence; later calls apply only `greedy_rounds`
    /// incremental rounds so fragment boundaries (and therefore replica
    /// placements) drift slowly and transitions stay cheap.
    converged: bool,
    /// Replica counts of the previous scheme, for hysteresis: a fragment
    /// whose `Ideal(f)` stayed within ±25 % (min ±1) of its old count keeps
    /// the old count. Inside window-sampling noise the marginal replica is
    /// profit-neutral either way, so the damped counts remain
    /// equilibrium-compatible — and without damping, count flutter re-sorts
    /// the packing order every period and churns the whole placement (the
    /// paper's <200 MB/transition measurements imply its schemes were
    /// similarly stable hour over hour).
    prev_counts: HashMap<(TableId, FragmentRange), u64>,
    /// The persistent replica placement: per node, the fragments (by table
    /// and range) it hosts. Re-running BFFD from scratch each period would
    /// re-deal most of the cluster whenever a count or boundary changes;
    /// instead existing assignments are kept, BFFD places only the deltas,
    /// and under-filled nodes are evacuated (see DESIGN.md §5).
    placement: Vec<Vec<PlacementKey>>,
}

/// A fragment's stable identity across reconfigurations.
type PlacementKey = (TableId, FragmentRange);

impl std::fmt::Debug for NashDbDistributor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NashDbDistributor")
            .field("cfg", &self.cfg)
            .field("tables", &self.tables.len())
            .field("converged", &self.converged)
            .field("nodes", &self.placement.len())
            .finish_non_exhaustive()
    }
}

impl NashDbDistributor {
    /// Creates the system for a database.
    pub fn new(db: &Database, cfg: NashDbConfig) -> Self {
        assert!(cfg.window > 0, "window must be nonzero");
        assert!(cfg.max_frags_per_table > 0, "maxFrags must be nonzero");
        let tables = db
            .tables
            .iter()
            .map(|t| TableState {
                tuples: t.tuples,
                estimator: TupleValueEstimator::new(cfg.window),
                fragmenter: GreedyFragmenter::new(t.tuples, cfg.max_frags_per_table)
                    .with_min_relative_gain(cfg.refrag_sensitivity),
            })
            .collect();
        NashDbDistributor {
            cfg,
            tables,
            converged: false,
            prev_counts: HashMap::new(),
            placement: Vec::new(),
        }
    }

    /// Placement-preserving replica allocation: keeps every still-valid
    /// assignment, removes stale/surplus replicas, first-fit-places the
    /// deficit (highest replica counts first, hash-scattered within a
    /// count, as in [`pack_bffd`](nashdb_core::replication::pack_bffd)),
    /// evacuates under-filled nodes, and drops empty ones.
    fn place(
        &mut self,
        globals: &[GlobalFragment],
        decisions: &[nashdb_core::replication::ReplicationDecision],
    ) -> Vec<Vec<usize>> {
        let disk = self.cfg.spec.disk;
        let key_of = |i: usize| (globals[i].table, globals[i].range);
        let mut desired: HashMap<PlacementKey, u64> = HashMap::new();
        let mut index: HashMap<PlacementKey, usize> = HashMap::new();
        for (i, d) in decisions.iter().enumerate() {
            desired.insert(key_of(i), d.replicas);
            index.insert(key_of(i), i);
        }
        let size_of = |k: &PlacementKey| k.1.size();

        // 1. Drop replicas of fragments that no longer exist, remembering
        //    what each node lost: a boundary shift renames a fragment, and
        //    the replacement should land where the old data already sits so
        //    the transition only ships the boundary delta.
        let mut removed: Vec<Vec<PlacementKey>> = Vec::with_capacity(self.placement.len());
        for node in &mut self.placement {
            let mut lost = Vec::new();
            node.retain(|k| {
                if desired.contains_key(k) {
                    true
                } else {
                    lost.push(*k);
                    false
                }
            });
            removed.push(lost);
        }

        // 2. Current counts.
        let mut current: HashMap<PlacementKey, u64> = HashMap::new();
        for node in &self.placement {
            for k in node {
                *current.entry(*k).or_default() += 1;
            }
        }

        // 3. Remove surplus replicas, from the last nodes backwards (they
        //    are the most recently opened and emptiest on average).
        for node in self.placement.iter_mut().rev() {
            node.retain(|k| {
                // Every retained key was counted in step 2, so the lookup
                // always succeeds; an absent key is simply kept.
                let Some(cur) = current.get_mut(k) else {
                    return true;
                };
                if *cur > desired[k] {
                    *cur -= 1;
                    false
                } else {
                    true
                }
            });
        }

        // 4. Place the deficit: highest counts first, hash-scattered within
        //    a count class so physically adjacent fragments spread.
        let scatter = |k: &PlacementKey| {
            (k.1.start ^ k.1.end.rotate_left(17) ^ k.0.get().rotate_left(41))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        };
        let mut used: Vec<u64> = self
            .placement
            .iter()
            .map(|node| node.iter().map(size_of).sum())
            .collect();
        let mut deficit: Vec<(PlacementKey, u64)> = decisions
            .iter()
            .enumerate()
            .filter_map(|(i, d)| {
                let k = key_of(i);
                let have = current.get(&k).copied().unwrap_or(0);
                (d.replicas > have).then_some((k, d.replicas - have))
            })
            .collect();
        deficit.sort_by_key(|(k, _)| (std::cmp::Reverse(desired[k]), scatter(k)));
        let overlap = |a: &PlacementKey, b: &PlacementKey| -> u64 {
            if a.0 == b.0 {
                a.1.overlap(b.1.start, b.1.end)
            } else {
                0
            }
        };
        for (k, missing) in deficit {
            let size = size_of(&k);
            for _ in 0..missing {
                // Prefer the node that just lost the most overlapping data
                // (it already stores most of these tuples); fall back to
                // first fit.
                let fits = |n: usize| used[n] + size <= disk && !self.placement[n].contains(&k);
                let slot = (0..self.placement.len())
                    .filter(|&n| fits(n))
                    .map(|n| (removed[n].iter().map(|r| overlap(r, &k)).sum::<u64>(), n))
                    .filter(|&(ov, _)| ov > 0)
                    .max_by_key(|&(ov, n)| (ov, std::cmp::Reverse(n)))
                    .map(|(_, n)| n)
                    .or_else(|| (0..self.placement.len()).find(|&n| fits(n)));
                match slot {
                    Some(n) => {
                        self.placement[n].push(k);
                        used[n] = used[n].saturating_add(size);
                        // The reclaimed overlap is no longer "lost" there.
                        if let Some(pos) = removed[n].iter().position(|r| overlap(r, &k) > 0) {
                            removed[n].swap_remove(pos);
                        }
                    }
                    None => {
                        self.placement.push(vec![k]);
                        used.push(size);
                        removed.push(Vec::new());
                    }
                }
            }
        }

        // 5. Evacuate under-filled nodes (< 25% of disk) whose contents fit
        //    elsewhere, so drift cannot slowly strand half-empty rentals.
        for n in (0..self.placement.len()).rev() {
            if used[n] == 0 || used[n] >= disk / 4 {
                continue;
            }
            let mut moves: Vec<(usize, PlacementKey)> = Vec::new();
            let mut tentative = used.clone();
            let mut ok = true;
            for k in &self.placement[n] {
                let size = size_of(k);
                let target = (0..self.placement.len()).find(|&m| {
                    m != n
                        && tentative[m] + size <= disk
                        && !self.placement[m].contains(k)
                        && !moves.iter().any(|(t, mk)| *t == m && mk == k)
                });
                match target {
                    Some(m) => {
                        tentative[m] += size;
                        moves.push((m, *k));
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                for (m, k) in moves {
                    self.placement[m].push(k);
                    used[m] = used[m].saturating_add(size_of(&k));
                }
                self.placement[n].clear();
                used[n] = 0;
            }
        }

        // 6. Drop empty nodes and emit global indices.
        self.placement.retain(|node| !node.is_empty());
        // The incremental packer stands in for `pack_bffd` here, so it
        // reports the same packing metrics the from-scratch packer would.
        nashdb_obs::gauge_set("packing.nodes", self.placement.len() as f64);
        nashdb_obs::counter_add(
            "packing.placements",
            self.placement.iter().map(|node| node.len() as u64).sum(),
        );
        for node in &self.placement {
            nashdb_obs::record("packing.node_fill_tuples", node.iter().map(size_of).sum());
        }
        self.placement
            .iter()
            .map(|node| node.iter().map(|k| index[k]).collect())
            .collect()
    }

    /// The configuration in force.
    pub fn config(&self) -> &NashDbConfig {
        &self.cfg
    }

    /// Total summed fragment error across all tables for the *current*
    /// fragmentation against the *current* value estimates — the quantity
    /// the paper's Fig. 6 compares across fragmenters.
    pub fn current_total_error(&self) -> f64 {
        self.tables
            .iter()
            .map(|t| {
                let chunks = t.estimator.chunks(t.tuples);
                ChunkPrefix::new(&chunks)
                    .and_then(|prefix| t.fragmenter.fragmentation().total_error(&prefix))
                    .unwrap_or(0.0)
            })
            .sum()
    }
}

impl Distributor for NashDbDistributor {
    fn observe(&mut self, query: &QueryRequest) {
        // Eq. 1: split the query's price across its scans proportionally to
        // scan size, then feed each scan to its table's estimator.
        //
        // The per-tuple income a scan pays is Price(s)/Size(s); a scan much
        // smaller than a read block would pay an astronomically high rate
        // per tuple even though serving it still costs a block read (§2:
        // scans fetch whole blocks). Flooring the denominator at the block
        // size keeps one tiny scan in the window from spiking V(x) by
        // orders of magnitude and yo-yoing the cluster size.
        let block = self.cfg.max_fragment_tuples.min(self.cfg.spec.disk).max(1);
        let total: u64 = query.scans.iter().map(|s| s.size()).sum();
        if total == 0 {
            return;
        }
        for s in &query.scans {
            let mut price = query.price * s.size() as f64 / total as f64;
            let table = &mut self.tables[usize_from(s.table.get())];
            let end = s.end.min(table.tuples);
            if s.start < end {
                let size = end - s.start;
                let effective = size.max(block.min(table.tuples));
                price *= size as f64 / effective as f64;
                table
                    .estimator
                    .observe(PricedScan::new(s.start, end, price));
            }
        }
    }

    fn scheme(&mut self) -> DistScheme {
        let _scheme = nashdb_obs::span("scheme");
        let policy = ReplicationPolicy::new(self.cfg.window, self.cfg.spec)
            .with_max_replicas(self.cfg.max_replicas);

        // Per table, in table order: value chunks -> fragmentation ->
        // disk-fit split -> fragment statistics, re-identified globally.
        // The loop is serial on purpose: with the index-direct error
        // kernel a table's work is tens of microseconds, no more than
        // spawning and joining a scoped thread costs.
        let fragment_span = nashdb_obs::span("fragment");
        let mut globals: Vec<GlobalFragment> = Vec::new();
        let mut stats: Vec<FragmentStats> = Vec::new();
        for (t_idx, t) in self.tables.iter_mut().enumerate() {
            for s in table_fragments(&self.cfg, self.converged, t_idx, t) {
                let global_id = FragmentId(globals.len() as u64);
                globals.push(GlobalFragment {
                    table: nashdb_core::ids::TableId(t_idx as u64),
                    range: s.range,
                });
                stats.push(FragmentStats { id: global_id, ..s });
            }
        }

        self.converged = true;
        drop(fragment_span);

        // Eq. 9 replica counts, damped by hysteresis against the previous
        // scheme.
        let replication_span = nashdb_obs::span("replication");
        let mut decisions = decide_replicas(&stats, &policy);
        for d in &mut decisions {
            let key = (globals[usize_from(d.id.get())].table, d.range);
            if let Some(&old) = self.prev_counts.get(&key) {
                // Counting noise in a |W|-scan window moves V(f) (hence
                // Ideal) by ~±25% between periods; inside that band the
                // marginal replica is profit-neutral either way, so keep
                // the old count and a quiet cluster.
                let band = saturating_u64(((old as f64) * 0.25).ceil().max(1.0));
                if d.replicas.abs_diff(old) <= band {
                    d.replicas = old;
                }
            }
        }
        self.prev_counts = decisions
            .iter()
            .map(|d| ((globals[usize_from(d.id.get())].table, d.range), d.replicas))
            .collect();
        drop(replication_span);

        let nodes = {
            let _place = nashdb_obs::span("place");
            self.place(&globals, &decisions)
        };
        nashdb_obs::gauge_set("distributor.fragments", globals.len() as f64);
        nashdb_obs::gauge_set("distributor.nodes", nodes.len() as f64);
        #[cfg(feature = "invariant-audit")]
        {
            let as_frags: Vec<Vec<FragmentId>> = nodes
                .iter()
                .map(|node| node.iter().map(|&i| FragmentId(i as u64)).collect())
                .collect();
            let audit =
                nashdb_core::audit::audit_packing(&as_frags, &decisions, self.cfg.spec.disk);
            assert!(audit.is_ok(), "packing audit failed: {audit:?}");
        }
        DistScheme::new(globals, nodes)
    }

    fn name(&self) -> &'static str {
        "nashdb"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nashdb_cluster::ScanRange;
    use nashdb_core::ids::TableId;

    fn db() -> Database {
        Database::new([("fact", 1_000_000), ("dim", 10_000)])
    }

    fn query(price: f64, scans: &[(u64, u64, u64)]) -> QueryRequest {
        QueryRequest {
            price,
            scans: scans
                .iter()
                .map(|&(t, s, e)| ScanRange::new(TableId(t), s, e))
                .collect(),
            tag: 0,
        }
    }

    fn small_cfg() -> NashDbConfig {
        NashDbConfig {
            spec: NodeSpec::new(100.0, 600_000),
            max_frags_per_table: 16,
            ..NashDbConfig::default()
        }
    }

    #[test]
    fn cold_start_scheme_covers_database() {
        let database = db();
        let mut nash = NashDbDistributor::new(&database, small_cfg());
        let s = nash.scheme();
        assert!(s.covers(&database));
        assert!(s.num_nodes() >= 1);
    }

    #[test]
    fn hot_range_gets_more_replicas() {
        let database = db();
        let mut nash = NashDbDistributor::new(&database, small_cfg());
        // Hammer the first 100k tuples of the fact table at a high price.
        for _ in 0..60 {
            nash.observe(&query(50.0, &[(0, 0, 100_000)]));
        }
        let s = nash.scheme();
        assert!(s.covers(&database));
        // Replicas hosting some part of the hot range vs a cold range.
        let replicas_touching = |lo: u64, hi: u64| -> usize {
            s.fragments()
                .iter()
                .enumerate()
                .filter(|(_, gf)| gf.table == TableId(0) && gf.range.overlap(lo, hi) > 0)
                .map(|(i, _)| s.hosts(i).len())
                .sum()
        };
        let hot = replicas_touching(0, 100_000);
        let cold = replicas_touching(500_000, 600_000);
        assert!(hot > cold, "hot range has {hot} replicas, cold has {cold}");
    }

    #[test]
    fn higher_prices_provision_more_nodes() {
        let database = db();
        let mut cheap = NashDbDistributor::new(&database, small_cfg());
        let mut pricey = NashDbDistributor::new(&database, small_cfg());
        for _ in 0..60 {
            cheap.observe(&query(1.0, &[(0, 0, 1_000_000)]));
            pricey.observe(&query(16.0, &[(0, 0, 1_000_000)]));
        }
        let n_cheap = cheap.scheme().num_nodes();
        let n_pricey = pricey.scheme().num_nodes();
        assert!(
            n_pricey > n_cheap,
            "pricey {n_pricey} <= cheap {n_cheap} nodes"
        );
    }

    #[test]
    fn eq1_splits_price_across_tables() {
        let database = db();
        let mut nash = NashDbDistributor::new(&database, small_cfg());
        // One query scanning both tables: the dim scan is 1% of the size,
        // so it carries ~1% of the price.
        for _ in 0..50 {
            nash.observe(&query(10.0, &[(0, 0, 990_000), (1, 0, 10_000)]));
        }
        let fact_est = &nash.tables[0].estimator;
        let dim_est = &nash.tables[1].estimator;
        let v_fact = fact_est.value_at(0, 1_000_000);
        let v_dim = dim_est.value_at(0, 10_000);
        // Per-tuple value is the same on both tables under Eq. 1.
        assert!(
            (v_fact - v_dim).abs() < 1e-12,
            "per-tuple values diverge: {v_fact} vs {v_dim}"
        );
    }

    #[test]
    fn fragments_fit_node_disk() {
        let database = db();
        let mut nash = NashDbDistributor::new(&database, small_cfg());
        let s = nash.scheme();
        for gf in s.fragments() {
            assert!(gf.range.size() <= 600_000);
        }
    }

    #[test]
    fn zero_size_scan_total_is_ignored() {
        // A malformed query with no scans (total size 0) is dropped, not a
        // crash — defensive path for Eq. 1's division.
        let database = db();
        let mut nash = NashDbDistributor::new(&database, small_cfg());
        nash.observe(&QueryRequest {
            price: 1.0,
            scans: vec![],
            tag: 0,
        });
        assert_eq!(nash.tables[0].estimator.window_len(), 0);
    }
}
