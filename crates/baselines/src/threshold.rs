//! The E-Store-like *Threshold* baseline (paper §10.3).
//!
//! E-Store classifies tuples as **hot** (accessed frequently) or **cold**
//! and spreads them over a *fixed* number of nodes; the paper's variant
//! additionally replicates each tuple "in linear proportion to the tuple's
//! access frequency" (since E-Store itself is an OLTP system without
//! replicas) and assigns with the "Greedy extended" placement: hottest
//! first, onto the least-loaded node. The tuning knob is the node count.
//!
//! We track access frequency at block granularity over a sliding window of
//! scans, exactly the observation stream the other systems get.

use std::collections::VecDeque;

use nashdb_cluster::QueryRequest;
use nashdb_core::fragment::FragmentRange;
use nashdb_core::ids::TableId;
use nashdb_core::num::{saturating_u64, usize_from};
use nashdb_workload::Database;

use nashdb::{DistScheme, Distributor, GlobalFragment};

/// Hotness threshold: a block is hot if its access count exceeds this
/// multiple of the mean block access count.
const HOT_FACTOR: f64 = 2.0;

/// One observed scan, remembered so its counts can be retired when it
/// leaves the window.
#[derive(Debug, Clone, Copy)]
struct WindowedScan {
    table: usize,
    start: u64,
    end: u64,
}

/// The Threshold distributor.
#[derive(Debug)]
pub struct ThresholdDistributor {
    db: Database,
    /// Fixed cluster size (the tuning knob).
    nodes: usize,
    /// Node disk capacity in tuples.
    disk: u64,
    /// Per table, the number of frequency-tracking blocks.
    blocks_of: Vec<usize>,
    /// Per table, per block: windowed access count.
    counts: Vec<Vec<u64>>,
    window: VecDeque<WindowedScan>,
    capacity: usize,
}

impl ThresholdDistributor {
    /// Creates the distributor with a fixed `nodes`-node cluster of
    /// `disk`-tuple nodes and a `window`-scan frequency window.
    ///
    /// # Panics
    /// Panics if the cluster cannot hold even one copy of the database.
    pub fn new(db: &Database, nodes: usize, disk: u64, window: usize) -> Self {
        assert!(nodes > 0 && disk > 0 && window > 0);
        assert!(
            nodes as u64 * disk >= db.total_tuples(),
            "{nodes} nodes × {disk} tuples cannot hold the {} -tuple database",
            db.total_tuples()
        );
        let mut t = ThresholdDistributor {
            db: db.clone(),
            nodes,
            disk,
            blocks_of: Vec::new(),
            counts: Vec::new(),
            window: VecDeque::with_capacity(window),
            capacity: window,
        };
        t.set_block(disk / 8);
        t
    }

    /// Sets the tracking/read block size in tuples (shared with the other
    /// systems so latency reflects distribution policy, not granularity),
    /// capped at the node disk so every block fits on a node, as NashDB caps
    /// its fragments. Resets frequency counts.
    pub fn with_block(mut self, block: u64) -> Self {
        self.set_block(block);
        self
    }

    fn set_block(&mut self, block: u64) {
        let block = block.clamp(1, self.disk);
        self.blocks_of = self
            .db
            .tables
            .iter()
            .map(|t| usize_from(t.tuples.div_ceil(block)).clamp(1, 4096))
            .collect();
        self.counts = self.blocks_of.iter().map(|&b| vec![0u64; b]).collect();
        self.window.clear();
    }

    fn block_range(&self, table: usize, block: usize) -> FragmentRange {
        let tuples = self.db.tables[table].tuples;
        let b = self.blocks_of[table] as u64;
        let i = block as u64;
        let start = i * tuples / b;
        let end = ((i + 1) * tuples / b).max(start + 1).min(tuples);
        FragmentRange::new(start, end.max(start + 1))
    }

    fn bump(&mut self, scan: WindowedScan, delta: i64) {
        let tuples = self.db.tables[scan.table].tuples;
        let nblocks = self.blocks_of[scan.table];
        let b = nblocks as u64;
        // Blocks overlapping [start, end).
        let first = usize_from(scan.start * b / tuples);
        let last = usize_from((scan.end - 1) * b / tuples);
        for blk in first..=last.min(nblocks - 1) {
            let c = &mut self.counts[scan.table][blk];
            if delta > 0 {
                *c += 1;
            } else {
                *c = c.saturating_sub(1);
            }
        }
    }
}

impl Distributor for ThresholdDistributor {
    fn observe(&mut self, query: &QueryRequest) {
        for s in &query.scans {
            let w = WindowedScan {
                table: usize_from(s.table.get()),
                start: s.start,
                end: s.end.min(self.db.tables[usize_from(s.table.get())].tuples),
            };
            if w.start >= w.end {
                continue;
            }
            if self.window.len() == self.capacity {
                if let Some(old) = self.window.pop_front() {
                    self.bump(old, -1);
                }
            }
            self.window.push_back(w);
            self.bump(w, 1);
        }
    }

    fn scheme(&mut self) -> DistScheme {
        // Mean block access count (over all blocks).
        let total_blocks: usize = self.counts.iter().map(Vec::len).sum();
        let total_count: u64 = self.counts.iter().flatten().sum();
        let mean = (total_count as f64 / total_blocks as f64).max(1e-9);

        // One fragment per block; hot blocks get frequency-proportional
        // replicas (capped by the node count — replicas need distinct
        // nodes); cold blocks stay single-copy on the base partitioning.
        struct Block {
            frag: GlobalFragment,
            count: u64,
            replicas: u64,
        }
        let mut blocks: Vec<Block> = Vec::with_capacity(total_blocks);
        for (t, counts) in self.counts.iter().enumerate() {
            for (b, &count) in counts.iter().enumerate() {
                let range = self.block_range(t, b);
                let hot = count as f64 > HOT_FACTOR * mean;
                let replicas = if hot {
                    saturating_u64((count as f64 / mean).round()).clamp(2, self.nodes as u64)
                } else {
                    1
                };
                blocks.push(Block {
                    frag: GlobalFragment {
                        table: TableId(t as u64),
                        range,
                    },
                    count,
                    replicas,
                });
            }
        }

        // Base layer, as in E-Store: the database is *range partitioned*
        // across the fixed cluster — node i holds the i-th contiguous slice
        // of each table's blocks (E-Store's underlying store keeps a single
        // range-partitioned copy; only hot tuples move or replicate).
        let mut node_frags: Vec<Vec<usize>> = vec![Vec::new(); self.nodes];
        let mut node_used: Vec<u64> = vec![0; self.nodes];
        {
            let total: u64 = blocks.iter().map(|b| b.frag.range.size()).sum();
            let mut cum = 0u64;
            for (i, b) in blocks.iter().enumerate() {
                let size = b.frag.range.size();
                // The node whose slice the block's midpoint falls in; bump
                // forward if that node's disk is already full.
                let slice = (cum + size / 2) as u128 * self.nodes as u128 / total.max(1) as u128;
                let mut node = usize::try_from(slice)
                    .unwrap_or(usize::MAX)
                    .min(self.nodes - 1);
                while node_used[node] + size > self.disk {
                    node += 1;
                    assert!(
                        node < self.nodes,
                        "threshold cluster too small: block of {size} tuples has no home"
                    );
                }
                node_frags[node].push(i);
                node_used[node] = node_used[node].saturating_add(size);
                cum = cum.saturating_add(size);
            }
        }

        // Hot layer ("Greedy extended"): extra replicas of hot blocks,
        // hottest first, each onto the least-loaded node with space that
        // does not already hold the block.
        let mut order: Vec<usize> = (0..blocks.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse((blocks[i].count, blocks[i].frag.range.size())));
        for &i in &order {
            let size = blocks[i].frag.range.size();
            for _ in 1..blocks[i].replicas {
                let slot = (0..self.nodes)
                    .filter(|&n| node_used[n] + size <= self.disk && !node_frags[n].contains(&i))
                    .min_by_key(|&n| (node_used[n], n));
                match slot {
                    Some(n) => {
                        node_frags[n].push(i);
                        node_used[n] = node_used[n].saturating_add(size);
                    }
                    None => break,
                }
            }
        }

        DistScheme::new(blocks.into_iter().map(|b| b.frag).collect(), node_frags)
    }

    fn name(&self) -> &'static str {
        "threshold"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nashdb_cluster::ScanRange;

    fn db() -> Database {
        Database::new([("fact", 128_000)])
    }

    fn query(start: u64, end: u64) -> QueryRequest {
        QueryRequest {
            price: 1.0,
            scans: vec![ScanRange::new(TableId(0), start, end)],
            tag: 0,
        }
    }

    #[test]
    fn cold_scheme_covers_database_once() {
        let database = db();
        let mut t = ThresholdDistributor::new(&database, 4, 64_000, 50);
        let s = t.scheme();
        assert!(s.covers(&database));
        assert_eq!(s.num_nodes(), 4);
        // With no accesses everything is cold: exactly one replica each.
        assert_eq!(s.total_replicas(), s.fragments().len());
    }

    #[test]
    fn hot_blocks_get_extra_replicas() {
        let database = db();
        let mut t = ThresholdDistributor::new(&database, 4, 64_000, 50);
        // Hammer the first block-sized region.
        for _ in 0..40 {
            t.observe(&query(0, 1_000));
        }
        // Background uniform accesses so the mean is meaningful.
        for i in 0..10 {
            t.observe(&query(i * 12_800, (i + 1) * 12_800));
        }
        let s = t.scheme();
        assert!(s.covers(&database));
        let hot_replicas = s
            .fragments()
            .iter()
            .enumerate()
            .filter(|(_, gf)| gf.range.start == 0)
            .map(|(i, _)| s.hosts(i).len())
            .next()
            .unwrap();
        assert!(hot_replicas >= 2, "hot block has {hot_replicas} replicas");
    }

    #[test]
    fn window_eviction_cools_blocks_down() {
        let database = db();
        let mut t = ThresholdDistributor::new(&database, 4, 64_000, 10);
        for _ in 0..10 {
            t.observe(&query(0, 1_000));
        }
        assert!(t.counts[0][0] >= 10);
        // Push the window full of scans elsewhere: old counts retire.
        for _ in 0..10 {
            t.observe(&query(100_000, 101_000));
        }
        assert_eq!(t.counts[0][0], 0);
    }

    #[test]
    fn respects_fixed_node_count() {
        let database = db();
        for n in [2usize, 4, 8] {
            let mut t = ThresholdDistributor::new(&database, n, 128_000, 50);
            assert_eq!(t.scheme().num_nodes(), n);
        }
    }

    #[test]
    fn block_larger_than_disk_is_capped_to_fit() {
        // 8 nodes × 1M tuples hold the 8M-tuple database exactly; 2M-tuple
        // blocks could not land on any node.
        let database = Database::new([("fact", 8_000_000)]);
        let mut t = ThresholdDistributor::new(&database, 8, 1_000_000, 50).with_block(2_000_000);
        let s = t.scheme();
        assert!(s.covers(&database));
        assert!(s.fragments().iter().all(|gf| gf.range.size() <= 1_000_000));
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn rejects_undersized_cluster() {
        let _ = ThresholdDistributor::new(&db(), 1, 1_000, 50);
    }
}
