//! Hot-path performance comparison for CI (`nashdb-bench perf`).
//!
//! Times the pipeline's three hot stages on a fixed-seed workload and emits
//! the results as an [`ObsSnapshot`] labelled `kind=perf`:
//!
//! * **Routing** — the incremental Max-of-mins router against the retained
//!   naive reference loop ([`nashdb_core::routing::reference`]), on the
//!   acceptance workload of 64 fragment requests over 16 nodes. The two are
//!   asserted to produce identical assignments before timing; the
//!   `perf.routing.speedup` gauge is the headline number.
//! * **Batch routing** — [`ScanRouter::route_batch`] against the per-scan
//!   incremental loop it amortizes, on the scaling workload (10k scans over
//!   512 nodes by default, zoned as locality-aware placement would).
//!   Asserted to produce identical assignments *and* final queue waits
//!   before timing; `perf.routing.batch_speedup` is the gate.
//! * **Scheme lookups** — the O(1) indexed [`ClusterScheme`] lookups
//!   (`range_of`, `node_used`) against the linear decision scans they
//!   replaced, again asserted equal first.
//! * **Fragmentation & packing** — wall-clock for the DP fragmenter (on a
//!   chunk count wide enough to exercise its parallel layers) and for BFFD
//!   packing, as plain stage timings.
//!
//! Timings are wall-clock, so perf snapshots are *not* byte-reproducible
//! (unlike `--stable` smoke snapshots); the schema and the `perf.` metric
//! prefix are what CI validates.

use std::time::Instant;

use nashdb_core::fragment::{optimal_fragmentation, FragmentRange, FragmentStats};
use nashdb_core::ids::{FragmentId, NodeId};
use nashdb_core::replication::{pack_bffd, ClusterScheme, ReplicationPolicy};
use nashdb_core::routing::{reference, FragmentRequest, MaxOfMins, QueueView, ScanRouter};
use nashdb_core::value::Chunk;
use nashdb_obs::{ObsSession, ObsSnapshot};
use nashdb_sim::SimRng;

/// Metric-name prefixes a `kind=perf` snapshot must populate.
pub const PERF_STAGES: &[&str] = &["perf."];

/// Perf-run parameters. The defaults are the ISSUE acceptance workload:
/// 64 fragment requests over 16 nodes.
#[derive(Debug, Clone, Copy)]
pub struct PerfConfig {
    /// RNG seed for the synthetic problems.
    pub seed: u64,
    /// Fragment requests per scan (and fragments in the packing problem).
    pub fragments: usize,
    /// Cluster nodes.
    pub nodes: usize,
    /// Replicas per fragment (candidate list length).
    pub replicas: usize,
    /// Scans routed per timing pass; also scales the lookup pass.
    pub scans: usize,
    /// Scans per batch in the batch-routing scaling workload.
    pub batch_scans: usize,
    /// Cluster nodes in the batch-routing scaling workload. Each scan reads
    /// inside one 16-node zone.
    pub batch_nodes: usize,
    /// Value chunks in the DP fragmentation problem. The default is wide
    /// enough (`>` the fragmenter's parallel-layer threshold) that the DP's
    /// fan-out path is what gets timed.
    pub dp_chunks: usize,
    /// Whole-suite repetitions; the report keeps each gauge's minimum.
    /// The minimum is the stable estimator on contended runners — noise is
    /// one-sided (co-tenants only ever make a pass *slower*) — and the
    /// `compare` trajectory gate needs run-to-run stability well inside its
    /// 25% allowance, so CI runs with `--best-of 3`.
    pub best_of: usize,
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig {
            seed: 42,
            fragments: 64,
            nodes: 16,
            replicas: 4,
            scans: 400,
            batch_scans: 10_000,
            batch_nodes: 512,
            dp_chunks: 1_200,
            best_of: 1,
        }
    }
}

/// One before/after stage measurement, in nanoseconds per iteration.
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    /// Naive/linear implementation.
    pub reference_ns: f64,
    /// Optimized implementation.
    pub optimized_ns: f64,
}

impl Comparison {
    /// reference / optimized; how many times faster the optimized path is.
    pub fn speedup(&self) -> f64 {
        if self.optimized_ns > 0.0 {
            self.reference_ns / self.optimized_ns
        } else {
            f64::INFINITY
        }
    }
}

/// All measurements of one perf run.
#[derive(Debug, Clone, Copy)]
pub struct PerfReport {
    /// Incremental vs naive Max-of-mins, per routed scan.
    pub routing: Comparison,
    /// `route_batch` vs the per-scan incremental loop, per whole batch.
    pub batch: Comparison,
    /// Indexed vs linear-scan `ClusterScheme` lookups, per lookup sweep.
    pub lookup: Comparison,
    /// DP fragmentation, per run.
    pub fragment_dp_ns: f64,
    /// BFFD packing, per run.
    pub packing_bffd_ns: f64,
}

/// Best-of-3 wall-clock timing of batched runs of `f`, reported as
/// nanoseconds per iteration. `f`'s result is fed to [`std::hint::black_box`]
/// so the measured work cannot be optimized away.
///
/// `iters` is only the *starting* batch size: the batch grows until one
/// timed pass lasts at least [`MIN_PASS_NS`], because per-iteration figures
/// taken from a 25 µs pass are timer granularity and scheduler noise — and
/// `nashdb-bench compare` diffs these numbers across CI runs, so they must
/// be stable to well under the gate's 25% allowance.
const MIN_PASS_NS: u128 = 2_000_000;

fn time_per_iter<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    assert!(iters > 0, "need at least one iteration");
    std::hint::black_box(f()); // warmup
    let mut iters = iters;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let elapsed = start.elapsed().as_nanos();
        if elapsed >= MIN_PASS_NS {
            let mut best = elapsed as f64 / iters as f64;
            for _ in 0..2 {
                let start = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(f());
                }
                best = best.min(start.elapsed().as_nanos() as f64 / iters as f64);
            }
            return best;
        }
        // Grow toward the target in one step (capped so a mis-measured
        // first pass cannot explode the batch).
        let factor = (MIN_PASS_NS / elapsed.max(1)).clamp(2, 1024) as usize;
        iters = iters.saturating_mul(factor);
    }
}

/// The fixed-seed routing problem: `fragments` requests with `replicas`
/// candidates each over `nodes` nodes, plus preloaded queue waits.
fn routing_problem(cfg: &PerfConfig) -> (Vec<FragmentRequest>, Vec<u64>) {
    let mut rng = SimRng::seed_from_u64(cfg.seed);
    let reqs = (0..cfg.fragments)
        .map(|i| {
            let mut candidates: Vec<NodeId> = Vec::with_capacity(cfg.replicas);
            while candidates.len() < cfg.replicas.min(cfg.nodes) {
                let n = NodeId(rng.uniform_u64(0, cfg.nodes as u64));
                if !candidates.contains(&n) {
                    candidates.push(n);
                }
            }
            FragmentRequest {
                fragment: FragmentId(i as u64),
                size: rng.uniform_u64(100_000, 2_000_000),
                candidates,
            }
        })
        .collect();
    let waits = (0..cfg.nodes)
        .map(|_| rng.uniform_u64(0, 5_000_000))
        .collect();
    (reqs, waits)
}

/// Fragments hosted per node in the batch-routing problem's synthetic
/// scheme; the fragment universe is `FRAGS_PER_NODE * batch_nodes`.
const FRAGS_PER_NODE: usize = 8;
/// Fragment requests per scan in the batch-routing problem. Kept small —
/// the regime the paper's footnote 3 calls out — so the comparison stresses
/// per-arrival setup (what batching amortizes) rather than placement work
/// (identical on both sides).
const REQS_PER_SCAN: usize = 2;

/// The fixed-seed batch-routing problem: `batch_scans` scans of
/// [`REQS_PER_SCAN`] requests each over `batch_nodes` nodes, plus preloaded
/// queue waits. The fragment universe is a synthetic scheme —
/// [`FRAGS_PER_NODE`] fragments per node, each with a fixed size and a fixed
/// 3-replica candidate list inside a 16-node zone — and scan `i` reads from
/// zone `i mod zones`: the shape coincident arrivals take when replica
/// placement is locality-aware.
fn batch_problem(cfg: &PerfConfig) -> (Vec<Vec<FragmentRequest>>, Vec<u64>, usize) {
    let mut rng = SimRng::seed_from_u64(cfg.seed ^ 0xBA7C);
    let zone = 16.min(cfg.batch_nodes.max(1));
    let zones = (cfg.batch_nodes / zone).max(1);
    let replicas = 3.min(zone);
    // The scheme: per-fragment size and replica set, fixed across scans.
    let universe = FRAGS_PER_NODE * zones * zone;
    let frags_per_zone = FRAGS_PER_NODE * zone;
    let sizes: Vec<u64> = (0..universe)
        .map(|_| rng.uniform_u64(100_000, 2_000_000))
        .collect();
    let candidates: Vec<Vec<NodeId>> = (0..universe)
        .map(|f| {
            let base = ((f / frags_per_zone) * zone) as u64;
            let start = rng.uniform_u64(0, zone as u64);
            (0..replicas as u64)
                .map(|j| NodeId(base + (start + j) % zone as u64))
                .collect()
        })
        .collect();
    let scans = (0..cfg.batch_scans)
        .map(|i| {
            let zone_first = (i % zones) * frags_per_zone;
            let mut picked = Vec::with_capacity(REQS_PER_SCAN);
            while picked.len() < REQS_PER_SCAN.min(frags_per_zone) {
                let offset = usize::try_from(rng.uniform_u64(0, frags_per_zone as u64))
                    .unwrap_or(frags_per_zone - 1);
                let f = zone_first + offset;
                if !picked.contains(&f) {
                    picked.push(f);
                }
            }
            picked
                .into_iter()
                .map(|f| FragmentRequest {
                    fragment: FragmentId(f as u64),
                    size: sizes[f],
                    candidates: candidates[f].clone(),
                })
                .collect()
        })
        .collect();
    let waits = (0..cfg.batch_nodes)
        .map(|_| rng.uniform_u64(0, 5_000_000))
        .collect();
    (scans, waits, universe)
}

fn measure_batch_routing(cfg: &PerfConfig) -> Comparison {
    let phi = 70_000;
    let (scans, waits, universe) = batch_problem(cfg);
    let router = MaxOfMins::new(phi);

    // Correctness before speed: the batch path must reproduce per-scan
    // routing exactly — same assignments *and* same final queue waits — on
    // the very problem being timed.
    let mut q_batch = QueueView::from_waits(waits.clone());
    let batched = router.route_batch(scans.clone(), &mut q_batch);
    let mut q_seq = QueueView::from_waits(waits.clone());
    let sequential: Result<Vec<_>, _> = scans.iter().map(|s| router.route(s, &mut q_seq)).collect();
    // nashdb-lint: allow(panic-in-lib) -- perf gate: timing a diverging batch router would report a meaningless speedup, so the bench aborts loudly
    assert!(
        batched == sequential,
        "batch router diverged from per-scan routing on the perf problem"
    );
    let mut q_old = QueueView::from_waits(waits.clone());
    let per_scan_reference: Result<Vec<_>, _> = scans
        .iter()
        .map(|s| reference::incremental_per_scan(phi, s, &mut q_old))
        .collect();
    // nashdb-lint: allow(panic-in-lib) -- perf gate: the timed reference must be semantically identical to the batch path or the comparison is invalid
    assert!(
        batched == per_scan_reference,
        "batch router diverged from the pre-batching per-scan reference"
    );
    // nashdb-lint: allow(panic-in-lib) -- perf gate: final queue state must agree before the timing comparison means anything
    assert!(
        (0..cfg.batch_nodes).all(|n| {
            let n = NodeId(n as u64);
            q_batch.wait(n) == q_seq.wait(n)
        }),
        "batch router left different final queue waits than per-scan routing"
    );

    // Both loops replay their *driver* path end to end, so each side is
    // charged exactly what the driver pays. The reference is the historical
    // per-arrival loop — `reference::incremental_per_scan`, the pre-batching
    // router with per-call scratch allocation — plus the per-query setup the
    // driver used to repeat: build the requests (the clone), zero a
    // scheme-wide fragment-size table, snapshot the cluster's queue waits
    // into a fresh view, route, and apply the enqueues. The optimized loop
    // is the batched driver path: requests, size table, and snapshot built
    // once per batch, then one `route_batch` call over persistent scratch.
    let reference_ns = time_per_iter(1, || {
        let mut live = waits.clone();
        let mut routed = 0usize;
        for scan in &scans {
            let scan = scan.clone();
            let mut sizes = vec![0u64; universe];
            for r in &scan {
                sizes[r.fragment.index()] = r.size;
            }
            let mut q = QueueView::from_waits(live.clone());
            let assignments = reference::incremental_per_scan(phi, &scan, &mut q);
            for a in assignments.iter().flatten() {
                live[a.node.index()] =
                    live[a.node.index()].saturating_add(sizes[a.fragment.index()]);
            }
            routed = routed.saturating_add(assignments.map_or(0, |a| a.len()));
        }
        (live, routed)
    });
    let optimized_ns = time_per_iter(1, || {
        let scans = scans.clone();
        let mut sizes = vec![0u64; universe];
        for r in scans.iter().flatten() {
            sizes[r.fragment.index()] = r.size;
        }
        let mut live = waits.clone();
        let mut q = QueueView::from_waits(std::mem::take(&mut live));
        let batched = router.route_batch(scans, &mut q);
        let mut routed = 0usize;
        let live: Vec<u64> = (0..cfg.batch_nodes)
            .map(|n| q.wait(NodeId(n as u64)))
            .collect();
        for a in batched.iter().flatten().flatten() {
            routed = routed.saturating_add(usize::from(sizes[a.fragment.index()] > 0));
        }
        (live, routed)
    });
    Comparison {
        reference_ns,
        optimized_ns,
    }
}

/// Fixed-seed fragment statistics for the packing/lookup problems.
fn fragment_problem(cfg: &PerfConfig) -> Vec<FragmentStats> {
    let mut rng = SimRng::seed_from_u64(cfg.seed ^ 0xBEEF);
    let mut start = 0u64;
    (0..cfg.fragments)
        .map(|i| {
            let len = rng.uniform_u64(50_000, 500_000);
            let s = FragmentStats {
                id: FragmentId(i as u64),
                range: FragmentRange::new(start, start + len),
                value: rng.uniform_f64() * 4.0,
                error: 0.0,
            };
            start += len;
            s
        })
        .collect()
}

fn measure_routing(cfg: &PerfConfig) -> Comparison {
    let phi = 70_000;
    let (reqs, waits) = routing_problem(cfg);
    let router = MaxOfMins::new(phi);

    // Correctness before speed: the incremental router must agree with the
    // reference on the very problem being timed.
    let mut q_fast = QueueView::from_waits(waits.clone());
    let mut q_ref = QueueView::from_waits(waits.clone());
    let fast = router.route(&reqs, &mut q_fast);
    let naive = reference::max_of_mins(phi, &reqs, &mut q_ref);
    assert!(
        fast == naive,
        "incremental router diverged from the reference on the perf problem"
    );

    let reference_ns = time_per_iter(cfg.scans, || {
        let mut q = QueueView::from_waits(waits.clone());
        reference::max_of_mins(phi, &reqs, &mut q)
    });
    let optimized_ns = time_per_iter(cfg.scans, || {
        let mut q = QueueView::from_waits(waits.clone());
        router.route(&reqs, &mut q)
    });
    Comparison {
        reference_ns,
        optimized_ns,
    }
}

fn measure_lookup(cfg: &PerfConfig, scheme: &ClusterScheme) -> Comparison {
    let probes: Vec<FragmentId> = (0..cfg.fragments).map(|i| FragmentId(i as u64)).collect();
    // One sweep: every fragment's range plus every node's stored total,
    // folded into a checksum so nothing is optimized away.
    let indexed = || {
        let mut acc = 0u64;
        for &f in &probes {
            acc = acc.wrapping_add(scheme.range_of(f).map_or(0, |r| r.size()));
        }
        for n in 0..scheme.num_nodes() {
            acc = acc.wrapping_add(scheme.node_used(NodeId(n as u64)));
        }
        acc
    };
    // The pre-index formulation: linear scans of `decisions`.
    let linear = || {
        let mut acc = 0u64;
        for &f in &probes {
            let r = scheme
                .decisions
                .iter()
                .find(|d| d.id == f)
                .map_or(0, |d| d.range.size());
            acc = acc.wrapping_add(r);
        }
        for node in &scheme.nodes {
            let used: u64 = node
                .iter()
                .map(|f| {
                    scheme
                        .decisions
                        .iter()
                        .find(|d| d.id == *f)
                        .map_or(0, |d| d.range.size())
                })
                .sum();
            acc = acc.wrapping_add(used);
        }
        acc
    };
    assert!(
        indexed() == linear(),
        "indexed scheme lookups diverged from the linear reference"
    );
    let sweeps = cfg.scans.max(1);
    Comparison {
        reference_ns: time_per_iter(sweeps, linear),
        optimized_ns: time_per_iter(sweeps, indexed),
    }
}

fn fragmentation_chunks(cfg: &PerfConfig) -> Vec<Chunk> {
    let mut rng = SimRng::seed_from_u64(cfg.seed ^ 0xF0F0);
    let mut pos = 0u64;
    (0..cfg.dp_chunks)
        .map(|_| {
            let len = rng.uniform_u64(1_000, 20_000);
            let c = Chunk {
                start: pos,
                end: pos + len,
                value: rng.uniform_f64() * 8.0,
            };
            pos += len;
            c
        })
        .collect()
}

/// Runs every measurement. Call *outside* an [`ObsSession`] so the obs
/// hooks inside the measured code are inert no-ops. With `cfg.best_of > 1`
/// the whole suite repeats and each gauge keeps its minimum.
pub fn run_perf(cfg: &PerfConfig) -> PerfReport {
    let mut best = run_perf_once(cfg);
    for _ in 1..cfg.best_of {
        let next = run_perf_once(cfg);
        best = PerfReport {
            routing: min_comparison(best.routing, next.routing),
            batch: min_comparison(best.batch, next.batch),
            lookup: min_comparison(best.lookup, next.lookup),
            fragment_dp_ns: best.fragment_dp_ns.min(next.fragment_dp_ns),
            packing_bffd_ns: best.packing_bffd_ns.min(next.packing_bffd_ns),
        };
    }
    best
}

fn min_comparison(a: Comparison, b: Comparison) -> Comparison {
    Comparison {
        reference_ns: a.reference_ns.min(b.reference_ns),
        optimized_ns: a.optimized_ns.min(b.optimized_ns),
    }
}

fn run_perf_once(cfg: &PerfConfig) -> PerfReport {
    let routing = measure_routing(cfg);
    let batch = measure_batch_routing(cfg);

    let stats = fragment_problem(cfg);
    let policy =
        ReplicationPolicy::new(50, nashdb_core::economics::NodeSpec::new(100.0, 2_000_000))
            .with_max_replicas(cfg.nodes as u64);
    let scheme = ClusterScheme::build(&stats, policy)
        .unwrap_or_else(|e| unreachable!("perf fragments are all smaller than the node disk: {e}"));
    let lookup = measure_lookup(cfg, &scheme);

    let chunks = fragmentation_chunks(cfg);
    let fragment_dp_ns = time_per_iter(3, || optimal_fragmentation(&chunks, 12));
    let packing_bffd_ns = time_per_iter(10, || pack_bffd(&scheme.decisions, policy.spec.disk));

    PerfReport {
        routing,
        batch,
        lookup,
        fragment_dp_ns,
        packing_bffd_ns,
    }
}

/// Runs the measurements and captures them as a `kind=perf` snapshot.
pub fn perf_snapshot(cfg: &PerfConfig) -> ObsSnapshot {
    let report = run_perf(cfg);
    let mut session = ObsSession::start();
    session.label("kind", "perf");
    session.label("seed", &cfg.seed.to_string());
    session.label(
        "workload",
        &format!(
            "{}frag_{}node_{}rep",
            cfg.fragments, cfg.nodes, cfg.replicas
        ),
    );
    session.label(
        "batch_workload",
        &format!("{}scan_{}node", cfg.batch_scans, cfg.batch_nodes),
    );
    nashdb_obs::gauge_set("perf.routing.reference_ns", report.routing.reference_ns);
    nashdb_obs::gauge_set("perf.routing.incremental_ns", report.routing.optimized_ns);
    nashdb_obs::gauge_set("perf.routing.speedup", report.routing.speedup());
    nashdb_obs::gauge_set("perf.routing.batch_reference_ns", report.batch.reference_ns);
    nashdb_obs::gauge_set("perf.routing.batch_ns", report.batch.optimized_ns);
    nashdb_obs::gauge_set("perf.routing.batch_speedup", report.batch.speedup());
    nashdb_obs::gauge_set("perf.lookup.linear_ns", report.lookup.reference_ns);
    nashdb_obs::gauge_set("perf.lookup.indexed_ns", report.lookup.optimized_ns);
    nashdb_obs::gauge_set("perf.lookup.speedup", report.lookup.speedup());
    nashdb_obs::gauge_set("perf.fragment.dp_ns", report.fragment_dp_ns);
    nashdb_obs::gauge_set("perf.packing.bffd_ns", report.packing_bffd_ns);
    nashdb_obs::counter_add("perf.routing.scans", cfg.scans as u64);
    nashdb_obs::counter_add("perf.routing.requests", (cfg.fragments * cfg.scans) as u64);
    session.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> PerfConfig {
        PerfConfig {
            scans: 8,
            batch_scans: 128,
            batch_nodes: 64,
            dp_chunks: 48,
            ..PerfConfig::default()
        }
    }

    #[test]
    fn perf_snapshot_has_perf_metrics_and_label() {
        let snap = perf_snapshot(&quick());
        assert!(snap.missing_stages(PERF_STAGES).is_empty());
        assert!(snap.labels.iter().any(|(k, v)| k == "kind" && v == "perf"));
        for g in [
            "perf.routing.reference_ns",
            "perf.routing.incremental_ns",
            "perf.routing.speedup",
            "perf.routing.batch_reference_ns",
            "perf.routing.batch_ns",
            "perf.routing.batch_speedup",
            "perf.lookup.linear_ns",
            "perf.lookup.indexed_ns",
            "perf.lookup.speedup",
            "perf.fragment.dp_ns",
            "perf.packing.bffd_ns",
        ] {
            let v = snap.gauge(g).unwrap_or_else(|| panic!("gauge {g} missing"));
            assert!(v > 0.0, "gauge {g} not positive: {v}");
        }
        // The snapshot round-trips through its own schema.
        let json = snap.to_json_string();
        let parsed = ObsSnapshot::from_json_str(&json).unwrap();
        assert_eq!(parsed.to_json_string(), json);
    }

    #[test]
    fn routing_comparison_agrees_and_reports_sane_numbers() {
        let report = run_perf(&quick());
        // Agreement is asserted inside; here just sanity on the numbers.
        assert!(report.routing.reference_ns > 0.0);
        assert!(report.routing.optimized_ns > 0.0);
        assert!(report.routing.speedup() > 0.0);
        assert!(report.lookup.speedup() > 0.0);
    }
}
