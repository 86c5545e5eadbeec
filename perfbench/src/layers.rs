//! Per-layer attribution, measured from outside the library.
//!
//! [`TimedDistributor`] and [`TimedRouter`] wrap the real distributor and
//! router in this crate's own implementations of the library traits and
//! time every call into them. The span tree and counters the library
//! already records come from an [`nashdb_obs::ObsSession`] opened around the
//! traced run. Nothing here adds spans or counters to library code.

use std::cell::RefCell;
use std::time::Instant;

use nashdb::{DistScheme, Distributor, ScanRouter};
use nashdb_cluster::QueryRequest;
use nashdb_core::routing::{Assignment, FragmentRequest, QueueView, RouteError};
use nashdb_obs::ObsSnapshot;
use nashdb_sim::stats::Percentiles;

use crate::{ns_since, Metric};

/// The router's k-best candidate cache size: a request with more candidates
/// than this is "wide" and engages the cache.
pub const K_BEST: usize = 4;

/// Call timings of one distributor over one run.
#[derive(Debug, Clone, Default)]
pub struct DistributorStats {
    /// Wall ns of each `observe` call.
    pub observe_ns: Vec<u64>,
    /// Wall ns of the `observe` calls made before the first `scheme` call
    /// (`run_workload`'s warm-up, inside the `pipeline/provision` span).
    pub warmup_observe_ns: u64,
    /// Wall ns of each `scheme` call.
    pub scheme_ns: Vec<u64>,
}

/// A [`Distributor`] that times every call into the one it wraps.
#[derive(Debug)]
pub struct TimedDistributor<D> {
    inner: D,
    /// What was measured so far.
    pub stats: DistributorStats,
}

impl<D: Distributor> TimedDistributor<D> {
    /// Wraps `inner`.
    pub fn new(inner: D) -> Self {
        TimedDistributor {
            inner,
            stats: DistributorStats::default(),
        }
    }
}

impl<D: Distributor> Distributor for TimedDistributor<D> {
    fn observe(&mut self, query: &QueryRequest) {
        let t = Instant::now();
        self.inner.observe(query);
        let ns = ns_since(t);
        self.stats.observe_ns.push(ns);
        if self.stats.scheme_ns.is_empty() {
            self.stats.warmup_observe_ns += ns;
        }
    }

    fn scheme(&mut self) -> DistScheme {
        let t = Instant::now();
        let scheme = self.inner.scheme();
        self.stats.scheme_ns.push(ns_since(t));
        scheme
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Call timings and shape counts of one router over one run.
#[derive(Debug, Clone, Default)]
pub struct RouterStats {
    /// Wall ns of each router call (`route` or `route_batch`).
    pub call_ns: Vec<u64>,
    /// Scans routed.
    pub scans: u64,
    /// Fragment requests routed.
    pub requests: u64,
    /// Replica candidates over all requests.
    pub candidates: u64,
    /// Requests with more than [`K_BEST`] candidates.
    pub wide_requests: u64,
    /// Calls during which the parallel pool ran a round.
    pub sharded_calls: u64,
    /// Scans whose assignments were not exactly one per request, each on
    /// one of the request's candidates.
    pub bad_scans: u64,
}

/// A [`ScanRouter`] that times every call into the one it wraps and checks
/// each assignment. `route_batch` forwards to the inner `route_batch`, so
/// the batch path under test is the one `run_workload` really takes.
#[derive(Debug)]
pub struct TimedRouter<R> {
    inner: R,
    stats: RefCell<RouterStats>,
}

impl<R: ScanRouter> TimedRouter<R> {
    /// Wraps `inner`.
    pub fn new(inner: R) -> Self {
        TimedRouter {
            inner,
            stats: RefCell::new(RouterStats::default()),
        }
    }

    /// What was measured so far.
    pub fn into_stats(self) -> RouterStats {
        self.stats.into_inner()
    }

    fn record(
        &self,
        scans: &[Vec<FragmentRequest>],
        out: &Result<Vec<Vec<Assignment>>, RouteError>,
        ns: u64,
        sharded: bool,
    ) {
        let mut s = self.stats.borrow_mut();
        s.call_ns.push(ns);
        s.sharded_calls += u64::from(sharded);
        s.scans += scans.len() as u64;
        for scan in scans {
            s.requests += scan.len() as u64;
            for r in scan {
                s.candidates += r.candidates.len() as u64;
                s.wide_requests += u64::from(r.candidates.len() > K_BEST);
            }
        }
        match out {
            Ok(routed) if routed.len() == scans.len() => {
                let bad = scans
                    .iter()
                    .zip(routed)
                    .filter(|(scan, assignments)| !assignments_valid(scan, assignments))
                    .count();
                s.bad_scans += bad as u64;
            }
            _ => s.bad_scans += scans.len() as u64,
        }
    }
}

/// True iff `assignments` holds exactly one assignment per request, each on
/// one of that request's candidates. `run_workload` merges a query's requests
/// per fragment, so fragments within a scan are distinct. Assignments
/// usually come in request order, so the request at the same position is
/// tried before a search.
fn assignments_valid(requests: &[FragmentRequest], assignments: &[Assignment]) -> bool {
    if requests.len() != assignments.len() {
        return false;
    }
    let mut seen = vec![false; requests.len()];
    assignments.iter().enumerate().all(|(i, a)| {
        let slot = if requests[i].fragment == a.fragment {
            Some(i)
        } else {
            requests.iter().position(|r| r.fragment == a.fragment)
        };
        match slot.filter(|&j| requests[j].candidates.contains(&a.node)) {
            Some(i) if !seen[i] => {
                seen[i] = true;
                true
            }
            _ => false,
        }
    })
}

impl<R: ScanRouter> ScanRouter for TimedRouter<R> {
    fn route(
        &self,
        requests: &[FragmentRequest],
        queues: &mut QueueView,
    ) -> Result<Vec<Assignment>, RouteError> {
        let rounds = nashdb_par::pool_stats().parallel_rounds;
        let t = Instant::now();
        let out = self.inner.route(requests, queues);
        let ns = ns_since(t);
        let sharded = nashdb_par::pool_stats().parallel_rounds > rounds;
        let as_batch = out.as_ref().map(|a| vec![a.clone()]).map_err(|e| *e);
        self.record(&[requests.to_vec()], &as_batch, ns, sharded);
        out
    }

    fn route_batch(
        &self,
        scans: Vec<Vec<FragmentRequest>>,
        queues: &mut QueueView,
    ) -> Result<Vec<Vec<Assignment>>, RouteError> {
        let kept = scans.clone();
        let rounds = nashdb_par::pool_stats().parallel_rounds;
        let t = Instant::now();
        let out = self.inner.route_batch(scans, queues);
        let ns = ns_since(t);
        let sharded = nashdb_par::pool_stats().parallel_rounds > rounds;
        self.record(&kept, &out, ns, sharded);
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Everything one traced run measured.
#[derive(Debug, Clone)]
pub struct TraceSample {
    /// Host wall ns of the traced `run_workload` call.
    pub wall_ns: u64,
    /// The distributor wrapper's timings.
    pub distributor: DistributorStats,
    /// The router wrapper's timings.
    pub router: RouterStats,
    /// The library's own spans and counters.
    pub snapshot: ObsSnapshot,
    /// `nashdb_par::pool_stats().parallel_rounds` advance over the run.
    pub par_rounds: u64,
    /// `nashdb_par::pool_stats().chunks_executed` advance over the run.
    pub par_chunks: u64,
}

/// Sum of `total_ns - child_ns` over span paths ending in `suffix` (after a
/// `/`, or the whole path). Summing over paths folds the provision and
/// reconfigure call sites of one stage together.
fn self_ns(snap: &ObsSnapshot, suffix: &str) -> u64 {
    snap.spans
        .iter()
        .filter(|s| s.path == suffix || s.path.ends_with(&format!("/{suffix}")))
        .map(|s| s.total_ns.saturating_sub(s.child_ns))
        .sum()
}

fn counter(snap: &ObsSnapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

/// Every call time of every run, pooled for exact nearest-rank percentiles.
fn pooled<'a>(calls: impl Iterator<Item = &'a u64>) -> (Percentiles, f64) {
    let mut p = Percentiles::new();
    let mut total = 0.0;
    for &ns in calls {
        p.push(ns as f64);
        total += ns as f64;
    }
    (p, total)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Reduces the traced runs to the per-layer metrics. Counts and times are
/// per run (means over `samples`); percentiles pool every call of every
/// run; shares are of the traced `run_workload` wall time.
/// `overhead_ratio` is measured by the caller, from runs without the
/// wrappers.
pub fn layer_metrics(samples: &[TraceSample], overhead_ratio: f64) -> Vec<Metric> {
    let runs = samples.len().max(1) as f64;
    let sum = |f: &dyn Fn(&TraceSample) -> u64| samples.iter().map(f).sum::<u64>() as f64;
    let wall = sum(&|s| s.wall_ns);
    let ms = 1e-6;

    let (mut observe, observe_total) =
        pooled(samples.iter().flat_map(|s| &s.distributor.observe_ns));
    let (mut scheme, scheme_total) = pooled(samples.iter().flat_map(|s| &s.distributor.scheme_ns));
    let (mut route, route_total) = pooled(samples.iter().flat_map(|s| &s.router.call_ns));
    let calls = route.count() as f64;
    let scans = sum(&|s| s.router.scans);
    let requests = sum(&|s| s.router.requests);

    let span_self = |suffix: &str| sum(&|s| self_ns(&s.snapshot, suffix));
    // The query span's own time still holds the (unspanned) observe calls;
    // routing already sits in its `route` child.
    let query_self =
        span_self("pipeline/query") - (observe_total - sum(&|s| s.distributor.warmup_observe_ns));
    let loop_self = span_self("pipeline");
    let total = |name: &str| sum(&|s| counter(&s.snapshot, name));
    let reads = total("cluster.reads_dispatched");

    let mut out = Vec::new();
    let mut put = |name, value, unit| out.push(Metric { name, value, unit });
    put(
        "distributor.observe_calls",
        observe.count() as f64 / runs,
        "count",
    );
    put(
        "distributor.observe_ns.p50",
        observe.percentile(50.0).unwrap_or(0.0),
        "ns",
    );
    put(
        "distributor.observe_ns.p99",
        observe.percentile(99.0).unwrap_or(0.0),
        "ns",
    );
    put(
        "distributor.observe_share",
        ratio(observe_total, wall),
        "ratio",
    );
    put(
        "distributor.scheme_calls",
        scheme.count() as f64 / runs,
        "count",
    );
    put(
        "distributor.scheme_ms.p50",
        scheme.percentile(50.0).unwrap_or(0.0) * ms,
        "ms",
    );
    put(
        "distributor.scheme_ms.max",
        scheme.max().unwrap_or(0.0) * ms,
        "ms",
    );
    put(
        "distributor.scheme_share",
        ratio(scheme_total, wall),
        "ratio",
    );
    put(
        "value.chunks_self_ms",
        span_self("scheme/fragment/value_chunks") / runs * ms,
        "ms",
    );
    put(
        "fragment.self_ms",
        span_self("scheme/fragment") / runs * ms,
        "ms",
    );
    put(
        "replication.self_ms",
        span_self("scheme/replication") / runs * ms,
        "ms",
    );
    put(
        "packing.self_ms",
        span_self("scheme/place") / runs * ms,
        "ms",
    );
    let replicas = ratio(
        total("replication.replicas_total"),
        total("replication.decisions"),
    );
    put("replication.replicas_per_fragment", replicas, "replicas");
    put("routing.calls", calls / runs, "count");
    put(
        "routing.call_ns.p50",
        route.percentile(50.0).unwrap_or(0.0),
        "ns",
    );
    put(
        "routing.call_ns.p99",
        route.percentile(99.0).unwrap_or(0.0),
        "ns",
    );
    put("routing.ns_per_request", ratio(route_total, requests), "ns");
    put("routing.share", ratio(route_total, wall), "ratio");
    put("routing.scans_per_call", ratio(scans, calls), "scans");
    put(
        "routing.requests_per_scan",
        ratio(requests, scans),
        "requests",
    );
    put(
        "routing.candidates_per_request",
        ratio(sum(&|s| s.router.candidates), requests),
        "nodes",
    );
    put(
        "routing.wide_request_frac",
        ratio(sum(&|s| s.router.wide_requests), requests),
        "ratio",
    );
    put(
        "routing.sharded_call_frac",
        ratio(sum(&|s| s.router.sharded_calls), calls),
        "ratio",
    );
    put(
        "reconfigure.self_ms",
        span_self("pipeline/reconfigure") / runs * ms,
        "ms",
    );
    put(
        "transition.plans",
        total("transition.plans") / runs,
        "count",
    );
    put(
        "transition.tuples_moved",
        total("transition.tuples_moved") / runs,
        "tuples",
    );
    put("cluster.loop_self_ms", loop_self / runs * ms, "ms");
    put("query.self_ms", query_self / runs * ms, "ms");
    put("cluster.reads_dispatched", reads / runs, "count");
    put("cluster.ns_per_read", ratio(loop_self, reads), "ns");
    put(
        "par.parallel_rounds",
        sum(&|s| s.par_rounds) / runs,
        "count",
    );
    put(
        "par.chunks_executed",
        sum(&|s| s.par_chunks) / runs,
        "count",
    );
    put("obs.overhead_ratio", overhead_ratio, "ratio");
    out
}
