//! Routing data access requests (paper §8).
//!
//! When a query's range scan is decomposed into fragment read requests, the
//! scan router picks which replica serves each request. Two pure strategies
//! exist in prior work: minimize *query span* (use as few nodes as
//! possible) or minimize *wait time* (always read from the shortest queue).
//! NashDB's **Max-of-mins** balances them: a node not yet serving this query
//! is charged a span penalty `ϕ`, and requests are scheduled
//! bottleneck-first — the request whose best achievable wait is *largest*
//! is placed first, on the node where its wait is smallest (Eq. 11).
//!
//! Waits are expressed in tuples of queued work (disk reads dominate OLAP
//! scan latency and read time is proportional to tuples, §8); the cluster
//! layer converts its time-based queue lengths and the paper's ϕ = 350 ms
//! into tuple units via node throughput.
//!
//! [`MaxOfMins`] runs Eq. 11 *incrementally*: each pending request keeps
//! its announced minimum `(effective wait, node)` in a versioned max-heap,
//! and a placement re-evaluates only the requests listing the placed node
//! as a candidate (its queue grew, and the first placement also flips its
//! ϕ penalty off). A request whose announced minimum ran through the placed
//! node re-derives it by a direct O(C) scan; one the placed node now
//! undercuts is patched in O(1); every other request keeps its minimum.
//! The textbook O(R²·C) double loop is retained verbatim in
//! [`mod@reference`] as the executable specification the incremental
//! router is property-tested against.
//!
//! Scans arriving together route through [`ScanRouter::route_batch`]: one
//! call threads one evolving queue view through the scans in arrival
//! order, exactly as consecutive [`ScanRouter::route`] calls would.
//! `MaxOfMins` keeps its scratch state (heap, inverted index, per-request
//! minima) in a thread-local reused across calls, so a batch pays no
//! per-scan allocation beyond its output.

use std::collections::{BinaryHeap, HashSet};

use crate::ids::{FragmentId, NodeId};

/// One fragment read request of a single range scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragmentRequest {
    /// The fragment to read.
    pub fragment: FragmentId,
    /// Tuples to read (the fragment size).
    pub size: u64,
    /// Nodes hosting a replica of the fragment. Must be nonempty.
    pub candidates: Vec<NodeId>,
}

/// A routing decision: which node serves which fragment request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// The fragment read.
    pub fragment: FragmentId,
    /// The chosen replica's node.
    pub node: NodeId,
}

/// Why a scan could not be routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// A request's candidate list is empty: the fragment is hosted nowhere
    /// the router can see, so no assignment exists.
    NoReplicas {
        /// The unroutable fragment.
        fragment: FragmentId,
    },
    /// The router failed to derive a candidate minimum even though
    /// validation passed — an internal invariant breach (a router bug),
    /// surfaced as a typed error instead of a sentinel assignment or a
    /// library panic.
    InvariantBreach {
        /// The fragment whose minimum could not be derived.
        fragment: FragmentId,
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::NoReplicas { fragment } => {
                write!(f, "fragment {fragment} has no replicas to read")
            }
            RouteError::InvariantBreach { fragment } => {
                write!(
                    f,
                    "internal routing invariant breached deriving a minimum for fragment {fragment}"
                )
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// Checks every request has at least one candidate replica — the one
/// structural precondition all routers share, validated once per scan
/// instead of once per inner-loop iteration.
pub fn validate_requests(requests: &[FragmentRequest]) -> Result<(), RouteError> {
    match requests.iter().find(|r| r.candidates.is_empty()) {
        Some(r) => Err(RouteError::NoReplicas {
            fragment: r.fragment,
        }),
        None => Ok(()),
    }
}

/// A mutable view of per-node queued work, in tuples.
///
/// Routers read waits and push their own assignments so that consecutive
/// requests of the same scan see each other's load.
#[derive(Debug, Clone)]
pub struct QueueView {
    waits: Vec<u64>,
}

impl QueueView {
    /// All queues empty across `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        QueueView {
            waits: vec![0; nodes],
        }
    }

    /// Adopts externally observed waits (tuples of queued work per node).
    pub fn from_waits(waits: Vec<u64>) -> Self {
        QueueView { waits }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.waits.len()
    }

    /// True iff there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.waits.is_empty()
    }

    /// Queued tuples on `node`.
    pub fn wait(&self, node: NodeId) -> u64 {
        self.waits[node.index()]
    }

    /// Adds `size` tuples of work to `node`'s queue, saturating at
    /// `u64::MAX` — every read path treats waits as saturating, so the
    /// write path must too or an adversarial wait/size pair overflows.
    pub fn enqueue(&mut self, node: NodeId, size: u64) {
        let slot = &mut self.waits[node.index()];
        *slot = slot.saturating_add(size);
    }
}

/// A scan-routing strategy.
pub trait ScanRouter {
    /// Routes every request of one scan, updating `queues` with the work it
    /// places. Implementations must assign each request to one of its
    /// candidates, and reject a request with no candidates as
    /// [`RouteError::NoReplicas`] before placing anything.
    fn route(
        &self,
        requests: &[FragmentRequest],
        queues: &mut QueueView,
    ) -> Result<Vec<Assignment>, RouteError>;

    /// Routes a batch of scans against one evolving queue view: scan `i+1`
    /// sees the queues exactly as scan `i` left them, as if [`Self::route`]
    /// had been called once per scan in order — that sequential semantics
    /// *is* the batch contract implementations must preserve. Every scan is
    /// validated before anything is placed, so a doomed batch leaves
    /// `queues` untouched.
    fn route_batch(
        &self,
        scans: Vec<Vec<FragmentRequest>>,
        queues: &mut QueueView,
    ) -> Result<Vec<Vec<Assignment>>, RouteError> {
        for scan in &scans {
            validate_requests(scan)?;
        }
        let out: Result<Vec<_>, _> = scans.iter().map(|scan| self.route(scan, queues)).collect();
        let out = out?;
        record_batch_metrics(out.len());
        Ok(out)
    }

    /// Human-readable name for experiment output.
    fn name(&self) -> &'static str;
}

/// Number of distinct nodes used — the query's *span*.
pub fn span(assignments: &[Assignment]) -> usize {
    assignments
        .iter()
        .map(|a| a.node)
        .collect::<HashSet<_>>()
        .len()
}

/// Shared per-scan instrumentation for every router implementation. With
/// no session live it returns after one check, and `span` is never
/// computed.
fn record_scan_metrics(requests: usize, span: impl FnOnce() -> usize) {
    if !nashdb_obs::is_active() {
        return;
    }
    nashdb_obs::counter_add("routing.scans_routed", 1);
    nashdb_obs::counter_add("routing.requests", requests as u64);
    nashdb_obs::record("routing.query_span", span() as u64);
}

/// Shared per-batch instrumentation for every router implementation.
fn record_batch_metrics(scans: usize) {
    nashdb_obs::counter_add("routing.batches_routed", 1);
    nashdb_obs::record("routing.batch_scans", scans as u64);
}

/// The paper's Max-of-mins router (Eq. 11), incremental formulation.
///
/// Produces exactly the assignments (and assignment order) of the naive
/// re-evaluate-everything loop in [`reference::max_of_mins`] whenever
/// fragment ids are distinct within the scan (which
/// `DistScheme::requests_for_query` guarantees by deduplication), at
/// O((R + I)·log R) heap work plus O(I·C) re-derivations, where `I` is the
/// number of requests a placement invalidated, instead of the naive
/// R²-ish full rescans.
#[derive(Debug, Clone, Copy)]
pub struct MaxOfMins {
    /// Span penalty ϕ in tuple units: the wait-equivalent cost of touching
    /// a node this query is not already using.
    pub phi: u64,
}

impl MaxOfMins {
    /// Creates the router with span penalty `phi` (tuples).
    pub fn new(phi: u64) -> Self {
        MaxOfMins { phi }
    }
}

/// A pending request's place in the bottleneck-first max-heap. Ordered by
/// the Eq. 11 selection key — largest best-achievable wait first, ties
/// toward larger reads, then smaller fragment id, then smaller request
/// index — so `BinaryHeap::pop` yields exactly the request the naive scan
/// would pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapEntry {
    eff: u64,
    size: u64,
    fragment: std::cmp::Reverse<FragmentId>,
    index: std::cmp::Reverse<usize>,
    version: u64,
}

/// A pending request's announced Eq. 11 minimum: the `(eff, node)` last
/// pushed to the selection heap, and the version that supersedes the
/// request's older heap entries.
#[derive(Debug, Clone, Copy)]
struct Announced {
    eff: u64,
    node: NodeId,
    version: u64,
}

/// Reusable router state. Allocations (inverted index, heap, per-request
/// minima) amortize across every scan a thread routes.
#[derive(Debug, Default)]
struct Scratch {
    /// Nodes already serving the current scan's query (ϕ-free).
    chosen: Vec<bool>,
    /// Which requests of the current scan list each node as a candidate.
    by_node: Vec<Vec<usize>>,
    /// Nodes touched by the current scan, for sparse O(touched) reset.
    touched: Vec<usize>,
    announced: Vec<Announced>,
    placed: Vec<bool>,
    heap: BinaryHeap<HeapEntry>,
}

impl Scratch {
    /// Prepares the scratch for the next scan: sparse-resets the previous
    /// scan's touched nodes and sizes everything for this scan's shape.
    fn reset_for_scan(&mut self, nodes: usize, requests: usize) {
        for &n in &self.touched {
            self.chosen[n] = false;
            self.by_node[n].clear();
        }
        self.touched.clear();
        if self.chosen.len() < nodes {
            self.chosen.resize(nodes, false);
            self.by_node.resize_with(nodes, Vec::new);
        }
        self.placed.clear();
        self.placed.resize(requests, false);
        self.announced.clear();
        self.heap.clear();
    }
}

impl MaxOfMins {
    /// Eq. 11 inner minimum by direct scan: the smallest `(effective wait,
    /// node)` key over the request's candidates under the current queue
    /// and chosen state.
    fn best_of(
        &self,
        req: &FragmentRequest,
        queues: &QueueView,
        chosen: &[bool],
    ) -> Result<(NodeId, u64), RouteError> {
        let mut best: Option<(u64, NodeId)> = None;
        for &n in &req.candidates {
            let penalty = if chosen[n.index()] { 0 } else { self.phi };
            let key = (queues.wait(n).saturating_add(penalty), n);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        // Candidates are validated nonempty before routing; a miss is a
        // router bug, surfaced typed rather than as a panic.
        match best {
            Some((eff, node)) => Ok((node, eff)),
            None => Err(RouteError::InvariantBreach {
                fragment: req.fragment,
            }),
        }
    }

    /// Routes one pre-validated scan, reusing `scratch` across calls, and
    /// records the scan's observations when a session is live.
    fn route_scan_into(
        &self,
        requests: &[FragmentRequest],
        queues: &mut QueueView,
        scratch: &mut Scratch,
    ) -> Result<Vec<Assignment>, RouteError> {
        // Node-indexed scratch sized to cover every candidate (candidate
        // ids index into `queues`, but an oversized id should fail on the
        // queue lookup exactly as it always has, not on router scratch).
        let nodes = requests
            .iter()
            .flat_map(|r| r.candidates.iter())
            .map(|n| n.index() + 1)
            .max()
            .unwrap_or(0)
            .max(queues.len());
        scratch.reset_for_scan(nodes, requests.len());
        for (i, req) in requests.iter().enumerate() {
            for &n in &req.candidates {
                let slot = &mut scratch.by_node[n.index()];
                if slot.is_empty() {
                    scratch.touched.push(n.index());
                }
                slot.push(i);
            }
        }

        for (i, req) in requests.iter().enumerate() {
            let (node, eff) = self.best_of(req, queues, &scratch.chosen)?;
            scratch.announced.push(Announced {
                eff,
                node,
                version: 0,
            });
            scratch.heap.push(HeapEntry {
                eff,
                size: req.size,
                fragment: std::cmp::Reverse(req.fragment),
                index: std::cmp::Reverse(i),
                version: 0,
            });
        }

        // One session check per scan instead of a thread-local round trip
        // per sample.
        let obs_active = nashdb_obs::is_active();
        // The query's span: every node's first placement flips it chosen.
        let mut span = 0usize;
        let mut out = Vec::with_capacity(requests.len());
        while let Some(entry) = scratch.heap.pop() {
            let idx = entry.index.0;
            if scratch.placed[idx] || entry.version != scratch.announced[idx].version {
                continue; // superseded by a re-evaluation
            }
            let req = &requests[idx];
            let node = scratch.announced[idx].node;
            scratch.placed[idx] = true;
            if obs_active {
                nashdb_obs::record("routing.queue_wait_tuples", queues.wait(node));
            }
            queues.enqueue(node, req.size);
            if !scratch.chosen[node.index()] {
                scratch.chosen[node.index()] = true;
                span += 1;
            }
            out.push(Assignment {
                fragment: req.fragment,
                node,
            });

            // Re-evaluate only what this placement could have changed: the
            // placed node's queue grew and (on first touch) its ϕ penalty
            // vanished, so only requests listing it as a candidate can see
            // a different Eq. 11 minimum.
            let via = queues.wait(node); // chosen ⇒ no penalty
            for &j in &scratch.by_node[node.index()] {
                if scratch.placed[j] {
                    continue;
                }
                let a = scratch.announced[j];
                let (n, eff) = if a.node == node {
                    // The announced minimum ran through the placed node and
                    // its wait just grew: re-derive the true minimum.
                    self.best_of(&requests[j], queues, &scratch.chosen)?
                } else if (via, node) < (a.eff, a.node) {
                    // First touch dropped the placed node's ϕ penalty below
                    // the announced minimum: patch in O(1). (Only a penalty
                    // flip can undercut — waits never shrink.)
                    (node, via)
                } else {
                    // Every other candidate's key is unchanged and the placed
                    // node does not undercut: the announced minimum is still
                    // exact.
                    continue;
                };
                if (eff, n) != (a.eff, a.node) {
                    let version = a.version + 1;
                    scratch.announced[j] = Announced {
                        eff,
                        node: n,
                        version,
                    };
                    scratch.heap.push(HeapEntry {
                        eff,
                        size: requests[j].size,
                        fragment: std::cmp::Reverse(requests[j].fragment),
                        index: std::cmp::Reverse(j),
                        version,
                    });
                }
            }
        }
        record_scan_metrics(out.len(), || span);
        Ok(out)
    }
}

std::thread_local! {
    /// Per-thread router scratch reused across [`ScanRouter::route`] calls.
    /// `reset_for_scan` re-initializes everything a scan reads, so reuse is
    /// semantically invisible.
    static ROUTE_SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::new(Scratch::default());
}

impl ScanRouter for MaxOfMins {
    fn route(
        &self,
        requests: &[FragmentRequest],
        queues: &mut QueueView,
    ) -> Result<Vec<Assignment>, RouteError> {
        validate_requests(requests)?;
        ROUTE_SCRATCH.with(|cell| {
            // Re-entrant `route` calls (e.g. from an obs hook) would hit a
            // second `borrow_mut`; fall back to a fresh scratch for them.
            match cell.try_borrow_mut() {
                Ok(mut scratch) => self.route_scan_into(requests, queues, &mut scratch),
                Err(_) => self.route_scan_into(requests, queues, &mut Scratch::default()),
            }
        })
    }

    fn name(&self) -> &'static str {
        "max-of-mins"
    }
}

pub mod reference {
    //! Naive reference implementations retained as executable
    //! specifications for property tests and the `nashdb-bench perf`
    //! before/after comparison. Not for production paths: the Max-of-mins
    //! loop here is the O(R²·C) formulation the incremental router
    //! replaced (including its per-iteration revalidation overhead).

    use super::{Assignment, FragmentRequest, QueueView, RouteError};
    use crate::ids::NodeId;
    use std::collections::HashSet;

    /// The textbook Eq. 11 loop: every outer iteration re-derives every
    /// pending request's best choice from scratch and places the worst
    /// best. Identical assignments (and assignment order) to
    /// [`MaxOfMins`](super::MaxOfMins) for scans with distinct fragment
    /// ids.
    pub fn max_of_mins(
        phi: u64,
        requests: &[FragmentRequest],
        queues: &mut QueueView,
    ) -> Result<Vec<Assignment>, RouteError> {
        super::validate_requests(requests)?;
        let mut remaining: Vec<&FragmentRequest> = requests.iter().collect();
        let mut chosen: HashSet<NodeId> = HashSet::new();
        let mut out = Vec::with_capacity(requests.len());

        while !remaining.is_empty() {
            // For each pending request, its best effective wait and the
            // node achieving it; then schedule the *worst best* (the
            // bottleneck).
            let mut pick: Option<(usize, NodeId, u64)> = None; // (idx, node, eff wait)
            for (idx, req) in remaining.iter().enumerate() {
                let Some((node, eff)) = req
                    .candidates
                    .iter()
                    .map(|&n| {
                        let penalty = if chosen.contains(&n) { 0 } else { phi };
                        (n, queues.wait(n).saturating_add(penalty))
                    })
                    .min_by_key(|&(n, eff)| (eff, n))
                else {
                    // Candidates were validated nonempty above; a miss is a
                    // router bug, surfaced typed rather than as a panic.
                    return Err(RouteError::InvariantBreach {
                        fragment: req.fragment,
                    });
                };
                let better = match pick {
                    None => true,
                    // Strict max; ties broken toward larger reads first,
                    // then fragment id, for determinism.
                    Some((pidx, _, peff)) => {
                        let (ps, pf) = (remaining[pidx].size, remaining[pidx].fragment);
                        (eff, req.size, std::cmp::Reverse(req.fragment))
                            > (peff, ps, std::cmp::Reverse(pf))
                    }
                };
                if better {
                    pick = Some((idx, node, eff));
                }
            }
            let Some((idx, node, _)) = pick else {
                // The loop guard keeps `remaining` nonempty, so a pick
                // always exists; a miss is a router bug, surfaced typed.
                return Err(RouteError::InvariantBreach {
                    fragment: remaining[0].fragment,
                });
            };
            let req = remaining.swap_remove(idx);
            queues.enqueue(node, req.size);
            chosen.insert(node);
            out.push(Assignment {
                fragment: req.fragment,
                node,
            });
        }
        Ok(out)
    }

    /// The batch specification: validate every scan up front, then route
    /// each scan with [`max_of_mins`] against the same evolving queue view.
    /// This sequential threading *is* the semantics
    /// [`ScanRouter::route_batch`](super::ScanRouter::route_batch) must
    /// reproduce exactly — assignments, selection order, and final queue
    /// waits.
    pub fn max_of_mins_batch(
        phi: u64,
        scans: &[Vec<FragmentRequest>],
        queues: &mut QueueView,
    ) -> Result<Vec<Vec<Assignment>>, RouteError> {
        for scan in scans {
            super::validate_requests(scan)?;
        }
        scans.iter().map(|s| max_of_mins(phi, s, queues)).collect()
    }

    /// The incremental router with every piece of scratch state (inverted
    /// index, cached bests, heap) allocated fresh each call. Retained as
    /// the executable spec of the per-arrival path so `nashdb-bench perf`
    /// measures the batch router against it — that per-call setup is what
    /// [`MaxOfMins`](super::MaxOfMins)'s reused scratch amortizes.
    /// Identical assignments (and assignment order) to `MaxOfMins`.
    pub fn incremental_per_scan(
        phi: u64,
        requests: &[FragmentRequest],
        queues: &mut QueueView,
    ) -> Result<Vec<Assignment>, RouteError> {
        use super::HeapEntry;
        use std::collections::BinaryHeap;

        super::validate_requests(requests)?;

        #[derive(Clone, Copy)]
        struct Best {
            node: NodeId,
            eff: u64,
            version: u64,
        }
        let key_of = |n: NodeId, queues: &QueueView, chosen: &[bool]| {
            let penalty = if chosen[n.index()] { 0 } else { phi };
            (queues.wait(n).saturating_add(penalty), n)
        };
        let best_of = |req: &FragmentRequest, queues: &QueueView, chosen: &[bool]| {
            let mut best: Option<(u64, NodeId)> = None;
            for &n in &req.candidates {
                let key = key_of(n, queues, chosen);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
            match best {
                Some((eff, node)) => Ok((node, eff)),
                None => Err(RouteError::InvariantBreach {
                    fragment: req.fragment,
                }),
            }
        };

        let nodes = requests
            .iter()
            .flat_map(|r| r.candidates.iter())
            .map(|n| n.index() + 1)
            .max()
            .unwrap_or(0)
            .max(queues.len());
        let mut chosen = vec![false; nodes];
        let mut by_node: Vec<Vec<usize>> = vec![Vec::new(); nodes];
        for (i, req) in requests.iter().enumerate() {
            for &n in &req.candidates {
                by_node[n.index()].push(i);
            }
        }

        let mut placed = vec![false; requests.len()];
        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(requests.len());
        let mut cached: Vec<Best> = Vec::with_capacity(requests.len());
        for (i, req) in requests.iter().enumerate() {
            let (node, eff) = best_of(req, queues, &chosen)?;
            heap.push(HeapEntry {
                eff,
                size: req.size,
                fragment: std::cmp::Reverse(req.fragment),
                index: std::cmp::Reverse(i),
                version: 0,
            });
            cached.push(Best {
                node,
                eff,
                version: 0,
            });
        }

        let mut out = Vec::with_capacity(requests.len());
        while let Some(entry) = heap.pop() {
            let idx = entry.index.0;
            if placed[idx] || entry.version != cached[idx].version {
                continue; // superseded by a re-evaluation
            }
            let req = &requests[idx];
            let node = cached[idx].node;
            placed[idx] = true;
            nashdb_obs::record("routing.queue_wait_tuples", queues.wait(node));
            queues.enqueue(node, req.size);
            chosen[node.index()] = true;
            out.push(Assignment {
                fragment: req.fragment,
                node,
            });

            let via_node = queues.wait(node); // chosen ⇒ no penalty
            for &j in &by_node[node.index()] {
                if placed[j] {
                    continue;
                }
                let best = cached[j];
                if best.node == node {
                    let (n, eff) = best_of(&requests[j], queues, &chosen)?;
                    cached[j] = Best {
                        node: n,
                        eff,
                        version: best.version + 1,
                    };
                } else if (via_node, node) < (best.eff, best.node) {
                    cached[j] = Best {
                        node,
                        eff: via_node,
                        version: best.version + 1,
                    };
                } else {
                    continue; // cached minimum still exact
                }
                heap.push(HeapEntry {
                    eff: cached[j].eff,
                    size: requests[j].size,
                    fragment: std::cmp::Reverse(requests[j].fragment),
                    index: std::cmp::Reverse(j),
                    version: cached[j].version,
                });
            }
        }
        super::record_scan_metrics(out.len(), || super::span(&out));
        Ok(out)
    }
}

/// The "Power of 2" variant the paper sketches in footnote 3 for workloads
/// of *small* scans: instead of examining every replica of every request,
/// consider only two randomly chosen candidates per request and take the
/// better under the Eq. 11 objective. O(R) per scan instead of O(R²·C),
/// trading a little routing quality for constant-time decisions.
///
/// Randomness is a deterministic splitmix64 stream seeded at construction,
/// so simulations stay reproducible.
#[derive(Debug)]
pub struct PowerOfTwoChoices {
    /// Span penalty ϕ in tuple units (as in [`MaxOfMins`]).
    pub phi: u64,
    state: std::sync::Mutex<u64>,
}

impl PowerOfTwoChoices {
    /// Creates the router with span penalty `phi` and an RNG seed.
    pub fn new(phi: u64, seed: u64) -> Self {
        PowerOfTwoChoices {
            phi,
            state: std::sync::Mutex::new(seed ^ 0x9E37_79B9_7F4A_7C15),
        }
    }

    fn next(&self) -> u64 {
        let mut s = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl ScanRouter for PowerOfTwoChoices {
    fn route(
        &self,
        requests: &[FragmentRequest],
        queues: &mut QueueView,
    ) -> Result<Vec<Assignment>, RouteError> {
        validate_requests(requests)?;
        let mut chosen: HashSet<NodeId> = HashSet::new();
        let out: Vec<Assignment> = requests
            .iter()
            .map(|req| {
                let pair: [NodeId; 2] = if req.candidates.len() <= 2 {
                    [req.candidates[0], req.candidates[req.candidates.len() - 1]]
                } else {
                    let a = crate::num::usize_from(self.next()) % req.candidates.len();
                    let mut b = crate::num::usize_from(self.next()) % (req.candidates.len() - 1);
                    if b >= a {
                        b += 1;
                    }
                    [req.candidates[a], req.candidates[b]]
                };
                let key = |n: NodeId| {
                    let penalty = if chosen.contains(&n) { 0 } else { self.phi };
                    (queues.wait(n).saturating_add(penalty), n)
                };
                // A two-element pair always has a minimum, so take it
                // without an Option round-trip (ties keep the first, as
                // `min_by_key` would).
                let node = if key(pair[1]) < key(pair[0]) {
                    pair[1]
                } else {
                    pair[0]
                };
                nashdb_obs::record("routing.queue_wait_tuples", queues.wait(node));
                queues.enqueue(node, req.size);
                chosen.insert(node);
                Assignment {
                    fragment: req.fragment,
                    node,
                }
            })
            .collect();
        record_scan_metrics(out.len(), || span(&out));
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "power-of-two"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(frag: u64, size: u64, candidates: &[u64]) -> FragmentRequest {
        FragmentRequest {
            fragment: FragmentId(frag),
            size,
            candidates: candidates.iter().map(|&n| NodeId(n)).collect(),
        }
    }

    fn node_of(assignments: &[Assignment], frag: u64) -> NodeId {
        assignments
            .iter()
            .find(|a| a.fragment == FragmentId(frag))
            .expect("assigned")
            .node
    }

    #[test]
    fn single_candidate_is_forced() {
        let router = MaxOfMins::new(100);
        let mut q = QueueView::new(2);
        let out = router.route(&[req(0, 50, &[1])], &mut q).unwrap();
        assert_eq!(
            out,
            vec![Assignment {
                fragment: FragmentId(0),
                node: NodeId(1)
            }]
        );
        assert_eq!(q.wait(NodeId(1)), 50);
        assert_eq!(q.wait(NodeId(0)), 0);
    }

    #[test]
    fn span_penalty_consolidates_small_reads() {
        // Two small fragments, both replicated on both idle nodes. With a
        // large ϕ the second read should join the first node rather than
        // fan out.
        let router = MaxOfMins::new(1_000);
        let mut q = QueueView::new(2);
        let out = router
            .route(&[req(0, 10, &[0, 1]), req(1, 10, &[0, 1])], &mut q)
            .unwrap();
        assert_eq!(span(&out), 1);
    }

    #[test]
    fn zero_penalty_spreads_load() {
        let router = MaxOfMins::new(0);
        let mut q = QueueView::new(2);
        let out = router
            .route(&[req(0, 10, &[0, 1]), req(1, 10, &[0, 1])], &mut q)
            .unwrap();
        assert_eq!(span(&out), 2);
    }

    #[test]
    fn widens_span_when_beneficial() {
        // A huge read occupies node 0; a second huge read should pay ϕ and
        // go to node 1 rather than queue behind it.
        let router = MaxOfMins::new(50);
        let mut q = QueueView::new(2);
        let out = router
            .route(&[req(0, 1_000, &[0, 1]), req(1, 1_000, &[0, 1])], &mut q)
            .unwrap();
        assert_eq!(span(&out), 2);
        assert_ne!(node_of(&out, 0), node_of(&out, 1));
    }

    #[test]
    fn bottleneck_scheduled_first_onto_short_queue() {
        // Fragment 0 can only be read from the busy node 0; fragment 1 can
        // be read anywhere. The bottleneck (fragment 0) must be placed
        // first, and fragment 1 should then avoid stacking behind it.
        let router = MaxOfMins::new(0);
        let mut q = QueueView::from_waits(vec![500, 0]);
        let out = router
            .route(&[req(1, 10, &[0, 1]), req(0, 10, &[0])], &mut q)
            .unwrap();
        assert_eq!(node_of(&out, 0), NodeId(0));
        assert_eq!(node_of(&out, 1), NodeId(1));
        // Bottleneck-first: fragment 0 appears before fragment 1.
        assert_eq!(out[0].fragment, FragmentId(0));
    }

    #[test]
    fn accounts_for_own_placements() {
        // Three equal reads over two idle nodes with no penalty: the third
        // read must see the first two queued and pick the emptier node.
        let router = MaxOfMins::new(0);
        let mut q = QueueView::new(2);
        let out = router
            .route(
                &[
                    req(0, 100, &[0, 1]),
                    req(1, 100, &[0, 1]),
                    req(2, 100, &[0, 1]),
                ],
                &mut q,
            )
            .unwrap();
        let w0 = q.wait(NodeId(0));
        let w1 = q.wait(NodeId(1));
        assert_eq!(w0 + w1, 300);
        assert!(w0.abs_diff(w1) == 100, "unbalanced: {w0} vs {w1}");
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn empty_candidates_is_a_typed_error() {
        let bad = FragmentRequest {
            fragment: FragmentId(7),
            size: 1,
            candidates: vec![],
        };
        let mut q = QueueView::new(1);
        let err = MaxOfMins::new(0)
            .route(std::slice::from_ref(&bad), &mut q)
            .unwrap_err();
        assert_eq!(
            err,
            RouteError::NoReplicas {
                fragment: FragmentId(7)
            }
        );
        assert!(err.to_string().contains("no replicas"));
        // Validation is up-front: nothing was enqueued.
        assert_eq!(q.wait(NodeId(0)), 0);
        // Same contract for the stochastic router and the reference.
        let err2 = PowerOfTwoChoices::new(0, 1)
            .route(std::slice::from_ref(&bad), &mut q)
            .unwrap_err();
        assert_eq!(err, err2);
        let err3 = reference::max_of_mins(0, std::slice::from_ref(&bad), &mut q).unwrap_err();
        assert_eq!(err, err3);
    }

    #[test]
    fn error_is_detected_before_any_placement() {
        // A routable request ahead of an unroutable one: validate-once
        // means the queue stays untouched rather than half-routed.
        let router = MaxOfMins::new(0);
        let mut q = QueueView::new(2);
        let reqs = [
            req(0, 100, &[0, 1]),
            FragmentRequest {
                fragment: FragmentId(1),
                size: 5,
                candidates: vec![],
            },
        ];
        assert!(router.route(&reqs, &mut q).is_err());
        assert_eq!(q.wait(NodeId(0)) + q.wait(NodeId(1)), 0);
    }

    #[test]
    fn enqueue_saturates_at_u64_max() {
        // Regression: enqueue used unchecked `+=` while every read path
        // saturated; a near-MAX wait plus a large read panicked in debug
        // builds instead of pinning at MAX.
        let mut q = QueueView::from_waits(vec![u64::MAX - 10]);
        q.enqueue(NodeId(0), u64::MAX);
        assert_eq!(q.wait(NodeId(0)), u64::MAX);
        q.enqueue(NodeId(0), 1);
        assert_eq!(q.wait(NodeId(0)), u64::MAX);
        // And the router survives routing onto a saturated queue.
        let out = MaxOfMins::new(u64::MAX)
            .route(&[req(0, u64::MAX, &[0]), req(1, u64::MAX, &[0])], &mut q)
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(q.wait(NodeId(0)), u64::MAX);
    }

    #[test]
    fn deterministic_under_ties() {
        let router = MaxOfMins::new(10);
        for _ in 0..4 {
            let mut q1 = QueueView::new(3);
            let mut q2 = QueueView::new(3);
            let reqs = vec![
                req(0, 10, &[0, 1, 2]),
                req(1, 10, &[0, 1, 2]),
                req(2, 10, &[0, 1, 2]),
            ];
            assert_eq!(
                router.route(&reqs, &mut q1).unwrap(),
                router.route(&reqs, &mut q2).unwrap()
            );
        }
    }

    #[test]
    fn matches_reference_on_dense_scans() {
        // A deterministic non-random sweep; the property tests cover random
        // instances, this pins a few structured ones (all-shared, disjoint,
        // chained candidate sets, preloaded queues).
        let cases: Vec<(Vec<FragmentRequest>, Vec<u64>)> = vec![
            (
                (0..12).map(|i| req(i, 10 + i, &[0, 1, 2, 3])).collect(),
                vec![0; 4],
            ),
            (
                (0..8).map(|i| req(i, 100, &[i % 4])).collect(),
                vec![50, 0, 900, 3],
            ),
            (
                (0..10)
                    .map(|i| req(i, 7 * i + 1, &[i % 5, (i + 1) % 5]))
                    .collect(),
                vec![10, 20, 30, 40, 0],
            ),
        ];
        for phi in [0, 35, 100_000] {
            for (reqs, waits) in &cases {
                let mut q1 = QueueView::from_waits(waits.clone());
                let mut q2 = QueueView::from_waits(waits.clone());
                let fast = MaxOfMins::new(phi).route(reqs, &mut q1).unwrap();
                let naive = reference::max_of_mins(phi, reqs, &mut q2).unwrap();
                assert_eq!(fast, naive, "phi {phi}");
                for n in 0..waits.len() {
                    assert_eq!(q1.wait(NodeId(n as u64)), q2.wait(NodeId(n as u64)));
                }
            }
        }
    }

    #[test]
    fn power_of_two_routes_every_request_to_a_candidate() {
        let router = PowerOfTwoChoices::new(100, 7);
        let mut q = QueueView::new(8);
        let reqs: Vec<FragmentRequest> = (0..32)
            .map(|i| req(i, 50, &[i % 8, (i + 3) % 8, (i + 5) % 8]))
            .collect();
        let out = router.route(&reqs, &mut q).unwrap();
        assert_eq!(out.len(), 32);
        for (a, r) in out.iter().zip(&reqs) {
            assert!(r.candidates.contains(&a.node));
        }
        // All placed work is accounted.
        let total: u64 = (0..8).map(|n| q.wait(NodeId(n))).sum();
        assert_eq!(total, 32 * 50);
    }

    #[test]
    fn power_of_two_is_deterministic_per_seed() {
        let reqs: Vec<FragmentRequest> = (0..16).map(|i| req(i, 10, &[0, 1, 2, 3, 4])).collect();
        let route_with = |seed: u64| {
            let router = PowerOfTwoChoices::new(0, seed);
            let mut q = QueueView::new(5);
            router.route(&reqs, &mut q).unwrap()
        };
        assert_eq!(route_with(1), route_with(1));
        assert_ne!(route_with(1), route_with(2));
    }

    #[test]
    fn power_of_two_prefers_the_shorter_of_its_pair() {
        let router = PowerOfTwoChoices::new(0, 3);
        let mut q = QueueView::from_waits(vec![1_000_000, 0]);
        // Only two candidates: the pair is forced, so it must pick node 1.
        let out = router.route(&[req(0, 10, &[0, 1])], &mut q).unwrap();
        assert_eq!(out[0].node, NodeId(1));
    }

    #[test]
    fn small_batch_matches_sequential_and_reference() {
        // All scans share nodes, so this exercises cross-scan queue
        // threading through the reused scratch.
        let router = MaxOfMins::new(35);
        let scans: Vec<Vec<FragmentRequest>> = (0..10)
            .map(|i| {
                (0..4)
                    .map(|k| req(i * 4 + k, 10 + i, &[0, 1, 2, (i + k) % 4]))
                    .collect()
            })
            .collect();
        let mut q_batch = QueueView::from_waits(vec![5, 0, 40, 7]);
        let mut q_seq = q_batch.clone();
        let mut q_ref = q_batch.clone();
        let batch = router.route_batch(scans.clone(), &mut q_batch).unwrap();
        let seq: Vec<Vec<Assignment>> = scans
            .iter()
            .map(|s| router.route(s, &mut q_seq).unwrap())
            .collect();
        let reference = reference::max_of_mins_batch(35, &scans, &mut q_ref).unwrap();
        assert_eq!(batch, seq);
        assert_eq!(batch, reference);
        for n in 0..4 {
            assert_eq!(q_batch.wait(NodeId(n)), q_seq.wait(NodeId(n)));
            assert_eq!(q_batch.wait(NodeId(n)), q_ref.wait(NodeId(n)));
        }
    }

    #[test]
    fn batch_validates_every_scan_before_placing() {
        // A routable scan ahead of an unroutable one: validate-all-first
        // means the queues stay untouched rather than half-routed.
        let router = MaxOfMins::new(0);
        let mut q = QueueView::new(2);
        let scans = vec![
            vec![req(0, 100, &[0, 1])],
            vec![FragmentRequest {
                fragment: FragmentId(9),
                size: 5,
                candidates: vec![],
            }],
        ];
        let err = router.route_batch(scans, &mut q).unwrap_err();
        assert_eq!(
            err,
            RouteError::NoReplicas {
                fragment: FragmentId(9)
            }
        );
        assert_eq!(q.wait(NodeId(0)) + q.wait(NodeId(1)), 0);
    }

    #[test]
    fn empty_scans_route_to_empty_assignments() {
        let router = MaxOfMins::new(10);
        let mut scans: Vec<Vec<FragmentRequest>> = (0..6)
            .map(|i| {
                vec![
                    req(2 * i, 10 + i, &[i % 3, (i + 1) % 3]),
                    req(2 * i + 1, 5, &[2]),
                ]
            })
            .collect();
        scans.insert(0, Vec::new());
        scans.insert(4, Vec::new());
        let mut q_batch = QueueView::new(3);
        let mut q_ref = QueueView::new(3);
        let batch = router.route_batch(scans.clone(), &mut q_batch).unwrap();
        let reference = reference::max_of_mins_batch(10, &scans, &mut q_ref).unwrap();
        assert_eq!(batch, reference);
        assert!(batch[0].is_empty());
        assert!(batch[4].is_empty());
        for n in 0..3 {
            assert_eq!(q_batch.wait(NodeId(n)), q_ref.wait(NodeId(n)));
        }
    }

    #[test]
    fn wide_candidate_lists_match_reference() {
        // Ten candidates per request, every request sharing one hot node
        // (its ϕ flip undercuts many announced minima at once), repeated
        // placements forcing re-derivations, plus a deterministic LCG mix
        // of sizes and preloaded waits. The naive reference is the oracle
        // throughout.
        let mut lcg = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            lcg >> 33
        };
        for phi in [0, 7, 100_000] {
            let scans: Vec<Vec<FragmentRequest>> = (0..24)
                .map(|i| {
                    (0..6)
                        .map(|k| {
                            // 10 candidates out of 12 nodes, always node 0.
                            let mut cands = vec![0u64];
                            for c in 0..9u64 {
                                cands.push(1 + (c + i + k) % 11);
                            }
                            req(i * 6 + k, 1 + next() % 1000, &cands)
                        })
                        .collect()
                })
                .collect();
            let waits: Vec<u64> = (0..12).map(|_| next() % 500).collect();
            let router = MaxOfMins::new(phi);
            let mut q_fast = QueueView::from_waits(waits.clone());
            let mut q_ref = QueueView::from_waits(waits);
            let fast = router.route_batch(scans.clone(), &mut q_fast).unwrap();
            let naive = reference::max_of_mins_batch(phi, &scans, &mut q_ref).unwrap();
            assert_eq!(fast, naive, "phi {phi}");
            for n in 0..12 {
                assert_eq!(q_fast.wait(NodeId(n)), q_ref.wait(NodeId(n)), "phi {phi}");
            }
        }
    }

    #[test]
    fn default_route_batch_threads_queues_for_any_router() {
        // The trait's default batch path (the only one) is per-scan routing
        // in order; check queue threading end-to-end.
        let router = PowerOfTwoChoices::new(10, 99);
        let scans: Vec<Vec<FragmentRequest>> =
            (0..6).map(|i| vec![req(i, 50, &[0, 1, 2])]).collect();
        let mut q = QueueView::new(3);
        let out = router.route_batch(scans, &mut q).unwrap();
        assert_eq!(out.len(), 6);
        let total: u64 = (0..3).map(|n| q.wait(NodeId(n))).sum();
        assert_eq!(total, 6 * 50);
    }

    /// Under a live session, `MaxOfMins` records one wait sample per
    /// placement, the per-scan counters, and a span sample that — counted
    /// from first touches rather than hashed — equals [`span`] of the
    /// scan's assignments.
    #[test]
    fn session_records_waits_counters_and_first_touch_span() {
        let router = MaxOfMins::new(35);
        let mut q = QueueView::from_waits(vec![0, 40, 5, 90, 10]);
        for i in 0..12u64 {
            let scan: Vec<FragmentRequest> = (0..1 + i % 5)
                .map(|k| req(k, 10 + 7 * i, &[(i + k) % 5, (2 * i + k + 1) % 5]))
                .collect();
            let session = nashdb_obs::ObsSession::start();
            let out = router.route(&scan, &mut q).unwrap();
            let snap = session.finish();
            let spans = snap.histogram("routing.query_span").expect("span sample");
            assert_eq!((spans.count, spans.max), (1, span(&out) as u64), "scan {i}");
            let waits = snap
                .histogram("routing.queue_wait_tuples")
                .expect("wait samples");
            assert_eq!(waits.count, scan.len() as u64);
            assert_eq!(snap.counter("routing.scans_routed"), Some(1));
            assert_eq!(snap.counter("routing.requests"), Some(scan.len() as u64));
        }
    }

    #[test]
    fn span_helper_counts_distinct_nodes() {
        let a = [
            Assignment {
                fragment: FragmentId(0),
                node: NodeId(0),
            },
            Assignment {
                fragment: FragmentId(1),
                node: NodeId(0),
            },
            Assignment {
                fragment: FragmentId(2),
                node: NodeId(2),
            },
        ];
        assert_eq!(span(&a), 2);
        assert_eq!(span(&[]), 0);
    }
}
