//! # nashdb-core
//!
//! The algorithms contributed by *NashDB: An End-to-End Economic Method for
//! Elastic Database Fragmentation, Replication, and Provisioning* (Marcus,
//! Papaemmanouil, Semenova, Garber — SIGMOD 2018), implemented from the paper.
//!
//! NashDB models queries as patrons who pay a price (their priority) for the
//! tuples they scan, tuples as goods, and cluster nodes as firms. Balancing
//! the supply of replicas against this demand yields, end to end:
//!
//! * [`value`] — **tuple value estimation** (§4): a sliding window of range
//!   scans feeds an augmented binary search tree keyed on scan start/end
//!   points; an in-order traversal recovers the piecewise-constant per-tuple
//!   value function `V(x)` in `O(|W|)`.
//! * [`fragment`] — **fragmentation** (§5): cut each table into `maxFrags`
//!   contiguous fragments minimizing the summed unnormalized variance of
//!   `V(x)` within fragments, either optimally (dynamic programming) or with
//!   the greedy split/merge heuristic.
//! * [`replication`] — **replication & provisioning** (§6): replicate each
//!   fragment to its profit-neutral count `Ideal(f)` and pack replicas onto
//!   the fewest nodes with Best-First-Fit-Decreasing class-constrained bin
//!   packing; the packed node count is the provisioning decision. The result
//!   is a Nash equilibrium (Definition 6.1), which [`economics`] can verify.
//! * [`transition`] — **cluster transitioning** (§7): move between schemes
//!   with minimum data transfer via a minimum-weight perfect bipartite
//!   matching (Kuhn–Munkres) between old and new nodes.
//! * [`routing`] — **scan routing** (§8): the Max-of-mins router balances
//!   data-access latency against query span.
//!
//! The crate is substrate-agnostic: it consumes scan streams and queue
//! observations and produces schemes and plans. `nashdb-cluster` supplies a
//! simulated elastic cluster; `nashdb` wires the full pipeline together.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

#[cfg(feature = "invariant-audit")]
pub mod audit;
pub mod economics;
pub mod fragment;
pub mod ids;
pub mod num;
pub mod replication;
pub mod routing;
pub mod transition;
pub mod value;

pub use economics::NodeSpec;
pub use fragment::{FragmentRange, Fragmentation};
pub use ids::{FragmentId, NodeId, QueryId, TupleIndex};
pub use value::{Chunk, PricedScan, TupleValueEstimator};
