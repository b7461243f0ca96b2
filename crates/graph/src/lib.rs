//! Bounded-degree multigraph substrate for LOCAL-model simulation.
//!
//! This crate provides the graph model used throughout the reproduction of
//! *"How much does randomness help with locally checkable problems?"*
//! (Balliu, Brandt, Olivetti, Suomela; PODC 2020). Following Section 2 of the
//! paper, graphs here:
//!
//! * may be **disconnected**,
//! * may contain **self-loops** and **parallel edges**,
//! * have **port numbering**: the incident edges of a degree-`d` node occupy
//!   ports `0..d` (the paper numbers them `1..d`; we use zero-based indices
//!   internally and render them one-based in diagnostics),
//! * distinguish the two **half-edges** (node–edge incidences, the paper's
//!   set `B`) of every edge, so that labels can be assigned per endpoint.
//!
//! # Quick example
//!
//! ```
//! use lcl_graph::{Graph, NodeId};
//!
//! let mut g = Graph::new();
//! let a = g.add_node();
//! let b = g.add_node();
//! let e = g.add_edge(a, b);
//! assert_eq!(g.degree(a), 1);
//! assert_eq!(g.endpoints(e), [a, b]);
//! assert_eq!(g.neighbor_via_port(a, 0), Some(b));
//! ```
//!
//! The [`gen`] module contains the workload generators used by the
//! experiment harness (cycles, random regular graphs via the pairing model,
//! tori, trees, …), and [`Ball`] implements radius-`r` view extraction — the
//! core primitive of the LOCAL model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ball;
mod ball_cache;
mod coloring;
mod components;
mod cycles;
mod exec;
mod graph;
mod ids;
mod metrics;
mod shard_store;
mod sink;
mod snapshot;
mod traversal;

pub mod gen;

pub use ball::Ball;
pub use ball_cache::{BallCache, CacheStats};
pub use coloring::{
    distance_k_coloring, has_locally_distinct_neighborhood, is_distance_k_coloring,
};
pub use components::Components;
pub use cycles::{shortest_cycle_through_edge, CanonicalCycle, CycleSearch};
pub use exec::{NodeExecutor, Sequential};
pub use graph::Graph;
pub use ids::{EdgeId, HalfEdge, NodeId, Side};
pub use metrics::{diameter, diameter_estimate, eccentricities, girth, EccentricityKernel};
pub use shard_store::{
    ShardMeta, ShardStoreSummary, ShardedSnapshot, ShardedSnapshotWriter, DEFAULT_MAX_SHARDS,
};
pub use sink::GraphSink;
pub use snapshot::{snapshot_header, SnapshotHeader};
pub use traversal::{bfs_distances, bfs_distances_capped};
