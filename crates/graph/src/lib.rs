//! # wot-graph — directed-graph substrate for trust networks
//!
//! A web of trust is a weighted directed graph: nodes are users, an edge
//! `u → v` with weight `w ∈ [0, 1]` means "u trusts v to degree w". This
//! crate provides the graph machinery the propagation algorithms
//! (EigenTrust, TidalTrust, Appleseed, Guha et al.) and the evaluation
//! harness are built on:
//!
//! * [`DiGraph`] — compressed adjacency (forward and reverse) built from an
//!   edge list or a [`wot_sparse::Csr`] trust matrix,
//! * [`traversal`] — BFS depths, reachability and weak components,
//! * [`paths`] — bounded hop-limited shortest paths (TidalTrust operates on
//!   shortest trust paths from a source),
//! * [`scc`] — Tarjan strongly connected components (iterative),
//! * [`metrics`] — degree distributions, density, reciprocity.
//!
//! ## Example
//!
//! ```
//! use wot_graph::DiGraph;
//!
//! let g = DiGraph::from_edges(4, [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 0.8)]).unwrap();
//! assert_eq!(g.node_count(), 4);
//! assert_eq!(g.edge_count(), 3);
//! let depths = wot_graph::traversal::bfs_depths(&g, 0, None);
//! assert_eq!(depths[3], Some(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod digraph;
mod error;
pub mod metrics;
pub mod paths;
pub mod scc;
pub mod traversal;

pub use digraph::DiGraph;
pub use error::GraphError;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, GraphError>;
