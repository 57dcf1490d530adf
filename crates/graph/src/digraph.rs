use wot_sparse::Csr;

use crate::{GraphError, Result};

/// Weighted directed graph with compressed forward *and* reverse adjacency.
///
/// Node ids are dense `0..node_count`. Parallel edges are merged by summing
/// weights (consistent with [`Csr::from_coo`]'s duplicate handling), and
/// neighbor lists are sorted by node id, so iteration order is
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct DiGraph {
    /// Forward adjacency: out-edges of each node.
    fwd: Csr,
    /// Reverse adjacency: in-edges of each node (transpose of `fwd`).
    rev: Csr,
}

impl DiGraph {
    /// Builds a graph with `n` nodes from weighted edges `(src, dst, w)`.
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Result<Self> {
        let mut coo = wot_sparse::Coo::new(n, n);
        for (s, d, w) in edges {
            coo.push(s, d, w).map_err(|_| GraphError::NodeOutOfBounds {
                node: s.max(d),
                node_count: n,
            })?;
        }
        Ok(Self::from_adjacency(Csr::from_coo(&coo)).expect("square by construction"))
    }

    /// Wraps a square adjacency matrix (entry `(i, j)` = weight of `i → j`).
    pub fn from_adjacency(adj: Csr) -> Result<Self> {
        if adj.nrows() != adj.ncols() {
            return Err(GraphError::NotSquare {
                nrows: adj.nrows(),
                ncols: adj.ncols(),
            });
        }
        let rev = adj.transpose();
        Ok(Self { fwd: adj, rev })
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.fwd.nrows()
    }

    /// Number of (merged) directed edges.
    pub fn edge_count(&self) -> usize {
        self.fwd.nnz()
    }

    /// Out-neighbors of `u` with edge weights, sorted by node id.
    pub fn out_neighbors(&self, u: usize) -> (&[u32], &[f64]) {
        self.fwd.row(u)
    }

    /// In-neighbors of `u` with edge weights, sorted by node id.
    pub fn in_neighbors(&self, u: usize) -> (&[u32], &[f64]) {
        self.rev.row(u)
    }

    /// Out-degree of `u`.
    pub fn out_degree(&self, u: usize) -> usize {
        self.fwd.row_nnz(u)
    }

    /// In-degree of `u`.
    pub fn in_degree(&self, u: usize) -> usize {
        self.rev.row_nnz(u)
    }

    /// Weight of edge `u → v`, if present.
    pub fn edge_weight(&self, u: usize, v: usize) -> Option<f64> {
        self.fwd.get(u, v)
    }

    /// Whether edge `u → v` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.fwd.contains(u, v)
    }

    /// Iterates over all edges `(src, dst, weight)` in row-major order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.fwd.iter()
    }

    /// The forward adjacency matrix.
    pub fn adjacency(&self) -> &Csr {
        &self.fwd
    }

    /// A copy with every edge reversed.
    pub fn reversed(&self) -> DiGraph {
        DiGraph {
            fwd: self.rev.clone(),
            rev: self.fwd.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        DiGraph::from_edges(4, [(0, 1, 0.9), (0, 2, 0.5), (1, 3, 0.7), (2, 3, 0.3)]).unwrap()
    }

    #[test]
    fn counts_and_degrees() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.in_degree(0), 0);
    }

    #[test]
    fn neighbors_sorted() {
        let g = diamond();
        let (ns, ws) = g.out_neighbors(0);
        assert_eq!(ns, &[1, 2]);
        assert_eq!(ws, &[0.9, 0.5]);
        let (ins, iws) = g.in_neighbors(3);
        assert_eq!(ins, &[1, 2]);
        assert_eq!(iws, &[0.7, 0.3]);
    }

    #[test]
    fn edge_lookup() {
        let g = diamond();
        assert_eq!(g.edge_weight(0, 1), Some(0.9));
        assert_eq!(g.edge_weight(1, 0), None);
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(3, 2));
    }

    #[test]
    fn parallel_edges_merge() {
        let g = DiGraph::from_edges(2, [(0, 1, 0.2), (0, 1, 0.3)]).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(0.5));
    }

    #[test]
    fn from_edges_validates_bounds() {
        assert!(DiGraph::from_edges(2, [(0, 5, 1.0)]).is_err());
    }

    #[test]
    fn from_adjacency_requires_square() {
        let rect = Csr::empty(2, 3);
        assert!(matches!(
            DiGraph::from_adjacency(rect),
            Err(GraphError::NotSquare { .. })
        ));
    }

    #[test]
    fn reversed_swaps_directions() {
        let g = diamond().reversed();
        assert!(g.has_edge(3, 1));
        assert!(!g.has_edge(1, 3));
        assert_eq!(g.in_degree(0), 2);
    }
}
