//! Structural graph statistics reported by the evaluation harness.

use crate::DiGraph;

/// Summary statistics of a directed graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphSummary {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of edges.
    pub edges: usize,
    /// `edges / (nodes·(nodes−1))` — self-loops excluded from capacity.
    pub density: f64,
    /// Mean out-degree.
    pub mean_out_degree: f64,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Maximum in-degree.
    pub max_in_degree: usize,
    /// Nodes with no out-edges.
    pub sinks: usize,
    /// Nodes with no in-edges.
    pub sources: usize,
    /// Fraction of edges `u→v` with a reciprocal `v→u`.
    pub reciprocity: f64,
}

/// Computes [`GraphSummary`] for `g`.
pub fn summarize(g: &DiGraph) -> GraphSummary {
    let n = g.node_count();
    let m = g.edge_count();
    let mut max_out = 0usize;
    let mut max_in = 0usize;
    let mut sinks = 0usize;
    let mut sources = 0usize;
    for u in 0..n {
        let od = g.out_degree(u);
        let id = g.in_degree(u);
        max_out = max_out.max(od);
        max_in = max_in.max(id);
        if od == 0 {
            sinks += 1;
        }
        if id == 0 {
            sources += 1;
        }
    }
    let mut reciprocal = 0usize;
    for (u, v, _) in g.edges() {
        if u != v && g.has_edge(v, u) {
            reciprocal += 1;
        }
    }
    let capacity = n.saturating_mul(n.saturating_sub(1));
    GraphSummary {
        nodes: n,
        edges: m,
        density: if capacity == 0 {
            0.0
        } else {
            m as f64 / capacity as f64
        },
        mean_out_degree: if n == 0 { 0.0 } else { m as f64 / n as f64 },
        max_out_degree: max_out,
        max_in_degree: max_in,
        sinks,
        sources,
        reciprocity: if m == 0 {
            0.0
        } else {
            reciprocal as f64 / m as f64
        },
    }
}

/// Out-degree histogram: `hist[d]` = number of nodes with out-degree `d`.
pub fn out_degree_histogram(g: &DiGraph) -> Vec<usize> {
    let mut hist = Vec::new();
    for u in 0..g.node_count() {
        let d = g.out_degree(u);
        if d >= hist.len() {
            hist.resize(d + 1, 0);
        }
        hist[d] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_reciprocal_pair() {
        let g = DiGraph::from_edges(3, [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0)]).unwrap();
        let s = summarize(&g);
        assert_eq!(s.nodes, 3);
        assert_eq!(s.edges, 3);
        assert!((s.density - 3.0 / 6.0).abs() < 1e-12);
        assert!((s.reciprocity - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.sinks, 1); // node 2
        assert_eq!(s.sources, 0); // all have in-edges? node 0 has in from 1; node 1 from 0; node 2 from 1.
        assert_eq!(s.max_out_degree, 2);
    }

    #[test]
    fn self_loop_not_reciprocal() {
        let g = DiGraph::from_edges(2, [(0, 0, 1.0), (0, 1, 1.0)]).unwrap();
        let s = summarize(&g);
        assert_eq!(s.reciprocity, 0.0);
    }

    #[test]
    fn histograms() {
        let g = DiGraph::from_edges(4, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]).unwrap();
        let h = out_degree_histogram(&g);
        assert_eq!(h, vec![2, 1, 1]); // two sinks(2,3), one deg-1(1), one deg-2(0)
    }

    #[test]
    fn empty_graph_summary() {
        let g = DiGraph::from_edges(0, []).unwrap();
        let s = summarize(&g);
        assert_eq!(s.density, 0.0);
        assert_eq!(s.mean_out_degree, 0.0);
        assert_eq!(s.reciprocity, 0.0);
    }
}
