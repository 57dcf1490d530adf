//! Breadth-first traversal and weak components over [`DiGraph`].

use std::collections::VecDeque;

use crate::DiGraph;

/// Hop distance from `source` to every node along forward edges, `None` for
/// unreachable nodes. `max_depth` bounds the search (inclusive); `None`
/// searches exhaustively.
pub fn bfs_depths(g: &DiGraph, source: usize, max_depth: Option<usize>) -> Vec<Option<usize>> {
    let mut depths = vec![None; g.node_count()];
    if source >= g.node_count() {
        return depths;
    }
    depths[source] = Some(0);
    let mut queue = VecDeque::new();
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = depths[u].expect("queued nodes have depths");
        if let Some(limit) = max_depth {
            if du >= limit {
                continue;
            }
        }
        let (ns, _) = g.out_neighbors(u);
        for &v in ns {
            let v = v as usize;
            if depths[v].is_none() {
                depths[v] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    depths
}

/// Nodes reachable from `source` (including itself) along forward edges.
pub fn reachable_from(g: &DiGraph, source: usize) -> Vec<usize> {
    bfs_depths(g, source, None)
        .iter()
        .enumerate()
        .filter_map(|(i, d)| d.map(|_| i))
        .collect()
}

/// Weakly connected components: treats every edge as undirected and returns
/// a component id per node (ids are dense, 0-based, in order of discovery).
pub fn weak_components(g: &DiGraph) -> Vec<usize> {
    let n = g.node_count();
    let mut comp = vec![usize::MAX; n];
    let mut next = 0usize;
    let mut queue = VecDeque::new();
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        comp[start] = next;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            let (outs, _) = g.out_neighbors(u);
            let (ins, _) = g.in_neighbors(u);
            for &v in outs.iter().chain(ins) {
                let v = v as usize;
                if comp[v] == usize::MAX {
                    comp[v] = next;
                    queue.push_back(v);
                }
            }
        }
        next += 1;
    }
    comp
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_and_island() -> DiGraph {
        // 0 -> 1 -> 2 -> 3 ; 4 isolated ; 5 -> 4
        DiGraph::from_edges(6, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (5, 4, 1.0)]).unwrap()
    }

    #[test]
    fn bfs_depths_linear_chain() {
        let g = chain_and_island();
        let d = bfs_depths(&g, 0, None);
        assert_eq!(d[0], Some(0));
        assert_eq!(d[3], Some(3));
        assert_eq!(d[4], None);
    }

    #[test]
    fn bfs_depth_limit() {
        let g = chain_and_island();
        let d = bfs_depths(&g, 0, Some(2));
        assert_eq!(d[2], Some(2));
        assert_eq!(d[3], None);
    }

    #[test]
    fn bfs_out_of_range_source() {
        let g = chain_and_island();
        assert!(bfs_depths(&g, 99, None).iter().all(|d| d.is_none()));
    }

    #[test]
    fn reachable_set() {
        let g = chain_and_island();
        assert_eq!(reachable_from(&g, 1), vec![1, 2, 3]);
        assert_eq!(reachable_from(&g, 4), vec![4]);
    }

    #[test]
    fn weak_components_split() {
        let g = chain_and_island();
        let c = weak_components(&g);
        assert_eq!(c[0], c[3]);
        assert_eq!(c[4], c[5]);
        assert_ne!(c[0], c[4]);
    }
}
