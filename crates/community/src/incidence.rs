//! Arena-backed grouped incidence — the one storage layout of the
//! Eq. 1 ⇄ Eq. 2 fixed point.
//!
//! A category's ratings are a bipartite graph (raters × reviews) that the
//! fixed point walks in both directions: Eq. 1 needs each review's
//! `(rater, value)` list, Eq. 2 each rater's `(review, value)` list. An
//! [`Incidence`] holds **one direction** of that graph in two parallel
//! buffers (`u32` neighbour index, `f64` value — 12 bytes per edge) plus
//! one packed `{off, len, cap}` record per node, so a dense sweep reads
//! contiguous memory and a worklist visit costs one record load instead of
//! a pointer chase into a per-node `Vec`.
//!
//! The same type serves both ways `wot-core` fills a category: the batch
//! pipeline's bulk build, **exact** — every node's capacity is its final
//! degree, no slack, no dead space: one direction collected from its
//! grouped lists (`FromIterator`), the other its
//! [`transposed`](Incidence::transposed) count → prefix sum → scatter —
//! and the growing online model (`IncrementalDerived`, which appends and
//! inserts in place), so there is no flatten step between "the data as
//! maintained" and "the data as solved".
//!
//! ## Growth, relocation, compaction
//!
//! A node owns the slot range `off..off + cap` of both buffers; its edges
//! are the first `len` slots, the rest is slack. [`push`](Incidence::push)
//! and [`insert`](Incidence::insert) write into the slack. A node whose
//! slack is exhausted **relocates**: its edges are copied to the buffer
//! tail with `len + len/2 + 2` slots of capacity and the old range is
//! abandoned as dead space. When dead space exceeds a third of the buffer
//! the arena **compacts**: both buffers are rewritten in node order with
//! `len + len/8 + 2` slots per node, which a caller may also ask for
//! ([`compact`](Incidence::compact): the serving engine re-packs its
//! model at open). Neither operation reorders a node's edges, so the
//! per-node summation order of the sweeps — and with it every output
//! bit — is independent of the physical layout.
//!
//! Together the two rules bound the footprint: every node's capacity is
//! at most `len + len/2 + 2` and dead space at most a third of the buffer,
//! so the buffers never exceed
//! `3/2 · (3/2 · edges + 2 · nodes)` slots ([`Incidence::slot_bound`]).

/// One node's slot range in the arena's buffers. Packed into one 12-byte
/// record so an insert touches one cache line of bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
struct Node {
    off: u32,
    len: u32,
    cap: u32,
}

/// Narrows a buffer position to the node record's `u32`, refusing to
/// wrap: an arena addresses at most `u32::MAX` slots.
fn narrow(n: usize) -> u32 {
    u32::try_from(n).expect("incidence arena addresses at most u32::MAX slots")
}

/// Capacity of a node relocated at `len` edges.
fn grown(len: u32) -> u32 {
    len.checked_add(len / 2 + 2)
        .expect("incidence node capacity overflows u32")
}

/// Capacity of a node holding `len` edges after a compaction.
fn settled(len: u32) -> u32 {
    len.checked_add(len / 8 + 2)
        .expect("incidence node capacity overflows u32")
}

/// One direction of a bipartite `(index, value)` incidence: per node, a
/// list of `(u32 neighbour, f64 value)` edges in a caller-controlled
/// order, stored in one arena. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct Incidence {
    nodes: Vec<Node>,
    /// Neighbour index per slot.
    index: Vec<u32>,
    /// Edge value per slot (parallel to `index`).
    value: Vec<f64>,
    /// Edges held (`Σ len`).
    edges: usize,
    /// Slots no node owns (ranges abandoned by relocations).
    dead: usize,
}

impl Incidence {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// An arena of `degrees.len()` empty nodes laid out exactly: node `i`
    /// owns `degrees[i]` slots, in node order. Filling every node to its
    /// degree with [`push`](Self::push) never relocates.
    fn with_degrees(degrees: &[u32]) -> Self {
        let mut nodes = Vec::with_capacity(degrees.len());
        let mut off = 0u32;
        for &cap in degrees {
            nodes.push(Node { off, len: 0, cap });
            off = off
                .checked_add(cap)
                .expect("incidence arena addresses at most u32::MAX slots");
        }
        Self {
            nodes,
            index: vec![0; off as usize],
            value: vec![0.0; off as usize],
            edges: 0,
            dead: 0,
        }
    }

    /// The same edges grouped the other way, built exactly: node `k` of
    /// the result (of `num_nodes` nodes) lists `(i, value)` for every edge
    /// `(k, value)` of this arena's node `i`, in ascending `i`.
    ///
    /// # Panics
    /// Panics if a neighbour index is `>= num_nodes`.
    pub fn transposed(&self, num_nodes: usize) -> Self {
        let mut degrees = vec![0u32; num_nodes];
        for (index, _) in self.iter() {
            for &k in index {
                degrees[k as usize] += 1;
            }
        }
        let mut out = Self::with_degrees(&degrees);
        for (i, (index, value)) in self.iter().enumerate() {
            let i = narrow(i);
            for (&k, &v) in index.iter().zip(value) {
                out.push(k as usize, i, v);
            }
        }
        out
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total edges held, over all nodes. O(1).
    pub fn num_edges(&self) -> usize {
        self.edges
    }

    /// Slots the buffers currently span: edges, slack and dead space.
    /// Never exceeds [`slot_bound`](Self::slot_bound).
    pub fn num_slots(&self) -> usize {
        self.index.len()
    }

    /// Slots abandoned by relocations, until the next compaction.
    pub fn dead_slots(&self) -> usize {
        self.dead
    }

    /// Heap bytes the arena holds: its node records and both slot
    /// buffers, at capacity.
    pub fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.index.capacity() * std::mem::size_of::<u32>()
            + self.value.capacity() * std::mem::size_of::<f64>()
    }

    /// The footprint bound the growth and compaction rules guarantee,
    /// in slots (12 bytes each): `3/2 · (3/2 · edges + 2 · nodes)`.
    pub fn slot_bound(&self) -> usize {
        let caps = self.edges + self.edges / 2 + 2 * self.nodes.len();
        caps + caps / 2
    }

    /// Appends an empty node.
    pub fn push_node(&mut self) {
        self.nodes.push(Node {
            off: narrow(self.index.len()),
            len: 0,
            cap: 0,
        });
    }

    /// Number of edges of node `i`.
    #[inline]
    pub fn degree(&self, i: usize) -> usize {
        self.nodes[i].len as usize
    }

    /// Node `i`'s edges as parallel `(neighbour indexes, values)` slices,
    /// in stored order.
    #[inline]
    pub fn node(&self, i: usize) -> (&[u32], &[f64]) {
        self.slices(self.nodes[i])
    }

    #[inline]
    fn slices(&self, node: Node) -> (&[u32], &[f64]) {
        let lo = node.off as usize;
        let hi = lo + node.len as usize;
        (&self.index[lo..hi], &self.value[lo..hi])
    }

    /// Every node's `(neighbour indexes, values)` slices, in node order —
    /// what a dense sweep zips its per-node state with.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&[u32], &[f64])> + '_ {
        self.nodes.iter().map(|&node| self.slices(node))
    }

    /// Node `i`'s edges as `(neighbour, value)` pairs, in stored order.
    pub fn pairs(&self, i: usize) -> impl ExactSizeIterator<Item = (u32, f64)> + '_ {
        let (index, value) = self.node(i);
        index.iter().copied().zip(value.iter().copied())
    }

    /// Appends an edge at the end of node `i`.
    #[inline]
    pub fn push(&mut self, i: usize, index: u32, value: f64) {
        let slot = self.grow(i);
        self.index[slot] = index;
        self.value[slot] = value;
    }

    /// Inserts an edge at position `at` of node `i`, shifting the node's
    /// later edges up by one.
    ///
    /// # Panics
    /// Panics if `at > degree(i)`.
    #[inline]
    pub fn insert(&mut self, i: usize, at: usize, index: u32, value: f64) {
        let len = self.nodes[i].len as usize;
        assert!(at <= len, "insert past a node's end");
        let end = self.grow(i);
        let slot = end - (len - at);
        if slot < end {
            self.index.copy_within(slot..end, slot + 1);
            self.value.copy_within(slot..end, slot + 1);
        }
        self.index[slot] = index;
        self.value[slot] = value;
    }

    /// Lengthens node `i` by one edge — relocating it first if it has no
    /// slack left — and returns the buffer slot of the new last edge.
    #[inline]
    fn grow(&mut self, i: usize) -> usize {
        if self.nodes[i].len == self.nodes[i].cap {
            self.relocate(i);
        }
        let node = &mut self.nodes[i];
        let slot = (node.off + node.len) as usize;
        node.len += 1;
        self.edges += 1;
        slot
    }

    /// Overwrites the value of node `i`'s edge at position `at`.
    pub fn set_value(&mut self, i: usize, at: usize, value: f64) {
        let node = self.nodes[i];
        assert!(at < node.len as usize, "edge position out of range");
        self.value[node.off as usize + at] = value;
    }

    /// Moves full node `i` to the buffer tail with room to grow, then
    /// compacts if that left more than a third of the buffer dead.
    #[cold]
    fn relocate(&mut self, i: usize) {
        let Node { off, len, cap } = self.nodes[i];
        let (lo, hi) = (off as usize, (off + len) as usize);
        let tail = self.index.len();
        let new_cap = grown(len);
        // Refuse before growing: the new range must stay addressable.
        let end = narrow(tail + new_cap as usize) as usize;
        self.index.extend_from_within(lo..hi);
        self.value.extend_from_within(lo..hi);
        self.index.resize(end, 0);
        self.value.resize(end, 0.0);
        self.nodes[i] = Node {
            off: narrow(tail),
            len,
            cap: new_cap,
        };
        self.dead += cap as usize;
        if self.dead * 3 > self.index.len() {
            self.compact();
        }
    }

    /// Rewrites both buffers in node order, each node with its settled
    /// slack; drops all dead space. Every node keeps its edge order.
    pub fn compact(&mut self) {
        let total: usize = self.nodes.iter().map(|n| settled(n.len) as usize).sum();
        // Every offset below is under `total`, so one check covers them.
        let total = narrow(total) as usize;
        let mut index = Vec::with_capacity(total);
        let mut value = Vec::with_capacity(total);
        for node in &mut self.nodes {
            let lo = node.off as usize;
            let hi = lo + node.len as usize;
            node.off = narrow(index.len());
            node.cap = settled(node.len);
            index.extend_from_slice(&self.index[lo..hi]);
            value.extend_from_slice(&self.value[lo..hi]);
            let end = (node.off + node.cap) as usize;
            index.resize(end, 0);
            value.resize(end, 0.0);
        }
        self.index = index;
        self.value = value;
        self.dead = 0;
    }
}

/// Builds an arena **exactly** from its grouped form: one item per node,
/// in node order, each the node's `(neighbour, value)` edges in their
/// final order.
impl<L: IntoIterator<Item = (u32, f64)>> FromIterator<L> for Incidence {
    fn from_iter<I: IntoIterator<Item = L>>(lists: I) -> Self {
        let mut arena = Self::new();
        for list in lists {
            let off = narrow(arena.index.len());
            for (index, value) in list {
                arena.index.push(index);
                arena.value.push(value);
            }
            let len = narrow(arena.index.len()) - off;
            arena.nodes.push(Node { off, len, cap: len });
        }
        arena.edges = arena.index.len();
        arena
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grouped(arena: &Incidence) -> Vec<Vec<(u32, f64)>> {
        (0..arena.num_nodes())
            .map(|i| arena.pairs(i).collect())
            .collect()
    }

    #[test]
    fn exact_builds_have_no_slack() {
        let lists = vec![
            vec![(1, 0.4), (2, 0.8)],
            vec![],
            vec![(0, 0.2), (2, 0.6), (3, 1.0)],
        ];
        let arena: Incidence = lists.iter().map(|l| l.iter().copied()).collect();
        assert_eq!((arena.num_nodes(), arena.num_edges()), (3, 5));
        assert_eq!(arena.num_slots(), 5);
        assert_eq!(grouped(&arena), lists);
        assert_eq!(arena.degree(1), 0);
        assert_eq!(arena.node(1), (&[][..], &[][..]));
        // The other direction: per neighbour, its nodes ascending.
        let other = arena.transposed(4);
        assert_eq!((other.num_edges(), other.num_slots()), (5, 5));
        assert_eq!(
            grouped(&other),
            vec![
                vec![(2, 0.2)],
                vec![(0, 0.4)],
                vec![(0, 0.8), (2, 0.6)],
                vec![(2, 1.0)]
            ]
        );
    }

    #[test]
    fn full_nodes_relocate_and_dead_space_compacts() {
        let mut arena: Incidence = [[(10, 0.1)], [(20, 0.2)]].into_iter().collect();
        // Node 0 is full: the next edge moves it to the tail (cap 1+0+2)
        // and leaves one dead slot — 1 of 5, under the trigger.
        arena.push(0, 11, 0.3);
        assert_eq!(arena.num_slots(), 5);
        // Node 1 follows: 2 dead of 8 — still under a third.
        arena.insert(1, 0, 19, 0.4);
        assert_eq!(arena.num_slots(), 8);
        // Fill node 0's slack, then overflow it again: 5 dead of 14
        // trips the trigger and the buffers are rewritten in node order.
        arena.push(0, 12, 0.5);
        arena.insert(0, 1, 13, 0.6);
        assert_eq!(arena.num_slots(), settled(3) as usize + settled(2) as usize);
        assert_eq!(
            grouped(&arena),
            vec![
                vec![(10, 0.1), (13, 0.6), (11, 0.3), (12, 0.5)],
                vec![(19, 0.4), (20, 0.2)]
            ]
        );
        arena.set_value(0, 2, 0.9);
        assert_eq!(arena.node(0).1, &[0.1, 0.6, 0.9, 0.5]);
        assert!(arena.num_slots() <= arena.slot_bound());
        // Node 1 outgrows its settled slack and leaves its range dead; an
        // explicit compaction drops it and keeps every node's order.
        for k in 0..3 {
            arena.push(1, 30 + k, 0.1);
        }
        assert_eq!(arena.dead_slots(), settled(2) as usize);
        let before = grouped(&arena);
        arena.compact();
        assert_eq!(arena.dead_slots(), 0);
        assert_eq!(arena.num_slots(), (settled(4) + settled(5)) as usize);
        assert_eq!(grouped(&arena), before);
    }

    #[test]
    fn new_nodes_start_empty_at_the_tail() {
        let mut arena = Incidence::new();
        arena.push_node();
        arena.push_node();
        arena.push(1, 5, 0.5);
        arena.push(0, 6, 0.6);
        assert_eq!(grouped(&arena), vec![vec![(6, 0.6)], vec![(5, 0.5)]]);
        assert_eq!(arena.iter().len(), 2);
    }
}
