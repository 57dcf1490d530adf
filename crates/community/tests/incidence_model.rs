//! Model-based property test of the [`Incidence`] arena: whatever
//! interleaving of new nodes, appends, inserts and value revisions it
//! sees — and however many relocations and compactions that forces — every
//! node reads back exactly as a plain `Vec<Vec<(u32, f64)>>` model of the
//! same operations, and the buffers stay inside the documented bound.

use proptest::prelude::*;
use wot_community::Incidence;

/// `(kind, node selector, position selector, neighbour, value step)`.
type Op = (u8, u32, u32, u32, u8);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u8..16, any::<u32>(), any::<u32>(), 0u32..1000, 0u8..5),
        600..1500,
    )
}

fn assert_matches_model(arena: &Incidence, model: &[Vec<(u32, f64)>], step: usize) {
    assert_eq!(arena.num_nodes(), model.len(), "step {step}: node count");
    assert_eq!(
        arena.num_edges(),
        model.iter().map(Vec::len).sum::<usize>(),
        "step {step}: edge count"
    );
    assert_eq!(arena.iter().len(), model.len());
    for (i, (expected, (index, value))) in model.iter().zip(arena.iter()).enumerate() {
        assert_eq!(arena.degree(i), expected.len(), "step {step}: node {i}");
        assert!(
            arena.pairs(i).eq(expected.iter().copied()),
            "step {step}: node {i} reads {:?}, model holds {expected:?}",
            arena.pairs(i).collect::<Vec<_>>()
        );
        // `iter` and `node` are the same slices `pairs` zips.
        assert_eq!((index, value), arena.node(i), "step {step}: node {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arena_matches_a_vec_of_vecs_through_relocations_and_compactions(ops in ops()) {
        let mut arena = Incidence::new();
        let mut model: Vec<Vec<(u32, f64)>> = Vec::new();
        let mut compactions = 0usize;
        let mut relocations = 0usize;
        for (step, &(kind, node_sel, pos_sel, neighbour, level)) in ops.iter().enumerate() {
            let value = f64::from(level + 1) * 0.2;
            let slots_before = arena.num_slots();
            if kind == 0 || model.is_empty() {
                arena.push_node();
                model.push(Vec::new());
            } else {
                // Skewed towards low node ids, so a few nodes grow long
                // (many relocations) while most stay short.
                let n = model.len();
                let i = (node_sel as usize % n).min((node_sel >> 16) as usize % n);
                let len = model[i].len();
                match kind {
                    1..=6 => {
                        arena.push(i, neighbour, value);
                        model[i].push((neighbour, value));
                    }
                    7..=12 => {
                        let at = match kind {
                            7 | 8 => 0,
                            9 | 10 => pos_sel as usize % (len + 1),
                            _ => len,
                        };
                        arena.insert(i, at, neighbour, value);
                        model[i].insert(at, (neighbour, value));
                    }
                    _ if len > 0 => {
                        let at = pos_sel as usize % len;
                        arena.set_value(i, at, value);
                        model[i][at].1 = value;
                    }
                    _ => {}
                }
            }
            // Slots only ever shrink in a compaction and only ever grow
            // in a relocation.
            compactions += usize::from(arena.num_slots() < slots_before);
            relocations += usize::from(arena.num_slots() > slots_before);
            assert_matches_model(&arena, &model, step);
            // The RSS guard: 3/2 · (3/2 · edges + 2 · nodes) slots.
            prop_assert!(
                arena.num_slots() <= arena.slot_bound(),
                "step {}: {} slots for {} edges in {} nodes exceeds the bound {}",
                step,
                arena.num_slots(),
                arena.num_edges(),
                arena.num_nodes(),
                arena.slot_bound()
            );
        }
        prop_assert!(relocations >= 20, "only {} relocations", relocations);
        prop_assert!(compactions >= 3, "only {} compactions", compactions);

        // An exact build from the grouped model equals the appended
        // arena node for node, with no slack and no dead space — and so
        // does the other direction's exact build, transposed back.
        let exact: Incidence = model.iter().map(|node| node.iter().copied()).collect();
        prop_assert_eq!(exact.num_slots(), exact.num_edges());
        assert_matches_model(&exact, &model, ops.len());
        // Transposing sorts a node's edges by neighbour, so compare the
        // round trip against a model whose nodes are stably sorted too.
        let other = exact.transposed(1000);
        prop_assert_eq!(other.num_slots(), exact.num_edges());
        let mut sorted = model.clone();
        for node in &mut sorted {
            node.sort_by_key(|&(neighbour, _)| neighbour);
        }
        assert_matches_model(&other.transposed(model.len()), &sorted, ops.len());
        for i in 0..model.len() {
            prop_assert_eq!(exact.node(i), arena.node(i));
        }
    }
}
