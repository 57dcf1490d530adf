//! Patched assembly of `E` and `A` — what a publish costs is what the
//! batch since the last publish dirtied, not users × categories.
//!
//! One rating moves one category's Step-1 fixed point (one **column** of
//! `E`, Eq. 3) and one user's Eq. 4 normalisation (one **row** of `A`).
//! An [`Assembler`] therefore keeps the matrices it last assembled and
//! brings them up to date in place:
//!
//! * `A`: the [`ActivityLedger`] stamps a user's row whenever one of their
//!   counts changes; only rows stamped since the last assembly are
//!   recomputed ([`ActivityLedger::patch`]).
//! * `E`: a column always holds exactly the table it was last written
//!   from (its writers' values, zero elsewhere), so a column whose table
//!   was replaced (a different `Arc`) is **patched by diff**: a merge-walk
//!   of both tables, ascending by user, writes new writers and changed
//!   bits and zeroes dropped writers — a coordinator rollback or
//!   rebalance swaps tables wholesale, so a column may shrink.
//!
//! The first assembly is the same code with everything dirty: matrices of
//! zeros, every active user's row stamped, every column's old table
//! empty — which is how [`pipeline::derive`](crate::pipeline::derive)
//! assembles a whole community. There is no second, from-scratch path to
//! keep in agreement; the from-scratch builders (`affiliation_matrix`,
//! `expertise_matrix_from_pairs`) stay as the independent oracle the
//! tests compare against.
//!
//! ## Two slots, and no copy on publish
//!
//! A published [`Derived`] must never change, yet the assembler keeps
//! patching. The matrices are copy-on-write [`Dense`] values, so a publish
//! hands out pointer copies, and a patch that finds its buffer still
//! shared copies it before the first write. To keep that copy off the
//! common path the assembler keeps **two slots** and alternates: publish
//! `N + 1` patches the slot last published at `N − 1` — the columns whose
//! table changed since that slot's publish and the rows stamped since —
//! while snapshot `N` stays current and untouched. Once every reader has
//! let go of snapshot `N − 1`, that slot's buffers are unshared and the
//! patch writes in place; a reader still pinning it costs one copy, as
//! every publish did before, and nothing is ever written under a reader.
//! The two slots replace the old cached copy plus its published copy, so
//! no more matrices are alive than before.

use std::sync::Arc;

use wot_community::UserId;
use wot_sparse::Dense;

use crate::affiliation::ActivityLedger;
use crate::pipeline::{CategoryReputation, Derived};

/// One assembled `E` and `A`, and what they were assembled from.
#[derive(Debug, Clone, Default)]
struct Slot {
    /// Id of the ledger the matrices belong to (0 = none yet).
    ledger: u64,
    expertise: Dense,
    affiliation: Dense,
    /// The ledger's clock as of the last `A` patch.
    rows_seen: u64,
    /// Per category: the table column `c` of `E` currently holds.
    installed: Vec<Arc<CategoryReputation>>,
}

impl Slot {
    /// Everything dirty: zeros, no row seen, every column's table empty.
    fn fresh(counts: &ActivityLedger) -> Self {
        let (users, categories) = counts.shape();
        Slot {
            ledger: counts.id(),
            expertise: Dense::zeros(users, categories),
            affiliation: Dense::zeros(users, categories),
            rows_seen: 0,
            installed: CategoryReputation::empty_tables(categories),
        }
    }

    /// Patches every column whose table was replaced by diff, and
    /// recomputes every row stamped since the last patch. A clean matrix
    /// is not taken for writing, so a shared one is not copied.
    fn patch(&mut self, counts: &ActivityLedger, tables: &[Arc<CategoryReputation>]) {
        let stride = tables.len();
        for (c, (held, table)) in self.installed.iter_mut().zip(tables).enumerate() {
            if Arc::ptr_eq(held, table) {
                continue;
            }
            // Once per replaced column, not per cell (see `Dense`).
            let e = self.expertise.as_mut_slice();
            let (old, new) = (&held.writer_reputation, &table.writer_reputation);
            debug_assert!(new.windows(2).all(|w| w[0].0 < w[1].0), "table not by user");
            // Merge-walk by user; past its end a table reads user MAX.
            let user = |p: Option<&(UserId, f64)>| p.map_or(usize::MAX, |p| p.0.index());
            let (mut h, mut t) = (0, 0);
            while h < old.len() || t < new.len() {
                let (u, v) = (user(old.get(h)), user(new.get(t)));
                if u < v {
                    e[u * stride + c] = 0.0;
                } else if u > v || old[h].1.to_bits() != new[t].1.to_bits() {
                    e[v * stride + c] = new[t].1;
                }
                h += usize::from(u <= v);
                t += usize::from(u >= v);
            }
            *held = Arc::clone(table);
        }
        self.rows_seen = counts.patch(&mut self.affiliation, self.rows_seen);
    }
}

/// The last two assembled `E` and `A`, and what each was assembled from.
/// Used by [`IncrementalDerived`](crate::IncrementalDerived)'s publishes
/// (inside its [`DerivedCache`](crate::DerivedCache)) and by the cluster
/// coordinator, which feeds it the tables its workers solved.
///
/// Each [`assemble`](Self::assemble) patches the slot the publish before
/// last used and returns pointer copies of its matrices; see the module
/// docs for why two slots, and what a reader still pinning an old
/// snapshot costs.
///
/// Bound to one [`ActivityLedger`] by the ledger's id: handed a different
/// ledger — another model, a clone, a restored image — it starts over
/// from zeros instead of serving the previous community's rows.
#[derive(Debug, Clone, Default)]
pub struct Assembler {
    slots: [Slot; 2],
    /// The slot the next assembly patches.
    next: usize,
}

impl Assembler {
    /// Brings `E` up to date with `tables` (one per category, compared by
    /// pointer with what each column was last written from) and `A` with
    /// `counts`, and returns the assembled model — bit-identical to
    /// building both matrices from scratch. Copies no matrix unless a
    /// reader still holds the one this slot published last.
    ///
    /// # Panics
    /// If `tables` does not hold one table per category of `counts`.
    pub fn assemble(
        &mut self,
        counts: &ActivityLedger,
        tables: &[Arc<CategoryReputation>],
    ) -> Derived {
        assert_eq!(tables.len(), counts.shape().1, "one table per category");
        let k = self.next;
        self.next ^= 1;
        if self.slots[k].ledger != counts.id() {
            // A slot bound to another ledger starts from its twin when
            // the twin already holds this ledger (a pointer copy, written
            // apart on the first patch), and from zeros otherwise.
            let twin = &self.slots[k ^ 1];
            self.slots[k] = if twin.ledger == counts.id() {
                twin.clone()
            } else {
                Slot::fresh(counts)
            };
        }
        let slot = &mut self.slots[k];
        slot.patch(counts, tables);
        Derived {
            expertise: slot.expertise.clone(),
            affiliation: slot.affiliation.clone(),
            per_category: tables.to_vec(),
        }
    }

    /// Test hook: both slots' `(E, A)`, writable, so a test can poison
    /// them and see which cells an assembly leaves alone.
    #[cfg(test)]
    pub(crate) fn matrices_mut(&mut self) -> impl Iterator<Item = (&mut Dense, &mut Dense)> {
        self.slots
            .iter_mut()
            .map(|s| (&mut s.expertise, &mut s.affiliation))
    }
}

#[cfg(test)]
mod tests {
    use wot_community::{CategoryId, UserId};

    use super::*;
    use crate::expertise::expertise_matrix_from_pairs;

    fn table(c: usize, writers: &[(u32, f64)]) -> Arc<CategoryReputation> {
        Arc::new(CategoryReputation {
            writer_reputation: writers.iter().map(|&(u, v)| (UserId(u), v)).collect(),
            ..CategoryReputation::empty(CategoryId::from_index(c))
        })
    }

    fn poison(asm: &mut Assembler) {
        for (e, a) in asm.matrices_mut() {
            e.as_mut_slice().fill(f64::NAN);
            a.as_mut_slice().fill(f64::NAN);
        }
    }

    fn fresh(counts: &ActivityLedger, tables: &[Arc<CategoryReputation>]) -> Derived {
        let pairs: Vec<&[(UserId, f64)]> = tables
            .iter()
            .map(|t| t.writer_reputation.as_slice())
            .collect();
        Derived {
            expertise: expertise_matrix_from_pairs(counts.shape().0, &pairs),
            affiliation: counts.affiliation(),
            per_category: tables.to_vec(),
        }
    }

    /// Holds column `c` of a poisoned-then-assembled `d` to the diff
    /// contract against the table `old` it replaced: a cell stays NaN iff
    /// its new value has the old one's bits; every other cell of a
    /// writer is the new table's; a dropped user reads 0; a user in
    /// neither table is not written.
    fn assert_diff_patched(d: &Derived, c: usize, old: &CategoryReputation) {
        let value = |t: &CategoryReputation, i: usize| {
            let at = t
                .writer_reputation
                .iter()
                .position(|&(u, _)| u.index() == i);
            at.map(|k| t.writer_reputation[k].1)
        };
        for i in 0..d.expertise.nrows() {
            let v = d.expertise.get(i, c);
            match (value(old, i), value(&d.per_category[c], i)) {
                (Some(x), Some(y)) if x.to_bits() == y.to_bits() => {
                    assert!(v.is_nan(), "E[{i},{c}] rewritten unchanged")
                }
                (_, Some(y)) => assert_eq!(v.to_bits(), y.to_bits(), "E[{i},{c}]"),
                (Some(_), None) => assert_eq!(v.to_bits(), 0f64.to_bits(), "E[{i},{c}] dropped"),
                (None, None) => assert!(v.is_nan(), "E[{i},{c}] written"),
            }
        }
    }

    /// Only replaced tables' columns and stamped users' rows are written.
    #[test]
    fn assembly_touches_only_what_changed() {
        let mut counts = ActivityLedger::new(3, 2);
        counts.bump_ratings(0, 0, 1.0);
        counts.bump_reviews(1, 1, 1.0);
        let mut tables = vec![table(0, &[(1, 0.5)]), table(1, &[(1, 0.25), (2, 0.75)])];
        let mut asm = Assembler::default();
        let first = asm.assemble(&counts, &tables);
        // Nothing changed: nothing is written. (The second slot starts
        // from the first, so the poison reaches it too.)
        poison(&mut asm);
        let idle = asm.assemble(&counts, &tables);
        assert!(idle.expertise.as_slice().iter().all(|v| v.is_nan()));
        assert!(idle.affiliation.as_slice().iter().all(|v| v.is_nan()));
        // …and the first publish kept its values: the poison was written
        // apart from it.
        assert_eq!(first, fresh(&counts, &tables));
        // User 2 rates in category 1 and category 1's table is replaced:
        // row 2 of A, and column 1 of E at the old and new writers.
        counts.bump_ratings(2, 1, 1.0);
        let old = std::mem::replace(&mut tables[1], table(1, &[(1, 0.3), (2, 0.8)]));
        let d = asm.assemble(&counts, &tables);
        let good = fresh(&counts, &tables);
        assert_diff_patched(&d, 1, &old);
        for i in 0..3 {
            assert!(d.expertise.get(i, 0).is_nan(), "E[{i},0] written");
            for c in 0..2 {
                let a = d.affiliation.get(i, c);
                if i == 2 {
                    assert_eq!(a, good.affiliation.get(i, c));
                } else {
                    assert!(a.is_nan(), "A[{i},{c}] recomputed");
                }
            }
        }
    }

    /// A swapped-in table is patched by diff: it may drop writers (the
    /// column shrinks to zeros there), keep a writer's bits (the cell is
    /// not written), change a value or add a writer. An assembler that
    /// is never poisoned builds what the from-scratch builders build.
    #[test]
    fn a_swapped_in_table_is_patched_by_diff() {
        let mut counts = ActivityLedger::new(4, 1);
        counts.bump_reviews(1, 0, 1.0);
        let steps = [
            table(0, &[(0, 0.1), (1, 0.25), (3, 0.75)]),
            // Fewer writers: 0 and 1 dropped, 3 bit-equal.
            table(0, &[(3, 0.75)]),
            // 2 new, 3 changed.
            table(0, &[(2, 0.5), (3, 0.8)]),
            // Same values in a new `Arc`: nothing to write.
            table(0, &[(2, 0.5), (3, 0.8)]),
        ];
        let (mut asm, mut clean) = (Assembler::default(), Assembler::default());
        let mut tables = vec![steps[0].clone()];
        for _ in 0..2 {
            asm.assemble(&counts, &tables);
            clean.assemble(&counts, &tables);
        }
        for step in &steps[1..] {
            let old = std::mem::replace(&mut tables[0], step.clone());
            poison(&mut asm);
            let d = asm.assemble(&counts, &tables);
            assert_diff_patched(&d, 0, &old);
            assert!(d.affiliation.as_slice().iter().all(|v| v.is_nan()));
            // The other slot catches up on the next publish.
            asm.assemble(&counts, &tables);
            assert_eq!(clean.assemble(&counts, &tables), fresh(&counts, &tables));
        }
    }

    /// A different ledger — even of the same shape — resets the
    /// assembler instead of patching the previous community's matrices.
    #[test]
    fn a_different_ledger_starts_over() {
        let mut first = ActivityLedger::new(2, 1);
        first.bump_ratings(0, 0, 1.0);
        let first_tables = vec![table(0, &[(1, 0.5)])];
        let mut asm = Assembler::default();
        asm.assemble(&first, &first_tables);
        let second = ActivityLedger::new(2, 1);
        let second_tables = vec![table(0, &[])];
        assert_eq!(
            asm.assemble(&second, &second_tables),
            fresh(&second, &second_tables)
        );
        let twin = first.clone();
        assert_eq!(
            asm.assemble(&twin, &first_tables),
            fresh(&twin, &first_tables)
        );
    }
}
