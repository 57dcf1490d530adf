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
//! * `E`: the assembler remembers which table each column was written
//!   from. A column whose table was replaced (a different `Arc`) is
//!   **cleared, then written**: first the old table's writers go back to
//!   zero, then the new table's are set — so a column may shrink, which
//!   is what a coordinator rollback or rebalance does when it swaps a
//!   category's tables wholesale.
//!
//! The first assembly is the same code with everything dirty: matrices of
//! zeros, every active user's row stamped, every column's old table
//! empty. There is no second, from-scratch path to keep in agreement —
//! the batch pipeline's `affiliation_matrix` / `expertise_matrix_from_pairs`
//! stay as the independent oracle the conformance suites compare against.
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

    /// Clear-then-write every column whose table was replaced, and
    /// recompute every row stamped since the last patch. A clean matrix
    /// is not taken for writing, so a shared one is not copied.
    fn patch(&mut self, counts: &ActivityLedger, tables: &[Arc<CategoryReputation>]) {
        let stride = tables.len();
        for (c, (held, table)) in self.installed.iter_mut().zip(tables).enumerate() {
            if Arc::ptr_eq(held, table) {
                continue;
            }
            // Once per replaced column, not per cell (see `Dense`).
            let e = self.expertise.as_mut_slice();
            for &(u, _) in &held.writer_reputation {
                e[u.index() * stride + c] = 0.0;
            }
            for &(u, rep) in &table.writer_reputation {
                e[u.index() * stride + c] = rep;
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
        tables[1] = table(1, &[(1, 0.3), (2, 0.8)]);
        let d = asm.assemble(&counts, &tables);
        let good = fresh(&counts, &tables);
        for i in 0..3 {
            for c in 0..2 {
                let (e, a) = (d.expertise.get(i, c), d.affiliation.get(i, c));
                if c == 1 && i != 0 {
                    assert_eq!(e, good.expertise.get(i, c));
                } else {
                    assert!(e.is_nan(), "E[{i},{c}] written");
                }
                if i == 2 {
                    assert_eq!(a, good.affiliation.get(i, c));
                } else {
                    assert!(a.is_nan(), "A[{i},{c}] recomputed");
                }
            }
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
