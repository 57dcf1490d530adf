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

use std::sync::Arc;

use wot_sparse::Dense;

use crate::affiliation::ActivityLedger;
use crate::pipeline::{CategoryReputation, Derived};

/// The last assembled `E` and `A`, and what they were assembled from.
/// Used by [`IncrementalDerived`](crate::IncrementalDerived)'s publishes
/// (inside its [`DerivedCache`](crate::DerivedCache)) and by the cluster
/// coordinator, which feeds it the tables its workers solved.
///
/// Bound to one [`ActivityLedger`] by the ledger's id: handed a different
/// ledger — another model, a clone, a restored image — it starts over
/// from zeros instead of serving the previous community's rows.
#[derive(Debug, Clone, Default)]
pub struct Assembler {
    /// Id of the ledger the matrices belong to (0 = none yet).
    ledger: u64,
    expertise: Dense,
    affiliation: Dense,
    /// The ledger's clock as of the last `A` patch.
    rows_seen: u64,
    /// Per category: the table column `c` of `E` currently holds.
    installed: Vec<Arc<CategoryReputation>>,
}

impl Assembler {
    /// Brings `E` up to date with `tables` (one per category, compared by
    /// pointer with what each column was last written from) and `A` with
    /// `counts`, and returns the assembled model — bit-identical to
    /// building both matrices from scratch.
    ///
    /// # Panics
    /// If `tables` does not hold one table per category of `counts`.
    pub fn assemble(
        &mut self,
        counts: &ActivityLedger,
        tables: &[Arc<CategoryReputation>],
    ) -> Derived {
        let (users, categories) = counts.shape();
        assert_eq!(tables.len(), categories, "one table per category");
        if self.ledger != counts.id() {
            *self = Assembler {
                ledger: counts.id(),
                expertise: Dense::zeros(users, categories),
                affiliation: Dense::zeros(users, categories),
                rows_seen: 0,
                installed: CategoryReputation::empty_tables(categories),
            };
        }
        for (c, (held, table)) in self.installed.iter_mut().zip(tables).enumerate() {
            if Arc::ptr_eq(held, table) {
                continue;
            }
            for &(u, _) in &held.writer_reputation {
                self.expertise.set(u.index(), c, 0.0);
            }
            for &(u, rep) in &table.writer_reputation {
                self.expertise.set(u.index(), c, rep);
            }
            *held = Arc::clone(table);
        }
        self.rows_seen = counts.patch(&mut self.affiliation, self.rows_seen);
        Derived {
            expertise: self.expertise.clone(),
            affiliation: self.affiliation.clone(),
            per_category: tables.to_vec(),
        }
    }

    /// Test hook: the cached `(E, A)`, writable, so a test can poison them
    /// and see which cells an assembly leaves alone.
    #[cfg(test)]
    pub(crate) fn matrices_mut(&mut self) -> (&mut Dense, &mut Dense) {
        (&mut self.expertise, &mut self.affiliation)
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
        asm.assemble(&counts, &tables);
        // Nothing changed: nothing is written.
        let (e, a) = asm.matrices_mut();
        e.as_mut_slice().fill(f64::NAN);
        a.as_mut_slice().fill(f64::NAN);
        let idle = asm.assemble(&counts, &tables);
        assert!(idle.expertise.as_slice().iter().all(|v| v.is_nan()));
        assert!(idle.affiliation.as_slice().iter().all(|v| v.is_nan()));
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
