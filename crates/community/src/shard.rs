//! Shard vocabulary — category ownership and sequence-tagged logs.
//!
//! The paper's derivation is embarrassingly parallel *per category*
//! (Section III.A computes every Step-1 quantity category-locally), so
//! the unit of distribution is a **shard owning a set of categories**:
//! all of a category's reviews and ratings are routed to exactly one
//! shard. This module is the routing vocabulary the multi-process
//! cluster (`wot-serve`'s coordinator and the `wot-shardd` workers)
//! shares — it holds no data itself:
//!
//! * [`ShardId`] and [`ShardAssignment`] — the total map category →
//!   shard a coordinator routes by and edits on a live rebalance.
//! * **Sequence-tagged shard logs** — each shard's events carry their
//!   position in the global history, and [`merge_shard_logs`] merges
//!   them back into that exact interleaving, failing closed on logs
//!   that cannot be cuts of one history. That is what lets a sharded
//!   deployment be replayed or audited without any cross-shard
//!   coordination beyond the tag order.

use crate::{CategoryId, CommunityError, Result, StoreEvent};

/// Stable identifier of one shard. Dense (`0..num_shards`), assigned by
/// the [`ShardAssignment`]; survives re-partitioning only if the
/// assignment does, so treat it as scoped to its assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u32);

impl ShardId {
    /// The shard id as a vector index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a shard id from a vector index.
    pub fn from_index(i: usize) -> Self {
        ShardId(u32::try_from(i).expect("shard index fits in u32"))
    }
}

impl std::fmt::Display for ShardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard{}", self.0)
    }
}

/// A total map category → shard. Every category is owned by exactly one
/// shard; shards may own any number of categories (including none).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAssignment {
    shard_of_category: Vec<ShardId>,
    num_shards: usize,
}

impl ShardAssignment {
    /// Categories dealt round-robin over `num_shards` shards
    /// (`num_shards` is clamped to at least 1).
    pub fn round_robin(num_categories: usize, num_shards: usize) -> Self {
        let num_shards = num_shards.max(1);
        Self {
            shard_of_category: (0..num_categories)
                .map(|c| ShardId::from_index(c % num_shards))
                .collect(),
            num_shards,
        }
    }

    /// The shard owning `category`.
    pub fn shard_of(&self, category: CategoryId) -> Result<ShardId> {
        self.shard_of_category
            .get(category.index())
            .copied()
            .ok_or(CommunityError::UnknownEntity {
                kind: "category",
                id: category.0,
            })
    }

    /// Number of shards (including empty ones).
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Number of categories covered.
    pub fn num_categories(&self) -> usize {
        self.shard_of_category.len()
    }

    /// Hands `category` over to `to` — the assignment-level half of a
    /// live rebalance. The move is **total-map preserving**: every
    /// category still has exactly one owner afterwards, so routing by
    /// [`shard_of`](Self::shard_of) stays well-defined at every point of
    /// the cut-over. Returns the previous owner. The target shard id may
    /// address an existing shard only (growing the cluster is a
    /// deployment action, not an assignment edit).
    pub fn reassign(&mut self, category: CategoryId, to: ShardId) -> Result<ShardId> {
        if to.index() >= self.num_shards {
            return Err(CommunityError::UnknownEntity {
                kind: "shard",
                id: to.0,
            });
        }
        let slot = self.shard_of_category.get_mut(category.index()).ok_or(
            CommunityError::UnknownEntity {
                kind: "category",
                id: category.0,
            },
        )?;
        let from = *slot;
        *slot = to;
        Ok(from)
    }

    /// The categories a shard owns, ascending — what a coordinator tells
    /// a (re)starting worker to replay from its log.
    pub fn categories_of(&self, shard: ShardId) -> Vec<CategoryId> {
        self.shard_of_category
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == shard)
            .map(|(c, _)| CategoryId::from_index(c))
            .collect()
    }
}

/// Merges shard-local event logs (such as the workers' tagged logs read
/// back by `wot-wal`) into one global log, ordered by the global
/// sequence tags. The merge is deterministic regardless of
/// how the logs are listed, and it **fails closed** on logs that cannot
/// be cuts of one history: tags must be strictly ascending within each
/// input log ([`CommunityError::NonMonotonicSequence`]) and disjoint
/// across logs ([`CommunityError::DuplicateSequence`]). Empty logs — and
/// an empty set of logs — merge to an empty history.
///
/// Shard logs read back from disk may be corrupt, and a corrupt
/// interleaving must surface as a typed `Err`, never as a silently wrong
/// merge order.
pub fn merge_shard_logs(logs: &[Vec<(u64, StoreEvent)>]) -> Result<Vec<StoreEvent>> {
    for (shard, log) in logs.iter().enumerate() {
        for w in log.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(CommunityError::NonMonotonicSequence {
                    shard,
                    prev: w[0].0,
                    seq: w[1].0,
                });
            }
        }
    }
    let mut merged: Vec<(u64, StoreEvent)> = logs.iter().flatten().copied().collect();
    merged.sort_unstable_by_key(|&(seq, _)| seq);
    for w in merged.windows(2) {
        if w[0].0 == w[1].0 {
            return Err(CommunityError::DuplicateSequence { seq: w[0].0 });
        }
    }
    Ok(merged.into_iter().map(|(_, e)| e).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ReviewId, UserId};

    #[test]
    fn assignment_shapes() {
        let a = ShardAssignment::round_robin(5, 2);
        assert_eq!(a.num_shards(), 2);
        assert_eq!(a.num_categories(), 5);
        assert_eq!(a.shard_of(CategoryId(4)).unwrap(), ShardId(0));
        assert!(a.shard_of(CategoryId(9)).is_err());
        assert_eq!(ShardAssignment::round_robin(4, 0).num_shards(), 1);
    }

    #[test]
    fn merge_edge_cases() {
        let ev = |id: u32| StoreEvent::Review {
            writer: UserId(0),
            review: ReviewId(id),
            category: CategoryId(0),
        };
        // No logs at all, and logs that are all empty, merge to nothing.
        assert_eq!(merge_shard_logs(&[]).unwrap(), Vec::<StoreEvent>::new());
        assert_eq!(
            merge_shard_logs(&[Vec::new(), Vec::new()]).unwrap(),
            Vec::<StoreEvent>::new()
        );
        // A single shard's log passes through in tag order.
        let single = vec![vec![(0, ev(0)), (3, ev(1)), (9, ev(2))]];
        assert_eq!(
            merge_shard_logs(&single).unwrap(),
            vec![ev(0), ev(1), ev(2)]
        );
        // Empty logs interleaved with a populated one are fine.
        let with_empties = vec![Vec::new(), vec![(1, ev(0))], Vec::new()];
        assert_eq!(merge_shard_logs(&with_empties).unwrap(), vec![ev(0)]);
        // Tags out of order within one log: corrupt, typed error.
        let non_monotonic = vec![vec![(5, ev(0)), (5, ev(1))]];
        assert_eq!(
            merge_shard_logs(&non_monotonic).unwrap_err(),
            CommunityError::NonMonotonicSequence {
                shard: 0,
                prev: 5,
                seq: 5
            }
        );
        let descending = vec![Vec::new(), vec![(8, ev(0)), (2, ev(1))]];
        assert!(matches!(
            merge_shard_logs(&descending).unwrap_err(),
            CommunityError::NonMonotonicSequence { shard: 1, .. }
        ));
        // The same tag in two shards: the interleaving is ambiguous, so
        // the merge must error rather than pick an order.
        let colliding = vec![vec![(0, ev(0)), (4, ev(1))], vec![(4, ev(2))]];
        assert_eq!(
            merge_shard_logs(&colliding).unwrap_err(),
            CommunityError::DuplicateSequence { seq: 4 }
        );
    }
}
