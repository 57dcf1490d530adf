//! Publish: canonical per-category tables and the assembled [`Derived`],
//! memoized in a [`DerivedCache`] by one loop that takes each dirty
//! category's solved values from a cold solve or from the warm buffers.

use std::sync::Arc;

use wot_community::{CategoryId, CommunityStore, ReviewId, UserId};

use super::category::{CategoryState, Solved};
use super::IncrementalDerived;
use crate::assemble::Assembler;
use crate::pipeline::{CategoryReputation, Derived};
use crate::{reputation, DeriveConfig};

/// Local indexes in ascending-[`UserId`] order — the order a
/// [`CategoryReputation`] lists its raters and writers in — kept between
/// table builds so a build is a gather, not a sort.
///
/// Locals are handed out in arrival order and never removed, so the ones
/// this order does not cover yet are exactly `len()..`: an implicit
/// unsorted tail that costs `apply` nothing and that
/// [`cover`](Self::cover) sorts and merges in when the next table is
/// built. An empty order (a fresh cache) is all tail.
#[derive(Debug, Clone, Default)]
struct SortedLocals(Vec<u32>);

impl SortedLocals {
    /// Extends the order over every local of `user_of_local`: sorts the
    /// uncovered tail by user and merges it in, in one linear pass.
    fn cover(&mut self, user_of_local: &[UserId]) {
        let covered = self.0.len();
        if covered == user_of_local.len() {
            return;
        }
        let user = |l: u32| user_of_local[l as usize];
        let mut tail: Vec<u32> = (covered as u32..user_of_local.len() as u32).collect();
        // A user holds one local index per category, so keys are distinct
        // and the merged order is the one a full sort by user would give.
        tail.sort_unstable_by_key(|&l| user(l));
        let head = std::mem::take(&mut self.0);
        let mut merged = Vec::with_capacity(user_of_local.len());
        let (mut h, mut t) = (0, 0);
        while h < head.len() && t < tail.len() {
            if user(head[h]) < user(tail[t]) {
                merged.push(head[h]);
                h += 1;
            } else {
                merged.push(tail[t]);
                t += 1;
            }
        }
        merged.extend_from_slice(&head[h..]);
        merged.extend_from_slice(&tail[t..]);
        self.0 = merged;
    }

    /// `(user, value)` of every local, in ascending user order. The order
    /// must [`cover`](Self::cover) `user_of_local`.
    fn gather(&self, user_of_local: &[UserId], value_of_local: &[f64]) -> Vec<(UserId, f64)> {
        debug_assert_eq!(self.0.len(), user_of_local.len());
        self.0
            .iter()
            .map(|&l| (user_of_local[l as usize], value_of_local[l as usize]))
            .collect()
    }
}

/// One category's [`SortedLocals`], raters and writers.
#[derive(Debug, Clone, Default)]
struct TableOrder {
    raters: SortedLocals,
    writers: SortedLocals,
}

impl TableOrder {
    /// Extends both orders over every local `state` holds.
    fn cover(&mut self, state: &CategoryState) {
        self.raters.cover(&state.rater_of_local);
        self.writers.cover(&state.writer_of_local);
    }
}

/// Where a publish takes each dirty category's solved values from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Source {
    /// A cold solve into fresh buffers: the canonical, batch-equal tables.
    #[default]
    Cold,
    /// The warm buffers the last refresh left.
    Warm,
}

/// Memo state for [`IncrementalDerived::to_derived_cached`] and
/// [`IncrementalDerived::refresh_and_derive_warm`]: everything the last
/// publish computed that the next one can keep.
///
/// * the last per-category tables, keyed by each category's data
///   version;
/// * per category, its raters and writers in ascending-user order, so
///   rebuilding a dirty category's tables gathers instead of sorting;
/// * the last two assembled `E` and `A` (an [`Assembler`]), patched in
///   place: only the columns of re-solved categories and the rows of
///   users whose counts changed are written, and a published `Derived`
///   shares them by pointer.
///
/// Create one with [`DerivedCache::default`] and keep feeding it the same
/// model — a serving daemon holds one alongside its `IncrementalDerived`
/// and republishes snapshots cheaply after sparse write bursts. A cache
/// is **bound to what filled it**: the model's process-unique instance
/// id (drawn at construction and clone) and the publish path, cold or
/// warm. Handed another model — same shape or not — or fed by the other
/// path, it resets itself wholesale, so it starts cold rather than
/// serving another model's versions, orders or `A` rows, or cold tables
/// as warm ones.
///
/// Slots are `Arc`-shared with every [`Derived`] published from this
/// cache: a clean category costs one pointer clone per publish, not a
/// deep copy of its reputation tables.
#[derive(Debug, Clone, Default)]
pub struct DerivedCache {
    /// Instance id of the model the slots belong to (0 = none yet).
    model: u64,
    /// The publish path that filled the slots.
    source: Source,
    /// Data version each slot was solved at (`u64::MAX` = never).
    versions: Vec<u64>,
    /// Per-category output as of `versions`, shared by pointer into
    /// every published [`Derived`].
    per_category: Vec<Arc<CategoryReputation>>,
    /// Per category: the user order its tables are gathered in.
    order: Vec<TableOrder>,
    assembler: Assembler,
}

impl DerivedCache {
    /// Heap bytes of the per-category tables the cache holds, at
    /// capacity (shared with every published [`Derived`]). A window for
    /// memory probes; not part of the API.
    #[doc(hidden)]
    pub fn table_bytes(&self) -> usize {
        let pair = std::mem::size_of::<(UserId, f64)>();
        self.per_category
            .iter()
            .map(|t| {
                (t.rater_reputation.capacity() + t.writer_reputation.capacity()) * pair
                    + t.review_quality.capacity() * std::mem::size_of::<(ReviewId, f64)>()
            })
            .sum()
    }

    /// Binds the cache to `model` and `source`: a cache filled from a
    /// different instance (or none) or by the other path is reset to
    /// never-solved slots.
    fn fit(&mut self, model: &IncrementalDerived, source: Source) {
        let id = model.counts.id();
        if self.model == id && self.source == source {
            return;
        }
        let n = model.categories.len();
        *self = DerivedCache {
            model: id,
            source,
            // Every slot starts at version u64::MAX, which no data
            // version reaches, so each placeholder is overwritten by a
            // real solve before it can be read.
            versions: vec![u64::MAX; n],
            per_category: CategoryReputation::empty_tables(n),
            order: vec![TableOrder::default(); n],
            assembler: Assembler::default(),
        };
    }
}

impl CategoryState {
    /// Assembles one category's [`CategoryReputation`] from a solved
    /// state — the exact shape (and user order) batch
    /// [`pipeline::derive`](crate::pipeline::derive) emits. `order` must
    /// cover every local rater and writer.
    fn category_reputation(
        &self,
        c: usize,
        solved: Solved<'_>,
        order: &TableOrder,
        cfg: &DeriveConfig,
    ) -> CategoryReputation {
        let rater_reputation = order
            .raters
            .gather(&self.rater_of_local, &solved.reputation);
        let writer_values = reputation::writer_reputation_flat(
            &self.review_writer_local,
            self.writer_of_local.len(),
            &solved.quality,
            cfg,
        );
        let writer_reputation = order.writers.gather(&self.writer_of_local, &writer_values);
        let review_quality: Vec<(ReviewId, f64)> = self
            .reviews
            .iter()
            .copied()
            .zip(solved.quality.iter().copied())
            .collect();
        CategoryReputation {
            category: CategoryId::from_index(c),
            rater_reputation,
            writer_reputation,
            review_quality,
            iterations: solved.iterations,
            converged: solved.converged,
        }
    }
}

/// One category of [`pipeline::derive`](crate::pipeline::derive), in one
/// task: the state built in bulk from `store`
/// ([`CategoryState::build`]), its cold solve, and the table a publish
/// would build from them — through a fresh [`TableOrder`], which the
/// bulk build's ascending locals leave nothing to reorder.
pub(crate) fn batch_table(
    store: &CommunityStore,
    category: CategoryId,
    cfg: &DeriveConfig,
) -> CategoryReputation {
    let state = CategoryState::build(store, category, cfg);
    let mut order = TableOrder::default();
    order.cover(&state);
    state.category_reputation(category.index(), state.solve_cold(cfg), &order, cfg)
}

impl IncrementalDerived {
    /// The canonical batch-equal snapshot: cold-solves every category from
    /// the in-place index tables (in parallel, deterministically) and
    /// assembles the same [`Derived`] that
    /// [`pipeline::derive`](crate::pipeline::derive) produces on the
    /// equivalent store — bit-identical expertise, affiliation,
    /// per-category reputations, qualities, sweep counts and convergence
    /// flags.
    ///
    /// This does not consult or disturb the warm online state; it is a
    /// read-only O(total ratings) pass.
    pub fn to_derived(&self) -> Derived {
        // A fresh cache marks every category dirty: the cold path is the
        // cached path with nothing to reuse.
        self.to_derived_cached(&mut DerivedCache::default())
    }

    /// Like [`to_derived`](Self::to_derived), but re-solves **only the
    /// categories whose data changed** since the cache last saw them,
    /// reusing the cached canonical [`CategoryReputation`] for the rest,
    /// and patches only those categories' columns of `E` and the rows of
    /// `A` whose counts changed.
    ///
    /// The result is bit-identical to `to_derived()` *by construction*:
    /// a cached entry was produced by the very same cold solve over the
    /// very same index tables (each category carries a monotone data
    /// version, bumped on every mutation, that keys the cache), and a
    /// cell of `E` or `A` the patch skips is one whose inputs did not
    /// change, so skipping the work cannot change a single bit. This is
    /// what makes frequent snapshot publication affordable for a serving
    /// daemon: after a burst of events touching `k` categories, a new
    /// snapshot costs `k` cold solves instead of *all* of them, and an
    /// assembly proportional to what the burst touched.
    ///
    /// The cache binds itself to this model instance and to the cold
    /// path (see [`DerivedCache`]): fed any other, it starts cold rather
    /// than wrong.
    pub fn to_derived_cached(&self, cache: &mut DerivedCache) -> Derived {
        self.tables_cached(cache);
        cache.assembler.assemble(&self.counts, &cache.per_category)
    }

    /// The first half of [`to_derived_cached`](Self::to_derived_cached):
    /// brings the cache's canonical per-category tables up to date and
    /// returns them, indexed by category, **without assembling `E` or
    /// `A`** — all a shard worker needs, since Eq. 4 spans categories it
    /// does not own.
    pub fn tables_cached<'c>(&self, cache: &'c mut DerivedCache) -> &'c [Arc<CategoryReputation>] {
        self.publish_tables(cache, Source::Cold)
    }

    /// Refreshes every stale category (through whichever path
    /// [`DeriveConfig::delta_refresh`] selects) and assembles a
    /// [`Derived`] from the resulting **warm** state, memoizing each
    /// category's assembly in `cache` under its data version — the delta
    /// writer's publish step: after a sparse batch, only the touched
    /// categories pay a worklist solve plus an O(category) re-assembly,
    /// every clean category rides its cached `Arc`, and `E` / `A` are
    /// patched where the batch touched them.
    ///
    /// Refreshing and assembling in one call is what makes the version
    /// key sound for warm values: a category's warm state only changes
    /// when data arrived (which bumped the version) and a refresh
    /// followed — and here the refresh *always* runs before assembly, so
    /// a cached entry can never capture pre-refresh warm state.
    ///
    /// Unlike [`to_derived_cached`](Self::to_derived_cached) this is
    /// within-tolerance of the canonical snapshot, not bit-identical: the
    /// warm values carry the fixed point's convergence epsilon. A cache
    /// last filled by the cold path starts over (see [`DerivedCache`]).
    pub fn refresh_and_derive_warm(&mut self, cache: &mut DerivedCache) -> Derived {
        self.refresh_all();
        self.publish_tables(cache, Source::Warm);
        cache.assembler.assemble(&self.counts, &cache.per_category)
    }

    /// The one publish loop: finds the categories whose data version the
    /// cache has not seen, extends their table orders, builds their
    /// tables from `source` (fanned out; one dirty category — the
    /// per-event case — runs on the calling thread) and installs them
    /// under the new versions.
    fn publish_tables<'c>(
        &self,
        cache: &'c mut DerivedCache,
        source: Source,
    ) -> &'c [Arc<CategoryReputation>] {
        let (cfg, categories) = (&self.cfg, &self.categories);
        cache.fit(self, source);
        let dirty: Vec<usize> = categories
            .iter()
            .enumerate()
            .filter_map(|(c, s)| (cache.versions[c] != s.data_version).then_some(c))
            .collect();
        for &c in &dirty {
            cache.order[c].cover(&categories[c]);
        }
        let order = &cache.order;
        // Resolving the thread count can read the cgroup CPU quota; the
        // per-event case (one dirty category) needs no workers to ask for.
        let threads = if dirty.len() > 1 {
            cfg.effective_threads()
        } else {
            1
        };
        let built = wot_par::par_map_indexed(dirty.len(), threads, |k| {
            let (c, state) = (dirty[k], &categories[dirty[k]]);
            let solved = match source {
                Source::Cold => state.solve_cold(cfg),
                Source::Warm => state.warm(),
            };
            state.category_reputation(c, solved, &order[c], cfg)
        });
        for (&c, table) in dirty.iter().zip(built) {
            cache.per_category[c] = Arc::new(table);
            cache.versions[c] = categories[c].data_version;
        }
        &cache.per_category
    }
}

#[cfg(test)]
mod tests {
    use wot_sparse::Dense;

    use super::*;
    use crate::incremental::tests::{delta_cfg, sample_store};
    use crate::incremental::ReplayEvent;

    /// The cached snapshot path is bit-identical to the uncached one at
    /// every point of an event stream — including after restores and
    /// mutations that touch only a subset of categories — and actually
    /// skips clean categories.
    #[test]
    fn cached_snapshot_is_bit_identical_and_skips_clean_categories() {
        let store = sample_store();
        let cfg = DeriveConfig::default();
        let log = wot_community::events::event_log(&store);
        let mut inc =
            IncrementalDerived::new(store.num_users(), store.num_categories(), &cfg).unwrap();
        let mut cache = DerivedCache::default();
        // Snapshot after every event: cached == cold every time, with
        // `==` on the full Derived (which compares every f64 bit-level
        // via Dense/Vec equality of identical bits).
        for e in &log {
            inc.apply(&ReplayEvent::from(*e)).unwrap();
            assert_eq!(inc.to_derived_cached(&mut cache), inc.to_derived());
        }
        // A mutation in category 1 only must leave category 0's cache
        // entry untouched (same version ⇒ same slot, no re-solve).
        let v0_before = cache.versions[0];
        inc.add_review(
            UserId(0),
            ReviewId(store.num_reviews() as u32),
            CategoryId(1),
        )
        .unwrap();
        let d = inc.to_derived_cached(&mut cache);
        assert_eq!(cache.versions[0], v0_before, "clean category re-solved");
        assert_eq!(d, inc.to_derived());
        // An idle republish re-solves nothing and still agrees.
        let versions = cache.versions.clone();
        assert_eq!(inc.to_derived_cached(&mut cache), inc.to_derived());
        assert_eq!(cache.versions, versions);
        // A differently-shaped model resets the cache instead of serving
        // stale slots.
        let other = IncrementalDerived::new(3, 5, &cfg).unwrap();
        let d = other.to_derived_cached(&mut cache);
        assert_eq!(d, other.to_derived());
        assert_eq!(cache.versions.len(), 5);
    }

    /// One cache fed both publish paths serves each its own tables: the
    /// cold tables of `tables_cached` are not handed out as warm ones,
    /// though no data version moved in between, and the cold path then
    /// gets canonical tables back.
    #[test]
    fn a_cache_switched_between_paths_serves_each_its_own_tables() {
        let store = wot_synth::generate(&wot_synth::SynthConfig::tiny(7))
            .unwrap()
            .store;
        let cfg = DeriveConfig::default();
        let mut inc = IncrementalDerived::from_store(&store, &cfg).unwrap();
        // One revision and a warm refresh: the warm state now sits off
        // the cold solve, and took fewer sweeps to get there.
        let rt = store.ratings().iter().next().unwrap();
        assert!(inc.upsert_rating(rt.rater, rt.review, 0.1).unwrap());
        inc.refresh_all();
        let mut cache = DerivedCache::default();
        let cold = inc.tables_cached(&mut cache).to_vec();
        let warm = inc.refresh_and_derive_warm(&mut cache);
        let fresh = inc.refresh_and_derive_warm(&mut DerivedCache::default());
        assert_eq!(warm.per_category, fresh.per_category);
        assert_ne!(
            warm.per_category, cold,
            "the warm state equals the cold one"
        );
        assert_eq!(inc.tables_cached(&mut cache), &cold[..]);
        assert_eq!(inc.to_derived_cached(&mut cache), inc.to_derived());
    }

    /// Publish work tracks the dirty set, on both publish paths: one new
    /// rating recomputes one row of `A`, patches only its category's
    /// column of `E` by diff and re-sorts nothing; an idle publish writes
    /// nothing at all. The cached matrices are poisoned before each
    /// publish, so every cell that still reads NaN afterwards was
    /// provably left alone — in the dirty column, exactly the writers
    /// whose value kept its bits.
    #[test]
    fn publish_work_tracks_the_dirty_set() {
        let store = wot_synth::generate(&wot_synth::SynthConfig::laptop(11))
            .unwrap()
            .store;
        let review = store.reviews()[0];
        let cat = review.category.index();
        let all_nan = |m: &Dense| m.as_slice().iter().all(|v| v.is_nan());
        let poison = |cache: &mut DerivedCache| {
            for (e, a) in cache.assembler.matrices_mut() {
                e.as_mut_slice().fill(f64::NAN);
                a.as_mut_slice().fill(f64::NAN);
            }
        };
        type Publish = fn(&mut IncrementalDerived, &mut DerivedCache) -> Derived;
        let paths: [(DeriveConfig, Publish); 2] = [
            (DeriveConfig::default(), |m, c| m.to_derived_cached(c)),
            (delta_cfg(0.5), |m, c| m.refresh_and_derive_warm(c)),
        ];
        for (cfg, publish) in paths {
            let mut inc = IncrementalDerived::from_store(&store, &cfg).unwrap();
            let mut cache = DerivedCache::default();
            let d0 = publish(&mut inc, &mut cache);
            // A user new to the category, so the rater order grows a tail.
            let rater = (0..store.num_users())
                .map(UserId::from_index)
                .find(|&u| {
                    u != review.writer && inc.categories[cat].rater_slot[u.index()] == u32::MAX
                })
                .expect("someone has not rated in this category yet");
            inc.add_rating(rater, review.id, 0.8).unwrap();
            let state = &inc.categories[cat];
            assert_eq!(
                cache.order[cat].raters.0.len() + 1,
                state.rater_of_local.len()
            );
            poison(&mut cache);
            let d1 = publish(&mut inc, &mut cache);
            let state = &inc.categories[cat];
            let (fresh_e, fresh_a) = (inc.expertise(), inc.affiliation());
            let value = |d: &Derived, i: usize| {
                let table = &d.per_category[cat].writer_reputation;
                let at = table.binary_search_by_key(&UserId::from_index(i), |&(u, _)| u);
                at.ok().map(|k| table[k].1)
            };
            let mut kept = 0;
            for i in 0..store.num_users() {
                if i == rater.index() {
                    assert_eq!(d1.affiliation.row(i), fresh_a.row(i));
                } else {
                    assert!(
                        d1.affiliation.row(i).iter().all(|v| v.is_nan()),
                        "A row {i}"
                    );
                }
                for c in 0..store.num_categories() {
                    let v = d1.expertise.get(i, c);
                    if c != cat {
                        assert!(v.is_nan(), "E[{i},{c}] written");
                        continue;
                    }
                    // The diff contract: a cell stays NaN iff its new value
                    // has the bits of the one it replaces; every other
                    // cell is the new table's, and a dropped user reads 0.
                    match (value(&d0, i), value(&d1, i)) {
                        (Some(x), Some(y)) if x.to_bits() == y.to_bits() => {
                            assert!(v.is_nan(), "E[{i},{c}] rewritten unchanged");
                            kept += 1;
                        }
                        (_, Some(y)) => assert_eq!(v.to_bits(), y.to_bits(), "E[{i},{c}]"),
                        (Some(_), None) => assert_eq!(v, 0.0, "E[{i},{c}] dropped"),
                        (None, None) => assert!(v.is_nan(), "E[{i},{c}] written"),
                    }
                    assert_eq!(value(&d1, i).is_some(), state.writer_slot[i] != u32::MAX);
                    // Warm E is the live accessor's; cold E is checked
                    // against the batch oracle elsewhere.
                    if cfg.delta_refresh && !v.is_nan() {
                        assert_eq!(v, fresh_e.get(i, c));
                    }
                }
            }
            // Writers whose reviews the rating did not reach keep their
            // bits (here about a quarter, on either path).
            assert!(kept > 0, "no writer kept its bits");
            for c in 0..store.num_categories() {
                assert_eq!(
                    Arc::ptr_eq(&d0.per_category[c], &d1.per_category[c]),
                    c != cat,
                    "category {c}"
                );
            }
            // The tail was merged in, and the gather order is the order a
            // fresh sort by user gives.
            for (order, user_of_local) in [
                (&cache.order[cat].raters, &state.rater_of_local),
                (&cache.order[cat].writers, &state.writer_of_local),
            ] {
                let mut sorted: Vec<u32> = (0..user_of_local.len() as u32).collect();
                sorted.sort_by_key(|&l| user_of_local[l as usize]);
                assert_eq!(order.0, sorted);
            }
            // Nothing dirty: zero rows recomputed, zero tables installed.
            // The assembler's other slot last published before the rating,
            // so one publish catches it up; after that neither slot has
            // anything to write.
            publish(&mut inc, &mut cache);
            poison(&mut cache);
            for _ in 0..2 {
                let d2 = publish(&mut inc, &mut cache);
                assert!(all_nan(&d2.expertise) && all_nan(&d2.affiliation));
                for (x, y) in d1.per_category.iter().zip(&d2.per_category) {
                    assert!(Arc::ptr_eq(x, y));
                }
            }
            // Every publish kept its own values while the slots moved on.
            assert!(!all_nan(&d1.expertise) && !all_nan(&d1.affiliation));
            assert!(d0.expertise.as_slice().iter().all(|v| !v.is_nan()));
        }
    }
}
