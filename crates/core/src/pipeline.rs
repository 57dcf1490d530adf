//! End-to-end driver: community in, expertise/affiliation/trust out.
//!
//! Categories are independent units of work (the paper computes every
//! Step-1 quantity per category), so [`derive()`] fans them out across
//! worker threads ([`DeriveConfig::threads`]), with dynamic
//! scheduling to absorb the heavy skew of real category sizes. Results
//! are assembled in category order and each category's fixed point is
//! self-contained, so the parallel output is **bit-identical** to the
//! sequential one — a property the workspace's determinism tests assert
//! with `==` on `f64`, not approximate comparison.

use std::sync::Arc;

use wot_community::{CategoryId, CommunityStore, ReviewId, UserId};
use wot_sparse::{Csr, Dense};

use crate::affiliation::{self, ActivityLedger};
use crate::{incremental, trust, Assembler, DeriveConfig, Result};

/// Step-1 outputs for one category, in deterministic (ascending user id)
/// order — the raw material of the paper's Tables 2 and 3.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoryReputation {
    /// The category.
    pub category: CategoryId,
    /// Rater reputations `ū^r` of every rater active in the category.
    pub rater_reputation: Vec<(UserId, f64)>,
    /// Writer reputations `ū^w` of every writer active in the category.
    pub writer_reputation: Vec<(UserId, f64)>,
    /// Converged review qualities `r̄`.
    pub review_quality: Vec<(ReviewId, f64)>,
    /// Fixed-point sweeps executed.
    pub iterations: usize,
    /// Whether the fixed point met tolerance before the iteration cap.
    pub converged: bool,
}

impl CategoryReputation {
    /// The tables of a category nothing has happened in yet.
    pub fn empty(category: CategoryId) -> Self {
        Self {
            category,
            rater_reputation: Vec::new(),
            writer_reputation: Vec::new(),
            review_quality: Vec::new(),
            iterations: 0,
            converged: true,
        }
    }

    /// One [`empty`](Self::empty) table per category — what a publisher
    /// holds before any solve.
    pub fn empty_tables(num_categories: usize) -> Vec<Arc<Self>> {
        (0..num_categories)
            .map(|c| Arc::new(Self::empty(CategoryId::from_index(c))))
            .collect()
    }
}

/// The derived model: everything Steps 1–2 produce, with Step 3 exposed as
/// methods (pairwise, masked, dense, and support-count forms).
#[derive(Debug, Clone, PartialEq)]
pub struct Derived {
    /// Users×Category expertise matrix `E` (Eq. 3 per category).
    pub expertise: Dense,
    /// Users×Category affiliation matrix `A` (Eq. 4).
    pub affiliation: Dense,
    /// Per-category reputations and qualities. `Arc`-shared so a serving
    /// daemon's per-publish snapshot can reuse every untouched category's
    /// tables by pointer instead of deep-cloning them (equality still
    /// compares the pointed-to values, so bit-identity assertions are
    /// unaffected).
    pub per_category: Vec<Arc<CategoryReputation>>,
}

/// Runs Steps 1 and 2 on the whole community: per category, the Eq. 1 ⇄
/// Eq. 2 quality/reputation fixed point and the Eq. 3 writer aggregation
/// assemble the expertise matrix `E`; Eq. 4's activity normalization
/// assembles the affiliation matrix `A`. Step 3 (Eq. 5,
/// `T̂_ij = Σ_c A_ic·E_jc / Σ_c A_ic`) is exposed as methods on the
/// returned [`Derived`].
///
/// Each category is one task on [`DeriveConfig::effective_threads`]
/// workers: the online model's per-category state, built in bulk from
/// the store, solved cold and turned into its table — the same state,
/// solve and table code [`IncrementalDerived::to_derived`] runs, so the
/// two agree bit for bit. `E` and `A` come from one [`Assembler`] pass
/// over the tables and the store's activity counts. The output does not
/// depend on the thread count.
///
/// [`IncrementalDerived::to_derived`]: crate::IncrementalDerived::to_derived
pub fn derive(store: &CommunityStore, cfg: &DeriveConfig) -> Result<Derived> {
    cfg.validate()?;
    // Category sizes are heavily skewed, so use dynamic scheduling: a
    // worker that drew the giant category must not serialize the rest.
    let tables: Vec<Arc<CategoryReputation>> =
        wot_par::par_map_indexed(store.num_categories(), cfg.effective_threads(), |c| {
            Arc::new(incremental::batch_table(
                store,
                CategoryId::from_index(c),
                cfg,
            ))
        });
    let counts = ActivityLedger::from_counts(affiliation::activity_counts(store));
    Ok(Assembler::default().assemble(&counts, &tables))
}

impl Derived {
    /// Number of users (rows of `E`/`A`).
    pub fn num_users(&self) -> usize {
        self.expertise.nrows()
    }

    /// Number of categories (columns of `E`/`A`).
    pub fn num_categories(&self) -> usize {
        self.expertise.ncols()
    }

    /// Eq. 5 for one ordered pair.
    pub fn pairwise_trust(&self, i: UserId, j: UserId) -> f64 {
        trust::pairwise(&self.affiliation, &self.expertise, i.index(), j.index())
    }

    /// Eq. 5 on a sparse candidate pattern, bit-identical to
    /// [`Self::pairwise_trust`] on every stored entry.
    pub fn trust_on_mask(&self, mask: &Csr) -> Result<Csr> {
        trust::derive_masked(&self.affiliation, &self.expertise, mask, 0)
    }

    /// Eq. 5 as a full dense U×U matrix (small communities only: refused
    /// with [`CoreError`](crate::CoreError)`::Capacity` beyond
    /// [`trust::dense_budget_bytes`] — stream [`Self::trust_blocks`]
    /// instead).
    pub fn trust_dense(&self) -> Result<Dense> {
        trust::derive_dense(&self.affiliation, &self.expertise, 0)
    }

    /// Streaming row-block iterator over the full `T̂` (Eq. 5) in
    /// O(block) memory — the paper-scale alternative to
    /// [`Self::trust_dense`].
    pub fn trust_blocks(&self, cfg: &crate::BlockConfig) -> Result<crate::TrustBlocks<'_>> {
        crate::TrustBlocks::dense(&self.affiliation, &self.expertise, cfg)
    }

    /// Fused row scan of the full `T̂`: every row is handed to a visitor
    /// on the worker that computed it and never stored — what
    /// [`Self::trust_fig3`] runs on.
    pub fn trust_rows(&self, cfg: &crate::BlockConfig) -> Result<crate::TrustRows<'_>> {
        crate::TrustRows::new(&self.affiliation, &self.expertise, cfg)
    }

    /// Every user's `k` most-trusted peers, by the bound-ordered scan
    /// that skips the cells which cannot enter a list
    /// ([`TrustRows::top_k`](crate::TrustRows::top_k)).
    pub fn trust_top_k(&self, k: usize, cfg: &crate::BlockConfig) -> Result<crate::TopK> {
        crate::TrustRows::top_k(&self.affiliation, &self.expertise, k, cfg)
    }

    /// The Fig. 3 aggregates of the full `T̂`, reduced row by row inside
    /// the fused scan ([`Self::trust_rows`]) in O(users) memory.
    pub fn trust_fig3(&self, cfg: &crate::BlockConfig) -> Result<crate::Fig3Aggregates> {
        crate::trust_rows::fig3_aggregates(self, cfg)
    }

    /// Non-zero count of the full `T̂` without materializing it (Fig. 3).
    pub fn trust_support_count(&self) -> Result<u64> {
        trust::support_count(&self.affiliation, &self.expertise, 0)
    }
}

#[cfg(test)]
mod tests {
    use wot_community::{CommunityBuilder, RatingScale};

    use super::*;

    /// Cross-category fixture: u0 rates movie reviews; u1 writes them;
    /// u2 writes book reviews that u0 also rates (less).
    fn fixture() -> CommunityStore {
        let mut b = CommunityBuilder::new(RatingScale::five_step());
        let u0 = b.add_user("rater");
        let u1 = b.add_user("movie-writer");
        let u2 = b.add_user("book-writer");
        let movies = b.add_category("movies");
        let books = b.add_category("books");
        for k in 0..3 {
            let o = b.add_object(format!("m{k}"), movies).unwrap();
            let r = b.add_review(u1, o).unwrap();
            b.add_rating(u0, r, 0.8).unwrap();
        }
        let o = b.add_object("b0", books).unwrap();
        let r = b.add_review(u2, o).unwrap();
        b.add_rating(u0, r, 0.4).unwrap();
        b.build()
    }

    #[test]
    fn derive_produces_consistent_shapes() {
        let store = fixture();
        let d = derive(&store, &DeriveConfig::default()).unwrap();
        assert_eq!(d.num_users(), 3);
        assert_eq!(d.num_categories(), 2);
        assert_eq!(d.per_category.len(), 2);
        assert!(d.per_category.iter().all(|c| c.converged));
        // u1 has expertise only in movies; u2 only in books.
        assert!(d.expertise.get(1, 0) > 0.0);
        assert_eq!(d.expertise.get(1, 1), 0.0);
        assert!(d.expertise.get(2, 1) > 0.0);
    }

    #[test]
    fn affinity_weighted_trust_prefers_matching_expert() {
        let store = fixture();
        let d = derive(&store, &DeriveConfig::default()).unwrap();
        // u0's affinity is 3:1 movies:books, u1's movie expertise beats
        // u2's book expertise after weighting.
        let t01 = d.pairwise_trust(UserId(0), UserId(1));
        let t02 = d.pairwise_trust(UserId(0), UserId(2));
        assert!(t01 > t02, "t01={t01} t02={t02}");
        assert!(t01 > 0.0 && t01 <= 1.0);
    }

    #[test]
    fn trust_matrix_forms_agree() {
        let store = fixture();
        let d = derive(&store, &DeriveConfig::default()).unwrap();
        let dense = d.trust_dense().unwrap();
        let mask = Csr::from_triplets(3, 3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]).unwrap();
        let masked = d.trust_on_mask(&mask).unwrap();
        for (i, j, v) in masked.iter() {
            assert_eq!(v.to_bits(), dense.get(i, j).to_bits(), "({i},{j})");
        }
        let brute = dense.as_slice().iter().filter(|&&v| v > 0.0).count() as u64;
        assert_eq!(d.trust_support_count().unwrap(), brute);
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let store = fixture();
        let sequential =
            derive(&store, &DeriveConfig::builder().threads(1).build().unwrap()).unwrap();
        for threads in [0usize, 2, 7] {
            let parallel = derive(
                &store,
                &DeriveConfig::builder().threads(threads).build().unwrap(),
            )
            .unwrap();
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }

    #[test]
    fn baseline_matches_index_dense_pipeline() {
        let store = fixture();
        let cfg = DeriveConfig::default();
        let dense = derive(&store, &cfg).unwrap();
        let baseline = crate::oracle::derive_baseline(&store, &cfg).unwrap();
        assert_eq!(dense, baseline);
    }

    #[test]
    fn invalid_config_rejected() {
        let store = fixture();
        let cfg = DeriveConfig {
            fixpoint_max_iters: 0,
            ..DeriveConfig::default()
        };
        assert!(derive(&store, &cfg).is_err());
    }

    #[test]
    fn empty_store_derives_empty_model() {
        let store = CommunityBuilder::new(RatingScale::five_step()).build();
        let d = derive(&store, &DeriveConfig::default()).unwrap();
        assert_eq!(d.num_users(), 0);
        assert_eq!(d.per_category.len(), 0);
        assert_eq!(d.trust_support_count().unwrap(), 0);
    }
}
