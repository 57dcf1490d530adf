//! # wot-core — deriving a web of trust without explicit trust ratings
//!
//! Implementation of Kim, Le, Lauw, Lim, Liu & Srivastava, *"Building a Web
//! of Trust without Explicit Trust Ratings"*, ICDE Workshops 2008. The
//! framework turns a review community's **rating data** into a dense,
//! continuous **derived trust matrix** `T̂`, with no explicit trust input:
//!
//! 1. **Step 1 — expertise** ([`riggs`], [`reputation`], [`expertise`]):
//!    per category, compute review quality as the rater-reputation-weighted
//!    mean of received ratings (Eq. 1), rater reputation as consensus
//!    consistency with an experience discount (Eq. 2, Riggs' model), and
//!    writer reputation as discounted mean review quality (Eq. 3). Quality
//!    and rater reputation form a fixed point solved by iteration. Writer
//!    reputations per category assemble the **Users×Category expertise
//!    matrix `E`**.
//! 2. **Step 2 — affiliation** ([`affiliation`]): per user, the
//!    max-normalized average of rating and writing activity per category
//!    (Eq. 4) assembles the **Users×Category affiliation matrix `A`**.
//! 3. **Step 3 — derived trust** ([`trust`]):
//!    `T̂_ij = Σ_c A_ic·E_jc / Σ_c A_ic` (Eq. 5), evaluated pairwise, on a
//!    sparse candidate pattern, or densely for small communities.
//!
//! For evaluation, [`binarize`] implements the paper's per-user
//! top-`k_i%` conversion of continuous scores to binary trust decisions
//! (with `k_i` = the user's observed trust generosity), and [`metrics`]
//! computes the Table-4 validation triple (recall, precision in `R`, the
//! rate of predicting non-trust as trust in `R−T`) and the §IV.C value
//! analysis. The paper's baseline `B` (mean rating given) comes from
//! [`wot_community::CommunityStore::baseline_matrix`].
//!
//! ## Complexity and parallelism
//!
//! The pipeline is engineered for Epinions scale (~44k users, 100k+
//! reviews) and beyond:
//!
//! * **Index-dense hot paths.** Every per-category computation runs over
//!   one per-category state with *local indexes*: raters, writers and
//!   reviews are renumbered `0..n`, so the Eq. 1/Eq. 2 Jacobi sweeps
//!   (`riggs`) and the Eq. 3 aggregation (`reputation`) operate on flat
//!   `Vec<f64>` buffers and contiguous incidence arrays — no `HashMap`
//!   lookups inside the fixed point. One sweep costs O(ratings in the
//!   category). [`pipeline::derive`] builds that state in bulk, in
//!   O(reviews + ratings) via O(1) scatter tables; the online model
//!   ([`incremental`]) grows the same type by events. A `HashMap`
//!   formulation of Eqs. 1–3 over the store's own lists stays out of the
//!   documented API as a test oracle (`oracle`), which the property tests
//!   prove [`pipeline::derive`] bit-identical to.
//! * **Data parallelism.** Categories are independent, so
//!   [`pipeline::derive`] fans them out across worker threads
//!   ([`DeriveConfig::threads`]) with dynamic
//!   scheduling (category sizes are heavily skewed). The Eq. 5 kernels
//!   are row-parallel and take their thread count as an argument:
//!   [`trust::derive_masked`] splits the mask by non-zero count,
//!   [`trust::derive_dense`] by row blocks, and
//!   [`trust::support_count`] reduces integer partials.
//! * **Determinism.** Parallel output is **bit-identical** to sequential
//!   output for every kernel and any thread count — Jacobi sweeps are
//!   order-independent, every worker writes a disjoint output range from
//!   read-only input, and reductions are exactly associative. The
//!   workspace's determinism tests assert this with `==` on `f64`.
//! * **Blocked / streaming Eq. 5.** The full `T̂` is quadratic in users
//!   (~15.6 GB at the paper's 44,197), so [`trust_blocks::TrustBlocks`]
//!   streams it as row-blocks computed straight from `A`/`E` in O(block)
//!   memory, with [`trust::derive_dense`] a thin collector over the same
//!   iterator (bit-identical for any block height and thread count).
//!   Values on a sparse pattern — Table 4's region `R` — come from
//!   [`trust::derive_masked`], which computes each stored entry with
//!   [`trust::pairwise`]'s operations. [`trust::derive_dense`] refuses
//!   over-budget materializations with [`CoreError::Capacity`] instead
//!   of aborting the allocator. A consumer that only reduces `T̂` stores
//!   no block at all: [`trust_rows::TrustRows`] hands each row to a
//!   visitor on the worker that computed it, and dense blocks are filled
//!   by the same row kernel ([`trust_rows::ExpertisePanel`]). The
//!   all-users top-k ([`TrustRows::top_k`]) does not even compute most
//!   cells: it visits the writers in descending order of `max_c E_jc`,
//!   an upper bound on every `T̂_ij`, and leaves a row once that bound
//!   is below the row's k-th best. The Fig. 3 aggregates
//!   ([`Derived::trust_fig3`]) are a row visitor of the same scan.
//! * **Streaming ingestion.** [`incremental::IncrementalDerived`] ingests review and
//!   rating events online on the *same* index-dense layout, warm-starts
//!   per-category refreshes through the same `riggs` sweep loop, and its
//!   [`replay`](incremental::IncrementalDerived::replay) /
//!   [`to_derived`](incremental::IncrementalDerived::to_derived) snapshot
//!   is bit-identical to [`pipeline::derive`] over the folded store — the
//!   workspace's replay-conformance suite proves it on randomized causal
//!   event streams at several thread counts. The module splits along its
//!   seams: the API and event entry points (every one admitting under
//!   the model's own [`admission::IdRule`]), per-category index
//!   maintenance, the delta worklist, and the publish loop that fills a
//!   [`DerivedCache`] from cold solves or warm buffers.
//! * **Patched publishes.** One rating dirties one column of `E` and one
//!   row of `A`, so a publish patches the matrices it assembled last time
//!   ([`assemble::Assembler`], fed by the row-stamped
//!   [`affiliation::ActivityLedger`]) instead of rebuilding users ×
//!   categories — the same code whether the publisher is the flat model's
//!   [`DerivedCache`] or the cluster coordinator.
//!
//! [`pipeline::derive`] glues the steps together — the one batch entry
//! point:
//!
//! ```
//! use wot_community::{CommunityBuilder, RatingScale};
//! use wot_core::{pipeline, DeriveConfig};
//!
//! let mut b = CommunityBuilder::new(RatingScale::five_step());
//! let alice = b.add_user("alice");
//! let bob = b.add_user("bob");
//! let movies = b.add_category("movies");
//! let film = b.add_object("film", movies).unwrap();
//! let review = b.add_review(bob, film).unwrap();
//! b.add_rating(alice, review, 0.8).unwrap();
//! let store = b.build();
//!
//! let derived = pipeline::derive(&store, &DeriveConfig::default()).unwrap();
//! // Alice's affinity is all in `movies`; Bob has expertise there, so the
//! // derived trust alice→bob is Bob's expertise.
//! let t_ab = derived.pairwise_trust(alice, bob);
//! assert!(t_ab > 0.0 && t_ab <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod affiliation;
pub mod assemble;
pub mod binarize;
mod config;
mod error;
pub mod expertise;
pub mod incremental;
pub mod metrics;
#[doc(hidden)]
pub mod oracle;
pub mod pipeline;
pub mod reputation;
pub mod riggs;
mod slice;
pub mod trust;
pub mod trust_blocks;
pub mod trust_rows;

pub use affiliation::ActivityLedger;
pub use assemble::Assembler;
pub use config::{DeriveConfig, DeriveConfigBuilder};
pub use error::CoreError;
pub use incremental::{
    DeltaReport, DerivedCache, IncrementalDerived, ReplayEvent, AUDIT_BOUND, AUDIT_EVERY,
};
pub use pipeline::{CategoryReputation, Derived};
pub use trust_blocks::{BlockConfig, TrustBlock, TrustBlocks};
pub use trust_rows::{Fig3Aggregates, TopK, TrustRows};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, CoreError>;
