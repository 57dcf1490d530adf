//! # wot-community — Epinions-like review-community data model
//!
//! The paper's framework consumes the rating data of an online review
//! community: users write **reviews** about **objects** that belong to
//! **categories**, and other users give each review a numeric **rating**
//! (Epinions' 5-step helpfulness scale: 0.2 "not helpful" … 1.0 "most
//! helpful"). Optionally, the community also records explicit **trust
//! statements** — those are *not* consumed by the framework, only used as
//! validation labels.
//!
//! This crate is that data model, plus:
//!
//! * [`CommunityStore`] — validated, indexed, append-only storage,
//! * [`CommunityBuilder`] — referential-integrity-checked construction,
//! * [`CategorySlice`] — the per-category compact projection the
//!   reputation algorithms iterate over,
//! * [`Incidence`] — the arena a slice (and `wot-core`'s online model)
//!   keeps its grouped ratings in: one contiguous buffer per direction,
//!   appended in place (see [`incidence`]),
//! * [`ShardAssignment`] and [`shard::merge_shard_logs`] — the shard
//!   vocabulary: which shard owns a category, and how sequence-tagged
//!   shard logs merge back into the global history (see [`shard`]),
//! * [`tsv`] — a greppable on-disk interchange format (one TSV per entity),
//! * [`stats`] — dataset descriptive statistics,
//! * matrix extraction: the direct-connection matrix `R`, the baseline
//!   matrix `B`, and the explicit trust matrix `T` of the paper's
//!   evaluation, via [`CommunityStore::direct_connection_matrix`] and
//!   friends.
//!
//! ## Example
//!
//! ```
//! use wot_community::{CommunityBuilder, RatingScale};
//!
//! let mut b = CommunityBuilder::new(RatingScale::five_step());
//! let alice = b.add_user("alice");
//! let bob = b.add_user("bob");
//! let movies = b.add_category("movies");
//! let film = b.add_object("heat-1995", movies).unwrap();
//! let review = b.add_review(bob, film).unwrap();
//! b.add_rating(alice, review, 0.8).unwrap();
//! let store = b.build();
//! assert_eq!(store.num_users(), 2);
//! assert_eq!(store.num_ratings(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
pub mod epinions;
mod error;
pub mod events;
mod ids;
pub mod incidence;
mod model;
pub mod shard;
mod slice;
pub mod stats;
mod store;
pub mod tsv;

pub use builder::CommunityBuilder;
pub use error::CommunityError;
pub use events::{Rejection, StoreEvent};
pub use ids::{CategoryId, ObjectId, ReviewId, UserId};
pub use incidence::Incidence;
pub use model::{Category, Object, Rating, RatingScale, Review, TrustStatement, User};
pub use shard::{ShardAssignment, ShardId};
pub use slice::CategorySlice;
pub use store::CommunityStore;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, CommunityError>;
