//! # webtrust — building a web of trust without explicit trust ratings
//!
//! A complete Rust implementation of Kim, Le, Lauw, Lim, Liu & Srivastava,
//! *"Building a Web of Trust without Explicit Trust Ratings"* (ICDE
//! Workshops 2008), including every substrate the paper depends on and a
//! reproduction harness for each of its tables and figures.
//!
//! The framework derives a **dense, continuous trust matrix `T̂`** for a
//! review community from rating data alone:
//!
//! 1. **Expertise `E`** — per category, review quality and rater
//!    reputation are solved as a fixed point (Riggs' model), and writer
//!    reputation aggregates review quality ([`core::riggs`],
//!    [`core::reputation`]).
//! 2. **Affiliation `A`** — per user, max-normalized rating/writing
//!    activity per category ([`core::affiliation`]).
//! 3. **Derived trust** — `T̂_ij = Σ_c A_ic·E_jc / Σ_c A_ic`
//!    ([`core::trust`]).
//!
//! ## Crate map
//!
//! | module (re-export) | crate | contents |
//! |---|---|---|
//! | [`sparse`] | `wot-sparse` | COO/CSR/CSC/DOK matrices, products, masking |
//! | [`graph`] | `wot-graph` | digraph, BFS, shortest-path DAGs, SCC |
//! | [`community`] | `wot-community` | Epinions-like data model, TSV interchange, shard routing vocabulary |
//! | [`synth`] | `wot-synth` | seeded synthetic community generator |
//! | [`core`] | `wot-core` | the paper's framework (Eqs. 1–5) + metrics |
//! | [`propagation`] | `wot-propagation` | EigenTrust, TidalTrust, Appleseed, Guha |
//! | [`eval`] | `wot-eval` | Table 2/3/4, Fig. 3, §IV.C, §V, ablations |
//! | [`par`] | `wot-par` | scoped-thread data parallelism (deterministic) |
//! | [`wal`] | `wot-wal` | durable event log: CRC frames, torn-tail truncation |
//! | [`serve`] | `wot-serve` | shard engine (durable ingest + recovery), trust-serving daemon, coordinator |
//!
//! ## Quickstart
//!
//! The `examples/quickstart.rs` scenario as a tested doc example: a
//! six-user community with **no explicit trust statements anywhere**,
//! from which the framework derives who should trust whom. Expertise in
//! the *right category* wins the trust decision.
//!
//! ```
//! use webtrust::community::{CommunityBuilder, RatingScale};
//! use webtrust::core::{pipeline, DeriveConfig};
//!
//! // A community about movies and cameras.
//! let mut b = CommunityBuilder::new(RatingScale::five_step());
//! let ana = b.add_user("ana"); // film buff, rates a lot
//! let raj = b.add_user("raj"); // writes stellar movie reviews
//! let mei = b.add_user("mei"); // writes solid camera reviews
//! let tom = b.add_user("tom"); // writes sloppy movie reviews
//! let zoe = b.add_user("zoe"); // camera shopper
//! let kim = b.add_user("kim"); // rates both topics
//! let movies = b.add_category("movies");
//! let cameras = b.add_category("cameras");
//!
//! // raj: three movie reviews, consistently rated helpful.
//! for film in ["heat", "ran", "alien"] {
//!     let o = b.add_object(format!("film-{film}"), movies).unwrap();
//!     let r = b.add_review(raj, o).unwrap();
//!     b.add_rating(ana, r, 1.0).unwrap();
//!     b.add_rating(kim, r, 0.8).unwrap();
//! }
//! // tom: two movie reviews the crowd finds unhelpful.
//! for film in ["heat", "ran"] {
//!     let o = b.add_object(format!("film-{film}-tom"), movies).unwrap();
//!     let r = b.add_review(tom, o).unwrap();
//!     b.add_rating(ana, r, 0.2).unwrap();
//!     b.add_rating(kim, r, 0.4).unwrap();
//! }
//! // mei: two camera reviews, well received.
//! for cam in ["x100", "om-1"] {
//!     let o = b.add_object(format!("cam-{cam}"), cameras).unwrap();
//!     let r = b.add_review(mei, o).unwrap();
//!     b.add_rating(zoe, r, 1.0).unwrap();
//!     b.add_rating(kim, r, 0.8).unwrap();
//! }
//! let store = b.build();
//! assert_eq!(store.num_trust(), 0); // not one explicit trust edge
//!
//! // Steps 1–2: derive expertise E and affiliation A; Step 3: Eq. 5.
//! let derived = pipeline::derive(&store, &DeriveConfig::default()).unwrap();
//!
//! // ana trusts the good movie reviewer over the sloppy one…
//! assert!(derived.pairwise_trust(ana, raj) > derived.pairwise_trust(ana, tom));
//! // …and zoe the camera shopper trusts the camera expert more.
//! assert!(derived.pairwise_trust(zoe, mei) > derived.pairwise_trust(zoe, raj));
//!
//! // The same Eq. 5 view streams as row-blocks for paper-scale
//! // communities where the dense U×U matrix would not fit in memory.
//! use webtrust::core::BlockConfig;
//! let agg = derived.trust_fig3(&BlockConfig::default()).unwrap();
//! assert_eq!(agg.support, derived.trust_support_count().unwrap());
//! ```
//!
//! See `examples/` for end-to-end scenarios (`quickstart`,
//! `paper_scale_trust`, `incremental_updates`, …) and `crates/bench`'s
//! `repro` binary for the paper reproduction. `README.md` maps Eq. 1–5
//! to modules; `docs/ARCHITECTURE.md` explains the index-dense layout,
//! the batch ⇄ incremental unification, the threading model, and the
//! block-streaming trust path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use wot_community as community;
pub use wot_core as core;
pub use wot_eval as eval;
pub use wot_graph as graph;
pub use wot_par as par;
pub use wot_propagation as propagation;
pub use wot_serve as serve;
pub use wot_sparse as sparse;
pub use wot_synth as synth;
pub use wot_wal as wal;
