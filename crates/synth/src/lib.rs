//! # wot-synth — synthetic Epinions-like community generator
//!
//! The paper evaluates on a 2007 crawl of Epinions' *Videos & DVDs*
//! category (44,197 users, 12 sub-categories, 429,955 explicit trust
//! edges). That crawl is proprietary and the site is defunct, so this crate
//! generates communities with the same *causal structure* the paper's
//! framework assumes and its evaluation tests:
//!
//! 1. **Latent factors** (per user): a category-**affinity** distribution
//!    (what they care about), a category-**expertise** vector (what they
//!    are good at — concentrated in the categories they care about), a
//!    **rating reliability** (how close their helpfulness ratings land to a
//!    review's true quality), and a power-law **activity** level.
//! 2. **Reviews** — users review objects in affinity-weighted categories;
//!    a review's latent quality is its writer's expertise in the category
//!    plus noise.
//! 3. **Ratings** — users rate others' reviews; the observed rating is the
//!    review's latent quality corrupted by rater-reliability-scaled noise
//!    and snapped to the 5-step Epinions scale.
//! 4. **Ground-truth trust** — the paper's hypothesis, made generative:
//!    user *i* trusts user *j* with probability proportional to
//!    `Σ_c affinity_ic · expertise_jc`, biased toward writers *i* has
//!    actually rated (word-of-mouth plus direct experience), with
//!    configurable random-edge noise and reciprocity.
//! 5. **Editorial labels** — "Advisors" (top raters) and "Top Reviewers"
//!    (top writers) designated from latent reliability/expertise × activity
//!    with configurable editorial noise, mirroring Epinions' human-picked
//!    lists used as validation labels in Tables 2–3.
//!
//! Everything is driven by an explicit `u64` seed through a from-scratch
//! xoshiro256++ generator, so datasets are bit-for-bit reproducible across
//! platforms and releases. Generation fans the per-user sampling out
//! across worker threads ([`generate_with_threads`]) with one
//! counter-based RNG stream per user per phase, so the thread count
//! cannot change a single bit of the output either.
//!
//! ## Example
//!
//! ```
//! use wot_synth::{SynthConfig, generate};
//!
//! let out = generate(&SynthConfig::tiny(42)).unwrap();
//! assert!(out.store.num_users() > 0);
//! assert!(out.store.num_ratings() > 0);
//! assert_eq!(out.truth.advisors.len(), SynthConfig::tiny(42).num_advisors);
//! // Same seed, same dataset:
//! let out2 = generate(&SynthConfig::tiny(42)).unwrap();
//! assert_eq!(out.store.num_ratings(), out2.store.num_ratings());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod dist;
pub mod events;
mod generator;
mod latent;
mod output;
pub mod rng;

pub use config::{SynthConfig, SynthConfigError};
pub use events::shuffled_event_log;
pub use generator::{generate, generate_with_threads};
pub use latent::UserFactors;
pub use output::{GroundTruth, SynthOutput};
