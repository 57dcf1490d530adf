//! The Eq. 1–3 reference oracle: the pre-optimization `HashMap`
//! formulation of the per-category fixed point and the writer
//! aggregation, and the batch derivation built from them.
//!
//! It reads the store's own lists — each category's reviews
//! ([`CommunityStore::reviews_in_category`], ascending by id: the local
//! review order) and each review's ratings
//! ([`CommunityStore::ratings_of_review`], ingestion order) — and shares
//! no layout, index table or sweep with
//! [`pipeline::derive`](crate::pipeline::derive). The property and
//! determinism tests hold `derive` to [`derive_baseline`] bit for bit;
//! that works because both sum every review's ratings in ingestion order,
//! every rater's ratings in ascending local-review order and every
//! writer's qualities in ascending local-review order.
//!
//! Not part of the API: a reference for tests only.

use std::collections::HashMap;
use std::sync::Arc;

use wot_community::{CategoryId, CommunityStore, UserId};

use crate::pipeline::{CategoryReputation, Derived};
use crate::{affiliation, expertise, DeriveConfig, Result};

/// Result of the reference solver, keyed by user id.
#[derive(Debug, Clone)]
pub struct ReferenceSolve {
    /// Review quality per local review index.
    pub review_quality: Vec<f64>,
    /// Rater reputation for every rater active in the category.
    pub rater_reputation: HashMap<UserId, f64>,
    /// Sweeps executed.
    pub iterations: usize,
    /// Whether the tolerance was met before the iteration cap.
    pub converged: bool,
}

/// Every rater's ratings in `category` as `(local review, value)`,
/// ascending by local review — Eq. 2's summation order.
fn ratings_by_rater(
    store: &CommunityStore,
    category: CategoryId,
) -> HashMap<UserId, Vec<(u32, f64)>> {
    let mut by_rater: HashMap<UserId, Vec<(u32, f64)>> = HashMap::new();
    for (local, &rid) in store.reviews_in_category(category).iter().enumerate() {
        for &(rater, value) in store.ratings_of_review(rid) {
            by_rater
                .entry(rater)
                .or_default()
                .push((local as u32, value));
        }
    }
    by_rater
}

/// Runs the Eq. 1 ⇄ Eq. 2 fixed point of `category` with `HashMap`-keyed
/// reputation state, from uniform initial reputations, in Jacobi sweeps
/// until no reputation moves by more than
/// [`DeriveConfig::fixpoint_tolerance`] or the iteration cap is reached.
pub fn solve(store: &CommunityStore, category: CategoryId, cfg: &DeriveConfig) -> ReferenceSolve {
    let by_rater = ratings_by_rater(store, category);
    let mut reputation: HashMap<UserId, f64> = by_rater
        .keys()
        .map(|&u| (u, cfg.initial_rater_reputation))
        .collect();
    let mut quality = vec![cfg.unrated_review_quality; store.reviews_in_category(category).len()];

    let mut iterations = 0;
    let mut converged = false;
    while iterations < cfg.fixpoint_max_iters {
        iterations += 1;
        update_quality(store, category, &reputation, cfg, &mut quality);
        let delta = update_reputation(&by_rater, &quality, cfg, &mut reputation);
        if delta <= cfg.fixpoint_tolerance {
            converged = true;
            break;
        }
    }
    ReferenceSolve {
        review_quality: quality,
        rater_reputation: reputation,
        iterations,
        converged,
    }
}

fn update_quality(
    store: &CommunityStore,
    category: CategoryId,
    reputation: &HashMap<UserId, f64>,
    cfg: &DeriveConfig,
    quality: &mut [f64],
) {
    for (j, &rid) in store.reviews_in_category(category).iter().enumerate() {
        let ratings = store.ratings_of_review(rid);
        if ratings.is_empty() {
            quality[j] = cfg.unrated_review_quality;
            continue;
        }
        let mut num = 0.0;
        let mut den = 0.0;
        for &(rater, value) in ratings {
            let w = reputation.get(&rater).copied().unwrap_or(0.0);
            num += w * value;
            den += w;
        }
        quality[j] = if den > 0.0 {
            num / den
        } else {
            ratings.iter().map(|&(_, v)| v).sum::<f64>() / ratings.len() as f64
        };
    }
}

fn update_reputation(
    by_rater: &HashMap<UserId, Vec<(u32, f64)>>,
    quality: &[f64],
    cfg: &DeriveConfig,
    reputation: &mut HashMap<UserId, f64>,
) -> f64 {
    let mut max_delta = 0.0f64;
    for (&rater, ratings) in by_rater {
        let n = ratings.len();
        debug_assert!(n > 0, "rater entry with no ratings");
        let mad: f64 = ratings
            .iter()
            .map(|&(local, value)| (value - quality[local as usize]).abs())
            .sum::<f64>()
            / n as f64;
        let new = (1.0 - mad).max(0.0) * cfg.discount(n);
        let old = reputation
            .insert(rater, new)
            .expect("reputation map seeded with every rater");
        max_delta = max_delta.max((new - old).abs());
    }
    max_delta
}

/// Eq. 3 for every writer of `category`, keyed by user id: the mean of
/// their reviews' qualities (`review_quality`, by local review index),
/// summed in ascending local review, times `discount(n)`.
pub fn writer_reputation_map(
    store: &CommunityStore,
    category: CategoryId,
    review_quality: &[f64],
    cfg: &DeriveConfig,
) -> HashMap<UserId, f64> {
    let reviews = store.reviews_in_category(category);
    debug_assert_eq!(review_quality.len(), reviews.len());
    let mut by_writer: HashMap<UserId, Vec<u32>> = HashMap::new();
    for (local, &rid) in reviews.iter().enumerate() {
        let writer = store.reviews()[rid.index()].writer;
        by_writer.entry(writer).or_default().push(local as u32);
    }
    by_writer
        .into_iter()
        .map(|(writer, locals)| {
            let n = locals.len();
            let mean_q: f64 = locals
                .iter()
                .map(|&l| review_quality[l as usize])
                .sum::<f64>()
                / n as f64;
            (writer, mean_q * cfg.discount(n))
        })
        .collect()
}

/// The reference formulation of
/// [`pipeline::derive`](crate::pipeline::derive): sequential over
/// categories, [`solve`] and [`writer_reputation_map`] per category, `E`
/// from the writer maps and `A` from the store's activity counts.
pub fn derive_baseline(store: &CommunityStore, cfg: &DeriveConfig) -> Result<Derived> {
    cfg.validate()?;
    let mut per_category = Vec::with_capacity(store.num_categories());
    let mut writer_maps = Vec::with_capacity(store.num_categories());
    for c in store.categories() {
        let fixed = solve(store, c.id, cfg);
        let writers = writer_reputation_map(store, c.id, &fixed.review_quality, cfg);
        let mut rater_reputation: Vec<(UserId, f64)> = fixed
            .rater_reputation
            .iter()
            .map(|(&u, &v)| (u, v))
            .collect();
        rater_reputation.sort_by_key(|&(u, _)| u);
        let mut writer_reputation: Vec<(UserId, f64)> =
            writers.iter().map(|(&u, &v)| (u, v)).collect();
        writer_reputation.sort_by_key(|&(u, _)| u);
        let review_quality = store
            .reviews_in_category(c.id)
            .iter()
            .copied()
            .zip(fixed.review_quality)
            .collect();
        per_category.push(Arc::new(CategoryReputation {
            category: c.id,
            rater_reputation,
            writer_reputation,
            review_quality,
            iterations: fixed.iterations,
            converged: fixed.converged,
        }));
        writer_maps.push(writers);
    }
    Ok(Derived {
        expertise: expertise::expertise_matrix(store.num_users(), &writer_maps),
        affiliation: affiliation::affiliation_of(store),
        per_category,
    })
}
