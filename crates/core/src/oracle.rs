//! The Eq. 1–3 reference oracle: the pre-optimization `HashMap`
//! formulation of the per-category fixed point and the writer
//! aggregation, the from-scratch builder of `E`
//! ([`expertise_matrix`]; every shipped path assembles `E` through
//! [`Assembler`](crate::Assembler)), and the batch derivation built from
//! them.
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
use wot_sparse::Dense;

use crate::pipeline::{CategoryReputation, Derived};
use crate::{affiliation, DeriveConfig, Result};

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
        let (raters, values) = store.ratings_of_review(rid);
        for (&rater, &value) in raters.iter().zip(values) {
            by_rater
                .entry(UserId(rater))
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
        let (raters, values) = store.ratings_of_review(rid);
        if raters.is_empty() {
            quality[j] = cfg.unrated_review_quality;
            continue;
        }
        let mut num = 0.0;
        let mut den = 0.0;
        for (&rater, &value) in raters.iter().zip(values) {
            let w = reputation.get(&UserId(rater)).copied().unwrap_or(0.0);
            num += w * value;
            den += w;
        }
        quality[j] = if den > 0.0 {
            num / den
        } else {
            values.iter().sum::<f64>() / values.len() as f64
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

/// The Users×Category expertise matrix `E` (Step 1's output) from
/// scratch: `E_ic` is user `i`'s writer reputation in category `c`, read
/// from `per_category[c]` (categories indexed densely, as in
/// [`CommunityStore::categories`]); users who wrote nothing in a category
/// hold 0 there.
pub fn expertise_matrix(num_users: usize, per_category: &[HashMap<UserId, f64>]) -> Dense {
    let ncols = per_category.len();
    let mut e = vec![0.0; num_users * ncols];
    for (c, writers) in per_category.iter().enumerate() {
        for (&u, &rep) in writers {
            e[u.index() * ncols + c] = rep;
        }
    }
    Dense::from_vec(num_users, ncols, e).expect("shape matches the buffer")
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
        expertise: expertise_matrix(store.num_users(), &writer_maps),
        affiliation: affiliation::affiliation_of(store),
        per_category,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_rows_and_columns() {
        let c0 = HashMap::from([(UserId(1), 0.7)]);
        let c1 = HashMap::from([(UserId(1), 0.2), (UserId(2), 0.9)]);
        let e = expertise_matrix(3, &[c0, c1]);
        assert_eq!(e.shape(), (3, 2));
        assert_eq!(e.get(1, 0), 0.7);
        assert_eq!(e.get(1, 1), 0.2);
        assert_eq!(e.get(2, 1), 0.9);
        assert_eq!(e.get(0, 0), 0.0); // inactive user
        assert_eq!(e.get(2, 0), 0.0); // inactive in c0
    }

    #[test]
    fn empty_categories_give_zero_matrix() {
        let e = expertise_matrix(2, &[HashMap::new(), HashMap::new()]);
        assert_eq!(e.shape(), (2, 2));
        assert!(e.as_slice().iter().all(|&v| v == 0.0));
    }
}
