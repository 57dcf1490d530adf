//! The review-quality ⇄ rater-reputation fixed point (Eqs. 1–2).
//!
//! Eq. 1 defines a review's quality as the reputation-weighted mean of its
//! ratings; Eq. 2 (Riggs' model) defines a rater's reputation from how
//! closely their ratings track the final qualities, discounted for
//! inexperience:
//!
//! ```text
//! r̄_j   = Σ_{i∈U(r_j)} ū_i·ρ_ij / Σ_{i∈U(r_j)} ū_i                 (1)
//! ū_i   = (1 − Σ_{j∈R(u_i)} |ρ_ij − r̄_j| / n_i) · (1 − 1/(n_i+1))   (2)
//! ```
//!
//! The two equations are mutually recursive; the sweep loop
//! (`solve_warm`) iterates them until no reputation moves by more than
//! the configured tolerance (Jacobi-style sweeps, so the result is
//! independent of user iteration order). A cold solve starts them from
//! uniform reputations.
//!
//! ## Index-dense state
//!
//! The sweeps run over one category's **local indexes** — the
//! per-category state of [`incremental`](crate::incremental), which the
//! batch pipeline builds in bulk and the online model grows by events:
//! reputation lives in a flat `Vec<f64>` indexed by local rater, and
//! every rating carries a pre-resolved local rater index, so the
//! innermost loops are pure array arithmetic with no hashing. The ratings
//! themselves live in two [`Incidence`] arenas — grouped by review for
//! Eq. 1, by rater for Eq. 2, each one contiguous `u32` index buffer and
//! one `f64` value buffer — which the bulk build fills exactly and the
//! online model appends into in place; the sweeps and the delta worklist
//! walk that memory directly, so nothing is flattened or copied before a
//! solve. On Epinions-scale categories this is the difference between a
//! memory-bound hash walk and a cache-friendly linear scan. The original
//! `HashMap`-keyed formulation is kept as a test oracle
//! ([`oracle`](crate::oracle)) and proven bit-identical by `wot-core`'s
//! property tests — both iterate the same Jacobi sweeps in the same
//! arithmetic order, so even floating-point rounding agrees.

use wot_community::Incidence;

use crate::DeriveConfig;

/// `discount(n_i)` of every rater of a rater-grouped incidence — hoisted
/// out of the sweeps: computed once per bulk build, then kept current per
/// rating by the incremental model.
pub(crate) fn rater_discounts(by_rater: &Incidence, cfg: &DeriveConfig) -> Vec<f64> {
    by_rater
        .iter()
        .map(|(reviews, _)| cfg.discount(reviews.len()))
        .collect()
}

/// Iterates the Eqs. 1–2 fixed point over a category's two incidence
/// arenas — `by_review` holds each local review's `(local rater, value)`
/// ratings in ingestion order, `by_rater` each local rater's `(local
/// review, value)` ratings ascending by local review, `rater_discount`
/// each rater's `discount(n_i)` ([`rater_discounts`]) — starting from
/// whatever `quality`/`reputation` already hold: cold when the caller
/// seeds them with [`DeriveConfig::unrated_review_quality`] /
/// [`DeriveConfig::initial_rater_reputation`], warm when they carry a
/// previous solution. Returns `(sweeps, converged)`.
///
/// Its passes are [`dense_pass`], the *only* whole-category pass in the
/// workspace, over the *only* layout: [`pipeline::derive`]'s cold solves
/// read the arenas of a bulk-built category, the incremental model's warm
/// [`refresh`](crate::IncrementalDerived::refresh), the dense passes of
/// its delta solve and its canonical
/// [`to_derived`](crate::IncrementalDerived::to_derived) snapshot read the
/// arenas it appends into — the same type, the same per-node order, the
/// root of the pipeline's bit-identical replay guarantee.
///
/// [`pipeline::derive`]: crate::pipeline::derive
pub(crate) fn solve_warm(
    by_review: &Incidence,
    by_rater: &Incidence,
    rater_discount: &[f64],
    cfg: &DeriveConfig,
    quality: &mut [f64],
    reputation: &mut [f64],
) -> (usize, bool) {
    debug_assert_eq!(quality.len(), by_review.num_nodes());
    debug_assert_eq!(reputation.len(), by_rater.num_nodes());
    debug_assert_eq!(rater_discount.len(), by_rater.num_nodes());
    let mut iterations = 0;
    let mut converged = false;
    while iterations < cfg.fixpoint_max_iters {
        iterations += 1;
        let delta = dense_pass(
            by_review,
            by_rater,
            rater_discount,
            cfg,
            cfg.fixpoint_tolerance,
            quality,
            reputation,
            |_| {},
        );
        if delta <= cfg.fixpoint_tolerance {
            converged = true;
            break;
        }
    }
    (iterations, converged)
}

/// One Jacobi pass over the whole category: an Eq. 1 sweep of every
/// review, then an Eq. 2 sweep of every rater. Hands `moved` the reviews
/// of each rater whose reputation moved by more than `cut_off` — the
/// delta solve's next frontier, at [`DeriveConfig::delta_tolerance`] —
/// and returns the largest reputation move, which [`solve_warm`] holds to
/// [`DeriveConfig::fixpoint_tolerance`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn dense_pass(
    by_review: &Incidence,
    by_rater: &Incidence,
    rater_discount: &[f64],
    cfg: &DeriveConfig,
    cut_off: f64,
    quality: &mut [f64],
    reputation: &mut [f64],
    mut moved: impl FnMut(&[u32]),
) -> f64 {
    update_quality(by_review, reputation, cfg, quality);
    let mut max_delta = 0.0f64;
    for ((rep, (reviews, values)), &discount) in reputation
        .iter_mut()
        .zip(by_rater.iter())
        .zip(rater_discount)
    {
        let new = reputation_one(reviews, values, quality, discount);
        let step = (new - std::mem::replace(rep, new)).abs();
        if step > cut_off {
            moved(reviews);
        }
        max_delta = max_delta.max(step);
    }
    max_delta
}

/// How far `quality` / `reputation` sit from a fixed point of Eqs. 1–2:
/// the largest of `|quality_one(reputation) − quality|` over every review
/// and `|reputation_one(quality) − reputation|` over every rater. Reads
/// one category's arenas once, writes nothing and allocates nothing —
/// the delta solve's live audit, which costs about one dense pass.
pub(crate) fn residual(
    by_review: &Incidence,
    by_rater: &Incidence,
    rater_discount: &[f64],
    cfg: &DeriveConfig,
    quality: &[f64],
    reputation: &[f64],
) -> f64 {
    let reviews = quality
        .iter()
        .zip(by_review.iter())
        .map(|(&q, (raters, values))| (quality_one(raters, values, reputation, cfg) - q).abs());
    let raters = reputation
        .iter()
        .zip(by_rater.iter())
        .zip(rater_discount)
        .map(|((&rep, (reviews, values)), &discount)| {
            (reputation_one(reviews, values, quality, discount) - rep).abs()
        });
    reviews.chain(raters).fold(0.0, f64::max)
}

/// One Eq. 1 sweep: recompute every review's quality from current
/// reputations (indexed by local rater) — [`quality_one`] per node.
fn update_quality(
    by_review: &Incidence,
    reputation: &[f64],
    cfg: &DeriveConfig,
    quality: &mut [f64],
) {
    for (q, (raters, values)) in quality.iter_mut().zip(by_review.iter()) {
        *q = quality_one(raters, values, reputation, cfg);
    }
}

/// Eq. 1 for **one review** from its ratings — parallel `(local rater,
/// value)` slices in stored (ingestion) order. The dense sweep
/// ([`update_quality`]) and the delta worklist both call this, so they
/// cannot disagree on a node they both recompute. Falls back to the
/// unweighted mean when the reputation mass of the review's raters is zero
/// (e.g. all its raters have fully divergent histories), so ratings are
/// never silently discarded.
#[inline]
pub(crate) fn quality_one(
    raters: &[u32],
    values: &[f64],
    reputation: &[f64],
    cfg: &DeriveConfig,
) -> f64 {
    if raters.is_empty() {
        return cfg.unrated_review_quality;
    }
    let mut num = 0.0;
    let mut den = 0.0;
    for (&rater, &value) in raters.iter().zip(values) {
        let w = reputation[rater as usize];
        num += w * value;
        den += w;
    }
    if den > 0.0 {
        num / den
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Eq. 2 for **one rater** from their ratings — parallel `(local review,
/// value)` slices ascending by local review — and pre-computed experience
/// discount. One slot of [`dense_pass`]'s Eq. 2 sweep; the delta worklist
/// calls it too.
#[inline]
pub(crate) fn reputation_one(
    reviews: &[u32],
    values: &[f64],
    quality: &[f64],
    discount: f64,
) -> f64 {
    let n = reviews.len();
    debug_assert!(n > 0, "rater entry with no ratings");
    let mad: f64 = reviews
        .iter()
        .zip(values)
        .map(|(&local, &value)| (value - quality[local as usize]).abs())
        .sum::<f64>()
        / n as f64;
    (1.0 - mad).max(0.0) * discount
}

#[cfg(test)]
mod tests {
    use wot_community::{CategoryId, CommunityBuilder, CommunityStore, RatingScale, UserId};

    use super::*;
    use crate::{incremental, oracle, CategoryReputation};

    /// One writer (w), two reviews; rater A rates both (0.8, 0.6), rater B
    /// rates the first (0.4). Hand-computed in DESIGN.md's notation.
    fn fixture() -> CommunityStore {
        let mut b = CommunityBuilder::new(RatingScale::five_step());
        let a = b.add_user("a");
        let bb = b.add_user("b");
        let w = b.add_user("w");
        let cat = b.add_category("cat");
        let o1 = b.add_object("o1", cat).unwrap();
        let o2 = b.add_object("o2", cat).unwrap();
        let r0 = b.add_review(w, o1).unwrap();
        let r1 = b.add_review(w, o2).unwrap();
        b.add_rating(a, r0, 0.8).unwrap();
        b.add_rating(a, r1, 0.6).unwrap();
        b.add_rating(bb, r0, 0.4).unwrap();
        b.build()
    }

    /// Category 0 built in bulk and solved cold — one category of
    /// `pipeline::derive`.
    fn solve(store: &CommunityStore, cfg: &DeriveConfig) -> CategoryReputation {
        incremental::batch_table(store, CategoryId(0), cfg)
    }

    fn quality(r: &CategoryReputation) -> Vec<f64> {
        r.review_quality.iter().map(|&(_, q)| q).collect()
    }

    /// Reputation of one user, or `None` if they rated nothing there.
    fn reputation_of(r: &CategoryReputation, user: UserId) -> Option<f64> {
        let at = r.rater_reputation.binary_search_by_key(&user, |&(u, _)| u);
        at.ok().map(|k| r.rater_reputation[k].1)
    }

    #[test]
    fn single_sweep_matches_hand_computation() {
        let store = fixture();
        let cfg = DeriveConfig::builder()
            .fixpoint_max_iters(1)
            .build()
            .unwrap();
        let r = solve(&store, &cfg);
        assert_eq!(r.iterations, 1);
        // Initial reputations 1.0 → plain means.
        let q = quality(&r);
        assert!((q[0] - 0.6).abs() < 1e-12);
        assert!((q[1] - 0.6).abs() < 1e-12);
        // A: mad = (0.2 + 0.0)/2 = 0.1, n=2 → 0.9 * 2/3 = 0.6
        assert!((reputation_of(&r, UserId(0)).unwrap() - 0.6).abs() < 1e-12);
        // B: mad = 0.2, n=1 → 0.8 * 1/2 = 0.4
        assert!((reputation_of(&r, UserId(1)).unwrap() - 0.4).abs() < 1e-12);
        // The writer rated nothing.
        assert_eq!(reputation_of(&r, UserId(2)), None);
    }

    #[test]
    fn second_sweep_reweights_quality() {
        let store = fixture();
        let cfg = DeriveConfig::builder()
            .fixpoint_max_iters(2)
            .fixpoint_tolerance(0.0)
            .build()
            .unwrap();
        let q = quality(&solve(&store, &cfg));
        // q0 = (0.6·0.8 + 0.4·0.4) / (0.6 + 0.4) = 0.64
        assert!((q[0] - 0.64).abs() < 1e-12);
        assert!((q[1] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn converges_within_cap() {
        let r = solve(&fixture(), &DeriveConfig::default());
        assert!(
            r.converged,
            "fixed point should converge on a tiny category"
        );
        assert!(r.iterations < 50);
        // Ranges hold at the fixed point.
        for q in quality(&r) {
            assert!((0.0..=1.0).contains(&q));
        }
        for &(_, rep) in &r.rater_reputation {
            assert!((0.0..=1.0).contains(&rep));
        }
        // A tracks consensus better than B throughout.
        assert!(reputation_of(&r, UserId(0)).unwrap() > reputation_of(&r, UserId(1)).unwrap());
    }

    #[test]
    fn discount_ablation_raises_reputation() {
        let store = fixture();
        let with = solve(&store, &DeriveConfig::default());
        let without = solve(
            &store,
            &DeriveConfig::builder()
                .experience_discount(false)
                .build()
                .unwrap(),
        );
        for (&(_, rep), &(_, rep_without)) in
            with.rater_reputation.iter().zip(&without.rater_reputation)
        {
            assert!(rep_without >= rep);
        }
    }

    #[test]
    fn unrated_review_gets_configured_quality() {
        let mut b = CommunityBuilder::new(RatingScale::five_step());
        let w = b.add_user("w");
        b.add_user("nobody");
        let cat = b.add_category("cat");
        let o = b.add_object("o", cat).unwrap();
        b.add_review(w, o).unwrap();
        let store = b.build();
        let r = solve(&store, &DeriveConfig::default());
        assert_eq!(quality(&r), vec![0.0]);
        let r = solve(
            &store,
            &DeriveConfig::builder()
                .unrated_review_quality(0.5)
                .build()
                .unwrap(),
        );
        assert_eq!(quality(&r), vec![0.5]);
        assert!(r.rater_reputation.is_empty());
    }

    #[test]
    fn empty_slice_is_fine() {
        let mut b = CommunityBuilder::new(RatingScale::five_step());
        b.add_user("u");
        b.add_category("cat");
        let r = solve(&b.build(), &DeriveConfig::default());
        assert!(r.review_quality.is_empty());
        assert!(r.rater_reputation.is_empty());
        assert!(r.converged);
    }

    /// Perfectly consistent raters converge to reputation = discount(n)
    /// exactly (mad = 0).
    #[test]
    fn consistent_raters_reach_discount_ceiling() {
        let mut b = CommunityBuilder::new(RatingScale::five_step());
        let a = b.add_user("a");
        let c2 = b.add_user("c");
        let w = b.add_user("w");
        let cat = b.add_category("cat");
        let o = b.add_object("o", cat).unwrap();
        let r0 = b.add_review(w, o).unwrap();
        b.add_rating(a, r0, 0.8).unwrap();
        b.add_rating(c2, r0, 0.8).unwrap();
        let r = solve(&b.build(), &DeriveConfig::default());
        assert!(r.converged);
        assert!((quality(&r)[0] - 0.8).abs() < 1e-12);
        // (1-0)·(1-1/2)
        assert!((reputation_of(&r, a).unwrap() - 0.5).abs() < 1e-12);
    }

    /// The index-dense solve and the reference HashMap solver agree
    /// bit-for-bit (also covered at scale by the crate's property tests).
    #[test]
    fn dense_matches_reference_exactly() {
        let store = fixture();
        for cfg in [
            DeriveConfig::default(),
            DeriveConfig::builder()
                .fixpoint_max_iters(3)
                .fixpoint_tolerance(0.0)
                .build()
                .unwrap(),
        ] {
            let dense = solve(&store, &cfg);
            let map = oracle::solve(&store, CategoryId(0), &cfg);
            assert_eq!(quality(&dense), map.review_quality);
            assert_eq!(dense.iterations, map.iterations);
            assert_eq!(dense.converged, map.converged);
            assert_eq!(dense.rater_reputation.len(), map.rater_reputation.len());
            for &(u, rep) in &dense.rater_reputation {
                assert_eq!(rep, map.rater_reputation[&u], "user {u:?}");
            }
        }
    }
}
