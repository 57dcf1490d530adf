//! Writer reputation (Eq. 3).
//!
//! A writer's reputation in a category is the mean quality of the reviews
//! they wrote there, discounted for inexperience:
//!
//! ```text
//! ū^w_i = (Σ_{j∈R(u^w_i)} r̄_j / n^w_i) · (1 − 1/(n^w_i+1))   (3)
//! ```
//!
//! Like the Eqs. 1–2 fixed point, this runs over a category's local
//! writer indexes and returns a flat `Vec<f64>` — no per-writer hashing on
//! the hot path. The `HashMap` formulation is the test oracle's
//! ([`oracle::writer_reputation_map`](crate::oracle::writer_reputation_map)).

use crate::DeriveConfig;

/// Eq. 3 as one ascending pass over the writer column
/// (`review_writer_local[j]` = local review `j`'s local writer), for a
/// bulk-built category and the incremental model alike. Each writer's
/// sum takes its own qualities in ascending review from `-0.0`: the bits
/// `Iterator::sum` gives over that writer's own list.
pub(crate) fn writer_reputation_flat(
    review_writer_local: &[u32],
    num_writers: usize,
    review_quality: &[f64],
    cfg: &DeriveConfig,
) -> Vec<f64> {
    debug_assert_eq!(review_writer_local.len(), review_quality.len());
    let mut sum = vec![-0.0; num_writers];
    let mut count = vec![0u32; num_writers];
    for (&w, &q) in review_writer_local.iter().zip(review_quality) {
        sum[w as usize] += q;
        count[w as usize] += 1;
    }
    for (s, n) in sum.iter_mut().zip(count) {
        debug_assert!(n > 0, "writer entry with no reviews");
        *s = *s / f64::from(n) * cfg.discount(n as usize);
    }
    sum
}

#[cfg(test)]
mod tests {
    use wot_community::{CategoryId, CommunityBuilder, CommunityStore, RatingScale, UserId};

    use super::*;
    use crate::oracle;

    /// Category 0's writers, ascending, and its writer column — each
    /// review's writer as an index into that list.
    fn writer_column(store: &CommunityStore) -> (Vec<UserId>, Vec<u32>) {
        let reviews = store.reviews_in_category(CategoryId(0));
        let writer = |j: usize| store.reviews()[reviews[j].index()].writer;
        let mut writers: Vec<UserId> = (0..reviews.len()).map(writer).collect();
        writers.sort_unstable();
        writers.dedup();
        let column = (0..reviews.len())
            .map(|j| writers.binary_search(&writer(j)).unwrap() as u32)
            .collect();
        (writers, column)
    }

    /// Eq. 3 over category 0 of `store` by the flat pass, per writer.
    fn flat(store: &CommunityStore, q: &[f64], cfg: &DeriveConfig) -> Vec<(UserId, f64)> {
        let (writers, column) = writer_column(store);
        let values = writer_reputation_flat(&column, writers.len(), q, cfg);
        writers.into_iter().zip(values).collect()
    }

    #[test]
    fn matches_hand_computation() {
        // Writer w with two reviews of quality 0.64 and 0.6:
        // ū^w = ((0.64 + 0.6)/2) · (1 − 1/3) = 0.62 · 2/3 ≈ 0.41333
        let rep = writer_reputation_flat(&[0, 0], 1, &[0.64, 0.6], &DeriveConfig::default());
        assert_eq!(rep.len(), 1);
        assert!((rep[0] - 0.62 * (2.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn more_high_quality_reviews_beat_fewer() {
        // One writer with three quality-0.8 reviews vs one with a single
        // quality-0.8 review: the discount rewards the prolific writer.
        let rep = writer_reputation_flat(&[0, 0, 0, 1], 2, &[0.8; 4], &DeriveConfig::default());
        assert!(rep[0] > rep[1]);
        assert!((rep[0] - 0.8 * 0.75).abs() < 1e-12);
        assert!((rep[1] - 0.8 * 0.5).abs() < 1e-12);
    }

    #[test]
    fn ablated_discount_is_pure_mean() {
        let cfg = DeriveConfig::builder()
            .experience_discount(false)
            .build()
            .unwrap();
        let rep = writer_reputation_flat(&[0], 1, &[0.9], &cfg);
        assert!((rep[0] - 0.9).abs() < 1e-12);
    }

    #[test]
    fn map_form_matches_dense_form() {
        let mut b = CommunityBuilder::new(RatingScale::five_step());
        let w1 = b.add_user("w1");
        let w2 = b.add_user("w2");
        let cat = b.add_category("cat");
        for (w, n) in [(w1, 2usize), (w2, 1usize)] {
            for k in 0..n {
                let o = b.add_object(format!("o-{w}-{k}"), cat).unwrap();
                b.add_review(w, o).unwrap();
            }
        }
        let store = b.build();
        let q = vec![0.9, 0.5, 0.7];
        let cfg = DeriveConfig::default();
        let dense = flat(&store, &q, &cfg);
        let map = oracle::writer_reputation_map(&store, cat, &q, &cfg);
        assert_eq!(map.len(), dense.len());
        for (u, rep) in dense {
            assert_eq!(map[&u], rep);
        }
    }

    /// The flat pass against the reference map, bit for bit, on writers
    /// whose reviews interleave in local order — the case where one
    /// ascending pass accumulates several writers at once.
    #[test]
    fn flat_pass_is_bit_identical_to_the_map_over_interleaved_writers() {
        let mut b = CommunityBuilder::new(RatingScale::five_step());
        let w: Vec<UserId> = (0..4).map(|k| b.add_user(format!("w{k}"))).collect();
        let cat = b.add_category("cat");
        let order = [2, 0, 1, 0, 3, 2, 0, 1, 2, 0, 3, 1, 0];
        for (k, &i) in order.iter().enumerate() {
            let o = b.add_object(format!("o{k}"), cat).unwrap();
            b.add_review(w[i], o).unwrap();
        }
        let store = b.build();
        // Inexact qualities, so a change of summation order could show.
        let q: Vec<f64> = (0..order.len())
            .map(|k| 0.1 + 0.7 / (k as f64 + 3.0))
            .collect();
        for discount in [true, false] {
            let cfg = DeriveConfig::builder()
                .experience_discount(discount)
                .build()
                .unwrap();
            let flat = flat(&store, &q, &cfg);
            let map = oracle::writer_reputation_map(&store, cat, &q, &cfg);
            assert_eq!(map.len(), flat.len());
            for (u, rep) in flat {
                assert_eq!(map[&u].to_bits(), rep.to_bits(), "writer {u}");
            }
        }
    }

    #[test]
    fn empty_slice_yields_empty_vec() {
        assert!(writer_reputation_flat(&[], 0, &[], &DeriveConfig::default()).is_empty());
    }
}
