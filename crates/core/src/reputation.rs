//! Writer reputation (Eq. 3).
//!
//! A writer's reputation in a category is the mean quality of the reviews
//! they wrote there, discounted for inexperience:
//!
//! ```text
//! ū^w_i = (Σ_{j∈R(u^w_i)} r̄_j / n^w_i) · (1 − 1/(n^w_i+1))   (3)
//! ```
//!
//! Like the Eqs. 1–2 fixed point, this runs over the slice's local writer
//! indexes ([`CategorySlice::writer_of_local`]) and returns a flat
//! `Vec<f64>` — no per-writer hashing on the hot path.

use wot_community::{CategorySlice, UserId};

use crate::DeriveConfig;

/// Computes writer reputation for every writer active in the slice, given
/// the slice's converged review qualities (from [`riggs::solve`]).
///
/// The result is indexed by **local writer index** (ascending user id);
/// pair it with [`CategorySlice::writer_of_local`].
///
/// [`riggs::solve`]: crate::riggs::solve
pub fn writer_reputation(
    slice: &CategorySlice,
    review_quality: &[f64],
    cfg: &DeriveConfig,
) -> Vec<f64> {
    debug_assert_eq!(review_quality.len(), slice.num_reviews());
    writer_reputation_flat(
        &slice.review_writer_local,
        slice.writer_of_local.len(),
        review_quality,
        cfg,
    )
}

/// Eq. 3 as one ascending pass over the writer column
/// (`review_writer_local[j]` = local review `j`'s local writer), for the
/// batch slice and the incremental model alike. Each writer's sum takes
/// its own qualities in ascending review from `-0.0`: the bits
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

/// The original `HashMap`-keyed formulation of Eq. 3 — the baseline
/// mirror of [`writer_reputation`], used by
/// [`pipeline::derive_baseline`](crate::pipeline::derive_baseline) so the
/// formula exists in exactly two audited copies (dense and reference),
/// not scattered inline.
pub fn writer_reputation_map(
    slice: &CategorySlice,
    review_quality: &[f64],
    cfg: &DeriveConfig,
) -> std::collections::HashMap<UserId, f64> {
    debug_assert_eq!(review_quality.len(), slice.num_reviews());
    slice
        .reviews_by_writer()
        .iter()
        .map(|(&writer, locals)| {
            let n = locals.len();
            debug_assert!(n > 0, "writer entry with no reviews");
            let mean_q: f64 = locals
                .iter()
                .map(|&l| review_quality[l as usize])
                .sum::<f64>()
                / n as f64;
            (writer, mean_q * cfg.discount(n))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use wot_community::{CommunityBuilder, RatingScale};

    use super::*;

    #[test]
    fn matches_hand_computation() {
        // Writer w with two reviews of quality 0.64 and 0.6:
        // ū^w = ((0.64 + 0.6)/2) · (1 − 1/3) = 0.62 · 2/3 ≈ 0.41333
        let mut b = CommunityBuilder::new(RatingScale::five_step());
        let a = b.add_user("a");
        let w = b.add_user("w");
        let cat = b.add_category("cat");
        let o1 = b.add_object("o1", cat).unwrap();
        let o2 = b.add_object("o2", cat).unwrap();
        let r0 = b.add_review(w, o1).unwrap();
        let _r1 = b.add_review(w, o2).unwrap();
        b.add_rating(a, r0, 0.8).unwrap();
        let slice = b.build().category_slice(cat).unwrap();
        let rep = writer_reputation(&slice, &[0.64, 0.6], &DeriveConfig::default());
        assert_eq!(rep.len(), 1);
        assert_eq!(slice.writer_of_local, vec![w]);
        assert!((rep[0] - 0.62 * (2.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn more_high_quality_reviews_beat_fewer() {
        // One writer with three quality-0.8 reviews vs one with a single
        // quality-0.8 review: the discount rewards the prolific writer.
        let mut b = CommunityBuilder::new(RatingScale::five_step());
        let _a = b.add_user("a");
        let w1 = b.add_user("w1");
        let w2 = b.add_user("w2");
        let cat = b.add_category("cat");
        for (w, n) in [(w1, 3usize), (w2, 1usize)] {
            for k in 0..n {
                let o = b.add_object(format!("o-{w}-{k}"), cat).unwrap();
                b.add_review(w, o).unwrap();
            }
        }
        let slice = b.build().category_slice(cat).unwrap();
        // Local review order: w1's three, then w2's one.
        let q = vec![0.8, 0.8, 0.8, 0.8];
        let rep = writer_reputation(&slice, &q, &DeriveConfig::default());
        let l1 = slice.local_of_writer()[&w1] as usize;
        let l2 = slice.local_of_writer()[&w2] as usize;
        assert!(rep[l1] > rep[l2]);
        assert!((rep[l1] - 0.8 * 0.75).abs() < 1e-12);
        assert!((rep[l2] - 0.8 * 0.5).abs() < 1e-12);
    }

    #[test]
    fn ablated_discount_is_pure_mean() {
        let mut b = CommunityBuilder::new(RatingScale::five_step());
        let w = b.add_user("w");
        let cat = b.add_category("cat");
        let o = b.add_object("o", cat).unwrap();
        b.add_review(w, o).unwrap();
        let slice = b.build().category_slice(cat).unwrap();
        let cfg = DeriveConfig::builder()
            .experience_discount(false)
            .build()
            .unwrap();
        let rep = writer_reputation(&slice, &[0.9], &cfg);
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
        let slice = b.build().category_slice(cat).unwrap();
        let q = vec![0.9, 0.5, 0.7];
        let cfg = DeriveConfig::default();
        let dense = writer_reputation(&slice, &q, &cfg);
        let map = writer_reputation_map(&slice, &q, &cfg);
        assert_eq!(map.len(), dense.len());
        for (l, &u) in slice.writer_of_local.iter().enumerate() {
            assert_eq!(map[&u], dense[l]);
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
        let slice = b.build().category_slice(cat).unwrap();
        // Inexact qualities, so a change of summation order could show.
        let q: Vec<f64> = (0..order.len())
            .map(|k| 0.1 + 0.7 / (k as f64 + 3.0))
            .collect();
        for discount in [true, false] {
            let cfg = DeriveConfig::builder()
                .experience_discount(discount)
                .build()
                .unwrap();
            let flat = writer_reputation(&slice, &q, &cfg);
            let map = writer_reputation_map(&slice, &q, &cfg);
            assert_eq!(map.len(), flat.len());
            for (l, &u) in slice.writer_of_local.iter().enumerate() {
                assert_eq!(map[&u].to_bits(), flat[l].to_bits(), "writer {u}");
            }
        }
    }

    #[test]
    fn empty_slice_yields_empty_vec() {
        let mut b = CommunityBuilder::new(RatingScale::five_step());
        b.add_user("u");
        let cat = b.add_category("cat");
        let slice = b.build().category_slice(cat).unwrap();
        assert!(writer_reputation(&slice, &[], &DeriveConfig::default()).is_empty());
    }
}
