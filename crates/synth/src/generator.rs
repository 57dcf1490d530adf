//! The generation pipeline: factors → reviews → ratings → trust → labels.
//!
//! Every phase samples its per-user randomness from an independent
//! counter-based stream ([`rng::stream`]), so the per-user work fans out
//! across worker threads while the emitted dataset stays **bit-identical
//! for any thread count** — the draws of user `i` depend only on the
//! phase key and `i`, never on which thread ran them or in what order.
//! Mutation of the [`CommunityBuilder`] happens in a sequential merge in
//! user order, which also pins every id assignment.

use std::collections::{HashMap, HashSet};

use rand::Rng;
use wot_community::{CategoryId, CommunityBuilder, ObjectId, RatingScale, ReviewId, UserId};
use wot_sparse::Dense;

use crate::dist::{self, WeightedIndex};
use crate::latent::UserFactors;
use crate::rng::{stream, Xoshiro256pp};
use crate::{GroundTruth, SynthConfig, SynthConfigError, SynthOutput};

/// How many times a rejected draw (duplicate review/rating, self-edge) is
/// retried before the attempt is skipped. Collisions are rare at realistic
/// densities; the cap bounds worst-case work on saturated tiny configs.
const MAX_RETRIES: usize = 8;

/// A review's bookkeeping during generation.
struct ReviewInfo {
    writer: usize,
    quality: f64,
}

/// Generates a community from `cfg` on all hardware threads.
/// Deterministic in `cfg.seed` — the thread count cannot change a single
/// bit of the output (see [`generate_with_threads`]).
pub fn generate(cfg: &SynthConfig) -> Result<SynthOutput, SynthConfigError> {
    generate_with_threads(cfg, 0)
}

/// [`generate`] with an explicit worker-thread count (`0` = all hardware
/// threads, `1` = sequential). The dataset is a pure function of `cfg`:
/// every per-user sampling task draws from its own counter-based RNG
/// stream and results merge in user order, so any two thread counts
/// produce bit-identical stores and ground truth.
pub fn generate_with_threads(
    cfg: &SynthConfig,
    threads: usize,
) -> Result<SynthOutput, SynthConfigError> {
    cfg.validate()?;
    let mut master = Xoshiro256pp::seed_from_u64(cfg.seed);
    // One key per phase, in a fixed order: adding a phase (or re-keying
    // one) never perturbs the draws of the others.
    let k_factors = master.fork(0xFAC7).next_u64_impl();
    let k_reviews = master.fork(0x7EF1).next_u64_impl();
    let k_ratings = master.fork(0x2A71).next_u64_impl();
    let k_trust = master.fork(0x7277).next_u64_impl();
    let k_labels = master.fork(0x1ABE).next_u64_impl();

    let u = cfg.num_users;
    let c = cfg.num_categories;
    let factors: Vec<UserFactors> = wot_par::par_map_indexed(u, threads, |i| {
        UserFactors::sample(&mut stream(k_factors, i), cfg)
    });

    let mut b = CommunityBuilder::new(RatingScale::five_step());
    for i in 0..u {
        b.add_user(format!("user-{i:06}"));
    }
    for cat in 0..c {
        b.add_category(format!("category-{cat:02}"));
    }
    for cat in 0..c {
        for o in 0..cfg.objects_per_category {
            b.add_object(
                format!("object-{cat:02}-{o:05}"),
                CategoryId::from_index(cat),
            )
            .expect("categories registered above");
        }
    }
    let object_id = |cat: usize, o: usize| ObjectId::from_index(cat * cfg.objects_per_category + o);

    // ---- phase 1: reviews -------------------------------------------------
    // Parallel sampling: each user picks (category, object, quality)
    // triples against only their own dedup set — a review collides only
    // with the same user reviewing the same object, so the draw is
    // embarrassingly parallel. The sequential merge assigns ReviewIds.
    let max_reviews_per_user = c * cfg.objects_per_category;
    let review_plans: Vec<Vec<(usize, usize, f64)>> = wot_par::par_map_indexed(u, threads, |i| {
        let f = &factors[i];
        let mut rng = stream(k_reviews, i);
        let Some(affinity_idx) = WeightedIndex::new(&f.affinity) else {
            return Vec::new();
        };
        let n = (dist::poisson(&mut rng, cfg.mean_reviews_per_user * f.activity) as usize)
            .min(max_reviews_per_user);
        let mut taken: HashSet<(usize, usize)> = HashSet::new();
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            for _attempt in 0..MAX_RETRIES {
                let cat = affinity_idx.sample(&mut rng);
                let o = rng.gen_range(0..cfg.objects_per_category);
                if !taken.insert((cat, o)) {
                    continue; // already reviewed this object; retry
                }
                let quality = (f.expertise[cat] + dist::normal(&mut rng, 0.0, cfg.quality_noise))
                    .clamp(0.0, 1.0);
                out.push((cat, o, quality));
                break;
            }
        }
        out
    });

    let mut reviews: Vec<ReviewInfo> = Vec::new();
    let mut reviews_by_cat: Vec<Vec<ReviewId>> = vec![Vec::new(); c];
    let mut review_counts = vec![vec![0u32; c]; u]; // n^w per user per category
    for (i, plan) in review_plans.into_iter().enumerate() {
        for (cat, o, quality) in plan {
            let rid = b
                .add_review(UserId::from_index(i), object_id(cat, o))
                .expect("deduplicated per user; reviews cannot collide across users");
            debug_assert_eq!(rid.index(), reviews.len());
            reviews.push(ReviewInfo { writer: i, quality });
            reviews_by_cat[cat].push(rid);
            review_counts[i][cat] += 1;
        }
    }

    // ---- phase 2: ratings -------------------------------------------------
    let scale = RatingScale::five_step();
    // Visibility-weighted review indexes per category: expert, prolific
    // writers attract disproportionately many ratings (featured reviews).
    let review_popularity: Vec<Option<WeightedIndex>> = reviews_by_cat
        .iter()
        .enumerate()
        .map(|(cat, rids)| {
            let weights: Vec<f64> = rids
                .iter()
                .map(|rid| {
                    let w = reviews[rid.index()].writer;
                    let f = &factors[w];
                    (0.05 + f.expertise[cat]).powi(4) * f.activity
                })
                .collect();
            WeightedIndex::new(&weights)
        })
        .collect();
    // Parallel sampling against the read-only review tables: a rating
    // collides only with the same user rating the same review, so each
    // user's dedup set is again local.
    let total_reviews = reviews.len();
    let rating_plans: Vec<Vec<(ReviewId, f64)>> = wot_par::par_map_indexed(u, threads, |i| {
        if total_reviews == 0 {
            return Vec::new();
        }
        let f = &factors[i];
        let mut rng = stream(k_ratings, i);
        let Some(affinity_idx) = WeightedIndex::new(&f.affinity) else {
            return Vec::new();
        };
        let m = (dist::poisson(&mut rng, cfg.mean_ratings_per_user * f.activity) as usize)
            .min(total_reviews);
        let sd = f.rating_noise_sd(cfg);
        let mut taken: HashSet<u32> = HashSet::new();
        let mut out = Vec::with_capacity(m);
        for _ in 0..m {
            for _attempt in 0..MAX_RETRIES {
                let cat = affinity_idx.sample(&mut rng);
                if reviews_by_cat[cat].is_empty() {
                    continue;
                }
                let pick = match review_popularity[cat].as_ref() {
                    Some(pop) if rng.gen::<f64>() < cfg.popularity_bias => pop.sample(&mut rng),
                    _ => rng.gen_range(0..reviews_by_cat[cat].len()),
                };
                let rid = reviews_by_cat[cat][pick];
                let info = &reviews[rid.index()];
                if info.writer == i {
                    continue; // own review
                }
                if !taken.insert(rid.index() as u32) {
                    continue; // duplicate rating; retry elsewhere
                }
                let observed = scale.quantize(
                    (info.quality + cfg.rating_generosity + dist::normal(&mut rng, 0.0, sd))
                        .clamp(0.0, 1.0),
                );
                out.push((rid, observed));
                break;
            }
        }
        out
    });
    // The rating draws' lookup tables; nothing below reads them.
    drop((review_popularity, reviews_by_cat));

    // Per user: writers they rated and the sum/count of values given —
    // the direct-experience candidate pool for trust formation.
    let mut rated_writers: Vec<HashMap<u32, (f64, u32)>> = vec![HashMap::new(); u];
    for (i, plan) in rating_plans.into_iter().enumerate() {
        for (rid, observed) in plan {
            b.add_rating(UserId::from_index(i), rid, observed)
                .expect("deduplicated per user; on-scale by quantization");
            let entry = rated_writers[i]
                .entry(reviews[rid.index()].writer as u32)
                .or_insert((0.0, 0));
            entry.0 += observed;
            entry.1 += 1;
        }
    }

    // ---- phase 3: ground-truth trust ---------------------------------------
    // Word-of-mouth visibility per category: experts are discoverable in
    // proportion to expertise³ × (1 + reviews written there). Users who
    // never wrote in a category are invisible through this channel.
    let mut visibility: Vec<Option<WeightedIndex>> = Vec::with_capacity(c);
    #[allow(clippy::needless_range_loop)] // `cat` indexes two parallel tables
    for cat in 0..c {
        let weights: Vec<f64> = (0..u)
            .map(|j| {
                let n_written = review_counts[j][cat] as f64;
                if n_written == 0.0 {
                    0.0
                } else {
                    factors[j].expertise[cat].powi(3) * (1.0 + n_written.ln_1p())
                }
            })
            .collect();
        visibility.push(WeightedIndex::new(&weights));
    }
    let max_trust_per_user = u.saturating_sub(1);
    // Parallel sampling of each user's outgoing edges (plus a reciprocity
    // flag per edge). Each user dedups only their own targets; the rare
    // cross-user duplicate — an edge a reciprocity pass already added —
    // is dropped at merge time, deterministically.
    let trust_plans: Vec<Vec<(u32, bool)>> = wot_par::par_map_indexed(u, threads, |i| {
        let f = &factors[i];
        let mut rng = stream(k_trust, i);
        let k = (dist::poisson(&mut rng, cfg.trust_edges_per_user * f.activity) as usize)
            .min(max_trust_per_user);
        let affinity_idx = WeightedIndex::new(&f.affinity);
        // Direct pool: writers i has rated. Pool *composition* is already
        // affinity-driven (users rate in the categories they care about),
        // which is what aligns stated trust with the derived T̂; the
        // *choice* within the pool follows experienced helpfulness with a
        // mild expertise-match tilt. Keeping the choice mostly
        // experience-driven leaves the very top T̂ pairs (celebrity experts
        // everyone rates but few get around to trusting) in R−T — the
        // §IV.C phenomenon.
        // HashMap iteration order is instance-random; sort by writer id
        // BEFORE drawing any randomness so the perception-noise stream is
        // consumed in a fixed order on every run with this seed.
        let mut pool: Vec<(u32, f64, u32)> = rated_writers[i]
            .iter()
            .map(|(&w, &(sum, cnt))| (w, sum, cnt))
            .collect();
        pool.sort_unstable_by_key(|&(w, _, _)| w);
        let direct: Vec<(u32, f64)> = pool
            .into_iter()
            .map(|(w, sum, cnt)| {
                let writer = &factors[w as usize];
                let match_score: f64 = f
                    .affinity
                    .iter()
                    .zip(&writer.expertise)
                    .map(|(&a, &e)| a * e)
                    .sum();
                // Perceived expertise = latent match blurred by log-normal
                // perception noise: trust decisions are expertise-driven
                // (keeping the mean-rating baseline weak) but imperfect, so
                // the very top T̂ pairs are *under*-sampled into stated
                // trust and surface in R−T instead (§IV.C).
                let perceived = match_score * dist::normal(&mut rng, 0.0, 0.8).exp();
                let satisfaction = 0.25 + sum / cnt as f64;
                (w, (0.05 + perceived) * satisfaction)
            })
            .collect();
        let direct_idx = WeightedIndex::new(&direct.iter().map(|&(_, w)| w).collect::<Vec<f64>>());
        let mut chosen: HashSet<u32> = HashSet::new();
        let mut out = Vec::with_capacity(k);
        for _ in 0..k {
            for _attempt in 0..MAX_RETRIES {
                let roll: f64 = rng.gen();
                let target: usize = if roll < cfg.trust_noise {
                    rng.gen_range(0..u)
                } else if roll < cfg.trust_noise + cfg.trust_direct_bias && direct_idx.is_some() {
                    let idx = direct_idx.as_ref().expect("checked is_some");
                    direct[idx.sample(&mut rng)].0 as usize
                } else {
                    // Word of mouth: category by affinity, then an expert
                    // visible in it.
                    let Some(aff) = affinity_idx.as_ref() else {
                        continue;
                    };
                    let cat = aff.sample(&mut rng);
                    let Some(vis) = visibility[cat].as_ref() else {
                        continue;
                    };
                    vis.sample(&mut rng)
                };
                if target == i || !chosen.insert(target as u32) {
                    continue; // self or duplicate; retry
                }
                let reciprocal = rng.gen::<f64>() < cfg.reciprocity;
                out.push((target as u32, reciprocal));
                break;
            }
        }
        out
    });
    // Sampling scaffolding: nothing below reads it, and the store's
    // indexes are about to be built beside the builder's tables.
    drop((rated_writers, visibility, review_counts));
    for (i, plan) in trust_plans.into_iter().enumerate() {
        for (target, reciprocal) in plan {
            let target = target as usize;
            // A duplicate here means an earlier user's reciprocity pass
            // already created the edge; the draw is simply dropped.
            let added = b
                .add_trust(UserId::from_index(i), UserId::from_index(target))
                .is_ok();
            if added && reciprocal {
                let _ = b.add_trust(UserId::from_index(target), UserId::from_index(i));
            }
        }
    }

    // ---- phase 4: editorial labels -----------------------------------------
    // Advisors: quality × quantity of ratings. "Quality" is judged the way
    // a site editor can judge it — closeness to each review's *observed*
    // crowd consensus (the latent quality is shifted by the generosity
    // ceiling, which every rater shares, so it is the wrong reference).
    // The sums follow insertion order, read off the builder's own list.
    let mut obs_sum = vec![0.0f64; reviews.len()];
    let mut obs_cnt = vec![0u32; reviews.len()];
    for rt in b.ratings() {
        obs_sum[rt.review.index()] += rt.value;
        obs_cnt[rt.review.index()] += 1;
    }
    let mut rating_err_sum = vec![0.0f64; u];
    let mut rating_cnt = vec![0u32; u];
    for rt in b.ratings() {
        let consensus = obs_sum[rt.review.index()] / obs_cnt[rt.review.index()] as f64;
        rating_err_sum[rt.rater.index()] += (rt.value - consensus).abs();
        rating_cnt[rt.rater.index()] += 1;
    }
    // Freed before the store's indexes are built beside the builder.
    drop((obs_sum, obs_cnt));
    let store = b.build();
    let mut quality_sum = vec![0.0f64; u];
    let mut written_cnt = vec![0u32; u];
    for info in &reviews {
        quality_sum[info.writer] += info.quality;
        written_cnt[info.writer] += 1;
    }
    // Each user's editorial noise pair (advisor draw, then reviewer draw)
    // comes from their own stream, drawn unconditionally so the streams
    // stay aligned however the activity counts fall.
    let editorial: Vec<(f64, f64)> = wot_par::par_map_indexed(u, threads, |i| {
        let mut rng = stream(k_labels, i);
        let advisor = dist::normal(&mut rng, 0.0, cfg.label_noise).exp();
        let reviewer = dist::normal(&mut rng, 0.0, cfg.label_noise).exp();
        (advisor, reviewer)
    });
    let advisor_scores: Vec<f64> = (0..u)
        .map(|i| {
            if rating_cnt[i] == 0 {
                return 0.0;
            }
            let mean_err = rating_err_sum[i] / rating_cnt[i] as f64;
            // Cubing the quality term keeps "quality of ratings" dominant
            // over sheer volume, as Epinions' Advisor selection describes.
            (1.0 - mean_err).max(0.0).powi(3)
                * (1.0 + (rating_cnt[i] as f64).ln_1p())
                * editorial[i].0
        })
        .collect();
    let advisors = top_k_users(&advisor_scores, cfg.num_advisors);

    // Top Reviewers: quality × quantity of reviews written.
    let reviewer_scores: Vec<f64> = (0..u)
        .map(|i| {
            if written_cnt[i] == 0 {
                return 0.0;
            }
            let mean_q = quality_sum[i] / written_cnt[i] as f64;
            mean_q * (1.0 + (written_cnt[i] as f64).ln_1p()) * editorial[i].1
        })
        .collect();
    let top_reviewers = top_k_users(&reviewer_scores, cfg.num_top_reviewers);

    // ---- assemble ground truth ---------------------------------------------
    let mut affinity = Dense::zeros(u, c);
    let mut expertise = Dense::zeros(u, c);
    for (i, f) in factors.iter().enumerate() {
        affinity.row_mut(i).copy_from_slice(&f.affinity);
        expertise.row_mut(i).copy_from_slice(&f.expertise);
    }
    let truth = GroundTruth {
        affinity,
        expertise,
        reliability: factors.iter().map(|f| f.reliability).collect(),
        activity: factors.iter().map(|f| f.activity).collect(),
        review_quality: reviews.iter().map(|r| r.quality).collect(),
        advisors,
        top_reviewers,
    };
    Ok(SynthOutput { store, truth })
}

/// Ids of the `k` highest-scoring users (score > 0), descending, with the
/// user id as a deterministic tie-break.
fn top_k_users(scores: &[f64], k: usize) -> Vec<UserId> {
    let mut order: Vec<usize> = (0..scores.len()).filter(|&i| scores[i] > 0.0).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    order.truncate(k);
    order.into_iter().map(UserId::from_index).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{Hash, Hasher};

    /// A digest over every bit of an output: review topology, rating
    /// values, the trust pattern, and the ground-truth payloads.
    fn digest(out: &SynthOutput) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for r in out.store.reviews() {
            (r.writer.0, r.object.0, r.category.0).hash(&mut h);
        }
        for rt in out.store.ratings() {
            (rt.rater.0, rt.review.0, rt.value.to_bits()).hash(&mut h);
        }
        for (i, j, _) in out.store.trust_matrix().iter() {
            (i as u64, j as u64).hash(&mut h);
        }
        for &x in out.truth.affinity.as_slice() {
            x.to_bits().hash(&mut h);
        }
        for &x in out.truth.expertise.as_slice() {
            x.to_bits().hash(&mut h);
        }
        for &x in &out.truth.review_quality {
            x.to_bits().hash(&mut h);
        }
        for &x in &out.truth.reliability {
            x.to_bits().hash(&mut h);
        }
        out.truth.advisors.hash(&mut h);
        out.truth.top_reviewers.hash(&mut h);
        h.finish()
    }

    /// The satellite's core claim: the worker-thread count cannot change
    /// one bit of the emitted dataset.
    #[test]
    fn thread_count_never_changes_the_dataset() {
        let cfg = SynthConfig::tiny(42);
        let sequential = digest(&generate_with_threads(&cfg, 1).unwrap());
        for threads in [2usize, 5, 0] {
            let parallel = digest(&generate_with_threads(&cfg, threads).unwrap());
            assert_eq!(parallel, sequential, "threads={threads}");
        }
        // And `generate` itself is the all-hardware spelling of the same.
        assert_eq!(digest(&generate(&cfg).unwrap()), sequential);
    }

    /// The benchmark's laptop community (its default seed), bit for bit:
    /// a change to the generator or to the store it builds must leave
    /// this dataset alone. `DefaultHasher::new()` is SipHash under fixed
    /// keys, so the digest is the same on every run; were a toolchain to
    /// change that algorithm, re-derive the constant on the parent commit.
    #[test]
    fn laptop_community_is_pinned() {
        let out = generate(&SynthConfig::laptop(20080407)).unwrap();
        assert_eq!(digest(&out), 6_087_901_436_980_525_238);
    }

    #[test]
    fn tiny_generation_produces_activity() {
        let out = generate(&SynthConfig::tiny(1)).unwrap();
        let s = &out.store;
        assert_eq!(s.num_users(), 200);
        assert_eq!(s.num_categories(), 4);
        assert!(s.num_reviews() > 50, "reviews: {}", s.num_reviews());
        assert!(s.num_ratings() > 500, "ratings: {}", s.num_ratings());
        assert!(s.num_trust() > 200, "trust: {}", s.num_trust());
        assert_eq!(out.truth.review_quality.len(), s.num_reviews());
        assert_eq!(out.truth.reliability.len(), 200);
        assert_eq!(out.truth.advisors.len(), 8);
        assert_eq!(out.truth.top_reviewers.len(), 12);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&SynthConfig::tiny(77)).unwrap();
        let b = generate(&SynthConfig::tiny(77)).unwrap();
        assert_eq!(a.store.num_reviews(), b.store.num_reviews());
        assert_eq!(a.store.num_ratings(), b.store.num_ratings());
        assert_eq!(a.store.num_trust(), b.store.num_trust());
        assert_eq!(a.truth.advisors, b.truth.advisors);
        for (x, y) in a.store.ratings().iter().zip(b.store.ratings()) {
            assert_eq!(x.rater, y.rater);
            assert_eq!(x.review, y.review);
            assert_eq!(x.value, y.value);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&SynthConfig::tiny(1)).unwrap();
        let b = generate(&SynthConfig::tiny(2)).unwrap();
        // Extremely unlikely to coincide.
        assert!(
            a.store.num_ratings() != b.store.num_ratings() || a.truth.advisors != b.truth.advisors
        );
    }

    #[test]
    fn ratings_are_on_scale_and_quality_in_range() {
        let out = generate(&SynthConfig::tiny(5)).unwrap();
        let scale = RatingScale::five_step();
        for rt in out.store.ratings() {
            assert!(scale.is_valid(rt.value));
        }
        for &q in &out.truth.review_quality {
            assert!((0.0..=1.0).contains(&q));
        }
    }

    #[test]
    fn trust_overlaps_direct_connections() {
        // The paper's Table 4 requires a substantial T ∩ R region.
        let out = generate(&SynthConfig::tiny(9)).unwrap();
        let t = out.store.trust_matrix();
        let r = out.store.direct_connection_matrix();
        let overlap = t.pattern_overlap(&r).unwrap();
        assert!(
            overlap as f64 >= 0.3 * t.nnz() as f64,
            "T∩R = {} of |T| = {}",
            overlap,
            t.nnz()
        );
        // But not total containment: word-of-mouth creates T − R edges.
        assert!(overlap < t.nnz(), "expected some trust edges outside R");
    }

    #[test]
    fn advisors_have_high_reliability() {
        let out = generate(&SynthConfig::tiny(13)).unwrap();
        let mean_all: f64 =
            out.truth.reliability.iter().sum::<f64>() / out.truth.reliability.len() as f64;
        let mean_advisors: f64 = out
            .truth
            .advisors
            .iter()
            .map(|&a| out.truth.reliability[a.index()])
            .sum::<f64>()
            / out.truth.advisors.len() as f64;
        assert!(
            mean_advisors > mean_all,
            "advisors ({mean_advisors:.3}) should beat population ({mean_all:.3})"
        );
    }

    #[test]
    fn top_k_users_ordering() {
        let ids = top_k_users(&[0.1, 0.9, 0.0, 0.9, 0.5], 3);
        assert_eq!(ids, vec![UserId(1), UserId(3), UserId(4)]);
        assert!(top_k_users(&[0.0, 0.0], 2).is_empty());
    }

    #[test]
    fn invalid_config_rejected() {
        let mut cfg = SynthConfig::tiny(1);
        cfg.num_categories = 0;
        assert!(generate(&cfg).is_err());
    }
}
