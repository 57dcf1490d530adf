//! Dataset descriptive statistics.
//!
//! Mirrors the numbers the paper reports about its crawl ("44,197 users …
//! 429,955 trust connectivity", Table 2/3's per-sub-category rater and
//! writer counts) so synthetic datasets can be compared against the paper's
//! shape at a glance.

use std::collections::HashSet;

use crate::{CategoryId, CommunityStore, UserId};

/// Per-category activity counts — one row of the paper's Table 2/3 "Rater
/// Total" style columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CategoryStats {
    /// The category.
    pub category: CategoryId,
    /// Category name.
    pub name: String,
    /// Reviews written in the category.
    pub reviews: usize,
    /// Ratings given in the category.
    pub ratings: usize,
    /// Distinct writers.
    pub writers: usize,
    /// Distinct raters.
    pub raters: usize,
}

/// Whole-dataset statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct CommunityStats {
    /// Total users.
    pub users: usize,
    /// Users with ≥1 review or rating.
    pub active_users: usize,
    /// Total categories.
    pub categories: usize,
    /// Total objects.
    pub objects: usize,
    /// Total reviews.
    pub reviews: usize,
    /// Total ratings.
    pub ratings: usize,
    /// Total explicit trust statements.
    pub trust_statements: usize,
    /// Mean ratings received per review.
    pub mean_ratings_per_review: f64,
    /// Per-category breakdown.
    pub per_category: Vec<CategoryStats>,
}

impl CommunityStats {
    /// Computes statistics for `store`.
    pub fn of(store: &CommunityStore) -> Self {
        let mut per_category = Vec::with_capacity(store.num_categories());
        for c in store.categories() {
            let reviews = store.reviews_in_category(c.id);
            let mut writers: HashSet<UserId> = HashSet::new();
            let mut raters: HashSet<UserId> = HashSet::new();
            let mut ratings = 0usize;
            for &rid in reviews {
                writers.insert(store.reviews()[rid.index()].writer);
                let (rated_by, _) = store.ratings_of_review(rid);
                raters.extend(rated_by.iter().map(|&r| UserId(r)));
                ratings += rated_by.len();
            }
            per_category.push(CategoryStats {
                category: c.id,
                name: c.name.clone(),
                reviews: reviews.len(),
                ratings,
                writers: writers.len(),
                raters: raters.len(),
            });
        }
        Self {
            users: store.num_users(),
            active_users: store.active_users().len(),
            categories: store.num_categories(),
            objects: store.objects().len(),
            reviews: store.num_reviews(),
            ratings: store.num_ratings(),
            trust_statements: store.num_trust(),
            mean_ratings_per_review: if store.num_reviews() == 0 {
                0.0
            } else {
                store.num_ratings() as f64 / store.num_reviews() as f64
            },
            per_category,
        }
    }
}

impl std::fmt::Display for CommunityStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "users={} (active {}), categories={}, objects={}, reviews={}, ratings={}, trust={}",
            self.users,
            self.active_users,
            self.categories,
            self.objects,
            self.reviews,
            self.ratings,
            self.trust_statements
        )?;
        for c in &self.per_category {
            writeln!(
                f,
                "  [{}] {}: reviews={} ratings={} writers={} raters={}",
                c.category, c.name, c.reviews, c.ratings, c.writers, c.raters
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{CommunityBuilder, RatingScale};

    use super::*;

    #[test]
    fn stats_counts_match() {
        let mut b = CommunityBuilder::new(RatingScale::five_step());
        let u0 = b.add_user("u0");
        let u1 = b.add_user("u1");
        b.add_user("lurker");
        let c0 = b.add_category("c0");
        let c1 = b.add_category("c1");
        let o0 = b.add_object("o0", c0).unwrap();
        let r0 = b.add_review(u1, o0).unwrap();
        b.add_rating(u0, r0, 0.8).unwrap();
        b.add_trust(u0, u1).unwrap();
        let s = b.build();
        let stats = CommunityStats::of(&s);
        assert_eq!(stats.users, 3);
        assert_eq!(stats.active_users, 2);
        assert_eq!(stats.reviews, 1);
        assert_eq!(stats.ratings, 1);
        assert_eq!(stats.trust_statements, 1);
        assert_eq!(stats.mean_ratings_per_review, 1.0);
        assert_eq!(stats.per_category.len(), 2);
        assert_eq!(stats.per_category[0].writers, 1);
        assert_eq!(stats.per_category[0].raters, 1);
        assert_eq!(stats.per_category[1].reviews, 0);
        assert_eq!(stats.per_category[1].name, "c1");
        let _ = c1; // category exists but is empty
        assert!(stats.to_string().contains("users=3"));
    }

    #[test]
    fn empty_store_stats() {
        let s = CommunityBuilder::new(RatingScale::five_step()).build();
        let stats = CommunityStats::of(&s);
        assert_eq!(stats.users, 0);
        assert_eq!(stats.mean_ratings_per_review, 0.0);
    }
}
