//! The Users×Category expertise matrix `E` (Step 1's output).
//!
//! `E_ic` is user `i`'s writer reputation in category `c`; users who wrote
//! nothing in a category hold expertise 0 there.

use std::collections::HashMap;

use wot_community::UserId;
use wot_sparse::Dense;

/// Assembles `E` from per-category writer-reputation maps.
///
/// `per_category[c]` must be the writer-reputation map of category `c`
/// (categories indexed densely, as in
/// [`CommunityStore::categories`](wot_community::CommunityStore::categories)).
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

/// Assembles `E` from per-category `(writer, reputation)` pair lists — the
/// index-dense pipeline's native output shape
/// ([`CategoryReputation::writer_reputation`](crate::CategoryReputation)).
pub fn expertise_matrix_from_pairs(num_users: usize, per_category: &[&[(UserId, f64)]]) -> Dense {
    let ncols = per_category.len();
    let mut e = vec![0.0; num_users * ncols];
    for (c, writers) in per_category.iter().enumerate() {
        for &(u, rep) in *writers {
            e[u.index() * ncols + c] = rep;
        }
    }
    Dense::from_vec(num_users, ncols, e).expect("shape matches the buffer")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_rows_and_columns() {
        let mut c0 = HashMap::new();
        c0.insert(UserId(1), 0.7);
        let mut c1 = HashMap::new();
        c1.insert(UserId(1), 0.2);
        c1.insert(UserId(2), 0.9);
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
        assert_eq!(e.row_sums(), vec![0.0, 0.0]);
    }

    #[test]
    fn pairs_form_matches_map_form() {
        let mut c0 = HashMap::new();
        c0.insert(UserId(1), 0.7);
        let mut c1 = HashMap::new();
        c1.insert(UserId(1), 0.2);
        c1.insert(UserId(2), 0.9);
        let from_maps = expertise_matrix(3, &[c0, c1]);
        let p0 = [(UserId(1), 0.7)];
        let p1 = [(UserId(1), 0.2), (UserId(2), 0.9)];
        let from_pairs = expertise_matrix_from_pairs(3, &[&p0, &p1]);
        assert_eq!(from_maps, from_pairs);
    }
}
