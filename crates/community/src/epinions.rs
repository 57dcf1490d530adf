//! Ingestion of the *extended Epinions* flat-file format.
//!
//! The publicly redistributed Epinions research dumps (the "extended
//! Epinions dataset" used throughout the trust literature) ship as three
//! whitespace/tab-separated flat files rather than this crate's native
//! TSV directory:
//!
//! * a **content** file — `content_id author_id subject_id` per line: one
//!   authored piece of content (a review) about a subject (we map subjects
//!   to categories),
//! * a **ratings** file — `content_id member_id rating` per line, with
//!   ratings on a 1..5 helpfulness scale,
//! * a **trust** file — `source_id target_id value` per line (value 1 =
//!   trust; other values, e.g. block-list entries, are skipped).
//!
//! [`load_flat`] converts those into a validated [`CommunityStore`]:
//! external ids are interned in first-appearance order, 1..5 ratings map
//! onto the paper's 0.2..1.0 scale, and records violating the data model
//! (self-ratings, dangling references, malformed lines) are either
//! skipped or reported, per [`FlatOptions::strict`]. A repeated (member,
//! content) rating line is treated as a **revision** in lenient mode —
//! upserted in place so the latest value wins, counted in
//! [`FlatReport::revised`] — and as a violation in strict mode.

use std::collections::HashMap;
use std::fs;
use std::io::{BufRead, BufReader};
use std::path::Path;

use crate::{
    CategoryId, CommunityBuilder, CommunityError, CommunityStore, ObjectId, RatingScale, Result,
    ReviewId, UserId,
};

/// Parse options for the flat format.
#[derive(Debug, Clone)]
pub struct FlatOptions {
    /// `true`: any malformed or model-violating line aborts with an error.
    /// `false` (default): such lines are skipped and counted.
    pub strict: bool,
    /// Lines starting with this prefix are comments.
    pub comment_prefix: char,
}

impl Default for FlatOptions {
    fn default() -> Self {
        Self {
            strict: false,
            comment_prefix: '#',
        }
    }
}

/// Ingestion statistics: how much of the raw dump survived validation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlatReport {
    /// Content lines accepted.
    pub reviews: usize,
    /// Rating lines accepted (first rating of a (member, content) pair).
    pub ratings: usize,
    /// Rating lines that revised an earlier rating of the same (member,
    /// content) pair — upserted in place, latest value wins (lenient mode
    /// only; strict mode aborts on them).
    pub revised: usize,
    /// Trust lines accepted.
    pub trust: usize,
    /// Lines skipped (malformed, duplicate, self-referential, dangling).
    pub skipped: usize,
}

fn read_lines(path: &Path) -> Result<Vec<(usize, String)>> {
    let f = fs::File::open(path).map_err(|e| CommunityError::io(path.display().to_string(), e))?;
    let mut out = Vec::new();
    for (i, line) in BufReader::new(f).lines().enumerate() {
        let line = line.map_err(|e| CommunityError::io(path.display().to_string(), e))?;
        out.push((i + 1, line));
    }
    Ok(out)
}

/// Maps a 1..5 integer helpfulness rating to the paper's 0.2..1.0 scale.
fn map_rating(level: u32) -> Option<f64> {
    match level {
        1..=5 => Some(level as f64 * 0.2),
        _ => None,
    }
}

/// Loads an extended-Epinions-style dump. See the module docs for the
/// expected file shapes.
pub fn load_flat(
    content_path: impl AsRef<Path>,
    ratings_path: impl AsRef<Path>,
    trust_path: impl AsRef<Path>,
    options: &FlatOptions,
) -> Result<(CommunityStore, FlatReport)> {
    let mut b = CommunityBuilder::new(RatingScale::five_step());
    let mut report = FlatReport::default();
    let mut users: HashMap<String, UserId> = HashMap::new();
    let mut categories: HashMap<String, CategoryId> = HashMap::new();
    let mut objects: HashMap<String, ObjectId> = HashMap::new();
    let mut reviews: HashMap<String, ReviewId> = HashMap::new();

    let fail = |file: &str, line: usize, message: String, report: &mut FlatReport| {
        if options.strict {
            Err(CommunityError::Parse {
                file: file.into(),
                line,
                message,
            })
        } else {
            report.skipped += 1;
            Ok(())
        }
    };

    // ---- content: content_id author_id subject_id --------------------------
    let content_path = content_path.as_ref();
    for (line_no, raw) in read_lines(content_path)? {
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with(options.comment_prefix) {
            continue;
        }
        let fields: Vec<&str> = trimmed.split_whitespace().collect();
        if fields.len() != 3 {
            fail(
                "content",
                line_no,
                format!("expected 3 fields, got {}", fields.len()),
                &mut report,
            )?;
            continue;
        }
        let (content_id, author, subject) = (fields[0], fields[1], fields[2]);
        if reviews.contains_key(content_id) {
            fail(
                "content",
                line_no,
                format!("duplicate content id {content_id}"),
                &mut report,
            )?;
            continue;
        }
        let writer = *users
            .entry(author.to_string())
            .or_insert_with(|| b.add_user(format!("member-{author}")));
        let category = *categories
            .entry(subject.to_string())
            .or_insert_with(|| b.add_category(format!("subject-{subject}")));
        // The dump identifies content, not reviewed products; each content
        // item becomes its own object so the one-review-per-object
        // invariant holds trivially.
        let object = match objects.entry(content_id.to_string()) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let id = b
                    .add_object(format!("content-{content_id}"), category)
                    .expect("category interned above");
                *e.insert(id)
            }
        };
        match b.add_review(writer, object) {
            Ok(rid) => {
                reviews.insert(content_id.to_string(), rid);
                report.reviews += 1;
            }
            Err(e) => fail("content", line_no, e.to_string(), &mut report)?,
        }
    }

    // ---- ratings: content_id member_id rating ------------------------------
    let ratings_path = ratings_path.as_ref();
    for (line_no, raw) in read_lines(ratings_path)? {
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with(options.comment_prefix) {
            continue;
        }
        let fields: Vec<&str> = trimmed.split_whitespace().collect();
        if fields.len() < 3 {
            fail(
                "ratings",
                line_no,
                format!("expected ≥3 fields, got {}", fields.len()),
                &mut report,
            )?;
            continue;
        }
        let Some(&review) = reviews.get(fields[0]) else {
            fail(
                "ratings",
                line_no,
                format!("unknown content id {}", fields[0]),
                &mut report,
            )?;
            continue;
        };
        let rater = *users
            .entry(fields[1].to_string())
            .or_insert_with(|| b.add_user(format!("member-{}", fields[1])));
        let Some(value) = fields[2].parse::<u32>().ok().and_then(map_rating) else {
            fail(
                "ratings",
                line_no,
                format!("invalid rating {:?}", fields[2]),
                &mut report,
            )?;
            continue;
        };
        if options.strict {
            // Strict mode surfaces dirt: a repeated (member, content)
            // rating aborts like any other violation.
            match b.add_rating(rater, review, value) {
                Ok(()) => report.ratings += 1,
                Err(e) => fail("ratings", line_no, e.to_string(), &mut report)?,
            }
        } else {
            // Lenient mode folds a re-ingested or revised rating line to
            // one rating with the latest value (upsert), as a live feed
            // would.
            match b.upsert_rating(rater, review, value) {
                Ok(false) => report.ratings += 1,
                Ok(true) => report.revised += 1,
                Err(e) => fail("ratings", line_no, e.to_string(), &mut report)?,
            }
        }
    }

    // ---- trust: source_id target_id value ----------------------------------
    let trust_path = trust_path.as_ref();
    for (line_no, raw) in read_lines(trust_path)? {
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with(options.comment_prefix) {
            continue;
        }
        let fields: Vec<&str> = trimmed.split_whitespace().collect();
        if fields.len() < 2 {
            fail(
                "trust",
                line_no,
                format!("expected ≥2 fields, got {}", fields.len()),
                &mut report,
            )?;
            continue;
        }
        // A third column, when present, distinguishes trust (1) from
        // block-list entries; only positive statements enter the web of
        // trust.
        if fields.len() >= 3 && fields[2] != "1" {
            report.skipped += 1;
            continue;
        }
        let source = *users
            .entry(fields[0].to_string())
            .or_insert_with(|| b.add_user(format!("member-{}", fields[0])));
        let target = *users
            .entry(fields[1].to_string())
            .or_insert_with(|| b.add_user(format!("member-{}", fields[1])));
        match b.add_trust(source, target) {
            Ok(()) => report.trust += 1,
            Err(e) => fail("trust", line_no, e.to_string(), &mut report)?,
        }
    }

    Ok((b.build(), report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_fixture(dir: &Path) {
        fs::create_dir_all(dir).unwrap();
        fs::write(
            dir.join("content.txt"),
            "# content_id author_id subject_id\n\
             c1 u10 s1\n\
             c2 u10 s2\n\
             c3 u20 s1\n\
             c1 u30 s1\n", // duplicate content id → skipped
        )
        .unwrap();
        fs::write(
            dir.join("ratings.txt"),
            "c1 u20 5\n\
             c1 u30 4\n\
             c2 u20 3\n\
             c3 u10 1\n\
             c9 u20 5\n\
             c1 u10 5\n\
             c1 u20 9\n", // unknown content; self-rating; off-scale → skipped
        )
        .unwrap();
        fs::write(
            dir.join("trust.txt"),
            "u20 u10 1\n\
             u30 u10 1\n\
             u10 u10 1\n\
             u20 u30 0\n", // self-trust and block entry → skipped
        )
        .unwrap();
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("wot-epinions-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn lenient_load_skips_bad_lines() {
        let dir = tempdir("lenient");
        write_fixture(&dir);
        let (store, report) = load_flat(
            dir.join("content.txt"),
            dir.join("ratings.txt"),
            dir.join("trust.txt"),
            &FlatOptions::default(),
        )
        .unwrap();
        assert_eq!(report.reviews, 3);
        assert_eq!(report.ratings, 4);
        assert_eq!(report.trust, 2);
        // duplicate content, unknown content, self-rating, off-scale,
        // self-trust, block-list entry.
        assert_eq!(report.skipped, 6);
        assert_eq!(store.num_users(), 3);
        assert_eq!(store.num_categories(), 2);
        // 1..5 maps onto the Epinions scale.
        assert!(store.ratings().iter().any(|r| r.value == 1.0));
        assert!(store.ratings().iter().any(|r| r.value == 0.2));
        // The interned handles are stable and greppable.
        assert!(store.user_by_handle("member-u10").is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn strict_load_rejects_first_violation() {
        let dir = tempdir("strict");
        write_fixture(&dir);
        let err = load_flat(
            dir.join("content.txt"),
            dir.join("ratings.txt"),
            dir.join("trust.txt"),
            &FlatOptions {
                strict: true,
                ..FlatOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, CommunityError::Parse { ref file, .. } if file == "content"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        let dir = tempdir("missing");
        fs::create_dir_all(&dir).unwrap();
        let err = load_flat(
            dir.join("content.txt"),
            dir.join("ratings.txt"),
            dir.join("trust.txt"),
            &FlatOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CommunityError::Io { .. }));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repeated_rating_lines_revise_in_lenient_mode() {
        let dir = tempdir("revise");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("content.txt"), "c1 u10 s1\n").unwrap();
        // u20 rates c1 twice: the revision (2) must win over the first
        // vote (5), in place, as one rating.
        fs::write(dir.join("ratings.txt"), "c1 u20 5\nc1 u20 2\n").unwrap();
        fs::write(dir.join("trust.txt"), "").unwrap();
        let (store, report) = load_flat(
            dir.join("content.txt"),
            dir.join("ratings.txt"),
            dir.join("trust.txt"),
            &FlatOptions::default(),
        )
        .unwrap();
        assert_eq!(report.ratings, 1);
        assert_eq!(report.revised, 1);
        assert_eq!(report.skipped, 0);
        assert_eq!(store.num_ratings(), 1);
        assert_eq!(
            store.ratings().iter().next().unwrap().value.to_bits(),
            map_rating(2).unwrap().to_bits()
        );
        // Strict mode treats the same repetition as a violation.
        let err = load_flat(
            dir.join("content.txt"),
            dir.join("ratings.txt"),
            dir.join("trust.txt"),
            &FlatOptions {
                strict: true,
                ..FlatOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, CommunityError::Parse { ref file, .. } if file == "ratings"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reordered_lines_within_files_load_identically() {
        // The flat files resolve every reference by external id, so
        // shuffling lines inside each file changes nothing but interning
        // order: same accepted counts, same ratings per (rater, writer).
        let dir = tempdir("reordered");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("content.txt"), "c3 u20 s1\nc1 u10 s1\nc2 u10 s2\n").unwrap();
        fs::write(
            dir.join("ratings.txt"),
            "c3 u10 1\nc1 u30 4\nc2 u20 3\nc1 u20 5\n",
        )
        .unwrap();
        fs::write(dir.join("trust.txt"), "u30 u10 1\nu20 u10 1\n").unwrap();
        let (store, report) = load_flat(
            dir.join("content.txt"),
            dir.join("ratings.txt"),
            dir.join("trust.txt"),
            &FlatOptions::default(),
        )
        .unwrap();
        assert_eq!(report.reviews, 3);
        assert_eq!(report.ratings, 4);
        assert_eq!(report.trust, 2);
        assert_eq!(report.skipped, 0);
        // Same multiset of (rater, writer, value) as the canonical order.
        let mut pairs: Vec<(String, String, u64)> = store
            .ratings()
            .iter()
            .map(|rt| {
                let w = store.reviews()[rt.review.index()].writer;
                (
                    store.users()[rt.rater.index()].handle.clone(),
                    store.users()[w.index()].handle.clone(),
                    rt.value.to_bits(),
                )
            })
            .collect();
        pairs.sort();
        let level = |l: u32| map_rating(l).unwrap().to_bits();
        assert_eq!(
            pairs,
            vec![
                ("member-u10".into(), "member-u20".into(), level(1)),
                ("member-u20".into(), "member-u10".into(), level(3)),
                ("member-u20".into(), "member-u10".into(), level(5)),
                ("member-u30".into(), "member-u10".into(), level(4)),
            ]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_lines_are_skipped_and_counted() {
        let dir = tempdir("malformed");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("content.txt"),
            "c1 u10 s1\n\
             c2 u20\n\
             just-one-field\n", // wrong arities → skipped
        )
        .unwrap();
        fs::write(
            dir.join("ratings.txt"),
            "c1 u20 5\n\
             c1 u30 not-a-number\n\
             c1\n", // bad value and arity → skipped
        )
        .unwrap();
        fs::write(dir.join("trust.txt"), "u20\n").unwrap();
        let (store, report) = load_flat(
            dir.join("content.txt"),
            dir.join("ratings.txt"),
            dir.join("trust.txt"),
            &FlatOptions::default(),
        )
        .unwrap();
        assert_eq!(report.reviews, 1);
        assert_eq!(report.ratings, 1);
        assert_eq!(report.trust, 0);
        assert_eq!(report.skipped, 5);
        assert_eq!(store.num_ratings(), 1);
        // Strict mode rejects the first malformed line instead.
        let err = load_flat(
            dir.join("content.txt"),
            dir.join("ratings.txt"),
            dir.join("trust.txt"),
            &FlatOptions {
                strict: true,
                ..FlatOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, CommunityError::Parse { .. }));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rating_scale_mapping() {
        assert_eq!(map_rating(1), Some(0.2));
        assert_eq!(map_rating(5), Some(1.0));
        assert_eq!(map_rating(0), None);
        assert_eq!(map_rating(6), None);
    }

    #[test]
    fn loaded_store_feeds_the_pipeline() {
        let dir = tempdir("pipeline");
        write_fixture(&dir);
        let (store, _) = load_flat(
            dir.join("content.txt"),
            dir.join("ratings.txt"),
            dir.join("trust.txt"),
            &FlatOptions::default(),
        )
        .unwrap();
        // The store is a normal CommunityStore: matrices extract cleanly.
        let r = store.direct_connection_matrix();
        let t = store.trust_matrix();
        assert!(r.nnz() > 0);
        assert_eq!(t.nnz(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }
}
