//! TSV interchange format.
//!
//! A community is saved as a directory of seven TSV files. Entity ids are
//! implicit: the record on (1-based data) line *n* has dense id *n−1*, so
//! files stay compact and the format is trivially greppable and diffable.
//! Lines starting with `#` are comments and are skipped.
//!
//! | file | columns |
//! |---|---|
//! | `scale.tsv` | rating levels (single row) |
//! | `users.tsv` | handle |
//! | `categories.tsv` | name |
//! | `objects.tsv` | key, category id |
//! | `reviews.tsv` | writer id, object id |
//! | `ratings.tsv` | rater id, review id, value |
//! | `trust.tsv` | source id, target id |

use std::fs;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::{
    CategoryId, CommunityBuilder, CommunityError, CommunityStore, ObjectId, RatingScale, Result,
    ReviewId, UserId,
};

const FILES: [&str; 7] = [
    "scale.tsv",
    "users.tsv",
    "categories.tsv",
    "objects.tsv",
    "reviews.tsv",
    "ratings.tsv",
    "trust.tsv",
];

fn check_field(file: &str, line: usize, field: &str) -> Result<()> {
    if field.contains('\t') || field.contains('\n') || field.contains('\r') {
        return Err(CommunityError::Parse {
            file: file.into(),
            line,
            message: format!("field {field:?} contains a tab or newline"),
        });
    }
    Ok(())
}

/// Saves `store` into `dir` (created if absent), overwriting the seven TSV
/// files.
pub fn save(store: &CommunityStore, dir: impl AsRef<Path>) -> Result<()> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir).map_err(|e| CommunityError::io(dir.display().to_string(), e))?;
    let open = |name: &str| -> Result<BufWriter<fs::File>> {
        let path = dir.join(name);
        Ok(BufWriter::new(fs::File::create(&path).map_err(|e| {
            CommunityError::io(path.display().to_string(), e)
        })?))
    };
    let io_err = |e: std::io::Error| CommunityError::io(dir.display().to_string(), e);

    let mut w = open("scale.tsv")?;
    writeln!(w, "# rating scale levels").map_err(io_err)?;
    let levels: Vec<String> = store
        .scale()
        .levels()
        .iter()
        .map(|l| l.to_string())
        .collect();
    writeln!(w, "{}", levels.join("\t")).map_err(io_err)?;

    let mut w = open("users.tsv")?;
    writeln!(w, "# handle (line order = user id)").map_err(io_err)?;
    for (i, u) in store.users().iter().enumerate() {
        check_field("users.tsv", i + 1, &u.handle)?;
        writeln!(w, "{}", u.handle).map_err(io_err)?;
    }

    let mut w = open("categories.tsv")?;
    writeln!(w, "# name (line order = category id)").map_err(io_err)?;
    for (i, c) in store.categories().iter().enumerate() {
        check_field("categories.tsv", i + 1, &c.name)?;
        writeln!(w, "{}", c.name).map_err(io_err)?;
    }

    let mut w = open("objects.tsv")?;
    writeln!(w, "# key <TAB> category id (line order = object id)").map_err(io_err)?;
    for (i, o) in store.objects().iter().enumerate() {
        check_field("objects.tsv", i + 1, &o.key)?;
        writeln!(w, "{}\t{}", o.key, o.category.0).map_err(io_err)?;
    }

    let mut w = open("reviews.tsv")?;
    writeln!(w, "# writer id <TAB> object id (line order = review id)").map_err(io_err)?;
    for r in store.reviews() {
        writeln!(w, "{}\t{}", r.writer.0, r.object.0).map_err(io_err)?;
    }

    let mut w = open("ratings.tsv")?;
    writeln!(w, "# rater id <TAB> review id <TAB> value").map_err(io_err)?;
    for rt in store.ratings() {
        writeln!(w, "{}\t{}\t{}", rt.rater.0, rt.review.0, rt.value).map_err(io_err)?;
    }

    let mut w = open("trust.tsv")?;
    writeln!(w, "# source id <TAB> target id").map_err(io_err)?;
    for t in store.trust_statements() {
        writeln!(w, "{}\t{}", t.source.0, t.target.0).map_err(io_err)?;
    }
    Ok(())
}

struct TsvReader {
    file: String,
    lines: Vec<(usize, String)>,
}

impl TsvReader {
    fn open(dir: &Path, name: &str) -> Result<Self> {
        let path = dir.join(name);
        let f =
            fs::File::open(&path).map_err(|e| CommunityError::io(path.display().to_string(), e))?;
        let mut lines = Vec::new();
        for (i, line) in BufReader::new(f).lines().enumerate() {
            let line = line.map_err(|e| CommunityError::io(path.display().to_string(), e))?;
            let trimmed = line.trim_end_matches('\r');
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            lines.push((i + 1, trimmed.to_string()));
        }
        Ok(Self {
            file: name.to_string(),
            lines,
        })
    }

    fn err(&self, line: usize, message: impl Into<String>) -> CommunityError {
        CommunityError::Parse {
            file: self.file.clone(),
            line,
            message: message.into(),
        }
    }

    fn fields<'a>(&self, line: usize, raw: &'a str, expected: usize) -> Result<Vec<&'a str>> {
        let fields: Vec<&str> = raw.split('\t').collect();
        if fields.len() != expected {
            return Err(self.err(
                line,
                format!("expected {expected} fields, found {}", fields.len()),
            ));
        }
        Ok(fields)
    }

    fn parse_u32(&self, line: usize, field: &str, what: &str) -> Result<u32> {
        field
            .parse::<u32>()
            .map_err(|_| self.err(line, format!("invalid {what}: {field:?}")))
    }

    fn parse_f64(&self, line: usize, field: &str, what: &str) -> Result<f64> {
        field
            .parse::<f64>()
            .map_err(|_| self.err(line, format!("invalid {what}: {field:?}")))
    }
}

/// Loads a community from a directory written by [`save`]. All builder
/// invariants are re-validated, so a hand-edited dataset that violates them
/// (duplicate rating, self-trust, off-scale value, dangling id) fails with
/// a precise error.
pub fn load(dir: impl AsRef<Path>) -> Result<CommunityStore> {
    let dir = dir.as_ref();
    for f in FILES {
        // Existence check up front for a better error than "No such file"
        // midway through.
        let path = dir.join(f);
        if !path.is_file() {
            return Err(CommunityError::Io {
                path: path.display().to_string(),
                message: "missing dataset file".into(),
            });
        }
    }

    let scale_reader = TsvReader::open(dir, "scale.tsv")?;
    let &(line, ref raw) = scale_reader
        .lines
        .first()
        .ok_or_else(|| scale_reader.err(1, "missing scale definition"))?;
    let mut levels = Vec::new();
    for field in raw.split('\t') {
        levels.push(scale_reader.parse_f64(line, field, "scale level")?);
    }
    let scale = RatingScale::from_levels(levels)?;
    let mut b = CommunityBuilder::new(scale);

    let users = TsvReader::open(dir, "users.tsv")?;
    for &(line, ref raw) in &users.lines {
        let fields = users.fields(line, raw, 1)?;
        b.add_user_strict(fields[0])?;
    }

    let categories = TsvReader::open(dir, "categories.tsv")?;
    for &(line, ref raw) in &categories.lines {
        let fields = categories.fields(line, raw, 1)?;
        b.add_category(fields[0]);
    }

    let objects = TsvReader::open(dir, "objects.tsv")?;
    for &(line, ref raw) in &objects.lines {
        let fields = objects.fields(line, raw, 2)?;
        let cat = objects.parse_u32(line, fields[1], "category id")?;
        b.add_object(fields[0], CategoryId(cat))?;
    }

    let reviews = TsvReader::open(dir, "reviews.tsv")?;
    for &(line, ref raw) in &reviews.lines {
        let fields = reviews.fields(line, raw, 2)?;
        let writer = reviews.parse_u32(line, fields[0], "writer id")?;
        let object = reviews.parse_u32(line, fields[1], "object id")?;
        b.add_review(UserId(writer), ObjectId(object))?;
    }

    let ratings = TsvReader::open(dir, "ratings.tsv")?;
    for &(line, ref raw) in &ratings.lines {
        let fields = ratings.fields(line, raw, 3)?;
        let rater = ratings.parse_u32(line, fields[0], "rater id")?;
        let review = ratings.parse_u32(line, fields[1], "review id")?;
        let value = ratings.parse_f64(line, fields[2], "rating value")?;
        b.add_rating(UserId(rater), ReviewId(review), value)?;
    }

    let trust = TsvReader::open(dir, "trust.tsv")?;
    for &(line, ref raw) in &trust.lines {
        let fields = trust.fields(line, raw, 2)?;
        let source = trust.parse_u32(line, fields[0], "source id")?;
        let target = trust.parse_u32(line, fields[1], "target id")?;
        b.add_trust(UserId(source), UserId(target))?;
    }

    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RatingScale;

    fn sample() -> CommunityStore {
        let mut b = CommunityBuilder::new(RatingScale::five_step());
        let u0 = b.add_user("alice");
        let u1 = b.add_user("bob");
        let c0 = b.add_category("comedies");
        let c1 = b.add_category("westerns");
        let o0 = b.add_object("film-a", c0).unwrap();
        let o1 = b.add_object("film-b", c1).unwrap();
        let r0 = b.add_review(u1, o0).unwrap();
        let r1 = b.add_review(u0, o1).unwrap();
        b.add_rating(u0, r0, 0.8).unwrap();
        b.add_rating(u1, r1, 0.4).unwrap();
        b.add_trust(u0, u1).unwrap();
        b.build()
    }

    fn tempdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wot-community-test-{}-{}",
            name,
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let store = sample();
        let dir = tempdir("roundtrip");
        save(&store, &dir).unwrap();
        let loaded = load(&dir).unwrap();
        assert_eq!(loaded.num_users(), store.num_users());
        assert_eq!(loaded.users()[0].handle, "alice");
        assert_eq!(loaded.num_categories(), 2);
        assert_eq!(loaded.num_reviews(), 2);
        assert_eq!(loaded.num_ratings(), 2);
        assert_eq!(loaded.num_trust(), 1);
        assert_eq!(loaded.scale().levels(), store.scale().levels());
        assert_eq!(loaded.ratings()[0].value, 0.8);
        assert_eq!(loaded.reviews()[0].writer, UserId(1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_reports_path() {
        let dir = tempdir("missing");
        fs::create_dir_all(&dir).unwrap();
        let err = load(&dir).unwrap_err();
        assert!(matches!(err, CommunityError::Io { .. }));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_rating_line_reports_location() {
        let store = sample();
        let dir = tempdir("badline");
        save(&store, &dir).unwrap();
        fs::write(dir.join("ratings.tsv"), "0\t0\tnot-a-number\n").unwrap();
        let err = load(&dir).unwrap_err();
        match err {
            CommunityError::Parse { file, line, .. } => {
                assert_eq!(file, "ratings.tsv");
                assert_eq!(line, 1);
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_arity_is_rejected() {
        let store = sample();
        let dir = tempdir("arity");
        save(&store, &dir).unwrap();
        fs::write(dir.join("trust.tsv"), "0\n").unwrap();
        let err = load(&dir).unwrap_err();
        assert!(matches!(err, CommunityError::Parse { .. }));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn semantic_violations_are_revalidated() {
        let store = sample();
        let dir = tempdir("semantic");
        save(&store, &dir).unwrap();
        // Self-trust smuggled into the file.
        fs::write(dir.join("trust.tsv"), "0\t0\n").unwrap();
        assert!(matches!(
            load(&dir).unwrap_err(),
            CommunityError::SelfTrust(_)
        ));
        // Off-scale rating.
        fs::write(dir.join("trust.tsv"), "0\t1\n").unwrap();
        fs::write(dir.join("ratings.tsv"), "0\t0\t0.55\n").unwrap();
        assert!(matches!(
            load(&dir).unwrap_err(),
            CommunityError::OffScaleRating { .. }
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let store = sample();
        let dir = tempdir("comments");
        save(&store, &dir).unwrap();
        fs::write(dir.join("trust.tsv"), "# comment\n\n0\t1\n").unwrap();
        let loaded = load(&dir).unwrap();
        assert_eq!(loaded.num_trust(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reordered_rating_lines_are_order_insensitive() {
        // Ratings carry explicit ids, so shuffling their lines changes
        // only insertion order, never semantics.
        let store = sample();
        let dir = tempdir("reorder");
        save(&store, &dir).unwrap();
        fs::write(dir.join("ratings.tsv"), "1\t1\t0.4\n0\t0\t0.8\n").unwrap();
        let loaded = load(&dir).unwrap();
        assert_eq!(loaded.num_ratings(), 2);
        assert_eq!(loaded.ratings()[0].rater, UserId(1));
        assert_eq!(loaded.ratings()[1].value, 0.8);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reordered_review_lines_shift_implicit_ids() {
        // Reviews get ids from line order; swapping lines renumbers them,
        // and the re-validation still catches the resulting dangling or
        // self-referential ratings instead of loading garbage.
        let store = sample();
        let dir = tempdir("reorder-reviews");
        save(&store, &dir).unwrap();
        // Original: review 0 = (writer 1, object 0); review 1 =
        // (writer 0, object 1). Swapped, review 0 is now written by u0 —
        // so u0's rating of review 0 becomes a self-rating.
        fs::write(dir.join("reviews.tsv"), "0\t1\n1\t0\n").unwrap();
        assert!(matches!(
            load(&dir).unwrap_err(),
            CommunityError::SelfRating { .. }
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dangling_ids_are_rejected_per_file() {
        let store = sample();
        let dir = tempdir("dangling");
        save(&store, &dir).unwrap();
        // Rating referencing a review that does not exist.
        fs::write(dir.join("ratings.tsv"), "0\t9\t0.8\n").unwrap();
        assert!(matches!(
            load(&dir).unwrap_err(),
            CommunityError::UnknownEntity { kind: "review", .. }
        ));
        // Object referencing a category that does not exist.
        fs::write(dir.join("ratings.tsv"), "0\t0\t0.8\n").unwrap();
        fs::write(dir.join("objects.tsv"), "film-x\t9\n").unwrap();
        assert!(matches!(
            load(&dir).unwrap_err(),
            CommunityError::UnknownEntity {
                kind: "category",
                ..
            }
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_numeric_fields_report_file_and_line() {
        let store = sample();
        let dir = tempdir("badnum");
        save(&store, &dir).unwrap();
        fs::write(dir.join("objects.tsv"), "# header\nfilm-x\tnot-a-number\n").unwrap();
        match load(&dir).unwrap_err() {
            CommunityError::Parse { file, line, .. } => {
                assert_eq!(file, "objects.tsv");
                assert_eq!(line, 2);
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_rejects_tab_in_handle() {
        let mut b = CommunityBuilder::new(RatingScale::five_step());
        b.add_user("bad\thandle");
        let store = b.build();
        let dir = tempdir("tab");
        assert!(matches!(
            save(&store, &dir).unwrap_err(),
            CommunityError::Parse { .. }
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
