use std::fmt;

use crate::{ObjectId, Rejection, ReviewId, UserId};

/// Errors raised while building, loading, or querying a community.
#[derive(Debug, Clone, PartialEq)]
pub enum CommunityError {
    /// An entity id referenced a record that does not exist.
    UnknownEntity {
        /// Entity kind, e.g. `"user"`.
        kind: &'static str,
        /// The dangling id value.
        id: u32,
    },
    /// A writer attempted a second review of the same object.
    DuplicateReview {
        /// The offending writer.
        writer: UserId,
        /// The object already reviewed.
        object: ObjectId,
    },
    /// A rater attempted a second rating of the same review.
    DuplicateRating {
        /// The offending rater.
        rater: UserId,
        /// The review already rated.
        review: ReviewId,
    },
    /// A user attempted to rate their own review.
    SelfRating {
        /// The user.
        user: UserId,
        /// Their review.
        review: ReviewId,
    },
    /// A user attempted to state trust in themselves.
    SelfTrust(UserId),
    /// A trust statement was issued twice.
    DuplicateTrust {
        /// The trusting user.
        source: UserId,
        /// The trusted user.
        target: UserId,
    },
    /// A rating value is not on the community's rating scale.
    OffScaleRating {
        /// The offending value.
        value: f64,
    },
    /// An invalid rating-scale definition.
    InvalidScale(String),
    /// A duplicate unique key (user handle, category name, object key).
    DuplicateKey {
        /// Entity kind.
        kind: &'static str,
        /// The repeated key.
        key: String,
    },
    /// TSV parse failure.
    Parse {
        /// File the failure occurred in.
        file: String,
        /// 1-based line number.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// Underlying I/O failure (path + OS message; `std::io::Error` is not
    /// `Clone`/`PartialEq`, so it is carried as text).
    Io {
        /// Path involved.
        path: String,
        /// OS error message.
        message: String,
    },
    /// A shard-local event log's sequence tags were not strictly
    /// ascending — the log is not a cut of any single global history
    /// (a recovered log with this defect is corrupt, not merely stale).
    NonMonotonicSequence {
        /// Shard (input-log index) the violation was found in.
        shard: usize,
        /// The tag preceding the violation.
        prev: u64,
        /// The offending tag (`<= prev`).
        seq: u64,
    },
    /// The same sequence tag appeared in more than one shard-local log,
    /// so the merged interleaving would be ambiguous. Logs cut from one
    /// history have disjoint tags; a collision means mismatched or
    /// corrupted logs.
    DuplicateSequence {
        /// The colliding tag.
        seq: u64,
    },
}

impl fmt::Display for CommunityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommunityError::UnknownEntity { kind, id } => {
                write!(f, "unknown {kind} id {id}")
            }
            CommunityError::DuplicateReview { writer, object } => write!(
                f,
                "user {writer} already reviewed object {object} (one review per object)"
            ),
            &CommunityError::DuplicateRating { rater, review } => {
                fmt::Display::fmt(&Rejection::AlreadyRated { rater, review }, f)
            }
            &CommunityError::SelfRating { user, review } => {
                let rejection = Rejection::SelfRating {
                    rater: user,
                    review,
                };
                fmt::Display::fmt(&rejection, f)
            }
            CommunityError::SelfTrust(u) => write!(f, "user {u} cannot trust themselves"),
            CommunityError::DuplicateTrust { source, target } => {
                write!(f, "trust {source} -> {target} already stated")
            }
            CommunityError::OffScaleRating { value } => {
                write!(f, "rating value {value} is not on the rating scale")
            }
            CommunityError::InvalidScale(msg) => write!(f, "invalid rating scale: {msg}"),
            CommunityError::DuplicateKey { kind, key } => {
                write!(f, "duplicate {kind} key {key:?}")
            }
            CommunityError::Parse {
                file,
                line,
                message,
            } => write!(f, "{file}:{line}: {message}"),
            CommunityError::Io { path, message } => write!(f, "io error at {path}: {message}"),
            CommunityError::NonMonotonicSequence { shard, prev, seq } => write!(
                f,
                "shard log {shard}: sequence tag {seq} follows {prev} (tags must be strictly \
                 ascending within a shard-local log)"
            ),
            CommunityError::DuplicateSequence { seq } => write!(
                f,
                "sequence tag {seq} appears in more than one shard-local log (tags of one \
                 history are disjoint across shards)"
            ),
        }
    }
}

impl std::error::Error for CommunityError {}

impl CommunityError {
    /// Wraps an I/O error with its path.
    pub fn io(path: impl Into<String>, err: std::io::Error) -> Self {
        CommunityError::Io {
            path: path.into(),
            message: err.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let samples: Vec<CommunityError> = vec![
            CommunityError::UnknownEntity {
                kind: "user",
                id: 7,
            },
            CommunityError::DuplicateReview {
                writer: UserId(1),
                object: ObjectId(2),
            },
            CommunityError::DuplicateRating {
                rater: UserId(1),
                review: ReviewId(2),
            },
            CommunityError::SelfRating {
                user: UserId(1),
                review: ReviewId(2),
            },
            CommunityError::SelfTrust(UserId(3)),
            CommunityError::DuplicateTrust {
                source: UserId(1),
                target: UserId(2),
            },
            CommunityError::OffScaleRating { value: 0.55 },
            CommunityError::InvalidScale("empty".into()),
            CommunityError::DuplicateKey {
                kind: "user",
                key: "alice".into(),
            },
            CommunityError::Parse {
                file: "ratings.tsv".into(),
                line: 3,
                message: "bad float".into(),
            },
            CommunityError::Io {
                path: "/tmp/x".into(),
                message: "denied".into(),
            },
            CommunityError::NonMonotonicSequence {
                shard: 1,
                prev: 7,
                seq: 7,
            },
            CommunityError::DuplicateSequence { seq: 3 },
        ];
        for e in samples {
            assert!(!e.to_string().is_empty());
        }
    }
}
