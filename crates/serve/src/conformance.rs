//! The bitwise conformance harness every backend is held to.
//!
//! One function, [`assert_backend_matches`], drives any
//! [`TrustQuery`] implementation across its whole
//! query surface and compares each answer — with `==` on the `f64`
//! **bits**, never an epsilon — against an oracle [`Derived`] computed
//! offline for the event prefix the backend claims to serve. The
//! in-process snapshot, the TCP daemon, and the multi-process
//! coordinator all run the exact same assertions, so "backend X is
//! conformant" means the same thing everywhere.
//!
//! These helpers panic on mismatch (they are test assertions, not
//! recoverable errors) and live in the library so the workspace's
//! integration suites — `tests/serve_smoke.rs` at the root and the
//! cluster drills in `crates/shardd/tests/` — share one definition of
//! correctness instead of drifting copies.

use wot_community::{CategoryId, ReviewId, StoreEvent, UserId};
use wot_core::{trust, BlockConfig, DeriveConfig, Derived, IncrementalDerived};

use crate::protocol::ErrorCode::{self, BadRequest, OutOfRange, Rejected};
use crate::{ServeError, TrustIngest, TrustQuery};

/// Drives every [`TrustQuery`] method across a deterministic sample of
/// the oracle's users and categories and asserts bitwise equality,
/// also requiring every answer to be served at exactly `want_seq`.
///
/// Panics on the first mismatch with a message naming the query.
pub fn assert_backend_matches<B: TrustQuery>(backend: &mut B, oracle: &Derived, want_seq: u64) {
    let users = oracle.num_users();
    // Point queries across a deterministic sample of pairs.
    for i in (0..users).step_by(7) {
        for j in (0..users).step_by(11) {
            let (got, seq) = backend.trust(i as u32, j as u32).unwrap();
            assert_eq!(seq, want_seq, "trust({i},{j}) served at wrong seq");
            let want = trust::pairwise(&oracle.affiliation, &oracle.expertise, i, j);
            assert_eq!(got.to_bits(), want.to_bits(), "trust({i},{j})");
        }
    }
    // Top-k against the all-users scan.
    let top = oracle
        .trust_top_k(5, &BlockConfig::sequential())
        .unwrap()
        .lists;
    for i in (0..users).step_by(13) {
        let (got, seq) = backend.top_k(i as u32, 5).unwrap();
        assert_eq!(seq, want_seq, "top-k({i}) served at wrong seq");
        assert_eq!(got.len(), top[i].len(), "top-k({i}) length");
        for (g, w) in got.iter().zip(&top[i]) {
            assert_eq!(g.0 as usize, w.0, "top-k({i}) member");
            assert_eq!(g.1.to_bits(), w.1.to_bits(), "top-k({i}) value bits");
        }
    }
    // Per-category reputation tables and point lookups.
    for (cidx, cr) in oracle.per_category.iter().enumerate() {
        let (raters, writers, seq) = backend.category_tables(cidx as u32).unwrap();
        assert_eq!(seq, want_seq, "tables({cidx}) served at wrong seq");
        assert_eq!(raters.len(), cr.rater_reputation.len(), "raters({cidx})");
        for (g, w) in raters.iter().zip(&cr.rater_reputation) {
            assert_eq!(g.0, w.0 .0, "rater id in category {cidx}");
            assert_eq!(g.1.to_bits(), w.1.to_bits(), "rater rep in {cidx}");
        }
        assert_eq!(writers.len(), cr.writer_reputation.len(), "writers({cidx})");
        for (g, w) in writers.iter().zip(&cr.writer_reputation) {
            assert_eq!(g.0, w.0 .0, "writer id in category {cidx}");
            assert_eq!(g.1.to_bits(), w.1.to_bits(), "writer rep in {cidx}");
        }
        // Point lookups: a present rater and an absent one.
        if let Some(&(u, v)) = cr.rater_reputation.first() {
            let (got, seq) = backend.rater_reputation(cidx as u32, u.0).unwrap();
            assert_eq!(seq, want_seq);
            assert_eq!(got.unwrap().to_bits(), v.to_bits(), "rater({cidx},{u})");
        }
        let absent = (0..users as u32).find(|u| {
            cr.rater_reputation
                .binary_search_by_key(u, |&(x, _)| x.0)
                .is_err()
        });
        if let Some(u) = absent {
            let (got, _) = backend.rater_reputation(cidx as u32, u).unwrap();
            assert_eq!(got, None, "absent rater({cidx},{u})");
        }
    }
    // Fig. 3 aggregates against the streaming reducer.
    let want = oracle.trust_fig3(&BlockConfig::sequential()).unwrap();
    let (got, seq) = backend.fig3_aggregates().unwrap();
    assert_eq!(seq, want_seq, "aggregates served at wrong seq");
    assert_eq!(got.users, want.users as u64);
    assert_eq!(got.support, want.support);
    assert_eq!(got.sum.to_bits(), want.sum.to_bits());
    assert_eq!(got.max.to_bits(), want.max.to_bits());
    assert_eq!(got.histogram, want.histogram);
    // Stats: the dataset-shape fields are part of the contract.
    let (stats, seq) = backend.stats().unwrap();
    assert_eq!(seq, want_seq, "stats served at wrong seq");
    assert_eq!(stats.num_users as usize, users, "stats.num_users");
    assert_eq!(
        stats.num_categories as usize,
        oracle.per_category.len(),
        "stats.num_categories"
    );
}

/// Holds a backend of `users` × `categories` to the daemon's refusals of
/// invalid reads (`tests/serve_protocol.rs` pins them on the wire): each
/// is a [`ServeError::Remote`] with the daemon's [`ErrorCode`].
pub fn assert_refuses_invalid_reads<B: TrustQuery>(backend: &mut B, users: u32, categories: u32) {
    let (u, c) = (users, categories);
    expect_refusal("trust(users, 0)", OutOfRange, backend.trust(u, 0));
    expect_refusal("trust(0, MAX)", OutOfRange, backend.trust(0, u32::MAX));
    expect_refusal("top_k(users, 5)", OutOfRange, backend.top_k(u, 5));
    expect_refusal("top_k(0, 0)", BadRequest, backend.top_k(0, 0));
    expect_refusal(
        "rater(categories, 0)",
        OutOfRange,
        backend.rater_reputation(c, 0),
    );
    expect_refusal(
        "rater(0, users)",
        OutOfRange,
        backend.rater_reputation(0, u),
    );
    expect_refusal("tables(categories)", OutOfRange, backend.category_tables(c));
}

/// Users of the community [`assert_refuses_invalid_ingests`] runs on.
pub const REFUSAL_USERS: usize = 4;
/// Categories of the community [`assert_refuses_invalid_ingests`] runs
/// on.
pub const REFUSAL_CATEGORIES: usize = 2;

/// Holds a fresh, empty backend of [`REFUSAL_USERS`] ×
/// [`REFUSAL_CATEGORIES`] that sees every review to the one admission
/// rule: after review 0 (user 0, category 0) and user 1's rating of it,
/// one invalid event per rule must each be a [`ServeError::Remote`] with
/// [`ErrorCode::Rejected`] and the words of its
/// [`Rejection`](wot_core::admission::Rejection), and leave seq at 2.
/// Then a batch `[valid, invalid, valid]` must be the typed partial
/// report [`ServeError::BatchRefused`] — acked through 3, index 1, the
/// same code and words — and leave seq at 3.
pub fn assert_refuses_invalid_ingests<B: TrustIngest>(backend: &mut B) {
    let review = |writer, review, category| StoreEvent::Review {
        writer: UserId(writer),
        review: ReviewId(review),
        category: CategoryId(category),
    };
    let rating = |rater, review, value| StoreEvent::Rating {
        rater: UserId(rater),
        review: ReviewId(review),
        value,
    };
    let base = [review(0, 0, 0), rating(1, 0, 0.5)];
    assert_eq!(backend.ingest_batch(&base).unwrap(), 2);
    let mut reference =
        IncrementalDerived::new(REFUSAL_USERS, REFUSAL_CATEGORIES, &DeriveConfig::default())
            .unwrap();
    for event in &base {
        reference.ingest(event).unwrap();
    }
    let cases = [
        review(4, 1, 0),
        review(0, 1, 2),
        rating(4, 0, 0.5),
        review(0, 2, 0),
        rating(2, 0, 1.5),
        rating(2, 0, f64::NAN),
        rating(2, 1, 0.5),
        rating(0, 0, 0.5),
        rating(1, 0, 0.5),
    ];
    for event in cases {
        let why = reference.admit(&event).unwrap_err();
        match backend.ingest(event) {
            Err(ServeError::Remote(e)) => {
                assert_eq!(e.code, Rejected, "{event:?}: {}", e.message);
                assert_eq!(e.message, why.to_string(), "{event:?}");
            }
            other => panic!("{event:?}: expected a typed Rejected refusal, got {other:?}"),
        }
        assert_eq!(backend.ingest_batch(&[]).unwrap(), 2, "{event:?} moved seq");
    }

    let batch = [review(0, 1, 1), review(4, 2, 0), review(1, 2, 1)];
    reference.ingest(&batch[0]).unwrap();
    let why = reference.admit(&batch[1]).unwrap_err();
    match backend.ingest_batch(&batch) {
        Err(ServeError::BatchRefused {
            acked_through,
            index,
            error,
        }) => {
            assert_eq!((acked_through, index), (3, 1), "{}", error.message);
            assert_eq!(error.code, Rejected, "{}", error.message);
            assert_eq!(error.message, why.to_string());
        }
        other => panic!("{batch:?}: expected a typed partial report, got {other:?}"),
    }
    assert_eq!(
        backend.ingest_batch(&[]).unwrap(),
        3,
        "a refused batch must keep exactly its admitted prefix"
    );
}

fn expect_refusal<T: std::fmt::Debug>(read: &str, code: ErrorCode, got: crate::Result<T>) {
    match got {
        Err(ServeError::Remote(e)) => assert_eq!(e.code, code, "{read}: {}", e.message),
        other => panic!("{read}: expected a typed {code:?} refusal, got {other:?}"),
    }
}

/// Drives a [`TrustIngest`] + [`TrustQuery`] backend through the event
/// log in deterministically varied batch sizes — so routed runs to
/// different owners are pipelined and interleaved however the backend
/// pleases — and holds every acked boundary to the oracle produced by
/// `oracle_at(seq)`. The `base` offset is the backend's seq before the
/// first batch (events before it must already be ingested).
///
/// Batch sizes cycle through a pattern seeded by `seed` (1 up to 97
/// events per batch), so different seeds exercise different
/// worker-interleaving shapes without any randomness at run time.
pub fn assert_pipelined_ingest_matches<B, F>(
    backend: &mut B,
    events: &[StoreEvent],
    base: u64,
    seed: u64,
    mut oracle_at: F,
) where
    B: TrustIngest + TrustQuery,
    F: FnMut(u64) -> Derived,
{
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).max(1);
    let mut at = 0usize;
    while at < events.len() {
        // xorshift64* — deterministic, dependency-free batch sizing.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let size = 1 + (state.wrapping_mul(0x2545f4914f6cdd1d) % 97) as usize;
        let end = (at + size).min(events.len());
        let acked = backend.ingest_batch(&events[at..end]).unwrap();
        assert_eq!(
            acked,
            base + end as u64,
            "batch [{at}..{end}) acked the wrong horizon"
        );
        let oracle = oracle_at(acked);
        assert_backend_matches(backend, &oracle, acked);
        at = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::ServeSnapshot;
    use crate::{Client, ServeOptions, Server};
    use wot_community::{CommunityBuilder, RatingScale};
    use wot_core::pipeline;

    /// The flat daemon, over the wire, refuses each invalid ingest with
    /// the rule's own words.
    #[test]
    fn the_daemon_refuses_invalid_ingests() {
        let path = std::env::temp_dir().join(format!(
            "wot-conformance-refusals-{}.wal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let model =
            IncrementalDerived::new(REFUSAL_USERS, REFUSAL_CATEGORIES, &DeriveConfig::default())
                .unwrap();
        let server = Server::start(model, 0, &ServeOptions::local(&path)).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        assert_refuses_invalid_ingests(&mut client);
        drop(client);
        server.shutdown().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn in_process_snapshot_passes_its_own_oracle() {
        let mut b = CommunityBuilder::new(RatingScale::five_step());
        for i in 0..6 {
            b.add_user(format!("u{i}"));
        }
        for c in 0..2 {
            b.add_category(format!("c{c}"));
        }
        let o0 = b.add_object("o0", wot_community::CategoryId(0)).unwrap();
        let o1 = b.add_object("o1", wot_community::CategoryId(1)).unwrap();
        let r0 = b.add_review(UserId(0), o0).unwrap();
        let r1 = b.add_review(UserId(1), o1).unwrap();
        b.add_rating(UserId(2), r0, 0.8).unwrap();
        b.add_rating(UserId(3), r1, 1.0).unwrap();
        b.add_rating(UserId(0), r1, 0.4).unwrap();
        let store = b.build();
        let derived = pipeline::derive(&store, &DeriveConfig::default()).unwrap();
        let mut snap = ServeSnapshot::new(5, derived.clone());
        assert_backend_matches(&mut snap, &derived, 5);
    }
}
