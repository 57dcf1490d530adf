//! Output correctness: the backend's answers against the offline oracle.
//!
//! The events acknowledged so far are folded into a store, the batch
//! pipeline derives it, and a fixed sample of answers is compared through
//! the same `TrustQuery` trait the load ran through — bit for bit on the
//! cold-publish workloads and the cluster, within the delta solver's
//! documented 1e-6 on the warm-publish workload.

use wot_community::events::replay_into_store;
use wot_community::{RatingScale, StoreEvent};
use wot_core::{pipeline, DeriveConfig, Derived};
use wot_eval::streaming::Fig3Aggregates;
use wot_serve::{ServeSnapshot, TrustQuery};

use crate::loadgen::TOP_K;
use crate::schedule::Rng;
use crate::Res;

const PAIRS: usize = 256;
const TOPK_USERS: usize = 16;
/// The bound `tests/delta_conformance.rs` holds warm values to.
pub const DELTA_TOLERANCE: f64 = 1e-6;

/// How answers are compared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Match {
    Bits,
    Within(f64),
}

impl Match {
    fn ok(self, got: f64, want: f64) -> bool {
        match self {
            Match::Bits => got.to_bits() == want.to_bits(),
            Match::Within(eps) => (got - want).abs() < eps,
        }
    }
}

/// The oracle for the first `events.len()` events of history.
pub fn oracle(users: usize, categories: usize, events: &[StoreEvent]) -> Res<Derived> {
    let store = replay_into_store(RatingScale::five_step(), users, categories, events)?;
    Ok(pipeline::derive(&store, &DeriveConfig::default())?)
}

/// Answers compared and answers that differed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Report {
    pub compared: u64,
    pub mismatched: u64,
}

impl Report {
    fn note(&mut self, ok: bool) {
        self.compared += 1;
        self.mismatched += u64::from(!ok);
    }
}

/// Compares 256 trust pairs, 16 top-10 lists and every category's tables,
/// each of which must also be served at exactly `want_seq`. A query that
/// errors counts as a mismatch.
pub fn check_backend<B: TrustQuery + ?Sized>(
    b: &mut B,
    oracle: &Derived,
    want_seq: u64,
    how: Match,
    seed: u64,
) -> Report {
    let mut rep = Report::default();
    let mut rng = Rng::new(seed);
    let users = oracle.num_users();
    let truth = ServeSnapshot::new(want_seq, oracle.clone());
    for _ in 0..PAIRS {
        let (i, j) = (rng.below(users), rng.below(users));
        let want = truth.trust(i as usize, j as usize);
        rep.note(matches!(b.trust(i, j), Ok((got, seq)) if seq == want_seq && how.ok(got, want)));
    }
    for _ in 0..TOPK_USERS {
        let user = rng.below(users);
        let want = truth.top_k(user as usize, TOP_K as usize);
        let ok = match b.top_k(user, TOP_K) {
            Ok((got, seq)) => {
                seq == want_seq
                    && got.len() == want.len()
                    && got.iter().zip(&want).all(|(g, w)| {
                        // Within a tolerance two near-tied users may swap
                        // places; the values at each rank still agree.
                        how.ok(g.1, w.1) && (how != Match::Bits || g.0 as usize == w.0)
                    })
            }
            Err(_) => false,
        };
        rep.note(ok);
    }
    for (c, cr) in oracle.per_category.iter().enumerate() {
        let ok = match b.category_tables(c as u32) {
            Ok((raters, writers, seq)) => {
                let same = |got: &[(u32, f64)], want: &[(wot_community::UserId, f64)]| {
                    got.len() == want.len()
                        && got
                            .iter()
                            .zip(want)
                            .all(|(g, w)| g.0 == w.0 .0 && how.ok(g.1, w.1))
                };
                seq == want_seq
                    && same(&raters, &cr.rater_reputation)
                    && same(&writers, &cr.writer_reputation)
            }
            Err(_) => false,
        };
        rep.note(ok);
    }
    rep
}

/// The offline scans against independent routes to the same numbers: the
/// streamed support against the bitmask support count, and 16 users'
/// streamed top-10 rows against the serving snapshot's row kernel.
pub fn check_scans(
    view: &Derived,
    fig3: &Fig3Aggregates,
    top: &[Vec<(usize, f64)>],
    seed: u64,
) -> Res<Report> {
    let mut rep = Report::default();
    rep.note(fig3.support == view.trust_support_count()?);
    let truth = ServeSnapshot::new(0, view.clone());
    let mut rng = Rng::new(seed);
    for _ in 0..TOPK_USERS {
        let user = rng.below(view.num_users()) as usize;
        let want = truth.top_k(user, TOP_K as usize);
        let got = &top[user];
        rep.note(
            got.len() == want.len()
                && got
                    .iter()
                    .zip(&want)
                    .all(|(g, w)| g.0 == w.0 && g.1.to_bits() == w.1.to_bits()),
        );
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::testkit::Fake;
    use wot_core::BlockConfig;
    use wot_eval::streaming;
    use wot_synth::SynthConfig;

    fn fixture() -> (Vec<StoreEvent>, Derived) {
        let store = wot_synth::generate(&SynthConfig::tiny(11)).unwrap().store;
        let log = wot_synth::shuffled_event_log(&store, 12);
        let d = oracle(store.num_users(), store.num_categories(), &log).unwrap();
        (log, d)
    }

    #[test]
    fn a_faithful_backend_has_no_mismatch() {
        let (log, d) = fixture();
        let seq = log.len() as u64;
        let mut b = ServeSnapshot::new(seq, d.clone());
        let rep = check_backend(&mut b, &d, seq, Match::Bits, 1);
        assert_eq!(rep.mismatched, 0);
        assert_eq!(
            rep.compared,
            (PAIRS + TOPK_USERS + d.per_category.len()) as u64
        );
    }

    #[test]
    fn a_corrupted_answer_is_counted() {
        let (log, d) = fixture();
        let seq = log.len() as u64;
        let mut b = Fake {
            snap: ServeSnapshot::new(seq, d.clone()),
            refuse_ingest: false,
            corrupt_trust: true,
        };
        let rep = check_backend(&mut b, &d, seq, Match::Bits, 1);
        assert!(rep.mismatched > 0, "one-ulp corruption must be caught");
        // ...but is inside the delta workload's tolerance.
        let rep = check_backend(&mut b, &d, seq, Match::Within(DELTA_TOLERANCE), 1);
        assert_eq!(rep.mismatched, 0);
    }

    #[test]
    fn an_answer_at_the_wrong_seq_is_a_mismatch() {
        let (log, d) = fixture();
        let mut b = ServeSnapshot::new(log.len() as u64 - 1, d.clone());
        let rep = check_backend(&mut b, &d, log.len() as u64, Match::Bits, 1);
        assert_eq!(rep.mismatched, rep.compared);
    }

    #[test]
    fn scans_agree_with_their_independent_routes() {
        let (_, d) = fixture();
        let cfg = BlockConfig::sequential();
        let fig3 = streaming::fig3_aggregates(&d, &cfg).unwrap();
        let top = streaming::top_k_trusted(&d, TOP_K as usize, &cfg).unwrap();
        assert_eq!(check_scans(&d, &fig3, &top, 3).unwrap().mismatched, 0);
        let mut wrong = fig3.clone();
        wrong.support += 1;
        assert_eq!(check_scans(&d, &wrong, &top, 3).unwrap().mismatched, 1);
    }
}
