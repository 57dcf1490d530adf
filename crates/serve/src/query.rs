//! The unified query surface every trust backend answers.
//!
//! Three very different deployments answer the same six questions: an
//! in-process [`ServeSnapshot`] (no I/O at all), the TCP [`Client`]
//! talking to the single-process daemon, and the multi-process
//! [`Coordinator`](crate::coord::Coordinator) scatter-gathering over
//! shard workers. [`TrustQuery`] pins the shared contract — each answer
//! carries the **snapshot sequence number** it was computed at, so a
//! conformance harness can name the exact event prefix an answer must
//! match and hold every backend to the same bitwise oracle
//! ([`crate::conformance`]).
//!
//! Methods take `&mut self` because the remote backends own a
//! connection (a request mutates stream state); the in-process
//! implementation simply ignores the mutability.

use wot_community::StoreEvent;

use crate::client::{unexpected, Client, ReputationTable};
use crate::protocol::{AggregateSummary, OkBody, Request, ServeStats};
use crate::snapshot::ServeSnapshot;
use crate::{Result, ServeError};

/// A backend that accepts live events, acking with the new global
/// sequence number once they are durable.
///
/// The durability contract shared by all implementations: when
/// `ingest_batch` returns `Ok(s)`, every event of the slice is durable
/// in a write-ahead log and a [`TrustQuery`] answer at seq `s` reflects
/// the whole slice. Implementations are free to pipeline and batch
/// internally (the [`Coordinator`](crate::coord::Coordinator) keeps
/// frames to different workers concurrently in flight) — the
/// conformance harness only observes the public ack boundary.
pub trait TrustIngest {
    /// Ingests one event; acks with the new global seq.
    fn ingest(&mut self, event: StoreEvent) -> Result<u64>;

    /// Ingests a slice of events; acks with the new global seq once the
    /// whole slice is durable (the current seq for an empty slice).
    ///
    /// **Partial batches.** Admission stops at the first refused event,
    /// and the prefix before it stays durable and acked. That outcome
    /// is [`ServeError::BatchRefused`]: `acked_through` is the acked
    /// horizon covering the prefix, `index` the refused event's position
    /// in the slice, `error` its typed refusal. Resume from `index`;
    /// retrying the whole slice would ingest the prefix twice. Every
    /// other `Err` from the [`Client`] or the
    /// [`Coordinator`](crate::coord::Coordinator) acked nothing of the
    /// call (the Coordinator rolls a round a worker failed back to its
    /// base seq), except a Coordinator routing error, which keeps the
    /// prefix like a refusal does; re-read the acked seq
    /// ([`TrustQuery::stats`]) before retrying after one.
    fn ingest_batch(&mut self, events: &[StoreEvent]) -> Result<u64>;
}

impl TrustIngest for Client {
    fn ingest(&mut self, event: StoreEvent) -> Result<u64> {
        Client::ingest(self, event)
    }

    fn ingest_batch(&mut self, events: &[StoreEvent]) -> Result<u64> {
        Client::ingest_batch(self, events)
    }
}

/// A backend that can answer the paper's derived-trust queries, each
/// answer tagged with the sequence number of the snapshot it came from.
///
/// The contract shared by all implementations: an answer at seq `s` is
/// **bit-identical** (`==` on `f64`) to what the offline batch pipeline
/// derives from the first `s` events of the global history.
pub trait TrustQuery {
    /// Eq. 5 pairwise trust `T̂_ij`, with the serving seq.
    fn trust(&mut self, i: u32, j: u32) -> Result<(f64, u64)>;

    /// Top-k most trusted users for `user` (positive scores only,
    /// descending, ascending-id tie-break), with the serving seq.
    fn top_k(&mut self, user: u32, k: u32) -> Result<(Vec<(u32, f64)>, u64)>;

    /// One rater's converged reputation in one category (`None` if the
    /// user never rated there), with the serving seq.
    fn rater_reputation(&mut self, category: u32, user: u32) -> Result<(Option<f64>, u64)>;

    /// The full rater and writer reputation tables of one category
    /// (ascending user id), with the serving seq.
    fn category_tables(&mut self, category: u32)
        -> Result<(ReputationTable, ReputationTable, u64)>;

    /// The Fig. 3 trust-distribution aggregates over all pairs, with the
    /// serving seq.
    fn fig3_aggregates(&mut self) -> Result<(AggregateSummary, u64)>;

    /// Backend statistics, with the serving seq. Only the dataset-shape
    /// fields (`num_users`, `num_categories`, `events`) are part of the
    /// cross-backend contract; the rest describe the specific deployment.
    fn stats(&mut self) -> Result<(ServeStats, u64)>;
}

/// The daemon's read path without the socket: every method is
/// [`ServeSnapshot::answer`], refusing as [`ServeError::Remote`].
impl TrustQuery for ServeSnapshot {
    fn trust(&mut self, i: u32, j: u32) -> Result<(f64, u64)> {
        match ask(self, Request::Trust { i, j })? {
            OkBody::Trust(v) => Ok((v, self.seq)),
            other => Err(unexpected(&other, "trust")),
        }
    }

    fn top_k(&mut self, user: u32, k: u32) -> Result<(Vec<(u32, f64)>, u64)> {
        match ask(self, Request::TopK { user, k })? {
            OkBody::TopK(top) => Ok((top, self.seq)),
            other => Err(unexpected(&other, "top-k")),
        }
    }

    fn rater_reputation(&mut self, category: u32, user: u32) -> Result<(Option<f64>, u64)> {
        match ask(self, Request::RaterReputation { category, user })? {
            OkBody::RaterReputation(v) => Ok((v, self.seq)),
            other => Err(unexpected(&other, "rater-reputation")),
        }
    }

    fn category_tables(
        &mut self,
        category: u32,
    ) -> Result<(ReputationTable, ReputationTable, u64)> {
        match ask(self, Request::CategoryReputations { category })? {
            OkBody::CategoryReputations { raters, writers } => Ok((raters, writers, self.seq)),
            other => Err(unexpected(&other, "category-reputations")),
        }
    }

    fn fig3_aggregates(&mut self) -> Result<(AggregateSummary, u64)> {
        match ask(self, Request::Aggregates)? {
            OkBody::Aggregates(agg) => Ok((agg, self.seq)),
            other => Err(unexpected(&other, "aggregates")),
        }
    }

    fn stats(&mut self) -> Result<(ServeStats, u64)> {
        match ask(self, Request::Stats)? {
            OkBody::Stats(stats) => Ok((stats, self.seq)),
            other => Err(unexpected(&other, "stats")),
        }
    }
}

fn ask(snapshot: &ServeSnapshot, req: Request) -> Result<OkBody> {
    snapshot.answer(&req).map_err(ServeError::Remote)
}

impl TrustQuery for Client {
    fn trust(&mut self, i: u32, j: u32) -> Result<(f64, u64)> {
        let v = Client::trust(self, i, j)?;
        Ok((v, self.last_seq()))
    }

    fn top_k(&mut self, user: u32, k: u32) -> Result<(Vec<(u32, f64)>, u64)> {
        let v = Client::top_k(self, user, k)?;
        Ok((v, self.last_seq()))
    }

    fn rater_reputation(&mut self, category: u32, user: u32) -> Result<(Option<f64>, u64)> {
        let v = Client::rater_reputation(self, category, user)?;
        Ok((v, self.last_seq()))
    }

    fn category_tables(
        &mut self,
        category: u32,
    ) -> Result<(ReputationTable, ReputationTable, u64)> {
        let (raters, writers) = Client::category_reputations(self, category)?;
        Ok((raters, writers, self.last_seq()))
    }

    fn fig3_aggregates(&mut self) -> Result<(AggregateSummary, u64)> {
        let v = Client::aggregates(self)?;
        Ok((v, self.last_seq()))
    }

    fn stats(&mut self) -> Result<(ServeStats, u64)> {
        let v = Client::stats(self)?;
        Ok((v, self.last_seq()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wot_community::{CommunityBuilder, RatingScale, UserId};
    use wot_core::{pipeline, DeriveConfig};

    fn tiny_snapshot() -> ServeSnapshot {
        let mut b = CommunityBuilder::new(RatingScale::five_step());
        for i in 0..4 {
            b.add_user(format!("u{i}"));
        }
        b.add_category("c0");
        let o = b.add_object("o0", wot_community::CategoryId(0)).unwrap();
        let r = b.add_review(UserId(0), o).unwrap();
        b.add_rating(UserId(1), r, 0.8).unwrap();
        let store = b.build();
        let derived = pipeline::derive(&store, &DeriveConfig::default()).unwrap();
        ServeSnapshot::new(7, derived)
    }

    #[test]
    fn snapshot_backend_reports_its_seq_everywhere() {
        let mut s = tiny_snapshot();
        assert_eq!(TrustQuery::trust(&mut s, 0, 1).unwrap().1, 7);
        assert_eq!(TrustQuery::top_k(&mut s, 1, 3).unwrap().1, 7);
        assert_eq!(TrustQuery::rater_reputation(&mut s, 0, 1).unwrap().1, 7);
        assert_eq!(TrustQuery::category_tables(&mut s, 0).unwrap().2, 7);
        assert_eq!(TrustQuery::fig3_aggregates(&mut s).unwrap().1, 7);
        let (stats, seq) = TrustQuery::stats(&mut s).unwrap();
        assert_eq!(seq, 7);
        assert_eq!(stats.num_users, 4);
        assert_eq!(stats.num_categories, 1);
    }

    #[test]
    fn snapshot_backend_rejects_out_of_range() {
        let mut s = tiny_snapshot();
        assert!(TrustQuery::trust(&mut s, 0, 99).is_err());
        assert!(TrustQuery::top_k(&mut s, 99, 3).is_err());
        assert!(TrustQuery::rater_reputation(&mut s, 9, 0).is_err());
        assert!(TrustQuery::category_tables(&mut s, 9).is_err());
    }

    /// The in-process backend refuses exactly as the daemon does.
    #[test]
    fn snapshot_refuses_invalid_reads_like_the_daemon() {
        crate::conformance::assert_refuses_invalid_reads(&mut tiny_snapshot(), 4, 1);
    }

    #[test]
    fn snapshot_rater_lookup_matches_table() {
        let mut s = tiny_snapshot();
        let (raters, _, _) = TrustQuery::category_tables(&mut s, 0).unwrap();
        let (got, _) = TrustQuery::rater_reputation(&mut s, 0, 1).unwrap();
        let want = raters.iter().find(|&&(u, _)| u == 1).map(|&(_, v)| v);
        assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
        assert_eq!(TrustQuery::rater_reputation(&mut s, 0, 3).unwrap().0, None);
    }
}
