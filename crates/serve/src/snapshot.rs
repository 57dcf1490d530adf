//! Immutable serving snapshots and their lock-free publication cell.
//!
//! The memory model is deliberately boring: a snapshot is an immutable
//! `Arc<ServeSnapshot>`; publication swaps which `Arc` a [`SnapshotCell`]
//! holds and bumps an atomic version counter with `Release` ordering;
//! readers keep a [`ReaderCache`] whose steady-state cost is **one
//! `Acquire` load** — the brief read-lock to re-clone the `Arc` is paid
//! only when the version actually changed. A request is answered wholly
//! from one snapshot, so a response can never mix two model states, and
//! in-flight readers pin their snapshot alive (the old `Arc` is freed
//! when its last reader drops it — classic RCU shape, built from safe
//! parts because the crate forbids `unsafe`).
//!
//! Every accessor reproduces its offline counterpart **bit-identically**
//! by calling the same code: [`ServeSnapshot::trust`] *is*
//! [`wot_core::trust::pairwise`], and [`ServeSnapshot::top_k`] is
//! [`top_k_single_row`]: one row of Eq. 5 ([`wot_core::trust::row`], read
//! straight off `E` — a snapshot carries no scan state and a publish
//! prepares none) fed to `top_k_of_row`, the reducer
//! [`Derived::trust_top_k`] runs on the cells its scan computes. The scan's panel kernels and the single-row kernel are
//! pinned `==` to `pairwise` in `wot-core`'s `trust_rows` tests.
//!
//! [`ServeSnapshot::answer`] is the one read path over them: the daemon
//! runs it per request, and every [`TrustQuery`](crate::TrustQuery)
//! backend behind the trait, so all answer and refuse alike.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use wot_community::UserId;
use wot_core::trust_rows::top_k_single_row;
use wot_core::{trust, BlockConfig, Derived};

use crate::protocol::{
    AggregateSummary, ErrorCode, OkBody, Opcode, Request, ServeStats, WireError,
};

/// One immutable published state: the canonical derived model as of a
/// known event prefix.
#[derive(Debug)]
pub struct ServeSnapshot {
    /// Number of ingestion events folded into this state — the prefix of
    /// the event history this snapshot is the oracle-checkable answer
    /// for.
    pub seq: u64,
    /// The canonical derived model (bit-identical to the batch pipeline
    /// on the same prefix).
    pub derived: Derived,
    /// Lazily computed Fig. 3 summary: the full-`T̂` scan is O(U²·C), so
    /// it runs at most once per snapshot, on the first request, and
    /// every later request reads the memo.
    aggregates: OnceLock<std::result::Result<AggregateSummary, String>>,
}

impl ServeSnapshot {
    /// Wraps a derived model as the snapshot for event prefix `seq`.
    pub fn new(seq: u64, derived: Derived) -> Self {
        ServeSnapshot {
            seq,
            derived,
            aggregates: OnceLock::new(),
        }
    }

    /// Users in the community.
    pub fn num_users(&self) -> usize {
        self.derived.affiliation.nrows()
    }

    /// Categories in the community.
    pub fn num_categories(&self) -> usize {
        self.derived.affiliation.ncols()
    }

    /// Eq. 5 for one ordered pair — exactly
    /// [`wot_core::trust::pairwise`].
    pub fn trust(&self, i: usize, j: usize) -> f64 {
        trust::pairwise(&self.derived.affiliation, &self.derived.expertise, i, j)
    }

    /// User `i`'s `k` most-trusted peers: positive trust only, self
    /// excluded, descending trust with ascending `j` breaking ties —
    /// element-for-element and bit-for-bit what
    /// [`Derived::trust_top_k`] lists for row `i`.
    ///
    /// `k = 0` yields an empty list ([`answer`](Self::answer) refuses
    /// it, in agreement with the streaming reducer's `k ≥ 1` contract).
    pub fn top_k(&self, i: usize, k: usize) -> Vec<(usize, f64)> {
        top_k_single_row(&self.derived.affiliation, &self.derived.expertise, i, k)
    }

    /// Scalar Fig. 3 summary of the full `T̂`, computed once per snapshot
    /// by [`Derived::trust_fig3`] and memoized.
    pub fn aggregates(&self) -> std::result::Result<&AggregateSummary, String> {
        self.aggregates
            .get_or_init(|| {
                let agg = self
                    .derived
                    .trust_fig3(&BlockConfig::default())
                    .map_err(|e| e.to_string())?;
                Ok(AggregateSummary {
                    users: agg.users as u64,
                    support: agg.support,
                    sum: agg.sum,
                    max: agg.max,
                    histogram: agg.histogram,
                })
            })
            .as_ref()
            .map_err(|e| e.clone())
    }

    /// What this snapshot can say about its deployment: the event count
    /// and the community shape; the counters of a live server are zero.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            events: self.seq,
            publishes: 0,
            num_users: self.num_users() as u32,
            num_categories: self.num_categories() as u32,
            wal_len: 0,
            reader_threads: 0,
        }
    }

    /// Answers one read request from this snapshot. A user or category
    /// outside the community is [`ErrorCode::OutOfRange`]; a top-k of
    /// `k = 0`, and `Ingest` or `Shutdown` (not reads), are
    /// [`ErrorCode::BadRequest`]; a failed Fig. 3 scan is
    /// [`ErrorCode::Internal`].
    pub fn answer(&self, req: &Request) -> Result<OkBody, WireError> {
        use ErrorCode::{BadRequest, OutOfRange};
        let (users, categories) = (self.num_users(), self.num_categories());
        let user = |u: u32| match u as usize {
            u if u < users => Ok(u),
            _ => refuse(
                OutOfRange,
                format!("user {u} out of range for {users} users"),
            ),
        };
        let category = |c: u32| match self.derived.per_category.get(c as usize) {
            Some(cr) => Ok(cr),
            None => refuse(
                OutOfRange,
                format!("category {c} out of range for {categories} categories"),
            ),
        };
        Ok(match *req {
            Request::Ping => OkBody::Empty(Opcode::Ping),
            Request::Trust { i, j } => OkBody::Trust(self.trust(user(i)?, user(j)?)),
            Request::TopK { user: u, k } => {
                let u = user(u)?;
                if k == 0 {
                    return refuse(BadRequest, "top-k needs k ≥ 1".into());
                }
                let top = self.top_k(u, k as usize);
                OkBody::TopK(top.into_iter().map(|(j, v)| (j as u32, v)).collect())
            }
            Request::RaterReputation {
                category: c,
                user: u,
            } => {
                let table = &category(c)?.rater_reputation;
                user(u)?;
                // Rater tables are sorted by user id.
                let at = table.binary_search_by_key(&u, |&(x, _)| x.0);
                OkBody::RaterReputation(at.ok().map(|at| table[at].1))
            }
            Request::CategoryReputations { category: c } => {
                let cr = category(c)?;
                let rows = |t: &[(UserId, f64)]| t.iter().map(|&(u, v)| (u.0, v)).collect();
                OkBody::CategoryReputations {
                    raters: rows(&cr.rater_reputation),
                    writers: rows(&cr.writer_reputation),
                }
            }
            Request::Aggregates => match self.aggregates() {
                Ok(agg) => OkBody::Aggregates(agg.clone()),
                Err(e) => return refuse(ErrorCode::Internal, e),
            },
            Request::Stats => OkBody::Stats(self.stats()),
            Request::Ingest(_) | Request::IngestBatch(_) | Request::Shutdown => {
                return refuse(BadRequest, format!("{:?} is not a read", req.opcode()))
            }
        })
    }
}

fn refuse<T>(code: ErrorCode, message: String) -> Result<T, WireError> {
    Err(WireError { code, message })
}

/// The publication point: an atomic version counter plus the current
/// snapshot `Arc` behind a briefly-held lock.
///
/// The writer calls [`publish`](SnapshotCell::publish); readers go
/// through a [`ReaderCache`] so the lock is touched only on version
/// changes. The lock is never held across any computation — writers hold
/// it for one pointer store, readers for one `Arc` clone — so it cannot
/// become a convoy even under heavy load.
#[derive(Debug)]
pub struct SnapshotCell {
    /// Bumped (Release) after each slot swap; readers check it with one
    /// Acquire load.
    version: AtomicU64,
    slot: RwLock<Arc<ServeSnapshot>>,
}

impl SnapshotCell {
    /// Creates a cell holding an initial snapshot (version 0).
    pub fn new(snapshot: Arc<ServeSnapshot>) -> Self {
        SnapshotCell {
            version: AtomicU64::new(0),
            slot: RwLock::new(snapshot),
        }
    }

    /// Atomically replaces the current snapshot and returns the one it
    /// replaced. The version bump is `Release` so a reader that observes
    /// the new version also observes the new slot contents.
    ///
    /// The lock covers the pointer swap only: the retired snapshot is
    /// handed back instead of dropped under it, so when this was its last
    /// reference, freeing its matrices runs after the lock is released —
    /// and wherever the caller drops it (the daemon's writer, after it
    /// has sent the acks).
    pub fn publish(&self, snapshot: Arc<ServeSnapshot>) -> Arc<ServeSnapshot> {
        // The guard is a temporary of this statement: released here.
        let retired = std::mem::replace(
            &mut *self.slot.write().expect("snapshot slot poisoned"),
            snapshot,
        );
        self.version.fetch_add(1, Ordering::Release);
        retired
    }

    /// Publications so far.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Clones out the current snapshot (a reader-cache miss; use
    /// [`ReaderCache::current`] on hot paths).
    pub fn load(&self) -> Arc<ServeSnapshot> {
        self.slot.read().expect("snapshot slot poisoned").clone()
    }
}

/// A reader's thread-local handle: re-clones from the cell only when the
/// published version moved, so the steady-state cost of "give me the
/// current snapshot" is a single atomic load and no shared-cacheline
/// writes.
#[derive(Debug)]
pub struct ReaderCache {
    version: u64,
    snapshot: Arc<ServeSnapshot>,
}

impl ReaderCache {
    /// Primes a cache from the cell's current state.
    pub fn new(cell: &SnapshotCell) -> Self {
        ReaderCache {
            version: cell.version(),
            snapshot: cell.load(),
        }
    }

    /// The current snapshot, refreshed from `cell` iff a newer one was
    /// published since the last call.
    ///
    /// (If a publish lands between the version load and the slot read,
    /// the cache may briefly hold a snapshot *newer* than its recorded
    /// version — harmless: snapshots only move forward, and the next
    /// call re-clones.)
    pub fn current(&mut self, cell: &SnapshotCell) -> &Arc<ServeSnapshot> {
        let v = cell.version();
        if v != self.version {
            self.snapshot = cell.load();
            self.version = v;
        }
        &self.snapshot
    }
}

#[cfg(test)]
mod tests {
    use wot_core::{pipeline, DeriveConfig};
    use wot_synth::SynthConfig;

    use super::*;

    fn derive_tiny(seed: u64) -> Derived {
        let out = wot_synth::generate(&SynthConfig::tiny(seed)).unwrap();
        pipeline::derive(&out.store, &DeriveConfig::default()).unwrap()
    }

    fn snapshot() -> ServeSnapshot {
        ServeSnapshot::new(0, derive_tiny(31))
    }

    /// The serving top-k must be **bit-identical** to the streaming
    /// reducer — same members, same order, same f64 bits — because the
    /// conformance contract compares served answers to the offline
    /// oracle with `==`. Checked for every user, from a threaded,
    /// multi-chunk scan.
    #[test]
    fn top_k_is_bit_identical_to_streaming_reducer() {
        let snap = snapshot();
        let cfg = BlockConfig {
            block_rows: 7,
            threads: 2,
        };
        for k in [1usize, 3, 7, 1000] {
            let oracle = snap.derived.trust_top_k(k, &cfg).unwrap().lists;
            assert_eq!(oracle.len(), snap.num_users());
            for (i, want) in oracle.iter().enumerate() {
                let got = snap.top_k(i, k);
                assert_eq!(got.len(), want.len(), "user {i}, k={k}");
                for (g, w) in got.iter().zip(want) {
                    assert_eq!(g.0, w.0, "user {i}, k={k}");
                    assert_eq!(g.1.to_bits(), w.1.to_bits(), "user {i}, k={k}");
                }
            }
        }
        assert!(snap.top_k(0, 0).is_empty());
    }

    #[test]
    fn aggregates_memo_matches_streaming_reducer() {
        let snap = snapshot();
        let want = snap.derived.trust_fig3(&BlockConfig::sequential()).unwrap();
        let got = snap.aggregates().unwrap();
        assert_eq!(got.users, want.users as u64);
        assert_eq!(got.support, want.support);
        assert_eq!(got.sum.to_bits(), want.sum.to_bits());
        assert_eq!(got.max.to_bits(), want.max.to_bits());
        assert_eq!(got.histogram, want.histogram);
        // Second call serves the memo (same reference).
        let again = snap.aggregates().unwrap();
        assert!(std::ptr::eq(got, again));
    }

    #[test]
    fn reader_cache_tracks_publications_with_one_atomic_load() {
        let snap = snapshot();
        let users = snap.num_users() as u64;
        let cell = SnapshotCell::new(Arc::new(snap));
        let mut cache = ReaderCache::new(&cell);
        assert_eq!(cell.version(), 0);
        let s0 = Arc::as_ptr(cache.current(&cell));
        // No publication: the cached Arc is returned as-is.
        assert!(std::ptr::eq(s0, Arc::as_ptr(cache.current(&cell))));
        // Publish a successor; the cache picks it up on the next call.
        let retired = cell.publish(Arc::new(ServeSnapshot::new(users, derive_tiny(31))));
        assert!(std::ptr::eq(s0, Arc::as_ptr(&retired)));
        assert_eq!(cell.version(), 1);
        let s1 = cache.current(&cell);
        assert_eq!(s1.seq, users);
        assert!(!std::ptr::eq(s0, Arc::as_ptr(s1)));
    }

    /// `publish` hands back exactly the snapshot it replaced, each time,
    /// so the caller decides where the last reference is dropped.
    #[test]
    fn publish_returns_the_previously_published_snapshot() {
        let first = Arc::new(snapshot());
        let cell = SnapshotCell::new(Arc::clone(&first));
        let second = Arc::new(ServeSnapshot::new(1, derive_tiny(32)));
        let retired = cell.publish(Arc::clone(&second));
        assert!(Arc::ptr_eq(&retired, &first));
        drop(retired);
        // The cell no longer holds the retired one: ours is the last
        // reference.
        assert_eq!(Arc::strong_count(&first), 1);
        let retired = cell.publish(Arc::new(ServeSnapshot::new(2, derive_tiny(33))));
        assert!(Arc::ptr_eq(&retired, &second));
        drop(retired);
        assert_eq!(Arc::strong_count(&second), 1);
        assert_eq!(cell.load().seq, 2);
    }

    /// Readers holding an old snapshot keep it alive and coherent while
    /// the writer publishes new ones — the RCU property.
    #[test]
    fn in_flight_readers_pin_their_snapshot() {
        let snap = snapshot();
        let trust_before = snap.trust(0, 1);
        let cell = Arc::new(SnapshotCell::new(Arc::new(snap)));
        let pinned = cell.load();
        for gen in 1..=3u64 {
            cell.publish(Arc::new(ServeSnapshot::new(gen, derive_tiny(31 + gen))));
        }
        // The pinned snapshot still answers from its own state.
        assert_eq!(pinned.seq, 0);
        assert_eq!(pinned.trust(0, 1).to_bits(), trust_before.to_bits());
        // And the cell serves the newest.
        assert_eq!(cell.load().seq, 3);
    }
}
