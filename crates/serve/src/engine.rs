//! The shard engine: the one durable-ingest state machine.
//!
//! The flat daemon's writer thread and every `wot-shardd` worker run the
//! same machine over one log and one model:
//!
//! ```text
//! (check (read-only admission) → log append → apply)ⁿ → commit → publish → ack
//! ```
//!
//! [`ShardEngine`] owns all of it: the log, the [`IncrementalDerived`]
//! model with its [`DerivedCache`], the admission → append → apply
//! order, the fail-stop latch, the group commit the caller runs before
//! it publishes or acks, recovery on open, and the atomic log rewrite a
//! worker's rollback needs. Only the engine appends to a live log. Its
//! callers are transports: the flat daemon drains a channel and publishes
//! snapshots, the worker drains stdin frames and rebuilds its model from
//! the log it [reads back](ShardEngine::read_back) whenever the model
//! must drop history. Admission is the model's own
//! ([`IncrementalDerived::admit`], `wot-core`'s one admission rule under
//! the model's [`IdRule`](wot_core::admission::IdRule): dense ids on the
//! flat daemon, a subset on a worker), and the engine runs it before
//! every append and over every recovered event. The worker's one check
//! of its own, category ownership, runs around the engine's.
//!
//! **Group commit.** A writer round — the flat daemon's drained batch of
//! client commands, a worker's wake-group of frames — admits any number
//! of events and then calls [`commit`](ShardEngine::commit) once. Under
//! [`FsyncPolicy::Always`] the engine runs its log as
//! [`FsyncPolicy::Manual`], so an admit writes but never syncs and the
//! commit's one sync covers every event of the round; a single-event
//! round still costs one sync. `EveryN` and `EveryMs` keep their own
//! windows (the appends and [`sync_if_due`](ShardEngine::sync_if_due)),
//! and the commit leaves them alone. Either way the order is durable,
//! then visible, then acked.
//!
//! **Fail-stop.** After a failed append or sync the log may hold bytes
//! the model never applied (a torn frame, or a whole frame whose policy
//! sync failed), so anything appended behind them would replay as a
//! history no client was acked — and a torn frame with a frame behind it
//! no longer even reopens (`CrcMismatch`). The first log error therefore
//! latches: every later [`admit`](ShardEngine::admit) is refused without
//! touching log or model, while the caller keeps serving reads from
//! what it already published. Reopening the log recovers.
//!
//! **Recovery.** [`open`](ShardEngine::open) reads an existing log
//! (refusing a wrong [`LogKind`] or a CRC-corrupt frame), lets the
//! caller fold its events onto the bootstrap model through the same
//! admission ([`fold`](ShardEngine::fold)), and only then reopens the
//! file for appending, which truncates a torn tail. A log the caller
//! refuses is therefore left byte-identical. There are no checkpoints:
//! recovery is a cold replay of the log.
//!
//! **Re-pack.** A model grown by appends has its rating arenas scattered
//! by relocations. Once recovery has folded the log — and once a
//! [`rebuild`](ShardEngine::rebuild) has folded its history — the engine
//! re-packs the model in place ([`IncrementalDerived::compact`]: node
//! order, settled slack, one arena at a time), so every solve it serves
//! reads packed memory. The re-pack changes no answer.

use std::fs::File;
use std::path::Path;
use std::sync::Arc;

use wot_community::{CategoryId, StoreEvent};
use wot_core::admission::Rejection;
use wot_core::{CategoryReputation, Derived, DerivedCache, IncrementalDerived};
use wot_wal::{read_log, read_tagged_log, FsyncPolicy, LogKind, WalError, WalWriter};

use crate::protocol::ErrorCode;
use crate::Result;

/// Why an event was not ingested: the wire error code and its message.
pub type Refusal = (ErrorCode, String);

/// One shard's durable ingest: log, model, and the order between them.
pub struct ShardEngine {
    wal: WalWriter,
    kind: LogKind,
    /// The caller's policy; the log runs under [`log_policy`] of it.
    policy: FsyncPolicy,
    model: IncrementalDerived,
    cache: DerivedCache,
    /// The fail-stop latch: the first log error (see the module docs).
    failed: Option<String>,
    /// Test seam: every sync fails with this error before reaching the
    /// file, as `fdatasync` on a character device fails with `EINVAL`.
    #[cfg(test)]
    sync_fault: Option<WalError>,
}

impl ShardEngine {
    /// Opens the log at `path` — creating it when the file is missing or
    /// empty — and recovers `model` from it.
    ///
    /// `recover` receives the model and the log's events (an untagged
    /// log's tags are the event positions) and folds whichever it keeps
    /// through [`fold`](Self::fold); its result is passed through. An
    /// error from reading the log or from `recover` leaves the file
    /// byte-identical. Only after `recover` succeeds is the file reopened
    /// for appending, which truncates a torn tail, and the model
    /// re-packed. Under [`FsyncPolicy::Always`] appends are made durable
    /// by [`commit`](Self::commit), once per round.
    pub fn open<R>(
        path: &Path,
        kind: LogKind,
        policy: FsyncPolicy,
        mut model: IncrementalDerived,
        recover: impl FnOnce(&mut IncrementalDerived, Vec<(u64, StoreEvent)>) -> Result<R>,
    ) -> Result<(ShardEngine, R)> {
        let fresh = match std::fs::metadata(path) {
            Ok(m) => m.len() == 0,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => true,
            Err(e) => return Err(e.into()),
        };
        let log = if fresh {
            Vec::new()
        } else {
            read_events(path, kind)?
        };
        let recovered = recover(&mut model, log)?;
        let wal = if fresh {
            WalWriter::create(path, kind, log_policy(policy))?
        } else {
            WalWriter::open_append(path, log_policy(policy))?.0
        };
        model.compact();
        let engine = ShardEngine {
            wal,
            kind,
            policy,
            model,
            cache: DerivedCache::default(),
            failed: None,
            #[cfg(test)]
            sync_fault: None,
        };
        Ok((engine, recovered))
    }

    /// Admission, then apply, without the log: how recovered events
    /// reach a model. Returns the event's category; a refusal comes back
    /// as its message.
    pub fn fold(
        model: &mut IncrementalDerived,
        event: &StoreEvent,
    ) -> std::result::Result<CategoryId, String> {
        model.ingest(event).map_err(|e| e.to_string())
    }

    /// Ingests one event: the model's admission (read-only), then the
    /// append — tagged with `tag` in a [`LogKind::TaggedEvents`] log —
    /// then the apply. Returns the event's category.
    ///
    /// A refusal is [`ErrorCode::Rejected`] and changes nothing. A
    /// failed append is [`ErrorCode::Internal`] and trips the fail-stop
    /// latch, after which every admit is refused with the same code.
    /// The append is durable only once [`commit`](Self::commit) or the
    /// fsync policy makes it so; a caller publishes or acks the round's
    /// events only after the round's commit.
    pub fn admit(
        &mut self,
        tag: u64,
        event: StoreEvent,
    ) -> std::result::Result<CategoryId, Refusal> {
        if let Some(cause) = &self.failed {
            return Err((
                ErrorCode::Internal,
                format!("ingest stopped after a WAL failure: {cause}"),
            ));
        }
        let refused = |r: Rejection| (ErrorCode::Rejected, r.to_string());
        let category = self.model.admit(&event).map_err(refused)?;
        if let Err(e) = append(&mut self.wal, self.kind, tag, &event) {
            return Err((ErrorCode::Internal, self.fail(&e)));
        }
        self.model
            .ingest(&event)
            .expect("an admitted event applies");
        Ok(category)
    }

    /// The group commit, run once per writer round after its admits and
    /// before the round publishes or acks anything: under
    /// [`FsyncPolicy::Always`] and [`FsyncPolicy::Manual`] one
    /// [`sync`](Self::sync) covers every append since the last one. Under
    /// `EveryN` and `EveryMs` it does nothing: the appends and
    /// [`sync_if_due`](Self::sync_if_due) keep those windows. A failure
    /// trips the latch; the round's events may then be in the log without
    /// being durable, so the caller must neither publish nor ack them.
    pub fn commit(&mut self) -> Result<()> {
        match self.policy {
            FsyncPolicy::Always | FsyncPolicy::Manual => self.sync(),
            FsyncPolicy::EveryN(_) | FsyncPolicy::EveryMs(_) => Ok(()),
        }
    }

    /// Forces every append so far to stable storage (a no-op when none
    /// is pending), whatever the policy. A failure trips the latch.
    pub fn sync(&mut self) -> Result<()> {
        if self.wal.unsynced() == 0 {
            return Ok(());
        }
        #[cfg(test)]
        if let Some(e) = self.sync_fault.clone() {
            self.fail(&e);
            return Err(e.into());
        }
        self.wal.sync().map_err(|e| {
            self.fail(&e);
            e.into()
        })
    }

    /// The idle-flush path: syncs if the fsync policy is overdue, so a
    /// quiet tail becomes durable within the policy's window. A failure
    /// trips the latch.
    pub fn sync_if_due(&mut self) {
        if self.failed.is_none() {
            if let Err(e) = self.wal.sync_if_due() {
                self.fail(&e);
            }
        }
    }

    /// Replaces the model with `model` folded over `history`, then
    /// appends `new` to the log — for a caller whose model must change
    /// more than one event at a time: the worker's rollback and category
    /// drop (history the log keeps, nothing new), and its adoption (the
    /// adopted events, merged into the history in tag order). A refused
    /// fold is [`ErrorCode::Rejected`] and leaves model and log as they
    /// were; a failed append trips the latch and keeps the old model.
    /// The adopted model is re-packed. (The cache notices the new model
    /// and resets itself.)
    pub fn rebuild(
        &mut self,
        mut model: IncrementalDerived,
        history: impl IntoIterator<Item = StoreEvent>,
        new: &[(u64, StoreEvent)],
    ) -> std::result::Result<(), Refusal> {
        if let (Some(cause), false) = (&self.failed, new.is_empty()) {
            return Err((
                ErrorCode::Internal,
                format!("ingest stopped after a WAL failure: {cause}"),
            ));
        }
        for event in history {
            model
                .ingest(&event)
                .map_err(|e| (ErrorCode::Rejected, e.to_string()))?;
        }
        for (tag, event) in new {
            if let Err(e) = append(&mut self.wal, self.kind, *tag, event) {
                return Err((ErrorCode::Internal, self.fail(&e)));
            }
        }
        model.compact();
        self.model = model;
        Ok(())
    }

    /// Rewrites the log keeping only the entries tagged below `cut`
    /// (positions, for an untagged log), so no orphan tag survives on
    /// disk: tmp file, sync, rename, directory sync, reopen. Returns how
    /// many entries were dropped. A failure trips the latch — the log
    /// the engine appends to is then unknown.
    pub fn rewrite_below(&mut self, cut: u64) -> Result<u64> {
        let result = self.rewrite(cut);
        if let Err(e) = &result {
            self.failed.get_or_insert_with(|| e.to_string());
        }
        result
    }

    /// Every complete entry of the log, tagged, in file order: the sync
    /// makes each append so far readable, then the file is read back.
    /// A failed sync trips the latch.
    pub fn read_back(&mut self) -> Result<Vec<(u64, StoreEvent)>> {
        self.sync()?;
        read_events(self.wal.path(), self.kind)
    }

    fn rewrite(&mut self, cut: u64) -> Result<u64> {
        let mut log = self.read_back()?;
        let path = self.wal.path().to_path_buf();
        let total = log.len();
        log.retain(|&(t, _)| t < cut);
        let dropped = (total - log.len()) as u64;
        if dropped == 0 {
            return Ok(0);
        }
        let tmp = path.with_extension("rewrite");
        let mut w = WalWriter::create(&tmp, self.kind, FsyncPolicy::Manual)?;
        for (t, e) in &log {
            append(&mut w, self.kind, *t, e)?;
        }
        w.sync()?;
        drop(w);
        std::fs::rename(&tmp, &path)?;
        // The rename itself must be durable: without a directory fsync a
        // power loss can resurrect the old inode (undoing the rewrite)
        // and lose every event synced to the new one since.
        let dir = path
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
            .unwrap_or_else(|| Path::new("."));
        File::open(dir)?.sync_all()?;
        self.wal = WalWriter::open_append(&path, log_policy(self.policy))?.0;
        Ok(dropped)
    }

    /// The canonical derived model, re-solving only what changed since
    /// the last call; `warm` publishes the warm solver state instead
    /// (see [`ServeOptions::delta_publish`](crate::ServeOptions::delta_publish)).
    pub fn derive(&mut self, warm: bool) -> Derived {
        if warm {
            self.model.refresh_and_derive_warm(&mut self.cache)
        } else {
            self.model.to_derived_cached(&mut self.cache)
        }
    }

    /// The canonical per-category tables, re-solving only what changed.
    pub fn tables(&mut self) -> &[Arc<CategoryReputation>] {
        self.model.tables_cached(&mut self.cache)
    }

    /// The model (read-only: every change goes through the engine).
    pub fn model(&self) -> &IncrementalDerived {
        &self.model
    }

    /// Current log length in bytes.
    pub fn wal_len(&self) -> u64 {
        self.wal.len()
    }

    /// Syncs of the log since it was opened or last rewritten: what tests
    /// hold the group commit to.
    #[doc(hidden)]
    pub fn syncs(&self) -> u64 {
        self.wal.syncs()
    }

    /// Makes every later sync fail before it reaches the file.
    #[cfg(test)]
    pub(crate) fn fail_syncs(&mut self) {
        self.sync_fault = Some(WalError::Io {
            path: self.wal.path().display().to_string(),
            message: "Invalid argument (os error 22)".into(),
        });
    }

    /// Trips the latch (the first cause wins) and returns `e` as text.
    fn fail(&mut self, e: &WalError) -> String {
        let cause = e.to_string();
        self.failed.get_or_insert_with(|| cause.clone());
        cause
    }
}

/// The policy the log itself runs under: [`FsyncPolicy::Always`] becomes
/// [`FsyncPolicy::Manual`], so an append never syncs and the round's
/// [`commit`](ShardEngine::commit) syncs once for all of them.
fn log_policy(policy: FsyncPolicy) -> FsyncPolicy {
    match policy {
        FsyncPolicy::Always => FsyncPolicy::Manual,
        other => other,
    }
}

/// Reads every complete event of a log of `kind`, tagged (an untagged
/// log's tags are positions). A torn tail is left for `open_append`.
fn read_events(path: &Path, kind: LogKind) -> Result<Vec<(u64, StoreEvent)>> {
    Ok(match kind {
        LogKind::Events => read_log(path)?
            .events
            .into_iter()
            .enumerate()
            .map(|(k, e)| (k as u64, e))
            .collect(),
        LogKind::TaggedEvents => read_tagged_log(path)?.events,
    })
}

fn append(
    wal: &mut WalWriter,
    kind: LogKind,
    tag: u64,
    event: &StoreEvent,
) -> wot_wal::Result<u64> {
    match kind {
        LogKind::Events => wal.append(event),
        LogKind::TaggedEvents => wal.append_tagged(tag, event),
    }
}

/// An engine whose every append fails before writing a byte: a tagged
/// log behind an engine that appends untagged events.
#[cfg(test)]
pub(crate) fn failing_engine(path: &Path, model: IncrementalDerived) -> ShardEngine {
    ShardEngine {
        wal: WalWriter::create(path, LogKind::TaggedEvents, FsyncPolicy::Always).unwrap(),
        kind: LogKind::Events,
        policy: FsyncPolicy::Always,
        model,
        cache: DerivedCache::default(),
        failed: None,
        sync_fault: None,
    }
}

#[cfg(test)]
mod tests {
    use wot_community::events::replay_into_store;
    use wot_community::{ReviewId, UserId};
    use wot_core::{pipeline, DeriveConfig};

    use super::*;
    use crate::conformance::{
        assert_backend_matches, assert_refuses_invalid_ingests, REFUSAL_CATEGORIES, REFUSAL_USERS,
    };
    use crate::{ServeError, ServeSnapshot, TrustIngest, WireError};

    /// A bare engine as an ingest backend: the log position is the seq.
    struct Bare {
        engine: ShardEngine,
        seq: u64,
    }

    impl TrustIngest for Bare {
        fn ingest(&mut self, event: StoreEvent) -> Result<u64> {
            self.engine
                .admit(self.seq, event)
                .map_err(|(code, message)| ServeError::Remote(WireError { code, message }))?;
            self.seq += 1;
            Ok(self.seq)
        }

        fn ingest_batch(&mut self, events: &[StoreEvent]) -> Result<u64> {
            for (index, &event) in events.iter().enumerate() {
                if let Err(ServeError::Remote(error)) = self.ingest(event) {
                    return Err(ServeError::BatchRefused {
                        acked_through: self.seq,
                        index,
                        error,
                    });
                }
            }
            Ok(self.seq)
        }
    }

    /// The engine refuses what the daemon and the coordinator refuse,
    /// with the same codes and words, and appends none of it.
    #[test]
    fn a_bare_engine_refuses_invalid_ingests() {
        let path =
            std::env::temp_dir().join(format!("wot-engine-refusals-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let model =
            IncrementalDerived::new(REFUSAL_USERS, REFUSAL_CATEGORIES, &DeriveConfig::default())
                .unwrap();
        let (engine, ()) = ShardEngine::open(
            &path,
            LogKind::Events,
            FsyncPolicy::Always,
            model,
            |_, _| Ok(()),
        )
        .unwrap();
        let mut bare = Bare { engine, seq: 0 };
        assert_refuses_invalid_ingests(&mut bare);
        let logged = bare.engine.read_back().unwrap();
        assert_eq!(
            logged.len(),
            3,
            "only the admitted events are logged: two, then a batch's prefix of one"
        );
        let _ = std::fs::remove_file(&path);
    }

    /// A model handed to `open` comes out re-packed — on a fresh log and
    /// after a replay of a written one — and its answers are still the
    /// offline pipeline's, bit for bit.
    #[test]
    fn open_re_packs_the_model_fresh_and_after_a_replay() {
        let path =
            std::env::temp_dir().join(format!("wot-engine-repack-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let store = wot_synth::generate(&wot_synth::SynthConfig::tiny(7))
            .unwrap()
            .store;
        let log = wot_synth::shuffled_event_log(&store, 8);
        let (boot, cut) = (log.len() / 3, 2 * log.len() / 3);
        let cfg = DeriveConfig::default();
        // A bootstrap grown by appends: relocations have left dead slots.
        let grown = || {
            let mut model =
                IncrementalDerived::new(store.num_users(), store.num_categories(), &cfg).unwrap();
            for e in &log[..boot] {
                model.ingest(e).unwrap();
            }
            assert!(model.heap_bytes().arena_dead > 0, "nothing relocated");
            model
        };
        let oracle = |n: usize| {
            let folded = replay_into_store(
                store.scale().clone(),
                store.num_users(),
                store.num_categories(),
                &log[..n],
            )
            .unwrap();
            pipeline::derive(&folded, &cfg).unwrap()
        };
        let serve = |engine: &mut ShardEngine, n: usize| {
            assert_eq!(engine.model().heap_bytes().arena_dead, 0, "not re-packed");
            let mut snapshot = ServeSnapshot::new(n as u64, engine.derive(false));
            assert_backend_matches(&mut snapshot, &oracle(n), n as u64);
        };

        let (mut engine, ()) = ShardEngine::open(
            &path,
            LogKind::Events,
            FsyncPolicy::Manual,
            grown(),
            |_, _| Ok(()),
        )
        .unwrap();
        serve(&mut engine, boot);
        for (k, e) in log[boot..cut].iter().enumerate() {
            engine.admit(k as u64, *e).unwrap();
        }
        engine.sync().unwrap();
        drop(engine);

        let (mut engine, replayed) = ShardEngine::open(
            &path,
            LogKind::Events,
            FsyncPolicy::Manual,
            grown(),
            |m, log| {
                for (_, e) in &log {
                    ShardEngine::fold(m, e).unwrap();
                }
                Ok(log.len())
            },
        )
        .unwrap();
        assert_eq!(boot + replayed, cut);
        serve(&mut engine, cut);
        let _ = std::fs::remove_file(&path);
    }

    /// The latch, not another append attempt, refuses the second event,
    /// and neither touches the file.
    #[test]
    fn a_failed_append_latches_and_the_log_stays_untouched() {
        let path =
            std::env::temp_dir().join(format!("wot-engine-latch-{}.wal", std::process::id()));
        let model = IncrementalDerived::new(4, 1, &DeriveConfig::default()).unwrap();
        let mut engine = failing_engine(&path, model);
        let before = std::fs::read(&path).unwrap();
        let review = StoreEvent::Review {
            writer: UserId(0),
            review: ReviewId(0),
            category: CategoryId(0),
        };

        let (code, first) = engine.admit(0, review).unwrap_err();
        assert_eq!(code, ErrorCode::Internal);
        assert!(!first.contains("ingest stopped"), "{first}");
        // An event admission would refuse: the latch answers first.
        let invalid = StoreEvent::Review {
            writer: UserId(99),
            review: ReviewId(0),
            category: CategoryId(0),
        };
        let (code, latched) = engine.admit(0, invalid).unwrap_err();
        assert_eq!(
            code,
            ErrorCode::Internal,
            "a latched engine must not even run admission"
        );
        assert!(latched.contains("ingest stopped") && latched.contains(&first));
        assert_eq!(
            engine.model().check_event(&review),
            Ok(()),
            "nothing applied"
        );
        assert_eq!(std::fs::read(&path).unwrap(), before);
        let _ = std::fs::remove_file(&path);
    }

    /// A latched engine refuses a rebuild that would append, before it
    /// folds or appends anything: the log's bytes and the model stay as
    /// they were. A rebuild that appends nothing (a rollback) still runs.
    #[test]
    fn a_latched_rebuild_with_new_events_is_refused() {
        let path = std::env::temp_dir().join(format!(
            "wot-engine-latched-rebuild-{}.wal",
            std::process::id()
        ));
        let fresh = || IncrementalDerived::new(4, 1, &DeriveConfig::default()).unwrap();
        let mut engine = failing_engine(&path, fresh());
        let review = StoreEvent::Review {
            writer: UserId(0),
            review: ReviewId(0),
            category: CategoryId(0),
        };
        let (_, cause) = engine.admit(0, review).unwrap_err();
        let before = std::fs::read(&path).unwrap();

        let (code, refused) = engine
            .rebuild(fresh(), [review], &[(0, review)])
            .unwrap_err();
        assert_eq!(code, ErrorCode::Internal);
        assert!(
            refused.contains("ingest stopped") && refused.contains(&cause),
            "{refused}"
        );
        assert_eq!(std::fs::read(&path).unwrap(), before);
        assert_eq!(
            engine.model().check_event(&review),
            Ok(()),
            "the refused rebuild replaced the model"
        );

        engine.rebuild(fresh(), [review], &[]).unwrap();
        assert!(engine.model().check_event(&review).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), before);
        let _ = std::fs::remove_file(&path);
    }
}
