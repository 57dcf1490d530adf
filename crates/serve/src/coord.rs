//! Multi-process coordinator: shard workers behind one [`TrustQuery`].
//!
//! The coordinator owns the cluster topology and the *global* event
//! history; each `wot-shardd` worker process owns a set of categories
//! end-to-end — their sequence-tagged local WAL, their incremental
//! model, their per-category solves. The paper's math dictates the
//! split (see ARCHITECTURE §8): every Step-1 quantity is
//! category-local, so per-category reputation tables come back from
//! whichever worker owns the category, while Eq. 4's affiliation
//! normalizes **across all categories per user** and therefore cannot be
//! computed by any category-subset worker. The coordinator closes that
//! gap with exact integers: it routes every event anyway, so it feeds
//! the per-user activity counts into the same [`ActivityLedger`] the
//! flat model keeps, and hands that ledger plus the workers' tables to
//! the same [`Assembler`] the flat model publishes through — Eq. 4 rows
//! recomputed only for users whose counts moved, `E` columns rewritten
//! only for categories whose tables were replaced. The assembled
//! [`ServeSnapshot`] is therefore **bit-identical** to the flat daemon's
//! at every acked sequence: same tables (same solves over the same
//! per-category event order), same assembly code, same query code.
//!
//! Transparency is enforced, not assumed: the cluster conformance
//! drills in `crates/shardd/tests` hold every answer to the offline
//! batch oracle with `==` on `f64` bits — including after a `kill -9`
//! of a worker restarted from its log, across a live category
//! rebalance, and under pipelined multi-worker ingest rounds.
//!
//! # Pipelined worker I/O
//!
//! Each worker gets a dedicated **writer queue** (a thread draining
//! encoded frames onto the worker's stdin) and a dedicated **reader
//! thread** (decoding reply frames off its stdout into one shared
//! channel), so the coordinator never blocks on a pipe and frames
//! routed to *different* workers are in flight concurrently. Replies
//! correlate positionally — each worker answers in request order — and
//! an ingest batch is closed by a single [`ShardReply::Ingested`] ack
//! naming its durability horizon. All waits honour
//! [`CoordinatorOptions::worker_timeout`]: a worker that misses the
//! deadline is declared unresponsive with a typed error
//! ([`ServeError::WorkerUnresponsive`]), quarantined, and brought back
//! through [`Coordinator::restart_worker`] — never hung on.
//!
//! Acks no longer carry solved tables: a worker acknowledges
//! durability-plus-apply only, and the coordinator fetches re-solved
//! tables lazily ([`ShardRequest::States`] over the dirtied categories)
//! when a query forces a snapshot refresh. That keeps the ingest path
//! free of per-event solves — the other half of the throughput win.
//!
//! # Durability and the consistent cut
//!
//! An ingest round is acknowledged only after every owning worker
//! reports the routed events durable in its tagged log. The coordinator
//! applies the round's global metadata *speculatively* while the frames
//! are in flight; if any worker fails mid-round, the whole round rolls
//! back to its base sequence — the speculative state is undone, the
//! healthy workers discard their round events through
//! [`ShardRequest::Truncate`] (queued behind their in-flight ingests,
//! so per-worker FIFO ordering makes the rollback total), and the
//! failed worker's routed events are parked as *in flight*. Restart
//! reconciles them against the quiescent log: durable tags that extend
//! the acked prefix contiguously are adopted into history, everything
//! else is physically truncated by the handshake's `cut` so no dead tag
//! can ever be re-issued to a different event. Per-worker ordering is
//! enough for a global consistent cut because nothing in a failed round
//! was globally acked — the acked prefix is, by construction, exactly
//! the union of the worker logs below the cut.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wot_community::{CategoryId, ReviewId, ShardAssignment, ShardId, StoreEvent, UserId};
use wot_core::admission::{self, AdmissionView, IdRule, ReviewRow, ReviewTable};
use wot_core::{ActivityLedger, Assembler, CategoryReputation};

use crate::client::ReputationTable;
use crate::protocol::{
    read_frame, write_frame, AggregateSummary, ErrorCode, FrameRead, ServeStats, WireError,
};
use crate::query::{TrustIngest, TrustQuery};
use crate::shard_proto::{
    decode_shard_reply, encode_shard_request, ShardReply, ShardRequest, MAX_SHARD_FRAME_LEN, NO_TAG,
};
use crate::snapshot::ServeSnapshot;
use crate::{Result, ServeError};

/// Most events one [`ShardRequest::Ingest`] frame carries. An
/// [`ingest_batch`](Coordinator::ingest_batch) round ships each owning
/// worker its events of the round as one run, split only at this depth;
/// each run's last tag is the horizon its `Ingested` ack must name.
/// Mirrors the flat daemon's 256-deep shared publish cycle.
const MAX_BATCH_RUN: usize = 256;

/// How a [`Coordinator`] boots its cluster.
#[derive(Debug, Clone)]
pub struct CoordinatorOptions {
    /// Path to the `wot-shardd` worker binary.
    pub worker_bin: PathBuf,
    /// Directory for the per-worker tagged WALs (`worker-NN.wal`),
    /// created if absent. The coordinator's global history lives in
    /// memory only, so [`Coordinator::start`] refuses a directory where a
    /// worker log already holds events; a worker restart
    /// ([`Coordinator::restart_worker`]) is what replays a log.
    pub wal_dir: PathBuf,
    /// Worker process count (clamped to at least 1).
    pub num_workers: usize,
    /// Community user count (fixes every model's shape).
    pub num_users: usize,
    /// Community category count (fixes every model's shape).
    pub num_categories: usize,
    /// Deadline for any single worker reply. A worker that misses it is
    /// declared unresponsive ([`ServeError::WorkerUnresponsive`]) and
    /// quarantined until [`Coordinator::restart_worker`] — the
    /// coordinator never hangs on a wedged pipe.
    pub worker_timeout: Duration,
}

impl CoordinatorOptions {
    /// Conventional options: `workers` processes over the binary built
    /// next to the current executable (override with the
    /// `WOT_SHARDD_BIN` environment variable), with a generous
    /// 60-second worker deadline.
    pub fn new(
        wal_dir: impl Into<PathBuf>,
        num_workers: usize,
        num_users: usize,
        num_categories: usize,
    ) -> Self {
        CoordinatorOptions {
            worker_bin: default_worker_bin(),
            wal_dir: wal_dir.into(),
            num_workers,
            num_users,
            num_categories,
            worker_timeout: Duration::from_secs(60),
        }
    }
}

/// Best-effort discovery of the `wot-shardd` binary: the
/// `WOT_SHARDD_BIN` environment variable, else a sibling of the current
/// executable (both `target/<profile>/` and `target/<profile>/deps/`
/// launch points are covered).
pub fn default_worker_bin() -> PathBuf {
    if let Ok(p) = std::env::var("WOT_SHARDD_BIN") {
        return PathBuf::from(p);
    }
    let exe = std::env::current_exe().unwrap_or_default();
    let mut dir = exe.parent().map(PathBuf::from).unwrap_or_default();
    if dir.ends_with("deps") {
        dir.pop();
    }
    dir.join("wot-shardd")
}

/// Worker `w`'s tagged log in `dir`.
fn worker_wal(dir: &Path, w: usize) -> PathBuf {
    dir.join(format!("worker-{w:02}.wal"))
}

/// What a worker's reader thread saw on its reply stream.
#[derive(Debug)]
enum WorkerPayload {
    /// One complete reply frame body.
    Frame(Vec<u8>),
    /// The worker closed its pipe (exit or crash).
    Closed,
    /// The reply stream broke (I/O error, oversized frame).
    Failed(String),
}

/// One reader-thread observation, routed through the shared channel.
struct WorkerMsg {
    worker: usize,
    /// Spawn generation — late messages from a pre-restart reader carry
    /// a stale generation and are discarded.
    gen: u64,
    payload: WorkerPayload,
}

/// One live worker process with its dedicated writer queue and reader
/// thread.
struct WorkerHandle {
    child: Child,
    wal_path: PathBuf,
    gen: u64,
    /// Set on any transport failure or missed deadline: the session with
    /// this process is unrecoverable and every further use is refused
    /// until [`Coordinator::restart_worker`] replaces it.
    poisoned: bool,
    /// The writer queue: encoded frames a dedicated thread drains onto
    /// the worker's stdin, so the coordinator never blocks on a pipe.
    tx: Option<Sender<Vec<u8>>>,
    /// Replies that arrived while the coordinator was waiting on a
    /// different worker (per-worker FIFO order preserved).
    inbox: VecDeque<WorkerPayload>,
    writer: Option<JoinHandle<()>>,
    reader: Option<JoinHandle<()>>,
}

impl WorkerHandle {
    fn spawn(
        bin: &Path,
        wal_path: &Path,
        worker: usize,
        gen: u64,
        events: Sender<WorkerMsg>,
    ) -> Result<WorkerHandle> {
        let mut child = Command::new(bin)
            .arg("--wal")
            .arg(wal_path)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| {
                ServeError::WorkerSpawn(format!(
                    "spawning worker {worker} from {}: {e}",
                    bin.display()
                ))
            })?;
        let Some(mut stdin) = child.stdin.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(ServeError::WorkerSpawn(format!(
                "worker {worker} came up without a piped stdin"
            )));
        };
        let Some(mut stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(ServeError::WorkerSpawn(format!(
                "worker {worker} came up without a piped stdout"
            )));
        };
        let (tx, rx) = mpsc::channel::<Vec<u8>>();
        let writer = std::thread::spawn(move || {
            // A dead pipe surfaces as a write error here and as EOF on
            // the reader — the reader's report is the one the
            // coordinator acts on.
            while let Ok(frame) = rx.recv() {
                if write_frame(&mut stdin, &frame).is_err() {
                    break;
                }
            }
            // Dropping stdin closes the worker's request stream.
        });
        let reader = std::thread::spawn(move || loop {
            let payload = match read_frame(&mut stdout, MAX_SHARD_FRAME_LEN) {
                Ok(FrameRead::Frame(body)) => WorkerPayload::Frame(body),
                Ok(FrameRead::Idle) => continue,
                Ok(FrameRead::Closed) => WorkerPayload::Closed,
                Ok(FrameRead::TooLarge { len }) => {
                    WorkerPayload::Failed(format!("reply of {len} bytes exceeds the frame cap"))
                }
                Err(e) => WorkerPayload::Failed(format!("reply stream error: {e}")),
            };
            let terminal = !matches!(payload, WorkerPayload::Frame(_));
            let gone = events
                .send(WorkerMsg {
                    worker,
                    gen,
                    payload,
                })
                .is_err();
            if terminal || gone {
                return;
            }
        });
        Ok(WorkerHandle {
            child,
            wal_path: wal_path.to_path_buf(),
            gen,
            poisoned: false,
            tx: Some(tx),
            inbox: VecDeque::new(),
            writer: Some(writer),
            reader: Some(reader),
        })
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        // Reap unconditionally so no zombie survives any teardown path;
        // kill/wait after a graceful exit are harmless no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
        // Closing the queue stops the writer; the kill EOFs the reader.
        drop(self.tx.take());
        if let Some(t) = self.writer.take() {
            let _ = t.join();
        }
        if let Some(t) = self.reader.take() {
            let _ = t.join();
        }
    }
}

/// The multi-process cluster behind one [`TrustQuery`] surface.
///
/// Single-threaded by design: one coordinator call is one global
/// sequence point, so "cut ingest over at a sequence boundary" — the
/// rebalancing contract — holds by construction between any two calls.
/// Pipelining lives *inside* [`ingest_batch`](Self::ingest_batch):
/// every reply a call solicits is collected before the call returns, so
/// no reply is outstanding at any public API boundary.
pub struct Coordinator {
    opts: CoordinatorOptions,
    workers: Vec<WorkerHandle>,
    /// The shared reply channel all reader threads feed. The coordinator
    /// keeps its own sender clone so the channel never disconnects.
    events_rx: Receiver<WorkerMsg>,
    events_tx: Sender<WorkerMsg>,
    assignment: ShardAssignment,
    /// Validated wire-width copies of the community shape.
    num_users_wire: u32,
    num_categories_wire: u32,
    /// What admission reads of the acked history.
    history: History,
    /// Exact `a^r` / `a^w` counts (Eq. 4 input), row-stamped per change.
    counts: ActivityLedger,
    /// Latest solved tables per category, as fetched from the owners.
    per_cat: Vec<Arc<CategoryReputation>>,
    /// `E` and `A` as of the last refresh, patched where `counts` and
    /// `per_cat` changed since.
    assembler: Assembler,
    /// Categories dirtied since their tables were last fetched — the
    /// lazy [`ShardRequest::States`] fetch set.
    stale_cats: BTreeSet<u32>,
    /// Acked global events — the seq every answer is stamped with.
    seq: u64,
    publishes: u64,
    dirty: bool,
    snapshot: ServeSnapshot,
    /// Events of an aborted round routed to the failed worker
    /// ([`inflight_worker`](field@Coordinator::inflight_worker)),
    /// ascending tags; reconciled at that worker's restart.
    inflight: Vec<(u64, StoreEvent)>,
    inflight_worker: Option<usize>,
    /// `Ingest` frames enqueued since start.
    ingest_frames: u64,
}

/// What admission reads of the acked history: every review (the routing
/// key of its ratings) and, per review, its raters so far, ascending.
struct History {
    num_users: usize,
    reviews: ReviewTable,
    raters_of_review: Vec<Vec<u32>>,
}

impl AdmissionView for History {
    fn num_users(&self) -> usize {
        self.num_users
    }

    fn reviews(&self) -> &ReviewTable {
        &self.reviews
    }

    /// The coordinator routes every event, so it sees every review.
    fn id_rule(&self) -> IdRule {
        IdRule::Dense
    }

    fn has_rated(&self, rater: UserId, review: ReviewId, _: ReviewRow) -> bool {
        self.raters_of_review[review.index()]
            .binary_search(&rater.0)
            .is_ok()
    }
}

impl Coordinator {
    /// Boots the cluster: spawns the workers and hands each its
    /// categories. The initial assignment deals categories round-robin;
    /// [`rebalance`](Self::rebalance) moves them live.
    ///
    /// A fresh coordinator starts at seq 0 — its global metadata is
    /// in-memory, so there is no coordinator-level restart: before
    /// spawning anything, `start` refuses with [`ServeError::Config`],
    /// naming the first `worker-NN.wal` that already holds events, and
    /// leaves every file intact. Worker-level crash recovery, the drilled
    /// path, goes through [`restart_worker`](Self::restart_worker).
    pub fn start(opts: CoordinatorOptions) -> Result<Coordinator> {
        let num_workers = opts.num_workers.max(1);
        let num_users_wire = u32::try_from(opts.num_users).map_err(|_| {
            ServeError::Config(format!(
                "num_users {} exceeds the wire's u32 range",
                opts.num_users
            ))
        })?;
        let num_categories_wire = u32::try_from(opts.num_categories).map_err(|_| {
            ServeError::Config(format!(
                "num_categories {} exceeds the wire's u32 range",
                opts.num_categories
            ))
        })?;
        for w in 0..num_workers {
            let wal_path = worker_wal(&opts.wal_dir, w);
            if wal_path.exists() && !wot_wal::read_tagged_log(&wal_path)?.events.is_empty() {
                return Err(ServeError::Config(format!(
                    "{} already holds events; a coordinator cannot restart over existing \
                     worker logs",
                    wal_path.display()
                )));
            }
        }
        std::fs::create_dir_all(&opts.wal_dir)?;
        let assignment = ShardAssignment::round_robin(opts.num_categories, num_workers);
        let (events_tx, events_rx) = mpsc::channel();
        let mut workers = Vec::with_capacity(num_workers);
        for w in 0..num_workers {
            let wal_path = worker_wal(&opts.wal_dir, w);
            workers.push(WorkerHandle::spawn(
                &opts.worker_bin,
                &wal_path,
                w,
                0,
                events_tx.clone(),
            )?);
        }
        let counts = ActivityLedger::new(opts.num_users, opts.num_categories);
        let history = History {
            num_users: opts.num_users,
            reviews: ReviewTable::new(opts.num_categories),
            raters_of_review: Vec::new(),
        };
        let per_cat = CategoryReputation::empty_tables(opts.num_categories);
        let mut assembler = Assembler::default();
        let snapshot = ServeSnapshot::new(0, assembler.assemble(&counts, &per_cat));
        let mut coord = Coordinator {
            counts,
            assembler,
            opts,
            workers,
            events_rx,
            events_tx,
            assignment,
            num_users_wire,
            num_categories_wire,
            history,
            per_cat,
            stale_cats: BTreeSet::new(),
            seq: 0,
            publishes: 0,
            dirty: false,
            snapshot,
            inflight: Vec::new(),
            inflight_worker: None,
            ingest_frames: 0,
        };
        for w in 0..num_workers {
            coord.hello_worker(w, NO_TAG)?;
        }
        Ok(coord)
    }

    fn timeout_ms(&self) -> u64 {
        self.opts.worker_timeout.as_millis() as u64
    }

    /// Quarantines worker `w` and builds the matching typed error.
    fn gone(&mut self, w: usize, detail: impl Into<String>) -> ServeError {
        self.workers[w].poisoned = true;
        ServeError::WorkerGone {
            worker: w,
            detail: detail.into(),
        }
    }

    /// Enqueues one request frame on worker `w`'s writer queue. Returns
    /// immediately — the frame is in flight, not yet answered.
    fn send(&mut self, w: usize, req: &ShardRequest) -> Result<()> {
        if self.workers[w].poisoned {
            return Err(ServeError::WorkerGone {
                worker: w,
                detail: "quarantined after an earlier failure; restart_worker first".into(),
            });
        }
        let mut buf = Vec::new();
        encode_shard_request(&mut buf, req);
        let ok = self.workers[w]
            .tx
            .as_ref()
            .is_some_and(|tx| tx.send(buf).is_ok());
        if ok {
            Ok(())
        } else {
            Err(self.gone(w, "writer queue closed"))
        }
    }

    /// Pops the next transport payload from worker `w`, honouring the
    /// I/O deadline. Replies from other workers arriving meanwhile are
    /// parked in their inboxes; messages from a pre-restart reader
    /// generation are discarded. A missed deadline quarantines `w`.
    fn wait_payload(&mut self, w: usize) -> Result<WorkerPayload> {
        if let Some(p) = self.workers[w].inbox.pop_front() {
            return Ok(p);
        }
        let deadline = Instant::now() + self.opts.worker_timeout;
        while let Some(left) = deadline.checked_duration_since(Instant::now()) {
            match self.events_rx.recv_timeout(left) {
                Ok(msg) => {
                    if msg.gen != self.workers[msg.worker].gen {
                        continue;
                    }
                    if msg.worker == w {
                        return Ok(msg.payload);
                    }
                    self.workers[msg.worker].inbox.push_back(msg.payload);
                }
                Err(RecvTimeoutError::Timeout) => break,
                // Unreachable: the coordinator holds its own sender
                // clone, so the channel cannot disconnect.
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        self.workers[w].poisoned = true;
        Err(ServeError::WorkerUnresponsive {
            worker: w,
            timeout_ms: self.timeout_ms(),
        })
    }

    /// One reply from worker `w`: a decoded [`ShardReply`], a typed
    /// remote error ([`ServeError::Remote`] — the session stays
    /// healthy), or a transport failure (the worker is quarantined).
    fn recv_reply(&mut self, w: usize) -> Result<ShardReply> {
        match self.wait_payload(w)? {
            WorkerPayload::Frame(body) => match decode_shard_reply(&body) {
                Ok(Ok(reply)) => Ok(reply),
                Ok(Err(e)) => Err(ServeError::Remote(e)),
                Err(msg) => Err(self.gone(w, format!("undecodable reply: {msg}"))),
            },
            WorkerPayload::Closed => Err(self.gone(w, "closed its pipe mid-session")),
            WorkerPayload::Failed(detail) => Err(self.gone(w, detail)),
        }
    }

    /// Synchronous request/reply against one worker (handshakes,
    /// rebalance legs — everything except the pipelined ingest rounds
    /// and the States gather).
    fn call(&mut self, w: usize, req: &ShardRequest) -> Result<ShardReply> {
        self.send(w, req)?;
        self.recv_reply(w)
    }

    /// Sends the handshake to worker `w` and folds its recovered state
    /// in (no-op counts on a fresh log). `cut` = [`NO_TAG`] keeps every
    /// durable entry (cold boot); a real cut physically truncates
    /// orphan tags ≥ cut before replay (the restart path, after
    /// in-flight reconciliation fixed the acked prefix).
    fn hello_worker(&mut self, w: usize, cut: u64) -> Result<()> {
        let req = ShardRequest::Hello {
            num_users: self.num_users_wire,
            num_categories: self.num_categories_wire,
            cut,
            owned: self.categories_of(w),
        };
        match self.call(w, &req)? {
            ShardReply::Hello(ack) => {
                if ack.max_tag != NO_TAG && ack.max_tag >= self.seq {
                    // Reconciliation (adopt-or-truncate) runs before the
                    // handshake, so a surviving tag past the acked
                    // prefix means the logs and the coordinator disagree
                    // about history.
                    return Err(ServeError::Protocol(format!(
                        "worker {w} log reaches tag {} but only {} events are acked",
                        ack.max_tag, self.seq
                    )));
                }
                Ok(())
            }
            other => Err(ServeError::Protocol(format!(
                "unexpected reply to Hello: {other:?}"
            ))),
        }
    }

    /// The categories worker `w` owns, ascending.
    fn categories_of(&self, w: usize) -> Vec<u32> {
        self.assignment
            .categories_of(ShardId::from_index(w))
            .into_iter()
            .map(|c| c.0)
            .collect()
    }

    /// Folds an admitted event into the global metadata.
    fn apply_admitted(&mut self, event: &StoreEvent, cat: u32) {
        let raters_of_review = &mut self.history.raters_of_review;
        match *event {
            StoreEvent::Review {
                writer,
                review,
                category,
            } => {
                self.history.reviews.push(review, category, writer);
                raters_of_review.push(Vec::new());
                self.counts.bump_reviews(writer.index(), cat as usize, 1.0);
            }
            StoreEvent::Rating { rater, review, .. } => {
                let raters = &mut raters_of_review[review.index()];
                let at = raters.partition_point(|&r| r < rater.0);
                raters.insert(at, rater.0);
                self.counts.bump_ratings(rater.index(), cat as usize, 1.0);
            }
        }
        self.seq += 1;
        self.dirty = true;
        self.stale_cats.insert(cat);
    }

    /// Reverses the most recent [`apply_admitted`](Self::apply_admitted)
    /// of `event` — exact, because the activity counts are integers
    /// stored in `f64` (+1.0 then −1.0 restores the bit pattern; the
    /// ledger stamps the row both times, so an `A` assembled in between
    /// is corrected too). Rollback must run newest-first across the
    /// aborted round.
    fn undo_admitted(&mut self, event: &StoreEvent) {
        let history = &mut self.history;
        match *event {
            StoreEvent::Review { writer, .. } => {
                let row = history.reviews.pop().expect("review to undo");
                history.raters_of_review.pop();
                let c = row.category.index();
                self.counts.bump_reviews(writer.index(), c, -1.0);
            }
            StoreEvent::Rating { rater, review, .. } => {
                let row = history.reviews.get(review).expect("rated review to undo");
                let raters = &mut history.raters_of_review[review.index()];
                let at = raters.partition_point(|&r| r < rater.0);
                debug_assert_eq!(raters.get(at), Some(&rater.0));
                raters.remove(at);
                let c = row.category.index();
                self.counts.bump_ratings(rater.index(), c, -1.0);
            }
        }
        self.seq -= 1;
    }

    /// Routes one event to its category's owner and waits for
    /// durability. A one-event [`ingest_batch`](Self::ingest_batch)
    /// whose refusal is the bare [`ServeError::Remote`], as the daemon's
    /// `Ingest` answers it.
    pub fn ingest(&mut self, event: StoreEvent) -> Result<u64> {
        match self.ingest_batch(std::slice::from_ref(&event)) {
            Err(ServeError::BatchRefused { error, .. }) => Err(ServeError::Remote(error)),
            acked => acked,
        }
    }

    /// Routes a slice of events through the pipelined worker I/O: each
    /// owning worker's events of the round go, in tag order, into one
    /// [`ShardRequest::Ingest`] frame (split only past `MAX_BATCH_RUN`
    /// events), all frames are enqueued before any ack is awaited, and
    /// the call returns once every owning worker has reported its runs
    /// durable. A round therefore costs each worker one frame — one
    /// wake-group and one fsync — however its events interleave.
    ///
    /// On success, returns the new acked global sequence. A rejection
    /// (the same typed refusal the flat daemon produces) stops admission
    /// at the offending event; the admitted prefix is still flushed,
    /// acked, and kept, and the call returns the typed partial report
    /// [`ServeError::BatchRefused`] — the horizon the prefix reached, the
    /// refused event's index and its refusal. A routing error (an
    /// unowned category, a quarantined worker) stops admission the same
    /// way and keeps the prefix too. A worker failure mid-round rolls
    /// the whole round back to its base sequence (nothing from this call
    /// is acked) and parks the failed worker's events for restart-time
    /// reconciliation.
    pub fn ingest_batch(&mut self, events: &[StoreEvent]) -> Result<u64> {
        let base = self.seq;
        // Admission + routing, applied speculatively. Each event joins
        // its worker's latest run unless that run is full. `runs` stays
        // ordered by first tag, and each worker's runs by tag, so its
        // FIFO pipe sees its events in tag order.
        let mut runs: Vec<(usize, Vec<(u64, StoreEvent)>)> = Vec::new();
        let mut refused: Option<WireError> = None;
        let mut rejection: Option<ServeError> = None;
        for &event in events {
            let cat = match admission::admit(&self.history, &event) {
                Ok(c) => c.0,
                Err(why) => {
                    refused = Some(WireError {
                        code: ErrorCode::Rejected,
                        message: why.to_string(),
                    });
                    break;
                }
            };
            let w = match self.owner_of(cat) {
                Ok(w) => w,
                Err(e) => {
                    rejection = Some(e);
                    break;
                }
            };
            if self.workers[w].poisoned {
                rejection = Some(ServeError::WorkerGone {
                    worker: w,
                    detail: "quarantined after an earlier failure; restart_worker first".into(),
                });
                break;
            }
            let tag = self.seq;
            match runs.iter_mut().rev().find(|(run_w, _)| *run_w == w) {
                Some((_, run)) if run.len() < MAX_BATCH_RUN => run.push((tag, event)),
                _ => runs.push((w, vec![(tag, event)])),
            }
            self.apply_admitted(&event, cat);
        }
        // Pipelined flush: every run enqueued before any ack is read,
        // so frames to different workers are concurrently in flight.
        let mut sent = 0usize;
        let mut failed: Option<(usize, ServeError)> = None;
        for (w, run) in &runs {
            match self.send(
                *w,
                &ShardRequest::Ingest {
                    events: run.clone(),
                },
            ) {
                Ok(()) => sent += 1,
                Err(e) => {
                    failed = Some((*w, e));
                    break;
                }
            }
        }
        self.ingest_frames += sent as u64;
        // Ack collection: FIFO per worker, round order overall. One
        // `Ingested` closes one run; its horizon must be the run's last
        // tag.
        if failed.is_none() {
            for (w, run) in &runs[..sent] {
                let horizon = run.last().map(|&(t, _)| t).unwrap_or(0);
                match self.recv_reply(*w) {
                    Ok(ShardReply::Ingested { max_tag }) if max_tag == horizon => {}
                    Ok(other) => {
                        let e = self.gone(*w, format!("unexpected reply to Ingest: {other:?}"));
                        failed = Some((*w, e));
                        break;
                    }
                    Err(e) => {
                        // A typed rejection here means the worker
                        // refused an event the coordinator admitted: a
                        // prefix of its run may already be durable, so
                        // treat the worker as failed and reconcile at
                        // restart like any other mid-round loss.
                        if matches!(e, ServeError::Remote(_)) {
                            self.workers[*w].poisoned = true;
                        }
                        failed = Some((*w, e));
                        break;
                    }
                }
            }
        }
        match failed {
            // The round acked every admitted event, so the refused one
            // sits right after them.
            None => match (refused, rejection) {
                (Some(error), _) => Err(ServeError::BatchRefused {
                    acked_through: self.seq,
                    index: (self.seq - base) as usize,
                    error,
                }),
                (None, Some(e)) => Err(e),
                (None, None) => Ok(self.seq),
            },
            Some((w, e)) => {
                self.abort_round(base, &runs, w);
                Err(e)
            }
        }
    }

    /// Rolls an aborted pipeline round back to its base sequence: the
    /// speculative global metadata is undone newest-first, every healthy
    /// worker the round touched discards its round entries through a
    /// [`ShardRequest::Truncate`] queued *behind* its in-flight ingests
    /// (per-worker FIFO makes the rollback total), and the failed
    /// worker's routed events are parked for restart-time
    /// reconciliation. Nothing from the round was globally acked, so
    /// all-or-nothing rollback preserves the consistent cut.
    fn abort_round(&mut self, base: u64, runs: &[(usize, Vec<(u64, StoreEvent)>)], failed: usize) {
        // Runs interleave across workers; the round's tags are exactly
        // `base..seq`, so placing each event at its tag restores order.
        let mut round = vec![None; (self.seq - base) as usize];
        for &(tag, event) in runs.iter().flat_map(|(_, r)| r) {
            round[(tag - base) as usize] = Some(event);
        }
        for event in round.into_iter().rev().flatten() {
            self.undo_admitted(&event);
        }
        debug_assert_eq!(self.seq, base);
        let touched: BTreeSet<usize> = runs
            .iter()
            .map(|&(w, _)| w)
            .filter(|&w| w != failed)
            .collect();
        for &w in &touched {
            if self.workers[w].poisoned {
                continue;
            }
            if self.send(w, &ShardRequest::Truncate { cut: base }).is_err() {
                continue;
            }
            // Drain the pending ingest acks (or per-run error replies)
            // ahead of the truncate ack, bounded by the round's own
            // size — a worker that keeps talking past that is broken.
            let mut budget = runs.len() + 1;
            loop {
                match self.recv_reply(w) {
                    Ok(ShardReply::Truncated { .. }) => break,
                    Ok(ShardReply::Ingested { .. }) | Err(ServeError::Remote(_)) => {
                        budget -= 1;
                        if budget == 0 {
                            self.workers[w].poisoned = true;
                            break;
                        }
                    }
                    Ok(other) => {
                        let _ = self.gone(w, format!("unexpected rollback reply: {other:?}"));
                        break;
                    }
                    // Transport failure: recv_reply already quarantined.
                    Err(_) => break,
                }
            }
        }
        self.inflight = runs
            .iter()
            .filter(|&&(w, _)| w == failed)
            .flat_map(|(_, r)| r.iter().copied())
            .collect();
        self.inflight_worker = Some(failed);
        self.workers[failed].poisoned = true;
    }

    /// Re-assembles the served snapshot if events arrived since the last
    /// one: first the dirtied categories' re-solved tables are fetched
    /// from their owners (grouped per owner, pipelined across owners),
    /// then the [`Assembler`] patches them and the changed count rows
    /// into `E` and `A` — the flat model's publish step, verbatim.
    fn refresh_snapshot(&mut self) -> Result<()> {
        if !self.dirty {
            return Ok(());
        }
        if !self.stale_cats.is_empty() {
            let mut by_owner: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
            for &c in &self.stale_cats {
                by_owner.entry(self.owner_of(c)?).or_default().push(c);
            }
            let groups: Vec<(usize, Vec<u32>)> = by_owner.into_iter().collect();
            // Scatter, stopping at the first send failure (e.g. an owner
            // quarantined by an earlier round): `sent` counts exactly
            // the workers with an outstanding States request.
            let mut sent = 0usize;
            let mut failed: Option<ServeError> = None;
            for (w, cats) in &groups {
                match self.send(
                    *w,
                    &ShardRequest::States {
                        categories: cats.clone(),
                    },
                ) {
                    Ok(()) => sent += 1,
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                }
            }
            // Gather — and on failure, *drain*. Every outstanding
            // request must be answered (or its worker quarantined by
            // the deadline) before this function returns: a States reply
            // left unconsumed in a healthy worker's stream would be
            // popped later as the answer to a different request,
            // permanently desyncing positional correlation. Mirrors
            // abort_round's pending-ack drain.
            for (w, _) in &groups[..sent] {
                match self.recv_reply(*w) {
                    Ok(ShardReply::States(states)) => {
                        if failed.is_none() {
                            for s in states {
                                let c = s.category.index();
                                self.per_cat[c] = s;
                            }
                        }
                    }
                    Ok(other) => {
                        // An out-of-order reply means this worker's
                        // stream is desynced: quarantine it like any
                        // transport failure.
                        let e = self.gone(*w, format!("unexpected reply to States: {other:?}"));
                        failed.get_or_insert(e);
                    }
                    // A transport failure already quarantined the
                    // worker; a typed remote rejection consumed its one
                    // reply — the stream stays in sync either way.
                    Err(e) => {
                        failed.get_or_insert(e);
                    }
                }
            }
            if let Some(e) = failed {
                // stale_cats stays intact: the tables are deterministic
                // at the acked seq, so the next refresh (after
                // restart_worker) re-fetches the same bits.
                return Err(e);
            }
            self.stale_cats.clear();
        }
        let derived = self.assembler.assemble(&self.counts, &self.per_cat);
        self.snapshot = ServeSnapshot::new(self.seq, derived);
        self.publishes += 1;
        self.dirty = false;
        Ok(())
    }

    /// [`ShardRequest::Ingest`] frames enqueued since
    /// [`start`](Self::start), across all workers. Lets tests hold
    /// [`ingest_batch`](Self::ingest_batch) to one frame per owning
    /// worker per round.
    #[doc(hidden)]
    pub fn ingest_frames(&self) -> u64 {
        self.ingest_frames
    }

    /// The acked global sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Number of worker processes.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// The worker currently owning a category.
    pub fn owner_of(&self, category: u32) -> Result<usize> {
        Ok(self
            .assignment
            .shard_of(CategoryId(category))
            .map_err(|e| ServeError::Protocol(e.to_string()))?
            .index())
    }

    /// OS process id of worker `w` — what a failure drill sends
    /// `SIGKILL` or `SIGSTOP` to.
    pub fn worker_pid(&self, w: usize) -> u32 {
        self.workers[w].child.id()
    }

    /// Hard-kills worker `w` (SIGKILL — no flush, no goodbye), leaving
    /// its WAL exactly as the crash left it.
    pub fn kill_worker(&mut self, w: usize) -> Result<()> {
        self.workers[w].child.kill()?;
        self.workers[w].child.wait()?;
        Ok(())
    }

    /// Respawns worker `w` over its surviving WAL and reconciles: parked
    /// in-flight events whose tags are durable *and* contiguous with the
    /// acked prefix are adopted into history (in tag order, stopping at
    /// the first gap); the handshake's `cut = seq` then physically
    /// truncates every orphan tag from the log before the worker
    /// replays it, so no dead tag can collide with a future event. The
    /// category tables are refreshed from the recovered worker's
    /// re-solves (bit-identical over the replayed log).
    pub fn restart_worker(&mut self, w: usize) -> Result<()> {
        let wal_path = self.workers[w].wal_path.clone();
        let gen = self.workers[w].gen + 1;
        // Reap the old process first (if the drill hasn't already) so
        // the log file is quiescent for peeking.
        let _ = self.workers[w].child.kill();
        let _ = self.workers[w].child.wait();
        // Resolve the parked round *before* the handshake: whether its
        // tags survived decides what the acked prefix is.
        if self.inflight_worker == Some(w) {
            let parked = std::mem::take(&mut self.inflight);
            self.inflight_worker = None;
            if !parked.is_empty() {
                // The process that wrote the log is reaped: it is quiescent.
                let durable: BTreeSet<u64> = wot_wal::read_tagged_log(&wal_path)?
                    .events
                    .iter()
                    .map(|&(t, _)| t)
                    .collect();
                for (tag, event) in parked {
                    // Adoption must extend the acked prefix
                    // contiguously; the first lost tag (or an event
                    // whose routing context rolled back with the round)
                    // orphans the rest.
                    if tag != self.seq || !durable.contains(&tag) {
                        break;
                    }
                    let Ok(cat) = admission::admit(&self.history, &event) else {
                        break;
                    };
                    self.apply_admitted(&event, cat.0);
                }
            }
        }
        // The new generation number makes any late message from the old
        // reader thread discardable; replacing the handle reaps it.
        let handle = WorkerHandle::spawn(
            &self.opts.worker_bin,
            &wal_path,
            w,
            gen,
            self.events_tx.clone(),
        )?;
        self.workers[w] = handle;
        self.hello_worker(w, self.seq)?;
        // Refresh every owned category's tables from the recovered
        // worker (bit-identical re-solves over the replayed log).
        let categories = self.categories_of(w);
        match self.call(w, &ShardRequest::States { categories })? {
            ShardReply::States(states) => {
                for s in states {
                    let c = s.category.index();
                    self.stale_cats.remove(&s.category.0);
                    self.per_cat[c] = s;
                }
                self.dirty = true;
                Ok(())
            }
            other => Err(ServeError::Protocol(format!(
                "unexpected reply to States: {other:?}"
            ))),
        }
    }

    /// Moves a category to another worker **live**: the source replays
    /// its local sub-log out, the target makes it durable and re-solves,
    /// and ingest cuts over at the current sequence boundary (the
    /// coordinator is synchronous, so no event can interleave with the
    /// move). The re-solved tables must be bit-identical to the tables
    /// the source holds — same events, same order, same solver — and
    /// the coordinator verifies that before switching routes.
    ///
    /// A target that refuses or misses the deadline fails the move, and
    /// the sub-log goes back to the source. A source that refuses it back
    /// is quarantined: its restart re-owns the category from its log.
    pub fn rebalance(&mut self, category: u32, to: usize) -> Result<()> {
        if category as usize >= self.opts.num_categories {
            return Err(ServeError::Protocol(format!(
                "category {category} out of range"
            )));
        }
        if to >= self.workers.len() {
            return Err(ServeError::Protocol(format!("worker {to} out of range")));
        }
        // Settle the lazy table fetches first: the transparency check
        // below compares against the *source's* latest solves, and the
        // stale set's owners change under reassignment.
        self.refresh_snapshot()?;
        let from = self.owner_of(category)?;
        if from == to {
            return Ok(());
        }
        let events = match self.call(from, &ShardRequest::DropCategory { category })? {
            ShardReply::SubLog(events) => events,
            other => {
                return Err(ServeError::Protocol(format!(
                    "unexpected reply to DropCategory: {other:?}"
                )))
            }
        };
        let adopt = ShardRequest::AdoptCategory { category, events };
        let adopted = match self.call(to, &adopt) {
            Ok(ShardReply::States(mut states)) if states.len() == 1 => states.remove(0),
            refused => {
                if !matches!(self.call(from, &adopt), Ok(ShardReply::States(_))) {
                    self.workers[from].poisoned = true;
                }
                return Err(match refused {
                    Err(e) => e,
                    Ok(other) => {
                        self.gone(to, format!("unexpected reply to AdoptCategory: {other:?}"))
                    }
                });
            }
        };
        let held = &*self.per_cat[category as usize];
        // Bitwise on the tables (the served quantities); solve metadata
        // like iteration counts is not compared because a never-active
        // category's coordinator placeholder was never solved at all.
        let same = adopted.rater_reputation == held.rater_reputation
            && adopted.writer_reputation == held.writer_reputation
            && adopted.review_quality == held.review_quality;
        if !same {
            return Err(ServeError::Protocol(format!(
                "rebalance of category {category} changed its solved state — \
                 transparency violation"
            )));
        }
        self.assignment
            .reassign(CategoryId(category), ShardId::from_index(to))
            .map_err(|e| ServeError::Protocol(e.to_string()))?;
        Ok(())
    }

    /// Graceful shutdown: every worker flushes its log and exits. A
    /// worker that cannot say goodbye (stalled, crashed, quarantined)
    /// is killed — either way every child is reaped before this
    /// returns; no zombie survives a failed teardown.
    pub fn shutdown(mut self) -> Result<()> {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> Result<()> {
        let mut first_err = None;
        for w in 0..self.workers.len() {
            match self.call(w, &ShardRequest::Shutdown) {
                Ok(_) => {
                    // Graceful: the worker exits after its Bye. Hold it
                    // to the same deadline; a lingerer is killed.
                    if !self.reap_with_deadline(w) {
                        let _ = self.workers[w].child.kill();
                        let _ = self.workers[w].child.wait();
                    }
                }
                Err(e) => {
                    let _ = self.workers[w].child.kill();
                    let _ = self.workers[w].child.wait();
                    first_err = first_err.or(Some(e));
                }
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Waits up to the worker deadline for child `w` to exit on its
    /// own. Returns whether it did.
    fn reap_with_deadline(&mut self, w: usize) -> bool {
        let deadline = Instant::now() + self.opts.worker_timeout;
        loop {
            match self.workers[w].child.try_wait() {
                Ok(Some(_)) => return true,
                Ok(None) => {
                    if Instant::now() >= deadline {
                        return false;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => return false,
            }
        }
    }
}

// No `Drop` for `Coordinator` itself: dropping `workers` runs
// `WorkerHandle::drop` for each — kill, reap, join — on every path,
// including a panic or an errored shutdown.

impl TrustIngest for Coordinator {
    fn ingest(&mut self, event: StoreEvent) -> Result<u64> {
        Coordinator::ingest(self, event)
    }

    fn ingest_batch(&mut self, events: &[StoreEvent]) -> Result<u64> {
        Coordinator::ingest_batch(self, events)
    }
}

impl TrustQuery for Coordinator {
    fn trust(&mut self, i: u32, j: u32) -> Result<(f64, u64)> {
        self.refresh_snapshot()?;
        TrustQuery::trust(&mut self.snapshot, i, j)
    }

    fn top_k(&mut self, user: u32, k: u32) -> Result<(Vec<(u32, f64)>, u64)> {
        self.refresh_snapshot()?;
        TrustQuery::top_k(&mut self.snapshot, user, k)
    }

    fn rater_reputation(&mut self, category: u32, user: u32) -> Result<(Option<f64>, u64)> {
        self.refresh_snapshot()?;
        TrustQuery::rater_reputation(&mut self.snapshot, category, user)
    }

    fn category_tables(
        &mut self,
        category: u32,
    ) -> Result<(ReputationTable, ReputationTable, u64)> {
        self.refresh_snapshot()?;
        TrustQuery::category_tables(&mut self.snapshot, category)
    }

    fn fig3_aggregates(&mut self) -> Result<(AggregateSummary, u64)> {
        self.refresh_snapshot()?;
        TrustQuery::fig3_aggregates(&mut self.snapshot)
    }

    fn stats(&mut self) -> Result<(ServeStats, u64)> {
        self.refresh_snapshot()?;
        // Bytes across the workers' WAL files; each file is quiescent
        // here because every solicited reply has been collected.
        let mut wal_len = 0;
        for w in &self.workers {
            wal_len += std::fs::metadata(&w.wal_path)?.len();
        }
        let stats = ServeStats {
            publishes: self.publishes,
            wal_len,
            reader_threads: u32::try_from(self.workers.len()).unwrap_or(u32::MAX),
            ..self.snapshot.stats()
        };
        Ok((stats, self.seq))
    }
}

#[cfg(test)]
mod tests {
    use wot_community::{ReviewId, UserId};
    use wot_wal::{FsyncPolicy, LogKind, WalWriter};

    use super::*;

    /// A worker log holding a tag cannot be reconciled with a fresh
    /// coordinator at seq 0: `start` refuses before spawning anything
    /// (the worker binary here does not exist) and touches no file.
    #[test]
    fn start_refuses_a_worker_log_that_holds_events() {
        let dir = std::env::temp_dir().join(format!("wot-coord-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        WalWriter::create(
            &worker_wal(&dir, 0),
            LogKind::TaggedEvents,
            FsyncPolicy::Always,
        )
        .unwrap();
        let mut w = WalWriter::create(
            &worker_wal(&dir, 1),
            LogKind::TaggedEvents,
            FsyncPolicy::Always,
        )
        .unwrap();
        w.append_tagged(
            0,
            &StoreEvent::Review {
                writer: UserId(0),
                review: ReviewId(0),
                category: CategoryId(1),
            },
        )
        .unwrap();
        drop(w);
        let before: Vec<Vec<u8>> = (0..2)
            .map(|w| std::fs::read(worker_wal(&dir, w)).unwrap())
            .collect();
        let mut opts = CoordinatorOptions::new(&dir, 2, 4, 2);
        opts.worker_bin = dir.join("no-such-worker");
        match Coordinator::start(opts) {
            Err(ServeError::Config(m)) => assert!(m.contains("worker-01.wal"), "{m}"),
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("started over a worker log that holds events"),
        }
        for (w, bytes) in before.iter().enumerate() {
            assert_eq!(&std::fs::read(worker_wal(&dir, w)).unwrap(), bytes);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
