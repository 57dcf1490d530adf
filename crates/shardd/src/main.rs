//! `wot-shardd` — one shard worker process.
//!
//! A worker owns a subset of categories *end-to-end*: their
//! sequence-tagged local WAL, their [`IncrementalDerived`] model, their
//! per-category solves. It speaks the coordinator's length-prefixed
//! request/reply protocol ([`wot_serve::shard_proto`]) over
//! stdin/stdout, answering every request in arrival order — so the
//! coordinator can pipeline frames at it and still correlate replies
//! positionally.
//!
//! The paper's math makes this partition exact, not approximate: every
//! Step-1 quantity (Eq. 1/2 reputations, review qualities, the
//! experience discounts) is category-local, so a worker that sees
//! exactly one category's event subsequence — in global order — solves
//! exactly the tables the flat single-process pipeline solves, bit for
//! bit. The cross-category parts of the model (Eq. 4's per-user
//! normalization) are the coordinator's job; the worker never computes
//! them.
//!
//! Durability contract, mirroring the flat daemon's writer:
//!
//! ```text
//! check (read-only admission) → WAL append → apply → …group fsync… → reply
//! ```
//!
//! A dedicated thread reads stdin so the main loop can drain every
//! frame already queued (up to [`GROUP_MAX`]) per wake and cover the
//! whole group with **one** fsync before any of the group's replies is
//! written — an acknowledged event is durable before it is visible, at
//! a fraction of a per-event sync's cost. A failed group sync is fatal
//! (the worker exits without acknowledging; recovery replays the log).
//! Nothing that fails admission ever poisons the log.
//!
//! After `kill -9`, a restarted worker replays its log — filtered to
//! the categories the coordinator's handshake says it owns,
//! deduplicated by tag, in tag order — and reports the highest durable
//! tag so the coordinator can reconcile events that became durable
//! right before the crash but were never acknowledged. The handshake's
//! `cut` makes the reconciliation physical: entries tagged at or past
//! it are rewritten out of the WAL before replay, so an orphan tag can
//! never collide with a future event.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::mpsc::{self, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

use wot_community::StoreEvent;
use wot_core::{CategoryReputation, DeriveConfig, DerivedCache, IncrementalDerived};
use wot_serve::protocol::{read_frame, write_frame, ErrorCode, FrameRead};
use wot_serve::shard_proto::{
    decode_shard_request, encode_shard_err, encode_shard_ok, CategoryStateWire, HelloAck,
    ShardReply, ShardRequest, MAX_SHARD_FRAME_LEN, NO_TAG,
};
use wot_wal::{read_tagged_log, FsyncPolicy, LogKind, WalWriter};

/// Most frames folded into one wake's processing group — one fsync and
/// one output flush cover the whole group.
const GROUP_MAX: usize = 64;

fn main() -> ExitCode {
    let Some(wal_path) = parse_args() else {
        eprintln!("usage: wot-shardd --wal <path>");
        return ExitCode::from(2);
    };
    match run(&wal_path) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("wot-shardd: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_args() -> Option<PathBuf> {
    let mut args = std::env::args_os().skip(1);
    let mut wal = None;
    while let Some(a) = args.next() {
        if a == "--wal" {
            wal = args.next().map(PathBuf::from);
        } else {
            return None;
        }
    }
    wal
}

/// Worker state; `model` exists only after the handshake fixed the
/// community shape.
struct Worker {
    wal: WalWriter,
    /// The raw replayed log, held until the handshake tells us which
    /// categories to fold in.
    raw_log: Vec<(u64, StoreEvent)>,
    model: Option<Shard>,
    /// Fault injection ([`ShardRequest::Stall`]): sleep this long before
    /// handling each subsequent request.
    stall: Option<Duration>,
}

/// The post-handshake shard: model plus ownership bookkeeping.
struct Shard {
    cfg: DeriveConfig,
    num_users: usize,
    num_categories: usize,
    model: IncrementalDerived,
    cache: DerivedCache,
    owned: BTreeSet<u32>,
    /// Per owned category: its tagged event sub-log, in tag order —
    /// what a `DropCategory` ships to the next owner.
    sublogs: BTreeMap<u32, Vec<(u64, StoreEvent)>>,
    /// Review id → category, for every review this worker has applied.
    review_cat: HashMap<u32, u32>,
}

impl Shard {
    fn new(num_users: usize, num_categories: usize, owned: &[u32]) -> Result<Shard, String> {
        let cfg = DeriveConfig::default();
        let model =
            IncrementalDerived::new(num_users, num_categories, &cfg).map_err(|e| e.to_string())?;
        Ok(Shard {
            cfg,
            num_users,
            num_categories,
            model,
            cache: DerivedCache::default(),
            owned: owned.iter().copied().collect(),
            sublogs: owned.iter().map(|&c| (c, Vec::new())).collect(),
            review_cat: HashMap::new(),
        })
    }

    /// The one event fold: applies `event` to the model and the review →
    /// category map, returning the event's category (a rating's is its
    /// review's, which admission and tag-ordered replay both put first).
    fn fold(&mut self, event: StoreEvent) -> Result<u32, String> {
        match event {
            StoreEvent::Review {
                writer,
                review,
                category,
            } => {
                self.model
                    .add_review(writer, review, category)
                    .map_err(|e| e.to_string())?;
                self.review_cat.insert(review.0, category.0);
                Ok(category.0)
            }
            StoreEvent::Rating {
                rater,
                review,
                value,
            } => {
                let cat = *self
                    .review_cat
                    .get(&review.0)
                    .ok_or_else(|| format!("rating of unknown review {review}"))?;
                self.model
                    .add_rating(rater, review, value)
                    .map_err(|e| e.to_string())?;
                Ok(cat)
            }
        }
    }

    /// Folds one admitted event in and records it in its category's
    /// sub-log.
    fn apply(&mut self, tag: u64, event: StoreEvent) -> Result<(), String> {
        let cat = self.fold(event)?;
        self.sublogs.entry(cat).or_default().push((tag, event));
        Ok(())
    }

    /// Read-only admission for an ingest. Reviews can't go through the
    /// model's `check_event` (its dense-rank rule is global, and this
    /// worker only holds a category subset), so they get the equivalent
    /// subset-safe checks; ratings use the model's own admission.
    fn check(&self, event: &StoreEvent) -> Result<(), String> {
        match *event {
            StoreEvent::Review {
                writer,
                review,
                category,
            } => {
                if writer.index() >= self.num_users {
                    return Err(format!(
                        "writer {writer} out of bounds for {} users",
                        self.num_users
                    ));
                }
                if category.index() >= self.num_categories {
                    return Err(format!(
                        "category {category} out of bounds for {} categories",
                        self.num_categories
                    ));
                }
                if !self.owned.contains(&category.0) {
                    return Err(format!("category {category} is not owned by this worker"));
                }
                if self.review_cat.contains_key(&review.0) {
                    return Err(format!("review {review} already registered"));
                }
            }
            StoreEvent::Rating { .. } => {
                self.model.check_event(event).map_err(|e| e.to_string())?;
                // Ownership is implied: the rated review is known to the
                // model, and the model only holds owned categories.
            }
        }
        Ok(())
    }

    /// The canonical per-category tables of this worker's event subset
    /// (cold-solve semantics, memoized per data version — bit-identical
    /// to a from-scratch batch derivation of it), brought up to date once
    /// per request; [`state_of`] maps the wanted categories out of them.
    /// Tables only: `E` and `A` span categories this worker does not own,
    /// so it never assembles them.
    fn tables(&mut self) -> &[Arc<CategoryReputation>] {
        self.model.tables_cached(&mut self.cache)
    }

    /// Rebuilds the model from the remaining sub-logs — the drop and
    /// truncate paths. A fresh replay (in tag order across categories)
    /// leaves the model holding *exactly* the owned events, so a later
    /// re-adoption of a dropped category can replay it back in without
    /// collisions. (The cache notices the new model instance and resets
    /// itself.)
    fn rebuild(&mut self) -> Result<(), String> {
        self.model = IncrementalDerived::new(self.num_users, self.num_categories, &self.cfg)
            .map_err(|e| e.to_string())?;
        self.review_cat.clear();
        let mut all: Vec<(u64, StoreEvent)> = self
            .sublogs
            .values()
            .flat_map(|v| v.iter().copied())
            .collect();
        all.sort_by_key(|&(t, _)| t);
        for (_, event) in all {
            self.fold(event)?;
        }
        Ok(())
    }
}

/// One category's solved tables, in wire form.
fn state_of(tables: &[Arc<CategoryReputation>], cat: u32) -> CategoryStateWire {
    let cr = &tables[cat as usize];
    CategoryStateWire {
        category: cat,
        raters: cr.rater_reputation.iter().map(|&(u, v)| (u.0, v)).collect(),
        writers: cr
            .writer_reputation
            .iter()
            .map(|&(u, v)| (u.0, v))
            .collect(),
        qualities: cr.review_quality.iter().map(|&(r, v)| (r.0, v)).collect(),
        iterations: cr.iterations as u64,
        converged: cr.converged,
    }
}

/// What the stdin reader thread saw.
enum Inbound {
    Frame(Vec<u8>),
    Closed,
    TooLarge { len: u32 },
}

fn run(wal_path: &Path) -> io::Result<()> {
    // The caller (this worker's main loop) owns durability: one sync per
    // processing group, before any of the group's replies.
    let (wal, raw_log) = if wal_path.exists() {
        let recovered = read_tagged_log(wal_path)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let (wal, _torn) = WalWriter::open_append(wal_path, FsyncPolicy::Manual)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        (wal, recovered.events)
    } else {
        let wal = WalWriter::create(wal_path, LogKind::TaggedEvents, FsyncPolicy::Manual)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        (wal, Vec::new())
    };
    let mut worker = Worker {
        wal,
        raw_log,
        model: None,
        stall: None,
    };
    // A dedicated reader thread turns stdin into a queue the main loop
    // can drain — that's what lets one wake process a whole pipelined
    // burst under a single fsync.
    let (frames_tx, frames_rx) = mpsc::channel::<io::Result<Inbound>>();
    std::thread::spawn(move || {
        let stdin = io::stdin();
        let mut input = stdin.lock();
        loop {
            let (msg, terminal) = match read_frame(&mut input, MAX_SHARD_FRAME_LEN) {
                Ok(FrameRead::Frame(body)) => (Ok(Inbound::Frame(body)), false),
                Ok(FrameRead::Idle) => continue,
                Ok(FrameRead::Closed) => (Ok(Inbound::Closed), true),
                Ok(FrameRead::TooLarge { len }) => (Ok(Inbound::TooLarge { len }), true),
                Err(e) => (Err(e), true),
            };
            if frames_tx.send(msg).is_err() || terminal {
                return;
            }
        }
    });
    let stdout = io::stdout();
    let mut output = stdout.lock();
    loop {
        let Ok(first) = frames_rx.recv() else {
            return Ok(());
        };
        let mut group = vec![first];
        while group.len() < GROUP_MAX {
            match frames_rx.try_recv() {
                Ok(m) => group.push(m),
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        }
        let mut replies: Vec<Vec<u8>> = Vec::new();
        let mut terminal: Option<io::Result<()>> = None;
        for msg in group {
            match msg {
                Err(e) => {
                    terminal = Some(Err(e));
                    break;
                }
                // A closed pipe is the coordinator going away: exit
                // cleanly (everything acknowledged is already durable).
                Ok(Inbound::Closed) => {
                    terminal = Some(Ok(()));
                    break;
                }
                // An oversized length prefix is unrecoverable framing
                // desync: exit without replying.
                Ok(Inbound::TooLarge { len }) => {
                    terminal = Some(Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("request frame of {len} bytes exceeds the cap"),
                    )));
                    break;
                }
                Ok(Inbound::Frame(body)) => {
                    if let Some(d) = worker.stall {
                        std::thread::sleep(d);
                    }
                    let mut reply = Vec::new();
                    let shutting_down = match decode_shard_request(&body) {
                        Err(msg) => {
                            encode_shard_err(&mut reply, ErrorCode::BadRequest, &msg);
                            false
                        }
                        Ok(req) => {
                            let is_shutdown = matches!(req, ShardRequest::Shutdown);
                            match handle(&mut worker, req) {
                                Ok(r) => encode_shard_ok(&mut reply, &r),
                                Err((code, msg)) => encode_shard_err(&mut reply, code, &msg),
                            }
                            is_shutdown
                        }
                    };
                    replies.push(reply);
                    if shutting_down {
                        terminal = Some(Ok(()));
                        break;
                    }
                }
            }
        }
        // Durability before acknowledgment: one sync covers every append
        // the group staged. A failed sync is fatal — the model has
        // already applied what the log may not hold, so the only safe
        // exit is without acks, leaving recovery to the replay.
        if worker.wal.unsynced() > 0 {
            worker
                .wal
                .sync()
                .map_err(|e| io::Error::other(e.to_string()))?;
        }
        for reply in &replies {
            write_frame(&mut output, reply)?;
        }
        output.flush()?;
        if let Some(res) = terminal {
            return res;
        }
    }
}

type HandlerResult = Result<ShardReply, (ErrorCode, String)>;

fn rejected(msg: String) -> (ErrorCode, String) {
    (ErrorCode::Rejected, msg)
}

fn bad(msg: String) -> (ErrorCode, String) {
    (ErrorCode::BadRequest, msg)
}

fn internal(msg: String) -> (ErrorCode, String) {
    (ErrorCode::Internal, msg)
}

fn handle(worker: &mut Worker, req: ShardRequest) -> HandlerResult {
    match req {
        ShardRequest::Hello {
            num_users,
            num_categories,
            cut,
            owned,
        } => hello(
            worker,
            num_users as usize,
            num_categories as usize,
            cut,
            &owned,
        ),
        ShardRequest::Shutdown => {
            worker.wal.sync().map_err(|e| internal(e.to_string()))?;
            Ok(ShardReply::Bye)
        }
        ShardRequest::Stall { millis } => {
            worker.stall = Some(Duration::from_millis(millis));
            Ok(ShardReply::Ack)
        }
        other => {
            let Some(shard) = worker.model.as_mut() else {
                return Err(bad("request before handshake".into()));
            };
            match other {
                ShardRequest::Ingest { events } => ingest(worker, events),
                ShardRequest::Truncate { cut } => truncate(worker, cut),
                ShardRequest::States { categories } => {
                    for &c in &categories {
                        require_owned(shard, c)?;
                    }
                    let tables = shard.tables();
                    let states = categories.iter().map(|&c| state_of(tables, c)).collect();
                    Ok(ShardReply::FullState(states))
                }
                ShardRequest::FullState => {
                    // Field access, not `tables()`: `owned` is read
                    // while the cache's slice is borrowed.
                    let tables = shard.model.tables_cached(&mut shard.cache);
                    let states = shard.owned.iter().map(|&c| state_of(tables, c)).collect();
                    Ok(ShardReply::FullState(states))
                }
                ShardRequest::DropCategory { category } => drop_category(shard, category),
                ShardRequest::AdoptCategory { category, events } => {
                    adopt_category(worker, category, events)
                }
                ShardRequest::Hello { .. }
                | ShardRequest::Shutdown
                | ShardRequest::Stall { .. } => {
                    unreachable!()
                }
            }
        }
    }
}

fn require_owned(shard: &Shard, category: u32) -> Result<(), (ErrorCode, String)> {
    if category as usize >= shard.num_categories {
        return Err((
            ErrorCode::OutOfRange,
            format!("category {category} out of range"),
        ));
    }
    if !shard.owned.contains(&category) {
        return Err(bad(format!(
            "category {category} is not owned by this worker"
        )));
    }
    Ok(())
}

/// Physically rewrites the WAL keeping only entries tagged below `cut`
/// (tmp file + sync + rename, then reopen), so no orphan tag survives
/// on disk. Returns how many entries were dropped.
fn truncate_wal(worker: &mut Worker, cut: u64) -> Result<u64, String> {
    worker.wal.sync().map_err(|e| e.to_string())?;
    let path = worker.wal.path().to_path_buf();
    let recovered = read_tagged_log(&path).map_err(|e| e.to_string())?;
    let total = recovered.events.len();
    let keep: Vec<(u64, StoreEvent)> = recovered
        .events
        .into_iter()
        .filter(|&(t, _)| t < cut)
        .collect();
    let dropped = (total - keep.len()) as u64;
    if dropped == 0 {
        return Ok(0);
    }
    let tmp = path.with_extension("rewrite");
    {
        let mut w = WalWriter::create(&tmp, LogKind::TaggedEvents, FsyncPolicy::Manual)
            .map_err(|e| e.to_string())?;
        for &(t, ref e) in &keep {
            w.append_tagged(t, e).map_err(|e| e.to_string())?;
        }
        w.sync().map_err(|e| e.to_string())?;
    }
    std::fs::rename(&tmp, &path).map_err(|e| e.to_string())?;
    // The rename itself must be durable: without a directory fsync a
    // power loss can resurrect the old inode (undoing the truncate) and
    // lose every event fsynced to the new inode since — acked events
    // gone. Same atomic-replace sequence as the wal crate's snapshots.
    let dir = path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or_else(|| Path::new("."));
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| format!("syncing {} after WAL rewrite: {e}", dir.display()))?;
    let (wal, _torn) =
        WalWriter::open_append(&path, FsyncPolicy::Manual).map_err(|e| e.to_string())?;
    worker.wal = wal;
    Ok(dropped)
}

/// The handshake: truncate orphan tags if the coordinator named a cut,
/// fix the community shape, fold the replayed log in (filtered to the
/// owned categories, deduplicated by tag, in tag order), and report
/// what the durable log holds.
fn hello(
    worker: &mut Worker,
    num_users: usize,
    num_categories: usize,
    cut: u64,
    owned: &[u32],
) -> HandlerResult {
    if owned.iter().any(|&c| c as usize >= num_categories) {
        return Err(bad("owned category out of range".into()));
    }
    if cut != NO_TAG && worker.raw_log.iter().any(|&(t, _)| t >= cut) {
        truncate_wal(worker, cut).map_err(internal)?;
        worker.raw_log.retain(|&(t, _)| t < cut);
    }
    let mut shard = Shard::new(num_users, num_categories, owned).map_err(internal)?;
    // The log may hold Review events for categories we no longer own
    // (dropped since): they still resolve rating → category routing.
    let mut log_review_cat: HashMap<u32, u32> = HashMap::new();
    for &(_, event) in &worker.raw_log {
        if let StoreEvent::Review {
            review, category, ..
        } = event
        {
            log_review_cat.insert(review.0, category.0);
        }
    }
    let max_tag = worker.raw_log.iter().map(|&(t, _)| t).max();
    let mut mine: Vec<(u64, StoreEvent)> = worker
        .raw_log
        .iter()
        .copied()
        .filter(|(_, e)| {
            let cat = match *e {
                StoreEvent::Review { category, .. } => Some(category.0),
                StoreEvent::Rating { review, .. } => log_review_cat.get(&review.0).copied(),
            };
            cat.is_some_and(|c| shard.owned.contains(&c))
        })
        .collect();
    // Tag order is global ingest order; a stable sort plus tag-dedup
    // collapses the drop-then-readopt case (the adoption re-appended
    // events the log already had).
    mine.sort_by_key(|&(t, _)| t);
    mine.dedup_by_key(|e| e.0);
    let recovered = mine.len() as u64;
    for (tag, event) in mine {
        shard
            .apply(tag, event)
            .map_err(|e| internal(format!("log replay failed at tag {tag}: {e}")))?;
    }
    worker.model = Some(shard);
    Ok(ShardReply::Hello(HelloAck {
        recovered,
        max_tag: max_tag.unwrap_or(NO_TAG),
    }))
}

/// One batched run of tagged events: admit, append, and apply each in
/// order, acking the run's durability horizon. The actual fsync is the
/// main loop's group sync — it lands before this reply is written.
fn ingest(worker: &mut Worker, events: Vec<(u64, StoreEvent)>) -> HandlerResult {
    if events.is_empty() {
        return Err(bad("empty ingest batch".into()));
    }
    let shard = worker.model.as_mut().expect("handshake done");
    let mut max_tag = 0;
    for (tag, event) in events {
        shard.check(&event).map_err(rejected)?;
        worker
            .wal
            .append_tagged(tag, &event)
            .map_err(|e| internal(e.to_string()))?;
        shard.apply(tag, event).map_err(internal)?;
        max_tag = tag;
    }
    Ok(ShardReply::Ingested { max_tag })
}

/// Rolls this worker back to a coordinator-named cut: entries tagged at
/// or past it leave the model (sub-log filter + rebuild) and the disk
/// (physical rewrite). The coordinator queues this behind a failed
/// round's in-flight ingests, so FIFO ordering makes the rollback
/// total.
fn truncate(worker: &mut Worker, cut: u64) -> HandlerResult {
    {
        let shard = worker.model.as_mut().expect("handshake done");
        for log in shard.sublogs.values_mut() {
            log.retain(|&(t, _)| t < cut);
        }
        shard.rebuild().map_err(internal)?;
        // Dropped reviews must stop routing ratings; rebuild() rebuilt
        // review_cat from the surviving sub-logs already.
    }
    let dropped = truncate_wal(worker, cut).map_err(internal)?;
    Ok(ShardReply::Truncated { dropped })
}

/// Stops owning a category: ship its sub-log out and rebuild the model
/// without it. The WAL keeps the old entries — replay filtering at the
/// next handshake ignores them.
fn drop_category(shard: &mut Shard, category: u32) -> HandlerResult {
    require_owned(shard, category)?;
    shard.owned.remove(&category);
    let events = shard.sublogs.remove(&category).unwrap_or_default();
    shard.rebuild().map_err(internal)?;
    Ok(ShardReply::SubLog(events))
}

/// Starts owning a category: make its history durable locally, apply it
/// in tag order, and reply with the re-solved state (which the
/// coordinator holds bit-identical against the previous owner's).
fn adopt_category(
    worker: &mut Worker,
    category: u32,
    events: Vec<(u64, StoreEvent)>,
) -> HandlerResult {
    let shard = worker.model.as_mut().expect("handshake done");
    if category as usize >= shard.num_categories {
        return Err((
            ErrorCode::OutOfRange,
            format!("category {category} out of range"),
        ));
    }
    if shard.owned.contains(&category) {
        return Err(bad(format!("category {category} already owned")));
    }
    // Admission before durability: every event must belong to the
    // adopted category, with tags strictly ascending.
    let mut seen_reviews: HashSet<u32> = HashSet::new();
    let mut last_tag = None;
    for &(tag, ref event) in &events {
        if last_tag.is_some_and(|t| tag <= t) {
            return Err(bad(format!("sub-log tags not ascending at {tag}")));
        }
        last_tag = Some(tag);
        match *event {
            StoreEvent::Review {
                review,
                category: c,
                ..
            } => {
                if c.0 != category {
                    return Err(bad(format!(
                        "sub-log event for category {c} in adoption of {category}"
                    )));
                }
                seen_reviews.insert(review.0);
            }
            StoreEvent::Rating { review, .. } => {
                if !seen_reviews.contains(&review.0) {
                    return Err(bad(format!(
                        "sub-log rates review {review} before its review event"
                    )));
                }
            }
        }
    }
    for &(tag, ref event) in &events {
        worker
            .wal
            .append_tagged(tag, event)
            .map_err(|e| internal(e.to_string()))?;
    }
    worker.wal.sync().map_err(|e| internal(e.to_string()))?;
    let shard = worker.model.as_mut().expect("handshake done");
    shard.owned.insert(category);
    for (tag, event) in events {
        shard.apply(tag, event).map_err(internal)?;
    }
    Ok(ShardReply::State(state_of(shard.tables(), category)))
}
