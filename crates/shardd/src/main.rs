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
//! The durable ingest is the flat daemon's own state machine, a
//! [`ShardEngine`] over a tagged log:
//!
//! ```text
//! check (read-only admission) → WAL append → apply → …group fsync… → reply
//! ```
//!
//! This file is the transport around it: framing, group draining,
//! category ownership, per-category sub-logs and rebalance. A dedicated
//! thread reads stdin so the main loop can drain every frame already
//! queued (up to [`GROUP_MAX`]) per wake and cover the whole group with
//! **one** engine sync before any of the group's replies is written — an
//! acknowledged event is durable before it is visible, at a fraction of
//! a per-event sync's cost. A failed group sync is fatal (the worker
//! exits without acknowledging; recovery replays the log); a failed
//! append trips the engine's fail-stop latch, so nothing is ever
//! appended behind a torn frame. Nothing that fails admission ever
//! poisons the log.
//!
//! The log is opened at the handshake, which fixes the model's shape.
//! After `kill -9`, the restarted worker's [`ShardEngine::open`] replays
//! the log — filtered to the categories the handshake says it owns,
//! deduplicated by tag, in tag order — and reports the highest durable
//! tag so the coordinator can reconcile events that became durable
//! right before the crash but were never acknowledged. The handshake's
//! `cut` makes the reconciliation physical: entries tagged at or past
//! it are rewritten out of the WAL, so an orphan tag can never collide
//! with a future event.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::io::{self, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::mpsc::{self, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

use wot_community::StoreEvent;
use wot_core::{CategoryReputation, DeriveConfig, IncrementalDerived};
use wot_serve::engine::Refusal;
use wot_serve::protocol::{read_frame, write_frame, ErrorCode, FrameRead};
use wot_serve::shard_proto::{
    decode_shard_request, encode_shard_err, encode_shard_ok, CategoryStateWire, HelloAck,
    ShardReply, ShardRequest, MAX_SHARD_FRAME_LEN, NO_TAG,
};
use wot_serve::{ServeError, ShardEngine};
use wot_wal::{FsyncPolicy, LogKind};

/// Most frames folded into one wake's processing group — one fsync and
/// one output flush cover the whole group.
const GROUP_MAX: usize = 64;

fn main() -> ExitCode {
    let Some(wal_path) = parse_args() else {
        eprintln!("usage: wot-shardd --wal <path>");
        return ExitCode::from(2);
    };
    match run(wal_path) {
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

/// Worker state; `shard` exists only after the handshake fixed the
/// community shape and opened the log.
struct Worker {
    wal_path: PathBuf,
    shard: Option<Shard>,
    /// Fault injection ([`ShardRequest::Stall`]): sleep this long before
    /// handling each subsequent request.
    stall: Option<Duration>,
}

/// The post-handshake shard: the engine plus ownership bookkeeping.
struct Shard {
    engine: ShardEngine,
    owned: BTreeSet<u32>,
    /// Per owned category: its tagged event sub-log, in tag order —
    /// what a `DropCategory` ships to the next owner.
    sublogs: BTreeMap<u32, Vec<(u64, StoreEvent)>>,
}

/// Read-only admission for this worker's category subset. Reviews can't
/// go through the model's `check_event` (its dense-rank rule is global,
/// and this worker only holds a category subset), so they get the
/// equivalent subset-safe checks; ratings use the model's own admission.
fn check(
    owned: &BTreeSet<u32>,
    model: &IncrementalDerived,
    event: &StoreEvent,
) -> Result<(), String> {
    match *event {
        StoreEvent::Review {
            writer,
            review,
            category,
        } => {
            if writer.index() >= model.num_users() {
                return Err(format!(
                    "writer {writer} out of bounds for {} users",
                    model.num_users()
                ));
            }
            if category.index() >= model.num_categories() {
                return Err(format!(
                    "category {category} out of bounds for {} categories",
                    model.num_categories()
                ));
            }
            if !owned.contains(&category.0) {
                return Err(format!("category {category} is not owned by this worker"));
            }
            if model.review_category(review).is_some() {
                return Err(format!("review {review} already registered"));
            }
            Ok(())
        }
        // Ownership is implied: the rated review is known to the model,
        // and the model only holds owned categories.
        StoreEvent::Rating { .. } => model.check_event(event).map_err(|e| e.to_string()),
    }
}

fn new_model(num_users: usize, num_categories: usize) -> Result<IncrementalDerived, Refusal> {
    IncrementalDerived::new(num_users, num_categories, &DeriveConfig::default())
        .map_err(|e| internal(e.to_string()))
}

impl Shard {
    /// Ingests one event through the engine and records it in its
    /// category's sub-log.
    fn admit(&mut self, tag: u64, event: StoreEvent) -> Result<(), Refusal> {
        let owned = &self.owned;
        let cat = self.engine.admit(tag, event, |m, e| check(owned, m, e))?;
        self.sublogs.entry(cat.0).or_default().push((tag, event));
        Ok(())
    }

    /// Rebuilds the model from the remaining sub-logs — the drop and
    /// truncate paths. A fresh replay (in tag order across categories)
    /// leaves the model holding *exactly* the owned events, so a later
    /// re-adoption of a dropped category can replay it back in without
    /// collisions. (The cache notices the new model instance and resets
    /// itself.)
    fn rebuild(&mut self) -> Result<(), Refusal> {
        let model = self.engine.model();
        let fresh = new_model(model.num_users(), model.num_categories())?;
        let mut all: Vec<(u64, StoreEvent)> = self
            .sublogs
            .values()
            .flat_map(|v| v.iter().copied())
            .collect();
        all.sort_by_key(|&(t, _)| t);
        let owned = &self.owned;
        self.engine
            .rebuild(fresh, all.into_iter().map(|(_, e)| e), |m, e| {
                check(owned, m, e)
            })
            .map_err(internal)
    }

    fn require_owned(&self, category: u32) -> Result<(), Refusal> {
        if category as usize >= self.engine.model().num_categories() {
            return Err((
                ErrorCode::OutOfRange,
                format!("category {category} out of range"),
            ));
        }
        if !self.owned.contains(&category) {
            return Err(bad(format!(
                "category {category} is not owned by this worker"
            )));
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

fn run(wal_path: PathBuf) -> io::Result<()> {
    let mut worker = Worker {
        wal_path,
        shard: None,
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
        if let Some(shard) = worker.shard.as_mut() {
            shard
                .engine
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

type HandlerResult = Result<ShardReply, Refusal>;

fn bad(msg: String) -> Refusal {
    (ErrorCode::BadRequest, msg)
}

fn internal(msg: String) -> Refusal {
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
            if let Some(shard) = worker.shard.as_mut() {
                shard.engine.sync().map_err(|e| internal(e.to_string()))?;
            }
            Ok(ShardReply::Bye)
        }
        ShardRequest::Stall { millis } => {
            worker.stall = Some(Duration::from_millis(millis));
            Ok(ShardReply::Ack)
        }
        other => {
            let Some(shard) = worker.shard.as_mut() else {
                return Err(bad("request before handshake".into()));
            };
            match other {
                ShardRequest::Ingest { events } => ingest(shard, events),
                ShardRequest::Truncate { cut } => truncate(shard, cut),
                ShardRequest::States { categories } => {
                    for &c in &categories {
                        shard.require_owned(c)?;
                    }
                    let tables = shard.engine.tables();
                    let states = categories.iter().map(|&c| state_of(tables, c)).collect();
                    Ok(ShardReply::FullState(states))
                }
                ShardRequest::FullState => {
                    let tables = shard.engine.tables();
                    let states = shard.owned.iter().map(|&c| state_of(tables, c)).collect();
                    Ok(ShardReply::FullState(states))
                }
                ShardRequest::DropCategory { category } => drop_category(shard, category),
                ShardRequest::AdoptCategory { category, events } => {
                    adopt_category(shard, category, events)
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

/// The handshake: fix the community shape, open the log and fold it in
/// (entries below `cut`, filtered to the owned categories, deduplicated
/// by tag, in tag order), rewrite orphan tags at or past `cut` out of
/// the log, and report what the durable log holds.
fn hello(
    worker: &mut Worker,
    num_users: usize,
    num_categories: usize,
    cut: u64,
    owned: &[u32],
) -> HandlerResult {
    if worker.shard.is_some() {
        return Err(bad("handshake already done".into()));
    }
    if owned.iter().any(|&c| c as usize >= num_categories) {
        return Err(bad("owned category out of range".into()));
    }
    let owned: BTreeSet<u32> = owned.iter().copied().collect();
    let mut sublogs: BTreeMap<u32, Vec<(u64, StoreEvent)>> =
        owned.iter().map(|&c| (c, Vec::new())).collect();
    let model = new_model(num_users, num_categories)?;
    let (engine, (recovered, max_tag, orphans)) = ShardEngine::open(
        &worker.wal_path,
        LogKind::TaggedEvents,
        // The main loop owns durability: one sync per processing group,
        // before any of the group's replies.
        FsyncPolicy::Manual,
        model,
        |model, mut log| {
            let orphans = log.iter().any(|&(t, _)| t >= cut);
            log.retain(|&(t, _)| t < cut);
            // Tag order is global ingest order; a stable sort plus
            // tag-dedup collapses the drop-then-readopt case (the
            // adoption re-appended events the log already had).
            log.sort_by_key(|&(t, _)| t);
            log.dedup_by_key(|e| e.0);
            let max_tag = log.last().map_or(NO_TAG, |&(t, _)| t);
            // The log may hold reviews of categories no longer owned
            // (dropped since): they still resolve rating → category.
            let mut category_of: HashMap<u32, u32> = HashMap::new();
            let mut recovered = 0u64;
            for (tag, event) in log {
                let cat = match event {
                    StoreEvent::Review {
                        review, category, ..
                    } => {
                        category_of.insert(review.0, category.0);
                        category.0
                    }
                    StoreEvent::Rating { review, .. } => match category_of.get(&review.0) {
                        Some(&c) => c,
                        None => continue,
                    },
                };
                if !owned.contains(&cat) {
                    continue;
                }
                ShardEngine::fold(model, &event, |m, e| check(&owned, m, e)).map_err(|e| {
                    ServeError::Protocol(format!("log replay failed at tag {tag}: {e}"))
                })?;
                sublogs.entry(cat).or_default().push((tag, event));
                recovered += 1;
            }
            Ok((recovered, max_tag, orphans))
        },
    )
    .map_err(|e| internal(e.to_string()))?;
    let mut shard = Shard {
        engine,
        owned,
        sublogs,
    };
    if orphans {
        shard
            .engine
            .rewrite_below(cut)
            .map_err(|e| internal(e.to_string()))?;
    }
    worker.shard = Some(shard);
    Ok(ShardReply::Hello(HelloAck { recovered, max_tag }))
}

/// One batched run of tagged events: admit, append, and apply each in
/// order, acking the run's durability horizon. The actual fsync is the
/// main loop's group sync — it lands before this reply is written.
fn ingest(shard: &mut Shard, events: Vec<(u64, StoreEvent)>) -> HandlerResult {
    if events.is_empty() {
        return Err(bad("empty ingest batch".into()));
    }
    let mut max_tag = 0;
    for (tag, event) in events {
        shard.admit(tag, event)?;
        max_tag = tag;
    }
    Ok(ShardReply::Ingested { max_tag })
}

/// Rolls this worker back to a coordinator-named cut: entries tagged at
/// or past it leave the model (sub-log filter + rebuild) and the disk
/// (the engine's atomic rewrite). The coordinator queues this behind a
/// failed round's in-flight ingests, so FIFO ordering makes the rollback
/// total.
fn truncate(shard: &mut Shard, cut: u64) -> HandlerResult {
    for log in shard.sublogs.values_mut() {
        log.retain(|&(t, _)| t < cut);
    }
    shard.rebuild()?;
    let dropped = shard
        .engine
        .rewrite_below(cut)
        .map_err(|e| internal(e.to_string()))?;
    Ok(ShardReply::Truncated { dropped })
}

/// Stops owning a category: ship its sub-log out and rebuild the model
/// without it. The WAL keeps the old entries — replay filtering at the
/// next handshake ignores them.
fn drop_category(shard: &mut Shard, category: u32) -> HandlerResult {
    shard.require_owned(category)?;
    shard.owned.remove(&category);
    let events = shard.sublogs.remove(&category).unwrap_or_default();
    shard.rebuild()?;
    Ok(ShardReply::SubLog(events))
}

/// Starts owning a category: ingest its history in tag order (the main
/// loop's group sync makes it durable before the reply), and reply with
/// the re-solved state (which the coordinator holds bit-identical
/// against the previous owner's).
fn adopt_category(
    shard: &mut Shard,
    category: u32,
    events: Vec<(u64, StoreEvent)>,
) -> HandlerResult {
    if category as usize >= shard.engine.model().num_categories() {
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
    shard.owned.insert(category);
    for (tag, event) in events {
        shard.admit(tag, event)?;
    }
    Ok(ShardReply::State(state_of(shard.engine.tables(), category)))
}
