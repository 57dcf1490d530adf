//! `wot-shardd` — one shard worker process.
//!
//! A worker is its engine, its log and its ownership set: a
//! [`ShardEngine`] over one sequence-tagged WAL, whose model holds
//! exactly the owned categories' events and solves their tables. It
//! keeps no second copy of either: the log is its only history, and a
//! table leaves as the engine's own `Arc<CategoryReputation>`. It speaks
//! the coordinator's length-prefixed protocol
//! ([`wot_serve::shard_proto`]) over stdin/stdout, answering every
//! request in arrival order — so the coordinator can pipeline frames at
//! it and still correlate replies positionally.
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
//! (check (read-only admission) → WAL append → apply)ⁿ → commit → reply
//! ```
//!
//! This file is the transport around it: framing, group draining,
//! category ownership and rebalance. A dedicated
//! thread reads stdin so the main loop can drain every frame already
//! queued (up to [`GROUP_MAX`]) per wake — one writer round — and cover
//! the whole group with **one** engine
//! [`commit`](ShardEngine::commit) (one fsync: the log runs under
//! [`FsyncPolicy::Manual`]) before any of the group's replies is written
//! — an acknowledged event is durable before it is visible, at a
//! fraction of a per-event sync's cost. This is the flat daemon's group
//! commit, with a wake-group as the round. The coordinator ships each
//! worker its events of an `ingest_batch` round as one `Ingest` frame
//! (split only past 256 events), so a round is one frame, one
//! wake-group and one fsync per worker. A failed commit is fatal
//! (the worker exits without acknowledging; recovery replays the log);
//! a failed append trips the engine's fail-stop latch, so nothing is
//! ever appended behind a torn frame. Nothing that fails admission ever
//! poisons the log.
//!
//! Every time the model must change by more than one event, one path
//! rebuilds it: [`owned_part`] of the log (entries below a cut, in tag
//! order, deduplicated by tag, restricted to the owned categories)
//! folded onto a fresh model — inside [`ShardEngine::open`] at the
//! handshake, through [`Shard::reload`] after a `Truncate` or a
//! `DropCategory`, and over the log merged with the adopted history on
//! an `AdoptCategory`. A `DropCategory` reply is the same function with
//! the dropped category as the owned set.
//!
//! Admission is the model's own (`wot-core`'s one rule, with the subset
//! id rule: a worker holds only its categories' reviews), plus one
//! worker-only check around it: a review must open in an owned category.
//!
//! The handshake opens the log, since it fixes the model's shape, and
//! reports the highest durable tag, so after `kill -9` the coordinator
//! can reconcile events that became durable right before the crash but
//! were never acknowledged. Its `cut` makes the reconciliation physical:
//! entries tagged at or past it are rewritten out of the WAL, so an
//! orphan tag can never collide with a future event.

#![forbid(unsafe_code)]

use std::collections::{BTreeSet, HashMap, HashSet};
use std::io::{self, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::mpsc::{self, TryRecvError};
use std::sync::Arc;

use wot_community::StoreEvent;
use wot_core::admission::IdRule;
use wot_core::{DeriveConfig, IncrementalDerived};
use wot_serve::engine::Refusal;
use wot_serve::protocol::{read_frame, write_frame, ErrorCode, FrameRead};
use wot_serve::shard_proto::{
    decode_shard_request, encode_shard_err, encode_shard_ok, HelloAck, ShardReply, ShardRequest,
    MAX_SHARD_FRAME_LEN, NO_TAG,
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
}

/// The post-handshake shard: the engine and the categories it owns.
struct Shard {
    engine: ShardEngine,
    owned: BTreeSet<u32>,
}

/// The owned part of a tagged log: the entries tagged below `cut`, in
/// tag order with duplicate tags collapsed (a re-adoption re-appends
/// events the log already holds), restricted to the `owned` categories.
/// A rating's category is resolved from the log's own review events,
/// which the log keeps even for categories dropped since.
fn owned_part(
    log: &[(u64, StoreEvent)],
    cut: u64,
    owned: &BTreeSet<u32>,
) -> Vec<(u64, StoreEvent)> {
    let mut part: Vec<(u64, StoreEvent)> = log.iter().filter(|e| e.0 < cut).copied().collect();
    // Tag order is global ingest order; the sort is stable, so the
    // dedup keeps each tag's first copy.
    part.sort_by_key(|&(t, _)| t);
    part.dedup_by_key(|e| e.0);
    let mut category_of: HashMap<u32, u32> = HashMap::new();
    part.retain(|&(_, event)| {
        let cat = match event {
            StoreEvent::Review {
                review, category, ..
            } => {
                category_of.insert(review.0, category.0);
                Some(category.0)
            }
            StoreEvent::Rating { review, .. } => category_of.get(&review.0).copied(),
        };
        cat.is_some_and(|c| owned.contains(&c))
    });
    part
}

/// A fresh model for the owned categories' events. It holds a subset of
/// the reviews, so a review's id must be above every id it holds: the
/// events arrive in tag order, and tag order is id order.
fn new_model(num_users: usize, num_categories: usize) -> Result<IncrementalDerived, Refusal> {
    IncrementalDerived::new(num_users, num_categories, &DeriveConfig::default())
        .map(|m| m.with_id_rule(IdRule::Subset))
        .map_err(|e| internal(e.to_string()))
}

impl Shard {
    /// Ingests one event through the engine, if it may land here: a
    /// review must open in an owned category. (A rating's review is held,
    /// and the model holds only owned categories.)
    fn admit(&mut self, tag: u64, event: StoreEvent) -> Result<(), Refusal> {
        if let Some(c) = event.category().filter(|c| !self.owned.contains(&c.0)) {
            let refusal = format!("category {c} is not owned by this worker");
            return Err((ErrorCode::Rejected, refusal));
        }
        self.engine.admit(tag, event)?;
        Ok(())
    }

    /// Rebuilds the model from the log after the owned set or the log
    /// shrank: the log read back, its [`owned_part`] folded onto a fresh
    /// model. The model then holds *exactly* the owned events, so a
    /// later re-adoption of a dropped category replays back in without
    /// collisions. Returns the log it read.
    fn reload(&mut self) -> Result<Vec<(u64, StoreEvent)>, Refusal> {
        let log = self
            .engine
            .read_back()
            .map_err(|e| internal(e.to_string()))?;
        let events = owned_part(&log, NO_TAG, &self.owned);
        self.engine
            .rebuild(self.fresh_model()?, events.into_iter().map(|(_, e)| e), &[])
            .map_err(|(_, e)| internal(e))?;
        Ok(log)
    }

    /// An empty model of this shard's shape.
    fn fresh_model(&self) -> Result<IncrementalDerived, Refusal> {
        let model = self.engine.model();
        new_model(model.num_users(), model.num_categories())
    }

    /// The solved tables of `categories`, each owned, in the asked order.
    fn states(&mut self, categories: &[u32]) -> HandlerResult {
        for &c in categories {
            self.require_owned(c)?;
        }
        let tables = self.engine.tables();
        Ok(ShardReply::States(
            categories
                .iter()
                .map(|&c| Arc::clone(&tables[c as usize]))
                .collect(),
        ))
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
        // Durability before acknowledgment: one commit covers every
        // append the group staged. A failed commit is fatal — the model
        // has already applied what the log may not hold, so the only
        // safe exit is without acks, leaving recovery to the replay.
        if let Some(shard) = worker.shard.as_mut() {
            shard
                .engine
                .commit()
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
        other => {
            let Some(shard) = worker.shard.as_mut() else {
                return Err(bad("request before handshake".into()));
            };
            match other {
                ShardRequest::Ingest { events } => ingest(shard, events),
                ShardRequest::Truncate { cut } => truncate(shard, cut),
                ShardRequest::States { categories } => shard.states(&categories),
                ShardRequest::DropCategory { category } => drop_category(shard, category),
                ShardRequest::AdoptCategory { category, events } => {
                    adopt_category(shard, category, events)
                }
                ShardRequest::Hello { .. } | ShardRequest::Shutdown => unreachable!(),
            }
        }
    }
}

/// The handshake: fix the community shape, open the log and fold its
/// [`owned_part`] below `cut` in, rewrite orphan tags at or past `cut`
/// out of the log, and report the highest tag the durable log holds.
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
    let model = new_model(num_users, num_categories)?;
    let (engine, (max_tag, orphans)) = ShardEngine::open(
        &worker.wal_path,
        LogKind::TaggedEvents,
        // The main loop owns durability: one commit per processing
        // group, before any of the group's replies.
        FsyncPolicy::Manual,
        model,
        |model, log| {
            let orphans = log.iter().any(|&(t, _)| t >= cut);
            let max_tag = log.iter().map(|&(t, _)| t).filter(|&t| t < cut).max();
            for (tag, event) in owned_part(&log, cut, &owned) {
                ShardEngine::fold(model, &event).map_err(|e| {
                    ServeError::Protocol(format!("log replay failed at tag {tag}: {e}"))
                })?;
            }
            Ok((max_tag.unwrap_or(NO_TAG), orphans))
        },
    )
    .map_err(|e| internal(e.to_string()))?;
    let mut shard = Shard { engine, owned };
    if orphans {
        shard
            .engine
            .rewrite_below(cut)
            .map_err(|e| internal(e.to_string()))?;
    }
    worker.shard = Some(shard);
    Ok(ShardReply::Hello(HelloAck { max_tag }))
}

/// One batched run of tagged events: admit, append, and apply each in
/// order, acking the run's durability horizon. The actual fsync is the
/// group's commit — it lands before this reply is written.
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
/// or past it leave the disk (the engine's atomic rewrite), then the
/// model (a reload from the rewritten log). The coordinator queues this
/// behind a failed round's in-flight ingests, so FIFO ordering makes the
/// rollback total.
fn truncate(shard: &mut Shard, cut: u64) -> HandlerResult {
    let dropped = shard
        .engine
        .rewrite_below(cut)
        .map_err(|e| internal(e.to_string()))?;
    shard.reload()?;
    Ok(ShardReply::Truncated { dropped })
}

/// Stops owning a category: reload the model without it and ship the
/// category's part of the same log out. The WAL keeps the entries —
/// [`owned_part`] ignores them from now on.
fn drop_category(shard: &mut Shard, category: u32) -> HandlerResult {
    shard.require_owned(category)?;
    shard.owned.remove(&category);
    let log = shard.reload()?;
    Ok(ShardReply::SubLog(owned_part(
        &log,
        NO_TAG,
        &BTreeSet::from([category]),
    )))
}

/// Starts owning a category: rebuild the model over its history merged
/// by tag with the owned part of the log — review ids interleave across
/// categories, and the subset id rule wants them in tag order — then
/// append the history (the group's commit makes it durable before the
/// reply), and reply with the re-solved state (which the coordinator
/// holds bit-identical against the previous owner's). A history the model
/// refuses anywhere leaves the category unowned, the model as it was and
/// nothing appended.
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
    let mut owned = shard.owned.clone();
    owned.insert(category);
    let mut merged = shard
        .engine
        .read_back()
        .map_err(|e| internal(e.to_string()))?;
    merged.extend_from_slice(&events);
    let history = owned_part(&merged, NO_TAG, &owned);
    let fresh = shard.fresh_model()?;
    shard
        .engine
        .rebuild(fresh, history.into_iter().map(|(_, e)| e), &events)?;
    shard.owned = owned;
    shard.states(&[category])
}

#[cfg(test)]
mod tests {
    use wot_community::{CategoryId, ReviewId, UserId};

    use super::*;

    /// Tagged reviews `tags` in category 0, written round-robin by four
    /// users; a review's id is its tag.
    fn ingest(tags: std::ops::Range<u32>) -> ShardRequest {
        let events = tags
            .map(|t| {
                let review = StoreEvent::Review {
                    writer: UserId(t % 4),
                    review: ReviewId(t),
                    category: CategoryId(0),
                };
                (t as u64, review)
            })
            .collect();
        ShardRequest::Ingest { events }
    }

    /// Handling an `Ingest` frame appends without syncing, so the
    /// group's one commit — the main loop's only sync — is what a
    /// 64-event frame costs; a group of two frames costs the same one.
    #[test]
    fn an_ingest_frame_costs_its_group_one_sync() {
        let wal_path =
            std::env::temp_dir().join(format!("wot-shardd-group-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&wal_path);
        let mut worker = Worker {
            wal_path: wal_path.clone(),
            shard: None,
        };
        let hello = ShardRequest::Hello {
            num_users: 4,
            num_categories: 1,
            cut: NO_TAG,
            owned: vec![0],
        };
        handle(&mut worker, hello).unwrap();
        let syncs = |w: &Worker| w.shard.as_ref().unwrap().engine.syncs();
        let commit = |w: &mut Worker| w.shard.as_mut().unwrap().engine.commit().unwrap();

        let acked = handle(&mut worker, ingest(0..64)).unwrap();
        assert_eq!(acked, ShardReply::Ingested { max_tag: 63 });
        assert_eq!(syncs(&worker), 0, "an admit must not sync");
        commit(&mut worker);
        assert_eq!(syncs(&worker), 1);

        handle(&mut worker, ingest(64..96)).unwrap();
        handle(&mut worker, ingest(96..128)).unwrap();
        commit(&mut worker);
        assert_eq!(syncs(&worker), 2);
        commit(&mut worker);
        assert_eq!(
            syncs(&worker),
            2,
            "a group with nothing appended costs none"
        );

        let logged = wot_wal::read_tagged_log(&wal_path).unwrap().events;
        let tags: Vec<u64> = logged.iter().map(|&(t, _)| t).collect();
        assert_eq!(tags, (0..128).collect::<Vec<u64>>());
        let _ = std::fs::remove_file(&wal_path);
    }
}
