//! The traced pass's stage replay and isolated layer probes.
//!
//! The daemon's writer runs `check → WAL append → apply → solve →
//! derive/assemble → snapshot build → publish` behind one ack, and the
//! benchmark may not put timers inside it. So the traced pass pushes tail
//! events through those same public calls, in that order, on its own
//! thread — one root span per event — and then times the read path and
//! the wire codecs on their own. Layers are named after the modules.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wot_community::StoreEvent;
use wot_core::{DerivedCache, IncrementalDerived, ReplayEvent};
use wot_serve::protocol::{self, OkBody, Request};
use wot_serve::shard_proto::{self, ShardReply, ShardRequest};
use wot_serve::{ServeSnapshot, SnapshotCell};
use wot_wal::{FsyncPolicy, LogKind, WalWriter};

use crate::backend::Handle;
use crate::loadgen::TOP_K;
use crate::schedule::Rng;
use crate::spans::{durations, Recorder, Span};
use crate::stats::median;
use crate::workload::{Inputs, Workload};
use crate::{Metric, Res};

fn us(secs: f64) -> f64 {
    secs * 1e6
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Category of every review id in `log` (a rating routes by its review).
fn review_categories(log: &[StoreEvent]) -> Vec<u32> {
    log.iter()
        .filter_map(|e| match *e {
            StoreEvent::Review { category, .. } => Some(category.0),
            StoreEvent::Rating { .. } => None,
        })
        .collect()
}

fn category_of(e: &StoreEvent, review_cat: &[u32]) -> u32 {
    match *e {
        StoreEvent::Review { category, .. } => category.0,
        StoreEvent::Rating { review, .. } => review_cat[review.index()],
    }
}

/// Median duration, in µs, of the spans called `name`.
fn span_p50_us(spans: &[Span], name: &str) -> f64 {
    us(median(&mut durations(spans, name)))
}

/// What the replay hands on to the later probes.
pub struct Replayed {
    /// Mean time of one event through all the writer's stages, in µs.
    pub event_mean_us: f64,
    pub events: usize,
    /// The last snapshot published.
    pub snapshot: Arc<ServeSnapshot>,
}

/// Most events the stage replay pushes through.
const REPLAY_EVENTS: usize = 2000;

/// Pushes tail events through the writer's stages until `budget` is spent
/// or `REPLAY_EVENTS` are done (at least eight, so medians exist).
pub fn replay(
    w: &Workload,
    inputs: &Inputs,
    mut model: IncrementalDerived,
    dir: &Path,
    budget: Duration,
    rec: &mut Recorder,
    out: &mut Vec<Metric>,
) -> Res<Replayed> {
    let review_cat = review_categories(&inputs.log);
    let mut cache = DerivedCache::default();
    let base_seq = inputs.prefix as u64;
    let first = if w.delta {
        model.refresh_and_derive_warm(&mut cache)
    } else {
        model.to_derived_cached(&mut cache)
    };
    let cell = SnapshotCell::new(Arc::new(ServeSnapshot::new(base_seq, first)));
    let wal_path = dir.join("replay.wal");
    let mut wal = WalWriter::create(&wal_path, LogKind::Events, FsyncPolicy::Always)?;

    let first_span = rec.spans().len();
    let mut solve_us = Vec::new();
    let (mut sweeps, mut visited, mut fallbacks) = (0usize, 0usize, 0usize);
    let began = Instant::now();
    let mut done = 0;
    for e in inputs.tail().iter().take(REPLAY_EVENTS) {
        if done >= 8 && began.elapsed() >= budget {
            break;
        }
        let id = done as u64;
        let cat = category_of(e, &review_cat);
        let root = rec.enter("serve.writer.event", id);
        rec.time("core.incremental.check", id, || model.check_event(e))
            .0?;
        rec.time("wal.append", id, || wal.append(e)).0?;
        rec.time("core.incremental.apply", id, || {
            model.apply(&ReplayEvent::from(*e))
        })
        .0?;
        let seq = base_seq + done as u64 + 1;
        // Delta: the worklist solve is its own call, and the derive that
        // follows only rebuilds the dirty category's tables and
        // assembles. Cold: one call does the cold solve and both.
        let derived = if w.delta {
            let (report, s) = rec.time("core.incremental.solve", id, || {
                model.refresh_traced(wot_community::CategoryId(cat))
            });
            solve_us.push(us(s));
            sweeps += report.sweeps;
            visited += report.visited_reviews.len() + report.visited_raters.len();
            fallbacks += usize::from(report.fell_back);
            rec.time("core.incremental.derive", id, || {
                model.refresh_and_derive_warm(&mut cache)
            })
            .0
        } else {
            let (derived, _) = rec.time("core.incremental.derive", id, || {
                model.to_derived_cached(&mut cache)
            });
            let cr = &derived.per_category[cat as usize];
            sweeps += cr.iterations;
            visited += cr.rater_reputation.len() + cr.review_quality.len();
            derived
        };
        let (snap, _) = rec.time("serve.snapshot.build", id, || {
            Arc::new(ServeSnapshot::new(seq, derived))
        });
        rec.time("serve.snapshot.publish", id, || cell.publish(snap));
        rec.exit(root);
        done += 1;
    }
    drop(wal);

    // After the replay, not inside it (a second pass over every table
    // would leave the caches warmer than the daemon ever finds them):
    // the same derive with nothing dirty is the E/A assembly alone.
    let mut assemble_us: Vec<f64> = (0..8)
        .map(|_| {
            let t = Instant::now();
            let again = if w.delta {
                model.refresh_and_derive_warm(&mut cache)
            } else {
                model.to_derived_cached(&mut cache)
            };
            let secs = t.elapsed().as_secs_f64();
            drop(again);
            us(secs)
        })
        .collect();
    let assemble_us = median(&mut assemble_us);

    let spans = &rec.spans()[first_span..];
    let stage = |name| span_p50_us(spans, name);
    // Cold publish has no separate solve call: the derive is cold solve
    // plus table build plus assembly, so the solve is what is left of it.
    let solve_us = if w.delta {
        median(&mut solve_us)
    } else {
        stage("core.incremental.derive") - assemble_us
    };
    // Means, not medians, for the sum: stage times are bimodal (worklist
    // or full-sweep fallback), and only means add up to the whole.
    let event_mean_us = us(mean(&durations(spans, "serve.writer.event")));
    let n = done as f64;
    out.extend([
        Metric::new(
            "core.incremental.check_us",
            stage("core.incremental.check"),
            "us",
        ),
        Metric::new(
            "core.incremental.apply_us",
            stage("core.incremental.apply"),
            "us",
        ),
        Metric::new("core.incremental.solve_us", solve_us, "us"),
        Metric::new("core.incremental.assemble_us", assemble_us, "us"),
        Metric::new("core.incremental.solve_sweeps", sweeps as f64 / n, "count"),
        Metric::new(
            "core.incremental.solve_visited",
            visited as f64 / n,
            "count",
        ),
        Metric::new(
            "core.incremental.delta_fallback_share",
            fallbacks as f64 / n,
            "ratio",
        ),
        Metric::new("wal.append_us", stage("wal.append"), "us"),
        Metric::new(
            "serve.snapshot.build_us",
            stage("serve.snapshot.build"),
            "us",
        ),
        Metric::new(
            "serve.snapshot.publish_us",
            stage("serve.snapshot.publish"),
            "us",
        ),
    ]);

    // The append's two halves, separately: buffered write, then fsync.
    let split_path = dir.join("split.wal");
    let mut split = WalWriter::create(&split_path, LogKind::Events, FsyncPolicy::Manual)?;
    let (mut write_us, mut sync_us) = (Vec::new(), Vec::new());
    for e in &inputs.tail()[..done] {
        let t = Instant::now();
        split.append(e)?;
        write_us.push(us(t.elapsed().as_secs_f64()));
        let t = Instant::now();
        split.sync()?;
        sync_us.push(us(t.elapsed().as_secs_f64()));
    }
    drop(split);
    let (log, recover_s) = rec.time("wal.recover", 0, || wot_wal::read_log(&wal_path));
    if log?.events.len() != done {
        return Err("the replay's log does not read back whole".into());
    }
    out.extend([
        Metric::new("wal.write_us", median(&mut write_us), "us"),
        Metric::new("wal.sync_us", median(&mut sync_us), "us"),
        Metric::new("wal.recover_us", us(recover_s) / n, "us"),
    ]);
    Ok(Replayed {
        event_mean_us,
        events: done,
        snapshot: cell.load(),
    })
}

/// Median per-call time of `f`, in µs, timing `batch` calls at a stretch
/// so the clock's own cost stays below the thing measured.
fn per_call_us(rounds: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    let mut v = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        v.push(us(t.elapsed().as_secs_f64()) / batch as f64);
    }
    median(&mut v)
}

/// The read path without any transport, and the two wire codecs without
/// any socket or pipe.
pub fn read_path_and_codecs(
    snap: &ServeSnapshot,
    tail: &[StoreEvent],
    seed: u64,
    out: &mut Vec<Metric>,
) -> Res<()> {
    let users = snap.num_users();
    let mut rng = Rng::new(seed);
    let trust_us = per_call_us(40, 100, || {
        let (i, j) = (rng.below(users) as usize, rng.below(users) as usize);
        std::hint::black_box(snap.trust(i, j));
    });
    let topk_us = per_call_us(40, 1, || {
        std::hint::black_box(snap.top_k(rng.below(users) as usize, TOP_K as usize));
    });
    out.push(Metric::new("serve.snapshot.trust_us", trust_us, "us"));
    out.push(Metric::new("serve.snapshot.topk_us", topk_us, "us"));

    // Client protocol: one Trust and one TopK(10) exchange, both ways.
    let top = snap
        .top_k(0, TOP_K as usize)
        .into_iter()
        .map(|(j, v)| (j as u32, v))
        .collect::<Vec<_>>();
    let exchanges = [
        (Request::Trust { i: 1, j: 2 }, OkBody::Trust(0.25)),
        (Request::TopK { user: 0, k: TOP_K }, OkBody::TopK(top)),
    ];
    let (mut req, mut resp) = (Vec::new(), Vec::new());
    let mut bytes = [0usize; 2];
    let mut broken = false;
    let mut exchange = |k: usize| {
        let (request, body) = &exchanges[k];
        req.clear();
        protocol::encode_request(&mut req, request);
        broken |= protocol::decode_request(&req).is_err();
        resp.clear();
        protocol::encode_ok(&mut resp, 7, body);
        broken |= protocol::decode_response(&resp).is_err();
        bytes[k] = req.len() + resp.len();
    };
    // Four point queries to one top-k, as in the read mix.
    let codec_us = per_call_us(40, 20, || {
        for k in [0, 0, 0, 0, 1] {
            exchange(k);
        }
    }) / 5.0;
    if broken {
        return Err("the client protocol failed to decode its own frames".into());
    }
    out.push(Metric::new("serve.protocol.codec_us", codec_us, "us"));
    out.push(Metric::new(
        "serve.protocol.bytes_per_query",
        (4 * bytes[0] + bytes[1]) as f64 / 5.0,
        "B",
    ));

    // Shard protocol: one 64-event Ingest frame and its ack, both ways.
    let events: Vec<(u64, StoreEvent)> = tail
        .iter()
        .take(64)
        .enumerate()
        .map(|(k, e)| (k as u64, *e))
        .collect();
    let n = events.len();
    let request = ShardRequest::Ingest { events };
    let reply = ShardReply::Ingested { max_tag: 63 };
    let mut frame_bytes = 0;
    let codec_us = per_call_us(40, 20, || {
        req.clear();
        shard_proto::encode_shard_request(&mut req, &request);
        broken |= shard_proto::decode_shard_request(&req).is_err();
        resp.clear();
        shard_proto::encode_shard_ok(&mut resp, &reply);
        broken |= shard_proto::decode_shard_reply(&resp).is_err();
        frame_bytes = req.len() + resp.len();
    });
    if broken {
        return Err("the shard protocol failed to decode its own frames".into());
    }
    out.push(Metric::new("serve.shard_proto.codec_us", codec_us, "us"));
    out.push(Metric::new(
        "serve.shard_proto.bytes_per_event",
        frame_bytes as f64 / n as f64,
        "B",
    ));
    Ok(())
}

/// Closed-loop probes of the live backend through the same trait object
/// on either deployment. Returns how many tail events it consumed.
///
/// * `ingest_ack_us` — one `ingest`: on the flat daemon the ack waits for
///   the publish; on the cluster it is durability only.
/// * `refresh_us` — the first read after it: a plain query on the flat
///   daemon, the `States` scatter plus Eq. 4 assembly on the cluster.
/// * `warm_query_us` — the same read again.
/// * `rtt_us` — the cheapest round trip the backend offers, a point
///   reputation lookup: TCP to a reader thread, or the pipe to the owner.
pub fn probe_backend(
    h: &mut dyn Handle,
    w: &Workload,
    inputs: &Inputs,
    budget: Duration,
    event_mean_us: f64,
    rec: &mut Recorder,
    out: &mut Vec<Metric>,
) -> Res<usize> {
    let tail = inputs.tail();
    let review_cat = review_categories(&inputs.log);
    let (mut ack, mut refresh, mut warm, mut rtt) = (vec![], vec![], vec![], vec![]);
    let began = Instant::now();
    let mut used = 0;
    while used < tail.len() && (used < 8 || began.elapsed() < budget / 2) {
        let e = tail[used];
        let id = (7 << 40) | used as u64;
        let root = rec.enter("probe.ingest", id);
        let (r, s) = rec.time("backend.ingest", id, || h.ingest(e));
        r?;
        ack.push(us(s));
        let (r, s) = rec.time("backend.first_read", id, || h.trust(0, 1));
        r?;
        refresh.push(us(s));
        let (r, s) = rec.time("backend.warm_read", id, || h.trust(0, 1));
        r?;
        warm.push(us(s));
        let cat = category_of(&e, &review_cat);
        let (r, s) = rec.time("backend.rater_reputation", id, || {
            h.rater_reputation(cat, 0)
        });
        r?;
        rtt.push(us(s));
        rec.exit(root);
        used += 1;
    }

    // Rounds of the bulk feed: how many events share one publish?
    let (before, _) = h.stats()?;
    let mut batch = vec![];
    let began = Instant::now();
    for chunk in tail[used..].chunks_exact(w.round_events) {
        if batch.len() >= 4 && began.elapsed() >= budget / 2 {
            break;
        }
        let id = (8 << 40) | batch.len() as u64;
        let root = rec.enter("probe.batch", id);
        let (r, s) = rec.time("backend.ingest_batch", id, || h.ingest_batch(chunk));
        r?;
        batch.push(us(s));
        rec.time("backend.first_read", id, || h.trust(0, 1)).0?;
        rec.exit(root);
        used += chunk.len();
    }
    let (after, _) = h.stats()?;
    let publishes = after.publishes - before.publishes;
    let mut tables = vec![];
    for c in 0..inputs.store.num_categories() as u32 {
        let (r, s) = rec.time("backend.category_tables", u64::from(c), || {
            h.category_tables(c)
        });
        r?;
        tables.push(us(s));
    }

    let ack_all = ack.clone();
    let (ack, refresh, warm, rtt) = (
        median(&mut ack),
        median(&mut refresh),
        median(&mut warm),
        median(&mut rtt),
    );
    out.extend([
        Metric::new("serve.backend.rtt_us", rtt, "us"),
        Metric::new("serve.backend.ingest_ack_us", ack, "us"),
        Metric::new("serve.backend.refresh_us", refresh, "us"),
        Metric::new("serve.backend.warm_query_us", warm, "us"),
        Metric::new("serve.backend.batch_ack_us", median(&mut batch), "us"),
        Metric::new("serve.backend.tables_us", median(&mut tables), "us"),
        Metric::new(
            "serve.backend.events_per_publish",
            (after.events - before.events) as f64 / publishes.max(1) as f64,
            "count",
        ),
        // The north-star check: do the stages, plus one transport round
        // trip, add up to what a client waits for a write to be readable?
        Metric::new(
            "serve.backend.stage_sum_ratio",
            (event_mean_us + rtt) / (mean(&ack_all) + refresh - warm),
            "ratio",
        ),
    ]);
    Ok(used)
}
