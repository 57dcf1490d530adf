//! The load generator: an open-loop mixed phase and a closed-loop bulk
//! feed, both written once over `TrustIngest + TrustQuery`, so the flat
//! daemon and the cluster are driven — and their numbers produced — by
//! the same code.
//!
//! Open loop: each op has a due time; the generator sleeps to within
//! 200 µs of it, then spins, and latency runs from the due time, so a
//! stall is charged to every op it delays.

use std::time::{Duration, Instant};

use wot_community::StoreEvent;
use wot_serve::{TrustIngest, TrustQuery};

use crate::backend::Live;
use crate::schedule::{self, Mix, Op, OpKind};
use crate::spans::Recorder;
use crate::workload::Workload;

/// A write counts as failed if no read reflects it within this long.
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(2);
const SPIN: Duration = Duration::from_micros(200);
const LATE: Duration = Duration::from_millis(1);
pub const TOP_K: u32 = 10;

/// What one generator thread observed.
#[derive(Debug, Default)]
pub struct Samples {
    pub query_ms: Vec<f64>,
    pub topk_ms: Vec<f64>,
    pub visible_ms: Vec<f64>,
    pub sent: u64,
    pub failed: u64,
    /// Ops issued more than 1 ms after they were due.
    pub late: u64,
    /// Tail events acknowledged.
    pub acked: u64,
}

impl Samples {
    pub fn absorb(&mut self, other: Samples) {
        self.query_ms.extend(other.query_ms);
        self.topk_ms.extend(other.topk_ms);
        self.visible_ms.extend(other.visible_ms);
        self.sent += other.sent;
        self.failed += other.failed;
        self.late += other.late;
        self.acked += other.acked;
    }
}

fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Reads until an answer carries `seq` or later. Returns whether one did
/// before the timeout.
fn read_until_visible<B: TrustQuery + ?Sized>(b: &mut B, seq: u64, probe: (u32, u32)) -> bool {
    let t = Instant::now();
    loop {
        match b.trust(probe.0, probe.1) {
            Ok((_, at)) if at >= seq => return true,
            Ok(_) if t.elapsed() < VISIBLE_TIMEOUT => {}
            _ => return false,
        }
    }
}

/// Issues one op that was due at `due` and files its latency.
fn issue<B: TrustIngest + TrustQuery + ?Sized>(
    b: &mut B,
    op: &Op,
    due: Instant,
    tail: &[StoreEvent],
    id: u64,
    out: &mut Samples,
    rec: &mut Recorder,
) {
    out.sent += 1;
    let root = rec.enter("loadgen.op", id);
    match op.kind {
        OpKind::Trust { i, j } => {
            let (r, _) = rec.time("backend.trust", id, || b.trust(i, j));
            match r {
                Ok(_) => out.query_ms.push(ms_since(due)),
                Err(_) => out.failed += 1,
            }
        }
        OpKind::TopK { user } => {
            let (r, _) = rec.time("backend.top_k", id, || b.top_k(user, TOP_K));
            match r {
                Ok(_) => out.topk_ms.push(ms_since(due)),
                Err(_) => out.failed += 1,
            }
        }
        OpKind::Write { event } => {
            let Some(&e) = tail.get(event as usize) else {
                out.failed += 1;
                rec.exit(root);
                return;
            };
            let (acked, _) = rec.time("backend.ingest", id, || b.ingest(e));
            let visible = acked.is_ok_and(|seq| {
                out.acked += 1;
                let probe = probe_pair(&e);
                rec.time("backend.read_visible", id, || {
                    read_until_visible(b, seq, probe)
                })
                .0
            });
            if visible {
                out.visible_ms.push(ms_since(due));
            } else {
                out.failed += 1;
            }
        }
    }
    rec.exit(root);
}

/// The pair a write's visibility is read through: trust from the event's
/// actor — any pair would carry the seq; this one's value also moves.
fn probe_pair(e: &StoreEvent) -> (u32, u32) {
    match *e {
        StoreEvent::Review { writer, .. } => (writer.0, 0),
        StoreEvent::Rating { rater, .. } => (rater.0, 0),
    }
}

/// Open loop: issues `ops` on schedule against one backend handle.
pub fn run_schedule<B: TrustIngest + TrustQuery + ?Sized>(
    b: &mut B,
    ops: &[Op],
    tail: &[StoreEvent],
    start: Instant,
    id_base: u64,
    rec: &mut Recorder,
) -> Samples {
    let mut out = Samples::default();
    for (k, op) in ops.iter().enumerate() {
        let due = start + Duration::from_micros(op.due_us);
        wait_until(due);
        if due.elapsed() > LATE {
            out.late += 1;
        }
        issue(b, op, due, tail, id_base | k as u64, &mut out, rec);
    }
    out
}

/// Span op ids are `stream << 40 | index`, unique across the phases and
/// threads of one run.
const fn stream(n: u64) -> u64 {
    n << 40
}

/// The bulk feed's outcome.
#[derive(Debug, Default)]
pub struct Rounds {
    pub round_secs: Vec<f64>,
    /// Reads serviced between rounds (cluster: one thread does both).
    pub reads: Samples,
    pub acked: u64,
    pub failed: u64,
}

/// Closed loop: rounds of `round_events` — `ingest_batch`, then one read
/// that must carry the batch's seq — until `deadline`. Reads from
/// `reads` that fall due are issued between rounds.
pub fn run_rounds<B: TrustIngest + TrustQuery + ?Sized>(
    b: &mut B,
    tail: &[StoreEvent],
    round_events: usize,
    start: Instant,
    deadline: Instant,
    reads: &[Op],
    rec: &mut Recorder,
) -> Rounds {
    let mut out = Rounds::default();
    let mut next_read = 0;
    for (r, chunk) in tail.chunks_exact(round_events).enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let id = stream(5) | r as u64;
        let root = rec.enter("loadgen.round", id);
        let t = Instant::now();
        let (acked, _) = rec.time("backend.ingest_batch", id, || b.ingest_batch(chunk));
        let visible = acked.is_ok_and(|seq| {
            let probe = probe_pair(&chunk[0]);
            rec.time("backend.read_visible", id, || {
                read_until_visible(b, seq, probe)
            })
            .0
        });
        let secs = t.elapsed().as_secs_f64();
        rec.exit(root);
        if !visible {
            // A refused batch may have committed a prefix; the feed
            // cannot continue from a known position.
            out.failed += chunk.len() as u64;
            break;
        }
        out.round_secs.push(secs);
        out.acked += chunk.len() as u64;
        while let Some(op) = reads.get(next_read) {
            let due = start + Duration::from_micros(op.due_us);
            if due > Instant::now() {
                break;
            }
            let id = stream(6) | next_read as u64;
            issue(b, op, due, tail, id, &mut out.reads, rec);
            next_read += 1;
        }
    }
    out
}

/// What the serving stage measured.
#[derive(Debug, Default)]
pub struct Serving {
    /// Phase A (open loop, mixed).
    pub mixed: Samples,
    /// Phase B (closed-loop feed).
    pub feed: Rounds,
    /// Reads answered while the feed ran.
    pub feed_reads: Samples,
    pub schedule_digest: u64,
    /// Tail events acknowledged over both phases.
    pub acked: u64,
}

/// The serving stage's seed and the length of its two phases.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub seed: u64,
    pub mixed_secs: f64,
    pub feed_secs: f64,
}

/// Runs phase A then phase B against the live backend, writing `tail` in
/// order. The flat daemon gets a reader thread and a writer thread, one
/// connection each; the coordinator is `&mut self`, so the cluster gets
/// one thread issuing the merged schedule — a property of that
/// deployment, not of the benchmark.
pub fn drive(
    live: &mut Live,
    w: &Workload,
    users: usize,
    tail: &[StoreEvent],
    window: &Window,
    rec: &mut Recorder,
) -> Serving {
    let Window {
        seed,
        mixed_secs,
        feed_secs,
    } = *window;
    let mixed_ops = schedule::build(
        seed.wrapping_add(2),
        users,
        &Mix {
            reads_per_s: w.reads_per_s,
            writes_per_s: w.writes_per_s,
            seconds: mixed_secs,
        },
    );
    let written = schedule::writes(&mixed_ops);
    let feed_reads = schedule::build(
        seed.wrapping_add(3),
        users,
        &Mix {
            reads_per_s: w.reads_per_s,
            writes_per_s: 0.0,
            seconds: feed_secs,
        },
    );
    let mut out = Serving {
        schedule_digest: schedule::digest(&mixed_ops)
            ^ schedule::digest(&feed_reads).rotate_left(1),
        ..Serving::default()
    };
    let feed_tail = &tail[written.min(tail.len())..];
    match live {
        Live::Flat(flat) => {
            let (reads, writes): (Vec<Op>, Vec<Op>) = mixed_ops
                .iter()
                .partition(|op| !matches!(op.kind, OpKind::Write { .. }));
            let (reader, writer) = (&mut flat.reader, &mut flat.writer);
            let mut reader_rec = rec.fork();
            let start = Instant::now() + Duration::from_millis(5);
            let (r, wr) = std::thread::scope(|s| {
                let h = s.spawn(|| {
                    run_schedule(reader, &reads, tail, start, stream(1), &mut reader_rec)
                });
                let wr = run_schedule(writer, &writes, tail, start, stream(2), rec);
                (h.join().expect("reader thread panicked"), wr)
            });
            out.mixed.absorb(r);
            out.mixed.absorb(wr);
            let start = Instant::now() + Duration::from_millis(5);
            let deadline = start + Duration::from_secs_f64(feed_secs);
            let (r, feed) = std::thread::scope(|s| {
                let h = s.spawn(|| {
                    run_schedule(reader, &feed_reads, tail, start, stream(3), &mut reader_rec)
                });
                let feed = run_rounds(writer, feed_tail, w.round_events, start, deadline, &[], rec);
                (h.join().expect("reader thread panicked"), feed)
            });
            out.feed_reads = r;
            out.feed = feed;
            rec.merge(reader_rec);
        }
        Live::Cluster(c) => {
            let start = Instant::now() + Duration::from_millis(5);
            out.mixed = run_schedule(&mut c.coord, &mixed_ops, tail, start, stream(4), rec);
            let start = Instant::now() + Duration::from_millis(5);
            let deadline = start + Duration::from_secs_f64(feed_secs);
            let mut feed = run_rounds(
                &mut c.coord,
                feed_tail,
                w.round_events,
                start,
                deadline,
                &feed_reads,
                rec,
            );
            out.feed_reads = std::mem::take(&mut feed.reads);
            out.feed = feed;
        }
    }
    out.acked = out.mixed.acked + out.feed.acked;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::testkit::Fake;
    use wot_core::{pipeline, DeriveConfig};
    use wot_serve::ServeSnapshot;
    use wot_synth::SynthConfig;

    fn fake(refuse_ingest: bool) -> (Fake, Vec<StoreEvent>) {
        let store = wot_synth::generate(&SynthConfig::tiny(5)).unwrap().store;
        let log = wot_synth::shuffled_event_log(&store, 6);
        let derived = pipeline::derive(&store, &DeriveConfig::default()).unwrap();
        let snap = ServeSnapshot::new(0, derived);
        (
            Fake {
                snap,
                refuse_ingest,
                corrupt_trust: false,
            },
            log,
        )
    }

    const MIX: Mix = Mix {
        reads_per_s: 2000.0,
        writes_per_s: 500.0,
        seconds: 0.05,
    };

    #[test]
    fn schedule_runs_every_op_and_counts_failures() {
        let (mut b, log) = fake(false);
        let ops = schedule::build(1, 200, &MIX);
        let mut rec = Recorder::new(Instant::now(), true);
        let s = run_schedule(&mut b, &ops, &log, Instant::now(), 0, &mut rec);
        assert_eq!(s.sent, ops.len() as u64);
        assert_eq!(s.failed, 0);
        assert_eq!(s.visible_ms.len(), 25);
        assert_eq!(s.acked, 25);
        assert_eq!(s.query_ms.len() + s.topk_ms.len(), 100);
        // One root per op; every child shares its root's op id.
        let roots = rec.spans().iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(roots, ops.len());
        for s in rec.spans() {
            if let Some(p) = s.parent {
                assert_eq!(s.op, rec.spans()[p as usize].op);
            }
        }

        let (mut b, log) = fake(true);
        let s = run_schedule(&mut b, &ops, &log, Instant::now(), 0, &mut rec);
        assert_eq!(s.failed, 25);
        assert!(s.visible_ms.is_empty());
    }

    #[test]
    fn rounds_stop_at_the_deadline_and_service_due_reads() {
        let (mut b, log) = fake(false);
        let reads = schedule::build(
            2,
            200,
            &Mix {
                writes_per_s: 0.0,
                ..MIX
            },
        );
        let start = Instant::now();
        let deadline = start + Duration::from_millis(60);
        let mut rec = Recorder::new(start, false);
        let r = run_rounds(&mut b, &log, 16, start, deadline, &reads, &mut rec);
        assert!(!r.round_secs.is_empty());
        assert_eq!(r.acked, 16 * r.round_secs.len() as u64);
        assert_eq!(r.failed, 0);
        assert!(r.reads.sent > 0);
        assert!(Instant::now() >= deadline || r.acked as usize + 16 > log.len());
    }
}
