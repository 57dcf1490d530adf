//! The daemon: one writer thread owning model + WAL, a reader pool
//! serving snapshot queries, and a plain-`TcpListener` accept loop.
//!
//! ## Threads
//!
//! * **Accept loop** — non-blocking accept; hands each connection to the
//!   worker pool's queue.
//! * **Reader workers** — `wot_par`-sized pool; each worker serves one
//!   connection at a time, request-by-request, wholly from the current
//!   published snapshot ([`ReaderCache`]: one atomic load per request in
//!   steady state). A connection occupies its worker until it closes, so
//!   size `reader_threads` to the expected concurrent connections.
//! * **Writer** — the only thread that touches the model or the WAL,
//!   both owned by a [`ShardEngine`]. Drains ingest commands in small
//!   batches; a command is one event (`Ingest`) or a client's whole run
//!   (`IngestBatch`), admitted in order up to its first refusal; per
//!   event the engine runs `check → WAL append → apply`; per batch of
//!   commands — one writer round — the writer makes every admitted
//!   event durable with one [`commit`](ShardEngine::commit) (one fsync
//!   under `FsyncPolicy::Always`, for every client's commands in the
//!   batch), re-derives the dirtied categories ([`to_derived_cached`]),
//!   publishes the new snapshot once, and only then acks — so a client
//!   that saw its ingest acknowledged will read its own write, and
//!   nothing is visible before it is durable. Idle ticks run the
//!   engine's [`sync_if_due`](ShardEngine::sync_if_due) so a quiet tail
//!   still becomes durable within the fsync policy's window; shutdown
//!   ends with a [`sync`](ShardEngine::sync). A WAL error is
//!   **fail-stop** for ingest (the engine's latch): a failed append
//!   answers its command `Internal`, a failed commit answers every
//!   command of its round `Internal` at the pre-round seq and publishes
//!   nothing, every later ingest is refused `Internal` without touching
//!   log or model, and readers keep serving the last published snapshot
//!   until the operator restarts on the log.
//!
//! There is no separate "refresh stale categories" step in the hot loop:
//! `to_derived_cached` *is* that refresh — it cold-solves exactly the
//! categories whose data version moved and reuses every clean one, and
//! its output is bit-identical to a from-scratch `to_derived()`. With
//! [`ServeOptions::delta_publish`] the writer instead publishes the warm
//! solver state through
//! [`refresh_and_derive_warm`](wot_core::IncrementalDerived::refresh_and_derive_warm),
//! so a model configured with `delta_refresh` advances each publish by
//! the per-event worklist (within the fixed point's tolerance of the
//! canonical snapshot) instead of cold-solving dirtied categories.
//!
//! [`to_derived_cached`]: wot_core::IncrementalDerived::to_derived_cached

use std::collections::VecDeque;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use wot_community::StoreEvent;
use wot_core::IncrementalDerived;
use wot_wal::{FsyncPolicy, LogKind};

use crate::engine::{Refusal, ShardEngine};
use crate::protocol::{
    self, BatchReport, ErrorCode, FrameRead, OkBody, Opcode, Request, ServeStats, WireError,
    MAX_REQUEST_LEN,
};
use crate::snapshot::{ReaderCache, ServeSnapshot, SnapshotCell};
use crate::{Result, ServeError};

/// How a [`Server`] is wired up.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address; `"127.0.0.1:0"` picks a free port (read it back
    /// from [`ServerHandle::addr`]).
    pub addr: String,
    /// Reader worker threads; `0` resolves to the hardware parallelism
    /// via [`wot_par::resolve_threads`]. An open connection occupies one
    /// worker until it closes, so size the pool to at least the expected
    /// number of *concurrent clients* — on a small host the auto-sized
    /// pool can be 1, which serves exactly one connection at a time.
    pub reader_threads: usize,
    /// The server's WAL file: created on start when absent, otherwise
    /// recovered — [`Server::start`] replays it onto the bootstrap model,
    /// so a restart is a start on the same path with the same bootstrap
    /// model. The log holds only the events ingested after that model.
    pub wal_path: PathBuf,
    /// Durability policy for ingest appends. Under
    /// [`FsyncPolicy::Always`] an ack means the event is durable: the
    /// writer covers each round — every command it drained in one batch —
    /// with one fsync before it publishes or acks. `EveryN` and `EveryMs`
    /// ack before the sync and bound what a power loss can drop.
    pub fsync: FsyncPolicy,
    /// Publish snapshots from the writer's *warm* solver state via
    /// [`refresh_and_derive_warm`] instead of the canonical cold
    /// re-solve. With [`DeriveConfig::delta_refresh`] set on the model,
    /// each publish then runs the per-event worklist rather than a full
    /// category sweep — served values are within the fixed point's
    /// tolerance of the canonical snapshot rather than bit-identical to
    /// it.
    ///
    /// [`refresh_and_derive_warm`]: wot_core::IncrementalDerived::refresh_and_derive_warm
    /// [`DeriveConfig::delta_refresh`]: wot_core::DeriveConfig::delta_refresh
    pub delta_publish: bool,
}

impl ServeOptions {
    /// Loopback on a free port, given WAL path, `EveryMs(50)` fsync,
    /// auto-sized reader pool.
    pub fn local(wal_path: impl Into<PathBuf>) -> Self {
        ServeOptions::builder(wal_path)
            .build()
            .expect("local defaults validate")
    }

    /// Starts a validating [`ServeOptionsBuilder`] over the local
    /// defaults. Prefer this over struct-literal construction: the
    /// builder rejects nonsense (empty bind address, zero-interval
    /// fsync policies) at build time instead of at bind/append time.
    pub fn builder(wal_path: impl Into<PathBuf>) -> ServeOptionsBuilder {
        ServeOptionsBuilder {
            addr: "127.0.0.1:0".into(),
            reader_threads: 0,
            wal_path: wal_path.into(),
            fsync: FsyncPolicy::EveryMs(50),
            delta_publish: false,
        }
    }
}

/// Validating builder for [`ServeOptions`] — the supported construction
/// path (struct literals remain possible for the fields are public, but
/// skip validation).
#[derive(Debug, Clone)]
pub struct ServeOptionsBuilder {
    addr: String,
    reader_threads: usize,
    wal_path: PathBuf,
    fsync: FsyncPolicy,
    delta_publish: bool,
}

impl ServeOptionsBuilder {
    /// Bind address (`"host:port"`; port `0` picks a free port).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Reader pool size; `0` auto-sizes to the hardware parallelism.
    pub fn reader_threads(mut self, n: usize) -> Self {
        self.reader_threads = n;
        self
    }

    /// Durability policy for ingest appends.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Publish from the warm delta solver instead of the canonical cold
    /// re-solve (within-tolerance snapshots; see [`ServeOptions`]).
    pub fn delta_publish(mut self, on: bool) -> Self {
        self.delta_publish = on;
        self
    }

    /// Validates and produces the options.
    pub fn build(self) -> Result<ServeOptions> {
        if self.addr.is_empty() {
            return Err(ServeError::Config("bind address must not be empty".into()));
        }
        if self.wal_path.as_os_str().is_empty() {
            return Err(ServeError::Config("WAL path must not be empty".into()));
        }
        match self.fsync {
            FsyncPolicy::EveryN(0) => {
                return Err(ServeError::Config(
                    "FsyncPolicy::EveryN(0) is ambiguous; use Always".into(),
                ))
            }
            FsyncPolicy::EveryMs(0) => {
                return Err(ServeError::Config(
                    "FsyncPolicy::EveryMs(0) is ambiguous; use Always".into(),
                ))
            }
            _ => {}
        }
        Ok(ServeOptions {
            addr: self.addr,
            reader_threads: self.reader_threads,
            wal_path: self.wal_path,
            fsync: self.fsync,
            delta_publish: self.delta_publish,
        })
    }
}

/// Largest number of ingest commands the writer folds into one
/// derive-and-publish cycle. Batching amortizes the per-publish derive
/// without letting a firehose starve snapshot freshness.
const WRITER_BATCH: usize = 256;

/// Writer-loop idle tick: bounds both shutdown latency and the idle
/// fsync check interval.
const WRITER_TICK: Duration = Duration::from_millis(5);

/// Per-connection read timeout — how often an idle reader re-checks the
/// shutdown flag.
const READ_TICK: Duration = Duration::from_millis(50);

/// Commands crossing from reader workers to the writer thread.
enum WriteCmd {
    /// Ingest a run of events in order, stopping at the first refusal;
    /// `reply` receives the outcome after publication.
    Ingest {
        events: Vec<StoreEvent>,
        reply: SyncSender<Ingested>,
    },
    /// Wake the writer so it notices the shutdown flag.
    Wake,
}

/// How far one ingest command got.
struct Ingested {
    /// The published seq, which covers the admitted events.
    seq: u64,
    /// Events admitted, from the front of the run.
    admitted: usize,
    /// Why the event at `admitted` was refused, if one was.
    refused: Option<Refusal>,
}

/// State shared by every thread of one server.
struct Shared {
    cell: SnapshotCell,
    shutdown: AtomicBool,
    wal_len: AtomicU64,
    /// Connections waiting for a worker.
    pending: Mutex<VecDeque<TcpStream>>,
    available: Condvar,
    reader_threads: usize,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }
}

/// Constructor namespace for the daemon (the running instance lives in
/// [`ServerHandle`]).
pub struct Server;

impl Server {
    /// Boots a server over a bootstrap model.
    ///
    /// `model` holds `base_seq` events of history already (0 for an
    /// empty community). When `opts.wal_path` holds a log, the server
    /// recovers it: the torn tail a crash may have left is truncated, the
    /// log's `n` events are replayed onto `model` through the same
    /// admission check ingest runs, and served seqs continue from
    /// `base_seq + n`. A log that does not fit — the wrong
    /// [`LogKind`], a CRC-corrupt frame ([`ServeError::Wal`]), or an
    /// event the model refuses ([`ServeError::Config`]) — is refused and
    /// left byte-identical. The first snapshot is derived and published
    /// before `start` returns, so the server never serves an empty
    /// placeholder.
    pub fn start(
        model: IncrementalDerived,
        base_seq: u64,
        opts: &ServeOptions,
    ) -> Result<ServerHandle> {
        // Bind first: a start that fails on the address leaves no file.
        let listener = TcpListener::bind(&opts.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let path = &opts.wal_path;
        let (mut engine, replayed) =
            ShardEngine::open(path, LogKind::Events, opts.fsync, model, |model, log| {
                for (k, (_, event)) in log.iter().enumerate() {
                    ShardEngine::fold(model, event).map_err(|reason| {
                        ServeError::Config(format!(
                            "WAL {} does not fit the bootstrap model at event {k}: {reason}",
                            path.display()
                        ))
                    })?;
                }
                Ok(log.len() as u64)
            })?;
        let seq = base_seq + replayed;
        let delta_publish = opts.delta_publish;
        let first = ServeSnapshot::new(seq, engine.derive(delta_publish));
        let reader_threads = wot_par::resolve_threads(opts.reader_threads).max(1);
        let shared = Arc::new(Shared {
            cell: SnapshotCell::new(Arc::new(first)),
            shutdown: AtomicBool::new(false),
            wal_len: AtomicU64::new(engine.wal_len()),
            pending: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            reader_threads,
        });

        let (write_tx, write_rx) = mpsc::channel::<WriteCmd>();

        let writer_join = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("wot-serve-writer".into())
                .spawn(move || writer_loop(engine, seq, delta_publish, write_rx, &shared))
                .map_err(ServeError::Io)?
        };

        let mut workers = Vec::with_capacity(reader_threads);
        for w in 0..reader_threads {
            let shared = Arc::clone(&shared);
            let write_tx = write_tx.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("wot-serve-reader-{w}"))
                    .spawn(move || worker_loop(&shared, &write_tx))
                    .map_err(ServeError::Io)?,
            );
        }

        let accept_join = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("wot-serve-accept".into())
                .spawn(move || accept_loop(listener, &shared))
                .map_err(ServeError::Io)?
        };

        Ok(ServerHandle {
            addr,
            shared,
            write_tx,
            accept_join: Some(accept_join),
            writer_join: Some(writer_join),
            workers,
        })
    }
}

/// A running server: its bound address plus the join handles needed to
/// stop it. Dropping the handle shuts the server down (best effort);
/// call [`shutdown`](ServerHandle::shutdown) for an error-checked stop.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    write_tx: Sender<WriteCmd>,
    accept_join: Option<JoinHandle<()>>,
    writer_join: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals shutdown and joins every thread. The writer flushes the
    /// WAL tail before exiting, so everything acknowledged is durable
    /// when this returns.
    pub fn shutdown(mut self) -> Result<()> {
        self.stop();
        Ok(())
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Wake everyone who might be blocked: the writer on its channel,
        // workers on the condvar. (The accept loop polls the flag.)
        let _ = self.write_tx.send(WriteCmd::Wake);
        self.shared.available.notify_all();
        if let Some(j) = self.accept_join.take() {
            let _ = j.join();
        }
        for j in self.workers.drain(..) {
            let _ = j.join();
        }
        if let Some(j) = self.writer_join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------
// Writer thread
// ---------------------------------------------------------------------

fn writer_loop(
    mut engine: ShardEngine,
    mut seq: u64,
    delta_publish: bool,
    rx: Receiver<WriteCmd>,
    shared: &Shared,
) {
    loop {
        let first = match rx.recv_timeout(WRITER_TICK) {
            Ok(cmd) => Some(cmd),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let Some(first) = first else {
            // Idle tick: make a quiet WAL tail durable within the fsync
            // policy's own window (the idle-flush path).
            engine.sync_if_due();
            if shared.shutting_down() {
                break;
            }
            continue;
        };
        let mut batch = vec![first];
        while batch.len() < WRITER_BATCH {
            match rx.try_recv() {
                Ok(cmd) => batch.push(cmd),
                Err(_) => break,
            }
        }
        round(&mut engine, &mut seq, delta_publish, batch, shared);
        if shared.shutting_down() {
            break;
        }
    }
    // Graceful exit: whatever the policy left unsynced becomes durable.
    let _ = engine.sync();
}

/// One writer round over a drained batch of commands: every command's
/// events admitted in order, one commit for all of them, one publish,
/// then every reply.
fn round(
    engine: &mut ShardEngine,
    seq: &mut u64,
    delta_publish: bool,
    batch: Vec<WriteCmd>,
    shared: &Shared,
) {
    let before = *seq;
    let mut replies = Vec::new();
    for cmd in batch {
        let WriteCmd::Ingest { events, reply } = cmd else {
            continue;
        };
        let mut admitted = 0;
        let mut refused = None;
        for event in events {
            if shared.shutting_down() {
                refused = Some((ErrorCode::ShuttingDown, "server is shutting down".into()));
                break;
            }
            match engine.admit(*seq, event) {
                Ok(_) => {
                    *seq += 1;
                    admitted += 1;
                }
                Err(refusal) => {
                    refused = Some(refusal);
                    break;
                }
            }
        }
        replies.push((reply, admitted, refused));
    }
    // Durable before visible: one commit covers every event the round
    // appended. A failed commit is fail-stop — the engine has latched,
    // and the round's events may be in the log without being durable —
    // so none of them is published or acked: every command of the round
    // is answered `Internal` at the pre-round seq.
    let mut failed = None;
    let mut retired = None;
    if *seq > before {
        match engine.commit() {
            Err(e) => {
                *seq = before;
                failed = Some(format!(
                    "the WAL sync after this round's appends failed, so the log may \
                     hold their events without them being durable; ingest is \
                     stopped: {e}"
                ));
            }
            // Re-derive only the categories these commands dirtied,
            // publish once, then answer: an acknowledged writer
            // immediately reads its own write from the new snapshot, and
            // a refusal reports the horizon its admitted prefix reached.
            // Delta mode serves the warm solver state instead of
            // re-solving cold.
            Ok(()) => {
                let snap = ServeSnapshot::new(*seq, engine.derive(delta_publish));
                shared.wal_len.store(engine.wal_len(), Ordering::Relaxed);
                retired = Some(shared.cell.publish(Arc::new(snap)));
            }
        }
    }
    for (reply, admitted, refused) in replies {
        let (admitted, refused) = match &failed {
            Some(why) => (0, Some((ErrorCode::Internal, why.clone()))),
            None => (admitted, refused),
        };
        let _ = reply.send(Ingested {
            seq: *seq,
            admitted,
            refused,
        });
    }
    // The retired snapshot is dropped after the replies, so freeing it
    // (when no reader pins it) delays no ack.
    drop(retired);
}

// ---------------------------------------------------------------------
// Accept loop and reader workers
// ---------------------------------------------------------------------

fn accept_loop(listener: TcpListener, shared: &Shared) {
    while !shared.shutting_down() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let mut pending = shared.pending.lock().expect("pending queue poisoned");
                pending.push_back(stream);
                drop(pending);
                shared.available.notify_one();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn worker_loop(shared: &Shared, write_tx: &Sender<WriteCmd>) {
    let mut reader = ReaderCache::new(&shared.cell);
    loop {
        let stream = {
            let mut pending = shared.pending.lock().expect("pending queue poisoned");
            loop {
                if let Some(s) = pending.pop_front() {
                    break Some(s);
                }
                if shared.shutting_down() {
                    break None;
                }
                let (guard, _) = shared
                    .available
                    .wait_timeout(pending, READ_TICK)
                    .expect("pending queue poisoned");
                pending = guard;
            }
        };
        let Some(stream) = stream else {
            return;
        };
        serve_connection(stream, shared, write_tx, &mut reader);
        if shared.shutting_down() {
            return;
        }
    }
}

/// Serves one connection until it closes, errors, or shutdown.
fn serve_connection(
    mut stream: TcpStream,
    shared: &Shared,
    write_tx: &Sender<WriteCmd>,
    reader: &mut ReaderCache,
) {
    if stream.set_read_timeout(Some(READ_TICK)).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    let mut out = Vec::new();
    loop {
        let body = match protocol::read_frame(&mut stream, MAX_REQUEST_LEN) {
            Ok(FrameRead::Frame(body)) => body,
            Ok(FrameRead::Closed) => return,
            Ok(FrameRead::Idle) => {
                if shared.shutting_down() {
                    return;
                }
                continue;
            }
            Ok(FrameRead::TooLarge { len }) => {
                // The stream is desynced past the prefix; refuse and
                // close rather than guess where the next frame starts.
                out.clear();
                protocol::encode_err(
                    &mut out,
                    reader.current(&shared.cell).seq,
                    Opcode::Ping,
                    ErrorCode::BadRequest,
                    &format!("request of {len} bytes exceeds the {MAX_REQUEST_LEN}-byte cap"),
                );
                let _ = protocol::write_frame(&mut stream, &out);
                let _ = stream.flush();
                return;
            }
            Err(_) => return,
        };
        out.clear();
        let close = handle_request(&body, shared, write_tx, reader, &mut out);
        if protocol::write_frame(&mut stream, &out).is_err() {
            return;
        }
        if close {
            return;
        }
    }
}

/// Decodes and answers one request into `out`; returns whether the
/// connection should close afterwards (shutdown request).
fn handle_request(
    body: &[u8],
    shared: &Shared,
    write_tx: &Sender<WriteCmd>,
    reader: &mut ReaderCache,
    out: &mut Vec<u8>,
) -> bool {
    // One snapshot per request: every bound check and every answer below
    // reads this `Arc`, so a response can never mix two model states.
    let snap = Arc::clone(reader.current(&shared.cell));
    let req = match protocol::decode_request(body) {
        Ok(req) => req,
        Err(e) => {
            protocol::encode_err(out, snap.seq, Opcode::Ping, ErrorCode::BadRequest, &e);
            return false;
        }
    };
    let opcode = req.opcode();
    let refuse = |out: &mut Vec<u8>, code: ErrorCode, msg: String| {
        protocol::encode_err(out, snap.seq, opcode, code, &msg);
    };
    match req {
        Request::Ping
        | Request::Trust { .. }
        | Request::TopK { .. }
        | Request::RaterReputation { .. }
        | Request::CategoryReputations { .. }
        | Request::Aggregates => match snap.answer(&req) {
            Ok(body) => protocol::encode_ok(out, snap.seq, &body),
            Err(e) => refuse(out, e.code, e.message),
        },
        Request::Ingest(event) => match submit(vec![event], snap.seq, shared, write_tx) {
            Ingested {
                seq,
                refused: Some((code, msg)),
                ..
            } => protocol::encode_err(out, seq, opcode, code, &msg),
            Ingested { seq, .. } => protocol::encode_ok(out, seq, &OkBody::Empty(Opcode::Ingest)),
        },
        Request::IngestBatch(events) => {
            let done = if events.is_empty() {
                Ingested {
                    seq: snap.seq,
                    admitted: 0,
                    refused: None,
                }
            } else {
                submit(events, snap.seq, shared, write_tx)
            };
            let report = BatchReport {
                admitted: done.admitted as u32,
                refused: done
                    .refused
                    .map(|(code, message)| WireError { code, message }),
            };
            protocol::encode_ok(out, done.seq, &OkBody::IngestBatch(report));
        }
        Request::Stats => {
            let stats = ServeStats {
                publishes: shared.cell.version(),
                wal_len: shared.wal_len.load(Ordering::Relaxed),
                reader_threads: shared.reader_threads as u32,
                ..snap.stats()
            };
            protocol::encode_ok(out, snap.seq, &OkBody::Stats(stats));
        }
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::Release);
            let _ = write_tx.send(WriteCmd::Wake);
            shared.available.notify_all();
            protocol::encode_ok(out, snap.seq, &OkBody::Empty(Opcode::Shutdown));
            return true;
        }
    }
    false
}

/// Hands `events` to the writer as one command and waits for its
/// outcome. Refused up front, at `seq`, when the server is stopping.
fn submit(
    events: Vec<StoreEvent>,
    seq: u64,
    shared: &Shared,
    write_tx: &Sender<WriteCmd>,
) -> Ingested {
    let stopped = |why: &str| Ingested {
        seq,
        admitted: 0,
        refused: Some((ErrorCode::ShuttingDown, why.into())),
    };
    if shared.shutting_down() {
        return stopped("server is shutting down");
    }
    let (reply, done) = mpsc::sync_channel(1);
    if write_tx.send(WriteCmd::Ingest { events, reply }).is_err() {
        return stopped("writer has stopped");
    }
    done.recv()
        .unwrap_or_else(|_| stopped("writer has stopped"))
}

#[cfg(test)]
mod tests {
    use wot_community::{CategoryId, ReviewId, UserId};
    use wot_core::DeriveConfig;

    use super::*;
    use crate::protocol::Response;

    fn ask(
        req: &Request,
        shared: &Shared,
        tx: &Sender<WriteCmd>,
        reader: &mut ReaderCache,
    ) -> Response {
        let (mut body, mut out) = (Vec::new(), Vec::new());
        protocol::encode_request(&mut body, req);
        handle_request(&body, shared, tx, reader, &mut out);
        protocol::decode_response(&out).expect("server frames decode")
    }

    /// A WAL that refuses every append must stop ingest for good: the
    /// second refusal comes from the engine's latch, not from another
    /// attempt on the log.
    #[test]
    fn wal_error_fail_stops_ingest_and_keeps_reads_serving() {
        let path =
            std::env::temp_dir().join(format!("wot-serve-failstop-{}.wal", std::process::id()));
        let model = IncrementalDerived::new(4, 1, &DeriveConfig::default()).unwrap();
        let mut engine = crate::engine::failing_engine(&path, model);
        let header_len = engine.wal_len();
        let first = ServeSnapshot::new(7, engine.derive(false));
        let shared = Shared {
            cell: SnapshotCell::new(Arc::new(first)),
            shutdown: AtomicBool::new(false),
            wal_len: AtomicU64::new(header_len),
            pending: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            reader_threads: 1,
        };
        let (tx, rx) = mpsc::channel();
        let ingest = Request::Ingest(StoreEvent::Review {
            writer: UserId(0),
            review: ReviewId(0),
            category: CategoryId(0),
        });

        std::thread::scope(|s| {
            s.spawn(|| writer_loop(engine, 7, false, rx, &shared));
            let mut reader = ReaderCache::new(&shared.cell);

            let refused = ask(&ingest, &shared, &tx, &mut reader).body.unwrap_err();
            assert_eq!(refused.code, ErrorCode::Internal);
            assert!(!refused.message.contains("ingest stopped"), "{refused:?}");

            let latched = ask(&ingest, &shared, &tx, &mut reader).body.unwrap_err();
            assert_eq!(latched.code, ErrorCode::Internal);
            assert!(latched.message.contains("ingest stopped"), "{latched:?}");
            assert!(latched.message.contains(&refused.message), "{latched:?}");
            assert_eq!(std::fs::metadata(&path).unwrap().len(), header_len);
            assert_eq!(shared.cell.load().seq, 7);

            let trust = ask(&Request::Trust { i: 0, j: 1 }, &shared, &tx, &mut reader);
            assert_eq!((trust.seq, trust.body), (7, Ok(OkBody::Trust(0.0))));
            drop(tx);
        });
        let _ = std::fs::remove_file(&path);
    }

    fn temp_wal(name: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("wot-serve-{name}-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// An engine over a fresh log at `path`: four users, one category.
    fn open_engine(path: &std::path::Path, policy: FsyncPolicy) -> ShardEngine {
        let model = IncrementalDerived::new(4, 1, &DeriveConfig::default()).unwrap();
        ShardEngine::open(path, LogKind::Events, policy, model, |_, _| Ok(()))
            .unwrap()
            .0
    }

    /// The writer's shared state, serving `first`.
    fn shared_serving(first: ServeSnapshot) -> Shared {
        Shared {
            cell: SnapshotCell::new(Arc::new(first)),
            shutdown: AtomicBool::new(false),
            wal_len: AtomicU64::new(0),
            pending: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            reader_threads: 1,
        }
    }

    /// Reviews `ids` in category 0, written round-robin by four users.
    fn reviews(ids: std::ops::Range<u32>) -> Vec<StoreEvent> {
        ids.map(|r| StoreEvent::Review {
            writer: UserId(r % 4),
            review: ReviewId(r),
            category: CategoryId(0),
        })
        .collect()
    }

    /// An ingest command and the receiver its outcome arrives on.
    fn command(events: Vec<StoreEvent>) -> (WriteCmd, Receiver<Ingested>) {
        let (reply, done) = mpsc::sync_channel(1);
        (WriteCmd::Ingest { events, reply }, done)
    }

    /// Runs one writer round over `commands`; returns each command's
    /// outcome as `(seq, admitted, refusal code)` and the syncs it cost.
    fn run_round(
        engine: &mut ShardEngine,
        seq: &mut u64,
        shared: &Shared,
        commands: Vec<Vec<StoreEvent>>,
    ) -> (Vec<(u64, usize, Option<ErrorCode>)>, u64) {
        let syncs = engine.syncs();
        let (batch, done): (Vec<_>, Vec<_>) = commands.into_iter().map(command).unzip();
        round(engine, seq, false, batch, shared);
        let outcomes = done
            .iter()
            .map(|rx| {
                let d = rx.recv().unwrap();
                (d.seq, d.admitted, d.refused.map(|(code, _)| code))
            })
            .collect();
        (outcomes, engine.syncs() - syncs)
    }

    /// Under `Always` a writer round costs one sync, however many events
    /// and commands it admitted: a 64-event batch, a single event, and
    /// three clients' commands drained together each cost exactly one,
    /// and a round that admitted nothing costs none. Inside an `EveryN`
    /// window the same rounds cost none, and are published and acked all
    /// the same.
    #[test]
    fn a_writer_round_syncs_once_under_always_and_not_inside_an_every_n_window() {
        for (policy, per_round) in [(FsyncPolicy::Always, 1), (FsyncPolicy::EveryN(1000), 0)] {
            let path = temp_wal("round-syncs");
            let mut engine = open_engine(&path, policy);
            let shared = shared_serving(ServeSnapshot::new(0, engine.derive(false)));
            let mut seq = 0;
            let mut round_of = |commands| run_round(&mut engine, &mut seq, &shared, commands);

            let (done, syncs) = round_of(vec![reviews(0..64)]);
            assert_eq!((done, syncs), (vec![(64, 64, None)], per_round));
            let (done, syncs) = round_of(vec![reviews(64..65)]);
            assert_eq!((done, syncs), (vec![(65, 1, None)], per_round));
            let (done, syncs) = round_of(vec![reviews(65..66), reviews(66..76), reviews(76..77)]);
            let acks = vec![(77, 1, None), (77, 10, None), (77, 1, None)];
            assert_eq!((done, syncs), (acks, per_round));
            // A review id out of arrival order is refused: nothing to commit.
            let (done, syncs) = round_of(vec![reviews(90..91)]);
            assert_eq!((done, syncs), (vec![(77, 0, Some(ErrorCode::Rejected))], 0));

            assert_eq!(shared.cell.load().seq, 77, "{policy:?}");
            assert_eq!(wot_wal::read_log(&path).unwrap().events, reviews(0..77));
            let _ = std::fs::remove_file(&path);
        }
    }

    /// At every ack of a daemon under `Always`, its log holds exactly the
    /// acked prefix: single events, batches, and a batch cut short by a
    /// refusal, whose admitted prefix is logged and nothing after it.
    #[test]
    fn at_every_ack_the_log_holds_exactly_the_acked_prefix() {
        let path = temp_wal("acked-prefix");
        let opts = ServeOptions::builder(&path)
            .fsync(FsyncPolicy::Always)
            .build()
            .unwrap();
        let model = IncrementalDerived::new(4, 1, &DeriveConfig::default()).unwrap();
        let server = Server::start(model, 0, &opts).unwrap();
        let mut client = crate::Client::connect(server.addr()).unwrap();
        let logged = || wot_wal::read_log(&path).unwrap().events;

        assert_eq!(client.ingest(reviews(0..1)[0]).unwrap(), 1);
        assert_eq!(logged(), reviews(0..1));
        assert_eq!(client.ingest_batch(&reviews(1..65)).unwrap(), 65);
        assert_eq!(logged(), reviews(0..65));
        assert_eq!(client.ingest(reviews(65..66)[0]).unwrap(), 66);
        assert_eq!(logged(), reviews(0..66));
        let mut cut_short = reviews(66..70);
        cut_short.extend(reviews(80..81));
        match client.ingest_batch(&cut_short) {
            Err(ServeError::BatchRefused {
                acked_through: 70,
                index: 4,
                error,
            }) => assert_eq!(error.code, ErrorCode::Rejected),
            other => panic!("expected a refusal at index 4, got {other:?}"),
        }
        assert_eq!(logged(), reviews(0..70));
        drop(client);
        server.shutdown().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    /// A commit whose sync fails is fail-stop for the whole round: every
    /// command is answered `Internal` at the pre-round seq, with a message
    /// that does not claim the events stayed out of the log (they are in
    /// it, unsynced); nothing is published; every later ingest is refused
    /// by the latch; reads keep serving the last published snapshot.
    #[test]
    fn a_failed_commit_fail_stops_the_round_and_keeps_reads_serving() {
        let path = temp_wal("failed-commit");
        let mut engine = open_engine(&path, FsyncPolicy::Always);
        let shared = shared_serving(ServeSnapshot::new(7, engine.derive(false)));
        let published = shared.cell.version();
        let mut seq = 7;
        engine.fail_syncs();

        let (batch, done): (Vec<_>, Vec<_>) = [reviews(0..2), reviews(2..3)]
            .into_iter()
            .map(command)
            .unzip();
        round(&mut engine, &mut seq, false, batch, &shared);
        for rx in &done {
            let Ingested {
                seq,
                admitted,
                refused,
            } = rx.recv().unwrap();
            let (code, message) = refused.expect("a failed commit acks nothing");
            assert_eq!((seq, admitted, code), (7, 0, ErrorCode::Internal));
            assert!(message.contains("may hold"), "{message}");
            assert!(message.contains("os error 22"), "{message}");
        }
        assert_eq!(seq, 7, "the writer's seq is back at the pre-round value");
        assert_eq!(shared.cell.version(), published, "nothing was published");
        assert_eq!(shared.cell.load().seq, 7);
        assert_eq!(
            wot_wal::read_log(&path).unwrap().events,
            reviews(0..3),
            "the round's events are in the log, unsynced"
        );

        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| writer_loop(engine, seq, false, rx, &shared));
            let mut reader = ReaderCache::new(&shared.cell);
            let next = Request::Ingest(reviews(3..4)[0]);
            let latched = ask(&next, &shared, &tx, &mut reader);
            let error = latched.body.unwrap_err();
            assert_eq!((latched.seq, error.code), (7, ErrorCode::Internal));
            assert!(error.message.contains("ingest stopped"), "{error:?}");
            assert!(error.message.contains("os error 22"), "{error:?}");
            let batch = Request::IngestBatch(reviews(3..5));
            let report = ask(&batch, &shared, &tx, &mut reader);
            match report.body {
                Ok(OkBody::IngestBatch(BatchReport {
                    admitted: 0,
                    refused: Some(error),
                })) => assert_eq!(error.code, ErrorCode::Internal),
                other => panic!("a latched batch must be refused whole, got {other:?}"),
            }
            assert_eq!(report.seq, 7);

            let trust = ask(&Request::Trust { i: 0, j: 1 }, &shared, &tx, &mut reader);
            assert_eq!((trust.seq, trust.body), (7, Ok(OkBody::Trust(0.0))));
            drop(tx);
        });
        assert_eq!(shared.cell.version(), published);
        assert_eq!(wot_wal::read_log(&path).unwrap().events, reviews(0..3));
        let _ = std::fs::remove_file(&path);
    }

    /// A log the bootstrap model cannot take — here a restart handed the
    /// model that already holds the log's events — is refused, byte for
    /// byte intact, rather than replayed into a wrong history.
    #[test]
    fn start_refuses_an_existing_log_and_leaves_it_intact() {
        let path =
            std::env::temp_dir().join(format!("wot-serve-existing-{}.wal", std::process::id()));
        let mut wal =
            wot_wal::WalWriter::create(&path, LogKind::Events, FsyncPolicy::Always).unwrap();
        for r in 0..3 {
            wal.append(&StoreEvent::Review {
                writer: UserId(0),
                review: ReviewId(r),
                category: CategoryId(0),
            })
            .unwrap();
        }
        drop(wal);
        let before = std::fs::read(&path).unwrap();
        let mut model = IncrementalDerived::new(4, 1, &DeriveConfig::default()).unwrap();
        for r in 0..3 {
            model
                .add_review(UserId(0), ReviewId(r), CategoryId(0))
                .unwrap();
        }
        match Server::start(model, 3, &ServeOptions::local(&path)) {
            Err(ServeError::Config(m)) => assert!(m.contains(&*path.to_string_lossy()), "{m}"),
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("replayed a log the model already holds"),
        }
        assert_eq!(std::fs::read(&path).unwrap(), before);
        let _ = std::fs::remove_file(&path);
    }

    /// A start that fails on its address leaves nothing behind that would
    /// block the retry on the same WAL path.
    #[test]
    fn a_failed_bind_leaves_the_wal_path_startable() {
        let path =
            std::env::temp_dir().join(format!("wot-serve-rebind-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let taken = TcpListener::bind("127.0.0.1:0").unwrap();
        let opts = ServeOptions::builder(&path)
            .addr(taken.local_addr().unwrap().to_string())
            .build()
            .unwrap();
        let model = IncrementalDerived::new(4, 1, &DeriveConfig::default()).unwrap();
        assert!(Server::start(model.clone(), 3, &opts).is_err());
        let server = Server::start(model, 3, &ServeOptions::local(&path)).unwrap();
        assert_eq!(server.shared.cell.load().seq, 3);
        server.shutdown().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    /// The daemon refuses invalid reads with the codes every other
    /// backend is held to.
    #[test]
    fn a_client_refuses_invalid_reads_like_every_backend() {
        let path =
            std::env::temp_dir().join(format!("wot-serve-refusals-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let model = IncrementalDerived::new(4, 1, &DeriveConfig::default()).unwrap();
        let server = Server::start(model, 0, &ServeOptions::local(&path)).unwrap();
        let mut client = crate::Client::connect(server.addr()).unwrap();
        crate::conformance::assert_refuses_invalid_reads(&mut client, 4, 1);
        drop(client);
        server.shutdown().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    /// A slice longer than one frame travels in frames of
    /// `MAX_BATCH_EVENTS`, each admitted as one run and published once.
    #[test]
    fn a_long_batch_travels_in_frames_and_publishes_once_per_frame() {
        let path =
            std::env::temp_dir().join(format!("wot-serve-frames-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let model = IncrementalDerived::new(4, 1, &DeriveConfig::default()).unwrap();
        let server = Server::start(model, 0, &ServeOptions::local(&path)).unwrap();
        let mut client = crate::Client::connect(server.addr()).unwrap();
        let n = 2 * protocol::MAX_BATCH_EVENTS + 1;
        let events: Vec<StoreEvent> = (0..n as u32)
            .map(|r| StoreEvent::Review {
                writer: UserId(r % 4),
                review: ReviewId(r),
                category: CategoryId(0),
            })
            .collect();
        let published = client.stats().unwrap().publishes;
        assert_eq!(client.ingest_batch(&events).unwrap(), n as u64);
        let stats = client.stats().unwrap();
        assert_eq!((stats.events, stats.publishes - published), (n as u64, 3));
        drop(client);
        server.shutdown().unwrap();
        assert_eq!(wot_wal::read_log(&path).unwrap().events, events);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn builder_reports_invalid_options_as_config_errors() {
        let bad = [
            ServeOptions::builder("x.wal").addr(""),
            ServeOptions::builder(""),
            ServeOptions::builder("x.wal").fsync(FsyncPolicy::EveryN(0)),
            ServeOptions::builder("x.wal").fsync(FsyncPolicy::EveryMs(0)),
        ];
        for b in bad {
            let err = b.clone().build().unwrap_err();
            assert!(matches!(err, ServeError::Config(_)), "{b:?}: {err:?}");
        }
        assert!(ServeOptions::builder("x.wal").build().is_ok());
    }
}
