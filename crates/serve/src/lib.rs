//! Trust-serving daemon: lock-free snapshot reads over a durable
//! single-writer ingest path.
//!
//! The batch pipeline answers "what does the community's derived web of
//! trust look like *now*" — this crate keeps answering it while the
//! community keeps growing. One writer thread owns a [`ShardEngine`] —
//! the incremental model plus the WAL — and every mutation follows the
//! engine's durability ordering
//!
//! ```text
//! check (read-only admission) → WAL append → apply → publish → ack
//! ```
//!
//! so an acknowledged event is in the log before it is in the model, and
//! nothing that fails validation ever reaches the log (a poisoned log
//! would make recovery replay fail). The `wot-shardd` worker runs the
//! same engine behind its pipe, and both recover by reopening their log
//! ([`ShardEngine::open`]). After each ingest batch the writer
//! re-derives only the categories the batch dirtied
//! ([`wot_core::IncrementalDerived::to_derived_cached`]) and publishes
//! the result as an immutable [`ServeSnapshot`] behind a
//! [`SnapshotCell`] — an atomic version counter plus an `Arc` swap.
//!
//! Readers never block the writer and never see torn state: each request
//! is answered wholly from one `Arc`'d snapshot, and a reader's
//! steady-state cost for snapshot acquisition is a single atomic load
//! ([`ReaderCache`]). Every served number is **bit-identical** (`==` on
//! `f64`) to what the offline batch pipeline derives from the same event
//! prefix — the snapshot's `seq` says exactly which prefix, so the
//! conformance tests can hold the daemon to the oracle.
//!
//! The wire protocol ([`protocol`]) is a length-prefixed binary framing
//! over plain `TcpStream`s — no external dependencies — with typed
//! request/response codecs and per-request error frames. [`Client`] is
//! the blocking typed counterpart.

pub mod client;
pub mod conformance;
pub mod coord;
pub mod engine;
pub mod protocol;
pub mod query;
pub mod server;
pub mod shard_proto;
pub mod snapshot;

pub use client::{Client, ReputationTable};
pub use coord::{Coordinator, CoordinatorOptions};
pub use engine::ShardEngine;
pub use protocol::{
    AggregateSummary, BatchReport, ErrorCode, OkBody, Opcode, Request, Response, ServeStats,
    WireError,
};
pub use query::{TrustIngest, TrustQuery};
pub use server::{ServeOptions, ServeOptionsBuilder, Server, ServerHandle};
pub use snapshot::{ReaderCache, ServeSnapshot, SnapshotCell};

/// Errors surfaced by the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// A socket or file operation failed.
    Io(std::io::Error),
    /// A frame or body failed to encode/decode, or a peer broke framing.
    Protocol(String),
    /// The server answered with a typed error frame.
    Remote(WireError),
    /// A batch ingest stopped at a refused event. The events before
    /// `index` are durable and acked; the one at `index` and every one
    /// after it were not ingested. Resume from `index`, not from the
    /// start of the batch.
    BatchRefused {
        /// The acked sequence horizon, which covers the admitted prefix.
        acked_through: u64,
        /// Position in the batch of the refused event.
        index: usize,
        /// Why it was refused.
        error: WireError,
    },
    /// The durable log refused an operation.
    Wal(wot_wal::WalError),
    /// The derivation core refused an operation.
    Core(wot_core::CoreError),
    /// A cluster configuration was rejected before boot (e.g. a
    /// community shape the wire's `u32` fields cannot represent).
    Config(String),
    /// Launching or pipe-wiring a worker process failed.
    WorkerSpawn(String),
    /// A worker missed the coordinator's I/O deadline
    /// ([`CoordinatorOptions::worker_timeout`]) and has been quarantined;
    /// [`Coordinator::restart_worker`] brings it back.
    WorkerUnresponsive {
        /// Index of the unresponsive worker.
        worker: usize,
        /// The deadline it missed, in milliseconds.
        timeout_ms: u64,
    },
    /// A worker's pipe closed or errored mid-session (crash, kill, torn
    /// write); the worker is quarantined until restarted.
    WorkerGone {
        /// Index of the dead worker.
        worker: usize,
        /// What the transport observed.
        detail: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServeError::Remote(e) => {
                write!(f, "server error ({:?}): {}", e.code, e.message)
            }
            ServeError::BatchRefused {
                acked_through,
                index,
                error,
            } => write!(
                f,
                "batch event {index} refused ({:?}): {}; acked through seq {acked_through}",
                error.code, error.message
            ),
            ServeError::Wal(e) => write!(f, "wal error: {e}"),
            ServeError::Core(e) => write!(f, "core error: {e}"),
            ServeError::Config(m) => write!(f, "configuration rejected: {m}"),
            ServeError::WorkerSpawn(m) => write!(f, "worker spawn failed: {m}"),
            ServeError::WorkerUnresponsive { worker, timeout_ms } => write!(
                f,
                "worker {worker} unresponsive: no reply within {timeout_ms} ms"
            ),
            ServeError::WorkerGone { worker, detail } => {
                write!(f, "worker {worker} gone: {detail}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<wot_wal::WalError> for ServeError {
    fn from(e: wot_wal::WalError) -> Self {
        ServeError::Wal(e)
    }
}

impl From<wot_core::CoreError> for ServeError {
    fn from(e: wot_core::CoreError) -> Self {
        ServeError::Core(e)
    }
}

/// Result alias for the serving layer.
pub type Result<T> = std::result::Result<T, ServeError>;
