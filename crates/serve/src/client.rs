//! Blocking typed client for the serving daemon.
//!
//! One [`Client`] wraps one `TcpStream`; every method sends one request
//! frame and blocks for its response. Served `f64`s arrive bit-identical
//! to the server's snapshot values (the codec ships IEEE-754 bits).
//! Every response carries the snapshot sequence it was answered from —
//! [`last_seq`](Client::last_seq) exposes the most recent one, which is
//! how conformance tests pick the oracle event prefix to compare
//! against.

use std::net::{TcpStream, ToSocketAddrs};

use wot_community::StoreEvent;

use crate::protocol::{
    self, AggregateSummary, BatchReport, FrameRead, OkBody, Opcode, Request, ServeStats,
    MAX_BATCH_EVENTS, MAX_RESPONSE_LEN,
};
use crate::{Result, ServeError};

/// A reputation table: `(user id, reputation)` pairs in ascending id.
pub type ReputationTable = Vec<(u32, f64)>;

/// A well-formed answer to a different question than the one asked.
pub(crate) fn unexpected(got: &OkBody, wanted: &str) -> ServeError {
    ServeError::Protocol(format!("expected a {wanted} response, got {got:?}"))
}

/// A blocking connection to a serving daemon.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    last_seq: u64,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: Vec::new(),
            last_seq: 0,
        })
    }

    /// The snapshot sequence of the most recent response — the number of
    /// ingestion events the answering state covered.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// One round trip: send `req`, read the response, unwrap errors into
    /// [`ServeError::Remote`].
    fn call(&mut self, req: &Request) -> Result<OkBody> {
        self.buf.clear();
        let mut body = std::mem::take(&mut self.buf);
        protocol::encode_request(&mut body, req);
        let sent = protocol::write_frame(&mut self.stream, &body);
        self.buf = body;
        sent?;
        let frame = loop {
            match protocol::read_frame(&mut self.stream, MAX_RESPONSE_LEN)? {
                FrameRead::Frame(f) => break f,
                FrameRead::Idle => continue,
                FrameRead::Closed => {
                    return Err(ServeError::Protocol(
                        "server closed the connection before responding".into(),
                    ))
                }
                FrameRead::TooLarge { len } => {
                    return Err(ServeError::Protocol(format!(
                        "response of {len} bytes exceeds the {MAX_RESPONSE_LEN}-byte cap"
                    )))
                }
            }
        };
        let resp = protocol::decode_response(&frame).map_err(ServeError::Protocol)?;
        self.last_seq = resp.seq;
        resp.body.map_err(ServeError::Remote)
    }

    /// Liveness probe; returns the current snapshot sequence.
    pub fn ping(&mut self) -> Result<u64> {
        match self.call(&Request::Ping)? {
            OkBody::Empty(Opcode::Ping) => Ok(self.last_seq),
            other => Err(unexpected(&other, "ping")),
        }
    }

    /// Eq. 5 point query `T̂_ij`, bit-identical to the offline pipeline
    /// at the response's snapshot sequence.
    pub fn trust(&mut self, i: u32, j: u32) -> Result<f64> {
        match self.call(&Request::Trust { i, j })? {
            OkBody::Trust(v) => Ok(v),
            other => Err(unexpected(&other, "trust")),
        }
    }

    /// `user`'s `k` most-trusted peers (descending trust, ascending id
    /// on ties).
    pub fn top_k(&mut self, user: u32, k: u32) -> Result<Vec<(u32, f64)>> {
        match self.call(&Request::TopK { user, k })? {
            OkBody::TopK(pairs) => Ok(pairs),
            other => Err(unexpected(&other, "top-k")),
        }
    }

    /// `user`'s rater reputation in `category`, or `None` if they never
    /// rated there.
    pub fn rater_reputation(&mut self, category: u32, user: u32) -> Result<Option<f64>> {
        match self.call(&Request::RaterReputation { category, user })? {
            OkBody::RaterReputation(v) => Ok(v),
            other => Err(unexpected(&other, "rater-reputation")),
        }
    }

    /// A category's full rater and writer reputation tables (ascending
    /// user id).
    pub fn category_reputations(
        &mut self,
        category: u32,
    ) -> Result<(ReputationTable, ReputationTable)> {
        match self.call(&Request::CategoryReputations { category })? {
            OkBody::CategoryReputations { raters, writers } => Ok((raters, writers)),
            other => Err(unexpected(&other, "category-reputations")),
        }
    }

    /// The scalar Fig. 3 summary of the full `T̂`.
    pub fn aggregates(&mut self) -> Result<AggregateSummary> {
        match self.call(&Request::Aggregates)? {
            OkBody::Aggregates(a) => Ok(a),
            other => Err(unexpected(&other, "aggregates")),
        }
    }

    /// Durably ingests one event. On success the returned sequence is
    /// the snapshot covering the event — the server acks only after
    /// publication, so an immediately following read sees this write.
    pub fn ingest(&mut self, event: StoreEvent) -> Result<u64> {
        match self.call(&Request::Ingest(event))? {
            OkBody::Empty(Opcode::Ingest) => Ok(self.last_seq),
            other => Err(unexpected(&other, "ingest")),
        }
    }

    /// Durably ingests `events` in order, in `IngestBatch` frames of up
    /// to [`MAX_BATCH_EVENTS`], each admitted and published as one run.
    /// On success the returned sequence covers the whole slice; an empty
    /// slice acks the daemon's current seq.
    ///
    /// A refused event ends the call with [`ServeError::BatchRefused`]:
    /// the events before its `index` are durable and acked at
    /// `acked_through`, and no later frame is sent.
    pub fn ingest_batch(&mut self, events: &[StoreEvent]) -> Result<u64> {
        let mut done = 0;
        loop {
            let run = &events[done..(done + MAX_BATCH_EVENTS).min(events.len())];
            let report = match self.call(&Request::IngestBatch(run.to_vec()))? {
                OkBody::IngestBatch(report) => report,
                other => return Err(unexpected(&other, "ingest-batch")),
            };
            match report {
                BatchReport {
                    admitted,
                    refused: Some(error),
                } => {
                    return Err(ServeError::BatchRefused {
                        acked_through: self.last_seq,
                        index: done + admitted as usize,
                        error,
                    })
                }
                BatchReport { admitted, .. } if admitted as usize != run.len() => {
                    return Err(ServeError::Protocol(format!(
                        "a batch of {} events reported {admitted} admitted and no refusal",
                        run.len()
                    )))
                }
                _ => {}
            }
            done += run.len();
            if done == events.len() {
                return Ok(self.last_seq);
            }
        }
    }

    /// Server counters.
    pub fn stats(&mut self) -> Result<ServeStats> {
        match self.call(&Request::Stats)? {
            OkBody::Stats(s) => Ok(s),
            other => Err(unexpected(&other, "stats")),
        }
    }

    /// Asks the server to shut down gracefully (it acks, flushes its WAL
    /// tail, and stops accepting work).
    pub fn shutdown_server(&mut self) -> Result<()> {
        match self.call(&Request::Shutdown)? {
            OkBody::Empty(Opcode::Shutdown) => Ok(()),
            other => Err(unexpected(&other, "shutdown")),
        }
    }
}
