//! The two deployments behind one handle: boot, restart, disk use,
//! teardown. Everything the load generator does with a backend goes
//! through `TrustIngest + TrustQuery`; this module is only the part that
//! is inherently different — how each one comes up and goes down.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use wot_core::{IncrementalDerived, ReplayEvent};
use wot_serve::{
    Client, Coordinator, CoordinatorOptions, ServeOptions, Server, ServerHandle, TrustIngest,
    TrustQuery,
};
use wot_wal::FsyncPolicy;

use crate::spans::Recorder;
use crate::workload::{Deploy, Inputs, Workload};
use crate::Res;

/// Events per `ingest_batch` while bootstrapping the cluster.
const BOOT_BATCH: usize = 512;
const WORKERS: usize = 2;

/// Where a run may write, and what it needs from outside the package.
pub struct Env {
    /// This process's private directory; removed when the run ends.
    pub scratch: ScratchDir,
    pub shardd_bin: PathBuf,
    pub threads: usize,
}

/// A directory removed on drop — so also on an error return and on an
/// unwinding panic.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(root: &Path) -> Res<Self> {
        let dir = root.join(format!("wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub struct Flat {
    server: Option<ServerHandle>,
    pub reader: Client,
    pub writer: Client,
    /// The log the measured run appends to; restarts replay it.
    wal: PathBuf,
    opts: ServeOptions,
    /// Events the bootstrap model holds.
    base_seq: u64,
    restarts: usize,
}

pub struct Cluster {
    pub coord: Coordinator,
    wal_dir: PathBuf,
    /// Bytes the bootstrap prefix left in the worker logs.
    boot_wal_bytes: u64,
}

pub enum Live {
    Flat(Box<Flat>),
    Cluster(Box<Cluster>),
}

fn dir_bytes(dir: &Path) -> Res<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

fn start_flat(
    model: IncrementalDerived,
    seq: u64,
    opts: &ServeOptions,
) -> Res<(ServerHandle, Client, Client)> {
    let server = Server::start(model, seq, opts)?;
    let reader = Client::connect(server.addr())?;
    let writer = Client::connect(server.addr())?;
    Ok((server, reader, writer))
}

/// The in-process model over the bootstrap prefix, every category solved.
pub fn bootstrap_model(
    w: &Workload,
    inputs: &Inputs,
    threads: usize,
    rec: &mut Recorder,
) -> Res<IncrementalDerived> {
    let cfg = w.derive_config(threads)?;
    let open = rec.enter("core.incremental.bootstrap", 0);
    let mut model = IncrementalDerived::new(
        inputs.store.num_users(),
        inputs.store.num_categories(),
        &cfg,
    )?;
    for e in &inputs.log[..inputs.prefix] {
        model.apply(&ReplayEvent::from(*e))?;
    }
    model.refresh_all();
    rec.exit(open);
    Ok(model)
}

impl Live {
    /// Brings the workload's backend up over the bootstrap prefix and
    /// answers one read, so the first publish is behind us.
    pub fn boot(
        w: &Workload,
        inputs: &Inputs,
        env: &Env,
        gen: usize,
        rec: &mut Recorder,
    ) -> Res<Live> {
        let dir = env.scratch.path().join(format!("boot-{gen}"));
        std::fs::create_dir_all(&dir)?;
        let (users, categories) = (inputs.store.num_users(), inputs.store.num_categories());
        let prefix = &inputs.log[..inputs.prefix];
        let open;
        let mut live = match w.deploy {
            Deploy::Flat => {
                let model = bootstrap_model(w, inputs, env.threads, rec)?;
                let wal = dir.join("events.wal");
                // Two connections, each pinning one reader worker.
                let opts = ServeOptions::builder(&wal)
                    .reader_threads(2)
                    .fsync(FsyncPolicy::Always)
                    .delta_publish(w.delta)
                    .build()?;
                open = rec.enter("serve.backend.boot", 0);
                let (server, reader, writer) = start_flat(model, prefix.len() as u64, &opts)?;
                Live::Flat(Box::new(Flat {
                    server: Some(server),
                    reader,
                    writer,
                    wal,
                    opts,
                    base_seq: prefix.len() as u64,
                    restarts: 0,
                }))
            }
            Deploy::Cluster => {
                if !env.shardd_bin.is_file() {
                    return Err(format!(
                        "shard worker binary not found at {}: build it with \
                         `cargo build --release -p wot-shardd` and pass its path as --shardd-bin",
                        env.shardd_bin.display()
                    )
                    .into());
                }
                open = rec.enter("serve.backend.boot", 0);
                let mut coord = Coordinator::start(CoordinatorOptions {
                    worker_bin: env.shardd_bin.clone(),
                    wal_dir: dir.clone(),
                    num_workers: WORKERS,
                    num_users: users,
                    num_categories: categories,
                    worker_timeout: Duration::from_secs(60),
                })?;
                for chunk in prefix.chunks(BOOT_BATCH) {
                    coord.ingest_batch(chunk)?;
                }
                let boot_wal_bytes = dir_bytes(&dir)?;
                Live::Cluster(Box::new(Cluster {
                    coord,
                    wal_dir: dir,
                    boot_wal_bytes,
                }))
            }
        };
        // The first read forces the cluster's first `States` gather, so it
        // belongs to the boot on both deployments.
        let (_, seq) = live.first_read()?;
        rec.exit(open);
        if seq != prefix.len() as u64 {
            return Err(format!("backend booted at seq {seq}, not {}", prefix.len()).into());
        }
        Ok(live)
    }

    fn first_read(&mut self) -> Res<(f64, u64)> {
        Ok(match self {
            Live::Flat(f) => TrustQuery::trust(&mut f.reader, 0, 1)?,
            Live::Cluster(c) => c.coord.trust(0, 1)?,
        })
    }

    /// WAL bytes on disk that the run (not the bootstrap) wrote.
    pub fn run_wal_bytes(&self) -> Res<u64> {
        Ok(match self {
            Live::Flat(f) => std::fs::metadata(&f.wal)?.len(),
            Live::Cluster(c) => dir_bytes(&c.wal_dir)? - c.boot_wal_bytes,
        })
    }

    /// Summed peak RSS of the worker processes, in MB (0 for the flat
    /// daemon, whose threads live in the benchmark process).
    pub fn worker_peak_rss_mb(&self) -> f64 {
        match self {
            Live::Flat(_) => 0.0,
            Live::Cluster(c) => (0..c.coord.num_workers())
                .map(|w| crate::run::proc_status_mb(c.coord.worker_pid(w), "VmHWM"))
                .sum(),
        }
    }

    /// One timed restart, ending with the first read answered.
    ///
    /// Either way the whole history is replayed, as after a real crash.
    /// Flat: stop the daemon (untimed), then rebuild the model from the
    /// bootstrap prefix, read the run's log and replay it on top, and
    /// start a daemon over the result. Cluster: `kill -9` worker 0 and
    /// bring it back from its log, which holds its share of the prefix
    /// and of the run.
    pub fn restart(
        &mut self,
        w: &Workload,
        inputs: &Inputs,
        threads: usize,
        rec: &mut Recorder,
    ) -> Res<f64> {
        match self {
            Live::Flat(f) => {
                if let Some(server) = f.server.take() {
                    server.shutdown()?;
                }
                f.restarts += 1;
                let mut opts = f.opts.clone();
                opts.wal_path = f.wal.with_extension(format!("restart-{}", f.restarts));
                let open = rec.enter("serve.backend.restart", 0);
                let t = Instant::now();
                let mut model = bootstrap_model(w, inputs, threads, rec)?;
                let (log, _) = rec.time("wal.recover", 0, || wot_wal::read_log(&f.wal));
                let log = log?;
                if log.torn.is_some() {
                    return Err("the run's log has a torn tail after a clean shutdown".into());
                }
                for e in &log.events {
                    model.apply(&ReplayEvent::from(*e))?;
                }
                let (server, mut reader, writer) =
                    start_flat(model, f.base_seq + log.events.len() as u64, &opts)?;
                TrustQuery::trust(&mut reader, 0, 1)?;
                let secs = t.elapsed().as_secs_f64();
                rec.exit(open);
                (f.server, f.reader, f.writer) = (Some(server), reader, writer);
                Ok(secs)
            }
            Live::Cluster(c) => {
                let open = rec.enter("serve.backend.restart", 0);
                let t = Instant::now();
                c.coord.kill_worker(0)?;
                c.coord.restart_worker(0)?;
                c.coord.trust(0, 1)?;
                let secs = t.elapsed().as_secs_f64();
                rec.exit(open);
                Ok(secs)
            }
        }
    }

    /// Stops the backend and waits for every thread and child it owns.
    pub fn shutdown(self) -> Res<()> {
        match self {
            Live::Flat(mut f) => {
                if let Some(server) = f.server.take() {
                    server.shutdown()?;
                }
            }
            Live::Cluster(c) => c.coord.shutdown()?,
        }
        Ok(())
    }
}

/// Object-safe union of the two traits every backend answers.
pub trait Handle: TrustIngest + TrustQuery {}
impl<T: TrustIngest + TrustQuery> Handle for T {}

impl Live {
    /// The backend as one handle, for code that needs just one (probes,
    /// the correctness check): the flat daemon's writer connection, or
    /// the coordinator.
    pub fn handle(&mut self) -> &mut dyn Handle {
        match self {
            Live::Flat(f) => &mut f.writer,
            Live::Cluster(c) => &mut c.coord,
        }
    }
}

/// A stand-in backend for this package's unit tests.
#[cfg(test)]
pub mod testkit {
    use wot_community::StoreEvent;
    use wot_serve::{
        AggregateSummary, ReputationTable, Result, ServeError, ServeSnapshot, ServeStats,
        TrustIngest, TrustQuery,
    };

    /// Answers from one fixed snapshot and "acks" an ingest by bumping its
    /// seq; can be told to refuse single ingests, or to answer every trust
    /// query one ulp off.
    pub struct Fake {
        pub snap: ServeSnapshot,
        pub refuse_ingest: bool,
        pub corrupt_trust: bool,
    }

    impl TrustIngest for Fake {
        fn ingest(&mut self, _: StoreEvent) -> Result<u64> {
            if self.refuse_ingest {
                return Err(ServeError::Protocol("refused".into()));
            }
            self.snap.seq += 1;
            Ok(self.snap.seq)
        }
        fn ingest_batch(&mut self, events: &[StoreEvent]) -> Result<u64> {
            self.snap.seq += events.len() as u64;
            Ok(self.snap.seq)
        }
    }

    impl TrustQuery for Fake {
        fn trust(&mut self, i: u32, j: u32) -> Result<(f64, u64)> {
            let (v, s) = TrustQuery::trust(&mut self.snap, i, j)?;
            let bits = v.to_bits() ^ u64::from(self.corrupt_trust);
            Ok((f64::from_bits(bits), s))
        }
        fn top_k(&mut self, u: u32, k: u32) -> Result<(Vec<(u32, f64)>, u64)> {
            TrustQuery::top_k(&mut self.snap, u, k)
        }
        fn rater_reputation(&mut self, c: u32, u: u32) -> Result<(Option<f64>, u64)> {
            TrustQuery::rater_reputation(&mut self.snap, c, u)
        }
        fn category_tables(&mut self, c: u32) -> Result<(ReputationTable, ReputationTable, u64)> {
            TrustQuery::category_tables(&mut self.snap, c)
        }
        fn fig3_aggregates(&mut self) -> Result<(AggregateSummary, u64)> {
            TrustQuery::fig3_aggregates(&mut self.snap)
        }
        fn stats(&mut self) -> Result<(ServeStats, u64)> {
            TrustQuery::stats(&mut self.snap)
        }
    }
}
