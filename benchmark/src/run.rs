//! One run of one workload: the untraced pass that yields the end-to-end
//! metrics, or the traced pass that yields the per-layer ones.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use wot_core::Derived;

use crate::backend::{bootstrap_model, Env, Live, ScratchDir};
use crate::check::{self, check_backend, Match};
use crate::loadgen::{drive, Serving, Window};
use crate::spans::{self, Recorder, Span};
use crate::stats::{fastest, median, rounds_throughput, supported_tail};
use crate::workload::{self, block_config, Inputs, Workload};
use crate::{offline, stages, Metric, Res};

/// Times the whole set-up is done per untraced run; `setup_s` is their
/// median, the last one is the one measured on.
const SETUPS: usize = 3;

/// The metrics an untraced run reports, in `BENCHMARK.json` order.
pub const END_TO_END: [&str; 8] = [
    "setup_s",
    "peak_rss_mb",
    "batch_e2e_s",
    "fig3_scan_s",
    "topk_scan_s",
    "visible_p50_ms",
    "ingest_events_per_s",
    "wal_bytes_per_event",
];

/// The metrics a traced run reports, in `BENCHMARK.json` order.
pub const PER_LAYER: [&str; 55] = [
    "synth.generate_s",
    "synth.event_log_s",
    "core.incremental.bootstrap_s",
    "serve.backend.boot_s",
    "serve.backend.restart_s",
    "core.pipeline.derive_s",
    "core.riggs.sweeps",
    "core.trust_blocks.drain_s",
    "core.trust_blocks.cells",
    "core.trust_blocks.blocks",
    "core.trust_blocks.block_bytes",
    "core.trust_blocks.gflops",
    "par.threads",
    "par.drain_speedup",
    "eval.streaming.fig3_reduce_s",
    "eval.streaming.topk_reduce_s",
    "eval.streaming.support",
    "core.incremental.check_us",
    "core.incremental.apply_us",
    "core.incremental.solve_us",
    "core.incremental.assemble_us",
    "core.incremental.solve_sweeps",
    "core.incremental.solve_visited",
    "core.incremental.delta_fallback_share",
    "wal.append_us",
    "serve.snapshot.build_us",
    "serve.snapshot.publish_us",
    "wal.write_us",
    "wal.sync_us",
    "wal.recover_us",
    "serve.snapshot.trust_us",
    "serve.snapshot.topk_us",
    "serve.protocol.codec_us",
    "serve.protocol.bytes_per_query",
    "serve.shard_proto.codec_us",
    "serve.shard_proto.bytes_per_event",
    "serve.backend.rtt_us",
    "serve.backend.ingest_ack_us",
    "serve.backend.refresh_us",
    "serve.backend.warm_query_us",
    "serve.backend.batch_ack_us",
    "serve.backend.tables_us",
    "serve.backend.events_per_publish",
    "serve.backend.stage_sum_ratio",
    "loadgen.query_p50_ms",
    "loadgen.topk_p50_ms",
    "loadgen.visible_p50_ms",
    "loadgen.query_tail_ms",
    "loadgen.query_tail_pct",
    "loadgen.topk_tail_ms",
    "loadgen.topk_tail_pct",
    "loadgen.visible_tail_ms",
    "loadgen.visible_tail_pct",
    "loadgen.sat_query_p50_ms",
    "loadgen.late_share",
];

/// Where a run finds the worker binary and may write.
#[derive(Debug, Clone)]
pub struct Paths {
    pub shardd_bin: PathBuf,
    /// WAL files while a run lasts.
    pub scratch: PathBuf,
    /// Trace and result files.
    pub out_dir: PathBuf,
}

pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub paths: Paths,
}

/// What a run reports on its last line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

pub fn run(args: &Args) -> Res<Outcome> {
    let env = Env {
        scratch: ScratchDir::create(&args.paths.scratch)?,
        shardd_bin: args.paths.shardd_bin.clone(),
        threads: workload::threads(),
    };
    let (mut outcome, table) = if args.trace {
        (traced(args, &env)?, &PER_LAYER[..])
    } else {
        (untraced(args, &env)?, &END_TO_END[..])
    };
    // Exactly the manifest's metrics, in the manifest's order.
    let rank = |m: &Metric| table.iter().position(|&n| n == m.name);
    if outcome.metrics.len() != table.len() || outcome.metrics.iter().any(|m| rank(m).is_none()) {
        return Err("the run's metrics are not the manifest's".into());
    }
    outcome.metrics.sort_by_key(rank);
    let stray = child_processes();
    if !stray.is_empty() {
        return Err(format!("child processes {stray:?} outlived the run").into());
    }
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} has no value (no samples)", m.name).into());
    }
    Ok(outcome)
}

fn setup(
    w: &Workload,
    seed: u64,
    env: &Env,
    gen: usize,
    rec: &mut Recorder,
) -> Res<(Inputs, Live)> {
    let inputs = workload::generate(w, seed, rec)?;
    let live = Live::boot(w, &inputs, env, gen, rec)?;
    Ok((inputs, live))
}

/// The offline oracle for the first `events` events of history.
fn oracle(inputs: &Inputs, events: usize) -> Res<Derived> {
    check::oracle(
        inputs.store.num_users(),
        inputs.store.num_categories(),
        &inputs.log[..events],
    )
}

/// Compares the live backend, which must be serving exactly `events`
/// events, with their oracle.
fn check_live(
    w: &Workload,
    live: &mut Live,
    oracle: &Derived,
    events: usize,
    seed: u64,
) -> check::Report {
    let how = if w.delta {
        Match::Within(check::DELTA_TOLERANCE)
    } else {
        Match::Bits
    };
    check_backend(live.handle(), oracle, events as u64, how, seed)
}

fn untraced(args: &Args, env: &Env) -> Res<Outcome> {
    let (w, seed) = (args.workload, args.seed);
    let mut rec = Recorder::new(Instant::now(), false);

    let mut setup_s = Vec::new();
    let mut kept: Option<(Inputs, Live)> = None;
    for gen in 0..SETUPS {
        if let Some((_, live)) = kept.take() {
            live.shutdown()?;
        }
        let t = Instant::now();
        kept = Some(setup(w, seed, env, gen, &mut rec)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (inputs, mut live) = kept.expect("SETUPS is at least one");

    let s = args.seconds;
    // The offline stage's quarter of the window, in three parts spread
    // over the run (see `Offline::iterate`).
    let cfg = w.derive_config(env.threads)?;
    let blocks = block_config(env.threads);
    let mut off = offline::Offline::default();
    let mut offline_part = || {
        off.iterate(
            &inputs.store,
            &cfg,
            &blocks,
            seed.wrapping_add(4),
            Duration::from_secs_f64(0.25 * s / 3.0),
        )
    };
    offline_part()?;
    let window = Window {
        seed,
        mixed_secs: 0.45 * s,
        feed_secs: 0.30 * s,
    };
    let users = inputs.store.num_users();
    let serving = drive(&mut live, w, users, inputs.tail(), &window, &mut rec);

    // Memory and disk as the serving stage left them, before the oracle
    // adds the benchmark's own.
    let peak_rss_mb = proc_status_mb(std::process::id(), "VmHWM") + live.worker_peak_rss_mb();
    let wal_bytes = live.run_wal_bytes()?;
    offline_part()?;

    let events = inputs.prefix + serving.acked as usize;
    let truth = oracle(&inputs, events)?;
    let checked = check_live(w, &mut live, &truth, events, seed.wrapping_add(5));
    offline_part()?;
    live.shutdown()?;

    let Serving {
        mut mixed,
        mut feed,
        feed_reads,
        schedule_digest,
        acked,
    } = serving;
    let mismatched = off.check.mismatched + checked.mismatched;
    let attempted = mixed.sent
        + feed.acked
        + feed.failed
        + feed_reads.sent
        + off.check.compared
        + checked.compared;
    let failed = mixed.failed + feed.failed + feed_reads.failed + mismatched;
    // Read latencies flip between scheduling modes on a small shared box
    // and are not gated; the traced pass reports them as loadgen.*.
    eprintln!(
        "{}: par.threads {} | phase A sent {} failed {} late {} query p50 {:.4} ms top-k p50 {:.4} ms \
         | feed rounds {} acked {} | reads during feed {} | schedule digest {schedule_digest:016x}",
        w.name,
        env.threads,
        mixed.sent,
        mixed.failed,
        mixed.late,
        median(&mut mixed.query_ms),
        median(&mut mixed.topk_ms),
        feed.round_secs.len(),
        feed.acked,
        feed_reads.sent,
    );
    let metrics = vec![
        Metric::new("setup_s", median(&mut setup_s), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        Metric::new("batch_e2e_s", fastest(&off.e2e_s()), "s"),
        Metric::new("fig3_scan_s", fastest(&off.fig3_s), "s"),
        Metric::new("topk_scan_s", fastest(&off.topk_s), "s"),
        Metric::new("visible_p50_ms", median(&mut mixed.visible_ms), "ms"),
        Metric::new(
            "ingest_events_per_s",
            rounds_throughput(w.round_events, &mut feed.round_secs),
            "ev/s",
        ),
        Metric::new("wal_bytes_per_event", wal_bytes as f64 / acked as f64, "B"),
    ];
    Ok(Outcome {
        correct: mismatched == 0,
        attempted,
        failed,
        metrics,
    })
}

/// Mean duration, in seconds, of the spans called `name`.
fn span_secs(spans: &[Span], name: &str) -> f64 {
    let secs = spans::durations(spans, name);
    secs.iter().sum::<f64>() / secs.len() as f64
}

fn traced(args: &Args, env: &Env) -> Res<Outcome> {
    let (w, seed) = (args.workload, args.seed);
    let mut rec = Recorder::new(Instant::now(), true);
    let mut metrics = Vec::new();
    let s = args.seconds;

    let (inputs, mut live) = setup(w, seed, env, 0, &mut rec)?;
    // The replay's own model: the daemon's lives in its writer thread,
    // the cluster's in its workers.
    let model = bootstrap_model(w, &inputs, env.threads, &mut rec)?;
    for (name, span) in [
        ("synth.generate_s", "synth.generate"),
        ("synth.event_log_s", "synth.event_log"),
        ("core.incremental.bootstrap_s", "core.incremental.bootstrap"),
        ("serve.backend.boot_s", "serve.backend.boot"),
    ] {
        metrics.push(Metric::new(name, span_secs(rec.spans(), span), "s"));
    }

    let scans = offline::layers(
        &inputs.store,
        &w.derive_config(env.threads)?,
        &block_config(env.threads),
        seed.wrapping_add(4),
        &mut rec,
        &mut metrics,
    )?;
    let replayed = stages::replay(
        w,
        &inputs,
        model,
        env.scratch.path(),
        Duration::from_secs_f64(0.3 * s),
        &mut rec,
        &mut metrics,
    )?;
    stages::read_path_and_codecs(
        &replayed.snapshot,
        inputs.tail(),
        seed.wrapping_add(7),
        &mut metrics,
    )?;
    let probed = stages::probe_backend(
        live.handle(),
        w,
        &inputs,
        Duration::from_secs_f64(0.2 * s),
        replayed.event_mean_us,
        &mut rec,
        &mut metrics,
    )?;
    let window = Window {
        seed,
        mixed_secs: 0.3 * s,
        feed_secs: 0.2 * s,
    };
    let users = inputs.store.num_users();
    let serving = drive(
        &mut live,
        w,
        users,
        &inputs.tail()[probed..],
        &window,
        &mut rec,
    );
    let events = inputs.prefix + probed + serving.acked as usize;
    let truth = oracle(&inputs, events)?;
    let mut checked = check_live(w, &mut live, &truth, events, seed.wrapping_add(5));
    let restart_s = live.restart(w, &inputs, env.threads, &mut rec)?;
    metrics.push(Metric::new("serve.backend.restart_s", restart_s, "s"));
    // Every acknowledged write must have survived the restart.
    let again = check_live(w, &mut live, &truth, events, seed.wrapping_add(6));
    checked.compared += again.compared;
    checked.mismatched += again.mismatched;
    live.shutdown()?;

    let Serving {
        mut mixed,
        feed,
        mut feed_reads,
        ..
    } = serving;
    for (name, samples) in [
        ("loadgen.query_p50_ms", &mixed.query_ms),
        ("loadgen.topk_p50_ms", &mixed.topk_ms),
        ("loadgen.visible_p50_ms", &mixed.visible_ms),
    ] {
        metrics.push(Metric::new(name, median(&mut samples.clone()), "ms"));
    }
    for (tail_ms, tail_pct, samples) in [
        (
            "loadgen.query_tail_ms",
            "loadgen.query_tail_pct",
            &mut mixed.query_ms,
        ),
        (
            "loadgen.topk_tail_ms",
            "loadgen.topk_tail_pct",
            &mut mixed.topk_ms,
        ),
        (
            "loadgen.visible_tail_ms",
            "loadgen.visible_tail_pct",
            &mut mixed.visible_ms,
        ),
    ] {
        let tail = supported_tail(samples);
        eprintln!(
            "{}: {tail_ms} is p{} over {} samples",
            w.name, tail.pct, tail.samples
        );
        metrics.push(Metric::new(tail_ms, tail.value, "ms"));
        metrics.push(Metric::new(tail_pct, tail.pct, "%"));
    }
    metrics.push(Metric::new(
        "loadgen.sat_query_p50_ms",
        median(&mut feed_reads.query_ms),
        "ms",
    ));
    metrics.push(Metric::new(
        "loadgen.late_share",
        (mixed.late + feed_reads.late) as f64 / (mixed.sent + feed_reads.sent) as f64,
        "ratio",
    ));

    std::fs::create_dir_all(&args.paths.out_dir)?;
    let path = args.paths.out_dir.join(format!("trace-{}.json", w.name));
    std::fs::write(&path, spans::to_json(w.name, seed, rec.spans()))?;
    eprintln!(
        "{}: {} spans written to {}",
        w.name,
        rec.spans().len(),
        path.display()
    );

    let mismatched = scans.mismatched + checked.mismatched;
    Ok(Outcome {
        correct: mismatched == 0,
        attempted: (replayed.events + probed) as u64
            + mixed.sent
            + feed.acked
            + feed.failed
            + feed_reads.sent
            + scans.compared
            + checked.compared,
        failed: mixed.failed + feed.failed + feed_reads.failed + mismatched,
        metrics,
    })
}

/// A `kB` field of `/proc/<pid>/status`, in MB; 0 if the process is gone.
pub fn proc_status_mb(pid: u32, field: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.trim().strip_suffix("kB")?.trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Pids whose parent is this process.
fn child_processes() -> Vec<u32> {
    let me = std::process::id();
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            std::fs::read_to_string(format!("/proc/{pid}/stat"))
                .ok()
                // "pid (comm) state ppid ..." — comm may hold spaces, so
                // count fields from the closing parenthesis.
                .and_then(|s| {
                    s.rsplit_once(')')?
                        .1
                        .split_whitespace()
                        .nth(1)?
                        .parse::<u32>()
                        .ok()
                })
                == Some(me)
        })
        .collect()
}
