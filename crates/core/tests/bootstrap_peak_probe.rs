//! Where the paper-scale daemon's resident peak is set: the bootstrap of
//! a delta-publish model over the first 90 % of the paper preset's
//! history, as `serve_mixed_paper` boots it (community seed 20080407, log
//! seed 20080408). Serving never raises the high-water mark this sets.
//!
//! A counting global allocator (`counting_alloc`) tracks live heap bytes
//! and their peak. After each phase the probe prints the live heap, its
//! peak so far and the process's VmHWM (Linux; the peak resident set):
//!
//! * `generate` — the community, its ground truth dropped;
//! * `shuffle` — the event log (the store stays alive, as in the
//!   benchmark, which keeps both for its oracle);
//! * `apply 90 %` — every bootstrap event applied, its seeds pending;
//! * `refresh_all` — every category solved;
//! * `compact` — the model re-packed, as `ShardEngine::open` does.
//!
//! It also prints the store's and the model's own bytes (`heap_bytes`),
//! which phase set the peak live heap and which the process's VmHWM, and
//! the generator's own peak: the next floor once the bootstrap's peak
//! drops under it. It fails if the peak live heap exceeds
//! [`PEAK_LIVE_MB`].
//!
//! Ignored: it generates the paper preset (~20 s and under 0.5 GB in
//! release). Run it with `cargo test --release -p wot-core --test
//! bootstrap_peak_probe -- --ignored --nocapture`.

mod counting_alloc;

use wot_core::{DeriveConfig, IncrementalDerived, ReplayEvent};
use wot_synth::{generate, shuffled_event_log, SynthConfig};

/// The peak live heap this probe measured when the bound was set, plus
/// 10 %. It peaks during `apply 90 %` (246.5 MB), over the store
/// (49.5 MB: each rating once, in its review's 12-byte list, plus a
/// 4-byte order entry), the log (53.8 MB) and the model with every
/// bootstrap seed pending (135.1 MB), plus an arena's growth in flight.
/// The generator's own peak (238.3 MB, set before the store is built)
/// sits 8 MB under it.
const PEAK_LIVE_MB: f64 = 246.5 * 1.1;

fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

/// The process's peak resident set in MB, where `/proc` reports it.
fn vm_hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1e3)
}

/// The peaks so far after a phase: live heap and VmHWM, in MB.
struct Phase {
    name: &'static str,
    peak: f64,
    hwm: Option<f64>,
}

/// Prints the heap after `name` and records the peaks so far under it.
fn report(phases: &mut Vec<Phase>, name: &'static str) {
    let (peak, hwm) = (mb(counting_alloc::peak()), vm_hwm_mb());
    println!(
        "  {name:<12} live {:>7.1} MB   peak live {peak:>7.1} MB   VmHWM {}",
        mb(counting_alloc::live()),
        hwm.map_or_else(|| "n/a".to_string(), |m| format!("{m:.1} MB")),
    );
    phases.push(Phase { name, peak, hwm });
}

/// The phase that set a peak, which never falls: the first to reach its
/// last value.
fn set_in(phases: &[Phase], of: impl Fn(&Phase) -> Option<f64>) -> &'static str {
    let last = phases.last().and_then(&of);
    phases
        .iter()
        .find(|p| of(p) == last)
        .map_or("n/a", |p| p.name)
}

#[test]
#[ignore = "paper preset; run in release with --ignored --nocapture"]
fn paper_bootstrap_peak() {
    println!("paper bootstrap, 90 % prefix, delta publish:");
    let mut phases = Vec::new();
    let store = generate(&SynthConfig::paper_scale(20080407)).unwrap().store;
    report(&mut phases, "generate");
    println!("    store: {:.1} MB", mb(store.heap_bytes()));
    let log = shuffled_event_log(&store, 20080408);
    report(&mut phases, "shuffle");
    let cfg = DeriveConfig::builder().delta_refresh(true).build().unwrap();
    let mut model =
        IncrementalDerived::new(store.num_users(), store.num_categories(), &cfg).unwrap();
    let prefix = (log.len() as f64 * 0.9) as usize;
    for e in &log[..prefix] {
        model.apply(&ReplayEvent::from(*e)).unwrap();
    }
    report(&mut phases, "apply 90 %");
    let heap = model.heap_bytes();
    println!(
        "    model: arenas {:.1} MB for {:.1} MB of edges, seeds {:.3} MB",
        mb(heap.arenas),
        mb(heap.arena_edges),
        mb(heap.seeds)
    );
    model.refresh_all();
    report(&mut phases, "refresh_all");
    model.compact();
    report(&mut phases, "compact");
    let heap = model.heap_bytes();
    println!(
        "    model: arenas {:.1} MB for {:.1} MB of edges, seeds {:.3} MB",
        mb(heap.arenas),
        mb(heap.arena_edges),
        mb(heap.seeds)
    );
    assert!(!model.is_stale());
    let peak = mb(counting_alloc::peak());
    println!(
        "  peak live heap set in `{}`, VmHWM in `{}`; the generator's own peak is {:.1} MB under the live peak",
        set_in(&phases, |p| Some(p.peak)),
        set_in(&phases, |p| p.hwm),
        peak - phases[0].peak
    );
    assert!(
        peak <= PEAK_LIVE_MB,
        "peak live heap {peak:.1} MB, bound {PEAK_LIVE_MB:.1} MB"
    );
}
