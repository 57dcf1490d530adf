//! The workloads and the inputs they generate from a seed.

use wot_community::{CommunityStore, StoreEvent};
use wot_core::{BlockConfig, DeriveConfig};
use wot_synth::SynthConfig;

use crate::spans::Recorder;
use crate::Res;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// 4,000 users / ~145k ratings.
    Laptop,
    /// The paper's community: 44,197 users / ~2.06M ratings.
    Paper,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deploy {
    /// The single-process daemon behind the TCP client.
    Flat,
    /// The coordinator over two `wot-shardd` worker processes.
    Cluster,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub preset: Preset,
    pub deploy: Deploy,
    /// Delta worklist refresh and warm publish (values within 1e-6 of the
    /// oracle) instead of the cold, bit-identical publish.
    pub delta: bool,
    /// Share of the shuffled event log the backend is bootstrapped from;
    /// the rest is the tail the writer feeds.
    pub bootstrap_share: f64,
    pub reads_per_s: f64,
    pub writes_per_s: f64,
    /// Events per closed-loop round of the bulk feed.
    pub round_events: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "serve_mixed_paper",
        why: "flat daemon at paper scale, delta publish: per-publish O(users x categories) work, the delta worklist and the 44k-wide top-k row dominate; scans run over a paper-scale sample",
        preset: Preset::Paper,
        deploy: Deploy::Flat,
        delta: true,
        bootstrap_share: 0.9,
        reads_per_s: 250.0,
        writes_per_s: 12.0,
        round_events: 16,
    },
    Workload {
        name: "serve_mixed_laptop",
        why: "flat daemon on small state, cold publish: framing, loopback, per-event fsync and one publish per event dominate; the flat twin of the cluster workload",
        preset: Preset::Laptop,
        deploy: Deploy::Flat,
        delta: false,
        bootstrap_share: 0.6,
        reads_per_s: 400.0,
        writes_per_s: 100.0,
        round_events: 64,
    },
    Workload {
        name: "cluster_mixed_laptop",
        why: "same inputs, rates and rounds as serve_mixed_laptop through the coordinator and two shard workers: pipes, group fsync and the lazy States scatter replace the TCP daemon",
        preset: Preset::Laptop,
        deploy: Deploy::Cluster,
        delta: false,
        bootstrap_share: 0.6,
        reads_per_s: 400.0,
        writes_per_s: 100.0,
        round_events: 64,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Worker threads handed to every layer that takes a count, recorded as
/// `par.threads`. Capped so a many-core host and the 2-core sandbox run
/// comparable fan-outs.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

impl Workload {
    pub fn derive_config(&self, threads: usize) -> Res<DeriveConfig> {
        Ok(DeriveConfig::builder()
            .threads(threads)
            .delta_refresh(self.delta)
            .build()?)
    }
}

pub fn block_config(threads: usize) -> BlockConfig {
    BlockConfig {
        block_rows: 0,
        threads,
    }
}

/// Everything a run derives from `--seed`.
pub struct Inputs {
    pub store: CommunityStore,
    /// A seeded causal shuffle of the store's history.
    pub log: Vec<StoreEvent>,
    /// `log[..prefix]` bootstraps the backend; `log[prefix..]` is the tail.
    pub prefix: usize,
}

impl Inputs {
    pub fn tail(&self) -> &[StoreEvent] {
        &self.log[self.prefix..]
    }
}

/// The community is the preset's, generated from this seed whatever
/// `--seed` says. A 4,000-user draw of the heavy-tailed activity model
/// differs from the next by more than any bound here (the all-user top-10
/// scan by ±15 %), and a run-to-run spread made of that would hide the
/// system's own. `--seed` decides everything else: the order of the
/// history (so what is bootstrapped and what arrives live), the schedule,
/// who asks about whom, and every sample.
const COMMUNITY_SEED: u64 = crate::DEFAULT_SEED;

pub fn generate(w: &Workload, seed: u64, rec: &mut Recorder) -> Res<Inputs> {
    let cfg = match w.preset {
        Preset::Laptop => SynthConfig::laptop(COMMUNITY_SEED),
        Preset::Paper => SynthConfig::paper_scale(COMMUNITY_SEED),
    };
    let (out, _) = rec.time("synth.generate", 0, || wot_synth::generate(&cfg));
    let store = out?.store;
    let (log, _) = rec.time("synth.event_log", 0, || {
        wot_synth::shuffled_event_log(&store, seed.wrapping_add(1))
    });
    let prefix = (log.len() as f64 * w.bootstrap_share) as usize;
    Ok(Inputs { store, log, prefix })
}
