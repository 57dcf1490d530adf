//! # wot-bench — benchmark harness and the `repro` binary
//!
//! `cargo run --release -p wot-bench --bin repro -- <experiment>`
//! regenerates every table and figure of the paper (see docs/ARCHITECTURE.md §9);
//! `cargo bench -p wot-bench` times each experiment and the substrate hot
//! paths with Criterion.
//!
//! This library half hosts the setup shared by both: preset parsing and
//! workbench construction. Neither half is a performance gate — the
//! system's end-to-end cost is measured by `benchmark/` (see
//! `benchmark/README.md`), declared in the root `BENCHMARK.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use wot_core::DeriveConfig;
use wot_eval::Workbench;
use wot_synth::SynthConfig;

/// Dataset scale selector shared by `repro` and the benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~200 users — milliseconds; CI-friendly.
    Tiny,
    /// ~4,000 users — seconds; the default.
    Laptop,
    /// ~44,197 users — the paper's population; minutes end to end.
    Paper,
}

impl Scale {
    /// Parses `tiny` / `laptop` / `paper`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "tiny" => Some(Scale::Tiny),
            "laptop" => Some(Scale::Laptop),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// The generator configuration at this scale.
    pub fn synth_config(self, seed: u64) -> SynthConfig {
        match self {
            Scale::Tiny => SynthConfig::tiny(seed),
            Scale::Laptop => SynthConfig::laptop(seed),
            Scale::Paper => SynthConfig::paper_scale(seed),
        }
    }

    /// Builds the workbench (generation + derivation) at this scale.
    pub fn workbench(self, seed: u64) -> Workbench {
        Workbench::new(&self.synth_config(seed), &DeriveConfig::default())
            .expect("preset configurations are valid")
    }
}

/// The default seed used by `repro` and the benches, so published numbers
/// are reproducible verbatim.
pub const DEFAULT_SEED: u64 = 20080407; // ICDEW 2008 opened April 7, 2008.

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scales() {
        assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("laptop"), Some(Scale::Laptop));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn tiny_workbench_builds() {
        let wb = Scale::Tiny.workbench(1);
        assert!(wb.out.store.num_users() > 0);
    }
}
