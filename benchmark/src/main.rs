//! End-to-end benchmark of the webtrust system.
//!
//! With `--trace 0|1` the program does one run of one workload and prints
//! one JSON result line — the contract `BENCHMARK.json` describes. Without
//! `--trace` it is the developer's one command: every workload, untraced
//! then traced, as a table, optionally twice over for an A/A comparison.
//! See `README.md` beside this package.

mod backend;
mod check;
mod json;
mod loadgen;
mod offline;
mod run;
mod schedule;
mod spans;
mod stages;
mod stats;
mod suite;
mod workload;

use std::process::ExitCode;

use run::Paths;

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// The manifest the driver reads; embedded so the metric tables below,
/// the suite's bounds and the file cannot drift apart unnoticed.
pub const MANIFEST: &str = include_str!("../../BENCHMARK.json");

pub const DEFAULT_SEED: u64 = 20080407;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

const USAGE: &str = "\
usage: run.sh [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--aa]
  --trace 0|1   one run of one workload (needs --workload); prints one JSON line:
                0 = end-to-end metrics, 1 = per-layer metrics from the traced pass
  (no --trace)  every workload (or the one named), untraced then traced, as a table
  --aa          two interleaved sets of untraced runs; fails if their medians disagree
  --shardd-bin PATH   the wot-shardd worker binary (run.sh passes it)
  --scratch DIR       where WALs go while a run lasts (run.sh passes it)
  --out-dir DIR       trace and result files (default benchmark/out)";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    aa: bool,
    paths: Paths,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: None,
        aa: false,
        paths: Paths {
            shardd_bin: "target/release/wot-shardd".into(),
            scratch: "target/benchmark".into(),
            out_dir: "benchmark/out".into(),
        },
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--aa" {
            cli.aa = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag}: '{value}' is not {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => cli.workload = Some(value),
            "--seed" => cli.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--shardd-bin" => cli.paths.shardd_bin = value.into(),
            "--scratch" => cli.paths.scratch = value.into(),
            "--out-dir" => cli.paths.out_dir = value.into(),
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    Ok(cli)
}

fn find_workload(name: &str) -> Result<&'static workload::Workload, String> {
    workload::by_name(name).ok_or_else(|| {
        let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload '{name}'; the workloads are {}",
            names.join(", ")
        )
    })
}

fn real_main() -> Res<bool> {
    let cli = parse_cli()?;
    let seconds = match cli.seconds {
        Some(s) => s,
        None => suite::manifest_run_seconds()?,
    };
    let Some(trace) = cli.trace else {
        let only = cli.workload.as_deref().map(find_workload).transpose()?;
        return suite::run(&suite::Plan {
            only,
            seed: cli.seed,
            seconds,
            aa: cli.aa,
            paths: cli.paths,
        });
    };
    let name = cli.workload.ok_or("--trace needs --workload")?;
    let outcome = run::run(&run::Args {
        workload: find_workload(&name)?,
        seed: cli.seed,
        seconds,
        trace,
        paths: cli.paths,
    })?;
    println!("{}", suite::result_line(&outcome));
    Ok(true)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("wot-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
