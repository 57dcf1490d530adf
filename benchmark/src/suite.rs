//! The developer's one command: every workload untraced then traced, each
//! run in a child process of this same program (a run's peak memory and
//! its clean-up are per process), printed as `workload name value unit`;
//! or, with `--aa`, two interleaved sets of untraced runs compared against
//! the manifest's bounds.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use crate::json::{push_num, push_str_lit, Json};
use crate::run::{Outcome, Paths};
use crate::stats::median;
use crate::workload::{Workload, WORKLOADS};
use crate::{Res, MANIFEST};

pub struct Plan {
    pub only: Option<&'static Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub aa: bool,
    pub paths: Paths,
}

/// The one line a run prints last.
pub fn result_line(o: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct, o.attempted, o.failed
    );
    for (k, m) in o.metrics.iter().enumerate() {
        push_metric(&mut s, k, m.name, m.value, m.unit);
    }
    s.push_str("}}");
    s
}

/// Appends the `k`-th `"name": {"value": v, "unit": "u"}` of an object.
fn push_metric(out: &mut String, k: usize, name: &str, value: f64, unit: &str) {
    if k > 0 {
        out.push_str(", ");
    }
    push_str_lit(out, name);
    out.push_str(": {\"value\": ");
    push_num(out, value);
    out.push_str(", \"unit\": ");
    push_str_lit(out, unit);
    out.push('}');
}

fn manifest() -> Res<Json> {
    Ok(Json::parse(MANIFEST).map_err(|e| format!("BENCHMARK.json: {e}"))?)
}

pub fn manifest_run_seconds() -> Res<f64> {
    manifest()?
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or_else(|| "BENCHMARK.json has no run_seconds".into())
}

/// An end-to-end metric's regression rule.
struct Gate {
    higher_is_better: bool,
    bound: f64,
}

fn gates() -> Res<BTreeMap<String, Gate>> {
    let doc = manifest()?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut out = BTreeMap::new();
    for m in list {
        let field = |k: &str| {
            m.get(k)
                .ok_or_else(|| format!("end_to_end entry lacks {k}"))
        };
        out.insert(
            field("name")?
                .as_str()
                .ok_or("name is not a string")?
                .to_string(),
            Gate {
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            },
        );
    }
    Ok(out)
}

/// One child run's parsed result.
struct Ran {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// name → (value, unit), in name order.
    metrics: BTreeMap<String, (f64, String)>,
}

fn run_child(plan: &Plan, w: &Workload, seed: u64, trace: bool) -> Res<Ran> {
    let out = Command::new(std::env::current_exe()?)
        .args([
            "--workload",
            w.name,
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .arg("--shardd-bin")
        .arg(&plan.paths.shardd_bin)
        .arg("--scratch")
        .arg(&plan.paths.scratch)
        .arg("--out-dir")
        .arg(&plan.paths.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    if !out.status.success() {
        return Err(format!(
            "{} (trace {}) exited with {}",
            w.name,
            u8::from(trace),
            out.status
        )
        .into());
    }
    let stdout = String::from_utf8(out.stdout)?;
    let line = stdout.lines().last().ok_or("the run printed nothing")?;
    let doc = Json::parse(line)?;
    let num = |k: &str| {
        doc.get(k)
            .and_then(Json::as_f64)
            .ok_or(format!("result lacks {k}"))
    };
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err("result lacks metrics".into());
    };
    Ok(Ran {
        correct: doc.get("correct").and_then(Json::as_bool) == Some(true),
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        metrics: metrics
            .iter()
            .filter_map(|(name, m)| {
                let value = m.get("value")?.as_f64()?;
                Some((name.clone(), (value, m.get("unit")?.as_str()?.to_string())))
            })
            .collect(),
    })
}

/// Several runs of one workload as one: each metric's median, the
/// operations summed, correct only if every run was.
fn merged(runs: &[Ran]) -> Ran {
    let mut out = Ran {
        correct: runs.iter().all(|r| r.correct),
        attempted: runs.iter().map(|r| r.attempted).sum(),
        failed: runs.iter().map(|r| r.failed).sum(),
        metrics: BTreeMap::new(),
    };
    for (name, (_, unit)) in &runs[0].metrics {
        let mut values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.metrics.get(name).map(|m| m.0))
            .collect();
        out.metrics
            .insert(name.clone(), (median(&mut values), unit.clone()));
    }
    out
}

/// One workload's results within a set; `layers` is the traced pass, which
/// an A/A does not make.
struct Row {
    w: &'static Workload,
    e2e: Ran,
    layers: Option<Ran>,
}

fn print_set(set: &[Row]) -> bool {
    let mut ok = true;
    for row in set {
        let name = row.w.name;
        let mut attempted = row.e2e.attempted;
        let mut failed = row.e2e.failed;
        let mut correct = row.e2e.correct;
        for ran in std::iter::once(&row.e2e).chain(&row.layers) {
            for (metric, (value, unit)) in &ran.metrics {
                println!("{name} {metric} {value} {unit}");
            }
        }
        if let Some(layers) = &row.layers {
            attempted += layers.attempted;
            failed += layers.failed;
            correct &= layers.correct;
            // The tracing overhead is the difference between the two
            // passes on the one metric both report.
            if let (Some((plain, _)), Some((traced, _))) = (
                row.e2e.metrics.get("visible_p50_ms"),
                layers.metrics.get("loadgen.visible_p50_ms"),
            ) {
                let share = (traced - plain) / plain;
                println!("{name} loadgen.trace_overhead_share {share} ratio");
            }
        }
        println!(
            "{name} failed_share {} ratio",
            failed as f64 / attempted as f64
        );
        if !correct || failed > 0 {
            eprintln!("{name}: FAILED the correctness check ({failed} of {attempted} operations)");
            ok = false;
        }
    }
    ok
}

fn write_results(plan: &Plan, sets: &[Vec<Row>]) -> Res<()> {
    let mut s = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"sets\": [",
        plan.seed, plan.seconds
    );
    for (k, set) in sets.iter().enumerate() {
        s.push_str(if k > 0 { ", {" } else { "{" });
        for (j, row) in set.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            push_str_lit(&mut s, row.w.name);
            s.push_str(": {");
            let layers = row.layers.iter().flat_map(|l| &l.metrics);
            for (i, (name, (value, unit))) in row.e2e.metrics.iter().chain(layers).enumerate() {
                push_metric(&mut s, i, name, *value, unit);
            }
            s.push('}');
        }
        s.push('}');
    }
    s.push_str("]}\n");
    std::fs::create_dir_all(&plan.paths.out_dir)?;
    std::fs::write(plan.paths.out_dir.join("result.json"), s)?;
    Ok(())
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(gate: &Gate, a: f64, b: f64) -> f64 {
    if gate.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Runs per workload and side of an A/A.
const AA_PAIRS: usize = 5;

/// Two sets of the same build, as `AA_PAIRS` pairs of untraced runs per
/// workload — the two runs of a pair back to back on the pair's seed, the
/// sides taking turns to go first. This box's speed swings by a quarter
/// within minutes, so two sets run one after the other, or even in
/// alternating blocks of a minute, measure the swing.
fn run_aa(plan: &Plan, order: &[&'static Workload]) -> Res<[Vec<Row>; 2]> {
    let mut runs: [Vec<Vec<Ran>>; 2] = [vec![], vec![]];
    for side in &mut runs {
        side.resize_with(order.len(), Vec::new);
    }
    for pair in 0..AA_PAIRS {
        for (k, &w) in order.iter().enumerate() {
            for side in [pair % 2, 1 - pair % 2] {
                runs[side][k].push(run_child(plan, w, plan.seed + pair as u64, false)?);
            }
        }
    }
    Ok(runs.map(|side| {
        order
            .iter()
            .zip(&side)
            .map(|(&w, runs)| Row {
                w,
                e2e: merged(runs),
                layers: None,
            })
            .collect()
    }))
}

/// Runs the plan; `Ok(false)` means it ran but a check failed.
pub fn run(plan: &Plan) -> Res<bool> {
    let order: Vec<&'static Workload> = match plan.only {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    for w in &order {
        println!("# {}: {}", w.name, w.why);
    }
    if !plan.aa {
        let mut set = Vec::new();
        for &w in &order {
            set.push(Row {
                w,
                e2e: run_child(plan, w, plan.seed, false)?,
                layers: Some(run_child(plan, w, plan.seed, true)?),
            });
        }
        let ok = print_set(&set);
        write_results(plan, &[set])?;
        return Ok(ok);
    }
    let sets = run_aa(plan, &order)?;
    let mut ok = true;
    for (k, set) in sets.iter().enumerate() {
        println!("# set {} (medians of {AA_PAIRS} runs)", k + 1);
        ok &= print_set(set);
    }
    let gates = gates()?;
    println!("# A/A: workload metric first second worsening bound");
    for (a, b) in sets[0].iter().zip(&sets[1]) {
        for (name, (va, _)) in &a.e2e.metrics {
            let (Some(gate), Some((vb, _))) = (gates.get(name), b.e2e.metrics.get(name)) else {
                continue;
            };
            // Either set may be the worse one; an A/A has no "after".
            let worse = worsening(gate, *va, *vb).max(worsening(gate, *vb, *va));
            let verdict = if worse > gate.bound { "DISAGREE" } else { "ok" };
            println!(
                "{} {name} {va} {vb} {worse:.4} {} {verdict}",
                a.w.name, gate.bound
            );
            ok &= worse <= gate.bound;
        }
    }
    write_results(plan, &sets)?;
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Metric;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(&Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![Metric::new("setup_s", 0.8127, "s")],
        });
        let Json::Obj(doc) = Json::parse(&line).unwrap() else {
            panic!("not an object")
        };
        let keys: Vec<_> = doc.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = doc["metrics"].get("setup_s").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn merged_runs_report_medians_and_sum_operations() {
        let ran = |v: f64, failed: u64| Ran {
            correct: failed == 0,
            attempted: 10,
            failed,
            metrics: BTreeMap::from([("m".to_string(), (v, "s".to_string()))]),
        };
        let m = merged(&[ran(3.0, 0), ran(1.0, 0), ran(2.0, 0)]);
        assert_eq!(m.metrics["m"], (2.0, "s".to_string()));
        assert_eq!((m.attempted, m.failed, m.correct), (30, 0, true));
        let m = merged(&[ran(3.0, 0), ran(1.0, 2)]);
        assert_eq!((m.failed, m.correct), (2, false));
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = Gate {
            higher_is_better: false,
            bound: 0.1,
        };
        let higher = Gate {
            higher_is_better: true,
            bound: 0.1,
        };
        assert_eq!(worsening(&lower, 10.0, 12.0), 0.2);
        assert_eq!(worsening(&higher, 10.0, 12.0), -0.2);
        assert_eq!(worsening(&higher, 10.0, 8.0), 0.2);
    }

    /// The manifest the driver reads and the program's own tables must
    /// describe the same benchmark.
    #[test]
    fn manifest_matches_the_program() {
        let doc = manifest().unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let listed: Vec<_> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names("workloads"), listed);
        for (w, m) in WORKLOADS
            .iter()
            .zip(doc.get("workloads").and_then(Json::as_arr).unwrap())
        {
            assert_eq!(m.get("why").and_then(Json::as_str), Some(w.why));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        let gates = gates().unwrap();
        assert!(gates.values().all(|g| g.bound > 0.0 && g.bound <= 0.25));
        assert!(gates.contains_key("setup_s"));
        let setup = gates["setup_s"].bound;
        assert!(
            gates.values().all(|g| g.bound <= setup),
            "setup_s gets the largest bound"
        );
        assert_eq!(names("end_to_end"), crate::run::END_TO_END);
        assert_eq!(names("per_layer"), crate::run::PER_LAYER);
        let s = manifest_run_seconds().unwrap();
        assert!(s.fract() == 0.0 && (1.0..=60.0).contains(&s));
    }
}
