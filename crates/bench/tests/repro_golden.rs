//! Golden output of `repro --scale tiny all`: every table and figure the
//! binary prints at the tiny preset and default seed, with wall-clock
//! timings stripped. Any change to a printed number fails here, so a
//! change that is meant to leave the paper's outputs alone is held to
//! that, and one that moves them shows exactly which lines moved.
//!
//! Normalisation drops the lines that start with `[` (per-experiment
//! timings and the setup line) and replaces each inline `[<n>µs]`-style
//! timing with `[…]`. After an intended output change, regenerate the
//! file with:
//!
//! ```text
//! cargo run -q --release -p wot-bench --bin repro -- --scale tiny all \
//!   | grep -v '^\[' | sed -E 's/\[[0-9.]+(µs|ms|ns|s)\]/[…]/g' \
//!   > crates/bench/tests/golden/repro_tiny.txt
//! ```

use std::process::Command;

const GOLDEN: &str = include_str!("golden/repro_tiny.txt");

/// `true` for the inside of an inline timing such as `290.8µs`.
fn is_timing(inner: &str) -> bool {
    let number = ["µs", "ms", "ns", "s"]
        .iter()
        .find_map(|unit| inner.strip_suffix(unit))
        .unwrap_or("");
    !number.is_empty() && number.chars().all(|c| c.is_ascii_digit() || c == '.')
}

/// One output line with each inline `[timing]` replaced by `[…]`.
fn strip_timings(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(open) = rest.find('[') {
        out.push_str(&rest[..open]);
        let after = &rest[open + 1..];
        match after.find(']') {
            Some(close) if is_timing(&after[..close]) => {
                out.push_str("[…]");
                rest = &after[close + 1..];
            }
            _ => {
                out.push('[');
                rest = after;
            }
        }
    }
    out.push_str(rest);
    out
}

fn normalise(output: &str) -> Vec<String> {
    output
        .lines()
        .filter(|line| !line.starts_with('['))
        .map(strip_timings)
        .collect()
}

#[test]
fn normalisation_keeps_labels_and_strips_timings() {
    assert!(is_timing("290.8µs") && is_timing("2.2ms") && is_timing("1s"));
    assert!(!is_timing("0") && !is_timing("s") && !is_timing("stats: 1ms"));
    assert_eq!(
        strip_timings("top-10: scan [290.8µs], [0] kept"),
        "top-10: scan […], [0] kept"
    );
    assert_eq!(
        normalise("# head\n[stats: 1.0ms]\n  [0] cat\n"),
        ["# head", "  [0] cat"]
    );
}

#[test]
fn tiny_run_matches_the_golden_tables() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "tiny", "all"])
        .output()
        .expect("run repro");
    assert!(out.status.success(), "repro exited with {}", out.status);
    let actual = normalise(&String::from_utf8(out.stdout).expect("utf-8 output"));
    let expected: Vec<&str> = GOLDEN.lines().collect();
    let moved: Vec<String> = (0..actual.len().max(expected.len()))
        .filter_map(|n| {
            let (got, want) = (actual.get(n).map(String::as_str), expected.get(n).copied());
            (got != want).then(|| {
                format!(
                    "line {}:\n  golden: {}\n  actual: {}",
                    n + 1,
                    want.unwrap_or("<none>"),
                    got.unwrap_or("<none>")
                )
            })
        })
        .collect();
    assert!(
        moved.is_empty(),
        "{} of {} lines differ from golden/repro_tiny.txt:\n{}",
        moved.len(),
        expected.len(),
        moved.join("\n")
    );
}
