//! Metric catalogue, result rendering and provenance.
//!
//! Every run prints each metric of its mode by name with its unit, then one
//! JSON result line. The catalogue here is the single list of names; the
//! `BENCHMARK.json` test checks the manifest against it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// End-to-end metrics (untraced runs), with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("p95_ms_high", "ms"),
    ("max_rps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Layer timings, each reported as `<name>.p50`, `<name>.p95` (ms) and
/// `<name>.n` (sample count).
pub const TIMED_LAYERS: [&str; 15] = [
    "cases.build_ms",
    "isla.trace_ms",
    "difftest.oracle_ms",
    "engine.verify_ms",
    "cert.replay_ms",
    "smt.simplify_ms",
    "smt.entails_ms",
    "smt.lia_ms",
    "serve.server_ms",
    "serve.transport_ms",
    "serve.queue_wait_ms",
    "serve.exec_ms.case",
    "serve.exec_ms.trace",
    "serve.exec_ms.check",
    "serve.generator_late_ms",
];

/// Deterministic work counters, per measured round (see `NOTES.md`).
pub const COUNTERS: [&str; 26] = [
    "sail.steps",
    "isla.runs",
    "isla.branches_explored",
    "isla.branches_pruned",
    "isla.smt.queries",
    "isla.smt.cnf_clauses",
    "difftest.paths",
    "difftest.models_sampled",
    "difftest.vacuous",
    "difftest.trace_errors",
    "engine.obligations",
    "engine.smt_queries",
    "engine.lia_queries",
    "eng.smt.cnf_clauses",
    "eng.smt.propagations",
    "eng.smt.conflicts",
    "sess.clauses_retained",
    "sess.fallback_solves",
    "cert.bv",
    "cert.lia",
    "cert.smt.cnf_clauses",
    "cert.smt.propagations",
    "cert.smt.trimmed",
    "store.disk_hits.traces",
    "store.disk_hits.queries",
    "store.evictions",
];

/// Shares and ratios in `[0, 1]` (the tracing overhead may be negative).
pub const SHARES: [&str; 6] = [
    "fail_share",
    "cert.replay_share",
    "smt.intern_hit_ratio",
    "cache.trace_hit_ratio",
    "cache.query_hit_ratio",
    "trace.overhead_share",
];

/// Counts of checks that flagged something: work counters that did not
/// repeat exactly, and cases whose layers leave over 10% unattributed.
pub const FLAGS: [&str; 2] = ["work.mismatches", "attribution.flagged"];

/// The host-speed calibration: the median time of the fixed kernel in the
/// run (see `calib`), in ms.
pub const HOST: &str = "host.calibration_ms";

/// The nine Fig. 12 case slugs, in registry order.
#[must_use]
pub fn slugs() -> Vec<&'static str> {
    islaris_cases::ALL_CASES.iter().map(|c| c.slug).collect()
}

/// Every per-layer metric (traced runs), with units, in output order.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for layer in TIMED_LAYERS {
        out.push((format!("{layer}.p50"), "ms"));
        out.push((format!("{layer}.p95"), "ms"));
        out.push((format!("{layer}.n"), "count"));
    }
    out.extend(COUNTERS.iter().map(|c| (c.to_string(), "count")));
    out.extend(SHARES.iter().map(|s| (s.to_string(), "share")));
    out.extend(FLAGS.iter().map(|f| (f.to_string(), "count")));
    out.push((HOST.to_string(), "ms"));
    for slug in slugs() {
        out.push((format!("case.{slug}.ms"), "ms"));
    }
    for slug in slugs() {
        out.push((format!("case.{slug}.unattributed_share"), "share"));
    }
    out
}

/// The values one run measured, keyed by metric name. Names a workload
/// does not exercise are reported as 0 in traced runs (see `NOTES.md`).
#[derive(Debug, Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn set_summary(&mut self, layer: &str, s: crate::stats::Summary) {
        self.set(format!("{layer}.p50"), s.p50);
        self.set(format!("{layer}.p95"), s.p95);
        self.set(format!("{layer}.n"), s.n as f64);
    }

    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The outcome of one run, ready to print.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks other than per-operation failures (work-counter
    /// repeatability, known answers of set-up) that did not hold.
    pub check_errors: Vec<String>,
    pub values: Values,
    /// Canonical text of the deterministic work counters, by key.
    pub work: Vec<(String, String)>,
}

impl RunResult {
    /// A run whose set-up failed: nothing was attempted.
    #[must_use]
    pub fn aborted(check_errors: Vec<String>, values: Values) -> RunResult {
        RunResult {
            attempted: 0,
            failed: 0,
            check_errors,
            values,
            work: Vec::new(),
        }
    }

    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_errors.is_empty() && self.attempted > 0
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Escapes a string for a JSON literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders the metric lines and the final JSON result line for the mode's
/// catalogue (`traced` selects the per-layer list).
#[must_use]
pub fn render(result: &RunResult, traced: bool) -> String {
    let catalogue: Vec<(String, &str)> = if traced {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_string(), *u))
            .collect()
    };
    let mut text = String::new();
    let mut fields = Vec::new();
    for (name, unit) in &catalogue {
        let v = result.values.get(name);
        let _ = writeln!(text, "metric {name:<40} {v:>14.4} {unit}");
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_number(v),
            json_str(unit)
        ));
    }
    let _ = writeln!(
        text,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct(),
        result.attempted,
        result.failed,
        fields.join(", ")
    );
    text
}

/// Where the tree under measurement came from: git rev and dirty flag when
/// the checkout is a git work tree, plus a content digest of the sources
/// that works without git, `nproc`, the rustc version and the seed.
pub struct Provenance {
    pub git_rev: Option<String>,
    pub dirty: Option<bool>,
    pub tree_digest: String,
    pub nproc: usize,
    pub rustc: String,
    pub seed: u64,
}

fn command_stdout(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over the relative path and bytes of every source file of the
/// repository (the root manifest and lock file, `src/`, `crates/` and the
/// benchmark's own `src/`), in sorted path order.
#[must_use]
pub fn tree_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for sub in ["src", "crates", "perfbench/src"] {
        walk(&root.join(sub), &mut files);
    }
    files.sort();
    let mut buf = Vec::new();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            buf.extend_from_slice(
                f.strip_prefix(root)
                    .unwrap_or(f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            buf.push(0);
            buf.extend_from_slice(&bytes);
        }
    }
    format!("{:016x}", islaris_obs::fnv1a(&buf))
}

impl Provenance {
    #[must_use]
    pub fn collect(root: &Path, seed: u64) -> Provenance {
        // Only the checkout's own repository counts, not one above it.
        let git_rev = root
            .join(".git")
            .exists()
            .then(|| command_stdout("git", &["rev-parse", "HEAD"]))
            .flatten();
        let dirty = git_rev.as_ref().and_then(|_| {
            command_stdout("git", &["status", "--porcelain", "--untracked-files=no"])
                .map(|s| !s.is_empty())
        });
        let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
        Provenance {
            git_rev,
            dirty,
            tree_digest: tree_digest(root),
            nproc: crate::nproc(),
            rustc: command_stdout(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into()),
            seed,
        }
    }

    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"git_rev\": {}, \"dirty\": {}, \"tree_digest\": {}, \"nproc\": {}, \"rustc\": {}, \"seed\": {}}}",
            self.git_rev.as_deref().map_or("null".into(), json_str),
            self.dirty.map_or("null".into(), |d| d.to_string()),
            json_str(&self.tree_digest),
            self.nproc,
            json_str(&self.rustc),
            self.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json is readable")
    }

    /// The names listed in one `"end_to_end"`/`"per_layer"` array of the
    /// manifest, with units.
    fn manifest_section(text: &str, key: &str) -> Vec<(String, String)> {
        let j = islaris_obs::json::parse_json(text).expect("BENCHMARK.json parses");
        j.get(key)
            .and_then(islaris_obs::json::Json::as_array)
            .expect("section present")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(islaris_obs::json::Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn manifest_lists_exactly_the_catalogue() {
        let text = manifest();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect();
        assert_eq!(manifest_section(&text, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(manifest_section(&text, "per_layer"), layers);
    }

    #[test]
    fn result_line_is_the_last_line_and_lists_every_metric() {
        let mut values = Values::default();
        values.set("p50_ms", 1.25);
        let result = RunResult {
            attempted: 3,
            failed: 0,
            check_errors: Vec::new(),
            values,
            work: Vec::new(),
        };
        let text = render(&result, false);
        let last = text.lines().last().expect("non-empty");
        let j = islaris_obs::json::parse_json(last).expect("result line is JSON");
        assert_eq!(j.get("correct"), Some(&islaris_obs::json::Json::Bool(true)));
        let metrics = j.get("metrics").expect("metrics object");
        for (name, _) in END_TO_END {
            assert!(metrics.get(name).is_some(), "{name} missing");
        }
        assert!(last.contains("\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
    }
}
