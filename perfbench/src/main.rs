//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload verify-batch|difftest-sweep|serve-ladder \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Each run makes its inputs from the seed,
//! sets up several times (reporting the median as `setup_s`), measures for
//! `--seconds`, checks every output against a known answer, and prints
//! each metric by name with its unit followed by one JSON result line.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
//! per-layer metrics from spans the benchmark records around its calls
//! into each layer, written to `.perfbench/spans-*.json`. Every result is
//! also written, with provenance and work counters, under
//! `.perfbench/results/`. The exit code is 0 only when every check held.

mod calib;
mod difftest_sweep;
mod golden;
mod ledger;
mod loadgen;
mod output;
mod serve_ladder;
mod spans;
mod stats;
mod verify_batch;

use std::path::PathBuf;
use std::process::exit;
use std::time::{Duration, Instant};

use islaris_testkit::Rng;

use crate::calib::Calibration;
use crate::ledger::Ledger;
use crate::output::{json_str, render, Provenance};
use crate::spans::Spans;

const WORKLOADS: [&str; 3] = ["verify-batch", "difftest-sweep", "serve-ladder"];

/// Closed-loop runs report each end-to-end figure as the median over this
/// many consecutive blocks of rounds, so a burst of host noise in one
/// block does not move it.
pub const BLOCKS: usize = 5;

/// In-process workloads set up this many times per run and report the
/// median as `setup_s`.
pub const SETUPS: usize = 11;

/// What a workload needs from the command line and the checkout.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// The checkout root (the working directory).
    pub root: PathBuf,
    /// Scratch space inside the checkout: `.perfbench/`.
    pub out: PathBuf,
    pub ledger: Ledger,
    /// Span sink, present in traced runs.
    pub spans: Option<Spans>,
    /// Host-speed samples taken between units of work.
    pub calibration: Calibration,
}

#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn shuffled(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.index(i + 1));
    }
    v
}

/// Peak resident set (`VmHWM`) of a process, in MiB; `pid` may be `self`.
#[must_use]
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("daemon") {
        serve_ladder::daemon_main(&args[1..]);
        return;
    }
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => traced = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, traced)
    else {
        usage()
    };

    let root = std::env::current_dir().unwrap_or_else(|e| {
        eprintln!("perfbench: working directory: {e}");
        exit(1)
    });
    let out = root.join(".perfbench");
    if let Err(e) = std::fs::create_dir_all(out.join("results")) {
        eprintln!("perfbench: {}: {e}", out.display());
        exit(1);
    }
    let prov = Provenance::collect(&root, seed);
    println!("provenance {}", prov.to_json());
    let ledger_path = out.join(format!("work-{workload}-{}.ledger", prov.tree_digest));
    let mut ctx = Ctx {
        seed,
        seconds,
        traced,
        root,
        out: out.clone(),
        ledger: Ledger::default(),
        spans: traced.then(|| Spans::new(Instant::now())),
        calibration: Calibration::default(),
    };
    let mut result = match workload.as_str() {
        "verify-batch" => verify_batch::run(&mut ctx),
        "difftest-sweep" => difftest_sweep::run(&mut ctx),
        _ => serve_ladder::run(&mut ctx),
    };
    if workload != "serve-ladder" {
        result.values.set("peak_rss_mb", peak_rss_mb("self"));
    }
    // Scale the CPU-bound end-to-end figures to the reference host speed:
    // each set-up by the kernel time just before it, the rest by the median
    // kernel time of the measurement. serve-ladder scales its latencies
    // itself, step by step. There, capacity and the ladder verdict are bound
    // by the daemon's delayed-ACK timer rather than the CPU, and set-up is
    // mostly the daemon's work on both cores, which the client's one-thread
    // kernel does not track, so these stay raw.
    let slowdown = ctx.calibration.slowdown();
    result.values.set("setup_s", ctx.calibration.setup_s());
    let mut raw = Vec::new();
    for (name, _) in output::END_TO_END {
        let v = result.values.get(name);
        let scaled = match name {
            _ if workload == "serve-ladder" => v,
            "ops_per_s" | "max_rps" => v * slowdown,
            "p50_ms" | "p95_ms" | "p95_ms_high" => v / slowdown,
            "setup_s" => ctx.calibration.setup_s_scaled(),
            _ => v,
        };
        raw.push(format!("{name}={v:.4}"));
        result.values.set(name, scaled);
    }
    result
        .values
        .set(output::HOST, ctx.calibration.kernel_median_ms());
    println!(
        "host slowdown {slowdown:.4} (calibration kernel {:.4} ms, reference {} ms); raw: {}",
        ctx.calibration.kernel_median_ms(),
        calib::REFERENCE_MS,
        raw.join(" ")
    );
    if let Err(e) = ctx.ledger.settle(&ledger_path) {
        eprintln!("perfbench: saving {}: {e}", ledger_path.display());
    }
    let mismatches = ctx.ledger.mismatches.len();
    result.values.set("work.mismatches", mismatches as f64);
    if mismatches > 0 {
        result.check_errors.push(format!(
            "{mismatches} work-counter records differ from earlier records of the same code"
        ));
    }
    if let Some(spans) = &ctx.spans {
        let path = out.join(format!("spans-{workload}-seed{seed}.json"));
        match spans.write_chrome(&path) {
            Ok(()) => println!("spans: {} written to {}", spans.spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    for e in &result.check_errors {
        eprintln!("perfbench: check failed: {e}");
    }
    for (key, text) in &result.work {
        println!("work {key} {:016x}", islaris_obs::fnv1a(text.as_bytes()));
    }
    println!(
        "fail_share {:.6} ({} failed of {} attempted)",
        result.failed as f64 / result.attempted.max(1) as f64,
        result.failed,
        result.attempted
    );
    let text = render(&result, traced);
    let work: Vec<String> = result
        .work
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let file = format!(
        "{{\"workload\": {}, \"trace\": {}, \"provenance\": {}, \"work\": {{{}}}, \"result\": {}}}\n",
        json_str(&workload),
        u8::from(traced),
        prov.to_json(),
        work.join(", "),
        text.lines().last().unwrap_or("null")
    );
    let path = out.join(format!(
        "results/{workload}-seed{seed}-trace{}.json",
        u8::from(traced)
    ));
    if let Err(e) = std::fs::write(&path, file) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
    print!("{text}");
    exit(if result.correct() { 0 } else { 1 })
}
