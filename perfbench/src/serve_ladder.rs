//! `serve-ladder`: the `--serve` daemon in its own process, with one worker
//! per core and a persistent store, under open-loop load at fixed rates on
//! a geometric ladder over at most `nproc` keep-alive connections.
//!
//! Set-up starts the daemon on an empty store, warms the store with one
//! cold pass over the request menu (checking every answer), and restarts
//! the daemon on it. Requests are drawn from the seed as shuffled cycles
//! of `gen_requests`' menu: the nine cases, trace, check, `/health` and the
//! typed-error probes.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use islaris_bench::replay::{gen_requests, ReplayReq};
use islaris_bench::serve::{ServeConfig, Server};
use islaris_obs::json::{parse_json, Json};
use islaris_obs::metrics::{parse_exposition, sample_delta};
use islaris_testkit::Rng;

use crate::calib::REFERENCE_MS;
use crate::golden::Goldens;
use crate::loadgen::{one_shot, run_step, wire, Conn, Planned, Sample};
use crate::output::{RunResult, Values};
use crate::stats::{histogram_summary_ms, median, summarize};
use crate::{nproc, peak_rss_mb, shuffled, Ctx};

/// Ladder steps: offered rate (requests/s) and window (s). The rates are a
/// factor of 3 apart and sit clear of the knee, so `max_rps` repeats
/// exactly. The low step reads `p50_ms`/`p95_ms`; the high step, about half
/// of the measured capacity, reads `p95_ms_high`; the top step offers more
/// than the daemon can answer, so its goodput is the capacity
/// (`ops_per_s`). Each window holds three whole menu cycles.
const STEPS: [(f64, f64); 3] = [(7.0, 6.9), (21.0, 2.3), (63.0, 0.77)];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// One pass over the ladder takes about this long; a run repeats the
/// ladder `--seconds / LADDER_SECONDS` times, interleaving the steps so
/// that each sees the same host conditions, and pools each step's
/// latencies over the repetitions.
const LADDER_SECONDS: f64 = 9.9;

/// Deterministic daemon counters recorded per step (work counters).
const DAEMON_COUNTERS: [&str; 6] = [
    "islaris_requests_total",
    "islaris_responses_total{status=\"200\"}",
    "islaris_responses_total{status=\"400\"}",
    "islaris_responses_total{status=\"404\"}",
    "islaris_blocks_parallel_total",
    "islaris_proof_trimmed_clauses_total",
];

/// The power of the host slowdown that the p95 latencies are scaled by.
/// They sit among the large cases, which the host slows down more than the
/// calibration kernel: over twenty runs in two host states their logarithm
/// moved about twice as much as the kernel's, and over fifteen runs in
/// one drifting host state about as much. `p50_ms`, among the small
/// requests, tracks the kernel and is scaled linearly.
const TAIL_EXPONENT: f64 = 1.5;

/// A step passes when its p95 latency from due stays under this limit and
/// its backlog does not grow beyond one request per connection.
const LIMIT_MS: f64 = 250.0;

/// What a menu request must be answered with.
#[derive(Clone, Debug)]
enum Expect {
    /// `200`, verdict `proved`, certificates equal to the golden files.
    Case(&'static str),
    /// `200`, byte-identical to the cold-pass answer.
    Ok(&'static str),
    /// A typed error: status and `error` kind.
    Error(u16, &'static str),
}

struct MenuItem {
    label: String,
    expect: Expect,
    wire: Vec<u8>,
}

/// The expected answer of a menu request, from the daemon's documented
/// protocol: unparsable JSON is `400 invalid-json`, an unknown case slug is
/// `404 unknown-case`, a non-hex opcode is `400 bad-opcode`.
fn expect_for(req: &ReplayReq) -> Expect {
    if req.method == "GET" {
        return Expect::Ok("get");
    }
    let Ok(j) = parse_json(&req.body) else {
        return Expect::Error(400, "invalid-json");
    };
    let field = |k: &str| j.get(k).and_then(Json::as_str).unwrap_or("");
    match field("kind") {
        "case" => match islaris_cases::find_case(field("slug")) {
            Some(c) => Expect::Case(c.slug),
            None => Expect::Error(404, "unknown-case"),
        },
        kind => {
            let op = field("opcode");
            if u64::from_str_radix(op.trim_start_matches("0x"), 16).is_err() {
                Expect::Error(400, "bad-opcode")
            } else if kind == "check" {
                Expect::Ok("check")
            } else {
                Expect::Ok("trace")
            }
        }
    }
}

/// The request menu `gen_requests` cycles through, one entry per request.
fn menu() -> Vec<MenuItem> {
    let reqs = gen_requests(256);
    let period = (1..=reqs.len())
        .find(|&p| reqs.iter().enumerate().all(|(i, r)| *r == reqs[i % p]))
        .unwrap_or(reqs.len());
    reqs[..period]
        .iter()
        .map(|r| {
            let expect = expect_for(r);
            let label = match &expect {
                Expect::Case(slug) => format!("case/{slug}"),
                Expect::Ok(kind) => format!("{kind} {} {}", r.path, r.body)
                    .trim_end()
                    .to_string(),
                Expect::Error(status, kind) => format!("{status} {kind}"),
            };
            MenuItem {
                label,
                expect,
                wire: wire(&r.method, &r.path, r.body.as_bytes()),
            }
        })
        .collect()
}

/// Known answers: goldens for cases, cold-pass bodies for the rest.
struct Judge {
    goldens: Goldens,
    cold: BTreeMap<usize, Vec<u8>>,
    /// Digest of the first case answer that passed the full check.
    verified: BTreeMap<usize, u64>,
}

impl Judge {
    /// Whether each sample got its expected answer; a transport error or a
    /// refused connection (status 0) never does.
    fn judge(&mut self, menu: &[MenuItem], samples: &[Sample]) -> Vec<bool> {
        samples
            .iter()
            .map(|s| self.check(menu, s.plan.item, s.status, &s.body))
            .collect()
    }

    fn check(&mut self, menu: &[MenuItem], item: usize, status: u16, body: &[u8]) -> bool {
        match &menu[item].expect {
            Expect::Case(slug) => {
                let digest = islaris_obs::fnv1a(body);
                if status != 200 {
                    return false;
                }
                if self.verified.get(&item) == Some(&digest) {
                    return true;
                }
                let ok = std::str::from_utf8(body)
                    .ok()
                    .and_then(|t| parse_json(t).ok())
                    .is_some_and(|j| {
                        let certs: Vec<&str> = j
                            .get("certs")
                            .and_then(Json::as_array)
                            .map(|a| a.iter().filter_map(Json::as_str).collect())
                            .unwrap_or_default();
                        j.get("verdict").and_then(Json::as_str) == Some("proved")
                            && self.goldens.matches_certs(slug, &certs)
                    });
                if ok {
                    self.verified.insert(item, digest);
                }
                ok
            }
            Expect::Ok(_) => status == 200 && self.cold.get(&item).is_some_and(|c| c == body),
            Expect::Error(want, kind) => {
                status == *want
                    && std::str::from_utf8(body)
                        .ok()
                        .and_then(|t| parse_json(t).ok())
                        .is_some_and(|j| j.get("error").and_then(Json::as_str) == Some(kind))
            }
        }
    }
}

/// The daemon's process entry: `perfbench daemon --store DIR --workers N
/// --port-file PATH` runs the same `Server` as `fig12 --serve`.
pub fn daemon_main(args: &[String]) {
    let mut cfg = ServeConfig::default();
    let mut port_file = None;
    for pair in args.chunks(2) {
        match (pair[0].as_str(), pair.get(1)) {
            ("--store", Some(v)) => cfg.store_dir = Some(PathBuf::from(v)),
            ("--workers", Some(v)) => cfg.workers = v.parse().unwrap_or(0),
            ("--port-file", Some(v)) => port_file = Some(PathBuf::from(v)),
            _ => std::process::exit(2),
        }
    }
    let server = Server::start(&cfg).unwrap_or_else(|e| {
        eprintln!("daemon: {e}");
        std::process::exit(1)
    });
    if let Some(path) = port_file {
        // Written through a rename so a waiting client never reads a
        // partial port.
        let tmp = path.with_extension("tmp");
        if std::fs::write(&tmp, format!("{}\n", server.port()))
            .and_then(|()| std::fs::rename(&tmp, &path))
            .is_err()
        {
            std::process::exit(1);
        }
    }
    server.join();
}

/// A daemon child process; dropping it kills and reaps the process.
struct Daemon {
    child: Option<Child>,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(store: &Path, workers: usize) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let port_file = store.with_extension("port");
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(exe)
            .arg("daemon")
            .arg("--store")
            .arg(store)
            .args(["--workers", &workers.to_string()])
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        let mut d = Daemon {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Some(port) = std::fs::read_to_string(&port_file)
                .ok()
                .and_then(|s| s.trim().parse::<u16>().ok())
            {
                d.addr.set_port(port);
                return Ok(d);
            }
            let exited = d
                .child
                .as_mut()
                .is_some_and(|c| matches!(c.try_wait(), Ok(Some(_))));
            if exited || Instant::now() > deadline {
                return Err("the daemon did not start".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn pid(&self) -> String {
        self.child
            .as_ref()
            .map_or_else(|| "self".into(), |c| c.id().to_string())
    }

    /// `POST /shutdown`, then waits for the process to exit (killing it
    /// after 10 s).
    fn shutdown(mut self) {
        let _ = one_shot(self.addr, &wire("POST", "/shutdown", b""));
        if let Some(mut child) = self.child.take() {
            let deadline = Instant::now() + Duration::from_secs(10);
            while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Scrapes `/metrics` on the monitoring connection (reopened if broken).
fn scrape(conn: &mut Option<Conn>, addr: SocketAddr) -> BTreeMap<String, u64> {
    if conn.is_none() {
        *conn = Conn::open(addr).ok();
    }
    let resp = conn
        .as_mut()
        .map(|c| c.exchange(&wire("GET", "/metrics", b"")));
    match resp {
        Some(Ok(r)) if r.status == 200 => {
            parse_exposition(&String::from_utf8_lossy(&r.body)).unwrap_or_default()
        }
        _ => {
            *conn = None;
            BTreeMap::new()
        }
    }
}

/// One set-up: an empty store, a daemon on it, one cold pass over the menu
/// (every answer checked and kept as the known answer), then a restart on
/// the warmed store. Returns the restarted daemon and the cold answers.
fn setup(
    out: &Path,
    menu: &[MenuItem],
    goldens: Goldens,
    k: usize,
) -> Result<(Daemon, Judge), String> {
    let store = out.join(format!("serve-store-{k}"));
    let _ = std::fs::remove_dir_all(&store);
    std::fs::create_dir_all(&store).map_err(|e| format!("{}: {e}", store.display()))?;
    let daemon = Daemon::spawn(&store, nproc())?;
    let mut judge = Judge {
        goldens,
        cold: BTreeMap::new(),
        verified: BTreeMap::new(),
    };
    let mut conn = Conn::open(daemon.addr).map_err(|e| format!("connect: {e}"))?;
    for (i, m) in menu.iter().enumerate() {
        let resp = conn.exchange(&m.wire)?;
        if matches!(m.expect, Expect::Ok(_)) && resp.status == 200 {
            judge.cold.insert(i, resp.body.clone());
        }
        if !judge.check(menu, i, resp.status, &resp.body) {
            return Err(format!("cold pass: `{}` answered {}", m.label, resp.status));
        }
    }
    daemon.shutdown();
    Ok((Daemon::spawn(&store, nproc())?, judge))
}

/// Per-step results.
struct Step {
    rate: f64,
    samples: Vec<Sample>,
    /// Whether each sample got its expected answer.
    ok: Vec<bool>,
    unsent: usize,
    window: Duration,
    /// Deltas of `DAEMON_COUNTERS` over the step.
    counters: Vec<u64>,
    /// The calibration kernel's median time during the step, in ms.
    kernel_ms: f64,
}

impl Step {
    fn failed(&self) -> usize {
        self.ok.iter().filter(|ok| !**ok).count()
    }

    /// Latencies from due; a failed request counts as missing the limit.
    fn latencies(&self) -> Vec<f64> {
        self.samples
            .iter()
            .zip(&self.ok)
            .map(|(s, &ok)| if ok { s.latency_ms() } else { f64::INFINITY })
            .collect()
    }

    /// Latencies scaled to the reference host speed by the kernel time
    /// during the step, raised to `exponent`.
    fn scaled_latencies(&self, exponent: f64) -> Vec<f64> {
        let scale = (REFERENCE_MS / self.kernel_ms).powf(exponent);
        self.latencies().into_iter().map(|l| l * scale).collect()
    }
}

pub fn run(ctx: &mut Ctx) -> RunResult {
    let mut values = Values::default();
    let mut check_errors = Vec::new();
    let menu = menu();
    let mut ready = None;
    for k in 0..SETUPS {
        let (root, out) = (&ctx.root, &ctx.out);
        let attempt = ctx
            .calibration
            .time_setup(|| Goldens::load(root).and_then(|g| setup(out, &menu, g, k)));
        match attempt {
            // Only the last set-up's daemon serves the ladder.
            Ok((daemon, judge)) if k == SETUPS - 1 => ready = Some((daemon, judge)),
            Ok((daemon, _)) => daemon.shutdown(),
            Err(e) => check_errors.push(e),
        }
    }
    let Some((daemon, mut judge)) = ready else {
        return RunResult::aborted(check_errors, values);
    };

    let conns = nproc();
    let wires: Vec<Vec<u8>> = menu.iter().map(|m| m.wire.clone()).collect();
    let mut rng = Rng::new(ctx.seed);
    let mut steps: Vec<Step> = Vec::new();
    // The load keeps `nproc` connections open for the whole ladder;
    // `/metrics` is read on one more.
    let mut load: Vec<Option<Conn>> = (0..conns).map(|_| None).collect();
    let mut monitor = None;
    let before = scrape(&mut monitor, daemon.addr);
    let mut op = 0u64;
    let reps = ((ctx.seconds / LADDER_SECONDS) as usize).max(1);
    for rep in 0..reps {
        for (si, &(rate, window)) in STEPS.iter().enumerate() {
            // Whole shuffled cycles of the menu, each request once, so every
            // step holds each request kind in the menu's own proportion
            // whatever the seed.
            let cycles = ((rate * window) as usize / menu.len()).max(1);
            let plan: Vec<Planned> = (0..cycles)
                .flat_map(|c| {
                    let order = shuffled(&mut rng, menu.len());
                    order.into_iter().map(move |item| (c, item))
                })
                .enumerate()
                .map(|(i, (c, item))| Planned {
                    due: Duration::from_secs_f64(i as f64 / rate),
                    item,
                    // Alternate whole cycles, so traced and untraced
                    // requests have the same mix.
                    traced: ctx.traced && (rep + c) % 2 == 1,
                })
                .collect();
            let window = Duration::from_secs_f64(window);
            let before_step = ctx.calibration.sample();
            let pre = scrape(&mut monitor, daemon.addr);
            let in_gaps = rate != STEPS[2].0;
            let mut out = run_step(daemon.addr, &wires, &plan, &mut load, window, in_gaps);
            let post = scrape(&mut monitor, daemon.addr);
            // The host speed during the step: the median kernel time in its
            // gaps, or just before it when the gaps held too few samples.
            let kernel_ms = if out.kernel_ms.len() >= 3 {
                median(&out.kernel_ms)
            } else {
                before_step
            };
            for &k in &out.kernel_ms {
                ctx.calibration.record(k);
            }
            let counters = DAEMON_COUNTERS
                .iter()
                .map(|c| sample_delta(&pre, &post, c))
                .collect();
            out.samples.sort_by_key(|s| s.plan.due);
            let ok = judge.judge(&menu, &out.samples);
            for (s, &good) in out.samples.iter().zip(&ok) {
                if !good {
                    eprintln!(
                        "serve-ladder: step {rate}/s: `{}` answered {}{}",
                        menu[s.plan.item].label,
                        s.status,
                        s.error
                            .as_deref()
                            .map(|e| format!(" ({e})"))
                            .unwrap_or_default()
                    );
                }
                let counters = format!("{} {:016x}", s.status, islaris_obs::fnv1a(&s.body));
                let key = format!("serve-ladder/{}", menu[s.plan.item].label);
                if good && !ctx.ledger.check(&key, &counters) {
                    eprintln!("serve-ladder: `{key}` answered differently than before");
                }
                if let Some(spans) = ctx.spans.as_mut() {
                    record_spans(spans, s, out.start, op, si);
                }
                op += 1;
            }
            steps.push(Step {
                rate,
                samples: out.samples,
                ok,
                unsent: out.unsent,
                window,
                counters,
                kernel_ms,
            });
        }
    }
    let after = scrape(&mut monitor, daemon.addr);
    drop((load, monitor));
    let rss = peak_rss_mb(&daemon.pid());
    daemon.shutdown();

    // End to end: latencies pooled per rate over the repetitions, capacity
    // as the median over them.
    let at = |rate: f64| steps.iter().filter(move |s| s.rate == rate);
    let mut max_rps = 0.0;
    for &(rate, _) in &STEPS {
        let latencies: Vec<f64> = at(rate).flat_map(Step::latencies).collect();
        let pooled = summarize(&latencies);
        let unsent = at(rate).map(|s| s.unsent).max().unwrap_or(0);
        let pass = pooled.p95 <= LIMIT_MS && unsent <= conns;
        if pass {
            max_rps = rate;
        }
        let per_rep: Vec<String> = at(rate)
            .map(|s| {
                let x = summarize(&s.latencies());
                format!("{:.2}/{:.2}", x.p50, x.p95)
            })
            .collect();
        println!(
            "serve-ladder: {rate:>4}/s: {} sent, max {unsent} unsent, {} failed, pooled p50 {:.3} ms \
             p95 {:.3} ms (n={}), per repetition p50/p95 ms {}: {}",
            pooled.n,
            at(rate).map(Step::failed).sum::<usize>(),
            pooled.p50,
            pooled.p95,
            pooled.n,
            per_rep.join(" "),
            if pass { "pass" } else { "over the limit" }
        );
    }
    let (low, high, top) = (STEPS[0].0, STEPS[1].0, STEPS[2].0);
    // The reported latencies are scaled step by step, by the kernel's
    // median time in the step's own gaps: host speed drifts within a run,
    // and a step lasts a few seconds.
    let scaled = |rate: f64, exponent: f64| {
        summarize(
            &at(rate)
                .flat_map(|s| s.scaled_latencies(exponent))
                .collect::<Vec<_>>(),
        )
    };
    values.set("p50_ms", scaled(low, 1.0).p50);
    values.set("p95_ms", scaled(low, TAIL_EXPONENT).p95);
    values.set("p95_ms_high", scaled(high, TAIL_EXPONENT).p95);
    values.set("max_rps", max_rps);
    let goodput: Vec<f64> = at(top)
        .map(|s| {
            let last = s.samples.iter().map(|x| x.done).max().unwrap_or(s.window);
            (s.samples.len() - s.failed()) as f64 / last.as_secs_f64().max(1e-9)
        })
        .collect();
    values.set("ops_per_s", median(&goodput));
    values.set("peak_rss_mb", rss);
    let (attempted, failed, share) = fail_share(&steps);
    values.set("fail_share", share);

    // Per layer, over the whole ladder.
    let measured: Vec<&Sample> = steps.iter().flat_map(|s| &s.samples).collect();
    let server: Vec<f64> = measured
        .iter()
        .filter_map(|s| s.server_ns.map(|ns| ns as f64 / 1e6))
        .collect();
    let transport: Vec<f64> = measured
        .iter()
        .filter_map(|s| s.server_ns.map(|ns| s.exchange_ms() - ns as f64 / 1e6))
        .collect();
    let late: Vec<f64> = measured.iter().map(|s| s.late_ms()).collect();
    values.set_summary("serve.server_ms", summarize(&server));
    values.set_summary("serve.transport_ms", summarize(&transport));
    values.set_summary("serve.generator_late_ms", summarize(&late));
    let (before, after) = (&before, &after);
    values.set_summary(
        "serve.queue_wait_ms",
        histogram_summary_ms(before, after, "islaris_queue_wait_wall_ns"),
    );
    for kind in ["case", "trace", "check"] {
        values.set_summary(
            &format!("serve.exec_ms.{kind}"),
            histogram_summary_ms(before, after, &format!("islaris_exec_{kind}_wall_ns")),
        );
    }
    let delta = |name: &str| sample_delta(before, after, name) as f64;
    let (th, tm) = (
        delta("islaris_trace_cache_hits"),
        delta("islaris_trace_cache_misses"),
    );
    values.set("cache.trace_hit_ratio", th / (th + tm).max(1.0));
    // The daemon exports no query-cache hit counter: count as misses the
    // queries it had to solve afresh (store misses), against the lookups
    // the certificate replays of the answered cases made.
    let fresh = delta("islaris_store_disk_misses{store=\"queries\"}");
    let lookups: f64 = measured
        .iter()
        .filter(|s| matches!(menu[s.plan.item].expect, Expect::Case(_)) && s.status == 200)
        .map(|s| cert_bv(&s.body))
        .sum();
    values.set("cache.query_hit_ratio", 1.0 - fresh / lookups.max(1.0));
    let (ih, it) = (
        delta("islaris_intern_hits"),
        delta("islaris_interned_terms"),
    );
    values.set("smt.intern_hit_ratio", ih / (ih + it).max(1.0));
    let gauge = |name: &str| after.get(name).copied().unwrap_or(0) as f64;
    values.set(
        "store.disk_hits.traces",
        gauge("islaris_store_disk_hits{store=\"traces\"}"),
    );
    values.set(
        "store.disk_hits.queries",
        gauge("islaris_store_disk_hits{store=\"queries\"}"),
    );
    values.set(
        "store.evictions",
        gauge("islaris_store_evictions{store=\"traces\"}")
            + gauge("islaris_store_evictions{store=\"queries\"}"),
    );
    // Per-case latency and the tracing overhead are read below the top
    // step, whose latencies are dominated by its growing backlog.
    let unsaturated: Vec<&Sample> = steps
        .iter()
        .filter(|s| s.rate != top)
        .flat_map(|s| &s.samples)
        .collect();
    for c in islaris_cases::ALL_CASES {
        let lat: Vec<f64> = unsaturated
            .iter()
            .filter(|s| matches!(menu[s.plan.item].expect, Expect::Case(slug) if slug == c.slug))
            .map(|s| s.latency_ms())
            .collect();
        values.set(format!("case.{}.ms", c.slug), median(&lat));
    }
    if ctx.traced {
        let half = |traced: bool| -> Vec<f64> {
            unsaturated
                .iter()
                .filter(|s| s.plan.traced == traced)
                .map(|s| s.latency_ms())
                .collect()
        };
        values.set(
            "trace.overhead_share",
            median(&half(true)) / median(&half(false)).max(f64::MIN_POSITIVE) - 1.0,
        );
    }

    // Daemon counters over the low and high steps: when every planned
    // request was sent, they repeat exactly for a seed.
    let mut totals = vec![0u64; DAEMON_COUNTERS.len()];
    let mut complete = failed == 0;
    for st in steps.iter().filter(|s| s.rate != top) {
        complete &= st.unsent == 0;
        for (t, c) in totals.iter_mut().zip(&st.counters) {
            *t += c;
        }
    }
    let text: Vec<String> = DAEMON_COUNTERS
        .iter()
        .zip(&totals)
        .map(|(c, v)| format!("{c}={v}"))
        .collect();
    let work_key = format!("serve-ladder/metrics/seed{}", ctx.seed);
    let work_text = text.join(" ");
    if complete && !ctx.ledger.check(&work_key, &work_text) {
        eprintln!("serve-ladder: /metrics counters differ from an earlier run of this seed");
    }
    RunResult {
        attempted: attempted as u64,
        failed: failed as u64,
        check_errors,
        values,
        work: vec![(work_key, work_text)],
    }
}

/// `profile.cert.bv` of a case answer: the certificate replay's bitvector
/// obligations, each one query-cache lookup.
fn cert_bv(body: &[u8]) -> f64 {
    std::str::from_utf8(body)
        .ok()
        .and_then(|t| parse_json(t).ok())
        .and_then(|j| {
            j.get("profile")
                .and_then(|p| p.get("cert"))
                .and_then(|c| c.get("bv"))
                .and_then(Json::as_u64)
        })
        .map_or(0.0, |v| v as f64)
}

/// Requests attempted (sent) and failed over all steps, and their ratio.
/// Requests left unsent when a step's window closed were not attempted.
fn fail_share(steps: &[Step]) -> (usize, usize, f64) {
    let attempted: usize = steps.iter().map(|s| s.samples.len()).sum();
    let failed: usize = steps.iter().map(Step::failed).sum();
    (attempted, failed, failed as f64 / attempted.max(1) as f64)
}

fn record_spans(spans: &mut crate::spans::Spans, s: &Sample, base: Instant, op: u64, step: usize) {
    if s.spans.is_empty() {
        return;
    }
    let tid = step * 16 + s.conn;
    let mut parent = None;
    for &(name, start, dur) in &s.spans {
        let idx = spans.record(name, op, parent, tid, base + start, dur);
        parent.get_or_insert(idx);
    }
    if let Some(ns) = s.server_ns {
        spans.record(
            "serve.server",
            op,
            parent,
            tid,
            base + s.sent,
            Duration::from_nanos(ns),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn judge() -> Judge {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        Judge {
            goldens: Goldens::load(&root).expect("golden certificates"),
            cold: BTreeMap::new(),
            verified: BTreeMap::new(),
        }
    }

    fn plan(items: &[usize]) -> Vec<Planned> {
        items
            .iter()
            .enumerate()
            .map(|(i, &item)| Planned {
                due: Duration::from_millis(i as u64),
                item,
                traced: false,
            })
            .collect()
    }

    #[test]
    fn the_menu_has_a_known_answer_for_every_request() {
        let menu = menu();
        let cases = menu
            .iter()
            .filter(|m| matches!(m.expect, Expect::Case(_)))
            .count();
        assert_eq!(cases, islaris_cases::ALL_CASES.len());
        let errors: Vec<(u16, &str)> = menu
            .iter()
            .filter_map(|m| match m.expect {
                Expect::Error(s, k) => Some((s, k)),
                _ => None,
            })
            .collect();
        assert_eq!(
            errors,
            vec![
                (404, "unknown-case"),
                (400, "invalid-json"),
                (400, "bad-opcode")
            ]
        );
    }

    #[test]
    fn refused_requests_count_in_fail_share() {
        let menu = menu();
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let wires: Vec<Vec<u8>> = menu.iter().map(|m| m.wire.clone()).collect();
        let all: Vec<usize> = (0..menu.len()).collect();
        let mut conns: Vec<Option<Conn>> = (0..2).map(|_| None).collect();
        let out = run_step(
            addr,
            &wires,
            &plan(&all),
            &mut conns,
            Duration::from_secs(5),
            false,
        );
        let mut j = judge();
        let ok = j.judge(&menu, &out.samples);
        let refused = Step {
            rate: 1.0,
            samples: out.samples,
            ok,
            unsent: out.unsent,
            window: Duration::from_secs(5),
            counters: Vec::new(),
            kernel_ms: REFERENCE_MS,
        };
        // Every refused request is attempted and failed, typed-error
        // probes included.
        assert_eq!(fail_share(&[refused]), (menu.len(), menu.len(), 1.0));
    }

    #[test]
    fn wrong_status_or_body_fails_and_unsent_is_not_attempted() {
        let menu = menu();
        let mut j = judge();
        let health = menu
            .iter()
            .position(|m| m.label.contains("/health"))
            .unwrap();
        j.cold.insert(health, br#"{"ok":true}"#.to_vec());
        let sample = |status: u16, body: &[u8]| Sample {
            plan: plan(&[health])[0],
            conn: 0,
            sent: Duration::ZERO,
            done: Duration::from_millis(1),
            status,
            body: body.to_vec(),
            server_ns: None,
            error: None,
            spans: Vec::new(),
        };
        let samples = vec![
            sample(200, br#"{"ok":true}"#),
            sample(503, br#"{"error":"overloaded"}"#),
            sample(200, br#"{"ok":false}"#),
            sample(200, br#"{"ok":true}"#),
        ];
        let ok = j.judge(&menu, &samples);
        assert_eq!(ok, vec![true, false, false, true]);
        let step = Step {
            rate: 1.0,
            samples,
            ok,
            unsent: 7,
            window: Duration::from_secs(1),
            counters: Vec::new(),
            kernel_ms: 2.0 * REFERENCE_MS,
        };
        // A step run at half the reference speed reports half its
        // latencies, or a quarter when scaled by the square; a failed
        // request stays over any limit.
        let (raw, scaled) = (step.latencies(), step.scaled_latencies(1.0));
        assert!(raw[0] > 0.0 && (scaled[0] - raw[0] / 2.0).abs() < 1e-12);
        assert!((step.scaled_latencies(2.0)[0] - raw[0] / 4.0).abs() < 1e-12);
        assert!(scaled[1].is_infinite());
        assert_eq!(fail_share(&[step]), (4, 2, 0.5));
    }
}
