//! `verify-batch`: the Fig. 12 pipeline in process on one thread, with no
//! trace or query cache and the default `SatConfig`. Each round runs all
//! nine cases in a seeded order; each case is `(def.build)`, then
//! `Verifier::verify_all`, then `check_certificate_cached` on every block.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use islaris_cases::{CaseCtx, ALL_CASES};
use islaris_core::cert::Obligation;
use islaris_core::{check_certificate_cached, obligations_digest, Report, Verifier};
use islaris_obs::{CaseProfile, CertMetrics, EngineMetrics, IslaMetrics, QueryTable, SailMetrics};
use islaris_smt::lia::implies;
use islaris_smt::{entails, propagate_constants, simplify, Expr, SolverConfig, Sort, Var};
use islaris_testkit::Rng;

use crate::golden::Goldens;
use crate::output::{RunResult, Values};
use crate::stats::{blocked, median, summarize};
use crate::{ms, shuffled, Ctx, BLOCKS, SETUPS};

/// Wall time of one case, split at the three public calls.
struct CaseRun {
    idx: usize,
    start: Instant,
    build: Duration,
    /// Trace generation inside `build`, as the case's `IslaStats` time it.
    isla: Duration,
    verify: Duration,
    replay: Duration,
    profile: CaseProfile,
    report: Option<Report>,
    error: Option<String>,
}

impl CaseRun {
    fn total(&self) -> Duration {
        self.build + self.verify + self.replay
    }
}

fn run_case(idx: usize) -> CaseRun {
    let def = &ALL_CASES[idx];
    let t0 = Instant::now();
    let art = (def.build)(&CaseCtx::default());
    let build = t0.elapsed();
    let stats = art.isla_stats.clone();
    let mut profile = CaseProfile {
        sail: SailMetrics {
            steps: stats.model_steps,
            calls: stats.model_calls,
        },
        isla: IslaMetrics {
            runs: stats.runs,
            branches_explored: stats.branches_explored,
            branches_pruned: stats.branches_pruned,
            smt_queries: stats.smt_queries,
            events: stats.events as u64,
        },
        isla_smt: stats.solver,
        ..CaseProfile::default()
    };
    let mut run = CaseRun {
        idx,
        start: t0,
        build,
        isla: stats.time,
        verify: Duration::ZERO,
        replay: Duration::ZERO,
        profile,
        report: None,
        error: None,
    };

    let t1 = Instant::now();
    let verified = Verifier::new(art.prog_spec, art.protocol).verify_all();
    run.verify = t1.elapsed();
    let report = match verified {
        Ok(r) => r,
        Err(e) => {
            run.error = Some(format!("not proved: {e}"));
            return run;
        }
    };

    let t2 = Instant::now();
    let mut cert = CertMetrics::default();
    let mut replay_error = None;
    for b in &report.blocks {
        let mut cm = CertMetrics::default();
        let mut qt = QueryTable::default();
        if let Err(e) = check_certificate_cached(&b.cert, &mut cm, &mut qt, None) {
            replay_error.get_or_insert(format!("certificate rejected: {e}"));
        }
        cert.absorb(&cm);
    }
    run.replay = t2.elapsed();

    for b in &report.blocks {
        profile.engine.absorb(&EngineMetrics {
            events: b.stats.events,
            instructions: b.stats.instructions,
            smt_queries: b.stats.smt_queries,
            lia_queries: b.stats.lia_queries,
            obligations: b.stats.obligations,
            vacuous_branches: b.stats.vacuous_branches,
            blocks_parallel: 0,
        });
        profile.engine_smt.absorb(&b.stats.solver);
        profile.session.absorb(&b.stats.session);
    }
    profile.engine.blocks_parallel = report.blocks.len() as u64;
    profile.cert = cert;
    run.profile = profile;
    run.error = replay_error;
    run.report = Some(report);
    run
}

/// Runs one case, turning a panic inside the pipeline into a failure.
fn run_case_guarded(idx: usize) -> CaseRun {
    catch_unwind(AssertUnwindSafe(|| run_case(idx))).unwrap_or_else(|_| CaseRun {
        idx,
        start: Instant::now(),
        build: Duration::ZERO,
        isla: Duration::ZERO,
        verify: Duration::ZERO,
        replay: Duration::ZERO,
        profile: CaseProfile::default(),
        report: None,
        error: Some("pipeline panicked".into()),
    })
}

/// Whether a case run is a success: proved, every certificate accepted,
/// and certificates equal to the golden files.
fn check(run: &CaseRun, goldens: &Goldens) -> Result<(), String> {
    if let Some(e) = &run.error {
        return Err(e.clone());
    }
    let slug = ALL_CASES[run.idx].slug;
    match &run.report {
        Some(r) if goldens.matches_report(slug, r) => Ok(()),
        _ => Err("certificates differ from tests/golden".into()),
    }
}

/// Per-obligation timings of the certificate replay's parts (traced runs
/// only): word-level rewriting, the paranoid entailment, and LIA.
#[derive(Default)]
struct SmtSplit {
    simplify: Vec<f64>,
    entails: Vec<f64>,
    lia: Vec<f64>,
    /// Per block: recomputing the order digest the checker verifies first.
    digest: Vec<f64>,
    rejected: usize,
}

fn smt_split(report: &Report, split: &mut SmtSplit, trace: &mut TraceSink<'_>) {
    let cfg = SolverConfig::paranoid();
    for b in &report.blocks {
        let t = Instant::now();
        black_box(obligations_digest(&b.cert.obligations));
        let d = t.elapsed();
        trace.span("cert.digest", t, d);
        split.digest.push(ms(d));
        for ob in &b.cert.obligations {
            match ob {
                Obligation::Bv { facts, goal, sorts } => {
                    let lookup = |v: Var| sorts.iter().find(|(w, _)| *w == v).map(|(_, s)| *s);
                    let widths = |v: Var| match lookup(v) {
                        Some(Sort::BitVec(w)) => Some(w),
                        _ => None,
                    };
                    let t = Instant::now();
                    let mut q: Vec<Expr> = facts.iter().map(simplify).collect();
                    q.push(simplify(&Expr::not(goal.clone())));
                    black_box(propagate_constants(&q, &widths));
                    let d = t.elapsed();
                    trace.span("smt.simplify", t, d);
                    split.simplify.push(ms(d));

                    let t = Instant::now();
                    let ok = entails(facts, goal, &lookup, &cfg);
                    let d = t.elapsed();
                    trace.span("smt.entails", t, d);
                    split.entails.push(ms(d));
                    split.rejected += usize::from(!ok);
                }
                Obligation::Lia { facts, goal } => {
                    let t = Instant::now();
                    let ok = implies(facts, goal);
                    let d = t.elapsed();
                    trace.span("smt.lia", t, d);
                    split.lia.push(ms(d));
                    split.rejected += usize::from(!ok);
                }
            }
        }
    }
}

/// Span recording for one operation, a no-op in untraced rounds.
struct TraceSink<'a> {
    spans: Option<&'a mut crate::spans::Spans>,
    op: u64,
    parent: Option<usize>,
}

impl TraceSink<'_> {
    fn span(&mut self, name: &'static str, start: Instant, dur: Duration) -> Option<usize> {
        let spans = self.spans.as_deref_mut()?;
        Some(spans.record(name, self.op, self.parent, 0, start, dur))
    }
}

/// One full set-up: load the known answers and run one untimed round.
fn setup(root: &Path) -> Result<Goldens, String> {
    let goldens = Goldens::load(root)?;
    for (idx, case) in ALL_CASES.iter().enumerate() {
        let run = run_case_guarded(idx);
        check(&run, &goldens).map_err(|e| format!("set-up {}: {e}", case.slug))?;
    }
    Ok(goldens)
}

pub fn run(ctx: &mut Ctx) -> RunResult {
    let mut values = Values::default();
    let mut check_errors = Vec::new();
    let mut goldens = None;
    for _ in 0..SETUPS {
        let root = &ctx.root;
        match ctx.calibration.time_setup(|| setup(root)) {
            Ok(g) => goldens = Some(g),
            Err(e) => check_errors.push(e),
        }
    }
    let Some(goldens) = goldens else {
        return RunResult::aborted(check_errors, values);
    };

    let n = ALL_CASES.len();
    let mut rng = Rng::new(ctx.seed);
    let mut case_ms: Vec<Vec<f64>> = vec![Vec::new(); n];
    let (mut build_ms, mut isla_ms, mut verify_ms, mut replay_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // Per case, over traced rounds: case, build, isla (inside build),
    // verify and replay time and the replay's parts (entailments, LIA,
    // order digest), for the attribution table.
    let mut attrib = vec![[0.0f64; 8]; n];
    let mut split = SmtSplit::default();
    let mut round_ms: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    // Per untraced round, the case times in ms.
    let mut rounds: Vec<Vec<f64>> = Vec::new();
    let mut round_work: Option<CaseProfile> = None;
    let mut case_work: Vec<(String, String)> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (terms0, hits0) = islaris_smt::interner_stats();

    let start = Instant::now();
    let mut round = 0u64;
    while start.elapsed().as_secs_f64() < ctx.seconds {
        ctx.calibration.sample();
        let traced = ctx.traced && round % 2 == 1;
        let mut round_total = 0.0;
        let mut times = Vec::new();
        let mut totals = CaseProfile::default();
        for idx in shuffled(&mut rng, n) {
            let slug = ALL_CASES[idx].slug;
            let run = run_case_guarded(idx);
            attempted += 1;
            if let Err(e) = check(&run, &goldens) {
                failed += 1;
                eprintln!("verify-batch: {slug}: {e}");
                continue;
            }
            let key = format!("verify-batch/{slug}");
            let work = run.profile.render(slug);
            if !ctx.ledger.check(&key, &work) {
                eprintln!("verify-batch: {slug}: work counters differ from an earlier run");
            }
            if !case_work.iter().any(|(k, _)| *k == key) {
                case_work.push((key, work));
            }
            absorb_profile(&mut totals, &run.profile);
            let total = ms(run.total());
            round_total += total;
            times.push(total);
            case_ms[idx].push(total);
            if !traced {
                continue;
            }
            build_ms.push(ms(run.build));
            isla_ms.push(ms(run.isla));
            verify_ms.push(ms(run.verify));
            replay_ms.push(ms(run.replay));
            let op = round * n as u64 + idx as u64;
            let mut case = None;
            if let Some(spans) = ctx.spans.as_mut() {
                // The build's isla child is the trace-generation time the
                // case reports itself, laid out at the start of the build.
                let t0 = run.start;
                let c = spans.record("case", op, None, 0, t0, run.total());
                case = Some(c);
                let build = spans.record("cases.build", op, Some(c), 0, t0, run.build);
                spans.record("isla.trace", op, Some(build), 0, t0, run.isla);
                spans.record("engine.verify", op, Some(c), 0, t0 + run.build, run.verify);
                spans.record(
                    "cert.replay",
                    op,
                    Some(c),
                    0,
                    t0 + run.build + run.verify,
                    run.replay,
                );
            }
            let sums =
                |s: &SmtSplit| [&s.entails, &s.lia, &s.digest].map(|v| v.iter().sum::<f64>());
            let before = sums(&split);
            let mut sink = TraceSink {
                spans: ctx.spans.as_mut(),
                op,
                parent: case,
            };
            if let Some(report) = &run.report {
                smt_split(report, &mut split, &mut sink);
            }
            let after = sums(&split);
            let a = &mut attrib[idx];
            a[0] += total;
            a[1] += ms(run.build);
            a[2] += ms(run.isla);
            a[3] += ms(run.verify);
            a[4] += ms(run.replay);
            for k in 0..3 {
                a[5 + k] += after[k] - before[k];
            }
        }
        round_ms[usize::from(traced)].push(round_total);
        if !traced {
            rounds.push(times);
        }
        round_work.get_or_insert(totals);
        round += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();

    let all: Vec<f64> = case_ms.iter().flatten().copied().collect();
    let (ops, s) = blocked(&rounds, BLOCKS);
    values.set("ops_per_s", ops);
    values.set("p50_ms", s.p50);
    values.set("p95_ms", s.p95);
    // One closed-loop thread is a single load level: its "high" step and
    // its highest sustained rate are the same measurement.
    values.set("p95_ms_high", s.p95);
    values.set("max_rps", ops);
    values.set("fail_share", failed as f64 / attempted.max(1) as f64);
    for (idx, c) in ALL_CASES.iter().enumerate() {
        values.set(format!("case.{}.ms", c.slug), median(&case_ms[idx]));
    }
    if let Some(w) = &round_work {
        set_profile_counters(&mut values, w);
    }
    let (terms1, hits1) = islaris_smt::interner_stats();
    let (terms, hits) = ((terms1 - terms0) as f64, (hits1 - hits0) as f64);
    values.set("smt.intern_hit_ratio", hits / (terms + hits).max(1.0));

    if ctx.traced {
        values.set_summary("cases.build_ms", summarize(&build_ms));
        values.set_summary("isla.trace_ms", summarize(&isla_ms));
        values.set_summary("engine.verify_ms", summarize(&verify_ms));
        values.set_summary("cert.replay_ms", summarize(&replay_ms));
        values.set_summary("smt.simplify_ms", summarize(&split.simplify));
        values.set_summary("smt.entails_ms", summarize(&split.entails));
        values.set_summary("smt.lia_ms", summarize(&split.lia));
        let case_sum: f64 = attrib.iter().map(|a| a[0]).sum();
        values.set(
            "cert.replay_share",
            replay_ms.iter().sum::<f64>() / case_sum.max(f64::MIN_POSITIVE),
        );
        values.set(
            "trace.overhead_share",
            median(&round_ms[1]) / median(&round_ms[0]).max(f64::MIN_POSITIVE) - 1.0,
        );
        // Case time is build + verify + replay, each timed directly. What
        // the timed layers beneath them leave unattributed is the part of
        // build outside isla's trace generation, and the part of replay
        // that the separately timed entailments, LIA and digest do not
        // account for.
        let mut flagged = 0;
        println!("layer table (ms per case, summed over traced rounds):");
        println!(
            "  {:<16} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>7}",
            "case",
            "case",
            "build",
            "isla",
            "b-rest",
            "verify",
            "replay",
            "entails",
            "lia",
            "digest",
            "r-rest",
            "unattr"
        );
        for (idx, c) in ALL_CASES.iter().enumerate() {
            let [case, build, isla, verify, replay, entails, lia, digest] = attrib[idx];
            let build_rest = build - isla;
            let replay_rest = replay - entails - lia - digest;
            let unattributed = (build_rest + replay_rest) / case.max(f64::MIN_POSITIVE);
            values.set(format!("case.{}.unattributed_share", c.slug), unattributed);
            let flag = if unattributed.abs() > 0.10 {
                flagged += 1;
                " FLAG >10%"
            } else {
                ""
            };
            println!(
                "  {:<16} {case:>8.1} {build:>8.1} {isla:>8.1} {build_rest:>8.1} {verify:>8.1} \
                 {replay:>8.1} {entails:>8.1} {lia:>8.1} {digest:>8.1} {replay_rest:>8.1} \
                 {:>6.1}%{flag}",
                c.slug,
                unattributed * 100.0
            );
        }
        values.set("attribution.flagged", f64::from(flagged));
        if split.rejected > 0 {
            check_errors.push(format!(
                "{} obligations did not re-prove in the traced split",
                split.rejected
            ));
        }
    }
    println!(
        "verify-batch: {round} rounds, {} cases in {elapsed:.2}s; medians over {BLOCKS} blocks: \
         {ops:.2} cases/s, p50 {:.3} ms, p95 {:.3} ms (n={})",
        all.len(),
        s.p50,
        s.p95,
        s.n
    );
    RunResult {
        attempted,
        failed,
        check_errors,
        values,
        work: case_work
            .into_iter()
            .chain(round_work.map(|w| ("verify-batch/round".to_string(), w.render("round"))))
            .collect(),
    }
}

fn absorb_profile(total: &mut CaseProfile, p: &CaseProfile) {
    total.sail.absorb(&p.sail);
    total.isla.absorb(&p.isla);
    total.isla_smt.absorb(&p.isla_smt);
    total.engine.absorb(&p.engine);
    total.engine_smt.absorb(&p.engine_smt);
    total.session.absorb(&p.session);
    total.cert.absorb(&p.cert);
}

fn set_profile_counters(values: &mut Values, w: &CaseProfile) {
    let counters = [
        ("sail.steps", w.sail.steps),
        ("isla.runs", w.isla.runs),
        ("isla.branches_explored", w.isla.branches_explored),
        ("isla.branches_pruned", w.isla.branches_pruned),
        ("isla.smt.queries", w.isla_smt.queries),
        ("isla.smt.cnf_clauses", w.isla_smt.cnf_clauses),
        ("engine.obligations", w.engine.obligations),
        ("engine.smt_queries", w.engine.smt_queries),
        ("engine.lia_queries", w.engine.lia_queries),
        ("eng.smt.cnf_clauses", w.engine_smt.cnf_clauses),
        ("eng.smt.propagations", w.engine_smt.propagations),
        ("eng.smt.conflicts", w.engine_smt.conflicts),
        ("sess.clauses_retained", w.session.clauses_retained),
        ("sess.fallback_solves", w.session.fallback_solves),
        ("cert.bv", w.cert.bv),
        ("cert.lia", w.cert.lia),
        ("cert.smt.cnf_clauses", w.cert.solver.cnf_clauses),
        ("cert.smt.propagations", w.cert.solver.propagations),
        ("cert.smt.trimmed", w.cert.solver.trimmed),
    ];
    for (name, v) in counters {
        values.set(name, v as f64);
    }
}
