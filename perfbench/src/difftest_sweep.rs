//! `difftest-sweep`: opcodes drawn from the seed the way `run_fuzz` draws
//! them (class seeds, grammar samples, bit flips of class seeds and byte
//! flips of `cases::corpus`), each traced with `trace_opcode` under the
//! canonical configuration and checked by `Oracle::check_opcode`. The
//! engine and the certificate checker do no work here.

use std::time::{Duration, Instant};

use islaris_asm::classify;
use islaris_difftest::{canonical_config, shipped_targets, Oracle, Target};
use islaris_isla::{trace_opcode, IslaConfig, Opcode};
use islaris_obs::DiffMetrics;
use islaris_testkit::Rng;

use crate::output::{RunResult, Values};
use crate::stats::{blocked, median, summarize};
use crate::{ms, Ctx, BLOCKS, SETUPS};

/// Opcodes per round, split evenly between Arm and RISC-V. Every round
/// checks the same seeded population, so its counters repeat exactly; it is
/// large enough that the mix of cheap and costly opcodes barely changes
/// from seed to seed.
const POPULATION: u64 = 4000;

/// Opcodes between two host-speed samples (about a tenth of a second).
const CALIBRATE_EVERY: usize = 250;

/// The fuzzer's generation rule: class seeds first, then a rotation of
/// grammar samples, single-bit flips of class seeds and byte flips of the
/// case-study corpus.
fn generate(target: &Target<'_>, rng: &mut Rng, i: u64) -> u32 {
    let classes = target.classes;
    if let Some(c) = usize::try_from(i).ok().and_then(|i| classes.get(i)) {
        return c.seed;
    }
    match i % 3 {
        0 => classes[rng.index(classes.len())].sample(rng.next_u32()),
        1 => classes[rng.index(classes.len())].seed ^ (1 << rng.range_u32(0, 31)),
        _ if target.corpus.is_empty() => classes[rng.index(classes.len())].sample(rng.next_u32()),
        _ => {
            let base = target.corpus[rng.index(target.corpus.len())];
            base ^ (u32::from(rng.next_u8()) << (8 * rng.range_u32(0, 3)))
        }
    }
}

/// The seeded population: `(target index, opcode, class)`, per target
/// from its own stream exactly as `run_fuzz` seeds it.
fn population(targets: &[Target<'_>], seed: u64) -> Vec<(usize, u32, &'static str)> {
    let quota = POPULATION / targets.len() as u64;
    let mut items = Vec::new();
    for (ti, target) in targets.iter().enumerate() {
        let mut rng = Rng::new(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(ti as u64 + 1));
        for i in 0..quota {
            let op = generate(target, &mut rng, i);
            items.push((ti, op, classify(target.classes, op)));
        }
    }
    items
}

/// One checked opcode.
struct OpRun {
    trace: Duration,
    oracle: Duration,
    metrics: DiffMetrics,
    /// Symbolic-execution counters: model steps, runs, branches explored
    /// and pruned, SMT queries, CNF clauses.
    isla: [u64; 6],
}

fn check_op(
    oracle: &Oracle<'_>,
    cfg: &IslaConfig,
    op: u32,
    class: &'static str,
    seed: u64,
) -> OpRun {
    let mut run = OpRun {
        trace: Duration::ZERO,
        oracle: Duration::ZERO,
        metrics: DiffMetrics {
            opcodes: 1,
            ..DiffMetrics::default()
        },
        isla: [0; 6],
    };
    let t0 = Instant::now();
    let traced = trace_opcode(cfg, &Opcode::Concrete(op));
    run.trace = t0.elapsed();
    let Ok(result) = traced else {
        run.metrics.trace_errors = 1;
        return run;
    };
    let t1 = Instant::now();
    let o = oracle.check_opcode(op, &result, class, seed);
    run.oracle = t1.elapsed();
    let s = &result.stats;
    run.isla = [
        s.model_steps,
        s.runs,
        s.branches_explored,
        s.branches_pruned,
        s.smt_queries,
        s.solver.cnf_clauses,
    ];
    run.metrics.paths = o.paths;
    run.metrics.vacuous = o.vacuous;
    run.metrics.unknown = o.unknown;
    run.metrics.models_sampled = o.models_sampled;
    run.metrics.replays = o.replays;
    run.metrics.divergences = o.divergences.len() as u64;
    for d in &o.divergences {
        eprintln!("difftest-sweep: divergence\n{}", d.render());
    }
    run
}

struct Setup<'m> {
    items: Vec<(usize, u32, &'static str)>,
    oracles: Vec<Oracle<'m>>,
    configs: Vec<IslaConfig>,
}

/// One full set-up: draw the population and build the per-architecture
/// oracles and configurations.
fn setup<'m>(targets: &[Target<'m>], seed: u64) -> Result<Setup<'m>, String> {
    let items = population(targets, seed);
    let oracles = targets
        .iter()
        .map(|t| Oracle::new(t.arch, t.concrete).map_err(|e| format!("oracle: {e:?}")))
        .collect::<Result<Vec<_>, _>>()?;
    let configs: Vec<IslaConfig> = targets.iter().map(|t| canonical_config(t.arch)).collect();
    Ok(Setup {
        items,
        oracles,
        configs,
    })
}

/// Checks the first 256 opcodes of the population once, untimed, before
/// the measurement. Their cost depends on the seed's draws, so it is kept
/// out of `setup_s`.
fn precheck(s: &Setup<'_>, seed: u64) -> Result<(), String> {
    for &(ti, op, class) in s.items.iter().take(256) {
        if check_op(&s.oracles[ti], &s.configs[ti], op, class, seed)
            .metrics
            .divergences
            > 0
        {
            return Err(format!("set-up: opcode {op:#010x} diverges"));
        }
    }
    Ok(())
}

pub fn run(ctx: &mut Ctx) -> RunResult {
    let targets = shipped_targets();
    let mut values = Values::default();
    let mut check_errors = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        match ctx.calibration.time_setup(|| setup(&targets, ctx.seed)) {
            Ok(s) => ready = Some(s),
            Err(e) => check_errors.push(e),
        }
    }
    if let Some(Err(e)) = ready.as_ref().map(|s| precheck(s, ctx.seed)) {
        check_errors.push(e);
        ready = None;
    }
    let Some(Setup {
        items,
        oracles,
        configs,
    }) = ready
    else {
        return RunResult::aborted(check_errors, values);
    };

    // Per untraced round, the opcode times in ms.
    let mut rounds: Vec<Vec<f64>> = Vec::new();
    let mut attempted_ops = 0usize;
    let (mut trace_ms, mut oracle_ms) = (Vec::new(), Vec::new());
    let mut round_ms: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut first_round: Option<(DiffMetrics, [u64; 6])> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (terms0, hits0) = islaris_smt::interner_stats();
    let start = Instant::now();
    let mut round = 0u64;
    while start.elapsed().as_secs_f64() < ctx.seconds {
        let traced = ctx.traced && round % 2 == 1;
        let mut total = DiffMetrics::default();
        let mut isla = [0u64; 6];
        let mut round_total = 0.0;
        let mut times = Vec::with_capacity(items.len());
        for (i, &(ti, op, class)) in items.iter().enumerate() {
            if i % CALIBRATE_EVERY == 0 {
                ctx.calibration.sample();
            }
            let t0 = Instant::now();
            let r = check_op(&oracles[ti], &configs[ti], op, class, ctx.seed);
            attempted += 1;
            failed += u64::from(r.metrics.divergences > 0);
            let work = format!("{} {:?}", r.metrics.render(), r.isla);
            let arch = targets[ti].arch.name;
            if !ctx
                .ledger
                .check(&format!("difftest-sweep/{arch}/{op:08x}"), &work)
            {
                eprintln!("difftest-sweep: {arch} {op:#010x}: work counters differ");
            }
            total.absorb(&r.metrics);
            for (a, b) in isla.iter_mut().zip(r.isla) {
                *a += b;
            }
            let t = ms(r.trace + r.oracle);
            times.push(t);
            round_total += t;
            if traced {
                trace_ms.push(ms(r.trace));
                if r.metrics.trace_errors == 0 {
                    oracle_ms.push(ms(r.oracle));
                }
                if let Some(spans) = ctx.spans.as_mut() {
                    let id = round * POPULATION + i as u64;
                    let p = spans.record("opcode", id, None, 0, t0, r.trace + r.oracle);
                    spans.record("isla.trace", id, Some(p), 0, t0, r.trace);
                    spans.record("difftest.oracle", id, Some(p), 0, t0 + r.trace, r.oracle);
                }
            }
        }
        round_ms[usize::from(traced)].push(round_total);
        attempted_ops += times.len();
        if !traced {
            rounds.push(times);
        }
        first_round.get_or_insert((total, isla));
        round += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();

    let (ops, s) = blocked(&rounds, BLOCKS);
    values.set("ops_per_s", ops);
    values.set("p50_ms", s.p50);
    values.set("p95_ms", s.p95);
    // One closed-loop thread is a single load level (see verify-batch).
    values.set("p95_ms_high", s.p95);
    values.set("max_rps", ops);
    values.set("fail_share", failed as f64 / attempted.max(1) as f64);
    let mut work = Vec::new();
    if let Some((m, isla)) = first_round {
        let names = [
            "sail.steps",
            "isla.runs",
            "isla.branches_explored",
            "isla.branches_pruned",
            "isla.smt.queries",
            "isla.smt.cnf_clauses",
        ];
        for (name, v) in names.iter().zip(isla) {
            values.set(*name, v as f64);
        }
        values.set("difftest.paths", m.paths as f64);
        values.set("difftest.models_sampled", m.models_sampled as f64);
        values.set("difftest.vacuous", m.vacuous as f64);
        values.set("difftest.trace_errors", m.trace_errors as f64);
        work.push((
            format!("difftest-sweep/round/seed{}", ctx.seed),
            format!("{} {isla:?}", m.render()),
        ));
    }
    let (terms1, hits1) = islaris_smt::interner_stats();
    let (terms, hits) = ((terms1 - terms0) as f64, (hits1 - hits0) as f64);
    values.set("smt.intern_hit_ratio", hits / (terms + hits).max(1.0));
    if ctx.traced {
        values.set_summary("isla.trace_ms", summarize(&trace_ms));
        values.set_summary("difftest.oracle_ms", summarize(&oracle_ms));
        values.set(
            "trace.overhead_share",
            median(&round_ms[1]) / median(&round_ms[0]).max(f64::MIN_POSITIVE) - 1.0,
        );
    }
    println!(
        "difftest-sweep: {round} rounds, {attempted_ops} opcodes in {elapsed:.2}s; medians over \
         {BLOCKS} blocks: {ops:.1} opcodes/s, p50 {:.3} ms, p95 {:.3} ms (n={})",
        s.p50, s.p95, s.n
    );
    RunResult {
        attempted,
        failed,
        check_errors,
        values,
        work,
    }
}
