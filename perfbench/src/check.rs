//! The crash-checker part: the `crash_explore` gate configuration — five
//! atomic designs explored exhaustively (plus the torn-drain variant) on
//! Hash-Small traces, then the two sabotaged designs, which must be caught.
//! Crash points replay one at a time on the calling thread.

use morlog_checker::{
    assemble, double_store_trace, plan, run_point, torn_plan_for, CheckOptions, CheckReport,
};
use morlog_sim::System;
use morlog_sim_core::{CheckMutation, DesignKind, SystemConfig};
use morlog_workloads::{generate, WorkloadConfig, WorkloadKind, WorkloadTrace};
use std::time::Instant;

use crate::measure::{percentile, ratio, secs, Values};
use crate::spans;
use crate::Ctx;

const DESIGNS: [DesignKind; 5] = [
    DesignKind::FwbCrade,
    DesignKind::FwbSlde,
    DesignKind::MorLogCrade,
    DesignKind::MorLogSlde,
    DesignKind::MorLogDp,
];

/// Each sabotaged design with the force-write-back period that exposes it
/// (the schedule `crash_explore` and the checker's self-test use).
const MUTANTS: [(DesignKind, CheckMutation, u64); 2] = [
    (DesignKind::MorLogSlde, CheckMutation::DropUndoFence, 16),
    (DesignKind::MorLogDp, CheckMutation::SkipUlogBump, 64),
];

/// Transactions per thread of the crafted mutant workload.
const MUTANT_TXS_PER_THREAD: usize = 6;

/// Torn-variant fault seed, as in `crash_explore`.
const FAULT_SEED: u64 = 0xC0FFEE;

pub struct CheckPlanCfg {
    /// Stores per thread of the Hash-Small trace the real designs are
    /// checked on. Hash transactions store a seed-dependent amount, so the
    /// trace is cut to a store count rather than a transaction count: the
    /// number of crash points, and with it the check time, then depends
    /// on the size and not on the seed.
    pub stores_per_thread: usize,
}

/// A Hash-Small trace whose every thread holds the longest prefix of
/// transactions with at most `stores` stores.
fn hash_trace(sys_cfg: &SystemConfig, stores: usize, seed: u64) -> WorkloadTrace {
    let mut wl = WorkloadConfig::test_config(System::data_base(sys_cfg));
    // Every transaction stores at least once, so this many is enough.
    wl.total_transactions = stores * wl.threads;
    wl.seed = seed;
    let mut trace = generate(WorkloadKind::Hash, &wl);
    for thread in &mut trace.threads {
        let mut total = 0;
        let keep = thread
            .transactions
            .iter()
            .take_while(|tx| {
                total += tx.stores();
                total <= stores
            })
            .count();
        thread.transactions.truncate(keep);
    }
    trace
}

/// Generates every checked configuration's trace: the part's set-up.
fn traces(cfg: &CheckPlanCfg, seed: u64, ctx: &mut Ctx, parent: usize) -> (Vec<Job>, u64) {
    let mut jobs = Vec::new();
    let mut setup_ns = 0u64;
    for (i, design) in DESIGNS.into_iter().enumerate() {
        let sys_cfg = SystemConfig::for_design(design);
        // Each design checks its own trace, so that the check time, a sum
        // over the designs, does not hinge on the layout of a single trace.
        let design_seed = seed * DESIGNS.len() as u64 + i as u64;
        let t = Instant::now();
        let g = ctx.spans.group();
        let s = ctx.spans.begin("workloads::generate", g, parent);
        let trace = hash_trace(&sys_cfg, cfg.stores_per_thread, design_seed);
        ctx.spans.end(s);
        setup_ns += t.elapsed().as_nanos() as u64;
        ctx.initial_words += trace
            .threads
            .iter()
            .map(|t| t.initial.len() as u64)
            .sum::<u64>();
        jobs.push(Job {
            label: design.label().to_string(),
            cfg: sys_cfg,
            trace,
            mutant: false,
        });
    }
    for (design, mutation, fwb_period) in MUTANTS {
        let mut sys_cfg = SystemConfig::for_design(design);
        sys_cfg.hierarchy.force_write_back_period = fwb_period;
        sys_cfg.mutation = mutation;
        let t = Instant::now();
        let g = ctx.spans.group();
        let s = ctx.spans.begin("checker::double_store_trace", g, parent);
        let trace = double_store_trace(&sys_cfg, MUTANT_TXS_PER_THREAD);
        ctx.spans.end(s);
        setup_ns += t.elapsed().as_nanos() as u64;
        jobs.push(Job {
            label: format!("{}+{}", design.label(), mutation.label()),
            cfg: sys_cfg,
            trace,
            mutant: true,
        });
    }
    (jobs, setup_ns)
}

struct Job {
    label: String,
    cfg: SystemConfig,
    trace: WorkloadTrace,
    /// A sabotaged design: checked without the torn variant, as
    /// `crash_explore` does, and expected to fail.
    mutant: bool,
}

pub struct CheckOut {
    /// Time spent re-driving crash points step by step (traced rounds
    /// only); the caller subtracts it from the round's wall time.
    pub redrive_total_ns: u64,
    /// Host time to each checked configuration's verdict, in job order.
    pub job_ns: Vec<u64>,
}

/// Checks every configuration; `between` runs after each one.
pub fn run(
    cfg: &CheckPlanCfg,
    seed: u64,
    ctx: &mut Ctx,
    parent: usize,
    v: &mut Values,
    between: &mut dyn FnMut(&mut Ctx),
) -> CheckOut {
    let mark = ctx.spans.len();
    let (jobs, setup_ns) = traces(cfg, seed, ctx, parent);
    let (mut points_total, mut explored, mut pruned) = (0u64, 0u64, 0u64);
    let mut redrive_total_ns = 0u64;
    let mut job_ns = Vec::with_capacity(jobs.len());
    for job in &jobs {
        let t = Instant::now();
        let (report, redrive_ns) = check_one(job, ctx, parent);
        redrive_total_ns += redrive_ns;
        job_ns.push(t.elapsed().as_nanos() as u64 - redrive_ns);
        between(ctx);
        let s = &report.stats;
        points_total += s.points_total;
        explored += s.explored;
        pruned += s.pruned;
        if job.mutant {
            ctx.checks
                .expect(s.failures > 0 && report.counterexample.is_some(), || {
                    format!("crash-check: mutant {} was not caught", job.label)
                });
        } else {
            ctx.checks.expect(s.failures == 0 && s.capped == 0, || {
                format!(
                    "crash-check: {} failed {} of {} crash points ({:?})",
                    job.label,
                    s.failures,
                    s.explored,
                    report.failures.first()
                )
            });
        }
    }
    v.insert("check_s", secs(job_ns.iter().sum()));
    v.insert("setup.check", secs(setup_ns));
    v.insert("checker.points_total", points_total as f64);
    v.insert("checker.explored", explored as f64);
    v.insert(
        "checker.pruned_frac",
        ratio(pruned as f64, points_total as f64),
    );
    if ctx.spans.is_on() {
        let mine = ctx.spans.since(mark);
        let point_ns = spans::durations(mine, "checker::run_point");
        v.insert(
            "checker.plan_ms",
            spans::total_ns(mine, "checker::plan") as f64 / 1e6,
        );
        v.insert("checker.point_ms_p50", percentile(&point_ns, 50.0) / 1e6);
        v.insert("checker.point_ms_p99", percentile(&point_ns, 99.0) / 1e6);
        let replay = spans::total_ns(mine, "System::new")
            + spans::total_ns(mine, "System::run_until_crash_point");
        let recover =
            spans::total_ns(mine, "System::crash") + spans::total_ns(mine, "System::recover");
        let verify = spans::total_ns(mine, "System::verify_recovery");
        let redrive = (replay + recover + verify) as f64;
        v.insert("checker.replay_share", ratio(replay as f64, redrive));
        v.insert("checker.recover_share", ratio(recover as f64, redrive));
        v.insert("checker.verify_share", ratio(verify as f64, redrive));
        let recover_ns = spans::durations(mine, "System::recover");
        v.insert(
            "logging.recover_ms_p50",
            percentile(&recover_ns, 50.0) / 1e6,
        );
    }
    CheckOut {
        redrive_total_ns,
        job_ns,
    }
}

/// Plans, replays every point (and its torn variant) and assembles the
/// verdict. In traced rounds each replayed point is also re-driven through
/// the public `System` steps `run_point` takes, and the two verdicts must
/// agree; returns the re-drive time alongside the report.
fn check_one(job: &Job, ctx: &mut Ctx, parent: usize) -> (CheckReport, u64) {
    let torn_variant = !job.mutant;
    let opts = CheckOptions {
        fault_variant: torn_variant,
        fault_seed: if torn_variant { FAULT_SEED } else { 0 },
        ..CheckOptions::default()
    };
    let g = ctx.spans.group();
    let s = ctx.spans.begin("checker::plan", g, parent);
    let p = plan(&job.cfg, &job.trace, &opts);
    ctx.spans.end(s);
    let mut outcomes = Vec::with_capacity(p.points.len() * (1 + torn_variant as usize));
    let mut redrive_ns = 0u64;
    for &n in &p.points {
        for torn in [false, true] {
            if torn && !torn_variant {
                continue;
            }
            let fault = torn.then(|| torn_plan_for(opts.fault_seed, n));
            let g = ctx.spans.group();
            let s = ctx.spans.begin("checker::run_point", g, parent);
            let outcome = run_point(&job.cfg, &job.trace, n, fault.clone());
            ctx.spans.end(s);
            if ctx.spans.is_on() {
                let t = Instant::now();
                let error = redrive(job, n, fault, ctx, g, parent);
                ctx.checks.expect(error == outcome.error, || {
                    format!(
                        "crash-check: {} point {n} torn={torn}: step-by-step verdict {error:?} \
                         differs from run_point's {:?}",
                        job.label, outcome.error
                    )
                });
                redrive_ns += t.elapsed().as_nanos() as u64;
            }
            outcomes.push(outcome);
        }
    }
    let s = ctx.spans.begin("checker::assemble", g, parent);
    let report = assemble(&job.cfg, &job.trace, &opts, &p, outcomes);
    ctx.spans.end(s);
    (report, redrive_ns)
}

/// One crash point through the public `System` calls, a span per step.
fn redrive(
    job: &Job,
    point: u64,
    fault: Option<morlog_sim_core::FaultPlan>,
    ctx: &mut Ctx,
    group: u64,
    parent: usize,
) -> Option<String> {
    let sp = &mut ctx.spans;
    let top = sp.begin("checker::redrive", group, parent);
    let s = sp.begin("System::new", group, top);
    let mut sys = System::new(job.cfg.clone(), &job.trace);
    if let Some(plan) = fault {
        sys.set_fault_plan(plan);
    }
    sys.arm_crash_at(point);
    sp.end(s);
    let s = sp.begin("System::run_until_crash_point", group, top);
    sys.run_until_crash_point();
    sp.end(s);
    let s = sp.begin("System::crash", group, top);
    sys.crash();
    sp.end(s);
    let s = sp.begin("System::recover", group, top);
    let report = sys.recover();
    sp.end(s);
    let s = sp.begin("System::verify_recovery", group, top);
    let error = sys.verify_recovery(&report).err();
    sp.end(s);
    sp.end(top);
    error
}
