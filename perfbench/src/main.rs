//! One benchmark for the MorLog reproduction: the cycle-level simulator,
//! the crash-point checker and the embedded `morlog-log` engine, driven
//! from outside through their public APIs.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-small --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every run repeats *rounds* until `--seconds` have passed. A round runs
//! the three parts — simulations, crash checking, the embedded log, whose
//! fsync phase is sliced in between the other two — so every metric has a
//! value on every workload; the workload decides which part is large (its
//! *home*) and whose set-up `setup_s` reports. Metrics are medians over
//! rounds (see `README.md` for the three exceptions). All work runs on the
//! main thread, one simulation, crash point or transaction at a time.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` alternates
//! untraced, span-recording and host-profiled rounds, prints the
//! per-layer metrics derived from the spans, and writes the spans to
//! `perfbench/.work/spans-<workload>.jsonl`. The last stdout line is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod check;
mod logfile;
mod measure;
mod sim;
mod spans;

use morlog_sim_core::hostprof::{self, HostPhase, HostProfile};
use morlog_workloads::{DatasetSize, WorkloadKind};
use std::alloc::{GlobalAlloc, Layout, System as SysAlloc};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use measure::{fnv1a, median, ratio, Checks, Values};
use spans::{Spans, NO_SPAN};

/// Reports every allocation to the host profiler, which counts it only
/// while profiling is on (one relaxed load otherwise).
struct CountingAllocator;

// SAFETY: every method forwards to the system allocator with the caller's
// arguments unchanged; `note_alloc` only touches thread-local cells and a
// relaxed atomic, and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        hostprof::note_alloc(layout.size());
        unsafe { SysAlloc.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        hostprof::note_alloc(layout.size());
        unsafe { SysAlloc.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        hostprof::note_alloc(new_size);
        unsafe { SysAlloc.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SysAlloc.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Environment variables the simulator, the checker and the log read.
/// All are cleared before the first round so an exported value cannot
/// change the timed program.
const PINNED_ENV: [&str; 17] = [
    "MORLOG_TRACE",
    "MORLOG_TRACE_DIR",
    "MORLOG_HOSTPROF",
    "MORLOG_SAMPLE_CYCLES",
    "MORLOG_TXS",
    "MORLOG_JOBS",
    "MORLOG_SEED",
    "MORLOG_LOG_DIR",
    "MORLOG_LOG_SYNC",
    "MORLOG_CHECK_MAX_POINTS",
    "MORLOG_CHECK_SHARDS",
    "MORLOG_CX_DIR",
    "MORLOG_CX_MAX",
    "MORLOG_FUZZ_POINTS",
    "MORLOG_FUZZ_BUDGET_MS",
    "MORLOG_RESULTS_DIR",
    "MORLOG_PERF_HISTORY",
];

/// End-to-end metrics (untraced runs), with units.
const END_TO_END: [(&str, &str); 12] = [
    ("sim_tx_per_s", "tx/s"),
    ("model_speedup", "x"),
    ("model_write_ratio", "x"),
    ("check_s", "s"),
    ("log_fsync_tx_per_s", "tx/s"),
    ("log_fsync_commit_p50_us", "us"),
    ("log_nofsync_tx_per_s", "tx/s"),
    ("log_nofsync_commit_p50_us", "us"),
    ("log_recover_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "ratio"),
];

/// Per-layer metrics (traced runs), with units.
const PER_LAYER: [(&str, &str); 59] = [
    ("workloads.generate_s", "s"),
    ("workloads.initial_words", "count"),
    ("sim.new_s", "s"),
    ("sim.run_s", "s"),
    ("sim.mcyc_per_s", "Mcycle/s"),
    ("sim.cycles", "count"),
    ("sim.attr.busy_frac", "ratio"),
    ("sim.attr.commit_wait_frac", "ratio"),
    ("sim.attr.wq_stall_frac", "ratio"),
    ("sim.attr.log_buffer_stall_frac", "ratio"),
    ("sim.attr.idle_frac", "ratio"),
    ("cache.l1_hit_rate", "ratio"),
    ("cache.llc_miss_rate", "ratio"),
    ("cache.writebacks", "count"),
    ("nvm.writes", "count"),
    ("nvm.log_writes", "count"),
    ("nvm.bits_programmed", "count"),
    ("nvm.wq_full_stall_cycles", "count"),
    ("nvm.drains", "count"),
    ("logging.entries_written", "count"),
    ("logging.coalesced", "count"),
    ("logging.redo_discarded", "count"),
    ("logging.silent_discarded", "count"),
    ("logging.commit_stall_cycles", "count"),
    ("logging.recover_ms_p50", "ms"),
    ("encoding.log_bits_programmed", "count"),
    ("encoding.slde_win_frac", "ratio"),
    ("host.core_issue_share", "ratio"),
    ("host.cache_hierarchy_share", "ratio"),
    ("host.mem_controller_share", "ratio"),
    ("host.logging_share", "ratio"),
    ("host.encoding_share", "ratio"),
    ("host.recovery_share", "ratio"),
    ("host.checker_replay_share", "ratio"),
    ("host.allocs_per_kcycle", "1/kcycle"),
    ("host.prof_overhead_x", "x"),
    ("trace.overhead_x", "x"),
    ("checker.plan_ms", "ms"),
    ("checker.points_total", "count"),
    ("checker.explored", "count"),
    ("checker.pruned_frac", "ratio"),
    ("checker.point_ms_p50", "ms"),
    ("checker.point_ms_p99", "ms"),
    ("checker.replay_share", "ratio"),
    ("checker.recover_share", "ratio"),
    ("checker.verify_share", "ratio"),
    ("log.write_us_p50", "us"),
    ("log.commit_us_p50", "us"),
    ("log.engine_us_per_tx", "us"),
    ("log.commit_p99_us.fsync", "us"),
    ("log.commit_p99_us.nofsync", "us"),
    ("log.persist_calls_per_tx", "count"),
    ("log.drains_per_tx", "count"),
    ("log.drain_us_p50", "us"),
    ("log.drain_us_p99", "us"),
    ("log.file_bytes_per_user_byte", "ratio"),
    ("log.open_ms", "ms"),
    ("log.recover_records_scanned", "count"),
    ("log.recover_us_per_record", "us"),
];

/// Host phases reported as shares of the profiled wall time.
const SHARE_PHASES: [(HostPhase, &str); 7] = [
    (HostPhase::CoreIssue, "host.core_issue_share"),
    (HostPhase::CacheHierarchy, "host.cache_hierarchy_share"),
    (HostPhase::MemController, "host.mem_controller_share"),
    (HostPhase::Logging, "host.logging_share"),
    (HostPhase::Encoding, "host.encoding_share"),
    (HostPhase::Recovery, "host.recovery_share"),
    (HostPhase::CheckerReplay, "host.checker_replay_share"),
];

/// State the parts share within a run.
pub struct Ctx {
    pub spans: Spans,
    pub checks: Checks,
    /// Initial-image words of the traces generated this round.
    pub initial_words: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    /// Nothing recorded: the end-to-end numbers.
    Plain,
    /// Spans around every public call.
    Spans,
    /// The crates' own host profiler on.
    Prof,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Home {
    Sim,
    Check,
    Log,
}

/// What one workload runs per round.
struct Plan {
    home: Home,
    sim: sim::SimPlan,
    check: check::CheckPlanCfg,
    log: logfile::LogPlan,
}

/// The Table IV benchmarks at the small dataset and paper thread counts,
/// with their transaction counts divided by `scale` (1 = `sim-small`).
fn small_matrix(scale: usize) -> sim::SimPlan {
    let micro = WorkloadKind::MICRO.iter().map(|&k| (k, 800 / scale, 0));
    let macro_ = WorkloadKind::MACRO.iter().map(|&k| (k, 400 / scale, 0));
    sim::SimPlan {
        dataset: DatasetSize::Small,
        benches: micro.chain(macro_).collect(),
    }
}

/// The large-dataset matrix: micro-benchmarks plus Echo and YCSB, with
/// counts set so that no benchmark supplies most of the simulated cycles.
/// SPS and YCSB pre-load a 4 KB-entry image per thread (4 M words at the
/// paper's thread counts, about 2 s of `System::with_options` per design),
/// so they run one thread each: 0.5 M and 1 M words.
fn large_matrix() -> sim::SimPlan {
    use WorkloadKind::*;
    sim::SimPlan {
        dataset: DatasetSize::Large,
        benches: vec![
            (BTree, 256, 0),
            (Hash, 32, 0),
            (Queue, 24, 0),
            (RBTree, 256, 0),
            (Sdg, 256, 0),
            (Sps, 16, 1),
            (Echo, 8, 0),
            (Ycsb, 32, 1),
        ],
    }
}

const SMALL_CHECK: check::CheckPlanCfg = check::CheckPlanCfg {
    stores_per_thread: 64,
};
const SMALL_LOG: logfile::LogPlan = logfile::LogPlan {
    fsync_txs: 1500,
    nofsync_txs: 6000,
    crash_every: 500,
};

fn plan_for(workload: &str) -> Option<Plan> {
    let companion_sim = || small_matrix(4);
    Some(match workload {
        "sim-small" => Plan {
            home: Home::Sim,
            sim: small_matrix(1),
            check: SMALL_CHECK,
            log: SMALL_LOG,
        },
        "sim-large" => Plan {
            home: Home::Sim,
            sim: large_matrix(),
            check: SMALL_CHECK,
            log: SMALL_LOG,
        },
        "crash-check" => Plan {
            home: Home::Check,
            sim: companion_sim(),
            check: check::CheckPlanCfg {
                stores_per_thread: 120,
            },
            log: SMALL_LOG,
        },
        "log-file" => Plan {
            home: Home::Log,
            sim: companion_sim(),
            check: SMALL_CHECK,
            log: logfile::LogPlan {
                fsync_txs: 6000,
                nofsync_txs: 30000,
                crash_every: 1500,
            },
        },
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| map.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("{k} must be a whole number"))
    };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace,
    })
}

/// The filesystem type holding `path`, from `/proc/self/mountinfo`.
fn fs_type(path: &Path) -> String {
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(sep) = fields.iter().position(|&f| f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        let mount = mount.replace("\\040", " ");
        if path.starts_with(&mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One round's results.
struct Round {
    mode: Mode,
    values: Values,
    /// Round wall time, less the traced checker re-drive.
    wall_ns: u64,
    /// Wall time of the simulator and checker parts (the profiled code).
    sim_check_ns: u64,
    profile: Option<(HostProfile, HostProfile)>,
    /// Host time of each simulation and of each checked configuration.
    sim_ns: Vec<u64>,
    check_ns: Vec<u64>,
    /// `(commit p50 in µs, tx/s)` of each slice of the fsync phase.
    fsync_slices: Vec<(f64, f64)>,
    digests: Vec<(String, u64)>,
    paper: Vec<String>,
}

fn run_round(
    plan: &Plan,
    mode: Mode,
    seed: u64,
    stream: &logfile::Stream,
    dir: &Path,
    ctx: &mut Ctx,
) -> Round {
    ctx.spans.set_on(mode == Mode::Spans);
    ctx.initial_words = 0;
    let profiling = mode == Mode::Prof;
    if profiling {
        hostprof::force_enable();
        let _ = hostprof::take();
    }
    let mark = ctx.spans.len();
    let mut v = Values::new();
    let t = Instant::now();
    let g = ctx.spans.group();
    let root = ctx.spans.begin("round", g, NO_SPAN);
    // The fsync phase runs in slices between the simulator's benchmarks
    // and the checker's configurations; its time is kept out of theirs.
    let mut fsync = logfile::start_fsync(&plan.log, dir, ctx, root);
    let s = ctx.spans.begin("part:sim", 0, root);
    let sim_out = sim::run(&plan.sim, seed, ctx, s, &mut v, &mut |ctx| {
        fsync.slice(stream, ctx, root)
    });
    ctx.spans.end(s);
    let sim_ns = t.elapsed().as_nanos() as u64 - fsync.busy_ns;
    let sim_prof = profiling.then(hostprof::take);
    let s = ctx.spans.begin("part:check", 0, root);
    let check_out = check::run(&plan.check, seed, ctx, s, &mut v, &mut |ctx| {
        fsync.slice(stream, ctx, root)
    });
    ctx.spans.end(s);
    let check_prof = profiling.then(hostprof::take);
    let sim_check_ns = t.elapsed().as_nanos() as u64 - check_out.redrive_total_ns - fsync.busy_ns;
    if profiling {
        hostprof::force_disable();
    }
    let s = ctx.spans.begin("part:log", 0, root);
    let fsync_slices = logfile::run(&plan.log, stream, dir, fsync, ctx, s, &mut v);
    ctx.spans.end(s);
    ctx.spans.end(root);
    let wall_ns = t.elapsed().as_nanos() as u64 - check_out.redrive_total_ns;
    v.insert("wall.sim", measure::secs(sim_ns));
    v.insert("wall.check", measure::secs(sim_check_ns - sim_ns));
    v.insert("wall.log", measure::secs(wall_ns - sim_check_ns));

    let setup = match plan.home {
        Home::Sim => v["setup.sim"],
        Home::Check => v["setup.check"],
        Home::Log => v["setup.log"],
    };
    v.insert("setup_s", setup);
    v.insert("workloads.initial_words", ctx.initial_words as f64);
    if mode == Mode::Spans {
        let mine = ctx.spans.since(mark);
        v.insert(
            "workloads.generate_s",
            measure::secs(
                spans::total_ns(mine, "workloads::generate")
                    + spans::total_ns(mine, "checker::double_store_trace"),
            ),
        );
    }
    Round {
        mode,
        values: v,
        wall_ns,
        sim_check_ns,
        profile: sim_prof.zip(check_prof),
        sim_ns: sim_out.run_ns,
        check_ns: check_out.job_ns,
        fsync_slices,
        digests: sim_out.digests,
        paper: sim_out.paper,
    }
}

/// Median of `key` over the rounds of `mode`.
fn median_of(rounds: &[Round], mode: Mode, key: &str) -> Option<f64> {
    let xs: Vec<f64> = rounds
        .iter()
        .filter(|r| r.mode == mode)
        .filter_map(|r| r.values.get(key).copied())
        .collect();
    (!xs.is_empty()).then(|| median(&xs))
}

/// Sum over work units (one simulation, one checked configuration) of
/// each unit's median host time across the untraced rounds, in seconds.
/// Unlike the median of round totals, a burst of host noise that slows a
/// few units of one round leaves it unchanged.
fn unit_median_secs(rounds: &[Round], units: impl Fn(&Round) -> &[u64]) -> f64 {
    let plain: Vec<&[u64]> = rounds
        .iter()
        .filter(|r| r.mode == Mode::Plain)
        .map(&units)
        .collect();
    (0..plain[0].len())
        .map(|i| median(&plain.iter().map(|u| u[i] as f64).collect::<Vec<_>>()))
        .sum::<f64>()
        / 1e9
}

fn median_by(rounds: &[Round], mode: Mode, f: impl Fn(&Round) -> f64) -> f64 {
    let xs: Vec<f64> = rounds.iter().filter(|r| r.mode == mode).map(f).collect();
    median(&xs)
}

/// The per-layer metrics of a traced run.
fn per_layer(rounds: &[Round]) -> Values {
    let mut out = Values::new();
    for (name, _) in PER_LAYER {
        if let Some(x) = median_of(rounds, Mode::Spans, name) {
            out.insert(name, x);
        }
    }
    let plain_wall = median_by(rounds, Mode::Plain, |r| r.wall_ns as f64);
    out.insert(
        "trace.overhead_x",
        median_by(rounds, Mode::Spans, |r| r.wall_ns as f64) / plain_wall,
    );
    let plain_sc = median_by(rounds, Mode::Plain, |r| r.sim_check_ns as f64);
    out.insert(
        "host.prof_overhead_x",
        median_by(rounds, Mode::Prof, |r| r.sim_check_ns as f64) / plain_sc,
    );
    for (phase, name) in SHARE_PHASES {
        let share = median_by(rounds, Mode::Prof, |r| {
            let (s, c) = r.profile.as_ref().expect("profiled round");
            let ns = s.phase_ns()[phase as usize] + c.phase_ns()[phase as usize];
            ns as f64 / r.sim_check_ns as f64
        });
        out.insert(name, share);
    }
    out.insert(
        "host.allocs_per_kcycle",
        median_by(rounds, Mode::Prof, |r| {
            let (s, _) = r.profile.as_ref().expect("profiled round");
            ratio(s.alloc_count_total() as f64, r.values["sim.cycles"] / 1e3)
        }),
    );
    out
}

fn json_metrics(values: &Values, table: &[(&str, &str)]) -> String {
    let items: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let x = values.get(name).copied().unwrap_or(f64::NAN);
            let x = if x.is_finite() { x } else { 0.0 };
            format!("\"{name}\": {{\"value\": {x}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
        std::process::exit(2);
    });
    let Some(plan) = plan_for(&args.workload) else {
        eprintln!(
            "error: unknown workload {:?} (sim-small, sim-large, crash-check, log-file)",
            args.workload
        );
        std::process::exit(2);
    };
    for var in PINNED_ENV {
        std::env::remove_var(var);
    }
    hostprof::force_disable();

    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.work"));
    std::fs::create_dir_all(&dir).expect("create the work directory");
    let fs = fs_type(&dir.canonicalize().expect("resolve the work directory"));
    let on_disk = !matches!(fs.as_str(), "tmpfs" | "ramfs" | "unknown");
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("env cleared: {}", PINNED_ENV.join(" "));
    println!("log files: {} ({fs})", dir.display());
    if !on_disk {
        eprintln!(
            "warning: {} is on {fs}, so the fsync phase measures no disk",
            dir.display()
        );
    }

    let max_txs = plan.log.fsync_txs.max(plan.log.nofsync_txs);
    let stream = logfile::Stream::new(args.seed, max_txs + 1);
    let mut ctx = Ctx {
        spans: Spans::new(),
        checks: Checks::default(),
        initial_words: 0,
    };
    let modes: &[Mode] = if args.trace {
        &[Mode::Plain, Mode::Spans, Mode::Prof]
    } else {
        &[Mode::Plain]
    };
    let min_rounds = 3.max(modes.len());
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut kept_spans = false;
    while rounds.len() < min_rounds || start.elapsed() < budget {
        let mode = modes[rounds.len() % modes.len()];
        let mark = ctx.spans.len();
        let round = run_round(&plan, mode, args.seed, &stream, &dir, &mut ctx);
        // Keep the first traced round's spans for the file; later traced
        // rounds only feed the medians.
        if mode == Mode::Spans {
            if kept_spans {
                ctx.spans.truncate(mark);
            }
            kept_spans = true;
        }
        let v = &round.values;
        println!(
            "round {} ({mode:?}): {:.3} s; sim_tx_per_s {:.1}, check_s {:.4}, \
             log_fsync_commit_p50_us {:.2}, log_nofsync_commit_p50_us {:.3}, setup_s {:.5}",
            rounds.len() + 1,
            measure::secs(round.wall_ns),
            v["sim_tx_per_s"],
            v["check_s"],
            v["log_fsync_commit_p50_us"],
            v["log_nofsync_commit_p50_us"],
            v["setup_s"]
        );
        if let Some(first) = rounds.first() {
            let same = round.digests == first.digests;
            ctx.checks.expect(same, || {
                format!(
                    "round {} ({mode:?}) SimStats differ from round 1",
                    rounds.len() + 1
                )
            });
        }
        rounds.push(round);
    }

    let first = &rounds[0];
    for (label, d) in &first.digests {
        println!("simstats {label}: {d:016x}");
    }
    let all: Vec<u8> = first
        .digests
        .iter()
        .flat_map(|(_, d)| d.to_le_bytes())
        .collect();
    println!(
        "simstats digest: {:016x} ({} runs)",
        fnv1a(&all),
        first.digests.len()
    );
    for line in &first.paper {
        println!("paper: {line}");
    }

    let mut e2e = Values::new();
    for (name, _) in END_TO_END {
        if let Some(x) = median_of(&rounds, Mode::Plain, name) {
            e2e.insert(name, x);
        }
    }
    let sim_txs = median_of(&rounds, Mode::Plain, "sim.txs").expect("an untraced round");
    e2e.insert(
        "sim_tx_per_s",
        sim_txs / unit_median_secs(&rounds, |r| &r.sim_ns),
    );
    e2e.insert("check_s", unit_median_secs(&rounds, |r| &r.check_ns));
    // On a shared disk, fsync latency can switch between two levels about
    // 2x apart for seconds at a time, so the fsync phase reports its best
    // decile of slices, like a best-of-N headline.
    let slices: Vec<(f64, f64)> = rounds
        .iter()
        .filter(|r| r.mode == Mode::Plain)
        .flat_map(|r| r.fsync_slices.iter().copied())
        .collect();
    let p50s: Vec<f64> = slices.iter().map(|s| s.0).collect();
    let rates: Vec<f64> = slices.iter().map(|s| s.1).collect();
    e2e.insert("log_fsync_commit_p50_us", measure::quantile(&p50s, 0.1));
    e2e.insert("log_fsync_tx_per_s", measure::quantile(&rates, 0.9));
    e2e.insert("peak_rss_mb", peak_rss_mb());
    for (name, unit) in END_TO_END.iter().filter(|(n, _)| *n != "pass_frac") {
        let x = e2e.get(name).copied().unwrap_or(f64::NAN);
        ctx.checks
            .expect(x.is_finite() && x > 0.0, || format!("{name} = {x}"));
        println!("{name:<28} {x:>14.4} {unit}");
    }
    let per = args.trace.then(|| per_layer(&rounds));
    if let Some(per) = &per {
        for (name, unit) in PER_LAYER {
            let x = per.get(name).copied().unwrap_or(f64::NAN);
            ctx.checks.expect(x.is_finite(), || format!("{name} = {x}"));
            println!("{name:<32} {x:>16.6} {unit}");
        }
        let path = dir.join(format!("spans-{}.jsonl", args.workload));
        ctx.spans.write_jsonl(&path).expect("write the spans file");
        println!("spans: {} written to {}", ctx.spans.len(), path.display());
    }
    let Checks { attempted, failed } = ctx.checks;
    let pass_frac = 1.0 - failed as f64 / attempted as f64;
    e2e.insert("pass_frac", pass_frac);
    println!(
        "{:<28} {pass_frac:>14.4} ratio ({failed} of {attempted} checks failed)",
        "pass_frac"
    );
    let part = |k| median_of(&rounds, Mode::Plain, k).unwrap_or(0.0);
    println!(
        "rounds: {} in {:.1} s; median untraced part walls: sim {:.3} s, check {:.3} s, log {:.3} s",
        rounds.len(),
        start.elapsed().as_secs_f64(),
        part("wall.sim"),
        part("wall.check"),
        part("wall.log")
    );
    let metrics = match &per {
        Some(per) => json_metrics(per, &PER_LAYER),
        None => json_metrics(&e2e, &END_TO_END),
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        failed == 0
    );
}
