//! The simulator part: every design on a list of benchmarks, one
//! simulation at a time on the calling thread.

use morlog_encoding::secure::SecureMode;
use morlog_sim::System;
use morlog_sim_core::stats::geometric_mean;
use morlog_sim_core::{DesignKind, SimStats, SystemConfig};
use morlog_workloads::{generate, DatasetSize, WorkloadConfig, WorkloadKind};
use std::time::Instant;

use crate::measure::{fnv1a, ratio, secs, Values};
use crate::spans;
use crate::Ctx;

/// Fig. 12: MorLog over FWB-CRADE on the micro-benchmarks, +72.5 %.
const PAPER_MICRO_SPEEDUP: f64 = 1.725;
/// Fig. 14: MorLog over FWB-CRADE on the macro-benchmarks, +83.8 %.
const PAPER_MACRO_SPEEDUP: f64 = 1.838;
/// Fig. 13: MorLog-SLDE writes up to 39.3 % less than FWB-CRADE.
const PAPER_MIN_WRITE_RATIO: f64 = 1.0 - 0.393;

/// Which benchmarks run, at which size and length.
pub struct SimPlan {
    pub dataset: DatasetSize,
    /// Each benchmark with its total transaction count and thread count
    /// (0 = the paper's: 8 for micro-, 4 for macro-benchmarks).
    pub benches: Vec<(WorkloadKind, usize, usize)>,
}

/// What the caller needs beyond the metric values.
pub struct SimOut {
    /// `(label, SimStats digest)` of every simulation, in run order.
    pub digests: Vec<(String, u64)>,
    /// Host time of every `System::run`, in run order.
    pub run_ns: Vec<u64>,
    /// The paper reference lines printed beside the model metrics.
    pub paper: Vec<String>,
}

fn digest(stats: &SimStats) -> u64 {
    fnv1a(format!("{stats:?}").as_bytes())
}

/// MorLog-SLDE against FWB-CRADE on one benchmark.
struct BenchRatios {
    kind: WorkloadKind,
    /// Simulated throughput ratio.
    speedup: f64,
    /// NVMM write ratio.
    write_ratio: f64,
}

/// Geometric mean of `f` over the benchmarks it selects (0 for none).
fn gmean(per_bench: &[BenchRatios], f: impl Fn(&BenchRatios) -> Option<f64>) -> f64 {
    let xs: Vec<f64> = per_bench.iter().filter_map(f).collect();
    geometric_mean(&xs).unwrap_or(0.0)
}

/// Simulated throughput of `s` relative to `base` (same clock for both).
fn speedup(s: &SimStats, base: &SimStats) -> f64 {
    ratio(
        s.transactions_committed as f64 / s.cycles as f64,
        base.transactions_committed as f64 / base.cycles as f64,
    )
}

/// Runs the plan; `between` runs after each benchmark's designs.
pub fn run(
    plan: &SimPlan,
    seed: u64,
    ctx: &mut Ctx,
    parent: usize,
    v: &mut Values,
    between: &mut dyn FnMut(&mut Ctx),
) -> SimOut {
    let mark = ctx.spans.len();
    let base_cfg = SystemConfig::for_design(DesignKind::FwbCrade);
    let mut total = SimStats::default();
    let (mut setup_ns, mut core_cycles) = (0u64, 0u64);
    let mut digests = Vec::new();
    let mut run_ns = Vec::new();
    let mut per_bench = Vec::new();
    for &(kind, txs, threads) in &plan.benches {
        let wl = WorkloadConfig {
            threads: if threads == 0 {
                kind.default_threads()
            } else {
                threads
            },
            total_transactions: txs,
            dataset: plan.dataset,
            seed,
            data_base: System::data_base(&base_cfg),
        };
        let g = ctx.spans.group();
        let t = Instant::now();
        let s = ctx.spans.begin("workloads::generate", g, parent);
        let trace = generate(kind, &wl);
        ctx.spans.end(s);
        setup_ns += t.elapsed().as_nanos() as u64;
        ctx.initial_words += trace
            .threads
            .iter()
            .map(|t| t.initial.len() as u64)
            .sum::<u64>();
        let label = format!("{}-{}", kind.label(), plan.dataset.label());
        let mut by_design: Vec<SimStats> = Vec::with_capacity(DesignKind::ALL.len());
        for design in DesignKind::ALL {
            let cfg = SystemConfig::for_design(design);
            let g = ctx.spans.group();
            let t = Instant::now();
            let s = ctx.spans.begin("System::with_options", g, parent);
            let mut sys = System::with_options(cfg, &trace, true, SecureMode::None);
            ctx.spans.end(s);
            let t1 = Instant::now();
            let s = ctx.spans.begin("System::run", g, parent);
            let stats = sys.run();
            ctx.spans.end(s);
            run_ns.push(t1.elapsed().as_nanos() as u64);
            setup_ns += (t1 - t).as_nanos() as u64;
            drop(sys);

            let threads = trace.threads.len() as u64;
            let want = trace.total_transactions() as u64;
            let run_label = format!("{label} {}", design.label());
            ctx.checks.expect(stats.transactions_committed == want, || {
                format!(
                    "{run_label}: committed {} of {want} transactions",
                    stats.transactions_committed
                )
            });
            ctx.checks
                .expect(stats.attr.total() == stats.cycles * threads, || {
                    format!(
                    "{run_label}: cycle attribution sums to {}, not {} cycles x {threads} threads",
                    stats.attr.total(),
                    stats.cycles
                )
                });
            digests.push((run_label, digest(&stats)));
            core_cycles += stats.cycles * threads;
            total.merge(&stats);
            by_design.push(stats);
        }
        let slde = &by_design[DesignKind::ALL
            .iter()
            .position(|&d| d == DesignKind::MorLogSlde)
            .expect("MorLog-SLDE is a design")];
        let fwb = &by_design[0];
        between(ctx);
        per_bench.push(BenchRatios {
            kind,
            speedup: speedup(slde, fwb),
            write_ratio: ratio(slde.mem.nvmm_writes as f64, fwb.mem.nvmm_writes as f64),
        });
    }

    let model_speedup = gmean(&per_bench, |b| Some(b.speedup));
    let model_write_ratio = gmean(&per_bench, |b| Some(b.write_ratio));
    let micro = gmean(&per_bench, |b| {
        WorkloadKind::MICRO.contains(&b.kind).then_some(b.speedup)
    });
    let macro_ = gmean(&per_bench, |b| {
        WorkloadKind::MACRO.contains(&b.kind).then_some(b.speedup)
    });
    let min_ratio = per_bench
        .iter()
        .map(|b| b.write_ratio)
        .fold(f64::INFINITY, f64::min);
    let err = |model: f64, paper: f64| (model / paper - 1.0) * 100.0;
    let mut paper = vec![format!(
        "model_speedup: MorLog-SLDE / FWB-CRADE simulated throughput, {} dataset; \
         micro gmean {micro:.4} vs Fig. 12 {PAPER_MICRO_SPEEDUP} (error {:+.1}%)",
        plan.dataset.label(),
        err(micro, PAPER_MICRO_SPEEDUP)
    )];
    if macro_ > 0.0 {
        paper.push(format!(
            "model_speedup: macro gmean {macro_:.4} vs Fig. 14 {PAPER_MACRO_SPEEDUP} (error {:+.1}%)",
            err(macro_, PAPER_MACRO_SPEEDUP)
        ));
    }
    paper.push(format!(
        "model_write_ratio: MorLog-SLDE / FWB-CRADE NVMM writes; best benchmark {min_ratio:.4} \
         vs Fig. 13 {PAPER_MIN_WRITE_RATIO:.3} (up to -39.3%, error {:+.1}%)",
        err(min_ratio, PAPER_MIN_WRITE_RATIO)
    ));

    v.insert("sim.txs", total.transactions_committed as f64);
    v.insert(
        "sim_tx_per_s",
        total.transactions_committed as f64 / secs(run_ns.iter().sum()),
    );
    v.insert("model_speedup", model_speedup);
    v.insert("model_write_ratio", model_write_ratio);
    v.insert("setup.sim", secs(setup_ns));
    insert_counts(&total, core_cycles, v);
    if ctx.spans.is_on() {
        let mine = ctx.spans.since(mark);
        let run_s = secs(spans::total_ns(mine, "System::run"));
        v.insert(
            "sim.new_s",
            secs(spans::total_ns(mine, "System::with_options")),
        );
        v.insert("sim.run_s", run_s);
        v.insert("sim.mcyc_per_s", total.cycles as f64 / 1e6 / run_s);
    }
    SimOut {
        digests,
        run_ns,
        paper,
    }
}

/// The exact per-layer counts, summed over the part's simulations.
fn insert_counts(t: &SimStats, core_cycles: u64, v: &mut Values) {
    let a = &t.attr;
    let cc = core_cycles as f64;
    v.insert("sim.cycles", t.cycles as f64);
    v.insert("sim.attr.busy_frac", ratio(a.busy as f64, cc));
    v.insert("sim.attr.commit_wait_frac", ratio(a.commit_wait as f64, cc));
    v.insert("sim.attr.wq_stall_frac", ratio(a.wq_stall as f64, cc));
    v.insert(
        "sim.attr.log_buffer_stall_frac",
        ratio(a.log_buffer_stall as f64, cc),
    );
    v.insert("sim.attr.idle_frac", ratio(a.idle as f64, cc));
    let [l1, _, llc] = &t.cache;
    v.insert(
        "cache.l1_hit_rate",
        ratio(l1.hits as f64, (l1.hits + l1.misses) as f64),
    );
    v.insert(
        "cache.llc_miss_rate",
        ratio(llc.misses as f64, (llc.hits + llc.misses) as f64),
    );
    v.insert("cache.writebacks", llc.writebacks as f64);
    let m = &t.mem;
    v.insert("nvm.writes", m.nvmm_writes as f64);
    v.insert("nvm.log_writes", m.log_writes as f64);
    v.insert("nvm.bits_programmed", m.bits_programmed as f64);
    v.insert("nvm.wq_full_stall_cycles", m.wq_full_stall_cycles as f64);
    v.insert("nvm.drains", m.drains as f64);
    let l = &t.log;
    v.insert("logging.entries_written", l.entries_written as f64);
    v.insert("logging.coalesced", l.coalesced as f64);
    v.insert("logging.redo_discarded", l.redo_discarded as f64);
    v.insert("logging.silent_discarded", l.silent_discarded as f64);
    v.insert("logging.commit_stall_cycles", l.commit_stall_cycles as f64);
    v.insert("encoding.log_bits_programmed", m.log_bits_programmed as f64);
    let [fpc, dldc, raw] = t.metrics.log_writes.encoder_choices;
    v.insert(
        "encoding.slde_win_frac",
        ratio((dldc + raw) as f64, (fpc + dldc + raw) as f64),
    );
}
