//! Allocation budget of the cycle engine's per-cycle path.
//!
//! The crate's counting allocator attributes every heap allocation to the
//! active host-profiling phase. Core issue, logging and the cache
//! hierarchy run on every stepped cycle, so allocations there scale with
//! simulated time unless those paths reuse their buffers; what remains is
//! per-transaction bookkeeping (the oracle's write log) and cache warm-up.
//! The bound is per thousand simulated cycles on Hash-Small, under a
//! synchronous-commit MorLog design and the FWB baseline.
//!
//! Profiling is switched on process-wide, so this file holds one test.

use morlog_bench::{RunSpec, SweepRunner};
use morlog_sim_core::hostprof::{self, HostPhase};
use morlog_sim_core::DesignKind;
use morlog_workloads::WorkloadKind;

/// Allocations per 1000 simulated cycles allowed in the per-cycle phases.
/// The engine measures ≈36 on both designs at 800 transactions; before the
/// per-cycle buffers were reused, logging alone made ≈1,730.
const MAX_ALLOCS_PER_KCYCLE: f64 = 50.0;

#[test]
fn per_cycle_phases_stay_within_the_allocation_budget() {
    hostprof::force_enable();
    let specs: Vec<RunSpec> = [DesignKind::MorLogSlde, DesignKind::FwbCrade]
        .iter()
        .map(|&design| RunSpec::new(design, WorkloadKind::Hash, 800))
        .collect();
    for run in SweepRunner::with_jobs(1).run_specs(&specs) {
        let counts = run.host.alloc_count();
        let per_cycle: u64 = [
            HostPhase::CoreIssue,
            HostPhase::Logging,
            HostPhase::CacheHierarchy,
        ]
        .iter()
        .map(|&phase| counts[phase as usize])
        .sum();
        let kcycles = run.report.stats.cycles as f64 / 1000.0;
        let rate = per_cycle as f64 / kcycles;
        println!(
            "{}: {per_cycle} allocations over {kcycles:.1} kcycles = {rate:.1}/kcycle",
            run.spec.design.label()
        );
        assert!(
            rate <= MAX_ALLOCS_PER_KCYCLE,
            "{}: {rate:.1} allocations per kcycle in core_issue + logging + cache_hierarchy \
             exceeds the budget of {MAX_ALLOCS_PER_KCYCLE}",
            run.spec.design.label()
        );
    }
}
