//! Regression gates for the cycle engine: golden digests of its output,
//! and its deadlock report.
//!
//! Every design runs every Table IV benchmark at a tiny size (2 threads,
//! 40 transactions, fixed seed) and the full `SimStats` of each run is
//! hashed with FNV-1a over its `Debug` rendering. A second table pins one
//! mid-run crash per design: `run_for` in two slices, `crash`, `recover`
//! and `verify_recovery`, hashing the cycle reached, the statistics at the
//! crash, the recovery report and the oracle's verdict. A third table runs
//! a starved machine (one channel, a four-entry write queue, two-entry log
//! buffers, a 4 KB log ring, frequent force-write-back scans and samples)
//! that spends most cycles stalled: once under an active fault plan, once
//! under table-based truncation with two log slices. It reaches the paths
//! ordinary runs rarely take — ring extensions, refused stores, writebacks
//! retrying against a full queue, the fault-plan write-ahead gates.
//!
//! The tables hold the values the tick-every-cycle engine produced, so any
//! change to how the engine schedules cycles must reproduce them exactly.
//! A deliberate change to the simulated model changes them; the failure
//! message prints the new table to paste in.

use morlog_repro::core::config::TruncationPolicy;
use morlog_repro::core::fault::FaultPlan;
use morlog_repro::core::{DesignKind, SystemConfig};
use morlog_repro::sim::System;
use morlog_repro::workloads::{generate, WorkloadConfig, WorkloadKind};

const TXS: usize = 40;
const SEED: u64 = 7;

/// Table IV: the six micro-benchmarks, then the three macro-benchmarks.
const KINDS: [WorkloadKind; 9] = [
    WorkloadKind::BTree,
    WorkloadKind::Hash,
    WorkloadKind::Queue,
    WorkloadKind::RBTree,
    WorkloadKind::Sdg,
    WorkloadKind::Sps,
    WorkloadKind::Echo,
    WorkloadKind::Ycsb,
    WorkloadKind::Tpcc,
];

/// `SimStats` digests, indexed `[design][kind]` in `DesignKind::ALL` and
/// `KINDS` order.
const RUN_DIGESTS: [[u64; 9]; 6] = [
    [
        0x0c7dbe08a842519a,
        0x7aa107d280fc85c2,
        0x6afceab3e96b1c9d,
        0xda3865ceceffd6f0,
        0x95357f0b2f074337,
        0x1243947975ef30a2,
        0x7d936380900bd9bb,
        0x1f49c4e6240fd29e,
        0xf937a516a00b2004,
    ],
    [
        0x0c7dbe08a842519a,
        0x588a05f2f834292e,
        0x6afceab3e96b1c9d,
        0xda3865ceceffd6f0,
        0x95357f0b2f074337,
        0x5c6d5c26e53b952a,
        0x954205a8dc328ff9,
        0x1f49c4e6240fd29e,
        0xf937a516a00b2004,
    ],
    [
        0x7a52b5b0e90d070e,
        0x8a8075a6b65a0fc9,
        0x23bd42e53b963e8e,
        0x51b9c0a4654cfd56,
        0x95357f0b2f074337,
        0x6167363bad26d046,
        0x57b7f28f9d23d333,
        0xe71eaf0e42f84798,
        0xb53a454991df6bf5,
    ],
    [
        0x0466fb909b187997,
        0x7aa107d280fc85c2,
        0x6afceab3e96b1c9d,
        0x5413f36ee2b17b52,
        0x95357f0b2f074337,
        0x1243947975ef30a2,
        0x2c5f6f9a95523e6d,
        0xb670314cefa67e8d,
        0x6359e53f98a763ac,
    ],
    [
        0x8041873ab0014bc9,
        0xd6f0a1fd0aa9a76c,
        0x8228b44b46915484,
        0x11dae68d16adc259,
        0x95357f0b2f074337,
        0x769d775564e7893e,
        0x2e9f2b3a9a7d1ec3,
        0x54580ca810ccacea,
        0xeaff489c5acef046,
    ],
    [
        0x8222380464d89f27,
        0xc1d430439810b298,
        0x329d06dfb5abcf75,
        0x96e5c267cb73a5bf,
        0x77b0acbf8d10622f,
        0x261f71c2607884a2,
        0xc95f1bfabb3ac69d,
        0x34b43de3044c5b01,
        0x6cca0c66e045b569,
    ],
];

/// Starved-machine digests, indexed `[design][variant]`: variant 0 runs
/// under a fault plan, variant 1 under table-based truncation.
const STRESS_DIGESTS: [[u64; 2]; 6] = [
    [0x816a3f08172453f8, 0x635f573c135e3960],
    [0x816a3f08172453f8, 0x635f573c135e3960],
    [0xd530c1fd9ddbdda6, 0x99230c74a5e915a2],
    [0x816a3f08172453f8, 0x635f573c135e3960],
    [0xcb1371f0907da83e, 0x299bde4b1c5cbddd],
    [0x95ce7b8a70d36bde, 0x878930feb7a6284c],
];

/// Crash-case digests, in `DesignKind::ALL` order.
const CRASH_DIGESTS: [u64; 6] = [
    0x58e77da68acc813d,
    0x58e77da68acc813d,
    0x81b36e3211a31ef6,
    0x58e77da68acc813d,
    0x3b3251e50ec960d1,
    0x8b7bcf3ac3742f2d,
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn system(design: DesignKind, kind: WorkloadKind) -> System {
    let cfg = SystemConfig::for_design(design);
    let mut wl = WorkloadConfig::test_config(System::data_base(&cfg));
    wl.total_transactions = TXS;
    wl.threads = 2;
    wl.seed = SEED;
    let trace = generate(kind, &wl);
    System::new(cfg, &trace)
}

fn run_digest(design: DesignKind, kind: WorkloadKind) -> u64 {
    let stats = system(design, kind).run();
    assert_eq!(
        stats.transactions_committed, TXS as u64,
        "{design} × {kind}"
    );
    fnv1a(format!("{stats:?}").as_bytes())
}

/// A Hash run on a machine starved of write bandwidth and log space.
fn stress_digest(design: DesignKind, variant: usize) -> u64 {
    let mut cfg = SystemConfig::for_design(design);
    cfg.mem.channels = 1;
    cfg.mem.banks = 2;
    cfg.mem.write_queue_entries = 4;
    cfg.mem.log_region_bytes = 4096;
    cfg.hierarchy.force_write_back_period = 3000;
    cfg.log.undo_redo_entries = 2;
    cfg.log.redo_entries = 2;
    cfg.metrics.sample_cycles = 500;
    if variant == 1 {
        cfg.log.truncation = TruncationPolicy::TransactionTable;
        cfg.mem.log_slices = 2;
    }
    let mut wl = WorkloadConfig::test_config(System::data_base(&cfg));
    wl.total_transactions = TXS;
    wl.threads = 4;
    wl.seed = SEED;
    let trace = generate(WorkloadKind::Hash, &wl);
    let mut sys = System::new(cfg, &trace);
    if variant == 0 {
        sys.set_fault_plan(FaultPlan::storm(11, 8));
    }
    let stats = sys.run();
    assert_eq!(
        stats.transactions_committed, TXS as u64,
        "{design} stressed"
    );
    fnv1a(format!("{stats:?}").as_bytes())
}

/// Crashes a Hash run part-way: two `run_for` slices covering 40 % of the
/// uninterrupted run's cycles, so the crash lands with transactions in
/// flight.
fn crash_digest(design: DesignKind) -> u64 {
    let full = system(design, WorkloadKind::Hash).run().cycles;
    let mut sys = system(design, WorkloadKind::Hash);
    let first = full / 4;
    assert!(
        !sys.run_for(first),
        "{design}: finished within {first} cycles"
    );
    sys.run_for(full * 2 / 5 - first);
    let now = sys.now();
    let stats = sys.stats();
    sys.crash();
    let report = sys.recover();
    let verdict = sys.verify_recovery(&report);
    fnv1a(format!("{now} {stats:?} {report:?} {verdict:?}").as_bytes())
}

#[test]
fn engine_output_matches_golden_digests() {
    let runs: Vec<[u64; 9]> = DesignKind::ALL
        .iter()
        .map(|&design| KINDS.map(|kind| run_digest(design, kind)))
        .collect();
    let stressed: Vec<[u64; 2]> = DesignKind::ALL
        .iter()
        .map(|&design| [0, 1].map(|variant| stress_digest(design, variant)))
        .collect();
    let crashes: Vec<u64> = DesignKind::ALL.iter().map(|&d| crash_digest(d)).collect();
    if runs != RUN_DIGESTS || stressed != STRESS_DIGESTS || crashes != CRASH_DIGESTS {
        let mut table = String::from("const RUN_DIGESTS: [[u64; 9]; 6] = [\n");
        for row in &runs {
            let cells: Vec<String> = row.iter().map(|d| format!("0x{d:016x}")).collect();
            table += &format!("    [{}],\n", cells.join(", "));
        }
        table += "];\nconst STRESS_DIGESTS: [[u64; 2]; 6] = [\n";
        for row in &stressed {
            table += &format!("    [0x{:016x}, 0x{:016x}],\n", row[0], row[1]);
        }
        table += "];\nconst CRASH_DIGESTS: [u64; 6] = [";
        let cells: Vec<String> = crashes.iter().map(|d| format!("0x{d:016x}")).collect();
        table += &cells.join(", ");
        table += "];\n";
        for (d, design) in DesignKind::ALL.iter().enumerate() {
            for (k, kind) in KINDS.iter().enumerate() {
                if runs[d][k] != RUN_DIGESTS[d][k] {
                    eprintln!("run digest differs: {design} × {kind}");
                }
            }
            if stressed[d] != STRESS_DIGESTS[d] {
                eprintln!("stress digest differs: {design}");
            }
            if crashes[d] != CRASH_DIGESTS[d] {
                eprintln!("crash digest differs: {design}");
            }
        }
        panic!("engine output differs from the golden digests; measured:\n{table}");
    }
}

/// A crash point armed at the first persist event freezes the memory
/// controller, so the run deadlocks; the engine reports it at once instead
/// of idling to the next watchdog check.
#[test]
#[should_panic(expected = "no progress")]
fn deadlocked_run_panics() {
    let mut sys = system(DesignKind::MorLogSlde, WorkloadKind::Hash);
    sys.arm_crash_at(1);
    sys.run();
}
