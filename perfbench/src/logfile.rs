//! The embedded-log part: `morlog-log` over its file backend, one
//! closed-loop client. Two phases run the same transaction stream, first
//! with an fsync per drain, then with none. Every `crash_every`
//! transactions the client drops the handle mid-transaction, reopens the
//! file, recovers and checks the data region against its own model.

use morlog_log::{Log, LogConfig, MmapDomain, PersistDomain, RegionId, SyncMode, TxTag};
use morlog_sim_core::rng::DetRng;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::measure::{percentile, ratio, secs, Values};
use crate::spans;
use crate::Ctx;

/// Stores per transaction.
pub const STORES: usize = 4;

/// Stores the in-flight transaction makes before the handle is dropped.
const INFLIGHT_STORES: usize = 2;

/// The log geometry (the one `log_smoke` uses).
fn log_config() -> LogConfig {
    LogConfig {
        slices: 2,
        log_capacity: 64 * 1024,
        data_words: 1024,
        delay_persistence: false,
    }
}

pub struct LogPlan {
    pub fsync_txs: usize,
    pub nofsync_txs: usize,
    pub crash_every: usize,
}

/// The client's transactions: `STORES` (word, value) pairs each.
pub struct Stream {
    txs: Vec<[(u64, u64); STORES]>,
}

impl Stream {
    pub fn new(seed: u64, len: usize) -> Self {
        let words = log_config().data_words;
        let mut rng = DetRng::for_stream(seed, 0x10C);
        let txs = (0..len)
            .map(|_| std::array::from_fn(|_| (rng.gen_range(words), rng.next_u64())))
            .collect();
        Stream { txs }
    }
}

/// A [`PersistDomain`] adapter that counts `persist` and `drain` calls
/// and the bytes they cover, and times them when `timing` is on.
pub struct TimedDomain<D> {
    inner: D,
    timing: bool,
    pub persists: u64,
    pub persist_bytes: u64,
    pub drains: u64,
    /// Time inside `persist` and `drain` (timed rounds only).
    pub domain_ns: u64,
    /// Duration of every drain (timed rounds only).
    pub drain_ns: Vec<u64>,
}

impl<D> TimedDomain<D> {
    pub fn new(inner: D, timing: bool) -> Self {
        TimedDomain {
            inner,
            timing,
            persists: 0,
            persist_bytes: 0,
            drains: 0,
            domain_ns: 0,
            drain_ns: Vec::new(),
        }
    }
}

impl<D: PersistDomain> PersistDomain for TimedDomain<D> {
    fn region_len(&self, region: RegionId) -> u64 {
        self.inner.region_len(region)
    }

    fn write(&mut self, region: RegionId, off: u64, bytes: &[u8]) {
        self.inner.write(region, off, bytes);
    }

    fn read(&self, region: RegionId, off: u64, buf: &mut [u8]) {
        self.inner.read(region, off, buf);
    }

    fn persist(&mut self, region: RegionId, off: u64, len: u64) {
        self.persists += 1;
        self.persist_bytes += len;
        if self.timing {
            let t = Instant::now();
            self.inner.persist(region, off, len);
            self.domain_ns += t.elapsed().as_nanos() as u64;
        } else {
            self.inner.persist(region, off, len);
        }
    }

    fn drain(&mut self) -> bool {
        self.drains += 1;
        if self.timing {
            let t = Instant::now();
            let alive = self.inner.drain();
            let ns = t.elapsed().as_nanos() as u64;
            self.domain_ns += ns;
            self.drain_ns.push(ns);
            alive
        } else {
            self.inner.drain()
        }
    }

    fn restart(&mut self) {
        self.inner.restart();
    }
}

type FileLog = Log<TimedDomain<MmapDomain>>;

/// Everything one phase measured.
#[derive(Default)]
struct Phase {
    setup_ns: u64,
    /// First `write` to `commit` return, per committed transaction.
    tx_ns: Vec<u64>,
    /// End index in `tx_ns` of each slice of transactions run in one go.
    slice_ends: Vec<usize>,
    /// Reopen + `Log::open` + `recover`, per crash cycle.
    recover_ns: Vec<u64>,
    records_scanned: u64,
    persists: u64,
    persist_bytes: u64,
    drains: u64,
    /// Domain time inside committed transactions (timed rounds only).
    tx_domain_ns: u64,
    drain_ns: Vec<u64>,
    user_bytes: u64,
}

impl Phase {
    /// `(commit p50 in µs, tx/s)` of each slice.
    fn slices(&self) -> Vec<(f64, f64)> {
        let mut start = 0;
        self.slice_ends
            .iter()
            .map(|&end| {
                let tx_ns = &self.tx_ns[start..end];
                start = end;
                (
                    percentile(tx_ns, 50.0) / 1e3,
                    tx_ns.len() as f64 / secs(tx_ns.iter().sum()),
                )
            })
            .collect()
    }

    fn harvest(&mut self, d: &TimedDomain<MmapDomain>) {
        self.persists += d.persists;
        self.persist_bytes += d.persist_bytes;
        self.drains += d.drains;
        self.drain_ns.extend_from_slice(&d.drain_ns);
    }
}

fn tag(n: usize) -> (u8, u16) {
    ((n % 2) as u8, ((n / 2) % 0x10000) as u16)
}

/// Slices the fsync phase is cut into, so that its transactions sample
/// the disk across the whole round rather than in one burst: fsync
/// latency on a shared disk drifts over seconds.
pub const FSYNC_SLICES: usize = 16;

/// One phase in progress: the log open over its file, and the client's
/// model of the committed data region.
pub struct PhaseRun {
    sync: SyncMode,
    path: PathBuf,
    /// `None` only inside a crash cycle.
    log: Option<FileLog>,
    model: Vec<u64>,
    next: usize,
    txs: usize,
    crash_every: usize,
    ph: Phase,
    /// Spans recorded before the phase started.
    span_mark: usize,
    /// Wall time spent inside this phase so far.
    pub busy_ns: u64,
}

impl PhaseRun {
    /// Creates and formats the log file (the phase's set-up).
    fn start(
        dir: &Path,
        sync: SyncMode,
        txs: usize,
        crash_every: usize,
        ctx: &mut Ctx,
        parent: usize,
    ) -> Self {
        let cfg = log_config();
        let path = dir.join(format!("{sync:?}.log").to_lowercase());
        let span_mark = ctx.spans.len();
        let g = ctx.spans.group();
        let t = Instant::now();
        let s = ctx.spans.begin("MmapDomain::create", g, parent);
        let domain = MmapDomain::create(&path, &cfg, sync).expect("create the log file");
        ctx.spans.end(s);
        let s = ctx.spans.begin("Log::format", g, parent);
        let log = Log::format(TimedDomain::new(domain, ctx.spans.is_on()), cfg.clone());
        ctx.spans.end(s);
        let setup_ns = t.elapsed().as_nanos() as u64;
        PhaseRun {
            sync,
            path,
            log: Some(log),
            model: vec![0u64; cfg.data_words as usize],
            next: 0,
            txs,
            crash_every,
            ph: Phase {
                setup_ns,
                ..Phase::default()
            },
            span_mark,
            busy_ns: setup_ns,
        }
    }

    /// Runs the next `FSYNC_SLICES`-th of the phase's transactions.
    pub fn slice(&mut self, stream: &Stream, ctx: &mut Ctx, parent: usize) {
        let upto = self.next + self.txs.div_ceil(FSYNC_SLICES);
        self.advance(upto, stream, ctx, parent);
    }

    /// Runs transactions up to (not including) `upto`, capped at the
    /// phase's length.
    fn advance(&mut self, upto: usize, stream: &Stream, ctx: &mut Ctx, parent: usize) {
        let t0 = Instant::now();
        while self.next < upto.min(self.txs) {
            let n = self.next;
            if n > 0 && n.is_multiple_of(self.crash_every) {
                self.crash_cycle(stream, n, ctx, parent);
            }
            let log = self.log.as_mut().expect("log is open");
            let (thread, txid) = tag(n);
            let ops = &stream.txs[n];
            let g = ctx.spans.group();
            let domain_ns = log.domain().domain_ns;
            let t = Instant::now();
            let top = ctx.spans.begin("tx", g, parent);
            for &(word, value) in ops {
                let s = ctx.spans.begin("Log::write", g, top);
                log.write(thread, txid, word, value)
                    .expect("transactional write");
                ctx.spans.end(s);
            }
            let s = ctx.spans.begin("Log::commit", g, top);
            log.commit(thread, txid).expect("commit");
            ctx.spans.end(s);
            ctx.spans.end(top);
            self.ph.tx_ns.push(t.elapsed().as_nanos() as u64);
            self.ph.tx_domain_ns += log.domain().domain_ns - domain_ns;
            for &(word, value) in ops {
                self.model[word as usize] = value;
            }
            self.ph.user_bytes += 8 * STORES as u64;
            self.next += 1;
        }
        if self.ph.slice_ends.last() != Some(&self.ph.tx_ns.len()) {
            self.ph.slice_ends.push(self.ph.tx_ns.len());
        }
        self.busy_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Runs the rest of the phase, ends it with a crash cycle and removes
    /// the file.
    fn finish(mut self, stream: &Stream, ctx: &mut Ctx, parent: usize) -> Phase {
        self.advance(self.txs, stream, ctx, parent);
        self.crash_cycle(stream, self.txs, ctx, parent);
        let log = self.log.take().expect("log is open");
        self.ph.harvest(log.domain());
        drop(log);
        std::fs::remove_file(&self.path).expect("remove the log file");
        self.ph
    }

    /// Starts transaction `n`, drops the handle mid-transaction, reopens
    /// the file, recovers, and checks that the data region equals the
    /// commit history and the in-flight transaction was rolled back.
    fn crash_cycle(&mut self, stream: &Stream, n: usize, ctx: &mut Ctx, parent: usize) {
        let sync = self.sync;
        let mut log = self.log.take().expect("log is open");
        let (thread, txid) = tag(n);
        for &(word, value) in &stream.txs[n][..INFLIGHT_STORES] {
            log.write(thread, txid, word, value)
                .expect("in-flight write");
            self.ph.user_bytes += 8;
        }
        self.ph.harvest(log.domain());
        drop(log);

        let cfg = log_config();
        let g = ctx.spans.group();
        let t = Instant::now();
        let s = ctx.spans.begin("MmapDomain::open", g, parent);
        let domain = MmapDomain::open(&self.path, &cfg, sync).expect("reopen the log file");
        ctx.spans.end(s);
        let s = ctx.spans.begin("Log::open", g, parent);
        let mut log: FileLog = Log::open(TimedDomain::new(domain, ctx.spans.is_on()), cfg.clone());
        ctx.spans.end(s);
        let s = ctx.spans.begin("Log::recover", g, parent);
        let outcome = log.recover().expect("recovery");
        ctx.spans.end(s);
        self.ph.recover_ns.push(t.elapsed().as_nanos() as u64);
        self.ph.records_scanned += outcome.records_scanned as u64;

        let inflight = TxTag::new(thread, txid);
        ctx.checks
            .expect(outcome.rolled_back.contains(&inflight), || {
                format!("log-file {sync:?}: in-flight tx {inflight:?} at {n} was not rolled back")
            });
        let model = &self.model;
        let diverged = (0..cfg.data_words)
            .filter(|&w| log.read_word(w) != model[w as usize])
            .count();
        ctx.checks.expect(diverged == 0, || {
            format!("log-file {sync:?}: {diverged} data words diverge from the commit history after the crash at tx {n}")
        });
        self.log = Some(log);
    }
}

/// Starts the fsync phase; the caller spreads its transactions over the
/// round with [`PhaseRun::slice`] and hands it back to [`run`].
pub fn start_fsync(plan: &LogPlan, dir: &Path, ctx: &mut Ctx, parent: usize) -> PhaseRun {
    PhaseRun::start(
        dir,
        SyncMode::Always,
        plan.fsync_txs,
        plan.crash_every,
        ctx,
        parent,
    )
}

/// Finishes the fsync phase, runs the no-fsync phase in one piece (its
/// cost is CPU, not disk) and derives the part's metrics. Returns the
/// fsync phase's `(commit p50 in µs, tx/s)` per slice.
pub fn run(
    plan: &LogPlan,
    stream: &Stream,
    dir: &Path,
    fsync: PhaseRun,
    ctx: &mut Ctx,
    parent: usize,
    v: &mut Values,
) -> Vec<(f64, f64)> {
    let mark_all = fsync.span_mark;
    let fsync = fsync.finish(stream, ctx, parent);
    let mark = ctx.spans.len();
    let nofsync = PhaseRun::start(
        dir,
        SyncMode::Never,
        plan.nofsync_txs,
        plan.crash_every,
        ctx,
        parent,
    )
    .finish(stream, ctx, parent);
    let nofsync_spans = ctx.spans.since(mark);

    let tx_per_s = |p: &Phase| p.tx_ns.len() as f64 / secs(p.tx_ns.iter().sum());
    v.insert("log_fsync_tx_per_s", tx_per_s(&fsync));
    v.insert(
        "log_fsync_commit_p50_us",
        percentile(&fsync.tx_ns, 50.0) / 1e3,
    );
    v.insert("log_nofsync_tx_per_s", tx_per_s(&nofsync));
    v.insert(
        "log_nofsync_commit_p50_us",
        percentile(&nofsync.tx_ns, 50.0) / 1e3,
    );
    let recover_ns: Vec<u64> = fsync
        .recover_ns
        .iter()
        .chain(&nofsync.recover_ns)
        .copied()
        .collect();
    v.insert("log_recover_ms", percentile(&recover_ns, 50.0) / 1e6);
    v.insert("setup.log", secs(fsync.setup_ns + nofsync.setup_ns));

    let cycles = recover_ns.len() as f64;
    let scanned = (fsync.records_scanned + nofsync.records_scanned) as f64;
    v.insert("log.recover_records_scanned", scanned / cycles);
    // Domain counts per committed transaction (crash cycles included) come
    // from the fsync phase, whose domain work they describe.
    let n = fsync.tx_ns.len() as f64;
    v.insert("log.persist_calls_per_tx", fsync.persists as f64 / n);
    v.insert("log.drains_per_tx", fsync.drains as f64 / n);
    v.insert(
        "log.file_bytes_per_user_byte",
        ratio(
            (fsync.persist_bytes + nofsync.persist_bytes) as f64,
            (fsync.user_bytes + nofsync.user_bytes) as f64,
        ),
    );
    v.insert(
        "log.commit_p99_us.fsync",
        percentile(&fsync.tx_ns, 99.0) / 1e3,
    );
    v.insert(
        "log.commit_p99_us.nofsync",
        percentile(&nofsync.tx_ns, 99.0) / 1e3,
    );
    if ctx.spans.is_on() {
        // Engine metrics describe the nofsync phase, where the engine's own
        // work is not hidden behind fsync.
        let writes = spans::durations(nofsync_spans, "Log::write");
        let commits = spans::durations(nofsync_spans, "Log::commit");
        v.insert("log.write_us_p50", percentile(&writes, 50.0) / 1e3);
        v.insert("log.commit_us_p50", percentile(&commits, 50.0) / 1e3);
        let calls: u64 = writes.iter().chain(&commits).sum();
        let m = nofsync.tx_ns.len() as f64;
        v.insert(
            "log.engine_us_per_tx",
            (calls as f64 - nofsync.tx_domain_ns as f64) / m / 1e3,
        );
        v.insert("log.drain_us_p50", percentile(&fsync.drain_ns, 50.0) / 1e3);
        v.insert("log.drain_us_p99", percentile(&fsync.drain_ns, 99.0) / 1e3);
        let mine = ctx.spans.since(mark_all);
        let open_ns: Vec<u64> = spans::durations(mine, "MmapDomain::open")
            .iter()
            .zip(spans::durations(mine, "Log::open"))
            .map(|(a, b)| a + b)
            .collect();
        v.insert("log.open_ms", percentile(&open_ns, 50.0) / 1e6);
        v.insert(
            "log.recover_us_per_record",
            spans::total_ns(mine, "Log::recover") as f64 / 1e3 / scanned,
        );
    }
    fsync.slices()
}
