//! The two engine workloads: `serve_uniform` (single writer, uniform
//! conflict-free writers plus a snapshot reader) and `skew_durable` (two
//! shards, per-round fsync, skewed writers with a `//` share, ending in a
//! crash and recovery).
//!
//! Load comes from at most two threads: one runs every writer client's
//! closed loop, the other runs the reader's. A third, the committer, is the
//! server side: it calls `Engine::commit_pending` in the loop
//! `Engine::start_writer` runs, so that each commit call can be timed from
//! outside the program.

use crate::model::{
    answer_pairs, base_database, check_base, BaseModel, FreshNode, ReadTarget, Rng,
};
use crate::recover::{checkpoint_state, recover_runs, Fingerprint};
use crate::report::{latency_figures, median, ms, peak_rss_mb, variant, Outcome};
use crate::setup::{build_system, Params, SetupTimes, SETUP_REPS};
use crate::trace::{merge_totals, summary, SpanLog};
use rxview_core::{SideEffectPolicy, UpdateReport, XmlUpdate, XmlViewSystem};
use rxview_engine::{Durability, Engine, EngineConfig, EngineError, EngineReport, UpdateTicket};
use rxview_relstore::{Tuple, Value};
use rxview_workload::synthetic_atg;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// `C` rows per top-level group (the synthetic generator's default).
pub const GROUP_SIZE: usize = 40;
/// How long the committer sleeps after each `commit_pending` call.
const COMMIT_INTERVAL: Duration = Duration::from_millis(1);
/// The reader starts a read at most this often, so that it and the
/// committer each keep to about one of the two CPUs.
const READ_INTERVAL: Duration = Duration::from_millis(10);
/// First id handed to an inserted node; base ids stay below it.
const FRESH_BASE: i64 = 3_000_000_000;

/// The make-up of an engine workload.
#[derive(Debug, Clone)]
pub struct EngineSpec {
    pub groups: usize,
    /// Writer clients, each with at most one update outstanding.
    pub clients: usize,
    /// `1` = the single-writer path.
    pub shards: usize,
    pub durable: bool,
    /// Share of writes aimed at the hot heads; `0` spreads every client
    /// uniformly over a slice of heads no other client writes.
    pub hot_fraction: f64,
    pub hot_heads: usize,
    /// Share of writes phrased with a leading `//`.
    pub slash_share: f64,
    /// Updates committed between the explicit checkpoint and the crash.
    pub tail_updates: usize,
    /// Joinable heads kept for reads; no writer touches them.
    pub read_heads: usize,
}

impl EngineSpec {
    pub fn serve_uniform(smoke: bool) -> Self {
        EngineSpec {
            groups: crate::setup::groups(smoke),
            clients: if smoke { 4 } else { 32 },
            shards: 1,
            durable: false,
            hot_fraction: 0.0,
            hot_heads: 0,
            slash_share: 0.0,
            tail_updates: 0,
            read_heads: if smoke { 4 } else { 8 },
        }
    }

    pub fn skew_durable(smoke: bool) -> Self {
        EngineSpec {
            groups: crate::setup::groups(smoke),
            clients: if smoke { 4 } else { 32 },
            shards: 2,
            durable: true,
            hot_fraction: 0.8,
            hot_heads: 4,
            slash_share: 0.5,
            tail_updates: if smoke { 8 } else { 64 },
            read_heads: if smoke { 4 } else { 8 },
        }
    }

    fn config(&self) -> EngineConfig {
        if self.durable {
            EngineConfig {
                n_shards: self.shards,
                durability: Durability::PerRound,
                // Only the explicit checkpoint before the crash: the log
                // tail recovery replays is then the same length every run.
                checkpoint_rounds: 0,
                ..EngineConfig::default()
            }
        } else {
            EngineConfig {
                n_shards: self.shards,
                ..EngineConfig::default()
            }
        }
    }
}

/// The writers' model: which heads they may write, and every node they
/// inserted.
struct WriterGen {
    rng: Rng,
    spec: EngineSpec,
    /// Per client: its own heads (uniform mode) — or all cold heads.
    heads: Vec<Vec<i64>>,
    hot: Vec<i64>,
    next_fresh: i64,
    fresh: BTreeMap<i64, FreshNode>,
    /// Per client: the node it inserted and has not deleted yet, with the
    /// head it hangs under.
    live: Vec<Option<(i64, i64)>>,
}

/// One submitted update as the client sees it.
#[derive(Debug, Clone, Copy)]
struct Op {
    fresh: i64,
    head: i64,
    payload: i64,
    insert: bool,
}

impl WriterGen {
    fn new(spec: &EngineSpec, writer_heads: &[i64], rng: Rng) -> Self {
        let (hot, cold) = writer_heads.split_at(spec.hot_heads.min(writer_heads.len()));
        let heads: Vec<Vec<i64>> = (0..spec.clients)
            .map(|c| {
                if spec.hot_fraction > 0.0 {
                    cold.to_vec()
                } else {
                    cold.iter().skip(c).step_by(spec.clients).copied().collect()
                }
            })
            .collect();
        assert!(
            heads.iter().all(|h: &Vec<i64>| !h.is_empty()),
            "fewer writer heads than writer clients"
        );
        WriterGen {
            rng,
            spec: spec.clone(),
            heads,
            hot: hot.to_vec(),
            next_fresh: FRESH_BASE,
            fresh: BTreeMap::new(),
            live: vec![None; spec.clients],
        }
    }

    fn head(&mut self, client: usize) -> i64 {
        if !self.hot.is_empty() && self.rng.chance(self.spec.hot_fraction) {
            self.rng.pick(&self.hot)
        } else {
            self.rng.pick(&self.heads[client])
        }
    }

    fn prefix(&mut self) -> &'static str {
        if self.rng.chance(self.spec.slash_share) {
            "//"
        } else {
            ""
        }
    }

    /// The client's next update: delete the node it has live, else insert
    /// a fresh one.
    fn next(&mut self, client: usize) -> (XmlUpdate, Op) {
        match self.live[client] {
            Some((fresh, head)) => self.delete(fresh, head),
            None => {
                let head = self.head(client);
                self.insert(head)
            }
        }
    }

    fn insert(&mut self, head: i64) -> (XmlUpdate, Op) {
        let prefix = self.prefix();
        self.next_fresh += 1;
        let fresh = self.next_fresh;
        let payload = self.rng.below(32) as i64;
        let u = XmlUpdate::insert(
            "node",
            Tuple::from_values([Value::Int(fresh), Value::Int(payload)]),
            &format!("{prefix}node[id={head}]/sub"),
        )
        .expect("generated path parses");
        let op = Op {
            fresh,
            head,
            payload,
            insert: true,
        };
        (u, op)
    }

    fn delete(&mut self, fresh: i64, head: i64) -> (XmlUpdate, Op) {
        let prefix = self.prefix();
        let u = XmlUpdate::delete(&format!("{prefix}node[id={head}]/sub/node[id={fresh}]"))
            .expect("generated path parses");
        let op = Op {
            fresh,
            head,
            payload: self.fresh[&fresh].payload,
            insert: false,
        };
        (u, op)
    }

    /// Folds an acknowledged update into the model.
    fn acked(&mut self, client: usize, op: Op) {
        self.record(op);
        self.live[client] = op.insert.then_some((op.fresh, op.head));
    }

    /// Folds an acknowledged update into the node model.
    fn record(&mut self, op: Op) {
        if op.insert {
            let node = FreshNode {
                parent: op.head,
                payload: op.payload,
                live: true,
            };
            self.fresh.insert(op.fresh, node);
        } else {
            self.fresh
                .get_mut(&op.fresh)
                .expect("deleted node was inserted")
                .live = false;
        }
    }
}

fn error_kind(e: &EngineError) -> String {
    match e {
        EngineError::Update(u) => format!("Update::{}", variant(u)),
        _ => variant(e),
    }
}

/// Sums over the acknowledged updates' reports.
#[derive(Debug, Default)]
struct AckTotals {
    updates: u64,
    delta_v: u64,
    delta_r: u64,
    sat: u64,
}

impl AckTotals {
    fn add(&mut self, r: &UpdateReport) {
        self.updates += 1;
        self.delta_v += r.delta_v_len as u64;
        self.delta_r += r.delta_r.len() as u64;
        self.sat += u64::from(r.sat_used);
    }
}

/// The measured window, shared by the load threads.
#[derive(Debug, Clone, Copy)]
struct Window {
    start: Instant,
    end: Instant,
}

impl Window {
    fn holds(&self, t0: Instant, t1: Instant) -> bool {
        t0 >= self.start && t1 <= self.end
    }
}

/// A client's update in flight.
struct Pending {
    ticket: UpdateTicket,
    op: Op,
    submitted: Instant,
    span: Option<usize>,
}

struct ClientsResult {
    /// Latency of each update submitted and acknowledged in the window,
    /// stamped with its acknowledgement.
    acks: Vec<(Instant, f64)>,
    /// Every acknowledgement seen in the window.
    completions: Vec<Instant>,
    totals: AckTotals,
    attempted: u64,
    failures: Vec<String>,
}

/// Runs every writer client's closed loop on this thread until the window
/// ends, then waits for the outstanding updates.
fn run_clients(
    engine: &Engine,
    gen: &mut WriterGen,
    window: Window,
    log: &mut SpanLog,
) -> ClientsResult {
    let n = gen.spec.clients;
    let mut out = ClientsResult {
        acks: Vec::new(),
        completions: Vec::new(),
        totals: AckTotals::default(),
        attempted: 0,
        failures: Vec::new(),
    };
    let mut outstanding: Vec<Option<Pending>> = (0..n).map(|_| None).collect();
    let mut seq = 0u64;
    let mut submit = |c: usize,
                      gen: &mut WriterGen,
                      log: &mut SpanLog,
                      out: &mut ClientsResult|
     -> Option<Pending> {
        let (u, op) = gen.next(c);
        seq += 1;
        out.attempted += 1;
        let root = log.begin("client.update", seq, None);
        let t0 = Instant::now();
        let r = log.time("engine.submit", seq, root, || {
            engine.submit(u, SideEffectPolicy::Proceed)
        });
        match r {
            Ok(ticket) => Some(Pending {
                ticket,
                op,
                submitted: t0,
                span: root,
            }),
            Err(e) => {
                log.end(root);
                out.failures.push(error_kind(&e));
                None
            }
        }
    };
    for (c, slot) in outstanding.iter_mut().enumerate() {
        *slot = submit(c, gen, log, &mut out);
    }
    loop {
        let mut progressed = false;
        for (c, slot) in outstanding.iter_mut().enumerate() {
            let Some(res) = slot.as_ref().and_then(|p| p.ticket.try_wait()) else {
                continue;
            };
            let acked = Instant::now();
            let Pending {
                op,
                submitted: t0,
                span,
                ..
            } = slot.take().expect("slot was checked");
            log.end(span);
            progressed = true;
            if window.holds(t0, acked) {
                out.acks.push((acked, ms(acked - t0)));
            }
            if acked >= window.start && acked <= window.end {
                out.completions.push(acked);
            }
            match res {
                Ok(report) => {
                    out.totals.add(&report);
                    gen.acked(c, op);
                }
                Err(e) => out.failures.push(error_kind(&e)),
            }
            if acked < window.end {
                *slot = submit(c, gen, log, &mut out);
            }
        }
        if outstanding.iter().all(Option::is_none) {
            break;
        }
        if !progressed {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    out
}

struct ReaderResult {
    /// Latency of each read in the window, stamped with its end.
    reads_ms: Vec<(Instant, f64)>,
    reads: u64,
    mismatches: Vec<String>,
    epoch_lag: Vec<f64>,
}

/// The reader's closed loop, paced at one read per [`READ_INTERVAL`] at
/// most: anchored point reads on snapshots, each answer compared with the
/// child set computed from the base relations.
fn run_reader(
    engine: &Engine,
    reads: &[ReadTarget],
    mut rng: Rng,
    window: Window,
    log: &mut SpanLog,
) -> ReaderResult {
    let mut out = ReaderResult {
        reads_ms: Vec::new(),
        reads: 0,
        mismatches: Vec::new(),
        epoch_lag: Vec::new(),
    };
    let mut due = Instant::now();
    while !reads.is_empty() && Instant::now() < window.end {
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        due = due.max(now) + READ_INTERVAL;
        let target = &reads[rng.below(reads.len())];
        out.reads += 1;
        let id = out.reads;
        let root = log.begin("read", id, None);
        let t0 = Instant::now();
        let snap = log.time("snapshot.acquire", id, root, || engine.snapshot());
        let answer = log.time("snapshot.select", id, root, || snap.select(&target.path));
        let epoch = snap.epoch();
        log.time("snapshot.release", id, root, || drop(snap));
        let t1 = Instant::now();
        log.end(root);
        if window.holds(t0, t1) {
            out.reads_ms.push((t1, ms(t1 - t0)));
        }
        if log.on() {
            out.epoch_lag
                .push(engine.snapshot().epoch().saturating_sub(epoch) as f64);
        }
        if let Some(m) = target.mismatch(&answer_pairs(&answer)) {
            if out.mismatches.len() < 5 {
                out.mismatches.push(m);
            }
        }
    }
    out
}

/// The committer: `start_writer`'s loop, with every non-empty
/// `commit_pending` call timed.
fn run_committer(engine: &Engine, stop: &AtomicBool, log: &mut SpanLog) -> Duration {
    let mut busy = Duration::ZERO;
    let mut n = 0u64;
    loop {
        let done = stop.load(Ordering::SeqCst);
        let t0 = Instant::now();
        let summary = engine.commit_pending();
        let t1 = Instant::now();
        if summary.updates > 0 {
            busy += t1 - t0;
            n += 1;
            log.record("engine.commit_pending", n, t0, t1);
        }
        if done {
            return busy;
        }
        std::thread::sleep(COMMIT_INTERVAL);
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Runs one engine workload end to end.
pub fn run(spec: &EngineSpec, p: &Params) -> Outcome {
    let mut o = Outcome::default();
    let mut rng = Rng::new(p.seed);
    let db = base_database(spec.groups, GROUP_SIZE);
    let atg = synthetic_atg(&db).expect("synthetic ATG builds");
    let model = BaseModel::read(&db);

    // Heads, in id order: the first for reads only, the rest for writers
    // (hot ones first). The choice is part of the fixed data, not of the
    // seed, so that every seed reads and hammers the same heads.
    let heads = &model.joinable_heads;
    let (read_heads, writer_heads) = heads.split_at(spec.read_heads.min(heads.len() / 2));
    let reads: Vec<ReadTarget> = read_heads
        .iter()
        .map(|&h| ReadTarget::children_of(&model, h))
        .collect();
    o.notes.push(format!(
        "{} C rows in {} groups ({} joinable heads: {} read-only, {} written), {} writer clients, {} shard(s), durability {}",
        spec.groups * GROUP_SIZE,
        spec.groups,
        model.joinable_heads.len(),
        read_heads.len(),
        writer_heads.len(),
        spec.clients,
        spec.shards,
        if spec.durable { "per round" } else { "off" },
    ));

    // Set-up, several times; the last engine serves the run.
    let t_run = Instant::now();
    let mut setup_log = SpanLog::new(p.trace, t_run, "setup");
    let mut setup = SetupTimes::default();
    let wal_dir = p.work_dir.join("wal");
    let mut engine = None;
    for rep in 0..SETUP_REPS {
        drop(engine.take());
        let _ = std::fs::remove_dir_all(&wal_dir);
        let (sys, parts) = build_system(&atg, &db, &mut setup_log, rep as u64);
        let t0 = Instant::now();
        let e = setup_log.time("setup.engine", rep as u64, None, || {
            if spec.durable {
                Engine::with_durability(sys, spec.config(), &wal_dir).expect("durable engine")
            } else {
                Engine::with_config(sys, spec.config())
            }
        });
        setup.push(parts, t0.elapsed());
        engine = Some(e);
    }
    let engine = engine.expect("at least one set-up");

    // The timed section: warm-up, then the measured window.
    let mut gen = WriterGen::new(spec, writer_heads, Rng::new(rng.next_u64()));
    let reader_rng = Rng::new(rng.next_u64());
    let start = Instant::now() + p.warmup();
    let window = Window {
        start,
        end: start + Duration::from_secs_f64(p.seconds),
    };
    let stop = AtomicBool::new(false);
    let mut client_log = SpanLog::new(p.trace, t_run, "clients");
    let mut reader_log = SpanLog::new(p.trace, t_run, "reader");
    let mut commit_log = SpanLog::new(p.trace, t_run, "committer");
    let (clients, reader, busy) = std::thread::scope(|s| {
        let committer = s.spawn(|| run_committer(&engine, &stop, &mut commit_log));
        let reader = s.spawn(|| run_reader(&engine, &reads, reader_rng, window, &mut reader_log));
        let clients = run_clients(&engine, &mut gen, window, &mut client_log);
        let reader = reader.join().expect("reader thread panicked");
        stop.store(true, Ordering::SeqCst);
        let busy = committer.join().expect("committer thread panicked");
        (clients, reader, busy)
    });
    let report = engine.stats().report();
    o.attempted += clients.attempted;
    for f in &clients.failures {
        o.fail(f.clone());
    }
    o.notes.push(format!(
        "{} acks and {} reads sampled in the {:.0} s window",
        clients.acks.len(),
        reader.reads_ms.len(),
        p.seconds
    ));

    // Durable: explicit checkpoint, a fixed tail of updates, then a crash.
    let mut ckpt_write = None;
    if spec.durable {
        let t0 = Instant::now();
        engine.checkpoint_now().expect("checkpoint");
        ckpt_write = Some(t0.elapsed());
        // The tail: inserts under the writers' heads, then the deletes of
        // the same nodes, each set committed by one `commit_pending`.
        o.attempted += 2 * (spec.tail_updates / 2) as u64;
        let mut inserted = Vec::new();
        for pass in 0..2 {
            let ops: Vec<(XmlUpdate, Op)> = if pass == 0 {
                (0..spec.tail_updates / 2)
                    .map(|_| {
                        let head = gen.head(0);
                        gen.insert(head)
                    })
                    .collect()
            } else {
                std::mem::take(&mut inserted)
                    .into_iter()
                    .map(|op: Op| gen.delete(op.fresh, op.head))
                    .collect()
            };
            let mut tickets = Vec::new();
            for (u, op) in ops {
                match engine.submit(u, SideEffectPolicy::Proceed) {
                    Ok(t) => tickets.push((t, op)),
                    Err(e) => o.fail(error_kind(&e)),
                }
            }
            engine.commit_pending();
            for (t, op) in tickets {
                match t.wait() {
                    Ok(_) => {
                        gen.record(op);
                        if op.insert {
                            inserted.push(op);
                        }
                    }
                    Err(e) => o.fail(error_kind(&e)),
                }
            }
        }
    }

    // Checks, after the timed section.
    let last = engine.snapshot();
    o.check(
        "base relations",
        check_base(last.system(), &model, &gen.fresh),
    );
    o.check("republication oracle", last.system().consistency_check());
    if !reader.mismatches.is_empty() {
        o.check_errors
            .push(format!("reads: {}", reader.mismatches.join("; ")));
    }
    let want = Fingerprint::of(last.system());

    // Recovery: from the crash (durable) or a cold restart from a
    // checkpoint of the final state.
    let source = if spec.durable {
        drop(last);
        drop(engine);
        wal_dir.clone()
    } else {
        let sys: XmlViewSystem = last.system().clone();
        drop(last);
        drop(engine);
        let dir = p.work_dir.join("ckpt");
        ckpt_write = Some(checkpoint_state(sys, &dir));
        dir
    };
    let want_replayed = 2 * (spec.tail_updates / 2);
    let (recover_s, replay) = recover_runs(
        &source,
        &atg,
        &spec.config(),
        &want,
        want_replayed,
        &p.work_dir,
        &mut o,
    );

    let e2e = &mut o.end_to_end;
    e2e.insert("setup_s", setup.median_total());
    let (start, end) = (window.start, window.end);
    latency_figures(
        e2e,
        &clients.completions,
        &clients.acks,
        &reader.reads_ms,
        start,
        end,
    );
    e2e.insert("recover_s", median(&recover_s));
    e2e.insert("peak_rss_mb", peak_rss_mb());

    if p.trace {
        engine_layers(
            &mut o,
            &report,
            busy,
            &clients.totals,
            [&setup_log, &client_log, &reader_log, &commit_log],
            &setup,
            spec.durable,
        );
        let l = &mut o.layers;
        l.insert("checkpoint.write_s", ckpt_write.map_or(0.0, secs));
        let lag = &reader.epoch_lag;
        l.insert(
            "snapshot.epoch_lag",
            lag.iter().sum::<f64>() / lag.len().max(1) as f64,
        );
        l.insert("trace.updates_per_sec", o.end_to_end["updates_per_sec"]);
        l.insert("trace.read_p50_ms", o.end_to_end["read_p50_ms"]);
        if let Some(r) = &replay {
            l.insert("recovery.replayed_updates", r.replayed_updates as f64);
            if r.replayed_updates > 0 {
                l.insert(
                    "recovery.replay_ms_per_update",
                    ms(r.wal_replay) / r.replayed_updates as f64,
                );
            }
        }
        for log in [&setup_log, &client_log, &reader_log, &commit_log] {
            if let Err(e) = log.write_jsonl(&p.trace_file) {
                o.notes.push(format!("could not write spans: {e}"));
            }
        }
    }
    o
}

/// Per-layer figures of an engine run: spans around the benchmark's calls
/// plus the engine's own counters.
fn engine_layers(
    o: &mut Outcome,
    r: &EngineReport,
    busy: Duration,
    acks: &AckTotals,
    logs: [&SpanLog; 4],
    setup: &SetupTimes,
    durable: bool,
) {
    let spans = merge_totals(&logs);
    o.notes.extend(summary(&spans));
    let span = |n: &str| spans.get(n).copied().unwrap_or_default();
    let per_update = |d: Duration| ms(d) / r.accepted.max(1) as f64;
    let l = &mut o.layers;
    for (name, v) in setup.layers() {
        l.insert(name, v);
    }
    if durable {
        l.insert("setup.checkpoint_s", median(&setup.engine));
    }
    l.insert("core.eval_ms", per_update(r.phases.eval));
    l.insert("core.plan_cache_hit_rate", r.plan_cache.hit_rate());
    l.insert("core.translate_ms", per_update(r.phases.translate));
    let n = acks.updates.max(1) as f64;
    l.insert("core.delta_v_per_update", acks.delta_v as f64 / n);
    l.insert("core.delta_r_per_update", acks.delta_r as f64 / n);
    l.insert("core.sat_calls", acks.sat as f64);
    l.insert("core.maintain_ms", per_update(r.phases.maintain));
    l.insert("core.maintain_m_rewrite_ms", per_update(r.fold_m_rewrite));
    l.insert("core.maintain_l_splice_ms", per_update(r.fold_l_splice));
    l.insert("engine.submit_us", span("engine.submit").mean_ms() * 1e3);
    let phases = [
        ("plan", r.plan),
        ("translate", r.translate_wall),
        ("merge", r.merge),
        ("fold", r.phases.maintain),
        ("publish", r.publish),
    ];
    let wal = r.wal_append + r.fsync;
    let phase_sum: Duration = phases.iter().map(|(_, d)| *d).sum::<Duration>() + wal;
    // Serial-section time that overlapped a younger round's translation is
    // inside both the serial phases and `translate_wall`; count it once.
    let unattributed = secs(busy) - (secs(phase_sum) - secs(r.overlap));
    let frac = |x: f64| if busy.is_zero() { 0.0 } else { x / secs(busy) };
    l.insert("engine.commit_busy_s", secs(busy));
    for (name, d) in phases {
        let (s, f) = match name {
            "plan" => ("engine.plan_s", "engine.plan_frac"),
            "translate" => ("engine.translate_s", "engine.translate_frac"),
            "merge" => ("engine.merge_s", "engine.merge_frac"),
            "fold" => ("engine.fold_s", "engine.fold_frac"),
            _ => ("engine.publish_s", "engine.publish_frac"),
        };
        l.insert(s, secs(d));
        l.insert(f, frac(secs(d)));
    }
    l.insert("engine.wal_frac", frac(secs(wal)));
    l.insert("engine.unattributed_s", unattributed);
    l.insert("engine.unattributed_frac", frac(unattributed));
    l.insert("engine.rounds", r.width_rounds as f64);
    l.insert("engine.mean_round_width", r.mean_realized_width());
    l.insert("engine.requeued", r.requeued as f64);
    l.insert("engine.fission_admits", r.fission_admits as f64);
    l.insert("engine.global_lane_rounds", r.global_lane_rounds as f64);
    l.insert("engine.shard_idle_fraction", r.shard_idle_fraction());
    l.insert("engine.template_hit_rate", r.template_cache.hit_rate());
    l.insert(
        "snapshot.acquire_us",
        span("snapshot.acquire").mean_ms() * 1e3,
    );
    l.insert("snapshot.select_ms", span("snapshot.select").mean_ms());
    l.insert("snapshot.release_ms", span("snapshot.release").mean_ms());
    if durable {
        l.insert("wal.append_s", secs(r.wal_append));
        l.insert("wal.fsync_s", secs(r.fsync));
        l.insert(
            "wal.bytes_per_update",
            r.wal_bytes as f64 / r.accepted.max(1) as f64,
        );
    }
}
