//! `paper_seq`: the paper's algorithm with no engine. One thread applies
//! the W1/W2/W3 insertion and deletion shapes of §5 through
//! `XmlViewSystem::apply`, interleaved with anchored reads.
//!
//! A round is three insertions (one per shape) followed by three deletions
//! of the nodes the round inserted (one per shape, the pairing rotating
//! from round to round), so the view's size and the per-update cost do not
//! drift within a run. Paths are sampled from the current view, walking
//! only base nodes whose `C` and `F` rows join, so no update selects
//! nothing; every inserted node gets a fresh id and a payload no base row
//! has, so each deletion selects exactly one node the round inserted.

use crate::engine_wl::GROUP_SIZE;
use crate::model::{
    answer_pairs, base_database, check_base, BaseModel, FreshNode, ReadTarget, Rng,
};
use crate::recover::{checkpoint_state, recover_runs, Fingerprint};
use crate::report::{latency_figures, median, ms, peak_rss_mb, variant, Outcome};
use crate::setup::{build_system, Params, SetupTimes, SETUP_REPS};
use crate::trace::{summary, SpanLog};
use rxview_atg::NodeId;
use rxview_core::{SideEffectPolicy, XmlUpdate, XmlViewSystem};
use rxview_engine::EngineConfig;
use rxview_relstore::{Tuple, Value};
use rxview_workload::synthetic_atg;
use rxview_xmlkit::XPath;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const FRESH_BASE: i64 = 5_000_000_000;
/// Payloads of inserted nodes start here; base payloads are below 50.
const PAYLOAD_BASE: i64 = 1_000_000;
/// Anchored reads after each round.
const READS_PER_ROUND: usize = 3;

/// A node this workload inserted: the root it hangs below, the `/` walk of
/// base node ids from that root to its parent, and its payload.
#[derive(Debug, Clone)]
struct Inserted {
    fresh: i64,
    root: i64,
    walk: Vec<i64>,
    payload: i64,
}

impl Inserted {
    fn parent(&self) -> i64 {
        self.walk.last().copied().unwrap_or(self.root)
    }

    fn slash_path(&self) -> String {
        self.walk
            .iter()
            .map(|id| format!("/sub/node[id={id}]"))
            .collect()
    }
}

struct Gen<'m> {
    rng: Rng,
    model: &'m BaseModel,
    roots: Vec<i64>,
    next_fresh: i64,
}

impl Gen<'_> {
    /// Base children of `v` in the current view whose rows join.
    fn joinable_children(&self, sys: &XmlViewSystem, v: NodeId) -> Vec<(NodeId, i64)> {
        let vs = sys.view();
        let dag = vs.dag();
        let sub = vs.atg().dtd().type_id("sub").expect("synthetic DTD");
        let Some(&s) = dag
            .children(v)
            .iter()
            .find(|&&c| dag.genid().type_of(c) == sub)
        else {
            return Vec::new();
        };
        dag.children(s)
            .iter()
            .map(|&c| (c, dag.genid().attr_of(c)[0].as_int().expect("int id")))
            .filter(|(_, id)| *id < FRESH_BASE && self.model.joinable.contains(id))
            .collect()
    }

    fn node_of(&self, sys: &XmlViewSystem, id: i64) -> NodeId {
        let vs = sys.view();
        let node = vs.atg().dtd().type_id("node").expect("synthetic DTD");
        let attr = Tuple::from_values([Value::Int(id), Value::Int(self.model.payload[&id])]);
        vs.dag()
            .genid()
            .lookup(node, &attr)
            .expect("sampled roots are published")
    }

    /// A walk of 1..=`depth` joinable base nodes below `root`.
    fn walk(&mut self, sys: &XmlViewSystem, root: i64, depth: usize) -> Vec<i64> {
        let mut v = self.node_of(sys, root);
        let mut walk = Vec::new();
        for _ in 0..depth {
            let kids = self.joinable_children(sys, v);
            if kids.is_empty() {
                break;
            }
            let (c, id) = kids[self.rng.below(kids.len())];
            walk.push(id);
            v = c;
        }
        walk
    }

    /// An insertion of shape `class` (0 = W1, 1 = W2, 2 = W3).
    fn insertion(&mut self, sys: &XmlViewSystem, class: usize) -> (XmlUpdate, Inserted) {
        let root = self.rng.pick(&self.roots);
        self.next_fresh += 1;
        let fresh = self.next_fresh;
        let payload = PAYLOAD_BASE + (fresh - FRESH_BASE);
        let (walk, path) = match class {
            0 => {
                let depth = 1 + self.rng.below(3);
                let walk = self.walk(sys, root, depth);
                let d = *walk.last().expect("roots have a joinable child");
                (walk, format!("node[id={root}]//node[id={d}]/sub"))
            }
            1 => {
                let walk = self.walk(sys, root, 1);
                let x = walk[0];
                (walk, format!("node[id={root}]/sub/node[id={x}]/sub"))
            }
            _ => {
                let p = self.model.payload[&root];
                (
                    Vec::new(),
                    format!("node[id={root}][sub/node][payload={p}]/sub"),
                )
            }
        };
        let u = XmlUpdate::insert(
            "node",
            Tuple::from_values([Value::Int(fresh), Value::Int(payload)]),
            &path,
        )
        .expect("generated path parses");
        let node = Inserted {
            fresh,
            root,
            walk,
            payload,
        };
        (u, node)
    }

    /// A deletion of shape `class` that selects exactly `n`.
    fn deletion(n: &Inserted, class: usize) -> XmlUpdate {
        let (r, p) = (n.root, n.payload);
        let path = match class {
            0 => format!("node[id={r}]//node[payload={p}]"),
            1 => format!("node[id={r}]{}/sub/node[payload={p}]", n.slash_path()),
            _ => format!(
                "node[id={r}][sub/node]{}/sub/node[payload={p}][not(sub/node)]",
                n.slash_path()
            ),
        };
        XmlUpdate::delete(&path).expect("generated path parses")
    }
}

/// Per-update figures a traced run adds up.
#[derive(Debug, Default)]
struct LayerTotals {
    updates: u64,
    delta_v: u64,
    delta_r: u64,
    selected: u64,
    sat: u64,
    m_rewrite_ns: u64,
    l_splice_ns: u64,
    gc_nodes: u64,
    m_pairs: u64,
}

/// Applies one update, through `apply` or — traced — through the three
/// layer calls `apply` is made of, each in a span.
fn apply(
    sys: &mut XmlViewSystem,
    u: &XmlUpdate,
    id: u64,
    log: &mut SpanLog,
    totals: &mut LayerTotals,
) -> Result<(), String> {
    let policy = SideEffectPolicy::Proceed;
    if !log.on() {
        return sys.apply(u, policy).map(|_| ()).map_err(kind);
    }
    let root = log.begin("update", id, None);
    let eval = log.time("core.eval", id, root, || sys.evaluate(u.path()));
    let translated = log.time("core.translate", id, root, || {
        sys.apply_deferred(u, policy, eval)
    });
    let result = translated.and_then(|(report, job)| {
        totals.selected += job.n_selected() as u64;
        let m = log.time("core.maintain", id, root, || {
            sys.fold_maintenance(vec![job])
        })?;
        totals.updates += 1;
        totals.delta_v += report.delta_v_len as u64;
        totals.delta_r += report.delta_r.len() as u64;
        totals.sat += u64::from(report.sat_used);
        totals.m_rewrite_ns += m.m_rewrite_ns;
        totals.l_splice_ns += m.l_splice_ns;
        totals.gc_nodes += m.gc_nodes as u64;
        totals.m_pairs += (m.m_inserted + m.m_removed) as u64;
        Ok(())
    });
    log.end(root);
    result.map_err(kind)
}

fn kind(e: rxview_core::UpdateError) -> String {
    format!("Update::{}", variant(&e))
}

fn read(sys: &XmlViewSystem, path: &XPath) -> Vec<(i64, i64)> {
    let vs = sys.view();
    let answer: Vec<(String, Tuple)> = sys
        .evaluate(path)
        .selected
        .iter()
        .map(|&v| (String::new(), vs.dag().genid().attr_of(v).clone()))
        .collect();
    answer_pairs(&answer)
}

pub fn run(p: &Params) -> Outcome {
    let mut o = Outcome::default();
    let mut rng = Rng::new(p.seed);
    let groups = crate::setup::groups(p.smoke);
    let db = base_database(groups, GROUP_SIZE);
    let atg = synthetic_atg(&db).expect("synthetic ATG builds");
    let model = BaseModel::read(&db);

    // Roots with a joinable child can take every shape; the first few, in
    // id order, are kept for reads.
    let mut roots: Vec<i64> = model
        .joinable_heads
        .iter()
        .copied()
        .filter(|h| {
            model
                .h_children
                .get(h)
                .is_some_and(|kids| kids.iter().any(|c| model.joinable.contains(c)))
        })
        .collect();
    let n_read = if p.smoke { 4 } else { 8 }.min(roots.len() / 2);
    let reads: Vec<ReadTarget> = roots
        .drain(..n_read)
        .map(|h| ReadTarget::children_of(&model, h))
        .collect();
    o.notes.push(format!(
        "{} C rows in {groups} groups, {} write roots, {} read-only roots, one thread",
        groups * GROUP_SIZE,
        roots.len(),
        reads.len()
    ));

    let t_run = Instant::now();
    let mut log = SpanLog::new(p.trace, t_run, "paper");
    let mut setup = SetupTimes::default();
    let mut sys = None;
    for rep in 0..SETUP_REPS {
        drop(sys.take());
        let (s, parts) = build_system(&atg, &db, &mut log, rep as u64);
        setup.push(parts, Duration::ZERO);
        sys = Some(s);
    }
    let mut sys = sys.expect("at least one set-up");
    let plans_before = sys.view().plan_cache().stats();
    let templates_before = sys.view().template_stats();

    let mut gen = Gen {
        rng: Rng::new(rng.next_u64()),
        model: &model,
        roots,
        next_fresh: FRESH_BASE,
    };
    let mut fresh: BTreeMap<i64, FreshNode> = BTreeMap::new();
    let mut totals = LayerTotals::default();
    let (mut acks_ms, mut reads_ms, mut completions) = (Vec::new(), Vec::new(), Vec::new());
    let mut mismatches = Vec::new();
    let window_start = Instant::now() + p.warmup();
    let window_end = window_start + Duration::from_secs_f64(p.seconds);
    let mut last_end = window_start;
    let mut id = 0u64;
    let mut round = 0usize;
    // Whole rounds only: the deadline is checked between rounds.
    while Instant::now() < window_end {
        let timed = Instant::now() >= window_start;
        let mut inserted = Vec::new();
        for step in 0..6 {
            let (u, node) = if step < 3 {
                let (u, n) = gen.insertion(&sys, step);
                (u, Some(n))
            } else {
                let n: &Inserted = &inserted[step - 3];
                (Gen::deletion(n, (step + round) % 3), None)
            };
            id += 1;
            o.attempted += 1;
            let t0 = Instant::now();
            let r = apply(&mut sys, &u, id, &mut log, &mut totals);
            let t1 = Instant::now();
            match (r, node) {
                (Ok(()), Some(n)) => {
                    fresh.insert(
                        n.fresh,
                        FreshNode {
                            parent: n.parent(),
                            payload: n.payload,
                            live: true,
                        },
                    );
                    inserted.push(n);
                }
                (Ok(()), None) => {
                    let n = &inserted[step - 3];
                    fresh.get_mut(&n.fresh).expect("inserted").live = false;
                }
                (Err(e), _) => o.fail(e),
            }
            if timed {
                acks_ms.push((t1, ms(t1 - t0)));
                completions.push(t1);
                last_end = t1;
            }
            if inserted.len() < 3 && step == 2 {
                // A failed insertion leaves nothing to delete: skip the
                // round's deletions rather than sample new ones.
                break;
            }
        }
        for _ in 0..READS_PER_ROUND {
            let target = &reads[gen.rng.below(reads.len())];
            id += 1;
            let root = log.begin("read", id, None);
            let t0 = Instant::now();
            let got = log.time("core.read_eval", id, root, || read(&sys, &target.path));
            let t1 = Instant::now();
            log.end(root);
            if timed {
                reads_ms.push((t1, ms(t1 - t0)));
                last_end = last_end.max(t1);
            }
            if let Some(m) = target.mismatch(&got) {
                if mismatches.len() < 5 {
                    mismatches.push(m);
                }
            }
        }
        round += 1;
    }
    let measured_s = (last_end - window_start).as_secs_f64();
    o.notes.push(format!(
        "{} acks and {} reads sampled in the {:.1} s window ({round} rounds in all)",
        acks_ms.len(),
        reads_ms.len(),
        measured_s
    ));

    // Checks, after the timed section.
    o.check("base relations", check_base(&sys, &model, &fresh));
    o.check("republication oracle", sys.consistency_check());
    if !mismatches.is_empty() {
        o.check_errors
            .push(format!("reads: {}", mismatches.join("; ")));
    }
    let plans = sys.view().plan_cache().stats().delta_since(&plans_before);
    let templates = sys.view().template_stats().delta_since(&templates_before);

    // Cold restart from a checkpoint of the final state.
    let want = Fingerprint::of(&sys);
    let dir = p.work_dir.join("ckpt");
    let ckpt_write = checkpoint_state(sys, &dir);
    let (recover_s, replay) = recover_runs(
        &dir,
        &atg,
        &EngineConfig::default(),
        &want,
        0,
        &p.work_dir,
        &mut o,
    );

    let e2e = &mut o.end_to_end;
    e2e.insert("setup_s", setup.median_total());
    // The window ends with the last round; the end is just past its last
    // sample so that sample counts.
    let end = last_end + Duration::from_micros(1);
    latency_figures(e2e, &completions, &acks_ms, &reads_ms, window_start, end);
    e2e.insert("recover_s", median(&recover_s));
    e2e.insert("peak_rss_mb", peak_rss_mb());

    if p.trace {
        let spans = log.totals();
        o.notes.extend(summary(&spans));
        let span = |n: &str| spans.get(n).copied().unwrap_or_default();
        let n = totals.updates.max(1) as f64;
        let l = &mut o.layers;
        for (name, v) in setup.layers() {
            l.insert(name, v);
        }
        l.insert("core.eval_ms", span("core.eval").mean_ms());
        l.insert("core.plan_cache_hit_rate", plans.hit_rate());
        l.insert("core.translate_ms", span("core.translate").mean_ms());
        l.insert("core.delta_v_per_update", totals.delta_v as f64 / n);
        l.insert("core.delta_r_per_update", totals.delta_r as f64 / n);
        l.insert("core.selected_per_update", totals.selected as f64 / n);
        l.insert("core.sat_calls", totals.sat as f64);
        l.insert("core.maintain_ms", span("core.maintain").mean_ms());
        l.insert(
            "core.maintain_m_rewrite_ms",
            totals.m_rewrite_ns as f64 / 1e6 / n,
        );
        l.insert(
            "core.maintain_l_splice_ms",
            totals.l_splice_ns as f64 / 1e6 / n,
        );
        l.insert("core.gc_nodes", totals.gc_nodes as f64 / n);
        l.insert("core.m_pairs_changed", totals.m_pairs as f64 / n);
        // No engine runs here: its counts and shares are zero.
        for name in [
            "engine.plan_frac",
            "engine.translate_frac",
            "engine.merge_frac",
            "engine.fold_frac",
            "engine.publish_frac",
            "engine.wal_frac",
            "engine.unattributed_frac",
            "engine.rounds",
            "engine.mean_round_width",
            "engine.requeued",
            "engine.fission_admits",
            "engine.global_lane_rounds",
            "engine.shard_idle_fraction",
        ] {
            l.insert(name, 0.0);
        }
        l.insert("engine.template_hit_rate", templates.hit_rate());
        l.insert("checkpoint.write_s", ckpt_write.as_secs_f64());
        l.insert(
            "recovery.replayed_updates",
            replay.map_or(0.0, |r| r.replayed_updates as f64),
        );
        l.insert("trace.updates_per_sec", o.end_to_end["updates_per_sec"]);
        l.insert("trace.read_p50_ms", o.end_to_end["read_p50_ms"]);
        l.insert("trace.read_eval_ms", span("core.read_eval").mean_ms());
        if let Err(e) = log.write_jsonl(&p.trace_file) {
            o.notes.push(format!("could not write spans: {e}"));
        }
    }
    o
}
