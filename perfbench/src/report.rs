//! Metric names, sample statistics and the run's printed result.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them
/// in its result line, and `BENCHMARK.json` bounds each.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("updates_per_sec", "updates/s"),
    ("ack_p50_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("recover_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end tails, printed by name but left out of the result line: on a
/// shared 2-CPU machine the 99th percentile of a run moves by a third or
/// more between runs of the same code (see `README.md`), so no bound a
/// regression check could use holds for it.
pub const TAILS: [(&str, &str); 2] = [("ack_p99_ms", "ms"), ("read_p99_ms", "ms")];

/// Per-layer metrics of the traced run: `(name, unit, in_json)`. The ones
/// marked `in_json` are measured on all three workloads (an idle layer
/// reads as a zero count or ratio, never as a zero time) and form the
/// result line; the others are printed by name, with `n/a` on workloads
/// where the layer does not run.
pub const PER_LAYER: [(&str, &str, bool); 48] = [
    ("setup.publish_s", "s", true),
    ("setup.topo_s", "s", true),
    ("setup.reach_s", "s", true),
    ("setup.checkpoint_s", "s", false),
    ("core.eval_ms", "ms/update", true),
    ("core.plan_cache_hit_rate", "ratio", true),
    ("core.translate_ms", "ms/update", true),
    ("core.delta_v_per_update", "count/update", true),
    ("core.delta_r_per_update", "count/update", true),
    ("core.selected_per_update", "count/update", false),
    ("core.sat_calls", "count", true),
    ("core.maintain_ms", "ms/update", true),
    ("core.maintain_m_rewrite_ms", "ms/update", true),
    ("core.maintain_l_splice_ms", "ms/update", true),
    ("core.gc_nodes", "count/update", false),
    ("core.m_pairs_changed", "count/update", false),
    ("engine.submit_us", "us", false),
    ("engine.commit_busy_s", "s", false),
    ("engine.plan_s", "s", false),
    ("engine.translate_s", "s", false),
    ("engine.merge_s", "s", false),
    ("engine.fold_s", "s", false),
    ("engine.publish_s", "s", false),
    ("engine.unattributed_s", "s", false),
    ("engine.plan_frac", "fraction", true),
    ("engine.translate_frac", "fraction", true),
    ("engine.merge_frac", "fraction", true),
    ("engine.fold_frac", "fraction", true),
    ("engine.publish_frac", "fraction", true),
    ("engine.wal_frac", "fraction", true),
    ("engine.unattributed_frac", "fraction", true),
    ("engine.rounds", "count", true),
    ("engine.mean_round_width", "count/round", true),
    ("engine.requeued", "count", true),
    ("engine.fission_admits", "count", true),
    ("engine.global_lane_rounds", "count", true),
    ("engine.shard_idle_fraction", "fraction", true),
    ("engine.template_hit_rate", "ratio", true),
    ("snapshot.acquire_us", "us", false),
    ("snapshot.select_ms", "ms", false),
    ("snapshot.release_ms", "ms", false),
    ("snapshot.epoch_lag", "epochs", false),
    ("wal.append_s", "s", false),
    ("wal.fsync_s", "s", false),
    ("checkpoint.write_s", "s", true),
    ("wal.bytes_per_update", "bytes/update", false),
    ("recovery.replayed_updates", "count", true),
    ("recovery.replay_ms_per_update", "ms/update", false),
];

/// Value at quantile `q` of `xs` (nearest rank on a sorted copy).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The end-to-end rate and latency figures of one run over the measured
/// window `[start, end)`, from samples stamped with the time they
/// completed.
pub fn latency_figures(
    e2e: &mut BTreeMap<&'static str, f64>,
    completions: &[Instant],
    acks: &[(Instant, f64)],
    reads: &[(Instant, f64)],
    start: Instant,
    end: Instant,
) {
    let inside = |t: Instant| t >= start && t < end;
    let done = completions.iter().filter(|&&t| inside(t)).count();
    e2e.insert("updates_per_sec", done as f64 / (end - start).as_secs_f64());
    let within = |xs: &[(Instant, f64)]| -> Vec<f64> {
        xs.iter()
            .filter(|(t, _)| inside(*t))
            .map(|(_, v)| *v)
            .collect()
    };
    let (acks, reads) = (within(acks), within(reads));
    e2e.insert("ack_p50_ms", quantile(&acks, 0.5));
    e2e.insert("ack_p99_ms", quantile(&acks, 0.99));
    e2e.insert("read_p50_ms", quantile(&reads, 0.5));
    e2e.insert("read_p99_ms", quantile(&reads, 0.99));
}

/// The variant name of an error, without its payload (`Cycle`,
/// `Delete`, …): the failure kind a run reports.
pub fn variant(e: &impl std::fmt::Debug) -> String {
    let text = format!("{e:?}");
    let cut = text.find(['(', '{', ' ']).unwrap_or(text.len());
    text[..cut].to_owned()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The process's peak resident set in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What one workload run measured and found.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Error kind of each failed update, counted.
    pub failures: BTreeMap<String, u64>,
    /// Failed correctness checks, described.
    pub check_errors: Vec<String>,
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer values; a name that is absent did not run on this workload.
    pub layers: BTreeMap<&'static str, f64>,
    /// Free-form lines printed before the result (sizes, sample counts).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, kind: String) {
        self.failed += 1;
        *self.failures.entry(kind).or_default() += 1;
    }

    pub fn check(&mut self, what: &str, r: Result<(), String>) {
        if let Err(e) = r {
            self.check_errors.push(format!("{what}: {e}"));
        }
    }

    /// Prints the human-readable report and, as the last line, the JSON
    /// result with the end-to-end (`trace = false`) or per-layer metrics.
    pub fn print(&self, workload: &str, trace: bool) {
        for n in &self.notes {
            println!("# {workload}: {n}");
        }
        println!(
            "# {workload}: updates attempted {} failed {}",
            self.attempted, self.failed
        );
        for (kind, n) in &self.failures {
            println!("# {workload}: failure {n} x {kind}");
        }
        for e in &self.check_errors {
            println!("# {workload}: CHECK FAILED {e}");
        }
        let mut json = Vec::new();
        if trace {
            for (name, unit, in_json) in PER_LAYER {
                let v = self.layers.get(name).copied();
                print_metric(workload, name, v, unit);
                if in_json {
                    json.push((name, v.unwrap_or(0.0), unit));
                }
            }
            for (name, v) in &self.layers {
                if name.starts_with("trace.") {
                    print_metric(workload, name, Some(*v), "");
                }
            }
        } else {
            for (name, unit) in END_TO_END {
                let v = self.end_to_end.get(name).copied().unwrap_or(f64::NAN);
                print_metric(workload, name, Some(v), unit);
                json.push((name, v, unit));
            }
            for (name, unit) in TAILS {
                let v = self.end_to_end.get(name).copied().unwrap_or(f64::NAN);
                print_metric(workload, name, Some(v), unit);
            }
        }
        let metrics: Vec<String> = json
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.check_errors.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn print_metric(workload: &str, name: &str, v: Option<f64>, unit: &str) {
    match v {
        Some(v) => println!("# {workload}: {name} = {v} {unit}"),
        None => println!("# {workload}: {name} = n/a {unit}"),
    }
}

/// A JSON number; a metric that could not be measured prints as `null`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}
