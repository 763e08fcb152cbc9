//! Run parameters and the timed set-up every workload shares: from base
//! relations that are ready to a published system (`ViewStore::publish`,
//! `TopoOrder::compute`, `Reachability::compute`).

use crate::report::median;
use crate::trace::SpanLog;
use rxview_atg::Atg;
use rxview_core::{Reachability, TopoOrder, ViewStore, XmlViewSystem};
use rxview_relstore::Database;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;
/// Cold recoveries per run; `recover_s` is their median.
pub const RECOVER_REPS: usize = 11;

/// Top-level groups of the base data (40 `C` rows each), every workload.
pub fn groups(smoke: bool) -> usize {
    if smoke {
        24
    } else {
        64
    }
}

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The smoke size: tiny inputs and a short warm-up, same code paths.
    pub smoke: bool,
    /// Scratch directory of this run (logs, checkpoints), removed at exit.
    pub work_dir: PathBuf,
    /// Where a traced run writes its spans.
    pub trace_file: PathBuf,
}

impl Params {
    /// Untimed time before the measured window: lets the plan caches fill
    /// and the engine reach its steady round size.
    pub fn warmup(&self) -> Duration {
        if self.smoke {
            Duration::from_millis(200)
        } else {
            Duration::from_secs(2)
        }
    }
}

/// Medians of the set-up parts over [`SETUP_REPS`] repetitions.
#[derive(Debug, Default)]
pub struct SetupTimes {
    pub total: Vec<f64>,
    pub publish: Vec<f64>,
    pub topo: Vec<f64>,
    pub reach: Vec<f64>,
    /// Engine construction (for a durable engine: the initial checkpoint).
    pub engine: Vec<f64>,
}

impl SetupTimes {
    pub fn push(&mut self, parts: [Duration; 3], engine: Duration) {
        let s = |d: Duration| d.as_secs_f64();
        self.publish.push(s(parts[0]));
        self.topo.push(s(parts[1]));
        self.reach.push(s(parts[2]));
        self.engine.push(s(engine));
        self.total
            .push(s(parts[0]) + s(parts[1]) + s(parts[2]) + s(engine));
    }

    pub fn median_total(&self) -> f64 {
        median(&self.total)
    }

    pub fn layers(&self) -> [(&'static str, f64); 3] {
        [
            ("setup.publish_s", median(&self.publish)),
            ("setup.topo_s", median(&self.topo)),
            ("setup.reach_s", median(&self.reach)),
        ]
    }
}

/// Publishes the view over `db` and builds `M` and `L`, timing each part.
pub fn build_system(
    atg: &Atg,
    db: &Database,
    log: &mut SpanLog,
    rep: u64,
) -> (XmlViewSystem, [Duration; 3]) {
    let atg = atg.clone();
    let db = db.clone();
    let root = log.begin("setup", rep, None);
    let t0 = Instant::now();
    let vs = log.time("setup.publish", rep, root, || {
        ViewStore::publish(atg, &db).expect("synthetic view publishes")
    });
    let t1 = Instant::now();
    let topo = log.time("setup.topo", rep, root, || TopoOrder::compute(vs.dag()));
    let t2 = Instant::now();
    let reach = log.time("setup.reach", rep, root, || {
        Reachability::compute(vs.dag(), &topo)
    });
    let t3 = Instant::now();
    log.end(root);
    let sys = XmlViewSystem::from_parts(db, vs, topo, reach);
    (sys, [t1 - t0, t2 - t1, t3 - t2])
}
