//! Recovery measured from outside: `Engine::recover` on fresh copies of a
//! log directory, each recovered state checked against the last
//! acknowledged one.

use crate::report::Outcome;
use crate::setup::RECOVER_REPS;
use rxview_atg::Atg;
use rxview_core::XmlViewSystem;
use rxview_engine::{Engine, EngineConfig, RecoveryReport};
use rxview_workload::{base_fingerprint, edge_fingerprint};
use std::collections::BTreeSet;
use std::path::Path;
use std::time::{Duration, Instant};

/// Every base row and every view edge of a state, independent of node ids.
#[derive(Debug, PartialEq, Eq)]
pub struct Fingerprint {
    base: BTreeSet<(String, String)>,
    edges: BTreeSet<(String, String)>,
}

impl Fingerprint {
    pub fn of(sys: &XmlViewSystem) -> Self {
        Fingerprint {
            base: base_fingerprint(sys),
            edges: edge_fingerprint(sys),
        }
    }
}

/// Writes a checkpoint of `sys` into the empty directory `dir` (through
/// `Engine::with_durability`, which checkpoints the state it is given) and
/// returns how long that took.
pub fn checkpoint_state(sys: XmlViewSystem, dir: &Path) -> Duration {
    let t0 = Instant::now();
    let engine = Engine::with_durability(sys, EngineConfig::default(), dir)
        .expect("write a checkpoint of the final state");
    let took = t0.elapsed();
    drop(engine);
    took
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Recovers [`RECOVER_REPS`] times from copies of `source` under `config`,
/// checking each recovered state against `want` and the replay count
/// against `want_replayed`. Returns the wall times in seconds and the last
/// recovery report.
pub fn recover_runs(
    source: &Path,
    atg: &Atg,
    config: &EngineConfig,
    want: &Fingerprint,
    want_replayed: usize,
    work_dir: &Path,
    o: &mut Outcome,
) -> (Vec<f64>, Option<RecoveryReport>) {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..RECOVER_REPS {
        let dir = work_dir.join(format!("recover-{rep}"));
        copy_dir(source, &dir).expect("copy the log directory");
        let atg = atg.clone();
        let t0 = Instant::now();
        let recovered = Engine::recover(atg, &dir, config.clone());
        times.push(t0.elapsed().as_secs_f64());
        match recovered {
            Ok((engine, r)) => {
                if Fingerprint::of(engine.snapshot().system()) != *want {
                    o.check_errors.push(
                        "recovery: recovered state differs from the last acknowledged state".into(),
                    );
                }
                if r.replay_rejected != 0 || r.replayed_updates != want_replayed {
                    o.check_errors.push(format!(
                        "recovery: replayed {} updates (expected {want_replayed}), rejected {}",
                        r.replayed_updates, r.replay_rejected
                    ));
                }
                last = Some(r);
            }
            Err(e) => o.check_errors.push(format!("recovery failed: {e}")),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    (times, last)
}
