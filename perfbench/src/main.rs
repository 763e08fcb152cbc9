//! The rxview benchmark of record.
//!
//! ```text
//! rxview-perfbench --workload <serve_uniform|skew_durable|paper_seq|all>
//!                  --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! One workload runs per process. Untraced (`--trace 0`) it prints every
//! end-to-end metric; traced (`--trace 1`) every per-layer metric. The last
//! line of standard output is the JSON result. `--workload all` runs each
//! workload untraced and traced in child processes, prints everything, and
//! reports the tracing overhead. `--smoke` shrinks the inputs so the same
//! code paths and checks finish in seconds. See `README.md`.

mod engine_wl;
mod model;
mod paper_wl;
mod recover;
mod report;
mod setup;
mod trace;

use setup::Params;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const WORKLOADS: [&str; 3] = ["serve_uniform", "skew_durable", "paper_seq"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Outputs live next to the benchmark's sources, inside the checkout.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_one(a: &Args) -> ExitCode {
    let work = WorkDir(out_dir().join(format!("run-{}-{}", a.workload, std::process::id())));
    let _ = std::fs::remove_dir_all(&work.0);
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("cannot create {}: {e}", work.0.display());
        return ExitCode::from(2);
    }
    let trace_file = out_dir().join(format!("trace-{}-seed{}.jsonl", a.workload, a.seed));
    if a.trace {
        let _ = std::fs::remove_file(&trace_file);
    }
    let p = Params {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        smoke: a.smoke,
        work_dir: work.0.clone(),
        trace_file: trace_file.clone(),
    };
    let outcome = match a.workload.as_str() {
        "serve_uniform" => engine_wl::run(&engine_wl::EngineSpec::serve_uniform(a.smoke), &p),
        "skew_durable" => engine_wl::run(&engine_wl::EngineSpec::skew_durable(a.smoke), &p),
        _ => paper_wl::run(&p),
    };
    if a.trace {
        println!(
            "# {}: spans written to {}",
            a.workload,
            trace_file.display()
        );
    }
    outcome.print(&a.workload, a.trace);
    ExitCode::SUCCESS
}

/// The figure `# <workload>: <name> = <value> <unit>` printed by a child.
fn figure(out: &str, workload: &str, name: &str) -> Option<f64> {
    let prefix = format!("# {workload}: {name} = ");
    out.lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Runs every workload untraced and traced, each in a fresh process.
fn run_all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let mut outputs = Vec::new();
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w, "--seed", &a.seed.to_string()])
                .args(["--seconds", &a.seconds.to_string(), "--trace", trace]);
            if a.smoke {
                cmd.arg("--smoke");
            }
            let out = match cmd.output() {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("cannot run {w}: {e}");
                    return ExitCode::from(2);
                }
            };
            let text = String::from_utf8_lossy(&out.stdout).into_owned();
            print!("{text}");
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let last = text.lines().last().unwrap_or("");
            let clean = out.status.success()
                && last.contains("\"correct\": true")
                && last.contains("\"failed\": 0,");
            if !clean {
                println!("# {w}: RUN FAILED (trace {trace}, {})", out.status);
                ok = false;
            }
            outputs.push(text);
        }
        let untraced = figure(&outputs[0], w, "updates_per_sec");
        let traced = figure(&outputs[1], w, "trace.updates_per_sec");
        if let (Some(u), Some(t)) = (untraced, traced) {
            println!(
                "# {w}: tracing overhead = {:.2} % of updates_per_sec ({u:.1} untraced, {t:.1} traced)",
                100.0 * (u - t) / u
            );
        }
    }
    println!("{{\"all_workloads_clean\": {ok}}}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rxview-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}
