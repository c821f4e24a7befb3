//! End-to-end and per-layer benchmark of the `ise` scheduler.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload long_lp --seed 1 --seconds 40 --trace 0
//! ```
//!
//! One op is one solve (`long_lp`), one session commit (`session_edits`)
//! or one request through a loopback `NetServer` (`serve_loopback`).
//! With `--trace 0` the run measures the untouched program and reports the
//! end-to-end metrics; with `--trace 1` it re-runs the workload with spans
//! around every layer call (recorded in this benchmark's own code) and
//! reports the per-layer metrics. Every output is checked: schedules are
//! validated, and traced solves must reproduce `solve`'s schedule. A table
//! goes to stderr; the last line of stdout is the JSON result.
//! `BENCHMARK.json` at the repository root lists the workloads and
//! metrics and why each exists.

mod gen;
mod serve_loop;
mod session_loop;
mod solve_loop;
mod staged;
mod stats;

use gen::Scale;
use stats::Metrics;
use std::process::ExitCode;

/// What one run reports.
pub struct RunOutcome {
    /// No output failed its check.
    pub correct: bool,
    /// Ops attempted in the measured phase.
    pub attempted: u64,
    /// Ops that failed: errors, refused or shed requests, failed checks.
    pub failed: u64,
    /// Ops answered with a certified infeasibility: correct answers,
    /// counted apart from both successes and failures.
    pub infeasible: u64,
    pub metrics: Metrics,
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

const USAGE: &str = "usage: perfbench --workload long_lp|session_edits|serve_loopback \
--seed N --seconds S --trace 0|1 [--smoke]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut scale = Scale::Full;
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            scale = Scale::Smoke;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let missing = |f: &str| format!("missing {f}");
    let seconds = seconds.ok_or_else(|| missing("--seconds"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        scale,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "long_lp" => solve_loop::run(&args),
        "session_edits" => session_loop::run(&args),
        "serve_loopback" => serve_loop::run(&args),
        other => {
            eprintln!("perfbench: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let infeasible = outcome.infeasible as f64;
        outcome.metrics.put("ops_infeasible", infeasible, "count");
        let rss = stats::peak_rss_mb();
        outcome.metrics.put("process.peak_rss_mb", rss, "MiB");
    }
    eprint!(
        "workload {} seed {} trace {}: correct={} ops={} ops_failed={} ops_infeasible={}\n{}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        outcome.infeasible,
        outcome.metrics.table()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        outcome.metrics.json()
    );
    ExitCode::SUCCESS
}
