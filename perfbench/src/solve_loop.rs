//! `long_lp`: one client solving a stream of distinct `long_only`
//! instances back to back (closed loop), cold every time.

use crate::gen::long_lp_instance;
use crate::staged::{check_reproduces, check_result, traced_solve, LayerProfile};
use crate::stats::{ms, quantile, Metrics, SetupTimer, SETUP_REPS_AFTER, SETUP_REPS_BEFORE};
use crate::{Args, RunOutcome};
use ise_model::Instance;
use ise_sched::{solve, SolverOptions};
use std::time::{Duration, Instant};

/// Instances whose schedules make up the `calibrations` and `machines`
/// totals; every untraced run solves at least these, so the totals are a
/// function of the seed alone.
const QUALITY_SET: usize = 64;
/// A solve slower than this misses the latency limit of `goodput_rps`.
const LATENCY_LIMIT: Duration = Duration::from_millis(1000);

pub fn run(args: &Args) -> Result<RunOutcome, String> {
    let opts = SolverOptions::default();
    let instance = |i: u64| long_lp_instance(args.seed, i, args.scale);
    // Each set-up generates the quality set and warms up on one of its
    // instances, a different one each time, so the median set-up time does
    // not hang on a single instance.
    let mut rep = 0;
    let mut setup = || {
        let quality: Vec<Instance> = (0..QUALITY_SET as u64).map(instance).collect();
        solve(&quality[rep], &opts).map_err(|e| format!("warm-up solve failed: {e}"))?;
        rep += 1;
        Ok(quality)
    };
    let mut timer = SetupTimer::default();
    let quality = timer.run(SETUP_REPS_BEFORE, &mut setup)?;

    let mut latencies = Vec::new();
    let (mut failed, mut correct, mut infeasible) = (0u64, true, 0u64);
    let (mut calibrations, mut machines, mut within_limit) = (0usize, 0usize, 0u64);
    let mut profile = LayerProfile::default();
    let seconds = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut i = 0u64;
    // The untraced run always reaches the quality set; the traced run does
    // not report its totals.
    let floor = if args.trace { 1 } else { QUALITY_SET };
    while started.elapsed() < seconds || (i as usize) < floor {
        let generated;
        let inst = match quality.get(i as usize) {
            Some(q) => q,
            None => {
                generated = instance(i);
                &generated
            }
        };
        let t0 = Instant::now();
        let res = solve(inst, &opts).map(|o| o.schedule);
        let latency = t0.elapsed();
        let (ok, was_infeasible) = check_result(inst, &res, true);
        let mut op_ok = ok;
        if args.trace {
            let traced = traced_solve(inst);
            op_ok &= check_reproduces(&traced.schedule, &res);
            profile.add(traced, latency);
        }
        latencies.push(ms(latency));
        infeasible += u64::from(was_infeasible);
        if !op_ok {
            failed += 1;
            correct = false;
        } else if latency <= LATENCY_LIMIT && !was_infeasible {
            within_limit += 1;
        }
        if let (Ok(s), true) = (&res, (i as usize) < QUALITY_SET) {
            calibrations += s.num_calibrations();
            machines += s.machines_used();
        }
        i += 1;
    }
    let wall = started.elapsed().as_secs_f64();

    let mut m = Metrics::default();
    if args.trace {
        profile.emit(&mut m);
        crate::serve_loop::emit_bypassed_engine(&mut m);
        crate::session_loop::emit_bypassed_session(&mut m);
    } else {
        timer.run(SETUP_REPS_AFTER, &mut setup)?;
        m.put("setup_s", timer.median(), "s");
        m.put("latency_p50_ms", quantile(&latencies, 0.5), "ms");
        m.put("latency_p90_ms", quantile(&latencies, 0.9), "ms");
        m.put("throughput_ops_s", i as f64 / wall, "1/s");
        m.put("goodput_rps", within_limit as f64 / wall, "1/s");
        m.put("calibrations", calibrations as f64, "count");
        m.put("machines", machines as f64, "count");
    }
    Ok(RunOutcome {
        correct,
        attempted: i,
        failed,
        infeasible,
        metrics: m,
    })
}
