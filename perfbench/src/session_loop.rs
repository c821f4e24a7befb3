//! `session_edits`: one client keeps [`SESSIONS`] sessions, each replaying
//! a seeded edit stream over its own mid-size `uniform` instance, and
//! commits them in turn; each op stages one delta in one session and
//! commits it (closed loop).

use crate::gen::{session_base, EditStream};
use crate::staged::{check_reproduces, check_result, traced_solve, LayerProfile};
use crate::stats::{
    median, ms, quantile, share, Metrics, SetupTimer, SETUP_REPS_AFTER, SETUP_REPS_BEFORE,
};
use crate::{Args, RunOutcome};
use ise_model::validate;
use ise_sched::{solve, SolverOptions};
use ise_session::{ReuseTier, Session, Verdict};
use std::time::{Duration, Instant};

/// Sessions the client keeps open. Several sessions average the cost of
/// their base instances, so one seed's inputs weigh less in a run.
const SESSIONS: u64 = 8;
/// Commits whose schedules make up the `calibrations` and `machines`
/// totals (see `solve_loop::QUALITY_SET`).
const QUALITY_COMMITS: usize = 1024;
/// A commit slower than this misses the latency limit of `goodput_rps`.
const LATENCY_LIMIT: Duration = Duration::from_millis(100);

/// Commit latencies and reuse telemetry of the traced run, per tier.
#[derive(Default)]
struct SessionProfile {
    commit_ms: [Vec<f64>; 3],
    warm_accepted: [usize; 3],
    lp_iterations: usize,
    memo_hits: usize,
    memo_misses: usize,
    scratch_ms: Vec<f64>,
}

fn tier_index(t: ReuseTier) -> usize {
    match t {
        ReuseTier::Basis => 0,
        ReuseTier::Warm => 1,
        ReuseTier::Cold => 2,
    }
}

impl SessionProfile {
    fn emit(&self, m: &mut Metrics) {
        let commits: usize = self.commit_ms.iter().map(Vec::len).sum();
        // Median commit time per tier, comparable with the from-scratch
        // median `session.scratch_ms_p50`.
        for (i, tier) in ["basis", "warm", "cold"].iter().enumerate() {
            let times = &self.commit_ms[i];
            m.put(&format!("session.commit_ms_{tier}"), median(times), "ms");
            let count = times.len() as f64;
            m.put(&format!("session.tier_{tier}"), count, "count");
        }
        // Basis and warm commits offer a warm start; the share the simplex
        // accepted (the rest fell back cold).
        let offered = (self.commit_ms[0].len() + self.commit_ms[1].len()) as f64;
        let accepted = (self.warm_accepted[0] + self.warm_accepted[1]) as f64;
        m.put(
            "session.warm_accept_share",
            share(accepted, offered),
            "ratio",
        );
        let iters = share(self.lp_iterations as f64, commits as f64);
        m.put("session.lp_iterations_per_commit", iters, "count");
        let probes = (self.memo_hits + self.memo_misses) as f64;
        m.put(
            "session.memo_hit_share",
            share(self.memo_hits as f64, probes),
            "ratio",
        );
        m.put("session.scratch_ms_p50", median(&self.scratch_ms), "ms");
    }
}

/// Session-layer metrics on a workload that never opens a session.
pub fn emit_bypassed_session(m: &mut Metrics) {
    SessionProfile::default().emit(m);
}

pub fn run(args: &Args) -> Result<RunOutcome, String> {
    // Set-up opens every session and makes its first (cold) commit.
    let mut setup = || {
        (0..SESSIONS)
            .map(|k| {
                let mut session = Session::open(session_base(args.seed, k, args.scale));
                session
                    .commit()
                    .map_err(|e| format!("opening commit failed: {e}"))?;
                Ok((session, EditStream::new(args.seed, k, args.scale)))
            })
            .collect::<Result<Vec<_>, String>>()
    };
    let mut timer = SetupTimer::default();
    let mut sessions = timer.run(SETUP_REPS_BEFORE, &mut setup)?;

    let mut latencies = Vec::new();
    let (mut failed, mut correct, mut infeasible) = (0u64, true, 0u64);
    let (mut calibrations, mut machines_used, mut within_limit) = (0usize, 0usize, 0u64);
    let mut profile = SessionProfile::default();
    let mut layers = LayerProfile::default();
    let opts = SolverOptions::default();
    let seconds = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut n = 0usize;
    let floor = if args.trace { 1 } else { QUALITY_COMMITS };
    while started.elapsed() < seconds || n < floor {
        let (session, stream) = &mut sessions[n % SESSIONS as usize];
        let delta = stream.next(session.instance().len(), session.instance().machines());
        n += 1;
        if session.apply(&delta).is_err() {
            failed += 1;
            correct = false;
            continue;
        }
        let t0 = Instant::now();
        let commit = session.commit();
        let latency = t0.elapsed();
        latencies.push(ms(latency));
        let inst = session.committed();
        let Ok(commit) = commit else {
            failed += 1;
            continue;
        };
        let mut op_ok = match &commit.verdict {
            Verdict::Feasible { schedule, .. } => validate(inst, schedule).is_ok(),
            Verdict::Infeasible { .. } => true,
        };
        let was_infeasible = matches!(commit.verdict, Verdict::Infeasible { .. });
        infeasible += u64::from(was_infeasible);
        if let (Verdict::Feasible { schedule, .. }, true) = (&commit.verdict, n <= QUALITY_COMMITS)
        {
            calibrations += schedule.num_calibrations();
            machines_used += schedule.machines_used();
        }
        if args.trace {
            let t = &commit.telemetry;
            let tier = tier_index(t.tier);
            profile.commit_ms[tier].push(ms(latency));
            profile.warm_accepted[tier] += usize::from(t.warm_started);
            profile.lp_iterations += t.lp_iterations;
            profile.memo_hits += t.memo_hits;
            profile.memo_misses += t.invalidated_intervals;
            // The from-scratch reference, then the staged solve of the same
            // instance, which must reproduce it.
            let t1 = Instant::now();
            let scratch = solve(inst, &opts).map(|o| o.schedule);
            let scratch_time = t1.elapsed();
            profile.scratch_ms.push(ms(scratch_time));
            op_ok &= check_result(inst, &scratch, false).0;
            let traced = traced_solve(inst);
            op_ok &= check_reproduces(&traced.schedule, &scratch);
            layers.add(traced, scratch_time);
        }
        if !op_ok {
            failed += 1;
            correct = false;
        } else if latency <= LATENCY_LIMIT && !was_infeasible {
            within_limit += 1;
        }
    }
    let wall = started.elapsed().as_secs_f64();

    let mut m = Metrics::default();
    if args.trace {
        layers.emit(&mut m);
        profile.emit(&mut m);
        crate::serve_loop::emit_bypassed_engine(&mut m);
    } else {
        timer.run(SETUP_REPS_AFTER, &mut setup)?;
        m.put("setup_s", timer.median(), "s");
        m.put("latency_p50_ms", quantile(&latencies, 0.5), "ms");
        m.put("latency_p90_ms", quantile(&latencies, 0.9), "ms");
        m.put("throughput_ops_s", n as f64 / wall, "1/s");
        m.put("goodput_rps", within_limit as f64 / wall, "1/s");
        m.put("calibrations", calibrations as f64, "count");
        m.put("machines", machines_used as f64, "count");
    }
    Ok(RunOutcome {
        correct,
        attempted: n as u64,
        failed,
        infeasible,
        metrics: m,
    })
}
