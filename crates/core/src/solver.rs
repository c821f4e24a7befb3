//! The combined solver (Theorem 1).
//!
//! Partition jobs into long- and short-window sets (Definition 1), solve
//! each with its specialized pipeline on disjoint machines, and take the
//! union. With an `α`-approximate MM black box this is an `O(α)`-machine
//! `O(α)`-approximation for the ISE problem; the partitioning itself at
//! most doubles machines and calibrations beyond the two sub-algorithms.

use crate::cancel::CancelToken;
use crate::error::SchedError;
use crate::long_window::{schedule_long_windows, LongWindowOptions, LongWindowOutcome};
use crate::short_window::{
    schedule_short_windows, CrossingPolicy, ShortWindowMemo, ShortWindowOutcome,
};
use ise_mm::{
    ExactMm, GreedyMm, LpRoundMm, MachineMinimizer, MmError, MmSchedule, Portfolio, UnitMm,
};
use ise_model::{Instance, Schedule};
use ise_simplex::Basis;

/// Choice of machine-minimization black box for the short-window pipeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MmBackend {
    /// Exact branch and bound with the given node budget, falling back to
    /// the greedy heuristic when the budget runs out. The default: the
    /// short-window intervals contain few jobs each, so exact is almost
    /// always affordable and gives `α = 1`.
    #[default]
    Auto,
    /// Exact branch and bound; errors out when the budget is exceeded.
    Exact,
    /// EDF first-fit heuristic (no worst-case guarantee; measured
    /// empirically).
    Greedy,
    /// Exact polynomial unit-job MM (requires all `p_j = 1`).
    Unit,
    /// LP-rounding heuristic in the Raghavan–Thompson style (the flavor of
    /// black box the paper's concrete bounds cite).
    LpRound,
    /// Best-of portfolio over exact/unit/interval/greedy.
    Portfolio,
}

impl MmBackend {
    /// Canonical CLI/wire name of the backend.
    pub fn as_str(self) -> &'static str {
        match self {
            MmBackend::Auto => "auto",
            MmBackend::Exact => "exact",
            MmBackend::Greedy => "greedy",
            MmBackend::Unit => "unit",
            MmBackend::LpRound => "lp-round",
            MmBackend::Portfolio => "portfolio",
        }
    }
}

impl std::str::FromStr for MmBackend {
    type Err = ();

    fn from_str(s: &str) -> Result<MmBackend, ()> {
        Ok(match s {
            "auto" => MmBackend::Auto,
            "exact" => MmBackend::Exact,
            "greedy" => MmBackend::Greedy,
            "unit" => MmBackend::Unit,
            "lp-round" => MmBackend::LpRound,
            "portfolio" => MmBackend::Portfolio,
            _ => return Err(()),
        })
    }
}

/// Options for [`solve`].
#[derive(Clone, Debug, Default)]
pub struct SolverOptions {
    /// Long-window pipeline options.
    pub long: LongWindowOptions,
    /// MM black box for the short-window pipeline.
    pub mm: MmBackend,
    /// Drop calibrations that end up containing no job. Never affects
    /// feasibility; the paper's bounds are proved *without* trimming (its
    /// Algorithm 5 calibrates unconditionally), so experiments report both.
    pub trim_empty_calibrations: bool,
    /// Cooperative cancellation hook, the only one in the pipeline. The
    /// default token never fires. [`solve`] polls it between phases, hands
    /// it to the short-window pipeline, and installs it as `long.lp`'s
    /// `interrupt` (overriding any caller-set hook), which reaches the
    /// long-window phase boundaries and the simplex pivot loop.
    pub cancel: CancelToken,
}

/// The combined result.
#[derive(Clone, Debug)]
pub struct SolveOutcome {
    /// Feasible ISE schedule for the whole instance.
    pub schedule: Schedule,
    /// Long-window sub-result (if any long jobs existed).
    pub long: Option<LongWindowOutcome>,
    /// Short-window sub-result (if any short jobs existed).
    pub short: Option<ShortWindowOutcome>,
    /// Number of long-window jobs.
    pub long_jobs: usize,
    /// Number of short-window jobs.
    pub short_jobs: usize,
}

/// The MM black box instance behind each [`MmBackend`] choice.
fn mm_black_box(backend: MmBackend) -> Box<dyn MachineMinimizer> {
    match backend {
        MmBackend::Auto => Box::new(AutoMm {
            exact: ExactMm::default(),
        }),
        MmBackend::Exact => Box::new(ExactMm::default()),
        MmBackend::Greedy => Box::new(GreedyMm),
        MmBackend::Unit => Box::new(UnitMm),
        MmBackend::LpRound => Box::new(LpRoundMm::default()),
        MmBackend::Portfolio => Box::new(Portfolio::standard()),
    }
}

struct AutoMm {
    exact: ExactMm,
}

impl MachineMinimizer for AutoMm {
    fn name(&self) -> &'static str {
        "auto(exact->greedy)"
    }
    fn minimize(&self, jobs: &[ise_model::Job]) -> Result<MmSchedule, MmError> {
        if jobs.len() <= 63 {
            match self.exact.minimize(jobs) {
                Ok(s) => return Ok(s),
                Err(MmError::BudgetExceeded { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        GreedyMm.minimize(jobs)
    }
}

/// Solve an ISE instance with the paper's combined algorithm (Theorem 1).
///
/// Returns a feasible schedule using `O(m)` machines (for the default exact
/// black box) or an error: [`SchedError::Infeasible`] carries a certificate
/// that no schedule exists on the instance's stated machine count.
pub fn solve(instance: &Instance, opts: &SolverOptions) -> Result<SolveOutcome, SchedError> {
    solve_inner(instance, opts, None)
}

/// Cross-solve state reused by the incremental (delta-solving) entry point
/// [`solve_incremental`] — the optimal LP basis of the previous long-window
/// solve, the per-interval MM memo of the short-window pipeline, and the
/// simplex workspace. The one carrier of warm-start state: an
/// `ise::session::Session` owns one across commits, and the engine builds
/// one per request from its basis cache. A fresh default value makes
/// [`solve_incremental`] produce exactly the schedule of a cold [`solve`].
#[derive(Debug, Default)]
pub struct SolveReuse {
    /// Warm-start basis for the long-window LP (an incompatible basis is
    /// silently ignored by the simplex).
    pub warm_basis: Option<Basis>,
    /// Per-interval MM memo for the short-window pipeline.
    pub memo: ShortWindowMemo,
    /// Shared simplex scratch: successive solves through the same reuse
    /// state recycle all pivot-loop buffers (steady-state re-solves are
    /// allocation-free in the simplex loop).
    pub workspace: ise_simplex::WorkspaceHandle,
}

impl SolveReuse {
    /// Empty reuse state (first solve of a session, or after a structural
    /// delta invalidated everything).
    pub fn new() -> SolveReuse {
        SolveReuse::default()
    }
}

/// Delta-aware entry point: as [`solve`], but the long-window LP is
/// warm-started from `reuse.warm_basis` in `reuse.workspace`, and
/// short-window intervals replay from `reuse.memo` when their job content
/// is unchanged. On success the reuse state is updated in place (new
/// optimal basis, refreshed memo) so consecutive calls keep exploiting each
/// other's work.
pub fn solve_incremental(
    instance: &Instance,
    opts: &SolverOptions,
    reuse: &mut SolveReuse,
) -> Result<SolveOutcome, SchedError> {
    // Reset the per-solve memo counters here: the short-window half may not
    // run at all (no short jobs), and its stats must not carry over.
    reuse.memo.begin_solve();
    let outcome = solve_inner(instance, opts, Some(&mut *reuse))?;
    if let Some(basis) = outcome
        .long
        .as_ref()
        .and_then(|l| l.fractional.basis.clone())
    {
        reuse.warm_basis = Some(basis);
    }
    Ok(outcome)
}

fn solve_inner(
    instance: &Instance,
    opts: &SolverOptions,
    reuse: Option<&mut SolveReuse>,
) -> Result<SolveOutcome, SchedError> {
    let _solve_span = ise_obs::Span::enter("solve");
    opts.cancel.check()?;
    let (long_jobs, short_jobs) = {
        let _span = ise_obs::Span::enter("solve.partition");
        instance.partition_long_short()
    };
    let n_long = long_jobs.len();
    let n_short = short_jobs.len();
    let (warm, workspace, memo) = match reuse {
        Some(r) => (r.warm_basis.as_ref(), Some(&r.workspace), Some(&mut r.memo)),
        None => (None, None, None),
    };

    // The two pipelines are independent (disjoint jobs, disjoint machine
    // banks), so run them concurrently: the long side on a scoped thread,
    // the short side on this one. Errors are resolved long-first to keep
    // the sequential behavior (the long error used to preempt the short
    // pipeline entirely).
    let long_sub =
        (!long_jobs.is_empty()).then(|| instance.restrict(long_jobs, instance.machines()));
    let short_sub =
        (!short_jobs.is_empty()).then(|| instance.restrict(short_jobs, instance.machines()));
    let (long_res, short_res) = std::thread::scope(|s| {
        let long_handle = long_sub.as_ref().map(|sub| {
            let mut lopts = opts.long.clone();
            lopts.lp.interrupt = Some(opts.cancel.interrupt_handle());
            if let Some(ws) = workspace {
                lopts.lp.workspace = Some(ws.clone());
            }
            // Carry the trace onto the worker thread so long-window spans
            // stay attached under `solve`.
            let ctx = ise_obs::SpanContext::current();
            s.spawn(move || {
                let _trace = ctx.install();
                let _span = ise_obs::Span::enter("solve.long");
                schedule_long_windows(sub, &lopts, warm)
            })
        });
        let short_res = match short_sub.as_ref() {
            None => Ok(None),
            Some(sub) => {
                let _span = ise_obs::Span::enter("solve.short");
                let mm = mm_black_box(opts.mm);
                let policy = CrossingPolicy::ExtraMachines;
                schedule_short_windows(sub, mm.as_ref(), policy, &opts.cancel, memo).map(Some)
            }
        };
        let long_res = match long_handle {
            None => Ok(None),
            Some(h) => h.join().expect("long-window thread panicked").map(Some),
        };
        (long_res, short_res)
    });
    let long = long_res?;
    let short = short_res?;

    // Union on disjoint machines.
    opts.cancel.check()?;
    let _union_span = ise_obs::Span::enter("solve.union");
    let mut schedule = Schedule::new();
    let mut offset = 0usize;
    if let Some(ref l) = long {
        let machines = machine_span(&l.schedule);
        schedule.absorb(l.schedule.clone(), 0);
        offset += machines;
    }
    if let Some(ref s) = short {
        schedule.absorb(s.schedule.clone(), offset);
    }
    if opts.trim_empty_calibrations {
        let _span = ise_obs::Span::enter("solve.trim");
        schedule.trim_empty_calibrations(instance.calib_len());
    }
    schedule.compact_machines();
    Ok(SolveOutcome {
        schedule,
        long,
        short,
        long_jobs: n_long,
        short_jobs: n_short,
    })
}

/// Solve with **speed augmentation**: machines run `speed` times faster
/// than the optimum the result is compared against (the `s` of Theorem 1).
///
/// Implementation: refine time by `speed` — releases and deadlines are
/// multiplied by `speed` while processing times stay put, and the
/// calibration length becomes `speed·T` refined ticks (a calibration still
/// covers `T` original time units, but supplies `speed·T` work). The plain
/// solver runs on the refined instance and the result is re-labelled as a
/// `time_scale = speed` schedule for the original instance, which the
/// validator checks exactly.
///
/// Speed augmentation enlarges the feasible set: instances that are
/// infeasible at speed 1 (e.g. Partition-style packings) become feasible —
/// the paper's point that *any* polynomial algorithm needs augmentation.
///
/// With `reuse`, the refined instance is solved by [`solve_incremental`]
/// (warm start, memo, workspace); without it, by the stateless [`solve`].
pub fn solve_with_speed(
    instance: &Instance,
    opts: &SolverOptions,
    speed: i64,
    reuse: Option<&mut SolveReuse>,
) -> Result<SolveOutcome, SchedError> {
    assert!(speed >= 1, "speed must be >= 1");
    let refined;
    let target = if speed == 1 {
        instance
    } else {
        refined = try_refine_for_speed(instance, speed)?;
        &refined
    };
    let mut outcome = match reuse {
        Some(reuse) => solve_incremental(target, opts, reuse)?,
        None => solve(target, opts)?,
    };
    // Re-label: times are already in refined ticks; declare the scale.
    outcome.schedule.time_scale = speed;
    outcome.schedule.speed = speed;
    Ok(outcome)
}

/// The refined instance a speed-`s` solver sees: windows scaled by `s`,
/// processing times unchanged, calibration length `s·T`.
///
/// Panics when the scaled times leave the representable horizon; use
/// [`try_refine_for_speed`] for a fallible verdict.
pub fn refine_for_speed(instance: &Instance, speed: i64) -> Instance {
    try_refine_for_speed(instance, speed).expect("refinement stays in the representable horizon")
}

/// Fallible [`refine_for_speed`]: scaling an instance whose times sit near
/// `MAX_INSTANCE_TICKS` would leave the representable horizon — that is
/// reported as [`SchedError::TimeOverflow`] instead of a wrap or a panic.
pub fn try_refine_for_speed(instance: &Instance, speed: i64) -> Result<Instance, SchedError> {
    let overflow = || SchedError::TimeOverflow {
        context: "speed refinement of the instance",
    };
    let scale = |v: i64| v.checked_mul(speed).ok_or_else(overflow);
    let mut b =
        ise_model::InstanceBuilder::new(instance.machines(), scale(instance.calib_len().ticks())?);
    for j in instance.jobs() {
        b.push(
            scale(j.release.ticks())?,
            scale(j.deadline.ticks())?,
            j.proc.ticks(),
        );
    }
    match b.build() {
        Ok(refined) => Ok(refined),
        Err(ise_model::ModelError::HorizonOverflow { .. }) => Err(overflow()),
        Err(e) => panic!("refinement preserves model invariants: {e}"),
    }
}

/// Highest machine id in use plus one (the span to offset by when taking
/// disjoint unions).
fn machine_span(schedule: &Schedule) -> usize {
    schedule
        .calibrations
        .iter()
        .map(|c| c.machine + 1)
        .chain(schedule.placements.iter().map(|p| p.machine + 1))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_model::validate;

    fn defaults() -> SolverOptions {
        SolverOptions::default()
    }

    #[test]
    fn mixed_instance_end_to_end() {
        // T = 10: jobs 0-1 long, 2-3 short.
        let inst = Instance::new([(0, 40, 7), (5, 50, 6), (0, 12, 6), (20, 33, 8)], 1, 10).unwrap();
        let out = solve(&inst, &defaults()).unwrap();
        validate(&inst, &out.schedule).unwrap();
        assert_eq!(out.long_jobs, 2);
        assert_eq!(out.short_jobs, 2);
        assert!(out.long.is_some());
        assert!(out.short.is_some());
    }

    #[test]
    fn all_long_instance_skips_short_pipeline() {
        let inst = Instance::new([(0, 40, 7), (5, 50, 6)], 1, 10).unwrap();
        let out = solve(&inst, &defaults()).unwrap();
        validate(&inst, &out.schedule).unwrap();
        assert!(out.short.is_none());
    }

    #[test]
    fn all_short_instance_skips_long_pipeline() {
        let inst = Instance::new([(0, 12, 6), (20, 33, 8)], 1, 10).unwrap();
        let out = solve(&inst, &defaults()).unwrap();
        validate(&inst, &out.schedule).unwrap();
        assert!(out.long.is_none());
    }

    #[test]
    fn trimming_removes_empty_calibrations_only() {
        let inst = Instance::new([(0, 12, 6), (20, 33, 8)], 1, 10).unwrap();
        let untrimmed = solve(&inst, &defaults()).unwrap();
        let trimmed = solve(
            &inst,
            &SolverOptions {
                trim_empty_calibrations: true,
                ..defaults()
            },
        )
        .unwrap();
        validate(&inst, &trimmed.schedule).unwrap();
        assert!(trimmed.schedule.num_calibrations() <= untrimmed.schedule.num_calibrations());
        assert_eq!(
            trimmed.schedule.placements.len(),
            untrimmed.schedule.placements.len()
        );
    }

    #[test]
    fn backends_all_produce_valid_schedules() {
        let inst =
            Instance::new([(0, 12, 6), (3, 17, 6), (20, 33, 8), (22, 35, 8)], 2, 10).unwrap();
        for mm in [
            MmBackend::Auto,
            MmBackend::Exact,
            MmBackend::Greedy,
            MmBackend::LpRound,
            MmBackend::Portfolio,
        ] {
            let out = solve(&inst, &SolverOptions { mm, ..defaults() }).unwrap();
            validate(&inst, &out.schedule).unwrap();
        }
    }

    #[test]
    fn unit_backend_on_unit_jobs() {
        let inst = Instance::new([(0, 3, 1), (0, 3, 1), (1, 4, 1)], 1, 3).unwrap();
        let out = solve(
            &inst,
            &SolverOptions {
                mm: MmBackend::Unit,
                ..defaults()
            },
        )
        .unwrap();
        validate(&inst, &out.schedule).unwrap();
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new([], 1, 10).unwrap();
        let out = solve(&inst, &defaults()).unwrap();
        assert_eq!(out.schedule.num_calibrations(), 0);
    }

    #[test]
    fn speed_one_is_plain_solve() {
        let inst = Instance::new([(0, 40, 7), (0, 12, 6)], 1, 10).unwrap();
        let plain = solve(&inst, &defaults()).unwrap();
        let speeded = solve_with_speed(&inst, &defaults(), 1, None).unwrap();
        assert_eq!(
            plain.schedule.num_calibrations(),
            speeded.schedule.num_calibrations()
        );
        assert_eq!(speeded.schedule.speed, 1);
    }

    #[test]
    fn speed_augmented_solve_validates_exactly() {
        let inst = Instance::new([(0, 40, 7), (5, 50, 6), (0, 12, 6), (20, 33, 8)], 1, 10).unwrap();
        for s in [2i64, 3] {
            let out = solve_with_speed(&inst, &defaults(), s, None).unwrap();
            assert_eq!(out.schedule.speed, s);
            assert_eq!(out.schedule.time_scale, s);
            validate(&inst, &out.schedule).unwrap();
        }
    }

    #[test]
    fn speed_recovers_infeasible_instances() {
        // 10 ten-tick jobs in window [0, 20) (long: window = 2T), m = 1:
        // total work 100 exceeds the 60 units the TISE relaxation can
        // supply at speed 1 — certified infeasible. At speed 2 the same
        // calibrations carry twice the work and the instance solves.
        let inst = Instance::new(
            (0..10).map(|_| (0i64, 20i64, 10i64)).collect::<Vec<_>>(),
            1,
            10,
        )
        .unwrap();
        assert!(matches!(
            solve(&inst, &defaults()),
            Err(SchedError::Infeasible { .. })
        ));
        let out = solve_with_speed(&inst, &defaults(), 2, None).unwrap();
        validate(&inst, &out.schedule).unwrap();
        assert_eq!(out.schedule.speed, 2);
    }

    #[test]
    fn refine_preserves_long_short_split() {
        let inst = Instance::new([(0, 40, 7), (0, 12, 6), (3, 22, 4)], 1, 10).unwrap();
        let refined = refine_for_speed(&inst, 3);
        let (l0, s0) = inst.partition_long_short();
        let (l1, s1) = refined.partition_long_short();
        assert_eq!(l0.len(), l1.len());
        assert_eq!(s0.len(), s1.len());
    }

    #[test]
    fn fresh_reuse_reproduces_the_stateless_schedule() {
        use ise_workloads::{long_only, short_only, uniform, WorkloadParams};
        let params = WorkloadParams {
            jobs: 24,
            machines: 2,
            calib_len: 10,
            horizon: 300,
        };
        for seed in 0..3u64 {
            let mixed = uniform(&params, seed);
            let long = long_only(&params, seed);
            let short = short_only(&params, seed);
            let (l, s) = mixed.partition_long_short();
            assert!(!l.is_empty() && !s.is_empty(), "seed {seed}: mixed");
            assert!(long.all_long() && short.all_short());
            for inst in [&mixed, &long, &short] {
                let cold = solve(inst, &defaults()).unwrap();
                let reused = solve_incremental(inst, &defaults(), &mut SolveReuse::new()).unwrap();
                assert_eq!(reused.schedule, cold.schedule, "seed {seed}");
            }
        }
    }

    #[test]
    fn pre_cancelled_solve_returns_cancelled() {
        let inst = Instance::new([(0, 40, 7), (0, 12, 6)], 1, 10).unwrap();
        let opts = SolverOptions::default();
        opts.cancel.cancel();
        assert!(matches!(solve(&inst, &opts), Err(SchedError::Cancelled)));
    }

    #[test]
    fn expired_deadline_cancels_exact_search() {
        use crate::cancel::CancelToken;
        use crate::exact::{optimal, ExactOptions};
        let inst = Instance::new([(0, 10, 3), (0, 10, 3)], 1, 5).unwrap();
        let out = optimal(
            &inst,
            &ExactOptions {
                cancel: CancelToken::with_timeout(std::time::Duration::ZERO),
                ..ExactOptions::default()
            },
        );
        assert!(matches!(out, Err(SchedError::Cancelled)));
    }

    #[test]
    fn machine_banks_are_disjoint() {
        // Long and short sub-schedules must not share machines: validate
        // catches overlap only if they collide in time, so check directly.
        let inst = Instance::new([(0, 40, 7), (0, 12, 6)], 1, 10).unwrap();
        let out = solve(
            &inst,
            &SolverOptions {
                trim_empty_calibrations: false,
                ..defaults()
            },
        )
        .unwrap();
        validate(&inst, &out.schedule).unwrap();
        let long_machines: std::collections::HashSet<_> = out
            .long
            .as_ref()
            .unwrap()
            .schedule
            .calibrations
            .iter()
            .map(|c| c.machine)
            .collect();
        // The combined schedule has at least as many machines as both parts.
        assert!(out.schedule.machines_used() >= long_machines.len());
    }
}
