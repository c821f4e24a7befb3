//! The traced solve: `ise_sched::solve` taken apart into its public layer
//! calls, each timed by a span recorded in this file.
//!
//! Long half: `lp::build` → `presolve` → `simplex::solve_warm` → verify
//! (`check_solution` / `check_dual`) → `round_calibrations` /
//! `assign_machines` → `mirror` / `assign_jobs`. Short half:
//! `schedule_short_windows_with` around an MM shim that reproduces
//! `MmBackend::Auto`. The halves run concurrently, as in `solve`, and the
//! union is built the same way, so the staged schedule must equal
//! `solve`'s exactly; [`check_reproduces`] enforces that on every traced
//! instance.

use crate::stats::{ms, quantile, share, Metrics, Tracer};
use ise_mm::{ExactMm, GreedyMm, MachineMinimizer, MmError, MmSchedule};
use ise_model::{validate, validate_tise, Instance, Job, Schedule};
use ise_sched::edf::{assign_jobs, mirror};
use ise_sched::rounding::{assign_machines, round_calibrations};
use ise_sched::short_window::{schedule_short_windows_with, CrossingPolicy};
use ise_sched::{CancelToken, SchedError};
use ise_simplex::{check_dual, check_solution, presolve, solve_warm, SolveOptions, SolveStatus};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// `MmBackend::Auto` with every call timed: exact branch and bound on
/// intervals of at most 63 jobs, greedy when the exact search exhausts
/// its node budget (or the interval is larger).
struct TimedAutoMm {
    exact: ExactMm,
    /// `(call duration, exact budget exhausted)` per call.
    calls: Mutex<Vec<(Duration, bool)>>,
}

impl TimedAutoMm {
    fn new() -> TimedAutoMm {
        TimedAutoMm {
            exact: ExactMm::default(),
            calls: Mutex::new(Vec::new()),
        }
    }
}

impl MachineMinimizer for TimedAutoMm {
    fn name(&self) -> &'static str {
        "auto(exact->greedy)"
    }

    fn minimize(&self, jobs: &[Job]) -> Result<MmSchedule, MmError> {
        let started = Instant::now();
        let mut exhausted = false;
        let mut result = None;
        if jobs.len() <= 63 {
            match self.exact.minimize(jobs) {
                Err(MmError::BudgetExceeded { .. }) => exhausted = true,
                other => result = Some(other),
            }
        }
        let result = result.unwrap_or_else(|| GreedyMm.minimize(jobs));
        self.calls
            .lock()
            .expect("MM call log lock")
            .push((started.elapsed(), exhausted));
        result
    }
}

/// Counters of one traced long half.
#[derive(Default)]
struct LongCounts {
    rows: usize,
    cols: usize,
    nnz: usize,
    presolve_rows_dropped: usize,
    iterations: usize,
    refactorizations: usize,
    cols_scanned: u64,
    ft_updates: u64,
    fill_nnz: u64,
    sparse_solves: u64,
    dense_solves: u64,
    recoveries: u64,
    bland: u64,
    rounded: usize,
    objective: f64,
}

/// The long-window pipeline of `schedule_long_windows`, one span per layer.
fn long_half(inst: &Instance, tr: &mut Tracer) -> Result<(Schedule, LongCounts), SchedError> {
    let mut k = LongCounts::default();
    let calib_len = inst.calib_len();
    let jobs = inst.jobs();
    let tise = tr.span("lp.build", || {
        ise_sched::lp::build(jobs, calib_len, 3 * inst.machines())
    });
    k.rows = tise.lp.num_rows();
    k.cols = tise.lp.num_vars();
    k.nnz = tise.lp.rows().iter().map(|r| r.coeffs.len()).sum();
    let pre = tr.span("simplex.presolve", || presolve(&tise.lp));
    k.presolve_rows_dropped = pre.dropped_rows;
    let infeasible = || SchedError::Infeasible {
        reason: "TISE LP has no fractional solution".to_string(),
    };
    if pre.verdict.is_some() {
        return Err(infeasible());
    }
    // `solve` wires its (never-firing) cancel token into the pivot loop;
    // do the same so the traced LP runs the identical code path.
    let opts = SolveOptions {
        interrupt: Some(CancelToken::default().interrupt_handle()),
        ..SolveOptions::default()
    };
    let mut sol = tr.span("simplex.solve", || solve_warm(&pre.lp, &opts, None))?;
    k.iterations = sol.iterations;
    k.refactorizations = sol.refactorizations;
    k.cols_scanned = sol.pricing.cols_scanned;
    k.bland = sol.pricing.bland_activations;
    let n = &sol.numerics;
    k.ft_updates = n.lu_ft_updates;
    k.fill_nnz = n.lu_fill_nnz;
    k.sparse_solves = n.lu_sparse_solves;
    k.dense_solves = n.lu_dense_solves;
    k.recoveries = n.recoveries_refactor
        + n.recoveries_tighten
        + n.recoveries_dantzig
        + n.recoveries_eta
        + n.recoveries_dense;
    match sol.status {
        SolveStatus::Optimal => {}
        SolveStatus::Infeasible => return Err(infeasible()),
        SolveStatus::Unbounded => {
            return Err(SchedError::Internal {
                stage: "lp: unbounded minimization",
                jobs: vec![],
            })
        }
    }
    k.objective = sol.objective;
    let c = tr.span("lp.verify", || {
        let mut duals = vec![0.0; tise.lp.num_rows()];
        for (reduced, &orig) in pre.kept_original.iter().enumerate() {
            duals[orig] = sol.duals.get(reduced).copied().unwrap_or(0.0);
        }
        sol.duals = duals;
        let verified = check_solution(&tise.lp, &sol.x, 1e-6).is_empty();
        let _ = check_dual(&tise.lp, &sol.duals, 1e-6);
        verified.then(|| {
            tise.c_vars
                .iter()
                .map(|&v| sol.x[v].max(0.0))
                .collect::<Vec<f64>>()
        })
    });
    let c = c.ok_or(SchedError::Internal {
        stage: "lp: solution fails verification",
        jobs: vec![],
    })?;
    let (bank, bank_machines) = tr.span("rounding", || {
        let times = round_calibrations(&tise.points, &c, 0.5);
        k.rounded = times.len();
        let bank = assign_machines(&times, calib_len);
        let machines = bank.iter().map(|c| c.machine + 1).max().unwrap_or(0);
        (bank, machines)
    });
    let outcome = tr.span("edf", || {
        assign_jobs(jobs, &mirror(&bank, bank_machines), calib_len)
    });
    if !outcome.unscheduled.is_empty() {
        return Err(SchedError::Internal {
            stage: "long-window EDF left jobs unscheduled",
            jobs: outcome.unscheduled,
        });
    }
    let mut schedule = Schedule::new();
    schedule.calibrations = outcome.calibrations;
    schedule.placements = outcome.placements;
    Ok((schedule, k))
}

/// Highest machine id in use plus one.
fn machine_span(s: &Schedule) -> usize {
    s.calibrations
        .iter()
        .map(|c| c.machine + 1)
        .chain(s.placements.iter().map(|p| p.machine + 1))
        .max()
        .unwrap_or(0)
}

/// Everything one traced solve measured.
pub struct TracedSolve {
    pub schedule: Result<Schedule, SchedError>,
    tracer: Tracer,
    long: Option<LongCounts>,
    long_wall: Option<Duration>,
    short_wall: Option<Duration>,
    short_intervals: usize,
    mm_calls: Vec<(Duration, bool)>,
    total: Duration,
}

/// Run the staged solve on `inst` with default solver options.
pub fn traced_solve(inst: &Instance) -> TracedSolve {
    let started = Instant::now();
    let mut tr = Tracer::default();
    let (long_sub, short_sub) = tr.span("solver.partition", || {
        let (long_jobs, short_jobs) = inst.partition_long_short();
        let m = inst.machines();
        (
            (!long_jobs.is_empty()).then(|| inst.restrict(long_jobs, m)),
            (!short_jobs.is_empty()).then(|| inst.restrict(short_jobs, m)),
        )
    });
    let mm = TimedAutoMm::new();
    let (long_res, short_res) = std::thread::scope(|s| {
        let handle = long_sub.as_ref().map(|sub| {
            s.spawn(move || {
                let mut ltr = Tracer::default();
                let started = Instant::now();
                let res = long_half(sub, &mut ltr);
                (res, ltr, started.elapsed())
            })
        });
        let short = short_sub.as_ref().map(|sub| {
            let started = Instant::now();
            let res = tr.span("short_window", || {
                schedule_short_windows_with(sub, &mm, CrossingPolicy::ExtraMachines)
            });
            (res, started.elapsed())
        });
        let long = handle.map(|h| h.join().expect("traced long half panicked"));
        (long, short)
    });
    let mut out = TracedSolve {
        schedule: Ok(Schedule::new()),
        tracer: Tracer::default(),
        long: None,
        long_wall: None,
        short_wall: None,
        short_intervals: 0,
        mm_calls: mm.calls.into_inner().expect("MM call log lock"),
        total: Duration::ZERO,
    };
    let mut long_schedule = None;
    if let Some((res, ltr, wall)) = long_res {
        tr.adopt(ltr);
        out.long_wall = Some(wall);
        match res {
            Ok((s, k)) => {
                long_schedule = Some(s);
                out.long = Some(k);
            }
            Err(e) => out.schedule = Err(e),
        }
    }
    let mut short_schedule = None;
    if let Some((res, wall)) = short_res {
        out.short_wall = Some(wall);
        match res {
            Ok(o) => {
                out.short_intervals = o.intervals.len();
                short_schedule = Some(o.schedule);
            }
            Err(e) => {
                if out.schedule.is_ok() {
                    out.schedule = Err(e);
                }
            }
        }
    }
    if out.schedule.is_ok() {
        out.schedule = Ok(tr.span("solver.union", || {
            let mut schedule = Schedule::new();
            let mut offset = 0;
            if let Some(l) = long_schedule {
                offset = machine_span(&l);
                schedule.absorb(l, 0);
            }
            if let Some(s) = short_schedule {
                schedule.absorb(s, offset);
            }
            schedule.compact_machines();
            schedule
        }));
    }
    out.total = started.elapsed();
    out.tracer = tr;
    out
}

/// Whether the staged result equals `solve`'s: the same schedule, or the
/// same kind of error.
pub fn check_reproduces(
    staged: &Result<Schedule, SchedError>,
    solved: &Result<Schedule, SchedError>,
) -> bool {
    match (staged, solved) {
        (Ok(a), Ok(b)) => a == b,
        (Err(SchedError::Infeasible { .. }), Err(SchedError::Infeasible { .. })) => true,
        _ => false,
    }
}

/// Validate a `solve` result: a schedule must pass `validate` (and
/// `validate_tise` when `tise`); a certified infeasibility is a correct
/// answer. Returns `(check passed, infeasible)`.
pub fn check_result(
    inst: &Instance,
    res: &Result<Schedule, SchedError>,
    tise: bool,
) -> (bool, bool) {
    match res {
        Ok(s) => (
            validate(inst, s).is_ok() && (!tise || validate_tise(inst, s).is_ok()),
            false,
        ),
        Err(SchedError::Infeasible { .. }) => (true, true),
        Err(_) => (false, false),
    }
}

/// Per-layer aggregate over many traced solves.
#[derive(Default)]
pub struct LayerProfile {
    solves: usize,
    long_solves: usize,
    short_solves: usize,
    lp_build: Duration,
    lp_verify: Duration,
    presolve: Duration,
    simplex: Duration,
    rounding: Duration,
    edf: Duration,
    short_window: Duration,
    partition: Duration,
    union: Duration,
    long_wall: Duration,
    short_wall: Duration,
    short_critical: usize,
    counts: LongCounts,
    short_intervals: usize,
    mm_calls: Vec<(Duration, bool)>,
    traced_total: Duration,
    untraced_total: Duration,
}

impl LayerProfile {
    /// Fold in one traced solve and the untraced `solve` time of the same
    /// instance.
    pub fn add(&mut self, t: TracedSolve, untraced: Duration) {
        let tr = &t.tracer;
        self.solves += 1;
        self.lp_build += tr.total("lp.build");
        self.lp_verify += tr.total("lp.verify");
        self.presolve += tr.total("simplex.presolve");
        self.simplex += tr.total("simplex.solve");
        self.rounding += tr.total("rounding");
        self.edf += tr.total("edf");
        self.short_window += tr.total("short_window");
        self.partition += tr.total("solver.partition");
        self.union += tr.total("solver.union");
        let long = t.long_wall.unwrap_or_default();
        let short = t.short_wall.unwrap_or_default();
        self.long_wall += long;
        self.short_wall += short;
        self.long_solves += usize::from(t.long_wall.is_some());
        self.short_solves += usize::from(t.short_wall.is_some());
        self.short_critical += usize::from(short > long);
        if let Some(k) = t.long {
            let c = &mut self.counts;
            c.rows += k.rows;
            c.cols += k.cols;
            c.nnz += k.nnz;
            c.presolve_rows_dropped += k.presolve_rows_dropped;
            c.iterations += k.iterations;
            c.refactorizations += k.refactorizations;
            c.cols_scanned += k.cols_scanned;
            c.ft_updates += k.ft_updates;
            c.fill_nnz += k.fill_nnz;
            c.sparse_solves += k.sparse_solves;
            c.dense_solves += k.dense_solves;
            c.recoveries += k.recoveries;
            c.bland += k.bland;
            c.rounded += k.rounded;
            c.objective += k.objective;
        }
        self.short_intervals += t.short_intervals;
        self.mm_calls.extend(t.mm_calls);
        self.traced_total += t.total;
        self.untraced_total += untraced;
    }

    /// Emit the solver-layer metrics: times are means per traced solve
    /// (per solve that ran the half, for half-specific layers), so the
    /// layer rows add up to the half they belong to.
    pub fn emit(&self, m: &mut Metrics) {
        let per = |d: Duration, n: usize| if n == 0 { 0.0 } else { ms(d) / n as f64 };
        let cnt = |v: f64, n: usize| if n == 0 { 0.0 } else { v / n as f64 };
        let (n, nl, ns) = (self.solves, self.long_solves, self.short_solves);
        let c = &self.counts;
        m.put("lp.build_ms", per(self.lp_build, nl), "ms");
        m.put("lp.rows", cnt(c.rows as f64, nl), "count");
        m.put("lp.cols", cnt(c.cols as f64, nl), "count");
        m.put("lp.nnz", cnt(c.nnz as f64, nl), "count");
        m.put("lp.verify_ms", per(self.lp_verify, nl), "ms");
        m.put("simplex.presolve_ms", per(self.presolve, nl), "ms");
        let dropped = c.presolve_rows_dropped as f64;
        m.put("simplex.presolve_rows_dropped", cnt(dropped, nl), "count");
        m.put("simplex.solve_ms", per(self.simplex, nl), "ms");
        m.put("simplex.iterations", cnt(c.iterations as f64, nl), "count");
        let us_per_it = share(self.simplex.as_secs_f64() * 1e6, c.iterations as f64);
        m.put("simplex.us_per_iteration", us_per_it, "us");
        let refactors = c.refactorizations as f64;
        m.put("simplex.refactorizations", cnt(refactors, nl), "count");
        m.put(
            "simplex.cols_scanned",
            cnt(c.cols_scanned as f64, nl),
            "count",
        );
        m.put(
            "simplex.lu_ft_updates",
            cnt(c.ft_updates as f64, nl),
            "count",
        );
        m.put("simplex.lu_fill_nnz", cnt(c.fill_nnz as f64, nl), "count");
        let solves = (c.sparse_solves + c.dense_solves) as f64;
        let hyper = share(c.sparse_solves as f64, solves);
        m.put("simplex.hypersparse_share", hyper, "ratio");
        m.put("simplex.recoveries", c.recoveries as f64, "count");
        m.put("simplex.bland_activations", c.bland as f64, "count");
        m.put("rounding.ms", per(self.rounding, nl), "ms");
        let per_lp = share(c.rounded as f64, c.objective);
        m.put("rounding.calibrations_per_lp", per_lp, "ratio");
        m.put("edf.ms", per(self.edf, nl), "ms");
        m.put("short_window.ms", per(self.short_window, ns), "ms");
        let intervals = self.short_intervals as f64;
        m.put("short_window.intervals", cnt(intervals, ns), "count");
        let calls = self.mm_calls.len();
        m.put("mm.calls", cnt(calls as f64, ns), "count");
        let call_ms: Vec<f64> = self.mm_calls.iter().map(|(d, _)| ms(*d)).collect();
        m.put("mm.call_ms_p90", quantile(&call_ms, 0.9), "ms");
        m.put("mm.call_ms_max", quantile(&call_ms, 1.0), "ms");
        let exhausted = self.mm_calls.iter().filter(|(_, e)| *e).count();
        let exhausted = share(exhausted as f64, calls as f64);
        m.put("mm.budget_exhausted_share", exhausted, "ratio");
        m.put("solver.long_ms", per(self.long_wall, nl), "ms");
        m.put("solver.short_ms", per(self.short_wall, ns), "ms");
        let critical = share(self.short_critical as f64, n as f64);
        m.put("solver.short_critical_share", critical, "ratio");
        // Attribution: every half runs on its own thread, so the traced
        // total is the time of both halves plus the partition and union
        // steps, and the layers are the spans inside them.
        let total = self.partition + self.long_wall + self.short_wall + self.union;
        let layers = self.partition
            + self.lp_build
            + self.presolve
            + self.simplex
            + self.lp_verify
            + self.rounding
            + self.edf
            + self.short_window
            + self.union;
        let unattributed = 1.0 - share(layers.as_secs_f64(), total.as_secs_f64());
        m.put("trace.unattributed_share", unattributed, "ratio");
        let overhead = share(
            self.traced_total.as_secs_f64(),
            self.untraced_total.as_secs_f64(),
        );
        m.put("trace.overhead_share", overhead - 1.0, "ratio");
    }
}
