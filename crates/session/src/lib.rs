//! # ise-session — incremental delta-solving sessions
//!
//! Real calibration workloads are not one-shot: jobs arrive, machine
//! budgets get swept, windows move. A [`Session`] owns an evolving
//! [`Instance`] and accepts typed [`Delta`]s; each [`Session::commit`]
//! re-solves the materialized instance through the Fineman–Sheridan
//! pipeline while reusing as much prior work as the delta batch allows:
//!
//! | tier | deltas in the batch | reused work |
//! |------|---------------------|-------------|
//! | [`ReuseTier::Basis`] | only [`Delta::SetMachines`] (or none) | previous optimal LP basis — the machine budget is a pure right-hand-side change, so phase 1 is skipped outright; unchanged short intervals replay from the MM memo |
//! | [`ReuseTier::Warm`]  | job adds/removes (plus budget changes) | previous LP basis offered as a warm start (silently dropped by the simplex if the LP's structure changed); only short intervals whose job content changed re-run the MM black box |
//! | [`ReuseTier::Cold`]  | any structural delta ([`Delta::SetCalibrationLen`], [`Delta::ShiftWindows`]) | nothing — the basis and the per-interval memo are invalidated |
//!
//! Every commit reports what happened in a [`SessionTelemetry`] (tier,
//! invalidated-interval count, measured LP iterations, warm-start flag).
//! Correctness is anchored by the `session` oracle in `ise::conform`:
//! each incremental commit must match a from-scratch solve of the
//! materialized instance on verdict, calibration count, and LP objective,
//! with the schedule fully validated. Cold commits reproduce the
//! from-scratch schedule bit-for-bit; warm-started tiers may stop at a
//! different optimal LP vertex, which permutes calibration placement
//! without changing the count.
//!
//! A commit is transactional: delta validation happens at [`Session::apply`]
//! time (an invalid delta is rejected with the session unchanged), and a
//! solve failure — including a panicking solver, which is caught — leaves
//! the staged deltas intact and the session reusable.

use ise_model::{Instance, Schedule};
use ise_sched::{
    solve_incremental, SchedError, SolveOutcome, SolveReport, SolveReuse, SolverOptions,
};
use std::panic::AssertUnwindSafe;
use std::time::Instant;

/// A typed edit to a session's instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Delta {
    /// Append jobs, given as `(release, deadline, processing)` triples.
    /// New jobs take the highest ids.
    AddJobs(Vec<(i64, i64, i64)>),
    /// Remove jobs by their current indices (= ids). Remaining jobs are
    /// re-indexed densely, preserving order.
    RemoveJobs(Vec<usize>),
    /// Change the machine count `m`. A pure LP right-hand-side change.
    SetMachines(usize),
    /// Change the calibration length `T`. Structural: every derived
    /// quantity (long/short split, interval grid, LP points) changes.
    SetCalibrationLen(i64),
    /// Shift every job window by a constant. Structural: the short-window
    /// interval grid is anchored at time zero, so intervals re-partition.
    ShiftWindows(i64),
}

impl Delta {
    /// The best reuse tier a batch containing this delta can claim.
    pub fn tier(&self) -> ReuseTier {
        match self {
            Delta::SetMachines(_) => ReuseTier::Basis,
            Delta::AddJobs(_) | Delta::RemoveJobs(_) => ReuseTier::Warm,
            Delta::SetCalibrationLen(_) | Delta::ShiftWindows(_) => ReuseTier::Cold,
        }
    }

    /// Wire form of this delta (see [`DeltaMsg`]).
    pub fn to_msg(&self) -> DeltaMsg {
        let mut msg = DeltaMsg::default();
        match self {
            Delta::AddJobs(jobs) => {
                msg.op = "add_jobs".to_string();
                msg.jobs = Some(jobs.clone());
            }
            Delta::RemoveJobs(ids) => {
                msg.op = "remove_jobs".to_string();
                msg.ids = Some(ids.clone());
            }
            Delta::SetMachines(m) => {
                msg.op = "set_machines".to_string();
                msg.machines = Some(*m);
            }
            Delta::SetCalibrationLen(t) => {
                msg.op = "set_calib_len".to_string();
                msg.calib_len = Some(*t);
            }
            Delta::ShiftWindows(s) => {
                msg.op = "shift_windows".to_string();
                msg.shift = Some(*s);
            }
        }
        msg
    }
}

/// JSON wire form of a [`Delta`], used by the `serve` session protocol and
/// `ise session` scripts: `{"op": "add_jobs", "jobs": [[0, 30, 5]]}`,
/// `{"op": "remove_jobs", "ids": [0]}`, `{"op": "set_machines",
/// "machines": 3}`, `{"op": "set_calib_len", "calib_len": 12}`,
/// `{"op": "shift_windows", "shift": 40}`.
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct DeltaMsg {
    /// One of `add_jobs`, `remove_jobs`, `set_machines`, `set_calib_len`,
    /// `shift_windows`.
    pub op: String,
    /// `(release, deadline, processing)` triples for `add_jobs`.
    pub jobs: Option<Vec<(i64, i64, i64)>>,
    /// Job indices for `remove_jobs`.
    pub ids: Option<Vec<usize>>,
    /// New machine count for `set_machines`.
    pub machines: Option<usize>,
    /// New calibration length for `set_calib_len`.
    pub calib_len: Option<i64>,
    /// Window shift for `shift_windows`.
    pub shift: Option<i64>,
}

impl DeltaMsg {
    /// Decode into a typed [`Delta`], rejecting unknown ops and missing
    /// payloads.
    pub fn decode(&self) -> Result<Delta, SessionError> {
        let missing = |field: &str| {
            SessionError::InvalidDelta(format!("delta op `{}` requires `{field}`", self.op))
        };
        match self.op.as_str() {
            "add_jobs" => Ok(Delta::AddJobs(
                self.jobs.clone().ok_or_else(|| missing("jobs"))?,
            )),
            "remove_jobs" => Ok(Delta::RemoveJobs(
                self.ids.clone().ok_or_else(|| missing("ids"))?,
            )),
            "set_machines" => Ok(Delta::SetMachines(
                self.machines.ok_or_else(|| missing("machines"))?,
            )),
            "set_calib_len" => Ok(Delta::SetCalibrationLen(
                self.calib_len.ok_or_else(|| missing("calib_len"))?,
            )),
            "shift_windows" => Ok(Delta::ShiftWindows(
                self.shift.ok_or_else(|| missing("shift"))?,
            )),
            other => Err(SessionError::InvalidDelta(format!(
                "unknown delta op `{other}` (expected one of add_jobs, remove_jobs, \
                 set_machines, set_calib_len, shift_windows)"
            ))),
        }
    }
}

/// One line of an `ise session` JSONL script: a flat union of the
/// [`DeltaMsg`] fields plus `op: "open"` (with an `instance`) and
/// `op: "solve"` (commit the staged deltas). Example script:
///
/// ```jsonl
/// {"op": "open", "instance": {"jobs": [...], "machines": 1, "calib_len": 10}}
/// {"op": "solve"}
/// {"op": "set_machines", "machines": 2}
/// {"op": "add_jobs", "jobs": [[0, 30, 5]]}
/// {"op": "solve"}
/// ```
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct ScriptStep {
    /// `open`, `solve` (alias `commit`), or any [`DeltaMsg`] op.
    pub op: String,
    /// The instance to open the session on (`open` only).
    pub instance: Option<Instance>,
    /// `(release, deadline, processing)` triples for `add_jobs`.
    pub jobs: Option<Vec<(i64, i64, i64)>>,
    /// Job indices for `remove_jobs`.
    pub ids: Option<Vec<usize>>,
    /// New machine count for `set_machines`.
    pub machines: Option<usize>,
    /// New calibration length for `set_calib_len`.
    pub calib_len: Option<i64>,
    /// Window shift for `shift_windows`.
    pub shift: Option<i64>,
}

/// Decoded form of a [`ScriptStep`].
#[derive(Clone, Debug)]
pub enum ScriptAction {
    /// Open a session on this instance.
    Open(Box<Instance>),
    /// Commit the staged deltas and solve.
    Commit,
    /// Stage one delta.
    Delta(Delta),
}

impl ScriptStep {
    /// Wire form of a delta step (see [`Delta::to_msg`] for the inverse).
    pub fn from_delta(delta: &Delta) -> ScriptStep {
        let msg = delta.to_msg();
        ScriptStep {
            op: msg.op,
            instance: None,
            jobs: msg.jobs,
            ids: msg.ids,
            machines: msg.machines,
            calib_len: msg.calib_len,
            shift: msg.shift,
        }
    }

    /// Decode into a typed action, rejecting unknown ops and missing
    /// payloads.
    pub fn decode(&self) -> Result<ScriptAction, SessionError> {
        match self.op.as_str() {
            "open" => match &self.instance {
                Some(instance) => Ok(ScriptAction::Open(Box::new(instance.clone()))),
                None => Err(SessionError::InvalidDelta(
                    "script op `open` requires `instance`".to_string(),
                )),
            },
            "solve" | "commit" => Ok(ScriptAction::Commit),
            _ => {
                let msg = DeltaMsg {
                    op: self.op.clone(),
                    jobs: self.jobs.clone(),
                    ids: self.ids.clone(),
                    machines: self.machines,
                    calib_len: self.calib_len,
                    shift: self.shift,
                };
                Ok(ScriptAction::Delta(msg.decode()?))
            }
        }
    }
}

/// How much prior work a commit was allowed to reuse.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReuseTier {
    /// Machine-budget-only batch: cached optimal basis, phase 1 skipped.
    Basis,
    /// Job add/remove batch: warm-started LP, memoized short intervals.
    Warm,
    /// Structural batch (or first commit): everything recomputed.
    Cold,
}

impl ReuseTier {
    /// Canonical lowercase name (CLI/metrics label).
    pub fn as_str(self) -> &'static str {
        match self {
            ReuseTier::Basis => "basis",
            ReuseTier::Warm => "warm",
            ReuseTier::Cold => "cold",
        }
    }
}

impl std::fmt::Display for ReuseTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl serde::Serialize for ReuseTier {
    fn to_content(&self) -> serde::Content {
        serde::Content::Str(self.as_str().to_string())
    }
}

/// Per-commit reuse telemetry.
#[derive(Clone, Debug, serde::Serialize)]
pub struct SessionTelemetry {
    /// 1-based commit sequence number within the session.
    pub commit: usize,
    /// Number of deltas in the committed batch.
    pub deltas: usize,
    /// Reuse tier the batch qualified for.
    pub tier: ReuseTier,
    /// Jobs in the materialized instance.
    pub jobs: usize,
    /// Machines in the materialized instance.
    pub machines: usize,
    /// Short-window intervals that had to be recomputed (their job content
    /// changed, or they are new / post-invalidation).
    pub invalidated_intervals: usize,
    /// Short-window intervals replayed from the memo without an MM call.
    pub memo_hits: usize,
    /// Simplex iterations actually spent by the long-window LP.
    pub lp_iterations: usize,
    /// Whether the LP accepted the warm-start basis (phase 1 skipped).
    pub warm_started: bool,
    /// Wall-clock microseconds for the whole commit's solve.
    pub solve_us: u64,
}

/// The solve result of one commit.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// The materialized instance is feasible; the schedule validates.
    Feasible {
        /// Full solve report (stats, bounds, LP telemetry).
        report: Box<SolveReport>,
        /// The feasible schedule.
        schedule: Schedule,
    },
    /// The materialized instance is certifiably infeasible. The commit
    /// still advances the session (the deltas themselves are valid).
    Infeasible {
        /// Human-readable certificate description.
        reason: String,
    },
}

/// Outcome of a successful [`Session::commit`].
#[derive(Clone, Debug)]
pub struct Commit {
    /// Solve verdict for the materialized instance.
    pub verdict: Verdict,
    /// Reuse telemetry.
    pub telemetry: SessionTelemetry,
}

impl Commit {
    /// Calibration count, when feasible.
    pub fn calibrations(&self) -> Option<usize> {
        match &self.verdict {
            Verdict::Feasible { report, .. } => Some(report.stats.calibrations),
            Verdict::Infeasible { .. } => None,
        }
    }
}

/// Session-level failures. Neither variant corrupts the session: an invalid
/// delta is rejected before any state changes, and a failed or panicking
/// solve leaves the staged deltas in place for a retry.
#[derive(Debug)]
pub enum SessionError {
    /// The delta does not produce a well-formed instance (bad indices,
    /// window smaller than processing time, `T <= 0`, overflow, ...).
    InvalidDelta(String),
    /// The solver failed for a reason other than certified infeasibility
    /// (cancellation, LP breakdown, budget exhaustion).
    Solve(SchedError),
    /// The solver panicked mid-commit; the panic was caught and the
    /// session rolled back.
    SolvePanicked,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::InvalidDelta(why) => write!(f, "invalid delta: {why}"),
            SessionError::Solve(e) => write!(f, "solve failed: {e}"),
            SessionError::SolvePanicked => write!(f, "solver panicked mid-commit"),
        }
    }
}

impl std::error::Error for SessionError {}

/// A stateful delta-solving session. See the crate docs for the reuse-tier
/// table and the transactional commit semantics.
#[derive(Debug)]
pub struct Session {
    /// Instance as of the last commit.
    committed: Instance,
    /// Committed instance plus staged deltas (the next commit's input).
    pending: Instance,
    staged: usize,
    staged_tier: ReuseTier,
    opts: SolverOptions,
    reuse: SolveReuse,
    commits: usize,
}

impl Session {
    /// Open a session on `instance` with default solver options.
    pub fn open(instance: Instance) -> Session {
        Session::with_options(instance, SolverOptions::default())
    }

    /// Open a session with explicit solver options. The options are fixed
    /// for the session's lifetime — reuse correctness depends on every
    /// commit solving with the same configuration.
    pub fn with_options(instance: Instance, opts: SolverOptions) -> Session {
        Session {
            pending: instance.clone(),
            committed: instance,
            staged: 0,
            staged_tier: ReuseTier::Basis,
            opts,
            reuse: SolveReuse::new(),
            commits: 0,
        }
    }

    /// The materialized instance: last commit plus staged deltas.
    pub fn instance(&self) -> &Instance {
        &self.pending
    }

    /// The instance as of the last commit (ignores staged deltas).
    pub fn committed(&self) -> &Instance {
        &self.committed
    }

    /// Number of staged (uncommitted) deltas.
    pub fn staged(&self) -> usize {
        self.staged
    }

    /// Number of commits performed so far.
    pub fn commits(&self) -> usize {
        self.commits
    }

    /// Stage a delta. Validation is immediate: an `Err` leaves the session
    /// exactly as it was.
    pub fn apply(&mut self, delta: &Delta) -> Result<(), SessionError> {
        let _span = ise_obs::Span::enter("session.delta");
        let next = apply_delta(&self.pending, delta)?;
        self.staged_tier = self.staged_tier.max(delta.tier());
        self.pending = next;
        self.staged += 1;
        Ok(())
    }

    /// Drop all staged deltas, reverting the pending instance to the last
    /// committed state.
    pub fn discard_staged(&mut self) {
        self.pending = self.committed.clone();
        self.staged = 0;
        self.staged_tier = ReuseTier::Basis;
    }

    /// Solve the pending instance, committing the staged deltas on success
    /// (including certified infeasibility, which is a valid verdict). On
    /// any other failure the staged deltas remain and the session stays
    /// usable.
    pub fn commit(&mut self) -> Result<Commit, SessionError> {
        self.commit_with(solve_incremental)
    }

    /// As [`Session::commit`] with an explicit solve function — the
    /// poisoned-session tests inject panicking solvers here. Panics are
    /// caught and reported as [`SessionError::SolvePanicked`].
    pub fn commit_with<F>(&mut self, solve: F) -> Result<Commit, SessionError>
    where
        F: FnOnce(&Instance, &SolverOptions, &mut SolveReuse) -> Result<SolveOutcome, SchedError>,
    {
        // First commit has nothing to reuse; afterwards the tier is the
        // worst tier among the staged deltas.
        let tier = if self.commits == 0 {
            ReuseTier::Cold
        } else {
            self.staged_tier
        };
        let mut reuse = match tier {
            ReuseTier::Cold => {
                // Structural commit: invalidate the basis and the memo, but
                // keep the simplex workspace — its scratch buffers are
                // content-free, so recycling them is always sound and keeps
                // even cold re-solves allocation-light.
                let _span = ise_obs::Span::enter("session.invalidate");
                SolveReuse {
                    workspace: std::mem::take(&mut self.reuse).workspace,
                    ..SolveReuse::new()
                }
            }
            _ => std::mem::take(&mut self.reuse),
        };

        let started = Instant::now();
        let result = {
            let span_name = match tier {
                ReuseTier::Cold => "session.solve",
                _ => "session.reuse",
            };
            let _span = ise_obs::Span::enter(span_name);
            let pending = &self.pending;
            let opts = &self.opts;
            let reuse = &mut reuse;
            std::panic::catch_unwind(AssertUnwindSafe(move || solve(pending, opts, reuse)))
        };
        let solve_us = started.elapsed().as_micros() as u64;

        let result = match result {
            Ok(r) => r,
            Err(_) => {
                // The solver panicked: keep whatever reuse state survived
                // (memo entries are content-addressed and always valid) and
                // leave the staged deltas for a retry.
                self.reuse = reuse;
                return Err(SessionError::SolvePanicked);
            }
        };

        let (verdict, lp_iterations, warm_started) = match result {
            Ok(outcome) => {
                let (iters, warm) = outcome.long.as_ref().map_or((0, false), |l| {
                    (l.fractional.iterations, l.fractional.warm_used)
                });
                let verdict = Verdict::Feasible {
                    report: Box::new(SolveReport::new(&self.pending, &outcome)),
                    schedule: outcome.schedule.clone(),
                };
                (verdict, iters, warm)
            }
            Err(SchedError::Infeasible { reason }) => (Verdict::Infeasible { reason }, 0, false),
            Err(other) => {
                self.reuse = reuse;
                return Err(SessionError::Solve(other));
            }
        };

        let telemetry = SessionTelemetry {
            commit: self.commits + 1,
            deltas: self.staged,
            tier,
            jobs: self.pending.len(),
            machines: self.pending.machines(),
            invalidated_intervals: reuse.memo.last_misses(),
            memo_hits: reuse.memo.last_hits(),
            lp_iterations,
            warm_started,
            solve_us,
        };

        self.committed = self.pending.clone();
        self.staged = 0;
        self.staged_tier = ReuseTier::Basis;
        self.reuse = reuse;
        self.commits += 1;
        Ok(Commit { verdict, telemetry })
    }
}

/// Apply one delta to an instance, returning the new instance or an error
/// (the input is never modified).
fn apply_delta(instance: &Instance, delta: &Delta) -> Result<Instance, SessionError> {
    let mut triples: Vec<(i64, i64, i64)> = instance
        .jobs()
        .iter()
        .map(|j| (j.release.ticks(), j.deadline.ticks(), j.proc.ticks()))
        .collect();
    let mut machines = instance.machines();
    let mut calib_len = instance.calib_len().ticks();
    match delta {
        Delta::AddJobs(specs) => triples.extend(specs.iter().copied()),
        Delta::RemoveJobs(ids) => {
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() != ids.len() {
                return Err(SessionError::InvalidDelta(
                    "duplicate indices in remove_jobs".to_string(),
                ));
            }
            if let Some(&max) = sorted.last() {
                if max >= triples.len() {
                    return Err(SessionError::InvalidDelta(format!(
                        "remove_jobs index {max} out of range for {} jobs",
                        triples.len()
                    )));
                }
            }
            for &i in sorted.iter().rev() {
                triples.remove(i);
            }
        }
        Delta::SetMachines(m) => machines = *m,
        Delta::SetCalibrationLen(t) => calib_len = *t,
        Delta::ShiftWindows(s) => {
            for t in triples.iter_mut() {
                t.0 = t.0.checked_add(*s).ok_or_else(|| {
                    SessionError::InvalidDelta("shift_windows overflows a release".to_string())
                })?;
                t.1 = t.1.checked_add(*s).ok_or_else(|| {
                    SessionError::InvalidDelta("shift_windows overflows a deadline".to_string())
                })?;
            }
        }
    }
    Instance::new(triples, machines, calib_len)
        .map_err(|e| SessionError::InvalidDelta(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_model::validate;
    use ise_sched::solve;

    fn mixed() -> Instance {
        // T = 10: jobs 0-1 long, 2-3 short.
        Instance::new([(0, 40, 7), (5, 50, 6), (0, 12, 6), (20, 33, 8)], 1, 10).unwrap()
    }

    fn scratch(instance: &Instance) -> Result<SolveOutcome, SchedError> {
        solve(instance, &SolverOptions::default())
    }

    // Cold commits must reproduce the scratch schedule bit-for-bit (same
    // code path). Warm-started tiers may stop at a different optimal LP
    // vertex, so only the vertex-independent outputs are compared.
    fn assert_matches_scratch(session: &Session, commit: &Commit) {
        let materialized = session.committed();
        match (&commit.verdict, scratch(materialized)) {
            (Verdict::Feasible { schedule, report }, Ok(out)) => {
                validate(materialized, schedule).unwrap();
                if commit.telemetry.tier == ReuseTier::Cold {
                    assert_eq!(
                        *schedule, out.schedule,
                        "cold schedule diverged from scratch"
                    );
                }
                assert_eq!(
                    schedule.num_calibrations(),
                    out.schedule.num_calibrations(),
                    "calibration count diverged from scratch"
                );
                assert_eq!(
                    report.stats.calibrations,
                    schedule.num_calibrations(),
                    "report count diverged from the schedule"
                );
            }
            (Verdict::Infeasible { .. }, Err(SchedError::Infeasible { .. })) => {}
            (v, s) => panic!("verdict mismatch: incremental {v:?} vs scratch {s:?}"),
        }
    }

    #[test]
    fn first_commit_is_cold_and_matches_scratch() {
        let mut s = Session::open(mixed());
        let c = s.commit().unwrap();
        assert_eq!(c.telemetry.tier, ReuseTier::Cold);
        assert_eq!(c.telemetry.commit, 1);
        assert!(!c.telemetry.warm_started);
        assert_matches_scratch(&s, &c);
    }

    #[test]
    fn machine_budget_delta_is_basis_tier() {
        let mut s = Session::open(mixed());
        s.commit().unwrap();
        s.apply(&Delta::SetMachines(2)).unwrap();
        let c = s.commit().unwrap();
        assert_eq!(c.telemetry.tier, ReuseTier::Basis);
        assert!(c.telemetry.warm_started, "rhs-only change must warm-start");
        assert_eq!(s.instance().machines(), 2);
        assert_matches_scratch(&s, &c);
    }

    #[test]
    fn job_deltas_are_warm_tier_and_replay_unchanged_intervals() {
        let mut s = Session::open(mixed());
        let first = s.commit().unwrap();
        assert!(first.telemetry.invalidated_intervals >= 1);
        // A long job joins; the two short intervals are untouched.
        s.apply(&Delta::AddJobs(vec![(10, 60, 9)])).unwrap();
        let c = s.commit().unwrap();
        assert_eq!(c.telemetry.tier, ReuseTier::Warm);
        assert_eq!(c.telemetry.invalidated_intervals, 0);
        assert!(c.telemetry.memo_hits >= 1);
        assert_matches_scratch(&s, &c);
    }

    #[test]
    fn overflowing_shift_is_rejected_and_session_survives() {
        let mut s = Session::open(mixed());
        s.commit().unwrap();
        // A shift that wraps i64 is rejected before any state changes...
        let err = s.apply(&Delta::ShiftWindows(i64::MAX)).unwrap_err();
        assert!(
            matches!(&err, SessionError::InvalidDelta(why) if why.contains("overflow")),
            "unexpected error: {err}"
        );
        // ...and one that stays in i64 but leaves the representable
        // horizon is caught by instance validation on the same path.
        let err = s
            .apply(&Delta::ShiftWindows(ise_model::MAX_INSTANCE_TICKS))
            .unwrap_err();
        assert!(
            matches!(&err, SessionError::InvalidDelta(why) if why.contains("horizon")),
            "unexpected error: {err}"
        );
        // The committed state is intact and the session still solves.
        assert_eq!(s.instance(), &mixed());
        s.apply(&Delta::ShiftWindows(5)).unwrap();
        let c = s.commit().unwrap();
        assert_matches_scratch(&s, &c);
    }

    #[test]
    fn structural_deltas_fall_back_cold() {
        let mut s = Session::open(mixed());
        s.commit().unwrap();
        s.apply(&Delta::ShiftWindows(40)).unwrap();
        let c = s.commit().unwrap();
        assert_eq!(c.telemetry.tier, ReuseTier::Cold);
        assert_eq!(c.telemetry.memo_hits, 0, "cold commit must not reuse");
        assert_matches_scratch(&s, &c);

        s.apply(&Delta::SetCalibrationLen(11)).unwrap();
        let c = s.commit().unwrap();
        assert_eq!(c.telemetry.tier, ReuseTier::Cold);
        assert_matches_scratch(&s, &c);
    }

    #[test]
    fn batches_take_the_worst_tier() {
        let mut s = Session::open(mixed());
        s.commit().unwrap();
        s.apply(&Delta::SetMachines(3)).unwrap();
        s.apply(&Delta::AddJobs(vec![(0, 40, 5)])).unwrap();
        let c = s.commit().unwrap();
        assert_eq!(c.telemetry.tier, ReuseTier::Warm);
        assert_eq!(c.telemetry.deltas, 2);
        assert_matches_scratch(&s, &c);
    }

    #[test]
    fn invalid_deltas_are_rejected_atomically() {
        let mut s = Session::open(mixed());
        s.commit().unwrap();
        let before = s.instance().clone();
        // p > T after shrinking the calibration length.
        assert!(matches!(
            s.apply(&Delta::SetCalibrationLen(5)),
            Err(SessionError::InvalidDelta(_))
        ));
        assert!(matches!(
            s.apply(&Delta::RemoveJobs(vec![0, 0])),
            Err(SessionError::InvalidDelta(_))
        ));
        assert!(matches!(
            s.apply(&Delta::RemoveJobs(vec![99])),
            Err(SessionError::InvalidDelta(_))
        ));
        assert!(matches!(
            s.apply(&Delta::SetMachines(0)),
            Err(SessionError::InvalidDelta(_))
        ));
        assert_eq!(*s.instance(), before);
        assert_eq!(s.staged(), 0);
        // The session still commits cleanly.
        let c = s.commit().unwrap();
        assert_matches_scratch(&s, &c);
    }

    #[test]
    fn remove_jobs_reindexes_densely() {
        let mut s = Session::open(mixed());
        s.commit().unwrap();
        s.apply(&Delta::RemoveJobs(vec![0, 2])).unwrap();
        assert_eq!(s.instance().len(), 2);
        let c = s.commit().unwrap();
        assert_matches_scratch(&s, &c);
    }

    #[test]
    fn infeasible_commit_advances_the_session() {
        // 10 ten-tick long jobs in [0, 20) on one machine: certified
        // infeasible at speed 1.
        let mut s = Session::open(mixed());
        s.commit().unwrap();
        s.apply(&Delta::AddJobs(
            (0..10).map(|_| (0i64, 20i64, 10i64)).collect(),
        ))
        .unwrap();
        let c = s.commit().unwrap();
        assert!(matches!(c.verdict, Verdict::Infeasible { .. }));
        assert_eq!(c.calibrations(), None);
        assert_eq!(s.commits(), 2);
        assert_matches_scratch(&s, &c);
        // Removing them recovers feasibility.
        let n = s.instance().len();
        s.apply(&Delta::RemoveJobs((n - 10..n).collect())).unwrap();
        let c = s.commit().unwrap();
        assert!(matches!(c.verdict, Verdict::Feasible { .. }));
        assert_matches_scratch(&s, &c);
    }

    #[test]
    fn panicking_solve_leaves_the_session_reusable() {
        let mut s = Session::open(mixed());
        s.commit().unwrap();
        s.apply(&Delta::AddJobs(vec![(0, 40, 5)])).unwrap();
        let err = s.commit_with(|_, _, _| panic!("injected solver panic"));
        assert!(matches!(err, Err(SessionError::SolvePanicked)));
        // Staged deltas survive; a retry with the real solver succeeds and
        // still matches a from-scratch solve.
        assert_eq!(s.staged(), 1);
        let c = s.commit().unwrap();
        assert_eq!(c.telemetry.deltas, 1);
        assert_matches_scratch(&s, &c);
    }

    #[test]
    fn empty_commit_resolves_with_full_reuse() {
        let mut s = Session::open(mixed());
        let cold = s.commit().unwrap();
        let warm = s.commit().unwrap();
        assert_eq!(warm.telemetry.tier, ReuseTier::Basis);
        assert_eq!(warm.telemetry.deltas, 0);
        assert_eq!(warm.telemetry.invalidated_intervals, 0);
        assert!(warm.telemetry.lp_iterations <= cold.telemetry.lp_iterations);
        assert_matches_scratch(&s, &warm);
    }

    #[test]
    fn discard_staged_reverts_to_committed() {
        let mut s = Session::open(mixed());
        s.commit().unwrap();
        let before = s.instance().clone();
        s.apply(&Delta::AddJobs(vec![(0, 40, 5)])).unwrap();
        assert_ne!(*s.instance(), before);
        s.discard_staged();
        assert_eq!(*s.instance(), before);
        assert_eq!(s.staged(), 0);
    }

    #[test]
    fn delta_msgs_round_trip() {
        let deltas = vec![
            Delta::AddJobs(vec![(0, 30, 5), (2, 25, 6)]),
            Delta::RemoveJobs(vec![1]),
            Delta::SetMachines(4),
            Delta::SetCalibrationLen(12),
            Delta::ShiftWindows(-7),
        ];
        for d in &deltas {
            let json = serde_json::to_string(&d.to_msg()).unwrap();
            let back: DeltaMsg = serde_json::from_str(&json).unwrap();
            assert_eq!(back.decode().unwrap(), *d);
        }
        let bad: DeltaMsg = serde_json::from_str(r#"{"op":"warp_time"}"#).unwrap();
        assert!(matches!(bad.decode(), Err(SessionError::InvalidDelta(_))));
        let missing: DeltaMsg = serde_json::from_str(r#"{"op":"add_jobs"}"#).unwrap();
        assert!(matches!(
            missing.decode(),
            Err(SessionError::InvalidDelta(_))
        ));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 24, .. proptest::prelude::ProptestConfig::default()
        })]

        /// Shifts of any magnitude — including ones that land at or past
        /// the representable horizon (`i64::MAX / 36`) — either apply
        /// cleanly or are rejected with `InvalidDelta`, and a rejection
        /// leaves the session solvable. Never a wrap or a panic.
        #[test]
        fn extreme_shifts_never_corrupt_the_session(
            base in -4i64..4,
            scale in 0u32..63,
            negative in proptest::prelude::any::<bool>(),
        ) {
            let magnitude = (1i64 << scale).saturating_add(base);
            let shift = if negative { magnitude.saturating_neg() } else { magnitude };
            let mut s = Session::open(mixed());
            s.commit().unwrap();
            match s.apply(&Delta::ShiftWindows(shift)) {
                Ok(()) => {
                    // Applied: the staged instance is well-formed, ticks in
                    // range by construction of `Instance::new`.
                    proptest::prop_assert!(s.instance().jobs().iter().all(|j| {
                        j.release.ticks().abs() <= ise_model::MAX_INSTANCE_TICKS
                    }));
                }
                Err(SessionError::InvalidDelta(_)) => {
                    // Rejected: committed state intact, still solvable.
                    proptest::prop_assert_eq!(s.instance(), &mixed());
                    let c = s.commit().unwrap();
                    proptest::prop_assert!(
                        matches!(c.verdict, Verdict::Feasible { .. })
                    );
                }
                Err(e) => proptest::prop_assert!(false, "unexpected error class: {e}"),
            }
        }
    }
}
