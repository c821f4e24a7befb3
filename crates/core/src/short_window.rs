//! The short-window pipeline (Section 4, Algorithms 4–5, Theorem 20).
//!
//! Short-window jobs (`d_j − r_j < γT`, `γ = 2`) are handled by reduction
//! to machine minimization:
//!
//! * **Algorithm 4** partitions time into length-`2γT` intervals twice — at
//!   offset `0` onto machine set `M₁` and at offset `γT` onto a disjoint
//!   set `M₂`. Every short job's window is nested in an interval of one of
//!   the two passes (Lemma 16).
//! * **Algorithm 5** schedules each interval's jobs with the MM black box
//!   (`w` machines), then converts to an ISE schedule on `3w` machines:
//!   the first `w` machines are calibrated every `T` steps across the whole
//!   interval; each *crossing job* (one whose execution spans a calibration
//!   boundary) moves to a dedicated machine — `w + m_j` for even crossing
//!   parity, `2w + m_j` for odd — with a private calibration starting
//!   exactly at the job's start time (Lemma 15).
//!
//! With an `α`-approximate MM black box the result uses at most `6αw*`
//! machines and `16γαC*` calibrations (Theorem 20).

use crate::cancel::CancelToken;
use crate::error::SchedError;
use ise_mm::{MachineMinimizer, MmPlacement, MmSchedule};
use ise_model::{Dur, Instance, Job, Schedule, Time};
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The paper's `γ`: short windows are shorter than `γT` (Definition 1 has
/// the long/short threshold at `2T`).
pub const GAMMA: i64 = 2;

/// How Algorithm 5 handles *crossing jobs* (executions spanning a
/// calibration boundary on their MM machine).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CrossingPolicy {
    /// The paper's main-text (hard) variant: calibrations on a machine may
    /// not overlap, so each crossing job moves to one of `2w` extra
    /// machines with a dedicated calibration (3w machines per interval).
    #[default]
    ExtraMachines,
    /// The footnote-3 (relaxed) variant: a machine may be recalibrated
    /// before the previous calibration ends, so the crossing job stays on
    /// its MM machine under a dedicated overlapping calibration — `w`
    /// machines per interval, same calibration count. Schedules built this
    /// way satisfy [`ise_model::validate_relaxed`], not the strict
    /// validator.
    OverlappingCalibrations,
}

/// Per-interval diagnostics for experiments.
#[derive(Clone, Debug)]
pub struct IntervalReport {
    /// Which pass produced the interval (0 = offset 0, 1 = offset `γT`).
    pub pass: usize,
    /// Interval start time.
    pub start: Time,
    /// Number of jobs nested in this interval.
    pub jobs: usize,
    /// Machines the MM black box used (`w`).
    pub mm_machines: usize,
    /// Crossing jobs encountered.
    pub crossing_jobs: usize,
    /// Calibrations emitted for this interval.
    pub calibrations: usize,
}

/// Outcome of the short-window pipeline.
#[derive(Clone, Debug)]
pub struct ShortWindowOutcome {
    /// The feasible ISE schedule.
    pub schedule: Schedule,
    /// Machines used by pass 1 (`|M₁|`).
    pub pass1_machines: usize,
    /// Machines used by pass 2 (`|M₂|`).
    pub pass2_machines: usize,
    /// Per-interval diagnostics.
    pub intervals: Vec<IntervalReport>,
}

/// Default bound on retained memo entries; old entries are evicted in
/// insertion order beyond this.
const MEMO_CAPACITY: usize = 4096;

/// A memo of per-interval MM results, keyed by interval content, for
/// delta solving (`ise::session`).
///
/// Algorithm 4 partitions short jobs into intervals independently, so when
/// an instance is edited incrementally only the intervals whose job set
/// changed need a fresh MM call; the rest replay their cached schedules.
/// Cache keys hash the MM backend name, the calibration length, the
/// interval's absolute start, and the interval's job content `(r, d, p)` in
/// slice order — everything the (deterministic) MM call depends on except
/// job *ids*, which shift when jobs are added or removed elsewhere.
/// Placements are therefore stored by position in the interval's job slice
/// and re-labelled with the current ids on replay, so a hit reproduces the
/// MM schedule bit-for-bit. Every replayed schedule still passes through
/// [`ise_mm::validate_mm`] in interval emission.
#[derive(Debug, Default)]
pub struct ShortWindowMemo {
    entries: HashMap<u64, MemoEntry>,
    order: VecDeque<u64>,
    hits: u64,
    misses: u64,
    last_hits: usize,
    last_misses: usize,
}

/// A cached MM schedule in position-normalized form: `(job position in the
/// interval's slice, start, machine)`.
#[derive(Clone, Debug)]
struct MemoEntry {
    machines: usize,
    placements: Vec<(usize, Time, usize)>,
}

impl ShortWindowMemo {
    /// An empty memo.
    pub fn new() -> ShortWindowMemo {
        ShortWindowMemo::default()
    }

    /// Number of cached intervals.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop every cached interval (structural deltas invalidate everything).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Reset the per-solve hit/miss counters. Called at the start of each
    /// memoized solve; callers that route a memo through a larger pipeline
    /// (e.g. [`crate::solve_incremental`]) call it up front so the counters
    /// read zero even when the short-window half never runs.
    pub fn begin_solve(&mut self) {
        self.last_hits = 0;
        self.last_misses = 0;
    }

    /// Intervals replayed from the memo by the most recent memoized solve.
    pub fn last_hits(&self) -> usize {
        self.last_hits
    }

    /// Intervals the most recent memoized solve had to recompute — i.e.
    /// intervals whose job content was not cached (changed or new).
    pub fn last_misses(&self) -> usize {
        self.last_misses
    }

    fn lookup(&mut self, key: u64, jobs: &[Job]) -> Option<MmSchedule> {
        let entry = self.entries.get(&key)?;
        self.hits += 1;
        self.last_hits += 1;
        Some(MmSchedule {
            machines: entry.machines,
            placements: entry
                .placements
                .iter()
                .map(|&(pos, start, machine)| MmPlacement {
                    job: jobs[pos].id,
                    machine,
                    start,
                })
                .collect(),
        })
    }

    fn insert(&mut self, key: u64, jobs: &[Job], schedule: &MmSchedule) {
        let by_id: HashMap<_, _> = jobs.iter().enumerate().map(|(i, j)| (j.id, i)).collect();
        let placements = schedule
            .placements
            .iter()
            .map(|p| (by_id[&p.job], p.start, p.machine))
            .collect();
        if self.entries.len() >= MEMO_CAPACITY {
            if let Some(old) = self.order.pop_front() {
                self.entries.remove(&old);
            }
        }
        if self
            .entries
            .insert(
                key,
                MemoEntry {
                    machines: schedule.machines,
                    placements,
                },
            )
            .is_none()
        {
            self.order.push_back(key);
        }
    }
}

/// Content hash of one interval's MM input: the backend, the calibration
/// length, the interval's absolute start, and the nested jobs' windows in
/// slice order (ids excluded — they shift under instance edits).
fn interval_key(mm_name: &str, calib_len: Dur, start: Time, jobs: &[Job]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    mm_name.hash(&mut h);
    calib_len.ticks().hash(&mut h);
    start.ticks().hash(&mut h);
    jobs.len().hash(&mut h);
    for j in jobs {
        j.release.ticks().hash(&mut h);
        j.deadline.ticks().hash(&mut h);
        j.proc.ticks().hash(&mut h);
    }
    h.finish()
}

/// As [`schedule_short_windows`] with no cancellation and no memo: the
/// stateless Algorithms 4–5 under an explicit crossing-job policy
/// (footnote 3 of the paper describes the relaxed variant).
pub fn schedule_short_windows_with(
    instance: &Instance,
    mm: &dyn MachineMinimizer,
    policy: CrossingPolicy,
) -> Result<ShortWindowOutcome, SchedError> {
    schedule_short_windows(instance, mm, policy, &CancelToken::default(), None)
}

/// Run Algorithms 4–5 on a short-window instance with the given MM black
/// box and crossing-job policy. `cancel` is polled before every
/// per-interval MM call. The per-interval MM calls of Algorithm 5 are
/// independent, so they are fanned out across a bounded pool of scoped
/// threads; the schedule is then emitted sequentially in interval order, so
/// results are identical to a sequential run.
///
/// With a `memo`, per-interval MM results are served from (and recorded
/// into) it: intervals whose job content is unchanged since a previous
/// solve replay without an MM call, and [`ShortWindowMemo::last_misses`]
/// reports how many intervals had to be recomputed. Without one, no memo
/// work is done.
pub fn schedule_short_windows(
    instance: &Instance,
    mm: &dyn MachineMinimizer,
    policy: CrossingPolicy,
    cancel: &CancelToken,
    mut memo: Option<&mut ShortWindowMemo>,
) -> Result<ShortWindowOutcome, SchedError> {
    if let Some(memo) = memo.as_deref_mut() {
        memo.begin_solve();
    }
    if !instance.all_short() {
        return Err(SchedError::Precondition {
            requirement: "short-window pipeline requires every job window < 2T",
        });
    }
    let t_len = instance.calib_len();
    let interval_len = t_len * (2 * GAMMA);
    let offset = t_len * GAMMA;

    // Algorithm 4: first pass at offset 0, second pass at offset γT over
    // the leftovers.
    let mut remaining: Vec<Job> = instance.jobs().to_vec();
    let mut intervals = Vec::new();
    let mut schedule = Schedule::new();

    let pass1_machines = run_pass(
        0,
        Time::ZERO,
        interval_len,
        &mut remaining,
        instance,
        mm,
        policy,
        0,
        cancel,
        &mut schedule,
        &mut intervals,
        memo.as_deref_mut(),
    )?;
    let pass2_machines = run_pass(
        1,
        Time::ZERO + offset,
        interval_len,
        &mut remaining,
        instance,
        mm,
        policy,
        pass1_machines,
        cancel,
        &mut schedule,
        &mut intervals,
        memo,
    )?;

    if !remaining.is_empty() {
        // Lemma 16 proves every short job is nested in some interval of one
        // of the two passes.
        return Err(SchedError::Internal {
            stage: "short-window partitioning left jobs unassigned (Lemma 16 violated)",
            jobs: remaining.iter().map(|j| j.id).collect(),
        });
    }
    Ok(ShortWindowOutcome {
        schedule,
        pass1_machines,
        pass2_machines,
        intervals,
    })
}

/// One pass of Algorithm 4: group `remaining` jobs nested in intervals
/// `[anchor + k·len, anchor + (k+1)·len)` and schedule each group with
/// Algorithm 5. The MM calls run concurrently; emission is sequential in
/// interval order. Returns the machines used by this pass.
#[allow(clippy::too_many_arguments)]
fn run_pass(
    pass: usize,
    anchor: Time,
    interval_len: Dur,
    remaining: &mut Vec<Job>,
    instance: &Instance,
    mm: &dyn MachineMinimizer,
    policy: CrossingPolicy,
    machine_offset: usize,
    cancel: &CancelToken,
    schedule: &mut Schedule,
    intervals: &mut Vec<IntervalReport>,
    memo: Option<&mut ShortWindowMemo>,
) -> Result<usize, SchedError> {
    // Group nested jobs by interval index.
    let partition_span = ise_obs::Span::enter("short.partition");
    let mut by_interval: std::collections::BTreeMap<i64, Vec<Job>> =
        std::collections::BTreeMap::new();
    let mut leftover = Vec::with_capacity(remaining.len());
    for &job in remaining.iter() {
        let k = (job.release - anchor)
            .ticks()
            .div_euclid(interval_len.ticks());
        let start = anchor + interval_len * k;
        if job.release >= start && job.deadline <= start + interval_len {
            by_interval.entry(k).or_default().push(job);
        } else {
            leftover.push(job);
        }
    }
    *remaining = leftover;
    let groups: Vec<(i64, Vec<Job>)> = by_interval.into_iter().collect();
    let starts: Vec<Time> = groups
        .iter()
        .map(|(k, _)| anchor + interval_len * *k)
        .collect();
    drop(partition_span);

    let mm_schedules = minimize_groups(&groups, &starts, instance.calib_len(), mm, cancel, memo)?;

    let mut pass_machines = 0usize;
    let width = match policy {
        CrossingPolicy::ExtraMachines => 3,
        CrossingPolicy::OverlappingCalibrations => 1,
    };
    let _emit_span = ise_obs::Span::enter("short.emit");
    for ((k, jobs), mm_schedule) in groups.iter().zip(mm_schedules) {
        let start = anchor + interval_len * *k;
        let report = emit_interval(
            pass,
            start,
            jobs,
            instance,
            mm_schedule,
            policy,
            machine_offset,
            schedule,
        )?;
        pass_machines = pass_machines.max(width * report.mm_machines);
        intervals.push(report);
    }
    Ok(pass_machines)
}

/// Run the MM black box on every group, fanning the calls out across a
/// bounded pool of scoped threads (Algorithm 4's per-interval calls are
/// embarrassingly parallel). Results come back in group order; on multiple
/// failures the lowest-index group's error is reported, matching what a
/// sequential run would have surfaced first. With a memo, cached intervals
/// replay without an MM call and only the misses fan out.
fn minimize_groups(
    groups: &[(i64, Vec<Job>)],
    starts: &[Time],
    calib_len: Dur,
    mm: &dyn MachineMinimizer,
    cancel: &CancelToken,
    mut memo: Option<&mut ShortWindowMemo>,
) -> Result<Vec<MmSchedule>, SchedError> {
    // Probe the memo first; `pending` is the miss set that still needs a
    // real MM call.
    let mut results: Vec<Option<MmSchedule>> = groups.iter().map(|_| None).collect();
    let mut pending: Vec<usize> = Vec::new();
    let mut keys: Vec<u64> = Vec::new();
    match memo.as_deref_mut() {
        Some(memo) => {
            let _span = ise_obs::Span::enter("short.memo");
            for (i, (_, jobs)) in groups.iter().enumerate() {
                let key = interval_key(mm.name(), calib_len, starts[i], jobs);
                keys.push(key);
                match memo.lookup(key, jobs) {
                    Some(replayed) => results[i] = Some(replayed),
                    None => {
                        memo.misses += 1;
                        memo.last_misses += 1;
                        pending.push(i);
                    }
                }
            }
        }
        None => pending = (0..groups.len()).collect(),
    }

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(pending.len());
    if threads <= 1 {
        for &i in &pending {
            cancel.check()?;
            let _span = ise_obs::Span::enter("short.mm");
            let solved = mm.minimize(&groups[i].1).map_err(SchedError::from)?;
            if let Some(memo) = memo.as_deref_mut() {
                memo.insert(keys[i], &groups[i].1, &solved);
            }
            results[i] = Some(solved);
        }
    } else {
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<MmSchedule, SchedError>>>> =
            pending.iter().map(|_| Mutex::new(None)).collect();
        let ctx = ise_obs::SpanContext::current();
        std::thread::scope(|s| {
            for _ in 0..threads {
                let (ctx, next, slots, pending) = (&ctx, &next, &slots, &pending);
                s.spawn(move || {
                    let _trace = ctx.install();
                    loop {
                        let p = next.fetch_add(1, Ordering::Relaxed);
                        if p >= pending.len() {
                            break;
                        }
                        let res = match cancel.check() {
                            Ok(()) => {
                                let _span = ise_obs::Span::enter("short.mm");
                                mm.minimize(&groups[pending[p]].1).map_err(SchedError::from)
                            }
                            Err(e) => Err(e),
                        };
                        *slots[p].lock().unwrap() = Some(res);
                    }
                });
            }
        });
        for (p, slot) in slots.into_iter().enumerate() {
            let i = pending[p];
            let solved = slot
                .into_inner()
                .unwrap()
                .expect("every pending slot is filled once the scope joins")?;
            if let Some(memo) = memo.as_deref_mut() {
                memo.insert(keys[i], &groups[i].1, &solved);
            }
            results[i] = Some(solved);
        }
    }
    Ok(results
        .into_iter()
        .map(|r| r.expect("every group resolved via memo or MM call"))
        .collect())
}

/// Algorithm 5 on one interval `[start, start + 2γT)`, given the interval's
/// MM schedule (already computed, possibly on another thread).
#[allow(clippy::too_many_arguments)]
fn emit_interval(
    pass: usize,
    start: Time,
    jobs: &[Job],
    instance: &Instance,
    mm_schedule: MmSchedule,
    policy: CrossingPolicy,
    machine_offset: usize,
    schedule: &mut Schedule,
) -> Result<IntervalReport, SchedError> {
    let t_len = instance.calib_len();
    ise_mm::validate_mm(jobs, &mm_schedule).map_err(|_| SchedError::Internal {
        stage: "short-window: MM black box returned an invalid schedule",
        jobs: jobs.iter().map(|j| j.id).collect(),
    })?;
    let w = mm_schedule.machines;

    let cal_count_before = schedule.num_calibrations();
    // Base machines: calibrate every T steps across the interval.
    for i in 0..w {
        for k in 0..(2 * GAMMA) {
            schedule.calibrate(machine_offset + i, start + t_len * k);
        }
    }

    let by_id: std::collections::HashMap<_, _> = jobs.iter().map(|j| (j.id, j)).collect();
    let mut crossing = 0usize;
    for p in &mm_schedule.placements {
        let job = by_id[&p.job];
        // Crossing index: the calibration slot containing the start.
        let k = (p.start - start).ticks().div_euclid(t_len.ticks());
        let slot_end = start + t_len * (k + 1);
        if p.start + job.proc <= slot_end {
            // Fully inside calibration k of the base machine.
            schedule.place(p.job, machine_offset + p.machine, p.start);
        } else {
            // Crossing job: dedicated calibration, on an extra machine
            // (main text) or overlapping on the same machine (footnote 3).
            crossing += 1;
            let machine = match policy {
                CrossingPolicy::ExtraMachines => {
                    let bank = if k % 2 == 0 { w } else { 2 * w };
                    machine_offset + bank + p.machine
                }
                CrossingPolicy::OverlappingCalibrations => machine_offset + p.machine,
            };
            schedule.calibrate(machine, p.start);
            schedule.place(p.job, machine, p.start);
        }
    }

    Ok(IntervalReport {
        pass,
        start,
        jobs: jobs.len(),
        mm_machines: w,
        crossing_jobs: crossing,
        calibrations: schedule.num_calibrations() - cal_count_before,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_mm::ExactMm;
    use ise_model::{validate, Instance};

    fn run(inst: &Instance) -> ShortWindowOutcome {
        schedule_short_windows_with(inst, &ExactMm::default(), CrossingPolicy::ExtraMachines)
            .unwrap()
    }

    #[test]
    fn single_short_job() {
        let inst = Instance::new([(0, 15, 5)], 1, 10).unwrap();
        let out = run(&inst);
        validate(&inst, &out.schedule).unwrap();
        // One MM machine => 3 ISE machines, 2γ = 4 base calibrations.
        assert_eq!(out.pass1_machines, 3);
        assert!(out.schedule.num_calibrations() <= 4 + 1);
    }

    #[test]
    fn rejects_long_jobs() {
        let inst = Instance::new([(0, 20, 5)], 1, 10).unwrap();
        assert!(matches!(
            schedule_short_windows_with(&inst, &ExactMm::default(), CrossingPolicy::ExtraMachines),
            Err(SchedError::Precondition { .. })
        ));
    }

    #[test]
    fn boundary_spanning_jobs_go_to_pass_two() {
        // T = 10, interval length 4T = 40. A job with window [35, 50)
        // crosses the pass-1 boundary at 40 but nests in pass 2's [20, 60).
        let inst = Instance::new([(35, 50, 5)], 1, 10).unwrap();
        let out = run(&inst);
        validate(&inst, &out.schedule).unwrap();
        assert_eq!(out.intervals.len(), 1);
        assert_eq!(out.intervals[0].pass, 1);
        assert_eq!(out.pass1_machines, 0);
        assert!(out.pass2_machines >= 3);
    }

    #[test]
    fn crossing_jobs_get_dedicated_calibrations() {
        // Force the MM schedule to cross a T-boundary: a zero-slack job
        // spanning [5, 15) inside interval [0, 40).
        let inst = Instance::new([(5, 15, 10)], 1, 10).unwrap();
        let out = run(&inst);
        validate(&inst, &out.schedule).unwrap();
        assert_eq!(out.intervals[0].crossing_jobs, 1);
        // 4 base calibrations + 1 dedicated.
        assert_eq!(out.intervals[0].calibrations, 5);
        // The dedicated calibration starts exactly at the job start.
        assert!(out
            .schedule
            .calibrations
            .iter()
            .any(|c| c.start == Time(5) && c.machine >= 1));
    }

    #[test]
    fn theorem20_calibration_budget() {
        // Several tight short jobs; verify calibrations <= 4γ·w per
        // interval (Lemma 19) with the exact black box.
        let inst = Instance::new(
            [(0, 12, 6), (0, 12, 6), (3, 17, 6), (20, 33, 8), (22, 35, 8)],
            2,
            10,
        )
        .unwrap();
        let out = run(&inst);
        validate(&inst, &out.schedule).unwrap();
        for rep in &out.intervals {
            assert!(
                rep.calibrations <= (4 * GAMMA as usize) * rep.mm_machines,
                "interval at {} used {} calibrations with w={}",
                rep.start,
                rep.calibrations,
                rep.mm_machines
            );
        }
    }

    #[test]
    fn disjoint_intervals_reuse_machines() {
        // Two groups far apart in time, both pass 1: machine ids are
        // reused, so the pass uses max (not sum) of 3w.
        let inst = Instance::new([(0, 12, 5), (400, 412, 5)], 1, 10).unwrap();
        let out = run(&inst);
        validate(&inst, &out.schedule).unwrap();
        assert_eq!(out.pass1_machines, 3);
        assert_eq!(out.schedule.machines_used(), 1); // only base machine 0 carries jobs
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new([], 1, 10).unwrap();
        let out = run(&inst);
        assert_eq!(out.schedule.num_calibrations(), 0);
    }

    #[test]
    fn footnote3_variant_saves_machines() {
        // A crossing job forces an extra machine in the strict variant but
        // stays put (with an overlapping calibration) in the relaxed one.
        let inst = Instance::new([(5, 15, 10), (0, 12, 5)], 1, 10).unwrap();
        let strict =
            schedule_short_windows_with(&inst, &ExactMm::default(), CrossingPolicy::ExtraMachines)
                .unwrap();
        let relaxed = schedule_short_windows_with(
            &inst,
            &ExactMm::default(),
            CrossingPolicy::OverlappingCalibrations,
        )
        .unwrap();
        validate(&inst, &strict.schedule).unwrap();
        ise_model::validate_relaxed(&inst, &relaxed.schedule).unwrap();
        // Relaxed keeps everything on the MM machines.
        assert!(relaxed.schedule.machines_used() < strict.schedule.machines_used());
        assert_eq!(relaxed.pass1_machines + relaxed.pass2_machines, 1);
        // Same calibration count: the trade is machines, not calibrations.
        assert_eq!(
            relaxed.schedule.num_calibrations(),
            strict.schedule.num_calibrations()
        );
        // The strict validator rejects the relaxed schedule (overlap).
        assert!(validate(&inst, &relaxed.schedule).is_err());
    }

    #[test]
    fn footnote3_variant_validates_across_seeds() {
        use ise_workloads::{short_only, WorkloadParams};
        for seed in 0..4u64 {
            let params = WorkloadParams {
                jobs: 10,
                machines: 2,
                calib_len: 10,
                horizon: 150,
            };
            let inst = short_only(&params, seed);
            let out = schedule_short_windows_with(
                &inst,
                &ExactMm::default(),
                CrossingPolicy::OverlappingCalibrations,
            )
            .unwrap();
            ise_model::validate_relaxed(&inst, &out.schedule).unwrap();
        }
    }

    #[test]
    fn memoized_solve_is_bit_identical_and_replays_unchanged_intervals() {
        let mm = ExactMm::default();
        let cancel = CancelToken::default();
        let inst =
            Instance::new([(0, 12, 6), (3, 17, 6), (20, 33, 8), (400, 412, 5)], 2, 10).unwrap();
        let cold = schedule_short_windows_with(&inst, &mm, CrossingPolicy::ExtraMachines).unwrap();
        let mut memo = ShortWindowMemo::new();
        let first = schedule_short_windows(
            &inst,
            &mm,
            CrossingPolicy::ExtraMachines,
            &cancel,
            Some(&mut memo),
        )
        .unwrap();
        assert_eq!(first.schedule, cold.schedule);
        assert_eq!(memo.last_hits(), 0);
        assert_eq!(memo.last_misses(), cold.intervals.len());
        // Unchanged instance: every interval replays from the memo.
        let second = schedule_short_windows(
            &inst,
            &mm,
            CrossingPolicy::ExtraMachines,
            &cancel,
            Some(&mut memo),
        )
        .unwrap();
        assert_eq!(second.schedule, cold.schedule);
        assert_eq!(second.pass1_machines, cold.pass1_machines);
        assert_eq!(memo.last_hits(), cold.intervals.len());
        assert_eq!(memo.last_misses(), 0);
        validate(&inst, &second.schedule).unwrap();
    }

    #[test]
    fn memo_invalidates_only_the_changed_interval() {
        let mm = ExactMm::default();
        let cancel = CancelToken::default();
        // Two far-apart intervals; a third job lands in the second one.
        let before = Instance::new([(0, 12, 6), (400, 412, 5)], 2, 10).unwrap();
        let after = Instance::new([(0, 12, 6), (400, 412, 5), (403, 415, 4)], 2, 10).unwrap();
        let mut memo = ShortWindowMemo::new();
        schedule_short_windows(
            &before,
            &mm,
            CrossingPolicy::ExtraMachines,
            &cancel,
            Some(&mut memo),
        )
        .unwrap();
        let out = schedule_short_windows(
            &after,
            &mm,
            CrossingPolicy::ExtraMachines,
            &cancel,
            Some(&mut memo),
        )
        .unwrap();
        // Interval around t=0 is untouched (hit); the one around t=400
        // gained a job (miss). Ids shifted are irrelevant to the memo key.
        assert_eq!(memo.last_hits(), 1);
        assert_eq!(memo.last_misses(), 1);
        let scratch =
            schedule_short_windows_with(&after, &mm, CrossingPolicy::ExtraMachines).unwrap();
        assert_eq!(out.schedule, scratch.schedule);
        validate(&after, &out.schedule).unwrap();
    }

    #[test]
    fn negative_release_times_partition_correctly() {
        let inst = Instance::new([(-35, -20, 5)], 1, 10).unwrap();
        let out = run(&inst);
        validate(&inst, &out.schedule).unwrap();
    }
}
