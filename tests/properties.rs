//! Property-based tests (proptest) over the whole pipeline: random
//! instances solve to valid schedules, the paper's transformations preserve
//! their invariants, and the validator rejects mutated schedules.

use ise::model::{
    shift_schedule, shift_time, validate, validate_tise, Dur, Instance, InstanceBuilder, Time,
};
use ise::sched::long_window::schedule_long_windows;
use ise::sched::rounding::{assign_machines, round_calibrations};
use ise::sched::speed_transform::trade_machines_for_speed;
use ise::sched::tise::to_tise;
use ise::sched::{solve, SolverOptions};
use ise::simplex::SolveOptions;
use proptest::prelude::*;

/// Strategy: a well-formed instance with `n` jobs, T = 10, bounded horizon.
fn arb_instance(
    max_jobs: usize,
    machines: usize,
    long_only: bool,
) -> impl Strategy<Value = Instance> {
    let t = 10i64;
    let job = (0i64..80, 1i64..=t, 0i64..=4 * t).prop_map(move |(r, p, slack)| {
        let min_window = if long_only { 2 * t } else { p };
        let d = r + p.max(min_window) + slack;
        (r, d, p)
    });
    proptest::collection::vec(job, 1..=max_jobs).prop_map(move |jobs| {
        let mut b = InstanceBuilder::new(machines, t);
        for (r, d, p) in jobs {
            b.push(r, d, p);
        }
        b.build().expect("strategy respects invariants")
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// The combined solver produces schedules the exact validator accepts,
    /// and never beats the work lower bound.
    #[test]
    fn solve_always_validates(instance in arb_instance(10, 2, false)) {
        match solve(&instance, &SolverOptions::default()) {
            Ok(out) => {
                validate(&instance, &out.schedule).expect("valid schedule");
                prop_assert!(out.schedule.num_calibrations() as u64 >= instance.work_lower_bound());
            }
            Err(ise::sched::SchedError::Infeasible { .. }) => {
                // Acceptable: certified infeasibility on this machine count.
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
        }
    }

    /// Long-window pipeline output is TISE-valid and fits Theorem 12's
    /// machine budget; the Lemma 2 transform of that schedule is again
    /// valid with exactly 3x the calibrations.
    #[test]
    fn long_pipeline_and_lemma2(instance in arb_instance(8, 1, true)) {
        let out = match schedule_long_windows(&instance, &SolveOptions::default(), None) {
            Ok(out) => out,
            Err(ise::sched::SchedError::Infeasible { .. }) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
        };
        validate_tise(&instance, &out.schedule).expect("TISE-valid");
        prop_assert!(out.schedule.machines_used() <= 18 * instance.machines());

        let transformed = to_tise(&instance, &out.schedule).expect("lemma 2");
        validate_tise(&instance, &transformed).expect("transform valid");
        prop_assert_eq!(transformed.num_calibrations(), 3 * out.schedule.num_calibrations());
    }

    /// Speed transformation: valid at speed 2c, never more calibrations,
    /// exactly ceil(machines / c) target machines are used at most.
    #[test]
    fn speed_transform_preserves_feasibility(
        instance in arb_instance(8, 1, true),
        c in 1usize..5,
    ) {
        let out = match schedule_long_windows(&instance, &SolveOptions::default(), None) {
            Ok(out) => out,
            Err(_) => return Ok(()),
        };
        let fast = trade_machines_for_speed(&instance, &out.schedule, c).expect("lemma 13");
        validate(&instance, &fast.schedule).expect("valid at speed 2c");
        prop_assert!(fast.schedule.num_calibrations() <= out.schedule.num_calibrations());
        let groups = out.schedule.machines_used().div_ceil(c);
        prop_assert!(fast.schedule.machines_used() <= groups.max(1));
        prop_assert_eq!(fast.schedule.speed, 2 * c as i64);
    }

    /// The validator rejects schedules with a placement nudged outside its
    /// calibration or past its deadline.
    #[test]
    fn validator_rejects_mutations(
        instance in arb_instance(8, 2, false),
        victim in 0usize..8,
        nudge in prop::sample::select(vec![-1000i64, -7, 9, 1000]),
    ) {
        let Ok(out) = solve(&instance, &SolverOptions::default()) else { return Ok(()) };
        let mut mutated = out.schedule.clone();
        if mutated.placements.is_empty() { return Ok(()); }
        let idx = victim % mutated.placements.len();
        let old = mutated.placements[idx].start;
        mutated.placements[idx].start = Time(old.ticks() + nudge);
        // Either the nudge lands in another legal spot (rare) or the
        // validator must flag it; it must never panic.
        let _ = validate(&instance, &mutated);
        // Removing a placement is always invalid.
        let mut missing = out.schedule.clone();
        missing.placements.remove(idx % missing.placements.len());
        prop_assert!(validate(&instance, &missing).is_err());
        // Duplicating a placement is always invalid (nonpreemptive).
        let mut dup = out.schedule;
        dup.placements.push(dup.placements[idx]);
        prop_assert!(validate(&instance, &dup).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Algorithm 1 rounding: emits exactly floor(2·mass) calibrations
    /// overall (threshold 1/2), and in any length-T window at most
    /// 2·(window mass) + 1 calibrations start.
    #[test]
    fn rounding_mass_and_window_bounds(
        raw in proptest::collection::vec((0i64..200, 0u32..300), 1..40),
    ) {
        let mut pts: Vec<i64> = raw.iter().map(|&(t, _)| t).collect();
        pts.sort_unstable();
        pts.dedup();
        let points: Vec<Time> = pts.iter().map(|&t| Time(t)).collect();
        // Re-associate masses with the deduped points.
        let mut c = vec![0.0f64; points.len()];
        for &(t, mass) in &raw {
            let i = pts.binary_search(&t).unwrap();
            c[i] += mass as f64 / 100.0;
        }
        let total: f64 = c.iter().sum();
        let out = round_calibrations(&points, &c, 0.5);
        let expected = (2.0 * total + 1e-6).floor() as usize;
        prop_assert_eq!(out.len(), expected);

        // Window bound (Lemma 4 shape): calibrations starting in [t, t+T)
        // are at most 2·(fractional mass in that window) + 1.
        let t_len = 10i64;
        for &w_start in &pts {
            let mass: f64 = points
                .iter()
                .zip(&c)
                .filter(|(p, _)| p.ticks() >= w_start && p.ticks() < w_start + t_len)
                .map(|(_, &v)| v)
                .sum();
            let count = out
                .iter()
                .filter(|p| p.ticks() >= w_start && p.ticks() < w_start + t_len)
                .count();
            prop_assert!(
                count as f64 <= 2.0 * mass + 1.0 + 1e-6,
                "window at {}: {} emitted from mass {}", w_start, count, mass
            );
        }

        // First-fit machine assignment never overlaps a machine.
        let cals = assign_machines(&out, ise::model::Dur(t_len));
        for a in &cals {
            for b in &cals {
                if a.machine == b.machine && a.start < b.start {
                    prop_assert!(b.start.ticks() - a.start.ticks() >= t_len);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Metamorphic properties: transformations of the *instance* with a known
// effect on the answer. These mirror `ise::conform`'s metamorphic oracle, so
// a violation found by either shows up in both harnesses.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Shifting every window by a multiple of Algorithm 4's period `2γT`
    /// translates the whole problem: same feasibility verdict, same
    /// calibration count, and the shifted schedule is the original's
    /// translate. (Arbitrary shifts move windows relative to the fixed
    /// interval grid anchored at time 0, so only period multiples are
    /// exact symmetries.)
    #[test]
    fn time_shift_by_period_is_a_symmetry(
        instance in arb_instance(8, 2, false),
        k in prop::sample::select(vec![-2i64, 1, 3]),
    ) {
        let period = 2 * ise::sched::short_window::GAMMA * instance.calib_len().ticks();
        let shifted = shift_time(&instance, Dur(k * period));
        match (
            solve(&instance, &SolverOptions::default()),
            solve(&shifted, &SolverOptions::default()),
        ) {
            (Ok(a), Ok(b)) => {
                validate(&shifted, &b.schedule).expect("shifted solve valid");
                prop_assert_eq!(
                    a.schedule.num_calibrations(),
                    b.schedule.num_calibrations(),
                    "count changed under a {}-period shift", k
                );
                // The original schedule, translated, solves the shifted
                // instance directly.
                let translated = shift_schedule(&a.schedule, Dur(k * period));
                validate(&shifted, &translated).expect("translated schedule valid");
            }
            (Err(ise::sched::SchedError::Infeasible { .. }),
             Err(ise::sched::SchedError::Infeasible { .. })) => {}
            (a, b) => {
                return Err(TestCaseError::fail(format!(
                    "verdicts diverged under shift: {:?} vs {:?}",
                    a.map(|o| o.schedule.num_calibrations()),
                    b.map(|o| o.schedule.num_calibrations()),
                )));
            }
        }
    }

    /// Machine ids are interchangeable: mirroring them preserves validity
    /// and the calibration count.
    #[test]
    fn machine_relabeling_is_a_symmetry(instance in arb_instance(8, 3, false)) {
        let Ok(out) = solve(&instance, &SolverOptions::default()) else { return Ok(()) };
        let span = out
            .schedule
            .calibrations
            .iter()
            .map(|c| c.machine)
            .chain(out.schedule.placements.iter().map(|p| p.machine))
            .max()
            .unwrap_or(0);
        let mut relabeled = out.schedule.clone();
        for c in &mut relabeled.calibrations {
            c.machine = span - c.machine;
        }
        for p in &mut relabeled.placements {
            p.machine = span - p.machine;
        }
        validate(&instance, &relabeled).expect("relabeled schedule valid");
        prop_assert_eq!(relabeled.num_calibrations(), out.schedule.num_calibrations());
    }

    /// Widening one job's window only enlarges the feasible set: a feasible
    /// instance stays feasible, and on exactly-solvable sizes the optimal
    /// calibration count never increases.
    #[test]
    fn widening_a_window_never_hurts(
        instance in arb_instance(5, 2, false),
        seed in 0u64..1_000,
    ) {
        let widened = ise::workloads::widen_one_window(&instance, seed);
        if let Ok(out) = solve(&instance, &SolverOptions::default()) {
            match solve(&widened, &SolverOptions::default()) {
                Ok(w) => validate(&widened, &w.schedule).expect("widened solve valid"),
                Err(e) => {
                    let _ = out;
                    return Err(TestCaseError::fail(format!(
                        "widening turned a feasible instance infeasible: {e}"
                    )));
                }
            }
        }
        let search = |inst: &Instance| {
            ise::sched::exact::optimal(inst, &ise::sched::exact::ExactOptions::default())
        };
        if let (Ok(Some(orig)), Ok(Some(wide))) = (search(&instance), search(&widened)) {
            prop_assert!(
                wide.calibrations <= orig.calibrations,
                "widening raised the optimum: {} -> {}", orig.calibrations, wide.calibrations
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// The full conformance oracle stack (sparse/dense, warm/cold, engine,
    /// exact, budgets, metamorphic) agrees on random instances — the same
    /// entry point `ise fuzz` uses, so property testing and fuzzing share
    /// one definition of "conformant".
    #[test]
    fn conform_oracles_agree(instance in arb_instance(6, 2, false), seed in 0u64..1_000) {
        let opts = ise::conform::OracleOptions { meta_seed: seed, ..Default::default() };
        if let Err(d) = ise::conform::check_instance(&instance, &ise::conform::Oracle::ALL, &opts) {
            return Err(TestCaseError::fail(format!("oracle discrepancy: {d}")));
        }
    }
}

/// Commit the session's staged deltas and require the result to match a
/// from-scratch solve of the materialized instance: same verdict, same
/// calibration count, validated schedule. Cold commits must reproduce the
/// scratch schedule bit-for-bit; warm-started tiers may stop at a
/// different optimal LP vertex (same caveat as the dense/warm oracles),
/// so only the vertex-independent outputs are compared.
fn session_commit_matches_scratch(
    session: &mut ise::session::Session,
) -> Result<(), TestCaseError> {
    use ise::session::{ReuseTier, Verdict};
    let materialized = session.instance().clone();
    let commit = session
        .commit()
        .map_err(|e| TestCaseError::fail(format!("commit failed: {e}")))?;
    match (
        &commit.verdict,
        solve(&materialized, &SolverOptions::default()),
    ) {
        (Verdict::Feasible { schedule, .. }, Ok(scratch)) => {
            validate(&materialized, schedule)
                .map_err(|e| TestCaseError::fail(format!("invalid incremental schedule: {e}")))?;
            if commit.telemetry.tier == ReuseTier::Cold {
                prop_assert_eq!(schedule, &scratch.schedule);
            }
            prop_assert_eq!(
                schedule.num_calibrations(),
                scratch.schedule.num_calibrations()
            );
        }
        (Verdict::Infeasible { .. }, Err(ise::sched::SchedError::Infeasible { .. })) => {}
        (v, s) => {
            return Err(TestCaseError::fail(format!(
                "verdicts diverge: session {v:?} vs scratch {:?}",
                s.map(|o| o.schedule.num_calibrations())
            )));
        }
    }
    Ok(())
}

/// Strategy: one session delta. Deltas may be invalid against the evolving
/// instance (an out-of-range removal, a calibration length below some
/// processing time) — the replay test expects those to be rejected
/// atomically, leaving the staged instance untouched.
fn arb_delta() -> impl Strategy<Value = ise::session::Delta> {
    use ise::session::Delta;
    (
        0u8..5,
        (0i64..80, 1i64..=10, 0i64..=30),
        0usize..12,
        1usize..=4,
        5i64..=15,
        0i64..=40,
    )
        .prop_map(
            |(kind, (r, p, slack), idx, machines, calib, shift)| match kind {
                0 => Delta::AddJobs(vec![(r, r + p + slack, p)]),
                1 => Delta::RemoveJobs(vec![idx]),
                2 => Delta::SetMachines(machines),
                3 => Delta::SetCalibrationLen(calib),
                _ => Delta::ShiftWindows(shift),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// Replaying any random delta log through a `Session` produces, at
    /// every prefix, exactly the schedule a from-scratch solve of the
    /// materialized instance produces — reuse tiers are an optimization,
    /// never an approximation.
    #[test]
    fn session_replay_matches_scratch_at_every_prefix(
        instance in arb_instance(6, 2, false),
        deltas in proptest::collection::vec(arb_delta(), 0..5),
    ) {
        let mut session = ise::session::Session::open(instance);
        session_commit_matches_scratch(&mut session)?;
        for delta in &deltas {
            let before = session.instance().clone();
            match session.apply(delta) {
                Ok(()) => session_commit_matches_scratch(&mut session)?,
                Err(ise::session::SessionError::InvalidDelta(_)) => {
                    // Atomic rejection: the staged instance is untouched.
                    prop_assert_eq!(session.instance(), &before);
                }
                Err(e) => return Err(TestCaseError::fail(format!("apply failed: {e}"))),
            }
        }
    }
}

/// A panic inside the solver must not poison the session: the staged
/// deltas survive, and the next (healthy) commit succeeds and still
/// matches a from-scratch solve.
#[test]
fn poisoned_session_commit_recovers() {
    use ise::session::{Delta, SessionError};
    let instance = Instance::new([(0, 40, 7), (5, 50, 6)], 1, 10).unwrap();
    let mut session = ise::session::Session::open(instance);
    session.commit().expect("opening commit");
    session.apply(&Delta::SetMachines(2)).expect("valid delta");
    let err = session
        .commit_with(|_, _, _| panic!("injected solver failure"))
        .expect_err("panicking solve must surface as an error");
    assert!(matches!(err, SessionError::SolvePanicked));
    // The staged delta survived the panic and the session stays usable.
    assert_eq!(session.staged(), 1);
    let commit = session.commit().expect("healthy retry");
    let scratch = solve(session.committed(), &SolverOptions::default()).expect("feasible");
    match &commit.verdict {
        ise::session::Verdict::Feasible { schedule, .. } => {
            validate(session.committed(), schedule).expect("valid incremental schedule");
            assert_eq!(
                schedule.num_calibrations(),
                scratch.schedule.num_calibrations()
            );
        }
        other => panic!("expected a feasible verdict, got {other:?}"),
    }
}
