//! The full long-window pipeline (Section 3 / Theorem 12).
//!
//! For an instance whose jobs all have windows of length at least `2T`:
//!
//! 1. grant the Lemma 2 machine budget `m' = 3m`;
//! 2. build and solve the TISE LP on the Lemma 3 calibration points;
//! 3. round the fractional calibrations (Algorithm 1) — at most `2·LP`
//!    calibrations, first-fit onto at most `3m'` machines (Lemma 4);
//! 4. mirror the calendar onto a second bank (Lemma 9) and assign jobs
//!    with nonpreemptive EDF (Algorithm 2, Lemmas 8–10).
//!
//! Net guarantee (Theorem 12): a feasible **TISE** schedule on at most
//! `18m` machines with at most `12·C*` calibrations, where `C*` is the
//! optimal number of calibrations for the ISE instance on `m` machines.

use crate::edf::{assign_jobs, mirror};
use crate::error::SchedError;
use crate::lp::{check_interrupt, relax_and_solve, FractionalSolution};
use crate::rounding::{assign_machines, round_calibrations};
use ise_model::{Instance, Schedule};
use ise_simplex::{Basis, SolveOptions};

/// Lemma 2: an ISE schedule on `m` machines becomes a TISE schedule on
/// `3m` machines with at most `3×` the calibrations. Sets the LP machine
/// budget of this pipeline and of [`crate::lower_bound`].
pub(crate) const LEMMA2_FACTOR: usize = 3;

/// Algorithm 1's rounding threshold (Corollary 6): a calibration opens
/// once the accumulated fractional mass reaches `1/2`. Larger values void
/// the feasibility guarantee (ablation A3 calls [`round_calibrations`]
/// directly to show this).
const ROUNDING_THRESHOLD: f64 = 0.5;

/// Everything the pipeline produced, for experiments and tests.
#[derive(Clone, Debug)]
pub struct LongWindowOutcome {
    /// The feasible TISE schedule.
    pub schedule: Schedule,
    /// The verified fractional LP solution.
    pub fractional: FractionalSolution,
    /// Calibrations after rounding, before mirroring.
    pub rounded_calibrations: usize,
    /// Machines used by one bank (the mirror doubles this).
    pub bank_machines: usize,
}

/// Run the pipeline on a long-window instance. The machine budget for the
/// LP is `3 × instance.machines()` per Lemma 2. `lp` configures the LP
/// solve; its `interrupt` is the pipeline's cancellation hook, polled
/// before the LP build, between the LP and rounding, and inside the
/// simplex pivot loop ([`crate::solve`] sets it from
/// [`crate::SolverOptions::cancel`]). `warm` is an optional
/// warm-start basis from a previous LP solve of the same jobs and
/// calibration length (e.g. at a different machine budget); an
/// incompatible basis is silently ignored.
pub fn schedule_long_windows(
    instance: &Instance,
    lp: &SolveOptions,
    warm: Option<&Basis>,
) -> Result<LongWindowOutcome, SchedError> {
    if !instance.all_long() {
        return Err(SchedError::Precondition {
            requirement: "long-window pipeline requires every job window >= 2T",
        });
    }
    let calib_len = instance.calib_len();
    let m_prime = LEMMA2_FACTOR * instance.machines();

    let fractional = relax_and_solve(instance.jobs(), calib_len, m_prime, lp, warm)?;
    check_interrupt(lp)?;
    let round_span = ise_obs::Span::enter("long.round");
    let times = round_calibrations(&fractional.points, &fractional.c, ROUNDING_THRESHOLD);
    let bank = assign_machines(&times, calib_len);
    let bank_machines = bank.iter().map(|c| c.machine + 1).max().unwrap_or(0);
    drop(round_span);

    let full = {
        let _span = ise_obs::Span::enter("long.mirror");
        mirror(&bank, bank_machines)
    };
    let edf_span = ise_obs::Span::enter("long.edf");
    let outcome = assign_jobs(instance.jobs(), &full, calib_len);
    drop(edf_span);
    if !outcome.unscheduled.is_empty() {
        // Lemmas 8–10 guarantee this cannot happen; kept as a safety check
        // so a defect upstream surfaces as an error, not a partial schedule.
        return Err(SchedError::Internal {
            stage: "long-window EDF left jobs unscheduled",
            jobs: outcome.unscheduled,
        });
    }
    let mut schedule = Schedule::new();
    schedule.calibrations = outcome.calibrations;
    schedule.placements = outcome.placements;
    Ok(LongWindowOutcome {
        schedule,
        fractional,
        rounded_calibrations: times.len(),
        bank_machines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_model::{validate, validate_tise, Instance};

    fn run(inst: &Instance) -> LongWindowOutcome {
        schedule_long_windows(inst, &SolveOptions::default(), None).unwrap()
    }

    #[test]
    fn single_job() {
        let inst = Instance::new([(0, 40, 5)], 1, 10).unwrap();
        let out = run(&inst);
        validate_tise(&inst, &out.schedule).unwrap();
        // LP value 1, rounded to 2, mirrored to 4 calibrations at most.
        assert!(out.schedule.num_calibrations() <= 4);
        assert!(out.schedule.machines_used() <= 18);
    }

    #[test]
    fn respects_theorem12_budgets() {
        let inst = Instance::new(
            [
                (0, 40, 7),
                (0, 45, 6),
                (5, 50, 7),
                (10, 60, 9),
                (12, 55, 3),
                (30, 90, 10),
            ],
            1,
            10,
        )
        .unwrap();
        let out = run(&inst);
        validate(&inst, &out.schedule).unwrap();
        validate_tise(&inst, &out.schedule).unwrap();
        // Theorem 12: <= 18m machines and <= 4 * ceil(LP) calibrations
        // (12 C* in terms of the optimum; 4·LP is the sharper internal
        // bound: rounding doubles, mirroring doubles again).
        assert!(out.schedule.machines_used() <= 18 * inst.machines());
        let budget = (4.0 * out.fractional.objective).ceil() as usize + 1;
        assert!(
            out.schedule.num_calibrations() <= budget,
            "calibrations {} > 4·LP {budget}",
            out.schedule.num_calibrations()
        );
    }

    #[test]
    fn rejects_short_jobs() {
        let inst = Instance::new([(0, 15, 4)], 1, 10).unwrap();
        assert!(matches!(
            schedule_long_windows(&inst, &SolveOptions::default(), None),
            Err(SchedError::Precondition { .. })
        ));
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new([], 1, 10).unwrap();
        let out = run(&inst);
        assert_eq!(out.schedule.num_calibrations(), 0);
    }

    #[test]
    fn heavy_load_stays_within_machine_budget() {
        // 12 jobs of size 10 sharing window [0, 40): m=2 is fractionally
        // feasible (needs 3 calibration-slots of depth <= 6 = 3m').
        let inst = Instance::new(
            (0..12).map(|_| (0i64, 40i64, 10i64)).collect::<Vec<_>>(),
            2,
            10,
        )
        .unwrap();
        let out = run(&inst);
        validate_tise(&inst, &out.schedule).unwrap();
        assert!(out.schedule.machines_used() <= 36);
        assert!(out.bank_machines <= 9 * inst.machines());
    }

    #[test]
    fn infeasible_budget_is_certified() {
        // 40 size-10 jobs in [0, 20) on one machine: infeasible even
        // fractionally on 3 machines.
        let inst = Instance::new(
            (0..40).map(|_| (0i64, 20i64, 10i64)).collect::<Vec<_>>(),
            1,
            10,
        )
        .unwrap();
        assert!(matches!(
            schedule_long_windows(&inst, &SolveOptions::default(), None),
            Err(SchedError::Infeasible { .. })
        ));
    }

    #[test]
    fn separated_bursts_get_separate_calibrations() {
        let inst = Instance::new([(0, 30, 5), (100, 130, 5)], 1, 10).unwrap();
        let out = run(&inst);
        validate_tise(&inst, &out.schedule).unwrap();
        // LP = 2 (bursts cannot share), so at most 8 calibrations; at least
        // 2 distinct times must appear.
        let mut starts: Vec<_> = out.schedule.calibrations.iter().map(|c| c.start).collect();
        starts.sort_unstable();
        starts.dedup();
        assert!(starts.len() >= 2);
    }

    #[test]
    fn lu_update_time_is_recorded_inside_its_phase() {
        use ise_workloads::{long_only, WorkloadParams};
        use std::collections::HashMap;
        let params = WorkloadParams {
            jobs: 40,
            machines: 3,
            calib_len: 10,
            horizon: 400,
        };
        let inst = long_only(&params, 7);
        let trace = ise_obs::Trace::new(1 << 14);
        {
            let _guard = trace.install();
            // The default LP options run the LU kernel.
            schedule_long_windows(&inst, &SolveOptions::default(), None).unwrap();
        }
        assert_eq!(trace.dropped(), 0);
        let records = trace.drain();
        let name_of: HashMap<u32, &str> = records.iter().map(|r| (r.id, r.name)).collect();

        let updates: Vec<_> = records
            .iter()
            .filter(|r| r.name == "simplex.lu_update")
            .collect();
        assert!(!updates.is_empty(), "no Forrest–Tomlin update was timed");
        for u in updates {
            let parent = name_of.get(&u.parent).copied();
            assert!(
                matches!(parent, Some("simplex.phase1" | "simplex.phase2")),
                "simplex.lu_update recorded under {parent:?}, not a phase"
            );
        }

        // Per-span (sum of direct children, child count).
        let mut children: HashMap<u32, (u64, u64)> = HashMap::new();
        for r in records.iter().filter(|r| r.parent != 0) {
            let entry = children.entry(r.parent).or_default();
            entry.0 += r.dur_us;
            entry.1 += 1;
        }
        for r in &records {
            if let Some(&(sum, count)) = children.get(&r.id) {
                // Durations are truncated to whole µs: allow 1 µs per child.
                assert!(
                    sum <= r.dur_us + count,
                    "children of {} sum to {sum} µs, past its {} µs",
                    r.name,
                    r.dur_us
                );
            }
        }
    }

    #[test]
    fn fired_interrupt_cancels_before_the_lp_is_built() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        /// Always fired; counts polls so the test sees where the run stopped.
        #[derive(Default)]
        struct Fired(AtomicUsize);
        impl ise_simplex::Interrupt for Fired {
            fn interrupted(&self) -> bool {
                self.0.fetch_add(1, Ordering::Relaxed);
                true
            }
        }
        let inst = Instance::new([(0, 40, 7), (5, 50, 6)], 1, 10).unwrap();
        let fired = Arc::new(Fired::default());
        let opts = SolveOptions {
            interrupt: Some(ise_simplex::InterruptHandle::new(fired.clone())),
            ..SolveOptions::default()
        };
        assert!(matches!(
            schedule_long_windows(&inst, &opts, None),
            Err(SchedError::Cancelled)
        ));
        // One poll only: the one ahead of the LP build.
        assert_eq!(fired.0.load(Ordering::Relaxed), 1);
    }
}
