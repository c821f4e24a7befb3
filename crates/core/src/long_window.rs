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

/// Options for the long-window pipeline.
#[derive(Clone, Debug)]
pub struct LongWindowOptions {
    /// Rounding threshold; the paper's value is `1/2`. Values above `1/2`
    /// void the feasibility guarantee (ablation A3 demonstrates this).
    pub threshold: f64,
    /// Mirror the rounded calendar before EDF (Lemma 9). Disabling is for
    /// ablation A1 only: EDF may then leave jobs unscheduled.
    pub mirror: bool,
    /// LP solver options. Its `interrupt` is the pipeline's cancellation
    /// hook: polled before the LP build, between the LP and rounding, and
    /// inside the simplex pivot loop. [`crate::solve`] sets it from
    /// [`crate::SolverOptions::cancel`].
    pub lp: SolveOptions,
}

impl Default for LongWindowOptions {
    fn default() -> LongWindowOptions {
        LongWindowOptions {
            threshold: 0.5,
            mirror: true,
            lp: SolveOptions::default(),
        }
    }
}

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
/// LP is `3 × instance.machines()` per Lemma 2. `warm` is an optional
/// warm-start basis from a previous LP solve of the same jobs and
/// calibration length (e.g. at a different machine budget); an
/// incompatible basis is silently ignored.
pub fn schedule_long_windows(
    instance: &Instance,
    opts: &LongWindowOptions,
    warm: Option<&Basis>,
) -> Result<LongWindowOutcome, SchedError> {
    if !instance.all_long() {
        return Err(SchedError::Precondition {
            requirement: "long-window pipeline requires every job window >= 2T",
        });
    }
    let calib_len = instance.calib_len();
    let m_prime = LEMMA2_FACTOR * instance.machines();

    let fractional = relax_and_solve(instance.jobs(), calib_len, m_prime, &opts.lp, warm)?;
    check_interrupt(&opts.lp)?;
    let round_span = ise_obs::Span::enter("long.round");
    let times = round_calibrations(&fractional.points, &fractional.c, opts.threshold);
    let bank = assign_machines(&times, calib_len);
    let bank_machines = bank.iter().map(|c| c.machine + 1).max().unwrap_or(0);
    drop(round_span);

    let full = if opts.mirror {
        let _span = ise_obs::Span::enter("long.mirror");
        mirror(&bank, bank_machines)
    } else {
        bank
    };
    let edf_span = ise_obs::Span::enter("long.edf");
    let outcome = assign_jobs(instance.jobs(), &full, calib_len);
    drop(edf_span);
    if !outcome.unscheduled.is_empty() {
        // Lemmas 8–10 guarantee this cannot happen with the paper's
        // parameters; it can with ablation settings.
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
        schedule_long_windows(inst, &LongWindowOptions::default(), None).unwrap()
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
            schedule_long_windows(&inst, &LongWindowOptions::default(), None),
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
            schedule_long_windows(&inst, &LongWindowOptions::default(), None),
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
        let mut opts = LongWindowOptions::default();
        opts.lp.interrupt = Some(ise_simplex::InterruptHandle::new(fired.clone()));
        assert!(matches!(
            schedule_long_windows(&inst, &opts, None),
            Err(SchedError::Cancelled)
        ));
        // One poll only: the one ahead of the LP build.
        assert_eq!(fired.0.load(Ordering::Relaxed), 1);
    }
}
