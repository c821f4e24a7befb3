//! Calibration rounding: Algorithm 1 and (for verification) Algorithm 3.
//!
//! **Algorithm 1** scans the fractional calibrations `C_t` in time order,
//! keeping a running total; each time the total reaches the next multiple
//! of `1/2`, it emits one integer calibration at the current point. The
//! result uses at most `2·⌈LP⌉` calibrations, and within any length-`T`
//! window at most `2(m' + 1/2) <= 3m'` calibrations start (Lemma 4), so
//! first-fit machine assignment needs at most `3m'` machines.
//!
//! **Algorithm 3** is the augmented rounding used only in the paper's proof
//! of Lemma 5 / Corollary 6: alongside the carried calibration fraction it
//! carries per-job fractions `y_j` and writes `2·y_j` of each TISE-eligible
//! job into every emitted calibration. We implement it anyway — executing
//! the proof — because its invariants (`y_j <= carryover`,
//! `Σ y_j p_j <= carryover · T`, per-job totals `>= 1`, per-calibration
//! work `<= T`) make sharp machine-checkable tests that the rounded
//! calendar really supports a fractional assignment.

use crate::lp::FractionalSolution;
use ise_model::{Calibration, Dur, Job, Time};

/// Tolerance for accumulating fractional calibrations. Emission uses
/// `carryover >= threshold - EPS` so that an LP value of exactly `k/2`
/// emits `k` calibrations despite float noise.
const EPS: f64 = 1e-7;

/// Round fractional calibrations to integer calibration times
/// (Algorithm 1). `threshold` is the paper's `1/2`; other values are for
/// the ablation experiment (larger thresholds emit fewer calibrations but
/// void the feasibility proof). Returns times with multiplicity, sorted.
///
/// ```
/// use ise_sched::rounding::round_calibrations;
/// use ise_model::Time;
/// // Figure 2 of the paper: the cumulative mass crosses multiples of 1/2
/// // after the 2nd point and (three times) around the 4th.
/// let points = [Time(0), Time(4), Time(9), Time(15)];
/// let out = round_calibrations(&points, &[0.3, 0.4, 0.3, 1.2], 0.5);
/// assert_eq!(out, vec![Time(4), Time(9), Time(15), Time(15)]);
/// ```
pub fn round_calibrations(points: &[Time], c: &[f64], threshold: f64) -> Vec<Time> {
    assert_eq!(points.len(), c.len());
    assert!(threshold > 0.0);
    let mut out = Vec::new();
    let mut carryover = 0.0f64;
    // Emission gate. The `fault-inject` build flips the EPS guard to the
    // wrong side — an off-by-one that under-emits whenever the cumulative
    // mass lands exactly on a multiple of the threshold. It exists solely
    // so the `ise-conform` harness can prove it detects injected bugs.
    #[cfg(not(feature = "fault-inject"))]
    let gate = threshold - EPS;
    #[cfg(feature = "fault-inject")]
    let gate = threshold + EPS;
    for (&t, &ct) in points.iter().zip(c) {
        debug_assert!(ct >= -EPS, "negative fractional calibration {ct}");
        carryover += ct.max(0.0);
        while carryover >= gate {
            out.push(t);
            carryover -= threshold;
        }
    }
    out
}

/// Assign rounded calibration times to machines first-fit: each calibration
/// goes to the lowest-indexed machine whose previous calibration has ended.
/// First-fit never uses more machines than the round-robin assignment the
/// paper analyzes, so Lemma 4's `3m'` bound applies.
pub fn assign_machines(times: &[Time], calib_len: Dur) -> Vec<Calibration> {
    let mut machine_free: Vec<Time> = Vec::new();
    let mut out = Vec::with_capacity(times.len());
    debug_assert!(
        times.windows(2).all(|w| w[0] <= w[1]),
        "times must be sorted"
    );
    for &t in times {
        let machine = match machine_free.iter().position(|&f| f <= t) {
            Some(m) => m,
            None => {
                machine_free.push(Time(i64::MIN));
                machine_free.len() - 1
            }
        };
        machine_free[machine] = t + calib_len;
        out.push(Calibration { start: t, machine });
    }
    out
}

/// Outcome of the augmented rounding (Algorithm 3): an integer calibration
/// schedule plus an explicit *fractional* job assignment witnessing that a
/// preemptive schedule exists on the rounded calendar.
#[derive(Clone, Debug)]
pub struct AugmentedOutcome {
    /// Emitted calibration times, in order.
    pub calibrations: Vec<Time>,
    /// `assignment[j]` = `(calibration index, fraction)` pairs.
    pub assignment: Vec<Vec<(usize, f64)>>,
    /// Per-job total assigned fraction (Corollary 6 says `>= 1`).
    pub job_totals: Vec<f64>,
    /// Per-calibration assigned work (Corollary 6 says `<= T`).
    pub calibration_work: Vec<f64>,
    /// Largest `y_j - carryover` gap observed (Lemma 5 says `<= 0`).
    pub max_y_minus_carryover: f64,
    /// Largest `Σ y_j p_j - carryover·T` gap observed (Lemma 5: `<= 0`).
    pub max_work_minus_capacity: f64,
}

/// Run Algorithm 3 on a fractional LP solution. Faithful to the paper's
/// pseudocode, including the over-scheduling factor of 2 on delayed job
/// fractions.
pub fn augmented_round(jobs: &[Job], sol: &FractionalSolution, calib_len: Dur) -> AugmentedOutcome {
    let n = jobs.len();
    // Dense X view: x[j][point index].
    let mut x: Vec<Vec<f64>> = vec![vec![0.0; sol.points.len()]; n];
    for (j, pairs) in sol.x.iter().enumerate() {
        for &(pi, f) in pairs {
            x[j][pi] = f;
        }
    }
    let mut carryover = 0.0f64;
    let mut y = vec![0.0f64; n];
    let mut calibrations: Vec<Time> = Vec::new();
    let mut assignment: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    let mut calibration_work: Vec<f64> = Vec::new();
    let mut max_y_gap = 0.0f64;
    let mut max_work_gap = 0.0f64;

    // A job is *pending* while its TISE-feasible point range has not ended;
    // Lemma 5's invariants are about pending jobs — once a job's window
    // passes, its residual `y_j` is discarded mass (Figure 3), covered by
    // the factor-2 over-scheduling at its last reset (Corollary 6).
    let last_feasible: Vec<Option<usize>> = jobs
        .iter()
        .map(|job| {
            (0..sol.points.len())
                .rev()
                .find(|&pi| job.tise_admits(sol.points[pi], calib_len))
        })
        .collect();
    let observe = |pi: usize, y: &[f64], carryover: f64, max_y: &mut f64, max_w: &mut f64| {
        let mut work = 0.0;
        for (j, &yj) in y.iter().enumerate() {
            if last_feasible[j].is_some_and(|last| last >= pi) {
                *max_y = max_y.max(yj - carryover);
                work += yj * jobs[j].proc.ticks() as f64;
            }
        }
        *max_w = max_w.max(work - carryover * calib_len.ticks() as f64);
    };

    for (pi, &t) in sol.points.iter().enumerate() {
        let mut ct = sol.c[pi].max(0.0);
        while carryover + ct >= 0.5 - EPS {
            let idx = calibrations.len();
            calibrations.push(t);
            calibration_work.push(0.0);
            // Take exactly the part of C_t that tops `carryover` up to 1/2
            // (the pseudocode's `carryover += frac·C_t`, folded into the
            // reset below since it is immediately zeroed after scheduling).
            let frac = if ct > EPS {
                ((0.5 - carryover) / ct).clamp(0.0, 1.0)
            } else {
                0.0
            };
            for j in 0..n {
                y[j] += frac * x[j][pi];
                x[j][pi] -= frac * x[j][pi];
                if jobs[j].tise_admits(t, calib_len) {
                    // Schedule a 2·y_j fraction of job j in this calibration.
                    let amount = 2.0 * y[j];
                    if amount > 1e-12 {
                        assignment[j].push((idx, amount));
                        calibration_work[idx] += amount * jobs[j].proc.ticks() as f64;
                    }
                    y[j] = 0.0;
                }
            }
            carryover = 0.0;
            ct -= frac * ct;
        }
        carryover += ct;
        for j in 0..n {
            y[j] += x[j][pi];
        }
        observe(pi, &y, carryover, &mut max_y_gap, &mut max_work_gap);
    }

    let job_totals: Vec<f64> = assignment
        .iter()
        .map(|pairs| pairs.iter().map(|&(_, f)| f).sum())
        .collect();
    AugmentedOutcome {
        calibrations,
        assignment,
        job_totals,
        calibration_work,
        max_y_minus_carryover: max_y_gap,
        max_work_minus_capacity: max_work_gap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::relax_and_solve;
    use ise_simplex::SolveOptions;

    #[test]
    fn figure2_rounding_example() {
        // Figure 2 of the paper: fractional calibrations 0.3, 0.4, 0.3,
        // 1.2 at four points. Cumulative: 0.3, 0.7, 1.0, 2.2 — crossings of
        // 0.5 at the 2nd point, of 1.0 and 1.5 and 2.0 at the 4th point:
        // one calibration after the second fractional calibration and
        // (the paper says) "two full calibrations" at the fourth. With the
        // carryover formulation: after p2 total 0.7 => 1 emission
        // (carry 0.2); p3 carry 0.5 => 1 emission (carry 0.0); p4 carry 1.2
        // => 2 emissions.
        let points = vec![Time(0), Time(3), Time(6), Time(9)];
        let c = vec![0.3, 0.4, 0.3, 1.2];
        let out = round_calibrations(&points, &c, 0.5);
        assert_eq!(out, vec![Time(3), Time(6), Time(9), Time(9)]);
    }

    #[test]
    fn emits_two_per_unit_mass() {
        let points = vec![Time(0)];
        let c = vec![1.0];
        assert_eq!(round_calibrations(&points, &c, 0.5).len(), 2);
    }

    #[test]
    fn threshold_one_halves_output() {
        let points = vec![Time(0), Time(10)];
        let c = vec![1.0, 1.0];
        assert_eq!(round_calibrations(&points, &c, 1.0).len(), 2);
        assert_eq!(round_calibrations(&points, &c, 0.5).len(), 4);
    }

    #[test]
    fn small_mass_emits_nothing() {
        let points = vec![Time(0), Time(10)];
        let c = vec![0.2, 0.2];
        assert!(round_calibrations(&points, &c, 0.5).is_empty());
    }

    #[test]
    fn float_noise_at_exact_multiples() {
        // Ten times 0.05 sums to 0.5 with float error; one calibration must
        // still be emitted.
        let points: Vec<Time> = (0..10).map(Time).collect();
        let c = vec![0.05; 10];
        assert_eq!(round_calibrations(&points, &c, 0.5).len(), 1);
    }

    #[test]
    fn first_fit_machines_never_overlap() {
        let times = vec![Time(0), Time(0), Time(5), Time(10), Time(12)];
        let cals = assign_machines(&times, Dur(10));
        // Same-machine calibrations must be >= T apart.
        for a in &cals {
            for b in &cals {
                if a.machine == b.machine && a.start < b.start {
                    assert!(b.start - a.start >= Dur(10), "{a:?} vs {b:?}");
                }
            }
        }
        // t=0 twice and t=5 forces 3 machines; t=10 reuses machine 0.
        assert_eq!(cals.iter().map(|c| c.machine).max(), Some(2));
        assert_eq!(cals[3].machine, 0);
    }

    #[test]
    fn augmented_rounding_satisfies_lemma5_and_corollary6() {
        let jobs = vec![
            Job::new(0, 0, 40, 7),
            Job::new(1, 0, 40, 7),
            Job::new(2, 5, 45, 7),
            Job::new(3, 10, 55, 4),
        ];
        let calib_len = Dur(10);
        let sol = relax_and_solve(&jobs, calib_len, 3, &SolveOptions::default(), None).unwrap();
        let out = augmented_round(&jobs, &sol, calib_len);
        // Lemma 5 invariants held throughout.
        assert!(
            out.max_y_minus_carryover <= 1e-6,
            "y exceeded carryover: {}",
            out.max_y_minus_carryover
        );
        assert!(
            out.max_work_minus_capacity <= 1e-6,
            "work exceeded capacity: {}",
            out.max_work_minus_capacity
        );
        // Corollary 6: every job at least fully assigned, work fits.
        for (j, &total) in out.job_totals.iter().enumerate() {
            assert!(total >= 1.0 - 1e-6, "job {j} only {total} assigned");
        }
        for (i, &w) in out.calibration_work.iter().enumerate() {
            assert!(
                w <= calib_len.ticks() as f64 + 1e-6,
                "calibration {i} overfull: {w}"
            );
        }
        // Consistency with Algorithm 1.
        let plain = round_calibrations(&sol.points, &sol.c, 0.5);
        assert_eq!(plain, out.calibrations);
    }

    #[test]
    fn mismatched_lengths_panic() {
        let r = std::panic::catch_unwind(|| {
            round_calibrations(&[Time(0)], &[0.5, 0.5], 0.5);
        });
        assert!(r.is_err());
    }
}
