//! Property tests for the machine-minimization crate: every algorithm
//! produces valid schedules and the lower-bound lattice is ordered.

use ise_mm::{
    demand_lower_bound, preemptive_lower_bound, validate_mm, ExactMm, GreedyMm, IntervalMm,
    LpRoundMm, MachineMinimizer, Portfolio, UnitMm,
};
use ise_model::Job;
use proptest::prelude::*;

/// Strategy: a set of well-formed jobs with bounded sizes.
fn arb_jobs(max_jobs: usize) -> impl Strategy<Value = Vec<Job>> {
    let job = (0i64..20, 1i64..7, 0i64..12);
    proptest::collection::vec(job, 1..=max_jobs).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (r, p, slack))| Job::new(i as u32, r, r + p + slack, p))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// Every total minimizer returns a schedule the validator accepts, and
    /// never uses fewer machines than the exact optimum.
    #[test]
    fn minimizers_are_valid_and_ordered(jobs in arb_jobs(7)) {
        let exact = ExactMm::default().minimize(&jobs).expect("small search");
        validate_mm(&jobs, &exact).expect("exact valid");
        for minimizer in [
            &GreedyMm as &dyn MachineMinimizer,
            &LpRoundMm::default(),
            &Portfolio::standard(),
        ] {
            let s = minimizer.minimize(&jobs).expect("total algorithm");
            validate_mm(&jobs, &s).expect("valid");
            prop_assert!(
                s.machines >= exact.machines,
                "{} used {} machines, exact needs {}",
                minimizer.name(), s.machines, exact.machines
            );
        }
    }

    /// Lower-bound lattice: demand <= preemptive <= exact machines.
    #[test]
    fn lower_bound_lattice(jobs in arb_jobs(7)) {
        let d = demand_lower_bound(&jobs);
        let p = preemptive_lower_bound(&jobs);
        let e = ExactMm::default().minimize(&jobs).expect("small").machines;
        prop_assert!(d <= p, "demand {d} > preemptive {p}");
        prop_assert!(p <= e, "preemptive {p} > exact {e}");
    }

    /// Unit-job EDF is exactly optimal whenever it applies.
    #[test]
    fn unit_edf_is_optimal(raw in proptest::collection::vec((0i64..15, 1i64..8), 1..7)) {
        let jobs: Vec<Job> = raw
            .into_iter()
            .enumerate()
            .map(|(i, (r, w))| Job::new(i as u32, r, r + w, 1))
            .collect();
        let unit = UnitMm.minimize(&jobs).expect("unit jobs");
        let exact = ExactMm::default().minimize(&jobs).expect("small");
        validate_mm(&jobs, &unit).expect("valid");
        prop_assert_eq!(unit.machines, exact.machines);
    }

    /// Interval MM equals the exact optimum on zero-slack jobs.
    #[test]
    fn interval_sweep_is_optimal(raw in proptest::collection::vec((0i64..20, 1i64..6), 1..7)) {
        let jobs: Vec<Job> = raw
            .into_iter()
            .enumerate()
            .map(|(i, (r, p))| Job::new(i as u32, r, r + p, p))
            .collect();
        let sweep = IntervalMm.minimize(&jobs).expect("zero slack");
        let exact = ExactMm::default().minimize(&jobs).expect("small");
        validate_mm(&jobs, &sweep).expect("valid");
        prop_assert_eq!(sweep.machines, exact.machines);
    }
}
