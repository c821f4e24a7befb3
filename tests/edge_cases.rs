//! Edge-case battery: boundary values of every model parameter pushed
//! through the full solver and its satellites.

use ise::model::{validate, Instance};
use ise::sched::baseline::lazy_binning;
use ise::sched::exact::{optimal, ExactOptions};
use ise::sched::lower_bound::lower_bound;
use ise::sched::{components, solve, solve_decomposed, SchedError, SolverOptions};
use ise::workloads::partition_hard;

fn opts() -> SolverOptions {
    SolverOptions {
        trim_empty_calibrations: true,
        ..SolverOptions::default()
    }
}

/// T = 1 forces unit jobs and per-tick calibrations.
#[test]
fn calibration_length_one() {
    let inst = Instance::new([(0, 3, 1), (1, 4, 1), (2, 5, 1)], 1, 1).unwrap();
    let out = solve(&inst, &opts()).unwrap();
    validate(&inst, &out.schedule).unwrap();
    // Each calibration holds exactly one unit job.
    assert_eq!(out.schedule.num_calibrations(), 3);
    let exact = optimal(&inst, &ExactOptions::default()).unwrap().unwrap();
    assert_eq!(exact.calibrations, 3);
}

/// Jobs with p = T fill a calibration exactly; windows exactly 2T sit on
/// the long/short boundary (long by Definition 1).
#[test]
fn full_length_jobs_on_the_boundary() {
    let inst = Instance::new([(0, 20, 10), (25, 45, 10)], 1, 10).unwrap();
    assert!(inst.all_long());
    let out = solve(&inst, &opts()).unwrap();
    validate(&inst, &out.schedule).unwrap();
    assert_eq!(out.long_jobs, 2);
    // Two full-size jobs with disjoint-ish windows: two calibrations.
    assert_eq!(out.schedule.num_calibrations(), 2);
}

/// Windows of exactly 2T - 1 are short.
#[test]
fn just_below_the_boundary_is_short() {
    let inst = Instance::new([(0, 19, 5)], 1, 10).unwrap();
    assert!(inst.all_short());
    let out = solve(&inst, &opts()).unwrap();
    validate(&inst, &out.schedule).unwrap();
    assert_eq!(out.short_jobs, 1);
}

/// Large absolute times (anchored far from the origin) survive the whole
/// pipeline — i64 headroom and div_euclid behaviour.
#[test]
fn far_future_and_far_past_anchors() {
    for origin in [-1_000_000_007i64, 1_000_000_007] {
        let inst = Instance::new(
            [
                (origin, origin + 40, 7),
                (origin + 2, origin + 45, 6),
                (origin, origin + 12, 6),
            ],
            1,
            10,
        )
        .unwrap();
        let out = solve(&inst, &opts()).unwrap_or_else(|e| panic!("origin {origin}: {e}"));
        validate(&inst, &out.schedule).unwrap();
    }
}

/// Single-job instances across the window spectrum.
#[test]
fn singletons() {
    for (r, d, p) in [
        (0i64, 10i64, 10i64),
        (5, 16, 3),
        (0, 200, 1),
        (-30, -10, 10),
    ] {
        let inst = Instance::new([(r, d, p)], 1, 10).unwrap();
        let out = solve(&inst, &opts()).unwrap();
        validate(&inst, &out.schedule).unwrap();
        assert_eq!(out.schedule.num_calibrations(), 1, "({r},{d},{p})");
    }
}

/// Partition-style instances: feasible perfect packings are found (the
/// generator guarantees Σp = mT with all windows [0, T)).
#[test]
fn partition_hard_instances_pack() {
    for seed in 0..5u64 {
        let inst = partition_hard(6, 2, 10, seed);
        // These are all-short instances; the pipeline may or may not find a
        // schedule within the machine augmentation it allows itself — but
        // whatever it returns must be valid, and the exact solver (given
        // the true m) must find the perfect packing.
        let exact = optimal(
            &inst,
            &ExactOptions {
                max_calibrations: 4,
                ..ExactOptions::default()
            },
        )
        .unwrap();
        let exact = exact.unwrap_or_else(|| panic!("seed {seed}: packing must exist"));
        assert_eq!(
            exact.calibrations, 2,
            "seed {seed}: perfect packing uses m calibrations"
        );
        let out = solve(&inst, &opts()).unwrap();
        validate(&inst, &out.schedule).unwrap();
    }
}

/// Many identical jobs: symmetry breaking in the exact MM search keeps the
/// short-window pipeline fast.
#[test]
fn identical_job_swarm() {
    let inst = Instance::new(
        (0..20).map(|_| (0i64, 19i64, 3i64)).collect::<Vec<_>>(),
        2,
        10,
    )
    .unwrap();
    let out = solve(&inst, &opts()).unwrap();
    validate(&inst, &out.schedule).unwrap();
    let bound = lower_bound(&inst);
    assert!(out.schedule.num_calibrations() as u64 >= bound.best);
}

/// Decomposition of an instance that is one giant component equals the
/// plain solve; of fully separated singletons, it reuses one machine.
#[test]
fn decomposition_extremes() {
    let dense = Instance::new([(0, 30, 5), (5, 35, 5), (10, 40, 5)], 1, 10).unwrap();
    assert_eq!(components(&dense).len(), 1);
    let sparse = Instance::new(
        (0..5)
            .map(|i| (1000 * i, 1000 * i + 25, 5))
            .collect::<Vec<_>>(),
        1,
        10,
    )
    .unwrap();
    assert_eq!(components(&sparse).len(), 5);
    let out = solve_decomposed(&sparse, &opts()).unwrap();
    validate(&sparse, &out.schedule).unwrap();
    assert_eq!(out.schedule.num_calibrations(), 5);
    assert_eq!(
        out.schedule.machines_used(),
        1,
        "singleton components share machine 0"
    );
}

/// Error displays are informative (they reach CLI users verbatim).
#[test]
fn error_messages_name_the_problem() {
    let tight = Instance::new(
        (0..40).map(|_| (0i64, 20i64, 10i64)).collect::<Vec<_>>(),
        1,
        10,
    )
    .unwrap();
    let err = solve(&tight, &opts()).unwrap_err();
    let text = err.to_string();
    assert!(text.contains("infeasible"), "{text}");
    assert!(matches!(err, SchedError::Infeasible { .. }));

    let non_unit = Instance::new([(0, 30, 3)], 1, 10).unwrap();
    let err = lazy_binning(&non_unit).unwrap_err();
    assert!(err.to_string().contains("unit"), "{err}");
}

/// An instance whose every job shares one release time (zero spread).
#[test]
fn common_release_burst() {
    let inst = Instance::new(
        (0..8).map(|_| (0i64, 60i64, 6i64)).collect::<Vec<_>>(),
        2,
        10,
    )
    .unwrap();
    let out = solve(&inst, &opts()).unwrap();
    validate(&inst, &out.schedule).unwrap();
    let bound = lower_bound(&inst);
    // 48 work / 10 => at least 5 calibrations.
    assert!(bound.work >= 5);
    assert!(out.schedule.num_calibrations() >= 5);
}
