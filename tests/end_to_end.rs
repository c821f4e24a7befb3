//! End-to-end integration tests: workload generators → combined solver →
//! exact validator → lower bounds, across every workload family.

use ise::mm::GreedyMm;
use ise::model::{validate, ScheduleStats};
use ise::sched::audit;
use ise::sched::lower_bound::lower_bound;
use ise::sched::short_window::{schedule_short_windows_with, CrossingPolicy};
use ise::sched::{solve, SolverOptions};
use ise::workloads::{
    boundary_adversarial, long_only, short_only, stockpile, uniform, unit_jobs, WorkloadParams,
};

fn options() -> SolverOptions {
    SolverOptions::default()
}

fn check(instance: &ise::model::Instance, label: &str) {
    let outcome = solve(instance, &options()).unwrap_or_else(|e| panic!("{label}: {e}"));
    validate(instance, &outcome.schedule).unwrap_or_else(|e| panic!("{label}: invalid: {e}"));
    let report = audit(instance, &outcome);
    assert!(
        report.all_ok(),
        "{label}: theorem-budget audit failed:\n{report}"
    );
    let bound = lower_bound(instance);
    let cals = outcome.schedule.num_calibrations() as u64;
    assert!(
        cals >= bound.best,
        "{label}: schedule with {cals} calibrations beats the certified bound {}",
        bound.best
    );
}

#[test]
fn uniform_workloads_solve_and_validate() {
    for seed in 0..5 {
        let params = WorkloadParams {
            jobs: 14,
            machines: 2,
            calib_len: 10,
            horizon: 120,
        };
        check(&uniform(&params, seed), &format!("uniform seed {seed}"));
    }
}

#[test]
fn long_only_workloads() {
    for seed in 0..5 {
        let params = WorkloadParams {
            jobs: 12,
            machines: 2,
            calib_len: 10,
            horizon: 100,
        };
        check(&long_only(&params, seed), &format!("long seed {seed}"));
    }
}

#[test]
fn short_only_workloads() {
    for seed in 0..5 {
        let params = WorkloadParams {
            jobs: 12,
            machines: 2,
            calib_len: 10,
            horizon: 100,
        };
        check(&short_only(&params, seed), &format!("short seed {seed}"));
    }
}

#[test]
fn unit_workloads() {
    for seed in 0..5 {
        let params = WorkloadParams {
            jobs: 15,
            machines: 2,
            calib_len: 8,
            horizon: 80,
        };
        check(&unit_jobs(&params, seed), &format!("unit seed {seed}"));
    }
}

#[test]
fn stockpile_workloads() {
    for seed in 0..3 {
        let params = WorkloadParams {
            jobs: 18,
            machines: 2,
            calib_len: 10,
            horizon: 300,
        };
        check(
            &stockpile(&params, 100, 6, seed),
            &format!("stockpile seed {seed}"),
        );
    }
}

#[test]
fn boundary_adversarial_workloads() {
    for seed in 0..5 {
        let params = WorkloadParams {
            jobs: 10,
            machines: 2,
            calib_len: 10,
            horizon: 200,
        };
        check(
            &boundary_adversarial(&params, seed),
            &format!("adversarial seed {seed}"),
        );
    }
}

#[test]
fn greedy_backend_also_validates() {
    for seed in 0..3 {
        let params = WorkloadParams {
            jobs: 14,
            machines: 2,
            calib_len: 10,
            horizon: 120,
        };
        let instance = uniform(&params, seed);
        let (_, short) = instance.partition_long_short();
        assert!(!short.is_empty(), "seed {seed}: no short jobs");
        let short = instance.restrict(short, instance.machines());
        let outcome = schedule_short_windows_with(&short, &GreedyMm, CrossingPolicy::ExtraMachines)
            .expect("greedy backend");
        validate(&short, &outcome.schedule).expect("valid with greedy MM");
    }
}

#[test]
fn trimming_preserves_validity_and_only_removes() {
    for seed in 0..3 {
        let params = WorkloadParams {
            jobs: 12,
            machines: 2,
            calib_len: 10,
            horizon: 120,
        };
        let instance = uniform(&params, seed);
        let plain = solve(&instance, &options()).expect("solve");
        let trimmed = solve(
            &instance,
            &SolverOptions {
                trim_empty_calibrations: true,
                ..options()
            },
        )
        .expect("solve trimmed");
        validate(&instance, &trimmed.schedule).expect("trimmed schedule valid");
        assert!(trimmed.schedule.num_calibrations() <= plain.schedule.num_calibrations());
        let stats = ScheduleStats::compute(&instance, &trimmed.schedule);
        assert_eq!(
            stats.empty_calibrations, 0,
            "trimming must remove all empty calibrations"
        );
    }
}

#[test]
fn utilization_is_sane() {
    let params = WorkloadParams {
        jobs: 16,
        machines: 2,
        calib_len: 10,
        horizon: 100,
    };
    let instance = uniform(&params, 99);
    let outcome = solve(&instance, &options()).expect("solve");
    let stats = ScheduleStats::compute(&instance, &outcome.schedule);
    assert!(stats.utilization > 0.0 && stats.utilization <= 1.0);
    assert_eq!(stats.total_work, instance.total_work().ticks());
}
