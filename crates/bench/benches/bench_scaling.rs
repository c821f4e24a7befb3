//! Criterion bench: per-stage scaling — Lemma 3 point generation,
//! Algorithm 1 rounding, Algorithm 2 EDF, and MM lower bounds — the S1
//! experiment's runtime counterpart.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ise_mm::preemptive_lower_bound;
use ise_sched::edf::{assign_jobs, mirror};
use ise_sched::lp::relax_and_solve;
use ise_sched::points::calibration_points;
use ise_sched::rounding::{assign_machines, round_calibrations};
use ise_workloads::{long_only, short_only, WorkloadParams};

fn bench_points(c: &mut Criterion) {
    let mut group = c.benchmark_group("lemma3_points");
    for &n in &[20usize, 40, 80] {
        let params = WorkloadParams {
            jobs: n,
            machines: 2,
            calib_len: 10,
            horizon: 25 * n as i64,
        };
        let inst = long_only(&params, 3);
        group.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| calibration_points(inst.jobs(), inst.calib_len()))
        });
    }
    group.finish();
}

fn bench_round_and_edf(c: &mut Criterion) {
    let mut group = c.benchmark_group("round_and_edf");
    group.sample_size(10);
    for &n in &[10usize, 20] {
        let params = WorkloadParams {
            jobs: n,
            machines: 2,
            calib_len: 10,
            horizon: 25 * n as i64,
        };
        let inst = long_only(&params, 3);
        let sol = relax_and_solve(
            inst.jobs(),
            inst.calib_len(),
            3 * inst.machines(),
            &Default::default(),
            None,
        )
        .expect("feasible");
        group.bench_with_input(BenchmarkId::new("round", n), &sol, |b, sol| {
            b.iter(|| round_calibrations(&sol.points, &sol.c, 0.5))
        });
        let times = round_calibrations(&sol.points, &sol.c, 0.5);
        let bank = assign_machines(&times, inst.calib_len());
        let bank_machines = bank.iter().map(|c| c.machine + 1).max().unwrap_or(0);
        let full = mirror(&bank, bank_machines);
        group.bench_with_input(BenchmarkId::new("edf", n), &full, |b, full| {
            b.iter(|| assign_jobs(inst.jobs(), full, inst.calib_len()))
        });
    }
    group.finish();
}

fn bench_mm_lower_bound(c: &mut Criterion) {
    let mut group = c.benchmark_group("mm_preemptive_lb");
    for &n in &[10usize, 20, 40] {
        let params = WorkloadParams {
            jobs: n,
            machines: 2,
            calib_len: 10,
            horizon: 10 * n as i64,
        };
        let inst = short_only(&params, 3);
        group.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| preemptive_lower_bound(inst.jobs()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_points,
    bench_round_and_edf,
    bench_mm_lower_bound
);
criterion_main!(benches);
