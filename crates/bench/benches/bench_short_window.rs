//! Criterion bench: the short-window pipeline (Theorem 20) with the exact
//! and greedy MM black boxes — the T20 experiment's runtime counterpart.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ise_mm::{ExactMm, GreedyMm};
use ise_sched::short_window::{schedule_short_windows_with, CrossingPolicy};
use ise_workloads::{short_only, WorkloadParams};

fn bench_exact_backend(c: &mut Criterion) {
    let mut group = c.benchmark_group("short_window_exact_mm");
    for &n in &[8usize, 16, 32] {
        let params = WorkloadParams {
            jobs: n,
            machines: 2,
            calib_len: 10,
            horizon: 25 * n as i64,
        };
        let inst = short_only(&params, 11);
        group.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| {
                schedule_short_windows_with(
                    inst,
                    &ExactMm::default(),
                    CrossingPolicy::ExtraMachines,
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_greedy_backend(c: &mut Criterion) {
    let mut group = c.benchmark_group("short_window_greedy_mm");
    for &n in &[8usize, 16, 32] {
        let params = WorkloadParams {
            jobs: n,
            machines: 2,
            calib_len: 10,
            horizon: 25 * n as i64,
        };
        let inst = short_only(&params, 11);
        group.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| {
                schedule_short_windows_with(inst, &GreedyMm, CrossingPolicy::ExtraMachines).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_exact_backend, bench_greedy_backend);
criterion_main!(benches);
