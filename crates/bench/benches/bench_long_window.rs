//! Criterion bench: the long-window pipeline (Theorem 12) end to end,
//! plus its LP-solve stage in isolation — the T12 experiment's runtime
//! counterpart.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ise_sched::long_window::{schedule_long_windows, LongWindowOptions};
use ise_sched::lp::relax_and_solve;
use ise_workloads::{long_only, WorkloadParams};

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("long_window_pipeline");
    group.sample_size(10);
    for &n in &[5usize, 10, 20] {
        let params = WorkloadParams {
            jobs: n,
            machines: 2,
            calib_len: 10,
            horizon: 25 * n as i64,
        };
        let inst = long_only(&params, 7);
        group.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| schedule_long_windows(inst, &LongWindowOptions::default(), None).unwrap())
        });
    }
    group.finish();
}

fn bench_lp_only(c: &mut Criterion) {
    let mut group = c.benchmark_group("tise_lp_solve");
    group.sample_size(10);
    for &n in &[5usize, 10, 20] {
        let params = WorkloadParams {
            jobs: n,
            machines: 2,
            calib_len: 10,
            horizon: 25 * n as i64,
        };
        let inst = long_only(&params, 7);
        group.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| {
                relax_and_solve(
                    inst.jobs(),
                    inst.calib_len(),
                    3 * inst.machines(),
                    &Default::default(),
                    None,
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline, bench_lp_only);
criterion_main!(benches);
