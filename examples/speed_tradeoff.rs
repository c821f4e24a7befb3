//! Theorem 14: trading machine augmentation for speed augmentation.
//!
//! Long-window jobs are first scheduled with the Theorem 12 pipeline
//! (`O(1)`-machines, speed 1), then the Lemma 13 transformation folds the
//! whole machine bank into a *single* fast machine with no extra
//! calibrations — useful when machines are scarce but the testing device
//! can be run faster than real time.
//!
//! ```sh
//! cargo run --release --example speed_tradeoff [-- jobs seed]
//! ```

use ise::model::{validate, validate_tise, ScheduleStats};
use ise::sched::long_window::schedule_long_windows;
use ise::sched::speed_transform::trade_machines_for_speed;
use ise::simplex::SolveOptions;
use ise::workloads::{long_only, WorkloadParams};

fn main() {
    let mut args = std::env::args().skip(1);
    let jobs: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(12);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(7);

    let params = WorkloadParams {
        jobs,
        machines: 1,
        calib_len: 10,
        horizon: 150,
    };
    let instance = long_only(&params, seed);
    println!("{} long-window jobs, 1 machine, T = 10", instance.len());

    // Stage 1: Theorem 12 — O(1) machines, speed 1.
    let long = schedule_long_windows(&instance, &SolveOptions::default(), None)
        .expect("long-window pipeline");
    validate_tise(&instance, &long.schedule).expect("TISE-feasible");
    let s1 = ScheduleStats::compute(&instance, &long.schedule);
    println!("\nTheorem 12 schedule (speed 1):");
    println!("  machines     : {}", s1.machines);
    println!("  calibrations : {}", s1.calibrations);
    println!("  LP bound     : {:.2}", long.fractional.objective);

    // Stage 2: Lemma 13 — fold every machine into one speed-2c machine.
    let c = s1.machines.max(1);
    let fast =
        trade_machines_for_speed(&instance, &long.schedule, c).expect("speed transformation");
    validate(&instance, &fast.schedule).expect("speed-augmented schedule is feasible");
    let s2 = ScheduleStats::compute(&instance, &fast.schedule);
    println!("\nTheorem 14 schedule (machines folded, c = {c}):");
    println!("  machines     : {}", s2.machines);
    println!("  speed        : {}x", fast.schedule.speed);
    println!(
        "  calibrations : {} (never more than stage 1's {})",
        s2.calibrations, s1.calibrations
    );

    assert!(s2.calibrations <= s1.calibrations);
    assert_eq!(s2.machines, 1);
    println!("\nSame jobs, one machine, no extra calibrations — paid for with speed.");
}
