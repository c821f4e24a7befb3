//! Trading machines for speed (Lemma 13 / Theorem 14).
//!
//! Given a TISE schedule on `c·m` unit-speed machines, produce an ISE
//! schedule on `m` machines of speed `2c` with no more calibrations:
//!
//! * group the source machines into groups of `c`, one group per target
//!   machine;
//! * build each target machine's calibration sequence by walking time —
//!   if some source calibration covers the current instant, calibrate and
//!   jump `T`; otherwise jump to the next source calibration start. Every
//!   calibrated source instant is then calibrated on the target;
//! * map every source calibration to a length-`T/(2c)` slot of the target
//!   calibration whose first or second half it fully contains (Lemma 13
//!   proves exactly one such target exists and no slot is claimed twice);
//!   jobs keep their relative offsets, compressed by the `2c` speedup.
//!
//! Times in the output are refined by `time_scale = 2c` so all the `T/(2c)`
//! offsets stay integral; the validator checks the result exactly.

use crate::error::SchedError;
use ise_model::{Instance, Schedule, Time};

/// `a * b` or a [`SchedError::TimeOverflow`] verdict. The group size is
/// caller-chosen, so even a validated instance can overflow here — every
/// scaled quantity goes through these guards instead of raw arithmetic.
#[inline]
fn cmul(a: i64, b: i64, context: &'static str) -> Result<i64, SchedError> {
    a.checked_mul(b).ok_or(SchedError::TimeOverflow { context })
}

/// `a + b` or a [`SchedError::TimeOverflow`] verdict.
#[inline]
fn cadd(a: i64, b: i64, context: &'static str) -> Result<i64, SchedError> {
    a.checked_add(b).ok_or(SchedError::TimeOverflow { context })
}

/// Outcome of the machine→speed transformation.
#[derive(Clone, Debug)]
pub struct SpeedTransformOutcome {
    /// The speed-`2c` schedule on `ceil(source machines / c)` machines,
    /// with `time_scale = speed = 2c`.
    pub schedule: Schedule,
    /// Group size `c` used.
    pub group_size: usize,
}

/// Apply the transformation to a **TISE** schedule (`time_scale = speed =
/// 1`). `group_size` is the paper's `c`; Theorem 14 instantiates `c = 18`.
///
/// The input must be a valid TISE schedule — jobs are repositioned within
/// their calibrations, which is only sound under the TISE restriction.
pub fn trade_machines_for_speed(
    instance: &Instance,
    source: &Schedule,
    group_size: usize,
) -> Result<SpeedTransformOutcome, SchedError> {
    if group_size == 0 {
        return Err(SchedError::Precondition {
            requirement: "group size must be positive",
        });
    }
    if source.time_scale != 1 || source.speed != 1 {
        return Err(SchedError::Precondition {
            requirement: "speed transformation expects an unaugmented source schedule",
        });
    }
    let c = group_size as i64;
    let scale = cmul(2, c, "speed transform: refinement factor 2c")?;
    let t_len = instance.calib_len();
    // Reject up front any horizon the refinement cannot represent; the
    // per-value guards below catch everything this coarse check misses.
    t_len
        .try_scale(scale)
        .map_err(|_| SchedError::TimeOverflow {
            context: "speed transform: calibration length at scale 2c",
        })?;
    let half = cmul(t_len.ticks(), c, "speed transform: half-calibration T·c")?;
    let slot = t_len.ticks(); // T/(2c) in scaled units

    // Group source machines: sort ids, chunk into groups of `group_size`.
    let mut machine_ids: Vec<usize> = source
        .calibrations
        .iter()
        .map(|cal| cal.machine)
        .chain(source.placements.iter().map(|p| p.machine))
        .collect();
    machine_ids.sort_unstable();
    machine_ids.dedup();

    let mut out = Schedule::with_augmentation(scale, scale);
    for (group_idx, group) in machine_ids.chunks(group_size).enumerate() {
        transform_group(
            instance, source, group, group_idx, scale, half, slot, &mut out,
        )?;
    }
    debug_assert!(out.num_calibrations() <= source.num_calibrations());
    Ok(SpeedTransformOutcome {
        schedule: out,
        group_size,
    })
}

#[allow(clippy::too_many_arguments)]
fn transform_group(
    instance: &Instance,
    source: &Schedule,
    group: &[usize],
    target_machine: usize,
    scale: i64,
    half: i64,
    slot: i64,
    out: &mut Schedule,
) -> Result<(), SchedError> {
    let t_len = instance.calib_len();
    // Source calibrations of this group with the in-group machine index.
    let mut cals: Vec<(Time, usize)> = source
        .calibrations
        .iter()
        .filter_map(|cal| {
            group
                .iter()
                .position(|&m| m == cal.machine)
                .map(|i| (cal.start, i))
        })
        .collect();
    cals.sort_unstable();
    if cals.is_empty() {
        return Ok(());
    }
    let starts: Vec<Time> = cals.iter().map(|&(s, _)| s).collect();

    // Walk time to produce the target calibration sequence.
    let mut targets: Vec<Time> = Vec::new();
    let mut cur = starts[0];
    loop {
        // Does any source calibration cover instant `cur`?
        let idx = starts.partition_point(|&s| s <= cur);
        let covered = idx > 0
            && cur
                < starts[idx - 1]
                    .checked_add(t_len)
                    .map_err(|_| SchedError::TimeOverflow {
                        context: "speed transform: calibration end",
                    })?;
        if covered {
            targets.push(cur);
            cur = cur
                .checked_add(t_len)
                .map_err(|_| SchedError::TimeOverflow {
                    context: "speed transform: time walk",
                })?;
        } else {
            // Jump to the next source calibration start strictly after cur.
            match starts.get(idx) {
                Some(&s) => cur = s,
                None => break,
            }
        }
    }

    // Emit target calibrations in scaled units.
    for &t in &targets {
        let scaled = t.try_scale(scale).map_err(|_| SchedError::TimeOverflow {
            context: "speed transform: target calibration start at scale 2c",
        })?;
        out.calibrate(target_machine, scaled);
    }

    // Map each source calibration to a slot; remember slot origins so the
    // group's placements can be translated.
    // Key: (start, in-group machine) → scaled slot start.
    let mut slot_of: std::collections::HashMap<(Time, usize), i64> =
        std::collections::HashMap::new();
    let mut claimed: std::collections::HashSet<(usize, bool, usize)> =
        std::collections::HashSet::new();
    for &(cs, gi) in &cals {
        // First half of target t: t - T/2 <= cs <= t  (scaled comparison).
        // Second half: t <= cs <= t + T/2.
        let cs_s = cmul(
            cs.ticks(),
            scale,
            "speed transform: source start at scale 2c",
        )?;
        let mut chosen: Option<(usize, bool)> = None;
        // Binary search targets around cs.
        let pos = targets.partition_point(|&t| t <= cs);
        // Candidate second-half host: the last target <= cs.
        if let Some(ti) = pos.checked_sub(1) {
            let t_s = cmul(
                targets[ti].ticks(),
                scale,
                "speed transform: target start at scale 2c",
            )?;
            if cs_s <= cadd(t_s, half, "speed transform: second-half bound")? {
                chosen = Some((ti, false)); // second half
            }
        }
        // Candidate first-half host: the first target >= cs.
        if chosen.is_none() {
            let mut ti = pos;
            if ti > 0 && targets[ti - 1] == cs {
                ti -= 1;
            }
            if let Some(&t) = targets.get(ti) {
                let t_s = cmul(
                    t.ticks(),
                    scale,
                    "speed transform: target start at scale 2c",
                )?;
                if cadd(t_s, -half, "speed transform: first-half bound")? <= cs_s && cs_s <= t_s {
                    chosen = Some((ti, true)); // first half
                }
            }
        }
        let Some((ti, first_half)) = chosen else {
            return Err(SchedError::Internal {
                stage: "speed transform: source calibration has no host (Lemma 13 violated)",
                jobs: vec![],
            });
        };
        if !claimed.insert((ti, first_half, gi)) {
            return Err(SchedError::Internal {
                stage: "speed transform: slot claimed twice (Lemma 13 violated)",
                jobs: vec![],
            });
        }
        let t_s = cmul(
            targets[ti].ticks(),
            scale,
            "speed transform: target start at scale 2c",
        )?;
        let base = if first_half {
            t_s
        } else {
            cadd(t_s, half, "speed transform: second-half base")?
        };
        let in_group = cmul(gi as i64, slot, "speed transform: in-group slot offset")?;
        slot_of.insert(
            (cs, gi),
            cadd(base, in_group, "speed transform: slot start")?,
        );
    }

    // Translate placements: job offset within its source calibration is
    // preserved verbatim in scaled units (the 2c speedup exactly cancels
    // the 2c refinement).
    for p in &source.placements {
        let Some(gi) = group.iter().position(|&m| m == p.machine) else {
            continue;
        };
        // Containing source calibration: last start <= p.start on machine.
        let cs = cals
            .iter()
            .filter(|&&(s, g)| g == gi && s <= p.start)
            .map(|&(s, _)| s)
            .max()
            .ok_or(SchedError::Internal {
                stage: "speed transform: placement outside any calibration",
                jobs: vec![p.job],
            })?;
        let slot_start = *slot_of.get(&(cs, gi)).ok_or(SchedError::Internal {
            stage: "speed transform: missing slot for calibration",
            jobs: vec![p.job],
        })?;
        let offset = (p.start - cs).ticks(); // scaled units after 2c-speedup
        let start = cadd(slot_start, offset, "speed transform: placement start")?;
        out.place(p.job, target_machine, Time(start));
        let _ = instance;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::long_window::schedule_long_windows;
    use ise_model::{validate, Instance, JobId};
    use ise_simplex::SolveOptions;

    #[test]
    fn single_machine_group_keeps_schedule_shape() {
        // One source machine, group size 1 => speed 2, scale 2.
        let inst = Instance::new([(0, 40, 4), (0, 40, 5)], 1, 10).unwrap();
        let mut src = Schedule::new();
        src.calibrate(0, Time(0));
        src.place(JobId(0), 0, Time(0));
        src.place(JobId(1), 0, Time(4));
        ise_model::validate_tise(&inst, &src).unwrap();

        let out = trade_machines_for_speed(&inst, &src, 1).unwrap();
        assert_eq!(out.schedule.speed, 2);
        assert_eq!(out.schedule.time_scale, 2);
        validate(&inst, &out.schedule).unwrap();
        assert_eq!(out.schedule.num_calibrations(), 1);
        assert_eq!(out.schedule.machines_used(), 1);
    }

    #[test]
    fn two_machines_merge_into_one_fast_machine() {
        // Two source machines with simultaneous calibrations; c = 2 =>
        // speed 4 target.
        let inst = Instance::new([(0, 40, 6), (0, 40, 6)], 2, 10).unwrap();
        let mut src = Schedule::new();
        src.calibrate(0, Time(0));
        src.calibrate(1, Time(0));
        src.place(JobId(0), 0, Time(0));
        src.place(JobId(1), 1, Time(0));
        ise_model::validate_tise(&inst, &src).unwrap();

        let out = trade_machines_for_speed(&inst, &src, 2).unwrap();
        assert_eq!(out.schedule.speed, 4);
        validate(&inst, &out.schedule).unwrap();
        assert_eq!(out.schedule.machines_used(), 1);
        // Both source calibrations share one target calibration.
        assert_eq!(out.schedule.num_calibrations(), 1);
    }

    #[test]
    fn staggered_calibrations_use_both_halves() {
        // Source calibrations at 0 and 4 (< T/2 = 5 apart): target
        // calibration at 0; cal@0 hosts first half, cal@4 second half.
        let inst = Instance::new([(0, 40, 6), (4, 40, 6)], 2, 10).unwrap();
        let mut src = Schedule::new();
        src.calibrate(0, Time(0));
        src.calibrate(1, Time(4));
        src.place(JobId(0), 0, Time(0));
        src.place(JobId(1), 1, Time(4));
        ise_model::validate_tise(&inst, &src).unwrap();

        let out = trade_machines_for_speed(&inst, &src, 2).unwrap();
        validate(&inst, &out.schedule).unwrap();
        // Lemma 13 guarantees no more target calibrations than source ones.
        assert!(out.schedule.num_calibrations() <= 2);
        assert_eq!(out.schedule.machines_used(), 1);
    }

    #[test]
    fn calibration_count_never_increases() {
        let inst = Instance::new(
            [
                (0, 40, 7),
                (0, 45, 6),
                (5, 50, 7),
                (12, 55, 3),
                (30, 90, 10),
            ],
            1,
            10,
        )
        .unwrap();
        let long = schedule_long_windows(&inst, &SolveOptions::default(), None).unwrap();
        let src_cals = long.schedule.num_calibrations();
        let machines = long.schedule.machines_used().max(1);
        let out = trade_machines_for_speed(&inst, &long.schedule, machines).unwrap();
        validate(&inst, &out.schedule).unwrap();
        assert!(out.schedule.num_calibrations() <= src_cals);
        assert_eq!(out.schedule.machines_used(), 1);
        assert_eq!(out.schedule.speed, 2 * machines as i64);
    }

    #[test]
    fn rejects_augmented_source() {
        let inst = Instance::new([(0, 40, 4)], 1, 10).unwrap();
        let src = Schedule::with_augmentation(2, 2);
        assert!(matches!(
            trade_machines_for_speed(&inst, &src, 1),
            Err(SchedError::Precondition { .. })
        ));
    }

    #[test]
    fn oversized_refinement_yields_overflow_verdict_not_panic() {
        // A horizon near the validated maximum survives the Theorem 14
        // refinement (c = 18, scale 36) but not an absurd caller-chosen
        // group size; the old code aborted via `expect("time scale
        // overflow")`, now it reports a clean error a fuzzer can shrink.
        let edge = ise_model::MAX_INSTANCE_TICKS;
        let inst = Instance::new([(edge - 40, edge, 4)], 1, 10).unwrap();
        let mut src = Schedule::new();
        src.calibrate(0, Time(edge - 40));
        src.place(JobId(0), 0, Time(edge - 40));
        ise_model::validate_tise(&inst, &src).unwrap();

        assert!(trade_machines_for_speed(&inst, &src, 18).is_ok());
        assert!(matches!(
            trade_machines_for_speed(&inst, &src, 1_000),
            Err(SchedError::TimeOverflow { .. })
        ));
    }

    #[test]
    fn empty_schedule_is_fine() {
        let inst = Instance::new([], 1, 10).unwrap();
        let out = trade_machines_for_speed(&inst, &Schedule::new(), 3).unwrap();
        assert_eq!(out.schedule.num_calibrations(), 0);
    }
}
