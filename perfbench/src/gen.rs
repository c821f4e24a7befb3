//! Seeded inputs of every workload, built with the `ise_workloads`
//! generators. The program under test only ever sees these instances and
//! edit streams; the same seed always yields the same inputs.

use ise_model::Instance;
use ise_session::Delta;
use ise_workloads::{long_only, uniform, WorkloadParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SplitMix64 finaliser: independent sub-seeds from one workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How large the generated inputs are. `Smoke` shrinks everything so the
/// benchmark's own test runs in seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// `long_lp`: the `i`-th instance of the stream — `long_only` jobs in the
/// shape of the `long_wide` bench workload (m = 4, T = 12, horizon 900).
pub fn long_lp_instance(seed: u64, i: u64, scale: Scale) -> Instance {
    let params = WorkloadParams {
        jobs: match scale {
            Scale::Full => 60,
            Scale::Smoke => 12,
        },
        machines: 4,
        calib_len: 12,
        horizon: 900,
    };
    long_only(&params, mix(seed, i))
}

/// `session_edits`: the base instance of session `k`, a mid-size
/// `uniform` instance.
pub fn session_base(seed: u64, k: u64, scale: Scale) -> Instance {
    uniform(&session_params(scale), mix(seed, k))
}

fn session_params(scale: Scale) -> WorkloadParams {
    WorkloadParams {
        jobs: match scale {
            Scale::Full => 40,
            Scale::Smoke => 10,
        },
        machines: 3,
        calib_len: 10,
        horizon: 300,
    }
}

/// Seeded edit stream over one session's base instance. Each call yields
/// the next delta given the current job count and machine count: mostly
/// job adds/removes (warm tier), machine-count toggles (basis tier) and
/// rare window shifts (cold tier). Removes follow adds and vice versa, so
/// the job count stays within two of the base and the stream is
/// stationary, while the job set itself is steadily replaced.
pub struct EditStream {
    rng: StdRng,
    params: WorkloadParams,
    base_machines: usize,
    shifted: bool,
}

impl EditStream {
    pub fn new(seed: u64, k: u64, scale: Scale) -> EditStream {
        let params = session_params(scale);
        EditStream {
            rng: StdRng::seed_from_u64(mix(seed, u64::MAX - 1 - k)),
            params,
            base_machines: params.machines,
            shifted: false,
        }
    }

    pub fn next(&mut self, jobs: usize, machines: usize) -> Delta {
        let roll = self.rng.gen_range(0..100u32);
        let t = self.params.calib_len;
        if roll < 4 {
            // Shift every window forward, then back on the next shift.
            let by = if self.shifted { -5 * t } else { 5 * t };
            self.shifted = !self.shifted;
            return Delta::ShiftWindows(by);
        }
        if roll < 24 {
            let m = if machines == self.base_machines {
                self.base_machines + 1
            } else {
                self.base_machines
            };
            return Delta::SetMachines(m);
        }
        let count = self.rng.gen_range(1..=2usize);
        let add = match jobs.cmp(&self.params.jobs) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => self.rng.gen_bool(0.5),
        };
        if add {
            let origin = if self.shifted { 5 * t } else { 0 };
            let specs = (0..count)
                .map(|_| {
                    let p = self.rng.gen_range(1..=t);
                    let r = origin + self.rng.gen_range(0..self.params.horizon);
                    let slack = self.rng.gen_range(0..=4 * t);
                    (r, r + p + slack, p)
                })
                .collect();
            Delta::AddJobs(specs)
        } else {
            let mut ids: Vec<usize> = (0..count).map(|_| self.rng.gen_range(0..jobs)).collect();
            ids.sort_unstable();
            ids.dedup();
            Delta::RemoveJobs(ids)
        }
    }
}

/// `serve_loopback`: the request instances — small `uniform` instances.
pub fn serve_instance(seed: u64, i: u64, scale: Scale) -> Instance {
    let params = WorkloadParams {
        jobs: match scale {
            Scale::Full => 24,
            Scale::Smoke => 8,
        },
        machines: 2,
        calib_len: 10,
        horizon: 200,
    };
    uniform(&params, mix(seed, i))
}
