//! Small measurement helpers: quantiles, peak memory, the metric table the
//! benchmark prints, and the span recorder of the traced run.

use std::time::{Duration, Instant};

/// Milliseconds in a duration, as a float with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between order statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `part / whole`, or 0 when nothing was counted.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-up repetitions before the measured phase (the last one is the
/// set-up the run uses) and after it (timed, then dropped). Timing set-up
/// at both ends of the run lets its median see the machine the ops saw.
pub const SETUP_REPS_BEFORE: usize = 5;
pub const SETUP_REPS_AFTER: usize = 4;

/// Times repeated set-ups; `setup_s` is their median.
#[derive(Default)]
pub struct SetupTimer {
    times: Vec<f64>,
}

impl SetupTimer {
    /// Run `setup` `reps` times (at least once), timing each; return the
    /// last result. Earlier results are dropped outside the timed part.
    pub fn run<T>(
        &mut self,
        reps: usize,
        setup: &mut impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let mut last = None;
        for _ in 0..reps.max(1) {
            let started = Instant::now();
            let made = setup()?;
            self.times.push(started.elapsed().as_secs_f64());
            last = Some(made);
        }
        Ok(last.expect("at least one set-up"))
    }

    /// Median set-up time in seconds.
    pub fn median(&self) -> f64 {
        median(&self.times)
    }
}

/// The metric table of one run, in emission order.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Record `name = value unit`; a later value for the same name
    /// replaces the earlier one.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(e) => {
                e.1 = value;
                e.2 = unit;
            }
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    /// Human-readable table, one metric a line.
    pub fn table(&self) -> String {
        self.entries
            .iter()
            .map(|(n, v, u)| format!("{n:<34} {v:>14.4} {u}\n"))
            .collect()
    }

    /// The `metrics` object of the result line.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// In-memory span recorder for one traced solve: the name and duration
/// of every layer call the benchmark made. The recorder of a solve is its
/// trace; spans measured on another thread (the concurrent long half) are
/// merged in with [`Tracer::adopt`].
#[derive(Default)]
pub struct Tracer {
    spans: Vec<(&'static str, Duration)>,
}

impl Tracer {
    /// Time `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.spans.push((name, started.elapsed()));
        out
    }

    /// Merge the spans of another recorder of the same solve.
    pub fn adopt(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Total duration of every span called `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, d)| *d)
            .sum()
    }
}
