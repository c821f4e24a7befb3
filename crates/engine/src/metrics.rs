//! Engine counters and latency histograms.
//!
//! All counters are relaxed atomics bumped by workers and read by
//! [`EngineMetrics::snapshot`], which produces a serializable
//! [`MetricsSnapshot`]. Latencies go into log₂-bucketed histograms
//! (bucket `i` counts durations in `[2^(i-1), 2^i)` microseconds), from
//! which the snapshot derives approximate quantiles.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const BUCKETS: usize = 40;

/// Lock-free log₂ histogram of microsecond durations.
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    sum_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Record one duration.
    pub fn record(&self, d: Duration) {
        let us = d.as_micros().min(u128::from(u64::MAX)) as u64;
        let idx = (64 - us.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Read the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        HistogramSnapshot {
            p50_us: quantile(&buckets, count, 0.50),
            p90_us: quantile(&buckets, count, 0.90),
            p99_us: quantile(&buckets, count, 0.99),
            count,
            sum_us: self.sum_us.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Upper bounds of the LP residual histogram buckets (relative residual,
/// log₁₀-spaced). A final implicit `+Inf` bucket catches anything worse.
pub const RESIDUAL_BOUNDS: [f64; 6] = [1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 1e0];

/// Lock-free log₁₀ histogram of relative LP residuals
/// (`‖B·x_B − b‖∞ / (1 + ‖b‖∞)` per solve, reported by the simplex
/// residual monitor).
pub struct ResidualHistogram {
    buckets: [AtomicU64; RESIDUAL_BOUNDS.len() + 1],
    /// Sum of recorded residuals, stored as `f64` bits.
    sum_bits: AtomicU64,
}

impl Default for ResidualHistogram {
    fn default() -> ResidualHistogram {
        ResidualHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl ResidualHistogram {
    /// Record one solve's worst relative residual.
    pub fn record(&self, r: f64) {
        let r = if r.is_finite() { r.max(0.0) } else { f64::MAX };
        let idx = RESIDUAL_BOUNDS
            .iter()
            .position(|&b| r <= b)
            .unwrap_or(RESIDUAL_BOUNDS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + r).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Read the bucket counts.
    pub fn snapshot(&self) -> ResidualHistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        ResidualHistogramSnapshot {
            count: buckets.iter().sum(),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            buckets,
        }
    }
}

/// Serializable view of the residual histogram.
#[derive(Clone, Debug, Serialize)]
pub struct ResidualHistogramSnapshot {
    /// Total recorded solves.
    pub count: u64,
    /// Sum of recorded residuals.
    pub sum: f64,
    /// Raw counts; bucket `i` covers residuals `<= RESIDUAL_BOUNDS[i]`
    /// (cumulative from the previous bound), with a trailing `+Inf` bucket.
    pub buckets: Vec<u64>,
}

/// Upper bound (µs) of bucket `i`: `2^i - 1`, saturating.
fn bucket_upper_us(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i).saturating_sub(1)
    }
}

fn quantile(buckets: &[u64], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((count as f64) * q).ceil() as u64;
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bucket_upper_us(i);
        }
    }
    bucket_upper_us(BUCKETS - 1)
}

/// Serializable view of one histogram.
#[derive(Clone, Debug, Serialize)]
pub struct HistogramSnapshot {
    /// Total recorded samples.
    pub count: u64,
    /// Sum of all recorded durations in microseconds.
    pub sum_us: u64,
    /// Approximate (bucket upper bound) quantiles in microseconds.
    pub p50_us: u64,
    /// 90th percentile, bucket upper bound.
    pub p90_us: u64,
    /// 99th percentile, bucket upper bound.
    pub p99_us: u64,
    /// Raw counts; bucket `i` covers `[2^(i-1), 2^i)` µs.
    pub buckets: Vec<u64>,
}

/// Live counters shared by all engine workers.
#[derive(Default)]
pub struct EngineMetrics {
    /// Requests accepted into the queue.
    pub requests: AtomicU64,
    /// Requests refused by `Reject` backpressure.
    pub rejected: AtomicU64,
    /// Responses produced (any status).
    pub completed: AtomicU64,
    /// Responses served from the result cache.
    pub cache_hits: AtomicU64,
    /// Requests that missed the cache and went to the solver.
    pub cache_misses: AtomicU64,
    /// Cache-missing solves that found a warm-start LP basis.
    pub basis_hits: AtomicU64,
    /// Cache-missing solves that started the LP cold.
    pub basis_misses: AtomicU64,
    /// Solves that hit their deadline and were cancelled.
    pub timeouts: AtomicU64,
    /// Timed-out solves rescued by the greedy fallback.
    pub fallbacks: AtomicU64,
    /// Solves that ended in an error response.
    pub errors: AtomicU64,
    /// Session commits that reused a cached optimal basis (machine-budget
    /// deltas only; LP phase 1 skipped).
    pub session_reuse_basis: AtomicU64,
    /// Session commits that warm-started the LP after job add/remove
    /// deltas, replaying unchanged short intervals from the memo.
    pub session_reuse_warm: AtomicU64,
    /// Session commits that recomputed everything (first commit or
    /// structural deltas).
    pub session_reuse_cold: AtomicU64,
    /// LP recovery-ladder rung 1 activations (mid-solve refactorization).
    pub lp_recoveries_refactor: AtomicU64,
    /// LP recovery-ladder rung 2 activations (tightened pivot tolerance).
    pub lp_recoveries_tighten: AtomicU64,
    /// LP recovery-ladder rung 3 activations (Dantzig full pricing).
    pub lp_recoveries_dantzig: AtomicU64,
    /// LP recovery-ladder rung 4 activations (eta-kernel fallback).
    pub lp_recoveries_eta: AtomicU64,
    /// LP recovery-ladder rung 5 activations (dense-kernel fallback).
    pub lp_recoveries_dense: AtomicU64,
    /// Worst LU fill-in (stored L+U nonzeros) seen across solves.
    pub lp_lu_fill_nnz: AtomicU64,
    /// Forrest–Tomlin pivot updates applied across solves.
    pub lp_lu_ft_updates: AtomicU64,
    /// FTRAN/BTRAN solves that took the hyper-sparse path.
    pub lp_lu_sparse_solves: AtomicU64,
    /// FTRAN/BTRAN solves that fell back to the dense triangular kernels.
    pub lp_lu_dense_solves: AtomicU64,
    /// Full BTRANs of the basic costs (dual refreshes) across solves.
    pub lp_dual_refreshes: AtomicU64,
    /// Worst measured dual drift across solves, as `f64::to_bits`: for
    /// non-negative floats the bit patterns order like the values, so
    /// `fetch_max` on the bits keeps the largest drift.
    pub lp_max_dual_drift_bits: AtomicU64,
    /// Worst relative LP residual per solve, for solves where the residual
    /// monitor ran.
    pub lp_residual: ResidualHistogram,
    /// Time requests spent queued before a worker picked them up.
    pub queue_wait: LatencyHistogram,
    /// Time spent in the solver (cache misses only).
    pub solve_time: LatencyHistogram,
    /// How far past its budget each overrunning solve finished.
    pub deadline_overshoot: LatencyHistogram,
    /// Time spent serializing responses (recorded by `ise serve`).
    pub serialize_time: LatencyHistogram,
}

impl EngineMetrics {
    /// Bump a counter by one.
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough copy of all counters for reporting.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            basis_hits: self.basis_hits.load(Ordering::Relaxed),
            basis_misses: self.basis_misses.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            session_reuse_basis: self.session_reuse_basis.load(Ordering::Relaxed),
            session_reuse_warm: self.session_reuse_warm.load(Ordering::Relaxed),
            session_reuse_cold: self.session_reuse_cold.load(Ordering::Relaxed),
            lp_recoveries_refactor: self.lp_recoveries_refactor.load(Ordering::Relaxed),
            lp_recoveries_tighten: self.lp_recoveries_tighten.load(Ordering::Relaxed),
            lp_recoveries_dantzig: self.lp_recoveries_dantzig.load(Ordering::Relaxed),
            lp_recoveries_eta: self.lp_recoveries_eta.load(Ordering::Relaxed),
            lp_recoveries_dense: self.lp_recoveries_dense.load(Ordering::Relaxed),
            lp_lu_fill_nnz: self.lp_lu_fill_nnz.load(Ordering::Relaxed),
            lp_lu_ft_updates: self.lp_lu_ft_updates.load(Ordering::Relaxed),
            lp_lu_sparse_solves: self.lp_lu_sparse_solves.load(Ordering::Relaxed),
            lp_lu_dense_solves: self.lp_lu_dense_solves.load(Ordering::Relaxed),
            lp_dual_refreshes: self.lp_dual_refreshes.load(Ordering::Relaxed),
            lp_max_dual_drift: f64::from_bits(self.lp_max_dual_drift_bits.load(Ordering::Relaxed)),
            lp_residual: self.lp_residual.snapshot(),
            cache_evictions: 0,
            basis_cache_entries: 0,
            sessions_open: 0,
            queue_wait: self.queue_wait.snapshot(),
            solve_time: self.solve_time.snapshot(),
            deadline_overshoot: self.deadline_overshoot.snapshot(),
            serialize_time: self.serialize_time.snapshot(),
        }
    }
}

/// Serializable engine metrics (see [`EngineMetrics`] for field meanings).
#[derive(Clone, Debug, Serialize)]
pub struct MetricsSnapshot {
    /// Requests accepted into the queue.
    pub requests: u64,
    /// Requests refused by `Reject` backpressure.
    pub rejected: u64,
    /// Responses produced (any status).
    pub completed: u64,
    /// Responses served from the result cache.
    pub cache_hits: u64,
    /// Requests that went to the solver.
    pub cache_misses: u64,
    /// Cache-missing solves that found a warm-start LP basis.
    pub basis_hits: u64,
    /// Cache-missing solves that started the LP cold.
    pub basis_misses: u64,
    /// Solves cancelled at their deadline.
    pub timeouts: u64,
    /// Timed-out solves rescued by the greedy fallback.
    pub fallbacks: u64,
    /// Error responses.
    pub errors: u64,
    /// Session commits at the basis reuse tier.
    pub session_reuse_basis: u64,
    /// Session commits at the warm reuse tier.
    pub session_reuse_warm: u64,
    /// Session commits at the cold reuse tier.
    pub session_reuse_cold: u64,
    /// LP recovery-ladder activations, rung 1 (refactorization).
    pub lp_recoveries_refactor: u64,
    /// LP recovery-ladder activations, rung 2 (tightened pivot tolerance).
    pub lp_recoveries_tighten: u64,
    /// LP recovery-ladder activations, rung 3 (Dantzig pricing).
    pub lp_recoveries_dantzig: u64,
    /// LP recovery-ladder activations, rung 4 (eta fallback).
    pub lp_recoveries_eta: u64,
    /// LP recovery-ladder activations, rung 5 (dense fallback).
    pub lp_recoveries_dense: u64,
    /// Worst LU fill-in (stored L+U nonzeros) seen across solves.
    pub lp_lu_fill_nnz: u64,
    /// Forrest–Tomlin pivot updates applied across solves.
    pub lp_lu_ft_updates: u64,
    /// FTRAN/BTRAN solves that took the hyper-sparse path.
    pub lp_lu_sparse_solves: u64,
    /// FTRAN/BTRAN solves on the dense triangular fallback.
    pub lp_lu_dense_solves: u64,
    /// Full BTRANs of the basic costs (dual refreshes) across solves.
    pub lp_dual_refreshes: u64,
    /// Worst measured dual drift seen across solves.
    pub lp_max_dual_drift: f64,
    /// Per-solve worst relative LP residual histogram.
    pub lp_residual: ResidualHistogramSnapshot,
    /// Result- and basis-cache entries evicted by LRU capacity pressure
    /// (gauge; filled in by `Engine::metrics`, 0 from a bare
    /// `EngineMetrics::snapshot`).
    pub cache_evictions: u64,
    /// Live warm-start bases held by the basis cache (gauge; filled in by
    /// `Engine::metrics`).
    pub basis_cache_entries: u64,
    /// Currently open incremental sessions (gauge; filled in by
    /// `Engine::metrics`).
    pub sessions_open: u64,
    /// Queue-wait latency histogram.
    pub queue_wait: HistogramSnapshot,
    /// Solver latency histogram.
    pub solve_time: HistogramSnapshot,
    /// Deadline-overshoot histogram (solves that finished past their
    /// budget only).
    pub deadline_overshoot: HistogramSnapshot,
    /// Response-serialization latency histogram.
    pub serialize_time: HistogramSnapshot,
}

/// Live counters for the TCP frontend (`ise serve --listen`), shared by
/// the acceptor and every connection thread.
#[derive(Default)]
pub struct NetMetrics {
    /// Connections accepted, including ones immediately shed.
    pub connections_total: AtomicU64,
    /// Currently open connections (gauge).
    pub connections_open: AtomicU64,
    /// Connections refused at accept time (connection cap or drain).
    pub shed_total: AtomicU64,
    /// Bytes read from clients.
    pub bytes_in: AtomicU64,
    /// Bytes written to clients.
    pub bytes_out: AtomicU64,
    /// Lines rejected for exceeding the configured maximum length.
    pub oversize_lines: AtomicU64,
    /// Connections closed by the read idle timeout.
    pub idle_timeouts: AtomicU64,
    /// Responses written across all connections.
    pub responses_total: AtomicU64,
    /// Time responses spent in a per-connection write queue (behind the
    /// head-of-line response) before being written.
    pub write_queue_wait: LatencyHistogram,
}

impl NetMetrics {
    /// Bump a counter by one.
    pub fn inc_counter(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough copy of all counters for reporting.
    pub fn snapshot(&self) -> NetMetricsSnapshot {
        NetMetricsSnapshot {
            connections_total: self.connections_total.load(Ordering::Relaxed),
            connections_open: self.connections_open.load(Ordering::Relaxed),
            shed_total: self.shed_total.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            oversize_lines: self.oversize_lines.load(Ordering::Relaxed),
            idle_timeouts: self.idle_timeouts.load(Ordering::Relaxed),
            responses_total: self.responses_total.load(Ordering::Relaxed),
            write_queue_wait: self.write_queue_wait.snapshot(),
        }
    }
}

/// Serializable TCP-frontend metrics (see [`NetMetrics`]).
#[derive(Clone, Debug, Serialize)]
pub struct NetMetricsSnapshot {
    /// Connections accepted, including ones immediately shed.
    pub connections_total: u64,
    /// Currently open connections (gauge).
    pub connections_open: u64,
    /// Connections refused at accept time.
    pub shed_total: u64,
    /// Bytes read from clients.
    pub bytes_in: u64,
    /// Bytes written to clients.
    pub bytes_out: u64,
    /// Lines rejected for exceeding the maximum length.
    pub oversize_lines: u64,
    /// Connections closed by the read idle timeout.
    pub idle_timeouts: u64,
    /// Responses written across all connections.
    pub responses_total: u64,
    /// Per-connection write-queue wait histogram.
    pub write_queue_wait: HistogramSnapshot,
}

/// Render a snapshot in the Prometheus text exposition format: one
/// `ise_*_total` counter family per engine counter and one histogram
/// family per latency histogram, with cumulative `_bucket{le="..."}`
/// series, `_sum` (microseconds), and `_count`.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let counters: [(&str, &str, u64); 10] = [
        (
            "requests",
            "Requests accepted into the queue",
            snap.requests,
        ),
        (
            "rejected",
            "Requests refused by backpressure",
            snap.rejected,
        ),
        ("completed", "Responses produced", snap.completed),
        (
            "cache_hits",
            "Responses served from the result cache",
            snap.cache_hits,
        ),
        (
            "cache_misses",
            "Requests that went to the solver",
            snap.cache_misses,
        ),
        (
            "basis_hits",
            "Solves warm-started from a cached basis",
            snap.basis_hits,
        ),
        (
            "basis_misses",
            "Solves that started the LP cold",
            snap.basis_misses,
        ),
        (
            "timeouts",
            "Solves cancelled at their deadline",
            snap.timeouts,
        ),
        (
            "fallbacks",
            "Timed-out solves rescued by the greedy fallback",
            snap.fallbacks,
        ),
        ("errors", "Error responses", snap.errors),
    ];
    for (name, help, value) in counters {
        out.push_str(&format!(
            "# HELP ise_{name}_total {help}\n# TYPE ise_{name}_total counter\nise_{name}_total {value}\n"
        ));
    }
    out.push_str(
        "# HELP ise_session_reuse_total Session commits by reuse tier\n\
         # TYPE ise_session_reuse_total counter\n",
    );
    for (tier, value) in [
        ("basis", snap.session_reuse_basis),
        ("warm", snap.session_reuse_warm),
        ("cold", snap.session_reuse_cold),
    ] {
        out.push_str(&format!(
            "ise_session_reuse_total{{tier=\"{tier}\"}} {value}\n"
        ));
    }
    out.push_str(
        "# HELP ise_lp_recoveries_total LP numerical recoveries by ladder rung\n\
         # TYPE ise_lp_recoveries_total counter\n",
    );
    for (rung, value) in [
        ("refactor", snap.lp_recoveries_refactor),
        ("tighten", snap.lp_recoveries_tighten),
        ("dantzig", snap.lp_recoveries_dantzig),
        ("eta", snap.lp_recoveries_eta),
        ("dense", snap.lp_recoveries_dense),
    ] {
        out.push_str(&format!(
            "ise_lp_recoveries_total{{rung=\"{rung}\"}} {value}\n"
        ));
    }
    out.push_str(
        "# HELP ise_lp_lu_fill_nnz Worst LU fill-in (stored L+U nonzeros) seen across solves\n\
         # TYPE ise_lp_lu_fill_nnz gauge\n",
    );
    out.push_str(&format!("ise_lp_lu_fill_nnz {}\n", snap.lp_lu_fill_nnz));
    out.push_str(
        "# HELP ise_lp_lu_ft_updates_total Forrest-Tomlin pivot updates applied\n\
         # TYPE ise_lp_lu_ft_updates_total counter\n",
    );
    out.push_str(&format!(
        "ise_lp_lu_ft_updates_total {}\n",
        snap.lp_lu_ft_updates
    ));
    out.push_str(
        "# HELP ise_lp_lu_triangular_solves_total FTRAN/BTRAN solves by kernel path\n\
         # TYPE ise_lp_lu_triangular_solves_total counter\n",
    );
    for (path, value) in [
        ("sparse", snap.lp_lu_sparse_solves),
        ("dense", snap.lp_lu_dense_solves),
    ] {
        out.push_str(&format!(
            "ise_lp_lu_triangular_solves_total{{path=\"{path}\"}} {value}\n"
        ));
    }
    out.push_str(
        "# HELP ise_lp_dual_refreshes_total Full BTRANs of the basic costs (dual refreshes)\n\
         # TYPE ise_lp_dual_refreshes_total counter\n",
    );
    out.push_str(&format!(
        "ise_lp_dual_refreshes_total {}\n",
        snap.lp_dual_refreshes
    ));
    out.push_str(
        "# HELP ise_lp_max_dual_drift Worst drift of updated LP multipliers from a fresh BTRAN\n\
         # TYPE ise_lp_max_dual_drift gauge\n",
    );
    out.push_str(&format!(
        "ise_lp_max_dual_drift {:e}\n",
        snap.lp_max_dual_drift
    ));
    out.push_str(
        "# HELP ise_lp_residual Worst relative LP residual per solve\n\
         # TYPE ise_lp_residual histogram\n",
    );
    let mut cumulative = 0u64;
    for (i, &bound) in RESIDUAL_BOUNDS.iter().enumerate() {
        cumulative += snap.lp_residual.buckets.get(i).copied().unwrap_or(0);
        out.push_str(&format!(
            "ise_lp_residual_bucket{{le=\"{bound:e}\"}} {cumulative}\n"
        ));
    }
    out.push_str(&format!(
        "ise_lp_residual_bucket{{le=\"+Inf\"}} {count}\nise_lp_residual_sum {sum:e}\nise_lp_residual_count {count}\n",
        count = snap.lp_residual.count,
        sum = snap.lp_residual.sum
    ));
    let gauges: [(&str, &str, u64); 3] = [
        (
            "cache_evictions",
            "Cache entries evicted by LRU capacity pressure",
            snap.cache_evictions,
        ),
        (
            "basis_cache_entries",
            "Live warm-start bases in the basis cache",
            snap.basis_cache_entries,
        ),
        (
            "sessions_open",
            "Currently open incremental sessions",
            snap.sessions_open,
        ),
    ];
    for (name, help, value) in gauges {
        out.push_str(&format!(
            "# HELP ise_{name} {help}\n# TYPE ise_{name} gauge\nise_{name} {value}\n"
        ));
    }
    let histograms: [(&str, &str, &HistogramSnapshot); 4] = [
        (
            "queue_wait_us",
            "Queue wait before a worker pickup",
            &snap.queue_wait,
        ),
        (
            "solve_time_us",
            "Solver latency (cache misses only)",
            &snap.solve_time,
        ),
        (
            "deadline_overshoot_us",
            "Time past the budget at which overrunning solves finished",
            &snap.deadline_overshoot,
        ),
        (
            "serialize_time_us",
            "Response serialization latency",
            &snap.serialize_time,
        ),
    ];
    for (name, help, h) in histograms {
        push_histogram(&mut out, name, help, h);
    }
    out
}

fn push_histogram(out: &mut String, name: &str, help: &str, h: &HistogramSnapshot) {
    out.push_str(&format!(
        "# HELP ise_{name} {help}\n# TYPE ise_{name} histogram\n"
    ));
    let mut cumulative = 0u64;
    for (i, &c) in h.buckets.iter().enumerate() {
        cumulative += c;
        out.push_str(&format!(
            "ise_{name}_bucket{{le=\"{}\"}} {cumulative}\n",
            bucket_upper_us(i)
        ));
    }
    out.push_str(&format!(
        "ise_{name}_bucket{{le=\"+Inf\"}} {count}\nise_{name}_sum {sum}\nise_{name}_count {count}\n",
        count = h.count,
        sum = h.sum_us
    ));
}

/// [`prometheus_text`] plus the TCP-frontend series: connection counters
/// and gauges, byte counters, shed/oversize/idle-timeout counters, and
/// the per-connection write-queue-wait histogram.
pub fn prometheus_text_with_net(snap: &MetricsSnapshot, net: &NetMetricsSnapshot) -> String {
    let mut out = prometheus_text(snap);
    let counters: [(&str, &str, u64); 7] = [
        (
            "connections_total",
            "Connections accepted, including shed ones",
            net.connections_total,
        ),
        (
            "shed_total",
            "Connections refused at accept time",
            net.shed_total,
        ),
        ("bytes_in_total", "Bytes read from clients", net.bytes_in),
        ("bytes_out_total", "Bytes written to clients", net.bytes_out),
        (
            "oversize_lines_total",
            "Lines rejected for exceeding the maximum length",
            net.oversize_lines,
        ),
        (
            "idle_timeouts_total",
            "Connections closed by the read idle timeout",
            net.idle_timeouts,
        ),
        (
            "net_responses_total",
            "Responses written across all connections",
            net.responses_total,
        ),
    ];
    for (name, help, value) in counters {
        out.push_str(&format!(
            "# HELP ise_{name} {help}\n# TYPE ise_{name} counter\nise_{name} {value}\n"
        ));
    }
    out.push_str(&format!(
        "# HELP ise_connections_open Currently open connections\n\
         # TYPE ise_connections_open gauge\nise_connections_open {}\n",
        net.connections_open
    ));
    push_histogram(
        &mut out,
        "net_queue_wait_us",
        "Response wait in the per-connection write queue",
        &net.write_queue_wait,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_millis(100));
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        // p50 lands in the 100 µs bucket (upper bound 127), p99 likewise.
        assert_eq!(s.p50_us, 127);
        assert_eq!(s.p99_us, 127);
        assert!(s.buckets.iter().sum::<u64>() == 100);
    }

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::default();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_us, 0);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let m = EngineMetrics::default();
        EngineMetrics::inc(&m.requests);
        m.queue_wait.record(Duration::from_micros(5));
        let json = serde_json::to_string(&m.snapshot()).unwrap();
        assert!(json.contains("\"requests\":1"), "{json}");
        assert!(json.contains("\"queue_wait\""), "{json}");
        assert!(json.contains("\"sum_us\":5"), "{json}");
    }

    #[test]
    fn quantiles_with_all_samples_in_one_bucket() {
        // Every sample lands in the same bucket: all quantiles must agree
        // on that bucket's upper bound.
        let h = LatencyHistogram::default();
        for _ in 0..7 {
            h.record(Duration::from_micros(3));
        }
        let s = h.snapshot();
        let expect = bucket_upper_us(2); // 3 µs → bucket 2, upper bound 3
        assert_eq!(s.p50_us, expect);
        assert_eq!(s.p90_us, expect);
        assert_eq!(s.p99_us, expect);
        assert_eq!(s.sum_us, 21);
    }

    #[test]
    fn quantiles_with_all_samples_in_last_bucket() {
        // Durations beyond the histogram range clamp into the final
        // bucket; quantiles must report its upper bound, not overflow.
        let h = LatencyHistogram::default();
        for _ in 0..3 {
            h.record(Duration::from_secs(1 << 30));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets[BUCKETS - 1], 3);
        let expect = bucket_upper_us(BUCKETS - 1);
        assert_eq!(s.p50_us, expect);
        assert_eq!(s.p99_us, expect);
    }

    #[test]
    fn single_sample_quantiles() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(1000));
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.p50_us, s.p99_us);
    }

    #[test]
    fn prometheus_net_series_are_well_formed() {
        let m = EngineMetrics::default();
        let net = NetMetrics::default();
        NetMetrics::inc_counter(&net.connections_total);
        NetMetrics::inc_counter(&net.shed_total);
        net.bytes_in.fetch_add(512, Ordering::Relaxed);
        net.bytes_out.fetch_add(2048, Ordering::Relaxed);
        net.write_queue_wait.record(Duration::from_micros(33));
        let text = prometheus_text_with_net(&m.snapshot(), &net.snapshot());
        for family in [
            "# TYPE ise_connections_total counter",
            "# TYPE ise_connections_open gauge",
            "# TYPE ise_shed_total counter",
            "# TYPE ise_bytes_in_total counter",
            "# TYPE ise_bytes_out_total counter",
            "# TYPE ise_oversize_lines_total counter",
            "# TYPE ise_idle_timeouts_total counter",
            "# TYPE ise_net_responses_total counter",
            "# TYPE ise_net_queue_wait_us histogram",
        ] {
            assert!(text.contains(family), "missing {family}\n{text}");
        }
        assert!(text.contains("ise_connections_total 1"), "{text}");
        assert!(text.contains("ise_shed_total 1"), "{text}");
        assert!(text.contains("ise_bytes_in_total 512"), "{text}");
        assert!(text.contains("ise_net_queue_wait_us_count 1"), "{text}");
        // The engine series are still present and every line stays
        // machine-parseable (f64: the residual histogram emits floats).
        assert!(text.contains("# TYPE ise_requests_total counter"), "{text}");
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad line: {line}");
            assert!(parts.next().is_some(), "bad line: {line}");
        }
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let m = EngineMetrics::default();
        EngineMetrics::inc(&m.requests);
        EngineMetrics::inc(&m.completed);
        m.queue_wait.record(Duration::from_micros(5));
        m.solve_time.record(Duration::from_micros(900));
        m.serialize_time.record(Duration::from_micros(12));
        let text = prometheus_text(&m.snapshot());
        assert!(text.contains("# TYPE ise_requests_total counter"), "{text}");
        assert!(text.contains("ise_requests_total 1"), "{text}");
        assert!(
            text.contains("# TYPE ise_queue_wait_us histogram"),
            "{text}"
        );
        assert!(
            text.contains("ise_queue_wait_us_bucket{le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(text.contains("ise_solve_time_us_sum 900"), "{text}");
        assert!(
            text.contains("# TYPE ise_deadline_overshoot_us histogram"),
            "{text}"
        );
        assert!(text.contains("ise_serialize_time_us_count 1"), "{text}");
        assert!(
            text.contains("# TYPE ise_session_reuse_total counter"),
            "{text}"
        );
        assert!(
            text.contains("ise_session_reuse_total{tier=\"cold\"} 0"),
            "{text}"
        );
        assert!(text.contains("# TYPE ise_sessions_open gauge"), "{text}");
        assert!(text.contains("# TYPE ise_cache_evictions gauge"), "{text}");
        assert!(
            text.contains("# TYPE ise_basis_cache_entries gauge"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE ise_lp_recoveries_total counter"),
            "{text}"
        );
        assert!(
            text.contains("ise_lp_recoveries_total{rung=\"dense\"} 0"),
            "{text}"
        );
        assert!(text.contains("# TYPE ise_lp_residual histogram"), "{text}");
        assert!(
            text.contains("ise_lp_residual_bucket{le=\"1e-6\"}"),
            "{text}"
        );
        // Bucket series must be cumulative: the +Inf bucket equals _count.
        let inf: Vec<&str> = text.lines().filter(|l| l.contains("le=\"+Inf\"")).collect();
        assert_eq!(inf.len(), 5, "{text}");
        // Every non-comment line is `name{labels} value` or `name value`
        // (f64: the residual histogram emits floats).
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad line: {line}");
            assert!(parts.next().is_some(), "bad line: {line}");
        }
    }

    #[test]
    fn residual_histogram_buckets_and_prometheus_series() {
        let m = EngineMetrics::default();
        m.lp_residual.record(1e-14);
        m.lp_residual.record(1e-7);
        m.lp_residual.record(0.5);
        m.lp_residual.record(f64::INFINITY); // clamps into +Inf bucket
        EngineMetrics::inc(&m.lp_recoveries_refactor);
        EngineMetrics::inc(&m.lp_recoveries_eta);
        EngineMetrics::inc(&m.lp_recoveries_dense);
        m.lp_lu_fill_nnz.fetch_max(321, Ordering::Relaxed);
        m.lp_lu_ft_updates.fetch_add(7, Ordering::Relaxed);
        m.lp_lu_sparse_solves.fetch_add(9, Ordering::Relaxed);
        m.lp_lu_dense_solves.fetch_add(2, Ordering::Relaxed);
        m.lp_dual_refreshes.fetch_add(5, Ordering::Relaxed);
        for drift in [3e-14f64, 2e-12, 1e-13] {
            m.lp_max_dual_drift_bits
                .fetch_max(drift.to_bits(), Ordering::Relaxed);
        }
        let snap = m.snapshot();
        assert_eq!(snap.lp_residual.count, 4);
        assert!(snap.lp_residual.sum >= 0.5);
        let text = prometheus_text(&snap);
        assert!(
            text.contains("ise_lp_recoveries_total{rung=\"refactor\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("ise_lp_recoveries_total{rung=\"eta\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("ise_lp_recoveries_total{rung=\"dense\"} 1"),
            "{text}"
        );
        assert!(text.contains("ise_lp_lu_fill_nnz 321"), "{text}");
        assert!(text.contains("ise_lp_lu_ft_updates_total 7"), "{text}");
        assert!(
            text.contains("ise_lp_lu_triangular_solves_total{path=\"sparse\"} 9"),
            "{text}"
        );
        assert!(
            text.contains("ise_lp_lu_triangular_solves_total{path=\"dense\"} 2"),
            "{text}"
        );
        assert!(text.contains("ise_lp_dual_refreshes_total 5"), "{text}");
        assert!(text.contains("ise_lp_max_dual_drift 2e-12"), "{text}");
        assert!(
            text.contains("ise_lp_residual_bucket{le=\"+Inf\"} 4"),
            "{text}"
        );
        // Cumulative: the 1e-12 bucket already contains the 1e-14 sample.
        assert!(
            text.contains("ise_lp_residual_bucket{le=\"1e-12\"} 1"),
            "{text}"
        );
        assert!(text.contains("ise_lp_residual_count 4"), "{text}");
    }
}
