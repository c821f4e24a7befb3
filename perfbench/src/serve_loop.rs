//! `serve_loopback`: an in-process `NetServer` on 127.0.0.1 takes an open
//! loop of seeded Poisson arrivals over at most two connections. Requests
//! are small `uniform` instances; a share are exact repeats of recent
//! requests (result-cache hits) and a share carry a tight `timeout_ms`
//! (deadline, then greedy fallback).

use crate::gen::{mix, serve_instance};
use crate::staged::{check_reproduces, traced_solve, LayerProfile};
use crate::stats::{
    median, ms, quantile, share, Metrics, SetupTimer, SETUP_REPS_AFTER, SETUP_REPS_BEFORE,
};
use crate::{Args, RunOutcome};
use ise_engine::net::{NetOptions, NetServer};
use ise_engine::EngineConfig;
use ise_model::{validate, Instance, Schedule};
use ise_sched::{solve, SolverOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Deserialize;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Offered load, requests per second: below the measured capacity of a
/// two-core machine, so the queue stays short.
const RATE_RPS: f64 = 100.0;
/// Share of requests that repeat one of the last [`REPEAT_WINDOW`] fresh
/// instances.
const REPEAT_SHARE: f64 = 0.25;
const REPEAT_WINDOW: usize = 256;
/// Share of requests carrying the tight deadline [`TIGHT_TIMEOUT_MS`].
const DEADLINE_SHARE: f64 = 0.10;
const TIGHT_TIMEOUT_MS: u64 = 1;
/// A response later than this, counted from its scheduled send time,
/// misses the latency limit of `goodput_rps`.
const LATENCY_LIMIT: Duration = Duration::from_millis(50);
/// Client connections; arrivals alternate between them.
const CONNECTIONS: usize = 2;
/// Distinct request instances the traced run also solves staged.
const TRACED_INSTANCES: usize = 200;
/// A connection that stays silent this long has lost its responses.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// One planned request.
struct Planned {
    /// Send time, relative to the start of the measured phase.
    at: Duration,
    /// Index into the distinct instances.
    instance: usize,
    deadline: bool,
    line: String,
}

/// The seeded arrival plan: `RATE_RPS × seconds` Poisson arrivals over
/// `seconds` (a Poisson process given its count: sorted uniform send
/// times), plus the distinct instances they carry.
fn plan(seed: u64, seconds: f64, scale: crate::gen::Scale) -> (Vec<Planned>, Vec<Instance>) {
    let mut rng = StdRng::seed_from_u64(mix(seed, u64::MAX - 2));
    let count = (RATE_RPS * seconds).round().max(1.0) as usize;
    const TICKS: u64 = 1 << 40;
    let mut times: Vec<f64> = (0..count)
        .map(|_| rng.gen_range(0..TICKS) as f64 / TICKS as f64 * seconds)
        .collect();
    times.sort_by(f64::total_cmp);
    let mut instances: Vec<Instance> = Vec::new();
    let mut planned = Vec::new();
    for t in times {
        let repeat = !instances.is_empty() && rng.gen_bool(REPEAT_SHARE);
        let instance = if repeat {
            let lo = instances.len().saturating_sub(REPEAT_WINDOW);
            rng.gen_range(lo..instances.len())
        } else {
            instances.push(serve_instance(seed, instances.len() as u64, scale));
            instances.len() - 1
        };
        let deadline = rng.gen_bool(DEADLINE_SHARE);
        let id = planned.len();
        let body = serde_json::to_string(&instances[instance]).expect("instance serializes");
        let line = if deadline {
            format!("{{\"id\": {id}, \"instance\": {body}, \"timeout_ms\": {TIGHT_TIMEOUT_MS}}}\n")
        } else {
            format!("{{\"id\": {id}, \"instance\": {body}}}\n")
        };
        planned.push(Planned {
            at: Duration::from_secs_f64(t),
            instance,
            deadline,
            line,
        });
    }
    (planned, instances)
}

#[derive(Deserialize)]
struct Phase {
    name: String,
    total_us: u64,
}

#[derive(Deserialize)]
struct Phases {
    phases: Vec<Phase>,
}

/// The response fields the client reads.
#[derive(Deserialize)]
struct Response {
    id: u64,
    status: String,
    cached: bool,
    schedule: Option<Schedule>,
    error: Option<String>,
    solve_us: u64,
    phases: Option<Phases>,
}

/// A response and the client-clock time it arrived.
struct Received {
    at: Instant,
    resp: Response,
}

/// A running server with its client connections.
struct Bench {
    server: NetServer,
    conns: Vec<TcpStream>,
}

fn start(trace: bool, warmup: &Instance) -> Result<Bench, String> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = EngineConfig {
        workers,
        trace_phases: trace,
        ..EngineConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", config, NetOptions::default())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let body = serde_json::to_string(warmup).expect("instance serializes");
    let mut conns = Vec::new();
    for c in 0..CONNECTIONS {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        // One warm-up request per connection: the engine's workers and the
        // connection threads are up before the measured phase starts.
        let id = u64::MAX / 4 + c as u64;
        let line = format!("{{\"id\": {id}, \"instance\": {body}}}\n");
        stream
            .write_all(line.as_bytes())
            .map_err(|e| e.to_string())?;
        let mut reply = String::new();
        BufReader::new(&stream)
            .read_line(&mut reply)
            .map_err(|e| format!("warm-up reply: {e}"))?;
        if !reply.contains("\"status\":\"ok\"") {
            return Err(format!("warm-up request failed: {reply}"));
        }
        conns.push(stream);
    }
    Ok(Bench { server, conns })
}

/// Read `expected` responses from one connection.
fn read_responses(stream: TcpStream, expected: usize) -> Vec<Received> {
    let mut out = Vec::with_capacity(expected);
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    while out.len() < expected {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let at = Instant::now();
        if let Ok(resp) = serde_json::from_str::<Response>(line.trim_end()) {
            out.push(Received { at, resp });
        }
    }
    out
}

/// Engine-, net- and client-side readings of the traced run.
#[derive(Default)]
struct EngineProfile {
    answered: usize,
    cached: usize,
    fallbacks: usize,
    queue_wait_ms: Vec<f64>,
    solve_ms: Vec<f64>,
    serialize_ms_p50: f64,
    overshoot_ms: Vec<f64>,
    net_ms: Vec<f64>,
    lateness: Duration,
    latency_p99_ms: f64,
}

impl EngineProfile {
    fn emit(&self, m: &mut Metrics) {
        let p90 = |v: &[f64]| quantile(v, 0.9);
        m.put("engine.queue_wait_ms_p90", p90(&self.queue_wait_ms), "ms");
        m.put("engine.solve_ms_p50", median(&self.solve_ms), "ms");
        m.put("engine.serialize_ms_p50", self.serialize_ms_p50, "ms");
        let n = self.answered as f64;
        m.put(
            "engine.cache_hit_share",
            share(self.cached as f64, n),
            "ratio",
        );
        m.put(
            "engine.fallback_share",
            share(self.fallbacks as f64, n),
            "ratio",
        );
        let overshoot = p90(&self.overshoot_ms);
        m.put("engine.deadline_overshoot_ms_p90", overshoot, "ms");
        m.put("net.overhead_ms_p50", median(&self.net_ms), "ms");
        m.put("client.lateness_ms_max", ms(self.lateness), "ms");
        m.put("client.latency_p99_ms", self.latency_p99_ms, "ms");
    }
}

/// Engine- and net-layer metrics on a workload that never starts a server.
pub fn emit_bypassed_engine(m: &mut Metrics) {
    EngineProfile::default().emit(m);
}

pub fn run(args: &Args) -> Result<RunOutcome, String> {
    let warmup = serve_instance(args.seed, u64::MAX, args.scale);
    // Set-up runs several times; only the last server of the first round is
    // measured (the others drain and stop when they are dropped).
    let mut setup = || {
        let (planned, instances) = plan(args.seed, args.seconds, args.scale);
        let bench = start(args.trace, &warmup)?;
        Ok((bench, planned, instances))
    };
    let mut timer = SetupTimer::default();
    let (bench, planned, instances) = timer.run(SETUP_REPS_BEFORE, &mut setup)?;
    let Bench { server, conns } = bench;

    let per_conn: Vec<usize> = (0..CONNECTIONS)
        .map(|c| planned.iter().skip(c).step_by(CONNECTIONS).count())
        .collect();
    let mut writers = Vec::new();
    let mut readers = Vec::new();
    for (c, stream) in conns.into_iter().enumerate() {
        let read_half = stream.try_clone().map_err(|e| e.to_string())?;
        let expected = per_conn[c];
        readers.push(std::thread::spawn(move || {
            read_responses(read_half, expected)
        }));
        writers.push(stream);
    }

    let started = Instant::now();
    let mut sent_at = Vec::with_capacity(planned.len());
    let mut lateness = Duration::ZERO;
    for (k, p) in planned.iter().enumerate() {
        let due = started + p.at;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let actual = Instant::now();
        lateness = lateness.max(actual.saturating_duration_since(due));
        // A failed send leaves its response missing, which is counted as a
        // failed op below.
        let _ = writers[k % CONNECTIONS].write_all(p.line.as_bytes());
        sent_at.push(actual);
    }
    let mut received: Vec<Option<Received>> = planned.iter().map(|_| None).collect();
    for r in readers {
        for got in r.join().map_err(|_| "reader thread panicked".to_string())? {
            if let Some(slot) = received.get_mut(got.resp.id as usize) {
                *slot = Some(got);
            }
        }
    }
    let wall = started.elapsed().as_secs_f64();
    drop(writers);
    let (snapshot, _) = server.snapshot();
    server.shutdown();

    // Check every response, then measure.
    let mut latencies = Vec::new();
    let (mut failed, mut correct, mut infeasible) = (0u64, true, 0u64);
    let (mut within_limit, mut calibrations, mut machines) = (0u64, 0usize, 0usize);
    let mut e = EngineProfile {
        serialize_ms_p50: snapshot.serialize_time.p50_us as f64 / 1e3,
        lateness,
        ..EngineProfile::default()
    };
    for (k, p) in planned.iter().enumerate() {
        let Some(got) = &received[k] else {
            failed += 1;
            continue;
        };
        e.answered += 1;
        let resp = &got.resp;
        let inst = &instances[p.instance];
        let latency = got.at - (started + p.at);
        latencies.push(ms(latency));
        let scheduled = match (resp.status.as_str(), &resp.schedule) {
            ("ok", Some(s)) | ("fallback", Some(s)) => {
                if validate(inst, s).is_err() {
                    correct = false;
                    failed += 1;
                    continue;
                }
                s
            }
            ("error", _)
                if resp
                    .error
                    .as_deref()
                    .is_some_and(|msg| msg.contains("infeasible")) =>
            {
                infeasible += 1;
                continue;
            }
            _ => {
                failed += 1;
                continue;
            }
        };
        e.cached += usize::from(resp.cached);
        e.fallbacks += usize::from(resp.status == "fallback");
        if resp.status == "ok" && latency <= LATENCY_LIMIT {
            within_limit += 1;
        }
        if !p.deadline {
            calibrations += scheduled.num_calibrations();
            machines += scheduled.machines_used();
        }
        // Service time on the client clock: actual send to receipt.
        let service = got.at - sent_at[k];
        if p.deadline {
            e.overshoot_ms.push(ms(service) - TIGHT_TIMEOUT_MS as f64);
        }
        if !resp.cached {
            e.solve_ms.push(resp.solve_us as f64 / 1e3);
        }
        let wait_us = resp.phases.as_ref().map_or(0, |ph| {
            ph.phases
                .iter()
                .filter(|x| x.name == "engine.queue_wait")
                .map(|x| x.total_us)
                .sum()
        });
        e.queue_wait_ms.push(wait_us as f64 / 1e3);
        e.net_ms
            .push(ms(service) - (wait_us + resp.solve_us) as f64 / 1e3);
    }

    let mut m = Metrics::default();
    if args.trace {
        let mut layers = LayerProfile::default();
        let opts = SolverOptions::default();
        for inst in instances.iter().take(TRACED_INSTANCES) {
            let t0 = Instant::now();
            let solved = solve(inst, &opts).map(|o| o.schedule);
            let untraced = t0.elapsed();
            let traced = traced_solve(inst);
            if !check_reproduces(&traced.schedule, &solved) {
                correct = false;
                failed += 1;
            }
            layers.add(traced, untraced);
        }
        layers.emit(&mut m);
        crate::session_loop::emit_bypassed_session(&mut m);
        e.latency_p99_ms = quantile(&latencies, 0.99);
        e.emit(&mut m);
    } else {
        timer.run(SETUP_REPS_AFTER, &mut setup)?;
        m.put("setup_s", timer.median(), "s");
        m.put("latency_p50_ms", quantile(&latencies, 0.5), "ms");
        m.put("latency_p90_ms", quantile(&latencies, 0.9), "ms");
        m.put("throughput_ops_s", e.answered as f64 / wall, "1/s");
        m.put("goodput_rps", within_limit as f64 / wall, "1/s");
        m.put("calibrations", calibrations as f64, "count");
        m.put("machines", machines as f64, "count");
    }
    Ok(RunOutcome {
        correct,
        attempted: planned.len() as u64,
        failed,
        infeasible,
        metrics: m,
    })
}
