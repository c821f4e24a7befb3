//! TCP frontend for the JSONL serve protocol: `ise serve --listen`.
//!
//! Std-only threading, no async runtime: one nonblocking acceptor thread
//! plus one thread per connection, each running the same `serve_lines`
//! loop as the stdin/file [`serve`](fn@crate::serve) path. Every
//! connection gets its own session scope — sessions opened over a
//! connection are pinned to it (commands from another connection get an
//! inline error) and are force-closed when the connection ends, however
//! it ends.
//!
//! # Robustness
//!
//! * **Load shedding**: at most [`NetOptions::max_connections`] are
//!   served concurrently; connections over the cap are answered with one
//!   inline `"error"` response and closed at accept time
//!   (`ise_shed_total`).
//! * **Bounded lines**: [`ServeOptions::max_line_len`] applies per
//!   connection; over-limit lines are discarded without buffering and
//!   answered inline (`ise_oversize_lines_total`).
//! * **Idle timeout**: a connection that sends nothing for
//!   [`NetOptions::idle_timeout`] is told so and closed
//!   (`ise_idle_timeouts_total`).
//! * **Bounded write queues**: the per-stream `max_pending` head-of-line
//!   discipline bounds buffered responses per connection; queue waits are
//!   histogrammed as `ise_net_queue_wait_us`.
//! * **Graceful drain**: a `{"cmd": "shutdown"}` line on any connection
//!   (or [`NetServer::shutdown`]) stops the acceptor — the listener
//!   closes, so late connects are refused by the OS — wakes every
//!   reader, drains all in-flight requests in order, flushes, and joins.
//!
//! Metrics (engine + net series) are written periodically and at exit to
//! [`ServeOptions::metrics_out`] in the Prometheus text format; per-phase
//! span timings (`net.read` / `net.write` / session solves) are merged
//! across connections into [`NetSummary::phases`].

use crate::engine::{Engine, EngineConfig};
use crate::metrics::{prometheus_text_with_net, MetricsSnapshot, NetMetrics, NetMetricsSnapshot};
use crate::serve::{
    immediate_response, serve_lines, LoopExit, ServeOptions, StreamScope, FALLBACK_ID_BASE,
};
use ise_obs::{PhaseTimings, Trace};
use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Network-frontend knobs on top of the per-stream [`ServeOptions`].
#[derive(Clone, Debug)]
pub struct NetOptions {
    /// Concurrent-connection cap; connections beyond it are shed at
    /// accept time with an inline error.
    pub max_connections: usize,
    /// Close a connection after this long without a complete read.
    /// `None` disables the timeout.
    pub idle_timeout: Option<Duration>,
    /// Per-connection stream options (`max_pending`, `max_line_len`,
    /// `metrics_out`, `metrics_interval`).
    pub serve: ServeOptions,
}

impl Default for NetOptions {
    fn default() -> NetOptions {
        NetOptions {
            max_connections: 256,
            idle_timeout: Some(Duration::from_secs(60)),
            serve: ServeOptions::default(),
        }
    }
}

/// Outcome of a completed [`NetServer`] run.
pub struct NetSummary {
    /// Connections accepted over the server's lifetime (shed included).
    pub connections: u64,
    /// Responses written across all connections.
    pub responses: u64,
    /// Engine metrics at shutdown.
    pub metrics: MetricsSnapshot,
    /// Network metrics at shutdown.
    pub net: NetMetricsSnapshot,
    /// Per-phase span timings merged across all connections.
    pub phases: PhaseTimings,
}

struct NetShared {
    engine: Engine,
    net: NetMetrics,
    opts: NetOptions,
    draining: AtomicBool,
    /// Read-shutdown handles for every live connection, keyed by
    /// connection id, so a drain can wake blocked readers.
    conns: Mutex<HashMap<u64, TcpStream>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    next_conn: AtomicU64,
    phases: Mutex<PhaseTimings>,
}

impl NetShared {
    /// Flip into draining mode (idempotent) and wake every blocked
    /// connection reader. `Shutdown::Read` surfaces as EOF on the
    /// reader's next (or in-flight) read, so each connection drains its
    /// pending responses and exits through its normal cleanup path.
    fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        let conns = self.conns.lock().expect("conns lock");
        for stream in conns.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }

    fn write_metrics(&self) {
        if let Some(path) = &self.opts.serve.metrics_out {
            let text = prometheus_text_with_net(&self.engine.metrics(), &self.net.snapshot());
            let _ = std::fs::write(path, text);
        }
    }
}

/// Counts bytes off the wire into `NetMetrics::bytes_in`.
struct CountingReader {
    inner: TcpStream,
    shared: Arc<NetShared>,
}

impl Read for CountingReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.shared
            .net
            .bytes_in
            .fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

/// Counts bytes onto the wire into `NetMetrics::bytes_out`.
struct CountingWriter {
    inner: TcpStream,
    shared: Arc<NetShared>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.shared
            .net
            .bytes_out
            .fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// A running TCP frontend. Dropping the server drains it; prefer
/// [`NetServer::join`] (block until a client sends `shutdown`) or
/// [`NetServer::shutdown`] (drain now) to observe the [`NetSummary`].
pub struct NetServer {
    shared: Arc<NetShared>,
    acceptor: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl NetServer {
    /// Bind `addr` (port 0 picks an ephemeral port — see
    /// [`NetServer::local_addr`]) and start accepting connections against
    /// a fresh engine built from `config`.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        config: EngineConfig,
        opts: NetOptions,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(NetShared {
            engine: Engine::new(config),
            net: NetMetrics::default(),
            opts,
            draining: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            handles: Mutex::new(Vec::new()),
            next_conn: AtomicU64::new(1),
            phases: Mutex::new(PhaseTimings::default()),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ise-net-accept".to_string())
                .spawn(move || accept_loop(listener, &shared))
                .expect("spawn acceptor thread")
        };
        Ok(NetServer {
            shared,
            acceptor: Some(acceptor),
            local_addr,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live engine and network snapshots, for monitors and tests.
    pub fn snapshot(&self) -> (MetricsSnapshot, NetMetricsSnapshot) {
        (self.shared.engine.metrics(), self.shared.net.snapshot())
    }

    /// Block until the server drains — a client sends
    /// `{"cmd": "shutdown"}`, or [`NetServer::shutdown`] was called from
    /// another handle — then join every thread, write final metrics, and
    /// report.
    pub fn join(mut self) -> NetSummary {
        self.join_inner()
    }

    /// Initiate a drain now and wait for it to complete: stop accepting
    /// (late connects are refused once the listener closes), let
    /// in-flight requests finish, flush every connection, join.
    pub fn shutdown(mut self) -> NetSummary {
        self.shared.begin_drain();
        self.join_inner()
    }

    fn join_inner(&mut self) -> NetSummary {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Connection threads can still be draining after the acceptor
        // exits; take handles in waves until none remain.
        loop {
            let drained: Vec<JoinHandle<()>> = {
                let mut handles = self.shared.handles.lock().expect("handles lock");
                std::mem::take(&mut *handles)
            };
            if drained.is_empty() {
                break;
            }
            for h in drained {
                let _ = h.join();
            }
        }
        self.shared.write_metrics();
        let net = self.shared.net.snapshot();
        NetSummary {
            connections: net.connections_total,
            responses: net.responses_total,
            metrics: self.shared.engine.metrics(),
            net,
            phases: self.shared.phases.lock().expect("phases lock").clone(),
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.shared.begin_drain();
            self.join_inner();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<NetShared>) {
    let mut last_metrics = Instant::now();
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => handle_accept(stream, shared),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
        reap_finished(shared);
        if last_metrics.elapsed() >= shared.opts.serve.metrics_interval {
            shared.write_metrics();
            last_metrics = Instant::now();
        }
    }
    // Dropping the listener here closes the socket: connects after this
    // point are refused by the OS rather than silently queued.
}

/// Join connection threads that already finished so the handle list does
/// not grow with total (rather than concurrent) connections.
fn reap_finished(shared: &NetShared) {
    let finished: Vec<JoinHandle<()>> = {
        let mut handles = shared.handles.lock().expect("handles lock");
        let mut finished = Vec::new();
        let mut i = 0;
        while i < handles.len() {
            if handles[i].is_finished() {
                finished.push(handles.swap_remove(i));
            } else {
                i += 1;
            }
        }
        finished
    };
    for h in finished {
        let _ = h.join();
    }
}

/// Best-effort single-response write used outside the serve loop
/// (shedding, drain refusals, idle-timeout notices).
fn write_notice(stream: &mut dyn Write, message: String) {
    let response = immediate_response(FALLBACK_ID_BASE, message);
    let json = serde_json::to_string(&response).expect("response serialization is infallible");
    let _ = writeln!(stream, "{json}");
    let _ = stream.flush();
}

fn handle_accept(mut stream: TcpStream, shared: &Arc<NetShared>) {
    NetMetrics::inc_counter(&shared.net.connections_total);
    if shared.draining.load(Ordering::SeqCst) {
        write_notice(
            &mut stream,
            "server is draining; connection refused".to_string(),
        );
        return;
    }
    if shared.net.connections_open.load(Ordering::SeqCst) >= shared.opts.max_connections as u64 {
        NetMetrics::inc_counter(&shared.net.shed_total);
        write_notice(
            &mut stream,
            format!(
                "server at connection capacity ({}); retry later",
                shared.opts.max_connections
            ),
        );
        return;
    }
    shared.net.connections_open.fetch_add(1, Ordering::SeqCst);
    let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    // Two extra handles per connection: one registered for drain wake-ups,
    // one for the reader (the original becomes the writer).
    let (drain_handle, reader) = match (stream.try_clone(), stream.try_clone()) {
        (Ok(a), Ok(b)) => (a, b),
        _ => {
            shared.net.connections_open.fetch_sub(1, Ordering::SeqCst);
            return;
        }
    };
    shared
        .conns
        .lock()
        .expect("conns lock")
        .insert(conn_id, drain_handle);
    // A drain that raced the insert above may have missed this
    // connection's wake-up; re-check so it cannot block the drain.
    if shared.draining.load(Ordering::SeqCst) {
        let _ = stream.shutdown(Shutdown::Read);
    }
    let handle = {
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name(format!("ise-net-conn-{conn_id}"))
            .spawn(move || serve_connection(reader, stream, conn_id, &shared))
            .expect("spawn connection thread")
    };
    shared.handles.lock().expect("handles lock").push(handle);
}

/// Socket read timeout driving the serve loop's poll ticks: each
/// `WouldBlock` wakeup drains resolved responses to the peer and checks
/// the idle budget. Short enough that response latency while the peer is
/// quiet stays negligible; long enough that an idle connection costs
/// ~40 wakeups/s.
const POLL_TICK: Duration = Duration::from_millis(25);

fn serve_connection(reader: TcpStream, writer: TcpStream, conn_id: u64, shared: &Arc<NetShared>) {
    let _ = writer.set_nodelay(true);
    let _ = reader.set_read_timeout(Some(POLL_TICK));
    let scope = shared.engine.new_scope();
    let trace = Trace::new(1 << 12);
    {
        let _guard = trace.install();
        let _conn_span = ise_obs::Span::enter("net.conn");
        let mut reader = BufReader::new(CountingReader {
            inner: reader,
            shared: Arc::clone(shared),
        });
        let mut writer = CountingWriter {
            inner: writer,
            shared: Arc::clone(shared),
        };
        let mut responses = 0u64;
        let ctx = StreamScope {
            scope,
            net: Some(&shared.net),
            idle_timeout: shared.opts.idle_timeout,
        };
        let result = serve_lines(
            &shared.engine,
            &mut reader,
            &mut writer,
            &shared.opts.serve,
            &ctx,
            &mut responses,
        );
        match &result {
            Ok(LoopExit::Shutdown) => shared.begin_drain(),
            Ok(LoopExit::IdleTimeout) => {
                NetMetrics::inc_counter(&shared.net.idle_timeouts);
                write_notice(
                    &mut writer,
                    format!(
                        "idle timeout ({:?} without a request): closing connection",
                        shared.opts.idle_timeout.unwrap_or_default()
                    ),
                );
            }
            // EOF is a normal close; an I/O error is an abrupt peer
            // disconnect — either way the cleanup below reaps the
            // connection's sessions.
            Ok(LoopExit::Eof) | Err(_) => {}
        }
    }
    shared.engine.close_scope(scope);
    shared.conns.lock().expect("conns lock").remove(&conn_id);
    shared.net.connections_open.fetch_sub(1, Ordering::SeqCst);
    let timings = PhaseTimings::from_records(&trace.drain());
    shared.phases.lock().expect("phases lock").merge(&timings);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The full loopback suite (concurrency, chaos, soak) lives in
    // `tests/net.rs`; these unit tests cover pieces with no socket.

    #[test]
    fn default_options_are_sane() {
        let opts = NetOptions::default();
        assert_eq!(opts.max_connections, 256);
        assert_eq!(opts.idle_timeout, Some(Duration::from_secs(60)));
        assert!(opts.serve.max_line_len >= 1 << 20);
    }

    #[test]
    fn bind_and_drop_terminates_cleanly() {
        let server = NetServer::bind(
            "127.0.0.1:0",
            EngineConfig::default(),
            NetOptions::default(),
        )
        .unwrap();
        assert_ne!(server.local_addr().port(), 0);
        // Drop runs the drain path with zero connections.
    }

    #[test]
    fn shutdown_with_no_traffic_reports_empty_summary() {
        let server = NetServer::bind(
            "127.0.0.1:0",
            EngineConfig::default(),
            NetOptions::default(),
        )
        .unwrap();
        let addr = server.local_addr();
        let summary = server.shutdown();
        assert_eq!(summary.connections, 0);
        assert_eq!(summary.responses, 0);
        assert_eq!(summary.net.connections_open, 0);
        // The listener is closed: a fresh connect must be refused.
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err());
    }
}
