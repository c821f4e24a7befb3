//! JSONL batch serving: one request per input line, one response per
//! output line, in input order, **streamed** — each response is written
//! (and flushed) as soon as it and everything before it has resolved,
//! so a consumer tailing the output sees results while the input is
//! still being produced.
//!
//! Request lines are [`EngineRequest`] JSON objects; the only required
//! field is `instance`. Malformed lines produce an `"error"` response
//! instead of aborting the stream, so one bad record cannot poison a
//! batch. Blank lines are skipped. Lines longer than
//! [`ServeOptions::max_line_len`] are discarded without buffering and
//! answered with an inline error, so a single runaway record (or a
//! hostile network client) cannot balloon server memory.
//!
//! # Sessions
//!
//! A request carrying a `session` command (`{"session": {"op": "open"},
//! "instance": {...}}`, then `delta`/`solve`/`close` with the returned
//! `sid`) is executed synchronously in stream order against the engine's
//! incremental-session registry instead of the worker pool — session
//! state is ordered, so a staged delta is always visible to the next
//! `solve` on the stream. Session ids live in their own
//! [`crate::engine::SESSION_ID_BASE`] (`2^62`) namespace and never
//! collide with response ids. Over TCP (see [`crate::net`]) sessions are
//! additionally pinned to the connection that opened them.
//!
//! # Admin commands
//!
//! A line of the form `{"cmd": "shutdown"}` (optionally with an `id`)
//! initiates a graceful drain: no further input is read, every in-flight
//! request completes and is written in order, the shutdown line itself is
//! acknowledged with an `"ok"` response, and the stream ends. On the TCP
//! frontend this drains the whole server (stop accepting, drain every
//! connection, flush, exit).
//!
//! # Id contract
//!
//! Every response echoes an id. Explicit request ids must be below
//! [`FALLBACK_ID_BASE`] (`2^63`); ids at or above it are reserved for the
//! server and such a request gets an `"error"` response. Requests without
//! an id are assigned `FALLBACK_ID_BASE + line_number` (0-based), which
//! cannot collide with any valid explicit id — mixing explicit and
//! implicit ids in one stream is safe.
//!
//! # Threads and backpressure
//!
//! Each stream runs two threads: the caller reads and dispatches lines,
//! and a writer thread writes each response as soon as it resolves. They
//! share a channel of [`ServeOptions::max_pending`] entries; when it is
//! full (the head-of-line response is still solving, or the peer reads
//! slowly) the reader blocks instead of buffering the whole input.

use crate::engine::{
    status, Engine, EngineConfig, EngineRequest, EngineResponse, ResponseSlot, GLOBAL_SCOPE,
};
use crate::metrics::{prometheus_text, MetricsSnapshot, NetMetrics};
use std::io::{BufRead, ErrorKind, Write};
use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::{Duration, Instant};

/// First id the server assigns to requests that omit `id`. Explicit ids
/// must be strictly below this; the range `[2^63, 2^64)` belongs to the
/// server.
pub const FALLBACK_ID_BASE: u64 = 1 << 63;

enum Pending {
    /// Submitted; the worker pool will fill the slot.
    InFlight(ResponseSlot),
    /// Failed before reaching the pool (parse error, reserved id,
    /// rejected submit) or resolved synchronously (session command,
    /// admin ack).
    Immediate(Box<EngineResponse>),
}

impl Pending {
    /// Block until the response is available.
    fn wait(self) -> EngineResponse {
        match self {
            Pending::InFlight(slot) => slot.wait(),
            Pending::Immediate(r) => *r,
        }
    }
}

/// A pending response plus the instant it entered the write queue, so the
/// network frontend can histogram write-queue wait.
struct Entry {
    pending: Pending,
    queued: Instant,
}

impl Entry {
    fn new(pending: Pending) -> Entry {
        Entry {
            pending,
            queued: Instant::now(),
        }
    }
}

/// How [`serve_with`] streams and reports.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Maximum responses queued behind the one being written; reading
    /// blocks while the queue is full.
    pub max_pending: usize,
    /// Maximum accepted request-line length in bytes. Longer lines are
    /// discarded (never buffered) and answered with an inline error.
    pub max_line_len: usize,
    /// Write engine metrics in the Prometheus text format to this path,
    /// periodically and at end of stream.
    pub metrics_out: Option<PathBuf>,
    /// Cadence of periodic metrics writes (checked between input lines).
    pub metrics_interval: Duration,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            max_pending: 1024,
            max_line_len: DEFAULT_MAX_LINE_LEN,
            metrics_out: None,
            metrics_interval: Duration::from_secs(1),
        }
    }
}

/// Default [`ServeOptions::max_line_len`]: 1 MiB comfortably fits any
/// realistic instance while bounding per-line memory.
pub const DEFAULT_MAX_LINE_LEN: usize = 1 << 20;

/// Outcome of one [`serve`] run.
pub struct ServeSummary {
    /// Responses written.
    pub responses: u64,
    /// Engine metrics at end of stream.
    pub metrics: MetricsSnapshot,
}

pub(crate) fn immediate_response(id: u64, message: String) -> EngineResponse {
    EngineResponse {
        id,
        status: status::ERROR.to_string(),
        cached: false,
        timed_out: false,
        calibrations: None,
        schedule: None,
        error: Some(message),
        solve_us: 0,
        lp: None,
        phases: None,
        session: None,
    }
}

fn immediate_error(id: u64, message: String) -> Pending {
    Pending::Immediate(Box::new(immediate_response(id, message)))
}

/// One line's worth of outcome from a bounded read.
pub(crate) enum LineRead {
    /// A complete line, newline (and any trailing `\r`) stripped.
    Line(String),
    /// The line exceeded the limit; its bytes through the next newline
    /// (or EOF) were consumed and discarded.
    TooLong,
    /// End of input with no pending bytes.
    Eof,
}

/// Incremental bounded line assembly. Partial-line state survives
/// `WouldBlock`/`TimedOut` errors from the underlying reader, so a
/// socket with a short read timeout can be *polled* for the next line —
/// that is how the TCP frontend checks its idle budget while the peer is
/// quiet — without ever losing bytes already pulled off the wire.
pub(crate) struct LineReader {
    buf: Vec<u8>,
    overlong: bool,
}

impl LineReader {
    pub(crate) fn new() -> LineReader {
        LineReader {
            buf: Vec::new(),
            overlong: false,
        }
    }

    /// Read one newline-terminated line from `input`, buffering at most
    /// `max_len` bytes. An over-limit line is *consumed* (streamed past
    /// in buffer-sized chunks, never accumulated) and reported as
    /// [`LineRead::TooLong`], so the reader stays line-synchronized with
    /// the peer. Invalid UTF-8 is replaced rather than treated as an I/O
    /// error — a garbage line should produce one inline parse error, not
    /// kill the stream.
    pub(crate) fn poll_line<R: BufRead>(
        &mut self,
        input: &mut R,
        max_len: usize,
    ) -> std::io::Result<LineRead> {
        loop {
            let available = match input.fill_buf() {
                Ok(a) => a,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Partial-line state stays in `self` for the next poll.
                Err(e) => return Err(e),
            };
            if available.is_empty() {
                // EOF. A partial unterminated line still counts as a line
                // (matching `BufRead::lines`); an overlong one is
                // reported.
                let overlong = std::mem::replace(&mut self.overlong, false);
                let buf = std::mem::take(&mut self.buf);
                return Ok(if overlong {
                    LineRead::TooLong
                } else if buf.is_empty() {
                    LineRead::Eof
                } else {
                    finish_line(buf)
                });
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    // A trailing `\r` is protocol framing, not payload:
                    // it is stripped below, so it does not count against
                    // the limit.
                    let ends_cr = if pos > 0 {
                        available[pos - 1] == b'\r'
                    } else {
                        self.buf.last() == Some(&b'\r')
                    };
                    let content_len = self.buf.len() + pos - usize::from(ends_cr);
                    if !self.overlong && content_len > max_len {
                        self.overlong = true;
                        self.buf.clear();
                    }
                    let overlong = std::mem::replace(&mut self.overlong, false);
                    let mut buf = std::mem::take(&mut self.buf);
                    if !overlong {
                        buf.extend_from_slice(&available[..pos]);
                    }
                    input.consume(pos + 1);
                    return Ok(if overlong {
                        LineRead::TooLong
                    } else {
                        finish_line(buf)
                    });
                }
                None => {
                    let len = available.len();
                    if !self.overlong {
                        // `+ 1` leaves room for a `\r` that may precede a
                        // newline in the next chunk; the exact check
                        // happens at the newline. Memory stays bounded by
                        // max + 1.
                        if self.buf.len() + len > max_len + 1 {
                            self.overlong = true;
                            self.buf.clear();
                        } else {
                            self.buf.extend_from_slice(available);
                        }
                    }
                    input.consume(len);
                }
            }
        }
    }
}

/// One-shot [`LineReader::poll_line`] for inputs without read timeouts.
#[cfg(test)]
pub(crate) fn read_bounded_line<R: BufRead>(
    input: &mut R,
    max_len: usize,
) -> std::io::Result<LineRead> {
    LineReader::new().poll_line(input, max_len)
}

fn finish_line(mut buf: Vec<u8>) -> LineRead {
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
}

/// Serialize one response, record the serialization latency, write and
/// flush it.
fn write_response<W: Write>(
    engine: &Engine,
    output: &mut W,
    response: &EngineResponse,
    responses: &mut u64,
) -> std::io::Result<()> {
    let started = Instant::now();
    let json = serde_json::to_string(response).expect("response serialization is infallible");
    engine.record_serialize_time(started.elapsed());
    writeln!(output, "{json}")?;
    output.flush()?;
    *responses += 1;
    Ok(())
}

/// Write one resolved entry: record its write-queue wait (network runs
/// only), then serialize and flush.
fn write_entry<W: Write>(
    engine: &Engine,
    output: &mut W,
    response: &EngineResponse,
    queued: Instant,
    responses: &mut u64,
    net: Option<&NetMetrics>,
) -> std::io::Result<()> {
    let _span = ise_obs::Span::enter("net.write");
    if let Some(net) = net {
        net.write_queue_wait.record(queued.elapsed());
        NetMetrics::inc_counter(&net.responses_total);
    }
    write_response(engine, output, response, responses)
}

/// The writer half of a stream: take each queued entry in input order,
/// wait for it to resolve, and write and flush it at once. Returns when
/// the reader drops its sender and the queue is empty, or on the first
/// write error (dropping the receiver, so the reader's next send fails).
fn write_entries<W: Write>(
    engine: &Engine,
    queue: Receiver<Entry>,
    output: &mut W,
    responses: &mut u64,
    net: Option<&NetMetrics>,
) -> std::io::Result<()> {
    for entry in queue {
        let response = entry.pending.wait();
        write_entry(engine, output, &response, entry.queued, responses, net)?;
    }
    output.flush()
}

fn write_metrics_file(engine: &Engine, path: &std::path::Path) -> std::io::Result<()> {
    let text = prometheus_text(&engine.metrics());
    std::fs::write(path, text)
}

/// Why [`serve_lines`] stopped reading.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LoopExit {
    /// Input ended (EOF or peer disconnect).
    Eof,
    /// A `{"cmd": "shutdown"}` admin line was processed.
    Shutdown,
    /// A read timed out (`WouldBlock`/`TimedOut`) — the stream's idle
    /// timeout fired. Only reachable when the input has a read deadline.
    IdleTimeout,
}

/// Which stream this loop serves: its session scope and, for network
/// connections, the shared net metrics and idle budget.
pub(crate) struct StreamScope<'a> {
    /// Session scope commands on this stream run under
    /// ([`GLOBAL_SCOPE`] for stdin/file serving).
    pub scope: u64,
    /// Network counters, when this stream is a TCP connection.
    pub net: Option<&'a NetMetrics>,
    /// Give up on the stream when this long passes without a *complete*
    /// line (so a byte-trickling slow-loris cannot hold the connection
    /// open either). Requires the input to have a short read timeout,
    /// whose `WouldBlock` wakeups pace this check.
    pub idle_timeout: Option<Duration>,
}

impl StreamScope<'_> {
    pub(crate) fn global() -> StreamScope<'static> {
        StreamScope {
            scope: GLOBAL_SCOPE,
            net: None,
            idle_timeout: None,
        }
    }
}

enum ParsedLine {
    Entry(Pending),
    /// The shutdown acknowledgment; the caller drains and stops reading.
    Shutdown(Pending),
}

/// Classify and dispatch one non-blank input line: admin command,
/// session command (synchronous, scope-checked), or worker-pool submit.
fn parse_line(engine: &Engine, scope: u64, line: &str, lineno: usize) -> ParsedLine {
    let fallback_id = FALLBACK_ID_BASE + lineno as u64;
    // Admin commands carry a top-level `"cmd"` key. The substring check is
    // a fast path: a `"cmd"` that merely appears inside some value falls
    // through to the normal request parse below.
    if line.contains("\"cmd\"") {
        if let Ok(v) = serde_json::from_str::<serde_json::Value>(line) {
            if let Some(cmd) = v.get("cmd").and_then(|c| c.as_str()) {
                let id = v
                    .get("id")
                    .and_then(|i| i.as_u64())
                    .filter(|&i| i < FALLBACK_ID_BASE)
                    .unwrap_or(fallback_id);
                return match cmd {
                    "shutdown" => {
                        let mut ack = immediate_response(id, String::new());
                        ack.status = status::OK.to_string();
                        ack.error = None;
                        ParsedLine::Shutdown(Pending::Immediate(Box::new(ack)))
                    }
                    other => ParsedLine::Entry(immediate_error(
                        id,
                        format!(
                            "line {}: unknown admin cmd `{other}` (expected shutdown)",
                            lineno + 1
                        ),
                    )),
                };
            }
        }
    }
    let entry = match serde_json::from_str::<EngineRequest>(line) {
        Ok(mut request) => match request.id {
            Some(explicit) if explicit >= FALLBACK_ID_BASE => immediate_error(
                explicit,
                format!(
                    "line {}: id {explicit} is in the server-reserved range \
                     (ids must be < {FALLBACK_ID_BASE})",
                    lineno + 1
                ),
            ),
            _ => {
                if request.id.is_none() {
                    request.id = Some(fallback_id);
                }
                let id = request.id.expect("id assigned above");
                if request.session.is_some() {
                    // Session commands are ordered stream state (a delta
                    // must be visible to the next solve), so they run
                    // synchronously here instead of on the worker pool.
                    Pending::Immediate(Box::new(engine.session_command_scoped(id, &request, scope)))
                } else {
                    match engine.submit(request) {
                        Ok(slot) => Pending::InFlight(slot),
                        Err(e) => immediate_error(id, e.to_string()),
                    }
                }
            }
        },
        Err(e) => immediate_error(fallback_id, format!("line {}: {e}", lineno + 1)),
    };
    ParsedLine::Entry(entry)
}

/// The serve loop shared by the stdin/file path and every TCP connection.
/// The calling thread reads bounded lines, dispatches them against
/// `engine`, and queues each entry on a channel of `max_pending` slots; a
/// scoped writer thread writes and flushes each response, in input order,
/// the moment it resolves. Returns why reading stopped; every queued entry
/// is written and flushed before returning. A write error stops the
/// reader and is returned ahead of any read outcome.
pub(crate) fn serve_lines<R: BufRead, W: Write + Send>(
    engine: &Engine,
    input: &mut R,
    output: &mut W,
    opts: &ServeOptions,
    ctx: &StreamScope<'_>,
    responses: &mut u64,
) -> std::io::Result<LoopExit> {
    let (queue, entries) = sync_channel(opts.max_pending.max(1));
    // Carry the stream's trace onto the writer so its `net.write` spans
    // are recorded next to the reader's `net.read` spans.
    let trace = ise_obs::SpanContext::current();
    let net = ctx.net;
    std::thread::scope(|s| {
        let writer = s.spawn(move || {
            let _trace = trace.install();
            write_entries(engine, entries, output, responses, net)
        });
        let read = read_lines(engine, input, opts, ctx, queue);
        let written = writer.join().expect("serve writer thread panicked");
        written.and(read)
    })
}

/// The reader half of [`serve_lines`]. Consumes the sender, so the writer
/// drains and exits once this returns. A blocked `send` is the
/// backpressure: with `max_pending` entries queued behind the one being
/// written, the stream stops reading.
fn read_lines<R: BufRead>(
    engine: &Engine,
    input: &mut R,
    opts: &ServeOptions,
    ctx: &StreamScope<'_>,
    queue: SyncSender<Entry>,
) -> std::io::Result<LoopExit> {
    let mut line_reader = LineReader::new();
    let mut last_metrics = Instant::now();
    let mut last_line = Instant::now();
    let mut lineno = 0usize;
    loop {
        let line = {
            let _span = ise_obs::Span::enter("net.read");
            line_reader.poll_line(input, opts.max_line_len)
        };
        let parsed = match line {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // A read-timeout tick, not (yet) an idle disconnect: give
                // up on a genuinely idle stream or poll again.
                match ctx.idle_timeout {
                    Some(idle) if last_line.elapsed() >= idle => return Ok(LoopExit::IdleTimeout),
                    _ => continue,
                }
            }
            Err(e) => return Err(e),
            Ok(LineRead::Eof) => return Ok(LoopExit::Eof),
            Ok(LineRead::TooLong) => {
                last_line = Instant::now();
                if let Some(net) = ctx.net {
                    NetMetrics::inc_counter(&net.oversize_lines);
                }
                let entry = immediate_error(
                    FALLBACK_ID_BASE + lineno as u64,
                    format!(
                        "line {}: exceeds the maximum line length ({} bytes)",
                        lineno + 1,
                        opts.max_line_len
                    ),
                );
                lineno += 1;
                ParsedLine::Entry(entry)
            }
            Ok(LineRead::Line(text)) => {
                last_line = Instant::now();
                let this_line = lineno;
                lineno += 1;
                if text.trim().is_empty() {
                    continue;
                }
                parse_line(engine, ctx.scope, &text, this_line)
            }
        };
        let (pending, exit) = match parsed {
            ParsedLine::Shutdown(ack) => (ack, Some(LoopExit::Shutdown)),
            ParsedLine::Entry(entry) => (entry, None),
        };
        if queue.send(Entry::new(pending)).is_err() {
            // The writer failed; `serve_lines` returns its error instead.
            return Err(ErrorKind::BrokenPipe.into());
        }
        if let Some(exit) = exit {
            return Ok(exit);
        }
        // Periodic metrics are per-process state: the file/stdin path
        // writes them here; the TCP frontend's acceptor owns them instead
        // (it folds in the net series).
        if ctx.net.is_none() {
            if let Some(path) = &opts.metrics_out {
                if last_metrics.elapsed() >= opts.metrics_interval {
                    write_metrics_file(engine, path)?;
                    last_metrics = Instant::now();
                }
            }
        }
    }
}

/// [`serve_with`] under default [`ServeOptions`].
pub fn serve<R: BufRead, W: Write + Send>(
    input: R,
    output: &mut W,
    config: EngineConfig,
) -> std::io::Result<ServeSummary> {
    serve_with(input, output, config, &ServeOptions::default())
}

/// Read JSONL requests from `input`, solve them on `config`'s worker pool,
/// and stream JSONL responses to `output` in input order (see the module
/// docs for the id contract and backpressure behavior).
///
/// I/O errors abort the run; per-request failures do not. A
/// `{"cmd": "shutdown"}` line stops reading early after a full drain.
pub fn serve_with<R: BufRead, W: Write + Send>(
    input: R,
    output: &mut W,
    config: EngineConfig,
    opts: &ServeOptions,
) -> std::io::Result<ServeSummary> {
    let engine = Engine::new(config);
    let mut input = input;
    let mut responses = 0u64;
    serve_lines(
        &engine,
        &mut input,
        output,
        opts,
        &StreamScope::global(),
        &mut responses,
    )?;
    let metrics = engine.metrics();
    if let Some(path) = &opts.metrics_out {
        write_metrics_file(&engine, path)?;
    }
    Ok(ServeSummary { responses, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Cursor, Read};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    fn request_line(id: u64, proc: i64) -> String {
        format!(
            "{{\"id\": {id}, \"instance\": {{\"jobs\": [{{\"id\": 0, \"release\": 0, \
             \"deadline\": 30, \"proc\": {proc}}}], \"machines\": 1, \"calib_len\": 10}}}}"
        )
    }

    fn anonymous_request_line(proc: i64) -> String {
        format!(
            "{{\"instance\": {{\"jobs\": [{{\"id\": 0, \"release\": 0, \
             \"deadline\": 30, \"proc\": {proc}}}], \"machines\": 1, \"calib_len\": 10}}}}"
        )
    }

    #[test]
    fn serves_in_order_with_errors_inline() {
        let input = format!(
            "{}\nnot json\n\n{}\n",
            request_line(7, 4),
            request_line(9, 5)
        );
        let mut out = Vec::new();
        let summary = serve(
            input.as_bytes(),
            &mut out,
            EngineConfig {
                workers: 2,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        assert_eq!(summary.responses, 3);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 3);
        let first: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first["id"].as_u64(), Some(7));
        assert_eq!(first["status"].as_str(), Some("ok"));
        let second: serde_json::Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(second["status"].as_str(), Some("error"));
        let third: serde_json::Value = serde_json::from_str(lines[2]).unwrap();
        assert_eq!(third["id"].as_u64(), Some(9));
        // The malformed line never reached the engine: 2 solves, 0 errors.
        assert_eq!(summary.metrics.errors, 0);
        assert_eq!(summary.metrics.completed, 2);
        assert!(summary.metrics.serialize_time.count >= 3);
    }

    #[test]
    fn fallback_ids_do_not_collide_with_explicit_ids() {
        // Line 0 claims explicit id 1; line 1 omits its id. Before the ids
        // were namespaced, the second response also got id 1.
        let input = format!("{}\n{}\n", request_line(1, 4), anonymous_request_line(5));
        let mut out = Vec::new();
        serve(input.as_bytes(), &mut out, EngineConfig::default()).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        let first: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        let second: serde_json::Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(first["id"].as_u64(), Some(1));
        assert_eq!(second["id"].as_u64(), Some(FALLBACK_ID_BASE + 1));
    }

    #[test]
    fn reserved_explicit_id_is_rejected() {
        let input = format!("{}\n", request_line(FALLBACK_ID_BASE + 5, 4));
        let mut out = Vec::new();
        let summary = serve(input.as_bytes(), &mut out, EngineConfig::default()).unwrap();
        assert_eq!(summary.responses, 1);
        let resp: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&out).unwrap().lines().next().unwrap())
                .unwrap();
        assert_eq!(resp["status"].as_str(), Some("error"));
        assert!(
            resp["error"]
                .as_str()
                .unwrap()
                .contains("server-reserved range"),
            "{resp:?}"
        );
        // It never reached the engine.
        assert_eq!(summary.metrics.requests, 0);
    }

    #[test]
    fn bounded_line_reader_boundaries() {
        // Small BufReader capacity forces multi-chunk assembly.
        let text = "abcd\nefgh\r\nij\ntoolongline\nk";
        let mut r = BufReader::with_capacity(3, Cursor::new(text.as_bytes()));
        let max = 4;
        match read_bounded_line(&mut r, max).unwrap() {
            LineRead::Line(l) => assert_eq!(l, "abcd"),
            _ => panic!("exact-limit line must pass"),
        }
        match read_bounded_line(&mut r, max).unwrap() {
            LineRead::Line(l) => assert_eq!(l, "efgh"),
            _ => panic!("CRLF line of limit length must pass"),
        }
        match read_bounded_line(&mut r, max).unwrap() {
            LineRead::Line(l) => assert_eq!(l, "ij"),
            _ => panic!("short line"),
        }
        assert!(matches!(
            read_bounded_line(&mut r, max).unwrap(),
            LineRead::TooLong
        ));
        // The reader resynchronized past the newline: the trailing
        // unterminated byte still comes through as a line.
        match read_bounded_line(&mut r, max).unwrap() {
            LineRead::Line(l) => assert_eq!(l, "k"),
            _ => panic!("unterminated final line"),
        }
        assert!(matches!(
            read_bounded_line(&mut r, max).unwrap(),
            LineRead::Eof
        ));
    }

    #[test]
    fn oversize_line_gets_inline_error_and_stream_continues() {
        // The serve loop must answer the over-limit line inline (without
        // ever buffering it) and keep serving the rest of the stream.
        let huge = format!("{{\"id\": 1, \"instance\": \"{}\"}}", "x".repeat(4096));
        let input = format!("{huge}\n{}\n", request_line(2, 4));
        let mut out = Vec::new();
        let summary = serve_with(
            input.as_bytes(),
            &mut out,
            EngineConfig::default(),
            &ServeOptions {
                max_line_len: 256,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        assert_eq!(summary.responses, 2);
        let lines: Vec<serde_json::Value> = std::str::from_utf8(&out)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(lines[0]["status"].as_str(), Some("error"));
        assert_eq!(lines[0]["id"].as_u64(), Some(FALLBACK_ID_BASE));
        assert!(
            lines[0]["error"]
                .as_str()
                .unwrap()
                .contains("maximum line length (256 bytes)"),
            "{:?}",
            lines[0]
        );
        assert_eq!(lines[1]["id"].as_u64(), Some(2));
        assert_eq!(lines[1]["status"].as_str(), Some("ok"));
        // The oversize line never reached the engine.
        assert_eq!(summary.metrics.requests, 1);
    }

    #[test]
    fn admin_shutdown_drains_and_stops_reading() {
        let input = format!(
            "{}\n{{\"id\": 5, \"cmd\": \"shutdown\"}}\n{}\n",
            request_line(1, 4),
            request_line(9, 5)
        );
        let mut out = Vec::new();
        let summary = serve(input.as_bytes(), &mut out, EngineConfig::default()).unwrap();
        // The request before the shutdown resolves; the line after it is
        // never read.
        assert_eq!(summary.responses, 2);
        assert_eq!(summary.metrics.requests, 1);
        let lines: Vec<serde_json::Value> = std::str::from_utf8(&out)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(lines[0]["id"].as_u64(), Some(1));
        assert_eq!(lines[0]["status"].as_str(), Some("ok"));
        assert_eq!(lines[1]["id"].as_u64(), Some(5));
        assert_eq!(lines[1]["status"].as_str(), Some("ok"));
        assert!(lines[1]["schedule"].is_null());
    }

    #[test]
    fn unknown_admin_cmd_is_an_inline_error() {
        let input = "{\"cmd\": \"reboot\"}\n".to_string() + &request_line(3, 4) + "\n";
        let mut out = Vec::new();
        let summary = serve(input.as_bytes(), &mut out, EngineConfig::default()).unwrap();
        assert_eq!(summary.responses, 2);
        let lines: Vec<serde_json::Value> = std::str::from_utf8(&out)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(lines[0]["status"].as_str(), Some("error"));
        assert!(
            lines[0]["error"]
                .as_str()
                .unwrap()
                .contains("unknown admin"),
            "{:?}",
            lines[0]
        );
        assert_eq!(lines[1]["status"].as_str(), Some("ok"));
    }

    #[test]
    fn cmd_inside_a_value_is_not_an_admin_command() {
        // `"cmd"` appears as a *value*, not a key: the line must go down
        // the normal request path (and fail as an unknown session op).
        let input = "{\"id\": 1, \"instance\": {\"jobs\": [{\"id\": 0, \"release\": 0, \
                     \"deadline\": 30, \"proc\": 4}], \"machines\": 1, \"calib_len\": 10}, \
                     \"session\": {\"op\": \"cmd\"}}\n";
        let mut out = Vec::new();
        serve(input.as_bytes(), &mut out, EngineConfig::default()).unwrap();
        let resp: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&out).unwrap().lines().next().unwrap())
                .unwrap();
        assert_eq!(resp["status"].as_str(), Some("error"));
        assert!(
            resp["error"]
                .as_str()
                .unwrap()
                .contains("unknown session op `cmd`"),
            "{resp:?}"
        );
    }

    /// Yields one request line per `read` call. Before the second line it
    /// blocks (for at most 10 s) until a response has been written and
    /// records whether one was: with the reader stuck waiting for input,
    /// only a writer that runs on its own can get the first answer out.
    struct GatedReader {
        lines: Vec<String>,
        next: usize,
        written: Arc<AtomicU64>,
        streamed: Arc<AtomicBool>,
    }

    impl Read for GatedReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.next == 1 {
                let deadline = Instant::now() + Duration::from_secs(10);
                while self.written.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                if self.written.load(Ordering::SeqCst) > 0 {
                    self.streamed.store(true, Ordering::SeqCst);
                }
            }
            let Some(line) = self.lines.get(self.next) else {
                return Ok(0);
            };
            let line = line.as_bytes();
            assert!(buf.len() >= line.len(), "test lines fit one read");
            buf[..line.len()].copy_from_slice(line);
            self.next += 1;
            Ok(line.len())
        }
    }

    struct CountingWriter {
        buf: Vec<u8>,
        lines: Arc<AtomicU64>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.buf.extend_from_slice(data);
            let newlines = data.iter().filter(|&&b| b == b'\n').count() as u64;
            self.lines.fetch_add(newlines, Ordering::SeqCst);
            Ok(data.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn streams_first_response_before_input_is_exhausted() {
        let written = Arc::new(AtomicU64::new(0));
        let streamed = Arc::new(AtomicBool::new(false));
        let reader = GatedReader {
            lines: vec![
                format!("{}\n", request_line(0, 4)),
                format!("{}\n", request_line(1, 5)),
                format!("{}\n", request_line(2, 6)),
            ],
            next: 0,
            written: Arc::clone(&written),
            streamed: Arc::clone(&streamed),
        };
        let mut out = CountingWriter {
            buf: Vec::new(),
            lines: Arc::clone(&written),
        };
        let summary = serve(
            BufReader::new(reader),
            &mut out,
            EngineConfig {
                workers: 2,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        assert_eq!(summary.responses, 3);
        assert!(
            streamed.load(Ordering::SeqCst),
            "no response was written before the input finished"
        );
        let lines: Vec<&str> = std::str::from_utf8(&out.buf).unwrap().lines().collect();
        let ids: Vec<u64> = lines
            .iter()
            .map(|l| {
                serde_json::from_str::<serde_json::Value>(l).unwrap()["id"]
                    .as_u64()
                    .unwrap()
            })
            .collect();
        assert_eq!(ids, vec![0, 1, 2], "streaming must preserve input order");
    }

    /// Yields one request line per `read` call, counting the lines the
    /// serve loop has pulled.
    struct LineFeed {
        lines: Vec<String>,
        consumed: Arc<AtomicU64>,
    }

    impl Read for LineFeed {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let next = self.consumed.load(Ordering::SeqCst) as usize;
            let Some(line) = self.lines.get(next) else {
                return Ok(0);
            };
            let line = line.as_bytes();
            assert!(buf.len() >= line.len(), "test lines fit one read");
            buf[..line.len()].copy_from_slice(line);
            self.consumed.fetch_add(1, Ordering::SeqCst);
            Ok(line.len())
        }
    }

    /// Holds its first write until `gate` fires or hangs up (at most
    /// 10 s), like a peer that stops reading.
    struct GatedWriter {
        buf: Vec<u8>,
        gate: Option<std::sync::mpsc::Receiver<()>>,
    }

    impl Write for GatedWriter {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            if let Some(gate) = self.gate.take() {
                let _ = gate.recv_timeout(Duration::from_secs(10));
            }
            self.buf.extend_from_slice(data);
            Ok(data.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn blocked_writer_stops_reading() {
        const MAX_PENDING: usize = 2;
        let consumed = Arc::new(AtomicU64::new(0));
        let reader = LineFeed {
            lines: (0..20)
                .map(|i| format!("{}\n", request_line(i, 2 + (i as i64 % 7))))
                .collect(),
            consumed: Arc::clone(&consumed),
        };
        let (release, gate) = std::sync::mpsc::channel();
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut out = GatedWriter {
                buf: Vec::new(),
                gate: Some(gate),
            };
            let summary = serve_with(
                BufReader::new(reader),
                &mut out,
                EngineConfig {
                    workers: 2,
                    ..EngineConfig::default()
                },
                &ServeOptions {
                    max_pending: MAX_PENDING,
                    ..ServeOptions::default()
                },
            );
            let _ = done.send(summary.map(|s| (s.responses, out.buf)));
        });

        // One entry sits in the blocked write, `MAX_PENDING` are queued and
        // the reader holds one more in its blocked send. Wait for the
        // reader to get that far, then give an unbounded reader time to
        // run past it.
        let bound = MAX_PENDING as u64 + 2;
        let deadline = Instant::now() + Duration::from_secs(10);
        while consumed.load(Ordering::SeqCst) < bound && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(200));
        let seen = consumed.load(Ordering::SeqCst);
        assert_eq!(seen, bound, "lines read while the writer was blocked");

        release.send(()).unwrap();
        let (responses, buf) = finished
            .recv_timeout(Duration::from_secs(60))
            .expect("serve finished after the writer was released")
            .unwrap();
        assert_eq!(responses, 20);
        assert_eq!(consumed.load(Ordering::SeqCst), 20);
        let ids: Vec<u64> = std::str::from_utf8(&buf)
            .unwrap()
            .lines()
            .map(|l| {
                serde_json::from_str::<serde_json::Value>(l).unwrap()["id"]
                    .as_u64()
                    .unwrap()
            })
            .collect();
        assert_eq!(ids, (0..20).collect::<Vec<u64>>());
    }

    #[test]
    fn bounded_pending_still_preserves_order() {
        let input: String = (0..20)
            .map(|i| format!("{}\n", request_line(i, 2 + (i as i64 % 7))))
            .collect();
        let mut out = Vec::new();
        let summary = serve_with(
            input.as_bytes(),
            &mut out,
            EngineConfig {
                workers: 4,
                ..EngineConfig::default()
            },
            &ServeOptions {
                max_pending: 2,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        assert_eq!(summary.responses, 20);
        let ids: Vec<u64> = std::str::from_utf8(&out)
            .unwrap()
            .lines()
            .map(|l| {
                serde_json::from_str::<serde_json::Value>(l).unwrap()["id"]
                    .as_u64()
                    .unwrap()
            })
            .collect();
        assert_eq!(ids, (0..20).collect::<Vec<u64>>());
    }

    #[test]
    fn session_protocol_round_trips_over_jsonl() {
        use crate::engine::SESSION_ID_BASE;
        // The sid is assigned by the server, but the first session on a
        // fresh engine always gets SESSION_ID_BASE, so the script can be
        // written ahead of time — exactly how `ise session` scripts work.
        let sid = SESSION_ID_BASE;
        let open = "{\"id\": 1, \"session\": {\"op\": \"open\"}, \"instance\": {\"jobs\": \
             [{\"id\": 0, \"release\": 0, \"deadline\": 40, \"proc\": 7}, \
              {\"id\": 1, \"release\": 0, \"deadline\": 12, \"proc\": 6}], \
             \"machines\": 1, \"calib_len\": 10}}"
            .to_string();
        let cmd = |id: u64, body: &str| format!("{{\"id\": {id}, \"session\": {{{body}}}}}");
        let input = [
            open,
            cmd(2, &format!("\"op\": \"solve\", \"sid\": {sid}")),
            cmd(
                3,
                &format!(
                    "\"op\": \"delta\", \"sid\": {sid}, \
                     \"delta\": {{\"op\": \"set_machines\", \"machines\": 2}}"
                ),
            ),
            cmd(4, &format!("\"op\": \"solve\", \"sid\": {sid}")),
            cmd(5, &format!("\"op\": \"close\", \"sid\": {sid}")),
            cmd(6, &format!("\"op\": \"solve\", \"sid\": {sid}")),
        ]
        .join("\n")
            + "\n";
        let mut out = Vec::new();
        let summary = serve(input.as_bytes(), &mut out, EngineConfig::default()).unwrap();
        assert_eq!(summary.responses, 6);
        let lines: Vec<serde_json::Value> = std::str::from_utf8(&out)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(lines[0]["status"].as_str(), Some("ok"));
        assert_eq!(lines[0]["session"]["sid"].as_u64(), Some(sid));
        assert_eq!(
            lines[1]["session"]["telemetry"]["tier"].as_str(),
            Some("cold")
        );
        assert!(lines[1]["calibrations"].as_u64().is_some());
        assert_eq!(lines[2]["session"]["staged"].as_u64(), Some(1));
        assert_eq!(
            lines[3]["session"]["telemetry"]["tier"].as_str(),
            Some("basis")
        );
        assert_eq!(
            lines[3]["session"]["telemetry"]["warm_started"].as_bool(),
            Some(true)
        );
        assert_eq!(lines[4]["status"].as_str(), Some("ok"));
        // Solving a closed session is an inline error, not a stream abort.
        assert_eq!(lines[5]["status"].as_str(), Some("error"));
        assert!(
            lines[5]["error"]
                .as_str()
                .unwrap()
                .contains("unknown session id"),
            "{:?}",
            lines[5]
        );
        assert_eq!(summary.metrics.session_reuse_basis, 1);
        assert_eq!(summary.metrics.session_reuse_cold, 1);
    }

    #[test]
    fn metrics_out_writes_prometheus_text() {
        let path =
            std::env::temp_dir().join(format!("ise-serve-metrics-{}.prom", std::process::id()));
        let input = format!("{}\n{}\n", request_line(0, 4), request_line(1, 5));
        let mut out = Vec::new();
        serve_with(
            input.as_bytes(),
            &mut out,
            EngineConfig::default(),
            &ServeOptions {
                metrics_out: Some(path.clone()),
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(text.contains("# TYPE ise_requests_total counter"), "{text}");
        assert!(text.contains("ise_requests_total 2"), "{text}");
        assert!(
            text.contains("# TYPE ise_solve_time_us histogram"),
            "{text}"
        );
    }
}
