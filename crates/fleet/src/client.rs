//! The client side of the `geattack-serve` NDJSON protocol, shared by the
//! fleet coordinator and `geattack-serve submit`.
//!
//! One connection carries one request line and its response stream:
//!
//! * control requests (`{"request":"health"}`, `stats`, `cancel`, `drain`)
//!   answer with a single JSON line — see [`control`] / [`ServeClient::control`];
//! * a bare sweep spec runs the full grid and streams events until a `done`
//!   event embedding the merged report — see [`submit`];
//! * a wrapped `{"spec": {...}, "shard": "I/N"}` request runs one shard slice
//!   and streams the same events until a `done` event embedding the
//!   [`ShardReport`] (a partial shard cannot be merged server-side) — see
//!   [`ServeClient::submit_shard`].
//!
//! Errors are rendered strings (the idiom of the serve module this grew out
//! of): callers that need to distinguish transport failures from server-side
//! refusals look at the message, and the coordinator treats every failure the
//! same way — retry on another worker.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use serde::Value;

use geattack_core::engine::CancelToken;
use geattack_core::sweep::{Shard, ShardReport};
use geattack_scenarios::SweepSpec;

/// Longest daemon response line a client reads, newline included. A longer
/// line fails the call instead of growing the client's buffer without bound.
///
/// The largest `done` event of the CI sweeps is ~10 KB (`paper.json`'s 16
/// cells); `huge.json`'s is ~1.2 KB, because a report grows with the number
/// of cells, not with graph size. 16 MiB leaves room for grids of tens of
/// thousands of cells. The daemon's own bound on request lines is
/// `geattack_bench::serve::MAX_REQUEST_LINE_BYTES`.
pub const MAX_RESPONSE_LINE_BYTES: usize = 16 << 20;

/// Appends the rest of the current response line to `buf`, holding at most
/// [`MAX_RESPONSE_LINE_BYTES`] + 1 bytes of it. `Ok(true)` means `buf` ends
/// with the newline; `Ok(false)` means the daemon closed the connection
/// first. On an I/O error the bytes read so far stay in `buf`, so a caller may
/// retry after a read timeout; a line over the cap is an `InvalidData` error.
fn read_response_line(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> std::io::Result<bool> {
    // One byte past the cap tells an over-long line from one that fits.
    let budget = (MAX_RESPONSE_LINE_BYTES + 1).saturating_sub(buf.len()) as u64;
    reader.by_ref().take(budget).read_until(b'\n', buf)?;
    if buf.len() > MAX_RESPONSE_LINE_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("daemon response line longer than {MAX_RESPONSE_LINE_BYTES} bytes"),
        ));
    }
    Ok(buf.last() == Some(&b'\n'))
}

/// Renders a failed response read: an over-long line as itself, anything
/// else as a lost connection.
fn read_error(e: std::io::Error) -> String {
    if e.kind() == std::io::ErrorKind::InvalidData {
        e.to_string()
    } else {
        format!("connection lost: {e}")
    }
}

/// What a successful [`submit`] brings back. A request with any failed cell
/// never reaches `done` (the server terminates it with an `error` event), so
/// a returned outcome always carries a complete report.
#[derive(Clone, Debug)]
pub struct SubmitOutcome {
    /// Sweep name from the `done` event.
    pub sweep: String,
    /// The assembled report, pretty-printed — byte-identical to the
    /// `results/sweep_<name>.json` a `geattack-sweep` run of the same spec
    /// writes.
    pub report_pretty: String,
    /// This request's cache-counter delta on the daemon (`Value::Null` when
    /// the daemon runs uncached).
    pub cache: Value,
    /// The request id the daemon assigned (from the `accepted` event); the
    /// handle a `cancel` control request would target. `None` on daemons
    /// predating the worker pool.
    pub request_id: Option<u64>,
}

/// One parsed event of a sweep request's stream, as the coordinator consumes
/// it for live progress accounting. `cell`/`failed` positions index the
/// deterministic prepared-cell grid.
#[derive(Clone, Debug, PartialEq)]
pub enum ShardEvent {
    /// The daemon admitted the request: its id, and the echoed shard label
    /// when the request was sharded.
    Accepted {
        /// Request id on the daemon (the handle a `cancel` would target).
        id: u64,
        /// `"I/N"` echo of the dispatched shard, `None` on bare requests.
        shard: Option<String>,
    },
    /// A prepared cell entered the plan.
    Planned {
        /// Deterministic grid position.
        position: usize,
    },
    /// A prepared cell started executing.
    Started {
        /// Deterministic grid position.
        position: usize,
    },
    /// A prepared cell finished and streamed its result cells.
    Finished {
        /// Deterministic grid position.
        position: usize,
    },
    /// A prepared cell failed (the session keeps running the rest).
    Failed {
        /// Deterministic grid position.
        position: usize,
        /// Machine-readable error kind (`GeError::kind`).
        kind: String,
        /// Rendered error message.
        error: String,
    },
}

/// Connects to the daemon, retrying until `timeout` elapses (so a script can
/// launch daemon and client together).
pub fn connect_retry(addr: &str, timeout: Duration) -> Result<TcpStream, String> {
    let deadline = Instant::now() + timeout;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) if Instant::now() >= deadline => {
                return Err(format!("cannot connect to {addr}: {e}"));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(100)),
        }
    }
}

/// Sends one control request line (e.g. `{"request":"stats"}`) and returns the
/// parsed single-line response.
pub fn control(addr: &str, request: &str, timeout: Duration) -> Result<Value, String> {
    let stream = connect_retry(addr, timeout)?;
    let mut writer = BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{request}").map_err(|e| format!("cannot send request: {e}"))?;
    writer.flush().map_err(|e| format!("cannot send request: {e}"))?;
    let mut response = Vec::new();
    read_response_line(&mut reader, &mut response).map_err(read_error)?;
    let response = String::from_utf8(response).map_err(|e| format!("malformed response: {e}"))?;
    serde_json::from_str(response.trim()).map_err(|e| format!("malformed response: {e}"))
}

/// Submits one sweep spec (JSON text, any layout — it is compacted to one
/// line) and consumes the event stream until `done`/`error`. `progress` is
/// called with one human-readable line per streamed event.
pub fn submit(
    addr: &str,
    spec_text: &str,
    timeout: Duration,
    mut progress: impl FnMut(String),
) -> Result<SubmitOutcome, String> {
    let spec_value: Value = serde_json::from_str(spec_text).map_err(|e| format!("invalid spec JSON: {e}"))?;
    let request = serde_json::to_string(&spec_value).map_err(|e| e.to_string())?;

    let stream = connect_retry(addr, timeout)?;
    let mut writer = BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{request}").map_err(|e| format!("cannot send request: {e}"))?;
    writer.flush().map_err(|e| format!("cannot send request: {e}"))?;

    let mut request_id = None;
    let mut line = Vec::new();
    loop {
        line.clear();
        read_response_line(&mut reader, &mut line).map_err(read_error)?;
        if line.is_empty() {
            break;
        }
        let (event, value) = parse_event_line(&line)?;
        let position = || match value.get_field("position") {
            Ok(Value::Number(p)) => *p as usize,
            _ => usize::MAX,
        };
        match event.as_str() {
            "accepted" => {
                if let Ok(Value::Number(id)) = value.get_field("id") {
                    request_id = Some(*id as u64);
                    progress(format!("request {} accepted", *id as u64));
                }
            }
            "planned" => {}
            "started" => progress(format!("cell {} started", position())),
            "cell" => progress(format!("cell {} finished", position())),
            "failed" => progress(format!("cell {} FAILED", position())),
            "error" => return Err(error_message(&value)),
            "done" => {
                let report = value
                    .get_field("report")
                    .map_err(|_| "done event without a report".to_string())?;
                let sweep = match value.get_field("sweep") {
                    Ok(Value::String(s)) => s.clone(),
                    _ => String::new(),
                };
                let cache = value.get_field("cache").ok().cloned().unwrap_or(Value::Null);
                return Ok(SubmitOutcome {
                    sweep,
                    report_pretty: serde_json::to_string_pretty(report).map_err(|e| e.to_string())?,
                    cache,
                    request_id,
                });
            }
            other => return Err(format!("unknown event `{other}`")),
        }
    }
    Err("connection closed before a `done` event".to_string())
}

/// Parses one response line of a sweep request's stream (newline included or
/// not) into its `event` name and JSON value. Whatever a daemon sends —
/// longer than [`MAX_RESPONSE_LINE_BYTES`], not UTF-8, not JSON, nested past
/// the codec's depth limit, or without an `event` field — is an `Err`, never
/// a panic.
pub fn parse_event_line(line: &[u8]) -> Result<(String, Value), String> {
    if line.len() > MAX_RESPONSE_LINE_BYTES {
        return Err(format!(
            "daemon response line longer than {MAX_RESPONSE_LINE_BYTES} bytes"
        ));
    }
    let text = std::str::from_utf8(line).map_err(|e| format!("malformed event: {e}"))?;
    let value: Value = serde_json::from_str(text.trim()).map_err(|e| format!("malformed event: {e}"))?;
    Ok((event_name(&value)?, value))
}

/// The `event` field of a protocol line.
fn event_name(value: &Value) -> Result<String, String> {
    match value.get_field("event") {
        Ok(Value::String(event)) => Ok(event.clone()),
        _ => Err(format!(
            "event line without an `event` field: {}",
            serde_json::to_string(value).unwrap_or_default()
        )),
    }
}

/// The message of an `error` event.
fn error_message(value: &Value) -> String {
    match value.get_field("error") {
        Ok(Value::String(m)) => m.clone(),
        _ => "unspecified server error".to_string(),
    }
}

/// Parses one streamed line of a sharded sweep request into a [`ShardEvent`],
/// `Ok(None)` for lines the coordinator does not track (`done`/`error` are
/// handled by the caller before this).
pub fn parse_shard_event(value: &Value) -> Result<Option<ShardEvent>, String> {
    let position = |value: &Value| match value.get_field("position") {
        Ok(Value::Number(p)) => Ok(*p as usize),
        _ => Err("event without a numeric `position`".to_string()),
    };
    let text = |name: &str| match value.get_field(name) {
        Ok(Value::String(s)) => s.clone(),
        _ => String::new(),
    };
    match event_name(value)?.as_str() {
        "accepted" => {
            let id = match value.get_field("id") {
                Ok(Value::Number(id)) => *id as u64,
                _ => return Err("accepted event without a numeric `id`".to_string()),
            };
            let shard = match value.get_field("shard") {
                Ok(Value::String(s)) => Some(s.clone()),
                _ => None,
            };
            Ok(Some(ShardEvent::Accepted { id, shard }))
        }
        "planned" => Ok(Some(ShardEvent::Planned {
            position: position(value)?,
        })),
        "started" => Ok(Some(ShardEvent::Started {
            position: position(value)?,
        })),
        "cell" => Ok(Some(ShardEvent::Finished {
            position: position(value)?,
        })),
        "failed" => Ok(Some(ShardEvent::Failed {
            position: position(value)?,
            kind: text("kind"),
            error: text("error"),
        })),
        _ => Ok(None),
    }
}

/// A handle on one `geattack-serve` worker: address plus the client-side
/// timeouts of every operation against it.
#[derive(Clone, Debug)]
pub struct ServeClient {
    addr: String,
    /// How long to keep retrying the TCP connect.
    connect_timeout: Duration,
    /// Maximum silence between streamed events before the worker is declared
    /// hung and the connection dropped (which cancels the request server-side).
    idle_timeout: Duration,
}

impl ServeClient {
    /// A client with the coordinator's default timeouts (10 s connect, 300 s
    /// idle — a prepared cell at large scales trains a GCN between events).
    pub fn new(addr: impl Into<String>) -> Self {
        ServeClient {
            addr: addr.into(),
            connect_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(300),
        }
    }

    /// Overrides both timeouts.
    pub fn with_timeouts(mut self, connect: Duration, idle: Duration) -> Self {
        self.connect_timeout = connect;
        self.idle_timeout = idle;
        self
    }

    /// The worker's address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Sends one control request line and returns the parsed response.
    pub fn control(&self, request: &str) -> Result<Value, String> {
        control(&self.addr, request, self.connect_timeout)
    }

    /// A `health` probe: `Ok` when the daemon answers `status: ok`.
    pub fn health(&self) -> Result<(), String> {
        let response = self.control(r#"{"request":"health"}"#)?;
        match response.get_field("status") {
            Ok(Value::String(s)) if s == "ok" => Ok(()),
            _ => Err(format!(
                "unhealthy worker {}: {}",
                self.addr,
                serde_json::to_string(&response).unwrap_or_default()
            )),
        }
    }

    /// The daemon's `stats` response (worker identity, counters, latency).
    pub fn stats(&self) -> Result<Value, String> {
        self.control(r#"{"request":"stats"}"#)
    }

    /// The worker's `--fleet-id` from its `stats` response, when it set one.
    pub fn fleet_id(&self) -> Result<Option<String>, String> {
        let stats = self.stats()?;
        Ok(match stats.get_field("worker").and_then(|w| w.get_field("fleet_id")) {
            Ok(Value::String(id)) => Some(id.clone()),
            _ => None,
        })
    }

    /// Submits a full (unsharded) sweep; see [`submit`].
    pub fn submit(&self, spec_text: &str, progress: impl FnMut(String)) -> Result<SubmitOutcome, String> {
        submit(&self.addr, spec_text, self.connect_timeout, progress)
    }

    /// Dispatches one shard slice of `spec` as a wrapped
    /// `{"spec": ..., "shard": "I/N"}` request and consumes the stream until
    /// the `done` event, whose embedded shard report is parsed and returned.
    ///
    /// `on_event` sees every tracked stream event ([`ShardEvent`]) as it
    /// arrives, for live progress accounting. When `cancel` is set mid-stream
    /// the connection is dropped — the daemon cancels the request on
    /// disconnect — and the call errors.
    pub fn submit_shard(
        &self,
        spec: &SweepSpec,
        shard: Shard,
        cancel: &CancelToken,
        mut on_event: impl FnMut(ShardEvent),
    ) -> Result<ShardReport, String> {
        let request = serde_json::to_string(&wrap_shard_request(spec, shard)).map_err(|e| e.to_string())?;
        let stream = connect_retry(&self.addr, self.connect_timeout)?;
        // Short socket timeout so cancellation and idle tracking tick even
        // when the worker streams nothing.
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .map_err(|e| e.to_string())?;
        let mut writer = BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut reader = BufReader::new(stream);
        writeln!(writer, "{request}").map_err(|e| format!("cannot send request: {e}"))?;
        writer.flush().map_err(|e| format!("cannot send request: {e}"))?;

        loop {
            let line = self.read_event_line(&mut reader, cancel)?;
            let (event, value) = parse_event_line(&line)?;
            match event.as_str() {
                "error" => return Err(error_message(&value)),
                "done" => {
                    let report = value
                        .get_field("shard_report")
                        .map_err(|_| "done event without a shard_report".to_string())?;
                    let text = serde_json::to_string(report).map_err(|e| e.to_string())?;
                    return ShardReport::from_json(&text).map_err(|e| e.to_string());
                }
                _ => {
                    if let Some(event) = parse_shard_event(&value)? {
                        on_event(event);
                    }
                }
            }
        }
    }

    /// Reads one NDJSON line, honoring the idle timeout and the cancel token
    /// across read-timeout ticks.
    fn read_event_line(&self, reader: &mut BufReader<TcpStream>, cancel: &CancelToken) -> Result<Vec<u8>, String> {
        let idle_deadline = Instant::now() + self.idle_timeout;
        let mut buf = Vec::new();
        loop {
            match read_response_line(reader, &mut buf) {
                Ok(true) => return Ok(buf),
                // EOF before the newline is a mid-line disconnect, not a
                // complete event line.
                Ok(false) => return Err(format!("worker {} closed the connection mid-stream", self.addr)),
                Err(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) => {
                    // Partial data (if any) stays appended to `buf`.
                    if cancel.is_cancelled() {
                        // Dropping the reader closes the socket; the daemon
                        // cancels the request when the client goes away.
                        return Err("sweep cancelled by the coordinator".to_string());
                    }
                    if Instant::now() >= idle_deadline {
                        return Err(format!(
                            "worker {} silent for more than {:?}",
                            self.addr, self.idle_timeout
                        ));
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(read_error(e)),
            }
        }
    }
}

/// The wrapped request line dispatching `shard` of `spec`.
fn wrap_shard_request(spec: &SweepSpec, shard: Shard) -> Value {
    Value::Object(vec![
        ("spec".to_string(), serde_json::to_value(spec)),
        ("shard".to_string(), Value::String(shard.label())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Value {
        serde_json::from_str(text).expect("test JSON parses")
    }

    #[test]
    fn shard_events_parse_from_protocol_lines() {
        let accepted = parse(r#"{"event":"accepted","id":7,"cost":12.0,"queue_depth":0,"shard":"1/3"}"#);
        assert_eq!(
            parse_shard_event(&accepted).expect("parses"),
            Some(ShardEvent::Accepted {
                id: 7,
                shard: Some("1/3".to_string())
            })
        );
        let bare = parse(r#"{"event":"accepted","id":7,"cost":12.0,"queue_depth":0}"#);
        assert_eq!(
            parse_shard_event(&bare).expect("parses"),
            Some(ShardEvent::Accepted { id: 7, shard: None })
        );
        let cell = parse(r#"{"event":"cell","position":4,"cells":[]}"#);
        assert_eq!(
            parse_shard_event(&cell).expect("parses"),
            Some(ShardEvent::Finished { position: 4 })
        );
        let failed = parse(r#"{"event":"failed","position":2,"kind":"prepare","error":"boom"}"#);
        assert_eq!(
            parse_shard_event(&failed).expect("parses"),
            Some(ShardEvent::Failed {
                position: 2,
                kind: "prepare".to_string(),
                error: "boom".to_string()
            })
        );
        let done = parse(r#"{"event":"done","sweep":"x"}"#);
        assert_eq!(parse_shard_event(&done).expect("parses"), None);
        assert!(parse_shard_event(&parse(r#"{"position":1}"#)).is_err());
        assert!(parse_shard_event(&parse(r#"{"event":"cell"}"#)).is_err());
    }

    #[test]
    fn partial_line_at_eof_reads_as_a_mid_stream_disconnect() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("ephemeral port binds");
        let addr = listener.local_addr().expect("addr").to_string();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("client connects");
            let mut reader = BufReader::new(stream.try_clone().expect("stream clones"));
            let mut line = String::new();
            reader.read_line(&mut line).expect("request line");
            let mut writer = BufWriter::new(stream);
            writeln!(
                writer,
                r#"{{"event":"accepted","id":1,"cost":1.0,"queue_depth":0,"shard":"0/1"}}"#
            )
            .expect("accepted line");
            write!(writer, r#"{{"event":"cell","posi"#).expect("partial line");
            writer.flush().expect("flush");
            // Dropping the socket closes the connection mid-line.
        });

        let spec = SweepSpec::from_json(r#"{"name":"partial","families":["tree-cycles"],"attackers":["rna"]}"#)
            .expect("spec parses");
        let client = ServeClient::new(addr).with_timeouts(Duration::from_secs(5), Duration::from_secs(5));
        let err = client
            .submit_shard(&spec, Shard { index: 0, count: 1 }, &CancelToken::new(), |_| {})
            .expect_err("a truncated stream must fail");
        assert!(
            err.contains("closed the connection mid-stream"),
            "a partial line at EOF must diagnose as a disconnect, not malformed JSON: {err}"
        );
    }

    /// A fake daemon that answers each of `connections` requests with one
    /// line that never ends: it streams past [`MAX_RESPONSE_LINE_BYTES`]
    /// without a newline, then holds the connection open until the client
    /// hangs up.
    fn flooding_daemon(connections: usize) -> (String, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("ephemeral port binds");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = std::thread::spawn(move || {
            for _ in 0..connections {
                let (stream, _) = listener.accept().expect("client connects");
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .expect("read timeout");
                let mut reader = BufReader::new(stream.try_clone().expect("stream clones"));
                let mut request = String::new();
                reader.read_line(&mut request).expect("request line");
                let mut writer = stream;
                let chunk = vec![b'x'; 64 << 10];
                let mut sent = 0;
                while sent <= MAX_RESPONSE_LINE_BYTES && writer.write_all(&chunk).is_ok() {
                    sent += chunk.len();
                }
                // Returns once the client closes (or the timeout passes).
                let _ = reader.read(&mut [0u8; 1]);
            }
        });
        (addr, handle)
    }

    #[test]
    fn an_endless_response_line_fails_the_call_at_the_cap() {
        let (addr, daemon) = flooding_daemon(3);
        let client = ServeClient::new(addr).with_timeouts(Duration::from_secs(5), Duration::from_secs(30));
        let assert_capped = |err: String| {
            assert!(
                err.contains(&format!("longer than {MAX_RESPONSE_LINE_BYTES} bytes")),
                "an over-long line must fail at the cap: {err}"
            )
        };
        assert_capped(client.stats().expect_err("control call is capped"));
        assert_capped(
            client
                .submit(r#"{"name":"flood"}"#, |_| {})
                .expect_err("submit is capped"),
        );
        let spec = SweepSpec::from_json(r#"{"name":"flood","families":["tree-cycles"],"attackers":["rna"]}"#)
            .expect("spec parses");
        assert_capped(
            client
                .submit_shard(&spec, Shard { index: 0, count: 1 }, &CancelToken::new(), |_| {})
                .expect_err("shard submit is capped"),
        );
        daemon.join().expect("fake daemon exits once every client hung up");
    }

    #[test]
    fn shard_requests_wrap_spec_and_label() {
        let spec = SweepSpec::from_json(r#"{"name":"wrap","families":["tree-cycles"],"attackers":["rna"]}"#)
            .expect("spec parses");
        let wrapped = wrap_shard_request(&spec, Shard { index: 1, count: 3 });
        assert!(matches!(
            wrapped.get_field("shard"),
            Ok(Value::String(s)) if s == "1/3"
        ));
        let inner = wrapped.get_field("spec").expect("spec field");
        assert!(matches!(
            inner.get_field("name"),
            Ok(Value::String(s)) if s == "wrap"
        ));
    }
}
