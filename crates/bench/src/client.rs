//! The client side of the `geattack-serve` NDJSON protocol, used by
//! `geattack-serve submit` and the `perfbench` serve workload.
//!
//! One connection carries one request line and its response stream:
//!
//! * control requests (`{"request":"health"}`, `stats`, `cancel`, `drain`)
//!   answer with a single JSON line — see [`control`];
//! * a sweep spec runs the full grid and streams events until a `done` event
//!   embedding the merged report — see [`submit`].
//!
//! Errors are rendered strings: callers that need to distinguish transport
//! failures from server-side refusals look at the message.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use serde::Value;

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
/// first. A line over the cap is an `InvalidData` error.
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
        if !read_response_line(&mut reader, &mut line).map_err(read_error)? {
            // EOF: between lines the stream simply ended early; inside one,
            // the daemon went away mid-event. Neither is malformed JSON.
            return Err(if line.is_empty() {
                "connection closed before a `done` event".to_string()
            } else {
                "daemon closed the connection mid-stream".to_string()
            });
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
    match value.get_field("event") {
        Ok(Value::String(event)) => Ok((event.clone(), value)),
        _ => Err(format!(
            "event line without an `event` field: {}",
            serde_json::to_string(&value).unwrap_or_default()
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

#[cfg(test)]
mod tests {
    use super::*;

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
            writeln!(writer, r#"{{"event":"accepted","id":1,"cost":1.0,"queue_depth":0}}"#).expect("accepted line");
            write!(writer, r#"{{"event":"cell","posi"#).expect("partial line");
            writer.flush().expect("flush");
            // Dropping the socket closes the connection mid-line.
        });

        let spec = r#"{"name":"partial","families":["tree-cycles"],"attackers":["rna"]}"#;
        let err = submit(&addr, spec, Duration::from_secs(5), |_| {}).expect_err("a truncated stream must fail");
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
        let (addr, daemon) = flooding_daemon(2);
        let timeout = Duration::from_secs(5);
        let assert_capped = |err: String| {
            assert!(
                err.contains(&format!("longer than {MAX_RESPONSE_LINE_BYTES} bytes")),
                "an over-long line must fail at the cap: {err}"
            )
        };
        assert_capped(control(&addr, r#"{"request":"stats"}"#, timeout).expect_err("control call is capped"));
        assert_capped(submit(&addr, r#"{"name":"flood"}"#, timeout, |_| {}).expect_err("submit is capped"));
        daemon.join().expect("fake daemon exits once every client hung up");
    }
}
