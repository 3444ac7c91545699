//! The `geattack-serve` wire protocol: sweep specs in, NDJSON cell events out.
//!
//! The daemon side ([`serve`]) accepts N simultaneous TCP connections — one
//! handler thread per connection — and reads one JSON sweep spec per line
//! (NDJSON framing — multi-line spec files must be compacted to a single
//! line, e.g. `jq -c . spec.json`). Every request executes against one shared
//! [`Engine`] (and therefore one shared prepared-experiment cache), but
//! requests no longer execute one at a time: handler threads feed a bounded
//! cost-aware [`WorkerPool`] (`--workers` slots, `--queue-limit` waiters),
//! whose queue is ordered by the engine's per-cell cost estimate so a cheap
//! quick grid never queues behind a scale-0.6 sweep. The session's events
//! stream back as NDJSON while cells complete:
//!
//! ```text
//! {"event":"accepted","id":7,"cost":123456.0,"queue_depth":1}
//! {"event":"planned","position":0,"family":"ba-shapes","scale":0.08,"seed":0,"explainer":"GNNExplainer"}
//! {"event":"started","position":0}
//! {"event":"cell","position":0,"cells":[{...SweepCell...}, ...],"timing_ms":{"prepare":...,"total":...}}
//! {"event":"failed","position":3,"kind":"prepare","error":"..."}   (remaining cells still run)
//! {"event":"done","sweep":"quick","report":{...},"cache":{"hits":4,...},"telemetry":{...}}
//! {"event":"error","error":"..."}                                  (request-level failure)
//! ```
//!
//! A request line may also be a **sharded** sweep request, wrapping the spec
//! with a `--shard I/N`-style slice — how the fleet coordinator dispatches
//! grid slices to workers:
//!
//! ```text
//! {"spec": {...SweepSpec...}, "shard": "1/3"}
//! ```
//!
//! A sharded request streams the same events, echoes the shard in its
//! `accepted` event (`"shard":"1/3"`) so fleet logs can attribute it, and —
//! because a partial slice cannot be merged server-side — terminates with a
//! `done` event embedding the raw `shard_report` instead of a merged
//! `report`:
//!
//! ```text
//! {"event":"accepted","id":7,"cost":41152.0,"queue_depth":0,"shard":"1/3"}
//! {"event":"done","sweep":"quick","shard":"1/3","shard_report":{...},"cache":...,"telemetry":...}
//! ```
//!
//! A `failed` cell does not abort the session — the engine keeps executing and
//! streaming the remaining cells — but a request with any failed cell cannot
//! assemble a complete report, so it terminates with an `error` event (listing
//! every failed position) instead of `done`. The `cache` counters of the
//! `done` event are per-request deltas, not daemon-lifetime totals.
//!
//! Besides sweep specs, a request line may be a control request:
//!
//! ```text
//! {"request":"health"}         → {"event":"health","status":"ok","uptime_ms":...}
//! {"request":"stats"}          → {"event":"stats","uptime_ms":...,"requests":{...},"queue":{...},"cache":{...},"cells":{...},"prepare":{...},"latency_ms":{...}}
//! {"request":"cancel","id":7}  → {"event":"cancelled","id":7}      (aborts that request's remaining cells)
//! {"request":"drain"}          → {"event":"draining","in_flight":...,"queued":...}
//! ```
//!
//! A line longer than [`MAX_REQUEST_LINE_BYTES`], or JSON nested deeper than
//! the codec's 128 levels, is answered with an `error` event like any other
//! malformed request; the connection stays open.
//!
//! **Cancellation** is per-request: the `id` from the `accepted` event names
//! the session, and a `cancel` control request (from any connection) — or the
//! submitting client disconnecting mid-stream — sets that session's
//! [`CancelToken`]: cells that have not started are skipped (each surfacing as
//! a `failed` event with kind `cancelled`), cells already executing finish,
//! and the request terminates with an `error` event while the daemon keeps
//! serving everything else.
//!
//! **Graceful drain**: a `drain` control request — or SIGTERM, via
//! [`sigterm_flag`] — stops the daemon accepting new connections and new
//! sweep requests (they are refused with an `error` event), lets in-flight
//! and already-queued sweeps finish streaming, then [`serve`] returns so the
//! process can exit cleanly.
//!
//! `stats` exports the daemon-lifetime view: request counters (served,
//! failed, cancelled, rejected, live and peak in-flight, and open
//! connections — the handler threads the daemon holds, joined as their
//! connections close), the worker-pool queue, the shared cache's counters
//! with a live hit rate, the engine's cell counters, its base-sharing
//! counters (`prepare.bases_built` / `bases_reused`) and its per-cell /
//! per-phase latency histograms as
//! `{count,p50,p95,p99,max}` summaries — plus per-request `request_wait` /
//! `request_run` histograms separating time-in-queue from time-executing.
//!
//! The `done` event embeds the full assembled [`SweepReport`] as a JSON value.
//! Because the workspace's JSON codec round-trips every number exactly and
//! preserves object field order, pretty-printing that value reproduces the
//! `results/sweep_<name>.json` artifact of a `geattack-sweep` run of the same
//! spec **byte for byte** — even under concurrent clients, which the CI
//! `concurrent-serve-smoke` job pins.
//!
//! The client side lives in [`geattack_fleet::client`] (shared with the fleet
//! coordinator); [`submit`], [`control`], [`connect_retry`]
//! and [`SubmitOutcome`] are re-exported here for compatibility. [`submit`]
//! connects (with retries, so scripts can start the daemon concurrently),
//! sends one spec, surfaces progress lines and returns the reassembled pretty
//! report.
//!
//! [`SweepReport`]: geattack_core::SweepReport

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::Value;

use geattack_core::engine::{CancelToken, CellEvent, Engine};
use geattack_core::sweep::{PlannedCell, Shard};
use geattack_scenarios::SweepSpec;

use crate::pool::{AdmissionError, WorkerPool};

pub use geattack_fleet::client::{connect_retry, control, submit, SubmitOutcome, MAX_RESPONSE_LINE_BYTES};

/// Serializes one protocol event as a compact single line.
fn line(value: &Value) -> String {
    serde_json::to_string(value).expect("protocol events always serialize")
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn event_value(event: &CellEvent) -> Value {
    match event {
        CellEvent::Planned { cell } => planned_value(cell),
        CellEvent::Started { position } => object(vec![
            ("event", Value::String("started".into())),
            ("position", Value::Number(*position as f64)),
        ]),
        CellEvent::Finished {
            position,
            cells,
            timing,
        } => object(vec![
            ("event", Value::String("cell".into())),
            ("position", Value::Number(*position as f64)),
            ("cells", serde_json::to_value(cells)),
            (
                "timing_ms",
                object(vec![
                    ("prepare", Value::Number(timing.prepare_ms)),
                    ("attack", Value::Number(timing.attack_ms)),
                    ("explain", Value::Number(timing.explain_ms)),
                    ("detect", Value::Number(timing.detect_ms)),
                    ("total", Value::Number(timing.total_ms)),
                ]),
            ),
        ]),
        CellEvent::Failed { position, error } => object(vec![
            ("event", Value::String("failed".into())),
            ("position", Value::Number(*position as f64)),
            ("kind", Value::String(error.kind().to_string())),
            ("error", Value::String(error.to_string())),
        ]),
    }
}

fn planned_value(cell: &PlannedCell) -> Value {
    object(vec![
        ("event", Value::String("planned".into())),
        ("position", Value::Number(cell.position as f64)),
        ("family", Value::String(cell.family.clone())),
        ("scale", Value::Number(cell.scale)),
        ("seed", Value::Number(cell.seed as f64)),
        ("explainer", Value::String(cell.explainer.clone())),
    ])
}

fn error_value(message: &str) -> Value {
    object(vec![
        ("event", Value::String("error".into())),
        ("error", Value::String(message.to_string())),
    ])
}

/// Milliseconds latency distribution as the protocol's `{count,p50,p95,p99,max}`
/// object.
fn latency_value(latency: &geattack_core::LatencySummary) -> Value {
    object(vec![
        ("count", Value::Number(latency.count as f64)),
        ("p50", Value::Number(latency.p50)),
        ("p95", Value::Number(latency.p95)),
        ("p99", Value::Number(latency.p99)),
        ("max", Value::Number(latency.max)),
    ])
}

/// Same summary shape, straight from a histogram snapshot.
fn histogram_value(snap: &geattack_telemetry::HistogramSnapshot) -> Value {
    object(vec![
        ("count", Value::Number(snap.count as f64)),
        ("p50", Value::Number(snap.p50)),
        ("p95", Value::Number(snap.p95)),
        ("p99", Value::Number(snap.p99)),
        ("max", Value::Number(snap.max)),
    ])
}

/// How the daemon loop is configured; see the field docs. `Default` matches
/// the old single-request-at-a-time daemon (one worker), with a 16-deep queue.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Concurrent execution slots of the worker pool (`--workers`), clamped to
    /// at least 1.
    pub workers: usize,
    /// Requests allowed to wait for a slot before admission rejects them with
    /// a queue-full error (`--queue-limit`).
    pub queue_limit: usize,
    /// Stop after this many successfully-parsed sweep requests (the CI smoke
    /// tests use this for a clean exit); `None` serves until drained/killed.
    pub max_requests: Option<usize>,
    /// External shutdown flag: when it becomes `true` (e.g. from a SIGTERM
    /// handler — see [`sigterm_flag`]) the daemon drains gracefully.
    pub term_signal: Option<&'static AtomicBool>,
    /// Worker identity for fleet deployments (`--fleet-id`), surfaced in the
    /// `stats` response so coordinator logs and telemetry can attribute
    /// events per worker.
    pub fleet_id: Option<String>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 1,
            queue_limit: 16,
            max_requests: None,
            term_signal: None,
            fleet_id: None,
        }
    }
}

impl ServeOptions {
    /// The default options with `--max-requests N` set: the shape every
    /// pre-worker-pool call site used.
    pub fn with_max_requests(max_requests: Option<usize>) -> Self {
        ServeOptions {
            max_requests,
            ..Default::default()
        }
    }
}

/// Installs a process-wide SIGTERM handler (unix; a no-op elsewhere) and
/// returns the flag it sets, ready for [`ServeOptions::term_signal`]. The
/// handler only stores into an atomic, which is async-signal-safe.
pub fn sigterm_flag() -> &'static AtomicBool {
    static FLAG: AtomicBool = AtomicBool::new(false);
    #[cfg(unix)]
    {
        extern "C" fn on_term(_signum: i32) {
            FLAG.store(true, Ordering::SeqCst);
        }
        extern "C" {
            // `signal(2)` from libc, which every unix Rust binary links.
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGTERM: i32 = 15;
        // SAFETY: installing an atomic-store-only handler for SIGTERM; the
        // replaced disposition (default: terminate) is not needed back.
        unsafe {
            signal(SIGTERM, on_term);
        }
    }
    &FLAG
}

/// Daemon-lifetime state shared by the accept loop and every connection
/// handler thread.
struct ServeShared {
    engine: Engine,
    pool: WorkerPool,
    started: Instant,
    max_requests: Option<usize>,
    /// Worker identity for fleet deployments, echoed in `stats`.
    fleet_id: Option<String>,
    /// Successfully-parsed sweep requests admitted so far (`--max-requests`
    /// accounting; control requests never count).
    accepted: AtomicUsize,
    /// Requests between admission and their final `done`/`error` event — what
    /// graceful drain waits on.
    outstanding: AtomicUsize,
    /// Requests that reached `done`.
    served: AtomicU64,
    /// Requests that terminated with an `error` event (bad spec, failed cells).
    failed: AtomicU64,
    /// Requests aborted by `cancel` or client disconnect.
    cancelled: AtomicU64,
    /// Requests refused by admission control (queue full or draining).
    rejected: AtomicU64,
    /// Highest number of requests ever executing at once.
    peak_in_flight: AtomicUsize,
    /// Connection handler threads the accept loop holds: open connections
    /// plus any that closed since the loop last reaped finished handlers.
    open_connections: AtomicUsize,
    next_id: AtomicU64,
    /// Cancellation tokens of admitted, not-yet-finished requests, by id.
    active: Mutex<HashMap<u64, CancelToken>>,
    /// Set by `drain`/SIGTERM: refuse new work, finish what is in flight.
    draining: AtomicBool,
    /// Set when the accept loop decided to exit: handler threads close their
    /// connections at the next read-timeout tick.
    stopping: AtomicBool,
}

impl ServeShared {
    /// Reserves one of `--max-requests` (always succeeds when unlimited).
    fn reserve_request(&self) -> bool {
        // `outstanding` goes up before `accepted` so the accept loop can never
        // observe the request count reached with the last request invisible.
        self.outstanding.fetch_add(1, Ordering::SeqCst);
        let admitted = match self.max_requests {
            None => {
                self.accepted.fetch_add(1, Ordering::SeqCst);
                true
            }
            Some(max) => self
                .accepted
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| (n < max).then_some(n + 1))
                .is_ok(),
        };
        if !admitted {
            self.outstanding.fetch_sub(1, Ordering::SeqCst);
        }
        admitted
    }

    /// Marks one admitted request finished.
    fn finish_request(&self) {
        self.outstanding.fetch_sub(1, Ordering::SeqCst);
    }

    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn is_stopping(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }

    /// Refreshes the live queue/in-flight gauges from the pool.
    fn refresh_gauges(&self) {
        let (running, queued) = self.pool.depth();
        let metrics = self.engine.metrics();
        metrics.gauge("serve.in_flight").set(running as f64);
        metrics.gauge("serve.queue_depth").set(queued as f64);
    }
}

/// The `health` response: liveness plus uptime.
fn health_value(shared: &ServeShared) -> Value {
    object(vec![
        ("event", Value::String("health".into())),
        ("status", Value::String("ok".into())),
        ("uptime_ms", Value::Number(shared.started.elapsed().as_secs_f64() * 1e3)),
    ])
}

/// The `worker` identity block of the `stats` response: the `--fleet-id`
/// (null when unset) plus the daemon's pid, so a fleet coordinator can
/// attribute events and a fleet manifest can be checked against live daemons.
fn worker_identity_value(shared: &ServeShared) -> Value {
    object(vec![
        ("fleet_id", shared.fleet_id.clone().map_or(Value::Null, Value::String)),
        ("pid", Value::Number(std::process::id() as f64)),
    ])
}

/// The `stats` response: daemon-lifetime request counters, the worker
/// identity, the worker-pool queue, the shared cache's live counters and hit
/// rate, the engine's cell and base-sharing counters and its latency
/// histograms summarized to percentiles.
fn stats_value(shared: &ServeShared) -> Value {
    let engine = &shared.engine;
    let cache = match engine.cache_metrics() {
        None => Value::Null,
        Some(snapshot) => {
            let count = |name: &str| snapshot.counters.iter().find(|(n, _)| n == name).map_or(0, |&(_, v)| v);
            let (hits, misses) = (count("cache.hits"), count("cache.misses"));
            let lookups = hits + misses;
            let hit_rate = if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            };
            object(vec![
                ("hits", Value::Number(hits as f64)),
                ("misses", Value::Number(misses as f64)),
                ("evictions", Value::Number(count("cache.evictions") as f64)),
                ("hit_rate", Value::Number(hit_rate)),
                ("bytes_read", Value::Number(count("cache.bytes_read") as f64)),
                ("bytes_written", Value::Number(count("cache.bytes_written") as f64)),
                ("bytes_encoded", Value::Number(count("persist.bytes_encoded") as f64)),
                ("bytes_decoded", Value::Number(count("persist.bytes_decoded") as f64)),
            ])
        }
    };
    let metrics = engine.metrics();
    let cells = object(vec![
        ("planned", Value::Number(metrics.counter_value("cells.planned") as f64)),
        ("started", Value::Number(metrics.counter_value("cells.started") as f64)),
        (
            "finished",
            Value::Number(metrics.counter_value("cells.finished") as f64),
        ),
        ("failed", Value::Number(metrics.counter_value("cells.failed") as f64)),
        (
            "cancelled",
            Value::Number(metrics.counter_value("cells.cancelled") as f64),
        ),
    ]);
    let prepare = object(vec![
        (
            "bases_built",
            Value::Number(metrics.counter_value("prepare.bases_built") as f64),
        ),
        (
            "bases_reused",
            Value::Number(metrics.counter_value("prepare.bases_reused") as f64),
        ),
    ]);
    let latency = object(
        [
            ("request_wait", "request.wait_ms"),
            ("request_run", "request.run_ms"),
            ("cell_total", "cell.total_ms"),
            ("prepare", "phase.prepare_ms"),
            ("attack", "phase.attack_ms"),
            ("explain", "phase.explain_ms"),
            ("detect", "phase.detect_ms"),
        ]
        .into_iter()
        .map(|(label, name)| (label, histogram_value(&metrics.histogram(name).snapshot())))
        .collect(),
    );
    let (running, queued) = shared.pool.depth();
    object(vec![
        ("event", Value::String("stats".into())),
        ("uptime_ms", Value::Number(shared.started.elapsed().as_secs_f64() * 1e3)),
        ("worker", worker_identity_value(shared)),
        (
            "requests",
            object(vec![
                ("served", Value::Number(shared.served.load(Ordering::SeqCst) as f64)),
                ("failed", Value::Number(shared.failed.load(Ordering::SeqCst) as f64)),
                (
                    "cancelled",
                    Value::Number(shared.cancelled.load(Ordering::SeqCst) as f64),
                ),
                ("rejected", Value::Number(shared.rejected.load(Ordering::SeqCst) as f64)),
                ("in_flight", Value::Number(running as f64)),
                (
                    "peak_in_flight",
                    Value::Number(shared.peak_in_flight.load(Ordering::SeqCst) as f64),
                ),
                (
                    "open_connections",
                    Value::Number(shared.open_connections.load(Ordering::SeqCst) as f64),
                ),
            ]),
        ),
        (
            "queue",
            object(vec![
                ("depth", Value::Number(queued as f64)),
                ("limit", Value::Number(shared.pool.queue_limit() as f64)),
                ("workers", Value::Number(shared.pool.workers() as f64)),
                ("draining", Value::Bool(shared.is_draining())),
            ]),
        ),
        ("cache", cache),
        ("cells", cells),
        ("prepare", prepare),
        ("latency_ms", latency),
    ])
}

/// How one sweep request ended, for the daemon's request counters.
enum RequestEnd {
    Done,
    Failed,
    Cancelled,
}

/// Runs one admitted sweep request through the engine and streams its events
/// to `out`. Request-level failures (bad spec, failed cells) end in an `error`
/// event; a set `cancel` token ends in an `error` event mentioning the
/// cancellation; transport failures cancel the session, drain it, and
/// propagate as `io::Error` (ending the connection, not the daemon).
fn stream_sweep_session(
    engine: &Engine,
    spec: SweepSpec,
    shard: Option<Shard>,
    cancel: &CancelToken,
    out: &mut impl Write,
) -> std::io::Result<RequestEnd> {
    // The engine's counters accumulate over its lifetime; the `done` event
    // reports this request's delta.
    let counters_before = engine.cache_counters();
    let mut session = match engine.submit_cancellable(spec, shard, cancel.clone()) {
        Ok(session) => session,
        Err(e) => {
            writeln!(out, "{}", line(&error_value(&e.to_string())))?;
            out.flush()?;
            return Ok(RequestEnd::Failed);
        }
    };
    let mut write_error = None;
    while let Some(event) = session.next_event() {
        if let Err(e) = writeln!(out, "{}", line(&event_value(&event))).and_then(|_| out.flush()) {
            // The client went away mid-stream: abort this session's remaining
            // cells, then fall through to drain it so the slot frees promptly.
            cancel.cancel("client disconnected");
            write_error = Some(e);
            break;
        }
    }
    let finished = session.wait();
    if let Some(e) = write_error {
        return Err(e);
    }
    // An unsharded request assembles and embeds the merged report; a sharded
    // request's slice cannot be merged server-side, so its `done` event embeds
    // the raw shard report for the coordinator to merge in-process.
    let end = match finished.and_then(|run| match shard {
        None => engine.merge(std::slice::from_ref(&run.shard)).map(|report| {
            let payload = vec![
                ("sweep", Value::String(report.sweep.clone())),
                ("report", serde_json::to_value(&report)),
            ];
            (run, payload)
        }),
        Some(shard) => {
            let payload = vec![
                ("sweep", Value::String(run.shard.sweep.clone())),
                ("shard", Value::String(shard.label())),
                ("shard_report", serde_json::to_value(&run.shard)),
            ];
            Ok((run, payload))
        }
    }) {
        Ok((run, payload)) => {
            let cache = match (counters_before, engine.cache_counters()) {
                (Some(before), Some(after)) => object(vec![
                    ("hits", Value::Number(after.hits.saturating_sub(before.hits) as f64)),
                    (
                        "misses",
                        Value::Number(after.misses.saturating_sub(before.misses) as f64),
                    ),
                    (
                        "evictions",
                        Value::Number(after.evictions.saturating_sub(before.evictions) as f64),
                    ),
                ]),
                _ => Value::Null,
            };
            let t = &run.telemetry;
            let telemetry = object(vec![
                ("planned_cells", Value::Number(t.planned_cells as f64)),
                ("finished_cells", Value::Number(t.finished_cells as f64)),
                ("failed_cells", Value::Number(t.failed_cells as f64)),
                (
                    "phase_totals_ms",
                    object(vec![
                        ("prepare", Value::Number(t.phase_totals.prepare_ms)),
                        ("attack", Value::Number(t.phase_totals.attack_ms)),
                        ("explain", Value::Number(t.phase_totals.explain_ms)),
                        ("detect", Value::Number(t.phase_totals.detect_ms)),
                        ("total", Value::Number(t.phase_totals.total_ms)),
                    ]),
                ),
                ("cell_latency_ms", latency_value(&t.cell_latency)),
            ]);
            let mut fields = vec![("event", Value::String("done".into()))];
            fields.extend(payload);
            fields.push(("cache", cache));
            fields.push(("telemetry", telemetry));
            let done = object(fields);
            writeln!(out, "{}", line(&done))?;
            RequestEnd::Done
        }
        Err(e) => {
            writeln!(out, "{}", line(&error_value(&e.to_string())))?;
            if cancel.is_cancelled() {
                RequestEnd::Cancelled
            } else {
                RequestEnd::Failed
            }
        }
    };
    out.flush()?;
    Ok(end)
}

/// Admits one parsed sweep request through the worker pool, executes it and
/// streams the outcome. Owns the request's whole lifecycle: id assignment,
/// `accepted` event, cost-aware admission, wait/run histograms, cancellation
/// registration and the daemon's request counters.
fn run_sweep_request(
    shared: &ServeShared,
    spec: SweepSpec,
    shard: Option<Shard>,
    out: &mut impl Write,
) -> std::io::Result<()> {
    let engine = &shared.engine;
    let cost = match engine.estimate_cost(&spec, shard) {
        Ok(cost) => cost,
        Err(e) => {
            shared.failed.fetch_add(1, Ordering::SeqCst);
            shared.finish_request();
            writeln!(out, "{}", line(&error_value(&e.to_string())))?;
            return out.flush();
        }
    };
    let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
    let cancel = CancelToken::new();
    shared
        .active
        .lock()
        .expect("active-request lock")
        .insert(id, cancel.clone());

    let result = (|| -> std::io::Result<()> {
        let (_, queued) = shared.pool.depth();
        let mut fields = vec![
            ("event", Value::String("accepted".into())),
            ("id", Value::Number(id as f64)),
            ("cost", Value::Number(cost)),
            ("queue_depth", Value::Number(queued as f64)),
        ];
        if let Some(shard) = shard {
            // Echo the slice so fleet coordinator logs can attribute it.
            fields.push(("shard", Value::String(shard.label())));
        }
        let accepted = object(fields);
        writeln!(out, "{}", line(&accepted))?;
        out.flush()?;

        let enqueued = Instant::now();
        let permit = match shared.pool.acquire(cost, &cancel) {
            Ok(permit) => permit,
            Err(e) => {
                match e {
                    AdmissionError::QueueFull { .. } => shared.rejected.fetch_add(1, Ordering::SeqCst),
                    AdmissionError::Cancelled => shared.cancelled.fetch_add(1, Ordering::SeqCst),
                };
                let message = geattack_core::GeError::Protocol(format!("request {id} not admitted: {e}")).to_string();
                writeln!(out, "{}", line(&error_value(&message)))?;
                return out.flush();
            }
        };
        engine
            .metrics()
            .histogram("request.wait_ms")
            .record(enqueued.elapsed().as_secs_f64() * 1e3);
        let (running, _) = shared.pool.depth();
        shared.peak_in_flight.fetch_max(running, Ordering::SeqCst);
        shared.refresh_gauges();

        let run_started = Instant::now();
        let outcome = stream_sweep_session(engine, spec, shard, &cancel, out);
        engine
            .metrics()
            .histogram("request.run_ms")
            .record(run_started.elapsed().as_secs_f64() * 1e3);
        drop(permit);
        shared.refresh_gauges();
        match outcome? {
            RequestEnd::Done => shared.served.fetch_add(1, Ordering::SeqCst),
            RequestEnd::Failed => shared.failed.fetch_add(1, Ordering::SeqCst),
            RequestEnd::Cancelled => shared.cancelled.fetch_add(1, Ordering::SeqCst),
        };
        Ok(())
    })();
    if result.is_err() {
        // The connection died mid-request: the session was cancelled and
        // drained by the streamer; account it here.
        shared.cancelled.fetch_add(1, Ordering::SeqCst);
        shared.refresh_gauges();
    }
    shared.active.lock().expect("active-request lock").remove(&id);
    shared.finish_request();
    result
}

/// Parses a sweep request line: a bare spec (the original protocol), or the
/// fleet coordinator's `{"spec": {...}, "shard": "I/N"}` wrapper naming a
/// deterministic grid slice. A wrapper without a `shard` field runs the whole
/// grid, exactly like the bare form.
pub fn parse_sweep_request(request: &str) -> Result<(SweepSpec, Option<Shard>), String> {
    let wrapped = serde_json::from_str::<Value>(request)
        .ok()
        .filter(|value| value.get_field("spec").is_ok());
    let Some(value) = wrapped else {
        return SweepSpec::from_json(request).map(|spec| (spec, None));
    };
    let spec_text =
        serde_json::to_string(value.get_field("spec").expect("presence checked")).map_err(|e| e.to_string())?;
    let spec = SweepSpec::from_json(&spec_text)?;
    let shard = match value.get_field("shard") {
        Err(_) => None,
        Ok(Value::String(label)) => {
            let shard = Shard::parse(label).map_err(|e| e.to_string())?;
            shard.validate().map_err(|e| e.to_string())?;
            Some(shard)
        }
        Ok(other) => {
            return Err(format!(
                "`shard` must be an \"I/N\" string, found {}",
                serde_json::to_string(other).unwrap_or_default()
            ))
        }
    };
    Ok((spec, shard))
}

/// The parsed form of a control request line, when the line is one.
fn control_request(request: &str) -> Option<(String, Value)> {
    let value: Value = serde_json::from_str(request).ok()?;
    match value.get_field("request") {
        Ok(Value::String(kind)) => Some((kind.clone(), value.clone())),
        _ => None,
    }
}

/// Answers one control request (`health`, `stats`, `cancel`, `drain`).
fn handle_control(shared: &ServeShared, kind: &str, request: &Value) -> Value {
    match kind {
        "health" => health_value(shared),
        "stats" => stats_value(shared),
        "cancel" => {
            let id = match request.get_field("id") {
                Ok(Value::Number(id)) => *id as u64,
                _ => {
                    return error_value(
                        &geattack_core::GeError::Protocol("cancel requires a numeric `id` field".to_string())
                            .to_string(),
                    )
                }
            };
            let token = shared.active.lock().expect("active-request lock").get(&id).cloned();
            match token {
                Some(token) => {
                    token.cancel("cancel requested");
                    shared.pool.poke();
                    object(vec![
                        ("event", Value::String("cancelled".into())),
                        ("id", Value::Number(id as f64)),
                    ])
                }
                None => error_value(
                    &geattack_core::GeError::Protocol(format!("no active request with id {id}")).to_string(),
                ),
            }
        }
        "drain" => {
            shared.draining.store(true, Ordering::SeqCst);
            let (running, queued) = shared.pool.depth();
            object(vec![
                ("event", Value::String("draining".into())),
                ("in_flight", Value::Number(running as f64)),
                ("queued", Value::Number(queued as f64)),
            ])
        }
        other => error_value(
            &geattack_core::GeError::Protocol(format!(
                "unknown request `{other}` (known: health, stats, cancel, drain)"
            ))
            .to_string(),
        ),
    }
}

/// Longest request line the daemon reads, newline included. Sweep specs are
/// well under a kilobyte; the cap keeps one peer from growing a handler's
/// buffer without bound. The client side bounds the daemon's response lines
/// the same way, at [`MAX_RESPONSE_LINE_BYTES`] (16 MiB: the largest CI `done`
/// event is ~10 KB, and `huge.json`'s is ~1.2 KB).
pub const MAX_REQUEST_LINE_BYTES: usize = 1 << 20;

/// One request line read off a connection.
enum Incoming {
    /// A complete line (or the unterminated tail before the peer closed).
    Line(String),
    /// A line longer than [`MAX_REQUEST_LINE_BYTES`]; its bytes were skipped.
    TooLong,
}

/// Retries `read` through read-timeout ticks (used to notice daemon shutdown on
/// otherwise idle connections) and interrupts. `Ok(None)` means the daemon is
/// stopping. Bytes a timed-out attempt already read stay in the caller's buffer.
fn read_retrying<T>(shared: &ServeShared, mut read: impl FnMut() -> std::io::Result<T>) -> std::io::Result<Option<T>> {
    loop {
        match read() {
            Ok(value) => return Ok(Some(value)),
            Err(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) => {
                if shared.is_stopping() {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Reads the next request line, holding at most [`MAX_REQUEST_LINE_BYTES`] + 1
/// bytes of it. `Ok(None)` means the peer closed the connection or the daemon
/// is stopping.
fn read_request_line(reader: &mut BufReader<TcpStream>, shared: &ServeShared) -> std::io::Result<Option<Incoming>> {
    let mut buf = Vec::new();
    let read = read_retrying(shared, || {
        // One byte past the cap tells an over-long line from one that fits.
        let budget = (MAX_REQUEST_LINE_BYTES + 1 - buf.len()) as u64;
        reader.by_ref().take(budget).read_until(b'\n', &mut buf)
    })?;
    match read {
        None | Some(0) => Ok(None),
        Some(_) if buf.len() > MAX_REQUEST_LINE_BYTES => {
            if buf.last() != Some(&b'\n') {
                read_retrying(shared, || reader.skip_until(b'\n'))?;
            }
            Ok(Some(Incoming::TooLong))
        }
        Some(_) => String::from_utf8(buf)
            .map(|line| Some(Incoming::Line(line)))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e)),
    }
}

/// Handles one connection: one request per line until the peer closes or the
/// daemon stops. Control requests (`stats`, `health`, `cancel`, `drain`)
/// answer inline and never count toward `--max-requests`.
fn handle_connection(stream: TcpStream, shared: &ServeShared) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    // A wedged client must not stall graceful drain forever.
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    while let Some(incoming) = read_request_line(&mut reader, shared)? {
        let request = match incoming {
            Incoming::Line(request) => request.trim().to_string(),
            Incoming::TooLong => {
                shared.failed.fetch_add(1, Ordering::SeqCst);
                let err = geattack_core::GeError::Protocol(format!(
                    "request line longer than {MAX_REQUEST_LINE_BYTES} bytes"
                ));
                writeln!(writer, "{}", line(&error_value(&err.to_string())))?;
                writer.flush()?;
                continue;
            }
        };
        if request.is_empty() {
            continue;
        }
        if let Some((kind, value)) = control_request(&request) {
            let response = handle_control(shared, &kind, &value);
            writeln!(writer, "{}", line(&response))?;
            writer.flush()?;
            continue;
        }
        match parse_sweep_request(&request) {
            Err(e) => {
                shared.failed.fetch_add(1, Ordering::SeqCst);
                let err = geattack_core::GeError::Protocol(e);
                writeln!(writer, "{}", line(&error_value(&err.to_string())))?;
                writer.flush()?;
            }
            Ok((spec, shard)) => {
                if shared.is_draining() {
                    shared.rejected.fetch_add(1, Ordering::SeqCst);
                    let err =
                        geattack_core::GeError::Protocol("draining: not accepting new sweep requests".to_string());
                    writeln!(writer, "{}", line(&error_value(&err.to_string())))?;
                    writer.flush()?;
                    continue;
                }
                if !shared.reserve_request() {
                    // --max-requests reached: close the connection like the
                    // serial daemon did once its budget was spent.
                    break;
                }
                run_sweep_request(shared, spec, shard, &mut writer)?;
                if shared
                    .max_requests
                    .is_some_and(|max| shared.accepted.load(Ordering::SeqCst) >= max)
                {
                    break;
                }
            }
        }
    }
    Ok(())
}

/// The daemon loop: accepts connections concurrently (one handler thread
/// each) and executes line-delimited sweep requests against one shared engine
/// through a bounded cost-aware worker pool. Returns the number of admitted
/// sweep requests once the daemon stops: after `max_requests` admitted
/// requests have finished, or after a `drain` control request / a set
/// `term_signal` (SIGTERM) has let in-flight work complete. Per-connection
/// I/O errors end that connection, not the daemon.
pub fn serve(listener: TcpListener, engine: &Engine, options: ServeOptions) -> std::io::Result<usize> {
    listener.set_nonblocking(true)?;
    let shared = Arc::new(ServeShared {
        engine: engine.clone(),
        pool: WorkerPool::new(options.workers, options.queue_limit),
        started: Instant::now(),
        max_requests: options.max_requests,
        fleet_id: options.fleet_id.clone(),
        accepted: AtomicUsize::new(0),
        outstanding: AtomicUsize::new(0),
        served: AtomicU64::new(0),
        failed: AtomicU64::new(0),
        cancelled: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        peak_in_flight: AtomicUsize::new(0),
        open_connections: AtomicUsize::new(0),
        next_id: AtomicU64::new(1),
        active: Mutex::new(HashMap::new()),
        draining: AtomicBool::new(false),
        stopping: AtomicBool::new(false),
    });
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        // Join handlers whose connection has closed, so a long-lived daemon
        // holds one thread per open connection, not one per connection ever
        // accepted.
        let (finished, open): (Vec<_>, Vec<_>) = handlers.into_iter().partition(|h| h.is_finished());
        for handle in finished {
            let _ = handle.join();
        }
        handlers = open;
        shared.open_connections.store(handlers.len(), Ordering::SeqCst);
        if let Some(term) = options.term_signal {
            if term.load(Ordering::SeqCst) {
                shared.draining.store(true, Ordering::SeqCst);
            }
        }
        let budget_spent = options
            .max_requests
            .is_some_and(|max| shared.accepted.load(Ordering::SeqCst) >= max);
        if (shared.is_draining() || budget_spent) && shared.outstanding.load(Ordering::SeqCst) == 0 {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.is_draining() || budget_spent {
                    // Refused: the daemon is winding down.
                    drop(stream);
                    continue;
                }
                // Counted before the handler can answer a `stats` request.
                shared.open_connections.store(handlers.len() + 1, Ordering::SeqCst);
                let handler_shared = Arc::clone(&shared);
                handlers.push(std::thread::spawn(move || {
                    if let Err(e) = handle_connection(stream, &handler_shared) {
                        eprintln!("serve: connection ended: {e}");
                    }
                }));
            }
            Err(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    // Stop idle connections and wait for every handler to notice.
    shared.stopping.store(true, Ordering::SeqCst);
    for handle in handlers {
        let _ = handle.join();
    }
    Ok(shared.accepted.load(Ordering::SeqCst))
}
