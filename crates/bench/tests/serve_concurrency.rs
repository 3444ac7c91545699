//! Concurrency behavior of the serve daemon: simultaneous requests execute in
//! parallel with byte-identical reports, cancellation aborts one session
//! without disturbing the daemon, admission control rejects when the queue is
//! full, drain/term-signal shut the daemon down cleanly, and closed
//! connections do not pile up handler threads.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use geattack_attack::TargetedAttack;
use geattack_bench::serve::{connect_retry, serve, submit, ServeOptions, MAX_REQUEST_LINE_BYTES};
use geattack_core::engine::Engine;
use geattack_core::{AttackerKind, AttackerPlugin, Prepared};
use geattack_scenarios::SweepSpec;
use serde::Value;

/// A small-but-real spec (one GCN training per seed); `seeds` and `name` vary
/// per test below.
fn spec_json(name: &str, seeds: &[u64]) -> String {
    let seeds = seeds.iter().map(|s| s.to_string()).collect::<Vec<_>>().join(", ");
    format!(
        r#"{{
            "name": "{name}",
            "families": ["tree-cycles"],
            "scales": [0.07],
            "seeds": [{seeds}],
            "attackers": ["fga-t", "rna"],
            "victims": 3
        }}"#
    )
}

/// Starts an in-process daemon on an ephemeral port.
fn daemon(options: ServeOptions) -> (String, std::thread::JoinHandle<std::io::Result<usize>>) {
    daemon_with(Engine::new().serial(true), options)
}

/// [`daemon`] serving a caller-configured engine.
fn daemon_with(engine: Engine, options: ServeOptions) -> (String, std::thread::JoinHandle<std::io::Result<usize>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port binds");
    let addr = listener.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || serve(listener, &engine, options));
    (addr, handle)
}

/// FGA-T under another name, whose `build` returns only once `parties` have
/// arrived: other builds, or the test thread itself through
/// [`Rendezvous::arrive`]. Requests that use it can only finish while they run
/// side by side, or once the test lets them go, so their overlap with other
/// requests holds by construction rather than by timing. Builds after the
/// last party pass straight through. The wait gives up after a minute,
/// turning a regression into a failed assertion instead of a hung test.
struct Rendezvous {
    parties: usize,
    arrived: Mutex<usize>,
    all_here: Condvar,
}

impl Rendezvous {
    fn new(parties: usize) -> Arc<Self> {
        Arc::new(Self {
            parties,
            arrived: Mutex::new(0),
            all_here: Condvar::new(),
        })
    }

    /// Counts the test thread in as one party, releasing the waiting builds
    /// once all have arrived.
    fn arrive(&self) {
        *self.arrived.lock().unwrap() += 1;
        self.all_here.notify_all();
    }
}

impl AttackerPlugin for Rendezvous {
    fn name(&self) -> &str {
        "Rendezvous"
    }

    fn build(&self, prepared: &Prepared) -> geattack_core::error::Result<Box<dyn TargetedAttack + Sync>> {
        let mut arrived = self.arrived.lock().unwrap();
        *arrived += 1;
        self.all_here.notify_all();
        let _ = self
            .all_here
            .wait_timeout_while(arrived, Duration::from_secs(60), |arrived| *arrived < self.parties)
            .unwrap();
        Ok(prepared.attacker(AttackerKind::FgaT))
    }
}

/// An engine with `plugin` registered next to the builtins.
fn engine_with(plugin: Arc<Rendezvous>) -> Engine {
    let mut engine = Engine::new().serial(true);
    engine.register_attacker(plugin).expect("plugin registers");
    engine
}

/// [`spec_json`] with FGA-T replaced by the [`Rendezvous`] attacker.
fn rendezvous_spec_json(name: &str, seeds: &[u64]) -> String {
    let text = spec_json(name, seeds);
    assert!(text.contains(r#""fga-t", "rna""#), "spec_json's attacker list moved");
    text.replace(r#""fga-t", "rna""#, r#""rendezvous", "rna""#)
}

/// Sends raw NDJSON lines over one connection, one parsed response per line.
fn raw_request(addr: &str, lines: &[&str]) -> Vec<Value> {
    let stream = connect_retry(addr, Duration::from_secs(10)).expect("connects");
    let mut writer = std::io::BufWriter::new(stream.try_clone().expect("clone"));
    let mut reader = BufReader::new(stream);
    let mut responses = Vec::new();
    for line in lines {
        writeln!(writer, "{line}").expect("sends");
        writer.flush().expect("flushes");
        let mut response = String::new();
        reader.read_line(&mut response).expect("reads");
        responses.push(serde_json::from_str(response.trim()).expect("response parses"));
    }
    responses
}

fn field(value: &Value, name: &str) -> Value {
    value.get_field(name).expect(name).clone()
}

fn number(value: &Value, name: &str) -> f64 {
    match field(value, name) {
        Value::Number(n) => n,
        other => panic!("{name} is not a number: {other:?}"),
    }
}

#[test]
fn concurrent_clients_get_byte_identical_reports_and_overlap_in_flight() {
    let spec_a = rendezvous_spec_json("conc-a", &[0]);
    let spec_b = rendezvous_spec_json("conc-b", &[1]);
    // The references run one at a time, so their rendezvous has one party.
    let reference = |text: &str| {
        engine_with(Rendezvous::new(1))
            .run_report(&SweepSpec::from_json(text).expect("spec parses"))
            .expect("reference sweep runs")
            .to_json()
    };
    let (reference_a, reference_b) = (reference(&spec_a), reference(&spec_b));

    let (addr, handle) = daemon_with(
        engine_with(Rendezvous::new(2)),
        ServeOptions {
            workers: 2,
            queue_limit: 4,
            ..Default::default()
        },
    );
    // Each client submits its own spec, then the other client's: the first
    // pair overlaps by construction, and the swapped second pair checks that
    // concurrent clients asking for the same spec get the same bytes.
    let (outcomes_a, outcomes_b) = std::thread::scope(|scope| {
        let submit_in_turn = |specs: [&str; 2]| {
            let addr = addr.clone();
            let specs = specs.map(str::to_string);
            scope.spawn(move || specs.map(|text| submit(&addr, &text, Duration::from_secs(60), |_| {})))
        };
        let a = submit_in_turn([&spec_a, &spec_b]);
        let b = submit_in_turn([&spec_b, &spec_a]);
        (a.join().expect("client a"), b.join().expect("client b"))
    });
    let [a_own, a_swapped] = outcomes_a.map(|outcome| outcome.expect("client a's requests succeed"));
    let [b_own, b_swapped] = outcomes_b.map(|outcome| outcome.expect("client b's requests succeed"));
    for (outcome, reference) in [
        (&a_own, &reference_a),
        (&b_own, &reference_b),
        (&a_swapped, &reference_b),
        (&b_swapped, &reference_a),
    ] {
        assert_eq!(&outcome.report_pretty, reference, "served bytes must match the CLI");
    }
    let ids: BTreeSet<_> = [&a_own, &a_swapped, &b_own, &b_swapped]
        .iter()
        .map(|outcome| outcome.request_id)
        .collect();
    assert_eq!(ids.len(), 4, "requests get distinct ids: {ids:?}");

    let stats = &raw_request(&addr, &[r#"{"request":"stats"}"#])[0];
    let requests = field(stats, "requests");
    assert_eq!(number(&requests, "served"), 4.0);
    assert!(
        number(&requests, "peak_in_flight") >= 2.0,
        "two workers must have executed simultaneously: {stats:?}"
    );
    let queue = field(stats, "queue");
    assert_eq!(number(&queue, "workers"), 2.0);
    let latency = field(stats, "latency_ms");
    assert_eq!(number(&field(&latency, "request_run"), "count"), 4.0);
    assert_eq!(number(&field(&latency, "request_wait"), "count"), 4.0);

    let _ = raw_request(&addr, &[r#"{"request":"drain"}"#]);
    let accepted = handle.join().expect("daemon thread").expect("daemon exits cleanly");
    assert_eq!(accepted, 4);
}

#[test]
fn cancelling_a_request_mid_flight_leaves_the_daemon_healthy() {
    // The first cell's attacker build waits for the test, so the request is
    // still in flight when the cancel lands.
    let gate = Rendezvous::new(2);
    let (addr, handle) = daemon_with(
        engine_with(Arc::clone(&gate)),
        ServeOptions {
            workers: 1,
            queue_limit: 4,
            ..Default::default()
        },
    );

    // Submit a 6-cell sweep on a raw connection so the event stream is visible
    // line by line.
    let stream = connect_retry(&addr, Duration::from_secs(10)).expect("connects");
    let mut writer = std::io::BufWriter::new(stream.try_clone().expect("clone"));
    let mut reader = BufReader::new(stream);
    let spec: Value =
        serde_json::from_str(&rendezvous_spec_json("cancel-me", &[0, 1, 2, 3, 4, 5])).expect("valid json");
    writeln!(writer, "{}", serde_json::to_string(&spec).expect("compact")).expect("sends");
    writer.flush().expect("flushes");

    // Read until the first cell starts, remembering the request id.
    let mut id = None;
    let mut lines = (&mut reader).lines();
    for line in &mut lines {
        let value: Value = serde_json::from_str(line.expect("reads").trim()).expect("event parses");
        match field(&value, "event") {
            Value::String(e) if e == "accepted" => id = Some(number(&value, "id") as u64),
            Value::String(e) if e == "started" => break,
            _ => {}
        }
    }
    let id = id.expect("an accepted event named the request id");

    // Cancel it from a second connection.
    let cancelled = &raw_request(&addr, &[&format!(r#"{{"request":"cancel","id":{id}}}"#)])[0];
    assert!(matches!(field(cancelled, "event"), Value::String(e) if e == "cancelled"));
    gate.arrive();

    // The stream must terminate with an error event mentioning the
    // cancellation; skipped cells surface as failed events of kind
    // `cancelled` along the way.
    let mut saw_cancelled_cell = false;
    let mut terminal = None;
    for line in &mut lines {
        let value: Value = serde_json::from_str(line.expect("reads").trim()).expect("event parses");
        match field(&value, "event") {
            Value::String(e) if e == "failed" => {
                if matches!(field(&value, "kind"), Value::String(k) if k == "cancelled") {
                    saw_cancelled_cell = true;
                }
            }
            Value::String(e) if e == "error" => {
                terminal = Some(field(&value, "error"));
                break;
            }
            Value::String(e) if e == "done" => panic!("cancelled request must not complete"),
            _ => {}
        }
    }
    assert!(saw_cancelled_cell, "remaining cells must be skipped as cancelled");
    match terminal {
        Some(Value::String(message)) => {
            assert!(
                message.contains("cancel"),
                "error must mention the cancellation: {message}"
            )
        }
        other => panic!("stream must end in an error event, got {other:?}"),
    }

    // The daemon keeps serving: health answers, a fresh request completes, and
    // the stats ledger shows exactly one cancelled request.
    let health = &raw_request(&addr, &[r#"{"request":"health"}"#])[0];
    assert!(matches!(field(health, "status"), Value::String(s) if s == "ok"));
    let outcome = submit(&addr, &spec_json("after-cancel", &[0]), Duration::from_secs(60), |_| {})
        .expect("the daemon survives a cancellation");
    assert_eq!(outcome.sweep, "after-cancel");
    let stats = &raw_request(&addr, &[r#"{"request":"stats"}"#])[0];
    let requests = field(stats, "requests");
    assert_eq!(number(&requests, "cancelled"), 1.0);
    assert_eq!(number(&requests, "served"), 1.0);
    assert!(number(&field(stats, "cells"), "cancelled") >= 1.0);

    let _ = raw_request(&addr, &[r#"{"request":"drain"}"#]);
    handle.join().expect("daemon thread").expect("daemon exits cleanly");
}

#[test]
fn full_queue_rejects_with_a_protocol_error() {
    let gate = Rendezvous::new(2);
    let (addr, handle) = daemon_with(
        engine_with(Arc::clone(&gate)),
        ServeOptions {
            workers: 1,
            queue_limit: 0,
            ..Default::default()
        },
    );

    // Occupy the single worker, signalling once the first cell is running;
    // its attacker build holds the worker until the test lets it go.
    let (started_tx, started_rx) = mpsc::channel();
    let first = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            submit(
                &addr,
                &rendezvous_spec_json("occupy", &[0, 1]),
                Duration::from_secs(60),
                move |p| {
                    if p.contains("started") {
                        let _ = started_tx.send(());
                    }
                },
            )
        })
    };
    started_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("first request starts");

    // With a zero-length queue the concurrent request is rejected outright.
    let err = submit(&addr, &spec_json("rejected", &[0]), Duration::from_secs(30), |_| {}).unwrap_err();
    assert!(err.contains("queue full"), "{err}");
    gate.arrive();
    first.join().expect("client").expect("occupying request completes");

    let stats = &raw_request(&addr, &[r#"{"request":"stats"}"#])[0];
    let requests = field(stats, "requests");
    assert_eq!(number(&requests, "rejected"), 1.0);
    assert_eq!(number(&requests, "served"), 1.0);

    let _ = raw_request(&addr, &[r#"{"request":"drain"}"#]);
    handle.join().expect("daemon thread").expect("daemon exits cleanly");
}

#[test]
fn malformed_control_requests_answer_with_errors_not_hangups() {
    let (addr, handle) = daemon(ServeOptions::default());
    let responses = raw_request(
        &addr,
        &[
            r#"{"request":"cancel"}"#,
            r#"{"request":"cancel","id":"seven"}"#,
            r#"{"request":"cancel","id":999}"#,
            r#"{"request":"reopen"}"#,
            r#"{"not json"#,
        ],
    );
    let message = |value: &Value| match field(value, "error") {
        Value::String(m) => m,
        other => panic!("expected an error event, got {other:?}"),
    };
    assert!(message(&responses[0]).contains("numeric `id`"), "{responses:?}");
    assert!(message(&responses[1]).contains("numeric `id`"), "{responses:?}");
    assert!(message(&responses[2]).contains("no active request"), "{responses:?}");
    assert!(message(&responses[3]).contains("unknown request"), "{responses:?}");
    // A line that is not JSON at all is not a control request; it falls
    // through to spec parsing and errors there — on the same live connection.
    assert!(matches!(field(&responses[4], "event"), Value::String(e) if e == "error"));

    // All of that left the request ledger untouched.
    let stats = &raw_request(&addr, &[r#"{"request":"stats"}"#])[0];
    let requests = field(stats, "requests");
    assert_eq!(number(&requests, "served"), 0.0);
    assert_eq!(number(&requests, "cancelled"), 0.0);

    let _ = raw_request(&addr, &[r#"{"request":"drain"}"#]);
    handle.join().expect("daemon thread").expect("daemon exits cleanly");
}

#[test]
fn hostile_lines_get_error_events_and_the_daemon_stays_up() {
    let (addr, handle) = daemon(ServeOptions::default());
    // ~400 KB of nesting would overflow a handler thread's stack if the parser
    // recursed all the way down; an over-long line would grow its buffer
    // without bound if reads were not capped.
    let deep = format!("{}{}", "[".repeat(200_000), "]".repeat(200_000));
    let long = format!(r#"{{"request":"{}"}}"#, "x".repeat(MAX_REQUEST_LINE_BYTES));
    let responses = raw_request(&addr, &[&deep, &long, r#"{"request":"health"}"#]);
    let message = |value: &Value| match field(value, "error") {
        Value::String(m) => m,
        other => panic!("expected an error event, got {other:?}"),
    };
    assert!(
        message(&responses[0]).contains("nesting deeper than"),
        "{:?}",
        responses[0]
    );
    assert!(
        message(&responses[1]).contains("request line longer than"),
        "{:?}",
        responses[1]
    );
    // The rest of the over-long line was skipped: the same connection is
    // still in sync and the daemon answers.
    assert!(matches!(field(&responses[2], "status"), Value::String(s) if s == "ok"));
    let stats = &raw_request(&addr, &[r#"{"request":"stats"}"#])[0];
    assert_eq!(number(&field(stats, "requests"), "failed"), 2.0);

    let _ = raw_request(&addr, &[r#"{"request":"drain"}"#]);
    handle.join().expect("daemon thread").expect("daemon exits cleanly");
}

#[test]
fn finished_connections_are_reaped_not_held_for_the_daemon_lifetime() {
    let (addr, handle) = daemon(ServeOptions::default());
    // One connection per request, as the submit and fleet clients do.
    for _ in 0..64 {
        let health = &raw_request(&addr, &[r#"{"request":"health"}"#])[0];
        assert!(matches!(field(health, "status"), Value::String(s) if s == "ok"));
    }
    // Handlers exit once their client hangs up and are joined on the accept
    // loop's next turn, so the count settles at this stats connection plus at
    // most the previous one. A daemon that kept every handler stays above 64.
    let deadline = Instant::now() + Duration::from_secs(10);
    let open = loop {
        let stats = &raw_request(&addr, &[r#"{"request":"stats"}"#])[0];
        let open = number(&field(stats, "requests"), "open_connections");
        if open <= 2.0 || Instant::now() >= deadline {
            break open;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        (1.0..=2.0).contains(&open),
        "open_connections = {open} after 64 closed connections"
    );

    let _ = raw_request(&addr, &[r#"{"request":"drain"}"#]);
    handle.join().expect("daemon thread").expect("daemon exits cleanly");
}

#[test]
fn drain_refuses_new_sweeps_but_finishes_the_one_in_flight() {
    // The in-flight sweep's attacker build waits for the test, so it is still
    // running when the drain lands.
    let gate = Rendezvous::new(2);
    let (addr, handle) = daemon_with(
        engine_with(Arc::clone(&gate)),
        ServeOptions {
            workers: 1,
            queue_limit: 4,
            ..Default::default()
        },
    );

    let (started_tx, started_rx) = mpsc::channel();
    let in_flight = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            submit(
                &addr,
                &rendezvous_spec_json("drain-rt", &[0, 1]),
                Duration::from_secs(60),
                move |p| {
                    if p.contains("started") {
                        let _ = started_tx.send(());
                    }
                },
            )
        })
    };
    started_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("request starts");

    // Drain while the sweep runs: the daemon acknowledges with its live
    // occupancy, refuses a subsequent sweep on the same connection, and still
    // finishes the in-flight request.
    let stream = connect_retry(&addr, Duration::from_secs(10)).expect("connects");
    let mut writer = std::io::BufWriter::new(stream.try_clone().expect("clone"));
    let mut reader = BufReader::new(stream);
    writeln!(writer, r#"{{"request":"drain"}}"#).expect("sends");
    writer.flush().expect("flushes");
    let mut response = String::new();
    reader.read_line(&mut response).expect("reads");
    let draining: Value = serde_json::from_str(response.trim()).expect("parses");
    assert!(matches!(field(&draining, "event"), Value::String(e) if e == "draining"));
    assert_eq!(number(&draining, "in_flight"), 1.0);

    let refused_spec: Value = serde_json::from_str(&spec_json("too-late", &[0])).expect("valid json");
    writeln!(writer, "{}", serde_json::to_string(&refused_spec).expect("compact")).expect("sends");
    writer.flush().expect("flushes");
    let mut refused = String::new();
    reader.read_line(&mut refused).expect("reads");
    let refused: Value = serde_json::from_str(refused.trim()).expect("parses");
    match field(&refused, "error") {
        Value::String(m) => assert!(m.contains("draining"), "{m}"),
        other => panic!("expected an error event, got {other:?}"),
    }
    drop(reader);
    drop(writer);
    gate.arrive();

    let outcome = in_flight.join().expect("client").expect("in-flight request finishes");
    assert_eq!(outcome.sweep, "drain-rt");
    let accepted = handle.join().expect("daemon thread").expect("daemon drains cleanly");
    assert_eq!(accepted, 1, "only the in-flight sweep was admitted");
}

#[test]
fn a_set_term_signal_drains_the_daemon_like_sigterm_would() {
    let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let (addr, handle) = daemon(ServeOptions {
        term_signal: Some(flag),
        ..Default::default()
    });
    // The daemon is idle; flipping the flag (what the SIGTERM handler does)
    // must make serve() return promptly with zero requests.
    let health = &raw_request(&addr, &[r#"{"request":"health"}"#])[0];
    assert!(matches!(field(health, "status"), Value::String(s) if s == "ok"));
    flag.store(true, Ordering::SeqCst);
    let accepted = handle.join().expect("daemon thread").expect("daemon exits cleanly");
    assert_eq!(accepted, 0);
}

#[test]
fn connect_retry_gives_up_after_the_timeout() {
    // Bind then drop a listener so the port is (almost certainly) closed.
    let port = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        listener.local_addr().expect("addr").port()
    };
    let addr = format!("127.0.0.1:{port}");
    let begun = Instant::now();
    let err = connect_retry(&addr, Duration::from_millis(300)).unwrap_err();
    assert!(err.contains("cannot connect"), "{err}");
    assert!(
        begun.elapsed() >= Duration::from_millis(250),
        "must keep retrying until the deadline, gave up after {:?}",
        begun.elapsed()
    );
}
