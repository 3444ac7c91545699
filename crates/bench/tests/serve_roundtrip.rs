//! Round-trip test of the serve protocol: a spec submitted over TCP must come
//! back as an NDJSON event stream whose assembled report is **byte-identical**
//! to what a `geattack-sweep` run of the same spec writes — cold and warm,
//! with the daemon's shared cache hitting on the second request.

use std::net::TcpListener;
use std::time::Duration;

use geattack_bench::serve::{serve, submit, ServeOptions};
use geattack_core::engine::Engine;
use geattack_scenarios::SweepSpec;
use serde::Value;

/// The wire spec: tiny but real (one GCN training, two attackers).
const SPEC: &str = r#"{
    "name": "serve-rt",
    "families": ["tree-cycles"],
    "scales": [0.07],
    "seeds": [0],
    "attackers": ["fga-t", "rna"],
    "victims": 3
}"#;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("geattack-serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The parameterised cell kinds (degree buckets, a λ sweep) and cells that
/// share a trained base across both explainers.
const PARAMETERISED: [&str; 3] = [
    include_str!("../../../tests/specs/degree_buckets.json"),
    include_str!("../../../tests/specs/lambda.json"),
    include_str!("../../../tests/specs/two_explainers.json"),
];

#[test]
fn served_reports_are_byte_identical_to_cli_sweeps_and_share_the_cache() {
    // An in-process daemon on an ephemeral port, with a shared cache, serving
    // a cold and a warm request per spec, then exiting.
    let specs = [SPEC, PARAMETERISED[0], PARAMETERISED[1], PARAMETERISED[2]];
    let cache_dir = temp_dir("cache");
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port binds");
    let addr = listener.local_addr().expect("addr").to_string();
    let engine = Engine::new()
        .serial(true)
        .with_cache(cache_dir.clone(), None)
        .expect("cache opens");
    let requests = 2 * specs.len();
    let daemon = std::thread::spawn(move || serve(listener, &engine, ServeOptions::with_max_requests(Some(requests))));

    for text in specs {
        let spec = SweepSpec::from_json(text).expect("spec parses");
        // What `geattack-sweep` would write for this spec.
        let reference = Engine::new()
            .serial(true)
            .run_report(&spec)
            .expect("reference sweep runs")
            .to_json();

        // Cold request: the daemon prepares and caches the experiment.
        let cold = submit(&addr, text, Duration::from_secs(10), |_| {}).expect("cold submit succeeds");
        assert_eq!(cold.sweep, spec.name);
        assert_eq!(
            cold.report_pretty, reference,
            "{}: NDJSON-assembled report must be byte-identical to the CLI artifact",
            spec.name
        );

        // Warm request over a fresh connection: same bytes, served from cache.
        let warm = submit(&addr, text, Duration::from_secs(10), |_| {}).expect("warm submit succeeds");
        assert_eq!(
            warm.report_pretty, reference,
            "{}: warm-cache round-trip stays byte-identical",
            spec.name
        );
        match &warm.cache {
            Value::Object(_) => {
                let hits = match warm.cache.get_field("hits") {
                    Ok(Value::Number(h)) => *h as u64,
                    other => panic!("cache counters missing hits: {other:?}"),
                };
                assert!(hits >= 1, "the second request must hit the shared cache");
                assert!(
                    matches!(warm.cache.get_field("misses"), Ok(Value::Number(m)) if *m == 0.0),
                    "{}: a warm request hits every base and stage entry",
                    spec.name
                );
            }
            other => panic!("daemon ran with a cache but reported {other:?}"),
        }
    }

    let served = daemon.join().expect("daemon thread").expect("daemon exits cleanly");
    assert_eq!(served, requests);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn request_level_errors_come_back_as_error_events_and_the_daemon_survives() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port binds");
    let addr = listener.local_addr().expect("addr").to_string();
    let engine = Engine::new().serial(true);
    let daemon = std::thread::spawn(move || serve(listener, &engine, ServeOptions::with_max_requests(Some(1))));

    // An invalid spec (unknown family) must produce a protocol-level error…
    let bad = r#"{ "name": "bad", "families": ["petersen"], "attackers": ["rna"] }"#;
    let err = submit(&addr, bad, Duration::from_secs(10), |_| {}).unwrap_err();
    assert!(err.contains("unknown graph family"), "{err}");

    // …and so must a spec wrapped with a shard label: a request always runs
    // the whole grid, and a split sweep is `geattack-sweep --shard` per
    // machine plus `geattack-merge`.
    let wrapped = format!(r#"{{"spec":{},"shard":"1/2"}}"#, SPEC);
    let err = submit(&addr, &wrapped, Duration::from_secs(10), |_| {}).unwrap_err();
    assert!(err.contains("invalid sweep spec"), "{err}");

    // …while the daemon keeps serving: the next (valid) request completes.
    let mut spec = SweepSpec::from_json(SPEC).expect("spec parses");
    spec.name = "serve-recovers".to_string();
    let good = serde_json::to_string_pretty(&spec).expect("serializes");
    let outcome = submit(&addr, &good, Duration::from_secs(10), |_| {}).expect("valid submit succeeds");
    assert_eq!(outcome.sweep, "serve-recovers");

    daemon.join().expect("daemon thread").expect("daemon exits cleanly");
}

#[test]
fn oversized_grids_get_an_error_event_and_the_daemon_survives() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port binds");
    let addr = listener.local_addr().expect("addr").to_string();
    let engine = Engine::new().serial(true);
    let daemon = std::thread::spawn(move || serve(listener, &engine, ServeOptions::with_max_requests(Some(1))));

    // 20,000 scales x 20,000 seeds fit one request line (~0.5 MB) but expand
    // to 4e8 cells: planning them would abort the daemon on the allocation.
    let scales: Vec<String> = (1..=20_000).map(|i| (i as f64 / 20_000.0).to_string()).collect();
    let seeds: Vec<String> = (0..20_000).map(|i| i.to_string()).collect();
    let huge = format!(
        r#"{{ "name": "huge", "families": ["cora"], "attackers": ["fga"], "scales": [{}], "seeds": [{}] }}"#,
        scales.join(","),
        seeds.join(",")
    );
    let err = submit(&addr, &huge, Duration::from_secs(10), |_| {}).unwrap_err();
    assert!(err.contains("result cells"), "{err}");

    let outcome = submit(&addr, SPEC, Duration::from_secs(10), |_| {}).expect("valid submit succeeds");
    assert_eq!(outcome.sweep, "serve-rt");
    daemon.join().expect("daemon thread").expect("daemon exits cleanly");
}

/// Sends raw NDJSON lines over one connection and returns one parsed response
/// per request line.
fn raw_request(addr: &str, lines: &[&str]) -> Vec<Value> {
    use std::io::{BufRead, BufReader, Write};
    let stream = geattack_bench::serve::connect_retry(addr, Duration::from_secs(10)).expect("connects");
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

#[test]
fn stats_and_health_requests_report_live_engine_state() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port binds");
    let addr = listener.local_addr().expect("addr").to_string();
    let cache_dir = temp_dir("stats");
    let engine = Engine::new()
        .serial(true)
        .with_cache(cache_dir.clone(), None)
        .expect("cache opens");
    let daemon = std::thread::spawn(move || serve(listener, &engine, ServeOptions::with_max_requests(Some(2))));

    // Cold daemon: health answers, stats shows an idle engine.
    let responses = raw_request(&addr, &[r#"{"request":"health"}"#, r#"{"request":"stats"}"#]);
    let field = |value: &Value, name: &str| value.get_field(name).expect(name).clone();
    assert!(matches!(field(&responses[0], "status"), Value::String(s) if s == "ok"));
    assert!(matches!(field(&responses[0], "uptime_ms"), Value::Number(_)));
    let cells = field(&responses[1], "cells");
    assert!(matches!(field(&cells, "finished"), Value::Number(n) if n == 0.0));

    // Run one sweep, then read stats again on a fresh connection. Control
    // requests never count toward --max-requests, so the daemon still waits
    // for a second sweep.
    submit(&addr, SPEC, Duration::from_secs(10), |_| {}).expect("sweep runs");
    let responses = raw_request(&addr, &[r#"{"request":"stats"}"#, r#"{"request":"reboot"}"#]);
    let stats = &responses[0];
    let requests = field(stats, "requests");
    assert!(matches!(field(&requests, "served"), Value::Number(n) if n == 1.0));
    let cells = field(stats, "cells");
    assert!(matches!(field(&cells, "finished"), Value::Number(n) if n == 1.0));
    let cache = field(stats, "cache");
    assert!(matches!(field(&cache, "misses"), Value::Number(n) if n >= 1.0));
    assert!(matches!(field(&cache, "hit_rate"), Value::Number(r) if (0.0..=1.0).contains(&r)));
    assert!(matches!(field(&cache, "bytes_encoded"), Value::Number(b) if b > 0.0));
    // The one-cell sweep built its base and shared it with nobody.
    let prepare = field(stats, "prepare");
    assert!(matches!(field(&prepare, "bases_built"), Value::Number(n) if n == 1.0));
    assert!(matches!(field(&prepare, "bases_reused"), Value::Number(n) if n == 0.0));
    let latency = field(stats, "latency_ms");
    let cell_total = field(&latency, "cell_total");
    assert!(matches!(field(&cell_total, "count"), Value::Number(n) if n == 1.0));
    assert!(matches!(field(&cell_total, "p95"), Value::Number(p) if p > 0.0));
    // Unknown control requests answer with an error event, not a hangup.
    assert!(matches!(field(&responses[1], "event"), Value::String(e) if e == "error"));

    // A second sweep lets the daemon exit; it served 2 sweep requests.
    submit(&addr, SPEC, Duration::from_secs(10), |_| {}).expect("second sweep runs");
    let served = daemon.join().expect("daemon thread").expect("daemon exits cleanly");
    assert_eq!(served, 2, "control requests never count toward --max-requests");
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// Sends one sweep request and returns its whole event stream, up to and
/// including the final `done`/`error` event.
fn stream_events(addr: &str, spec: &str) -> Vec<Value> {
    use std::io::{BufRead, BufReader, Write};
    let stream = geattack_bench::serve::connect_retry(addr, Duration::from_secs(10)).expect("connects");
    let mut writer = stream.try_clone().expect("clone");
    let compact = serde_json::to_string(&serde_json::from_str::<Value>(spec).expect("spec is JSON")).expect("compacts");
    writeln!(writer, "{compact}").expect("sends");
    let mut events = Vec::new();
    for line in BufReader::new(stream).lines() {
        let event: Value = serde_json::from_str(&line.expect("reads")).expect("event parses");
        let last = matches!(event.get_field("event"), Ok(Value::String(e)) if e == "done" || e == "error");
        events.push(event);
        if last {
            break;
        }
    }
    events
}

/// Every key path of a JSON value, in document order.
fn key_paths(value: &Value, prefix: &str, out: &mut Vec<String>) {
    if let Value::Object(fields) = value {
        for (key, child) in fields {
            let path = format!("{prefix}.{key}");
            out.push(path.clone());
            key_paths(child, &path, out);
        }
    }
}

fn object_keys(value: &Value) -> Vec<&str> {
    match value {
        Value::Object(fields) => fields.iter().map(|(key, _)| key.as_str()).collect(),
        other => panic!("expected an object, found {other:?}"),
    }
}

#[test]
fn done_and_cell_events_share_the_sidecar_telemetry_schema() {
    let spec = SweepSpec::from_json(SPEC).expect("spec parses");
    let run = Engine::new().serial(true).run(&spec, None).expect("reference run");
    let meta: Value = serde_json::from_str(&run.meta_json()).expect("sidecar parses");
    let mut sidecar_paths = Vec::new();
    key_paths(
        meta.get_field("telemetry").expect("sidecar telemetry"),
        "",
        &mut sidecar_paths,
    );

    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port binds");
    let addr = listener.local_addr().expect("addr").to_string();
    let engine = Engine::new().serial(true);
    let daemon = std::thread::spawn(move || serve(listener, &engine, ServeOptions::with_max_requests(Some(1))));
    let events = stream_events(&addr, SPEC);
    daemon.join().expect("daemon thread").expect("daemon exits cleanly");

    let done = events.last().expect("the stream ends with an event");
    assert_eq!(done.get_field("event"), Ok(&Value::String("done".to_string())));
    let telemetry = done.get_field("telemetry").expect("done telemetry");
    let mut done_paths = Vec::new();
    key_paths(telemetry, "", &mut done_paths);
    assert_eq!(
        done_paths, sidecar_paths,
        "the done event renders the sidecar's telemetry object"
    );

    let phase_totals = telemetry.get_field("phase_totals_ms").expect("phase totals");
    let cells: Vec<&Value> = events
        .iter()
        .filter(|e| e.get_field("event") == Ok(&Value::String("cell".to_string())))
        .collect();
    assert_eq!(cells.len(), spec.prepared_cells());
    for cell in cells {
        let timing = cell.get_field("timing_ms").expect("cell timing");
        assert_eq!(object_keys(timing), object_keys(phase_totals));
    }

    // The protocol rounds like the sidecar: whole microseconds.
    if let Value::Object(fields) = phase_totals {
        for (phase, value) in fields {
            let micros = value.as_f64().expect("a number") * 1e3;
            assert!((micros - micros.round()).abs() < 1e-6, "{phase} = {value:?} ms");
        }
    }
}
