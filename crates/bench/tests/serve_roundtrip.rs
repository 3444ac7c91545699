//! Round-trip test of the serve protocol: a spec submitted over TCP must come
//! back as an NDJSON event stream whose assembled report is **byte-identical**
//! to what a `geattack-sweep` run of the same spec writes — cold and warm,
//! with the daemon's shared cache hitting on the second request.

use std::net::TcpListener;
use std::time::Duration;

use geattack_bench::serve::{serve, submit, ServeOptions};
use geattack_core::engine::{CancelToken, Engine};
use geattack_core::sweep::{merge_shards, Shard};
use geattack_fleet::client::{ServeClient, ShardEvent};
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
fn sharded_requests_stream_shard_reports_that_merge_byte_identically() {
    let spec = SweepSpec::from_json(SPEC).expect("spec parses");
    let reference = Engine::new()
        .serial(true)
        .run_report(&spec)
        .expect("reference sweep runs")
        .to_json();

    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port binds");
    let addr = listener.local_addr().expect("addr").to_string();
    let engine = Engine::new().serial(true);
    let options = ServeOptions {
        fleet_id: Some("w-test".to_string()),
        ..ServeOptions::with_max_requests(Some(2))
    };
    let daemon = std::thread::spawn(move || serve(listener, &engine, options));

    // The worker advertises its fleet identity in `stats`.
    let client = ServeClient::new(&addr);
    assert_eq!(client.fleet_id().expect("stats answers"), Some("w-test".to_string()));

    // Dispatch both slices of a 2-way split; each `accepted` event echoes its
    // shard label, and each `done` event carries the raw shard report.
    let cancel = CancelToken::new();
    let mut echoes = Vec::new();
    let shards: Vec<_> = Shard::split(2)
        .expect("split")
        .into_iter()
        .map(|shard| {
            client
                .submit_shard(&spec, shard, &cancel, |event| {
                    if let ShardEvent::Accepted { shard, .. } = event {
                        echoes.push(shard);
                    }
                })
                .expect("sharded submit succeeds")
        })
        .collect();
    assert_eq!(
        echoes,
        vec![Some("0/2".to_string()), Some("1/2".to_string())],
        "accepted events must echo the dispatched shard"
    );
    assert_eq!(shards[0].shard_index, 0);
    assert_eq!(shards[1].shard_index, 1);

    let merged = merge_shards(&shards).expect("slices merge strictly");
    assert_eq!(
        merged.to_json(),
        reference,
        "client-side merge of served shards must be byte-identical to the CLI artifact"
    );
    daemon.join().expect("daemon thread").expect("daemon exits cleanly");
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
