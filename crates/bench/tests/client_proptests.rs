//! Property tests of the serve client's event-line parsing against untrusted
//! bytes. `submit` reads every line a daemon streams, so arbitrary,
//! truncated, deeply nested and over-long lines must come back as `Err` —
//! from `parse_event_line` and from a whole `submit` call — and never panic
//! the client.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use proptest::prelude::*;

use geattack_bench::client::{parse_event_line, submit, MAX_RESPONSE_LINE_BYTES};

/// Well-formed event lines of a sweep stream.
const EVENTS: [&str; 6] = [
    r#"{"event":"accepted","id":7,"cost":12.5,"queue_depth":0}"#,
    r#"{"event":"planned","position":3}"#,
    r#"{"event":"started","position":3}"#,
    r#"{"event":"cell","position":3,"cells":[{"family":"cora","asr":0.5}]}"#,
    r#"{"event":"failed","position":1,"kind":"prepare","error":"boom"}"#,
    r#"{"event":"error","error":"cell 1 failed"}"#,
];

/// Parses `line`, turning a panic into a test failure that names the input.
fn parses_without_panicking(line: &[u8], what: &str) -> bool {
    let result = catch_unwind(AssertUnwindSafe(|| parse_event_line(line).is_ok()));
    result.unwrap_or_else(|_| panic!("event parsing panicked on {what}"))
}

fn bytes(raw: Vec<usize>) -> Vec<u8> {
    raw.into_iter().map(|b| b as u8).collect()
}

#[test]
fn well_formed_events_parse() {
    for line in EVENTS {
        let (event, _) = parse_event_line(format!("{line}\n").as_bytes()).expect(line);
        assert!(line.contains(&format!(r#""event":"{event}""#)));
    }
}

/// A fake daemon that answers one request with `reply` verbatim and hangs up;
/// returns what `submit` made of it.
fn submit_against(reply: Vec<u8>) -> Result<(), String> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port binds");
    let addr = listener.local_addr().expect("addr").to_string();
    let daemon = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("client connects");
        let mut request = String::new();
        BufReader::new(stream.try_clone().expect("stream clones"))
            .read_line(&mut request)
            .expect("request line");
        let mut writer = stream;
        let _ = writer.write_all(&reply);
    });
    let spec = r#"{"name":"p","families":["tree-cycles"],"attackers":["rna"]}"#;
    let outcome = submit(&addr, spec, Duration::from_secs(5), |_| {}).map(|_| ());
    daemon.join().expect("fake daemon exits");
    outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_lines_never_panic(raw in collection::vec(0usize..256, 0..512)) {
        parses_without_panicking(&bytes(raw.clone()), &format!("arbitrary bytes {raw:?}"));
    }

    #[test]
    fn truncated_events_are_rejected(which in 0usize..6, cut in 0.0f64..1.0) {
        let line = EVENTS[which];
        // Any strict prefix of a JSON object is incomplete JSON.
        let len = ((cut * line.len() as f64) as usize).min(line.len() - 1);
        let prefix = &line.as_bytes()[..len];
        prop_assert!(!parses_without_panicking(prefix, &format!("{line} cut to {len} bytes")));
    }

    #[test]
    fn deeply_nested_events_are_rejected(which in 0usize..6, depth in 128usize..4096, array in 0usize..2) {
        // A well-formed event whose extra field nests past the codec's limit.
        let (open, close) = if array == 1 { ("[", "]") } else { (r#"{"a":"#, "}") };
        let nested = format!("{}1{}", open.repeat(depth), close.repeat(depth));
        let line = EVENTS[which].replacen('{', &format!(r#"{{"deep":{nested},"#), 1);
        prop_assert!(!parses_without_panicking(line.as_bytes(), &format!("nesting depth {depth}")));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn whatever_one_line_a_daemon_sends_a_submit_fails_cleanly(
        raw in collection::vec(0usize..256, 0..128),
        which in 0usize..6,
        mode in 0usize..4,
    ) {
        // A garbage line, a truncated event, or a well-formed non-final event
        // followed by a hangup: no `done` ever arrives, so the call errs.
        let reply = match mode {
            0 => bytes(raw),
            1 => {
                let mut line = bytes(raw);
                line.push(b'\n');
                line
            }
            2 => EVENTS[which].as_bytes()[..EVENTS[which].len() / 2].to_vec(),
            _ => format!("{}\n", EVENTS[which]).into_bytes(),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| submit_against(reply)));
        prop_assert!(outcome.is_ok(), "submit panicked");
        prop_assert!(outcome.expect("checked").is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn over_cap_lines_are_rejected(which in 0usize..6, excess in 1usize..4096) {
        // A valid event padded with whitespace to just past the cap: only the
        // length makes it invalid.
        let mut line = EVENTS[which].as_bytes().to_vec();
        line.resize(MAX_RESPONSE_LINE_BYTES + excess, b' ');
        prop_assert!(!parses_without_panicking(&line, &format!("a {}-byte line", line.len())));
        line.truncate(EVENTS[which].len());
        prop_assert!(parses_without_panicking(&line, "the unpadded event"));
    }
}
