//! Long-lived sweep-serving daemon over the experiment engine.
//!
//! ```text
//! # daemon: accept sweep-spec JSON lines on a TCP socket, stream NDJSON results
//! cargo run --release -p geattack-bench --bin geattack-serve -- listen \
//!     [--addr 127.0.0.1:7341] [--workers N] [--queue-limit N] [--serial] \
//!     [--cache-dir DIR] [--cache-budget-mb N] [--max-requests N]
//!
//! # client: submit a spec file, reassemble the report, write it under results/
//! cargo run --release -p geattack-bench --bin geattack-serve -- submit SPEC.json \
//!     [--addr 127.0.0.1:7341]
//! ```
//!
//! One [`Engine`] (and therefore one prepared-experiment cache) serves every
//! request of the daemon's lifetime, so repeated sweeps over overlapping grids
//! skip their GCN training. Connections are handled concurrently: up to
//! `--workers` requests execute at once (cheapest-estimated-cost first among
//! waiters), at most `--queue-limit` more may wait. SIGTERM drains gracefully
//! — in-flight requests finish streaming, then the daemon exits 0. The
//! protocol is NDJSON both ways (see [`geattack_bench::serve`]); `nc` works
//! as a client too:
//!
//! ```text
//! jq -c . examples/sweeps/quick.json | nc 127.0.0.1 7341
//! echo '{"request":"drain"}' | nc 127.0.0.1 7341
//! ```
//!
//! `submit` writes `results/served_<name>.json`, byte-identical to the
//! `results/sweep_<name>.json` of a `geattack-sweep` run of the same spec.

use std::net::TcpListener;
use std::time::Duration;

use geattack_bench::cli::write_json_or_exit;
use geattack_bench::serve::{serve, sigterm_flag, submit, ServeOptions};
use geattack_core::engine::Engine;

const DEFAULT_ADDR: &str = "127.0.0.1:7341";

const USAGE: &str = "usage: geattack-serve listen [--addr HOST:PORT] [--workers N] [--queue-limit N] \
[--serial] [--cache-dir DIR] [--cache-budget-mb N] [--max-requests N]\n       \
geattack-serve submit SPEC.json [--addr HOST:PORT]";

fn fail(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn next_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| fail(&format!("{flag} expects a value")))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_else(|| fail("expected a subcommand"));
    match command.as_str() {
        "listen" => listen(args),
        "submit" => submit_command(args),
        "--help" | "-h" => {
            eprintln!("{USAGE}");
        }
        other => fail(&format!("unknown subcommand `{other}`")),
    }
}

fn listen(mut args: impl Iterator<Item = String>) {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut serial = false;
    let mut cache_dir: Option<String> = None;
    let mut cache_budget_mb: Option<u64> = None;
    let mut max_requests: Option<usize> = None;
    let mut workers = 1usize;
    let mut queue_limit = 16usize;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = next_value(&mut args, "--addr"),
            "--serial" => serial = true,
            "--workers" => {
                let value = next_value(&mut args, "--workers");
                match value.parse() {
                    Ok(n) => workers = n,
                    Err(_) => fail(&format!("--workers expects a number, got `{value}`")),
                }
            }
            "--queue-limit" => {
                let value = next_value(&mut args, "--queue-limit");
                match value.parse() {
                    Ok(n) => queue_limit = n,
                    Err(_) => fail(&format!("--queue-limit expects a number, got `{value}`")),
                }
            }
            "--cache-dir" => cache_dir = Some(next_value(&mut args, "--cache-dir")),
            "--cache-budget-mb" => {
                let value = next_value(&mut args, "--cache-budget-mb");
                match value.parse() {
                    Ok(mb) => cache_budget_mb = Some(mb),
                    Err(_) => fail(&format!("--cache-budget-mb expects a number, got `{value}`")),
                }
            }
            "--max-requests" => {
                let value = next_value(&mut args, "--max-requests");
                match value.parse() {
                    Ok(n) => max_requests = Some(n),
                    Err(_) => fail(&format!("--max-requests expects a number, got `{value}`")),
                }
            }
            other => fail(&format!("unknown option: {other}")),
        }
    }
    if cache_budget_mb.is_some() && cache_dir.is_none() {
        fail("--cache-budget-mb requires --cache-dir");
    }

    let mut engine = Engine::new().serial(serial);
    if let Some(dir) = cache_dir {
        engine = engine
            .with_cache(dir.clone().into(), cache_budget_mb)
            .unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            });
        eprintln!("serving with shared prepared-experiment cache at {dir}");
    }
    let listener = TcpListener::bind(&addr).unwrap_or_else(|e| {
        eprintln!("cannot listen on {addr}: {e}");
        std::process::exit(2);
    });
    // Report the bound address, not the requested one: with `--addr host:0`
    // the kernel picks the port, and scripts/tests parse this line to find it.
    let bound = listener.local_addr().map(|a| a.to_string()).unwrap_or(addr);
    eprintln!(
        "geattack-serve listening on {bound} (one sweep-spec JSON object per line, \
{workers} worker(s), queue limit {queue_limit})"
    );
    let options = ServeOptions {
        workers,
        queue_limit,
        max_requests,
        term_signal: Some(sigterm_flag()),
    };
    match serve(listener, &engine, options) {
        Ok(served) => eprintln!("geattack-serve exiting after {served} request(s)"),
        Err(e) => {
            eprintln!("serve failed: {e}");
            std::process::exit(1);
        }
    }
}

fn submit_command(mut args: impl Iterator<Item = String>) {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut spec_path: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = next_value(&mut args, "--addr"),
            other if other.starts_with('-') => fail(&format!("unknown option: {other}")),
            other => {
                if spec_path.replace(other.to_string()).is_some() {
                    fail("expected exactly one sweep spec path");
                }
            }
        }
    }
    let spec_path = spec_path.unwrap_or_else(|| fail("expected a sweep spec path"));
    let text = std::fs::read_to_string(&spec_path).unwrap_or_else(|e| {
        eprintln!("cannot read {spec_path}: {e}");
        std::process::exit(2);
    });

    let outcome = submit(&addr, &text, Duration::from_secs(30), |progress| {
        eprintln!("{progress}");
    })
    .unwrap_or_else(|e| {
        eprintln!("submit failed: {e}");
        std::process::exit(1);
    });
    let path = write_json_or_exit(&format!("served_{}", outcome.sweep), &outcome.report_pretty);
    println!("(JSON written to {})", path.display());
}
