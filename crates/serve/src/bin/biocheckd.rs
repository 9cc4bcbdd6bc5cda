//! `biocheckd` — the BioCheck query-serving daemon.
//!
//! ```text
//! biocheckd [--addr 127.0.0.1:7878] [--concurrency 2] [--cache-bytes 67108864]
//!           [--max-queue 16] [--persist PATH] [--registry PATH]
//!           [--max-execute-ms N] [--trace] [--trace-out PATH]
//! ```
//!
//! Speaks the line-delimited JSON protocol documented in the README's
//! "Serving" section: one JSON request per line in, one JSON response
//! per line out. Models register by name; seeded queries are memoized
//! in a byte-budgeted LRU keyed by `(model fingerprint, canonical
//! query, seed, count caps)`. Stop it with `{"op":"shutdown"}` (or the
//! `biocheck_client` helper) — the daemon drains in-flight queries
//! before exiting.
//!
//! `--max-queue` bounds the admission queue: arrivals beyond it get an
//! `overloaded` reply with a `retry_after_ms` hint instead of waiting.
//! `--persist PATH` spills memoized results to a checksummed
//! append-only log that doubles as the memo store — RAM keeps one
//! index entry per result until it is hit — and is indexed again on the
//! next boot (warm start): a restart — even after SIGKILL — serves
//! previously computed queries as cache hits with identical
//! fingerprints. `--registry PATH` does the same
//! for registrations: every model's canonical source is logged and
//! replayed on boot, so a restarted daemon serves the same models
//! under the same fingerprints with **no client re-registration** —
//! with both logs, a crash is invisible to clients beyond the
//! reconnect.
//!
//! Each model's session is frozen at registration: queries parse into
//! private views of it, so a literal sweep never grows it, and compiled
//! artifacts live in a fixed-size per-model LRU (gauges in `stats` and
//! `metrics`). No memory flag is needed.
//!
//! `--max-execute-ms N` arms a watchdog that cancels any query
//! executing past the ceiling (typed `watchdog_cancelled` reply), so a
//! wedged solver cannot pin an execution slot forever.
//!
//! Observability: `{"op":"stats"}` returns counters plus per-phase
//! latency percentiles (lifetime and last-60 s) and an `inflight`
//! block of currently executing requests, `{"op":"metrics"}` returns
//! a Prometheus-style text exposition (see `docs/OPERATIONS.md`).
//! `--trace` additionally traces every request and prints each
//! completed request's span tree (`serve.request`, `engine.query`,
//! ...) to stderr as one indented block — emitted atomically per
//! request, so concurrent connections never interleave lines. An
//! interactive debugging aid, too verbose for production.
//! `--trace-out PATH` also traces every request and writes the
//! retained traces as Chrome trace-event JSON (loadable in
//! `chrome://tracing` / Perfetto) to PATH at shutdown; the same JSON
//! is available live over the wire via `{"op":"trace_export"}`.
//!
//! An unknown flag or a malformed value prints the usage text and exits
//! with status 2.
//!
//! Prints `biocheckd listening on <addr>` on stdout once bound — with
//! `--addr 127.0.0.1:0` the kernel-assigned port is in that line.

use biocheck_serve::server::{serve, ServeConfig, ServeCore};
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: biocheckd [--addr HOST:PORT] [--concurrency N] [--cache-bytes N]\n\
\x20                [--max-queue N] [--persist PATH] [--registry PATH]\n\
\x20                [--max-execute-ms N] [--trace] [--trace-out PATH]\n\
protocol: line-delimited JSON (see README \"Serving\")";

/// Refuses the command line: the problem, the usage text, exit status 2.
fn usage_error(problem: &str) -> ! {
    eprintln!("biocheckd: {problem}\n{USAGE}");
    std::process::exit(2);
}

/// The value following `flag`, parsed, or a usage error.
fn value<T: FromStr>(flag: &str, raw: Option<String>) -> T {
    let Some(raw) = raw else {
        usage_error(&format!("{flag} needs a value"))
    };
    raw.parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag}: invalid value {raw:?}")))
}

fn main() {
    let mut config = ServeConfig::default();
    let mut addr = String::from("127.0.0.1:7878");
    let (mut trace, mut trace_out) = (false, None::<PathBuf>);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return;
            }
            "--addr" => addr = value(&flag, args.next()),
            "--concurrency" => config.concurrency = value(&flag, args.next()),
            "--cache-bytes" => config.cache_bytes = value(&flag, args.next()),
            "--max-queue" => config.max_queue = value(&flag, args.next()),
            "--persist" => config.persist = Some(value(&flag, args.next())),
            "--registry" => config.registry = Some(value(&flag, args.next())),
            "--max-execute-ms" => {
                config.max_execute = Some(Duration::from_millis(value(&flag, args.next())));
            }
            "--trace" => trace = true,
            "--trace-out" => trace_out = Some(value(&flag, args.next())),
            _ => usage_error(&format!("unknown flag {flag:?}")),
        }
    }
    let core = Arc::new(ServeCore::new(config));
    if trace {
        // Per-request echo: each completed request's whole span tree
        // is rendered first and written in one stderr call, so blocks
        // from concurrent connections never interleave line-by-line.
        core.trace_hub().arm_echo();
    }
    if trace_out.is_some() {
        core.trace_hub().arm();
    }
    let daemon = match serve(Arc::clone(&core), addr.as_str()) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("biocheckd: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!("biocheckd listening on {}", daemon.addr);
    daemon.join();
    if let Some(path) = trace_out {
        let json = core.trace_hub().chrome_trace_json().render();
        match std::fs::write(&path, json) {
            Ok(()) => println!("biocheckd: wrote trace timeline to {}", path.display()),
            Err(e) => eprintln!("biocheckd: cannot write {}: {e}", path.display()),
        }
    }
    println!("biocheckd: shutdown");
}
