//! A blocking wire-protocol client: one request out, one response in.
//!
//! Used by the daemon smoke tests, the CI scripted batch, and the
//! bench load generator. The client is deliberately synchronous —
//! pipelining is achieved by opening more clients (the daemon serves
//! each connection on its own thread and admits work FIFO).
//!
//! # Framing
//!
//! A request goes out as one write of its JSON line and `\n`, on a
//! socket with `TCP_NODELAY` set (the daemon sets it too, and writes
//! each reply the same way). Two writes under Nagle's algorithm would
//! hold the second segment until the daemon's delayed ACK fired — tens
//! of milliseconds added to a round trip whose server side is
//! microseconds.
//!
//! # Failure behavior
//!
//! Every socket operation is bounded by the timeouts in
//! [`ClientConfig`], so a dead or hung daemon fails the call instead
//! of blocking the process forever. [`Client::query`] additionally
//! retries with capped exponential backoff — reconnecting after
//! transport failures, and honoring the server's `retry_after_ms`
//! hint on `overloaded` replies. Retrying a query is safe by
//! construction: seeded queries are deterministic and memoized, so a
//! duplicate execution returns a bit-identical report (usually from
//! the cache). Non-retryable server errors (`invalid_request`,
//! `query_error`, ...) surface immediately.

use crate::json::{parse_json, Json};
use crate::wire::{ModelSource, QueryRequest, Request};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Socket timeouts and retry policy for a [`Client`].
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Per-address TCP connect timeout.
    pub connect_timeout: Duration,
    /// Socket read timeout (bounds how long one reply may take; cover
    /// your longest expected query).
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Retry attempts for [`Client::query`] after the initial try.
    pub retries: u32,
    /// First backoff delay; doubles per retry.
    pub retry_base: Duration,
    /// Backoff ceiling.
    pub retry_cap: Duration,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(120),
            write_timeout: Duration::from_secs(30),
            retries: 3,
            retry_base: Duration::from_millis(100),
            retry_cap: Duration::from_secs(5),
        }
    }
}

/// One decoded query response.
#[derive(Clone, Debug)]
pub struct QueryReply {
    /// Was the report served from the result cache?
    pub cached: bool,
    /// The server-computed [`Report::fingerprint`](biocheck_engine::Report::fingerprint).
    pub fingerprint: String,
    /// The full `"report"` payload.
    pub report: Json,
}

/// How one request attempt failed — drives the retry decision.
enum Failure {
    /// The socket failed (send, receive, closed, reconnect): the
    /// connection is unusable and a retry needs a fresh one.
    Transport(String),
    /// The server answered `ok: false`.
    Server {
        kind: Option<String>,
        message: String,
        retry_after_ms: Option<u64>,
    },
}

impl Failure {
    fn into_message(self) -> String {
        match self {
            Failure::Transport(m) => m,
            Failure::Server { message, .. } => message,
        }
    }

    /// Overloaded replies carry the server's backoff hint; transport
    /// failures are retryable against a restarted or recovered daemon.
    fn retry_hint(&self) -> Option<Option<u64>> {
        match self {
            Failure::Transport(_) => Some(None),
            Failure::Server {
                kind,
                retry_after_ms,
                ..
            } if kind.as_deref() == Some("overloaded") => Some(*retry_after_ms),
            Failure::Server { .. } => None,
        }
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// A blocking connection to a `biocheckd` daemon.
pub struct Client {
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    conn: Option<Conn>,
    /// splitmix64 state for retry-backoff jitter, seeded per client so
    /// a burst of shed clients does not retry in lockstep.
    jitter_rng: u64,
}

/// splitmix64: one draw per backoff decision.
fn jitter_draw(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Scales `backoff` by a factor uniform in `[0.75, 1.25)` — ±25%
/// jitter, so clients shed by the same `overloaded` burst spread their
/// retries instead of hammering back in unison (thundering herd).
fn jittered(backoff: Duration, draw: u64) -> Duration {
    let unit = (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    backoff.mul_f64(0.75 + 0.5 * unit)
}

impl Client {
    /// Connects to a daemon with [`ClientConfig::default`] timeouts.
    /// Fails fast: a dead address errors after `connect_timeout`, never
    /// hangs.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connects with an explicit configuration.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> std::io::Result<Client> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            ));
        }
        // Seed from the clock plus a process-wide sequence number:
        // clients created in the same instant still draw distinct
        // jitter streams.
        static CLIENT_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = CLIENT_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        let mut client = Client {
            addrs,
            config,
            conn: None,
            jitter_rng: nanos ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        };
        client.reconnect().map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::ConnectionRefused, e.into_message())
        })?;
        Ok(client)
    }

    fn reconnect(&mut self) -> Result<(), Failure> {
        self.conn = None;
        let mut last = None;
        for addr in &self.addrs {
            match TcpStream::connect_timeout(addr, self.config.connect_timeout) {
                Ok(stream) => {
                    let _ = stream.set_read_timeout(Some(self.config.read_timeout));
                    let _ = stream.set_write_timeout(Some(self.config.write_timeout));
                    let _ = stream.set_nodelay(true);
                    let writer = stream
                        .try_clone()
                        .map_err(|e| Failure::Transport(format!("clone: {e}")))?;
                    self.conn = Some(Conn {
                        reader: BufReader::new(stream),
                        writer,
                    });
                    return Ok(());
                }
                Err(e) => last = Some(e),
            }
        }
        Err(Failure::Transport(format!(
            "connect: {}",
            last.expect("at least one address") // lint: infallible
        )))
    }

    /// One exchange on the current connection: writes `line` (which ends
    /// in `\n`) with one write and reads one reply line.
    fn exchange(&mut self, line: &str) -> Result<String, Failure> {
        if self.conn.is_none() {
            self.reconnect()?;
        }
        let conn = self.conn.as_mut().expect("just connected"); // lint: infallible
        if let Err(e) = conn.writer.write_all(line.as_bytes()) {
            self.conn = None;
            return Err(Failure::Transport(format!("send: {e}")));
        }
        let mut reply = String::new();
        if let Err(e) = conn.reader.read_line(&mut reply) {
            self.conn = None;
            return Err(Failure::Transport(format!("recv: {e}")));
        }
        if reply.is_empty() {
            self.conn = None;
            return Err(Failure::Transport("connection closed".into()));
        }
        Ok(reply)
    }

    /// One request/response exchange, with the reply decoded.
    fn attempt(&mut self, request: &Request) -> Result<Json, Failure> {
        let mut line = request.to_json().render();
        line.push('\n');
        let reply = self.exchange(&line)?;
        let json = match parse_json(reply.trim()) {
            Ok(v) => v,
            Err(e) => {
                // A torn reply line cannot be resynchronized: drop the
                // connection so a retry starts clean.
                self.conn = None;
                return Err(Failure::Transport(format!("malformed reply: {e}")));
            }
        };
        match json.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(json),
            Some(false) => Err(Failure::Server {
                kind: json.get("kind").and_then(Json::as_str).map(str::to_string),
                message: json
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown server error")
                    .to_string(),
                retry_after_ms: json
                    .get("retry_after_ms")
                    .and_then(|v| v.as_f64())
                    .map(|v| v as u64),
            }),
            None => {
                self.conn = None;
                Err(Failure::Transport(format!("malformed response: {reply}")))
            }
        }
    }

    /// Sends one request and reads its response object, without
    /// retrying. Protocol errors (`ok: false`) are returned as `Err`
    /// with the server's message.
    pub fn request(&mut self, request: &Request) -> Result<Json, String> {
        self.attempt(request).map_err(Failure::into_message)
    }

    /// Sends one line exactly as given (plus the terminating newline)
    /// and returns the daemon's reply line, without retrying. The line
    /// is not decoded here, so the daemon alone judges it: a malformed
    /// or refused request comes back as the daemon's own `ok: false`
    /// reply. `Err` means the exchange itself failed (send, receive,
    /// connection closed).
    pub fn request_line(&mut self, line: &str) -> Result<String, String> {
        let reply = self
            .exchange(&format!("{line}\n"))
            .map_err(Failure::into_message)?;
        Ok(reply.trim_end().to_string())
    }

    /// Sends one request, retrying transport failures and `overloaded`
    /// sheds with capped exponential backoff (see [`ClientConfig`]).
    pub fn request_retrying(&mut self, request: &Request) -> Result<Json, String> {
        let mut attempt = 0u32;
        loop {
            let failure = match self.attempt(request) {
                Ok(v) => return Ok(v),
                Err(f) => f,
            };
            let Some(hint_ms) = failure.retry_hint() else {
                return Err(failure.into_message());
            };
            if attempt >= self.config.retries {
                return Err(failure.into_message());
            }
            let backoff = self
                .config
                .retry_base
                .saturating_mul(1u32 << attempt.min(16))
                .min(self.config.retry_cap);
            // Jitter is applied after the cap (so clients pinned at
            // the ceiling still decorrelate) and before the hint floor
            // below (so it can only delay past the hint, never retry
            // ahead of what the server asked for).
            let backoff = jittered(backoff, jitter_draw(&mut self.jitter_rng));
            // The server's hint knows the backlog better than our
            // schedule does; never retry sooner than it asks.
            let delay = match hint_ms {
                Some(ms) => backoff.max(Duration::from_millis(ms).min(self.config.retry_cap)),
                None => backoff,
            };
            std::thread::sleep(delay);
            attempt += 1;
        }
    }

    /// Registers a model; returns its fingerprint.
    pub fn register(&mut self, model: &str, source: &ModelSource) -> Result<String, String> {
        let reply = self.request(&Request::Register {
            model: model.to_string(),
            source: source.clone(),
        })?;
        reply
            .get("fingerprint")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| "register response missing fingerprint".into())
    }

    /// Runs one query, with retry (queries are deterministic and
    /// memoized, so a retried execution cannot change the answer).
    pub fn query(&mut self, request: &QueryRequest) -> Result<QueryReply, String> {
        let reply = self.request_retrying(&Request::Query(request.clone()))?;
        let report = reply
            .get("report")
            .cloned()
            .ok_or("query response missing report")?;
        Ok(QueryReply {
            cached: reply
                .get("cached")
                .and_then(Json::as_bool)
                .ok_or("query response missing cached")?,
            fingerprint: report
                .get("fingerprint")
                .and_then(Json::as_str)
                .ok_or("report missing fingerprint")?
                .to_string(),
            report,
        })
    }

    /// Fetches the statistics payload.
    pub fn stats(&mut self) -> Result<Json, String> {
        self.request(&Request::Stats)?
            .get("stats")
            .cloned()
            .ok_or_else(|| "stats response missing stats".into())
    }

    /// Fetches the Prometheus-style text metrics exposition.
    pub fn metrics(&mut self) -> Result<String, String> {
        self.request(&Request::Metrics)?
            .get("metrics")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| "metrics response missing metrics".into())
    }

    /// Fetches the Chrome-trace (`chrome://tracing`) JSON for recently
    /// completed traced requests (`{"op":"trace_export"}`).
    pub fn trace_export(&mut self) -> Result<Json, String> {
        self.request(&Request::TraceExport)?
            .get("trace")
            .cloned()
            .ok_or_else(|| "trace_export response missing trace".into())
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), String> {
        self.request(&Request::Ping).map(|_| ())
    }

    /// Cancels the in-flight query with the given id; returns whether
    /// the daemon found one.
    pub fn cancel(&mut self, id: u64) -> Result<bool, String> {
        self.request(&Request::Cancel { id })?
            .get("cancelled")
            .and_then(Json::as_bool)
            .ok_or_else(|| "cancel response missing cancelled".into())
    }

    /// Asks the daemon to stop accepting connections. Not retried: the
    /// daemon drains in-flight work before confirming, and a retry
    /// against an already-stopping daemon would just fail again.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.request(&Request::Shutdown).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_stays_within_25_percent() {
        let backoff = Duration::from_millis(400);
        let mut rng = 42u64;
        let (lo, hi) = (backoff.mul_f64(0.75), backoff.mul_f64(1.25));
        for _ in 0..10_000 {
            let d = jittered(backoff, jitter_draw(&mut rng));
            assert!(
                d >= lo && d < hi,
                "jittered delay {d:?} outside [{lo:?}, {hi:?})"
            );
        }
    }

    #[test]
    fn jitter_decorrelates_equal_backoffs() {
        // Two clients shed by the same burst share the backoff schedule
        // but must not share the actual delays.
        let backoff = Duration::from_millis(100);
        let (mut a, mut b) = (1u64, 2u64);
        let delays_a: Vec<Duration> = (0..8)
            .map(|_| jittered(backoff, jitter_draw(&mut a)))
            .collect();
        let delays_b: Vec<Duration> = (0..8)
            .map(|_| jittered(backoff, jitter_draw(&mut b)))
            .collect();
        assert_ne!(delays_a, delays_b);
        // And the stream itself must vary (a constant "jitter" would
        // still be lockstep, just shifted).
        assert!(delays_a.windows(2).any(|w| w[0] != w[1]));
    }
}
