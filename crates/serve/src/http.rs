//! A thin blocking HTTP/1.1 shim over a [`ModelZoo`], built directly on
//! `std::net::TcpListener` — no async runtime, per the repo's vendored-deps
//! policy. One acceptor thread, one thread per connection (keep-alive
//! supported); all batching, backpressure and statistics live in the
//! transport-agnostic serving cores behind the zoo. A single-model server
//! is a zoo of one, so every served model carries the zoo's drift tracker:
//! `/healthz` answers 503 while a model's drift reads Degraded, even under
//! [`DriftPolicy::Annotate`](crate::registry::DriftPolicy), where that
//! model's requests are still served.
//!
//! # Routes
//!
//! | Route             | Body                                        | Status |
//! |-------------------|---------------------------------------------|--------|
//! | `GET /healthz` (alias `/v1/healthz`) | per-model health JSON | 200, or 503 when any model is degraded/wedged or the zoo is empty |
//! | `GET /v1/stats`   | [`ZooStats`] as JSON | 200 |
//! | `POST /v1/infer`  | JSON request or binary frame (by `Content-Type`) | 200 |
//!
//! `POST /v1/infer` dispatches on `Content-Type`: `application/json` bodies
//! go through the JSON codec, `application/octet-stream` bodies through the
//! binary frame codec; the response mirrors the request format. A request
//! carrying a model id is routed to that model (an unknown id gets 404);
//! an unnamed request goes to the zoo's default model. Responses served by
//! a drift-Degraded model under
//! [`DriftPolicy::Annotate`](crate::registry::DriftPolicy) carry the
//! degraded marker (JSON `"degraded": true`, binary status
//! [`STATUS_OK_DEGRADED`](crate::protocol::STATUS_OK_DEGRADED)).
//!
//! `GET /v1/stats` returns one section per model, keyed by name:
//!
//! ```json
//! {
//!   "default_model": "cifar",
//!   "models": {
//!     "cifar": {
//!       "version": "v2", "health": "healthy",
//!       "drift_kl": 0.04, "drift_layer": "conv1",
//!       "drift_calibrated": true, "drift_observed": 512,
//!       "swaps": 1, "validation_failures": 0, "rollbacks": 0,
//!       "serve": { "submitted": 512, "completed": 512, "...": "..." }
//!     }
//!   }
//! }
//! ```
//!
//! `GET /healthz` returns per-model health; a healthy zoo of one model
//! named `default` answers `{"status":"ok","models":{"default":{"health":"healthy"}}}`,
//! a zoo with no models answers 503 `{"status":"empty","models":{}}` (it
//! can serve no request), and a drifted model reads:
//!
//! ```json
//! {"status": "degraded",
//!  "models": {"cifar": {"health": "degraded", "kl": 1.31, "layer": "conv1"}}}
//! ```
//!
//! # Status mapping
//!
//! | [`ServeError`] variant | HTTP status |
//! |------------------------|-------------|
//! | `Overloaded`           | 503 (with `Retry-After`) — back off and retry |
//! | `ShuttingDown`         | 503         |
//! | `Degraded`             | 503 (with `Retry-After`) — drift-shed; rolled back soon |
//! | `DeadlineExceeded`     | 504         |
//! | `DeadlineUnmeetable`   | 504 (with computed `Retry-After`) |
//! | `ModelPanicked`        | 500         |
//! | `Protocol`             | 400         |
//! | `Model`                | 422         |
//! | `UnknownModel`         | 404         |
//! | `ValidationFailed`     | 422         |
//! | `Timeout`              | 408 (stalled peer; connection is closed) |
//! | `TooLarge`             | 413         |
//! | `Io`                   | 500         |
//!
//! Error bodies are always JSON: `{"error": "<message>"}`.
//!
//! # Hardening
//!
//! Connections are bounded in every dimension via [`HttpOptions`]: a head
//! that never finishes arriving ([`HttpOptions::header_timeout`]) or a body
//! that trickles ([`HttpOptions::body_timeout`]) gets 408 and the thread
//! back (slowloris protection); an oversized head or declared body gets 413
//! *before* any allocation. Writes carry [`HttpOptions::write_timeout`] so
//! a peer that stops reading cannot pin a thread either.

use crate::core::ServeModel;
use crate::error::ServeError;
use crate::protocol;
use crate::registry::{ModelHealth, ModelZoo, ZooStats};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poll interval for idle keep-alive connections, so connection threads
/// notice shutdown promptly.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Per-connection chaos hook: called with the 0-based inference-request
/// ordinal; returning `true` makes the server drop the connection abruptly
/// (no response bytes), simulating a mid-request network failure. Only the
/// fault-injection tests install one.
pub type ConnectionChaos = Arc<dyn Fn(u64) -> bool + Send + Sync>;

/// Transport limits and timeouts of the HTTP shim. The defaults are
/// generous for trusted clients; lower them at the edge.
#[derive(Clone)]
pub struct HttpOptions {
    /// Ceiling on request head (request line + headers) bytes → 413.
    pub max_head: usize,
    /// Ceiling on request body bytes (checked against `Content-Length`
    /// before any allocation) → 413.
    pub max_body: usize,
    /// How long a partially-received head may keep trickling in → 408.
    /// Idle keep-alive connections (no bytes buffered) are exempt.
    pub header_timeout: Duration,
    /// How long a body may take to arrive after the head → 408.
    pub body_timeout: Duration,
    /// Socket write timeout; a peer that stops reading loses its
    /// connection instead of pinning the thread.
    pub write_timeout: Duration,
    /// Deterministic connection-drop hook for chaos tests.
    pub chaos_drop: Option<ConnectionChaos>,
}

impl Default for HttpOptions {
    fn default() -> Self {
        HttpOptions {
            max_head: 16 * 1024,
            // Comfortably above the largest legal binary frame; hostile
            // `Content-Length` values are refused before any allocation.
            max_body: 128 << 20,
            header_timeout: Duration::from_secs(5),
            body_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            chaos_drop: None,
        }
    }
}

impl std::fmt::Debug for HttpOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpOptions")
            .field("max_head", &self.max_head)
            .field("max_body", &self.max_body)
            .field("header_timeout", &self.header_timeout)
            .field("body_timeout", &self.body_timeout)
            .field("write_timeout", &self.write_timeout)
            .field("chaos_drop", &self.chaos_drop.is_some())
            .finish()
    }
}

/// The `/healthz` status and JSON body: 200 only when the zoo has models
/// and every one is healthy, otherwise 503 with `"empty"`, `"degraded"` or
/// `"wedged"` as the status.
fn health_response<M: ServeModel>(zoo: &ModelZoo<M>) -> (u16, Vec<u8>) {
    let health = zoo.health_all();
    let all_healthy = !health.is_empty() && health.values().all(|h| *h == ModelHealth::Healthy);
    let status_word = if health.is_empty() {
        "empty"
    } else if all_healthy {
        "ok"
    } else if health.values().any(|h| *h == ModelHealth::Wedged) {
        "wedged"
    } else {
        "degraded"
    };
    let models = health
        .into_iter()
        .map(|(name, h)| {
            let mut fields = vec![(
                "health".to_string(),
                serde::Value::Str(h.as_str().to_string()),
            )];
            if let ModelHealth::Degraded { kl, layer } = h {
                fields.push(("kl".to_string(), serde::Value::F64(kl)));
                fields.push(("layer".to_string(), serde::Value::Str(layer)));
            }
            (name, serde::Value::Obj(fields))
        })
        .collect();
    let value = serde::Value::Obj(vec![
        (
            "status".to_string(),
            serde::Value::Str(status_word.to_string()),
        ),
        ("models".to_string(), serde::Value::Obj(models)),
    ]);
    let body = serde_json::to_string(&value)
        .unwrap_or_else(|_| "{\"status\":\"unknown\"}".to_string())
        .into_bytes();
    (if all_healthy { 200 } else { 503 }, body)
}

struct HttpShared<M: ServeModel> {
    zoo: ModelZoo<M>,
    stop: AtomicBool,
    options: HttpOptions,
    /// Ordinal fed to the chaos hook, one per inference request served.
    chaos_requests: AtomicU64,
}

/// The blocking HTTP server over a [`ModelZoo`]; dropping the server (or
/// calling [`HttpServer::shutdown`]) stops the acceptor, joins connection
/// threads, and shuts the zoo's cores down.
pub struct HttpServer<M: ServeModel> {
    shared: Arc<HttpShared<M>>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl<M: ServeModel> HttpServer<M> {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// accepting connections on a dedicated thread. Requests are routed by
    /// their model id (absent → the zoo's default model), `/v1/stats`
    /// reports one section per model, and `/healthz` reports per-model
    /// health. Keep a [`ModelZoo`] clone to drive swaps and rollbacks while
    /// the server runs.
    ///
    /// Every model, a zoo of one included, carries the zoo's drift tracker,
    /// and `/healthz` answers 503 while any model reads Degraded or Wedged,
    /// even when its requests are still served. A zoo with no models
    /// answers 503 `{"status":"empty","models":{}}`, since it can serve no
    /// request.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the address cannot be bound.
    pub fn bind(zoo: ModelZoo<M>, addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        Self::bind_with_options(zoo, addr, HttpOptions::default())
    }

    /// Like [`HttpServer::bind`] with explicit transport limits, timeouts
    /// and chaos hooks.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the address cannot be bound.
    pub fn bind_with_options(
        zoo: ModelZoo<M>,
        addr: impl ToSocketAddrs,
        options: HttpOptions,
    ) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(HttpShared {
            zoo,
            stop: AtomicBool::new(false),
            options,
            chaos_requests: AtomicU64::new(0),
        });
        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let connections = Arc::clone(&connections);
            std::thread::Builder::new()
                .name("snn-serve-acceptor".to_string())
                .spawn(move || accept_loop(&listener, &shared, &connections))
                .map_err(|e| ServeError::Io(e.to_string()))?
        };
        Ok(HttpServer {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            connections,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshot of the serving statistics, one section per model.
    pub fn stats(&self) -> ZooStats {
        self.shared.zoo.stats()
    }

    /// Stops accepting, joins the acceptor and all connection threads, and
    /// shuts down the zoo's serving cores (draining in-flight requests).
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking `accept` with a throwaway connect.
        let _ = TcpStream::connect(self.local_addr);
        let _ = acceptor.join();
        let handles =
            std::mem::take(&mut *self.connections.lock().expect("connection list poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
        self.shared.zoo.shutdown();
    }
}

impl<M: ServeModel> Drop for HttpServer<M> {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn accept_loop<M: ServeModel>(
    listener: &TcpListener,
    shared: &Arc<HttpShared<M>>,
    connections: &Mutex<Vec<JoinHandle<()>>>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let shared = Arc::clone(shared);
        if let Ok(handle) = std::thread::Builder::new()
            .name("snn-serve-conn".to_string())
            .spawn(move || {
                let _ = serve_connection(stream, &shared);
            })
        {
            let mut conns = connections.lock().expect("connection list poisoned");
            // Opportunistically reap finished threads so long-lived servers
            // do not accumulate handles.
            conns.retain(|h| !h.is_finished());
            conns.push(handle);
        }
    }
}

struct Request {
    method: String,
    path: String,
    content_type: String,
    keep_alive: bool,
    body: Vec<u8>,
}

/// Reads one HTTP/1.1 request. Returns `Ok(None)` on clean EOF or shutdown
/// while idle (no partial request buffered).
///
/// Hardened against hostile peers: the head and body each live under a
/// timeout measured from their first byte ([`ServeError::Timeout`] → 408,
/// slowloris protection) and a size cap checked before any allocation
/// ([`ServeError::TooLarge`] → 413).
fn read_request<M: ServeModel>(
    stream: &mut TcpStream,
    shared: &HttpShared<M>,
) -> Result<Option<Request>, ServeError> {
    let options = &shared.options;
    stream.set_read_timeout(Some(IDLE_POLL))?;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    // Phase 1: accumulate until the blank line ends the head. The timeout
    // clock starts at the first byte — an *idle* keep-alive connection may
    // sit as long as it likes, a *started* head must finish promptly.
    let mut head_started: Option<Instant> = None;
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > options.max_head {
            return Err(ServeError::TooLarge(format!(
                "request head exceeds {} bytes",
                options.max_head
            )));
        }
        if let Some(started) = head_started {
            if started.elapsed() > options.header_timeout {
                return Err(ServeError::Timeout(format!(
                    "request head still incomplete after {:?}",
                    options.header_timeout
                )));
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                if buf.is_empty() {
                    return Ok(None);
                }
                return Err(ServeError::protocol("connection closed mid-request"));
            }
            Ok(n) => {
                head_started.get_or_insert_with(Instant::now);
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if buf.is_empty() && shared.stop.load(Ordering::SeqCst) {
                    return Ok(None);
                }
            }
            Err(e) => return Err(e.into()),
        }
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ServeError::protocol("request head is not valid UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    let path = parts.next().unwrap_or("").to_string();
    if method.is_empty() || path.is_empty() {
        return Err(ServeError::protocol(format!(
            "malformed request line: {request_line:?}"
        )));
    }
    let mut content_length: usize = 0;
    let mut content_type = String::new();
    // HTTP/1.1 defaults to keep-alive.
    let mut keep_alive = true;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length = value.parse().map_err(|_| {
                    ServeError::protocol(format!("invalid Content-Length {value:?}"))
                })?;
            }
            "content-type" => content_type = value.to_ascii_lowercase(),
            "connection" => keep_alive = !value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    if content_length > options.max_body {
        return Err(ServeError::TooLarge(format!(
            "Content-Length {content_length} exceeds the {}-byte ceiling",
            options.max_body
        )));
    }
    // Phase 2: the body is whatever followed the head plus further reads,
    // bounded by its own timeout.
    let body_started = Instant::now();
    let mut body = buf.split_off(head_end + 4);
    if body.len() > content_length {
        return Err(ServeError::protocol(
            "request body longer than Content-Length (pipelining is not supported)",
        ));
    }
    while body.len() < content_length {
        if body_started.elapsed() > options.body_timeout {
            return Err(ServeError::Timeout(format!(
                "request body still incomplete after {:?}",
                options.body_timeout
            )));
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(ServeError::protocol("connection closed mid-body")),
            Ok(n) => {
                if body.len() + n > content_length {
                    return Err(ServeError::protocol(
                        "request body longer than Content-Length (pipelining is not supported)",
                    ));
                }
                body.extend_from_slice(&chunk[..n]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Some(Request {
        method,
        path,
        content_type,
        keep_alive,
        body,
    }))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn status_line(status: u16) -> &'static str {
    match status {
        200 => "200 OK",
        400 => "400 Bad Request",
        404 => "404 Not Found",
        405 => "405 Method Not Allowed",
        408 => "408 Request Timeout",
        413 => "413 Content Too Large",
        422 => "422 Unprocessable Entity",
        503 => "503 Service Unavailable",
        504 => "504 Gateway Timeout",
        _ => "500 Internal Server Error",
    }
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    retry_after: Option<Duration>,
) -> Result<(), ServeError> {
    let mut head = format!(
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status_line(status),
        content_type,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    if let Some(hint) = retry_after {
        // Retry-After is whole seconds on the wire; round hints up so the
        // client never retries before the server said it could help.
        let secs = hint.as_secs() + u64::from(hint.subsec_nanos() > 0);
        head.push_str(&format!("Retry-After: {}\r\n", secs.max(1)));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;
    Ok(())
}

/// Maps a [`ServeError`] onto its HTTP status (see the module docs).
fn error_status(e: &ServeError) -> u16 {
    match e {
        ServeError::Overloaded { .. } | ServeError::ShuttingDown | ServeError::Degraded { .. } => {
            503
        }
        ServeError::DeadlineExceeded { .. } | ServeError::DeadlineUnmeetable { .. } => 504,
        ServeError::Protocol(_) => 400,
        ServeError::Model(_) | ServeError::ValidationFailed { .. } => 422,
        ServeError::UnknownModel { .. } => 404,
        ServeError::Timeout(_) => 408,
        ServeError::TooLarge(_) => 413,
        ServeError::ModelPanicked { .. } | ServeError::Io(_) => 500,
    }
}

fn error_body(e: &ServeError) -> Vec<u8> {
    let value = serde::Value::Obj(vec![(
        "error".to_string(),
        serde::Value::Str(e.to_string()),
    )]);
    serde_json::to_string(&value)
        .unwrap_or_else(|_| "{\"error\":\"serialization failure\"}".to_string())
        .into_bytes()
}

fn serve_connection<M: ServeModel>(
    mut stream: TcpStream,
    shared: &HttpShared<M>,
) -> Result<(), ServeError> {
    stream.set_write_timeout(Some(shared.options.write_timeout))?;
    loop {
        let request = match read_request(&mut stream, shared) {
            Ok(Some(request)) => request,
            Ok(None) => return Ok(()),
            Err(e) => {
                // Best-effort error report; the connection is unusable after
                // a framing failure either way.
                let _ = write_response(
                    &mut stream,
                    error_status(&e),
                    "application/json",
                    &error_body(&e),
                    false,
                    e.retry_after(),
                );
                return Err(e);
            }
        };
        let keep_alive = request.keep_alive && !shared.stop.load(Ordering::SeqCst);
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz" | "/v1/healthz") => {
                let (status, body) = health_response(&shared.zoo);
                write_response(
                    &mut stream,
                    status,
                    "application/json",
                    &body,
                    keep_alive,
                    None,
                )?;
            }
            ("GET", "/v1/stats") => {
                let body = serde_json::to_string(&shared.zoo.stats())
                    .unwrap_or_else(|_| "{}".to_string())
                    .into_bytes();
                write_response(
                    &mut stream,
                    200,
                    "application/json",
                    &body,
                    keep_alive,
                    None,
                )?;
            }
            ("POST", "/v1/infer") => {
                if let Some(chaos) = &shared.options.chaos_drop {
                    let ordinal = shared.chaos_requests.fetch_add(1, Ordering::SeqCst);
                    if chaos(ordinal) {
                        // Simulated network failure: hang up without a
                        // response, exactly as a dying peer would.
                        return Ok(());
                    }
                }
                let binary = request.content_type.contains("octet-stream");
                let outcome = if binary {
                    protocol::decode_frame_request(&request.body)
                } else {
                    protocol::decode_json_request(&request.body)
                }
                .and_then(|req| shared.zoo.infer_annotated(req));
                match outcome {
                    Ok((response, degraded)) => {
                        if binary {
                            let body = protocol::encode_frame_response(&response, degraded);
                            write_response(
                                &mut stream,
                                200,
                                "application/octet-stream",
                                &body,
                                keep_alive,
                                None,
                            )?;
                        } else {
                            let body = protocol::encode_json_response(&response, degraded)?;
                            write_response(
                                &mut stream,
                                200,
                                "application/json",
                                &body,
                                keep_alive,
                                None,
                            )?;
                        }
                    }
                    Err(e) => {
                        write_response(
                            &mut stream,
                            error_status(&e),
                            "application/json",
                            &error_body(&e),
                            keep_alive,
                            e.retry_after(),
                        )?;
                    }
                }
            }
            ("POST" | "GET", _) => {
                let e = ServeError::protocol(format!("no such route: {}", request.path));
                write_response(
                    &mut stream,
                    404,
                    "application/json",
                    &error_body(&e),
                    keep_alive,
                    None,
                )?;
            }
            _ => {
                let e = ServeError::protocol(format!("method {} not allowed", request.method));
                write_response(
                    &mut stream,
                    405,
                    "application/json",
                    &error_body(&e),
                    keep_alive,
                    None,
                )?;
            }
        }
        if !keep_alive {
            return Ok(());
        }
    }
}
