//! End-to-end coverage of the HTTP/1.1 shim over a real engine: JSON and
//! binary inference round trips, the stats and health endpoints, status
//! mapping for malformed bodies, and keep-alive reuse — all over a loopback
//! socket on an ephemeral port.

use snn::core::encoding::Encoder;
use snn::core::network::{vgg9, Vgg9Config};
use snn::core::tensor::Tensor;
use snn::serve::protocol::{decode_frame_response, encode_frame_request};
use snn::serve::{
    FaultPlan, HttpOptions, HttpServer, InferenceRequest, ModelZoo, ServeConfig, ServeModel,
    ZooConfig,
};
use snn::{Engine, Precision};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn serve_engine() -> HttpServer<Engine> {
    let engine = Engine::builder()
        .network(vgg9(&Vgg9Config::cifar10_small()).unwrap())
        .encoder(Encoder::direct(2))
        .precision(Precision::Int4)
        .hardware_allocation("http-test", &[1, 4, 2, 4, 2, 4, 4, 2, 1])
        .threads(1)
        .build()
        .unwrap();
    let zoo = zoo_of_one(
        engine,
        ServeConfig {
            max_batch: 4,
            max_delay: Duration::from_millis(2),
            ..ServeConfig::default()
        },
    );
    HttpServer::bind(zoo, "127.0.0.1:0").unwrap()
}

/// A single-model server is a zoo of one model named `default`.
fn zoo_of_one<M: ServeModel>(model: M, serve: ServeConfig) -> ModelZoo<M> {
    let zoo = ModelZoo::new();
    let config = ZooConfig {
        serve,
        ..ZooConfig::default()
    };
    zoo.register("default", "v1", model, config).unwrap();
    zoo
}

/// The `/healthz` body of a healthy zoo of one.
const HEALTHY_ZOO_OF_ONE: &[u8] =
    b"{\"status\":\"ok\",\"models\":{\"default\":{\"health\":\"healthy\"}}}";

fn test_image(i: usize) -> Tensor {
    Tensor::from_fn(&[3, 16, 16], move |p| {
        (((p + 97 * i) as f32) * 0.013).sin().abs()
    })
}

/// Minimal HTTP client: one request over a fresh (or given) connection.
fn http_roundtrip(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    content_type: &str,
    body: &[u8],
) -> (u16, Vec<u8>) {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    stream.flush().unwrap();

    // Read the response head.
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "connection closed before response head");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::to_string)
        })
        .expect("Content-Length header")
        .trim()
        .parse()
        .expect("numeric Content-Length");
    let mut body = buf.split_off(head_end + 4);
    while body.len() < content_length {
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "connection closed mid-body");
        body.extend_from_slice(&chunk[..n]);
    }
    (status, body)
}

fn json_body(image: &Tensor, seed: u64) -> Vec<u8> {
    let data: Vec<String> = image.as_slice().iter().map(|v| format!("{v}")).collect();
    let shape: Vec<String> = image.shape().iter().map(|d| d.to_string()).collect();
    format!(
        "{{\"shape\": [{}], \"data\": [{}], \"seed\": {seed}}}",
        shape.join(","),
        data.join(",")
    )
    .into_bytes()
}

#[test]
fn json_inference_over_http_matches_run_seeded() {
    let server = serve_engine();
    let image = test_image(1);
    let engine = Engine::builder()
        .network(vgg9(&Vgg9Config::cifar10_small()).unwrap())
        .encoder(Encoder::direct(2))
        .precision(Precision::Int4)
        .hardware_allocation("http-test", &[1, 4, 2, 4, 2, 4, 4, 2, 1])
        .build()
        .unwrap();
    let want = engine.session().run_seeded(&image, 5).unwrap();

    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    let (status, body) = http_roundtrip(
        &mut conn,
        "POST",
        "/v1/infer",
        "application/json",
        &json_body(&image, 5),
    );
    assert_eq!(status, 200, "body: {}", String::from_utf8_lossy(&body));
    let text = String::from_utf8(body).unwrap();
    assert!(
        text.contains(&format!("\"prediction\":{}", want.prediction)),
        "got: {text}"
    );
    assert!(text.contains("\"latency_ms\":"), "got: {text}");
    assert!(text.contains("\"batch_size\":"), "got: {text}");

    // Keep-alive: the same connection serves a second request.
    let (status2, _) = http_roundtrip(
        &mut conn,
        "POST",
        "/v1/infer",
        "application/json",
        &json_body(&image, 5),
    );
    assert_eq!(status2, 200);
    server.shutdown();
}

#[test]
fn binary_inference_over_http_roundtrips() {
    let server = serve_engine();
    let image = test_image(2);
    let frame = encode_frame_request(&InferenceRequest::seeded(image.clone(), 11));
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    let (status, body) = http_roundtrip(
        &mut conn,
        "POST",
        "/v1/infer",
        "application/octet-stream",
        &frame,
    );
    assert_eq!(status, 200, "body: {}", String::from_utf8_lossy(&body));
    let response = decode_frame_response(&body).expect("binary response decodes");
    assert_eq!(response.status, 0);
    assert_eq!(response.logits.len(), 10);
    assert_eq!(response.timesteps, 2);
    assert!(response.hardware.is_some());
    assert!(response.batch_size >= 1);
    server.shutdown();
}

#[test]
fn malformed_bodies_map_to_400_and_health_stats_respond() {
    let server = serve_engine();
    let addr = server.local_addr();

    let mut conn = TcpStream::connect(addr).unwrap();
    let (status, body) = http_roundtrip(
        &mut conn,
        "POST",
        "/v1/infer",
        "application/json",
        b"{\"shape\": [2], \"data\": [1.0]}",
    );
    assert_eq!(status, 400);
    assert!(String::from_utf8_lossy(&body).contains("error"));

    let mut conn = TcpStream::connect(addr).unwrap();
    let (status, _) = http_roundtrip(
        &mut conn,
        "POST",
        "/v1/infer",
        "application/octet-stream",
        b"XXXXgarbage",
    );
    assert_eq!(status, 400);

    let mut conn = TcpStream::connect(addr).unwrap();
    let (status, body) = http_roundtrip(&mut conn, "GET", "/v1/healthz", "text/plain", b"");
    assert_eq!(status, 200);
    assert_eq!(body, HEALTHY_ZOO_OF_ONE);

    let mut conn = TcpStream::connect(addr).unwrap();
    let (status, body) = http_roundtrip(&mut conn, "GET", "/v1/stats", "text/plain", b"");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("\"submitted\""), "got: {text}");
    assert!(text.contains("\"latency_p99_us\""), "got: {text}");

    let mut conn = TcpStream::connect(addr).unwrap();
    let (status, _) = http_roundtrip(&mut conn, "GET", "/v1/nope", "text/plain", b"");
    assert_eq!(status, 404);

    let mut conn = TcpStream::connect(addr).unwrap();
    let (status, _) = http_roundtrip(&mut conn, "DELETE", "/v1/infer", "text/plain", b"");
    assert_eq!(status, 405);
    server.shutdown();
}

/// A zoo with no models can serve no request, so `/healthz` must not call
/// it healthy: it answers 503 with status `empty`, in step with the 404 an
/// unnamed inference request gets.
#[test]
fn empty_zoo_is_not_healthy() {
    let server = HttpServer::bind(ModelZoo::<Engine>::new(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let mut conn = TcpStream::connect(addr).unwrap();
    let (status, body) = http_roundtrip(&mut conn, "GET", "/healthz", "text/plain", b"");
    assert_eq!(status, 503);
    assert_eq!(body, b"{\"status\":\"empty\",\"models\":{}}");

    let mut conn = TcpStream::connect(addr).unwrap();
    let (status, _) = http_roundtrip(
        &mut conn,
        "POST",
        "/v1/infer",
        "application/json",
        &json_body(&test_image(0), 0),
    );
    assert_eq!(status, 404);
    server.shutdown();
}

/// Like [`http_roundtrip`] but also returns the raw response head, for
/// asserting on headers like `Retry-After`.
fn http_roundtrip_with_head(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    content_type: &str,
    body: &[u8],
) -> (u16, String, Vec<u8>) {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    stream.flush().unwrap();
    read_response(stream)
}

/// Reads one HTTP response (head + Content-Length body) off the stream.
fn read_response(stream: &mut TcpStream) -> (u16, String, Vec<u8>) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "connection closed before response head");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::to_string)
        })
        .expect("Content-Length header")
        .trim()
        .parse()
        .expect("numeric Content-Length");
    let mut body = buf.split_off(head_end + 4);
    while body.len() < content_length {
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "connection closed mid-body");
        body.extend_from_slice(&chunk[..n]);
    }
    (status, head, body)
}

/// A model whose every batch takes `delay` — for driving the server into
/// overload and deadline territory without a real engine.
struct SlowModel {
    delay: Duration,
}

struct SlowRunner {
    delay: Duration,
}

impl snn::serve::ModelRunner for SlowRunner {
    fn run_batch(
        &mut self,
        requests: Vec<InferenceRequest>,
    ) -> Vec<Result<snn::serve::InferenceResult, snn::core::SnnError>> {
        std::thread::sleep(self.delay);
        requests
            .into_iter()
            .map(|r| {
                Ok(snn::serve::InferenceResult::from_logits(vec![
                    r.seed as f32,
                ]))
            })
            .collect()
    }
}

impl snn::serve::ServeModel for SlowModel {
    type Runner = SlowRunner;

    fn runner(&self) -> SlowRunner {
        SlowRunner { delay: self.delay }
    }
}

fn slow_server(delay_ms: u64, options: HttpOptions) -> HttpServer<SlowModel> {
    let zoo = zoo_of_one(
        SlowModel {
            delay: Duration::from_millis(delay_ms),
        },
        ServeConfig {
            max_batch: 1,
            max_delay: Duration::from_millis(1),
            queue_capacity: 2,
            high_water: Some(1),
            workers: Some(1),
            ..ServeConfig::default()
        },
    );
    HttpServer::bind_with_options(zoo, "127.0.0.1:0", options).unwrap()
}

/// Regression: a client that connects, sends half a request head, and then
/// stalls must not pin a connection thread forever — the server answers
/// 408 after `header_timeout` and closes.
#[test]
fn stalled_socket_gets_408_not_a_pinned_thread() {
    let server = slow_server(
        1,
        HttpOptions {
            header_timeout: Duration::from_millis(200),
            ..HttpOptions::default()
        },
    );
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // First bytes arrive, then nothing: the head never completes.
    conn.write_all(b"POST /v1/infer HTTP/1.1\r\nHost: t")
        .unwrap();
    conn.flush().unwrap();
    let (status, _head, _body) = read_response(&mut conn);
    assert_eq!(status, 408);
    server.shutdown();
}

/// A declared body beyond `max_body` is refused with 413 before the server
/// reads (or allocates) any of it.
#[test]
fn oversized_declared_body_is_413() {
    let server = slow_server(
        1,
        HttpOptions {
            max_body: 1024,
            ..HttpOptions::default()
        },
    );
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    conn.write_all(
        b"POST /v1/infer HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nContent-Length: 10000000\r\n\r\n",
    )
    .unwrap();
    conn.flush().unwrap();
    let (status, _head, _body) = read_response(&mut conn);
    assert_eq!(status, 413);
    server.shutdown();
}

/// A request head beyond `max_head` is refused with 413.
#[test]
fn oversized_request_head_is_413() {
    let server = slow_server(
        1,
        HttpOptions {
            max_head: 512,
            ..HttpOptions::default()
        },
    );
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let padding = "x".repeat(2048);
    // The server may answer while we are still writing; ignore write errors
    // past that point and go read the verdict.
    let _ = conn.write_all(
        format!("POST /v1/infer HTTP/1.1\r\nHost: t\r\nX-Padding: {padding}\r\n").as_bytes(),
    );
    let _ = conn.flush();
    let (status, _head, _body) = read_response(&mut conn);
    assert_eq!(status, 413);
    server.shutdown();
}

/// Overload over the wire: a burst beyond the queue's high-water mark gets
/// 503 with a `Retry-After` hint a well-behaved client can honour.
#[test]
fn overload_responds_503_with_retry_after() {
    let server = slow_server(50, HttpOptions::default());
    let addr = server.local_addr();
    let workers: Vec<_> = (0..6)
        .map(|i| {
            std::thread::spawn(move || {
                let mut conn = TcpStream::connect(addr).unwrap();
                conn.set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                http_roundtrip_with_head(
                    &mut conn,
                    "POST",
                    "/v1/infer",
                    "application/json",
                    format!("{{\"shape\": [1], \"data\": [0.5], \"seed\": {i}}}").as_bytes(),
                )
            })
        })
        .collect();
    let mut shed = 0;
    for worker in workers {
        let (status, head, _body) = worker.join().unwrap();
        match status {
            200 => {}
            503 => {
                shed += 1;
                assert!(
                    head.lines()
                        .any(|l| { l.to_ascii_lowercase().starts_with("retry-after:") }),
                    "503 must carry Retry-After, head:\n{head}"
                );
            }
            other => panic!("unexpected status {other}, head:\n{head}"),
        }
    }
    assert!(
        shed >= 1,
        "a 6-deep burst into a 1-high-water queue with 50 ms batches must shed"
    );
    server.shutdown();
}

/// A wire deadline the queue cannot meet maps to 504 with a computed
/// `Retry-After`; the same request without a deadline is just queued.
#[test]
fn hopeless_wire_deadline_is_504() {
    let server = slow_server(20, HttpOptions::default());
    let addr = server.local_addr();

    // Warm the service-time estimator past its threshold.
    for i in 0..20 {
        let mut conn = TcpStream::connect(addr).unwrap();
        let (status, _head, _body) = http_roundtrip_with_head(
            &mut conn,
            "POST",
            "/v1/infer",
            "application/json",
            format!("{{\"shape\": [1], \"data\": [0.5], \"seed\": {i}}}").as_bytes(),
        );
        assert_eq!(status, 200);
    }

    // Occupy the worker and the queue, then ask for 1 ms.
    let blocker = std::thread::spawn(move || {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        http_roundtrip_with_head(
            &mut conn,
            "POST",
            "/v1/infer",
            "application/json",
            b"{\"shape\": [1], \"data\": [0.5], \"seed\": 100}",
        )
    });
    std::thread::sleep(Duration::from_millis(5));
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let (status, head, body) = http_roundtrip_with_head(
        &mut conn,
        "POST",
        "/v1/infer",
        "application/json",
        b"{\"shape\": [1], \"data\": [0.5], \"seed\": 101, \"deadline_us\": 1000}",
    );
    // 504 either way: rejected at admission (DeadlineUnmeetable, with
    // Retry-After) or expired at dequeue (DeadlineExceeded).
    assert_eq!(status, 504, "body: {}", String::from_utf8_lossy(&body));
    if String::from_utf8_lossy(&body).contains("unmeetable") {
        assert!(
            head.lines()
                .any(|l| l.to_ascii_lowercase().starts_with("retry-after:")),
            "admission rejection must carry Retry-After, head:\n{head}"
        );
    }
    let (status, _head, _body) = blocker.join().unwrap();
    assert_eq!(status, 200);
    server.shutdown();
}

/// The deterministic connection-drop hook: with `drop_rate` 1.0 every
/// inference connection is severed before a response; the health endpoint
/// (not under chaos) still answers, proving the server itself survived.
#[test]
fn chaos_connection_drops_sever_infer_but_not_the_server() {
    let plan = FaultPlan::new(42).with_drop_rate(1.0);
    let server = slow_server(
        1,
        HttpOptions {
            chaos_drop: Some(plan.connection_chaos()),
            ..HttpOptions::default()
        },
    );
    let addr = server.local_addr();
    for _ in 0..3 {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        conn.write_all(
            b"POST /v1/infer HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nContent-Length: 40\r\n\r\n{\"shape\": [1], \"data\": [0.5], \"seed\"",
        )
        .unwrap();
        conn.write_all(b": 1}").unwrap();
        conn.flush().unwrap();
        // The injected drop closes the connection with zero response bytes.
        let mut buf = [0u8; 64];
        let n = conn.read(&mut buf).unwrap_or(0);
        assert_eq!(
            n,
            0,
            "dropped connection must yield EOF, got: {}",
            String::from_utf8_lossy(&buf[..n])
        );
    }
    let mut conn = TcpStream::connect(addr).unwrap();
    let (status, _head, body) =
        http_roundtrip_with_head(&mut conn, "GET", "/v1/healthz", "text/plain", b"");
    assert_eq!(status, 200);
    assert_eq!(body, HEALTHY_ZOO_OF_ONE);
    server.shutdown();
}

#[test]
fn model_shape_errors_map_to_422() {
    let server = serve_engine();
    // Wire-legal body, wrong tensor shape for the VGG-9 engine: the model
    // rejects it, mapped to 422 (not 400 — the request *parsed* fine).
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    let (status, body) = http_roundtrip(
        &mut conn,
        "POST",
        "/v1/infer",
        "application/json",
        b"{\"shape\": [2, 2], \"data\": [1.0, 2.0, 3.0, 4.0]}",
    );
    assert_eq!(status, 422, "body: {}", String::from_utf8_lossy(&body));
    assert!(String::from_utf8_lossy(&body).contains("model error"));
    server.shutdown();
}
