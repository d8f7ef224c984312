//! End-to-end registry coverage over the real engine: checkpoint-backed
//! hot-reload through the CRC-verified io path (a corrupted or failing
//! candidate never serves and never interrupts the incumbent — bitwise
//! proven), and the HTTP shim in zoo mode (named-model routing, typed
//! 404s, per-model stats and health payloads) over a loopback socket.

use snn::core::encoding::Encoder;
use snn::core::io::Checkpoint;
use snn::core::network::{vgg9, Vgg9Config};
use snn::core::tensor::Tensor;
use snn::serve::protocol::{decode_frame_response, encode_frame_request};
use snn::serve::{
    HttpServer, InferenceRequest, ModelZoo, ProbeSpec, ServeConfig, ServeError, ZooConfig,
};
use snn::{Engine, Precision, SnnError};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn engine() -> Engine {
    Engine::builder()
        .network(vgg9(&Vgg9Config::cifar10_small()).unwrap())
        .encoder(Encoder::direct(2))
        .precision(Precision::Fp32)
        .hardware_allocation("registry-test", &[1, 4, 2, 4, 2, 4, 4, 2, 1])
        .threads(1)
        .build()
        .unwrap()
}

fn test_image(i: usize) -> Tensor {
    Tensor::from_fn(&[3, 16, 16], move |p| {
        (((p + 97 * i) as f32) * 0.013).sin().abs()
    })
}

fn zoo_config() -> ZooConfig {
    ZooConfig {
        serve: ServeConfig {
            max_batch: 4,
            max_delay: Duration::from_millis(2),
            ..ServeConfig::default()
        },
        probes: vec![ProbeSpec::sanity(test_image(7), 3, 10)],
        ..ZooConfig::default()
    }
}

/// A unique scratch path under the system temp dir.
fn scratch(name: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("snn-registry-{}-{name}", std::process::id()));
    path
}

/// The acceptance core of the reload pillar: a corrupted checkpoint (CRC
/// trailer catches it), a failing model build, and a golden-probe failure
/// each leave the incumbent serving bitwise-unchanged; a clean reload of
/// the same weights passes the recorded golden probes and swaps in.
#[test]
fn corrupt_or_failing_checkpoint_never_interrupts_the_incumbent() {
    let engine = engine();
    let image = test_image(0);
    let want = engine.session().run_seeded(&image, 9).unwrap();

    let zoo = ModelZoo::new();
    zoo.register("cifar", "v1", engine.clone(), zoo_config())
        .unwrap();
    // Pin v1's exact outputs: every future reload must reproduce them.
    zoo.record_golden("cifar").unwrap();

    let good = scratch("good.ckpt");
    let bad = scratch("bad.ckpt");
    Checkpoint::new(engine.network().clone())
        .save(&good)
        .unwrap();
    let mut bytes = std::fs::read(&good).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&bad, &bytes).unwrap();

    // 1. Silent corruption: refused by the CRC-verified load, typed.
    let build = |c: Checkpoint| engine.with_network(c.network);
    match zoo.load_with("cifar", "v2", &bad, build) {
        Err(ServeError::Model(_)) => {}
        other => panic!("corrupt checkpoint must be a typed model error, got {other:?}"),
    }
    // 2. A build that fails after a clean read.
    let result = zoo.load_with("cifar", "v2", &good, |_| {
        Err::<Engine, _>(SnnError::config("build", "deliberately failing build"))
    });
    assert!(matches!(result, Err(ServeError::Model(_))));

    // Neither attempt interrupted the incumbent: still v1, still bitwise.
    let got = zoo
        .infer(InferenceRequest::seeded(image.clone(), 9))
        .unwrap();
    assert_eq!(got.result.logits, want.logits);
    assert_eq!(got.result.traces, want.traces);
    let stats = zoo.stats();
    assert_eq!(stats.models["cifar"].version, "v1");
    assert_eq!(stats.models["cifar"].validation_failures, 2);
    assert_eq!(stats.models["cifar"].swaps, 0);

    // 3. The clean reload passes the golden probes (bitwise) and swaps in;
    // served results stay bitwise-identical because the weights are.
    zoo.load_with("cifar", "v2", &good, |c| engine.with_network(c.network))
        .unwrap();
    assert_eq!(zoo.stats().models["cifar"].version, "v2");
    let got = zoo.infer(InferenceRequest::seeded(image, 9)).unwrap();
    assert_eq!(got.result.logits, want.logits);
    assert_eq!(zoo.rollback("cifar").unwrap(), "v1");

    zoo.shutdown();
    let _ = std::fs::remove_file(good);
    let _ = std::fs::remove_file(bad);
}

/// Minimal HTTP client: one request over a given connection.
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

fn json_body(image: &Tensor, seed: u64, model: Option<&str>) -> Vec<u8> {
    let data: Vec<String> = image.as_slice().iter().map(|v| format!("{v}")).collect();
    let shape: Vec<String> = image.shape().iter().map(|d| d.to_string()).collect();
    let model = model
        .map(|m| format!(", \"model\": \"{m}\""))
        .unwrap_or_default();
    format!(
        "{{\"shape\": [{}], \"data\": [{}], \"seed\": {seed}{model}}}",
        shape.join(","),
        data.join(",")
    )
    .into_bytes()
}

/// The zoo behind the HTTP shim: named routing on both codecs, typed 404
/// for unknown models, per-model `/v1/stats` sections and the `/healthz`
/// health JSON.
#[test]
fn http_zoo_routes_by_model_and_reports_per_model_state() {
    let engine = engine();
    let image = test_image(2);
    let want = engine.session().run_seeded(&image, 5).unwrap();

    let zoo = ModelZoo::new();
    zoo.register("alpha", "v1", engine.clone(), zoo_config())
        .unwrap();
    zoo.register("beta", "v1", engine.clone(), zoo_config())
        .unwrap();
    let server = HttpServer::bind(zoo.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // JSON request routed by name; the response carries the health marker.
    let mut conn = TcpStream::connect(addr).unwrap();
    let (status, body) = http_roundtrip(
        &mut conn,
        "POST",
        "/v1/infer",
        "application/json",
        &json_body(&image, 5, Some("alpha")),
    );
    assert_eq!(status, 200, "body: {}", String::from_utf8_lossy(&body));
    let text = String::from_utf8(body).unwrap();
    assert!(
        text.contains(&format!("\"prediction\":{}", want.prediction)),
        "got: {text}"
    );
    assert!(text.contains("\"degraded\":false"), "got: {text}");

    // Binary frame routed by name.
    let frame =
        encode_frame_request(&InferenceRequest::seeded(image.clone(), 5).with_model("beta"));
    let (status, body) = http_roundtrip(
        &mut conn,
        "POST",
        "/v1/infer",
        "application/octet-stream",
        &frame,
    );
    assert_eq!(status, 200);
    let decoded = decode_frame_response(&body).unwrap();
    assert_eq!(decoded.status, 0);
    assert_eq!(decoded.logits, want.logits);

    // Unknown model: typed 404, connection stays usable.
    let (status, body) = http_roundtrip(
        &mut conn,
        "POST",
        "/v1/infer",
        "application/json",
        &json_body(&image, 5, Some("gamma")),
    );
    assert_eq!(status, 404);
    assert!(String::from_utf8_lossy(&body).contains("gamma"));

    // Per-model stats sections.
    let (status, body) = http_roundtrip(&mut conn, "GET", "/v1/stats", "text/plain", b"");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    for needle in [
        "\"default_model\":\"alpha\"",
        "\"beta\"",
        "\"version\":\"v1\"",
        "\"health\":\"healthy\"",
        "\"submitted\"",
    ] {
        assert!(text.contains(needle), "missing {needle} in {text}");
    }

    // Zoo health JSON on both the bare and versioned paths.
    for path in ["/healthz", "/v1/healthz"] {
        let (status, body) = http_roundtrip(&mut conn, "GET", path, "text/plain", b"");
        assert_eq!(status, 200);
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("\"status\":\"ok\""), "got: {text}");
        assert!(text.contains("\"alpha\""), "got: {text}");
    }

    server.shutdown();
}
