//! Property coverage of the wire protocol: JSON and binary frames must
//! round-trip losslessly for every legal request, and every corruption —
//! truncation at any byte, a lying length prefix, oversized declared shapes,
//! ragged shape/data pairings — must yield a typed `ServeError::Protocol`,
//! never a panic and never an allocation driven by an unvalidated length.

use proptest::prelude::*;
use snn_core::tensor::Tensor;
use snn_serve::protocol::{
    decode_frame_request, decode_frame_response, decode_json_request, encode_frame_request,
    encode_frame_response, encode_json_request, encode_json_response, MAX_DIMS, MAX_ELEMENTS,
    REQUEST_MAGIC,
};
use snn_serve::{InferenceRequest, InferenceResult, ServeError, ServedResponse};
use std::time::Duration;

/// A legal random request: 1–4 dims of 1–4 each, matching data.
fn sample_request(shape: &[usize], fill: &[f32], seed: u64) -> InferenceRequest {
    let n: usize = shape.iter().product();
    let data: Vec<f32> = (0..n).map(|i| fill[i % fill.len()]).collect();
    InferenceRequest::seeded(Tensor::from_vec(data, shape).expect("legal tensor"), seed)
}

fn sample_response(logits: Vec<f32>, queued_us: u64, batch_size: usize) -> ServedResponse {
    ServedResponse {
        result: InferenceResult::from_logits(logits),
        queued_us,
        batch_us: queued_us / 2 + 1,
        batch_size,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn binary_request_roundtrips(
        dims in collection::vec(1_usize..5, 1..5),
        fill in collection::vec(-100.0_f32..100.0, 1..8),
        seed in any::<u64>(),
        deadline_us in 0_u64..=10_000_000,
    ) {
        let mut request = sample_request(&dims, &fill, seed);
        if deadline_us > 0 {
            request = request.with_deadline(Duration::from_micros(deadline_us));
        }
        let encoded = encode_frame_request(&request);
        let decoded = decode_frame_request(&encoded).expect("legal frame decodes");
        prop_assert_eq!(decoded.seed, request.seed);
        prop_assert_eq!(decoded.deadline, request.deadline);
        prop_assert_eq!(decoded.image.shape(), request.image.shape());
        prop_assert_eq!(decoded.image.as_slice(), request.image.as_slice());
    }

    /// The wire deadline field under hostile values: every u64 bit pattern
    /// must decode without panicking, 0 must mean "no deadline", and the
    /// JSON field must accept absence, zero and huge values alike.
    #[test]
    fn wire_deadline_field_is_hostile_proof(
        raw_deadline in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let request = sample_request(&[2], &[0.5], seed);
        let mut encoded = encode_frame_request(&request);
        // The deadline field sits right after the 8-byte header and the
        // 8-byte seed; overwrite it with an arbitrary bit pattern.
        encoded[16..24].copy_from_slice(&raw_deadline.to_le_bytes());
        let decoded = decode_frame_request(&encoded).expect("frame stays legal");
        match raw_deadline {
            0 => prop_assert_eq!(decoded.deadline, None),
            us => prop_assert_eq!(decoded.deadline, Some(Duration::from_micros(us))),
        }
        let body = format!(
            "{{\"shape\": [2], \"data\": [0.5, 0.5], \"deadline_us\": {raw_deadline}}}"
        );
        let decoded = decode_json_request(body.as_bytes()).expect("body stays legal");
        match raw_deadline {
            0 => prop_assert_eq!(decoded.deadline, None),
            us => prop_assert_eq!(decoded.deadline, Some(Duration::from_micros(us))),
        }
        // A non-numeric deadline is a typed protocol error, not a panic.
        let bad = b"{\"shape\": [1], \"data\": [1.0], \"deadline_us\": \"soon\"}";
        prop_assert!(matches!(
            decode_json_request(bad),
            Err(ServeError::Protocol(_))
        ));
    }

    /// The wire model-id field under hostile values: an arbitrary byte
    /// string spliced into the model slot must either decode (iff it is
    /// valid UTF-8) or yield a typed protocol error — never a panic.
    #[test]
    fn wire_model_field_is_hostile_proof(
        model_bytes in collection::vec(0_u8..=255, 0..16),
        seed in any::<u64>(),
    ) {
        let base = encode_frame_request(&sample_request(&[2], &[0.5], seed));
        // Rebuild the frame with the arbitrary model field spliced in after
        // seed + deadline (the base frame carries model_len = 0 at byte 24).
        let mut frame = base[..24].to_vec();
        frame.push(model_bytes.len() as u8);
        frame.extend_from_slice(&model_bytes);
        frame.extend_from_slice(&base[25..]);
        let payload_len = (frame.len() - 8) as u32;
        frame[4..8].copy_from_slice(&payload_len.to_le_bytes());
        match decode_frame_request(&frame) {
            Ok(decoded) => {
                let text = std::str::from_utf8(&model_bytes)
                    .expect("a decoded model id implies valid UTF-8");
                if model_bytes.is_empty() {
                    prop_assert_eq!(decoded.model, None);
                } else {
                    prop_assert_eq!(decoded.model.as_deref(), Some(text));
                }
            }
            Err(ServeError::Protocol(_)) => {
                prop_assert!(std::str::from_utf8(&model_bytes).is_err());
            }
            Err(other) => {
                panic!("hostile model field must decode or error typed, got {other:?}")
            }
        }
    }

    #[test]
    fn json_request_roundtrips(
        dims in collection::vec(1_usize..5, 1..5),
        fill in collection::vec(-8.0_f32..8.0, 1..8),
        seed in any::<u64>(),
    ) {
        // f32 values that survive the shim's decimal text round-trip: the
        // fill set is quantized to multiples of 1/64.
        let fill: Vec<f32> = fill.iter().map(|v| (v * 64.0).round() / 64.0).collect();
        let request = sample_request(&dims, &fill, seed);
        let body = encode_json_request(&request).expect("encodes");
        let decoded = decode_json_request(&body).expect("legal body decodes");
        prop_assert_eq!(decoded.seed, request.seed);
        prop_assert_eq!(decoded.image.shape(), request.image.shape());
        prop_assert_eq!(decoded.image.as_slice(), request.image.as_slice());
    }

    #[test]
    fn truncated_binary_frames_error_not_panic(
        dims in collection::vec(1_usize..5, 1..5),
        cut_fraction in 0.0_f64..1.0,
        seed in any::<u64>(),
    ) {
        let request = sample_request(&dims, &[1.5], seed);
        let encoded = encode_frame_request(&request);
        // Strictly shorter than the full frame, down to the empty buffer.
        let cut = (encoded.len() as f64 * cut_fraction) as usize;
        let truncated = &encoded[..cut.min(encoded.len() - 1)];
        match decode_frame_request(truncated) {
            Err(ServeError::Protocol(_)) => {}
            other => panic!("truncated frame must be a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_byte_never_panics(
        dims in collection::vec(1_usize..4, 1..4),
        pos_fraction in 0.0_f64..1.0,
        flip in 1_u8..=255,
        seed in any::<u64>(),
    ) {
        let request = sample_request(&dims, &[0.25, -0.75], seed);
        let mut encoded = encode_frame_request(&request);
        let pos = ((encoded.len() - 1) as f64 * pos_fraction) as usize;
        encoded[pos] ^= flip;
        // Any outcome is fine except a panic; a decode that still succeeds
        // (the flip hit tensor data) must satisfy the shape/data contract.
        if let Ok(decoded) = decode_frame_request(&encoded) {
            let n: usize = decoded.image.shape().iter().product();
            prop_assert_eq!(decoded.image.as_slice().len(), n);
        }
    }

    #[test]
    fn ragged_json_shapes_error(
        dims in collection::vec(1_usize..5, 1..4),
        extra in 1_usize..7,
    ) {
        let n: usize = dims.iter().product();
        let dims_json: Vec<String> = dims.iter().map(|d| d.to_string()).collect();
        let data_json: Vec<String> = (0..n + extra).map(|i| format!("{}.0", i)).collect();
        let body = format!(
            "{{\"shape\": [{}], \"data\": [{}]}}",
            dims_json.join(","),
            data_json.join(",")
        );
        match decode_json_request(body.as_bytes()) {
            Err(ServeError::Protocol(msg)) => prop_assert!(msg.contains("elements")),
            other => panic!("ragged body must be a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn binary_response_roundtrips(
        logits in collection::vec(-50.0_f32..50.0, 1..12),
        queued_us in any::<u64>(),
        batch_size in 1_usize..64,
    ) {
        let response = sample_response(logits, queued_us, batch_size);
        let encoded = encode_frame_response(&response, false);
        let decoded = decode_frame_response(&encoded).expect("legal response decodes");
        prop_assert_eq!(decoded.status, 0);
        prop_assert_eq!(&decoded.logits, &response.result.logits);
        prop_assert_eq!(decoded.prediction as usize, response.result.prediction);
        prop_assert_eq!(decoded.queued_us, response.queued_us);
        prop_assert_eq!(decoded.batch_us, response.batch_us);
        prop_assert_eq!(decoded.batch_size as usize, response.batch_size);
        prop_assert_eq!(decoded.hardware, None);
    }
}

/// A hostile length prefix or dimension vector must be refused up front —
/// before any allocation it implies — with a typed protocol error.
#[test]
fn oversized_declared_sizes_are_refused_before_allocation() {
    // 1. Huge payload_len over a tiny actual buffer.
    let mut frame = Vec::new();
    frame.extend_from_slice(&REQUEST_MAGIC);
    frame.extend_from_slice(&u32::MAX.to_le_bytes());
    frame.extend_from_slice(&[0u8; 16]);
    assert!(matches!(
        decode_frame_request(&frame),
        Err(ServeError::Protocol(_))
    ));

    // 2. Consistent payload_len, but dims multiplying past MAX_ELEMENTS.
    let mut payload = Vec::new();
    payload.extend_from_slice(&7_u64.to_le_bytes()); // seed
    payload.extend_from_slice(&0_u64.to_le_bytes()); // deadline_us (none)
    payload.push(0); // model_len (no model id)
    payload.push(4); // ndim
    for _ in 0..4 {
        payload.extend_from_slice(&4096_u32.to_le_bytes()); // 4096^4 >> MAX_ELEMENTS
    }
    let mut frame = Vec::new();
    frame.extend_from_slice(&REQUEST_MAGIC);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    match decode_frame_request(&frame) {
        Err(ServeError::Protocol(msg)) => assert!(msg.contains("ceiling"), "got: {msg}"),
        other => panic!("oversized shape must be refused, got {other:?}"),
    }

    // 3. Too many dimensions.
    let mut payload = Vec::new();
    payload.extend_from_slice(&0_u64.to_le_bytes()); // seed
    payload.extend_from_slice(&0_u64.to_le_bytes()); // deadline_us (none)
    payload.push(0); // model_len (no model id)
    payload.push((MAX_DIMS + 1) as u8);
    for _ in 0..=MAX_DIMS {
        payload.extend_from_slice(&1_u32.to_le_bytes());
    }
    let mut frame = Vec::new();
    frame.extend_from_slice(&REQUEST_MAGIC);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    assert!(matches!(
        decode_frame_request(&frame),
        Err(ServeError::Protocol(_))
    ));

    // 4. JSON declaring an astronomically large shape (no giant data vector
    // needed: the shape check fires first).
    let body = "{\"shape\": [16777216, 16777216], \"data\": [1.0]}";
    match decode_json_request(body.as_bytes()) {
        Err(ServeError::Protocol(msg)) => assert!(msg.contains("ceiling"), "got: {msg}"),
        other => panic!("oversized JSON shape must be refused, got {other:?}"),
    }
    let _ = MAX_ELEMENTS;
}

/// The optional model id must round-trip on both codecs, tolerate JSON
/// absence/null, refuse non-string JSON values and lying binary length
/// prefixes, and respect the u8 length bound at a UTF-8 char boundary.
#[test]
fn model_id_roundtrips_and_is_bounded() {
    let request = sample_request(&[2], &[1.0], 3).with_model("cifar-fp32");
    let decoded = decode_frame_request(&encode_frame_request(&request)).unwrap();
    assert_eq!(decoded.model.as_deref(), Some("cifar-fp32"));
    let body = encode_json_request(&request).unwrap();
    let decoded = decode_json_request(&body).unwrap();
    assert_eq!(decoded.model.as_deref(), Some("cifar-fp32"));

    // JSON: absent and null both mean "route to the default model".
    let decoded = decode_json_request(b"{\"shape\": [1], \"data\": [1.0]}").unwrap();
    assert_eq!(decoded.model, None);
    let decoded =
        decode_json_request(b"{\"shape\": [1], \"data\": [1.0], \"model\": null}").unwrap();
    assert_eq!(decoded.model, None);
    // A non-string model id is a typed protocol error, not a panic.
    assert!(matches!(
        decode_json_request(b"{\"shape\": [1], \"data\": [1.0], \"model\": 7}"),
        Err(ServeError::Protocol(_))
    ));

    // The u8 length prefix bounds names at 255 bytes; the encoder truncates
    // at a char boundary rather than emitting an illegal frame.
    let long = "\u{b5}".repeat(400); // 2 bytes per char
    let encoded = encode_frame_request(&sample_request(&[1], &[1.0], 0).with_model(long));
    let model = decode_frame_request(&encoded).unwrap().model.unwrap();
    assert!(model.len() <= 255);
    assert!(!model.is_empty() && model.chars().all(|c| c == '\u{b5}'));

    // A lying model_len over a short payload is refused before allocation.
    let mut payload = Vec::new();
    payload.extend_from_slice(&0_u64.to_le_bytes()); // seed
    payload.extend_from_slice(&0_u64.to_le_bytes()); // deadline_us
    payload.push(200); // claims 200 bytes of model id...
    payload.extend_from_slice(b"abc"); // ...delivers 3
    let mut frame = Vec::new();
    frame.extend_from_slice(&REQUEST_MAGIC);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    assert!(matches!(
        decode_frame_request(&frame),
        Err(ServeError::Protocol(_))
    ));
}

#[test]
fn bad_magic_and_trailing_bytes_are_refused() {
    let request = InferenceRequest::new(Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
    let mut encoded = encode_frame_request(&request);
    encoded[0] = b'X';
    assert!(matches!(
        decode_frame_request(&encoded),
        Err(ServeError::Protocol(_))
    ));

    // Trailing bytes (with a length prefix that includes them) are refused:
    // the tensor-data section must end the payload exactly.
    let mut encoded = encode_frame_request(&request);
    encoded.push(0xAB);
    let len = (encoded.len() - 8) as u32;
    encoded[4..8].copy_from_slice(&len.to_le_bytes());
    match decode_frame_request(&encoded) {
        Err(ServeError::Protocol(msg)) => assert!(msg.contains("trailing"), "got: {msg}"),
        other => panic!("trailing bytes must be refused, got {other:?}"),
    }
}

#[test]
fn json_seed_is_optional_and_errors_report_offsets() {
    let decoded =
        decode_json_request(b"{\"shape\": [2], \"data\": [0.5, 1.5]}").expect("seedless body");
    assert_eq!(decoded.seed, 0);
    assert_eq!(decoded.image.as_slice(), &[0.5, 1.5]);

    // Malformed JSON reports the byte offset through the serde_json shim.
    match decode_json_request(b"{\"shape\": [2], \"data\": [0.5, }") {
        Err(ServeError::Protocol(msg)) => assert!(msg.contains("offset"), "got: {msg}"),
        other => panic!("malformed JSON must be a protocol error, got {other:?}"),
    }
}

#[test]
fn json_response_carries_serving_metadata() {
    let response = sample_response(vec![3.0, 1.0, 2.0], 42, 5);
    let body = encode_json_response(&response, false).expect("encodes");
    let text = String::from_utf8(body).expect("utf8");
    assert!(text.contains("\"prediction\":0"), "got: {text}");
    assert!(text.contains("\"queued_us\":42"), "got: {text}");
    assert!(text.contains("\"batch_size\":5"), "got: {text}");
    // No hardware estimate on the stub result: nullable fields stay null.
    assert!(text.contains("\"latency_ms\":null"), "got: {text}");
}
