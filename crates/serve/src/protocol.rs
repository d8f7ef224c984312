//! Wire protocol of the serving layer: a JSON body format and a compact
//! length-prefixed binary frame, both decoding into
//! [`InferenceRequest`] and encoding from
//! [`ServedResponse`].
//!
//! # JSON request
//!
//! ```json
//! {"shape": [3, 16, 16], "data": [0.0, 0.25, ...], "seed": 7,
//!  "deadline_us": 50000, "model": "cifar-fp32"}
//! ```
//!
//! `seed` is optional (default 0). `deadline_us` is optional: when present
//! and non-zero it is the request's deadline budget in microseconds,
//! measured from server admission — a result the server cannot deliver
//! within the budget is shed instead of computed. `model` is optional: when
//! present it names the registry model to route to (unknown names are a
//! typed 404; absent routes to the default model). `data` must hold exactly
//! `shape.iter().product()` floats. Decoding goes through the vendored
//! `serde_json::from_slice`, so malformed bodies report the failing byte
//! offset.
//!
//! # Binary request frame (little-endian)
//!
//! ```text
//! magic "SNQ3" | payload_len: u32 | seed: u64 | deadline_us: u64 |
//!   model_len: u8 | model: utf8 × model_len |
//!   ndim: u8 | dims: u32 × ndim | data: f32 × Π dims
//! ```
//!
//! `deadline_us = 0` means "no deadline"; `model_len = 0` means "default
//! model". The magic was bumped from `SNQ1` when the deadline field was
//! added and from `SNQ2` when the model id was added; old frames are
//! rejected with a typed protocol error naming the expected magic. A model
//! id must be valid UTF-8 or the frame is rejected.
//!
//! `payload_len` counts every byte after itself and must equal what is
//! actually present — the decoder validates all declared sizes against the
//! real buffer length *before* allocating, so a hostile length prefix or
//! dimension vector can never cause an over-allocation, and truncation at
//! any byte yields a typed [`ServeError::Protocol`], never a panic. Shapes
//! are capped at [`MAX_DIMS`] dimensions and [`MAX_ELEMENTS`] elements.
//!
//! # Binary response frame
//!
//! ```text
//! magic "SNP1" | payload_len: u32 | status: u8 |
//!   prediction: u32 | timesteps: u32 | n_logits: u32 | logits: f32 × n |
//!   has_hw: u8 | [latency_ms: f64 | total_energy_mj: f64 | throughput_fps: f64] |
//!   queued_us: u64 | batch_us: u64 | batch_size: u32
//! ```
//!
//! `status` 0 is a healthy success; [`STATUS_OK_DEGRADED`] (2) marks a
//! success served by a model whose drift tracker currently flags it
//! Degraded under the *annotate* policy (the shed policy refuses the work
//! with a typed error instead).

use crate::core::{InferenceRequest, ServedResponse};
use crate::error::ServeError;
use serde::{DeError, Deserialize, Serialize, Value};
use snn_core::tensor::Tensor;
use std::time::Duration;

/// Magic prefix of a binary request frame (`SNQ3` since the model id was
/// added; `SNQ1`/`SNQ2` frames are rejected).
pub const REQUEST_MAGIC: [u8; 4] = *b"SNQ3";
/// Magic prefix of a binary response frame.
pub const RESPONSE_MAGIC: [u8; 4] = *b"SNP1";
/// Binary response status: success, annotated as served by a
/// drift-Degraded model (the registry's *annotate* policy; JSON carries the
/// same bit as the `degraded` field).
pub const STATUS_OK_DEGRADED: u8 = 2;
/// Largest number of dimensions a request shape may declare.
pub const MAX_DIMS: usize = 8;
/// Largest number of elements (`Π dims`) a request may carry: 2²⁴ floats
/// (64 MiB), far above any paper-scale input but a hard ceiling against
/// hostile frames.
pub const MAX_ELEMENTS: u64 = 1 << 24;

/// JSON request body. Deserialized manually (not derived) so `seed` can be
/// optional and shape validation happens in one place.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonRequest {
    /// Tensor shape, outermost dimension first.
    pub shape: Vec<usize>,
    /// Row-major tensor data; must hold exactly `shape.iter().product()`
    /// values.
    pub data: Vec<f32>,
    /// Encoder seed (optional on the wire, default 0).
    pub seed: u64,
    /// Deadline budget in microseconds (optional on the wire; absent or 0
    /// means "no deadline").
    pub deadline_us: u64,
    /// Registry model to route to (optional on the wire; absent means the
    /// default model).
    pub model: Option<String>,
}

impl Deserialize for JsonRequest {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let obj = value.as_obj().ok_or_else(|| {
            DeError::new(format!("expected a request object, got {}", value.kind()))
        })?;
        let shape: Vec<usize> = serde::__field(obj, "shape", "request")?;
        let data: Vec<f32> = serde::__field(obj, "data", "request")?;
        let seed: u64 = match value.get("seed") {
            Some(v) => u64::from_value(v)
                .map_err(|e| DeError::new(format!("field `seed` of request: {e}")))?,
            None => 0,
        };
        let deadline_us: u64 = match value.get("deadline_us") {
            Some(v) => u64::from_value(v)
                .map_err(|e| DeError::new(format!("field `deadline_us` of request: {e}")))?,
            None => 0,
        };
        let model: Option<String> = match value.get("model") {
            Some(Value::Null) | None => None,
            Some(v) => Some(
                String::from_value(v)
                    .map_err(|e| DeError::new(format!("field `model` of request: {e}")))?,
            ),
        };
        Ok(JsonRequest {
            shape,
            data,
            seed,
            deadline_us,
            model,
        })
    }
}

impl Serialize for JsonRequest {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("shape".to_string(), self.shape.to_value()),
            ("data".to_string(), self.data.to_value()),
            ("seed".to_string(), self.seed.to_value()),
        ];
        if self.deadline_us > 0 {
            fields.push(("deadline_us".to_string(), self.deadline_us.to_value()));
        }
        if let Some(model) = &self.model {
            fields.push(("model".to_string(), model.to_value()));
        }
        Value::Obj(fields)
    }
}

/// JSON response body: classification output plus the accelerator estimate
/// (when the model computes one) and the serving-side timing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JsonResponse {
    /// Index of the predicted class.
    pub prediction: usize,
    /// Per-class scores.
    pub logits: Vec<f32>,
    /// Timesteps simulated.
    pub timesteps: usize,
    /// Accelerator single-image latency estimate in milliseconds.
    pub latency_ms: Option<f64>,
    /// Accelerator total energy estimate in millijoules.
    pub total_energy_mj: Option<f64>,
    /// Accelerator throughput bound in frames/second.
    pub throughput_fps: Option<f64>,
    /// Microseconds the request waited in the queue.
    pub queued_us: u64,
    /// Microseconds the model spent on the coalesced batch.
    pub batch_us: u64,
    /// Size of the coalesced batch this request ran in.
    pub batch_size: usize,
    /// Whether the serving model's drift tracker flagged it Degraded at
    /// response time (the registry's *annotate* policy; always `false` from
    /// a healthy model). Always present on the wire.
    pub degraded: bool,
}

/// Validates a shape + data pair and builds the request tensor.
/// `deadline_us = 0` means "no deadline" (the wire sentinel); `model =
/// None` means "default model".
fn request_from_parts(
    shape: &[usize],
    data: Vec<f32>,
    seed: u64,
    deadline_us: u64,
    model: Option<String>,
) -> Result<InferenceRequest, ServeError> {
    if shape.is_empty() || shape.len() > MAX_DIMS {
        return Err(ServeError::protocol(format!(
            "shape must have 1..={MAX_DIMS} dimensions, got {}",
            shape.len()
        )));
    }
    let mut elements: u64 = 1;
    for &dim in shape {
        if dim == 0 {
            return Err(ServeError::protocol("shape dimensions must be non-zero"));
        }
        elements = elements
            .checked_mul(dim as u64)
            .filter(|&n| n <= MAX_ELEMENTS)
            .ok_or_else(|| {
                ServeError::protocol(format!(
                    "shape {shape:?} exceeds the {MAX_ELEMENTS}-element request ceiling"
                ))
            })?;
    }
    if data.len() as u64 != elements {
        return Err(ServeError::protocol(format!(
            "shape {shape:?} implies {elements} elements but {} were provided",
            data.len()
        )));
    }
    let image = Tensor::from_vec(data, shape)
        .map_err(|e| ServeError::protocol(format!("invalid tensor: {e}")))?;
    Ok(InferenceRequest {
        image,
        seed,
        deadline: (deadline_us > 0).then(|| Duration::from_micros(deadline_us)),
        model,
    })
}

/// Decodes a JSON request body.
///
/// # Errors
///
/// [`ServeError::Protocol`] on malformed JSON (with the failing byte offset
/// in the message), a wrong shape/data pairing, or an oversized shape.
pub fn decode_json_request(body: &[u8]) -> Result<InferenceRequest, ServeError> {
    let wire: JsonRequest =
        serde_json::from_slice(body).map_err(|e| ServeError::protocol(e.to_string()))?;
    request_from_parts(
        &wire.shape,
        wire.data,
        wire.seed,
        wire.deadline_us,
        wire.model,
    )
}

/// The wire encoding of a request's deadline: its budget in microseconds,
/// saturated into `u64`, with 0 as the "no deadline" sentinel.
fn deadline_us_of(request: &InferenceRequest) -> u64 {
    request
        .deadline
        .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX).max(1))
        .unwrap_or(0)
}

/// Encodes a request as a JSON body (the client side of the JSON protocol).
///
/// # Errors
///
/// [`ServeError::Protocol`] if the tensor contains non-finite values, which
/// JSON cannot carry.
pub fn encode_json_request(request: &InferenceRequest) -> Result<Vec<u8>, ServeError> {
    let wire = JsonRequest {
        shape: request.image.shape().to_vec(),
        data: request.image.as_slice().to_vec(),
        seed: request.seed,
        deadline_us: deadline_us_of(request),
        model: request.model.clone(),
    };
    serde_json::to_string(&wire)
        .map(String::into_bytes)
        .map_err(|e| ServeError::protocol(e.to_string()))
}

/// Encodes a served response as a JSON body, carrying the serving model's
/// drift annotation in the `degraded` field (the registry's *annotate*
/// policy; `false` for a healthy model).
///
/// # Errors
///
/// [`ServeError::Protocol`] if a logit or estimate is non-finite.
pub fn encode_json_response(
    response: &ServedResponse,
    degraded: bool,
) -> Result<Vec<u8>, ServeError> {
    let hw = response.result.hardware.as_ref();
    let wire = JsonResponse {
        prediction: response.result.prediction,
        logits: response.result.logits.clone(),
        timesteps: response.result.timesteps,
        latency_ms: hw.map(|h| h.latency_ms),
        total_energy_mj: hw.map(|h| h.total_energy_mj),
        throughput_fps: hw.map(|h| h.throughput_fps),
        queued_us: response.queued_us,
        batch_us: response.batch_us,
        batch_size: response.batch_size,
        degraded,
    };
    serde_json::to_string(&wire)
        .map(String::into_bytes)
        .map_err(|e| ServeError::protocol(e.to_string()))
}

// ---------------------------------------------------------------------------
// Binary frames
// ---------------------------------------------------------------------------

/// A bounds-checked little-endian reader over a byte buffer. Every read
/// validates against the *actual* remaining bytes, so declared lengths can
/// never drive allocation or out-of-bounds access.
struct FrameReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> FrameReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        FrameReader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], ServeError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let slice = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(ServeError::protocol(format!(
                "truncated frame: {what} needs {n} bytes at offset {}, {} remain",
                self.pos,
                self.bytes.len() - self.pos
            ))),
        }
    }

    fn u8(&mut self, what: &str) -> Result<u8, ServeError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, ServeError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, ServeError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn f64(&mut self, what: &str) -> Result<f64, ServeError> {
        Ok(f64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn f32s(&mut self, n: usize, what: &str) -> Result<Vec<f32>, ServeError> {
        // `take` bounds-checks n*4 against the real buffer before the
        // allocation below, so `n` can never over-allocate.
        let raw = self.take(
            n.checked_mul(4)
                .ok_or_else(|| ServeError::protocol(format!("{what} length overflows")))?,
            what,
        )?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn finish(&self, what: &str) -> Result<(), ServeError> {
        if self.pos != self.bytes.len() {
            return Err(ServeError::protocol(format!(
                "{} trailing bytes after {what}",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Checks magic + length prefix and returns the payload slice.
fn frame_payload<'a>(bytes: &'a [u8], magic: &[u8; 4], what: &str) -> Result<&'a [u8], ServeError> {
    let mut reader = FrameReader::new(bytes);
    let found = reader.take(4, "magic")?;
    if found != magic {
        return Err(ServeError::protocol(format!(
            "bad {what} magic {found:?} (expected {magic:?})"
        )));
    }
    let declared = reader.u32("payload length")? as usize;
    let payload = &bytes[8..];
    if declared != payload.len() {
        return Err(ServeError::protocol(format!(
            "{what} length prefix declares {declared} payload bytes but {} are present",
            payload.len()
        )));
    }
    Ok(payload)
}

/// Encodes a request as a binary frame.
///
/// A model id longer than 255 bytes cannot be framed (the wire length
/// prefix is a `u8`); it is truncated at the last UTF-8 boundary within
/// 255 bytes. Registry names are validated far below that, so real
/// requests never hit the truncation.
pub fn encode_frame_request(request: &InferenceRequest) -> Vec<u8> {
    let shape = request.image.shape();
    let data = request.image.as_slice();
    let model = request.model.as_deref().unwrap_or("");
    let model_bytes = {
        let mut end = model.len().min(u8::MAX as usize);
        while !model.is_char_boundary(end) {
            end -= 1;
        }
        &model.as_bytes()[..end]
    };
    let payload_len = 8 + 8 + 1 + model_bytes.len() + 1 + 4 * shape.len() + 4 * data.len();
    let mut out = Vec::with_capacity(8 + payload_len);
    out.extend_from_slice(&REQUEST_MAGIC);
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    out.extend_from_slice(&request.seed.to_le_bytes());
    out.extend_from_slice(&deadline_us_of(request).to_le_bytes());
    out.push(model_bytes.len() as u8);
    out.extend_from_slice(model_bytes);
    out.push(shape.len() as u8);
    for &dim in shape {
        out.extend_from_slice(&(dim as u32).to_le_bytes());
    }
    for &v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decodes a binary request frame.
///
/// # Errors
///
/// [`ServeError::Protocol`] on a bad magic, a length prefix that disagrees
/// with the actual byte count, truncation anywhere, a non-UTF-8 model id,
/// an oversized shape (> [`MAX_DIMS`] dims or > [`MAX_ELEMENTS`] elements)
/// or a data section that does not match the declared shape. Never panics,
/// never allocates from unvalidated lengths.
pub fn decode_frame_request(bytes: &[u8]) -> Result<InferenceRequest, ServeError> {
    let payload = frame_payload(bytes, &REQUEST_MAGIC, "request")?;
    let mut reader = FrameReader::new(payload);
    let seed = reader.u64("seed")?;
    let deadline_us = reader.u64("deadline_us")?;
    let model_len = reader.u8("model_len")? as usize;
    let model = if model_len == 0 {
        None
    } else {
        let raw = reader.take(model_len, "model id")?;
        Some(
            std::str::from_utf8(raw)
                .map_err(|e| ServeError::protocol(format!("model id is not valid UTF-8: {e}")))?
                .to_string(),
        )
    };
    let ndim = reader.u8("ndim")? as usize;
    if ndim == 0 || ndim > MAX_DIMS {
        return Err(ServeError::protocol(format!(
            "shape must have 1..={MAX_DIMS} dimensions, got {ndim}"
        )));
    }
    let mut shape = Vec::with_capacity(ndim);
    let mut elements: u64 = 1;
    for i in 0..ndim {
        let dim = reader.u32(&format!("dim {i}"))? as usize;
        if dim == 0 {
            return Err(ServeError::protocol("shape dimensions must be non-zero"));
        }
        elements = elements
            .checked_mul(dim as u64)
            .filter(|&n| n <= MAX_ELEMENTS)
            .ok_or_else(|| {
                ServeError::protocol(format!(
                    "declared shape exceeds the {MAX_ELEMENTS}-element request ceiling"
                ))
            })?;
        shape.push(dim);
    }
    let data = reader.f32s(elements as usize, "tensor data")?;
    reader.finish("tensor data")?;
    request_from_parts(&shape, data, seed, deadline_us, model)
}

/// Decoded form of a binary response frame, for clients and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameResponse {
    /// Status byte (0 = ok, [`STATUS_OK_DEGRADED`] = ok but served by a
    /// drift-Degraded model; transports carry errors out-of-band).
    pub status: u8,
    /// Index of the predicted class.
    pub prediction: u32,
    /// Timesteps simulated.
    pub timesteps: u32,
    /// Per-class scores.
    pub logits: Vec<f32>,
    /// Accelerator estimate, when present: `(latency_ms, total_energy_mj,
    /// throughput_fps)`.
    pub hardware: Option<(f64, f64, f64)>,
    /// Microseconds the request waited in the queue.
    pub queued_us: u64,
    /// Microseconds the model spent on the coalesced batch.
    pub batch_us: u64,
    /// Size of the coalesced batch.
    pub batch_size: u32,
}

/// Encodes a served response as a binary frame, with the status byte
/// carrying the serving model's drift annotation: 0 healthy,
/// [`STATUS_OK_DEGRADED`] when the model is flagged Degraded under the
/// *annotate* policy.
pub fn encode_frame_response(response: &ServedResponse, degraded: bool) -> Vec<u8> {
    let logits = &response.result.logits;
    let hw = response.result.hardware.as_ref();
    let payload_len =
        1 + 4 + 4 + 4 + 4 * logits.len() + 1 + if hw.is_some() { 24 } else { 0 } + 8 + 8 + 4;
    let mut out = Vec::with_capacity(8 + payload_len);
    out.extend_from_slice(&RESPONSE_MAGIC);
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    out.push(if degraded { STATUS_OK_DEGRADED } else { 0u8 });
    out.extend_from_slice(&(response.result.prediction as u32).to_le_bytes());
    out.extend_from_slice(&(response.result.timesteps as u32).to_le_bytes());
    out.extend_from_slice(&(logits.len() as u32).to_le_bytes());
    for &v in logits {
        out.extend_from_slice(&v.to_le_bytes());
    }
    match hw {
        Some(h) => {
            out.push(1u8);
            out.extend_from_slice(&h.latency_ms.to_le_bytes());
            out.extend_from_slice(&h.total_energy_mj.to_le_bytes());
            out.extend_from_slice(&h.throughput_fps.to_le_bytes());
        }
        None => out.push(0u8),
    }
    out.extend_from_slice(&response.queued_us.to_le_bytes());
    out.extend_from_slice(&response.batch_us.to_le_bytes());
    out.extend_from_slice(&(response.batch_size as u32).to_le_bytes());
    out
}

/// Decodes a binary response frame.
///
/// # Errors
///
/// [`ServeError::Protocol`] under the same rules as
/// [`decode_frame_request`].
pub fn decode_frame_response(bytes: &[u8]) -> Result<FrameResponse, ServeError> {
    let payload = frame_payload(bytes, &RESPONSE_MAGIC, "response")?;
    let mut reader = FrameReader::new(payload);
    let status = reader.u8("status")?;
    let prediction = reader.u32("prediction")?;
    let timesteps = reader.u32("timesteps")?;
    let n_logits = reader.u32("logit count")? as usize;
    if n_logits as u64 > MAX_ELEMENTS {
        return Err(ServeError::protocol(format!(
            "declared logit count {n_logits} exceeds the {MAX_ELEMENTS} ceiling"
        )));
    }
    let logits = reader.f32s(n_logits, "logits")?;
    let hardware = match reader.u8("hardware flag")? {
        0 => None,
        1 => Some((
            reader.f64("latency")?,
            reader.f64("energy")?,
            reader.f64("throughput")?,
        )),
        other => {
            return Err(ServeError::protocol(format!(
                "invalid hardware flag {other}"
            )))
        }
    };
    let queued_us = reader.u64("queued_us")?;
    let batch_us = reader.u64("batch_us")?;
    let batch_size = reader.u32("batch_size")?;
    reader.finish("response")?;
    Ok(FrameResponse {
        status,
        prediction,
        timesteps,
        logits,
        hardware,
        queued_us,
        batch_us,
        batch_size,
    })
}
