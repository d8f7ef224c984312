//! Crash-safe training checkpoints.
//!
//! A [`TrainCheckpoint`] is a complete snapshot of a training run at a batch
//! boundary: network weights, full optimizer state ([`OptimizerState`] —
//! SGD momentum buffers, Adam moments *and* the bias-correction timesteps),
//! the epoch/batch cursor with its partial epoch accumulators, the
//! per-epoch progress so far and the run's [`TrainConfig`]. Together with
//! the dataset (identified by a [`DataFingerprint`]) this determines every
//! remaining update bitwise, which is what makes
//! [`Trainer::resume`](crate::trainer::Trainer::resume) produce weights
//! identical to the uninterrupted run.
//!
//! # On-disk format
//!
//! Checkpoints ride the same crash-safe envelope as inference checkpoints
//! (`snn_core::io`): the payload is written to a temp file, fsynced, renamed
//! over the target, and sealed with the `SNCKPT01` CRC-64/XZ trailer, so a
//! torn or bit-flipped file is rejected at load instead of resuming from
//! garbage. The payload itself is a binary section family:
//!
//! ```text
//! "SNTRAIN1" | u32 version | section*      section = tag[4] | u64 len | bytes
//! ```
//!
//! Small structured state (`CFG!`, `DATA`) is JSON for debuggability; bulk
//! tensors (`WGTS`, `OPTS`) are raw little-endian `f32` so saving a
//! multi-megabyte state costs milliseconds, not a JSON tree. All floats
//! round-trip bitwise in both encodings (the vendored JSON uses
//! shortest-round-trip formatting). Unknown sections are skipped, so future
//! sections can be added without breaking old readers.

use crate::error::TrainError;
use crate::fault::{FaultReason, SampleFault};
use crate::optim::OptimizerState;
use crate::trainer::{TrainConfig, TrainReport};
use serde::{Deserialize, Serialize};
use snn_core::error::SnnError;
use snn_core::io::{load_payload, save_payload};
use snn_core::network::{Layer, SnnNetwork};
use snn_core::tensor::Tensor;
use snn_data::{Dataset, Split};
use std::collections::BTreeMap;
use std::path::Path;

/// Magic prefix of the checkpoint payload (inside the CRC envelope).
const MAGIC: [u8; 8] = *b"SNTRAIN1";
/// Payload format version.
const VERSION: u32 = 1;

const TAG_CONFIG: [u8; 4] = *b"CFG!";
const TAG_DATA: [u8; 4] = *b"DATA";
const TAG_CURSOR: [u8; 4] = *b"CURS";
const TAG_REPORT: [u8; 4] = *b"RPRT";
const TAG_WEIGHTS: [u8; 4] = *b"WGTS";
const TAG_OPTIMIZER: [u8; 4] = *b"OPTS";

/// Identity of the dataset a checkpoint was trained on. Resume refuses a
/// dataset whose fingerprint differs — continuing on different data would
/// silently break the determinism contract.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataFingerprint {
    /// Dataset name.
    pub name: String,
    /// Number of classes.
    pub num_classes: usize,
    /// Input image shape `[C, H, W]`.
    pub image_shape: Vec<usize>,
    /// Number of training samples.
    pub train_len: usize,
}

impl DataFingerprint {
    /// Fingerprints a dataset.
    pub fn of(data: &dyn Dataset) -> Self {
        DataFingerprint {
            name: data.name().to_string(),
            num_classes: data.num_classes(),
            image_shape: data.image_shape().to_vec(),
            train_len: data.len(Split::Train),
        }
    }
}

/// Where in the run a checkpoint was taken: always a batch boundary, with
/// the optimizer step already applied for every batch before `next_index`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrainCursor {
    /// Epoch in progress (0-based).
    pub epoch: usize,
    /// Index of the first sample of the next batch within the epoch.
    pub next_index: usize,
    /// Total optimizer steps (batches) applied so far across all epochs.
    pub steps: u64,
    /// Partial epoch accumulator: summed sample losses.
    pub epoch_loss: f64,
    /// Partial epoch accumulator: correct predictions.
    pub correct: usize,
    /// Partial epoch accumulator: samples trained (quarantined excluded).
    pub seen: usize,
    /// Partial epoch accumulator: total spikes.
    pub spikes: u64,
}

/// The weights of one trainable layer, by layer index in the network.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerWeights {
    /// Index of the layer in `network.layers()`.
    pub layer_index: usize,
    /// The weight tensor.
    pub weight: Tensor,
    /// The bias tensor.
    pub bias: Tensor,
}

/// A complete, resumable snapshot of a training run at a batch boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainCheckpoint {
    /// The run's configuration (resume re-validates and reuses it).
    pub config: TrainConfig,
    /// Identity of the training dataset.
    pub data: DataFingerprint,
    /// Position in the run.
    pub cursor: TrainCursor,
    /// Per-epoch progress and quarantined-sample faults so far.
    pub report: TrainReport,
    /// Weights of every trainable layer.
    pub weights: Vec<LayerWeights>,
    /// Full optimizer state.
    pub optimizer: OptimizerState,
}

impl TrainCheckpoint {
    /// Captures the weights of every trainable layer of `network`.
    pub fn capture_weights(network: &SnnNetwork) -> Vec<LayerWeights> {
        network
            .layers()
            .iter()
            .enumerate()
            .filter_map(|(layer_index, layer)| match layer {
                Layer::Conv { conv, .. } => Some(LayerWeights {
                    layer_index,
                    weight: conv.weight().clone(),
                    bias: conv.bias().clone(),
                }),
                Layer::Linear { linear, .. } => Some(LayerWeights {
                    layer_index,
                    weight: linear.weight().clone(),
                    bias: linear.bias().clone(),
                }),
                Layer::Pool { .. } => None,
            })
            .collect()
    }

    /// Writes the checkpoint weights back into `network`. Every layer is
    /// checked before the first write, so an error leaves `network`
    /// untouched.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::IncompatibleResume`] if a layer index or tensor
    /// shape does not match the network.
    pub fn restore_weights(&self, network: &mut SnnNetwork) -> Result<(), TrainError> {
        self.check_layers(network)?;
        let copy = |dst: &mut Tensor, src: &Tensor| {
            dst.as_mut_slice().copy_from_slice(src.as_slice());
        };
        for lw in &self.weights {
            match &mut network.layers_mut()[lw.layer_index] {
                Layer::Conv { conv, .. } => {
                    copy(conv.weight_mut(), &lw.weight);
                    copy(conv.bias_mut(), &lw.bias);
                }
                Layer::Linear { linear, .. } => {
                    copy(linear.weight_mut(), &lw.weight);
                    copy(linear.bias_mut(), &lw.bias);
                }
                Layer::Pool { .. } => unreachable!("check_layers rejects pool layers"),
            }
        }
        Ok(())
    }

    /// Checks that every checkpointed layer names a weight layer of
    /// `network` whose weight and bias shapes match the checkpoint's.
    fn check_layers(&self, network: &SnnNetwork) -> Result<(), TrainError> {
        let layers = network.layers();
        for lw in &self.weights {
            let incompatible = |reason: String| TrainError::IncompatibleResume { reason };
            let (weight, bias) = match layers.get(lw.layer_index) {
                Some(Layer::Conv { conv, .. }) => (conv.weight(), conv.bias()),
                Some(Layer::Linear { linear, .. }) => (linear.weight(), linear.bias()),
                Some(Layer::Pool { name, .. }) => {
                    return Err(incompatible(format!(
                        "checkpoint has weights for layer {} ({name}) which is a pool layer",
                        lw.layer_index
                    )))
                }
                None => {
                    return Err(incompatible(format!(
                        "checkpoint has weights for layer {} but the network has only {} \
                         layers",
                        lw.layer_index,
                        layers.len()
                    )))
                }
            };
            for (have, saved) in [(weight, &lw.weight), (bias, &lw.bias)] {
                if have.shape() != saved.shape() {
                    return Err(incompatible(format!(
                        "layer {} tensor shape {:?} does not match checkpoint shape {:?}",
                        lw.layer_index,
                        have.shape(),
                        saved.shape()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Checks that this checkpoint can resume against `network` and `data`:
    /// the dataset fingerprint, the cursor, and every layer's index and
    /// weight and bias shapes.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::IncompatibleResume`] naming the first mismatch.
    pub fn validate_against(
        &self,
        network: &SnnNetwork,
        data: &dyn Dataset,
    ) -> Result<(), TrainError> {
        let fingerprint = DataFingerprint::of(data);
        if fingerprint != self.data {
            return Err(TrainError::IncompatibleResume {
                reason: format!(
                    "dataset fingerprint mismatch: checkpoint was trained on {:?}, got {:?}",
                    self.data, fingerprint
                ),
            });
        }
        let trainable = network
            .layers()
            .iter()
            .filter(|l| l.is_weight_layer())
            .count();
        if trainable != self.weights.len() {
            return Err(TrainError::IncompatibleResume {
                reason: format!(
                    "network has {trainable} trainable layers, checkpoint has {}",
                    self.weights.len()
                ),
            });
        }
        self.check_layers(network)?;
        if self.cursor.epoch >= self.config.epochs && self.cursor.next_index != 0 {
            return Err(TrainError::IncompatibleResume {
                reason: format!(
                    "cursor epoch {} is past the configured {} epochs",
                    self.cursor.epoch, self.config.epochs
                ),
            });
        }
        Ok(())
    }

    /// Saves the checkpoint atomically (temp file + fsync + rename) with the
    /// CRC-64 integrity trailer.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] on I/O or serialisation failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnnError> {
        save_payload(path, &self.to_payload()?)
    }

    /// Loads and verifies a checkpoint (trailer CRC first, then the section
    /// structure).
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] if the file is missing, torn,
    /// corrupted or structurally invalid.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SnnError> {
        Self::from_payload(&load_payload(path)?)
    }

    /// Serialises the checkpoint to its binary section payload.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] if the config contains
    /// non-serialisable values (NaN rates).
    pub fn to_payload(&self) -> Result<Vec<u8>, SnnError> {
        let mut w = Writer::new();
        w.bytes(&MAGIC);
        w.u32(VERSION);

        let config_json = serde_json::to_string(&self.config)
            .map_err(|e| SnnError::config("train_checkpoint", format!("config: {e}")))?;
        w.section(TAG_CONFIG, config_json.as_bytes());
        let data_json = serde_json::to_string(&self.data)
            .map_err(|e| SnnError::config("train_checkpoint", format!("data: {e}")))?;
        w.section(TAG_DATA, data_json.as_bytes());

        let mut c = Writer::new();
        c.u64(self.cursor.epoch as u64);
        c.u64(self.cursor.next_index as u64);
        c.u64(self.cursor.steps);
        c.f64(self.cursor.epoch_loss);
        c.u64(self.cursor.correct as u64);
        c.u64(self.cursor.seen as u64);
        c.u64(self.cursor.spikes);
        w.section(TAG_CURSOR, &c.buf);

        let mut r = Writer::new();
        r.u64(self.report.epoch_losses.len() as u64);
        for &loss in &self.report.epoch_losses {
            r.f32(loss);
        }
        r.u64(self.report.epoch_accuracies.len() as u64);
        for &acc in &self.report.epoch_accuracies {
            r.f64(acc);
        }
        r.u64(self.report.epoch_mean_spikes.len() as u64);
        for &spk in &self.report.epoch_mean_spikes {
            r.f64(spk);
        }
        r.u64(self.report.faults.len() as u64);
        for fault in &self.report.faults {
            r.u64(fault.epoch as u64);
            r.u64(fault.index as u64);
            match &fault.reason {
                FaultReason::Panicked { message } => {
                    r.u8(0);
                    r.str(message);
                }
                FaultReason::NonFinite { what } => {
                    r.u8(1);
                    r.str(what);
                }
                FaultReason::InvalidData { detail } => {
                    r.u8(2);
                    r.str(detail);
                }
            }
        }
        w.section(TAG_REPORT, &r.buf);

        let mut t = Writer::new();
        t.u64(self.weights.len() as u64);
        for lw in &self.weights {
            t.u64(lw.layer_index as u64);
            t.tensor(&lw.weight);
            t.tensor(&lw.bias);
        }
        w.section(TAG_WEIGHTS, &t.buf);

        let mut o = Writer::new();
        match &self.optimizer {
            OptimizerState::Sgd {
                lr,
                momentum,
                velocity,
            } => {
                o.u8(0);
                o.f32(*lr);
                o.f32(*momentum);
                o.tensor_map(velocity);
            }
            OptimizerState::Adam {
                lr,
                beta1,
                beta2,
                epsilon,
                steps,
                first_moment,
                second_moment,
            } => {
                o.u8(1);
                o.f32(*lr);
                o.f32(*beta1);
                o.f32(*beta2);
                o.f32(*epsilon);
                o.u64(steps.len() as u64);
                for (key, &count) in steps {
                    o.str(key);
                    o.u64(count);
                }
                o.tensor_map(first_moment);
                o.tensor_map(second_moment);
            }
        }
        w.section(TAG_OPTIMIZER, &o.buf);

        Ok(w.buf)
    }

    /// Parses a checkpoint from its binary section payload.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] on any structural violation
    /// (wrong magic/version, missing section, truncated field).
    pub fn from_payload(payload: &[u8]) -> Result<Self, SnnError> {
        let mut r = Reader::new(payload);
        let magic = r.take(MAGIC.len())?;
        if magic != MAGIC {
            return Err(parse_err("bad payload magic (not a training checkpoint)"));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(parse_err(format!(
                "unsupported checkpoint version {version} (expected {VERSION})"
            )));
        }

        let mut config: Option<TrainConfig> = None;
        let mut data: Option<DataFingerprint> = None;
        let mut cursor: Option<TrainCursor> = None;
        let mut report: Option<TrainReport> = None;
        let mut weights: Option<Vec<LayerWeights>> = None;
        let mut optimizer: Option<OptimizerState> = None;

        while !r.is_empty() {
            let tag: [u8; 4] = r.take(4)?.try_into().expect("4-byte slice");
            let len = r.len_prefix()?;
            let body = r.take(len)?;
            match tag {
                TAG_CONFIG => {
                    let json = std::str::from_utf8(body)
                        .map_err(|_| parse_err("config section is not UTF-8"))?;
                    config =
                        Some(serde_json::from_str(json).map_err(|e| {
                            parse_err(format!("config section does not parse: {e}"))
                        })?);
                }
                TAG_DATA => {
                    let json = std::str::from_utf8(body)
                        .map_err(|_| parse_err("data section is not UTF-8"))?;
                    data = Some(
                        serde_json::from_str(json)
                            .map_err(|e| parse_err(format!("data section does not parse: {e}")))?,
                    );
                }
                TAG_CURSOR => {
                    let mut c = Reader::new(body);
                    cursor = Some(TrainCursor {
                        epoch: c.u64()? as usize,
                        next_index: c.u64()? as usize,
                        steps: c.u64()?,
                        epoch_loss: c.f64()?,
                        correct: c.u64()? as usize,
                        seen: c.u64()? as usize,
                        spikes: c.u64()?,
                    });
                }
                TAG_REPORT => {
                    let mut p = Reader::new(body);
                    let mut rep = TrainReport::default();
                    let n = p.len_prefix()?;
                    rep.epoch_losses = (0..n).map(|_| p.f32()).collect::<Result<_, _>>()?;
                    let n = p.len_prefix()?;
                    rep.epoch_accuracies = (0..n).map(|_| p.f64()).collect::<Result<_, _>>()?;
                    let n = p.len_prefix()?;
                    rep.epoch_mean_spikes = (0..n).map(|_| p.f64()).collect::<Result<_, _>>()?;
                    let n = p.len_prefix()?;
                    rep.faults = (0..n)
                        .map(|_| {
                            let epoch = p.u64()? as usize;
                            let index = p.u64()? as usize;
                            let reason = match p.u8()? {
                                0 => FaultReason::Panicked { message: p.str()? },
                                1 => FaultReason::NonFinite { what: p.str()? },
                                2 => FaultReason::InvalidData { detail: p.str()? },
                                other => {
                                    return Err(parse_err(format!(
                                        "unknown fault reason tag {other}"
                                    )))
                                }
                            };
                            Ok(SampleFault {
                                epoch,
                                index,
                                reason,
                            })
                        })
                        .collect::<Result<_, _>>()?;
                    report = Some(rep);
                }
                TAG_WEIGHTS => {
                    let mut p = Reader::new(body);
                    let n = p.len_prefix()?;
                    weights = Some(
                        (0..n)
                            .map(|_| {
                                Ok(LayerWeights {
                                    layer_index: p.u64()? as usize,
                                    weight: p.tensor()?,
                                    bias: p.tensor()?,
                                })
                            })
                            .collect::<Result<_, SnnError>>()?,
                    );
                }
                TAG_OPTIMIZER => {
                    let mut p = Reader::new(body);
                    optimizer = Some(match p.u8()? {
                        0 => OptimizerState::Sgd {
                            lr: p.f32()?,
                            momentum: p.f32()?,
                            velocity: p.tensor_map()?,
                        },
                        1 => {
                            let lr = p.f32()?;
                            let beta1 = p.f32()?;
                            let beta2 = p.f32()?;
                            let epsilon = p.f32()?;
                            let n = p.len_prefix()?;
                            let mut steps = BTreeMap::new();
                            for _ in 0..n {
                                let key = p.str()?;
                                let count = p.u64()?;
                                steps.insert(key, count);
                            }
                            OptimizerState::Adam {
                                lr,
                                beta1,
                                beta2,
                                epsilon,
                                steps,
                                first_moment: p.tensor_map()?,
                                second_moment: p.tensor_map()?,
                            }
                        }
                        other => return Err(parse_err(format!("unknown optimizer tag {other}"))),
                    });
                }
                // Unknown sections are skipped for forward compatibility.
                _ => {}
            }
        }

        Ok(TrainCheckpoint {
            config: config.ok_or_else(|| parse_err("missing config section"))?,
            data: data.ok_or_else(|| parse_err("missing data section"))?,
            cursor: cursor.ok_or_else(|| parse_err("missing cursor section"))?,
            report: report.ok_or_else(|| parse_err("missing report section"))?,
            weights: weights.ok_or_else(|| parse_err("missing weights section"))?,
            optimizer: optimizer.ok_or_else(|| parse_err("missing optimizer section"))?,
        })
    }
}

fn parse_err(message: impl Into<String>) -> SnnError {
    SnnError::config("train_checkpoint", message)
}

/// Little-endian binary writer over a growable buffer.
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn tensor(&mut self, t: &Tensor) {
        self.u32(t.shape().len() as u32);
        for &dim in t.shape() {
            self.u64(dim as u64);
        }
        // Bulk-copy the f32 data: one resize, then a copy into 4-byte
        // chunks — this path carries hundreds of KB of weights per save.
        let data = t.as_slice();
        let start = self.buf.len();
        self.buf.resize(start + data.len() * 4, 0);
        for (dst, &v) in self.buf[start..].chunks_exact_mut(4).zip(data) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }

    fn tensor_map(&mut self, map: &BTreeMap<String, Tensor>) {
        self.u64(map.len() as u64);
        for (key, tensor) in map {
            self.str(key);
            self.tensor(tensor);
        }
    }

    fn section(&mut self, tag: [u8; 4], body: &[u8]) {
        self.bytes(&tag);
        self.u64(body.len() as u64);
        self.bytes(body);
    }
}

/// Bounds-checked little-endian reader.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn is_empty(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnnError> {
        if n > self.remaining() {
            return Err(parse_err(format!(
                "truncated checkpoint: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SnnError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnnError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, SnnError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f32(&mut self) -> Result<f32, SnnError> {
        Ok(f32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, SnnError> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// A `u64` length prefix, validated against the bytes actually left so
    /// a corrupted length cannot trigger a huge allocation.
    fn len_prefix(&mut self) -> Result<usize, SnnError> {
        let len = self.u64()?;
        if len > self.remaining() as u64 {
            return Err(parse_err(format!(
                "corrupt length prefix {len} exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(len as usize)
    }

    fn str(&mut self) -> Result<String, SnnError> {
        let len = self.len_prefix()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| parse_err("string field is not UTF-8"))
    }

    fn tensor(&mut self) -> Result<Tensor, SnnError> {
        let ndim = self.u32()? as usize;
        if ndim > 8 {
            return Err(parse_err(format!("implausible tensor rank {ndim}")));
        }
        let mut shape = Vec::with_capacity(ndim);
        let mut numel = 1usize;
        for _ in 0..ndim {
            let dim = self.u64()? as usize;
            numel = numel.saturating_mul(dim);
            shape.push(dim);
        }
        if numel.saturating_mul(4) > self.remaining() {
            return Err(parse_err(format!(
                "corrupt tensor: {numel} elements exceed {} remaining bytes",
                self.remaining()
            )));
        }
        // Bulk-decode the f32 data from one bounds-checked take.
        let bytes = self.take(numel * 4)?;
        let data: Vec<f32> = bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect();
        Tensor::from_vec(data, &shape)
    }

    fn tensor_map(&mut self) -> Result<BTreeMap<String, Tensor>, SnnError> {
        let n = self.len_prefix()?;
        let mut map = BTreeMap::new();
        for _ in 0..n {
            let key = self.str()?;
            let tensor = self.tensor()?;
            map.insert(key, tensor);
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use crate::optim::Optimizer;

    fn sample_checkpoint() -> TrainCheckpoint {
        let mut adam = Adam::new(2e-3);
        let mut param = Tensor::zeros(&[2, 2]);
        let grad = Tensor::ones(&[2, 2]);
        adam.step("layer0.weight", &mut param, &grad).unwrap();
        adam.step("layer0.weight", &mut param, &grad).unwrap();
        TrainCheckpoint {
            config: TrainConfig::quick(),
            data: DataFingerprint {
                name: "synthetic".into(),
                num_classes: 10,
                image_shape: vec![3, 16, 16],
                train_len: 20,
            },
            cursor: TrainCursor {
                epoch: 1,
                next_index: 4,
                steps: 7,
                epoch_loss: 9.25,
                correct: 3,
                seen: 4,
                spikes: 1234,
            },
            report: TrainReport {
                epoch_losses: vec![2.5, 2.25],
                epoch_accuracies: vec![0.125, 0.25],
                epoch_mean_spikes: vec![800.0, 750.5],
                faults: vec![SampleFault {
                    epoch: 0,
                    index: 3,
                    reason: FaultReason::Panicked {
                        message: "injected".into(),
                    },
                }],
                ..TrainReport::default()
            },
            weights: vec![LayerWeights {
                layer_index: 0,
                weight: param,
                bias: Tensor::from_vec(vec![0.5, -0.25], &[2]).unwrap(),
            }],
            optimizer: adam.state(),
        }
    }

    #[test]
    fn payload_round_trips_bitwise() {
        let checkpoint = sample_checkpoint();
        let payload = checkpoint.to_payload().unwrap();
        let restored = TrainCheckpoint::from_payload(&payload).unwrap();
        assert_eq!(restored, checkpoint);
    }

    #[test]
    fn save_load_round_trips_through_disk() {
        let dir = std::env::temp_dir().join("snn_train_ckpt_roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.snntrain");
        let checkpoint = sample_checkpoint();
        checkpoint.save(&path).unwrap();
        let restored = TrainCheckpoint::load(&path).unwrap();
        assert_eq!(restored, checkpoint);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let payload = sample_checkpoint().to_payload().unwrap();
        for cut in [1, payload.len() / 2, payload.len() - 1] {
            assert!(
                TrainCheckpoint::from_payload(&payload[..cut]).is_err(),
                "payload truncated to {cut} bytes should not parse"
            );
        }
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut payload = sample_checkpoint().to_payload().unwrap();
        payload[0] ^= 0xFF;
        assert!(TrainCheckpoint::from_payload(&payload).is_err());
    }

    #[test]
    fn unknown_sections_are_skipped() {
        let checkpoint = sample_checkpoint();
        let mut payload = checkpoint.to_payload().unwrap();
        // Append an unknown section: tag + len + body.
        payload.extend_from_slice(b"XTRA");
        payload.extend_from_slice(&4u64.to_le_bytes());
        payload.extend_from_slice(&[1, 2, 3, 4]);
        let restored = TrainCheckpoint::from_payload(&payload).unwrap();
        assert_eq!(restored, checkpoint);
    }

    #[test]
    fn corrupt_length_prefix_is_rejected_without_allocation() {
        let checkpoint = sample_checkpoint();
        let mut payload = checkpoint.to_payload().unwrap();
        // Corrupt the first section's length prefix to a huge value.
        let len_at = MAGIC.len() + 4 + 4;
        payload[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(TrainCheckpoint::from_payload(&payload).is_err());
    }
}
