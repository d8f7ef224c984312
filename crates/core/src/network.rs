//! Network container and the paper's VGG9 model builders.
//!
//! The evaluated network is (Sec. V-A):
//!
//! ```text
//! 64C3 - 112C3 - MP2 - 192C3 - 216C3 - MP2 - 480C3 - 504C3 - 560C3 - MP2 - 1064 - P
//! ```
//!
//! i.e. seven 3×3 convolutions interleaved with three 2×2 spike max-pooling
//! stages, one hidden fully-connected layer of 1064 neurons and a population
//! output layer of `P` neurons (`P = 1000` for SVHN/CIFAR-10, `P = 5000` for
//! CIFAR-100). Every weight layer is followed by a LIF activation
//! ([`crate::neuron::LifPopulation`]); classification reads out the total
//! spike count of each class's share of the population layer.
//!
//! [`SnnNetwork::run`] performs direct- or rate-coded inference over `T`
//! timesteps and returns both the classification result and the per-layer
//! spike counts that drive the accelerator simulator and the workload model.
//!
//! Weights and run state are split: [`SnnNetwork`] is immutable during
//! inference and can be shared across threads, while all mutable state
//! (membrane potentials, firing history, im2col scratch, per-run counts)
//! lives in a [`RunState`] that is reset and reused across runs. The one
//! event-driven forward loop is [`SnnNetwork::run_observed`], which calls an
//! observer after every layer at every timestep: inference
//! ([`SnnNetwork::run_with_state`]) runs it with a no-op observer and builds
//! the report from the state's counts, and the BPTT forward sweep in
//! `snn-train` runs it with an observer that caches what the backward pass
//! reads. The `snn` facade crate's `Engine`/`Session` API builds directly on
//! this split.

use crate::encoding::{CodingScheme, Encoder};
use crate::error::SnnError;
use crate::layers::{BatchNorm2d, Conv2d, ConvScratch, Linear, SpikeMaxPool2d};
use crate::neuron::{LifParams, LifPopulation};
use crate::quant::Precision;
use crate::spike::{SpikePlane, SpikeRecord};
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::convert::Infallible;

/// One stage of the network.
// The conv/linear variants intentionally carry their (large) weight tensors
// inline: layers are long-lived and iterated in sequence, so boxing would
// only add indirection on the hot forward path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Layer {
    /// Spiking convolution: conv → (optional BN) → LIF.
    Conv {
        /// Layer name in the paper's nomenclature (e.g. `CONV1_1`).
        name: String,
        /// The convolution weights.
        conv: Conv2d,
        /// Optional batch normalisation (training only; fold for inference).
        bn: Option<BatchNorm2d>,
    },
    /// Spike max-pooling.
    Pool {
        /// Layer name (e.g. `MP1`).
        name: String,
        /// The pooling operator.
        pool: SpikeMaxPool2d,
    },
    /// Spiking fully-connected layer: linear → LIF.
    Linear {
        /// Layer name (e.g. `FC1`, `FC_OUT`).
        name: String,
        /// The linear weights.
        linear: Linear,
    },
}

impl Layer {
    /// The layer's name.
    pub fn name(&self) -> &str {
        match self {
            Layer::Conv { name, .. } | Layer::Pool { name, .. } | Layer::Linear { name, .. } => {
                name
            }
        }
    }

    /// Whether this layer has trainable weights (conv or linear).
    pub fn is_weight_layer(&self) -> bool {
        !matches!(self, Layer::Pool { .. })
    }

    /// Number of trainable parameters.
    pub fn num_params(&self) -> usize {
        match self {
            Layer::Conv { conv, bn, .. } => {
                conv.num_params() + bn.as_ref().map_or(0, |b| 2 * b.channels())
            }
            Layer::Linear { linear, .. } => linear.num_params(),
            Layer::Pool { .. } => 0,
        }
    }
}

/// Static geometry of one weight layer, used by the accelerator's workload
/// model and resource allocator.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerGeometry {
    /// Layer name (paper nomenclature).
    pub name: String,
    /// `true` for convolutions, `false` for fully-connected layers.
    pub is_conv: bool,
    /// Input channels (conv) or input features (FC).
    pub in_channels: usize,
    /// Output channels (conv) or output features (FC).
    pub out_channels: usize,
    /// Input feature-map height (1 for FC).
    pub in_height: usize,
    /// Input feature-map width (1 for FC).
    pub in_width: usize,
    /// Output feature-map height (1 for FC).
    pub out_height: usize,
    /// Output feature-map width (1 for FC).
    pub out_width: usize,
    /// Square kernel size (1 for FC).
    pub kernel: usize,
    /// Number of weights (excluding bias).
    pub weight_count: usize,
}

impl LayerGeometry {
    /// Number of filter coefficients contributing to one output neuron
    /// (`F` in Eq. 3): `in_channels * k * k` for conv, `in_features` for FC.
    pub fn coefficients_per_output(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Number of output neurons (`C_out * H_out * W_out`).
    pub fn output_neurons(&self) -> usize {
        self.out_channels * self.out_height * self.out_width
    }
}

/// Per-layer trace of one inference run: input events and output spikes at
/// every timestep, the counts the accelerator estimate and the workload
/// model fold.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTrace {
    /// Layer name.
    pub name: String,
    /// Geometry of the layer (only present for weight layers).
    pub geometry: Option<LayerGeometry>,
    /// Non-zero input events entering this layer at each timestep. For the
    /// direct-coded input layer these are analog pixels, for every other
    /// layer they are binary spikes.
    pub input_events: Vec<u64>,
    /// Output spikes leaving this layer at each timestep.
    pub output_spikes: Vec<u64>,
    /// Number of output neurons.
    pub output_neurons: u64,
    /// Always `None`, as its type says. The field stays only because the
    /// repository benchmark (`perfbench/`) still names it in `LayerTrace`
    /// literals. To see a layer's output spikes, run
    /// [`SnnNetwork::run_observed`] and read the planes its observer is
    /// handed.
    pub spikes: Option<Infallible>,
}

impl LayerTrace {
    /// Total input events across timesteps.
    pub fn total_input_events(&self) -> u64 {
        self.input_events.iter().sum()
    }

    /// Total output spikes across timesteps.
    pub fn total_output_spikes(&self) -> u64 {
        self.output_spikes.iter().sum()
    }
}

/// Result of one inference run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// Per-class scores (total spike count of each class's population group).
    pub logits: Vec<f32>,
    /// Index of the predicted class.
    pub prediction: usize,
    /// Per-layer spike record (summed over timesteps).
    pub record: SpikeRecord,
    /// Detailed per-layer traces.
    pub traces: Vec<LayerTrace>,
    /// Number of timesteps simulated.
    pub timesteps: usize,
}

/// Mutable per-run state of one forward stream, split out from the
/// (immutable, shareable) [`SnnNetwork`] weights.
///
/// Holds the per-layer LIF populations (membrane potentials and firing
/// history), every scratch buffer of the event-driven loop (the encoder's
/// frame planes, the ping-pong [`SpikePlane`] pair activations flow through,
/// the membrane-current tensors and the conv layers' shared
/// im2col/matmul-panel/gather scratch), the per-layer geometry, and the
/// counts of the last run: class scores, per-layer per-timestep input events
/// and output spikes, and output sizes. A `RunState` is created once per
/// session/thread via [`RunState::new`] and reused across runs by
/// [`SnnNetwork::run_observed`], which resets it between images instead of
/// reallocating — a warm run performs no heap allocation. It backs both
/// inference and the BPTT forward sweep, and is the enabler for batched and
/// parallel inference over one shared network.
#[derive(Debug, Clone)]
pub struct RunState {
    /// Per-layer LIF state, index-aligned with the network's layers
    /// (`None` for pooling layers).
    lif: Vec<Option<LifPopulation>>,
    /// Per-layer geometry, index-aligned with the network's layers (`None`
    /// for pooling layers).
    geometry: Vec<Option<LayerGeometry>>,
    /// Shared im2col + event-gather scratch, reused by every conv layer.
    conv_scratch: ConvScratch,
    /// Membrane-current buffer every conv/linear layer writes into.
    current: Tensor,
    /// Cache of the first layer's membrane currents under direct coding,
    /// where every timestep presents the identical analog frame: the (dense,
    /// most expensive) input-layer forward is computed once per image and
    /// replayed at the remaining timesteps.
    first_current: Tensor,
    /// Ping-pong spike planes activations flow through, one layer at a time.
    plane_a: SpikePlane,
    plane_b: SpikePlane,
    /// Encoded input frames of the image being processed.
    frames: Vec<SpikePlane>,
    /// Per-class scores of the last run.
    class_scores: Vec<f32>,
    /// Input events of the last run, layer-major: `[layer * T + t]`.
    input_events: Vec<u64>,
    /// Output spikes of the last run, layer-major: `[layer * T + t]`.
    output_spikes: Vec<u64>,
    /// Output size of each layer.
    output_neurons: Vec<u64>,
}

impl RunState {
    /// Preallocates run state (membranes, firing history, geometry, count
    /// buffers) for `network`.
    ///
    /// # Errors
    ///
    /// Propagates geometry errors for inconsistent layer shapes.
    pub fn new(network: &SnnNetwork) -> Result<Self, SnnError> {
        let mut weight_geometry = network.geometry()?.into_iter();
        let geometry: Vec<Option<LayerGeometry>> = network
            .layers()
            .iter()
            .map(|layer| {
                if layer.is_weight_layer() {
                    weight_geometry.next()
                } else {
                    None
                }
            })
            .collect();
        let lif = geometry
            .iter()
            .map(|geo| {
                geo.as_ref()
                    .map(|g| LifPopulation::new(g.output_neurons(), network.lif_params()))
            })
            .collect();
        Ok(RunState {
            lif,
            geometry,
            conv_scratch: ConvScratch::new(),
            current: Tensor::zeros(&[0]),
            first_current: Tensor::zeros(&[0]),
            plane_a: SpikePlane::new(),
            plane_b: SpikePlane::new(),
            frames: Vec::new(),
            class_scores: Vec::new(),
            input_events: Vec::new(),
            output_spikes: Vec::new(),
            output_neurons: vec![0; network.layers().len()],
        })
    }

    /// Returns membranes and firing history to the rest state and clears the
    /// spike statistics, making the next run independent of the previous one.
    /// Allocations are kept.
    pub fn reset(&mut self) {
        for pop in self.lif.iter_mut().flatten() {
            pop.reset();
            pop.reset_statistics();
        }
    }

    /// Timesteps of the last run.
    pub fn timesteps(&self) -> usize {
        self.frames.len()
    }

    /// Per-class scores of the last run: the total spike count of each
    /// class's population group.
    pub fn class_scores(&self) -> &[f32] {
        &self.class_scores
    }
}

/// A feed-forward spiking network: a sequence of [`Layer`]s, each weight layer
/// followed by a shared-parameter LIF population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnnNetwork {
    layers: Vec<Layer>,
    lif: LifParams,
    input_shape: [usize; 3],
    num_classes: usize,
    population: usize,
}

impl SnnNetwork {
    /// Creates a network from parts.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] if the population size is not a
    /// positive multiple of the class count, or the layer list is empty or
    /// does not end in a linear layer of `population` outputs.
    pub fn new(
        layers: Vec<Layer>,
        lif: LifParams,
        input_shape: [usize; 3],
        num_classes: usize,
        population: usize,
    ) -> Result<Self, SnnError> {
        if num_classes == 0 || population == 0 || !population.is_multiple_of(num_classes) {
            return Err(SnnError::config(
                "population",
                "population must be a positive multiple of the class count",
            ));
        }
        match layers.last() {
            Some(Layer::Linear { linear, .. }) if linear.out_features() == population => {}
            _ => {
                return Err(SnnError::config(
                    "layers",
                    "network must end in a linear layer with `population` outputs",
                ))
            }
        }
        Ok(SnnNetwork {
            layers,
            lif,
            input_shape,
            num_classes,
            population,
        })
    }

    /// The layer sequence.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to the layer sequence (used by the trainer).
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// The shared LIF hyper-parameters.
    pub fn lif_params(&self) -> LifParams {
        self.lif
    }

    /// Expected input shape `[C, H, W]`.
    pub fn input_shape(&self) -> [usize; 3] {
        self.input_shape
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Size of the output population layer.
    pub fn population(&self) -> usize {
        self.population
    }

    /// Total number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Layer::num_params).sum()
    }

    /// Geometry of every weight layer, in network order.
    ///
    /// # Errors
    ///
    /// Returns an error if the layer shapes are inconsistent.
    pub fn geometry(&self) -> Result<Vec<LayerGeometry>, SnnError> {
        let mut shape = self.input_shape;
        let mut out = Vec::new();
        for layer in &self.layers {
            match layer {
                Layer::Conv { name, conv, .. } => {
                    let out_shape = conv.output_shape(&shape)?;
                    out.push(LayerGeometry {
                        name: name.clone(),
                        is_conv: true,
                        in_channels: conv.in_channels(),
                        out_channels: conv.out_channels(),
                        in_height: shape[1],
                        in_width: shape[2],
                        out_height: out_shape[1],
                        out_width: out_shape[2],
                        kernel: conv.kernel(),
                        weight_count: conv.weight().len(),
                    });
                    shape = out_shape;
                }
                Layer::Pool { pool, .. } => {
                    shape = pool.output_shape(&shape)?;
                }
                Layer::Linear { name, linear, .. } => {
                    out.push(LayerGeometry {
                        name: name.clone(),
                        is_conv: false,
                        in_channels: linear.in_features(),
                        out_channels: linear.out_features(),
                        in_height: 1,
                        in_width: 1,
                        out_height: 1,
                        out_width: 1,
                        kernel: 1,
                        weight_count: linear.weight().len(),
                    });
                    shape = [linear.out_features(), 1, 1];
                }
            }
        }
        Ok(out)
    }

    /// Replaces every conv/linear layer's weights with their fake-quantized
    /// version at `precision` (a no-op for [`Precision::Fp32`]). This is how a
    /// QAT-trained model is materialised for quantized inference.
    ///
    /// # Errors
    ///
    /// Propagates quantization failures.
    pub fn apply_precision(&mut self, precision: Precision) -> Result<(), SnnError> {
        for layer in &mut self.layers {
            match layer {
                Layer::Conv { conv, .. } => *conv = conv.to_precision(precision)?,
                Layer::Linear { linear, .. } => *linear = linear.to_precision(precision)?,
                Layer::Pool { .. } => {}
            }
        }
        Ok(())
    }

    /// Folds every batch-norm layer into its preceding convolution and
    /// removes it, producing the inference-time network the hardware runs.
    ///
    /// # Errors
    ///
    /// Propagates folding failures.
    pub fn fold_batchnorm(&mut self) -> Result<(), SnnError> {
        for layer in &mut self.layers {
            if let Layer::Conv { conv, bn, .. } = layer {
                if let Some(b) = bn.take() {
                    *conv = b.fold_into_conv(conv)?;
                }
            }
        }
        Ok(())
    }

    /// Runs inference on one image with the given encoder, collecting
    /// per-layer spike traces.
    ///
    /// Weights are immutable during inference (`&self`): concurrent runs only
    /// need their own [`RunState`]. For repeated inference prefer
    /// [`SnnNetwork::run_with_state`], which amortizes the LIF-state and
    /// im2col allocations across runs.
    ///
    /// # Errors
    ///
    /// Returns shape errors if the image does not match the network's input
    /// shape, or any layer-level error encountered during the forward pass.
    pub fn run(&self, image: &Tensor, encoder: &Encoder) -> Result<RunOutput, SnnError> {
        self.run_seeded(image, encoder, 0)
    }

    /// Like [`SnnNetwork::run`] but with an explicit seed for the (stochastic)
    /// rate encoder.
    ///
    /// # Errors
    ///
    /// Same as [`SnnNetwork::run`].
    pub fn run_seeded(
        &self,
        image: &Tensor,
        encoder: &Encoder,
        seed: u64,
    ) -> Result<RunOutput, SnnError> {
        let mut state = RunState::new(self)?;
        self.run_with_state(image, encoder, seed, &mut state)
    }

    /// Runs one inference reusing a preallocated [`RunState`] (membrane
    /// potentials, spike history, im2col scratch and count buffers). This is
    /// the hot path behind the facade crate's `Session::run`/`run_batch`:
    /// [`SnnNetwork::run_observed`] with a no-op observer, followed by the
    /// report built from the state's counts — the report's buffers are the
    /// only allocations of a warm run.
    ///
    /// Results are bitwise-identical to [`SnnNetwork::run_seeded`] with the
    /// same image, encoder and seed.
    ///
    /// # Errors
    ///
    /// Same as [`SnnNetwork::run_observed`].
    pub fn run_with_state(
        &self,
        image: &Tensor,
        encoder: &Encoder,
        seed: u64,
        state: &mut RunState,
    ) -> Result<RunOutput, SnnError> {
        self.run_observed(image, encoder, seed, state, |_, _, _, _| Ok(()))?;
        let timesteps = state.timesteps();
        let mut record = SpikeRecord::new(timesteps);
        let mut traces = Vec::with_capacity(self.layers.len());
        for (li, layer) in self.layers.iter().enumerate() {
            let span = li * timesteps..(li + 1) * timesteps;
            let input_events = &state.input_events[span.clone()];
            let output_spikes = &state.output_spikes[span];
            record.push_layer(
                layer.name(),
                input_events.iter().sum(),
                output_spikes.iter().sum(),
                state.output_neurons[li],
            );
            traces.push(LayerTrace {
                name: layer.name().to_string(),
                geometry: state.geometry[li].clone(),
                input_events: input_events.to_vec(),
                output_spikes: output_spikes.to_vec(),
                output_neurons: state.output_neurons[li],
                spikes: None,
            });
        }
        let logits = state.class_scores.clone();
        let prediction = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        Ok(RunOutput {
            logits,
            prediction,
            record,
            traces,
            timesteps,
        })
    }

    /// The event-driven forward loop: encodes `image`, runs every layer at
    /// every timestep, and leaves the class scores and per-layer counts in
    /// `state`. After each layer's step, `observe(layer, input, output, lif)`
    /// receives the layer's index, its input and output planes, and its LIF
    /// population after the step (`None` for pooling layers); an `Err` from
    /// it aborts the run and is returned unchanged. With a no-op observer a
    /// warm run allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns shape errors if the image does not match the network's input
    /// shape or the state was built for a different network, any
    /// layer-level error encountered during the forward pass, and the
    /// observer's errors.
    pub fn run_observed<F>(
        &self,
        image: &Tensor,
        encoder: &Encoder,
        seed: u64,
        state: &mut RunState,
        mut observe: F,
    ) -> Result<(), SnnError>
    where
        F: FnMut(usize, &SpikePlane, &SpikePlane, Option<&LifPopulation>) -> Result<(), SnnError>,
    {
        if image.shape() != self.input_shape {
            return Err(SnnError::shape(
                &self.input_shape,
                image.shape(),
                "SnnNetwork::run input image",
            ));
        }
        if state.lif.len() != self.layers.len() {
            return Err(SnnError::shape(
                &[self.layers.len()],
                &[state.lif.len()],
                "RunState layer count",
            ));
        }
        state.reset();
        encoder.encode_planes_into(image, seed, &mut state.frames)?;
        let timesteps = state.frames.len();
        let RunState {
            lif,
            conv_scratch,
            current,
            first_current,
            plane_a,
            plane_b,
            frames,
            class_scores,
            input_events,
            output_spikes,
            output_neurons,
            ..
        } = state;
        class_scores.clear();
        class_scores.resize(self.num_classes, 0.0);
        input_events.clear();
        input_events.resize(self.layers.len() * timesteps, 0);
        output_spikes.clear();
        output_spikes.resize(self.layers.len() * timesteps, 0);
        let group = self.population / self.num_classes;

        // Activations flow through the two ping-pong spike planes (`src`
        // holds the current layer's input, `dst` receives its output), with
        // the encoder's frame as the first layer's input at each timestep.
        // Conv/linear layers dispatch between the gather-based event path
        // and the dense im2col fallback. Direct coding presents the
        // identical analog frame at every timestep, so the first layer's
        // (stateless) conv + BN output is the same each step: compute it at
        // t = 0 and replay it afterwards. Only the LIF populations carry
        // state across timesteps.
        let replay_first = encoder.scheme == CodingScheme::Direct && timesteps > 1;
        let mut src: &mut SpikePlane = plane_a;
        let mut dst: &mut SpikePlane = plane_b;
        for (t, frame) in frames.iter().enumerate() {
            for (li, layer) in self.layers.iter().enumerate() {
                let input: &SpikePlane = if li == 0 { frame } else { src };
                let at = li * timesteps + t;
                input_events[at] = input.count_active() as u64;
                let pop: Option<&LifPopulation> = match layer {
                    Layer::Conv { conv, bn, .. } => {
                        let cur: &Tensor = if li == 0 && replay_first {
                            if t == 0 {
                                conv.forward_plane_into(input, conv_scratch, first_current)?;
                                if let Some(b) = bn {
                                    b.forward_inplace(first_current)?;
                                }
                            }
                            first_current
                        } else {
                            conv.forward_plane_into(input, conv_scratch, current)?;
                            if let Some(b) = bn {
                                b.forward_inplace(current)?;
                            }
                            current
                        };
                        let pop = lif[li].as_mut().ok_or_else(|| {
                            SnnError::config("state", "RunState missing LIF state for conv layer")
                        })?;
                        output_spikes[at] = pop.step_plane(cur, dst)? as u64;
                        Some(&*pop)
                    }
                    Layer::Pool { pool, .. } => {
                        pool.forward_plane(input, dst)?;
                        output_spikes[at] = dst.count_active() as u64;
                        None
                    }
                    Layer::Linear { linear, .. } => {
                        let cur: &Tensor = if li == 0 && replay_first {
                            if t == 0 {
                                linear.forward_plane_into(input, first_current)?;
                            }
                            first_current
                        } else {
                            linear.forward_plane_into(input, current)?;
                            current
                        };
                        let pop = lif[li].as_mut().ok_or_else(|| {
                            SnnError::config("state", "RunState missing LIF state for linear layer")
                        })?;
                        output_spikes[at] = pop.step_plane(cur, dst)? as u64;
                        Some(&*pop)
                    }
                };
                output_neurons[li] = dst.len() as u64;
                observe(li, input, dst, pop)?;
                std::mem::swap(&mut src, &mut dst);
            }
            // Population readout: accumulate output-layer spikes per class.
            // After the final swap, `src` holds the output layer's spikes.
            let out = src.dense().as_slice();
            for (class, score) in class_scores.iter_mut().enumerate() {
                let start = class * group;
                let end = start + group;
                *score += out[start..end.min(out.len())].iter().sum::<f32>();
            }
        }
        Ok(())
    }
}

/// Configuration of the paper's VGG9 model (or a scaled-down variant).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Vgg9Config {
    /// Human-readable dataset / model name.
    pub name: String,
    /// Input channels (3 for RGB images).
    pub in_channels: usize,
    /// Square input image size (32 for the paper's datasets).
    pub image_size: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Output population size `P` (must be a multiple of `num_classes`).
    pub population: usize,
    /// Output channels of the seven convolution layers.
    pub conv_channels: [usize; 7],
    /// Hidden FC layer width (1064 in the paper).
    pub fc_hidden: usize,
    /// Random seed for weight initialisation.
    pub seed: u64,
}

impl Vgg9Config {
    /// Paper-scale configuration for CIFAR-10 (`P = 1000`).
    pub fn cifar10() -> Self {
        Vgg9Config {
            name: "cifar10".to_string(),
            in_channels: 3,
            image_size: 32,
            num_classes: 10,
            population: 1000,
            conv_channels: [64, 112, 192, 216, 480, 504, 560],
            fc_hidden: 1064,
            seed: 10,
        }
    }

    /// Paper-scale configuration for CIFAR-100 (`P = 5000`).
    pub fn cifar100() -> Self {
        Vgg9Config {
            name: "cifar100".to_string(),
            num_classes: 100,
            population: 5000,
            seed: 100,
            ..Vgg9Config::cifar10()
        }
    }

    /// Paper-scale configuration for SVHN (`P = 1000`).
    pub fn svhn() -> Self {
        Vgg9Config {
            name: "svhn".to_string(),
            seed: 37,
            ..Vgg9Config::cifar10()
        }
    }

    /// A scaled-down CIFAR-10-like configuration for unit tests, doc tests and
    /// quick training runs (16×16 inputs, narrow layers, 10 classes).
    pub fn cifar10_small() -> Self {
        Vgg9Config {
            name: "cifar10-small".to_string(),
            in_channels: 3,
            image_size: 16,
            num_classes: 10,
            population: 40,
            conv_channels: [8, 8, 16, 16, 24, 24, 32],
            fc_hidden: 64,
            seed: 7,
        }
    }

    /// A scaled-down CIFAR-100-like configuration (100 classes).
    pub fn cifar100_small() -> Self {
        Vgg9Config {
            name: "cifar100-small".to_string(),
            num_classes: 100,
            population: 200,
            seed: 70,
            ..Vgg9Config::cifar10_small()
        }
    }

    /// A scaled-down SVHN-like configuration.
    pub fn svhn_small() -> Self {
        Vgg9Config {
            name: "svhn-small".to_string(),
            seed: 77,
            ..Vgg9Config::cifar10_small()
        }
    }

    /// Layer names in the paper's nomenclature, index-aligned with the nine
    /// weight layers of the VGG9 network.
    pub fn layer_names() -> [&'static str; 9] {
        [
            "CONV1_1", "CONV1_2", "CONV2_1", "CONV2_2", "CONV3_1", "CONV3_2", "CONV3_3", "FC1",
            "FC_OUT",
        ]
    }
}

/// Builds the VGG9 network described by `cfg` with Kaiming-initialised
/// weights, batch normalisation after every convolution and the paper's LIF
/// hyper-parameters.
///
/// # Errors
///
/// Returns configuration errors if the geometry is inconsistent (e.g. the
/// image is too small for three pooling stages).
pub fn vgg9(cfg: &Vgg9Config) -> Result<SnnNetwork, SnnError> {
    vgg9_with_lif(cfg, LifParams::paper_default())
}

/// Like [`vgg9`] but with explicit LIF hyper-parameters.
///
/// # Errors
///
/// Same as [`vgg9`].
pub fn vgg9_with_lif(cfg: &Vgg9Config, lif: LifParams) -> Result<SnnNetwork, SnnError> {
    if !cfg.image_size.is_multiple_of(8) {
        return Err(SnnError::config(
            "image_size",
            "image size must be divisible by 8 (three 2x2 pooling stages)",
        ));
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let names = Vgg9Config::layer_names();
    let c = cfg.conv_channels;
    let mut layers = Vec::new();
    let mut in_c = cfg.in_channels;
    let mut pools = 0;
    // Three conv blocks, each closed by a pool: MP1, MP2, MP3.
    for (i, &out_c) in c.iter().enumerate() {
        let conv = Conv2d::with_kaiming_init(in_c, out_c, 3, 1, 1, &mut rng)?;
        layers.push(Layer::Conv {
            name: names[i].to_string(),
            conv,
            bn: Some(BatchNorm2d::new(out_c)?),
        });
        in_c = out_c;
        // Pool after CONV1_2 (index 1), CONV2_2 (index 3), CONV3_3 (index 6).
        if i == 1 || i == 3 || i == 6 {
            pools += 1;
            layers.push(Layer::Pool {
                name: format!("MP{pools}"),
                pool: SpikeMaxPool2d::new(2)?,
            });
        }
    }
    let final_map = cfg.image_size / 8;
    let flat = c[6] * final_map * final_map;
    layers.push(Layer::Linear {
        name: names[7].to_string(),
        linear: Linear::with_kaiming_init(flat, cfg.fc_hidden, &mut rng)?,
    });
    layers.push(Layer::Linear {
        name: names[8].to_string(),
        linear: Linear::with_kaiming_init(cfg.fc_hidden, cfg.population, &mut rng)?,
    });
    SnnNetwork::new(
        layers,
        lif,
        [cfg.in_channels, cfg.image_size, cfg.image_size],
        cfg.num_classes,
        cfg.population,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Encoder;

    #[test]
    fn vgg9_small_builds_with_nine_weight_layers() {
        let net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
        let weight_layers = net.layers().iter().filter(|l| l.is_weight_layer()).count();
        assert_eq!(weight_layers, 9);
        let pools = net.layers().iter().filter(|l| !l.is_weight_layer()).count();
        assert_eq!(pools, 3);
        assert!(net.num_params() > 0);
    }

    #[test]
    fn vgg9_paper_scale_geometry_matches_structure_string() {
        let net = vgg9(&Vgg9Config::cifar10()).unwrap();
        let geo = net.geometry().unwrap();
        assert_eq!(geo.len(), 9);
        assert_eq!(geo[0].out_channels, 64);
        assert_eq!(geo[1].out_channels, 112);
        assert_eq!(geo[6].out_channels, 560);
        // After three MP2 stages the 32x32 map is 4x4.
        assert_eq!(geo[6].out_height, 8);
        assert_eq!(geo[7].in_channels, 560 * 4 * 4);
        assert_eq!(geo[7].out_channels, 1064);
        assert_eq!(geo[8].out_channels, 1000);
        // CONV1_1 sees the full-resolution input.
        assert_eq!(geo[0].in_height, 32);
        assert_eq!(geo[0].coefficients_per_output(), 27);
    }

    #[test]
    fn vgg9_rejects_bad_image_size() {
        let mut cfg = Vgg9Config::cifar10_small();
        cfg.image_size = 20;
        assert!(vgg9(&cfg).is_err());
    }

    #[test]
    fn network_new_validates_population() {
        let cfg = Vgg9Config::cifar10_small();
        let net = vgg9(&cfg).unwrap();
        // Rebuild with a bad population.
        let layers = net.layers().to_vec();
        assert!(SnnNetwork::new(layers.clone(), LifParams::default(), [3, 16, 16], 10, 0).is_err());
        assert!(
            SnnNetwork::new(layers.clone(), LifParams::default(), [3, 16, 16], 10, 41).is_err()
        );
        assert!(SnnNetwork::new(layers, LifParams::default(), [3, 16, 16], 10, 40).is_ok());
    }

    #[test]
    fn run_direct_coding_produces_traces_for_every_layer() {
        let cfg = Vgg9Config::cifar10_small();
        let net = vgg9(&cfg).unwrap();
        let image = Tensor::from_fn(&[3, 16, 16], |i| ((i as f32) * 0.017).sin().abs());
        let out = net.run(&image, &Encoder::direct(2)).unwrap();
        assert_eq!(out.logits.len(), 10);
        assert_eq!(out.timesteps, 2);
        assert_eq!(out.traces.len(), net.layers().len());
        assert_eq!(out.record.num_layers(), net.layers().len());
        // The direct-coded input layer sees analog inputs at every timestep.
        assert_eq!(out.traces[0].input_events.len(), 2,);
        assert!(out.traces[0].total_input_events() > 0);
        assert!(out.prediction < 10);
    }

    /// Shape, dense bits and mask words of a plane, for bitwise comparison.
    fn plane_bits(plane: &SpikePlane) -> (Vec<usize>, Vec<u32>, Vec<u64>) {
        (
            plane.shape().to_vec(),
            plane
                .dense()
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect(),
            plane.as_words().to_vec(),
        )
    }

    #[test]
    fn observer_sees_every_layer_step_in_order() {
        let net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
        let layers = net.layers().len();
        let image = Tensor::from_fn(&[3, 16, 16], |i| ((i as f32) * 0.017).sin().abs());
        for encoder in [Encoder::direct(2), Encoder::rate(3)] {
            let mut frames = Vec::new();
            encoder.encode_planes_into(&image, 4, &mut frames).unwrap();
            let mut state = RunState::new(&net).unwrap();
            let mut calls = 0;
            let mut previous: Option<SpikePlane> = None;
            net.run_observed(&image, &encoder, 4, &mut state, |li, input, output, lif| {
                // (timestep, layer) order: layers cycle fastest.
                assert_eq!(li, calls % layers, "{encoder:?} call {calls}");
                let t = calls / layers;
                if li == 0 {
                    assert_eq!(plane_bits(input), plane_bits(&frames[t]), "t={t}");
                } else {
                    let prev = previous.as_ref().expect("layer > 0 follows a layer");
                    assert_eq!(plane_bits(input), plane_bits(prev), "t={t} layer {li}");
                }
                assert_eq!(lif.is_some(), net.layers()[li].is_weight_layer());
                if let Some(pop) = lif {
                    assert_eq!(pop.membrane().len(), output.len());
                }
                previous = Some(output.clone());
                calls += 1;
                Ok(())
            })
            .unwrap();
            assert_eq!(calls, layers * encoder.timesteps, "{encoder:?}");
            assert_eq!(state.timesteps(), encoder.timesteps);
            let plain = net.run_seeded(&image, &encoder, 4).unwrap();
            assert_eq!(state.class_scores(), plain.logits.as_slice());
        }
    }

    #[test]
    fn observer_error_aborts_the_run_unchanged() {
        let net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
        let image = Tensor::full(&[3, 16, 16], 0.4);
        let mut state = RunState::new(&net).unwrap();
        let encoder = Encoder::direct(2);
        let stop = SnnError::config("observer", "stop after the first pool");
        let mut calls = 0;
        let err = net
            .run_observed(&image, &encoder, 0, &mut state, |_, _, _, lif| {
                calls += 1;
                match lif {
                    Some(_) => Ok(()),
                    None => Err(stop.clone()),
                }
            })
            .unwrap_err();
        assert_eq!(err, stop);
        assert_eq!(calls, 3, "CONV1_1, CONV1_2, then the failing MP1 call");
    }

    #[test]
    fn run_rejects_wrong_image_shape() {
        let net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
        let image = Tensor::zeros(&[3, 32, 32]);
        assert!(net.run(&image, &Encoder::direct(2)).is_err());
    }

    #[test]
    fn rate_coding_run_is_binary_at_input() {
        let cfg = Vgg9Config::cifar10_small();
        let net = vgg9(&cfg).unwrap();
        let image = Tensor::full(&[3, 16, 16], 0.5);
        let out = net.run_seeded(&image, &Encoder::rate(3), 5).unwrap();
        assert_eq!(out.timesteps, 3);
        // Input events at the first layer are bounded by the number of pixels.
        for &e in &out.traces[0].input_events {
            assert!(e <= 3 * 16 * 16);
        }
    }

    #[test]
    fn apply_precision_changes_weights_and_stays_runnable() {
        let cfg = Vgg9Config::cifar10_small();
        let mut net = vgg9(&cfg).unwrap();
        let before = match &net.layers()[0] {
            Layer::Conv { conv, .. } => conv.weight().clone(),
            _ => unreachable!(),
        };
        net.apply_precision(Precision::Int4).unwrap();
        let after = match &net.layers()[0] {
            Layer::Conv { conv, .. } => conv.weight().clone(),
            _ => unreachable!(),
        };
        assert_ne!(before, after);
        let image = Tensor::full(&[3, 16, 16], 0.4);
        assert!(net.run(&image, &Encoder::direct(2)).is_ok());
    }

    #[test]
    fn fold_batchnorm_removes_bn_and_preserves_geometry() {
        let cfg = Vgg9Config::cifar10_small();
        let mut net = vgg9(&cfg).unwrap();
        net.fold_batchnorm().unwrap();
        for layer in net.layers() {
            if let Layer::Conv { bn, .. } = layer {
                assert!(bn.is_none());
            }
        }
        assert_eq!(net.geometry().unwrap().len(), 9);
    }

    #[test]
    fn layer_names_match_table_i() {
        let names = Vgg9Config::layer_names();
        assert_eq!(names[0], "CONV1_1");
        assert_eq!(names[6], "CONV3_3");
        assert_eq!(names[7], "FC1");
        assert_eq!(names.len(), 9);
        // The built network names every layer, pools included, uniquely and
        // in Table I order.
        let net = vgg9(&Vgg9Config::cifar10_small()).unwrap();
        let built: Vec<&str> = net.layers().iter().map(Layer::name).collect();
        assert_eq!(
            built,
            [
                "CONV1_1", "CONV1_2", "MP1", "CONV2_1", "CONV2_2", "MP2", "CONV3_1", "CONV3_2",
                "CONV3_3", "MP3", "FC1", "FC_OUT"
            ]
        );
    }

    #[test]
    fn more_timesteps_never_reduce_total_spikes() {
        let cfg = Vgg9Config::cifar10_small();
        let image = Tensor::from_fn(&[3, 16, 16], |i| ((i as f32) * 0.031).cos().abs());
        let net_a = vgg9(&cfg).unwrap();
        let net_b = vgg9(&cfg).unwrap();
        let short = net_a.run(&image, &Encoder::direct(1)).unwrap();
        let long = net_b.run(&image, &Encoder::direct(3)).unwrap();
        assert!(long.record.total_spikes() >= short.record.total_spikes());
    }
}
