//! Surrogate-gradient backpropagation through time over a whole network.
//!
//! The forward pass unrolls the network over the encoder's timesteps exactly
//! like [`snn_core::network::SnnNetwork::run`] — event-driven: activations
//! travel as [`SpikePlane`] frames, the conv/linear layers dispatch between
//! the spike-gather and the blocked dense im2col paths, and the direct-coded
//! input layer's currents are computed once per image and replayed across
//! timesteps. It additionally caches, for every weight layer and timestep,
//! the layer input, the membrane potential at thresholding time and the
//! emitted spikes. The backward pass then walks the layers in reverse, and
//! within each LIF layer walks time in reverse using the standard
//! detached-reset BPTT recursion:
//!
//! ```text
//! ∂L/∂u[t] = ∂L/∂s[t] · σ'(u[t]) + β · ∂L/∂u[t+1]
//! ```
//!
//! where `σ'` is the surrogate derivative ([`crate::surrogate`]). Weight
//! gradients are accumulated over timesteps; the gradient with respect to the
//! layer input becomes the spike gradient of the preceding layer.
//!
//! The production backward is **scratch-backed and event-aware**: layer
//! inputs are cached as [`SpikePlane`]s, so the conv weight-gradient lowering
//! is rebuilt by gather from the stored planes' mask words when the frame is
//! sparse (dispatching by the same crossover the forward uses), the pool
//! backward takes each window's argmax from a word scan, a replayed
//! direct-coded input is lowered once per sample under the
//! [`BpttConfig::cache_lowerings`] budget, the first layer's never-consumed
//! input gradient is skipped, and every intermediate lives in a long-lived
//! [`BpttScratch`] — after warmup the backward's time loop performs zero
//! heap allocations.
//!
//! Losses, logits and gradients of the event-driven sweep are **bitwise
//! identical** to the dense sweep, which is retained as
//! [`Bptt::sample_gradients_dense`] and enforced by the
//! `event_driven_sweep_bitwise_equals_dense_reference` test plus the
//! proptests in this module and `crate::grad`.
//!
//! Quantization-aware training: when a non-`Fp32` precision is configured,
//! the forward (and the input-gradient part of the backward) use
//! fake-quantized copies of the weights while the gradients are applied to
//! the full-precision master weights — the straight-through estimator. The
//! quantized copies can be built once per batch via [`Bptt::prepare`] and
//! shared across samples/workers instead of being re-cloned per sample.

use crate::grad::{
    conv2d_backward, conv2d_backward_cached, conv2d_backward_into, linear_backward,
    linear_backward_into, pool_backward, pool_backward_into, CachedLowering, ConvGrads,
    GradScratch, LinearGrads,
};
use crate::loss::cross_entropy;
use crate::surrogate::SurrogateKind;
use snn_core::encoding::{CodingScheme, Encoder};
use snn_core::error::SnnError;
use snn_core::layers::ConvScratch;
use snn_core::network::{Layer, SnnNetwork};
use snn_core::neuron::LifPopulation;
use snn_core::quant::Precision;
use snn_core::spike::SpikePlane;
use snn_core::tensor::Tensor;

/// Per-layer weight/bias gradients for a whole network, index-aligned with
/// [`SnnNetwork::layers`]. Pooling layers have no entry.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkGradients {
    per_layer: Vec<Option<LayerGrads>>,
}

/// Weight and bias gradients of one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerGrads {
    /// Gradient of the weight tensor.
    pub weight: Tensor,
    /// Gradient of the bias tensor.
    pub bias: Tensor,
}

impl NetworkGradients {
    /// Creates zero gradients shaped like the network's parameters.
    pub fn zeros_like(network: &SnnNetwork) -> Self {
        let per_layer = network
            .layers()
            .iter()
            .map(|layer| match layer {
                Layer::Conv { conv, .. } => Some(LayerGrads {
                    weight: Tensor::zeros(conv.weight().shape()),
                    bias: Tensor::zeros(conv.bias().shape()),
                }),
                Layer::Linear { linear, .. } => Some(LayerGrads {
                    weight: Tensor::zeros(linear.weight().shape()),
                    bias: Tensor::zeros(linear.bias().shape()),
                }),
                Layer::Pool { .. } => None,
            })
            .collect();
        NetworkGradients { per_layer }
    }

    /// Per-layer gradients (None for pooling layers).
    pub fn per_layer(&self) -> &[Option<LayerGrads>] {
        &self.per_layer
    }

    /// Adds another gradient set element-wise (e.g. to average over a batch).
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] if the structures differ.
    pub fn accumulate(&mut self, other: &NetworkGradients) -> Result<(), SnnError> {
        if self.per_layer.len() != other.per_layer.len() {
            return Err(SnnError::shape(
                &[self.per_layer.len()],
                &[other.per_layer.len()],
                "NetworkGradients::accumulate",
            ));
        }
        for (a, b) in self.per_layer.iter_mut().zip(other.per_layer.iter()) {
            match (a, b) {
                (Some(ga), Some(gb)) => {
                    ga.weight += &gb.weight;
                    ga.bias += &gb.bias;
                }
                (None, None) => {}
                _ => {
                    return Err(SnnError::config(
                        "gradients",
                        "layer structure mismatch between gradient sets",
                    ))
                }
            }
        }
        Ok(())
    }

    /// Scales every gradient by `factor` (e.g. `1 / batch_size`).
    pub fn scale(&mut self, factor: f32) {
        for grads in self.per_layer.iter_mut().flatten() {
            grads.weight.map_inplace(|x| x * factor);
            grads.bias.map_inplace(|x| x * factor);
        }
    }

    /// Global L2 norm over all gradients, useful for clipping and diagnostics.
    pub fn global_norm(&self) -> f32 {
        self.per_layer
            .iter()
            .flatten()
            .map(|g| g.weight.norm().powi(2) + g.bias.norm().powi(2))
            .sum::<f32>()
            .sqrt()
    }

    /// Clips the global norm to `max_norm` (no-op if already smaller).
    pub fn clip_global_norm(&mut self, max_norm: f32) {
        self.clip_with_norm(max_norm, self.global_norm());
    }

    /// [`NetworkGradients::clip_global_norm`] for a caller that already
    /// holds `norm`, this set's [`NetworkGradients::global_norm`], so the
    /// norm is not summed twice.
    pub(crate) fn clip_with_norm(&mut self, max_norm: f32, norm: f32) {
        if norm > max_norm && norm > 0.0 {
            self.scale(max_norm / norm);
        }
    }
}

/// Result of one forward/backward pass on a single sample.
#[derive(Debug, Clone)]
pub struct SampleResult {
    /// Cross-entropy loss.
    pub loss: f32,
    /// Class logits (population spike counts per class).
    pub logits: Vec<f32>,
    /// Whether the prediction was correct.
    pub correct: bool,
    /// Parameter gradients.
    pub gradients: NetworkGradients,
    /// Total spikes emitted by all LIF layers across all timesteps.
    pub total_spikes: u64,
}

/// Per-layer forward cache for one sample.
struct LayerCache {
    /// Layer inputs per timestep, kept as [`SpikePlane`]s so the backward can
    /// run its event-aware kernels (gather im2col lowering, event pool
    /// argmax) by word-scanning the stored mask words.
    inputs: Vec<SpikePlane>,
    /// Membrane potentials (at thresholding) per timestep — weight layers only.
    membranes: Vec<Tensor>,
}

/// Everything the backward pass needs from one forward sweep.
struct ForwardPass {
    caches: Vec<LayerCache>,
    class_scores: Vec<f32>,
    total_spikes: u64,
    timesteps: usize,
    /// Whether the first layer's input is the identical frame at every
    /// timestep (direct coding with `timesteps > 1`) — the backward then
    /// lowers it once and reuses the columns across timesteps.
    replay_first: bool,
}

/// The cached forward sweep of one sample, for callers (benches, custom
/// training loops) that drive [`Bptt::backward_sweep`] separately from
/// [`Bptt::forward_sweep`] — e.g. to measure or repeat the backward pass
/// against one fixed forward.
pub struct ForwardSweep(ForwardPass);

/// Reusable per-worker scratch for the scratch-backed BPTT backward: the
/// layer-level [`GradScratch`], the per-timestep [`ConvGrads`]/[`LinearGrads`]
/// output buffers, the membrane-gradient and carry tensors of the BPTT
/// recursion, the ping-pong per-timestep gradient frames, and the cached
/// lowering of a replayed input. Owned long-lived by each trainer worker and
/// reused across every sample it processes: after the first sample warms the
/// buffers, the backward performs **zero heap allocations per timestep**.
#[derive(Debug, Default)]
pub struct BpttScratch {
    grad: GradScratch,
    conv: ConvGrads,
    linear: LinearGrads,
    grad_u: Tensor,
    carry: Tensor,
    grad_cur: Vec<Tensor>,
    grad_next: Vec<Tensor>,
    replay_lowering: CachedLowering,
}

impl BpttScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        BpttScratch::default()
    }
}

/// Fake-quantized working copies of a network's weight layers — the layers
/// the QAT forward actually executes. Built once per batch by
/// [`Bptt::prepare`] and shared (immutably) across every sample and worker
/// thread of that batch, instead of re-cloning all weights per sample. For
/// [`Precision::Fp32`] the copies equal the master weights.
#[derive(Debug, Clone)]
pub struct EffectiveLayers {
    layers: Vec<Layer>,
}

impl EffectiveLayers {
    /// The layer sequence the forward sweep executes.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }
}

/// Memory/compute knobs of the BPTT backward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BpttConfig {
    /// Byte budget for caching the im2col lowering of a **replayed** input
    /// (direct coding presents the identical frame at every timestep) across
    /// the backward's time loop, instead of re-lowering the same frame `T`
    /// times. The budget covers the cache's full footprint — the staging
    /// columns plus the pre-transposed copy, i.e. twice the lowering's size.
    /// A lowering that does not fit falls back to per-timestep rebuilding;
    /// `0` disables the cache. Gradients are bitwise identical either way —
    /// the cache only skips recomputing an identical matrix.
    pub cache_lowerings: usize,
}

impl Default for BpttConfig {
    fn default() -> Self {
        BpttConfig {
            // Generous for every model in this workspace: the largest
            // replayed lowering (paper-scale CONV1_1, 27 × 1024 f32) is
            // ~108 KiB.
            cache_lowerings: 8 * 1024 * 1024,
        }
    }
}

/// Surrogate-gradient BPTT engine.
#[derive(Debug, Clone, Copy)]
pub struct Bptt {
    /// The surrogate derivative of the spike non-linearity.
    pub surrogate: SurrogateKind,
    /// Weight precision for QAT (`Fp32` disables fake-quantization).
    pub precision: Precision,
    /// Backward-pass memory/compute configuration.
    pub config: BpttConfig,
}

impl Bptt {
    /// Creates a BPTT engine with the default [`BpttConfig`].
    pub fn new(surrogate: SurrogateKind, precision: Precision) -> Self {
        Bptt {
            surrogate,
            precision,
            config: BpttConfig::default(),
        }
    }

    /// Creates a BPTT engine with an explicit [`BpttConfig`].
    ///
    /// # Example
    ///
    /// One forward/backward pass with the replayed-lowering cache disabled —
    /// gradients are bitwise identical either way; the budget only controls
    /// whether an identical matrix is recomputed per timestep:
    ///
    /// ```
    /// use snn_core::encoding::Encoder;
    /// use snn_core::network::{vgg9, Vgg9Config};
    /// use snn_core::quant::Precision;
    /// use snn_core::tensor::Tensor;
    /// use snn_train::bptt::{Bptt, BpttConfig};
    /// use snn_train::surrogate::SurrogateKind;
    ///
    /// # fn main() -> Result<(), snn_core::SnnError> {
    /// let net = vgg9(&Vgg9Config::cifar10_small())?;
    /// let bptt = Bptt::with_config(
    ///     SurrogateKind::paper_default(),
    ///     Precision::Int4, // QAT: fake-quantized forward, fp32 master weights
    ///     BpttConfig { cache_lowerings: 0 },
    /// );
    /// let image = Tensor::from_fn(&[3, 16, 16], |i| ((i as f32) * 0.02).sin().abs());
    /// let result = bptt.sample_gradients(&net, &image, 3, &Encoder::direct(2), 0)?;
    /// assert!(result.loss.is_finite());
    /// assert!(result.gradients.global_norm() > 0.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn with_config(surrogate: SurrogateKind, precision: Precision, config: BpttConfig) -> Self {
        Bptt {
            surrogate,
            precision,
            config,
        }
    }

    /// Builds the fake-quantized working copies of `network`'s weight layers
    /// the forward sweep executes. Hot training loops call this once per
    /// batch (weights only change at optimizer steps, between batches) and
    /// pass the result to [`Bptt::sample_gradients_prepared`] for every
    /// sample, sharing one set of quantized weights across worker threads.
    ///
    /// Each convolution's transposed filter bank `Wᵀ`
    /// ([`snn_core::layers::Conv2d::transposed_weight`]) is warmed here,
    /// once per batch — the
    /// event-driven forward gathers its rows per spike tap and the backward's
    /// fused input-gradient kernel ([`crate::grad::conv2d_input_grad_into`])
    /// uses it as the pre-transposed matmul operand, so neither path pays a
    /// weight transpose inside the time loop.
    ///
    /// # Errors
    ///
    /// Propagates quantization failures.
    pub fn prepare(&self, network: &SnnNetwork) -> Result<EffectiveLayers, SnnError> {
        let layers: Vec<Layer> = network
            .layers()
            .iter()
            .map(|layer| match layer {
                Layer::Conv { name, conv, bn } => Ok(Layer::Conv {
                    name: name.clone(),
                    conv: conv.to_precision(self.precision)?,
                    bn: bn.clone(),
                }),
                Layer::Linear { name, linear } => Ok(Layer::Linear {
                    name: name.clone(),
                    linear: linear.to_precision(self.precision)?,
                }),
                Layer::Pool { name, pool } => Ok(Layer::Pool {
                    name: name.clone(),
                    pool: *pool,
                }),
            })
            .collect::<Result<_, SnnError>>()?;
        for layer in &layers {
            if let Layer::Conv { conv, .. } = layer {
                conv.transposed_weight();
            }
        }
        Ok(EffectiveLayers { layers })
    }

    /// Runs a forward and backward pass for one labelled sample, returning the
    /// loss and the parameter gradients (computed with the straight-through
    /// estimator when QAT is enabled).
    ///
    /// # Errors
    ///
    /// Propagates shape/configuration errors from the layers and encoder.
    pub fn sample_gradients(
        &self,
        network: &SnnNetwork,
        image: &Tensor,
        label: usize,
        encoder: &Encoder,
        seed: u64,
    ) -> Result<SampleResult, SnnError> {
        let effective = self.prepare(network)?;
        self.sample_gradients_prepared(network, &effective, image, label, encoder, seed)
    }

    /// Like [`Bptt::sample_gradients`] but with the quantized working layers
    /// supplied by an earlier [`Bptt::prepare`] call, so batches amortize the
    /// per-sample weight cloning. Allocates a fresh [`BpttScratch`] per call;
    /// hot loops use [`Bptt::sample_gradients_with`] to reuse one.
    ///
    /// # Errors
    ///
    /// Same as [`Bptt::sample_gradients`].
    pub fn sample_gradients_prepared(
        &self,
        network: &SnnNetwork,
        effective: &EffectiveLayers,
        image: &Tensor,
        label: usize,
        encoder: &Encoder,
        seed: u64,
    ) -> Result<SampleResult, SnnError> {
        let mut scratch = BpttScratch::new();
        self.sample_gradients_with(
            network,
            effective,
            image,
            label,
            encoder,
            seed,
            &mut scratch,
        )
    }

    /// The production entry point of the training hot loop: event-driven
    /// forward sweep ([`Bptt::forward_sweep`]) followed by the scratch-backed
    /// event-aware backward ([`Bptt::backward_sweep`]), with every backward
    /// intermediate drawn from the caller's long-lived [`BpttScratch`] — the
    /// per-timestep backward allocates nothing once the scratch is warm.
    /// Losses, logits and gradients are **bitwise identical** to
    /// [`Bptt::sample_gradients_dense`].
    ///
    /// # Errors
    ///
    /// Same as [`Bptt::sample_gradients`].
    #[allow(clippy::too_many_arguments)]
    pub fn sample_gradients_with(
        &self,
        network: &SnnNetwork,
        effective: &EffectiveLayers,
        image: &Tensor,
        label: usize,
        encoder: &Encoder,
        seed: u64,
        scratch: &mut BpttScratch,
    ) -> Result<SampleResult, SnnError> {
        if label >= network.num_classes() {
            return Err(SnnError::index(label, network.num_classes(), "class label"));
        }
        let forward = self.forward_event(network, effective, image, encoder, seed)?;
        self.backward_scratch(network, effective, &forward, label, scratch)
    }

    /// Runs the event-driven forward sweep alone, returning the cached
    /// activations/membranes for a later [`Bptt::backward_sweep`].
    ///
    /// # Errors
    ///
    /// Same as [`Bptt::sample_gradients`].
    pub fn forward_sweep(
        &self,
        network: &SnnNetwork,
        effective: &EffectiveLayers,
        image: &Tensor,
        encoder: &Encoder,
        seed: u64,
    ) -> Result<ForwardSweep, SnnError> {
        Ok(ForwardSweep(
            self.forward_event(network, effective, image, encoder, seed)?,
        ))
    }

    /// Runs the scratch-backed backward pass against a cached forward sweep.
    /// Repeatable: the sweep is only read, so benches and custom loops can
    /// drive the backward many times against one forward.
    ///
    /// # Errors
    ///
    /// Same as [`Bptt::sample_gradients`].
    pub fn backward_sweep(
        &self,
        network: &SnnNetwork,
        effective: &EffectiveLayers,
        sweep: &ForwardSweep,
        label: usize,
        scratch: &mut BpttScratch,
    ) -> Result<SampleResult, SnnError> {
        if label >= network.num_classes() {
            return Err(SnnError::index(label, network.num_classes(), "class label"));
        }
        self.backward_scratch(network, effective, &sweep.0, label, scratch)
    }

    /// The retained dense reference sweep: unrolls the network with dense
    /// per-layer `forward`/`step_tensor` calls exactly as the trainer did
    /// before the event-driven port. Kept (rather than deleted) because every
    /// bitwise guarantee of the event path is stated against it — the
    /// equivalence test and the `train_epoch` bench arm drive it directly.
    ///
    /// # Errors
    ///
    /// Same as [`Bptt::sample_gradients`].
    pub fn sample_gradients_dense(
        &self,
        network: &SnnNetwork,
        image: &Tensor,
        label: usize,
        encoder: &Encoder,
        seed: u64,
    ) -> Result<SampleResult, SnnError> {
        if label >= network.num_classes() {
            return Err(SnnError::index(label, network.num_classes(), "class label"));
        }
        let effective = self.prepare(network)?;
        let forward = self.forward_dense(network, &effective, image, encoder, seed)?;
        self.backward(network, &effective, forward, label)
    }

    /// Event-driven forward sweep with BPTT caching: activations flow through
    /// ping-pong [`SpikePlane`]s, conv/linear layers dispatch between the
    /// spike-gather path and the blocked dense im2col fallback
    /// (`forward_plane_into`), LIF populations emit spike planes directly
    /// (`step_plane`), and under direct coding the stateless input layer's
    /// currents are computed once and replayed across timesteps. Produces
    /// caches bitwise-identical to [`Bptt::forward_dense`].
    fn forward_event(
        &self,
        network: &SnnNetwork,
        effective: &EffectiveLayers,
        image: &Tensor,
        encoder: &Encoder,
        seed: u64,
    ) -> Result<ForwardPass, SnnError> {
        let lif = network.lif_params();
        let layers = effective.layers();
        let mut frames: Vec<SpikePlane> = Vec::new();
        encoder.encode_planes_into(image, seed, &mut frames)?;
        let timesteps = frames.len();

        let mut caches: Vec<LayerCache> = layers
            .iter()
            .map(|_| LayerCache {
                inputs: Vec::with_capacity(timesteps),
                membranes: Vec::with_capacity(timesteps),
            })
            .collect();
        let mut lif_states: Vec<Option<LifPopulation>> = vec![None; layers.len()];
        let mut class_scores = vec![0.0_f32; network.num_classes()];
        let group = network.population() / network.num_classes();
        let mut total_spikes = 0u64;

        // Scratch shared by every layer of the sweep: im2col + matmul panel
        // + event-gather buffers, the membrane-current tensor, and the
        // ping-pong planes. Allocated once per sample, reused across all
        // timesteps and layers.
        let mut scratch = ConvScratch::new();
        let mut current = Tensor::zeros(&[0]);
        let mut first_current = Tensor::zeros(&[0]);
        // Direct coding presents the identical analog frame at every
        // timestep, so the stateless first weight layer produces the same
        // currents each step: compute once, replay afterwards.
        let replay_first = encoder.scheme == CodingScheme::Direct && timesteps > 1;
        let mut plane_a = SpikePlane::new();
        let mut plane_b = SpikePlane::new();
        let mut src: &mut SpikePlane = &mut plane_a;
        let mut dst: &mut SpikePlane = &mut plane_b;

        for (t, frame) in frames.iter().enumerate() {
            for (li, layer) in layers.iter().enumerate() {
                let input: &SpikePlane = if li == 0 { frame } else { src };
                caches[li].inputs.push(input.clone());
                match layer {
                    Layer::Conv { conv, bn, .. } => {
                        let cur: &Tensor = if li == 0 && replay_first {
                            if t == 0 {
                                conv.forward_plane_into(input, &mut scratch, &mut first_current)?;
                                if let Some(b) = bn {
                                    b.forward_inplace(&mut first_current)?;
                                }
                            }
                            &first_current
                        } else {
                            conv.forward_plane_into(input, &mut scratch, &mut current)?;
                            if let Some(b) = bn {
                                b.forward_inplace(&mut current)?;
                            }
                            &current
                        };
                        let state = lif_states[li]
                            .get_or_insert_with(|| LifPopulation::new(cur.len(), lif));
                        let spikes = state.step_plane(cur, dst)?;
                        caches[li]
                            .membranes
                            .push(Tensor::from_vec(state.membrane().to_vec(), cur.shape())?);
                        total_spikes += spikes as u64;
                    }
                    Layer::Pool { pool, .. } => {
                        pool.forward_plane(input, dst)?;
                    }
                    Layer::Linear { linear, .. } => {
                        let cur: &Tensor = if li == 0 && replay_first {
                            if t == 0 {
                                linear.forward_plane_into(input, &mut first_current)?;
                            }
                            &first_current
                        } else {
                            linear.forward_plane_into(input, &mut current)?;
                            &current
                        };
                        let state = lif_states[li]
                            .get_or_insert_with(|| LifPopulation::new(cur.len(), lif));
                        let spikes = state.step_plane(cur, dst)?;
                        caches[li]
                            .membranes
                            .push(Tensor::from_vec(state.membrane().to_vec(), cur.shape())?);
                        total_spikes += spikes as u64;
                    }
                }
                std::mem::swap(&mut src, &mut dst);
            }
            // Population readout: after the final swap, `src` holds the
            // output layer's spikes.
            let out = src.dense().as_slice();
            for (class, score) in class_scores.iter_mut().enumerate() {
                let start = class * group;
                *score += out[start..(start + group).min(out.len())]
                    .iter()
                    .sum::<f32>();
            }
        }

        Ok(ForwardPass {
            caches,
            class_scores,
            total_spikes,
            timesteps,
            replay_first,
        })
    }

    /// Dense reference forward sweep (see [`Bptt::sample_gradients_dense`]).
    fn forward_dense(
        &self,
        network: &SnnNetwork,
        effective: &EffectiveLayers,
        image: &Tensor,
        encoder: &Encoder,
        seed: u64,
    ) -> Result<ForwardPass, SnnError> {
        let lif = network.lif_params();
        let layers = effective.layers();
        let frames = encoder.encode(image, seed)?;
        let timesteps = frames.len();

        let mut caches: Vec<LayerCache> = layers
            .iter()
            .map(|_| LayerCache {
                inputs: Vec::with_capacity(timesteps),
                membranes: Vec::with_capacity(timesteps),
            })
            .collect();
        let mut lif_states: Vec<Option<LifPopulation>> = vec![None; layers.len()];
        let mut class_scores = vec![0.0_f32; network.num_classes()];
        let group = network.population() / network.num_classes();
        let mut total_spikes = 0u64;

        for frame in &frames {
            let mut x = frame.clone();
            for (li, layer) in layers.iter().enumerate() {
                caches[li].inputs.push(SpikePlane::from_tensor(&x));
                match layer {
                    Layer::Conv { conv, bn, .. } => {
                        let mut current = conv.forward(&x)?;
                        if let Some(b) = bn {
                            current = b.forward(&current)?;
                        }
                        let state = lif_states[li]
                            .get_or_insert_with(|| LifPopulation::new(current.len(), lif));
                        let spikes = state.step_tensor(&current)?;
                        caches[li].membranes.push(Tensor::from_vec(
                            state.membrane().to_vec(),
                            current.shape(),
                        )?);
                        total_spikes += spikes.count_nonzero() as u64;
                        x = spikes;
                    }
                    Layer::Pool { pool, .. } => {
                        x = pool.forward(&x)?;
                    }
                    Layer::Linear { linear, .. } => {
                        let current = linear.forward(&x)?;
                        let state = lif_states[li]
                            .get_or_insert_with(|| LifPopulation::new(current.len(), lif));
                        let spikes = state.step_tensor(&current)?;
                        caches[li].membranes.push(Tensor::from_vec(
                            state.membrane().to_vec(),
                            current.shape(),
                        )?);
                        total_spikes += spikes.count_nonzero() as u64;
                        x = spikes;
                    }
                }
            }
            let out = x.as_slice();
            for (class, score) in class_scores.iter_mut().enumerate() {
                let start = class * group;
                *score += out[start..(start + group).min(out.len())]
                    .iter()
                    .sum::<f32>();
            }
        }

        Ok(ForwardPass {
            caches,
            class_scores,
            total_spikes,
            timesteps,
            replay_first: encoder.scheme == CodingScheme::Direct && timesteps > 1,
        })
    }

    /// Loss + reverse sweep shared by the event-driven and dense forwards.
    fn backward(
        &self,
        network: &SnnNetwork,
        effective: &EffectiveLayers,
        forward: ForwardPass,
        label: usize,
    ) -> Result<SampleResult, SnnError> {
        let lif = network.lif_params();
        let ForwardPass {
            caches,
            class_scores,
            total_spikes,
            timesteps,
            ..
        } = forward;
        let effective = effective.layers();

        // ---------- Loss ----------
        let (loss, grad_logits) = cross_entropy(&class_scores, label)?;
        let prediction = class_scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);

        // Seed gradient: every output-population neuron receives the gradient
        // of its class group at every timestep (the readout is a plain sum).
        let population = network.population();
        let group = population / network.num_classes();
        let mut seed_grad = vec![0.0_f32; population];
        for (neuron, g) in seed_grad.iter_mut().enumerate() {
            *g = grad_logits[neuron / group];
        }
        let seed_grad = Tensor::from_vec(seed_grad, &[population])?;

        // ---------- Backward ----------
        let mut gradients = NetworkGradients::zeros_like(network);
        // Gradient w.r.t. the *output spikes* of the layer currently being
        // processed, one tensor per timestep.
        let mut grad_out: Vec<Tensor> = vec![seed_grad; timesteps];

        for (li, layer) in effective.iter().enumerate().rev() {
            match layer {
                Layer::Pool { pool, .. } => {
                    let mut grad_in = Vec::with_capacity(timesteps);
                    for (t, grad) in grad_out.iter().enumerate().take(timesteps) {
                        grad_in.push(pool_backward(pool, caches[li].inputs[t].dense(), grad)?);
                    }
                    grad_out = grad_in;
                }
                Layer::Conv { conv, bn, .. } => {
                    let theta = lif.threshold;
                    let beta = lif.beta;
                    let mut grad_in: Vec<Tensor> = vec![Tensor::default(); timesteps];
                    let mut carry = Tensor::zeros(caches[li].membranes[0].shape());
                    let acc = gradients.per_layer[li]
                        .as_mut()
                        .expect("conv layer has grads");
                    for t in (0..timesteps).rev() {
                        let u = &caches[li].membranes[t];
                        // ∂L/∂u[t] = ∂L/∂s[t]·σ'(u[t]) + β·carry
                        let mut grad_u = grad_out[t]
                            .zip_map(u, |gs, uu| gs * self.surrogate.derivative(uu, theta))?;
                        grad_u += &carry.scale(beta);
                        carry = grad_u.clone();
                        // Through the (eval-mode) BN affine transform.
                        let grad_current = match bn {
                            Some(b) => {
                                let plane = u.shape()[1] * u.shape()[2];
                                let mut g = grad_u.clone();
                                let data = g.as_mut_slice();
                                for c in 0..b.channels() {
                                    let scale = b.gamma().as_slice()[c]
                                        / (b.running_var().as_slice()[c] + b.epsilon()).sqrt();
                                    for v in &mut data[c * plane..(c + 1) * plane] {
                                        *v *= scale;
                                    }
                                }
                                g
                            }
                            None => grad_u,
                        };
                        let grads =
                            conv2d_backward(conv, caches[li].inputs[t].dense(), &grad_current)?;
                        acc.weight += &grads.weight;
                        acc.bias += &grads.bias;
                        grad_in[t] = grads.input;
                    }
                    grad_out = grad_in;
                }
                Layer::Linear { linear, .. } => {
                    let theta = lif.threshold;
                    let beta = lif.beta;
                    let mut grad_in: Vec<Tensor> = vec![Tensor::default(); timesteps];
                    let mut carry = Tensor::zeros(caches[li].membranes[0].shape());
                    let acc = gradients.per_layer[li]
                        .as_mut()
                        .expect("linear layer has grads");
                    for t in (0..timesteps).rev() {
                        let u = &caches[li].membranes[t];
                        let grad_out_flat = grad_out[t].reshape(u.shape())?;
                        let mut grad_u = grad_out_flat
                            .zip_map(u, |gs, uu| gs * self.surrogate.derivative(uu, theta))?;
                        grad_u += &carry.scale(beta);
                        carry = grad_u.clone();
                        let grads = linear_backward(
                            linear,
                            &caches[li].inputs[t]
                                .dense()
                                .reshape(&[linear.in_features()])?,
                            &grad_u.reshape(&[linear.out_features()])?,
                        )?;
                        acc.weight += &grads.weight;
                        acc.bias += &grads.bias;
                        // Reshape the input gradient back to the input's shape.
                        grad_in[t] = grads.input.reshape(caches[li].inputs[t].shape())?;
                    }
                    grad_out = grad_in;
                }
            }
        }

        Ok(SampleResult {
            loss,
            logits: class_scores,
            correct: prediction == label,
            gradients,
            total_spikes,
        })
    }

    /// The scratch-backed production backward: the same loss seeding and
    /// detached-reset reverse recursion as [`Bptt::backward`], but every
    /// per-timestep intermediate (membrane-gradient and carry tensors, layer
    /// gradient buffers, lowerings, matmul repack/panel scratch, ping-pong
    /// per-timestep gradient frames) lives in the caller's [`BpttScratch`]
    /// and the layer kernels are the event-aware `_into` family of
    /// [`crate::grad`] — after warmup the time loop performs zero heap
    /// allocations. Two further event/structure exploits: the first layer's
    /// input gradient (which has no consumer) is never computed, and a
    /// replayed direct-coded input is lowered once and its columns reused
    /// across all timesteps under the [`BpttConfig::cache_lowerings`] budget.
    /// Gradients are **bitwise identical** to [`Bptt::backward`] on the same
    /// forward pass.
    fn backward_scratch(
        &self,
        network: &SnnNetwork,
        effective: &EffectiveLayers,
        forward: &ForwardPass,
        label: usize,
        scratch: &mut BpttScratch,
    ) -> Result<SampleResult, SnnError> {
        let lif = network.lif_params();
        let caches = &forward.caches;
        let timesteps = forward.timesteps;
        let effective = effective.layers();

        // ---------- Loss ----------
        let (loss, grad_logits) = cross_entropy(&forward.class_scores, label)?;
        let prediction = forward
            .class_scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);

        let population = network.population();
        let group = population / network.num_classes();

        let BpttScratch {
            grad: gscratch,
            conv: conv_buf,
            linear: linear_buf,
            grad_u,
            carry,
            grad_cur,
            grad_next,
            replay_lowering,
        } = scratch;

        // Seed gradient: every output-population neuron receives the gradient
        // of its class group at every timestep (the readout is a plain sum).
        if grad_cur.len() < timesteps {
            grad_cur.resize_with(timesteps, Tensor::default);
        }
        if grad_next.len() < timesteps {
            grad_next.resize_with(timesteps, Tensor::default);
        }
        for g in grad_cur.iter_mut().take(timesteps) {
            g.reset_to(&[population], 0.0);
            for (neuron, v) in g.as_mut_slice().iter_mut().enumerate() {
                *v = grad_logits[neuron / group];
            }
        }

        // ---------- Backward ----------
        let mut gradients = NetworkGradients::zeros_like(network);
        for (li, layer) in effective.iter().enumerate().rev() {
            // The first layer's input gradient has no consumer (its input is
            // the encoded image), so its matmul + col2im are skipped.
            let need_input = li > 0;
            match layer {
                Layer::Pool { pool, .. } => {
                    if !need_input {
                        continue;
                    }
                    for t in 0..timesteps {
                        pool_backward_into(
                            pool,
                            &caches[li].inputs[t],
                            &grad_cur[t],
                            gscratch,
                            &mut grad_next[t],
                        )?;
                    }
                    std::mem::swap(grad_cur, grad_next);
                }
                Layer::Conv { conv, bn, .. } => {
                    let theta = lif.threshold;
                    let beta = lif.beta;
                    carry.reset_to(caches[li].membranes[0].shape(), 0.0);
                    // The membrane shape is constant across the layer's time
                    // loop, so grad_u is shaped once here; every element is
                    // overwritten by the derivative write below, making the
                    // one-time zero fill shape-keeping only.
                    grad_u.reset_to(caches[li].membranes[0].shape(), 0.0);
                    // A replayed input frame (direct coding) lowers to the
                    // same column matrix at every timestep: build it once
                    // under the memory budget and reuse it across the time
                    // loop instead of re-lowering the identical frame. The
                    // cache keeps the staging columns alongside the
                    // transposed copy, so it holds the budget to twice the
                    // lowering's size.
                    let out_shape = conv.output_shape(caches[li].inputs[0].shape())?;
                    let lowering_bytes = conv.coefficients_per_output()
                        * out_shape[1]
                        * out_shape[2]
                        * std::mem::size_of::<f32>();
                    let replayed = forward.replay_first
                        && li == 0
                        && timesteps > 1
                        && 2 * lowering_bytes <= self.config.cache_lowerings;
                    if replayed {
                        replay_lowering.prepare(conv, &caches[li].inputs[0])?;
                    }
                    let acc = gradients.per_layer[li]
                        .as_mut()
                        .expect("conv layer has grads");
                    for t in (0..timesteps).rev() {
                        let u = &caches[li].membranes[t];
                        let go_t = &grad_cur[t];
                        if go_t.len() != u.len() {
                            return Err(SnnError::shape(u.shape(), go_t.shape(), "bptt conv grad"));
                        }
                        // ∂L/∂u[t] = ∂L/∂s[t]·σ'(u[t]) + β·carry
                        {
                            let gu = grad_u.as_mut_slice();
                            for ((g, &go), &uu) in gu
                                .iter_mut()
                                .zip(go_t.as_slice().iter())
                                .zip(u.as_slice().iter())
                            {
                                *g = go * self.surrogate.derivative(uu, theta);
                            }
                            for (g, &c) in gu.iter_mut().zip(carry.as_slice().iter()) {
                                *g += c * beta;
                            }
                        }
                        carry.copy_from(grad_u);
                        // Through the (eval-mode) BN affine transform.
                        if let Some(b) = bn {
                            let plane = u.shape()[1] * u.shape()[2];
                            let data = grad_u.as_mut_slice();
                            for c in 0..b.channels() {
                                let scale = b.gamma().as_slice()[c]
                                    / (b.running_var().as_slice()[c] + b.epsilon()).sqrt();
                                for v in &mut data[c * plane..(c + 1) * plane] {
                                    *v *= scale;
                                }
                            }
                        }
                        if replayed {
                            conv2d_backward_cached(
                                conv,
                                replay_lowering,
                                caches[li].inputs[t].shape(),
                                grad_u,
                                gscratch,
                                conv_buf,
                                need_input,
                            )?;
                        } else {
                            conv2d_backward_into(
                                conv,
                                &caches[li].inputs[t],
                                grad_u,
                                gscratch,
                                conv_buf,
                                need_input,
                            )?;
                        }
                        acc.weight += &conv_buf.weight;
                        acc.bias += &conv_buf.bias;
                        if need_input {
                            grad_next[t].copy_from(&conv_buf.input);
                        }
                    }
                    if need_input {
                        std::mem::swap(grad_cur, grad_next);
                    }
                }
                Layer::Linear { linear, .. } => {
                    let theta = lif.threshold;
                    let beta = lif.beta;
                    carry.reset_to(caches[li].membranes[0].shape(), 0.0);
                    // Shaped once per layer; fully overwritten per timestep.
                    grad_u.reset_to(caches[li].membranes[0].shape(), 0.0);
                    let acc = gradients.per_layer[li]
                        .as_mut()
                        .expect("linear layer has grads");
                    for t in (0..timesteps).rev() {
                        let u = &caches[li].membranes[t];
                        let go_t = &grad_cur[t];
                        if go_t.len() != u.len() {
                            return Err(SnnError::shape(
                                u.shape(),
                                go_t.shape(),
                                "bptt linear grad",
                            ));
                        }
                        {
                            let gu = grad_u.as_mut_slice();
                            for ((g, &go), &uu) in gu
                                .iter_mut()
                                .zip(go_t.as_slice().iter())
                                .zip(u.as_slice().iter())
                            {
                                *g = go * self.surrogate.derivative(uu, theta);
                            }
                            for (g, &c) in gu.iter_mut().zip(carry.as_slice().iter()) {
                                *g += c * beta;
                            }
                        }
                        carry.copy_from(grad_u);
                        linear_backward_into(
                            linear,
                            &caches[li].inputs[t],
                            grad_u,
                            gscratch,
                            linear_buf,
                            need_input,
                        )?;
                        acc.weight += &linear_buf.weight;
                        acc.bias += &linear_buf.bias;
                        if need_input {
                            grad_next[t].copy_from(&linear_buf.input);
                        }
                    }
                    if need_input {
                        std::mem::swap(grad_cur, grad_next);
                    }
                }
            }
        }

        Ok(SampleResult {
            loss,
            logits: forward.class_scores.clone(),
            correct: prediction == label,
            gradients,
            total_spikes: forward.total_spikes,
        })
    }
}

impl Default for Bptt {
    fn default() -> Self {
        Bptt::new(SurrogateKind::paper_default(), Precision::Fp32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use snn_core::network::{vgg9, Vgg9Config};

    fn small_net() -> SnnNetwork {
        vgg9(&Vgg9Config::cifar10_small()).unwrap()
    }

    fn sample_image() -> Tensor {
        Tensor::from_fn(&[3, 16, 16], |i| ((i as f32) * 0.023).sin().abs())
    }

    #[test]
    fn gradients_have_network_structure() {
        let net = small_net();
        let g = NetworkGradients::zeros_like(&net);
        assert_eq!(g.per_layer().len(), net.layers().len());
        let with_grads = g.per_layer().iter().filter(|x| x.is_some()).count();
        assert_eq!(with_grads, 9);
    }

    #[test]
    fn sample_gradients_produce_finite_nonzero_grads() {
        let net = small_net();
        let bptt = Bptt::default();
        let result = bptt
            .sample_gradients(&net, &sample_image(), 3, &Encoder::direct(2), 0)
            .unwrap();
        assert!(result.loss.is_finite());
        assert!(result.loss > 0.0);
        assert_eq!(result.logits.len(), 10);
        assert!(result.total_spikes > 0);
        let norm = result.gradients.global_norm();
        assert!(norm.is_finite());
        assert!(norm > 0.0, "gradient norm should be non-zero, got {norm}");
    }

    /// The tentpole guarantee of the event-driven training sweep: losses,
    /// logits, spike counts and every weight/bias gradient are bitwise-equal
    /// to the retained dense reference sweep — at full precision and under
    /// QAT, for direct (analog input + replay) and rate (stochastic binary
    /// input) coding.
    #[test]
    fn event_driven_sweep_bitwise_equals_dense_reference() {
        let net = small_net();
        let image = sample_image();
        let combos = [
            (Precision::Fp32, Encoder::direct(3), 2usize, 0u64),
            (Precision::Fp32, Encoder::rate(3), 5, 11),
            (Precision::Int4, Encoder::direct(2), 7, 3),
            (Precision::Int4, Encoder::rate(3), 0, 42),
        ];
        for (precision, encoder, label, seed) in combos {
            let bptt = Bptt::new(SurrogateKind::paper_default(), precision);
            let event = bptt
                .sample_gradients(&net, &image, label, &encoder, seed)
                .unwrap();
            let dense = bptt
                .sample_gradients_dense(&net, &image, label, &encoder, seed)
                .unwrap();
            let ctx = format!("{precision:?}/{encoder:?}");
            assert_eq!(event.loss.to_bits(), dense.loss.to_bits(), "loss {ctx}");
            assert_eq!(event.correct, dense.correct, "correct {ctx}");
            assert_eq!(event.total_spikes, dense.total_spikes, "spikes {ctx}");
            for (e, d) in event.logits.iter().zip(dense.logits.iter()) {
                assert_eq!(e.to_bits(), d.to_bits(), "logits {ctx}");
            }
            for (li, (eg, dg)) in event
                .gradients
                .per_layer()
                .iter()
                .zip(dense.gradients.per_layer().iter())
                .enumerate()
            {
                match (eg, dg) {
                    (None, None) => {}
                    (Some(eg), Some(dg)) => {
                        for (x, y) in eg.weight.as_slice().iter().zip(dg.weight.as_slice().iter()) {
                            assert_eq!(x.to_bits(), y.to_bits(), "weight grad {ctx} layer {li}");
                        }
                        for (x, y) in eg.bias.as_slice().iter().zip(dg.bias.as_slice().iter()) {
                            assert_eq!(x.to_bits(), y.to_bits(), "bias grad {ctx} layer {li}");
                        }
                    }
                    _ => panic!("gradient structure mismatch at layer {li} ({ctx})"),
                }
            }
        }
    }

    /// Compares two [`SampleResult`]s bit-for-bit (loss, logits, every
    /// gradient).
    fn assert_results_bitwise_eq(a: &SampleResult, b: &SampleResult, ctx: &str) {
        assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "loss {ctx}");
        assert_eq!(a.correct, b.correct, "correct {ctx}");
        assert_eq!(a.total_spikes, b.total_spikes, "spikes {ctx}");
        for (x, y) in a.logits.iter().zip(b.logits.iter()) {
            assert_eq!(x.to_bits(), y.to_bits(), "logits {ctx}");
        }
        for (li, (ga, gb)) in a
            .gradients
            .per_layer()
            .iter()
            .zip(b.gradients.per_layer().iter())
            .enumerate()
        {
            match (ga, gb) {
                (None, None) => {}
                (Some(ga), Some(gb)) => {
                    for (x, y) in ga.weight.as_slice().iter().zip(gb.weight.as_slice().iter()) {
                        assert_eq!(x.to_bits(), y.to_bits(), "weight grad {ctx} layer {li}");
                    }
                    for (x, y) in ga.bias.as_slice().iter().zip(gb.bias.as_slice().iter()) {
                        assert_eq!(x.to_bits(), y.to_bits(), "bias grad {ctx} layer {li}");
                    }
                }
                _ => panic!("gradient structure mismatch at layer {li} ({ctx})"),
            }
        }
    }

    /// One long-lived scratch reused across different samples, labels and
    /// seeds produces results bitwise identical to a fresh scratch per call —
    /// no state leaks between samples through the reused buffers.
    #[test]
    fn reused_scratch_is_bitwise_identical_to_fresh_scratch() {
        let net = small_net();
        let bptt = Bptt::new(SurrogateKind::paper_default(), Precision::Int4);
        let effective = bptt.prepare(&net).unwrap();
        let mut scratch = BpttScratch::new();
        let cases = [
            (Encoder::direct(3), 2usize, 0u64, 0.013_f32),
            (Encoder::rate(4), 7, 9, 0.029),
            (Encoder::direct(2), 0, 3, 0.041),
        ];
        for (encoder, label, seed, freq) in cases {
            let image = Tensor::from_fn(&[3, 16, 16], |i| ((i as f32) * freq).sin().abs());
            let reused = bptt
                .sample_gradients_with(
                    &net,
                    &effective,
                    &image,
                    label,
                    &encoder,
                    seed,
                    &mut scratch,
                )
                .unwrap();
            let fresh = bptt
                .sample_gradients_prepared(&net, &effective, &image, label, &encoder, seed)
                .unwrap();
            assert_results_bitwise_eq(&reused, &fresh, &format!("{encoder:?}/{label}"));
        }
    }

    /// Disabling the replayed-lowering cache must not change a single bit —
    /// the cache only skips recomputing an identical matrix.
    #[test]
    fn lowering_cache_budget_does_not_change_gradients() {
        let net = small_net();
        let image = sample_image();
        let encoder = Encoder::direct(3);
        let cached = Bptt::new(SurrogateKind::paper_default(), Precision::Fp32);
        assert!(cached.config.cache_lowerings > 0);
        let uncached = Bptt::with_config(
            SurrogateKind::paper_default(),
            Precision::Fp32,
            BpttConfig { cache_lowerings: 0 },
        );
        let a = cached
            .sample_gradients(&net, &image, 4, &encoder, 1)
            .unwrap();
        let b = uncached
            .sample_gradients(&net, &image, 4, &encoder, 1)
            .unwrap();
        assert_results_bitwise_eq(&a, &b, "cache on/off");
    }

    /// The split forward/backward entry points compose to exactly the fused
    /// path, and the backward is repeatable against one cached forward.
    #[test]
    fn forward_backward_split_matches_fused_path() {
        let net = small_net();
        let bptt = Bptt::default();
        let effective = bptt.prepare(&net).unwrap();
        let image = sample_image();
        let encoder = Encoder::direct(2);
        let mut scratch = BpttScratch::new();
        let fused = bptt
            .sample_gradients_with(&net, &effective, &image, 5, &encoder, 7, &mut scratch)
            .unwrap();
        let sweep = bptt
            .forward_sweep(&net, &effective, &image, &encoder, 7)
            .unwrap();
        let first = bptt
            .backward_sweep(&net, &effective, &sweep, 5, &mut scratch)
            .unwrap();
        let second = bptt
            .backward_sweep(&net, &effective, &sweep, 5, &mut scratch)
            .unwrap();
        assert_results_bitwise_eq(&first, &fused, "split vs fused");
        assert_results_bitwise_eq(&second, &first, "repeated backward");
        assert!(bptt
            .backward_sweep(&net, &effective, &sweep, 10, &mut scratch)
            .is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        /// Fuzzed end-to-end bit-equality: the scratch-backed event-aware
        /// sweep equals the retained dense reference for random images,
        /// labels, seeds, precisions and coding schemes.
        #[test]
        fn scratch_sweep_bitwise_equals_dense_reference(
            seed in 0_u64..1000,
            label in 0_usize..10,
            precision_idx in 0_usize..2,
            rate in any::<bool>(),
            timesteps in 1_usize..4,
            freq in 1_u32..50,
        ) {
            let net = small_net();
            let precision = [Precision::Fp32, Precision::Int4][precision_idx];
            let encoder = if rate {
                Encoder::rate(timesteps)
            } else {
                Encoder::direct(timesteps)
            };
            let image = Tensor::from_fn(&[3, 16, 16], |i| {
                ((i as f32) * (freq as f32) * 1e-3).sin().abs()
            });
            let bptt = Bptt::new(SurrogateKind::paper_default(), precision);
            let event = bptt.sample_gradients(&net, &image, label, &encoder, seed).unwrap();
            let dense = bptt
                .sample_gradients_dense(&net, &image, label, &encoder, seed)
                .unwrap();
            assert_results_bitwise_eq(&event, &dense, &format!("{precision:?}/{encoder:?}"));
        }
    }

    #[test]
    fn prepared_layers_are_shared_across_samples_identically() {
        // sample_gradients (per-call prepare) and sample_gradients_prepared
        // (batch-shared prepare) must agree exactly.
        let net = small_net();
        let bptt = Bptt::new(SurrogateKind::paper_default(), Precision::Int4);
        let effective = bptt.prepare(&net).unwrap();
        let encoder = Encoder::direct(2);
        let image = sample_image();
        let a = bptt.sample_gradients(&net, &image, 3, &encoder, 1).unwrap();
        let b = bptt
            .sample_gradients_prepared(&net, &effective, &image, 3, &encoder, 1)
            .unwrap();
        assert_eq!(a.loss.to_bits(), b.loss.to_bits());
        assert_eq!(a.logits, b.logits);
        assert_eq!(a.gradients, b.gradients);
    }

    #[test]
    fn rejects_out_of_range_label() {
        let net = small_net();
        let bptt = Bptt::default();
        assert!(bptt
            .sample_gradients(&net, &sample_image(), 10, &Encoder::direct(1), 0)
            .is_err());
    }

    #[test]
    fn qat_gradients_differ_from_fp32_but_stay_finite() {
        let net = small_net();
        let fp32 = Bptt::new(SurrogateKind::paper_default(), Precision::Fp32);
        let int4 = Bptt::new(SurrogateKind::paper_default(), Precision::Int4);
        let a = fp32
            .sample_gradients(&net, &sample_image(), 1, &Encoder::direct(2), 0)
            .unwrap();
        let b = int4
            .sample_gradients(&net, &sample_image(), 1, &Encoder::direct(2), 0)
            .unwrap();
        assert!(b.gradients.global_norm().is_finite());
        // The quantized forward sees different weights, so spike counts and
        // losses generally differ.
        assert!(a.loss.is_finite() && b.loss.is_finite());
    }

    #[test]
    fn accumulate_and_scale_combine_gradients() {
        let net = small_net();
        let bptt = Bptt::default();
        let r1 = bptt
            .sample_gradients(&net, &sample_image(), 0, &Encoder::direct(1), 0)
            .unwrap();
        let r2 = bptt
            .sample_gradients(&net, &sample_image(), 5, &Encoder::direct(1), 0)
            .unwrap();
        let mut acc = NetworkGradients::zeros_like(&net);
        acc.accumulate(&r1.gradients).unwrap();
        acc.accumulate(&r2.gradients).unwrap();
        acc.scale(0.5);
        assert!(acc.global_norm() > 0.0);
        // Scaling by zero zeroes the norm.
        let mut zeroed = acc.clone();
        zeroed.scale(0.0);
        assert_eq!(zeroed.global_norm(), 0.0);
    }

    #[test]
    fn clip_global_norm_bounds_the_norm() {
        let net = small_net();
        let bptt = Bptt::default();
        let mut r = bptt
            .sample_gradients(&net, &sample_image(), 2, &Encoder::direct(2), 0)
            .unwrap();
        r.gradients.clip_global_norm(0.01);
        assert!(r.gradients.global_norm() <= 0.011);
    }

    #[test]
    fn training_step_reduces_loss_on_single_sample() {
        // One Adam step on one sample should reduce the loss on that sample —
        // the most basic end-to-end sanity check of the gradient direction.
        use crate::optim::{Adam, Optimizer};
        let mut net = small_net();
        let bptt = Bptt::default();
        let image = sample_image();
        let encoder = Encoder::direct(2);
        let before = bptt.sample_gradients(&net, &image, 4, &encoder, 0).unwrap();
        let mut adam = Adam::new(0.01);
        let grads = before.gradients.per_layer().to_vec();
        for (li, layer) in net.layers_mut().iter_mut().enumerate() {
            if let Some(g) = &grads[li] {
                match layer {
                    Layer::Conv { conv, .. } => {
                        adam.step(&format!("{li}.w"), conv.weight_mut(), &g.weight)
                            .unwrap();
                        adam.step(&format!("{li}.b"), conv.bias_mut(), &g.bias)
                            .unwrap();
                    }
                    Layer::Linear { linear, .. } => {
                        adam.step(&format!("{li}.w"), linear.weight_mut(), &g.weight)
                            .unwrap();
                        adam.step(&format!("{li}.b"), linear.bias_mut(), &g.bias)
                            .unwrap();
                    }
                    Layer::Pool { .. } => {}
                }
            }
        }
        let after = bptt.sample_gradients(&net, &image, 4, &encoder, 0).unwrap();
        assert!(
            after.loss <= before.loss + 1e-4,
            "loss should not increase: before {} after {}",
            before.loss,
            after.loss
        );
    }
}
