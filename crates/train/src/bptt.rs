//! Surrogate-gradient backpropagation through time over a whole network.
//!
//! The forward sweep is the inference loop itself:
//! [`snn_core::network::SnnNetwork::run_observed`] on the prepared
//! (quantized) network — event-driven [`SpikePlane`] frames, the
//! spike-gather and blocked dense im2col paths, and the direct-coded input
//! layer's currents computed once per image and replayed across timesteps —
//! with an observer that caches, for every layer and timestep, the layer
//! input and, for weight layers, the membrane potential after the step. So
//! the spike counts training sees are the ones inference reports. The
//! backward pass then walks the layers in reverse, and within each LIF layer
//! walks time in reverse using the standard detached-reset BPTT recursion:
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
//! inputs are cached as [`SpikePlane`]s, so below a conv's density crossover
//! (the same test the forward dispatches on) its weight gradient adds rows
//! straight from a walk of the stored planes' mask words, and only analog or
//! denser frames are lowered to im2col columns. The pool backward takes each
//! window's first spike from a word scan, a replayed direct-coded input that
//! takes the dense path is lowered once per sample and its columns reused at
//! every later timestep, the first layer's never-consumed input gradient is
//! skipped, and every intermediate lives in a long-lived [`BpttScratch`] —
//! once warm (see its doc) the backward's time loop performs zero heap
//! allocations. Conv and linear layers share one weight-layer step: the
//! recursion above, the BN scale when a conv has BN, then the layer's
//! kernel, which writes the input gradient straight into the preceding
//! layer's gradient frame for that timestep.
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
    conv2d_backward, conv2d_backward_into, conv2d_backward_reuse, linear_backward,
    linear_backward_into, pool_backward, pool_backward_into, GradScratch,
};
use crate::loss::cross_entropy;
use crate::surrogate::SurrogateKind;
use snn_core::encoding::{CodingScheme, Encoder};
use snn_core::error::SnnError;
use snn_core::network::{Layer, RunState, SnnNetwork};
use snn_core::neuron::LifPopulation;
use snn_core::quant::Precision;
use snn_core::spike::SpikePlane;
use snn_core::tensor::{argmax, Tensor};

/// Per-layer weight/bias gradients for a whole network, index-aligned with
/// [`SnnNetwork::layers`]. Pooling layers have no entry.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkGradients {
    per_layer: Vec<Option<LayerGrads>>,
}

/// Weight and bias gradients of one weight layer: a [`NetworkGradients`]
/// entry, and the buffer the [`crate::grad`] kernels write into.
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// Total spikes emitted by all LIF layers across all timesteps. The
    /// spike max-pooling layers' maps are not counted, unlike the inference
    /// total (`snn_core::network::total_output_spikes`).
    pub total_spikes: u64,
}

/// Per-layer forward cache for one sample.
struct LayerCache {
    /// Layer inputs per timestep, kept as [`SpikePlane`]s so the backward can
    /// run its event-aware kernels (the conv weight gradient's tap walk, the
    /// pool's first-spike scan) by word-scanning the stored mask words.
    inputs: Vec<SpikePlane>,
    /// Membrane potentials (at thresholding) per timestep — weight layers only.
    membranes: Vec<Tensor>,
}

/// The cached forward sweep of one sample: everything the backward pass
/// needs. [`Bptt::forward_sweep`] builds it and [`Bptt::backward_sweep`]
/// only reads it, so callers (benches, custom training loops) can measure
/// or repeat the backward pass against one fixed forward.
pub struct ForwardSweep {
    caches: Vec<LayerCache>,
    class_scores: Vec<f32>,
    total_spikes: u64,
    timesteps: usize,
    /// Whether the first layer's input is the identical frame at every
    /// timestep (direct coding with `timesteps > 1`) — on the dense path the
    /// backward then lowers it once and reuses the columns across timesteps.
    replay_first: bool,
}

/// Reusable per-worker scratch for the scratch-backed BPTT backward: the
/// layer-level [`GradScratch`], the per-timestep [`LayerGrads`] buffer the
/// weight-layer kernels write into, the membrane-gradient and carry tensors
/// of the BPTT recursion and the ping-pong per-timestep gradient frames,
/// into which the kernels write input gradients directly. Owned
/// long-lived by each trainer worker and reused across every sample it
/// processes. The backward performs **zero heap allocations per timestep**
/// once the scratch is warm: once each weight-gradient path a layer can take
/// (the event tap walk below the layer's density crossover, the dense
/// lowering above it) has run. Every buffer is sized by layer shapes, never
/// by a frame's content, so a path's buffers are warm after its first run.
#[derive(Debug, Default)]
pub struct BpttScratch {
    grad: GradScratch,
    grads: LayerGrads,
    grad_u: Tensor,
    carry: Tensor,
    grad_cur: Vec<Tensor>,
    grad_next: Vec<Tensor>,
}

impl BpttScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        BpttScratch::default()
    }
}

/// The network the QAT forward actually executes: the master network with
/// fake-quantized copies of its weight layers. Built once per batch by
/// [`Bptt::prepare`] and shared (immutably) across every sample and worker
/// thread of that batch, instead of re-cloning all weights per sample. For
/// [`Precision::Fp32`] the copies equal the master weights.
#[derive(Debug, Clone)]
pub struct EffectiveLayers {
    network: SnnNetwork,
}

impl EffectiveLayers {
    /// The layer sequence the forward sweep executes.
    pub fn layers(&self) -> &[Layer] {
        self.network.layers()
    }
}

/// Surrogate-gradient BPTT engine.
#[derive(Debug, Clone, Copy)]
pub struct Bptt {
    /// The surrogate derivative of the spike non-linearity.
    pub surrogate: SurrogateKind,
    /// Weight precision for QAT (`Fp32` disables fake-quantization).
    pub precision: Precision,
}

impl Bptt {
    /// Creates a BPTT engine.
    pub fn new(surrogate: SurrogateKind, precision: Precision) -> Self {
        Bptt {
            surrogate,
            precision,
        }
    }

    /// Builds the fake-quantized working copies of `network`'s weight layers
    /// the forward sweep executes. Hot training loops call this once per
    /// batch (weights only change at optimizer steps, between batches) and
    /// pass the result to [`Bptt::forward_sweep`] and [`Bptt::backward_sweep`]
    /// for every sample, sharing one set of quantized weights across worker
    /// threads.
    ///
    /// Each convolution's two cached filter banks are warmed here, once per
    /// batch: the transposed bank `Wᵀ`
    /// ([`snn_core::layers::Conv2d::transposed_weight`]), whose rows the
    /// event-driven forward gathers per spike tap, and the tap-major bank
    /// ([`snn_core::layers::Conv2d::tap_major_weight`]), whose rows the
    /// backward's input gradient ([`crate::grad::conv2d_input_grad_into`])
    /// reads per tap and gradient entry. So no path rebuilds a bank inside
    /// the time loop, and worker threads share each bank read-only.
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
                conv.tap_major_weight();
            }
        }
        let network = SnnNetwork::new(
            layers,
            network.lif_params(),
            network.input_shape(),
            network.num_classes(),
            network.population(),
        )?;
        Ok(EffectiveLayers { network })
    }

    /// Runs a forward and backward pass for one labelled sample, returning the
    /// loss and the parameter gradients (computed with the straight-through
    /// estimator when QAT is enabled): [`Bptt::prepare`], then
    /// [`Bptt::forward_sweep`] and [`Bptt::backward_sweep`] on a fresh
    /// [`BpttScratch`]. Hot loops prepare once per batch and keep one scratch
    /// per worker, as the trainer does. Losses, logits and gradients are
    /// **bitwise identical** to [`Bptt::sample_gradients_dense`].
    ///
    /// # Errors
    ///
    /// Propagates shape/configuration errors from the layers and encoder,
    /// and rejects a `label` outside the network's classes.
    pub fn sample_gradients(
        &self,
        network: &SnnNetwork,
        image: &Tensor,
        label: usize,
        encoder: &Encoder,
        seed: u64,
    ) -> Result<SampleResult, SnnError> {
        let effective = self.prepare(network)?;
        let sweep = self.forward_sweep(network, &effective, image, encoder, seed)?;
        self.backward_sweep(network, &effective, &sweep, label, &mut BpttScratch::new())
    }

    /// Runs the event-driven forward sweep alone, returning the cached
    /// activations/membranes for a later [`Bptt::backward_sweep`]. The sweep
    /// is [`SnnNetwork::run_observed`] on `effective`'s network (the master
    /// network's quantized copy), with an observer that caches each layer's
    /// input plane and each weight layer's post-step membrane, and counts
    /// the spikes of every LIF layer. Its caches are bitwise identical to
    /// the retained dense reference sweep's.
    ///
    /// # Errors
    ///
    /// Same as [`Bptt::sample_gradients`].
    pub fn forward_sweep(
        &self,
        _network: &SnnNetwork,
        effective: &EffectiveLayers,
        image: &Tensor,
        encoder: &Encoder,
        seed: u64,
    ) -> Result<ForwardSweep, SnnError> {
        let network = &effective.network;
        let steps = encoder.timesteps;
        let mut caches: Vec<LayerCache> = network
            .layers()
            .iter()
            .map(|layer| LayerCache {
                inputs: Vec::with_capacity(steps),
                membranes: Vec::with_capacity(if layer.is_weight_layer() { steps } else { 0 }),
            })
            .collect();
        let mut total_spikes = 0u64;
        let mut state = RunState::new(network)?;
        network.run_observed(
            image,
            encoder,
            seed,
            &mut state,
            |li, input, output, lif| {
                let cache = &mut caches[li];
                cache.inputs.push(input.clone());
                if let Some(pop) = lif {
                    let membrane = Tensor::from_vec(pop.membrane().to_vec(), output.shape())?;
                    cache.membranes.push(membrane);
                    total_spikes += output.count_active() as u64;
                }
                Ok(())
            },
        )?;
        let timesteps = state.timesteps();
        Ok(ForwardSweep {
            caches,
            class_scores: state.class_scores().to_vec(),
            total_spikes,
            timesteps,
            replay_first: encoder.scheme == CodingScheme::Direct && timesteps > 1,
        })
    }

    /// The scratch-backed production backward against a cached forward
    /// sweep: the loss, then the detached-reset reverse recursion, with every
    /// per-timestep intermediate (membrane-gradient and carry tensors, the
    /// layer gradient buffer, lowerings, matmul panel scratch, ping-pong
    /// per-timestep gradient frames) in the caller's [`BpttScratch`] and the
    /// event-aware `_into` kernels of [`crate::grad`] — after warmup the time
    /// loop performs zero heap allocations. Conv and linear layers run one
    /// step: the recursion, the BN scale when a conv has BN, then the
    /// layer's kernel, which writes the input gradient straight into the
    /// next gradient frame. The first layer's input gradient (which has no
    /// consumer) is never computed, and a replayed direct-coded input that
    /// takes the dense path is lowered at the first timestep the backward
    /// visits and its columns reused ([`conv2d_backward_reuse`]) at every
    /// other. Repeatable: the sweep is only read, so benches and custom
    /// loops can drive the backward many times against one forward.
    /// Gradients are **bitwise identical** to the dense reference backward
    /// on the same forward pass.
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
        let lif = network.lif_params();
        let (theta, beta) = (lif.threshold, lif.beta);
        let caches = &sweep.caches;
        let timesteps = sweep.timesteps;

        // ---------- Loss ----------
        let (loss, grad_logits) = cross_entropy(&sweep.class_scores, label)?;
        let prediction = argmax(&sweep.class_scores);

        let population = network.population();
        let group = population / network.num_classes();

        let BpttScratch {
            grad: gscratch,
            grads: buf,
            grad_u,
            carry,
            grad_cur,
            grad_next,
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
        for (li, layer) in effective.layers().iter().enumerate().rev() {
            let inputs = &caches[li].inputs;
            // The first layer's input gradient has no consumer (its input is
            // the encoded image), so it is skipped.
            let first = li == 0;
            if let Layer::Pool { pool, .. } = layer {
                if !first {
                    for ((input, go), gi) in
                        inputs.iter().zip(grad_cur.iter()).zip(grad_next.iter_mut())
                    {
                        pool_backward_into(pool, input, go, gscratch, gi)?;
                    }
                    std::mem::swap(grad_cur, grad_next);
                }
                continue;
            }
            let membranes = &caches[li].membranes;
            carry.reset_to(membranes[0].shape(), 0.0);
            // The membrane shape is constant across the layer's time loop, so
            // grad_u is shaped once here; every element is overwritten by the
            // derivative write below, making the one-time zero fill
            // shape-keeping only.
            grad_u.reset_to(membranes[0].shape(), 0.0);
            // A replayed input frame (direct coding) that takes the dense path
            // lowers to the same columns at every timestep: the first timestep
            // visited (the last one) lowers it into the scratch, and the
            // others reuse it.
            let replayed = sweep.replay_first
                && first
                && matches!(layer, Layer::Conv { conv, .. } if !conv.takes_event_path(&inputs[0]));
            let acc = gradients.per_layer[li]
                .as_mut()
                .expect("weight layer has grads");
            for t in (0..timesteps).rev() {
                let (input, u, go_t) = (&inputs[t], &membranes[t], &grad_cur[t]);
                if go_t.len() != u.len() {
                    return Err(SnnError::shape(u.shape(), go_t.shape(), "bptt layer grad"));
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
                let grad_input = (!first).then_some(&mut grad_next[t]);
                match layer {
                    Layer::Conv { conv, bn, .. } => {
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
                        if replayed && t + 1 < timesteps {
                            let shape = input.shape();
                            conv2d_backward_reuse(conv, shape, grad_u, gscratch, buf, grad_input)?;
                        } else {
                            conv2d_backward_into(conv, input, grad_u, gscratch, buf, grad_input)?;
                        }
                    }
                    Layer::Linear { linear, .. } => {
                        linear_backward_into(linear, input, grad_u, gscratch, buf, grad_input)?;
                    }
                    Layer::Pool { .. } => unreachable!("pools take the branch above"),
                }
                acc.weight += &buf.weight;
                acc.bias += &buf.bias;
            }
            if !first {
                std::mem::swap(grad_cur, grad_next);
            }
        }

        Ok(SampleResult {
            loss,
            logits: sweep.class_scores.clone(),
            correct: prediction == label,
            gradients,
            total_spikes: sweep.total_spikes,
        })
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
        self.backward_dense(network, &effective, forward, label)
    }

    /// Dense reference forward sweep (see [`Bptt::sample_gradients_dense`]).
    fn forward_dense(
        &self,
        network: &SnnNetwork,
        effective: &EffectiveLayers,
        image: &Tensor,
        encoder: &Encoder,
        seed: u64,
    ) -> Result<ForwardSweep, SnnError> {
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
                let current = match layer {
                    Layer::Pool { pool, .. } => {
                        x = pool.forward(&x)?;
                        continue;
                    }
                    Layer::Conv { conv, bn, .. } => {
                        let current = conv.forward(&x)?;
                        match bn {
                            Some(b) => b.forward(&current)?,
                            None => current,
                        }
                    }
                    Layer::Linear { linear, .. } => linear.forward(&x)?,
                };
                let state =
                    lif_states[li].get_or_insert_with(|| LifPopulation::new(current.len(), lif));
                let spikes = state.step_tensor(&current)?;
                caches[li].membranes.push(Tensor::from_vec(
                    state.membrane().to_vec(),
                    current.shape(),
                )?);
                total_spikes += spikes.count_nonzero() as u64;
                x = spikes;
            }
            let out = x.as_slice();
            for (class, score) in class_scores.iter_mut().enumerate() {
                let start = class * group;
                *score += out[start..(start + group).min(out.len())]
                    .iter()
                    .sum::<f32>();
            }
        }

        Ok(ForwardSweep {
            caches,
            class_scores,
            total_spikes,
            timesteps,
            replay_first: encoder.scheme == CodingScheme::Direct && timesteps > 1,
        })
    }

    /// The dense reference backward (see [`Bptt::sample_gradients_dense`]):
    /// the loss and the same detached-reset reverse recursion as
    /// [`Bptt::backward_sweep`], written with allocating tensor operations
    /// and the reference kernels of [`crate::grad`].
    fn backward_dense(
        &self,
        network: &SnnNetwork,
        effective: &EffectiveLayers,
        forward: ForwardSweep,
        label: usize,
    ) -> Result<SampleResult, SnnError> {
        let lif = network.lif_params();
        let (theta, beta) = (lif.threshold, lif.beta);
        let ForwardSweep {
            caches,
            class_scores,
            total_spikes,
            timesteps,
            ..
        } = forward;

        // ---------- Loss ----------
        let (loss, grad_logits) = cross_entropy(&class_scores, label)?;
        let prediction = argmax(&class_scores);

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

        for (li, layer) in effective.layers().iter().enumerate().rev() {
            let inputs = &caches[li].inputs;
            if let Layer::Pool { pool, .. } = layer {
                grad_out = (0..timesteps)
                    .map(|t| pool_backward(pool, inputs[t].dense(), &grad_out[t]))
                    .collect::<Result<_, _>>()?;
                continue;
            }
            let mut grad_in: Vec<Tensor> = vec![Tensor::default(); timesteps];
            let mut carry = Tensor::zeros(caches[li].membranes[0].shape());
            let acc = gradients.per_layer[li]
                .as_mut()
                .expect("weight layer has grads");
            for t in (0..timesteps).rev() {
                let u = &caches[li].membranes[t];
                // ∂L/∂u[t] = ∂L/∂s[t]·σ'(u[t]) + β·carry
                let mut grad_u = grad_out[t]
                    .reshape(u.shape())?
                    .zip_map(u, |gs, uu| gs * self.surrogate.derivative(uu, theta))?;
                grad_u += &carry.scale(beta);
                carry = grad_u.clone();
                let input = inputs[t].dense();
                let (grads, input_grad) = match layer {
                    Layer::Conv { conv, bn, .. } => {
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
                        conv2d_backward(conv, input, &grad_u)?
                    }
                    Layer::Linear { linear, .. } => linear_backward(linear, input, &grad_u)?,
                    Layer::Pool { .. } => unreachable!("pools take the branch above"),
                };
                acc.weight += &grads.weight;
                acc.bias += &grads.bias;
                grad_in[t] = input_grad;
            }
            grad_out = grad_in;
        }

        Ok(SampleResult {
            loss,
            logits: class_scores,
            correct: prediction == label,
            gradients,
            total_spikes,
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
    /// input) coding, and for direct-coded binary images: a sparse one, whose
    /// CONV1_1 weight gradient takes the event path at every timestep, and a
    /// dense one, whose replayed lowering is reused across timesteps. Two
    /// more networks cover the weight-layer step's BN branch: one with its
    /// batch norms folded away (convs without BN), and one whose BN gammas
    /// lie away from 1 (a non-unit BN scale).
    #[test]
    fn event_driven_sweep_bitwise_equals_dense_reference() {
        let net = small_net();
        let mut folded = small_net();
        folded.fold_batchnorm().unwrap();
        assert!(folded
            .layers()
            .iter()
            .all(|l| !matches!(l, Layer::Conv { bn: Some(_), .. })));
        let mut scaled = small_net();
        for layer in scaled.layers_mut() {
            if let Layer::Conv { bn: Some(b), .. } = layer {
                for (c, g) in b.gamma_mut().as_mut_slice().iter_mut().enumerate() {
                    *g = 1.5 - 0.2 * (c % 5) as f32;
                }
            }
        }
        let analog = sample_image();
        let sparse_bin = Tensor::from_fn(&[3, 16, 16], |i| f32::from(i * 7 % 10 == 3));
        let dense_bin = Tensor::from_fn(&[3, 16, 16], |i| f32::from(i * 7 % 10 < 6));
        let Layer::Conv { conv: conv1_1, .. } = &net.layers()[0] else {
            panic!("the first layer is a conv");
        };
        assert!(conv1_1.takes_event_path(&SpikePlane::from_tensor(&sparse_bin)));
        assert!(!conv1_1.takes_event_path(&SpikePlane::from_tensor(&dense_bin)));
        let combos = [
            (&net, &analog, Precision::Fp32, Encoder::direct(3), 2, 0),
            (&net, &analog, Precision::Fp32, Encoder::rate(3), 5, 11),
            (&net, &analog, Precision::Int4, Encoder::direct(2), 7, 3),
            (&net, &analog, Precision::Int4, Encoder::rate(3), 0, 42),
            (&net, &sparse_bin, Precision::Fp32, Encoder::direct(3), 4, 5),
            (&net, &sparse_bin, Precision::Int4, Encoder::direct(3), 1, 8),
            (&net, &dense_bin, Precision::Fp32, Encoder::direct(3), 6, 9),
            (&net, &dense_bin, Precision::Int4, Encoder::direct(3), 3, 13),
            (&folded, &analog, Precision::Fp32, Encoder::direct(3), 8, 17),
            (&folded, &analog, Precision::Int4, Encoder::rate(3), 9, 19),
            (&scaled, &analog, Precision::Fp32, Encoder::direct(3), 1, 23),
            (&scaled, &analog, Precision::Int4, Encoder::rate(3), 6, 29),
        ];
        for (case, (net, image, precision, encoder, label, seed)) in combos.into_iter().enumerate()
        {
            let bptt = Bptt::new(SurrogateKind::paper_default(), precision);
            let event = bptt
                .sample_gradients(net, image, label, &encoder, seed)
                .unwrap();
            let dense = bptt
                .sample_gradients_dense(net, image, label, &encoder, seed)
                .unwrap();
            let ctx = format!("case {case}: {precision:?}/{encoder:?}");
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
            let sweep = bptt
                .forward_sweep(&net, &effective, &image, &encoder, seed)
                .unwrap();
            let reused = bptt
                .backward_sweep(&net, &effective, &sweep, label, &mut scratch)
                .unwrap();
            let fresh = bptt
                .backward_sweep(&net, &effective, &sweep, label, &mut BpttScratch::new())
                .unwrap();
            assert_results_bitwise_eq(&reused, &fresh, &format!("{encoder:?}/{label}"));
        }
    }

    /// The split forward/backward entry points over one long-lived scratch
    /// compose to exactly the one-call path, and the backward is repeatable
    /// against one cached forward.
    #[test]
    fn forward_backward_split_matches_fused_path() {
        let net = small_net();
        let bptt = Bptt::default();
        let effective = bptt.prepare(&net).unwrap();
        let image = sample_image();
        let encoder = Encoder::direct(2);
        let mut scratch = BpttScratch::new();
        let fused = bptt.sample_gradients(&net, &image, 5, &encoder, 7).unwrap();
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
        // sample_gradients (per-call prepare) and the sweeps over one
        // batch-shared prepare must agree exactly.
        let net = small_net();
        let bptt = Bptt::new(SurrogateKind::paper_default(), Precision::Int4);
        let effective = bptt.prepare(&net).unwrap();
        let encoder = Encoder::direct(2);
        let image = sample_image();
        let a = bptt.sample_gradients(&net, &image, 3, &encoder, 1).unwrap();
        let sweep = bptt
            .forward_sweep(&net, &effective, &image, &encoder, 1)
            .unwrap();
        let b = bptt
            .backward_sweep(&net, &effective, &sweep, 3, &mut BpttScratch::new())
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
