//! The traced forward: one image pushed through the public per-layer calls
//! (`Conv2d::forward_plane_into`, `BatchNorm2d::forward_inplace`,
//! `LifPopulation::step_plane`, `SpikeMaxPool2d::forward_plane`,
//! `Linear::forward_plane_into`) in the order `SnnNetwork::run_with_state`
//! makes them, including the direct-coding layer-0 replay, with a span
//! recorded around every call. The logits are bitwise those of
//! `Session::run_seeded`; the benchmark checks that on every run.
//!
//! Spans are kept in memory and written out once, when the run ends.

use snn::core::encoding::{CodingScheme, Encoder};
use snn::core::layers::ConvScratch;
use snn::core::network::{Layer, LayerGeometry, LayerTrace, SnnNetwork};
use snn::core::neuron::LifPopulation;
use snn::core::spike::SpikePlane;
use snn::core::tensor::Tensor;
use snn::SnnError;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The paper's names of the twelve VGG9 stages, by position. Metric names
/// are keyed by position with these names rather than by `Layer::name()`,
/// because `vgg9_with_lif` names the three pools `MP0, MP0, MP3`.
pub const STAGES: [&str; 12] = [
    "CONV1_1", "CONV1_2", "MP1", "CONV2_1", "CONV2_2", "MP2", "CONV3_1", "CONV3_2", "CONV3_3",
    "MP3", "FC1", "FC_OUT",
];

/// Positions of the nine weight layers within [`STAGES`].
pub const WEIGHT_STAGES: [usize; 9] = [0, 1, 3, 4, 6, 7, 8, 10, 11];

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One image, from encoding to readout.
    Image,
    /// `Encoder::encode_planes_into`.
    Encode,
    /// One timestep through all twelve stages.
    Timestep,
    /// One stage at one timestep: kernel, batch norm and LIF.
    Layer,
    /// The stage's forward kernel (conv, pool or linear).
    Kernel,
    /// `BatchNorm2d::forward_inplace`.
    BatchNorm,
    /// `LifPopulation::step_plane`.
    Lif,
    /// `EstimatePlan::estimate` on the image's traces.
    Estimate,
    /// A training-step call (`prepare`, `forward_sweep`, ...).
    Train(&'static str),
}

impl SpanKind {
    fn label(self) -> &'static str {
        match self {
            SpanKind::Image => "image",
            SpanKind::Encode => "encode",
            SpanKind::Timestep => "timestep",
            SpanKind::Layer => "layer",
            SpanKind::Kernel => "kernel",
            SpanKind::BatchNorm => "bn",
            SpanKind::Lif => "lif",
            SpanKind::Estimate => "estimate",
            SpanKind::Train(name) => name,
        }
    }
}

/// Parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. `stage` is the [`STAGES`] position for stage-level
/// kinds and the timestep for [`SpanKind::Timestep`]. Layer spans carry the
/// stage's work counts at that timestep: input events, synaptic operations
/// on the event path (events × nominal fan-out) and MACs on the dense
/// fallback; a replayed layer-0 conv has both counts 0.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: SpanKind,
    pub stage: u16,
    pub image: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub events: u64,
    pub syn_ops: u64,
    pub dense_macs: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, kind: SpanKind, stage: usize, image: u32, parent: u32) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            kind,
            stage: stage as u16,
            image,
            parent,
            start_ns,
            end_ns: start_ns,
            events: 0,
            syn_ops: 0,
            dense_macs: 0,
        });
        id
    }

    pub fn close(&mut self, id: u32) {
        let end = self.now();
        self.spans[id as usize].end_ns = end;
    }

    fn set_counts(&mut self, id: u32, events: u64, syn_ops: u64, dense_macs: u64) {
        let span = &mut self.spans[id as usize];
        span.events = events;
        span.syn_ops = syn_ops;
        span.dense_macs = dense_macs;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let stage = match s.kind {
                SpanKind::Image | SpanKind::Encode | SpanKind::Estimate | SpanKind::Train(_) => {
                    String::new()
                }
                SpanKind::Timestep => format!(",\"t\":{}", s.stage),
                _ => format!(",\"stage\":\"{}\"", STAGES[s.stage as usize]),
            };
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\"{stage},\"image\":{},\"start_ns\":{},\"end_ns\":{},\"events\":{},\"syn_ops\":{},\"dense_macs\":{}}}",
                s.kind.label(),
                s.image,
                s.start_ns,
                s.end_ns,
                s.events,
                s.syn_ops,
                s.dense_macs
            )?;
        }
        out.flush()
    }
}

/// What a traced image returns: its logits and the per-layer traces the
/// accelerator estimate folds.
pub struct TracedOutput {
    pub logits: Vec<f32>,
    pub traces: Vec<LayerTrace>,
}

/// The traced forward's own run state: LIF populations, conv scratch and
/// the ping-pong planes, allocated once and reused across images.
pub struct TracedForward {
    lif: Vec<Option<LifPopulation>>,
    geometry: Vec<Option<LayerGeometry>>,
    scratch: ConvScratch,
    current: Tensor,
    first_current: Tensor,
    plane_a: SpikePlane,
    plane_b: SpikePlane,
    frames: Vec<SpikePlane>,
}

impl TracedForward {
    /// Prepares state for `network`, which must be a VGG9 whose stages match
    /// [`STAGES`] by kind.
    pub fn new(network: &SnnNetwork) -> Result<Self, SnnError> {
        let layers = network.layers();
        let kinds_match = layers.len() == STAGES.len()
            && layers.iter().zip(STAGES).all(|(layer, name)| {
                matches!(
                    (layer, &name[..2]),
                    (Layer::Conv { .. }, "CO")
                        | (Layer::Pool { .. }, "MP")
                        | (Layer::Linear { .. }, "FC")
                )
            });
        if !kinds_match {
            return Err(SnnError::config(
                "network",
                "the traced forward expects the twelve VGG9 stages",
            ));
        }
        let mut geo = network.geometry()?.into_iter();
        let geometry: Vec<Option<LayerGeometry>> = layers
            .iter()
            .map(|l| {
                if l.is_weight_layer() {
                    geo.next()
                } else {
                    None
                }
            })
            .collect();
        let lif = geometry
            .iter()
            .map(|g| {
                g.as_ref()
                    .map(|g| LifPopulation::new(g.output_neurons(), network.lif_params()))
            })
            .collect();
        Ok(TracedForward {
            lif,
            geometry,
            scratch: ConvScratch::new(),
            current: Tensor::zeros(&[0]),
            first_current: Tensor::zeros(&[0]),
            plane_a: SpikePlane::new(),
            plane_b: SpikePlane::new(),
            frames: Vec::new(),
        })
    }

    /// Runs one image, recording spans under a new image span tagged
    /// `image_id`.
    pub fn run(
        &mut self,
        network: &SnnNetwork,
        encoder: &Encoder,
        image: &Tensor,
        seed: u64,
        image_id: u32,
        tr: &mut Tracer,
    ) -> Result<TracedOutput, SnnError> {
        let TracedForward {
            lif,
            geometry,
            scratch,
            current,
            first_current,
            plane_a,
            plane_b,
            frames,
        } = self;
        for pop in lif.iter_mut().flatten() {
            pop.reset();
            pop.reset_statistics();
        }
        let layers = network.layers();
        let root = tr.open(SpanKind::Image, 0, image_id, NO_PARENT);
        let enc = tr.open(SpanKind::Encode, 0, image_id, root);
        encoder.encode_planes_into(image, seed, frames)?;
        tr.close(enc);

        let timesteps = frames.len();
        let replay_first = encoder.scheme == CodingScheme::Direct && timesteps > 1;
        let mut input_events = vec![vec![0u64; timesteps]; layers.len()];
        let mut output_spikes = vec![vec![0u64; timesteps]; layers.len()];
        let mut output_neurons = vec![0u64; layers.len()];
        let mut class_scores = vec![0.0_f32; network.num_classes()];
        let group = network.population() / network.num_classes();
        let mut src: &mut SpikePlane = plane_a;
        let mut dst: &mut SpikePlane = plane_b;
        for (t, frame) in frames.iter().enumerate() {
            let ts = tr.open(SpanKind::Timestep, t, image_id, root);
            for (li, layer) in layers.iter().enumerate() {
                let input: &SpikePlane = if li == 0 { frame } else { src };
                let events = input.count_active() as u64;
                input_events[li][t] = events;
                let ls = tr.open(SpanKind::Layer, li, image_id, ts);
                let (mut syn_ops, mut dense_macs) = (0, 0);
                match layer {
                    Layer::Conv { conv, bn, .. } => {
                        let replayed = li == 0 && replay_first && t > 0;
                        if !replayed {
                            if input.is_binary() && input.density() < conv.sparse_crossover() {
                                let k = conv.kernel() as u64;
                                syn_ops = events * conv.out_channels() as u64 * k * k;
                            } else {
                                let out = conv.output_shape(input.shape())?;
                                dense_macs = (out.iter().product::<usize>()
                                    * conv.coefficients_per_output())
                                    as u64;
                            }
                        }
                        let target: &mut Tensor = if li == 0 && replay_first {
                            &mut *first_current
                        } else {
                            &mut *current
                        };
                        if !replayed {
                            let k = tr.open(SpanKind::Kernel, li, image_id, ls);
                            conv.forward_plane_into(input, scratch, target)?;
                            tr.close(k);
                            if let Some(b) = bn {
                                let s = tr.open(SpanKind::BatchNorm, li, image_id, ls);
                                b.forward_inplace(target)?;
                                tr.close(s);
                            }
                        }
                        let pop = lif[li].as_mut().expect("weight layer has a LIF population");
                        let s = tr.open(SpanKind::Lif, li, image_id, ls);
                        output_spikes[li][t] = pop.step_plane(target, dst)? as u64;
                        tr.close(s);
                    }
                    Layer::Pool { pool, .. } => {
                        if input.is_binary() {
                            syn_ops = events;
                        } else {
                            dense_macs = input.len() as u64;
                        }
                        let k = tr.open(SpanKind::Kernel, li, image_id, ls);
                        pool.forward_plane(input, dst)?;
                        tr.close(k);
                        output_spikes[li][t] = dst.count_active() as u64;
                    }
                    Layer::Linear { linear, .. } => {
                        let replayed = li == 0 && replay_first && t > 0;
                        if !replayed {
                            if input.is_binary() {
                                syn_ops = events * linear.out_features() as u64;
                            } else {
                                dense_macs = (linear.in_features() * linear.out_features()) as u64;
                            }
                        }
                        let target: &mut Tensor = if li == 0 && replay_first {
                            &mut *first_current
                        } else {
                            &mut *current
                        };
                        if !replayed {
                            let k = tr.open(SpanKind::Kernel, li, image_id, ls);
                            linear.forward_plane_into(input, target)?;
                            tr.close(k);
                        }
                        let pop = lif[li].as_mut().expect("weight layer has a LIF population");
                        let s = tr.open(SpanKind::Lif, li, image_id, ls);
                        output_spikes[li][t] = pop.step_plane(target, dst)? as u64;
                        tr.close(s);
                    }
                }
                output_neurons[li] = dst.len() as u64;
                tr.close(ls);
                tr.set_counts(ls, events, syn_ops, dense_macs);
                std::mem::swap(&mut src, &mut dst);
            }
            // Population readout, summed exactly as the run loop sums it.
            let out = src.dense().as_slice();
            for (class, score) in class_scores.iter_mut().enumerate() {
                let start = class * group;
                let end = start + group;
                *score += out[start..end.min(out.len())].iter().sum::<f32>();
            }
            tr.close(ts);
        }
        tr.close(root);

        let traces = layers
            .iter()
            .enumerate()
            .map(|(li, layer)| LayerTrace {
                name: layer.name().to_string(),
                geometry: geometry[li].clone(),
                input_events: input_events[li].clone(),
                output_spikes: output_spikes[li].clone(),
                output_neurons: output_neurons[li],
                spikes: None,
            })
            .collect();
        Ok(TracedOutput {
            logits: class_scores,
            traces,
        })
    }
}

/// Per-stage totals folded from the spans of a traced run.
#[derive(Debug, Clone, Default)]
pub struct StageTotals {
    /// Layer-span wall time (kernel + batch norm + LIF), ns.
    pub ns: u64,
    pub events: u64,
    pub syn_ops: u64,
    pub dense_macs: u64,
}

/// Totals of a traced run, summed over all its images.
#[derive(Debug, Clone, Default)]
pub struct TraceTotals {
    pub images: u64,
    pub stages: [StageTotals; 12],
    pub lif_ns: u64,
    pub encode_ns: u64,
    pub estimate_ns: u64,
    /// Wall time of the image spans.
    pub image_ns: u64,
    /// Encode plus layer spans: the traced component sum of an image.
    pub component_ns: u64,
}

impl TraceTotals {
    /// Adds the spans of a traced run.
    pub fn add(&mut self, spans: &[Span]) {
        for s in spans {
            match s.kind {
                SpanKind::Image => {
                    self.images += 1;
                    self.image_ns += s.ns();
                }
                SpanKind::Encode => {
                    self.encode_ns += s.ns();
                    self.component_ns += s.ns();
                }
                SpanKind::Layer => {
                    let st = &mut self.stages[s.stage as usize];
                    st.ns += s.ns();
                    st.events += s.events;
                    st.syn_ops += s.syn_ops;
                    st.dense_macs += s.dense_macs;
                    self.component_ns += s.ns();
                }
                SpanKind::Lif => self.lif_ns += s.ns(),
                SpanKind::Estimate => self.estimate_ns += s.ns(),
                SpanKind::Timestep
                | SpanKind::Kernel
                | SpanKind::BatchNorm
                | SpanKind::Train(_) => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snn::core::network::{vgg9, Vgg9Config};
    use snn::{Engine, Precision};

    fn image(phase: usize) -> Tensor {
        Tensor::from_fn(&[3, 16, 16], move |i| {
            (((i + phase * 53) as f32) * 0.021).sin().abs()
        })
    }

    #[test]
    fn traced_forward_matches_run_seeded_bitwise() {
        for encoder in [Encoder::direct(2), Encoder::rate(4)] {
            let engine = Engine::builder()
                .network(vgg9(&Vgg9Config::cifar10_small()).unwrap())
                .encoder(encoder)
                .precision(Precision::Int4)
                .threads(1)
                .build()
                .unwrap();
            let mut session = engine.session();
            let mut traced = TracedForward::new(engine.network()).unwrap();
            let mut tr = Tracer::new();
            for i in 0..3 {
                let out = traced
                    .run(
                        engine.network(),
                        &encoder,
                        &image(i),
                        i as u64,
                        i as u32,
                        &mut tr,
                    )
                    .unwrap();
                let reference = session.run_seeded(&image(i), i as u64).unwrap();
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out.logits), bits(&reference.logits));
                assert_eq!(
                    engine.plan().estimate(&out.traces).unwrap(),
                    reference.hardware
                );
            }
            let mut totals = TraceTotals::default();
            totals.add(tr.spans());
            assert_eq!(totals.images, 3);
            assert!(totals.stages.iter().all(|s| s.events > 0 || s.ns > 0));
            assert!(totals.component_ns <= totals.image_ns);
        }
    }

    #[test]
    fn spans_nest_inside_their_parents() {
        let engine = Engine::builder()
            .network(vgg9(&Vgg9Config::cifar10_small()).unwrap())
            .build()
            .unwrap();
        let mut traced = TracedForward::new(engine.network()).unwrap();
        let mut tr = Tracer::new();
        traced
            .run(
                engine.network(),
                &engine.encoder(),
                &image(0),
                0,
                7,
                &mut tr,
            )
            .unwrap();
        for s in tr.spans() {
            assert_eq!(s.image, 7);
            if s.parent != NO_PARENT {
                let p = tr.spans()[s.parent as usize];
                assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
            }
        }
        // Direct coding replays CONV1_1 at t = 1: no kernel span, no work.
        let replayed = tr
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Layer && s.stage == 0)
            .nth(1)
            .unwrap();
        assert_eq!((replayed.syn_ops, replayed.dense_macs), (0, 0));
        assert!(replayed.events > 0);
    }
}
