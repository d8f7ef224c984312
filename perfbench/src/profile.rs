//! The traced per-layer run shared by every workload: requests go through
//! the traced forward and, interleaved, through the untraced
//! `Session::run_seeded`, so the per-layer table, the session overhead, the
//! allocation counts, the accelerator model and the tracing overhead all
//! come from the same requests.

use crate::alloc;
use crate::forward::{SpanKind, TraceTotals, TracedForward, Tracer, STAGES, WEIGHT_STAGES};
use crate::report::{Metric, Report};
use snn::{Engine, InferenceReport, Session, SnnError, Tensor};
use std::time::Instant;

/// One model the traced run drives: its engine, an untraced session and
/// the traced forward's state.
pub struct Lane {
    pub engine: Engine,
    session: Session,
    traced: TracedForward,
}

impl Lane {
    pub fn new(engine: Engine) -> Result<Lane, SnnError> {
        let traced = TracedForward::new(engine.network())?;
        Ok(Lane {
            session: engine.session(),
            engine,
            traced,
        })
    }
}

/// One request of a traced run: which lane, the image and its encoder seed.
pub type Request<'a> = (usize, &'a Tensor, u64);

/// Everything the per-layer metrics are made of.
#[derive(Debug, Default)]
pub struct Profile {
    pub generate_ms: f64,
    pub build_ms: f64,
    pub totals: TraceTotals,
    /// Untraced `run_seeded` wall time, allocations and bytes, summed.
    session_ns: u64,
    session_allocs: u64,
    session_bytes: u64,
    /// Modeled per-layer cycles, latency and energy, summed over requests.
    cycles: [u64; 9],
    busy_ms: [f64; 9],
    latency_ms: f64,
    energy_mj: f64,
    /// Each request's modeled report from the first pass: later passes,
    /// from freshly traced spikes, must reproduce it exactly.
    first_pass: Vec<InferenceReport>,
    /// Requests whose traced logits, traced estimate or later-pass estimate
    /// differed from the reference.
    logit_mismatches: u64,
    estimate_mismatches: u64,
    repeat_mismatches: u64,
    passes: u64,
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

impl Profile {
    /// An empty profile carrying the set-up timings.
    pub fn new(generate_ms: f64, build_ms: f64) -> Profile {
        Profile {
            generate_ms,
            build_ms,
            ..Profile::default()
        }
    }

    /// Runs every request once through each lane untraced and traced to
    /// warm caches and lazily grown buffers.
    pub fn warm(lanes: &mut [Lane], requests: &[Request<'_>]) -> Result<(), SnnError> {
        let mut scratch = Tracer::new();
        for &(lane, image, seed) in requests {
            let l = &mut lanes[lane];
            l.session.run_seeded(image, seed)?;
            let encoder = l.engine.encoder();
            l.traced
                .run(l.engine.network(), &encoder, image, seed, 0, &mut scratch)?;
        }
        Ok(())
    }

    /// Runs `requests` traced and untraced, alternating which goes first,
    /// adds them to the totals and compares each against its reference:
    /// traced logits ≡ `run_seeded`, the traced estimate ≡ the session's,
    /// and the estimate ≡ the first pass's. Returns the run's spans.
    fn run(&mut self, lanes: &mut [Lane], requests: &[Request<'_>]) -> Result<Tracer, SnnError> {
        let mut tr = Tracer::new();
        for (id, &(lane, image, seed)) in requests.iter().enumerate() {
            let l = &mut lanes[lane];
            let encoder = l.engine.encoder();
            let mut untraced = |l: &mut Lane| {
                let ((out, ns), allocs, bytes) = alloc::count(|| {
                    let t = Instant::now();
                    let out = l.session.run_seeded(image, seed);
                    (out, t.elapsed().as_nanos() as u64)
                });
                self.session_ns += ns;
                self.session_allocs += allocs;
                self.session_bytes += bytes;
                out
            };
            let session_first = id % 2 == 1;
            let reference = if session_first {
                Some(untraced(l)?)
            } else {
                None
            };
            let id = id as u32;
            let out = l
                .traced
                .run(l.engine.network(), &encoder, image, seed, id, &mut tr)?;
            let span = tr.open(SpanKind::Estimate, 0, id, crate::forward::NO_PARENT);
            let hw = l.engine.plan().estimate(&out.traces)?;
            tr.close(span);
            let reference = match reference {
                Some(r) => r,
                None => untraced(l)?,
            };
            self.logit_mismatches += u64::from(bits(&out.logits) != bits(&reference.logits));
            self.estimate_mismatches += u64::from(hw != reference.hardware);
            match self.first_pass.get(id as usize) {
                Some(first) => self.repeat_mismatches += u64::from(*first != hw),
                None => self.first_pass.push(hw.clone()),
            }
            for (i, layer) in hw.layers.iter().enumerate() {
                self.cycles[i] += layer.cycles;
                self.busy_ms[i] += layer.busy_ms;
            }
            self.latency_ms += hw.latency_ms;
            self.energy_mj += hw.total_energy_mj;
        }
        self.totals.add(tr.spans());
        Ok(tr)
    }

    /// Records the requests run and the gates over all of them.
    fn record_gates(&self, report: &mut Report) {
        report.ops(self.totals.images, 0);
        report.gate("traced_logits_eq_run_seeded", self.logit_mismatches == 0);
        report.gate(
            "traced_estimate_eq_session_estimate",
            self.estimate_mismatches == 0,
        );
        report.gate(
            "accel_estimate_repeats_across_passes",
            self.passes >= 2 && self.repeat_mismatches == 0,
        );
    }

    /// Runs passes over `requests` until `budget` is spent (at least two,
    /// so that the modeled values can be compared across passes) and
    /// records the gates; returns the first pass's spans.
    pub fn run_for(
        &mut self,
        lanes: &mut [Lane],
        requests: &[Request<'_>],
        budget: std::time::Duration,
        report: &mut Report,
    ) -> Result<Tracer, SnnError> {
        let deadline = Instant::now() + budget;
        let first = self.run(lanes, requests)?;
        self.passes = 1;
        while self.passes < 2 || Instant::now() < deadline {
            self.run(lanes, requests)?;
            self.passes += 1;
        }
        self.record_gates(report);
        Ok(first)
    }

    fn per_img(&self, total: f64) -> f64 {
        total / self.totals.images.max(1) as f64
    }

    /// The per-layer metrics, in the order `BENCHMARK.json` lists them.
    pub fn metrics(&self) -> Vec<Metric> {
        let us = |ns: u64| self.per_img(ns as f64) / 1e3;
        let t = &self.totals;
        let mut m = vec![
            Metric::new("data.generate_ms", self.generate_ms, "ms"),
            Metric::new("engine.build_ms", self.build_ms, "ms"),
            Metric::new("encoding.us_per_img", us(t.encode_ns), "us"),
        ];
        for (name, st) in STAGES.iter().zip(&t.stages) {
            m.push(Metric::new(
                format!("layer.{name}.us_per_img"),
                us(st.ns),
                "us",
            ));
            m.push(Metric::new(
                format!("layer.{name}.events"),
                self.per_img(st.events as f64),
                "count",
            ));
            m.push(Metric::new(
                format!("layer.{name}.syn_ops"),
                self.per_img(st.syn_ops as f64),
                "count",
            ));
            m.push(Metric::new(
                format!("layer.{name}.dense_macs"),
                self.per_img(st.dense_macs as f64),
                "count",
            ));
        }
        let session_us = us(self.session_ns);
        let traced_us = us(t.image_ns);
        m.extend([
            Metric::new("neuron.lif_us_per_img", us(t.lif_ns), "us"),
            Metric::new(
                "session.overhead_us_per_img",
                session_us - us(t.component_ns),
                "us",
            ),
            Metric::new(
                "session.allocs_per_img",
                self.per_img(self.session_allocs as f64),
                "count",
            ),
            Metric::new(
                "session.alloc_bytes_per_img",
                self.per_img(self.session_bytes as f64),
                "B",
            ),
            Metric::new(
                "trace.overhead_pct",
                (traced_us - session_us) / session_us * 100.0,
                "%",
            ),
            Metric::new("accel.estimate_us_per_img", us(t.estimate_ns), "us"),
        ]);
        for (i, &stage) in WEIGHT_STAGES.iter().enumerate() {
            m.push(Metric::new(
                format!("accel.{}.cycles", STAGES[stage]),
                self.per_img(self.cycles[i] as f64),
                "cycles",
            ));
        }
        m.push(Metric::new(
            "accel.latency_ms",
            self.per_img(self.latency_ms),
            "model_ms",
        ));
        m.push(Metric::new(
            "accel.energy_mj",
            self.per_img(self.energy_mj),
            "mJ",
        ));
        m
    }

    /// The per-layer table: measured time beside the modeled cycles for
    /// the nine weight layers, plus the tracing overhead.
    pub fn table(&self) -> Vec<String> {
        let t = &self.totals;
        let us = |ns: u64| self.per_img(ns as f64) / 1e3;
        let mut lines = vec![format!(
            "per-layer, mean per request over {} traced requests:",
            t.images
        )];
        lines.push(format!(
            "{:<8} {:>11} {:>11} {:>13} {:>14} {:>13} {:>12}",
            "layer", "us/img", "events", "syn_ops", "dense_macs", "model_cycles", "model_ms"
        ));
        for (pos, (name, st)) in STAGES.iter().zip(&t.stages).enumerate() {
            let modeled = WEIGHT_STAGES.iter().position(|&s| s == pos).map_or_else(
                || format!("{:>13} {:>12}", "-", "-"),
                |i| {
                    format!(
                        "{:>13.0} {:>12.5}",
                        self.per_img(self.cycles[i] as f64),
                        self.per_img(self.busy_ms[i])
                    )
                },
            );
            lines.push(format!(
                "{:<8} {:>11.2} {:>11.1} {:>13.0} {:>14.0} {}",
                name,
                us(st.ns),
                self.per_img(st.events as f64),
                self.per_img(st.syn_ops as f64),
                self.per_img(st.dense_macs as f64),
                modeled
            ));
        }
        let session_us = us(self.session_ns);
        lines.push(format!(
            "traced {:.2} us/img vs untraced run_seeded {:.2} us/img: tracing overhead {:+.2}%",
            us(t.image_ns),
            session_us,
            (us(t.image_ns) - session_us) / session_us * 100.0
        ));
        lines
    }
}

/// Whether the engine's batch path (`run_batch_with_seeds`, fanned out
/// over its threads) reproduces `run_seeded` bitwise on `images`.
pub fn batch_matches(engine: &Engine, images: &[Tensor], seeds: &[u64]) -> Result<bool, SnnError> {
    let mut session = engine.session();
    let batch = session.run_batch_with_seeds(images, seeds)?;
    for ((image, &seed), report) in images.iter().zip(seeds).zip(&batch.reports) {
        if bits(&session.run_seeded(image, seed)?.logits) != bits(&report.logits) {
            return Ok(false);
        }
    }
    Ok(batch.reports.len() == images.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;

    #[test]
    fn per_layer_metric_names_are_valid_and_unique() {
        let names: Vec<String> = Profile::default()
            .metrics()
            .into_iter()
            .map(|m| m.name)
            .collect();
        for n in &names {
            assert!(valid_metric_name(n), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        assert!(names.contains(&"layer.MP1.us_per_img".to_string()));
        assert!(names.contains(&"accel.FC_OUT.cycles".to_string()));
    }
}
