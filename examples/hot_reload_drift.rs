//! Operating a two-model zoo: spike-rate drift detection and validated
//! hot-reload, end to end.
//!
//! The walkthrough registers two models behind one HTTP endpoint, lets the
//! `cifar` model calibrate its per-layer spike-rate baseline on dim
//! traffic, injects a synthetic distribution shift (bright, dense images)
//! until `/healthz` flips the model to `degraded`, then hot-swaps the
//! known-good checkpoint back in — golden-probe validated, atomic, and the
//! health flag clears as the tracker recalibrates.
//!
//! Run with: `cargo run --release --example hot_reload_drift`

use snn::core::io::Checkpoint;
use snn::core::network::{vgg9, Vgg9Config};
use snn::core::stats::DriftConfig;
use snn::serve::{
    DriftPolicy, HttpServer, InferenceRequest, ModelZoo, ProbeSpec, ServeConfig, ZooConfig,
};
use snn::{Encoder, Engine, Precision, Tensor};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn engine(precision: Precision) -> Result<Engine, snn::SnnError> {
    Engine::builder()
        .network(vgg9(&Vgg9Config::cifar10_small())?)
        .encoder(Encoder::direct(2))
        .precision(precision)
        .hardware_allocation("zoo-demo", &[1, 4, 2, 4, 2, 4, 4, 2, 1])
        .threads(1)
        .build()
}

/// Calibration-era traffic: dim images, sparse activity.
fn dim_image(i: u64) -> Tensor {
    Tensor::from_fn(&[3, 16, 16], move |p| {
        (((p as u64 + 97 * i) as f32) * 0.013).sin().abs() * 0.05
    })
}

/// The injected shift: bright, dense images — every layer spikes harder.
fn bright_image(i: u64) -> Tensor {
    Tensor::from_fn(&[3, 16, 16], move |p| {
        0.5 + (((p as u64 + 31 * i) as f32) * 0.017).sin().abs()
    })
}

/// What `curl http://<addr>/healthz` would print.
fn healthz(addr: std::net::SocketAddr) -> std::io::Result<String> {
    let mut conn = TcpStream::connect(addr)?;
    conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: zoo\r\nConnection: close\r\n\r\n")?;
    let mut response = String::new();
    conn.read_to_string(&mut response)?;
    let status = response.lines().next().unwrap_or("").to_string();
    let body = response
        .split("\r\n\r\n")
        .nth(1)
        .unwrap_or("")
        .trim()
        .to_string();
    Ok(format!("{status} | {body}"))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Two models, one endpoint. The drift window is kept small so the
    //    walkthrough flips states in tens of requests.
    let cifar = engine(Precision::Fp32)?;
    let mnist = engine(Precision::Int4)?;
    let config = || ZooConfig {
        serve: ServeConfig {
            max_batch: 4,
            max_delay: Duration::from_millis(2),
            ..ServeConfig::default()
        },
        drift: DriftConfig {
            calibration: 16,
            window: 32,
            min_window: 16,
            threshold: 0.3,
        },
        drift_policy: DriftPolicy::Annotate,
        probes: vec![ProbeSpec::sanity(dim_image(999), 7, 10)],
        retain: Some(1),
    };
    let zoo = ModelZoo::new();
    zoo.register("cifar", "v1", cifar.clone(), config())?;
    zoo.register("mnist", "v1", mnist, config())?;

    // The known-good weights, checkpointed through the CRC-verified io
    // path — this is what an operator swaps back in when drift strikes.
    let mut ckpt = std::env::temp_dir();
    ckpt.push(format!("snn-zoo-demo-{}.ckpt", std::process::id()));
    Checkpoint::new(cifar.network().clone()).save(&ckpt)?;
    zoo.record_golden("cifar")?;

    let server = HttpServer::bind(zoo.clone(), "127.0.0.1:0")?;
    let addr = server.local_addr();
    println!("zoo serving at http://{addr}");
    println!("  curl http://{addr}/healthz");
    println!("  curl http://{addr}/v1/stats");
    println!("  curl -d '{{\"shape\":[3,16,16],\"data\":[...],\"model\":\"cifar\"}}' http://{addr}/v1/infer\n");

    // 2. Calibration: the tracker freezes its per-layer baseline after 16
    //    runs, then fills the sliding window on the same distribution.
    for i in 0..48u64 {
        zoo.infer(InferenceRequest::seeded(dim_image(i), i).with_model("cifar"))?;
    }
    println!("after calibration   {}", healthz(addr)?);

    // 3. The shift: bright traffic multiplies per-layer spike rates. The
    //    windowed distribution diverges from the baseline and the model
    //    flips to degraded (responses now carry \"degraded\": true).
    for i in 0..32u64 {
        let (_, degraded) =
            zoo.infer_annotated(InferenceRequest::seeded(bright_image(i), i).with_model("cifar"))?;
        if degraded {
            println!("degraded after {} shifted requests", i + 1);
            break;
        }
    }
    println!("after shift         {}", healthz(addr)?);
    let stats = zoo.stats();
    let m = &stats.models["cifar"];
    println!(
        "drift verdict: kl={:.3} layer={} (threshold 0.3)\n",
        m.drift_kl,
        m.drift_layer.as_deref().unwrap_or("-")
    );

    // 4. Recovery: hot-swap the known-good checkpoint back. The candidate
    //    must pass the recorded golden probes bitwise before the atomic,
    //    epoch-pinned swap; the tracker recalibrates and the flag clears.
    zoo.load_with("cifar", "v2", &ckpt, |c| cifar.with_network(c.network))?;
    println!("after hot-swap      {}", healthz(addr)?);
    println!(
        "cifar now at version {} ({} swap, {} validation failures)",
        zoo.stats().models["cifar"].version,
        zoo.stats().models["cifar"].swaps,
        zoo.stats().models["cifar"].validation_failures,
    );

    server.shutdown();
    let _ = std::fs::remove_file(ckpt);
    Ok(())
}
