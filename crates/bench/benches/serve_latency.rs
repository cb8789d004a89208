//! Query-service latency harness with a CI-friendly smoke mode.
//!
//! Mines an artifact, serves it over a real loopback socket, and times
//! complete HTTP round-trips (connect, request, response) against the three
//! read endpoints. Medians land in the `"serve"` section of
//! `BENCH_pipeline.json`, next to the pipeline bench's stages, so one JSON
//! document carries both the offline and the online performance trajectory.
//!
//! Knobs (environment):
//! - `PM_BENCH_SMOKE=1` — quick mode: tiny dataset, 25 requests per
//!   endpoint. Anything else (or unset) runs the evaluation-scale dataset
//!   with 200 requests per endpoint.
//! - `PM_BENCH_OUT=<path>` — the report to record the section in
//!   (default: `BENCH_pipeline.json` in the current directory).

use pervasive_miner::core::recognize::stay_points_of;
use pervasive_miner::obs::json;
use pervasive_miner::prelude::*;
use pervasive_miner::serve::{client, ServeConfig, Server, Snapshot};
use pervasive_miner::store::Artifact;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

struct Endpoint {
    name: &'static str,
    target: String,
    /// Per-request round-trip times in milliseconds, sorted ascending.
    samples: Vec<f64>,
}

fn median_ms(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn mine_artifact(ds: &Dataset, params: &MinerParams) -> Artifact {
    let stays = stay_points_of(&ds.trajectories);
    let csd = CitySemanticDiagram::build(&ds.pois, &stays, params).expect("build");
    let recognized = recognize_all(&csd, ds.trajectories.clone(), params).expect("recognize");
    let patterns = extract_patterns(&recognized, params).expect("extract");
    Artifact::new(csd, patterns, *params)
}

fn measure(addr: SocketAddr, endpoints: &mut [Endpoint], requests: usize) {
    for ep in endpoints.iter_mut() {
        for _ in 0..requests {
            let start = Instant::now();
            let (status, _body) = client::get(addr, &ep.target).expect("request");
            let elapsed = start.elapsed().as_nanos() as f64 / 1e6;
            assert_eq!(status, 200, "{} must answer 200", ep.target);
            ep.samples.push(elapsed);
        }
        ep.samples.sort_by(f64::total_cmp);
    }
}

/// Renders the `"serve"` section body (without a leading key).
fn section_json(mode: &str, requests: usize, endpoints: &[Endpoint]) -> String {
    let mut doc = String::from("{\n    \"schema\": \"pm-bench-serve/1\"");
    let _ = write!(doc, ",\n    \"mode\": \"{mode}\"");
    let _ = write!(doc, ",\n    \"requests\": {requests}");
    doc.push_str(",\n    \"endpoints\": [");
    for (i, ep) in endpoints.iter().enumerate() {
        doc.push_str(if i == 0 { "\n      " } else { ",\n      " });
        doc.push_str("{\"name\": ");
        json::write_str(&mut doc, ep.name);
        let _ = write!(
            doc,
            ", \"median_ms\": {}, \"min_ms\": {}, \"max_ms\": {}}}",
            json::millis(median_ms(&ep.samples)),
            json::millis(ep.samples[0]),
            json::millis(ep.samples[ep.samples.len() - 1]),
        );
    }
    doc.push_str("\n    ]\n  }");
    doc
}

fn main() {
    let smoke = std::env::var("PM_BENCH_SMOKE").is_ok_and(|v| v.trim() == "1");
    let out_path = pm_bench::report::out_path();
    let (ds, params, requests, mode) = if smoke {
        (
            pm_bench::timing_dataset(),
            pm_bench::timing_params(),
            25,
            "smoke",
        )
    } else {
        (
            pm_bench::bench_dataset(),
            pm_bench::bench_params(),
            200,
            "full",
        )
    };
    eprintln!(
        "serve bench ({mode}): {} POIs, {} trajectories, {requests} request(s) per endpoint",
        ds.pois.len(),
        ds.trajectories.len()
    );

    let artifact = mine_artifact(&ds, &params);
    eprintln!("  artifact: {}", artifact.describe());
    let center = artifact
        .csd
        .units()
        .first()
        .map(|u| u.center)
        .expect("bench city must yield at least one unit");
    let snapshot = Arc::new(Snapshot::new(artifact).expect("snapshot"));
    let server = Server::bind(
        "127.0.0.1:0",
        snapshot,
        ServeConfig::default(),
        pervasive_miner::obs::Obs::noop(),
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.shutdown_handle().expect("handle");
    let thread = std::thread::spawn(move || server.run());

    let mut endpoints = [
        Endpoint {
            name: "healthz",
            target: "/healthz".to_string(),
            samples: Vec::new(),
        },
        Endpoint {
            name: "semantic",
            target: format!("/v1/semantic?x={}&y={}", center.x, center.y),
            samples: Vec::new(),
        },
        Endpoint {
            name: "patterns",
            target: "/v1/patterns?limit=10".to_string(),
            samples: Vec::new(),
        },
    ];
    measure(addr, &mut endpoints, requests);
    handle.shutdown();
    thread.join().expect("server thread").expect("serve");

    for ep in &endpoints {
        eprintln!(
            "  {:<10} median {:.3} ms  min {:.3} ms  max {:.3} ms",
            ep.name,
            median_ms(&ep.samples),
            ep.samples[0],
            ep.samples[ep.samples.len() - 1],
        );
    }

    let section = section_json(mode, requests, &endpoints);
    pm_bench::report::upsert(&out_path, &[("serve", &section)]);
}
