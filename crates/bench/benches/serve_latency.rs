//! Query-service latency harness with a CI-friendly smoke mode.
//!
//! Mines an artifact through the one mining pass (`pm_serve::mine_artifact`,
//! so the motif and cohort endpoints answer from real tables), serves it
//! over a real loopback socket, streams a few days of live stays into it,
//! and then times HTTP round trips on one keep-alive connection: `/healthz`
//! as the transport floor, plus the eight endpoints of perfbench's `serve`
//! read mix (point lookup, patterns, similar users, user patterns, cohorts,
//! motifs, and the two live views). Each round asks every endpoint once.
//! Per-endpoint medians land in the `"serve"` section of
//! `BENCH_pipeline.json` (`pm-bench-serve/2`), next to the pipeline bench's
//! stages, so one JSON document carries both the offline and the online
//! performance trajectory.
//!
//! Knobs (environment):
//! - `PM_BENCH_SMOKE=1` — quick mode: tiny dataset, 25 rounds. Anything
//!   else (or unset) runs the evaluation-scale dataset with 200 rounds.
//! - `PM_BENCH_OUT=<path>` — the report to record the section in
//!   (default: `BENCH_pipeline.json` in the current directory).

use pervasive_miner::cohort::CohortParams;
use pervasive_miner::obs::json;
use pervasive_miner::prelude::*;
use pervasive_miner::serve::{client, mine_artifact, ServeConfig, Server, Snapshot};
use std::fmt::Write as _;
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

/// Three stays a day for three days per user, cycling over unit centers,
/// so the live window holds transitions and closed user-days.
fn live_stays_body(centers: &[LocalPoint], users: usize) -> String {
    let mut body = String::from("{\"stays\":[");
    let mut first = true;
    for day in 0..3i64 {
        for hour in [8i64, 13, 19] {
            for u in 0..users {
                let c = centers[(u + (day * 3 + hour) as usize) % centers.len()];
                let t = 19_675 * 86_400 + day * 86_400 + hour * 3_600 + u as i64;
                if !first {
                    body.push(',');
                }
                first = false;
                let _ = write!(
                    body,
                    "{{\"user\":\"live-{u}\",\"x\":{},\"y\":{},\"t\":{t}}}",
                    c.x, c.y
                );
            }
        }
    }
    body.push_str("]}");
    body
}

/// Renders the `"serve"` section body (without a leading key).
fn section_json(mode: &str, rounds: usize, endpoints: &[Endpoint]) -> String {
    let mut doc = String::from("{\n    \"schema\": \"pm-bench-serve/2\"");
    let _ = write!(doc, ",\n    \"mode\": \"{mode}\"");
    let _ = write!(doc, ",\n    \"rounds\": {rounds}");
    doc.push_str(",\n    \"connection\": \"keep-alive\"");
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
    let (ds, params, rounds, mode) = if smoke {
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
        "serve bench ({mode}): {} POIs, {} trajectories, {rounds} round(s) over 9 endpoints",
        ds.pois.len(),
        ds.trajectories.len()
    );

    let corpus = ds
        .trajectories
        .into_iter()
        .enumerate()
        .map(|(i, traj)| (format!("rider-{i}"), traj))
        .collect();
    let artifact = mine_artifact(
        &ds.pois,
        corpus,
        &params,
        &CohortParams::default(),
        &Obs::noop(),
    )
    .expect("mine");
    eprintln!("  artifact: {}", artifact.describe());
    let centers: Vec<LocalPoint> = artifact.csd.units().iter().map(|u| u.center).collect();
    let center = *centers
        .first()
        .expect("bench city must yield at least one unit");
    let table = artifact.cohorts.as_ref().expect("the pass mines cohorts");
    // A member of the largest cohort, so the similar-user search scans the
    // biggest candidate set the cohort scope has.
    let user = table
        .users
        .iter()
        .find(|u| u.cohort == 0)
        .expect("cohort 0 has a member")
        .user
        .clone();
    let snapshot = Arc::new(Snapshot::new(artifact).expect("snapshot"));
    let server = Server::bind(
        "127.0.0.1:0",
        snapshot,
        ServeConfig {
            max_requests_per_conn: usize::MAX,
            ..ServeConfig::default()
        },
        Obs::noop(),
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.shutdown_handle().expect("handle");
    let thread = std::thread::spawn(move || server.run());

    let mut conn = client::Conn::open(addr).expect("connect");
    let (status, reply) = conn
        .post("/v1/ingest", &live_stays_body(&centers, 60))
        .expect("ingest");
    assert_eq!(status, 200, "{reply}");

    let endpoint = |name, target: String| Endpoint {
        name,
        target,
        samples: Vec::new(),
    };
    let mut endpoints = [
        endpoint("healthz", "/healthz".into()),
        endpoint(
            "semantic",
            format!("/v1/semantic?x={}&y={}", center.x, center.y),
        ),
        endpoint("patterns", "/v1/patterns?limit=10".into()),
        endpoint("user_similar", format!("/v1/users/{user}/similar?k=10")),
        endpoint("user_patterns", format!("/v1/users/{user}/patterns")),
        endpoint("cohorts", "/v1/cohorts".into()),
        endpoint("motifs", "/v1/motifs?top=20".into()),
        endpoint("live_patterns", "/v1/live/patterns".into()),
        endpoint("live_motifs", "/v1/live/motifs".into()),
    ];
    for _ in 0..rounds {
        for ep in endpoints.iter_mut() {
            let start = Instant::now();
            let (status, body) = conn.get(&ep.target).expect("request");
            ep.samples.push(start.elapsed().as_nanos() as f64 / 1e6);
            assert_eq!(status, 200, "{} must answer 200: {body}", ep.target);
        }
    }
    drop(conn);
    handle.shutdown();
    thread.join().expect("server thread").expect("serve");

    for ep in endpoints.iter_mut() {
        ep.samples.sort_by(f64::total_cmp);
        eprintln!(
            "  {:<14} median {:.3} ms  min {:.3} ms  max {:.3} ms",
            ep.name,
            median_ms(&ep.samples),
            ep.samples[0],
            ep.samples[ep.samples.len() - 1],
        );
    }

    let section = section_json(mode, rounds, &endpoints);
    pm_bench::report::upsert(&out_path, &[("serve", &section)]);
}
