//! Sharded-ingest load generator: a million synthetic users through
//! `POST /v1/ingest`.
//!
//! Mines an artifact, serves it around an explicitly sharded
//! [`ShardedEngine`], then replays a fix-major synthetic stream — every
//! user dwells at a unit center for `dwell` fixes spaced `theta_t / 3`
//! apart, legs separated by a `2 * theta_t` travel gap, all users sharing
//! one base timeline with a small per-user offset so event time advances
//! batch over batch (a per-user epoch spread would blow the idle TTL).
//! One last fix per user, at the start of the next leg, closes the final
//! dwell, so every leg becomes a stay and every pair of legs a timed
//! transition. Batches are generated on the fly; nothing near the full
//! stream is ever materialized.
//!
//! Reported: sustained fixes/second plus p50/p99/p999 of the per-batch
//! round-trip latency, recorded in the `"loadgen"` section of
//! `BENCH_pipeline.json` next to the offline pipeline, serve-latency, and
//! single-engine ingest sections.
//!
//! Knobs (environment):
//! - `PM_BENCH_SMOKE=1` — quick mode: ~20k users, ~160k fixes. Anything
//!   else (or unset) runs the full 1M-user / 8M-fix stream.
//! - `PM_LOADGEN_SHARDS=<n>` — shard count (default 8).
//! - `PM_BENCH_OUT=<path>` — the report to record the section in
//!   (default: `BENCH_pipeline.json` in the current directory).

use pervasive_miner::core::recognize::stay_points_of;
use pervasive_miner::obs::{json, Obs};
use pervasive_miner::prelude::*;
use pervasive_miner::serve::{client, ServeConfig, ServeState, Server, Snapshot};
use pervasive_miner::store::Artifact;
use pervasive_miner::stream::{EngineConfig, Recognizer, ShardConfig, ShardedEngine};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

fn mine_artifact(ds: &Dataset, params: &MinerParams) -> Artifact {
    let stays = stay_points_of(&ds.trajectories);
    let csd = CitySemanticDiagram::build(&ds.pois, &stays, params).expect("build");
    let recognized = recognize_all(&csd, ds.trajectories.clone(), params).expect("recognize");
    let patterns = extract_patterns(&recognized, params).expect("extract");
    Artifact::new(csd, patterns, *params)
}

/// Nearest-rank percentile of an already sorted latency series.
fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted_ms.len() as f64).ceil() as usize;
    sorted_ms[rank.clamp(1, sorted_ms.len()) - 1]
}

fn main() {
    let smoke = std::env::var("PM_BENCH_SMOKE").is_ok_and(|v| v.trim() == "1");
    let shards: usize = std::env::var("PM_LOADGEN_SHARDS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(8);
    let out_path = pm_bench::report::out_path();
    let (ds, params, users, mode) = if smoke {
        (
            pm_bench::timing_dataset(),
            pm_bench::timing_params(),
            20_000usize,
            "smoke",
        )
    } else {
        (
            pm_bench::bench_dataset(),
            pm_bench::bench_params(),
            1_000_000usize,
            "full",
        )
    };
    let (legs, dwell) = (2usize, 4usize);
    let batch_size = 1_000usize;
    // Every leg's dwell plus one closing fix per user.
    let fixes = users * (legs * dwell + 1);
    eprintln!(
        "loadgen ({mode}): {users} users x ({legs} legs x {dwell} fixes + 1 closing fix) \
         = {fixes} fixes, {shards} shards, batches of {batch_size}"
    );

    let artifact = mine_artifact(&ds, &params);
    eprintln!("  artifact: {}", artifact.describe());
    let centers: Vec<_> = artifact.csd.units().iter().map(|u| u.center).collect();
    assert!(!centers.is_empty(), "bench city must yield units");
    let snapshot = Arc::new(Snapshot::new(artifact).expect("snapshot"));

    // An engine sized for the user population, sharded explicitly — the
    // bench pins the shard count instead of inheriting `PM_SHARDS`.
    let engine = EngineConfig {
        max_users: users + users / 5,
        max_stay_buffer: 0, // no re-mining accumulation; this measures ingest
        ..EngineConfig::from_miner(&snapshot.artifact().params)
    };
    let snap = Arc::clone(&snapshot);
    let recognize: Recognizer = Arc::new(move |pos| snap.primary_category(pos));
    let (sharded, _recovery) =
        ShardedEngine::open(ShardConfig::new(shards, engine), &recognize).expect("shard engine");
    let obs = Obs::noop();
    let state = ServeState::with_engine(Arc::clone(&snapshot), sharded).with_obs(obs.clone());
    let server = Server::bind_with_state(
        "127.0.0.1:0",
        Arc::new(state),
        ServeConfig {
            max_requests_per_conn: usize::MAX,
            ..ServeConfig::default()
        },
        obs,
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.shutdown_handle().expect("handle");
    let thread = std::thread::spawn(move || server.run());

    // Fix-major order: every user's k-th fix before anyone's (k+1)-th, so
    // one pass over the population advances event time for all shards in
    // lockstep and per-user streams stay time-ordered.
    let spacing = params.theta_t / 3;
    let leg_span = dwell as i64 * spacing + 2 * params.theta_t;
    let base = 1_000_000i64;
    let fix_at = |user: usize, leg: usize, k: usize| {
        let c = centers[(user + leg) % centers.len()];
        let t = base + leg as i64 * leg_span + k as i64 * spacing + (user % 97) as i64;
        (c.x, c.y, t)
    };

    let mut conn = client::Conn::open(addr).expect("connect");
    let (mut stays, mut transitions) = (0i64, 0i64);
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(fixes / batch_size + 1);
    let mut body = String::with_capacity(batch_size * 64);
    let mut in_batch = 0usize;
    let started = Instant::now();
    let mut flush = |body: &mut String, latencies_ms: &mut Vec<f64>| {
        body.push_str("]}");
        let sent = Instant::now();
        let (status, reply) = conn.post("/v1/ingest", body).expect("ingest");
        latencies_ms.push(sent.elapsed().as_nanos() as f64 / 1e6);
        assert_eq!(status, 200, "{reply}");
        let parsed = pervasive_miner::serve::json::parse(&reply).expect("reply JSON");
        stays += parsed.get("stays").and_then(|v| v.as_i64()).unwrap_or(0);
        transitions += parsed
            .get("transitions")
            .and_then(|v| v.as_i64())
            .unwrap_or(0);
        body.clear();
        body.push_str("{\"fixes\":[");
    };
    body.push_str("{\"fixes\":[");
    // Leg `legs` is only its first fix: the move that closes the last dwell.
    for leg in 0..=legs {
        let fixes_in_leg = if leg < legs { dwell } else { 1 };
        for k in 0..fixes_in_leg {
            for user in 0..users {
                let (x, y, t) = fix_at(user, leg, k);
                if in_batch > 0 {
                    body.push(',');
                }
                let _ = write!(
                    body,
                    "{{\"user\":\"u{user}\",\"x\":{x},\"y\":{y},\"t\":{t}}}"
                );
                in_batch += 1;
                if in_batch == batch_size {
                    flush(&mut body, &mut latencies_ms);
                    in_batch = 0;
                }
            }
        }
    }
    if in_batch > 0 {
        flush(&mut body, &mut latencies_ms);
    }
    let wall_ms = started.elapsed().as_nanos() as f64 / 1e6;
    handle.shutdown();
    thread.join().expect("server thread").expect("serve");

    let batches = latencies_ms.len() as u64;
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let (p50, p99, p999) = (
        percentile(&latencies_ms, 0.50),
        percentile(&latencies_ms, 0.99),
        percentile(&latencies_ms, 0.999),
    );
    let fixes_per_sec = if wall_ms > 0.0 {
        (fixes as f64 * 1e3 / wall_ms).round()
    } else {
        0.0
    };
    assert!(stays > 0, "the replay must emit stays");
    assert!(transitions > 0, "the replay must emit transitions");
    eprintln!(
        "  {fixes} fixes in {batches} batches: {:.1} ms total, {fixes_per_sec:.0} fixes/s, \
         batch p50 {:.3} ms / p99 {:.3} ms / p999 {:.3} ms, {stays} stays, {transitions} transitions",
        wall_ms, p50, p99, p999
    );

    let mut section = String::from("{\n    \"schema\": \"pm-bench-loadgen/1\"");
    let _ = write!(section, ",\n    \"mode\": \"{mode}\"");
    let _ = write!(section, ",\n    \"shards\": {shards}");
    let _ = write!(section, ",\n    \"users\": {users}");
    let _ = write!(section, ",\n    \"fixes\": {fixes}");
    let _ = write!(section, ",\n    \"batches\": {batches}");
    let _ = write!(section, ",\n    \"batch_size\": {batch_size}");
    let _ = write!(section, ",\n    \"wall_ms\": {}", json::millis(wall_ms));
    let _ = write!(section, ",\n    \"fixes_per_sec\": {fixes_per_sec:.0}");
    let _ = write!(section, ",\n    \"batch_p50_ms\": {}", json::millis(p50));
    let _ = write!(section, ",\n    \"batch_p99_ms\": {}", json::millis(p99));
    let _ = write!(section, ",\n    \"batch_p999_ms\": {}", json::millis(p999));
    let _ = write!(section, ",\n    \"stays\": {stays}");
    let _ = write!(section, ",\n    \"transitions\": {transitions}");
    section.push_str("\n  }");

    pm_bench::report::upsert(&out_path, &[("loadgen", &section)]);
}
