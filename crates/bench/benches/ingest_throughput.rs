//! Streaming-ingest throughput harness with a CI-friendly smoke mode.
//!
//! Mines an artifact, serves it, then replays synthetic per-user fix
//! streams through `POST /v1/ingest` on a keep-alive connection — users
//! dwell at unit centers long enough to trigger Definition 5, so the
//! measured path covers transport ordering, incremental detection,
//! recognition against the snapshot, and the transition window. The stream
//! is replayed several times on the same server, each time under fresh
//! user ids so no fix is quarantined as out of order; the median replay's
//! fixes/second, with the slowest and fastest, lands in the `"ingest"`
//! section of `BENCH_pipeline.json`, next to the offline pipeline and serve
//! latency sections.
//!
//! Knobs (environment):
//! - `PM_BENCH_SMOKE=1` — quick mode: tiny dataset, 768 fixes replayed 25
//!   times. Anything else (or unset) replays the evaluation-scale dataset's
//!   9,600 fixes 5 times.
//! - `PM_BENCH_OUT=<path>` — the report to record the section in
//!   (default: `BENCH_pipeline.json` in the current directory).

use pervasive_miner::core::recognize::stay_points_of;
use pervasive_miner::obs::json;
use pervasive_miner::prelude::*;
use pervasive_miner::serve::{client, ServeConfig, Server, Snapshot};
use pervasive_miner::store::Artifact;
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

/// One user's synthetic stream: dwell legs at successive unit centers,
/// `dwell` fixes each at `theta_t / 3` spacing (long enough for a stay),
/// separated by a `2 * theta_t` travel gap that breaks the dwell.
fn user_fixes(
    user: usize,
    legs: usize,
    dwell: usize,
    centers: &[pervasive_miner::geo::LocalPoint],
    params: &MinerParams,
) -> Vec<(f64, f64, i64)> {
    let mut out = Vec::with_capacity(legs * dwell);
    let mut t = 1_000 * user as i64;
    for leg in 0..legs {
        let c = centers[(user + leg) % centers.len()];
        for _ in 0..dwell {
            t += params.theta_t / 3;
            out.push((c.x, c.y, t));
        }
        t += params.theta_t * 2;
    }
    out
}

fn main() {
    let smoke = std::env::var("PM_BENCH_SMOKE").is_ok_and(|v| v.trim() == "1");
    let out_path = pm_bench::report::out_path();
    let (ds, params, users, legs, replays, mode) = if smoke {
        (
            pm_bench::timing_dataset(),
            pm_bench::timing_params(),
            24,
            4,
            25,
            "smoke",
        )
    } else {
        (
            pm_bench::bench_dataset(),
            pm_bench::bench_params(),
            80,
            15,
            5,
            "full",
        )
    };
    let dwell = 8usize;
    let batch_size = 400usize;
    eprintln!(
        "ingest bench ({mode}): {users} users x {legs} legs x {dwell} fixes, batches of {batch_size}, {replays} replays"
    );

    let artifact = mine_artifact(&ds, &params);
    eprintln!("  artifact: {}", artifact.describe());
    let centers: Vec<_> = artifact.csd.units().iter().map(|u| u.center).collect();
    assert!(!centers.is_empty(), "bench city must yield units");
    let snapshot = Arc::new(Snapshot::new(artifact).expect("snapshot"));
    let server = Server::bind(
        "127.0.0.1:0",
        snapshot,
        ServeConfig {
            max_requests_per_conn: usize::MAX,
            ..ServeConfig::default()
        },
        pervasive_miner::obs::Obs::noop(),
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.shutdown_handle().expect("handle");
    let thread = std::thread::spawn(move || server.run());

    // Interleave users round-robin, one leg at a time — the realistic shape
    // where every batch carries many users' partial streams.
    let streams: Vec<Vec<(f64, f64, i64)>> = (0..users)
        .map(|u| user_fixes(u, legs, dwell, &centers, &params))
        .collect();
    let mut records: Vec<(usize, (f64, f64, i64))> = Vec::new();
    for leg in 0..legs {
        for (u, fixes) in streams.iter().enumerate() {
            for &f in &fixes[leg * dwell..(leg + 1) * dwell] {
                records.push((u, f));
            }
        }
    }

    let mut conn = client::Conn::open(addr).expect("connect");
    let fixes = records.len();
    let batches = fixes.div_ceil(batch_size);
    // Per replay: (wall ms, stays, transitions). Every replay streams the
    // same fixes under its own user ids, so each one must close the same
    // stays and transitions.
    let mut runs: Vec<(f64, i64, i64)> = Vec::with_capacity(replays);
    for replay in 0..replays {
        let (mut stays, mut transitions) = (0i64, 0i64);
        let started = Instant::now();
        for chunk in records.chunks(batch_size) {
            let mut body = String::from("{\"fixes\":[");
            for (i, (u, (x, y, t))) in chunk.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                let _ = write!(
                    body,
                    "{{\"user\":\"r{replay}u{u}\",\"x\":{x},\"y\":{y},\"t\":{t}}}"
                );
            }
            body.push_str("]}");
            let (status, reply) = conn.post("/v1/ingest", &body).expect("ingest");
            assert_eq!(status, 200, "{reply}");
            let parsed = pervasive_miner::serve::json::parse(&reply).expect("reply JSON");
            let count = |key: &str| parsed.get(key).and_then(|v| v.as_i64()).unwrap_or(0);
            assert_eq!(count("accepted"), chunk.len() as i64, "{reply}");
            stays += count("stays");
            transitions += count("transitions");
        }
        runs.push((
            started.elapsed().as_nanos() as f64 / 1e6,
            stays,
            transitions,
        ));
    }
    handle.shutdown();
    thread.join().expect("server thread").expect("serve");

    let (_, stays, transitions) = runs[0];
    assert!(stays > 0, "the replay must emit stays");
    assert!(
        runs.iter().all(|&(_, s, t)| (s, t) == (stays, transitions)),
        "every replay must close the same stays and transitions: {runs:?}"
    );
    // Guard the denominator: a sub-microsecond wall clock (tiny corpus, or a
    // timer that failed to advance) would turn the naive division into
    // infinity, and the old `as u64` cast silently saturated it into a
    // nonsense 18-quintillion rate. Report a rounded rate, 0 when the
    // elapsed time is too small to support one.
    let rate = |wall_ms: f64| {
        if wall_ms > 0.0 {
            (fixes as f64 * 1e3 / wall_ms).round()
        } else {
            0.0
        }
    };
    let mut walls: Vec<f64> = runs.iter().map(|&(wall, _, _)| wall).collect();
    walls.sort_by(f64::total_cmp);
    let wall_ms = walls[walls.len() / 2];
    let fixes_per_sec = rate(wall_ms);
    let (slowest, fastest) = (rate(walls[walls.len() - 1]), rate(walls[0]));
    eprintln!(
        "  {fixes} fixes in {batches} batches x {replays} replays: median {wall_ms:.1} ms, \
         {fixes_per_sec:.0} fixes/s [{slowest:.0}, {fastest:.0}], {stays} stays, {transitions} transitions each"
    );

    let mut section = String::from("{\n    \"schema\": \"pm-bench-ingest/2\"");
    let _ = write!(section, ",\n    \"mode\": \"{mode}\"");
    let _ = write!(section, ",\n    \"replays\": {replays}");
    let _ = write!(section, ",\n    \"fixes\": {fixes}");
    let _ = write!(section, ",\n    \"batches\": {batches}");
    let _ = write!(section, ",\n    \"wall_ms\": {}", json::millis(wall_ms));
    let _ = write!(section, ",\n    \"fixes_per_sec\": {fixes_per_sec:.0}");
    let _ = write!(section, ",\n    \"fixes_per_sec_min\": {slowest:.0}");
    let _ = write!(section, ",\n    \"fixes_per_sec_max\": {fastest:.0}");
    let _ = write!(section, ",\n    \"stays\": {stays}");
    let _ = write!(section, ",\n    \"transitions\": {transitions}");
    section.push_str("\n  }");

    pm_bench::report::upsert(&out_path, &[("ingest", &section)]);
}
