//! Per-user cohort pipeline benchmark with a CI-friendly smoke mode.
//!
//! Builds a CSD, then times the batch cohort path behind the cohort
//! section of `mine --artifact`: every user's recognized stays embed into a
//! sparse semantic-unit visit/transition vector (embed rate, users/sec),
//! the population clusters into life-pattern cohorts (cluster ms), and
//! the per-user index answers similar-user queries — timed per scope, the
//! pruned cohort fast path against the exact full scan (p50/p99 ms). The
//! numbers land in the `"cohorts"` section of `BENCH_pipeline.json`,
//! next to the pipeline, serve, ingest, and motif sections.
//!
//! Knobs (environment):
//! - `PM_BENCH_SMOKE=1` — quick mode on the tiny dataset. Anything else
//!   (or unset) mines the evaluation-scale dataset.
//! - `PM_BENCH_OUT=<path>` — the report to record the section in
//!   (default: `BENCH_pipeline.json` in the current directory).

use pervasive_miner::cluster::GaussianKernel;
use pervasive_miner::cohort::{
    embed_users, CohortIndex, CohortParams, CohortTable, SimilarScope, UserStay,
};
use pervasive_miner::core::recognize::{recognize_stay_point_unit, stay_points_of};
use pervasive_miner::obs::json;
use pervasive_miner::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// `sorted` ascending; q in [0, 1].
fn quantile_ms(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).max(1) - 1;
    sorted[idx.min(sorted.len() - 1)]
}

/// Times `k_nearest` over a deterministic stride-sample of users and
/// returns the ascending per-query latencies in milliseconds.
fn query_samples(
    table: &CohortTable,
    index: &CohortIndex,
    scope: SimilarScope,
    max_queries: usize,
) -> Vec<f64> {
    let n = table.users.len();
    let stride = n.div_ceil(max_queries).max(1);
    let mut samples = Vec::new();
    for query in (0..n).step_by(stride) {
        let start = Instant::now();
        let neighbors = table.k_nearest(index, query, 10, scope);
        samples.push(start.elapsed().as_nanos() as f64 / 1e6);
        assert!(neighbors.len() <= 10);
    }
    samples.sort_by(f64::total_cmp);
    samples
}

fn main() {
    let smoke = std::env::var("PM_BENCH_SMOKE").is_ok_and(|v| v.trim() == "1");
    let out_path = pm_bench::report::out_path();
    let (ds, params, mode, max_queries) = if smoke {
        (
            pm_bench::timing_dataset(),
            pm_bench::timing_params(),
            "smoke",
            256,
        )
    } else {
        (
            pm_bench::bench_dataset(),
            pm_bench::bench_params(),
            "full",
            1024,
        )
    };
    eprintln!(
        "cohort bench ({mode}): {} trajectories over {} POIs",
        ds.trajectories.len(),
        ds.pois.len()
    );

    let stays = stay_points_of(&ds.trajectories);
    let csd = CitySemanticDiagram::build(&ds.pois, &stays, &params).expect("build");
    let kernel = GaussianKernel::new(params.r3sigma);

    // Group recognized stays per user — carded passengers by card id,
    // anonymous trajectories standing alone — the same identity rule
    // `mine` applies.
    let mut groups: BTreeMap<String, Vec<UserStay>> = BTreeMap::new();
    for (i, traj) in ds.trajectories.iter().enumerate() {
        let user = match traj.passenger {
            Some(card) => format!("card-{card}"),
            None => format!("u{i}"),
        };
        let user_stays = groups.entry(user).or_default();
        for sp in &traj.stays {
            let (unit, _tags, primary) = recognize_stay_point_unit(&csd, &kernel, sp.pos);
            if let Some(unit) = unit {
                user_stays.push(UserStay {
                    unit: unit as u64,
                    category: primary,
                    time: sp.time,
                });
            }
        }
    }
    groups.retain(|_, s| !s.is_empty());
    let groups: Vec<(String, Vec<UserStay>)> = groups.into_iter().collect();
    let cohort_params = CohortParams::default();

    // Measured region 1: embedding (users/sec).
    let started = Instant::now();
    let embeddings = embed_users(&groups, cohort_params.threads);
    let embed_ms = started.elapsed().as_nanos() as f64 / 1e6;
    let n_users = embeddings.len();
    let users_per_sec = if embed_ms > 0.0 {
        (n_users as f64 * 1e3 / embed_ms).round()
    } else {
        0.0
    };

    // Measured region 2: clustering + table assembly (ms).
    let started = Instant::now();
    let table = CohortTable::mine(embeddings, &cohort_params);
    let cluster_ms = started.elapsed().as_nanos() as f64 / 1e6;
    assert!(!table.cohorts.is_empty(), "the corpus must yield cohorts");

    // Measured region 3: similar-user queries per scope (p50/p99 ms).
    let index = CohortIndex::build(&table);
    let cohort_scope = query_samples(&table, &index, SimilarScope::Cohort, max_queries);
    let all_scope = query_samples(&table, &index, SimilarScope::All, max_queries);

    eprintln!(
        "  {} users -> {} cohorts via {}: embed {:.1} ms ({users_per_sec:.0} users/s), cluster {:.1} ms",
        n_users,
        table.cohorts.len(),
        table.method.name(),
        embed_ms,
        cluster_ms
    );
    eprintln!(
        "  similar k=10 over {} queries: cohort scope p50 {:.3} / p99 {:.3} ms, all scope p50 {:.3} / p99 {:.3} ms",
        cohort_scope.len(),
        quantile_ms(&cohort_scope, 0.50),
        quantile_ms(&cohort_scope, 0.99),
        quantile_ms(&all_scope, 0.50),
        quantile_ms(&all_scope, 0.99),
    );

    let mut section = String::from("{\n    \"schema\": \"pm-bench-cohorts/1\"");
    let _ = write!(section, ",\n    \"mode\": \"{mode}\"");
    let _ = write!(section, ",\n    \"users\": {n_users}");
    let _ = write!(section, ",\n    \"cohorts\": {}", table.cohorts.len());
    let _ = write!(section, ",\n    \"method\": \"{}\"", table.method.name());
    let _ = write!(section, ",\n    \"embed_ms\": {}", json::millis(embed_ms));
    let _ = write!(section, ",\n    \"users_per_sec\": {users_per_sec:.0}");
    let _ = write!(
        section,
        ",\n    \"cluster_ms\": {}",
        json::millis(cluster_ms)
    );
    let _ = write!(section, ",\n    \"queries\": {}", cohort_scope.len());
    for (name, samples) in [("cohort_scope", &cohort_scope), ("all_scope", &all_scope)] {
        let _ = write!(
            section,
            ",\n    \"{name}_p50_ms\": {}, \"{name}_p99_ms\": {}",
            json::millis(quantile_ms(samples, 0.50)),
            json::millis(quantile_ms(samples, 0.99)),
        );
    }
    section.push_str("\n  }");

    pm_bench::report::upsert(&out_path, &[("cohorts", &section)]);
}
