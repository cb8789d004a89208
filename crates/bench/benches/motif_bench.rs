//! Mobility-motif mining benchmark with a CI-friendly smoke mode.
//!
//! Builds a CSD, then times the batch motif path: every trajectory's stays
//! bucket into per-day unit-transition graphs, each graph canonicalizes
//! (exact permutation canonicalization, ≤8 nodes), and the population
//! distribution over canonical forms aggregates into the ranked motif
//! table — the same computation `mine --artifact` runs for its motif
//! section. The
//! timing and class counts land in the `"motifs"` section of
//! `BENCH_pipeline.json`, next to the pipeline, serve, and ingest sections.
//!
//! Knobs (environment):
//! - `PM_BENCH_SMOKE=1` — quick mode on the tiny dataset. Anything else
//!   (or unset) mines the evaluation-scale dataset.
//! - `PM_BENCH_OUT=<path>` — the report to record the section in
//!   (default: `BENCH_pipeline.json` in the current directory).

use pervasive_miner::cluster::GaussianKernel;
use pervasive_miner::core::recognize::{recognize_stay_point_unit, stay_points_of};
use pervasive_miner::motif::{DayGraphBuilder, MotifAggregator};
use pervasive_miner::obs::json;
use pervasive_miner::prelude::*;
use pervasive_miner::stream::DAY_SECS;
use std::fmt::Write as _;
use std::time::Instant;

fn main() {
    let smoke = std::env::var("PM_BENCH_SMOKE").is_ok_and(|v| v.trim() == "1");
    let out_path = pm_bench::report::out_path();
    let (ds, params, mode) = if smoke {
        (
            pm_bench::timing_dataset(),
            pm_bench::timing_params(),
            "smoke",
        )
    } else {
        (pm_bench::bench_dataset(), pm_bench::bench_params(), "full")
    };
    eprintln!(
        "motif bench ({mode}): {} trajectories over {} POIs",
        ds.trajectories.len(),
        ds.pois.len()
    );

    let stays = stay_points_of(&ds.trajectories);
    let csd = CitySemanticDiagram::build(&ds.pois, &stays, &params).expect("build");
    let kernel = GaussianKernel::new(params.r3sigma);

    // The measured region: recognition, day bucketing, canonicalization,
    // and aggregation — everything downstream of an already-built CSD.
    let started = Instant::now();
    let mut agg = MotifAggregator::new();
    for traj in &ds.trajectories {
        let mut current: Option<(i64, DayGraphBuilder)> = None;
        for sp in &traj.stays {
            let (unit, _tags, primary) = recognize_stay_point_unit(&csd, &kernel, sp.pos);
            let Some(unit) = unit else {
                continue;
            };
            let day = sp.time.div_euclid(DAY_SECS);
            match &mut current {
                Some((d, builder)) if *d == day => builder.visit(unit as u64, primary),
                slot => {
                    if let Some((_, builder)) = slot.take() {
                        agg.record(&builder.finish());
                    }
                    let mut builder = DayGraphBuilder::new();
                    builder.visit(unit as u64, primary);
                    *slot = Some((day, builder));
                }
            }
        }
        if let Some((_, builder)) = current {
            agg.record(&builder.finish());
        }
    }
    let table = agg.table();
    let build_ms = started.elapsed().as_nanos() as f64 / 1e6;

    assert!(table.total_days > 0, "the corpus must close user-days");
    assert!(!table.classes.is_empty(), "the corpus must yield classes");
    let days_per_sec = if build_ms > 0.0 {
        (table.total_days as f64 * 1e3 / build_ms).round()
    } else {
        0.0
    };
    eprintln!(
        "  {} user-days -> {} classes ({} oversize) in {:.1} ms, {days_per_sec:.0} days/s",
        table.total_days,
        table.classes.len(),
        table.oversize_days,
        build_ms
    );

    let mut section = String::from("{\n    \"schema\": \"pm-bench-motifs/1\"");
    let _ = write!(section, ",\n    \"mode\": \"{mode}\"");
    let _ = write!(
        section,
        ",\n    \"trajectories\": {}",
        ds.trajectories.len()
    );
    let _ = write!(section, ",\n    \"user_days\": {}", table.total_days);
    let _ = write!(section, ",\n    \"oversize_days\": {}", table.oversize_days);
    let _ = write!(section, ",\n    \"classes\": {}", table.classes.len());
    let _ = write!(section, ",\n    \"build_ms\": {}", json::millis(build_ms));
    let _ = write!(section, ",\n    \"days_per_sec\": {days_per_sec:.0}");
    section.push_str("\n  }");

    pm_bench::report::upsert(&out_path, &[("motifs", &section)]);
}
