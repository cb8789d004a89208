//! Whole-pipeline timing harness with a CI-friendly smoke mode.
//!
//! Times the three pipeline stages (CSD construction, semantic recognition,
//! pattern extraction) over N iterations and writes the per-stage medians to
//! `BENCH_pipeline.json` — a machine-readable document CI archives per
//! commit so the performance trajectory of the pipeline is diffable.
//!
//! Knobs (environment):
//! - `PM_BENCH_SMOKE=1` — quick mode: tiny dataset, 3 iterations, seconds of
//!   wall time. Anything else (or unset) runs the evaluation-scale dataset.
//! - `PM_BENCH_FULL=1` — run the evaluation-scale dataset and record the
//!   result as the report's `"full"` section, leaving the smoke stages and
//!   every other section in place. This is how CI keeps *both* scales
//!   tracked in one per-commit file; it takes precedence over
//!   `PM_BENCH_SMOKE`.
//! - `PM_BENCH_OUT=<path>` — the report to record the stages in (default:
//!   `BENCH_pipeline.json` in the current directory).

use pervasive_miner::core::recognize::stay_points_of;
use pervasive_miner::obs::json;
use pervasive_miner::prelude::*;
use std::fmt::Write as _;
use std::time::Instant;

struct Stage {
    name: &'static str,
    /// Per-iteration wall times in milliseconds, sorted ascending.
    samples: Vec<f64>,
}

impl Stage {
    fn median_ms(&self) -> f64 {
        let n = self.samples.len();
        if n == 0 {
            return f64::NAN;
        }
        if n % 2 == 1 {
            self.samples[n / 2]
        } else {
            (self.samples[n / 2 - 1] + self.samples[n / 2]) / 2.0
        }
    }
}

fn time_ms(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as f64 / 1e6
}

/// Times the three pipeline stages over `iters` iterations; samples come
/// back sorted ascending.
fn run_stages(ds: &Dataset, params: &MinerParams, iters: usize) -> [Stage; 3] {
    let stays = stay_points_of(&ds.trajectories);
    let mut build = Vec::new();
    let mut recognize = Vec::new();
    let mut extract = Vec::new();
    for i in 0..iters {
        let mut csd = None;
        build.push(time_ms(|| {
            csd = Some(CitySemanticDiagram::build(&ds.pois, &stays, params).expect("build"));
        }));
        let csd = csd.expect("built");
        let mut recognized = None;
        recognize.push(time_ms(|| {
            recognized =
                Some(recognize_all(&csd, ds.trajectories.clone(), params).expect("recognize"));
        }));
        let recognized = recognized.expect("recognized");
        let mut patterns = None;
        extract.push(time_ms(|| {
            patterns = Some(extract_patterns(&recognized, params).expect("extract"));
        }));
        eprintln!(
            "  iter {}: build {:.1} ms, recognize {:.1} ms, extract {:.1} ms ({} patterns)",
            i + 1,
            build[i],
            recognize[i],
            extract[i],
            patterns.expect("extracted").len()
        );
    }

    let mut stages = [
        Stage {
            name: "csd_build",
            samples: build,
        },
        Stage {
            name: "recognize",
            samples: recognize,
        },
        Stage {
            name: "extract",
            samples: extract,
        },
    ];
    for s in &mut stages {
        s.samples.sort_by(f64::total_cmp);
    }
    stages
}

/// Renders the stage array as a JSON fragment (no surrounding object).
fn stages_json(stages: &[Stage], indent: &str) -> String {
    let mut out = String::from("[");
    for (i, s) in stages.iter().enumerate() {
        let _ = write!(out, "{}{indent}  ", if i == 0 { "\n" } else { ",\n" });
        out.push_str("{\"name\": ");
        json::write_str(&mut out, s.name);
        let _ = write!(
            out,
            ", \"median_ms\": {}, \"min_ms\": {}, \"max_ms\": {}}}",
            json::millis(s.median_ms()),
            json::millis(s.samples[0]),
            json::millis(s.samples[s.samples.len() - 1]),
        );
    }
    let _ = write!(out, "\n{indent}]");
    out
}

fn main() {
    let env_on = |name: &str| std::env::var(name).is_ok_and(|v| v.trim() == "1");
    let out_path = pm_bench::report::out_path();

    if env_on("PM_BENCH_FULL") {
        // Evaluation-scale stages recorded as a `"full"` section next to
        // the (typically smoke) top-level stages.
        let (ds, params, iters) = (pm_bench::bench_dataset(), pm_bench::bench_params(), 5);
        eprintln!(
            "pipeline bench (full): {} POIs, {} trajectories, {iters} iteration(s)",
            ds.pois.len(),
            ds.trajectories.len()
        );
        let stages = run_stages(&ds, &params, iters);

        let mut section = String::from("{\n    \"schema\": \"pm-bench-pipeline-full/1\"");
        let _ = write!(section, ",\n    \"iters\": {iters}");
        let _ = write!(
            section,
            ",\n    \"stages\": {}",
            stages_json(&stages, "    ")
        );
        section.push_str("\n  }");

        pm_bench::report::upsert(&out_path, &[("full", &section)]);
        return;
    }

    let smoke = env_on("PM_BENCH_SMOKE");
    let (ds, params, iters, mode) = if smoke {
        (
            pm_bench::timing_dataset(),
            pm_bench::timing_params(),
            3,
            "smoke",
        )
    } else {
        (
            pm_bench::bench_dataset(),
            pm_bench::bench_params(),
            7,
            "full",
        )
    };
    eprintln!(
        "pipeline bench ({mode}): {} POIs, {} trajectories, {iters} iteration(s)",
        ds.pois.len(),
        ds.trajectories.len()
    );
    let stages = run_stages(&ds, &params, iters);

    let mode = format!("\"{mode}\"");
    let iters = iters.to_string();
    let stages = stages_json(&stages, "  ");
    pm_bench::report::upsert(
        &out_path,
        &[("mode", &mode), ("iters", &iters), ("stages", &stages)],
    );
}
