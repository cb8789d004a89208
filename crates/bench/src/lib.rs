//! Shared fixtures for the figure/table regeneration benches.
//!
//! Every bench prints the regenerated rows of its paper table/figure before
//! the Criterion timing runs, so `cargo bench` output doubles as the
//! experimental record transcribed into EXPERIMENTS.md. The timing benches
//! record their sections in `BENCH_pipeline.json` through [`report`].

use pervasive_miner::prelude::*;

pub mod report;

/// Seed shared by all benches so their printed numbers refer to one world.
pub const BENCH_SEED: u64 = 2020;

/// The evaluation-scale dataset (a few seconds to generate and mine).
pub fn bench_dataset() -> Dataset {
    Dataset::generate(&CityConfig::small(BENCH_SEED))
}

/// The paper's default parameters at evaluation scale.
pub fn bench_params() -> MinerParams {
    MinerParams::default() // sigma = 50, delta_t = 60 min, rho = 0.002
}

/// A tiny dataset for the Criterion-timed kernels (milliseconds per iter).
pub fn timing_dataset() -> Dataset {
    Dataset::generate(&CityConfig::tiny(BENCH_SEED))
}

/// Tiny-scale parameters for timed kernels.
pub fn timing_params() -> MinerParams {
    MinerParams {
        sigma: 20,
        ..MinerParams::default()
    }
}
