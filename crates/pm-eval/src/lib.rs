//! Experiment harness: runs the paper's six approaches over the synthetic
//! corpus and regenerates every table and figure of the evaluation (§5–§6).
//!
//! - [`dataset`]: one-stop generation of city + POIs + taxi corpus +
//!   linked trajectories.
//! - [`pipeline`]: the six approaches (CSD/ROI recognition × PM/Splitter/
//!   SDBSCAN extraction), with recognition shared across extractors and
//!   parameter sweeps that re-extract without re-recognizing.
//! - [`figures`]: builders for Fig. 9 (sparsity histogram), Fig. 10
//!   (consistency box plots), Figs. 11–13 (sigma/rho/delta_t sweeps),
//!   Fig. 14 (time-of-week demonstration, airport share, hospital-vs-
//!   check-in bias), Table 1 and Table 3.
//! - [`report`]: plain-text table rendering shared by benches and examples.
//! - [`export`]: CSV writers for external plotting.
//! - [`svg`]: standalone SVG maps of the diagram and patterns (Fig. 6's
//!   medium), no plotting stack required.
//! - [`accuracy`]: recognition scoring against generator ground truth
//!   (coverage, hit rate, confusion matrix) — possible only because the
//!   substrate is synthetic.

pub mod accuracy;
pub mod dataset;
pub mod export;
pub mod figures;
pub mod pipeline;
pub mod report;
pub mod svg;

pub use dataset::Dataset;
pub use pipeline::{run_all, run_approach, Approach, Recognized};
