//! **Pervasive Miner** and the **City Semantic Diagram (CSD)** — the primary
//! contribution of *"Extract Human Mobility Patterns Powered by City Semantic
//! Diagram"* (Shan, Sun, Zheng).
//!
//! The pipeline turns raw, semantics-free GPS taxi trajectories plus a POI
//! database into *fine-grained semantic mobility patterns* such as
//! `Residence -> Office` or `Office -> Supermarket`, addressing three
//! challenges: **semantic absence** (raw GPS has no tags), **semantic bias**
//! (social check-ins are topically skewed) and **semantic complexity**
//! (one location hosts many activities).
//!
//! # Pipeline
//!
//! 1. [`construct`] — build the CSD from POIs + stay-point popularity
//!    (Algorithms 1–2 and the merging step of §4.1).
//! 2. [`recognize`] — detect stay points (Definition 5) and assign each a
//!    semantic property by unit-level weighted voting (Algorithm 3).
//! 3. [`extract`] — mine fine-grained patterns with PrefixSpan + OPTICS +
//!    counterpart filtering (Algorithm 4, *CounterpartCluster*).
//!
//! [`metrics`] implements the paper's four evaluation metrics (#patterns,
//! coverage, spatial sparsity, semantic consistency — Eq. 9–12), and
//! [`params`] centralizes every threshold with the paper's defaults.
//!
//! # Quick start
//!
//! ```
//! use pm_core::prelude::*;
//! use pm_geo::LocalPoint;
//!
//! // A toy POI database: an office block and a residential block 1km apart.
//! let mut pois = Vec::new();
//! for i in 0..30 {
//!     let dx = (i % 6) as f64 * 12.0;
//!     let dy = (i / 6) as f64 * 12.0;
//!     pois.push(Poi::new(i, LocalPoint::new(dx, dy), Category::Business));
//!     pois.push(Poi::new(100 + i, LocalPoint::new(1000.0 + dx, dy), Category::Residence));
//! }
//! // Stay points visiting both blocks (8:30 commutes, one per day).
//! let day = 86_400;
//! let trajectories: Vec<SemanticTrajectory> = (0..60)
//!     .map(|d| SemanticTrajectory::new(vec![
//!         StayPoint::untagged(LocalPoint::new(1005.0, 25.0), d * day + 8 * 3600),
//!         StayPoint::untagged(LocalPoint::new(25.0, 25.0), d * day + 9 * 3600),
//!     ]))
//!     .collect();
//!
//! let params = MinerParams::default();
//! let csd = CitySemanticDiagram::build(&pois, &stay_points_of(&trajectories), &params)?;
//! assert!(csd.units().len() >= 2);
//! let recognized = recognize_all(&csd, trajectories, &params)?;
//! assert!(recognized[0].stays[0].tags.contains(Category::Residence));
//! # Ok::<(), pm_core::error::MinerError>(())
//! ```
//!
//! Both calls return `Result`: invalid [`MinerParams`] fail fast with a
//! typed [`error::MinerError`], while degenerate *data* (non-finite
//! coordinates, degenerate clusters) degrades gracefully and is reported
//! through [`construct::CitySemanticDiagram::degradations`] and the
//! `*_observed` function variants in [`recognize`] and [`extract`].

pub mod construct;
pub mod contain;
pub mod error;
pub mod extract;
pub mod metrics;
pub mod params;
pub mod popularity;
pub mod query;
pub mod recognize;
pub mod types;

/// One-stop imports for pipeline users.
pub mod prelude {
    pub use crate::construct::CitySemanticDiagram;
    pub use crate::error::{Degradation, MinerError};
    pub use crate::extract::{extract_patterns, FinePattern};
    pub use crate::metrics::{PatternMetrics, PatternSetSummary};
    pub use crate::params::MinerParams;
    pub use crate::query::PatternQuery;
    pub use crate::recognize::{recognize_all, stay_points_of};
    pub use crate::types::{
        Category, GpsPoint, GpsTrajectory, Poi, SemanticTrajectory, StayPoint, Tags, Timestamp,
    };
}

pub use prelude::*;
