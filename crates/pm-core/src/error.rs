//! Unified error taxonomy ([`MinerError`]) and non-fatal degradation events
//! ([`Degradation`]) for the whole pipeline.
//!
//! The design splits failure into two tiers:
//!
//! - **Errors** abort a stage and propagate as `Result<_, MinerError>`. They
//!   are reserved for conditions no reasonable recovery exists for — a
//!   nonsensical parameter set, or malformed input the caller asked us to
//!   treat strictly. Each variant names the pipeline stage that raised it so
//!   a CLI (or a log line) can say *where* a run died without parsing
//!   message text.
//! - **Degradations** record recoverable trouble the pipeline worked around:
//!   non-finite coordinates filtered out, a degenerate cluster kept unsplit,
//!   quarantined input lines. The run continues; the events are surfaced
//!   through [`CitySemanticDiagram::degradations`] and the event sinks of
//!   the `*_tracked` and `*_observed` function variants so callers can
//!   audit what was silently tolerated.
//!
//! Everything here is `std`-only: `MinerError` implements
//! [`std::error::Error`] and composes with `?` and `Box<dyn Error>` without
//! any external crates.
//!
//! [`CitySemanticDiagram::degradations`]: crate::construct::CitySemanticDiagram::degradations

use std::fmt;

/// A fatal pipeline error, tagged by the stage that raised it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MinerError {
    /// A [`MinerParams`](crate::params::MinerParams) bound violation.
    /// `field` names the offending knob (or knob group).
    Params {
        field: &'static str,
        message: String,
    },
    /// CSD construction (Algorithms 1–2 and merging) could not proceed.
    Construct { message: String },
    /// Semantic recognition (stay-point detection / Algorithm 3) could not
    /// proceed.
    Recognize { message: String },
    /// Pattern extraction (PrefixSpan / Algorithm 4) could not proceed.
    Extract { message: String },
    /// Input ingestion failed; carries the upstream I/O or parse error
    /// rendered as text so `pm-core` needs no dependency on `pm-io`.
    Ingest { message: String },
}

impl MinerError {
    /// Parameter-validation error for one named field.
    pub fn params(field: &'static str, message: impl Into<String>) -> Self {
        MinerError::Params {
            field,
            message: message.into(),
        }
    }

    /// Construction-stage error.
    pub fn construct(message: impl Into<String>) -> Self {
        MinerError::Construct {
            message: message.into(),
        }
    }

    /// Recognition-stage error.
    pub fn recognize(message: impl Into<String>) -> Self {
        MinerError::Recognize {
            message: message.into(),
        }
    }

    /// Extraction-stage error.
    pub fn extract(message: impl Into<String>) -> Self {
        MinerError::Extract {
            message: message.into(),
        }
    }

    /// Ingestion-stage error.
    pub fn ingest(message: impl Into<String>) -> Self {
        MinerError::Ingest {
            message: message.into(),
        }
    }

    /// Short machine-checkable name of the stage that raised the error.
    pub fn stage(&self) -> &'static str {
        match self {
            MinerError::Params { .. } => "params",
            MinerError::Construct { .. } => "construct",
            MinerError::Recognize { .. } => "recognize",
            MinerError::Extract { .. } => "extract",
            MinerError::Ingest { .. } => "ingest",
        }
    }
}

impl fmt::Display for MinerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MinerError::Params { field, message } => {
                write!(f, "invalid parameter `{field}`: {message}")
            }
            MinerError::Construct { message } => write!(f, "CSD construction failed: {message}"),
            MinerError::Recognize { message } => {
                write!(f, "semantic recognition failed: {message}")
            }
            MinerError::Extract { message } => write!(f, "pattern extraction failed: {message}"),
            MinerError::Ingest { message } => write!(f, "ingestion failed: {message}"),
        }
    }
}

impl std::error::Error for MinerError {}

/// A recoverable event: the pipeline hit degenerate input and fell back to a
/// defined, lossy behaviour instead of failing. Counts are per event, and
/// events of the same kind are merged by the collection helpers below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Degradation {
    /// Algorithm 2 could not split a non-fine-grained cluster (degenerate
    /// geometry such as non-finite coordinates); the cluster was kept
    /// unsplit. `members` is the cluster size.
    UnsplitCluster { members: usize },
    /// POIs with non-finite coordinates were dropped before construction.
    NonFinitePois { dropped: usize },
    /// Stay locations with non-finite coordinates were excluded from the
    /// popularity model.
    NonFiniteStayLocations { dropped: usize },
    /// Stay points left untagged during recognition because their position
    /// is non-finite (no range query is meaningful).
    UntaggedNonFiniteStays { count: usize },
    /// Raw GPS fixes with non-finite coordinates dropped before stay-point
    /// detection.
    DroppedGpsFixes { count: usize },
    /// Stays with non-finite positions skipped when building the category
    /// sequences for pattern extraction.
    SkippedExtractionStays { count: usize },
}

impl Degradation {
    /// Every kind name, in declaration order — the full taxonomy a report
    /// should list even when a run was clean.
    pub const KINDS: [&'static str; 6] = [
        "unsplit_clusters",
        "non_finite_pois",
        "non_finite_stay_locations",
        "untagged_non_finite_stays",
        "dropped_gps_fixes",
        "skipped_extraction_stays",
    ];

    /// Stable snake_case name of the event kind (the counter key used under
    /// the `degradation.` prefix in run reports).
    pub fn kind(&self) -> &'static str {
        match self {
            Degradation::UnsplitCluster { .. } => Self::KINDS[0],
            Degradation::NonFinitePois { .. } => Self::KINDS[1],
            Degradation::NonFiniteStayLocations { .. } => Self::KINDS[2],
            Degradation::UntaggedNonFiniteStays { .. } => Self::KINDS[3],
            Degradation::DroppedGpsFixes { .. } => Self::KINDS[4],
            Degradation::SkippedExtractionStays { .. } => Self::KINDS[5],
        }
    }

    /// The number of records the event covers.
    pub fn count(&self) -> usize {
        match *self {
            Degradation::UnsplitCluster { members } => members,
            Degradation::NonFinitePois { dropped } => dropped,
            Degradation::NonFiniteStayLocations { dropped } => dropped,
            Degradation::UntaggedNonFiniteStays { count } => count,
            Degradation::DroppedGpsFixes { count } => count,
            Degradation::SkippedExtractionStays { count } => count,
        }
    }
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Degradation::UnsplitCluster { members } => {
                write!(f, "kept a degenerate {members}-POI cluster unsplit")
            }
            Degradation::NonFinitePois { dropped } => {
                write!(f, "dropped {dropped} POI(s) with non-finite coordinates")
            }
            Degradation::NonFiniteStayLocations { dropped } => write!(
                f,
                "excluded {dropped} non-finite stay location(s) from the popularity model"
            ),
            Degradation::UntaggedNonFiniteStays { count } => {
                write!(f, "left {count} non-finite stay point(s) untagged")
            }
            Degradation::DroppedGpsFixes { count } => {
                write!(f, "dropped {count} non-finite GPS fix(es)")
            }
            Degradation::SkippedExtractionStays { count } => write!(
                f,
                "skipped {count} non-finite stay point(s) during extraction"
            ),
        }
    }
}

/// Tallies degradation events into `obs` under the `degradation.` prefix.
///
/// Every kind is registered (at zero) first, so a report always lists the
/// full taxonomy — a clean run shows six explicit zeros rather than an
/// absence that could mean "not instrumented".
pub fn record_degradations(obs: &pm_obs::Obs, events: &[Degradation]) {
    if !obs.is_enabled() {
        return;
    }
    for kind in Degradation::KINDS {
        obs.incr(&format!("degradation.{kind}"), 0);
    }
    for e in events {
        obs.incr(&format!("degradation.{}", e.kind()), e.count() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_stage() {
        let e = MinerError::params("alpha", "must be in (0, 1], got 2");
        assert_eq!(e.stage(), "params");
        assert!(e.to_string().contains("alpha"));
        let e = MinerError::construct("no POIs");
        assert_eq!(e.stage(), "construct");
        assert!(e.to_string().contains("construction"));
        assert_eq!(MinerError::recognize("x").stage(), "recognize");
        assert_eq!(MinerError::extract("x").stage(), "extract");
        assert_eq!(MinerError::ingest("x").stage(), "ingest");
    }

    #[test]
    fn error_is_std_error() {
        fn takes(_: &dyn std::error::Error) {}
        takes(&MinerError::extract("boom"));
        let boxed: Box<dyn std::error::Error> = Box::new(MinerError::ingest("bad line"));
        assert!(boxed.to_string().contains("ingestion"));
    }

    #[test]
    fn degradation_counts_and_summary() {
        let events = [
            Degradation::NonFinitePois { dropped: 3 },
            Degradation::UnsplitCluster { members: 7 },
        ];
        assert_eq!(events[0].count(), 3);
        assert_eq!(events[1].count(), 7);
        assert!(events[0].to_string().contains("3 POI(s)"));
        assert!(events[1].to_string().contains("7-POI cluster"));
    }
}
