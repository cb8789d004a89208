//! # pm-cohort — the per-user pattern layer
//!
//! Everything the stack serves below this crate is population-level: the
//! CSD's semantic units, the pattern set, the motif table. pm-cohort adds
//! the per-user layer on top, following the life-pattern clustering of
//! Li et al. (arXiv:2104.11968) and the similar-individual retrieval of
//! Andrade & Gama (arXiv:1904.09357), but embedding over CSD semantic
//! units instead of POI grids:
//!
//! - [`embed`]: each user's recognized stay sequence becomes a sparse
//!   L2-normalized vector over semantic-unit visits/transitions plus a
//!   sparse category-transition profile, with cosine (L2) and Jaccard
//!   similarity kernels.
//! - [`cluster`]: users partition into **life-pattern cohorts** over their
//!   category profiles — seeded, byte-deterministic K-Means
//!   ([`pm_cluster::ndim`]) in bulk, Mean Shift fallback for small
//!   populations — with canonical (size-desc) cohort ids.
//! - [`table`]: the frozen [`CohortTable`] artifact — sorted user records,
//!   cohort aggregates, and the exact-scan k-nearest-similar-users search
//!   with per-cohort candidate pruning as the fast path.
//!
//! ## k-anonymity
//!
//! The table carries a `k_min` floor. Renderers (CLI, pm-serve) must route
//! every cohort- or neighborhood-level aggregate through
//! [`CohortTable::suppressed`] and replace too-small groups with an
//! explicit `suppressed` marker — never silently drop them. The floor is
//! part of the mined artifact, so suppression decisions are reproducible
//! wherever the table is served.
//!
//! std-only, like the rest of the workspace; determinism is the contract —
//! the same corpus and parameters yield byte-identical tables at any
//! `PM_THREADS` setting.

pub mod cluster;
pub mod embed;
pub mod table;

pub use cluster::{
    assign_cohorts, ClusterMethod, CohortParams, DEFAULT_K_MIN, DEFAULT_SMALL_POPULATION,
};
pub use embed::{
    cosine_sparse, embed_user, embed_users, jaccard_keys, similarity, similarity_sparse,
    transition_key, visit_key, UserEmbedding, UserStay, PROFILE_DIMS,
};
pub use table::{
    Cohort, CohortIndex, CohortTable, Neighbor, SimilarScope, UserRecord, TOP_UNITS_CAP,
};
