//! Clustering substrate for the Pervasive Miner stack.
//!
//! The paper leans on four classical clustering algorithms, none of which it
//! re-derives; all are implemented here from scratch:
//!
//! - [`mod@dbscan`]: density-based clustering — the backbone of the ROI baseline
//!   (hot-region detection, ref \[21\]) and of the SDBSCAN competitor
//!   (ref \[19\]).
//! - [`optics`]: OPTICS ordering (Ankerst et al., ref \[27\]) with automatic
//!   threshold extraction, used by Algorithm 4 (*CounterpartCluster*) to
//!   cluster the k-th stay points of each coarse pattern.
//! - [`meanshift`]: Mean Shift mode seeking (Comaniciu & Meer, ref \[25\]),
//!   the refinement step of the Splitter competitor (ref \[17\]).
//! - [`ndim`]: K-Means with k-means++ seeding (mentioned in ref \[21\]'s
//!   hybrid annotation algorithm) and Mean Shift over N-dimensional rows —
//!   planar points at `dims = 2`, pm-cohort's user-embedding profiles at
//!   240.
//!
//! [`kernel`] holds the Gaussian distribution coefficient of the paper's
//! Eq. 2, shared by popularity estimation and semantic recognition.

pub mod dbscan;
pub mod kernel;
#[cfg(test)]
mod kmeans;
pub mod meanshift;
pub mod ndim;
pub(crate) mod neighborhoods;
pub mod optics;

pub use dbscan::{dbscan, DbscanParams};
pub use kernel::{gaussian_coeff, GaussianKernel};
pub use meanshift::{mean_shift, MeanShiftParams, MeanShiftResult};
pub use ndim::{
    kmeans_nd, mean_shift_nd, KMeansNdParams, KMeansNdResult, MeanShiftNdParams, MeanShiftNdResult,
};
pub use optics::{Optics, OpticsParams, OpticsScratch};

use pm_geo::LocalPoint;

/// Whether a point has finite coordinates on both axes.
pub(crate) fn is_finite_point(p: &LocalPoint) -> bool {
    p.x.is_finite() && p.y.is_finite()
}

/// Splits `points` into its finite subset plus, per kept point, the original
/// index. Returns `None` when every point is finite — the common case — so
/// callers can skip the copy and run on the original slice.
///
/// NaN and infinite coordinates poison both distance comparisons and the
/// spatial index extent, so every algorithm in this crate masks them out up
/// front and reports the affected points as noise (`None` label); finite
/// points are clustered exactly as they would be without the corrupt ones.
pub(crate) fn finite_subset(points: &[LocalPoint]) -> Option<(Vec<LocalPoint>, Vec<usize>)> {
    if points.iter().all(is_finite_point) {
        return None;
    }
    let mut subset = Vec::with_capacity(points.len());
    let mut original = Vec::with_capacity(points.len());
    for (i, p) in points.iter().enumerate() {
        if is_finite_point(p) {
            subset.push(*p);
            original.push(i);
        }
    }
    Some((subset, original))
}

/// A flat clustering: `labels[i]` is the cluster of point `i` (`None` =
/// noise), `n_clusters` the number of clusters, labelled `0..n_clusters`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    /// Per-point cluster assignment; `None` marks noise/outliers.
    pub labels: Vec<Option<usize>>,
    /// Number of clusters found.
    pub n_clusters: usize,
}

impl Clustering {
    /// Groups point indices by cluster label; noise points are omitted.
    pub fn clusters(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.n_clusters];
        for (i, label) in self.labels.iter().enumerate() {
            if let Some(c) = label {
                out[*c].push(i);
            }
        }
        out
    }

    /// Number of noise points.
    pub fn n_noise(&self) -> usize {
        self.labels.iter().filter(|l| l.is_none()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustering_groups_and_noise() {
        let c = Clustering {
            labels: vec![Some(0), None, Some(1), Some(0), None],
            n_clusters: 2,
        };
        assert_eq!(c.clusters(), vec![vec![0, 3], vec![2]]);
        assert_eq!(c.n_noise(), 2);
    }
}
