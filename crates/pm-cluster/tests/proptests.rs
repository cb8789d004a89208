//! Property-based tests for the clustering substrate.

use pm_cluster::{
    dbscan, kmeans_nd, mean_shift, DbscanParams, GaussianKernel, KMeansNdParams, MeanShiftParams,
    Optics, OpticsParams,
};
use pm_geo::{GridIndex, LocalPoint};
use proptest::prelude::*;

fn local_point() -> impl Strategy<Value = LocalPoint> {
    (-1_000.0..1_000.0f64, -1_000.0..1_000.0f64).prop_map(|(x, y)| LocalPoint::new(x, y))
}

fn point_vec(max: usize) -> impl Strategy<Value = Vec<LocalPoint>> {
    prop::collection::vec(local_point(), 0..max)
}

/// Points as sparse `[(0, x), (1, y)]` rows, the layout `kmeans_nd` takes.
fn rows(points: &[LocalPoint]) -> Vec<[(usize, f64); 2]> {
    points.iter().map(|p| [(0, p.x), (1, p.y)]).collect()
}

/// Overwrites points selected by `(index, shape)` codes with non-finite
/// coordinates, returning the corrupted set plus the finite survivors.
fn inject_non_finite(
    mut points: Vec<LocalPoint>,
    picks: &[(usize, u8)],
) -> (Vec<LocalPoint>, Vec<LocalPoint>, Vec<usize>) {
    if !points.is_empty() {
        for &(slot, shape) in picks {
            let i = slot % points.len();
            points[i] = match shape % 5 {
                0 => LocalPoint::new(f64::NAN, points[i].y),
                1 => LocalPoint::new(points[i].x, f64::NAN),
                2 => LocalPoint::new(f64::INFINITY, points[i].y),
                3 => LocalPoint::new(f64::NEG_INFINITY, f64::INFINITY),
                _ => LocalPoint::new(f64::NAN, f64::NAN),
            };
        }
    }
    let mut finite = Vec::new();
    let mut finite_idx = Vec::new();
    for (i, p) in points.iter().enumerate() {
        if p.x.is_finite() && p.y.is_finite() {
            finite.push(*p);
            finite_idx.push(i);
        }
    }
    (points, finite, finite_idx)
}

proptest! {
    /// Every DBSCAN cluster member is density-reachable: each clustered
    /// point is a core point itself or lies within eps of a core point of
    /// the same cluster. (Clusters can be smaller than min_pts when border
    /// points are claimed by a competing cluster, so we do not assert on
    /// size.)
    #[test]
    fn dbscan_clusters_are_connected(
        points in point_vec(120),
        eps in 10.0..200.0f64,
        min_pts in 2usize..6,
    ) {
        let c = dbscan(&points, DbscanParams::new(eps, min_pts));
        prop_assert_eq!(c.labels.len(), points.len());
        let idx = GridIndex::build(&points, eps);
        let is_core = |i: usize| idx.range(points[i], eps).len() >= min_pts;
        for cluster in c.clusters() {
            prop_assert!(!cluster.is_empty());
            prop_assert!(cluster.iter().any(|&i| is_core(i)),
                "cluster without a core point");
            for &i in &cluster {
                let reachable = is_core(i) || cluster.iter().any(|&j| {
                    j != i && is_core(j) && points[i].distance(&points[j]) <= eps
                });
                prop_assert!(reachable, "point {i} not density-reachable in its cluster");
            }
        }
    }

    /// Noise points are never core points.
    #[test]
    fn dbscan_noise_points_are_not_core(
        points in point_vec(100),
        eps in 10.0..150.0f64,
        min_pts in 2usize..6,
    ) {
        let c = dbscan(&points, DbscanParams::new(eps, min_pts));
        let idx = GridIndex::build(&points, eps);
        for (i, label) in c.labels.iter().enumerate() {
            if label.is_none() {
                prop_assert!(idx.range(points[i], eps).len() < min_pts,
                    "noise point {i} is actually core");
            }
        }
    }

    /// OPTICS visit order is a permutation, and reachability values are
    /// positive (or infinite for component starters).
    #[test]
    fn optics_order_is_permutation(
        points in point_vec(80),
        max_eps in 50.0..500.0f64,
        min_pts in 2usize..6,
    ) {
        let o = Optics::run(&points, OpticsParams::new(max_eps, min_pts));
        let mut order = o.order().to_vec();
        order.sort_unstable();
        prop_assert_eq!(order, (0..points.len()).collect::<Vec<_>>());
        for &r in o.reachability() {
            prop_assert!(r > 0.0 || r.is_infinite() || r == 0.0);
            if r.is_finite() {
                prop_assert!(r <= max_eps + 1e-9, "reachability {r} beyond max_eps {max_eps}");
            }
        }
    }

    /// OPTICS extraction at a threshold never yields clusters smaller than
    /// min_pts.
    #[test]
    fn optics_extraction_respects_min_pts(
        points in point_vec(80),
        max_eps in 50.0..500.0f64,
        min_pts in 2usize..6,
        frac in 0.1..1.0f64,
    ) {
        let o = Optics::run(&points, OpticsParams::new(max_eps, min_pts));
        let c = o.extract_at(max_eps * frac);
        for cluster in c.clusters() {
            prop_assert!(cluster.len() >= min_pts);
        }
    }

    /// Mean shift labels every point and modes are within the convex hull
    /// bounding box of the input.
    #[test]
    fn mean_shift_total_assignment(
        points in point_vec(60),
        bw in 20.0..300.0f64,
    ) {
        let r = mean_shift(&points, MeanShiftParams::new(bw));
        prop_assert_eq!(r.clustering.labels.len(), points.len());
        if points.is_empty() {
            prop_assert_eq!(r.clustering.n_clusters, 0);
        } else {
            prop_assert!(r.clustering.labels.iter().all(Option::is_some));
            let bb = pm_geo::BoundingBox::enclosing(&points).unwrap().inflate(1e-6);
            for m in &r.modes {
                prop_assert!(bb.contains(*m), "mode {m} escaped the data extent");
            }
        }
    }

    /// DBSCAN on corrupted input never panics, marks every non-finite point
    /// as noise, and labels the finite points exactly as a clean run on the
    /// finite subset would.
    #[test]
    fn dbscan_tolerates_non_finite_points(
        points in point_vec(80),
        picks in prop::collection::vec((0usize..1_000, 0u8..8), 0..10),
        eps in 10.0..200.0f64,
        min_pts in 1usize..6,
    ) {
        let (corrupt, finite, finite_idx) = inject_non_finite(points, &picks);
        let c = dbscan(&corrupt, DbscanParams::new(eps, min_pts));
        prop_assert_eq!(c.labels.len(), corrupt.len());
        let clean = dbscan(&finite, DbscanParams::new(eps, min_pts));
        prop_assert_eq!(c.n_clusters, clean.n_clusters);
        let mut finite_labels = Vec::new();
        for (i, label) in c.labels.iter().enumerate() {
            if finite_idx.contains(&i) {
                finite_labels.push(*label);
            } else {
                prop_assert!(label.is_none(), "non-finite point {i} was clustered");
            }
        }
        prop_assert_eq!(finite_labels, clean.labels);
    }

    /// OPTICS on corrupted input keeps its permutation invariant, never
    /// clusters a non-finite point, and gives finite points the same
    /// auto-extracted labels as a clean run on the finite subset.
    #[test]
    fn optics_tolerates_non_finite_points(
        points in point_vec(60),
        picks in prop::collection::vec((0usize..1_000, 0u8..8), 0..8),
        max_eps in 50.0..500.0f64,
        min_pts in 1usize..6,
    ) {
        let (corrupt, finite, finite_idx) = inject_non_finite(points, &picks);
        let o = Optics::run(&corrupt, OpticsParams::new(max_eps, min_pts));
        let mut order = o.order().to_vec();
        order.sort_unstable();
        prop_assert_eq!(order, (0..corrupt.len()).collect::<Vec<_>>());
        let c = o.extract_auto();
        let clean = Optics::run(&finite, OpticsParams::new(max_eps, min_pts)).extract_auto();
        prop_assert_eq!(c.n_clusters, clean.n_clusters);
        let mut finite_labels = Vec::new();
        for (i, label) in c.labels.iter().enumerate() {
            if finite_idx.contains(&i) {
                finite_labels.push(*label);
            } else {
                prop_assert!(label.is_none(), "non-finite point {i} was clustered");
            }
        }
        prop_assert_eq!(finite_labels, clean.labels);
    }

    /// Mean shift on corrupted input labels every finite point, leaves every
    /// non-finite point unlabelled, and finds the same modes as a clean run.
    #[test]
    fn mean_shift_tolerates_non_finite_points(
        points in point_vec(50),
        picks in prop::collection::vec((0usize..1_000, 0u8..8), 0..8),
        bw in 20.0..300.0f64,
    ) {
        let (corrupt, finite, finite_idx) = inject_non_finite(points, &picks);
        let r = mean_shift(&corrupt, MeanShiftParams::new(bw));
        let clean = mean_shift(&finite, MeanShiftParams::new(bw));
        prop_assert_eq!(r.clustering.n_clusters, clean.clustering.n_clusters);
        prop_assert_eq!(&r.modes, &clean.modes);
        for m in &r.modes {
            prop_assert!(m.x.is_finite() && m.y.is_finite(), "non-finite mode {m}");
        }
        let mut finite_labels = Vec::new();
        for (i, label) in r.clustering.labels.iter().enumerate() {
            if finite_idx.contains(&i) {
                prop_assert!(label.is_some(), "finite point {i} lost its label");
                finite_labels.push(*label);
            } else {
                prop_assert!(label.is_none(), "non-finite point {i} was labelled");
            }
        }
        prop_assert_eq!(finite_labels, clean.clustering.labels);
    }

    /// Planar K-Means (`kmeans_nd` at `dims = 2`) on corrupted input keeps
    /// centroids finite and partitions the finite points exactly as a clean
    /// run with the same seed.
    #[test]
    fn kmeans_tolerates_non_finite_points(
        points in point_vec(50),
        picks in prop::collection::vec((0usize..1_000, 0u8..8), 0..8),
        k in 1usize..6,
        seed in 0u64..100,
    ) {
        let (corrupt, finite, finite_idx) = inject_non_finite(points, &picks);
        let r = kmeans_nd(&rows(&corrupt), 2, KMeansNdParams::new(k).with_seed(seed));
        let clean = kmeans_nd(&rows(&finite), 2, KMeansNdParams::new(k).with_seed(seed));
        prop_assert_eq!(&r.centroids, &clean.centroids);
        for c in &r.centroids {
            prop_assert!(c.is_finite(), "non-finite centroid coordinate {c}");
        }
        let mut finite_labels = Vec::new();
        for (i, label) in r.labels.iter().enumerate() {
            if finite_idx.contains(&i) {
                finite_labels.push(*label);
            } else {
                prop_assert!(label.is_none(), "non-finite point {i} was labelled");
            }
        }
        prop_assert_eq!(finite_labels, clean.labels);
    }

    /// Planar K-Means assigns every point to its nearest centroid.
    #[test]
    fn kmeans_assignment_is_nearest(
        points in point_vec(60),
        k in 1usize..6,
        seed in 0u64..100,
    ) {
        let r = kmeans_nd(&rows(&points), 2, KMeansNdParams::new(k).with_seed(seed));
        let centroids: Vec<LocalPoint> = r
            .centroids
            .chunks_exact(2)
            .map(|c| LocalPoint::new(c[0], c[1]))
            .collect();
        for (i, label) in r.labels.iter().enumerate() {
            let Some(l) = label else { continue };
            let own = points[i].distance_sq(&centroids[*l]);
            for c in &centroids {
                prop_assert!(own <= points[i].distance_sq(c) + 1e-9);
            }
        }
    }

    /// The Gaussian coefficient of Eq. 2 is bounded by its peak and vanishes
    /// past the cut-off.
    #[test]
    fn kernel_bounds(d in 0.0..500.0f64, r3 in 1.0..300.0f64) {
        let k = GaussianKernel::new(r3);
        let v = k.coeff_at(d);
        prop_assert!(v >= 0.0);
        prop_assert!(v <= k.coeff_at(0.0) + 1e-15);
        if d >= r3 {
            prop_assert_eq!(v, 0.0);
        }
    }
}
