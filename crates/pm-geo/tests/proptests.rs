//! Property-based tests for the spatial substrate: the indexes must agree
//! with brute force on every query, and the statistics must obey their
//! mathematical invariants.

use pm_geo::{
    centroid, den, haversine_m, mean_pairwise_distance, spatial_variance, GeoPoint, GridIndex,
    KdTree, LocalPoint, Projection,
};
use proptest::prelude::*;

fn local_point() -> impl Strategy<Value = LocalPoint> {
    (-5_000.0..5_000.0f64, -5_000.0..5_000.0f64).prop_map(|(x, y)| LocalPoint::new(x, y))
}

fn point_vec(max: usize) -> impl Strategy<Value = Vec<LocalPoint>> {
    prop::collection::vec(local_point(), 0..max)
}

proptest! {
    #[test]
    fn grid_range_matches_brute_force(
        points in point_vec(200),
        q in local_point(),
        radius in 0.0..2_000.0f64,
        cell in 1.0..500.0f64,
    ) {
        let idx = GridIndex::build(&points, cell);
        let mut got = idx.range(q, radius);
        got.sort_unstable();
        let want: Vec<usize> = (0..points.len())
            .filter(|&i| points[i].distance(&q) <= radius)
            .collect();
        prop_assert_eq!(&got, &want);
    }

    #[test]
    fn kdtree_range_matches_brute_force(
        points in point_vec(150),
        q in local_point(),
        radius in 0.0..2_000.0f64,
    ) {
        let tree = KdTree::build(&points);
        let mut got = tree.range(q, radius);
        got.sort_unstable();
        let want: Vec<usize> = (0..points.len())
            .filter(|&i| points[i].distance(&q) <= radius)
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn kdtree_knn_distances_match_brute_force(
        points in point_vec(150),
        q in local_point(),
        k in 1usize..20,
    ) {
        let tree = KdTree::build(&points);
        let got = tree.k_nearest(q, k);
        let mut want: Vec<f64> = points.iter().map(|p| p.distance(&q)).collect();
        want.sort_by(f64::total_cmp);
        want.truncate(k);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g.1 - w).abs() < 1e-6, "{} vs {}", g.1, w);
        }
    }

    #[test]
    fn haversine_symmetry_and_nonnegativity(
        lon1 in -179.0..179.0f64, lat1 in -89.0..89.0f64,
        lon2 in -179.0..179.0f64, lat2 in -89.0..89.0f64,
    ) {
        let a = GeoPoint::new(lon1, lat1);
        let b = GeoPoint::new(lon2, lat2);
        let d_ab = haversine_m(a, b);
        let d_ba = haversine_m(b, a);
        prop_assert!(d_ab >= 0.0);
        prop_assert!((d_ab - d_ba).abs() < 1e-6);
    }

    #[test]
    fn projection_roundtrip(
        dlon in -0.5..0.5f64, dlat in -0.5..0.5f64,
    ) {
        let origin = GeoPoint::new(121.47, 31.23);
        let proj = Projection::new(origin);
        let p = GeoPoint::new(origin.lon + dlon, origin.lat + dlat);
        let back = proj.to_geo(proj.to_local(p));
        prop_assert!((back.lon - p.lon).abs() < 1e-9);
        prop_assert!((back.lat - p.lat).abs() < 1e-9);
    }

    #[test]
    fn projection_preserves_short_distances(
        dlon in -0.2..0.2f64, dlat in -0.2..0.2f64,
    ) {
        let origin = GeoPoint::new(121.47, 31.23);
        let proj = Projection::new(origin);
        let p = GeoPoint::new(origin.lon + dlon, origin.lat + dlat);
        let planar = proj.to_local(p).distance(&LocalPoint::ORIGIN);
        let sphere = haversine_m(origin, p);
        if sphere > 1.0 {
            prop_assert!((planar - sphere).abs() / sphere < 5e-3);
        }
    }

    #[test]
    fn variance_nonnegative_and_translation_invariant(
        points in point_vec(60),
        dx in -1e4..1e4f64, dy in -1e4..1e4f64,
    ) {
        let v = spatial_variance(&points);
        prop_assert!(v >= 0.0);
        let shifted: Vec<LocalPoint> =
            points.iter().map(|p| *p + LocalPoint::new(dx, dy)).collect();
        let vs = spatial_variance(&shifted);
        let tol = 1e-6 * (1.0 + v.abs());
        prop_assert!((v - vs).abs() < tol, "{v} vs {vs}");
    }

    #[test]
    fn centroid_lies_in_bounding_box(points in point_vec(60)) {
        if let Some(c) = centroid(&points) {
            let bb = pm_geo::BoundingBox::enclosing(&points).unwrap();
            prop_assert!(bb.inflate(1e-9).contains(c));
        } else {
            prop_assert!(points.is_empty());
        }
    }

    #[test]
    fn sparsity_nonnegative_and_scales(points in point_vec(40)) {
        let s = mean_pairwise_distance(&points);
        prop_assert!(s >= 0.0);
        let doubled: Vec<LocalPoint> = points.iter().map(|p| *p * 2.0).collect();
        let s2 = mean_pairwise_distance(&doubled);
        prop_assert!((s2 - 2.0 * s).abs() < 1e-6 * (1.0 + s));
    }

    #[test]
    fn density_positive(points in point_vec(40)) {
        prop_assert!(den(&points) > 0.0);
    }
}
