//! Planar K-Means checks: the cases the former [`LocalPoint`] K-Means was
//! tested on, run on [`kmeans_nd`] at `dims = 2` over `[(0, x), (1, y)]`
//! rows, which replaced it.

use crate::{kmeans_nd, KMeansNdParams, KMeansNdResult};
use pm_geo::LocalPoint;

/// K-Means over planar points; the centroids come back as points.
fn kmeans(points: &[LocalPoint], params: KMeansNdParams) -> (KMeansNdResult, Vec<LocalPoint>) {
    let rows: Vec<[(usize, f64); 2]> = points.iter().map(|p| [(0, p.x), (1, p.y)]).collect();
    let r = kmeans_nd(&rows, 2, params);
    let centroids = r
        .centroids
        .chunks(2)
        .map(|c| LocalPoint::new(c[0], c[1]))
        .collect();
    (r, centroids)
}

mod tests {
    use super::*;

    fn blob(cx: f64, cy: f64, n: usize, spread: f64) -> Vec<LocalPoint> {
        (0..n)
            .map(|i| {
                let a = i as f64 * 2.399963;
                let r = spread * (i as f64 / n as f64).sqrt();
                LocalPoint::new(cx + r * a.cos(), cy + r * a.sin())
            })
            .collect()
    }

    #[test]
    fn separates_two_blobs() {
        let mut pts = blob(0.0, 0.0, 50, 20.0);
        pts.extend(blob(1_000.0, 0.0, 50, 20.0));
        let (r, centroids) = kmeans(&pts, KMeansNdParams::new(2));
        assert_eq!(r.n_clusters, 2);
        let l0 = r.labels[0];
        assert!(r.labels[..50].iter().all(|l| *l == l0));
        assert!(r.labels[50..].iter().all(|l| *l != l0));
        // Centroids near blob centers.
        let mut near_origin = false;
        let mut near_far = false;
        for c in &centroids {
            near_origin |= c.distance(&LocalPoint::ORIGIN) < 20.0;
            near_far |= c.distance(&LocalPoint::new(1_000.0, 0.0)) < 20.0;
        }
        assert!(near_origin && near_far);
    }

    #[test]
    fn k_larger_than_n_is_clamped() {
        let pts = vec![LocalPoint::new(0.0, 0.0), LocalPoint::new(10.0, 0.0)];
        let (r, _) = kmeans(&pts, KMeansNdParams::new(5));
        assert_eq!(r.n_clusters, 2);
        assert!(r.inertia < 1e-9);
    }

    #[test]
    fn empty_input() {
        let (r, centroids) = kmeans(&[], KMeansNdParams::new(3));
        assert_eq!(r.n_clusters, 0);
        assert!(centroids.is_empty());
    }

    #[test]
    fn k_one_centroid_is_mean() {
        let pts = vec![
            LocalPoint::new(0.0, 0.0),
            LocalPoint::new(10.0, 0.0),
            LocalPoint::new(5.0, 9.0),
        ];
        let (_, centroids) = kmeans(&pts, KMeansNdParams::new(1));
        assert!(centroids[0].distance(&LocalPoint::new(5.0, 3.0)) < 1e-6);
    }

    #[test]
    fn non_finite_points_are_excluded() {
        let clean = blob(0.0, 0.0, 40, 30.0);
        let (baseline, _) = kmeans(&clean, KMeansNdParams::new(3).with_seed(9));

        let mut pts = clean.clone();
        pts.insert(0, LocalPoint::new(f64::NAN, f64::INFINITY));
        pts.push(LocalPoint::new(0.0, f64::NAN));
        let (r, _) = kmeans(&pts, KMeansNdParams::new(3).with_seed(9));

        assert!(r.labels[0].is_none());
        assert!(r.labels[pts.len() - 1].is_none());
        assert_eq!(r.centroids, baseline.centroids);
        assert!(r.inertia.is_finite());
        let finite_labels: Vec<_> = (0..pts.len())
            .filter(|&i| pts[i].x.is_finite() && pts[i].y.is_finite())
            .map(|i| r.labels[i])
            .collect();
        assert_eq!(finite_labels, baseline.labels);
    }

    #[test]
    fn deterministic_given_seed() {
        let pts = blob(0.0, 0.0, 60, 50.0);
        let (a, _) = kmeans(&pts, KMeansNdParams::new(4).with_seed(42));
        let (b, _) = kmeans(&pts, KMeansNdParams::new(4).with_seed(42));
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.inertia, b.inertia);
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let mut pts = blob(0.0, 0.0, 30, 30.0);
        pts.extend(blob(300.0, 0.0, 30, 30.0));
        pts.extend(blob(0.0, 300.0, 30, 30.0));
        let (r1, _) = kmeans(&pts, KMeansNdParams::new(1).with_seed(7));
        let (r3, _) = kmeans(&pts, KMeansNdParams::new(3).with_seed(7));
        let (i1, i3) = (r1.inertia, r3.inertia);
        assert!(i3 < i1 * 0.5, "i1={i1} i3={i3}");
    }
}
