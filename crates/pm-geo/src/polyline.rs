//! Polyline geometry: length and arc-length interpolation of point
//! sequences — the raw-trajectory layer under GPS track generation.

use crate::point::LocalPoint;

/// Total length of a polyline in meters (0 for fewer than two points).
pub fn length(points: &[LocalPoint]) -> f64 {
    points.windows(2).map(|w| w[0].distance(&w[1])).sum()
}

/// The point at parameter `t in [0, 1]` along the polyline by arc length.
/// Clamps `t`; returns `None` for an empty polyline.
pub fn point_at(points: &[LocalPoint], t: f64) -> Option<LocalPoint> {
    let first = *points.first()?;
    if points.len() == 1 {
        return Some(first);
    }
    let total = length(points);
    if total <= 0.0 {
        return Some(first);
    }
    let target = total * t.clamp(0.0, 1.0);
    let mut walked = 0.0;
    for w in points.windows(2) {
        let seg = w[0].distance(&w[1]);
        if walked + seg >= target {
            if seg <= 0.0 {
                return Some(w[0]);
            }
            let f = (target - walked) / seg;
            return Some(w[0] + (w[1] - w[0]) * f);
        }
        walked += seg;
    }
    Some(*points.last().expect("non-empty"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(x: f64, y: f64) -> LocalPoint {
        LocalPoint::new(x, y)
    }

    #[test]
    fn length_of_l_shape() {
        let line = vec![l(0.0, 0.0), l(3.0, 0.0), l(3.0, 4.0)];
        assert!((length(&line) - 7.0).abs() < 1e-12);
        assert_eq!(length(&[l(1.0, 1.0)]), 0.0);
        assert_eq!(length(&[]), 0.0);
    }

    #[test]
    fn point_at_endpoints_and_middle() {
        let line = vec![l(0.0, 0.0), l(10.0, 0.0)];
        assert_eq!(point_at(&line, 0.0).unwrap(), l(0.0, 0.0));
        assert_eq!(point_at(&line, 1.0).unwrap(), l(10.0, 0.0));
        assert_eq!(point_at(&line, 0.5).unwrap(), l(5.0, 0.0));
        // Clamping.
        assert_eq!(point_at(&line, -3.0).unwrap(), l(0.0, 0.0));
        assert_eq!(point_at(&line, 7.0).unwrap(), l(10.0, 0.0));
        assert!(point_at(&[], 0.5).is_none());
    }

    #[test]
    fn point_at_crosses_vertices() {
        let line = vec![l(0.0, 0.0), l(4.0, 0.0), l(4.0, 4.0)];
        // t = 0.75 -> 6m along an 8m line -> 2m up the second leg.
        let p = point_at(&line, 0.75).unwrap();
        assert!(p.distance(&l(4.0, 2.0)) < 1e-9);
    }
}
