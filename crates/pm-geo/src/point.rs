//! Point types: geodetic ([`GeoPoint`]) and local planar ([`LocalPoint`]).

use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// A WGS-84 coordinate pair in decimal degrees.
///
/// This is the raw form GPS devices and POI databases deliver (paper
/// Definitions 1 and 2: `p = (x, y)` with longitude and latitude).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GeoPoint {
    /// Longitude in decimal degrees, east positive.
    pub lon: f64,
    /// Latitude in decimal degrees, north positive.
    pub lat: f64,
}

impl GeoPoint {
    /// Creates a geodetic point from longitude/latitude degrees.
    pub const fn new(lon: f64, lat: f64) -> Self {
        Self { lon, lat }
    }

    /// Returns true when both coordinates lie in the valid WGS-84 range.
    pub fn is_valid(&self) -> bool {
        self.lon.is_finite()
            && self.lat.is_finite()
            && (-180.0..=180.0).contains(&self.lon)
            && (-90.0..=90.0).contains(&self.lat)
    }
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6})", self.lon, self.lat)
    }
}

/// A point in a flat local frame, in meters relative to a city reference
/// point (east = +x, north = +y).
///
/// Every distance threshold in the paper (`eps_p = 30 m`, `R_3sigma = 100 m`,
/// `d_v = 15 m`, ...) is metric, so the pipeline works in this frame and only
/// touches [`GeoPoint`] at the ingestion boundary via
/// [`Projection`](crate::Projection).
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct LocalPoint {
    /// Meters east of the reference point.
    pub x: f64,
    /// Meters north of the reference point.
    pub y: f64,
}

impl LocalPoint {
    /// Creates a local point from meter offsets.
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The local origin (the projection reference point).
    pub const ORIGIN: LocalPoint = LocalPoint { x: 0.0, y: 0.0 };

    /// Euclidean distance to `other`, in meters.
    pub fn distance(&self, other: &LocalPoint) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other`, in square meters.
    ///
    /// Cheaper than [`LocalPoint::distance`]; prefer it for comparisons
    /// against a squared threshold in hot range-query loops.
    pub fn distance_sq(&self, other: &LocalPoint) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }
}

impl Add for LocalPoint {
    type Output = LocalPoint;
    fn add(self, rhs: LocalPoint) -> LocalPoint {
        LocalPoint::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for LocalPoint {
    type Output = LocalPoint;
    fn sub(self, rhs: LocalPoint) -> LocalPoint {
        LocalPoint::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for LocalPoint {
    type Output = LocalPoint;
    fn mul(self, rhs: f64) -> LocalPoint {
        LocalPoint::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for LocalPoint {
    type Output = LocalPoint;
    fn div(self, rhs: f64) -> LocalPoint {
        LocalPoint::new(self.x / rhs, self.y / rhs)
    }
}

impl fmt::Display for LocalPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}m, {:.2}m)", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geo_point_validity() {
        assert!(GeoPoint::new(121.47, 31.23).is_valid()); // Shanghai
        assert!(!GeoPoint::new(181.0, 0.0).is_valid());
        assert!(!GeoPoint::new(0.0, 91.0).is_valid());
        assert!(!GeoPoint::new(f64::NAN, 0.0).is_valid());
    }

    #[test]
    fn local_distance_matches_pythagoras() {
        let a = LocalPoint::new(0.0, 0.0);
        let b = LocalPoint::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert!((a.distance_sq(&b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn local_distance_is_symmetric() {
        let a = LocalPoint::new(-12.5, 7.25);
        let b = LocalPoint::new(100.0, -3.0);
        assert_eq!(a.distance(&b), b.distance(&a));
    }

    #[test]
    fn local_arithmetic() {
        let a = LocalPoint::new(1.0, 2.0);
        let b = LocalPoint::new(3.0, -4.0);
        assert_eq!(a + b, LocalPoint::new(4.0, -2.0));
        assert_eq!(b - a, LocalPoint::new(2.0, -6.0));
        assert_eq!(a * 2.0, LocalPoint::new(2.0, 4.0));
        assert_eq!(b / 2.0, LocalPoint::new(1.5, -2.0));
    }

    #[test]
    fn zero_distance_to_self() {
        let p = LocalPoint::new(42.0, -17.0);
        assert_eq!(p.distance(&p), 0.0);
    }
}
