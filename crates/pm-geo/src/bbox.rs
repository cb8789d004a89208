//! Axis-aligned bounding boxes in the local meter frame.

use crate::point::LocalPoint;

/// An axis-aligned rectangle in local coordinates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BoundingBox {
    /// Lower-left corner (minimum x and y).
    pub min: LocalPoint,
    /// Upper-right corner (maximum x and y).
    pub max: LocalPoint,
}

impl BoundingBox {
    /// Creates a box from two corners, normalizing the orientation.
    pub fn new(a: LocalPoint, b: LocalPoint) -> Self {
        Self {
            min: LocalPoint::new(a.x.min(b.x), a.y.min(b.y)),
            max: LocalPoint::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// The smallest box enclosing all `points`, or `None` for an empty slice.
    pub fn enclosing(points: &[LocalPoint]) -> Option<Self> {
        let first = points.first()?;
        let mut bb = BoundingBox {
            min: *first,
            max: *first,
        };
        for p in &points[1..] {
            bb.expand(*p);
        }
        Some(bb)
    }

    /// Grows the box to include `p`.
    pub fn expand(&mut self, p: LocalPoint) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// Grows the box outward by `margin` meters on every side.
    pub fn inflate(&self, margin: f64) -> Self {
        Self {
            min: LocalPoint::new(self.min.x - margin, self.min.y - margin),
            max: LocalPoint::new(self.max.x + margin, self.max.y + margin),
        }
    }

    /// Whether `p` lies inside the box (boundary inclusive).
    pub fn contains(&self, p: LocalPoint) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Box width in meters.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Box height in meters.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_corner_order() {
        let bb = BoundingBox::new(LocalPoint::new(5.0, -1.0), LocalPoint::new(-2.0, 3.0));
        assert_eq!(bb.min, LocalPoint::new(-2.0, -1.0));
        assert_eq!(bb.max, LocalPoint::new(5.0, 3.0));
    }

    #[test]
    fn enclosing_covers_all_points() {
        let pts = vec![
            LocalPoint::new(0.0, 0.0),
            LocalPoint::new(10.0, -5.0),
            LocalPoint::new(-3.0, 8.0),
        ];
        let bb = BoundingBox::enclosing(&pts).unwrap();
        for p in &pts {
            assert!(bb.contains(*p));
        }
        assert_eq!(bb.width(), 13.0);
        assert_eq!(bb.height(), 13.0);
    }

    #[test]
    fn enclosing_empty_is_none() {
        assert!(BoundingBox::enclosing(&[]).is_none());
    }

    #[test]
    fn contains_is_boundary_inclusive() {
        let bb = BoundingBox::new(LocalPoint::ORIGIN, LocalPoint::new(1.0, 1.0));
        assert!(bb.contains(LocalPoint::new(0.0, 0.0)));
        assert!(bb.contains(LocalPoint::new(1.0, 1.0)));
        assert!(!bb.contains(LocalPoint::new(1.0001, 1.0)));
    }

    #[test]
    fn inflate_grows_every_side() {
        let bb = BoundingBox::new(LocalPoint::ORIGIN, LocalPoint::new(4.0, 2.0));
        let big = bb.inflate(1.0);
        assert_eq!(big.min, LocalPoint::new(-1.0, -1.0));
        assert_eq!(big.max, LocalPoint::new(5.0, 3.0));
    }
}
