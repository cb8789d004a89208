//! Uniform bucket-grid spatial index for circular range queries.

use crate::point::LocalPoint;

/// A uniform grid over local points supporting the `range(p, eps, P)` query
/// the paper uses in Algorithms 1 and 3.
///
/// Points are hashed into square cells of a fixed size; a circular query
/// inspects only the cells overlapping the query disk. With a cell size close
/// to the typical query radius (`eps_p = 30 m` for clustering, `R_3sigma =
/// 100 m` for recognition), a query touches at most nine cells.
///
/// The index stores `usize` handles into the point slice it was built from;
/// callers keep ownership of the actual payloads.
#[derive(Debug, Clone)]
pub struct GridIndex {
    /// Effective cell size: the requested size, possibly inflated by the
    /// memory cap in [`GridIndex::build`]. Queries remain exact either way.
    cell_size: f64,
    /// The cell size the caller asked for, before any inflation.
    requested_cell_size: f64,
    min_x: f64,
    min_y: f64,
    cols: usize,
    rows: usize,
    /// CSR-style layout: `starts[c]..starts[c+1]` indexes into `entries` for
    /// cell `c`. Flat layout beats per-cell `Vec`s on cache behaviour.
    starts: Vec<u32>,
    entries: Vec<u32>,
    /// The coordinates of each entry, so queries read memory in order.
    points: Vec<LocalPoint>,
}

impl GridIndex {
    /// Builds an index over `points` with the given cell size in meters.
    ///
    /// The cell size is treated as a request, not a guarantee: to bound
    /// memory, the grid is capped at ~4 cells per point, which can silently
    /// inflate tiny cells over a large extent (see the guard below).
    /// [`GridIndex::cell_size`] reports the size actually in effect, and
    /// every query stays exact regardless — [`GridIndex::for_each_in_range`]
    /// scans the full cell span covering the query disk, so radii larger
    /// *or* smaller than the effective cell size return the same point sets
    /// a brute-force scan would.
    ///
    /// # Panics
    /// Panics if `cell_size` is not strictly positive and finite.
    pub fn build(points: &[LocalPoint], cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell_size must be positive, got {cell_size}"
        );
        let requested_cell_size = cell_size;
        if points.is_empty() {
            return Self {
                cell_size,
                requested_cell_size,
                min_x: 0.0,
                min_y: 0.0,
                cols: 0,
                rows: 0,
                starts: vec![0],
                entries: Vec::new(),
                points: Vec::new(),
            };
        }

        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in points {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        // Guard against degenerate cell sizes: cap the grid at ~4 cells per
        // point (beyond that, smaller cells cannot speed queries up, they
        // only burn memory — a 1e-9 cell over a city extent would otherwise
        // allocate terabytes).
        let extent = (max_x - min_x).max(max_y - min_y).max(cell_size);
        let max_cells_per_axis = ((4 * points.len()) as f64).sqrt().ceil().max(1.0);
        let cell_size = cell_size.max(extent / max_cells_per_axis);
        let cols = ((max_x - min_x) / cell_size).floor() as usize + 1;
        let rows = ((max_y - min_y) / cell_size).floor() as usize + 1;
        let n_cells = cols * rows;

        // Counting sort of points into cells.
        let mut counts = vec![0u32; n_cells + 1];
        let cell_of = |p: &LocalPoint| -> usize {
            let cx = ((p.x - min_x) / cell_size) as usize;
            let cy = ((p.y - min_y) / cell_size) as usize;
            cy.min(rows - 1) * cols + cx.min(cols - 1)
        };
        for p in points {
            counts[cell_of(p) + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let starts = counts.clone();
        let mut entries = vec![0u32; points.len()];
        let mut sorted = vec![LocalPoint::ORIGIN; points.len()];
        let mut cursor = starts.clone();
        for (i, p) in points.iter().enumerate() {
            let c = cell_of(p);
            entries[cursor[c] as usize] = i as u32;
            sorted[cursor[c] as usize] = *p;
            cursor[c] += 1;
        }

        Self {
            cell_size,
            requested_cell_size,
            min_x,
            min_y,
            cols,
            rows,
            starts,
            entries,
            points: sorted,
        }
    }

    /// Narrows the index to the points whose handle `keep` accepts.
    ///
    /// The geometry stays that of the full build: the origin, the cell
    /// counts and both cell sizes are unchanged, so a query visits the kept
    /// points in the order [`GridIndex::range`] lists them on the full index.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        // Compacts in place: `kept` never passes `s`, the cell's old start.
        let (mut kept, mut s) = (0, 0);
        for c in 0..self.starts.len() - 1 {
            let e = self.starts[c + 1] as usize;
            for k in s..e {
                if keep(self.entries[k] as usize) {
                    self.entries[kept] = self.entries[k];
                    self.points[kept] = self.points[k];
                    kept += 1;
                }
            }
            s = e;
            self.starts[c + 1] = kept as u32;
        }
        self.entries.truncate(kept);
        self.points.truncate(kept);
    }

    /// The cell size actually in effect, in meters.
    ///
    /// Equals the requested size unless the ~4-cells-per-point memory cap
    /// inflated it (tiny cells over a city-scale extent). Callers sizing
    /// query radii against the grid should consult this, not the value they
    /// passed to [`GridIndex::build`].
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// The cell size the caller requested at build time, in meters.
    pub fn requested_cell_size(&self) -> f64 {
        self.requested_cell_size
    }

    /// Whether the memory cap overrode the requested cell size.
    pub fn cell_size_inflated(&self) -> bool {
        self.cell_size > self.requested_cell_size
    }

    /// Number of indexed points (after any [`GridIndex::retain`]).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Indices of all points within `radius` meters of `center` (inclusive).
    pub fn range(&self, center: LocalPoint, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.range_into(center, radius, &mut out);
        out
    }

    /// Like [`GridIndex::range`], appending into a caller-provided buffer to
    /// avoid per-query allocation in hot loops. The buffer is cleared first.
    pub fn range_into(&self, center: LocalPoint, radius: f64, out: &mut Vec<usize>) {
        out.clear();
        self.for_each_in_range(center, radius, |idx, _| out.push(idx));
    }

    /// Calls `visit(idx, distance_sq)` for every point within `radius`
    /// meters of `center` (inclusive): cell by cell in row-major order,
    /// handles in build order within a cell. `distance_sq` is
    /// `point.distance_sq(&center)`, so a caller can take its `sqrt()`
    /// instead of measuring again.
    pub fn for_each_in_range(
        &self,
        center: LocalPoint,
        radius: f64,
        mut visit: impl FnMut(usize, f64),
    ) {
        if radius.is_nan() || radius < 0.0 {
            return;
        }
        let r_sq = radius * radius;
        let cx_lo = (((center.x - radius - self.min_x) / self.cell_size).floor()).max(0.0) as usize;
        let cy_lo = (((center.y - radius - self.min_y) / self.cell_size).floor()).max(0.0) as usize;
        let cx_hi = ((((center.x + radius - self.min_x) / self.cell_size).floor()) as isize).max(0)
            as usize;
        let cy_hi = ((((center.y + radius - self.min_y) / self.cell_size).floor()) as isize).max(0)
            as usize;
        if cx_lo >= self.cols || cy_lo >= self.rows {
            return;
        }
        let cx_hi = cx_hi.min(self.cols - 1);
        let cy_hi = cy_hi.min(self.rows - 1);

        for cy in cy_lo..=cy_hi {
            let row = cy * self.cols;
            let s = self.starts[row + cx_lo] as usize;
            let e = self.starts[row + cx_hi + 1] as usize;
            for (p, &idx) in self.points[s..e].iter().zip(&self.entries[s..e]) {
                let d_sq = p.distance_sq(&center);
                if d_sq <= r_sq {
                    visit(idx as usize, d_sq);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The cell loop [`GridIndex::range`] ran before the visitor: each cell
    /// of the query's span, one at a time, measuring every listed handle
    /// against the caller's own copy of its point.
    fn reference_range(
        idx: &GridIndex,
        points: &[LocalPoint],
        center: LocalPoint,
        radius: f64,
    ) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        if points.is_empty() || radius.is_nan() || radius < 0.0 {
            return out;
        }
        let r_sq = radius * radius;
        let cx_lo = (((center.x - radius - idx.min_x) / idx.cell_size).floor()).max(0.0) as usize;
        let cy_lo = (((center.y - radius - idx.min_y) / idx.cell_size).floor()).max(0.0) as usize;
        let cx_hi =
            ((((center.x + radius - idx.min_x) / idx.cell_size).floor()) as isize).max(0) as usize;
        let cy_hi =
            ((((center.y + radius - idx.min_y) / idx.cell_size).floor()) as isize).max(0) as usize;
        if cx_lo >= idx.cols || cy_lo >= idx.rows {
            return out;
        }
        let cx_hi = cx_hi.min(idx.cols - 1);
        let cy_hi = cy_hi.min(idx.rows - 1);
        for cy in cy_lo..=cy_hi {
            for cx in cx_lo..=cx_hi {
                let c = cy * idx.cols + cx;
                let (s, e) = (idx.starts[c] as usize, idx.starts[c + 1] as usize);
                for &i in &idx.entries[s..e] {
                    let d_sq = points[i as usize].distance_sq(&center);
                    if d_sq <= r_sq {
                        out.push((i as usize, d_sq.to_bits()));
                    }
                }
            }
        }
        out
    }

    fn visited(idx: &GridIndex, center: LocalPoint, radius: f64) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        idx.for_each_in_range(center, radius, |i, d_sq| out.push((i, d_sq.to_bits())));
        out
    }

    /// Points on a coarse lattice (so exact-radius boundaries occur) mixed
    /// with arbitrary ones and coincident copies.
    fn layout() -> impl Strategy<Value = Vec<LocalPoint>> {
        prop::collection::vec((0u8..4, -600.0..600.0f64, -600.0..600.0f64), 0..160).prop_map(
            |raw| {
                let mut pts: Vec<LocalPoint> = Vec::with_capacity(raw.len());
                for (kind, x, y) in raw {
                    let p = match kind {
                        0 => LocalPoint::new((x / 25.0).round() * 25.0, (y / 25.0).round() * 25.0),
                        1 if !pts.is_empty() => pts[(x.abs() as usize) % pts.len()],
                        _ => LocalPoint::new(x, y),
                    };
                    pts.push(p);
                }
                pts
            },
        )
    }

    proptest! {
        #[test]
        fn visitor_matches_the_reference_cell_loop(
            points in layout(),
            qx in -700.0..700.0f64,
            qy in -700.0..700.0f64,
            snap in 0u8..2,
            radius in 0.0..400.0f64,
            cell in 0.5..300.0f64,
        ) {
            let idx = GridIndex::build(&points, cell);
            let (q, r) = if snap == 0 {
                (LocalPoint::new(qx, qy), radius)
            } else {
                // Lattice query and radius: boundary points sit exactly at r.
                (LocalPoint::new((qx / 25.0).round() * 25.0, (qy / 25.0).round() * 25.0),
                 (radius / 25.0).round() * 25.0)
            };
            let want = reference_range(&idx, &points, q, r);
            prop_assert_eq!(visited(&idx, q, r), want.clone());
            let plain: Vec<usize> = want.iter().map(|&(i, _)| i).collect();
            prop_assert_eq!(idx.range(q, r), plain);
        }

        #[test]
        fn retained_view_is_the_filtered_range(
            points in layout(),
            qx in -700.0..700.0f64,
            qy in -700.0..700.0f64,
            radius in 0.0..400.0f64,
            cell in 0.5..300.0f64,
            modulus in 1usize..5,
        ) {
            let full = GridIndex::build(&points, cell);
            let keep = |i: usize| !(i * 7 + 3).is_multiple_of(modulus);
            let mut view = full.clone();
            view.retain(keep);
            prop_assert_eq!(view.len(), (0..points.len()).filter(|&i| keep(i)).count());
            prop_assert_eq!(view.cell_size().to_bits(), full.cell_size().to_bits());
            prop_assert_eq!(view.requested_cell_size().to_bits(), full.requested_cell_size().to_bits());
            let q = LocalPoint::new(qx, qy);
            let want: Vec<(usize, u64)> =
                visited(&full, q, radius).into_iter().filter(|&(i, _)| keep(i)).collect();
            prop_assert_eq!(visited(&view, q, radius), want);
        }
    }

    #[test]
    fn visitor_handles_degenerate_queries() {
        let points: Vec<LocalPoint> = (0..30)
            .map(|i| LocalPoint::new((i % 6) as f64 * 11.0, (i / 6) as f64 * 9.0))
            .collect();
        let idx = GridIndex::build(&points, 10.0);
        for (center, r) in [
            (LocalPoint::new(f64::NAN, 0.0), 50.0),
            (LocalPoint::new(f64::INFINITY, 0.0), 50.0),
            (LocalPoint::new(0.0, f64::NEG_INFINITY), 50.0),
            (LocalPoint::new(20.0, 20.0), f64::NAN),
            (LocalPoint::new(20.0, 20.0), -1.0),
            (LocalPoint::new(20.0, 20.0), f64::INFINITY),
        ] {
            assert_eq!(
                visited(&idx, center, r),
                reference_range(&idx, &points, center, r)
            );
        }
        assert_eq!(visited(&idx, LocalPoint::ORIGIN, f64::INFINITY).len(), 30);
        let mut none = idx.clone();
        none.retain(|_| false);
        assert!(none.is_empty());
        assert!(none.range(LocalPoint::ORIGIN, f64::INFINITY).is_empty());
    }

    fn brute_force(points: &[LocalPoint], center: LocalPoint, radius: f64) -> Vec<usize> {
        let r_sq = radius * radius;
        (0..points.len())
            .filter(|&i| points[i].distance_sq(&center) <= r_sq)
            .collect()
    }

    #[test]
    fn empty_index() {
        let idx = GridIndex::build(&[], 10.0);
        assert!(idx.is_empty());
        assert!(idx.range(LocalPoint::ORIGIN, 100.0).is_empty());
    }

    #[test]
    fn single_point() {
        let idx = GridIndex::build(&[LocalPoint::new(5.0, 5.0)], 10.0);
        assert_eq!(idx.range(LocalPoint::new(5.0, 5.0), 0.0), vec![0]);
        assert_eq!(idx.range(LocalPoint::new(6.0, 5.0), 1.0), vec![0]);
        assert!(idx.range(LocalPoint::new(6.0, 5.0), 0.5).is_empty());
    }

    #[test]
    fn matches_brute_force_on_lattice() {
        let points: Vec<LocalPoint> = (0..20)
            .flat_map(|x| (0..20).map(move |y| LocalPoint::new(x as f64 * 7.3, y as f64 * 4.1)))
            .collect();
        let idx = GridIndex::build(&points, 13.0);
        for (cx, cy, r) in [(0.0, 0.0, 25.0), (70.0, 40.0, 11.5), (150.0, 80.0, 60.0)] {
            let center = LocalPoint::new(cx, cy);
            let mut got = idx.range(center, r);
            got.sort_unstable();
            let want = brute_force(&points, center, r);
            assert_eq!(got, want, "query ({cx},{cy}) r={r}");
        }
    }

    #[test]
    fn boundary_is_inclusive() {
        let points = vec![LocalPoint::new(0.0, 0.0), LocalPoint::new(10.0, 0.0)];
        let idx = GridIndex::build(&points, 5.0);
        let mut got = idx.range(LocalPoint::ORIGIN, 10.0);
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn query_far_outside_extent() {
        let points = vec![LocalPoint::new(0.0, 0.0), LocalPoint::new(1.0, 1.0)];
        let idx = GridIndex::build(&points, 10.0);
        assert!(idx.range(LocalPoint::new(1e6, 1e6), 5.0).is_empty());
        assert!(idx.range(LocalPoint::new(-1e6, -1e6), 5.0).is_empty());
        // A huge radius from far away still finds everything.
        assert_eq!(idx.range(LocalPoint::new(-1e3, 0.0), 2e3).len(), 2);
    }

    #[test]
    fn duplicate_points_all_returned() {
        let p = LocalPoint::new(3.0, 3.0);
        let idx = GridIndex::build(&[p, p, p], 10.0);
        assert_eq!(idx.range(p, 0.1).len(), 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_cell_size() {
        let _ = GridIndex::build(&[LocalPoint::ORIGIN], 0.0);
    }

    #[test]
    fn tiny_cell_over_city_extent_is_inflated_but_exact() {
        // 64 points spread over ~10 km with a 1e-6 m requested cell: the
        // memory cap must inflate the effective cell size (a faithful grid
        // would need ~1e20 cells) and queries — including radii far larger
        // than the effective cell — must still match brute force.
        let points: Vec<LocalPoint> = (0..64)
            .map(|i| {
                LocalPoint::new(
                    (i % 8) as f64 * 1_400.0 + (i as f64 * 13.7) % 900.0,
                    (i / 8) as f64 * 1_300.0 + (i as f64 * 7.3) % 800.0,
                )
            })
            .collect();
        let idx = GridIndex::build(&points, 1e-6);
        assert_eq!(idx.requested_cell_size(), 1e-6);
        assert!(idx.cell_size_inflated());
        assert!(idx.cell_size() > 1e-6, "cap must inflate the cell");

        for r in [0.5, 50.0, idx.cell_size() * 3.0, 12_000.0] {
            for center in [
                LocalPoint::ORIGIN,
                LocalPoint::new(5_000.0, 4_000.0),
                LocalPoint::new(9_900.0, 9_100.0),
            ] {
                let mut got = idx.range(center, r);
                got.sort_unstable();
                assert_eq!(got, brute_force(&points, center, r), "r = {r}");
            }
        }
    }

    #[test]
    fn near_zero_cell_on_coincident_clusters_is_exact() {
        // A denormal-adjacent cell request (1e-300 m) over clustered data
        // with coincident points: the build must stay bounded (memory cap)
        // and every query must still be exact at the *requested* radius —
        // including radius 0, which matches exactly the coincident copies.
        let venue = LocalPoint::new(250.0, -80.0);
        let mut points = vec![venue; 6];
        for i in 0..40 {
            points.push(LocalPoint::new(
                (i % 8) as f64 * 30.0,
                (i / 8) as f64 * 25.0,
            ));
        }
        let idx = GridIndex::build(&points, 1e-300);
        assert_eq!(idx.requested_cell_size(), 1e-300);
        assert!(idx.cell_size_inflated());

        let mut got = idx.range(venue, 0.0);
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5], "coincident copies at r = 0");
        for r in [0.0, 1.0, 40.0, 500.0] {
            for center in [venue, LocalPoint::ORIGIN, LocalPoint::new(105.0, 60.0)] {
                let mut got = idx.range(center, r);
                got.sort_unstable();
                assert_eq!(got, brute_force(&points, center, r), "r = {r}");
            }
        }
    }

    #[test]
    fn generous_cell_size_is_not_inflated() {
        // 100 points over a ~30m extent with 30m cells: the ~4-cells-per-
        // point cap (20 cells per axis here) is far from binding.
        let points: Vec<LocalPoint> = (0..100)
            .map(|i| LocalPoint::new((i % 10) as f64 * 3.0, (i / 10) as f64 * 3.0))
            .collect();
        let idx = GridIndex::build(&points, 30.0);
        assert_eq!(idx.cell_size(), 30.0);
        assert_eq!(idx.requested_cell_size(), 30.0);
        assert!(!idx.cell_size_inflated());
    }

    #[test]
    fn radius_larger_than_cell_size_scans_full_span() {
        // Dense points, small cells: a query radius spanning many cells must
        // return everything in the disk.
        let points: Vec<LocalPoint> = (0..100)
            .map(|i| LocalPoint::new((i % 10) as f64 * 3.0, (i / 10) as f64 * 3.0))
            .collect();
        let idx = GridIndex::build(&points, 2.0);
        let center = LocalPoint::new(13.0, 13.0);
        let mut got = idx.range(center, 11.0);
        got.sort_unstable();
        assert_eq!(got, brute_force(&points, center, 11.0));
    }
}
