//! N-dimensional K-Means and Mean Shift over flat row-major data.
//!
//! Rows are stored flat (`data[i * dims .. (i + 1) * dims]` is point `i`),
//! so one implementation serves both planar points (`dims = 2`) and
//! user-embedding spaces (pm-cohort's 240-dimensional category-transition
//! profiles). [`crate::meanshift`] keeps a 2-D Mean Shift over
//! [`pm_geo::LocalPoint`] for the Splitter baseline. Both algorithms here
//! follow the crate's determinism discipline: ChaCha8-seeded k-means++
//! initialization, fixed iteration order, and non-finite rows masked out as
//! noise instead of poisoning every centroid.
//!
//! K-Means groups the finite rows by bit pattern first and computes each
//! distinct row's squared distances and nearest centroid once per step.
//! Everything that folds floats — centroid sums, the k-means++ sampling
//! walk, inertia — still visits every row in row order, so the result is
//! bit-identical to the plain per-row loop (DESIGN.md §17.2).

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// Parameters for [`kmeans_nd`].
#[derive(Clone, Copy, Debug)]
pub struct KMeansNdParams {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iter: usize,
    /// Convergence tolerance on total centroid movement (Euclidean).
    pub tol: f64,
    /// RNG seed for k-means++ initialization (deterministic runs).
    pub seed: u64,
}

impl KMeansNdParams {
    /// Parameter set with the defaults: 100 iterations, 1e-4 tolerance,
    /// seed 0.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        Self {
            k,
            max_iter: 100,
            tol: 1e-4,
            seed: 0,
        }
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Result of an N-dimensional K-Means run.
#[derive(Debug, Clone)]
pub struct KMeansNdResult {
    /// Per-row cluster assignment; rows with non-finite coordinates are
    /// labelled `None`, everything else `Some(0..n_clusters)`.
    pub labels: Vec<Option<usize>>,
    /// Number of clusters actually produced (≤ `k`, clamped to the number
    /// of finite rows).
    pub n_clusters: usize,
    /// Final centroids, row-major (`n_clusters * dims` values).
    pub centroids: Vec<f64>,
    /// Sum of squared distances of finite rows to their centroid.
    pub inertia: f64,
}

/// Lloyd's algorithm with k-means++ seeding over `dims`-dimensional rows.
///
/// `data.len()` must be a multiple of `dims`. Deterministic for a given
/// (data, params) pair: the RNG is seeded, ties in the assignment step go to
/// the lowest centroid index, and accumulation order is the row order.
/// Repeated rows cost one distance computation per step, not one each.
pub fn kmeans_nd(data: &[f64], dims: usize, params: KMeansNdParams) -> KMeansNdResult {
    assert!(dims >= 1, "dims must be at least 1");
    assert_eq!(data.len() % dims, 0, "data must be whole rows");
    let n = data.len() / dims;
    let finite: Vec<usize> = (0..n)
        .filter(|&i| row(data, dims, i).iter().all(|v| v.is_finite()))
        .collect();
    let k = params.k.min(finite.len());
    if k == 0 {
        return KMeansNdResult {
            labels: vec![None; n],
            n_clusters: 0,
            centroids: Vec::new(),
            inertia: 0.0,
        };
    }

    let rows = DistinctRows::group(data, dims, &finite);
    let mut centroids = plus_plus_init_nd(&rows, k, params.seed);
    let mut nearest = vec![0usize; rows.len()];

    for _ in 0..params.max_iter {
        for (d, slot) in nearest.iter_mut().enumerate() {
            *slot = nearest_row(rows.row(d), &centroids, dims);
        }
        // Every accumulator starts at +0.0 and so never holds -0.0; adding
        // ±0.0 leaves it unchanged, and skipping zeros is exact.
        let mut sums = vec![0.0; k * dims];
        let mut counts = vec![0usize; k];
        for &d in &rows.of {
            let c = nearest[d];
            let sum = &mut sums[c * dims..(c + 1) * dims];
            for &(dim, v) in rows.nonzeros(d) {
                sum[dim] += v;
            }
            counts[c] += 1;
        }
        let mut movement = 0.0;
        for c in 0..k {
            if counts[c] == 0 {
                continue; // keep the old centroid for empty clusters
            }
            let inv = 1.0 / counts[c] as f64;
            let mut d_sq = 0.0;
            for d in 0..dims {
                let next = sums[c * dims + d] * inv;
                let delta = next - centroids[c * dims + d];
                d_sq += delta * delta;
                centroids[c * dims + d] = next;
            }
            movement += d_sq.sqrt();
        }
        if movement < params.tol {
            break;
        }
    }

    let best: Vec<(usize, f64)> = (0..rows.len())
        .map(|d| {
            let p = rows.row(d);
            let c = nearest_row(p, &centroids, dims);
            (c, dist_sq(p, &centroids[c * dims..(c + 1) * dims]))
        })
        .collect();
    let mut labels = vec![None; n];
    let mut inertia = 0.0;
    for (&i, &d) in finite.iter().zip(&rows.of) {
        let (c, d_sq) = best[d];
        labels[i] = Some(c);
        inertia += d_sq;
    }

    KMeansNdResult {
        labels,
        n_clusters: k,
        centroids,
        inertia,
    }
}

/// The finite rows of a K-Means input, grouped by bit pattern.
struct DistinctRows<'a> {
    data: &'a [f64],
    dims: usize,
    /// Row index of each distinct pattern's first occurrence.
    first: Vec<usize>,
    /// Pattern of each finite row, in row order.
    of: Vec<usize>,
    /// Non-zero `(dim, value)` entries of every pattern, concatenated;
    /// pattern `d` owns `nonzeros[starts[d]..starts[d + 1]]`.
    nonzeros: Vec<(usize, f64)>,
    starts: Vec<usize>,
}

impl<'a> DistinctRows<'a> {
    fn group(data: &'a [f64], dims: usize, finite: &[usize]) -> Self {
        let mut by_hash: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut first: Vec<usize> = Vec::new();
        let mut of = Vec::with_capacity(finite.len());
        for &i in finite {
            let r = row(data, dims, i);
            let bucket = by_hash.entry(row_hash(r)).or_default();
            let seen = bucket
                .iter()
                .copied()
                .find(|&d| same_bits(row(data, dims, first[d]), r));
            of.push(seen.unwrap_or_else(|| {
                bucket.push(first.len());
                first.push(i);
                first.len() - 1
            }));
        }
        let mut nonzeros = Vec::new();
        let mut starts = Vec::with_capacity(first.len() + 1);
        starts.push(0);
        for &i in &first {
            let r = row(data, dims, i);
            nonzeros.extend(r.iter().copied().enumerate().filter(|&(_, v)| v != 0.0));
            starts.push(nonzeros.len());
        }
        Self {
            data,
            dims,
            first,
            of,
            nonzeros,
            starts,
        }
    }

    /// Number of distinct patterns.
    fn len(&self) -> usize {
        self.first.len()
    }

    fn row(&self, d: usize) -> &'a [f64] {
        row(self.data, self.dims, self.first[d])
    }

    fn nonzeros(&self, d: usize) -> &[(usize, f64)] {
        &self.nonzeros[self.starts[d]..self.starts[d + 1]]
    }
}

/// FxHash-style fold over the bit patterns of a row.
fn row_hash(r: &[f64]) -> u64 {
    r.iter().fold(0, |h: u64, v| {
        (h.rotate_left(5) ^ v.to_bits()).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Parameters for [`mean_shift_nd`].
#[derive(Clone, Copy, Debug)]
pub struct MeanShiftNdParams {
    /// Flat-kernel radius (Euclidean) for the mean computation.
    pub bandwidth: f64,
    /// Convergence tolerance on per-point shift distance.
    pub tol: f64,
    /// Maximum shift iterations per point.
    pub max_iter: usize,
}

impl MeanShiftNdParams {
    /// Parameter set with the 2-D variant's defaults (1e-3 tolerance,
    /// 300 iterations).
    pub fn new(bandwidth: f64) -> Self {
        assert!(
            bandwidth.is_finite() && bandwidth > 0.0,
            "bandwidth must be positive"
        );
        Self {
            bandwidth,
            tol: 1e-3,
            max_iter: 300,
        }
    }
}

/// Result of an N-dimensional Mean Shift run.
#[derive(Debug, Clone)]
pub struct MeanShiftNdResult {
    /// Per-row mode assignment; non-finite rows are `None`.
    pub labels: Vec<Option<usize>>,
    /// Number of distinct modes found.
    pub n_modes: usize,
    /// Converged modes, row-major (`n_modes * dims` values), in order of
    /// first discovery (lowest contributing row index first).
    pub modes: Vec<f64>,
}

/// Flat-kernel Mean Shift over `dims`-dimensional rows.
///
/// Each finite row hill-climbs to the mean of its bandwidth neighborhood
/// until the shift falls under `tol`; converged positions merge into one
/// mode when within `bandwidth / 2` of an earlier one (first-come order, so
/// the result is deterministic). Neighborhoods are exact O(n²) scans — this
/// is the small-population fallback, not the bulk path.
pub fn mean_shift_nd(data: &[f64], dims: usize, params: MeanShiftNdParams) -> MeanShiftNdResult {
    assert!(dims >= 1, "dims must be at least 1");
    assert_eq!(data.len() % dims, 0, "data must be whole rows");
    let n = data.len() / dims;
    let finite: Vec<usize> = (0..n)
        .filter(|&i| row(data, dims, i).iter().all(|v| v.is_finite()))
        .collect();
    let bw_sq = params.bandwidth * params.bandwidth;
    let tol_sq = params.tol * params.tol;

    // Shift every finite row to its local mode.
    let mut shifted = vec![0.0; finite.len() * dims];
    for (s, &i) in finite.iter().enumerate() {
        let mut pos = row(data, dims, i).to_vec();
        for _ in 0..params.max_iter {
            let mut mean = vec![0.0; dims];
            let mut count = 0usize;
            for &j in &finite {
                let q = row(data, dims, j);
                if dist_sq(&pos, q) <= bw_sq {
                    for (m, v) in mean.iter_mut().zip(q) {
                        *m += v;
                    }
                    count += 1;
                }
            }
            if count == 0 {
                break; // isolated point: it is its own mode
            }
            let inv = 1.0 / count as f64;
            for m in mean.iter_mut() {
                *m *= inv;
            }
            let moved = dist_sq(&pos, &mean);
            pos.copy_from_slice(&mean);
            if moved <= tol_sq {
                break;
            }
        }
        shifted[s * dims..(s + 1) * dims].copy_from_slice(&pos);
    }

    // Merge converged positions into modes, first-come order.
    let merge_sq = bw_sq / 4.0;
    let mut modes: Vec<f64> = Vec::new();
    let mut n_modes = 0usize;
    let mut labels = vec![None; n];
    for (s, &i) in finite.iter().enumerate() {
        let pos = &shifted[s * dims..(s + 1) * dims];
        let mut assigned = None;
        for m in 0..n_modes {
            if dist_sq(pos, &modes[m * dims..(m + 1) * dims]) <= merge_sq {
                assigned = Some(m);
                break;
            }
        }
        let m = assigned.unwrap_or_else(|| {
            modes.extend_from_slice(pos);
            n_modes += 1;
            n_modes - 1
        });
        labels[i] = Some(m);
    }

    MeanShiftNdResult {
        labels,
        n_modes,
        modes,
    }
}

#[inline]
fn row(data: &[f64], dims: usize, i: usize) -> &[f64] {
    &data[i * dims..(i + 1) * dims]
}

#[inline]
fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

fn nearest_row(p: &[f64], centroids: &[f64], dims: usize) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (c, m) in centroids.chunks_exact(dims).enumerate() {
        let d = dist_sq(p, m);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

/// k-means++ seeding: the first centroid is a uniformly drawn row, each
/// further one a row drawn with probability proportional to its squared
/// distance from the nearest centroid so far. Distances are kept per
/// distinct pattern; the total and the sampling walk run over every row.
fn plus_plus_init_nd(rows: &DistinctRows, k: usize, seed: u64) -> Vec<f64> {
    let dims = rows.dims;
    let n = rows.of.len();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut centroids = Vec::with_capacity(k * dims);
    centroids.extend_from_slice(rows.row(rows.of[rng.gen_range(0..n)]));
    let mut d_sq: Vec<f64> = (0..rows.len())
        .map(|d| dist_sq(rows.row(d), &centroids[..dims]))
        .collect();
    while centroids.len() < k * dims {
        let total: f64 = rows.of.iter().map(|&d| d_sq[d]).sum();
        let next = if total <= f64::EPSILON {
            // All remaining rows coincide with existing centroids.
            rows.of[rng.gen_range(0..n)]
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = rows.of[n - 1];
            for &d in &rows.of {
                if target < d_sq[d] {
                    chosen = d;
                    break;
                }
                target -= d_sq[d];
            }
            chosen
        };
        let start = centroids.len();
        centroids.extend_from_slice(rows.row(next));
        for (d, slot) in d_sq.iter_mut().enumerate() {
            *slot = slot.min(dist_sq(rows.row(d), &centroids[start..]));
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Two well-separated 3-D blobs around (0,0,0) and (100,100,100).
    fn blobs() -> Vec<f64> {
        let mut data = Vec::new();
        for i in 0..40 {
            let t = i as f64 * 0.37;
            let (base, r) = if i < 20 { (0.0, 3.0) } else { (100.0, 3.0) };
            data.extend_from_slice(&[
                base + r * t.sin(),
                base + r * t.cos(),
                base + r * (t * 0.7).sin(),
            ]);
        }
        data
    }

    #[test]
    fn kmeans_nd_separates_blobs() {
        let data = blobs();
        let r = kmeans_nd(&data, 3, KMeansNdParams::new(2).with_seed(7));
        assert_eq!(r.n_clusters, 2);
        let l0 = r.labels[0];
        assert!(r.labels[..20].iter().all(|l| *l == l0));
        assert!(r.labels[20..].iter().all(|l| *l != l0));
        assert!(r.inertia.is_finite());
    }

    #[test]
    fn kmeans_nd_deterministic_given_seed() {
        let data = blobs();
        let a = kmeans_nd(&data, 3, KMeansNdParams::new(3).with_seed(42));
        let b = kmeans_nd(&data, 3, KMeansNdParams::new(3).with_seed(42));
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.inertia.to_bits(), b.inertia.to_bits());
    }

    #[test]
    fn kmeans_nd_clamps_k_and_handles_empty() {
        let r = kmeans_nd(&[1.0, 2.0], 2, KMeansNdParams::new(5));
        assert_eq!(r.n_clusters, 1);
        assert!(r.inertia < 1e-12);
        let e = kmeans_nd(&[], 4, KMeansNdParams::new(3));
        assert_eq!(e.n_clusters, 0);
        assert!(e.labels.is_empty());
    }

    #[test]
    fn kmeans_nd_masks_non_finite_rows() {
        let mut data = blobs();
        data.extend_from_slice(&[f64::NAN, 0.0, 0.0]);
        let r = kmeans_nd(&data, 3, KMeansNdParams::new(2).with_seed(7));
        assert_eq!(r.labels.last().copied().flatten(), None);
        let clean = kmeans_nd(&blobs(), 3, KMeansNdParams::new(2).with_seed(7));
        assert_eq!(&r.labels[..40], &clean.labels[..]);
        assert_eq!(r.centroids, clean.centroids);
    }

    /// The per-row kernel that [`kmeans_nd`] replaced, kept verbatim as the
    /// bit-for-bit oracle: every row's distances are computed afresh.
    fn kmeans_nd_reference(data: &[f64], dims: usize, params: KMeansNdParams) -> KMeansNdResult {
        let n = data.len() / dims;
        let finite: Vec<usize> = (0..n)
            .filter(|&i| row(data, dims, i).iter().all(|v| v.is_finite()))
            .collect();
        let k = params.k.min(finite.len());
        if k == 0 {
            return KMeansNdResult {
                labels: vec![None; n],
                n_clusters: 0,
                centroids: Vec::new(),
                inertia: 0.0,
            };
        }

        let mut centroids = plus_plus_init_reference(data, dims, &finite, k, params.seed);
        let mut assign = vec![0usize; finite.len()];

        for _ in 0..params.max_iter {
            for (slot, &i) in assign.iter_mut().zip(&finite) {
                *slot = nearest_row(row(data, dims, i), &centroids, dims);
            }
            let mut sums = vec![0.0; k * dims];
            let mut counts = vec![0usize; k];
            for (slot, &i) in assign.iter().zip(&finite) {
                let p = row(data, dims, i);
                for (s, v) in sums[slot * dims..(slot + 1) * dims].iter_mut().zip(p) {
                    *s += v;
                }
                counts[*slot] += 1;
            }
            let mut movement = 0.0;
            for c in 0..k {
                if counts[c] == 0 {
                    continue;
                }
                let inv = 1.0 / counts[c] as f64;
                let mut d_sq = 0.0;
                for d in 0..dims {
                    let next = sums[c * dims + d] * inv;
                    let delta = next - centroids[c * dims + d];
                    d_sq += delta * delta;
                    centroids[c * dims + d] = next;
                }
                movement += d_sq.sqrt();
            }
            if movement < params.tol {
                break;
            }
        }

        let mut labels = vec![None; n];
        let mut inertia = 0.0;
        for &i in &finite {
            let p = row(data, dims, i);
            let c = nearest_row(p, &centroids, dims);
            labels[i] = Some(c);
            inertia += dist_sq(p, &centroids[c * dims..(c + 1) * dims]);
        }

        KMeansNdResult {
            labels,
            n_clusters: k,
            centroids,
            inertia,
        }
    }

    fn plus_plus_init_reference(
        data: &[f64],
        dims: usize,
        finite: &[usize],
        k: usize,
        seed: u64,
    ) -> Vec<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut centroids = Vec::with_capacity(k * dims);
        let first = finite[rng.gen_range(0..finite.len())];
        centroids.extend_from_slice(row(data, dims, first));
        let mut d_sq: Vec<f64> = finite
            .iter()
            .map(|&i| dist_sq(row(data, dims, i), &centroids[..dims]))
            .collect();
        while centroids.len() < k * dims {
            let total: f64 = d_sq.iter().sum();
            let next = if total <= f64::EPSILON {
                finite[rng.gen_range(0..finite.len())]
            } else {
                let mut target = rng.gen_range(0.0..total);
                let mut chosen = finite.len() - 1;
                for (i, &d) in d_sq.iter().enumerate() {
                    if target < d {
                        chosen = i;
                        break;
                    }
                    target -= d;
                }
                finite[chosen]
            };
            let next_row = row(data, dims, next).to_vec();
            for (slot, &i) in d_sq.iter_mut().zip(finite) {
                *slot = slot.min(dist_sq(row(data, dims, i), &next_row));
            }
            centroids.extend_from_slice(&next_row);
        }
        centroids
    }

    /// Everything a K-Means result carries, floats as raw bits.
    fn result_bits(r: &KMeansNdResult) -> (Vec<Option<usize>>, usize, Vec<u64>, u64) {
        (
            r.labels.clone(),
            r.n_clusters,
            r.centroids.iter().map(|v| v.to_bits()).collect(),
            r.inertia.to_bits(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Rows drawn from a pool of patterns — a small pool gives heavy
        /// repeats, a large one mostly distinct rows — with +0.0, -0.0 and
        /// integer entries (exact distance ties), some rows then poisoned
        /// with NaN or ±inf: the grouped kernel matches the per-row oracle
        /// bit for bit.
        #[test]
        fn kmeans_nd_is_bit_identical_to_the_per_row_kernel(
            pool in prop::collection::vec(
                prop::collection::vec(
                    (0u8..6, -50.0..50.0f64).prop_map(|(kind, v)| match kind {
                        0 => 0.0,
                        1 => -0.0,
                        2 => v.round(),
                        _ => v,
                    }),
                    6,
                ),
                1..40,
            ),
            picks in prop::collection::vec(0usize..1_000, 0..90),
            poison in prop::collection::vec((0usize..1_000, 0usize..6, 0u8..3), 0..5),
            dims in 1usize..7,
            k in 1usize..9,
            seed in 0u64..1_000,
            max_iter in 1usize..120,
        ) {
            let mut data: Vec<f64> = picks
                .iter()
                .flat_map(|&p| pool[p % pool.len()][..dims].to_vec())
                .collect();
            let n = picks.len();
            if n > 0 {
                for &(slot, dim, shape) in &poison {
                    data[(slot % n) * dims + dim % dims] = match shape {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        _ => f64::NEG_INFINITY,
                    };
                }
            }
            let params = KMeansNdParams {
                max_iter,
                ..KMeansNdParams::new(k).with_seed(seed)
            };
            let got = kmeans_nd(&data, dims, params);
            let want = kmeans_nd_reference(&data, dims, params);
            prop_assert_eq!(result_bits(&got), result_bits(&want));
        }
    }

    #[test]
    fn mean_shift_nd_finds_two_modes() {
        let data = blobs();
        let r = mean_shift_nd(&data, 3, MeanShiftNdParams::new(20.0));
        assert_eq!(r.n_modes, 2);
        let l0 = r.labels[0];
        assert!(r.labels[..20].iter().all(|l| *l == l0));
        assert!(r.labels[20..].iter().all(|l| *l != l0));
    }

    #[test]
    fn mean_shift_nd_deterministic() {
        let data = blobs();
        let a = mean_shift_nd(&data, 3, MeanShiftNdParams::new(20.0));
        let b = mean_shift_nd(&data, 3, MeanShiftNdParams::new(20.0));
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.modes, b.modes);
    }

    #[test]
    fn mean_shift_nd_single_point_is_its_own_mode() {
        let r = mean_shift_nd(&[5.0, 5.0], 2, MeanShiftNdParams::new(1.0));
        assert_eq!(r.n_modes, 1);
        assert_eq!(r.labels, vec![Some(0)]);
    }
}
