//! POI popularity estimation from stay-point density (paper Eq. 2–3).
//!
//! The popularity of a POI is the kernel-density estimate of stay points
//! around it: every historical pick-up/drop-off within `R_3sigma` of the POI
//! contributes its Gaussian coefficient. The Gaussian models GPS noise — a
//! recorded stop is evidence for the *area* around it, not the exact point.

use pm_cluster::GaussianKernel;
use pm_geo::{GridIndex, LocalPoint};

/// Kernel-density popularity model over a stay-point corpus.
#[derive(Debug, Clone)]
pub struct PopularityModel {
    kernel: GaussianKernel,
    stays: GridIndex,
}

impl PopularityModel {
    /// Builds the model from the corpus of stay-point locations (`D_sp` in
    /// the paper) and the GPS-noise radius `R_3sigma`.
    pub fn build(stay_points: &[LocalPoint], r3sigma: f64) -> Self {
        Self {
            kernel: GaussianKernel::new(r3sigma),
            stays: GridIndex::build(stay_points, r3sigma),
        }
    }

    /// Eq. 3: the popularity of a location — the sum of Gaussian
    /// coefficients of all stay points within `R_3sigma`.
    pub fn popularity(&self, pos: LocalPoint) -> f64 {
        let mut total = 0.0;
        self.stays
            .for_each_in_range(pos, self.kernel.cutoff(), |_, d_sq| {
                total += self.kernel.coeff_at(d_sq.sqrt());
            });
        total
    }

    /// Batch popularity across `threads` workers (`0` = all cores).
    ///
    /// Each query position is an independent kernel sum over its own
    /// neighbourhood, so workers fill disjoint slots of the output and the
    /// per-slot accumulation order is the index order of the grid cells —
    /// the result is bit-identical for every thread count.
    pub fn popularity_of_threads(&self, positions: &[LocalPoint], threads: usize) -> Vec<f64> {
        pm_runtime::par_map(positions, threads, |p| self.popularity(*p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_corpus_gives_zero_popularity() {
        let m = PopularityModel::build(&[], 100.0);
        assert_eq!(m.popularity(LocalPoint::ORIGIN), 0.0);
    }

    #[test]
    fn popularity_scales_with_stay_count() {
        let near: Vec<LocalPoint> = (0..10).map(|i| LocalPoint::new(i as f64, 0.0)).collect();
        let m1 = PopularityModel::build(&near, 100.0);
        let mut doubled = near.clone();
        doubled.extend(near.iter().copied());
        let m2 = PopularityModel::build(&doubled, 100.0);
        let p1 = m1.popularity(LocalPoint::ORIGIN);
        let p2 = m2.popularity(LocalPoint::ORIGIN);
        assert!((p2 - 2.0 * p1).abs() < 1e-9);
    }

    #[test]
    fn closer_stays_contribute_more() {
        let m_near = PopularityModel::build(&[LocalPoint::new(10.0, 0.0)], 100.0);
        let m_far = PopularityModel::build(&[LocalPoint::new(90.0, 0.0)], 100.0);
        assert!(m_near.popularity(LocalPoint::ORIGIN) > m_far.popularity(LocalPoint::ORIGIN));
    }

    #[test]
    fn stays_beyond_cutoff_are_ignored() {
        let m = PopularityModel::build(&[LocalPoint::new(150.0, 0.0)], 100.0);
        assert_eq!(m.popularity(LocalPoint::ORIGIN), 0.0);
    }

    #[test]
    fn batch_matches_single() {
        let stays: Vec<LocalPoint> = (0..20)
            .map(|i| LocalPoint::new((i * 13 % 70) as f64, (i * 7 % 50) as f64))
            .collect();
        let m = PopularityModel::build(&stays, 100.0);
        let queries = [LocalPoint::ORIGIN, LocalPoint::new(40.0, 20.0)];
        let batch = m.popularity_of_threads(&queries, 1);
        assert_eq!(batch[0], m.popularity(queries[0]));
        assert_eq!(batch[1], m.popularity(queries[1]));
    }

    #[test]
    fn threaded_batch_is_bit_identical_to_serial() {
        let stays: Vec<LocalPoint> = (0..300)
            .map(|i| LocalPoint::new((i * 17 % 500) as f64, (i * 29 % 400) as f64))
            .collect();
        let m = PopularityModel::build(&stays, 100.0);
        let queries: Vec<LocalPoint> = (0..97)
            .map(|i| LocalPoint::new((i * 41 % 520) as f64, (i * 13 % 410) as f64))
            .collect();
        let serial = m.popularity_of_threads(&queries, 1);
        for threads in [2, 4, 7] {
            let parallel = m.popularity_of_threads(&queries, threads);
            assert_eq!(serial.len(), parallel.len());
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads = {threads}");
            }
        }
    }

    #[test]
    fn popularity_is_the_range_sum_of_eq2_bit_for_bit() {
        // Eq. 3 as summed before the visitor: `range`, then `coeff(stay, pos)`.
        let stays: Vec<LocalPoint> = (0..400)
            .map(|i| LocalPoint::new((i * 37 % 613) as f64 * 0.73, (i * 53 % 401) as f64 * 1.19))
            .collect();
        let m = PopularityModel::build(&stays, 100.0);
        let kernel = GaussianKernel::new(100.0);
        for i in 0..60 {
            let q = LocalPoint::new((i * 29 % 480) as f64 * 0.91, (i * 17 % 500) as f64 * 0.97);
            let mut want = 0.0;
            for idx in m.stays.range(q, 100.0) {
                want += kernel.coeff(stays[idx], q);
            }
            assert_eq!(m.popularity(q).to_bits(), want.to_bits(), "query {i}");
        }
    }

    #[test]
    fn popularity_peak_matches_eq2_peak() {
        // A single stay point exactly at the query: popularity equals the
        // kernel peak value.
        let m = PopularityModel::build(&[LocalPoint::ORIGIN], 100.0);
        let peak = GaussianKernel::new(100.0).coeff_at(0.0);
        assert!((m.popularity(LocalPoint::ORIGIN) - peak).abs() < 1e-12);
    }
}
