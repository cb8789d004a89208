//! The Gaussian distribution coefficient of the paper's Eq. 2.

use pm_geo::LocalPoint;

/// Gaussian kernel parameterized by the paper's `R_3sigma` cut-off radius.
///
/// The paper models GPS noise as an isotropic Gaussian whose 3-sigma circle
/// has radius `R_3sigma` (100 m in all experiments), so the kernel standard
/// deviation is `R_3sigma / 3`. Contributions beyond the cut-off are treated
/// as zero (Eq. 3 only sums stay points with `d < R_3sigma`).
#[derive(Clone, Copy, Debug)]
pub struct GaussianKernel {
    r3sigma: f64,
    sigma: f64,
    norm: f64,
}

impl GaussianKernel {
    /// Creates a kernel with the given 3-sigma cut-off radius in meters.
    ///
    /// # Panics
    /// Panics unless `r3sigma` is strictly positive and finite.
    pub fn new(r3sigma: f64) -> Self {
        assert!(
            r3sigma.is_finite() && r3sigma > 0.0,
            "R_3sigma must be positive, got {r3sigma}"
        );
        let sigma = r3sigma / 3.0;
        Self {
            r3sigma,
            sigma,
            norm: 1.0 / (sigma * (2.0 * std::f64::consts::PI).sqrt()),
        }
    }

    /// The cut-off radius `R_3sigma` in meters.
    pub fn cutoff(&self) -> f64 {
        self.r3sigma
    }

    /// Eq. 2 evaluated at distance `d` meters:
    /// `||p, p'|| = 1/((R/3) sqrt(2 pi)) * exp(-d^2 / (2 (R/3)^2))`.
    ///
    /// Distances beyond the cut-off evaluate to exactly 0 so that kernel
    /// sums match the paper's truncated summation (Eq. 3).
    pub fn coeff_at(&self, d: f64) -> f64 {
        if d >= self.r3sigma {
            return 0.0;
        }
        self.norm * (-d * d / (2.0 * self.sigma * self.sigma)).exp()
    }

    /// Eq. 2 between two local points.
    pub fn coeff(&self, a: LocalPoint, b: LocalPoint) -> f64 {
        self.coeff_at(a.distance(&b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_at_zero_distance() {
        let k = GaussianKernel::new(100.0);
        let at0 = k.coeff_at(0.0);
        // 1 / ((100/3) * sqrt(2 pi))
        let expected = 1.0 / ((100.0 / 3.0) * (2.0 * std::f64::consts::PI).sqrt());
        assert!((at0 - expected).abs() < 1e-12);
    }

    #[test]
    fn monotonically_decreasing() {
        let k = GaussianKernel::new(100.0);
        let mut prev = k.coeff_at(0.0);
        for d in (1..100).map(|i| i as f64) {
            let cur = k.coeff_at(d);
            assert!(cur < prev, "not decreasing at d={d}");
            prev = cur;
        }
    }

    #[test]
    fn zero_beyond_cutoff() {
        let k = GaussianKernel::new(100.0);
        assert_eq!(k.coeff_at(100.0), 0.0);
        assert_eq!(k.coeff_at(250.0), 0.0);
        assert!(k.coeff_at(99.9) > 0.0);
    }

    #[test]
    fn three_sigma_mass() {
        // At the cut-off the unclipped kernel value is exp(-4.5) of the peak.
        let k = GaussianKernel::new(99.0);
        let ratio = k.coeff_at(98.999) / k.coeff_at(0.0);
        assert!((ratio - (-4.5f64).exp()).abs() < 1e-3, "ratio {ratio}");
    }

    #[test]
    fn point_form_matches_distance_form() {
        let k = GaussianKernel::new(100.0);
        let a = LocalPoint::new(0.0, 0.0);
        let b = LocalPoint::new(30.0, 40.0);
        assert_eq!(k.coeff(a, b), k.coeff_at(50.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_radius() {
        let _ = GaussianKernel::new(0.0);
    }
}
