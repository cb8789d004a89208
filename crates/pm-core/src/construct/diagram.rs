//! The assembled **City Semantic Diagram** (Definition 4).

use crate::construct::clustering::popularity_clustering;
use crate::construct::merge::{merge_units, unit_distribution};
use crate::construct::purify::purify_tracked;
use crate::error::{Degradation, MinerError};
use crate::params::MinerParams;
use crate::popularity::PopularityModel;
use crate::types::{Category, Poi, Tags};
use pm_geo::{centroid, GridIndex, LocalPoint};

/// One fine-grained semantic unit of the diagram (Definition 3): a small
/// region whose POIs are homogeneous in location or semantics.
#[derive(Debug, Clone)]
pub struct SemanticUnit {
    /// Indices into the diagram's POI slice.
    pub members: Vec<usize>,
    /// Union of the member categories.
    pub tags: Tags,
    /// Centroid of the member positions.
    pub center: LocalPoint,
    /// Eq. 6 popularity-weighted semantic distribution of the unit.
    pub distribution: [f64; Category::COUNT],
}

/// Which construction steps to run — the ablation knob for the
/// `ablation_purification` bench (DESIGN.md §4).
#[derive(Clone, Copy, Debug)]
pub struct ConstructionOptions {
    /// Run Algorithm 2 (semantic purification).
    pub purify: bool,
    /// Run the cosine merging step.
    pub merge: bool,
}

impl Default for ConstructionOptions {
    fn default() -> Self {
        Self {
            purify: true,
            merge: true,
        }
    }
}

/// Summary statistics of a construction run (used by the Fig. 6 bench in
/// lieu of the paper's map rendering).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuildStats {
    /// POIs in the input.
    pub n_pois: usize,
    /// Coarse clusters out of Algorithm 1.
    pub n_coarse: usize,
    /// Leftover POIs after Algorithm 1.
    pub n_leftover: usize,
    /// Units after purification (before merging).
    pub n_purified: usize,
    /// Final unit count.
    pub n_units: usize,
    /// POIs covered by final units.
    pub n_covered: usize,
    /// Fraction of final units that are single-category.
    pub purity: f64,
}

/// The City Semantic Diagram: the POI database organized into fine-grained
/// semantic units, with the spatial index and popularity model needed by
/// semantic recognition (Algorithm 3).
#[derive(Debug, Clone)]
pub struct CitySemanticDiagram {
    pois: Vec<Poi>,
    popularity: Vec<f64>,
    units: Vec<SemanticUnit>,
    /// `unit_of[i]` = unit owning POI `i`, if any.
    unit_of: Vec<Option<usize>>,
    /// The POI grid, listing only unit-owned POIs (see [`Self::from_parts`]).
    index: GridIndex,
    stats: BuildStats,
    degradations: Vec<Degradation>,
}

impl CitySemanticDiagram {
    /// Full three-step construction from a POI database and the stay-point
    /// corpus that defines popularity.
    ///
    /// Fails fast on invalid [`MinerParams`]. Degenerate *data* never fails
    /// the build: POIs and stay locations with non-finite coordinates are
    /// dropped and reported through [`Self::degradations`], and the diagram
    /// is built from what remains (its [`Self::pois`] slice reflects the
    /// retained POIs).
    pub fn build(
        pois: &[Poi],
        stay_points: &[LocalPoint],
        params: &MinerParams,
    ) -> Result<Self, MinerError> {
        Self::build_with_options(pois, stay_points, params, ConstructionOptions::default())
    }

    /// Construction with individual steps disabled (ablation studies).
    pub fn build_with_options(
        pois: &[Poi],
        stay_points: &[LocalPoint],
        params: &MinerParams,
        options: ConstructionOptions,
    ) -> Result<Self, MinerError> {
        Self::build_observed(pois, stay_points, params, options, &pm_obs::Obs::noop())
    }

    /// [`Self::build_with_options`] under observation: each construction
    /// phase is timed as a `construct.*` span and the phase outputs are
    /// counted. Observation is one-way — the diagram built is byte-identical
    /// to an unobserved build.
    pub fn build_observed(
        pois: &[Poi],
        stay_points: &[LocalPoint],
        params: &MinerParams,
        options: ConstructionOptions,
        obs: &pm_obs::Obs,
    ) -> Result<Self, MinerError> {
        params.validate()?;
        let mut degradations = Vec::new();
        obs.gauge("input.pois", pois.len() as f64);
        obs.gauge("input.stay_locations", stay_points.len() as f64);

        // Non-finite coordinates poison every later stage (popularity
        // kernels, variance tests, the grid index); drop them up front and
        // record how much was lost.
        let mut pois: Vec<Poi> = pois.to_vec();
        let n_input = pois.len();
        pois.retain(|p| p.pos.x.is_finite() && p.pos.y.is_finite());
        if pois.len() < n_input {
            degradations.push(Degradation::NonFinitePois {
                dropped: n_input - pois.len(),
            });
        }

        let n_bad_stays = stay_points
            .iter()
            .filter(|p| !(p.x.is_finite() && p.y.is_finite()))
            .count();
        let finite_stays: Vec<LocalPoint>;
        let stay_points: &[LocalPoint] = if n_bad_stays > 0 {
            degradations.push(Degradation::NonFiniteStayLocations {
                dropped: n_bad_stays,
            });
            finite_stays = stay_points
                .iter()
                .copied()
                .filter(|p| p.x.is_finite() && p.y.is_finite())
                .collect();
            &finite_stays
        } else {
            stay_points
        };

        let span = obs.span("construct.popularity_model");
        let model = PopularityModel::build(stay_points, params.r3sigma);
        let positions: Vec<LocalPoint> = pois.iter().map(|p| p.pos).collect();
        let popularity = model.popularity_of_threads(&positions, params.threads);
        span.finish();

        let span = obs.span("construct.clustering");
        let coarse = popularity_clustering(&pois, &popularity, params);
        span.finish();
        let n_coarse = coarse.clusters.len();
        let n_leftover = coarse.leftovers.len();
        obs.incr("construct.coarse_clusters", n_coarse as u64);
        obs.incr("construct.leftover_pois", n_leftover as u64);

        let span = obs.span("construct.purify");
        let purified = if options.purify {
            purify_tracked(&pois, coarse.clusters, params, &mut degradations)
        } else {
            coarse.clusters
        };
        span.finish();
        let n_purified = purified.len();
        obs.incr("construct.purified_units", n_purified as u64);

        let span = obs.span("construct.merge");
        let final_units = if options.merge {
            merge_units(&pois, &popularity, purified, &coarse.leftovers, params)
        } else {
            purified
        };
        span.finish();
        // Merging only ever fuses purified units (and absorbs leftovers), so
        // the drop in unit count is the number of merges applied.
        obs.incr(
            "construct.merges_applied",
            n_purified.saturating_sub(final_units.len()) as u64,
        );

        let span = obs.span("construct.assemble");
        let units: Vec<SemanticUnit> = final_units
            .into_iter()
            .map(|members| {
                let pts: Vec<LocalPoint> = members.iter().map(|&i| pois[i].pos).collect();
                let tags = members.iter().map(|&i| pois[i].category).collect();
                let distribution = unit_distribution(&pois, &popularity, &members);
                SemanticUnit {
                    center: centroid(&pts).unwrap_or(LocalPoint::ORIGIN),
                    members,
                    tags,
                    distribution,
                }
            })
            .collect();

        // `from_parts` below rejects a POI owned twice, so on success this
        // counts the owned POIs.
        let n_covered = units.iter().map(|u| u.members.len()).sum();
        let purity = if units.is_empty() {
            1.0
        } else {
            units.iter().filter(|u| u.tags.len() == 1).count() as f64 / units.len() as f64
        };
        let stats = BuildStats {
            n_pois: pois.len(),
            n_coarse,
            n_leftover,
            n_purified,
            n_units: units.len(),
            n_covered,
            purity,
        };

        let csd = Self::from_parts(pois, popularity, units, stats, degradations, params.r3sigma)?;
        span.finish();
        obs.incr("construct.final_units", stats.n_units as u64);
        obs.incr("construct.covered_pois", n_covered as u64);
        crate::error::record_degradations(obs, csd.degradations());
        Ok(csd)
    }

    /// Reassembles a diagram from previously serialized parts — the
    /// constructor behind `pm-store` artifact loading, and the last step of
    /// every build.
    ///
    /// The caller provides exactly the state a build would have produced:
    /// the retained POIs, their Eq. 3 popularity, the final units, the build
    /// stats, the tolerated degradations, and the grid cell size the build
    /// used (`MinerParams::r3sigma` at build time). Derived state — the
    /// POI→unit ownership map and the spatial index — is reconstructed
    /// deterministically, so a reassembled diagram is behaviourally
    /// identical to the one that was serialized.
    ///
    /// Fails with a typed [`MinerError::Construct`] (never panics) when the
    /// parts are inconsistent: popularity length mismatch, unit members out
    /// of range or owned by two units, or a non-positive cell size.
    pub fn from_parts(
        pois: Vec<Poi>,
        popularity: Vec<f64>,
        units: Vec<SemanticUnit>,
        stats: BuildStats,
        degradations: Vec<Degradation>,
        cell_size: f64,
    ) -> Result<Self, MinerError> {
        if popularity.len() != pois.len() {
            return Err(MinerError::construct(format!(
                "popularity length {} does not match POI count {}",
                popularity.len(),
                pois.len()
            )));
        }
        if !(cell_size.is_finite() && cell_size > 0.0) {
            return Err(MinerError::construct(format!(
                "grid cell size must be positive and finite, got {cell_size}"
            )));
        }
        let mut unit_of = vec![None; pois.len()];
        for (uid, unit) in units.iter().enumerate() {
            for &i in &unit.members {
                if i >= pois.len() {
                    return Err(MinerError::construct(format!(
                        "unit {uid} references POI {i} out of range ({} POIs)",
                        pois.len()
                    )));
                }
                if let Some(prev) = unit_of[i] {
                    return Err(MinerError::construct(format!(
                        "POI {i} owned by two units ({prev} and {uid})"
                    )));
                }
                unit_of[i] = Some(uid);
            }
        }
        // Algorithm 3 reads only unit-owned POIs. Building over all of them
        // keeps the geometry (and the effective cell size an artifact stores)
        // and the order a range query over all POIs lists the owned ones in.
        let positions: Vec<LocalPoint> = pois.iter().map(|p| p.pos).collect();
        let mut index = GridIndex::build(&positions, cell_size);
        index.retain(|i| unit_of[i].is_some());
        Ok(Self {
            pois,
            popularity,
            units,
            unit_of,
            index,
            stats,
            degradations,
        })
    }

    /// The fine-grained semantic units.
    pub fn units(&self) -> &[SemanticUnit] {
        &self.units
    }

    /// The Eq. 3 popularity of every retained POI, aligned with
    /// [`Self::pois`] — the serialization counterpart of
    /// [`Self::popularity`].
    pub fn popularities(&self) -> &[f64] {
        &self.popularity
    }

    /// The cell size the spatial index was *requested* with
    /// (`MinerParams::r3sigma` at build time) — what a serializer must
    /// store so [`Self::from_parts`] can rebuild the same index.
    pub fn grid_cell_size(&self) -> f64 {
        self.index.requested_cell_size()
    }

    /// The *effective* cell size of the spatial index (the requested size,
    /// possibly inflated by the grid's memory cap) — an integrity probe for
    /// artifact loaders.
    pub fn grid_cell_size_effective(&self) -> f64 {
        self.index.cell_size()
    }

    /// The POI database the diagram organizes.
    pub fn pois(&self) -> &[Poi] {
        &self.pois
    }

    /// Eq. 3 popularity of POI `idx` (0.0 for out-of-range indices).
    pub fn popularity(&self, idx: usize) -> f64 {
        self.popularity.get(idx).copied().unwrap_or(0.0)
    }

    /// `FindSemanticUnit`: the unit owning POI `idx`, if any.
    pub fn unit_of(&self, idx: usize) -> Option<usize> {
        self.unit_of.get(idx).copied().flatten()
    }

    /// Calls `visit(poi, distance_sq)` for every unit-owned POI within
    /// `radius` of `pos` — the `range` primitive of Algorithm 3 less the POIs
    /// that cast no vote — in the order a grid over all POIs lists them.
    pub fn for_each_owned_in_range(
        &self,
        pos: LocalPoint,
        radius: f64,
        visit: impl FnMut(usize, f64),
    ) {
        self.index.for_each_in_range(pos, radius, visit);
    }

    /// Construction summary statistics.
    pub fn stats(&self) -> BuildStats {
        self.stats
    }

    /// Recoverable trouble tolerated during construction (dropped
    /// non-finite records, clusters kept unsplit). Empty for clean input.
    pub fn degradations(&self) -> &[Degradation] {
        &self.degradations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owned_in_range(csd: &CitySemanticDiagram, pos: LocalPoint, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        csd.for_each_owned_in_range(pos, radius, |i, _| out.push(i));
        out
    }

    /// A tiny deterministic town: a shop street, an office block, and a
    /// mixed tower, plus popular stay locations near each.
    fn town() -> (Vec<Poi>, Vec<LocalPoint>) {
        let mut pois = Vec::new();
        let mut id = 0;
        let mut push = |pois: &mut Vec<Poi>, x: f64, y: f64, c: Category| {
            pois.push(Poi::new(id, LocalPoint::new(x, y), c));
            id += 1;
        };
        for i in 0..8 {
            push(&mut pois, i as f64 * 15.0, 0.0, Category::Shop);
        }
        for i in 0..8 {
            push(
                &mut pois,
                1_000.0 + i as f64 * 15.0,
                0.0,
                Category::Business,
            );
        }
        for i in 0..6 {
            let (dx, dy) = ((i % 3) as f64 * 4.0, (i / 3) as f64 * 4.0);
            let c = [Category::Hotel, Category::Restaurant, Category::Shop][i % 3];
            push(&mut pois, 2_000.0 + dx, dy, c);
        }
        let mut stays = Vec::new();
        for anchor in [0.0, 1_000.0, 2_000.0] {
            for k in 0..40 {
                stays.push(LocalPoint::new(
                    anchor + (k % 7) as f64 * 9.0,
                    (k % 5) as f64 * 8.0,
                ));
            }
        }
        (pois, stays)
    }

    #[test]
    fn builds_three_units_for_three_places() {
        let (pois, stays) = town();
        let params = MinerParams {
            min_pts: 4,
            n_min: 4,
            ..MinerParams::default()
        };
        let csd = CitySemanticDiagram::build(&pois, &stays, &params).expect("build");
        assert_eq!(csd.units().len(), 3, "stats: {:?}", csd.stats());
        // The tower unit is multi-category, the street/block units are pure.
        let multi = csd.units().iter().filter(|u| u.tags.len() > 1).count();
        assert_eq!(multi, 1);
    }

    #[test]
    fn unit_of_is_consistent_with_members() {
        let (pois, stays) = town();
        let params = MinerParams {
            min_pts: 4,
            ..MinerParams::default()
        };
        let csd = CitySemanticDiagram::build(&pois, &stays, &params).expect("build");
        for (uid, unit) in csd.units().iter().enumerate() {
            for &i in &unit.members {
                assert_eq!(csd.unit_of(i), Some(uid));
            }
        }
    }

    #[test]
    fn range_query_returns_nearby_pois() {
        let (pois, stays) = town();
        let csd =
            CitySemanticDiagram::build(&pois, &stays, &MinerParams::default()).expect("build");
        let hits = owned_in_range(&csd, LocalPoint::new(0.0, 0.0), 100.0);
        assert!(hits.len() >= 7);
        assert!(hits
            .iter()
            .all(|&i| csd.pois()[i].pos.distance(&LocalPoint::ORIGIN) <= 100.0));
        // Every owned POI in the disk is visited, and no other.
        let want: Vec<usize> = (0..csd.pois().len())
            .filter(|&i| csd.unit_of(i).is_some())
            .filter(|&i| csd.pois()[i].pos.distance(&LocalPoint::ORIGIN) <= 100.0)
            .collect();
        let mut sorted = hits.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, want);
    }

    #[test]
    fn stats_are_coherent() {
        let (pois, stays) = town();
        let params = MinerParams {
            min_pts: 4,
            ..MinerParams::default()
        };
        let csd = CitySemanticDiagram::build(&pois, &stays, &params).expect("build");
        let s = csd.stats();
        assert_eq!(s.n_pois, pois.len());
        assert!(s.n_covered <= s.n_pois);
        assert!(s.n_units >= 1);
        assert!((0.0..=1.0).contains(&s.purity));
    }

    #[test]
    fn ablation_options_change_the_output() {
        let (pois, stays) = town();
        let params = MinerParams {
            min_pts: 4,
            ..MinerParams::default()
        };
        let full = CitySemanticDiagram::build(&pois, &stays, &params).expect("build");
        let no_merge = CitySemanticDiagram::build_with_options(
            &pois,
            &stays,
            &params,
            ConstructionOptions {
                purify: true,
                merge: false,
            },
        )
        .expect("build");
        // Without merging, leftover POIs stay uncovered.
        assert!(no_merge.stats().n_covered <= full.stats().n_covered);
    }

    #[test]
    fn empty_inputs_build_empty_diagram() {
        let csd = CitySemanticDiagram::build(&[], &[], &MinerParams::default()).expect("build");
        assert!(csd.units().is_empty());
        assert!(owned_in_range(&csd, LocalPoint::ORIGIN, 1_000.0).is_empty());
        assert_eq!(csd.stats().n_units, 0);
        assert!(csd.degradations().is_empty());
    }

    #[test]
    fn invalid_params_fail_without_panicking() {
        let (pois, stays) = town();
        let bad = MinerParams {
            alpha: 5.0,
            ..MinerParams::default()
        };
        let err = CitySemanticDiagram::build(&pois, &stays, &bad).unwrap_err();
        assert_eq!(err.stage(), "params");
    }

    #[test]
    fn non_finite_inputs_degrade_gracefully() {
        let (mut pois, mut stays) = town();
        let next_id = pois.len() as u64;
        pois.push(Poi::new(
            next_id,
            LocalPoint::new(f64::NAN, 0.0),
            Category::Shop,
        ));
        pois.push(Poi::new(
            next_id + 1,
            LocalPoint::new(f64::INFINITY, f64::NEG_INFINITY),
            Category::Hotel,
        ));
        stays.push(LocalPoint::new(f64::NAN, f64::NAN));
        let params = MinerParams {
            min_pts: 4,
            n_min: 4,
            ..MinerParams::default()
        };
        let csd = CitySemanticDiagram::build(&pois, &stays, &params).expect("build");
        // The corrupt records are excluded, the clean diagram is unchanged.
        assert_eq!(csd.pois().len(), pois.len() - 2);
        assert_eq!(csd.units().len(), 3, "stats: {:?}", csd.stats());
        assert!(csd
            .degradations()
            .contains(&Degradation::NonFinitePois { dropped: 2 }));
        assert!(csd
            .degradations()
            .contains(&Degradation::NonFiniteStayLocations { dropped: 1 }));
    }

    #[test]
    fn out_of_range_accessors_are_tolerant() {
        let (pois, stays) = town();
        let csd =
            CitySemanticDiagram::build(&pois, &stays, &MinerParams::default()).expect("build");
        assert_eq!(csd.popularity(usize::MAX), 0.0);
        assert_eq!(csd.unit_of(usize::MAX), None);
    }
}
