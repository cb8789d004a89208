//! Pattern Extractor (paper §4.3): PrefixSpan coarse mining plus
//! Algorithm 4, *CounterpartCluster*.
//!
//! The extractor first mines frequent category sequences (coarse semantic
//! patterns) with PrefixSpan, then refines each coarse pattern spatially:
//! the k-th stay points of its member trajectories are clustered with OPTICS
//! (automatic threshold), and members are gathered into counterpart sets
//! that share a cluster at every position, respect the temporal constraint
//! `delta_t`, and keep every positional group denser than `rho`. Each
//! surviving counterpart set with support at least `sigma` becomes one
//! *fine-grained pattern*, represented by the member stay point closest to
//! each positional centroid.

use crate::error::{Degradation, MinerError};
use crate::params::MinerParams;
use crate::types::{Category, SemanticTrajectory, StayPoint};
use pm_cluster::{Optics, OpticsParams, OpticsScratch};
use pm_geo::{centroid, den, LocalPoint};
use pm_seqmine::{prefixspan, PrefixSpanParams};

/// The "default maximum distance threshold" OPTICS starts from (Algorithm 4
/// line 6). Only bounds work: groups wider than a kilometer could never pass
/// the density gate at any published `rho`.
const OPTICS_MAX_EPS: f64 = 1_000.0;

/// A fine-grained semantic pattern (Definition 11) as produced by
/// Algorithm 4.
#[derive(Debug, Clone)]
pub struct FinePattern {
    /// The semantic category at each position (the list `O`).
    pub categories: Vec<Category>,
    /// Representative stay points: per position, the member stay point
    /// closest to the positional centroid, with the group's average time.
    pub stays: Vec<StayPoint>,
    /// Indices (into the input database) of the member trajectories — the
    /// counterpart set `C_CP^m`. Its size is the pattern's support.
    pub members: Vec<usize>,
    /// Per-position stay-point groups (Definition 10), used by the
    /// evaluation metrics (Eq. 9–12).
    pub groups: Vec<Vec<StayPoint>>,
}

impl FinePattern {
    /// The pattern's support: the number of member trajectories.
    pub fn support(&self) -> usize {
        self.members.len()
    }

    /// Pattern length in stay points.
    pub fn len(&self) -> usize {
        self.categories.len()
    }

    /// Whether the pattern has no positions (never produced by the miner).
    pub fn is_empty(&self) -> bool {
        self.categories.is_empty()
    }

    /// Compact human-readable form, e.g. `Residence -> Business & Office`.
    pub fn describe(&self) -> String {
        self.categories
            .iter()
            .map(|c| c.name())
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// One member trajectory of a coarse pattern: which database trajectory and
/// which stay-point index realizes each pattern position.
#[derive(Debug, Clone)]
struct Member {
    traj: usize,
    stay_at: Vec<usize>,
}

/// Mines all fine-grained patterns of `db` — PrefixSpan followed by
/// Algorithm 4 per coarse pattern. Output is deterministic: sorted by
/// descending support, then by category sequence.
///
/// Convenience wrapper over [`extract_patterns_observed`] that discards
/// degradation events.
pub fn extract_patterns(
    db: &[SemanticTrajectory],
    params: &MinerParams,
) -> Result<Vec<FinePattern>, MinerError> {
    let mut events = Vec::new();
    extract_patterns_observed(db, params, &mut events, &pm_obs::Obs::noop())
}

/// Like [`extract_patterns`], additionally recording recoverable trouble:
/// tagged stay points with non-finite positions are excluded from the
/// sequences (they cannot be clustered or represent a pattern position) and
/// reported as [`Degradation::SkippedExtractionStays`].
///
/// Sequence building, PrefixSpan, and the counterpart refinement are timed
/// as `extract.*` spans (the per-pattern OPTICS runs additionally record
/// `cluster.optics` spans on their worker threads), and coarse/fine pattern
/// counts are recorded. The mined patterns are byte-identical under
/// [`pm_obs::Obs::noop`].
pub fn extract_patterns_observed(
    db: &[SemanticTrajectory],
    params: &MinerParams,
    events: &mut Vec<Degradation>,
    obs: &pm_obs::Obs,
) -> Result<Vec<FinePattern>, MinerError> {
    params.validate()?;

    // Category sequences plus the mapping back from sequence positions to
    // stay indices (untagged and non-finite stay points are skipped).
    let span = obs.span("extract.sequences");
    let mut n_skipped = 0usize;
    let mut sequences: Vec<Vec<u32>> = Vec::with_capacity(db.len());
    let mut stay_of_item: Vec<Vec<usize>> = Vec::with_capacity(db.len());
    for st in db {
        let mut seq = Vec::new();
        let mut map = Vec::new();
        for (i, sp) in st.stays.iter().enumerate() {
            if let Some(cat) = sp.primary_category() {
                if !(sp.pos.x.is_finite() && sp.pos.y.is_finite()) {
                    n_skipped += 1;
                    continue;
                }
                seq.push(cat as u32);
                map.push(i);
            }
        }
        sequences.push(seq);
        stay_of_item.push(map);
    }
    if n_skipped > 0 {
        events.push(Degradation::SkippedExtractionStays { count: n_skipped });
    }
    span.finish();
    obs.incr(
        "extract.sequence_items",
        sequences.iter().map(|s| s.len() as u64).sum(),
    );

    let span = obs.span("extract.prefixspan");
    let coarse = prefixspan(
        &sequences,
        PrefixSpanParams::new(params.sigma, params.min_pattern_len, params.max_pattern_len),
    );
    span.finish();
    obs.incr("extract.coarse_patterns", coarse.len() as u64);

    // Algorithm 4 refines every coarse pattern independently (its OPTICS
    // runs and counterpart filtering read only that pattern's members), so
    // the per-pattern work fans out over `params.threads` workers — with
    // work stealing, because pattern sizes are heavily skewed (one popular
    // commute pattern can carry most of the occurrences) and a chunked
    // split would serialize on whichever worker drew the giant. Each
    // invocation fills its own pattern-local list; flattening in coarse
    // order reproduces the serial loop's emission order byte for byte.
    let span = obs.span("extract.counterpart");
    let per_pattern: Vec<Vec<FinePattern>> =
        pm_runtime::par_map_stealing(&coarse, params.threads, |pattern| {
            let categories: Vec<Category> = pattern
                .items
                .iter()
                .map(|&i| Category::from_index(i as usize))
                .collect();
            let members: Vec<Member> = pattern
                .occurrences
                .iter()
                .map(|occ| Member {
                    traj: occ.seq,
                    stay_at: occ
                        .positions
                        .iter()
                        .map(|&p| stay_of_item[occ.seq][p])
                        .collect(),
                })
                .collect();
            let mut local = Vec::new();
            counterpart_cluster(db, &categories, members, params, obs, &mut local);
            local
        });
    span.finish();
    let mut out: Vec<FinePattern> = per_pattern.into_iter().flatten().collect();
    obs.incr("extract.fine_patterns", out.len() as u64);

    out.sort_by(|a, b| {
        b.support()
            .cmp(&a.support())
            .then_with(|| a.categories.cmp(&b.categories))
            .then_with(|| {
                a.stays[0]
                    .pos
                    .x
                    .total_cmp(&b.stays[0].pos.x)
                    .then(a.stays[0].pos.y.total_cmp(&b.stays[0].pos.y))
            })
    });
    Ok(out)
}

/// Algorithm 4 applied to one coarse pattern.
fn counterpart_cluster(
    db: &[SemanticTrajectory],
    categories: &[Category],
    members: Vec<Member>,
    params: &MinerParams,
    obs: &pm_obs::Obs,
    out: &mut Vec<FinePattern>,
) {
    let m = categories.len();
    if members.len() < params.sigma || m == 0 {
        return;
    }
    let stay = |mem: &Member, k: usize| -> &StayPoint { &db[mem.traj].stays[mem.stay_at[k]] };

    // Line 5–6: OPTICS clustering of the k-th points, one run per position.
    // One scratch (coordinate columns, sweep buffers) and one input buffer
    // serve all m positions — the per-position allocations would otherwise
    // dominate small coarse patterns.
    let optics_params = OpticsParams::new(OPTICS_MAX_EPS, params.sigma);
    let mut scratch = OpticsScratch::default();
    let mut pts: Vec<LocalPoint> = Vec::with_capacity(members.len());
    let labels: Vec<Vec<Option<usize>>> = (0..m)
        .map(|k| {
            pts.clear();
            pts.extend(members.iter().map(|mem| stay(mem, k).pos));
            Optics::run_obs_with_scratch(&pts, optics_params, obs, &mut scratch)
                .extract_auto()
                .labels
        })
        .collect();

    // Lines 7–20, with `pa` as a removal mask. The pseudo code iterates
    // "for each ST_i in pa" while deleting from pa; we take the first
    // remaining member as the next reference, which visits exactly the
    // trajectories still in pa. `cand` and the density-gate point buffer
    // are reused across references.
    let mut in_pa = vec![true; members.len()];
    let mut cand: Vec<usize> = Vec::with_capacity(members.len());
    while let Some(i) = in_pa.iter().position(|&alive| alive) {
        cand.clear();
        cand.extend((0..members.len()).filter(|&j| in_pa[j]));
        let mut valid = true;
        #[allow(clippy::needless_range_loop)] // k indexes stays and labels in lockstep
        for k in 0..m {
            // Line 10: keep members sharing ST_i's cluster at position k.
            // Noise points (no cluster) only match themselves.
            cand.retain(|&j| j == i || (labels[k][j].is_some() && labels[k][j] == labels[k][i]));
            // Lines 11–12: temporal constraint between consecutive stays.
            if k > 0 {
                cand.retain(|&j| {
                    let gap = stay(&members[j], k).time - stay(&members[j], k - 1).time;
                    gap.abs() < params.delta_t
                });
            }
            // Lines 13–14: density gate on the positional group.
            pts.clear();
            pts.extend(cand.iter().map(|&j| stay(&members[j], k).pos));
            if den(&pts) < params.rho {
                for &j in &cand {
                    in_pa[j] = false;
                }
                valid = false;
                break;
            }
        }
        // Line 15: remove the counterpart set from pa. The reference leaves
        // pa regardless so the loop always progresses.
        for &j in &cand {
            in_pa[j] = false;
        }
        in_pa[i] = false;

        // Lines 16–20: emit when the counterpart set clears the support bar.
        if !valid || cand.len() < params.sigma {
            continue;
        }
        let groups: Vec<Vec<StayPoint>> = (0..m)
            .map(|k| cand.iter().map(|&j| *stay(&members[j], k)).collect())
            .collect();
        // `representative` is None only for an empty group, which cannot
        // happen here (`cand` is non-empty); skipping is the defined
        // fallback rather than a panic.
        let Some(stays) = groups
            .iter()
            .map(|group| representative(group))
            .collect::<Option<Vec<StayPoint>>>()
        else {
            continue;
        };
        out.push(FinePattern {
            categories: categories.to_vec(),
            stays,
            members: cand.iter().map(|&j| members[j].traj).collect(),
            groups,
        });
    }
}

/// Line 19: the member stay point closest to the group centroid, stamped
/// with the group's average time (128-bit accumulation, so corrupted
/// timestamps cannot overflow). `None` for an empty group.
fn representative(group: &[StayPoint]) -> Option<StayPoint> {
    let pts: Vec<LocalPoint> = group.iter().map(|sp| sp.pos).collect();
    let center = centroid(&pts)?;
    let closest = group.iter().min_by(|a, b| {
        a.pos
            .distance_sq(&center)
            .total_cmp(&b.pos.distance_sq(&center))
    })?;
    let avg_time =
        (group.iter().map(|sp| sp.time as i128).sum::<i128>() / group.len() as i128) as i64;
    Some(StayPoint::new(closest.pos, avg_time, closest.tags))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Tags;

    fn sp(x: f64, y: f64, t: i64, c: Category) -> StayPoint {
        StayPoint::new(LocalPoint::new(x, y), t, Tags::only(c))
    }

    fn small_params() -> MinerParams {
        MinerParams {
            sigma: 5,
            rho: 0.0005,
            ..MinerParams::default()
        }
    }

    /// 20 commuters: Residence (0,0) -> Business (2000,0), tight 30m jitter.
    fn commute_db(n: usize, jitter_step: f64) -> Vec<SemanticTrajectory> {
        (0..n)
            .map(|i| {
                let dx = (i % 5) as f64 * jitter_step;
                let dy = (i / 5 % 5) as f64 * jitter_step;
                let t0 = (i as i64 % 3) * 600;
                SemanticTrajectory::new(vec![
                    sp(dx, dy, t0 + 7 * 3600, Category::Residence),
                    sp(2_000.0 + dx, dy, t0 + 8 * 3600 - 900, Category::Business),
                ])
            })
            .collect()
    }

    #[test]
    fn mines_the_commute_pattern() {
        let db = commute_db(20, 8.0);
        let patterns = extract_patterns(&db, &small_params()).expect("extract");
        assert!(!patterns.is_empty());
        let best = &patterns[0];
        assert_eq!(
            best.categories,
            vec![Category::Residence, Category::Business]
        );
        assert_eq!(best.support(), 20);
        assert_eq!(best.describe(), "Residence -> Business & Office");
        // Representatives near the anchor centroids.
        assert!(best.stays[0].pos.distance(&LocalPoint::new(16.0, 16.0)) < 40.0);
        assert!(best.stays[1].pos.x > 1_900.0);
    }

    #[test]
    fn support_below_sigma_yields_nothing() {
        let db = commute_db(4, 8.0); // sigma = 5
        let patterns = extract_patterns(&db, &small_params()).expect("extract");
        assert!(patterns.is_empty());
    }

    #[test]
    fn spatially_split_origins_give_two_patterns() {
        // Two residential anchors 5km apart feeding the same office.
        let mut db = commute_db(10, 8.0);
        db.extend((0..10).map(|i| {
            let dx = (i % 5) as f64 * 8.0;
            SemanticTrajectory::new(vec![
                sp(5_000.0 + dx, 0.0, 7 * 3600, Category::Residence),
                sp(2_000.0 + dx, 0.0, 8 * 3600 - 900, Category::Business),
            ])
        }));
        let patterns = extract_patterns(&db, &small_params()).expect("extract");
        let commute: Vec<_> = patterns
            .iter()
            .filter(|p| p.categories == vec![Category::Residence, Category::Business])
            .collect();
        assert_eq!(
            commute.len(),
            2,
            "expected a pattern per residential anchor"
        );
        let mut supports: Vec<usize> = commute.iter().map(|p| p.support()).collect();
        supports.sort_unstable();
        assert_eq!(supports, vec![10, 10]);
    }

    #[test]
    fn temporal_constraint_filters_slow_members() {
        let mut db = commute_db(10, 8.0);
        // 10 more members whose second stay is 3h later (beyond delta_t=1h).
        db.extend((0..10).map(|i| {
            let dx = (i % 5) as f64 * 8.0;
            SemanticTrajectory::new(vec![
                sp(dx, 0.0, 7 * 3600, Category::Residence),
                sp(2_000.0 + dx, 0.0, 10 * 3600, Category::Business),
            ])
        }));
        let patterns = extract_patterns(&db, &small_params()).expect("extract");
        let best = patterns
            .iter()
            .find(|p| p.categories == vec![Category::Residence, Category::Business])
            .expect("commute pattern");
        assert_eq!(best.support(), 10, "slow members must be excluded");
    }

    #[test]
    fn density_gate_rejects_sparse_groups() {
        // Destinations scattered over tens of kilometers: the positional
        // group can never reach rho.
        let db: Vec<SemanticTrajectory> = (0..20)
            .map(|i| {
                SemanticTrajectory::new(vec![
                    sp((i % 5) as f64 * 8.0, 0.0, 7 * 3600, Category::Residence),
                    sp(
                        2_000.0 + i as f64 * 3_000.0,
                        0.0,
                        8 * 3600 - 900,
                        Category::Business,
                    ),
                ])
            })
            .collect();
        let params = MinerParams {
            sigma: 5,
            rho: 0.002,
            ..MinerParams::default()
        };
        let patterns = extract_patterns(&db, &params).expect("extract");
        assert!(
            patterns
                .iter()
                .all(|p| p.categories != vec![Category::Residence, Category::Business]),
            "sparse destination group must not form a fine pattern"
        );
    }

    #[test]
    fn three_leg_pattern() {
        let db: Vec<SemanticTrajectory> = (0..12)
            .map(|i| {
                let dx = (i % 4) as f64 * 10.0;
                SemanticTrajectory::new(vec![
                    sp(dx, 0.0, 7 * 3600, Category::Residence),
                    sp(2_000.0 + dx, 0.0, 8 * 3600 - 900, Category::Business),
                    sp(4_000.0 + dx, 0.0, 9 * 3600 - 1800, Category::Restaurant),
                ])
            })
            .collect();
        let patterns = extract_patterns(&db, &small_params()).expect("extract");
        let tri = patterns
            .iter()
            .find(|p| p.len() == 3)
            .expect("3-leg pattern");
        assert_eq!(
            tri.categories,
            vec![
                Category::Residence,
                Category::Business,
                Category::Restaurant
            ]
        );
        assert_eq!(tri.support(), 12);
        assert_eq!(tri.groups.len(), 3);
        assert!(tri.groups.iter().all(|g| g.len() == 12));
    }

    #[test]
    fn untagged_stays_are_ignored() {
        let db: Vec<SemanticTrajectory> = (0..8)
            .map(|i| {
                let dx = (i % 4) as f64 * 10.0;
                SemanticTrajectory::new(vec![
                    sp(dx, 0.0, 7 * 3600, Category::Residence),
                    StayPoint::untagged(LocalPoint::new(1_000.0, 0.0), 7 * 3600 + 1800),
                    sp(2_000.0 + dx, 0.0, 8 * 3600 - 900, Category::Business),
                ])
            })
            .collect();
        let patterns = extract_patterns(&db, &small_params()).expect("extract");
        let best = patterns
            .iter()
            .find(|p| p.categories == vec![Category::Residence, Category::Business])
            .expect("pattern mined across the untagged gap");
        assert_eq!(best.support(), 8);
    }

    #[test]
    fn empty_database() {
        assert!(extract_patterns(&[], &small_params())
            .expect("extract")
            .is_empty());
    }

    #[test]
    fn invalid_params_are_rejected() {
        let db = commute_db(5, 8.0);
        let bad = MinerParams {
            rho: f64::NAN,
            ..MinerParams::default()
        };
        assert!(extract_patterns(&db, &bad).is_err());
    }

    #[test]
    fn non_finite_stays_are_skipped_with_degradation() {
        // Corrupt one member's first stay: it drops out of the sequences,
        // the rest of the cohort still forms the pattern.
        let mut db = commute_db(21, 8.0);
        db[0].stays[0].pos = LocalPoint::new(f64::NAN, 0.0);
        let mut events = Vec::new();
        let patterns =
            extract_patterns_observed(&db, &small_params(), &mut events, &pm_obs::Obs::noop())
                .expect("extract");
        assert_eq!(
            events,
            vec![Degradation::SkippedExtractionStays { count: 1 }]
        );
        let best = patterns
            .iter()
            .find(|p| p.categories == vec![Category::Residence, Category::Business])
            .expect("commute pattern");
        assert_eq!(best.support(), 20);
        for p in &patterns {
            for sp in &p.stays {
                assert!(sp.pos.x.is_finite() && sp.pos.y.is_finite());
            }
        }
    }

    #[test]
    fn extreme_timestamps_do_not_overflow_representative() {
        // Stay times near i64::MAX: the group average is computed in
        // 128-bit, so summing 20 of them cannot overflow.
        let base = i64::MAX - 10;
        let db: Vec<SemanticTrajectory> = (0..20)
            .map(|i| {
                let dx = (i % 5) as f64 * 8.0;
                SemanticTrajectory::new(vec![
                    sp(dx, 0.0, base - 900, Category::Residence),
                    sp(2_000.0 + dx, 0.0, base, Category::Business),
                ])
            })
            .collect();
        let patterns = extract_patterns(&db, &small_params()).expect("extract");
        let best = patterns
            .iter()
            .find(|p| p.categories == vec![Category::Residence, Category::Business])
            .expect("commute pattern");
        assert!(best.stays[1].time > 0, "average must not wrap negative");
    }

    #[test]
    fn deterministic_output() {
        let db = commute_db(20, 8.0);
        let a = extract_patterns(&db, &small_params()).expect("extract");
        let b = extract_patterns(&db, &small_params()).expect("extract");
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.categories, y.categories);
            assert_eq!(x.members, y.members);
        }
    }

    #[test]
    fn representative_is_a_member_point() {
        let db = commute_db(20, 8.0);
        let patterns = extract_patterns(&db, &small_params()).expect("extract");
        let best = &patterns[0];
        for (k, rep) in best.stays.iter().enumerate() {
            assert!(
                best.groups[k].iter().any(|sp| sp.pos == rep.pos),
                "representative must be one of the group members"
            );
        }
    }
}
