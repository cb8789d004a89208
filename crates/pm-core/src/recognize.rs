//! Semantic Recognizer (paper §4.2): stay-point detection (Definition 5)
//! and unit-level voting (Algorithm 3).

use crate::construct::CitySemanticDiagram;
use crate::error::{Degradation, MinerError};
use crate::params::MinerParams;
use crate::types::{Category, GpsPoint, GpsTrajectory, SemanticTrajectory, StayPoint, Tags};
use pm_cluster::GaussianKernel;
use pm_geo::LocalPoint;

/// Detects the stay points of a raw GPS trajectory per Definition 5.
///
/// Convenience wrapper over [`detect_stay_points_tracked`] that discards
/// degradation events.
pub fn detect_stay_points(traj: &GpsTrajectory, params: &MinerParams) -> Vec<StayPoint> {
    let mut events = Vec::new();
    detect_stay_points_tracked(traj, params, &mut events)
}

/// Detects stay points, recording recoverable trouble in `events`.
///
/// A maximal sub-trajectory whose fixes all stay within `theta_d` of its
/// first fix and which spans at least `theta_t` seconds collapses into one
/// stay point at the mean position/time of the window. (The taxi corpus of
/// §5 bypasses this — pick-up/drop-off records *are* the stay points — but
/// the general detector is part of the published system.)
///
/// Fixes with non-finite coordinates are dropped before detection (reported
/// as [`Degradation::DroppedGpsFixes`]); time arithmetic saturates and
/// averages in 128-bit so corrupted timestamps cannot overflow.
pub fn detect_stay_points_tracked(
    traj: &GpsTrajectory,
    params: &MinerParams,
    events: &mut Vec<Degradation>,
) -> Vec<StayPoint> {
    let n_bad = traj
        .points
        .iter()
        .filter(|p| !(p.pos.x.is_finite() && p.pos.y.is_finite()))
        .count();
    let finite: Vec<GpsPoint>;
    let pts: &[GpsPoint] = if n_bad > 0 {
        events.push(Degradation::DroppedGpsFixes { count: n_bad });
        finite = traj
            .points
            .iter()
            .filter(|p| p.pos.x.is_finite() && p.pos.y.is_finite())
            .copied()
            .collect();
        &finite
    } else {
        &traj.points
    };

    let mut stays = Vec::new();
    let mut i = 0;
    while i < pts.len() {
        // Grow the window while every fix stays within theta_d of fix i.
        let mut j = i;
        while j + 1 < pts.len() && pts[j + 1].pos.distance(&pts[i].pos) <= params.theta_d {
            j += 1;
        }
        if pts[j].time.saturating_sub(pts[i].time) >= params.theta_t {
            stays.push(collapse_window(&pts[i..=j]));
            i = j + 1;
        } else {
            i += 1;
        }
    }
    stays
}

/// Collapses one dwell window — a run of fixes all within `theta_d` of its
/// first fix — into its stay point: mean position, mean timestamp.
///
/// This is the single arithmetic used by both the batch detector above and
/// pm-stream's incremental detector, so their outputs are bit-identical:
/// positions sum in encounter order and times average in 128-bit, exactly
/// as [`detect_stay_points_tracked`] always did. An empty window yields an
/// origin stay at time 0 rather than panicking (callers never pass one).
pub fn collapse_window(window: &[GpsPoint]) -> StayPoint {
    let n = window.len().max(1);
    let mut sum = LocalPoint::ORIGIN;
    let mut t_sum: i128 = 0;
    for p in window {
        sum = sum + p.pos;
        t_sum += p.time as i128;
    }
    StayPoint::untagged(sum / n as f64, (t_sum / n as i128) as i64)
}

/// Converts a GPS trajectory into an (untagged) semantic trajectory — the
/// `SemanticTrajectory` function invoked in Algorithm 3 line 3.
pub fn semantic_trajectory(traj: &GpsTrajectory, params: &MinerParams) -> SemanticTrajectory {
    SemanticTrajectory::new(detect_stay_points(traj, params))
}

/// Definition 5 over a whole corpus: stay-point detection of every raw
/// trajectory, fanned out over `params.threads` workers (each journey is
/// independent, so workers fill disjoint output slots and the result is
/// bit-identical to the serial loop). Degradation events are folded back in
/// trajectory order, exactly as a serial sweep would record them.
///
/// The corpus sweep is timed as a `recognize.stay_detect` span and the
/// extracted stay points are counted; pass [`pm_obs::Obs::noop`] to skip
/// both. The detected stay points are byte-identical either way.
pub fn detect_all_stay_points_observed(
    trajectories: &[GpsTrajectory],
    params: &MinerParams,
    events: &mut Vec<Degradation>,
    obs: &pm_obs::Obs,
) -> Vec<Vec<StayPoint>> {
    let span = obs.span("recognize.stay_detect");
    let per_traj = pm_runtime::par_map(trajectories, params.threads, |traj| {
        let mut local = Vec::new();
        let stays = detect_stay_points_tracked(traj, params, &mut local);
        (stays, local)
    });
    let mut out = Vec::with_capacity(per_traj.len());
    for (stays, local) in per_traj {
        events.extend(local);
        out.push(stays);
    }
    span.finish();
    obs.incr(
        "recognize.stay_points",
        out.iter().map(|s| s.len() as u64).sum(),
    );
    out
}

/// Batch form of [`semantic_trajectory`]: Definition 5 across the corpus on
/// `params.threads` workers, discarding degradation events.
pub fn semantic_trajectories_of(
    trajectories: &[GpsTrajectory],
    params: &MinerParams,
) -> Vec<SemanticTrajectory> {
    let mut events = Vec::new();
    detect_all_stay_points_observed(trajectories, params, &mut events, &pm_obs::Obs::noop())
        .into_iter()
        .map(SemanticTrajectory::new)
        .collect()
}

/// Algorithm 3 lines 4–11: assigns the semantic property of one stay point
/// by weighted voting among the fine-grained units around it.
///
/// Every POI within `R_3sigma` votes for its unit with weight
/// `pop(p) * ||p, sp||`; the winning unit donates the union of categories of
/// its *in-range* members. Stay points with no unit-owned POI in range stay
/// untagged ([`Tags::EMPTY`]).
pub fn recognize_stay_point(
    csd: &CitySemanticDiagram,
    kernel: &GaussianKernel,
    pos: LocalPoint,
) -> Tags {
    recognize_stay_point_full(csd, kernel, pos).0
}

/// Like [`recognize_stay_point`], additionally returning the *primary*
/// category: the strongest-voting category within the winning unit, which
/// drives the sequence-mining item for multi-tag units.
pub fn recognize_stay_point_full(
    csd: &CitySemanticDiagram,
    kernel: &GaussianKernel,
    pos: LocalPoint,
) -> (Tags, Option<Category>) {
    let (_unit, tags, primary, _ballots) = vote(csd, kernel, pos);
    (tags, primary)
}

/// Like [`recognize_stay_point_full`], additionally returning the id of the
/// winning semantic unit (an index into
/// [`CitySemanticDiagram::units`](crate::construct::CitySemanticDiagram::units)).
/// This is the point-lookup primitive of the online query service: "which
/// unit am I standing in, and what happens there?". `None` when no
/// unit-owned POI lies within the kernel cutoff of `pos`.
pub fn recognize_stay_point_unit(
    csd: &CitySemanticDiagram,
    kernel: &GaussianKernel,
    pos: LocalPoint,
) -> (Option<usize>, Tags, Option<Category>) {
    let (unit, tags, primary, _ballots) = vote(csd, kernel, pos);
    (unit, tags, primary)
}

/// The voting core of Algorithm 3, additionally reporting the winning unit
/// id and how many ballots were cast (one per in-range unit-owned POI) so
/// observed runs can count voting work without a second range query.
fn vote(
    csd: &CitySemanticDiagram,
    kernel: &GaussianKernel,
    pos: LocalPoint,
) -> (Option<usize>, Tags, Option<Category>, u64) {
    // A non-finite query position has no meaningful neighbourhood; the stay
    // point remains untagged rather than poisoning the vote weights.
    if !(pos.x.is_finite() && pos.y.is_finite()) {
        return (None, Tags::EMPTY, None, 0);
    }
    let in_range = csd.range(pos, kernel.cutoff());
    if in_range.is_empty() {
        return (None, Tags::EMPTY, None, 0);
    }
    // Sparse vote accumulation: the candidate unit list is tiny (a handful
    // of units overlap a 100 m disk), so linear scans beat hashing.
    let mut unit_ids: Vec<usize> = Vec::new();
    let mut votes: Vec<f64> = Vec::new();
    let mut tags: Vec<Tags> = Vec::new();
    let mut cat_votes: Vec<[f64; Category::COUNT]> = Vec::new();
    let mut ballots = 0u64;
    for &i in &in_range {
        let Some(uid) = csd.unit_of(i) else { continue };
        ballots += 1;
        let weight = csd.popularity(i) * kernel.coeff(csd.pois()[i].pos, pos);
        let slot = match unit_ids.iter().position(|&u| u == uid) {
            Some(s) => s,
            None => {
                unit_ids.push(uid);
                votes.push(0.0);
                tags.push(Tags::EMPTY);
                cat_votes.push([0.0; Category::COUNT]);
                unit_ids.len() - 1
            }
        };
        votes[slot] += weight;
        tags[slot] = tags[slot].with(csd.pois()[i].category);
        cat_votes[slot][csd.pois()[i].category as usize] += weight;
    }
    let Some(hv) = votes
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
    else {
        // No unit-owned POI in range: the stay point stays untagged.
        return (None, Tags::EMPTY, None, ballots);
    };
    let primary = cat_votes[hv]
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(c, _)| Category::from_index(c));
    (Some(unit_ids[hv]), tags[hv], primary, ballots)
}

/// Algorithm 3 in full: recognizes the semantic property of every stay point
/// of every trajectory. Consumes and returns the trajectories with tags
/// filled in. Fails only on invalid parameters; degenerate stay points are
/// tolerated (left untagged).
pub fn recognize_all(
    csd: &CitySemanticDiagram,
    trajectories: Vec<SemanticTrajectory>,
    params: &MinerParams,
) -> Result<Vec<SemanticTrajectory>, MinerError> {
    let mut events = Vec::new();
    recognize_all_observed(csd, trajectories, params, &mut events, &pm_obs::Obs::noop())
}

/// Like [`recognize_all`], additionally recording how many stay points were
/// left untagged because their position is non-finite. The voting sweep is
/// timed as a `recognize.vote` span, and tagged/untagged stay points plus
/// the ballots cast (one per in-range unit-owned POI) are counted. The
/// tagging produced is byte-identical under [`pm_obs::Obs::noop`].
pub fn recognize_all_observed(
    csd: &CitySemanticDiagram,
    trajectories: Vec<SemanticTrajectory>,
    params: &MinerParams,
    events: &mut Vec<Degradation>,
    obs: &pm_obs::Obs,
) -> Result<Vec<SemanticTrajectory>, MinerError> {
    params.validate()?;
    let kernel = GaussianKernel::new(params.r3sigma);
    let span = obs.span("recognize.vote");
    // Unit voting is a pure function of the (immutable) diagram and one stay
    // position, so trajectories tag independently: workers update disjoint
    // chunks in place and report per-trajectory tallies, which sum to the
    // same totals in any order.
    let mut trajectories = trajectories;
    let tallies: Vec<(usize, u64, u64, u64)> =
        pm_runtime::par_map_in_place(&mut trajectories, params.threads, |st| {
            let (mut n, mut tagged, mut untagged, mut ballots) = (0usize, 0u64, 0u64, 0u64);
            for sp in &mut st.stays {
                if !(sp.pos.x.is_finite() && sp.pos.y.is_finite()) {
                    n += 1;
                    untagged += 1;
                    sp.tags = Tags::EMPTY;
                    sp.primary = None;
                    continue;
                }
                let (_unit, tags, primary, b) = vote(csd, &kernel, sp.pos);
                ballots += b;
                if tags.is_empty() {
                    untagged += 1;
                } else {
                    tagged += 1;
                }
                sp.tags = tags;
                sp.primary = primary;
            }
            (n, tagged, untagged, ballots)
        });
    span.finish();
    let (mut n_nonfinite, mut tagged, mut untagged, mut ballots) = (0usize, 0u64, 0u64, 0u64);
    for (n, t, u, b) in tallies {
        n_nonfinite += n;
        tagged += t;
        untagged += u;
        ballots += b;
    }
    obs.incr("recognize.stays_tagged", tagged);
    obs.incr("recognize.stays_untagged", untagged);
    obs.incr("recognize.votes_cast", ballots);
    if n_nonfinite > 0 {
        events.push(Degradation::UntaggedNonFiniteStays { count: n_nonfinite });
    }
    Ok(trajectories)
}

/// Collects every stay-point location in a trajectory set — the `D_sp`
/// corpus that drives popularity estimation (Eq. 3).
pub fn stay_points_of(trajectories: &[SemanticTrajectory]) -> Vec<LocalPoint> {
    trajectories
        .iter()
        .flat_map(|st| st.stays.iter().map(|sp| sp.pos))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Category, GpsPoint, Poi};

    fn gps(x: f64, y: f64, t: i64) -> GpsPoint {
        GpsPoint::new(LocalPoint::new(x, y), t)
    }

    #[test]
    fn detects_a_dwell_as_one_stay_point() {
        // 30 minutes parked at ~(100, 100), then movement.
        let mut pts = Vec::new();
        for k in 0..30 {
            pts.push(gps(100.0 + (k % 3) as f64, 100.0, k * 60));
        }
        for k in 0..10 {
            pts.push(gps(100.0 + 500.0 * (k + 1) as f64, 100.0, 1800 + k * 60));
        }
        let stays = detect_stay_points(&GpsTrajectory::new(pts), &MinerParams::default());
        assert_eq!(stays.len(), 1);
        assert!(stays[0].pos.distance(&LocalPoint::new(101.0, 100.0)) < 5.0);
        assert!(stays[0].tags.is_empty());
    }

    #[test]
    fn short_dwell_is_not_a_stay_point() {
        // Only 5 minutes below theta_t = 20 min.
        let pts: Vec<GpsPoint> = (0..5).map(|k| gps(0.0, 0.0, k * 60)).collect();
        let stays = detect_stay_points(&GpsTrajectory::new(pts), &MinerParams::default());
        assert!(stays.is_empty());
    }

    #[test]
    fn moving_trajectory_has_no_stay_points() {
        let pts: Vec<GpsPoint> = (0..60)
            .map(|k| gps(k as f64 * 300.0, 0.0, k * 60))
            .collect();
        let stays = detect_stay_points(&GpsTrajectory::new(pts), &MinerParams::default());
        assert!(stays.is_empty());
    }

    #[test]
    fn two_dwells_two_stay_points() {
        let mut pts = Vec::new();
        for k in 0..25 {
            pts.push(gps(0.0, 0.0, k * 60));
        }
        for k in 0..5 {
            pts.push(gps(5_000.0 * (k + 1) as f64 / 5.0, 0.0, 1500 + k * 60));
        }
        for k in 0..25 {
            pts.push(gps(5_000.0, 0.0, 1800 + k * 60));
        }
        let stays = detect_stay_points(&GpsTrajectory::new(pts), &MinerParams::default());
        assert_eq!(stays.len(), 2);
        assert!(stays[0].time < stays[1].time);
    }

    #[test]
    fn empty_trajectory() {
        let stays = detect_stay_points(&GpsTrajectory::default(), &MinerParams::default());
        assert!(stays.is_empty());
    }

    /// Build the diagram of the Fig. 7 scenario: a popular shop unit and a
    /// less popular office unit near a query stay point.
    fn fig7_setup() -> (CitySemanticDiagram, MinerParams) {
        let params = MinerParams {
            min_pts: 4,
            ..MinerParams::default()
        };
        let mut pois = Vec::new();
        // Shop unit: 6 POIs ~30m east of the query origin.
        for i in 0..6 {
            pois.push(Poi::new(
                i,
                LocalPoint::new(30.0 + (i % 3) as f64 * 8.0, (i / 3) as f64 * 8.0),
                Category::Shop,
            ));
        }
        // Office unit: 6 POIs ~70m west.
        for i in 0..6 {
            pois.push(Poi::new(
                10 + i,
                LocalPoint::new(-70.0 - (i % 3) as f64 * 8.0, (i / 3) as f64 * 8.0),
                Category::Business,
            ));
        }
        // Stay corpus: the shop side is visited 5x more.
        let mut stays = Vec::new();
        for k in 0..50 {
            stays.push(LocalPoint::new(
                32.0 + (k % 5) as f64 * 4.0,
                (k % 4) as f64 * 4.0,
            ));
        }
        for k in 0..10 {
            stays.push(LocalPoint::new(
                -72.0 - (k % 5) as f64 * 4.0,
                (k % 4) as f64 * 4.0,
            ));
        }
        (
            CitySemanticDiagram::build(&pois, &stays, &params).expect("build"),
            params,
        )
    }

    #[test]
    fn voting_prefers_popular_nearby_unit() {
        let (csd, params) = fig7_setup();
        let kernel = GaussianKernel::new(params.r3sigma);
        let tags = recognize_stay_point(&csd, &kernel, LocalPoint::ORIGIN);
        assert!(tags.contains(Category::Shop), "got {tags}");
        assert!(!tags.contains(Category::Business));
    }

    #[test]
    fn far_stay_point_stays_untagged() {
        let (csd, params) = fig7_setup();
        let kernel = GaussianKernel::new(params.r3sigma);
        let tags = recognize_stay_point(&csd, &kernel, LocalPoint::new(10_000.0, 0.0));
        assert!(tags.is_empty());
    }

    #[test]
    fn recognize_all_fills_every_stay() {
        let (csd, params) = fig7_setup();
        let trajs = vec![SemanticTrajectory::new(vec![
            StayPoint::untagged(LocalPoint::new(0.0, 0.0), 0),
            StayPoint::untagged(LocalPoint::new(-65.0, 0.0), 3600),
        ])];
        let out = recognize_all(&csd, trajs, &params).expect("recognize");
        assert!(out[0].stays[0].tags.contains(Category::Shop));
        assert!(out[0].stays[1].tags.contains(Category::Business));
    }

    #[test]
    fn non_finite_stay_is_left_untagged_with_degradation() {
        let (csd, params) = fig7_setup();
        let trajs = vec![SemanticTrajectory::new(vec![
            StayPoint::untagged(LocalPoint::new(f64::NAN, 0.0), 0),
            StayPoint::untagged(LocalPoint::new(0.0, 0.0), 3600),
        ])];
        let mut events = Vec::new();
        let out = recognize_all_observed(&csd, trajs, &params, &mut events, &pm_obs::Obs::noop())
            .expect("recognize");
        assert!(out[0].stays[0].tags.is_empty());
        assert!(out[0].stays[1].tags.contains(Category::Shop));
        assert_eq!(
            events,
            vec![Degradation::UntaggedNonFiniteStays { count: 1 }]
        );
    }

    #[test]
    fn invalid_params_are_rejected() {
        let (csd, _) = fig7_setup();
        let bad = MinerParams {
            sigma: 0,
            ..MinerParams::default()
        };
        assert!(recognize_all(&csd, Vec::new(), &bad).is_err());
    }

    #[test]
    fn non_finite_fixes_are_dropped_before_detection() {
        // A clean 30-minute dwell with NaN and infinite fixes interleaved:
        // the dwell must still be detected, and the drops reported.
        let mut pts = Vec::new();
        for k in 0..30 {
            pts.push(gps(100.0 + (k % 3) as f64, 100.0, k * 60));
            if k % 10 == 0 {
                pts.push(GpsPoint::new(LocalPoint::new(f64::NAN, 100.0), k * 60 + 30));
            }
        }
        pts.push(GpsPoint::new(
            LocalPoint::new(f64::INFINITY, f64::NEG_INFINITY),
            1790,
        ));
        let mut events = Vec::new();
        let stays = detect_stay_points_tracked(
            &GpsTrajectory::new(pts),
            &MinerParams::default(),
            &mut events,
        );
        assert_eq!(stays.len(), 1);
        assert!(stays[0].pos.x.is_finite() && stays[0].pos.y.is_finite());
        assert_eq!(events, vec![Degradation::DroppedGpsFixes { count: 4 }]);
    }

    #[test]
    fn extreme_timestamps_do_not_overflow() {
        // Timestamps near i64::MAX: window arithmetic saturates and the
        // average is computed in 128-bit, so nothing overflows.
        let base = i64::MAX - 10_000;
        let pts: Vec<GpsPoint> = (0..30).map(|k| gps(0.0, 0.0, base + k * 60)).collect();
        let stays = detect_stay_points(&GpsTrajectory::new(pts), &MinerParams::default());
        assert_eq!(stays.len(), 1);
    }

    #[test]
    fn batch_detection_matches_per_trajectory_detection() {
        let mut tracks = Vec::new();
        for t in 0..9i64 {
            let mut pts = Vec::new();
            for k in 0..30 {
                pts.push(gps(
                    100.0 * t as f64 + (k % 3) as f64,
                    0.0,
                    t * 10_000 + k * 60,
                ));
            }
            if t % 3 == 0 {
                pts.push(GpsPoint::new(
                    LocalPoint::new(f64::NAN, 0.0),
                    t * 10_000 + 1795,
                ));
            }
            tracks.push(GpsTrajectory::new(pts));
        }
        let params = MinerParams::default();
        let mut serial_events = Vec::new();
        let serial: Vec<Vec<StayPoint>> = tracks
            .iter()
            .map(|t| detect_stay_points_tracked(t, &params, &mut serial_events))
            .collect();
        for threads in [1, 4] {
            let p = MinerParams { threads, ..params };
            let mut events = Vec::new();
            let batch =
                detect_all_stay_points_observed(&tracks, &p, &mut events, &pm_obs::Obs::noop());
            assert_eq!(batch, serial, "threads = {threads}");
            assert_eq!(events, serial_events);
        }
        let trajs = semantic_trajectories_of(&tracks, &params);
        assert_eq!(trajs.len(), tracks.len());
        assert_eq!(trajs[0].stays, serial[0]);
    }

    #[test]
    fn threaded_recognition_matches_serial() {
        let (csd, params) = fig7_setup();
        let trajs: Vec<SemanticTrajectory> = (0..13)
            .map(|i| {
                SemanticTrajectory::new(vec![
                    StayPoint::untagged(LocalPoint::new(i as f64 * 3.0, 0.0), 0),
                    StayPoint::untagged(LocalPoint::new(-65.0 - i as f64, 0.0), 3600),
                ])
            })
            .collect();
        let serial = recognize_all(&csd, trajs.clone(), &params.with_threads(1)).expect("serial");
        let parallel = recognize_all(&csd, trajs, &params.with_threads(4)).expect("parallel");
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.stays, b.stays);
        }
    }

    #[test]
    fn stay_points_of_flattens() {
        let trajs = vec![
            SemanticTrajectory::new(vec![StayPoint::untagged(LocalPoint::new(1.0, 2.0), 0)]),
            SemanticTrajectory::new(vec![
                StayPoint::untagged(LocalPoint::new(3.0, 4.0), 0),
                StayPoint::untagged(LocalPoint::new(5.0, 6.0), 10),
            ]),
        ];
        let pts = stay_points_of(&trajs);
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[2], LocalPoint::new(5.0, 6.0));
    }
}
