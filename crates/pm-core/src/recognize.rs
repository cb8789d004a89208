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

/// Algorithm 3 lines 4–11: every unit-owned POI within `R_3sigma` of a stay
/// point votes for its unit with weight `pop(p) * ||p, sp||`. Returns the
/// winning unit (an index into
/// [`CitySemanticDiagram::units`](crate::construct::CitySemanticDiagram::units)),
/// the union of categories of its *in-range* members, and the *primary*
/// category: the strongest-voting one within the winning unit, which drives
/// the sequence-mining item for multi-tag units. `(None, Tags::EMPTY, None)`
/// when no unit-owned POI is in range. Also the online point lookup: "which
/// unit am I standing in, and what happens there?".
pub fn recognize_stay_point_unit(
    csd: &CitySemanticDiagram,
    kernel: &GaussianKernel,
    pos: LocalPoint,
) -> (Option<usize>, Tags, Option<Category>) {
    let (unit, tags, primary, _ballots) = vote(csd, kernel, pos);
    (unit, tags, primary)
}

/// One candidate unit's running tally in [`vote`].
struct Slot {
    unit: usize,
    votes: f64,
    tags: Tags,
    cat_votes: [f64; Category::COUNT],
}

thread_local! {
    /// [`vote`]'s per-unit tallies, reused so a vote allocates nothing once
    /// its thread has seen the most units one disk holds.
    static SLOTS: std::cell::RefCell<Vec<Slot>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// The voting core of Algorithm 3, additionally reporting the winning unit
/// id and how many ballots were cast (one per in-range unit-owned POI) so
/// observed runs can count voting work without a second range query.
///
/// Slots keep the order in which their units first vote, and both maxima
/// keep the last of equal candidates ([`Iterator::max_by`]): when every
/// ballot weighs zero, the primary is the last category, `Tourism`, whatever
/// the unit holds.
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
    SLOTS.with_borrow_mut(|slots| {
        slots.clear();
        let mut ballots = 0u64;
        // A handful of units overlap a 100 m disk, so a linear scan finds a
        // unit's slot faster than hashing would.
        csd.for_each_owned_in_range(pos, kernel.cutoff(), |i, d_sq| {
            let Some(unit) = csd.unit_of(i) else { return };
            ballots += 1;
            // `coeff(p, sp)` measures `distance_sq(..).sqrt()` over the same
            // operands, so this weight is bit-identical to Eq. 2's.
            let weight = csd.popularity(i) * kernel.coeff_at(d_sq.sqrt());
            let slot = match slots.iter().position(|s| s.unit == unit) {
                Some(k) => &mut slots[k],
                None => {
                    slots.push(Slot {
                        unit,
                        votes: 0.0,
                        tags: Tags::EMPTY,
                        cat_votes: [0.0; Category::COUNT],
                    });
                    slots.last_mut().expect("just pushed")
                }
            };
            let category = csd.pois()[i].category;
            slot.votes += weight;
            slot.tags = slot.tags.with(category);
            slot.cat_votes[category as usize] += weight;
        });
        let Some(win) = slots.iter().max_by(|a, b| a.votes.total_cmp(&b.votes)) else {
            return (None, Tags::EMPTY, None, ballots);
        };
        let primary = win
            .cat_votes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(c, _)| Category::from_index(c));
        (Some(win.unit), win.tags, primary, ballots)
    })
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
    use crate::construct::{BuildStats, SemanticUnit};
    use crate::types::{Category, GpsPoint, Poi};
    use pm_geo::GridIndex;
    use proptest::prelude::*;

    /// One unit's tally, every sum as its bit pattern.
    type Tally = (usize, u64, Tags, [u64; Category::COUNT]);
    /// What [`vote`] returns.
    type Outcome = (Option<usize>, Tags, Option<Category>, u64);

    /// The vote as it ran over every POI in range: a full grid's `range`
    /// query, ownership checked per POI, Eq. 2 measured again per ballot,
    /// and four parallel tallies. Returns the outcome and the tallies.
    fn reference_vote(
        csd: &CitySemanticDiagram,
        kernel: &GaussianKernel,
        pos: LocalPoint,
    ) -> (Outcome, Vec<Tally>) {
        if !(pos.x.is_finite() && pos.y.is_finite()) {
            return ((None, Tags::EMPTY, None, 0), Vec::new());
        }
        let positions: Vec<LocalPoint> = csd.pois().iter().map(|p| p.pos).collect();
        let in_range =
            GridIndex::build(&positions, csd.grid_cell_size()).range(pos, kernel.cutoff());
        if in_range.is_empty() {
            return ((None, Tags::EMPTY, None, 0), Vec::new());
        }
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
        let tallies = (0..unit_ids.len())
            .map(|k| {
                (
                    unit_ids[k],
                    votes[k].to_bits(),
                    tags[k],
                    cat_votes[k].map(f64::to_bits),
                )
            })
            .collect();
        let Some(hv) = votes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
        else {
            return ((None, Tags::EMPTY, None, ballots), tallies);
        };
        let primary = cat_votes[hv]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(c, _)| Category::from_index(c));
        ((Some(unit_ids[hv]), tags[hv], primary, ballots), tallies)
    }

    /// The tallies the last vote at a finite position left in [`SLOTS`]
    /// on this thread.
    fn last_tallies() -> Vec<Tally> {
        SLOTS.with_borrow(|slots| {
            slots
                .iter()
                .map(|s| {
                    (
                        s.unit,
                        s.votes.to_bits(),
                        s.tags,
                        s.cat_votes.map(f64::to_bits),
                    )
                })
                .collect()
        })
    }

    /// A diagram assembled from explicit parts: POI `i` sits at
    /// `pois[i].0`, has category `pois[i].1`, belongs to unit `pois[i].2`
    /// (none when `>= n_units`) and has popularity `pois[i].3`.
    fn diagram_of(
        pois: &[(LocalPoint, usize, usize, f64)],
        n_units: usize,
        cell_size: f64,
    ) -> CitySemanticDiagram {
        let mut units: Vec<SemanticUnit> = (0..n_units)
            .map(|_| SemanticUnit {
                members: Vec::new(),
                tags: Tags::EMPTY,
                center: LocalPoint::ORIGIN,
                distribution: [0.0; Category::COUNT],
            })
            .collect();
        for (i, &(_, c, u, _)) in pois.iter().enumerate() {
            if let Some(unit) = units.get_mut(u) {
                unit.members.push(i);
                unit.tags = unit.tags.with(Category::from_index(c));
            }
        }
        let stats = BuildStats {
            n_pois: pois.len(),
            n_coarse: 0,
            n_leftover: 0,
            n_purified: n_units,
            n_units,
            n_covered: pois.iter().filter(|p| p.2 < n_units).count(),
            purity: 1.0,
        };
        CitySemanticDiagram::from_parts(
            pois.iter()
                .enumerate()
                .map(|(i, &(pos, c, _, _))| Poi::new(i as u64, pos, Category::from_index(c)))
                .collect(),
            pois.iter().map(|p| p.3).collect(),
            units,
            stats,
            Vec::new(),
            cell_size,
        )
        .expect("consistent parts")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn vote_matches_the_reference_bit_for_bit(
            raw in prop::collection::vec(
                (0u8..8, -250.0..250.0f64, -250.0..250.0f64, 0usize..15, 0usize..9, 0.0..0.02f64),
                0..90,
            ),
            n_units in 1usize..7,
            cell_size in 15.0..260.0f64,
            queries in prop::collection::vec((0u8..8, -300.0..300.0f64, -300.0..300.0f64), 12),
        ) {
            // Positions on a 10 m lattice half the time (so ballots sit
            // exactly R_3sigma away), a few non-finite; popularity zero for
            // a quarter of the POIs and for all of them when `kind` says so.
            let all_zero = raw.first().is_some_and(|r| r.0 == 7);
            let pois: Vec<(LocalPoint, usize, usize, f64)> = raw
                .iter()
                .map(|&(kind, x, y, c, u, pop)| {
                    let pos = match kind {
                        0..=3 => LocalPoint::new((x / 10.0).round() * 10.0, (y / 10.0).round() * 10.0),
                        4 if x > 200.0 => LocalPoint::new(f64::NAN, y),
                        _ => LocalPoint::new(x, y),
                    };
                    let pop = if all_zero || kind % 4 == 1 { 0.0 } else { pop };
                    (pos, c, u, pop)
                })
                .collect();
            let csd = diagram_of(&pois, n_units, cell_size);
            let positions: Vec<LocalPoint> = pois.iter().map(|p| p.0).collect();
            let full = GridIndex::build(&positions, cell_size);
            let kernel = GaussianKernel::new(100.0);
            for &(kind, x, y) in &queries {
                let q = match kind {
                    0 | 1 if !pois.is_empty() => {
                        // R_3sigma east of a POI: exactly, for a lattice one.
                        let p = pois[(x.abs() as usize) % pois.len()].0;
                        LocalPoint::new(p.x + 100.0, p.y)
                    }
                    2 | 3 => LocalPoint::new((x / 10.0).round() * 10.0, (y / 10.0).round() * 10.0),
                    4 => LocalPoint::new(f64::INFINITY, y),
                    5 => LocalPoint::new(x, f64::NAN),
                    6 => LocalPoint::new(x + 5_000.0, y),
                    _ => LocalPoint::new(x, y),
                };
                let (want, tallies) = reference_vote(&csd, &kernel, q);
                prop_assert_eq!(vote(&csd, &kernel, q), want);
                if q.x.is_finite() && q.y.is_finite() {
                    prop_assert_eq!(last_tallies(), tallies);
                }
                // The diagram's index lists exactly the owned POIs of the
                // full grid's range, in its order, with its distances.
                let mut owned = Vec::new();
                csd.for_each_owned_in_range(q, 100.0, |i, d_sq| owned.push((i, d_sq.to_bits())));
                let want: Vec<(usize, u64)> = full
                    .range(q, 100.0)
                    .into_iter()
                    .filter(|&i| csd.unit_of(i).is_some())
                    .map(|i| (i, csd.pois()[i].pos.distance_sq(&q).to_bits()))
                    .collect();
                prop_assert_eq!(owned, want);
            }
        }
    }

    #[test]
    fn zero_weight_ballots_make_the_last_category_primary() {
        // Every ballot weighs zero (zero popularity, or a POI exactly
        // R_3sigma away): the unit still wins with its in-range tags, and
        // the all-zero category tally resolves to the last category,
        // Tourism, although no Tourism POI is in range. Known bug, kept
        // because the served digests pin it.
        let pois = [
            (LocalPoint::new(10.0, 0.0), Category::Shop as usize, 0, 0.0),
            (
                LocalPoint::new(0.0, 20.0),
                Category::Restaurant as usize,
                0,
                0.0,
            ),
            (
                LocalPoint::new(100.0, 0.0),
                Category::Hotel as usize,
                1,
                0.5,
            ),
        ];
        let csd = diagram_of(&pois, 2, 100.0);
        let kernel = GaussianKernel::new(100.0);
        let got = vote(&csd, &kernel, LocalPoint::ORIGIN);
        assert_eq!(got, reference_vote(&csd, &kernel, LocalPoint::ORIGIN).0);
        let (unit, tags, primary, ballots) = got;
        assert_eq!(ballots, 3);
        assert_eq!(unit, Some(1), "last of equal (zero) unit votes");
        assert_eq!(tags, Tags::EMPTY.with(Category::Hotel));
        assert_eq!(primary, Some(Category::Tourism));
    }

    #[test]
    fn unowned_pois_cast_no_ballot() {
        // Only POIs no unit owns (unit index 2 of 2) are in range.
        let hotel = Category::Hotel as usize;
        let pois = [
            (LocalPoint::new(0.0, 0.0), Category::Shop as usize, 0, 0.5),
            (LocalPoint::new(1_000.0, 0.0), hotel, 2, 0.5),
            (LocalPoint::new(1_030.0, 0.0), hotel, 2, 0.5),
        ];
        let csd = diagram_of(&pois, 2, 100.0);
        let kernel = GaussianKernel::new(100.0);
        let q = LocalPoint::new(1_010.0, 0.0);
        assert_eq!(vote(&csd, &kernel, q), (None, Tags::EMPTY, None, 0));
        assert_eq!(vote(&csd, &kernel, q), reference_vote(&csd, &kernel, q).0);
    }

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
        let (_, tags, _) = recognize_stay_point_unit(&csd, &kernel, LocalPoint::ORIGIN);
        assert!(tags.contains(Category::Shop), "got {tags}");
        assert!(!tags.contains(Category::Business));
    }

    #[test]
    fn far_stay_point_stays_untagged() {
        let (csd, params) = fig7_setup();
        let kernel = GaussianKernel::new(params.r3sigma);
        let (_, tags, _) = recognize_stay_point_unit(&csd, &kernel, LocalPoint::new(10_000.0, 0.0));
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
