//! Streaming/batch parity: pm-stream's incremental stay-point detector fed
//! one fix at a time must reproduce the batch detector of Definition 5
//! **bit for bit** — same stay points (positions as raw IEEE-754 patterns),
//! same drop accounting — with out-of-order and duplicate timestamps
//! quarantined at the transport boundary and non-finite fixes degraded
//! exactly like the batch sanitize step. The batch reference itself must
//! agree across thread counts, so the equality chain is
//! `stream == batch(threads=1) == batch(threads=4)`.

use pervasive_miner::core::recognize::{
    detect_all_stay_points_observed, detect_stay_points_tracked, recognize_stay_point_unit,
};
use pervasive_miner::core::types::{Category, GpsPoint, GpsTrajectory, StayPoint, Timestamp};
use pervasive_miner::prelude::*;
use pervasive_miner::stream::{
    EngineConfig, IngestEngine, IngestRecord, StayPointDetector, StreamParams,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Byte-exact encoding of a stay sequence (mirrors parallel_parity.rs).
fn fingerprint(stays: &[StayPoint]) -> String {
    let mut out = String::new();
    for s in stays {
        let _ = write!(
            out,
            "{:016x},{:016x},{};",
            s.pos.x.to_bits(),
            s.pos.y.to_bits(),
            s.time
        );
    }
    out
}

/// The transport-ordering filter the stream applies before detection:
/// non-increasing timestamps are quarantined, everything else (including
/// non-finite fixes, which advance the ordering clock) is admitted.
fn transport_filter(fixes: &[GpsPoint]) -> (Vec<GpsPoint>, usize) {
    let mut admitted = Vec::new();
    let mut quarantined = 0;
    let mut last: Option<Timestamp> = None;
    for &f in fixes {
        if last.is_some_and(|l| f.time <= l) {
            quarantined += 1;
        } else {
            last = Some(f.time);
            admitted.push(f);
        }
    }
    (admitted, quarantined)
}

/// One raw fix description drawn by proptest: a time delta (non-positive
/// deltas create the duplicates/out-of-order the transport must reject),
/// a dwell-cell index, a jitter offset, and a poison draw (values below
/// 0.06 turn the fix non-finite).
fn fix_strategy() -> impl Strategy<Value = (i64, u8, f64, f64)> {
    (-30i64..600, 0u8..4, -40.0f64..40.0, 0.0f64..1.0)
}

fn build_fixes(raw: &[(i64, u8, f64, f64)]) -> Vec<GpsPoint> {
    let mut t = 0i64;
    let mut out = Vec::with_capacity(raw.len());
    for &(dt, cell, jitter, poison) in raw {
        t += dt; // dt <= 0 yields the out-of-order/duplicate cases
        let x = if poison < 0.06 {
            f64::NAN
        } else {
            cell as f64 * 500.0 + jitter
        };
        out.push(GpsPoint::new(
            pervasive_miner::geo::LocalPoint::new(x, jitter * 0.5),
            t,
        ));
    }
    out
}

proptest! {
    /// Any fix sequence — dwells, travel, duplicates, rewinds, NaNs —
    /// streams to exactly the batch result on the admitted subsequence.
    #[test]
    fn stream_matches_batch_on_any_sequence(raw in proptest::collection::vec(fix_strategy(), 0..120)) {
        let fixes = build_fixes(&raw);
        let params = MinerParams::default();

        let mut detector = StayPointDetector::new(StreamParams::from_miner(&params));
        let mut streamed = Vec::new();
        for &f in &fixes {
            detector.push(f, &mut streamed);
        }
        detector.flush(&mut streamed);

        let (admitted, quarantined) = transport_filter(&fixes);
        let n_bad = admitted
            .iter()
            .filter(|p| !(p.pos.x.is_finite() && p.pos.y.is_finite()))
            .count();
        let mut events = Vec::new();
        let batch =
            detect_stay_points_tracked(&GpsTrajectory::new(admitted), &params, &mut events);

        prop_assert_eq!(fingerprint(&streamed), fingerprint(&batch));
        let stats = detector.stats();
        prop_assert_eq!(stats.quarantined, quarantined as u64);
        prop_assert_eq!(stats.dropped_non_finite, n_bad as u64);
        prop_assert_eq!(stats.emitted, streamed.len() as u64);
    }
}

/// Per-user trajectories through the full [`IngestEngine`] (interleaved
/// batches, recognition against a mined CSD) versus the batch pipeline:
/// same per-user stay points, same quarantine counts, same semantic
/// transition tallies — with the batch reference computed at both
/// `threads = 1` and `threads = 4`.
#[test]
fn engine_matches_batch_pipeline_across_thread_counts() {
    let ds = Dataset::generate(&CityConfig::tiny(2026));
    let params = MinerParams {
        sigma: 20,
        ..MinerParams::default()
    };
    let stays = pervasive_miner::core::recognize::stay_points_of(&ds.trajectories);
    let csd = CitySemanticDiagram::build(&ds.pois, &stays, &params).expect("build");
    let kernel = pervasive_miner::cluster::GaussianKernel::new(params.r3sigma);
    let recognize = |pos| recognize_stay_point_unit(&csd, &kernel, pos).2;

    // Synthetic per-user fix streams: dwell at unit centers long enough to
    // trigger Definition 5, with occasional rewinds to exercise quarantine.
    let users: Vec<(String, Vec<GpsPoint>)> = (0..8)
        .map(|u| {
            let mut fixes = Vec::new();
            let mut t = 1_000 * u as i64;
            for leg in 0..4 {
                let unit = &csd.units()[(u * 3 + leg * 5) % csd.units().len()];
                for k in 0..5 {
                    t += params.theta_t / 3;
                    fixes.push(GpsPoint::new(unit.center, t + k % 2));
                }
                if leg == 2 {
                    // A rewound fix the transport must quarantine.
                    fixes.push(GpsPoint::new(unit.center, t - 50));
                }
                t += params.theta_t * 2; // travel gap breaks the dwell
            }
            (format!("user-{u}"), fixes)
        })
        .collect();

    // Batch reference at two thread counts (must agree bit for bit).
    let mut reference: Vec<Vec<StayPoint>> = Vec::new();
    let mut reference_quarantined = 0usize;
    for threads in [1usize, 4] {
        let tp = MinerParams { threads, ..params };
        let mut admitted_all = Vec::new();
        let mut quarantined_total = 0;
        for (_, fixes) in &users {
            let (admitted, quarantined) = transport_filter(fixes);
            quarantined_total += quarantined;
            admitted_all.push(GpsTrajectory::new(admitted));
        }
        let mut events = Vec::new();
        let per_user =
            detect_all_stay_points_observed(&admitted_all, &tp, &mut events, &Obs::noop());
        if threads == 1 {
            reference = per_user;
            reference_quarantined = quarantined_total;
        } else {
            assert_eq!(
                reference.iter().map(|s| fingerprint(s)).collect::<Vec<_>>(),
                per_user.iter().map(|s| fingerprint(s)).collect::<Vec<_>>(),
                "batch detection differs across thread counts"
            );
        }
    }

    // Stream the same fixes through the engine in interleaved batches.
    let mut engine = IngestEngine::new(EngineConfig::from_miner(&params)).expect("config");
    let max_len = users.iter().map(|(_, f)| f.len()).max().unwrap_or(0);
    let mut outcome_stays = 0u64;
    let mut outcome_quarantined = 0u64;
    for round in (0..max_len).step_by(3) {
        let mut batch = Vec::new();
        for (user, fixes) in &users {
            for &f in fixes.iter().skip(round).take(3) {
                batch.push((user.clone(), IngestRecord::Fix(f)));
            }
        }
        let outcome = engine.ingest_batch(&batch, recognize);
        outcome_stays += outcome.stays;
        outcome_quarantined += outcome.quarantined;
    }
    // End-of-stream: a final settling pass has no direct API on purpose
    // (live streams never end); the open dwell tail stays buffered, so the
    // batch reference is trimmed of each user's final stay when that stay
    // is still pending in the engine. Easiest exact comparison: push a
    // far-future breaker fix per user to force the tails out.
    let flush_t = 10_000_000;
    let breakers: Vec<(String, IngestRecord)> = users
        .iter()
        .map(|(user, _)| {
            (
                user.clone(),
                IngestRecord::Fix(GpsPoint::new(
                    pervasive_miner::geo::LocalPoint::new(1.0e9, 1.0e9),
                    flush_t,
                )),
            )
        })
        .collect();
    let outcome = engine.ingest_batch(&breakers, recognize);
    outcome_stays += outcome.stays;
    outcome_quarantined += outcome.quarantined;

    let reference_stays: usize = reference.iter().map(Vec::len).sum();
    assert_eq!(outcome_stays, reference_stays as u64, "stay count parity");
    assert_eq!(
        outcome_quarantined, reference_quarantined as u64,
        "quarantine parity"
    );

    // Transition parity: walk each user's batch stays through the same
    // recognizer and tally tagged consecutive pairs.
    let mut expected: BTreeMap<(Category, Category), u64> = BTreeMap::new();
    for per_user in &reference {
        let mut prev: Option<Category> = None;
        for sp in per_user {
            if let Some(cur) = recognize(sp.pos) {
                if let Some(p) = prev {
                    *expected.entry((p, cur)).or_default() += 1;
                }
                prev = Some(cur);
            }
        }
    }
    assert_eq!(engine.window().late_dropped(), 0, "no late drops expected");
    let got: BTreeMap<(Category, Category), u64> = engine
        .window()
        .counts()
        .into_iter()
        .map(|(from, to, n)| ((from, to), n))
        .collect();
    assert_eq!(got, expected, "transition tally parity");
    assert!(
        expected.values().sum::<u64>() > 0,
        "test must actually exercise transitions"
    );
}
