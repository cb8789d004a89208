//! Fault injection: the full pipeline must survive every corruption mode in
//! `pm_synth::corrupt` — non-finite coordinates, timestamp disorder,
//! duplicated records, teleports, truncation, and mangled CSV input — with
//! no panics, reporting quarantined records and degradation events instead.

use pervasive_miner::core::extract::extract_patterns_observed;
use pervasive_miner::core::recognize::recognize_all_observed;
use pervasive_miner::io::{
    journeys_to_trajectories, read_journeys_with, read_pois_with, write_journeys, write_pois,
    IngestMode, JourneyRecord,
};
use pervasive_miner::prelude::*;
use pervasive_miner::synth::{corrupt_csv, corrupt_trajectories, Corruption};
use pm_baselines::{sdbscan_extract, splitter_extract};
use proptest::prelude::*;

/// Runs construct -> recognize -> extract, returning the patterns plus every
/// degradation event the stages recorded. Panics only on invalid params —
/// which these tests never pass.
fn run_pipeline(
    pois: &[Poi],
    trajectories: Vec<SemanticTrajectory>,
    params: &MinerParams,
) -> (Vec<FinePattern>, Vec<Degradation>) {
    let mut events = Vec::new();
    let stays = stay_points_of(&trajectories);
    let csd = CitySemanticDiagram::build(pois, &stays, params).expect("valid params");
    events.extend(csd.degradations().iter().copied());
    let recognized = recognize_all_observed(&csd, trajectories, params, &mut events, &Obs::noop())
        .expect("valid params");
    let patterns = extract_patterns_observed(&recognized, params, &mut events, &Obs::noop())
        .expect("valid params");
    (patterns, events)
}

fn tiny_scene() -> (Dataset, MinerParams) {
    let ds = Dataset::generate(&CityConfig::tiny(2026));
    let params = MinerParams {
        sigma: 20,
        ..MinerParams::default()
    };
    (ds, params)
}

#[test]
fn every_corruption_mode_survives_the_full_pipeline() {
    let (ds, params) = tiny_scene();
    let (clean_patterns, clean_events) = run_pipeline(&ds.pois, ds.trajectories.clone(), &params);
    assert!(!clean_patterns.is_empty(), "clean corpus must mine");
    assert!(clean_events.is_empty(), "clean corpus must not degrade");

    for fraction in [0.05, 0.5, 1.0] {
        for corruption in Corruption::standard_suite(fraction) {
            let mut trajectories = ds.trajectories.clone();
            let touched = corrupt_trajectories(&mut trajectories, &corruption, 99);
            let (_patterns, events) = run_pipeline(&ds.pois, trajectories, &params);
            if matches!(corruption, Corruption::NonFiniteCoordinates { .. }) && touched > 0 {
                let reported: usize = events.iter().map(|e| e.count()).sum();
                assert!(
                    reported > 0,
                    "{} at {fraction}: {touched} corrupted stays but no degradation reported",
                    corruption.label()
                );
            }
        }
    }
}

#[test]
fn every_corruption_mode_survives_under_four_threads() {
    // The parallel stages must be as panic-free as the serial ones: replay
    // the corruption suite with the pipeline fanned out over 4 workers.
    // (Byte-level serial/parallel parity is asserted in parallel_parity.rs;
    // this guards the degradation paths themselves under threading.)
    let (ds, params) = tiny_scene();
    let params = MinerParams {
        threads: 4,
        ..params
    };
    for corruption in Corruption::standard_suite(0.5) {
        let mut trajectories = ds.trajectories.clone();
        corrupt_trajectories(&mut trajectories, &corruption, 99);
        let (_patterns, _events) = run_pipeline(&ds.pois, trajectories, &params);
    }
}

#[test]
fn mild_corruption_still_finds_the_dominant_patterns() {
    // Robustness has to mean useful output, not just absence of panics: at
    // 2% corruption the corpus still carries its signal.
    let (ds, params) = tiny_scene();
    let (clean, _) = run_pipeline(&ds.pois, ds.trajectories.clone(), &params);
    for corruption in Corruption::standard_suite(0.02) {
        let mut trajectories = ds.trajectories.clone();
        corrupt_trajectories(&mut trajectories, &corruption, 3);
        let (patterns, _) = run_pipeline(&ds.pois, trajectories, &params);
        assert!(
            patterns.len() * 2 >= clean.len(),
            "{}: {} patterns vs {} clean",
            corruption.label(),
            patterns.len(),
            clean.len()
        );
    }
}

#[test]
fn stacked_corruptions_survive_every_extractor() {
    let (ds, params) = tiny_scene();
    let mut trajectories = ds.trajectories.clone();
    for (i, corruption) in Corruption::standard_suite(0.3).iter().enumerate() {
        corrupt_trajectories(&mut trajectories, corruption, 1_000 + i as u64);
    }

    let stays = stay_points_of(&trajectories);
    let csd = CitySemanticDiagram::build(&ds.pois, &stays, &params).expect("valid params");
    let recognized = recognize_all(&csd, trajectories.clone(), &params).expect("valid params");
    let baseline = BaselineParams::default();

    // The paper pipeline and both baseline extractors must all survive.
    extract_patterns(&recognized, &params).expect("valid params");
    splitter_extract(&recognized, &params, &baseline).expect("valid params");
    sdbscan_extract(&recognized, &params, &baseline).expect("valid params");

    // As must ROI recognition over the corrupted stay corpus.
    let roi = RoiRecognizer::build(&stays, &ds.pois, &params, &baseline);
    let roi_tagged = roi.recognize_all(trajectories);
    extract_patterns(&roi_tagged, &params).expect("valid params");
}

#[test]
fn quarantine_ingestion_survives_mangled_csv() {
    let (ds, params) = tiny_scene();
    let projection = Projection::new(GeoPoint::new(121.4737, 31.2304));

    // Serialize the synthetic corpus to its CSV wire format.
    let journeys: Vec<JourneyRecord> = ds
        .trajectories
        .iter()
        .flat_map(|st| {
            let card = st.passenger;
            st.stays
                .windows(2)
                .filter(|w| w[1].time > w[0].time)
                .map(move |w| JourneyRecord {
                    pickup: GpsPoint::new(w[0].pos, w[0].time),
                    dropoff: GpsPoint::new(w[1].pos, w[1].time),
                    card,
                })
        })
        .collect();
    let poi_text = write_pois(&ds.pois, &projection);
    let journey_text = write_journeys(&journeys, &projection);

    // Mangle a slice of both files and ingest leniently.
    let (poi_text, poi_mangled) = corrupt_csv(&poi_text, 0.1, 11);
    let (journey_text, journey_mangled) = corrupt_csv(&journey_text, 0.1, 12);
    assert!(poi_mangled > 0 && journey_mangled > 0);

    let (pois, poi_report) =
        read_pois_with(&poi_text, &projection, IngestMode::Lenient).expect("lenient never fails");
    let (survivors, journey_report) =
        read_journeys_with(&journey_text, &projection, IngestMode::Lenient)
            .expect("lenient never fails");

    // Every record is accounted for: survivors + quarantined == written.
    assert_eq!(pois.len() + poi_report.dropped(), ds.pois.len());
    assert_eq!(survivors.len() + journey_report.dropped(), journeys.len());
    assert!(poi_report.dropped() <= poi_mangled);
    assert!(journey_report.dropped() <= journey_mangled);

    // And what survived still mines without trouble.
    let trajectories = journeys_to_trajectories(&survivors);
    let (patterns, _events) = run_pipeline(&pois, trajectories, &params);
    assert!(
        !patterns.is_empty(),
        "90% of the corpus must still carry the commute signal"
    );
}

/// A compact handmade commuter corpus: cheap enough to rebuild inside every
/// proptest case.
fn small_corpus() -> (Vec<Poi>, Vec<SemanticTrajectory>) {
    let mut pois = Vec::new();
    for i in 0..12 {
        pois.push(Poi::new(
            i,
            LocalPoint::new((i % 4) as f64 * 25.0, (i / 4) as f64 * 25.0),
            Category::Residence,
        ));
        pois.push(Poi::new(
            100 + i,
            LocalPoint::new(4_000.0 + (i % 4) as f64 * 25.0, (i / 4) as f64 * 25.0),
            Category::Business,
        ));
    }
    let trajectories = (0..40)
        .map(|k| {
            let dx = (k % 5) as f64 * 10.0;
            SemanticTrajectory::new(vec![
                StayPoint::untagged(LocalPoint::new(dx, 10.0), 7 * 3600 + k as i64),
                StayPoint::untagged(LocalPoint::new(4_000.0 + dx, 10.0), 8 * 3600 + k as i64),
            ])
        })
        .collect();
    (pois, trajectories)
}

proptest! {
    /// Whatever the mode, intensity, or seed: no panic, ever.
    #[test]
    fn pipeline_never_panics_under_corruption(
        mode in 0usize..5,
        fraction in 0.0..=1.0f64,
        seed in 0u64..u64::MAX,
    ) {
        let (pois, mut trajectories) = small_corpus();
        let corruption = Corruption::standard_suite(fraction)[mode];
        corrupt_trajectories(&mut trajectories, &corruption, seed);
        let params = MinerParams { sigma: 10, ..MinerParams::default() };
        let (_patterns, _events) = run_pipeline(&pois, trajectories, &params);
    }
}
