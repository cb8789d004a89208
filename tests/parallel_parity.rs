//! Parallel parity: the pipeline must be *bit-deterministic* across thread
//! counts. Workers only ever fill pre-sized disjoint output slots and every
//! reduction folds in index order, so `threads = 1` and `threads = N` must
//! produce byte-identical patterns, metrics, and degradation events — on
//! clean corpora and under fault injection alike.

use pervasive_miner::cluster::GaussianKernel;
use pervasive_miner::cohort::{
    embed_users, ClusterMethod, CohortParams, CohortTable, UserEmbedding, UserStay,
};
use pervasive_miner::core::construct::ConstructionOptions;
use pervasive_miner::core::extract::extract_patterns_observed;
use pervasive_miner::core::recognize::{
    recognize_all_observed, recognize_stay_point_unit, stay_points_of,
};
use pervasive_miner::core::types::Poi;
use pervasive_miner::prelude::*;
use pervasive_miner::serve::mine_artifact;
use pervasive_miner::store::Artifact;
use pervasive_miner::synth::{corrupt_trajectories, Corruption};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Construct -> recognize -> extract at an explicit thread count.
fn run_pipeline(
    pois: &[Poi],
    trajectories: Vec<SemanticTrajectory>,
    params: &MinerParams,
    threads: usize,
) -> (Vec<FinePattern>, Vec<Degradation>) {
    run_pipeline_observed(pois, trajectories, params, threads, &Obs::noop())
}

/// The same pipeline, recording spans and counters on `obs`.
fn run_pipeline_observed(
    pois: &[Poi],
    trajectories: Vec<SemanticTrajectory>,
    params: &MinerParams,
    threads: usize,
    obs: &Obs,
) -> (Vec<FinePattern>, Vec<Degradation>) {
    let params = MinerParams { threads, ..*params };
    let mut events = Vec::new();
    let stays = stay_points_of(&trajectories);
    let csd = CitySemanticDiagram::build_observed(
        pois,
        &stays,
        &params,
        ConstructionOptions::default(),
        obs,
    )
    .expect("valid params");
    events.extend(csd.degradations().iter().copied());
    let recognized = recognize_all_observed(&csd, trajectories, &params, &mut events, obs)
        .expect("valid params");
    let patterns =
        extract_patterns_observed(&recognized, &params, &mut events, obs).expect("valid params");
    (patterns, events)
}

/// Canonical byte-exact encoding of a pipeline result. Floats are rendered
/// as raw bit patterns, so two fingerprints match only when every coordinate
/// is bit-identical — `assert_eq!` on this string is the parity oracle.
fn fingerprint(patterns: &[FinePattern], events: &[Degradation]) -> String {
    let mut out = String::new();
    for p in patterns {
        let _ = write!(out, "P{:?}|m{:?}|", p.categories, p.members);
        for s in &p.stays {
            let _ = write!(
                out,
                "s{:016x},{:016x},{},{:?};",
                s.pos.x.to_bits(),
                s.pos.y.to_bits(),
                s.time,
                s.tags
            );
        }
        for g in &p.groups {
            out.push('g');
            for s in g {
                let _ = write!(
                    out,
                    "{:016x},{:016x},{};",
                    s.pos.x.to_bits(),
                    s.pos.y.to_bits(),
                    s.time
                );
            }
        }
        out.push('\n');
    }
    let _ = write!(out, "E{events:?}");
    out
}

#[test]
fn synthetic_corpora_are_bit_identical_across_thread_counts() {
    for seed in [2026, 7, 123] {
        let ds = Dataset::generate(&CityConfig::tiny(seed));
        let params = MinerParams {
            sigma: 20,
            ..MinerParams::default()
        };
        let (patterns, events) = run_pipeline(&ds.pois, ds.trajectories.clone(), &params, 1);
        assert!(!patterns.is_empty(), "seed {seed} must mine");
        let serial = fingerprint(&patterns, &events);
        for threads in [2, 4, 8] {
            let (p, e) = run_pipeline(&ds.pois, ds.trajectories.clone(), &params, threads);
            assert_eq!(
                serial,
                fingerprint(&p, &e),
                "seed {seed}, threads {threads}"
            );
        }
    }
}

#[test]
fn observability_never_perturbs_results() {
    // Observability is strictly one-way: a live `Obs` recording every span
    // and counter must reproduce the no-op run byte for byte, serial and
    // parallel alike. (The obs handle itself is the only thing allowed to
    // differ between the two runs.)
    let ds = Dataset::generate(&CityConfig::tiny(2026));
    let params = MinerParams {
        sigma: 20,
        ..MinerParams::default()
    };
    for threads in [1, 4] {
        let (np, ne) = run_pipeline(&ds.pois, ds.trajectories.clone(), &params, threads);
        let obs = Obs::enabled();
        let (op, oe) =
            run_pipeline_observed(&ds.pois, ds.trajectories.clone(), &params, threads, &obs);
        assert_eq!(
            fingerprint(&np, &ne),
            fingerprint(&op, &oe),
            "threads {threads}"
        );
        // And the recording really happened: the report carries the whole
        // construct -> recognize -> extract stage inventory.
        let report = obs.report();
        let stages: Vec<&str> = report.stages.iter().map(|s| s.name.as_str()).collect();
        for want in [
            "construct.clustering",
            "construct.purify",
            "construct.merge",
            "recognize.vote",
            "extract.prefixspan",
            "extract.counterpart",
        ] {
            assert!(stages.contains(&want), "missing stage {want}: {stages:?}");
        }
        assert!(report.counters["recognize.votes_cast"] > 0);

        // The single mining pass behind `mine --artifact` and the re-miner
        // writes the same artifact bytes observed or not, and records a
        // span for the unit sweep and for each product derived from it.
        let obs = Obs::enabled();
        assert!(
            mine_tiny_artifact(&ds, 2026, threads, &obs)
                == mine_tiny_artifact(&ds, 2026, threads, &Obs::noop()),
            "threads {threads}: observation changed the artifact bytes"
        );
        let report = obs.report();
        let stages: Vec<&str> = report.stages.iter().map(|s| s.name.as_str()).collect();
        for want in [
            "recognize.vote",
            "recognize.units",
            "motifs.mine",
            "cohorts.mine",
        ] {
            assert!(stages.contains(&want), "missing stage {want}: {stages:?}");
        }
    }
}

#[test]
fn small_city_is_bit_identical_serial_vs_auto_threads() {
    // `threads = 0` resolves to available_parallelism — whatever this
    // machine offers must still reproduce the serial bytes.
    let ds = Dataset::generate(&CityConfig::small(2026));
    let params = MinerParams::default();
    let (sp, se) = run_pipeline(&ds.pois, ds.trajectories.clone(), &params, 1);
    let (ap, ae) = run_pipeline(&ds.pois, ds.trajectories.clone(), &params, 0);
    assert_eq!(fingerprint(&sp, &se), fingerprint(&ap, &ae));
}

#[test]
fn fault_injection_is_bit_identical_under_threads() {
    // Degradation paths (NaN stays, teleports, truncation...) must also
    // replay identically: events are folded in input order, never in
    // worker-completion order.
    let ds = Dataset::generate(&CityConfig::tiny(2026));
    let params = MinerParams {
        sigma: 20,
        ..MinerParams::default()
    };
    for fraction in [0.05, 0.5] {
        for corruption in Corruption::standard_suite(fraction) {
            let mut trajectories = ds.trajectories.clone();
            corrupt_trajectories(&mut trajectories, &corruption, 99);
            let (sp, se) = run_pipeline(&ds.pois, trajectories.clone(), &params, 1);
            let (pp, pe) = run_pipeline(&ds.pois, trajectories, &params, 4);
            assert_eq!(
                fingerprint(&sp, &se),
                fingerprint(&pp, &pe),
                "{} at {fraction}",
                corruption.label()
            );
        }
    }
}

/// Compact corpus for the proptest cases (mirrors fault_injection.rs).
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

/// FNV-1a (64-bit) over a fingerprint string or artifact bytes — a stable
/// scalar identity for a whole pipeline result.
fn fnv1a(bytes: impl AsRef<[u8]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes.as_ref() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn golden_fingerprints_pin_the_exact_output_bytes() {
    // These hashes were captured from the original straightforward kernels
    // (AoS distances, real-meter comparisons, `BinaryHeap` OPTICS queue,
    // no grid/sweep split). Every optimisation since — squared-distance
    // kernels, struct-of-arrays layout, dense sweep, warm-started
    // selection, decrease-key heap, parallel fan-out — claims to be
    // *bit-identical*, and this test holds it to that claim: a changed
    // hash means the "optimisation" changed the mined patterns. Update a
    // hash only with an argument for why the new bytes are the right ones.
    const GOLDEN_CLEAN: [(u64, u64); 3] = [
        (2026, 0x6e6f8962e12a43be),
        (7, 0x7674d018b1e2a565),
        (123, 0x27a1028f7ef53d11),
    ];
    for (seed, want) in GOLDEN_CLEAN {
        let ds = Dataset::generate(&CityConfig::tiny(seed));
        let params = MinerParams {
            sigma: 20,
            ..MinerParams::default()
        };
        for threads in [1, 4] {
            let (p, e) = run_pipeline(&ds.pois, ds.trajectories.clone(), &params, threads);
            let got = fnv1a(fingerprint(&p, &e));
            assert_eq!(
                got, want,
                "clean corpus seed {seed}, threads {threads}: got {got:#018x}, want {want:#018x}"
            );
        }
    }

    // Fault-injection sweep: same contract under every corruption mode.
    const GOLDEN_FAULTS: [u64; 5] = [
        0x0cdf0007a2761201,
        0xd99208198e8e3b54,
        0x8025470b58a72a5b,
        0xd99208198e8e3b54,
        0xd99208198e8e3b54,
    ];
    for (mode, &want) in GOLDEN_FAULTS.iter().enumerate() {
        let (pois, mut trajectories) = small_corpus();
        let corruption = Corruption::standard_suite(0.5)[mode];
        corrupt_trajectories(&mut trajectories, &corruption, 99);
        let params = MinerParams {
            sigma: 10,
            ..MinerParams::default()
        };
        for threads in [1, 4] {
            let (p, e) = run_pipeline(&pois, trajectories.clone(), &params, threads);
            let got = fnv1a(fingerprint(&p, &e));
            assert_eq!(
                got, want,
                "corruption mode {mode}, threads {threads}: got {got:#018x}, want {want:#018x}"
            );
        }
    }
}

/// The CLI's user identity rule: carded passengers by card, anonymous
/// trajectories alone, named by corpus position.
fn user_of(traj: &SemanticTrajectory, index: usize) -> String {
    match traj.passenger {
        Some(card) => format!("card-{card}"),
        None => format!("u{index}"),
    }
}

/// `mine --artifact --scale tiny --seed S` as one [`mine_artifact`] call:
/// sigma 20, the city seed doubling as the cohort seed, and an explicit
/// thread count (the artifact stores it).
fn mine_tiny_artifact(ds: &Dataset, seed: u64, threads: usize, obs: &Obs) -> Vec<u8> {
    let params = MinerParams {
        sigma: 20,
        threads,
        ..MinerParams::default()
    };
    let cohort = CohortParams {
        seed,
        threads,
        ..CohortParams::default()
    };
    let corpus = ds
        .trajectories
        .iter()
        .enumerate()
        .map(|(i, traj)| (user_of(traj, i), traj.clone()))
        .collect();
    mine_artifact(&ds.pois, corpus, &params, &cohort, obs)
        .expect("valid params")
        .to_bytes()
}

#[test]
fn golden_artifact_fingerprints_pin_the_single_mining_pass() {
    // Captured from the artifacts the CLI wrote when it mined through
    // three commands (`mine --artifact`, then `motifs`, then `cohorts`,
    // each re-recognizing every stay) at one thread. The single pass
    // claims to write the same bytes; a changed hash means a section
    // moved. Update a hash only with an argument for why the new bytes
    // are the right ones.
    const GOLDEN: [(u64, u64); 3] = [
        (7, 0x16999a3ec1e7384a),
        (2026, 0x10b55f3a888dd27b),
        (123, 0x17a46ce183b24b83),
    ];
    for (seed, want) in GOLDEN {
        let ds = Dataset::generate(&CityConfig::tiny(seed));
        let serial = mine_tiny_artifact(&ds, seed, 1, &Obs::noop());
        let got = fnv1a(&serial);
        assert_eq!(
            got, want,
            "city seed {seed}: got {got:#018x}, want {want:#018x}"
        );
        // The stored thread count is the only byte allowed to differ.
        let parallel = mine_tiny_artifact(&ds, seed, 4, &Obs::noop());
        let mut parallel = Artifact::from_bytes(&parallel).expect("artifact decodes");
        assert_eq!(parallel.params.threads, 4);
        parallel.params.threads = 1;
        assert!(
            parallel.to_bytes() == serial,
            "city seed {seed}: the 4-thread artifact differs beyond its stored thread count"
        );
    }
}

/// The cohort section's corpus-to-embeddings path: recognize every stay to
/// a unit, group stays per user, and embed each user.
fn embed_corpus(ds: &Dataset, params: &MinerParams) -> Vec<UserEmbedding> {
    let stays = stay_points_of(&ds.trajectories);
    let csd = CitySemanticDiagram::build(&ds.pois, &stays, params).expect("valid params");
    let kernel = GaussianKernel::new(params.r3sigma);
    let mut groups: BTreeMap<String, Vec<UserStay>> = BTreeMap::new();
    for (i, traj) in ds.trajectories.iter().enumerate() {
        let user_stays = groups.entry(user_of(traj, i)).or_default();
        for sp in &traj.stays {
            let (unit, _, primary) = recognize_stay_point_unit(&csd, &kernel, sp.pos);
            if let Some(unit) = unit {
                user_stays.push(UserStay {
                    unit: unit as u64,
                    category: primary,
                    time: sp.time,
                });
            }
        }
    }
    groups.retain(|_, s| !s.is_empty());
    let groups: Vec<(String, Vec<UserStay>)> = groups.into_iter().collect();
    embed_users(&groups, params.threads)
}

/// Canonical byte-exact encoding of a cohort table, floats as raw bits.
fn cohort_fingerprint(table: &CohortTable) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "T{},{},{}",
        table.k_min,
        table.seed,
        table.method.name()
    );
    for c in &table.cohorts {
        let _ = write!(out, "C{},{}", c.id, c.size);
        for v in c
            .category_mix
            .iter()
            .chain([&c.mean_active_days, &c.mean_stays])
        {
            let _ = write!(out, ",{:016x}", v.to_bits());
        }
        out.push('\n');
    }
    for u in &table.users {
        let _ = write!(
            out,
            "U{}|{}|{}|{}|{}|{:?}|{:?}|",
            u.user, u.cohort, u.stays, u.active_days, u.transitions, u.category_visits, u.top_units
        );
        for (key, w) in &u.features {
            let _ = write!(out, "{key:x}:{:016x};", w.to_bits());
        }
        out.push('\n');
    }
    out
}

#[test]
fn golden_cohort_fingerprints_pin_the_mined_table() {
    // Captured from the straightforward k-means kernel, which computed
    // every row's distances afresh. The kernel now computes each distinct
    // profile once and claims to be bit-identical; a changed hash means
    // the cohort ids, aggregates or centroid arithmetic moved. Update a
    // hash only with an argument for why the new bytes are the right ones.
    const GOLDEN: [(u64, u64, u64); 3] = [
        (2026, 0x423c38c5704283ec, 0x958ea24eecdd3e9e),
        (7, 0xbaffb52ccafab48b, 0xf51441fe06ec07e5),
        (123, 0x598691d2a7155665, 0xa9837e25dac2589a),
    ];
    for (seed, want_default, want_fixed_k) in GOLDEN {
        let ds = Dataset::generate(&CityConfig::tiny(seed));
        let params = MinerParams {
            sigma: 20,
            ..MinerParams::default()
        };
        let embeddings = embed_corpus(&ds, &params);
        let fixed_k = CohortParams {
            k: 12,
            seed: 99,
            ..CohortParams::default()
        };
        for (cohort_params, want) in [
            (CohortParams::default(), want_default),
            (fixed_k, want_fixed_k),
        ] {
            let table = CohortTable::mine(embeddings.clone(), &cohort_params);
            assert_eq!(table.method, ClusterMethod::KMeans, "seed {seed}");
            let got = fnv1a(cohort_fingerprint(&table));
            assert_eq!(
                got, want,
                "corpus seed {seed}, cohort k {}: got {got:#018x}, want {want:#018x}",
                cohort_params.k
            );
        }
    }
}

proptest! {
    /// Whatever the corruption or thread count: serial and parallel runs
    /// agree byte for byte.
    #[test]
    fn parallel_runs_replay_serial_bytes(
        mode in 0usize..5,
        fraction in 0.0..=1.0f64,
        seed in 0u64..u64::MAX,
        threads in 2usize..9,
    ) {
        let (pois, mut trajectories) = small_corpus();
        let corruption = Corruption::standard_suite(fraction)[mode];
        corrupt_trajectories(&mut trajectories, &corruption, seed);
        let params = MinerParams { sigma: 10, ..MinerParams::default() };
        let (sp, se) = run_pipeline(&pois, trajectories.clone(), &params, 1);
        let (pp, pe) = run_pipeline(&pois, trajectories, &params, threads);
        prop_assert_eq!(fingerprint(&sp, &se), fingerprint(&pp, &pe));
    }
}
