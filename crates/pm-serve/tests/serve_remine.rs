//! Supervised re-mining under fault injection.
//!
//! The contract under test: the background re-miner may panic, error, hang,
//! or produce corrupt artifacts, and the serving path still never answers
//! 5xx, never swaps in a bad snapshot, records every failure kind in the
//! `miner.*` counters, and recovers (backoff + circuit breaker) once the
//! faults stop. A successful re-mine publishes every section the CLI's
//! `mine --artifact` writes, recomputed from the live stays, and keeps the
//! base cohort table's anonymity floor and seed. Plus the satellite
//! behaviours: `Retry-After` on overload answers and a final WAL
//! checkpoint on graceful shutdown.

use pm_cohort::CohortParams;
use pm_core::prelude::*;
use pm_geo::{GeoPoint, LocalPoint};
use pm_obs::Obs;
use pm_serve::{
    client, mine_artifact, InjectedFault, RemineConfig, Reminer, ServeConfig, ServeState, Server,
    Snapshot,
};
use pm_store::{Artifact, GenerationStore};
use pm_stream::{EngineConfig, WalConfig};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

const ORIGIN: (f64, f64) = (121.4737, 31.2304);

static DIR_ID: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pm-remine-{tag}-{}-{}",
        std::process::id(),
        DIR_ID.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The base artifact's cohort anonymity floor and seed, both off their
/// defaults so a re-mine that fell back to the defaults would show.
const BASE_K_MIN: u32 = 7;
const BASE_SEED: u64 = 99;

/// One mined, geo-anchored artifact carrying every section (same city as
/// the other suites), its cohorts mined with [`BASE_K_MIN`] and
/// [`BASE_SEED`].
fn artifact() -> &'static Artifact {
    static ART: OnceLock<Artifact> = OnceLock::new();
    ART.get_or_init(|| {
        let ds = pm_eval::Dataset::generate(&pm_synth::CityConfig::tiny(42));
        let params = MinerParams {
            sigma: 20,
            ..MinerParams::default()
        };
        let cohort = CohortParams {
            k_min: BASE_K_MIN,
            seed: BASE_SEED,
            ..CohortParams::default()
        };
        let corpus = ds
            .trajectories
            .into_iter()
            .enumerate()
            .map(|(i, traj)| (format!("rider-{i}"), traj))
            .collect();
        let artifact = mine_artifact(&ds.pois, corpus, &params, &cohort, &Obs::noop())
            .expect("mine")
            .with_projection(GeoPoint::new(ORIGIN.0, ORIGIN.1));
        Artifact::from_bytes(&artifact.to_bytes()).expect("store round-trip")
    })
}

fn snapshot() -> Arc<Snapshot> {
    Arc::new(Snapshot::new(artifact().clone()).expect("snapshot"))
}

/// Two unit centers the snapshot recognizes as tagged.
fn tagged_centers() -> (LocalPoint, LocalPoint) {
    let s = snapshot();
    let centers: Vec<LocalPoint> = s
        .artifact()
        .csd
        .units()
        .iter()
        .map(|u| u.center)
        .filter(|&c| s.primary_category(c).is_some())
        .take(2)
        .collect();
    assert!(centers.len() == 2, "fixture must yield two tagged units");
    (centers[0], centers[1])
}

fn stays_body(records: &[(&str, LocalPoint, i64)]) -> String {
    let mut body = String::from("{\"stays\":[");
    for (i, (user, pos, t)) in records.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"user\":\"{user}\",\"x\":{},\"y\":{},\"t\":{t}}}",
            pos.x, pos.y
        ));
    }
    body.push_str("]}");
    body
}

struct Running {
    addr: SocketAddr,
    handle: pm_serve::ShutdownHandle,
    obs: Obs,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

fn start_state(state: Arc<ServeState>, config: ServeConfig) -> Running {
    let obs = Obs::enabled();
    let server = Server::bind_with_state("127.0.0.1:0", state, config, obs.clone()).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.shutdown_handle().expect("handle");
    let thread = std::thread::spawn(move || server.run());
    Running {
        addr,
        handle,
        obs,
        thread,
    }
}

impl Running {
    fn stop(self) {
        self.handle.shutdown();
        self.thread.join().expect("server thread").expect("run");
    }
}

/// Polls `f` until it holds or `timeout` passes; `true` on success.
fn wait_until(timeout: Duration, mut f: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    loop {
        if f() {
            return true;
        }
        if start.elapsed() > timeout {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// 12 stay records: two users, six stays each within one day, alternating
/// between two tagged centers.
fn seed_records() -> Vec<(&'static str, LocalPoint, i64)> {
    let (a, b) = tagged_centers();
    let mut records = Vec::new();
    for i in 0..6i64 {
        let pos = if i % 2 == 0 { a } else { b };
        records.push(("u1", pos, 1_000 + 100 * i));
        records.push(("u2", pos, 1_000 + 100 * i));
    }
    records
}

/// Feeds the [`seed_records`] so the engine accumulates re-minable stays.
fn seed_stays(addr: SocketAddr) {
    let (status, body) =
        client::post(addr, "/v1/ingest", &stays_body(&seed_records())).expect("ingest");
    assert_eq!(status, 200, "{body}");
}

#[test]
fn reminer_publishes_a_generation_and_swaps_the_snapshot() {
    let state = Arc::new(
        ServeState::new(snapshot(), EngineConfig::from_miner(&artifact().params)).expect("state"),
    );
    let server = start_state(Arc::clone(&state), ServeConfig::default());
    seed_stays(server.addr);

    let store_dir = scratch("publish");
    let store = GenerationStore::open(&store_dir, 3).expect("store");
    let reminer = Reminer::spawn(
        Arc::clone(&state),
        store.clone(),
        RemineConfig {
            interval: Duration::from_millis(10),
            min_stays: 4,
            ..RemineConfig::default()
        },
        server.obs.clone(),
    );

    assert!(
        wait_until(Duration::from_secs(30), || reminer.status().jobs_succeeded
            >= 1),
        "re-miner never succeeded: {:?}",
        reminer.status()
    );

    // A verified generation landed on disk and is the store's latest-good.
    let (generation, _artifact) = store.latest_good().expect("scan").expect("good generation");
    assert!(generation >= 1);
    // The serving snapshot swapped (epoch moved), visible over HTTP.
    let (status, live) = client::get(server.addr, "/v1/live/patterns").expect("live");
    assert_eq!(status, 200);
    assert!(
        !live.starts_with("{\"epoch\":0,"),
        "no swap happened: {live}"
    );
    // The engine's live window survived the swap.
    assert!(live.contains("\"users\":2"), "{live}");

    // /v1/miner reports the same story in valid JSON.
    let (status, miner) = client::get(server.addr, "/v1/miner").expect("miner");
    assert_eq!(status, 200);
    let parsed = pm_serve::json::parse(&miner).expect("miner JSON");
    assert!(miner.contains("\"enabled\":true"), "{miner}");
    assert!(
        parsed
            .get("jobs_succeeded")
            .and_then(|v| v.as_i64())
            .unwrap_or(0)
            >= 1,
        "{miner}"
    );
    assert!(server.obs.counter("miner.published_generations") >= 1);
    assert_eq!(server.obs.counter("miner.failures_panic"), 0);

    reminer.stop();
    server.stop();
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// Serves the fixture, feeds it `records`, and runs the re-miner until it
/// has published one generation. Returns the running server, the state,
/// the published generation as decoded from the store, and the store dir.
fn remine_once(
    records: &[(&str, LocalPoint, i64)],
) -> (Running, Arc<ServeState>, Artifact, PathBuf) {
    let state = Arc::new(
        ServeState::new(snapshot(), EngineConfig::from_miner(&artifact().params)).expect("state"),
    );
    let server = start_state(Arc::clone(&state), ServeConfig::default());
    let (status, body) =
        client::post(server.addr, "/v1/ingest", &stays_body(records)).expect("ingest");
    assert_eq!(status, 200, "{body}");

    let store_dir = scratch("sections");
    let store = GenerationStore::open(&store_dir, 3).expect("store");
    let reminer = Reminer::spawn(
        Arc::clone(&state),
        store.clone(),
        RemineConfig {
            interval: Duration::from_millis(10),
            min_stays: 4,
            ..RemineConfig::default()
        },
        server.obs.clone(),
    );
    assert!(
        wait_until(Duration::from_secs(60), || reminer.status().jobs_succeeded
            >= 1),
        "re-miner never succeeded: {:?}",
        reminer.status()
    );
    reminer.stop();
    let (_, published) = store.latest_good().expect("scan").expect("good generation");
    (server, state, published, store_dir)
}

#[test]
fn remine_publishes_every_section_and_keeps_the_cohort_floor_and_seed() {
    // A publish that dropped the motif or cohort section would turn these
    // into 404s on a server booted from a fully mined artifact.
    let (server, state, published, store_dir) = remine_once(&seed_records());

    for target in ["/v1/motifs", "/v1/cohorts", "/v1/users/u1/patterns"] {
        let (status, body) = client::get(server.addr, target).expect("get");
        assert_eq!(status, 200, "{target}: {body}");
    }
    let served = state.snapshot().0;
    let served = served.artifact();
    // Recomputed from the live stays (u1 and u2, one day each, every stay
    // recognized), under the base table's floor and seed.
    let cohorts = served.cohorts.as_ref().expect("cohort section");
    assert_eq!(cohorts.k_min, BASE_K_MIN);
    assert_eq!(cohorts.seed, BASE_SEED);
    let users: Vec<&str> = cohorts.users.iter().map(|u| u.user.as_str()).collect();
    assert_eq!(users, ["u1", "u2"]);
    assert!(cohorts.users.iter().all(|u| u.stays == 6), "{cohorts:?}");
    let motifs = served.motifs.as_ref().expect("motif section");
    assert_eq!(motifs.total_days, 2, "{motifs:?}");
    // What is served is what the store verified.
    assert_eq!(served.motifs, published.motifs);
    assert_eq!(served.cohorts, published.cohorts);

    server.stop();
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn remine_buckets_motif_days_and_active_days_by_absolute_day() {
    // u1's last three stays move to the next day: three user-days in all.
    let records: Vec<(&str, LocalPoint, i64)> = seed_records()
        .into_iter()
        .map(|(user, pos, t)| {
            let next_day = user == "u1" && t >= 1_300;
            (user, pos, if next_day { t + 86_400 } else { t })
        })
        .collect();
    let (server, state, _, store_dir) = remine_once(&records);

    let served = state.snapshot().0;
    let served = served.artifact();
    let motifs = served.motifs.as_ref().expect("motif section");
    assert_eq!(motifs.total_days, 3, "{motifs:?}");
    let cohorts = served.cohorts.as_ref().expect("cohort section");
    let active: Vec<(&str, u64)> = cohorts
        .users
        .iter()
        .map(|u| (u.user.as_str(), u.active_days))
        .collect();
    assert_eq!(active, [("u1", 2), ("u2", 1)]);

    server.stop();
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn remine_with_no_recognized_stay_publishes_empty_tables() {
    // Far outside the city: no POI, hence no unit, within the kernel
    // cutoff of any stay.
    let far = LocalPoint::new(1.0e7, 1.0e7);
    let records: Vec<(&str, LocalPoint, i64)> = (0..6i64)
        .flat_map(|i| [("u1", far, 1_000 + 100 * i), ("u2", far, 1_000 + 100 * i)])
        .collect();
    let (server, state, published, store_dir) = remine_once(&records);

    let motifs = published.motifs.as_ref().expect("motif section");
    assert_eq!(motifs.total_days, 0);
    assert!(motifs.classes.is_empty());
    let cohorts = published.cohorts.as_ref().expect("cohort section");
    assert!(cohorts.users.is_empty() && cohorts.cohorts.is_empty());
    assert_eq!((cohorts.k_min, cohorts.seed), (BASE_K_MIN, BASE_SEED));
    // The empty tables survive a second encode/decode unchanged.
    let again = Artifact::from_bytes_verified(&published.to_bytes()).expect("round trip");
    assert_eq!(again.motifs, published.motifs);
    assert_eq!(again.cohorts, published.cohorts);
    let served = state.snapshot().0;
    assert_eq!(served.artifact().cohorts, published.cohorts);
    for target in ["/v1/motifs", "/v1/cohorts"] {
        let (status, body) = client::get(server.addr, target).expect("get");
        assert_eq!(status, 200, "{target}: {body}");
    }

    server.stop();
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn every_failure_kind_is_survived_counted_and_recovered_from() {
    let state = Arc::new(
        ServeState::new(snapshot(), EngineConfig::from_miner(&artifact().params)).expect("state"),
    );
    let server = start_state(Arc::clone(&state), ServeConfig::default());
    seed_stays(server.addr);

    // While the miner is being tortured, hammer the serving path from a
    // sibling thread: every response must be < 500.
    let done = Arc::new(AtomicBool::new(false));
    let poll_done = Arc::clone(&done);
    let poll_addr = server.addr;
    let poller = std::thread::spawn(move || -> (u64, u16) {
        let mut requests = 0u64;
        let mut worst = 0u16;
        while !poll_done.load(Ordering::SeqCst) {
            for target in ["/healthz", "/v1/live/patterns", "/v1/miner", "/v1/stats"] {
                if let Ok((status, _)) = client::get(poll_addr, target) {
                    requests += 1;
                    worst = worst.max(status);
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        (requests, worst)
    });

    // Job 1 panics, job 2 errors, job 3 mines a corrupt artifact (publish
    // must refuse it), job 4 hangs past the deadline (timeout) — and while
    // it still occupies the worker, follow-up jobs go busy. From job 7 on,
    // mining is healthy again.
    let fault = Arc::new(|seq: u64| match seq {
        1 => Some(InjectedFault::Panic),
        2 => Some(InjectedFault::Error),
        3 => Some(InjectedFault::CorruptArtifact),
        4 => Some(InjectedFault::Hang(Duration::from_millis(2_500))),
        _ => None,
    });
    let store_dir = scratch("faults");
    let store = GenerationStore::open(&store_dir, 3).expect("store");
    let reminer = Reminer::spawn(
        Arc::clone(&state),
        store.clone(),
        RemineConfig {
            interval: Duration::from_millis(5),
            min_stays: 4,
            job_deadline: Duration::from_millis(700),
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(10),
            // This test is about failure kinds, not the breaker: the hung
            // job produces busy failures every ~10ms for 2.5s, so keep the
            // threshold out of reach and the cooldown short in case.
            circuit_threshold: 10_000,
            circuit_cooldown: Duration::from_millis(200),
            seed: 7,
            fault: Some(fault),
            ..RemineConfig::default()
        },
        server.obs.clone(),
    );

    assert!(
        wait_until(Duration::from_secs(60), || reminer.status().jobs_succeeded
            >= 1),
        "re-miner never recovered: {:?}",
        reminer.status()
    );
    let status = reminer.status();
    // Every injected failure kind was hit and counted (panic, error,
    // publish, timeout deterministically; busy while the hung job held the
    // worker).
    assert!(status.failures[0] >= 1, "panic uncounted: {status:?}");
    assert!(status.failures[1] >= 1, "error uncounted: {status:?}");
    assert!(status.failures[2] >= 1, "timeout uncounted: {status:?}");
    assert!(status.failures[3] >= 1, "publish uncounted: {status:?}");
    assert!(status.failures[4] >= 1, "busy uncounted: {status:?}");
    for name in [
        "miner.failures_panic",
        "miner.failures_error",
        "miner.failures_timeout",
        "miner.failures_publish",
        "miner.failures_busy",
    ] {
        assert!(server.obs.counter(name) >= 1, "{name} not recorded");
    }

    // The corrupt artifact never reached disk as a generation: everything
    // retained verifies.
    let generations = store.generations();
    assert!(!generations.is_empty());
    for g in &generations {
        Artifact::read_file_verified(store.generation_path(*g))
            .unwrap_or_else(|e| panic!("generation {g} is corrupt: {e}"));
    }

    // The serving path never felt any of it.
    done.store(true, Ordering::SeqCst);
    let (requests, worst) = poller.join().expect("poller");
    assert!(requests > 0, "poller must have exercised the server");
    assert!(worst < 500, "a request was answered {worst}");

    reminer.stop();
    server.stop();
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn circuit_opens_after_threshold_and_recovers_after_cooldown() {
    let state = Arc::new(
        ServeState::new(snapshot(), EngineConfig::from_miner(&artifact().params)).expect("state"),
    );
    let server = start_state(Arc::clone(&state), ServeConfig::default());
    seed_stays(server.addr);

    let fault = Arc::new(|seq: u64| (seq <= 2).then_some(InjectedFault::Error));
    let store_dir = scratch("circuit");
    let reminer = Reminer::spawn(
        Arc::clone(&state),
        GenerationStore::open(&store_dir, 3).expect("store"),
        RemineConfig {
            interval: Duration::from_millis(5),
            min_stays: 4,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(5),
            circuit_threshold: 2,
            circuit_cooldown: Duration::from_millis(100),
            fault: Some(fault),
            ..RemineConfig::default()
        },
        server.obs.clone(),
    );

    // Two consecutive failures open the circuit ...
    assert!(
        wait_until(Duration::from_secs(10), || {
            reminer.status().circuit_opens >= 1
        }),
        "circuit never opened: {:?}",
        reminer.status()
    );
    // ... and after the cooldown the half-open probe succeeds and closes it.
    assert!(
        wait_until(Duration::from_secs(30), || {
            let s = reminer.status();
            s.jobs_succeeded >= 1 && s.circuit == "closed"
        }),
        "circuit never recovered: {:?}",
        reminer.status()
    );
    let status = reminer.status();
    assert_eq!(status.circuit_opens, 1, "{status:?}");
    assert_eq!(status.consecutive_failures, 0, "{status:?}");
    assert_eq!(server.obs.counter("miner.circuit_opens"), 1);

    reminer.stop();
    server.stop();
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn overload_answers_carry_retry_after() {
    let (a, _) = tagged_centers();
    let state = Arc::new(
        ServeState::new(snapshot(), EngineConfig::from_miner(&artifact().params)).expect("state"),
    );
    let server = start_state(
        Arc::clone(&state),
        ServeConfig {
            max_batch_records: 1,
            retry_after_secs: 3,
            ..ServeConfig::default()
        },
    );

    let mut conn = client::Conn::open(server.addr).expect("connect");
    let too_big = stays_body(&[("u", a, 1), ("u", a, 2)]);
    let (status, body) = conn.post("/v1/ingest", &too_big).expect("post");
    assert_eq!(status, 429, "{body}");
    assert_eq!(conn.retry_after(), Some(3), "429 must carry Retry-After");

    // Normal answers do not carry the header.
    let mut conn = client::Conn::open(server.addr).expect("reconnect");
    let (status, _) = conn.get("/healthz").expect("healthz");
    assert_eq!(status, 200);
    assert_eq!(conn.retry_after(), None);

    server.stop();
}

#[test]
fn graceful_shutdown_cuts_a_final_wal_checkpoint() {
    let wal_dir = scratch("wal");
    let recognize: pm_stream::Recognizer = {
        let snap = snapshot();
        Arc::new(move |pos| snap.primary_category(pos))
    };
    // Two shards so the checkpoint/recovery path exercises the WAL fan-out,
    // not just a single log.
    let shard_config = || {
        pm_stream::ShardConfig::new(2, EngineConfig::from_miner(&artifact().params))
            .with_wal(WalConfig::new(&wal_dir))
    };

    let obs = Obs::enabled();
    let (engine, recovery) =
        pm_stream::ShardedEngine::open(shard_config(), &recognize).expect("open");
    assert_eq!(recovery.report.replayed_batches, 0);
    let state = Arc::new(ServeState::with_engine(snapshot(), engine).with_obs(obs.clone()));
    let server = start_state(Arc::clone(&state), ServeConfig::default());
    seed_stays(server.addr);
    let (_, live_before) = client::get(server.addr, "/v1/live/patterns").expect("live");
    server.stop(); // graceful: drains, then checkpoints every shard

    assert!(obs.counter("wal.appended_batches") >= 1);
    assert_eq!(obs.counter("wal.checkpoints"), 1);

    // Recovery needs no replay — the checkpoints cover everything — and
    // restores the exact live state.
    let (engine, recovery) =
        pm_stream::ShardedEngine::open(shard_config(), &recognize).expect("reopen");
    assert_eq!(
        recovery.report.replayed_batches, 0,
        "checkpoints must cover the logs"
    );
    assert!(recovery.checkpoints_restored >= 1);
    let ((users, _), _) = engine.gauges(&recognize);
    assert_eq!(users, 2);
    let restored = Arc::new(ServeState::with_engine(snapshot(), engine));
    let server = start_state(restored, ServeConfig::default());
    let (status, live_after) = client::get(server.addr, "/v1/live/patterns").expect("live");
    assert_eq!(status, 200);
    assert_eq!(live_after, live_before, "restored live state must match");
    server.stop();
    let _ = std::fs::remove_dir_all(&wal_dir);
}
