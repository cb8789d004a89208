//! The system under test, driven the way production drives it: the batch
//! mining pass, a WAL-backed sharded server, and its HTTP clients.
//!
//! The mining pass is the sequence the CLI's `mine`, `motifs` and
//! `cohorts` commands run, followed by the re-miner's publish and swap:
//! CSD build, recognition, extraction, daily motifs, cohorts, encoding,
//! a read-back-verified publish, decoding, and a snapshot swap into the
//! running server. Each step is one span. The benchmark composes it from
//! the library's stage calls, because no single entry point of the program
//! mines every product: the CLI splits it over three commands with file
//! reads and writes between them, and the background re-miner leaves out
//! motifs and cohorts. When one entry point mines them all, [`mine`]
//! should call it.

use crate::inputs::{self, Endpoint, FixStream, Query};
use crate::trace::Trace;
use pervasive_miner::cluster::GaussianKernel;
use pervasive_miner::cohort::{embed_users, CohortParams, CohortTable, UserStay};
use pervasive_miner::core::recognize::{recognize_stay_point_unit, stay_points_of};
use pervasive_miner::core::types::GpsPoint;
use pervasive_miner::geo::LocalPoint;
use pervasive_miner::motif::{DayGraphBuilder, MotifAggregator};
use pervasive_miner::obs::Obs;
use pervasive_miner::prelude::*;
use pervasive_miner::serve::client::Conn;
use pervasive_miner::serve::{
    CohortQuery, MotifQuery, ServeConfig, ServeState, Server, ShutdownHandle, SimilarQuery,
    Snapshot,
};
use pervasive_miner::store::{Artifact, GenerationStore};
use pervasive_miner::stream::{
    EngineConfig, IngestRecord, Recognizer, ShardConfig, ShardedEngine, WalConfig, DAY_SECS,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// User-keyed shards of the live engine.
const SHARDS: usize = 2;
/// Server worker threads.
const SERVE_THREADS: usize = 2;
/// Batches ingested during set-up: one simulated day of the stream.
const WARM_BATCHES: usize = 96;
/// Distinct queries in the read mix.
const QUERIES: usize = 1_000;
/// Cities the mining workload rotates through, so a run's figures average
/// over corpora instead of hanging on one city's clustering.
pub const CITIES: u64 = 64;

/// What one mining pass produced.
pub struct Mined {
    pub snapshot: Arc<Snapshot>,
    pub fingerprint: u64,
    pub bytes: usize,
    pub stays: usize,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The CLI's user identity rule: carded passengers by card, anonymous
/// trajectories alone.
fn user_of(traj: &SemanticTrajectory, index: usize) -> String {
    match traj.passenger {
        Some(card) => format!("card-{card}"),
        None => format!("u{index}"),
    }
}

/// One full mining pass over the corpus, published into `store`.
pub fn mine(
    ds: &Dataset,
    params: &MinerParams,
    store: &GenerationStore,
    trace: &mut Trace,
) -> Result<Mined, String> {
    trace.span("mine", |trace| {
        let csd = trace.span("csd_build", |_| {
            let stays = stay_points_of(&ds.trajectories);
            CitySemanticDiagram::build(&ds.pois, &stays, params).map_err(|e| e.to_string())
        })?;
        let corpus = ds.trajectories.clone();
        let recognized = trace.span("recognize", |_| {
            recognize_all(&csd, corpus, params).map_err(|e| e.to_string())
        })?;
        let patterns = trace.span("extract", |_| {
            extract_patterns(&recognized, params).map_err(|e| e.to_string())
        })?;
        let kernel = GaussianKernel::new(params.r3sigma);
        let motifs = trace.span("motifs", |_| {
            let mut agg = MotifAggregator::new();
            for traj in &ds.trajectories {
                let mut current: Option<(i64, DayGraphBuilder)> = None;
                for sp in &traj.stays {
                    let (unit, _, primary) = recognize_stay_point_unit(&csd, &kernel, sp.pos);
                    let Some(unit) = unit else { continue };
                    let day = sp.time.div_euclid(DAY_SECS);
                    match &mut current {
                        Some((d, builder)) if *d == day => builder.visit(unit as u64, primary),
                        slot => {
                            if let Some((_, builder)) = slot.take() {
                                agg.record(&builder.finish());
                            }
                            let mut builder = DayGraphBuilder::new();
                            builder.visit(unit as u64, primary);
                            *slot = Some((day, builder));
                        }
                    }
                }
                if let Some((_, builder)) = current {
                    agg.record(&builder.finish());
                }
            }
            agg.table()
        });
        let cohorts = trace.span("cohorts", |_| {
            let mut groups: BTreeMap<String, Vec<UserStay>> = BTreeMap::new();
            for (i, traj) in ds.trajectories.iter().enumerate() {
                let stays = groups.entry(user_of(traj, i)).or_default();
                for sp in &traj.stays {
                    let (unit, _, primary) = recognize_stay_point_unit(&csd, &kernel, sp.pos);
                    if let Some(unit) = unit {
                        stays.push(UserStay {
                            unit: unit as u64,
                            category: primary,
                            time: sp.time,
                        });
                    }
                }
            }
            groups.retain(|_, stays| !stays.is_empty());
            let groups: Vec<(String, Vec<UserStay>)> = groups.into_iter().collect();
            let cohort_params = CohortParams {
                threads: params.threads,
                ..CohortParams::default()
            };
            CohortTable::mine(embed_users(&groups, cohort_params.threads), &cohort_params)
        });
        let artifact = Artifact::new(csd, patterns, *params)
            .with_motifs(motifs)
            .with_cohorts(cohorts);
        let bytes = trace.span("encode", |_| artifact.to_bytes());
        drop(artifact);
        trace.span("publish", |_| {
            store.publish(&bytes).map_err(|e| e.to_string())
        })?;
        let artifact = trace.span("decode", |_| {
            Artifact::from_bytes_verified(&bytes).map_err(|e| e.to_string())
        })?;
        let snapshot = trace.span("snapshot", |_| Snapshot::new(artifact))?;
        Ok(Mined {
            snapshot: Arc::new(snapshot),
            fingerprint: fnv1a(&bytes),
            bytes: bytes.len(),
            stays: ds.n_stays(),
        })
    })
}

/// A running server and the state it routes against.
pub struct Served {
    pub addr: SocketAddr,
    pub state: Arc<ServeState>,
    handle: ShutdownHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

/// Starts a server over `snapshot` the way `pervasive-miner serve
/// --wal-dir` does: sharded live engine, write-ahead log, enabled
/// observability, default limits.
pub fn serve(snapshot: Arc<Snapshot>, wal_dir: &Path) -> Result<Served, String> {
    let engine = EngineConfig::from_miner(&snapshot.artifact().params);
    let config = ShardConfig::new(SHARDS, engine).with_wal(WalConfig::new(wal_dir));
    let (engine, _) =
        ShardedEngine::open(config, &recognizer(&snapshot)).map_err(|e| e.to_string())?;
    let obs = Obs::enabled();
    let state = Arc::new(ServeState::with_engine(snapshot, engine).with_obs(obs.clone()));
    let config = ServeConfig {
        threads: SERVE_THREADS,
        ..ServeConfig::default()
    };
    let server = Server::bind_with_state("127.0.0.1:0", Arc::clone(&state), config, obs)
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handle = server.shutdown_handle().map_err(|e| e.to_string())?;
    let thread = std::thread::spawn(move || server.run());
    Ok(Served {
        addr,
        state,
        handle,
        thread,
    })
}

impl Served {
    /// Stops the server and waits for it to drain.
    pub fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        match self.thread.join() {
            Ok(result) => result.map_err(|e| format!("serve: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// A keep-alive client that reconnects when the server's per-connection
/// request cap closes the connection, as a production client must.
pub struct Client {
    addr: SocketAddr,
    conn: Option<Conn>,
    sent: usize,
    cap: usize,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            sent: 0,
            cap: ServeConfig::default().max_requests_per_conn,
        }
    }

    pub fn send(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), String> {
        if self.sent >= self.cap {
            self.conn = None;
        }
        let conn = match &mut self.conn {
            Some(conn) => conn,
            slot => {
                self.sent = 0;
                slot.insert(Conn::open(self.addr).map_err(|e| format!("connect: {e}"))?)
            }
        };
        self.sent += 1;
        let reply = conn.send(method, target, body).map_err(|e| e.to_string());
        if reply.is_err() {
            self.conn = None;
        }
        reply
    }
}

/// Renders a read query in process, exactly as the server routes it.
pub fn render(query: &Query, state: &ServeState) -> Option<String> {
    let (snapshot, _) = state.snapshot();
    let param = |name: &str| {
        query
            .params
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };
    let user = || {
        query
            .path
            .trim_start_matches("/v1/users/")
            .rsplit_once('/')
            .map(|(user, _)| user)
            .unwrap_or_default()
    };
    match query.endpoint {
        Endpoint::Semantic => snapshot
            .resolve_point(param("x"), param("y"), None, None)
            .ok()
            .map(|pos| snapshot.semantic_json(pos)),
        Endpoint::Patterns => snapshot
            .pattern_query_from_params(&query.params)
            .ok()
            .map(|(q, limit)| snapshot.patterns_json(&q, limit)),
        Endpoint::Motifs => MotifQuery::from_params(&query.params)
            .ok()
            .and_then(|q| snapshot.motifs_json(&q)),
        Endpoint::Cohorts => CohortQuery::from_params(&query.params)
            .ok()
            .and_then(|q| snapshot.cohorts_json(&q))
            .map(|(body, _)| body),
        Endpoint::UserPatterns => snapshot.user_patterns_json(user()).ok().map(|(b, _)| b),
        Endpoint::UserSimilar => SimilarQuery::from_params(&query.params)
            .ok()
            .and_then(|q| snapshot.user_similar_json(user(), &q).ok())
            .map(|(body, _)| body),
        Endpoint::LivePatterns => Some(state.live_patterns_json()),
        Endpoint::LiveMotifs => Some(state.live_motifs_json()),
    }
}

/// What one ingest batch did, as the server reported it.
#[derive(Default, Clone, Copy)]
pub struct Ingested {
    pub fixes: u64,
    pub stays: u64,
    pub transitions: u64,
}

/// The counts of an ingest reply.
fn reply_counts(reply: &str) -> Result<Ingested, String> {
    let json =
        pervasive_miner::serve::json::parse(reply).map_err(|e| format!("ingest reply: {e}"))?;
    let count = |key: &str| json.get(key).and_then(|v| v.as_i64()).unwrap_or(0) as u64;
    Ok(Ingested {
        fixes: count("accepted"),
        stays: count("stays"),
        transitions: count("transitions"),
    })
}

/// Ingests the next batch of the stream over HTTP and returns its latency
/// in milliseconds and the fixes accepted. With tracing on, every other
/// batch goes through the server's decode and engine calls in process
/// instead, so the trace splits a batch's time into HTTP, JSON decoding
/// and the engine (WAL, shards, detection, recognition, window).
pub fn ingest(
    world: &mut World,
    client: &mut Client,
    trace: &mut Trace,
) -> Result<(f64, u64), String> {
    let fixes = world.stream.batch();
    let body = inputs::ingest_body(&fixes);
    world.batches += 1;
    let state = Arc::clone(&world.server.state);
    let in_process = trace.enabled() && world.batches.is_multiple_of(2);
    let (outcome, ms) = crate::trace::timed(|| {
        if in_process {
            let json = trace.span("ingest_decode", |_| {
                pervasive_miner::serve::json::parse(&body).map_err(|e| e.to_string())
            })?;
            let (_, outcome) = trace.span("ingest_engine", |_| {
                state
                    .ingest_json(&json, ServeConfig::default().max_batch_records)
                    .map_err(|(status, m)| format!("{status}: {m}"))
            })?;
            Ok(Ingested {
                fixes: outcome.accepted,
                stays: outcome.stays,
                transitions: outcome.transitions,
            })
        } else {
            let (status, reply) = trace.span("ingest_http", |_| {
                client.send("POST", "/v1/ingest", Some(&body))
            })?;
            if status != 200 {
                return Err(format!("ingest answered {status}: {reply}"));
            }
            reply_counts(&reply)
        }
    });
    let outcome = outcome?;
    if outcome.fixes != fixes.len() as u64 {
        return Err(format!(
            "ingest accepted {} of {} fixes",
            outcome.fixes,
            fixes.len()
        ));
    }
    world.ingested.fixes += outcome.fixes;
    world.ingested.stays += outcome.stays;
    world.ingested.transitions += outcome.transitions;
    Ok((ms, outcome.fixes))
}

/// Sends query `i` of the mix and checks the body against the in-process
/// rendering. With tracing on, the query is also rendered in process, so
/// the trace splits its time into rendering and the HTTP round trip around
/// it (their per-request difference); a similar-user search is then also
/// rendered as its exact scan over every user.
pub fn query(
    world: &World,
    client: &mut Client,
    i: usize,
    trace: &mut Trace,
) -> Result<f64, String> {
    let q = &world.queries[i % world.queries.len()];
    let expected = &world.expected[i % world.queries.len()];
    let (reply, ms) =
        crate::trace::timed(|| trace.span("query_http", |_| client.send("GET", &q.target, None)));
    let (status, body) = reply?;
    if status != 200 || &body != expected {
        return Err(format!(
            "{} answered {status} with an unexpected body",
            q.target
        ));
    }
    if trace.enabled() {
        let span = match q.endpoint {
            Endpoint::Semantic => "render_semantic",
            Endpoint::Patterns => "render_patterns",
            Endpoint::UserSimilar => "render_similar",
            Endpoint::LivePatterns | Endpoint::LiveMotifs => "render_live",
            _ => "render_other",
        };
        let (rendered, render_ms) =
            crate::trace::timed(|| trace.span(span, |_| render(q, &world.server.state)));
        if rendered.as_ref() != Some(expected) {
            return Err(format!("{} rendered differently in process", q.target));
        }
        trace.sample("query_http_self", ms - render_ms);
        if let Endpoint::UserSimilar = q.endpoint {
            let scan = inputs::scan_all(q);
            if trace
                .span("render_similar_all", |_| render(&scan, &world.server.state))
                .is_none()
            {
                return Err(format!("{} has no answer", scan.target));
            }
        }
    }
    Ok(ms)
}

/// Everything set-up builds: the corpus, the mined artifact, a server with
/// a day of live traffic behind it, and the read mix with the body each
/// query must return.
pub struct World {
    pub dir: PathBuf,
    pub seed: u64,
    /// The corpora of the [`CITIES`] cities the mining workload re-mines.
    pub corpora: Vec<Dataset>,
    pub params: MinerParams,
    pub store: GenerationStore,
    pub mined: Mined,
    pub server: Served,
    pub centers: Vec<LocalPoint>,
    pub stream: FixStream,
    pub batches: u64,
    pub ingested: Ingested,
    pub queries: Vec<Query>,
    pub expected: Vec<String>,
}

/// Builds a world in `dir`: generate, mine, serve, ingest a day, and
/// prepare the read mix.
pub fn setup(seed: u64, dir: &Path, trace: &mut Trace) -> Result<World, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let served = trace.span("synth", |_| Dataset::generate(&inputs::served_city()));
    let corpora: Vec<Dataset> = (0..CITIES)
        .map(|city| trace.span("synth", |_| Dataset::generate(&inputs::city(seed, city))))
        .collect();
    let params = inputs::params();
    let store = GenerationStore::open(dir.join("generations"), 2).map_err(|e| e.to_string())?;
    let mined = mine(&served, &params, &store, trace)?;
    let server = serve(Arc::clone(&mined.snapshot), &dir.join("wal"))?;
    let centers: Vec<LocalPoint> = mined
        .snapshot
        .artifact()
        .csd
        .units()
        .iter()
        .map(|u| u.center)
        .collect();
    let users = cohort_users(&mined.snapshot)?;
    let mut world = World {
        dir: dir.to_path_buf(),
        seed,
        stream: FixStream::new(seed, centers.clone()),
        centers,
        corpora,
        params,
        store,
        mined,
        server,
        batches: 0,
        ingested: Ingested::default(),
        queries: Vec::new(),
        expected: Vec::new(),
    };
    let mut client = Client::new(world.server.addr);
    for _ in 0..WARM_BATCHES {
        ingest(&mut world, &mut client, trace)?;
    }
    world.queries = inputs::query_mix(seed, QUERIES, &world.centers, &users);
    for q in &world.queries {
        let body =
            render(q, &world.server.state).ok_or_else(|| format!("{} has no answer", q.target))?;
        world.expected.push(body);
    }
    for i in 0..world.queries.len() {
        query(&world, &mut client, i, trace)?;
    }
    Ok(world)
}

/// The user ids in the artifact's cohort index.
fn cohort_users(snapshot: &Snapshot) -> Result<Vec<String>, String> {
    let users: Vec<String> = snapshot
        .artifact()
        .cohorts
        .iter()
        .flat_map(|t| t.users.iter().map(|u| u.user.clone()))
        .collect();
    if users.is_empty() {
        return Err("the mined artifact has no cohort index".into());
    }
    Ok(users)
}

/// A single-shard engine without a WAL over `snapshot`, fed `batches`
/// batches of the stream `seed` draws over `centers`.
fn replay(
    seed: u64,
    centers: &[LocalPoint],
    batches: u64,
    snapshot: &Arc<Snapshot>,
) -> Result<ShardedEngine, String> {
    let recognize = recognizer(snapshot);
    let config = ShardConfig::new(1, EngineConfig::from_miner(&snapshot.artifact().params));
    let (engine, _) = ShardedEngine::open(config, &recognize).map_err(|e| e.to_string())?;
    let mut stream = FixStream::new(seed, centers.to_vec());
    for _ in 0..batches {
        let records = stream
            .batch()
            .into_iter()
            .map(|f| {
                let point = GpsPoint::new(LocalPoint::new(f.x, f.y), f.t);
                (inputs::stream_user(f.user), IngestRecord::Fix(point))
            })
            .collect();
        engine.ingest_batch(records, &recognize);
    }
    Ok(engine)
}

fn recognizer(snapshot: &Arc<Snapshot>) -> Recognizer {
    let snapshot = Arc::clone(snapshot);
    Arc::new(move |pos| snapshot.primary_category(pos))
}

/// Replays every batch the server ingested into a single-shard engine
/// without a WAL, and checks that the server's live views are
/// byte-identical to that reference.
pub fn check_live(world: &World) -> Result<(), String> {
    let snapshot = &world.mined.snapshot;
    let engine = replay(world.seed, &world.centers, world.batches, snapshot)?;
    let reference = ServeState::with_engine(Arc::clone(snapshot), engine);
    let mut client = Client::new(world.server.addr);
    for (path, expected) in [
        ("/v1/live/patterns", reference.live_patterns_json()),
        ("/v1/live/motifs", reference.live_motifs_json()),
    ] {
        let (status, body) = client.send("GET", path, None)?;
        if status != 200 || body != expected {
            return Err(format!("{path} differs from the single-shard reference"));
        }
    }
    Ok(())
}

/// Digest of what the served city's artifact means, whatever its encoding:
/// unit centers, patterns with their support, motif classes, and each
/// user's cohort.
const SERVED_DIGEST: u64 = 0xab7b_6556_b7ba_3dc8;
/// Digest of every body of a fixed query mix (seed 0, each similar-user
/// search in both scopes), rendered in process over the served city with
/// one simulated day of a fixed stream behind its live engine. It pins the
/// answers of the query-time code: point lookup, pattern filters,
/// similar-user ranking and pruning, cohort and motif views, live views.
const READ_DIGEST: u64 = 0x97e4_a093_c1d4_2098;

fn artifact_digest(artifact: &Artifact) -> u64 {
    let mut text = String::new();
    for unit in artifact.csd.units() {
        let _ = write!(
            text,
            "u{:x},{:x};",
            unit.center.x.to_bits(),
            unit.center.y.to_bits()
        );
    }
    for pattern in &artifact.patterns {
        let _ = write!(text, "p{}#{};", pattern.describe(), pattern.support());
    }
    for class in artifact.motifs.iter().flat_map(|t| &t.classes) {
        let _ = write!(text, "m{:x}#{};", class.form, class.days);
    }
    for user in artifact.cohorts.iter().flat_map(|t| &t.users) {
        let _ = write!(text, "c{}#{};", user.user, user.cohort);
    }
    fnv1a(text.as_bytes())
}

fn read_digest(snapshot: &Arc<Snapshot>, centers: &[LocalPoint]) -> Result<u64, String> {
    let engine = replay(0, centers, WARM_BATCHES as u64, snapshot)?;
    let reference = ServeState::with_engine(Arc::clone(snapshot), engine);
    let users = cohort_users(snapshot)?;
    let mut text = String::new();
    for q in inputs::query_mix(0, QUERIES, centers, &users) {
        let scan = matches!(q.endpoint, Endpoint::UserSimilar).then(|| inputs::scan_all(&q));
        for q in std::iter::once(&q).chain(&scan) {
            let body =
                render(q, &reference).ok_or_else(|| format!("{} has no answer", q.target))?;
            let _ = writeln!(text, "{}\n{body}", q.target);
        }
    }
    Ok(fnv1a(text.as_bytes()))
}

/// Checks the served artifact and the answers read queries get against
/// digests of their known-good output, so a run never measures a program
/// that mines, streams or answers wrongly.
pub fn check_golden(world: &World) -> Result<(), String> {
    let served = artifact_digest(world.mined.snapshot.artifact());
    let read = read_digest(&world.mined.snapshot, &world.centers)?;
    if (served, read) != (SERVED_DIGEST, READ_DIGEST) {
        return Err(format!(
            "outputs differ from the known-good ones: artifact digest {served:#018x}, read digest {read:#018x}"
        ));
    }
    Ok(())
}
