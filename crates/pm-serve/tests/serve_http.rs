//! End-to-end: a mined artifact served over a real loopback socket. The
//! bytes coming off the wire must be identical to the in-process snapshot
//! output, bursts must not produce spurious 5xx, overload must shed with
//! 503, and /v1/stats tallies must match what was actually requested.

use pm_core::prelude::*;
use pm_core::recognize::stay_points_of;
use pm_geo::GeoPoint;
use pm_obs::Obs;
use pm_serve::{client, ServeConfig, Server, Snapshot};
use pm_store::Artifact;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Shanghai anchor used across the repo's examples.
const ORIGIN: (f64, f64) = (121.4737, 31.2304);

/// One mined, geo-anchored artifact — and proof it survived a store
/// round-trip, so the serving path covers pm-store end to end.
fn artifact() -> &'static Artifact {
    static ART: OnceLock<Artifact> = OnceLock::new();
    ART.get_or_init(|| {
        let ds = pm_eval::Dataset::generate(&pm_synth::CityConfig::tiny(42));
        let params = MinerParams {
            sigma: 20,
            ..MinerParams::default()
        };
        let stays = stay_points_of(&ds.trajectories);
        let csd = CitySemanticDiagram::build(&ds.pois, &stays, &params).expect("build");
        let recognized = recognize_all(&csd, ds.trajectories, &params).expect("recognize");
        let patterns = extract_patterns(&recognized, &params).expect("extract");
        let artifact =
            Artifact::new(csd, patterns, params).with_projection(GeoPoint::new(ORIGIN.0, ORIGIN.1));
        Artifact::from_bytes(&artifact.to_bytes()).expect("store round-trip")
    })
}

fn snapshot() -> Arc<Snapshot> {
    Arc::new(Snapshot::new(artifact().clone()).expect("snapshot"))
}

struct Running {
    addr: SocketAddr,
    handle: pm_serve::ShutdownHandle,
    obs: Obs,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

fn start(config: ServeConfig) -> Running {
    let obs = Obs::enabled();
    let server = Server::bind("127.0.0.1:0", snapshot(), config, obs.clone()).expect("bind");
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

#[test]
fn endpoints_match_in_process_byte_for_byte() {
    let s = snapshot();
    let server = start(ServeConfig::default());

    let (status, body) = client::get(server.addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, s.healthz_json());

    // A position square in the city (the first unit's center) and one far
    // outside it.
    let center = s.artifact().csd.units()[0].center;
    for (x, y) in [(center.x, center.y), (9.9e6, 9.9e6)] {
        let (status, body) =
            client::get(server.addr, &format!("/v1/semantic?x={x}&y={y}")).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, s.semantic_json(pm_geo::LocalPoint::new(x, y)));
    }

    // Geographic lookup against the projection anchor.
    let (status, body) = client::get(
        server.addr,
        &format!("/v1/semantic?lat={}&lon={}", ORIGIN.1, ORIGIN.0),
    )
    .unwrap();
    assert_eq!(status, 200);
    let pos = s
        .resolve_point(
            None,
            None,
            Some(&ORIGIN.1.to_string()),
            Some(&ORIGIN.0.to_string()),
        )
        .unwrap();
    assert_eq!(body, s.semantic_json(pos));

    // Pattern queries, several combinator mixes.
    for target in [
        "/v1/patterns",
        "/v1/patterns?min_support=20&limit=5",
        "/v1/patterns?from=residence&to=business",
        &format!("/v1/patterns?near={},{},500&min_len=2", center.x, center.y),
        "/v1/patterns?bucket=weekday_morning&involving=residence",
    ] {
        let (status, body) = client::get(server.addr, target).unwrap();
        assert_eq!(status, 200, "{target}: {body}");
        let query = target.split_once('?').map(|(_, q)| q).unwrap_or("");
        let params: Vec<(String, String)> = query
            .split('&')
            .filter(|p| !p.is_empty())
            .map(|p| {
                let (k, v) = p.split_once('=').unwrap_or((p, ""));
                (k.to_string(), v.to_string())
            })
            .collect();
        let (q, limit) = s.pattern_query_from_params(&params).unwrap();
        assert_eq!(body, s.patterns_json(&q, limit), "{target}");
    }

    // Annotate: a loop of fixes dwelling at the unit center long enough to
    // be a stay, using the artifact's own thresholds.
    let mut points = String::from("{\"points\":[");
    for i in 0..20 {
        if i > 0 {
            points.push(',');
        }
        points.push_str(&format!(
            "{{\"x\":{},\"y\":{},\"t\":{}}}",
            center.x + (i % 3) as f64,
            center.y,
            i * 120
        ));
    }
    points.push_str("]}");
    let (status, body) = client::post(server.addr, "/v1/annotate", &points).unwrap();
    assert_eq!(status, 200, "{body}");
    let parsed = pm_serve::json::parse(&points).unwrap();
    assert_eq!(body, s.annotate_json(&parsed).unwrap());
    assert!(
        body.contains("\"stays\":[{"),
        "dwell must become a stay: {body}"
    );

    server.stop();
}

/// The mined artifact with a cohort section stitched on: one synthetic
/// user per behavior group — five residence-dwellers, three shoppers —
/// mined at `k_min: 4` so the shopper cohort sits below the anonymity
/// floor. Round-tripped through pm-store like the base artifact.
fn cohort_snapshot() -> Arc<Snapshot> {
    static SNAP: OnceLock<Arc<Snapshot>> = OnceLock::new();
    SNAP.get_or_init(|| {
        let mut embeddings = Vec::new();
        for u in 0..8 {
            let cat = if u < 5 {
                Category::Residence
            } else {
                Category::Shop
            };
            let unit0 = if u < 5 { 0 } else { 40 };
            let stays: Vec<pm_cohort::UserStay> = (0..6)
                .map(|i| pm_cohort::UserStay {
                    unit: unit0 + (i % 2) as u64,
                    category: Some(cat),
                    time: (i * 30_000) as i64,
                })
                .collect();
            embeddings.push(pm_cohort::embed_user(format!("user-{u:02}"), &stays));
        }
        let table = pm_cohort::CohortTable::mine(
            embeddings,
            &pm_cohort::CohortParams {
                k_min: 4,
                ..pm_cohort::CohortParams::default()
            },
        );
        let bytes = artifact().clone().with_cohorts(table).to_bytes();
        let artifact = Artifact::from_bytes(&bytes).expect("store round-trip");
        Arc::new(Snapshot::new(artifact).expect("snapshot"))
    })
    .clone()
}

#[test]
fn cohort_endpoints_match_in_process_and_suppress() {
    let s = cohort_snapshot();
    let obs = Obs::enabled();
    let server = Server::bind(
        "127.0.0.1:0",
        s.clone(),
        ServeConfig::default(),
        obs.clone(),
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.shutdown_handle().expect("handle");
    let thread = std::thread::spawn(move || server.run());

    // Wire bytes equal the in-process snapshot output, twice (the body is
    // deterministic for a given artifact).
    let expected = s
        .cohorts_json(&pm_serve::CohortQuery::default())
        .expect("table")
        .0;
    for _ in 0..2 {
        let (status, body) = client::get(addr, "/v1/cohorts").unwrap();
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, expected);
    }
    assert!(
        expected.contains("{\"id\":1,\"suppressed\":true}"),
        "{expected}"
    );

    let (status, body) = client::get(addr, "/v1/users/user-03/patterns").unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, s.user_patterns_json("user-03").expect("known").0);

    let (status, body) = client::get(addr, "/v1/users/user-03/similar?k=4&scope=all").unwrap();
    assert_eq!(status, 200, "{body}");
    let q = pm_serve::SimilarQuery::from_params(&[
        ("k".to_string(), "4".to_string()),
        ("scope".to_string(), "all".to_string()),
    ])
    .expect("query");
    assert_eq!(body, s.user_similar_json("user-03", &q).expect("known").0);

    // A shopper's cohort-scoped neighborhood is below k_min: the neighbor
    // list renders, the aggregate is an explicit suppression marker.
    let (status, body) = client::get(addr, "/v1/users/user-07/similar").unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(
        body.contains("\"aggregate\":{\"suppressed\":true}"),
        "{body}"
    );

    // Typed error paths: unknown user, bad action, unknown parameter.
    for (target, expect) in [
        ("/v1/users/nobody/patterns", 404),
        ("/v1/users/user-03/nope", 404),
        ("/v1/users/user-03/patterns?x=1", 400),
        ("/v1/users/user-03/similar?k=0", 400),
        ("/v1/cohorts?category=castle", 400),
    ] {
        let (status, body) = client::get(addr, target).unwrap();
        assert_eq!(status, expect, "{target}: {body}");
        assert!(body.starts_with("{\"error\":"), "{target}: {body}");
    }

    // Counters tally the traffic, including every suppressed aggregate:
    // one marker in each of the two /v1/cohorts bodies plus the shopper's
    // suppressed similar-neighborhood aggregate.
    let report = obs.report();
    let count = |name: &str| report.counters.get(name).copied().unwrap_or(0);
    assert_eq!(count("cohort.cohorts_served"), 2);
    assert_eq!(count("cohort.patterns_served"), 1);
    assert_eq!(count("cohort.similar_served"), 2);
    assert_eq!(count("cohort.suppressed_aggregates"), 3);
    assert_eq!(count("cohort.unknown_user"), 1);
    assert_eq!(count("cohort.missing_section"), 0);

    handle.shutdown();
    thread.join().expect("server thread").expect("run");
}

#[test]
fn cohort_endpoints_404_with_hint_on_pre_cohort_artifacts() {
    // The default artifact has no cohort section: every cohort endpoint
    // answers 404 with a hint naming the mining command, and the counters
    // are pre-registered at zero before any traffic.
    let server = start(ServeConfig::default());
    let (status, body) = client::get(server.addr, "/v1/stats").unwrap();
    assert_eq!(status, 200);
    let parsed = pm_serve::json::parse(&body).expect("stats JSON parses");
    let counters = parsed.get("counters").expect("counters object");
    for name in [
        "cohort.cohorts_served",
        "cohort.patterns_served",
        "cohort.similar_served",
        "cohort.suppressed_aggregates",
        "cohort.unknown_user",
        "cohort.missing_section",
    ] {
        assert_eq!(
            counters.get(name).and_then(|v| v.as_i64()),
            Some(0),
            "{name} must be pre-registered"
        );
    }

    for target in [
        "/v1/cohorts",
        "/v1/users/user-00/patterns",
        "/v1/users/user-00/similar",
    ] {
        let (status, body) = client::get(server.addr, target).unwrap();
        assert_eq!(status, 404, "{target}: {body}");
        assert!(body.contains("mine --artifact"), "{target}: {body}");
    }
    assert_eq!(
        server
            .obs
            .report()
            .counters
            .get("cohort.missing_section")
            .copied(),
        Some(3)
    );
    server.stop();
}

#[test]
fn error_paths_are_typed_not_5xx() {
    let server = start(ServeConfig::default());
    for (target, expect) in [
        ("/v1/semantic", 400),
        ("/v1/semantic?x=1", 400),
        ("/v1/semantic?x=a&y=b", 400),
        ("/v1/patterns?from=castle", 400),
        ("/v1/patterns?nope=1", 400),
        ("/nowhere", 404),
    ] {
        let (status, body) = client::get(server.addr, target).unwrap();
        assert_eq!(status, expect, "{target}: {body}");
        assert!(body.starts_with("{\"error\":"), "{target}: {body}");
    }
    let (status, _) = client::post(server.addr, "/v1/annotate", "{not json").unwrap();
    assert_eq!(status, 400);
    let (status, _) = client::request(server.addr, "DELETE", "/healthz", None).unwrap();
    assert_eq!(status, 405);
    server.stop();
}

#[test]
fn burst_of_64_connections_sees_zero_5xx() {
    let server = start(ServeConfig {
        queue_capacity: 256,
        ..ServeConfig::default()
    });
    let addr = server.addr;
    let workers: Vec<_> = (0..64)
        .map(|i| {
            std::thread::spawn(move || {
                let target = match i % 3 {
                    0 => "/healthz".to_string(),
                    1 => "/v1/semantic?x=0&y=0".to_string(),
                    _ => "/v1/patterns?limit=3".to_string(),
                };
                client::get(addr, &target).map(|(status, _)| status)
            })
        })
        .collect();
    let mut ok = 0;
    for w in workers {
        let status = w.join().expect("client thread").expect("request");
        assert!(status < 500, "burst saw {status}");
        assert_eq!(status, 200);
        ok += 1;
    }
    assert_eq!(ok, 64);

    // The stats endpoint tallies exactly what the burst sent.
    let report = server.obs.report();
    let count = |name: &str| report.counters.get(name).copied().unwrap_or(0);
    assert_eq!(count("serve.requests.healthz"), 22);
    assert_eq!(count("serve.requests.semantic"), 21);
    assert_eq!(count("serve.requests.patterns"), 21);
    assert_eq!(count("serve.shed"), 0);
    assert_eq!(count("serve.errors.healthz"), 0);

    // And the HTTP view of the same counters agrees.
    let (status, body) = client::get(addr, "/v1/stats").unwrap();
    assert_eq!(status, 200);
    let parsed = pm_serve::json::parse(&body).expect("stats JSON parses");
    let counters = parsed.get("counters").expect("counters object");
    assert_eq!(
        counters
            .get("serve.requests.healthz")
            .and_then(|v| v.as_i64()),
        Some(22)
    );
    server.stop();
}

#[test]
fn overload_sheds_with_503() {
    let server = start(ServeConfig {
        threads: 1,
        queue_capacity: 1,
        read_timeout: Duration::from_secs(2),
        ..ServeConfig::default()
    });

    // Two idle connections: one parks on the single worker (blocked in
    // read until the timeout), one fills the queue slot. Staged with a
    // pause between them — opened back-to-back, the second can reach the
    // queue before the worker dequeues the first, shedding the *idle*
    // connection and leaving the slot free for the probe below.
    let idle1 = TcpStream::connect(server.addr).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    let idle2 = TcpStream::connect(server.addr).unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // The shed path answers 503 inline and closes; depending on who wins
    // the close/write race the client sees the 503 body or a reset — both
    // are the server refusing the connection, and the counter is the
    // ground truth either way.
    match client::get(server.addr, "/healthz") {
        Ok((status, body)) => assert_eq!(status, 503, "{body}"),
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe
            ),
            "unexpected probe error: {e}"
        ),
    }
    assert!(server.obs.counter("serve.shed") >= 1);

    drop(idle1);
    drop(idle2);
    // After the idle connections drain, service resumes.
    std::thread::sleep(Duration::from_millis(500));
    let (status, _) = client::get(server.addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    server.stop();
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let s = snapshot();
    let server = start(ServeConfig::default());
    let mut conn = client::Conn::open(server.addr).unwrap();
    for _ in 0..5 {
        let (status, body) = conn.get("/healthz").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, s.healthz_json());
    }
    let (status, body) = conn.get("/v1/semantic?x=0&y=0").unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, s.semantic_json(pm_geo::LocalPoint::new(0.0, 0.0)));
    // All six requests rode one connection.
    assert_eq!(server.obs.counter("serve.requests.healthz"), 5);
    assert_eq!(server.obs.counter("serve.requests.semantic"), 1);
    server.stop();
}

#[test]
fn connection_close_header_is_honored() {
    let server = start(ServeConfig::default());
    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    std::io::Write::write_all(
        &mut stream,
        b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    )
    .unwrap();
    // read_to_string only returns if the server actually closes.
    let mut text = String::new();
    std::io::Read::read_to_string(&mut stream, &mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
    assert!(text.contains("Connection: close\r\n"), "{text}");
    server.stop();
}

#[test]
fn request_cap_closes_the_connection() {
    let server = start(ServeConfig {
        max_requests_per_conn: 2,
        ..ServeConfig::default()
    });
    let mut conn = client::Conn::open(server.addr).unwrap();
    assert_eq!(conn.get("/healthz").unwrap().0, 200);
    assert_eq!(conn.get("/healthz").unwrap().0, 200);
    // The cap was reached: the server hung up after the second response.
    assert!(conn.get("/healthz").is_err());
    server.stop();
}

#[test]
fn error_status_closes_the_connection() {
    let server = start(ServeConfig::default());
    let mut conn = client::Conn::open(server.addr).unwrap();
    let (status, _) = conn.get("/nowhere").unwrap();
    assert_eq!(status, 404);
    // An error response ends the session (the body framing cannot be
    // trusted past it), so the next request on this connection fails.
    assert!(conn.get("/healthz").is_err());
    server.stop();
}

#[test]
fn shutdown_is_graceful() {
    let server = start(ServeConfig::default());
    let addr = server.addr;
    let (status, _) = client::get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    server.stop(); // join() inside asserts run() returned Ok
                   // The listener is gone: a fresh request now fails to connect or is
                   // reset rather than served.
    assert!(client::get(addr, "/healthz").is_err());
}
