//! End-to-end streaming: `POST /v1/ingest` batches over a real socket must
//! feed `GET /v1/live/patterns`, oversized batches must be refused with
//! `429`, and a `POST /v1/reload` landing mid-ingest must hot-swap the
//! snapshot with **zero** 5xx on already-accepted traffic — with the swap
//! visible as the epoch gauge and `serve.swap_epoch` counter in pm-obs.

use pm_core::prelude::*;
use pm_core::recognize::stay_points_of;
use pm_geo::{GeoPoint, LocalPoint};
use pm_obs::Obs;
use pm_serve::{client, ServeConfig, ServeState, Server, Snapshot};
use pm_store::Artifact;
use pm_stream::EngineConfig;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Shanghai anchor used across the repo's examples.
const ORIGIN: (f64, f64) = (121.4737, 31.2304);

/// One mined, geo-anchored artifact (same fixture as serve_http.rs).
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

/// Two unit centers the snapshot recognizes as tagged — stays alternating
/// between them must produce semantic transitions.
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

fn start(config: ServeConfig) -> Running {
    let obs = Obs::enabled();
    let server = Server::bind("127.0.0.1:0", snapshot(), config, obs.clone()).expect("bind");
    start_bound(server, obs)
}

fn start_bound(server: Server, obs: Obs) -> Running {
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
fn ingest_feeds_live_patterns_end_to_end() {
    let (a, b) = tagged_centers();
    let server = start(ServeConfig::default());

    // Two users, six stays each, alternating between the two tagged
    // centers: 5 transitions per user. Sent as three keep-alive batches on
    // one connection — the POST path must survive connection reuse.
    let users = ["u1", "u2"];
    let mut records: Vec<(&str, LocalPoint, i64)> = Vec::new();
    for (i, t) in (0..6).map(|i| (i, 1_000 + 100 * i as i64)) {
        let pos = if i % 2 == 0 { a } else { b };
        for user in users {
            records.push((user, pos, t));
        }
    }
    let mut conn = client::Conn::open(server.addr).expect("connect");
    for chunk in records.chunks(4) {
        let (status, body) = conn.post("/v1/ingest", &stays_body(chunk)).expect("ingest");
        assert_eq!(status, 200, "{body}");
        assert!(body.starts_with("{\"epoch\":0,"), "{body}");
        assert!(
            body.contains(&format!("\"accepted\":{}", chunk.len())),
            "{body}"
        );
    }

    // The live window on the same connection reflects every stay.
    let (status, body) = conn.get("/v1/live/patterns").expect("live");
    assert_eq!(status, 200);
    assert!(body.starts_with("{\"epoch\":0,"), "{body}");
    assert!(body.contains("\"users\":2"), "{body}");
    assert!(body.contains("\"total\":10"), "{body}");
    assert!(body.contains("\"late_dropped\":0"), "{body}");
    assert!(
        body.contains("\"from\":"),
        "transitions must be non-empty: {body}"
    );

    // The same tallies flow through pm-obs, and the stats endpoint carries
    // the pre-registered stream schema.
    assert_eq!(server.obs.counter("stream.stays_emitted"), 12);
    assert_eq!(server.obs.counter("stream.transitions_recorded"), 10);
    assert_eq!(server.obs.counter("quarantine.stream_out_of_order"), 0);
    let (status, stats) = client::get(server.addr, "/v1/stats").expect("stats");
    assert_eq!(status, 200);
    for name in ["stream.fixes_accepted", "serve.swap_epoch", "serve.epoch"] {
        assert!(stats.contains(name), "stats must carry {name}: {stats}");
    }
    server.stop();
}

#[test]
fn oversized_ingest_batch_is_429() {
    let (a, _) = tagged_centers();
    let server = start(ServeConfig {
        max_batch_records: 2,
        ..ServeConfig::default()
    });
    let too_big = stays_body(&[("u", a, 1), ("u", a, 2), ("u", a, 3)]);
    let (status, body) = client::post(server.addr, "/v1/ingest", &too_big).expect("post");
    assert_eq!(status, 429, "{body}");
    assert!(body.starts_with("{\"error\":"), "{body}");
    assert_eq!(server.obs.counter("serve.errors.ingest"), 1);
    // An oversized batch is refused atomically: nothing was ingested.
    assert_eq!(server.obs.counter("stream.fixes_accepted"), 0);

    let ok = stays_body(&[("u", a, 1), ("u", a, 2)]);
    let (status, _) = client::post(server.addr, "/v1/ingest", &ok).expect("post");
    assert_eq!(status, 200);
    server.stop();
}

#[test]
fn reload_hot_swaps_mid_ingest_with_zero_5xx() {
    let (a, b) = tagged_centers();

    // The reload source: the same artifact, persisted through pm-store.
    let path = std::env::temp_dir().join(format!("pm-serve-reload-{}.pmstore", std::process::id()));
    std::fs::write(&path, artifact().to_bytes()).expect("write artifact");

    let obs = Obs::enabled();
    let state = ServeState::new(snapshot(), EngineConfig::from_miner(&artifact().params))
        .expect("state")
        .with_reload_path(&path);
    let config = ServeConfig {
        threads: 4, // the long-lived ingest connection must not starve /v1/reload
        max_requests_per_conn: 100_000, // the replay conn must outlive the swap
        ..ServeConfig::default()
    };
    let server =
        Server::bind_with_state("127.0.0.1:0", Arc::new(state), config, obs.clone()).expect("bind");
    let server = start_bound(server, obs);
    let addr = server.addr;

    // A replay-style client on one keep-alive connection, one stay per
    // batch, alternating centers so transitions keep forming across the
    // swap. Synchronization makes "mid-replay" deterministic: the reload
    // waits until 5 batches are in, the replay runs 5 batches past it.
    let sent = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let reloaded = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let (sent_w, reloaded_r) = (Arc::clone(&sent), Arc::clone(&reloaded));
    let ingester = std::thread::spawn(move || -> std::io::Result<Vec<(u16, String)>> {
        let mut conn = client::Conn::open(addr)?;
        let mut out = Vec::new();
        let mut after_swap = 0usize;
        for i in 0..50_000i64 {
            let pos = if i % 2 == 0 { a } else { b };
            let body = stays_body(&[("load", pos, 1_000 + 50 * i)]);
            out.push(conn.post("/v1/ingest", &body)?);
            sent_w.store(out.len(), Ordering::SeqCst);
            if reloaded_r.load(Ordering::SeqCst) {
                after_swap += 1;
                if after_swap >= 5 {
                    break;
                }
            }
        }
        assert!(after_swap >= 5, "replay drained before the swap landed");
        Ok(out)
    });

    // Land the reload mid-replay. The body is empty: the configured
    // reload path is the default swap source.
    while sent.load(Ordering::SeqCst) < 5 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let (status, body) = client::post(addr, "/v1/reload", "{}").expect("reload");
    assert_eq!(status, 200, "{body}");
    assert!(body.starts_with("{\"epoch\":1,"), "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    reloaded.store(true, Ordering::SeqCst);

    // Every accepted ingest request was answered 200 — no drops, no 5xx —
    // and the responses straddle the swap (epoch 0 before, epoch 1 after).
    let replies = ingester.join().expect("ingester").expect("ingest io");
    assert!(replies.len() >= 10, "got {} replies", replies.len());
    for (status, body) in &replies {
        assert_eq!(*status, 200, "{body}");
    }
    assert!(
        replies[0].1.starts_with("{\"epoch\":0,"),
        "{}",
        replies[0].1
    );
    assert!(
        replies.last().unwrap().1.starts_with("{\"epoch\":1,"),
        "the swap must land mid-replay: {}",
        replies.last().unwrap().1
    );

    // The swap is observable: epoch counter + gauge in the run report, and
    // the engine's window survived it (transitions kept accumulating).
    assert_eq!(server.obs.counter("serve.swap_epoch"), 1);
    let report = server.obs.report();
    assert_eq!(report.gauges.get("serve.epoch"), Some(&1.0));
    let (status, live) = client::get(addr, "/v1/live/patterns").expect("live");
    assert_eq!(status, 200);
    assert!(live.starts_with("{\"epoch\":1,"), "{live}");
    assert!(
        live.contains("\"from\":"),
        "window must survive the swap: {live}"
    );

    server.stop();
    let _ = std::fs::remove_file(&path);
}

/// Sends one `POST /v1/ingest` with a raw (possibly non-UTF-8) body on a
/// fresh `Connection: close` socket and returns `(status, body)`.
fn post_raw(addr: SocketAddr, body: &[u8]) -> (u16, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut request = format!(
        "POST /v1/ingest HTTP/1.1\r\nHost: pm-serve\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    stream.write_all(&request).expect("write");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    let text = String::from_utf8(raw).expect("UTF-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("header block");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status");
    (status, body.to_string())
}

/// The route answers each malformed, non-UTF-8, empty, mistyped, invalid
/// or oversized body with the exact status and body pinned below (recorded
/// from the route when it still parsed bodies into a `Json` tree), and a
/// refused batch leaves the live window untouched.
#[test]
fn ingest_error_paths_answer_exactly_and_ingest_nothing() {
    let server = start(ServeConfig {
        max_batch_records: 2,
        ..ServeConfig::default()
    });
    let live = || client::get(server.addr, "/v1/live/patterns").expect("live");
    let before = live();
    let fix = |user: &str, t: i64| format!("{{\"user\":\"{user}\",\"x\":0,\"y\":0,\"t\":{t}}}");
    let refused: Vec<(Vec<u8>, u16, &str)> = vec![
        (
            b"{\"fixes\":[{\"user\":\"a\" \"x\":1}]}".to_vec(),
            400,
            r#"{"error":"invalid JSON: expected ',' or '}' at byte 22"}"#,
        ),
        (
            b"{\"fixes\":[{\"user\":\"\xff\",\"x\":0,\"y\":0,\"t\":1}]}".to_vec(),
            400,
            r#"{"error":"body is not UTF-8"}"#,
        ),
        (
            Vec::new(),
            400,
            r#"{"error":"body must be {\"fixes\":[...]} and/or {\"stays\":[...]}"}"#,
        ),
        (
            b"{\"fixes\": {}}".to_vec(),
            400,
            r#"{"error":"fixes must be an array"}"#,
        ),
        (
            format!(
                "{{\"fixes\":[{}],\"stays\":[{{\"user\":\"\",\"x\":0,\"y\":0,\"t\":2}}]}}",
                fix("a", 1)
            )
            .into_bytes(),
            400,
            r#"{"error":"stays[0]: user must be a non-empty string or integer"}"#,
        ),
        (
            format!(
                "{{\"fixes\":[{},{},{}]}}",
                fix("a", 1),
                fix("a", 2),
                fix("a", 3)
            )
            .into_bytes(),
            429,
            r#"{"error":"batch too large (max 2 records); split and retry"}"#,
        ),
    ];
    for (body, status, expected) in &refused {
        let shown = String::from_utf8_lossy(body);
        assert_eq!(
            post_raw(server.addr, body),
            (*status, expected.to_string()),
            "{shown}"
        );
        assert_eq!(
            live(),
            before,
            "a refused batch must ingest nothing: {shown}"
        );
    }
    assert_eq!(
        server.obs.counter("serve.errors.ingest"),
        refused.len() as u64
    );
    assert_eq!(server.obs.counter("stream.fixes_accepted"), 0);

    // A duplicate `fixes` key: the last value wins, and it is valid.
    let duplicate = format!("{{\"fixes\":{{}},\"fixes\":[{}]}}", fix("d", 5));
    assert_eq!(
        post_raw(server.addr, duplicate.as_bytes()),
        (
            200,
            "{\"epoch\":0,\"accepted\":1,\"quarantined\":0,\"dropped\":0,\"stays\":0,\
             \"transitions\":0,\"late_transitions\":0,\"evicted\":0,\
             \"motif_days_closed\":0,\"motif_days_oversize\":0}"
                .to_string()
        )
    );
    assert_eq!(
        live(),
        (
            200,
            "{\"epoch\":0,\"as_of\":5,\"window_secs\":86400,\"users\":1,\"stays\":0,\
             \"total\":0,\"late_dropped\":0,\"transitions\":[]}"
                .to_string()
        )
    );
    server.stop();
}
