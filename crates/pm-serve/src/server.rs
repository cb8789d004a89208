//! The TCP front end: accept loop, worker pool, shedding, and shutdown.
//!
//! One [`Server`] owns a `TcpListener` and a fixed [`WorkerPool`]
//! (pm-runtime primitives, so pool jobs report worker slots to pm-obs spans
//! exactly like `par_map` regions do). Each accepted connection becomes one
//! pool job that serves requests **keep-alive** until the client closes,
//! asks for `Connection: close`, an error status ends the session, or the
//! per-connection request cap is reached. When the bounded queue is full the
//! accept loop answers `503` inline instead of queueing — predictable
//! shedding beats unbounded latency.
//!
//! Requests route against the shared [`ServeState`]: the epoch-versioned
//! [`Snapshot`] (hot-swappable via `POST /v1/reload`) plus the live
//! [`pm_stream::IngestEngine`] behind `POST /v1/ingest`.
//!
//! Shutdown is cooperative and std-only: a [`ShutdownHandle`] flips an
//! atomic flag and pokes the listener with a loopback connection to unblock
//! `accept`, after which the pool drains its queue and joins.

use crate::http::{self, Request};
use crate::json::{self, error_body};
use crate::snapshot::Snapshot;
use crate::state::ServeState;
use pm_obs::Obs;
use pm_runtime::WorkerPool;
use pm_stream::{BatchOutcome, EngineConfig};
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tunables of one serving process.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads; `0` resolves via `PM_THREADS` / available
    /// parallelism, exactly like the mining pipeline.
    pub threads: usize,
    /// Bounded accept-queue capacity; connections beyond it are shed with
    /// `503`.
    pub queue_capacity: usize,
    /// Per-connection read timeout.
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Requests served on one keep-alive connection before the server
    /// closes it (lets the accept loop re-balance long-lived clients).
    pub max_requests_per_conn: usize,
    /// Records (`fixes` + `stays`) accepted in one `POST /v1/ingest` batch;
    /// larger batches are refused with `429`.
    pub max_batch_records: usize,
    /// `Retry-After` (seconds) attached to overload answers (`429`/`503`)
    /// so clients back off by the server's clock.
    pub retry_after_secs: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            threads: 0,
            queue_capacity: 64,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_requests_per_conn: 64,
            max_batch_records: 10_000,
            retry_after_secs: 1,
        }
    }
}

/// Requests the accept loop to stop. Clone freely; the first `shutdown`
/// wins, later calls are no-ops.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Stops the server: queued requests still drain, new connections are
    /// no longer accepted.
    pub fn shutdown(&self) {
        if !self.flag.swap(true, Ordering::SeqCst) {
            // Unblock the (possibly idle) accept call with a throwaway
            // loopback connection — the std-only analogue of a signal pipe.
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        }
    }
}

/// A bound, not-yet-running server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
    obs: Obs,
    config: ServeConfig,
    flag: Arc<AtomicBool>,
}

/// Endpoint labels used for `serve.requests.*` / `serve.errors.*` counters.
const ENDPOINTS: [&str; 16] = [
    "healthz",
    "semantic",
    "annotate",
    "patterns",
    "motifs",
    "cohorts",
    "user_patterns",
    "user_similar",
    "stats",
    "ingest",
    "live_patterns",
    "live_motifs",
    "reload",
    "miner",
    "bad_request",
    "not_found",
];

/// Cohort-layer counters pre-registered at zero so the `/v1/stats` schema
/// is stable before the first per-user query: per-endpoint serve tallies,
/// k-anonymity suppressions, and the two 404 causes.
const COHORT_COUNTERS: [&str; 6] = [
    "cohort.cohorts_served",
    "cohort.patterns_served",
    "cohort.similar_served",
    "cohort.suppressed_aggregates",
    "cohort.unknown_user",
    "cohort.missing_section",
];

/// Stream-layer counters pre-registered at zero (see the pm-obs naming
/// scheme: `quarantine.*` / `degradation.*` prefixes surface in their own
/// run-report sections).
const STREAM_COUNTERS: [&str; 8] = [
    "stream.fixes_accepted",
    "stream.stays_emitted",
    "stream.transitions_recorded",
    "stream.transitions_late",
    "stream.users_evicted",
    "quarantine.stream_out_of_order",
    "degradation.stream_dropped_fixes",
    "serve.swap_epoch",
];

/// Online-loop robustness counters, pre-registered at zero so the failure
/// schema is visible in `/v1/stats` before anything ever fails. `wal.*`
/// tracks the ingest write-ahead log; `miner.*` the supervised re-miner;
/// `motif.*` the live day-graph closures behind `/v1/live/motifs`.
const ROBUSTNESS_COUNTERS: [&str; 23] = [
    "motif.days_closed",
    "motif.days_oversize",
    "wal.appended_batches",
    "wal.appended_records",
    "wal.append_errors",
    "wal.segments_rolled",
    "wal.checkpoints",
    "wal.checkpoint_errors",
    "wal.replayed_batches",
    "wal.replayed_records",
    "wal.torn_frames",
    "wal.corrupt_frames",
    "miner.jobs_started",
    "miner.jobs_succeeded",
    "miner.skipped_no_data",
    "miner.failures_panic",
    "miner.failures_error",
    "miner.failures_timeout",
    "miner.failures_publish",
    "miner.failures_busy",
    "miner.circuit_opens",
    "miner.published_generations",
    "miner.degraded_to_last_good",
];

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) with a fresh
    /// [`ServeState`] around `snapshot` — the engine takes its thresholds
    /// from the artifact's mined parameters. The server does not accept
    /// until [`Server::run`].
    pub fn bind(
        addr: &str,
        snapshot: Arc<Snapshot>,
        config: ServeConfig,
        obs: Obs,
    ) -> std::io::Result<Server> {
        let engine = EngineConfig::from_miner(&snapshot.artifact().params);
        let state = ServeState::new(snapshot, engine)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?
            .with_obs(obs.clone());
        Server::bind_with_state(addr, Arc::new(state), config, obs)
    }

    /// Binds `addr` around an externally built [`ServeState`] (reload path,
    /// custom engine config) and prepares the counter schema.
    pub fn bind_with_state(
        addr: &str,
        state: Arc<ServeState>,
        config: ServeConfig,
        obs: Obs,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        // Pre-register every counter at zero so /v1/stats has a stable
        // schema even before the first request.
        for ep in ENDPOINTS {
            obs.incr(&format!("serve.requests.{ep}"), 0);
            obs.incr(&format!("serve.errors.{ep}"), 0);
        }
        for name in STREAM_COUNTERS {
            obs.incr(name, 0);
        }
        for name in ROBUSTNESS_COUNTERS {
            obs.incr(name, 0);
        }
        for name in COHORT_COUNTERS {
            obs.incr(name, 0);
        }
        obs.incr("serve.shed", 0);
        obs.gauge("serve.queue_capacity", config.queue_capacity as f64);
        obs.gauge("serve.epoch", state.epoch() as f64);
        obs.gauge("stream.users_active", 0.0);
        obs.gauge("stream.buffered_fixes", 0.0);
        Ok(Server {
            listener,
            state,
            obs,
            config,
            flag: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful with `127.0.0.1:0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared state this server routes against.
    pub fn state(&self) -> Arc<ServeState> {
        Arc::clone(&self.state)
    }

    /// A handle that can stop [`Server::run`] from another thread.
    pub fn shutdown_handle(&self) -> std::io::Result<ShutdownHandle> {
        Ok(ShutdownHandle {
            flag: Arc::clone(&self.flag),
            addr: self.listener.local_addr()?,
        })
    }

    /// Serves until the shutdown handle fires, then drains queued requests
    /// and joins the workers.
    pub fn run(self) -> std::io::Result<()> {
        let pool = WorkerPool::new(self.config.threads, self.config.queue_capacity);
        self.obs.set_threads(pool.threads());
        for conn in self.listener.incoming() {
            if self.flag.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                // Transient accept failures (EMFILE, aborted handshake)
                // must not kill the server.
                Err(_) => continue,
            };
            // Keep a second handle so the connection can still be answered
            // with 503 when the pool rejects the job (the job owns `stream`
            // and is dropped on rejection).
            let shed_handle = stream.try_clone();
            let state = Arc::clone(&self.state);
            let obs = self.obs.clone();
            let config = self.config.clone();
            let submitted = pool.try_execute(move || {
                handle_connection(stream, &state, &obs, &config);
            });
            if submitted.is_err() {
                self.obs.incr("serve.shed", 1);
                if let Ok(mut s) = shed_handle {
                    let _ = s.set_write_timeout(Some(self.config.write_timeout));
                    let _ = http::write_response_with(
                        &mut s,
                        503,
                        &error_body("server busy"),
                        true,
                        Some(self.config.retry_after_secs),
                    );
                }
            }
        }
        pool.shutdown();
        // Graceful shutdown: with a WAL attached, cut a final checkpoint so
        // a restart recovers instantly — no segment replay needed.
        self.state.checkpoint_now();
        Ok(())
    }
}

/// One connection: serve requests keep-alive until the client closes, asks
/// to, errors, or hits the per-connection cap.
fn handle_connection(stream: TcpStream, state: &ServeState, obs: &Obs, config: &ServeConfig) {
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    // Small request/response pairs on a keep-alive connection are exactly
    // the pattern Nagle + delayed ACK turns into ~40ms stalls; responses
    // must leave as soon as they are written.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut write_half = stream;
    let mut served = 0usize;
    loop {
        if served > 0 {
            // Between requests, a clean client disconnect is EOF — not a
            // malformed request. Peek before parsing so it closes silently.
            match reader.fill_buf() {
                Ok([]) | Err(_) => break,
                Ok(_) => {}
            }
        }
        let span = obs.span("serve.request");
        let (status, body, endpoint, client_close) = match http::read_request(&mut reader) {
            Err(e) => (e.status, error_body(&e.message), "bad_request", true),
            Ok(req) => {
                let (status, body, endpoint) = route(state, obs, &req, config);
                (status, body, endpoint, req.close)
            }
        };
        obs.incr(&format!("serve.requests.{endpoint}"), 1);
        if status >= 400 {
            obs.incr(&format!("serve.errors.{endpoint}"), 1);
        }
        served += 1;
        // Error statuses close too: the request body may not have been
        // consumed, so continuing would desync the request framing.
        let close = client_close || status >= 400 || served >= config.max_requests_per_conn;
        // Overload answers tell the client when to come back.
        let retry_after = matches!(status, 429 | 503).then_some(config.retry_after_secs);
        let written = http::write_response_with(&mut write_half, status, &body, close, retry_after);
        span.finish();
        if close || written.is_err() {
            break;
        }
    }
}

/// Folds one ingest batch outcome into the observability counters and
/// refreshes the engine gauges. The counter names live in
/// [`crate::state::outcome_counters`], shared with the settled-read paths.
fn record_outcome(obs: &Obs, state: &ServeState, outcome: &BatchOutcome) {
    crate::state::outcome_counters(obs, outcome);
    refresh_gauges(obs, state);
}

/// Reads the (settled) engine gauges into pm-obs.
fn refresh_gauges(obs: &Obs, state: &ServeState) {
    let (users, buffered) = state.engine_gauges();
    obs.gauge("stream.users_active", users as f64);
    obs.gauge("stream.buffered_fixes", buffered as f64);
}

/// Parses a request body as JSON, or explains why not.
fn parse_body(req: &Request) -> Result<json::Json, String> {
    json::parse(json::body_text(&req.body)?).map_err(|e| format!("invalid JSON: {e}"))
}

/// Maps a parsed request onto the shared state.
fn route(
    state: &ServeState,
    obs: &Obs,
    req: &Request,
    config: &ServeConfig,
) -> (u16, String, &'static str) {
    // One snapshot Arc per request: a concurrent hot-swap cannot change
    // what this request answers from.
    let (snapshot, _epoch) = state.snapshot();
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => (200, snapshot.healthz_json(), "healthz"),
        ("GET", "/v1/semantic") => {
            let resolved = snapshot.resolve_point(
                req.param("x"),
                req.param("y"),
                req.param("lat"),
                req.param("lon"),
            );
            match resolved {
                Ok(pos) => (200, snapshot.semantic_json(pos), "semantic"),
                Err(m) => (400, error_body(&m), "semantic"),
            }
        }
        ("POST", "/v1/annotate") => {
            let annotated = parse_body(req).and_then(|body| snapshot.annotate_json(&body));
            match annotated {
                Ok(body) => (200, body, "annotate"),
                Err(m) => (400, error_body(&m), "annotate"),
            }
        }
        ("GET", "/v1/patterns") => match snapshot.pattern_query_from_params(&req.query) {
            Ok((query, limit)) => (200, snapshot.patterns_json(&query, limit), "patterns"),
            Err(m) => (400, error_body(&m), "patterns"),
        },
        ("GET", "/v1/motifs") => match crate::snapshot::MotifQuery::from_params(&req.query) {
            Ok(query) => match snapshot.motifs_json(&query) {
                Some(body) => (200, body, "motifs"),
                None => (
                    404,
                    error_body("artifact has no motif table; mine one with `mine --artifact`"),
                    "motifs",
                ),
            },
            Err(m) => (400, error_body(&m), "motifs"),
        },
        ("GET", "/v1/cohorts") => match crate::snapshot::CohortQuery::from_params(&req.query) {
            Ok(query) => match snapshot.cohorts_json(&query) {
                Some((body, suppressed)) => {
                    obs.incr("cohort.cohorts_served", 1);
                    obs.incr("cohort.suppressed_aggregates", suppressed);
                    (200, body, "cohorts")
                }
                None => {
                    obs.incr("cohort.missing_section", 1);
                    (
                        404,
                        error_body("artifact has no cohort index; mine one with `mine --artifact`"),
                        "cohorts",
                    )
                }
            },
            Err(m) => (400, error_body(&m), "cohorts"),
        },
        ("GET", "/v1/stats") => {
            // Settle the sharded engine first: deferred TTL sweeps land in
            // the counters (via the state's obs) and the gauges read as a
            // single engine would at the same clock — so the counter and
            // gauge sections are shard-count independent.
            refresh_gauges(obs, state);
            (200, obs.report().to_json(), "stats")
        }
        ("POST", "/v1/ingest") => match state.ingest_body(&req.body, config.max_batch_records) {
            Ok((body, outcome)) => {
                record_outcome(obs, state, &outcome);
                (200, body, "ingest")
            }
            Err((status, m)) => (status, error_body(&m), "ingest"),
        },
        ("GET", "/v1/live/patterns") => (200, state.live_patterns_json(), "live_patterns"),
        ("GET", "/v1/live/motifs") => (200, state.live_motifs_json(), "live_motifs"),
        ("GET", "/v1/miner") => (200, state.miner_json(), "miner"),
        ("POST", "/v1/reload") => match parse_body(req)
            .map_err(|m| (400u16, m))
            .and_then(|body| state.reload_json(&body))
        {
            Ok(body) => {
                obs.incr("serve.swap_epoch", 1);
                obs.gauge("serve.epoch", state.epoch() as f64);
                (200, body, "reload")
            }
            Err((status, m)) => (status, error_body(&m), "reload"),
        },
        (method, path) if path.starts_with("/v1/users/") => {
            route_user(method, path, &snapshot, obs, req)
        }
        (
            _,
            "/healthz" | "/v1/semantic" | "/v1/annotate" | "/v1/patterns" | "/v1/motifs"
            | "/v1/cohorts" | "/v1/stats" | "/v1/ingest" | "/v1/live/patterns" | "/v1/live/motifs"
            | "/v1/reload" | "/v1/miner",
        ) => (
            405,
            error_body(&format!("{} not allowed here", req.method)),
            "bad_request",
        ),
        _ => (404, error_body("no such endpoint"), "not_found"),
    }
}

/// The `/v1/users/:id/patterns` and `/v1/users/:id/similar` routes: the
/// user id is a path segment, so these match by prefix instead of the
/// literal table above.
fn route_user(
    method: &str,
    path: &str,
    snapshot: &Snapshot,
    obs: &Obs,
    req: &Request,
) -> (u16, String, &'static str) {
    let rest = &path["/v1/users/".len()..];
    let Some((user, action)) = rest.rsplit_once('/') else {
        return (404, error_body("no such endpoint"), "not_found");
    };
    let endpoint = match action {
        "patterns" => "user_patterns",
        "similar" => "user_similar",
        _ => return (404, error_body("no such endpoint"), "not_found"),
    };
    if user.is_empty() {
        return (404, error_body("no such endpoint"), "not_found");
    }
    if method != "GET" {
        return (
            405,
            error_body(&format!("{method} not allowed here")),
            "bad_request",
        );
    }
    let rendered = match action {
        "patterns" => {
            if let Some((key, _)) = req.query.first() {
                return (
                    400,
                    error_body(&format!("unknown parameter {key:?}")),
                    endpoint,
                );
            }
            snapshot.user_patterns_json(user)
        }
        _ => match crate::snapshot::SimilarQuery::from_params(&req.query) {
            Ok(query) => snapshot.user_similar_json(user, &query),
            Err(m) => return (400, error_body(&m), endpoint),
        },
    };
    match rendered {
        Ok((body, suppressed)) => {
            obs.incr(
                if action == "patterns" {
                    "cohort.patterns_served"
                } else {
                    "cohort.similar_served"
                },
                1,
            );
            obs.incr("cohort.suppressed_aggregates", suppressed);
            (200, body, endpoint)
        }
        Err(crate::snapshot::CohortLookup::NoSection) => {
            obs.incr("cohort.missing_section", 1);
            (
                404,
                error_body("artifact has no cohort index; mine one with `mine --artifact`"),
                endpoint,
            )
        }
        Err(crate::snapshot::CohortLookup::UnknownUser) => {
            obs.incr("cohort.unknown_user", 1);
            (
                404,
                error_body(&format!("no such user {user:?} in the cohort index")),
                endpoint,
            )
        }
    }
}
