//! End-to-end benchmark of the three user-visible paths of the semantic
//! mobility service, with a traced per-layer breakdown.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mine|ingest|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload first sets up the same world (see [`world::setup`]): it
//! generates the served city and its taxi corpus, mines a full artifact
//! (patterns, motifs, cohorts) and publishes it, starts a WAL-backed
//! two-shard server over it, ingests a simulated day of live GPS fixes and
//! renders the expected body of every read query. The served city is the
//! same for every seed; `--seed` draws the traffic and the 64 cities the
//! `mine` workload re-mines. Set-up runs three times and `setup_s` is the
//! median. The last world is then driven by one closed-loop client, first
//! for five unrecorded seconds and then for `--seconds`:
//!
//! - `mine` re-mines one city after another, publishes each generation,
//!   swaps it into the server and reads it back: one op per mining pass.
//! - `ingest` streams GPS fixes from 1,000 phones through
//!   `POST /v1/ingest`: one op per batch of 1,000 fixes.
//! - `serve` replays a read-heavy query mix: one op per request.
//!
//! End-to-end metrics (`--trace 0`): the median op latency, a tail
//! percentile (p85 for `mine`, p99.5 for `ingest`, p99 for `serve`), work
//! per second (stays mined, fixes ingested, or requests answered) and the
//! set-up time. Per-layer metrics (`--trace 1`): the median self time of
//! each layer span, over set-up and the measured loop, plus work counts.
//! Spans are written to `perfbench/traces/`. A run whose metrics are not
//! all measured fails instead of printing a result.
//!
//! Outputs are checked: every mining pass of a city must produce the same
//! artifact bytes and the server must answer with it, every ingest reply
//! must accept the whole batch, the live views must equal a single-shard
//! reference replay, every query body must equal the in-process
//! rendering, and the served artifact and the answers to a fixed query mix
//! must match digests of their known-good output.

mod inputs;
mod trace;
mod world;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{median, quantile, Trace};
use world::{Client, World};

const SETUPS: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Mine,
    Ingest,
    Serve,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Mine => "mine",
            Workload::Ingest => "ingest",
            Workload::Serve => "serve",
        }
    }

    /// The tail percentile reported: about the highest with ten samples
    /// beyond it at the op counts a run reaches (75 to 90 mining passes,
    /// 8,000 batches or 250,000 requests). For `mine` the tail is the
    /// costlier cities of the seed's draw; for `ingest` it falls amid the
    /// one batch in a hundred that also cuts WAL checkpoints; for `serve`
    /// amid the slowest of the eight equal endpoint shares.
    fn tail(self) -> f64 {
        match self {
            Workload::Mine => 0.85,
            Workload::Ingest => 0.995,
            Workload::Serve => 0.99,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "mine" => Workload::Mine,
                    "ingest" => Workload::Ingest,
                    "serve" => Workload::Serve,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| *s > 0)
                        .ok_or_else(|| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What the measured loop saw.
struct Measured {
    attempted: u64,
    failed: u64,
    latencies_ms: Vec<f64>,
    work: u64,
    wall_s: f64,
    correct: bool,
}

/// Ops run unrecorded before the measured window, so the figures describe
/// the steady state: WAL write-back under way, stay buffer and caches full.
const WARMUP: Duration = Duration::from_secs(5);

/// What the ops of one run share.
struct Driver {
    workload: Workload,
    client: Client,
    /// Artifact fingerprint of each city's first mining pass.
    fingerprints: Vec<Option<u64>>,
    ops: u64,
}

/// Runs one op of the workload; returns its latency in milliseconds and
/// the work it completed.
fn op(d: &mut Driver, world: &mut World, trace: &mut Trace) -> Result<(f64, u64), String> {
    d.ops += 1;
    trace.next_op();
    match d.workload {
        Workload::Mine => {
            let city = (d.ops % world::CITIES) as usize;
            let (stays, ms) = trace::timed(|| {
                let mined = world::mine(&world.corpora[city], &world.params, &world.store, trace)?;
                let first = *d.fingerprints[city].get_or_insert(mined.fingerprint);
                if mined.fingerprint != first {
                    return Err("a mining pass produced different artifact bytes".to_string());
                }
                let expected = mined.snapshot.healthz_json();
                world.server.state.swap(mined.snapshot);
                let (status, body) =
                    trace.span("serve_first", |_| d.client.send("GET", "/healthz", None))?;
                if status != 200 || body != expected {
                    return Err("the new generation is not what the server answers".into());
                }
                Ok(mined.stays as u64)
            });
            Ok((ms, stays?))
        }
        Workload::Ingest => world::ingest(world, &mut d.client, trace),
        Workload::Serve => {
            world::query(world, &mut d.client, d.ops as usize, trace).map(|ms| (ms, 1))
        }
    }
}

fn run_loop(args: &Args, world: &mut World, trace: &mut Trace) -> Measured {
    let mut m = Measured {
        attempted: 0,
        failed: 0,
        latencies_ms: Vec::new(),
        work: 0,
        wall_s: 0.0,
        correct: true,
    };
    let mut d = Driver {
        workload: args.workload,
        client: Client::new(world.server.addr),
        fingerprints: vec![None; world::CITIES as usize],
        ops: 0,
    };
    let fail = |m: &mut Measured, e: String| {
        if m.failed == 0 {
            eprintln!("perfbench: op failed: {e}");
        }
        m.failed += 1;
    };
    let warmup = Instant::now();
    while warmup.elapsed() < WARMUP {
        if let Err(e) = op(&mut d, world, trace) {
            m.attempted += 1;
            fail(&mut m, e);
        }
    }
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    while started.elapsed() < budget {
        m.attempted += 1;
        match op(&mut d, world, trace) {
            Ok((ms, work)) => {
                m.latencies_ms.push(ms);
                m.work += work;
            }
            Err(e) => fail(&mut m, e),
        }
    }
    m.wall_s = started.elapsed().as_secs_f64();
    let mut checks = vec![world::check_golden(world)];
    if args.workload == Workload::Ingest {
        checks.push(world::check_live(world));
    }
    for e in checks.into_iter().filter_map(Result::err) {
        eprintln!("perfbench: {e}");
        m.correct = false;
    }
    m.correct &= m.failed == 0 && !m.latencies_ms.is_empty();
    m
}

/// One metric as `(name, value, unit)`.
type Metric = (&'static str, f64, &'static str);

/// The per-layer metrics: median self time per span name, then counts.
fn layer_metrics(trace: &Trace, world: &World, measured: &Measured) -> Vec<Metric> {
    let spans = trace.self_times_ms();
    let med = |name: &str| spans.get(name).map_or(f64::NAN, |v| median(v));
    let mut out: Vec<Metric> = [
        ("synth_ms", "synth"),
        ("csd_build_ms", "csd_build"),
        ("recognize_ms", "recognize"),
        ("extract_ms", "extract"),
        ("motifs_ms", "motifs"),
        ("cohorts_ms", "cohorts"),
        ("encode_ms", "encode"),
        ("publish_ms", "publish"),
        ("decode_ms", "decode"),
        ("snapshot_ms", "snapshot"),
        ("ingest_decode_ms", "ingest_decode"),
        ("ingest_engine_ms", "ingest_engine"),
        // The whole round trip of a batch sent over HTTP. Decoding and the
        // engine are timed on the batches run in process instead, so its
        // HTTP share is only approximately this minus those two.
        ("ingest_round_trip_ms", "ingest_http"),
        ("render_semantic_ms", "render_semantic"),
        ("render_patterns_ms", "render_patterns"),
        ("render_similar_ms", "render_similar"),
        ("render_similar_all_ms", "render_similar_all"),
        ("render_live_ms", "render_live"),
        ("render_other_ms", "render_other"),
    ]
    .into_iter()
    .map(|(metric, span)| (metric, med(span), "ms"))
    .collect();
    out.extend([
        (
            "query_http_ms",
            median(trace.samples("query_http_self")),
            "ms",
        ),
        ("stays_mined", world.mined.stays as f64, "count"),
        ("artifact_bytes", world.mined.bytes as f64, "bytes"),
        ("fixes_ingested", world.ingested.fixes as f64, "count"),
        ("stays_emitted", world.ingested.stays as f64, "count"),
        ("transitions", world.ingested.transitions as f64, "count"),
        ("ops", measured.attempted as f64, "count"),
    ]);
    out
}

/// Runs the benchmark in a work directory of its own, removed afterwards
/// whether or not the run succeeded.
fn run(args: &Args) -> Result<String, String> {
    let work_root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!(
            "{}-{}-{}",
            args.workload.name(),
            args.seed,
            std::process::id()
        ));
    let result = run_in(args, &work_root);
    let _ = std::fs::remove_dir_all(&work_root);
    // Removes the shared parent too once no other run is using it.
    let _ = std::fs::remove_dir(work_root.parent().expect("work root has a parent"));
    result
}

fn run_in(args: &Args, work_root: &Path) -> Result<String, String> {
    let mut trace = Trace::new(args.trace);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut world = None;
    for i in 0..SETUPS {
        if let Some(old) = world.take() {
            teardown(old)?;
        }
        let started = Instant::now();
        world = Some(world::setup(
            args.seed,
            &work_root.join(format!("setup-{i}")),
            &mut trace,
        )?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut world = world.expect("at least one set-up");
    let measured = run_loop(args, &mut world, &mut trace);
    eprintln!(
        "perfbench: {} seed {}: {} ops ({} failed) in {:.1} s, set-up {:?} s",
        args.workload.name(),
        args.seed,
        measured.attempted,
        measured.failed,
        measured.wall_s,
        setup_s
    );
    let metrics = if args.trace {
        layer_metrics(&trace, &world, &measured)
    } else {
        let latencies = &measured.latencies_ms;
        vec![
            ("op_p50_ms", median(latencies), "ms"),
            (
                "op_tail_ms",
                quantile(latencies, args.workload.tail()),
                "ms",
            ),
            ("work_per_s", measured.work as f64 / measured.wall_s, "1/s"),
            ("setup_s", median(&setup_s), "s"),
        ]
    };
    teardown(world)?;
    if args.trace {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        trace
            .write_jsonl(&dir.join(format!("{}.jsonl", args.workload.name())))
            .map_err(|e| e.to_string())?;
    }
    if let Some((name, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("{name} was not measured"));
    }
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        measured.correct,
        measured.attempted,
        measured.failed,
        metrics.join(", ")
    ))
}

fn teardown(world: World) -> Result<(), String> {
    let dir = world.dir.clone();
    world.server.stop()?;
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <mine|ingest|serve> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
