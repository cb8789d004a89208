//! `pervasive-miner` — command-line front end.
//!
//! ```text
//! pervasive-miner mine   [--scale tiny|small|paper] [--seed N] [--sigma N]
//!                        [--pois FILE --journeys FILE] [--lenient]
//!                        [--artifact FILE] [--top N] [--k N] [--k-min N]
//! pervasive-miner serve  --artifact FILE [--addr HOST:PORT] [--threads N]
//!                        [--shards N] [--wal-dir DIR]
//!                        [--remine-interval SECS] [--remine-dir DIR]
//! pervasive-miner replay --journeys FILE [--addr HOST:PORT] [--rate N] [--batch N]
//!                        [--users N]
//! pervasive-miner artifact-check <FILE>
//! pervasive-miner fig    <6|9|10|11|12|13|14>  [--scale ..] [--seed N] [--csv DIR]
//! pervasive-miner table  <1|3>                 [--scale ..] [--seed N]
//! pervasive-miner all    [--scale ..] [--seed N] [--csv DIR]
//! pervasive-miner svg    [--scale ..] [--seed N] [--out FILE]
//! ```
//!
//! `mine` runs the whole Pervasive Miner pass and prints the top patterns,
//! daily motif classes and life-pattern cohorts; `fig` and `table`
//! regenerate one paper figure/table; `all` regenerates everything
//! (optionally exporting CSVs for plotting).
//!
//! By default `mine` runs on a synthetic city; given `--pois` and
//! `--journeys` it ingests real CSV data instead (WGS-84, projected into a
//! Shanghai-anchored local frame). Ingestion is strict — the first
//! malformed line aborts with its line number — unless `--lenient` is
//! passed, which quarantines malformed records, mines what remains, and
//! prints a dropped-records summary to stderr.
//!
//! One pass ([`pervasive_miner::serve::mine_artifact`]) yields every
//! product: the CSD, the fine-grained patterns, the daily mobility-motif
//! table (per-user-per-day semantic-unit transition graphs, canonicalized)
//! and the cohort table (each user embedded as a sparse semantic-unit
//! visit/transition vector and clustered into life-pattern cohorts; `--k`
//! fixes the count, `--k-min` the k-anonymity floor, `--seed` seeds the
//! clustering). `mine --artifact` persists all of it, with the parameters,
//! as a versioned `pm-store` artifact; `serve` loads such an artifact and
//! answers semantic, pattern, motif and cohort queries over HTTP
//! (including live ingestion at `POST /v1/ingest` and artifact hot-swap at
//! `POST /v1/reload`); `replay` streams a journey CSV into a running
//! server's ingest endpoint at a configurable rate; `artifact-check`
//! verifies an artifact on disk re-serializes byte-identically.

use pervasive_miner::cohort::CohortParams;
use pervasive_miner::core::recognize::stay_points_of;
use pervasive_miner::core::types::Poi;
use pervasive_miner::eval::{export, figures, report, run_all};
use pervasive_miner::io::{
    journeys_to_trajectories, read_journeys_observed, read_pois_observed, IngestMode,
    QuarantineReport,
};
use pervasive_miner::prelude::*;
use pervasive_miner::serve::{mine_artifact, ServeConfig, ServeState, Server, Snapshot};
use pervasive_miner::store::Artifact;
use pervasive_miner::stream::EngineConfig;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    command: String,
    target: Option<String>,
    scale: String,
    seed: u64,
    sigma: Option<usize>,
    csv: Option<PathBuf>,
    out: Option<PathBuf>,
    pois: Option<PathBuf>,
    journeys: Option<PathBuf>,
    lenient: bool,
    threads: Option<usize>,
    report: Option<PathBuf>,
    report_format: ReportFormat,
    artifact: Option<PathBuf>,
    top: usize,
    addr: String,
    rate: u64,
    batch: usize,
    wal_dir: Option<PathBuf>,
    remine_interval: u64,
    remine_dir: Option<PathBuf>,
    shards: Option<usize>,
    users: Option<usize>,
    k: usize,
    k_min: u32,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ReportFormat {
    Json,
    Text,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or_else(usage)?;
    let mut args = Args {
        command,
        target: None,
        scale: "small".into(),
        seed: 2020,
        sigma: None,
        csv: None,
        out: None,
        pois: None,
        journeys: None,
        lenient: false,
        threads: None,
        report: None,
        report_format: ReportFormat::Json,
        artifact: None,
        top: 20,
        addr: "127.0.0.1:8080".into(),
        rate: 0,
        batch: 256,
        wal_dir: None,
        remine_interval: 0,
        remine_dir: None,
        shards: None,
        users: None,
        k: 0,
        k_min: pervasive_miner::cohort::DEFAULT_K_MIN,
    };
    let mut positional = Vec::new();
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--scale" => args.scale = argv.next().ok_or("--scale needs a value")?,
            "--seed" => {
                args.seed = argv
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--sigma" => {
                args.sigma = Some(
                    argv.next()
                        .ok_or("--sigma needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --sigma: {e}"))?,
                )
            }
            "--csv" => args.csv = Some(PathBuf::from(argv.next().ok_or("--csv needs a dir")?)),
            "--out" => args.out = Some(PathBuf::from(argv.next().ok_or("--out needs a file")?)),
            "--pois" => args.pois = Some(PathBuf::from(argv.next().ok_or("--pois needs a file")?)),
            "--journeys" => {
                args.journeys = Some(PathBuf::from(argv.next().ok_or("--journeys needs a file")?))
            }
            "--lenient" => args.lenient = true,
            "--report" => {
                args.report = Some(PathBuf::from(argv.next().ok_or("--report needs a file")?))
            }
            "--report-format" => {
                args.report_format =
                    match argv.next().ok_or("--report-format needs a value")?.as_str() {
                        "json" => ReportFormat::Json,
                        "text" => ReportFormat::Text,
                        other => return Err(format!("bad --report-format '{other}' (json|text)")),
                    }
            }
            "--threads" => {
                args.threads = Some(
                    argv.next()
                        .ok_or("--threads needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --threads: {e}"))?,
                )
            }
            "--artifact" => {
                args.artifact = Some(PathBuf::from(argv.next().ok_or("--artifact needs a file")?))
            }
            "--top" => {
                args.top = argv
                    .next()
                    .ok_or("--top needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --top: {e}"))?
            }
            "--addr" => args.addr = argv.next().ok_or("--addr needs host:port")?,
            "--wal-dir" => {
                args.wal_dir = Some(PathBuf::from(argv.next().ok_or("--wal-dir needs a dir")?))
            }
            "--remine-interval" => {
                args.remine_interval = argv
                    .next()
                    .ok_or("--remine-interval needs seconds")?
                    .parse()
                    .map_err(|e| format!("bad --remine-interval: {e}"))?
            }
            "--remine-dir" => {
                args.remine_dir = Some(PathBuf::from(
                    argv.next().ok_or("--remine-dir needs a dir")?,
                ))
            }
            "--shards" => {
                args.shards = Some(
                    argv.next()
                        .ok_or("--shards needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --shards: {e}"))?,
                );
                if args.shards == Some(0) {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--users" => {
                args.users = Some(
                    argv.next()
                        .ok_or("--users needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --users: {e}"))?,
                );
                if args.users == Some(0) {
                    return Err("--users must be at least 1".into());
                }
            }
            "--rate" => {
                args.rate = argv
                    .next()
                    .ok_or("--rate needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --rate: {e}"))?
            }
            "--k" => {
                args.k = argv
                    .next()
                    .ok_or("--k needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --k: {e}"))?
            }
            "--k-min" => {
                args.k_min = argv
                    .next()
                    .ok_or("--k-min needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --k-min: {e}"))?;
                if args.k_min == 0 {
                    return Err("--k-min must be at least 1".into());
                }
            }
            "--batch" => {
                args.batch = argv
                    .next()
                    .ok_or("--batch needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --batch: {e}"))?;
                if args.batch == 0 {
                    return Err("--batch must be at least 1".into());
                }
            }
            other if !other.starts_with('-') => positional.push(other.to_string()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    args.target = positional.into_iter().next();
    Ok(args)
}

fn usage() -> String {
    "usage: pervasive-miner <mine|serve|replay|artifact-check|fig|table|all|svg> [target] \
     [--scale tiny|small|paper] [--seed N] [--sigma N] [--csv DIR] [--out FILE] \
     [--pois FILE --journeys FILE] [--lenient] [--threads N] \
     [--report FILE] [--report-format json|text] \
     [--artifact FILE] [--top N] [--k N] [--k-min N] [--addr HOST:PORT] [--rate N] \
     [--batch N] [--users N] [--shards N] [--wal-dir DIR] [--remine-interval SECS] \
     [--remine-dir DIR]\n\
     mine: one pass builds the CSD, mines the patterns, the daily mobility \
     motifs (per-user-per-day unit-transition graphs, canonicalized) and the \
     life-pattern cohorts (users embedded by semantic-unit visits and \
     transitions, then clustered), and prints the top of each\n\
     --pois/--journeys: mine real CSV data instead of a synthetic city\n\
     --lenient: quarantine malformed input lines instead of aborting on the \
     first one; a dropped-records summary goes to stderr\n\
     --threads: worker threads for the data-parallel pipeline stages \
     (0 = all cores; default: the PM_THREADS environment variable, else 1). \
     Results are bit-identical at every thread count\n\
     --report: write a machine-readable run report (per-stage wall time, \
     counters, degradation/quarantine tallies) after `mine`; \
     --report-format picks json (default) or a text table\n\
     --artifact: with `mine`, also write the run (CSD, patterns, motifs, \
     cohorts) as a pm-store artifact; with `serve`, the artifact to load \
     (required)\n\
     --top: how many patterns, motif classes and users `mine` prints \
     (default 20)\n\
     --k: with `mine`, the cohort count (0 = auto, the default); --k-min: \
     the k-anonymity floor below which cohort aggregates are suppressed \
     (default 5); --seed also seeds the cohort clustering\n\
     --addr: `serve` listen address (default 127.0.0.1:8080; port 0 picks \
     an ephemeral port, announced on stderr); for `replay`, the server to \
     stream into\n\
     --shards: with `serve`, split the live ingest engine into N user-keyed \
     shards, each with its own worker thread and WAL segment stream \
     (default: the PM_SHARDS environment variable, else 1). Merged live \
     reads are byte-identical at every shard count; a WAL dir remembers \
     its shard count and refuses to reopen with a different one\n\
     --wal-dir: with `serve`, write-ahead-log accepted ingest batches into \
     DIR and recover the live engine state from it on startup — a killed \
     server restarts where it left off; SIGINT/SIGTERM cut a final \
     checkpoint before exiting\n\
     --remine-interval: with `serve`, re-mine the accumulated live stays \
     every SECS seconds in a supervised background job and hot-swap the \
     snapshot on success (0 = off, the default); status at GET /v1/miner\n\
     --remine-dir: where re-mined generations are published (default: the \
     artifact path with a .generations extension). If the --artifact file \
     is missing or damaged, `serve` degrades to the newest verifiable \
     generation found here\n\
     replay --journeys FILE: stream a journey CSV into a running server's \
     POST /v1/ingest as live stay records; --rate caps records/second \
     (0 = unthrottled), --batch sets records per request (default 256), \
     --users folds the stream onto N synthetic user ids (u0..uN-1) to \
     exercise a chosen user cardinality; overload answers are retried \
     honoring the server's Retry-After\n\
     artifact-check <FILE>: reload an artifact, verify it re-serializes \
     byte-identically, and report which optional sections it carries"
        .into()
}

fn config(scale: &str, seed: u64) -> Result<CityConfig, String> {
    match scale {
        "tiny" => Ok(CityConfig::tiny(seed)),
        "small" => Ok(CityConfig::small(seed)),
        "paper" => Ok(CityConfig::paper(seed)),
        other => Err(format!("unknown scale '{other}' (tiny|small|paper)")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let cfg = config(&args.scale, args.seed)?;
    let mut params = MinerParams::default();
    if args.scale == "tiny" {
        params.sigma = 20; // sensible support for the small corpus
    }
    if let Some(s) = args.sigma {
        params.sigma = s;
    }
    if let Some(t) = args.threads {
        params.threads = t;
    }

    if args.report.is_some() && args.command != "mine" {
        return Err("--report only applies to the `mine` command".into());
    }
    if args.artifact.is_some() && !matches!(args.command.as_str(), "mine" | "serve") {
        return Err("--artifact only applies to the `mine` and `serve` commands".into());
    }

    // Commands that operate on a stored artifact never need a synthetic
    // city — branch before dataset generation.
    match args.command.as_str() {
        "serve" => return serve_command(&args),
        "replay" => return replay_command(&args),
        "artifact-check" => return artifact_check(&args),
        _ => {}
    }

    if args.pois.is_some() || args.journeys.is_some() {
        if args.command != "mine" {
            return Err("--pois/--journeys only apply to the `mine` command".into());
        }
        return mine_ingested(&args, &params);
    }

    eprintln!(
        "generating {} city (seed {}), sigma = {} ...",
        args.scale, args.seed, params.sigma
    );
    let ds = Dataset::generate(&cfg);
    eprintln!(
        "  {} POIs, {} journeys, {} trajectories",
        ds.pois.len(),
        ds.corpus.journeys.len(),
        ds.trajectories.len()
    );

    match args.command.as_str() {
        "mine" => mine(&ds, &params, &args),
        "svg" => svg(&ds, &params, &args),
        "fig" => figure(&ds, &params, args.target.as_deref().ok_or(usage())?, &args),
        "table" => table(&ds, args.target.as_deref().ok_or(usage())?, &args),
        "all" => {
            for t in ["1", "3"] {
                table(&ds, t, &args)?;
            }
            for f in ["6", "9", "10", "11", "12", "13", "14"] {
                figure(&ds, &params, f, &args)?;
            }
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{}", usage())),
    }
}

fn mine(ds: &Dataset, params: &MinerParams, args: &Args) -> Result<(), String> {
    let obs = observer(args, params);
    // Synthetic cities live in a local meter frame with no geographic
    // anchor, so the artifact carries no projection.
    let artifact = mine_corpus(&ds.pois, ds.trajectories.clone(), params, args, &obs)?;
    write_artifact(args, artifact)?;
    write_report(args, &obs)
}

/// Persists the mined run when `--artifact` was requested.
fn write_artifact(args: &Args, artifact: Artifact) -> Result<(), String> {
    let Some(path) = &args.artifact else {
        return Ok(());
    };
    artifact
        .write_file(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "wrote artifact to {} ({})",
        path.display(),
        artifact.describe()
    );
    Ok(())
}

/// A recording handle when `--report` was requested, the no-op otherwise.
fn observer(args: &Args, params: &MinerParams) -> Obs {
    if args.report.is_none() {
        return Obs::noop();
    }
    let obs = Obs::enabled();
    obs.set_threads(pm_runtime::resolve_threads(params.threads));
    obs
}

/// Dumps the run report to the `--report` path in the requested format.
fn write_report(args: &Args, obs: &Obs) -> Result<(), String> {
    let Some(path) = &args.report else {
        return Ok(());
    };
    let report = obs.report();
    let body = match args.report_format {
        ReportFormat::Json => report.to_json(),
        ReportFormat::Text => report.to_text(),
    };
    std::fs::write(path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote run report to {}", path.display());
    Ok(())
}

/// Reads real POI/journey CSVs (strict or lenient per `--lenient`) and runs
/// the mining pipeline on them. Quarantined records are summarized on
/// stderr; the run proceeds on whatever survived.
fn mine_ingested(args: &Args, params: &MinerParams) -> Result<(), String> {
    let (pois_path, journeys_path) = match (&args.pois, &args.journeys) {
        (Some(p), Some(j)) => (p, j),
        _ => return Err("mining real data needs both --pois and --journeys".into()),
    };
    let mode = if args.lenient {
        IngestMode::Lenient
    } else {
        IngestMode::Strict
    };
    // The paper's deployment frame: a local meter grid anchored at Shanghai.
    let projection = pervasive_miner::io::default_projection();
    let read = |path: &Path| -> Result<String, String> {
        std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
    };
    let ingest_err = |path: &Path, e: pervasive_miner::io::IoError| {
        format!(
            "{}: {e} (use --lenient to quarantine bad lines)",
            path.display()
        )
    };

    let obs = observer(args, params);
    let (pois, poi_report) =
        read_pois_observed(&read(pois_path)?, &projection, mode, params.threads, &obs)
            .map_err(|e| ingest_err(pois_path, e))?;
    let (journeys, journey_report) = read_journeys_observed(
        &read(journeys_path)?,
        &projection,
        mode,
        params.threads,
        &obs,
    )
    .map_err(|e| ingest_err(journeys_path, e))?;
    report_quarantine(pois_path, &poi_report);
    report_quarantine(journeys_path, &journey_report);

    let trajectories = journeys_to_trajectories(&journeys);
    eprintln!(
        "ingested {} POIs, {} journeys -> {} trajectories, sigma = {}",
        pois.len(),
        journeys.len(),
        trajectories.len(),
        params.sigma
    );
    let artifact = mine_corpus(&pois, trajectories, params, args, &obs)?;
    // Ingested data is geographic: store the shared origin so the service
    // can answer lat/lon queries in the same frame.
    write_artifact(
        args,
        artifact.with_projection(pervasive_miner::io::DEFAULT_ORIGIN),
    )?;
    write_report(args, &obs)
}

/// Unix graceful shutdown: SIGINT/SIGTERM flip an atomic flag from an
/// async-signal-safe handler; a monitor thread polls it and drives the
/// server's cooperative shutdown (which drains connections and cuts a
/// final WAL checkpoint).
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    /// The handler itself only stores to an atomic — the only thing that
    /// is safe to do in signal context.
    extern "C" fn mark_shutdown(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, mark_shutdown as *const () as usize);
            signal(SIGTERM, mark_shutdown as *const () as usize);
        }
    }

    pub fn requested() -> bool {
        SHUTDOWN.load(Ordering::SeqCst)
    }
}

/// Loads an artifact and serves semantic queries over HTTP until killed
/// (or the listener fails). The bound address goes to stderr so scripts
/// can use `--addr 127.0.0.1:0` and discover the ephemeral port.
/// The artifact path is remembered as the default for `POST /v1/reload`,
/// so re-mining to the same file and hitting reload hot-swaps the service.
///
/// The online loop rides on three optional flags: `--wal-dir` makes live
/// ingest crash-safe (log before engine, checkpoint periodically, recover
/// on startup), `--remine-interval` runs the supervised background
/// re-miner, and `--remine-dir` is where its generations publish — also
/// the last-good fallback when the primary artifact won't load.
fn serve_command(args: &Args) -> Result<(), String> {
    use pervasive_miner::serve::{RemineConfig, Reminer};
    use pervasive_miner::store::GenerationStore;
    use pervasive_miner::stream::{Recognizer, ShardConfig, ShardedEngine, WalConfig};

    let path = args
        .artifact
        .as_ref()
        .ok_or("serve needs --artifact FILE (produce one with `mine --artifact`)")?;
    let obs = Obs::enabled();
    let remine_dir = args
        .remine_dir
        .clone()
        .unwrap_or_else(|| path.with_extension("generations"));

    // Load the primary artifact; when it is missing or damaged, degrade to
    // the newest verifiable generation the re-miner published — a server
    // that survived earlier crashes stays serveable.
    let artifact = match Artifact::read_file(path) {
        Ok(artifact) => {
            eprintln!("loaded {}: {}", path.display(), artifact.describe());
            artifact
        }
        Err(primary_err) => {
            let fallback = GenerationStore::open(&remine_dir, 1)
                .and_then(|store| store.latest_good())
                .ok()
                .flatten();
            match fallback {
                Some((generation, artifact)) => {
                    obs.incr("miner.degraded_to_last_good", 1);
                    eprintln!(
                        "warning: {}: {primary_err}; degraded to last-good generation \
                         {generation} from {}",
                        path.display(),
                        remine_dir.display()
                    );
                    artifact
                }
                None => return Err(format!("{}: {primary_err}", path.display())),
            }
        }
    };
    let engine_config = EngineConfig::from_miner(&artifact.params);
    let snapshot =
        Arc::new(Snapshot::new(artifact).map_err(|e| format!("{}: {e}", path.display()))?);

    // The live ingest engine: N user-keyed shards (--shards, PM_SHARDS,
    // else 1), each with its own worker and — with --wal-dir — its own WAL
    // segment stream. Opening restores every shard (checkpoint first, then
    // sealed replay of intact frames); recovery tallies land on the same
    // wal.* counters /v1/stats exposes.
    let shards = args.shards.unwrap_or_else(pm_runtime::default_shards);
    let mut shard_config = ShardConfig::new(shards, engine_config);
    if let Some(dir) = &args.wal_dir {
        shard_config = shard_config.with_wal(WalConfig::new(dir));
    }
    let recognize: Recognizer = {
        let snapshot = Arc::clone(&snapshot);
        Arc::new(move |pos| snapshot.primary_category(pos))
    };
    let (engine, recovery) =
        ShardedEngine::open(shard_config, &recognize).map_err(|e| match &args.wal_dir {
            Some(dir) => format!("wal {}: {e}", dir.display()),
            None => format!("engine: {e}"),
        })?;
    if shards > 1 {
        eprintln!("ingest sharded across {shards} user-keyed shards");
    }
    if let Some(dir) = &args.wal_dir {
        let r = &recovery.report;
        obs.incr("wal.replayed_batches", r.replayed_batches);
        obs.incr("wal.replayed_records", r.replayed_records);
        obs.incr("wal.torn_frames", r.torn_frames);
        obs.incr("wal.corrupt_frames", r.corrupt_frames);
        eprintln!(
            "wal {}: recovered {}/{shards} shards from checkpoints (replayed {} batches / \
             {} records, {} torn + {} corrupt frames dropped)",
            dir.display(),
            recovery.checkpoints_restored,
            r.replayed_batches,
            r.replayed_records,
            r.torn_frames,
            r.corrupt_frames,
        );
    }

    let state = Arc::new(
        ServeState::with_engine(Arc::clone(&snapshot), engine)
            .with_reload_path(path)
            .with_obs(obs.clone()),
    );

    let config = ServeConfig {
        threads: args.threads.unwrap_or(0),
        ..ServeConfig::default()
    };
    let server = Server::bind_with_state(&args.addr, Arc::clone(&state), config, obs.clone())
        .map_err(|e| format!("bind {}: {e}", args.addr))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    eprintln!("listening on {addr}");

    // The supervised background re-miner: publishes verified generations
    // into the store and hot-swaps the snapshot on success.
    let reminer = if args.remine_interval > 0 {
        let remine = RemineConfig {
            interval: std::time::Duration::from_secs(args.remine_interval),
            ..RemineConfig::default()
        };
        let store = GenerationStore::open(&remine_dir, remine.keep_generations)
            .map_err(|e| format!("{}: {e}", remine_dir.display()))?;
        eprintln!(
            "re-mining every {}s into {} (keeping {} generations)",
            args.remine_interval,
            remine_dir.display(),
            remine.keep_generations
        );
        Some(Reminer::spawn(Arc::clone(&state), store, remine, obs))
    } else {
        None
    };

    #[cfg(unix)]
    {
        signals::install();
        let handle = server.shutdown_handle().map_err(|e| e.to_string())?;
        std::thread::spawn(move || loop {
            if signals::requested() {
                eprintln!("shutdown signal received; draining ...");
                handle.shutdown();
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        });
    }

    // run() drains connections and cuts the final WAL checkpoint itself.
    let result = server.run().map_err(|e| format!("serve: {e}"));
    if let Some(reminer) = reminer {
        reminer.stop();
    }
    eprintln!("server stopped");
    result
}

/// Streams a journey CSV into a running server's `POST /v1/ingest`.
///
/// Each journey becomes two live **stay** records sharing one user id (the
/// payment card when present, an anonymous per-journey id otherwise) — in
/// the taxi regime pick-ups and drop-offs *are* stays, so they bypass dwell
/// detection and feed the transition window directly. Coordinates go over
/// the wire in the shared Shanghai-anchored local frame. Overload answers
/// (`429`/`503`) back off and retry; any other failure aborts with a
/// nonzero exit.
fn replay_command(args: &Args) -> Result<(), String> {
    use pervasive_miner::serve::client::Conn;
    use std::fmt::Write as _;

    let path = args
        .journeys
        .as_ref()
        .ok_or("replay needs --journeys FILE")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let addr: std::net::SocketAddr = args
        .addr
        .parse()
        .map_err(|e| format!("bad --addr {}: {e}", args.addr))?;
    let projection = pervasive_miner::io::default_projection();

    // (user, x, y, t) stay records, lazily drawn from the CSV. With
    // --users N the stream folds onto N synthetic ids (u0..uN-1) so a
    // small CSV can exercise any user cardinality.
    let fold_users = args.users;
    let mut skipped = 0usize;
    let records = pervasive_miner::io::JourneyStream::new(&text, &projection)
        .enumerate()
        .filter_map(|(i, parsed)| match parsed {
            Ok(j) => {
                let user = match fold_users {
                    Some(n) => format!("u{}", i % n),
                    None => match j.card {
                        Some(card) => format!("card-{card}"),
                        None => format!("anon-{i}"),
                    },
                };
                Some([(user.clone(), j.pickup), (user, j.dropoff)])
            }
            Err(_) => {
                skipped += 1;
                None
            }
        })
        .flatten();

    let mut conn = Conn::open(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut sent = 0u64;
    let mut batches = 0u64;
    let mut accepted = 0u64;
    let mut quarantined = 0u64;
    let mut stays = 0u64;
    let mut transitions = 0u64;
    let started = std::time::Instant::now();

    let mut batch: Vec<(String, pervasive_miner::core::types::GpsPoint)> =
        Vec::with_capacity(args.batch);
    let mut pending = records.peekable();
    while pending.peek().is_some() {
        batch.clear();
        while batch.len() < args.batch {
            match pending.next() {
                Some(r) => batch.push(r),
                None => break,
            }
        }
        let mut body = String::from("{\"stays\":[");
        for (i, (user, p)) in batch.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            let _ = write!(
                body,
                "{{\"user\":\"{user}\",\"x\":{},\"y\":{},\"t\":{}}}",
                p.pos.x, p.pos.y, p.time
            );
        }
        body.push_str("]}");

        // Bounded retry on overload; reconnect when the server closed the
        // keep-alive session (error statuses close the connection).
        let mut attempts = 0;
        let reply = loop {
            let result = conn.post("/v1/ingest", &body);
            match result {
                Ok((200, reply)) => break reply,
                Ok((status @ (429 | 503), _)) if attempts < 50 => {
                    attempts += 1;
                    // Back off by the server's Retry-After clock when it
                    // sent one; otherwise fall back to linear client-side
                    // backoff. Capped so a generous server hint cannot
                    // stall the replay for minutes.
                    let wait = conn
                        .retry_after()
                        .map(std::time::Duration::from_secs)
                        .unwrap_or_else(|| std::time::Duration::from_millis(20 * attempts))
                        .min(std::time::Duration::from_secs(5));
                    std::thread::sleep(wait);
                    conn = Conn::open(addr).map_err(|e| format!("reconnect {addr}: {e}"))?;
                    let _ = status;
                }
                Ok((status, reply)) => return Err(format!("ingest failed with {status}: {reply}")),
                Err(e) if attempts < 5 => {
                    attempts += 1;
                    conn = Conn::open(addr).map_err(|e| format!("reconnect {addr}: {e}"))?;
                    let _ = e;
                }
                Err(e) => return Err(format!("ingest request failed: {e}")),
            }
        };
        let count = |key: &str| -> u64 {
            pervasive_miner::serve::json::parse(&reply)
                .ok()
                .and_then(|v| v.get(key).and_then(|n| n.as_i64()))
                .unwrap_or(0) as u64
        };
        accepted += count("accepted");
        quarantined += count("quarantined");
        stays += count("stays");
        transitions += count("transitions");
        sent += batch.len() as u64;
        batches += 1;

        if args.rate > 0 {
            // Keep the long-run average at `--rate` records/second.
            let due = std::time::Duration::from_secs_f64(sent as f64 / args.rate as f64);
            if let Some(wait) = due.checked_sub(started.elapsed()) {
                std::thread::sleep(wait);
            }
        }
    }
    eprintln!(
        "replayed {sent} records in {batches} batches ({skipped} malformed lines skipped): \
         {accepted} accepted, {quarantined} quarantined, {stays} stays, {transitions} transitions"
    );
    Ok(())
}

/// Reloads an artifact, proves it re-serializes byte-identically — the
/// on-disk integrity check scripts run after `mine --artifact` — and
/// reports the section layout, naming which optional sections (motifs,
/// cohorts) are present.
fn artifact_check(args: &Args) -> Result<(), String> {
    let path = args
        .target
        .as_ref()
        .map(PathBuf::from)
        .or_else(|| args.artifact.clone())
        .ok_or("artifact-check needs a path: artifact-check <FILE>")?;
    let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let artifact =
        Artifact::from_bytes_verified(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "{}: ok — {} bytes, {}",
        path.display(),
        bytes.len(),
        artifact.describe()
    );
    let sections = pervasive_miner::store::section_summary(&bytes)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let mut optional = Vec::new();
    for s in &sections {
        println!(
            "  section {}  {:>12} bytes{}",
            s.tag_str(),
            s.payload_bytes,
            if s.optional { "  (optional)" } else { "" }
        );
        if s.optional {
            optional.push(match s.tag_str().as_str() {
                "motf" => "motifs".to_string(),
                "coho" => "cohorts".to_string(),
                other => other.to_string(),
            });
        }
    }
    if optional.is_empty() {
        println!("  optional sections: none");
    } else {
        println!("  optional sections: {}", optional.join(", "));
    }
    Ok(())
}

fn report_quarantine(path: &Path, report: &QuarantineReport) {
    if !report.is_clean() {
        eprintln!("{}: {report}", path.display());
    }
}

/// The single mining pass over a corpus (see
/// [`pervasive_miner::serve::mine_artifact`]), with a summary of each
/// product on stdout.
///
/// One user per carded passenger ("card-N"); anonymous trajectories each
/// stand alone ("uIDX" by corpus position). `--seed` seeds the cohort
/// clustering.
fn mine_corpus(
    pois: &[Poi],
    trajectories: Vec<SemanticTrajectory>,
    params: &MinerParams,
    args: &Args,
    obs: &Obs,
) -> Result<Artifact, String> {
    let corpus = trajectories
        .into_iter()
        .enumerate()
        .map(|(i, traj)| {
            let user = match traj.passenger {
                Some(card) => format!("card-{card}"),
                None => format!("u{i}"),
            };
            (user, traj)
        })
        .collect();
    let cohort_params = CohortParams {
        k: args.k,
        seed: args.seed,
        k_min: args.k_min,
        threads: params.threads,
        ..CohortParams::default()
    };
    let artifact =
        mine_artifact(pois, corpus, params, &cohort_params, obs).map_err(|e| e.to_string())?;

    let span = obs.span("metrics.summarize");
    let summary = pervasive_miner::core::metrics::summarize(&artifact.patterns);
    span.finish();
    println!(
        "{} fine-grained patterns, coverage {}, avg sparsity {:.1} m, avg consistency {:.3}",
        summary.n_patterns, summary.coverage, summary.avg_sparsity, summary.avg_consistency
    );
    for p in artifact.patterns.iter().take(args.top) {
        let m = pervasive_miner::core::metrics::pattern_metrics(p);
        println!(
            "  {:<55} support {:>5}  sparsity {:>6.1} m  consistency {:.3}",
            p.describe(),
            p.support(),
            m.spatial_sparsity,
            m.semantic_consistency
        );
    }

    if let Some(motifs) = &artifact.motifs {
        println!(
            "{} motif classes over {} user-days ({} oversize days)",
            motifs.classes.len(),
            motifs.total_days,
            motifs.oversize_days,
        );
        for class in motifs.classes.iter().take(args.top) {
            println!(
                "  #{:<3} form {:#018x}  {} nodes / {} edges  {:>6} days  share {:.4}",
                class.id, class.form, class.nodes, class.edges, class.days, class.share
            );
        }
    }

    if let Some(table) = &artifact.cohorts {
        let hidden = table
            .cohorts
            .iter()
            .filter(|c| table.suppressed(c.size))
            .count();
        println!(
            "{} users in {} cohorts ({} below the k-anonymity floor of {}) via {}",
            table.users.len(),
            table.cohorts.len(),
            hidden,
            table.k_min,
            table.method.name(),
        );
        for cohort in &table.cohorts {
            if table.suppressed(cohort.size) {
                println!(
                    "  cohort {:<3} suppressed (size < {})",
                    cohort.id, table.k_min
                );
                continue;
            }
            let dominant = cohort
                .dominant_category()
                .map(|c| c.name())
                .unwrap_or("untagged");
            println!(
                "  cohort {:<3} {:>6} users  dominant {:<20} avg {:.1} active days / {:.1} stays",
                cohort.id, cohort.size, dominant, cohort.mean_active_days, cohort.mean_stays
            );
        }
        for user in table.users.iter().take(args.top) {
            println!(
                "  user {}  cohort {}  stays {}  active-days {}",
                user.user, user.cohort, user.stays, user.active_days
            );
        }
    }
    Ok(artifact)
}

fn svg(ds: &Dataset, params: &MinerParams, args: &Args) -> Result<(), String> {
    use pervasive_miner::eval::svg::{render_svg, SvgOptions};
    let stays = stay_points_of(&ds.trajectories);
    let csd = CitySemanticDiagram::build(&ds.pois, &stays, params).map_err(|e| e.to_string())?;
    let recognized =
        recognize_all(&csd, ds.trajectories.clone(), params).map_err(|e| e.to_string())?;
    let patterns = extract_patterns(&recognized, params).map_err(|e| e.to_string())?;
    let document = render_svg(Some(&csd), &patterns, &SvgOptions::default());
    match &args.out {
        Some(path) => {
            std::fs::write(path, &document).map_err(|e| format!("write failed: {e}"))?;
            eprintln!(
                "wrote {} ({} units, {} patterns)",
                path.display(),
                csd.units().len(),
                patterns.len()
            );
        }
        None => println!("{document}"),
    }
    Ok(())
}

fn figure(ds: &Dataset, params: &MinerParams, which: &str, args: &Args) -> Result<(), String> {
    let baseline = BaselineParams::default();
    let io = |e: std::io::Error| format!("csv write failed: {e}");
    match which {
        "6" => {
            let stays = stay_points_of(&ds.trajectories);
            let csd =
                CitySemanticDiagram::build(&ds.pois, &stays, params).map_err(|e| e.to_string())?;
            let s = csd.stats();
            println!("Fig. 6 — CSD construction");
            println!("  coarse clusters {}, leftovers {}, purified {}, final units {}, covered {}, purity {:.1}%",
                s.n_coarse, s.n_leftover, s.n_purified, s.n_units, s.n_covered, s.purity * 100.0);
        }
        "9" | "10" => {
            let results = run_all(ds, params, &baseline).map_err(|e| e.to_string())?;
            if which == "9" {
                let rows = figures::fig9(&results);
                println!("{}", report::render_fig9(&rows));
                if let Some(dir) = &args.csv {
                    export::write_csv(&dir.join("fig09.csv"), &export::fig9_csv(&rows))
                        .map_err(io)?;
                }
            } else {
                let rows = figures::fig10(&results);
                println!("{}", report::render_fig10(&rows));
                if let Some(dir) = &args.csv {
                    export::write_csv(&dir.join("fig10.csv"), &export::fig10_csv(&rows))
                        .map_err(io)?;
                }
            }
        }
        "11" | "12" | "13" => {
            let recognized =
                Recognized::compute(ds, params, &baseline).map_err(|e| e.to_string())?;
            let (title, name, points) = match which {
                "11" => (
                    "Fig. 11 — metrics vs support threshold sigma",
                    "fig11.csv",
                    figures::fig11_support_sweep(
                        &recognized,
                        params,
                        &baseline,
                        &[25, 50, 75, 100],
                    )
                    .map_err(|e| e.to_string())?,
                ),
                "12" => (
                    "Fig. 12 — metrics vs density threshold rho (m^-2)",
                    "fig12.csv",
                    figures::fig12_density_sweep(
                        &recognized,
                        params,
                        &baseline,
                        &[0.002, 0.01, 0.02, 0.04, 0.08],
                    )
                    .map_err(|e| e.to_string())?,
                ),
                _ => (
                    "Fig. 13 — metrics vs temporal constraint delta_t (minutes)",
                    "fig13.csv",
                    figures::fig13_temporal_sweep(
                        &recognized,
                        params,
                        &baseline,
                        &[15, 30, 45, 60, 75],
                    )
                    .map_err(|e| e.to_string())?,
                ),
            };
            println!("{}", report::render_sweep(title, "value", &points));
            if let Some(dir) = &args.csv {
                export::write_csv(&dir.join(name), &export::sweep_csv(&points)).map_err(io)?;
            }
        }
        "14" => {
            let stays = stay_points_of(&ds.trajectories);
            let csd =
                CitySemanticDiagram::build(&ds.pois, &stays, params).map_err(|e| e.to_string())?;
            let recognized =
                recognize_all(&csd, ds.trajectories.clone(), params).map_err(|e| e.to_string())?;
            let patterns = extract_patterns(&recognized, params).map_err(|e| e.to_string())?;
            let demo = figures::fig14_full(ds, &recognized, &patterns, params, args.seed)
                .map_err(|e| e.to_string())?;
            println!("{}", report::render_fig14(&demo));
            if let Some(dir) = &args.csv {
                export::write_csv(&dir.join("fig14.csv"), &export::fig14_csv(&demo)).map_err(io)?;
            }
        }
        other => return Err(format!("unknown figure '{other}' (6|9|10|11|12|13|14)")),
    }
    Ok(())
}

fn table(ds: &Dataset, which: &str, args: &Args) -> Result<(), String> {
    match which {
        "1" => {
            let t = figures::table1(ds, args.seed, 10);
            println!("{}", report::render_table1(&t));
        }
        "3" => {
            let t = figures::table3(ds);
            println!("{}", report::render_table3(&t));
        }
        other => return Err(format!("unknown table '{other}' (1|3)")),
    }
    Ok(())
}
