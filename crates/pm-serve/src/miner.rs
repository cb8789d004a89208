//! The supervised background re-miner.
//!
//! A [`Reminer`] owns one supervisor thread that periodically re-mines the
//! stays the live engine has accumulated through [`mine_artifact`] — the
//! same single pass `mine --artifact` runs, so every generation carries
//! the CSD, patterns, motifs and cohorts — publishes the result through a
//! crash-safe [`GenerationStore`], and hot-swaps the serving snapshot — the
//! online analogue of re-running `mine --artifact` + `POST /v1/reload`.
//!
//! ## Failure model
//!
//! Mining runs inside a private single-slot [`WorkerPool`] job wrapped in
//! [`catch_unwind`], with the supervisor waiting on a channel under a
//! deadline. Every way a job can go wrong maps to a [`FailureKind`]:
//!
//! - **panic** — the job panicked; caught, the pool worker survives;
//! - **error** — the pipeline returned a typed error;
//! - **timeout** — the deadline passed; the result, if it ever arrives, is
//!   dropped (a stale job can never publish);
//! - **publish** — the artifact failed the store's read-back verification
//!   (the previous generation keeps serving);
//! - **busy** — the previous (hung) job still occupies the worker.
//!
//! Failures drive a capped-exponential [`Backoff`] with deterministic
//! jitter and a [`CircuitBreaker`]: after `circuit_threshold` consecutive
//! failures the miner stops attempting until `circuit_cooldown` passes,
//! then probes half-open. The serving path is never involved — a broken
//! miner degrades to "the last good snapshot keeps serving", never to 5xx.
//!
//! Everything is observable: `miner.*` counters (pre-registered at zero by
//! the server) and the [`MinerStatus`] JSON behind `GET /v1/miner`.
//!
//! Fault injection: [`RemineConfig::fault`] lets tests inject a
//! [`InjectedFault`] per job sequence number, exercising each failure path
//! deterministically.

use crate::snapshot::Snapshot;
use crate::state::ServeState;
use pm_cluster::GaussianKernel;
use pm_cohort::{embed_users, CohortParams, CohortTable, UserStay};
use pm_core::construct::{CitySemanticDiagram, ConstructionOptions};
use pm_core::error::{record_degradations, MinerError};
use pm_core::extract::extract_patterns_observed;
use pm_core::params::MinerParams;
use pm_core::recognize::{recognize_all_observed, recognize_stay_point_unit, stay_points_of};
use pm_core::types::{Poi, SemanticTrajectory, StayPoint};
use pm_motif::{DayGraphBuilder, MotifAggregator};
use pm_obs::Obs;
use pm_runtime::{Backoff, CircuitBreaker, CircuitState, WorkerPool};
use pm_store::{Artifact, GenerationStore};
use pm_stream::DAY_SECS;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How a re-mining attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The mining job panicked (caught; the worker survives).
    Panic,
    /// The pipeline returned an error.
    Error,
    /// The job missed its deadline.
    Timeout,
    /// The mined artifact failed publish-time read-back verification.
    Publish,
    /// The previous job still occupies the worker slot.
    Busy,
}

impl FailureKind {
    /// The `miner.failures_*` counter suffix / status label.
    pub fn label(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Error => "error",
            FailureKind::Timeout => "timeout",
            FailureKind::Publish => "publish",
            FailureKind::Busy => "busy",
        }
    }
}

/// A deterministic fault injected into one mining job (tests only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Panic inside the job.
    Panic,
    /// Return a pipeline error.
    Error,
    /// Sleep this long before mining (drive timeouts / busy).
    Hang(Duration),
    /// Mine normally, then flip a byte of the artifact — the publish
    /// read-back must catch it.
    CorruptArtifact,
}

/// Decides, per job sequence number (1-based), whether to inject a fault.
pub type FaultHook = Arc<dyn Fn(u64) -> Option<InjectedFault> + Send + Sync>;

/// Tunables of the background re-miner.
#[derive(Clone)]
pub struct RemineConfig {
    /// Time between re-mining attempts after a success (or skip).
    pub interval: Duration,
    /// Skip the attempt (counted as `skipped_no_data`) below this many
    /// accumulated stays.
    pub min_stays: usize,
    /// Per-job deadline; a job past it is a `timeout` failure.
    pub job_deadline: Duration,
    /// First retry delay after a failure.
    pub backoff_base: Duration,
    /// Retry delay cap.
    pub backoff_max: Duration,
    /// Consecutive failures that open the circuit.
    pub circuit_threshold: u32,
    /// How long an open circuit rests before probing half-open.
    pub circuit_cooldown: Duration,
    /// Generations the store retains (the current one is never collected).
    pub keep_generations: usize,
    /// Seed of the backoff jitter (deterministic per process).
    pub seed: u64,
    /// Test-only fault injection; `None` in production.
    pub fault: Option<FaultHook>,
}

impl Default for RemineConfig {
    fn default() -> RemineConfig {
        RemineConfig {
            interval: Duration::from_secs(60),
            min_stays: 8,
            job_deadline: Duration::from_secs(120),
            backoff_base: Duration::from_millis(500),
            backoff_max: Duration::from_secs(60),
            circuit_threshold: 5,
            circuit_cooldown: Duration::from_secs(120),
            keep_generations: 4,
            seed: 0,
            fault: None,
        }
    }
}

impl std::fmt::Debug for RemineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemineConfig")
            .field("interval", &self.interval)
            .field("min_stays", &self.min_stays)
            .field("job_deadline", &self.job_deadline)
            .field("backoff_base", &self.backoff_base)
            .field("backoff_max", &self.backoff_max)
            .field("circuit_threshold", &self.circuit_threshold)
            .field("circuit_cooldown", &self.circuit_cooldown)
            .field("keep_generations", &self.keep_generations)
            .field("seed", &self.seed)
            .field("fault", &self.fault.is_some())
            .finish()
    }
}

/// The observable state of the re-miner, rendered at `GET /v1/miner`.
#[derive(Debug, Clone, Default)]
pub struct MinerStatus {
    /// `closed`, `open`, or `half_open`.
    pub circuit: String,
    /// Jobs attempted (including ones that failed).
    pub jobs_started: u64,
    /// Jobs that mined, published, and swapped successfully.
    pub jobs_succeeded: u64,
    /// Attempts skipped for lack of accumulated stays.
    pub skipped_no_data: u64,
    /// Failure tallies by kind, in [`FailureKind`] order
    /// (panic, error, timeout, publish, busy).
    pub failures: [u64; 5],
    /// Consecutive failures right now (resets on success).
    pub consecutive_failures: u32,
    /// Times the circuit opened.
    pub circuit_opens: u64,
    /// Generations published by this process.
    pub published: u64,
    /// The store generation currently served, if any was published.
    pub generation: Option<u64>,
    /// Stays snapshotted into the most recent attempt.
    pub last_stays: u64,
    /// Human-readable cause of the most recent failure.
    pub last_error: Option<String>,
    /// Delay until the next attempt, as last scheduled.
    pub next_delay_ms: u64,
}

impl MinerStatus {
    /// Total failures across kinds.
    pub fn failures_total(&self) -> u64 {
        self.failures.iter().sum()
    }

    /// The `GET /v1/miner` body.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"enabled\":true,\"circuit\":\"{}\",\"jobs_started\":{},\"jobs_succeeded\":{},\
             \"skipped_no_data\":{},\"failures\":{{\"panic\":{},\"error\":{},\"timeout\":{},\
             \"publish\":{},\"busy\":{},\"total\":{}}},\"consecutive_failures\":{},\
             \"circuit_opens\":{},\"published\":{},\"generation\":",
            self.circuit,
            self.jobs_started,
            self.jobs_succeeded,
            self.skipped_no_data,
            self.failures[0],
            self.failures[1],
            self.failures[2],
            self.failures[3],
            self.failures[4],
            self.failures_total(),
            self.consecutive_failures,
            self.circuit_opens,
            self.published,
        );
        match self.generation {
            Some(g) => out.push_str(&g.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(&format!(",\"last_stays\":{}", self.last_stays));
        out.push_str(",\"last_error\":");
        match &self.last_error {
            Some(e) => crate::json::push_str_lit(&mut out, e),
            None => out.push_str("null"),
        }
        out.push_str(&format!(",\"next_delay_ms\":{}}}", self.next_delay_ms));
        out
    }
}

/// Handle to the supervisor thread. Dropping (or [`Reminer::stop`]) signals
/// the thread and joins it — a hung job delays the join by at most its
/// remaining sleep, never forever, because jobs are deadline-bounded on the
/// supervisor side and the injected hang is finite.
#[derive(Debug)]
pub struct Reminer {
    stop: Arc<(Mutex<bool>, Condvar)>,
    status: Arc<Mutex<MinerStatus>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Reminer {
    /// Starts the supervisor. Its status is also attached to `state`, which
    /// makes `GET /v1/miner` live immediately.
    pub fn spawn(
        state: Arc<ServeState>,
        store: GenerationStore,
        config: RemineConfig,
        obs: Obs,
    ) -> Reminer {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let status = Arc::new(Mutex::new(MinerStatus {
            circuit: "closed".into(),
            next_delay_ms: config.interval.as_millis() as u64,
            ..MinerStatus::default()
        }));
        state.attach_miner(Arc::clone(&status));
        let thread_stop = Arc::clone(&stop);
        let thread_status = Arc::clone(&status);
        let handle = std::thread::Builder::new()
            .name("pm-reminer".into())
            .spawn(move || supervise(state, store, config, obs, thread_stop, thread_status))
            .expect("spawn reminer thread");
        Reminer {
            stop,
            status,
            handle: Some(handle),
        }
    }

    /// A copy of the current status.
    pub fn status(&self) -> MinerStatus {
        self.status
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Signals the supervisor and joins it.
    pub fn stop(mut self) {
        self.signal_and_join();
    }

    fn signal_and_join(&mut self) {
        {
            let (lock, cvar) = &*self.stop;
            *lock.lock().unwrap_or_else(|e| e.into_inner()) = true;
            cvar.notify_all();
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Reminer {
    fn drop(&mut self) {
        self.signal_and_join();
    }
}

/// The supervisor loop: sleep (interruptibly), attempt, record, schedule.
fn supervise(
    state: Arc<ServeState>,
    store: GenerationStore,
    config: RemineConfig,
    obs: Obs,
    stop: Arc<(Mutex<bool>, Condvar)>,
    status: Arc<Mutex<MinerStatus>>,
) {
    // One worker, zero queue slots beyond it: a second submission while a
    // hung job runs is refused — that *is* the busy failure.
    let pool = WorkerPool::new(1, 1);
    let mut backoff = Backoff::new(config.backoff_base, config.backoff_max, config.seed);
    let mut breaker = CircuitBreaker::new(config.circuit_threshold);
    let mut opened_at: Option<Instant> = None;
    let mut delay = config.interval;
    let mut job_seq = 0u64;

    loop {
        if wait_or_stop(&stop, delay) {
            break;
        }

        // Circuit discipline: while open, only the cooldown clock matters.
        if breaker.state() == CircuitState::Open {
            let waited = opened_at.map(|t| t.elapsed()).unwrap_or(Duration::ZERO);
            if waited < config.circuit_cooldown {
                delay = config.circuit_cooldown - waited;
                continue;
            }
            breaker.cooldown_elapsed();
            set_status(&status, |s| {
                s.circuit = circuit_label(breaker.state()).into()
            });
        }

        let stays = state.stays_snapshot();
        if stays.len() < config.min_stays {
            obs.incr("miner.skipped_no_data", 1);
            delay = config.interval;
            set_status(&status, |s| {
                s.skipped_no_data += 1;
                s.last_stays = stays.len() as u64;
                s.next_delay_ms = delay.as_millis() as u64;
            });
            continue;
        }

        job_seq += 1;
        obs.incr("miner.jobs_started", 1);
        set_status(&status, |s| {
            s.jobs_started += 1;
            s.last_stays = stays.len() as u64;
        });
        let base = state.snapshot().0;
        let outcome = run_job(
            &pool,
            stays,
            base,
            config.fault.clone(),
            job_seq,
            config.job_deadline,
        )
        .and_then(|bytes| {
            let receipt = store
                .publish(&bytes)
                .map_err(|e| (FailureKind::Publish, e.to_string()))?;
            // The bytes just survived the store's read-back verification;
            // decoding them again for the swap cannot fail in a way the
            // verification did not already catch, but stay typed anyway.
            let artifact = Artifact::from_bytes_verified(&bytes)
                .map_err(|e| (FailureKind::Publish, e.to_string()))?;
            let snapshot = Snapshot::new(artifact).map_err(|m| (FailureKind::Publish, m))?;
            let epoch = state.swap(Arc::new(snapshot));
            obs.incr("serve.swap_epoch", 1);
            obs.gauge("serve.epoch", epoch as f64);
            Ok(receipt)
        });

        match outcome {
            Ok(receipt) => {
                backoff.reset();
                breaker.record_success();
                opened_at = None;
                delay = config.interval;
                obs.incr("miner.jobs_succeeded", 1);
                obs.incr("miner.published_generations", 1);
                obs.gauge("miner.generation", receipt.generation as f64);
                set_status(&status, |s| {
                    s.jobs_succeeded += 1;
                    s.published += 1;
                    s.generation = Some(receipt.generation);
                    s.consecutive_failures = 0;
                    s.circuit = circuit_label(breaker.state()).into();
                    s.last_error = None;
                    s.next_delay_ms = delay.as_millis() as u64;
                });
            }
            Err((kind, message)) => {
                obs.incr(&format!("miner.failures_{}", kind.label()), 1);
                let before = breaker.opens();
                breaker.record_failure();
                if breaker.opens() > before {
                    obs.incr("miner.circuit_opens", 1);
                    opened_at = Some(Instant::now());
                }
                delay = if breaker.state() == CircuitState::Open {
                    config.circuit_cooldown
                } else {
                    backoff.next_delay()
                };
                set_status(&status, |s| {
                    s.failures[failure_index(kind)] += 1;
                    s.consecutive_failures = breaker.consecutive_failures();
                    s.circuit_opens = breaker.opens();
                    s.circuit = circuit_label(breaker.state()).into();
                    s.last_error = Some(format!("{}: {message}", kind.label()));
                    s.next_delay_ms = delay.as_millis() as u64;
                });
            }
        }
    }
    pool.shutdown();
}

/// Waits up to `delay` on the stop condvar; `true` means "stop now".
fn wait_or_stop(stop: &Arc<(Mutex<bool>, Condvar)>, delay: Duration) -> bool {
    let (lock, cvar) = &**stop;
    let mut stopped = lock.lock().unwrap_or_else(|e| e.into_inner());
    let deadline = Instant::now() + delay;
    while !*stopped {
        let now = Instant::now();
        if now >= deadline {
            return false;
        }
        let (guard, _) = cvar
            .wait_timeout(stopped, deadline - now)
            .unwrap_or_else(|e| e.into_inner());
        stopped = guard;
    }
    true
}

fn circuit_label(state: CircuitState) -> &'static str {
    match state {
        CircuitState::Closed => "closed",
        CircuitState::Open => "open",
        CircuitState::HalfOpen => "half_open",
    }
}

fn failure_index(kind: FailureKind) -> usize {
    match kind {
        FailureKind::Panic => 0,
        FailureKind::Error => 1,
        FailureKind::Timeout => 2,
        FailureKind::Publish => 3,
        FailureKind::Busy => 4,
    }
}

fn set_status(status: &Mutex<MinerStatus>, f: impl FnOnce(&mut MinerStatus)) {
    f(&mut status.lock().unwrap_or_else(|e| e.into_inner()));
}

/// Submits one mining job and awaits it under the deadline. The job is
/// panic-isolated; a timed-out job's eventual result is dropped with its
/// channel, so stale work can never publish.
fn run_job(
    pool: &WorkerPool,
    stays: Vec<(String, StayPoint)>,
    base: Arc<Snapshot>,
    fault: Option<FaultHook>,
    job_seq: u64,
    deadline: Duration,
) -> Result<Vec<u8>, (FailureKind, String)> {
    let (tx, rx) = mpsc::channel();
    let submitted = pool.try_execute(move || {
        let result = catch_unwind(AssertUnwindSafe(|| {
            mine_bytes(&stays, &base, fault.as_deref(), job_seq)
        }));
        let _ = tx.send(match result {
            Ok(Ok(bytes)) => Ok(bytes),
            Ok(Err(message)) => Err((FailureKind::Error, message)),
            Err(panic) => Err((FailureKind::Panic, panic_message(&panic))),
        });
    });
    if submitted.is_err() {
        return Err((
            FailureKind::Busy,
            "previous mining job still holds the worker".into(),
        ));
    }
    match rx.recv_timeout(deadline) {
        Ok(result) => result,
        Err(_) => Err((
            FailureKind::Timeout,
            format!("mining exceeded its {deadline:?} deadline"),
        )),
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".into()
    }
}

/// One mining pass over a corpus, producing every section an artifact
/// carries: the CSD, the fine-grained patterns, the daily motif table and
/// the cohort table. The CLI's `mine` and the background [`Reminer`] both
/// build their artifacts here.
///
/// `corpus` pairs each trajectory with its user id. After CSD construction,
/// Algorithm 3 and pattern extraction, one sweep recognizes each stay's
/// winning unit and primary category against the new CSD. That sweep feeds
/// both the motif table (one day graph per trajectory and absolute day) and
/// the cohort table (one embedding per user id, over all of that user's
/// trajectories in corpus order). Stays with no unit in range take part in
/// neither, and users left without stays are not embedded.
///
/// Besides the stage spans of construction, recognition and extraction,
/// the pass records `recognize.units`, `motifs.mine` and `cohorts.mine`
/// spans on `obs`. Deterministic: the same inputs give the same artifact
/// bytes at any thread count and under any `obs` (the artifact stores
/// `params.threads` itself). The artifact carries no projection.
pub fn mine_artifact(
    pois: &[Poi],
    corpus: Vec<(String, SemanticTrajectory)>,
    params: &MinerParams,
    cohort: &CohortParams,
    obs: &Obs,
) -> Result<Artifact, MinerError> {
    let (users, trajectories): (Vec<String>, Vec<SemanticTrajectory>) = corpus.into_iter().unzip();
    let csd = CitySemanticDiagram::build_observed(
        pois,
        &stay_points_of(&trajectories),
        params,
        ConstructionOptions::default(),
        obs,
    )?;
    let mut events = Vec::new();
    let recognized = recognize_all_observed(&csd, trajectories, params, &mut events, obs)?;
    let patterns = extract_patterns_observed(&recognized, params, &mut events, obs)?;
    // Construction tallied its own degradations inside `build_observed`.
    record_degradations(obs, &events);

    let span = obs.span("recognize.units");
    let kernel = GaussianKernel::new(params.r3sigma);
    let unit_stays: Vec<Vec<UserStay>> = recognized
        .iter()
        .map(|traj| {
            traj.stays
                .iter()
                .filter_map(|sp| {
                    let (unit, _tags, category) = recognize_stay_point_unit(&csd, &kernel, sp.pos);
                    unit.map(|unit| UserStay {
                        unit: unit as u64,
                        category,
                        time: sp.time,
                    })
                })
                .collect()
        })
        .collect();
    span.finish();

    let span = obs.span("motifs.mine");
    let mut motifs = MotifAggregator::new();
    for stays in &unit_stays {
        let same_day =
            |a: &UserStay, b: &UserStay| a.time.div_euclid(DAY_SECS) == b.time.div_euclid(DAY_SECS);
        for day in stays.chunk_by(same_day) {
            let mut builder = DayGraphBuilder::new();
            for stay in day {
                builder.visit(stay.unit, stay.category);
            }
            motifs.record(&builder.finish());
        }
    }
    let motifs = motifs.table();
    span.finish();

    let span = obs.span("cohorts.mine");
    let mut groups: BTreeMap<String, Vec<UserStay>> = BTreeMap::new();
    for (user, stays) in users.into_iter().zip(unit_stays) {
        groups.entry(user).or_default().extend(stays);
    }
    groups.retain(|_, stays| !stays.is_empty());
    let groups: Vec<(String, Vec<UserStay>)> = groups.into_iter().collect();
    let cohorts = CohortTable::mine(embed_users(&groups, cohort.threads), cohort);
    span.finish();

    Ok(Artifact::new(csd, patterns, *params)
        .with_motifs(motifs)
        .with_cohorts(cohorts))
}

/// The re-mining job: accumulated stays → one trajectory per live user →
/// [`mine_artifact`] → artifact bytes.
///
/// The base snapshot provides the POI database, parameters, and projection;
/// only the stay corpus (and therefore popularity, units, patterns, motifs
/// and cohorts) is refreshed. Cohorts use an automatic `k` and keep the
/// base cohort table's anonymity floor and seed (the defaults when the base
/// has none), so a re-mine never lowers `k_min`. Deterministic: the same
/// stays against the same base always produce the same bytes.
fn mine_bytes(
    stays: &[(String, StayPoint)],
    base: &Snapshot,
    fault: Option<&(dyn Fn(u64) -> Option<InjectedFault> + Send + Sync)>,
    job_seq: u64,
) -> Result<Vec<u8>, String> {
    let mut corrupt = false;
    if let Some(injected) = fault.and_then(|hook| hook(job_seq)) {
        match injected {
            InjectedFault::Panic => panic!("injected panic (job {job_seq})"),
            InjectedFault::Error => return Err(format!("injected error (job {job_seq})")),
            InjectedFault::Hang(duration) => std::thread::sleep(duration),
            InjectedFault::CorruptArtifact => corrupt = true,
        }
    }

    // Group per user, deterministically; each user's stays are already in
    // emission order, but a stable time sort makes no assumptions.
    let mut by_user: BTreeMap<&str, Vec<StayPoint>> = BTreeMap::new();
    for (user, stay) in stays {
        by_user.entry(user).or_default().push(*stay);
    }
    let corpus: Vec<(String, SemanticTrajectory)> = by_user
        .into_iter()
        .map(|(user, mut stays)| {
            stays.sort_by_key(|s| s.time);
            (user.to_string(), SemanticTrajectory::new(stays))
        })
        .collect();

    let base = base.artifact();
    // The background job shares the box with the serving path; keep it on
    // one core. Results are bit-identical at every thread count.
    let params = MinerParams {
        threads: 1,
        ..base.params
    };
    let mut cohort = CohortParams {
        threads: 1,
        ..CohortParams::default()
    };
    if let Some(table) = &base.cohorts {
        cohort.k_min = table.k_min;
        cohort.seed = table.seed;
    }
    let mut artifact = mine_artifact(base.csd.pois(), corpus, &params, &cohort, &Obs::noop())
        .map_err(|e| e.to_string())?;
    artifact.projection = base.projection;
    let mut bytes = artifact.to_bytes();
    if corrupt {
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_json_renders_both_shapes() {
        let empty = MinerStatus {
            circuit: "closed".into(),
            ..MinerStatus::default()
        };
        let body = empty.to_json();
        assert!(body.contains("\"generation\":null"), "{body}");
        assert!(body.contains("\"last_error\":null"), "{body}");
        assert!(body.contains("\"circuit\":\"closed\""), "{body}");

        let busy = MinerStatus {
            circuit: "open".into(),
            jobs_started: 7,
            jobs_succeeded: 2,
            failures: [1, 0, 2, 1, 0],
            consecutive_failures: 4,
            circuit_opens: 1,
            published: 2,
            generation: Some(9),
            last_error: Some("timeout: slow \"quoted\"".into()),
            next_delay_ms: 1500,
            ..MinerStatus::default()
        };
        let body = busy.to_json();
        assert!(body.contains("\"total\":4"), "{body}");
        assert!(body.contains("\"generation\":9"), "{body}");
        assert!(body.contains("\\\"quoted\\\""), "{body}");
        crate::json::parse(&body).expect("valid JSON");
    }

    #[test]
    fn failure_kinds_map_to_distinct_labels_and_slots() {
        let kinds = [
            FailureKind::Panic,
            FailureKind::Error,
            FailureKind::Timeout,
            FailureKind::Publish,
            FailureKind::Busy,
        ];
        let mut seen = std::collections::BTreeSet::new();
        for (i, kind) in kinds.into_iter().enumerate() {
            assert_eq!(failure_index(kind), i);
            assert!(seen.insert(kind.label()));
        }
    }
}
