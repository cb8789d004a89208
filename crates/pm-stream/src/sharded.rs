//! User-keyed sharding over [`IngestEngine`]: N independent shards, one
//! logical engine.
//!
//! A single `IngestEngine` serializes every user through one map and one
//! lock. [`ShardedEngine`] hashes each user id (FNV-1a, stable across
//! processes) into one of N shards, each with its own engine, transition
//! window, WAL segment stream, and — via
//! [`pm_runtime::ShardPool`] — its own worker thread. Per-user state never
//! crosses a shard boundary, so shards need no coordination beyond a shared
//! notion of time.
//!
//! # The sealed clock: why shards=1 and shards=N are byte-equivalent
//!
//! Lateness and TTL verdicts in an `IngestEngine` depend on the global
//! event clock, which a partitioned engine cannot reproduce record by
//! record. The fix is to make the clock explicit: each logical batch is
//! **sealed** at `max(previous global clock, max event time in the batch)`
//! under a sequencer lock, and every shard ingests its sub-batch via
//! [`IngestEngine::ingest_batch_sealed`] — clocks advance to the seal
//! *before* any record is processed. A verdict then depends only on the
//! user's own subsequence and the seal, never on which other records share
//! the shard. (The seal can be computed over all records, admitted or not:
//! a quarantined record's time is bounded by an already-admitted one.)
//!
//! Shards untouched by a batch are not eagerly advanced — that would turn
//! one logical append into N WAL writes. Instead every read path first
//! settles the engine: drains the shard queues, then calls
//! [`IngestEngine::advance_to`] on each shard with the sealed global clock.
//! Exact TTL eviction is memoryless (the evicted set is always
//! `{last_seen < clock - ttl}`), so lazy catch-up produces the same state
//! eager advancement would have — **provided `user_ttl_secs >=
//! window_secs`**, which [`ShardConfig::validate`] enforces for N > 1: it
//! guarantees an eviction-flushed stay is always older than the window, so
//! its transitions land in `late_dropped` no matter *when* the flush runs.
//!
//! Draining costs a round trip through every shard thread only while a
//! shard job is in flight. Jobs are counted as they are submitted under the
//! sequencer and uncounted once their engine lock is released; a read holds
//! the sequencer, so a zero count means every submitted job's mutations are
//! already behind the engine mutexes and there is nothing to wait for.
//!
//! # What merges, and what is per-shard
//!
//! Reads merge deterministically: per-`(from, to)` window counts, user
//! counts, lifetime tallies, and stay buffers (by shard index, oldest
//! first) are sums over the user partition, and every shard reports the
//! same sealed `as_of`. Two budgets are split, not shared: each shard gets
//! `ceil(max_users / N)` users and `ceil(max_stay_buffer / N)` buffered
//! stays, so *capacity* eviction and stay-buffer shedding trigger at
//! per-shard boundaries. Workloads that lean on those bounds are
//! shard-count sensitive by design; the byte-parity suite steers clear of
//! both.
//!
//! # WAL fan-out
//!
//! With a WAL configured, the root directory holds a `shards.meta` stamp
//! and one sub-log per shard (`shard-000/seg-*.wal`, ...). A batch's
//! sub-batches are appended (with the shared seal) to their shards' logs
//! *before* the engines see them, under the sequencer so log order equals
//! seal order. Opening with a different shard count than the directory was
//! written with is a loud error — records would silently land on the wrong
//! shard's state otherwise — as is a legacy unsharded layout.

use crate::engine::{BatchOutcome, EngineConfig, EngineStats, IngestEngine, IngestRecord};
use crate::error::StreamError;
use crate::motif::{rank_cells, MotifCell, MOTIF_WINDOW_DAYS};
use crate::wal::{RecoveryReport, Wal, WalConfig};
use pm_core::types::{Category, StayPoint, Timestamp};
use pm_geo::LocalPoint;
use pm_motif::MotifTable;
use pm_runtime::ShardPool;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Shared recognizer closure: maps a stay position onto its primary
/// category. `Arc`'d so shard workers can hold it across threads.
pub type Recognizer = Arc<dyn Fn(LocalPoint) -> Option<Category> + Send + Sync>;

/// FNV-1a over the user id: stable across processes, platforms, and runs —
/// shard placement is part of the on-disk contract.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The shard a user id lands on.
pub fn shard_of(user: &str, shards: usize) -> usize {
    debug_assert!(shards >= 1);
    (fnv1a64(user.as_bytes()) % shards as u64) as usize
}

/// Shape of a sharded engine. `engine` carries the *system-wide* budgets;
/// per-shard budgets are derived (`ceil(budget / shards)`).
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of user-keyed shards (>= 1).
    pub shards: usize,
    /// Detector/window shape and system-wide memory budgets.
    pub engine: EngineConfig,
    /// WAL root directory config; each shard logs into a sub-directory.
    pub wal: Option<WalConfig>,
}

impl ShardConfig {
    /// A WAL-less config with `shards` shards.
    pub fn new(shards: usize, engine: EngineConfig) -> ShardConfig {
        ShardConfig {
            shards,
            engine,
            wal: None,
        }
    }

    /// Adds a write-ahead log rooted at `wal.dir`.
    pub fn with_wal(mut self, wal: WalConfig) -> ShardConfig {
        self.wal = Some(wal);
        self
    }

    /// Rejects shapes that cannot run or cannot stay shard-count
    /// deterministic.
    pub fn validate(&self) -> Result<(), StreamError> {
        if self.shards == 0 {
            return Err(StreamError::config("shards must be at least 1"));
        }
        self.engine.validate()?;
        if let Some(wal) = &self.wal {
            wal.validate()?;
        }
        if self.shards > 1 && self.engine.user_ttl_secs < self.engine.window.window_secs {
            // Lazy shard catch-up is only equivalent to eager advancement
            // when an eviction-flushed stay is guaranteed late (see the
            // module docs); that needs ttl >= window.
            return Err(StreamError::config(format!(
                "user_ttl_secs ({}) must be at least window_secs ({}) when sharding",
                self.engine.user_ttl_secs, self.engine.window.window_secs
            )));
        }
        Ok(())
    }

    /// The per-shard engine config: shared shape, split budgets.
    fn shard_engine_config(&self) -> EngineConfig {
        let split = |budget: usize| {
            if budget == 0 {
                0
            } else {
                budget.div_ceil(self.shards)
            }
        };
        EngineConfig {
            max_users: split(self.engine.max_users),
            max_stay_buffer: split(self.engine.max_stay_buffer),
            ..self.engine
        }
    }

    /// The WAL config of one shard's sub-log.
    fn shard_wal_config(&self, shard: usize) -> Option<WalConfig> {
        self.wal.as_ref().map(|root| WalConfig {
            dir: root.dir.join(format!("shard-{shard:03}")),
            ..root.clone()
        })
    }
}

/// Aggregate of what [`ShardedEngine::open`] recovered across all shards.
#[derive(Debug, Default, Clone, Copy)]
pub struct ShardRecovery {
    /// Field-wise sum of every shard's [`RecoveryReport`].
    pub report: RecoveryReport,
    /// Shards whose engine state was restored from a checkpoint.
    pub checkpoints_restored: u64,
}

/// What one logical batch did to the write-ahead logs, counted logically
/// (one ingested batch is one unit, however many shard logs it touched) so
/// `wal.*` observability counters read identically at any shard count.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WalTick {
    /// 1 when the batch was fully logged (0 for WAL-less engines).
    pub appended_batches: u64,
    /// Records covered by that logical append.
    pub appended_records: u64,
    /// 1 when any shard's append rolled a full segment.
    pub segments_rolled: u64,
    /// 1 when any shard's append failed (the batch still reaches the
    /// engines; losing durability must not lose live traffic).
    pub append_errors: u64,
}

/// A merged, read-consistent view of the live transition state — the
/// payload of `GET /v1/live/patterns`, shard-count independent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveView {
    /// The sealed global clock every shard was settled to.
    pub as_of: Option<Timestamp>,
    /// The window span, from config.
    pub window_secs: i64,
    /// Users currently tracked across all shards.
    pub users: usize,
    /// Lifetime stays emitted.
    pub stays: u64,
    /// Sum of in-window transition counts.
    pub total: u64,
    /// Lifetime transitions dropped as older than the window.
    pub late_dropped: u64,
    /// Merged `(from, to, count)` triples, sorted by category index.
    pub transitions: Vec<(Category, Category, u64)>,
}

/// A merged, read-consistent view of the live motif state — the payload
/// of `GET /v1/live/motifs`, shard-count independent. Only in-window
/// content is exposed: closure-time lateness verdicts can differ between
/// eager and lazily caught-up shards, but a day they disagree on has
/// always aged out of the eager ring by the time any settled read runs,
/// so the merged table is identical either way.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveMotifs {
    /// The sealed global clock every shard was settled to.
    pub as_of: Option<Timestamp>,
    /// The window span in day buckets.
    pub window_days: usize,
    /// Lifetime user-days closed into the motif path.
    pub days_closed: u64,
    /// Lifetime closed days that exceeded the motif node cap.
    pub days_oversize: u64,
    /// The ranked in-window motif classes.
    pub table: MotifTable,
}

struct Shard {
    engine: Mutex<IngestEngine>,
    wal: Option<Mutex<Wal>>,
}

/// N user-keyed [`IngestEngine`] shards behind one logical front door. See
/// the module docs for the determinism contract.
pub struct ShardedEngine {
    config: ShardConfig,
    shards: Arc<Vec<Shard>>,
    /// One worker per shard; `None` for a single shard (inline execution —
    /// same bytes, no channel hop).
    pool: Option<ShardPool>,
    /// The sequencer: holds the sealed global clock. Held across seal
    /// computation, WAL appends, and job submission so per-shard queue
    /// order equals seal order; released before waiting on results so
    /// batches pipeline across shards.
    clock: Mutex<Option<Timestamp>>,
    /// Shard jobs submitted and not yet finished: raised under the
    /// sequencer before each submission, lowered by [`InFlight`]'s drop
    /// once the job has released its engine lock.
    in_flight: Arc<AtomicUsize>,
}

/// Lowers the in-flight count when a shard job ends, returning or
/// panicking alike.
struct InFlight(Arc<AtomicUsize>);

impl Drop for InFlight {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

impl ShardedEngine {
    /// Opens a sharded engine: validates the config, recovers every
    /// shard's WAL (checkpoint + sealed replay), and settles all shards to
    /// the recovered global clock. `recognize` is needed because replay and
    /// the catch-up sweep settle stays exactly like live ingestion.
    pub fn open(
        config: ShardConfig,
        recognize: &Recognizer,
    ) -> Result<(ShardedEngine, ShardRecovery), StreamError> {
        config.validate()?;
        if let Some(root) = &config.wal {
            prepare_wal_root(&root.dir, config.shards)?;
        }
        let per_shard = config.shard_engine_config();
        let mut recovery = ShardRecovery::default();
        let mut shards = Vec::with_capacity(config.shards);
        for i in 0..config.shards {
            let (engine, wal) = match config.shard_wal_config(i) {
                Some(sub) => {
                    let (wal, rec) = Wal::open(sub)?;
                    absorb_report(&mut recovery.report, &rec.report);
                    let mut engine = match &rec.checkpoint {
                        Some(state) => {
                            recovery.checkpoints_restored += 1;
                            IngestEngine::from_state_bytes(state)?
                        }
                        None => IngestEngine::new(per_shard)?,
                    };
                    for batch in &rec.batches {
                        engine.ingest_batch_sealed(&batch.records, batch.seal, |p| recognize(p));
                    }
                    (engine, Some(Mutex::new(wal)))
                }
                None => (IngestEngine::new(per_shard)?, None),
            };
            shards.push(Shard {
                engine: Mutex::new(engine),
                wal,
            });
        }
        // Settle every shard to the recovered global clock: a shard whose
        // log was short still owes the evictions the others' clock implies.
        let global = shards.iter().filter_map(|s| lock(&s.engine).clock()).max();
        if let Some(g) = global {
            for shard in &shards {
                lock(&shard.engine).advance_to(g, |p| recognize(p));
            }
        }
        let pool = (config.shards > 1).then(|| ShardPool::new(config.shards));
        Ok((
            ShardedEngine {
                shards: Arc::new(shards),
                pool,
                clock: Mutex::new(global),
                in_flight: Arc::new(AtomicUsize::new(0)),
                config,
            },
            recovery,
        ))
    }

    /// The shard count.
    pub fn shards(&self) -> usize {
        self.config.shards
    }

    /// The shape this engine runs with.
    pub fn config(&self) -> &ShardConfig {
        &self.config
    }

    /// The sealed global clock.
    pub fn clock(&self) -> Option<Timestamp> {
        *lock(&self.clock)
    }

    /// Ingests one logical batch: seals the clock, logs each shard's
    /// sub-batch (WAL before engine), fans the sub-batches out to the
    /// shard workers, and waits for — and merges — their outcomes.
    ///
    /// The merged outcome covers the shards this batch *touched*; untouched
    /// shards owe their TTL sweep to the next settled read, whose outcome
    /// the caller must also account (see [`ShardedEngine::live_view`]).
    pub fn ingest_batch(
        &self,
        records: Vec<(String, IngestRecord)>,
        recognize: &Recognizer,
    ) -> (BatchOutcome, WalTick) {
        let mut tick = WalTick::default();
        let mut outcome = BatchOutcome::default();
        let mut pending = Vec::new();
        {
            let mut clock = lock(&self.clock);
            let seal = {
                let batch_max = records
                    .iter()
                    .map(|(_, r)| match r {
                        IngestRecord::Fix(p) | IngestRecord::Stay(p) => p.time,
                    })
                    .max();
                match (*clock, batch_max) {
                    (Some(c), Some(m)) => Some(c.max(m)),
                    (c, m) => c.or(m),
                }
            };
            *clock = seal;
            let Some(seal) = seal else {
                return (outcome, tick); // empty batch on an empty engine
            };
            if records.is_empty() {
                return (outcome, tick);
            }
            // Partition, preserving order within each shard.
            let mut parts: Vec<Vec<(String, IngestRecord)>> =
                (0..self.config.shards).map(|_| Vec::new()).collect();
            for (user, record) in records {
                let s = shard_of(&user, self.config.shards);
                parts[s].push((user, record));
            }
            // WAL first: one logical append, fanned to the touched shards.
            if self.config.wal.is_some() {
                let mut failed = false;
                let mut rolled = false;
                let mut n_records = 0u64;
                for (i, part) in parts.iter().enumerate() {
                    if part.is_empty() {
                        continue;
                    }
                    let Some(wal) = &self.shards[i].wal else {
                        continue;
                    };
                    match wal.lock().expect("wal lock").append_batch(seal, part) {
                        Ok(info) => rolled |= info.rolled,
                        Err(_) => failed = true,
                    }
                    n_records += part.len() as u64;
                }
                if failed {
                    tick.append_errors = 1;
                } else {
                    tick.appended_batches = 1;
                    tick.appended_records = n_records;
                    tick.segments_rolled = u64::from(rolled);
                }
            }
            // Engines second, submitted under the sequencer so shard queues
            // stay in seal order.
            for (i, part) in parts.into_iter().enumerate() {
                if part.is_empty() {
                    continue;
                }
                match &self.pool {
                    Some(pool) => {
                        let shards = Arc::clone(&self.shards);
                        let rec = Arc::clone(recognize);
                        self.in_flight.fetch_add(1, Ordering::Relaxed);
                        let done = InFlight(Arc::clone(&self.in_flight));
                        pending.push(pool.run(i, move || {
                            let outcome =
                                lock(&shards[i].engine)
                                    .ingest_batch_sealed(&part, seal, |p| rec(p));
                            drop(done); // after the engine guard, even on unwind
                            outcome
                        }));
                    }
                    None => {
                        outcome.absorb(&lock(&self.shards[i].engine).ingest_batch_sealed(
                            &part,
                            seal,
                            |p| recognize(p),
                        ));
                    }
                }
            }
        } // sequencer released: the next batch can seal while we wait
        for rx in pending {
            outcome.absorb(&rx.recv().expect("shard ingest job completed"));
        }
        (outcome, tick)
    }

    /// Waits until every submitted shard job has finished. The caller holds
    /// the sequencer (`_sequencer`), so nothing can enqueue meanwhile; with
    /// no job in flight there is nothing to wait for, and the engine
    /// mutexes already order every finished job's writes before our reads.
    fn drain(&self, _sequencer: &MutexGuard<'_, Option<Timestamp>>) {
        let Some(pool) = &self.pool else {
            return;
        };
        if self.in_flight.load(Ordering::Acquire) == 0 {
            return;
        }
        // One no-op per shard queue: each runs after that shard's jobs.
        let barriers: Vec<_> = (0..self.config.shards)
            .map(|i| pool.run(i, || ()))
            .collect();
        for rx in barriers {
            rx.recv().expect("barrier job");
        }
    }

    /// Settles the engine (freeze the clock, drain the shard queues, catch
    /// every shard up) and runs `f` over the per-shard engine guards. The
    /// returned outcome carries whatever the catch-up sweep evicted; the
    /// caller owns folding it into observability counters.
    fn with_settled<T>(
        &self,
        recognize: &Recognizer,
        f: impl FnOnce(&mut [MutexGuard<'_, IngestEngine>]) -> T,
    ) -> (T, BatchOutcome) {
        let clock = lock(&self.clock);
        let global = *clock;
        self.drain(&clock);
        let mut outcome = BatchOutcome::default();
        let mut guards: Vec<MutexGuard<'_, IngestEngine>> =
            self.shards.iter().map(|s| lock(&s.engine)).collect();
        if let Some(g) = global {
            for guard in &mut guards {
                outcome.absorb(&guard.advance_to(g, |p| recognize(p)));
            }
        }
        (f(&mut guards), outcome)
    }

    /// The merged live transition view — byte-identical across shard
    /// counts for the same logical record stream.
    pub fn live_view(&self, recognize: &Recognizer) -> (LiveView, BatchOutcome) {
        self.with_settled(recognize, |guards| {
            let mut totals = vec![0u64; Category::COUNT * Category::COUNT];
            let mut users = 0usize;
            let mut stays = 0u64;
            let mut late_dropped = 0u64;
            let mut as_of = None;
            for g in guards.iter() {
                for (from, to, c) in g.window().counts() {
                    totals[(from as usize) * Category::COUNT + to as usize] += c;
                }
                users += g.users_len();
                stays += g.stats().stays;
                late_dropped += g.window().late_dropped();
                as_of = as_of.max(g.window().as_of());
            }
            let mut transitions = Vec::new();
            for from in 0..Category::COUNT {
                for to in 0..Category::COUNT {
                    let c = totals[from * Category::COUNT + to];
                    if c > 0 {
                        transitions.push((Category::from_index(from), Category::from_index(to), c));
                    }
                }
            }
            LiveView {
                as_of,
                window_secs: self.config.engine.window.window_secs,
                users,
                stays,
                total: transitions.iter().map(|(_, _, c)| c).sum(),
                late_dropped,
                transitions,
            }
        })
    }

    /// The merged live motif view — byte-identical across shard counts
    /// for the same logical record stream.
    pub fn live_motifs(&self, recognize: &Recognizer) -> (LiveMotifs, BatchOutcome) {
        self.with_settled(recognize, |guards| {
            let mut cells: BTreeMap<u64, MotifCell> = BTreeMap::new();
            let mut oversize = 0u64;
            let mut as_of = None;
            let mut days_closed = 0u64;
            let mut days_oversize = 0u64;
            for g in guards.iter() {
                let (shard_cells, shard_oversize) = g.motifs().in_window();
                for (form, cell) in &shard_cells {
                    cells.entry(*form).or_default().absorb(cell);
                }
                oversize += shard_oversize;
                as_of = as_of.max(g.motifs().as_of());
                days_closed += g.stats().motif_days_closed;
                days_oversize += g.stats().motif_days_oversize;
            }
            LiveMotifs {
                as_of,
                window_days: MOTIF_WINDOW_DAYS,
                days_closed,
                days_oversize,
                table: rank_cells(cells, oversize),
            }
        })
    }

    /// `(tracked users, buffered detector fixes)` across all shards, after
    /// settling — so gauge reads agree with what a single engine would
    /// report at the same clock.
    pub fn gauges(&self, recognize: &Recognizer) -> ((usize, usize), BatchOutcome) {
        self.with_settled(recognize, |guards| {
            let users = guards.iter().map(|g| g.users_len()).sum();
            let buffered = guards.iter().map(|g| g.buffered_fixes()).sum();
            (users, buffered)
        })
    }

    /// Lifetime tallies summed across shards (no settle: tallies are only
    /// moved by batches and settled reads, both of which already account).
    pub fn stats(&self) -> EngineStats {
        let mut out = EngineStats::default();
        for shard in self.shards.iter() {
            let s = lock(&shard.engine).stats();
            out.accepted += s.accepted;
            out.quarantined += s.quarantined;
            out.dropped_non_finite += s.dropped_non_finite;
            out.stays += s.stays;
            out.transitions += s.transitions;
            out.late_transitions += s.late_transitions;
            out.evicted += s.evicted;
            out.stays_shed += s.stays_shed;
            out.motif_days_closed += s.motif_days_closed;
            out.motif_days_oversize += s.motif_days_oversize;
        }
        out
    }

    /// The accumulated `(user, stay)` pairs for re-mining: shard 0's
    /// buffer oldest-first, then shard 1's, and so on. Deterministic for a
    /// given shard count (the merge order is the shard order), settled
    /// first so every flush the clock implies has landed.
    pub fn stays_snapshot(
        &self,
        recognize: &Recognizer,
    ) -> (Vec<(String, StayPoint)>, BatchOutcome) {
        self.with_settled(recognize, |guards| {
            let mut out = Vec::new();
            for g in guards.iter() {
                out.extend(g.stays_snapshot());
            }
            out
        })
    }

    /// Whether any shard's WAL has accumulated enough records since its
    /// last checkpoint that the owner should cut one.
    pub fn should_checkpoint(&self) -> bool {
        self.shards.iter().any(|s| {
            s.wal
                .as_ref()
                .is_some_and(|w| w.lock().expect("wal lock").should_checkpoint())
        })
    }

    /// Checkpoints every shard: drains the queues under the sequencer,
    /// then writes each shard's engine state into its own log. One logical
    /// checkpoint, N durable files. No-op without a WAL.
    pub fn checkpoint_all(&self) -> Result<(), StreamError> {
        let clock = lock(&self.clock);
        self.drain(&clock);
        for shard in self.shards.iter() {
            let Some(wal) = &shard.wal else {
                continue;
            };
            let state = lock(&shard.engine).state_bytes();
            wal.lock().expect("wal lock").checkpoint(&state)?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("shards", &self.config.shards)
            .field("wal", &self.config.wal.is_some())
            .finish_non_exhaustive()
    }
}

/// Locks the sequencer or a shard's engine. A batch that panicked
/// mid-ingest poisons the engine mutex, and at one shard (inline, under
/// the sequencer) the clock mutex too. Both stay usable: the clock was
/// sealed before any engine work began, and reads keep serving the state
/// the batch left rather than failing forever.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn absorb_report(into: &mut RecoveryReport, from: &RecoveryReport) {
    into.segments_scanned += from.segments_scanned;
    into.replayed_batches += from.replayed_batches;
    into.replayed_records += from.replayed_records;
    into.torn_frames += from.torn_frames;
    into.corrupt_frames += from.corrupt_frames;
    into.corrupt_checkpoints += from.corrupt_checkpoints;
}

/// Name of the shard-count stamp inside a WAL root directory.
const SHARDS_META: &str = "shards.meta";

/// Creates/validates the WAL root: writes the `shards.meta` stamp on first
/// use, verifies it on reopen, and refuses legacy flat layouts.
fn prepare_wal_root(dir: &std::path::Path, shards: usize) -> Result<(), StreamError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| StreamError::io(format!("create {}: {e}", dir.display())))?;
    // A flat seg-/ckpt- file at the root is a pre-sharding layout; its
    // records were placed by no hash and cannot be fanned out safely.
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if (name.starts_with("seg-") && name.ends_with(".wal"))
                || (name.starts_with("ckpt-") && name.ends_with(".walck"))
            {
                return Err(StreamError::config(format!(
                    "WAL dir {} uses the legacy unsharded layout ({name} at the root); \
                     recover it with the release that wrote it, then start a fresh dir",
                    dir.display()
                )));
            }
        }
    }
    let meta_path = dir.join(SHARDS_META);
    match std::fs::read_to_string(&meta_path) {
        Ok(text) => {
            let recorded: Option<usize> = text
                .strip_prefix("pm-shards/1 ")
                .and_then(|rest| rest.trim().parse().ok());
            match recorded {
                Some(n) if n == shards => Ok(()),
                Some(n) => Err(StreamError::config(format!(
                    "WAL dir {} was written with {n} shards, refusing to open with {shards}; \
                     user placement would change and records would replay onto the wrong shards",
                    dir.display()
                ))),
                None => Err(StreamError::corrupt(format!(
                    "unparseable {} in {}",
                    SHARDS_META,
                    dir.display()
                ))),
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            std::fs::write(&meta_path, format!("pm-shards/1 {shards}\n"))
                .map_err(|e| StreamError::io(format!("write {}: {e}", meta_path.display())))?;
            Ok(())
        }
        Err(e) => Err(StreamError::io(format!(
            "read {}: {e}",
            meta_path.display()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::StreamParams;
    use crate::window::WindowConfig;
    use pm_core::types::GpsPoint;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_ID: AtomicU64 = AtomicU64::new(0);

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pm-sharded-{tag}-{}-{}",
            std::process::id(),
            DIR_ID.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn engine_config() -> EngineConfig {
        EngineConfig {
            detector: StreamParams {
                theta_d: 100.0,
                theta_t: 300,
                max_pending: 64,
            },
            window: WindowConfig {
                window_secs: 86_400,
                bucket_secs: 3_600,
            },
            max_users: 1_000,
            user_ttl_secs: 86_400,
            max_stay_buffer: 10_000,
        }
    }

    fn recognizer() -> Recognizer {
        Arc::new(|pos: LocalPoint| {
            if pos.x < 5_000.0 {
                Some(Category::Residence)
            } else {
                Some(Category::Business)
            }
        })
    }

    fn stay(user: &str, x: f64, t: i64) -> (String, IngestRecord) {
        (
            user.to_string(),
            IngestRecord::Stay(GpsPoint::new(LocalPoint::new(x, 0.0), t)),
        )
    }

    /// A deterministic interleaved stream: many users, alternating
    /// categories, occasional duplicates (quarantine food).
    fn stream(users: usize, steps: usize) -> Vec<Vec<(String, IngestRecord)>> {
        let mut batches = Vec::new();
        let mut t = 1_000i64;
        for step in 0..steps {
            let mut batch = Vec::new();
            for u in 0..users {
                t += 60;
                let x = if (step + u) % 2 == 0 { 0.0 } else { 9_000.0 };
                batch.push(stay(&format!("user-{u}"), x, t));
                if (step + u) % 5 == 0 {
                    batch.push(stay(&format!("user-{u}"), x, t)); // duplicate
                }
            }
            batches.push(batch);
        }
        batches
    }

    fn run(shards: usize, batches: &[Vec<(String, IngestRecord)>]) -> (LiveView, EngineStats) {
        let recog = recognizer();
        let (engine, _) =
            ShardedEngine::open(ShardConfig::new(shards, engine_config()), &recog).expect("open");
        for batch in batches {
            engine.ingest_batch(batch.clone(), &recog);
        }
        let (view, _) = engine.live_view(&recog);
        (view, engine.stats())
    }

    #[test]
    fn placement_is_stable_and_in_range() {
        for shards in [1, 2, 8, 13] {
            for u in 0..100 {
                let user = format!("user-{u}");
                let s = shard_of(&user, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(&user, shards), "stable per user");
            }
        }
        // FNV-1a reference value ("a" -> 0xaf63dc4c8601ec8c).
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn merged_view_is_shard_count_independent() {
        let batches = stream(23, 8);
        let (one, stats_one) = run(1, &batches);
        for shards in [2, 3, 8] {
            let (many, stats_many) = run(shards, &batches);
            assert_eq!(one, many, "live view @ {shards} shards");
            assert_eq!(stats_one, stats_many, "stats @ {shards} shards");
        }
    }

    #[test]
    fn merged_motifs_are_shard_count_independent() {
        // Multi-day per-user streams: every user's day 0 and day 1 close
        // (a later day begins), day 2 stays pending and must not leak into
        // any view. The merged LiveMotifs must not depend on the layout.
        let mut batches = Vec::new();
        for day in 0..3i64 {
            let mut batch = Vec::new();
            for u in 0..17 {
                let base = day * 86_400 + 1_000 + u;
                batch.push(stay(&format!("user-{u}"), 0.0, base));
                if (day + u) % 2 == 0 {
                    batch.push(stay(&format!("user-{u}"), 9_000.0, base + 30_000));
                    batch.push(stay(&format!("user-{u}"), 0.0, base + 60_000));
                }
            }
            batches.push(batch);
        }
        let view = |shards: usize| {
            let recog = recognizer();
            let (engine, _) =
                ShardedEngine::open(ShardConfig::new(shards, engine_config()), &recog)
                    .expect("open");
            for batch in &batches {
                engine.ingest_batch(batch.clone(), &recog);
            }
            let (motifs, _) = engine.live_motifs(&recog);
            (motifs, engine.stats())
        };
        let (one, stats_one) = view(1);
        assert_eq!(one.days_closed, 2 * 17, "two closed days per user");
        assert_eq!(one.table.total_days, 2 * 17);
        assert_eq!(one.table.classes.len(), 2, "loop days and stay-home days");
        for shards in [2, 8] {
            let (many, stats_many) = view(shards);
            assert_eq!(one, many, "live motifs @ {shards} shards");
            assert_eq!(stats_one, stats_many, "stats @ {shards} shards");
        }
    }

    #[test]
    fn ttl_eviction_reconciles_across_shard_counts() {
        // A burst of users, then a single-user batch far past the TTL: in
        // the sharded run only that user's shard sees the batch, so every
        // other shard owes its sweep to the settled read.
        let cfg = engine_config();
        let mut batches = stream(16, 2);
        let last_t = 1_000 + (2 * 16 + 16) * 60 + cfg.user_ttl_secs + 10_000;
        batches.push(vec![stay("late-riser", 0.0, last_t)]);
        let (one, stats_one) = run(1, &batches);
        let (many, stats_many) = run(4, &batches);
        assert_eq!(one.users, 1, "only the late riser survives");
        assert_eq!(one, many);
        assert_eq!(stats_one.evicted, stats_many.evicted);
        assert_eq!(stats_one, stats_many);
    }

    #[test]
    fn wal_recovery_restores_the_merged_state() {
        let dir = scratch("recover");
        let recog = recognizer();
        let batches = stream(12, 5);
        let config = || ShardConfig::new(4, engine_config()).with_wal(WalConfig::new(&dir));
        let reference = {
            let (engine, _) = ShardedEngine::open(ShardConfig::new(4, engine_config()), &recog)
                .expect("open ref");
            for batch in &batches {
                engine.ingest_batch(batch.clone(), &recog);
            }
            engine.live_view(&recog).0
        };
        {
            let (engine, rec) = ShardedEngine::open(config(), &recog).expect("open");
            assert_eq!(rec.report.replayed_batches, 0);
            for (i, batch) in batches.iter().enumerate() {
                engine.ingest_batch(batch.clone(), &recog);
                if i == 2 {
                    engine.checkpoint_all().expect("checkpoint");
                }
            }
        } // kill: drop without checkpointing the tail
        let (engine, rec) = ShardedEngine::open(config(), &recog).expect("reopen");
        assert_eq!(rec.checkpoints_restored, 4, "every shard had a checkpoint");
        assert!(rec.report.replayed_batches > 0, "the tail replays");
        assert_eq!(engine.live_view(&recog).0, reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `threads` disjoint user groups, one stay per user per round; rounds
    /// sit eight hours apart, so no record is late, no user idles past the
    /// TTL, and days close — the end state does not depend on how the
    /// groups' batches of one round interleave.
    fn rounds(threads: usize, users: usize, rounds: i64) -> Vec<Vec<Vec<(String, IngestRecord)>>> {
        (0..threads)
            .map(|g| {
                (0..rounds)
                    .map(|r| {
                        (0..users)
                            .map(|u| {
                                let x = if (r as usize + u).is_multiple_of(2) {
                                    0.0
                                } else {
                                    9_000.0
                                };
                                stay(&format!("g{g}-u{u}"), x, 1_000 + r * 28_800 + u as i64)
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn reads_racing_ingest_settle_to_the_single_shard_reference() {
        let groups = rounds(2, 9, 9);
        let recog = recognizer();
        let (reference, _) =
            ShardedEngine::open(ShardConfig::new(1, engine_config()), &recog).expect("open");
        for r in 0..9 {
            for group in &groups {
                reference.ingest_batch(group[r].clone(), &recog);
            }
        }
        assert!(reference.live_motifs(&recog).0.days_closed > 0);
        assert!(reference.live_view(&recog).0.total > 0);
        for shards in [2, 8] {
            let (engine, _) =
                ShardedEngine::open(ShardConfig::new(shards, engine_config()), &recog)
                    .expect("open");
            let done = std::sync::atomic::AtomicBool::new(false);
            let turn = std::sync::Barrier::new(groups.len());
            std::thread::scope(|scope| {
                let readers: Vec<_> = (0..2)
                    .map(|_| {
                        let (engine, recog, done) = (&engine, &recog, &done);
                        scope.spawn(move || {
                            while !done.load(Ordering::Relaxed) {
                                engine.live_view(recog);
                                engine.live_motifs(recog);
                                engine.gauges(recog);
                            }
                        })
                    })
                    .collect();
                let writers: Vec<_> = groups
                    .iter()
                    .map(|group| {
                        let (engine, recog, turn) = (&engine, &recog, &turn);
                        scope.spawn(move || {
                            for batch in group {
                                turn.wait();
                                engine.ingest_batch(batch.clone(), recog);
                            }
                        })
                    })
                    .collect();
                let wrote = writers.into_iter().all(|w| w.join().is_ok());
                done.store(true, Ordering::Relaxed);
                for reader in readers {
                    reader.join().expect("reader");
                }
                assert!(wrote, "an ingest thread panicked");
            });
            assert_eq!(engine.in_flight.load(Ordering::Acquire), 0);
            assert_eq!(
                engine.live_view(&recog).0,
                reference.live_view(&recog).0,
                "@ {shards}"
            );
            assert_eq!(
                engine.live_motifs(&recog).0,
                reference.live_motifs(&recog).0,
                "@ {shards}"
            );
            assert_eq!(engine.stats(), reference.stats(), "@ {shards}");
        }
    }

    #[test]
    fn a_read_after_ingest_returns_sees_the_batch() {
        let recog = recognizer();
        for shards in [2, 8] {
            let (engine, _) =
                ShardedEngine::open(ShardConfig::new(shards, engine_config()), &recog)
                    .expect("open");
            let (tx, rx) = std::sync::mpsc::channel::<u64>();
            std::thread::scope(|scope| {
                let (engine, recog) = (&engine, &recog);
                scope.spawn(move || {
                    for (i, batch) in stream(13, 30).into_iter().enumerate() {
                        let accepted = engine.ingest_batch(batch, recog).0.accepted;
                        tx.send(accepted).expect("reader alive");
                        // Odd batches race the previous read; even ones
                        // wait for nothing at all.
                        if i % 2 == 0 {
                            std::thread::yield_now();
                        }
                    }
                });
                let mut seen = 0;
                for accepted in rx {
                    seen += accepted;
                    let (view, _) = engine.live_view(recog);
                    assert!(
                        view.stays >= seen,
                        "read missed a returned batch @ {shards}"
                    );
                }
            });
        }
    }

    #[test]
    fn a_read_sequenced_behind_a_queued_batch_waits_for_it() {
        let recog = recognizer();
        for shards in [2, 8] {
            let (engine, _) =
                ShardedEngine::open(ShardConfig::new(shards, engine_config()), &recog)
                    .expect("open");
            let user = (0..)
                .map(|i| format!("user-{i}"))
                .find(|u| shard_of(u, shards) == 1)
                .expect("some user lands on shard 1");
            // Hold shard 1's thread without its engine lock, so the batch
            // job queues behind it.
            let (release, held) = std::sync::mpsc::channel::<()>();
            let pool = engine.pool.as_ref().expect("pooled");
            let _blocker = pool.run(1, move || held.recv());
            std::thread::scope(|scope| {
                let (engine, recog) = (&engine, &recog);
                let writer =
                    scope.spawn(move || engine.ingest_batch(vec![stay(&user, 0.0, 5_000)], recog));
                while engine.in_flight.load(Ordering::Acquire) == 0 {
                    std::thread::yield_now();
                }
                let reader = scope.spawn(move || engine.live_view(recog).0.stays);
                std::thread::sleep(std::time::Duration::from_millis(20));
                release.send(()).expect("blocker alive");
                assert_eq!(reader.join().expect("reader"), 1, "@ {shards}");
                writer.join().expect("writer");
            });
        }
    }

    #[test]
    fn a_panicking_shard_job_leaves_nothing_in_flight() {
        let boom = LocalPoint::new(4_242.0, 0.0);
        let recog: Recognizer = Arc::new(move |pos: LocalPoint| {
            assert!(pos != boom, "recognizer failure");
            Some(Category::Residence)
        });
        for shards in [1, 2, 8] {
            let (engine, _) =
                ShardedEngine::open(ShardConfig::new(shards, engine_config()), &recog)
                    .expect("open");
            engine.ingest_batch(stream(6, 2).concat(), &recog);
            let bad = vec![stay("user-0", 4_242.0, 50_000), stay("user-1", 0.0, 50_000)];
            let ingest = std::panic::AssertUnwindSafe(|| engine.ingest_batch(bad, &recog));
            assert!(
                std::panic::catch_unwind(ingest).is_err(),
                "the batch must fail"
            );
            assert_eq!(engine.in_flight.load(Ordering::Acquire), 0, "@ {shards}");
            let (view, _) = engine.live_view(&recog);
            assert_eq!(view.as_of, Some(50_000));
            engine.live_motifs(&recog);
            engine.gauges(&recog);
            engine.ingest_batch(vec![stay("user-2", 0.0, 60_000)], &recog);
            assert_eq!(engine.live_view(&recog).0.as_of, Some(60_000));
        }
    }

    #[test]
    fn shard_count_mismatch_is_a_loud_error() {
        let dir = scratch("mismatch");
        let recog = recognizer();
        {
            let cfg = ShardConfig::new(4, engine_config()).with_wal(WalConfig::new(&dir));
            let _ = ShardedEngine::open(cfg, &recog).expect("open @4");
        }
        let cfg = ShardConfig::new(8, engine_config()).with_wal(WalConfig::new(&dir));
        let err = ShardedEngine::open(cfg, &recog).expect_err("must refuse");
        assert!(err.to_string().contains("4 shards"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_flat_layout_is_refused() {
        let dir = scratch("legacy");
        std::fs::create_dir_all(&dir).expect("dir");
        std::fs::write(dir.join("seg-00000001.wal"), b"PMWAL01\n").expect("seed");
        let recog = recognizer();
        let cfg = ShardConfig::new(2, engine_config()).with_wal(WalConfig::new(&dir));
        let err = ShardedEngine::open(cfg, &recog).expect_err("must refuse");
        assert!(err.to_string().contains("legacy"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharding_requires_ttl_to_cover_the_window() {
        let mut cfg = engine_config();
        cfg.user_ttl_secs = cfg.window.window_secs - 1;
        assert!(ShardConfig::new(2, cfg).validate().is_err());
        assert!(
            ShardConfig::new(1, cfg).validate().is_ok(),
            "1 shard is eager"
        );
    }

    #[test]
    fn budgets_split_per_shard() {
        let cfg = ShardConfig::new(3, engine_config());
        let per = cfg.shard_engine_config();
        assert_eq!(per.max_users, 334);
        assert_eq!(per.max_stay_buffer, 3_334);
    }
}
