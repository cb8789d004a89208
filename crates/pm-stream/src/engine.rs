//! The multi-user ingestion engine: per-user detectors, live recognition,
//! transition aggregation, and deterministic eviction.
//!
//! One [`IngestEngine`] owns a map of per-user [`StayPointDetector`]s plus
//! one shared [`TransitionWindow`]. Callers feed batches of records tagged
//! with a user id; the engine:
//!
//! 1. admits each record through the per-user ordering clock (stale
//!    timestamps are quarantined, mirroring pm-io's quarantine lane);
//! 2. routes GPS fixes through incremental detection, or accepts
//!    pre-detected stays directly (the taxi regime of §5, where pick-up and
//!    drop-off records *are* the stay points);
//! 3. recognizes every emitted stay through the caller-supplied closure —
//!    pm-serve passes the current snapshot's vote, so a hot-swapped
//!    artifact takes effect without touching detector state;
//! 4. records `previous primary → current primary` transitions per user
//!    into the sliding window (untagged stays are counted but neither emit
//!    nor reset a transition);
//! 5. evicts users idle longer than `user_ttl_secs` of *event time*, and
//!    the stalest users when `max_users` would be exceeded — flushing their
//!    detectors first so end-of-stream stays are not lost. Eviction order
//!    is deterministic: `(last_seen, user id)` ascending.
//!
//! The engine never consults a wall clock; replaying the same records gives
//! the same stays, window, and evictions.

use crate::detector::{DetectorStats, FixStatus, StayPointDetector, StreamParams};
use crate::error::StreamError;
use crate::motif::{MotifCell, MotifWindow, DAY_SECS, MOTIF_WINDOW_DAYS};
use crate::window::{TransitionWindow, WindowConfig};
use pm_core::params::MinerParams;
use pm_core::types::{Category, GpsPoint, StayPoint, Tags, Timestamp};
use pm_geo::LocalPoint;
use pm_motif::DayGraphBuilder;
use pm_store::bytes::{ByteReader, ByteWriter};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// Magic prefix of a serialized engine state blob (see
/// [`IngestEngine::state_bytes`]). `02` added the motif window and the
/// per-user pending day graphs; `01` blobs are refused, not migrated —
/// the WAL replays the stream that built them.
const STATE_MAGIC: &[u8; 8] = b"PMENG02\n";

fn corrupt(e: pm_store::StoreError) -> StreamError {
    StreamError::corrupt(e.to_string())
}

fn write_opt_i64(w: &mut ByteWriter, v: Option<i64>) {
    match v {
        Some(x) => {
            w.u8(1);
            w.i64(x);
        }
        None => w.u8(0),
    }
}

fn read_opt_i64(r: &mut ByteReader<'_>, context: &str) -> Result<Option<i64>, StreamError> {
    match r.u8(context).map_err(corrupt)? {
        0 => Ok(None),
        1 => Ok(Some(r.i64(context).map_err(corrupt)?)),
        flag => Err(StreamError::corrupt(format!(
            "{context}: option flag {flag} is neither 0 nor 1"
        ))),
    }
}

/// `Option<Category>` as one byte: the index, or 0xFF for `None`.
fn category_byte(c: Option<Category>) -> u8 {
    c.map_or(0xFF, |c| c as u8)
}

fn read_category(r: &mut ByteReader<'_>, context: &str) -> Result<Option<Category>, StreamError> {
    match r.u8(context).map_err(corrupt)? {
        0xFF => Ok(None),
        idx if (idx as usize) < Category::COUNT => Ok(Some(Category::from_index(idx as usize))),
        idx => Err(StreamError::corrupt(format!(
            "{context}: category index {idx} out of range"
        ))),
    }
}

fn tags_bits(tags: Tags) -> u16 {
    tags.iter().fold(0u16, |b, c| b | (1 << c as u8))
}

fn tags_from_bits(bits: u16) -> Result<Tags, StreamError> {
    if bits >> Category::COUNT != 0 {
        return Err(StreamError::corrupt(format!(
            "tag bits {bits:#06x} set categories past index {}",
            Category::COUNT - 1
        )));
    }
    Ok(Tags::from_iter(
        Category::ALL
            .iter()
            .copied()
            .filter(|c| bits & (1 << *c as u8) != 0),
    ))
}

/// Shape of one ingestion engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Per-user detection thresholds.
    pub detector: StreamParams,
    /// Transition-window shape.
    pub window: WindowConfig,
    /// Hard cap on concurrently tracked users.
    pub max_users: usize,
    /// Users idle this long (event time) are evicted after a batch.
    pub user_ttl_secs: Timestamp,
    /// Hard cap on stays accumulated for background re-mining; the oldest
    /// stay is shed (and counted) when a new one would exceed it. `0`
    /// disables accumulation entirely.
    pub max_stay_buffer: usize,
}

impl EngineConfig {
    /// An engine matching a mined artifact's thresholds.
    pub fn from_miner(params: &MinerParams) -> EngineConfig {
        EngineConfig {
            detector: StreamParams::from_miner(params),
            window: WindowConfig::default(),
            max_users: 100_000,
            user_ttl_secs: 7 * 24 * 3600,
            max_stay_buffer: 200_000,
        }
    }

    /// Rejects shapes that cannot run.
    pub fn validate(&self) -> Result<(), StreamError> {
        self.detector.validate()?;
        self.window.validate()?;
        if self.max_users == 0 {
            return Err(StreamError::config("max_users must be positive"));
        }
        if self.user_ttl_secs <= 0 {
            return Err(StreamError::config(format!(
                "user_ttl_secs {} must be positive",
                self.user_ttl_secs
            )));
        }
        Ok(())
    }
}

/// One ingested record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IngestRecord {
    /// A raw GPS fix, routed through incremental stay-point detection.
    Fix(GpsPoint),
    /// A pre-detected stay (position + time), bypassing detection — the
    /// journey-log regime where pick-ups/drop-offs are already stays.
    Stay(GpsPoint),
}

impl IngestRecord {
    fn point(&self) -> GpsPoint {
        match self {
            IngestRecord::Fix(p) | IngestRecord::Stay(p) => *p,
        }
    }
}

/// What one batch did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Records admitted (fixes into detection, stays into aggregation).
    pub accepted: u64,
    /// Records quarantined for out-of-order timestamps.
    pub quarantined: u64,
    /// Records dropped for non-finite coordinates.
    pub dropped_non_finite: u64,
    /// Stay points emitted (detected or direct).
    pub stays: u64,
    /// Transitions recorded into the window.
    pub transitions: u64,
    /// Transitions dropped for being older than the window.
    pub late_transitions: u64,
    /// Users evicted (capacity or TTL).
    pub evicted: u64,
    /// Accumulated stays shed by the `max_stay_buffer` bound.
    pub stays_shed: u64,
    /// Per-user day graphs closed (a later day began, or the user was
    /// evicted) and handed to the motif window.
    pub motif_days_closed: u64,
    /// Closed days that exceeded the motif node cap (bucketed, not
    /// classified).
    pub motif_days_oversize: u64,
}

impl BatchOutcome {
    /// Folds another outcome in (all fields are additive tallies); sharded
    /// engines use this to merge per-shard outcomes of one logical batch.
    pub fn absorb(&mut self, o: &BatchOutcome) {
        self.accepted += o.accepted;
        self.quarantined += o.quarantined;
        self.dropped_non_finite += o.dropped_non_finite;
        self.stays += o.stays;
        self.transitions += o.transitions;
        self.late_transitions += o.late_transitions;
        self.evicted += o.evicted;
        self.stays_shed += o.stays_shed;
        self.motif_days_closed += o.motif_days_closed;
        self.motif_days_oversize += o.motif_days_oversize;
    }
}

/// Cumulative engine tallies — the pm-obs counter sources.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    pub accepted: u64,
    pub quarantined: u64,
    pub dropped_non_finite: u64,
    pub stays: u64,
    pub transitions: u64,
    pub late_transitions: u64,
    pub evicted: u64,
    pub stays_shed: u64,
    pub motif_days_closed: u64,
    pub motif_days_oversize: u64,
}

impl EngineStats {
    fn absorb(&mut self, o: &BatchOutcome) {
        self.accepted += o.accepted;
        self.quarantined += o.quarantined;
        self.dropped_non_finite += o.dropped_non_finite;
        self.stays += o.stays;
        self.transitions += o.transitions;
        self.late_transitions += o.late_transitions;
        self.evicted += o.evicted;
        self.stays_shed += o.stays_shed;
        self.motif_days_closed += o.motif_days_closed;
        self.motif_days_oversize += o.motif_days_oversize;
    }
}

#[derive(Debug)]
struct UserState {
    detector: StayPointDetector,
    /// Primary category of the user's last recognized stay.
    last_primary: Option<Category>,
    /// Last admitted event time — the eviction key.
    last_seen: Timestamp,
    /// The time this user's `by_idle` entry is filed under: at most
    /// `last_seen`, which the entry lags until eviction repairs it.
    /// Derived state — `last_seen` on restore, never serialized.
    indexed_at: Timestamp,
    /// The in-progress day graph: `(absolute day, builder)`. Nodes are
    /// primary categories (the live recognizer yields nothing finer); the
    /// day closes when a recognized stay lands in a later day, or on
    /// eviction.
    day_graph: Option<(Timestamp, DayGraphBuilder)>,
}

/// The multi-user streaming front door.
#[derive(Debug)]
pub struct IngestEngine {
    config: EngineConfig,
    users: HashMap<String, UserState>,
    window: TransitionWindow,
    /// Sliding per-day motif-class counts over closed user-days.
    motifs: MotifWindow,
    /// Maximum admitted event time across all users.
    clock: Option<Timestamp>,
    stats: EngineStats,
    /// Bounded FIFO of emitted stays (tagged with their user), kept for
    /// background re-mining. Oldest first.
    stay_buffer: VecDeque<(String, StayPoint)>,
    /// Eviction index: one `(indexed_at, id)` entry per tracked user, so
    /// both capacity eviction (pop the minimum) and TTL sweeps (pop while
    /// stale) are `O(log n)` instead of a full-map scan per batch. Entries
    /// lag their user's `last_seen` instead of being re-keyed on every fix;
    /// eviction repairs the lagging ones it meets at the front (see
    /// `repair_front`). Derived state — rebuilt on restore, never
    /// serialized.
    by_idle: BTreeSet<(Timestamp, String)>,
    /// Running total of fixes buffered across all per-user detectors —
    /// maintained on every mutation so the gauge read stays `O(1)` (the
    /// serve loop reads it per batch; a map scan would be `O(users)`).
    /// Derived state — recomputed on restore, never serialized.
    buffered: usize,
}

impl IngestEngine {
    /// An empty engine.
    pub fn new(config: EngineConfig) -> Result<IngestEngine, StreamError> {
        config.validate()?;
        Ok(IngestEngine {
            window: TransitionWindow::new(config.window)?,
            motifs: MotifWindow::new(),
            config,
            users: HashMap::new(),
            clock: None,
            stats: EngineStats::default(),
            stay_buffer: VecDeque::new(),
            by_idle: BTreeSet::new(),
            buffered: 0,
        })
    }

    /// Ingests one batch in order. `recognize` maps a stay position onto
    /// its primary category (pm-serve passes the current snapshot's vote);
    /// it is looked up per emitted stay, never cached across batches.
    pub fn ingest_batch<R>(
        &mut self,
        records: &[(String, IngestRecord)],
        recognize: R,
    ) -> BatchOutcome
    where
        R: Fn(LocalPoint) -> Option<Category>,
    {
        let mut outcome = BatchOutcome::default();
        for (user, record) in records {
            self.process(user, record, &recognize, &mut outcome);
        }
        self.evict_stale(&recognize, &mut outcome);
        self.stats.absorb(&outcome);
        outcome
    }

    /// Ingests one batch under a pre-computed **sealed clock**: the engine
    /// and window clocks advance to `seal` *before* any record is
    /// processed, so lateness and TTL verdicts depend only on each user's
    /// own subsequence and the seal — never on which other records happen
    /// to share the engine. This is what makes a user-partitioned
    /// [`ShardedEngine`](crate::ShardedEngine) byte-equivalent to a single
    /// engine: both see every record under the same clock.
    ///
    /// `seal` must be `max(previous global clock, max event time in the
    /// full logical batch)`; a quarantined record's time never exceeds that
    /// maximum (its time is bounded by an already-admitted record), so the
    /// seal can be computed over all records without admission logic.
    pub fn ingest_batch_sealed<R>(
        &mut self,
        records: &[(String, IngestRecord)],
        seal: Timestamp,
        recognize: R,
    ) -> BatchOutcome
    where
        R: Fn(LocalPoint) -> Option<Category>,
    {
        let mut outcome = BatchOutcome::default();
        self.advance_clock(seal);
        for (user, record) in records {
            self.process(user, record, &recognize, &mut outcome);
        }
        self.evict_stale(&recognize, &mut outcome);
        self.stats.absorb(&outcome);
        outcome
    }

    /// Advances the engine to sealed clock `to` without ingesting anything:
    /// bumps the clocks and runs the TTL sweep they imply. Because exact
    /// TTL eviction is memoryless (the evicted set is always `{last_seen <
    /// clock - ttl}`), catching a shard up lazily at read time yields the
    /// same state as advancing it on every batch. No-op when the engine is
    /// already at or past `to`.
    pub fn advance_to<R>(&mut self, to: Timestamp, recognize: R) -> BatchOutcome
    where
        R: Fn(LocalPoint) -> Option<Category>,
    {
        let mut outcome = BatchOutcome::default();
        if self.clock.is_some_and(|c| c >= to) {
            return outcome;
        }
        self.advance_clock(to);
        self.evict_stale(&recognize, &mut outcome);
        self.stats.absorb(&outcome);
        outcome
    }

    /// Moves the engine-wide and window clocks forward to `to` (monotone).
    fn advance_clock(&mut self, to: Timestamp) {
        self.clock = Some(self.clock.map_or(to, |c| c.max(to)));
        self.window.advance(to);
        self.motifs.advance(to);
    }

    /// Currently tracked users.
    pub fn users_len(&self) -> usize {
        self.users.len()
    }

    /// Fixes buffered across all per-user detectors (`O(1)`: a running
    /// total maintained across ingest, eviction, and restore).
    pub fn buffered_fixes(&self) -> usize {
        self.buffered
    }

    /// The shared transition window.
    pub fn window(&self) -> &TransitionWindow {
        &self.window
    }

    /// The sliding motif window over closed user-days.
    pub fn motifs(&self) -> &MotifWindow {
        &self.motifs
    }

    /// Cumulative tallies.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The engine-wide event clock.
    pub fn clock(&self) -> Option<Timestamp> {
        self.clock
    }

    /// The shape this engine runs with.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Stays currently accumulated for re-mining.
    pub fn stays_buffered(&self) -> usize {
        self.stay_buffer.len()
    }

    /// A copy of the accumulated `(user, stay)` pairs, oldest first. The
    /// buffer is *not* drained: re-mining is a read-only consumer, and a
    /// replayed engine must reach the same buffer regardless of how often
    /// a re-miner looked at it.
    pub fn stays_snapshot(&self) -> Vec<(String, StayPoint)> {
        self.stay_buffer.iter().cloned().collect()
    }

    /// Serializes the complete engine state — config, clock, tallies,
    /// window ring, every per-user detector, and the stay buffer — into a
    /// deterministic byte blob: two engines are in the same state if and
    /// only if their `state_bytes` are equal. Floats are stored as IEEE bit
    /// patterns and users are sorted by id, so the blob is byte-identical
    /// across processes and hash-map iteration orders.
    pub fn state_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.bytes(STATE_MAGIC);
        // Config.
        w.f64(self.config.detector.theta_d);
        w.i64(self.config.detector.theta_t);
        w.count(self.config.detector.max_pending);
        w.i64(self.config.window.window_secs);
        w.i64(self.config.window.bucket_secs);
        w.count(self.config.max_users);
        w.i64(self.config.user_ttl_secs);
        w.count(self.config.max_stay_buffer);
        // Engine clock + tallies.
        write_opt_i64(&mut w, self.clock);
        for v in [
            self.stats.accepted,
            self.stats.quarantined,
            self.stats.dropped_non_finite,
            self.stats.stays,
            self.stats.transitions,
            self.stats.late_transitions,
            self.stats.evicted,
            self.stats.stays_shed,
            self.stats.motif_days_closed,
            self.stats.motif_days_oversize,
        ] {
            w.u64(v);
        }
        // Window ring.
        let (buckets, periods, wclock, late_dropped, recorded) = self.window.parts();
        write_opt_i64(&mut w, wclock);
        w.u64(late_dropped);
        w.u64(recorded);
        w.count(periods.len());
        for &p in periods {
            w.i64(p);
        }
        for slot in buckets {
            for &c in slot {
                w.u64(c);
            }
        }
        // Motif window ring. Slots are BTreeMaps, so iteration — and the
        // blob — is deterministic.
        let (mclasses, moversize, mperiods, mclock, mlate, mrecorded) = self.motifs.parts();
        write_opt_i64(&mut w, mclock);
        w.u64(mlate);
        w.u64(mrecorded);
        for slot in 0..MOTIF_WINDOW_DAYS {
            w.i64(mperiods[slot]);
            w.u64(moversize[slot]);
            w.count(mclasses[slot].len());
            for (form, cell) in &mclasses[slot] {
                w.u64(*form);
                w.u64(cell.days);
                for &c in &cell.category_counts {
                    w.u64(c);
                }
                w.u64(cell.untagged_nodes);
            }
        }
        // Users, sorted by id for determinism.
        let mut ids: Vec<&String> = self.users.keys().collect();
        ids.sort_unstable();
        w.count(ids.len());
        for id in ids {
            let state = &self.users[id];
            w.count(id.len());
            w.bytes(id.as_bytes());
            w.u8(category_byte(state.last_primary));
            w.i64(state.last_seen);
            write_opt_i64(&mut w, state.detector.last_time());
            let d = state.detector.stats();
            for v in [
                d.accepted,
                d.quarantined,
                d.dropped_non_finite,
                d.overflowed,
                d.emitted,
            ] {
                w.u64(v);
            }
            let pending = state.detector.pending();
            w.count(pending.len());
            for fix in pending {
                w.f64(fix.pos.x);
                w.f64(fix.pos.y);
                w.i64(fix.time);
            }
            match &state.day_graph {
                None => w.u8(0),
                Some((day, builder)) => {
                    w.u8(1);
                    w.i64(*day);
                    let (keys, categories, adj, last, visits, oversize) = builder.parts();
                    w.count(keys.len());
                    for (k, c) in keys.iter().zip(categories) {
                        w.u64(*k);
                        w.u8(category_byte(*c));
                    }
                    w.u64(adj);
                    w.u8(last.unwrap_or(0xFF));
                    w.u64(visits);
                    w.u8(u8::from(oversize));
                }
            }
        }
        // Stay buffer, oldest first.
        w.count(self.stay_buffer.len());
        for (user, sp) in &self.stay_buffer {
            w.count(user.len());
            w.bytes(user.as_bytes());
            w.f64(sp.pos.x);
            w.f64(sp.pos.y);
            w.i64(sp.time);
            w.u16(tags_bits(sp.tags));
            w.u8(category_byte(sp.primary));
        }
        w.into_bytes()
    }

    /// Rebuilds an engine from [`IngestEngine::state_bytes`] output. Every
    /// structural property is re-validated — bad magic, truncation,
    /// impossible counts, and out-of-range category indices are all typed
    /// [`StreamError::Corrupt`] errors, never panics or huge allocations.
    pub fn from_state_bytes(bytes: &[u8]) -> Result<IngestEngine, StreamError> {
        let mut r = ByteReader::new(bytes);
        let magic = r
            .bytes(STATE_MAGIC.len(), "engine state magic")
            .map_err(corrupt)?;
        if magic != STATE_MAGIC {
            return Err(StreamError::corrupt("engine state magic mismatch"));
        }
        let config = EngineConfig {
            detector: StreamParams {
                theta_d: r.f64("theta_d").map_err(corrupt)?,
                theta_t: r.i64("theta_t").map_err(corrupt)?,
                max_pending: r.u64("max_pending").map_err(corrupt)? as usize,
            },
            window: WindowConfig {
                window_secs: r.i64("window_secs").map_err(corrupt)?,
                bucket_secs: r.i64("bucket_secs").map_err(corrupt)?,
            },
            max_users: r.u64("max_users").map_err(corrupt)? as usize,
            user_ttl_secs: r.i64("user_ttl_secs").map_err(corrupt)?,
            max_stay_buffer: r.u64("max_stay_buffer").map_err(corrupt)? as usize,
        };
        config.validate()?;
        let clock = read_opt_i64(&mut r, "engine clock")?;
        let mut tallies = [0u64; 10];
        for (i, t) in tallies.iter_mut().enumerate() {
            *t = r.u64(&format!("engine tally {i}")).map_err(corrupt)?;
        }
        let stats = EngineStats {
            accepted: tallies[0],
            quarantined: tallies[1],
            dropped_non_finite: tallies[2],
            stays: tallies[3],
            transitions: tallies[4],
            late_transitions: tallies[5],
            evicted: tallies[6],
            stays_shed: tallies[7],
            motif_days_closed: tallies[8],
            motif_days_oversize: tallies[9],
        };
        // Window ring.
        let wclock = read_opt_i64(&mut r, "window clock")?;
        let late_dropped = r.u64("window late_dropped").map_err(corrupt)?;
        let recorded = r.u64("window recorded").map_err(corrupt)?;
        let n_slots = r.count(8, "window slots").map_err(corrupt)?;
        let mut periods = Vec::with_capacity(n_slots);
        for _ in 0..n_slots {
            periods.push(r.i64("window period").map_err(corrupt)?);
        }
        let cells = Category::COUNT * Category::COUNT;
        let mut buckets = Vec::with_capacity(n_slots);
        for _ in 0..n_slots {
            let mut slot = Vec::with_capacity(cells);
            for _ in 0..cells {
                slot.push(r.u64("window count").map_err(corrupt)?);
            }
            buckets.push(slot);
        }
        let window = TransitionWindow::from_parts(
            config.window,
            buckets,
            periods,
            wclock,
            late_dropped,
            recorded,
        )?;
        // Motif window ring.
        let mclock = read_opt_i64(&mut r, "motif clock")?;
        let mlate = r.u64("motif late_days").map_err(corrupt)?;
        let mrecorded = r.u64("motif recorded_days").map_err(corrupt)?;
        let mut mclasses = Vec::with_capacity(MOTIF_WINDOW_DAYS);
        let mut moversize = Vec::with_capacity(MOTIF_WINDOW_DAYS);
        let mut mperiods = Vec::with_capacity(MOTIF_WINDOW_DAYS);
        for _ in 0..MOTIF_WINDOW_DAYS {
            mperiods.push(r.i64("motif slot day").map_err(corrupt)?);
            moversize.push(r.u64("motif slot oversize").map_err(corrupt)?);
            let n_forms = r
                .count(16 + Category::COUNT * 8 + 8, "motif slot classes")
                .map_err(corrupt)?;
            let mut forms = BTreeMap::new();
            for _ in 0..n_forms {
                let form = r.u64("motif form").map_err(corrupt)?;
                let days = r.u64("motif class days").map_err(corrupt)?;
                let mut category_counts = [0u64; Category::COUNT];
                for c in category_counts.iter_mut() {
                    *c = r.u64("motif category count").map_err(corrupt)?;
                }
                let untagged_nodes = r.u64("motif untagged nodes").map_err(corrupt)?;
                if forms
                    .insert(
                        form,
                        MotifCell {
                            days,
                            category_counts,
                            untagged_nodes,
                        },
                    )
                    .is_some()
                {
                    return Err(StreamError::corrupt(format!(
                        "motif form {form:#x} repeats within a slot"
                    )));
                }
            }
            mclasses.push(forms);
        }
        let motifs =
            MotifWindow::from_parts(mclasses, moversize, mperiods, mclock, mlate, mrecorded)?;
        // Users.
        let n_users = r.count(16, "users").map_err(corrupt)?;
        let mut users = HashMap::with_capacity(n_users);
        for _ in 0..n_users {
            let id_len = r.count(1, "user id length").map_err(corrupt)?;
            let id = String::from_utf8(r.bytes(id_len, "user id").map_err(corrupt)?.to_vec())
                .map_err(|_| StreamError::corrupt("user id is not UTF-8"))?;
            let last_primary = read_category(&mut r, "user last_primary")?;
            let last_seen = r.i64("user last_seen").map_err(corrupt)?;
            let last_time = read_opt_i64(&mut r, "detector last_time")?;
            let mut d = [0u64; 5];
            for (i, t) in d.iter_mut().enumerate() {
                *t = r.u64(&format!("detector tally {i}")).map_err(corrupt)?;
            }
            let dstats = DetectorStats {
                accepted: d[0],
                quarantined: d[1],
                dropped_non_finite: d[2],
                overflowed: d[3],
                emitted: d[4],
            };
            let n_pending = r.count(24, "pending fixes").map_err(corrupt)?;
            let mut pending = VecDeque::with_capacity(n_pending);
            for _ in 0..n_pending {
                let x = r.f64("fix x").map_err(corrupt)?;
                let y = r.f64("fix y").map_err(corrupt)?;
                let t = r.i64("fix time").map_err(corrupt)?;
                pending.push_back(GpsPoint::new(LocalPoint::new(x, y), t));
            }
            let day_graph = match r.u8("day graph flag").map_err(corrupt)? {
                0 => None,
                1 => {
                    let day = r.i64("day graph day").map_err(corrupt)?;
                    let n_nodes = r.count(9, "day graph nodes").map_err(corrupt)?;
                    let mut keys = Vec::with_capacity(n_nodes);
                    let mut categories = Vec::with_capacity(n_nodes);
                    for _ in 0..n_nodes {
                        keys.push(r.u64("day graph key").map_err(corrupt)?);
                        categories.push(read_category(&mut r, "day graph category")?);
                    }
                    let adj = r.u64("day graph adjacency").map_err(corrupt)?;
                    let last = match r.u8("day graph last").map_err(corrupt)? {
                        0xFF => None,
                        l => Some(l),
                    };
                    let visits = r.u64("day graph visits").map_err(corrupt)?;
                    let oversize = match r.u8("day graph oversize").map_err(corrupt)? {
                        0 => false,
                        1 => true,
                        flag => {
                            return Err(StreamError::corrupt(format!(
                                "day graph oversize flag {flag} is neither 0 nor 1"
                            )))
                        }
                    };
                    let builder =
                        DayGraphBuilder::from_parts(keys, categories, adj, last, visits, oversize)
                            .map_err(StreamError::corrupt)?;
                    if builder.is_empty() {
                        return Err(StreamError::corrupt("pending day graph is empty"));
                    }
                    Some((day, builder))
                }
                flag => {
                    return Err(StreamError::corrupt(format!(
                        "day graph flag {flag} is neither 0 nor 1"
                    )))
                }
            };
            users.insert(
                id,
                UserState {
                    detector: StayPointDetector::from_parts(
                        config.detector,
                        pending,
                        last_time,
                        dstats,
                    ),
                    last_primary,
                    last_seen,
                    indexed_at: last_seen,
                    day_graph,
                },
            );
        }
        // Stay buffer.
        let n_stays = r.count(27, "stay buffer").map_err(corrupt)?;
        let mut stay_buffer = VecDeque::with_capacity(n_stays);
        for _ in 0..n_stays {
            let user_len = r.count(1, "stay user length").map_err(corrupt)?;
            let user = String::from_utf8(r.bytes(user_len, "stay user").map_err(corrupt)?.to_vec())
                .map_err(|_| StreamError::corrupt("stay user is not UTF-8"))?;
            let x = r.f64("stay x").map_err(corrupt)?;
            let y = r.f64("stay y").map_err(corrupt)?;
            let t = r.i64("stay time").map_err(corrupt)?;
            let bits = r.u16("stay tags").map_err(corrupt)?;
            let primary = read_category(&mut r, "stay primary")?;
            stay_buffer.push_back((
                user,
                StayPoint {
                    pos: LocalPoint::new(x, y),
                    time: t,
                    tags: tags_from_bits(bits)?,
                    primary,
                },
            ));
        }
        r.finish("engine state").map_err(corrupt)?;
        // The eviction index and buffered-fix total are derived state:
        // rebuild them rather than trust (or spend bytes on) a serialized
        // copy.
        let by_idle = users
            .iter()
            .map(|(id, s)| (s.indexed_at, id.clone()))
            .collect();
        let buffered = users.values().map(|s| s.detector.pending_len()).sum();
        Ok(IngestEngine {
            config,
            users,
            window,
            motifs,
            clock,
            stats,
            stay_buffer,
            by_idle,
            buffered,
        })
    }

    fn process<R>(
        &mut self,
        user: &str,
        record: &IngestRecord,
        recognize: &R,
        outcome: &mut BatchOutcome,
    ) where
        R: Fn(LocalPoint) -> Option<Category>,
    {
        let point = record.point();
        if !self.users.contains_key(user) {
            while self.users.len() >= self.config.max_users {
                self.evict_one(recognize, outcome);
            }
            self.users.insert(
                user.to_string(),
                UserState {
                    detector: StayPointDetector::new(self.config.detector),
                    last_primary: None,
                    last_seen: point.time,
                    indexed_at: point.time,
                    day_graph: None,
                },
            );
            self.by_idle.insert((point.time, user.to_string()));
        }
        let mut emitted = Vec::new();
        let admitted = {
            let state = match self.users.get_mut(user) {
                Some(s) => s,
                None => return, // unreachable: inserted above
            };
            let pending_before = state.detector.pending_len();
            let admitted = match record {
                IngestRecord::Fix(p) => match state.detector.push(*p, &mut emitted) {
                    FixStatus::Accepted => {
                        outcome.accepted += 1;
                        state.last_seen = state.last_seen.max(p.time);
                        true
                    }
                    FixStatus::OutOfOrder => {
                        outcome.quarantined += 1;
                        false
                    }
                    FixStatus::NonFinite => {
                        outcome.dropped_non_finite += 1;
                        state.last_seen = state.last_seen.max(p.time);
                        true
                    }
                },
                IngestRecord::Stay(p) => {
                    if !state.detector.admit_time(p.time) {
                        outcome.quarantined += 1;
                        false
                    } else if !(p.pos.x.is_finite() && p.pos.y.is_finite()) {
                        outcome.dropped_non_finite += 1;
                        state.last_seen = state.last_seen.max(p.time);
                        true
                    } else {
                        outcome.accepted += 1;
                        state.last_seen = state.last_seen.max(p.time);
                        emitted.push(StayPoint::untagged(p.pos, p.time));
                        true
                    }
                }
            };
            // Fold the pending-buffer delta (push, emit, overflow, rescan —
            // whatever the detector did) into the running gauge total.
            let pending_after = state.detector.pending_len();
            self.buffered = self.buffered + pending_after - pending_before;
            admitted
        };
        if admitted {
            self.clock = Some(self.clock.map_or(point.time, |c| c.max(point.time)));
            self.motifs.advance(point.time);
        }
        if !emitted.is_empty() {
            let (prev, mut day_graph) = match self.users.get_mut(user) {
                Some(s) => (s.last_primary, s.day_graph.take()),
                None => (None, None),
            };
            let last = self.settle(user, prev, &mut day_graph, &emitted, recognize, outcome);
            if let Some(state) = self.users.get_mut(user) {
                state.last_primary = last;
                state.day_graph = day_graph;
            }
        }
    }

    /// Recognizes emitted stays, records per-user transitions, grows the
    /// user's pending day graph (closing it when a later day begins), and
    /// accumulates the stays (bounded) for background re-mining. Returns
    /// the user's new `last_primary`.
    fn settle<R>(
        &mut self,
        user: &str,
        mut prev: Option<Category>,
        day_graph: &mut Option<(Timestamp, DayGraphBuilder)>,
        stays: &[StayPoint],
        recognize: &R,
        outcome: &mut BatchOutcome,
    ) -> Option<Category>
    where
        R: Fn(LocalPoint) -> Option<Category>,
    {
        for sp in stays {
            outcome.stays += 1;
            if self.config.max_stay_buffer > 0 {
                while self.stay_buffer.len() >= self.config.max_stay_buffer {
                    self.stay_buffer.pop_front();
                    outcome.stays_shed += 1;
                }
                self.stay_buffer.push_back((user.to_string(), *sp));
            }
            let Some(cur) = recognize(sp.pos) else {
                // Unrecognized ground: counted as a stay, but it neither
                // forms nor resets a transition edge, and it does not join
                // the day graph (mirrored on the batch motif path).
                continue;
            };
            if let Some(p) = prev {
                if self.window.record(p, cur, sp.time) {
                    outcome.transitions += 1;
                } else {
                    outcome.late_transitions += 1;
                }
            }
            prev = Some(cur);
            // Per-user stay times are monotone, so `day` never regresses:
            // a day mismatch always means the pending day is over.
            let day = sp.time.div_euclid(DAY_SECS);
            match &mut *day_graph {
                Some((d, builder)) if *d == day => builder.visit(cur as u64, Some(cur)),
                slot => {
                    if let Some((d, builder)) = slot.take() {
                        self.close_day(d, &builder, outcome);
                    }
                    let mut builder = DayGraphBuilder::new();
                    builder.visit(cur as u64, Some(cur));
                    *slot = Some((day, builder));
                }
            }
        }
        prev
    }

    /// Hands one closed user-day to the motif window and tallies it.
    fn close_day(&mut self, day: Timestamp, builder: &DayGraphBuilder, outcome: &mut BatchOutcome) {
        let graph = builder.finish();
        outcome.motif_days_closed += 1;
        if graph.form.is_none() {
            outcome.motif_days_oversize += 1;
        }
        self.motifs.record(day, &graph);
    }

    /// Re-files the front entry of `by_idle` under its user's `last_seen`
    /// if it lags; returns whether it did. An accurate front entry names
    /// the least `(last_seen, id)`: every entry sorts at or before its own
    /// user's true key, so it sorts at or before every user's true key.
    fn repair_front(&mut self) -> bool {
        let Some((at, key)) = self.by_idle.first() else {
            return false;
        };
        let Some(state) = self.users.get_mut(key) else {
            return false; // unreachable: every entry names a tracked user
        };
        if *at == state.last_seen {
            return false;
        }
        let seen = state.last_seen;
        state.indexed_at = seen;
        if let Some((_, key)) = self.by_idle.pop_first() {
            self.by_idle.insert((seen, key));
        }
        true
    }

    /// Evicts the stalest user — deterministic tie-break on the user id
    /// (the order is `(last_seen, id)`).
    fn evict_one<R>(&mut self, recognize: &R, outcome: &mut BatchOutcome)
    where
        R: Fn(LocalPoint) -> Option<Category>,
    {
        while self.repair_front() {}
        if let Some((_, key)) = self.by_idle.first().cloned() {
            self.remove_user(&key, recognize, outcome);
        }
    }

    /// Evicts every user idle past the TTL, stalest first (ties broken on
    /// the user id). Pops the ordered index instead of scanning the map, so
    /// a quiet batch costs `O(evictions)` — not `O(users)` — even with
    /// millions of tracked users.
    fn evict_stale<R>(&mut self, recognize: &R, outcome: &mut BatchOutcome)
    where
        R: Fn(LocalPoint) -> Option<Category>,
    {
        let Some(clock) = self.clock else {
            return;
        };
        let cutoff = clock.saturating_sub(self.config.user_ttl_secs);
        // A front entry at or past the cutoff ends the sweep, lagging or
        // not: every other entry, and every user's true key, sorts later.
        while self.by_idle.first().is_some_and(|(at, _)| *at < cutoff) {
            if !self.repair_front() {
                let Some((_, key)) = self.by_idle.first().cloned() else {
                    break;
                };
                self.remove_user(&key, recognize, outcome);
            }
        }
    }

    /// Flushes and drops one user; end-of-stream stays settle normally.
    fn remove_user<R>(&mut self, key: &str, recognize: &R, outcome: &mut BatchOutcome)
    where
        R: Fn(LocalPoint) -> Option<Category>,
    {
        let Some(mut state) = self.users.remove(key) else {
            return;
        };
        self.by_idle.remove(&(state.indexed_at, key.to_string()));
        self.buffered -= state.detector.pending_len();
        let mut tail = Vec::new();
        state.detector.flush(&mut tail);
        let mut day_graph = state.day_graph.take();
        self.settle(
            key,
            state.last_primary,
            &mut day_graph,
            &tail,
            recognize,
            outcome,
        );
        // The user is gone; whatever day was still open closes with them.
        if let Some((day, builder)) = day_graph {
            self.close_day(day, &builder, outcome);
        }
        outcome.evicted += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> EngineConfig {
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
            max_users: 4,
            user_ttl_secs: 86_400,
            max_stay_buffer: 100,
        }
    }

    fn fix(user: &str, x: f64, t: Timestamp) -> (String, IngestRecord) {
        (
            user.to_string(),
            IngestRecord::Fix(GpsPoint::new(LocalPoint::new(x, 0.0), t)),
        )
    }

    fn stay(user: &str, x: f64, t: Timestamp) -> (String, IngestRecord) {
        (
            user.to_string(),
            IngestRecord::Stay(GpsPoint::new(LocalPoint::new(x, 0.0), t)),
        )
    }

    /// Recognizer: x < 5000 is Residence, otherwise Business.
    fn recog(pos: LocalPoint) -> Option<Category> {
        if pos.x < 5000.0 {
            Some(Category::Residence)
        } else {
            Some(Category::Business)
        }
    }

    #[test]
    fn stays_mode_records_transitions() {
        let mut e = IngestEngine::new(config()).expect("engine");
        let records = vec![
            stay("u1", 0.0, 1_000),
            stay("u1", 9_000.0, 4_000),
            stay("u1", 10.0, 8_000),
        ];
        let o = e.ingest_batch(&records, recog);
        assert_eq!(o.accepted, 3);
        assert_eq!(o.stays, 3);
        assert_eq!(o.transitions, 2); // R→B, B→R
        let counts = e.window().counts();
        assert_eq!(counts.len(), 2);
        assert_eq!(e.stats().transitions, 2);
    }

    #[test]
    fn fixes_mode_detects_then_transitions() {
        let mut e = IngestEngine::new(config()).expect("engine");
        let mut records = Vec::new();
        // Dwell at home, travel, dwell at work, travel again (to close the
        // second window).
        for i in 0..6 {
            records.push(fix("u", 0.0, i * 120));
        }
        for i in 0..6 {
            records.push(fix("u", 9_000.0, 2_000 + i * 120));
        }
        records.push(fix("u", 20_000.0, 5_000));
        let o = e.ingest_batch(&records, recog);
        assert_eq!(o.stays, 2);
        assert_eq!(o.transitions, 1);
        assert_eq!(
            e.window().counts(),
            vec![(Category::Residence, Category::Business, 1)]
        );
    }

    #[test]
    fn sealed_ingest_is_partition_independent() {
        // One engine takes the whole batch; a pair of engines split it by
        // user under the same seal. Verdicts, tallies, and merged window
        // counts must agree — the property ShardedEngine is built on.
        let records = vec![
            stay("a", 0.0, 1_000),
            stay("b", 9_000.0, 2_000),
            stay("a", 9_000.0, 3_000),
            stay("b", 10.0, 3_500),
            stay("a", 9_000.0, 3_000), // duplicate: quarantined
        ];
        let seal = 3_500;
        let mut whole = IngestEngine::new(config()).expect("engine");
        let ow = whole.ingest_batch_sealed(&records, seal, recog);

        let mut ea = IngestEngine::new(config()).expect("engine");
        let mut eb = IngestEngine::new(config()).expect("engine");
        let part_a: Vec<_> = records.iter().filter(|(u, _)| u == "a").cloned().collect();
        let part_b: Vec<_> = records.iter().filter(|(u, _)| u == "b").cloned().collect();
        let oa = ea.ingest_batch_sealed(&part_a, seal, recog);
        let ob = eb.ingest_batch_sealed(&part_b, seal, recog);

        assert_eq!(ow.accepted, oa.accepted + ob.accepted);
        assert_eq!(ow.quarantined, oa.quarantined + ob.quarantined);
        assert_eq!(ow.transitions, oa.transitions + ob.transitions);
        assert_eq!(ow.stays, oa.stays + ob.stays);
        assert_eq!(ea.clock(), Some(seal));
        assert_eq!(eb.clock(), Some(seal));

        let mut merged: Vec<(Category, Category, u64)> = ea.window().counts();
        for (f, t, c) in eb.window().counts() {
            match merged.iter_mut().find(|(mf, mt, _)| (*mf, *mt) == (f, t)) {
                Some(slot) => slot.2 += c,
                None => merged.push((f, t, c)),
            }
        }
        merged.sort_by_key(|&(f, t, _)| (f as usize, t as usize));
        assert_eq!(whole.window().counts(), merged);
    }

    #[test]
    fn advance_to_runs_the_ttl_sweep_lazily() {
        // Engine A sees the late batch that moves the clock; engine B is an
        // untouched shard caught up via advance_to. Both must evict the
        // stale user and agree on users_len and evicted tallies.
        let cfg = config();
        let ttl = cfg.user_ttl_secs;
        let mut eager = IngestEngine::new(cfg).expect("engine");
        let mut lazy = IngestEngine::new(config()).expect("engine");
        for e in [&mut eager, &mut lazy] {
            e.ingest_batch_sealed(&[stay("old", 0.0, 1_000)], 1_000, recog);
        }
        let seal = 1_000 + ttl + 1_000;
        let o_eager = eager.ingest_batch_sealed(&[stay("new", 0.0, seal)], seal, recog);
        let o_lazy = lazy.advance_to(seal, recog);
        assert_eq!(o_eager.evicted, 1);
        assert_eq!(o_lazy.evicted, 1);
        assert_eq!(eager.users_len(), 1); // "new" survives
        assert_eq!(lazy.users_len(), 0);
        assert_eq!(lazy.clock(), Some(seal));
        // Advancing again is a no-op.
        let again = lazy.advance_to(seal, recog);
        assert_eq!(again.evicted, 0);
    }

    #[test]
    fn per_user_ordering_is_independent() {
        let mut e = IngestEngine::new(config()).expect("engine");
        let o = e.ingest_batch(
            &[
                stay("a", 0.0, 100),
                stay("b", 0.0, 50),  // earlier than a's clock: fine, own user
                stay("a", 0.0, 100), // duplicate for a: quarantined
            ],
            recog,
        );
        assert_eq!(o.accepted, 2);
        assert_eq!(o.quarantined, 1);
    }

    #[test]
    fn capacity_eviction_is_deterministic_and_flushes() {
        let mut e = IngestEngine::new(config()).expect("engine");
        // Four users dwell (detector windows open), then a fifth arrives.
        let mut records = Vec::new();
        for (i, u) in ["u1", "u2", "u3", "u4"].iter().enumerate() {
            for k in 0..5 {
                records.push(fix(u, 0.0, i as i64 * 10 + k * 120));
            }
        }
        let o1 = e.ingest_batch(&records, recog);
        assert_eq!(o1.evicted, 0);
        assert_eq!(e.users_len(), 4);
        // u1 has the smallest last_seen → evicted; its open dwell flushes
        // into a stay.
        let o2 = e.ingest_batch(&[fix("u5", 0.0, 10_000)], recog);
        assert_eq!(o2.evicted, 1);
        assert_eq!(o2.stays, 1);
        assert_eq!(e.users_len(), 4);
        assert!(e.buffered_fixes() > 0);
    }

    #[test]
    fn ttl_eviction_uses_event_time() {
        let mut e = IngestEngine::new(config()).expect("engine");
        e.ingest_batch(&[stay("old", 0.0, 0)], recog);
        assert_eq!(e.users_len(), 1);
        // A record far in the future ages "old" past the TTL.
        let o = e.ingest_batch(&[stay("new", 0.0, 1_000_000)], recog);
        assert_eq!(o.evicted, 1);
        assert_eq!(e.users_len(), 1);
        assert_eq!(e.clock(), Some(1_000_000));
    }

    #[test]
    fn non_finite_stay_is_dropped() {
        let mut e = IngestEngine::new(config()).expect("engine");
        let o = e.ingest_batch(
            &[(
                "u".to_string(),
                IngestRecord::Stay(GpsPoint::new(LocalPoint::new(f64::NAN, 0.0), 5)),
            )],
            recog,
        );
        assert_eq!(o.dropped_non_finite, 1);
        assert_eq!(o.stays, 0);
    }

    #[test]
    fn stay_buffer_accumulates_and_sheds() {
        let mut cfg = config();
        cfg.max_stay_buffer = 2;
        let mut e = IngestEngine::new(cfg).expect("engine");
        let o = e.ingest_batch(
            &[
                stay("u", 0.0, 100),
                stay("u", 1.0, 200),
                stay("u", 2.0, 300),
            ],
            recog,
        );
        assert_eq!(o.stays, 3);
        assert_eq!(o.stays_shed, 1);
        assert_eq!(e.stays_buffered(), 2);
        let snap = e.stays_snapshot();
        assert_eq!(snap[0].1.time, 200, "oldest stay was shed");
        assert_eq!(snap[1].1.time, 300);
        assert_eq!(e.stays_buffered(), 2, "snapshot does not drain");
        assert_eq!(e.stats().stays_shed, 1);
    }

    #[test]
    fn zero_stay_buffer_disables_accumulation() {
        let mut cfg = config();
        cfg.max_stay_buffer = 0;
        let mut e = IngestEngine::new(cfg).expect("engine");
        let o = e.ingest_batch(&[stay("u", 0.0, 100)], recog);
        assert_eq!(o.stays, 1);
        assert_eq!(o.stays_shed, 0);
        assert_eq!(e.stays_buffered(), 0);
    }

    #[test]
    fn day_graphs_close_when_the_next_day_begins() {
        let mut e = IngestEngine::new(config()).expect("engine");
        // Day 0: home -> work -> home. Day 1: one stay, which closes day 0
        // but itself stays pending.
        let o = e.ingest_batch(
            &[
                stay("u", 0.0, 1_000),
                stay("u", 9_000.0, 40_000),
                stay("u", 10.0, 80_000),
                stay("u", 10.0, 86_400 + 1_000),
            ],
            recog,
        );
        assert_eq!(o.motif_days_closed, 1);
        assert_eq!(o.motif_days_oversize, 0);
        let table = e.motifs().table();
        assert_eq!(table.total_days, 1, "day 1 is still pending");
        assert_eq!(table.classes.len(), 1);
        assert_eq!(table.classes[0].nodes, 2, "two categories visited");
        assert_eq!(table.classes[0].edges, 2, "R->B and B->R");
        assert_eq!(
            table.classes[0].category_counts[Category::Residence as usize],
            1
        );
        assert_eq!(
            table.classes[0].category_counts[Category::Business as usize],
            1
        );
    }

    #[test]
    fn eviction_closes_the_pending_day() {
        let mut e = IngestEngine::new(config()).expect("engine");
        e.ingest_batch(&[stay("old", 0.0, 1_000)], recog);
        // Two days later, a new user's record TTL-evicts "old" (ttl is one
        // day); the flushed day is still inside the 7-day motif window.
        let o = e.ingest_batch(&[stay("new", 0.0, 2 * 86_400 + 10)], recog);
        assert_eq!(o.evicted, 1);
        assert_eq!(o.motif_days_closed, 1);
        assert_eq!(e.stats().motif_days_closed, 1);
        let table = e.motifs().table();
        assert_eq!(table.total_days, 1);
        assert_eq!(table.classes[0].nodes, 1, "a single-place day");
    }

    #[test]
    fn motif_state_survives_a_roundtrip() {
        let mut e = IngestEngine::new(config()).expect("engine");
        // Closed days in the window, plus pending day graphs: the blob
        // must carry both.
        let mut records = Vec::new();
        for (i, u) in ["alice", "bob"].iter().enumerate() {
            let base = i as i64 * 100;
            records.push(stay(u, 0.0, base + 1_000));
            records.push(stay(u, 9_000.0, base + 40_000));
            records.push(stay(u, 10.0, 86_400 + base + 1_000));
            records.push(stay(u, 9_000.0, 86_400 + base + 40_000));
        }
        let o = e.ingest_batch(&records, recog);
        assert_eq!(o.motif_days_closed, 2);
        let bytes = e.state_bytes();
        let restored = IngestEngine::from_state_bytes(&bytes).expect("restore");
        assert_eq!(restored.state_bytes(), bytes, "roundtrip is exact");
        assert_eq!(restored.motifs().table(), e.motifs().table());
        // Driving both forward closes the pending days identically.
        let more: Vec<_> = vec![
            stay("alice", 0.0, 2 * 86_400 + 1_000),
            stay("bob", 0.0, 2 * 86_400 + 1_000),
        ];
        let mut a = e;
        let mut b = restored;
        let oa = a.ingest_batch(&more, recog);
        let ob = b.ingest_batch(&more, recog);
        assert_eq!(oa, ob);
        assert_eq!(oa.motif_days_closed, 2);
        assert_eq!(a.state_bytes(), b.state_bytes());
    }

    #[test]
    fn state_roundtrip_is_byte_identical() {
        let mut e = IngestEngine::new(config()).expect("engine");
        // Populate everything: open detector windows, recognized stays,
        // transitions, quarantines, and the stay buffer.
        let mut records = Vec::new();
        for u in ["alice", "bob", "carol"] {
            for k in 0..5 {
                records.push(fix(u, (k % 2) as f64, 1_000 + k * 120));
            }
            records.push(stay(u, 9_000.0, 3_000));
            records.push(stay(u, 10.0, 8_000));
            records.push(stay(u, 10.0, 8_000)); // quarantined duplicate
        }
        e.ingest_batch(&records, recog);
        let bytes = e.state_bytes();
        let restored = IngestEngine::from_state_bytes(&bytes).expect("restore");
        assert_eq!(restored.state_bytes(), bytes, "roundtrip is exact");
        assert_eq!(restored.users_len(), e.users_len());
        assert_eq!(restored.stats(), e.stats());
        assert_eq!(restored.clock(), e.clock());
        assert_eq!(restored.window().counts(), e.window().counts());
        assert_eq!(restored.stays_snapshot(), e.stays_snapshot());
    }

    #[test]
    fn restored_engine_continues_identically() {
        let mut a = IngestEngine::new(config()).expect("engine");
        let warmup: Vec<_> = (0..20).map(|k| fix("u", (k % 3) as f64, k * 90)).collect();
        a.ingest_batch(&warmup, recog);
        let mut b = IngestEngine::from_state_bytes(&a.state_bytes()).expect("restore");
        // Drive both engines forward with the same batch: every observable
        // and the full state must stay in lockstep.
        let more: Vec<_> = (0..10).map(|k| fix("u", 9_000.0, 3_000 + k * 90)).collect();
        let oa = a.ingest_batch(&more, recog);
        let ob = b.ingest_batch(&more, recog);
        assert_eq!(oa, ob);
        assert_eq!(a.state_bytes(), b.state_bytes());
    }

    /// Brute-force eviction reference: each tracked user's `last_seen`,
    /// scanned in full for every decision.
    #[derive(Default)]
    struct EvictionModel {
        users: BTreeMap<String, Timestamp>,
        clock: Option<Timestamp>,
        evicted: u64,
    }

    impl EvictionModel {
        fn evict_min(&mut self) {
            let stalest = self
                .users
                .iter()
                .map(|(id, &seen)| (seen, id.clone()))
                .min()
                .map(|(_, id)| id);
            if let Some(id) = stalest {
                self.users.remove(&id);
                self.evicted += 1;
            }
        }

        fn batch(&mut self, records: &[(String, IngestRecord)], config: &EngineConfig) {
            for (user, record) in records {
                let t = record.point().time;
                let admitted = match self.users.get_mut(user) {
                    Some(seen) if t > *seen => {
                        *seen = t;
                        true
                    }
                    Some(_) => false,
                    None => {
                        while self.users.len() >= config.max_users {
                            self.evict_min();
                        }
                        self.users.insert(user.clone(), t);
                        true
                    }
                };
                if admitted {
                    self.clock = Some(self.clock.map_or(t, |c| c.max(t)));
                }
            }
            if let Some(clock) = self.clock {
                let cutoff = clock.saturating_sub(config.user_ttl_secs);
                while self.users.values().any(|&seen| seen < cutoff) {
                    self.evict_min();
                }
            }
        }
    }

    /// Every tracked user has exactly one index entry, filed at or before
    /// its `last_seen`.
    fn index_is_sound(e: &IngestEngine) -> bool {
        e.by_idle.len() == e.users.len()
            && e.users.iter().all(|(id, s)| {
                s.indexed_at <= s.last_seen && e.by_idle.contains(&(s.indexed_at, id.clone()))
            })
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// The lagging index evicts exactly the users an index re-keyed on
        /// every fix would, in the same order: the tracked set and eviction
        /// count match a brute-force model after every batch, and a twin
        /// restored mid-stream (whose index is accurate) stays in lockstep.
        #[test]
        fn lagging_index_evicts_like_the_brute_force_model(
            max_users in 3usize..7,
            ttl in 200i64..600,
            twin_at in 0usize..12,
            raw in proptest::collection::vec((0u8..12, 0u8..4, 0u8..3, 0u16..160), 1..240),
            cuts in proptest::collection::vec(1usize..30, 12),
        ) {
            let config = EngineConfig {
                max_users,
                user_ttl_secs: ttl,
                ..config()
            };
            // Times mostly advance; a `kind` of 3 sends a record back in
            // time, where it is quarantined unless its user was evicted.
            let mut t: Timestamp = 1_000;
            let mut records = Vec::with_capacity(raw.len());
            for &(user, kind, cell, dt) in &raw {
                t += Timestamp::from(dt);
                let user = format!("u{user}");
                let x = f64::from(cell) * 4_000.0;
                records.push(match kind {
                    0 => stay(&user, x, t),
                    3 => fix(&user, x, t - 300),
                    _ => fix(&user, x, t),
                });
            }
            let mut batches = Vec::new();
            let mut rest = &records[..];
            for &cut in &cuts {
                if rest.is_empty() {
                    break;
                }
                let (head, tail) = rest.split_at(cut.min(rest.len()));
                batches.push(head);
                rest = tail;
            }
            if !rest.is_empty() {
                batches.push(rest);
            }

            let mut engine = IngestEngine::new(config).expect("engine");
            let mut model = EvictionModel::default();
            let mut twin: Option<IngestEngine> = None;
            for (i, batch) in batches.iter().enumerate() {
                if i == twin_at.min(batches.len() - 1) {
                    let restored =
                        IngestEngine::from_state_bytes(&engine.state_bytes()).expect("restore");
                    proptest::prop_assert!(restored
                        .users
                        .values()
                        .all(|s| s.indexed_at == s.last_seen));
                    proptest::prop_assert!(index_is_sound(&restored));
                    twin = Some(restored);
                }
                let outcome = engine.ingest_batch(batch, recog);
                model.batch(batch, &config);
                let tracked: BTreeSet<&String> = engine.users.keys().collect();
                proptest::prop_assert_eq!(tracked, model.users.keys().collect::<BTreeSet<_>>());
                proptest::prop_assert_eq!(engine.stats().evicted, model.evicted);
                proptest::prop_assert!(index_is_sound(&engine));
                if let Some(twin) = twin.as_mut() {
                    proptest::prop_assert_eq!(twin.ingest_batch(batch, recog), outcome);
                    proptest::prop_assert_eq!(twin.state_bytes(), engine.state_bytes());
                }
            }
        }
    }

    #[test]
    fn corrupt_state_is_a_typed_error() {
        let mut e = IngestEngine::new(config()).expect("engine");
        e.ingest_batch(&[stay("u", 0.0, 100)], recog);
        let good = e.state_bytes();
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            IngestEngine::from_state_bytes(&bad),
            Err(StreamError::Corrupt { .. })
        ));
        // Truncation at every prefix must be an error, never a panic.
        for cut in 0..good.len() {
            assert!(
                IngestEngine::from_state_bytes(&good[..cut]).is_err(),
                "prefix of {cut} bytes parsed"
            );
        }
        // Trailing garbage is rejected too.
        let mut long = good.clone();
        long.push(0);
        assert!(IngestEngine::from_state_bytes(&long).is_err());
    }

    #[test]
    fn config_validation_composes() {
        assert!(config().validate().is_ok());
        let mut bad = config();
        bad.max_users = 0;
        assert!(IngestEngine::new(bad).is_err());
        let mut bad = config();
        bad.user_ttl_secs = 0;
        assert!(IngestEngine::new(bad).is_err());
        let mut bad = config();
        bad.detector.theta_t = 0;
        assert!(IngestEngine::new(bad).is_err());
    }
}
