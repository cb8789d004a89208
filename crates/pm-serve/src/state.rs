//! Mutable service state: the epoch-versioned snapshot and the live
//! sharded ingestion engine.
//!
//! ## Epoch / hot-swap invariants
//!
//! The current [`Snapshot`] lives in an [`EpochCell`] — an atomic-epoch,
//! thread-cached `Arc` slot whose steady-state read is lock-free (see
//! [`crate::epoch`]):
//!
//! - every request loads the `(Arc, epoch)` pair **once** at routing time,
//!   so an in-flight request keeps answering from the snapshot (and epoch)
//!   it started on, even if a swap lands mid-request;
//! - [`ServeState::swap`] publishes the new `Arc` and bumps the epoch
//!   without waiting on request work, so a reload cannot stall or drop
//!   already-accepted requests;
//! - `/v1/reload` fully validates the candidate artifact (a byte-identity
//!   round-trip via [`Artifact::read_file_verified`], then snapshot
//!   construction) *before* publishing: a bad file is a `4xx` and the old
//!   epoch keeps serving.
//!
//! The ingest engine is snapshot-independent on purpose: detector state
//! (open dwell windows, per-user ordering clocks) survives a swap, and only
//! *recognition* of newly emitted stays uses the new artifact — the
//! streaming analogue of re-annotating against a refreshed CSD.
//!
//! ## Sharding and counter accounting
//!
//! The engine is a [`ShardedEngine`]: ingest batches fan out to user-keyed
//! shards, and shards a batch does not touch defer their TTL sweep until
//! the next settled read. Every deferred sweep still happens-and-counts:
//! read paths absorb the advance outcome into this state's [`Obs`] (see
//! [`ServeState::with_obs`] — wire the *server's* obs here, or those
//! tallies vanish), and `wal.*` counters come from the engine's logical
//! [`pm_stream::WalTick`] so they read identically at any shard count.

use crate::epoch::EpochCell;
use crate::json::{self, Json};
use crate::miner::MinerStatus;
use crate::snapshot::Snapshot;
use pm_core::types::{GpsPoint, StayPoint};
use pm_geo::{GeoPoint, LocalPoint, Projection};
use pm_obs::Obs;
use pm_store::Artifact;
use pm_stream::{
    BatchOutcome, EngineConfig, IngestRecord, Recognizer, ShardConfig, ShardedEngine, StreamError,
};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, RwLock};

/// Folds one batch outcome into the stream-layer observability counters —
/// shared by the per-request ingest path and the settled-read paths so the
/// two can never drift apart in naming.
pub(crate) fn outcome_counters(obs: &Obs, outcome: &BatchOutcome) {
    obs.incr("stream.fixes_accepted", outcome.accepted);
    obs.incr("stream.stays_emitted", outcome.stays);
    obs.incr("stream.transitions_recorded", outcome.transitions);
    obs.incr("stream.transitions_late", outcome.late_transitions);
    obs.incr("stream.users_evicted", outcome.evicted);
    obs.incr("quarantine.stream_out_of_order", outcome.quarantined);
    obs.incr(
        "degradation.stream_dropped_fixes",
        outcome.dropped_non_finite,
    );
    obs.incr("motif.days_closed", outcome.motif_days_closed);
    obs.incr("motif.days_oversize", outcome.motif_days_oversize);
}

/// The shared, swappable state behind one server.
#[derive(Debug)]
pub struct ServeState {
    snapshot: EpochCell,
    engine: ShardedEngine,
    /// Default artifact path for `/v1/reload` bodies without a `path`.
    reload_path: Option<PathBuf>,
    /// Counter sink for `wal.*` activity and deferred-sweep outcomes; no-op
    /// until [`ServeState::with_obs`] wires the server's obs in.
    obs: Obs,
    /// Live status of the background re-miner, when one is attached.
    miner: RwLock<Option<Arc<Mutex<MinerStatus>>>>,
}

impl ServeState {
    /// Wraps an initial snapshot at epoch 0 with a fresh WAL-less engine,
    /// sharded per `PM_SHARDS` (default 1).
    pub fn new(snapshot: Arc<Snapshot>, engine: EngineConfig) -> Result<ServeState, StreamError> {
        let config = ShardConfig::new(pm_runtime::default_shards(), engine);
        let recognize: Recognizer = {
            let snapshot = Arc::clone(&snapshot);
            Arc::new(move |pos| snapshot.primary_category(pos))
        };
        let (engine, _) = ShardedEngine::open(config, &recognize)?;
        Ok(ServeState::with_engine(snapshot, engine))
    }

    /// Wraps an initial snapshot around an already-opened engine — the WAL
    /// recovery path, where shards were restored from checkpoints and
    /// replay rather than built fresh.
    pub fn with_engine(snapshot: Arc<Snapshot>, engine: ShardedEngine) -> ServeState {
        ServeState {
            snapshot: EpochCell::new(snapshot),
            engine,
            reload_path: None,
            obs: Obs::noop(),
            miner: RwLock::new(None),
        }
    }

    /// Sets the artifact path `/v1/reload` swaps in by default.
    pub fn with_reload_path(mut self, path: impl Into<PathBuf>) -> ServeState {
        self.reload_path = Some(path.into());
        self
    }

    /// Wires in the counter sink for `wal.*` activity and for stream
    /// outcomes discovered on settled reads (deferred TTL sweeps of shards
    /// an ingest batch didn't touch). Pass the same [`Obs`] the server
    /// runs with, or those tallies are silently dropped.
    pub fn with_obs(mut self, obs: Obs) -> ServeState {
        self.obs = obs;
        self
    }

    /// The recognizer for newly emitted stays: always the *current*
    /// snapshot, so hot-swaps take effect at the next batch.
    fn recognizer(&self) -> Recognizer {
        let (snapshot, _) = self.snapshot.load();
        Arc::new(move |pos| snapshot.primary_category(pos))
    }

    /// Counts an advance outcome (evictions etc. from catching up shards
    /// the last batches didn't touch) exactly like an ingest outcome.
    fn absorb_advance(&self, outcome: &BatchOutcome) {
        if *outcome != BatchOutcome::default() {
            outcome_counters(&self.obs, outcome);
        }
    }

    /// Publishes the re-miner's live status for `GET /v1/miner`.
    pub fn attach_miner(&self, status: Arc<Mutex<MinerStatus>>) {
        *self.miner.write().unwrap_or_else(|e| e.into_inner()) = Some(status);
    }

    /// The `GET /v1/miner` body: the re-miner's status, or
    /// `{"enabled":false}` when no re-miner is attached.
    pub fn miner_json(&self) -> String {
        let guard = self.miner.read().unwrap_or_else(|e| e.into_inner());
        match guard.as_ref() {
            Some(status) => status.lock().unwrap_or_else(|e| e.into_inner()).to_json(),
            None => "{\"enabled\":false}".to_string(),
        }
    }

    /// A snapshot of the stays accumulated for re-mining (non-draining),
    /// merged across shards in shard order after settling the engine.
    pub fn stays_snapshot(&self) -> Vec<(String, StayPoint)> {
        let (stays, advance) = self.engine.stays_snapshot(&self.recognizer());
        self.absorb_advance(&advance);
        stays
    }

    /// Cuts a WAL checkpoint of every shard's engine state right now — the
    /// graceful-shutdown path (a restart then recovers without replay).
    /// No-op without a WAL. Returns whether checkpoints were written.
    pub fn checkpoint_now(&self) -> bool {
        if self.engine.config().wal.is_none() {
            return false;
        }
        match self.engine.checkpoint_all() {
            Ok(()) => {
                self.obs.incr("wal.checkpoints", 1);
                true
            }
            Err(_) => {
                self.obs.incr("wal.checkpoint_errors", 1);
                false
            }
        }
    }

    /// The current snapshot and its epoch, read atomically together
    /// (lock-free in the steady state; see [`crate::epoch`]).
    pub fn snapshot(&self) -> (Arc<Snapshot>, u64) {
        self.snapshot.load()
    }

    /// The current epoch (0 until the first swap).
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }

    /// Publishes a new snapshot; in-flight requests keep their old `Arc`.
    /// Returns the new epoch.
    pub fn swap(&self, snapshot: Arc<Snapshot>) -> u64 {
        self.snapshot.swap(snapshot)
    }

    /// `(tracked users, buffered fixes)` — the live gauges, read after
    /// settling so any deferred per-shard TTL sweep has landed (and been
    /// counted).
    pub fn engine_gauges(&self) -> (usize, usize) {
        let (gauges, advance) = self.engine.gauges(&self.recognizer());
        self.absorb_advance(&advance);
        gauges
    }

    /// `POST /v1/ingest` on the raw body, decoded straight into records
    /// with no [`Json`] tree. Answers exactly as [`ServeState::ingest_json`]
    /// does for the parsed body; a blank body reads as `{}`.
    pub fn ingest_body(
        &self,
        body: &[u8],
        max_records: usize,
    ) -> Result<(String, BatchOutcome), (u16, String)> {
        let text = json::body_text(body).map_err(|m| (400, m))?;
        let (snapshot, epoch) = self.snapshot();
        let records = decode_records(text, snapshot.projection(), max_records)?;
        Ok(self.ingest_records(snapshot, epoch, records))
    }

    /// `POST /v1/ingest` on a parsed body: `{"fixes":[...]}` and/or
    /// `{"stays":[...]}` entries (`user`, `t`, and `x`/`y` or `lat`/`lon`
    /// each), fed to the engine against the *current* snapshot, with the
    /// outcome rendered. Batches over `max_records` are refused with `429`
    /// — the client must back off and split.
    pub fn ingest_json(
        &self,
        body: &Json,
        max_records: usize,
    ) -> Result<(String, BatchOutcome), (u16, String)> {
        let (snapshot, epoch) = self.snapshot();
        let records = records_of(body, snapshot.projection(), max_records)?;
        Ok(self.ingest_records(snapshot, epoch, records))
    }

    fn ingest_records(
        &self,
        snapshot: Arc<Snapshot>,
        epoch: u64,
        records: Vec<(String, IngestRecord)>,
    ) -> (String, BatchOutcome) {
        // Crash safety: the batch hits each touched shard's log before its
        // engine (inside `ingest_batch`). The tick is logical — one batch,
        // however many shard logs it fanned to — and an append failure is
        // counted and tolerated: losing durability for one batch degrades
        // recovery, but must never turn ingest into a 5xx.
        let recognize: Recognizer = Arc::new(move |pos| snapshot.primary_category(pos));
        let (outcome, tick) = self.engine.ingest_batch(records, &recognize);
        self.obs.incr("wal.appended_batches", tick.appended_batches);
        self.obs.incr("wal.appended_records", tick.appended_records);
        self.obs.incr("wal.segments_rolled", tick.segments_rolled);
        self.obs.incr("wal.append_errors", tick.append_errors);
        // Periodic checkpoint at the WAL's cadence; two threads racing here
        // at worst cut one redundant checkpoint.
        if self.engine.should_checkpoint() {
            self.checkpoint_now();
        }
        let body = format!(
            "{{\"epoch\":{epoch},\"accepted\":{},\"quarantined\":{},\"dropped\":{},\"stays\":{},\"transitions\":{},\"late_transitions\":{},\"evicted\":{},\"motif_days_closed\":{},\"motif_days_oversize\":{}}}",
            outcome.accepted,
            outcome.quarantined,
            outcome.dropped_non_finite,
            outcome.stays,
            outcome.transitions,
            outcome.late_transitions,
            outcome.evicted,
            outcome.motif_days_closed,
            outcome.motif_days_oversize,
        );
        (body, outcome)
    }

    /// `GET /v1/live/patterns`: the sliding-window transition counts,
    /// merged deterministically across shards — the body is byte-identical
    /// for shards=1 and shards=N over the same logical record stream.
    pub fn live_patterns_json(&self) -> String {
        let (view, advance) = self.engine.live_view(&self.recognizer());
        self.absorb_advance(&advance);
        let mut out = format!("{{\"epoch\":{}", self.epoch());
        match view.as_of {
            Some(t) => {
                let _ = write!(out, ",\"as_of\":{t}");
            }
            None => out.push_str(",\"as_of\":null"),
        }
        let _ = write!(
            out,
            ",\"window_secs\":{},\"users\":{},\"stays\":{},\"total\":{},\"late_dropped\":{},\"transitions\":[",
            view.window_secs, view.users, view.stays, view.total, view.late_dropped,
        );
        for (i, (from, to, count)) in view.transitions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"from\":");
            pm_obs::json::write_str(&mut out, from.name());
            out.push_str(",\"to\":");
            pm_obs::json::write_str(&mut out, to.name());
            let _ = write!(out, ",\"count\":{count}}}");
        }
        out.push_str("]}");
        out
    }

    /// `GET /v1/live/motifs`: the in-window mobility-motif classes, merged
    /// deterministically across shards. Only in-window content and the
    /// lifetime closure tallies are exposed — never the window-internal
    /// late/recorded split, which can legitimately differ between eager
    /// (shards=1) and lazily-swept (shards=N) layouts — so the body is
    /// byte-identical at any shard count over the same logical stream.
    pub fn live_motifs_json(&self) -> String {
        let (view, advance) = self.engine.live_motifs(&self.recognizer());
        self.absorb_advance(&advance);
        let mut out = format!("{{\"epoch\":{}", self.epoch());
        match view.as_of {
            Some(t) => {
                let _ = write!(out, ",\"as_of\":{t}");
            }
            None => out.push_str(",\"as_of\":null"),
        }
        let _ = write!(
            out,
            ",\"window_days\":{},\"days_closed\":{},\"days_oversize\":{},\"total_days\":{},\"oversize_days\":{},\"classes\":[",
            view.window_days,
            view.days_closed,
            view.days_oversize,
            view.table.total_days,
            view.table.oversize_days,
        );
        for (i, class) in view.table.classes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            crate::snapshot::push_motif_class(&mut out, class);
        }
        out.push_str("]}");
        out
    }

    /// `POST /v1/reload`: validates the artifact at `path` (body override)
    /// or the configured reload path, then swaps it in. Returns the success
    /// body; errors carry the status to answer with — the old snapshot
    /// keeps serving on any failure.
    pub fn reload_json(&self, body: &Json) -> Result<String, (u16, String)> {
        let path: PathBuf = match body.get("path").map(|p| p.as_str()) {
            Some(Some(p)) => PathBuf::from(p),
            Some(None) => return Err((400, "path must be a string".to_string())),
            None => self.reload_path.clone().ok_or((
                400,
                "no artifact path configured; pass {\"path\":...}".to_string(),
            ))?,
        };
        let artifact = Artifact::read_file_verified(&path)
            .map_err(|e| (400, format!("{}: {e}", path.display())))?;
        let snapshot =
            Snapshot::new(artifact).map_err(|m| (400, format!("{}: {m}", path.display())))?;
        let health = snapshot.healthz_json();
        let epoch = self.swap(Arc::new(snapshot));
        // healthz is `{"status":...}`; splice the epoch in for the reply.
        let tail = health.strip_prefix('{').unwrap_or(&health);
        Ok(format!("{{\"epoch\":{epoch},{tail}"))
    }
}

/// The members of an ingest entry that the record rules read, in the
/// order [`record`] takes them.
const FIELDS: [&str; 6] = ["user", "t", "x", "y", "lat", "lon"];

/// One ingest entry from its [`FIELDS`] values (the last duplicate key
/// wins): `user` a non-empty string or an integer, `t` integral, and
/// `x`/`y` local meters or `lat`/`lon` (geo-anchored artifacts only).
fn record(
    fields: [Option<Json>; 6],
    projection: Option<&Projection>,
    is_fix: bool,
) -> Result<(String, IngestRecord), String> {
    let [user, t, x, y, lat, lon] = fields;
    let user = match user {
        Some(Json::String(s)) if !s.is_empty() => s,
        Some(u) => match u.as_i64() {
            Some(n) => n.to_string(),
            None => return Err("user must be a non-empty string or integer".to_string()),
        },
        None => return Err("user missing".to_string()),
    };
    let t = t
        .as_ref()
        .and_then(Json::as_i64)
        .ok_or("t missing or not an integer")?;
    let num = |v: &Option<Json>| v.as_ref().and_then(Json::as_f64);
    let pos = match (num(&x), num(&y), num(&lat), num(&lon)) {
        (Some(x), Some(y), None, None) => LocalPoint::new(x, y),
        (None, None, Some(lat), Some(lon)) => projection
            .ok_or("artifact has no projection; records need x/y")?
            .to_local(GeoPoint::new(lon, lat)),
        _ => return Err("needs x&y or lat&lon".to_string()),
    };
    let point = GpsPoint::new(pos, t);
    Ok((
        user,
        if is_fix {
            IngestRecord::Fix(point)
        } else {
            IngestRecord::Stay(point)
        },
    ))
}

/// Each entry's [`record`] verdict, in body order.
type Verdicts = Vec<Result<(String, IngestRecord), String>>;

/// The batch rules over what a body holds under `fixes` and `stays` —
/// absent, not an array, or an array's verdicts: `fixes` before `stays`
/// whatever the key order, the `429` limit on the running total, and a
/// `key[i]: message` error for the first bad entry.
fn gather(
    members: [Option<Option<Verdicts>>; 2],
    max_records: usize,
) -> Result<Vec<(String, IngestRecord)>, (u16, String)> {
    let mut records = Vec::new();
    let mut keyed = false;
    for (key, member) in ["fixes", "stays"].into_iter().zip(members) {
        let Some(verdicts) = member else {
            continue;
        };
        keyed = true;
        let verdicts = verdicts.ok_or_else(|| (400, format!("{key} must be an array")))?;
        if records.len() + verdicts.len() > max_records {
            return Err((
                429,
                format!("batch too large (max {max_records} records); split and retry"),
            ));
        }
        for (i, verdict) in verdicts.into_iter().enumerate() {
            records.push(verdict.map_err(|m| (400, format!("{key}[{i}]: {m}")))?);
        }
    }
    if !keyed {
        return Err((
            400,
            "body must be {\"fixes\":[...]} and/or {\"stays\":[...]}".to_string(),
        ));
    }
    Ok(records)
}

/// The records of a parsed ingest body.
fn records_of(
    body: &Json,
    projection: Option<&Projection>,
    max_records: usize,
) -> Result<Vec<(String, IngestRecord)>, (u16, String)> {
    let member = |key, is_fix| {
        let fields = |entry: &Json| FIELDS.map(|field| entry.get(field).cloned());
        let verdicts = |entries: &[Json]| {
            let verdict = |entry| record(fields(entry), projection, is_fix);
            entries.iter().map(verdict).collect()
        };
        body.get(key).map(|value| value.as_array().map(verdicts))
    };
    gather([member("fixes", true), member("stays", false)], max_records)
}

/// The records of an ingest body's text, read in one walk with no [`Json`]
/// tree: per entry, only a string user id allocates, plus the values of
/// unknown or mistyped members. The walk reads through [`json::Cursor`],
/// the parser's own lexer, at the depths the parser would reach, so it
/// answers exactly as [`json::parse`] then [`records_of`] do: a syntax
/// error wherever it sits comes first, then the batch rules.
fn decode_records(
    text: &str,
    projection: Option<&Projection>,
    max_records: usize,
) -> Result<Vec<(String, IngestRecord)>, (u16, String)> {
    let mut members: [Option<Option<Verdicts>>; 2] = [None, None];
    let mut cursor = json::Cursor::new(text);
    let walked = if cursor.peek() == Some(b'{') {
        cursor.object(|cursor, key| {
            let (slot, is_fix) = match &*key {
                "fixes" => (0, true),
                "stays" => (1, false),
                _ => return cursor.value(1).map(drop),
            };
            if cursor.peek() != Some(b'[') {
                members[slot] = Some(None);
                return cursor.value(1).map(drop);
            }
            let mut verdicts = Vec::new();
            cursor.array(|cursor| {
                let mut fields: [Option<Json>; 6] = Default::default();
                if cursor.peek() == Some(b'{') {
                    cursor.object(|cursor, key| {
                        let value = cursor.value(3)?;
                        if let Some(i) = FIELDS.iter().position(|field| *field == key) {
                            fields[i] = Some(value);
                        }
                        Ok(())
                    })?;
                } else {
                    cursor.value(2)?;
                }
                verdicts.push(record(fields, projection, is_fix));
                Ok(())
            })?;
            members[slot] = Some(Some(verdicts));
            Ok(())
        })
    } else {
        cursor.value(0).map(drop)
    };
    walked
        .and_then(|()| cursor.finish())
        .map_err(|e| (400, format!("invalid JSON: {e}")))?;
    gather(members, max_records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_core::prelude::*;
    use std::collections::BTreeMap;

    fn state() -> ServeState {
        let params = MinerParams::default();
        let csd = CitySemanticDiagram::build(&[], &[], &params).expect("build");
        let snapshot =
            Arc::new(Snapshot::new(Artifact::new(csd, Vec::new(), params)).expect("snapshot"));
        ServeState::new(snapshot, EngineConfig::from_miner(&params)).expect("state")
    }

    #[test]
    fn ingest_parses_both_record_kinds() {
        let s = state();
        let body = json::parse(
            "{\"fixes\":[{\"user\":\"a\",\"x\":0,\"y\":0,\"t\":1}],\
             \"stays\":[{\"user\":7,\"x\":5,\"y\":5,\"t\":2}]}",
        )
        .unwrap();
        let (rendered, outcome) = s.ingest_json(&body, 100).unwrap();
        assert_eq!(outcome.accepted, 2);
        assert_eq!(outcome.stays, 1); // the stay record; the fix still buffers
        assert!(
            rendered.starts_with("{\"epoch\":0,\"accepted\":2,"),
            "{rendered}"
        );
    }

    #[test]
    fn ingest_rejects_malformed_and_oversized() {
        let s = state();
        for bad in [
            "{}",
            "{\"fixes\":1}",
            "{\"fixes\":[{\"x\":0,\"y\":0,\"t\":1}]}",
            "{\"fixes\":[{\"user\":\"a\",\"t\":1}]}",
            "{\"fixes\":[{\"user\":\"a\",\"x\":0,\"y\":0}]}",
            "{\"fixes\":[{\"user\":\"a\",\"lat\":1,\"lon\":2,\"t\":1}]}",
        ] {
            let body = json::parse(bad).unwrap();
            let (status, _) = s.ingest_json(&body, 100).unwrap_err();
            assert_eq!(status, 400, "{bad}");
        }
        let body =
            json::parse("{\"fixes\":[{\"user\":\"a\",\"x\":0,\"y\":0,\"t\":1},{\"user\":\"a\",\"x\":0,\"y\":0,\"t\":2}]}")
                .unwrap();
        let (status, msg) = s.ingest_json(&body, 1).unwrap_err();
        assert_eq!(status, 429, "{msg}");
    }

    /// The ingest path before the typed decoder, kept as the oracle: the
    /// server's body parse into a [`Json`] tree, then the record walk over
    /// it. Only the snapshot argument changed, to the projection it read.
    fn oracle(
        body: &[u8],
        projection: Option<&Projection>,
        max_records: usize,
    ) -> Result<Vec<(String, IngestRecord)>, (u16, String)> {
        let parse_body = || -> Result<Json, String> {
            let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
            if text.trim().is_empty() {
                return json::parse("{}").map_err(|e| format!("invalid JSON: {e}"));
            }
            json::parse(text).map_err(|e| format!("invalid JSON: {e}"))
        };
        let body = parse_body().map_err(|m| (400u16, m))?;
        let mut records: Vec<(String, IngestRecord)> = Vec::new();
        let mut keyed = false;
        for (key, is_fix) in [("fixes", true), ("stays", false)] {
            let Some(entries) = body.get(key) else {
                continue;
            };
            keyed = true;
            let entries = entries
                .as_array()
                .ok_or_else(|| (400, format!("{key} must be an array")))?;
            if records.len() + entries.len() > max_records {
                return Err((
                    429,
                    format!("batch too large (max {max_records} records); split and retry"),
                ));
            }
            for (i, entry) in entries.iter().enumerate() {
                let record = oracle_record(projection, entry, is_fix)
                    .map_err(|m| (400, format!("{key}[{i}]: {m}")))?;
                records.push(record);
            }
        }
        if !keyed {
            return Err((
                400,
                "body must be {\"fixes\":[...]} and/or {\"stays\":[...]}".to_string(),
            ));
        }
        Ok(records)
    }

    fn oracle_record(
        projection: Option<&Projection>,
        entry: &Json,
        is_fix: bool,
    ) -> Result<(String, IngestRecord), String> {
        let user = match entry.get("user") {
            Some(u) => match (u.as_str(), u.as_i64()) {
                (Some(s), _) if !s.is_empty() => s.to_string(),
                (_, Some(n)) => n.to_string(),
                _ => return Err("user must be a non-empty string or integer".to_string()),
            },
            None => return Err("user missing".to_string()),
        };
        let t = entry
            .get("t")
            .and_then(Json::as_i64)
            .ok_or("t missing or not an integer")?;
        let num = |name: &str| -> Option<f64> { entry.get(name).and_then(Json::as_f64) };
        let pos = match (num("x"), num("y"), num("lat"), num("lon")) {
            (Some(x), Some(y), None, None) => LocalPoint::new(x, y),
            (None, None, Some(lat), Some(lon)) => projection
                .ok_or("artifact has no projection; records need x/y")?
                .to_local(GeoPoint::new(lon, lat)),
            _ => return Err("needs x&y or lat&lon".to_string()),
        };
        let point = GpsPoint::new(pos, t);
        Ok((
            user,
            if is_fix {
                IngestRecord::Fix(point)
            } else {
                IngestRecord::Stay(point)
            },
        ))
    }

    type Decoded = Result<Vec<(String, bool, u64, u64, i64)>, (u16, String)>;

    /// Records with coordinates as bit patterns, so equal means identical.
    fn bitwise(decoded: Result<Vec<(String, IngestRecord)>, (u16, String)>) -> Decoded {
        decoded.map(|records| {
            records
                .into_iter()
                .map(|(user, record)| {
                    let (is_fix, p) = match record {
                        IngestRecord::Fix(p) => (true, p),
                        IngestRecord::Stay(p) => (false, p),
                    };
                    (user, is_fix, p.pos.x.to_bits(), p.pos.y.to_bits(), p.time)
                })
                .collect()
        })
    }

    /// Random ingest bodies from structured choices: key order, duplicate
    /// keys, escaped keys and users, unknown members nested around the
    /// depth limit, mistyped values and non-object entries. A `valid`
    /// generator only makes well-formed entries, so plenty of bodies decode.
    struct Bodies<'r> {
        rng: &'r mut proptest::test_runner::TestRng,
        valid: bool,
    }

    impl Bodies<'_> {
        fn below(&mut self, n: usize) -> usize {
            self.rng.below(n as u128) as usize
        }

        /// Rarely, unless the generator is `valid`.
        fn odd(&mut self, one_in: usize) -> bool {
            !self.valid && self.below(one_in) == 0
        }

        fn pick(&mut self, items: &[&str]) -> String {
            items[self.below(items.len())].to_string()
        }

        fn nested(&mut self) -> String {
            let depth = 24 + self.below(14);
            let (open, close) = if self.below(2) == 0 {
                ("[", "]")
            } else {
                ("{\"k\":", "}")
            };
            let inner = self.pick(&["1", "\"s\"", "null", "[]"]);
            format!("{}{inner}{}", open.repeat(depth), close.repeat(depth))
        }

        fn value(&mut self, key: &str) -> String {
            let bad = self.odd(4);
            match (key, bad) {
                ("user", false) => self.pick(&[
                    "\"u1\"",
                    "\"u2\"",
                    "\"a\\u0062\\n\\\"\"",
                    "\"\u{e9}t\u{e9}\"",
                    "7",
                    "-3",
                    "3.0",
                    "1e3",
                    "9223372036854775807",
                ]),
                ("user", true) => {
                    self.pick(&["\"\"", "1.5", "1e19", "true", "null", "[1]", "{\"a\":1}"])
                }
                ("t", false) => self.pick(&["3600", "0", "-5", "-0.0", "1E2", "9.3e17"]),
                ("t", true) => self.pick(&["1.5", "1e300", "9.3e18", "\"12\"", "null"]),
                (_, false) => self.pick(&["0", "12.5", "-3e2", "1e-7", "31.2", "121.47"]),
                (_, true) => self.pick(&["\"1\"", "null", "[0]", "{}"]),
            }
        }

        fn entry(&mut self) -> String {
            if self.odd(8) {
                return self.pick(&["1", "\"s\"", "[]", "null", "true", "[{\"user\":1}]"]);
            }
            let mut keys: Vec<&str> = vec!["user", "t"];
            let shape = if self.odd(2) { self.below(4) } else { 4 };
            keys.extend(match shape {
                0 => &["lat", "lon"][..],
                1 => &["x", "y", "lat", "lon"][..],
                2 => &["x"][..],
                3 => &[][..],
                _ => &["x", "y"][..],
            });
            keys.retain(|_| !self.odd(12));
            if self.below(6) == 0 {
                let again = keys.get(self.below(keys.len().max(1))).copied();
                keys.extend(again);
            }
            let mut members: Vec<String> = keys
                .iter()
                .map(|&key| {
                    let name = match (key, self.below(8)) {
                        ("user", 0) => "\\u0075ser",
                        ("t", 0) => "\\u0074",
                        _ => key,
                    };
                    format!("\"{name}\":{}", self.value(key))
                })
                .collect();
            if self.below(6) == 0 {
                let unknown = self.pick(&["\"note\"", "\"fixes\"", "\"id\""]);
                members.push(format!("{unknown}:{}", self.nested()));
            }
            for i in (1..members.len()).rev() {
                members.swap(i, self.below(i + 1));
            }
            format!("{{{}}}", members.join(","))
        }

        fn entries(&mut self) -> String {
            if self.odd(12) {
                return self.pick(&["{}", "1", "\"x\"", "null"]);
            }
            let n = self.below(7);
            let entries: Vec<String> = (0..n).map(|_| self.entry()).collect();
            format!("[{}]", entries.join(","))
        }

        fn body(&mut self) -> String {
            if self.odd(20) {
                return self.pick(&["[]", "1", "\"s\"", "null", "[{\"fixes\":[]}]"]);
            }
            let n = 1 + self.below(4);
            let members: Vec<String> = (0..n)
                .map(|_| match self.below(10) {
                    0..=3 => format!("\"fixes\":{}", self.entries()),
                    4..=6 => format!("\"stays\":{}", self.entries()),
                    7 => format!("\"fi\\u0078es\":{}", self.entries()),
                    _ => format!("\"meta\":{}", self.nested()),
                })
                .collect();
            format!("{{{}}}", members.join(", "))
        }

        /// Damages a body: truncation, a byte flip, inserted whitespace, or
        /// a blank or whitespace-only replacement.
        fn mutate(&mut self, body: &[u8]) -> Vec<u8> {
            let mut out = body.to_vec();
            let at = self.below(out.len() + 1);
            match self.below(4) {
                0 => out.truncate(at),
                1 if !out.is_empty() => {
                    let bytes = b"\xff\xc3\"{}[],:\\0-e x";
                    let at = at.min(out.len() - 1);
                    out[at] = bytes[self.below(bytes.len())];
                }
                2 => out.insert(at, b" \t\n\r"[self.below(4)]),
                _ => {
                    out = self
                        .pick(&["", "  \n\t", "\u{a0}", "\u{b}", " {} \u{b}"])
                        .into_bytes()
                }
            }
            out
        }
    }

    #[test]
    fn typed_decoder_answers_like_the_tree_oracle() {
        let geo = Projection::new(GeoPoint::new(121.4737, 31.2304));
        let mut outcomes: BTreeMap<&str, usize> = BTreeMap::new();
        proptest::test_runner::run_cases(
            proptest::test_runner::ProptestConfig::with_cases(2_048),
            "typed_decoder_answers_like_the_tree_oracle",
            |rng| {
                let valid = rng.below(3) == 0;
                let mut bodies = Bodies { rng, valid };
                let projection = (bodies.below(3) != 0).then_some(&geo);
                let max_records = [0, 1, 2, 3, 5, 8, 100][bodies.below(7)];
                let body = bodies.body().into_bytes();
                let mut cases = vec![body.clone()];
                for _ in 0..3 {
                    let damaged = bodies.mutate(&body);
                    cases.push(damaged);
                }
                for case in &cases {
                    let expected = bitwise(oracle(case, projection, max_records));
                    let decoded = bitwise(
                        json::body_text(case)
                            .map_err(|m| (400, m))
                            .and_then(|text| decode_records(text, projection, max_records)),
                    );
                    let kind = match &expected {
                        Ok(_) => "ok",
                        Err((429, _)) => "too large",
                        Err((_, m)) if m.starts_with("invalid JSON") => "syntax",
                        Err((_, m)) if m.contains("]: ") => "bad entry",
                        Err(_) => "bad body",
                    };
                    *outcomes.entry(kind).or_default() += 1;
                    proptest::prop_assert_eq!(
                        &decoded,
                        &expected,
                        "body {:?}",
                        String::from_utf8_lossy(case)
                    );
                }
                Ok(())
            },
        );
        for kind in ["ok", "too large", "syntax", "bad entry", "bad body"] {
            let seen = outcomes.get(kind).copied().unwrap_or(0);
            assert!(seen >= 100, "only {seen} {kind:?} answers: {outcomes:?}");
        }
    }

    #[test]
    fn live_patterns_render_on_empty_engine() {
        let s = state();
        let body = s.live_patterns_json();
        assert!(body.contains("\"as_of\":null"), "{body}");
        assert!(body.ends_with("\"transitions\":[]}"), "{body}");
    }

    #[test]
    fn live_motifs_render_on_empty_engine() {
        let s = state();
        assert_eq!(
            s.live_motifs_json(),
            "{\"epoch\":0,\"as_of\":null,\"window_days\":7,\"days_closed\":0,\
             \"days_oversize\":0,\"total_days\":0,\"oversize_days\":0,\"classes\":[]}"
        );
    }

    #[test]
    fn reload_without_path_is_400_and_keeps_epoch() {
        let s = state();
        let body = json::parse("{}").unwrap();
        let (status, _) = s.reload_json(&body).unwrap_err();
        assert_eq!(status, 400);
        let body = json::parse("{\"path\":\"/nonexistent/city.pmstore\"}").unwrap();
        let (status, _) = s.reload_json(&body).unwrap_err();
        assert_eq!(status, 400);
        assert_eq!(s.epoch(), 0);
    }

    #[test]
    fn swap_bumps_epoch_and_old_arcs_survive() {
        let s = state();
        let (old, epoch0) = s.snapshot();
        assert_eq!(epoch0, 0);
        let params = MinerParams::default();
        let csd = CitySemanticDiagram::build(&[], &[], &params).expect("build");
        let fresh =
            Arc::new(Snapshot::new(Artifact::new(csd, Vec::new(), params)).expect("snapshot"));
        assert_eq!(s.swap(fresh), 1);
        let (_, epoch1) = s.snapshot();
        assert_eq!(epoch1, 1);
        // The old snapshot is still fully usable by in-flight requests.
        assert!(old.healthz_json().contains("\"status\":\"ok\""));
    }
}
