//! The immutable in-memory state of the service and its query semantics.
//!
//! A [`Snapshot`] wraps one loaded [`Artifact`] plus the derived recognition
//! kernel and projection, and renders every endpoint's JSON *in process*.
//! The HTTP layer is a thin transport over these methods — integration tests
//! assert that the bytes served over a socket are identical to what the
//! snapshot returns directly, so there is exactly one source of truth for
//! response content.

use crate::json::Json;
use pm_cluster::GaussianKernel;
use pm_cohort::{Cohort, CohortIndex, CohortTable, SimilarScope, UserRecord};
use pm_core::query::PatternQuery;
use pm_core::recognize::{detect_stay_points, recognize_stay_point_unit};
use pm_core::types::{Category, GpsPoint, GpsTrajectory, StayPoint, Tags, WeekBucket};
use pm_geo::{GeoPoint, LocalPoint, Projection};
use pm_io::parse_category;
use pm_motif::{MotifClass, MAX_NODES};
use pm_obs::json::{write_number, write_str};
use pm_store::Artifact;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// Default (and maximum) number of patterns one query returns.
pub const DEFAULT_PATTERN_LIMIT: usize = 50;
/// Hard cap on GPS fixes in one annotate request.
pub const MAX_ANNOTATE_POINTS: usize = 100_000;

/// One loaded artifact, frozen for serving.
#[derive(Debug)]
pub struct Snapshot {
    artifact: Artifact,
    kernel: GaussianKernel,
    projection: Option<Projection>,
    /// Per-cohort member lists, derived once at freeze time when the
    /// artifact carries a cohort index — the immutable side structure the
    /// per-user endpoints search against.
    cohort_index: Option<CohortIndex>,
    /// Rendered cohort entries and motif classes, built on the first
    /// `/v1/cohorts` or `/v1/motifs` request and dropped with the snapshot.
    fragments: OnceLock<Fragments>,
}

/// What every `/v1/cohorts` and `/v1/motifs` answer splices: each cohort's
/// entry (the suppression marker below `k_min`), in id order, and each
/// motif class, in rank order.
#[derive(Debug)]
struct Fragments {
    cohorts: Vec<String>,
    motif_classes: Vec<String>,
}

impl Snapshot {
    /// Freezes an artifact for serving. Fails (rather than panicking later)
    /// when the stored parameters cannot drive recognition.
    pub fn new(artifact: Artifact) -> Result<Snapshot, String> {
        let r3sigma = artifact.params.r3sigma;
        if !(r3sigma.is_finite() && r3sigma > 0.0) {
            return Err(format!("artifact r3sigma {r3sigma} is not a valid radius"));
        }
        let projection = artifact.projection.map(Projection::new);
        let cohort_index = artifact.cohorts.as_ref().map(CohortIndex::build);
        Ok(Snapshot {
            kernel: GaussianKernel::new(r3sigma),
            projection,
            cohort_index,
            fragments: OnceLock::new(),
            artifact,
        })
    }

    fn fragments(&self) -> &Fragments {
        fn render<T>(items: &[T], push: impl Fn(&mut String, &T)) -> Vec<String> {
            items
                .iter()
                .map(|item| {
                    let mut out = String::new();
                    push(&mut out, item);
                    out
                })
                .collect()
        }
        self.fragments.get_or_init(|| Fragments {
            cohorts: self
                .artifact
                .cohorts
                .as_ref()
                .map_or_else(Vec::new, |table| {
                    render(&table.cohorts, |out, cohort| {
                        push_cohort_entry(out, table, cohort)
                    })
                }),
            motif_classes: self
                .artifact
                .motifs
                .as_ref()
                .map_or_else(Vec::new, |table| render(&table.classes, push_motif_class)),
        })
    }

    /// The wrapped artifact.
    pub fn artifact(&self) -> &Artifact {
        &self.artifact
    }

    /// Whether `lat`/`lon` queries are possible.
    pub fn has_projection(&self) -> bool {
        self.projection.is_some()
    }

    /// The projection, when the artifact is geo-anchored.
    pub fn projection(&self) -> Option<&Projection> {
        self.projection.as_ref()
    }

    /// Algorithm 3's vote at a single point, reduced to the primary
    /// category — the recognizer the live ingest engine runs emitted stays
    /// through.
    pub fn primary_category(&self, pos: LocalPoint) -> Option<Category> {
        recognize_stay_point_unit(&self.artifact.csd, &self.kernel, pos).2
    }

    // -- /healthz ----------------------------------------------------------

    /// The `/healthz` body.
    pub fn healthz_json(&self) -> String {
        format!(
            "{{\"status\":\"ok\",\"pois\":{},\"units\":{},\"patterns\":{},\"geo\":{}}}",
            self.artifact.csd.pois().len(),
            self.artifact.csd.units().len(),
            self.artifact.patterns.len(),
            self.has_projection()
        )
    }

    // -- /v1/semantic ------------------------------------------------------

    /// Resolves a query position from `x`/`y` (local meters) or `lat`/`lon`
    /// (requires a geo-anchored artifact).
    pub fn resolve_point(
        &self,
        x: Option<&str>,
        y: Option<&str>,
        lat: Option<&str>,
        lon: Option<&str>,
    ) -> Result<LocalPoint, String> {
        let parse = |name: &str, v: &str| -> Result<f64, String> {
            let f: f64 = v
                .parse()
                .map_err(|_| format!("{name} is not a number: {v:?}"))?;
            if f.is_finite() {
                Ok(f)
            } else {
                Err(format!("{name} must be finite"))
            }
        };
        match (x, y, lat, lon) {
            (Some(x), Some(y), None, None) => Ok(LocalPoint::new(parse("x", x)?, parse("y", y)?)),
            (None, None, Some(lat), Some(lon)) => {
                let projection = self
                    .projection
                    .as_ref()
                    .ok_or("artifact has no projection; use x/y local meters")?;
                Ok(projection.to_local(GeoPoint::new(parse("lon", lon)?, parse("lat", lat)?)))
            }
            (None, None, None, None) => Err("missing coordinates: pass x&y or lat&lon".into()),
            _ => Err("pass either x&y or lat&lon, not a mixture".into()),
        }
    }

    /// The `/v1/semantic` body for a resolved position: Algorithm 3's
    /// weighted vote at a single point.
    pub fn semantic_json(&self, pos: LocalPoint) -> String {
        let (unit, tags, primary) =
            recognize_stay_point_unit(&self.artifact.csd, &self.kernel, pos);
        let mut out = String::from("{\"query\":");
        self.push_point(&mut out, pos);
        out.push_str(",\"unit\":");
        match unit {
            None => out.push_str("null"),
            Some(id) => {
                let u = &self.artifact.csd.units()[id];
                let _ = write!(
                    out,
                    "{{\"id\":{id},\"size\":{},\"center\":",
                    u.members.len()
                );
                self.push_point(&mut out, u.center);
                out.push_str(",\"tags\":");
                push_tags(&mut out, u.tags);
                out.push('}');
            }
        }
        out.push_str(",\"tags\":");
        push_tags(&mut out, tags);
        out.push_str(",\"primary\":");
        push_primary(&mut out, primary);
        out.push('}');
        out
    }

    // -- /v1/annotate ------------------------------------------------------

    /// The `/v1/annotate` body: a raw trajectory (JSON) through stay-point
    /// detection (Definition 5) and semantic recognition (Algorithm 3),
    /// using the thresholds the artifact was mined with.
    pub fn annotate_json(&self, body: &Json) -> Result<String, String> {
        let points = body
            .get("points")
            .and_then(Json::as_array)
            .ok_or("body must be {\"points\": [...]}")?;
        if points.len() > MAX_ANNOTATE_POINTS {
            return Err(format!("too many points (max {MAX_ANNOTATE_POINTS})"));
        }
        let mut fixes = Vec::with_capacity(points.len());
        for (i, p) in points.iter().enumerate() {
            let t = p
                .get("t")
                .and_then(Json::as_i64)
                .ok_or_else(|| format!("points[{i}].t missing or not an integer"))?;
            let num = |name: &str| -> Option<f64> { p.get(name).and_then(Json::as_f64) };
            let pos = match (num("x"), num("y"), num("lat"), num("lon")) {
                (Some(x), Some(y), None, None) => LocalPoint::new(x, y),
                (None, None, Some(lat), Some(lon)) => self
                    .projection
                    .as_ref()
                    .ok_or("artifact has no projection; points need x/y")?
                    .to_local(GeoPoint::new(lon, lat)),
                _ => return Err(format!("points[{i}] needs x&y or lat&lon")),
            };
            fixes.push(GpsPoint::new(pos, t));
        }
        // Tolerate out-of-order uploads: detection requires time order.
        fixes.sort_by_key(|f| f.time);
        let traj = GpsTrajectory::new(fixes);
        let stays = detect_stay_points(&traj, &self.artifact.params);

        let mut out = format!("{{\"points\":{},\"stays\":[", traj.points.len());
        for (i, sp) in stays.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            self.push_stay(&mut out, sp, true);
        }
        out.push_str("]}");
        Ok(out)
    }

    // -- /v1/patterns ------------------------------------------------------

    /// Builds a [`PatternQuery`] (plus result limit) from decoded query
    /// parameters. Unknown parameters are rejected so typos fail loudly.
    pub fn pattern_query_from_params(
        &self,
        params: &[(String, String)],
    ) -> Result<(PatternQuery, usize), String> {
        let mut q = PatternQuery::new();
        let mut limit = DEFAULT_PATTERN_LIMIT;
        for (key, value) in params {
            match key.as_str() {
                "from" => q = q.from_category(parse_cat(value)?),
                "to" => q = q.to_category(parse_cat(value)?),
                "involving" => q = q.involving(parse_cat(value)?),
                "min_support" => q = q.min_support(parse_usize(key, value)?),
                "min_len" => q = q.min_len(parse_usize(key, value)?),
                "max_len" => q = q.max_len(parse_usize(key, value)?),
                "bucket" => q = q.in_bucket(parse_bucket(value)?),
                "near" => {
                    let (center, radius) = self.parse_near(value, false)?;
                    q = q.near(center, radius);
                }
                "near_ll" => {
                    let (center, radius) = self.parse_near(value, true)?;
                    q = q.near(center, radius);
                }
                "limit" => limit = parse_usize(key, value)?.min(DEFAULT_PATTERN_LIMIT),
                other => return Err(format!("unknown parameter {other:?}")),
            }
        }
        Ok((q, limit))
    }

    /// `near=x,y,radius` (local meters) or `near_ll=lon,lat,radius`.
    fn parse_near(&self, value: &str, geographic: bool) -> Result<(LocalPoint, f64), String> {
        let parts: Vec<&str> = value.split(',').collect();
        if parts.len() != 3 {
            return Err(format!(
                "near wants three comma-separated numbers, got {value:?}"
            ));
        }
        let mut nums = [0.0f64; 3];
        for (slot, part) in nums.iter_mut().zip(&parts) {
            *slot = part
                .trim()
                .parse()
                .map_err(|_| format!("near component {part:?} is not a number"))?;
            if !slot.is_finite() {
                return Err("near components must be finite".into());
            }
        }
        let radius = nums[2];
        if radius < 0.0 {
            return Err("near radius must be non-negative".into());
        }
        let center = if geographic {
            self.projection
                .as_ref()
                .ok_or("artifact has no projection; use near=x,y,r")?
                .to_local(GeoPoint::new(nums[0], nums[1]))
        } else {
            LocalPoint::new(nums[0], nums[1])
        };
        Ok((center, radius))
    }

    /// The `/v1/patterns` body for a built query.
    pub fn patterns_json(&self, query: &PatternQuery, limit: usize) -> String {
        let matches = query.run(&self.artifact.patterns);
        let total = matches.len();
        let mut out = format!(
            "{{\"total\":{total},\"returned\":{},\"patterns\":[",
            total.min(limit)
        );
        for (i, p) in matches.iter().take(limit).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"categories\":[");
            for (k, c) in p.categories.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                write_str(&mut out, c.name());
            }
            let _ = write!(
                out,
                "],\"support\":{},\"len\":{},\"stays\":[",
                p.support(),
                p.len()
            );
            for (k, sp) in p.stays.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                self.push_stay(&mut out, sp, false);
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    // -- /v1/motifs --------------------------------------------------------

    /// The `/v1/motifs` body for a parsed [`MotifQuery`], or `None` when the
    /// artifact carries no motif table (the route answers `404` — the
    /// section is optional, so pre-motif artifacts serve everything else).
    pub fn motifs_json(&self, query: &MotifQuery) -> Option<String> {
        let table = self.artifact.motifs.as_ref()?;
        let matched: Vec<&str> = table
            .classes
            .iter()
            .zip(&self.fragments().motif_classes)
            .filter(|(c, _)| {
                c.nodes >= query.min_nodes
                    && c.nodes <= query.max_nodes
                    && query
                        .category
                        .is_none_or(|cat| c.category_counts[cat as usize] > 0)
            })
            .map(|(_, fragment)| fragment.as_str())
            .collect();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"total_days\":{},\"oversize_days\":{},\"total_classes\":{},\"returned\":{},\"classes\":[",
            table.total_days,
            table.oversize_days,
            matched.len(),
            matched.len().min(query.top),
        );
        push_joined(&mut out, matched.into_iter().take(query.top));
        out.push_str("]}");
        Some(out)
    }

    // -- /v1/cohorts and /v1/users/:id/* -----------------------------------

    /// The cohort table, when the artifact carries one.
    pub fn cohort_table(&self) -> Option<&CohortTable> {
        self.artifact.cohorts.as_ref()
    }

    /// The `/v1/cohorts` body plus the number of suppressed aggregates in
    /// it, or `None` when the artifact has no cohort index (the route
    /// answers `404`, mirroring the motif contract).
    ///
    /// Cohorts render in id order. Entries at or above the table's `k_min`
    /// carry full aggregates and honour the query's category/size filters;
    /// smaller cohorts always render as an explicit `{"suppressed":true}`
    /// marker — they are never silently dropped, and filters cannot touch
    /// them because filtering on hidden attributes would leak them.
    pub fn cohorts_json(&self, query: &CohortQuery) -> Option<(String, u64)> {
        let table = self.artifact.cohorts.as_ref()?;
        let mut suppressed = 0u64;
        let mut returned = 0usize;
        let mut entries = Vec::new();
        for (cohort, fragment) in table.cohorts.iter().zip(&self.fragments().cohorts) {
            if table.suppressed(cohort.size) {
                suppressed += 1;
            } else if query
                .category
                .is_none_or(|cat| cohort.dominant_category() == Some(cat))
                && cohort.size >= query.min_size
                && returned < query.top
            {
                returned += 1;
            } else {
                continue;
            }
            entries.push(fragment.as_str());
        }
        let mut body = String::new();
        let _ = write!(
            body,
            "{{\"k_min\":{},\"method\":\"{}\",\"total_users\":{},\"total_cohorts\":{},\"returned\":{returned},\"suppressed\":{suppressed},\"cohorts\":[",
            table.k_min,
            table.method.name(),
            table.users.len(),
            table.cohorts.len(),
        );
        push_joined(&mut body, entries);
        body.push_str("]}");
        Some((body, suppressed))
    }

    /// The `/v1/users/:id/patterns` body plus its suppressed-aggregate
    /// count. The per-user record is the endpoint's subject and renders in
    /// full; the *cohort cross-reference* is a group aggregate, so it is
    /// suppressed when the user's cohort is smaller than `k_min`.
    pub fn user_patterns_json(&self, user: &str) -> Result<(String, u64), CohortLookup> {
        let table = self
            .artifact
            .cohorts
            .as_ref()
            .ok_or(CohortLookup::NoSection)?;
        let idx = table.find_user(user).ok_or(CohortLookup::UnknownUser)?;
        let record = &table.users[idx];
        let mut out = String::from("{\"user\":");
        write_str(&mut out, &record.user);
        let _ = write!(
            out,
            ",\"stays\":{},\"active_days\":{},\"transitions\":{},\"categories\":",
            record.stays, record.active_days, record.transitions
        );
        push_category_counts(&mut out, &record.category_visits);
        out.push_str(",\"top_units\":[");
        for (i, &(unit, visits)) in record.top_units.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"unit\":{unit},\"visits\":{visits}}}");
        }
        out.push_str("],\"cohort\":");
        let suppressed = push_cohort_ref(&mut out, table, &table.cohorts[record.cohort as usize]);
        out.push('}');
        Ok((out, suppressed))
    }

    /// The `/v1/users/:id/similar` body plus its suppressed-aggregate
    /// count: the ranked neighbor list (individual records, not an
    /// aggregate) and a neighborhood-level aggregate that is suppressed
    /// whenever fewer than `k_min` neighbors back it.
    pub fn user_similar_json(
        &self,
        user: &str,
        query: &SimilarQuery,
    ) -> Result<(String, u64), CohortLookup> {
        let table = self
            .artifact
            .cohorts
            .as_ref()
            .ok_or(CohortLookup::NoSection)?;
        let index = self.cohort_index.as_ref().ok_or(CohortLookup::NoSection)?;
        let idx = table.find_user(user).ok_or(CohortLookup::UnknownUser)?;
        let neighbors = table.k_nearest(index, idx, query.k, query.scope);

        let mut out = String::from("{\"user\":");
        write_str(&mut out, user);
        let _ = write!(
            out,
            ",\"k\":{},\"scope\":\"{}\",\"returned\":{},\"neighbors\":[",
            query.k,
            match query.scope {
                SimilarScope::All => "all",
                SimilarScope::Cohort => "cohort",
            },
            neighbors.len()
        );
        let mut sim_sum = 0.0;
        let mut visits = [0u64; Category::COUNT];
        for (i, n) in neighbors.iter().enumerate() {
            let record: &UserRecord = &table.users[n.user as usize];
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"user\":");
            write_str(&mut out, &record.user);
            out.push_str(",\"similarity\":");
            write_number(&mut out, n.similarity);
            out.push('}');
            sim_sum += n.similarity;
            for (slot, &v) in visits.iter_mut().zip(&record.category_visits) {
                *slot += v;
            }
        }
        out.push_str("],\"aggregate\":");
        let suppressed = if table.suppressed(neighbors.len() as u64) {
            out.push_str("{\"suppressed\":true}");
            1
        } else {
            let mean = sim_sum / neighbors.len() as f64;
            let _ = write!(out, "{{\"size\":{},\"mean_similarity\":", neighbors.len());
            write_number(&mut out, mean);
            out.push_str(",\"categories\":");
            push_category_counts(&mut out, &visits);
            out.push('}');
            0
        };
        out.push('}');
        Ok((out, suppressed))
    }

    // -- rendering helpers -------------------------------------------------

    /// A position object; includes `lat`/`lon` when the artifact is
    /// geo-anchored.
    fn push_point(&self, out: &mut String, pos: LocalPoint) {
        out.push_str("{\"x\":");
        write_number(out, pos.x);
        out.push_str(",\"y\":");
        write_number(out, pos.y);
        if let Some(projection) = &self.projection {
            let geo = projection.to_geo(pos);
            out.push_str(",\"lon\":");
            write_number(out, geo.lon);
            out.push_str(",\"lat\":");
            write_number(out, geo.lat);
        }
        out.push('}');
    }

    /// A stay-point object. With `recognize`, the snapshot's own vote fills
    /// the semantics (annotate path); otherwise the stored tags are used
    /// (pattern path).
    fn push_stay(&self, out: &mut String, sp: &StayPoint, recognize: bool) {
        let (unit, tags, primary) = if recognize {
            recognize_stay_point_unit(&self.artifact.csd, &self.kernel, sp.pos)
        } else {
            (None, sp.tags, sp.primary)
        };
        out.push_str("{\"pos\":");
        self.push_point(out, sp.pos);
        let _ = write!(out, ",\"t\":{},\"tags\":", sp.time);
        push_tags(out, tags);
        out.push_str(",\"primary\":");
        push_primary(out, primary);
        if recognize {
            match unit {
                Some(id) => {
                    let _ = write!(out, ",\"unit\":{id}");
                }
                None => out.push_str(",\"unit\":null"),
            }
        }
        out.push('}');
    }
}

/// A parsed `/v1/motifs` query: node-count band, category involvement, and
/// result cap.
#[derive(Debug, Clone, PartialEq)]
pub struct MotifQuery {
    /// Keep classes with at least this many nodes.
    pub min_nodes: u8,
    /// Keep classes with at most this many nodes.
    pub max_nodes: u8,
    /// Keep classes where at least one day-graph node carried this primary
    /// category.
    pub category: Option<Category>,
    /// Classes returned (they are already ranked by days, descending).
    pub top: usize,
}

impl Default for MotifQuery {
    fn default() -> MotifQuery {
        MotifQuery {
            min_nodes: 1,
            max_nodes: MAX_NODES as u8,
            category: None,
            top: DEFAULT_PATTERN_LIMIT,
        }
    }
}

impl MotifQuery {
    /// Builds a query from decoded parameters. Unknown parameters are
    /// rejected so typos fail loudly, mirroring
    /// [`Snapshot::pattern_query_from_params`].
    pub fn from_params(params: &[(String, String)]) -> Result<MotifQuery, String> {
        let mut q = MotifQuery::default();
        for (key, value) in params {
            match key.as_str() {
                "min_nodes" => q.min_nodes = parse_nodes(key, value)?,
                "max_nodes" => q.max_nodes = parse_nodes(key, value)?,
                "category" => q.category = Some(parse_cat(value)?),
                "top" => q.top = parse_usize(key, value)?.min(DEFAULT_PATTERN_LIMIT),
                other => return Err(format!("unknown parameter {other:?}")),
            }
        }
        if q.min_nodes > q.max_nodes {
            return Err(format!(
                "min_nodes {} exceeds max_nodes {}",
                q.min_nodes, q.max_nodes
            ));
        }
        Ok(q)
    }
}

/// Why a per-user or cohort query could not be answered. Both cases route
/// to `404`, with different hints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CohortLookup {
    /// The artifact carries no `coho` section.
    NoSection,
    /// The section exists but the user id is not in the index.
    UnknownUser,
}

/// A parsed `/v1/cohorts` query: category/size filters and a result cap.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortQuery {
    /// Keep cohorts whose dominant category is this one.
    pub category: Option<Category>,
    /// Keep cohorts with at least this many members.
    pub min_size: u64,
    /// Full cohort entries returned (suppressed markers are not capped —
    /// they carry no aggregates).
    pub top: usize,
}

impl Default for CohortQuery {
    fn default() -> CohortQuery {
        CohortQuery {
            category: None,
            min_size: 0,
            top: DEFAULT_PATTERN_LIMIT,
        }
    }
}

impl CohortQuery {
    /// Builds a query from decoded parameters; unknown parameters are
    /// rejected so typos fail loudly.
    pub fn from_params(params: &[(String, String)]) -> Result<CohortQuery, String> {
        let mut q = CohortQuery::default();
        for (key, value) in params {
            match key.as_str() {
                "category" => q.category = Some(parse_cat(value)?),
                "min_size" => q.min_size = parse_usize(key, value)? as u64,
                "top" => q.top = parse_usize(key, value)?.min(DEFAULT_PATTERN_LIMIT),
                other => return Err(format!("unknown parameter {other:?}")),
            }
        }
        Ok(q)
    }
}

/// A parsed `/v1/users/:id/similar` query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimilarQuery {
    /// Neighbors requested (1 to [`DEFAULT_PATTERN_LIMIT`]).
    pub k: usize,
    /// Candidate set: the user's cohort (the pruned fast path, default) or
    /// an exact scan over everyone.
    pub scope: SimilarScope,
}

impl Default for SimilarQuery {
    fn default() -> SimilarQuery {
        SimilarQuery {
            k: 10,
            scope: SimilarScope::Cohort,
        }
    }
}

impl SimilarQuery {
    /// Builds a query from decoded parameters; unknown parameters are
    /// rejected so typos fail loudly.
    pub fn from_params(params: &[(String, String)]) -> Result<SimilarQuery, String> {
        let mut q = SimilarQuery::default();
        for (key, value) in params {
            match key.as_str() {
                "k" => {
                    let k = parse_usize(key, value)?;
                    if k == 0 {
                        return Err("k must be at least 1".into());
                    }
                    q.k = k.min(DEFAULT_PATTERN_LIMIT);
                }
                "scope" => {
                    q.scope = match value.as_str() {
                        "all" => SimilarScope::All,
                        "cohort" => SimilarScope::Cohort,
                        other => return Err(format!("unknown scope {other:?} (all or cohort)")),
                    }
                }
                other => return Err(format!("unknown parameter {other:?}")),
            }
        }
        Ok(q)
    }
}

/// Non-zero category counts as an object, Table 3 order.
fn push_category_counts(out: &mut String, counts: &[u64; Category::COUNT]) {
    out.push('{');
    let mut first = true;
    for (i, &count) in counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        write_str(out, Category::from_index(i).name());
        let _ = write!(out, ":{count}");
    }
    out.push('}');
}

/// Non-zero category-mix shares as an object, Table 3 order.
fn push_mix(out: &mut String, mix: &[f64; Category::COUNT]) {
    out.push('{');
    let mut first = true;
    for (i, &share) in mix.iter().enumerate() {
        if share == 0.0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        write_str(out, Category::from_index(i).name());
        out.push(':');
        write_number(out, share);
    }
    out.push('}');
}

/// The cohort cross-reference on a per-user record: full aggregate at or
/// above `k_min`, explicit suppression marker below. Returns how many
/// aggregates were suppressed (0 or 1).
fn push_cohort_ref(out: &mut String, table: &CohortTable, cohort: &Cohort) -> u64 {
    if table.suppressed(cohort.size) {
        push_suppressed(out, cohort);
        return 1;
    }
    let _ = write!(
        out,
        "{{\"id\":{},\"size\":{},\"dominant\":",
        cohort.id, cohort.size
    );
    push_primary(out, cohort.dominant_category());
    out.push('}');
    0
}

/// A cohort's id-only marker, standing in for an aggregate below `k_min`.
fn push_suppressed(out: &mut String, cohort: &Cohort) {
    let _ = write!(out, "{{\"id\":{},\"suppressed\":true}}", cohort.id);
}

/// A cohort's `/v1/cohorts` entry: the full aggregate at or above `k_min`,
/// the suppression marker below it.
fn push_cohort_entry(out: &mut String, table: &CohortTable, cohort: &Cohort) {
    if table.suppressed(cohort.size) {
        push_suppressed(out, cohort);
        return;
    }
    let _ = write!(
        out,
        "{{\"id\":{},\"size\":{},\"mean_active_days\":",
        cohort.id, cohort.size
    );
    write_number(out, cohort.mean_active_days);
    out.push_str(",\"mean_stays\":");
    write_number(out, cohort.mean_stays);
    out.push_str(",\"dominant\":");
    push_primary(out, cohort.dominant_category());
    out.push_str(",\"mix\":");
    push_mix(out, &cohort.category_mix);
    out.push('}');
}

/// Comma-joins pre-rendered JSON values into `out`.
fn push_joined<'a>(out: &mut String, items: impl IntoIterator<Item = &'a str>) {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(item);
    }
}

fn parse_nodes(key: &str, value: &str) -> Result<u8, String> {
    let n: u8 = value
        .parse()
        .map_err(|_| format!("{key} is not a small integer: {value:?}"))?;
    if (1..=MAX_NODES as u8).contains(&n) {
        Ok(n)
    } else {
        Err(format!("{key} must be between 1 and {MAX_NODES}"))
    }
}

/// One ranked motif class as JSON — shared by the artifact-backed
/// `/v1/motifs` body and the live `/v1/live/motifs` body so the two render
/// identically. The canonical form is a hex *string*: it is a full `u64`
/// and must survive JSON parsers that read numbers as `f64`.
pub(crate) fn push_motif_class(out: &mut String, class: &MotifClass) {
    let _ = write!(
        out,
        "{{\"id\":{},\"form\":\"{:#x}\",\"nodes\":{},\"edges\":{},\"days\":{},\"share\":",
        class.id, class.form, class.nodes, class.edges, class.days,
    );
    write_number(out, class.share);
    out.push_str(",\"categories\":{");
    let mut first = true;
    for (i, &count) in class.category_counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        write_str(out, Category::from_index(i).name());
        let _ = write!(out, ":{count}");
    }
    let _ = write!(
        out,
        "}},\"untagged_nodes\":{},\"exemplar\":[",
        class.untagged_nodes
    );
    for (k, (a, b)) in class.exemplar_edges().iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{a},{b}]");
    }
    out.push_str("]}");
}

fn parse_cat(value: &str) -> Result<Category, String> {
    parse_category(value).ok_or_else(|| format!("unknown category {value:?}"))
}

fn parse_usize(key: &str, value: &str) -> Result<usize, String> {
    value
        .parse()
        .map_err(|_| format!("{key} is not a non-negative integer: {value:?}"))
}

fn parse_bucket(value: &str) -> Result<WeekBucket, String> {
    let needle = value.trim().to_ascii_lowercase().replace(['_', '-'], " ");
    WeekBucket::ALL
        .into_iter()
        .find(|b| b.label() == needle)
        .ok_or_else(|| {
            format!(
                "unknown bucket {value:?} (one of: {})",
                WeekBucket::ALL
                    .map(|b| b.label().replace(' ', "_"))
                    .join(", ")
            )
        })
}

fn push_tags(out: &mut String, tags: Tags) {
    out.push('[');
    for (i, c) in tags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(out, c.name());
    }
    out.push(']');
}

fn push_primary(out: &mut String, primary: Option<Category>) {
    match primary {
        Some(c) => write_str(out, c.name()),
        None => out.push_str("null"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_core::prelude::*;

    fn empty_snapshot() -> Snapshot {
        let params = MinerParams::default();
        let csd = CitySemanticDiagram::build(&[], &[], &params).expect("build");
        Snapshot::new(Artifact::new(csd, Vec::new(), params)).expect("snapshot")
    }

    fn geo_snapshot() -> Snapshot {
        let params = MinerParams::default();
        let csd = CitySemanticDiagram::build(&[], &[], &params).expect("build");
        let artifact = Artifact::new(csd, Vec::new(), params)
            .with_projection(GeoPoint::new(121.4737, 31.2304));
        Snapshot::new(artifact).expect("snapshot")
    }

    #[test]
    fn healthz_shape() {
        let s = empty_snapshot();
        assert_eq!(
            s.healthz_json(),
            "{\"status\":\"ok\",\"pois\":0,\"units\":0,\"patterns\":0,\"geo\":false}"
        );
    }

    #[test]
    fn resolve_point_modes() {
        let s = empty_snapshot();
        let p = s
            .resolve_point(Some("10.5"), Some("-3"), None, None)
            .unwrap();
        assert_eq!((p.x, p.y), (10.5, -3.0));
        assert!(s
            .resolve_point(None, None, Some("31.2"), Some("121.5"))
            .is_err());
        assert!(s.resolve_point(Some("1"), None, None, Some("2")).is_err());
        assert!(s.resolve_point(None, None, None, None).is_err());
        assert!(s.resolve_point(Some("inf"), Some("0"), None, None).is_err());

        let g = geo_snapshot();
        let at_origin = g
            .resolve_point(None, None, Some("31.2304"), Some("121.4737"))
            .unwrap();
        assert!(at_origin.x.abs() < 1e-6 && at_origin.y.abs() < 1e-6);
    }

    #[test]
    fn semantic_on_empty_city_is_untagged() {
        let s = empty_snapshot();
        assert_eq!(
            s.semantic_json(LocalPoint::new(0.0, 0.0)),
            "{\"query\":{\"x\":0,\"y\":0},\"unit\":null,\"tags\":[],\"primary\":null}"
        );
    }

    #[test]
    fn annotate_rejects_bad_bodies() {
        let s = empty_snapshot();
        for bad in [
            "{}",
            "{\"points\":1}",
            "{\"points\":[{\"x\":1,\"y\":2}]}",
            "{\"points\":[{\"t\":1}]}",
            "{\"points\":[{\"lat\":1,\"lon\":2,\"t\":0}]}",
        ] {
            let body = crate::json::parse(bad).unwrap();
            assert!(s.annotate_json(&body).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn annotate_empty_trajectory_is_ok() {
        let s = empty_snapshot();
        let body = crate::json::parse("{\"points\":[]}").unwrap();
        assert_eq!(
            s.annotate_json(&body).unwrap(),
            "{\"points\":0,\"stays\":[]}"
        );
    }

    #[test]
    fn pattern_query_parser_covers_every_knob() {
        let s = empty_snapshot();
        let params: Vec<(String, String)> = [
            ("from", "residence"),
            ("to", "business"),
            ("involving", "shop"),
            ("min_support", "5"),
            ("min_len", "2"),
            ("max_len", "4"),
            ("bucket", "weekday_morning"),
            ("near", "100,200,50"),
            ("limit", "10"),
        ]
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
        let (_q, limit) = s.pattern_query_from_params(&params).expect("parse");
        assert_eq!(limit, 10);

        for bad in [
            ("from", "castle"),
            ("min_support", "-1"),
            ("bucket", "someday"),
            ("near", "1,2"),
            ("near", "1,2,-3"),
            ("nope", "1"),
        ] {
            let p = vec![(bad.0.to_string(), bad.1.to_string())];
            assert!(s.pattern_query_from_params(&p).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn motif_query_parser_covers_every_knob() {
        let params: Vec<(String, String)> = [
            ("min_nodes", "2"),
            ("max_nodes", "4"),
            ("category", "residence"),
            ("top", "3"),
        ]
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
        let q = MotifQuery::from_params(&params).expect("parse");
        assert_eq!(
            q,
            MotifQuery {
                min_nodes: 2,
                max_nodes: 4,
                category: Some(Category::Residence),
                top: 3
            }
        );

        for bad in [
            ("min_nodes", "0"),
            ("min_nodes", "9"),
            ("max_nodes", "x"),
            ("category", "castle"),
            ("top", "-1"),
            ("nope", "1"),
        ] {
            let p = vec![(bad.0.to_string(), bad.1.to_string())];
            assert!(MotifQuery::from_params(&p).is_err(), "{bad:?}");
        }
        // A crossed band is rejected at parse time, not served as empty.
        let p: Vec<(String, String)> = [("min_nodes", "5"), ("max_nodes", "2")]
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        assert!(MotifQuery::from_params(&p).is_err());
    }

    #[test]
    fn motifs_json_is_none_without_a_table_and_filters_with_one() {
        let s = empty_snapshot();
        assert!(s.motifs_json(&MotifQuery::default()).is_none());

        // Two classes: a 1-node residence day and a 2-node loop day.
        let mut agg = pm_motif::MotifAggregator::new();
        let mut one = pm_motif::DayGraphBuilder::new();
        one.visit(7, Some(Category::Residence));
        agg.record(&one.finish());
        let mut two = pm_motif::DayGraphBuilder::new();
        two.visit(1, Some(Category::Residence));
        two.visit(2, Some(Category::Business));
        two.visit(1, Some(Category::Residence));
        agg.record(&two.finish());

        let params = MinerParams::default();
        let csd = CitySemanticDiagram::build(&[], &[], &params).expect("build");
        let artifact = Artifact::new(csd, Vec::new(), params).with_motifs(agg.table());
        let s = Snapshot::new(artifact).expect("snapshot");

        let body = s.motifs_json(&MotifQuery::default()).expect("table");
        assert!(
            body.starts_with("{\"total_days\":2,\"oversize_days\":0,"),
            "{body}"
        );
        assert!(
            body.contains("\"total_classes\":2,\"returned\":2,"),
            "{body}"
        );
        assert!(body.contains("\"Residence\":"), "{body}");

        // Node-band and category filters narrow the class list.
        let q = MotifQuery {
            min_nodes: 2,
            ..MotifQuery::default()
        };
        let body = s.motifs_json(&q).expect("table");
        assert!(body.contains("\"total_classes\":1,"), "{body}");
        let q = MotifQuery {
            category: Some(Category::Business),
            ..MotifQuery::default()
        };
        let body = s.motifs_json(&q).expect("table");
        assert!(body.contains("\"total_classes\":1,"), "{body}");
        let q = MotifQuery {
            category: Some(Category::Medical),
            ..MotifQuery::default()
        };
        let body = s.motifs_json(&q).expect("table");
        assert!(
            body.contains("\"total_classes\":0,\"returned\":0,\"classes\":[]}"),
            "{body}"
        );
    }

    #[test]
    fn near_ll_requires_projection() {
        let s = empty_snapshot();
        let p = vec![("near_ll".to_string(), "121.47,31.23,500".to_string())];
        assert!(s.pattern_query_from_params(&p).is_err());
        let g = geo_snapshot();
        assert!(g.pattern_query_from_params(&p).is_ok());
    }

    #[test]
    fn patterns_json_on_empty_set() {
        let s = empty_snapshot();
        let (q, limit) = s.pattern_query_from_params(&[]).unwrap();
        assert_eq!(
            s.patterns_json(&q, limit),
            "{\"total\":0,\"returned\":0,\"patterns\":[]}"
        );
    }

    /// Eight users in two behavior groups — five residence-dwellers and
    /// three shoppers — mined at `k_min: 4` so the shopper cohort is below
    /// the anonymity floor.
    fn cohort_snapshot() -> Snapshot {
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
        let table = CohortTable::mine(
            embeddings,
            &pm_cohort::CohortParams {
                k_min: 4,
                ..pm_cohort::CohortParams::default()
            },
        );
        let params = MinerParams::default();
        let csd = CitySemanticDiagram::build(&[], &[], &params).expect("build");
        Snapshot::new(Artifact::new(csd, Vec::new(), params).with_cohorts(table)).expect("snapshot")
    }

    #[test]
    fn cohort_query_parser_covers_every_knob() {
        let params: Vec<(String, String)> =
            [("category", "residence"), ("min_size", "2"), ("top", "3")]
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect();
        let q = CohortQuery::from_params(&params).expect("parse");
        assert_eq!(q.category, Some(Category::Residence));
        assert_eq!((q.min_size, q.top), (2, 3));

        for bad in [("category", "castle"), ("min_size", "-1"), ("nope", "1")] {
            let p = vec![(bad.0.to_string(), bad.1.to_string())];
            assert!(CohortQuery::from_params(&p).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn similar_query_parser_covers_every_knob() {
        let params: Vec<(String, String)> = [("k", "5"), ("scope", "all")]
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let q = SimilarQuery::from_params(&params).expect("parse");
        assert_eq!(q.k, 5);
        assert_eq!(q.scope, SimilarScope::All);
        assert_eq!(SimilarQuery::default().scope, SimilarScope::Cohort);

        // Oversized k clamps to the serving cap rather than erroring.
        let p = vec![("k".to_string(), "51".to_string())];
        assert_eq!(SimilarQuery::from_params(&p).expect("clamp").k, 50);

        for bad in [("k", "0"), ("scope", "city"), ("nope", "1")] {
            let p = vec![(bad.0.to_string(), bad.1.to_string())];
            assert!(SimilarQuery::from_params(&p).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn cohorts_json_suppresses_and_filters() {
        assert!(empty_snapshot()
            .cohorts_json(&CohortQuery::default())
            .is_none());

        let s = cohort_snapshot();
        let (body, suppressed) = s.cohorts_json(&CohortQuery::default()).expect("table");
        assert_eq!(suppressed, 1);
        assert!(
            body.starts_with("{\"k_min\":4,\"method\":\"meanshift\",\"total_users\":8,"),
            "{body}"
        );
        // The majority cohort renders in full; the 3-shopper cohort is an
        // id-only suppression marker with no size or mix.
        assert!(body.contains("\"id\":0,\"size\":5,"), "{body}");
        assert!(body.contains("{\"id\":1,\"suppressed\":true}"), "{body}");
        assert!(!body.contains("\"size\":3"), "{body}");
        assert!(body.contains("\"dominant\":\"Residence\""), "{body}");

        // Filters narrow unsuppressed entries but never unhide suppressed
        // ones: a min_size no cohort meets still lists the marker.
        let q = CohortQuery {
            min_size: 6,
            ..CohortQuery::default()
        };
        let (body, _) = s.cohorts_json(&q).expect("table");
        assert!(body.contains("\"returned\":0,"), "{body}");
        assert!(body.contains("{\"id\":1,\"suppressed\":true}"), "{body}");
        let q = CohortQuery {
            category: Some(Category::Shop),
            ..CohortQuery::default()
        };
        let (body, _) = s.cohorts_json(&q).expect("table");
        assert!(body.contains("\"returned\":0,"), "{body}");
    }

    /// `/v1/motifs` before per-snapshot fragments, verbatim.
    fn motifs_json_per_request(s: &Snapshot, query: &MotifQuery) -> Option<String> {
        let table = s.artifact.motifs.as_ref()?;
        let matched: Vec<&MotifClass> = table
            .classes
            .iter()
            .filter(|c| {
                c.nodes >= query.min_nodes
                    && c.nodes <= query.max_nodes
                    && query
                        .category
                        .is_none_or(|cat| c.category_counts[cat as usize] > 0)
            })
            .collect();
        let mut out = format!(
            "{{\"total_days\":{},\"oversize_days\":{},\"total_classes\":{},\"returned\":{},\"classes\":[",
            table.total_days,
            table.oversize_days,
            matched.len(),
            matched.len().min(query.top),
        );
        for (i, class) in matched.iter().take(query.top).enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_motif_class(&mut out, class);
        }
        out.push_str("]}");
        Some(out)
    }

    /// `/v1/cohorts` before per-snapshot fragments, verbatim.
    fn cohorts_json_per_request(s: &Snapshot, query: &CohortQuery) -> Option<(String, u64)> {
        let table = s.artifact.cohorts.as_ref()?;
        let mut suppressed = 0u64;
        let mut entries = String::new();
        let mut returned = 0usize;
        let mut first = true;
        for cohort in &table.cohorts {
            if table.suppressed(cohort.size) {
                suppressed += 1;
                if !first {
                    entries.push(',');
                }
                first = false;
                entries.push_str(&format!("{{\"id\":{},\"suppressed\":true}}", cohort.id));
                continue;
            }
            let dominant = cohort.dominant_category();
            let category_ok = query.category.is_none_or(|cat| dominant == Some(cat));
            if !category_ok || cohort.size < query.min_size || returned >= query.top {
                continue;
            }
            returned += 1;
            if !first {
                entries.push(',');
            }
            first = false;
            entries.push_str(&format!(
                "{{\"id\":{},\"size\":{},\"mean_active_days\":{},\"mean_stays\":{},\"dominant\":",
                cohort.id,
                cohort.size,
                pm_obs::json::number(cohort.mean_active_days),
                pm_obs::json::number(cohort.mean_stays),
            ));
            push_primary(&mut entries, dominant);
            entries.push_str(",\"mix\":");
            push_mix(&mut entries, &cohort.category_mix);
            entries.push('}');
        }
        let body = format!(
            "{{\"k_min\":{},\"method\":\"{}\",\"total_users\":{},\"total_cohorts\":{},\"returned\":{returned},\"suppressed\":{suppressed},\"cohorts\":[{entries}]}}",
            table.k_min,
            table.method.name(),
            table.users.len(),
            table.cohorts.len(),
        );
        Some((body, suppressed))
    }

    /// A mined tiny city with motifs and cohorts, its anonymity floor
    /// raised so that the smaller cohorts are suppressed.
    fn mined_snapshot() -> Snapshot {
        let ds = pm_eval::Dataset::generate(&pm_synth::CityConfig::tiny(42));
        let params = MinerParams {
            sigma: 20,
            ..MinerParams::default()
        };
        let corpus = (ds.trajectories.into_iter().enumerate())
            .map(|(i, traj)| (format!("rider-{i}"), traj))
            .collect();
        let cohort = pm_cohort::CohortParams::default();
        let mut artifact =
            crate::mine_artifact(&ds.pois, corpus, &params, &cohort, &pm_obs::Obs::noop())
                .expect("mine");
        let table = artifact.cohorts.as_mut().expect("cohorts");
        let mut sizes: Vec<u64> = table.cohorts.iter().map(|c| c.size).collect();
        sizes.sort_unstable();
        table.k_min = sizes[sizes.len() / 2] as u32;
        Snapshot::new(artifact).expect("snapshot")
    }

    #[test]
    fn spliced_fragments_match_the_per_request_renderers() {
        let mined = mined_snapshot();
        let suppressed = |s: &Snapshot| {
            let table = s.cohort_table().expect("table");
            table
                .cohorts
                .iter()
                .filter(|c| table.suppressed(c.size))
                .count()
        };
        assert!(
            suppressed(&mined) > 0
                && suppressed(&mined) < mined.cohort_table().unwrap().cohorts.len()
        );
        assert!(mined
            .artifact
            .motifs
            .as_ref()
            .is_some_and(|t| t.classes.len() > 1));
        let empty = empty_snapshot();
        let cohorts = cohort_snapshot();
        for s in [&mined, &empty, &cohorts] {
            // Built on first use, not when the snapshot is made.
            assert!(s.fragments.get().is_none());
            let categories = std::iter::once(None).chain(Category::ALL.map(Some));
            for category in categories.clone() {
                for min_size in [0, 1, 2, 5, 10, 1_000] {
                    for top in [0, 1, 2, 3, 5, DEFAULT_PATTERN_LIMIT] {
                        let q = CohortQuery {
                            category,
                            min_size,
                            top,
                        };
                        assert_eq!(s.cohorts_json(&q), cohorts_json_per_request(s, &q), "{q:?}");
                    }
                }
                for min_nodes in 1..=MAX_NODES as u8 {
                    for max_nodes in min_nodes..=MAX_NODES as u8 {
                        for top in [0, 1, 3, 10, DEFAULT_PATTERN_LIMIT] {
                            let q = MotifQuery {
                                min_nodes,
                                max_nodes,
                                category,
                                top,
                            };
                            assert_eq!(s.motifs_json(&q), motifs_json_per_request(s, &q), "{q:?}");
                        }
                    }
                }
            }
        }
        assert!(empty.cohorts_json(&CohortQuery::default()).is_none());
        assert!(cohorts.motifs_json(&MotifQuery::default()).is_none());
    }

    #[test]
    fn user_patterns_json_full_record_with_suppressed_cross_reference() {
        assert_eq!(
            empty_snapshot().user_patterns_json("user-00").unwrap_err(),
            CohortLookup::NoSection
        );
        let s = cohort_snapshot();
        assert_eq!(
            s.user_patterns_json("nobody").unwrap_err(),
            CohortLookup::UnknownUser
        );

        // A majority-cohort member gets the full cohort cross-reference.
        let (body, suppressed) = s.user_patterns_json("user-00").expect("known");
        assert_eq!(suppressed, 0);
        assert!(
            body.starts_with("{\"user\":\"user-00\",\"stays\":6,"),
            "{body}"
        );
        assert!(body.contains("\"Residence\":6"), "{body}");
        assert!(body.contains("\"cohort\":{\"id\":0,\"size\":5,"), "{body}");

        // A shopper's own record still renders in full — the user is the
        // endpoint subject — but the cohort aggregate is suppressed.
        let (body, suppressed) = s.user_patterns_json("user-07").expect("known");
        assert_eq!(suppressed, 1);
        assert!(body.contains("\"Shop & Market\":6"), "{body}");
        assert!(
            body.contains("\"cohort\":{\"id\":1,\"suppressed\":true}"),
            "{body}"
        );
    }

    #[test]
    fn user_similar_json_ranks_and_suppresses_small_aggregates() {
        assert_eq!(
            empty_snapshot()
                .user_similar_json("user-00", &SimilarQuery::default())
                .unwrap_err(),
            CohortLookup::NoSection
        );
        let s = cohort_snapshot();
        assert_eq!(
            s.user_similar_json("nobody", &SimilarQuery::default())
                .unwrap_err(),
            CohortLookup::UnknownUser
        );

        // Cohort scope over the 5-residence cohort: 4 neighbors, aggregate
        // at the floor, not suppressed.
        let (body, suppressed) = s
            .user_similar_json("user-00", &SimilarQuery::default())
            .expect("known");
        assert_eq!(suppressed, 0);
        assert!(
            body.contains("\"scope\":\"cohort\",\"returned\":4,"),
            "{body}"
        );
        assert!(body.contains("\"aggregate\":{\"size\":4,"), "{body}");

        // A shopper's cohort-scoped neighborhood has 2 members — below
        // k_min, so the aggregate is an explicit suppression marker.
        let (body, suppressed) = s
            .user_similar_json("user-07", &SimilarQuery::default())
            .expect("known");
        assert_eq!(suppressed, 1);
        assert!(body.contains("\"returned\":2,"), "{body}");
        assert!(
            body.contains("\"aggregate\":{\"suppressed\":true}"),
            "{body}"
        );

        // Exact scan ranks in-group users above the other behavior group.
        let q = SimilarQuery {
            k: 7,
            scope: SimilarScope::All,
        };
        let (body, _) = s.user_similar_json("user-00", &q).expect("known");
        assert!(body.contains("\"scope\":\"all\",\"returned\":7,"), "{body}");
        let first = body.find("\"user\":\"user-0").expect("neighbor");
        let shopper = body.find("\"user\":\"user-07\"").expect("shopper ranked");
        assert!(first < shopper, "{body}");
    }
}
