//! The `pm-store/1` artifact: one complete mining run, serialized.
//!
//! # Layout
//!
//! ```text
//! magic     8 bytes  b"pm-store"
//! version   u32 LE   1
//! sections  u32 LE   number of sections that follow
//! then per section:
//!   tag       4 ASCII bytes
//!   length    u64 LE  payload bytes
//!   crc32     u32 LE  IEEE CRC-32 of the payload
//!   payload   `length` bytes
//! ```
//!
//! All integers are little-endian; `f64` values are stored as IEEE-754 bit
//! patterns, so NaN payloads and signed zeros round-trip bit for bit. The
//! writer is deterministic — same artifact, same bytes — which is what makes
//! the `load → re-serialize → byte-identical` CI check meaningful.
//!
//! ## Sections (version 1)
//!
//! | tag    | content                                                   |
//! |--------|-----------------------------------------------------------|
//! | `PARM` | the [`MinerParams`] the run was mined with                |
//! | `PROJ` | optional WGS-84 projection origin (lon, lat)              |
//! | `GRID` | grid-index geometry: requested + effective cell size      |
//! | `POIS` | the retained POI database                                 |
//! | `POPS` | Eq. 3 popularity per POI                                  |
//! | `UNIT` | the semantic units (members, tags, center, distribution)  |
//! | `STAT` | CSD construction statistics                               |
//! | `DEGR` | degradations tolerated during the run                     |
//! | `PATS` | the mined fine-grained pattern set                        |
//! | `motf` | *optional* — the daily mobility-motif table ([`MotifTable`]) |
//! | `coho` | *optional* — the per-user cohort index ([`CohortTable`])  |
//!
//! ## Forward compatibility
//!
//! Tags whose first byte is an ASCII **uppercase** letter are *critical*: a
//! reader that does not know them must reject the artifact
//! ([`StoreError::UnknownSection`]). Tags starting with a **lowercase**
//! letter are *optional*: readers verify their CRC and skip them. New
//! writers extend the format by appending optional sections; incompatible
//! layout changes bump the format version instead.

use crate::bytes::{ByteReader, ByteWriter};
use crate::crc::crc32;
use crate::error::StoreError;
use pm_cohort::{Cohort, CohortTable, UserRecord};
use pm_core::construct::{BuildStats, CitySemanticDiagram, SemanticUnit};
use pm_core::error::Degradation;
use pm_core::extract::FinePattern;
use pm_core::params::MinerParams;
use pm_core::types::{Category, Poi, StayPoint, Tags};
use pm_geo::{GeoPoint, LocalPoint};
use pm_motif::MotifTable;
use std::path::Path;

/// File magic: the first eight bytes of every artifact.
pub const MAGIC: [u8; 8] = *b"pm-store";
/// Format version this module writes and reads.
pub const VERSION: u32 = 1;

const TAG_PARM: [u8; 4] = *b"PARM";
const TAG_PROJ: [u8; 4] = *b"PROJ";
const TAG_GRID: [u8; 4] = *b"GRID";
const TAG_POIS: [u8; 4] = *b"POIS";
const TAG_POPS: [u8; 4] = *b"POPS";
const TAG_UNIT: [u8; 4] = *b"UNIT";
const TAG_STAT: [u8; 4] = *b"STAT";
const TAG_DEGR: [u8; 4] = *b"DEGR";
const TAG_PATS: [u8; 4] = *b"PATS";
/// Lowercase first byte: optional — readers that predate motifs verify the
/// CRC and skip the payload (the forward-compat path proven in tests).
const TAG_MOTF: [u8; 4] = *b"motf";
/// Lowercase first byte: optional — the per-user cohort index is skipped by
/// readers that predate it, exactly like `motf`.
const TAG_COHO: [u8; 4] = *b"coho";

/// A complete, self-describing mining run: everything the online query
/// service needs to answer semantic lookups, annotate trajectories, and
/// filter patterns without re-running the pipeline.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The parameters the run was mined with (the annotate endpoint reuses
    /// the stay-point detection and recognition thresholds).
    pub params: MinerParams,
    /// WGS-84 origin of the local meter frame, when the run was mined from
    /// geographic data. `None` for purely synthetic local-frame runs.
    pub projection: Option<GeoPoint>,
    /// The City Semantic Diagram of the run.
    pub csd: CitySemanticDiagram,
    /// The mined fine-grained pattern set, in the miner's output order.
    pub patterns: Vec<FinePattern>,
    /// The daily mobility-motif table, when the run mined one (the single
    /// mining pass always does). Persisted as the optional `motf` section:
    /// readers that predate it skip the section instead of rejecting the
    /// artifact.
    pub motifs: Option<MotifTable>,
    /// The per-user cohort index, when the run mined one (the single
    /// mining pass always does). Persisted as the optional `coho` section
    /// under the same forward-compatibility contract as `motf`.
    pub cohorts: Option<CohortTable>,
}

impl Artifact {
    /// Bundles a mining run into an artifact (no projection).
    pub fn new(csd: CitySemanticDiagram, patterns: Vec<FinePattern>, params: MinerParams) -> Self {
        Artifact {
            params,
            projection: None,
            csd,
            patterns,
            motifs: None,
            cohorts: None,
        }
    }

    /// Attaches the WGS-84 projection origin the run's coordinates are
    /// anchored to, enabling `lat`/`lon` queries against the artifact.
    #[must_use]
    pub fn with_projection(mut self, origin: GeoPoint) -> Self {
        self.projection = Some(origin);
        self
    }

    /// Attaches a mobility-motif table, persisted as the optional `motf`
    /// section.
    #[must_use]
    pub fn with_motifs(mut self, motifs: MotifTable) -> Self {
        self.motifs = Some(motifs);
        self
    }

    /// Attaches a per-user cohort index, persisted as the optional `coho`
    /// section.
    #[must_use]
    pub fn with_cohorts(mut self, cohorts: CohortTable) -> Self {
        self.cohorts = Some(cohorts);
        self
    }

    /// One-line human-readable summary (for CLI logging).
    pub fn describe(&self) -> String {
        format!(
            "{} POIs, {} units, {} patterns{}{}{}",
            self.csd.pois().len(),
            self.csd.units().len(),
            self.patterns.len(),
            if self.projection.is_some() {
                ", geo-anchored"
            } else {
                ""
            },
            match &self.motifs {
                Some(t) => format!(", {} motif classes", t.classes.len()),
                None => String::new(),
            },
            match &self.cohorts {
                Some(t) => format!(", {} cohorts over {} users", t.cohorts.len(), t.users.len()),
                None => String::new(),
            }
        )
    }

    /// Serializes to the `pm-store/1` byte layout. Deterministic: the same
    /// artifact always produces the same bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = ByteWriter::new();
        out.bytes(&MAGIC);
        out.u32(VERSION);

        let mut sections: Vec<([u8; 4], ByteWriter)> = Vec::new();
        sections.push((TAG_PARM, write_params(&self.params)));
        if let Some(origin) = self.projection {
            let mut w = ByteWriter::new();
            w.f64(origin.lon);
            w.f64(origin.lat);
            sections.push((TAG_PROJ, w));
        }
        let mut grid = ByteWriter::new();
        grid.f64(self.csd.grid_cell_size());
        grid.f64(self.csd.grid_cell_size_effective());
        sections.push((TAG_GRID, grid));
        sections.push((TAG_POIS, write_pois(self.csd.pois())));
        let mut pops = ByteWriter::new();
        pops.count(self.csd.popularities().len());
        for &p in self.csd.popularities() {
            pops.f64(p);
        }
        sections.push((TAG_POPS, pops));
        sections.push((TAG_UNIT, write_units(self.csd.units())));
        sections.push((TAG_STAT, write_stats(self.csd.stats())));
        sections.push((TAG_DEGR, write_degradations(self.csd.degradations())));
        sections.push((TAG_PATS, write_patterns(&self.patterns)));
        if let Some(motifs) = &self.motifs {
            sections.push((TAG_MOTF, write_motifs(motifs)));
        }
        if let Some(cohorts) = &self.cohorts {
            sections.push((TAG_COHO, write_cohorts(cohorts)));
        }

        out.u32(sections.len() as u32);
        for (tag, payload) in sections {
            let payload = payload.into_bytes();
            out.bytes(&tag);
            out.u64(payload.len() as u64);
            out.u32(crc32(&payload));
            out.bytes(&payload);
        }
        out.into_bytes()
    }

    /// Strict reader for the `pm-store/1` layout: corrupt, truncated, or
    /// wrong-version input returns a typed [`StoreError`]; this function
    /// never panics on any byte string.
    pub fn from_bytes(bytes: &[u8]) -> Result<Artifact, StoreError> {
        let mut r = ByteReader::new(bytes);
        if r.bytes(MAGIC.len(), "magic")? != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = r.u32("format version")?;
        if version != VERSION {
            return Err(StoreError::UnsupportedVersion { found: version });
        }
        let n_sections = r.u32("section count")? as usize;
        // A section frame is at least tag + length + crc = 16 bytes.
        if n_sections > r.remaining() / 16 {
            return Err(StoreError::malformed(format!(
                "section count {n_sections} exceeds what {} remaining byte(s) can hold",
                r.remaining()
            )));
        }

        let mut parm: Option<MinerParams> = None;
        let mut proj: Option<GeoPoint> = None;
        let mut grid: Option<(f64, f64)> = None;
        let mut pois: Option<Vec<Poi>> = None;
        let mut pops: Option<Vec<f64>> = None;
        let mut units: Option<Vec<SemanticUnit>> = None;
        let mut stats: Option<BuildStats> = None;
        let mut degr: Option<Vec<Degradation>> = None;
        let mut pats: Option<Vec<FinePattern>> = None;
        let mut motifs: Option<MotifTable> = None;
        let mut cohorts: Option<CohortTable> = None;

        let mut seen: Vec<[u8; 4]> = Vec::new();
        for _ in 0..n_sections {
            let tag_bytes = r.bytes(4, "section tag")?;
            let tag = [tag_bytes[0], tag_bytes[1], tag_bytes[2], tag_bytes[3]];
            let len = r.u64("section length")?;
            if len > r.remaining().saturating_sub(4) as u64 {
                return Err(StoreError::truncated(format!(
                    "section {} payload",
                    String::from_utf8_lossy(&tag)
                )));
            }
            let stored_crc = r.u32("section crc")?;
            let payload = r.bytes(len as usize, "section payload")?;
            if crc32(payload) != stored_crc {
                return Err(StoreError::ChecksumMismatch { section: tag });
            }
            if seen.contains(&tag) {
                return Err(StoreError::DuplicateSection { section: tag });
            }
            seen.push(tag);
            let p = ByteReader::new(payload);
            match tag {
                TAG_PARM => parm = Some(read_params(p)?),
                TAG_PROJ => {
                    let mut p = p;
                    let lon = p.f64("projection lon")?;
                    let lat = p.f64("projection lat")?;
                    p.finish("PROJ")?;
                    proj = Some(GeoPoint::new(lon, lat));
                }
                TAG_GRID => {
                    let mut p = p;
                    let requested = p.f64("grid requested cell size")?;
                    let effective = p.f64("grid effective cell size")?;
                    p.finish("GRID")?;
                    grid = Some((requested, effective));
                }
                TAG_POIS => pois = Some(read_pois(p)?),
                TAG_POPS => {
                    let mut p = p;
                    let n = p.count(8, "popularity count")?;
                    let mut v = Vec::with_capacity(n);
                    for _ in 0..n {
                        v.push(p.f64("popularity value")?);
                    }
                    p.finish("POPS")?;
                    pops = Some(v);
                }
                TAG_UNIT => units = Some(read_units(p)?),
                TAG_STAT => stats = Some(read_stats(p)?),
                TAG_DEGR => degr = Some(read_degradations(p)?),
                TAG_PATS => pats = Some(read_patterns(p)?),
                TAG_MOTF => motifs = Some(read_motifs(p)?),
                TAG_COHO => cohorts = Some(read_cohorts(p)?),
                unknown if unknown[0].is_ascii_lowercase() => {
                    // Optional section from a newer writer: CRC verified
                    // above, content skipped.
                }
                unknown => return Err(StoreError::UnknownSection { section: unknown }),
            }
        }
        if !r.is_exhausted() {
            return Err(StoreError::TrailingBytes {
                count: r.remaining(),
            });
        }

        let missing = |s: &'static str| StoreError::MissingSection { section: s };
        let params = parm.ok_or_else(|| missing("PARM"))?;
        let (cell_requested, cell_effective) = grid.ok_or_else(|| missing("GRID"))?;
        let pois = pois.ok_or_else(|| missing("POIS"))?;
        let pops = pops.ok_or_else(|| missing("POPS"))?;
        let units = units.ok_or_else(|| missing("UNIT"))?;
        let stats = stats.ok_or_else(|| missing("STAT"))?;
        let degradations = degr.ok_or_else(|| missing("DEGR"))?;
        let patterns = pats.ok_or_else(|| missing("PATS"))?;

        let csd =
            CitySemanticDiagram::from_parts(pois, pops, units, stats, degradations, cell_requested)
                .map_err(|e| StoreError::malformed(format!("CSD reassembly failed: {e}")))?;
        // The spatial index is rebuilt deterministically; its effective cell
        // size is an end-to-end integrity probe over POIS + GRID together.
        if csd.grid_cell_size_effective().to_bits() != cell_effective.to_bits() {
            return Err(StoreError::malformed(format!(
                "rebuilt grid cell size {} does not match stored {}",
                csd.grid_cell_size_effective(),
                cell_effective
            )));
        }

        Ok(Artifact {
            params,
            projection: proj,
            csd,
            patterns,
            motifs,
            cohorts,
        })
    }

    /// Writes the artifact to a file.
    pub fn write_file(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Reads an artifact from a file.
    pub fn read_file(path: impl AsRef<Path>) -> Result<Artifact, StoreError> {
        let bytes = std::fs::read(path)?;
        Artifact::from_bytes(&bytes)
    }

    /// [`Artifact::from_bytes`] plus the same byte-identity round-trip the
    /// CI `artifact-check` runs: the decoded artifact must re-serialize to
    /// exactly the input bytes. Catches "decodes, but lossy" corruption
    /// (e.g. an optional section a plain read would silently skip) before
    /// the artifact is trusted — the gate `/v1/reload` applies before
    /// swapping a snapshot in.
    pub fn from_bytes_verified(bytes: &[u8]) -> Result<Artifact, StoreError> {
        let artifact = Artifact::from_bytes(bytes)?;
        if artifact.to_bytes() != bytes {
            return Err(StoreError::malformed(
                "artifact does not round-trip byte-identically",
            ));
        }
        Ok(artifact)
    }

    /// Reads and round-trip-verifies an artifact file
    /// (see [`Artifact::from_bytes_verified`]).
    pub fn read_file_verified(path: impl AsRef<Path>) -> Result<Artifact, StoreError> {
        let bytes = std::fs::read(path)?;
        Artifact::from_bytes_verified(&bytes)
    }
}

// ---------------------------------------------------------------------------
// Field codecs
// ---------------------------------------------------------------------------

fn tags_to_bits(tags: Tags) -> u16 {
    tags.iter().fold(0u16, |m, c| m | (1 << c as u8))
}

fn tags_from_bits(bits: u16, context: &str) -> Result<Tags, StoreError> {
    if bits >= 1 << Category::COUNT {
        return Err(StoreError::malformed(format!(
            "{context}: tag bits {bits:#06x} set categories beyond {}",
            Category::COUNT
        )));
    }
    Ok(Category::ALL
        .into_iter()
        .filter(|&c| bits & (1 << c as u8) != 0)
        .collect())
}

fn read_category(r: &mut ByteReader<'_>, context: &str) -> Result<Category, StoreError> {
    let raw = r.u8(context)?;
    if (raw as usize) < Category::COUNT {
        Ok(Category::from_index(raw as usize))
    } else {
        Err(StoreError::malformed(format!(
            "{context}: category index {raw} out of range"
        )))
    }
}

fn write_params(p: &MinerParams) -> ByteWriter {
    let mut w = ByteWriter::new();
    w.f64(p.r3sigma);
    w.count(p.min_pts);
    w.f64(p.eps_p);
    w.f64(p.d_v);
    w.f64(p.alpha);
    w.f64(p.v_min);
    w.count(p.n_min);
    w.f64(p.merge_cos);
    w.f64(p.merge_dist);
    w.i64(p.theta_t);
    w.f64(p.theta_d);
    w.count(p.sigma);
    w.i64(p.delta_t);
    w.f64(p.rho);
    w.count(p.min_pattern_len);
    w.count(p.max_pattern_len);
    w.count(p.threads);
    w
}

fn read_params(mut r: ByteReader<'_>) -> Result<MinerParams, StoreError> {
    let params = MinerParams {
        r3sigma: r.f64("params.r3sigma")?,
        min_pts: r.u64("params.min_pts")? as usize,
        eps_p: r.f64("params.eps_p")?,
        d_v: r.f64("params.d_v")?,
        alpha: r.f64("params.alpha")?,
        v_min: r.f64("params.v_min")?,
        n_min: r.u64("params.n_min")? as usize,
        merge_cos: r.f64("params.merge_cos")?,
        merge_dist: r.f64("params.merge_dist")?,
        theta_t: r.i64("params.theta_t")?,
        theta_d: r.f64("params.theta_d")?,
        sigma: r.u64("params.sigma")? as usize,
        delta_t: r.i64("params.delta_t")?,
        rho: r.f64("params.rho")?,
        min_pattern_len: r.u64("params.min_pattern_len")? as usize,
        max_pattern_len: r.u64("params.max_pattern_len")? as usize,
        threads: r.u64("params.threads")? as usize,
    };
    r.finish("PARM")?;
    Ok(params)
}

fn write_pois(pois: &[Poi]) -> ByteWriter {
    let mut w = ByteWriter::new();
    w.count(pois.len());
    for p in pois {
        w.u64(p.id);
        w.f64(p.pos.x);
        w.f64(p.pos.y);
        w.u8(p.category as u8);
        w.u8(p.minor);
    }
    w
}

fn read_pois(mut r: ByteReader<'_>) -> Result<Vec<Poi>, StoreError> {
    let n = r.count(26, "POI count")?;
    let mut pois = Vec::with_capacity(n);
    for _ in 0..n {
        let id = r.u64("POI id")?;
        let x = r.f64("POI x")?;
        let y = r.f64("POI y")?;
        let category = read_category(&mut r, "POI category")?;
        let minor = r.u8("POI minor")?;
        pois.push(Poi {
            id,
            pos: LocalPoint::new(x, y),
            category,
            minor,
        });
    }
    r.finish("POIS")?;
    Ok(pois)
}

fn write_units(units: &[SemanticUnit]) -> ByteWriter {
    let mut w = ByteWriter::new();
    w.count(units.len());
    for u in units {
        w.count(u.members.len());
        for &m in &u.members {
            w.u64(m as u64);
        }
        w.u16(tags_to_bits(u.tags));
        w.f64(u.center.x);
        w.f64(u.center.y);
        for &d in &u.distribution {
            w.f64(d);
        }
    }
    w
}

fn read_units(mut r: ByteReader<'_>) -> Result<Vec<SemanticUnit>, StoreError> {
    // Minimal unit: empty member list (8) + tags (2) + center (16) +
    // distribution (15 * 8).
    let n = r.count(8 + 2 + 16 + Category::COUNT * 8, "unit count")?;
    let mut units = Vec::with_capacity(n);
    for _ in 0..n {
        let n_members = r.count(8, "unit member count")?;
        let mut members = Vec::with_capacity(n_members);
        for _ in 0..n_members {
            members.push(r.u64("unit member")? as usize);
        }
        let tags = tags_from_bits(r.u16("unit tags")?, "unit tags")?;
        let center = LocalPoint::new(r.f64("unit center x")?, r.f64("unit center y")?);
        let mut distribution = [0.0; Category::COUNT];
        for d in &mut distribution {
            *d = r.f64("unit distribution")?;
        }
        units.push(SemanticUnit {
            members,
            tags,
            center,
            distribution,
        });
    }
    r.finish("UNIT")?;
    Ok(units)
}

fn write_stats(s: BuildStats) -> ByteWriter {
    let mut w = ByteWriter::new();
    w.count(s.n_pois);
    w.count(s.n_coarse);
    w.count(s.n_leftover);
    w.count(s.n_purified);
    w.count(s.n_units);
    w.count(s.n_covered);
    w.f64(s.purity);
    w
}

fn read_stats(mut r: ByteReader<'_>) -> Result<BuildStats, StoreError> {
    let stats = BuildStats {
        n_pois: r.u64("stats.n_pois")? as usize,
        n_coarse: r.u64("stats.n_coarse")? as usize,
        n_leftover: r.u64("stats.n_leftover")? as usize,
        n_purified: r.u64("stats.n_purified")? as usize,
        n_units: r.u64("stats.n_units")? as usize,
        n_covered: r.u64("stats.n_covered")? as usize,
        purity: r.f64("stats.purity")?,
    };
    r.finish("STAT")?;
    Ok(stats)
}

fn write_degradations(events: &[Degradation]) -> ByteWriter {
    let mut w = ByteWriter::new();
    w.count(events.len());
    for e in events {
        let kind = match e {
            Degradation::UnsplitCluster { .. } => 0u8,
            Degradation::NonFinitePois { .. } => 1,
            Degradation::NonFiniteStayLocations { .. } => 2,
            Degradation::UntaggedNonFiniteStays { .. } => 3,
            Degradation::DroppedGpsFixes { .. } => 4,
            Degradation::SkippedExtractionStays { .. } => 5,
        };
        w.u8(kind);
        w.count(e.count());
    }
    w
}

fn read_degradations(mut r: ByteReader<'_>) -> Result<Vec<Degradation>, StoreError> {
    let n = r.count(9, "degradation count")?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        let kind = r.u8("degradation kind")?;
        let count = r.u64("degradation value")? as usize;
        events.push(match kind {
            0 => Degradation::UnsplitCluster { members: count },
            1 => Degradation::NonFinitePois { dropped: count },
            2 => Degradation::NonFiniteStayLocations { dropped: count },
            3 => Degradation::UntaggedNonFiniteStays { count },
            4 => Degradation::DroppedGpsFixes { count },
            5 => Degradation::SkippedExtractionStays { count },
            other => {
                return Err(StoreError::malformed(format!(
                    "degradation kind {other} out of range"
                )))
            }
        });
    }
    r.finish("DEGR")?;
    Ok(events)
}

fn write_stay(w: &mut ByteWriter, sp: &StayPoint) {
    w.f64(sp.pos.x);
    w.f64(sp.pos.y);
    w.i64(sp.time);
    w.u16(tags_to_bits(sp.tags));
    w.u8(sp.primary.map_or(0xFF, |c| c as u8));
}

fn read_stay(r: &mut ByteReader<'_>) -> Result<StayPoint, StoreError> {
    let x = r.f64("stay x")?;
    let y = r.f64("stay y")?;
    let time = r.i64("stay time")?;
    let tags = tags_from_bits(r.u16("stay tags")?, "stay tags")?;
    let primary = match r.u8("stay primary")? {
        0xFF => None,
        raw if (raw as usize) < Category::COUNT => Some(Category::from_index(raw as usize)),
        raw => {
            return Err(StoreError::malformed(format!(
                "stay primary category {raw} out of range"
            )))
        }
    };
    Ok(StayPoint {
        pos: LocalPoint::new(x, y),
        time,
        tags,
        primary,
    })
}

/// Bytes of one serialized stay point.
const STAY_BYTES: usize = 8 + 8 + 8 + 2 + 1;

fn write_patterns(patterns: &[FinePattern]) -> ByteWriter {
    let mut w = ByteWriter::new();
    w.count(patterns.len());
    for p in patterns {
        w.count(p.categories.len());
        for &c in &p.categories {
            w.u8(c as u8);
        }
        for sp in &p.stays {
            write_stay(&mut w, sp);
        }
        w.count(p.members.len());
        for &m in &p.members {
            w.u64(m as u64);
        }
        for group in &p.groups {
            w.count(group.len());
            for sp in group {
                write_stay(&mut w, sp);
            }
        }
    }
    w
}

fn read_patterns(mut r: ByteReader<'_>) -> Result<Vec<FinePattern>, StoreError> {
    // Minimal pattern: zero-length category list (8) + member count (8).
    let n = r.count(16, "pattern count")?;
    let mut patterns = Vec::with_capacity(n);
    for _ in 0..n {
        let len = r.count(1, "pattern length")?;
        if len == 0 {
            return Err(StoreError::malformed(
                "pattern with zero positions (the miner never emits these)",
            ));
        }
        let mut categories = Vec::with_capacity(len);
        for _ in 0..len {
            categories.push(read_category(&mut r, "pattern category")?);
        }
        let mut stays = Vec::with_capacity(len);
        for _ in 0..len {
            stays.push(read_stay(&mut r)?);
        }
        let n_members = r.count(8, "pattern member count")?;
        let mut members = Vec::with_capacity(n_members);
        for _ in 0..n_members {
            members.push(r.u64("pattern member")? as usize);
        }
        let mut groups = Vec::with_capacity(len);
        for _ in 0..len {
            let n_group = r.count(STAY_BYTES, "pattern group size")?;
            let mut group = Vec::with_capacity(n_group);
            for _ in 0..n_group {
                group.push(read_stay(&mut r)?);
            }
            groups.push(group);
        }
        patterns.push(FinePattern {
            categories,
            stays,
            members,
            groups,
        });
    }
    r.finish("PATS")?;
    Ok(patterns)
}

/// Bytes of one serialized motif class: form + days + per-category node
/// counts + untagged nodes.
const MOTIF_CLASS_BYTES: usize = 8 + 8 + Category::COUNT * 8 + 8;

fn write_motifs(table: &MotifTable) -> ByteWriter {
    let mut w = ByteWriter::new();
    w.u64(table.total_days);
    w.u64(table.oversize_days);
    w.count(table.classes.len());
    for c in &table.classes {
        w.u64(c.form);
        w.u64(c.days);
        for &n in &c.category_counts {
            w.u64(n);
        }
        w.u64(c.untagged_nodes);
    }
    w
}

fn read_motifs(mut r: ByteReader<'_>) -> Result<MotifTable, StoreError> {
    let total_days = r.u64("motif total days")?;
    let oversize_days = r.u64("motif oversize days")?;
    let n = r.count(MOTIF_CLASS_BYTES, "motif class count")?;
    let mut parts = Vec::with_capacity(n);
    for _ in 0..n {
        let form = r.u64("motif form")?;
        let days = r.u64("motif days")?;
        let mut category_counts = [0u64; Category::COUNT];
        for c in &mut category_counts {
            *c = r.u64("motif category count")?;
        }
        let untagged_nodes = r.u64("motif untagged nodes")?;
        parts.push((form, days, category_counts, untagged_nodes));
    }
    r.finish("motf")?;
    // `id`, node/edge counts, and shares are derived deterministically from
    // the stored parts, so the round trip stays byte-identical.
    Ok(MotifTable::from_parts(total_days, oversize_days, parts))
}

fn write_str(w: &mut ByteWriter, s: &str) {
    w.count(s.len());
    w.bytes(s.as_bytes());
}

fn read_str(r: &mut ByteReader<'_>, context: &str) -> Result<String, StoreError> {
    let n = r.count(1, context)?;
    let bytes = r.bytes(n, context)?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| StoreError::malformed(format!("{context} is not UTF-8")))
}

fn write_cohorts(table: &CohortTable) -> ByteWriter {
    let mut w = ByteWriter::new();
    w.u32(table.k_min);
    w.u64(table.seed);
    w.u8(table.method.as_u8());
    w.count(table.cohorts.len());
    for c in &table.cohorts {
        w.u64(c.size);
        w.f64(c.mean_active_days);
        w.f64(c.mean_stays);
        for &v in &c.category_mix {
            w.f64(v);
        }
    }
    w.count(table.users.len());
    for u in &table.users {
        write_str(&mut w, &u.user);
        w.u32(u.cohort);
        w.u64(u.stays);
        w.u64(u.active_days);
        w.u64(u.transitions);
        for &v in &u.category_visits {
            w.u64(v);
        }
        w.count(u.top_units.len());
        for &(unit, visits) in &u.top_units {
            w.u64(unit);
            w.u64(visits);
        }
        w.count(u.features.len());
        for &(key, weight) in &u.features {
            w.u64(key);
            w.f64(weight);
        }
    }
    w
}

/// Bytes of one serialized cohort aggregate: size + two means + the mix.
const COHORT_BYTES: usize = 8 + 8 + 8 + Category::COUNT * 8;
/// Minimal serialized user record: empty id + cohort + three counters +
/// category visits + two empty lists.
const USER_RECORD_MIN_BYTES: usize = 8 + 4 + 3 * 8 + Category::COUNT * 8 + 8 + 8;

fn read_cohorts(mut r: ByteReader<'_>) -> Result<CohortTable, StoreError> {
    let k_min = r.u32("cohort k_min")?;
    let seed = r.u64("cohort seed")?;
    let method = r.u8("cohort method")?;
    let n_cohorts = r.count(COHORT_BYTES, "cohort count")?;
    let mut cohorts = Vec::with_capacity(n_cohorts);
    for id in 0..n_cohorts {
        let size = r.u64("cohort size")?;
        let mean_active_days = r.f64("cohort mean active days")?;
        let mean_stays = r.f64("cohort mean stays")?;
        let mut category_mix = [0.0; Category::COUNT];
        for v in &mut category_mix {
            *v = r.f64("cohort category mix")?;
        }
        cohorts.push(Cohort {
            id: id as u32,
            size,
            category_mix,
            mean_active_days,
            mean_stays,
        });
    }
    let n_users = r.count(USER_RECORD_MIN_BYTES, "cohort user count")?;
    let mut users = Vec::with_capacity(n_users);
    for _ in 0..n_users {
        let user = read_str(&mut r, "cohort user id")?;
        let cohort = r.u32("cohort membership")?;
        let stays = r.u64("cohort user stays")?;
        let active_days = r.u64("cohort user active days")?;
        let transitions = r.u64("cohort user transitions")?;
        let mut category_visits = [0u64; Category::COUNT];
        for v in &mut category_visits {
            *v = r.u64("cohort user category visits")?;
        }
        let n_top = r.count(16, "cohort top-unit count")?;
        let mut top_units = Vec::with_capacity(n_top);
        for _ in 0..n_top {
            let unit = r.u64("cohort top unit")?;
            let visits = r.u64("cohort top unit visits")?;
            top_units.push((unit, visits));
        }
        let n_features = r.count(16, "cohort feature count")?;
        let mut features = Vec::with_capacity(n_features);
        for _ in 0..n_features {
            let key = r.u64("cohort feature key")?;
            let weight = r.f64("cohort feature weight")?;
            features.push((key, weight));
        }
        users.push(UserRecord {
            user,
            cohort,
            stays,
            active_days,
            transitions,
            category_visits,
            top_units,
            features,
        });
    }
    r.finish("coho")?;
    CohortTable::from_parts(k_min, seed, method, cohorts, users)
        .map_err(|e| StoreError::malformed(format!("cohort table invalid: {e}")))
}

/// One section frame of a serialized artifact, as reported by
/// [`section_summary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionSummary {
    /// The four-byte tag, e.g. `PATS` or `motf`.
    pub tag: [u8; 4],
    /// Payload size in bytes (excluding the 16-byte frame header).
    pub payload_bytes: u64,
    /// Whether the tag is optional (lowercase first byte): skippable by
    /// readers that do not know it.
    pub optional: bool,
}

impl SectionSummary {
    /// The tag as a printable string.
    pub fn tag_str(&self) -> String {
        String::from_utf8_lossy(&self.tag).into_owned()
    }
}

/// Walks the section frames of a serialized artifact without decoding the
/// payloads (CRCs are still verified), reporting each section's tag, size,
/// and optionality — the `artifact-check` CLI's section report.
pub fn section_summary(bytes: &[u8]) -> Result<Vec<SectionSummary>, StoreError> {
    let mut r = ByteReader::new(bytes);
    if r.bytes(MAGIC.len(), "magic")? != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = r.u32("format version")?;
    if version != VERSION {
        return Err(StoreError::UnsupportedVersion { found: version });
    }
    let n_sections = r.u32("section count")? as usize;
    if n_sections > r.remaining() / 16 {
        return Err(StoreError::malformed(format!(
            "section count {n_sections} exceeds what {} remaining byte(s) can hold",
            r.remaining()
        )));
    }
    let mut out = Vec::with_capacity(n_sections);
    for _ in 0..n_sections {
        let tag_bytes = r.bytes(4, "section tag")?;
        let tag = [tag_bytes[0], tag_bytes[1], tag_bytes[2], tag_bytes[3]];
        let len = r.u64("section length")?;
        if len > r.remaining().saturating_sub(4) as u64 {
            return Err(StoreError::truncated(format!(
                "section {} payload",
                String::from_utf8_lossy(&tag)
            )));
        }
        let stored_crc = r.u32("section crc")?;
        let payload = r.bytes(len as usize, "section payload")?;
        if crc32(payload) != stored_crc {
            return Err(StoreError::ChecksumMismatch { section: tag });
        }
        out.push(SectionSummary {
            tag,
            payload_bytes: len,
            optional: tag[0].is_ascii_lowercase(),
        });
    }
    if !r.is_exhausted() {
        return Err(StoreError::TrailingBytes {
            count: r.remaining(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_core::prelude::*;
    use pm_core::recognize::stay_points_of;

    /// A small deterministic mining run over the synthetic city.
    fn mined_run() -> (CitySemanticDiagram, Vec<FinePattern>, MinerParams) {
        let ds = pm_eval::Dataset::generate(&pm_synth::CityConfig::tiny(42));
        let params = MinerParams {
            sigma: 20,
            ..MinerParams::default()
        };
        let stays = stay_points_of(&ds.trajectories);
        let csd = CitySemanticDiagram::build(&ds.pois, &stays, &params).expect("build");
        let recognized = recognize_all(&csd, ds.trajectories, &params).expect("recognize");
        let patterns = extract_patterns(&recognized, &params).expect("extract");
        assert!(!patterns.is_empty(), "fixture must mine patterns");
        (csd, patterns, params)
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let (csd, patterns, params) = mined_run();
        let artifact =
            Artifact::new(csd, patterns, params).with_projection(GeoPoint::new(121.4737, 31.2304));
        let bytes = artifact.to_bytes();
        let reloaded = Artifact::from_bytes(&bytes).expect("load");
        assert_eq!(reloaded.to_bytes(), bytes, "re-serialize must be identical");
        assert_eq!(reloaded.patterns.len(), artifact.patterns.len());
        assert_eq!(reloaded.csd.units().len(), artifact.csd.units().len());
        assert_eq!(reloaded.params, artifact.params);
        assert_eq!(
            reloaded.projection.map(|p| (p.lon, p.lat)),
            artifact.projection.map(|p| (p.lon, p.lat))
        );
    }

    #[test]
    fn roundtrip_without_projection() {
        let (csd, patterns, params) = mined_run();
        let artifact = Artifact::new(csd, patterns, params);
        let bytes = artifact.to_bytes();
        let reloaded = Artifact::from_bytes(&bytes).expect("load");
        assert!(reloaded.projection.is_none());
        assert_eq!(reloaded.to_bytes(), bytes);
    }

    #[test]
    fn reloaded_diagram_answers_identical_range_queries() {
        let (csd, patterns, params) = mined_run();
        let artifact = Artifact::new(csd, patterns, params);
        let reloaded = Artifact::from_bytes(&artifact.to_bytes()).expect("load");
        for (x, y, r) in [(0.0, 0.0, 150.0), (2_010.0, 3.0, 80.0), (500.0, 0.0, 50.0)] {
            let q = LocalPoint::new(x, y);
            let owned = |csd: &CitySemanticDiagram| {
                let mut hits = Vec::new();
                csd.for_each_owned_in_range(q, r, |i, d_sq| hits.push((i, d_sq.to_bits())));
                hits
            };
            assert_eq!(owned(&artifact.csd), owned(&reloaded.csd));
        }
        for (i, u) in artifact.csd.units().iter().enumerate() {
            assert_eq!(u.members, reloaded.csd.units()[i].members);
            for &m in &u.members {
                assert_eq!(reloaded.csd.unit_of(m), Some(i));
            }
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = Artifact::from_bytes(b"not-an-artifact-at-all").unwrap_err();
        assert_eq!(err, StoreError::BadMagic);
    }

    #[test]
    fn wrong_version_is_rejected() {
        let (csd, patterns, params) = mined_run();
        let mut bytes = Artifact::new(csd, patterns, params).to_bytes();
        bytes[8] = 99; // version field
        assert_eq!(
            Artifact::from_bytes(&bytes).unwrap_err(),
            StoreError::UnsupportedVersion { found: 99 }
        );
    }

    #[test]
    fn empty_input_is_truncated_not_panic() {
        assert!(matches!(
            Artifact::from_bytes(&[]).unwrap_err(),
            StoreError::Truncated { .. }
        ));
    }

    #[test]
    fn payload_corruption_fails_the_crc() {
        let (csd, patterns, params) = mined_run();
        let mut bytes = Artifact::new(csd, patterns, params).to_bytes();
        // Flip a byte well inside the first section's payload.
        let target = 16 + 16 + 8;
        bytes[target] ^= 0x10;
        assert!(matches!(
            Artifact::from_bytes(&bytes).unwrap_err(),
            StoreError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn truncation_mid_stream_is_typed() {
        let (csd, patterns, params) = mined_run();
        let bytes = Artifact::new(csd, patterns, params).to_bytes();
        for cut in [13, 40, bytes.len() / 2, bytes.len() - 1] {
            let err = Artifact::from_bytes(&bytes[..cut]).unwrap_err();
            // A cut can surface as literal truncation or as an implausible
            // count (the allocation guard fires first) — both are typed.
            assert!(
                matches!(
                    err,
                    StoreError::Truncated { .. } | StoreError::Malformed { .. }
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let (csd, patterns, params) = mined_run();
        let mut bytes = Artifact::new(csd, patterns, params).to_bytes();
        bytes.extend_from_slice(b"junk");
        assert_eq!(
            Artifact::from_bytes(&bytes).unwrap_err(),
            StoreError::TrailingBytes { count: 4 }
        );
    }

    #[test]
    fn empty_run_roundtrips() {
        let params = MinerParams::default();
        let csd = CitySemanticDiagram::build(&[], &[], &params).expect("build");
        let artifact = Artifact::new(csd, Vec::new(), params);
        let bytes = artifact.to_bytes();
        let reloaded = Artifact::from_bytes(&bytes).expect("load");
        assert!(reloaded.patterns.is_empty());
        assert!(reloaded.csd.units().is_empty());
        assert_eq!(reloaded.to_bytes(), bytes);
    }

    #[test]
    fn file_helpers_roundtrip() {
        let (csd, patterns, params) = mined_run();
        let artifact = Artifact::new(csd, patterns, params);
        let dir = std::env::temp_dir().join("pm-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("artifact-{}.pmstore", std::process::id()));
        artifact.write_file(&path).expect("write");
        let reloaded = Artifact::read_file(&path).expect("read");
        assert_eq!(reloaded.to_bytes(), artifact.to_bytes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = Artifact::read_file("/nonexistent/definitely/not/here.pmstore").unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }));
    }

    /// A small motif table with two ranked classes.
    fn motif_table() -> MotifTable {
        let mut agg = pm_motif::MotifAggregator::new();
        for keys in [&[1u64, 2, 1][..], &[3, 4, 3], &[5]] {
            let mut day = pm_motif::DayGraphBuilder::new();
            for &k in keys {
                day.visit(k, Some(Category::Residence));
            }
            agg.record(&day.finish());
        }
        agg.table()
    }

    /// Appends one raw section frame (tag + length + CRC + payload) and
    /// bumps the header's section count — the shape a *newer* writer's
    /// unknown extension would take.
    fn splice_section(bytes: &[u8], tag: [u8; 4], payload: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        let count = u32::from_le_bytes(out[12..16].try_into().unwrap());
        out[12..16].copy_from_slice(&(count + 1).to_le_bytes());
        out.extend_from_slice(&tag);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn motif_section_roundtrips_byte_identically() {
        let (csd, patterns, params) = mined_run();
        let artifact = Artifact::new(csd, patterns, params).with_motifs(motif_table());
        let bytes = artifact.to_bytes();
        let reloaded = Artifact::from_bytes_verified(&bytes).expect("verified load");
        assert!(reloaded.describe().contains("motif classes"));
        let table = reloaded.motifs.expect("motif section present");
        assert_eq!(table, motif_table());
        assert_eq!(table.classes[0].days, 2);
    }

    #[test]
    fn pre_motif_artifact_loads_with_no_motifs() {
        let (csd, patterns, params) = mined_run();
        // The exact bytes a writer predating the motf section produced.
        let bytes = Artifact::new(csd, patterns, params).to_bytes();
        let reloaded = Artifact::from_bytes_verified(&bytes).expect("load");
        assert!(reloaded.motifs.is_none());
    }

    #[test]
    fn unknown_optional_section_is_skipped_and_known_sections_survive() {
        let (csd, patterns, params) = mined_run();
        let original = Artifact::new(csd, patterns, params).to_bytes();
        let spliced = splice_section(&original, *b"zukn", b"future payload this reader ignores");

        // The reader skips the unknown optional section...
        let reloaded = Artifact::from_bytes(&spliced).expect("skip unknown optional");
        // ...and re-serializes the known sections byte-identically.
        assert_eq!(reloaded.to_bytes(), original);
        // The *verified* reader refuses exactly because the skip is lossy —
        // the gate /v1/reload applies before trusting an artifact.
        assert!(Artifact::from_bytes_verified(&spliced).is_err());
        // A corrupted unknown section still fails its CRC: optional means
        // ignorable, not unchecked.
        let mut corrupt = spliced.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40;
        assert!(matches!(
            Artifact::from_bytes(&corrupt).unwrap_err(),
            StoreError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn motif_bearing_artifact_loads_where_the_feature_is_unknown() {
        let (csd, patterns, params) = mined_run();
        let plain = Artifact::new(csd.clone(), patterns.clone(), params).to_bytes();
        let mut with_motifs = Artifact::new(csd, patterns, params)
            .with_motifs(motif_table())
            .to_bytes();

        // Simulate a reader that predates motifs by renaming the motf tag
        // to one no reader knows: walk the frames to the last section (the
        // writer appends motf after the critical ones) and rewrite its tag.
        let mut at = 16;
        loop {
            let len = u64::from_le_bytes(with_motifs[at + 4..at + 12].try_into().unwrap()) as usize;
            let next = at + 16 + len;
            if next == with_motifs.len() {
                break;
            }
            at = next;
        }
        assert_eq!(&with_motifs[at..at + 4], b"motf");
        with_motifs[at..at + 4].copy_from_slice(b"zotf");

        let reloaded = Artifact::from_bytes(&with_motifs).expect("skip unknown motif section");
        assert!(reloaded.motifs.is_none());
        assert_eq!(
            reloaded.to_bytes(),
            plain,
            "known sections must re-serialize exactly as the pre-motif artifact"
        );
    }

    /// A small cohort table over two behavioral groups.
    fn cohort_table() -> CohortTable {
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
        CohortTable::mine(
            embeddings,
            &pm_cohort::CohortParams {
                k_min: 3,
                ..pm_cohort::CohortParams::default()
            },
        )
    }

    #[test]
    fn cohort_section_roundtrips_byte_identically() {
        let (csd, patterns, params) = mined_run();
        let artifact = Artifact::new(csd, patterns, params).with_cohorts(cohort_table());
        let bytes = artifact.to_bytes();
        let reloaded = Artifact::from_bytes_verified(&bytes).expect("verified load");
        assert!(reloaded.describe().contains("cohorts over"));
        let table = reloaded.cohorts.expect("cohort section present");
        assert_eq!(table, cohort_table());
        assert_eq!(table.k_min, 3);
        assert_eq!(table.users.len(), 8);
    }

    #[test]
    fn pre_cohort_artifact_loads_with_no_cohorts() {
        let (csd, patterns, params) = mined_run();
        let bytes = Artifact::new(csd, patterns, params).to_bytes();
        let reloaded = Artifact::from_bytes_verified(&bytes).expect("load");
        assert!(reloaded.cohorts.is_none());
    }

    #[test]
    fn cohort_bearing_artifact_loads_where_the_feature_is_unknown() {
        let (csd, patterns, params) = mined_run();
        let plain = Artifact::new(csd.clone(), patterns.clone(), params).to_bytes();
        let mut with_cohorts = Artifact::new(csd, patterns, params)
            .with_cohorts(cohort_table())
            .to_bytes();

        // Rename the trailing coho tag so the reader treats it as an
        // unknown optional section — the motf forward-compat contract.
        let mut at = 16;
        loop {
            let len =
                u64::from_le_bytes(with_cohorts[at + 4..at + 12].try_into().unwrap()) as usize;
            let next = at + 16 + len;
            if next == with_cohorts.len() {
                break;
            }
            at = next;
        }
        assert_eq!(&with_cohorts[at..at + 4], b"coho");
        with_cohorts[at..at + 4].copy_from_slice(b"zoho");

        let reloaded = Artifact::from_bytes(&with_cohorts).expect("skip unknown cohort section");
        assert!(reloaded.cohorts.is_none());
        assert_eq!(reloaded.to_bytes(), plain);
    }

    #[test]
    fn corrupt_cohort_payload_is_rejected() {
        let (csd, patterns, params) = mined_run();
        let mut table = cohort_table();
        table.cohorts[0].size += 1; // inconsistent member count
        let bytes = Artifact::new(csd, patterns, params)
            .with_cohorts(table)
            .to_bytes();
        assert!(matches!(
            Artifact::from_bytes(&bytes).unwrap_err(),
            StoreError::Malformed { .. }
        ));
    }

    #[test]
    fn section_summary_reports_optional_sections() {
        let (csd, patterns, params) = mined_run();
        let plain = Artifact::new(csd.clone(), patterns.clone(), params).to_bytes();
        let summary = section_summary(&plain).expect("summary");
        assert!(summary.iter().all(|s| !s.optional));
        assert!(summary.iter().any(|s| s.tag == TAG_PATS));

        let full = Artifact::new(csd, patterns, params)
            .with_motifs(motif_table())
            .with_cohorts(cohort_table())
            .to_bytes();
        let summary = section_summary(&full).expect("summary");
        let motf = summary.iter().find(|s| s.tag == TAG_MOTF).expect("motf");
        let coho = summary.iter().find(|s| s.tag == TAG_COHO).expect("coho");
        assert!(motf.optional && coho.optional);
        assert!(coho.payload_bytes > 0);
        assert_eq!(coho.tag_str(), "coho");

        // A CRC flip is still caught without decoding payloads.
        let mut corrupt = full.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        assert!(matches!(
            section_summary(&corrupt).unwrap_err(),
            StoreError::ChecksumMismatch { .. }
        ));
    }
}
