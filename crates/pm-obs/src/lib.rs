//! **pm-obs** — the observability layer of the Pervasive Miner stack.
//!
//! Answers "where did this run spend its time and what did each stage
//! produce?" without attaching a profiler:
//!
//! - [`Obs`] is a cheaply cloneable handle threaded through the pipeline.
//!   The default ([`Obs::noop`]) records nothing and costs one branch per
//!   call site, so library callers that never ask for a report pay nothing.
//! - [`Obs::span`] opens a monotonic RAII timer. Spans are nestable (guards
//!   may be opened inside other guards, on any thread) and worker-aware:
//!   a closing span folds into its name's running aggregate (calls, total,
//!   min, max, and the distinct [`pm_runtime`] worker ids it ran on), so a
//!   report shows how many workers a stage fanned out over while memory
//!   stays one entry per span name, however long the process runs.
//! - [`Obs::incr`] / [`Obs::gauge`] maintain named counters and gauges.
//!   Counters are monotone sums, so their totals are independent of worker
//!   scheduling — observability never breaks the §9 determinism contract.
//! - [`Obs::report`] snapshots everything into a [`RunReport`] that
//!   serializes to stable JSON (keys sorted, schema versioned) or a
//!   human-readable text table.
//!
//! # Naming scheme
//!
//! Dotted lowercase paths, `<stage>.<what>`: span names use the pipeline
//! stage as the first segment (`construct.clustering`, `recognize.vote`,
//! `extract.prefixspan`); counter names use the owning stage plus a plural
//! noun (`extract.fine_patterns`, `cluster.optics_runs`). Two prefixes are
//! special-cased by [`RunReport`]: counters under `degradation.` and
//! `quarantine.` are lifted into their own report sections so a run's
//! tolerated-trouble tallies are visible at a glance.
//!
//! The online service (pm-serve + pm-stream) pre-registers its counter
//! schema at zero on startup, so a fresh server's report always carries
//! the same names:
//!
//! - `serve.requests.<endpoint>` / `serve.errors.<endpoint>` per routed
//!   endpoint, `serve.shed` for queue-full 503s, and `serve.swap_epoch`
//!   counting snapshot hot-swaps (paired with the `serve.epoch` gauge);
//! - `stream.fixes_accepted`, `stream.stays_emitted`,
//!   `stream.transitions_recorded`, `stream.transitions_late`, and
//!   `stream.users_evicted` for the ingestion engine, with the live gauges
//!   `stream.users_active` / `stream.buffered_fixes`;
//! - `quarantine.stream_out_of_order` and
//!   `degradation.stream_dropped_fixes` ride the special-cased prefixes, so
//!   streaming trouble lands in the same report sections as batch trouble.
//!
//! # Determinism
//!
//! Observation is strictly one-way: nothing read from an [`Obs`] feeds back
//! into pipeline decisions, so results are byte-identical whether a run is
//! observed or not (`tests/parallel_parity.rs` proves this end to end).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

pub mod json;
pub mod report;

pub use report::{RunReport, StageReport};

/// Running totals of every closed span sharing one name.
#[derive(Debug)]
struct SpanAgg {
    calls: u64,
    total: u128,
    min: u128,
    max: u128,
    /// Distinct `pm_runtime` worker ids the spans closed on (`None` = the
    /// calling thread outside any parallel region).
    workers: Vec<Option<usize>>,
}

#[derive(Debug)]
struct Inner {
    started: Instant,
    threads: AtomicUsize,
    spans: Mutex<BTreeMap<&'static str, SpanAgg>>,
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
}

impl Inner {
    /// Folds one closed span into its name's aggregate.
    fn record(&self, name: &'static str, nanos: u128, worker: Option<usize>) {
        let mut spans = lock(&self.spans);
        let agg = spans.entry(name).or_insert_with(|| SpanAgg {
            calls: 0,
            total: 0,
            min: nanos,
            max: nanos,
            workers: Vec::new(),
        });
        agg.calls += 1;
        agg.total += nanos;
        agg.min = agg.min.min(nanos);
        agg.max = agg.max.max(nanos);
        if !agg.workers.contains(&worker) {
            agg.workers.push(worker);
        }
    }
}

/// Recovers the data from a poisoned lock: observability must never turn a
/// worker panic elsewhere into a second panic here.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Handle to a run's observability state.
///
/// Clones share the same underlying recorder, so the handle can be passed by
/// value into worker closures. The [`Default`]/[`Obs::noop`] form holds no
/// state at all: every method short-circuits on one `Option` check.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
}

impl Obs {
    /// A recording handle. Everything observed through it (and its clones)
    /// lands in one shared state, snapshotted by [`Obs::report`].
    pub fn enabled() -> Self {
        Obs {
            inner: Some(Arc::new(Inner {
                started: Instant::now(),
                threads: AtomicUsize::new(1),
                spans: Mutex::new(BTreeMap::new()),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// The zero-cost default: records nothing.
    pub fn noop() -> Self {
        Obs::default()
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Declares the resolved worker-thread count of the run being observed
    /// (informational; spans additionally record which worker they ran on).
    pub fn set_threads(&self, threads: usize) {
        if let Some(inner) = &self.inner {
            inner.threads.store(threads.max(1), Ordering::Relaxed);
        }
    }

    /// Opens a named span; the time from this call until the guard drops is
    /// recorded. Guards may nest freely and may be opened on worker threads.
    #[must_use = "a span measures until its guard drops; binding it to _ closes it immediately"]
    pub fn span(&self, name: &'static str) -> Span<'_> {
        Span {
            state: self
                .inner
                .as_deref()
                .map(|inner| (inner, name, Instant::now())),
        }
    }

    /// Adds `by` to the named counter, creating it at zero first. `by = 0`
    /// registers the counter so it appears in the report even when nothing
    /// was ever counted (useful for stable schemas).
    pub fn incr(&self, name: &str, by: u64) {
        if let Some(inner) = &self.inner {
            let mut counters = lock(&inner.counters);
            match counters.get_mut(name) {
                Some(v) => *v = v.saturating_add(by),
                None => {
                    counters.insert(name.to_string(), by);
                }
            }
        }
    }

    /// Sets the named gauge to `value` (last write wins).
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            let mut gauges = lock(&inner.gauges);
            match gauges.get_mut(name) {
                Some(v) => *v = value,
                None => {
                    gauges.insert(name.to_string(), value);
                }
            }
        }
    }

    /// Reads one counter back (0 when absent or when the handle is a no-op).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .as_deref()
            .and_then(|inner| lock(&inner.counters).get(name).copied())
            .unwrap_or(0)
    }

    /// Snapshots everything recorded so far into a [`RunReport`]. A no-op
    /// handle yields an empty (but well-formed) report.
    pub fn report(&self) -> RunReport {
        let Some(inner) = self.inner.as_deref() else {
            return RunReport::empty();
        };
        let wall_ms = inner.started.elapsed().as_nanos() as f64 / 1e6;
        let threads = inner.threads.load(Ordering::Relaxed);
        // BTreeMap order keeps the stage list sorted, so the serialized
        // report is stable run to run.
        let stages = lock(&inner.spans)
            .iter()
            .map(|(name, a)| StageReport {
                name: name.to_string(),
                calls: a.calls,
                total_ms: a.total as f64 / 1e6,
                min_ms: a.min as f64 / 1e6,
                max_ms: a.max as f64 / 1e6,
                workers: a.workers.len() as u64,
            })
            .collect();
        let counters = lock(&inner.counters).clone();
        let gauges = lock(&inner.gauges).clone();
        RunReport::assemble(wall_ms, threads, stages, counters, gauges)
    }
}

/// RAII guard returned by [`Obs::span`]; records the elapsed time on drop.
#[derive(Debug)]
pub struct Span<'a> {
    state: Option<(&'a Inner, &'static str, Instant)>,
}

impl Span<'_> {
    /// Closes the span now instead of at end of scope.
    pub fn finish(self) {}
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some((inner, name, start)) = self.state.take() {
            inner.record(
                name,
                start.elapsed().as_nanos(),
                pm_runtime::current_worker(),
            );
        }
    }
}

impl RunReport {
    pub(crate) fn assemble(
        wall_ms: f64,
        threads: usize,
        stages: Vec<StageReport>,
        counters: BTreeMap<String, u64>,
        gauges: BTreeMap<String, f64>,
    ) -> RunReport {
        // Lift the special-cased counter prefixes into their own sections.
        let mut plain = BTreeMap::new();
        let mut degradations = BTreeMap::new();
        let mut quarantine = BTreeMap::new();
        for (k, v) in counters {
            if let Some(rest) = k.strip_prefix("degradation.") {
                degradations.insert(rest.to_string(), v);
            } else if let Some(rest) = k.strip_prefix("quarantine.") {
                quarantine.insert(rest.to_string(), v);
            } else {
                plain.insert(k, v);
            }
        }

        RunReport {
            wall_ms,
            threads: threads as u64,
            stages,
            counters: plain,
            degradations,
            quarantine,
            gauges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_records_nothing() {
        let obs = Obs::noop();
        assert!(!obs.is_enabled());
        {
            let _s = obs.span("construct.clustering");
        }
        obs.incr("x.count", 5);
        obs.gauge("x.gauge", 1.5);
        obs.set_threads(8);
        let r = obs.report();
        assert!(r.stages.is_empty());
        assert!(r.counters.is_empty());
        assert!(r.gauges.is_empty());
        assert_eq!(obs.counter("x.count"), 0);
    }

    #[test]
    fn spans_aggregate_by_name() {
        let obs = Obs::enabled();
        for _ in 0..3 {
            let _s = obs.span("stage.a");
        }
        {
            let _outer = obs.span("stage.b");
            let _inner = obs.span("stage.a"); // nesting is fine
        }
        let r = obs.report();
        assert_eq!(r.stages.len(), 2);
        let a = r.stages.iter().find(|s| s.name == "stage.a").unwrap();
        assert_eq!(a.calls, 4);
        assert!(a.total_ms >= a.max_ms && a.max_ms >= a.min_ms);
        let b = r.stages.iter().find(|s| s.name == "stage.b").unwrap();
        assert_eq!(b.calls, 1);
    }

    #[test]
    fn folded_spans_match_a_brute_force_aggregation() {
        // Seeded xorshift triples folded one by one must report exactly what
        // aggregating the whole list at once gives.
        const NAMES: [&str; 5] = ["a.x", "b.y", "c.z", "d.w", "e.v"];
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let triples: Vec<(&'static str, u128, Option<usize>)> = (0..2_000)
            .map(|_| {
                let name = NAMES[(next() % NAMES.len() as u64) as usize];
                let nanos = u128::from(next() % 5_000_000);
                let worker = match next() % 6 {
                    0 => None,
                    w => Some(w as usize - 1),
                };
                (name, nanos, worker)
            })
            .collect();
        let obs = Obs::enabled();
        let inner = obs.inner.as_deref().expect("enabled");
        for &(name, nanos, worker) in &triples {
            inner.record(name, nanos, worker);
        }

        let mut names: Vec<&str> = triples.iter().map(|t| t.0).collect();
        names.sort_unstable();
        names.dedup();
        let want: Vec<StageReport> = names
            .iter()
            .map(|&name| {
                let of: Vec<_> = triples.iter().filter(|t| t.0 == name).collect();
                let mut workers: Vec<Option<usize>> = of.iter().map(|t| t.2).collect();
                workers.sort_unstable();
                workers.dedup();
                StageReport {
                    name: name.to_string(),
                    calls: of.len() as u64,
                    total_ms: of.iter().map(|t| t.1).sum::<u128>() as f64 / 1e6,
                    min_ms: of.iter().map(|t| t.1).min().expect("non-empty") as f64 / 1e6,
                    max_ms: of.iter().map(|t| t.1).max().expect("non-empty") as f64 / 1e6,
                    workers: workers.len() as u64,
                }
            })
            .collect();
        assert_eq!(obs.report().stages, want);
    }

    #[test]
    fn counters_sum_and_register_at_zero() {
        let obs = Obs::enabled();
        obs.incr("extract.fine_patterns", 0); // register
        obs.incr("recognize.votes_cast", 3);
        obs.incr("recognize.votes_cast", 4);
        assert_eq!(obs.counter("recognize.votes_cast"), 7);
        let r = obs.report();
        assert_eq!(r.counters.get("extract.fine_patterns"), Some(&0));
        assert_eq!(r.counters.get("recognize.votes_cast"), Some(&7));
    }

    #[test]
    fn counter_totals_are_schedule_independent() {
        // Increment from parallel workers: the sum is the same no matter how
        // the work was scheduled — the property that keeps observed runs
        // bit-identical to unobserved ones.
        let items: Vec<u64> = (0..257).collect();
        let mut totals = Vec::new();
        for threads in [1, 4] {
            let obs = Obs::enabled();
            pm_runtime::par_map(&items, threads, |&x| obs.incr("work.items", x));
            totals.push(obs.counter("work.items"));
        }
        assert_eq!(totals[0], totals[1]);
        assert_eq!(totals[0], (0..257).sum::<u64>());
    }

    #[test]
    fn spans_on_workers_record_worker_ids() {
        let obs = Obs::enabled();
        let items: Vec<usize> = (0..64).collect();
        pm_runtime::par_map(&items, 4, |_| {
            let _s = obs.span("worker.stage");
        });
        let r = obs.report();
        let s = r.stages.iter().find(|s| s.name == "worker.stage").unwrap();
        assert_eq!(s.calls, 64);
        assert!(
            s.workers >= 2,
            "expected >= 2 distinct workers, got {}",
            s.workers
        );
    }

    #[test]
    fn degradation_and_quarantine_prefixes_are_sectioned() {
        let obs = Obs::enabled();
        obs.incr("degradation.dropped_gps_fixes", 2);
        obs.incr("quarantine.journeys_dropped", 5);
        obs.incr("io.lines_read", 100);
        let r = obs.report();
        assert_eq!(r.degradations.get("dropped_gps_fixes"), Some(&2));
        assert_eq!(r.quarantine.get("journeys_dropped"), Some(&5));
        assert_eq!(r.counters.get("io.lines_read"), Some(&100));
        assert!(!r.counters.contains_key("degradation.dropped_gps_fixes"));
    }

    #[test]
    fn serve_stream_counter_schema_is_stable() {
        // The canonical names the online service pre-registers at zero (see
        // the naming scheme above). Registration alone must make every name
        // land in its proper `pm-obs/1` section — the contract pm-serve's
        // `/v1/stats` endpoint and the run-report consumers rely on.
        let obs = Obs::enabled();
        for name in [
            "stream.fixes_accepted",
            "stream.stays_emitted",
            "stream.transitions_recorded",
            "stream.transitions_late",
            "stream.users_evicted",
            "quarantine.stream_out_of_order",
            "degradation.stream_dropped_fixes",
            "serve.swap_epoch",
            "cohort.cohorts_served",
            "cohort.patterns_served",
            "cohort.similar_served",
            "cohort.suppressed_aggregates",
            "cohort.unknown_user",
            "cohort.missing_section",
        ] {
            obs.incr(name, 0);
        }
        obs.gauge("serve.epoch", 0.0);
        obs.gauge("stream.users_active", 0.0);
        obs.gauge("stream.buffered_fixes", 0.0);
        let r = obs.report();
        assert_eq!(r.counters.get("stream.fixes_accepted"), Some(&0));
        assert_eq!(r.counters.get("serve.swap_epoch"), Some(&0));
        assert_eq!(r.counters.get("cohort.suppressed_aggregates"), Some(&0));
        assert_eq!(r.quarantine.get("stream_out_of_order"), Some(&0));
        assert_eq!(r.degradations.get("stream_dropped_fixes"), Some(&0));
        let json = r.to_json();
        assert!(json.starts_with("{\n  \"schema\": \"pm-obs/1\""));
        for name in [
            "stream.fixes_accepted",
            "stream.transitions_late",
            "serve.swap_epoch",
            "stream_out_of_order",
            "stream_dropped_fixes",
            "serve.epoch",
            "stream.users_active",
            "stream.buffered_fixes",
            "cohort.cohorts_served",
            "cohort.patterns_served",
            "cohort.similar_served",
            "cohort.suppressed_aggregates",
            "cohort.unknown_user",
            "cohort.missing_section",
        ] {
            assert!(json.contains(name), "{name} missing from report JSON");
        }
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::enabled();
        let clone = obs.clone();
        clone.incr("shared.count", 1);
        obs.incr("shared.count", 1);
        assert_eq!(obs.counter("shared.count"), 2);
    }

    #[test]
    fn threads_and_gauges_surface_in_report() {
        let obs = Obs::enabled();
        obs.set_threads(4);
        obs.gauge("input.pois", 1500.0);
        let r = obs.report();
        assert_eq!(r.threads, 4);
        assert_eq!(r.gauges.get("input.pois"), Some(&1500.0));
        assert!(r.wall_ms >= 0.0);
    }
}
