//! # pm-serve — the online semantic query service
//!
//! Serves a mined run (a [`pm_store::Artifact`]) over HTTP: the paper's
//! offline pipeline becomes an online service answering "what happens
//! here?" (`GET /v1/semantic`), "annotate this trajectory" (Algorithm 3 on
//! demand, `POST /v1/annotate`), and "which patterns match?"
//! ([`pm_core::query::PatternQuery`] over the stored pattern set,
//! `GET /v1/patterns`).
//!
//! std-only, like the rest of the workspace: the HTTP/1.1 implementation
//! sits directly on [`std::net::TcpListener`], the worker pool is
//! [`pm_runtime::WorkerPool`], and observability is [`pm_obs::Obs`]
//! counters surfaced at `GET /v1/stats`.
//!
//! ## Endpoints
//!
//! | method & path       | query / body                                    |
//! |---------------------|-------------------------------------------------|
//! | `GET /healthz`      | —                                               |
//! | `GET /v1/semantic`  | `x`,`y` (meters) or `lat`,`lon` (geo artifacts) |
//! | `POST /v1/annotate` | `{"points":[{"x":..,"y":..,"t":..}, ...]}`      |
//! | `GET /v1/patterns`  | `from`, `to`, `involving`, `min_support`, `min_len`, `max_len`, `bucket`, `near=x,y,r`, `near_ll=lon,lat,r`, `limit` |
//! | `GET /v1/motifs`    | `min_nodes`, `max_nodes`, `category`, `top` — ranked motif classes from the artifact (`404` when it has none) |
//! | `GET /v1/cohorts`   | `category`, `min_size`, `top` — life-pattern cohort aggregates; sub-`k_min` cohorts render `suppressed` (`404` when the artifact has no cohort index) |
//! | `GET /v1/users/:id/patterns` | — one user's pattern record from the cohort index (`404` without the section or user) |
//! | `GET /v1/users/:id/similar` | `k`, `scope=cohort\|all` — ranked similar users; the neighborhood aggregate is suppressed below `k_min` |
//! | `GET /v1/stats`     | — (pm-obs run report)                           |
//! | `POST /v1/ingest`   | `{"fixes":[{"user":..,"x":..,"y":..,"t":..},..],"stays":[..]}` — live trajectory stream |
//! | `GET /v1/live/patterns` | — (sliding-window semantic transition counts) |
//! | `GET /v1/live/motifs` | — (sliding 7-day mobility-motif classes, shard-merge deterministic) |
//! | `POST /v1/reload`   | `{"path":..}` (optional) — validate + hot-swap the artifact |
//! | `GET /v1/miner`     | — (background re-miner status: circuit state, failure tallies, generations) |
//!
//! Every response is JSON. Connections are HTTP/1.1 **keep-alive** (capped
//! per connection; `Connection: close` and error statuses end the session).
//! The accept queue is bounded; overload is shed with `503`, oversized
//! ingest batches with `429`, instead of queueing without limit — and
//! overload answers carry a `Retry-After` header so clients back off by the
//! server's clock.
//!
//! ## Serving model
//!
//! The artifact is loaded into an immutable [`Snapshot`]; a [`ServeState`]
//! publishes it behind an epoch-versioned [`epoch::EpochCell`] — lock-free
//! steady-state reads — so `POST /v1/reload` can hot-swap a revalidated
//! artifact while in-flight requests finish on the snapshot they started
//! with. Query responses are bit-deterministic for a given artifact — the
//! integration tests compare bytes served over the socket against the
//! snapshot's in-process output. The live side (`/v1/ingest` →
//! `/v1/live/patterns`) runs a user-keyed [`pm_stream::ShardedEngine`]
//! behind the same state: batches fan out to per-shard engines and worker
//! threads, and merged reads are byte-identical at any shard count.
//!
//! ## Online loop
//!
//! With a WAL configured ([`pm_stream::ShardConfig::with_wal`]), each
//! shard logs its slice of every accepted batch before its engine sees it
//! and checkpoints its state periodically — a killed process recovers its
//! exact live state on restart. A [`Reminer`] supervises periodic background re-mining
//! over the accumulated stays: panic-isolated, deadline-bounded jobs run
//! [`mine_artifact`], the same single pass that builds the CLI's artifacts,
//! and publish through a read-back-verified [`pm_store::GenerationStore`]
//! before the serving snapshot swaps. Miner failures back off exponentially
//! and trip a circuit breaker; the serving path never 5xxs because of them.

pub mod client;
pub mod epoch;
pub mod http;
pub mod json;
pub mod miner;
pub mod server;
pub mod snapshot;
pub mod state;

pub use epoch::EpochCell;
pub use miner::{mine_artifact, FailureKind, InjectedFault, MinerStatus, RemineConfig, Reminer};
pub use server::{ServeConfig, Server, ShutdownHandle};
pub use snapshot::{CohortLookup, CohortQuery, MotifQuery, SimilarQuery, Snapshot};
pub use state::ServeState;
