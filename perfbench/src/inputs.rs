//! Everything a run feeds the program, made from `--seed` alone: the
//! synthetic city and its taxi corpus, a live GPS fix stream, and the query
//! mix. The same seed gives the same inputs.

use pervasive_miner::core::types::Category;
use pervasive_miner::geo::LocalPoint;
use pervasive_miner::prelude::*;
use std::fmt::Write as _;

/// SplitMix64: a small, seedable generator so inputs never depend on the
/// program's own RNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[-r, r)`.
    pub fn jitter(&mut self, r: f64) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 * r - r
    }
}

fn mix(a: u64, b: u64, c: u64) -> u64 {
    Rng::new(a ^ b.wrapping_mul(0xA24B_AED4_963E_E407) ^ c.wrapping_mul(0x9FB2_1C65_1E98_DF25))
        .next()
}

/// City `city` of a run: the tiny preset over a full week, so weekday and
/// weekend days both occur.
pub fn city(seed: u64, city: u64) -> CityConfig {
    CityConfig {
        n_days: 7,
        ..CityConfig::tiny(mix(seed, city, 0xC17))
    }
}

/// The city the server is deployed over. It is the same for every seed, so
/// the ingest and serve figures describe one deployment and the seed varies
/// the traffic; the mining workload varies the corpora instead.
pub fn served_city() -> CityConfig {
    city(0, u64::MAX)
}

/// Mining parameters: the paper's defaults with the support threshold
/// scaled to the corpus, on one thread like the server's background
/// re-miner.
pub fn params() -> MinerParams {
    MinerParams {
        sigma: 20,
        threads: 1,
        ..MinerParams::default()
    }
}

/// Users reporting on the live stream.
pub const STREAM_USERS: usize = 1_000;
/// Fixes per `POST /v1/ingest` batch.
pub const BATCH_FIXES: usize = 1_000;
/// Each user reports one fix per slot.
const SLOT_SECS: i64 = 15 * 60;
const SLOTS_PER_DAY: u64 = 96;
/// Event time of the first slot: a midnight, so day buckets align.
const EPOCH: i64 = 19_675 * 86_400;

#[derive(Clone, Copy)]
enum Place {
    At(usize),
    Between(usize, usize),
}

/// A commuter-day live stream: every user carries a phone that reports a
/// fix every 15 minutes through a day of home, work, lunch and an
/// occasional evening stop, so each user-day closes several stays. The
/// rate and the day plan are assumptions chosen to close several stays per
/// user-day, not figures from a published trace. Fixes come in time order
/// across users, the way a gateway batches them.
pub struct FixStream {
    seed: u64,
    centers: Vec<LocalPoint>,
    day: Option<u64>,
    /// Per user, the current day's plan as `(end slot, place)` runs.
    plans: Vec<Vec<(u64, Place)>>,
    next_fix: u64,
}

/// One fix as it goes over the wire.
pub struct Fix {
    pub user: usize,
    pub x: f64,
    pub y: f64,
    pub t: i64,
}

impl FixStream {
    pub fn new(seed: u64, centers: Vec<LocalPoint>) -> FixStream {
        assert!(centers.len() >= 2, "the stream needs at least two places");
        FixStream {
            seed,
            centers,
            day: None,
            plans: Vec::new(),
            next_fix: 0,
        }
    }

    fn plan(&self, user: usize, day: u64) -> Vec<(u64, Place)> {
        let n = self.centers.len() as u64;
        let mut fixed = Rng::new(mix(self.seed, user as u64, u64::MAX));
        let home = fixed.below(n) as usize;
        let work = ((home as u64 + 1 + fixed.below(n - 1)) % n) as usize;
        let mut r = Rng::new(mix(self.seed, user as u64, day));
        let wake = 28 + r.below(8);
        let lunch_at = 46 + r.below(4);
        let lunch_len = 3 + r.below(2);
        let leave = 68 + r.below(8);
        let lunch = r.below(n) as usize;
        let evening = (r.below(2) == 0).then(|| (r.below(n) as usize, 4 + r.below(5)));

        let mut plan = vec![
            (wake, Place::At(home)),
            (wake + 1, Place::Between(home, work)),
            (lunch_at, Place::At(work)),
            (lunch_at + 1, Place::Between(work, lunch)),
            (lunch_at + 1 + lunch_len, Place::At(lunch)),
            (lunch_at + 2 + lunch_len, Place::Between(lunch, work)),
            (leave, Place::At(work)),
        ];
        let mut end = leave;
        let last = match evening {
            Some((place, len)) => {
                plan.push((end + 1, Place::Between(work, place)));
                plan.push((end + 1 + len, Place::At(place)));
                end += 1 + len;
                place
            }
            None => work,
        };
        plan.push((end + 1, Place::Between(last, home)));
        plan.push((SLOTS_PER_DAY, Place::At(home)));
        plan
    }

    /// The next batch of [`BATCH_FIXES`] fixes.
    pub fn batch(&mut self) -> Vec<Fix> {
        let mut out = Vec::with_capacity(BATCH_FIXES);
        for _ in 0..BATCH_FIXES {
            let i = self.next_fix;
            self.next_fix += 1;
            let slot = i / STREAM_USERS as u64;
            let user = (i % STREAM_USERS as u64) as usize;
            let day = slot / SLOTS_PER_DAY;
            if self.day != Some(day) {
                self.plans = (0..STREAM_USERS).map(|u| self.plan(u, day)).collect();
                self.day = Some(day);
            }
            let in_day = slot % SLOTS_PER_DAY;
            let place = self.plans[user]
                .iter()
                .find(|(end, _)| in_day < *end)
                .map(|&(_, p)| p)
                .expect("a plan covers the whole day");
            let (cx, cy) = match place {
                Place::At(u) => (self.centers[u].x, self.centers[u].y),
                Place::Between(a, b) => (
                    (self.centers[a].x + self.centers[b].x) / 2.0,
                    (self.centers[a].y + self.centers[b].y) / 2.0,
                ),
            };
            let mut r = Rng::new(mix(self.seed, user as u64, slot ^ 0x5EED));
            out.push(Fix {
                user,
                x: cx + r.jitter(15.0),
                y: cy + r.jitter(15.0),
                t: EPOCH + slot as i64 * SLOT_SECS + (user % 300) as i64,
            });
        }
        out
    }
}

/// The user id a stream user reports under.
pub fn stream_user(user: usize) -> String {
    format!("g{user}")
}

/// The `POST /v1/ingest` body of a batch.
pub fn ingest_body(fixes: &[Fix]) -> String {
    let mut body = String::with_capacity(fixes.len() * 64 + 16);
    body.push_str("{\"fixes\":[");
    for (i, f) in fixes.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(
            body,
            "{{\"user\":\"g{}\",\"x\":{},\"y\":{},\"t\":{}}}",
            f.user, f.x, f.y, f.t
        );
    }
    body.push_str("]}");
    body
}

/// The read endpoints the query mix exercises.
#[derive(Clone, Copy)]
pub enum Endpoint {
    Semantic,
    Patterns,
    Motifs,
    Cohorts,
    UserPatterns,
    UserSimilar,
    LivePatterns,
    LiveMotifs,
}

/// One read request: the path, its decoded parameters, and the target as
/// sent.
pub struct Query {
    pub endpoint: Endpoint,
    pub path: String,
    pub params: Vec<(String, String)>,
    pub target: String,
}

/// Percent-encodes the characters category names and coordinates carry.
fn encode(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            ' ' => out.push_str("%20"),
            '&' => out.push_str("%26"),
            '+' => out.push_str("%2B"),
            ',' => out.push_str("%2C"),
            c => out.push(c),
        }
    }
    out
}

fn query(endpoint: Endpoint, path: String, params: Vec<(String, String)>) -> Query {
    let mut target = path.clone();
    for (i, (k, v)) in params.iter().enumerate() {
        target.push(if i == 0 { '?' } else { '&' });
        let _ = write!(target, "{}={}", encode(k), encode(v));
    }
    Query {
        endpoint,
        path,
        params,
        target,
    }
}

fn p(k: &str, v: impl ToString) -> (String, String) {
    (k.to_string(), v.to_string())
}

/// The read mix: every endpoint the server answers from the artifact or
/// the live engine. No record of this API's traffic exists, so the mix is
/// an assumption, and the plainest one: each of the eight endpoints gets
/// exactly an eighth of `n`, and each variant an exact share of its
/// endpoint, so the mix costs the same whatever the seed; the seed picks
/// the parameters and the order. `users` are the ids in the artifact's
/// cohort index. Similar-user searches use the default cohort scope; the
/// exact scan over every user is a variant of its own ([`scan_all`]).
pub fn query_mix(seed: u64, n: usize, centers: &[LocalPoint], users: &[String]) -> Vec<Query> {
    let mut r = Rng::new(mix(seed, 0xC0FFEE, 7));
    let cat = |r: &mut Rng| Category::ALL[r.below(Category::ALL.len() as u64) as usize].name();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let c = centers[r.below(centers.len() as u64) as usize];
        let user = &users[r.below(users.len() as u64) as usize];
        let variant = i / 8;
        let q = match i % 8 {
            0 => query(
                Endpoint::Semantic,
                "/v1/semantic".into(),
                vec![
                    p("x", format!("{:.1}", c.x + r.jitter(80.0))),
                    p("y", format!("{:.1}", c.y + r.jitter(80.0))),
                ],
            ),
            1 => {
                let params = match variant % 5 {
                    0 => vec![p("limit", 10)],
                    1 => vec![p("from", cat(&mut r)), p("limit", 20)],
                    2 => vec![p("involving", cat(&mut r))],
                    3 => vec![
                        p(
                            "near",
                            format!("{:.1},{:.1},{}", c.x, c.y, 250 * (1 + r.below(4))),
                        ),
                        p("limit", 10),
                    ],
                    _ => vec![p("min_len", 3), p("min_support", 25)],
                };
                query(Endpoint::Patterns, "/v1/patterns".into(), params)
            }
            2 => query(
                Endpoint::UserSimilar,
                format!("/v1/users/{user}/similar"),
                vec![p("k", 5 + r.below(16))],
            ),
            3 => query(
                Endpoint::UserPatterns,
                format!("/v1/users/{user}/patterns"),
                Vec::new(),
            ),
            4 => {
                let params = match variant % 3 {
                    0 => Vec::new(),
                    1 => vec![p("min_size", 10)],
                    _ => vec![p("top", 5)],
                };
                query(Endpoint::Cohorts, "/v1/cohorts".into(), params)
            }
            5 => query(
                Endpoint::Motifs,
                "/v1/motifs".into(),
                vec![p("top", 10 + r.below(20))],
            ),
            6 => query(
                Endpoint::LivePatterns,
                "/v1/live/patterns".into(),
                Vec::new(),
            ),
            _ => query(Endpoint::LiveMotifs, "/v1/live/motifs".into(), Vec::new()),
        };
        out.push(q);
    }
    for i in (1..out.len()).rev() {
        out.swap(i, r.below(i as u64 + 1) as usize);
    }
    out
}

/// The exact-scan variant of a similar-user search: the same user and `k`,
/// ranked against every user instead of the user's cohort.
pub fn scan_all(q: &Query) -> Query {
    let mut params = q.params.clone();
    params.push(p("scope", "all"));
    query(q.endpoint, q.path.clone(), params)
}
