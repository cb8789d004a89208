//! The persisted per-user pattern index: [`CohortTable`], its cohort
//! aggregates, and the exact-scan similar-user search over it.
//!
//! A table is mined once (by the single mining pass behind `mine --artifact`
//! and the background re-miner) and then served immutably:
//! `users` sort by user id so lookups binary-search, cohort ids are
//! canonical (size desc), and every float persists as its IEEE-754 bit
//! pattern — the table that loads is the table that was mined.
//!
//! The k-anonymity floor `k_min` travels *inside* the table: any renderer
//! (CLI or pm-serve) must consult [`CohortTable::suppressed`] before
//! exposing a cohort- or neighborhood-level aggregate, and emit an explicit
//! `suppressed` marker instead of the aggregate when the group is too
//! small. Suppression is a property of the artifact, not of the server
//! configuration, so one mined table answers identically everywhere.

use crate::cluster::{assign_cohorts, ClusterMethod, CohortParams};
use crate::embed::{similarity_sparse, UserEmbedding};
use pm_core::types::Category;

/// Cap on the per-user `top_units` list persisted in a record.
pub const TOP_UNITS_CAP: usize = 8;

/// One user's row in the index.
#[derive(Clone, Debug, PartialEq)]
pub struct UserRecord {
    /// Stable user id (the table's sort key).
    pub user: String,
    /// Canonical cohort id.
    pub cohort: u32,
    /// Recognized stays.
    pub stays: u64,
    /// Distinct active days.
    pub active_days: u64,
    /// Consecutive recognized stay pairs.
    pub transitions: u64,
    /// Stay count per primary category.
    pub category_visits: [u64; Category::COUNT],
    /// Most-visited units, `(unit, visits)` ranked by visits desc then unit
    /// asc, at most [`TOP_UNITS_CAP`] entries.
    pub top_units: Vec<(u64, u64)>,
    /// Sparse L2-normalized embedding (key-sorted), the similarity basis.
    pub features: Vec<(u64, f64)>,
}

/// One cohort's aggregate row.
#[derive(Clone, Debug, PartialEq)]
pub struct Cohort {
    /// Canonical id (== index in `CohortTable::cohorts`).
    pub id: u32,
    /// Member count.
    pub size: u64,
    /// Mean share of member stays per category, summing to 1 when members
    /// have any categorized stay (all zeros otherwise).
    pub category_mix: [f64; Category::COUNT],
    /// Mean active days per member.
    pub mean_active_days: f64,
    /// Mean recognized stays per member.
    pub mean_stays: f64,
}

impl Cohort {
    /// The category with the largest share of the mix, when any.
    pub fn dominant_category(&self) -> Option<Category> {
        let mut best: Option<(usize, f64)> = None;
        for (i, &v) in self.category_mix.iter().enumerate() {
            if v > 0.0 && best.is_none_or(|(_, bv)| v > bv) {
                best = Some((i, v));
            }
        }
        best.map(|(i, _)| Category::from_index(i))
    }
}

/// The mined per-user pattern index.
#[derive(Clone, Debug, PartialEq)]
pub struct CohortTable {
    /// k-anonymity floor: aggregates over groups smaller than this are
    /// suppressed by every renderer.
    pub k_min: u32,
    /// Clustering seed the table was mined with.
    pub seed: u64,
    /// Clustering path taken (K-Means bulk or Mean Shift fallback).
    pub method: ClusterMethod,
    /// Cohort aggregates, canonical order (size desc).
    pub cohorts: Vec<Cohort>,
    /// Per-user records, sorted by user id (bytewise).
    pub users: Vec<UserRecord>,
}

/// How [`CohortTable::k_nearest`] selects candidates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimilarScope {
    /// Exact scan over the whole population.
    All,
    /// Per-cohort candidate pruning: scan only the query user's cohort.
    Cohort,
}

/// One similar-user hit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// Index into `CohortTable::users`.
    pub user: u32,
    /// Blended cosine/Jaccard similarity in `[0, 1]`.
    pub similarity: f64,
}

/// Member lists per cohort — the immutable side index the serving snapshot
/// keeps next to the table.
#[derive(Clone, Debug, Default)]
pub struct CohortIndex {
    members: Vec<Vec<u32>>,
}

impl CohortIndex {
    /// Builds the per-cohort member lists (user order, hence sorted).
    pub fn build(table: &CohortTable) -> Self {
        let mut members = vec![Vec::new(); table.cohorts.len()];
        for (i, u) in table.users.iter().enumerate() {
            members[u.cohort as usize].push(i as u32);
        }
        Self { members }
    }

    /// Member indices of one cohort.
    pub fn members(&self, cohort: u32) -> &[u32] {
        &self.members[cohort as usize]
    }
}

impl CohortTable {
    /// Mines a table from per-user embeddings: sorts by user id, clusters
    /// the category profiles into cohorts, and freezes records and
    /// aggregates. User ids must be unique (group stays per user first).
    pub fn mine(mut embeddings: Vec<UserEmbedding>, params: &CohortParams) -> Self {
        embeddings.sort_by(|a, b| a.user.cmp(&b.user));
        for pair in embeddings.windows(2) {
            assert!(
                pair[0].user != pair[1].user,
                "duplicate user {}",
                pair[0].user
            );
        }
        let (labels, method) = assign_cohorts(&embeddings, params);
        let n_cohorts = labels.iter().map(|&l| l as usize + 1).max().unwrap_or(0);

        let mut cohorts: Vec<Cohort> = (0..n_cohorts)
            .map(|id| Cohort {
                id: id as u32,
                size: 0,
                category_mix: [0.0; Category::COUNT],
                mean_active_days: 0.0,
                mean_stays: 0.0,
            })
            .collect();
        let mut users = Vec::with_capacity(embeddings.len());
        for (e, &label) in embeddings.iter().zip(&labels) {
            let c = &mut cohorts[label as usize];
            c.size += 1;
            c.mean_active_days += e.active_days as f64;
            c.mean_stays += e.stays as f64;
            for (slot, &v) in c.category_mix.iter_mut().zip(&e.category_visits) {
                *slot += v as f64;
            }

            let mut top_units = e.unit_visits.clone();
            top_units.sort_by_key(|&(unit, visits)| (u64::MAX - visits, unit));
            top_units.truncate(TOP_UNITS_CAP);
            users.push(UserRecord {
                user: e.user.clone(),
                cohort: label,
                stays: e.stays,
                active_days: e.active_days,
                transitions: e.transitions,
                category_visits: e.category_visits,
                top_units,
                features: e.features.clone(),
            });
        }
        for c in cohorts.iter_mut() {
            if c.size > 0 {
                c.mean_active_days /= c.size as f64;
                c.mean_stays /= c.size as f64;
            }
            let total: f64 = c.category_mix.iter().sum();
            if total > 0.0 {
                for v in c.category_mix.iter_mut() {
                    *v /= total;
                }
            }
        }

        Self {
            k_min: params.k_min,
            seed: params.seed,
            method,
            cohorts,
            users,
        }
    }

    /// Reassembles a table from persisted parts, validating the invariants
    /// the serving path depends on: sorted-unique users, sequential cohort
    /// ids, in-range memberships, key-sorted finite features, and member
    /// counts matching the stored cohort sizes.
    pub fn from_parts(
        k_min: u32,
        seed: u64,
        method: u8,
        cohorts: Vec<Cohort>,
        users: Vec<UserRecord>,
    ) -> Result<Self, String> {
        let method = ClusterMethod::from_u8(method)
            .ok_or_else(|| format!("unknown cluster method tag {method}"))?;
        for (i, c) in cohorts.iter().enumerate() {
            if c.id as usize != i {
                return Err(format!("cohort id {} at position {i}", c.id));
            }
            if !c.category_mix.iter().all(|v| v.is_finite())
                || !c.mean_active_days.is_finite()
                || !c.mean_stays.is_finite()
            {
                return Err(format!("cohort {i} has non-finite aggregates"));
            }
        }
        let mut sizes = vec![0u64; cohorts.len()];
        for pair in users.windows(2) {
            if pair[0].user >= pair[1].user {
                return Err(format!("users out of order at {:?}", pair[1].user));
            }
        }
        for u in &users {
            let c = u.cohort as usize;
            if c >= cohorts.len() {
                return Err(format!("user {:?} in unknown cohort {c}", u.user));
            }
            sizes[c] += 1;
            if !u.features.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(format!("user {:?} has unsorted features", u.user));
            }
            if !u.features.iter().all(|(_, w)| w.is_finite()) {
                return Err(format!("user {:?} has non-finite weights", u.user));
            }
            if u.top_units.len() > TOP_UNITS_CAP {
                return Err(format!("user {:?} exceeds top-unit cap", u.user));
            }
        }
        for (c, size) in cohorts.iter().zip(&sizes) {
            if c.size != *size {
                return Err(format!(
                    "cohort {} claims {} members, found {size}",
                    c.id, c.size
                ));
            }
        }
        Ok(Self {
            k_min,
            seed,
            method,
            cohorts,
            users,
        })
    }

    /// Binary search for a user id.
    pub fn find_user(&self, user: &str) -> Option<usize> {
        self.users
            .binary_search_by(|u| u.user.as_str().cmp(user))
            .ok()
    }

    /// Whether an aggregate over a group of `size` users must be
    /// suppressed under this table's k-anonymity floor.
    pub fn suppressed(&self, size: u64) -> bool {
        size < u64::from(self.k_min)
    }

    /// The `k` most similar users to `query` (an index into `users`),
    /// excluding the query user. Exact scan over the scope's candidate
    /// set; ranked by (similarity desc, user id asc) so the result is
    /// deterministic down to ties. `users` is strictly sorted by id
    /// (`mine` sorts it, `from_parts` rejects anything else), so index
    /// order is id order: the ranking compares indices, and only the `k`
    /// kept are sorted.
    pub fn k_nearest(
        &self,
        index: &CohortIndex,
        query: usize,
        k: usize,
        scope: SimilarScope,
    ) -> Vec<Neighbor> {
        if k == 0 {
            return Vec::new();
        }
        let q = &self.users[query];
        let mut hits: Vec<Neighbor> = Vec::new();
        let mut scan = |i: usize| {
            if i == query {
                return;
            }
            let s = similarity_sparse(&q.features, &self.users[i].features);
            hits.push(Neighbor {
                user: i as u32,
                similarity: s,
            });
        };
        match scope {
            SimilarScope::All => (0..self.users.len()).for_each(&mut scan),
            SimilarScope::Cohort => index
                .members(q.cohort)
                .iter()
                .for_each(|&i| scan(i as usize)),
        }
        let rank = |a: &Neighbor, b: &Neighbor| {
            b.similarity
                .total_cmp(&a.similarity)
                .then(a.user.cmp(&b.user))
        };
        if k < hits.len() {
            hits.select_nth_unstable_by(k - 1, rank);
            hits.truncate(k);
        }
        hits.sort_unstable_by(rank);
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embed::{embed_user, UserStay};

    fn corpus(n_a: usize, n_b: usize) -> Vec<UserEmbedding> {
        let mut out = Vec::new();
        for u in 0..n_a {
            let stays: Vec<UserStay> = (0..8)
                .map(|i| UserStay {
                    unit: (i % 2) as u64,
                    category: Some(if i % 2 == 0 {
                        Category::Residence
                    } else {
                        Category::Business
                    }),
                    time: (i * 30_000) as i64,
                })
                .collect();
            out.push(embed_user(format!("a{u:03}"), &stays));
        }
        for u in 0..n_b {
            let stays: Vec<UserStay> = (0..8)
                .map(|i| UserStay {
                    unit: 50 + (i % 3) as u64,
                    category: Some(if i % 2 == 0 {
                        Category::Shop
                    } else {
                        Category::Entertainment
                    }),
                    time: (i * 30_000) as i64,
                })
                .collect();
            out.push(embed_user(format!("b{u:03}"), &stays));
        }
        out
    }

    fn params() -> CohortParams {
        CohortParams {
            k: 2,
            k_min: 3,
            ..CohortParams::default()
        }
    }

    #[test]
    fn mine_builds_sorted_consistent_table() {
        let table = CohortTable::mine(corpus(20, 10), &params());
        assert_eq!(table.users.len(), 30);
        assert!(table.users.windows(2).all(|w| w[0].user < w[1].user));
        assert_eq!(table.cohorts.len(), 2);
        assert_eq!(table.cohorts[0].size, 20, "largest cohort first");
        let mix_sum: f64 = table.cohorts[0].category_mix.iter().sum();
        assert!((mix_sum - 1.0).abs() < 1e-9);
        assert!(table.cohorts[0].dominant_category().is_some());
    }

    #[test]
    fn suppression_floor_is_table_level() {
        let table = CohortTable::mine(corpus(20, 2), &params());
        assert!(table.suppressed(2));
        assert!(!table.suppressed(3));
    }

    #[test]
    fn find_user_round_trips() {
        let table = CohortTable::mine(corpus(5, 5), &params());
        let i = table.find_user("b002").expect("present");
        assert_eq!(table.users[i].user, "b002");
        assert!(table.find_user("zzz").is_none());
    }

    #[test]
    fn k_nearest_prefers_same_behavior() {
        let table = CohortTable::mine(corpus(20, 10), &params());
        let index = CohortIndex::build(&table);
        let q = table.find_user("a000").unwrap();
        let hits = table.k_nearest(&index, q, 5, SimilarScope::All);
        assert_eq!(hits.len(), 5);
        for h in &hits {
            assert!(table.users[h.user as usize].user.starts_with('a'));
            assert!(h.similarity > 0.9);
        }
        // Ties rank by user id asc.
        assert!(hits.windows(2).all(|w| w[0].similarity > w[1].similarity
            || table.users[w[0].user as usize].user < table.users[w[1].user as usize].user));
    }

    /// The ranking before top-k selection, verbatim: every candidate
    /// sorted with user-id tie-breaks, then truncated.
    fn k_nearest_full_sort(
        table: &CohortTable,
        index: &CohortIndex,
        query: usize,
        k: usize,
        scope: SimilarScope,
    ) -> Vec<Neighbor> {
        let q = &table.users[query];
        let mut hits: Vec<Neighbor> = Vec::new();
        let mut scan = |i: usize| {
            if i == query {
                return;
            }
            let s = similarity_sparse(&q.features, &table.users[i].features);
            hits.push(Neighbor {
                user: i as u32,
                similarity: s,
            });
        };
        match scope {
            SimilarScope::All => (0..table.users.len()).for_each(&mut scan),
            SimilarScope::Cohort => index
                .members(q.cohort)
                .iter()
                .for_each(|&i| scan(i as usize)),
        }
        hits.sort_by(|a, b| {
            b.similarity.total_cmp(&a.similarity).then_with(|| {
                table.users[a.user as usize]
                    .user
                    .cmp(&table.users[b.user as usize].user)
            })
        });
        hits.truncate(k);
        hits
    }

    #[test]
    fn top_k_matches_the_full_sort_on_tied_tables() {
        // SplitMix64, so every seed replays the same table.
        fn next(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let (mut singletons, mut zero_ties, mut equal_ties) = (0, 0, 0);
        for seed in 0..40u64 {
            let mut rng = seed;
            let n = 1 + (next(&mut rng) % 40) as usize;
            // Few distinct behaviours, so feature vectors repeat exactly;
            // behaviour 9 lives on units no one else visits, so it scores 0
            // against everyone else.
            let shapes = 1 + next(&mut rng) % 4;
            let mut embeddings = Vec::new();
            for u in 0..n {
                let shape = if next(&mut rng).is_multiple_of(5) {
                    9
                } else {
                    next(&mut rng) % shapes
                };
                let stays: Vec<UserStay> = (0..6)
                    .map(|i| UserStay {
                        unit: shape * 100 + (i % (1 + shape % 3)),
                        category: Some(Category::from_index(((shape + i) % 15) as usize)),
                        time: (i * 30_000) as i64,
                    })
                    .collect();
                // Ids hash out of index order, so the id tie-break is real.
                embeddings.push(embed_user(format!("{:x}-{u}", next(&mut rng) % 97), &stays));
            }
            let table = CohortTable::mine(
                embeddings,
                &CohortParams {
                    k: 1 + (next(&mut rng) % 3) as usize,
                    k_min: 1,
                    ..CohortParams::default()
                },
            );
            let index = CohortIndex::build(&table);
            singletons += table.cohorts.iter().filter(|c| c.size == 1).count();
            for query in 0..n {
                let all = table.k_nearest(&index, query, n, SimilarScope::All);
                zero_ties += all.windows(2).filter(|w| w[1].similarity == 0.0).count();
                equal_ties += all
                    .windows(2)
                    .filter(|w| w[0].similarity == w[1].similarity && w[1].similarity > 0.0)
                    .count();
                for scope in [SimilarScope::All, SimilarScope::Cohort] {
                    for k in 0..=n + 1 {
                        let fast = table.k_nearest(&index, query, k, scope);
                        let oracle = k_nearest_full_sort(&table, &index, query, k, scope);
                        let bits = |hits: &[Neighbor]| {
                            hits.iter()
                                .map(|h| (h.user, h.similarity.to_bits()))
                                .collect::<Vec<_>>()
                        };
                        assert_eq!(bits(&fast), bits(&oracle), "seed {seed} q {query} k {k}");
                    }
                }
            }
        }
        assert!(singletons > 0 && zero_ties > 0 && equal_ties > 0);
    }

    #[test]
    fn cohort_scope_matches_all_scope_on_clean_split() {
        let table = CohortTable::mine(corpus(20, 10), &params());
        let index = CohortIndex::build(&table);
        let q = table.find_user("a007").unwrap();
        let all = table.k_nearest(&index, q, 4, SimilarScope::All);
        let pruned = table.k_nearest(&index, q, 4, SimilarScope::Cohort);
        assert_eq!(all, pruned);
    }

    #[test]
    fn persistence_parts_round_trip() {
        let table = CohortTable::mine(corpus(12, 6), &params());
        let rebuilt = CohortTable::from_parts(
            table.k_min,
            table.seed,
            table.method.as_u8(),
            table.cohorts.clone(),
            table.users.clone(),
        )
        .expect("valid parts");
        assert_eq!(rebuilt, table);
    }

    #[test]
    fn from_parts_rejects_corruption() {
        let table = CohortTable::mine(corpus(12, 6), &params());
        let mut bad = table.users.clone();
        bad.swap(0, 1);
        assert!(CohortTable::from_parts(3, 0, 0, table.cohorts.clone(), bad).is_err());

        let mut bad_cohorts = table.cohorts.clone();
        bad_cohorts[0].size += 1;
        assert!(CohortTable::from_parts(3, 0, 0, bad_cohorts, table.users.clone()).is_err());
        assert!(
            CohortTable::from_parts(3, 0, 9, table.cohorts.clone(), table.users.clone()).is_err()
        );
    }

    #[test]
    fn empty_population_mines_empty_table() {
        let table = CohortTable::mine(Vec::new(), &CohortParams::default());
        assert!(table.cohorts.is_empty());
        assert!(table.users.is_empty());
        let index = CohortIndex::build(&table);
        assert_eq!(index.members.len(), 0);
    }
}
