//! Deterministic per-user embeddings over semantic-unit transitions.
//!
//! Each user's recognized stay sequence becomes two views of one behavior:
//!
//! - a **sparse weighted vector** over semantic-unit visits and
//!   unit-to-unit transitions (the fine-grained fingerprint driving
//!   similar-user search), L2-normalized so the dot product *is* the cosine
//!   similarity;
//! - a **sparse category profile** over [`Category`] visits and
//!   category-to-category transitions (`PROFILE_DIMS` = 15 + 15×15 = 240
//!   dimensions), the coarse view the cohort clustering partitions. A user
//!   with `s` stays fills at most `2s − 1` of its dims, so it keeps only
//!   those, L2-normalized like the dense vector they stand for.
//!
//! Everything here is deterministic: stays sort by `(time, unit)` before
//! bucketing, and keys, dims and days are counted by sorting them, so
//! weights accumulate in key order — two runs over the same corpus produce
//! byte-identical embeddings at any thread count.

use pm_core::types::{Category, Timestamp, DAY_SECS};

/// Dimensions of the category profile: per-category visit mass plus the
/// flattened category-transition matrix.
pub const PROFILE_DIMS: usize = Category::COUNT + Category::COUNT * Category::COUNT;

/// One recognized stay of one user: the semantic unit it resolved to, the
/// unit's primary category when known, and the stay time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UserStay {
    /// Semantic-unit id (must fit in `u32::MAX - 1`; CSD unit counts are
    /// far below that).
    pub unit: u64,
    /// Primary category of the unit, when recognition produced one.
    pub category: Option<Category>,
    /// Stay time (seconds); used for day bucketing and transition order.
    pub time: Timestamp,
}

/// A user embedded over their semantic stay sequence.
#[derive(Clone, Debug, PartialEq)]
pub struct UserEmbedding {
    /// Stable user id (sort key of every downstream table).
    pub user: String,
    /// Recognized stays that contributed.
    pub stays: u64,
    /// Distinct days with at least one recognized stay.
    pub active_days: u64,
    /// Consecutive stay pairs (the transitions the vector is built from).
    pub transitions: u64,
    /// Stay count per primary category (unknown-category stays excluded).
    pub category_visits: [u64; Category::COUNT],
    /// Raw visit count per unit, sorted by unit id.
    pub unit_visits: Vec<(u64, u64)>,
    /// Sparse L2-normalized feature vector, sorted by key: unit-visit keys
    /// ([`visit_key`]) and unit-transition keys ([`transition_key`]).
    pub features: Vec<(u64, f64)>,
    /// L2-normalized category profile: the nonzero `(dim, value)` entries
    /// of the [`PROFILE_DIMS`]-dim vector, sorted by dim. Every dim left
    /// out is `+0.0`, so the norm and every value equal the dense vector's
    /// bit for bit.
    pub profile: Vec<(usize, f64)>,
}

/// Feature key of a unit visit.
#[inline]
pub fn visit_key(unit: u64) -> u64 {
    debug_assert!(unit < u64::from(u32::MAX));
    (unit + 1) << 32
}

/// Feature key of a unit-to-unit transition.
#[inline]
pub fn transition_key(from: u64, to: u64) -> u64 {
    debug_assert!(from < u64::from(u32::MAX) && to < u64::from(u32::MAX));
    ((from + 1) << 32) | (to + 1)
}

/// Embeds one user from their recognized stays.
///
/// Stays are sorted by `(time, unit)` first, so callers may hand over
/// concatenated per-trajectory slices in any order and still get one
/// canonical embedding.
pub fn embed_user(user: impl Into<String>, stays: &[UserStay]) -> UserEmbedding {
    let mut ordered: Vec<UserStay> = stays.to_vec();
    ordered.sort_by_key(|s| (s.time, s.unit));

    let mut keys: Vec<u64> = Vec::with_capacity(2 * ordered.len());
    let mut dims: Vec<usize> = Vec::with_capacity(2 * ordered.len());
    let mut category_visits = [0u64; Category::COUNT];
    for stay in &ordered {
        keys.push(visit_key(stay.unit));
        if let Some(cat) = stay.category {
            category_visits[cat as usize] += 1;
            dims.push(cat as usize);
        }
    }
    for pair in ordered.windows(2) {
        let (prev, stay) = (&pair[0], &pair[1]);
        keys.push(transition_key(prev.unit, stay.unit));
        if let (Some(from), Some(to)) = (prev.category, stay.category) {
            dims.push(Category::COUNT + (from as usize) * Category::COUNT + to as usize);
        }
    }
    // Times ascend, so each active day is one run of equal day indices.
    let day = |s: &UserStay| s.time.div_euclid(DAY_SECS);
    let active_days = ordered.chunk_by(|a, b| day(a) == day(b)).count() as u64;

    let mut features = counted(keys);
    // A visit key's low half is zero, a transition key's never is.
    let unit_visits = features
        .iter()
        .filter(|&&(key, _)| key as u32 == 0)
        .map(|&(key, visits)| ((key >> 32) - 1, visits as u64))
        .collect();
    l2_normalize_sparse(&mut features);
    let mut profile = counted(dims);
    l2_normalize_sparse(&mut profile);

    UserEmbedding {
        user: user.into(),
        stays: ordered.len() as u64,
        active_days,
        transitions: ordered.len().saturating_sub(1) as u64,
        category_visits,
        unit_visits,
        features,
        profile,
    }
}

/// Sorts `keys` and counts each run of equal keys: `(key, count)` pairs in
/// key order, each count summed as `1.0` steps.
fn counted<K: Ord + Copy>(mut keys: Vec<K>) -> Vec<(K, f64)> {
    keys.sort_unstable();
    let mut out: Vec<(K, f64)> = Vec::new();
    for key in keys {
        match out.last_mut() {
            Some((last, count)) if *last == key => *count += 1.0,
            _ => out.push((key, 1.0)),
        }
    }
    out
}

/// Embeds every `(user, stays)` group, fanned out over `threads` workers
/// (0 = all cores). Output order matches input order, and each embedding is
/// computed independently, so the result is byte-identical at any thread
/// count.
pub fn embed_users(groups: &[(String, Vec<UserStay>)], threads: usize) -> Vec<UserEmbedding> {
    pm_runtime::par_map(groups, threads, |(user, stays)| {
        embed_user(user.clone(), stays)
    })
}

fn l2_normalize_sparse<K>(entries: &mut [(K, f64)]) {
    let norm_sq: f64 = entries.iter().map(|(_, w)| w * w).sum();
    if norm_sq > 0.0 {
        let inv = 1.0 / norm_sq.sqrt();
        for (_, w) in entries.iter_mut() {
            *w *= inv;
        }
    }
}

/// Dot product of two key-sorted sparse vectors. On L2-normalized inputs
/// (which [`embed_user`] produces) this is the cosine similarity.
pub fn cosine_sparse(a: &[(u64, f64)], b: &[(u64, f64)]) -> f64 {
    let (mut i, mut j) = (0, 0);
    let mut dot = 0.0;
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                dot += a[i].1 * b[j].1;
                i += 1;
                j += 1;
            }
        }
    }
    dot
}

/// Jaccard similarity of the two key sets (shared features over all
/// features), ignoring weights — the set-overlap complement to the cosine.
pub fn jaccard_keys(a: &[(u64, f64)], b: &[(u64, f64)]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let (mut i, mut j) = (0, 0);
    let mut shared = 0usize;
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - shared;
    shared as f64 / union as f64
}

/// The similarity the similar-user index ranks by: an even blend of the
/// L2 (cosine) kernel and the Jaccard set kernel over the sparse unit
/// features. Both terms lie in `[0, 1]` for non-negative weights, so the
/// blend does too; identical users score 1.
pub fn similarity(a: &UserEmbedding, b: &UserEmbedding) -> f64 {
    0.5 * cosine_sparse(&a.features, &b.features) + 0.5 * jaccard_keys(&a.features, &b.features)
}

/// [`similarity`] over already-frozen sparse vectors (the serving path,
/// which reads features out of a persisted [`crate::CohortTable`]).
pub fn similarity_sparse(a: &[(u64, f64)], b: &[(u64, f64)]) -> f64 {
    0.5 * cosine_sparse(a, b) + 0.5 * jaccard_keys(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn stay(unit: u64, cat: Option<Category>, time: Timestamp) -> UserStay {
        UserStay {
            unit,
            category: cat,
            time,
        }
    }

    #[test]
    fn embedding_counts_and_normalization() {
        let stays = [
            stay(3, Some(Category::Residence), 0),
            stay(7, Some(Category::Business), 3_600),
            stay(3, Some(Category::Residence), 90_000),
        ];
        let e = embed_user("u0", &stays);
        assert_eq!(e.stays, 3);
        assert_eq!(e.active_days, 2);
        assert_eq!(e.transitions, 2);
        assert_eq!(e.category_visits[Category::Residence as usize], 2);
        assert_eq!(e.unit_visits, vec![(3, 2), (7, 1)]);
        let norm: f64 = e.features.iter().map(|(_, w)| w * w).sum();
        assert!((norm - 1.0).abs() < 1e-12);
        let pnorm: f64 = e.profile.iter().map(|(_, v)| v * v).sum();
        assert!((pnorm - 1.0).abs() < 1e-12);
        assert!(e.features.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn stay_order_is_canonicalized() {
        let fwd = [stay(1, None, 0), stay(2, None, 100), stay(1, None, 200)];
        let mut rev = fwd;
        rev.reverse();
        assert_eq!(embed_user("u", &fwd), embed_user("u", &rev));
    }

    #[test]
    fn self_similarity_is_one() {
        let e = embed_user(
            "u",
            &[
                stay(1, Some(Category::Shop), 0),
                stay(2, Some(Category::Residence), 100),
            ],
        );
        assert!((similarity(&e, &e) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_users_score_zero() {
        let a = embed_user("a", &[stay(1, None, 0), stay(2, None, 100)]);
        let b = embed_user("b", &[stay(9, None, 0), stay(8, None, 100)]);
        assert_eq!(similarity(&a, &b), 0.0);
    }

    #[test]
    fn shared_units_score_between() {
        let a = embed_user("a", &[stay(1, None, 0), stay(2, None, 100)]);
        let b = embed_user("b", &[stay(1, None, 0), stay(3, None, 100)]);
        let s = similarity(&a, &b);
        assert!(s > 0.0 && s < 1.0, "s={s}");
    }

    #[test]
    fn empty_user_is_empty_but_valid() {
        let e = embed_user("u", &[]);
        assert_eq!(e.stays, 0);
        assert!(e.features.is_empty());
        assert!(e.profile.is_empty());
        assert_eq!(similarity(&e, &e), 0.0);
    }

    #[test]
    fn parallel_embedding_matches_serial() {
        let groups: Vec<(String, Vec<UserStay>)> = (0..24)
            .map(|u| {
                let stays = (0..10)
                    .map(|i| {
                        stay(
                            (u * 3 + i) % 11,
                            Some(Category::from_index(((u + i) % 15) as usize)),
                            i as Timestamp * 7_000,
                        )
                    })
                    .collect();
                (format!("u{u:03}"), stays)
            })
            .collect();
        assert_eq!(embed_users(&groups, 1), embed_users(&groups, 4));
    }

    /// The `BTreeMap`/dense embedding [`embed_user`] replaced, kept
    /// verbatim as its oracle; it returns the 240-value dense profile.
    fn embed_user_reference(
        user: impl Into<String>,
        stays: &[UserStay],
    ) -> (UserEmbedding, Vec<f64>) {
        let mut ordered: Vec<UserStay> = stays.to_vec();
        ordered.sort_by_key(|s| (s.time, s.unit));

        let mut weights: BTreeMap<u64, f64> = BTreeMap::new();
        let mut unit_visits: BTreeMap<u64, u64> = BTreeMap::new();
        let mut category_visits = [0u64; Category::COUNT];
        let mut profile = vec![0.0; PROFILE_DIMS];
        let mut days: BTreeSet<Timestamp> = BTreeSet::new();
        let mut transitions = 0u64;

        for (i, stay) in ordered.iter().enumerate() {
            *weights.entry(visit_key(stay.unit)).or_insert(0.0) += 1.0;
            *unit_visits.entry(stay.unit).or_insert(0) += 1;
            days.insert(stay.time.div_euclid(DAY_SECS));
            if let Some(cat) = stay.category {
                category_visits[cat as usize] += 1;
                profile[cat as usize] += 1.0;
            }
            if i > 0 {
                let prev = &ordered[i - 1];
                transitions += 1;
                *weights
                    .entry(transition_key(prev.unit, stay.unit))
                    .or_insert(0.0) += 1.0;
                if let (Some(from), Some(to)) = (prev.category, stay.category) {
                    profile[Category::COUNT + (from as usize) * Category::COUNT + to as usize] +=
                        1.0;
                }
            }
        }

        let mut features: Vec<(u64, f64)> = weights.into_iter().collect();
        l2_normalize_sparse(&mut features);
        l2_normalize(&mut profile);

        let embedding = UserEmbedding {
            user: user.into(),
            stays: ordered.len() as u64,
            active_days: days.len() as u64,
            transitions,
            category_visits,
            unit_visits: unit_visits.into_iter().collect(),
            features,
            profile: Vec::new(),
        };
        (embedding, profile)
    }

    fn l2_normalize(values: &mut [f64]) {
        let norm_sq: f64 = values.iter().map(|v| v * v).sum();
        if norm_sq > 0.0 {
            let inv = 1.0 / norm_sq.sqrt();
            for v in values.iter_mut() {
                *v *= inv;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Stays over a few units (so units and transitions repeat), with
        /// unknown categories, negative times and same-time ties: every
        /// field matches the reference bit for bit, and the profile is the
        /// dense profile's nonzeros.
        #[test]
        fn embed_user_matches_the_dense_reference(
            raw in prop::collection::vec((0u64..6, 0usize..20, -3i64..4, 0i64..3), 0..40),
        ) {
            let stays: Vec<UserStay> = raw
                .iter()
                .map(|&(unit, cat, day, slot)| UserStay {
                    unit,
                    category: (cat < Category::COUNT).then(|| Category::from_index(cat)),
                    time: day * DAY_SECS + slot * 30_000,
                })
                .collect();
            let got = embed_user("u", &stays);
            let (want, dense) = embed_user_reference("u", &stays);
            let bits = |v: &[(u64, f64)]| v.iter().map(|&(k, w)| (k, w.to_bits())).collect::<Vec<_>>();
            prop_assert_eq!(&got.user, &want.user);
            prop_assert_eq!(got.stays, want.stays);
            prop_assert_eq!(got.active_days, want.active_days);
            prop_assert_eq!(got.transitions, want.transitions);
            prop_assert_eq!(got.category_visits, want.category_visits);
            prop_assert_eq!(&got.unit_visits, &want.unit_visits);
            prop_assert_eq!(bits(&got.features), bits(&want.features));
            let nonzeros: Vec<(usize, u64)> = dense
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v != 0.0)
                .map(|(dim, v)| (dim, v.to_bits()))
                .collect();
            let profile: Vec<(usize, u64)> = got.profile.iter().map(|&(d, v)| (d, v.to_bits())).collect();
            prop_assert_eq!(profile, nonzeros);
        }
    }
}
