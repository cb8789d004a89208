//! Life-pattern cohort assignment over sparse category profiles.
//!
//! Cohorts partition the *coarse* view of each user — the 240-dimensional
//! category profile of [`crate::embed::UserEmbedding`], kept as its
//! nonzeros — so two users who
//! shuttle between residence and office cluster together even when their
//! actual units never overlap. The bulk path is seeded K-Means
//! ([`pm_cluster::ndim::kmeans_nd`] over the sparse profiles,
//! byte-deterministic for a given seed); populations below
//! [`CohortParams::small_population`] fall back to Mean Shift
//! ([`pm_cluster::ndim::mean_shift_nd`] over the profiles expanded to dense
//! rows), which adapts the cohort count to the data instead of forcing a
//! `k` that small samples cannot support.
//!
//! Raw cluster labels depend on seeding order, so they are relabelled
//! canonically before anything persists: cohorts order by (size desc,
//! first member asc) over the user-sorted population. Same corpus, same
//! params → same cohort ids, bit for bit.

use crate::embed::{UserEmbedding, PROFILE_DIMS};
use pm_cluster::ndim::{kmeans_nd, mean_shift_nd, KMeansNdParams, MeanShiftNdParams};

/// Default k-anonymity floor: aggregates over fewer users are suppressed.
pub const DEFAULT_K_MIN: u32 = 5;

/// Populations below this fall back from K-Means to Mean Shift.
pub const DEFAULT_SMALL_POPULATION: usize = 24;

/// Mean Shift bandwidth over L2-normalized profiles (whose pairwise
/// distances lie in `[0, sqrt(2)]`).
const MEAN_SHIFT_BANDWIDTH: f64 = 0.7;

/// How the cohorts of a table were produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClusterMethod {
    /// Seeded k-means++ / Lloyd over category profiles (the bulk path).
    KMeans,
    /// Flat-kernel Mean Shift (the small-population fallback).
    MeanShift,
}

impl ClusterMethod {
    /// Stable wire tag for persistence.
    pub fn as_u8(self) -> u8 {
        match self {
            ClusterMethod::KMeans => 0,
            ClusterMethod::MeanShift => 1,
        }
    }

    /// Inverse of [`Self::as_u8`].
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(ClusterMethod::KMeans),
            1 => Some(ClusterMethod::MeanShift),
            _ => None,
        }
    }

    /// Lowercase name used in JSON and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            ClusterMethod::KMeans => "kmeans",
            ClusterMethod::MeanShift => "meanshift",
        }
    }
}

/// Cohort mining parameters.
#[derive(Clone, Copy, Debug)]
pub struct CohortParams {
    /// Number of cohorts for the K-Means path; `0` picks
    /// `clamp(round(sqrt(n / 2)), 2, 64)`.
    pub k: usize,
    /// Seed for k-means++ initialization.
    pub seed: u64,
    /// k-anonymity floor persisted into the table; aggregates over groups
    /// smaller than this must render as `suppressed`.
    pub k_min: u32,
    /// Populations strictly below this use the Mean Shift fallback.
    pub small_population: usize,
    /// Worker threads for the embedding fan-out (0 = all cores).
    pub threads: usize,
}

impl Default for CohortParams {
    fn default() -> Self {
        Self {
            k: 0,
            seed: 0,
            k_min: DEFAULT_K_MIN,
            small_population: DEFAULT_SMALL_POPULATION,
            threads: 0,
        }
    }
}

impl CohortParams {
    /// The effective K-Means `k` for a population of `n` users.
    pub fn effective_k(&self, n: usize) -> usize {
        if self.k > 0 {
            self.k.min(n).max(1)
        } else {
            ((n as f64 / 2.0).sqrt().round() as usize)
                .clamp(2, 64)
                .min(n.max(1))
        }
    }
}

/// Assigns each embedding (in the given order) to a canonical cohort id.
///
/// Returns the per-user labels plus the method used. Labels are contiguous
/// `0..n_cohorts`, ordered by (cohort size desc, first member asc), so they
/// are stable across runs and thread counts. Callers must pass embeddings
/// already sorted by user id for the canonical order to be meaningful.
pub fn assign_cohorts(
    embeddings: &[UserEmbedding],
    params: &CohortParams,
) -> (Vec<u32>, ClusterMethod) {
    let n = embeddings.len();
    if n == 0 {
        return (Vec::new(), ClusterMethod::KMeans);
    }
    let (raw, method) = if n < params.small_population {
        let mut data = vec![0.0; n * PROFILE_DIMS];
        for (row, e) in data.chunks_exact_mut(PROFILE_DIMS).zip(embeddings) {
            for &(dim, v) in &e.profile {
                row[dim] = v;
            }
        }
        let r = mean_shift_nd(
            &data,
            PROFILE_DIMS,
            MeanShiftNdParams::new(MEAN_SHIFT_BANDWIDTH),
        );
        (r.labels, ClusterMethod::MeanShift)
    } else {
        let k = params.effective_k(n);
        let profiles: Vec<&[(usize, f64)]> = embeddings.iter().map(|e| &e.profile[..]).collect();
        let r = kmeans_nd(
            &profiles,
            PROFILE_DIMS,
            KMeansNdParams::new(k).with_seed(params.seed),
        );
        (r.labels, ClusterMethod::KMeans)
    };

    (canonical_relabel(&raw, n), method)
}

/// Remaps raw cluster labels to the canonical cohort order: size desc,
/// then first member index asc. Profiles are always finite, so every user
/// carries a label; a `None` (impossible by construction) would panic.
fn canonical_relabel(raw: &[Option<usize>], n: usize) -> Vec<u32> {
    let mut first = Vec::new();
    let mut sizes = Vec::new();
    let labels: Vec<usize> = (0..n)
        .map(|i| raw[i].expect("finite profiles always cluster"))
        .collect();
    for (i, &l) in labels.iter().enumerate() {
        if l >= sizes.len() {
            sizes.resize(l + 1, 0usize);
            first.resize(l + 1, usize::MAX);
        }
        sizes[l] += 1;
        if first[l] == usize::MAX {
            first[l] = i;
        }
    }
    let mut order: Vec<usize> = (0..sizes.len()).filter(|&l| sizes[l] > 0).collect();
    order.sort_by_key(|&l| (usize::MAX - sizes[l], first[l]));
    let mut remap = vec![u32::MAX; sizes.len()];
    for (new, &old) in order.iter().enumerate() {
        remap[old] = new as u32;
    }
    labels.into_iter().map(|l| remap[l]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embed::{embed_user, UserStay};
    use pm_core::types::Category;

    /// `n` users commuting between two units of the given categories.
    fn commuters(n: usize, home: Category, work: Category, unit0: u64) -> Vec<UserEmbedding> {
        (0..n)
            .map(|u| {
                let stays: Vec<UserStay> = (0..6)
                    .map(|i| UserStay {
                        unit: unit0 + (i % 2) as u64,
                        category: Some(if i % 2 == 0 { home } else { work }),
                        time: (u * 1000 + i * 40_000) as i64,
                    })
                    .collect();
                embed_user(format!("c{unit0}-{u:02}"), &stays)
            })
            .collect()
    }

    #[test]
    fn two_behaviors_two_cohorts() {
        let mut emb = commuters(20, Category::Residence, Category::Business, 0);
        emb.extend(commuters(20, Category::Shop, Category::Entertainment, 100));
        let params = CohortParams {
            k: 2,
            ..CohortParams::default()
        };
        let (labels, method) = assign_cohorts(&emb, &params);
        assert_eq!(method, ClusterMethod::KMeans);
        assert!(labels[..20].iter().all(|&l| l == labels[0]));
        assert!(labels[20..].iter().all(|&l| l != labels[0]));
    }

    #[test]
    fn small_population_uses_mean_shift() {
        let mut emb = commuters(6, Category::Residence, Category::Business, 0);
        emb.extend(commuters(6, Category::Shop, Category::Entertainment, 100));
        let (labels, method) = assign_cohorts(&emb, &CohortParams::default());
        assert_eq!(method, ClusterMethod::MeanShift);
        assert!(labels[..6].iter().all(|&l| l == labels[0]));
        assert!(labels[6..].iter().all(|&l| l != labels[0]));
    }

    #[test]
    fn labels_are_canonical() {
        let mut emb = commuters(30, Category::Residence, Category::Business, 0);
        emb.extend(commuters(10, Category::Shop, Category::Entertainment, 100));
        let params = CohortParams {
            k: 2,
            ..CohortParams::default()
        };
        let (labels, _) = assign_cohorts(&emb, &params);
        // Largest cohort gets id 0; the first user belongs to it here.
        assert_eq!(labels[0], 0);
        assert_eq!(labels.iter().filter(|&&l| l == 0).count(), 30);
    }

    #[test]
    fn deterministic_across_runs() {
        let mut emb = commuters(25, Category::Residence, Category::Business, 0);
        emb.extend(commuters(25, Category::Shop, Category::Medical, 50));
        let params = CohortParams {
            seed: 9,
            ..CohortParams::default()
        };
        let (a, _) = assign_cohorts(&emb, &params);
        let (b, _) = assign_cohorts(&emb, &params);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_population() {
        let (labels, _) = assign_cohorts(&[], &CohortParams::default());
        assert!(labels.is_empty());
    }

    #[test]
    fn effective_k_auto_scales() {
        let p = CohortParams::default();
        assert_eq!(p.effective_k(32), 4);
        assert_eq!(p.effective_k(20_000), 64);
        let fixed = CohortParams {
            k: 8,
            ..CohortParams::default()
        };
        assert_eq!(fixed.effective_k(3), 3);
    }
}
