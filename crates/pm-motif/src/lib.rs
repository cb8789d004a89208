//! Daily mobility motifs over semantic trajectories.
//!
//! Schneider-style mobility motifs describe the *shape* of a user's day:
//! the directed graph whose nodes are the distinct places visited and whose
//! edges are the observed moves between them. The City Semantic Diagram
//! makes the analytic sharper — nodes are semantic units (or, on the live
//! path, primary categories) rather than anonymous locations — but the
//! graph machinery is the same, and this crate owns it:
//!
//! - [`DayGraphBuilder`] accumulates one user-day of visits into a
//!   self-loop-free directed graph of at most [`MAX_NODES`] nodes. Days
//!   that visit more distinct places than the cap are *counted* under an
//!   oversize bucket, never dropped silently.
//! - [`canonical_form`] maps a graph to a stable `u64` canonical form by
//!   exact permutation canonicalization — the minimum adjacency bit
//!   pattern over all node relabelings, with the (permutation-invariant)
//!   diagonal repurposed to carry the node count. Two day graphs get the
//!   same form iff they are isomorphic; no isomorphism library is needed
//!   at ≤ 8 nodes.
//! - [`MotifAggregator`] folds day graphs into a deterministic
//!   [`MotifTable`]: motif classes ranked by population share, each with
//!   its canonical form, node/edge counts, per-category node breakdown,
//!   and a decodable exemplar adjacency.
//!
//! The crate is std-only and depends only on `pm-core` (for
//! [`Category`]); pm-store persists tables as an optional artifact
//! section, pm-stream folds a sliding live accumulator over the same
//! canonicalization, and pm-serve exposes both as `/v1/motifs` and
//! `/v1/live/motifs`.

use pm_core::types::Category;
use std::collections::BTreeMap;

/// Hard cap on distinct places per day graph. Exact canonicalization
/// enumerates all `n!` relabelings, so the cap keeps the worst case at
/// `8! = 40320` cheap bit-remaps; empirically almost every human day
/// visits far fewer distinct places (the paper's corpus averages 2-4).
pub const MAX_NODES: usize = 8;

/// Packs the node-count marker: bit `i*8+i` set for every `i < n`. Day
/// graphs are self-loop-free, so the adjacency diagonal is always zero
/// and can carry the count; the marker is invariant under relabeling,
/// which keeps `canonical_form` a pure function of the isomorphism class.
fn diagonal_marker(n: usize) -> u64 {
    let mut marker = 0u64;
    for i in 0..n {
        marker |= 1u64 << (i * 8 + i);
    }
    marker
}

/// Applies a node relabeling to an off-diagonal adjacency bit pattern.
fn remap(adj: u64, perm: &[u8]) -> u64 {
    let mut out = 0u64;
    let mut rest = adj;
    while rest != 0 {
        let idx = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        out |= 1u64 << ((perm[idx / 8] as usize) * 8 + perm[idx % 8] as usize);
    }
    out
}

/// The canonical form of an `n`-node directed graph given as an adjacency
/// bit pattern (`bit i*8+j` = edge `i -> j`, diagonal empty): the minimum
/// relabeled pattern over all `n!` node permutations (Heap's algorithm),
/// OR-ed with the diagonal node-count marker. Equal forms iff isomorphic.
///
/// # Panics
/// Panics if `n > MAX_NODES` or `adj` has bits outside the `n x n`
/// off-diagonal block — callers hold these invariants structurally.
pub fn canonical_form(n: usize, adj: u64) -> u64 {
    assert!(n <= MAX_NODES, "canonical_form: {n} nodes exceeds the cap");
    let mut valid = 0u64;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                valid |= 1u64 << (i * 8 + j);
            }
        }
    }
    assert!(adj & !valid == 0, "canonical_form: stray adjacency bits");

    let mut perm = [0u8, 1, 2, 3, 4, 5, 6, 7];
    let mut counters = [0usize; MAX_NODES];
    let mut best = remap(adj, &perm);
    let mut i = 0;
    while i < n {
        if counters[i] < i {
            if i % 2 == 0 {
                perm.swap(0, i);
            } else {
                perm.swap(counters[i], i);
            }
            best = best.min(remap(adj, &perm));
            counters[i] += 1;
            i = 0;
        } else {
            counters[i] = 0;
            i += 1;
        }
    }
    best | diagonal_marker(n)
}

/// Node count encoded in a canonical form's diagonal marker.
pub fn form_nodes(form: u64) -> u8 {
    let mut n = 0u8;
    for i in 0..MAX_NODES {
        if form & (1u64 << (i * 8 + i)) != 0 {
            n += 1;
        }
    }
    n
}

/// Edge count of a canonical form (off-diagonal bits).
pub fn form_edges(form: u64) -> u8 {
    let mut diag = 0u64;
    for i in 0..MAX_NODES {
        diag |= 1u64 << (i * 8 + i);
    }
    (form & !diag).count_ones() as u8
}

/// The exemplar adjacency of a canonical form, decoded as directed edges
/// `(from, to)` in ascending bit order — a concrete representative of the
/// isomorphism class, suitable for rendering.
pub fn form_exemplar_edges(form: u64) -> Vec<(u8, u8)> {
    let mut edges = Vec::new();
    let mut rest = form;
    while rest != 0 {
        let idx = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        let (i, j) = (idx / 8, idx % 8);
        if i != j {
            edges.push((i as u8, j as u8));
        }
    }
    edges
}

/// One finalized user-day: either a canonicalized motif with its node
/// category breakdown, or an oversize day (more than [`MAX_NODES`]
/// distinct places — counted, not classified).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DayGraph {
    /// Canonical form; `None` when the day exceeded the node cap.
    pub form: Option<u64>,
    /// Nodes per primary category (indexed by `Category as usize`).
    pub category_counts: [u64; Category::COUNT],
    /// Nodes whose primary category was unknown.
    pub untagged_nodes: u64,
}

/// Accumulates one user-day of place visits into a directed graph.
///
/// `visit` takes an opaque place key — a semantic-unit id on the batch
/// path, a category index on the live path — plus the place's primary
/// category. Consecutive visits to distinct places add an edge; repeats
/// of the current place are absorbed (the graph is self-loop-free).
/// Once the day has seen more than [`MAX_NODES`] distinct places it is
/// marked oversize and further structure is not tracked.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DayGraphBuilder {
    keys: Vec<u64>,
    categories: Vec<Option<Category>>,
    adj: u64,
    last: Option<u8>,
    visits: u64,
    oversize: bool,
}

impl DayGraphBuilder {
    /// An empty day.
    pub fn new() -> DayGraphBuilder {
        DayGraphBuilder::default()
    }

    /// Records a visit to the place identified by `key`.
    pub fn visit(&mut self, key: u64, category: Option<Category>) {
        self.visits += 1;
        if self.oversize {
            return;
        }
        let node = match self.keys.iter().position(|&k| k == key) {
            Some(at) => at,
            None if self.keys.len() == MAX_NODES => {
                self.oversize = true;
                return;
            }
            None => {
                self.keys.push(key);
                self.categories.push(category);
                self.keys.len() - 1
            }
        };
        if let Some(prev) = self.last {
            if prev as usize != node {
                self.adj |= 1u64 << ((prev as usize) * 8 + node);
            }
        }
        self.last = Some(node as u8);
    }

    /// Whether the day saw no visits at all (an empty day has no graph
    /// and must not be finalized).
    pub fn is_empty(&self) -> bool {
        self.visits == 0
    }

    /// Persistence view: `(keys, categories, adj, last, visits, oversize)`
    /// — everything [`DayGraphBuilder::from_parts`] needs to rebuild the
    /// in-progress day exactly.
    #[allow(clippy::type_complexity)]
    pub fn parts(&self) -> (&[u64], &[Option<Category>], u64, Option<u8>, u64, bool) {
        (
            &self.keys,
            &self.categories,
            self.adj,
            self.last,
            self.visits,
            self.oversize,
        )
    }

    /// Rebuilds an in-progress day from persisted parts, re-validating
    /// every structural invariant so corrupt state cannot smuggle in a
    /// graph [`DayGraphBuilder::visit`] could never have built.
    pub fn from_parts(
        keys: Vec<u64>,
        categories: Vec<Option<Category>>,
        adj: u64,
        last: Option<u8>,
        visits: u64,
        oversize: bool,
    ) -> Result<DayGraphBuilder, String> {
        let n = keys.len();
        if n > MAX_NODES {
            return Err(format!("day graph has {n} nodes (max {MAX_NODES})"));
        }
        if categories.len() != n {
            return Err(format!(
                "day graph has {n} keys but {} categories",
                categories.len()
            ));
        }
        for (i, k) in keys.iter().enumerate() {
            if keys[..i].contains(k) {
                return Err(format!("day graph key {k} repeats"));
            }
        }
        let mut valid = 0u64;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    valid |= 1u64 << (i * 8 + j);
                }
            }
        }
        if adj & !valid != 0 {
            return Err("day graph adjacency has bits outside its nodes".to_string());
        }
        if let Some(l) = last {
            if l as usize >= n {
                return Err(format!("day graph last node {l} out of range {n}"));
            }
        }
        if visits < n as u64 {
            return Err(format!("day graph has {n} nodes from only {visits} visits"));
        }
        if oversize && n < MAX_NODES {
            return Err(format!("oversize day graph holds only {n} nodes"));
        }
        Ok(DayGraphBuilder {
            keys,
            categories,
            adj,
            last,
            visits,
            oversize,
        })
    }

    /// Canonicalizes the accumulated day.
    ///
    /// # Panics
    /// Panics on an empty day — callers check [`DayGraphBuilder::is_empty`].
    pub fn finish(&self) -> DayGraph {
        assert!(!self.is_empty(), "finish on an empty day graph");
        if self.oversize {
            return DayGraph {
                form: None,
                category_counts: [0; Category::COUNT],
                untagged_nodes: 0,
            };
        }
        let mut category_counts = [0u64; Category::COUNT];
        let mut untagged_nodes = 0u64;
        for c in &self.categories {
            match c {
                Some(c) => category_counts[*c as usize] += 1,
                None => untagged_nodes += 1,
            }
        }
        DayGraph {
            form: Some(canonical_form(self.keys.len(), self.adj)),
            category_counts,
            untagged_nodes,
        }
    }
}

/// One motif class of a [`MotifTable`].
#[derive(Debug, Clone, PartialEq)]
pub struct MotifClass {
    /// Rank id: 0 is the most populous class. Ties on day count break by
    /// ascending canonical form, so ids are deterministic.
    pub id: u32,
    /// The canonical form shared by every day in the class.
    pub form: u64,
    /// Distinct places visited.
    pub nodes: u8,
    /// Directed transitions between distinct places.
    pub edges: u8,
    /// User-days that collapsed to this class.
    pub days: u64,
    /// `days / total_days` — the population share, oversize days included
    /// in the denominator.
    pub share: f64,
    /// Node occurrences per primary category across the class's days.
    pub category_counts: [u64; Category::COUNT],
    /// Node occurrences with no recognized primary category.
    pub untagged_nodes: u64,
}

impl MotifClass {
    /// A concrete representative adjacency, as `(from, to)` edges.
    pub fn exemplar_edges(&self) -> Vec<(u8, u8)> {
        form_exemplar_edges(self.form)
    }
}

/// The ranked motif classes of a population of user-days.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MotifTable {
    /// Every finalized user-day, oversize ones included.
    pub total_days: u64,
    /// Days that exceeded [`MAX_NODES`] distinct places.
    pub oversize_days: u64,
    /// Classes ranked by `(days desc, form asc)`.
    pub classes: Vec<MotifClass>,
}

impl MotifTable {
    /// Rebuilds the derived fields (`id`, `nodes`, `edges`, `share`) from
    /// the stored ones — the persistence codec stores only
    /// `(form, days, category_counts, untagged_nodes)` per class.
    pub fn from_parts(
        total_days: u64,
        oversize_days: u64,
        parts: Vec<(u64, u64, [u64; Category::COUNT], u64)>,
    ) -> MotifTable {
        let classes = parts
            .into_iter()
            .enumerate()
            .map(
                |(id, (form, days, category_counts, untagged_nodes))| MotifClass {
                    id: id as u32,
                    form,
                    nodes: form_nodes(form),
                    edges: form_edges(form),
                    days,
                    share: if total_days == 0 {
                        0.0
                    } else {
                        days as f64 / total_days as f64
                    },
                    category_counts,
                    untagged_nodes,
                },
            )
            .collect();
        MotifTable {
            total_days,
            oversize_days,
            classes,
        }
    }
}

#[derive(Debug, Clone, Default)]
struct ClassAccum {
    days: u64,
    category_counts: [u64; Category::COUNT],
    untagged_nodes: u64,
}

/// Folds finalized day graphs into a deterministic [`MotifTable`].
///
/// Accumulation is order-independent (sums into a form-keyed map), so any
/// partition of the same day-graph multiset — per-shard accumulators
/// merged afterwards, say — produces the identical table.
#[derive(Debug, Clone, Default)]
pub struct MotifAggregator {
    classes: BTreeMap<u64, ClassAccum>,
    total_days: u64,
    oversize_days: u64,
}

impl MotifAggregator {
    /// An empty aggregator.
    pub fn new() -> MotifAggregator {
        MotifAggregator::default()
    }

    /// Folds one finalized day in.
    pub fn record(&mut self, day: &DayGraph) {
        self.total_days += 1;
        match day.form {
            None => self.oversize_days += 1,
            Some(form) => {
                let accum = self.classes.entry(form).or_default();
                accum.days += 1;
                for (i, n) in day.category_counts.iter().enumerate() {
                    accum.category_counts[i] += n;
                }
                accum.untagged_nodes += day.untagged_nodes;
            }
        }
    }

    /// Days folded in so far.
    pub fn total_days(&self) -> u64 {
        self.total_days
    }

    /// The ranked table: classes by `(days desc, canonical form asc)`.
    pub fn table(&self) -> MotifTable {
        let mut ranked: Vec<(&u64, &ClassAccum)> = self.classes.iter().collect();
        ranked.sort_by(|(fa, a), (fb, b)| b.days.cmp(&a.days).then(fa.cmp(fb)));
        MotifTable::from_parts(
            self.total_days,
            self.oversize_days,
            ranked
                .into_iter()
                .map(|(&form, a)| (form, a.days, a.category_counts, a.untagged_nodes))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_place_day_is_the_one_node_motif() {
        let mut day = DayGraphBuilder::new();
        day.visit(42, Some(Category::Residence));
        day.visit(42, Some(Category::Residence));
        assert!(!day.is_empty());
        let g = day.finish();
        let form = g.form.expect("not oversize");
        assert_eq!(form_nodes(form), 1);
        assert_eq!(form_edges(form), 0);
        assert_eq!(g.category_counts[Category::Residence as usize], 1);
    }

    #[test]
    fn commute_and_reverse_commute_share_a_class() {
        // home -> office -> home vs office -> home -> office: isomorphic
        // two-node cycles regardless of which place comes first.
        let mut a = DayGraphBuilder::new();
        a.visit(1, None);
        a.visit(2, None);
        a.visit(1, None);
        let mut b = DayGraphBuilder::new();
        b.visit(9, None);
        b.visit(7, None);
        b.visit(9, None);
        assert_eq!(a.finish().form, b.finish().form);
    }

    #[test]
    fn chain_and_cycle_are_distinct_classes() {
        // a -> b -> c (chain) vs a -> b -> c -> a (cycle).
        let mut chain = DayGraphBuilder::new();
        for k in [1, 2, 3] {
            chain.visit(k, None);
        }
        let mut cycle = DayGraphBuilder::new();
        for k in [1, 2, 3, 1] {
            cycle.visit(k, None);
        }
        let (c1, c2) = (chain.finish().form, cycle.finish().form);
        assert_ne!(c1, c2);
        assert_eq!(form_edges(c1.unwrap()), 2);
        assert_eq!(form_edges(c2.unwrap()), 3);
    }

    #[test]
    fn ninth_distinct_place_marks_the_day_oversize() {
        let mut day = DayGraphBuilder::new();
        for k in 0..=MAX_NODES as u64 {
            day.visit(k, None);
        }
        assert!(day.parts().5);
        assert_eq!(day.finish().form, None);
    }

    #[test]
    fn revisits_never_overflow_the_cap() {
        let mut day = DayGraphBuilder::new();
        for _ in 0..3 {
            for k in 0..MAX_NODES as u64 {
                day.visit(k, None);
            }
        }
        assert!(!day.parts().5);
        let form = day.finish().form.unwrap();
        assert_eq!(form_nodes(form), MAX_NODES as u8);
    }

    #[test]
    fn aggregator_ranks_by_days_then_form() {
        let mut agg = MotifAggregator::new();
        let day = |keys: &[u64]| {
            let mut b = DayGraphBuilder::new();
            for &k in keys {
                b.visit(k, Some(Category::Shop));
            }
            b.finish()
        };
        agg.record(&day(&[1, 2, 1])); // two-node cycle, twice
        agg.record(&day(&[3, 4, 3]));
        agg.record(&day(&[5])); // one-node day, once
        let mut nine = DayGraphBuilder::new();
        for k in 0..9u64 {
            nine.visit(k, None);
        }
        agg.record(&nine.finish()); // oversize

        let table = agg.table();
        assert_eq!(table.total_days, 4);
        assert_eq!(table.oversize_days, 1);
        assert_eq!(table.classes.len(), 2);
        assert_eq!(table.classes[0].days, 2);
        assert_eq!(table.classes[0].id, 0);
        assert_eq!(table.classes[0].nodes, 2);
        assert_eq!(table.classes[0].edges, 2);
        assert_eq!(table.classes[0].share, 0.5);
        assert_eq!(
            table.classes[0].category_counts[Category::Shop as usize],
            4,
            "two days x two shop nodes"
        );
        assert_eq!(table.classes[1].days, 1);
        assert_eq!(table.classes[1].nodes, 1);
    }

    #[test]
    fn exemplar_edges_decode_the_form() {
        let mut day = DayGraphBuilder::new();
        for k in [1, 2, 3, 1] {
            day.visit(k, None);
        }
        let form = day.finish().form.unwrap();
        let edges = form_exemplar_edges(form);
        assert_eq!(edges.len(), 3);
        // Re-encoding the exemplar reproduces the form exactly.
        let mut adj = 0u64;
        for (f, t) in &edges {
            adj |= 1u64 << ((*f as usize) * 8 + *t as usize);
        }
        assert_eq!(canonical_form(3, adj), form);
    }

    #[test]
    fn table_roundtrips_through_parts() {
        let mut agg = MotifAggregator::new();
        let mut b = DayGraphBuilder::new();
        b.visit(1, Some(Category::Residence));
        b.visit(2, Some(Category::Business));
        agg.record(&b.finish());
        let table = agg.table();
        let parts = table
            .classes
            .iter()
            .map(|c| (c.form, c.days, c.category_counts, c.untagged_nodes))
            .collect();
        let rebuilt = MotifTable::from_parts(table.total_days, table.oversize_days, parts);
        assert_eq!(rebuilt, table);
    }
}
