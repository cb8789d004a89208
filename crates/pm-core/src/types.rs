//! Domain types: POIs, semantic categories and tag sets, stay points, raw
//! and semantic trajectories (paper Definitions 1, 2, 5, 6).

use pm_geo::LocalPoint;
use std::fmt;

/// Seconds since the start of the simulated/observed epoch.
///
/// The epoch is aligned so that `t = 0` is 00:00 on a Monday, which makes
/// time-of-week bucketing (Fig. 14) a pure modulo computation.
pub type Timestamp = i64;

/// Seconds in a day / a week, shared by schedule and bucketing code.
pub const DAY_SECS: Timestamp = 86_400;
/// Seconds in a week.
pub const WEEK_SECS: Timestamp = 7 * DAY_SECS;

/// The 15 major POI categories of the Shanghai AMAP dataset (paper Table 3),
/// ordered by their share of the dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Category {
    /// Residential compounds and homes (18.09% of POIs).
    Residence = 0,
    /// Shops and markets (16.36%).
    Shop = 1,
    /// Business and office buildings (15.00%).
    Business = 2,
    /// Restaurants (11.30%).
    Restaurant = 3,
    /// Entertainment venues (10.03%).
    Entertainment = 4,
    /// Public services (9.40%).
    PublicService = 5,
    /// Traffic stations — metro, rail, airport terminals (7.55%).
    TrafficStation = 6,
    /// Technology and education (2.67%).
    Education = 7,
    /// Sports facilities (1.94%).
    Sports = 8,
    /// Government agencies (1.88%).
    Government = 9,
    /// Industrial sites (1.47%).
    Industry = 10,
    /// Financial services (1.43%).
    Financial = 11,
    /// Medical services — hospitals, clinics, pharmacies (1.32%).
    Medical = 12,
    /// Accommodation and hotels (1.06%).
    Hotel = 13,
    /// Tourism attractions (0.51%).
    Tourism = 14,
}

impl Category {
    /// All categories, in Table 3 order.
    pub const ALL: [Category; 15] = [
        Category::Residence,
        Category::Shop,
        Category::Business,
        Category::Restaurant,
        Category::Entertainment,
        Category::PublicService,
        Category::TrafficStation,
        Category::Education,
        Category::Sports,
        Category::Government,
        Category::Industry,
        Category::Financial,
        Category::Medical,
        Category::Hotel,
        Category::Tourism,
    ];

    /// Number of major categories.
    pub const COUNT: usize = 15;

    /// Table 3 share of each category in the Shanghai POI dataset, summing
    /// to 1 (the paper's percentages renormalized).
    pub fn share(self) -> f64 {
        const SHARES: [f64; 15] = [
            0.1809, 0.1636, 0.1500, 0.1130, 0.1003, 0.0940, 0.0755, 0.0267, 0.0194, 0.0188, 0.0147,
            0.0143, 0.0132, 0.0106, 0.0051,
        ];
        SHARES[self as usize] / 1.0001 // raw shares sum to 1.0001 in Table 3
    }

    /// Human-readable name matching Table 3.
    pub fn name(self) -> &'static str {
        const NAMES: [&str; 15] = [
            "Residence",
            "Shop & Market",
            "Business & Office",
            "Restaurant",
            "Entertainment",
            "Public Service",
            "Traffic Stations",
            "Technology & Education",
            "Sports",
            "Government Agency",
            "Industry",
            "Financial Service",
            "Medical Service",
            "Accommodation & Hotel",
            "Tourism",
        ];
        NAMES[self as usize]
    }

    /// Category from its `repr` index.
    ///
    /// # Panics
    /// Panics if `idx >= Category::COUNT`.
    pub fn from_index(idx: usize) -> Category {
        Category::ALL[idx]
    }

    /// Number of minor sub-types under each major category; the totals sum
    /// to 98 minor types as in the paper's dataset description.
    pub fn minor_count(self) -> u8 {
        const MINORS: [u8; 15] = [5, 12, 8, 14, 10, 8, 6, 7, 5, 3, 4, 4, 6, 3, 3];
        MINORS[self as usize]
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A set of semantic tags (major categories) — the semantic property `s` of
/// the paper, attached to stay points and semantic units.
///
/// Backed by a 16-bit mask: set algebra, subset tests (Definition 7's
/// semantic-containment condition) and tag-set cosine similarity (Eq. 11)
/// are all branch-free.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tags(u16);

impl Tags {
    /// The empty tag set.
    pub const EMPTY: Tags = Tags(0);

    /// A singleton tag set.
    pub fn only(c: Category) -> Tags {
        Tags(1 << c as u8)
    }

    /// Builds a tag set from an iterator of categories (also available via
    /// the `FromIterator` impl / `collect()`).
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = Category>>(iter: I) -> Tags {
        iter.into_iter().fold(Tags::EMPTY, |t, c| t.with(c))
    }

    /// Returns this set with `c` added.
    #[must_use]
    pub fn with(self, c: Category) -> Tags {
        Tags(self.0 | (1 << c as u8))
    }

    /// Whether `c` is in the set.
    pub fn contains(self, c: Category) -> bool {
        self.0 & (1 << c as u8) != 0
    }

    /// Whether `other` is a subset of `self` (`self.s ⊇ other.s`).
    pub fn is_superset(self, other: Tags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Set union.
    pub fn union(self, other: Tags) -> Tags {
        Tags(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersection(self, other: Tags) -> Tags {
        Tags(self.0 & other.0)
    }

    /// Number of tags in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates the categories in the set in `repr` order.
    pub fn iter(self) -> impl Iterator<Item = Category> {
        Category::ALL.into_iter().filter(move |c| self.contains(*c))
    }

    /// Binary-vector cosine similarity between two tag sets (Eq. 11):
    /// `|A ∩ B| / sqrt(|A| * |B|)`. Empty sets have similarity 0 (or 1 when
    /// both are empty, by the convention that identical sets are maximally
    /// similar).
    pub fn cosine(self, other: Tags) -> f64 {
        if self.is_empty() && other.is_empty() {
            return 1.0;
        }
        if self.is_empty() || other.is_empty() {
            return 0.0;
        }
        self.intersection(other).len() as f64 / ((self.len() * other.len()) as f64).sqrt()
    }
}

impl fmt::Display for Tags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Category> for Tags {
    fn from_iter<I: IntoIterator<Item = Category>>(iter: I) -> Tags {
        Tags::from_iter(iter)
    }
}

/// A Point of Interest (Definition 2): `p^I = {id, p, s}`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Poi {
    /// Physical identity of the venue.
    pub id: u64,
    /// Location in the local meter frame.
    pub pos: LocalPoint,
    /// Major semantic category.
    pub category: Category,
    /// Minor sub-type within the major category (dataset realism only; the
    /// mining pipeline operates on major categories).
    pub minor: u8,
}

impl Poi {
    /// Creates a POI with minor type 0.
    pub fn new(id: u64, pos: LocalPoint, category: Category) -> Poi {
        Poi {
            id,
            pos,
            category,
            minor: 0,
        }
    }
}

/// A raw GPS fix: location + timestamp (the `(p, t)` of Definition 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GpsPoint {
    /// Location in the local meter frame.
    pub pos: LocalPoint,
    /// Fix time.
    pub time: Timestamp,
}

impl GpsPoint {
    /// Creates a fix.
    pub fn new(pos: LocalPoint, time: Timestamp) -> GpsPoint {
        GpsPoint { pos, time }
    }
}

/// A raw GPS trajectory (Definition 1): a time-ordered sequence of fixes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GpsTrajectory {
    /// The fixes, in non-decreasing time order.
    pub points: Vec<GpsPoint>,
}

impl GpsTrajectory {
    /// Creates a trajectory, asserting time monotonicity in debug builds.
    pub fn new(points: Vec<GpsPoint>) -> GpsTrajectory {
        debug_assert!(
            points.windows(2).all(|w| w[0].time <= w[1].time),
            "GPS fixes must be time-ordered"
        );
        GpsTrajectory { points }
    }

    /// Number of fixes.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the trajectory has no fixes.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// A stay point (Definition 5): where a commuter stopped to perform an
/// activity. `tags` is the semantic property `s`, unknown ([`Tags::EMPTY`])
/// until semantic recognition fills it in.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StayPoint {
    /// Representative location of the stay.
    pub pos: LocalPoint,
    /// Representative time of the stay.
    pub time: Timestamp,
    /// Semantic property; empty until recognized.
    pub tags: Tags,
    /// The dominant category within `tags`, when the recognizer knows one
    /// (CSD: the winning unit's strongest category; ROI: the majority of
    /// the annotating POIs). Drives the sequence-mining item; `tags` as a
    /// whole drives the consistency metric (Eq. 11).
    pub primary: Option<Category>,
}

impl StayPoint {
    /// Creates a stay point with known tags; the primary defaults to the
    /// lowest category in the set (exact for singleton tag sets).
    pub fn new(pos: LocalPoint, time: Timestamp, tags: Tags) -> StayPoint {
        StayPoint {
            pos,
            time,
            tags,
            primary: tags.iter().next(),
        }
    }

    /// Creates a stay point whose semantics are not yet recognized.
    pub fn untagged(pos: LocalPoint, time: Timestamp) -> StayPoint {
        StayPoint {
            pos,
            time,
            tags: Tags::EMPTY,
            primary: None,
        }
    }

    /// The category representing this stay in a mined sequence: the
    /// recognizer-chosen primary, falling back to the lowest tag.
    pub fn primary_category(&self) -> Option<Category> {
        self.primary.or_else(|| self.tags.iter().next())
    }
}

/// A semantic trajectory (Definition 6): the stay points derived from one
/// GPS trajectory (or, for the taxi corpus, the linked pick-up/drop-off
/// chain of one passenger-day).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SemanticTrajectory {
    /// The stay points in time order.
    pub stays: Vec<StayPoint>,
    /// Payment-card passenger id when known (20% of the taxi corpus).
    pub passenger: Option<u64>,
}

impl SemanticTrajectory {
    /// Creates an anonymous semantic trajectory.
    pub fn new(stays: Vec<StayPoint>) -> SemanticTrajectory {
        debug_assert!(
            stays.windows(2).all(|w| w[0].time <= w[1].time),
            "stay points must be time-ordered"
        );
        SemanticTrajectory {
            stays,
            passenger: None,
        }
    }

    /// Attaches a passenger id.
    #[must_use]
    pub fn with_passenger(mut self, id: u64) -> SemanticTrajectory {
        self.passenger = Some(id);
        self
    }

    /// Number of stay points.
    pub fn len(&self) -> usize {
        self.stays.len()
    }

    /// Whether the trajectory has no stay points.
    pub fn is_empty(&self) -> bool {
        self.stays.is_empty()
    }
}

/// Time-of-week buckets used by the demonstration (Fig. 14).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WeekBucket {
    /// Monday–Friday, 05:00–11:00.
    WeekdayMorning,
    /// Monday–Friday, 11:00–17:00.
    WeekdayAfternoon,
    /// Monday–Friday, 17:00–24:00 (plus 00:00–05:00 spillover).
    WeekdayNight,
    /// Saturday–Sunday, 05:00–11:00.
    WeekendMorning,
    /// Saturday–Sunday, 11:00–17:00.
    WeekendAfternoon,
    /// Saturday–Sunday, 17:00–24:00 (plus 00:00–05:00 spillover).
    WeekendNight,
}

impl WeekBucket {
    /// All buckets in display order.
    pub const ALL: [WeekBucket; 6] = [
        WeekBucket::WeekdayMorning,
        WeekBucket::WeekdayAfternoon,
        WeekBucket::WeekdayNight,
        WeekBucket::WeekendMorning,
        WeekBucket::WeekendAfternoon,
        WeekBucket::WeekendNight,
    ];

    /// Buckets a timestamp (epoch `t = 0` is Monday 00:00).
    pub fn of(t: Timestamp) -> WeekBucket {
        let tw = t.rem_euclid(WEEK_SECS);
        let day = tw / DAY_SECS; // 0 = Monday
        let hour = (tw % DAY_SECS) / 3600;
        let weekend = day >= 5;
        let slot = match hour {
            5..=10 => 0,
            11..=16 => 1,
            _ => 2,
        };
        match (weekend, slot) {
            (false, 0) => WeekBucket::WeekdayMorning,
            (false, 1) => WeekBucket::WeekdayAfternoon,
            (false, _) => WeekBucket::WeekdayNight,
            (true, 0) => WeekBucket::WeekendMorning,
            (true, 1) => WeekBucket::WeekendAfternoon,
            (true, _) => WeekBucket::WeekendNight,
        }
    }

    /// Display label matching the paper's Fig. 14 captions.
    pub fn label(self) -> &'static str {
        match self {
            WeekBucket::WeekdayMorning => "weekday morning",
            WeekBucket::WeekdayAfternoon => "weekday afternoon",
            WeekBucket::WeekdayNight => "weekday night",
            WeekBucket::WeekendMorning => "weekend morning",
            WeekBucket::WeekendAfternoon => "weekend afternoon",
            WeekBucket::WeekendNight => "weekend night",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_shares_sum_to_one() {
        let total: f64 = Category::ALL.iter().map(|c| c.share()).sum();
        assert!((total - 1.0).abs() < 1e-3, "total {total}");
    }

    #[test]
    fn category_minor_types_sum_to_98() {
        let total: u32 = Category::ALL.iter().map(|c| c.minor_count() as u32).sum();
        assert_eq!(total, 98);
    }

    #[test]
    fn category_roundtrip_from_index() {
        for (i, c) in Category::ALL.iter().enumerate() {
            assert_eq!(Category::from_index(i), *c);
            assert_eq!(*c as usize, i);
        }
    }

    #[test]
    fn tags_set_algebra() {
        let a = Tags::only(Category::Shop).with(Category::Restaurant);
        let b = Tags::only(Category::Shop);
        assert!(a.is_superset(b));
        assert!(!b.is_superset(a));
        assert_eq!(a.intersection(b), b);
        assert_eq!(a.union(b), a);
        assert_eq!(a.len(), 2);
        assert!(a.contains(Category::Restaurant));
        assert!(!a.contains(Category::Medical));
    }

    #[test]
    fn tags_iter_and_from_iter() {
        let t: Tags = [Category::Medical, Category::Residence]
            .into_iter()
            .collect();
        let cats: Vec<Category> = t.iter().collect();
        assert_eq!(cats, vec![Category::Residence, Category::Medical]);
    }

    #[test]
    fn tags_cosine_identical_and_disjoint() {
        let a = Tags::only(Category::Shop).with(Category::Restaurant);
        assert!((a.cosine(a) - 1.0).abs() < 1e-12);
        let b = Tags::only(Category::Medical);
        assert_eq!(a.cosine(b), 0.0);
        assert_eq!(Tags::EMPTY.cosine(Tags::EMPTY), 1.0);
        assert_eq!(Tags::EMPTY.cosine(a), 0.0);
    }

    #[test]
    fn tags_cosine_partial_overlap() {
        let a = Tags::only(Category::Shop).with(Category::Restaurant);
        let b = Tags::only(Category::Shop);
        // |A∩B| = 1, |A| = 2, |B| = 1 -> 1/sqrt(2)
        assert!((a.cosine(b) - 1.0 / 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn week_bucketing() {
        // Monday 08:00.
        assert_eq!(WeekBucket::of(8 * 3600), WeekBucket::WeekdayMorning);
        // Monday 13:00.
        assert_eq!(WeekBucket::of(13 * 3600), WeekBucket::WeekdayAfternoon);
        // Friday 23:00.
        assert_eq!(
            WeekBucket::of(4 * DAY_SECS + 23 * 3600),
            WeekBucket::WeekdayNight
        );
        // Saturday 09:00.
        assert_eq!(
            WeekBucket::of(5 * DAY_SECS + 9 * 3600),
            WeekBucket::WeekendMorning
        );
        // Sunday 15:00.
        assert_eq!(
            WeekBucket::of(6 * DAY_SECS + 15 * 3600),
            WeekBucket::WeekendAfternoon
        );
        // Sunday 02:00 (night spillover).
        assert_eq!(
            WeekBucket::of(6 * DAY_SECS + 2 * 3600),
            WeekBucket::WeekendNight
        );
        // Second week wraps.
        assert_eq!(
            WeekBucket::of(WEEK_SECS + 8 * 3600),
            WeekBucket::WeekdayMorning
        );
    }

    #[test]
    fn tags_display_lists_names() {
        let t = Tags::only(Category::Shop).with(Category::Medical);
        let s = format!("{t}");
        assert!(s.contains("Shop & Market") && s.contains("Medical Service"));
    }
}
