//! A deterministic sliding window of semantic-transition counts.
//!
//! The window is a ring of absolute-time-aligned buckets: event time `t`
//! lands in period `t.div_euclid(bucket_secs)`, and period `p` occupies ring
//! slot `p mod n_buckets`. Rotation is *lazy and event-driven*: a slot is
//! zeroed when an event from a newer period claims it, and stale slots (a
//! full rotation old because the clock jumped) are left untouched but no
//! longer counted. There is no wall clock and no background thread — the
//! same event sequence always yields the same window, which is what makes
//! replays and tests reproducible.
//!
//! Events older than the window (relative to the *advancing* clock — the
//! maximum event time seen) are dropped and counted as late, never
//! retroactively inserted: the window only moves forward.
//!
//! Reads cost one pass over the `from → to` cells, not over the ring: the
//! window keeps a running sum of every in-window slot, adds each record to
//! it, and subtracts a slot when a clock move ages it out. The sum is
//! derived state — never persisted, and rebuilt from the ring on restore.

use crate::error::StreamError;
use pm_core::types::{Category, Timestamp};

/// Hard cap on ring slots — a memory guard, not a tuning knob.
const MAX_BUCKETS: usize = 4096;

/// Shape of one transition window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Total window span (seconds).
    pub window_secs: Timestamp,
    /// Bucket granularity (seconds); must divide `window_secs`.
    pub bucket_secs: Timestamp,
}

impl Default for WindowConfig {
    fn default() -> WindowConfig {
        WindowConfig {
            window_secs: 24 * 3600,
            bucket_secs: 900,
        }
    }
}

impl WindowConfig {
    /// Rejects shapes that cannot form a ring.
    pub fn validate(&self) -> Result<(), StreamError> {
        if self.bucket_secs <= 0 {
            return Err(StreamError::config(format!(
                "bucket_secs {} must be positive",
                self.bucket_secs
            )));
        }
        if self.window_secs < self.bucket_secs || self.window_secs % self.bucket_secs != 0 {
            return Err(StreamError::config(format!(
                "window_secs {} must be a positive multiple of bucket_secs {}",
                self.window_secs, self.bucket_secs
            )));
        }
        if self.n_buckets() > MAX_BUCKETS {
            return Err(StreamError::config(format!(
                "window would need {} buckets (max {MAX_BUCKETS})",
                self.n_buckets()
            )));
        }
        Ok(())
    }

    fn n_buckets(&self) -> usize {
        (self.window_secs / self.bucket_secs) as usize
    }
}

/// Sliding `from → to` transition counts over the last `window_secs`
/// seconds of event time, bucketed at `bucket_secs` granularity.
#[derive(Debug, Clone)]
pub struct TransitionWindow {
    config: WindowConfig,
    /// Per-slot counts, indexed `from * Category::COUNT + to`.
    buckets: Vec<Vec<u64>>,
    /// The absolute period each slot currently holds.
    periods: Vec<Timestamp>,
    /// Sum of the slots inside the window at `clock` — what a scan of the
    /// ring would total. Derived: not persisted, rebuilt by `from_parts`.
    live: Vec<u64>,
    /// Maximum event time observed — the stream clock.
    clock: Option<Timestamp>,
    late_dropped: u64,
    recorded: u64,
}

impl TransitionWindow {
    /// An empty window of the given shape.
    pub fn new(config: WindowConfig) -> Result<TransitionWindow, StreamError> {
        config.validate()?;
        let n = config.n_buckets();
        Ok(TransitionWindow {
            config,
            buckets: vec![vec![0; Category::COUNT * Category::COUNT]; n],
            // i64::MIN doubles as "never written"; slot contents start at
            // zero, so a real period colliding with it is still correct.
            periods: vec![Timestamp::MIN; n],
            live: vec![0; Category::COUNT * Category::COUNT],
            clock: None,
            late_dropped: 0,
            recorded: 0,
        })
    }

    /// Whether a slot holding `period` is inside the window when the clock
    /// is in `clock_period` (no clock: no slot is).
    fn holds(&self, clock_period: Option<i64>, period: Timestamp) -> bool {
        let n = self.periods.len() as i64;
        clock_period.is_some_and(|c| (0..n).contains(&c.saturating_sub(period)))
    }

    /// Adds `slot`'s counts to the running totals, or takes them out.
    fn tally(&mut self, slot: usize, add: bool) {
        for (sum, &c) in self.live.iter_mut().zip(&self.buckets[slot]) {
            *sum = if add { *sum + c } else { *sum - c };
        }
    }

    /// Moves the clock forward to `t` (a no-op when it is already there),
    /// keeping `live` equal to the sum of the slots inside the window.
    fn move_clock(&mut self, t: Timestamp) {
        let b = self.config.bucket_secs;
        let old = self.clock.map(|c| c.div_euclid(b));
        let clock = self.clock.map_or(t, |c| c.max(t));
        self.clock = Some(clock);
        let new = Some(clock.div_euclid(b));
        if old == new {
            return;
        }
        for slot in 0..self.periods.len() {
            let was = self.holds(old, self.periods[slot]);
            if was != self.holds(new, self.periods[slot]) {
                self.tally(slot, !was);
            }
        }
    }

    /// Records one transition at event time `t`. Returns `false` when the
    /// event is older than the window (counted as late, not recorded).
    pub fn record(&mut self, from: Category, to: Category, t: Timestamp) -> bool {
        let b = self.config.bucket_secs;
        let n = self.periods.len() as i64;
        let period = t.div_euclid(b);
        self.move_clock(t);
        let clock_period = self.clock.unwrap_or(t).div_euclid(b);
        if clock_period.saturating_sub(period) >= n {
            self.late_dropped += 1;
            return false;
        }
        let slot = period.rem_euclid(n) as usize;
        if self.periods[slot] != period {
            // The slot last held a period at least one full rotation ago,
            // which is outside the window unless restored state says else.
            if self.holds(Some(clock_period), self.periods[slot]) {
                self.tally(slot, false);
            }
            self.buckets[slot].iter_mut().for_each(|c| *c = 0);
            self.periods[slot] = period;
        }
        let cell = (from as usize) * Category::COUNT + to as usize;
        self.buckets[slot][cell] += 1;
        self.live[cell] += 1;
        self.recorded += 1;
        true
    }

    /// Advances the stream clock to `to` without recording anything (a
    /// no-op when the clock is already at or past `to`).
    ///
    /// Equivalent to the clock movement a record at time `to` would cause:
    /// slots leave the window by *age*, and [`TransitionWindow::record`]
    /// lazily reclaims stale slots, so moving the clock alone is all a pure
    /// time advance needs. Sharded engines use this to bring untouched
    /// shards up to a batch's sealed clock.
    pub fn advance(&mut self, to: Timestamp) {
        self.move_clock(to);
    }

    /// Non-zero `(from, to, count)` triples currently inside the window,
    /// sorted by `(from, to)` index. Slots stranded by a clock jump are
    /// excluded without being touched.
    pub fn counts(&self) -> Vec<(Category, Category, u64)> {
        let mut out = Vec::new();
        for (i, &c) in self.live.iter().enumerate() {
            if c > 0 {
                let (from, to) = (i / Category::COUNT, i % Category::COUNT);
                out.push((Category::from_index(from), Category::from_index(to), c));
            }
        }
        out
    }

    /// The in-window cell totals, summed from the ring: the slots whose
    /// age at the clock's period is under one rotation.
    fn scan_live(&self) -> Vec<u64> {
        let clock_period = self.clock.map(|c| c.div_euclid(self.config.bucket_secs));
        let mut totals = vec![0u64; Category::COUNT * Category::COUNT];
        for (slot, counts) in self.buckets.iter().enumerate() {
            if self.holds(clock_period, self.periods[slot]) {
                for (sum, &c) in totals.iter_mut().zip(counts) {
                    *sum += c;
                }
            }
        }
        totals
    }

    /// Sum of all in-window counts.
    pub fn total(&self) -> u64 {
        self.live.iter().sum()
    }

    /// The stream clock: the latest event time seen.
    pub fn as_of(&self) -> Option<Timestamp> {
        self.clock
    }

    /// Events dropped for arriving older than the window.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// Events recorded since construction (a lifetime tally, not the
    /// current window content — see [`TransitionWindow::total`]).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// The window shape.
    pub fn config(&self) -> WindowConfig {
        self.config
    }

    /// Persistence view: per-slot counts, per-slot periods, clock, and the
    /// two lifetime tallies, in that order.
    #[allow(clippy::type_complexity)]
    pub(crate) fn parts(&self) -> (&[Vec<u64>], &[Timestamp], Option<Timestamp>, u64, u64) {
        (
            &self.buckets,
            &self.periods,
            self.clock,
            self.late_dropped,
            self.recorded,
        )
    }

    /// Rebuilds a window from persisted parts, re-validating the shape and
    /// the slot-count geometry so corrupt state cannot build a ring that
    /// later indexes out of bounds.
    pub(crate) fn from_parts(
        config: WindowConfig,
        buckets: Vec<Vec<u64>>,
        periods: Vec<Timestamp>,
        clock: Option<Timestamp>,
        late_dropped: u64,
        recorded: u64,
    ) -> Result<TransitionWindow, StreamError> {
        config.validate()?;
        if buckets.len() != config.n_buckets() || periods.len() != config.n_buckets() {
            return Err(StreamError::corrupt(format!(
                "window has {} bucket slots and {} period slots, config needs {}",
                buckets.len(),
                periods.len(),
                config.n_buckets()
            )));
        }
        if let Some(bad) = buckets
            .iter()
            .find(|b| b.len() != Category::COUNT * Category::COUNT)
        {
            return Err(StreamError::corrupt(format!(
                "window slot holds {} counts, expected {}",
                bad.len(),
                Category::COUNT * Category::COUNT
            )));
        }
        let mut window = TransitionWindow {
            config,
            buckets,
            periods,
            live: Vec::new(),
            clock,
            late_dropped,
            recorded,
        };
        window.live = window.scan_live();
        Ok(window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TransitionWindow {
        // 4 buckets of 100 s = a 400 s window.
        TransitionWindow::new(WindowConfig {
            window_secs: 400,
            bucket_secs: 100,
        })
        .expect("config")
    }

    const R: Category = Category::Residence;
    const B: Category = Category::Business;

    #[test]
    fn config_validation() {
        assert!(WindowConfig::default().validate().is_ok());
        for (w, b) in [
            (0, 0),
            (100, 0),
            (100, -1),
            (50, 100),
            (150, 100),
            (900_000_000, 100),
        ] {
            let c = WindowConfig {
                window_secs: w,
                bucket_secs: b,
            };
            assert!(c.validate().is_err(), "{c:?}");
            assert!(TransitionWindow::new(c).is_err());
        }
    }

    #[test]
    fn counts_accumulate_and_expire() {
        let mut w = tiny();
        assert!(w.record(R, B, 10));
        assert!(w.record(R, B, 120));
        assert_eq!(w.counts(), vec![(R, B, 2)]);
        // Clock moves to t=450: bucket 0 (period 0) is now 4 periods old
        // and rotates out; bucket holding t=120 remains.
        assert!(w.record(B, R, 450));
        assert_eq!(w.counts(), vec![(R, B, 1), (B, R, 1)]);
        assert_eq!(w.total(), 2);
        assert_eq!(w.as_of(), Some(450));
    }

    #[test]
    fn late_events_are_dropped_not_inserted() {
        let mut w = tiny();
        assert!(w.record(R, B, 1000));
        // 1000 - 500 spans > 4 buckets back: late.
        assert!(!w.record(R, B, 500));
        assert_eq!(w.late_dropped(), 1);
        assert_eq!(w.total(), 1);
        // Just inside the window is fine.
        assert!(w.record(R, B, 700));
        assert_eq!(w.total(), 2);
    }

    #[test]
    fn clock_jump_strands_then_excludes_old_slots() {
        let mut w = tiny();
        assert!(w.record(R, B, 0));
        // A huge jump: the old slot is stale but never rewritten (its ring
        // position isn't reclaimed by these periods). Reads must exclude it.
        assert!(w.record(B, R, 1_000_000));
        assert_eq!(w.counts(), vec![(B, R, 1)]);
    }

    #[test]
    fn same_events_same_window() {
        let events = [(R, B, 10), (B, R, 250), (R, R, 330), (B, B, 401)];
        let mut w1 = tiny();
        let mut w2 = tiny();
        for (f, t, at) in events {
            w1.record(f, t, at);
            w2.record(f, t, at);
        }
        assert_eq!(w1.counts(), w2.counts());
        assert_eq!(w1.recorded(), 4);
    }

    #[test]
    fn non_monotonic_times_rotate_deterministically() {
        // Hostile clock: timestamps arrive shuffled. The window clock only
        // advances (max event time), and every in-window event lands in the
        // bucket of its own period — so any arrival order of the same event
        // set yields the same counts.
        let events = [
            (R, B, 350),
            (B, R, 120),
            (R, R, 10),
            (B, B, 399),
            (R, B, 200),
        ];
        let mut shuffled = tiny();
        for (f, t, at) in events {
            shuffled.record(f, t, at);
        }
        let mut sorted_w = tiny();
        let mut sorted = events;
        sorted.sort_by_key(|(_, _, at)| *at);
        for (f, t, at) in sorted {
            sorted_w.record(f, t, at);
        }
        assert_eq!(shuffled.counts(), sorted_w.counts());
        assert_eq!(shuffled.as_of(), Some(399));
        assert_eq!(shuffled.recorded(), 5);
        assert_eq!(shuffled.late_dropped(), 0);
    }

    #[test]
    fn duplicate_timestamps_all_count() {
        let mut w = tiny();
        for _ in 0..5 {
            assert!(w.record(R, B, 42));
        }
        assert_eq!(w.counts(), vec![(R, B, 5)]);
        assert_eq!(w.recorded(), 5);
    }

    #[test]
    fn far_future_outlier_then_backfill_accounts_every_drop() {
        let mut w = tiny();
        assert!(w.record(R, B, 100));
        // An outlier slams the clock eight millennia forward; everything
        // already held strands, and all backfill is now late.
        assert!(w.record(B, B, 253_000_000_000));
        for t in [150, 200, 250] {
            assert!(!w.record(R, B, t), "t={t} must be late");
        }
        assert_eq!(w.late_dropped(), 3);
        assert_eq!(w.counts(), vec![(B, B, 1)], "only the outlier is in-window");
        // No silent loss: recorded + late_dropped covers every record call.
        assert_eq!(w.recorded() + w.late_dropped(), 5);
    }

    #[test]
    fn timestamp_extremes_do_not_panic() {
        let mut w = tiny();
        assert!(w.record(R, B, Timestamp::MIN));
        assert!(w.record(R, B, Timestamp::MAX));
        // After the jump to MAX, MIN-era events are late, not a crash.
        assert!(!w.record(R, B, Timestamp::MIN + 1));
        assert!(!w.record(R, B, 0));
        assert_eq!(w.late_dropped(), 2);
        assert_eq!(w.total(), 1, "only the MAX event is in-window");
    }

    #[test]
    fn hostile_clock_preserves_count_conservation() {
        // Every record call ends as exactly one of {recorded, late_dropped},
        // under a deliberately nasty schedule of jumps and backfills.
        let mut w = tiny();
        let times = [
            0, 10_000, 5, 10_050, 9_999, 10_050, 500_000, 499_700, 1, 500_399,
        ];
        for (i, t) in times.into_iter().enumerate() {
            let from = if i % 2 == 0 { R } else { B };
            w.record(from, B, t);
        }
        assert_eq!(
            w.recorded() + w.late_dropped(),
            times.len() as u64,
            "no call vanished"
        );
        assert!(w.total() <= w.recorded());
    }

    #[test]
    fn advance_matches_a_recorded_clock_movement() {
        // Two windows, same events; one learns the final clock from a
        // recorded event, the other from advance(). Same visible counts,
        // same as_of.
        let mut by_record = tiny();
        let mut by_advance = tiny();
        for w in [&mut by_record, &mut by_advance] {
            w.record(R, B, 100);
            w.record(R, B, 150);
        }
        by_record.record(B, R, 5_000);
        by_advance.advance(5_000);
        by_advance.record(B, R, 5_000);
        assert_eq!(by_record.counts(), by_advance.counts());
        assert_eq!(by_record.as_of(), by_advance.as_of());
        // Advancing backwards is a no-op.
        by_advance.advance(10);
        assert_eq!(by_advance.as_of(), Some(5_000));
    }

    /// The read before running totals, verbatim: a scan of every slot
    /// whose age at the clock's period is under one rotation.
    fn counts_by_scan(w: &TransitionWindow) -> Vec<(Category, Category, u64)> {
        let Some(clock) = w.clock else {
            return Vec::new();
        };
        let clock_period = clock.div_euclid(w.config.bucket_secs);
        let n = w.periods.len() as i64;
        let mut totals = vec![0u64; Category::COUNT * Category::COUNT];
        for (slot, counts) in w.buckets.iter().enumerate() {
            let age = clock_period.saturating_sub(w.periods[slot]);
            if !(0..n).contains(&age) {
                continue;
            }
            for (i, &c) in counts.iter().enumerate() {
                totals[i] += c;
            }
        }
        let mut out = Vec::new();
        for from in 0..Category::COUNT {
            for to in 0..Category::COUNT {
                let c = totals[from * Category::COUNT + to];
                if c > 0 {
                    out.push((Category::from_index(from), Category::from_index(to), c));
                }
            }
        }
        out
    }

    #[test]
    fn running_totals_match_the_bucket_scan_after_every_step() {
        // SplitMix64, so every seed replays the same stream.
        fn next(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        for seed in 0..300u64 {
            let mut rng = seed;
            let mut w = tiny();
            let mut t = (next(&mut rng) % 2_000) as i64 - 1_000;
            let steps = 60 + next(&mut rng) % 140;
            let restore_at = next(&mut rng) % steps;
            for step in 0..steps {
                let cat = |r: u64| Category::from_index((r % Category::COUNT as u64) as usize);
                match next(&mut rng) % 10 {
                    // A same-period burst.
                    0..=2 => {
                        for _ in 0..1 + next(&mut rng) % 4 {
                            w.record(cat(next(&mut rng)), cat(next(&mut rng)), t);
                        }
                    }
                    // A step forward inside the window.
                    3..=4 => {
                        t += (next(&mut rng) % 150) as i64;
                        w.record(cat(next(&mut rng)), cat(next(&mut rng)), t);
                    }
                    // A late or in-window event behind the clock.
                    5..=6 => {
                        let back = (next(&mut rng) % 700) as i64;
                        w.record(cat(next(&mut rng)), cat(next(&mut rng)), t - back);
                    }
                    // A pure clock advance.
                    7 => {
                        t += (next(&mut rng) % 250) as i64;
                        w.advance(t);
                    }
                    // A jump past the whole window, recorded or advanced.
                    8 => {
                        t += 400 + (next(&mut rng) % 5_000) as i64;
                        w.record(cat(next(&mut rng)), cat(next(&mut rng)), t);
                    }
                    _ => {
                        t += 400 + (next(&mut rng) % 5_000) as i64;
                        w.advance(t);
                    }
                }
                if step == restore_at {
                    let (buckets, periods, clock, late, recorded) = w.parts();
                    w = TransitionWindow::from_parts(
                        w.config,
                        buckets.to_vec(),
                        periods.to_vec(),
                        clock,
                        late,
                        recorded,
                    )
                    .expect("round trip");
                }
                let scan = counts_by_scan(&w);
                assert_eq!(w.counts(), scan, "seed {seed} step {step}");
                assert_eq!(w.total(), scan.iter().map(|(_, _, c)| c).sum::<u64>());
            }
        }
        // Restored state the ring never produces itself: slot 0 holds the
        // in-window period 2, and slot 1 a period ahead of the clock.
        let cells = Category::COUNT * Category::COUNT;
        let mut buckets = vec![vec![0; cells]; 4];
        buckets[0][1] = 3;
        buckets[1][2] = 5;
        let periods = vec![2, 6, Timestamp::MIN, Timestamp::MIN];
        let mut w = TransitionWindow::from_parts(tiny().config, buckets, periods, Some(350), 0, 8)
            .expect("shape is valid");
        assert_eq!(w.counts(), counts_by_scan(&w));
        w.record(R, B, 420); // period 4 reclaims slot 0 while period 2 is in-window
        assert_eq!(w.counts(), counts_by_scan(&w));
        w.advance(650); // period 6 comes into range
        assert_eq!(w.counts(), counts_by_scan(&w));
        assert_eq!(w.total(), 6);
    }

    #[test]
    fn negative_times_work() {
        let mut w = tiny();
        assert!(w.record(R, B, -350));
        assert!(w.record(R, B, -10));
        assert_eq!(w.total(), 2);
        assert!(w.record(R, B, 100)); // pushes -350 out
        assert_eq!(w.total(), 2);
    }
}
