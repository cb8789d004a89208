//! Supervision primitives for long-running background work: capped
//! exponential backoff with deterministic jitter, and a consecutive-failure
//! circuit breaker.
//!
//! Both types are **time-free state machines**: they never read a clock or a
//! global RNG. [`Backoff`] computes the *duration* the caller should wait
//! (the caller sleeps); [`CircuitBreaker`] tracks consecutive failures and
//! tells the caller when to stop trying for a cooldown period (the caller
//! owns the cooldown timer and reports its expiry). That keeps supervisors
//! built on them fully deterministic under test: feed the same sequence of
//! `record_failure` / `record_success` / `cooldown_elapsed` events and the
//! same delays and transitions come back, every run.
//!
//! Jitter is seeded (a SplitMix64 step per draw) so retry storms decorrelate
//! in production while tests can still assert exact delays.

use std::time::Duration;

/// Capped exponential backoff: `base * 2^n` clamped to `max`, plus a
/// deterministic jitter of up to 25% of the pre-jitter delay.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    max: Duration,
    attempt: u32,
    rng: u64,
}

impl Backoff {
    /// A fresh backoff. `base` is the first delay, `max` caps the
    /// exponential growth (jitter may exceed `max` by at most 25%), and
    /// `seed` drives the jitter stream.
    pub fn new(base: Duration, max: Duration, seed: u64) -> Backoff {
        Backoff {
            base,
            max,
            attempt: 0,
            // Avoid the SplitMix64 all-zero fixed point producing a first
            // draw of 0 for every zero-seeded supervisor.
            rng: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Consecutive failures recorded since the last [`Backoff::reset`].
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// The delay the *next* failure would produce, without jitter and
    /// without consuming an attempt — what a status endpoint reports.
    pub fn peek(&self) -> Duration {
        self.delay_for(self.attempt)
    }

    /// Records a failure and returns how long to wait before retrying.
    pub fn next_delay(&mut self) -> Duration {
        let flat = self.delay_for(self.attempt);
        self.attempt = self.attempt.saturating_add(1);
        // SplitMix64: one multiply-shift scramble per draw.
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        // Up to 25% of the flat delay, in nanosecond resolution.
        let span = (flat.as_nanos() / 4).min(u64::MAX as u128) as u64;
        let jitter = if span == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos(z % span)
        };
        flat + jitter
    }

    /// Clears the failure streak; the next delay starts from `base` again.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    fn delay_for(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt.min(31)).unwrap_or(u32::MAX);
        self.base.saturating_mul(factor).min(self.max)
    }
}

/// Where a circuit currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitState {
    /// Normal operation: work is attempted.
    Closed,
    /// Too many consecutive failures: hold all work until the caller's
    /// cooldown timer fires.
    Open,
    /// Cooldown elapsed: exactly one probe attempt is allowed; its outcome
    /// decides between `Closed` and `Open`.
    HalfOpen,
}

/// A consecutive-failure circuit breaker. The caller reports outcomes and
/// cooldown expiry; its [`state`](CircuitBreaker::state) answers "should
/// work be attempted?" (anything but `Open`).
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    threshold: u32,
    consecutive: u32,
    state: CircuitState,
    opens: u64,
}

impl CircuitBreaker {
    /// Opens after `threshold` consecutive failures (`threshold == 0` is
    /// clamped to 1: a breaker that can never close again is useless).
    pub fn new(threshold: u32) -> CircuitBreaker {
        CircuitBreaker {
            threshold: threshold.max(1),
            consecutive: 0,
            state: CircuitState::Closed,
            opens: 0,
        }
    }

    /// The current state.
    pub fn state(&self) -> CircuitState {
        self.state
    }

    /// Consecutive failures since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive
    }

    /// How many times the circuit has opened over its lifetime.
    pub fn opens(&self) -> u64 {
        self.opens
    }

    /// Records a successful attempt: the streak clears and the circuit
    /// closes (including from `HalfOpen` — the probe succeeded).
    pub fn record_success(&mut self) {
        self.consecutive = 0;
        self.state = CircuitState::Closed;
    }

    /// Records a failed attempt and returns the resulting state. A failure
    /// in `HalfOpen` re-opens immediately; in `Closed`, the circuit opens
    /// once the streak reaches the threshold.
    pub fn record_failure(&mut self) -> CircuitState {
        self.consecutive = self.consecutive.saturating_add(1);
        let should_open = match self.state {
            CircuitState::HalfOpen => true,
            CircuitState::Closed => self.consecutive >= self.threshold,
            CircuitState::Open => false,
        };
        if should_open {
            self.state = CircuitState::Open;
            self.opens += 1;
        }
        self.state
    }

    /// The caller's cooldown timer fired: an `Open` circuit becomes
    /// `HalfOpen` (one probe allowed). No-op in other states.
    pub fn cooldown_elapsed(&mut self) {
        if self.state == CircuitState::Open {
            self.state = CircuitState::HalfOpen;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let mut b = Backoff::new(Duration::from_millis(100), Duration::from_secs(2), 7);
        let mut flats = Vec::new();
        for _ in 0..8 {
            flats.push(b.peek());
            b.next_delay();
        }
        assert_eq!(flats[0], Duration::from_millis(100));
        assert_eq!(flats[1], Duration::from_millis(200));
        assert_eq!(flats[2], Duration::from_millis(400));
        assert_eq!(flats[5], Duration::from_secs(2)); // capped
        assert_eq!(flats[7], Duration::from_secs(2)); // stays capped
    }

    #[test]
    fn backoff_jitter_is_bounded_and_deterministic() {
        let run = |seed| {
            let mut b = Backoff::new(Duration::from_millis(100), Duration::from_secs(1), seed);
            (0..6).map(|_| b.next_delay()).collect::<Vec<_>>()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed, same delays");
        let c = run(43);
        assert_ne!(a, c, "different seeds decorrelate");
        for (i, d) in a.iter().enumerate() {
            let flat = Duration::from_millis(100)
                .saturating_mul(1 << i.min(10))
                .min(Duration::from_secs(1));
            assert!(*d >= flat, "jitter only adds: {d:?} < {flat:?}");
            assert!(
                *d <= flat + flat / 4,
                "jitter bounded by 25%: {d:?} > {:?}",
                flat + flat / 4
            );
        }
    }

    #[test]
    fn backoff_reset_restarts_from_base() {
        let mut b = Backoff::new(Duration::from_millis(50), Duration::from_secs(10), 0);
        b.next_delay();
        b.next_delay();
        assert_eq!(b.attempt(), 2);
        b.reset();
        assert_eq!(b.attempt(), 0);
        assert_eq!(b.peek(), Duration::from_millis(50));
    }

    #[test]
    fn backoff_extreme_attempts_do_not_overflow() {
        let mut b = Backoff::new(Duration::from_secs(1), Duration::from_secs(30), 1);
        for _ in 0..100 {
            let d = b.next_delay();
            assert!(d <= Duration::from_secs(30) + Duration::from_secs(8));
        }
        assert_eq!(b.peek(), Duration::from_secs(30));
    }

    #[test]
    fn breaker_opens_at_threshold_only() {
        let mut cb = CircuitBreaker::new(3);
        assert_eq!(cb.record_failure(), CircuitState::Closed);
        assert_eq!(cb.record_failure(), CircuitState::Closed);
        assert_eq!(cb.state(), CircuitState::Closed);
        assert_eq!(cb.record_failure(), CircuitState::Open);
        assert_eq!(cb.state(), CircuitState::Open);
        assert_eq!(cb.opens(), 1);
        assert_eq!(cb.consecutive_failures(), 3);
    }

    #[test]
    fn breaker_half_open_probe_decides() {
        let mut cb = CircuitBreaker::new(1);
        cb.record_failure();
        assert_eq!(cb.state(), CircuitState::Open);
        cb.cooldown_elapsed();
        assert_eq!(cb.state(), CircuitState::HalfOpen);
        // Failed probe: straight back to Open, a second open counted.
        assert_eq!(cb.record_failure(), CircuitState::Open);
        assert_eq!(cb.opens(), 2);
        cb.cooldown_elapsed();
        cb.record_success();
        assert_eq!(cb.state(), CircuitState::Closed);
        assert_eq!(cb.consecutive_failures(), 0);
    }

    #[test]
    fn breaker_success_clears_partial_streak() {
        let mut cb = CircuitBreaker::new(3);
        cb.record_failure();
        cb.record_failure();
        cb.record_success();
        assert_eq!(cb.consecutive_failures(), 0);
        cb.record_failure();
        cb.record_failure();
        assert_eq!(cb.state(), CircuitState::Closed, "streak restarted");
    }

    #[test]
    fn breaker_cooldown_in_closed_is_a_noop() {
        let mut cb = CircuitBreaker::new(2);
        cb.cooldown_elapsed();
        assert_eq!(cb.state(), CircuitState::Closed);
        let mut open_counted = CircuitBreaker::new(1);
        open_counted.record_failure();
        open_counted.record_failure(); // failure while already open
        assert_eq!(
            open_counted.opens(),
            1,
            "re-failing while open re-counts nothing"
        );
    }

    #[test]
    fn zero_threshold_is_clamped() {
        let mut cb = CircuitBreaker::new(0);
        assert_eq!(cb.record_failure(), CircuitState::Open);
    }
}
