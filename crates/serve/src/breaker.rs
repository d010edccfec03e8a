//! Per-model circuit breaker.
//!
//! When a model fails `threshold` batch executions in a row — a replay that
//! keeps failing or panicking — admitting its requests just burns queue
//! slots and worker time, and starves healthy models behind it. The breaker
//! cuts that off: after the threshold trips it **opens** and the model's
//! requests fast-fail as [`Unavailable`](crate::ServeError::Unavailable) at
//! submit. Once `cooldown` has elapsed, the next request admitted is the
//! **half-open probe**; if it completes, the breaker closes, and if it fails
//! the breaker re-opens for another cooldown. A `threshold` of 0 disables it.
//!
//! A breaker is plain data in the scheduler's queue state, and every
//! transition is a method on a given `now`: it reads no clock and takes no
//! lock.

use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Healthy; counts consecutive failures toward the threshold.
    Closed { consecutive: u32 },
    /// Tripped; rejects until `cooldown` has elapsed since `since`.
    Open { since: Instant },
    /// One probe admitted at `since` is in flight; its outcome decides open
    /// vs. closed. If the probe never reports back (cancelled or expired in
    /// the queue), another probe is admitted one cooldown later — a lost
    /// probe must not wedge the breaker open forever.
    HalfOpen { since: Instant },
}

/// Consecutive-failure circuit breaker; one per registered model.
#[derive(Debug)]
pub(crate) struct CircuitBreaker {
    threshold: u32,
    cooldown: Duration,
    state: State,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `threshold` consecutive failures and
    /// probing again `cooldown` after opening. `threshold == 0` disables it.
    pub(crate) fn new(threshold: u32, cooldown: Duration) -> Self {
        CircuitBreaker {
            threshold,
            cooldown,
            state: State::Closed { consecutive: 0 },
        }
    }

    /// Whether a request arriving at `now` may pass the breaker, without
    /// changing its state: closed, or open (or probing) for at least one
    /// cooldown.
    pub(crate) fn admits(&self, now: Instant) -> bool {
        match self.state {
            _ if self.threshold == 0 => true,
            State::Closed { .. } => true,
            State::HalfOpen { since } | State::Open { since } => {
                now.duration_since(since) >= self.cooldown
            }
        }
    }

    /// [`CircuitBreaker::admits`], committed: past a cooldown, the request
    /// becomes the half-open probe (`Open → HalfOpen`), so one probe is
    /// admitted per cooldown. Call it only for a request that is enqueued.
    pub(crate) fn admit(&mut self, now: Instant) -> bool {
        let admits = self.admits(now);
        if admits && !matches!(self.state, State::Closed { .. }) {
            self.state = State::HalfOpen { since: now };
        }
        admits
    }

    /// Records a successful execution: closes the breaker and resets the
    /// consecutive-failure count.
    pub(crate) fn record_success(&mut self) {
        self.state = State::Closed { consecutive: 0 };
    }

    /// Records a failed execution at `now`; returns `true` when this failure
    /// transitions the breaker to open (so the caller can count distinct
    /// opens rather than every failure while open).
    pub(crate) fn record_failure(&mut self, now: Instant) -> bool {
        if self.threshold == 0 {
            return false;
        }
        self.state = match self.state {
            State::Closed { consecutive } if consecutive + 1 < self.threshold => {
                let consecutive = consecutive + 1;
                State::Closed { consecutive }
            }
            // The threshold trips, or the half-open probe failed: a full
            // cooldown.
            State::Closed { .. } | State::HalfOpen { .. } => State::Open { since: now },
            State::Open { .. } => return false,
        };
        matches!(self.state, State::Open { .. })
    }

    /// Whether the breaker is open or probing. Diagnostic only; admission
    /// asks [`CircuitBreaker::admits`] at its own `now`.
    pub(crate) fn is_open(&self) -> bool {
        matches!(self.state, State::Open { .. } | State::HalfOpen { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COOLDOWN: Duration = Duration::from_millis(50);

    #[test]
    fn opens_after_threshold_consecutive_failures_only() {
        let mut b = CircuitBreaker::new(3, COOLDOWN);
        let t = Instant::now();
        assert!(!b.record_failure(t));
        assert!(!b.record_failure(t));
        b.record_success(); // streak broken
        assert!(!b.record_failure(t));
        assert!(!b.record_failure(t));
        assert!(b.admit(t), "still closed below threshold");
        assert!(b.record_failure(t), "third consecutive failure opens");
        assert!(!b.admit(t));
        assert!(b.is_open());
    }

    #[test]
    fn half_open_probe_admits_one_and_its_outcome_decides() {
        let mut b = CircuitBreaker::new(1, COOLDOWN);
        let t = Instant::now();
        assert!(b.record_failure(t));
        assert!(!b.admit(t), "open while cooling down");
        let after = t + COOLDOWN;
        // Asking commits nothing: a request refused later in admission
        // must not use up the probe.
        assert!(b.admits(after) && b.admits(after));
        assert!(b.admit(after), "cooldown elapsed: one probe admitted");
        assert!(!b.admits(after));
        assert!(!b.admit(after), "second request during probe is rejected");
        // Probe fails: re-open, full cooldown again.
        assert!(b.record_failure(after));
        assert!(!b.admit(after + COOLDOWN / 2));
        // Next probe succeeds: closed, traffic flows.
        assert!(b.admit(after + COOLDOWN * 2));
        b.record_success();
        assert!(b.admit(after + COOLDOWN * 2));
        assert!(!b.is_open());
    }

    #[test]
    fn a_lost_probe_rearms_after_another_cooldown() {
        let mut b = CircuitBreaker::new(1, COOLDOWN);
        let t = Instant::now();
        assert!(b.record_failure(t));
        assert!(b.admit(t + COOLDOWN), "probe admitted");
        // The probe vanishes (cancelled in the queue): no success, no
        // failure. The breaker must not stay wedged half-open forever.
        assert!(!b.admit(t + COOLDOWN + COOLDOWN / 2));
        assert!(b.admit(t + COOLDOWN * 2), "a fresh probe re-arms");
    }

    #[test]
    fn zero_threshold_disables_the_breaker() {
        let mut b = CircuitBreaker::new(0, COOLDOWN);
        let t = Instant::now();
        for _ in 0..100 {
            assert!(!b.record_failure(t));
        }
        assert!(b.admit(t));
        assert!(!b.is_open());
    }
}
