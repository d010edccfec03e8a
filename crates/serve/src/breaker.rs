//! Per-model circuit breaker.
//!
//! When a model fails `threshold` batch executions in a row — a replay that
//! keeps failing or panicking — continuing to admit its
//! requests just burns queue slots and worker time on work that will fail
//! anyway, and starves healthy models behind it. The breaker cuts that off:
//! after the threshold trips it **opens** and requests for the model
//! fast-fail as [`Unavailable`](crate::ServeError::Unavailable) at submit,
//! without ever touching the queue. Once `cooldown` has elapsed, the next
//! submit is admitted as a **half-open probe**; if it completes, the breaker
//! closes and traffic resumes, and if it fails the breaker re-opens for
//! another cooldown.
//!
//! A `threshold` of 0 disables the breaker entirely.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::sync::lock_recover;

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
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: Duration,
    state: Mutex<State>,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `threshold` consecutive failures and
    /// probing again `cooldown` after opening. `threshold == 0` disables it.
    pub fn new(threshold: u32, cooldown: Duration) -> Self {
        CircuitBreaker {
            threshold,
            cooldown,
            state: Mutex::new(State::Closed { consecutive: 0 }),
        }
    }

    /// Whether a request arriving at `now` may enter the queue. Transitions
    /// `Open → HalfOpen` (admitting exactly one probe) once the cooldown has
    /// elapsed.
    pub fn admit(&self, now: Instant) -> bool {
        if self.threshold == 0 {
            return true;
        }
        let mut state = lock_recover(&self.state);
        match *state {
            State::Closed { .. } => true,
            State::HalfOpen { since } | State::Open { since } => {
                if now.duration_since(since) >= self.cooldown {
                    *state = State::HalfOpen { since: now };
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successful execution: closes the breaker and resets the
    /// consecutive-failure count.
    pub fn record_success(&self) {
        if self.threshold == 0 {
            return;
        }
        *lock_recover(&self.state) = State::Closed { consecutive: 0 };
    }

    /// Records a failed execution at `now`; returns `true` when this failure
    /// transitions the breaker to open (so the caller can count distinct
    /// opens rather than every failure while open).
    pub fn record_failure(&self, now: Instant) -> bool {
        if self.threshold == 0 {
            return false;
        }
        let mut state = lock_recover(&self.state);
        match *state {
            State::Closed { consecutive } => {
                let consecutive = consecutive + 1;
                if consecutive >= self.threshold {
                    *state = State::Open { since: now };
                    true
                } else {
                    *state = State::Closed { consecutive };
                    false
                }
            }
            // The half-open probe failed: back to a full cooldown.
            State::HalfOpen { .. } => {
                *state = State::Open { since: now };
                true
            }
            State::Open { .. } => false,
        }
    }

    /// Whether the breaker is currently rejecting traffic (open and still
    /// cooling down, or waiting on a half-open probe). Diagnostic only; use
    /// [`CircuitBreaker::admit`] on the submit path.
    pub fn is_open(&self) -> bool {
        matches!(
            *lock_recover(&self.state),
            State::Open { .. } | State::HalfOpen { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COOLDOWN: Duration = Duration::from_millis(50);

    #[test]
    fn opens_after_threshold_consecutive_failures_only() {
        let b = CircuitBreaker::new(3, COOLDOWN);
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
        let b = CircuitBreaker::new(1, COOLDOWN);
        let t = Instant::now();
        assert!(b.record_failure(t));
        assert!(!b.admit(t), "open while cooling down");
        let after = t + COOLDOWN;
        assert!(b.admit(after), "cooldown elapsed: one probe admitted");
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
        let b = CircuitBreaker::new(1, COOLDOWN);
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
        let b = CircuitBreaker::new(0, COOLDOWN);
        let t = Instant::now();
        for _ in 0..100 {
            assert!(!b.record_failure(t));
        }
        assert!(b.admit(t));
        assert!(!b.is_open());
    }
}
