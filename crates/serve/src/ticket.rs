//! Request completion handles: a [`Ticket`] is a blocking handle
//! ([`Ticket::wait`]), resolved by an executor worker through the shared
//! promise cell. The workspace has no async runtime, so there is no second,
//! future-style way to wait.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::error::ServeError;
use crate::server::Response;
use crate::sync::lock_recover;

/// The write-once cell a request's outcome lands in, shared between the
/// scheduler (producer) and the ticket holder (consumer).
pub(crate) struct Promise {
    slot: Mutex<Slot>,
    ready: Condvar,
    /// Set by [`Ticket::cancel`] (or the ticket's `Drop`). The worker
    /// forming a batch checks it and resolves flagged requests as
    /// [`ServeError::Cancelled`] without running them.
    cancelled: AtomicBool,
}

struct Slot {
    result: Option<Result<Response, ServeError>>,
    /// The consumer already took the result (`wait` returned) — the ticket's
    /// `Drop` must not treat this as abandonment.
    consumed: bool,
}

impl Promise {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Promise {
            slot: Mutex::new(Slot {
                result: None,
                consumed: false,
            }),
            ready: Condvar::new(),
            cancelled: AtomicBool::new(false),
        })
    }

    /// Writes the outcome (first write wins) and wakes the waiter.
    pub(crate) fn fulfill(&self, result: Result<Response, ServeError>) {
        {
            let mut slot = lock_recover(&self.slot);
            if slot.result.is_none() && !slot.consumed {
                slot.result = Some(result);
            }
        }
        self.ready.notify_all();
    }

    /// Flags the request for removal before execution. Best-effort: a
    /// request an executor already picked up still completes normally.
    pub(crate) fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Whether the holder asked for this request to be dropped.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Whether the outcome has already been written (resolved) or taken.
    fn is_settled(&self) -> bool {
        let slot = lock_recover(&self.slot);
        slot.result.is_some() || slot.consumed
    }
}

/// A handle to one in-flight inference request.
///
/// Resolve it with [`Ticket::wait`]. Abandoning the handle cancels the
/// request: dropping an unresolved `Ticket` (or calling [`Ticket::cancel`])
/// flags it, and the scheduler drops it before execution with
/// [`ServeError::Cancelled`].
pub struct Ticket {
    promise: Arc<Promise>,
    id: u64,
}

impl Ticket {
    pub(crate) fn new(promise: Arc<Promise>, id: u64) -> Self {
        Ticket { promise, id }
    }

    /// The server-assigned request id (unique per server, admission order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Asks the server to drop this request before execution; it resolves
    /// as [`ServeError::Cancelled`] once the scheduler prunes it. Best
    /// effort: a request an executor already started (or finished) still
    /// resolves with its real outcome.
    pub fn cancel(&self) {
        self.promise.cancel();
    }

    /// Blocks the calling thread until the scheduler resolves the request.
    pub fn wait(self) -> Result<Response, ServeError> {
        let mut slot = lock_recover(&self.promise.slot);
        loop {
            if let Some(result) = slot.result.take() {
                slot.consumed = true;
                return result;
            }
            slot = self
                .promise
                .ready
                .wait(slot)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

impl Drop for Ticket {
    /// Dropping an unresolved ticket abandons the request — nobody can ever
    /// observe its response, so cancel it and let the scheduler skip the
    /// work.
    fn drop(&mut self) {
        if !self.promise.is_settled() {
            self.promise.cancel();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn wait_blocks_until_fulfilled() {
        let promise = Promise::new();
        let ticket = Ticket::new(promise.clone(), 1);
        let producer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            promise.fulfill(Err(ServeError::Timeout));
        });
        assert_eq!(ticket.wait(), Err(ServeError::Timeout));
        producer.join().unwrap();
    }

    #[test]
    fn first_fulfill_wins() {
        let promise = Promise::new();
        let ticket = Ticket::new(promise.clone(), 3);
        promise.fulfill(Err(ServeError::Timeout));
        promise.fulfill(Err(ServeError::Shutdown));
        assert_eq!(ticket.wait(), Err(ServeError::Timeout));
    }

    #[test]
    fn cancel_flags_the_promise_and_resolves_as_cancelled() {
        let promise = Promise::new();
        let ticket = Ticket::new(promise.clone(), 4);
        assert!(!promise.is_cancelled());
        ticket.cancel();
        assert!(promise.is_cancelled());
        // The scheduler prunes flagged requests by fulfilling them.
        promise.fulfill(Err(ServeError::Cancelled));
        assert_eq!(ticket.wait(), Err(ServeError::Cancelled));
    }

    #[test]
    fn dropping_an_unresolved_ticket_cancels_it() {
        let promise = Promise::new();
        let ticket = Ticket::new(promise.clone(), 5);
        drop(ticket);
        assert!(promise.is_cancelled());
    }

    #[test]
    fn dropping_a_consumed_ticket_does_not_cancel() {
        let promise = Promise::new();
        let ticket = Ticket::new(promise.clone(), 6);
        promise.fulfill(Err(ServeError::Timeout));
        assert_eq!(ticket.wait(), Err(ServeError::Timeout));
        assert!(
            !promise.is_cancelled(),
            "a settled request is not abandoned"
        );
        // A resolved-but-unclaimed ticket is not abandonment either.
        let promise2 = Promise::new();
        let ticket2 = Ticket::new(promise2.clone(), 7);
        promise2.fulfill(Err(ServeError::Shutdown));
        drop(ticket2);
        assert!(!promise2.is_cancelled());
    }
}
