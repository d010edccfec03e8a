//! The poison-recovering lock accessor.
//!
//! A `Mutex` poisons itself when a thread panics while holding it, and every
//! later `.lock().unwrap()` then propagates that panic to an innocent thread
//! — one injected fault would take the whole server down lock by lock. Every
//! guard in this crate is taken through [`lock_recover`] instead: the data
//! under the server's locks is counters, queues of requests and the model
//! registry, all of which are written atomically enough that a panic
//! mid-critical-section leaves them structurally valid (at worst a counter
//! increment is lost), so recovering the guard is always safe.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering the guard if a panicking thread poisoned it.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn poisoned_mutex_recovers_with_its_data_intact() {
        let m = Arc::new(Mutex::new(41));
        let poisoner = {
            let m = m.clone();
            std::thread::spawn(move || {
                let mut guard = m.lock().unwrap();
                *guard = 42;
                panic!("poison the lock mid-update");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(m.is_poisoned(), "the panic must actually poison the lock");
        // A bare unwrap would propagate the panic; the recovering accessor
        // hands back the guard and the last committed data.
        assert_eq!(*lock_recover(&m), 42);
        *lock_recover(&m) += 1;
        assert_eq!(*lock_recover(&m), 43);
    }
}
