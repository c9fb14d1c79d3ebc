//! `SYNC`: language-runtime monitors (Java `synchronized`), as used by SCM
//! Suite and Broadleaf (§3.2.1).
//!
//! The correct form keys monitors in a process-wide map, so every thread
//! synchronizing on the same key shares one monitor. The SCM Suite bug
//! (§4.1.1, issue \[91\] in the paper) synchronized on *thread-local*
//! ORM-mapped objects: each thread locks its own object and "conflicting
//! threads acquire different locks and can never block each other". The
//! [`SyncLock::synchronize_on_thread_local`] switch reproduces that.
//!
//! The monitors live in the shared [`LockTable`](super::mem): one table
//! per process, or one per thread under the fault switch.

use super::mem::{Flavor, LockTable};
use super::{AdHocLock, Guard, LockError};
use std::collections::HashMap;
use std::sync::Arc;

/// The `synchronized`-keyword lock.
#[derive(Clone, Default)]
pub struct SyncLock {
    shared: Arc<LockTable>,
    /// Fault injection: monitor per thread instead of per process —
    /// the SCM Suite bug.
    broken_thread_local: bool,
}

thread_local! {
    static THREAD_MONITORS: std::cell::RefCell<HashMap<usize, Arc<LockTable>>> =
        std::cell::RefCell::new(HashMap::new());
}

impl SyncLock {
    /// A correct process-wide monitor table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable the SCM Suite fault: each thread synchronizes on its own
    /// (thread-local) object, so the "lock" excludes nothing.
    pub fn synchronize_on_thread_local(mut self) -> Self {
        self.broken_thread_local = true;
        self
    }

    fn table(&self) -> Arc<LockTable> {
        if !self.broken_thread_local {
            return Arc::clone(&self.shared);
        }
        // Identify this SyncLock instance by its shared-table address so
        // distinct locks get distinct thread-local monitors.
        let instance = Arc::as_ptr(&self.shared) as usize;
        THREAD_MONITORS.with(|m| Arc::clone(m.borrow_mut().entry(instance).or_default()))
    }
}

impl AdHocLock for SyncLock {
    fn lock(&self, key: &str) -> Result<Guard, LockError> {
        self.table().lock(key, None, None, Flavor::Sync)
    }

    fn label(&self) -> &'static str {
        "SYNC"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locks::mutual_exclusion_trial;

    #[test]
    fn correct_sync_provides_mutual_exclusion() {
        let lock = SyncLock::new();
        assert_eq!(mutual_exclusion_trial(&lock, "k", 8, 200), 8 * 200);
    }

    #[test]
    fn different_keys_do_not_contend() {
        let lock = SyncLock::new();
        let g1 = lock.lock("a").unwrap();
        let g2 = lock.lock("b").unwrap();
        g1.unlock().unwrap();
        g2.unlock().unwrap();
    }

    #[test]
    fn scm_suite_thread_local_bug_breaks_mutual_exclusion() {
        // §4.1.1 [91]: synchronizing over thread-local objects means
        // conflicting threads never block each other — the counter comes up
        // short under contention.
        let lock = SyncLock::new().synchronize_on_thread_local();
        let total = mutual_exclusion_trial(&lock, "k", 8, 500);
        assert!(
            total < 8 * 500,
            "thread-local monitors must lose increments (got {total})"
        );
    }

    #[test]
    fn unlock_is_idempotent_via_drop() {
        let lock = SyncLock::new();
        {
            let g = lock.lock("k").unwrap();
            g.unlock().unwrap();
        } // drop after explicit unlock: no panic, no double-release effect
        let g = lock.lock("k").unwrap();
        drop(g); // drop releases
        lock.lock("k").unwrap().unlock().unwrap();
    }

    #[test]
    fn guard_validity_tracks_release() {
        let lock = SyncLock::new();
        let g = lock.lock("k").unwrap();
        assert!(g.is_valid());
        g.unlock().unwrap();
    }
}
