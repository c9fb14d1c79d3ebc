//! Admission-control front doors for the eight modeled applications.
//!
//! One [`FrontDoor`] per studied application, so overload in one app's
//! request stream sheds *that app's* traffic without starving the other
//! seven, and a partitioned backend can degrade a single app to
//! read-only while the rest keep writing. This is the admission layer
//! the metastability oracle (`tests/resilience_oracle.rs`) drives a
//! fault storm through: bounded in-flight work per app means the storm's
//! backlog cannot outlive the storm.

use adhoc_sim::{FrontDoor, Permit, Rejected, Workload};
use std::sync::Arc;

/// The eight applications of Table 2, in registry order.
pub const APPS: [&str; 8] = [
    "broadleaf",
    "discourse",
    "jumpserver",
    "mastodon",
    "redmine",
    "saleor",
    "scm-suite",
    "spree",
];

/// Per-application admission control: one bounded front door per studied
/// app, plus fleet-wide aggregates.
#[derive(Debug)]
pub struct Admission {
    doors: Vec<Arc<FrontDoor>>,
}

impl Admission {
    /// One door per app, each admitting at most `capacity` concurrent
    /// requests.
    pub fn new(capacity: usize) -> Self {
        Self {
            doors: APPS
                .iter()
                .map(|app| FrontDoor::new(app, capacity))
                .collect(),
        }
    }

    /// The door for `app` (panics on an unregistered name — the set of
    /// studied applications is closed).
    pub fn door(&self, app: &str) -> &Arc<FrontDoor> {
        self.doors
            .iter()
            .find(|d| d.app() == app)
            .unwrap_or_else(|| panic!("unknown app {app:?}"))
    }

    /// Admit one request for `app`; see [`FrontDoor::admit`].
    pub fn admit(&self, app: &str, workload: Workload) -> Result<Permit, Rejected> {
        self.door(app).admit(workload)
    }

    /// Flip every app's read-only degraded mode at once (a fleet-wide
    /// brown-out; individual apps flip via [`Admission::door`]).
    pub fn degrade_writes(&self, degraded: bool) {
        for door in &self.doors {
            door.set_read_only(degraded);
        }
    }

    /// Requests shed across all doors.
    pub fn total_shed(&self) -> u64 {
        self.doors.iter().map(|d| d.stats().shed).sum()
    }

    /// Requests admitted across all doors.
    pub fn total_admitted(&self) -> u64 {
        self.doors.iter().map(|d| d.stats().admitted).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jumpserver::JumpServer;
    use crate::Mode;
    use adhoc_storage::{Database, EngineProfile};

    #[test]
    fn every_studied_app_has_a_door() {
        let admission = Admission::new(4);
        for app in APPS {
            assert_eq!(admission.door(app).app(), app);
        }
    }

    #[test]
    fn overload_in_one_app_does_not_starve_another() {
        let admission = Admission::new(1);
        let _spree = admission.admit("spree", Workload::Write).unwrap();
        // Spree is saturated; Mastodon is untouched.
        assert_eq!(
            admission.admit("spree", Workload::Write).unwrap_err(),
            Rejected::Shed
        );
        admission.admit("mastodon", Workload::Write).unwrap();
        assert_eq!(admission.total_shed(), 1);
        assert_eq!(admission.total_admitted(), 2);
    }

    #[test]
    fn per_app_degraded_mode_is_independent() {
        let admission = Admission::new(4);
        admission.door("broadleaf").set_read_only(true);
        assert_eq!(
            admission.admit("broadleaf", Workload::Write).unwrap_err(),
            Rejected::ReadOnly
        );
        admission.admit("broadleaf", Workload::Read).unwrap();
        admission.admit("discourse", Workload::Write).unwrap();
        admission.door("broadleaf").set_read_only(false);
        admission.admit("broadleaf", Workload::Write).unwrap();
    }

    #[test]
    fn admitted_requests_drive_a_real_app_call() {
        let db = Database::in_memory(EngineProfile::PostgresLike);
        let orm = crate::jumpserver::setup(&db).unwrap();
        let lock = std::sync::Arc::new(adhoc_core::locks::MemLock::new());
        let js = JumpServer::new(orm, lock, Mode::DatabaseTxn);
        let admission = Admission::new(2);
        let permit = admission.admit("jumpserver", Workload::Write).unwrap();
        js.grant(1, 1, 3).unwrap();
        drop(permit);
        assert_eq!(admission.door("jumpserver").stats().in_flight, 0);
    }
}
