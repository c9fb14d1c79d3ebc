//! The ad hoc transaction toolkit — the paper's findings turned into a
//! library.
//!
//! The paper's closing discussion (§6) argues that "new abstractions and
//! tools are needed" because developers keep hand-rolling coordination in
//! application code. This crate is that toolkit, built from the paper's own
//! catalog:
//!
//! * [`taxonomy`] — the study's classification vocabulary (pessimistic vs
//!   optimistic, lock/validation implementations, coordination
//!   granularities, failure-handling strategies, issue categories), shared
//!   with the `adhoc-study` corpus.
//! * [`locks`] — all **seven** lock implementations found in the wild
//!   (§3.2.1, Figure 2): `SYNC`, `MEM`, `MEM-LRU`, `KV-SETNX`, `KV-MULTI`,
//!   `SFU`, and `DB`, behind one [`locks::AdHocLock`] trait. Every bug the
//!   paper found in these primitives (§4.1.1) is available as an explicit
//!   fault-injection switch, off by default. The in-process ones (`SYNC`,
//!   `MEM`, `MEM-LRU`) and the deadlock-detecting watchdog lock (`WD`)
//!   share one keyed lock table and its one wait loop; they differ only
//!   in eviction, fencing, leak and cycle-check behaviour.
//! * [`validation`] — the two validation-procedure implementations
//!   (§3.2.2): ORM-assisted (atomic) and hand-crafted (atomic or, as found
//!   in Discourse/SCM Suite, non-atomic).
//! * [`checker`] — the periodic consistency checker ("fsck for the
//!   database") the paper observed applications running (§3.4.2).
//! * [`monitor`] — a runtime hazard detector (the §6 "development support
//!   tools"): flags lock-after-read RMWs, expired-lease releases and
//!   mixed-coordination tables as they happen.
//!
//! The §6 *cures* live one layer down, once each: the OCC primitive and
//! its continuations in `adhoc_orm::occ`, the coordination-hints proxy in
//! `adhoc_orm::coord`, the retry policy and the admission/breaker
//! primitives in `adhoc_sim`.

#![warn(missing_docs)]

pub mod checker;
pub mod error;
pub mod locks;
pub mod monitor;
pub mod taxonomy;
pub mod validation;

pub use error::ToolkitError;
pub use locks::{AdHocLock, Guard, LockError};

/// Result alias for toolkit operations.
pub type Result<T> = std::result::Result<T, ToolkitError>;
pub use taxonomy::*;
