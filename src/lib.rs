//! Umbrella crate re-exporting the whole ad-hoc-transactions workspace.
//!
//! This crate exists so that the repository-level examples and integration
//! tests can use every subsystem through one dependency. Library users
//! should normally depend on the individual crates instead:
//!
//! * [`adhoc_sim`] — clocks, latency model, seeded RNG, statistics helpers,
//!   the one retry policy, and the deadline / retry-budget / breaker /
//!   front-door admission primitives.
//! * [`adhoc_kv`] — the Redis-like key–value substrate.
//! * [`adhoc_storage`] — the in-memory RDBMS substrate (MySQL-like and
//!   PostgreSQL-like engine profiles).
//! * [`adhoc_orm`] — the Active-Record-style ORM substrate, plus the §6
//!   cures: the OCC primitive with continuations (`occ`) and the
//!   coordination-hints proxy (`coord`).
//! * [`adhoc_core`] — the ad hoc transaction toolkit: taxonomy, the seven
//!   lock implementations, validation strategies, the consistency checker,
//!   and the hazard monitor.
//! * [`adhoc_apps`] — modeled workloads for the eight studied applications.
//! * [`adhoc_study`] — the 91-case study corpus and paper-table generators.
//! * [`adhoc_service`] — the web-tier front door over the eight apps:
//!   endpoints, session pools, rate limiting, shedding and read-only
//!   degradation.
//! * [`adhoc_traffic`] — the deterministic open-loop traffic harness and
//!   its SLO/goodput ablation.

#![warn(missing_docs)]

pub use adhoc_apps as apps;
pub use adhoc_core as core;
pub use adhoc_kv as kv;
pub use adhoc_orm as orm;
pub use adhoc_service as service;
pub use adhoc_sim as sim;
pub use adhoc_storage as storage;
pub use adhoc_study as study;
pub use adhoc_traffic as traffic;
