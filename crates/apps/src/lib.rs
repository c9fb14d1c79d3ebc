//! Modeled workloads for the eight applications the paper studies
//! (Table 2), with every concrete scenario from the paper's listings.
//!
//! Each module reproduces one application's relevant data model and APIs.
//! APIs come in an **ad-hoc-transaction** variant ([`Mode::AdHoc`], the
//! original code) and a **database-transaction** variant
//! ([`Mode::DatabaseTxn`], the paper's §5 rewrite used as the `DBT`
//! baseline), and — where the paper found a bug — in buggy and fixed
//! configurations.
//!
//! | Module | Paper scenarios |
//! |---|---|
//! | [`broadleaf`] | Fig. 1a cart totals; RMW check-out (Table 6); LRU-evicted lock (§4.1.1); omitted SKU coordination (§4.2) |
//! | [`discourse`] | create-post + toggle-answer (CBC, §3.3.2); like-post (AA, Table 6); multi-request edit-post (§3.1.2); shrink-image rollback strategies (§3.4.1, Fig. 4); MiniSql reviewables (§4.1.2); lock-after-read (§4.1.1) |
//! | [`mastodon`] | Fig. 1b invites; Fig. 1c polls; Redis/RDBMS timelines (§3.1.3); TTL lease expiry (§4.1.1) |
//! | [`spree`] | §3.1.1 stock decrement with ORM cascade; add-payment predicate locking (PBC, §3.3.2); SFU-outside-transaction (§4.1.1); forgotten JSON handlers (§4.2); crashed payments (§4.3) |
//! | [`saleor`] | §3.2.1 FOR-UPDATE stock allocation; payment capture with re-entrant KV lock |
//! | [`redmine`] | issue tracking with FOR-UPDATE coordination |
//! | [`scm_suite`] | balance updates under `synchronized` (incl. the thread-local bug, §4.1.1) |
//! | [`jumpserver`] | privilege grants and asset updates (the one studied app with zero buggy cases) |

#![warn(missing_docs)]

pub mod broadleaf;
pub mod discourse;
pub mod jumpserver;
pub mod mastodon;
pub mod redmine;
pub mod saleor;
pub mod scm_suite;
pub mod spree;

/// Which coordination approach an API call uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// The application's original ad hoc transaction (`AHT` in Figure 3).
    AdHoc,
    /// The paper's database-transaction rewrite at the weakest sufficient
    /// isolation level (`DBT` in Figure 3).
    DatabaseTxn,
    /// The §7 cure: the same API re-based onto the declarative layer —
    /// [`adhoc_orm::occ`] optimistic transactions with automatic retry
    /// and the [`adhoc_orm::coord`] coordination façade. Every operation
    /// is one atomic validate-and-commit, so the paper's bug catalog
    /// empties (the cured oracle sweeps assert zero findings).
    Cured,
    /// Coordination-avoiding execution: operations whose invariants are
    /// invariant-confluent (counter bumps, dedupe-set inserts) commit as
    /// commutative deltas with **no** validation footprint, and budget
    /// invariants (`stock >= 0`) run under escrow reservations that only
    /// coordinate near exhaustion. Operations that genuinely require
    /// coordination (see `adhoc-study`'s `confluence` classification)
    /// fall back to the [`Cured`](Self::Cured) path unchanged.
    Confluent,
}

impl Mode {
    /// Figure 3 label for this mode.
    pub fn label(self) -> &'static str {
        match self {
            Mode::AdHoc => "AHT",
            Mode::DatabaseTxn => "DBT",
            Mode::Cured => "CURED",
            Mode::Confluent => "CONF",
        }
    }

    /// True for the modes that run on the declarative §7 layer (OCC +
    /// coordination façade): `Confluent` is `Cured` plus the
    /// coordination-avoiding fast paths, so every operation without a
    /// specialized confluent path executes the cured one.
    pub fn on_cured_layer(self) -> bool {
        matches!(self, Mode::Cured | Mode::Confluent)
    }
}

/// Retry policy used by every `Mode::Cured` optimistic loop: effectively
/// unbounded attempts (matching [`DBT_RETRIES`]' spirit) with short
/// exponential backoff, so contended cured benchmarks never fail
/// spuriously while conflicts still back off each other.
pub fn cured_policy() -> adhoc_sim::RetryPolicy {
    adhoc_sim::RetryPolicy::exponential(
        100_000,
        std::time::Duration::from_micros(20),
        std::time::Duration::from_micros(500),
    )
}

/// Result alias shared by the application models.
pub type Result<T> = adhoc_core::Result<T>;

/// Run one ORM transaction block and return its result together with the
/// conflict [`Footprint`](adhoc_storage::Footprint) the block accumulated
/// (captured just before commit).
///
/// This is how the application layer reasons about contention on the
/// sharded engine: two API calls whose observed footprints are
/// [disjoint](adhoc_storage::Footprint::is_disjoint) share no commit-time
/// lock, so they scale independently — the per-module footprint tests use
/// it to pin down which scenarios actually contend.
pub fn observed_footprint<R>(
    orm: &adhoc_orm::Orm,
    f: impl FnOnce(&mut adhoc_orm::OrmTxn<'_>) -> adhoc_orm::Result<R>,
) -> Result<(R, adhoc_storage::Footprint)> {
    Ok(orm.transaction(|t| {
        let r = f(t)?;
        let fp = t.footprint();
        Ok((r, fp))
    })?)
}

/// Retry budget used by DBT variants when the engine aborts them
/// (deadlock victims, serialization failures). High enough that
/// throughput benchmarks never fail spuriously.
pub(crate) const DBT_RETRIES: usize = 1000;

/// `setup`'s schema on a fresh in-memory database of `profile`: the
/// engine half of every app's studied stack.
pub(crate) fn fresh(
    profile: adhoc_storage::EngineProfile,
    setup: fn(&adhoc_storage::Database) -> Result<adhoc_orm::Orm>,
) -> adhoc_orm::Orm {
    setup(&adhoc_storage::Database::in_memory(profile)).expect("a fresh database takes the schema")
}

/// Burn real CPU for about `d` — stands in for the application-server work
/// of one request attempt (parsing, templating, ORM materialization).
///
/// §5.2's explanation of the AHT advantage hinges on this cost: a database
/// transaction that aborts re-executes the whole request handler, wasting
/// this work, while an ad hoc transaction's "non-critical sections are
/// effectively pipelined with the one active critical section". Benchmarks
/// place this call inside the DBT retry loop but outside the AHT lock.
pub fn busy_work(d: std::time::Duration) {
    if d.is_zero() {
        return;
    }
    let end = std::time::Instant::now() + d;
    let mut x: u64 = 0x9e3779b97f4a7c15;
    loop {
        for _ in 0..64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        std::hint::black_box(x);
        if std::time::Instant::now() >= end {
            break;
        }
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use adhoc_storage::{Footprint, SHARD_COUNT};

    /// Shared assertion for the per-module footprint tests: every
    /// footprint is non-empty and localized (not the whole shard space),
    /// and at least one pair of distinct rows lands on disjoint shards —
    /// i.e. the module's hot rows really can commit without contending.
    pub fn assert_localized_and_independent(fps: &[Footprint]) {
        for fp in fps {
            assert!(!fp.writes.is_empty(), "write footprint not tracked: {fp:?}");
            assert!(
                fp.touched().len() < SHARD_COUNT,
                "footprint must be localized: {fp:?}"
            );
        }
        let disjoint = fps
            .iter()
            .enumerate()
            .any(|(i, a)| fps[i + 1..].iter().any(|b| a.is_disjoint(b)));
        assert!(
            disjoint,
            "no pair of distinct rows occupies disjoint shards: {fps:?}"
        );
    }
}
