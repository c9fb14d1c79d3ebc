//! Invariant-confluence classification of the 91-case corpus.
//!
//! Coordination is only *necessary* when an application invariant is not
//! invariant-confluent (Bailis et al., "Coordination Avoidance in Database
//! Systems", VLDB 2015): if every pair of invariant-preserving executions
//! merges into an invariant-preserving state, the operation can commit
//! with no coordination at all. Each corpus case names the invariant its
//! ad hoc transaction actually defends and lands in one of three buckets:
//!
//! * [`Confluence::Confluent`] — the invariant is preserved under merge
//!   (commutative counter bumps, idempotent set inserts, monotonic
//!   markers, derived-data recomputes). The engine's commutative delta
//!   columns commit these with **no** validation footprint and zero
//!   aborts.
//! * [`Confluence::Escrow`] — a budget invariant (`x >= 0`, `uses <=
//!   max`). Not confluent — concurrent debits can jointly overdraw — but
//!   the bound splits: escrow reservations grant units off a per-row
//!   ledger with one lock-free atomic, coordinating only near exhaustion.
//! * [`Confluence::Coordinated`] — genuinely order-sensitive (uniqueness,
//!   state machines, dense sequences, cross-row conservation,
//!   last-writer-wins with conflict detection). These inherit the §7
//!   cured path unchanged.
//!
//! The per-case labels are this reconstruction's analysis (the paper does
//! not classify confluence). Each lives on its corpus record
//! ([`crate::Case::confluence`] and [`crate::Case::invariant`]), so every
//! case has exactly one bucket and the split stays auditable.

use crate::corpus_data::CASES;

/// How much coordination a case's invariant actually requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Confluence {
    /// Invariant-confluent: merges preserve the invariant, so the
    /// operation commits as a commutative delta with no validation.
    Confluent,
    /// A budget invariant: splittable via escrow reservations, which
    /// coordinate only near exhaustion.
    Escrow,
    /// Not confluent and not a budget: requires real coordination
    /// (the cured OCC/façade path).
    Coordinated,
}

impl Confluence {
    /// All three buckets, from least to most coordination.
    pub fn all() -> [Confluence; 3] {
        [
            Confluence::Confluent,
            Confluence::Escrow,
            Confluence::Coordinated,
        ]
    }

    /// Short table label.
    pub fn label(self) -> &'static str {
        match self {
            Confluence::Confluent => "CONF",
            Confluence::Escrow => "ESCR",
            Confluence::Coordinated => "COORD",
        }
    }

    /// Human name used in prose and the report legend.
    pub fn name(self) -> &'static str {
        match self {
            Confluence::Confluent => "confluent",
            Confluence::Escrow => "escrow",
            Confluence::Coordinated => "coordinated",
        }
    }
}

impl std::fmt::Display for Confluence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Number of corpus cases in each bucket, in [`Confluence::all`] order.
pub fn counts() -> [(Confluence, usize); 3] {
    Confluence::all().map(|class| {
        (
            class,
            CASES.iter().filter(|c| c.confluence == class).count(),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::case;

    #[test]
    fn every_bucket_is_populated_and_totals_add_up() {
        let counts = counts();
        let total: usize = counts.iter().map(|(_, n)| n).sum();
        assert_eq!(total, CASES.len());
        for (class, n) in counts {
            assert!(n > 0, "{class} bucket must not be empty");
        }
        // Most ad hoc transactions defend genuinely order-sensitive
        // invariants; coordination-avoidance is the minority sport.
        let coordinated = counts[2].1;
        assert!(coordinated > counts[0].1 && coordinated > counts[1].1);
    }

    #[test]
    fn escrow_cases_name_a_budget_bound() {
        for c in CASES.iter().filter(|c| c.confluence == Confluence::Escrow) {
            assert!(
                c.invariant.contains("<=") || c.invariant.contains(">="),
                "escrow invariant must state its bound: {}",
                c.id
            );
        }
    }

    #[test]
    fn lookup_matches_the_executable_rebasing() {
        // The apps layer specializes exactly these hot paths; keep the
        // classification honest about them.
        assert_eq!(
            case("discourse/like-post").unwrap().confluence,
            Confluence::Confluent
        );
        assert_eq!(
            case("mastodon/notification-dedupe").unwrap().confluence,
            Confluence::Confluent
        );
        assert_eq!(
            case("mastodon/invite-redeem").unwrap().confluence,
            Confluence::Escrow
        );
        assert_eq!(
            case("saleor/stock-allocate").unwrap().confluence,
            Confluence::Escrow
        );
        assert_eq!(
            case("spree/order-stock-decrement").unwrap().confluence,
            Confluence::Escrow
        );
        assert_eq!(
            case("scm-suite/account-balance").unwrap().confluence,
            Confluence::Escrow
        );
        assert_eq!(
            case("discourse/create-post").unwrap().confluence,
            Confluence::Coordinated
        );
        assert!(case("nonexistent/case").is_none());
    }
}
