//! Confluence oracle: the coordination-avoiding paths survive crashes
//! with no coordination to lean on.
//!
//! `Mode::Confluent` commits commutative counter updates with *zero*
//! coordination (no lock, no OCC footprint, no retry loop) and enforces
//! budget invariants (`x >= 0`, `uses <= max`) through escrow
//! reservations alone. Its concurrency half — hot-key convergence to the
//! exact sum, escrow budgets granting exactly the budget (never an
//! oversell, never a refusal while units remain) — is the four-mode
//! contention table's `Mode::Confluent` cells (`adhoc_bench::contention`,
//! run whole by `tests/mode_table.rs` beside the other three modes of the
//! same ops); the tests below run those cells under the names this
//! oracle gave them.
//!
//! The rest of this file is the crash-restart half: the three `Confluent`
//! cases of the registry in `adhoc_bench::contention::crash`, run by the
//! sweep that `crash_recovery_oracle.rs` also runs, over every
//! commit-adjacent crash point under every crash kind
//! (`CommitFailed`, `CrashAfterDurable`, `CrashBeforeDurable`,
//! `TornWrite`, and the three WAL-checkpoint crashes). Deltas materialize into ordinary row images at commit,
//! so recovery is delta-oblivious; the escrow ledger is volatile and
//! re-derives from committed state. The oracle asserts durability of
//! acked effects, conservation invariants after replay, serviceability
//! (the restarted process resumes, with at-least-once duplicates bounded
//! by the escrow cap), and — stronger than the ad hoc sweeps, and
//! asserted by the sweep itself for every `Confluent` case — that
//! boot-fsck finds *nothing to repair* and every resumed op succeeds.
//!
//! The schedule-explorer half of the story lives in
//! `tests/schedule_corpus.rs` (the `delta-merge-crash` scenario, pinned
//! as witness 24). Replay one crash point in isolation with
//! `CRASH_ORACLE=<app>_confluent/kind/k` (e.g.
//! `scm_suite_confluent/torn-write/2`).

use adhoc_bench::cells;
use adhoc_bench::contention::crash::sweep;

cells!(Confluent:
    confluent_poll_tallies_converge_exactly => mastodon_votes,
    escrow_invites_grant_exactly_the_budget => mastodon_invites,
    escrow_stock_allocation_never_oversells => saleor_allocate,
    spree_confluent_checkout_drains_stock_exactly => spree_checkout,
    scm_balance_conserves_under_mixed_traffic => scm_accounts,
);

#[test]
fn mastodon_confluent_crash_sweep_is_clean() {
    sweep("mastodon_confluent");
}

#[test]
fn saleor_confluent_crash_sweep_conserves_stock() {
    sweep("saleor_confluent");
}

#[test]
fn scm_confluent_crash_sweep_rederives_the_ledger() {
    sweep("scm_suite_confluent");
}
