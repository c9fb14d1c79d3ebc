//! Cured-variant oracle: the §7 cure layer must *empty the bug catalog*.
//!
//! The contended workloads that make the faithful ad hoc variants lose
//! updates, double-grant, overdraft or deadlock live in the four-mode
//! contention table (`adhoc_bench::contention`, run whole by
//! `tests/mode_table.rs`): exact counters against the acked ops,
//! conservation to the unit, a boot-fsck with nothing to do, and the
//! row's committed digest, which every mode must reach. The tests below are
//! the table's `Mode::Cured` cells under the names this oracle gave them.
//! Together with `crash_recovery_oracle`'s `*_cured` sweeps (zero
//! findings, zero repairs) this is the oracle half of the paper's cure
//! claim; the throughput half is the `adhoc`/`cured` rows of
//! `BENCH_confluence.json`.
//!
//! The continuation tests at the bottom exercise the optimistic
//! transaction that *spans simulated HTTP requests*: save → concurrent
//! writer → restore → commit must validate, conflict, and retry.

use adhoc_bench::cells;
use adhoc_bench::contention::kv;
use adhoc_transactions::apps::{mastodon, Mode};
use adhoc_transactions::orm::{run_occ, ContinuationStore, OccTxn, OrmError};
use std::sync::Arc;

const OPS: i64 = 10;

cells!(Cured:
    spree_cured_checkout_is_exact_despite_the_touch_cascade => spree_checkout,
    spree_cured_add_payment_is_exactly_once => spree_payment,
    broadleaf_cured_checkout_conserves_stock => broadleaf_checkout,
    broadleaf_cured_cart_total_tracks_items => broadleaf_cart,
    saleor_cured_never_overcaptures => saleor_capture,
    saleor_cured_allocations_never_oversell => saleor_allocate,
    discourse_cured_counters_stay_consistent => discourse_posts_and_likes,
    mastodon_cured_invites_respect_the_limit_exactly => mastodon_invites,
    mastodon_cured_votes_count_exactly => mastodon_votes,
    mastodon_cured_timeline_matches_posts => mastodon_timeline,
    redmine_cured_progress_and_attachments_are_exact => redmine_progress_and_attachments,
    redmine_cured_version_close_excludes_assignment => redmine_version_close,
    jumpserver_cured_grants_stay_unique => jumpserver_grants_and_rotations,
    scm_cured_adjustments_and_transfers_are_exact => scm_accounts,
);

// ---------------------------------------------------------------------------
// The continuation flow: one optimistic transaction across two requests.
// ---------------------------------------------------------------------------

fn invite_fixture() -> (Arc<mastodon::Mastodon>, Arc<ContinuationStore>) {
    let app = Arc::new(mastodon::Mastodon::studied(kv(), Mode::Cured));
    app.seed_invite(1, 100).unwrap();
    (app, Arc::new(ContinuationStore::new()))
}

fn stage_redeem(orm: &adhoc_transactions::orm::Orm) -> OccTxn {
    let mut occ = OccTxn::new();
    let invite = occ
        .read_fields(orm, "invites", 1, &["redeems"])
        .unwrap()
        .expect("seeded invite");
    let next = invite.get_int("redeems").unwrap() + 1;
    occ.stage_update("invites", 1, &[("redeems", next.into())]);
    occ
}

/// The deterministic interleaving: request 1 parks the continuation, a
/// writer commits between the requests, request 2's commit must *fail
/// validation* (the stale read is detected), and the redo succeeds.
#[test]
fn continuation_save_restore_detects_an_intervening_write() {
    let (app, store) = invite_fixture();
    let orm = app.orm();

    // Request 1: read + stage, park across the "HTTP" boundary.
    let token = store.save(stage_redeem(orm));
    assert_eq!(store.len(), 1);

    // Between the requests: a concurrent redeem commits.
    assert!(app.redeem_invite(1).unwrap());

    // Request 2: restore and commit — validation must catch the conflict.
    let pending = store.restore(token).unwrap();
    let err = pending.commit(orm).unwrap_err();
    assert!(
        matches!(err, OrmError::OccConflict { ref entity, id: 1, .. } if entity == "invites"),
        "expected an OCC conflict, got {err}"
    );

    // The continuation is consumed either way (one-shot restore).
    assert!(matches!(
        store.restore(token),
        Err(OrmError::NoSuchContinuation { .. })
    ));

    // The redo path (what `run_occ` automates) lands the increment.
    run_occ(
        orm,
        &adhoc_transactions::apps::cured_policy(),
        None,
        |occ| {
            let invite = occ
                .read_fields(orm, "invites", 1, &["redeems"])
                .unwrap()
                .expect("seeded invite");
            let next = invite.get_int("redeems").unwrap() + 1;
            occ.stage_update("invites", 1, &[("redeems", next.into())]);
            Ok(())
        },
    )
    .unwrap();
    let redeems = orm
        .find_required("invites", 1)
        .unwrap()
        .get_int("redeems")
        .unwrap();
    assert_eq!(redeems, 2, "both the writer and the redone flow count");
}

/// The quiet path: nobody writes between the requests, so the restored
/// continuation commits first try.
#[test]
fn continuation_commits_clean_when_unchallenged() {
    let (app, store) = invite_fixture();
    let orm = app.orm();
    let token = store.save(stage_redeem(orm));
    store.restore(token).unwrap().commit(orm).unwrap();
    assert!(store.is_empty());
    let redeems = orm
        .find_required("invites", 1)
        .unwrap()
        .get_int("redeems")
        .unwrap();
    assert_eq!(redeems, 1);
}

/// Many form flows race many direct writers; every flow retries its
/// continuation until validation passes, and no increment is lost.
#[test]
fn continuation_flows_survive_concurrent_writers() {
    let (app, store) = invite_fixture();
    let flows = Arc::clone(&store);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let app = Arc::clone(&app);
            let store = Arc::clone(&flows);
            s.spawn(move || {
                let orm = app.orm();
                for _ in 0..OPS {
                    let token = store.save(stage_redeem(orm));
                    let mut pending = store.restore(token).unwrap();
                    loop {
                        match pending.commit(orm) {
                            Ok(()) => break,
                            Err(OrmError::OccConflict { .. }) => pending = stage_redeem(orm),
                            Err(e) => panic!("continuation commit: {e}"),
                        }
                    }
                }
            });
        }
        for _ in 0..4 {
            let app = Arc::clone(&app);
            s.spawn(move || {
                for _ in 0..OPS {
                    assert!(app.redeem_invite(1).unwrap());
                }
            });
        }
    });
    let redeems = app
        .orm()
        .find_required("invites", 1)
        .unwrap()
        .get_int("redeems")
        .unwrap();
    assert_eq!(
        redeems,
        8 * OPS,
        "every flow and writer counted exactly once"
    );
}
