//! Property-based tests over the application models: arbitrary operation
//! sequences must preserve each app's business invariants.

use adhoc_transactions::apps::{broadleaf, discourse, jumpserver, mastodon, Mode};
use adhoc_transactions::core::locks::MemLock;
use adhoc_transactions::kv::{Client, Store};
use adhoc_transactions::sim::{LatencyModel, RealClock};
use adhoc_transactions::storage::{Database, EngineProfile};
use proptest::prelude::*;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum ShopOp {
    AddToCart { cart: u8, price: u8, qty: u8 },
    CheckOut { sku: u8, qty: u8 },
}

fn shop_op() -> impl Strategy<Value = ShopOp> {
    prop_oneof![
        (any::<u8>(), 1u8..20, 1u8..4).prop_map(|(c, p, q)| ShopOp::AddToCart {
            cart: c % 3,
            price: p,
            qty: q,
        }),
        (any::<u8>(), 1u8..4).prop_map(|(s, q)| ShopOp::CheckOut { sku: s % 2, qty: q }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any sequence of cart/check-out operations keeps every cart total
    /// consistent and every SKU conserved, in both coordination modes.
    #[test]
    fn broadleaf_invariants_hold_for_any_sequence(
        ops in proptest::collection::vec(shop_op(), 1..40),
        adhoc in any::<bool>(),
    ) {
        let mode = if adhoc { Mode::AdHoc } else { Mode::DatabaseTxn };
        let app = broadleaf::Broadleaf::studied(mode);
        for cart in 0..3i64 {
            app.seed_cart(cart + 1).unwrap();
        }
        let seeded = 500;
        for sku in 0..2i64 {
            app.seed_sku(sku + 1, seeded).unwrap();
        }
        let mut expected_sold = [0i64; 2];
        for op in &ops {
            match op {
                ShopOp::AddToCart { cart, price, qty } => {
                    app.add_to_cart(*cart as i64 + 1, *price as i64, *qty as i64).unwrap();
                }
                ShopOp::CheckOut { sku, qty } => {
                    if app.check_out(*sku as i64 + 1, *qty as i64).unwrap() {
                        expected_sold[*sku as usize] += *qty as i64;
                    }
                }
            }
        }
        for cart in 0..3i64 {
            prop_assert!(app.cart_total_consistent(cart + 1).unwrap());
        }
        for sku in 0..2i64 {
            prop_assert!(app.sku_conserved(sku + 1, seeded).unwrap());
            let row = app.orm().find_required("skus", sku + 1).unwrap();
            prop_assert_eq!(row.get_int("sold").unwrap(), expected_sold[sku as usize]);
        }
    }

    /// Any interleaving of grants never duplicates a (user, asset) row, and
    /// levels only ever ratchet upward.
    #[test]
    fn jumpserver_grants_stay_unique_and_monotonic(
        grants in proptest::collection::vec((0u8..3, 0u8..3, 0i64..5), 1..30),
    ) {
        let kv = Client::new(Store::new(), RealClock::shared(), LatencyModel::zero());
        let app = jumpserver::JumpServer::studied(kv, Mode::AdHoc);
        let mut best = std::collections::HashMap::new();
        for (user, asset, level) in &grants {
            app.grant(*user as i64, *asset as i64, *level).unwrap();
            let e = best.entry((*user, *asset)).or_insert(*level);
            if *level > *e {
                *e = *level;
            }
        }
        for user in 0..3u8 {
            prop_assert!(app.grants_unique(user as i64).unwrap());
        }
        // Levels match the maximum granted.
        let schema = app.orm().db().schema("grants").unwrap();
        for (id, row) in app.orm().db().dump_table("grants").unwrap() {
            let _ = id;
            let user = row.get_int(&schema, "user_id").unwrap() as u8;
            let asset = row.get_int(&schema, "asset_id").unwrap() as u8;
            let level = row.get_int(&schema, "level").unwrap();
            prop_assert_eq!(level, best[&(user, asset)]);
        }
    }

    /// Poll voting tallies exactly, whatever the vote order.
    #[test]
    fn mastodon_polls_tally_exactly(votes in proptest::collection::vec(any::<bool>(), 1..60)) {
        let db = Database::in_memory(EngineProfile::PostgresLike);
        let orm = mastodon::setup(&db).unwrap();
        let kv = Client::new(Store::new(), RealClock::shared(), LatencyModel::zero());
        let app = mastodon::Mastodon::new(orm, kv, Arc::new(MemLock::new()), Mode::AdHoc);
        app.seed_poll(1).unwrap();
        let mut want = (0i64, 0i64);
        for v in &votes {
            if *v {
                app.vote(1, mastodon::Choice::A).unwrap();
                want.0 += 1;
            } else {
                app.vote(1, mastodon::Choice::B).unwrap();
                want.1 += 1;
            }
        }
        prop_assert_eq!(app.poll_totals(1).unwrap(), want);
    }

    /// Sequences of edits and view bumps never lose an accepted edit: the
    /// post content always equals the last successful commit.
    #[test]
    fn discourse_edits_apply_in_commit_order(
        edits in proptest::collection::vec((any::<bool>(), 0u8..200), 1..25),
    ) {
        let app = discourse::Discourse::studied(Mode::AdHoc);
        app.seed_topic(1).unwrap();
        let post = app.seed_post(1, "v0", 0).unwrap();
        let mut last_committed = "v0".to_string();
        let seeded = app.orm().find_required("posts", post).unwrap();
        prop_assert_eq!(seeded.get_str("content").unwrap(), last_committed.clone());
        for (stale, tag) in &edits {
            let token = app.begin_edit(post).unwrap();
            if *stale {
                // A competing edit lands first; ours must conflict.
                let other = app.begin_edit(post).unwrap();
                let interim = format!("interim-{tag}");
                app.commit_edit(&other, &interim).unwrap();
                let out = app.commit_edit(&token, "stale-loser").unwrap();
                prop_assert_eq!(out, discourse::EditOutcome::Conflict);
                last_committed = interim;
            } else {
                let text = format!("edit-{tag}");
                let out = app.commit_edit(&token, &text).unwrap();
                prop_assert_eq!(out, discourse::EditOutcome::Success);
                last_committed = text;
            }
            let current = app.orm().find_required("posts", post).unwrap();
            prop_assert_eq!(current.get_str("content").unwrap(), last_committed.clone());
        }
    }
}
