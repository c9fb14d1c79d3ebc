//! Cross-crate integration: toolkit + ORM + engine + applications + study
//! working together, end to end.

use adhoc_transactions::apps::{broadleaf, mastodon, spree, Mode};
use adhoc_transactions::core::checker::{referential_integrity, ConsistencyChecker};
use adhoc_transactions::core::locks::{AdHocLock, DbTableLock, KvSetNxLock, MemLock};
use adhoc_transactions::kv::{Client, Store};
use adhoc_transactions::orm::{ContinuationStore, Coordinator, OccTxn, OrmError};
use adhoc_transactions::sim::{LatencyModel, RealClock};
use adhoc_transactions::storage::{Database, EngineProfile, IsolationLevel, Predicate};
use adhoc_transactions::study;
use std::sync::Arc;

/// A full shopping session: carts, check-out, payment — coordinated by
/// three different toolkit locks against one database, with a consistency
/// checker sweeping afterwards.
#[test]
fn end_to_end_shopping_session() {
    let db = Database::in_memory(EngineProfile::MySqlLike);
    let orm = broadleaf::setup(&db).unwrap();
    let shop = Arc::new(broadleaf::Broadleaf::new(
        orm,
        Arc::new(DbTableLock::new(db.clone())),
        Mode::AdHoc,
    ));
    shop.seed_cart(1).unwrap();
    shop.seed_sku(1, 50).unwrap();

    std::thread::scope(|s| {
        for _ in 0..4 {
            let shop = Arc::clone(&shop);
            s.spawn(move || {
                for i in 0..5 {
                    shop.add_to_cart(1, 10 + i, 1).unwrap();
                    shop.check_out(1, 1).unwrap();
                }
            });
        }
    });
    assert!(shop.cart_total_consistent(1).unwrap());
    assert!(shop.sku_conserved(1, 50).unwrap());
    let sku = shop.orm().find_required("skus", 1).unwrap();
    assert_eq!(sku.get_int("sold").unwrap(), 20);
}

/// The Mastodon timeline flow plus the fsck-style checker from §3.4.2:
/// a crash (leaked lock + partial write) leaves an inconsistency that the
/// checker detects and repairs.
#[test]
fn timeline_crash_recovery_via_checker() {
    let db = Database::in_memory(EngineProfile::PostgresLike);
    let orm = mastodon::setup(&db).unwrap();
    let kv = Client::new(Store::new(), RealClock::shared(), LatencyModel::zero());
    let lock = Arc::new(KvSetNxLock::new(kv.clone()));
    let app = mastodon::Mastodon::new(orm, kv.clone(), lock.clone(), Mode::AdHoc);

    app.create_post(7, 1, "hello").unwrap();
    app.create_post(7, 2, "world").unwrap();
    // Simulate a crash between the Redis write and the DB delete: remove
    // the row directly, leaving the timeline entry dangling.
    app.orm().delete("posts", 2).unwrap();
    assert!(!app.timeline_consistent(7).unwrap());

    // The periodic checker finds and fixes it (mirror of Discourse's
    // twelve-hourly job). Timeline entries are in Redis, so the rule reads
    // both stores.
    let dangling: Vec<i64> = app
        .timeline(7)
        .unwrap()
        .into_iter()
        .filter(|id| app.orm().find("posts", *id).unwrap().is_none())
        .collect();
    assert_eq!(dangling, vec![2]);
    for id in dangling {
        kv.srem("timeline:7", &id.to_string()).unwrap();
    }
    assert!(app.timeline_consistent(7).unwrap());
}

/// §6's hint proxy driving a Spree payment flow in place of the hand-rolled
/// lock: the user-lock hint provides the same exactly-once behaviour.
#[test]
fn hint_proxy_replaces_ad_hoc_payment_lock() {
    let db = Database::in_memory(EngineProfile::PostgresLike);
    let orm = spree::setup(&db).unwrap();
    let app = Arc::new(spree::Spree::new(
        orm,
        Arc::new(MemLock::new()),
        Mode::AdHoc,
    ));
    app.seed_order(1).unwrap();
    let coord = Coordinator::new(db);

    let created: usize = std::thread::scope(|s| {
        (0..6)
            .map(|_| {
                let app = Arc::clone(&app);
                let coord = coord.clone();
                s.spawn(move || {
                    // The proxy's user lock replaces `add_payment`'s
                    // internal predicate lock.
                    let guard = coord.user_lock("payments:order=1").unwrap();
                    let created = app.add_payment_json(1).unwrap(); // uncoordinated API...
                    guard.unlock().unwrap(); // ...made safe by the hint
                    created as usize
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum()
    });
    assert_eq!(created, 1);
    assert!(app.one_payment_per_order(1).unwrap());
}

/// The §6 OCC continuation spanning requests against the Discourse model,
/// racing a direct edit: exactly one side wins.
#[test]
fn continuation_vs_direct_edit_race() {
    let app = adhoc_transactions::apps::discourse::Discourse::studied(Mode::AdHoc);
    app.seed_topic(1).unwrap();
    let post = app.seed_post(1, "original", 0).unwrap();

    let store = ContinuationStore::new();
    let mut txn = OccTxn::new();
    txn.read(app.orm(), "posts", post).unwrap().unwrap();
    let tid = store.save(txn);

    // A direct edit lands between the requests.
    let token = app.begin_edit(post).unwrap();
    app.commit_edit(&token, "direct edit").unwrap();

    let mut txn = store.restore(tid).unwrap();
    txn.stage_update("posts", post, &[("content", "continuation edit".into())]);
    assert!(matches!(
        txn.commit(app.orm()),
        Err(OrmError::OccConflict { .. })
    ));
    assert_eq!(
        app.orm()
            .find_required("posts", post)
            .unwrap()
            .get_str("content")
            .unwrap(),
        "direct edit"
    );
}

/// The study corpus is wired to the toolkit: every lock implementation a
/// case references exists in the toolkit and can acquire/release, and every
/// application in the corpus has a workload model in `adhoc-apps`.
#[test]
fn corpus_references_are_backed_by_implementations() {
    use adhoc_transactions::core::taxonomy::LockImpl;
    let db = Database::in_memory(EngineProfile::PostgresLike);
    let kv = Client::new(Store::new(), RealClock::shared(), LatencyModel::zero());
    let build = |which: LockImpl| -> Box<dyn AdHocLock> {
        match which {
            LockImpl::Sync => Box::new(adhoc_transactions::core::locks::SyncLock::new()),
            LockImpl::Mem => Box::new(MemLock::new()),
            LockImpl::MemLru => Box::new(adhoc_transactions::core::locks::MemLruLock::new(64)),
            LockImpl::KvSetNx => Box::new(KvSetNxLock::new(kv.clone())),
            LockImpl::KvMulti => Box::new(adhoc_transactions::core::locks::KvMultiLock::new(
                kv.clone(),
            )),
            LockImpl::Sfu => Box::new(adhoc_transactions::core::locks::SfuLock::new(db.clone())),
            LockImpl::DbTable => Box::new(DbTableLock::new(db.clone())),
        }
    };
    let mut seen = std::collections::BTreeSet::new();
    for case in study::CASES {
        if let Some(which) = case.lock_impl {
            if seen.insert(which.label()) {
                let lock = build(which);
                lock.lock("probe").unwrap().unlock().unwrap();
            }
        }
    }
    assert_eq!(seen.len(), 7, "all seven implementations exercised");
}

/// Every playbook `demonstrated_by` item names something that exists: an
/// example, a file under `tests/`, a `paper-eval` subcommand, a contention
/// row, or unit tests `<module path>::tests::<fn>` found in the module's
/// source file in some crate.
#[test]
fn playbook_demonstrations_resolve() {
    use std::path::Path;
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let source = |path: &Path| std::fs::read_to_string(root.join(path)).unwrap_or_default();
    let crates: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("the crates directory")
        .map(|d| d.expect("a crate directory").path())
        .collect();
    let resolves = |item: &str| -> bool {
        if let Some(example) = item.strip_prefix("example ") {
            return root.join(format!("examples/{example}.rs")).is_file();
        }
        if let Some(run) = item.strip_prefix("paper-eval ") {
            let sub = run.split(' ').next().unwrap_or_default();
            let cli = source(Path::new("crates/bench/src/bin/paper_eval.rs"));
            return cli.contains(&format!("\"{sub}\" =>"));
        }
        if let Some(row) = item.strip_prefix("contention row `") {
            let name = row.split('`').next().unwrap_or_default();
            return row.ends_with("(`tests/mode_table.rs`)")
                && root.join("tests/mode_table.rs").is_file()
                && adhoc_bench::contention::ROWS.iter().any(|r| r.name == name);
        }
        if item.starts_with("tests/") {
            return root.join(item).is_file();
        }
        let Some((module, fns)) = item.split_once("::tests::") else {
            return false;
        };
        let file = module.replace("::", "/");
        let fns = fns.trim_start_matches('{').trim_end_matches('}');
        crates.iter().any(|krate| {
            let text = [format!("src/{file}.rs"), format!("src/{file}/mod.rs")]
                .iter()
                .map(|rel| std::fs::read_to_string(krate.join(rel)).unwrap_or_default())
                .collect::<String>();
            fns.split(", ").all(|f| text.contains(&format!("fn {f}(")))
        })
    };
    let unresolved: Vec<String> = study::playbook::PLAYBOOK
        .iter()
        .flat_map(|e| {
            e.demonstrated_by
                .split("; ")
                .map(move |item| (e.case_id, item))
        })
        .filter(|(_, item)| !resolves(item))
        .map(|(case, item)| format!("{case}: {item}"))
        .collect();
    assert!(unresolved.is_empty(), "unresolved: {unresolved:#?}");
}

/// Crash-restart drill: the database survives, in-flight work is gone, and
/// boot recovery restores serviceability (issue \[60\]'s fix, generalized).
#[test]
fn crash_restart_drill() {
    let db = Database::in_memory(EngineProfile::PostgresLike);
    let orm = spree::setup(&db).unwrap();
    let app = spree::Spree::new(orm, Arc::new(MemLock::new()), Mode::AdHoc);
    app.seed_order(1).unwrap();
    app.add_payment(1).unwrap();
    app.process_payment(1, true).unwrap(); // crash mid-flight

    // Application restart: a fresh ORM over the same database.
    let orm2 = adhoc_transactions::orm::Orm::new(db.clone(), app.orm().registry().clone());
    let app2 = spree::Spree::new(orm2, Arc::new(MemLock::new()), Mode::AdHoc);
    assert!(!app2.process_payment(1, false).unwrap(), "still stuck");
    assert_eq!(app2.boot_recovery().unwrap(), 1);
    assert!(app2.process_payment(1, false).unwrap());
}

/// Referential-integrity checker across the Discourse schema.
#[test]
fn referential_checker_on_discourse() {
    let app = adhoc_transactions::apps::discourse::Discourse::studied(Mode::AdHoc);
    app.seed_topic(1).unwrap();
    app.seed_image(5, 100).unwrap();
    app.seed_post(1, "ok img:5", 5).unwrap();
    let checker = ConsistencyChecker::new()
        .rule(referential_integrity("posts", "topic_id", "topics"))
        .rule(referential_integrity("posts", "img_id", "images"));
    assert!(checker.run(app.orm().db()).is_clean());
    // A post referencing a missing image is caught.
    app.seed_post(1, "broken img:9", 9).unwrap();
    let report = checker.run(app.orm().db());
    assert_eq!(report.violations.len(), 1);
    assert!(report.violations[0].message.contains("img_id"));
}

/// Isolation-level matrix: one scenario, four configurations — the §3.1.1
/// argument that DBT forces one level onto every operation while AHT mixes.
#[test]
fn isolation_flexibility_argument() {
    // AHT: critical RMW behind a lock at Read Committed succeeds and is
    // exact; the non-critical timestamp updates never abort anyone.
    let db = Database::in_memory(EngineProfile::PostgresLike);
    let orm = spree::setup(&db).unwrap();
    let app = Arc::new(spree::Spree::new(
        orm,
        Arc::new(MemLock::new()),
        Mode::AdHoc,
    ));
    app.seed_catalog(1, 1, &[10, 11], 100).unwrap();
    app.seed_order(1).unwrap();
    std::thread::scope(|s| {
        for _ in 0..4 {
            let app = Arc::clone(&app);
            s.spawn(move || {
                for _ in 0..5 {
                    assert!(app.decrement_stock(1, 1, 1).unwrap());
                }
            });
        }
    });
    assert_eq!(app.sku_quantity(1).unwrap(), 80);
    // No engine-level conflicts were needed.
    let stats = app.orm().db().stats();
    assert_eq!(stats.serialization_failures, 0);
    assert_eq!(stats.lock_stats.deadlocks, 0);
}

/// The default-isolation claim from §2.1's footnote, as used by every ORM
/// transaction in the workspace.
#[test]
fn orm_transactions_run_at_engine_default() {
    let pg = Database::in_memory(EngineProfile::PostgresLike);
    assert_eq!(pg.default_isolation(), IsolationLevel::ReadCommitted);
    let my = Database::in_memory(EngineProfile::MySqlLike);
    assert_eq!(my.default_isolation(), IsolationLevel::RepeatableRead);
}

/// A read hands out the stored row version itself, not a copy of it, so
/// the engine must never write through one: rows held from `scan` and
/// `get`, and an `Obj` from `orm.find`, are unchanged after later
/// transactions update and delete those rows — and assigning a field of a
/// found object copies before it writes, leaving committed state alone
/// until `save`.
#[test]
fn handed_out_rows_never_change() {
    for profile in [EngineProfile::MySqlLike, EngineProfile::PostgresLike] {
        let db = Database::in_memory(profile);
        let orm = broadleaf::setup(&db).unwrap();
        for (id, qty) in [(1, 2), (2, 3), (3, 4)] {
            orm.create(
                "items",
                &[
                    ("id", id.into()),
                    ("cart_id", 7.into()),
                    ("qty", qty.into()),
                    ("price", 5.into()),
                ],
            )
            .unwrap();
        }
        let in_cart = Predicate::eq("cart_id", 7);
        let (scanned, got) = db
            .run(IsolationLevel::RepeatableRead, |t| {
                Ok((t.scan("items", &in_cart)?, t.get("items", 2)?.unwrap()))
            })
            .unwrap();
        let found = orm.find_required("items", 3).unwrap();
        let as_read = (
            format!("{scanned:?}"),
            format!("{got:?}"),
            format!("{:?}", found.row()),
        );

        // Every way a later transaction rewrites a row: point update,
        // predicate update, commutative delta, ORM save, delete.
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.update("items", 1, &[("qty", 10.into())])?;
            t.update_where("items", &in_cart, &[("price", 6.into())])?;
            t.add_delta("items", 2, "qty", 5)
        })
        .unwrap();
        let mut edited = orm.find_required("items", 3).unwrap();
        edited.set("qty", 40).unwrap();
        assert_eq!(
            db.latest_committed("items", 3).unwrap().unwrap().values[2].as_int(),
            4,
            "{profile:?}: an unsaved assignment must not reach committed state"
        );
        orm.save(&mut edited).unwrap();
        assert_eq!(
            db.latest_committed("items", 3).unwrap().unwrap().values[2].as_int(),
            40
        );
        db.run(IsolationLevel::ReadCommitted, |t| t.delete("items", 2))
            .unwrap();

        assert_eq!(
            (
                format!("{scanned:?}"),
                format!("{got:?}"),
                format!("{:?}", found.row()),
            ),
            as_read,
            "{profile:?}: a handed-out row changed after it was read"
        );
        let qty_now: Vec<i64> = db
            .dump_table("items")
            .unwrap()
            .iter()
            .map(|(_, row)| row.values[2].as_int())
            .collect();
        assert_eq!(qty_now, [10, 40]);
    }
}

/// Every seeded hash in the workspace is `sim::rng::splitmix64` or
/// `sim::rng::fnv1a` of the input its site builds. These outputs were
/// recorded when each site still carried its own copy of the mixer, so a
/// change to either function, or to an input a site builds, shows here:
/// worker streams, fault-plan rolls (four rules, first match wins, so
/// later rules read the rolls earlier ones missed), zipfian scrambling,
/// KV stripes and advisory key ids.
#[test]
fn seeded_hashes_match_their_recorded_outputs() {
    use adhoc_transactions::kv::stripe_of;
    use adhoc_transactions::orm::coord::hash_key;
    use adhoc_transactions::sim::faults::{FaultKind, FaultPlan, FaultRule, OpClass};
    use adhoc_transactions::sim::rng::{for_worker, seeded, Zipfian, DEFAULT_SEED};
    use rand::Rng;

    let mut draws = Vec::new();
    for (seed, worker) in [(7, 0), (7, 1), (DEFAULT_SEED, 3)] {
        let mut rng = for_worker(seed, worker);
        draws.extend((0..3).map(|_| rng.gen::<u64>()));
    }
    assert_eq!(
        draws,
        [
            0x4c06_c108_0caa_5417,
            0xfb21_61e3_a8c4_d3d5,
            0x5221_466c_14d2_8fa8,
            0x6308_2863_6c7b_a355,
            0xec30_87c4_0254_0256,
            0xf2ab_e1ad_a3ac_3fe5,
            0xd1b6_06ea_53d7_0f60,
            0xde93_f332_095c_54a7,
            0x2123_8b9c_46c7_3b47,
        ]
    );

    let kinds = [
        (FaultKind::CommitFailed, 'c'),
        (FaultKind::TornWrite, 't'),
        (FaultKind::ReplyLost, 'r'),
        (FaultKind::DbPartitioned, 'p'),
    ];
    let rules = kinds.map(|(kind, _)| FaultRule::with_probability(kind, 0.5));
    let plan = FaultPlan::new(11, rules.to_vec());
    let rolls = |class| -> String {
        (0..48)
            .map(|_| match plan.arm(class) {
                Some(fault) => kinds.iter().find(|(k, _)| *k == fault.kind).unwrap().1,
                None => '.',
            })
            .collect()
    };
    assert_eq!(
        rolls(OpClass::DbCommit),
        "t.ttt.ccctcccctt....c..ccct.cccc...ccc.ttttcccc."
    );
    assert_eq!(
        rolls(OpClass::KvCommand),
        ".rr..rr.....rrr....rr.rrr.....rr..rrr..r...rrrr."
    );
    assert_eq!(
        rolls(OpClass::DbStatement),
        "....p...pppp..pppp.ppp.p...p.p.pp.pp.p...p..pppp"
    );

    let zipf = Zipfian::new(1_000_000);
    let mut rng = seeded(7);
    let keys: Vec<u64> = (0..8).map(|_| zipf.next_scrambled(&mut rng)).collect();
    assert_eq!(
        keys,
        [230514, 390401, 963428, 224430, 554286, 208768, 607535, 348110]
    );

    let names = [
        "",
        "a",
        "cart:1",
        "lock:order:42",
        "rate:client:9",
        "payment/7",
    ];
    assert_eq!(names.map(stripe_of), [5, 12, 10, 4, 13, 7]);
    assert_eq!(
        names.map(hash_key),
        [
            5472609002491880229,
            3414815163700866188,
            7726982140997225434,
            1337915415701608692,
            481849305785851677,
            5115545354619921239,
        ]
    );
}
