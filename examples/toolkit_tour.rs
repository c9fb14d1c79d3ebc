//! The §6 tour: every development-support facility the paper argues
//! ecosystems should provide, driven end to end on one small shop.
//!
//! 1. Coordination hints (Table 7) — a user lock replacing a hand-rolled
//!    lock, and a per-operation isolation hint taking dashboard reads out
//!    of serializable certification.
//! 2. The deadlock watchdog — restoring the engine's victim-abort contract
//!    to application locks (§3.3.1 / Finding 5).
//! 3. OCC continuations — a multi-request edit without holding anything.
//! 4. The consistency checker — the "fsck" style periodic repair (§3.4.2).
//!
//! Run with `cargo run --example toolkit_tour`.

use adhoc_transactions::core::checker::{column_invariant, ConsistencyChecker};
use adhoc_transactions::core::locks::{AdHocLock, LockError, WatchdogLock};
use adhoc_transactions::orm::{ContinuationStore, Coordinator, EntityDef, OccTxn, Orm, Registry};
use adhoc_transactions::storage::{
    Column, ColumnType, Database, EngineProfile, IsolationLevel, Predicate, Schema,
};
use std::sync::Arc;

fn shop() -> (Database, Orm) {
    let db = Database::in_memory(EngineProfile::PostgresLike);
    db.create_table(
        Schema::new(
            "items",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("stock", ColumnType::Int),
                Column::new("price", ColumnType::Int),
            ],
            "id",
        )
        .unwrap(),
    )
    .unwrap();
    let orm = Orm::new(
        db.clone(),
        Registry::new().register(EntityDef::new("items")),
    );
    orm.create(
        "items",
        &[("id", 1.into()), ("stock", 10.into()), ("price", 25.into())],
    )
    .unwrap();
    (db, orm)
}

fn main() {
    let (db, orm) = shop();

    // -----------------------------------------------------------------
    println!("1. Coordination hints (Table 7)");
    let coord = Coordinator::new(db.clone());
    // A user lock stands in for any hand-rolled SETNX/synchronized lock.
    let guard = coord.user_lock("restock:item=1").expect("user lock");
    orm.transaction(|t| {
        t.raw().update("items", 1, &[("stock", 12.into())])?;
        Ok(())
    })
    .expect("restock");
    guard.unlock().expect("unlock");
    // Per-op isolation: inside a serializable transaction, read the price
    // board at Read Committed so it never drags us into certification.
    db.run(IsolationLevel::Serializable, |t| {
        let latest = coord
            .read_committed_read(t, "items", 1)
            .expect("hint supported")
            .expect("row");
        let schema = db.schema("items")?;
        println!(
            "   user lock held + dashboard read at RC saw stock = {}",
            latest.get_int(&schema, "stock")?
        );
        Ok(())
    })
    .expect("hinted txn");

    // -----------------------------------------------------------------
    println!("2. Deadlock watchdog (§3.3.1 / Finding 5)");
    let lock = Arc::new(WatchdogLock::new());
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let victims: usize = std::thread::scope(|s| {
        [("item:1", "item:2"), ("item:2", "item:1")]
            .into_iter()
            .map(|(a, b)| {
                let lock = Arc::clone(&lock);
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    let g1 = lock.lock(a).unwrap();
                    barrier.wait();
                    // The winner's second guard (and both firsts) release
                    // on drop; the loser gets the deadlock verdict.
                    let victim = matches!(lock.lock(b), Err(LockError::Deadlock { .. }));
                    drop(g1);
                    victim as usize
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum()
    });
    println!("   opposite-order acquisition: {victims} victim aborted instantly, no stall");

    // -----------------------------------------------------------------
    println!("3. OCC continuation across requests (§6)");
    let store = ContinuationStore::new();
    let mut txn = OccTxn::new();
    txn.read(&orm, "items", 1).expect("request 1 read");
    let tid = store.save(txn);
    // ... the user thinks; nothing is locked ...
    let mut txn = store.restore(tid).expect("request 2 restore");
    txn.stage_update("items", 1, &[("price", 30.into())]);
    txn.commit(&orm).expect("nothing moved while parked");
    let price = orm
        .find_required("items", 1)
        .unwrap()
        .get_int("price")
        .unwrap();
    println!("   price edit across two requests: committed, price = {price}");
    assert_eq!(price, 30);

    // -----------------------------------------------------------------
    println!("4. Consistency checker (§3.4.2)");
    // Corrupt the shop the way a crashed ad hoc transaction would.
    orm.transaction(|t| {
        t.raw().update("items", 1, &[("stock", (-3).into())])?;
        Ok(())
    })
    .expect("inject");
    let checker = ConsistencyChecker::new().rule(column_invariant(
        "items",
        "stock-non-negative",
        Predicate::ge("stock", 0),
        "stock must be >= 0",
    ));
    let report = checker.run(&db);
    println!(
        "   checker found {} violation(s): {}",
        report.violations.len(),
        report.violations[0].message
    );
    assert!(!report.is_clean());

    println!("\nToolkit tour complete.");
}
