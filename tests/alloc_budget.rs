//! A timing-free guard on the request path's per-statement cost: heap
//! allocations per `orm.find`, per `find + set + save` and per
//! `update_where(pk = k)` must not depend on how many rows the table holds
//! (plans are index look-ups) and must not creep back up (metadata is
//! shared, never copied — a `schema.clone()` on the path shows up here as
//! one allocation per column), and allocations per `scan(cart_id = k)`
//! must not depend on how many rows match (a read hands out the stored
//! versions — a copy of each shows up here as one allocation per row).
//! The same holds for `scan_fold(cart_id = k)`, Figure 1a's cart total
//! folded over lent rows, which must also allocate strictly less than the
//! scan: it builds no result vector.
//! An auto-increment insert commit is held to its own budget.
//! The service's front door is held to the same standard per request: a
//! timeline read through `offer` + `run_tick` allocates only what the
//! request itself produces, for a repeat client and a fresh one alike.
//! The same allocator also tracks live bytes, which pin version
//! reclamation: saving one row again and again must leave the same live
//! bytes after 200 saves as after 20,000, so no save keeps a version. Counting allocations and bytes instead of
//! asserting wall-clock time or resident memory keeps the guard exact and
//! machine-independent.
//!
//! One `#[test]` only: the counter is per thread, and the file must stay
//! free of tests that could run beside the measured one.

use adhoc_transactions::orm::{EntityDef, Orm, Registry};
use adhoc_transactions::service::{Endpoint, Request, Service, StackConfig};
use adhoc_transactions::sim::{Clock, VirtualClock};
use adhoc_transactions::storage::{
    Column, ColumnType, Database, EngineProfile, IsolationLevel, Predicate, Schema,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

thread_local! {
    /// Allocations made by this thread (const-initialised and without a
    /// destructor, so touching it inside the allocator allocates nothing).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not yet freed (same rules).
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Add `bytes` (negative when freeing) to this thread's live bytes.
fn live(bytes: isize) {
    LIVE.with(|n| n.set(n.get() + bytes as i64));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter bump
// and live-byte update that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        live(layout.size() as isize);
        // SAFETY: the caller's obligations on `layout` pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        live(new_size as isize - layout.size() as isize);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Rows measured per operation; each is warmed identically first so lazily
/// grown engine state (lock table, version-chain capacity) is the same on
/// every table size.
const SAMPLE: i64 = 16;

/// Allocations per operation, as recorded when this guard was introduced
/// (CHANGES.md, PR 21) and lowered when reads stopped copying rows (PR 24:
/// `orm.find` 4 -> 1). Lower them when the path gets leaner; raising one
/// needs a reason.
const BUDGET_FIND: u64 = 1;
const BUDGET_FIND_SET_SAVE: u64 = 20;
const BUDGET_UPDATE_WHERE_PK: u64 = 11;
/// Plan ids, the reader's shard order, the matches and the transaction's
/// bookkeeping — whatever the number of matching rows.
const BUDGET_SCAN: u64 = 3;
/// `scan_fold(cart_id = k)` summing `qty * price`: the scan's allocations
/// without its result vector, whatever the number of matching rows.
const BUDGET_SCAN_FOLD: u64 = 2;
/// One auto-increment insert commit into `items`, recorded when a row's
/// newest version moved into its shard-map slot (7 -> 6: a row that was
/// only ever inserted has no chain vector).
const BUDGET_INSERT: u64 = 6;

/// One `offer` + `run_tick` of a `MastodonTimeline` read: the completion
/// `Vec` and the `timeline:{id}` key. The limiter, breaker, pool and
/// admission door add nothing, and a new client costs no table growth.
const BUDGET_FRONT_DOOR: u64 = 2;

/// Fresh clients the front door is measured across.
const FRESH_CLIENTS: u64 = 200_000;

/// Items per cart in the `items` table: the matching-row counts the scan
/// is measured at.
const CART_SIZES: [i64; 3] = [16, 256, 1_024];

fn fixture(rows: i64) -> Orm {
    // MySQL-like, so the primary-key plan's gap neighbours are computed
    // and gap-locked — the path that used to walk the whole key set.
    let db = Database::in_memory(EngineProfile::MySqlLike);
    db.create_table(
        Schema::new(
            "posts",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("title", ColumnType::Str),
                Column::new("author", ColumnType::Str),
                Column::new("score", ColumnType::Int),
                Column::new("updated_at", ColumnType::Int),
                Column::new("lock_version", ColumnType::Int),
            ],
            "id",
        )
        .unwrap(),
    )
    .unwrap();
    // Broadleaf's `items`, Figure 1a's scan target: cart `k` holds
    // `CART_SIZES[k]` items, the carts' ids interleaved.
    db.create_table(
        Schema::new(
            "items",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("cart_id", ColumnType::Int),
                Column::new("qty", ColumnType::Int),
                Column::new("price", ColumnType::Int),
            ],
            "id",
        )
        .unwrap()
        .with_index("cart_id")
        .unwrap(),
    )
    .unwrap();
    db.run(IsolationLevel::ReadCommitted, |t| {
        for round in 0..CART_SIZES[2] {
            for (cart, size) in CART_SIZES.iter().enumerate() {
                if round < *size {
                    let cart = cart as i64;
                    t.insert(
                        "items",
                        &[
                            ("cart_id", cart.into()),
                            ("qty", 2.into()),
                            ("price", 5.into()),
                        ],
                    )?;
                }
            }
        }
        Ok(())
    })
    .unwrap();
    let orm = Orm::new(
        db,
        Registry::new().register(
            EntityDef::new("posts")
                .with_lock_version()
                .with_timestamps(),
        ),
    );
    orm.transaction(|t| {
        for id in 1..=rows {
            t.create(
                "posts",
                &[
                    ("id", id.into()),
                    ("title", "a title".into()),
                    ("author", "someone".into()),
                    ("score", 0.into()),
                ],
            )?;
        }
        Ok(())
    })
    .unwrap();
    orm
}

/// One measured operation on row `id`.
type Op = fn(&Orm, i64);

fn find(orm: &Orm, id: i64) {
    assert!(orm.find("posts", id).unwrap().is_some());
}

fn find_set_save(orm: &Orm, id: i64) {
    let mut post = orm.find_required("posts", id).unwrap();
    post.set("score", id).unwrap();
    orm.save(&mut post).unwrap();
}

fn update_where_pk(orm: &Orm, id: i64) {
    let affected = orm
        .db()
        .run(IsolationLevel::RepeatableRead, |t| {
            t.update_where("posts", &Predicate::eq("id", id), &[("score", 7.into())])
        })
        .unwrap();
    assert_eq!(affected, 1);
}

/// Allocations of one `scan(cart_id = cart)`, after two identical scans.
fn per_scan(orm: &Orm, cart: usize) -> u64 {
    let pred = Predicate::eq("cart_id", cart as i64);
    allocations_of_third(|| {
        let items = orm
            .db()
            .run(IsolationLevel::RepeatableRead, |t| t.scan("items", &pred))
            .unwrap();
        assert_eq!(items.len() as i64, CART_SIZES[cart]);
    })
}

/// Allocations of one `scan_fold(cart_id = cart)` summing Figure 1a's cart
/// total, after two identical folds.
fn per_scan_fold(orm: &Orm, cart: usize) -> u64 {
    let pred = Predicate::eq("cart_id", cart as i64);
    allocations_of_third(|| {
        let total = orm
            .db()
            .run(IsolationLevel::RepeatableRead, |t| {
                t.scan_fold("items", &pred, 0, |sum, _, item| {
                    sum + item.at(2).as_int() * item.at(3).as_int()
                })
            })
            .unwrap();
        assert_eq!(total, 2 * 5 * CART_SIZES[cart]);
    })
}

/// Allocations of the third of three identical calls of `op`.
fn allocations_of_third(op: impl Fn()) -> u64 {
    op();
    op();
    let before = ALLOCS.with(Cell::get);
    op();
    ALLOCS.with(Cell::get) - before
}

/// Allocations of one auto-increment insert commit into `items`, under a
/// cart no scan reads: the least over `SAMPLE` inserts, since a B-tree
/// node split, postings growth or shard-map growth lands on a few of them.
fn per_insert(orm: &Orm) -> u64 {
    let cart = CART_SIZES.len() as i64;
    let insert = || {
        orm.db()
            .run(IsolationLevel::ReadCommitted, |t| {
                t.insert(
                    "items",
                    &[
                        ("cart_id", cart.into()),
                        ("qty", 2.into()),
                        ("price", 5.into()),
                    ],
                )
            })
            .unwrap();
    };
    insert();
    (0..SAMPLE)
        .map(|_| {
            let before = ALLOCS.with(Cell::get);
            insert();
            ALLOCS.with(Cell::get) - before
        })
        .min()
        .unwrap()
}

/// Allocations per call of `op`, averaged over `SAMPLE` mid-table rows
/// that have each been through `op` twice already.
fn per_op(orm: &Orm, rows: i64, op: Op) -> u64 {
    let ids = (rows / 2)..(rows / 2 + SAMPLE);
    for _ in 0..2 {
        ids.clone().for_each(|id| op(orm, id));
    }
    let before = ALLOCS.with(Cell::get);
    ids.for_each(|id| op(orm, id));
    let total = ALLOCS.with(Cell::get) - before;
    assert_eq!(
        total % SAMPLE as u64,
        0,
        "every sampled row should cost the same"
    );
    total / SAMPLE as u64
}

/// Saves of one row after which the row's live bytes are read. They must
/// read the same: with no other transaction open, each save's commit
/// leaves the row its newest version alone.
const SAVES: [u64; 2] = [200, 20_000];

/// Live bytes this thread gained over `SAVES[0]` and over `SAVES[1]`
/// `find + set + save` of one row, with no other transaction open.
fn live_bytes_after_saves(orm: &Orm) -> [i64; 2] {
    let before = LIVE.with(Cell::get);
    let mut done = 0;
    SAVES.map(|saves| {
        for _ in done..saves {
            find_set_save(orm, 1);
        }
        done = saves;
        LIVE.with(Cell::get) - before
    })
}

/// The benchmark's service: the full stack with a limiter that refuses no
/// one and a queue that never fills, on a clock advanced 1 µs a request.
struct FrontDoor {
    clock: Arc<VirtualClock>,
    service: Service,
    next_id: u64,
}

impl FrontDoor {
    fn new() -> Self {
        let clock = Arc::new(VirtualClock::new());
        let config = StackConfig {
            client_rate_per_sec: 10_000_000,
            queue_cap: Some(65_536),
            ..StackConfig::full()
        };
        let service = Service::new(clock.clone(), config, 8);
        Self {
            clock,
            service,
            next_id: 0,
        }
    }

    /// Allocations of one timeline read from `client`.
    fn request(&mut self, client: u64) -> u64 {
        self.clock.advance(Duration::from_micros(1));
        self.next_id += 1;
        let request = Request {
            id: self.next_id,
            client,
            key: self.next_id,
            endpoint: Endpoint::MastodonTimeline,
            arrived: self.clock.now(),
        };
        let before = ALLOCS.with(Cell::get);
        self.service.offer(request).unwrap();
        let completions = self.service.run_tick(self.clock.now(), 4);
        let allocations = ALLOCS.with(Cell::get) - before;
        assert!(completions.len() == 1 && completions[0].outcome.is_ok());
        allocations
    }
}

#[test]
fn allocations_per_statement_are_table_size_independent_and_within_budget() {
    let (small, large) = (fixture(128), fixture(8_192));
    let ops: [(&str, Op, u64); 3] = [
        ("orm.find", find, BUDGET_FIND),
        ("find + set + save", find_set_save, BUDGET_FIND_SET_SAVE),
        (
            "update_where(pk = k)",
            update_where_pk,
            BUDGET_UPDATE_WHERE_PK,
        ),
    ];
    for (name, op, budget) in ops {
        let (at_128, at_8192) = (per_op(&small, 128, op), per_op(&large, 8_192, op));
        println!("{name}: {at_128} allocations at 128 rows, {at_8192} at 8,192");
        assert_eq!(
            at_128, at_8192,
            "{name}: allocations must not depend on the table's size"
        );
        assert!(
            at_8192 <= budget,
            "{name}: {at_8192} allocations, budget {budget}"
        );
    }
    let per_cart = [0, 1, 2].map(|cart| per_scan(&small, cart));
    for (matches, allocations) in CART_SIZES.iter().zip(per_cart) {
        println!("scan(cart_id = k): {allocations} allocations at {matches} matching rows");
        assert_eq!(
            allocations, per_cart[0],
            "scan(cart_id = k): allocations must not depend on how many rows match"
        );
        assert!(
            allocations <= BUDGET_SCAN,
            "scan(cart_id = k): {allocations} allocations, budget {BUDGET_SCAN}"
        );
    }
    let per_cart_fold = [0, 1, 2].map(|cart| per_scan_fold(&small, cart));
    for (cart, allocations) in per_cart_fold.into_iter().enumerate() {
        let matches = CART_SIZES[cart];
        println!("scan_fold(cart_id = k): {allocations} allocations at {matches} matching rows");
        assert_eq!(
            allocations, per_cart_fold[0],
            "scan_fold(cart_id = k): allocations must not depend on how many rows match"
        );
        assert!(
            allocations < per_cart[cart],
            "scan_fold(cart_id = k): {allocations} allocations, not fewer than scan's {}",
            per_cart[cart]
        );
        assert!(
            allocations <= BUDGET_SCAN_FOLD,
            "scan_fold(cart_id = k): {allocations} allocations, budget {BUDGET_SCAN_FOLD}"
        );
    }
    let inserts = per_insert(&small);
    println!("insert: {inserts} allocations");
    assert!(
        inserts <= BUDGET_INSERT,
        "insert: {inserts} allocations, budget {BUDGET_INSERT}"
    );
    let [early, late] = live_bytes_after_saves(&fixture(128));
    println!(
        "find + set + save of one row: {early} live bytes after {} saves, {late} after {}",
        SAVES[0], SAVES[1]
    );
    assert_eq!(
        late, early,
        "find + set + save: live bytes moved from {early} to {late}: old versions are kept"
    );
    let mut door = FrontDoor::new();
    for client in 0..SAMPLE as u64 {
        door.request(client);
    }
    let repeat: u64 = (0..SAMPLE as u64).map(|client| door.request(client)).sum();
    let fresh: u64 = (0..FRESH_CLIENTS)
        .map(|i| door.request(SAMPLE as u64 + i))
        .sum();
    println!(
        "front door: {repeat} allocations over {SAMPLE} repeat clients, \
         {fresh} over {FRESH_CLIENTS} fresh ones"
    );
    assert_eq!(
        (repeat, fresh),
        (
            BUDGET_FRONT_DOOR * SAMPLE as u64,
            BUDGET_FRONT_DOOR * FRESH_CLIENTS
        ),
        "front door: allocations per request must be exactly {BUDGET_FRONT_DOOR}"
    );
}
