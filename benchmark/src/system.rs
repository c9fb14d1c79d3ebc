//! The system under test, built from the crates' public API.
//!
//! `adhoc_service::Service` keeps its applications, databases and KV
//! store private, so the benchmark re-states `Service::build_apps` and
//! `Service::dispatch` here over substrates it owns. That buys three
//! things the service cannot give from outside: any [`Mode`] (the service
//! is fixed at `AdHoc`), a WAL switch, and exact counters
//! (`Database::stats`, `Store::stats`) per request. The
//! self-test `dispatch_agrees_with_service` pins the re-statement to the
//! service's own behaviour.

use adhoc_apps::{
    broadleaf, discourse, jumpserver, mastodon, redmine, saleor, scm_suite, spree, Mode,
};
use adhoc_core::locks::{KvSetNxLock, MemLock};
use adhoc_kv::{Client, Store};
use adhoc_service::{Endpoint, Request};
use adhoc_sim::{LatencyModel, RealClock};
use adhoc_storage::{Database, DbConfig, EngineProfile};
use std::sync::Arc;

/// Stock, balance and budget every seeded row starts with (the service's
/// own seed value, large enough that no business refusal ever fires).
pub const SEED_STOCK: i64 = 1_000_000_000;

/// Exact substrate counters, summed over the eight databases and the KV
/// store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub kv_commands: u64,
    pub statements: u64,
    pub commits: u64,
    pub aborts: u64,
}

impl Counters {
    pub fn since(self, earlier: Counters) -> Counters {
        Counters {
            kv_commands: self.kv_commands - earlier.kv_commands,
            statements: self.statements - earlier.statements,
            commits: self.commits - earlier.commits,
            aborts: self.aborts - earlier.aborts,
        }
    }
}

/// Successful business outcomes the output checks compare final state
/// against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub votes: i64,
    pub decrements: i64,
}

impl Tally {
    pub fn record(&mut self, endpoint: Endpoint, succeeded: bool) {
        if succeeded {
            match endpoint {
                Endpoint::MastodonVote => self.votes += 1,
                Endpoint::SpreeDecrementStock => self.decrements += 1,
                _ => {}
            }
        }
    }
}

/// The eight studied applications over substrates the benchmark owns.
pub struct Apps {
    broadleaf: broadleaf::Broadleaf,
    discourse: discourse::Discourse,
    jumpserver: jumpserver::JumpServer,
    mastodon: mastodon::Mastodon,
    redmine: redmine::Redmine,
    saleor: saleor::Saleor,
    scm: scm_suite::ScmSuite,
    spree: spree::Spree,
    discourse_posts: Vec<i64>,
    objects: u64,
    store: Store,
    dbs: Vec<Database>,
}

impl Apps {
    /// Seed `objects` rows per application exactly as `Service::new`
    /// does, in `mode`, with a commit-time-fsync WAL on every database
    /// when `wal` is set (simulated fsync latency 0).
    pub fn build(mode: Mode, wal: bool, objects: u64) -> Self {
        assert!(objects > 0);
        let store = Store::new();
        let kv = Client::new(store.clone(), RealClock::shared(), LatencyModel::zero());
        let mut dbs = Vec::with_capacity(8);
        let mut db = |profile| {
            let config = DbConfig::in_memory(profile);
            let db = Database::new(if wal { config.with_wal() } else { config });
            dbs.push(db.clone());
            db
        };
        let mysql = EngineProfile::MySqlLike;
        let postgres = EngineProfile::PostgresLike;
        let broadleaf = broadleaf::Broadleaf::new(
            broadleaf::setup(&db(mysql)).unwrap(),
            Arc::new(MemLock::new()),
            mode,
        );
        let discourse = discourse::Discourse::new(
            discourse::setup(&db(postgres)).unwrap(),
            Arc::new(MemLock::new()),
            mode,
        );
        let jumpserver = jumpserver::JumpServer::new(
            jumpserver::setup(&db(postgres)).unwrap(),
            Arc::new(KvSetNxLock::new(kv.clone())),
            mode,
        );
        let mastodon = mastodon::Mastodon::new(
            mastodon::setup(&db(postgres)).unwrap(),
            kv.clone(),
            Arc::new(KvSetNxLock::new(kv.clone())),
            mode,
        );
        let redmine = redmine::Redmine::new(redmine::setup(&db(postgres)).unwrap(), mode);
        let saleor = saleor::Saleor::new(
            saleor::setup(&db(postgres)).unwrap(),
            Arc::new(MemLock::new()),
            mode,
        );
        let scm = scm_suite::ScmSuite::new(
            scm_suite::setup(&db(mysql)).unwrap(),
            Arc::new(MemLock::new()),
            mode,
        );
        let spree = spree::Spree::new(
            spree::setup(&db(mysql)).unwrap(),
            Arc::new(MemLock::new()),
            mode,
        );
        discourse.seed_image(1, 1000).unwrap();
        let mut discourse_posts = Vec::with_capacity(objects as usize);
        for id in 1..=objects as i64 {
            broadleaf.seed_cart(id).unwrap();
            broadleaf.seed_sku(id, SEED_STOCK).unwrap();
            discourse.seed_topic(id).unwrap();
            discourse_posts.push(discourse.seed_post(id, "seed", 1).unwrap());
            jumpserver.seed_asset(id).unwrap();
            mastodon.seed_poll(id).unwrap();
            redmine.seed_issue(id, "traffic").unwrap();
            saleor.seed_stock(id, SEED_STOCK).unwrap();
            saleor.seed_allocation(id, id, 1).unwrap();
            scm.seed_account(id, SEED_STOCK).unwrap();
            spree.seed_catalog(id, id, &[1], SEED_STOCK).unwrap();
            spree.seed_order(id).unwrap();
        }
        Self {
            broadleaf,
            discourse,
            jumpserver,
            mastodon,
            redmine,
            saleor,
            scm,
            spree,
            discourse_posts,
            objects,
            store,
            dbs,
        }
    }

    /// `Service::dispatch`, re-stated: the same request-to-handler key
    /// mapping. `Ok(false)` is a business refusal (a successful response
    /// to the service); `Err` is a backend failure.
    pub fn dispatch(&self, req: &Request) -> adhoc_apps::Result<bool> {
        let id = (req.key % self.objects) as i64 + 1;
        match req.endpoint {
            Endpoint::BroadleafAddToCart => self.broadleaf.add_to_cart(id, 100, 1).map(|()| true),
            Endpoint::BroadleafCheckout => self.broadleaf.check_out(id, 1),
            Endpoint::DiscourseCreatePost => {
                self.discourse.create_post(id, "traffic post").map(|_| true)
            }
            Endpoint::DiscourseLikePost => {
                let post = self.discourse_posts[(req.key % self.objects) as usize];
                self.discourse.like_post(post).map(|()| true)
            }
            Endpoint::JumpserverGrant => {
                let user = (req.client % 997) as i64 + 1;
                self.jumpserver
                    .grant(user, id, (req.id % 3) as i64 + 1)
                    .map(|()| true)
            }
            Endpoint::MastodonVote => {
                let choice = if req.id.is_multiple_of(2) {
                    mastodon::Choice::A
                } else {
                    mastodon::Choice::B
                };
                self.mastodon.vote(id, choice).map(|()| true)
            }
            Endpoint::MastodonTimeline => self.mastodon.timeline(id).map(|_| true),
            Endpoint::RedmineAdvanceIssue => self
                .redmine
                .advance_issue(id, (req.client % 50) as i64, 1)
                .map(|()| true),
            Endpoint::SaleorAllocate => self.saleor.allocate(id),
            Endpoint::ScmTransfer => {
                let to = ((req.key + 1) % self.objects + 1) as i64;
                if to == id {
                    Ok(true)
                } else {
                    self.scm.transfer(id, to, 1)
                }
            }
            Endpoint::SpreeDecrementStock => self.spree.decrement_stock(id, id, 1),
            Endpoint::SpreeAddPayment => self.spree.add_payment(id),
        }
    }

    pub fn counters(&self) -> Counters {
        let mut c = Counters {
            kv_commands: self.store.stats().commands,
            ..Counters::default()
        };
        for db in &self.dbs {
            let s = db.stats();
            c.statements += s.statements;
            c.commits += s.commits;
            c.aborts += s.aborts;
        }
        c
    }

    fn ids(&self) -> std::ops::RangeInclusive<i64> {
        1..=self.objects as i64
    }

    /// Final-state values the checks and the cross-mode digest read, in a
    /// fixed order: SCM balances, Spree SKU quantities, Mastodon tallies.
    fn final_values(&self) -> adhoc_apps::Result<Vec<i64>> {
        let mut out = Vec::with_capacity(4 * self.objects as usize);
        for id in self.ids() {
            out.push(self.scm.balance(id)?);
        }
        for id in self.ids() {
            out.push(self.spree.sku_quantity(id)?);
        }
        for id in self.ids() {
            let (a, b) = self.mastodon.poll_totals(id)?;
            out.push(a);
            out.push(b);
        }
        Ok(out)
    }

    /// Output checks from public read APIs: SCM balance conserved, Spree
    /// stock = seed − successful decrements, poll tallies = successful
    /// votes. Returns a digest of the final values (FNV-1a) so the four
    /// modes can be compared on one request stream.
    pub fn check(&self, tally: &Tally) -> Result<u64, String> {
        let values = self.final_values().map_err(|e| e.to_string())?;
        let n = self.objects as usize;
        let seeded = self.objects as i64 * SEED_STOCK;
        let balance: i64 = values[..n].iter().sum();
        if balance != seeded {
            return Err(format!("scm balance {balance} != seeded {seeded}"));
        }
        let stock: i64 = values[n..2 * n].iter().sum();
        if stock != seeded - tally.decrements {
            return Err(format!(
                "spree stock {stock} != {seeded} - {} decrements",
                tally.decrements
            ));
        }
        let votes: i64 = values[2 * n..].iter().sum();
        if votes != tally.votes {
            return Err(format!("poll tallies {votes} != {} votes", tally.votes));
        }
        Ok(crate::stats::fnv1a(
            values.iter().flat_map(|v| v.to_le_bytes()),
        ))
    }
}
