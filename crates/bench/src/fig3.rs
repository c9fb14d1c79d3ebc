//! Figure 3: API throughput under the four coordination granularities,
//! ad hoc transactions (`AHT`) vs database transactions (`DBT`), with and
//! without contention (Table 6's setups).

use crate::scaling::{measure, Measured};
use adhoc_apps::{broadleaf, discourse, spree, Mode};
use adhoc_core::locks::{AcquireConfig, KvMultiLock, MemLock};
use adhoc_core::taxonomy::Granularity;
use adhoc_kv::{Client, Store};
use adhoc_sim::{LatencyModel, RealClock};
use adhoc_storage::{Database, DbConfig, EngineProfile, IsolationLevel};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One Table 6 row.
#[derive(Debug, Clone)]
pub struct GranularitySetup {
    /// The coordination granularity this row evaluates.
    pub granularity: Granularity,
    /// Evaluated API name(s).
    pub api: &'static str,
    /// Application the API comes from.
    pub application: &'static str,
    /// Table 6's contended-workload description.
    pub workload_with_contention: &'static str,
    /// Engine profile the paper used for this row.
    pub rdbms: EngineProfile,
    /// The weakest sufficient isolation level for the DBT rewrite.
    pub dbt_isolation: IsolationLevel,
}

/// Table 6: the four evaluated APIs and their setups.
pub static SETUPS: &[GranularitySetup] = &[
    GranularitySetup {
        granularity: Granularity::Rmw,
        api: "check-out",
        application: "Broadleaf",
        workload_with_contention: "Customers purchase the same SKU.",
        rdbms: EngineProfile::MySqlLike,
        dbt_isolation: IsolationLevel::Serializable,
    },
    GranularitySetup {
        granularity: Granularity::AssociatedAccess,
        api: "like-post",
        application: "Discourse",
        workload_with_contention: "Users like different posts of seven contended topics.",
        rdbms: EngineProfile::PostgresLike,
        dbt_isolation: IsolationLevel::Serializable,
    },
    GranularitySetup {
        granularity: Granularity::ColumnBased,
        api: "create-post & toggle-answer",
        application: "Discourse",
        workload_with_contention:
            "User pairs share topics: one creates posts, one accepts answers.",
        rdbms: EngineProfile::PostgresLike,
        dbt_isolation: IsolationLevel::RepeatableRead,
    },
    GranularitySetup {
        granularity: Granularity::PredicateBased,
        api: "add-payment",
        application: "Spree",
        workload_with_contention: "Customers submit payment options for new orders.",
        rdbms: EngineProfile::PostgresLike,
        dbt_isolation: IsolationLevel::Serializable,
    },
];

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct Fig3Config {
    /// Concurrent client threads.
    pub threads: usize,
    /// Measurement window.
    pub duration: Duration,
    /// Physical costs for the RDBMS and the KV store (both "networked").
    pub latency: LatencyModel,
    /// Application-server CPU per request attempt. This is the §5.2
    /// bottleneck: the paper's peak throughputs (~100-350 req/s) are app-
    /// tier CPU bound, so wasted (retried) attempts cost real capacity.
    pub request_cpu_work: Duration,
    /// Run the contended (Table 6) workload vs. the uncontended control.
    pub contention: bool,
}

impl Default for Fig3Config {
    fn default() -> Self {
        Self {
            threads: 14,
            duration: Duration::from_millis(400),
            // Scaled-down LAN: decisive ratios preserved, wall time small.
            latency: LatencyModel {
                kv_round_trip: Duration::from_micros(10),
                sql_round_trip: Duration::from_micros(50),
                durable_flush: Duration::from_micros(100),
                ..LatencyModel::zero()
            },
            request_cpu_work: Duration::from_micros(150),
            contention: true,
        }
    }
}

/// One measured bar.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// The measured granularity.
    pub granularity: Granularity,
    /// AHT or DBT.
    pub mode: Mode,
    /// Whether the contended workload ran.
    pub contention: bool,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Requests completed in the measured window (after the harness's
    /// warm-up).
    pub completed: usize,
    /// Deadlock victims the engine chose during the run.
    pub deadlocks: u64,
    /// Serialization failures during the run.
    pub serialization_failures: u64,
}

/// Run one (granularity, mode, contention) cell and return its bar, on a
/// networked database of the engine profile its [`SETUPS`] row names.
pub fn run_granularity(granularity: Granularity, mode: Mode, cfg: &Fig3Config) -> Fig3Row {
    let setup = SETUPS
        .iter()
        .find(|s| s.granularity == granularity)
        .expect("every granularity has a Table 6 setup");
    let db = Database::new(DbConfig::networked(
        setup.rdbms,
        RealClock::shared(),
        cfg.latency,
    ));
    let run = match granularity {
        Granularity::Rmw => run_rmw(&db, mode, cfg),
        Granularity::AssociatedAccess => run_aa(&db, mode, cfg),
        Granularity::ColumnBased => run_cbc(&db, mode, cfg),
        Granularity::PredicateBased => run_pbc(&db, mode, cfg),
    };
    let stats = db.stats();
    Fig3Row {
        granularity,
        mode,
        contention: cfg.contention,
        throughput_rps: run.committed as f64 / cfg.duration.as_secs_f64(),
        completed: run.committed as usize,
        deadlocks: stats.lock_stats.deadlocks,
        serialization_failures: stats.serialization_failures,
    }
}

/// Table 6 RMW: Broadleaf check-out on a MySQL-like engine.
fn run_rmw(db: &Database, mode: Mode, cfg: &Fig3Config) -> Measured {
    let orm = broadleaf::setup(db).expect("schema");
    let app = Arc::new(
        broadleaf::Broadleaf::new(orm, Arc::new(MemLock::new()), mode)
            .with_request_cpu_work(cfg.request_cpu_work),
    );
    for sku in 0..cfg.threads as i64 {
        app.seed_sku(sku + 1, i64::MAX / 2).expect("seed");
    }
    measure(cfg.threads, cfg.duration, |t| {
        let sku = if cfg.contention { 1 } else { t as i64 + 1 };
        let app = &app;
        move |_| {
            assert!(app.check_out(sku, 1).expect("checkout"));
            true
        }
    })
}

/// Table 6 AA: Discourse like-post on a PostgreSQL-like engine.
fn run_aa(db: &Database, mode: Mode, cfg: &Fig3Config) -> Measured {
    let orm = discourse::setup(db).expect("schema");
    let kv = Client::new(Store::new(), RealClock::shared(), cfg.latency);
    // Discourse's real lock, polling fast enough not to dominate handoff.
    let lock = Arc::new(KvMultiLock::new(kv).with_config(AcquireConfig {
        retry_interval: Duration::from_micros(100),
        timeout: Duration::from_secs(30),
    }));
    let app = Arc::new(
        discourse::Discourse::new(orm, lock, mode).with_request_cpu_work(cfg.request_cpu_work),
    );

    // With contention: 7 contended topics, users like *different* posts.
    // Without: one private topic per thread.
    let contended_topics = 7usize;
    let posts_per_topic = cfg.threads.max(4);
    let mut post_ids: Vec<Vec<i64>> = Vec::new();
    let topics = if cfg.contention {
        contended_topics
    } else {
        cfg.threads
    };
    for topic in 0..topics as i64 {
        app.seed_topic(topic + 1).expect("seed");
        let mut ids = Vec::new();
        for p in 0..posts_per_topic {
            ids.push(
                app.seed_post(topic + 1, &format!("post {p}"), 0)
                    .expect("seed post"),
            );
        }
        post_ids.push(ids);
    }
    measure(cfg.threads, cfg.duration, |t| {
        let topic = if cfg.contention {
            t % contended_topics
        } else {
            t
        };
        // Each worker likes its own post of the (possibly shared) topic.
        let post = post_ids[topic][t % posts_per_topic];
        let app = &app;
        move |_| {
            app.like_post(post).expect("like");
            true
        }
    })
}

/// Table 6 CBC: Discourse create-post & toggle-answer at PG Repeatable Read.
fn run_cbc(db: &Database, mode: Mode, cfg: &Fig3Config) -> Measured {
    let orm = discourse::setup(db).expect("schema");
    let kv = Client::new(Store::new(), RealClock::shared(), cfg.latency);
    let lock = Arc::new(KvMultiLock::new(kv).with_config(AcquireConfig {
        retry_interval: Duration::from_micros(100),
        timeout: Duration::from_secs(30),
    }));
    let app = Arc::new(
        discourse::Discourse::new(orm, lock, mode).with_request_cpu_work(cfg.request_cpu_work),
    );

    // Pairs of threads share a topic under contention; otherwise one topic
    // per thread.
    let pairs = cfg.threads.div_ceil(2);
    let topics = if cfg.contention { pairs } else { cfg.threads };
    let mut seed_posts = Vec::new();
    for topic in 0..topics as i64 {
        app.seed_topic(topic + 1).expect("seed");
        seed_posts.push(app.seed_post(topic + 1, "seed", 0).expect("seed post"));
    }
    let contention = cfg.contention;
    measure(cfg.threads, cfg.duration, |t| {
        let topic = if contention {
            (t / 2) as i64 + 1
        } else {
            t as i64 + 1
        };
        let answer_post = seed_posts[(topic - 1) as usize];
        let creator = t % 2 == 0;
        let app = &app;
        move |_| {
            if creator || !contention {
                app.create_post(topic, "reply").expect("create");
            } else {
                app.toggle_answer(topic, answer_post).expect("toggle");
            }
            true
        }
    })
}

/// Table 6 PBC: Spree add-payment at PG Serializable.
fn run_pbc(db: &Database, mode: Mode, cfg: &Fig3Config) -> Measured {
    let orm = spree::setup(db).expect("schema");
    let app = Arc::new(
        spree::Spree::new(orm, Arc::new(MemLock::new()), mode)
            .with_request_cpu_work(cfg.request_cpu_work),
    );

    // Seed payments for orders 1..=100 so the order_id index has keys.
    for order in 1..=100i64 {
        app.seed_payment(order).expect("seed");
    }
    // With contention: fresh (maximal) order ids — everyone scans the open
    // interval (latest, +inf). Without: disjoint odd ids between existing
    // even neighbours.
    let next_fresh = AtomicI64::new(1_000);
    if !cfg.contention {
        for k in 101..=(100 + 512) {
            // payments at even ids leave narrow odd gaps
            app.seed_payment(2 * k).expect("seed");
        }
    }
    let threads = cfg.threads as i64;
    measure(cfg.threads, cfg.duration, |t| {
        let (app, next_fresh, contention) = (&app, &next_fresh, cfg.contention);
        move |i| {
            let order = if contention {
                next_fresh.fetch_add(1, Ordering::Relaxed)
            } else {
                2 * (101 + ((i as i64 + 1) * threads + t as i64) % 512) + 1
            };
            // Each order is fresh, so the insert happens (returns true);
            // non-contended odd slots may repeat across rounds, in which
            // case the API correctly reports "already paid".
            app.add_payment(order).expect("payment");
            true
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_sim::stats::geometric_mean;

    /// Every setup in both modes over a 300 ms window: asserts that both
    /// modes made progress and returns the AHT/DBT ratio per setup. The
    /// ratios themselves are `paper-eval fig3`'s job over full windows —
    /// a 300 ms window on a shared 2-vCPU box decides nothing, so the
    /// tests report them, not assert them.
    fn ratios(contention: bool) -> Vec<f64> {
        let _serial = crate::SERIAL_MEASUREMENTS.lock();
        let cfg = Fig3Config {
            duration: Duration::from_millis(300),
            contention,
            ..Fig3Config::default()
        };
        SETUPS
            .iter()
            .map(|setup| {
                let aht = run_granularity(setup.granularity, Mode::AdHoc, &cfg);
                let dbt = run_granularity(setup.granularity, Mode::DatabaseTxn, &cfg);
                for (mode, rps) in [("AHT", aht.throughput_rps), ("DBT", dbt.throughput_rps)] {
                    assert!(
                        rps.is_finite() && rps > 0.0,
                        "{}: {mode} made no progress ({rps} rps)",
                        setup.granularity
                    );
                }
                aht.throughput_rps / dbt.throughput_rps
            })
            .collect()
    }

    /// Figure 3(a), shape only (paper: AHT up to 1.3× DBT under
    /// contention).
    #[test]
    fn contended_aht_beats_dbt() {
        let ratios = ratios(true);
        let geo = geometric_mean(&ratios).expect("ratios");
        println!("contended AHT/DBT per setup {ratios:.3?}, geometric mean {geo:.3}");
    }

    /// Figure 3(b), shape only (paper: without contention AHT and DBT are
    /// comparable).
    #[test]
    fn uncontended_aht_and_dbt_are_similar() {
        println!("uncontended AHT/DBT per setup {:.3?}", ratios(false));
    }

    #[test]
    fn table6_lists_four_setups() {
        assert_eq!(SETUPS.len(), 4);
        assert_eq!(SETUPS[0].granularity, Granularity::Rmw);
        let profiles: Vec<EngineProfile> = SETUPS.iter().map(|s| s.rdbms).collect();
        assert_eq!(
            profiles,
            [
                EngineProfile::MySqlLike,
                EngineProfile::PostgresLike,
                EngineProfile::PostgresLike,
                EngineProfile::PostgresLike,
            ]
        );
        assert_eq!(SETUPS[2].dbt_isolation, IsolationLevel::RepeatableRead);
    }
}
