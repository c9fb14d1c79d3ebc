//! Figure 4: shrink-image API latency under the four rollback methods,
//! with and without conflicting edit-post load (§5.3).
//!
//! Workload: one thread invokes shrink-image for a sequence of images,
//! each used by eight posts; two editor threads continuously run edit-post
//! over the posts of the image currently being shrunk. Image processing
//! happens on the contents each strategy read, so a conflict makes the
//! transactional strategies redo it; `REPAIR` redoes only the affected
//! post's cheap replacement. `DBT-W` and `MANUAL` additionally share the
//! edit-post lock, so they block for the duration of in-flight edits.

use adhoc_apps::{discourse, Mode};
use adhoc_core::locks::MemLock;
use adhoc_core::taxonomy::FailureHandling;
use adhoc_sim::{LatencyModel, RealClock};
use adhoc_storage::{Database, DbConfig, EngineProfile};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct Fig4Config {
    /// Images processed per measurement (each used by `posts_per_image`).
    pub images: usize,
    /// Posts referencing each image.
    pub posts_per_image: usize,
    /// Simulated image-processing cost (dominates the no-conflict case).
    pub image_cost: Duration,
    /// Concurrent editor threads (the paper used two per image).
    pub editors: usize,
    /// Editor think time between edits.
    pub editor_think: Duration,
    /// Request time an edit spends holding the post lock.
    pub edit_hold: Duration,
    /// Physical costs for the RDBMS.
    pub latency: LatencyModel,
    /// Whether conflicting editors run during measurement.
    pub conflicts: bool,
}

impl Default for Fig4Config {
    fn default() -> Self {
        Self {
            images: 4,
            posts_per_image: 8,
            image_cost: Duration::from_millis(10),
            editors: 2,
            editor_think: Duration::from_millis(20),
            edit_hold: Duration::from_millis(6),
            latency: LatencyModel {
                kv_round_trip: Duration::from_micros(10),
                sql_round_trip: Duration::from_micros(50),
                durable_flush: Duration::from_micros(100),
                ..LatencyModel::zero()
            },
            conflicts: true,
        }
    }
}

/// One measured bar: mean shrink-image latency for a strategy.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// The measured rollback strategy.
    pub strategy: FailureHandling,
    /// Whether conflicting editors ran.
    pub conflicts: bool,
    /// Mean shrink-image latency per image.
    pub mean_latency: Duration,
    /// Image-processing restarts (or per-post repairs for `REPAIR`).
    pub restarts: usize,
}

/// The figure's four configurations, in its x-axis order
/// (`DBT-S`, `DBT-W`, `MANUAL`, `REPAIR`).
pub fn strategies() -> [FailureHandling; 4] {
    [
        FailureHandling::ErrorReturn, // DBT-S in this mapping
        FailureHandling::DbtRollback, // DBT-W
        FailureHandling::ManualRollback,
        FailureHandling::Repair,
    ]
}

/// Figure 4 label for a strategy.
pub fn strategy_label(s: FailureHandling) -> &'static str {
    match s {
        FailureHandling::ErrorReturn => "DBT-S",
        FailureHandling::DbtRollback => "DBT-W",
        FailureHandling::ManualRollback => "MANUAL",
        FailureHandling::Repair => "REPAIR",
    }
}

/// Measure one strategy.
pub fn run_rollback(strategy: FailureHandling, cfg: &Fig4Config) -> Fig4Row {
    let db = Database::new(DbConfig::networked(
        EngineProfile::PostgresLike,
        RealClock::shared(),
        cfg.latency,
    ));
    let orm = discourse::setup(&db).expect("schema");
    let app = Arc::new(
        discourse::Discourse::new(orm, Arc::new(MemLock::new()), Mode::AdHoc)
            .with_image_cost(cfg.image_cost)
            .with_edit_hold_cost(cfg.edit_hold),
    );
    app.seed_topic(1).expect("seed");
    let mut images = Vec::new();
    for img in 0..cfg.images as i64 {
        let old = img * 2 + 10;
        let new = img * 2 + 11;
        app.seed_image(old, 1000).expect("seed");
        app.seed_image(new, 10).expect("seed");
        let mut posts = Vec::new();
        for p in 0..cfg.posts_per_image {
            posts.push(
                app.seed_post(1, &format!("post {p} img:{old}"), old)
                    .expect("seed post"),
            );
        }
        images.push((old, new, posts));
    }

    let stop = AtomicBool::new(false);
    // Editors always target the image currently being shrunk.
    let current = AtomicUsize::new(0);
    let mut total = Duration::ZERO;
    let mut restarts = 0usize;
    std::thread::scope(|s| {
        if cfg.conflicts {
            for e in 0..cfg.editors {
                let app = Arc::clone(&app);
                let stop = &stop;
                let current = &current;
                let images = images.clone();
                s.spawn(move || {
                    let mut i = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let (old, _, posts) = &images[current.load(Ordering::Relaxed)];
                        let post = posts[(e + i) % posts.len()];
                        if let Ok(token) = app.begin_edit(post) {
                            let _ = app.commit_edit(&token, &format!("edited {i} img:{old}"));
                        }
                        std::thread::sleep(cfg.editor_think);
                        i += 1;
                    }
                });
            }
        }
        // The measured shrinker.
        for (idx, (old, new, _)) in images.iter().enumerate() {
            current.store(idx, Ordering::Relaxed);
            let start = Instant::now();
            let report = app.shrink_image(*old, *new, strategy).expect("shrink");
            total += start.elapsed();
            restarts += report.restarts;
        }
        stop.store(true, Ordering::Relaxed);
    });

    Fig4Row {
        strategy,
        conflicts: cfg.conflicts,
        mean_latency: total / cfg.images as u32,
        restarts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One edit-post racing one shrink-image over a two-post image, as
    /// tasks of the deterministic scheduler; `Err` when the shrinker
    /// reported a restart.
    fn shrink_against_one_edit(
        strategy: FailureHandling,
        trial: &mut adhoc_sim::sched::Trial,
    ) -> Result<(), String> {
        let db = Database::in_memory(EngineProfile::PostgresLike);
        let orm = discourse::setup(&db).expect("schema");
        let app = Arc::new(discourse::Discourse::new(
            orm,
            Arc::new(MemLock::new()),
            Mode::AdHoc,
        ));
        app.seed_topic(1).expect("seed");
        app.seed_image(10, 1000).expect("seed");
        app.seed_image(11, 10).expect("seed");
        let edited = app.seed_post(1, "post 0 img:10", 10).expect("seed post");
        app.seed_post(1, "post 1 img:10", 10).expect("seed post");
        let restarts = Arc::new(AtomicUsize::new(0));
        {
            let (app, restarts) = (Arc::clone(&app), Arc::clone(&restarts));
            trial.task("shrinker", move || {
                let report = app.shrink_image(10, 11, strategy).expect("shrink");
                restarts.store(report.restarts, Ordering::SeqCst);
            });
        }
        trial.task("editor", move || {
            let token = app.begin_edit(edited).expect("begin edit");
            let _ = app.commit_edit(&token, "edited img:10");
        });
        trial.run()?;
        match restarts.load(Ordering::SeqCst) {
            0 => Ok(()),
            n => Err(format!("{n} restart(s)")),
        }
    }

    /// Figure 4(a)'s mechanism, by schedule instead of by luck: for every
    /// strategy the explorer finds an interleaving in which the edit lands
    /// between the shrinker's read and its write-back and costs a restart
    /// — the whole batch, image processing included, for the three
    /// transactional strategies; one post's replacement for REPAIR. What
    /// that does to latency — REPAIR cheapest and near one image cost —
    /// is wall-clock, so the threaded run is checked for shape only, its
    /// figures are printed, and `paper-eval fig4` is where they are read.
    #[test]
    fn conflicting_rollback_ordering() {
        for strategy in strategies() {
            let found = adhoc_sim::sched::Explorer::new(adhoc_sim::rng::DEFAULT_SEED)
                .budget(128)
                .minimize_rounds(0)
                .explore(|trial| shrink_against_one_edit(strategy, trial));
            assert!(
                found.counter_example().is_some(),
                "{} never restarted under a conflicting edit",
                strategy_label(strategy)
            );
        }

        let _serial = crate::SERIAL_MEASUREMENTS.lock();
        let cfg = Fig4Config::default();
        for strategy in strategies() {
            let row = run_rollback(strategy, &cfg);
            assert!(row.conflicts && row.mean_latency >= cfg.image_cost);
            println!(
                "{:<7} mean latency {:?}, restarts {}",
                strategy_label(strategy),
                row.mean_latency,
                row.restarts
            );
        }
    }

    /// Figure 4(b): without conflicts all four are dominated by image
    /// processing and are similar.
    #[test]
    fn conflict_free_latencies_are_similar() {
        let _serial = crate::SERIAL_MEASUREMENTS.lock();
        let cfg = Fig4Config {
            conflicts: false,
            images: 3,
            image_cost: Duration::from_millis(8),
            ..Fig4Config::default()
        };
        // Mean latency is wall-clock: a measurement round that loses the
        // CPU to a concurrent test binary can skew one strategy. The
        // similarity band only has to hold for an undisturbed round, so
        // retry a few times before declaring the latencies divergent. The
        // zero-restart invariant is deterministic and must hold each round.
        let mut last = String::new();
        for _ in 0..5 {
            let rows: Vec<Fig4Row> = strategies()
                .into_iter()
                .map(|s| run_rollback(s, &cfg))
                .collect();
            for r in &rows {
                assert_eq!(
                    r.restarts, 0,
                    "{:?} restarted without conflicts",
                    r.strategy
                );
            }
            let min = rows.iter().map(|r| r.mean_latency).min().expect("rows");
            let max = rows.iter().map(|r| r.mean_latency).max().expect("rows");
            if max < min * 3 {
                return;
            }
            last = format!("{rows:?}");
        }
        panic!("no-conflict latencies should be comparable: {last}");
    }

    #[test]
    fn labels_match_figure4() {
        let labels: Vec<&str> = strategies().into_iter().map(strategy_label).collect();
        assert_eq!(labels, vec!["DBT-S", "DBT-W", "MANUAL", "REPAIR"]);
    }
}
