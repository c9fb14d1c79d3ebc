//! Ablation: lease TTL versus critical-section length.
//!
//! The Mastodon bug (§4.1.1, issue \[65\]) is quantitative at heart: a
//! lease is safe only while the TTL comfortably exceeds the critical
//! section. This ablation sweeps the ratio and measures how often a 1-use
//! invitation gets over-redeemed — the safety cliff the paper's fix
//! (checking expiry, or sizing the TTL) exists to avoid.

use adhoc_apps::{mastodon, Mode};
use adhoc_core::locks::{AcquireConfig, KvSetNxLock};
use adhoc_kv::{Client, Store};
use adhoc_sim::{LatencyModel, RealClock};
use adhoc_storage::{Database, EngineProfile};
use std::sync::Arc;
use std::time::Duration;

/// One sweep point.
#[derive(Debug, Clone)]
pub struct TtlAblationRow {
    /// critical-section length ÷ lease TTL.
    pub cs_over_ttl: f64,
    /// Trials in which more than one redeemer succeeded on a 1-use invite.
    pub overuse_trials: usize,
    /// Total trials run.
    pub trials: usize,
}

/// The lease TTL. Wide enough that scheduling noise on a quiet host does
/// not push a sub-TTL critical section past the lease and fake an overuse.
const TTL: Duration = Duration::from_millis(20);

/// Run the sweep: for each ratio, `trials` runs of four concurrent
/// redeemers against a 1-use invitation guarded by a TTL'd `SETNX` lock
/// whose expiry nobody checks (the Mastodon configuration).
pub fn run_ttl_ablation(ratios: &[f64], trials: usize) -> Vec<TtlAblationRow> {
    ratios
        .iter()
        .map(|ratio| {
            let cs = TTL.mul_f64(*ratio);
            let mut overuse_trials = 0;
            for _ in 0..trials {
                let db = Database::in_memory(EngineProfile::PostgresLike);
                let orm = mastodon::setup(&db).expect("schema");
                let kv = Client::new(Store::new(), RealClock::shared(), LatencyModel::zero());
                let lease = KvSetNxLock::new(kv.clone())
                    .with_ttl(TTL)
                    .with_config(AcquireConfig {
                        retry_interval: Duration::from_micros(200),
                        timeout: Duration::from_secs(5),
                    });
                let app = Arc::new(
                    mastodon::Mastodon::new(orm, kv, Arc::new(lease), Mode::AdHoc)
                        .with_critical_section_delay(cs),
                );
                app.seed_invite(1, 1).expect("seed");
                let successes: usize = std::thread::scope(|s| {
                    (0..4)
                        .map(|_| {
                            let app = Arc::clone(&app);
                            s.spawn(move || app.redeem_invite(1).expect("redeem") as usize)
                        })
                        .collect::<Vec<_>>()
                        .into_iter()
                        .map(|h| h.join().expect("join"))
                        .sum()
                });
                if successes > 1 {
                    overuse_trials += 1;
                }
            }
            TtlAblationRow {
                cs_over_ttl: *ratio,
                overuse_trials,
                trials,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_core::locks::AdHocLock;
    use adhoc_sim::VirtualClock;

    /// One redeemer takes the lease and spends `cs_over_ttl` × TTL of
    /// virtual time in its critical section: is a second one let in
    /// beside it?
    fn second_holder_admitted(cs_over_ttl: f64) -> bool {
        let clock = Arc::new(VirtualClock::new());
        let kv = Client::new(Store::new(), clock.clone(), LatencyModel::zero());
        let lease = KvSetNxLock::new(kv)
            .with_ttl(TTL)
            .with_config(AcquireConfig {
                retry_interval: Duration::from_micros(200),
                timeout: TTL / 8,
            });
        let _first = lease.lock("redeem:1").expect("uncontended");
        clock.advance(TTL.mul_f64(cs_over_ttl));
        lease.lock("redeem:1").is_ok()
    }

    /// The safety cliff: well under the TTL the lease still excludes; well
    /// past it a second holder walks in, because nobody checks expiry. On
    /// the virtual clock that is exact. How often the second holder also
    /// wins the race to redeem in a threaded run — the overuse counts of
    /// `paper-eval ablation-ttl` — is up to the OS scheduler, so the sweep
    /// itself is checked for shape only and its counts are printed.
    #[test]
    fn ttl_safety_cliff() {
        assert!(!second_holder_admitted(0.25), "cs ≪ ttl must stay safe");
        assert!(
            second_holder_admitted(4.0),
            "cs ≫ ttl must admit a second holder"
        );

        let _serial = crate::SERIAL_MEASUREMENTS.lock();
        let rows = run_ttl_ablation(&[0.25, 4.0], 10);
        for row in &rows {
            assert_eq!(row.trials, 10);
            assert!(row.overuse_trials <= row.trials, "{row:?}");
        }
        println!("overuse trials at cs = 0.25x and 4x ttl: {rows:?}");
    }
}
