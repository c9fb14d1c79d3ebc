//! Short randomized concurrent smoke over the contention table
//! (`adhoc_bench::contention`): in each of the four modes, every row's
//! world is built at once and seeded-random workers draw their next op
//! from any row, so all eight applications' traffic mixes on real
//! threads. The soak ends with each row's own audit over the ops it acked
//! (no lock timeout, and a clean boot-fsck). The *race-finding*
//! burden belongs to the deterministic interleaving explorer
//! (`tests/schedule_regressions.rs` and the pinned corpus in
//! `tests/schedules/`), so the wall-clock budget here is deliberately
//! small.

use adhoc_bench::contention::{audit, World, MODES, ROWS};
use adhoc_transactions::sim::rng::for_worker;
use rand::Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const SEED: u64 = 0xC0FFEE;
const THREADS: usize = 6;
/// The whole soak: split evenly over the four modes.
const SOAK: Duration = Duration::from_millis(400);

#[test]
fn mixed_application_soak_preserves_all_invariants() {
    for mode in MODES {
        let worlds: Vec<World> = ROWS.iter().map(|row| (row.build)(mode)).collect();
        let ops: Vec<_> = worlds.iter().map(|w| &w.driver.ops[..]).collect();
        let stop = AtomicBool::new(false);
        // (row, op) for every op acked with effect.
        let acked: Vec<(usize, usize)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (ops, stop) = (&ops, &stop);
                    s.spawn(move || {
                        let mut rng = for_worker(SEED, t as u64);
                        let mut acked = Vec::new();
                        while !stop.load(Ordering::Relaxed) {
                            let row = rng.gen_range(0..ops.len());
                            let i = rng.gen_range(0..ops[row].len());
                            match ops[row][i]() {
                                Ok(effect) => acked.extend(effect.then_some((row, i))),
                                Err(e) => panic!("{}/{mode:?} op {i}: {e}", ROWS[row].name),
                            }
                        }
                        acked
                    })
                })
                .collect();
            std::thread::sleep(SOAK / MODES.len() as u32);
            stop.store(true, Ordering::Relaxed);
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        for (r, world) in worlds.iter().enumerate() {
            let mut mine: Vec<usize> = acked.iter().filter(|a| a.0 == r).map(|a| a.1).collect();
            mine.sort_unstable();
            if let Err(e) = audit(world, &mine) {
                panic!("{}/{mode:?} after the soak: {e}", ROWS[r].name);
            }
        }
    }
}
