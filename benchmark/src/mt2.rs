//! The two-thread stall probe (`storage.mt2.*`).
//!
//! Two threads calling AdHoc handlers over in-memory databases park on
//! the seed: one in `EpochSpine::wait_covered` (from
//! `Database::complete_commit`), the other in `LockManager::block_on` or
//! `MemLock::lock`, until the 10 s lock-wait timeout fails one of them.
//! That is why every gated workload is single-threaded. This child is the
//! reproducer. It watches its own progress so a stall is reported in half
//! a second instead of a watchdog's full wait; the parent's watchdog is
//! still behind it.

use crate::system::Apps;
use crate::workload::{Stream, Workload, WORKLOADS};
use adhoc_apps::Mode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const THREADS: u64 = 2;
/// The seed stalls after 15k–50k operations; 60k per thread makes a clean
/// repetition (~1.5 s) unlikely there and affordable once it is fixed.
const OPS_PER_THREAD: usize = 60_000;
const OBJECTS: u64 = 4096;
/// Handlers take microseconds: no operation finishing on either thread
/// for this long is a stall, not noise.
const STALL: Duration = Duration::from_millis(500);

pub struct Outcome {
    pub stalled: bool,
    /// Operations per second up to the end, or up to the stall.
    pub ops_per_s: f64,
}

pub fn run(seed: u64) -> Outcome {
    let apps = Arc::new(Apps::build(Mode::AdHoc, false, OBJECTS));
    let stream = WORKLOADS.iter().find(|w| w.stream == Stream::SixOps);
    let w = Workload {
        closed_n: OPS_PER_THREAD,
        open_n: 0,
        objects: OBJECTS,
        ..*stream.expect("an app workload")
    };
    // Relaxed: a statistic the monitor polls, publishing nothing else.
    let progress = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let reqs = w.requests(seed.wrapping_add(t)).closed;
            let (apps, progress) = (apps.clone(), progress.clone());
            std::thread::spawn(move || {
                for r in &reqs {
                    apps.dispatch(r).expect("handler");
                    progress.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    let total = THREADS * OPS_PER_THREAD as u64;
    let (mut seen, mut since) = (0, Instant::now());
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let now = progress.load(Ordering::Relaxed);
        if now == total {
            break;
        }
        if now != seen {
            (seen, since) = (now, Instant::now());
        } else if since.elapsed() > STALL {
            // The workers are parked for good and are deliberately not
            // joined: the caller exits the process, which ends them.
            return Outcome {
                stalled: true,
                ops_per_s: seen as f64 / (since - start).as_secs_f64(),
            };
        }
    }
    let elapsed = start.elapsed();
    for worker in workers {
        worker.join().expect("worker panicked");
    }
    Outcome {
        stalled: false,
        ops_per_s: total as f64 / elapsed.as_secs_f64(),
    }
}
