//! Deterministic interleaving exploration: a cooperative scheduler plus a
//! schedule explorer.
//!
//! The paper's bug catalog (§4) is a catalog of *interleavings*: lost
//! updates from non-atomic check-then-act, leases expiring mid-critical-
//! section, unlocks clobbering the next holder. Wall-clock stress tests
//! find those races by luck; this module finds them by *schedule*. A
//! [`Trial`] owns a set of logical tasks (each on its own OS thread) and
//! serializes them: exactly one task runs at a time, and control transfers
//! only at explicit [`yield_point`]s that the substrates call on their
//! shared-state hot paths (every simulated KV round trip, every storage
//! transaction begin/statement/commit, every lock wait, every retry
//! backoff). Which task runs next is decided by a deterministic
//! [`policy`](Explorer) — seeded random sampling or PCT-style
//! bounded-preemption search — and every decision is recorded, so a failing
//! execution is summarized by one compact **witness string**
//! (`SCHED=v1:t2:0x4.1x3.0…`) that [`replay`]s the exact interleaving
//! bit-for-bit from a fresh process.
//!
//! The hook is zero-cost when disabled: with no explorer active in the
//! process, [`yield_point`] is a single relaxed atomic load, so production
//! benches are untouched.
//!
//! # Example
//!
//! ```
//! use adhoc_sim::sched::{yield_point, Explorer, SchedPoint};
//! use std::sync::atomic::{AtomicI64, Ordering};
//! use std::sync::Arc;
//!
//! // A classic unprotected read-modify-write: only some interleavings
//! // lose an update. The explorer finds one and hands back its schedule.
//! let result = Explorer::new(42).budget(64).explore(|trial| {
//!     let v = Arc::new(AtomicI64::new(0));
//!     for t in 0..2 {
//!         let v = Arc::clone(&v);
//!         trial.task(&format!("inc-{t}"), move || {
//!             let read = v.load(Ordering::SeqCst);
//!             yield_point(SchedPoint::Backoff); // the race window
//!             v.store(read + 1, Ordering::SeqCst);
//!         });
//!     }
//!     trial.run()?;
//!     if v.load(Ordering::SeqCst) != 2 {
//!         return Err("lost update".into());
//!     }
//!     Ok(())
//! });
//! let cx = result.counter_example().expect("the race must be found");
//! assert!(adhoc_sim::sched::replay(&cx.witness, |trial| {
//!     // ... the same scenario replays the same failure ...
//! # let v = Arc::new(AtomicI64::new(0));
//! # for t in 0..2 {
//! #     let v = Arc::clone(&v);
//! #     trial.task(&format!("inc-{t}"), move || {
//! #         let read = v.load(Ordering::SeqCst);
//! #         yield_point(SchedPoint::Backoff);
//! #         v.store(read + 1, Ordering::SeqCst);
//! #     });
//! # }
//! # trial.run()?;
//! # if v.load(Ordering::SeqCst) != 2 { return Err("lost update".into()); }
//! # Ok(())
//! }).is_err());
//! ```

use parking_lot::{Condvar, Mutex};
use std::cell::RefCell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Trial outcomes carrying this message are *inconclusive* (the schedule
/// step budget ran out — typically a livelock under an adversarial
/// schedule), not failures: the explorer skips them and keeps searching,
/// and scenario code should propagate them unchanged (`trial.run()?`).
pub const INCONCLUSIVE: &str = "sched: step budget exhausted (inconclusive trial)";

/// Count of live [`Trial::run`]s in the process. `yield_point`'s fast path.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The scheduler context of the current thread, when it is a task.
    static CURRENT_TASK: RefCell<Option<TaskCtx>> = const { RefCell::new(None) };
}

/// Panic payload used to unwind tasks when a trial aborts (another task
/// panicked, or the step budget overflowed). Never reported as a failure.
struct SchedAbort;

/// Where in the substrate stack a yield happened. Purely diagnostic today
/// (every kind is a full scheduling point), except that [`Backoff`] and
/// [`LockWait`] additionally deprioritize the yielding task under the PCT
/// policy so polling loops cannot livelock the highest priority slot.
///
/// [`Backoff`]: SchedPoint::Backoff
/// [`LockWait`]: SchedPoint::LockWait
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPoint {
    /// One simulated KV round trip (`adhoc-kv` client command).
    KvRoundTrip,
    /// A storage transaction begins.
    DbTxn,
    /// A storage statement (get/scan/insert/update/delete) is about to
    /// execute — one simulated SQL round trip.
    DbStatement,
    /// A storage commit is about to execute.
    DbCommit,
    /// A blocking wait (lock manager, in-memory lock table) turned
    /// cooperative: the waiter re-checks after other tasks run.
    LockWait,
    /// A retry loop's backoff sleep turned cooperative.
    Backoff,
    /// One simulated client ↔ service request round trip (the service
    /// front door — e.g. a rate-limiter's check-then-act window).
    ServiceRequest,
}

impl SchedPoint {
    /// Whether the yielding task should drop to the lowest PCT priority
    /// (it just declared itself blocked/backing off).
    fn deprioritizes(self) -> bool {
        matches!(self, SchedPoint::LockWait | SchedPoint::Backoff)
    }
}

/// Substrate hook: a potential preemption point.
///
/// On a thread that is not a scheduled task (or in a process with no
/// active explorer) this returns immediately — one relaxed atomic load.
/// On a scheduled task it records one scheduling step, lets the policy
/// pick the next task, and blocks until this task is scheduled again.
#[inline]
pub fn yield_point(point: SchedPoint) {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    let ctx = CURRENT_TASK.with(|c| c.borrow().clone());
    if let Some(ctx) = ctx {
        ctx.shared.yield_now(ctx.id, point);
    }
}

/// True when the calling thread is a task of an active trial. Substrates
/// use this to replace wall-clock sleeps and blocking condvar waits with
/// cooperative [`yield_point`]s.
#[inline]
pub fn under_scheduler() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0 && CURRENT_TASK.with(|c| c.borrow().is_some())
}

/// Backoff-sleep replacement for retry loops: when the calling thread is a
/// scheduled task, yields (one scheduling step) and returns `true` — the
/// caller must skip its real sleep. Otherwise returns `false`.
#[inline]
pub fn yield_instead_of_sleep() -> bool {
    if !under_scheduler() {
        return false;
    }
    yield_point(SchedPoint::Backoff);
    true
}

// ---------------------------------------------------------------------------
// Scheduling policies
// ---------------------------------------------------------------------------

/// SplitMix64 step — [`crate::rng::splitmix64`] of the advanced state, so
/// schedules are a pure function of their seed.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    crate::rng::splitmix64(*state)
}

/// How the next runnable task is chosen at each step.
#[derive(Debug, Clone)]
enum Policy {
    /// Uniformly random among runnable tasks, from a seeded stream.
    Random { state: u64 },
    /// PCT-style: random priorities, highest runnable priority runs;
    /// at each change point the running task's priority drops below all
    /// others. `Backoff`/`LockWait` yields also demote the yielder.
    Pct {
        priorities: Vec<u64>,
        change_points: Vec<usize>,
        next_change: usize,
        /// Monotonically decreasing counter handing out new lowest
        /// priorities on demotion.
        floor: u64,
    },
    /// Follow a recorded witness; fall back to the lowest-index runnable
    /// task when the recorded choice is not runnable (or the trace is
    /// exhausted), so replay is total.
    Replay { choices: Vec<u32>, pos: usize },
}

impl Policy {
    fn random(seed: u64) -> Self {
        Policy::Random { state: seed }
    }

    /// A PCT policy for `tasks` tasks with `preemptions` priority change
    /// points sampled uniformly from `[1, horizon)`.
    fn pct(seed: u64, tasks: usize, preemptions: usize, horizon: usize) -> Self {
        let mut state = seed;
        // Priorities: distinct by construction (index in low bits).
        let priorities = (0..tasks)
            .map(|i| (mix(&mut state) << 8) | i as u64 | (1 << 62))
            .collect();
        let span = horizon.max(2) as u64;
        let mut change_points: Vec<usize> = (0..preemptions)
            .map(|_| 1 + (mix(&mut state) % (span - 1)) as usize)
            .collect();
        change_points.sort_unstable();
        change_points.dedup();
        Policy::Pct {
            priorities,
            change_points,
            next_change: 0,
            floor: 1 << 61,
        }
    }

    /// Pick among `runnable` (non-empty, ascending indices) for step
    /// `step`; `demote` is the yielding task when it hit a backoff point.
    fn decide(&mut self, runnable: &[usize], step: usize, demote: Option<usize>) -> usize {
        debug_assert!(!runnable.is_empty());
        match self {
            Policy::Random { state } => runnable[(mix(state) % runnable.len() as u64) as usize],
            Policy::Pct {
                priorities,
                change_points,
                next_change,
                floor,
            } => {
                if let Some(t) = demote {
                    *floor -= 1;
                    priorities[t] = *floor;
                }
                if *next_change < change_points.len() && step >= change_points[*next_change] {
                    *next_change += 1;
                    // Demote the highest-priority runnable task (the one
                    // that would otherwise keep running).
                    if let Some(&top) = runnable.iter().max_by_key(|&&t| priorities[t]) {
                        *floor -= 1;
                        priorities[top] = *floor;
                    }
                }
                *runnable
                    .iter()
                    .max_by_key(|&&t| priorities[t])
                    .expect("runnable non-empty")
            }
            Policy::Replay { choices, pos } => {
                let wanted = choices.get(*pos).map(|c| *c as usize);
                *pos += 1;
                match wanted {
                    Some(t) if runnable.contains(&t) => t,
                    _ => runnable[0],
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Witness encoding
// ---------------------------------------------------------------------------

/// A decoded schedule witness: task count plus the decision sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Witness {
    tasks: u32,
    choices: Vec<u32>,
}

impl Witness {
    /// Run-length encode: `v1:t2:0x4.1x3.0` = task 0 ×4, task 1 ×3, task 0.
    fn encode(&self) -> String {
        let mut out = format!("v1:t{}:", self.tasks);
        let mut i = 0;
        let mut first = true;
        while i < self.choices.len() {
            let c = self.choices[i];
            let mut n = 1;
            while i + n < self.choices.len() && self.choices[i + n] == c {
                n += 1;
            }
            if !first {
                out.push('.');
            }
            first = false;
            if n > 1 {
                out.push_str(&format!("{c}x{n}"));
            } else {
                out.push_str(&format!("{c}"));
            }
            i += n;
        }
        out
    }

    /// Parse a witness, accepting an optional leading `SCHED=`.
    fn parse(s: &str) -> Result<Self, String> {
        let s = s.trim();
        let s = s.strip_prefix("SCHED=").unwrap_or(s);
        let rest = s
            .strip_prefix("v1:t")
            .ok_or_else(|| format!("witness {s:?}: expected `v1:t<tasks>:` prefix"))?;
        let (tasks, trace) = rest
            .split_once(':')
            .ok_or_else(|| format!("witness {s:?}: missing `:` after task count"))?;
        let tasks: u32 = tasks
            .parse()
            .map_err(|_| format!("witness {s:?}: bad task count {tasks:?}"))?;
        let mut choices = Vec::new();
        if !trace.is_empty() {
            for part in trace.split('.') {
                let (c, n) = match part.split_once('x') {
                    Some((c, n)) => (
                        c.parse::<u32>()
                            .map_err(|_| format!("witness: bad task id {c:?}"))?,
                        n.parse::<usize>()
                            .map_err(|_| format!("witness: bad repeat {n:?}"))?,
                    ),
                    None => (
                        part.parse::<u32>()
                            .map_err(|_| format!("witness: bad task id {part:?}"))?,
                        1,
                    ),
                };
                if c >= tasks {
                    return Err(format!("witness: task id {c} out of range (t{tasks})"));
                }
                choices.extend(std::iter::repeat_n(c, n));
            }
        }
        Ok(Self { tasks, choices })
    }
}

// ---------------------------------------------------------------------------
// Scheduler core
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskStatus {
    Runnable,
    Finished,
}

struct SchedState {
    status: Vec<TaskStatus>,
    /// The task currently holding the run token (`None` once all finish).
    current: Option<usize>,
    /// Every scheduling decision, in order.
    trace: Vec<u32>,
    policy: Policy,
    max_steps: usize,
    overflowed: bool,
    /// First real task panic (message), if any.
    panicked: Option<String>,
}

impl SchedState {
    fn aborted(&self) -> bool {
        self.panicked.is_some() || self.overflowed
    }

    fn runnable(&self) -> Vec<usize> {
        self.status
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == TaskStatus::Runnable)
            .map(|(i, _)| i)
            .collect()
    }

    fn all_finished(&self) -> bool {
        self.status.iter().all(|s| *s == TaskStatus::Finished)
    }

    /// Pick and install the next task. Returns it, or `None` when all done.
    fn schedule(&mut self, demote: Option<usize>) -> Option<usize> {
        let runnable = self.runnable();
        if runnable.is_empty() {
            self.current = None;
            return None;
        }
        let step = self.trace.len();
        let next = if self.aborted() {
            // Tear-down mode: decisions no longer matter (and are not
            // recorded); just hand the token to any live task so it can
            // unwind.
            runnable[0]
        } else {
            let next = self.policy.decide(&runnable, step, demote);
            self.trace.push(next as u32);
            next
        };
        self.current = Some(next);
        Some(next)
    }
}

struct Shared {
    m: Mutex<SchedState>,
    cv: Condvar,
}

impl Shared {
    /// One scheduling step taken by task `me` at `point`.
    fn yield_now(&self, me: usize, point: SchedPoint) {
        let mut st = self.m.lock();
        if st.aborted() {
            drop(st);
            std::panic::panic_any(SchedAbort);
        }
        if st.trace.len() >= st.max_steps {
            st.overflowed = true;
            self.cv.notify_all();
            drop(st);
            std::panic::panic_any(SchedAbort);
        }
        let demote = point.deprioritizes().then_some(me);
        let next = st.schedule(demote).expect("self is runnable");
        if next != me {
            self.cv.notify_all();
            while st.current != Some(me) {
                if st.aborted() {
                    drop(st);
                    std::panic::panic_any(SchedAbort);
                }
                self.cv.wait(&mut st);
            }
        }
    }

    /// Task `me` is done (normally or by unwinding).
    fn finish(&self, me: usize) {
        let mut st = self.m.lock();
        st.status[me] = TaskStatus::Finished;
        st.schedule(None);
        self.cv.notify_all();
    }
}

struct TaskCtx {
    shared: Arc<Shared>,
    id: usize,
}

impl Clone for TaskCtx {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
            id: self.id,
        }
    }
}

/// Render a panic payload for failure messages.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Trial: one execution under one schedule
// ---------------------------------------------------------------------------

/// One scheduled execution: register tasks with [`task`](Trial::task), run
/// them with [`run`](Trial::run), then check invariants on the shared
/// state. Handed to scenario closures by [`Explorer::explore`] and
/// [`replay`]; not constructible directly, so every trial is driven by an
/// explicit policy.
pub struct Trial {
    names: Vec<String>,
    tasks: Vec<Box<dyn FnOnce() + Send>>,
    policy: Policy,
    max_steps: usize,
    trace: Vec<u32>,
    ran: bool,
}

impl Trial {
    fn new(policy: Policy, max_steps: usize) -> Self {
        Self {
            names: Vec::new(),
            tasks: Vec::new(),
            policy,
            max_steps,
            trace: Vec::new(),
            ran: false,
        }
    }

    /// Register a logical task. Tasks are identified by registration order
    /// (task 0, task 1, …) in witnesses; `name` appears in panic messages.
    pub fn task(&mut self, name: &str, f: impl FnOnce() + Send + 'static) {
        assert!(!self.ran, "tasks must be registered before Trial::run");
        self.names.push(name.to_string());
        self.tasks.push(Box::new(f));
    }

    /// Execute every registered task under the trial's schedule. Exactly
    /// one task runs between yield points; the call returns when all tasks
    /// finished (or the trial aborted).
    ///
    /// * `Ok(())` — all tasks ran to completion.
    /// * `Err(msg)` — a task panicked (`msg` carries the task name and
    ///   panic text), or the step budget overflowed (`msg` is exactly
    ///   [`INCONCLUSIVE`]). Scenarios should propagate with `?`.
    pub fn run(&mut self) -> Result<(), String> {
        assert!(!self.ran, "Trial::run may only be called once");
        assert!(!self.tasks.is_empty(), "Trial::run with no tasks");
        assert!(
            !under_scheduler(),
            "nested Trial::run inside a scheduled task"
        );
        self.ran = true;
        let n = self.tasks.len();
        let shared = Arc::new(Shared {
            m: Mutex::new(SchedState {
                status: vec![TaskStatus::Runnable; n],
                current: None,
                trace: Vec::new(),
                policy: self.policy.clone(),
                max_steps: self.max_steps,
                overflowed: false,
                panicked: None,
            }),
            cv: Condvar::new(),
        });
        ACTIVE.fetch_add(1, Ordering::SeqCst);
        std::thread::scope(|s| {
            for (id, f) in self.tasks.drain(..).enumerate() {
                let shared = Arc::clone(&shared);
                let name = self.names[id].clone();
                s.spawn(move || {
                    CURRENT_TASK.with(|c| {
                        *c.borrow_mut() = Some(TaskCtx {
                            shared: Arc::clone(&shared),
                            id,
                        })
                    });
                    // Wait for the first grant of the run token.
                    {
                        let mut st = shared.m.lock();
                        while st.current != Some(id) && !st.aborted() {
                            shared.cv.wait(&mut st);
                        }
                    }
                    let skip = shared.m.lock().aborted();
                    if !skip {
                        if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                            if !payload.is::<SchedAbort>() {
                                let msg = panic_message(payload.as_ref());
                                let mut st = shared.m.lock();
                                if st.panicked.is_none() {
                                    st.panicked = Some(format!("task '{name}' panicked: {msg}"));
                                }
                            }
                        }
                    }
                    shared.finish(id);
                    CURRENT_TASK.with(|c| *c.borrow_mut() = None);
                });
            }
            // Kick off: schedule the first task, then wait for completion.
            {
                let mut st = shared.m.lock();
                st.schedule(None);
            }
            shared.cv.notify_all();
            let mut st = shared.m.lock();
            while !st.all_finished() {
                shared.cv.wait(&mut st);
            }
        });
        ACTIVE.fetch_sub(1, Ordering::SeqCst);
        let st = shared.m.lock();
        self.trace = st.trace.clone();
        if let Some(msg) = &st.panicked {
            return Err(msg.clone());
        }
        if st.overflowed {
            return Err(INCONCLUSIVE.to_string());
        }
        Ok(())
    }

    /// The witness string of the schedule actually executed (valid after
    /// [`run`](Trial::run); this is what [`replay`] consumes).
    pub fn witness(&self) -> String {
        Witness {
            tasks: self.names.len() as u32,
            choices: self.trace.clone(),
        }
        .encode()
    }

    /// Scheduling steps taken so far.
    pub fn steps(&self) -> usize {
        self.trace.len()
    }
}

// ---------------------------------------------------------------------------
// Explorer
// ---------------------------------------------------------------------------

/// A schedule found to violate a scenario invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterExample {
    /// The (minimized) schedule witness; feed to [`replay`] to reproduce.
    pub witness: String,
    /// The scenario's failure message (or task panic text).
    pub message: String,
    /// Schedules tried before the failure surfaced (1-based).
    pub trials: usize,
    /// Replays spent minimizing the witness.
    pub minimize_attempts: usize,
}

impl fmt::Display for CounterExample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SCHED={} msg={}", self.witness, self.message)
    }
}

/// The outcome of an exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Exploration {
    /// Every schedule within the budget upheld the invariant.
    Pass {
        /// Schedules executed.
        trials: usize,
    },
    /// A schedule violated the invariant.
    Fail(Box<CounterExample>),
}

impl Exploration {
    /// The counterexample, when the exploration failed.
    pub fn counter_example(self) -> Option<CounterExample> {
        match self {
            Exploration::Pass { .. } => None,
            Exploration::Fail(cx) => Some(*cx),
        }
    }

    /// True when no schedule within the budget violated the invariant.
    pub fn passed(&self) -> bool {
        matches!(self, Exploration::Pass { .. })
    }
}

/// Drives a scenario through many schedules: seeded random sampling
/// interleaved with PCT-style bounded-preemption search, witness recording,
/// and greedy context-switch minimization of the first failure.
///
/// A scenario is a closure that (1) builds fresh shared state, (2)
/// registers tasks on the [`Trial`], (3) calls [`Trial::run`] (propagating
/// its error with `?`), and (4) checks invariants, returning `Err(msg)` on
/// violation. The scenario must be deterministic apart from the schedule:
/// use virtual clocks and seeded [`FaultPlan`](crate::FaultPlan)s, never
/// wall-clock-sensitive logic.
#[derive(Debug, Clone)]
pub struct Explorer {
    seed: u64,
    budget: usize,
    max_steps: usize,
    minimize_rounds: usize,
}

impl Explorer {
    /// An explorer with the given seed and defaults: 256 schedules,
    /// 20 000 steps per schedule, 96 minimization replays.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            budget: 256,
            max_steps: 20_000,
            minimize_rounds: 96,
        }
    }

    /// Set the schedule budget (number of schedules tried).
    pub fn budget(mut self, budget: usize) -> Self {
        self.budget = budget.max(1);
        self
    }

    /// Set the per-schedule step budget (yield points per trial).
    pub fn max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps.max(2);
        self
    }

    /// Set the minimization replay budget (0 disables minimization).
    pub fn minimize_rounds(mut self, rounds: usize) -> Self {
        self.minimize_rounds = rounds;
        self
    }

    /// The policy for exploration round `i`: even rounds sample random
    /// schedules, odd rounds run PCT with 1–4 preemption points over the
    /// previous trial's observed step horizon.
    fn policy_for(&self, i: usize, tasks_hint: usize, horizon: usize) -> Policy {
        let seed = self
            .seed
            .wrapping_add((i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
        if i.is_multiple_of(2) {
            Policy::random(seed)
        } else {
            Policy::pct(seed, tasks_hint, 1 + (i / 2) % 4, horizon)
        }
    }

    /// Run `scenario` under up to [`budget`](Self::budget) schedules.
    ///
    /// On the first failing schedule the witness is minimized (fewer
    /// context switches, same failure) and the one-line summary
    /// `SCHED=<witness> msg=<message>` is printed to stderr, so any
    /// harness log contains everything needed to pin the failure.
    pub fn explore<F>(&self, scenario: F) -> Exploration
    where
        F: Fn(&mut Trial) -> Result<(), String>,
    {
        let mut horizon = 64usize;
        let mut tasks_hint = 2usize;
        for i in 0..self.budget {
            let policy = self.policy_for(i, tasks_hint, horizon);
            let mut trial = Trial::new(policy, self.max_steps);
            let outcome = scenario(&mut trial);
            assert!(trial.ran, "scenario must call trial.run()");
            tasks_hint = trial.names.len().max(1);
            horizon = trial.steps().clamp(8, self.max_steps);
            match outcome {
                Ok(()) => continue,
                Err(msg) if msg == INCONCLUSIVE => continue,
                Err(msg) => {
                    let (witness, message, attempts) =
                        self.minimize(&scenario, trial.witness(), msg);
                    let cx = CounterExample {
                        witness,
                        message,
                        trials: i + 1,
                        minimize_attempts: attempts,
                    };
                    eprintln!("{cx}");
                    return Exploration::Fail(Box::new(cx));
                }
            }
        }
        Exploration::Pass {
            trials: self.budget,
        }
    }

    /// Greedy witness minimization: repeatedly try to extend a task's run
    /// across a context switch (replacing the decision at a switch point
    /// with the previous task) and keep any still-failing schedule. Each
    /// candidate replay re-records the *actual* trace, so the result is
    /// always a genuine witness of the failure.
    fn minimize<F>(&self, scenario: &F, witness: String, message: String) -> (String, String, usize)
    where
        F: Fn(&mut Trial) -> Result<(), String>,
    {
        let mut best = match Witness::parse(&witness) {
            Ok(w) => w,
            Err(_) => return (witness, message, 0),
        };
        let mut best_msg = message;
        let mut attempts = 0usize;
        let mut improved = true;
        'outer: while improved {
            improved = false;
            let switches: Vec<usize> = (1..best.choices.len())
                .filter(|&i| best.choices[i] != best.choices[i - 1])
                .collect();
            for i in switches {
                if attempts >= self.minimize_rounds {
                    break 'outer;
                }
                let mut candidate = best.clone();
                candidate.choices[i] = candidate.choices[i - 1];
                let mut trial = Trial::new(
                    Policy::Replay {
                        choices: candidate.choices.clone(),
                        pos: 0,
                    },
                    self.max_steps,
                );
                let outcome = scenario(&mut trial);
                attempts += 1;
                if let Err(msg) = outcome {
                    if msg != INCONCLUSIVE {
                        let actual = Witness {
                            tasks: best.tasks,
                            choices: trial.trace.clone(),
                        };
                        let fewer_switches = switch_count(&actual.choices)
                            < switch_count(&best.choices)
                            || actual.choices.len() < best.choices.len();
                        if fewer_switches {
                            best = actual;
                            best_msg = msg;
                            improved = true;
                            break;
                        }
                    }
                }
            }
        }
        (best.encode(), best_msg, attempts)
    }
}

fn switch_count(choices: &[u32]) -> usize {
    (1..choices.len())
        .filter(|&i| choices[i] != choices[i - 1])
        .count()
}

/// Run the scenario once under a seeded-random schedule and return the
/// recorded `(witness, outcome)` — the recording half of record/replay.
/// Used to mint corpus witnesses for scenarios that are expected to pass:
/// the stored witness then asserts the pass is schedule-stable.
pub fn record<F>(seed: u64, scenario: F) -> (String, Result<(), String>)
where
    F: FnOnce(&mut Trial) -> Result<(), String>,
{
    let mut trial = Trial::new(Policy::random(seed), 1 << 22);
    let outcome = scenario(&mut trial);
    assert!(trial.ran, "scenario must call trial.run()");
    (trial.witness(), outcome)
}

/// Replay one schedule from its witness string (with or without the
/// `SCHED=` prefix) and return the scenario's outcome: `Err` when the
/// pinned failure still reproduces, `Ok` when the scenario now passes.
///
/// Panics on a malformed witness — a corrupt pin is a test bug, not a
/// scenario outcome.
pub fn replay<F>(witness: &str, scenario: F) -> Result<(), String>
where
    F: FnOnce(&mut Trial) -> Result<(), String>,
{
    let parsed = Witness::parse(witness).unwrap_or_else(|e| panic!("{e}"));
    let mut trial = Trial::new(
        Policy::Replay {
            choices: parsed.choices,
            pos: 0,
        },
        1 << 22,
    );
    let outcome = scenario(&mut trial);
    assert!(trial.ran, "scenario must call trial.run()");
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicI64;

    /// Two unprotected read-modify-writes with an explicit yield in the
    /// window: the canonical lost update.
    fn rmw_scenario(trial: &mut Trial) -> Result<(), String> {
        let v = Arc::new(AtomicI64::new(0));
        for t in 0..2 {
            let v = Arc::clone(&v);
            trial.task(&format!("inc-{t}"), move || {
                let read = v.load(Ordering::SeqCst);
                yield_point(SchedPoint::KvRoundTrip);
                v.store(read + 1, Ordering::SeqCst);
            });
        }
        trial.run()?;
        if v.load(Ordering::SeqCst) != 2 {
            return Err("lost update".into());
        }
        Ok(())
    }

    #[test]
    fn explorer_finds_the_lost_update() {
        let cx = Explorer::new(1)
            .budget(64)
            .explore(rmw_scenario)
            .counter_example()
            .expect("a 2-task lost update must be found in 64 schedules");
        assert_eq!(cx.message, "lost update");
        assert!(cx.witness.starts_with("v1:t2:"), "{}", cx.witness);
    }

    #[test]
    fn witness_replays_the_exact_failure() {
        let cx = Explorer::new(2)
            .budget(64)
            .explore(rmw_scenario)
            .counter_example()
            .unwrap();
        assert_eq!(replay(&cx.witness, rmw_scenario), Err("lost update".into()));
        // The replayed trace is the witness itself (bit-for-bit).
        let mut trial = Trial::new(
            Policy::Replay {
                choices: Witness::parse(&cx.witness).unwrap().choices,
                pos: 0,
            },
            1 << 20,
        );
        let _ = rmw_scenario(&mut trial);
        assert_eq!(trial.witness(), cx.witness);
    }

    #[test]
    fn same_seed_same_witness() {
        let a = Explorer::new(7).budget(64).explore(rmw_scenario);
        let b = Explorer::new(7).budget(64).explore(rmw_scenario);
        assert_eq!(a, b, "exploration must be a pure function of its seed");
    }

    #[test]
    fn serialized_schedules_pass_a_sequential_scenario() {
        // A scenario whose tasks are individually atomic (no yields inside
        // the RMW) can never fail, whatever the schedule.
        let result = Explorer::new(3).budget(32).explore(|trial| {
            let v = Arc::new(AtomicI64::new(0));
            for t in 0..3 {
                let v = Arc::clone(&v);
                trial.task(&format!("t{t}"), move || {
                    v.fetch_add(1, Ordering::SeqCst);
                });
            }
            trial.run()?;
            if v.load(Ordering::SeqCst) != 3 {
                return Err("impossible".into());
            }
            Ok(())
        });
        assert!(result.passed());
    }

    #[test]
    fn task_panics_become_failures_with_task_names() {
        let cx = Explorer::new(4)
            .budget(4)
            .explore(|trial| {
                trial.task("bomber", || panic!("boom"));
                trial.task("bystander", || {
                    for _ in 0..4 {
                        yield_point(SchedPoint::Backoff);
                    }
                });
                trial.run()?;
                Ok(())
            })
            .counter_example()
            .expect("the panic must surface");
        assert!(cx.message.contains("bomber"), "{}", cx.message);
        assert!(cx.message.contains("boom"), "{}", cx.message);
    }

    #[test]
    fn step_budget_overflow_is_inconclusive_not_a_failure() {
        // A task that yields forever exhausts any budget; the explorer
        // must treat that as inconclusive and keep going.
        let result = Explorer::new(5).budget(3).max_steps(64).explore(|trial| {
            let stop = Arc::new(AtomicI64::new(0));
            let s = Arc::clone(&stop);
            trial.task("spinner", move || {
                while s.load(Ordering::SeqCst) == 0 {
                    yield_point(SchedPoint::Backoff);
                }
            });
            trial.task("idle", || {});
            trial.run()?;
            Ok(())
        });
        assert!(result.passed(), "{result:?}");
    }

    #[test]
    fn polling_waiter_eventually_sees_the_release() {
        // Cooperative poll loop: task 1 spins until task 0 sets the flag.
        // Every strategy must schedule the setter eventually (PCT demotes
        // the backoff-yielding spinner).
        let result = Explorer::new(6).budget(16).explore(|trial| {
            let flag = Arc::new(AtomicI64::new(0));
            let f1 = Arc::clone(&flag);
            trial.task("setter", move || {
                yield_point(SchedPoint::KvRoundTrip);
                f1.store(1, Ordering::SeqCst);
            });
            let f2 = Arc::clone(&flag);
            trial.task("poller", move || {
                while f2.load(Ordering::SeqCst) == 0 {
                    yield_point(SchedPoint::Backoff);
                }
            });
            trial.run()?;
            Ok(())
        });
        assert!(result.passed(), "{result:?}");
    }

    #[test]
    fn witness_roundtrip() {
        let w = Witness {
            tasks: 3,
            choices: vec![0, 0, 0, 2, 1, 1, 0],
        };
        let s = w.encode();
        assert_eq!(s, "v1:t3:0x3.2.1x2.0");
        assert_eq!(Witness::parse(&s).unwrap(), w);
        assert_eq!(Witness::parse(&format!("SCHED={s}")).unwrap(), w);
        assert_eq!(
            Witness::parse("v1:t1:").unwrap(),
            Witness {
                tasks: 1,
                choices: vec![]
            }
        );
        assert!(Witness::parse("v1:t2:5").is_err(), "task id out of range");
        assert!(Witness::parse("junk").is_err());
    }

    #[test]
    fn yield_point_is_a_no_op_off_schedule() {
        // Not under any trial: must simply return.
        yield_point(SchedPoint::KvRoundTrip);
        assert!(!under_scheduler());
        assert!(!yield_instead_of_sleep());
    }

    #[test]
    fn minimization_reduces_context_switches() {
        let cx = Explorer::new(8)
            .budget(64)
            .explore(rmw_scenario)
            .counter_example()
            .unwrap();
        let w = Witness::parse(&cx.witness).unwrap();
        // The minimal lost-update schedule needs exactly 2 switches
        // (t0 reads, t1 runs to completion, t0 writes — or symmetric);
        // allow a little slack but far below an adversarial schedule.
        assert!(
            switch_count(&w.choices) <= 4,
            "witness {} has {} switches",
            cx.witness,
            switch_count(&w.choices)
        );
    }
}
