//! Deterministic, seeded fault injection.
//!
//! §3.4 of the paper finds that failure handling is the weakest part of ad
//! hoc transactions: 44 of the 91 studied cases simply crash, and the rest
//! split across four strategies (error return, DBT-piggybacked rollback,
//! manual rollback, post-hoc repair). Exercising those paths requires
//! *injecting* the failures the real deployments hit — lost replies,
//! connection errors, latency spikes that outlive a lease, cache restarts,
//! commit-time crashes — and doing so **reproducibly**, so a failing
//! interleaving can be replayed bit-for-bit from its seed.
//!
//! A [`FaultPlan`] is a shared, cloneable schedule of [`FaultRule`]s. The
//! substrates ask it to [`arm`](FaultPlan::arm) each fault-eligible
//! operation; the plan deterministically decides whether a fault fires
//! there. Probabilistic rules hash `(seed, rule, class, op index)` with the
//! same SplitMix-style mixer as [`crate::rng::for_worker`], so the decision
//! for a given operation index never depends on thread interleaving or on
//! how many random numbers anyone else has drawn.
//!
//! Every fired fault is appended to the plan's log ([`FaultPlan::log`]),
//! which every clone of the plan reads.

use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The category of operation a fault can attach to.
///
/// Each class has its own operation counter inside the plan, so "the third
/// KV command" is a stable coordinate regardless of how many database
/// commits happen around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// One key-value command (one client round trip).
    KvCommand,
    /// One storage-engine commit attempt.
    DbCommit,
    /// One storage-engine statement (the client↔DB request path before
    /// commit — where a network partition surfaces as a failed statement).
    DbStatement,
}

/// Number of [`OpClass`] variants (sizes the per-class counters).
const OP_CLASSES: usize = 3;

impl OpClass {
    fn index(self) -> usize {
        match self {
            OpClass::KvCommand => 0,
            OpClass::DbCommit => 1,
            OpClass::DbStatement => 2,
        }
    }

    /// Human-readable class name.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::KvCommand => "kv-command",
            OpClass::DbCommit => "db-commit",
            OpClass::DbStatement => "db-statement",
        }
    }
}

/// What goes wrong when a rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// KV: the command is applied server-side but the reply never arrives
    /// (a dropped connection, or the server→client half of a partitioned
    /// link) — the ambiguous-`SETNX` case (§3.4.1): the caller cannot tell
    /// an acquired lock from a failed acquisition.
    ReplyLost,
    /// KV: the connection drops, or the client→server half of the link is
    /// partitioned, before the command reaches the server; nothing is
    /// applied.
    ConnError,
    /// KV: the command succeeds but only after an injected delay — a GC
    /// pause or network stall that can outlive a lease TTL (the Mastodon
    /// expiry hazard, §4.1.1 \[65\]).
    LatencySpike,
    /// KV: the store restarts before serving the command, losing every
    /// volatile (TTL'd) entry — leases evaporate, plain keys survive the
    /// way an RDB-backed Redis would restore them.
    StoreRestart,
    /// DB: the commit is rejected and rolled back; the engine reports the
    /// failure honestly (nothing became durable).
    CommitFailed,
    /// DB: the commit becomes durable but the connection dies before the
    /// acknowledgement — the client sees an error for a transaction that
    /// actually happened.
    CrashAfterDurable,
    /// DB: the process dies after the commit record is written to the log
    /// buffer but *before* the fsync boundary — the write-ahead record is
    /// lost and recovery must roll the transaction back entirely.
    CrashBeforeDurable,
    /// DB: the process dies mid-flush, leaving a torn (partial) commit
    /// record on the durable medium — recovery must detect the bad frame
    /// via its checksum and truncate the tail.
    TornWrite,
    /// DB: the commit becomes durable, then the process dies writing a
    /// WAL checkpoint — the flush tears inside the checkpoint's frames,
    /// before its end frame — and the acknowledgement is lost. Recovery
    /// must fall back to the log before the checkpoint.
    CheckpointTorn,
    /// DB: the commit becomes durable and so does a checkpoint's end
    /// frame, then the process dies before the log below the checkpoint
    /// is dropped; the acknowledgement is lost.
    CrashBeforeTruncate,
    /// DB, under group commit: the committing thread, between its append
    /// and its wait for durability, writes a checkpoint and truncates the
    /// log, so the wait runs on an LSN taken before the truncation; then
    /// the acknowledgement is lost. It races no other leader: the
    /// checkpoint's own flush has made the record durable by then.
    TruncateBeforeWait,
    /// DB: the client↔DB link is partitioned at a statement boundary — the
    /// statement never reaches the engine. Unlike a commit-time
    /// [`CommitFailed`](FaultKind::CommitFailed) there is no ambiguity:
    /// nothing was submitted for commit, so re-running the transaction is
    /// safe.
    DbPartitioned,
}

impl FaultKind {
    /// Human-readable kind name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::ReplyLost => "reply-lost",
            FaultKind::ConnError => "conn-error",
            FaultKind::LatencySpike => "latency-spike",
            FaultKind::StoreRestart => "store-restart",
            FaultKind::CommitFailed => "commit-failed",
            FaultKind::CrashAfterDurable => "crash-after-durable",
            FaultKind::CrashBeforeDurable => "crash-before-durable",
            FaultKind::TornWrite => "torn-write",
            FaultKind::CheckpointTorn => "checkpoint-torn",
            FaultKind::CrashBeforeTruncate => "crash-before-truncate",
            FaultKind::TruncateBeforeWait => "truncate-before-wait",
            FaultKind::DbPartitioned => "db-partitioned",
        }
    }

    /// The operation class this kind of fault applies to.
    pub fn class(self) -> OpClass {
        match self {
            FaultKind::ReplyLost
            | FaultKind::ConnError
            | FaultKind::LatencySpike
            | FaultKind::StoreRestart => OpClass::KvCommand,
            FaultKind::CommitFailed
            | FaultKind::CrashAfterDurable
            | FaultKind::CrashBeforeDurable
            | FaultKind::TornWrite
            | FaultKind::CheckpointTorn
            | FaultKind::CrashBeforeTruncate
            | FaultKind::TruncateBeforeWait => OpClass::DbCommit,
            FaultKind::DbPartitioned => OpClass::DbStatement,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// When a rule fires.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Trigger {
    /// Fire at exactly these operation indices (0-based, per class).
    AtOps(Vec<u64>),
    /// Fire with this probability at every operation, decided by hashing
    /// `(seed, rule, class, op index)`. Stored in parts-per-2^32 so the
    /// trigger stays `Eq` and float-free.
    Probability(u32),
}

/// One scheduled failure: a kind, a trigger, and an optional budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    kind: FaultKind,
    trigger: Trigger,
    /// Stop firing after this many injections (`None` = unlimited).
    max_fires: Option<u32>,
    /// Injected delay (latency spikes).
    delay: Duration,
    /// Virtual-clock window `[start, end)` the rule is live in. Windowed
    /// rules only match when armed through [`FaultPlan::arm_at`] with a
    /// time inside the window; see [`FaultRule::during`].
    window: Option<(Duration, Duration)>,
}

impl FaultRule {
    /// A rule that fires `kind` at exactly the given per-class operation
    /// indices (0-based).
    pub fn at_ops(kind: FaultKind, ops: &[u64]) -> Self {
        Self {
            kind,
            trigger: Trigger::AtOps(ops.to_vec()),
            max_fires: None,
            delay: Duration::ZERO,
            window: None,
        }
    }

    /// A rule that fires `kind` with probability `p` (clamped to `[0, 1]`)
    /// at every operation of its class.
    pub fn with_probability(kind: FaultKind, p: f64) -> Self {
        let clamped = p.clamp(0.0, 1.0);
        Self {
            kind,
            trigger: Trigger::Probability((clamped * f64::from(u32::MAX)) as u32),
            max_fires: None,
            delay: Duration::ZERO,
            window: None,
        }
    }

    /// Cap the number of times this rule may fire.
    pub fn max_fires(mut self, n: u32) -> Self {
        self.max_fires = Some(n);
        self
    }

    /// Set the in-flight stall of a
    /// [`LatencySpike`](FaultKind::LatencySpike).
    pub fn delay(mut self, d: Duration) -> Self {
        self.delay = d;
        self
    }

    /// Restrict the rule to the virtual-clock window `[start, end)` — the
    /// shape of a real outage, which begins and heals at points in *time*
    /// rather than at operation counts. A windowed rule matches only when
    /// the substrate arms through [`FaultPlan::arm_at`] with a time inside
    /// the window; [`FaultPlan::arm`] (no time) never matches it.
    pub fn during(mut self, start: Duration, end: Duration) -> Self {
        self.window = Some((start, end));
        self
    }

    /// A correlated fault *storm*: one windowed probability rule per kind,
    /// all sharing the same window and probability — the simultaneous,
    /// correlated failures (partition + delay at once) that trigger
    /// metastable collapse, as opposed to independent single faults.
    pub fn storm(kinds: &[FaultKind], p: f64, start: Duration, end: Duration) -> Vec<Self> {
        kinds
            .iter()
            .map(|&kind| Self::with_probability(kind, p).during(start, end))
            .collect()
    }
}

/// One injected fault, as recorded in the plan's log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Index of the rule (in plan order) that fired.
    pub rule: usize,
    /// The operation class the fault attached to.
    pub class: OpClass,
    /// The per-class operation index (0-based) at which it fired.
    pub op_index: u64,
    /// What went wrong.
    pub kind: FaultKind,
    /// Injected delay (zero unless the kind is a latency spike).
    pub delay: Duration,
}

impl fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at {} op #{}",
            self.kind.name(),
            self.class.name(),
            self.op_index
        )?;
        if !self.delay.is_zero() {
            write!(f, " (+{:?})", self.delay)?;
        }
        Ok(())
    }
}

/// The fault a substrate must act on for the current operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// What to inject.
    pub kind: FaultKind,
    /// Delay to impose (zero unless the kind is a latency spike).
    pub delay: Duration,
    /// The per-class operation index the fault fired at.
    pub op_index: u64,
}

struct RuleState {
    rule: FaultRule,
    fires: AtomicU32,
}

struct PlanInner {
    seed: u64,
    rules: Vec<RuleState>,
    /// Per-[`OpClass`] operation counters (indexed by `OpClass::index`).
    counters: [AtomicU64; OP_CLASSES],
    enabled: AtomicBool,
    log: Mutex<Vec<FaultRecord>>,
}

/// A shared, deterministic fault schedule. Cheap to clone.
///
/// Build one with [`FaultPlan::new`], add [`FaultRule`]s, hand clones to the
/// KV client (`Client::with_faults`) and/or database
/// (`DbConfig::with_faults`), then [`enable`](FaultPlan::enable) it once
/// fault-free setup (schema creation, seeding) is done. Disabled plans
/// neither fire nor advance operation counters, so the op indices named by
/// rules count only operations issued while the plan is live.
#[derive(Clone)]
pub struct FaultPlan {
    inner: Arc<PlanInner>,
}

impl FaultPlan {
    /// An *enabled* plan with the given seed and rules.
    pub fn new(seed: u64, rules: Vec<FaultRule>) -> Self {
        Self {
            inner: Arc::new(PlanInner {
                seed,
                rules: rules
                    .into_iter()
                    .map(|rule| RuleState {
                        rule,
                        fires: AtomicU32::new(0),
                    })
                    .collect(),
                counters: std::array::from_fn(|_| AtomicU64::new(0)),
                enabled: AtomicBool::new(true),
                log: Mutex::new(Vec::new()),
            }),
        }
    }

    /// A plan created disabled; call [`enable`](FaultPlan::enable) after
    /// fault-free setup.
    pub fn new_disabled(seed: u64, rules: Vec<FaultRule>) -> Self {
        let plan = Self::new(seed, rules);
        plan.disable();
        plan
    }

    /// Start injecting (and counting) operations.
    pub fn enable(&self) {
        self.inner.enabled.store(true, Ordering::SeqCst);
    }

    /// Stop injecting; operations are not counted while disabled.
    pub fn disable(&self) {
        self.inner.enabled.store(false, Ordering::SeqCst);
    }

    /// Deterministic per-operation coin flip: a pure function of
    /// `(seed, rule, class, op index)` — no shared RNG stream, so thread
    /// interleaving cannot change any individual decision.
    fn roll(&self, rule: usize, class: OpClass, op: u64) -> u32 {
        let z = crate::rng::splitmix64(
            self.inner
                .seed
                .wrapping_add(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((rule as u64 + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9))
                .wrapping_add((class.index() as u64 + 1).wrapping_mul(0x94d0_49bb_1331_11eb))
                .wrapping_add(op.wrapping_mul(0x2545_f491_4f6c_dd1d)),
        );
        (z >> 32) as u32
    }

    /// Called by a substrate for each fault-eligible operation of `class`.
    ///
    /// Advances the class's operation counter and returns the fault to
    /// inject there, if any (first matching rule wins). Returns `None`
    /// without counting when the plan is disabled. Window-gated rules
    /// never match through this entry point — time-aware substrates use
    /// [`arm_at`](FaultPlan::arm_at).
    pub fn arm(&self, class: OpClass) -> Option<InjectedFault> {
        self.arm_inner(class, None)
    }

    /// Time-aware [`arm`](FaultPlan::arm): `now` is the substrate's virtual
    /// clock reading, checked against each rule's
    /// [`during`](FaultRule::during) window. Un-windowed rules behave
    /// exactly as under `arm`, so passing a time is always safe.
    pub fn arm_at(&self, class: OpClass, now: Duration) -> Option<InjectedFault> {
        self.arm_inner(class, Some(now))
    }

    fn arm_inner(&self, class: OpClass, now: Option<Duration>) -> Option<InjectedFault> {
        if !self.inner.enabled.load(Ordering::SeqCst) {
            return None;
        }
        let op = self.inner.counters[class.index()].fetch_add(1, Ordering::SeqCst);
        for (idx, state) in self.inner.rules.iter().enumerate() {
            if state.rule.kind.class() != class {
                continue;
            }
            if let Some((start, end)) = state.rule.window {
                match now {
                    Some(t) if t >= start && t < end => {}
                    _ => continue,
                }
            }
            let hit = match &state.rule.trigger {
                Trigger::AtOps(ops) => ops.contains(&op),
                Trigger::Probability(ppm) => self.roll(idx, class, op) < *ppm,
            };
            if !hit {
                continue;
            }
            // Take a firing slot, only while the rule is under its cap.
            let cap = state.rule.max_fires.unwrap_or(u32::MAX);
            let under_cap = |n: u32| (n < cap).then_some(n + 1);
            if state
                .fires
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, under_cap)
                .is_err()
            {
                continue;
            }
            self.inner.log.lock().push(FaultRecord {
                rule: idx,
                class,
                op_index: op,
                kind: state.rule.kind,
                delay: state.rule.delay,
            });
            return Some(InjectedFault {
                kind: state.rule.kind,
                delay: state.rule.delay,
                op_index: op,
            });
        }
        None
    }

    /// Every fault injected so far, in firing order.
    pub fn log(&self) -> Vec<FaultRecord> {
        self.inner.log.lock().clone()
    }

    /// Total number of faults injected so far.
    pub fn fired(&self) -> usize {
        self.inner.log.lock().len()
    }

    /// Operations of `class` seen while enabled.
    pub fn ops_seen(&self, class: OpClass) -> u64 {
        self.inner.counters[class.index()].load(Ordering::SeqCst)
    }
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.inner.seed)
            .field("rules", &self.inner.rules.len())
            .field("fired", &self.fired())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_ops_rule_fires_exactly_there() {
        let plan = FaultPlan::new(1, vec![FaultRule::at_ops(FaultKind::ConnError, &[1, 3])]);
        let hits: Vec<bool> = (0..5)
            .map(|_| plan.arm(OpClass::KvCommand).is_some())
            .collect();
        assert_eq!(hits, vec![false, true, false, true, false]);
        assert_eq!(plan.fired(), 2);
        assert_eq!(plan.log()[0].op_index, 1);
    }

    #[test]
    fn classes_have_independent_counters() {
        let plan = FaultPlan::new(
            1,
            vec![
                FaultRule::at_ops(FaultKind::ConnError, &[0]),
                FaultRule::at_ops(FaultKind::CommitFailed, &[0]),
            ],
        );
        // Burn a KV op first; the DB counter is untouched.
        assert!(plan.arm(OpClass::KvCommand).is_some());
        assert!(plan.arm(OpClass::DbCommit).is_some());
        assert_eq!(plan.ops_seen(OpClass::KvCommand), 1);
        assert_eq!(plan.ops_seen(OpClass::DbCommit), 1);
    }

    #[test]
    fn kind_class_mismatch_never_fires() {
        let plan = FaultPlan::new(1, vec![FaultRule::at_ops(FaultKind::CommitFailed, &[0])]);
        assert!(plan.arm(OpClass::KvCommand).is_none());
    }

    #[test]
    fn probability_is_deterministic_for_a_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::new(
                seed,
                vec![FaultRule::with_probability(FaultKind::ConnError, 0.3)],
            );
            (0..64)
                .map(|_| plan.arm(OpClass::KvCommand).is_some())
                .collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should differ");
        let fired = run(42).iter().filter(|h| **h).count();
        assert!((5..30).contains(&fired), "p=0.3 over 64 ops, got {fired}");
    }

    #[test]
    fn probability_extremes() {
        let never = FaultPlan::new(
            7,
            vec![FaultRule::with_probability(FaultKind::ConnError, 0.0)],
        );
        let always = FaultPlan::new(
            7,
            vec![FaultRule::with_probability(FaultKind::ConnError, 1.0)],
        );
        for _ in 0..32 {
            assert!(never.arm(OpClass::KvCommand).is_none());
            assert!(always.arm(OpClass::KvCommand).is_some());
        }
    }

    #[test]
    fn max_fires_caps_injections() {
        let plan = FaultPlan::new(
            7,
            vec![FaultRule::with_probability(FaultKind::ConnError, 1.0).max_fires(2)],
        );
        let fired = (0..10)
            .filter(|_| plan.arm(OpClass::KvCommand).is_some())
            .count();
        assert_eq!(fired, 2);
    }

    #[test]
    fn disabled_plan_neither_fires_nor_counts() {
        let plan = FaultPlan::new_disabled(1, vec![FaultRule::at_ops(FaultKind::ConnError, &[0])]);
        assert!(plan.arm(OpClass::KvCommand).is_none());
        assert_eq!(plan.ops_seen(OpClass::KvCommand), 0);
        plan.enable();
        assert!(plan.arm(OpClass::KvCommand).is_some());
    }

    #[test]
    fn overlapping_rules_first_match_wins_until_capped() {
        let plan = FaultPlan::new(
            1,
            vec![
                FaultRule::at_ops(FaultKind::ConnError, &[0, 1]).max_fires(1),
                FaultRule::at_ops(FaultKind::ReplyLost, &[0, 1, 2]),
            ],
        );
        // Op 0: both rules match; plan order decides.
        assert_eq!(
            plan.arm(OpClass::KvCommand).unwrap().kind,
            FaultKind::ConnError
        );
        // Op 1: rule 0 still matches but its budget is spent — the op falls
        // through to the next matching rule instead of being swallowed.
        assert_eq!(
            plan.arm(OpClass::KvCommand).unwrap().kind,
            FaultKind::ReplyLost
        );
        // Op 2: only rule 1 matches.
        assert_eq!(
            plan.arm(OpClass::KvCommand).unwrap().kind,
            FaultKind::ReplyLost
        );
        let rules: Vec<usize> = plan.log().iter().map(|r| r.rule).collect();
        assert_eq!(rules, vec![0, 1, 1]);
    }

    #[test]
    fn disable_window_does_not_consume_op_indices() {
        // The rule names "op 1"; operations issued while the plan is
        // disabled must not advance toward that coordinate.
        let plan = FaultPlan::new(1, vec![FaultRule::at_ops(FaultKind::ConnError, &[1])]);
        assert!(plan.arm(OpClass::KvCommand).is_none()); // op 0
        plan.disable();
        for _ in 0..5 {
            assert!(plan.arm(OpClass::KvCommand).is_none()); // uncounted
        }
        plan.enable();
        assert!(plan.arm(OpClass::KvCommand).is_some(), "this is op 1");
        assert_eq!(plan.ops_seen(OpClass::KvCommand), 2);
    }

    #[test]
    fn at_ops_hits_exact_boundaries_only() {
        // Index 0 (the very first operation) and an interior index, with
        // no off-by-one bleed into the neighbors.
        let plan = FaultPlan::new(1, vec![FaultRule::at_ops(FaultKind::ConnError, &[0, 4])]);
        let hits: Vec<bool> = (0..8)
            .map(|_| plan.arm(OpClass::KvCommand).is_some())
            .collect();
        assert_eq!(
            hits,
            vec![true, false, false, false, true, false, false, false]
        );
        assert_eq!(plan.ops_seen(OpClass::KvCommand), 8);
    }

    #[test]
    fn max_fires_zero_never_fires_but_still_counts_ops() {
        let plan = FaultPlan::new(
            1,
            vec![FaultRule::with_probability(FaultKind::ConnError, 1.0).max_fires(0)],
        );
        for _ in 0..4 {
            assert!(plan.arm(OpClass::KvCommand).is_none());
        }
        assert_eq!(plan.fired(), 0);
        assert_eq!(plan.ops_seen(OpClass::KvCommand), 4);
    }

    #[test]
    fn interleaved_classes_keep_rule_coordinates_stable() {
        // "KV op 2" stays KV op 2 no matter how many DB commits happen
        // in between — the per-class counters are the whole point.
        let plan = FaultPlan::new(1, vec![FaultRule::at_ops(FaultKind::ConnError, &[2])]);
        assert!(plan.arm(OpClass::KvCommand).is_none()); // kv 0
        assert!(plan.arm(OpClass::DbCommit).is_none()); // db 0
        assert!(plan.arm(OpClass::DbCommit).is_none()); // db 1
        assert!(plan.arm(OpClass::KvCommand).is_none()); // kv 1
        assert!(plan.arm(OpClass::KvCommand).is_some(), "kv 2 fires");
    }

    #[test]
    fn windowed_rule_fires_only_inside_its_window() {
        let ms = Duration::from_millis;
        let plan = FaultPlan::new(
            1,
            vec![FaultRule::with_probability(FaultKind::ConnError, 1.0).during(ms(100), ms(200))],
        );
        assert!(plan.arm_at(OpClass::KvCommand, ms(50)).is_none());
        assert!(plan.arm_at(OpClass::KvCommand, ms(100)).is_some());
        assert!(plan.arm_at(OpClass::KvCommand, ms(199)).is_some());
        assert!(
            plan.arm_at(OpClass::KvCommand, ms(200)).is_none(),
            "end is exclusive"
        );
        // Timeless arming can never hit a windowed rule.
        assert!(plan.arm(OpClass::KvCommand).is_none());
        // Ops outside the window still advanced the counter.
        assert_eq!(plan.ops_seen(OpClass::KvCommand), 5);
    }

    #[test]
    fn storm_rules_are_correlated_in_one_window() {
        let ms = Duration::from_millis;
        let kinds = [
            FaultKind::ConnError,
            FaultKind::ReplyLost,
            FaultKind::LatencySpike,
        ];
        let plan = FaultPlan::new(7, FaultRule::storm(&kinds, 1.0, ms(10), ms(20)));
        assert!(plan.arm_at(OpClass::KvCommand, ms(5)).is_none());
        let hit = plan
            .arm_at(OpClass::KvCommand, ms(15))
            .expect("inside the storm");
        assert_eq!(hit.kind, FaultKind::ConnError, "first rule wins");
        assert!(
            plan.arm_at(OpClass::KvCommand, ms(25)).is_none(),
            "storm healed"
        );
    }

    #[test]
    fn db_statement_class_has_its_own_counter_and_kind() {
        let plan = FaultPlan::new(1, vec![FaultRule::at_ops(FaultKind::DbPartitioned, &[1])]);
        assert!(plan.arm(OpClass::DbStatement).is_none()); // stmt 0
        assert!(plan.arm(OpClass::KvCommand).is_none()); // unrelated class
        assert!(plan.arm(OpClass::DbCommit).is_none()); // unrelated class
        assert!(plan.arm(OpClass::DbStatement).is_some(), "stmt 1 fires");
        assert_eq!(plan.ops_seen(OpClass::DbStatement), 2);
        assert_eq!(FaultKind::DbPartitioned.class(), OpClass::DbStatement);
    }

    #[test]
    fn kv_kinds_attach_to_kv_commands() {
        for kind in [
            FaultKind::ReplyLost,
            FaultKind::ConnError,
            FaultKind::LatencySpike,
            FaultKind::StoreRestart,
        ] {
            assert_eq!(kind.class(), OpClass::KvCommand, "{kind}");
        }
    }

    #[test]
    fn records_render_compactly() {
        let r = FaultRecord {
            rule: 0,
            class: OpClass::KvCommand,
            op_index: 3,
            kind: FaultKind::LatencySpike,
            delay: Duration::from_millis(2),
        };
        assert_eq!(r.to_string(), "latency-spike at kv-command op #3 (+2ms)");
    }
}
