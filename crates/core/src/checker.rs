//! Periodic database consistency checking — "fsck for the database".
//!
//! §3.4.2 of the paper: because many ad hoc transactions skip rollback,
//! applications tolerate intermediate states and run periodic checkers
//! instead — "every twelve hours, Discourse checks and fixes inconsistent
//! references, such as missing avatars, thumbnails, and topics". This
//! module is a small framework for exactly such rules, with optional
//! auto-fix, used by the application models and the crash-recovery tests.

use adhoc_storage::{Database, Predicate, Value};
use std::collections::HashSet;
use std::fmt;

/// One detected inconsistency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the rule that fired.
    pub rule: String,
    /// Table containing the offending row.
    pub table: String,
    /// Offending primary key.
    pub row_id: i64,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} #{}: {}",
            self.rule, self.table, self.row_id, self.message
        )
    }
}

type CheckFn = Box<dyn Fn(&Database) -> Vec<Violation> + Send + Sync>;
type FixFn = Box<dyn Fn(&Database, &Violation) -> bool + Send + Sync>;

/// One named rule, with an optional fixer.
pub struct CheckRule {
    /// Rule name (appears in violations).
    pub name: String,
    check: CheckFn,
    fix: Option<FixFn>,
}

impl CheckRule {
    /// A detection-only rule.
    pub fn new(
        name: &str,
        check: impl Fn(&Database) -> Vec<Violation> + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.to_string(),
            check: Box::new(check),
            fix: None,
        }
    }

    /// Attach a fixer invoked per violation by `run_and_fix`.
    pub fn with_fix(
        mut self,
        fix: impl Fn(&Database, &Violation) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.fix = Some(Box::new(fix));
        self
    }
}

/// Result of one checker run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Report {
    /// Violations still standing after the run.
    pub violations: Vec<Violation>,
    /// Violations repaired (only via `run_and_fix`).
    pub fixed: usize,
}

impl Report {
    /// True when no violations remain.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A set of rules run together: the periodic job, and the boot-time
/// recovery pass — the generalized form of Spree's `boot_recovery` (§4.3:
/// payments stuck in `processing` after a crash).
///
/// A crash can leave state that is *transactionally* consistent — every
/// acknowledged commit survived, every unacknowledged one rolled back —
/// yet semantically stuck, because a multi-request state machine died
/// between its steps: a payment marked `processing` whose completion
/// request never ran, a counter behind the rows it summarizes, an audit
/// row whose paired write committed alone. The storage engine cannot see
/// these; only the application's invariants can. Each app module
/// registers its crash-sensitive rules in one of these (`boot_fsck()`)
/// and runs [`run_and_fix`](Self::run_and_fix) when a restarted process
/// finishes WAL replay: rules with fixers are repaired, rules without
/// stay as reported findings (states no automatic repair can honestly
/// resolve, like an over-captured payment).
#[derive(Default)]
pub struct ConsistencyChecker {
    rules: Vec<CheckRule>,
}

impl ConsistencyChecker {
    /// A checker with no rules.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a rule.
    pub fn rule(mut self, rule: CheckRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Run all rules, reporting violations without touching data.
    pub fn run(&self, db: &Database) -> Report {
        let mut report = Report::default();
        for rule in &self.rules {
            report.violations.extend((rule.check)(db));
        }
        report
    }

    /// Run all rules and apply fixes where available (Discourse's mode,
    /// and the boot hook). `fixed` counts repaired states; `violations`
    /// are findings that remain (detection-only rules or failed fixes)
    /// and should surface to an operator.
    pub fn run_and_fix(&self, db: &Database) -> Report {
        let mut report = Report::default();
        for rule in &self.rules {
            for v in (rule.check)(db) {
                let fixed = rule.fix.as_ref().map(|f| f(db, &v)).unwrap_or(false);
                if fixed {
                    report.fixed += 1;
                } else {
                    report.violations.push(v);
                }
            }
        }
        report
    }
}

/// Rule builder for the §4.3 shape: rows of `table` whose `column` is
/// stuck in the `stuck` state are reset to `reset_to` on boot — Spree's
/// `processing` → `new` payments, generalized.
pub fn stuck_state(table: &str, column: &str, stuck: &str, reset_to: &str) -> CheckRule {
    let table = table.to_string();
    let column = column.to_string();
    let stuck = stuck.to_string();
    let reset_to = reset_to.to_string();
    let name = format!("stuck:{table}.{column}={stuck}");
    let fix_column = column.clone();
    let fix_reset = reset_to.clone();
    CheckRule::new(&name.clone(), move |db| {
        let (Ok(rows), Ok(schema)) = (db.dump_table(&table), db.schema(&table)) else {
            return Vec::new();
        };
        rows.iter()
            .filter(|(_, row)| {
                row.get_str(&schema, &column).ok().as_deref() == Some(stuck.as_str())
            })
            .map(|(id, _)| Violation {
                rule: name.clone(),
                table: table.clone(),
                row_id: *id,
                message: format!("{column} stuck in {stuck:?}; reset to {reset_to:?}"),
            })
            .collect()
    })
    .with_fix(move |db, v| {
        db.run(adhoc_storage::IsolationLevel::ReadCommitted, |t| {
            t.update(
                &v.table,
                v.row_id,
                &[(fix_column.as_str(), fix_reset.clone().into())],
            )
        })
        .is_ok()
    })
}

/// Rule builder: every `child.fk_column` must reference a live row of
/// `parent` — the missing-avatar / dangling-thumbnail class of check.
pub fn referential_integrity(child: &str, fk_column: &str, parent: &str) -> CheckRule {
    let child = child.to_string();
    let fk = fk_column.to_string();
    let parent = parent.to_string();
    let name = format!("ref:{child}.{fk}->{parent}");
    CheckRule::new(&name.clone(), move |db| {
        let Ok(children) = db.dump_table(&child) else {
            return Vec::new();
        };
        let Ok(parents) = db.dump_table(&parent) else {
            return Vec::new();
        };
        let live: HashSet<i64> = parents.iter().map(|(id, _)| *id).collect();
        let Ok(schema) = db.schema(&child) else {
            return Vec::new();
        };
        children
            .iter()
            .filter_map(|(id, row)| {
                let fk_val = row.get(&schema, &fk).ok()?;
                match fk_val {
                    Value::Int(p) if !live.contains(p) => Some(Violation {
                        rule: name.clone(),
                        table: child.clone(),
                        row_id: *id,
                        message: format!("{fk} = {p} references a missing {parent} row"),
                    }),
                    _ => None,
                }
            })
            .collect()
    })
}

/// Rule builder: `table.column` must satisfy `pred` on every live row
/// (e.g., "no payment stuck in 'processing'").
pub fn column_invariant(table: &str, rule_name: &str, pred: Predicate, message: &str) -> CheckRule {
    let table = table.to_string();
    let name = rule_name.to_string();
    let message = message.to_string();
    CheckRule::new(&name.clone(), move |db| {
        let Ok(rows) = db.dump_table(&table) else {
            return Vec::new();
        };
        let Ok(schema) = db.schema(&table) else {
            return Vec::new();
        };
        rows.iter()
            .filter_map(|(id, row)| match pred.matches(&schema, row) {
                Ok(true) => None,
                _ => Some(Violation {
                    rule: name.clone(),
                    table: table.clone(),
                    row_id: *id,
                    message: message.clone(),
                }),
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_storage::{Column, ColumnType, EngineProfile, IsolationLevel, Schema};

    fn fixture() -> Database {
        let db = Database::in_memory(EngineProfile::PostgresLike);
        db.create_table(
            Schema::new("topics", vec![Column::new("id", ColumnType::Int)], "id").unwrap(),
        )
        .unwrap();
        db.create_table(
            Schema::new(
                "posts",
                vec![
                    Column::new("id", ColumnType::Int),
                    Column::new("topic_id", ColumnType::Int),
                ],
                "id",
            )
            .unwrap(),
        )
        .unwrap();
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.insert("topics", &[("id", 1.into())])?;
            t.insert("posts", &[("id", 10.into()), ("topic_id", 1.into())])?;
            t.insert("posts", &[("id", 11.into()), ("topic_id", 99.into())])?; // dangling
            Ok(())
        })
        .unwrap();
        db
    }

    #[test]
    fn referential_rule_finds_dangling_references() {
        let db = fixture();
        let checker =
            ConsistencyChecker::new().rule(referential_integrity("posts", "topic_id", "topics"));
        let report = checker.run(&db);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].row_id, 11);
        assert!(!report.is_clean());
        assert!(report.violations[0].to_string().contains("topic_id"));
    }

    #[test]
    fn fixer_repairs_and_reports_clean() {
        let db = fixture();
        let checker = ConsistencyChecker::new().rule(
            referential_integrity("posts", "topic_id", "topics").with_fix(|db, v| {
                db.run(IsolationLevel::ReadCommitted, |t| {
                    t.delete(&v.table, v.row_id)
                })
                .is_ok()
            }),
        );
        let report = checker.run_and_fix(&db);
        assert_eq!(report.fixed, 1);
        assert!(report.is_clean());
        // Second run: nothing left.
        assert!(checker.run(&db).is_clean());
        assert!(db.latest_committed("posts", 11).unwrap().is_none());
    }

    #[test]
    fn column_invariant_rule() {
        let db = fixture();
        let checker = ConsistencyChecker::new().rule(column_invariant(
            "posts",
            "posts-have-positive-topic",
            Predicate::ge("topic_id", 1),
            "topic_id must be positive",
        ));
        assert!(checker.run(&db).is_clean());
        db.run(IsolationLevel::ReadCommitted, |t| {
            t.insert("posts", &[("id", 12.into()), ("topic_id", (-5).into())])
                .map(|_| ())
        })
        .unwrap();
        let report = checker.run(&db);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].row_id, 12);
    }

    #[test]
    fn run_and_fix_is_idempotent() {
        let db = fixture();
        let checker = ConsistencyChecker::new().rule(
            referential_integrity("posts", "topic_id", "topics").with_fix(|db, v| {
                db.run(IsolationLevel::ReadCommitted, |t| {
                    t.delete(&v.table, v.row_id)
                })
                .is_ok()
            }),
        );
        let first = checker.run_and_fix(&db);
        assert_eq!(first.fixed, 1);
        assert!(first.is_clean());
        // Second pass over the repaired database: nothing fires, nothing is
        // re-fixed — the report is exactly the no-op report.
        let second = checker.run_and_fix(&db);
        assert_eq!(second, Report::default());
    }

    #[test]
    fn later_rules_check_post_fix_state() {
        let db = fixture();
        // Rule 1 repairs the dangling reference; rule 2 is the same check
        // detection-only. Because each rule re-scans when its turn comes,
        // rule 2 must see the repaired table and stay quiet.
        let checker = ConsistencyChecker::new()
            .rule(
                referential_integrity("posts", "topic_id", "topics").with_fix(|db, v| {
                    db.run(IsolationLevel::ReadCommitted, |t| {
                        t.delete(&v.table, v.row_id)
                    })
                    .is_ok()
                }),
            )
            .rule(referential_integrity("posts", "topic_id", "topics"));
        let report = checker.run_and_fix(&db);
        assert_eq!(report.fixed, 1);
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn unfixable_violations_stay_reported() {
        let db = fixture();
        let checker = ConsistencyChecker::new()
            .rule(referential_integrity("posts", "topic_id", "topics").with_fix(|_, _| false));
        let report = checker.run_and_fix(&db);
        assert_eq!(report.fixed, 0);
        assert_eq!(report.violations.len(), 1);
    }

    #[test]
    fn empty_checker_is_clean() {
        let db = fixture();
        assert!(ConsistencyChecker::new().run(&db).is_clean());
    }
}
