//! Scan predicates and index intervals.
//!
//! Predicates are deliberately simple — equality, range, conjunction —
//! because that is what the studied applications issue (§3.3.2: "all based
//! on equality predicates" for predicate locking, plus ranges for
//! completeness). Intervals are the unit of gap locking and of SSI
//! predicate-read tracking.

use crate::schema::{Row, Schema};
use crate::value::Value;
use crate::Result;
use std::ops::Bound;

/// A row predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// Every row.
    All,
    /// `column = value`.
    Eq(String, Value),
    /// `low <= column <= high` with optional open ends.
    Range {
        /// Column the range applies to.
        column: String,
        /// Lower bound.
        low: Bound<Value>,
        /// Upper bound.
        high: Bound<Value>,
    },
    /// Conjunction.
    And(Vec<Predicate>),
}

impl Predicate {
    /// `column = value` shorthand.
    pub fn eq(column: &str, value: impl Into<Value>) -> Self {
        Predicate::Eq(column.to_string(), value.into())
    }

    /// `column >= low` shorthand.
    pub fn ge(column: &str, low: impl Into<Value>) -> Self {
        Predicate::Range {
            column: column.to_string(),
            low: Bound::Included(low.into()),
            high: Bound::Unbounded,
        }
    }

    /// `low <= column <= high` shorthand.
    pub fn between(column: &str, low: impl Into<Value>, high: impl Into<Value>) -> Self {
        Predicate::Range {
            column: column.to_string(),
            low: Bound::Included(low.into()),
            high: Bound::Included(high.into()),
        }
    }

    /// Evaluate against a row: [`bind`](Self::bind), then match. Callers
    /// with many rows bind once and match each.
    pub fn matches(&self, schema: &Schema, row: &Row) -> Result<bool> {
        Ok(self.bind(schema)?.matches(row))
    }

    /// Resolve every column name to its position in `schema`, once, so
    /// that matching a row is comparisons only. Fails on the first column
    /// the table does not have.
    pub(crate) fn bind(&self, schema: &Schema) -> Result<BoundPredicate<'_>> {
        let mut bound = BoundPredicate::default();
        self.bind_into(schema, &mut bound)?;
        Ok(bound)
    }

    fn bind_into<'p>(&'p self, schema: &Schema, bound: &mut BoundPredicate<'p>) -> Result<()> {
        let test = match self {
            Predicate::All => return Ok(()),
            Predicate::Eq(col, v) => ColumnTest::Eq(schema.column_index(col)?, v),
            Predicate::Range { column, low, high } => ColumnTest::Range {
                column: schema.column_index(column)?,
                low: low.as_ref(),
                high: high.as_ref(),
            },
            Predicate::And(ps) => return ps.iter().try_for_each(|p| p.bind_into(schema, bound)),
        };
        match bound.inline.iter_mut().find(|slot| slot.is_none()) {
            Some(slot) => *slot = Some(test),
            None => bound.spill.push(test),
        }
        Ok(())
    }

    /// The single column this predicate can be served by an index on, if
    /// any: `Eq`/`Range` directly, or the first indexable conjunct.
    pub fn index_column(&self) -> Option<(&str, ValueInterval)> {
        match self {
            Predicate::All => None,
            Predicate::Eq(col, v) => Some((col, ValueInterval::point(v.clone()))),
            Predicate::Range { column, low, high } => Some((
                column,
                ValueInterval {
                    low: low.clone(),
                    high: high.clone(),
                },
            )),
            Predicate::And(ps) => ps.iter().find_map(|p| p.index_column()),
        }
    }
}

/// A [`Predicate`] with its column names resolved against one table's
/// schema — what a statement evaluates per row. Conjunction is the only
/// combinator, so nested `And`s flatten into one list of column tests,
/// evaluated in order. The first two live inline: binding
/// `id = ? AND lock_version = ?` (every optimistic save) allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct BoundPredicate<'p> {
    inline: [Option<ColumnTest<'p>>; 2],
    spill: Vec<ColumnTest<'p>>,
}

#[derive(Debug)]
enum ColumnTest<'p> {
    Eq(usize, &'p Value),
    Range {
        column: usize,
        low: Bound<&'p Value>,
        high: Bound<&'p Value>,
    },
}

impl BoundPredicate<'_> {
    /// Evaluate against a row of the schema this predicate was bound to.
    /// Plain loops, which inline into the scan calling them, one call per
    /// column test (an iterator chain here compiled to an out-of-line
    /// `try_fold` call per row). Slots fill in order, so an empty inline
    /// slot ends the tests; the spill holds the ones past the inline slots.
    pub(crate) fn matches(&self, row: &Row) -> bool {
        for test in &self.inline {
            match test {
                Some(test) if !test.matches(row) => return false,
                Some(_) => {}
                None => return true,
            }
        }
        for test in &self.spill {
            if !test.matches(row) {
                return false;
            }
        }
        true
    }
}

impl ColumnTest<'_> {
    fn matches(&self, row: &Row) -> bool {
        match self {
            ColumnTest::Eq(col, v) => row.at(*col) == *v,
            ColumnTest::Range { column, low, high } => {
                let v = row.at(*column);
                let lo_ok = match low {
                    Bound::Unbounded => true,
                    Bound::Included(b) => v >= *b,
                    Bound::Excluded(b) => v > *b,
                };
                let hi_ok = match high {
                    Bound::Unbounded => true,
                    Bound::Included(b) => v <= *b,
                    Bound::Excluded(b) => v < *b,
                };
                lo_ok && hi_ok
            }
        }
    }
}

/// A closed/open/unbounded interval over [`Value`]s — the footprint of a
/// predicate on an ordered index, and the unit of gap locking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueInterval {
    /// Lower bound.
    pub low: Bound<Value>,
    /// Upper bound.
    pub high: Bound<Value>,
}

impl ValueInterval {
    /// The degenerate interval containing exactly `v`.
    pub fn point(v: Value) -> Self {
        Self {
            low: Bound::Included(v.clone()),
            high: Bound::Included(v),
        }
    }

    /// The unbounded interval containing every value.
    pub fn all() -> Self {
        Self {
            low: Bound::Unbounded,
            high: Bound::Unbounded,
        }
    }

    /// Does the interval contain `v`?
    pub fn contains(&self, v: &Value) -> bool {
        let lo_ok = match &self.low {
            Bound::Unbounded => true,
            Bound::Included(b) => v >= b,
            Bound::Excluded(b) => v > b,
        };
        let hi_ok = match &self.high {
            Bound::Unbounded => true,
            Bound::Included(b) => v <= b,
            Bound::Excluded(b) => v < b,
        };
        lo_ok && hi_ok
    }

    /// Widen to the next-key envelope: given the nearest committed index
    /// keys strictly outside the requested interval, produce the gap-locked
    /// interval (exclusive of the neighbours themselves).
    ///
    /// This is how an InnoDB-style next-key scan over a non-unique index
    /// ends up covering `(prev_key, next_key)` — the §3.3.2 example where a
    /// search for `order_id = 10` with neighbours `{9, 12}` locks the whole
    /// gap `(9, 12)` and blocks an unrelated insert of `11`.
    pub fn widen_to_gap(&self, prev_key: Option<Value>, next_key: Option<Value>) -> ValueInterval {
        ValueInterval {
            low: match prev_key {
                Some(k) => Bound::Excluded(k),
                None => Bound::Unbounded,
            },
            high: match next_key {
                Some(k) => Bound::Excluded(k),
                None => Bound::Unbounded,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{row_from_pairs, Column, Schema};
    use crate::value::ColumnType;

    fn schema() -> Schema {
        Schema::new(
            "payments",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("order_id", ColumnType::Int),
                Column::new("state", ColumnType::Str),
            ],
            "id",
        )
        .unwrap()
    }

    fn row(id: i64, order: i64, state: &str) -> Row {
        row_from_pairs(
            &schema(),
            &[
                ("id", id.into()),
                ("order_id", order.into()),
                ("state", state.into()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn eq_and_all_match() {
        let s = schema();
        let r = row(1, 10, "new");
        assert!(Predicate::All.matches(&s, &r).unwrap());
        assert!(Predicate::eq("order_id", 10).matches(&s, &r).unwrap());
        assert!(!Predicate::eq("order_id", 11).matches(&s, &r).unwrap());
    }

    #[test]
    fn range_bounds_behave() {
        let s = schema();
        let r = row(1, 10, "new");
        assert!(Predicate::between("order_id", 5, 10)
            .matches(&s, &r)
            .unwrap());
        assert!(Predicate::ge("order_id", 10).matches(&s, &r).unwrap());
        assert!(!Predicate::ge("order_id", 11).matches(&s, &r).unwrap());
        let excl = Predicate::Range {
            column: "order_id".into(),
            low: Bound::Excluded(Value::Int(10)),
            high: Bound::Unbounded,
        };
        assert!(!excl.matches(&s, &r).unwrap());
    }

    #[test]
    fn and_is_conjunction() {
        let s = schema();
        let r = row(1, 10, "new");
        let p = Predicate::And(vec![
            Predicate::eq("order_id", 10),
            Predicate::eq("state", "new"),
        ]);
        assert!(p.matches(&s, &r).unwrap());
        let p2 = Predicate::And(vec![
            Predicate::eq("order_id", 10),
            Predicate::eq("state", "paid"),
        ]);
        assert!(!p2.matches(&s, &r).unwrap());
        // Nested conjunctions flatten, past the tests held inline; every
        // one still decides, and so does an unknown column among them.
        let nested = |last: Predicate| {
            Predicate::And(vec![
                Predicate::All,
                Predicate::And(vec![Predicate::eq("id", 1), Predicate::ge("order_id", 10)]),
                Predicate::eq("state", "new"),
                last,
            ])
        };
        assert!(nested(Predicate::between("id", 0, 1))
            .matches(&s, &r)
            .unwrap());
        assert!(!nested(Predicate::between("id", 2, 3))
            .matches(&s, &r)
            .unwrap());
        assert!(nested(Predicate::eq("ghost", 1)).matches(&s, &r).is_err());
    }

    #[test]
    fn a_failing_test_decides_in_any_position() {
        // One to four tests fill the inline slots, then the spill; one
        // failing test anywhere makes the conjunction false, none true.
        let s = schema();
        let r = row(1, 10, "new");
        for len in 1..=4 {
            for failing in (0..len).map(Some).chain([None]) {
                let p = Predicate::And(
                    (0..len)
                        .map(|i| {
                            Predicate::eq("order_id", if Some(i) == failing { 11 } else { 10 })
                        })
                        .collect(),
                );
                assert_eq!(
                    p.matches(&s, &r).unwrap(),
                    failing.is_none(),
                    "{len} tests, failing at {failing:?}"
                );
            }
        }
    }

    #[test]
    fn unknown_column_errors() {
        let s = schema();
        let r = row(1, 10, "new");
        assert!(Predicate::eq("ghost", 1).matches(&s, &r).is_err());
    }

    #[test]
    fn index_column_extraction() {
        let p = Predicate::eq("order_id", 10);
        let (col, iv) = p.index_column().unwrap();
        assert_eq!(col, "order_id");
        assert!(iv.contains(&Value::Int(10)));
        assert!(!iv.contains(&Value::Int(11)));
        assert!(Predicate::All.index_column().is_none());
        let and = Predicate::And(vec![Predicate::All, Predicate::eq("state", "new")]);
        assert_eq!(and.index_column().unwrap().0, "state");
    }

    #[test]
    fn widen_to_gap_covers_the_paper_example() {
        // Search order_id = 10 with committed neighbours {9, 12}: the gap is
        // (9, 12); an insert of 11 falls inside, 9 and 12 do not.
        let iv = ValueInterval::point(Value::Int(10));
        let gap = iv.widen_to_gap(Some(Value::Int(9)), Some(Value::Int(12)));
        assert!(gap.contains(&Value::Int(10)));
        assert!(gap.contains(&Value::Int(11)));
        assert!(!gap.contains(&Value::Int(9)));
        assert!(!gap.contains(&Value::Int(12)));
        // Open-ended: no next key -> infinity (the check-out hot interval).
        let gap = iv.widen_to_gap(Some(Value::Int(9)), None);
        assert!(gap.contains(&Value::Int(1_000_000)));
    }

    #[test]
    fn interval_all_contains_everything() {
        let iv = ValueInterval::all();
        assert!(iv.contains(&Value::Int(i64::MIN)));
        assert!(iv.contains(&Value::Str("zzz".into())));
    }
}
