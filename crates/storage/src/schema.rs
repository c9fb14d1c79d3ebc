//! Table schemas and rows.

use crate::error::DbError;
pub use crate::value::ColumnType;
use crate::value::Value;
use crate::Result;
use std::sync::Arc;

/// A column declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub ty: ColumnType,
    /// Whether NULL is permitted.
    pub nullable: bool,
}

impl Column {
    /// A non-nullable column.
    pub fn new(name: &str, ty: ColumnType) -> Self {
        Self {
            name: name.to_string(),
            ty,
            nullable: false,
        }
    }

    /// Permit NULL values.
    pub fn nullable(mut self) -> Self {
        self.nullable = true;
        self
    }
}

/// A table schema: named columns, an integer primary key, and ordered
/// secondary indexes (non-unique unless marked).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// Table name.
    pub table: String,
    /// Column declarations, in storage order.
    pub columns: Vec<Column>,
    /// Index into `columns` of the integer primary key.
    pub primary_key: usize,
    /// Secondary indexes: (column index, unique?).
    pub indexes: Vec<(usize, bool)>,
}

impl Schema {
    /// Build a schema. The primary key column must exist and be `Int`.
    pub fn new(table: &str, columns: Vec<Column>, primary_key: &str) -> Result<Self> {
        let pk = columns
            .iter()
            .position(|c| c.name == primary_key)
            .ok_or_else(|| DbError::NoSuchColumn {
                table: table.to_string(),
                column: primary_key.to_string(),
            })?;
        if columns[pk].ty != ColumnType::Int {
            return Err(DbError::TypeMismatch {
                table: table.to_string(),
                column: primary_key.to_string(),
                expected: ColumnType::Int,
                found: Some(columns[pk].ty),
            });
        }
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            if !seen.insert(c.name.as_str()) {
                return Err(DbError::DuplicateColumn {
                    table: table.to_string(),
                    column: c.name.clone(),
                });
            }
        }
        Ok(Self {
            table: table.to_string(),
            columns,
            primary_key: pk,
            indexes: Vec::new(),
        })
    }

    /// Add a non-unique ordered secondary index.
    pub fn with_index(mut self, column: &str) -> Result<Self> {
        let idx = self.column_index(column)?;
        self.indexes.push((idx, false));
        Ok(self)
    }

    /// Add a unique secondary index.
    pub fn with_unique_index(mut self, column: &str) -> Result<Self> {
        let idx = self.column_index(column)?;
        self.indexes.push((idx, true));
        Ok(self)
    }

    /// Position of a named column, `None` when the table has no such
    /// column — for callers to whom a miss is an answer, not an error.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Position of a named column.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.position(name).ok_or_else(|| DbError::NoSuchColumn {
            table: self.table.clone(),
            column: name.to_string(),
        })
    }

    /// Validate a full row against the schema (arity, types, nullability).
    pub fn validate_row(&self, row: &Row) -> Result<()> {
        if row.values.len() != self.columns.len() {
            return Err(DbError::ArityMismatch {
                table: self.table.clone(),
                expected: self.columns.len(),
                found: row.values.len(),
            });
        }
        for (col, val) in self.columns.iter().zip(row.values.iter()) {
            match val.column_type() {
                None if col.nullable => {}
                None => {
                    return Err(DbError::NotNullViolation {
                        table: self.table.clone(),
                        column: col.name.clone(),
                    })
                }
                Some(t) if t == col.ty => {}
                Some(t) => {
                    return Err(DbError::TypeMismatch {
                        table: self.table.clone(),
                        column: col.name.clone(),
                        expected: col.ty,
                        found: Some(t),
                    })
                }
            }
        }
        Ok(())
    }
}

/// A materialized row. Values are positional; use the schema for names.
///
/// The values are one immutable, reference-counted block: a committed
/// version is stored once and every read hands out the same block
/// (`clone` is a count bump, never a copy). A writer goes through
/// [`values_mut`](Row::values_mut), which copies the block first when
/// anyone else still holds it, so a row a caller was handed can never
/// change under it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Column values in schema order.
    pub values: Arc<[Value]>,
}

impl Row {
    /// A row from positional values (validated by the schema on write).
    pub fn new(values: Vec<Value>) -> Self {
        Self {
            values: values.into(),
        }
    }

    /// Value at a column position.
    pub fn at(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// The values for writing in place: this handle's own block, copied
    /// first if it is shared (copy on write).
    pub fn values_mut(&mut self) -> &mut [Value] {
        Arc::make_mut(&mut self.values)
    }

    /// Value of a named column (resolved through the schema).
    pub fn get<'a>(&'a self, schema: &Schema, column: &str) -> Result<&'a Value> {
        Ok(&self.values[schema.column_index(column)?])
    }

    /// Integer shorthand for `get`.
    pub fn get_int(&self, schema: &Schema, column: &str) -> Result<i64> {
        Ok(self.get(schema, column)?.as_int())
    }

    /// String shorthand for `get`.
    pub fn get_str(&self, schema: &Schema, column: &str) -> Result<String> {
        Ok(self.get(schema, column)?.as_str().to_string())
    }

    /// Boolean shorthand for `get`.
    pub fn get_bool(&self, schema: &Schema, column: &str) -> Result<bool> {
        Ok(self.get(schema, column)?.as_bool())
    }

    /// Copy with one named column replaced.
    pub fn with(&self, schema: &Schema, column: &str, value: Value) -> Result<Row> {
        let idx = schema.column_index(column)?;
        let mut row = self.clone();
        row.values_mut()[idx] = value;
        Ok(row)
    }
}

/// Build a row from `(column, value)` pairs in schema order; missing
/// nullable columns default to NULL.
pub fn row_from_pairs(schema: &Schema, pairs: &[(&str, Value)]) -> Result<Row> {
    let mut row = Row {
        values: schema.columns.iter().map(|_| Value::Null).collect(),
    };
    let values = row.values_mut();
    for (name, value) in pairs {
        values[schema.column_index(name)?] = value.clone();
    }
    schema.validate_row(&row)?;
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(
            "skus",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("name", ColumnType::Str),
                Column::new("quantity", ColumnType::Int),
                Column::new("note", ColumnType::Str).nullable(),
            ],
            "id",
        )
        .unwrap()
        .with_index("quantity")
        .unwrap()
    }

    #[test]
    fn schema_resolves_columns() {
        let s = schema();
        assert_eq!(s.primary_key, 0);
        assert_eq!(s.column_index("quantity").unwrap(), 2);
        assert!(matches!(
            s.column_index("nope"),
            Err(DbError::NoSuchColumn { .. })
        ));
        assert_eq!(s.indexes, vec![(2, false)]);
    }

    #[test]
    fn non_int_primary_key_is_rejected() {
        let err = Schema::new("t", vec![Column::new("id", ColumnType::Str)], "id").unwrap_err();
        assert!(matches!(err, DbError::TypeMismatch { .. }));
    }

    #[test]
    fn duplicate_columns_are_rejected() {
        let err = Schema::new(
            "t",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("id", ColumnType::Int),
            ],
            "id",
        )
        .unwrap_err();
        assert!(matches!(err, DbError::DuplicateColumn { .. }));
    }

    #[test]
    fn validate_row_checks_arity_types_nulls() {
        let s = schema();
        let good = Row::new(vec![1.into(), "a".into(), 5.into(), Value::Null]);
        s.validate_row(&good).unwrap();

        let short = Row::new(vec![1.into()]);
        assert!(matches!(
            s.validate_row(&short),
            Err(DbError::ArityMismatch { .. })
        ));

        let bad_type = Row::new(vec![1.into(), "a".into(), "five".into(), Value::Null]);
        assert!(matches!(
            s.validate_row(&bad_type),
            Err(DbError::TypeMismatch { .. })
        ));

        let bad_null = Row::new(vec![1.into(), Value::Null, 5.into(), Value::Null]);
        assert!(matches!(
            s.validate_row(&bad_null),
            Err(DbError::NotNullViolation { .. })
        ));
    }

    #[test]
    fn row_accessors_and_with() {
        let s = schema();
        let r = row_from_pairs(
            &s,
            &[
                ("id", 1.into()),
                ("name", "x".into()),
                ("quantity", 9.into()),
            ],
        )
        .unwrap();
        assert_eq!(r.get_int(&s, "quantity").unwrap(), 9);
        assert_eq!(r.get_str(&s, "name").unwrap(), "x");
        assert!(r.get(&s, "note").unwrap().is_null());
        let r2 = r.with(&s, "quantity", 4.into()).unwrap();
        assert_eq!(r2.get_int(&s, "quantity").unwrap(), 4);
        assert_eq!(r.get_int(&s, "quantity").unwrap(), 9);
    }

    #[test]
    fn row_from_pairs_validates() {
        let s = schema();
        // Missing non-nullable "name" -> NULL -> violation.
        let err = row_from_pairs(&s, &[("id", 1.into()), ("quantity", 2.into())]).unwrap_err();
        assert!(matches!(err, DbError::NotNullViolation { .. }));
    }
}
