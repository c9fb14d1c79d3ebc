//! Entity definitions and ORM-mapped objects.

use crate::error::OrmError;
use crate::Result;
use adhoc_storage::{Row, Schema, Value};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// A many-to-many touch cascade: when this entity is saved, follow
/// `join_table` from `fk_column`'s value to the parents and touch their
/// `updated_at` — the ProductCategories hop of the §3.1.1 Spree listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TouchVia {
    /// Column on the saved entity whose value seeds the join (product_id).
    pub fk_column: String,
    /// Join table (ProductCategories).
    pub join_table: String,
    /// Join-table column matched against `fk_column`'s value (product_id).
    pub join_left: String,
    /// Join-table column holding parent ids (category_id).
    pub join_right: String,
    /// Parent table whose `updated_at` is touched (Categories).
    pub parent_table: String,
}

/// A `validates` rule, checked against database state at save time —
/// feral concurrency control in Bailis et al.'s terminology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Validation {
    /// `validates :column, uniqueness: true` — SELECT-before-write; racy
    /// without a backing unique index.
    Uniqueness {
        /// The column that must be unique.
        column: String,
    },
    /// `validates :column, presence: true` — non-NULL, non-empty string.
    Presence {
        /// The column that must be present.
        column: String,
    },
    /// Numericality: `>= 0` (stock quantities, balances).
    NonNegative {
        /// The column that must be non-negative.
        column: String,
    },
}

/// Declarative entity metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntityDef {
    /// Entity (and table) name.
    pub name: String,
    /// Direct belongs_to touch cascades: (fk column, parent table).
    pub touches: Vec<(String, String)>,
    /// Many-to-many touch cascades.
    pub touches_via: Vec<TouchVia>,
    /// Validation rules run on create/save.
    pub validations: Vec<Validation>,
    /// Whether a `lock_version` column drives optimistic locking.
    pub optimistic_lock: bool,
    /// Whether the table has an `updated_at` column maintained on save.
    pub timestamps: bool,
}

impl EntityDef {
    /// A bare entity with no cascades, validations or locking.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            touches: Vec::new(),
            touches_via: Vec::new(),
            validations: Vec::new(),
            optimistic_lock: false,
            timestamps: false,
        }
    }

    /// `belongs_to :parent, touch: true`.
    pub fn touch(mut self, fk_column: &str, parent_table: &str) -> Self {
        self.touches
            .push((fk_column.to_string(), parent_table.to_string()));
        self
    }

    /// Touch through a many-to-many join.
    pub fn touch_via(mut self, via: TouchVia) -> Self {
        self.touches_via.push(via);
        self
    }

    /// Add a `validates` rule.
    pub fn validate(mut self, v: Validation) -> Self {
        self.validations.push(v);
        self
    }

    /// Enable `lock_version` optimistic locking (requires the column).
    pub fn with_lock_version(mut self) -> Self {
        self.optimistic_lock = true;
        self
    }

    /// Maintain `updated_at` on save.
    pub fn with_timestamps(mut self) -> Self {
        self.timestamps = true;
        self
    }
}

/// The registry of entity definitions, shared by every ORM handle.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    entities: HashMap<String, EntityDef>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add (or replace) an entity definition.
    pub fn register(mut self, def: EntityDef) -> Self {
        self.entities.insert(def.name.clone(), def);
        self
    }

    /// Look an entity up by name.
    pub fn get(&self, name: &str) -> Result<&EntityDef> {
        self.entities
            .get(name)
            .ok_or_else(|| OrmError::UnknownEntity {
                entity: name.to_string(),
            })
    }

    /// Registered entity names, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.entities.keys().map(|s| s.as_str()).collect();
        v.sort_unstable();
        v
    }
}

/// An ORM-mapped object: a row snapshot plus dirty-field tracking.
///
/// Mirrors the paper's observation (§2.1) that fetched relational data is
/// presented as in-memory runtime objects — including the pitfall that the
/// snapshot can go stale while business logic runs against it.
#[derive(Debug, Clone)]
pub struct Obj {
    /// Entity (table) name this object belongs to.
    pub entity: String,
    /// Primary key.
    pub id: i64,
    /// The table's one shared schema instance (never a per-object copy).
    schema: Arc<Schema>,
    row: Row,
    dirty: BTreeSet<String>,
    /// `lock_version` value at load time (for optimistic locking).
    pub loaded_version: Option<i64>,
}

impl Obj {
    pub(crate) fn from_row(entity: &str, schema: Arc<Schema>, id: i64, row: Row) -> Self {
        let loaded_version = schema
            .position("lock_version")
            .map(|idx| row.at(idx).as_int());
        Self {
            entity: entity.to_string(),
            id,
            schema,
            row,
            dirty: BTreeSet::new(),
            loaded_version,
        }
    }

    /// The entity's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Raw row snapshot.
    pub fn row(&self) -> &Row {
        &self.row
    }

    /// Value of a named field.
    pub fn get(&self, column: &str) -> Result<&Value> {
        Ok(self.row.get(&self.schema, column)?)
    }

    /// Integer shorthand for [`Obj::get`].
    pub fn get_int(&self, column: &str) -> Result<i64> {
        Ok(self.row.get_int(&self.schema, column)?)
    }

    /// String shorthand for [`Obj::get`].
    pub fn get_str(&self, column: &str) -> Result<String> {
        Ok(self.row.get_str(&self.schema, column)?)
    }

    /// Boolean shorthand for [`Obj::get`].
    pub fn get_bool(&self, column: &str) -> Result<bool> {
        Ok(self.row.get_bool(&self.schema, column)?)
    }

    /// Assign a field, marking it dirty.
    pub fn set(&mut self, column: &str, value: impl Into<Value>) -> Result<()> {
        self.row.values_mut()[self.schema.column_index(column)?] = value.into();
        if !self.dirty.contains(column) {
            self.dirty.insert(column.to_string());
        }
        Ok(())
    }

    /// Columns assigned since load.
    pub fn dirty_columns(&self) -> impl Iterator<Item = &str> {
        self.dirty.iter().map(|s| s.as_str())
    }

    /// True when any field has been assigned since load.
    pub fn is_dirty(&self) -> bool {
        !self.dirty.is_empty()
    }

    pub(crate) fn clear_dirty(&mut self) {
        self.dirty.clear();
    }

    pub(crate) fn bump_loaded_version(&mut self) {
        if let Some(v) = self.loaded_version.as_mut() {
            *v += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_storage::{Column, ColumnType};

    fn schema() -> Schema {
        Schema::new(
            "posts",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("content", ColumnType::Str),
                Column::new("lock_version", ColumnType::Int),
            ],
            "id",
        )
        .unwrap()
    }

    fn obj() -> Obj {
        let s = schema();
        let row = adhoc_storage::schema::row_from_pairs(
            &s,
            &[
                ("id", 1.into()),
                ("content", "hello".into()),
                ("lock_version", 3.into()),
            ],
        )
        .unwrap();
        Obj::from_row("posts", Arc::new(s), 1, row)
    }

    #[test]
    fn registry_lookup() {
        let reg = Registry::new()
            .register(EntityDef::new("posts"))
            .register(EntityDef::new("topics"));
        assert_eq!(reg.names(), vec!["posts", "topics"]);
        assert!(reg.get("posts").is_ok());
        assert!(matches!(
            reg.get("ghosts"),
            Err(OrmError::UnknownEntity { .. })
        ));
    }

    #[test]
    fn entity_def_builder() {
        let def = EntityDef::new("items")
            .touch("cart_id", "carts")
            .validate(Validation::NonNegative {
                column: "qty".into(),
            })
            .with_lock_version()
            .with_timestamps();
        assert_eq!(def.touches.len(), 1);
        assert!(def.optimistic_lock);
        assert!(def.timestamps);
    }

    #[test]
    fn obj_tracks_dirty_fields_and_version() {
        let mut o = obj();
        assert_eq!(o.loaded_version, Some(3));
        assert!(!o.is_dirty());
        o.set("content", "edited").unwrap();
        assert!(o.is_dirty());
        assert_eq!(o.dirty_columns().collect::<Vec<_>>(), vec!["content"]);
        assert_eq!(o.get_str("content").unwrap(), "edited");
        o.clear_dirty();
        assert!(!o.is_dirty());
        o.bump_loaded_version();
        assert_eq!(o.loaded_version, Some(4));
    }

    #[test]
    fn obj_without_lock_version_has_none() {
        let s = Schema::new(
            "plain",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("v", ColumnType::Int),
            ],
            "id",
        )
        .unwrap();
        let row = adhoc_storage::schema::row_from_pairs(&s, &[("id", 1.into()), ("v", 2.into())])
            .unwrap();
        let o = Obj::from_row("plain", Arc::new(s), 1, row);
        assert_eq!(o.loaded_version, None);
    }

    #[test]
    fn set_unknown_column_errors() {
        let mut o = obj();
        assert!(o.set("ghost", 1).is_err());
    }
}
