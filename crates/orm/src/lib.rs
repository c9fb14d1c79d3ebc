//! An Active-Record-flavoured ORM over [`adhoc_storage`].
//!
//! The studied applications issue almost all database operations through
//! ORM frameworks (§2.1 of the paper), and several of the paper's findings
//! are specifically about ORM behaviour:
//!
//! * `save()` transparently generates statements the developer never wrote —
//!   the §3.1.1 Spree listing where saving a SKU also touches `updated_at`
//!   on the product and, through a many-to-many join, on every category.
//!   [`EntityDef::touch`] and [`EntityDef::touch_via`] reproduce this.
//! * *Invariant validation* APIs (`validates` in Active Record) check
//!   invariants by examining database state at write time — the "feral
//!   concurrency control" of Bailis et al., racy without a database
//!   constraint backing them. [`Validation`] reproduces this, including the
//!   race.
//! * *ORM-assisted optimistic locking*: a `lock_version` column makes every
//!   update a `WHERE id = ? AND lock_version = ?` statement, giving atomic
//!   validate-and-commit (§3.2.2, §4.1.2). [`EntityDef::with_lock_version`]
//!   reproduces it, surfacing conflicts as [`OrmError::StaleObject`].
//! * The MiniSql bypass: queries issued through an interface the ORM does
//!   not intercept run *outside* the ambient transaction block — the
//!   Discourse reviewables bug (§4.1.2). [`Orm::mini_sql`] reproduces it.
//!
//! Two modules carry the paper's §7 cures: [`occ`] (field-granular
//! optimistic transactions that validate on save, with continuations) and
//! [`coord`] (one façade over the engine's coordination hints: advisory
//! user locks, `FOR UPDATE` row locks, per-operation Read Committed reads
//! and escrow reservations).
//!
//! # Example
//!
//! ```
//! use adhoc_orm::{EntityDef, Orm, Registry};
//! use adhoc_storage::{Column, ColumnType, Database, EngineProfile, Schema};
//!
//! let db = Database::in_memory(EngineProfile::PostgresLike);
//! db.create_table(Schema::new(
//!     "posts",
//!     vec![
//!         Column::new("id", ColumnType::Int),
//!         Column::new("content", ColumnType::Str),
//!         Column::new("lock_version", ColumnType::Int),
//!     ],
//!     "id",
//! ).unwrap()).unwrap();
//! let orm = Orm::new(db, Registry::new().register(EntityDef::new("posts").with_lock_version()));
//!
//! let mut post = orm.create("posts", &[("content", "hello".into())])?;
//! post.set("content", "edited")?;
//! orm.save(&mut post)?; // optimistic: WHERE id = ? AND lock_version = ?
//! assert_eq!(orm.find_required("posts", post.id)?.get_str("content")?, "edited");
//! # Ok::<(), adhoc_orm::OrmError>(())
//! ```

#![warn(missing_docs)]

pub mod coord;
pub mod entity;
pub mod error;
pub mod occ;
#[allow(clippy::module_inception)]
pub mod orm;

pub use coord::{CoordGuard, Coordinator};
pub use entity::{EntityDef, Obj, Registry, TouchVia, Validation};
pub use error::OrmError;
pub use occ::{run_occ, ContinuationStore, OccTxn};
pub use orm::{MiniSql, Orm, OrmTxn};

/// Result alias for ORM operations.
pub type Result<T> = std::result::Result<T, OrmError>;
