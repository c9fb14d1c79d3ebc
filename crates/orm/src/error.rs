//! ORM error surface.

use adhoc_storage::DbError;
use std::fmt;

/// Every error the ORM can surface to application code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrmError {
    /// Underlying database error.
    Db(DbError),
    /// Optimistic-lock conflict: the row's `lock_version` moved underneath
    /// us (Active Record's `ActiveRecord::StaleObjectError`).
    StaleObject {
        /// Entity name.
        entity: String,
        /// Primary key of the stale object.
        id: i64,
    },
    /// An application-level `validates` rule failed.
    ValidationFailed {
        /// Entity name.
        entity: String,
        /// Column the rule applies to.
        column: String,
        /// The violated rule ("uniqueness", "presence", "non_negative").
        rule: &'static str,
    },
    /// Entity name not registered.
    UnknownEntity {
        /// The unknown name.
        entity: String,
    },
    /// `find` found nothing where a record was required.
    RecordNotFound {
        /// Entity name.
        entity: String,
        /// The missing primary key.
        id: i64,
    },
    /// Optimistic validation failed at commit: a field recorded in the
    /// read set changed (or the row appeared/vanished) between read and
    /// commit. Surfaced by [`OccTxn::commit`](crate::occ::OccTxn::commit);
    /// [`run_occ`](crate::occ::run_occ) retries it automatically.
    OccConflict {
        /// Entity name.
        entity: String,
        /// Primary key of the conflicting row.
        id: i64,
        /// First recorded column whose value moved (`"<row>"` when the
        /// row's very existence changed).
        column: String,
    },
    /// An automatic OCC retry loop exhausted its policy's budget.
    RetriesExhausted {
        /// Attempts made before giving up.
        attempts: usize,
    },
    /// A continuation id was not present in the
    /// [`ContinuationStore`](crate::occ::ContinuationStore) (expired,
    /// already consumed, or never issued).
    NoSuchContinuation {
        /// The unknown continuation id.
        id: u64,
    },
    /// A coordination request through [`coord`](crate::coord) failed on
    /// its backing mechanism.
    Coordination {
        /// Which mechanism failed (`"advisory"`: a user lock).
        mechanism: &'static str,
        /// Backend detail.
        detail: String,
    },
}

impl OrmError {
    /// Retryable in the database-driver sense (deadlock victim etc.).
    /// Stale objects are *application-level* conflicts: the caller decides
    /// whether to re-read and retry.
    pub fn is_retryable(&self) -> bool {
        matches!(self, OrmError::Db(e) if e.is_retryable())
    }
}

impl From<DbError> for OrmError {
    fn from(e: DbError) -> Self {
        OrmError::Db(e)
    }
}

impl fmt::Display for OrmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrmError::Db(e) => write!(f, "database error: {e}"),
            OrmError::StaleObject { entity, id } => {
                write!(f, "stale object: {entity} #{id} was updated concurrently")
            }
            OrmError::ValidationFailed {
                entity,
                column,
                rule,
            } => write!(f, "validation failed: {entity}.{column} violates {rule}"),
            OrmError::UnknownEntity { entity } => write!(f, "unknown entity {entity:?}"),
            OrmError::RecordNotFound { entity, id } => {
                write!(f, "record not found: {entity} #{id}")
            }
            OrmError::OccConflict { entity, id, column } => {
                write!(
                    f,
                    "occ conflict: {entity} #{id} field {column} changed between read and commit"
                )
            }
            OrmError::RetriesExhausted { attempts } => {
                write!(f, "occ retries exhausted after {attempts} attempts")
            }
            OrmError::NoSuchContinuation { id } => {
                write!(f, "no such continuation #{id}")
            }
            OrmError::Coordination { mechanism, detail } => {
                write!(f, "coordination failed via {mechanism}: {detail}")
            }
        }
    }
}

impl std::error::Error for OrmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OrmError::Db(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryability_follows_db_errors() {
        assert!(OrmError::Db(DbError::Deadlock { txn: 1 }).is_retryable());
        assert!(!OrmError::StaleObject {
            entity: "post".into(),
            id: 1
        }
        .is_retryable());
        assert!(!OrmError::ValidationFailed {
            entity: "sku".into(),
            column: "quantity".into(),
            rule: "non_negative"
        }
        .is_retryable());
    }

    #[test]
    fn display_and_source() {
        let e = OrmError::Db(DbError::Deadlock { txn: 3 });
        assert!(e.to_string().contains("deadlock"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(
            std::error::Error::source(&OrmError::UnknownEntity { entity: "x".into() }).is_none()
        );
    }
}
