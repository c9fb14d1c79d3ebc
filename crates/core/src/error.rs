//! Toolkit-level error type.

use crate::locks::LockError;
use adhoc_orm::OrmError;
use adhoc_storage::DbError;
use std::fmt;

/// Any failure surfaced by the toolkit: database, ORM, or lock backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToolkitError {
    /// Underlying database error.
    Db(DbError),
    /// Underlying ORM error.
    Orm(OrmError),
    /// Lock backend error.
    Lock(LockError),
}

impl ToolkitError {
    /// True for engine errors a caller handles by retrying (§3.4).
    pub fn is_retryable(&self) -> bool {
        match self {
            ToolkitError::Db(e) => e.is_retryable(),
            ToolkitError::Orm(e) => e.is_retryable(),
            // A watchdog-aborted acquisition is the application-lock
            // analogue of an engine deadlock victim: retry.
            ToolkitError::Lock(LockError::Deadlock { .. }) => true,
            _ => false,
        }
    }
}

impl From<DbError> for ToolkitError {
    fn from(e: DbError) -> Self {
        ToolkitError::Db(e)
    }
}

impl From<OrmError> for ToolkitError {
    fn from(e: OrmError) -> Self {
        ToolkitError::Orm(e)
    }
}

impl From<LockError> for ToolkitError {
    fn from(e: LockError) -> Self {
        ToolkitError::Lock(e)
    }
}

impl fmt::Display for ToolkitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ToolkitError::Db(e) => write!(f, "{e}"),
            ToolkitError::Orm(e) => write!(f, "{e}"),
            ToolkitError::Lock(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ToolkitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_retryability() {
        let e: ToolkitError = DbError::Deadlock { txn: 1 }.into();
        assert!(e.is_retryable());
        let e: ToolkitError = OrmError::StaleObject {
            entity: "p".into(),
            id: 1,
        }
        .into();
        assert!(!e.is_retryable());
        let e: ToolkitError = LockError::Timeout { key: "k".into() }.into();
        assert!(!e.is_retryable());
        let e: ToolkitError = LockError::Deadlock { key: "k".into() }.into();
        assert!(e.is_retryable());
    }

    #[test]
    fn display_passthrough() {
        let e: ToolkitError = LockError::Backend("x".into()).into();
        assert!(e.to_string().contains('x'));
    }
}
