//! Case records and the application enumeration.

use crate::confluence::Confluence;
use adhoc_core::taxonomy::{CcAlgorithm, FailureHandling, IssueCategory, LockImpl, ValidationImpl};

/// The eight studied applications (Table 2), in the paper's row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum App {
    /// Discourse (forum).
    Discourse,
    /// Mastodon (social network).
    Mastodon,
    /// Spree (e-commerce).
    Spree,
    /// Redmine (project management).
    Redmine,
    /// Broadleaf Commerce (e-commerce).
    Broadleaf,
    /// SCM Biz Suite (supply chain).
    ScmSuite,
    /// JumpServer (access control).
    JumpServer,
    /// Saleor (e-commerce).
    Saleor,
}

impl App {
    /// All eight applications, in Table 2's row order.
    pub fn all() -> [App; 8] {
        [
            App::Discourse,
            App::Mastodon,
            App::Spree,
            App::Redmine,
            App::Broadleaf,
            App::ScmSuite,
            App::JumpServer,
            App::Saleor,
        ]
    }

    /// Display name as printed in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            App::Discourse => "Discourse",
            App::Mastodon => "Mastodon",
            App::Spree => "Spree",
            App::Redmine => "Redmine",
            App::Broadleaf => "Broadleaf",
            App::ScmSuite => "SCM Suite",
            App::JumpServer => "JumpServer",
            App::Saleor => "Saleor",
        }
    }
}

impl std::fmt::Display for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One studied ad hoc transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Case {
    /// Stable identifier, `app/api-slug`.
    pub id: &'static str,
    /// The application the case was found in.
    pub app: App,
    /// What the coordinated business logic does.
    pub api: &'static str,
    /// Pessimistic (lock-based) or optimistic (validation-based), §3.
    pub cc: CcAlgorithm,
    /// Lock implementation (pessimistic cases), §3.2.1.
    pub lock_impl: Option<LockImpl>,
    /// Validation implementation (optimistic cases), §3.2.2.
    pub validation_impl: Option<ValidationImpl>,
    /// Lives in a core API of the application (Table 3).
    pub critical: bool,
    /// Coordinates only a portion of the database operations in its scope
    /// (§3.1.1).
    pub partial_coordination: bool,
    /// Coordinates operations across multiple HTTP requests (§3.1.2).
    pub multi_request: bool,
    /// Coordinates non-database operations too (§3.1.3).
    pub non_db_ops: bool,
    /// Pessimistic cases: a single lock (vs. multiple locks acquired in a
    /// consistent order), §3.4.1.
    pub single_lock: bool,
    /// Exploits the read–modify–write pattern (§3.3.1).
    pub rmw: bool,
    /// Exploits the associated-access pattern (§3.3.1).
    pub associated_access: bool,
    /// Column-based fine-grained coordination (§3.3.2).
    pub column_based: bool,
    /// Predicate-based fine-grained coordination (§3.3.2).
    pub predicate_based: bool,
    /// Failure-handling strategy (optimistic cases), §3.4.1.
    pub failure_handling: Option<FailureHandling>,
    /// Correctness issues found (empty = correct), §4.
    pub issues: &'static [IssueCategory],
    /// Known severe real-world consequence (Table 5b), when any.
    pub severe_consequence: Option<&'static str>,
    /// Issue-report id this case was included in, when reported.
    pub report: Option<&'static str>,
    /// Whether that report was acknowledged by developers.
    pub acknowledged: bool,
    /// The least coordination [`Case::invariant`] admits (this
    /// reconstruction's analysis; the paper does not classify confluence).
    pub confluence: Confluence,
    /// The invariant the ad hoc transaction defends, named.
    pub invariant: &'static str,
}

impl Case {
    /// Does this case have at least one correctness issue?
    pub fn is_buggy(&self) -> bool {
        !self.issues.is_empty()
    }

    /// Coarse-grained coordination: one lock covering multiple accesses
    /// via the RMW or associated-access pattern (§3.3.1).
    pub fn coarse_grained(&self) -> bool {
        self.rmw || self.associated_access
    }

    /// Fine-grained coordination: column- or predicate-based (§3.3.2).
    pub fn fine_grained(&self) -> bool {
        self.column_based || self.predicate_based
    }

    /// Number of distinct issue *categories* on this case (Table 5a counts
    /// cases once per category).
    pub fn issue_categories(&self) -> usize {
        let mut cats: Vec<IssueCategory> = self.issues.to_vec();
        cats.sort_by_key(|c| format!("{c:?}"));
        cats.dedup();
        cats.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_core::taxonomy::IssueCategory::*;

    fn blank() -> Case {
        Case {
            id: "test/none",
            app: App::Discourse,
            api: "",
            cc: CcAlgorithm::Pessimistic,
            lock_impl: Some(LockImpl::Mem),
            validation_impl: None,
            critical: false,
            partial_coordination: false,
            multi_request: false,
            non_db_ops: false,
            single_lock: true,
            rmw: false,
            associated_access: false,
            column_based: false,
            predicate_based: false,
            failure_handling: None,
            issues: &[],
            severe_consequence: None,
            report: None,
            acknowledged: false,
            confluence: Confluence::Coordinated,
            invariant: "",
        }
    }

    #[test]
    fn buggy_and_granularity_helpers() {
        let mut c = blank();
        assert!(!c.is_buggy());
        assert!(!c.coarse_grained());
        assert!(!c.fine_grained());
        c.issues = &[IncorrectLockPrimitive, IncorrectLockPrimitive];
        assert!(c.is_buggy());
        assert_eq!(c.issue_categories(), 1);
        c.rmw = true;
        c.predicate_based = true;
        assert!(c.coarse_grained());
        assert!(c.fine_grained());
    }

    #[test]
    fn app_enumeration_is_complete_and_ordered() {
        assert_eq!(App::all().len(), 8);
        assert_eq!(App::Discourse.to_string(), "Discourse");
        assert_eq!(App::ScmSuite.name(), "SCM Suite");
    }
}
