//! The playbook: which executable artifact demonstrates each flagship case.
//!
//! The corpus records *what the paper found*; the playbook records *where
//! this repository makes it runnable* — the §6 "development support"
//! promise applied to our own reproduction. Every corpus case that the
//! paper discusses individually (a figure, a listing, or a named issue)
//! maps to the module and test/example that exercises it.

#[cfg(test)]
use crate::corpus::case;

/// One corpus case → executable artifact mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlaybookEntry {
    /// Corpus case id (must exist in [`crate::CASES`]).
    pub case_id: &'static str,
    /// Where the paper discusses it.
    pub paper_ref: &'static str,
    /// The implementing module/function in this workspace.
    pub artifact: &'static str,
    /// What demonstrates it end to end, `; `-separated: `example <name>`,
    /// a `tests/<file>.rs`, a `paper-eval <subcommand>`, a contention row
    /// of `tests/mode_table.rs`, or a unit test `<module>::tests::<fn>`
    /// (`{<fn>, <fn>}` for several). `tests/cross_crate.rs` resolves each.
    pub demonstrated_by: &'static str,
}

/// Flagship cases: every scenario the paper singles out.
pub static PLAYBOOK: &[PlaybookEntry] = &[
    PlaybookEntry {
        case_id: "broadleaf/cart-total-update",
        paper_ref: "Figure 1a",
        artifact: "adhoc_apps::broadleaf::Broadleaf::add_to_cart",
        demonstrated_by: "example quickstart; contention row `broadleaf_cart` (`tests/mode_table.rs`)",
    },
    PlaybookEntry {
        case_id: "mastodon/invite-redeem",
        paper_ref: "Figure 1b",
        artifact: "adhoc_apps::mastodon::Mastodon::redeem_invite",
        demonstrated_by: "example quickstart; contention row `mastodon_invites` (`tests/mode_table.rs`)",
    },
    PlaybookEntry {
        case_id: "mastodon/poll-vote",
        paper_ref: "Figure 1c",
        artifact: "adhoc_apps::mastodon::Mastodon::vote",
        demonstrated_by: "mastodon::tests::poll_votes_are_never_lost",
    },
    PlaybookEntry {
        case_id: "spree/order-stock-decrement",
        paper_ref: "§3.1.1 listing; §4.2 issue [61]",
        artifact: "adhoc_apps::spree::Spree::decrement_stock (+ the ORM touch cascade)",
        demonstrated_by: "contention row `spree_checkout` (`tests/mode_table.rs`); example ecommerce_checkout",
    },
    PlaybookEntry {
        case_id: "discourse/edit-post",
        paper_ref: "§3.1.2 / §3.3.2 listings; §4.1.1 issue [76]",
        artifact: "adhoc_apps::discourse::{begin_edit, commit_edit, commit_edit_by_content}",
        demonstrated_by: "discourse::tests::{edit_post_flow_detects_conflicts, lock_after_read_loses_concurrent_edits}; tests/monitor_catches_paper_bugs.rs",
    },
    PlaybookEntry {
        case_id: "mastodon/timeline-insert",
        paper_ref: "§3.1.3 listing; §4.1.1 issue [65]",
        artifact: "adhoc_apps::mastodon::Mastodon::{create_post, delete_post}",
        demonstrated_by: "mastodon::tests::expired_lease_breaks_timeline_consistency; tests/cross_crate.rs",
    },
    PlaybookEntry {
        case_id: "saleor/stock-allocate",
        paper_ref: "§3.2.1 FOR-UPDATE listing",
        artifact: "adhoc_apps::saleor::Saleor::allocate",
        demonstrated_by: "contention row `saleor_allocate` (`tests/mode_table.rs`)",
    },
    PlaybookEntry {
        case_id: "discourse/create-post",
        paper_ref: "§3.3.1 CBC listing; Table 6",
        artifact: "adhoc_apps::discourse::Discourse::{create_post, toggle_answer}",
        demonstrated_by: "discourse::tests::create_post_and_toggle_answer_commute_in_adhoc_mode; paper-eval fig3 (CBC)",
    },
    PlaybookEntry {
        case_id: "spree/payment-json-handler",
        paper_ref: "§3.3.2 PBC listing; §4.2 issue [59]",
        artifact: "adhoc_apps::spree::Spree::{add_payment, add_payment_json}",
        demonstrated_by: "spree::tests::forgotten_json_handler_duplicates_payments; paper-eval fig3 (PBC)",
    },
    PlaybookEntry {
        case_id: "discourse/shrink-image",
        paper_ref: "§3.4.1 listing; §4.3 issue [64]; Figure 4",
        artifact: "adhoc_apps::discourse::Discourse::shrink_image",
        demonstrated_by: "discourse::tests::shrink_repair_survives_concurrent_edits; paper-eval fig4",
    },
    PlaybookEntry {
        case_id: "discourse/reviewable-claim",
        paper_ref: "§4.1.2 MiniSql listing, issue [62]",
        artifact: "adhoc_core::validation (HandCraftedNonAtomic) + adhoc_orm::MiniSql",
        demonstrated_by: "validation::tests::non_atomic_validation_loses_the_race",
    },
    PlaybookEntry {
        case_id: "scm-suite/account-balance",
        paper_ref: "§4.1.1 issue [91] (synchronized on thread-locals)",
        artifact: "adhoc_core::locks::SyncLock::synchronize_on_thread_local",
        demonstrated_by: "scm_suite::tests::thread_local_synchronized_loses_updates; example bug_gallery",
    },
    PlaybookEntry {
        case_id: "broadleaf/cart-session-lock",
        paper_ref: "§4.1.1 issue [66] (LRU-evicted lock table)",
        artifact: "adhoc_core::locks::MemLruLock",
        demonstrated_by: "broadleaf::tests::lru_evicted_lock_breaks_cart_consistency",
    },
    PlaybookEntry {
        case_id: "broadleaf/inventory-db-lock",
        paper_ref: "§3.4.2 boot-UUID crash recovery",
        artifact: "adhoc_core::locks::DbTableLock::{reboot, ignore_boot_uuid}",
        demonstrated_by: "locks::db::tests::db_table_lock_persists_across_crash_and_reboot_reclaims",
    },
    PlaybookEntry {
        case_id: "spree/payment-process",
        paper_ref: "§4.3 issue [60] (crashed payments)",
        artifact: "adhoc_apps::spree::Spree::{process_payment, boot_recovery}",
        demonstrated_by: "spree::tests::crashed_payment_blocks_checkout_until_boot_recovery",
    },
    PlaybookEntry {
        case_id: "broadleaf/checkout-workflow",
        paper_ref: "Table 6 RMW workload; §4.2 issue [67]",
        artifact: "adhoc_apps::broadleaf::Broadleaf::check_out",
        demonstrated_by: "broadleaf::tests::omitted_sku_coordination_loses_updates; paper-eval fig3 (RMW)",
    },
    PlaybookEntry {
        case_id: "discourse/like-post",
        paper_ref: "Table 6 AA workload",
        artifact: "adhoc_apps::discourse::Discourse::like_post",
        demonstrated_by: "contention row `discourse_posts_and_likes` (`tests/mode_table.rs`); paper-eval fig3 (AA)",
    },
    PlaybookEntry {
        case_id: "redmine/attachment-add",
        paper_ref: "§3.2.1 (SELECT … FOR UPDATE); Table 5 row-level cases",
        artifact: "adhoc_apps::redmine::Redmine::add_attachment",
        demonstrated_by: "contention row `redmine_progress_and_attachments` (`tests/mode_table.rs`)",
    },
    PlaybookEntry {
        case_id: "redmine/version-close",
        paper_ref: "§3.1.2 check-then-act; Table 3 AA cases",
        artifact: "adhoc_apps::redmine::Redmine::{close_version, assign_version} (+ _unchecked variants)",
        demonstrated_by: "contention row `redmine_version_close` (`tests/mode_table.rs`); redmine::tests::unchecked_close_vs_assign_can_strand_an_open_issue",
    },
    PlaybookEntry {
        case_id: "scm-suite/settlement-run",
        paper_ref: "§3.1.1 multi-read consistency; Table 5 coarse cases",
        artifact: "adhoc_apps::scm_suite::ScmSuite::settle (+ settle_unrepeatable)",
        demonstrated_by: "scm_suite::tests::{settlements_never_skew_under_concurrent_transfers, unrepeatable_settlement_can_skew}",
    },
    PlaybookEntry {
        case_id: "jumpserver/credential-rotate",
        paper_ref: "Table 4 (JumpServer: zero buggy cases); §3.4.2 crash handling",
        artifact: "adhoc_apps::jumpserver::JumpServer::{rotate_credential, rotate_credential_split, repair_rotation_audit}",
        demonstrated_by: "jumpserver::tests::{rotation_is_atomic_and_audited, split_rotation_crash_loses_audit_and_checker_repairs}",
    },
    PlaybookEntry {
        case_id: "mastodon/notification-dedupe",
        paper_ref: "§3.2.1 Redis primitives; Table 3 PBC cases",
        artifact: "adhoc_apps::mastodon::Mastodon::{notify_once, notify_unchecked}",
        demonstrated_by: "mastodon::tests::{notifications_deduplicate_via_setnx, unchecked_notifications_can_duplicate}",
    },
    PlaybookEntry {
        case_id: "discourse/draft-save",
        paper_ref: "§3.2.2 hand-crafted validation; Table 5b value-validation cases",
        artifact: "adhoc_apps::discourse::Discourse::save_draft (client sequence check + unique index)",
        demonstrated_by: "contention row `discourse_drafts` (`tests/mode_table.rs`)",
    },
    PlaybookEntry {
        case_id: "jumpserver/node-move",
        paper_ref: "Table 5 coarse-granularity cases; §3.1.2 check-then-act",
        artifact: "adhoc_apps::jumpserver::JumpServer::{move_node, move_node_unlocked, tree_acyclic}",
        demonstrated_by: "jumpserver::tests::{concurrent_moves_stay_acyclic_under_the_tree_lock, uncoordinated_moves_can_create_a_cycle}",
    },
];

/// Look up the playbook entry for a case, when one exists.
pub fn entry_for(case_id: &str) -> Option<&'static PlaybookEntry> {
    PLAYBOOK.iter().find(|e| e.case_id == case_id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_core::taxonomy::IssueCategory;

    /// Every playbook entry points at a real corpus case.
    #[test]
    fn playbook_case_ids_exist() {
        for e in PLAYBOOK {
            assert!(case(e.case_id).is_some(), "{} not in corpus", e.case_id);
        }
    }

    #[test]
    fn playbook_has_no_duplicates() {
        let mut ids: Vec<&str> = PLAYBOOK.iter().map(|e| e.case_id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    /// Every issue category the paper catalogs has at least one playbook
    /// entry whose corpus case carries it — the bug catalog is fully
    /// demonstrable.
    #[test]
    fn every_issue_category_is_demonstrated() {
        for cat in IssueCategory::all() {
            let covered = PLAYBOOK.iter().any(|e| {
                case(e.case_id)
                    .map(|c| c.issues.contains(&cat))
                    .unwrap_or(false)
            });
            assert!(covered, "{cat:?} has no playbook demonstration");
        }
    }

    /// The three Figure 1 examples are all covered.
    #[test]
    fn figure1_scenarios_are_covered() {
        for fig in ["Figure 1a", "Figure 1b", "Figure 1c"] {
            assert!(
                PLAYBOOK.iter().any(|e| e.paper_ref.contains(fig)),
                "{fig} missing"
            );
        }
    }

    #[test]
    fn lookup_works() {
        assert!(entry_for("discourse/edit-post").is_some());
        assert!(entry_for("nope/nope").is_none());
    }
}
