//! Request types: one endpoint per studied scenario.

use adhoc_sim::Workload;
use std::time::Duration;

/// A named request type over one of the eight studied applications.
///
/// Each endpoint maps onto one of the catalog scenarios the apps model;
/// the mixed workload draws endpoints by weight so every application is
/// exercised in one open-loop run, the way a shared web tier would see
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// Broadleaf: add an item to a cart (Fig. 1a read-modify-write).
    BroadleafAddToCart,
    /// Broadleaf: check out against SKU stock.
    BroadleafCheckout,
    /// Discourse: create a post (sequenced post numbers).
    DiscourseCreatePost,
    /// Discourse: like a post (counter RMW).
    DiscourseLikePost,
    /// JumpServer: grant a user access to an asset.
    JumpserverGrant,
    /// Mastodon: vote on a poll (Fig. 1c optimistic loop).
    MastodonVote,
    /// Mastodon: read a home timeline (the read endpoint degraded mode
    /// keeps serving).
    MastodonTimeline,
    /// Redmine: advance an issue's workflow.
    RedmineAdvanceIssue,
    /// Saleor: allocate an order item against warehouse stock.
    SaleorAllocate,
    /// SCM suite: transfer between two accounts.
    ScmTransfer,
    /// Spree: decrement SKU stock for an order.
    SpreeDecrementStock,
    /// Spree: attach a payment to an order.
    SpreeAddPayment,
}

impl Endpoint {
    /// Every endpoint, in a fixed order (workload weight tables index
    /// into this).
    pub const ALL: [Endpoint; 12] = [
        Endpoint::BroadleafAddToCart,
        Endpoint::BroadleafCheckout,
        Endpoint::DiscourseCreatePost,
        Endpoint::DiscourseLikePost,
        Endpoint::JumpserverGrant,
        Endpoint::MastodonVote,
        Endpoint::MastodonTimeline,
        Endpoint::RedmineAdvanceIssue,
        Endpoint::SaleorAllocate,
        Endpoint::ScmTransfer,
        Endpoint::SpreeDecrementStock,
        Endpoint::SpreeAddPayment,
    ];

    /// Whether the endpoint mutates state (read-only degraded mode refuses
    /// writes and keeps serving reads).
    pub fn workload(self) -> Workload {
        match self {
            Endpoint::MastodonTimeline => Workload::Read,
            _ => Workload::Write,
        }
    }

    /// Service cost in capacity units (roughly: wire hops the handler's
    /// transaction performs, so a checkout costs more of a tick's budget
    /// than a like).
    pub fn cost(self) -> u32 {
        match self {
            Endpoint::MastodonTimeline => 1,
            Endpoint::DiscourseLikePost | Endpoint::MastodonVote => 2,
            Endpoint::BroadleafAddToCart
            | Endpoint::DiscourseCreatePost
            | Endpoint::JumpserverGrant
            | Endpoint::RedmineAdvanceIssue
            | Endpoint::SpreeDecrementStock => 3,
            Endpoint::BroadleafCheckout | Endpoint::SaleorAllocate | Endpoint::ScmTransfer => 4,
            Endpoint::SpreeAddPayment => 3,
        }
    }

    /// Default mixed-workload weight (reads dominate, like production).
    pub fn weight(self) -> u32 {
        match self {
            Endpoint::MastodonTimeline => 30,
            Endpoint::DiscourseLikePost => 15,
            Endpoint::MastodonVote => 10,
            Endpoint::BroadleafAddToCart => 10,
            Endpoint::DiscourseCreatePost => 8,
            Endpoint::SpreeDecrementStock => 7,
            Endpoint::BroadleafCheckout => 5,
            Endpoint::SaleorAllocate => 5,
            Endpoint::ScmTransfer => 4,
            Endpoint::RedmineAdvanceIssue => 3,
            Endpoint::SpreeAddPayment => 2,
            Endpoint::JumpserverGrant => 1,
        }
    }

    /// A short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::BroadleafAddToCart => "broadleaf.add_to_cart",
            Endpoint::BroadleafCheckout => "broadleaf.check_out",
            Endpoint::DiscourseCreatePost => "discourse.create_post",
            Endpoint::DiscourseLikePost => "discourse.like_post",
            Endpoint::JumpserverGrant => "jumpserver.grant",
            Endpoint::MastodonVote => "mastodon.vote",
            Endpoint::MastodonTimeline => "mastodon.timeline",
            Endpoint::RedmineAdvanceIssue => "redmine.advance_issue",
            Endpoint::SaleorAllocate => "saleor.allocate",
            Endpoint::ScmTransfer => "scm.transfer",
            Endpoint::SpreeDecrementStock => "spree.decrement_stock",
            Endpoint::SpreeAddPayment => "spree.add_payment",
        }
    }
}

/// One open-loop request: a client from the (possibly million-strong)
/// population asking for one endpoint against one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Monotone request id (unique within a run).
    pub id: u64,
    /// Client identity, zipfian-drawn from the modeled population — the
    /// rate limiter keys on this.
    pub client: u64,
    /// Object key the handler targets, zipfian-drawn from the seeded
    /// object population (hot rows are hot for every client).
    pub key: u64,
    /// Which handler to run.
    pub endpoint: Endpoint,
    /// Arrival instant on the virtual-clock timeline (open loop: fixed by
    /// the arrival process, independent of completions).
    pub arrived: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_cover_every_endpoint_and_sum_to_100() {
        let total: u32 = Endpoint::ALL.iter().map(|e| e.weight()).sum();
        assert_eq!(total, 100, "weights are percentages");
        for e in Endpoint::ALL {
            assert!(e.weight() > 0);
            assert!(e.cost() > 0);
        }
    }

    #[test]
    fn only_the_timeline_is_a_read() {
        for e in Endpoint::ALL {
            let read = e == Endpoint::MastodonTimeline;
            assert_eq!(e.workload() == Workload::Read, read);
        }
    }
}
