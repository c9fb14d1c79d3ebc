//! Forum concurrency: Discourse's column-level lock namespaces and the
//! two-request edit-post flow (§3.1.2, §3.3.2).
//!
//! Run with `cargo run --example forum_concurrency`.

use adhoc_transactions::apps::{discourse, Mode};
use adhoc_transactions::orm::{ContinuationStore, OccTxn};
use std::sync::Arc;

fn main() {
    let forum = Arc::new(discourse::Discourse::studied(Mode::AdHoc));
    forum.seed_topic(1).expect("seed");

    // --- CBC: create-post and toggle-answer on the same topic row ---
    let seed_post = forum.seed_post(1, "seed", 0).expect("seed post");
    std::thread::scope(|s| {
        let creator = Arc::clone(&forum);
        s.spawn(move || {
            for i in 0..20 {
                creator
                    .create_post(1, &format!("reply {i}"))
                    .expect("create");
            }
        });
        let toggler = Arc::clone(&forum);
        s.spawn(move || {
            for _ in 0..20 {
                toggler.toggle_answer(1, seed_post).expect("toggle");
            }
        });
    });
    println!(
        "CBC   create-post and toggle-answer ran in parallel (separate lock \
         namespaces); topic consistent: {}",
        forum.topic_posts_consistent(1).expect("check")
    );

    // --- Multi-request edit with version validation ---
    let post = forum.seed_post(1, "original text", 0).expect("post");
    let alice = forum.begin_edit(post).expect("begin");
    let bob = forum.begin_edit(post).expect("begin");
    let alice_result = forum
        .commit_edit(&alice, "alice's version")
        .expect("commit");
    let bob_result = forum.commit_edit(&bob, "bob's version").expect("commit");
    println!("EDIT  alice: {alice_result:?}, bob: {bob_result:?} (the loser is told to re-edit)");
    assert_eq!(alice_result, discourse::EditOutcome::Success);
    assert_eq!(bob_result, discourse::EditOutcome::Conflict);

    // --- Column-level validation ignores view-count churn ---
    let token = forum.begin_edit(post).expect("begin");
    for _ in 0..10 {
        forum.begin_edit(post).expect("views"); // concurrent viewers
    }
    let outcome = forum
        .commit_edit_by_content(&token, "edited despite 10 views")
        .expect("commit");
    println!("CBC   content-validated edit survived 10 concurrent view bumps: {outcome:?}");
    assert_eq!(outcome, discourse::EditOutcome::Success);

    // --- The §6 proposal: an optimistic continuation doing the same flow ---
    let store = ContinuationStore::new();
    let tid = {
        let mut txn = OccTxn::new();
        txn.read(forum.orm(), "posts", post)
            .expect("read")
            .expect("post exists");
        store.save(txn) // request 1 ends; nothing is locked
    };
    let mut txn = store.restore(tid).expect("restore");
    txn.stage_update("posts", post, &[("content", "via continuation".into())]);
    txn.commit(forum.orm()).expect("nothing moved while parked");
    let content = forum
        .orm()
        .find_required("posts", post)
        .expect("post")
        .get_str("content")
        .expect("content")
        .to_string();
    println!("OCC   continuation-based edit across requests: {content:?}");
    assert_eq!(content, "via continuation");

    println!("\nAll forum flows coordinated correctly.");
}
