//! The four-mode contention table (`adhoc_bench::contention`): every row's
//! contended workload on real threads in `AdHoc`, `DatabaseTxn`, `Cured`
//! and `Confluent`, each cell audited against the acked ops and
//! boot-fsck and required to reach the row's committed digest.
//!
//! A failure names its cells as `row/Mode`.

use adhoc_bench::contention;

#[test]
fn every_row_holds_and_agrees_in_all_four_modes() {
    let failures: Vec<String> = contention::ROWS
        .iter()
        .flat_map(contention::run_row)
        .collect();
    assert!(
        failures.is_empty(),
        "{} cell(s) red:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
