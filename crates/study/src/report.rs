//! Plain-text renderings of the paper's tables, used by `paper-eval`.

use crate::corpus::{app_info, APPLICATIONS};
use crate::findings;
use crate::hints::{Hint, Vendor};
use crate::playbook::PLAYBOOK;
use crate::related::RELATED;
use crate::tables;
use std::fmt::Write;

/// Table 1 in the paper's layout.
pub fn render_table1() -> String {
    let mut out = String::new();
    writeln!(out, "Table 1: Comparison with Feral CC and ACIDRain.").unwrap();
    for w in RELATED {
        writeln!(out, "  {} ({})", w.name, w.citation).unwrap();
        writeln!(out, "    Target: {}", w.target).unwrap();
        writeln!(out, "    Aspects: {}", w.aspects.join(", ")).unwrap();
        writeln!(out, "    Issue types: {}", w.issue_types.join("; ")).unwrap();
    }
    out
}

/// Table 2 in the paper's layout.
pub fn render_table2() -> String {
    let mut out = String::new();
    writeln!(out, "Table 2: The applications corpus.").unwrap();
    writeln!(
        out,
        "  {:<11} {:<15} {:<20} {:<10} {:>6} {:>6}",
        "Application", "Category", "Language/ORM", "RDBMS", "Stars", "Contr."
    )
    .unwrap();
    for info in APPLICATIONS {
        writeln!(
            out,
            "  {:<11} {:<15} {:<20} {:<10} {:>6} {:>6}",
            info.app.name(),
            info.category,
            format!("{}/{}", info.language, info.orm),
            info.rdbms,
            info.stars(),
            info.contributors
        )
        .unwrap();
    }
    out
}

/// Table 3 in the paper's layout.
pub fn render_table3() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Table 3: Ad hoc transactions are mainly used in core APIs."
    )
    .unwrap();
    writeln!(
        out,
        "  {:<11} {:<48} {:>6}",
        "App.", "Core APIs using ad hoc transactions", "Cases"
    )
    .unwrap();
    for row in tables::table3() {
        writeln!(
            out,
            "  {:<11} {:<48} {:>3}/{}",
            row.app.name(),
            app_info(row.app).core_apis,
            row.critical,
            row.total
        )
        .unwrap();
    }
    out
}

/// Table 4 in the paper's layout.
pub fn render_table4() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Table 4: Statistics of identified ad hoc transactions."
    )
    .unwrap();
    writeln!(
        out,
        "  {:<11} {:>6} {:>6} {:>6} {:>6}",
        "App.", "Total", "Buggy", "Lock", "Valid."
    )
    .unwrap();
    for row in tables::table4() {
        writeln!(
            out,
            "  {:<11} {:>6} {:>6} {:>6} {:>6}",
            row.app.name(),
            row.total,
            row.buggy,
            row.lock_based,
            row.validation_based
        )
        .unwrap();
    }
    let t = tables::table4_totals();
    writeln!(
        out,
        "  {:<11} {:>6} {:>6} {:>6} {:>6}",
        "Total", t.total, t.buggy, t.lock_based, t.validation_based
    )
    .unwrap();
    out
}

/// Table 5a in the paper's layout.
pub fn render_table5a() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Table 5a: Categorization of incorrect ad hoc transactions."
    )
    .unwrap();
    writeln!(
        out,
        "  {:<30} {:<42} {:>4} {:>5}",
        "Category", "Description", "Apps", "Cases"
    )
    .unwrap();
    for row in tables::table5a() {
        writeln!(
            out,
            "  {:<30} {:<42} {:>4} {:>5}",
            row.category.group().label(),
            row.category.description(),
            row.apps,
            row.cases
        )
        .unwrap();
    }
    let s = tables::report_stats();
    writeln!(
        out,
        "  ({} reports covering {} cases submitted; {} acknowledged covering {} cases)",
        s.reports, s.reported_cases, s.acknowledged_reports, s.acknowledged_cases
    )
    .unwrap();
    out
}

/// Table 5b in the paper's layout.
pub fn render_table5b() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Table 5b: Incorrect ad hoc transactions can have severe consequences."
    )
    .unwrap();
    for row in tables::table5b() {
        let mut consequences: Vec<&str> = row.consequences.clone();
        consequences.sort_unstable();
        consequences.dedup();
        writeln!(
            out,
            "  {:<11} {:>2} cases: {}",
            row.app.name(),
            row.cases,
            consequences.join("; ")
        )
        .unwrap();
    }
    out
}

/// Table 7a in the paper's layout.
pub fn render_table7a() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Table 7a: Coordination hints supported by the top-ranking RDBMSs."
    )
    .unwrap();
    write!(out, "  {:<22}", "Hint").unwrap();
    for v in Vendor::all() {
        write!(out, " {:<22}", v.name()).unwrap();
    }
    writeln!(out).unwrap();
    for h in Hint::all() {
        write!(out, "  {:<22}", h.name()).unwrap();
        for v in Vendor::all() {
            write!(out, " {:<22}", if h.supported_by(v) { "yes" } else { "-" }).unwrap();
        }
        writeln!(out).unwrap();
    }
    out
}

/// Table 7b in the paper's layout.
pub fn render_table7b() -> String {
    let mut out = String::new();
    writeln!(out, "Table 7b: Coordination hints vs. ad hoc transactions.").unwrap();
    for h in Hint::all() {
        writeln!(out, "  {}", h.name()).unwrap();
        writeln!(
            out,
            "    Can potentially support: {}",
            h.supports().join("; ")
        )
        .unwrap();
        writeln!(
            out,
            "    Can potentially avoid:   {}",
            h.avoids().join("; ")
        )
        .unwrap();
    }
    out
}

/// The invariant-confluence classification of the corpus: per-app bucket
/// counts plus the legend explaining what each bucket buys at runtime.
pub fn render_confluence() -> String {
    use crate::confluence::Confluence;
    let mut out = String::new();
    writeln!(
        out,
        "Confluence: how much coordination each case's invariant actually requires."
    )
    .unwrap();
    write!(out, "  {:<11}", "App.").unwrap();
    for class in Confluence::all() {
        write!(out, " {:>6}", class.label()).unwrap();
    }
    writeln!(out, " {:>6}", "Total").unwrap();
    for app in crate::App::all() {
        let cases = crate::corpus::cases_for(app);
        write!(out, "  {:<11}", app.name()).unwrap();
        for class in Confluence::all() {
            let n = cases.iter().filter(|c| c.confluence == class).count();
            write!(out, " {n:>6}").unwrap();
        }
        writeln!(out, " {:>6}", cases.len()).unwrap();
    }
    write!(out, "  {:<11}", "Total").unwrap();
    for (_, n) in crate::confluence::counts() {
        write!(out, " {n:>6}").unwrap();
    }
    writeln!(out, " {:>6}", crate::CASES.len()).unwrap();
    writeln!(
        out,
        "  Legend: CONF  = invariant-confluent; commits as a commutative delta,"
    )
    .unwrap();
    writeln!(
        out,
        "                  no validation footprint, zero aborts."
    )
    .unwrap();
    writeln!(
        out,
        "          ESCR  = budget invariant (x >= 0, uses <= max); escrow"
    )
    .unwrap();
    writeln!(
        out,
        "                  reservations coordinate only near exhaustion."
    )
    .unwrap();
    writeln!(
        out,
        "          COORD = order-sensitive; inherits the cured OCC/facade path."
    )
    .unwrap();
    out
}

/// The playbook: flagship cases and the artifacts demonstrating them.
pub fn render_playbook() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "Playbook: flagship cases and their executable artifacts."
    )
    .unwrap();
    for e in PLAYBOOK {
        writeln!(out, "  {} ({})", e.case_id, e.paper_ref).unwrap();
        writeln!(out, "    artifact:     {}", e.artifact).unwrap();
        writeln!(out, "    demonstrated: {}", e.demonstrated_by).unwrap();
    }
    out
}

/// The eight findings with their computed statistics.
pub fn render_findings() -> String {
    let mut out = String::new();
    let f1 = findings::finding1();
    writeln!(
        out,
        "Finding 1: every studied application ({} of {}) uses ad hoc transactions; {} of {} cases are critical.",
        f1.apps_with_cases, 8, f1.critical_cases, f1.total_cases
    )
    .unwrap();
    let f2 = findings::finding2();
    writeln!(
        out,
        "Finding 2: {} coordinate a portion of operations, {} span multiple requests, {} include non-database operations.",
        f2.partial_coordination, f2.multi_request, f2.non_db_operations
    )
    .unwrap();
    let f3 = findings::finding3();
    writeln!(
        out,
        "Finding 3: {} lock implementations ({}) and {} validation implementations; only {:?} mixes implementations.",
        f3.lock_impls.len(),
        f3.lock_impls.iter().copied().collect::<Vec<_>>().join(", "),
        f3.validation_impls.len(),
        f3.mixed_impl_apps
    )
    .unwrap();
    let f4 = findings::finding4();
    writeln!(
        out,
        "Finding 4: {} fine-grained, {} coarse-grained, {} both; AA {}, RMW {}, both {}; CBC {}, PBC {}, both {}.",
        f4.fine_grained,
        f4.coarse_grained,
        f4.both,
        f4.associated_access,
        f4.rmw,
        f4.rmw_and_aa,
        f4.column_based,
        f4.predicate_based,
        f4.column_and_predicate
    )
    .unwrap();
    let f5 = findings::finding5();
    writeln!(
        out,
        "Finding 5: pessimistic = {} single-lock + {} ordered-multi; optimistic failure handling = {} error / {} DBT rollback / {} manual / {} repair.",
        f5.pessimistic_single_lock,
        f5.pessimistic_ordered_locks,
        f5.optimistic_error_return,
        f5.optimistic_dbt_rollback,
        f5.optimistic_manual_rollback,
        f5.optimistic_repair
    )
    .unwrap();
    let f6 = findings::finding6();
    writeln!(
        out,
        "Finding 6: {}/{} pessimistic cases have lock-primitive issues; {}/{} optimistic cases lack validate-and-commit atomicity.",
        f6.pessimistic_with_lock_issues,
        f6.pessimistic_total,
        f6.optimistic_non_atomic,
        f6.optimistic_total
    )
    .unwrap();
    let f7 = findings::finding7();
    writeln!(
        out,
        "Finding 7: {} scope issues = {} omitted operations + {} forgotten transactions.",
        f7.omitted_operations + f7.forgotten_transactions,
        f7.omitted_operations,
        f7.forgotten_transactions
    )
    .unwrap();
    let f8 = findings::finding8();
    writeln!(
        out,
        "Finding 8: {} failure-handling issues = {} incomplete repair + {} missing crash rollback.",
        f8.incomplete_repair + f8.no_rollback_after_crash,
        f8.incomplete_repair,
        f8.no_rollback_after_crash
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renderings_contain_headline_numbers() {
        assert!(render_table2().contains("33.8k"));
        assert!(render_table3().contains("  8/13"));
        assert!(render_table4().contains("91"));
        assert!(render_table5a().contains("36"));
        assert!(render_table5a().contains("20 reports covering 46 cases"));
        assert!(render_table5b().contains("Spree"));
        assert!(render_table1().contains("ACIDRain"));
        assert!(render_table7a().contains("PostgreSQL"));
        assert!(render_table7b().contains("Fine-grained"));
        let f = render_findings();
        assert!(f.contains("71 of 91"));
        assert!(f.contains("Finding 8"));
    }

    #[test]
    fn confluence_rendering_counts_the_whole_corpus() {
        let r = render_confluence();
        assert!(r.contains("CONF"));
        assert!(r.contains("ESCR"));
        assert!(r.contains("COORD"));
        assert!(r.contains("Legend"));
        let total: usize = crate::confluence::counts().iter().map(|(_, n)| n).sum();
        assert_eq!(total, 91);
        assert!(r.contains("    91"), "totals row must count all 91 cases");
    }

    #[test]
    fn table3_rows_render_critical_over_total() {
        let t = render_table3();
        assert!(t.contains("10/16")); // Mastodon
        assert!(t.contains("15/16")); // Saleor
    }
}
