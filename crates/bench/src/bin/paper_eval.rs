//! `paper-eval`: regenerate every table and figure of the paper.
//!
//! Usage:
//! ```text
//! paper-eval [table1|table2|table3|table4|table5a|table5b|table6|table7a|table7b]
//! paper-eval [confluence|findings|extension|playbook]
//! paper-eval [fig2|fig3|fig4|tables|all]
//! paper-eval [ablation-ttl|ablation-isolation|ablation-gap|ablation-kv-rtt|ablation-rmw-lock]
//! paper-eval [ablation-resilience|ablation-traffic]
//! paper-eval bench-json [outdir]
//! ```
//! With no arguments, prints everything (`all`).
//!
//! `bench-json` runs the engine-scaling sweeps and writes machine-readable
//! `BENCH_kv.json` (KV command scaling), `BENCH_wal.json` (storage commit
//! scaling under each durability policy; its `off` rows are the
//! commit-scaling curve), `BENCH_confluence.json` (hand-rolled AHT vs
//! cured `orm::occ` vs commutative deltas), `BENCH_resilience.json`
//! (metastability ablation) and `BENCH_traffic.json` (open-loop traffic
//! SLO ablation) into `outdir` (default `.`). Set `BENCH_SCALE=smoke` for a tiny CI duty
//! cycle; the three timed ablations honour it too.

use adhoc_apps::Mode;
use adhoc_bench::ablations::{self, AblationRow};
use adhoc_bench::{fig2, fig3, fig4, isolation_ablation, resilience, scaling, ttl_ablation};
use adhoc_sim::stats::{fmt_duration, geometric_mean};
use adhoc_sim::LatencyModel;
use adhoc_study::report;

fn print_table6() {
    println!("Table 6: APIs and setups for evaluating coordination granularities.");
    println!(
        "  {:<5} {:<28} {:<12} {:<16} {:<16}",
        "Gran.", "API(s)", "Application", "RDBMS", "DBT isolation"
    );
    for s in fig3::SETUPS {
        println!(
            "  {:<5} {:<28} {:<12} {:<16} {:<16}",
            s.granularity.label(),
            s.api,
            s.application,
            s.rdbms.name(),
            s.dbt_isolation.name()
        );
        println!(
            "        workload w/ contention: {}",
            s.workload_with_contention
        );
    }
    println!();
}

fn run_fig2() {
    println!("Figure 2: Latencies of different lock implementations.");
    println!("  (latency model: paper deployment — KV RTT 250 us, SQL RTT 300 us, flush 10 ms)");
    println!("  {:<10} {:>14} {:>14}", "impl", "lock()", "unlock()");
    for row in fig2::lock_latencies(LatencyModel::paper(), 200) {
        println!(
            "  {:<10} {:>14} {:>14}",
            row.implementation.label(),
            fmt_duration(row.lock),
            fmt_duration(row.unlock)
        );
    }
    println!();
}

fn run_fig3() {
    println!("Figure 3: API throughputs using different coordination granularities.");
    for contention in [true, false] {
        println!(
            "  ({}) {} contention:",
            if contention { "a" } else { "b" },
            if contention { "with" } else { "without" }
        );
        let mut ratios = Vec::new();
        for setup in fig3::SETUPS {
            let cfg = fig3::Fig3Config {
                contention,
                ..fig3::Fig3Config::default()
            };
            let aht = fig3::run_granularity(setup.granularity, Mode::AdHoc, &cfg);
            let dbt = fig3::run_granularity(setup.granularity, Mode::DatabaseTxn, &cfg);
            let ratio = aht.throughput_rps / dbt.throughput_rps;
            ratios.push(ratio);
            println!(
                "    {:<4} AHT {:>8.0} req/s   DBT {:>8.0} req/s   (AHT/DBT = {:.2}; DBT deadlocks {}, serialization failures {})",
                setup.granularity.label(),
                aht.throughput_rps,
                dbt.throughput_rps,
                ratio,
                dbt.deadlocks,
                dbt.serialization_failures
            );
        }
        if let Some(geo) = geometric_mean(&ratios) {
            println!("    geometric-mean AHT/DBT = {geo:.2}");
        }
    }
    println!();
}

fn run_fig4() {
    println!("Figure 4: API latencies using different rollback methods (shrink-image).");
    for conflicts in [true, false] {
        println!(
            "  ({}) {} conflicting edit-post load:",
            if conflicts { "a" } else { "b" },
            if conflicts { "with" } else { "without" }
        );
        let cfg = fig4::Fig4Config {
            conflicts,
            ..fig4::Fig4Config::default()
        };
        for strategy in fig4::strategies() {
            let row = fig4::run_rollback(strategy, &cfg);
            println!(
                "    {:<7} mean latency {:>12}   (image-processing restarts: {})",
                fig4::strategy_label(strategy),
                fmt_duration(row.mean_latency),
                row.restarts
            );
        }
    }
    println!();
}

fn print_tables() {
    for render in [
        report::render_table1(),
        report::render_table2(),
        report::render_table3(),
        report::render_table4(),
        report::render_table5a(),
        report::render_table5b(),
    ] {
        println!("{render}");
    }
    print_table6();
    println!("{}", report::render_table7a());
    println!("{}", report::render_table7b());
    println!("{}", report::render_confluence());
}

fn run_ttl_ablation() {
    println!("Ablation: lease TTL vs critical-section length (Mastodon, issue [65]).");
    println!("  4 redeemers race a 1-use invitation; overuse = more than one succeeds.");
    println!("  {:<14} {:>16}", "cs / ttl", "overuse trials");
    for row in ttl_ablation::run_ttl_ablation(&[0.25, 0.5, 1.0, 2.0, 4.0], 20) {
        println!(
            "  {:<14} {:>9} / {}",
            format!("{:.2}x", row.cs_over_ttl),
            row.overuse_trials,
            row.trials
        );
    }
    println!();
}

fn run_isolation_ablation() {
    println!("Ablation: per-operation isolation hints (Table 7b / §3.1.1 flexibility).");
    println!("  Serializable workers mix a hot-counter RMW with 4 dashboard reads");
    println!("  while a background writer churns the dashboard rows.");
    println!(
        "  {:<34} {:>12} {:>22}",
        "configuration", "txn/s", "serialization aborts"
    );
    for row in isolation_ablation::run_isolation_ablation() {
        println!(
            "  {:<34} {:>12.0} {:>22}",
            row.label, row.throughput_rps, row.serialization_failures
        );
    }
    println!();
}

fn run_resilience_ablation() {
    println!("Ablation: metastability under a 30-tick partition storm.");
    println!("  Goodput per tick by phase; 'full' must return to baseline,");
    println!("  'naive' stays pinned by its own backlog on a healthy backend.");
    println!(
        "  {:<14} {:>9} {:>7} {:>9} {:>6} {:>10} {:>8} {:>7}",
        "configuration", "baseline", "storm", "recovery", "tail", "end_queue", "wasted", "opened"
    );
    for r in resilience::resilience_sweep() {
        println!(
            "  {:<14} {:>9.2} {:>7.2} {:>9.2} {:>6.2} {:>10} {:>8} {:>7}",
            r.config,
            r.baseline,
            r.storm,
            r.recovery,
            r.tail,
            r.end_queue,
            r.wasted,
            r.times_opened
        );
    }
    println!();
}

fn run_traffic_ablation() {
    println!("Ablation: open-loop traffic against the service front door.");
    println!(
        "  Goodput = completions within the {}ms SLO. Past saturation the",
        adhoc_traffic::SLO.as_millis()
    );
    println!("  full stack refuses/sheds at the edge and plateaus; naive serves");
    println!("  everything late, so its goodput collapses on a healthy backend.");
    let scale = adhoc_traffic::TrafficScale::from_env();
    println!("  saturation: {:.0} req/s", scale.saturation_rps());
    println!(
        "  {:<14} {:>6} {:>8} {:>11} {:>11} {:>8} {:>8} {:>9} {:>10} {:>6}",
        "configuration",
        "load_x",
        "arrivals",
        "offered/s",
        "goodput/s",
        "p50_ms",
        "p99_ms",
        "limited",
        "queue_full",
        "shed"
    );
    for r in adhoc_traffic::traffic_sweep(&scale) {
        println!(
            "  {:<14} {:>6.2} {:>8} {:>11.1} {:>11.1} {:>8.2} {:>8.2} {:>9} {:>10} {:>6}",
            r.config,
            r.load_x,
            r.arrivals,
            r.offered_rps,
            r.goodput_rps,
            r.p50_ms,
            r.p99_ms,
            r.rate_limited,
            r.queue_full,
            r.shed
        );
    }
    println!();
}

/// Print one timed ablation: a row per configuration with its mean cost
/// per operation and the exact count (`count_header`) behind it.
fn print_ablation(title: &str, count_header: &str, rows: &[AblationRow]) {
    println!("Ablation: {title}");
    println!(
        "  {:<28} {:>12} {:>10} {:>24} {:>8}",
        "configuration", "mean/op", "ops", count_header, "per op"
    );
    for r in rows {
        println!(
            "  {:<28} {:>12} {:>10} {:>24} {:>8.2}",
            r.label,
            fmt_duration(r.mean),
            r.ops,
            r.count,
            r.count_per_op()
        );
    }
}

fn run_gap_ablation() {
    print_ablation(
        "gap certification (PBC scan-empty-then-insert on the open order_id tail, 2 workers).",
        "serialization failures",
        &ablations::gap_certification(scaling::window_from_env()),
    );
    println!();
}

fn run_kv_rtt_ablation() {
    let rows = ablations::kv_round_trips(scaling::window_from_env(), &[10, 100, 400]);
    print_ablation(
        "KV lock round trips (uncontended lock + unlock cycles, simulated RTT).",
        "round trips",
        &rows,
    );
    for pair in rows.chunks(2) {
        let (setnx, multi) = (&pair[0], &pair[1]);
        println!(
            "  {} / {}: {:.2}x the cost for {:.2}x the round trips",
            multi.label,
            setnx.label,
            multi.mean.as_secs_f64() / setnx.mean.as_secs_f64(),
            multi.count_per_op() / setnx.count_per_op()
        );
    }
    println!();
}

fn run_rmw_lock_ablation() {
    print_ablation(
        "RMW locking at MySQL Serializable (2 workers decrement one row, section 3.3.1).",
        "deadlock victims",
        &ablations::rmw_locking(scaling::window_from_env()),
    );
    println!();
}

/// Produces the body of one `BENCH_*.json`.
type Producer = fn() -> String;

/// Every file `bench-json` writes and the function that produces its body.
const BENCH_FILES: [(&str, Producer); 5] = [
    ("BENCH_kv.json", || {
        scaling::bench_json("kv_command_scaling", scaling::kv_scaling)
    }),
    ("BENCH_wal.json", || {
        scaling::bench_json("storage_commit_wal_overhead", scaling::wal_commit_scaling)
    }),
    ("BENCH_confluence.json", || {
        scaling::bench_json("confluent_counter_scaling", scaling::confluence_scaling)
    }),
    ("BENCH_resilience.json", resilience::resilience_bench_json),
    ("BENCH_traffic.json", adhoc_traffic::traffic_bench_json),
];

fn run_bench_json(outdir: &str) {
    std::fs::create_dir_all(outdir).expect("create outdir");
    for (file, produce) in BENCH_FILES {
        let path = format!("{outdir}/{file}");
        let json = produce();
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
        print!("{json}");
    }
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    match arg.as_str() {
        "table1" => print!("{}", report::render_table1()),
        "table2" => print!("{}", report::render_table2()),
        "table3" => print!("{}", report::render_table3()),
        "table4" => print!("{}", report::render_table4()),
        "table5a" => print!("{}", report::render_table5a()),
        "table5b" => print!("{}", report::render_table5b()),
        "table6" => print_table6(),
        "table7a" => print!("{}", report::render_table7a()),
        "table7b" => print!("{}", report::render_table7b()),
        "confluence" => print!("{}", report::render_confluence()),
        "findings" => print!("{}", report::render_findings()),
        "extension" => print!("{}", adhoc_study::render_extension()),
        "playbook" => print!("{}", report::render_playbook()),
        "fig2" => run_fig2(),
        "fig3" => run_fig3(),
        "fig4" => run_fig4(),
        "ablation-ttl" => run_ttl_ablation(),
        "ablation-isolation" => run_isolation_ablation(),
        "ablation-gap" => run_gap_ablation(),
        "ablation-kv-rtt" => run_kv_rtt_ablation(),
        "ablation-rmw-lock" => run_rmw_lock_ablation(),
        "ablation-resilience" => run_resilience_ablation(),
        "ablation-traffic" => run_traffic_ablation(),
        "bench-json" => {
            let outdir = std::env::args().nth(2).unwrap_or_else(|| ".".to_string());
            run_bench_json(&outdir);
        }
        "tables" => print_tables(),
        "all" => {
            print_tables();
            println!("{}", report::render_findings());
            println!("{}", report::render_playbook());
            println!("{}", adhoc_study::render_extension());
            run_fig2();
            run_fig3();
            run_fig4();
            run_ttl_ablation();
            run_isolation_ablation();
            run_gap_ablation();
            run_kv_rtt_ablation();
            run_rmw_lock_ablation();
            run_resilience_ablation();
            run_traffic_ablation();
        }
        other => {
            eprintln!("unknown target {other:?}");
            eprintln!(
                "usage: paper-eval [table1|table2|table3|table4|table5a|table5b|table6|table7a|table7b|confluence|findings|extension|playbook|fig2|fig3|fig4|ablation-ttl|ablation-isolation|ablation-gap|ablation-kv-rtt|ablation-rmw-lock|ablation-resilience|ablation-traffic|bench-json|tables|all]"
            );
            std::process::exit(2);
        }
    }
}
