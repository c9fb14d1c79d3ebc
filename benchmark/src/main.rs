//! Wall-clock benchmark of the request path. See README.md.
//!
//! One binary, four roles:
//!
//! * `--workload W --seed S --seconds T --trace 0|1` — one run of one
//!   workload; the last stdout line is the result object.
//! * no `--workload` — the suite: every workload untraced then traced,
//!   `results.json` and `trace.jsonl` under `--out`.
//! * `rep W S plain|traced FILE`, `mt2 S` — the children the first two
//!   spawn, one process per repetition, each under a watchdog.

mod mt2;
mod probes;
mod rep;
mod stats;
mod system;
mod trace;
mod workload;

use rep::{Samples, Timings};
use stats::{summarize, Better, Summary};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{Workload, WORKLOADS};

/// The gated metrics: name, unit, better direction, and where the value
/// is in an [`EndToEnd`].
type Gated = (&'static str, &'static str, Better, fn(&EndToEnd) -> f64);
const END_TO_END: [Gated; 6] = [
    ("throughput_rps", "1/s", Better::Higher, |e| {
        e.timings.throughput_rps
    }),
    ("lat_p50_us", "us", Better::Lower, |e| e.timings.lat_p50_us),
    ("lat_p99_us", "us", Better::Lower, |e| e.timings.lat_p99_us),
    ("goodput_frac", "fraction", Better::Higher, |e| {
        e.timings.goodput_frac
    }),
    ("setup_s", "s", Better::Lower, |e| e.setup_s),
    ("peak_rss_mb", "MB", Better::Lower, |e| e.peak_rss_mb),
];

/// A child that has not finished after this many nominal repetition
/// times is killed and its requests count as failed.
const WATCHDOG_FACTOR: f64 = 10.0;
/// Two-thread probe: repetitions, and the watchdog behind the child's own
/// stall detection (a clean repetition takes ~2 s).
const MT2_REPS: usize = 4;
const MT2_WATCHDOG: Duration = Duration::from_secs(15);
/// Spans are written for the first this many requests of a traced
/// repetition (all of them on every workload but `svc_read`, whose 500,000
/// requests would be a 128 MB file); the metrics use every span.
const TRACE_FILE_REQUESTS: u64 = 50_000;
/// Share of a traced run's `--seconds` spent on untraced/traced
/// repetition pairs; the probes take the rest.
const TRACE_PAIR_SHARE: f64 = 0.45;

type Report = HashMap<String, f64>;

/// Run this executable as a child under a watchdog. `None` if it was
/// killed or failed.
fn child(args: &[String], watchdog: Duration) -> Option<Report> {
    let exe = std::env::current_exe().expect("own path");
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn repetition");
    let mut stdout = child.stdout.take().expect("piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let start = Instant::now();
    let status = loop {
        match child.try_wait().expect("wait") {
            Some(status) => break Some(status),
            None if start.elapsed() > watchdog => {
                child.kill().ok();
                child.wait().ok();
                break None;
            }
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    let text = reader.join().expect("reader thread").ok()?;
    if !status?.success() {
        return None;
    }
    text.lines()
        .map(|line| {
            let (name, value) = line.split_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    /// Calls, rows or requests behind the value.
    samples: u64,
    /// The metric in each repetition on its own, summarized.
    spread: Option<Summary>,
    /// The value from the even and from the odd repetitions alone.
    halves: Option<(f64, f64)>,
}

struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Final-state digest of an `app_*` workload.
    digest: Option<u64>,
}

impl RunResult {
    fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn joined(report: &Report, name: &str) -> Option<u64> {
    let hi = *report.get(&format!("{name}_hi"))? as u64;
    let lo = *report.get(&format!("{name}_lo"))? as u64;
    Some(hi << 32 | lo)
}

/// Arguments of a repetition child: `kind` is `plain` (samples to
/// `file`) or `traced` (spans appended to `file`); `-` writes nothing.
fn rep_args(w: &Workload, seed: u64, kind: &str, file: &str) -> Vec<String> {
    ["rep", w.name, &seed.to_string(), kind, file]
        .map(String::from)
        .to_vec()
}

fn watchdog(w: &Workload) -> Duration {
    Duration::from_secs_f64(w.rep_seconds * WATCHDOG_FACTOR)
}

/// Repetitions in a run of `seconds`: fixed by the workload's nominal
/// repetition time, not by how fast this build is, so parent and change
/// do the same work and take the best of the same number of tries.
fn rep_count(w: &Workload, seconds: f64) -> usize {
    ((seconds / w.rep_seconds).round() as usize).max(3)
}

type Rep = (Report, Samples);

/// Run one untraced repetition and read back its samples.
fn plain_rep(w: &Workload, seed: u64, out: &Path) -> Option<Rep> {
    let file = out.join(format!("samples.{}.bin", w.name));
    let args = rep_args(w, seed, "plain", &file.to_string_lossy());
    let report = child(&args, watchdog(w));
    let samples = Samples::read(&file, w);
    fs::remove_file(&file).ok();
    Some((report?, samples.ok()?))
}

/// Timings from the per-request minimum over repetitions: same seed, same
/// requests, so request *i* does the same work in each, and the box's
/// noise only ever adds time.
fn best_timings(reps: &[&Rep]) -> Timings {
    let mut best = Samples {
        closed: reps[0].1.closed.clone(),
        open: reps[0].1.open.clone(),
    };
    for (_, samples) in &reps[1..] {
        best.fold_min(samples);
    }
    best.timings()
}

/// The end-to-end metrics from a set of repetitions: the four timings
/// from [`best_timings`], `setup_s` the smallest, `peak_rss_mb` the median.
struct EndToEnd {
    timings: Timings,
    setup_s: f64,
    peak_rss_mb: f64,
}

impl EndToEnd {
    fn of(reps: &[&Rep]) -> Self {
        let column = |name: &str| -> Vec<f64> { reps.iter().map(|(r, _)| r[name]).collect() };
        Self {
            timings: best_timings(reps),
            setup_s: summarize(&column("setup_s"), Better::Lower).best,
            peak_rss_mb: summarize(&column("peak_rss_mb"), Better::Lower).median,
        }
    }
}

/// The untraced run every end-to-end metric comes from.
fn run_untraced(w: &Workload, seed: u64, seconds: f64, out: &Path) -> RunResult {
    let reps = rep_count(w, seconds);
    let per_rep = (w.closed_n + w.open_n) as u64;
    let mut done: Vec<Rep> = Vec::with_capacity(reps);
    let mut failed = 0;
    for _ in 0..reps {
        match plain_rep(w, seed, out) {
            Some(rep) => {
                failed += rep.0["failed"] as u64;
                done.push(rep);
            }
            None => {
                eprintln!("{}: a repetition did not finish", w.name);
                failed += per_rep;
            }
        }
    }
    let mut result = RunResult {
        correct: done.len() == reps && done.iter().all(|(r, _)| r["correct"] == 1.0),
        attempted: reps as u64 * per_rep,
        failed,
        metrics: Vec::new(),
        digest: done.first().and_then(|(r, _)| joined(r, "digest")),
    };
    if done.is_empty() {
        return result;
    }
    // The same estimates from the even and the odd repetitions alone: how
    // far the two disagree is the run's own measure of its noise.
    let all = EndToEnd::of(&done.iter().collect::<Vec<_>>());
    let halves = (done.len() > 1).then(|| {
        let half = |skip| EndToEnd::of(&done.iter().skip(skip).step_by(2).collect::<Vec<_>>());
        (half(0), half(1))
    });
    for (name, unit, better, value) in END_TO_END {
        let per_rep: Vec<f64> = done.iter().map(|(r, _)| r[name]).collect();
        result.metrics.push(Metric {
            name: name.into(),
            unit,
            value: value(&all),
            samples: match name {
                "setup_s" | "peak_rss_mb" => done.len() as u64,
                "goodput_frac" => w.open_n as u64,
                _ => w.closed_n as u64,
            },
            spread: Some(summarize(&per_rep, better)),
            halves: halves.as_ref().map(|(even, odd)| (value(even), value(odd))),
        });
    }
    result
}

/// The traced run every per-layer metric comes from.
fn run_traced(w: &Workload, seed: u64, seconds: f64, out: &Path) -> RunResult {
    let started = Instant::now();
    let trace_file = out.join(format!("trace.{}.jsonl", w.name));
    let mut result = RunResult {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        digest: None,
    };
    let mut push = |name: &str, unit: &'static str, value: f64, samples: u64| {
        result.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            samples,
            spread: None,
            halves: None,
        })
    };

    // Alternate untraced and traced repetitions of the closed-loop
    // vector; the first traced one writes its spans.
    let mut traced_rps = 0f64;
    let mut plain_reps: Vec<Rep> = Vec::new();
    let mut traced: Option<Report> = None;
    fs::File::create(&trace_file).expect("create trace file");
    while traced.is_none() || started.elapsed().as_secs_f64() < seconds * TRACE_PAIR_SHARE {
        let plain = plain_rep(w, seed, out);
        let spans_to = if traced.is_none() {
            trace_file.to_string_lossy().into_owned()
        } else {
            "-".into()
        };
        let t = child(&rep_args(w, seed, "traced", &spans_to), watchdog(w));
        let (Some(plain), Some(t)) = (plain, t) else {
            eprintln!("{}: a traced-run repetition did not finish", w.name);
            result.correct = false;
            break;
        };
        result.attempted += (2 * w.closed_n + w.open_n) as u64;
        result.failed += (plain.0["failed"] + t["failed"]) as u64;
        result.correct &= plain.0["correct"] == 1.0;
        traced_rps = traced_rps.max(t["traced_rps"]);
        plain_reps.push(plain);
        traced.get_or_insert(t);
    }
    // Untraced throughput as the traced one is taken: best repetition.
    let (mut plain_rps, mut late_us, mut open_p99_us) = (0f64, 0f64, 0f64);
    if !plain_reps.is_empty() {
        let column = |name: &'static str| plain_reps.iter().map(move |(r, _)| r[name]);
        plain_rps = column("throughput_rps").fold(0.0, f64::max);
        late_us = column("gen_late_p99_us").fold(f64::MAX, f64::min);
        open_p99_us = best_timings(&plain_reps.iter().collect::<Vec<_>>()).open_p99_us;
    }
    let traced = traced.unwrap_or_default();
    let closed = w.closed_n as u64;
    let at = |name: &str| traced.get(name).copied().unwrap_or(0.0);
    push(
        "trace.overhead_frac",
        "fraction",
        if plain_rps > 0.0 {
            1.0 - traced_rps / plain_rps
        } else {
            0.0
        },
        closed,
    );
    push(
        "trace.reconcile_frac",
        "fraction",
        at("reconcile_frac"),
        closed,
    );
    push("open_p99_us", "us", open_p99_us, w.open_n as u64);
    push("traffic.gen_late_p99_us", "us", late_us, w.open_n as u64);
    push("service.self_ns", "ns", at("service.self_ns"), closed);
    for (name, unit) in [
        ("kv.commands_per_req", "1/req"),
        ("storage.statements_per_req", "1/req"),
        ("storage.commits_per_req", "1/req"),
        ("storage.aborts", "count"),
    ] {
        push(name, unit, at(name), closed);
    }
    for e in adhoc_service::Endpoint::ALL {
        let name = format!("apps.time_share.{}", e.label());
        push(&name, "fraction", at(&name), closed);
    }

    // The workload-independent probes, in this process (single-threaded
    // code cannot stall).
    let probes = probes::run(seed);
    for p in &probes.out {
        push(&p.name, p.unit, p.value, p.samples);
    }
    let mut file = fs::OpenOptions::new()
        .append(true)
        .open(&trace_file)
        .expect("open trace file");
    probes
        .spans
        .write_jsonl("probes", u64::MAX, &mut file)
        .expect("write spans");

    // The two-thread stall probe, last: nothing is being timed any more.
    let mut stalled = 0;
    let mut ops_per_s = 0f64;
    for i in 0..MT2_REPS {
        let args = ["mt2".to_string(), seed.wrapping_add(i as u64).to_string()];
        match child(&args, MT2_WATCHDOG) {
            Some(r) if r["stalled"] == 0.0 => ops_per_s = ops_per_s.max(r["ops_per_s"]),
            _ => stalled += 1,
        }
    }
    push(
        "storage.mt2.stalled_reps",
        "count",
        stalled as f64,
        MT2_REPS as u64,
    );
    push("storage.mt2.ops_per_s", "1/s", ops_per_s, MT2_REPS as u64);
    result
}

/// The child side of `rep W S plain|traced FILE`: print `name value`
/// lines.
fn rep_child(args: &[String]) -> ExitCode {
    let (Some(w), Some(seed), Some(kind), Some(file)) = (
        args.first().and_then(|n| workload::find(n)),
        args.get(1).and_then(|s| s.parse().ok()),
        args.get(2).map(String::as_str),
        args.get(3),
    ) else {
        return usage();
    };
    if kind == "plain" {
        let (report, samples) = rep::run(w, seed);
        for (name, value) in report {
            println!("{name} {value}");
        }
        if file != "-" {
            samples.write(Path::new(file)).expect("write samples");
        }
        return ExitCode::SUCCESS;
    }
    let (lines, spans) = rep::run_traced(w, seed);
    for (name, value) in lines {
        println!("{name} {value}");
    }
    if file != "-" {
        let file = fs::OpenOptions::new().append(true).open(file);
        let mut file = std::io::BufWriter::new(file.expect("open trace file"));
        spans
            .write_jsonl(w.name, TRACE_FILE_REQUESTS, &mut file)
            .expect("write spans");
        file.flush().expect("flush spans");
    }
    ExitCode::SUCCESS
}

fn fmt(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn print_metrics(w: &Workload, r: &RunResult) {
    for m in &r.metrics {
        let spread = m.spread.as_ref().map_or(String::new(), |s| {
            format!(
                "  (per repetition: {} reps, median {:.6} q1 {:.6} q3 {:.6})",
                s.reps, s.median, s.q1, s.q3
            )
        });
        println!(
            "{:<14} {:<44} {:>16.6} {:<8} n={}{}",
            w.name, m.name, m.value, m.unit, m.samples, spread
        );
    }
}

/// The result object of the benchmark contract.
fn result_line(r: &RunResult) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.correct && r.metrics.iter().all(|m| m.value.is_finite()),
        r.attempted.max(1),
        r.failed
    );
    for (i, m) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            fmt(m.value),
            m.unit
        )
        .expect("write to string");
    }
    s.push_str("}}");
    s
}

fn results_json(seed: u64, seconds: f64, runs: &[(&Workload, RunResult, RunResult)]) -> String {
    let mut s = format!("{{\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"workloads\": {{");
    for (i, (w, plain, traced)) in runs.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(
            s,
            "{sep}\n    \"{}\": {{\n      \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"fail_frac\": {},",
            w.name,
            plain.correct && traced.correct,
            plain.attempted,
            plain.failed,
            fmt(plain.fail_frac())
        )
        .expect("write to string");
        if let Some(d) = plain.digest {
            write!(s, " \"digest\": \"{d:016x}\",").expect("write to string");
        }
        for (key, run) in [("end_to_end", plain), ("per_layer", traced)] {
            write!(s, "\n      \"{key}\": {{").expect("write to string");
            for (j, m) in run.metrics.iter().enumerate() {
                let sep = if j == 0 { "" } else { "," };
                write!(
                    s,
                    "{sep}\n        \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}",
                    m.name,
                    fmt(m.value),
                    m.unit,
                    m.samples
                )
                .expect("write to string");
                if let Some(sp) = &m.spread {
                    write!(
                        s,
                        ", \"reps\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}",
                        sp.reps,
                        fmt(sp.median),
                        fmt(sp.q1),
                        fmt(sp.q3)
                    )
                    .expect("write to string");
                }
                if let Some((even, odd)) = m.halves {
                    write!(s, ", \"halves\": [{}, {}]", fmt(even), fmt(odd))
                        .expect("write to string");
                }
                s.push('}');
            }
            s.push_str("\n      }");
            if key == "end_to_end" {
                s.push(',');
            }
        }
        s.push_str("\n    }");
    }
    s.push_str("\n  }\n}\n");
    s
}

/// Every workload, untraced then traced; `results.json` and `trace.jsonl`.
fn suite(seed: u64, seconds: f64, out: &Path) -> ExitCode {
    let mut runs = Vec::new();
    for w in &WORKLOADS {
        let plain = run_untraced(w, seed, seconds, out);
        print_metrics(w, &plain);
        println!(
            "{:<14} {:<44} {:>16.6} {:<8} n={}",
            w.name,
            "fail_frac",
            plain.fail_frac(),
            "fraction",
            plain.attempted
        );
        let traced = run_traced(w, seed, seconds, out);
        print_metrics(w, &traced);
        println!(
            "{:<14} output checks {}",
            w.name,
            if plain.correct && traced.correct {
                "passed"
            } else {
                "FAILED"
            }
        );
        runs.push((w, plain, traced));
    }
    // Informational: single-threaded, the four modes should leave the
    // same final state for one request stream.
    let digests: Vec<(&str, u64)> = runs
        .iter()
        .filter_map(|(w, plain, _)| Some((w.name, plain.digest?)))
        .collect();
    let agree = digests.windows(2).all(|p| p[0].1 == p[1].1);
    println!(
        "final-state digests of the app_* modes {}: {digests:x?}",
        if agree {
            "agree"
        } else {
            "DISAGREE (a finding, not a failure)"
        }
    );
    fs::write(out.join("results.json"), results_json(seed, seconds, &runs)).expect("write results");
    let mut all = fs::File::create(out.join("trace.jsonl")).expect("create trace.jsonl");
    for w in &WORKLOADS {
        let part = out.join(format!("trace.{}.jsonl", w.name));
        let mut file = fs::File::open(&part).expect("open trace part");
        std::io::copy(&mut file, &mut all).expect("append trace part");
        fs::remove_file(part).expect("remove trace part");
    }
    let ok = runs
        .iter()
        .all(|(_, plain, traced)| plain.correct && traced.correct && plain.failed == 0);
    println!("wrote {}/results.json and trace.jsonl", out.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: run.sh [--workload NAME --trace 0|1] [--seed N] [--seconds N] [--out DIR]\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("rep") => return rep_child(&args[1..]),
        Some("mt2") => {
            let Some(seed) = args.get(1).and_then(|s| s.parse().ok()) else {
                return usage();
            };
            let outcome = mt2::run(seed);
            println!("stalled {}", u8::from(outcome.stalled));
            println!("ops_per_s {}", outcome.ops_per_s);
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let mut workload = None;
    let mut seed = adhoc_traffic::SEED;
    let mut seconds = 10.0_f64;
    let mut trace = false;
    let mut out = PathBuf::from("benchmark/out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        let understood = match flag.as_str() {
            "--workload" => {
                workload = workload::find(value);
                workload.is_some()
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => {
                seconds = value.parse().unwrap_or(0.0);
                seconds > 0.0 && seconds.is_finite()
            }
            "--trace" => {
                trace = value == "1";
                trace || value == "0"
            }
            "--out" => {
                out = PathBuf::from(value);
                true
            }
            _ => false,
        };
        if !understood {
            return usage();
        }
    }
    fs::create_dir_all(&out).expect("create output directory");
    let Some(w) = workload else {
        return suite(seed, seconds, &out);
    };
    let result = if trace {
        run_traced(w, seed, seconds, &out)
    } else {
        run_untraced(w, seed, seconds, &out)
    };
    print_metrics(w, &result);
    println!("{}", result_line(&result));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written by hand; the workloads and the gated
    /// metrics it lists must be the ones this binary runs and prints.
    #[test]
    fn benchmark_json_lists_what_the_binary_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let listed = |section: &str| -> String {
            let start = json.find(&format!("\"{section}\": [")).expect("section");
            json[start..start + json[start..].find(']').expect("section end")].to_string()
        };
        let workloads = listed("workloads");
        for w in &WORKLOADS {
            assert!(
                workloads.contains(&format!("\"name\": \"{}\"", w.name)),
                "{}",
                w.name
            );
        }
        assert_eq!(workloads.matches("\"name\"").count(), WORKLOADS.len());
        let end_to_end = listed("end_to_end");
        for (name, unit, better, _) in END_TO_END {
            let better = match better {
                Better::Higher => "higher",
                Better::Lower => "lower",
            };
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\",\n      \"better\": \"{better}\"");
            assert!(end_to_end.contains(&entry), "{entry}");
        }
        assert_eq!(end_to_end.matches("\"name\"").count(), END_TO_END.len());
        let seconds = WORKLOADS.iter().map(|w| rep_count(w, 10.0)).min();
        assert!(json.contains("\"run_seconds\": 10") && seconds >= Some(5));
    }

    #[test]
    fn result_line_is_one_json_object_with_the_four_keys() {
        let r = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![Metric {
                name: "setup_s".into(),
                unit: "s",
                value: 0.25,
                samples: 1,
                spread: None,
                halves: None,
            }],
            digest: None,
        };
        assert_eq!(
            result_line(&r),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
