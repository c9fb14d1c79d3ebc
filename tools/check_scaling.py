#!/usr/bin/env python3
"""Scaling-regression gate over fresh BENCH_fig2/fig3 runs.

Compares a just-measured sweep (any duty cycle — CI uses the smoke
windows) against the committed pre-refactor baselines in tools/baselines/
and against its own 1-thread row, and fails loudly when the sharded spines
regress. Three checks:

  1. fig2 storage-commit scaling, disjoint keys. The demanded ratio is
     hardware-aware: with 8+ CPUs the full 3x of the issue is demanded
     from 1T to 8T (inside the tolerance band). With 2-7 CPUs the demand
     is no collapse past the core count: 8T >= 0.75x 2T (inside the
     tolerance band). 1T is not the base there because the whole drop
     is the 1T -> 2T step, on every commit measured: on the 2-vCPU
     reference box 2T/1T read 0.52-1.06 (medians 0.65-0.71) and 8T/1T
     0.39-1.02 (medians 0.66-0.72, below 0.75 in 27 of 39 sweeps: 10
     full-window + 9-10 smoke per side, PR 22 and its parent), while
     the curve is flat from 2T on — 8T/2T read 0.64-1.39, median 1.0,
     on both (EXPERIMENTS.md, "Commit watermark, simplified"). On a
     single-CPU box checks 1-2 are skipped outright — eight workers
     time-slicing one core measure the scheduler, not the engine, and
     smoke windows swing the ratio severalfold run to run; the
     committed full-window artifacts carry the evidence there.
  2. fig2 8T disjoint must beat the committed pre-shard baseline
     (tools/baselines/fig2_pre_shard.json) within tolerance — the sharded
     commit path can never fall back to the global-mutex era.
  3. fig3 KV disjoint throughput must meet or exceed the committed
     pre-stripe baseline (tools/baselines/fig3_pre_shard.json) at EVERY
     thread count within tolerance — the lock-shared read path has to
     recover what the striping refactor originally cost.

With a BENCH_occ.json argument, three more checks gate the §7 cure layer
(orm::occ) against the hand-rolled AHT it replaces:

  4. cured >= adhoc on disjoint keys at every thread count (within
     tolerance) — the optimistic path must not tax the uncontended case.
  5. cured >= 0.9x adhoc on the hot key at every thread count (within
     tolerance) — the retry loop stays competitive with the serialized
     lock queue (in practice it wins by integer factors: no think-time
     under a lock).
  6. cured 8T disjoint must beat the committed pre-cure AHT floor
     (tools/baselines/occ_pre_cure.json) within tolerance.

With a BENCH_confluence.json argument, three more checks gate the PR-9
coordination-avoiding layer (commutative deltas + escrow) against both
coordinated implementations of the same hot-counter increment:

  7. confluent abort_rate == 0 on EVERY row — commutative deltas carry no
     read footprint, so nothing ever validates or rolls back. This is a
     correctness property of the mechanism, not a throughput number, and
     is demanded on any hardware.
  8. On the single hot key, confluent >= 2x cured at 8 threads (within
     tolerance) — the headline: dropping the retry loop beats retrying
     it. On a single-CPU box the demand relaxes to no-worse-than-cured
     (time-slicing hides the coordination gap the check measures).
  9. On disjoint keys, confluent >= cured at every thread count (within
     tolerance) — avoiding coordination must be free when there is no
     coordination to avoid. And 8T same_key must beat the committed
     floor in tools/baselines/confluence.json (the cured row: the
     coordination ceiling this layer exists to clear), skipped on a
     single-CPU box like check 2.

Tolerance: SCALING_GATE_TOL (fractional, default 0.25) absorbs the noise
of short smoke windows; the committed full-window artifacts have much
wider margins than the band.

Usage: check_scaling.py <BENCH_fig2.json> <BENCH_fig3.json> [BENCH_occ.json] [BENCH_confluence.json] [baseline_dir]
Exits non-zero on any regression.
"""

import json
import os
import sys


def load_rows(path):
    with open(path) as f:
        doc = json.load(f)
    return {(r["threads"], r["pattern"]): r["throughput_ops"] for r in doc["rows"]}


def load_occ_rows(path):
    with open(path) as f:
        doc = json.load(f)
    return {
        (r["threads"], r["pattern"], r.get("strategy", "adhoc")): r["throughput_ops"]
        for r in doc["rows"]
    }


def load_abort_rows(path):
    with open(path) as f:
        doc = json.load(f)
    return {
        (r["threads"], r["pattern"], r.get("strategy", "adhoc")): r.get("abort_rate", 0.0)
        for r in doc["rows"]
    }


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    fig2_path, fig3_path = sys.argv[1], sys.argv[2]
    rest = sys.argv[3:]
    occ_path = rest.pop(0) if rest and rest[0].endswith(".json") else None
    conf_path = rest.pop(0) if rest and rest[0].endswith(".json") else None
    baseline_dir = (
        rest[0]
        if rest
        else os.path.join(os.path.dirname(os.path.abspath(__file__)), "baselines")
    )
    tol = float(os.environ.get("SCALING_GATE_TOL", "0.25"))
    cpus = os.cpu_count() or 1

    fig2 = load_rows(fig2_path)
    fig3 = load_rows(fig3_path)
    base2 = load_rows(os.path.join(baseline_dir, "fig2_pre_shard.json"))
    base3 = load_rows(os.path.join(baseline_dir, "fig3_pre_shard.json"))

    failures = []

    # -- Check 1: fig2 disjoint thread scaling, hardware-aware.
    # With 2-7 CPUs the base is the 2T row (see the module doc for the
    # measurement), otherwise 1T.
    base_threads = 2 if 1 < cpus < 8 else 1
    base = fig2[(base_threads, "disjoint")]
    t8 = fig2[(8, "disjoint")]
    ratio = t8 / base if base > 0 else 0.0
    span = f"{base_threads}T->8T"
    if cpus == 1:
        # Eight workers time-slicing one core measure the scheduler, not
        # the engine: short smoke windows swing the 1T->8T ratio by 5x+
        # run to run. Thread-scaling evidence on such a box comes from
        # the committed full-window artifacts, not this sweep.
        print(
            f"[skip] fig2 disjoint 1T->8T: {ratio:.2f}x measured, "
            "unjudgeable on a single-CPU box"
        )
        print("[skip] fig2 disjoint 8T absolute floor: single-CPU box")
    else:
        if cpus >= 8:
            need = 3.0 * (1.0 - tol)
            label = f">= {need:.2f}x (3x within tolerance, {cpus} CPUs)"
        else:
            need = 0.75 * (1.0 - tol)
            label = f">= {need:.2f}x (0.75x within tolerance, {cpus} CPUs)"
        status = "ok" if ratio >= need else "FAIL"
        print(f"[{status}] fig2 disjoint {span}: {ratio:.2f}x, demanded {label}")
        if ratio < need:
            failures.append(f"fig2 disjoint {span} scaling")

        # -- Check 2: fig2 8T disjoint vs the pre-shard (global-mutex) era.
        floor = base2[(8, "disjoint")] * (1.0 - tol)
        status = "ok" if t8 >= floor else "FAIL"
        print(
            f"[{status}] fig2 disjoint 8T: {t8:,.0f} ops/s "
            f"vs pre-shard floor {floor:,.0f}"
        )
        if t8 < floor:
            failures.append("fig2 8T disjoint vs pre-shard baseline")

    # -- Check 3: fig3 KV disjoint vs the pre-stripe baseline, every count.
    for (threads, pattern), base_ops in sorted(base3.items()):
        if pattern != "disjoint":
            continue
        fresh = fig3[(threads, pattern)]
        floor = base_ops * (1.0 - tol)
        status = "ok" if fresh >= floor else "FAIL"
        print(
            f"[{status}] fig3 disjoint {threads}T: {fresh:,.0f} ops/s "
            f"vs pre-stripe floor {floor:,.0f}"
        )
        if fresh < floor:
            failures.append(f"fig3 {threads}T disjoint vs pre-stripe baseline")

    # -- Checks 4-6: the cure-layer ablation, when BENCH_occ.json is given.
    if occ_path:
        occ = load_occ_rows(occ_path)
        base_occ = load_occ_rows(os.path.join(baseline_dir, "occ_pre_cure.json"))
        threads = sorted({t for (t, _, _) in occ})

        # 4. Disjoint: the optimistic layer must not tax uncontended work.
        for t in threads:
            adhoc = occ[(t, "disjoint", "adhoc")]
            cured = occ[(t, "disjoint", "cured")]
            floor = adhoc * (1.0 - tol)
            status = "ok" if cured >= floor else "FAIL"
            print(
                f"[{status}] occ disjoint {t}T: cured {cured:,.0f} ops/s "
                f"vs adhoc floor {floor:,.0f}"
            )
            if cured < floor:
                failures.append(f"occ {t}T disjoint cured vs adhoc")

        # 5. Hot key: the retry loop stays within 0.9x of the lock queue.
        for t in threads:
            adhoc = occ[(t, "same_key", "adhoc")]
            cured = occ[(t, "same_key", "cured")]
            floor = 0.9 * adhoc * (1.0 - tol)
            status = "ok" if cured >= floor else "FAIL"
            print(
                f"[{status}] occ same_key {t}T: cured {cured:,.0f} ops/s "
                f"vs 0.9x adhoc floor {floor:,.0f}"
            )
            if cured < floor:
                failures.append(f"occ {t}T same_key cured vs adhoc")

        # 6. Absolute floor: cured 8T disjoint vs the committed pre-cure AHT.
        cured8 = occ[(8, "disjoint", "cured")]
        floor = base_occ[(8, "disjoint", "adhoc")] * (1.0 - tol)
        status = "ok" if cured8 >= floor else "FAIL"
        print(
            f"[{status}] occ disjoint 8T: cured {cured8:,.0f} ops/s "
            f"vs pre-cure floor {floor:,.0f}"
        )
        if cured8 < floor:
            failures.append("occ 8T disjoint vs pre-cure baseline")

    # -- Checks 7-9: the confluence ablation, when BENCH_confluence.json
    #    is given.
    if conf_path:
        conf = load_occ_rows(conf_path)
        aborts = load_abort_rows(conf_path)
        threads = sorted({t for (t, _, _) in conf})

        # 7. Zero aborts: a mechanism property, demanded on any hardware.
        for (t, pattern, strategy), rate in sorted(aborts.items()):
            if strategy != "confluent":
                continue
            status = "ok" if rate == 0.0 else "FAIL"
            print(
                f"[{status}] confluence {pattern} {t}T: "
                f"confluent abort_rate {rate:.6f}, demanded 0"
            )
            if rate != 0.0:
                failures.append(f"confluence {t}T {pattern} confluent abort rate")

        # 8. Hot key at 8T: drop the retry loop, clear the cured layer 2x.
        cured_hot = conf[(8, "same_key", "cured")]
        conf_hot = conf[(8, "same_key", "confluent")]
        if cpus == 1:
            need = cured_hot * (1.0 - tol)
            label = "no-worse-than-cured (single-CPU box)"
        else:
            need = 2.0 * cured_hot * (1.0 - tol)
            label = f"2x cured within tolerance ({cpus} CPUs)"
        status = "ok" if conf_hot >= need else "FAIL"
        print(
            f"[{status}] confluence same_key 8T: confluent {conf_hot:,.0f} ops/s "
            f"vs {need:,.0f} demanded ({label})"
        )
        if conf_hot < need:
            failures.append("confluence 8T same_key confluent vs cured")

        # 9a. Disjoint parity: avoidance is free when nothing contends.
        for t in threads:
            cured = conf[(t, "disjoint", "cured")]
            confluent = conf[(t, "disjoint", "confluent")]
            floor = cured * (1.0 - tol)
            status = "ok" if confluent >= floor else "FAIL"
            print(
                f"[{status}] confluence disjoint {t}T: confluent "
                f"{confluent:,.0f} ops/s vs cured floor {floor:,.0f}"
            )
            if confluent < floor:
                failures.append(f"confluence {t}T disjoint confluent vs cured")

        # 9b. Absolute floor: 8T hot key vs the committed coordination
        #     ceiling (the baseline's cured row).
        if cpus == 1:
            print("[skip] confluence same_key 8T absolute floor: single-CPU box")
        else:
            base_conf = load_occ_rows(os.path.join(baseline_dir, "confluence.json"))
            floor = base_conf[(8, "same_key", "cured")] * (1.0 - tol)
            status = "ok" if conf_hot >= floor else "FAIL"
            print(
                f"[{status}] confluence same_key 8T: confluent {conf_hot:,.0f} ops/s "
                f"vs committed cured ceiling {floor:,.0f}"
            )
            if conf_hot < floor:
                failures.append("confluence 8T same_key vs committed baseline")

    if failures:
        print("scaling gate FAILED: " + "; ".join(failures))
        sys.exit(1)
    print("scaling gate passed")


if __name__ == "__main__":
    main()
