#!/usr/bin/env python3
"""Scaling-shape gate over one fresh sweep (BENCH_wal/kv/confluence).

Every check compares two cells of the same just-measured sweep (any duty
cycle — CI uses the smoke windows), so the verdict does not depend on
which commit, machine or window recorded some other file. What a change
costs in absolute terms is the per-PR gate's question (`benchmark/` +
`compare.py`, parent vs change on one box); this gate asks only whether
the curves still have the shapes the repo claims. Each engine cell is
measured once: the commit-scaling curve is the `policy: "off"` column of
BENCH_wal.json, and the cure ablation is the `adhoc`/`cured` rows of
BENCH_confluence.json. The numbering is historical — checks 2 and 6
compared with recorded floors and are gone, checks 3 and 9b did and are
re-expressed (EXPERIMENTS.md, "One sweep harness", has the ten-sweep
pass counts behind each decision).

  1. Storage-commit scaling, disjoint keys, WAL off. The demanded ratio
     is hardware-aware: with 8+ CPUs the full 3x is demanded
     from 1T to 8T (inside the tolerance band). With 2-7 CPUs the demand
     is no collapse past the core count: 8T >= 0.75x 2T (inside the
     tolerance band). 1T is not the base there because the whole drop
     is the 1T -> 2T step, on every commit measured: on the 2-vCPU
     reference box 2T/1T read 0.52-1.06 (medians 0.65-0.71) and 8T/1T
     0.39-1.02 (medians 0.66-0.72, below 0.75 in 27 of 39 sweeps: 10
     full-window + 9-10 smoke per side, PR 22 and its parent), while
     the curve is flat from 2T on — 8T/2T read 0.64-1.39, median 1.0,
     on both (EXPERIMENTS.md, "Commit watermark, simplified"). On a
     single-CPU box the check is skipped outright — eight workers
     time-slicing one core measure the scheduler, not the engine, and
     smoke windows swing the ratio severalfold run to run; the
     committed full-window artifacts carry the evidence there.
  3. KV command scaling, disjoint keys: the same no-collapse demand on
     the striped store, 8T >= 0.75x 2T (inside the tolerance band),
     skipped on a single-CPU box like check 1. Disjoint-key commands
     share no stripe, so adding threads past the core count must not
     cost throughput.

Two checks gate the §7 cure layer (orm::occ) against the hand-rolled AHT
it replaces:

  4. cured >= adhoc on disjoint keys at every thread count (within
     tolerance) — the optimistic path must not tax the uncontended case.
  5. cured >= 0.9x adhoc on the hot key at every thread count (within
     tolerance) — the retry loop stays competitive with the serialized
     lock queue (in practice it wins by integer factors: no think-time
     under a lock).

Three more gate the coordination-avoiding layer (commutative deltas and
escrow) against both coordinated implementations of the same
hot-counter increment:

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
     coordination to avoid. And 8T same_key must beat the sweep's own
     coordination ceiling — the best hot-key rate the cured layer reaches
     at any thread count (within tolerance), skipped on a single-CPU box.

Tolerance: SCALING_GATE_TOL (fractional, default 0.25) absorbs the noise
of short smoke windows; the committed full-window artifacts have much
wider margins than the band.

Usage: check_scaling.py <BENCH_wal.json> <BENCH_kv.json> <BENCH_confluence.json>
Exits non-zero on any regression.
"""

import json
import os
import sys


LABELS = ("threads", "pattern", "strategy", "policy", "fsync_us")


def load(path, field="throughput_ops"):
    """{labels: field} over the rows of one sweep, a row's labels being
    the values of every LABELS key it carries, in LABELS order:
    (threads, pattern) for KV, (threads, pattern, strategy) for the
    confluence sweep, (threads, pattern, policy, fsync_us) for the WAL
    sweep."""
    with open(path) as f:
        rows = json.load(f)["rows"]
    return {tuple(r[k] for k in LABELS if k in r): r[field] for r in rows}


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    wal, kv, conf = (load(path) for path in sys.argv[1:])
    conf_path = sys.argv[3]
    tol = float(os.environ.get("SCALING_GATE_TOL", "0.25"))
    cpus = os.cpu_count() or 1

    failures = []

    def demand(ok, line, failure):
        print(f"[{'ok' if ok else 'FAIL'}] {line}")
        if not ok:
            failures.append(failure)

    # -- Check 1: commit disjoint thread scaling (WAL off), hardware-aware.
    # With 2-7 CPUs the base is the 2T row (see the module doc for the
    # measurement), otherwise 1T.
    def commits(t):
        return wal[(t, "disjoint", "off", 0)]

    base_threads = 2 if 1 < cpus < 8 else 1
    base = commits(base_threads)
    ratio = commits(8) / base if base > 0 else 0.0
    span = f"{base_threads}T->8T"
    if cpus == 1:
        # Eight workers time-slicing one core measure the scheduler, not
        # the engine: short smoke windows swing the 1T->8T ratio by 5x+
        # run to run. Thread-scaling evidence on such a box comes from
        # the committed full-window artifacts, not this sweep.
        print(
            f"[skip] commit disjoint (wal off) 1T->8T: {ratio:.2f}x measured, "
            "unjudgeable on a single-CPU box"
        )
    else:
        if cpus >= 8:
            need = 3.0 * (1.0 - tol)
            label = f">= {need:.2f}x (3x within tolerance, {cpus} CPUs)"
        else:
            need = 0.75 * (1.0 - tol)
            label = f">= {need:.2f}x (0.75x within tolerance, {cpus} CPUs)"
        demand(
            ratio >= need,
            f"commit disjoint (wal off) {span}: {ratio:.2f}x, demanded {label}",
            f"commit disjoint (wal off) {span} scaling",
        )

    # -- Check 3: KV disjoint, no collapse past the core count.
    kv_base = kv[(2, "disjoint")]
    kv_ratio = kv[(8, "disjoint")] / kv_base if kv_base > 0 else 0.0
    if cpus == 1:
        print(
            f"[skip] kv disjoint 2T->8T: {kv_ratio:.2f}x measured, "
            "unjudgeable on a single-CPU box"
        )
    else:
        need = 0.75 * (1.0 - tol)
        demand(
            kv_ratio >= need,
            f"kv disjoint 2T->8T: {kv_ratio:.2f}x, "
            f"demanded >= {need:.2f}x (0.75x within tolerance, {cpus} CPUs)",
            "kv disjoint 2T->8T scaling",
        )

    threads = sorted({t for (t, _, _) in conf})

    # -- Checks 4-5: the cure-layer ablation, the adhoc/cured rows of the
    #    confluence sweep.
    # 4. Disjoint: the optimistic layer must not tax uncontended work.
    for t in threads:
        cured = conf[(t, "disjoint", "cured")]
        floor = conf[(t, "disjoint", "adhoc")] * (1.0 - tol)
        demand(
            cured >= floor,
            f"occ disjoint {t}T: cured {cured:,.0f} ops/s vs adhoc floor {floor:,.0f}",
            f"occ {t}T disjoint cured vs adhoc",
        )

    # 5. Hot key: the retry loop stays within 0.9x of the lock queue.
    for t in threads:
        cured = conf[(t, "same_key", "cured")]
        floor = 0.9 * conf[(t, "same_key", "adhoc")] * (1.0 - tol)
        demand(
            cured >= floor,
            f"occ same_key {t}T: cured {cured:,.0f} ops/s "
            f"vs 0.9x adhoc floor {floor:,.0f}",
            f"occ {t}T same_key cured vs adhoc",
        )

    # -- Checks 7-9: the confluent path against both coordinated ones.
    # 7. Zero aborts: a mechanism property, demanded on any hardware.
    for (t, pattern, strategy), rate in sorted(load(conf_path, "abort_rate").items()):
        if strategy == "confluent":
            demand(
                rate == 0.0,
                f"confluence {pattern} {t}T: confluent abort_rate {rate:.6f}, demanded 0",
                f"confluence {t}T {pattern} confluent abort rate",
            )

    # 8. Hot key at 8T: drop the retry loop, clear the cured layer 2x.
    cured_hot = conf[(8, "same_key", "cured")]
    conf_hot = conf[(8, "same_key", "confluent")]
    if cpus == 1:
        need = cured_hot * (1.0 - tol)
        label = "no-worse-than-cured (single-CPU box)"
    else:
        need = 2.0 * cured_hot * (1.0 - tol)
        label = f"2x cured within tolerance ({cpus} CPUs)"
    demand(
        conf_hot >= need,
        f"confluence same_key 8T: confluent {conf_hot:,.0f} ops/s "
        f"vs {need:,.0f} demanded ({label})",
        "confluence 8T same_key confluent vs cured",
    )

    # 9a. Disjoint parity: avoidance is free when nothing contends.
    for t in threads:
        confluent = conf[(t, "disjoint", "confluent")]
        floor = conf[(t, "disjoint", "cured")] * (1.0 - tol)
        demand(
            confluent >= floor,
            f"confluence disjoint {t}T: confluent "
            f"{confluent:,.0f} ops/s vs cured floor {floor:,.0f}",
            f"confluence {t}T disjoint confluent vs cured",
        )

    # 9b. 8T hot key vs the sweep's own coordination ceiling: the best
    #     hot-key rate the cured layer reaches at any thread count.
    if cpus == 1:
        print("[skip] confluence same_key 8T vs cured ceiling: single-CPU box")
    else:
        floor = max(conf[(t, "same_key", "cured")] for t in threads) * (1.0 - tol)
        demand(
            conf_hot >= floor,
            f"confluence same_key 8T: confluent {conf_hot:,.0f} ops/s "
            f"vs cured ceiling {floor:,.0f}",
            "confluence 8T same_key vs cured ceiling",
        )

    if failures:
        print("scaling gate FAILED: " + "; ".join(failures))
        sys.exit(1)
    print("scaling gate passed")


if __name__ == "__main__":
    main()
