"""E16 — allocation fit-policy ablation for variable partitions (§4).

The paper specifies split-on-demand but not *which* idle partition to
split; this is the classic Knuth-style storage-allocation study run on
configuration columns: seeded random allocate/release churn (no
coalescing, as in the paper's persistent partition boundaries, with
periodic merge GC), measuring allocation failures and fragmentation per
fit rule.  The ``first``/``best``/``worst`` rows are the
``column-first-fit``/``column-best-fit``/``column-worst-fit`` placement
strategies, one allocator built with each.

Expected shape: worst-fit shatters the large holes and fails most;
best-fit and first-fit stay close (first-fit usually wins on columns,
matching the classic result); all policies fail more as utilization
pressure rises.
"""

import random

from _harness import emit, record_run

from repro.analysis import format_table, sweep
from repro.core import ColumnAllocator

WIDTH = 64
N_OPS = 4_000
TRIALS = 8


def churn(fit: str, mean_hold: int, seed: int):
    """One churn run; returns (failures, attempts, mean fragmentation)."""
    rng = random.Random(seed)
    alloc = ColumnAllocator(WIDTH, coalesce=False,
                            placement=f"column-{fit}-fit")
    held = []
    failures = attempts = 0
    frag_sum = 0.0
    for step in range(N_OPS):
        if held and (rng.random() < 0.5 or alloc.total_free < 2):
            idx = rng.randrange(len(held))
            anchor, w = held.pop(idx)
            alloc.release(anchor, w, 1)
        else:
            w = rng.choice([2, 2, 3, 3, 4, 5, 8])
            attempts += 1
            anchor = alloc.allocate(w, 1)
            if anchor is None:
                failures += 1
                alloc.merge_free()  # GC on failure, then retry once
                anchor = alloc.allocate(w, 1)
            if anchor is not None:
                held.append((anchor, w))
        frag_sum += alloc.fragmentation
    return failures, attempts, frag_sum / N_OPS


def run_point(fit: str):
    failures = attempts = 0
    frags = []
    for trial in range(TRIALS):
        f, a, frag = churn(fit, mean_hold=6, seed=1000 + trial)
        failures += f
        attempts += a
        frags.append(frag)
    return {
        "fail_rate": round(failures / attempts, 4),
        "failures": failures,
        "mean_fragmentation": round(sum(frags) / len(frags), 4),
    }


def test_e16_fit_policies(benchmark):
    result = benchmark.pedantic(
        lambda: sweep("fit", ["first", "best", "worst"], run_point),
        rounds=1, iterations=1,
    )
    # One seeded summary row per rule (no wall clock), so ``repro
    # bench-diff`` gates every churn output against the baseline.
    for row in result.rows:
        record_run({
            "policy": f"fit:{row['fit']}",
            "alloc": {k: row[k] for k in
                      ("failures", "fail_rate", "mean_fragmentation")},
        })
    emit("e16_fit_policies", format_table(
        result.rows,
        title=f"E16: fit-policy churn study ({WIDTH} columns, {N_OPS} ops "
              f"x {TRIALS} trials, merge-on-failure GC)",
    ))
    by = {r["fit"]: r for r in result.rows}
    # Shape: worst-fit destroys large holes -> strictly more failures
    # than both first-fit and best-fit (the classic storage result).
    assert by["worst"]["fail_rate"] > by["first"]["fail_rate"]
    assert by["worst"]["fail_rate"] > by["best"]["fail_rate"]
    # First-fit and best-fit stay within a small factor of each other.
    lo = min(by["first"]["fail_rate"], by["best"]["fail_rate"])
    hi = max(by["first"]["fail_rate"], by["best"]["fail_rate"])
    assert hi <= max(2.5 * lo, lo + 0.02)
