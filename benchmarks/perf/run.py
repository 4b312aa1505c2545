"""Host-time benchmark of the VFPGA simulator and compile flow.

    python3 benchmarks/perf/run.py --workload sim-kernel --seed 0 \\
        [--seconds 10] [--trace 0|1]

One workload (see ``specs.py``) per process, on one thread.  A plain run
(``--trace 0``) times set-up, which is the import of ``repro`` plus the
median of three workload set-ups, then one untimed warm-up repetition,
then repetitions for ``--seconds``, and reports the end-to-end metrics.  A
traced run (``--trace 1``) spends half of ``--seconds`` on plain
repetitions and half on repetitions with every layer timed from outside
(``layers.py``), reports the per-layer metrics and writes a ledger to
``benchmarks/results/perf/ledger_<workload>_seed<N>.json``.  End-to-end
numbers never come from a traced run.

The last line printed is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  The line before it
holds the raw per-repetition samples and the simulated or compiled
outputs.  The exit code is 1 when a check fails: a failed operation or
compile, outputs that differ between repetitions (traced ones included,
which shows the wrappers inert), an audit violation, or a warm compile
that differs from its cold one.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from specs import END_TO_END, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
LEDGER_DIR = ROOT / "benchmarks" / "results" / "perf"
#: Set-ups per run; ``setup_s`` takes their median.
SETUPS = 3
#: Timed repetitions per phase, however short ``--seconds`` is.
MIN_REPS = 3


def measure(name: str, seed: int, seconds: float, trace: bool,
            import_s: float = 0.0, spec=None):
    """Run one workload; returns ``(result, detail)``.

    ``spec`` overrides ``WORKLOADS[name]`` (tests pass a shrunk one).
    """
    import workloads
    from layers import LayerClock

    spec = WORKLOADS[name] if spec is None else spec
    setup_walls = []
    for _ in range(SETUPS):
        t0 = perf_counter()
        state = workloads.setup(spec, seed)
        setup_walls.append(perf_counter() - t0)
    reference = workloads.run_rep(spec, state)  # the untimed warm-up

    def repeat(budget: float, traced: bool):
        reps, deadline = [], perf_counter() + budget
        while len(reps) < MIN_REPS or perf_counter() < deadline:
            clock = LayerClock() if traced else None
            reps.append(workloads.run_rep(spec, state, clock))
        return reps

    plain = repeat(seconds / 2 if trace else seconds, traced=False)
    traced = repeat(seconds / 2, traced=True) if trace else []
    timed = plain + traced
    problems = sorted({p for rep in [reference] + timed for p in rep.problems})
    if any(rep.outputs != reference.outputs for rep in timed):
        problems.append("outputs differ between repetitions")
    failed = sum(rep.failed for rep in timed)

    if trace:
        samples = {k: [rep.layers.get(k, 0.0) for rep in traced]
                   for k in PER_LAYER if not k.startswith("trace.")}
        values = {k: statistics.median(v) for k, v in samples.items()}
        values.update(_tracing_cost(plain, traced))
        units = PER_LAYER
    else:
        values = {
            "setup_s": import_s + statistics.median(setup_walls),
            "wall_s": statistics.median(rep.wall_s for rep in plain),
            "ops_per_s": statistics.median(
                rep.attempted / rep.wall_s for rep in plain),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    result = {
        "correct": not problems and failed == 0,
        "attempted": sum(rep.attempted for rep in timed),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()},
    }
    detail = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "import_s": import_s,
        "setup_s_samples": setup_walls,
        "wall_s_samples": [rep.wall_s for rep in plain],
        "traced_wall_s_samples": [rep.wall_s for rep in traced],
        "outputs": reference.outputs,
        "problems": problems,
    }
    if trace:
        detail["layer_samples"] = samples
        detail["event_counts"] = traced[0].event_counts
    return result, detail


def _tracing_cost(plain, traced):
    """How much the wrappers slow a repetition, and how much of the traced
    wall no layer accounts for."""
    return {
        "trace.overhead_ratio": (
            statistics.median(rep.wall_s for rep in traced)
            / statistics.median(rep.wall_s for rep in plain)
        ),
        "trace.unattributed_s": statistics.median(
            rep.wall_s - rep.clock.total_self_s for rep in traced),
        "trace.coverage": statistics.median(
            rep.clock.total_self_s / rep.wall_s for rep in traced),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One thread: keep numpy's BLAS from starting a worker pool.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    t0 = perf_counter()
    sys.path.insert(1, str(ROOT / "src"))
    import workloads  # noqa: F401  (imports repro: part of set-up)
    import_s = perf_counter() - t0

    result, detail = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace), import_s)
    if args.trace:
        LEDGER_DIR.mkdir(parents=True, exist_ok=True)
        ledger = dict(detail, layers={
            k: m["value"] for k, m in result["metrics"].items()})
        path = LEDGER_DIR / f"ledger_{args.workload}_seed{args.seed}.json"
        path.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
