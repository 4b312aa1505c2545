"""Compare two ``BENCH_*.json`` benchmark artifacts.

``benchmarks/_harness.py`` emits one artifact per experiment: a list of
run records carrying the reproduction recipe (policy + kwargs +
scheduler), simulation results (makespan, turnaround, useful fraction),
and simulator performance (wall-clock seconds, events published).  This
module is the regression gate over those artifacts — used three ways:

* ``repro bench-diff A.json B.json [--fail-on pct]`` (CI fails the
  build on regression against ``benchmarks/baselines/``);
* the harness itself, which prints a soft diff against the committed
  baseline after every ``emit``;
* tests, which feed synthetic artifacts.

Gating semantics: ``wall_seconds`` regresses when it *grows* past the
threshold (machine-dependent, so only growth is a failure).  Everything
a seeded simulation computes — the headline results (makespan, mean
turnaround, useful fraction, loads and hits) as much as event counts
and frames written — regresses when it *deviates* past the threshold in
either direction: the experiments are deterministic, so any drift means
the simulation changed.  A change that moves them on purpose
regenerates the baseline and says why.  So does a change to the run
list: a run added, dropped or relabelled is a regression, because a
removed experiment arm silently stops gating its claim.

:data:`EXPERIMENTS` is the experiment index (the ``## E<n> — claim
(§…)`` headings of EXPERIMENTS.md): ``repro experiments`` prints it, and
:meth:`BenchDiff.render` names the paper claim an artifact gates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

__all__ = ["load_bench", "diff_benches", "BenchDiff", "DiffRow", "EXPERIMENTS"]

#: The experiment index, one ``(id, claim, paper section, benchmark
#: file)`` entry per ``## E<n> — claim (§…)`` heading of EXPERIMENTS.md.
EXPERIMENTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("E1", "dynamic loading vs configuration time", "§2, §3", "test_e1_dynamic_loading.py"),
    ("E2", 'merged "trivial solution" vs dynamic loading', "§3", "test_e2_merged_vs_dynamic.py"),
    ("E3", "non-preemptable FPGA forces FIFO", "§4", "test_e3_nonpreemptable.py"),
    ("E4", "partitioning reduces loading operations", "§4", "test_e4_partitioning.py"),
    ("E5", "fragmentation, starvation, garbage collection", "§4", "test_e5_fragmentation_gc.py"),
    ("E6", "sequential-circuit preemption: save/restore vs rollback", "§3",
     "test_e6_state_saving.py"),
    ("E7", "overlaying", "§2", "test_e7_overlay.py"),
    ("E8", "pagination vs segmentation; replacement", "§2", "test_e8_paging_segmentation.py"),
    ("E9", "I/O pin multiplexing", "§2", "test_e9_io_mux.py"),
    ("E10", "headline: larger circuits on smaller FPGAs, lower cost", "§1, §5",
     "test_e10_cost_frontier.py"),
    ("E11", "application scenarios", "§5", "test_e11_applications.py"),
    ("E12", "configuration-port ablation", "§2", "test_e12_config_port_ablation.py"),
    ("E13", "CAD-flow ablation", "design choice", "test_e13_cad_ablation.py"),
    ("E14", "lazy vs eager (implicit) dynamic loading", "§3", "test_e14_eager_loading.py"),
    ("E15", "long-distance busses", "§2", "test_e15_long_lines.py"),
    ("E16", "fit-policy ablation", "§4", "test_e16_fit_policies.py"),
    ("E17", 'multi-board "virtual computer"', "§2", "test_e17_multi_board.py"),
    ("E18", "1-D columns vs 2-D rectangles", "extension", "test_e18_2d_partitioning.py"),
    ("E19", "configuration scrubbing", "§5", "test_e19_scrubbing.py"),
    ("E20", "saturation sweep: knee point and goodput under an SLO", "extension",
     "test_e20_saturation.py"),
)


def load_bench(path: str) -> Dict[str, object]:
    """Load one ``BENCH_*.json`` artifact, validating its shape."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "runs" not in doc:
        raise ValueError(f"{path}: not a BENCH artifact (no 'runs' list)")
    return doc


def _run_label(run: Dict[str, object], index: int) -> str:
    policy = run.get("policy", "?")
    kw = run.get("policy_kw") or {}
    suffix = ",".join(f"{k}={v}" for k, v in sorted(kw.items()))
    return f"run{index}:{policy}" + (f"[{suffix}]" if suffix else "")


def _metric(run: Dict[str, object], dotted: str) -> Optional[float]:
    node: object = run
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


#: (dotted metric path, gate mode): "growth" fails only on increase,
#: "shrink" fails only on decrease (won metrics — a speedup or cache
#: saving is allowed to improve without bound but must not erode),
#: "drift" fails on change in either direction, None never fails.
#: The ``compile.*`` paths gate the CAD-flow records emitted by
#: ``benchmarks/_harness.record_compile``: the dominant phases (place,
#: route) and the whole-flow wall clock gate on growth; the convergence
#: statistics are deterministic, so any drift means the flow changed.
#: Small phases (techmap/pack/rrg/timing/bitgen run in microseconds)
#: are reported informationally — they are too noisy to gate.  The
#: same goes for any compile wall clock whose *baseline* is under
#: :data:`COMPILE_WALL_FLOOR` (e.g. the ~70 µs greedy place phase,
#: which jitters 2-3x run to run): below the floor a growth gate
#: measures scheduler noise, not the flow, so the row is demoted to
#: informational.
METRICS: Tuple[Tuple[str, Optional[str]], ...] = (
    ("wall_seconds", "growth"),
    ("telemetry.n_events", "drift"),
    ("metrics.frames_written", "drift"),
    ("metrics.n_deadline_misses", "drift"),
    ("metrics.n_loads", "drift"),
    ("metrics.n_hits", "drift"),
    ("makespan", "drift"),
    ("mean_turnaround", "drift"),
    ("useful_fraction", "drift"),
    ("compile.total_seconds", "growth"),
    ("compile.phase_seconds.place", "growth"),
    ("compile.phase_seconds.route", "growth"),
    ("compile.phase_seconds.techmap", None),
    ("compile.phase_seconds.pack", None),
    ("compile.phase_seconds.rrg", None),
    ("compile.phase_seconds.timing", None),
    ("compile.phase_seconds.bitgen", None),
    ("compile.peak_rrg_nodes", "drift"),
    ("compile.sa_steps", "drift"),
    ("compile.final_cost", "drift"),
    ("compile.route_iterations", "drift"),
    ("compile.final_overuse", "drift"),
    # Saturation-sweep summary records (benchmarks/test_e20_saturation.py):
    # knee position, goodput ceiling and stage attribution are pure
    # simulation results — deterministic, so any drift means the system
    # under load changed.
    ("saturation.knee_rate", "drift"),
    ("saturation.knee_p99", "drift"),
    ("saturation.saturated_throughput", "drift"),
    ("saturation.max_goodput_under_slo", "drift"),
    ("saturation.stage_share.queue", "drift"),
    ("saturation.stage_share.reconfig", "drift"),
    ("saturation.stage_share.service", "drift"),
    ("saturation.n_breaches", "drift"),
    # Scrub-period summary records (benchmarks/test_e19_scrubbing.py):
    # upsets, repairs, exposure and port overhead are seeded simulation
    # results — deterministic, so any drift means scrubbing changed.
    ("scrub.upsets_on_circuits", "drift"),
    ("scrub.repairs", "drift"),
    ("scrub.mean_exposure_ms", "drift"),
    ("scrub.scrub_overhead", "drift"),
    # Fit-rule churn records (benchmarks/test_e16_fit_policies.py):
    # failures, failure rate and mean fragmentation are seeded
    # allocator results — any drift means a split rule changed.
    ("alloc.failures", "drift"),
    ("alloc.fail_rate", "drift"),
    ("alloc.mean_fragmentation", "drift"),
    # Static-model records: E15's cross-chip delay per device side and
    # E9's pin-multiplexing model per virtual:physical ratio are pure
    # functions of their inputs — any drift means the model changed.
    ("long_lines.no_long_ns", "drift"),
    ("long_lines.with_long_ns", "drift"),
    ("long_lines.speedup", "drift"),
    ("mux.factor", "drift"),
    ("mux.transfer_ms", "drift"),
    ("mux.per_pin_bw", "drift"),
    # E13d kernel/cache summary records (benchmarks/test_e13_cad_ablation.py):
    # the wall clocks gate on growth like any compile timing; the two
    # win ratios gate on *shrink* — the vectorized speedup and the
    # warm-cache reduction are the point of the optimisation, so CI
    # fails when either erodes past the threshold, while improving is
    # always fine.
    ("e13d.cold_seconds", "growth"),
    ("e13d.warm_seconds", "growth"),
    ("e13d.sa_speedup", "shrink"),
    ("e13d.warm_reduction", "shrink"),
)

#: Growth-gated ``compile.*`` / ``e13d.*`` wall clocks with a baseline
#: below this many seconds are reported but never fail (sub-millisecond
#: phases — and warm-cache hits — are dominated by timer/scheduler
#: noise).
COMPILE_WALL_FLOOR = 1e-3


@dataclass
class DiffRow:
    """One compared metric of one paired run."""

    run: str
    metric: str
    base: Optional[float]
    new: Optional[float]
    delta_pct: Optional[float]
    regressed: bool = False
    note: str = ""


@dataclass
class BenchDiff:
    """The full comparison of two artifacts."""

    base_name: str
    new_name: str
    fail_on: float
    rows: List[DiffRow] = field(default_factory=list)
    #: metric path -> threshold overriding :attr:`fail_on` for that row.
    fail_on_overrides: Dict[str, float] = field(default_factory=dict)

    @property
    def regressions(self) -> List[DiffRow]:
        return [r for r in self.rows if r.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def summary(self) -> Dict[str, object]:
        """JSON-ready view (what ``repro bench-diff --json`` prints)."""
        return {
            "base": self.base_name,
            "new": self.new_name,
            "fail_on_pct": self.fail_on,
            "fail_on_overrides": dict(sorted(self.fail_on_overrides.items())),
            "ok": self.ok,
            "n_regressions": len(self.regressions),
            "rows": [vars(r) for r in self.rows],
        }

    def render(self) -> str:
        """Human-readable comparison table."""
        from ..analysis import format_table

        def fmt(v: Optional[float]) -> str:
            return "-" if v is None else f"{v:.6g}"

        table = [
            {
                "run": r.run,
                "metric": r.metric,
                "base": fmt(r.base),
                "new": fmt(r.new),
                "delta": "-" if r.delta_pct is None
                else f"{r.delta_pct:+.1f}%",
                "verdict": "REGRESSED" if r.regressed
                else (r.note or "ok"),
            }
            for r in self.rows
        ]
        # The artifact's experiment names its index entry: e8_replacement -> E8.
        eid = self.base_name.split("_", 1)[0].upper()
        exp = next((e for e in EXPERIMENTS if e[0] == eid), None)
        claim = f"{exp[0]} ({exp[2]}): {exp[1]}" if exp else ""
        parts = [format_table(
            table,
            title=f"bench diff: {self.base_name} -> {self.new_name} "
                  + (f"[{claim}] " if claim else "")
                  + f"(fail on >{self.fail_on:g}%)",
        )]
        if self.regressions:
            parts.append(
                f"{len(self.regressions)} metric(s) regressed past "
                f"{self.fail_on:g}%"
                + (f"; the claim that moved is {claim}" if claim else "")
            )
        else:
            parts.append("no regressions")
        return "\n".join(parts)


def diff_benches(
    base: Union[str, Dict[str, object]],
    new: Union[str, Dict[str, object]],
    fail_on: float = 20.0,
    fail_on_overrides: Optional[Dict[str, float]] = None,
) -> BenchDiff:
    """Compare two BENCH artifacts (paths or loaded docs) run by run.

    ``fail_on`` is the global regression threshold (percent);
    ``fail_on_overrides`` maps individual metric paths to their own
    thresholds (e.g. ``{"wall_seconds": 300.0}`` tolerates CI-runner
    wall-clock noise while keeping the deterministic metrics tight).
    """
    base_doc = load_bench(base) if isinstance(base, str) else base
    new_doc = load_bench(new) if isinstance(new, str) else new
    base_runs = list(base_doc.get("runs") or [])
    new_runs = list(new_doc.get("runs") or [])
    overrides = dict(fail_on_overrides or {})
    unknown = [m for m in overrides if m not in {d for d, _g in METRICS}]
    if unknown:
        raise ValueError(
            f"--fail-on override for unknown metric(s) {unknown}; "
            f"known: {sorted(d for d, _g in METRICS)}"
        )
    diff = BenchDiff(
        base_name=str(base_doc.get("experiment", "base")),
        new_name=str(new_doc.get("experiment", "new")),
        fail_on=fail_on,
        fail_on_overrides=overrides,
    )
    # A changed run list fails; the common prefix is still compared.
    if len(base_runs) != len(new_runs):
        diff.rows.append(DiffRow(
            run="(run list)", metric="run count",
            base=float(len(base_runs)), new=float(len(new_runs)),
            delta_pct=None, regressed=True,
        ))
    for i, (b, n) in enumerate(zip(base_runs, new_runs)):
        label, new_label = _run_label(b, i), _run_label(n, i)
        if new_label != label:
            diff.rows.append(DiffRow(
                run=f"{label} -> {new_label}", metric="run label",
                base=None, new=None, delta_pct=None, regressed=True,
            ))
        for dotted, gate in METRICS:
            bv, nv = _metric(b, dotted), _metric(n, dotted)
            if bv is None and nv is None:
                continue
            threshold = overrides.get(dotted, fail_on)
            delta = None
            regressed = False
            note = f"gate >{threshold:g}%" if dotted in overrides else ""
            if bv is not None and nv is not None:
                delta = 0.0 if bv == nv else (
                    float("inf") if bv == 0 else (nv - bv) / bv * 100.0
                )
                if gate == "growth":
                    if dotted.startswith(("compile.", "e13d.")) and \
                            "seconds" in dotted and \
                            bv < COMPILE_WALL_FLOOR:
                        note = "below gate floor"
                    else:
                        regressed = delta > threshold
                elif gate == "shrink":
                    regressed = delta is not None and -delta > threshold
                elif gate == "drift":
                    regressed = abs(delta) > threshold
                elif gate is None:
                    note = "informational"
            else:
                regressed = gate is not None
                note = "metric missing on one side"
            diff.rows.append(DiffRow(
                run=label, metric=dotted, base=bv, new=nv,
                delta_pct=delta, regressed=regressed, note=note,
            ))
    return diff
