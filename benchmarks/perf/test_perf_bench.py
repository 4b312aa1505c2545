"""Every workload, shrunk, in plain and traced mode, against the metric
declarations of ``BENCHMARK.json``.

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import replace

import pytest

import run
from specs import CAD_PHASES, END_TO_END, PER_LAYER, WORKLOADS, SimSpec

MANIFEST = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _shrunk(spec):
    if isinstance(spec, SimSpec):
        return replace(spec, tasks=6, ops=3, circuits=spec.circuits[:2])
    return replace(spec, circuits=(("alu", (2,)), ("parity_tree", (4,))))


def test_manifest_declares_the_workloads_and_metrics_the_code_emits():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    e2e = {m["name"]: m for m in MANIFEST["end_to_end"]}
    layers = {m["name"]: m for m in MANIFEST["per_layer"]}
    assert {k: m["unit"] for k, m in e2e.items()} == END_TO_END
    assert {k: m["unit"] for k, m in layers.items()} == PER_LAYER
    assert len(e2e) <= 16 and len(layers) <= 128
    for metric in [*e2e.values(), *layers.values()]:
        assert NAME.fullmatch(metric["name"])
        assert metric["better"] in ("higher", "lower")
    for metric in e2e.values():
        assert 0 < metric["bound"] <= 0.25
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())


def test_cad_phases_are_the_flow_phases():
    from repro.cad import PHASES

    assert CAD_PHASES == PHASES


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_emits_every_declared_metric(name, trace):
    result, detail = run.measure(name, seed=1, seconds=0.0, trace=trace,
                                 spec=_shrunk(WORKLOADS[name]))
    assert result["correct"], detail["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = PER_LAYER if trace else END_TO_END
    emitted = result["metrics"]
    assert {k: m["unit"] for k, m in emitted.items()} == declared
    for metric in emitted.values():
        assert math.isfinite(metric["value"])
    if trace:
        assert 0 < emitted["trace.coverage"]["value"] <= 1
    else:
        assert all(m["value"] > 0 for m in emitted.values())
