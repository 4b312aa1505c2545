"""Example-script health: all examples parse/compile (their work is
__main__-guarded) and print exactly their pinned output."""

import pathlib
import py_compile
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert len(EXAMPLES) >= 4  # quickstart + three domain scenarios


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_output_pinned(path):
    """Run from the repo root, each example prints exactly
    ``examples/expected/<stem>.txt``: its tables are seeded simulations."""
    proc = subprocess.run(
        [sys.executable, str(path.relative_to(ROOT))],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    expected = ROOT / "examples" / "expected" / f"{path.stem}.txt"
    assert proc.stdout == expected.read_text()


def test_quickstart_runs():
    proc = subprocess.run(
        [sys.executable, "examples/quickstart.py"],
        cwd=pathlib.Path(__file__).parents[2],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "9 + 5 = 14" in out
    assert "hidden cost" in out
    assert "partitioned virtualization" in out


def test_quickstart_report_and_trace_together(tmp_path):
    """Regression guard: ``--report`` combined with ``--trace`` must
    emit *both* artifacts from the same run (neither flag may silently
    eat the other)."""
    trace_path = tmp_path / "quickstart_trace.json"
    proc = subprocess.run(
        [sys.executable, "examples/quickstart.py",
         "--report", "--trace", str(trace_path)],
        cwd=pathlib.Path(__file__).parents[2],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    # The trace file exists and is a real Chrome trace...
    assert trace_path.exists(), "--trace was ignored"
    import json

    doc = json.loads(trace_path.read_text())
    assert doc["traceEvents"]
    # ...and the report tables were printed in the same run.
    assert "p50" in out and "CLB occupancy" in out, "--report was ignored"
    assert str(trace_path) in out
