"""The benchmark hooks program calls by name; check they exist and still fire.

perfbench/spans.py lists (span name, owner, attribute) for every call it
times. A rename or move in the program would make `--trace 1` fail at
install time, so each listed attribute is checked here without installing
the wrappers (installing patches the classes for the whole process).
perfbench/child.py also replaces some of pdebayes.driver's module names to
stop the set-up clock and keep the objects its checks read; one untraced
pipeline per gated workload, in its own process, checks that the driver
still calls them.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdebayes
import pdebayes.driver  # the one layer the package itself does not import

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans._boundaries(pdebayes)


@pytest.mark.parametrize("name, owner, attr", [
    pytest.param(name, owner, attr, id=f"{owner.__name__}.{attr}")
    for name, owner, attr in boundaries()])
def test_span_boundary_exists(name, owner, attr):
    if isinstance(owner, type):
        # install() reads the class's own __dict__, not an inherited method.
        assert attr in owner.__dict__, f"{name}: {owner.__name__}.{attr}"
    else:
        assert hasattr(owner, attr), f"{name}: {owner.__name__}.{attr}"


@pytest.mark.parametrize("workload", ["hpcn-n32", "dr-linear-n32"])
def test_benchmark_pipeline_runs(tmp_path, workload):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "--workload", workload,
         "--seed", "1", "--trace", "0", "--dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["ok"], result["failure"]
    assert result["errors"] == []
    assert result["failure"] is None
    # the set-up clock stops at the driver's build_kernel call
    assert 0 < result["setup_s"] < result["wall_s"]
