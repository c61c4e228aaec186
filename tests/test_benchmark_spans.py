"""The benchmark's traced mode wraps program calls by name; check they exist.

perfbench/spans.py lists (span name, owner, attribute) for every call it
times. A rename or move in the program would make `--trace 1` fail at
install time, so each listed attribute is checked here without installing
the wrappers (installing patches the classes for the whole process).
"""

import importlib.util
from pathlib import Path

import pytest

import pdebayes
import pdebayes.driver  # the one layer the package itself does not import

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
