"""Every function the benchmark's span tracer rebinds must exist.

``perfbench/run.py --trace 1`` looks each traced name up with getattr, so a
renamed or deleted function would only surface there; this test makes it fail
the ordinary test run instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _trace_targets():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.TRACE_TARGETS


@pytest.mark.parametrize("label, module, attr", _trace_targets())
def test_trace_target_is_callable(label, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), label
