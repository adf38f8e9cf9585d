"""The functions the benchmark's layer trace wraps still exist.

``bench/layertrace.py`` skips a target it cannot resolve and leaves its
per-layer metrics out, so a rename in ``flatrank`` would silently drop a
declared metric.  This test resolves every target the way the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, attr", [
    (module_name, attr) for module_name, attr, _ in _layertrace().TARGETS])
def test_layertrace_target_resolves(module_name, attr):
    module = importlib.import_module(f"flatrank.{module_name}")
    owner_name, _, method = attr.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        assert owner is not None and vars(owner).get(method) is not None
    else:
        assert callable(getattr(module, attr, None))
