"""The benchmark's tracer (``perfbench/tracing.py``) wraps the program's
functions by module and attribute name.  Every name it lists must still
resolve, or ``perfbench/run.py --trace 1`` fails when it installs the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module, attr, name", tracing.FUNCTIONS,
                         ids=[name for *_, name in tracing.FUNCTIONS])
def test_function_resolves(module, attr, name):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module, cls, attr, name", tracing.METHODS,
                         ids=[name for *_, name in tracing.METHODS])
def test_method_resolves(module, cls, attr, name):
    # Tracer.install wraps the attribute that the class itself defines
    owner = getattr(importlib.import_module(module), cls)
    assert callable(owner.__dict__.get(attr))
