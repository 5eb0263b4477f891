"""Every function the benchmark tracer wraps by name must exist.

benchmark/tracer.py patches fpduality functions and methods by their
names.  A renamed or deleted target fails only when tracing is switched on,
or its span silently reads 0; this guard fails at once instead.  The
tracer file is loaded by path and only read: nothing is patched.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("_fpduality_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACER = _tracer_module()
TARGETS = [(mod, attr) for mod, attr, _label in _TRACER.SPANS + _TRACER.COUNTERS]


@pytest.mark.parametrize("mod,attr", TARGETS, ids=["%s.%s" % t for t in TARGETS])
def test_traced_name_resolves(mod, attr):
    module = importlib.import_module("fpduality." + mod)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        assert isinstance(cls, type)
        assert meth in cls.__dict__
    else:
        assert callable(getattr(module, attr))
