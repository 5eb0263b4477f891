"""Every function the benchmark tracer wraps by name must exist, and its
S-pair division count must see the divisions made by buchberger.

benchmark/tracer.py patches fpduality functions and methods by their
names.  A renamed or deleted target fails only when tracing is switched on,
or its span silently reads 0; these guards fail at once instead.  The
tracer file is loaded by path and only read; its patches are installed for
one small build and then removed.
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


def test_tracer_counts_spair_divisions():
    # the tracer tells an S-pair reduction by its caller's frame: division
    # must be called from buchberger itself, or zero_rem_frac reads 0
    from fpduality.groebner import ModuleGB, vector_from_poly
    from fpduality.polyring import PolyRing

    R = PolyRing(3, ("x", "y"))
    x, y = R.gens()
    tracer = _TRACER.Tracer()
    tracer.install()
    try:
        ModuleGB(R, 1, [vector_from_poly(x), vector_from_poly(y)])
    finally:
        tracer.uninstall()
    assert tracer.calls["groebner.ModuleGB"] == 1
    assert tracer.sums["groebner.division.spair"] >= 1
