"""Work-count guards: deterministic ModuleGB build counts on fixed workloads.

An algorithmic regression that rebuilds Groebner bases shows here as a
count above its bound, with no timing noise.  Bounds are the counts
measured when the per-owner basis reuse landed (41 and 708 builds before).
"""

import pytest

import fpduality.groebner as groebner
from fpduality.selftest import run_corpus
from fpduality.session import Session, execute, parse_session

CUSP_DUALITY_BUILDS = 24
CORPUS_BUILDS = 676

CUSP_SCRIPT = "ring A = Fp(3)[x,y] / (y^2 - x^3);\ncheck frobenius_duality(A);\n"


@pytest.fixture
def builds(monkeypatch):
    count = [0]
    original = groebner.ModuleGB.__init__

    def counted(self, *args, **kwargs):
        count[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(groebner.ModuleGB, "__init__", counted)
    return count


def _cusp_duality_builds(count):
    session = Session()
    ring_stmt, check_stmt = parse_session(CUSP_SCRIPT)
    assert execute(session, ring_stmt).status == "ok"
    count[0] = 0
    report = execute(session, check_stmt)
    assert report.payload == {"certified": True}
    return count[0]


def _corpus_builds(count):
    count[0] = 0
    list(run_corpus())
    return count[0]


def test_cusp_frobenius_duality_builds(builds):
    first = _cusp_duality_builds(builds)
    assert first <= CUSP_DUALITY_BUILDS
    assert _cusp_duality_builds(builds) == first


def test_corpus_builds(builds):
    first = _corpus_builds(builds)
    assert first <= CORPUS_BUILDS
    assert _corpus_builds(builds) == first
