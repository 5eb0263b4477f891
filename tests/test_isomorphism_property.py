"""is_isomorphism against kernel_cokernel on small random maps.

On small modules over F_3[x,y], the verdict of the one explicit inverse must
be "ker f and coker f are both zero modules", as kernel_cokernel computes
them.  Random maps are seldom isomorphisms, so isomorphisms are drawn too:
a module composed with a random invertible change of generators, constant
or unipotent with polynomial entries, with or without one more relation in
the target.  Over the drawn examples both verdicts occur, each with g found
both ways (F^-1 and lifting).
"""

from unittest import mock

import pytest

pytest.importorskip("hypothesis", reason="hypothesis is not installed, so the isomorphism properties cannot run")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import fpduality.modules as modules  # noqa: E402
from fpduality.groebner import VectorPoly, combine  # noqa: E402
from fpduality.modules import FPModule, ModuleMap, fp_matrix_inverse, is_isomorphism, kernel_cokernel  # noqa: E402
from fpduality.polyring import PolyRing  # noqa: E402

R = PolyRing(3, ("x", "y"))

_TERM = st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(1, 2))
_POLY = st.lists(_TERM, max_size=2).map(R.from_terms)
_CONSTANT = st.integers(0, 2).map(R.const)
_ENTRY = st.one_of(_CONSTANT, _POLY)


def _vectors(rank, entries, max_size):
    vec = st.lists(entries, min_size=rank, max_size=rank).map(lambda comps: VectorPoly(R, comps))
    return st.lists(vec, max_size=max_size)


def _image(columns, v, rank):
    return combine(columns, v.terms.items(), R, rank)


@st.composite
def _random_map(draw):
    # f: M -> N with N's relations holding the images of M's, so that f is
    # well defined
    m, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    M = FPModule(R, m, draw(_vectors(m, _POLY, 2)))
    columns = draw(st.lists(st.lists(_ENTRY, min_size=n, max_size=n), min_size=m, max_size=m))
    columns = [VectorPoly(R, c) for c in columns]
    relations = draw(_vectors(n, _POLY, 1)) + [_image(columns, r, n) for r in M.relations]
    return ModuleMap(M, FPModule(R, n, relations), columns)


@st.composite
def _change_of_generators(draw, extra=False):
    # P: M -> N = R^m / P(relations of M), P invertible over R; an extra
    # relation of N makes P onto with a kernel, unless P(M) already holds it
    m = draw(st.integers(1, 3))
    M = FPModule(R, m, draw(_vectors(m, _POLY, 2)))
    if draw(st.booleans()):
        rows = draw(
            st.lists(st.lists(st.integers(0, 2), min_size=m, max_size=m), min_size=m, max_size=m).filter(
                lambda rows: fp_matrix_inverse(rows, 3) is not None
            )
        )
        columns = [VectorPoly(R, [R.const(rows[i][j]) for i in range(m)]) for j in range(m)]
    else:
        # identity plus polynomial entries above the diagonal
        columns = []
        for j in range(m):
            above = draw(st.lists(_POLY, min_size=j, max_size=j))
            columns.append(VectorPoly(R, above + [R.one()] + [R.zero()] * (m - j - 1)))
    relations = [_image(columns, r, m) for r in M.relations]
    if extra:
        relations += draw(_vectors(m, _POLY, 1))
    return ModuleMap(M, FPModule(R, m, relations), columns)


def _verdict_and_path(f):
    with mock.patch.object(modules, "_lifted_inverse", wraps=modules._lifted_inverse) as lifted:
        verdict = is_isomorphism(f)
    return verdict, "lifted" if lifted.called else "constant"


def test_is_isomorphism_matches_kernel_cokernel():
    seen = set()

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.one_of(_random_map(), _change_of_generators(), _change_of_generators(extra=True)))
    def check(f):
        verdict, path = _verdict_and_path(f)
        ker, coker = kernel_cokernel(f)
        assert verdict == (ker.is_zero_module() and coker.is_zero_module())
        seen.add((verdict, path))

    check()
    assert seen == {(True, "constant"), (True, "lifted"), (False, "constant"), (False, "lifted")}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_change_of_generators())
def test_a_change_of_generators_is_an_isomorphism(f):
    assert is_isomorphism(f)
