"""Pins on the resolutions and RHom models the certificates are built from.

The diagonal resolution of the shriek layer and the own model of each side
of a presentation comparison are pinned term by term and differential by
differential, so that a change to how resolutions or RHom complexes are
assembled shows here before it can move a certificate.
"""

import pytest

from fpduality.duality import compare_presentations
from fpduality.groebner import QuotientRing
from fpduality.polyring import PolyRing, RingMap
from fpduality.shriek import EnvelopingRing, diagonal_resolution


def _reprs(C):
    return {d: [repr(c) for c in cols] for d, cols in sorted(C.diffs.items())}


@pytest.mark.parametrize("length", [3, 5])
def test_diagonal_resolution_of_dual_numbers(length):
    # F_2[x]/(x^2), the dual-numbers ring of the unit clause: x + x' is
    # its own annihilator over the enveloping ring, so the truncated
    # resolution is periodic and stops at the requested length
    amb = PolyRing(2, ("x",))
    A = QuotientRing(amb, [amb.var("x") ** 2])
    G = diagonal_resolution(EnvelopingRing(A, 2), length)
    assert G.terms == {-k: 1 for k in range(length + 1)}
    assert _reprs(G) == {-k: ["(x + x')"] for k in range(1, length + 1)}


def _dual_numbers_presentations():
    amb = PolyRing(2, ("x",))
    x = amb.var("x")
    A = QuotientRing(amb, [x ** 2])
    pi1 = RingMap(PolyRing(2, ("x",)), A, [A.reduce(x)], check=False)
    pi2 = RingMap(PolyRing(2, ("u", "v")), A, [A.reduce(x), A.zero()], check=False)
    return A, pi1, pi2


def _line_presentations():
    amb = PolyRing(2, ("t",))
    t = amb.var("t")
    A = QuotientRing(amb, [])
    pi1 = RingMap(PolyRing(2, ("t",)), A, [A.reduce(t)], check=False)
    pi2 = RingMap(PolyRing(2, ("X", "Y")), A, [A.reduce(t), A.reduce(t ** 2)], check=False)
    return A, pi1, pi2


@pytest.mark.parametrize(
    "make,pins",
    [
        (
            _dual_numbers_presentations,
            [
                ({-1: 1, 0: 1}, {-1: ["(x^2)"]}, [0]),
                ({-2: 1, -1: 2, 0: 1}, {-2: ["(u^2, v)"], -1: ["(v)", "(u^2)"]}, [0]),
            ],
        ),
        (
            _line_presentations,
            [
                ({-1: 1}, {}, [-1]),
                ({-2: 1, -1: 1}, {-2: ["(X^2 + Y)"]}, [-1]),
            ],
        ),
    ],
    ids=["dual_numbers", "line"],
)
def test_presentation_comparison_own_models(make, pins):
    out = compare_presentations(*make())
    assert out.certified
    for side, (terms, diffs, degrees) in zip(out.chain[:2], pins):
        W = side["own_model"]
        assert W.terms == terms
        assert _reprs(W) == diffs
        assert side["own_report"].nonzero_degrees() == degrees
