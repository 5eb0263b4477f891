"""Pins on Frobenius pushforward presentations.

For the four rings of corpus clause 6 and the cusp over F_3, at e = 1 and
e = 2, F^e_* A and F^e_* omega_A are pinned by their generator labels
(b, j), their generator count and their relation vectors, and the
regrouping iso F^2_* A -> F_*(F_* A) by its columns.  Long lists are
pinned by a digest of their reprs.  A change to how a pushforward picks
its generators or writes its relations shows here before it can move a
certificate.
"""

import functools
import hashlib

import pytest

from fpduality.duality import canonical_dualizing
from fpduality.frobenius import frobenius_pushforward, regrouping_map
from fpduality.groebner import QuotientRing
from fpduality.polyring import PolyRing

try:
    from fpduality.frobenius import Pushforward
except ImportError:  # the older spelling: a presentation function and a separate basis
    Pushforward = None


def _digest(strings):
    return hashlib.sha256("\n".join(strings).encode()).hexdigest()[:16]


def _quotient(p, names, modulus):
    amb = PolyRing(p, names)
    return QuotientRing(amb, modulus(*amb.gens()))


RINGS = {
    "line": lambda: _quotient(2, ("x",), lambda x: []),
    "dual_numbers": lambda: _quotient(2, ("x",), lambda x: [x ** 2]),
    "crossing_lines": lambda: _quotient(2, ("x", "y"), lambda x, y: [x * y]),
    "cusp2": lambda: _quotient(2, ("x", "y"), lambda x, y: [y ** 2 + x ** 3]),
    "cusp3": lambda: _quotient(3, ("x", "y"), lambda x, y: [y ** 2 - x ** 3]),
}


@functools.lru_cache(maxsize=None)
def _ring(name):
    return RINGS[name]()


@functools.lru_cache(maxsize=None)
def _omega(name):
    return canonical_dualizing(_ring(name)).canonical_module_over_ring()


def _pushforward(M, e):
    """(labels, presentation) of F^e_* M."""
    if Pushforward is not None:
        F = Pushforward(M, e)
        return F.index.labels, F.module
    from fpduality.frobenius import pushforward_basis, pushforward_module

    return pushforward_basis(M.ring, e, M.ngens).labels, pushforward_module(M, e)


def _pin(labels, module):
    return (
        module.ngens,
        _digest([repr(b) for b in labels]),
        len(module.relations),
        _digest([repr(r) for r in module.relations]),
    )


# (ring, e) -> the pins of F^e_* A and of F^e_* omega_A, each
# (generator count, labels, relation count, relations)
PINS = {
    ("line", 1): ((2, "81e0614c52435af3", 0, "e3b0c44298fc1c14"), (2, "81e0614c52435af3", 0, "e3b0c44298fc1c14")),
    ("line", 2): ((4, "9eb797746937da07", 0, "e3b0c44298fc1c14"), (4, "9eb797746937da07", 0, "e3b0c44298fc1c14")),
    ("dual_numbers", 1): ((2, "81e0614c52435af3", 4, "6e1e8b234e6a86b1"), (2, "81e0614c52435af3", 4, "6e1e8b234e6a86b1")),
    ("dual_numbers", 2): ((4, "9eb797746937da07", 8, "83c116869e91870e"), (4, "9eb797746937da07", 8, "83c116869e91870e")),
    ("crossing_lines", 1): ((4, "9b634375f3405241", 7, "7398b9ddb5e590d1"), (4, "9b634375f3405241", 7, "7398b9ddb5e590d1")),
    ("crossing_lines", 2): ((16, "17d1c31848f69271", 31, "219bf334b99052e4"), (16, "17d1c31848f69271", 31, "219bf334b99052e4")),
    ("cusp2", 1): ((4, "9b634375f3405241", 8, "6f7b0381c00f8109"), (4, "9b634375f3405241", 8, "6f7b0381c00f8109")),
    ("cusp2", 2): ((16, "17d1c31848f69271", 32, "0b58cc9ab8ad0659"), (16, "17d1c31848f69271", 32, "0b58cc9ab8ad0659")),
    ("cusp3", 1): ((9, "074d371535ad1e64", 18, "fde1f9e2ad0749f7"), (9, "074d371535ad1e64", 27, "529eecd60f033316")),
    ("cusp3", 2): ((81, "2315cf57f20e603c", 162, "a4d2295d6fe8ee31"), (81, "2315cf57f20e603c", 243, "e55bb67e83e951c1")),
}

# ring -> digest of the columns of regrouping_map(A, 1)
REGROUPING = {
    "line": "8a6f794cb018079a",
    "dual_numbers": "8a6f794cb018079a",
    "crossing_lines": "650d6ba602505041",
    "cusp2": "650d6ba602505041",
    "cusp3": "9c6270dd8cbfdae5",
}

CASES = [(name, e) for name in RINGS for e in (1, 2)]


@pytest.mark.parametrize("name,e", CASES, ids=["%s-e%d" % c for c in CASES])
def test_pushforward_of_the_ring_is_pinned(name, e):
    F = frobenius_pushforward(_ring(name), e)
    assert len(F.index.labels) == F.module.ngens
    assert _pin(F.index.labels, F.module) == PINS[name, e][0]


@pytest.mark.parametrize("name,e", CASES, ids=["%s-e%d" % c for c in CASES])
def test_pushforward_of_omega_is_pinned(name, e):
    labels, module = _pushforward(_omega(name), e)
    assert len(labels) == module.ngens
    assert _pin(labels, module) == PINS[name, e][1]


@pytest.mark.parametrize("name", RINGS)
def test_regrouping_map_is_pinned(name):
    f = regrouping_map(_ring(name), 1)
    assert _digest([repr(c) for c in f.columns]) == REGROUPING[name]
