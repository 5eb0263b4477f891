"""Pins on Hom presentations.

Each Hom(M, N) below is pinned by its generator count, its relations, its
raw generators (coordinate vectors of N^m, one block of n per generator of
M) and its decoded maps, and by the coordinates encode gives the zero map
and, for Hom(M, M), the identity.  Long lists are pinned by a digest of
their reprs.  A change to how Hom is assembled shows here before it can
move a certificate.
"""

import hashlib

import pytest

from fpduality.duality import canonical_dualizing
from fpduality.frobenius import frobenius_pushforward
from fpduality.groebner import QuotientRing, vector_of
from fpduality.modules import (
    ModuleMap,
    cyclic_module,
    exterior_power,
    free_module,
    hom_module,
    ideal_module,
    prune,
)
from fpduality.polyring import PolyRing


def _digest(strings):
    return hashlib.sha256("\n".join(strings).encode()).hexdigest()[:16]


def _raw_generators(H):
    # the cocycle representatives of H^0 of the Hom complex
    return H.h0.reps


def _cases():
    amb = PolyRing(3, ("x", "y"))
    x, y = amb.gens()
    cusp = QuotientRing(amb, [y ** 2 - x ** 3])
    omega = canonical_dualizing(cusp).canonical_module_over_ring()
    # the Hom of Frobenius duality's module-level candidate
    yield "cusp_pushforward_to_omega", prune(frobenius_pushforward(cusp).module)[0], omega
    yield "cusp_omega_to_omega", omega, omega
    amb = PolyRing(2, ("x", "y"))
    x, y = amb.gens()
    R = QuotientRing(amb, [y ** 2 + x * y + y + x ** 3 + x + 1])
    # criterion 1's determinant clause
    yield "elliptic_determinant", exterior_power(frobenius_pushforward(R).module, 2), ideal_module(R, [x + 1, y + 1])
    amb = PolyRing(3, ("x",))
    x = amb.var("x")
    A = QuotientRing(amb, [x ** 2])
    yield "zero_source", free_module(A, 0), cyclic_module(A)
    yield "zero_target", cyclic_module(A, [x]), free_module(A, 0)


# name -> (ngens, relation count, digests of the relations, the raw
# generators and the decoded columns, encode of the identity or None)
PINS = {
    "cusp_pushforward_to_omega": (9, 21, "5c6e5bded31ae199", "de04e5bba5255a09", "15fbb43fb9fd877d", None),
    "cusp_omega_to_omega": (1, 2, "db26a65502b7fad7", "fd0ad9026eee596b", "fd0ad9026eee596b", ["1"]),
    "elliptic_determinant": (18, 37, "a09c3726cbc57895", "5e2190e87364f307", "bcfc576aa27bed39", None),
    "zero_source": (0, 0, _digest([]), _digest([]), _digest([]), None),
    "zero_target": (0, 0, _digest([]), _digest([]), _digest([]), None),
}

_CASES = list(_cases())


@pytest.mark.parametrize("name,M,N", _CASES, ids=[c[0] for c in _CASES])
def test_hom_presentation_pins(name, M, N):
    ngens, nrels, rels, raw, cols, identity = PINS[name]
    H = hom_module(M, N)
    assert H.ngens == ngens
    assert len(H.relations) == nrels
    assert _digest([repr(r) for r in H.relations]) == rels
    assert _digest([repr(v) for v in _raw_generators(H)]) == raw
    decoded = [H.decode(i) for i in range(ngens)]
    assert _digest([repr(c) for f in decoded for c in f.columns]) == cols
    zero = ModuleMap(M, N, [vector_of(N.ambient, N.ngens, ())] * M.ngens, check=False)
    assert [repr(c) for c in H.encode(zero).components] == ["0"] * ngens
    assert H.decode(vector_of(H.ambient, H.ngens, ())).is_zero_map()
    if identity is not None:
        assert [repr(c) for c in H.encode(ModuleMap.identity(M)).components] == identity
    for i, f in enumerate(decoded):
        assert (H.decode(H.encode(f)) - f).is_zero_map(), i

