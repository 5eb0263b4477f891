"""The module layer's product and its Frobenius regrouping on flat terms.

groebner.combine sums c x^m columns[j] over the terms ((j, m), c) of a
coefficient vector, and frobenius.pushforward_vector sends each term
c x^m e_j of a vector to c x^(m // q) on the generator (m mod q, j).  Both
must give the vectors of the per-slot routes they replaced, copied below:
each column times the polynomial in its slot, and frobenius_decompose of
each slot.  The rings carry degrevlex, lex and a block order.  The
properties run under hypothesis when it is installed, and over a
fixed-seed sample always.
"""

import random

import pytest

from fpduality.errors import RingMismatch
from fpduality.frobenius import frobenius_decompose, pushforward_basis, pushforward_vector
from fpduality.groebner import VectorPoly, combine, nonzero_slots, vector_of
from fpduality.polyring import MonomialOrder, PolyRing

_ORDERS = (MonomialOrder("degrevlex"), MonomialOrder("lex"), MonomialOrder("block", 1))
_RINGS = tuple(PolyRing(p, ("x", "y", "z"), order) for order in _ORDERS for p in (2, 3))


# -- the per-slot routes, as they were before the flat ones ------------------

def _per_slot_combine(columns, entries, ring, rank):
    # sum coeff * columns[j] over the (j, coeff) pairs of a nonzero_slots
    p = ring.p
    acc = {}
    if not columns:
        return VectorPoly._of(ring, rank, acc)
    for j, c in entries:
        col = columns[j]
        if c.terms:
            if col.ring is not ring and col.ring != ring:
                raise RingMismatch("column lives in %r, not in %r" % (col.ring, ring))
            for m, cm in c.terms.items():
                for key, k in col.mul_term(m, cm).terms.items():
                    k2 = (acc.get(key, 0) + k) % p
                    if k2:
                        acc[key] = k2
                    elif key in acc:
                        del acc[key]
    return VectorPoly._of(ring, rank, acc)


def _per_slot_pushforward(basis, v, e):
    entries = [
        (basis.position[(a, j)], va) for j, f in nonzero_slots(v) for a, va in frobenius_decompose(f, e).items()
    ]
    return vector_of(v.ring, len(basis), entries)


# -- the checks ---------------------------------------------------------------

def _same_vector(got, expected):
    assert got == expected and hash(got) == hash(expected)
    assert got.rank == expected.rank


def _check_product(R, columns, coeffs, rank):
    expected = _per_slot_combine(columns, nonzero_slots(coeffs), R, rank)
    _same_vector(combine(columns, coeffs.terms.items(), R, rank), expected)


def _check_pushforward(R, v):
    for e in (1, 2):
        basis = pushforward_basis(R, e, v.rank)
        _same_vector(pushforward_vector(basis, v, e), _per_slot_pushforward(basis, v, e))
        # a monomial shift first, as the pushforward presentations take it
        shifted = v.mul_term(basis.labels[-1][0], 1)
        _same_vector(pushforward_vector(basis, shifted, e), _per_slot_pushforward(basis, shifted, e))


# random.Random's randint, or a hypothesis draw, which shrinks

def _vector(pick, R, rank):
    terms = [
        ((pick(0, rank - 1), (pick(0, 4), pick(0, 3), pick(0, 2))), pick(1, R.p - 1))
        for _ in range(pick(0, 4))
    ]
    return VectorPoly(R, [R.from_terms([(m, c) for (pos, m), c in terms if pos == k]) for k in range(rank)])


def _case(pick):
    R = _RINGS[pick(0, len(_RINGS) - 1)]
    rank = pick(1, 3)
    columns = [_vector(pick, R, rank) for _ in range(pick(0, 3))]
    coeffs = _vector(pick, R, len(columns)) if columns else VectorPoly(R, [])
    if len(columns) > 1 and pick(0, 1):
        # a column repeated under a shift, with the coefficients that cancel it
        columns[1] = columns[0].mul_term((1, 0, 1), 1)
        coeffs = coeffs + vector_of(R, len(columns), [(0, R.monomial((1, 0, 1))), (1, -R.one())])
    return R, columns, coeffs, rank


def _check_case(pick):
    R, columns, coeffs, rank = _case(pick)
    _check_product(R, columns, coeffs, rank)
    _check_pushforward(R, coeffs if coeffs.rank else _vector(pick, R, rank))


def test_flat_routes_match_the_per_slot_routes_on_seeded_inputs():
    pick = random.Random(2026).randint
    for _ in range(300):
        _check_case(pick)


def test_flat_routes_match_the_per_slot_routes_under_hypothesis():
    hypothesis = pytest.importorskip("hypothesis", reason="hypothesis is not installed; the seeded test still runs")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        _check_case(lambda lo, hi: data.draw(st.integers(lo, hi)))

    check()


def test_terms_that_cancel_give_the_zero_vector():
    for R in _RINGS:
        x, y, z = R.gens()
        u = VectorPoly(R, [x * y + z, R.one(), y ** 2])
        columns = [u, u.mul_term((0, 1, 0), 1), u.scale(2)]
        coeffs = vector_of(R, 3, [(0, y - R.const(2)), (1, -R.one()), (2, R.one())])
        assert combine(columns, coeffs.terms.items(), R, 3).is_zero()
        _check_product(R, columns, coeffs, 3)


def test_no_columns_give_the_zero_vector_whatever_the_terms():
    R = _RINGS[0]
    x = R.var(0)
    coeffs = vector_of(R, 5, [(0, x), (4, x + R.one())])
    for terms in ([], coeffs.terms.items()):
        assert combine([], terms, R, 3) == VectorPoly(R, [R.zero()] * 3)
    _check_product(R, [], coeffs, 3)


def test_a_term_past_the_columns_raises_index_error():
    for R in _RINGS:
        x, y, _z = R.gens()
        columns = [VectorPoly(R, [x, y])]
        coeffs = vector_of(R, 2, [(0, y), (1, x)])
        for product in (combine, _per_slot_combine):
            entries = coeffs.terms.items() if product is combine else nonzero_slots(coeffs)
            with pytest.raises(IndexError):
                product(columns, entries, R, 2)


def test_a_column_from_another_ring_raises_ring_mismatch():
    R, other = _RINGS[0], _RINGS[2]
    columns = [VectorPoly(R, [R.var(0)]), VectorPoly(other, [other.var(1)])]
    coeffs = vector_of(R, 2, [(1, R.var(2))])
    for product in (combine, _per_slot_combine):
        entries = coeffs.terms.items() if product is combine else nonzero_slots(coeffs)
        with pytest.raises(RingMismatch):
            product(columns, entries, R, 1)
