"""Sizing of the packed division index.

A DivisionIndex fits its fields to every term of a divisor when the
divisor joins: `top` is at least the largest degree of any divisor term,
and the fields hold _need(top).  So a division at an unchanged budget, on
an input inside the fields, never repacks the index, also where a divisor
fires for the first time or an S-pair packs its tails.
"""

import random

import pytest

import fpduality.groebner as groebner
from fpduality.config import config
from fpduality.errors import DegreeBudgetExceeded
from fpduality.groebner import DivisionIndex, VectorPoly, buchberger, division
from fpduality.polyring import MonomialOrder, PolyRing, mono_lcm

_ORDERS = (MonomialOrder("degrevlex"), MonomialOrder("lex"), MonomialOrder("block", 1))
_RINGS = tuple(PolyRing(5, ("x", "y"), order) for order in _ORDERS)
# an exponent of 100 in a tail or a later slot is above the leading term's
# degree, and times a quotient it needs 16-bit fields
_EXPONENTS = (0, 1, 2, 3, 100)


def _fits_every_term(index):
    top = max(sum(m) for g in index.divisors for _pos, m in g.terms)
    assert index.top >= top
    assert groebner._need(index.top) <= index._packing.cap


def _repacks(run):
    calls = []
    original = DivisionIndex._repack

    def counted(self, n, need):
        calls.append(need)
        return original(self, n, need)

    DivisionIndex._repack = counted
    try:
        run()
    finally:
        DivisionIndex._repack = original
    return len(calls)


def _outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except DegreeBudgetExceeded:
        return "over budget"


def _check(R, divisors, targets):
    index = DivisionIndex(R.order, divisors)
    _fits_every_term(index)
    indexes = [index]
    # buchberger's own index, with every remainder it added, and the index
    # of the reduced basis it hands over
    grown = []
    original = groebner._reduced_basis

    def recorded(index):
        grown.append(index)
        return original(index)

    groebner._reduced_basis = recorded
    try:
        basis = buchberger(divisors, R.order)
    except DegreeBudgetExceeded:
        basis = None
    finally:
        groebner._reduced_basis = original
    if basis:
        _fits_every_term(grown[0])
        _fits_every_term(basis.index)
        indexes.append(basis.index)

    def divide():
        for ix in indexes:
            cap = ix._packing.cap
            for v in targets:
                if max(sum(m) for _pos, m in v.terms) <= cap:
                    _outcome(division, v, ix)
        # the S-pairs of the input, whose tails are packed here first
        leads = index.leads
        for i in range(len(leads)):
            for j in range(i + 1, len(leads)):
                if leads[i][0] == leads[j][0]:
                    lcm = mono_lcm(leads[i][1], leads[j][1])
                    if sum(lcm) <= config.degree_budget:
                        _outcome(division, (i, j, leads[i][0], lcm), index, quotients=False)

    assert _repacks(divide) == 0


def _random_vector(rng, R, rank, exponents):
    while True:
        terms = {
            (rng.randrange(rank), (rng.choice(exponents), rng.choice(exponents))): rng.randrange(1, 5)
            for _ in range(rng.randrange(1, 4))
        }
        comps = [R.from_terms([(m, c) for (pos, m), c in terms.items() if pos == k]) for k in range(rank)]
        v = VectorPoly(R, comps)
        if not v.is_zero():
            return v


def test_an_index_fits_every_divisor_term_and_never_repacks_a_division():
    rng = random.Random(25)
    for _ in range(150):
        R = rng.choice(_RINGS)
        rank = rng.randrange(1, 3)
        divisors = [_random_vector(rng, R, rank, _EXPONENTS) for _ in range(rng.randrange(1, 4))]
        targets = [_random_vector(rng, R, rank, _EXPONENTS) for _ in range(3)]
        _check(R, divisors, targets)


def test_a_tail_far_above_its_lead_is_in_the_fields_at_construction():
    R = _RINGS[1]
    x, y = R.gens()
    g = VectorPoly(R, [x + y ** 100])
    index = DivisionIndex(R.order, [g])
    assert index.leads[0][1] == (1, 0) and index.top == 100
    assert index._packing.width == 16
    _check(R, [g, VectorPoly(R, [x * y + 1])], [VectorPoly(R, [x ** 3 * y + y ** 2])])


def test_a_basis_of_zero_vectors_divides_in_the_order_of_its_ring():
    R = _RINGS[1]
    x, y = R.gens()
    basis = buchberger([VectorPoly(R, [R.zero()])])
    assert list(basis) == [] and basis.index.order == R.order
    v = VectorPoly(R, [x * y ** 2 + 1])
    quotients, rem = division(v, basis.index)
    assert quotients == [] and list(rem.terms.items()) == list(v.terms.items())


def test_an_index_fits_every_divisor_term_for_generated_inputs():
    pytest.importorskip("hypothesis", reason="hypothesis is not installed, so the generated sizing cases cannot run")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @st.composite
    def case(draw):
        R = draw(st.sampled_from(_RINGS))
        rank = draw(st.integers(1, 2))
        term = st.tuples(st.tuples(st.sampled_from(_EXPONENTS), st.sampled_from(_EXPONENTS)), st.integers(1, 4))
        poly = st.lists(term, max_size=3).map(R.from_terms)
        vec = st.lists(poly, min_size=rank, max_size=rank).map(lambda comps: VectorPoly(R, comps))
        nonzero = vec.filter(lambda v: not v.is_zero())
        return R, draw(st.lists(nonzero, min_size=1, max_size=3)), draw(st.lists(nonzero, min_size=1, max_size=3))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(case())
    def check(c):
        _check(*c)

    check()
