"""Buchberger on packed terms: an S-pair enters division as the shifted
packed tails of its two divisors, and the final tail reduction divides only
the tails that some leading term divides.

The seed must give the remainder of the S-vector built term by term, and
every basis buchberger returns must be reduced: monic, no term divisible by
another element's leading term, sorted by descending leading term.
"""

import pytest

pytest.importorskip("hypothesis", reason="hypothesis is not installed, so the packed S-pair properties cannot run")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import fpduality.groebner as groebner  # noqa: E402
from fpduality.config import config  # noqa: E402
from fpduality.errors import DegreeBudgetExceeded  # noqa: E402
from fpduality.fp import inv_mod  # noqa: E402
from fpduality.groebner import (  # noqa: E402
    DivisionIndex,
    ModuleGB,
    VectorPoly,
    buchberger,
    division,
    leading_term,
)
from fpduality.polyring import MonomialOrder, PolyRing, mono_div, mono_divides, mono_lcm  # noqa: E402

_ORDERS = (MonomialOrder("degrevlex"), MonomialOrder("lex"), MonomialOrder("block", 1))
_RINGS = tuple(PolyRing(5, ("x", "y"), order) for order in _ORDERS)
_LEX_RING = _RINGS[1]


def _spair_by_terms(index, i, j, pos, lcm):
    # the S-vector as buchberger built it before: two shifted copies of the
    # divisors, subtracted on their term dicts
    (_, mi, ci), (_, mj, cj) = index.leads[i], index.leads[j]
    p = index.divisors[i].ring.p
    sf = index.divisors[i].mul_term(mono_div(lcm, mi), 1)
    sg = index.divisors[j].mul_term(mono_div(lcm, mj), inv_mod(cj, p) * ci % p)
    return sf - sg


def _remainder(v, index):
    try:
        return division(v, index, quotients=False)[1]
    except DegreeBudgetExceeded:
        return "over budget"


@st.composite
def _spair_case(draw):
    R = draw(st.sampled_from(_RINGS))
    rank = draw(st.integers(1, 2))
    # under lex a y^100 sits in a tail, and multiplied by a quotient it
    # outgrows the 8-bit fields an index of low leads starts with
    exponent = st.integers(0, 3) if R is not _LEX_RING else st.sampled_from([0, 1, 2, 3, 100])
    term = st.tuples(st.tuples(st.integers(0, 3), exponent), st.integers(1, 4))
    poly = st.lists(term, max_size=3).map(R.from_terms)
    vec = st.lists(poly, min_size=rank, max_size=rank).map(lambda comps: VectorPoly(R, comps))
    divisors = draw(st.lists(vec.filter(lambda v: not v.is_zero()), min_size=2, max_size=4))
    return R, divisors


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_spair_case())
def test_packed_spair_seed_matches_the_term_by_term_spair(case):
    R, divisors = case
    seeded = DivisionIndex(R.order, divisors)
    plain = DivisionIndex(R.order, divisors)
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            (pi, mi, _ci), (pj, mj, _cj) = seeded.leads[i], seeded.leads[j]
            lcm = mono_lcm(mi, mj)
            # buchberger checks the lcm against the budget before dividing
            if pi != pj or sum(lcm) > config.degree_budget:
                continue
            expected = _remainder(_spair_by_terms(plain, i, j, pi, lcm), plain)
            got = _remainder((i, j, pi, lcm), seeded)
            if expected == "over budget":
                assert got == expected
                continue
            assert list(got.terms.items()) == list(expected.terms.items())
            # the first remainder term is the cached leading term
            fresh = VectorPoly._of(R, got.rank, dict(got.terms))
            assert got._leads == (R.order, leading_term(fresh, R.order))


def test_a_divisor_tail_beyond_the_fields_repacks_inside_an_spair():
    # both leads have degree at most 2, so the index starts with 8-bit
    # fields; the tail y^100 of x + y^100 is packed only when the S-pair
    # is seeded, which repacks the index and starts the division again
    x, y = _LEX_RING.gens()
    f, g = VectorPoly(_LEX_RING, [x + y ** 100]), VectorPoly(_LEX_RING, [x * y + 1])
    index = DivisionIndex(_LEX_RING.order, [f, g])
    assert index._packing.width == 8
    _, rem = division((0, 1, 0, (1, 1)), index, quotients=False)
    assert index._packing.width == 16
    assert rem == VectorPoly(_LEX_RING, [y ** 101 - 1])
    assert rem._leads == (_LEX_RING.order, (0, (0, 101), 1))
    assert buchberger([f, g]) == [f, rem]


def _assert_reduced(basis, order):
    leads = [leading_term(h, order) for h in basis]
    assert all(c == 1 for _pos, _m, c in leads)
    for k, h in enumerate(basis):
        for pos, m in h.terms:
            for l, (lpos, lm, _c) in enumerate(leads):
                if l != k and lpos == pos:
                    assert not mono_divides(lm, m)
    keys = [groebner.term_key(pos, m, order) for pos, m, _c in leads]
    assert keys == sorted(keys, reverse=True) and len(set(keys)) == len(keys)


_entry = st.lists(
    st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(1, 4)), max_size=2
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(_RINGS), st.lists(_entry, min_size=1, max_size=4))
def test_buchberger_returns_reduced_ideal_bases(R, entries):
    basis = buchberger([VectorPoly(R, [R.from_terms(e)]) for e in entries])
    _assert_reduced(basis, R.order)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(_RINGS), st.integers(1, 2), st.data())
def test_module_gb_buchberger_outputs_are_reduced(R, rank, data):
    vec = st.lists(_entry.map(R.from_terms), min_size=rank, max_size=rank).map(lambda comps: VectorPoly(R, comps))
    gens = data.draw(st.lists(vec, min_size=1, max_size=3))
    modulo = data.draw(st.lists(vec, max_size=2))
    seen = []
    original = groebner.buchberger

    def recorded(vectors, order=None, product_criterion=None):
        basis = original(vectors, order, product_criterion)
        seen.append((basis, order))
        return basis

    groebner.buchberger = recorded
    try:
        ModuleGB(R, rank, gens, modulo=modulo)
    finally:
        groebner.buchberger = original
    assert len(seen) == 1
    for basis, order in seen:
        _assert_reduced(basis, order)
