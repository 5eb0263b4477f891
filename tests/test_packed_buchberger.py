"""Buchberger on packed terms: an S-pair enters division as the shifted
packed tails of its two divisors, the pair queue keys and prunes pairs by
their packed lcms, and the final tail reduction divides only the tails
that some leading term divides.

The seed must give the remainder of the S-vector built term by term; the
packed queue must divide the S-pairs the tuple criteria select, in their
order; and every basis buchberger returns must be reduced: monic, no term
divisible by another element's leading term, sorted by descending leading
term.
"""

import heapq

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
from fpduality.polyring import MonomialOrder, PolyRing, mono_divides, mono_lcm, mono_mul  # noqa: E402

_ORDERS = (MonomialOrder("degrevlex"), MonomialOrder("lex"), MonomialOrder("block", 1))
_RINGS = tuple(PolyRing(5, ("x", "y"), order) for order in _ORDERS)
_LEX_RING = _RINGS[1]


def mono_div(b, a):
    # the quotient b / a of monomials with a | b
    return tuple(x - y for x, y in zip(b, a))


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
            # the first remainder term is its leading term
            first = next(((pos, m, c) for (pos, m), c in got.terms.items()), None)
            assert first == leading_term(got, R.order)


def test_a_divisor_tail_beyond_the_fields_repacks_inside_an_spair():
    # both leads have degree at most 2, but the tail y^100 of x + y^100,
    # shifted by the S-pair's quotient y, needs 16-bit fields: the index
    # sizes them for it when x + y^100 joins, so the S-pair is seeded and
    # divided in them
    x, y = _LEX_RING.gens()
    f, g = VectorPoly(_LEX_RING, [x + y ** 100]), VectorPoly(_LEX_RING, [x * y + 1])
    index = DivisionIndex(_LEX_RING.order, [f, g])
    assert index._packing.width == 16
    pk = index._packing
    _, rem = division((0, 1, 0, (1, 1)), index, quotients=False)
    assert index._packing is pk
    assert rem == VectorPoly(_LEX_RING, [y ** 101 - 1])
    # the first remainder term is its leading term
    assert next(iter(rem.terms.items())) == ((0, (0, 101)), 1)
    assert leading_term(rem, _LEX_RING.order) == (0, (0, 101), 1)
    assert buchberger([f, g]) == [f, rem]


def _assert_reduced(basis, order):
    leads = [leading_term(h, order) for h in basis]
    assert all(c == 1 for _pos, _m, c in leads)
    for k, h in enumerate(basis):
        for pos, m in h.terms:
            for l, (lpos, lm, _c) in enumerate(leads):
                if l != k and lpos == pos:
                    assert not mono_divides(lm, m)
    keys = [(-pos, order.key(m)) for pos, m, _c in leads]
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


def _reference_buchberger(vectors, order, product_criterion, divided):
    # buchberger with the Gebauer-Moeller queue on tuples: elements made
    # monic, lcms by mono_lcm, each pair keyed by (-pos, order.key(lcm));
    # the S-pairs it divides are appended to `divided`
    vectors = [v for v in vectors if not v.is_zero()]
    if not vectors:
        return []
    p = vectors[0].ring.p
    index = DivisionIndex(order)
    leads = index.leads
    pairs = []

    def update(h):
        t = len(leads)
        lh = leading_term(h, order)
        fresh = [(lg[0], mono_lcm(lg[1], lh[1]), i, t) for i, lg in enumerate(leads) if lg[0] == lh[0]]
        # criterion M
        fresh = [a for a in fresh if not any(b[1] != a[1] and mono_divides(b[1], a[1]) for b in fresh)]
        # criterion F
        seen = set()
        fresh = [a for a in fresh if not (a[1] in seen or seen.add(a[1]))]
        # criterion B
        if product_criterion:
            fresh = [a for a in fresh if mono_mul(leads[a[2]][1], lh[1]) != a[1]]
        # the chain criterion against lh
        kept = []
        for entry in pairs:
            pos, lcm, i, j = entry[3:]
            if pos == lh[0] and mono_divides(lh[1], lcm):
                if mono_lcm(leads[i][1], lh[1]) != lcm and mono_lcm(leads[j][1], lh[1]) != lcm:
                    continue
            kept.append(entry)
        index.add(h)
        kept.extend(((-pos, order.key(lcm)), -i, -j, pos, lcm, i, j) for pos, lcm, i, j in fresh)
        heapq.heapify(kept)
        return kept

    for v in vectors:
        pairs = update(v.scale(inv_mod(leading_term(v, order)[2], p)))
    while pairs:
        pos, lcm, i, j = heapq.heappop(pairs)[3:]
        if sum(lcm) > config.degree_budget:
            raise DegreeBudgetExceeded("reference")
        divided.append((i, j, pos, lcm))
        _, rem = division((i, j, pos, lcm), index, quotients=False)
        if not rem.is_zero():
            pairs = update(rem.scale(inv_mod(leading_term(rem, order)[2], p)))
    return groebner._reduced_basis(index)


def _terms(outcome):
    return outcome if isinstance(outcome, str) else [(v.rank, list(v.terms.items())) for v in outcome]


def _assert_same_queue(vectors, order, product_criterion):
    """buchberger divides the S-pairs the reference divides, in its order,
    and returns its basis, terms in the same order, or is over budget with
    it; returns the basis."""
    expected_pairs = []
    try:
        expected = _reference_buchberger(vectors, order, product_criterion, expected_pairs)
    except DegreeBudgetExceeded:
        expected = "over budget"
    got_pairs = []
    original = groebner.division

    def recorded(v, *args, **kwargs):
        if isinstance(v, tuple):
            got_pairs.append(v)
        return original(v, *args, **kwargs)

    groebner.division = recorded
    try:
        got = buchberger(vectors, order, product_criterion)
    except DegreeBudgetExceeded:
        got = "over budget"
    finally:
        groebner.division = original
    assert got_pairs == expected_pairs
    assert _terms(got) == _terms(expected)
    return got


_QUEUE_RINGS = tuple(PolyRing(5, ("x", "y", "z"), order) for order in _ORDERS)
_queue_entry = st.lists(
    st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)), st.integers(1, 4)), max_size=3
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(_QUEUE_RINGS), st.lists(_queue_entry, min_size=1, max_size=5), st.sampled_from([60, 3]))
def test_packed_queue_divides_the_pairs_of_the_tuple_queue_for_ideals(R, entries, budget):
    # a budget of 3 puts some leads and lcms above it, so some runs stop
    # at a pair over budget
    old = config.degree_budget
    try:
        config.degree_budget = budget
        _assert_same_queue([VectorPoly(R, [R.from_terms(e)]) for e in entries], R.order, True)
    finally:
        config.degree_budget = old


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.sampled_from(_RINGS), st.integers(1, 2), st.data())
def test_packed_queue_divides_the_pairs_of_the_tuple_queue_for_module_gb_inputs(R, rank, data):
    # the augmented input of ModuleGB: unit tails on the generators, none on
    # the modulo vectors, and no product criterion
    vec = st.lists(_entry.map(R.from_terms), min_size=rank, max_size=rank).map(lambda c: VectorPoly(R, c))
    gens = data.draw(st.lists(vec, min_size=1, max_size=3))
    modulo = data.draw(st.lists(vec, max_size=2))
    seen = []
    original = groebner.buchberger

    def recorded(vectors, order=None, product_criterion=None):
        seen.append((list(vectors), order, product_criterion))
        return original(vectors, order, product_criterion)

    groebner.buchberger = recorded
    try:
        ModuleGB(R, rank, gens, modulo=modulo)
    finally:
        groebner.buchberger = original
    [(vectors, order, product_criterion)] = seen
    assert product_criterion is False
    _assert_same_queue(vectors, order, product_criterion)


def test_a_repack_mid_run_rekeys_the_queued_pairs():
    # under lex with the budget raised to 100 both generators fit 8-bit
    # fields; the S-pairs' remainders reach degree 31 in y, which needs 16
    # bits, so a remainder that joins while two pairs are queued widens the
    # fields and the two pairs are keyed again
    x, y = _LEX_RING.gens()
    gens = [VectorPoly(_LEX_RING, [f]) for f in (2 * x ** 3 * y ** 9 + 3 * y ** 10, 4 * x * y ** 10 + 1)]
    rekeyed = []
    original = groebner._rekeyed

    def recorded(pairs, pk):
        rekeyed.append((len(pairs), pk.width))
        return original(pairs, pk)

    old = config.degree_budget
    groebner._rekeyed = recorded
    try:
        config.degree_budget = 100
        basis = _assert_same_queue(gens, _LEX_RING.order, True)
    finally:
        groebner._rekeyed = original
        config.degree_budget = old
    assert (2, 16) in rekeyed
    assert basis == [VectorPoly(_LEX_RING, [f]) for f in (x - y ** 21, y ** 31 - 1)]


def test_lcms_of_leads_above_the_budget_fit_the_fields():
    # leads of degree 70 under a budget of 50: the budget plus the largest
    # degree, 120, fits 8-bit fields, but the lcm x^70 y^70 of two leads has
    # degree 140, so the fields are sized for twice the largest degree; the
    # product criterion drops every pair, so nothing is over budget
    R = _QUEUE_RINGS[0]
    x, y, z = R.gens()
    gens = [VectorPoly(R, [f]) for f in (x ** 70 + y, y ** 70 + z, z ** 70 + x)]
    indexes = []
    original = groebner._reduced_basis

    def recorded(index):
        indexes.append(index)
        return original(index)

    old = config.degree_budget
    groebner._reduced_basis = recorded
    try:
        config.degree_budget = 50
        basis = _assert_same_queue(gens, R.order, True)
    finally:
        groebner._reduced_basis = original
        config.degree_budget = old
    assert sorted(basis, key=repr) == sorted(gens, key=repr)
    # the reference's index, then buchberger's
    [_, index] = indexes
    pk = index._packing
    guard = pk.consts[3]
    for a, (pa, ma, _ca) in enumerate(index.leads):
        for pb, mb, _cb in index.leads[a + 1:]:
            if pa == pb:
                lcm = mono_lcm(ma, mb)
                assert not pk.term(pa, lcm) & guard and pk.mono(pk.term(pa, lcm)) == lcm
