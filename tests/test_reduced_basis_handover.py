"""The reduced basis is interreduced bottom up, and buchberger hands it over
with the DivisionIndex it built: ModuleGB, ReducedBasis and Ideal divide by
that index instead of packing a fresh one.

The bottom-up basis must equal the one of the top-down tail reduction it
replaced, copied below as the reference, term order included, on ideals
under degrevlex, lex and a block order and on ModuleGB inputs with a
modulo list (basis, certificates and syzygies).  The handed index must
divide like a fresh DivisionIndex over the same basis: the same quotients,
the same remainder, its terms in the same order, also when a degree budget
raised after the build makes it repack.  The properties run under
hypothesis when it is installed, and over a fixed-seed sample always.
"""

import random

import pytest

import fpduality.groebner as groebner
from fpduality.config import config
from fpduality.errors import DegreeBudgetExceeded
from fpduality.fp import inv_mod
from fpduality.groebner import (
    DivisionIndex,
    Ideal,
    ModuleGB,
    VectorPoly,
    buchberger,
    combine,
    division,
    reduced_basis,
    vector_from_poly,
)
from fpduality.polyring import MonomialOrder, PolyRing

_ORDERS = (MonomialOrder("degrevlex"), MonomialOrder("lex"), MonomialOrder("block", 1))
_RINGS = tuple(PolyRing(5, ("x", "y", "z"), order) for order in _ORDERS)


# -- the top-down tail reduction, as it was before the bottom-up one --------

def _restrict(index, ks):
    # the index of the divisors numbered ks, in that order, sharing their
    # packed terms
    sub = DivisionIndex(index.order)
    renumber = {k: j for j, k in enumerate(ks)}
    sub.divisors = [index.divisors[k] for k in ks]
    sub.leads = [index.leads[k] for k in ks]
    sub._tails = [index._tails[k] for k in ks]
    sub.top = index.top
    sub._packing = index._packing
    for pos, entries in index.by_pos.items():
        kept = [(renumber[k], lead, linv) for k, lead, linv in entries if k in renumber]
        if kept:
            sub.by_pos[pos] = kept
    return sub


def _kept_as_it_is(index, k):
    # divisor k with its terms in descending order, when no leading term of
    # the index divides one of its other terms; None otherwise
    tail = index._tails[k]
    if tail is None:
        tail = index.tail(k)
    shift, _offset, _weights, guard, _dmask = index._packing.consts
    for t, _c in tail:
        for _k, lead, _linv in index.by_pos.get(t >> shift, ()):
            if not (t - lead) & guard:
                return None
    g = index.divisors[k]
    pos, lmono, c = index.leads[k]
    ts = [t for t, _c in tail]
    if next(iter(g.terms)) == (pos, lmono) and ts == sorted(ts):
        return g
    others = [key for key in g.terms if key != (pos, lmono)]
    terms = {(pos, lmono): c}
    for _t, key in sorted(zip(ts, others)):
        terms[key] = g.terms[key]
    return VectorPoly._of(g.ring, g.rank, terms)


def _top_down(index):
    # each tail divided by the whole minimal basis, before its reduction;
    # the signature of _reduced_basis
    _shift, _offset, _weights, guard, dmask = index._packing.consts
    keep = sorted(
        i
        for entries in index.by_pos.values()
        for i, li, _linv in entries
        if not any(
            j != i and not (li - lj) & guard and ((lj & dmask) < (li & dmask) or j < i)
            for j, lj, _linv in entries
        )
    )
    index = _restrict(index, keep)
    keep = index.divisors
    reduced = []
    for k, (g, (pos, lmono, c)) in enumerate(zip(keep, index.leads)):
        if len(keep) > 1:
            h = _kept_as_it_is(index, k)
            if h is not None:
                g = h
            else:
                tail = dict(g.terms)
                del tail[(pos, lmono)]
                _, rem = division(VectorPoly._of(g.ring, g.rank, tail), index, quotients=False)
                terms = {(pos, lmono): c}
                terms.update(rem.terms)
                g = VectorPoly._of(g.ring, g.rank, terms)
        reduced.append(g if c == 1 else g.scale(inv_mod(c, g.ring.p)))
    packed = {k: lead for entries in index.by_pos.values() for k, lead, _linv in entries}
    return [reduced[k] for k in sorted(packed, key=packed.__getitem__)]


def _reference(index):
    # the reference basis, with a fresh index over it
    basis = _top_down(index)
    return groebner._Basis(basis, DivisionIndex(index.order, basis))


# -- comparisons -------------------------------------------------------------

def _terms(vectors):
    return [(v.rank, list(v.terms.items())) for v in vectors]


def _poly_terms(polys):
    return [list(f.terms.items()) for f in polys]


def _with_reduced_basis(replacement, run):
    original = groebner._reduced_basis
    groebner._reduced_basis = replacement
    try:
        return run()
    finally:
        groebner._reduced_basis = original


class _TailOverBudget(Exception):
    """Both tail reductions went over the degree budget."""


def _outcome(reduce, index):
    try:
        return reduce(index)
    except DegreeBudgetExceeded:
        return "over budget"


def _recorded(run):
    """run() with each bottom-up basis checked against the reference on the
    same buchberger index; returns run's value, or None when buchberger's
    S-pairs or both tail reductions went over the degree budget, and the
    number of bases."""
    original = groebner._reduced_basis
    count = [0]

    def checked(index):
        expected = _outcome(_top_down, index)
        got = _outcome(original, index)
        if expected == "over budget" or got == "over budget":
            assert got == expected
            raise _TailOverBudget()
        assert _terms(got) == _terms(expected)
        assert got.index.divisors == list(got)
        assert got.index.leads == DivisionIndex(index.order, got).leads
        count[0] += 1
        return got

    try:
        return _with_reduced_basis(checked, run), count[0]
    except _TailOverBudget:
        return None, count[0]
    except DegreeBudgetExceeded:
        # an S-pair over the budget, before any tail reduction
        return None, count[0]


def _same_division(v, handed, fresh):
    quots, rem = division(v, handed)
    expected_quots, expected_rem = division(v, fresh)
    assert _poly_terms(quots) == _poly_terms(expected_quots)
    assert list(rem.terms.items()) == list(expected_rem.terms.items())


def _check_ideal(R, polys, queries):
    vectors = [vector_from_poly(f) for f in polys]
    basis, count = _recorded(lambda: buchberger(vectors))
    if basis is None:
        return
    assert count == (1 if basis else 0)
    if basis:
        fresh = DivisionIndex(R.order, list(basis))
        for f in queries:
            _same_division(vector_from_poly(f), basis.index, fresh)
    ideal = Ideal(R, polys)
    ideal.groebner()
    fresh = DivisionIndex(R.order, [vector_from_poly(g) for g in ideal.groebner()])
    for f in queries:
        expected = groebner._reduce_poly(f, fresh) if fresh.divisors else f
        assert list(ideal.reduce(f).terms.items()) == list(expected.terms.items())
        if fresh.divisors:
            _same_division(vector_from_poly(f), ideal._index, fresh)


def _check_module(R, rank, gens, modulo, queries):
    mgb, count = _recorded(lambda: ModuleGB(R, rank, gens, modulo=modulo))
    if mgb is None:
        return
    assert count == 1
    reference = _with_reduced_basis(_reference, lambda: ModuleGB(R, rank, gens, modulo=modulo))
    assert _terms(mgb.basis) == _terms(reference.basis)
    assert _terms(mgb.certificates) == _terms(reference.certificates)
    assert _terms(mgb.syzygies) == _terms(reference.syzygies)
    fresh = DivisionIndex(R.order, mgb.basis)
    for v in queries:
        _same_division(v, mgb.index, fresh)
        coeffs, rem = mgb.reduce(v)
        quots, expected_rem = groebner._division(v, fresh, True)
        expected = combine(mgb.certificates, quots, R, len(gens))
        assert (list(coeffs.terms.items()), list(rem.terms.items())) == (
            list(expected.terms.items()),
            list(expected_rem.terms.items()),
        )
        lifted = mgb.lift(v)
        assert (lifted is None) == bool(expected_rem.terms)
    rb = reduced_basis(R, rank, gens + modulo)
    expected = _with_reduced_basis(_reference, lambda: reduced_basis(R, rank, gens + modulo))
    assert _terms(rb.basis) == _terms(expected.basis)
    fresh = DivisionIndex(R.order, rb.basis)
    for v in queries:
        assert list(rb.normal_form(v).terms.items()) == list(division(v, fresh, quotients=False)[1].terms.items())


# -- inputs ------------------------------------------------------------------

# each case is drawn through pick(a, b), an integer from a to b: a seeded
# random.Random's randint, or a hypothesis draw, which shrinks

def _poly(pick, R, most, top):
    return R.from_terms(
        [(tuple(pick(0, top) for _ in range(R.nvars)), pick(1, 4)) for _ in range(pick(0, most))]
    )


def _vector(pick, R, rank):
    return VectorPoly(R, [_poly(pick, R, 2, 2) for _ in range(rank)])


def _ideal_case(pick):
    R = _RINGS[pick(0, 2)]
    polys = [_poly(pick, R, 3, 2) for _ in range(pick(1, 4))]
    queries = [_poly(pick, R, 4, 3) for _ in range(3)]
    return R, polys, queries


def _module_case(pick):
    R = _RINGS[pick(0, 2)]
    rank = pick(1, 2)
    gens = [_vector(pick, R, rank) for _ in range(pick(1, 3))]
    modulo = [_vector(pick, R, rank) for _ in range(pick(0, 2))]
    queries = [_vector(pick, R, rank) for _ in range(3)]
    return R, rank, gens, modulo, queries


def test_bottom_up_matches_top_down_on_seeded_ideals():
    pick = random.Random(2023).randint
    for _ in range(200):
        _check_ideal(*_ideal_case(pick))


def test_bottom_up_matches_top_down_on_seeded_module_gb_inputs():
    pick = random.Random(2024).randint
    for _ in range(30):
        _check_module(*_module_case(pick))


def test_bottom_up_matches_top_down_under_hypothesis():
    hypothesis = pytest.importorskip("hypothesis", reason="hypothesis is not installed; the seeded tests still run")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(st.data(), st.booleans())
    def check(data, ideal):
        def pick(a, b):
            return data.draw(st.integers(a, b))

        if ideal:
            _check_ideal(*_ideal_case(pick))
        else:
            _check_module(*_module_case(pick))

    check()


def test_twisted_cubic_ideal_and_a_module_with_modulo():
    # a basis of several elements whose tails need dividing, in each order
    for R in _RINGS:
        x, y, z = R.gens()
        polys = [x ** 2 - y, x * y - z, y ** 2 - x * z]
        _check_ideal(R, polys, [x ** 3 * y + z, y ** 3 - x, R.const(2)])
        gens = [VectorPoly(R, [x, y]), VectorPoly(R, [y, z]), VectorPoly(R, [z, x ** 2])]
        modulo = [VectorPoly(R, [f, R.zero()]) for f in polys] + [VectorPoly(R, [R.zero(), f]) for f in polys]
        _check_module(R, 2, gens, modulo, [VectorPoly(R, [x * y, z ** 2]), VectorPoly(R, [x, R.zero()])])


def test_a_budget_raised_after_the_build_repacks_the_handed_index():
    R = _RINGS[0]
    x, y, z = R.gens()
    ideal = Ideal(R, [x ** 2 - y, x * y - z, y ** 2 - x * z])
    mgb = ModuleGB(R, 1, [vector_from_poly(x * y), vector_from_poly(z ** 2 + x)])
    rb = reduced_basis(R, 1, [vector_from_poly(x ** 2 + z), vector_from_poly(y * z - 1)])
    ideal.groebner()
    handed = [ideal._index, mgb.index, rb.index]
    assert [index._packing.width for index in handed] == [8, 8, 8]
    f = x ** 5 * y ** 3 + z ** 4 + x
    v = vector_from_poly(f)
    old = config.degree_budget
    try:
        # the fields must now hold the budget plus the largest degree
        config.degree_budget = 200
        fresh = DivisionIndex(R.order, [vector_from_poly(g) for g in ideal.groebner()])
        assert list(ideal.reduce(f).terms.items()) == list(groebner._reduce_poly(f, fresh).terms.items())
        _same_division(v, ideal._index, fresh)
        _same_division(v, mgb.index, DivisionIndex(R.order, mgb.basis))
        coeffs, rem = mgb.reduce(v)
        quots, expected_rem = groebner._division(v, DivisionIndex(R.order, mgb.basis), True)
        assert list(coeffs.terms.items()) == list(combine(mgb.certificates, quots, R, 2).terms.items())
        assert list(rem.terms.items()) == list(expected_rem.terms.items())
        assert list(rb.normal_form(v).terms.items()) == list(
            division(v, DivisionIndex(R.order, rb.basis), quotients=False)[1].terms.items()
        )
    finally:
        config.degree_budget = old
    assert [index._packing.width for index in handed] == [16, 16, 16]


def test_a_tail_beyond_the_fields_is_packed_again():
    # under lex the leads x and z^2 are coprime, so no S-pair packs the
    # tail y^100 of x + y^100; the index sized its fields for it when
    # x + y^100 joined, so the tail reduction packs it in them, and the
    # index handed over keeps them
    R = _RINGS[1]
    x, y, z = R.gens()
    polys = [x + y ** 100, z ** 2 + z]
    basis, count = _recorded(lambda: buchberger([vector_from_poly(f) for f in polys]))
    assert count == 1 and len(basis) == 2
    assert basis.index._packing.width == 16
    # x fires x + y^100 once, and its remainder -y^100 is not divided again
    _check_ideal(R, polys, [x, x + z ** 3, y * z ** 2])


def test_an_element_that_outgrows_the_fields_repacks_the_new_index():
    # under lex, y + z^2 reduces to y + w^80 by z + w^40: the new index
    # repacks into 16-bit fields when it joins, and x + y + z, reduced
    # after it, is packed in those fields, not in the 8-bit ones of
    # buchberger's index
    R = PolyRing(5, ("x", "y", "z", "w"), MonomialOrder("lex"))
    x, y, z, w = R.gens()
    polys = [x + y + z, y + z ** 2, z + w ** 40]
    basis, count = _recorded(lambda: buchberger([vector_from_poly(f) for f in polys]))
    assert count == 1 and basis.index._packing.width == 16
    assert [groebner.poly_from_vector(g) for g in basis] == [x - w ** 80 - w ** 40, y + w ** 80, z + w ** 40]
    _check_ideal(R, polys, [x, x + y, w ** 3 + z])
