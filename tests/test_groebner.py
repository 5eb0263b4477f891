"""Groebner engine: bases, normal forms, syzygies, resolutions, elimination."""

import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fpduality.groebner as groebner
from fpduality.complexes import free_resolution
from fpduality.config import config
from fpduality.duality import canonical_dualizing, compare_presentations
from fpduality.errors import DegreeBudgetExceeded, NotSurjective, RingMismatch
from fpduality.fp import inv_mod
from fpduality.gabber import gabber_truncation, ring_map_is_surjective
from fpduality.groebner import (
    DivisionIndex,
    Ideal,
    ModuleGB,
    QuotientRing,
    VectorPoly,
    buchberger,
    division,
    elimination_kernel,
    groebner_basis,
    ideal_intersection,
    ideal_product,
    ideal_quotient,
    ideal_sum,
    leading_term,
    normal_form,
    syzygies,
    unit_vector,
    vector_from_poly,
)
from fpduality.polyring import MonomialOrder, PolyRing, RingMap, mono_divides, mono_lcm


def ring(p, *names, order=None):
    return PolyRing(p, names, order)


def mono_div(b, a):
    # the quotient b / a of monomials with a | b
    return tuple(x - y for x, y in zip(b, a))


# ---------------------------------------------------------------------------
# an independent oracle: naive exhaustive S-pair closure, no pair pruning

def naive_buchberger(polys):
    ring_ = polys[0].ring
    p = ring_.p
    basis = [f.scale(inv_mod(f.leading()[1], p)) for f in polys if not f.is_zero()]
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                f, g = basis[i], basis[j]
                mf, _ = f.leading()
                mg, _ = g.leading()
                lcm = mono_lcm(mf, mg)
                s = f.mul_term(mono_div(lcm, mf), 1) - g.mul_term(mono_div(lcm, mg), 1)
                r = normal_form(s, basis)
                if not r.is_zero():
                    basis.append(r.scale(inv_mod(r.leading()[1], p)))
                    changed = True
        if changed:
            continue
    return basis


def spans_same_ideal(gens_a, gens_b):
    return all(normal_form(g, groebner_basis(gens_b)).is_zero() for g in gens_a) and all(
        normal_form(g, groebner_basis(gens_a)).is_zero() for g in gens_b
    )


def assert_buchberger_criterion(gb):
    """Every S-polynomial of basis pairs reduces to zero."""
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            f, g = gb[i], gb[j]
            mf, cf = f.leading()
            mg, cg = g.leading()
            lcm = mono_lcm(mf, mg)
            p = f.ring.p
            s = f.mul_term(mono_div(lcm, mf), inv_mod(cf, p)) - g.mul_term(
                mono_div(lcm, mg), inv_mod(cg, p)
            )
            assert normal_form(s, gb).is_zero()


class TestBuchberger:
    def test_already_reduced(self):
        R = ring(2, "x", "y")
        x, y = R.gens()
        gb = groebner_basis([x, y])
        assert spans_same_ideal(gb, [x, y])
        assert len(gb) == 2

    def test_lex_example(self):
        # {x^2+y, y^2} under lex x>y has GB {y^2, x^2+y}
        R = ring(2, "x", "y", order=MonomialOrder("lex"))
        x, y = R.gens()
        gb = groebner_basis([x ** 2 + y, y ** 2])
        assert spans_same_ideal(gb, [y ** 2, x ** 2 + y])
        assert len(gb) == 2
        assert_buchberger_criterion(gb)

    def test_against_naive_oracle(self):
        rng = random.Random(424242)
        for trial in range(12):
            p = rng.choice([2, 3, 5])
            R = ring(p, "x", "y")
            polys = []
            for _ in range(rng.randint(2, 3)):
                f = R.zero()
                for _ in range(rng.randint(1, 3)):
                    exps = (rng.randint(0, 2), rng.randint(0, 2))
                    f = f + R.monomial(exps, rng.randint(1, p - 1))
                if not f.is_zero():
                    polys.append(f)
            if not polys:
                continue
            fast = groebner_basis(polys)
            slow = naive_buchberger(polys)
            assert spans_same_ideal(fast, slow)
            assert_buchberger_criterion(fast)

    def test_idempotent_on_gb(self):
        R = ring(2, "x", "y")
        x, y = R.gens()
        gb = groebner_basis([x ** 2 + y * x, y ** 3 + x])
        again = groebner_basis(gb)
        assert [repr(g) for g in gb] == [repr(g) for g in again]

    def test_cyclic3_char7(self):
        R = ring(7, "a", "b", "c")
        a, b, c = R.gens()
        gens = [a + b + c, a * b + b * c + c * a, a * b * c - R.one()]
        gb = groebner_basis(gens)
        assert_buchberger_criterion(gb)
        for g in gens:
            assert normal_form(g, gb).is_zero()

    def test_degree_budget(self):
        R = ring(2, "x", "y")
        x, y = R.gens()
        old = config.degree_budget
        config.degree_budget = 3
        try:
            with pytest.raises(DegreeBudgetExceeded):
                groebner_basis([x ** 3 + y, x * y ** 3 + x + y ** 2])
        finally:
            config.degree_budget = old

    def test_degree_budget_in_division(self):
        # the first reduction step acts on x^3*y^2, of degree 5; one
        # generator has no S-pairs, so only division can raise
        R = ring(2, "x", "y")
        x, y = R.gens()
        I = Ideal(R, [x * y + 1])
        old = config.degree_budget
        try:
            config.degree_budget = 4
            with pytest.raises(DegreeBudgetExceeded):
                I.reduce(x ** 3 * y ** 2)
            with pytest.raises(DegreeBudgetExceeded):
                normal_form(x ** 3 * y ** 2, [x * y + 1])
            config.degree_budget = 5
            assert I.reduce(x ** 3 * y ** 2) == x
            assert normal_form(x ** 3 * y ** 2, [x * y + 1]) == x
        finally:
            config.degree_budget = old


class TestNormalForm:
    def test_simple(self):
        R = ring(2, "x")
        x = R.var("x")
        assert normal_form(x ** 2, [x]).is_zero()

    def test_single_step(self):
        R = ring(3, "x", "y")
        x, y = R.gens()
        # NF(x^2+y, {x^2-y}) = 2y
        assert normal_form(x ** 2 + y, [x ** 2 - y]) == y.scale(2)

    def test_empty_basis(self):
        R = ring(5, "x")
        f = R.var("x") ** 4 + R.const(2)
        assert normal_form(f, []) == f

    def test_idempotent_and_linear(self):
        rng = random.Random(5)
        R = ring(3, "x", "y")
        x, y = R.gens()
        gb = groebner_basis([x ** 2 + y, y ** 2 + x * y])
        for _ in range(100):
            f = R.monomial((rng.randint(0, 3), rng.randint(0, 3)), rng.randint(1, 2))
            g = R.monomial((rng.randint(0, 3), rng.randint(0, 3)), rng.randint(1, 2))
            nf = lambda h: normal_form(h, gb)
            assert nf(nf(f)) == nf(f)
            assert nf(f + g) == nf(f) + nf(g)

    def test_division_certificate(self):
        R = ring(5, "x", "y")
        x, y = R.gens()
        divisors = [vector_from_poly(x ** 2 - y), vector_from_poly(y ** 2 - 1)]
        f = vector_from_poly(x ** 4 * y + x * y ** 3 + 3)
        quots, rem = division(f, divisors)
        recomposed = rem + groebner.combine(divisors, VectorPoly(R, quots).terms.items(), R, f.rank)
        assert recomposed == f


class TestSyzygies:
    def test_koszul_pair(self):
        R = ring(2, "x", "y")
        x, y = R.gens()
        syz = syzygies([vector_from_poly(x), vector_from_poly(y)])
        assert len(syz) == 1
        assert syz[0].components in (tuple([y, x]), tuple([y, x]))

    def test_unit_generator(self):
        R = ring(2, "x")
        syz = syzygies([vector_from_poly(R.one())])
        assert syz == []

    def test_duplicate_generator(self):
        R = ring(2, "x")
        x = R.var("x")
        syz = syzygies([vector_from_poly(x), vector_from_poly(x)])
        assert len(syz) == 1
        assert syz[0].components == (R.one(), R.one())

    def test_syzygies_compose_to_zero(self):
        rng = random.Random(99)
        R = ring(3, "x", "y")
        for _ in range(6):
            gens = []
            for _ in range(3):
                f = R.zero()
                for _ in range(rng.randint(1, 3)):
                    f = f + R.monomial(
                        (rng.randint(0, 2), rng.randint(0, 2)), rng.randint(1, 2)
                    )
                gens.append(vector_from_poly(f))
            for s in syzygies(gens):
                acc = R.zero()
                for c, g in zip(s.components, gens):
                    acc = acc + c * g.components[0]
                assert acc.is_zero()

    def test_module_syzygy(self):
        R = ring(2, "x", "y")
        x, y = R.gens()
        v1 = VectorPoly(R, [x, y])
        v2 = VectorPoly(R, [y, x])
        for s in syzygies([v1, v2]):
            a, b = s.components
            assert (a * x + b * y).is_zero()
            assert (a * y + b * x).is_zero()


class TestModuleGBLift:
    def test_lift_roundtrip(self):
        R = ring(3, "x", "y")
        x, y = R.gens()
        gens = [vector_from_poly(x ** 2 + y), vector_from_poly(y ** 2)]
        mgb = ModuleGB(R, 1, gens)
        target = vector_from_poly((x ** 2 + y) * y + y ** 2 * x)
        coeffs = mgb.lift(target)
        assert coeffs is not None
        acc = R.zero()
        for c, g in zip(coeffs.components, gens):
            acc = acc + c * g.components[0]
        assert acc == target.components[0]

    def test_non_member(self):
        R = ring(2, "x", "y")
        x, y = R.gens()
        mgb = ModuleGB(R, 1, [vector_from_poly(x)])
        assert mgb.lift(vector_from_poly(y)) is None


def presentation_resolution(ring, columns, length=None):
    # the differentials of free_resolution, from degree -1 down
    rank = columns[0].rank if columns else 1
    diffs = free_resolution(ring, rank, columns, length).diffs
    return [diffs[d] for d in sorted(diffs, reverse=True)]


class TestFreeResolution:
    def test_koszul_resolution_ranks(self):
        R = ring(2, "x", "y")
        x, y = R.gens()
        stages = presentation_resolution(R, [vector_from_poly(x), vector_from_poly(y)])
        ranks = [1] + [len(s) for s in stages]
        assert ranks == [1, 2, 1]

    def test_free_module_resolution_empty(self):
        R = ring(2, "x")
        assert presentation_resolution(R, []) == []

    def test_length_skips_syzygies_of_last_stage(self, monkeypatch):
        # over F_2[x]/(x^2) the resolution of the residue field is periodic:
        # a length bounds it, and the last stage's syzygies are not computed
        amb = ring(2, "x")
        x = amb.var("x")
        R = QuotientRing(amb, [x ** 2])
        builds = [0]
        original = groebner.ModuleGB.__init__

        def counted(self, *args, **kwargs):
            builds[0] += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(groebner.ModuleGB, "__init__", counted)
        stages = presentation_resolution(R, [vector_from_poly(x)], length=3)
        assert [[repr(v) for v in s] for s in stages] == [["(x)"]] * 3
        assert builds[0] == 2

    def test_principal_ideal(self):
        R = ring(3, "x")
        x = R.var("x")
        stages = presentation_resolution(R, [vector_from_poly(x ** 2)])
        assert len(stages) == 1
        assert len(stages[0]) == 1

    def test_exactness_interior(self):
        # composite of consecutive stages is zero and kernels are hit
        R = ring(2, "x", "y", "z")
        x, y, z = R.gens()
        cols = [vector_from_poly(f) for f in (x * y, y * z, z * x)]
        stages = presentation_resolution(R, cols)
        for k in range(1, len(stages)):
            prev, cur = stages[k - 1], stages[k]
            for s in cur:
                assert groebner.combine(prev, s.terms.items(), R, prev[0].rank).is_zero()
            # every syzygy of prev is generated by cur
            for s in syzygies(prev):
                assert ModuleGB(R, len(prev), cur).contains(s)


class TestElimination:
    def test_injective(self):
        S = ring(2, "X")
        R = ring(2, "x")
        phi = RingMap(S, R, [R.var("x") ** 2])
        assert elimination_kernel(phi).is_zero()

    def test_cuspidal_cubic(self):
        S = ring(2, "X", "Y")
        R = ring(2, "t")
        t = R.var("t")
        phi = RingMap(S, R, [t ** 2, t ** 3])
        ker = elimination_kernel(phi)
        X, Y = S.gens()
        assert ker.equals(Ideal(S, [X ** 3 + Y ** 2]))

    def test_kernel_onto_quotient(self):
        S = ring(2, "X")
        amb = ring(2, "x")
        A = QuotientRing(amb, [amb.var("x") ** 2])
        phi = RingMap(S, A, [amb.var("x")])
        ker = elimination_kernel(phi)
        assert ker.equals(Ideal(S, [S.var("X") ** 2]))

    def test_kernel_maps_to_zero(self):
        rng = random.Random(3)
        S = ring(3, "X", "Y")
        R = ring(3, "t")
        t = R.var("t")
        phi = RingMap(S, R, [t ** 2 + 1, t ** 3])
        ker = elimination_kernel(phi)
        gb = ker.groebner()
        for g in gb:
            assert phi(g).is_zero()
        # random combinations also map to zero
        for _ in range(20):
            f = S.zero()
            for g in gb:
                exps = (rng.randint(0, 1), rng.randint(0, 1))
                f = f + g * S.monomial(exps, rng.randint(1, 2))
            assert phi(f).is_zero()


class TestIdealOps:
    def test_intersection(self):
        R = ring(2, "x", "y")
        x, y = R.gens()
        meet = ideal_intersection(Ideal(R, [x]), Ideal(R, [y]))
        assert meet.equals(Ideal(R, [x * y]))

    def test_quotient(self):
        R = ring(2, "x", "y")
        x, y = R.gens()
        quo = ideal_quotient(Ideal(R, [x * y]), Ideal(R, [x]))
        assert quo.equals(Ideal(R, [y]))

    def test_membership_char2(self):
        R = ring(2, "x", "y")
        x, y = R.gens()
        assert Ideal(R, [x + y]).contains(x ** 2 + y ** 2)

    def test_sum_product(self):
        R = ring(3, "x", "y")
        x, y = R.gens()
        I, J = Ideal(R, [x]), Ideal(R, [y])
        assert ideal_sum(I, J).contains(x + y)
        assert ideal_product(I, J).equals(Ideal(R, [x * y]))


class TestQuotientRing:
    def test_reduce_and_equality(self):
        amb = ring(2, "x")
        A = QuotientRing(amb, [amb.var("x") ** 2])
        x = amb.var("x")
        assert A.reduce(x ** 3).is_zero()
        assert A.reduce((x ** 2 + x) - x).is_zero()

    def test_standard_monomials(self):
        amb = ring(2, "x", "y")
        A = QuotientRing(amb, [amb.var("x") ** 2, amb.var("y") ** 2])
        assert A.standard_monomials() == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_standard_monomials_of_no_variables(self):
        R = ring(3)
        assert QuotientRing(R, []).standard_monomials() == [()]
        assert QuotientRing(R, [R.const(2)]).standard_monomials() == []

    def test_standard_monomials_are_the_monomials_in_normal_form(self):
        # brute force over a box wider than the bounds x^3 and y^3
        amb = ring(3, "x", "y")
        x, y = amb.gens()
        A = QuotientRing(amb, [x ** 3 - y, x * y ** 2, y ** 3])
        box = [(a, b) for a in range(6) for b in range(6)]
        expected = [m for m in box if A.reduce(amb.from_terms([(m, 1)])) == amb.from_terms([(m, 1)])]
        assert len(expected) == 7
        assert A.standard_monomials() == expected

    def test_infinite_dimensional(self):
        amb = ring(2, "x", "y")
        A = QuotientRing(amb, [amb.var("x") * amb.var("y")])
        assert A.standard_monomials() is None


# ---------------------------------------------------------------------------
# VectorPoly keeps one dict of its nonzero terms: same values, and the same
# term order in each slot, as componentwise work

_VR = PolyRing(5, ("x", "y"))
_poly = st.one_of(
    st.just(_VR.zero()),
    st.lists(
        st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(0, 4)),
        max_size=4,
    ).map(_VR.from_terms),
)
_vector_pair = st.integers(1, 4).flatmap(
    lambda r: st.tuples(st.lists(_poly, min_size=r, max_size=r), st.lists(_poly, min_size=r, max_size=r))
)


def _slot_terms(v):
    return [list(c.terms.items()) for c in v.components]


def _same(v, comps):
    expected = VectorPoly(_VR, comps)
    return v == expected and hash(v) == hash(expected) and _slot_terms(v) == _slot_terms(expected)


@settings(max_examples=150, deadline=None)
@given(_vector_pair, st.integers(-6, 6), st.tuples(st.integers(0, 2), st.integers(0, 2)), _poly)
def test_vector_ops_match_componentwise(pair, c, mono, f):
    a, b = pair
    u, w = VectorPoly(_VR, a), VectorPoly(_VR, b)
    results = [
        (u + w, [s + t for s, t in zip(a, b)]),
        (u - w, [s - t for s, t in zip(a, b)]),
        (-u, [-s for s in a]),
        (u.scale(c), [s.scale(c) for s in a]),
        (u.mul_term(mono, c), [s.mul_term(mono, c) for s in a]),
        (groebner.combine([u], VectorPoly(_VR, [f]).terms.items(), _VR, u.rank), [f * s for s in a]),
    ]
    for v, dense in results:
        # the nonzero slots of a vector built from terms: ascending
        # positions, each slot's terms in the order of the componentwise
        # result
        slots = groebner.nonzero_slots(v)
        assert [i for i, _ in slots] == [i for i, s in enumerate(dense) if s.terms]
        assert [list(s.terms.items()) for _, s in slots] == [list(s.terms.items()) for s in dense if s.terms]
        assert _same(v, dense)
    # vector_of adds each entry into its slot: repeated slots, one sum
    # cancelling to zero, agree with the dense sums slot by slot, in either
    # order of the entries
    r = len(a)
    entries = [(k % r, s) for k, s in enumerate(a + b + [-s for s in a] + [s.mul_term(mono, c) for s in b])]
    for ordered in (entries, entries[::-1], []):
        dense = [_VR.zero()] * r
        for pos, s in ordered:
            dense[pos] = dense[pos] + s
        assert _same(groebner.vector_of(_VR, r, ordered), dense)
    assert groebner.vector_of(_VR, r, [(0, f), (r - 1, f.scale(2)), (0, -f), (r - 1, f.scale(3))]).is_zero()
    assert groebner.nonzero_slots(u) == tuple((i, s) for i, s in enumerate(a) if s.terms)
    for pos in (-1, r):
        with pytest.raises(IndexError):
            groebner.vector_of(_VR, r, [(pos, f)])
    with pytest.raises(RingMismatch):
        groebner.vector_of(_VR, r, [(0, PolyRing(5, ("x", "z")).zero())])


_columns_and_coeffs = st.tuples(st.integers(1, 3), st.integers(0, 4)).flatmap(
    lambda rk: st.tuples(
        st.just(rk[0]),
        st.lists(st.lists(_poly, min_size=rk[0], max_size=rk[0]), min_size=rk[1], max_size=rk[1]),
        st.lists(_poly, min_size=rk[1], max_size=rk[1]),
    )
)


@settings(max_examples=150, deadline=None)
@given(_columns_and_coeffs)
def test_combine_is_componentwise_sum(data):
    # zero coefficients and an empty column list included; the sum is taken
    # term by term over the coefficient vector's terms, in their order
    rank, cols, coeffs = data
    terms = VectorPoly(_VR, coeffs).terms.items()
    expected = [_VR.zero()] * rank
    for (j, m), c in terms:
        expected = [e + s.mul_term(m, c) for e, s in zip(expected, cols[j])]
    got = groebner.combine([VectorPoly(_VR, col) for col in cols], terms, _VR, rank)
    assert _same(got, expected)


def test_combine_rejects_an_entry_past_the_columns():
    x, y = _VR.gens()
    col = VectorPoly(_VR, [x, y])
    assert _same(groebner.combine([col], groebner.vector_of(_VR, 1, [(0, y)]).terms.items(), _VR, 2), [x * y, y * y])
    with pytest.raises(IndexError):
        groebner.combine([col], groebner.vector_of(_VR, 2, [(0, x), (1, y)]).terms.items(), _VR, 2)


def test_combine_over_no_columns_is_the_zero_vector():
    # an absent component of a map is the zero map, whatever it is applied to
    x = _VR.var(0)
    assert _same(groebner.combine([], [], _VR, 3), [_VR.zero()] * 3)
    terms = groebner.vector_of(_VR, 5, [(0, x), (4, x)]).terms.items()
    assert _same(groebner.combine([], terms, _VR, 3), [_VR.zero()] * 3)


_vector = st.integers(1, 4).flatmap(lambda r: st.lists(_poly, min_size=r, max_size=r))


@settings(max_examples=150, deadline=None)
@given(_vector)
def test_components_round_trip_each_slot_in_order(comps):
    # rebuilt from the terms alone, with every slot's terms in their order
    v = VectorPoly(_VR, comps)
    assert v.rank == len(comps)
    assert v.is_zero() == all(c.is_zero() for c in comps)
    rebuilt = VectorPoly._of(_VR, v.rank, dict(v.terms)).components
    assert [list(c.terms.items()) for c in rebuilt] == [list(c.terms.items()) for c in comps]
    assert all(c.ring is _VR for c in rebuilt)


_LT_ORDERS = (MonomialOrder("degrevlex"), MonomialOrder("lex"), MonomialOrder("block", 1), MonomialOrder("block", 2))
_LT_RING = PolyRing(3, ("x", "y", "z"))
_lt_poly = st.lists(
    st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)), st.integers(0, 2)),
    max_size=5,
).map(_LT_RING.from_terms)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda r: st.lists(_lt_poly, min_size=r, max_size=r)))
def test_leading_term_matches_a_per_component_scan(comps):
    # one vector asked under each order in turn: the cached lead is per order
    v = VectorPoly(_LT_RING, comps)
    for order in _LT_ORDERS + _LT_ORDERS[::-1]:
        expected = None
        for i, f in enumerate(comps):
            if f.terms:
                m = max(f.terms, key=order.key)
                expected = (i, m, f.terms[m])
                break
        assert leading_term(v, order) == expected


@settings(max_examples=150, deadline=None)
@given(_vector_pair, st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_equal_vectors_built_by_different_paths_hash_equal(pair, mono):
    a, b = pair
    u, w = VectorPoly(_VR, a), VectorPoly(_VR, b)
    reversed_terms = VectorPoly._of(_VR, u.rank, dict(reversed(list(u.terms.items()))))
    shifted = VectorPoly(_VR, [s.mul_term(mono, 2) for s in a])
    for left, right in (
        (u + w, w + u),
        ((u - w) + w, u),
        (-(-u), u),
        (u.scale(3).scale(2), u),
        (reversed_terms, u),
        (u.mul_term(mono, 2), shifted),
        (groebner.combine([u], VectorPoly(_VR, [_VR.monomial(mono, 2)]).terms.items(), _VR, u.rank), shifted),
        (groebner.combine([u, w], VectorPoly(_VR, [_VR.one()] * 2).terms.items(), _VR, u.rank), u + w),
    ):
        assert left == right
        assert hash(left) == hash(right)
    expected = []
    for v in (u, u + w):
        if not v.is_zero() and v not in expected:
            expected.append(v)
    assert groebner.unique_nonzero([u, reversed_terms, w + u, u + w]) == expected


def test_scaling_scales_the_lead():
    # a multiple of a vector leads with the same term, its coefficient scaled
    order = MonomialOrder("degrevlex")
    R = PolyRing(5, ("x", "y"), order)
    x, y = R.gens()
    v = VectorPoly(R, [R.zero(), x * y + 2 * y ** 2 + 3, x])
    assert leading_term(v, order) == (1, (1, 1), 1)
    w = v.scale(3)
    assert leading_term(w, order) == (1, (1, 1), 3)
    assert leading_term(w.scale(2), order) == (1, (1, 1), 1)
    # the same lead as a vector built from the same terms, and a zero
    # multiple has none
    fresh = VectorPoly._of(R, w.rank, dict(w.terms))
    assert leading_term(fresh, order) == leading_term(w, order)
    assert leading_term(v.scale(5), order) is None
    u = VectorPoly(R, [x + y]).scale(2)
    assert leading_term(u, order) == (0, (1, 0), 2)


def test_unit_vector_holds_one_slot_and_checks_its_ring():
    R = ring(3, "x", "y")
    x, y = R.gens()
    e = unit_vector(R, 3, 1)
    assert e == VectorPoly(R, [R.zero(), R.one(), R.zero()])
    assert list(e.terms.items()) == [((1, (0, 0)), 1)]
    f = x ** 2 + 2 * y
    v = unit_vector(R, 3, 2, f)
    assert v == VectorPoly(R, [R.zero(), R.zero(), f]) and v.components[2] == f
    assert unit_vector(R, 2, 0, R.zero()).is_zero()
    with pytest.raises(RingMismatch):
        unit_vector(R, 2, 0, ring(5, "x", "y").var(0))
    with pytest.raises(IndexError):
        unit_vector(R, 2, 2)


def test_vectors_of_different_rank_differ():
    zero = _VR.zero()
    x = _VR.var(0)
    short, long = VectorPoly(_VR, [x]), VectorPoly(_VR, [x, zero])
    assert short != long
    assert groebner.unique_nonzero([short, long, short]) == [short, long]
    assert VectorPoly(_VR, [zero]) != VectorPoly(_VR, [zero, zero])


def test_foreign_ring_component_raises():
    other = PolyRing(5, ("x", "z"))
    with pytest.raises(RingMismatch):
        VectorPoly(_VR, [_VR.var(0), other.var(1)])
    with pytest.raises(RingMismatch):
        VectorPoly(_VR, [other.zero()])
    with pytest.raises(RingMismatch):
        ModuleGB(_VR, 1, [VectorPoly(other, [other.var(0)])])
    with pytest.raises(RingMismatch):
        groebner.combine([VectorPoly(other, [other.var(0)])], VectorPoly(_VR, [_VR.var(0)]).terms.items(), _VR, 1)


def test_zero_vectors_of_different_rings_do_not_mix():
    u = VectorPoly(_VR, [_VR.zero()])
    w = VectorPoly(PolyRing(5, ("x", "z")), [PolyRing(5, ("x", "z")).zero()])
    with pytest.raises(RingMismatch):
        u + w
    with pytest.raises(RingMismatch):
        u - w


# ---------------------------------------------------------------------------
# the ring-map layer: kernels, surjectivity verdicts and preimages, pinned on
# the presentations of the corpus and two parametrisations

try:
    from fpduality.groebner import preimage
except ImportError:  # the per-element tag-variable lift serves the same pins
    from fpduality.duality import _lift_through_presentation

    def preimage(phi, f):
        try:
            return _lift_through_presentation(phi.target, phi, f)
        except NotSurjective:
            return None


def _pinned_maps():
    out = {}
    amb = ring(2, "x")
    x = amb.var("x")
    A = QuotientRing(amb, [x ** 2])
    out["c4_dual_pi1"] = RingMap(ring(2, "x"), A, [A.reduce(x)], check=False)
    out["c4_dual_pi2"] = RingMap(ring(2, "u", "v"), A, [A.reduce(x), A.zero()], check=False)
    amb = ring(2, "t")
    t = amb.var("t")
    L = QuotientRing(amb, [])
    out["c4_line_pi1"] = RingMap(ring(2, "t"), L, [L.reduce(t)], check=False)
    out["c4_line_pi2"] = RingMap(ring(2, "X", "Y"), L, [L.reduce(t), L.reduce(t ** 2)], check=False)
    out["c5_point_p2"] = RingMap(ring(2, "X"), ring(2), [ring(2).zero()])
    out["c5_dual"] = RingMap(ring(2, "X", "Y"), A, [A.reduce(x), A.zero()], check=False)
    out["c5_point_p3"] = RingMap(ring(3, "X"), ring(3), [ring(3).zero()])
    for p, tv, e in ((2, 0, 2), (3, 1, 1)):
        Fp = ring(p)
        tower = gabber_truncation(Fp, [Fp.const(tv)], e)
        key = "c5_series_p%d_e%d" % (p, e)
        out[key] = RingMap(ring(p, "Y"), tower.ring, [tower.pbasis_images[0]], check=False)
        out[key + "_iota"] = tower.stages[-1].iota
    for p, roots in ((2, (1,)), (2, (1, 3)), (3, (1, 2))):
        T = ring(p, "@cx")
        c = T.var(0)
        S = ring(p, "x", *("y%d" % (j + 1) for j in range(len(roots))))
        key = "c8_p%d_%s" % (p, "_".join(map(str, roots)))
        out[key] = RingMap(S, T, [c ** p] + [c ** k for k in roots], check=False)
    T = ring(3, "t")
    t = T.var(0)
    out["twisted_cubic"] = RingMap(ring(3, "x", "y", "z"), T, [t, t ** 2, t ** 3])
    T = ring(2, "s", "t")
    s, t = T.gens()
    out["cubic_cone"] = RingMap(ring(2, "a", "b", "c", "d"), T, [s ** 3, s ** 2 * t, s * t ** 2, t ** 3])
    return out


# name -> (kernel generators, surjective, preimages of the target variables)
RING_MAP_PINS = {
    "c4_dual_pi1": (["x^2"], True, ["x"]),
    "c4_dual_pi2": (["u^2", "v"], True, ["u"]),
    "c4_line_pi1": ([], True, ["t"]),
    "c4_line_pi2": (["X^2 + Y"], True, ["X"]),
    "c5_point_p2": (["X"], True, []),
    "c5_dual": (["X^2", "Y"], True, ["X"]),
    "c5_point_p3": (["X"], True, []),
    "c5_series_p2_e2": (["Y^4"], True, ["Y^2", "Y"]),
    "c5_series_p2_e2_iota": (["X1_1^2"], False, ["X1_1", None]),
    "c5_series_p3_e1": (["Y^3 + 2"], True, ["Y"]),
    "c5_series_p3_e1_iota": ([], False, [None]),
    "c8_p2_1": (["y1^2 + x"], True, ["y1"]),
    "c8_p2_1_3": (["x^2 + y1*y2", "x*y1 + y2", "y1^2 + x"], True, ["y1"]),
    "c8_p3_1_2": (["y2^3 + 2*x^2", "x*y1 + 2*y2^2", "y1^2 + 2*y2", "y1*y2 + 2*x"], True, ["y1"]),
    "twisted_cubic": (["x^2 + 2*y", "x*y + 2*z", "y^2 + 2*x*z"], True, ["x"]),
    "cubic_cone": (["b^2 + a*c", "b*c + a*d", "c^2 + b*d"], False, [None, None]),
}


def test_ring_map_layer_pins():
    maps = _pinned_maps()
    assert sorted(maps) == sorted(RING_MAP_PINS)
    for name, phi in maps.items():
        kernel, surjective, preimages = RING_MAP_PINS[name]
        assert [repr(g) for g in elimination_kernel(phi).gens] == kernel, name
        assert ring_map_is_surjective(phi) == surjective, name
        got = [preimage(phi, v) for v in phi.target_ambient.gens()]
        assert [None if g is None else repr(g) for g in got] == preimages, name
        for v, g in zip(phi.target_ambient.gens(), got):
            if g is not None:
                assert phi(g) == phi._reduce_target(v), name


def test_non_surjective_presentation_messages():
    amb = ring(2, "x")
    x = amb.var("x")
    A = QuotientRing(amb, [x ** 2])
    good = RingMap(ring(2, "x"), A, [A.reduce(x)], check=False)
    bad = RingMap(ring(2, "u"), A, [A.zero()], check=False)
    with pytest.raises(NotSurjective, match="^the presentation map is not surjective$"):
        canonical_dualizing(A, bad)
    for pair in ((bad, good), (good, bad)):
        with pytest.raises(NotSurjective, match="^element has no polynomial preimage; map not onto$"):
            compare_presentations(A, *pair)


def test_one_graph_basis_per_ring_map(monkeypatch):
    # kernel, surjectivity and two preimages read one Groebner basis
    runs = [0]
    original = groebner.buchberger

    def counted(*args, **kwargs):
        runs[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", counted)
    T = ring(3, "t")
    t = T.var(0)
    phi = RingMap(ring(3, "x", "y", "z"), T, [t, t ** 2, t ** 3])
    elimination_kernel(phi)
    assert ring_map_is_surjective(phi)
    assert repr(preimage(phi, t)) == "x"
    assert repr(preimage(phi, t ** 5 + t)) == "y*z + x"
    assert runs[0] == 1


def test_preimages_share_the_kept_division_index(monkeypatch):
    # the graph basis is indexed once, when it is built
    T = ring(3, "t")
    t = T.var(0)
    phi = RingMap(ring(3, "x", "y", "z"), T, [t, t ** 2, t ** 3])
    assert repr(preimage(phi, t)) == "x"
    built = [0]
    original = groebner.DivisionIndex.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(groebner.DivisionIndex, "__init__", counted)
    assert ring_map_is_surjective(phi)
    assert repr(preimage(phi, t ** 5 + t)) == "y*z + x"
    assert built[0] == 0


def test_adjoin_variables_keeps_names_fresh():
    R = QuotientRing(ring(2, "x", "y"), [ring(2, "x", "y").var("x") ** 2])
    big, idx = groebner.adjoin_variables(R, ["y", "z", "y"], MonomialOrder("block", 2))
    assert big.variables == ("x", "y", "@y", "z", "@@y")
    assert idx == [0, 1]
    assert big.order == MonomialOrder("block", 2)
    plain, _ = groebner.adjoin_variables(ring(3, "t"), ["u"])
    assert plain.variables == ("t", "u") and plain.order == ring(3, "t").order


def test_are_inverse():
    S = ring(3, "x", "y")
    x, y = S.gens()
    swap = RingMap(S, S, [y, x])
    shear = RingMap(S, S, [x + y ** 2, y])
    unshear = RingMap(S, S, [x - y ** 2, y])
    assert groebner.are_inverse(swap, swap)
    assert groebner.are_inverse(shear, unshear)
    assert not groebner.are_inverse(shear, swap)
    # over a quotient the composites are compared modulo the modulus
    A = QuotientRing(ring(3, "t"), [ring(3, "t").var("t") ** 3])
    t = A.ambient.var("t")
    to_A = RingMap(A, A, [A.reduce(t + t ** 2)])
    back = RingMap(A, A, [A.reduce(t - t ** 2 + 2 * t ** 3)])
    assert groebner.are_inverse(to_A, back)


# ---------------------------------------------------------------------------
# the kept division index: same quotients and remainders as a plain list,
# checked against a term-by-term reference division

_BLOCK = MonomialOrder("block", 1)
_LEX = MonomialOrder("lex")
_DIV_RINGS = (PolyRing(3, ("x", "y")), PolyRing(3, ("x", "y"), _BLOCK), PolyRing(3, ("x", "y"), _LEX))


def _reference_division(v, divisors, budget):
    # the largest remaining term goes to the first divisor whose leading
    # term divides it, else to the remainder; reducing a term of degree
    # above the budget raises
    R = v.ring
    work = list(v.components)
    quo = [R.zero()] * len(divisors)
    rem = [R.zero()] * v.rank
    leads = [leading_term(g, R.order) for g in divisors]
    while any(w.terms for w in work):
        pos, mono, c = leading_term(VectorPoly(R, work), R.order)
        for k, lk in enumerate(leads):
            if lk is not None and lk[0] == pos and mono_divides(lk[1], mono):
                if sum(mono) > budget:
                    raise DegreeBudgetExceeded("reference")
                q = R.monomial(mono_div(mono, lk[1]), c * inv_mod(lk[2], R.p))
                quo[k] = quo[k] + q
                work = [w - g * q for w, g in zip(work, divisors[k].components)]
                break
        else:
            term = R.monomial(mono, c)
            rem[pos] = rem[pos] + term
            work[pos] = work[pos] - term
    return quo, VectorPoly(R, rem)


def _outcome(divide, *args, **kwargs):
    try:
        return divide(*args, **kwargs)
    except DegreeBudgetExceeded:
        return "over budget"


# exponents at and beyond the 127 that the default 8-bit fields hold
_SMALL_EXPONENT = st.integers(0, 3)
_ANY_EXPONENT = st.one_of(st.integers(0, 3), st.sampled_from([126, 127, 128, 140]))


@st.composite
def _division_case(draw):
    R = draw(st.sampled_from(_DIV_RINGS))
    rank = draw(st.integers(1, 3))
    large = draw(st.booleans())
    exponent = _ANY_EXPONENT if large else _SMALL_EXPONENT
    poly = st.lists(st.tuples(st.tuples(exponent, exponent), st.integers(0, 2)), max_size=4).map(R.from_terms)
    vec = st.lists(poly, min_size=rank, max_size=rank).map(lambda comps: VectorPoly(R, comps))
    divisors = draw(st.lists(vec, min_size=1, max_size=4))
    later = draw(st.lists(vec, min_size=1, max_size=2))
    targets = draw(st.lists(vec, min_size=1, max_size=3))
    # a raised budget widens the fields of an index built under the default
    budget = draw(st.sampled_from([config.degree_budget, 300])) if not large else config.degree_budget
    return divisors, later, targets, budget


@settings(max_examples=200, deadline=None)
@given(_division_case())
def test_kept_division_index_matches_plain_list(case):
    divisors, later, targets, budget = case
    index = DivisionIndex(divisors[0].ring.order, divisors)
    old = config.degree_budget
    try:
        config.degree_budget = budget
        for plain in (divisors, divisors + later):
            for g in plain[len(index.divisors):]:
                index.add(g)
            for v in targets:
                expected = _outcome(_reference_division, v, plain, budget)
                assert _outcome(division, v, plain) == expected
                assert _outcome(division, v, index) == expected
                remainder = expected if expected == "over budget" else (None, expected[1])
                assert _outcome(division, v, index, quotients=False) == remainder
    finally:
        config.degree_budget = old


@settings(max_examples=100, deadline=None)
@given(_division_case())
def test_division_leaves_its_input_unmutated(case):
    divisors, _later, targets, _budget = case
    before = [list(v.terms.items()) for v in divisors + targets]
    index = DivisionIndex(divisors[0].ring.order, divisors)
    for v in targets:
        _outcome(division, v, divisors)
        _outcome(division, v, index, quotients=False)
    assert [list(v.terms.items()) for v in divisors + targets] == before


@pytest.mark.parametrize("R", _DIV_RINGS, ids=lambda R: repr(R.order))
def test_exponents_beyond_the_default_fields_are_never_wrapped(R):
    x, y = R.gens()
    index = DivisionIndex(R.order, [vector_from_poly(x ** 2 - y)])
    assert index._packing.width == 8
    # x^256 would wrap an 8-bit field onto x^0, which x^2 does not divide;
    # its degree widens the fields, and reducing it is over budget
    with pytest.raises(DegreeBudgetExceeded):
        division(vector_from_poly(x ** 256), index)
    assert index._packing.width == 16
    big = vector_from_poly(y ** 40000 + x)
    assert division(big, index) == ([R.zero()], big)
    assert index._packing.width == 24
    old = config.degree_budget
    try:
        config.degree_budget = 400
        v = vector_from_poly(x ** 256 * y ** 44 + x ** 3)
        expected = _reference_division(v, index.divisors, 400)
        assert expected[1] == vector_from_poly(y ** 172 + x * y)
        assert division(v, index) == expected
        assert division(v, [vector_from_poly(x ** 2 - y)]) == expected
    finally:
        config.degree_budget = old


@pytest.mark.parametrize("R", _DIV_RINGS, ids=lambda R: repr(R.order))
def test_a_divisor_tail_beyond_the_fields_repacks_and_restarts(R):
    # the leading term x has degree 1, but its tail y^100 times the
    # quotient x reaches degree 101, above the default budget 60 plus 1:
    # the index sizes its fields for the tail when g joins, so the
    # divisions run in them and none repacks
    x, y = R.gens()
    g = VectorPoly(R, [x, y ** 100])
    index = DivisionIndex(R.order, [g])
    assert index.top == 100 and index._packing.width == 16
    pk = index._packing
    v = VectorPoly(R, [x ** 2 + x * y, y ** 3])
    expected = _reference_division(v, [g], config.degree_budget)
    assert division(v, index) == expected
    assert division(v, index) == expected
    assert index.top == 100 and index._packing is pk
    assert division(v, [g]) == expected


@st.composite
def _ideal_query_case(draw):
    R = draw(st.sampled_from(_DIV_RINGS))
    small = st.lists(st.tuples(st.tuples(_SMALL_EXPONENT, _SMALL_EXPONENT), st.integers(0, 2)), max_size=4)
    gens = draw(st.lists(small.map(R.from_terms), min_size=1, max_size=3))
    # targets of degree up to 280: some widen the fields, some reduce a term
    # above the default budget and only pass under the raised one
    exponent = st.one_of(_SMALL_EXPONENT, st.sampled_from([60, 126, 140]))
    terms = st.lists(st.tuples(st.tuples(exponent, exponent), st.integers(0, 2)), max_size=5)
    targets = draw(st.lists(terms.map(R.from_terms), min_size=1, max_size=4))
    budget = draw(st.sampled_from([config.degree_budget, 300]))
    return R, gens, targets, budget


# 2xy^2 + x^3 + y^2 leads with x^3, not with its first term: the basis of
# [f, f] is f alone, which keeps its terms in their order, and the index it
# comes with must still divide by x^3
_LEAD_NOT_FIRST = _DIV_RINGS[0].from_terms([((1, 2), 2), ((3, 0), 1), ((0, 2), 1)])


@settings(max_examples=150, deadline=None)
@given(_ideal_query_case())
@example((_DIV_RINGS[0], [_LEAD_NOT_FIRST] * 2, [_DIV_RINGS[0].monomial((60, 0))], 60))
def test_ideal_queries_divide_polynomials_like_vectors(case):
    # Ideal.reduce and normal_form divide a polynomial's terms directly; the
    # result must be the slot-0 remainder of the vector division, terms in
    # the same order
    R, gens, targets, budget = case
    ideal = Ideal(R, gens)
    Q = QuotientRing(R, ideal)
    old = config.degree_budget
    try:
        config.degree_budget = budget
        basis = [vector_from_poly(g) for g in ideal.groebner()]
        index = DivisionIndex(R.order, basis)
        polys = ideal.groebner()

        def nf(f):
            return groebner.normal_form(f, polys)

        for f in targets:
            if not basis:
                assert ideal.reduce(f) is f and nf(f) is f
                continue
            expected = _outcome(division, vector_from_poly(f), index, quotients=False)
            if expected == "over budget":
                for query in (ideal.reduce, ideal.contains, Q.reduce, lambda f: groebner.reduce_in(Q, f), nf):
                    assert _outcome(query, f) == "over budget"
                continue
            expected = expected[1].components[0]
            for got in (ideal.reduce(f), Q.reduce(f), groebner.reduce_in(Q, f), nf(f)):
                assert got.ring is R and list(got.terms.items()) == list(expected.terms.items())
            assert ideal.contains(f) == expected.is_zero()
    finally:
        config.degree_budget = old


_PACK_ORDERS = (MonomialOrder("degrevlex"), MonomialOrder("lex"), MonomialOrder("block", 1), MonomialOrder("block", 2))
_PACK_RING = PolyRing(2, ("x", "y", "z"))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(_PACK_ORDERS),
    st.sampled_from([8, 16]),
    st.lists(st.tuples(st.integers(0, 2), st.tuples(st.integers(0, 60), st.integers(0, 3), st.integers(0, 60))), min_size=2, max_size=6),
)
def test_packed_terms_order_divide_and_unpack_like_tuples(order, width, terms):
    # every degree here is at most 123, within the cap of 8-bit fields
    pk = groebner._packing(order, 3, groebner._width((1 << (width - 1)) - 1))
    assert pk.width == width and pk.cap == (1 << (width - 1)) - 1
    packed = [pk.term(pos, m) for pos, m in terms]
    for (pos, m), d in zip(terms, packed):
        assert d >> pk.consts[0] == pos and pk.mono(d) == m and d & pk.consts[4] == sum(m)
    # ascending position, then descending monomial; sorts are stable
    by_mono = sorted(range(len(terms)), key=lambda i: order.key(terms[i][1]), reverse=True)
    by_key = sorted(by_mono, key=lambda i: terms[i][0])
    assert sorted(range(len(terms)), key=lambda i: packed[i]) == by_key
    guard = pk.consts[3]
    for (pos, a), e in zip(terms, packed):
        for (pos2, b), d in zip(terms, packed):
            if pos == pos2:
                assert (not (d - e) & guard) == mono_divides(a, b)
                if mono_divides(a, b):
                    assert pk.mono(d - e) == mono_div(b, a)


def _pinned_modules():
    R = PolyRing(3, ("x", "y"))
    x, y = R.gens()
    yield "rank2_f3", R, 2, [VectorPoly(R, [x, y]), VectorPoly(R, [y, x]), VectorPoly(R, [x ** 2, y ** 2])]
    S = PolyRing(5, ("x", "y"))
    x, y = S.gens()
    yield "ideal_f5", S, 1, [vector_from_poly(f) for f in (x ** 2 - y, x * y - 1, y ** 2 + x)]
    T = PolyRing(2, ("x", "y", "z"), _BLOCK)
    x, y, z = T.gens()
    zero = T.zero()
    yield "block_f2", T, 2, [VectorPoly(T, [x * y, z]), VectorPoly(T, [y * z, x]), VectorPoly(T, [zero, x * z + y ** 2])]


def _pinned_buchberger_inputs():
    R = PolyRing(3, ("x", "y", "z"))
    x, y, z = R.gens()
    yield "twisted_cubic", [vector_from_poly(f) for f in (x ** 2 - y, x * y - z, y ** 2 - x * z, x ** 3 - z)]
    S = PolyRing(7, ("t", "x", "y"), _BLOCK)
    t, x, y = S.gens()
    yield "elimination", [vector_from_poly(f) for f in (t * x - y, t ** 2 - x, t * y + 1)]
    T = PolyRing(3, ("x", "y"))
    x, y = T.gens()
    zero = T.zero()
    yield "primary_block", [VectorPoly(T, [x, y, T.one()]), VectorPoly(T, [y, zero, x]), VectorPoly(T, [x * y, x ** 2, zero])]


# name -> (basis, certificates, syzygies)
MODULE_GB_PINS = {
    "rank2_f3": (
        ["(x, y)", "(y, x)", "(0, x^2 + 2*y^2)", "(0, x*y + 2*y^2)"],
        ["(1, 0, 0)", "(0, 1, 0)", "(2*y, x, 0)", "(x, 0, 2)"],
        ["(x^2 + x*y + y^2, 2*x*y, 2*x + 2*y)"],
    ),
    "ideal_f5": (
        ["(1)"],
        ["(2*x, 2*x*y + 4, 3*x^2)"],
        [
            "(x^2 + y, x^2*y + x, 4*x^3 + 1)",
            "(x*y + 4, 4*x^2 + y, 0)",
            "(y^2 + x, 0, 4*x^2 + y)",
            "(0, y^2 + x, 4*x*y + 1)",
        ],
    ),
    "block_f2": (
        ["(x*y, z)", "(y*z, x)", "(0, x^2 + z^2)", "(0, x*y^2 + z^3)", "(0, y^2 + x*z)", "(0, y^4 + z^4)"],
        ["(1, 0, 0)", "(0, 1, 0)", "(z, x, 0)", "(z^2, x*z, x)", "(0, 0, 1)", "(z^3, x*z^2, y^2 + x*z)"],
        ["(y^2*z + x*z^2, x*y^2 + x^2*z, x^2 + z^2)"],
    ),
}

BUCHBERGER_PINS = {
    "twisted_cubic": ["(x^2 + 2*y)", "(x*y + 2*z)", "(y^2 + 2*x*z)"],
    "elimination": ["(x*y + t)", "(x^2 + 1)", "(y^2 + x)"],
    "primary_block": ["(x, y, 1)", "(y, 0, x)", "(0, x^2, 2*x^2)", "(0, y^2, 2*x^2 + y)", "(0, 0, x^4 + 2*x^2*y^2 + 2*x^2*y)"],
}


# name -> (S-pair divisions, zero remainders, the remainder of each
# division in turn: 1 for zero, 0 otherwise), measured before the pair
# queue became a heap; the normal selection order fixes all three.  In
# equal_lcm_ties pairs with one lcm wait together, and taking them in
# ascending index order would give "001011".
BUCHBERGER_SPAIR_PINS = {
    "twisted_cubic": (3, 3, "111"),
    "elimination": (7, 4, "0100111"),
    "primary_block": (3, 0, "000"),
    "equal_lcm_ties": (7, 3, "0000111"),
}


def _spair_pin_inputs():
    yield from _pinned_buchberger_inputs()
    R = PolyRing(3, ("x", "y", "z"))
    x, y, z = R.gens()
    yield "equal_lcm_ties", [vector_from_poly(f) for f in (2 * x ** 2 + 2 * y, x ** 2 * z + z ** 2, 2 * x ** 2 * z + x * z)]


def test_buchberger_spair_work_pins(monkeypatch):
    # counted the way benchmark/tracer.py counts them: by the caller's frame
    outcomes = []

    def counted(v, divisors, quotients=True):
        result = division(v, divisors, quotients)
        if sys._getframe(1).f_code.co_name == "buchberger":
            outcomes.append("1" if result[1].is_zero() else "0")
        return result

    monkeypatch.setattr(groebner, "division", counted)
    for name, vectors in _spair_pin_inputs():
        outcomes.clear()
        buchberger(vectors)
        got = (len(outcomes), outcomes.count("1"), "".join(outcomes))
        assert got == BUCHBERGER_SPAIR_PINS[name], name


def test_module_gb_and_buchberger_pins():
    for name, R, rank, gens in _pinned_modules():
        mgb = ModuleGB(R, rank, gens)
        got = tuple([repr(v) for v in vs] for vs in (mgb.basis, mgb.certificates, mgb.syzygies))
        assert got == MODULE_GB_PINS[name], name
    for name, vectors in _pinned_buchberger_inputs():
        assert [repr(v) for v in buchberger(vectors)] == BUCHBERGER_PINS[name], name


def test_explicit_order_matches_the_ring_order():
    # an order passed in overrides the ring's own inside each component too
    plain = PolyRing(2, ("x", "y", "z"))
    x, y, z = plain.gens()
    assert leading_term(VectorPoly(plain, [y ** 2 + x * z]), _BLOCK) == (0, (1, 0, 1), 1)
    got = []
    for R, order in ((plain, _BLOCK), (PolyRing(2, ("x", "y", "z"), _BLOCK), None)):
        x, y, z = R.gens()
        gens = [VectorPoly(R, [x * y, z]), VectorPoly(R, [y * z, x]), VectorPoly(R, [R.zero(), x * z + y ** 2])]
        got.append([repr(v) for v in buchberger(gens, order=order)])
    assert got[0] == got[1]


# ---------------------------------------------------------------------------
# kernels and lifts modulo a submodule: only the generators carry unit
# tails, and the answers agree with a full-tail basis of generators + modulo

_MOD_S = PolyRing(3, ("x", "y"))
_MOD_CUSP = QuotientRing(_MOD_S, [_MOD_S.var(1) ** 2 - _MOD_S.var(0) ** 3])
_MOD_MONOMIALS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
_mod_entry = st.lists(
    st.tuples(st.sampled_from(_MOD_MONOMIALS), st.integers(1, 2)), max_size=2
).map(_MOD_S.from_terms)


@st.composite
def _modulo_case(draw):
    # over F_3[x,y], or over the cusp through its modulus tails
    ring = draw(st.sampled_from([_MOD_S, _MOD_CUSP]))
    rank = draw(st.integers(1, 2))
    vec = st.lists(_mod_entry, min_size=rank, max_size=rank).map(lambda comps: VectorPoly(_MOD_S, comps))
    gens = draw(st.lists(vec, min_size=1, max_size=3))
    modulo = draw(st.lists(vec, max_size=3)) + groebner.modulus_tails(ring, rank)
    coeffs = draw(st.lists(_mod_entry, min_size=len(gens), max_size=len(gens)))
    targets = draw(st.lists(vec, max_size=2))
    # a member by construction: a combination of the generators plus an
    # element of span(modulo)
    member = groebner.combine(gens, VectorPoly(_MOD_S, coeffs).terms.items(), _MOD_S, rank)
    if modulo:
        k = draw(st.integers(0, len(modulo) - 1))
        shift = VectorPoly(_MOD_S, [draw(_mod_entry)]).terms.items()
        member = member + groebner.combine([modulo[k]], shift, _MOD_S, rank)
    return rank, gens, modulo, targets + [member], coeffs


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_modulo_case())
def test_module_gb_modulo_matches_full_tails(case):
    rank, gens, modulo, targets, coeffs = case
    S, k = _MOD_S, len(gens)
    mgb = ModuleGB(S, rank, gens, modulo=modulo)
    full = ModuleGB(S, rank, gens + modulo)
    assert mgb.basis == full.basis
    assert all(s.rank == k for s in mgb.syzygies)
    assert all(c.rank == k for c in mgb.certificates)
    # the syzygies span what the heads of the full-tail syzygies span
    heads = [VectorPoly(S, s.components[:k]) for s in full.syzygies]
    assert groebner.reduced_basis(S, k, mgb.syzygies).basis == groebner.reduced_basis(S, k, heads).basis
    span = groebner.reduced_basis(S, rank, modulo)
    for c in mgb.syzygies:
        assert span.contains(groebner.combine(gens, c.terms.items(), S, rank))
    # and they span the whole kernel: the Koszul syzygies of an ideal's
    # generators lie in it, and so does the difference of two lifts below
    kernel = groebner.reduced_basis(S, k, mgb.syzygies)
    if rank == 1:
        for i in range(k):
            for j in range(i + 1, k):
                koszul = [S.zero()] * k
                koszul[i], koszul[j] = gens[j].components[0], -gens[i].components[0]
                assert kernel.contains(VectorPoly(S, koszul))
    # a lift expresses v in the generators up to an element of span(modulo)
    for v in targets:
        lift = mgb.lift(v)
        assert (lift is None) == (full.lift(v) is None)
        if lift is not None:
            assert lift.rank == k
            assert span.contains(v - groebner.combine(gens, lift.terms.items(), S, rank))
    lifted = mgb.lift(targets[-1])
    assert lifted is not None
    assert kernel.contains(VectorPoly(S, coeffs) - lifted)
