"""Frobenius pushforwards, bracket powers, p-bases, the trace generator."""

import random

import pytest

from fpduality.errors import AlgebraError, NoPBasis, SizeCapExceeded
from fpduality.config import config
from fpduality.duality import verify_frobenius_duality
from fpduality.frobenius import (
    CoordinateSolver,
    Pushforward,
    bracket_power,
    bracket_power_complex,
    frobenius_decompose,
    frobenius_pushforward,
    generates_freely,
    is_p_basis,
    is_p_generating,
    pbasis_trace_generator,
    pushforward_basis,
    pushforward_complex,
    regrouping_map,
    restricted_monomials,
)
from fpduality.groebner import Ideal, QuotientRing, VectorPoly, unit_vector, vector_from_poly, vector_of
from fpduality.modules import (
    FPModule,
    cyclic_module,
    generic_rank,
    hom_module,
    ideal_module,
    is_isomorphism,
    exterior_power,
)
from fpduality.complexes import koszul_complex, rank_one_complex
from fpduality.polyring import PolyRing


def ring(p, *names):
    return PolyRing(p, names)


def elliptic():
    amb = ring(2, "x", "y")
    x, y = amb.gens()
    curve = y ** 2 + x * y + y + x ** 3 + x + 1
    return amb, QuotientRing(amb, [curve])


class TestBracketPower:
    def test_principal(self):
        R = ring(2, "x")
        x = R.var("x")
        assert bracket_power(Ideal(R, [x]), 1).equals(Ideal(R, [x ** 2]))

    def test_freshman(self):
        R = ring(2, "x", "y")
        x, y = R.gens()
        assert bracket_power(Ideal(R, [x + y]), 1).equals(Ideal(R, [x ** 2 + y ** 2]))

    def test_level_two(self):
        R = ring(2, "x", "y")
        x, y = R.gens()
        assert bracket_power(Ideal(R, [x, y]), 2).equals(Ideal(R, [x ** 4, y ** 4]))

    def test_generator_independence(self):
        # over a polynomial ring the bracket power is generator independent
        rng = random.Random(1)
        R = ring(3, "x", "y")
        x, y = R.gens()
        I = Ideal(R, [x ** 2 + y, x * y])
        ref = bracket_power(I, 1)
        for _ in range(5):
            # random alternative generating set of the same ideal
            a = R.monomial((rng.randint(0, 1), rng.randint(0, 1)), rng.randint(1, 2))
            g1 = I.gens[0] + a * I.gens[1]
            alt = Ideal(R, [g1, I.gens[1], I.gens[0]])
            assert alt.equals(I)
            assert bracket_power(alt, 1).equals(ref)


class TestDecompose:
    def test_roundtrip_randomized(self):
        rng = random.Random(2)
        for p in (2, 3, 5):
            R = ring(p, "x", "y")
            for _ in range(40):
                f = R.zero()
                for _ in range(rng.randint(0, 5)):
                    f = f + R.monomial(
                        (rng.randint(0, 6), rng.randint(0, 6)), rng.randint(1, p - 1)
                    )
                for e in (1, 2):
                    parts = frobenius_decompose(f, e)
                    q = p ** e
                    acc = R.zero()
                    for a, va in parts.items():
                        assert all(c < q for c in a)
                        acc = acc + (va ** q) * R.monomial(a)
                    assert acc == f


class TestPushforward:
    def test_polynomial_line_free(self):
        R = ring(2, "x")
        F = frobenius_pushforward(R, 1)
        assert F.module.ngens == 2
        assert not F.module.relations
        assert F.index.labels == [((0,), 0), ((1,), 0)]

    def test_labels_are_monomial_major(self):
        R = ring(2, "x")
        assert pushforward_basis(R, 1, 2).labels == [((0,), 0), ((0,), 1), ((1,), 0), ((1,), 1)]
        F = frobenius_pushforward(R, 2)
        assert F.index.labels == [(b, 0) for b in restricted_monomials(1, 4)] and F.module.ngens == len(F.index)

    def test_dual_numbers(self):
        # F_* of F_2[x]/(x^2) is (R/x)^2: x kills both generators
        amb = ring(2, "x")
        x = amb.var("x")
        A = QuotientRing(amb, [x ** 2])
        F = frobenius_pushforward(A, 1)
        M = F.module
        assert M.ngens == 2
        for i in range(2):
            assert M.element_is_zero(M.gen(i).mul_term((1,), 1))
            assert not M.element_is_zero(M.gen(i))

    def test_elliptic_rank_two(self):
        _amb, R = elliptic()
        F = frobenius_pushforward(R, 1)
        assert generic_rank(F.module) == 2

    def test_size_cap(self):
        R = ring(2, "a", "b", "c", "d")
        old = config.size_cap
        config.size_cap = 100
        try:
            with pytest.raises(SizeCapExceeded):
                frobenius_pushforward(R, 2)
        finally:
            config.size_cap = old

    def test_functoriality_regrouping(self):
        amb = ring(2, "x")
        x = amb.var("x")
        A = QuotientRing(amb, [x ** 3])
        f = regrouping_map(A, 1)
        assert is_isomorphism(f)


class TestExponentGuard:
    """A level e of Frobenius is an integer e >= 0; any other is refused
    with a typed error."""

    @pytest.mark.parametrize("e", [-1, 1.5, 2.0], ids=["negative", "fraction", "float"])
    def test_decompose_and_bracket_powers_refuse(self, e):
        R = ring(3, "x", "y")
        x, y = R.gens()
        with pytest.raises(AlgebraError):
            frobenius_decompose(x ** 12 * y ** 3 + 2 * y ** 9, e)
        with pytest.raises(AlgebraError):
            bracket_power(Ideal(R, [x + y]), e)
        with pytest.raises(AlgebraError):
            bracket_power_complex(koszul_complex(R, [x, y]), e)

    @pytest.mark.parametrize("e", [-1, 1.5, 2.0], ids=["negative", "fraction", "float"])
    def test_pushforwards_refuse(self, e):
        R = ring(3, "x", "y")
        with pytest.raises(AlgebraError):
            frobenius_pushforward(R, e)
        with pytest.raises(AlgebraError):
            Pushforward(cyclic_module(R, [R.var("x")]), e)
        with pytest.raises(AlgebraError):
            pushforward_complex(koszul_complex(R, list(R.gens())), e)

    def test_level_zero_is_the_identity(self):
        R = ring(3, "x", "y")
        x, y = R.gens()
        assert frobenius_decompose(x * y + 1, 0) == {(0, 0): x * y + 1}
        F = frobenius_pushforward(R, 0)
        assert F.index.labels == [((0, 0), 0)] and F.module.ngens == 1

    def test_duality_refuses(self):
        amb = ring(2, "x")
        with pytest.raises(AlgebraError):
            verify_frobenius_duality(QuotientRing(amb, [amb.var("x") ** 2]), -1)


def _plane_curve(p, equation):
    amb = ring(p, "x", "y")
    return QuotientRing(amb, [equation(*amb.gens())])


# (ring, e): the cusp over F_3 at e = 1, the crossing lines over F_2 at e = 2
PROPERTY_RINGS = [
    (_plane_curve(3, lambda x, y: y ** 2 - x ** 3), 1),
    (_plane_curve(2, lambda x, y: x * y), 2),
]


def _random_poly(pick, amb):
    return amb.from_terms([((pick(0, 2), pick(0, 2)), pick(1, amb.p - 1)) for _ in range(pick(0, 2))])


def _random_presentation(pick, R):
    """A module over R on 1-2 generators with up to 2 relations."""
    amb = R.ambient
    m = pick(1, 2)
    return FPModule(R, m, [VectorPoly(amb, [_random_poly(pick, amb) for _ in range(m)]) for _ in range(pick(0, 2))])


def _random_vector(pick, M):
    """A vector of M: a combination of its relations, zero in M, then
    perhaps a random vector added."""
    amb = M.ambient
    v = vector_of(amb, M.ngens, ())
    for r in M.relations:
        v = v + r.mul_term((pick(0, 2), pick(0, 2)), pick(0, amb.p - 1))
    if pick(0, 1):
        v = v + vector_of(amb, M.ngens, [(pick(0, M.ngens - 1), _random_poly(pick, amb))])
    return v


def _check_pushforward_object(pick):
    R, e = PROPERTY_RINGS[pick(0, 1)]
    amb = R.ambient
    M = _random_presentation(pick, R)
    F = Pushforward(M, e)
    assert len(F.index) == F.module.ngens
    for k, (b, j) in enumerate(F.index.labels):
        assert F.coords(unit_vector(amb, M.ngens, j).mul_term(b, 1)) == unit_vector(amb, len(F.index), k)
    for _ in range(3):
        v = _random_vector(pick, M)
        assert F.module.element_is_zero(F.coords(v)) == M.element_is_zero(v)


class TestPushforwardObject:
    """coords sends x^b e_j to the generator labelled (b, j); F^e_* is
    exact and faithful, so a vector is zero in M exactly when its
    coordinates are zero in F^e_* M."""

    def test_coords_and_zero_test_on_seeded_presentations(self):
        pick = random.Random(36).randint
        for _ in range(12):
            _check_pushforward_object(pick)

    def test_coords_and_zero_test_under_hypothesis(self):
        hypothesis = pytest.importorskip("hypothesis", reason="hypothesis is not installed; the seeded test still runs")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=12, deadline=None, derandomize=True)
        @hypothesis.given(st.data())
        def check(data):
            _check_pushforward_object(lambda lo, hi: data.draw(st.integers(lo, hi)))

        check()


class TestPGenerating:
    def test_polynomial_variables(self):
        R = ring(2, "x", "y")
        assert is_p_generating(R, list(R.gens()))

    def test_missing_variable(self):
        R = ring(2, "x", "y")
        assert not is_p_generating(R, [R.var("x")])

    def test_parabola_single_generator(self):
        amb = ring(2, "x", "y")
        x, y = amb.gens()
        A = QuotientRing(amb, [y ** 2 + x])  # x = y^2 is a square
        assert is_p_generating(A, [amb.var("y")])

    def test_p_basis_line(self):
        R = ring(2, "x")
        assert is_p_basis(R, [R.var("x")])

    def test_dual_numbers_not_reduced(self):
        amb = ring(2, "x")
        A = QuotientRing(amb, [amb.var("x") ** 2])
        assert is_p_generating(A, [amb.var("x")])
        assert not is_p_basis(A, [amb.var("x")])

    def test_elliptic_no_single_pbasis(self):
        # refute a finite candidate list, per the determinant route
        amb, R = elliptic()
        x, y = amb.gens()
        for cand in ([x], [y], [x + y], [x + 1], [y + 1], [x + y + 1]):
            assert not is_p_basis(R, cand)

    def test_xs_coordinates(self):
        # c_a with u = sum c_a^2 x^a0 y^a1, a below 2
        amb = ring(2, "x", "y")
        x, y = amb.gens()
        coords = CoordinateSolver(amb, [x, y]).solve(x ** 3 * y + x)
        acc = amb.zero()
        for a, c in coords.items():
            acc = acc + (c ** 2) * (x ** a[0]) * (y ** a[1])
        assert acc == x ** 3 * y + x


class TestTraceGenerator:
    def test_line_char2(self):
        R = ring(2, "x")
        omega = rank_one_complex(R, -1)
        phi = pbasis_trace_generator(R, [R.var("x")], omega)
        # evaluation table: F_*x -> dx, F_*1 -> 0
        assert restricted_monomials(1, 2) == [(0,), (1,)] and len(phi.columns) == 2
        assert phi.columns[0].components[0].is_zero()
        assert phi.columns[1].components[0] == R.one()

        def value(c):
            # phi(F_*(x^c)) = x^(c // 2) phi(F_*(x^(c mod 2)))
            return phi.columns[c[0] % 2].components[0] * R.monomial((c[0] // 2,))

        assert generates_freely(R, restricted_monomials(1, 2), value)

    def test_line_char3(self):
        R = ring(3, "x")
        omega = rank_one_complex(R, -1)
        phi = pbasis_trace_generator(R, [R.var("x")], omega)
        assert restricted_monomials(1, 3) == [(0,), (1,), (2,)] and len(phi.columns) == 3
        vals = [c.components[0] for c in phi.columns]
        assert vals[0].is_zero() and vals[1].is_zero()
        assert vals[2] == R.one()

    def test_plane_char2(self):
        R = ring(2, "x", "y")
        omega = rank_one_complex(R, -2)
        phi = pbasis_trace_generator(R, list(R.gens()), omega)
        for a, col in zip(restricted_monomials(2, 2), phi.columns):
            if a == (1, 1):
                assert col.components[0] == R.one()
            else:
                assert col.components[0].is_zero()

    def test_requires_p_basis(self):
        amb = ring(2, "x")
        A = QuotientRing(amb, [amb.var("x") ** 2])
        omega = rank_one_complex(A, -1)
        with pytest.raises(NoPBasis):
            pbasis_trace_generator(A, [amb.var("x")], omega)

    def test_generates_freely_on_the_line(self):
        # over F_2[x], F_*(x^c) = x^(c // 2) F_*(x^(c mod 2)): the trace
        # sends it to x^(c // 2) for odd c and to 0 for even c
        R = ring(2, "x")
        x = R.var("x")

        def trace(c):
            return R.monomial((c[0] // 2,)) if c[0] % 2 else R.zero()

        tuples = [(0,), (1,)]
        assert generates_freely(R, tuples, trace)
        assert not generates_freely(R, tuples, lambda c: R.zero())
        assert not generates_freely(R, tuples, lambda c: x * trace(c))

    def test_other_projections_by_premultiplication(self):
        # Hom(F_*R, omega) is free over F_*R on Phi: each coordinate
        # projection equals Phi after multiplying by a basis monomial
        R = ring(2, "x")
        x = R.var("x")
        F = frobenius_pushforward(R, 1)
        omega = rank_one_complex(R, -1)
        phi = pbasis_trace_generator(R, [x], omega)
        # F_*u -> F_*(x u) on the basis monomials
        mult_cols = [F.coords(vector_from_poly(x.mul_term(a, 1))) for a, _j in F.index.labels]
        comp = [phi.columns[j] for j in range(2)]
        # projection onto F_*1: precompose Phi with multiplication by x
        proj_cols = [
            phi.apply_coords(mult_cols[j]) for j in range(2)
        ]
        assert proj_cols[0].components[0] == R.one()
        assert proj_cols[1].components[0].is_zero()


class TestEllipticDeterminant:
    def test_lambda2_iso_to_point_ideal(self):
        # det F_*R = Q, certified by an explicit map found among the
        # generators of the Hom module
        amb, R = elliptic()
        x, y = amb.gens()
        F = frobenius_pushforward(R, 1)
        L = exterior_power(F.module, 2)
        Q = ideal_module(R, [x + 1, y + 1])
        H = hom_module(L, Q)
        found = None
        for i in range(H.ngens):
            cand = H.decode(i)
            if is_isomorphism(cand):
                found = cand
                break
        assert found is not None

    def test_pushforward_not_free_on_monomials(self):
        amb, R = elliptic()
        assert not is_p_basis(R, list(amb.gens()))
