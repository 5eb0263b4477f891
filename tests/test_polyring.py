"""Base arithmetic: F_p, polynomials, monomial orders, ring maps."""

import random

import pytest

from fpduality.errors import AlgebraError, RingMismatch, ZeroInverse
from fpduality.fp import inv_mod
from fpduality.polyring import (
    DEGREVLEX,
    LEX,
    MonomialOrder,
    PolyRing,
    RingMap,
    poly_str,
)
from fpduality.groebner import QuotientRing


def ring(p, *names, order=None):
    return PolyRing(p, names, order)


def rand_poly(rng, R, max_deg=3, max_terms=4):
    f = R.zero()
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(R.nvars))
        f = f + R.monomial(exps, rng.randint(1, R.p - 1))
    return f


class TestFp:
    def test_inverse_identity(self):
        assert inv_mod(1, 5) == 1

    def test_inverse_small(self):
        assert inv_mod(2, 5) == 3

    def test_inverse_exhaustive_oracle(self):
        # oracle: search all residues for the inverse; a + p is the same residue
        for p in (3, 5, 7, 11):
            for a in range(1, p):
                expect = next(b for b in range(1, p) if a * b % p == 1)
                assert inv_mod(a, p) == expect
                assert inv_mod(a + p, p) == expect
        assert inv_mod(3, 7) == 5

    def test_zero_inverse_raises(self):
        for a in (0, 10):
            with pytest.raises(ZeroInverse):
                inv_mod(a, 5)

    def test_non_prime_rejected(self):
        with pytest.raises(AlgebraError):
            PolyRing(6, ("x",))


class TestPolynomialArithmetic:
    def test_freshman_dream_char2(self):
        R = ring(2, "x", "y")
        x, y = R.gens()
        assert (x + y) ** 2 == x ** 2 + y ** 2

    def test_char3_product(self):
        R = ring(3, "x")
        x = R.var("x")
        assert (x + 1) * (x - 1) == x ** 2 + R.const(2)

    def test_binomial_oracle_p5(self):
        # oracle: expand (x+y)^5 via integer binomials reduced mod 5
        R = ring(5, "x", "y")
        x, y = R.gens()
        from math import comb

        expect = R.zero()
        for k in range(6):
            c = comb(5, k) % 5
            if c:
                expect = expect + R.monomial((5 - k, k), c)
        assert (x + y) ** 5 == expect
        assert (x + y) ** 5 == x ** 5 + y ** 5

    def test_canonical_form_cancellation(self):
        R = ring(3, "x", "y")
        x, y = R.gens()
        f = x * y + y ** 2
        assert (f + (-f)).is_zero()
        assert (f - f).terms == {}

    def test_frobenius_identity_randomized(self):
        rng = random.Random(20260810)
        cases = 0
        for p in (2, 3, 5, 7):
            R = ring(p, "x", "y")
            while cases % 250 != 249:
                f = rand_poly(rng, R)
                g = rand_poly(rng, R)
                assert (f + g) ** p == f ** p + g ** p
                assert (f * g) ** p == (f ** p) * (g ** p)
                cases += 1
            cases += 1
        assert cases >= 1000

    def test_ring_mismatch(self):
        R1 = ring(2, "x")
        R2 = ring(3, "x")
        with pytest.raises(RingMismatch):
            R1.var("x") + R2.var("x")

    def test_pow_repeated_squaring_matches_naive(self):
        R = ring(7, "x", "y")
        f = R.var("x") + R.var("y") ** 2 + R.const(3)
        naive = R.one()
        for _ in range(6):
            naive = naive * f
        assert f ** 6 == naive

    def test_derivative_mod_p(self):
        R = ring(3, "x")
        x = R.var("x")
        assert (x ** 3).derivative(0).is_zero()
        assert (x ** 4).derivative(0) == x ** 3


class TestMonomialOrders:
    def test_degrevlex_classic(self):
        # x^2 y > x y^2 and x y z > z^3 hold in degrevlex
        key = DEGREVLEX.key
        assert key((2, 1, 0)) > key((1, 2, 0))
        assert key((1, 1, 1)) > key((0, 0, 3))

    def test_lex(self):
        key = LEX.key
        assert key((1, 0, 0)) > key((0, 5, 5))

    def test_block_eliminates_first_variables(self):
        order = MonomialOrder("block", 1)
        key = order.key
        # any monomial containing the first variable beats any without it
        assert key((1, 0)) > key((0, 9))

    def test_totality_and_multiplicativity(self):
        rng = random.Random(11)
        for order in (DEGREVLEX, LEX, MonomialOrder("block", 2)):
            key = order.key
            for _ in range(300):
                a = tuple(rng.randint(0, 4) for _ in range(3))
                b = tuple(rng.randint(0, 4) for _ in range(3))
                c = tuple(rng.randint(0, 4) for _ in range(3))
                if key(a) == key(b):
                    assert a == b
                if key(a) < key(b):
                    ac = tuple(x + y for x, y in zip(a, c))
                    bc = tuple(x + y for x, y in zip(b, c))
                    assert key(ac) < key(bc)

    def test_well_ordering_bounded(self):
        # 1 is the minimum among all monomials of degree <= 3
        key = DEGREVLEX.key
        monos = [
            (i, j, k)
            for i in range(4)
            for j in range(4)
            for k in range(4)
            if i + j + k <= 3
        ]
        assert min(monos, key=key) == (0, 0, 0)


class TestRingMap:
    def test_identity(self):
        R = ring(2, "x")
        x = R.var("x")
        phi = RingMap(R, R, R.gens())
        assert phi.apply(x ** 2 + x) == x ** 2 + x

    def test_substitution(self):
        S = ring(2, "X")
        R = ring(2, "x")
        x = R.var("x")
        phi = RingMap(S, R, [x ** 2])
        assert phi(S.var("X") + S.one()) == x ** 2 + R.one()

    def test_gabber_style_map(self):
        # phi on R[X]/(X^2 - x): X -> x and r -> r^2, checked by substitution
        R = ring(2, "x")
        x = R.var("x")
        amb = ring(2, "x", "X")
        Rp = QuotientRing(amb, [amb.var("X") ** 2 - amb.var("x")])
        phi = RingMap(Rp, R, [x ** 2, x])
        f = amb.var("X") + amb.var("x")
        assert phi(f) == x + x ** 2

    def test_well_definedness_enforced(self):
        amb = ring(2, "x")
        A = QuotientRing(amb, [amb.var("x") ** 2])
        R = ring(2, "t")
        with pytest.raises(AlgebraError):
            RingMap(A, R, [R.var("t")])  # t^2 != 0 in F2[t]

    def test_hom_laws_randomized(self):
        rng = random.Random(7)
        S = ring(3, "u", "v")
        R = ring(3, "x")
        x = R.var("x")
        phi = RingMap(S, R, [x + 1, x ** 2])
        for _ in range(200):
            f = rand_poly(rng, S)
            g = rand_poly(rng, S)
            assert phi(f + g) == phi(f) + phi(g)
            assert phi(f * g) == phi(f) * phi(g)


class TestPrinting:
    def test_canonical_string(self):
        R = ring(5, "x", "y")
        x, y = R.gens()
        f = y + x ** 2 * y + R.const(3)
        assert poly_str(f) == "x^2*y + y + 3"

    def test_zero(self):
        R = ring(2, "x")
        assert poly_str(R.zero()) == "0"
