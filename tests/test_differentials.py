"""Kaehler differentials and canonical volume complexes."""

import random

import pytest

from fpduality.differentials import KahlerModule, canonical_omega_regular
from fpduality.errors import NotCertifiedRegular
from fpduality.groebner import QuotientRing, VectorPoly, combine
from fpduality.modules import ModuleMap, free_module, is_isomorphism
from fpduality.polyring import PolyRing


def ring(p, *names):
    return PolyRing(p, names)


def rand_poly(rng, R, max_deg=3):
    f = R.zero()
    for _ in range(rng.randint(0, 4)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(R.nvars))
        f = f + R.monomial(exps, rng.randint(1, R.p - 1))
    return f


class TestKahler:
    def test_line_free(self):
        R = ring(2, "x")
        K = KahlerModule(R)
        assert K.module.ngens == 1
        assert not K.module.relations

    def test_cuspidal_relation_char2(self):
        amb = ring(2, "x", "y")
        x, y = amb.gens()
        A = QuotientRing(amb, [y ** 2 + x ** 3])
        K = KahlerModule(A)
        # d(y^2 + x^3) = 3x^2 dx = x^2 dx in char 2
        assert K.jacobian[0].components[0] == x ** 2
        assert K.jacobian[0].components[1].is_zero()

    def test_char3_cube_gives_free_module(self):
        amb = ring(3, "x")
        A = QuotientRing(amb, [amb.var("x") ** 3])
        K = KahlerModule(A)
        # 3x^2 = 0 mod 3: Omega is free of rank 1 over A
        assert all(r.components[0].is_zero() for r in K.jacobian)
        f = ModuleMap(free_module(A, 1), K.module, [K.module.gen(0)])
        assert is_isomorphism(f)

    def test_leibniz_randomized(self):
        rng = random.Random(17)
        amb = ring(3, "x", "y")
        A = QuotientRing(amb, [amb.var("x") * amb.var("y")])
        K = KahlerModule(A)
        for _ in range(60):
            f = rand_poly(rng, amb)
            g = rand_poly(rng, amb)
            lhs = K.d(f * g)
            dg, df = K.d(g), K.d(f)
            rhs = K.module.nf(combine([dg, df], VectorPoly(amb, [f, g]).terms.items(), amb, dg.rank))
            assert K.module.element_is_zero(lhs - rhs)

    def test_d_of_pth_power_vanishes(self):
        rng = random.Random(18)
        for p in (2, 3, 5):
            R = ring(p, "x", "y")
            K = KahlerModule(R)
            for _ in range(30):
                f = rand_poly(rng, R)
                assert K.d(f ** p).is_zero()


class TestCanonicalOmega:
    def test_line(self):
        R = ring(2, "x")
        om = canonical_omega_regular(R)
        assert om.n == 1
        assert om.degree == -1
        assert om.generator_label == "dx"

    def test_plane(self):
        R = ring(2, "x", "y")
        om = canonical_omega_regular(R)
        assert om.degree == -2
        assert om.generator_label == "dx^dy"

    def test_gabber_step_ring(self):
        # F_2[x,X]/(X^2 - x) has p-basis (X); omega is rank one in degree -1
        amb = ring(2, "x", "X")
        x, X = amb.gens()
        R = QuotientRing(amb, [X ** 2 + x])
        om = canonical_omega_regular(R, p_basis=[X])
        assert om.n == 1
        assert om.degree == -1
        assert om.generator_label == "dX"

    def test_quotient_requires_certificate(self):
        amb = ring(2, "x")
        A = QuotientRing(amb, [amb.var("x") ** 2])
        with pytest.raises(NotCertifiedRegular):
            canonical_omega_regular(A)

    def test_point(self):
        F2 = ring(2)
        om = canonical_omega_regular(F2)
        assert om.n == 0
        assert om.degree == 0
