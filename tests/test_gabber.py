"""Gabber tower stages, kernel bracket identities, tuple extension."""

import random

import pytest

from fpduality.errors import AlgebraError, NotPGenerating
from fpduality.frobenius import CoordinateSolver, bracket_power
from fpduality.gabber import (
    extend_pgens_check,
    gabber_step,
    gabber_truncation,
    ring_map_is_surjective,
    verify_kernel_bracket,
)
from fpduality.groebner import Ideal, QuotientRing, ambient_of, are_inverse, elimination_kernel, rename_poly
from fpduality.polyring import PolyRing, RingMap


def ring(p, *names):
    return PolyRing(p, names)


def phi_inverse_for_pbasis(stage):
    """Inverse of phi: R' -> R when the tuple is a p-basis of reduced R.

    Sends each base variable through its p-th-root expansion in the tuple;
    returns the certified inverse RingMap or None."""
    R = stage.base
    amb = ambient_of(R)
    R1 = stage.ring
    amb1 = ambient_of(R1)
    n0 = amb.nvars
    coordinates = CoordinateSolver(R, stage.phi.images[n0:])
    images = []
    for i in range(n0):
        coords = coordinates.solve(amb.var(i))
        if coords is None:
            return None
        acc = amb1.zero()
        for a, c in coords.items():
            term = rename_poly(c, amb1, list(range(n0)))
            for j, k in enumerate(a):
                if k:
                    root = amb1.var(n0 + j)
                    term = term * (root ** k)
            acc = acc + term
        images.append(R1.reduce(acc))
    try:
        rho = RingMap(R, R1, images, check=True)
    except AlgebraError:
        return None
    return rho if are_inverse(rho, stage.phi) else None


class TestGabberStep:
    def test_prime_field_with_unit(self):
        # R = F_2, tuple (1): R' = F_2[X]/((X-1)^2)
        F2 = ring(2)
        stage = gabber_step(F2, [F2.one()])
        R1 = stage.ring
        amb = R1.ambient
        X = amb.var(0)
        assert R1.reduce((X + 1) ** 2).is_zero()
        assert not R1.reduce(X + 1).is_zero()

    def test_line(self):
        # R = F_2[x], tuple (x): R' = F_2[x,X]/(X^2-x), phi an isomorphism
        R = ring(2, "x")
        stage = gabber_step(R, [R.var("x")])
        assert not elimination_kernel(stage.iota).groebner()
        rho = phi_inverse_for_pbasis(stage)
        assert rho is not None

    def test_dual_numbers(self):
        amb = ring(2, "x")
        x = amb.var("x")
        A = QuotientRing(amb, [x ** 2])
        stage = gabber_step(A, [A.reduce(x)])
        R1 = stage.ring
        big = R1.ambient
        X = big.var(1)
        assert R1.reduce(X ** 2 + big.var(0)).is_zero()
        assert stage.phi.apply(X) == A.reduce(x)

    def test_frobenius_identities_random_samples(self):
        rng = random.Random(31)
        R = ring(3, "x")
        stage = gabber_step(R, [R.var("x")])
        samples = []
        for _ in range(100):
            f = R.zero()
            for _ in range(rng.randint(0, 3)):
                f = f + R.monomial((rng.randint(0, 4),), rng.randint(1, 2))
            samples.append(f)
        assert stage.check_frobenius_identities(samples)

    def test_not_p_generating(self):
        R = ring(2, "x", "y")
        with pytest.raises(NotPGenerating):
            gabber_step(R, [R.var("x")])

    def test_phi_not_iso_when_not_reduced(self):
        amb = ring(2, "x")
        A = QuotientRing(amb, [amb.var("x") ** 2])
        stage = gabber_step(A, [A.reduce(amb.var("x"))])
        assert phi_inverse_for_pbasis(stage) is None


class TestTruncation:
    def test_level_zero_is_the_base(self):
        # no stage: the tower is R itself, on the tuple it was given
        amb = ring(3, "x", "y")
        x, y = amb.gens()
        R = QuotientRing(amb, [y ** 2 - x ** 3])
        xs = [R.reduce(x), R.reduce(y)]
        tower = gabber_truncation(R, xs, 0)
        assert tower.ring is R
        assert tower.level == 0 and tower.stages == []
        assert tower.pbasis_images == xs

    def test_power_series_truncation_level2(self):
        # G(F_2; 0)/I^{[4]} = F_2[X]/(X^4), via eliminating the tower
        F2 = ring(2)
        tower = gabber_truncation(F2, [F2.zero()], 2)
        Re = tower.ring
        S = ring(2, "Y")
        top = tower.pbasis_images[0]
        phi = RingMap(S, Re, [top], check=False)
        ker = elimination_kernel(phi)
        Y = S.var("Y")
        assert ker.equals(Ideal(S, [Y ** 4]))

    def test_char3_shifted_point(self):
        # G(F_3; 1) truncated at level 1: F_3[X]/((X-1)^3)
        F3 = ring(3)
        tower = gabber_truncation(F3, [F3.one()], 1)
        S = ring(3, "Y")
        phi = RingMap(S, tower.ring, [tower.pbasis_images[0]], check=False)
        ker = elimination_kernel(phi)
        Y = S.var("Y")
        assert ker.equals(Ideal(S, [(Y - 1) ** 3]))

    def test_truncation_coherence(self):
        # R_e modulo the image of I^{[p^{e'}]} recovers R_{e'} for e' <= e:
        # here e=2, e'=1 for the tower over F_2
        F2 = ring(2)
        t2 = gabber_truncation(F2, [F2.zero()], 2)
        t1 = gabber_truncation(F2, [F2.zero()], 1)
        S = ring(2, "Y")
        # kernel of S -> R_2/(X^{[2]}-image): collapse by adding X1_1 = 0...
        # realized by comparing elimination kernels: X^2 at level 1
        phi2 = RingMap(S, t2.ring, [t2.pbasis_images[0]], check=False)
        k2 = elimination_kernel(phi2)
        phi1 = RingMap(S, t1.ring, [t1.pbasis_images[0]], check=False)
        k1 = elimination_kernel(phi1)
        Y = S.var("Y")
        assert k2.equals(Ideal(S, [Y ** 4]))
        assert k1.equals(Ideal(S, [Y ** 2]))
        # the level-1 kernel is the bracket of the level-0 one
        assert k1.equals(bracket_power(Ideal(S, [Y]), 1))
        assert k2.equals(bracket_power(Ideal(S, [Y]), 2))


class TestKernelBracket:
    def test_point(self):
        S = ring(2, "X")
        F2 = ring(2)
        pi = RingMap(S, F2, [F2.zero()])
        assert verify_kernel_bracket(S, pi, 0)
        assert verify_kernel_bracket(S, pi, 1)
        assert verify_kernel_bracket(S, pi, 2)

    def test_dual_numbers_two_variables(self):
        S = ring(2, "X", "Y")
        amb = ring(2, "x")
        A = QuotientRing(amb, [amb.var("x") ** 2])
        pi = RingMap(S, A, [A.reduce(amb.var("x")), A.zero()])
        assert verify_kernel_bracket(S, pi, 1)
        assert verify_kernel_bracket(S, pi, 2)

    def test_char3_point(self):
        S = ring(3, "X")
        F3 = ring(3)
        pi = RingMap(S, F3, [F3.zero()])
        assert verify_kernel_bracket(S, pi, 1)
        assert verify_kernel_bracket(S, pi, 2)

    def test_surjectivity_detected(self):
        S = ring(2, "X")
        R = ring(2, "x")
        pi = RingMap(S, R, [R.var("x") ** 2])
        assert not ring_map_is_surjective(pi)

    def test_tower_stage_lemma_instance(self):
        # ker(psi) = ker(phi o psi)^{[p]} for S -> R_1 -> R over the
        # dual numbers
        amb = ring(2, "x")
        A = QuotientRing(amb, [amb.var("x") ** 2])
        tower = gabber_truncation(A, [A.reduce(amb.var("x"))], 1)
        S = ring(2, "X")
        psi = RingMap(S, tower.ring, [tower.pbasis_images[0]], check=False)
        composite = RingMap(S, A, [A.reduce(amb.var("x"))], check=False)
        ker_psi = elimination_kernel(psi)
        ker_comp = elimination_kernel(composite)
        assert ker_psi.equals(bracket_power(ker_comp, 1))


class TestExtendPGens:
    def test_trivial_extension(self):
        F2 = ring(2)
        assert extend_pgens_check(F2, [F2.zero()], [], 1)

    def test_prime_field_two_zeros(self):
        F2 = ring(2)
        assert extend_pgens_check(F2, [F2.zero()], [F2.zero()], 1)

    def test_line_with_square(self):
        R = ring(2, "x")
        x = R.var("x")
        assert extend_pgens_check(R, [x], [x ** 2], 1)

    def test_level_two(self):
        F2 = ring(2)
        assert extend_pgens_check(F2, [F2.zero()], [F2.one()], 2)
