"""The duality layer: FLI, shriek pullbacks, xi maps, dualizing complexes,
presentation independence, Frobenius duality."""

import pytest

import fpduality.duality as duality
import fpduality.groebner as groebner
from fpduality.complexes import (
    ChainMap,
    FreeComplex,
    certify_degreewise,
    cohomology,
    hom_transpose_vector,
    invert_monomial_chain_map,
    lift_chain_map,
    rank_one_complex,
)
from fpduality.differentials import canonical_omega_regular
from fpduality.duality import (
    _frobenius_multiplications,
    _trace_pairing_chain_map,
    biduality_certificate,
    canonical_dualizing,
    commutation_sign_check,
    compare_presentations,
    ext_two_pipelines,
    fli_eta,
    monic_triangular_system,
    residue_top_coefficient,
    upper_shriek_finite,
    upper_shriek_smooth,
    verify_frobenius_duality,
    xi_lci_class,
    xi_smooth_sign,
    xi_via_factorization,
)
from fpduality.errors import AlgebraError, NotRegularSequence, RingMismatch
from fpduality.frobenius import frobenius_pushforward, pushforward_basis, pushforward_vector
from fpduality.groebner import Ideal, QuotientRing, VectorPoly, combine, unit_vector, vector_from_poly, vector_of
from fpduality.modules import (
    ModuleMap,
    cyclic_module,
    hilbert_function,
    is_isomorphism,
    prune,
)
from fpduality.polyring import PolyRing, RingMap


def ring(p, *names):
    return PolyRing(p, names)


class TestFLI:
    def test_plane_origin(self):
        S = ring(2, "x", "y")
        x, y = S.gens()
        eta = fli_eta(S, [x, y], rank_one_complex(S, 0))
        assert all(eta.certified.values())
        lrep = eta.reports[0]
        assert lrep.nonzero_degrees() == [2]
        # rank match: H^2 and the twist are both rank 1 over S/(x,y)
        assert lrep.degrees[2].module.ngens == 1

    def test_char3_square(self):
        # J = (x^2) regular of codimension 1 in F_3[x]
        S = ring(3, "x")
        x = S.var("x")
        eta = fli_eta(S, [x ** 2], rank_one_complex(S, 0))
        assert all(eta.certified.values())
        rep = eta.reports[0]
        assert rep.nonzero_degrees() == [1]

    def test_codimension_zero_identity(self):
        # J = (0): the comparison is the identity on the coefficients
        S = ring(2, "x")
        eta = fli_eta(S, [], rank_one_complex(S, -1))
        assert all(eta.certified.values())
        assert eta.lhs.terms == eta.rhs.terms

    def test_not_regular_rejected(self):
        S = ring(2, "x", "y")
        x, y = S.gens()
        with pytest.raises(NotRegularSequence):
            fli_eta(S, [x, x * y], rank_one_complex(S, 0))

    def test_naturality_in_m(self):
        # the eta square for a map M -> M' of coefficient complexes
        S = ring(3, "u", "v")
        u, v = S.gens()
        rseq = [u, v]
        M1 = rank_one_complex(S, 0)
        eta1 = fli_eta(S, rseq, M1)
        f = u + v  # multiplication map M1 -> M1
        eta2 = fli_eta(S, rseq, M1)
        for n in eta1.lhs.degrees():
            for j in range(eta1.lhs.rank(n)):
                from fpduality.groebner import unit_vector

                e = unit_vector(S, eta1.lhs.rank(n), j)
                image = eta2.chain_map.apply(n, e)
                a = eta1.chain_map.apply(n, unit_vector(S, eta1.lhs.rank(n), j, f))
                b = combine([image], VectorPoly(S, [f]).terms.items(), S, image.rank)
                assert a == b


class TestExtPipelines:
    @pytest.mark.parametrize(
        "p,names,seq,codim",
        [
            (2, ("x", "y"), lambda S: [S.var("x"), S.var("y")], 2),
            (3, ("x",), lambda S: [S.var("x") ** 2], 1),
            (2, ("x", "y", "z"), lambda S: [S.var("x"), S.var("y") ** 2], 2),
        ],
    )
    def test_vanishing_and_agreement(self, p, names, seq, codim):
        S = ring(p, *names)
        M = rank_one_complex(S, 0)
        repK, repR, certified = ext_two_pipelines(S, seq(S), M)
        assert repK.nonzero_degrees() == [codim]
        assert repR.nonzero_degrees() == [codim]
        assert all(certified.values())

    def test_hilbert_data_agree(self):
        S = ring(2, "x", "y")
        x, y = S.gens()
        repK, repR, certified = ext_two_pipelines(S, [x, y], rank_one_complex(S, 0))
        A = QuotientRing(S, [x, y])
        hk = repK.degrees[2].module
        hr = repR.degrees[2].module
        assert hilbert_function(hk, 4) == hilbert_function(hr, 4)


class TestPerturbedComparisons:
    """Negative controls: with each cocycle image multiplied by x, the
    per-degree certificate refuses the degree that carries cohomology."""

    @pytest.fixture
    def times_x(self, monkeypatch):
        def perturbed(h_src, h_tgt, image):
            return certify_degreewise(h_src, h_tgt, lambda d, v: image(d, v).mul_term((1, 0), 1))

        monkeypatch.setattr(duality, "certify_degreewise", perturbed)

    def test_fli_refuses_a_perturbed_eta(self, times_x):
        S = ring(2, "x", "y")
        x, y = S.gens()
        eta = fli_eta(S, [x, y], rank_one_complex(S, 0))
        assert eta.certified[2] is False

    def test_ext_pipelines_refuse_a_perturbed_comparison(self, times_x):
        S = ring(2, "x", "y")
        x, y = S.gens()
        _repK, _repR, certified = ext_two_pipelines(S, [x, y], rank_one_complex(S, 0))
        assert certified[2] is False


class TestUpperShriek:
    def test_smooth_d0(self):
        R = ring(2, "x")
        T = rank_one_complex(R, 0)
        out, big = upper_shriek_smooth(R, T, 0)
        assert out is T

    def test_smooth_point_to_line(self):
        F2 = ring(2)
        T = rank_one_complex(F2, 0)
        out, big = upper_shriek_smooth(F2, T, 1)
        assert out.support() == (-1, -1)
        assert out.rank(-1) == 1

    def test_smooth_line_to_plane(self):
        R = ring(2, "x")
        om = canonical_omega_regular(R)
        out, big = upper_shriek_smooth(R, om.complex, 1)
        assert out.support() == (-2, -2)
        assert out.rank(-2) == 1

    def test_finite_identity(self):
        R = ring(2, "x")
        T = rank_one_complex(R, -1)
        assert upper_shriek_finite(RingMap(R, R, R.gens()), T) is T

    def test_finite_surjection_dual_numbers(self):
        R = ring(2, "x")
        x = R.var("x")
        A = QuotientRing(R, [x ** 2])
        pi = RingMap(R, A, [A.reduce(x)], check=False)
        om = canonical_omega_regular(R)
        out = upper_shriek_finite(pi, om.complex)
        rep = cohomology(out)
        # single cohomology module isomorphic to A (degree 0 under the
        # cochain conventions fixed artifact-wide)
        assert rep.nonzero_degrees() == [0]
        H = rep.degrees[0].module
        expect = cyclic_module(A)
        from fpduality.modules import FPModule

        target = FPModule(A, H.ngens, H.relations)
        iso = ModuleMap(expect, target, [target.gen(0)])
        assert is_isomorphism(iso)


class TestXi:
    def test_lci_coordinate_quotient(self):
        # F_2[x,y] ->> F_2[x,y]/(y), p-basis (x) downstairs, split by
        # theta(dx) = e_x, theta(dy) = 0
        S = ring(2, "x", "y")
        x, y = S.gens()
        A = QuotientRing(S, [y])
        pi = RingMap(S, A, [A.reduce(x), A.reduce(y)], check=False)
        theta = [unit_vector(S, 2, 0), vector_of(S, 2, ())]
        xi = xi_lci_class(pi, [x], [y], theta)
        assert xi.certified
        lam = xi.data["lambda"]
        assert lam.constant_value() == 1  # unit coefficient in char 2

    def test_lci_point_char3(self):
        # Omega of the point is zero: the splitting is the zero column
        S = ring(3, "X")
        F3 = ring(3)
        pi = RingMap(S, F3, [F3.zero()])
        xi = xi_lci_class(pi, [], [S.var("X")], [vector_of(S, 1, ())])
        assert xi.certified
        assert xi.data["lambda"].constant_value() == 1

    def test_lci_gabber_step_ring(self):
        # F_2[x,X] ->> F_2[x,X]/(X^2-x), c = 1, p-basis (X); dx = 0
        # downstairs, so theta(dx) = 0 and theta(dX) = e_X
        S = ring(2, "x", "X")
        x, X = S.gens()
        A = QuotientRing(S, [X ** 2 + x])
        pi = RingMap(S, A, [A.reduce(x), A.reduce(X)], check=False)
        theta = [vector_of(S, 2, ()), unit_vector(S, 2, 1)]
        xi = xi_lci_class(pi, [X], [X ** 2 + x], theta)
        assert xi.certified

    def test_lci_refuses_a_splitting_that_is_not_a_section(self):
        # theta(dX) = 2 e_X on F_3[x,X]/(X^3 - x), where dx = 0, and
        # theta(dx) = x e_x on F_2[x,y]/(y), where dy = 0: both are well
        # defined, but beta o theta is 2, or x, not the identity
        S3 = ring(3, "x", "X")
        x3, X = S3.gens()
        S2 = ring(2, "x", "y")
        x2, y = S2.gens()
        cases = [
            (S3, X ** 3 - x3, [X], [vector_of(S3, 2, ()), unit_vector(S3, 2, 1, S3.const(2))]),
            (S2, y, [x2], [unit_vector(S2, 2, 0, x2), vector_of(S2, 2, ())]),
        ]
        for S, r, pbasis, theta in cases:
            A = QuotientRing(S, [r])
            pi = RingMap(S, A, [A.reduce(v) for v in S.gens()], check=False)
            with pytest.raises(AlgebraError, match="supplied splitting is not a section"):
                xi_lci_class(pi, pbasis, [r], theta)

    def test_lci_refuses_a_splitting_that_is_not_well_defined(self):
        # dx = 0 on F_2[x,X]/(X^2 - x), so theta(dx) = e_x does not define
        # a map out of Omega
        S = ring(2, "x", "X")
        x, X = S.gens()
        A = QuotientRing(S, [X ** 2 + x])
        pi = RingMap(S, A, [A.reduce(x), A.reduce(X)], check=False)
        theta = [unit_vector(S, 2, 0), unit_vector(S, 2, 1)]
        with pytest.raises(AlgebraError, match="map not well defined on a source relation"):
            xi_lci_class(pi, [X], [X ** 2 + x], theta)

    def test_identity_factorizations(self):
        R = ring(3, "x")
        x = R.var("x")
        for roots in ([x], [x, x ** 2]):
            xi = xi_via_factorization(R, roots, 0)
            assert xi.certified
            assert len(xi.functional) == 1
            assert xi.functional[0].constant_value() == 1

    def test_frobenius_two_factorizations_match(self):
        R = ring(2, "x")
        x = R.var("x")
        a = xi_via_factorization(R, [x], 1)
        b = xi_via_factorization(R, [x, x ** 3], 1)
        assert a.certified and b.certified
        assert all(u == v for u, v in zip(a.functional, b.functional))

    def test_frobenius_matches_trace_generator(self):
        # the xi functional is exactly the p-basis trace projection
        for p in (2, 3):
            R = ring(p, "x")
            x = R.var("x")
            xi = xi_via_factorization(R, [x], 1)
            for mono, val in zip(xi.data["monomials"], xi.functional):
                if mono == (p - 1,):
                    assert val.constant_value() == 1
                else:
                    assert val.is_zero()

    def test_section_case(self):
        # adjoining a variable and killing it gives the identity xi
        R = ring(2, "x")
        x = R.var("x")
        xi = xi_via_factorization(R, [x, x ** 2 + x], 0)
        assert xi.certified
        assert xi.functional[0].constant_value() == 1

    def test_monic_system_and_residue(self):
        # residue of y^(deg-1) against a monic system is 1
        Sy = ring(2, "x", "y")
        x, y = Sy.gens()
        J = Ideal(Sy, [y ** 2 + x])
        sys = monic_triangular_system(Sy, J, 1, 1)
        assert len(sys) == 1
        assert sys[0] == y ** 2 + x
        r = residue_top_coefficient(y, sys, Sy, 1, 1)
        assert r.constant_value() == 1
        r0 = residue_top_coefficient(Sy.one(), sys, Sy, 1, 1)
        assert r0.is_zero()

    def test_residue_runs_no_groebner(self, monkeypatch):
        # a monic triangular system is a Groebner basis already
        Sy = ring(3, "x", "y1", "y2")
        x, y1, y2 = Sy.gens()
        tsys = [y1 ** 3 - x, y2 ** 2 - y1]
        runs = [0]
        original = groebner.buchberger

        def counted(*args, **kwargs):
            runs[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(groebner, "buchberger", counted)
        r = residue_top_coefficient(y1 ** 2 * y2, tsys, Sy, 1, 2)
        assert r.constant_value() == 1
        assert runs[0] == 0


class TestCommutationSign:
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("cd", [(1, 1), (1, 2), (2, 1)])
    def test_sign(self, p, cd):
        c, d = cd
        assert commutation_sign_check(p, c, d)
        assert commutation_sign_check(p, c, d, with_theta_part=False)


class TestCanonicalDualizing:
    def test_line_identity_presentation(self):
        R = ring(2, "x")
        dc = canonical_dualizing(R)
        rep = dc.cohomology_report()
        assert rep.nonzero_degrees() == [-1]

    def test_dual_numbers(self):
        amb = ring(2, "x")
        x = amb.var("x")
        A = QuotientRing(amb, [x ** 2])
        dc = canonical_dualizing(A)
        rep = dc.cohomology_report()
        # artinian Gorenstein: one cohomology module, isomorphic to A
        assert len(rep.nonzero_degrees()) == 1
        om = dc.canonical_module_over_ring()
        iso = ModuleMap(cyclic_module(A), om, [om.gen(0)])
        assert is_isomorphism(iso)

    def test_crossing_lines_gorenstein(self):
        amb = ring(2, "x", "y")
        x, y = amb.gens()
        A = QuotientRing(amb, [x * y])
        dc = canonical_dualizing(A)
        rep = dc.cohomology_report()
        assert rep.nonzero_degrees() == [-1]
        om = dc.canonical_module_over_ring()
        iso = ModuleMap(cyclic_module(A), om, [om.gen(0)])
        assert is_isomorphism(iso)

    def test_biduality_corpus(self):
        amb = ring(2, "x")
        A = QuotientRing(amb, [amb.var("x") ** 2])
        assert biduality_certificate(canonical_dualizing(A))
        amb2 = ring(2, "x", "y")
        B = QuotientRing(amb2, [amb2.var("x") * amb2.var("y")])
        assert biduality_certificate(canonical_dualizing(B))


class TestComparePresentations:
    def test_dual_numbers_two_presentations(self):
        amb = ring(2, "x")
        x = amb.var("x")
        A = QuotientRing(amb, [x ** 2])
        pi1 = RingMap(PolyRing(2, ("x",)), A, [A.reduce(x)], check=False)
        S2 = ring(2, "u", "v")
        pi2 = RingMap(S2, A, [A.reduce(x), A.zero()], check=False)
        out = compare_presentations(A, pi1, pi2)
        assert out.certified
        assert out.degree_lists[0] == out.degree_lists[1]
        # each collapse and the joint comparison, degree by degree: the
        # degrees below the own model's reach are certified by vanishing
        side1, side2, joint = out.chain
        every = {-3: True, -2: True, -1: True, 0: True}
        assert side1["certified"] == side2["certified"] == joint == every

    def test_line_vs_plane_presentation(self):
        amb = ring(2, "t")
        t = amb.var("t")
        A = QuotientRing(amb, [])
        pi1 = RingMap(PolyRing(2, ("t",)), A, [A.reduce(t)], check=False)
        SXY = ring(2, "X", "Y")
        pi2 = RingMap(SXY, A, [A.reduce(t), A.reduce(t ** 2)], check=False)
        out = compare_presentations(A, pi1, pi2)
        assert out.certified
        assert out.degree_lists == ([-1], [-1])
        side1, side2, joint = out.chain
        every = {-3: True, -2: True, -1: True}
        assert side1["certified"] == side2["certified"] == joint == every

    def test_identical_presentations(self):
        amb = ring(2, "x")
        A = QuotientRing(amb, [amb.var("x") ** 2])
        pi = RingMap(PolyRing(2, ("x",)), A, [A.reduce(amb.var("x"))], check=False)
        out = compare_presentations(A, pi, pi)
        assert out.certified

    def test_presentations_of_another_ring_are_refused(self):
        amb = ring(2, "x")
        x = amb.var("x")
        A = QuotientRing(amb, [x ** 2])
        B = QuotientRing(amb, [x ** 3])
        pi = RingMap(PolyRing(2, ("x",)), A, [A.reduce(x)], check=False)
        with pytest.raises(RingMismatch):
            compare_presentations(B, pi, pi)


class TestFrobeniusDuality:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: QuotientRing(PolyRing(2, ("x",)), []),
            lambda: QuotientRing(PolyRing(2, ("x",)), [PolyRing(2, ("x",)).var("x") ** 2]),
        ],
        ids=["line", "dual-numbers"],
    )
    def test_small_rings(self, build):
        A = build()
        rep = verify_frobenius_duality(A)
        assert rep.certified

    def test_crossing_lines(self):
        amb = ring(2, "x", "y")
        A = QuotientRing(amb, [amb.var("x") * amb.var("y")])
        rep = verify_frobenius_duality(A)
        assert rep.certified

    def test_cusp(self):
        amb = ring(2, "x", "y")
        x, y = amb.gens()
        A = QuotientRing(amb, [y ** 2 + x ** 3])
        rep = verify_frobenius_duality(A)
        assert rep.certified


def _quotient(p, names, modulus):
    amb = PolyRing(p, names)
    return QuotientRing(amb, modulus(*amb.gens()))


# the four rings of corpus clause 6, then the cusp in characteristic 3
TRACE_PAIRING_RINGS = {
    "line": lambda: _quotient(2, ("x",), lambda x: []),
    "dual-numbers": lambda: _quotient(2, ("x",), lambda x: [x ** 2]),
    "crossing-lines": lambda: _quotient(2, ("x", "y"), lambda x, y: [x * y]),
    "cusp": lambda: _quotient(2, ("x", "y"), lambda x, y: [y ** 2 + x ** 3]),
    "cusp-char3": lambda: _quotient(3, ("x", "y"), lambda x, y: [y ** 2 - x ** 3]),
}


def _composes_to_identity(f, g):
    C = f.source
    return all(
        g.apply(d, f.column(d, j)) == unit_vector(C.ambient, C.rank(d), j)
        for d in C.degrees()
        for j in range(C.rank(d))
    )


# the cusp and the affine twisted cubic over F_3
MULTIPLICATION_RINGS = {
    "cusp3": lambda: _quotient(3, ("x", "y"), lambda x, y: [y ** 2 - x ** 3]),
    "tc3": lambda: _quotient(3, ("x", "y", "z"), lambda x, y, z: [x ** 2 - y, x * y - z, y ** 2 - x * z]),
}


class TestFrobeniusMultiplications:
    """The multiplication chain maps K -> F_*K read off one lift
    K^{[q]} -> K, checked against one lift_chain_map per monomial."""

    @pytest.mark.parametrize("build", MULTIPLICATION_RINGS.values(), ids=MULTIPLICATION_RINGS.keys())
    def test_degree_zero_is_the_pushforward_of_b(self, build):
        A = build()
        dc = canonical_dualizing(A)
        _chi, FK = _trace_pairing_chain_map(dc, 1)
        FA = frobenius_pushforward(A)
        multiplication = _frobenius_multiplications(dc.resolution, FK, 1)
        for b, _j in FA.index.labels:
            assert multiplication(b).maps[0] == [FA.coords(vector_from_poly(A.ambient.monomial(b)))]

    @pytest.mark.parametrize("build", MULTIPLICATION_RINGS.values(), ids=MULTIPLICATION_RINGS.keys())
    def test_hom_values_match_per_monomial_lifts(self, build):
        # the value maps F_*A -> omega_A of every generator of F_*omega_A,
        # as verify_frobenius_duality assembles them, through either lift
        A = build()
        S = A.ambient
        dc = canonical_dualizing(A)
        K, W = dc.resolution, dc.complex
        chi, FK = _trace_pairing_chain_map(dc, 1)
        low = dc.lowest_degree()
        h_om = dc.canonical_module()
        omega_mod = dc.canonical_module_over_ring()
        FA = frobenius_pushforward(A)
        FA_pruned, kept_gens, _, _ = prune(FA.module)
        kept = [FA.index.labels[k][0] for k in kept_gens]
        multiplication = _frobenius_multiplications(K, FK, 1)
        ours = {b: multiplication(b) for b in kept}
        lifted = {b: lift_chain_map([FA.coords(vector_from_poly(S.monomial(b)))], K, FK, S) for b in kept}

        def value_map(lifts, psi):
            cols = []
            for b in kept:
                comp = hom_transpose_vector(lifts[b], psi, chi.target.bases[low], W.bases[low])
                cols.append(h_om.coords_of_cocycle(comp))
            return ModuleMap(FA_pruned, omega_mod, cols, check=True)

        for a, j in pushforward_basis(A, 1, omega_mod.ngens).labels:
            shifted = h_om.reps[j].mul_term(a, 1)
            psi = chi.apply(low, pushforward_vector(chi.source.bases[low], shifted, 1))
            assert (value_map(ours, psi) - value_map(lifted, psi)).is_zero_map()


class TestTracePairingInverse:
    @pytest.mark.parametrize("build", TRACE_PAIRING_RINGS.values(), ids=TRACE_PAIRING_RINGS.keys())
    def test_inverse_composes_to_identity(self, build):
        chi, _FK = _trace_pairing_chain_map(canonical_dualizing(build()), 1)
        inv = invert_monomial_chain_map(chi)
        assert inv.source is chi.target and inv.target is chi.source
        assert sorted(inv.maps) == sorted(chi.maps) == chi.source.degrees()
        assert _composes_to_identity(chi, inv)
        assert _composes_to_identity(inv, chi)

    def test_units_are_inverted(self):
        # x: S -> S in degrees 0 -> 1, and 2 * id on it over F_5
        S = ring(5, "x")
        x = S.var("x")
        X = FreeComplex(S, {0: 1, 1: 1}, {0: [VectorPoly(S, [x])]})
        two, three = VectorPoly(S, [S.const(2)]), VectorPoly(S, [S.const(3)])
        f = ChainMap(X, X, {0: [two], 1: [two]})
        inv = invert_monomial_chain_map(f)
        assert inv.maps == {0: [three], 1: [three]}
        assert _composes_to_identity(f, inv) and _composes_to_identity(inv, f)

    def test_cyclic_permutation_is_transposed(self):
        # e0 -> 2 e1, e1 -> 3 e2, e2 -> 4 e0 over F_5: a permutation that is
        # not its own inverse
        S = ring(5, "x")
        X = FreeComplex(S, {0: 3}, {})
        e = [unit_vector(S, 3, i) for i in range(3)]
        f = ChainMap(X, X, {0: [e[1].scale(2), e[2].scale(3), e[0].scale(4)]})
        inv = invert_monomial_chain_map(f)
        assert inv.maps == {0: [e[2].scale(4), e[0].scale(3), e[1].scale(2)]}
        assert _composes_to_identity(f, inv) and _composes_to_identity(inv, f)

    @pytest.mark.parametrize(
        "columns, ranks, message",
        [
            (lambda x, e: [e(0).mul_term((1,), 1), e(1)], (2, 2), "not a constant"),
            (lambda x, e: [e(0), e(0)], (2, 2), "hit twice"),
            (lambda x, e: [e(0) + e(1), e(1)], (2, 2), "2 nonzero entries"),
            (lambda x, e: [e(0).scale(0), e(1)], (2, 2), "0 nonzero entries"),
            (lambda x, e: [e(0), e(1)], (2, 3), "not square"),
        ],
        ids=["non-constant", "repeated-row", "two-entries", "zero-column", "non-square"],
    )
    def test_non_invertible_component_raises(self, columns, ranks, message):
        S = ring(3, "x")
        src = FreeComplex(S, {0: ranks[0]}, {})
        tgt = FreeComplex(S, {0: ranks[1]}, {})
        f = ChainMap(src, tgt, {0: columns(S.var("x"), lambda i: unit_vector(S, ranks[1], i))})
        with pytest.raises(AlgebraError, match=message):
            invert_monomial_chain_map(f)

    def test_degree_missing_on_one_side_raises(self):
        S = ring(3, "x")
        src = FreeComplex(S, {0: 1}, {})
        tgt = FreeComplex(S, {0: 1, 1: 1}, {})
        f = ChainMap(src, tgt, {0: [unit_vector(S, 1, 0)]})
        with pytest.raises(AlgebraError, match="at degree 1 is 1 x 0, not square"):
            invert_monomial_chain_map(f)


class TestXiSmooth:
    # the reordering sign of a smooth leg, (-1)^(m d) mod p, moving m base
    # differentials past d fibre ones
    def test_point_to_line(self):
        assert xi_smooth_sign(0, 1, 2) == 1

    def test_line_to_plane_sign(self):
        # char 2 kills the sign; at p=3 the single transposition survives
        assert xi_smooth_sign(1, 1, 2) == 1
        assert xi_smooth_sign(1, 1, 3) == 2  # -1 mod 3

    def test_two_fibres(self):
        assert xi_smooth_sign(1, 2, 3) == 1  # (-1)^{1*2}


class TestXiChoiceIndependence:
    def test_permuted_and_rescaled_sequence(self):
        # the composite class transported between the two Koszul models
        # agrees exactly, per the choice-independence of the lci formula
        from fpduality.complexes import lift_map_of_resolutions
        from fpduality.duality import xi_lci_class
        from fpduality.groebner import unit_vector

        S = ring(3, "u", "v")
        u, v = S.gens()
        F3_model = QuotientRing(S, [u, v])
        pi = RingMap(S, F3_model, [F3_model.zero(), F3_model.zero()], check=False)
        variants = [[u, v], [v, u], [u.scale(2), v]]
        # Omega of the point is zero: the splitting is the zero map
        theta = [vector_of(S, 2, ())] * 2
        classes = []
        for rseq in variants:
            xi = xi_lci_class(pi, [], rseq, theta)
            assert xi.certified
            classes.append(xi)
        # transport each variant class into the first model by lifting the
        # identity between the Koszul resolutions
        base = classes[0]
        for other in classes[1:]:
            # lift id between the underlying Koszul resolutions
            lifted = lift_map_of_resolutions(
                [unit_vector(S, 1, 0)], _koszul_of(base), _koszul_of(other), S
            )
            from fpduality.duality import hom_transpose_chain_map

            cm = hom_transpose_chain_map(lifted, other.data["complex"], base.data["complex"])
            deg = -base.data["omega_T"].n
            h_other = other.data["report"].degrees[deg]
            h_base = base.data["report"].degrees[deg]
            img = cm.apply(deg, other.data["cocycle"])
            coords = h_base.coords_of_cocycle(img)
            assert coords is not None
            got = [base.data["quotient"].reduce(c) for c in coords.components]
            expect = [base.data["quotient"].reduce(c) for c in base.data["class_coords"].components]
            assert all((a - b).is_zero() for a, b in zip(got, expect))


def _koszul_of(xi):
    from fpduality.complexes import koszul_complex

    return koszul_complex(xi.data["omega_S"].ring, xi.data["rseq"])


class TestXiComposition:
    def test_frobenius_square_composes(self):
        # xi for F^2 equals the Cartier composition of xi for F: the e=2
        # functional is the level-two trace projection
        for p in (2, 3):
            R = ring(p, "x")
            x = R.var("x")
            xi2 = xi_via_factorization(R, [x], 2)
            assert xi2.certified
            q = p ** 2
            for mono, val in zip(xi2.data["monomials"], xi2.functional):
                if mono == (q - 1,):
                    assert val.constant_value() == 1
                else:
                    assert val.is_zero()


class TestBeyondCorpus:
    def test_frobenius_duality_level_two(self):
        A = QuotientRing(PolyRing(2, ("x",)), [])
        rep = verify_frobenius_duality(A, e=2)
        assert rep.certified

    def test_frobenius_duality_char3(self):
        amb = PolyRing(3, ("x", "y"))
        x, y = amb.gens()
        B = QuotientRing(amb, [y ** 2 - x ** 3])
        assert verify_frobenius_duality(B).certified

    def test_frobenius_duality_non_cohen_macaulay(self):
        # depth 0, dimension 1: the dualizing complex has two cohomology
        # degrees and the certificates cover all of them
        amb = PolyRing(2, ("x", "y"))
        x, y = amb.gens()
        C = QuotientRing(amb, [x ** 2, x * y])
        dc = canonical_dualizing(C)
        assert dc.cohomology_report().nonzero_degrees() == [-1, 0]
        rep = verify_frobenius_duality(C)
        assert rep.certified
