"""FPModules: hom, tensor, kernels, exterior powers, counting invariants."""

from itertools import product

import pytest

import fpduality.modules as modules
from fpduality.errors import AlgebraError, NotGraded, NotMaximal
from fpduality.frobenius import frobenius_pushforward
from fpduality.groebner import Ideal, QuotientRing, VectorPoly, unit_vector, vector_of
from fpduality.modules import (
    FPModule,
    ModuleMap,
    cyclic_module,
    direct_sum,
    exterior_power,
    fp_matrix_inverse,
    fp_rank,
    free_module,
    generic_rank,
    hilbert_function,
    hom_module,
    ideal_module,
    is_isomorphism,
    kernel_cokernel,
    minimal_generators_at,
    tensor_module,
)
from fpduality.polyring import PolyRing


def ring(p, *names):
    return PolyRing(p, names)


def quotient(p, names, rels):
    amb = ring(p, *names)
    return amb, QuotientRing(amb, [r(amb) for r in rels])


def fp_dimension(M, degree_probe=8):
    """F_p-dimension of a finite-length module by monomial counting."""
    from fpduality.groebner import leading_term

    amb = M.ambient
    gb = M.relgb().basis
    leads = [leading_term(v, amb.order) for v in gb]
    count = 0
    from fpduality.modules import _monomials_of_degree

    for d in range(degree_probe + 1):
        for j in range(M.ngens):
            for mono in _monomials_of_degree(amb.nvars, d):
                if not any(
                    pos == j and all(x <= y for x, y in zip(lm, mono))
                    for (pos, lm, _c) in leads
                ):
                    count += 1
    return count


class TestHom:
    def test_hom_from_free_rank1(self):
        amb = ring(2, "x")
        N = cyclic_module(amb, [amb.var("x") ** 3])
        M = free_module(amb, 1)
        H = hom_module(M, N)
        # Hom(R, N) = N: three standard monomials 1, x, x^2
        assert fp_dimension(H) == 3
        f = H.decode(0)
        assert f.source is M and f.target is N

    def test_hom_torsion_into_free_vanishes(self):
        amb = ring(2, "x")
        M = cyclic_module(amb, [amb.var("x")])
        N = free_module(amb, 1)
        H = hom_module(M, N)
        assert H.is_zero_module()

    def test_hom_free_to_free_rank(self):
        amb = ring(2, "x", "y")
        H = hom_module(free_module(amb, 2), free_module(amb, 3))
        assert H.ngens == 6
        assert not H.relations

    def test_decode_encode_roundtrip(self):
        amb = ring(3, "x")
        x = amb.var("x")
        A = QuotientRing(amb, [x ** 4])
        M = FPModule(A, 2, [VectorPoly(amb, [x ** 2, x])])
        N = FPModule(A, 1, [VectorPoly(amb, [x ** 3])])
        H = hom_module(M, N)
        for i in range(H.ngens):
            f = H.decode(i)
            # decode produces well-defined maps: constructor check
            ModuleMap(M, N, f.columns)
            coords = H.encode(f)
            assert coords is not None
            g = H.decode(coords)
            assert f.equals(g)

    def test_encode_refuses_a_map_not_well_defined(self):
        # Frobenius duality checks its value maps only through encode: on
        # the cusp over F_3, A/(x) -> A, 1 -> 1 sends the relation x to x
        amb = ring(3, "x", "y")
        x, y = amb.gens()
        A = QuotientRing(amb, [y ** 2 - x ** 3])
        M, N = cyclic_module(A, [x]), free_module(A, 1)
        with pytest.raises(AlgebraError):
            ModuleMap(M, N, [N.gen(0)])
        assert hom_module(M, N).encode(ModuleMap(M, N, [N.gen(0)], check=False)) is None

    def test_encode_matches_fresh_basis(self):
        # Hom(Lambda^2 F_*R, Q) on the elliptic curve of criterion 1: encode
        # lifts through the constructor's basis; a freshly built one over
        # the same columns must give the same coordinates
        from fpduality.frobenius import frobenius_pushforward
        from fpduality.groebner import ModuleGB

        amb = ring(2, "x", "y")
        x, y = amb.gens()
        R = QuotientRing(amb, [y ** 2 + x * y + y + x ** 3 + x + 1])
        L = exterior_power(frobenius_pushforward(R, 1).module, 2)
        Q = ideal_module(R, [x + 1, y + 1])
        H = hom_module(L, Q)
        m, n = L.ngens, Q.ngens
        mod_cols = []
        for j in range(m):
            for b in Q.relations:
                comps = [amb.zero()] * (n * m)
                comps[j * n : (j + 1) * n] = b.components
                mod_cols.append(VectorPoly(amb, comps))
        fresh = ModuleGB(amb, n * m, list(H.h0.reps) + mod_cols)
        for i in range(H.ngens):
            f = H.decode(i)
            vec = VectorPoly(amb, [c for col in f.columns for c in col.components])
            expected = fresh.lift(vec)
            assert expected is not None
            assert H.encode(f).components == expected.components[: H.ngens]


class TestTensor:
    def test_unit(self):
        amb = ring(2, "x")
        N = cyclic_module(amb, [amb.var("x") ** 2])
        T = tensor_module(free_module(amb, 1), N)
        iota = ModuleMap(N, T, [T.gen(0)])
        assert is_isomorphism(iota)

    def test_two_lines_cross(self):
        amb = ring(2, "x", "y")
        x, y = amb.gens()
        T = tensor_module(cyclic_module(amb, [x]), cyclic_module(amb, [y]))
        expect = cyclic_module(amb, [x, y])
        assert is_isomorphism(ModuleMap(expect, T, [T.gen(0)]))

    def test_gcd_of_powers(self):
        # R/(x^2) tensor R/(x^3) = R/(x^2) over F_3[x]
        amb = ring(3, "x")
        x = amb.var("x")
        T = tensor_module(cyclic_module(amb, [x ** 2]), cyclic_module(amb, [x ** 3]))
        expect = cyclic_module(amb, [x ** 2])
        assert is_isomorphism(ModuleMap(expect, T, [T.gen(0)]))


class TestKernelCokernel:
    def test_identity(self):
        amb = ring(2, "x")
        M = cyclic_module(amb, [amb.var("x") ** 2])
        ker, coker = kernel_cokernel(ModuleMap.identity(M))
        assert ker.is_zero_module() and coker.is_zero_module()

    def test_zero_map(self):
        amb = ring(2, "x")
        M = cyclic_module(amb, [amb.var("x") ** 2])
        ker, coker = kernel_cokernel(ModuleMap(M, M, [vector_of(amb, M.ngens, ())] * M.ngens, check=False))
        assert fp_dimension(ker) == fp_dimension(M) == fp_dimension(coker) == 2

    def test_multiplication_by_x_on_dual_numbers(self):
        amb = ring(2, "x")
        x = amb.var("x")
        A = QuotientRing(amb, [x ** 2])
        M = cyclic_module(A)
        f = ModuleMap(M, M, [VectorPoly(amb, [x])])
        ker, coker = kernel_cokernel(f)
        # direct element count: both have 2 elements (= F_2-dimension 1)
        assert fp_dimension(ker) == 1
        assert fp_dimension(coker) == 1

    def test_graded_iso_preserves_hilbert(self):
        amb = ring(2, "x", "y")
        x, y = amb.gens()
        M = FPModule(amb, 1, [VectorPoly(amb, [x * y])], grading=[0])
        N = FPModule(amb, 1, [VectorPoly(amb, [x * y])], grading=[0])
        f = ModuleMap(M, N, [N.gen(0)])
        assert is_isomorphism(f)
        assert hilbert_function(M, 5) == hilbert_function(N, 5)

    def test_dense_cusp_presentation_verdicts(self):
        # a dense inhomogeneous 3-generator presentation over the cusp at
        # p=3 that once took 15.2 s for these four unpruned verdicts
        amb, A = quotient(3, ("x", "y"), [lambda R: R.var("y") ** 2 - R.var("x") ** 3])
        x, y = amb.gens()
        two = amb.const(2)
        M = FPModule(A, 3, [
            VectorPoly(amb, [2 * x * y + y, 2 * x * y + x, 2 * y ** 2 + x]),
            VectorPoly(amb, [2 * x * y + x, two, 2 * x ** 2 + y ** 2]),
            VectorPoly(amb, [2 * x ** 2 + two, x ** 2 + x * y, 2 * x ** 2]),
        ])
        verdicts = []
        for g in (amb.one(), two, amb.zero(), x):
            ker, coker = kernel_cokernel(ModuleMap(M, M, [unit_vector(amb, 3, i, g) for i in range(3)], check=False))
            verdicts.append(ker.is_zero_module() and coker.is_zero_module())
        assert verdicts == [True, True, False, False]


class TestIsomorphismByInverse:
    """is_isomorphism finds the inverse g of a square, constant matrix
    invertible over F_p as F^-1, and of any other one by lifting the target
    generators; either way one check decides, and its verdict agrees with
    kernel_cokernel."""

    @staticmethod
    def _verdict(f, monkeypatch):
        # (is_isomorphism(f), whether g was F^-1 rather than a lift)
        lifted = []
        original = modules._lifted_inverse

        def spied(h):
            lifted.append(h)
            return original(h)

        monkeypatch.setattr(modules, "_lifted_inverse", spied)
        verdict = is_isomorphism(f)
        ker, coker = kernel_cokernel(f)
        assert verdict == (ker.is_zero_module() and coker.is_zero_module())
        return verdict, not lifted

    def test_constant_invertible_isomorphism(self, monkeypatch):
        amb = ring(3, "x", "y")
        x, y = amb.gens()
        M = FPModule(amb, 2, [VectorPoly(amb, [x, y])])
        # F = [[1, 1], [0, 2]] sends the relation of M to that of N
        N = FPModule(amb, 2, [VectorPoly(amb, [x + y, 2 * y])])
        f = ModuleMap(M, N, [N.gen(0), VectorPoly(amb, [amb.one(), amb.const(2)])])
        assert self._verdict(f, monkeypatch) == (True, True)

    def test_invertible_matrix_with_a_kernel(self, monkeypatch):
        # S/(x^2) -> S/(x) by the identity matrix: onto, with kernel (x);
        # g = id sends the relation x of the target to x != 0 in the source
        amb = ring(3, "x")
        x = amb.var("x")
        f = ModuleMap(cyclic_module(amb, [x ** 2]), cyclic_module(amb, [x]), [VectorPoly(amb, [amb.one()])])
        assert self._verdict(f, monkeypatch) == (False, True)

    def test_singular_constant_matrix_falls_back(self, monkeypatch):
        # not onto: the second target generator does not lift
        amb = ring(3, "x")
        one, two = amb.one(), amb.const(2)
        F = free_module(amb, 2)
        f = ModuleMap(F, F, [VectorPoly(amb, [one, one]), VectorPoly(amb, [two, two])])
        assert modules._lifted_inverse(f) is None
        assert self._verdict(f, monkeypatch) == (False, False)

    @pytest.mark.parametrize("unit, iso", [(True, True), (False, False)], ids=["1+x", "x"])
    def test_polynomial_matrix_falls_back(self, monkeypatch, unit, iso):
        amb, A = quotient(3, ("x",), [lambda R: R.var("x") ** 2])
        x = amb.var("x")
        M = cyclic_module(A)
        f = ModuleMap(M, M, [VectorPoly(amb, [amb.one() + x if unit else x])])
        # 1 + x lifts to 1 - x; x is not onto
        assert (modules._lifted_inverse(f) is not None) == iso
        assert self._verdict(f, monkeypatch) == (iso, False)

    def test_onto_polynomial_map_with_a_kernel(self, monkeypatch):
        # S^2 -> S by (x, 1 - xy) over F_3[x,y]: onto, since y*x + (1 - xy)
        # = 1, with the Koszul syzygy as kernel.  The target is free, so
        # check (b) asks nothing and the lift fails check (a).
        amb = ring(3, "x", "y")
        x, y = amb.gens()
        F, S = free_module(amb, 2), free_module(amb, 1)
        f = ModuleMap(F, S, [VectorPoly(amb, [x]), VectorPoly(amb, [amb.one() - x * y])])
        g = modules._lifted_inverse(f)
        assert g is not None and not S.relations
        assert not F.element_is_zero(F.gen(0) - g.apply_coords(f.columns[0]))
        assert self._verdict(f, monkeypatch) == (False, False)

    def test_zero_modules(self, monkeypatch):
        # both prune to no generators: the empty matrix is its own inverse
        amb = ring(3, "x", "y")
        x = amb.var("x")
        M = FPModule(amb, 2, [VectorPoly(amb, [amb.one(), x]), VectorPoly(amb, [amb.zero(), amb.const(2)])])
        N = cyclic_module(amb, [amb.one()])
        assert M.is_zero_module() and N.is_zero_module()
        zero = ModuleMap(M, N, [vector_of(amb, N.ngens, ())] * M.ngens, check=False)
        assert self._verdict(zero, monkeypatch) == (True, True)


class TestExteriorPower:
    def test_first_power_is_module(self):
        amb = ring(2, "x")
        M = cyclic_module(amb, [amb.var("x") ** 2])
        L = exterior_power(M, 1)
        assert is_isomorphism(ModuleMap(M, L, [L.gen(0)]))

    def test_top_of_free(self):
        amb = ring(2, "x", "y")
        L = exterior_power(free_module(amb, 2), 2)
        assert L.ngens == 1
        assert not L.relations

    def test_wedge_relations(self):
        # Lambda^2 of R^2/<(x, y)> has the single relation row wedged in
        amb = ring(3, "x", "y")
        x, y = amb.gens()
        M = FPModule(amb, 2, [VectorPoly(amb, [x, y])])
        L = exterior_power(M, 2)
        assert L.ngens == 1
        assert not L.is_zero_module()

    def test_functorial_on_iso(self):
        amb = ring(2, "x")
        x = amb.var("x")
        M = FPModule(
            amb, 2, [VectorPoly(amb, [x, amb.zero()]), VectorPoly(amb, [amb.zero(), x])]
        )
        # an explicit automorphism of (R/x)^2: unipotent column operation
        f = ModuleMap(M, M, [M.gen(0), M.gen(1) + M.gen(0)])
        assert is_isomorphism(f)
        L = exterior_power(M, 2)
        # induced map on Lambda^2 is multiplication by det(f) = 1
        g = ModuleMap(L, L, [unit_vector(amb, L.ngens, 0, amb.one())])
        assert is_isomorphism(g)


class TestMinimalGenerators:
    def test_free_rank(self):
        amb = ring(2, "x", "y")
        x, y = amb.gens()
        m = Ideal(amb, [x, y])
        assert minimal_generators_at(free_module(amb, 1), m) == 1
        assert minimal_generators_at(free_module(amb, 2), m) == 2

    def test_not_maximal_rejected(self):
        amb = ring(2, "x", "y")
        with pytest.raises(NotMaximal):
            minimal_generators_at(free_module(amb, 1), Ideal(amb, [amb.var("x")]))

    def test_elliptic_curve_point_ideal_local_count(self):
        # R = F_2[x,y]/(y^2+xy+y+x^3+x+1), Q = (x+1, y+1) the point of
        # order two.  The point is smooth, so Q is locally principal and
        # dim Q/mQ = 1: besides the Koszul syzygy there is the curve-induced
        # relation (x^2+x+1)(x+1) + (x+y)(y+1) = curve = 0, whose first
        # coefficient is a unit at the point.
        amb = ring(2, "x", "y")
        x, y = amb.gens()
        curve = y ** 2 + x * y + y + x ** 3 + x + 1
        R = QuotientRing(amb, [curve])
        assert R.reduce((x ** 2 + x + 1) * (x + 1) + (x + y) * (y + 1)).is_zero()
        Q = ideal_module(R, [x + 1, y + 1])
        count = minimal_generators_at(Q, Ideal(amb, [x + 1, y + 1]))
        assert count == 1


class TestHilbert:
    def test_free_line(self):
        amb = ring(2, "x")
        M = free_module(amb, 1, grading=[0])
        assert hilbert_function(M, 4) == [1, 1, 1, 1, 1]

    def test_dual_numbers(self):
        amb = ring(2, "x")
        M = FPModule(amb, 1, [VectorPoly(amb, [amb.var("x") ** 2])], grading=[0])
        assert hilbert_function(M, 4) == [1, 1, 0, 0, 0]

    def test_kaehler_of_crossing_lines(self):
        # generators dx, dy in degree 1; Jacobian relation of xy plus the
        # modulus multiples; values recomputed by hand monomial counting
        amb = ring(2, "x", "y")
        x, y = amb.gens()
        A = QuotientRing(amb, [x * y])
        M = FPModule(A, 2, [VectorPoly(amb, [y, x])], grading=[1, 1])
        assert hilbert_function(M, 6) == [0, 2, 3, 2, 2, 2, 2]

    def test_ungraded_rejected(self):
        amb = ring(2, "x")
        with pytest.raises(NotGraded):
            hilbert_function(cyclic_module(amb, []), 3)

    def test_inhomogeneous_rejected(self):
        amb = ring(2, "x")
        x = amb.var("x")
        M = FPModule(amb, 1, [VectorPoly(amb, [x ** 2 + x])], grading=[0])
        with pytest.raises(NotGraded):
            hilbert_function(M, 3)


class TestGenericRank:
    def test_free(self):
        amb = ring(2, "x")
        assert generic_rank(free_module(amb, 2)) == 2

    def test_torsion(self):
        amb = ring(2, "x")
        assert generic_rank(cyclic_module(amb, [amb.var("x")])) == 0

    def test_kaehler_of_elliptic_curve(self):
        amb = ring(2, "x", "y")
        x, y = amb.gens()
        curve = y ** 2 + x * y + y + x ** 3 + x + 1
        R = QuotientRing(amb, [curve])
        # Jacobian relation: (y + x^2 + 1) dx + (x + 1) dy in char 2
        M = FPModule(R, 2, [VectorPoly(amb, [y + x ** 2 + 1, x + 1])])
        assert generic_rank(M) == 1

    def test_frobenius_pushforward_of_nodal_cubic(self):
        # F_* of F_3[x,y]/(y^2 - x^2 - x^3) has rank p = 3; the presentation
        # is 9 x 18, beyond reach of an expansion by minors
        amb = ring(3, "x", "y")
        x, y = amb.gens()
        R = QuotientRing(amb, [y ** 2 - x ** 2 - x ** 3])
        assert generic_rank(frobenius_pushforward(R).module) == 3


class TestHelpers:
    def test_fp_rank(self):
        assert fp_rank([[1, 0], [0, 1]], 2) == 2
        assert fp_rank([[1, 1], [1, 1]], 2) == 1
        assert fp_rank([[2, 4], [1, 2]], 5) == 1

    def test_fp_inverse_on_every_2x2_matrix_mod_3(self):
        identity = [[1, 0], [0, 1]]
        for entries in product(range(3), repeat=4):
            rows = [list(entries[:2]), list(entries[2:])]
            inverse = fp_matrix_inverse(rows, 3)
            if fp_rank(rows, 3) < 2:
                assert inverse is None
            else:
                assert [[sum(r[k] * inverse[k][j] for k in range(2)) % 3 for j in range(2)] for r in rows] == identity

    def test_direct_sum(self):
        amb = ring(2, "x")
        M = cyclic_module(amb, [amb.var("x")])
        D = direct_sum([M, M, free_module(amb, 1)])
        assert D.ngens == 3
        assert fp_dimension(M) == 1
