"""Free complexes: signs, cohomology, RHom, chain maps, liftings."""

import pytest

from fpduality.errors import AlgebraError
from fpduality.complexes import (
    ChainMap,
    FreeComplex,
    certify_degreewise,
    cohomology,
    free_resolution,
    hom_complex,
    koszul_complex,
    lift_chain_map,
    lift_map_of_resolutions,
    rank_one_complex,
    resolution_complex,
    rhom_to_module,
    shift,
    solve_in_span,
    tensor_complex,
)
from fpduality.groebner import QuotientRing, VectorPoly, combine
from fpduality.modules import (
    FPModule,
    ModuleMap,
    cyclic_module,
    direct_sum,
    free_module,
    is_isomorphism,
)
from fpduality.polyring import PolyRing


def ring(p, *names):
    return PolyRing(p, names)


def fp_dim(M, probe=8):
    from fpduality.groebner import leading_term
    from fpduality.modules import _monomials_of_degree

    amb = M.ambient
    leads = [leading_term(v, amb.order) for v in M.relgb().basis]
    count = 0
    for d in range(probe + 1):
        for j in range(M.ngens):
            for mono in _monomials_of_degree(amb.nvars, d):
                if not any(
                    pos == j and all(x <= y for x, y in zip(lm, mono))
                    for (pos, lm, _c) in leads
                ):
                    count += 1
    return count


class TestConstruction:
    def test_dd_zero_enforced(self):
        S = ring(2, "x")
        x = S.var("x")
        with pytest.raises(AlgebraError):
            FreeComplex(
                S,
                {0: 1, 1: 1, 2: 1},
                {0: [VectorPoly(S, [x])], 1: [VectorPoly(S, [x])]},
            )

    def test_koszul_is_complex(self):
        S = ring(2, "x", "y", "z")
        K = koszul_complex(S, list(S.gens()))
        assert [K.rank(-j) for j in range(4)] == [1, 3, 3, 1]

    def test_shift_involution(self):
        S = ring(3, "x")
        x = S.var("x")
        T = FreeComplex(S, {0: 1, 1: 1}, {0: [VectorPoly(S, [x])]})
        U = shift(shift(T, 2), -2)
        assert U.terms == T.terms
        assert U.diffs[0][0] == T.diffs[0][0]


class TestCohomology:
    def test_zero_differentials(self):
        S = ring(2, "x")
        T = FreeComplex(S, {0: 2, 1: 1}, {})
        rep = cohomology(T)
        assert fp_dim(rep.degrees[0].module, 2) > 0
        assert rep.degrees[0].module.ngens == 2

    def test_identity_differential_acyclic(self):
        S = ring(2, "x")
        T = FreeComplex(S, {0: 1, 1: 1}, {0: [VectorPoly(S, [S.one()])]})
        rep = cohomology(T)
        assert rep.nonzero_degrees() == []

    def test_koszul_resolution_cohomology(self):
        S = ring(2, "x", "y")
        K = koszul_complex(S, list(S.gens()))
        rep = cohomology(K)
        assert rep.nonzero_degrees() == [0]
        H0 = rep.degrees[0].module
        # H^0 = S/(x,y): one generator, F_2-dimension 1
        assert fp_dim(H0) == 1

    def test_koszul_terms_are_labelled_by_subsets(self):
        S = ring(2, "x", "y", "z")
        K = koszul_complex(S, list(S.gens()))
        assert K.bases[0].labels == [()]
        assert K.bases[-1].labels == [(0,), (1,), (2,)]
        assert K.bases[-2].labels == [(0, 1), (0, 2), (1, 2)]
        assert K.bases[-3].labels == [(0, 1, 2)]
        assert all(len(K.bases[d]) == K.rank(d) for d in K.degrees())

    def test_nonregular_sequence_has_lower_homology(self):
        S = ring(2, "x", "y")
        x, y = S.gens()
        K = koszul_complex(S, [x, x * y])
        rep = cohomology(K)
        assert -1 in rep.nonzero_degrees()


class TestHomTensor:
    def test_tensor_with_unit(self):
        S = ring(2, "x")
        x = S.var("x")
        T = FreeComplex(S, {0: 1, 1: 1}, {0: [VectorPoly(S, [x])]})
        U = tensor_complex(T, rank_one_complex(S, 0))
        assert U.terms == T.terms
        assert U.diffs[0][0] == T.diffs[0][0]

    def test_hom_koszul_self(self):
        # H^0 of Hom(Koszul(x), Koszul(x)) is rank 1, represented by the
        # identity chain map (Ext^1 of the self-extension is also nonzero)
        S = ring(2, "x")
        x = S.var("x")
        K = koszul_complex(S, [x])
        H = hom_complex(K, K)
        rep = cohomology(H)
        assert 0 in rep.nonzero_degrees()
        b0 = H.bases[0]
        ident = [S.zero()] * len(b0)
        for (i, a, b) in b0.labels:
            if a == b:
                ident[b0.position[(i, a, b)]] = S.one()
        ident_vec = VectorPoly(S, ident)
        h0 = rep.degrees[0]
        coords = h0.coords_of_cocycle(ident_vec)
        assert coords is not None
        expect = cyclic_module(S, [x])
        iso = ModuleMap(expect, h0.module, [coords])
        assert is_isomorphism(iso)

    def test_shift_tensor_sign_coherence(self):
        # (T tensor U)[1] equals T[1] tensor U via the identity on basis
        # elements under the fixed sign conventions
        S = ring(3, "x", "y")
        x, y = S.gens()
        T = FreeComplex(S, {0: 1, 1: 1}, {0: [VectorPoly(S, [x])]})
        U = FreeComplex(S, {0: 1, 1: 1}, {0: [VectorPoly(S, [y])]})
        TU = tensor_complex(T, U)
        left = shift(TU, 1)
        T1 = shift(T, 1)
        right = tensor_complex(T1, U)
        maps = {}
        for n in right.degrees():
            tgt = right.bases[n]
            src = TU.bases.get(n + 1)
            cols = [None] * left.rank(n)
            for (i, a, b) in tgt.labels:
                # element of T^{i+1} tensor U^{n-i} on both sides
                pos_src = src.position[(i + 1, a, b)]
                comps = [S.zero()] * len(tgt)
                comps[tgt.position[(i, a, b)]] = S.one()
                cols[pos_src] = VectorPoly(S, comps)
            maps[n] = cols
        cm = ChainMap(left, right, maps)  # verify() checks commutation
        for n in left.degrees():
            assert left.rank(n) == right.rank(n)


class TestRelations:
    """Terms with relations: the Koszul complex on x, y over F_3[x,y] into
    complexes of copies of S/(x^2)."""

    def _koszul_and_quotient(self):
        S = ring(3, "x", "y")
        x, y = S.gens()
        return S, x, koszul_complex(S, [x, y]), cyclic_module(S, [x ** 2])

    def _multiplication_by_x(self, relations):
        # S/(x^2) -x-> S/(x^2) -x-> S/(x^2): d o d = x^2 is zero only modulo x^2
        S, x, _K, Q = self._koszul_and_quotient()
        mult = [VectorPoly(S, [x])]
        rels = {d: Q.relations for d in range(3)} if relations else None
        return FreeComplex(S, {0: 1, 1: 1, 2: 1}, {0: mult, 1: mult}, relations=rels)

    def test_hom_and_tensor_copy_relations_blockwise(self):
        _S, _x, K, Q = self._koszul_and_quotient()
        Y = FreeComplex(Q.ring, {1: 1}, {}, relations={1: Q.relations})
        for C in (hom_complex(K, Y), tensor_complex(K, Y)):
            assert C.degrees() == sorted(C.bases) and len(C.degrees()) == 3
            for n in C.degrees():
                blocks = [Q] * len(C.bases[n])
                assert C.relations[n] == direct_sum(blocks).relations
                assert C.term(n).relations == C.relations[n]

    def test_dd_vanishes_modulo_the_relations(self):
        _S, _x, K, _Q = self._koszul_and_quotient()
        with pytest.raises(AlgebraError):
            self._multiplication_by_x(relations=False)
        Y = self._multiplication_by_x(relations=True)
        for C in (hom_complex(K, Y), tensor_complex(K, Y)):
            nonzero = 0
            for d, cols in C.diffs.items():
                nxt = C.diffs.get(d + 1)
                if nxt is None:
                    continue
                for c in cols:
                    comp = combine(nxt, c.terms.items(), C.ambient, C.rank(d + 2))
                    nonzero += not comp.is_zero()
                    assert C.term(d + 2).element_is_zero(comp)
            assert nonzero

    def test_cohomology_modulo_relations(self):
        # H^0 = (x)/(x^2), H^1 = 0, H^2 = S/(x)
        Y = self._multiplication_by_x(relations=True)
        assert cohomology(Y).nonzero_degrees() == [0, 2]

    def test_first_factor_must_be_free(self):
        _S, _x, K, Q = self._koszul_and_quotient()
        Y = FreeComplex(Q.ring, {0: 1}, {}, relations={0: Q.relations})
        with pytest.raises(AlgebraError):
            hom_complex(Y, K)
        with pytest.raises(AlgebraError):
            tensor_complex(Y, K)


class TestRHom:
    def test_free_resolution_of_free_module(self):
        # no relations: R^2 is its own resolution, of any length
        R = ring(2, "x")
        for length in (None, 1, 3):
            assert free_resolution(R, 2, [], length).terms == {0: 2}

    def test_free_module_identity(self):
        S = ring(2, "x")
        M = free_module(S, 1)
        T = rank_one_complex(S, 0)
        _res, H = rhom_to_module(M, T)
        rep = cohomology(H)
        assert rep.nonzero_degrees() == [0]

    def test_koszul_self_duality(self):
        # M = S/(x,y), T = S[0]: cohomology only in degree 2, H^2 = S/(x,y)
        S = ring(2, "x", "y")
        x, y = S.gens()
        M = cyclic_module(S, [x, y])
        _res, H = rhom_to_module(M, rank_one_complex(S, 0))
        rep = cohomology(H)
        assert rep.nonzero_degrees() == [2]
        H2 = rep.degrees[2].module
        expect = cyclic_module(S, [x, y])
        assert H2.ngens == 1
        iso = ModuleMap(expect, H2, [H2.gen(0)])
        assert is_isomorphism(iso)

    def test_two_term_case_char3(self):
        # M = S/(x^2), T = Omega_S[1] in degree -1 over F_3[x]: H^0 = S/(x^2)
        S = ring(3, "x")
        x = S.var("x")
        M = cyclic_module(S, [x ** 2])
        T = rank_one_complex(S, -1)
        _res, H = rhom_to_module(M, T)
        rep = cohomology(H)
        assert rep.nonzero_degrees() == [0]
        assert fp_dim(rep.degrees[0].module) == 2

    def test_resolution_independence(self):
        # same module, redundant presentation: certified-isomorphic RHom
        S = ring(2, "x", "y")
        x, y = S.gens()
        M1 = FPModule(S, 1, [VectorPoly(S, [x]), VectorPoly(S, [y])])
        M2 = FPModule(
            S, 1, [VectorPoly(S, [x]), VectorPoly(S, [y]), VectorPoly(S, [x + y])]
        )
        T = rank_one_complex(S, 0)
        res1, H1 = rhom_to_module(M1, T)
        res2, H2 = rhom_to_module(M2, T)
        rep1, rep2 = cohomology(H1), cohomology(H2)
        assert rep1.nonzero_degrees() == rep2.nonzero_degrees() == [2]
        # compare through a lifted chain map of the resolutions
        lifted = lift_map_of_resolutions(
            [VectorPoly(S, [S.one()])], res2, res1, S
        )
        # Hom(-, T) of the lifted map, degreewise transpose with signs
        hmaps = {}
        for n in H1.degrees():
            b1 = H1.bases.get(n)
            b2 = H2.bases.get(n)
            if b1 is None:
                continue
            cols = []
            for (i, a, b) in b1.labels:
                comps = [S.zero()] * (len(b2) if b2 else 0)
                if b2 is not None:
                    for (i2, a2, b2i) in b2.labels:
                        if i2 != i or b2i != b:
                            continue
                        entry = lifted.column(i, a2).components[a]
                        if not entry.is_zero():
                            comps[b2.position[(i2, a2, b2i)]] = entry
                cols.append(VectorPoly(S, comps))
            hmaps[n] = cols
        cm = ChainMap(H1, H2, hmaps)
        assert certify_degreewise({2: rep1.degrees[2]}, {2: rep2.degrees[2]}, cm.apply) == {2: True}


class TestLifting:
    def test_lift_identity_between_presentations(self):
        S = ring(2, "x")
        x = S.var("x")
        M1 = FPModule(S, 1, [VectorPoly(S, [x ** 2])])
        M2 = FPModule(S, 1, [VectorPoly(S, [x ** 2]), VectorPoly(S, [x ** 3])])
        r1 = resolution_complex(M1)
        r2 = resolution_complex(M2)
        cm = lift_map_of_resolutions([VectorPoly(S, [S.one()])], r1, r2, S)
        assert cm.source is r1

    def test_induced_map_on_cohomology(self):
        S = ring(2, "x")
        x = S.var("x")
        K = koszul_complex(S, [x])
        rep = cohomology(K)
        cm = ChainMap(K, K, {0: [VectorPoly(S, [x])], -1: [VectorPoly(S, [x])]})
        h = rep.degrees[0]
        f = ModuleMap(h.module, h.module, h.classes_of(cm.apply(0, v) for v in h.reps), check=True)
        # multiplication by x on S/(x) is zero, so not an isomorphism
        assert f.is_zero_map()
        assert certify_degreewise({0: h}, {0: h}, cm.apply) == {0: False}

    def test_repeated_lifts_into_one_target_agree(self):
        # the second lift reuses the target's per-degree span bases
        S = ring(3, "x", "y")
        x, y = S.gens()
        r1 = resolution_complex(cyclic_module(S, [x ** 2, y ** 3]))
        r2 = resolution_complex(cyclic_module(S, [x, y]))
        f0 = [VectorPoly(S, [S.one()])]
        first = lift_chain_map(f0, r1, r2, S)
        second = lift_chain_map(f0, r1, r2, S)
        assert first.maps == second.maps

    def test_span_solver_cached_only_for_own_ring(self):
        S = ring(3, "x", "y")
        x, y = S.gens()
        A = QuotientRing(S, [x * y])
        T = koszul_complex(A, [x, y])
        same = QuotientRing(ring(3, "x", "y"), [x * y])
        assert same == A and same is not A
        cached = T.span_solver(-1, A)
        assert T.span_solver(-1, A) is cached
        other = T.span_solver(-1, same)
        assert other is not cached and T.span_solver(-1, same) is not other
        for f in (x, y, x + y, x ** 2 - y, S.one(), S.zero()):
            v = VectorPoly(S, [f])
            expected = solve_in_span(v, T.diffs[-1], A, 1)
            assert cached.solve(v) == other.solve(v) == expected


class TestCertifyDegreewise:
    """The per-degree quasi-isomorphism certificate on the Koszul complex
    of x over F_2[x]: H^-1 = 0 and H^0 = S/(x)."""

    def _koszul(self):
        S = ring(2, "x")
        x = S.var("x")
        K = koszul_complex(S, [x])
        return S, x, K, cohomology(K).degrees

    def test_missing_degree_needs_zero_cohomology(self):
        _S, _x, _K, h = self._koszul()

        def never(d, v):
            raise AssertionError("no degree is present on both sides")

        assert certify_degreewise({-1: h[-1]}, {}, never) == {-1: True}
        assert certify_degreewise({}, {0: h[0]}, never) == {0: False}

    def test_identity_and_non_isomorphism(self):
        S, x, K, h = self._koszul()
        ident = ChainMap(K, K, {0: [VectorPoly(S, [S.one()])], -1: [VectorPoly(S, [S.one()])]})
        assert certify_degreewise(h, h, ident.apply) == {-1: True, 0: True}
        # multiplication by x is zero on H^0 = S/(x) != 0
        times_x = ChainMap(K, K, {0: [VectorPoly(S, [x])], -1: [VectorPoly(S, [x])]})
        assert certify_degreewise(h, h, times_x.apply) == {-1: True, 0: False}

    def test_no_induced_map_is_not_certified(self):
        # S in degree -1 has H^-1 = S and no H^0; its generator sent into
        # K, where it maps to x, is no cocycle, so degree -1 has no induced
        # map, and H^0 = S/(x) has no source
        S, _x, _K, h = self._koszul()
        line = cohomology(rank_one_complex(S, -1)).degrees
        assert certify_degreewise(line, h, lambda d, v: v) == {-1: False, 0: False}

    def test_image_off_the_cocycles_is_not_certified(self):
        # T: S^2 -> S by (x, 0) has H^-1 = S e_2, the same module as H^-1
        # of S in degree -1; the generator sent to e_2 certifies, sent to
        # e_1 (d e_1 = x) it is no cocycle and leaves the degree uncertified
        S, x, _K, _h = self._koszul()
        T = FreeComplex(S, {-1: 2, 0: 1}, {-1: [VectorPoly(S, [x]), VectorPoly(S, [S.zero()])]})
        h_T = {-1: cohomology(T).degrees[-1]}
        line = cohomology(rank_one_complex(S, -1)).degrees
        onto_e2 = lambda d, v: VectorPoly(S, [S.zero(), v.components[0]])
        onto_e1 = lambda d, v: VectorPoly(S, [v.components[0], S.zero()])
        assert certify_degreewise(line, h_T, onto_e2) == {-1: True}
        assert certify_degreewise(line, h_T, onto_e1) == {-1: False}
