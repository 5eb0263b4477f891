"""Kaehler differentials and canonical volume complexes of
certified-regular rings.

The absolute differentials of R = P/I are presented on dx_1..dx_n with the
Jacobian rows of the ideal generators as relations.  Regularity is never
decided: it is certified by a polynomial ambient or by an exhibited
p-basis, in which case the basis differentials are certified to be a free
basis and the top exterior power a free rank-one module.
"""

from itertools import combinations

from .errors import NotCertifiedRegular
from .complexes import rank_one_complex
from .frobenius import is_p_basis
from .groebner import (
    QuotientRing,
    VectorPoly,
    ambient_of,
    are_inverse,
    modulus_gens,
)
from .modules import (
    FPModule,
    ModuleMap,
    _det,
    exterior_power,
    free_module,
    is_isomorphism,
)


class KahlerModule:
    """Omega_{R/F_p} with its Jacobian presentation and the d operator."""

    def __init__(self, R):
        amb = ambient_of(R)
        n = amb.nvars
        rows = []
        for g in modulus_gens(R):
            rows.append(VectorPoly(amb, [g.derivative(i) for i in range(n)]))
        self.ambient = amb
        self.jacobian = rows
        self.module = FPModule(R, n, rows)

    def d(self, f):
        """df as a coordinate vector on dx_1..dx_n."""
        amb = self.ambient
        vec = VectorPoly(amb, [f.derivative(i) for i in range(amb.nvars)])
        return self.module.nf(vec)


class CanonicalOmega:
    """Top exterior power of the differentials in cochain degree -n."""

    def __init__(self, ring, n, complex_, generator_label):
        self.ring = ring
        self.n = n
        self.complex = complex_
        self.generator_label = generator_label

    @property
    def degree(self):
        return -self.n


def wedge_coordinates(amb, vectors, subsets):
    """Coordinates of v_1 ^ ... ^ v_k on the k-subset basis of R^n."""
    comps = [v.components for v in vectors]
    out = []
    for T in subsets:
        rows = [[c[t] for t in T] for c in comps]
        out.append(_det(amb, rows))
    return out


def certify_pbasis_via_iso(p_basis, iso, inv):
    """Certify a p-basis by transport along an explicit isomorphism onto a
    polynomial ring whose variables are the images of the tuple.

    Checks that both composites are the identity on ring generators and
    that iso(b_i) is the i-th target variable; a p-basis is intrinsic, so
    it transports along any ring isomorphism."""
    target = iso.target
    if isinstance(target, QuotientRing) or not are_inverse(iso, inv):
        return False
    if len(p_basis) != target.nvars:
        return False
    for i, b in enumerate(p_basis):
        if not (iso.apply(b) - target.var(i)).is_zero():
            return False
    return True


def canonical_omega_regular(R, p_basis=None, pbasis_via_iso=None):
    """The volume complex Lambda^n Omega_R [n] of a certified-regular ring.

    For a polynomial ring the variables are the differential basis.  For a
    quotient, an exhibited p-basis is required; its differentials are
    certified to be a free basis and the top wedge a free generator.  The
    p-basis property itself is certified either directly (restricted
    monomial coordinates) or by transport along an explicit isomorphism
    onto a polynomial ring (pbasis_via_iso=(iso, inv))."""
    amb = ambient_of(R)
    if not isinstance(R, QuotientRing):
        n = amb.nvars
        return CanonicalOmega(R, n, rank_one_complex(R, -n), wedge_label(amb.variables))
    if p_basis is None:
        raise NotCertifiedRegular(
            "a quotient ring needs an exhibited p-basis to certify regularity"
        )
    if pbasis_via_iso is not None:
        iso, inv = pbasis_via_iso
        if not certify_pbasis_via_iso(list(p_basis), iso, inv):
            raise NotCertifiedRegular("the isomorphism certificate does not check out")
    elif not is_p_basis(R, list(p_basis)):
        raise NotCertifiedRegular("the exhibited tuple is not a p-basis")
    n = len(p_basis)
    K = KahlerModule(R)
    # the basis differentials freely generate Omega_R
    dcols = [K.d(b) for b in p_basis]
    basis_map = ModuleMap(free_module(R, n), K.module, dcols, check=False)
    if not is_isomorphism(basis_map):
        raise NotCertifiedRegular("p-basis differentials do not form a free basis")
    lam = exterior_power(K.module, n)
    subsets = list(combinations(range(amb.nvars), n))
    wedge = VectorPoly(amb, wedge_coordinates(amb, dcols, subsets))
    gen_map = ModuleMap(free_module(R, 1), lam, [wedge], check=False)
    if not is_isomorphism(gen_map):
        raise NotCertifiedRegular("top wedge of the p-basis is not a free generator")
    return CanonicalOmega(R, n, rank_one_complex(R, -n), wedge_label([str(b) for b in p_basis]))


def wedge_label(names):
    if not names:
        return "1"
    return "^".join("d%s" % s for s in names)
