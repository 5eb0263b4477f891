"""Kaehler differentials, the conormal sequence, and canonical volume
complexes of certified-regular rings.

The absolute differentials of R = P/I are presented on dx_1..dx_n with the
Jacobian rows of the ideal generators as relations.  Regularity is never
decided: it is certified by a polynomial ambient or by an exhibited
p-basis, in which case the basis differentials are certified to be a free
basis and the top exterior power a free rank-one module.
"""

from itertools import combinations

from .errors import AlgebraError, NotCertifiedRegular, NotSurjective, SplittingNotFound
from .complexes import rank_one_complex
from .frobenius import is_p_basis
from .groebner import (
    Ideal,
    QuotientRing,
    SpanSolver,
    VectorPoly,
    ambient_of,
    are_inverse,
    elimination_kernel,
    modulus_gens,
    ring_map_is_surjective,
    syzygies,
)
from .modules import (
    FPModule,
    ModuleMap,
    _det,
    cokernel,
    exterior_power,
    free_module,
    hom_module,
    is_isomorphism,
    kernel_with_inclusion,
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


class ConormalData:
    """The sequence 0 -> J/J^2 -> R tensor Omega_S -> Omega_R -> 0 with an
    explicit splitting of the right map."""

    def __init__(self, conormal, middle, omega, alpha, beta, theta, rseq, quotient):
        self.conormal = conormal
        self.middle = middle
        self.omega = omega
        self.alpha = alpha
        self.beta = beta
        self.theta = theta
        self.rseq = rseq
        self.quotient = quotient


def conormal_sequence(pi, rseq=None):
    """Conormal data for a surjection pi: S ->> R of certified-regular
    rings, S a polynomial ring.  Exactness is certified by explicit
    kernel/cokernel computations; theta is found by lifting the identity
    through composition with the quotient map."""
    S = pi.source
    if isinstance(S, QuotientRing):
        raise AlgebraError("conormal machinery expects a polynomial source")
    if not ring_map_is_surjective(pi):
        raise NotSurjective("the presentation map is not surjective")
    J = elimination_kernel(pi)
    if rseq is None:
        rseq = list(J.gens)
    else:
        check = Ideal(S, list(rseq))
        if not check.equals(J):
            raise AlgebraError("supplied sequence does not generate the kernel")
    Rq = QuotientRing(S, J)
    n = S.nvars
    c = len(rseq)
    syz = syzygies([VectorPoly(S, [r]) for r in rseq]) if rseq else []
    conormal = FPModule(Rq, c, syz)
    middle = free_module(Rq, n)
    K = KahlerModule(Rq)
    omega = K.module
    alpha = ModuleMap(
        conormal,
        middle,
        [VectorPoly(S, [r.derivative(i) for i in range(n)]) for r in rseq],
        check=True,
    )
    beta = ModuleMap(middle, omega, [omega.gen(j) for j in range(n)], check=False)
    # exactness certificates
    if not beta.compose(alpha).is_zero_map():
        raise AlgebraError("conormal sequence composite is not zero")
    coker_beta = cokernel(beta)
    if not coker_beta.is_zero_module():
        raise NotSurjective("differential surjectivity failed; inputs not as expected")
    kerb, incl = kernel_with_inclusion(beta)
    cols = []
    into = SpanSolver(incl.columns, Rq, n)
    for j in range(conormal.ngens):
        coords = into.solve(alpha.columns[j])
        if coords is None:
            raise AlgebraError("conormal image misses the kernel; not exact")
        cols.append(coords)
    into_kernel = ModuleMap(conormal, kerb, cols, check=True)
    if not is_isomorphism(into_kernel):
        raise AlgebraError("conormal sequence is not exact on the left; not lci input")
    # splitting theta: solve beta_* (theta) = id in Hom(omega, -)
    hom_om = hom_module(omega, middle)
    hom_oo = hom_module(omega, omega)
    beta_cols = []
    for i in range(hom_om.ngens):
        comp = beta.compose(hom_om.decode(i))
        coords = hom_oo.encode(comp)
        if coords is None:
            raise AlgebraError("postcomposition failed to encode")
        beta_cols.append(coords)
    id_coords = hom_oo.encode(ModuleMap.identity(omega))
    if id_coords is None:
        raise AlgebraError("identity failed to encode")
    sol = SpanSolver(beta_cols, Rq, hom_oo.ngens, extra=hom_oo.relations).solve(id_coords)
    if sol is None:
        raise SplittingNotFound("no splitting of the conormal sequence; non-lci input?")
    theta = hom_om.decode(sol)
    # theta is a section: beta o theta = id on omega
    check = beta.compose(theta) - ModuleMap.identity(omega)
    if not check.is_zero_map():
        raise AlgebraError("conormal splitting is not a section")
    return ConormalData(conormal, middle, omega, alpha, beta, theta, list(rseq), Rq)


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
