"""Explicit duality: the fundamental local isomorphism, shriek pullbacks
along finite and polynomial maps, the xi comparison maps, canonical
dualizing complexes, presentation independence and Frobenius duality.

Everything is certified through explicit maps: eta is a signed permutation
of complexes (signs fixed by propagation and machine-verified), xi maps are
wedge-coefficient computations followed by residue extraction along a
monic triangular system, and every claimed isomorphism of modules is
backed by an explicit inverse (is_isomorphism).
"""

from itertools import combinations, product

from .complexes import (
    ChainMap,
    HDegree,
    certify_degreewise,
    cohomology,
    hom_complex,
    hom_transpose_chain_map,
    hom_transpose_vector,
    invert_monomial_chain_map,
    koszul_complex,
    lift_chain_map,
    rank_one_complex,
    rhom_to_module,
    shift,
    tensor_complex,
)
from .differentials import (
    KahlerModule,
    canonical_omega_regular,
    conormal_sequence,
    wedge_coordinates,
    wedge_label,
)
from .errors import (
    AlgebraError,
    NotCertifiedRegular,
    NotFinite,
    NotRegularSequence,
    NotSurjective,
    RingMismatch,
    ZeroRing,
)
from .fp import inv_mod
from .frobenius import (
    bracket_power_complex,
    frobenius_pushforward,
    generates_freely,
    pushforward_basis,
    pushforward_complex,
    pushforward_module,
    pushforward_vector,
)
from .groebner import (
    Ideal,
    QuotientRing,
    SpanSolver,
    adjoin_variables,
    ambient_of,
    as_quotient,
    elimination_kernel,
    groebner_basis,
    modulus_gens,
    nonzero_slots,
    normal_form,
    preimage,
    rename_poly,
    ring_map_is_surjective,
    unit_vector,
    vector_of,
)
from .modules import (
    FPModule,
    ModuleMap,
    _det,
    cyclic_module,
    free_module,
    hom_module,
    is_isomorphism,
    prune,
)
from .polyring import MonomialOrder, PolyRing, Polynomial, RingMap


# ---------------------------------------------------------------------------
# fundamental local isomorphism

def _complement(T, c):
    return tuple(i for i in range(c) if i not in T)


def _koszul_duality_signs(c):
    """rho(T) with rho(full) = 1 satisfying the propagation rule that makes
    e_T^dual |-> rho(T) e_{T^c} a chain map; consistency is asserted."""
    rho = {(): 1}
    subsets = [()]
    for j in range(1, c + 1):
        subsets.extend(combinations(range(c), j))
    for T in subsets:
        if T == ():
            continue
        # reach T by adding its largest element u to T' = T - {u}
        u = T[-1]
        Tp = T[:-1]
        j = len(Tp)
        # sigma(u, T' u u): position of u in the sorted union
        pos_in_union = sorted(Tp + (u,)).index(u)
        sigma_union = (-1) ** pos_in_union
        comp_p = _complement(Tp, c)
        pos_in_comp = comp_p.index(u)
        sigma_comp = (-1) ** pos_in_comp
        val = -((-1) ** (c - j)) * sigma_comp * sigma_union * rho[Tp]
        rho[T] = val
    full = tuple(range(c))
    scale = rho[full]
    return {T: v * scale for T, v in rho.items()}


class EtaData:
    """The comparison Hom(K, M) -> twist tensor (K tensor M)[-c]."""

    def __init__(self, lhs, rhs, chain_map, reports, certified):
        self.lhs = lhs
        self.rhs = rhs
        self.chain_map = chain_map
        self.reports = reports
        self.certified = certified


def fli_eta(S, rseq, M):
    """Fundamental local isomorphism for a regular sequence, realized as a
    signed bijection of complexes on Koszul representatives.

    Regularity is certified by Koszul acyclicity; the normalization sends
    the class of the top dual generator to +1 times the complementary
    basis, matching the descending wedge convention downstream."""
    rseq = list(rseq)
    c = len(rseq)
    K = koszul_complex(S, rseq)
    reg = cohomology(K)
    if reg.nonzero_degrees() not in ([0], []):
        raise NotRegularSequence("Koszul complex has homology below the top")
    lhs = hom_complex(K, M)
    tensor = tensor_complex(K, M)
    rhs = shift(tensor, -c)
    rho = _koszul_duality_signs(c)
    amb = ambient_of(S)
    p = amb.p
    maps = {}
    for n in lhs.degrees():
        bi = lhs.bases.get(n)
        if bi is None:
            continue
        tgt = tensor.bases.get(n - c)
        cols = []
        for (i, a, b) in bi.labels:
            j = -i
            T = K.bases[i].labels[a]
            comp = _complement(T, c)
            i_m = n + i  # degree of the M-part
            sign = rho[T] * ((-1) ** ((j % 2) * (i_m % 2)))
            if tgt is None:
                cols.append(vector_of(amb, 0, ()))
            else:
                pos = tgt.position[(-(c - j), K.bases[-(c - j)].position[comp], b)]
                cols.append(unit_vector(amb, len(tgt), pos, amb.const(sign % p)))
        maps[n] = cols
    cm = ChainMap(lhs, rhs, maps)
    lrep = cohomology(lhs)
    rrep = cohomology(rhs)
    certified = certify_degreewise(lrep.degrees, rrep.degrees, cm.apply)
    return EtaData(lhs, rhs, cm, (lrep, rrep), certified)


def ext_two_pipelines(S, rseq, M):
    """Ext of S/(rseq) into M along two routes: the Koszul model and the
    Buchberger resolution, with a certified comparison in each degree."""
    A = cyclic_module(S, rseq)
    K = koszul_complex(S, rseq)
    HK = hom_complex(K, M)
    res, HR = rhom_to_module(A, M)
    repK = cohomology(HK)
    repR = cohomology(HR)
    # lift the identity between the two resolutions of S/(rseq); its
    # Hom(-, M) transpose runs Hom(res, M) -> Hom(K, M)
    lifted = lift_chain_map([unit_vector(ambient_of(S), 1, 0)], K, res, S)
    cm = hom_transpose_chain_map(lifted, HR, HK)
    certified = certify_degreewise(repR.degrees, repK.degrees, cm.apply)
    return repK, repR, certified


# ---------------------------------------------------------------------------
# shriek functors for the basic shapes

def upper_shriek_smooth(R, T, d):
    """f^sharp along R -> R[y_1..y_d]: base change and twist by the top
    relative forms in degree -d."""
    if d == 0:
        return T, None
    if isinstance(R, QuotientRing):
        raise AlgebraError("polynomial extensions are taken over polynomial rings here")
    big, idx = adjoin_variables(R, ["y%d" % (i + 1) for i in range(d)])
    Tup = T.renamed(big, idx)
    return tensor_complex(rank_one_complex(big, -d), Tup), big


def upper_shriek_finite(f, T):
    """f^flat = RHom along a finite map.

    Supported shapes: the identity, surjections (resolve the target as a
    module over the source), and Frobenius (handled by its own machinery in
    verify_frobenius_duality).  Other finite maps go through
    xi_via_factorization, which carries its own model."""
    src, tgt = f.source, f.target
    if isinstance(src, QuotientRing):
        raise NotFinite("finite shriek expects a polynomial source here")
    same = ambient_of(tgt) == src and all(
        f.images[i] == src.var(i) for i in range(src.nvars)
    )
    if same and not isinstance(tgt, QuotientRing):
        return T
    if not ring_map_is_surjective(f):
        raise NotFinite("only surjections and Frobenius are supported directly")
    return rhom_to_module(cyclic_module(src, elimination_kernel(f).gens), T)[1]


# ---------------------------------------------------------------------------
# xi maps

class XiIso:
    """An explicit comparison map with its certificate and trace data."""

    def __init__(self, functional, data):
        self.functional = functional
        self.data = data

    @property
    def certified(self):
        return self.data.get("certified", False)


def xi_smooth_sign(m, d, p):
    """Reordering sign moving the m base differentials past d fibre ones."""
    return ((-1) ** (m * d)) % p


def xi_smooth(R, d):
    """The smooth comparison for R -> R[y_1..y_d] at generator level:
    the volume form upstairs maps to (fibre volume) tensor (base volume)
    with the block reordering sign."""
    amb = ambient_of(R)
    if isinstance(R, QuotientRing):
        raise NotCertifiedRegular("smooth comparisons run over polynomial rings here")
    big, _idx = adjoin_variables(R, ["y%d" % (i + 1) for i in range(d)])
    m = amb.nvars
    sign = xi_smooth_sign(m, d, amb.p)
    return XiIso(
        None,
        {
            "fibre_volume": wedge_label(big.variables[m:]),
            "sign": sign,
            "certified": True,
        },
    )


def xi_lci_class(pi, target_pbasis, rseq=None, pbasis_via_iso=None, theta_columns=None):
    """The lci comparison: omega_T -> f^flat omega_S on Koszul
    representatives; returns the coefficient against the top dual
    generator and the certified class data.

    theta_columns may supply an explicit splitting of the conormal
    sequence (one middle-term column per differential generator); it is
    verified to be a well-defined section before use, and replaces the
    generic Hom-solve."""
    S = pi.source
    amb = ambient_of(S)
    n = amb.nvars
    if theta_columns is None:
        cono = conormal_sequence(pi, rseq)
        Rq = cono.quotient
        rs = cono.rseq
        theta = cono.theta
        K = KahlerModule(Rq)
    else:
        if rseq is None:
            raise AlgebraError("an explicit splitting needs the regular sequence")
        rs = list(rseq)
        J = elimination_kernel(pi)
        if not Ideal(S, rs).equals(J):
            raise AlgebraError("supplied sequence does not generate the kernel")
        Rq = QuotientRing(S, rs)
        K = KahlerModule(Rq)
        middle = free_module(Rq, n)
        theta = ModuleMap(K.module, middle, theta_columns, check=True)
        beta = ModuleMap(middle, K.module, [K.module.gen(j) for j in range(n)], check=False)
        section = beta.compose(theta) - ModuleMap.identity(K.module)
        if not section.is_zero_map():
            raise AlgebraError("supplied splitting is not a section")
    c = len(rs)
    pb = [Rq.reduce(b) for b in target_pbasis]
    om_T = canonical_omega_regular(Rq, p_basis=pb, pbasis_via_iso=pbasis_via_iso)
    m = om_T.n
    if m + c != n:
        raise AlgebraError("p-basis length does not match the codimension")
    theta_cols = [theta.apply_coords(K.d(b)) for b in pb]
    rows = [[rs[c - 1 - k].derivative(i) for i in range(n)] for k in range(c)]
    rows += [list(tc.components) for tc in theta_cols]
    lam = Rq.reduce(_det(amb, rows))
    om_S = canonical_omega_regular(S)
    KZ = koszul_complex(S, rs)
    flat = hom_complex(KZ, om_S.complex)
    rep = cohomology(flat, over=Rq)
    h = rep.degrees.get(-m)
    if h is None:
        raise AlgebraError("expected cohomology in degree %d" % (-m))
    bi = flat.bases[-m]
    top_index = KZ.bases[-c].position[tuple(range(c))]
    cocycle = unit_vector(amb, len(bi), bi.position[(-c, top_index, 0)], lam)
    coords = h.coords_of_cocycle(cocycle)
    if coords is None:
        raise AlgebraError("lci class is not a cocycle class; convention bug")
    source = free_module(Rq, 1)
    cand = ModuleMap(source, h.module, [coords], check=False)
    certified = is_isomorphism(cand)
    return XiIso(
        None,
        {
            "lambda": lam,
            "rseq": rs,
            "omega_T": om_T,
            "omega_S": om_S,
            "complex": flat,
            "report": rep,
            "class_coords": coords,
            "cocycle": cocycle,
            "quotient": Rq,
            "certified": certified,
        },
    )


# ---------------------------------------------------------------------------
# monic triangular systems and residues

def _y_first_lex(Sy, n_base, d):
    """Sy reordered for lex with y_d > ... > y_1 > base block; returns the
    ring and the index maps there and back."""
    perm = [n_base + j for j in reversed(range(d))] + list(range(n_base))
    big = PolyRing(Sy.p, [Sy.variables[i] for i in perm], MonomialOrder("lex"))
    fwd = [0] * Sy.nvars
    for newpos, old in enumerate(perm):
        fwd[old] = newpos
    return big, fwd, perm


def monic_triangular_system(Sy, J, n_base, d):
    """t_j in J monic in y_j with coefficients in the earlier variables.

    Sy has the base variables first and the y-block last; candidates are
    read off a lex Groebner basis with y_d > ... > y_1 > base block."""
    if d == 0:
        return []
    big, fwd, back = _y_first_lex(Sy, n_base, d)
    gb = groebner_basis([rename_poly(g, big, fwd) for g in J.gens])
    system = [None] * d
    for g in gb:
        f = rename_poly(g, Sy, back)
        used = [j for j in range(d) if any(m[n_base + j] for m in f.terms)]
        if not used:
            continue
        j = max(used)
        deg = max(m[n_base + j] for m in f.terms)
        tops = [(m, cf) for m, cf in f.terms.items() if m[n_base + j] == deg]
        if len(tops) != 1:
            continue
        mono, cf = tops[0]
        if any(e for i, e in enumerate(mono) if i != n_base + j):
            continue
        if system[j] is None or deg < system[j][0]:
            system[j] = (deg, f.scale(inv_mod(cf, Sy.p)))
    if any(s is None for s in system):
        raise NotFinite("no monic triangular system found; map not finite as presented")
    return [s[1] for s in system]


def residue_top_coefficient(u, tsystem, Sy, n_base, d):
    """Reduce u modulo the triangular system and extract the coefficient of
    the top monomial y^(deg-1) as a polynomial in the base variables."""
    degs = []
    for j, t in enumerate(tsystem):
        degs.append(max(m[n_base + j] for m in t.terms))
    # the t_i have pairwise coprime pure-power leading terms under lex with
    # the y-block dominant, so they form a Groebner basis already; reduce
    # in a lex ring where the y-block dominates
    big, fwd, back = _y_first_lex(Sy, n_base, d)
    tl = [rename_poly(t, big, fwd) for t in tsystem]
    nf = normal_form(rename_poly(u, big, fwd), tl)
    r = rename_poly(nf, Sy, back)
    target = tuple(dg - 1 for dg in degs)
    amb_base_terms = {}
    for mono, cf in r.terms.items():
        yexp = tuple(mono[n_base + j] for j in range(d))
        if yexp != target:
            continue
        base = mono[:n_base] + (0,) * d
        amb_base_terms[base] = cf
    return Polynomial(Sy, amb_base_terms)


def standard_monomial_basis(tsystem, n_base):
    """Exponents b of the monomials y^b below the triangular degrees, in
    ascending order."""
    degs = [max(m[n_base + j] for m in t.terms) for j, t in enumerate(tsystem)]
    return list(product(*map(range, degs)))


# ---------------------------------------------------------------------------
# xi through a factorization (covers Frobenius powers and the identity)

def xi_via_factorization(R, roots, e):
    """xi for the e-th Frobenius power of a polynomial ring R (e = 0 gives
    the identity), computed through the factorization that adjoins one
    variable per listed root.

    roots must start with the ring variables; extra entries re-adjoin
    redundant p^e-th roots and realize inequivalent factorizations.  The
    result is the functional F_*(x^a) -> omega_R on the canonical restricted
    monomial basis, with the isomorphism certificate."""
    amb = ambient_of(R)
    if isinstance(R, QuotientRing):
        raise AlgebraError("the factorization pipeline expects a polynomial ring")
    n = amb.nvars
    p = amb.p
    q = p ** e
    roots = list(roots)
    for i in range(n):
        if roots[i] != amb.var(i):
            raise AlgebraError("the first roots must be the ring variables")
    d = len(roots)
    ynames = ["y%d" % (j + 1) for j in range(d)]
    Sy, _idx = adjoin_variables(R, ynames)
    # fresh target copy of R
    tnames = ["@c%s" % v for v in amb.variables]
    Tcopy = PolyRing(p, tnames, amb.order)
    tidx = list(range(n))
    g_images = [rename_poly(amb.var(i), Tcopy, tidx) ** q for i in range(n)]
    for m in roots:
        g_images.append(rename_poly(m, Tcopy, tidx))
    g = RingMap(Sy, Tcopy, g_images, check=False)
    if not ring_map_is_surjective(g):
        raise NotSurjective("the chosen roots do not generate the target")
    J = elimination_kernel(g)
    T = QuotientRing(Sy, J)
    pi = RingMap(Sy, T, [T.reduce(Sy.var(i)) for i in range(Sy.nvars)], check=False)
    pbasis = [Sy.var(n + j) for j in range(n)]
    # the monic triangular system is the regular sequence of the lci leg;
    # certify that it generates the kernel before using it
    tsys = monic_triangular_system(Sy, J, n, d)
    if not Ideal(Sy, tsys).equals(J):
        raise NotFinite("triangular system does not present the kernel")
    # the target is a polynomial ring on the adjoined roots: certify the
    # p-basis by the explicit isomorphism instead of a pushforward run
    rho = RingMap(T, Tcopy, list(g.images), check=True)
    rho_inv = RingMap(Tcopy, T, [T.reduce(Sy.var(n + i)) for i in range(n)], check=False)
    # the splitting of the conormal sequence is explicit here: base
    # differentials die (x_j = y_j^{p^e} downstairs) or, for e = 0, split
    # through their partner root; redundant roots split through their
    # defining expressions in the first roots
    theta_cols = [vector_of(Sy, Sy.nvars, () if e >= 1 else [(n + j, Sy.one())]) for j in range(n)]
    yslots = list(range(n, 2 * n))
    theta_cols += [
        vector_of(Sy, Sy.nvars, [(n + j, rename_poly(root.derivative(j), Sy, yslots)) for j in range(n)])
        for root in roots
    ]
    xi = xi_lci_class(
        pi, pbasis, rseq=tsys, pbasis_via_iso=(rho, rho_inv), theta_columns=theta_cols
    )
    lam = xi.data["lambda"]
    c = len(tsys)
    # the lci wedge is descending dr_c..dr_1 while the residue consumes the
    # ascending orientation: reversal factor (-1)^{c(c-1)/2}
    reversal = (-1) ** ((c * (c - 1) // 2) % 2)
    lam_t = T.reduce(lam.scale(reversal % p))
    sign = xi_smooth_sign(n, d, p)
    basis = standard_monomial_basis(tsys, n)
    # residue functional on the y-monomial basis of T over R
    values = {}
    for b in basis:
        mono = [0] * Sy.nvars
        for j, k in enumerate(b):
            mono[n + j] = k
        u = lam_t.mul_term(tuple(mono), sign)
        r_val = residue_top_coefficient(u, tsys, Sy, n, d)
        values[b] = rename_poly(r_val, amb, list(range(n)))
    # dictionary: express the canonical F_* basis in the y-monomial basis
    F = frobenius_pushforward(R, e)
    monos = F.monomials
    push_cols = []
    for b in basis:
        img = Tcopy.one()
        for j, k in enumerate(b):
            if k:
                img = img * (g_images[n + j] ** k)
        push_cols.append(F.coords(rename_poly(img, amb, list(range(n)))))
    functional = []
    basis_change = SpanSolver(push_cols, R, len(monos))
    for a_idx, a in enumerate(monos):
        sol = basis_change.solve(unit_vector(amb, len(monos), a_idx))
        if sol is None:
            raise AlgebraError("basis change to the restricted monomials failed")
        acc = amb.zero()
        for k, cb in nonzero_slots(sol):
            acc = acc + cb * values[basis[k]]
        functional.append(acc)

    def value(c):
        # phi(F_*(x^c)) from the coordinates of F_*(x^c), term by term
        acc = amb.zero()
        for (k, m), coeff in F.coords(amb.monomial(c)).terms.items():
            acc = acc + functional[k].mul_term(m, coeff)
        return acc

    # certificate: the functional freely generates Hom(F_*R, omega_R),
    # exactly as for the trace generator
    certified = generates_freely(R, monos, value)
    return XiIso(
        functional,
        {
            "lambda": lam,
            "monomials": monos,
            "certified": certified and xi.certified,
        },
    )


def xi_factorizations_agree(R, extra_roots, e=1):
    """(agree, xi): xi of the e-th Frobenius power of the polynomial ring R
    through its variables, and whether it and xi through the variables
    followed by extra_roots are both certified with one functional: the
    independence of xi from the factorization."""
    roots = list(R.gens())
    a = xi_via_factorization(R, roots, e)
    b = xi_via_factorization(R, roots + list(extra_roots), e)
    return a.certified and b.certified and a.functional == b.functional, a


# ---------------------------------------------------------------------------
# the Koszul commutation sign

def commutation_signs(p):
    """{(c, d): commutation_sign_check(p, c, d)} on the shapes (1, 1),
    (1, 2) and (2, 1) of the key square."""
    return {(c, d): commutation_sign_check(p, c, d) for c, d in ((1, 1), (1, 2), (2, 1))}


def commutation_sign_check(p, c, d, with_theta_part=True):
    """Element-level comparison of the two composites around the key square
    of the factorization-independence proof.

    One path wedges the descending kernel differentials first and then the
    fibre block; the other moves the fibre block to the front at the cost
    of the factor (-1)^{cd}.  Both coefficients are extracted against the
    volume form by honest determinants; returns True iff they agree."""
    m = 1 if with_theta_part else 0
    names = ["w%d" % (i + 1) for i in range(c)]
    if m:
        names.append("z")
    names += ["x%d" % (k + 1) for k in range(d)]
    S = PolyRing(p, names)
    n = S.nvars
    rows_dr = [unit_vector(S, n, c - 1 - i) for i in range(c)]
    rows_dx = [unit_vector(S, n, c + m + k) for k in range(d)]
    rows_theta = [unit_vector(S, n, c)] if m else []
    subsets = [tuple(range(n))]
    path_a = wedge_coordinates(S, rows_dr + rows_dx + rows_theta, subsets)[0]
    swapped = wedge_coordinates(S, rows_dx + rows_dr + rows_theta, subsets)[0]
    sign = (-1) ** ((c * d) % 2)
    path_b = swapped.scale(sign % p)
    return path_a == path_b


# ---------------------------------------------------------------------------
# canonical dualizing complexes

class DualizingComplex:
    """omega_A as RHom_S(A, omega_S) for a polynomial presentation S ->> A."""

    def __init__(self, ring, complex_, resolution, omega_S):
        self.ring = ring
        self.complex = complex_
        self.resolution = resolution
        self.omega_S = omega_S
        self._report = None

    def cohomology_report(self):
        # the terms are free over the ambient polynomial ring: compute the
        # cohomology there; the quotient-ring structure is recovered on the
        # presentations, whose relations already contain the annihilator
        if self._report is None:
            self._report = cohomology(self.complex)
        return self._report

    def canonical_module_over_ring(self):
        h = self.canonical_module()
        return FPModule(self.ring, h.module.ngens, h.module.relations)

    def lowest_degree(self):
        return self.cohomology_report().lowest_nonzero()

    def canonical_module(self):
        """Lowest nonzero cohomology, the canonical module of the ring."""
        d = self.lowest_degree()
        if d is None:
            raise ZeroRing("the dualizing complex has no cohomology: the ring is zero")
        return self.cohomology_report().degrees[d]


def canonical_dualizing(A, pi=None):
    """RHom_S(A, omega_S) for the ambient presentation, or through a
    supplied surjection pi: S ->> A."""
    if pi is None:
        S, gens = ambient_of(A), modulus_gens(A)
    else:
        S = pi.source
        if isinstance(S, QuotientRing):
            raise AlgebraError("presentations must come from polynomial rings")
        if not ring_map_is_surjective(pi):
            raise NotSurjective("the presentation map is not surjective")
        gens = list(elimination_kernel(pi).gens)
    om = canonical_omega_regular(S)
    res, W = rhom_to_module(cyclic_module(S, gens), om.complex)
    return DualizingComplex(A, W, res, om)


def biduality_certificate(dc):
    """Certify A = Hom_A(omega_A, omega_A) via the explicit unit map."""
    A = dc.ring
    om = dc.canonical_module().module
    H = hom_module(om, om)
    ident = H.encode(ModuleMap.identity(om))
    if ident is None:
        return False
    cand = ModuleMap(free_module(A, 1), H, [ident], check=False)
    return is_isomorphism(cand)


# ---------------------------------------------------------------------------
# presentation independence

class PresentationComparison:
    def __init__(self, certified, degree_lists, chain):
        self.certified = certified
        self.degree_lists = degree_lists
        self.chain = chain


def compare_presentations(A, pi1, pi2):
    """Certified comparison of RHom_{S1}(A, omega_{S1}) and
    RHom_{S2}(A, omega_{S2}) through the joint presentation S1 tensor S2.

    Each side is collapsed from the joint model by evaluating the linear
    Koszul block at the lifted images of the other side's variables; the
    joint models for the two orderings are compared through lifted
    resolutions.  Every link is certified per degree.  Both maps must land
    in A."""
    for pi in (pi1, pi2):
        if as_quotient(pi.target) != as_quotient(A):
            raise RingMismatch("a presentation map does not land in the compared ring")
    side1 = _one_sided_collapse(pi1, pi2)
    side2 = _one_sided_collapse(pi2, pi1)
    # both collapses land on the same joint ring up to variable reordering;
    # compare the two joint models through a renaming plus lifted resolution
    cert12 = _compare_joint_models(side1, side2)
    certified = (
        all(side1["certified"].values())
        and all(side2["certified"].values())
        and all(cert12.values())
    )
    degrees1 = sorted(side1["own_report"].nonzero_degrees())
    degrees2 = sorted(side2["own_report"].nonzero_degrees())
    return PresentationComparison(
        certified and degrees1 == degrees2,
        (degrees1, degrees2),
        (side1, side2, cert12),
    )


def _one_sided_collapse(pi_main, pi_other):
    """Joint model over S_main[y-block] collapsed onto the S_main model."""
    S1 = pi_main.source
    S2 = pi_other.source
    amb1 = ambient_of(S1)
    amb2 = ambient_of(S2)
    n1, n2 = amb1.nvars, amb2.nvars
    if isinstance(S1, QuotientRing):
        raise AlgebraError("polynomial extensions are taken over polynomial rings here")
    S3, idx1 = adjoin_variables(S1, ["@j%s" % v for v in amb2.variables])
    # lifts to amb1 of the images of the other side's variables
    lifts = []
    for target_elt in pi_other.images:
        lift = preimage(pi_main, target_elt)
        if lift is None:
            raise NotSurjective("element has no polynomial preimage; map not onto")
        lifts.append(lift)
    lin = [S3.var(n1 + i) - rename_poly(lifts[i], S3, idx1) for i in range(n2)]
    # the own model over S1; its resolution of A, renamed into S3, starts
    # the joint model
    own = canonical_dualizing(pi_main.target, pi_main)
    J1 = elimination_kernel(pi_main)
    res1_in_S3 = own.resolution.renamed(S3, idx1)
    Klin = koszul_complex(S3, lin)
    joint_res = tensor_complex(res1_in_S3, Klin)
    om3 = canonical_omega_regular(S3)
    W3 = hom_complex(joint_res, om3.complex)
    collapse, sigma = _collapse_linear_block(W3, joint_res, Klin, len(lin), lifts, S1, S3, own.complex)
    A1 = QuotientRing(amb1, J1.gens)
    rep3 = cohomology(W3)
    rep1 = own.cohomology_report()

    def over_a1(h, relations):
        return HDegree(FPModule(A1, h.module.ngens, relations), h.reps, h.solver)

    # the degrees on both sides are compared over A1, the joint side's
    # presentation transported along the section substitution; a degree on
    # one side only is certified by its vanishing, over either ring
    joint, base = dict(rep3.degrees), dict(rep1.degrees)
    for d in set(joint) & set(base):
        transported = [
            vector_of(amb1, r.rank, [(i, sigma(c)) for i, c in nonzero_slots(r)]) for r in joint[d].module.relations
        ]
        joint[d] = over_a1(joint[d], transported)
        base[d] = over_a1(base[d], base[d].module.relations)
    certified = certify_degreewise(joint, base, collapse)
    return {
        "joint_model": W3,
        "joint_res": joint_res,
        "joint_ring": S3,
        "own_model": own.complex,
        "own_report": rep1,
        "joint_report": rep3,
        "certified": certified,
        "index": idx1,
    }


def _collapse_linear_block(W3, joint_res, Klin, d2, lifts, S1, S3, W1):
    """Evaluation-at-the-section collapse from the joint model to the base
    model: keep the components on the top exterior block of the linear
    Koszul factor and substitute y -> lift in the coefficients, the ring
    map S3 -> amb1 fixing x, with the lifts given in amb1.  The
    substitution kills the linear differentials, so this commutes with the
    Hom differentials degreewise with no extra signs."""
    amb1 = ambient_of(S1)
    top_index = Klin.bases[-d2].position[tuple(range(d2))]
    sigma = RingMap(S3, amb1, list(amb1.gens()) + lifts, check=False).apply

    def runner(degree, vec):
        b3 = W3.bases.get(degree)
        b1 = W1.bases.get(degree)
        rank = len(b1) if b1 else 0
        if b3 is None:
            return vector_of(amb1, rank, ())
        entries = []
        for pos, cf in nonzero_slots(vec):
            (i, a, _b) = b3.labels[pos]
            (ji, aa, bb) = joint_res.bases[i].labels[a]
            if (i - ji) != -d2 or bb != top_index:
                continue
            tgt = b1.position.get((ji, aa, 0)) if b1 else None
            if tgt is None:
                raise AlgebraError("collapse target basis mismatch")
            entries.append((tgt, sigma(cf)))
        return vector_of(amb1, rank, entries)

    return runner, sigma


def _compare_joint_models(side1, side2):
    """Certified comparison of the two joint models through a variable
    permutation and a lifted map of resolutions."""
    amb_b = side2["joint_ring"]
    n1 = len(side1["index"])
    n2 = len(side2["index"])
    # side 1's joint ring lists S1-vars then S2-tags, side 2's the reverse
    perm = [n2 + i for i in range(n1)] + list(range(n2))
    Wb = side2["joint_model"]
    res_a = side1["joint_res"]
    res_b = side2["joint_res"]
    res_a_in_b = res_a.renamed(amb_b, perm)
    Wa_in_b = side1["joint_model"].renamed(amb_b, perm)
    lifted = lift_chain_map([unit_vector(amb_b, 1, 0)], res_b, res_a_in_b, amb_b)
    cm = hom_transpose_chain_map(lifted, Wa_in_b, Wb)
    rep_a = cohomology(Wa_in_b)
    return certify_degreewise(rep_a.degrees, side2["joint_report"].degrees, cm.apply)


# ---------------------------------------------------------------------------
# Frobenius duality

class FrobeniusDualityReport:
    def __init__(self, certified):
        self.certified = certified


def verify_frobenius_duality(A, e=1):
    """Certify Hom_A(F_* A, omega_A) = F_* omega_A through the canonical
    candidate.

    The candidate is assembled from the trace pairing on the ambient
    polynomial ring (a signed permutation at the level of free complexes)
    and the duality adjunction along the presentation, realized by the
    multiplication maps lifted to K -> F_*K through one lift K^{[q]} -> K
    (see _frobenius_multiplications).  Certificates: the
    complex-level comparison chi: F_* W -> Hom_S(F_* K, omega_S) is a
    chain isomorphism, checked as a chain map together with an explicit
    inverse whose two composites with it are the identity in every degree;
    and the assembled candidate in the lowest degree, certified as a
    module isomorphism by an explicit inverse (is_isomorphism).  A
    comparison that is not invertible on the terms raises AlgebraError."""
    A_work = as_quotient(A)
    dc = canonical_dualizing(A_work)
    W = dc.complex
    K = dc.resolution
    # complex-level: F_* W versus Hom_S(F_* K, omega_S) via the trace pairing
    chi, FK = _trace_pairing_chain_map(dc, e)
    FW, C2 = chi.source, chi.target
    invert_monomial_chain_map(chi)
    # module-level: the canonical module and its pushforward
    low = dc.lowest_degree()
    h_om = dc.canonical_module()
    omega_mod = dc.canonical_module_over_ring()
    Fomega = pushforward_module(omega_mod, e)
    FA = frobenius_pushforward(A_work, e)
    # Hom out of the pruned F_* A: a map is its values on the kept monomials
    FA_pruned, kept, _, _ = prune(FA.module)
    Hom_module_side = hom_module(FA_pruned, omega_mod)
    multiplication = _frobenius_multiplications(K, FK, e)
    mult_lifts = [multiplication(FA.monomials[k]) for k in kept]
    # candidate on each generator F_*(x^a z_j) of F_* omega_A, in the order
    # of its labels
    cols = []
    for a_mono, j in pushforward_basis(A_work, e, omega_mod.ngens).labels:
        # the cocycle x^a z_j pushed through the trace pairing
        shifted = h_om.reps[j].mul_term(a_mono, 1)
        fw_coords = pushforward_vector(FW.bases[low], shifted, e)
        psi = chi.apply(low, fw_coords)
        # psi is a functional on (F_*K)^{i_top}; evaluate on multiplication
        # lifts to get an A-map F_*A -> omega_A
        hom_cols = []
        for lift in mult_lifts:
            # compose: K^{i_top} -> (F_*K)^{i_top} -> omega in W-coordinates
            comp = hom_transpose_vector(lift, psi, C2.bases[low], W.bases[low])
            cls = h_om.coords_of_cocycle(comp)
            if cls is None:
                raise AlgebraError("assembled value is not a cocycle class")
            hom_cols.append(cls)
        # unchecked: encode solves it as a Hom cocycle, which asks every
        # relation of FA_pruned to hold but the automatic ones, g*e_j with
        # g*omega in omega's relations, which hold for every map
        value_map = ModuleMap(FA_pruned, omega_mod, hom_cols, check=False)
        coords = Hom_module_side.encode(value_map)
        if coords is None:
            raise AlgebraError("candidate map failed to encode in Hom")
        cols.append(coords)
    cand = ModuleMap(Fomega, Hom_module_side, cols, check=True)
    return FrobeniusDualityReport(is_isomorphism(cand))


def _frobenius_multiplications(K, FK, e):
    """b -> a chain map K -> F_*K over S -> F_*S, 1 -> F_*(x^b), for K a
    free resolution of S/I over the polynomial ring S and FK = F^e_*K.

    One lift psi: K^{[q]} -> K of the identity of S, verified, serves every
    b: e_i in degree d goes to F_*(x^b psi_d(e_i)).  An entry r of K's
    differential acts on F_*K as F_*(r^q .), so this commutes with the
    differentials because psi does; each map is verified as a ChainMap.
    Two lifts of one degree-0 map are homotopic, so every Hom class read
    off this one is that of any other lift of S -> F_*S."""
    S = K.ambient
    psi = lift_chain_map([unit_vector(S, 1, 0)], bracket_power_complex(K, e), K, S)

    def multiplication(b_mono):
        maps = {
            d: [pushforward_vector(FK.bases[d], col.mul_term(b_mono, 1), e) for col in cols]
            for d, cols in psi.maps.items()
        }
        return ChainMap(K, FK, maps)

    return multiplication


def _trace_pairing_chain_map(dc, e):
    """chi: F_*(Hom(K, omega)) -> Hom(F_*K, omega) for the resolution K and
    the complex W = Hom(K, omega) of dc, returned with F_*K: the signed
    permutation F_*(x^m phi) -> [F_*(x^m' k) -> trace(F_*(x^{m+m'}
    phi(k)))], nonzero exactly when m' = (q-1) - m componentwise."""
    W = dc.complex
    FW = pushforward_complex(W, e)
    FK = pushforward_complex(dc.resolution, e)
    C2 = hom_complex(FK, dc.omega_S.complex)
    amb = W.ambient
    p = amb.p
    q = p ** e
    maps = {}
    for dgr in FW.degrees():
        bW = W.bases.get(dgr)
        bC2 = C2.bases.get(dgr)
        cols = []
        for m, t in FW.bases[dgr].labels:
            (i, aK, bo) = bW.labels[t]
            partner = tuple(q - 1 - mm for mm in m)
            aF = FK.bases[i].position[(partner, aK)]
            pos = bC2.position.get((i, aF, bo)) if bC2 else None
            entries = [] if pos is None else [(pos, amb.one())]
            cols.append(vector_of(amb, len(bC2) if bC2 else 0, entries))
        maps[dgr] = cols
    return ChainMap(FW, C2, maps), FK
