"""The shriek tensor product over the enveloping ring and the verification
that the canonical dualizing complex is its unit.

M shriek-tensor N is RHom over A tensor_{F_p} A of A into the external
product.  The enveloping ring is rarely regular, so RHom is computed with a
truncated free resolution over the quotient ring itself; the boundedness of
external products over a regular cover (the constant 2 dim works) fixes the
degree window in which the truncation is exact, and all certificates are
restricted to that window.  Inputs are single-degree coherent modules with a shift, which
covers every bounded-coherent case the corpus needs via their cohomology
modules.
"""

from itertools import product

from .complexes import (
    BasisIndex,
    certify_degreewise,
    cohomology,
    free_resolution,
    hom_complex,
    hom_transpose_vector,
    in_one_degree,
    koszul_complex,
    lift_chain_map,
    shift,
    tensor_complex,
)
from .duality import canonical_dualizing
from .errors import AlgebraError, CanonicalNotTop
from .groebner import (
    Ideal,
    QuotientRing,
    VectorPoly,
    as_quotient,
    nonzero_slots,
    rename_poly,
    unit_vector,
    vector_of,
)
from .modules import (
    FPModule,
    ModuleMap,
    hom_module,
    is_isomorphism,
)
from .polyring import PolyRing


class EnvelopingRing:
    """A tensor_{F_p} A (or more copies) with diagonal data.

    Copy k > 1 of variable v is named v@k, which PolyRing displays with
    k - 1 primes; unprimed variables come first."""

    def __init__(self, A, copies=2):
        A = as_quotient(A)
        amb = A.ambient
        n = amb.nvars
        self.copies = copies
        names = [v if j == 0 else "%s@%d" % (v, j + 1) for j in range(copies) for v in amb.variables]
        P = PolyRing(amb.p, names, amb.order)
        self.ambient = P
        self.nvars_each = n
        mod = []
        for j in range(copies):
            idx = [j * n + i for i in range(n)]
            for g in A.modulus.gens:
                mod.append(rename_poly(g, P, idx))
        # the ring with only the first copy's relations: A tensor (free copies)
        self.first_slot_ring = QuotientRing(P, mod[: len(A.modulus.gens)])
        self.ring = QuotientRing(P, mod)
        diag = []
        for j in range(1, copies):
            for i in range(n):
                diag.append(P.var(i) - P.var(j * n + i))
        self.diagonal = Ideal(P, diag)
        self.diagonal_quotient = QuotientRing(P, mod + diag)
        self.diagonal_resolutions = {}  # length -> truncated resolution

    def slot_index(self, j):
        n = self.nvars_each
        return [j * n + i for i in range(n)]

    def rename_into_slot(self, f, j):
        return rename_poly(f, self.ambient, self.slot_index(j))

    def swap_map(self, i, j):
        """Index permutation of the ambient exchanging two copies."""
        n = self.nvars_each
        perm = list(range(self.ambient.nvars))
        for k in range(n):
            perm[i * n + k], perm[j * n + k] = perm[j * n + k], perm[i * n + k]
        return perm


def product_basis(modules):
    """The generators of the external product of the modules: the tuples
    of one generator per factor, in lexicographic order."""
    return BasisIndex(product(*(range(M.ngens) for M in modules)))


def external_tensor(env, modules):
    """External product of one module per copy, over the enveloping ring,
    on the generators of product_basis(modules)."""
    if len(modules) != env.copies:
        raise AlgebraError("need one module per tensor slot")
    amb = env.ambient
    sizes = [M.ngens for M in modules]
    position = product_basis(modules).position
    rels = []
    for j, M in enumerate(modules):
        others = list(product(*map(range, sizes[:j] + sizes[j + 1 :])))
        for r in M.relations:
            col = [(i, env.rename_into_slot(c, j)) for i, c in nonzero_slots(r)]
            for rest in others:
                entries = [(position[rest[:j] + (i,) + rest[j:]], c) for i, c in col]
                rels.append(vector_of(amb, len(position), entries))
    return FPModule(env.ring, len(position), rels)


def diagonal_resolution(env, length):
    """Resolution of the base ring over the enveloping ring, truncated at
    the given length, computed once per length and kept on env."""
    G = env.diagonal_resolutions.get(length)
    if G is None:
        first = [VectorPoly(env.ambient, [g]) for g in env.diagonal.gens]
        G = env.diagonal_resolutions[length] = free_resolution(env.ring, 1, first, length)
    return G


class ShriekResult:
    """The !-tensor product: the complex U = Hom(G, T[t0]), its cohomology
    on the window and the diagonal resolution G."""

    def __init__(self, complex_, homology, resolution):
        self.complex = complex_
        self.homology = homology
        self.resolution = resolution

    def nonzero_degrees(self):
        return sorted(d for d, h in self.homology.items() if not h.is_zero())

    def single_degree(self):
        ds = self.nonzero_degrees()
        if len(ds) != 1:
            return None
        return ds[0], self.homology[ds[0]]


def _shriek_product(env, modules, t0):
    """The !-tensor product of single-degree modules, one on each copy of
    env, placed in degree t0: (diagonal resolution G, U = Hom(G, T[t0])
    for the external product T, cohomology of U on the window).

    Window: [t0 - 2(k-1) dim P, t0 + (k-1) dim P] for k copies, bounded
    below through the regular cover (the bound 2 dim P of two copies, once
    per copy past the first); the product is only bounded below in
    general, so the upper edge is a reporting choice.  The truncated
    diagonal resolution is taken long enough to make the cohomology exact
    there: one stage past the window, and one more."""
    span = (env.copies - 1) * env.nvars_each
    window = (t0 - 2 * span, t0 + span)
    T = external_tensor(env, modules)
    G = diagonal_resolution(env, (window[1] - window[0]) + 2)
    U = hom_complex(G, in_one_degree(T, t0))
    return G, U, cohomology(U, window=window).degrees


def shriek_tensor(A, M, N, m_shift=0, n_shift=0, env=None):
    """M[m] shriek-tensor N[n] for single-degree coherent modules, on the
    window [m+n - 2 dim P, m+n + dim P] of _shriek_product."""
    A = as_quotient(A)
    env = env or EnvelopingRing(A, 2)
    G, U, hom = _shriek_product(env, [M, N], m_shift + n_shift)
    return ShriekResult(U, hom, G)


# ---------------------------------------------------------------------------
# the unit chain

class UnitReport:
    def __init__(self, certified, links, degrees):
        self.certified = certified
        self.links = links
        self.degrees = degrees


def _hom_map_from_target_map(U_src, U_tgt, blocks):
    """Postcomposition Hom(K, T1) -> Hom(K, T2) with per-degree maps of the
    targets, blocks[j] listing the columns of T1^j -> T2^j.

    Returns image(d, v): the image of one element v of Hom(K, T1)^d."""

    def image(d, v):
        b_src = U_src.bases[d]
        b_tgt = U_tgt.bases[d]
        entries = []
        for pos, cf in nonzero_slots(v):
            i, a, g = b_src.labels[pos]
            blk = blocks.get(i + d)
            if blk is None:
                continue
            for g2, entry in nonzero_slots(blk[g]):
                q = b_tgt.position.get((i, a, g2))
                if q is not None:
                    entries.append((q, cf * entry))
        return vector_of(v.ring, len(b_tgt), entries)

    return image


def _window(h, window):
    """The degrees of a cohomology dict that lie in the window."""
    lo, hi = window
    return {d: x for d, x in h.items() if lo <= d <= hi}


def verify_unit(A, M, m_shift=0):
    """Certify M = M shriek-tensor omega_A along the finite-pullback chain.

    Links: (1) M into the Koszul model over A tensor P via the top
    functional; (2) evaluation collapses the dualizing complex to the
    volume form; (3) projection onto the top cohomology; (4) the lifted
    comparison between the Koszul model and the truncated diagonal
    resolution.  Every link is certified per degree in the window."""
    return _unit_chain(canonical_dualizing(as_quotient(A)), M, m_shift)


def verify_rigidifier(dc):
    """The unit check on omega_A itself, in its degree: omega_A
    shriek-tensor omega_A = omega_A, for the dualizing complex dc of A,
    which it reads and does not compute again."""
    return _unit_chain(dc, dc.canonical_module_over_ring(), dc.lowest_degree())


def _unit_chain(dc, M, m_shift):
    """verify_unit for M on the dualizing complex dc of its ring."""
    A = as_quotient(dc.ring)
    env = EnvelopingRing(A, 2)
    P2 = env.ambient
    nP = A.ambient.nvars
    Q2 = env.first_slot_ring
    W = dc.complex
    om_mod = dc.canonical_module_over_ring()
    low = dc.lowest_degree()
    # the projection link reads the basis of W's term in degree low as the
    # generating set of omega: that term must be W's top one
    top = W.support()[1]
    if top != low or W.rank(low) != om_mod.ngens:
        raise CanonicalNotTop(
            "the unit check needs omega, in degree %d, to be the top term of the dualizing "
            "complex, whose basis generates it; here the complex reaches degree %d and its "
            "term in degree %d has rank %d for %d generators of omega (a resolution of "
            "the ring that is not minimal gives this, as does a ring that is not Cohen-Macaulay)" % (low, top, low, W.rank(low), om_mod.ngens)
        )
    # slot-1 renamings
    idx1 = env.slot_index(1)
    W1 = W.renamed(Q2, idx1)
    M0 = FPModule(
        Q2,
        M.ngens,
        [
            vector_of(P2, r.rank, [(i, env.rename_into_slot(c, 0)) for i, c in nonzero_slots(r)])
            for r in M.relations
        ],
    )
    # M and omega, one per slot of the enveloping ring
    T_E = external_tensor(env, [M, om_mod])
    t_E = m_shift + low
    diag = [P2.var(i) - P2.var(nP + i) for i in range(nP)]
    K = koszul_complex(Q2, diag)
    # link 1: M against the volume model
    omega_R_degree = m_shift - dc.omega_S.n
    U_b = hom_complex(K, in_one_degree(M0, omega_R_degree))
    hb = cohomology(U_b).degrees
    top_b = hb.get(m_shift)
    link1 = False
    if top_b is not None:
        bi = U_b.bases[m_shift]
        cols = top_b.classes_of(
            unit_vector(P2, len(bi), bi.position[(-nP, 0, g)]) for g in range(M0.ngens)
        )
        if cols is not None:
            # the unit comparison is A-linear through the multiplication
            # map: certify over the diagonal quotient
            Amodel = env.diagonal_quotient
            M0A = FPModule(Amodel, M0.ngens, M0.relations)
            topA = FPModule(Amodel, top_b.module.ngens, top_b.module.relations)
            link1 = is_isomorphism(ModuleMap(M0A, topA, cols, check=True))
        others = all(h.is_zero() for d, h in hb.items() if d != m_shift)
        link1 = link1 and others
    # link 2 and 3: through M tensor W
    Wsh = shift(W1, -m_shift)
    T_W = tensor_complex(Wsh, in_one_degree(M0, 0))
    U_1 = hom_complex(K, T_W)
    # evaluation W -> omega_R picks the Hom(K_0, omega) coordinate
    ev_blocks = {}
    deg_ev = omega_R_degree
    if Wsh.rank(deg_ev):
        # the W-coordinate of the evaluation slot
        ev_slot = None
        for pos, (i, a, b) in enumerate(W.bases[-dc.omega_S.n].labels):
            if i == 0:
                ev_slot = pos
        zero = vector_of(P2, M0.ngens, ())
        ev_blocks[deg_ev] = [
            unit_vector(P2, M0.ngens, g) if w == ev_slot else zero
            for w in range(Wsh.rank(deg_ev))
            for g in range(M0.ngens)
        ]
    image_a1 = _hom_map_from_target_map(U_1, U_b, ev_blocks)
    # projection W -> top cohomology, paired with M: T_W -> T_E over Q2
    pr_blocks = {}
    if Wsh.rank(t_E):
        pairs = product_basis([M, om_mod]).position
        pr_blocks[t_E] = [
            unit_vector(P2, T_E.ngens, pairs[(g, w)])
            for w in range(Wsh.rank(t_E))
            for g in range(M0.ngens)
        ]
    U_2 = hom_complex(K, in_one_degree(T_E, t_E, ring=Q2))
    image_a2 = _hom_map_from_target_map(U_1, U_2, pr_blocks)
    # link 4: the diagonal resolution against the Koszul model
    length = nP + 2 + max(0, m_shift - t_E)
    G = diagonal_resolution(env, length)
    U_A = hom_complex(G, in_one_degree(T_E, t_E))
    # the identity of the diagonal lifts K -> G: G is exact within its truncation
    mu = lift_chain_map([unit_vector(P2, G.rank(0), 0)], K, G, env.ring)

    def image_a3(d, v):
        return hom_transpose_vector(mu, v, U_A.bases[d], U_2.bases[d])

    # certify in the window where the truncation is exact, with every
    # cohomology presented over Q2
    win = (t_E, m_shift)
    h1 = cohomology(U_1, window=(min(omega_R_degree, t_E), m_shift)).degrees
    h2 = cohomology(U_2, window=win).degrees
    hA = cohomology(U_A, over=Q2, window=win).degrees
    win1 = (omega_R_degree, m_shift)
    cert_a1 = certify_degreewise(_window(h1, win1), _window(hb, win1), image_a1)
    cert_a2 = certify_degreewise(_window(h1, win), _window(h2, win), image_a2)
    cert_a3 = certify_degreewise(_window(hA, win), _window(h2, win), image_a3)
    links = {
        "unit_class": link1,
        "evaluation": cert_a1,
        "projection": cert_a2,
        "diagonal_model": cert_a3,
    }
    certified = (
        link1
        and all(cert_a1.values())
        and all(cert_a2.values())
        and all(cert_a3.values())
    )
    degrees = sorted(d for d, h in hA.items() if not h.is_zero())
    return UnitReport(certified, links, degrees)


# ---------------------------------------------------------------------------
# symmetry and associativity

def verify_symmetry(A, M, N, m_shift=0, n_shift=0):
    """Certify M tensor^! N = N tensor^! M via the copy swap."""
    A = as_quotient(A)
    env = EnvelopingRing(A, 2)
    P2 = env.ambient
    res_MN = shriek_tensor(A, M, N, m_shift, n_shift, env=env)
    res_NM = shriek_tensor(A, N, M, n_shift, m_shift, env=env)
    perm = env.swap_map(0, 1)
    G = res_MN.resolution
    Gs = G.renamed(env.ring, perm)
    lam = lift_chain_map([unit_vector(P2, Gs.rank(0), 0)], res_NM.resolution, Gs, env.ring)
    # sigma transports Hom(G, M x N) to Hom(Gs, N x M) up to the Koszul sign
    sign = (-1) ** ((m_shift % 2) * (n_shift % 2))
    pairs_MN, pairs_NM = product_basis([M, N]), product_basis([N, M])
    U_MN, U_NM = res_MN.complex, res_NM.complex

    def image(d, v):
        return _swap_transport(v, U_MN.bases[d], U_NM.bases[d], lam, perm, pairs_MN, pairs_NM, sign)

    return certify_degreewise(res_MN.homology, res_NM.homology, image)


def _swap_transport(rep, b_MN, b_NM, lam, perm, pairs_MN, pairs_NM, sign):
    """Transport a Hom-class along the swap: rename coefficients, permute
    the external-product generators (labelled by pairs_MN and pairs_NM),
    precompose with the lifted map.

    The swapped class lies in Hom(G renamed, N x M), whose basis has the
    same shape as b_MN since the ranks agree."""
    P2 = rep.ring
    entries = []
    for pos, cf in nonzero_slots(rep):
        i, aG, g = b_MN.labels[pos]
        mg, ng = pairs_MN.labels[g]
        q = b_MN.position[(i, aG, pairs_NM.position[(ng, mg)])]
        entries.append((q, rename_poly(cf, P2, perm).scale(sign)))
    return hom_transpose_vector(lam, vector_of(P2, len(b_MN), entries), b_MN, b_NM)


def find_certified_iso(M, N):
    """Deterministic search for a certified isomorphism among Hom-module
    generators and sums of two of them; None if the search fails."""
    H = hom_module(M, N)
    for i in range(H.ngens):
        cand = H.decode(i)
        if is_isomorphism(cand):
            return cand
    for i in range(H.ngens):
        for j in range(i + 1, H.ngens):
            cand = H.decode(H.gen(i) + H.gen(j))
            if is_isomorphism(cand):
                return cand
    return None


def verify_associativity(A, M, N, K_mod, shifts=(0, 0, 0)):
    """Compare (M tensor^! N) tensor^! K with the direct triple product.

    The iterated side reuses the single-degree cohomology of the inner
    product; the comparison candidate is found among Hom generators and
    certified exactly."""
    A = as_quotient(A)
    inner = shriek_tensor(A, M, N, shifts[0], shifts[1])
    single = inner.single_degree()
    if single is None:
        raise AlgebraError("inner product is not single-degree; out of corpus")
    s, h_in = single
    W12 = FPModule(A, h_in.module.ngens, _restrict_relations(h_in.module, A))
    iterated = shriek_tensor(A, W12, K_mod, s, shifts[2])
    # direct triple product
    h3 = _shriek_product(EnvelopingRing(A, 3), [M, N, K_mod], sum(shifts))[-1]
    direct_nonzero = sorted(d for d, h in h3.items() if not h.is_zero())
    it_nonzero = iterated.nonzero_degrees()
    if direct_nonzero != it_nonzero:
        return {"certified": False, "degrees": (it_nonzero, direct_nonzero)}
    certified = True
    for d in direct_nonzero:
        ha = iterated.homology[d]
        hbm = h3[d]
        Ma = FPModule(A, ha.module.ngens, _restrict_relations(ha.module, A))
        Mb = FPModule(A, hbm.module.ngens, _restrict_relations(hbm.module, A))
        iso = find_certified_iso(Ma, Mb)
        certified = certified and (iso is not None)
    return {"certified": certified, "degrees": (it_nonzero, direct_nonzero)}


def _restrict_relations(module, A):
    """Push a presentation over an enveloping quotient down to the base
    ring along the multiplication map (all copies to the same variables)."""
    ambA = A.ambient
    n = ambA.nvars
    big = module.ambient
    index = [i % n for i in range(big.nvars)]
    return [
        vector_of(ambA, r.rank, [(i, rename_poly(c, ambA, index)) for i, c in nonzero_slots(r)])
        for r in module.relations
    ]


def exterior_hom_comparison(A, M, N, M2, N2):
    """The degree-zero instance of the exterior products of Hom's: the
    natural map Hom(M,N) x Hom(M2,N2) -> Hom over the doubled ring, as a
    certified isomorphism on the corpus pair."""
    A = as_quotient(A)
    env = EnvelopingRing(A, 2)
    H1 = hom_module(M, N)
    H2 = hom_module(M2, N2)
    lhs = external_tensor(env, [H1, H2])
    MM = external_tensor(env, [M, M2])
    NN = external_tensor(env, [N, N2])
    pairs_M, pairs_N = product_basis([M, M2]), product_basis([N, N2])
    rhs = hom_module(MM, NN)
    cols = []
    amb = env.ambient
    for i in range(H1.ngens):
        f = H1.decode(i)
        for j in range(H2.ngens):
            g = H2.decode(j)
            big_cols = []
            for ma, mb in pairs_M.labels:
                entries = [
                    (pairs_N.position[(x, y)], env.rename_into_slot(cx, 0) * env.rename_into_slot(cy, 1))
                    for x, cx in nonzero_slots(f.columns[ma])
                    for y, cy in nonzero_slots(g.columns[mb])
                ]
                big_cols.append(vector_of(amb, NN.ngens, entries))
            fmap = ModuleMap(MM, NN, big_cols, check=False)
            coords = rhs.encode(fmap)
            if coords is None:
                return False
            cols.append(coords)
    return is_isomorphism(ModuleMap(lhs, rhs, cols, check=True))
