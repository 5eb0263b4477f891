"""Bounded cochain complexes of free modules.

Cohomological indexing throughout.  Sign conventions are fixed once for the
whole artifact: the differential of Hom(X, Y) is f -> d_Y o f - (-1)^n f o
d_X for f of degree n, and the tensor differential carries the Koszul sign
(-1)^i on the second factor.  d o d = 0 is asserted after every
construction (after reduction when a quotient ring is attached).
"""

from .errors import AlgebraError, RingMismatch
from .groebner import (
    QuotientRing,
    SpanSolver,
    VectorPoly,
    ambient_of,
    modulus_tails,
    presentation_resolution,
    reduce_in,
    syzygy_heads,
    unit_vector,
)
from .modules import FPModule, ModuleMap, direct_sum, is_isomorphism


def solve_in_span(target, columns, ring, rank):
    """Coefficients c with sum c_i columns_i = target modulo the modulus of
    `ring`, or None.  Build a SpanSolver to solve many targets."""
    return SpanSolver(list(columns), ring, rank).solve(target)


class FreeComplex:
    """Bounded complex of free modules; matrices are lists of columns."""

    def __init__(self, ring, terms, diffs, labels=None, check=True):
        self.ring = ring
        self.ambient = ambient_of(ring)
        self.terms = {d: r for d, r in terms.items() if r > 0}
        self.diffs = {}
        for d, cols in diffs.items():
            if self.terms.get(d, 0) == 0 or self.terms.get(d + 1, 0) == 0:
                continue
            cols = list(cols)
            if len(cols) != self.terms[d]:
                raise AlgebraError("differential at %d has wrong number of columns" % d)
            for c in cols:
                if c.rank != self.terms[d + 1]:
                    raise AlgebraError("differential at %d has wrong column length" % d)
            if any(not c.is_zero() for c in cols):
                self.diffs[d] = cols
        self.labels = labels or {}
        self._solvers = {}
        if check:
            self._check_dd()

    def _check_dd(self):
        for d, cols in self.diffs.items():
            nxt = self.diffs.get(d + 1)
            if not nxt:
                continue
            for c in cols:
                acc = None
                for coeff, col2 in zip(c.components, nxt):
                    t = col2.mul_poly(coeff)
                    acc = t if acc is None else acc + t
                if acc is not None and not all(
                    reduce_in(self.ring, x).is_zero() for x in acc.components
                ):
                    raise AlgebraError("d o d != 0 at degree %d" % d)

    def rank(self, d):
        return self.terms.get(d, 0)

    def support(self):
        if not self.terms:
            return (0, -1)
        return (min(self.terms), max(self.terms))

    def differential(self, d):
        """Columns of d: C^d -> C^{d+1} (zero columns if absent)."""
        r, s = self.rank(d), self.rank(d + 1)
        if d in self.diffs:
            return self.diffs[d]
        return [VectorPoly(self.ambient, [self.ambient.zero()] * s) for _ in range(r)]

    def degrees(self):
        return sorted(self.terms)

    def span_solver(self, d, ring):
        """SpanSolver for d(x) = y, x in C^d, modulo the modulus of ring.

        Cached per degree when ring is the complex's own ring object."""
        if ring is not self.ring:
            return SpanSolver(self.diffs.get(d, []), ring, self.rank(d + 1))
        solver = self._solvers.get(d)
        if solver is None:
            solver = SpanSolver(self.diffs.get(d, []), ring, self.rank(d + 1))
            self._solvers[d] = solver
        return solver

    def apply_entrywise(self, fn, ring=None):
        """New complex with every matrix entry mapped through fn."""
        diffs = {}
        amb = ambient_of(ring) if ring is not None else self.ambient
        for d, cols in self.diffs.items():
            diffs[d] = [VectorPoly(amb, [fn(c) for c in col.components]) for col in cols]
        return FreeComplex(ring or self.ring, dict(self.terms), diffs, labels=dict(self.labels))

    def __repr__(self):
        lo, hi = self.support()
        ranks = ",".join("%d:%d" % (d, self.rank(d)) for d in self.degrees())
        return "FreeComplex[%d..%d](%s over %r)" % (lo, hi, ranks, self.ring)


def zero_complex(ring):
    return FreeComplex(ring, {}, {})


def rank_one_complex(ring, degree, label=None):
    labels = {degree: [label]} if label else None
    return FreeComplex(ring, {degree: 1}, {}, labels=labels)


def module_as_complex(ring, rank, degree=0):
    return FreeComplex(ring, {degree: rank}, {})


def shift(T, k):
    """T[k]: degree n picks up T^{n+k}; differentials gain the sign (-1)^k."""
    sign = 1 if k % 2 == 0 else -1
    terms = {d - k: r for d, r in T.terms.items()}
    diffs = {}
    for d, cols in T.diffs.items():
        diffs[d - k] = [c if sign == 1 else -c for c in cols]
    labels = {d - k: v for d, v in T.labels.items()}
    return FreeComplex(T.ring, terms, diffs, labels=labels, check=False)


class BasisIndex:
    """Index bookkeeping for Hom/tensor terms built from basis triples."""

    def __init__(self, triples):
        self.triples = list(triples)
        self.position = {t: i for i, t in enumerate(self.triples)}

    def __len__(self):
        return len(self.triples)


def hom_complex(X, Y):
    """Hom(X, Y) with differential d_Y o f - (-1)^n f o d_X."""
    if ambient_of(X.ring) != ambient_of(Y.ring):
        raise RingMismatch("Hom of complexes over different ambient rings")
    amb = X.ambient
    ring = Y.ring if isinstance(Y.ring, QuotientRing) else X.ring
    xlo, xhi = X.support()
    ylo, yhi = Y.support()
    if X.rank(0) == 0 and not X.terms:
        return zero_complex(ring), {}
    bases = {}
    for n in range(ylo - xhi, yhi - xlo + 1):
        triples = []
        for i in X.degrees():
            j = i + n
            if Y.rank(j) == 0:
                continue
            for a in range(X.rank(i)):
                for b in range(Y.rank(j)):
                    triples.append((i, a, b))
        if triples:
            bases[n] = BasisIndex(triples)
    terms = {n: len(bi) for n, bi in bases.items()}
    diffs = {}
    for n, bi in bases.items():
        tgt = bases.get(n + 1)
        if tgt is None:
            continue
        sign = -1 if n % 2 == 0 else 1  # -(-1)^n
        cols = []
        for (i, a, b) in bi.triples:
            comps = [amb.zero()] * len(tgt)
            dy = Y.diffs.get(i + n)
            if dy is not None:
                col = dy[b]
                for b2, entry in enumerate(col.components):
                    if entry.is_zero():
                        continue
                    pos = tgt.position.get((i, a, b2))
                    if pos is not None:
                        comps[pos] = comps[pos] + entry
            dx = X.diffs.get(i - 1)
            if dx is not None:
                for a2 in range(X.rank(i - 1)):
                    entry = dx[a2].components[a]
                    if entry.is_zero():
                        continue
                    pos = tgt.position.get((i - 1, a2, b))
                    if pos is not None:
                        comps[pos] = comps[pos] + (entry if sign == 1 else -entry)
            cols.append(VectorPoly(amb, comps))
        diffs[n] = cols
    return FreeComplex(ring, terms, diffs), bases


def tensor_complex(X, Y):
    """Total complex of X tensor Y with Koszul signs."""
    if ambient_of(X.ring) != ambient_of(Y.ring):
        raise RingMismatch("tensor of complexes over different ambient rings")
    amb = X.ambient
    ring = X.ring if isinstance(X.ring, QuotientRing) else Y.ring
    xlo, xhi = X.support()
    ylo, yhi = Y.support()
    bases = {}
    for n in range(xlo + ylo, xhi + yhi + 1):
        triples = []
        for i in X.degrees():
            j = n - i
            if Y.rank(j) == 0:
                continue
            for a in range(X.rank(i)):
                for b in range(Y.rank(j)):
                    triples.append((i, a, b))
        if triples:
            bases[n] = BasisIndex(triples)
    terms = {n: len(bi) for n, bi in bases.items()}
    diffs = {}
    for n, bi in bases.items():
        tgt = bases.get(n + 1)
        if tgt is None:
            continue
        cols = []
        for (i, a, b) in bi.triples:
            comps = [amb.zero()] * len(tgt)
            dx = X.diffs.get(i)
            if dx is not None:
                col = dx[a]
                for a2, entry in enumerate(col.components):
                    if entry.is_zero():
                        continue
                    pos = tgt.position.get((i + 1, a2, b))
                    if pos is not None:
                        comps[pos] = comps[pos] + entry
            dy = Y.diffs.get(n - i)
            if dy is not None:
                sign = 1 if i % 2 == 0 else -1
                col = dy[b]
                for b2, entry in enumerate(col.components):
                    if entry.is_zero():
                        continue
                    pos = tgt.position.get((i, a, b2))
                    if pos is not None:
                        comps[pos] = comps[pos] + (entry if sign == 1 else -entry)
            cols.append(VectorPoly(amb, comps))
        diffs[n] = cols
    return FreeComplex(ring, terms, diffs), bases


# ---------------------------------------------------------------------------
# cohomology

class HDegree:
    """Cohomology in one degree: presentation, representatives, coordinates.

    The term is R^rank modulo relation_cols: the modulus tails for a free
    complex, the term's own relations for a complex of modules."""

    def __init__(self, module, reps, boundary_cols, relation_cols, rank):
        self.module = module
        self.reps = reps
        self.boundary_cols = boundary_cols
        self.relation_cols = relation_cols
        self.rank = rank
        self._solver = None

    def coords_of_cocycle(self, v):
        """Class of a cocycle vector in the presentation's generators."""
        if self._solver is None:
            self._solver = SpanSolver(
                self.reps,
                self.module.ambient,
                self.rank,
                extra=list(self.boundary_cols) + list(self.relation_cols),
            )
        return self._solver.solve(v)

    def classes_of(self, cocycles):
        """Coordinate columns of the classes of the cocycles, or None when
        one of them is None or not a cocycle class."""
        cols = []
        for v in cocycles:
            coords = None if v is None else self.coords_of_cocycle(v)
            if coords is None:
                return None
            cols.append(VectorPoly(self.module.ambient, coords))
        return cols

    def is_zero(self):
        return self.module.is_zero_module()


def _cohomology_degree(ring, rank, d_out, out_relations, d_in, relations):
    """H at a term R^rank / relations of a complex.

    The cocycles are the kernel of the outgoing differential columns d_out
    (None when zero) modulo the next term's out_relations; H is presented
    as the cocycles modulo the boundary columns d_in and the relations."""
    if d_out is None:
        reps = [unit_vector(ambient_of(ring), rank, i) for i in range(rank)]
    else:
        reps = syzygy_heads(list(d_out) + list(out_relations), rank, unique=True)
    rels = syzygy_heads(reps + d_in + relations, len(reps)) if reps else []
    return HDegree(FPModule(ring, len(reps), rels), reps, d_in, relations, rank)


def certify_degreewise(h_src, h_tgt, induced):
    """Per-degree certificate that a comparison map is a quasi-isomorphism.

    h_src and h_tgt map degrees to HDegree.  A degree missing on one side
    is certified iff the cohomology on both sides is missing or zero.
    Otherwise induced(d, a, b) returns the ModuleMap H^d(source) ->
    H^d(target), or None when some image is not a cocycle class, and the
    degree is certified iff that map is an isomorphism."""
    certified = {}
    for d in sorted(set(h_src) | set(h_tgt)):
        a = h_src.get(d)
        b = h_tgt.get(d)
        if a is None or b is None:
            certified[d] = (a is None or a.is_zero()) and (b is None or b.is_zero())
            continue
        f = induced(d, a, b)
        certified[d] = f is not None and is_isomorphism(f)
    return certified


class CohomologyReport:
    def __init__(self, degrees):
        self.degrees = degrees  # dict degree -> HDegree

    def module(self, d):
        h = self.degrees.get(d)
        return h.module if h else None

    def nonzero_degrees(self):
        return sorted(d for d, h in self.degrees.items() if not h.is_zero())

    def lowest_nonzero(self):
        ds = self.nonzero_degrees()
        return ds[0] if ds else None


def cohomology(T, over=None):
    """Per-degree kernel/image presentations of a free complex.

    `over` may supply a QuotientRing whose modulus is adjoined; complexes
    over quotient rings adjoin their own modulus automatically.
    """
    ring = over or T.ring
    out = {}
    lo, hi = T.support()
    for d in range(lo, hi + 1):
        r = T.rank(d)
        if r == 0:
            continue
        d_out = T.diffs.get(d)
        out[d] = _cohomology_degree(
            ring,
            r,
            d_out,
            modulus_tails(ring, T.rank(d + 1)) if d_out else [],
            list(T.diffs.get(d - 1, [])),
            modulus_tails(ring, r),
        )
    return CohomologyReport(out)


# ---------------------------------------------------------------------------
# chain maps

class ChainMap:
    """Map of free complexes; maps[d] is a list of columns C^d_src -> C^d_tgt."""

    def __init__(self, source, target, maps, check=True):
        self.source = source
        self.target = target
        self.maps = {}
        for d, cols in maps.items():
            if source.rank(d) == 0:
                continue
            cols = list(cols)
            if len(cols) != source.rank(d):
                raise AlgebraError("chain map at degree %d has wrong width" % d)
            self.maps[d] = cols
        if check:
            self.verify()

    def column(self, d, j):
        if d in self.maps:
            return self.maps[d][j]
        amb = self.target.ambient
        return VectorPoly(amb, [amb.zero()] * self.target.rank(d))

    def apply(self, d, v):
        amb = self.target.ambient
        acc = VectorPoly(amb, [amb.zero()] * self.target.rank(d))
        for j, c in enumerate(v.components):
            if c.is_zero():
                continue
            acc = acc + self.column(d, j).mul_poly(c)
        return acc

    def verify(self):
        """d_tgt o f = f o d_src, modulo the target's modulus."""
        for d in self.source.degrees():
            if self.source.rank(d) == 0:
                continue
            for j in range(self.source.rank(d)):
                lhs = None
                dcols = self.target.diffs.get(d)
                fj = self.column(d, j)
                if dcols is not None:
                    acc = None
                    for coeff, col in zip(fj.components, dcols):
                        t = col.mul_poly(coeff)
                        acc = t if acc is None else acc + t
                    lhs = acc
                sd = self.source.diffs.get(d)
                rhs = None
                if sd is not None:
                    rhs = self.apply(d + 1, sd[j])
                amb = self.target.ambient
                r = self.target.rank(d + 1)
                zero = VectorPoly(amb, [amb.zero()] * r)
                lhs = lhs if lhs is not None else zero
                rhs = rhs if rhs is not None else zero
                if r and not all(
                    reduce_in(self.target.ring, c).is_zero() for c in (lhs - rhs).components
                ):
                    raise AlgebraError("not a chain map at degree %d" % d)

    def induced_on_cohomology(self, d, h_src, h_tgt):
        """ModuleMap H^d(source) -> H^d(target) on the given reports."""
        cols = h_tgt.classes_of(self.apply(d, rep) for rep in h_src.reps)
        if cols is None:
            raise AlgebraError("image of a cocycle is not a cocycle class")
        return ModuleMap(h_src.module, h_tgt.module, cols, check=True)


# ---------------------------------------------------------------------------
# resolutions as complexes

class ResolutionComplex:
    """Free resolution of an FPModule M over its ambient polynomial ring,
    wrapped as a FreeComplex in degrees [-length, 0]."""

    def __init__(self, M, length_cap=None):
        amb = M.ambient
        stages = presentation_resolution(amb, M.ngens, M.relations, length_cap)
        terms = {0: M.ngens}
        diffs = {}
        for k, cols in enumerate(stages):
            terms[-(k + 1)] = len(cols)
            diffs[-(k + 1)] = cols
        self.module = M
        self.complex = FreeComplex(amb, terms, diffs)
        self.length = len(stages)


def resolution_complex(M, length_cap=None):
    return ResolutionComplex(M, length_cap)


def rhom_to_module(M, T, length_cap=None):
    """R Hom(M, T) for M an FPModule over a polynomial ring, T a bounded
    free complex: Hom of the free resolution into T."""
    res = resolution_complex(M, length_cap)
    H, bases = hom_complex(res.complex, T)
    H.hom_bases = bases
    H.resolution = res
    return H


def koszul_complex(ring, elements):
    """Koszul complex on a sequence, as a resolution-shaped complex in
    degrees [-c, 0]: term at -j has basis the j-subsets, d(e_T) =
    sum_{t in T} sign * r_t e_{T - t}."""
    from itertools import combinations

    amb = ambient_of(ring)
    elems = list(elements)
    c = len(elems)
    terms = {}
    diffs = {}
    labels = {}
    subsets = {j: list(combinations(range(c), j)) for j in range(c + 1)}
    index = {j: {s: i for i, s in enumerate(subsets[j])} for j in range(c + 1)}
    for j in range(c + 1):
        terms[-j] = len(subsets[j])
        labels[-j] = ["e" + "".join(str(t + 1) for t in s) for s in subsets[j]]
    for j in range(1, c + 1):
        cols = []
        for T in subsets[j]:
            comps = [amb.zero()] * len(subsets[j - 1])
            for k, t in enumerate(T):
                rest = tuple(x for x in T if x != t)
                sign = (-1) % amb.p if k % 2 else 1
                comps[index[j - 1][rest]] = comps[index[j - 1][rest]] + elems[t].scale(sign)
            cols.append(VectorPoly(amb, comps))
        diffs[-j] = cols
    K = FreeComplex(ring, terms, diffs, labels=labels)
    K.koszul_elements = elems
    K.koszul_subsets = subsets
    K.koszul_index = index
    return K


def lift_chain_map(f0_cols, source, target, ring):
    """Lift a degree-0 map to a chain map source -> target of complexes
    living in degrees <= 0.

    f0_cols are columns source^0 -> target^0; each lower degree is solved
    through the exactness of the target modulo the ring's modulus.  Returns
    a verified ChainMap."""
    amb = target.ambient
    maps = {0: list(f0_cols)}
    lo, _hi = source.support()
    for d in range(-1, lo - 1, -1):
        if source.rank(d) == 0:
            break
        cols = []
        solver = target.span_solver(d, ring)
        for col in source.differential(d):
            # want x with d_target(x) = f_{d+1}(d_source e_j)
            image = VectorPoly(amb, [amb.zero()] * target.rank(d + 1))
            for c, upper in zip(col.components, maps[d + 1]):
                if not c.is_zero():
                    image = image + upper.mul_poly(c)
            coeffs = solver.solve(image)
            if coeffs is None:
                raise AlgebraError("lifting failed at degree %d" % d)
            cols.append(VectorPoly(amb, list(coeffs) + [amb.zero()] * (target.rank(d) - len(coeffs))))
        maps[d] = cols
    return ChainMap(source, target, maps, check=True)


def lift_map_of_resolutions(f0_cols, resA, resB, ring):
    """Lift a degree-0 map of resolved modules to a chain map resA -> resB."""
    return lift_chain_map(f0_cols, resA.complex, resB.complex, ring)


# ---------------------------------------------------------------------------
# complexes of finitely presented modules

class ModComplex:
    """Bounded complex of FPModules with ModuleMap differentials."""

    def __init__(self, ring, terms, diffs, check=True):
        self.ring = ring
        self.ambient = ambient_of(ring)
        self.terms = dict(terms)
        self.diffs = dict(diffs)
        if check:
            for d, f in self.diffs.items():
                nxt = self.diffs.get(d + 1)
                if nxt is not None:
                    comp = nxt.compose(f)
                    if not comp.is_zero_map():
                        raise AlgebraError("d o d != 0 at degree %d" % d)

    def module(self, d):
        return self.terms.get(d)

    def degrees(self):
        return sorted(self.terms)

    def support(self):
        ds = self.degrees()
        return (ds[0], ds[-1]) if ds else (0, -1)


def mod_cohomology(C, window=None):
    """Per-degree cohomology of a ModComplex; restricted to a degree window
    when the complex is only correct there (truncated resolutions)."""
    out = {}
    lo, hi = C.support()
    for d in range(lo, hi + 1):
        if window is not None and not (window[0] <= d <= window[1]):
            continue
        M = C.module(d)
        if M is None:
            continue
        f_out = C.diffs.get(d)
        f_in = C.diffs.get(d - 1)
        out[d] = _cohomology_degree(
            C.ring,
            M.ngens,
            f_out.columns if f_out is not None else None,
            f_out.target.relations if f_out is not None else [],
            list(f_in.columns) if f_in is not None else [],
            list(M.relations),
        )
    return out


def hom_from_free(K, T):
    """Hom(K, T) for K a bounded free complex and T a ModComplex over a
    compatible quotient ring: terms are direct sums of copies of T's terms,
    differential d(f) = d_T o f - (-1)^n f o d_K."""
    ring = T.ring
    amb = ambient_of(ring)
    klo, khi = K.support()
    tlo, thi = T.support()
    bases = {}
    for n in range(tlo - khi, thi - klo + 1):
        triples = []
        for i in K.degrees():
            Tj = T.module(i + n)
            if Tj is None:
                continue
            for a in range(K.rank(i)):
                for g in range(Tj.ngens):
                    triples.append((i, a, g))
        if triples:
            bases[n] = triples
    terms = {}
    offsets = {}
    for n, triples in bases.items():
        mods = []
        offs = []
        acc = 0
        seen_ia = []
        for i in K.degrees():
            Tj = T.module(i + n)
            if Tj is None:
                continue
            for a in range(K.rank(i)):
                seen_ia.append((i, a))
                offs.append(((i, a), acc))
                mods.append(Tj)
                acc += Tj.ngens
        terms[n] = direct_sum(mods) if mods else FPModule(ring, 0, [])
        offsets[n] = dict(offs)
    diffs = {}
    for n in sorted(terms):
        if (n + 1) not in terms:
            continue
        src = terms[n]
        tgt = terms[n + 1]
        cols = [VectorPoly(amb, [amb.zero()] * tgt.ngens) for _ in range(src.ngens)]
        sign = -1 if n % 2 == 0 else 1  # -(-1)^n
        for (i, a, g) in bases[n]:
            col_idx = offsets[n][(i, a)] + g
            comps = [amb.zero()] * tgt.ngens
            # d_T o f part
            dT = T.diffs.get(i + n)
            if dT is not None and (i, a) in offsets[n + 1]:
                img = dT.columns[g]
                base = offsets[n + 1][(i, a)]
                for g2, entry in enumerate(img.components):
                    comps[base + g2] = comps[base + g2] + entry
            # f o d_K part
            dK = K.diffs.get(i - 1)
            if dK is not None:
                for a2 in range(K.rank(i - 1)):
                    entry = dK[a2].components[a]
                    if entry.is_zero():
                        continue
                    key = (i - 1, a2)
                    if key not in offsets[n + 1]:
                        continue
                    base = offsets[n + 1][key]
                    comps[base + g] = comps[base + g] + (
                        entry if sign == 1 else -entry
                    )
            cols[col_idx] = VectorPoly(amb, comps)
        diffs[n] = ModuleMap(src, tgt, cols, check=False)
    C = ModComplex(ring, terms, diffs, check=True)
    C.hom_bases = bases
    C.hom_offsets = offsets
    return C
