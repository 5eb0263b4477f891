"""Bounded cochain complexes of free modules, optionally modulo relations.

A term may carry relation columns: term d is then the finitely presented
module FPModule(ring, rank(d), relations[d]); a term without relations is
free over the ring.  Hom and tensor products take a free first factor and
copy the relations of the second factor blockwise.

Cohomological indexing throughout.  Sign conventions are fixed once for the
whole artifact: the differential of Hom(X, Y) is f -> d_Y o f - (-1)^n f o
d_X for f of degree n, and the tensor differential carries the Koszul sign
(-1)^i on the second factor.  d o d = 0 is asserted after every
construction (modulo the modulus of the ring, then modulo the term
relations).
"""

from itertools import combinations
from operator import add

from .errors import AlgebraError, RingMismatch
from .fp import inv_mod
from .groebner import (
    QuotientRing,
    SpanSolver,
    ambient_of,
    combine,
    modulus_tails,
    nonzero_slots,
    reduce_in,
    rename_poly,
    syzygies,
    unique_nonzero,
    unit_vector,
    vector_of,
    vector_of_terms,
)
from .modules import FPModule, ModuleMap, is_isomorphism


def solve_in_span(target, columns, ring, rank):
    """The coefficient vector c with sum c_i columns_i = target modulo the
    modulus of `ring`, or None.  Build a SpanSolver to solve many targets."""
    return SpanSolver(list(columns), ring, rank).solve(target)


class FreeComplex:
    """Bounded complex of free modules, optionally modulo per-degree
    relations; matrices are lists of columns.  bases maps a degree to the
    BasisIndex labelling its term, where the builder names one (Hom and
    tensor triples, Koszul subsets, pushforward labels); solvers maps a
    degree to a SpanSolver of its differential that the builder already
    holds (free_resolution's stages), which span_solver hands out."""

    def __init__(self, ring, terms, diffs, check=True, relations=None, bases=None, solvers=None):
        self.ring = ring
        self.bases = bases or {}
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
        self._modules = {
            d: FPModule(ring, self.terms[d], rels)
            for d, rels in (relations or {}).items()
            if d in self.terms
        }
        self.relations = {d: M.relations for d, M in self._modules.items()}
        self._solvers = solvers or {}
        if check:
            self._check_dd()

    def _check_dd(self):
        for d, cols in self.diffs.items():
            nxt = self.diffs.get(d + 1)
            if not nxt:
                continue
            for c in cols:
                if not self.vanishes(d + 2, combine(nxt, c.terms.items(), self.ambient, self.rank(d + 2))):
                    raise AlgebraError("d o d != 0 at degree %d" % d)

    def rank(self, d):
        return self.terms.get(d, 0)

    def term(self, d):
        """Term d as an FPModule: free unless it carries relations."""
        if d in self._modules:
            return self._modules[d]
        return FPModule(self.ring, self.rank(d), [])

    def term_relations(self, d, ring=None):
        """Relation columns of term d: its own relations, or the modulus
        tails of ring (the complex's ring by default) for a free term."""
        if d in self.relations:
            return self.relations[d]
        return modulus_tails(ring or self.ring, self.rank(d))

    def vanishes(self, d, v):
        """Whether v is zero in term d: modulo the modulus of the ring, or
        else modulo the relations of the term."""
        if not v.terms or isinstance(self.ring, QuotientRing) and all(
            reduce_in(self.ring, x).is_zero() for _, x in nonzero_slots(v)
        ):
            return True
        return d in self.relations and self.term(d).element_is_zero(v)

    def support(self):
        if not self.terms:
            return (0, -1)
        return (min(self.terms), max(self.terms))

    def differential(self, d):
        """Columns of d: C^d -> C^{d+1} (zero columns if absent)."""
        r, s = self.rank(d), self.rank(d + 1)
        if d in self.diffs:
            return self.diffs[d]
        return [vector_of(self.ambient, s, ()) for _ in range(r)]

    def degrees(self):
        return sorted(self.terms)

    def span_solver(self, d, ring):
        """SpanSolver for d(x) = y, x in C^d, modulo the modulus of ring; an
        absent differential gives rank(d) zero columns.  Cached per degree
        when ring is the complex's own ring object."""
        if ring is not self.ring:
            return SpanSolver(self.differential(d), ring, self.rank(d + 1))
        solver = self._solvers.get(d)
        if solver is None:
            solver = SpanSolver(self.differential(d), ring, self.rank(d + 1))
            self._solvers[d] = solver
        return solver

    def renamed(self, ring, index_map):
        """This complex over ring, every matrix and relation entry sent by
        rename_poly into the ambient of ring, variable i going to variable
        index_map[i]; the bases carry over, since the terms keep their
        ranks."""
        amb = ambient_of(ring)

        def mapped(vectors):
            return [
                vector_of(amb, v.rank, [(i, rename_poly(c, amb, index_map)) for i, c in nonzero_slots(v)])
                for v in vectors
            ]

        return FreeComplex(
            ring,
            dict(self.terms),
            {d: mapped(cols) for d, cols in self.diffs.items()},
            relations={d: mapped(rels) for d, rels in self.relations.items()},
            bases=self.bases,
        )

    def __repr__(self):
        lo, hi = self.support()
        ranks = ",".join("%d:%d" % (d, self.rank(d)) for d in self.degrees())
        return "FreeComplex[%d..%d](%s over %r)" % (lo, hi, ranks, self.ring)


def in_one_degree(M, degree, ring=None):
    """The module M, over ring (default: its own ring), as a complex
    concentrated in one degree."""
    return FreeComplex(ring or M.ring, {degree: M.ngens}, {}, relations={degree: M.relations})


def rank_one_complex(ring, degree):
    return FreeComplex(ring, {degree: 1}, {})


def shift(T, k):
    """T[k]: degree n picks up T^{n+k}; differentials gain the sign (-1)^k."""
    sign = 1 if k % 2 == 0 else -1
    terms = {d - k: r for d, r in T.terms.items()}
    diffs = {}
    for d, cols in T.diffs.items():
        diffs[d - k] = [c if sign == 1 else -c for c in cols]
    relations = {d - k: rels for d, rels in T.relations.items()}
    return FreeComplex(T.ring, terms, diffs, check=False, relations=relations)


def _rows(columns, nrows):
    """The nonzero terms of a matrix of nrows rows, given by its columns,
    row by row: rows[i] lists the (column index, mono, coeff) terms of row
    i, in column order and, within a column, in its order."""
    rows = [[] for _ in range(nrows)]
    for j, col in enumerate(columns):
        for (i, m), c in col.terms.items():
            rows[i].append((j, m, c))
    return rows


class BasisIndex:
    """A labelled basis: basis element i carries labels[i], and position
    sends a label back to its index."""

    def __init__(self, labels):
        self.labels = list(labels)
        self.position = {t: i for i, t in enumerate(self.labels)}

    def __len__(self):
        return len(self.labels)


def _product_terms(X, Y, degrees, partner):
    """Bases and relations of the terms of Hom(X, Y) or X tensor Y.

    Term n has one block Y^j, j = partner(n, i), for each basis element a
    of X^i; its basis lists the triples (i, a, b).  X must be free.  The
    relations of Y are copied into every block, in direct_sum order."""
    if X.relations:
        raise AlgebraError("the first factor of Hom or tensor must be free")
    bases = {}
    relations = {}
    for n in degrees:
        triples = []
        blocks = []
        for i in X.degrees():
            j = partner(n, i)
            r = Y.rank(j)
            if r == 0:
                continue
            for a in range(X.rank(i)):
                blocks.append((len(triples), j))
                triples.extend((i, a, b) for b in range(r))
        if not triples:
            continue
        bases[n] = BasisIndex(triples)
        if Y.relations:
            relations[n] = [
                vector_of_terms(X.ambient, len(triples), [((off + i, m), c) for (i, m), c in rel.terms.items()])
                for off, j in blocks
                for rel in Y.term_relations(j)
            ]
    return bases, relations


def hom_complex(X, Y):
    """Hom(X, Y) with differential d_Y o f - (-1)^n f o d_X, for X free;
    term n is labelled by the triples (i, a, b) of _product_terms."""
    if ambient_of(X.ring) != ambient_of(Y.ring):
        raise RingMismatch("Hom of complexes over different ambient rings")
    amb = X.ambient
    ring = Y.ring if isinstance(Y.ring, QuotientRing) else X.ring
    xlo, xhi = X.support()
    ylo, yhi = Y.support()
    bases, relations = _product_terms(X, Y, range(ylo - xhi, yhi - xlo + 1), lambda n, i: i + n)
    terms = {n: len(bi) for n, bi in bases.items()}
    dx_rows = {i: _rows(cols, X.rank(i + 1)) for i, cols in X.diffs.items()}
    diffs = {}
    for n, bi in bases.items():
        tgt = bases.get(n + 1)
        if tgt is None:
            continue
        sign = -1 if n % 2 == 0 else 1  # -(-1)^n
        cols = []
        # every triple a differential reaches is in the basis of degree n + 1
        for (i, a, b) in bi.labels:
            col = []
            if i + n in Y.diffs:
                col += [((tgt.position[(i, a, b2)], m), c) for (b2, m), c in Y.diffs[i + n][b].terms.items()]
            if i - 1 in dx_rows:
                col += [((tgt.position[(i - 1, a2, b)], m), sign * c) for a2, m, c in dx_rows[i - 1][a]]
            cols.append(vector_of_terms(amb, len(tgt), col))
        diffs[n] = cols
    return FreeComplex(ring, terms, diffs, relations=relations, bases=bases)


def tensor_complex(X, Y):
    """Total complex of X tensor Y with Koszul signs, for X free; term n is
    labelled by the triples (i, a, b) of _product_terms."""
    if ambient_of(X.ring) != ambient_of(Y.ring):
        raise RingMismatch("tensor of complexes over different ambient rings")
    amb = X.ambient
    ring = X.ring if isinstance(X.ring, QuotientRing) else Y.ring
    xlo, xhi = X.support()
    ylo, yhi = Y.support()
    bases, relations = _product_terms(X, Y, range(xlo + ylo, xhi + yhi + 1), lambda n, i: n - i)
    terms = {n: len(bi) for n, bi in bases.items()}
    diffs = {}
    for n, bi in bases.items():
        tgt = bases.get(n + 1)
        if tgt is None:
            continue
        cols = []
        # every triple a differential reaches is in the basis of degree n + 1
        for (i, a, b) in bi.labels:
            col = []
            if i in X.diffs:
                col += [((tgt.position[(i + 1, a2, b)], m), c) for (a2, m), c in X.diffs[i][a].terms.items()]
            if n - i in Y.diffs:
                sign = 1 if i % 2 == 0 else -1
                dy = Y.diffs[n - i][b]
                col += [((tgt.position[(i, a, b2)], m), sign * c) for (b2, m), c in dy.terms.items()]
            cols.append(vector_of_terms(amb, len(tgt), col))
        diffs[n] = cols
    return FreeComplex(ring, terms, diffs, relations=relations, bases=bases)


# ---------------------------------------------------------------------------
# cohomology

class HDegree:
    """Cohomology in one degree: presentation, representatives, coordinates.

    solver is the one SpanSolver over the representatives, modulo the
    incoming boundaries and the relations of the term (the modulus tails
    for a free term): its syzygies are the presentation's relations, and it
    gives the coordinates of every cocycle."""

    def __init__(self, module, reps, solver):
        self.module = module
        self.reps = reps
        self.solver = solver

    def coords_of_cocycle(self, v):
        """Class of a cocycle vector as a coefficient vector on the
        presentation's generators, or None."""
        return self.solver.solve(v)

    def classes_of(self, cocycles):
        """Coordinate columns of the classes of the cocycles, or None when
        one of them is not a cocycle class."""
        cols = []
        for v in cocycles:
            cls = self.coords_of_cocycle(v)
            if cls is None:
                return None
            cols.append(cls)
        return cols

    def is_zero(self):
        return self.module.is_zero_module()


def certify_degreewise(h_src, h_tgt, image):
    """Per-degree certificate that a comparison map is a quasi-isomorphism.

    h_src and h_tgt map degrees to HDegree.  A degree missing on one side
    is certified iff the cohomology on both sides is missing or zero.
    Otherwise image(d, v) sends a cocycle v of the source complex in degree
    d to a vector of the target complex; the images of the source
    representatives give the map induced on H^d, and the degree is
    certified iff each image is a cocycle class and that map is an
    isomorphism."""
    certified = {}
    for d in sorted(set(h_src) | set(h_tgt)):
        a = h_src.get(d)
        b = h_tgt.get(d)
        if a is None or b is None:
            certified[d] = (a is None or a.is_zero()) and (b is None or b.is_zero())
            continue
        cols = b.classes_of(image(d, rep) for rep in a.reps)
        if cols is None:
            certified[d] = False
            continue
        certified[d] = is_isomorphism(ModuleMap(a.module, b.module, cols, check=True))
    return certified


class CohomologyReport:
    def __init__(self, degrees):
        self.degrees = degrees  # dict degree -> HDegree

    def nonzero_degrees(self):
        return sorted(d for d, h in self.degrees.items() if not h.is_zero())

    def lowest_nonzero(self):
        ds = self.nonzero_degrees()
        return ds[0] if ds else None


def cohomology(T, over=None, window=None):
    """Per-degree kernel/image presentations of a complex.

    The cocycles in degree d are the kernel of the outgoing differential
    modulo the relations of term d+1; H^d presents them modulo the
    boundaries and the relations of term d.  `over` may supply a
    QuotientRing whose modulus is adjoined to the free terms and over which
    H is presented; complexes over quotient rings adjoin their own modulus
    automatically.  `window` restricts the degrees, for complexes that are
    only correct there (truncated resolutions).
    """
    ring = over or T.ring
    amb = ambient_of(ring)
    out = {}
    lo, hi = T.support()
    if window is not None:
        lo, hi = max(lo, window[0]), min(hi, window[1])
    for d in range(lo, hi + 1):
        r = T.rank(d)
        if r == 0:
            continue
        d_out = T.diffs.get(d)
        if d_out is None:
            reps = [unit_vector(amb, r, i) for i in range(r)]
        else:
            reps = syzygies(d_out, modulo=T.term_relations(d + 1, ring))
        # boundaries and relations are cocycles, so without reps they are
        # zero as well and the degree builds no basis
        boundaries_and_relations = list(T.diffs.get(d - 1, [])) + list(T.term_relations(d, ring))
        solver = SpanSolver(reps, amb, r, extra=boundaries_and_relations)
        out[d] = HDegree(FPModule(ring, len(reps), solver.syzygies), reps, solver)
    return CohomologyReport(out)


def mod_cohomology(C, window=None):
    """The per-degree dict of cohomology(C, window=window)."""
    return cohomology(C, window=window).degrees


# ---------------------------------------------------------------------------
# chain maps

class ChainMap:
    """Map of complexes; maps[d] is a list of columns C^d_src -> C^d_tgt,
    verified to commute with the differentials."""

    def __init__(self, source, target, maps):
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
        self._row_lists = {}
        self.verify()

    def column(self, d, j):
        if d in self.maps:
            return self.maps[d][j]
        return vector_of(self.target.ambient, self.target.rank(d), ())

    def rows(self, d):
        """The nonzero entries of the component at degree d row by row (see
        _rows), computed once per degree."""
        if d not in self._row_lists:
            self._row_lists[d] = _rows(self.maps.get(d, []), self.target.rank(d))
        return self._row_lists[d]

    def apply(self, d, v):
        return combine(self.maps.get(d, []), v.terms.items(), self.target.ambient, self.target.rank(d))

    def verify(self):
        """d_tgt o f = f o d_src in the target's terms."""
        amb = self.target.ambient
        for d in self.source.degrees():
            r = self.target.rank(d + 1)
            if r == 0:
                continue
            d_tgt = self.target.diffs.get(d, [])
            d_src = self.source.differential(d)
            for j in range(self.source.rank(d)):
                lhs = combine(d_tgt, self.column(d, j).terms.items(), amb, r)
                if not self.target.vanishes(d + 1, lhs - self.apply(d + 1, d_src[j])):
                    raise AlgebraError("not a chain map at degree %d" % d)


def invert_monomial_chain_map(f):
    """The inverse of a chain map whose every component is square with
    exactly one nonzero constant entry per column, on distinct rows.

    The inverse is the transpose with the units inverted.  It is checked as
    a chain map, and both composites with f are checked to be the identity
    in every degree: an isomorphism of the complexes themselves, certified
    on their terms.  Any other component raises AlgebraError."""
    src, tgt = f.source, f.target
    amb = src.ambient
    maps = {}
    for d in sorted(set(src.terms) | set(tgt.terms)):
        n = src.rank(d)
        if tgt.rank(d) != n:
            raise AlgebraError("component at degree %d is %d x %d, not square" % (d, tgt.rank(d), n))
        inverse = [[] for _ in range(n)]
        rows = set()
        for j in range(n):
            terms = f.column(d, j).terms
            slots = {i for i, _m in terms}
            if len(slots) != 1:
                raise AlgebraError("column %d at degree %d has %d nonzero entries" % (j, d, len(slots)))
            [i] = slots
            (_i, m), u = next(iter(terms.items()))
            if len(terms) != 1 or any(m):
                raise AlgebraError("entry (%d, %d) at degree %d is not a constant" % (i, j, d))
            if i in rows:
                raise AlgebraError("row %d at degree %d is hit twice" % (i, d))
            rows.add(i)
            inverse[i].append(((j, m), inv_mod(u, amb.p)))
        maps[d] = [vector_of_terms(amb, n, terms) for terms in inverse]
    g = ChainMap(tgt, src, maps)
    for first, second in ((f, g), (g, f)):
        C = first.source
        for d in C.degrees():
            for j in range(C.rank(d)):
                back = second.apply(d, first.column(d, j))
                if not C.vanishes(d, back - unit_vector(C.ambient, C.rank(d), j)):
                    raise AlgebraError("composite is not the identity at degree %d" % d)
    return g


# ---------------------------------------------------------------------------
# resolutions as complexes

def free_resolution(ring, rank, columns, length=None):
    """The free resolution of ring^rank / (columns), as a FreeComplex in
    degrees [-n, 0] with terms[0] = rank, where n is the number of stages;
    with a length it is exact in degrees > -length.

    Stage 1 is the columns, stage k + 1 the syzygies of stage k, computed
    by a SpanSolver over its columns modulo the modulus of the ring; each
    differential keeps that solver as its span_solver, so a lift into the
    resolution builds no basis again.  Over a QuotientRing the entries are
    kept in normal form; repeated columns are dropped.  Stops when a
    syzygy module vanishes, or after `length` stages, without computing
    the syzygies of the last one.  With no length, a resolution longer
    than nvars + 3 stages raises AlgebraError.
    """
    cap = ring.nvars + 2
    amb = ambient_of(ring)

    def reduced(vectors):
        if isinstance(ring, QuotientRing):
            vectors = [vector_of(amb, v.rank, [(i, ring.reduce(x)) for i, x in nonzero_slots(v)]) for v in vectors]
        return unique_nonzero(vectors)

    terms = {0: rank}
    diffs = {}
    solvers = {}
    current = reduced(columns)
    while current:
        if length is None and len(diffs) > cap:
            raise AlgebraError(
                "resolution did not terminate within cap %d; this should not happen over a polynomial ring"
                % cap
            )
        d = -len(diffs) - 1
        terms[d] = len(current)
        diffs[d] = current
        if -d == length:
            break
        solvers[d] = solver = SpanSolver(current, ring, current[0].rank)
        current = reduced(solver.syzygies)
    return FreeComplex(ring, terms, diffs, solvers=solvers)


def resolution_complex(M):
    """Free resolution of an FPModule M over its ambient polynomial ring."""
    return free_resolution(M.ambient, M.ngens, M.relations)


def rhom_to_module(M, T):
    """R Hom(M, T) for M an FPModule over a polynomial ring, T a bounded
    free complex: (the free resolution of M, Hom of it into T)."""
    res = resolution_complex(M)
    return res, hom_complex(res, T)


def koszul_complex(ring, elements):
    """Koszul complex on a sequence, as a resolution-shaped complex in
    degrees [-c, 0]: term at -j is labelled by the j-subsets, d(e_T) =
    sum_{t in T} sign * r_t e_{T - t}."""
    amb = ambient_of(ring)
    elems = list(elements)
    c = len(elems)
    bases = {-j: BasisIndex(combinations(range(c), j)) for j in range(c + 1)}
    diffs = {}
    for j in range(1, c + 1):
        below = bases[-(j - 1)]
        cols = []
        for T in bases[-j].labels:
            # the sign of r_t e_{T - t} is (-1)^k, t the k-th element of T
            entries = [(below.position[T[:k] + T[k + 1 :]], elems[t].scale((-1) ** k)) for k, t in enumerate(T)]
            cols.append(vector_of(amb, len(below), entries))
        diffs[-j] = cols
    return FreeComplex(ring, {d: len(b) for d, b in bases.items()}, diffs, bases=bases)


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
            coeffs = solver.solve(combine(maps[d + 1], col.terms.items(), amb, target.rank(d + 1)))
            if coeffs is None:
                raise AlgebraError("lifting failed at degree %d" % d)
            cols.append(coeffs)
        maps[d] = cols
    return ChainMap(source, target, maps)


def lift_map_of_resolutions(f0_cols, resA, resB, ring):
    """Lift a degree-0 map of resolved modules to a chain map resA -> resB."""
    return lift_chain_map(f0_cols, resA, resB, ring)


# ---------------------------------------------------------------------------
# Hom transposes

def hom_transpose_vector(lifted, v, b_src, b_tgt):
    """Precompose one element of Hom(Y, T)^n with a chain map lifted: X -> Y.

    v has coordinates on b_src, the basis of Hom(Y, T)^n; the result has
    coordinates on b_tgt, the basis of Hom(X, T)^n."""
    terms = []
    for (pos, m1), c1 in v.terms.items():
        i, aY, b = b_src.labels[pos]
        for aX, m2, c2 in lifted.rows(i)[aY]:
            q = b_tgt.position.get((i, aX, b))
            if q is not None:
                terms.append(((q, tuple(map(add, m1, m2))), c1 * c2))
    return vector_of_terms(v.ring, len(b_tgt), terms)


def hom_transpose_chain_map(lifted, W_src, W_tgt):
    """Hom(-, T) of a chain map of resolutions: W_src = Hom(Y, T) maps to
    W_tgt = Hom(X, T) by precomposition with lifted: X -> Y."""
    amb = W_tgt.ambient
    maps = {}
    for n, b_src in W_src.bases.items():
        b_tgt = W_tgt.bases.get(n)
        if b_tgt is not None:
            maps[n] = [
                hom_transpose_vector(lifted, unit_vector(amb, len(b_src), k), b_src, b_tgt)
                for k in range(len(b_src))
            ]
    return ChainMap(W_src, W_tgt, maps)
