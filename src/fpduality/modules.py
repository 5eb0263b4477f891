"""Finitely presented modules over polynomial and quotient rings.

A module is a cokernel presentation: ngens generators of a free cover and a
list of relation columns.  Over a quotient ring the modulus multiples of
each generator are adjoined at construction, so that every Groebner
computation can run over the ambient polynomial ring.  Isomorphism is never
decided generically: is_isomorphism certifies an explicitly given map by an
explicit inverse, checked to be one.  kernel_cokernel presents the kernel
and cokernel of a map.
"""

from heapq import heapify, heappop, heappush
from itertools import combinations
from operator import add

from .errors import AlgebraError, NotGraded, NotMaximal, RingMismatch
from .fp import inv_mod
from .groebner import (
    Ideal,
    ModuleGB,
    QuotientRing,
    SpanSolver,
    VectorPoly,
    ambient_of,
    blocks,
    combine,
    leading_term,
    modulus_gens,
    modulus_tails,
    reduce_in,
    reduced_basis,
    slot_terms,
    syzygies,
    unique_nonzero,
    unit_vector,
    vector_of,
    vector_of_terms,
)
from .polyring import Polynomial


class FPModule:
    """Finitely presented module given by a relation matrix."""

    def __init__(self, ring, ngens, relations, grading=None, normalize=True):
        self.ring = ring
        self.ambient = ambient_of(ring)
        self.ngens = ngens
        rels = list(relations)
        for r in rels:
            if r.rank != ngens:
                raise AlgebraError("relation of length %d in a module of rank %d" % (r.rank, ngens))
        if normalize:
            rels.extend(modulus_tails(ring, ngens))
        # a repeated relation only adds a trivial syzygy to every basis built
        self.relations = unique_nonzero(rels)
        if grading is not None:
            grading = list(grading)
            if len(grading) != ngens:
                raise AlgebraError("one degree per generator required")
        self.grading = grading
        self._relgb = None
        self._pruned = None

    def relgb(self):
        """The reduced Groebner basis of the relations, with its division
        index: read only for the basis and normal forms, so it is built
        without certificates or syzygies."""
        if self._relgb is None:
            self._relgb = reduced_basis(self.ambient, self.ngens, self.relations)
        return self._relgb

    def pruned(self):
        """(P, kept, express) of _eliminate_units: the elimination that
        prune presents, done once and kept, so that P and its basis are
        shared by every prune of this module."""
        if self._pruned is None:
            self._pruned = _eliminate_units(self)
        return self._pruned

    def gen(self, i):
        return unit_vector(self.ambient, self.ngens, i)

    def nf(self, v):
        if self.ngens == 0:
            return v
        if not self.relations:
            return v
        return self.relgb().normal_form(v)

    def element_is_zero(self, v):
        return self.nf(v).is_zero()

    def is_zero_module(self):
        return all(self.element_is_zero(self.gen(i)) for i in range(self.ngens))

    def __repr__(self):
        return "FPModule(ngens=%d, nrels=%d over %r)" % (
            self.ngens,
            len(self.relations),
            self.ring,
        )


def free_module(ring, rank, grading=None):
    return FPModule(ring, rank, [], grading=grading)


def cyclic_module(ring, ideal_gens=()):
    """ring/(ideal) as a module over ring (one generator)."""
    amb = ambient_of(ring)
    rels = [VectorPoly(amb, [g]) for g in ideal_gens]
    return FPModule(ring, 1, rels)


def ideal_module(ring, gens):
    """A finitely generated ideal as a module over its ring.

    Generators map to the given ring elements; relations are their
    syzygies over the ambient ring, modulus included.
    """
    amb = ambient_of(ring)
    cols = [VectorPoly(amb, [g]) for g in gens]
    return FPModule(ring, len(gens), syzygies(cols, modulo=modulus_tails(ring, 1)))


class ModuleMap:
    """Map of FPModules given by a matrix on generators (columns = images)."""

    def __init__(self, source, target, columns, check=True):
        if ambient_of(source.ring) != ambient_of(target.ring):
            raise RingMismatch("source and target must share an ambient ring")
        self.source = source
        self.target = target
        cols = []
        for c in columns:
            if c.rank != target.ngens:
                raise AlgebraError("column of wrong length")
            cols.append(c)
        if len(cols) != source.ngens:
            raise AlgebraError("need one column per source generator")
        self.columns = cols
        if check:
            for r in source.relations:
                if not self.target.element_is_zero(self.apply_coords(r)):
                    raise AlgebraError("map not well defined on a source relation")

    def apply_coords(self, v):
        """Image of a coordinate vector of the source."""
        return combine(self.columns, v.terms.items(), self.target.ambient, self.target.ngens)

    def compose(self, other):
        """self after other."""
        cols = [self.apply_coords(c) for c in other.columns]
        return ModuleMap(other.source, self.target, cols, check=False)

    def __add__(self, other):
        return ModuleMap(
            self.source,
            self.target,
            [a + b for a, b in zip(self.columns, other.columns)],
            check=False,
        )

    def __neg__(self):
        return ModuleMap(self.source, self.target, [-c for c in self.columns], check=False)

    def __sub__(self, other):
        return self + (-other)

    def is_zero_map(self):
        return all(self.target.element_is_zero(c) for c in self.columns)

    def equals(self, other):
        return (
            self.source.ngens == other.source.ngens
            and all(
                self.target.element_is_zero(a - b)
                for a, b in zip(self.columns, other.columns)
            )
        )

    @staticmethod
    def identity(M):
        return ModuleMap(M, M, [M.gen(i) for i in range(M.ngens)], check=False)

    def __repr__(self):
        return "ModuleMap(%d -> %d over %r)" % (self.source.ngens, self.target.ngens, self.target.ring)


# ---------------------------------------------------------------------------
# kernels, cokernels, certification

def kernel_with_inclusion(f):
    """Presentation of ker(f) plus the inclusion map into the source.  The
    kernel generators are in normal form modulo the source relations, with
    zeros and repeats dropped, so ker(f) = 0 iff there are none."""
    kernel = syzygies(f.columns, modulo=f.target.relations)
    kernel_gens = unique_nonzero(f.source.nf(h) for h in kernel)
    k = len(kernel_gens)
    rels = syzygies(kernel_gens, modulo=f.source.relations)
    ker = FPModule(f.source.ring, k, rels)
    incl = ModuleMap(ker, f.source, kernel_gens, check=False)
    return ker, incl


def cokernel(f):
    """coker(f) on the target's generators, its relations followed by the
    columns of f."""
    return FPModule(
        f.target.ring,
        f.target.ngens,
        list(f.target.relations) + list(f.columns),
        normalize=False,
    )


def kernel_cokernel(f):
    """(ker f, coker f); f is an isomorphism iff both are zero modules."""
    ker, _ = kernel_with_inclusion(f)
    return ker, cokernel(f)


def is_isomorphism(f):
    """Certify f through its map between the pruned source M and target N;
    the explicit isomorphisms of prune() make that map's verdict that of f.

    The certificate is an inverse g: N -> M on generators: F^-1 when the
    matrix F is square with constant entries and invertible over F_p,
    otherwise a lift of each target generator through f modulo N's
    relations (no lift: f is not onto).  Either way f . g is the identity
    of N, and f is an isomorphism iff g . f is the identity on M's
    generators modulo M's relations and g sends every relation of N that
    is not automatic for maps into M to zero in M: then g is a module map
    inverse to f, and when f is an isomorphism every lift is f^-1."""
    src, _, to_src, _ = prune(f.source)
    tgt, _, _, from_tgt = prune(f.target)
    if src is not f.source:
        f = f.compose(to_src)
    if tgt is not f.target:
        f = from_tgt.compose(f)
    g = _constant_inverse(f)
    if g is None:
        g = _lifted_inverse(f)
        if g is None:
            return False
    M = f.source
    for i, col in enumerate(f.columns):
        # for a constant g the difference is exactly zero
        diff = M.gen(i) - g.apply_coords(col)
        if not diff.is_zero() and not M.element_is_zero(diff):
            return False
    return all(M.element_is_zero(g.apply_coords(r)) for r in _conditions(f.target.relations, M))


def _constant_inverse(f):
    """The map target -> source whose matrix is F^-1, unchecked, when the
    matrix F of f is square with constant entries and invertible over F_p;
    otherwise None."""
    n = f.source.ngens
    if f.target.ngens != n:
        return None
    rows = [[0] * n for _ in range(n)]
    for j, col in enumerate(f.columns):
        # an entry is constant when its one term is; monomials differ
        # within a slot, so no slot holds two constant terms
        for (i, m), u in col.terms.items():
            if any(m):
                return None
            rows[i][j] = u
    amb = f.source.ambient
    inverse = fp_matrix_inverse(rows, amb.p)
    if inverse is None:
        return None
    cols = [vector_of(amb, n, [(i, amb.const(row[j])) for i, row in enumerate(inverse) if row[j]]) for j in range(n)]
    return ModuleMap(f.target, f.source, cols, check=False)


def _lifted_inverse(f):
    """The map target -> source sending each target generator to a lift
    through f modulo the target relations, unchecked; None when a
    generator does not lift."""
    N = f.target
    gb = ModuleGB(N.ambient, N.ngens, f.columns, modulo=N.relations)
    cols = []
    for j in range(N.ngens):
        c = gb.lift(N.gen(j))
        if c is None:
            return None
        cols.append(c)
    return ModuleMap(N, f.source, cols, check=False)


def _conditions(relations, N):
    """The relations, of a module mapping to N, that are not automatic: a
    relation c*e_j is automatic when c*e_i is a relation of N for every
    generator i of N (the modulus tails, say), since every map then sends
    it into N's relations.  One pass over N's relations finds, for each
    entry c, the generators i with c*e_i among them."""
    slots = {}
    for pos, entry in filter(None, map(_one_slot, N.relations)):
        slots.setdefault(entry, set()).add(pos)
    return [a for a in relations if not ((one := _one_slot(a)) and len(slots.get(one[1], ())) == N.ngens)]


def _one_slot(v):
    """(pos, the frozenset of v's (mono, coeff) terms) when v has one
    nonzero slot pos, else False."""
    positions = {pos for pos, _m in v.terms}
    return len(positions) == 1 and (positions.pop(), frozenset((m, c) for (_p, m), c in v.terms.items()))


# ---------------------------------------------------------------------------
# minimal presentations

def prune(M):
    """(P, kept, to_M, from_M): M presented with a generator eliminated
    wherever a relation has a nonzero constant entry, the generators of M
    that P keeps, and inverse isomorphisms.

    to_M sends generator i of P to generator kept[i] of M;
    from_M . to_M is the identity of P and to_M . from_M the identity of M
    modulo its relations.  When nothing is eliminated, P is M itself, with
    the relation basis it may already hold.  The elimination is kept by M
    (FPModule.pruned), so P and its basis are shared by every call."""
    P, kept, express = M.pruned()
    if P is None:
        P = M
    to_M = ModuleMap(P, M, [M.gen(k) for k in kept], check=False)
    from_M = ModuleMap(M, P, express, check=False)
    return P, kept, to_M, from_M


def _eliminate_units(M):
    """(P, kept, express) for prune(M): P is None when no generator goes,
    kept lists the generators of M that P keeps and express[k] is the image
    of generator k of M in P.

    A row, a relation or the image of a generator, holds its entries as
    term dicts {slot: {mono: coeff}} (slot_terms), and rows_at[i] holds the
    rows with an entry in slot i, so a pivot is substituted only into the
    rows it reaches.  Each pivot is a constant entry of the relation with
    the fewest entries, the first such relation, at its first such slot:
    the smallest key (entries, relation, slot) of a heap, where a key left
    behind by a change of its row is skipped."""
    amb = M.ambient
    p = amb.p
    m = M.ngens
    one = (0,) * amb.nvars
    # modulus tails are set aside and adjoined again for the kept
    # generators: each tail of an eliminated generator is a combination of
    # those, so entries only matter modulo the modulus
    tails = set(modulus_tails(M.ring, m))
    # the relations are distinct, so all tails are among them when this
    # many are
    is_tail = [r in tails for r in M.relations]
    has_tails = sum(is_tail) == len(tails)
    # Ideal.reduce fetches the modulus basis when an entry first needs it
    reduce = has_tails and isinstance(M.ring, QuotientRing) and M.ring.modulus.reduce
    rows = [slot_terms(r) for r, tail in zip(M.relations, is_tail) if not (has_tails and tail)]
    nrels = len(rows)
    rows += [{k: {one: 1}} for k in range(m)]
    rows_at = {i: set() for i in range(m)}
    for t, row in enumerate(rows):
        for i in row:
            rows_at[i].add(t)

    def pivot(t):
        row = rows[t]
        units = [j for j, e in row.items() if one in e and len(e) == 1]
        return units and (len(row), t, min(units))

    # the pivot key of each relation not used as a pivot, False without one
    keys = {t: pivot(t) for t in range(nrels)}
    heap = [key for key in keys.values() if key]
    heapify(heap)
    gone = set()
    while heap:
        key = heappop(heap)
        _, t, j = key
        if keys.get(t) != key:
            continue
        del keys[t]
        r = rows[t]
        inv = inv_mod(r[j][one], p)
        for i in r:
            rows_at[i].discard(t)
        # e_j = -(1/c) sum_{i != j} r_i e_i, with c = r_j = 1/inv: row s
        # gains f times these negated entries for its entry f at j, the
        # product summed first, so that the terms come in the order of
        # polynomial arithmetic
        negated = [(i, {m2: -c2 * inv % p for m2, c2 in c.items()}) for i, c in r.items() if i != j]
        for s in rows_at.pop(j):
            row = rows[s]
            f = row.pop(j)
            for i, c in negated:
                e = row.get(i)
                if e is None:
                    e = {}
                product = {}
                for m1, k1 in f.items():
                    for m2, k2 in c.items():
                        mm = tuple(map(add, m1, m2))
                        k = (product.get(mm, 0) + k1 * k2) % p
                        if k:
                            product[mm] = k
                        elif mm in product:
                            del product[mm]
                for mm, k in product.items():
                    k = (e.get(mm, 0) + k) % p
                    if k:
                        e[mm] = k
                    elif mm in e:
                        del e[mm]
                if reduce and e:
                    e = reduce(Polynomial(amb, e)).terms
                if e:
                    row[i] = e
                    rows_at[i].add(s)
                elif row.pop(i, None) is not None:
                    rows_at[i].discard(s)
            if s in keys:
                key = keys[s] = pivot(s)
                if key:
                    heappush(heap, key)
        gone.add(j)
    if not gone:
        return None, list(range(m)), [M.gen(k) for k in range(m)]
    kept = [k for k in range(m) if k not in gone]
    grading = [M.grading[k] for k in kept] if M.grading is not None else None
    position = {k: i for i, k in enumerate(kept)}

    def restricted(rows):
        return [
            vector_of_terms(amb, len(kept), [((position[i], mm), k) for i, e in sorted(row.items()) for mm, k in e.items()])
            for row in rows
        ]

    rels = restricted(rows[t] for t in range(nrels) if t in keys)
    P = FPModule(M.ring, len(kept), rels, grading=grading, normalize=has_tails)
    return P, kept, restricted(rows[nrels:])


# ---------------------------------------------------------------------------
# hom and tensor

class HomModule(FPModule):
    """Hom_R(M, N) presented as an FPModule, with decode/encode.

    Hom(M, N) is H^0 of Hom(P, N), for P the free complex R^q -> R^m whose
    differential lists the relations of M not automatic for maps into N:
    a cocycle is a map phi, one block phi(e_j) of n entries per generator
    of M, and the boundaries are the maps into the relations of N.  Both
    complexes are built over the ambient ring, so that N's relations are
    taken exactly as given.  That degree's representatives are the raw
    generators, and its coordinates are encode."""

    def __init__(self, M, N):
        from .complexes import FreeComplex, HDegree, cohomology, hom_complex, in_one_degree

        if ambient_of(M.ring) != ambient_of(N.ring):
            raise RingMismatch("Hom requires a common ambient ring")
        self.hom_source = M
        self.hom_target = N
        amb = M.ambient
        conditions = _conditions(M.relations, N)
        P = FreeComplex(amb, {-1: len(conditions), 0: M.ngens}, {-1: conditions})
        H = hom_complex(P, in_one_degree(N, 0, ring=amb))
        # without generators on either side there is no degree 0: Hom = 0
        self.h0 = cohomology(H, window=(0, 0)).degrees.get(0) or HDegree(
            FPModule(amb, 0, []), [], SpanSolver([], amb, 0)
        )
        super().__init__(M.ring, len(self.h0.reps), self.h0.module.relations)

    def decode(self, coeffs):
        """The explicit ModuleMap of a generator index, or of a coefficient
        vector on the generators."""
        amb = self.ambient
        M, N = self.hom_source, self.hom_target
        n = N.ngens
        if isinstance(coeffs, int):
            vec = self.h0.reps[coeffs]
        else:
            vec = combine(self.h0.reps, coeffs.terms.items(), amb, n * M.ngens)
        # degree 0 of the Hom complex lists its basis j-major: block j is phi(e_j)
        return ModuleMap(M, N, [N.nf(b) for b in blocks(vec, n, M.ngens)], check=False)

    def encode(self, f):
        """The coefficient vector of an explicit ModuleMap on the
        generators, or None."""
        n = self.hom_target.ngens
        terms = [((j * n + i, m), c) for j, col in enumerate(f.columns) for (i, m), c in col.terms.items()]
        return self.h0.coords_of_cocycle(vector_of_terms(self.ambient, n * len(f.columns), terms))


def hom_module(M, N):
    return HomModule(M, N)


def tensor_module(M, N):
    """M otimes_R N by the standard block presentation."""
    if ambient_of(M.ring) != ambient_of(N.ring):
        raise RingMismatch("tensor requires a common ambient ring")
    amb = M.ambient
    m, n = M.ngens, N.ngens

    def slot(i, j):
        return i * n + j

    rels = []
    for a in M.relations:
        terms = a.terms.items()
        rels.extend(vector_of_terms(amb, m * n, [((slot(i, j), mono), c) for (i, mono), c in terms]) for j in range(n))
    for b in N.relations:
        terms = b.terms.items()
        rels.extend(vector_of_terms(amb, m * n, [((slot(i, j), mono), c) for (j, mono), c in terms]) for i in range(m))
    grading = None
    if M.grading is not None and N.grading is not None:
        grading = [M.grading[i] + N.grading[j] for i in range(m) for j in range(n)]
    return FPModule(M.ring, m * n, rels, grading=grading)


def direct_sum(modules):
    ring = modules[0].ring
    amb = modules[0].ambient
    total = sum(M.ngens for M in modules)
    offsets = []
    acc = 0
    for M in modules:
        offsets.append(acc)
        acc += M.ngens
    rels = [
        vector_of_terms(amb, total, [((off + i, m), c) for (i, m), c in r.terms.items()])
        for off, M in zip(offsets, modules)
        for r in M.relations
    ]
    return FPModule(ring, total, rels, normalize=False)


def exterior_power(M, k):
    """Lambda^k M: generators are k-subsets, relations are wedged relations."""
    if k < 0 or k > M.ngens:
        raise AlgebraError("exterior power out of range")
    amb = M.ambient
    subsets = list(combinations(range(M.ngens), k))
    index = {s: i for i, s in enumerate(subsets)}
    rels = []
    if k >= 1:
        smaller = list(combinations(range(M.ngens), k - 1))
        for a in M.relations:
            slots = slot_terms(a).items()
            for T in smaller:
                terms = []
                for i, e in slots:
                    if i in T:
                        continue
                    merged = tuple(sorted(T + (i,)))
                    sign = (-1) ** sum(1 for t in T if t < i)
                    terms += [((index[merged], m), sign * c) for m, c in e.items()]
                rels.append(vector_of_terms(amb, len(subsets), terms))
    grading = None
    if M.grading is not None:
        grading = [sum(M.grading[i] for i in s) for s in subsets]
    return FPModule(M.ring, len(subsets), rels, grading=grading)


# ---------------------------------------------------------------------------
# numerics at a maximal ideal, Hilbert functions, generic rank

def _row_reduce(rows, p):
    """(R, pivots): the reduced row echelon form R mod p of an integer
    matrix, by Gauss-Jordan elimination, and its pivot columns."""
    rows = [list(r) for r in rows]
    pivots = []
    ncols = len(rows[0]) if rows else 0
    col = 0
    r = 0
    while r < len(rows) and col < ncols:
        piv = None
        for i in range(r, len(rows)):
            if rows[i][col] % p:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = inv_mod(rows[r][col], p)
        rows[r] = [c * inv % p for c in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] % p:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        col += 1
    return rows, pivots


def fp_rank(rows, p):
    """Rank of an integer matrix mod p by Gaussian elimination."""
    return len(_row_reduce(rows, p)[1])


def fp_matrix_inverse(rows, p):
    """The inverse mod p of a square integer matrix, as a list of rows:
    the right half of the reduced form of [F | 1]; None when F is singular
    mod p, that is when a pivot falls in the right half."""
    n = len(rows)
    reduced, pivots = _row_reduce([list(row) + [int(i == k) for k in range(n)] for i, row in enumerate(rows)], p)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in reduced]


def minimal_generators_at(M, max_ideal):
    """dim_{R/m} M/mM for a maximal ideal with residue field F_p."""
    amb = M.ambient
    if isinstance(max_ideal, (list, tuple)):
        max_ideal = Ideal(amb, max_ideal)
    gens = list(max_ideal.gens) + modulus_gens(M.ring)
    residue = QuotientRing(amb, gens)
    basis = residue.standard_monomials()
    if basis is None or basis != [(0,) * amb.nvars]:
        raise NotMaximal("residue ring is not F_p; desk scale requires residue field F_p")
    p = amb.p
    rows = []
    for rel in M.relations:
        row = []
        for c in rel.components:
            v = residue.reduce(c).constant_value()
            row.append(v if v is not None else 0)
        rows.append(row)
    if not rows:
        return M.ngens
    return M.ngens - fp_rank(rows, p)


def _monomials_of_degree(nvars, d):
    if nvars == 0:
        if d == 0:
            yield ()
        return
    for first in range(d, -1, -1):
        for rest in _monomials_of_degree(nvars - 1, d - first):
            yield (first,) + rest


def hilbert_function(M, d_max):
    """dim_Fp M_d for 0 <= d <= d_max, by monomial counting."""
    if M.grading is None:
        raise NotGraded("module carries no grading")
    amb = M.ambient
    for rel in M.relations:
        degs = set()
        for j, mono in rel.terms:
            degs.add(sum(mono) + M.grading[j])
        if len(degs) > 1:
            raise NotGraded("inhomogeneous relation %r" % (rel,))
    gb = M.relgb().basis
    leads = [leading_term(v, amb.order) for v in gb]
    out = []
    for d in range(d_max + 1):
        count = 0
        for j in range(M.ngens):
            dd = d - M.grading[j]
            if dd < 0:
                continue
            for mono in _monomials_of_degree(amb.nvars, dd):
                divisible = False
                for (pos, lm, _c) in leads:
                    if pos == j and all(x <= y for x, y in zip(lm, mono)):
                        divisible = True
                        break
                if not divisible:
                    count += 1
        out.append(count)
    return out


def _det(ring, rows):
    n = len(rows)
    if n == 0:
        return ring.one()
    if n == 1:
        return rows[0][0]
    acc = ring.zero()
    for j in range(n):
        if rows[0][j].is_zero():
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = rows[0][j] * _det(ring, minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def generic_rank(M):
    """Rank of M at the generic point of a domain: ngens minus the rank of
    the presentation matrix over the fraction field.

    The rank is found by fraction-free elimination: a pivot p clears its
    column from every other row r by r -> p r - r_j (pivot row), which
    keeps the rank over the fraction field; entries stay in normal form
    and are tested for zero modulo the modulus, so the result is exact."""
    ring = M.ring
    cols = [r.components for r in M.relations]
    rows = [[reduce_in(ring, c[i]) for c in cols] for i in range(M.ngens)]
    rank = 0
    while True:
        rows = [row for row in rows if any(e.terms for e in row)]
        if not rows:
            return M.ngens - rank
        # the sparsest, lowest-degree entry keeps the products small
        *_, i, j = min(
            (len(e.terms), max(map(sum, e.terms)), i, j)
            for i, row in enumerate(rows)
            for j, e in enumerate(row)
            if e.terms
        )
        pivot_row = rows.pop(i)
        pivot = pivot_row[j]
        rows = [
            [reduce_in(ring, pivot * x - row[j] * y) for x, y in zip(row, pivot_row)]
            if row[j].terms
            else row
            for row in rows
        ]
        rank += 1
