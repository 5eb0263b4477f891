"""Buchberger engine for ideals and submodules of free modules.

One extended computation produces three artifacts at once: the reduced
Groebner basis, a certificate expressing every basis element in the input
generators, and generators of the syzygy module.  The trick is the usual
one: augment each input vector with a unit tail and run Buchberger under a
block order in which every term of the original free module dominates every
tail term.  Vectors that a kernel is taken modulo join the input with a
zero tail, so the syzygies among them are never computed.  Callers that
read only the basis and normal forms keep a ReducedBasis instead, computed
without the tails.

Module term order: position-over-term over the ring's order, positions
compared ascending (e_0 is the largest position).  Pair selection is the
normal strategy (smallest lcm); Gebauer-Moeller elimination prunes the pair
queue.  Runs are deterministic.

A module element is its ring, its rank and one dict of its nonzero terms
{(pos, mono): coeff}, the way Singular stores a vector as one polynomial
whose terms carry their component, and nothing else: S-pairs, division and
the final tail reduction build no per-slot polynomial, a per-slot view is
built from the terms when it is read, and a division index holds the
leading terms of its divisors.

Division runs on packed terms (Monagan & Pearce): each term (pos, mono) is
one integer whose low fields hold the degree and the exponents, under a key
linear in the exponents whose integer order is the term order (see
_Packing).  The heap holds plain ints, a divisor term times a quotient is
one addition, and divisibility is one guard-bit test.  The field width
holds the largest input degree and the degree budget plus the largest
degree of a divisor term, which bounds every term a reduction brings in,
and twice that degree, which bounds the lcm of two leading terms.  One
rule keeps it so (DivisionIndex._fit): an index fits its fields to every
term of a divisor when the divisor joins, and a division fits them to its
input and the budget at entry, so a field never wraps and no division
starts again.

Buchberger stays on packed terms from input to basis.  An S-pair enters
division as (i, j, pos, lcm) over the basis index: its terms are the two
packed tails, each shifted by one integer addition.  The division
returns the remainder's packed terms, unscaled, the first of them its
leading term, and buchberger hands them to the index's add() with the
remainder: the index keeps the inverse of each leading coefficient, and
the basis is made monic at the end.  The pair queue keys each pair by
its packed lcm, and the Gebauer-Moeller criteria are guard-bit tests,
equalities and degree fields of packed lcms.  The final tail reduction
runs bottom up, in ascending leading term, dividing each tail only by
the elements already reduced, and only when one of their leads divides
one of its terms.  Each reduced element is added to a new index in the
same packing with its packed terms, and buchberger hands that index over
with the basis: ModuleGB, ReducedBasis and Ideal divide by it and pack
nothing again.  Every field of an index is written by its own methods;
the packed terms reach it as an argument of add().
"""

import functools
import heapq
from itertools import product
from operator import add, itemgetter, mul

from .config import config
from .errors import AlgebraError, DegreeBudgetExceeded, RingMismatch
from .fp import inv_mod
from .polyring import (
    PolyRing,
    Polynomial,
    MonomialOrder,
    mono_degree,
    mono_divides,
    mono_lcm,
)


class VectorPoly:
    """Element of a free module R^rank, stored as its ring, its rank and
    one dict of its nonzero terms {(pos, mono): coeff}, and nothing else.

    Arithmetic, division and Buchberger walk the nonzero terms only, so the
    zero slots of an augmented vector cost nothing.  The per-slot views are
    built from the terms on each read: nonzero_slots, one polynomial per
    nonzero slot with its terms in their order in the dict, and
    `components`, the dense tuple of all rank slots.
    """

    __slots__ = ("ring", "rank", "terms")

    def __init__(self, ring, components):
        components = tuple(components)
        terms = {}
        for i, c in enumerate(components):
            if c.ring is not ring and c.ring != ring:
                raise RingMismatch("vector components must share one ambient ring")
            for m, k in c.terms.items():
                terms[(i, m)] = k
        self.ring = ring
        self.rank = len(components)
        self.terms = terms

    @classmethod
    def _of(cls, ring, rank, terms):
        """The vector of rank `rank` with these nonzero terms, taken as
        they are: they come from vectors already checked."""
        v = cls.__new__(cls)
        v.ring = ring
        v.rank = rank
        v.terms = terms
        return v

    @property
    def components(self):
        comps = [self.ring.zero()] * self.rank
        for i, c in nonzero_slots(self):
            comps[i] = c
        return tuple(comps)

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatch("operands live in %r and %r" % (self.ring, other.ring))

    def _add_scaled(self, other, sign):
        self._check(other)
        p = self.ring.p
        acc = dict(self.terms)
        for key, c in other.terms.items():
            c2 = (acc.get(key, 0) + sign * c) % p
            if c2:
                acc[key] = c2
            elif key in acc:
                del acc[key]
        return VectorPoly._of(self.ring, self.rank, acc)

    def __add__(self, other):
        return self._add_scaled(other, 1)

    def __sub__(self, other):
        return self._add_scaled(other, -1)

    def __neg__(self):
        p = self.ring.p
        return VectorPoly._of(self.ring, self.rank, {key: (-c) % p for key, c in self.terms.items()})

    def scale(self, c):
        p = self.ring.p
        c %= p
        if c == 0:
            return VectorPoly._of(self.ring, self.rank, {})
        return VectorPoly._of(self.ring, self.rank, {key: k * c % p for key, k in self.terms.items()})

    def mul_term(self, mono, coeff):
        p = self.ring.p
        coeff %= p
        if coeff == 0:
            return VectorPoly._of(self.ring, self.rank, {})
        return VectorPoly._of(
            self.ring,
            self.rank,
            {(i, tuple(map(add, m, mono))): c * coeff % p for (i, m), c in self.terms.items()},
        )

    def __eq__(self, other):
        return (
            isinstance(other, VectorPoly)
            and self.ring == other.ring
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.rank, frozenset(self.terms.items())))

    def __repr__(self):
        return "(" + ", ".join(repr(c) for c in self.components) + ")"


def vector_of(ring, rank, entries):
    """The vector of ring^rank with poly added into slot pos for each
    (pos, poly) of entries, in their order: each slot's terms come in the
    order of the sum of its polynomials."""
    p = ring.p
    acc = {}
    for pos, poly in entries:
        if not 0 <= pos < rank:
            raise IndexError("slot %d of a rank-%d vector" % (pos, rank))
        if poly.ring is not ring and poly.ring != ring:
            raise RingMismatch("vector components must share one ambient ring")
        for m, c in poly.terms.items():
            key = (pos, m)
            c2 = (acc.get(key, 0) + c) % p
            if c2:
                acc[key] = c2
            elif key in acc:
                del acc[key]
    return VectorPoly._of(ring, rank, acc)


def vector_of_terms(ring, rank, terms):
    """The vector of ring^rank that is the sum of the flat terms ((pos,
    mono), coeff), in their order: vector_of without a polynomial per
    slot.  The positions are taken as they are."""
    p = ring.p
    acc = {}
    get = acc.get
    for key, c in terms:
        c = (get(key, 0) + c) % p
        if c:
            acc[key] = c
        elif key in acc:
            del acc[key]
    return VectorPoly._of(ring, rank, acc)


def slot_terms(v):
    """v's terms grouped by slot, as {pos: {mono: coeff}}: each slot's
    terms in their order in v, the slots in the order they first occur.
    The dicts are new, for the caller to change."""
    rows = {}
    for (i, m), c in v.terms.items():
        e = rows.get(i)
        if e is None:
            rows[i] = {m: c}
        else:
            e[m] = c
    return rows


def nonzero_slots(v):
    """The nonzero slots of v as a tuple of (pos, poly) pairs in position
    order, each slot's terms in their order in v: built from its terms on
    each call."""
    rows = slot_terms(v)
    ring = v.ring
    return tuple((i, Polynomial(ring, rows[i])) for i in sorted(rows))


def unit_vector(ring, rank, i, poly=None):
    """poly (by default 1) in slot i of ring^rank, built from its terms."""
    if not 0 <= i < rank:
        raise IndexError("slot %d of a rank-%d vector" % (i, rank))
    poly = ring.one() if poly is None else poly
    if poly.ring is not ring and poly.ring != ring:
        raise RingMismatch("vector components must share one ambient ring")
    return VectorPoly._of(ring, rank, {(i, m): c for m, c in poly.terms.items()})


def vector_from_poly(f):
    return VectorPoly(f.ring, (f,))


def poly_from_vector(v):
    """The polynomial of a vector of rank one, its terms in their order."""
    return Polynomial(v.ring, {m: c for (_pos, m), c in v.terms.items()})


# ---------------------------------------------------------------------------
# leading terms under POT

def leading_term(v, order):
    """Largest (pos, mono, coeff), or None for the zero vector: positions
    compare ascending, so the leading term is the largest monomial of the
    first nonzero component."""
    if not v.terms:
        return None
    pos = min([i for i, _m in v.terms])
    m = max([m for i, m in v.terms if i == pos], key=order.key)
    return (pos, m, v.terms[(pos, m)])


def _budget_check(deg):
    if deg > config.degree_budget:
        raise DegreeBudgetExceeded(
            "intermediate degree %d exceeds the budget %d" % (deg, config.degree_budget)
        )


def _need(top):
    """The degree the fields of an index of largest degree `top` must
    hold: the budget plus top bounds every term a reduction brings in, and
    twice top every lcm of two leading terms."""
    return max(config.degree_budget, top) + top


def _width(need):
    """The field width, a multiple of 8 bits, whose guard bit stays clear
    for every degree up to need."""
    if need < 128:
        return 8
    return -(-(need.bit_length() + 1) // 8) * 8


class _Packing:
    """Terms (pos, mono) of a free module over n variables as integers with
    fields of `width` bits (Monagan & Pearce), for one term order.

    With B = 2**width, pack(m) = deg(m) + sum m_i B**(i+1) holds the degree
    in field 0 and x_i in field i+1, and key(m) = X(m) * B**(n+1) - pack(m),
    X the order's rank weights, is linear in the exponents and ascending in
    the term order.  A term is D = pos * H + H/2 - key(m), H a power of two
    above twice every key, so the smallest D is the largest term under
    position-over-term and pos = D >> shift.  The low n+1 fields of D are
    pack(m) for every monomial of degree at most `cap`: the top bit of each
    field, its guard, stays clear.  Hence, for terms d and e at one
    position, e's monomial divides d's exactly when no guard bit of d - e
    is set; the quotient is then the monomial in the low fields of d - e,
    and a term times it is the term plus d - e.
    """

    __slots__ = ("width", "cap", "consts", "_n")

    def __init__(self, order, n, width):
        b = 1 << width
        low = width * (n + 1)
        rank, bits = order.rank_weights(n, width)
        self.width = width
        self.cap = (b >> 1) - 1
        # (shift, offset, weights, guard, degree mask): D = (pos << shift) +
        # offset + sum m_i weights_i, and deg(m) = D & degree mask
        self.consts = (
            bits + low + 1,
            1 << (bits + low),
            tuple(1 + (b << (width * i)) - (x << low) for i, x in enumerate(rank)),
            sum(1 << (width * j + width - 1) for j in range(n + 1)),
            b - 1,
        )
        self._n = n

    def term(self, pos, mono):
        shift, offset, weights, _guard, _dmask = self.consts
        return sum(map(mul, mono, weights), (pos << shift) + offset)

    def mono(self, d):
        """The monomial in the low fields of d."""
        w = self.width
        n = self._n
        x = (d >> w) & ((1 << (w * n)) - 1)
        if w == 8:
            return tuple(x.to_bytes(n, "little"))
        return tuple([x >> s & self.consts[4] for s in range(0, w * n, w)])


# one packing per (order, n, width), shared by every index
_packing = functools.cache(_Packing)
_mono = itemgetter(1)


class DivisionIndex:
    """Divisors kept for repeated divisions, in their order, with their
    terms packed (see _Packing).

    For each divisor: its leading (pos, mono, coeff) in `leads`, and,
    grouped per leading position in divisor order, (k, packed leading term,
    inverse of coeff) in `by_pos`; division tries them in that order.  The
    other terms of a divisor are packed as (term, coeff) the first time it
    fires, unless the caller of add() hands them over packed: buchberger
    for the remainder of an S-pair division, _reduced_basis for a reduced
    element.  `top` is the largest degree of any divisor term, and the
    fields hold _need(top): add() raises top to the largest degree of the
    new divisor and fits the fields to it (_fit), so a divisor's terms,
    packed when it fires, fit the fields the division runs in.
    """

    __slots__ = ("order", "divisors", "leads", "top", "by_pos", "_packing", "_tails")

    def __init__(self, order, divisors=()):
        self.order = order
        self.divisors = []
        self.leads = []
        self.top = 0
        self.by_pos = {}
        self._packing = None
        self._tails = []
        for g in divisors:
            self.add(g)

    def add(self, g, packed=None):
        """Append the divisor g.  `packed`, when given, is g's terms as
        (packed term, coeff) in this index's packing, its leading term
        first, not always g's first term: the index keeps them as g's
        tail, unless g's degree makes it repack."""
        lead = tail = None
        if g.terms:
            pk = self._packing
            if packed is not None:
                shift, _offset, _weights, _guard, dmask = pk.consts
                deg = max([d & dmask for d, _c in packed])
                ld, c = packed[0]
                lead = (ld >> shift, pk.mono(ld), c)
                tail = packed[1:]
            else:
                # the packed terms hold the degree only once the fields do
                deg = max(map(sum, map(_mono, g.terms)))
            if pk is None or deg > self.top:
                # the fields held _need(top), so only a higher term can
                # need wider ones (a division fits a raised budget itself)
                self.top = max(self.top, deg)
                if self._fit(g.ring.nvars) is not pk:
                    pk = self._packing
                    lead = tail = None
            if lead is None:
                # the leading term is the smallest packed term
                shift, offset, weights, _guard, _dmask = pk.consts
                ld, key = min([(sum(map(mul, m, weights), (i << shift) + offset), (i, m)) for i, m in g.terms])
                lead = key + (g.terms[key],)
            self.by_pos.setdefault(lead[0], []).append((len(self.divisors), ld, inv_mod(lead[2], g.ring.p)))
        self.divisors.append(g)
        self.leads.append(lead)
        self._tails.append(tail)

    def _fit(self, n, low=0):
        """The packing, after repacking the index if its fields do not hold
        max(_need(top), low): low is the degree of an input to divide."""
        need = max(_need(self.top), low)
        pk = self._packing
        if pk is None or need > pk.cap:
            pk = self._repack(n, need)
        return pk

    def _repack(self, n, need):
        """Pack the leading terms into fields that hold degree `need`; the
        other terms are packed again when their divisor next fires."""
        pk = self._packing = _packing(self.order, n, _width(need))
        self.by_pos = {}
        for k, lead in enumerate(self.leads):
            if lead is not None:
                pos, mono, c = lead
                self.by_pos.setdefault(pos, []).append((k, pk.term(pos, mono), inv_mod(c, self.divisors[k].ring.p)))
        self._tails = [None] * len(self.leads)
        return pk

    def heads(self, rank, divisors):
        """The index of `divisors`, the parts below position `rank` of this
        index's first len(divisors) divisors, when no later divisor leads
        below rank: it shares their packed leads, and their packed tails
        cut to the positions below rank."""
        sub = DivisionIndex(self.order)
        n = len(divisors)
        sub.divisors = list(divisors)
        sub.leads = self.leads[:n]
        sub.top = self.top
        pk = sub._packing = self._packing
        if pk is not None:
            bound = rank << pk.consts[0]
            sub._tails = [tail and [e for e in tail if e[0] < bound] for tail in self._tails[:n]]
            sub.by_pos = {pos: list(entries) for pos, entries in self.by_pos.items() if pos < rank}
        return sub

    def emptied(self):
        """An index with no divisors in this index's packing, whose fields
        hold every term of its divisors."""
        out = DivisionIndex(self.order)
        out._packing = self._packing
        return out

    def reverse(self):
        """Turn the divisors round, in place: divisor k becomes divisor
        n - 1 - k, and each position tries its leads in the new order."""
        n = len(self.divisors)
        self.divisors.reverse()
        self.leads.reverse()
        self._tails.reverse()
        self.by_pos = {
            pos: [(n - 1 - k, lead, linv) for k, lead, linv in reversed(entries)]
            for pos, entries in self.by_pos.items()
        }

    def tail(self, k):
        """Divisor k's terms other than its leading one, as (packed term,
        coeff), packed now and kept."""
        pos, lmono, _c = self.leads[k]
        rest = dict(self.divisors[k].terms)
        del rest[(pos, lmono)]
        term = self._packing.term
        flat = self._tails[k] = [(term(i, m), c) for (i, m), c in rest.items()]
        return flat

    def divides_one(self, terms):
        """Whether a leading term of the index divides one of the packed
        terms, given as (term, coeff): one guard-bit test per term and lead
        at its position."""
        shift, _offset, _weights, guard, _dmask = self._packing.consts
        by_pos = self.by_pos
        for t, _c in terms:
            for _k, lead, _linv in by_pos.get(t >> shift, ()):
                if not (t - lead) & guard:
                    return True
        return False

    def spair(self, i, j, pos, lcm):
        """The S-vector (lcm/lm_i) g_i - (lc_i/lc_j) (lcm/lm_j) g_j of
        divisors i and j, whose leading terms at position pos have the lcm
        `lcm` (within the degree budget), as {packed term: coeff}: each tail
        term shifted by packed(lcm) minus the packed lead of its divisor."""
        tails = self._tails
        ti = tails[i] if tails[i] is not None else self.tail(i)
        tj = tails[j] if tails[j] is not None else self.tail(j)
        term = self._packing.term
        (_, mi, ci), (_, mj, cj) = self.leads[i], self.leads[j]
        p = self.divisors[i].ring.p
        at_lcm = term(pos, lcm)
        qi = at_lcm - term(pos, mi)
        qj = at_lcm - term(pos, mj)
        a = ci * inv_mod(cj, p) % p
        terms = {t + qi: c for t, c in ti}
        for t, c in tj:
            t += qj
            c = (terms.get(t, 0) - c * a) % p
            if c:
                terms[t] = c
            elif t in terms:
                del terms[t]
        return terms


def division(v, divisors, quotients=True):
    """Divide v by the divisors; returns (quotients, remainder).

    divisors is a DivisionIndex, whose order applies, or a list, indexed
    for this call only under the order of v's ring.  v = sum quotients[k] * divisors[k] + remainder,
    and no remainder term is divisible by any divisor leading term; with
    quotients=False the quotients are not collected and None stands in
    their place.  v is a vector, or an S-pair (i, j, pos, lcm) of the
    index's divisors i and j, whose lcm passed the budget check: the
    working terms are then seeded from their shifted packed tails
    (DivisionIndex.spair), v stands for that S-vector, no quotients are
    collected, and the remainder's packed terms, its leading term first,
    stand in their place, for the caller to hand to the index's add().
    The work is _division's; only here are its flat quotients gathered
    into one polynomial per divisor.
    """
    if not isinstance(divisors, DivisionIndex):
        divisors = DivisionIndex(v.ring.order, divisors)
    quo, rem = _division(v, divisors, quotients)
    if quo is None or isinstance(v, tuple):
        return quo, rem
    polys = [{} for _ in divisors.divisors]
    for (k, m), c in quo:
        polys[k][m] = c
    return [Polynomial(rem.ring, terms) for terms in polys], rem


def _division(v, index, quotients):
    """division() by an index, the quotients as the flat terms ((k, mono),
    coeff) of a coefficient vector on the divisors, or None; for an
    S-pair, the remainder's (packed term, coeff) in their place.  The loop
    is _divide; only new remainder and quotient terms are unpacked, and
    the first remainder term is the largest.  A zero vector, a frequent
    normal form, returns at once."""
    if isinstance(v, tuple):
        # the S-vector has the ring and rank of its divisor i
        spair = v
        v = index.divisors[spair[0]]
    else:
        spair = None
    ring = v.ring
    if not v.terms:
        return ([] if quotients else None), VectorPoly._of(ring, v.rank, {})
    if spair is None:
        low = max([sum(m) for _pos, m in v.terms])
        quo, remainder, keys, pk = _divide(index, ring, low, v.terms, True, None, quotients)
    else:
        quo, remainder, keys, pk = _divide(index, ring, 0, None, True, spair, False)
    shift = pk.consts[0]
    mono = pk.mono
    rem = VectorPoly._of(ring, v.rank, {keys.get(d) or (d >> shift, mono(d)): c for d, c in remainder.items()})
    if spair is not None:
        return list(remainder.items()), rem
    if quo is not None:
        quo = [((k, mono(q)), c) for k, q, c in quo]
    return quo, rem


def _reduce_poly(f, index):
    """The remainder of the polynomial f divided by the index, as a
    polynomial: the remainder of division(vector_from_poly(f), index) in
    slot 0, its terms in the same order, without building either vector."""
    if not f.terms:
        return f
    ring = f.ring
    _quo, remainder, keys, pk = _divide(index, ring, max(map(sum, f.terms)), f.terms, False, None, False)
    mono = pk.mono
    return Polynomial(ring, {keys.get(d) or mono(d): c for d, c in remainder.items()})


def _divide(index, ring, low, items, vector, spair, quotients):
    """The division loop of division() over the index, on packed terms:
    returns (quotients as a list of (k, packed quotient, coeff) or None,
    the remainder as {packed term: coeff} in descending order, the input
    terms' keys by packed term, the packing).

    The input is `items`, a vector's {(pos, mono): coeff} when `vector`
    is true, else a polynomial's {mono: coeff} at position 0, of largest
    degree `low`; or, when items is None, the S-pair `spair`.  The working
    terms map packed terms to coefficients, driven by a lazy min-heap of
    the packed terms, whose smallest is the largest term under
    position-over-term.  A term is reduced by the first divisor whose
    leading term divides it; every term a reduction brings in is smaller
    than the one it removes, so each quotient and remainder term is
    written once, and each costs one probe of the working terms: an
    absent term is pushed and stored, a present one updated or deleted.

    The fields hold `low` and _need(index.top), which bounds every term a
    reduction brings in, because the term it removes passed the budget
    check and top bounds every divisor term: _fit checks them once, at
    entry, for the input's degree and for a budget raised since the index
    was built, so a field never wraps.
    """
    p = ring.p
    budget = config.degree_budget
    heappop = heapq.heappop
    heappush = heapq.heappush
    pk = index._fit(ring.nvars, low)
    shift, offset, weights, guard, dmask = pk.consts
    if items is None:
        keys = {}
        terms = index.spair(*spair)
    else:
        if vector:
            terms = {sum(map(mul, m, weights), (pos << shift) + offset): c for (pos, m), c in items.items()}
        else:
            terms = {sum(map(mul, m, weights), offset): c for m, c in items.items()}
        # packing is injective, so the packed terms come in the input's order
        keys = dict(zip(terms, items))
    heap = list(terms)
    heapq.heapify(heap)
    get = terms.get
    pop = terms.pop
    by_pos = index.by_pos
    tails = index._tails
    quo = [] if quotients else None
    remainder = {}
    while heap:
        d = heappop(heap)
        coeff = pop(d, None)
        if coeff is None:
            continue
        for k, lead, linv in by_pos.get(d >> shift, ()):
            if not (d - lead) & guard:
                break
        else:
            remainder[d] = coeff
            continue
        if d & dmask > budget:
            _budget_check(d & dmask)
        tail = tails[k]
        if tail is None:
            tail = index.tail(k)
        q = d - lead
        q_coeff = coeff * linv % p
        if quo is not None:
            quo.append((k, q, q_coeff))
        # -q_coeff, so that each new coefficient is one product and sum
        minus = p - q_coeff
        for t, c2 in tail:
            t += q
            c = get(t)
            if c is None:
                # a product of two units, never zero
                heappush(heap, t)
                terms[t] = c2 * minus % p
            else:
                c = (c + c2 * minus) % p
                if c:
                    terms[t] = c
                else:
                    del terms[t]
    return quo, remainder, keys, pk


# ---------------------------------------------------------------------------
# Buchberger with Gebauer-Moeller pair elimination

class _Basis(list):
    """buchberger's reduced basis: the list of its elements, and `index`,
    the DivisionIndex over them in their order, with their terms packed."""

    __slots__ = ("index",)

    def __init__(self, elements, index):
        super().__init__(elements)
        self.index = index


def _reduced_basis(index):
    """Minimalize and tail-reduce the divisors of buchberger's index; leads
    made monic, deterministic output, with the index over the basis.

    The minimal basis is reduced bottom up, in ascending leading term, into
    a new index in the same packing (DivisionIndex.emptied): only a lead
    smaller than an element's own can divide a term of its tail, so the
    tail is divided by the elements already reduced, and only when one of
    their leads divides one of its terms (one guard-bit test per term and
    lead at its position).  The element, its lead first and its other
    terms in descending order, is made monic and added to that index with
    the packed terms the reduction held; once a reduced tail outgrows the
    fields and the new index repacks, the later elements are packed again
    in its fields.  The only element of a basis of one keeps its terms in
    their order.  The index is turned round at the end
    (DivisionIndex.reverse): the basis lists the leading terms in
    descending order."""
    # an element is redundant when another lead at its position divides
    # its own and has a lower degree, or is equal and comes first
    pk = index._packing
    shift, _offset, _weights, guard, dmask = pk.consts
    keep = sorted(
        (
            (li, i)
            for entries in index.by_pos.values()
            for i, li, _linv in entries
            if not any(
                j != i and not (li - lj) & guard and ((lj & dmask) < (li & dmask) or j < i)
                for j, lj, _linv in entries
            )
        ),
        reverse=True,
    )
    # descending packed leads: the leading terms in ascending order
    out = index.emptied()
    for li, i in keep:
        g = index.divisors[i]
        pos, lmono, c = index.leads[i]
        lkey = (pos, lmono)
        ring = g.ring
        p = ring.p
        inv = inv_mod(c, p)
        tail = index._tails[i]
        if out._packing is not index._packing:
            # an element reduced before this one outgrew the fields, and
            # the new index repacked: pack this one in its fields
            pk = out._packing
            shift, _offset, _weights, _guard, dmask = pk.consts
            li = pk.term(pos, lmono)
            tail = [(pk.term(*key), k) for key, k in g.terms.items() if key != lkey]
        if len(keep) > 1:
            if tail is None:
                tail = index.tail(i)
            ts = [d for d, _k in tail]
            if out.divides_one(tail):
                rest = {key: k for key, k in g.terms.items() if key != lkey}
                _quo, rem, keys, _pk = _divide(out, ring, max([d & dmask for d in ts]), rest, True, None, False)
                terms = {lkey: c}
                for d, k in rem.items():
                    terms[keys.get(d) or (d >> shift, pk.mono(d))] = k
                tail = list(rem.items())
            elif next(iter(g.terms)) != lkey or ts != sorted(ts):
                # the lead first, then the other terms in descending order
                ranked = sorted(zip(tail, [key for key in g.terms if key != lkey]))
                terms = {lkey: c}
                for (_d, k), key in ranked:
                    terms[key] = k
                tail = [dk for dk, _key in ranked]
            else:
                terms = None
            if terms is not None:
                g = VectorPoly._of(ring, g.rank, terms)
        # the only element of a basis of one keeps its terms in their order
        h = g if c == 1 else g.scale(inv)
        out.add(h, None if tail is None else [(li, 1)] + [(d, k * inv % p) for d, k in tail])
    out.reverse()
    return _Basis(out.divisors, out)


def buchberger(vectors, order=None, product_criterion=None):
    """Reduced Groebner basis of the submodule spanned by the vectors.

    The basis grows inside one DivisionIndex, which the S-pair reductions
    divide by and the pair updates read packed leading terms from; each
    S-pair goes to division as (i, j, pos, lcm) over that index, and each
    nonzero remainder joins the index as it is, not made monic, with the
    packed terms the division returns in place of quotients.  The basis
    comes back as a list that carries the index the tail reduction built
    over it (_Basis), for its owner to divide by."""
    vectors = list(vectors)
    # the order of the input's ring, also when every vector is zero
    order = order or (vectors[0].ring.order if vectors else None)
    vectors = [v for v in vectors if not v.is_zero()]
    if not vectors:
        return _Basis((), DivisionIndex(order))
    if product_criterion is None:
        # Buchberger's coprimality criterion is only sound for ring ideals
        product_criterion = vectors[0].rank == 1

    index = DivisionIndex(order)
    leads = index.leads
    # a heap of (-packed lcm, -i, -j, pos, lcm, i, j): packed terms ascend
    # as terms descend, and the keys are unique, so it pops the smallest
    # lcm in the term order, then the latest pair.  `keyed` is the packing
    # of the keys.  A repack leaves them in order among themselves, so
    # they are made again only before an update compares or joins them
    # with terms of the new packing.
    pairs = []
    keyed = None

    def update(h, packed=None):
        # Gebauer-Moeller update of the pair queue with the new element h,
        # whose packed terms, if given, the index keeps; on packed terms:
        # the index's fields hold every lcm of two leads
        t = len(leads)
        index.add(h, packed)
        pk = index._packing
        kept = pairs if pk is keyed else _rekeyed(pairs, pk)
        shift, offset, weights, guard, dmask = pk.consts
        hpos, hmono, _c = leads[t]
        entries = index.by_pos[hpos]
        lh = entries[-1][1]
        hdeg = lh & dmask
        at = (hpos << shift) + offset
        # the lcm of h with each earlier lead at its position, packed once
        # for the new pairs and the chain criterion
        with_h = {}
        fresh = []
        for i, li, _linv in entries[:-1]:
            lcm = mono_lcm(leads[i][1], hmono)
            lcm_d = with_h[i] = sum(map(mul, lcm, weights), at)
            fresh.append((lcm_d, i, lcm, li))
        # criterion M: drop new pairs whose lcm strictly contains another new lcm
        lcms = set(with_h.values())
        fresh = [a for a in fresh if not any(b != a[0] and not (a[0] - b) & guard for b in lcms)]
        # criterion F: keep one representative per lcm value
        seen = set()
        fresh = [a for a in fresh if not (a[0] in seen or seen.add(a[0]))]
        # criterion B (product criterion), ring case only: the lcm is the
        # product exactly when its degree is the sum of the two
        if product_criterion:
            fresh = [a for a in fresh if a[0] & dmask != (a[3] & dmask) + hdeg]
        # prune old pairs via the chain criterion against lh
        kept = [
            e for e in kept
            if e[3] != hpos or (-e[0] - lh) & guard or with_h[e[5]] == -e[0] or with_h[e[6]] == -e[0]
        ]
        kept.extend((-lcm_d, -i, -t, hpos, lcm, i, t) for lcm_d, i, lcm, _li in fresh)
        heapq.heapify(kept)
        return kept, pk

    for v in vectors:
        pairs, keyed = update(v)

    while pairs:
        # normal selection: smallest lcm in the term order, then index order
        _key, _ni, _nj, pos, lcm, i, j = heapq.heappop(pairs)
        _budget_check(mono_degree(lcm))
        # called here, not through a helper: S-pair reductions are told
        # apart from other divisions by their caller
        packed, rem = division((i, j, pos, lcm), index, quotients=False)
        if not rem.terms:
            continue
        pairs, keyed = update(rem, packed)

    return _reduced_basis(index)


def _rekeyed(pairs, pk):
    """The pairs of buchberger's heap keyed again under the packing pk, as
    a list to heapify."""
    term = pk.term
    return [(-term(pos, lcm), ni, nj, pos, lcm, i, j) for _key, ni, nj, pos, lcm, i, j in pairs]


class ReducedBasis:
    """The reduced Groebner basis of a submodule of R^rank, a _Basis, and
    `index`, the DivisionIndex over it that came with it."""

    def __init__(self, rank, basis):
        self.rank = rank
        self.basis = basis
        self.index = basis.index

    def normal_form(self, v):
        return division(v, self.index, quotients=False)[1]

    def contains(self, v):
        return self.normal_form(v).is_zero()


def reduced_basis(ring, rank, generators):
    """ReducedBasis of the submodule of ring^rank spanned by generators.

    One buchberger run on the generators alone: no unit tails, so no
    certificates and no syzygies.  The reduced basis is unique, so the
    basis and every normal form are those of ModuleGB on the same input.
    """
    return ReducedBasis(rank, buchberger(generators, order=ring.order))


class ModuleGB(ReducedBasis):
    """Groebner data for a list of generators of a submodule of R^rank,
    optionally modulo a second list of vectors.

    Holds the reduced basis of span(generators + modulo) plus, for each
    basis element, a certificate writing it as a combination of the
    generators modulo span(modulo), and the syzygies: generators of
    {c : sum c_i generators_i in span(modulo)}.  Only the generators get a
    unit tail; the modulo vectors join the Buchberger input with a zero
    tail, so no syzygy among them is computed.  Certificates and syzygies
    are exactly len(generators) wide.  reduce() divides and re-expresses
    the quotient part in the generators, which is the lifting primitive
    everything downstream leans on.  reduce, normal_form, contains and
    lift divide by the one index of the basis: the part of the index of
    the augmented basis that lies below position rank.
    """

    def __init__(self, ring, rank, generators, modulo=()):
        self.ring = ring
        self.generators = list(generators)
        modulo = list(modulo)
        for v in self.generators + modulo:
            if v.ring is not ring and v.ring != ring:
                raise RingMismatch("vectors must live in the ring of the basis")
        k = len(self.generators)
        width = rank + k
        one = (0,) * ring.nvars
        augmented = []
        for i, v in enumerate(self.generators):
            terms = dict(v.terms)
            terms[(rank + i, one)] = 1
            augmented.append(VectorPoly._of(ring, width, terms))
        augmented += [VectorPoly._of(ring, width, g.terms) for g in modulo]
        # positions compare ascending, so the head block eliminates first:
        # the zero-head elements are a basis of the syzygies modulo
        full = buchberger(augmented, order=ring.order, product_criterion=False)
        basis = []
        self.certificates = []
        self.syzygies = []
        for w in full:
            head = {}
            tail = {}
            for (i, m), c in w.terms.items():
                if i < rank:
                    head[(i, m)] = c
                else:
                    tail[(i - rank, m)] = c
            head = VectorPoly._of(ring, rank, head)
            tail = VectorPoly._of(ring, k, tail)
            if head.is_zero():
                self.syzygies.append(tail)
            else:
                basis.append(head)
                self.certificates.append(tail)
        # the heads lead below position rank, so they come first
        super().__init__(rank, _Basis(basis, full.index.heads(rank, basis)))

    def reduce(self, v):
        """(coefficient vector on the generators, normal form of v): v minus
        the normal form minus the combination lies in span(modulo)."""
        if v.rank != self.rank:
            raise AlgebraError("vector rank %d does not match module rank %d" % (v.rank, self.rank))
        quots, rem = _division(v, self.index, True)
        return combine(self.certificates, quots, self.ring, len(self.generators)), rem

    def lift(self, v):
        """The coefficient vector of v on the generators modulo span(modulo), or None."""
        coeffs, rem = self.reduce(v)
        if not rem.is_zero():
            return None
        return coeffs


def syzygies(vectors, modulo=()):
    """Generators of {c : sum c_i vectors_i in span(modulo)}: the syzygy
    module of the vectors when modulo is empty.  They are a reduced
    Groebner basis, so none is zero and none repeats."""
    vectors = list(vectors)
    if not vectors:
        return []
    return ModuleGB(vectors[0].ring, vectors[0].rank, vectors, modulo=list(modulo)).syzygies


def combine(columns, terms, ring, rank):
    """sum c * x^m * columns[j] over the terms ((j, m), c) of a coefficient
    vector (its terms.items(), or division quotients as _division gives
    them) in ring^rank.  An empty column list is an absent, zero map: the
    zero vector whatever the terms; otherwise a term past the columns
    raises IndexError."""
    p = ring.p
    acc = {}
    if not columns:
        return VectorPoly._of(ring, rank, acc)
    get = acc.get
    for (j, m), c in terms:
        col = columns[j]
        if col.ring is not ring and col.ring != ring:
            raise RingMismatch("column lives in %r, not in %r" % (col.ring, ring))
        shifted = any(m)
        for (i, m2), k in col.terms.items():
            key = (i, tuple(map(add, m, m2))) if shifted else (i, m2)
            k2 = (get(key, 0) + c * k) % p
            if k2:
                acc[key] = k2
            elif key in acc:
                del acc[key]
    return VectorPoly._of(ring, rank, acc)


def blocks(v, n, count):
    """v, of rank count * n, cut into its count consecutive blocks of rank
    n: block b holds slots b*n, ..., b*n + n - 1, renumbered from 0."""
    parts = [{} for _ in range(count)]
    for (pos, m), c in v.terms.items():
        parts[pos // n][(pos % n, m)] = c
    return [VectorPoly._of(v.ring, n, terms) for terms in parts]


def regrouped(v, q, position, rank):
    """The vector of ring^rank with a term c x^(m // q) in slot
    position[(m mod q, j)] for each term c x^m e_j of v, entrywise // and
    mod: F^e_* of v for q = p^e (frobenius.pushforward_vector)."""
    return VectorPoly._of(
        v.ring,
        rank,
        {
            (position[(tuple([x % q for x in m]), j)], tuple([x // q for x in m])): c
            for (j, m), c in v.terms.items()
        },
    )


def unique_nonzero(vectors):
    """The nonzero vectors in order, each value kept at its first occurrence."""
    out = []
    seen = set()
    for v in vectors:
        if v.is_zero():
            continue
        key = (v.rank, frozenset(v.terms.items()))
        if key in seen:
            continue
        seen.add(key)
        out.append(v)
    return out


def groebner_basis(polys):
    """Reduced Groebner basis for a list of ring elements."""
    vecs = [vector_from_poly(f) for f in polys if not f.is_zero()]
    gb = buchberger(vecs)
    return [poly_from_vector(v) for v in gb]


def normal_form(f, gb_polys):
    if isinstance(f, VectorPoly):
        return division(f, gb_polys, quotients=False)[1]
    gbv = [vector_from_poly(g) for g in gb_polys if not g.is_zero()]
    if not gbv:
        return f
    return _reduce_poly(f, DivisionIndex(f.ring.order, gbv))


# ---------------------------------------------------------------------------
# ideals and quotient rings

class Ideal:
    """Ideal of a PolyRing with a lazily cached reduced Groebner basis."""

    def __init__(self, ring, gens):
        self.ring = ring
        fixed = []
        for g in gens:
            if isinstance(g, int):
                g = ring.const(g)
            if g.ring != ring:
                raise RingMismatch("generator in the wrong ring")
            if not g.is_zero():
                fixed.append(g)
        self.gens = fixed
        self._gb = None
        self._index = None

    def groebner(self):
        if self._gb is None:
            basis = buchberger([vector_from_poly(g) for g in self.gens], self.ring.order)
            self._index = basis.index
            self._gb = [poly_from_vector(v) for v in basis]
        return self._gb

    def reduce(self, f):
        """Normal form of f, divided by the index that came with the basis."""
        self.groebner()
        if not self._index.divisors:
            return f
        return _reduce_poly(f, self._index)

    def contains(self, f):
        return self.reduce(f).is_zero()

    def contains_ideal(self, other):
        return all(self.contains(g) for g in other.gens)

    def equals(self, other):
        return self.contains_ideal(other) and other.contains_ideal(self)

    def is_zero(self):
        return not self.groebner()

    def __repr__(self):
        return "Ideal(%s)" % ", ".join(repr(g) for g in self.gens)


class QuotientRing:
    """P/I with elements represented by normal forms against the modulus."""

    def __init__(self, ambient, modulus):
        if isinstance(modulus, (list, tuple)):
            modulus = Ideal(ambient, modulus)
        if modulus.ring != ambient:
            raise RingMismatch("modulus lives in a different ring")
        self.ambient = ambient
        self.modulus = modulus
        self.p = ambient.p

    @property
    def variables(self):
        return self.ambient.variables

    @property
    def nvars(self):
        return self.ambient.nvars

    def reduce(self, f):
        if isinstance(f, int):
            f = self.ambient.const(f)
        return self.modulus.reduce(f)

    def zero(self):
        return self.ambient.zero()

    def one(self):
        return self.reduce(self.ambient.one())

    def var(self, name_or_index):
        return self.reduce(self.ambient.var(name_or_index))

    def gens(self):
        return [self.var(i) for i in range(self.ambient.nvars)]

    def standard_monomials(self):
        """Monomial basis of P/I if finite dimensional, else None."""
        leads = [g.leading()[0] for g in self.modulus.groebner()]
        n = self.ambient.nvars
        # finite dimensional iff some pure power of each variable leads
        bounds = [None] * n
        for m in leads:
            support = [i for i, e in enumerate(m) if e]
            if len(support) == 1:
                i = support[0]
                if bounds[i] is None or m[i] < bounds[i]:
                    bounds[i] = m[i]
        if any(b is None for b in bounds):
            return None
        # the box in ascending order; the unit ideal's lead () divides ()
        return [m for m in product(*map(range, bounds)) if not any(mono_divides(lm, m) for lm in leads)]

    def __eq__(self, other):
        return (
            isinstance(other, QuotientRing)
            and self.ambient == other.ambient
            and sorted(map(repr, self.modulus.gens)) == sorted(map(repr, other.modulus.gens))
        )

    def __hash__(self):
        return hash((self.ambient, tuple(sorted(map(repr, self.modulus.gens)))))

    def __repr__(self):
        return "%r/(%s)" % (self.ambient, ", ".join(repr(g) for g in self.modulus.gens))


def as_quotient(ring):
    """ring itself if it is a QuotientRing, else ring modulo the zero ideal."""
    return ring if isinstance(ring, QuotientRing) else QuotientRing(ring, [])


def ambient_of(ring):
    return ring.ambient if isinstance(ring, QuotientRing) else ring


def modulus_gens(ring):
    if isinstance(ring, QuotientRing):
        return list(ring.modulus.gens)
    return []


def reduce_in(ring, f):
    if isinstance(ring, QuotientRing):
        return ring.reduce(f)
    return f


def modulus_tails(ring, rank):
    """The vectors g * e_i of R^rank for every modulus generator g of ring.

    Adjoining them to a column list makes a Groebner computation over the
    ambient polynomial ring compute over the quotient; empty for a
    polynomial ring."""
    amb = ambient_of(ring)
    return [unit_vector(amb, rank, i, g) for g in modulus_gens(ring) for i in range(rank)]


class SpanSolver:
    """Solves sum c_i columns_i = v in R^rank, modulo the extra columns and
    the modulus of ring.

    The columns are the generators of one ModuleGB, and the extra columns
    and modulus tails its modulo list, so coefficients and syzygies cover
    the columns only.  It is built once, at construction, and only when
    the two lists are not both empty; solve() then costs one division per
    target."""

    def __init__(self, columns, ring, rank, extra=()):
        columns = list(columns)
        modulo = list(extra) + modulus_tails(ring, rank)
        self.mgb = ModuleGB(ambient_of(ring), rank, columns, modulo=modulo) if columns or modulo else None

    @property
    def syzygies(self):
        """Generators of the coefficient vectors c with sum c_i columns_i
        zero modulo the extra columns and the modulus."""
        return self.mgb.syzygies if self.mgb is not None else []

    def solve(self, v):
        """The coefficient vector on the columns, or None if v is not spanned."""
        if self.mgb is None:
            return vector_of(v.ring, 0, ()) if v.is_zero() else None
        return self.mgb.lift(v)


# ---------------------------------------------------------------------------
# renaming, and ring maps through their graph basis

def rename_poly(f, target, index_map):
    """Transport f to `target`, sending variable i to variable index_map[i]."""
    n = target.nvars
    acc = {}
    p = target.p
    for m, c in f.terms.items():
        exps = [0] * n
        for i, e in enumerate(m):
            if e:
                exps[index_map[i]] += e
        key = tuple(exps)
        c2 = (acc.get(key, 0) + c) % p
        if c2:
            acc[key] = c2
        elif key in acc:
            del acc[key]
    return Polynomial(target, acc)


def adjoin_variables(R, names, order=None):
    """The ambient of R with the named variables adjoined after its own
    (a taken name gets '@' prefixed until it is fresh), under order or the
    ambient's order; returns (ring, index map old -> new)."""
    amb = ambient_of(R)
    taken = set(amb.variables)
    fresh = []
    for name in names:
        while name in taken:
            name = "@" + name
        taken.add(name)
        fresh.append(name)
    big = PolyRing(amb.p, amb.variables + tuple(fresh), order or amb.order)
    return big, list(range(amb.nvars))


def graph_ideal(phi):
    """(graph ring, graph ideal) of a ring map, which RingMap.graph keeps.

    The ideal is modulus(T) + (s_j - phi(s_j)) in T[s], under the block
    order in which the target variables dominate.  Its part free of target
    variables is the kernel of phi; the normal form of a target element is
    free of them exactly when the element is in the image, and is then a
    preimage (Shannon-Sweedler)."""
    nt = phi.target_ambient.nvars
    src = phi.source_ambient
    big, tmap = adjoin_variables(
        phi.target,
        ["@s%d" % j for j in range(src.nvars)],
        MonomialOrder("block", nt) if nt else src.order,
    )
    gens = [rename_poly(g, big, tmap) for g in modulus_gens(phi.target)]
    gens += [big.var(nt + j) - rename_poly(img, big, tmap) for j, img in enumerate(phi.images)]
    return big, Ideal(big, gens)


def _from_graph(phi, g):
    """g in the graph ring, back in the source ambient; None when g
    involves a target variable."""
    nt = phi.target_ambient.nvars
    if any(any(m[:nt]) for m in g.terms):
        return None
    return rename_poly(g, phi.source_ambient, [0] * nt + list(range(phi.source_ambient.nvars)))


def elimination_kernel(phi):
    """Kernel of a ring map as an ideal of the source ambient ring, read
    off the graph basis, plus each generator of the source modulus that the
    graph basis did not already yield."""
    _big, graph = phi.graph()
    kernel = [k for k in (_from_graph(phi, g) for g in graph.groebner()) if k is not None]
    for g in modulus_gens(phi.source):
        if g not in kernel:
            kernel.append(g)
    return Ideal(phi.source_ambient, kernel)


def preimage(phi, f):
    """A g in the source ambient with phi(g) = f, or None when f (an
    element of the target ambient) is not in the image."""
    big, graph = phi.graph()
    return _from_graph(phi, graph.reduce(rename_poly(f, big, list(range(phi.target_ambient.nvars)))))


def ring_map_is_surjective(phi):
    """True iff every target variable has a preimage."""
    return all(preimage(phi, v) is not None for v in phi.target_ambient.gens())


def are_inverse(f, g):
    """True iff g o f and f o g are the identity on ring generators."""
    return all(
        reduce_in(h.source, k.apply(h.apply(v)) - v).is_zero()
        for h, k in ((f, g), (g, f))
        for v in h.source_ambient.gens()
    )


def ideal_sum(I, J):
    return Ideal(I.ring, I.gens + J.gens)


def ideal_product(I, J):
    return Ideal(I.ring, [a * b for a in I.gens for b in J.gens])


def ideal_intersection(I, J):
    """The t-trick: (t I + (1-t) J) \\cap R."""
    ring = I.ring
    n = ring.nvars
    names = ("@t",) + ring.variables
    big = PolyRing(ring.p, names, MonomialOrder("block", 1))
    shift = [i + 1 for i in range(n)]
    t = big.var(0)
    one_minus_t = big.one() - t
    gens = [rename_poly(g, big, shift) * t for g in I.gens]
    gens += [rename_poly(g, big, shift) * one_minus_t for g in J.gens]
    gb = groebner_basis(gens)
    back = [0] + list(range(n))
    result = []
    for g in gb:
        if all(m[0] == 0 for m in g.terms):
            result.append(rename_poly(g, ring, back))
    return Ideal(ring, result)


def exact_divide(f, g):
    """f / g when g divides f exactly, else None."""
    if f.is_zero():
        return f.ring.zero()
    quots, rem = division(vector_from_poly(f), [vector_from_poly(g)])
    if not rem.is_zero():
        return None
    return quots[0]


def ideal_quotient(I, J):
    """(I : J) via intersections with principal ideals."""
    ring = I.ring
    result = None
    for g in J.gens:
        if g.is_zero():
            continue
        meet = ideal_intersection(I, Ideal(ring, [g]))
        colon = []
        for h in meet.gens:
            q = exact_divide(h, g)
            if q is None:
                raise AlgebraError("intersection element not divisible; internal error")
            colon.append(q)
        K = Ideal(ring, colon)
        result = K if result is None else ideal_intersection(result, K)
    if result is None:
        return Ideal(ring, [ring.one()])
    return result
