"""Multivariate polynomial rings over F_p with pluggable monomial orders.

Monomials are dense exponent tuples; polynomials map monomials to nonzero
residues.  Everything is immutable after construction: operations return new
values, which is what makes sharing across threads safe.
"""

from operator import le

from .errors import AlgebraError, RingMismatch
from .fp import check_prime


# ---------------------------------------------------------------------------
# monomial helpers

def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    """True if a | b componentwise."""
    return all(map(le, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def mono_degree(a):
    return sum(a)


class MonomialOrder:
    """Total order on monomials; key() returns a tuple compared ascending,
    and rank_weights() the integer weights of packed terms."""

    def __init__(self, name, nblock=0):
        self.name = name
        self.nblock = nblock
        self._hash = hash((name, nblock))
        if name == "degrevlex":
            self.key = self._key_degrevlex
        elif name == "lex":
            self.key = self._key_lex
        elif name == "block":
            if nblock <= 0:
                raise AlgebraError("block order needs a positive block size")
            self.key = self._key_block
        else:
            raise AlgebraError("unknown monomial order %r" % name)

    @staticmethod
    def _key_degrevlex(m):
        return (sum(m), tuple(-e for e in reversed(m)))

    @staticmethod
    def _key_lex(m):
        return m

    def _key_block(self, m):
        k = self.nblock
        return (self._key_degrevlex(m[:k]), self._key_degrevlex(m[k:]))

    def rank_weights(self, n, width):
        """Integer weights (x_1..x_n) and a bit count `bits` for packed keys
        with fields of `width` bits: X(m) = sum m_i x_i is linear in the
        exponents, 0 <= X(m) < 2**bits, and for monomials of degree below
        2**(width - 1) a larger X(m) means a larger monomial.  Of two
        monomials with equal X, the one with the smaller exponent of x_n,
        then of x_(n-1), and so on, is larger: for degrevlex X is the
        degree; lex puts x_1 in the top field of X, so X has no ties; block
        stacks the two degrevlex keys deg*B**k - r of its blocks, r = sum
        m_i B**i over the block, B = 2**width."""
        b = 1 << width
        if self.name == "degrevlex":
            return (1,) * n, width
        if self.name == "lex":
            return tuple(b ** (n - 1 - i) for i in range(n)), width * n
        k = min(self.nblock, n)
        upper = b ** (n - k + 1)
        first = tuple((b ** k - b ** i) * upper for i in range(k))
        second = tuple(b ** (n - k) - b ** i for i in range(n - k))
        return first + second, width * (n + 2)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.name == other.name
            and self.nblock == other.nblock
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.name == "block":
            return "block(%d)" % self.nblock
        return self.name


DEGREVLEX = MonomialOrder("degrevlex")
LEX = MonomialOrder("lex")


def _display_name(name):
    """How a variable prints: the copy k of x in a tensor power, named
    x@k (shriek.EnvelopingRing), prints as x with k - 1 primes."""
    base, _, copy = name.rpartition("@")
    return base + "'" * (int(copy) - 1) if base and copy.isdigit() else name


class PolyRing:
    """F_p[x_1..x_n] with a chosen monomial order."""

    def __init__(self, p, variables, order=None):
        check_prime(p)
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise AlgebraError("duplicate variable names: %r" % (variables,))
        self.p = p
        self.variables = variables
        self.nvars = len(variables)
        self.order = order or DEGREVLEX
        self.display_names = tuple(map(_display_name, variables))
        # the hashed fields are fixed, so the hash is computed once
        self._hash = hash((p, variables, self.order))

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        c %= self.p
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def var(self, name_or_index):
        if isinstance(name_or_index, str):
            i = self.variables.index(name_or_index)
        else:
            i = name_or_index
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, {tuple(exps): 1})

    def gens(self):
        return [self.var(i) for i in range(self.nvars)]

    def monomial(self, exps, coeff=1):
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise AlgebraError("exponent vector of wrong length")
        coeff %= self.p
        if coeff == 0:
            return self.zero()
        return Polynomial(self, {exps: coeff})

    def from_terms(self, terms):
        acc = {}
        for exps, c in terms:
            exps = tuple(exps)
            c = (acc.get(exps, 0) + c) % self.p
            if c:
                acc[exps] = c
            elif exps in acc:
                del acc[exps]
        return Polynomial(self, acc)

    # structural equality: same field, variables and order
    def __eq__(self, other):
        return self is other or (
            isinstance(other, PolyRing)
            and self.p == other.p
            and self.variables == other.variables
            and self.order == other.order
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "F%d[%s]" % (self.p, ",".join(self.variables))


class Polynomial:
    """Element of a PolyRing in canonical form (no zero coefficients)."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def leading(self):
        """(monomial, coeff) of the leading term in the ring order; error
        on zero."""
        if not self.terms:
            raise AlgebraError("zero polynomial has no leading term")
        m = max(self.terms, key=self.ring.order.key)
        return m, self.terms[m]

    def _check(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatch("operands live in %r and %r" % (self.ring, other.ring))

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        self._check(other)
        p = self.ring.p
        acc = dict(self.terms)
        for m, c in other.terms.items():
            c2 = (acc.get(m, 0) + c) % p
            if c2:
                acc[m] = c2
            elif m in acc:
                del acc[m]
        return Polynomial(self.ring, acc)

    def __neg__(self):
        p = self.ring.p
        return Polynomial(self.ring, {m: (-c) % p for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        self._check(other)
        p = self.ring.p
        acc = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                c = (acc.get(m, 0) + c1 * c2) % p
                if c:
                    acc[m] = c
                elif m in acc:
                    del acc[m]
        return Polynomial(self.ring, acc)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def scale(self, c):
        c %= self.ring.p
        if c == 0:
            return self.ring.zero()
        p = self.ring.p
        return Polynomial(self.ring, {m: (k * c) % p for m, k in self.terms.items()})

    def mul_term(self, mono, coeff):
        p = self.ring.p
        coeff %= p
        if coeff == 0:
            return self.ring.zero()
        return Polynomial(
            self.ring, {mono_mul(m, mono): (c * coeff) % p for m, c in self.terms.items()}
        )

    def __pow__(self, k):
        if k < 0:
            raise AlgebraError("negative exponent")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def derivative(self, i):
        """Formal partial derivative with respect to variable i."""
        p = self.ring.p
        acc = {}
        for m, c in self.terms.items():
            e = m[i]
            k = (e % p) * c % p
            if e == 0 or k == 0:
                continue
            m2 = list(m)
            m2[i] = e - 1
            acc[tuple(m2)] = k
        return Polynomial(self.ring, acc)

    def constant_value(self):
        """The coefficient of 1 if the polynomial is constant, else None."""
        if not self.terms:
            return 0
        if len(self.terms) == 1:
            m, c = next(iter(self.terms.items()))
            if all(e == 0 for e in m):
                return c
        return None

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __repr__(self):
        return poly_str(self)


def poly_str(f, names=None):
    """Canonical printing: degrevlex-descending terms, least residues."""
    if f.is_zero():
        return "0"
    names = names or f.ring.display_names
    key = MonomialOrder("degrevlex").key
    parts = []
    for m, c in sorted(f.terms.items(), key=lambda t: key(t[0]), reverse=True):
        factors = []
        for name, e in zip(names, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append("%s^%d" % (name, e))
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append("%d*%s" % (c, "*".join(factors)))
    return " + ".join(parts)


class RingMap:
    """Ring homomorphism determined by images of the source variables.

    Works for PolyRing or QuotientRing endpoints (quotients are imported
    lazily to avoid a cycle).  Well-definedness on quotient sources is
    checked at construction via normal forms in the target.
    """

    def __init__(self, source, target, images, check=True):
        from .groebner import QuotientRing  # local import, cycle

        self.source = source
        self.target = target
        src_amb = source.ambient if isinstance(source, QuotientRing) else source
        tgt_amb = target.ambient if isinstance(target, QuotientRing) else target
        self.source_ambient = src_amb
        self.target_ambient = tgt_amb
        images = list(images)
        if len(images) != src_amb.nvars:
            raise AlgebraError("need one image per source variable")
        fixed = []
        for g in images:
            if isinstance(g, int):
                g = tgt_amb.const(g)
            if g.ring != tgt_amb:
                raise RingMismatch("image lives in the wrong ring")
            fixed.append(self._reduce_target(g))
        self.images = fixed
        self._graph = None
        if check and isinstance(source, QuotientRing):
            for g in source.modulus.gens:
                if not self.apply(g).is_zero():
                    raise AlgebraError(
                        "map not well defined: %r does not die in the target" % (g,)
                    )

    def _reduce_target(self, f):
        from .groebner import QuotientRing

        if isinstance(self.target, QuotientRing):
            return self.target.reduce(f)
        return f

    def apply(self, f):
        """Substitute variable images, then reduce in the target."""
        if isinstance(f, int):
            f = self.source_ambient.const(f)
        if f.ring != self.source_ambient:
            raise RingMismatch("element not in the source ring")
        tgt = self.target_ambient
        acc = tgt.zero()
        for m, c in f.terms.items():
            term = tgt.const(c)
            for g, e in zip(self.images, m):
                if e:
                    term = term * (g ** e)
            acc = acc + term
        return self._reduce_target(acc)

    def __call__(self, f):
        return self.apply(f)

    def graph(self):
        """(graph ring, graph ideal) of groebner.graph_ideal, built once:
        the map is immutable, so the Groebner basis of the ideal and the
        division index over it are built once too."""
        if self._graph is None:
            from .groebner import graph_ideal  # local import, cycle

            self._graph = graph_ideal(self)
        return self._graph

    @staticmethod
    def identity(ring):
        from .groebner import QuotientRing

        amb = ring.ambient if isinstance(ring, QuotientRing) else ring
        return RingMap(ring, ring, amb.gens(), check=False)
