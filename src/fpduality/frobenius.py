"""The Frobenius endomorphism as a computational object.

Over F_p every polynomial splits uniquely as u = sum_a v_a^{p^e} x^a with a
ranging over exponent vectors below p^e, because the prime field is fixed
by Frobenius.  That decomposition is exact coefficient surgery, so
pushforward presentations, p-basis tests and the trace generator all avoid
Groebner computations except where relations genuinely enter.

The twisted scalar action r . F_*(s) = F_*(r^{p^e} s) is never represented
natively: all module data is stored untwisted via the decomposition.
"""

from itertools import product

from .config import config
from .errors import AlgebraError, NoPBasis, SizeCapExceeded
from .groebner import (
    Ideal,
    SpanSolver,
    VectorPoly,
    ambient_of,
    nonzero_slots,
    reduce_in,
    regrouped,
    unit_vector,
    vector_of,
)
from .modules import FPModule, ModuleMap, cokernel, free_module, is_isomorphism
from .polyring import Polynomial
from .complexes import FreeComplex


def bracket_power(I, e):
    """I^{[p^e]}: the ideal generated by p^e-th powers of the generators."""
    if e < 0:
        raise AlgebraError("bracket power needs e >= 0")
    q = I.ring.p ** e
    return Ideal(I.ring, [g ** q for g in I.gens])


def bracket_power_complex(T, e):
    """T^{[p^e]}: the free complex T with every differential entry raised to
    the p^e-th power, as bracket_power raises generators.  Over F_p that
    power is a ring endomorphism, so d o d = 0 still holds; for T a free
    resolution of S/I over a regular S, T^{[p^e]} resolves S/I^{[p^e]},
    since Frobenius is flat there (Kunz)."""
    q = T.ambient.p ** e
    diffs = {
        d: [vector_of(T.ambient, c.rank, [(i, g ** q) for i, g in nonzero_slots(c)]) for c in cols]
        for d, cols in T.diffs.items()
    }
    return FreeComplex(T.ring, dict(T.terms), diffs)


def restricted_monomials(nvars, q):
    """All exponent tuples with entries in [0, q), in ascending order."""
    return list(product(range(q), repeat=nvars))


def frobenius_decompose(f, e=1):
    """dict a -> v_a with f = sum v_a^{p^e} x^a, entries of a below p^e."""
    ring = f.ring
    q = ring.p ** e
    parts = {}
    for mono, c in f.terms.items():
        rem = tuple(x % q for x in mono)
        quot = tuple(x // q for x in mono)
        d = parts.setdefault(rem, {})
        d[quot] = (d.get(quot, 0) + c) % ring.p
    out = {}
    for rem, terms in parts.items():
        terms = {m: c for m, c in terms.items() if c}
        if terms:
            out[rem] = Polynomial(ring, terms)
    return out


def _check_size(p, e, nvars):
    if p ** (e * nvars) > config.size_cap:
        raise SizeCapExceeded(
            "pushforward basis of size %d exceeds the cap %d"
            % (p ** (e * nvars), config.size_cap)
        )


class PushforwardIndex:
    """Basis bookkeeping for F^e_* of a module on r generators."""

    def __init__(self, ring, e, r):
        amb = ambient_of(ring)
        self.p = amb.p
        self.e = e
        self.q = self.p ** e
        self.nvars = amb.nvars
        self.r = r
        self.monomials = restricted_monomials(self.nvars, self.q)
        self.position = {m: i for i, m in enumerate(self.monomials)}
        self.total = len(self.monomials) * r

    def index(self, mono, j):
        return self.position[tuple(mono)] * self.r + j


def pushforward_vector(index, v, e):
    """Coordinates of F^e_*(v) for v a coordinate vector of the module:
    each term c x^m e_j goes to c x^(m // q) on generator (m mod q, j)."""
    return regrouped(v, v.ring.p ** e, index.position, index.r, index.total)


def _pushforward_shifts(vectors, index, e):
    """F^e_*(x^b v) on index for every restricted monomial b (outer) and
    every v of vectors (inner): the order of index.index(b, j) when the
    vectors are the images of the generators j."""
    out = []
    for b in index.monomials:
        for v in vectors:
            out.append(pushforward_vector(index, v.mul_term(b, 1), e))
    return out


def pushforward_module(M, e=1):
    """F^e_* M as an FPModule over the same ring, untwisted presentation.

    Generators are tagged (a, j) for a restricted monomial and j a
    generator of M; the relation columns are the decompositions of
    x^b * rho over all restricted b and relations rho of M.
    """
    amb = M.ambient
    _check_size(amb.p, e, amb.nvars)
    index = PushforwardIndex(M.ring, e, M.ngens)
    out = FPModule(M.ring, index.total, _pushforward_shifts(M.relations, index, e))
    out.pushforward_index = index
    return out


class FrobPushforward:
    """F^e_* R with monomial basis bookkeeping."""

    def __init__(self, R, e=1):
        self.ring = R
        self.e = e
        self.module = pushforward_module(FPModule(R, 1, []), e)
        self.index = self.module.pushforward_index

    def coords(self, u):
        """Coordinates of F^e_*(u) on the restricted monomial generators."""
        amb = ambient_of(self.ring)
        return pushforward_vector(self.index, VectorPoly(amb, [u]), self.e)


def frobenius_pushforward(R, e=1):
    return FrobPushforward(R, e)


def pushforward_complex(T, e=1):
    """Apply F^e_* to a free complex, expanding each entry into a block."""
    ring = T.ring
    amb = ambient_of(ring)
    _check_size(amb.p, e, amb.nvars)
    indices = {d: PushforwardIndex(ring, e, T.rank(d)) for d in T.degrees()}
    terms = {d: indices[d].total for d in T.degrees()}
    # the restricted monomials are those of every index, so the columns
    # come out in the order of the source index
    diffs = {d: _pushforward_shifts(cols, indices[d + 1], e) for d, cols in T.diffs.items()}
    out = FreeComplex(ring, terms, diffs)
    out.pushforward_indices = indices
    return out


# ---------------------------------------------------------------------------
# p-generating sets and p-bases

def _tuple_power(amb, xs, a):
    """xs^a, the product of the g^k for g in xs and k in a."""
    u = amb.one()
    for g, k in zip(xs, a):
        if k:
            u = u * (g ** k)
    return u


def _coordinate_map(R, xs, e=1):
    """The map R^(qg-monomials in xs) -> F^e_* R sending e_a to F_*(xs^a)."""
    amb = ambient_of(R)
    q = amb.p ** e
    if amb.p ** (e * len(xs)) > config.size_cap:
        raise SizeCapExceeded("restricted monomials in the tuple exceed the size cap")
    push = FrobPushforward(R, e)
    tuples = restricted_monomials(len(xs), q)
    cols = [push.coords(reduce_in(R, _tuple_power(amb, xs, a))) for a in tuples]
    source = free_module(R, len(tuples))
    theta = ModuleMap(source, push.module, cols, check=False)
    theta.tuple_monomials = tuples
    theta.push = push
    return theta


def is_p_generating(R, xs):
    """True iff R = R^p[xs]: the coordinate map is surjective."""
    return cokernel(_coordinate_map(R, xs)).is_zero_module()


def is_p_basis(R, xs):
    """True iff the restricted monomials in xs form a free basis over R^p."""
    return is_isomorphism(_coordinate_map(R, xs))


class CoordinateSolver:
    """Solves u = sum c_a^{p^e} xs^a (a below p^e) for many u.

    The untwisted coordinates of F^e_*(u) on the restricted monomials of
    the tuple, solved through the canonical pushforward presentation; the
    coordinate map and its Groebner basis are built once per tuple."""

    def __init__(self, R, xs, e=1):
        self.ring = R
        self.theta = _coordinate_map(R, xs, e)
        push = self.theta.push
        self.span = SpanSolver(self.theta.columns, R, push.module.ngens, extra=push.module.relations)

    def solve(self, u):
        """dict a -> c_a over the nonzero coordinates, or None."""
        coeffs = self.span.solve(self.theta.push.coords(reduce_in(self.ring, u)))
        if coeffs is None:
            return None
        out = {}
        for k, c in nonzero_slots(coeffs):
            c = reduce_in(self.ring, c)
            if not c.is_zero():
                out[self.theta.tuple_monomials[k]] = c
        return out


def generates_freely(R, tuples, value):
    """True iff the functional phi, with phi(F_*(x^c)) = value(c), freely
    generates Hom(F_*R, omega) over F_*R.  tuples lists the exponents a of
    the N elements F_*(x^a) of a free basis of F_*R (x the variables or a
    p-basis).

    The precompositions of phi with the basis multiplications are the map
    of free modules F_*(x^a) -> (phi(x^(a+b)))_b; phi is a free generator
    iff that map is an isomorphism, certified by is_isomorphism's explicit
    inverse."""
    amb = ambient_of(R)
    n = len(tuples)
    free = free_module(R, n)
    cols = [
        vector_of(amb, n, [(k, value(tuple(x + y for x, y in zip(a, b)))) for k, b in enumerate(tuples)])
        for a in tuples
    ]
    return is_isomorphism(ModuleMap(free, free, cols, check=False))


def pbasis_trace_generator(R, xs, omega_complex):
    """The free generator of Hom(F_*R, omega) attached to a p-basis.

    Sends F_*(xs^(p-1,...,p-1)) to the distinguished volume form and every
    other restricted monomial in xs to zero.  Returns the ModuleMap on the
    free xs-monomial model together with its freeness certificate from
    generates_freely.
    """
    amb = ambient_of(R)
    coordinates = CoordinateSolver(R, xs)
    if not is_isomorphism(coordinates.theta):
        raise NoPBasis("the given tuple is not a p-basis")
    degrees = omega_complex.degrees()
    if len(degrees) != 1 or omega_complex.rank(degrees[0]) != 1:
        raise AlgebraError("expected a rank-one volume complex")
    tuples = coordinates.theta.tuple_monomials
    top = tuple([amb.p - 1] * len(xs))
    cols = [unit_vector(amb, 1, 0) if a == top else vector_of(amb, 1, ()) for a in tuples]
    phi = ModuleMap(free_module(R, len(tuples)), free_module(R, 1), cols, check=False)
    phi.basis_tuples = tuples

    def value(c):
        # the coefficient of the top monomial in xs^c
        coords = coordinates.solve(_tuple_power(amb, xs, c))
        return (coords or {}).get(top, amb.zero())

    phi.freeness_certificate = generates_freely(R, tuples, value)
    if not phi.freeness_certificate:
        raise AlgebraError("trace generator does not freely generate; not a p-basis?")
    return phi


def regrouping_map(R, e):
    """The explicit iso F^{e+1}_* R -> F^e_*(F^1_* R) by exponent carrying."""
    amb = ambient_of(R)
    big = FrobPushforward(R, e + 1)
    inner = FrobPushforward(R, 1)
    outer = pushforward_module(inner.module, e)
    oidx = outer.pushforward_index
    cols = []
    p = amb.p
    for c in big.index.monomials:
        a = tuple(x // p for x in c)
        b = tuple(x % p for x in c)
        j = inner.index.index(b, 0)
        cols.append(unit_vector(amb, outer.ngens, oidx.index(a, j)))
    return ModuleMap(big.module, outer, cols, check=True)
