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
    ambient_of,
    nonzero_slots,
    poly_from_vector,
    reduce_in,
    regrouped,
    unit_vector,
    vector_from_poly,
    vector_of,
)
from .modules import FPModule, ModuleMap, cokernel, free_module, is_isomorphism
from .polyring import Polynomial
from .complexes import BasisIndex, FreeComplex, rank_one_complex


def _frobenius_power(p, e):
    """p^e, an int exactly when the level e of Frobenius is an integer >= 0."""
    q = p ** e
    if not isinstance(q, int):
        raise AlgebraError("a Frobenius level e must be an integer >= 0, not %r" % (e,))
    return q


def bracket_power(I, e):
    """I^{[p^e]}: the ideal generated by p^e-th powers of the generators."""
    q = _frobenius_power(I.ring.p, e)
    return Ideal(I.ring, [g ** q for g in I.gens])


def bracket_power_complex(T, e):
    """T^{[p^e]}: the free complex T with every differential entry raised to
    the p^e-th power, as bracket_power raises generators.  Over F_p that
    power is a ring endomorphism, so d o d = 0 still holds; for T a free
    resolution of S/I over a regular S, T^{[p^e]} resolves S/I^{[p^e]},
    since Frobenius is flat there (Kunz)."""
    q = _frobenius_power(T.ambient.p, e)
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
    q = _frobenius_power(ring.p, e)
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


def pushforward_basis(ring, e, r):
    """The labels (b, j) of the generators F^e_*(x^b e_j) of F^e_* of a
    module on r generators, b a restricted monomial: b-major, each in
    ascending order."""
    amb = ambient_of(ring)
    q = _frobenius_power(amb.p, e)
    size = q ** amb.nvars
    if size > config.size_cap:
        raise SizeCapExceeded("pushforward basis of size %d exceeds the cap %d" % (size, config.size_cap))
    return BasisIndex(product(restricted_monomials(amb.nvars, q), range(r)))


def pushforward_vector(basis, v, e):
    """Coordinates of F^e_*(v) on basis for v a coordinate vector of the
    module: each term c x^m e_j goes to c x^(m // q) on the label
    (m mod q, j)."""
    return regrouped(v, v.ring.p ** e, basis.position, len(basis))


def _pushforward_shifts(vectors, monomials, basis, e):
    """F^e_*(x^b v) on basis for every b of monomials (outer) and every v
    of vectors (inner): the order of the labels (b, j) when the vectors
    are the images of the generators j."""
    return [pushforward_vector(basis, v.mul_term(b, 1), e) for b in monomials for v in vectors]


class Pushforward:
    """F^e_* M over the same ring, untwisted: the labels, the presentation
    and the coordinates of its elements.

    Its generators F^e_*(x^b e_j) carry the labels (b, j) of index, from
    pushforward_basis; module is the FPModule whose relation columns are
    the decompositions of x^b * rho over all restricted b and relations
    rho of M."""

    def __init__(self, M, e=1):
        amb = M.ambient
        self.e = e
        self.index = pushforward_basis(M.ring, e, M.ngens)
        monomials = restricted_monomials(amb.nvars, amb.p ** e)
        self.module = FPModule(M.ring, len(self.index), _pushforward_shifts(M.relations, monomials, self.index, e))

    def coords(self, v):
        """Coordinates of F^e_*(v) on the generators, for v a vector of M."""
        return pushforward_vector(self.index, v, self.e)


def frobenius_pushforward(R, e=1):
    """F^e_* R: the pushforward of R as a module on one generator."""
    return Pushforward(FPModule(R, 1, []), e)


def pushforward_complex(T, e=1):
    """Apply F^e_* to a free complex, expanding each entry into a block;
    term d is labelled by pushforward_basis."""
    ring = T.ring
    amb = ambient_of(ring)
    bases = {d: pushforward_basis(ring, e, T.rank(d)) for d in T.degrees()}
    monomials = restricted_monomials(amb.nvars, amb.p ** e)
    # the columns come out in the order of the labels of the source term
    diffs = {d: _pushforward_shifts(cols, monomials, bases[d + 1], e) for d, cols in T.diffs.items()}
    return FreeComplex(ring, {d: len(b) for d, b in bases.items()}, diffs, bases=bases)


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
    """(theta, tuples, push): the map theta: R^(restricted monomials in xs)
    -> F^e_* R sending e_a to F_*(xs^a), the exponents a of its source
    generators and the pushforward push of its target."""
    amb = ambient_of(R)
    q = amb.p ** e
    if amb.p ** (e * len(xs)) > config.size_cap:
        raise SizeCapExceeded("restricted monomials in the tuple exceed the size cap")
    push = frobenius_pushforward(R, e)
    tuples = restricted_monomials(len(xs), q)
    cols = [push.coords(vector_from_poly(reduce_in(R, _tuple_power(amb, xs, a)))) for a in tuples]
    source = free_module(R, len(tuples))
    return ModuleMap(source, push.module, cols, check=False), tuples, push


def is_p_generating(R, xs):
    """True iff R = R^p[xs]: the coordinate map is surjective."""
    return cokernel(_coordinate_map(R, xs)[0]).is_zero_module()


def is_p_basis(R, xs):
    """True iff the restricted monomials in xs form a free basis over R^p."""
    return is_isomorphism(_coordinate_map(R, xs)[0])


class CoordinateSolver:
    """Solves u = sum c_a^{p^e} xs^a (a below p^e) for many u.

    The untwisted coordinates of F^e_*(u) on the restricted monomials of
    the tuple, solved through the canonical pushforward presentation; the
    coordinate map and its Groebner basis are built once per tuple."""

    def __init__(self, R, xs, e=1):
        self.ring = R
        self.theta, self.tuples, self.push = _coordinate_map(R, xs, e)
        module = self.push.module
        self.span = SpanSolver(self.theta.columns, R, module.ngens, extra=module.relations)

    def solve(self, u):
        """dict a -> c_a over the nonzero coordinates, or None."""
        coeffs = self.span.solve(self.push.coords(vector_from_poly(reduce_in(self.ring, u))))
        if coeffs is None:
            return None
        out = {}
        for k, c in nonzero_slots(coeffs):
            c = reduce_in(self.ring, c)
            if not c.is_zero():
                out[self.tuples[k]] = c
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
    free model on the restricted monomials in xs, in the order of
    restricted_monomials, once generates_freely certifies it; raises
    otherwise.
    """
    amb = ambient_of(R)
    coordinates = CoordinateSolver(R, xs)
    if not is_isomorphism(coordinates.theta):
        raise NoPBasis("the given tuple is not a p-basis")
    degrees = omega_complex.degrees()
    if len(degrees) != 1 or omega_complex.rank(degrees[0]) != 1:
        raise AlgebraError("expected a rank-one volume complex")
    tuples = coordinates.tuples
    top = tuple([amb.p - 1] * len(xs))
    cols = [unit_vector(amb, 1, 0) if a == top else vector_of(amb, 1, ()) for a in tuples]
    phi = ModuleMap(free_module(R, len(tuples)), free_module(R, 1), cols, check=False)

    def value(c):
        # the coefficient of the top monomial in xs^c
        coords = coordinates.solve(_tuple_power(amb, xs, c))
        return (coords or {}).get(top, amb.zero())

    if not generates_freely(R, tuples, value):
        raise AlgebraError("trace generator does not freely generate; not a p-basis?")
    return phi


def trace_generator_is_exact(R):
    """Whether the trace generator of the polynomial ring R on its
    variables, into the volume form in degree -nvars, sends F_*(x^a) to 1
    for a = (p-1, ..., p-1) and to 0 for every other restricted monomial a;
    pbasis_trace_generator raises unless it is certified free."""
    n = R.nvars
    phi = pbasis_trace_generator(R, list(R.gens()), rank_one_complex(R, -n))
    top = (R.p - 1,) * n
    values = (poly_from_vector(col) for col in phi.columns)
    return all(
        v.constant_value() == 1 if a == top else v.is_zero()
        for a, v in zip(restricted_monomials(n, R.p), values)
    )


def regrouping_map(R, e):
    """The explicit iso F^{e+1}_* R -> F^e_*(F^1_* R) by exponent carrying."""
    amb = ambient_of(R)
    big = frobenius_pushforward(R, e + 1)
    inner = frobenius_pushforward(R, 1)
    outer = Pushforward(inner.module, e)
    cols = []
    p = amb.p
    for c, _j in big.index.labels:
        a = tuple(x // p for x in c)
        b = tuple(x % p for x in c)
        j = inner.index.position[(b, 0)]
        cols.append(unit_vector(amb, outer.module.ngens, outer.index.position[(a, j)]))
    return ModuleMap(big.module, outer.module, cols, check=True)
