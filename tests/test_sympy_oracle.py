"""An independent oracle for ideals: reduced Groebner bases and normal forms
of random ideals over F_p, checked against sympy under degrevlex and lex.

sympy shares no code with the engine.  Where it is not installed the
module is skipped, and pytest reports why.
"""

import random

import pytest

sympy = pytest.importorskip("sympy", reason="sympy is not installed, so the independent Groebner oracle cannot run")

from fpduality.config import config  # noqa: E402
from fpduality.groebner import Ideal  # noqa: E402
from fpduality.polyring import DEGREVLEX, LEX, PolyRing  # noqa: E402

_NAMES = ("x", "y", "z")
_SYMBOLS = sympy.symbols(_NAMES)
_PRIMES = (2, 3, 5, 7, 32003)
_ORDERS = ((DEGREVLEX, "grevlex"), (LEX, "lex"))


def _random_terms(rng, p, nterms, degree):
    terms = {}
    while len(terms) < nterms:
        mono = tuple(rng.randrange(degree + 1) for _ in _NAMES)
        if sum(mono) <= degree:
            terms[mono] = rng.randrange(1, p)
    return terms


def _cases(order_name):
    rng = random.Random("sympy-oracle:" + order_name)
    for _ in range(12):
        p = rng.choice(_PRIMES)
        gens = [_random_terms(rng, p, rng.randint(2, 4), 3) for _ in range(rng.randint(2, 3))]
        queries = [_random_terms(rng, p, rng.randint(1, 6), 4) for _ in range(3)]
        multipliers = [_random_terms(rng, p, 2, 1) for _ in gens]
        yield p, gens, queries, multipliers


def _ours(f, p):
    return {m: c % p for m, c in f.terms.items()}


def _theirs(poly, p):
    return {m: int(c) % p for m, c in poly.terms() if int(c) % p}


def _sympy_poly(terms, p):
    return sympy.Poly.from_dict(terms, *_SYMBOLS, modulus=p)


@pytest.fixture
def raised_budget():
    # a lex normal form of a degree-4 query may pass through terms of
    # degree above the default budget of 60, which sympy does not bound
    old = config.degree_budget
    config.degree_budget = 400
    yield
    config.degree_budget = old


@pytest.mark.parametrize("order,sympy_order", _ORDERS, ids=[name for _, name in _ORDERS])
def test_ideals_match_sympy(order, sympy_order, raised_budget):
    for p, gens, queries, multipliers in _cases(sympy_order):
        R = PolyRing(p, _NAMES, order)
        ideal = Ideal(R, [R.from_terms(g.items()) for g in gens])
        basis = sympy.groebner([_sympy_poly(g, p) for g in gens], *_SYMBOLS, modulus=p, order=sympy_order)
        # both reduced and monic, so equal as sets
        ours = sorted(sorted(_ours(g, p).items()) for g in ideal.groebner())
        theirs = sorted(sorted(_theirs(g, p).items()) for g in basis.polys)
        assert ours == theirs, (p, sympy_order, gens)
        for q in queries:
            f = R.from_terms(q.items())
            _quotients, rem = basis.reduce(_sympy_poly(q, p).as_expr())
            expected = _theirs(sympy.Poly(rem, *_SYMBOLS, modulus=p), p)
            assert _ours(ideal.reduce(f), p) == expected, (p, sympy_order, gens, q)
            assert ideal.contains(f) == (not expected)
        member = R.zero()
        for g, m in zip(ideal.gens, multipliers):
            member = member + g * R.from_terms(m.items())
        assert ideal.contains(member) and ideal.reduce(member).is_zero()
