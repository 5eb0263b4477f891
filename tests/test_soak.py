"""Seeded soak: `check frobenius_duality(A);` at e = 1 and `check
rigidifier(A);` on random small quotient rings.

The duality and the rigidifier hold for every ring, so each ring either
certifies or stops with a typed error from the predicate's list.  A failed
certificate, an `internal` report or the untyped kind `error` is a defect.
The generator is seeded: every run checks the same 40 rings, in a few
seconds."""

import random

import pytest

from fpduality.session import Session, execute, parse_session

SEED = 0
RINGS = 40
# the errors a ring may stop with in place of a certificate: the two
# budgets, and the zero ring, whose dualizing complex has no cohomology
TYPED_ERRORS = {"SizeCapExceeded", "DegreeBudgetExceeded", "ZeroRing"}
# the rigidifier may also stop where the unit check needs omega's
# generators at the top of its dualizing complex and they are not there
RIGIDIFIER_ERRORS = TYPED_ERRORS | {"CanonicalNotTop"}


def _relation(rng, p, names):
    """Session text of one to three terms of degree at most 3, each with a
    nonzero coefficient mod p."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        exponents = [0] * len(names)
        for _ in range(rng.randint(0, 3)):
            exponents[rng.randrange(len(names))] += 1
        factors = [n if e == 1 else "%s^%d" % (n, e) for n, e in zip(names, exponents) if e]
        c = rng.randint(1, p - 1)
        terms.append("*".join(([str(c)] if c > 1 or not factors else []) + factors))
    return " + ".join(terms)


def random_rings(seed, count):
    """Session texts of count quotient rings: p in {2, 3, 5}, two or three
    variables and one to three relations of degree at most 3."""
    rng = random.Random(seed)
    rings = []
    for _ in range(count):
        p = rng.choice((2, 3, 5))
        names = ("x", "y", "z")[: rng.randint(2, 3)]
        relations = [_relation(rng, p, names) for _ in range(rng.randint(1, 3))]
        rings.append("Fp(%d)[%s] / (%s)" % (p, ",".join(names), ", ".join(relations)))
    return rings


def _certifies_or_raises(ring, check, errors):
    session = Session()
    script = "ring A = %s;\ncheck %s;\n" % (ring, check)
    declared, checked = [execute(session, stmt) for stmt in parse_session(script)]
    assert declared.status == "ok", declared.message
    if checked.status == "ok":
        assert checked.payload == {"certified": True}, ring
    else:
        assert checked.error_kind in errors, (ring, checked.error_kind, checked.message)


@pytest.mark.parametrize("ring", random_rings(SEED, RINGS), ids=["ring%d" % i for i in range(RINGS)])
def test_frobenius_duality_certifies_or_raises_a_typed_error(ring):
    _certifies_or_raises(ring, "frobenius_duality(A)", TYPED_ERRORS)


@pytest.mark.parametrize("ring", random_rings(SEED, RINGS), ids=["ring%d" % i for i in range(RINGS)])
def test_rigidifier_certifies_or_raises_a_typed_error(ring):
    _certifies_or_raises(ring, "rigidifier(A)", RIGIDIFIER_ERRORS)

