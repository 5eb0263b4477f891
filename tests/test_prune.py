"""Pruned presentations, the Hom condition trim, and the canonical module."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpduality.duality import canonical_dualizing
from fpduality.errors import AlgebraError
from fpduality.frobenius import Pushforward
from fpduality.fp import inv_mod
from fpduality.groebner import (
    ModuleGB,
    QuotientRing,
    VectorPoly,
    combine,
    leading_term,
    modulus_tails,
    nonzero_slots,
    reduce_in,
    unit_vector,
    vector_of,
)
from fpduality.modules import (
    FPModule,
    ModuleMap,
    _eliminate_units,
    cyclic_module,
    free_module,
    hom_module,
    is_isomorphism,
    kernel_cokernel,
    prune,
)
from fpduality.polyring import PolyRing
from fpduality.selftest import c1_elliptic_determinant

S = PolyRing(3, ("x", "y"))
X, Y = S.gens()
CUSP = QuotientRing(S, [Y ** 2 - X ** 3])
MONOMIALS = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


# sparse entries of degree 1-2 keep every Groebner computation small
_entry = st.lists(st.tuples(st.sampled_from(MONOMIALS), st.integers(1, 2)), max_size=2).map(S.from_terms)


@st.composite
def presentations(draw):
    """A module on 1-3 generators; each relation has a planted unit entry
    (a nonzero constant term) with probability one half."""
    ring = draw(st.sampled_from([S, CUSP]))
    m = draw(st.integers(1, 3))
    rels = []
    for _ in range(draw(st.integers(0, 3))):
        comps = [draw(_entry) for _ in range(m)]
        if draw(st.booleans()):
            j = draw(st.integers(0, m - 1))
            comps[j] = comps[j] + S.const(draw(st.integers(1, 2)))
        rels.append(VectorPoly(S, comps))
    return FPModule(ring, m, rels)


def _unpruned_verdict(f):
    ker, coker = kernel_cokernel(f)
    return ker.is_zero_module() and coker.is_zero_module()


def _multiplication(M, g):
    return ModuleMap(M, M, [unit_vector(M.ambient, M.ngens, i, g) for i in range(M.ngens)], check=False)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(presentations())
def test_prune_gives_inverse_isomorphisms(M):
    P, _, to_M, from_M = prune(M)
    # both maps are well defined on the relations of their sources
    ModuleMap(P, M, to_M.columns, check=True)
    ModuleMap(M, P, from_M.columns, check=True)
    assert (from_M.compose(to_M) - ModuleMap.identity(P)).is_zero_map()
    assert (to_M.compose(from_M) - ModuleMap.identity(M)).is_zero_map()
    # no relation of P has a constant entry left
    assert not any(c.constant_value() for r in P.relations for c in r.components)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(presentations())
def test_is_isomorphism_agrees_with_unpruned_verdict(M):
    for f in (
        ModuleMap.identity(M),
        _multiplication(M, S.const(2)),
        _multiplication(M, S.zero()),
        _multiplication(M, X),
    ):
        assert is_isomorphism(f) == _unpruned_verdict(f)
    P, _, to_M, from_M = prune(M)
    assert is_isomorphism(to_M) and is_isomorphism(from_M)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(presentations(), st.data())
def test_basis_only_relgb_matches_module_gb(M, data):
    # the reduced basis is unique: no unit tails, same basis, same normal forms
    full = ModuleGB(M.ambient, M.ngens, M.relations)
    gb = M.relgb()
    assert gb.basis == full.basis
    leads = [leading_term(g, S.order)[:2] for g in gb.basis]
    vectors = st.lists(_entry, min_size=M.ngens, max_size=M.ngens).map(lambda comps: VectorPoly(S, comps))
    targets = data.draw(st.lists(vectors, max_size=3)) + list(M.relations) + [M.gen(i) for i in range(M.ngens)]
    for v in targets:
        nf = gb.normal_form(v)
        # the quotient path of the certified basis leaves the same remainder
        coeffs, rem = full.reduce(v)
        assert nf == rem
        # v - nf is the certified combination of the relations ...
        assert v - nf == combine(M.relations, coeffs.terms.items(), S, M.ngens)
        # ... and no term of nf is divisible by a leading term of the basis
        for pos, f in enumerate(nf.components):
            for mono in f.terms:
                assert not any(p == pos and all(a <= b for a, b in zip(m, mono)) for p, m in leads)


def test_prune_without_units_returns_the_module():
    M = cyclic_module(CUSP, [X])
    gb = M.relgb()
    P, _, to_M, from_M = prune(M)
    assert P is M and P.relgb() is gb
    assert (to_M - ModuleMap.identity(M)).is_zero_map() and (from_M - ModuleMap.identity(M)).is_zero_map()


def test_prune_is_kept_on_the_module():
    M = FPModule(CUSP, 2, [VectorPoly(S, [X, S.one()]), VectorPoly(S, [Y, X])])
    P, _, _, _ = prune(M)
    gb = P.relgb()
    Q, kept, _, _ = prune(M)
    assert Q is P and Q.relgb() is gb
    assert P.ngens == 1 and kept == [0]


def test_prune_to_zero_module():
    M = FPModule(CUSP, 2, [VectorPoly(S, [S.one(), X]), VectorPoly(S, [S.zero(), S.const(2)])])
    P, _, _, _ = prune(M)
    assert P.ngens == 0
    zero = free_module(CUSP, 0)
    empty = vector_of(zero.ambient, 0, ())
    assert is_isomorphism(ModuleMap(M, zero, [empty] * M.ngens, check=False))
    assert not is_isomorphism(ModuleMap(cyclic_module(CUSP), zero, [empty], check=False))


def test_hom_drops_conditions_only_when_target_holds_the_tails(hom_condition_systems):
    M = FPModule(CUSP, 1, [VectorPoly(S, [X])])  # relations x e_0 and the tail
    # the target holds the tails, so the condition g e_0 is automatic
    hom_module(M, cyclic_module(CUSP, [Y]))
    [(rows, _)] = hom_condition_systems
    assert rows == 1


def test_elliptic_determinant_hom_generators():
    ok, payload = c1_elliptic_determinant()
    assert ok and payload["hom_generators"] == 18


def test_canonical_module_of_zero_ring_is_an_algebra_error():
    dc = canonical_dualizing(QuotientRing(S, [S.one()]))
    with pytest.raises(AlgebraError):
        dc.canonical_module_over_ring()


def _digest(strings):
    return hashlib.sha256("\n".join(strings).encode()).hexdigest()[:16]


def test_pruned_pushforward_of_the_cusp_is_pinned():
    # the pivot order of the elimination fixes which generators stay, the
    # relations of P and the images of the eliminated generators
    P, kept, to_M, from_M = prune(Pushforward(cyclic_module(CUSP), 1).module)
    assert kept == [0, 1, 3, 4, 6, 7]
    assert [repr(r) for r in P.relations] == [
        "(y, 2*x, 0, 0, 0, 0)",
        "(2*x^2, y, 0, 0, 0, 0)",
        "(0, 0, y, 2*x, 0, 0)",
        "(0, 0, 2*x^2, y, 0, 0)",
        "(0, 0, 0, 0, y, 2*x)",
        "(0, 0, 0, 0, 2*x^2, y)",
    ] + ["(" + ", ".join("2*x^3 + y^2" if i == k else "0" for i in range(6)) + ")" for k in range(6)]
    assert [repr(c) for c in from_M.columns] == [
        "(1, 0, 0, 0, 0, 0)",
        "(0, 1, 0, 0, 0, 0)",
        "(x, 0, 0, 0, 0, 0)",
        "(0, 0, 1, 0, 0, 0)",
        "(0, 0, 0, 1, 0, 0)",
        "(0, 0, x, 0, 0, 0)",
        "(0, 0, 0, 0, 1, 0)",
        "(0, 0, 0, 0, 0, 1)",
        "(0, 0, 0, 0, x, 0)",
    ]


def test_pruned_pushforward_of_the_twisted_cubic_is_pinned():
    T = PolyRing(3, ("x", "y", "z", "w"))
    x, y, z, w = T.gens()
    tc = QuotientRing(T, [x * z - y ** 2, y * w - z ** 2, x * w - y * z])
    F = Pushforward(cyclic_module(tc), 1).module
    P, kept, to_M, from_M = prune(F)
    assert (F.ngens, P.ngens, len(P.relations)) == (81, 18, 112)
    assert kept == [0, 1, 2, 3, 4, 5, 9, 10, 11, 27, 28, 30, 31, 36, 37, 54, 57, 63]
    assert _digest(map(repr, P.relations)) == "f689864b5a6b985b"
    assert _digest(map(repr, from_M.columns)) == "d8e99666704fed12"


def _slot_view_eliminate_units(M):
    """The elimination of prune on rows of slot views {slot: Polynomial},
    pivots chosen by a min over every candidate: the oracle that
    modules._eliminate_units, on term rows with a pivot heap, must match
    term for term."""
    amb = M.ambient
    m = M.ngens
    tails = set(modulus_tails(M.ring, m))
    rows = [dict(nonzero_slots(r)) for r in M.relations if r not in tails]
    nrels = len(rows)
    rows += [{k: amb.one()} for k in range(m)]
    rows_at = {i: set() for i in range(m)}
    for t, row in enumerate(rows):
        for i in row:
            rows_at[i].add(t)

    def pivot(t):
        units = [j for j, c in rows[t].items() if c.constant_value()]
        return units and (len(rows[t]), t, min(units))

    pivots = {t: pivot(t) for t in range(nrels)}
    kept = list(range(m))
    while any(pivots.values()):
        _, t, j = min(x for x in pivots.values() if x)
        del pivots[t]
        r = rows[t]
        inv = inv_mod(r[j].constant_value(), amb.p)
        for i in r:
            rows_at[i].discard(t)
        for s in rows_at.pop(j):
            row = rows[s]
            factor = row.pop(j).scale(inv)
            for i, c in r.items():
                if i == j:
                    continue
                e = row.get(i, amb.zero()) - factor * c
                if e.terms:
                    e = reduce_in(M.ring, e)
                if e.terms:
                    row[i] = e
                    rows_at[i].add(s)
                elif row.pop(i, None) is not None:
                    rows_at[i].discard(s)
            if s in pivots:
                pivots[s] = pivot(s)
        kept.remove(j)
    if len(kept) == m:
        return None, kept, [M.gen(k) for k in range(m)]
    position = {k: i for i, k in enumerate(kept)}

    def restricted(rows):
        return [vector_of(amb, len(kept), [(position[i], c) for i, c in sorted(row.items())]) for row in rows]

    rels = restricted(rows[t] for t in range(nrels) if t in pivots)
    P = FPModule(M.ring, len(kept), rels)
    return P, kept, restricted(rows[nrels:])


T = PolyRing(5, ("x", "y", "z"))
TX, TY, TZ = T.gens()
SURFACE = QuotientRing(T, [TX * TY - TZ ** 2, TZ ** 3])


def _random_module(rng, ring):
    """A module on 1-6 generators with up to 8 relations: sparse entries of
    degree at most 2, several terms each, and a constant term planted in
    half of the entries."""
    amb = ring.ambient if isinstance(ring, QuotientRing) else ring
    n = amb.nvars
    m = rng.randint(1, 6)
    rels = []
    for _ in range(rng.randint(0, 8)):
        comps = []
        for _ in range(m):
            terms = [(tuple(rng.randint(0, 1) for _ in range(n)), rng.randint(1, amb.p - 1)) for _ in range(rng.randint(0, 3))]
            if rng.random() < 0.5:
                terms.append(((0,) * n, rng.randint(1, amb.p - 1)))
            comps.append(amb.from_terms(terms))
        rels.append(VectorPoly(amb, comps))
    return FPModule(ring, m, rels)


def _terms(vectors):
    return [(v.rank, list(v.terms.items())) for v in vectors]


def test_term_rows_match_the_slot_view_elimination():
    rng = random.Random(32)
    eliminated = 0
    for _ in range(150):
        M = _random_module(rng, rng.choice([S, CUSP, T, SURFACE]))
        P, kept, express = _eliminate_units(M)
        Q, kept_q, express_q = _slot_view_eliminate_units(M)
        assert kept == kept_q
        assert _terms(express) == _terms(express_q)
        assert (P is None) == (Q is None)
        if P is not None:
            eliminated += 1
            assert _terms(P.relations) == _terms(Q.relations)
            assert P.ring is Q.ring
    assert eliminated > 50
    # the pushforwards of the pinned tests, with the modulus tails
    F = Pushforward(cyclic_module(CUSP), 1).module
    (P, kept, express), (Q, kept_q, express_q) = _eliminate_units(F), _slot_view_eliminate_units(F)
    assert kept == kept_q and _terms(express) == _terms(express_q) and _terms(P.relations) == _terms(Q.relations)
