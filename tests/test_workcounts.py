"""Work-count guards: deterministic ModuleGB build, buchberger run and
division call counts and presentation sizes on fixed workloads.

An algorithmic regression that rebuilds Groebner bases, or that feeds them
larger presentations, shows here as a count above its bound, with no timing
noise.  The workloads are one `check frobenius_duality(A);` on a fixed ring
(the cusp and the twisted cubic over F_3, the elliptic curve over F_7, the
A1 surface over F_2), one `fpdual selftest` corpus pass, the unit and
rigidifier clause, and a few direct constructions.  What each guard counts:

- builds: ModuleGB constructions (basis, certificates and syzygies).
- runs: buchberger calls, graph bases and basis-only bases included.
- divisions: every vector division (groebner._division, through division()
  or not), every polynomial normal form (_reduce_poly) and every tail
  division of the final tail reduction.
- S-pair divisions: division() calls made from buchberger's own frame, as
  benchmark/tracer.py tells them apart.
- tail slots: the generators, each with its unit tail, summed over all
  ModuleGB builds.
- tail packs: the terms DivisionIndex.tail packs from their tuples when a
  divisor's tail is first needed.
- slot views: nonzero_slots calls, each of which builds a Polynomial per
  nonzero slot of a vector.
- Hom systems: rows x columns of the Hom condition system that
  complexes.syzygies solves (the hom_condition_systems fixture).

Each bound is the count measured when a change last lowered it: a guard
asserts the count is at most its bound, and that a second run of the same
workload gives the same count.  The S-pair divisions of the corpus must
equal their bound, since the pair queue, its criteria and the selection
order fix them.  The guards whose bound is zero (a first query after a
build, a presentation's basis, cocycle classes, a lift into a resolution,
buchberger on a ModuleGB input) assert that no basis is built, no tail
packed and no Polynomial made.  A change that lowers a count tightens its
bound to the new measurement; one that raises a count raises the bound
and says why.  CHANGES.md records each change of a bound and its cause.
"""

import sys

import pytest

import fpduality.groebner as groebner
import fpduality.modules as modules
from fpduality.complexes import (
    FreeComplex,
    cohomology,
    free_resolution,
    hom_complex,
    koszul_complex,
    lift_chain_map,
    rank_one_complex,
)
from fpduality.duality import canonical_dualizing
from fpduality.frobenius import frobenius_pushforward, pbasis_trace_generator
from fpduality.groebner import VectorPoly, unit_vector, vector_from_poly
from fpduality.polyring import PolyRing, Polynomial
from fpduality.selftest import c7_unit_and_rigidifier, run_corpus
from fpduality.shriek import verify_symmetry
from fpduality.session import Session, execute, parse_session

CUSP_DUALITY_BUILDS = 5
TWISTED_CUBIC_DUALITY_BUILDS = 10
TWISTED_CUBIC_DUALITY_DIVISIONS = 1335
ELLIPTIC7_DUALITY_BUILDS = 6
ELLIPTIC7_DUALITY_TAIL_SLOTS = 72
CORPUS_BUILDS = 190
CORPUS_RUNS = 372
CORPUS_DIVISIONS = 1627
CORPUS_SPAIR_DIVISIONS = 671
CORPUS_TAIL_SLOTS = 295
CORPUS_TAIL_PACKS = 1455
UNIT_CLAUSE_BUILDS = 72
SYMMETRY_BUILDS = 7
TRACE_GENERATOR_BUILDS = 2
REPEATED_CERTIFICATION_BUILDS = 6
A1_SURFACE_DUALITY_SLOT_VIEWS = 1
CORPUS_SLOT_VIEWS = 222
CUSP_HOM_SYSTEM = 9 * 27
ELLIPTIC_DET_HOM_SYSTEM = 32 * 76

DUALITY_SCRIPT = "ring A = %s;\ncheck frobenius_duality(A);\n"
CUSP_RING = "Fp(3)[x,y] / (y^2 - x^3)"
TWISTED_CUBIC_RING = "Fp(3)[x,y,z] / (x^2 - y, x*y - z, y^2 - x*z)"
ELLIPTIC7_RING = "Fp(7)[x,y] / (y^2 - x^3 - x - 1)"
A1_SURFACE_RING = "Fp(2)[x,y,z] / (x*y - z^2)"


@pytest.fixture
def builds(monkeypatch):
    count = [0]
    original = groebner.ModuleGB.__init__

    def counted(self, *args, **kwargs):
        count[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(groebner.ModuleGB, "__init__", counted)
    return count


@pytest.fixture
def tail_slots(monkeypatch):
    # one unit tail slot per generator of each ModuleGB build
    count = [0]
    original = groebner.ModuleGB.__init__

    def counted(self, ring, rank, generators, *args, **kwargs):
        generators = list(generators)
        count[0] += len(generators)
        original(self, ring, rank, generators, *args, **kwargs)

    monkeypatch.setattr(groebner.ModuleGB, "__init__", counted)
    return count


@pytest.fixture
def runs(monkeypatch):
    count = [0]
    original = groebner.buchberger

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", counted)
    return count


@pytest.fixture
def divisions(monkeypatch):
    # every vector division runs through _division, ModuleGB.reduce's
    # without division(); a polynomial normal form (Ideal.reduce) and a
    # tail division of the final tail reduction divide without either and
    # count as one division each too
    count = [0]
    original = groebner._division
    original_poly = groebner._reduce_poly
    original_divide = groebner._divide

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    def counted_poly(*args):
        count[0] += 1
        return original_poly(*args)

    def counted_divide(*args):
        count[0] += sys._getframe(1).f_code.co_name == "_reduced_basis"
        return original_divide(*args)

    monkeypatch.setattr(groebner, "_division", counted)
    monkeypatch.setattr(groebner, "_reduce_poly", counted_poly)
    monkeypatch.setattr(groebner, "_divide", counted_divide)
    return count


@pytest.fixture
def slot_views(monkeypatch):
    # slot views: every nonzero_slots call builds one from the vector's
    # terms, wherever a module imported the function
    count = [0]
    original = groebner.nonzero_slots

    def counted(v):
        count[0] += 1
        return original(v)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("fpduality") and getattr(module, "nonzero_slots", None) is original:
            monkeypatch.setattr(module, "nonzero_slots", counted)
    return count


@pytest.fixture
def tail_packs(monkeypatch):
    # terms a DivisionIndex packs from their tuples when a divisor's tail is
    # first needed; a tail() that repacks the index packs none
    count = [0]
    original = groebner.DivisionIndex.tail

    def counted(self, k):
        tail = original(self, k)
        count[0] += len(tail or ())
        return tail

    monkeypatch.setattr(groebner.DivisionIndex, "tail", counted)
    return count


@pytest.fixture
def spair_divisions(monkeypatch):
    # S-pair reductions: divisions called from buchberger's own frame
    count = [0]
    original = groebner.division

    def counted(*args, **kwargs):
        count[0] += sys._getframe(1).f_code.co_name == "buchberger"
        return original(*args, **kwargs)

    monkeypatch.setattr(groebner, "division", counted)
    return count


def _duality_count(ring, count):
    session = Session()
    ring_stmt, check_stmt = parse_session(DUALITY_SCRIPT % ring)
    assert execute(session, ring_stmt).status == "ok"
    count[0] = 0
    report = execute(session, check_stmt)
    assert report.payload == {"certified": True}
    return count[0]


def _corpus_builds(count):
    count[0] = 0
    list(run_corpus())
    return count[0]


def _duality_within(ring, count, bound):
    first = _duality_count(ring, count)
    assert first <= bound
    assert _duality_count(ring, count) == first


def test_cusp_frobenius_duality_builds(builds):
    _duality_within(CUSP_RING, builds, CUSP_DUALITY_BUILDS)


def test_twisted_cubic_frobenius_duality_builds(builds):
    _duality_within(TWISTED_CUBIC_RING, builds, TWISTED_CUBIC_DUALITY_BUILDS)


def test_twisted_cubic_frobenius_duality_divisions(divisions):
    _duality_within(TWISTED_CUBIC_RING, divisions, TWISTED_CUBIC_DUALITY_DIVISIONS)


def test_elliptic_frobenius_duality_builds(builds):
    _duality_within(ELLIPTIC7_RING, builds, ELLIPTIC7_DUALITY_BUILDS)


def test_elliptic_frobenius_duality_tail_slots(tail_slots):
    # a lift into F_*K per monomial would solve against F_*K's differential,
    # 49 tracked generators wide over F_7
    _duality_within(ELLIPTIC7_RING, tail_slots, ELLIPTIC7_DUALITY_TAIL_SLOTS)


def test_corpus_builds(builds):
    first = _corpus_builds(builds)
    assert first <= CORPUS_BUILDS
    assert _corpus_builds(builds) == first


def test_corpus_runs(runs):
    first = _corpus_builds(runs)
    assert first <= CORPUS_RUNS
    assert _corpus_builds(runs) == first


def test_corpus_divisions(divisions):
    first = _corpus_builds(divisions)
    assert first <= CORPUS_DIVISIONS
    assert _corpus_builds(divisions) == first


def test_corpus_spair_divisions(spair_divisions):
    # the pair queue, its criteria and the selection order fix this count
    assert _corpus_builds(spair_divisions) == CORPUS_SPAIR_DIVISIONS


def test_corpus_tail_packs(tail_packs):
    # an S-pair remainder's tail is handed to the index already packed
    first = _corpus_builds(tail_packs)
    assert first <= CORPUS_TAIL_PACKS
    assert _corpus_builds(tail_packs) == first


def test_first_queries_after_a_build_pack_nothing(monkeypatch):
    # buchberger hands each owner the index its tail reduction built, every
    # tail packed: the first normal form, lift or membership test of an
    # Ideal, a ReducedBasis and a ModuleGB adds no divisor and packs no tail
    amb = PolyRing(3, ("x", "y", "z"))
    x, y, z = amb.gens()
    cubic = [x ** 2 - y, x * y - z, y ** 2 - x * z]
    A = groebner.QuotientRing(amb, cubic)
    gens = [VectorPoly(amb, [x, y]), VectorPoly(amb, [y, z]), VectorPoly(amb, [z, x ** 2])]
    ideal = groebner.Ideal(amb, cubic)
    ideal.groebner()
    rb = groebner.reduced_basis(amb, 2, gens + groebner.modulus_tails(A, 2))
    mgb = groebner.ModuleGB(amb, 2, gens, modulo=groebner.modulus_tails(A, 2))
    assert min(len(ideal.groebner()), len(rb.basis), len(mgb.basis)) > 1
    work = {"adds": 0, "tails": 0}
    original_add = groebner.DivisionIndex.add
    original_tail = groebner.DivisionIndex.tail

    def add(self, g, packed=None):
        work["adds"] += 1
        original_add(self, g, packed)

    def tail(self, k):
        work["tails"] += 1
        return original_tail(self, k)

    monkeypatch.setattr(groebner.DivisionIndex, "add", add)
    monkeypatch.setattr(groebner.DivisionIndex, "tail", tail)
    f = x ** 3 * y * z + y ** 3 + x * z ** 2
    assert ideal.contains(f * (x * y - z))
    assert not ideal.reduce(f).is_zero()
    v = VectorPoly(amb, [x ** 2 * y + z, x * y * z])
    assert not rb.normal_form(v).is_zero()
    assert mgb.lift(gens[0].mul_term((0, 1, 1), 1) + gens[2].mul_term((1, 0, 0), 1)) is not None
    assert mgb.reduce(v)[0].terms
    assert work == {"adds": 0, "tails": 0}


def test_a1_surface_frobenius_duality_slot_views(slot_views):
    # maps and chain maps apply their columns term by term, and F_* regroups
    # terms: no per-slot polynomial of a coefficient vector is built
    _duality_within(A1_SURFACE_RING, slot_views, A1_SURFACE_DUALITY_SLOT_VIEWS)


def test_corpus_slot_views(slot_views):
    first = _corpus_builds(slot_views)
    assert first <= CORPUS_SLOT_VIEWS
    assert _corpus_builds(slot_views) == first


def test_corpus_tail_slots(tail_slots):
    first = _corpus_builds(tail_slots)
    assert first <= CORPUS_TAIL_SLOTS
    assert _corpus_builds(tail_slots) == first


def test_presentation_basis_builds_no_module_gb(builds, runs):
    # FPModule.relgb() is one plain buchberger run, invisible to the build
    # count; its normal forms need no certificates or syzygies
    amb = PolyRing(3, ("x", "y"))
    x, y = amb.gens()
    A = groebner.QuotientRing(amb, [y ** 2 - x ** 3])
    M = modules.FPModule(A, 2, [VectorPoly(amb, [x, y]), VectorPoly(amb, [y, x ** 2])])
    builds[0] = runs[0] = 0
    assert not M.element_is_zero(M.gen(0))
    assert M.relgb() is M.relgb()
    assert (builds[0], runs[0]) == (0, 1)


def test_unit_clause_builds(builds):
    counts = []
    for _ in range(2):
        builds[0] = 0
        passed, _payload = c7_unit_and_rigidifier()
        assert passed
        counts.append(builds[0])
    assert counts[0] <= UNIT_CLAUSE_BUILDS
    assert counts[1] == counts[0]


def test_symmetry_builds(builds):
    # verify_symmetry(A, omega, omega) over F_2[x]: both products share one
    # diagonal resolution
    A = groebner.QuotientRing(PolyRing(2, ("x",)), [])
    dc = canonical_dualizing(A)
    omega, low = dc.canonical_module_over_ring(), dc.lowest_degree()
    builds[0] = 0
    assert all(verify_symmetry(A, omega, omega, low, low).values())
    assert builds[0] <= SYMMETRY_BUILDS


def test_trace_generator_builds(builds):
    # one coordinate solver serves every pair of restricted monomials
    R = PolyRing(3, ("x", "y"))
    builds[0] = 0
    # it raises unless generates_freely certifies the generator
    pbasis_trace_generator(R, list(R.gens()), rank_one_complex(R, -2))
    assert builds[0] <= TRACE_GENERATOR_BUILDS


def test_repeated_certification_builds(builds):
    # five multiplication maps on a module whose prune drops two of its three
    # generators: the pruned source and its basis are built once
    amb = PolyRing(3, ("x", "y"))
    x, y = amb.gens()
    A = groebner.QuotientRing(amb, [y ** 2 - x ** 3])
    zero, one = amb.zero(), amb.one()
    M = modules.FPModule(A, 3, [
        VectorPoly(amb, [x, zero, zero]),
        VectorPoly(amb, [y, one, zero]),
        VectorPoly(amb, [x * y, zero, amb.const(2)]),
    ])
    builds[0] = 0
    verdicts = [
        modules.is_isomorphism(
            modules.ModuleMap(M, M, [unit_vector(amb, 3, i, g) for i in range(3)], check=False)
        )
        for g in (x, y, x + y, amb.const(2), one)
    ]
    assert verdicts == [False, False, False, True, True]
    assert builds[0] <= REPEATED_CERTIFICATION_BUILDS


def test_cusp_hom_system_size(hom_condition_systems):
    # hom_module(F_*A, omega_A) on F_3[x,y]/(y^2 - x^3)
    amb = PolyRing(3, ("x", "y"))
    x, y = amb.gens()
    A = groebner.QuotientRing(amb, [y ** 2 - x ** 3])
    omega = canonical_dualizing(A).canonical_module_over_ring()
    hom_condition_systems.clear()
    modules.hom_module(frobenius_pushforward(A).module, omega)
    [(rows, cols)] = hom_condition_systems
    assert rows * cols <= CUSP_HOM_SYSTEM


def test_elliptic_determinant_hom_system_size(hom_condition_systems):
    # hom_module(Lambda^2 F_*R, Q) of the elliptic determinant clause
    amb = PolyRing(2, ("x", "y"))
    x, y = amb.gens()
    R = groebner.QuotientRing(amb, [y ** 2 + x * y + y + x ** 3 + x + 1])
    L = modules.exterior_power(frobenius_pushforward(R).module, 2)
    Q = modules.ideal_module(R, [x + 1, y + 1])
    hom_condition_systems.clear()
    H = modules.hom_module(L, Q)
    [(rows, cols)] = hom_condition_systems
    assert rows * cols <= ELLIPTIC_DET_HOM_SYSTEM
    assert H.ngens == 18


def test_cocycle_classes_build_no_basis(builds):
    # Hom(K, S/(x)) for the Koszul complex K of (x, y) over F_3[x,y]: each
    # degree's coordinates come from the basis that gave its relations
    S = PolyRing(3, ("x", "y"))
    x, y = S.gens()
    N = FreeComplex(S, {0: 1}, {}, relations={0: [vector_from_poly(x)]})
    H = hom_complex(koszul_complex(S, [x, y]), N)
    report = cohomology(H)
    assert report.nonzero_degrees() == [1, 2]
    builds[0] = 0
    for h in report.degrees.values():
        assert h.classes_of(h.reps) is not None
    assert builds[0] == 0


def test_lift_into_a_free_resolution_builds_no_basis(builds):
    # the identity of S/(x, y) lifts from its Koszul complex into its
    # resolution through the bases that computed the resolution's stages
    S = PolyRing(3, ("x", "y"))
    x, y = S.gens()
    F = free_resolution(S, 1, [vector_from_poly(x), vector_from_poly(y)])
    builds[0] = 0
    lift_chain_map([unit_vector(S, 1, 0)], koszul_complex(S, [x, y]), F, S)
    assert builds[0] == 0


def test_module_gb_buchberger_builds_no_polynomial(monkeypatch):
    # S-pairs, divisions and the final tail reduction work on the vectors'
    # term dicts: inside buchberger no Polynomial is built or multiplied
    amb = PolyRing(3, ("x", "y"))
    x, y = amb.gens()
    A = groebner.QuotientRing(amb, [y ** 2 - x ** 3])
    gens = [VectorPoly(amb, [x, y]), VectorPoly(amb, [y, x ** 2]), VectorPoly(amb, [x * y, y ** 2 + x])]
    inside = [0]
    counts = {"polynomials": 0, "products": 0, "divisions": 0}

    def watched(original, label):
        def wrapper(*args, **kwargs):
            if inside[0]:
                counts[label] += 1
            return original(*args, **kwargs)

        return wrapper

    original_buchberger = groebner.buchberger

    def buchberger(*args, **kwargs):
        inside[0] += 1
        try:
            return original_buchberger(*args, **kwargs)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(Polynomial, "__init__", watched(Polynomial.__init__, "polynomials"))
    monkeypatch.setattr(Polynomial, "__mul__", watched(Polynomial.__mul__, "products"))
    monkeypatch.setattr(groebner, "division", watched(groebner.division, "divisions"))
    monkeypatch.setattr(groebner, "buchberger", buchberger)
    mgb = groebner.ModuleGB(amb, 2, gens, modulo=groebner.modulus_tails(A, 2))
    assert len(mgb.basis) > 1 and mgb.syzygies
    assert counts["divisions"] > len(gens)
    assert (counts["polynomials"], counts["products"]) == (0, 0)
