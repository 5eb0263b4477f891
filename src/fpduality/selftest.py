"""The built-in acceptance corpus.

Each entry runs one clause of an acceptance criterion and returns
(passed, payload).  The table is shared by `fpdual selftest` and the
pytest acceptance suite.  Everything here is deterministic.
"""

from .complexes import rank_one_complex
from .duality import (
    commutation_signs,
    compare_presentations,
    canonical_dualizing,
    ext_two_pipelines,
    verify_frobenius_duality,
    xi_factorizations_agree,
)
from .frobenius import frobenius_pushforward, trace_generator_is_exact
from .gabber import gabber_truncation, verify_kernel_bracket
from .groebner import Ideal, QuotientRing, elimination_kernel
from .modules import (
    cyclic_module,
    exterior_power,
    generic_rank,
    hom_module,
    ideal_module,
    is_isomorphism,
    minimal_generators_at,
)
from .polyring import PolyRing, RingMap
from .shriek import verify_associativity, verify_rigidifier, verify_symmetry, verify_unit


def _elliptic():
    amb = PolyRing(2, ("x", "y"))
    x, y = amb.gens()
    curve = y ** 2 + x * y + y + x ** 3 + x + 1
    return amb, QuotientRing(amb, [curve])


def c1_elliptic_rank():
    _amb, R = _elliptic()
    F = frobenius_pushforward(R, 1)
    rank = generic_rank(F.module)
    return rank == 2, {"generic_rank": rank}


def c1_elliptic_determinant():
    amb, R = _elliptic()
    x, y = amb.gens()
    F = frobenius_pushforward(R, 1)
    L = exterior_power(F.module, 2)
    Q = ideal_module(R, [x + 1, y + 1])
    H = hom_module(L, Q)
    found = None
    for i in range(H.ngens):
        cand = H.decode(i)
        if is_isomorphism(cand):
            found = i
            break
    return found is not None, {"iso_generator_index": found, "hom_generators": H.ngens}


def c1_elliptic_minimal_generators():
    # the stated criterion demands the value 2; the honest Nakayama count
    # at the smooth point is 1 (see README), so this clause stays red
    amb, R = _elliptic()
    x, y = amb.gens()
    Q = ideal_module(R, [x + 1, y + 1])
    count = minimal_generators_at(Q, Ideal(amb, [x + 1, y + 1]))
    return count == 2, {"computed": count, "criterion_expected": 2}


def c2_trace_generator(p, n):
    # trace_generator_is_exact raises unless generates_freely certifies phi
    table_ok = trace_generator_is_exact(PolyRing(p, tuple("xyz"[:n])))
    return table_ok, {"free_rank_one": True, "table_exact": table_ok}


def c3_fli(p, names, seq_builder, codim):
    S = PolyRing(p, names)
    seq = seq_builder(S)
    repK, repR, certified = ext_two_pipelines(S, seq, rank_one_complex(S, 0))
    ok = (
        repK.nonzero_degrees() == [codim]
        and repR.nonzero_degrees() == [codim]
        and all(certified.values())
    )
    return ok, {
        "koszul_degrees": repK.nonzero_degrees(),
        "resolution_degrees": repR.nonzero_degrees(),
        "comparison": {str(k): v for k, v in certified.items()},
    }


def c4_presentations_dual_numbers():
    amb = PolyRing(2, ("x",))
    x = amb.var("x")
    A = QuotientRing(amb, [x ** 2])
    pi1 = RingMap(PolyRing(2, ("x",)), A, [A.reduce(x)], check=False)
    S2 = PolyRing(2, ("u", "v"))
    pi2 = RingMap(S2, A, [A.reduce(x), A.zero()], check=False)
    out = compare_presentations(A, pi1, pi2)
    return out.certified, {"degrees": out.degree_lists}


def c4_presentations_line():
    amb = PolyRing(2, ("t",))
    t = amb.var("t")
    A = QuotientRing(amb, [])
    pi1 = RingMap(PolyRing(2, ("t",)), A, [A.reduce(t)], check=False)
    SXY = PolyRing(2, ("X", "Y"))
    pi2 = RingMap(SXY, A, [A.reduce(t), A.reduce(t ** 2)], check=False)
    out = compare_presentations(A, pi1, pi2)
    return out.certified, {"degrees": out.degree_lists}


def c5_kernel_brackets():
    results = {}
    S = PolyRing(2, ("X",))
    F2 = PolyRing(2, ())
    pi = RingMap(S, F2, [F2.zero()])
    for e in (1, 2):
        results["point_e%d" % e] = verify_kernel_bracket(S, pi, e)
    S2 = PolyRing(2, ("X", "Y"))
    amb = PolyRing(2, ("x",))
    A = QuotientRing(amb, [amb.var("x") ** 2])
    pi2 = RingMap(S2, A, [A.reduce(amb.var("x")), A.zero()], check=False)
    for e in (1, 2):
        results["dual_numbers_e%d" % e] = verify_kernel_bracket(S2, pi2, e)
    S3 = PolyRing(3, ("X",))
    F3 = PolyRing(3, ())
    pi3 = RingMap(S3, F3, [F3.zero()])
    for e in (1, 2):
        results["char3_point_e%d" % e] = verify_kernel_bracket(S3, pi3, e)
    return all(results.values()), results


def c5_power_series_truncations():
    # G(F_p; t) truncations equal F_p[X]/((X-t)^{p^e}) exactly
    results = {}
    for p, t_val, e in ((2, 0, 1), (2, 0, 2), (3, 1, 1)):
        Fp = PolyRing(p, ())
        t = Fp.const(t_val)
        tower = gabber_truncation(Fp, [t], e)
        S = PolyRing(p, ("Y",))
        phi = RingMap(S, tower.ring, [tower.pbasis_images[0]], check=False)
        ker = elimination_kernel(phi)
        Y = S.var("Y")
        expect = Ideal(S, [(Y - t_val) ** (p ** e)])
        results["p%d_t%d_e%d" % (p, t_val, e)] = ker.equals(expect)
    return all(results.values()), results


def c6_frobenius_duality():
    results = {}
    line = QuotientRing(PolyRing(2, ("x",)), [])
    results["line"] = verify_frobenius_duality(line).certified
    amb = PolyRing(2, ("x",))
    results["dual_numbers"] = verify_frobenius_duality(
        QuotientRing(amb, [amb.var("x") ** 2])
    ).certified
    amb2 = PolyRing(2, ("x", "y"))
    x, y = amb2.gens()
    results["crossing_lines"] = verify_frobenius_duality(
        QuotientRing(amb2, [x * y])
    ).certified
    results["cusp"] = verify_frobenius_duality(
        QuotientRing(amb2, [y ** 2 + x ** 3])
    ).certified
    return all(results.values()), results


def c7_unit_and_rigidifier():
    results = {}
    A = QuotientRing(PolyRing(2, ("x",)), [])
    x = A.ambient.var("x")
    results["line_module"] = verify_unit(A, cyclic_module(A)).certified
    dc = canonical_dualizing(A)
    results["line_omega_rigidifier"] = verify_rigidifier(dc).certified
    results["line_torsion"] = verify_unit(A, cyclic_module(A, [x])).certified
    amb = PolyRing(2, ("x",))
    Ad = QuotientRing(amb, [amb.var("x") ** 2])
    results["dual_numbers_omega"] = verify_rigidifier(canonical_dualizing(Ad)).certified
    om, low = dc.canonical_module_over_ring(), dc.lowest_degree()
    sym = verify_symmetry(A, om, om, low, low)
    results["symmetry_omega"] = all(sym.values())
    assoc = verify_associativity(
        A, cyclic_module(A), cyclic_module(A, [x]), om, shifts=(0, 0, low)
    )
    results["associativity"] = assoc["certified"]
    return all(results.values()), results


def c8_factorizations_and_signs():
    results = {}
    R2 = PolyRing(2, ("x",))
    results["frobenius_p2_equal"], a = xi_factorizations_agree(R2, [R2.var("x") ** 3], 1)
    results["frobenius_p2_is_trace"] = (
        a.functional[0].is_zero() and a.functional[1].constant_value() == 1
    )
    R3 = PolyRing(3, ("x",))
    results["frobenius_p3_equal"] = xi_factorizations_agree(R3, [R3.var("x") ** 2], 1)[0]
    for p in (2, 3):
        for (c, d), agree in commutation_signs(p).items():
            results["sign_p%d_c%d_d%d" % (p, c, d)] = agree
    return all(results.values()), results


# (criterion, clause name, callable, note)
CORPUS = [
    ("1", "elliptic pushforward generic rank 2", c1_elliptic_rank, ""),
    ("1", "elliptic determinant iso to point ideal", c1_elliptic_determinant, ""),
    (
        "1",
        "elliptic point ideal Nakayama count = 2",
        c1_elliptic_minimal_generators,
        "stated value unattainable: the smooth point forces the count 1, see README",
    ),
    ("2", "trace generator p=2 n=1", lambda: c2_trace_generator(2, 1), ""),
    ("2", "trace generator p=2 n=2", lambda: c2_trace_generator(2, 2), ""),
    ("2", "trace generator p=3 n=1", lambda: c2_trace_generator(3, 1), ""),
    (
        "3",
        "FLI (F2[x,y], (x,y))",
        lambda: c3_fli(2, ("x", "y"), lambda S: [S.var("x"), S.var("y")], 2),
        "",
    ),
    (
        "3",
        "FLI (F3[x], (x^2))",
        lambda: c3_fli(3, ("x",), lambda S: [S.var("x") ** 2], 1),
        "",
    ),
    (
        "3",
        "FLI (F2[x,y,z], (x,y^2))",
        lambda: c3_fli(2, ("x", "y", "z"), lambda S: [S.var("x"), S.var("y") ** 2], 2),
        "",
    ),
    ("4", "dual numbers via two presentations", c4_presentations_dual_numbers, ""),
    ("4", "line via itself and a plane", c4_presentations_line, ""),
    ("5", "kernel brackets e in {1,2}", c5_kernel_brackets, ""),
    ("5", "power series truncations", c5_power_series_truncations, ""),
    ("6", "Frobenius duality corpus", c6_frobenius_duality, ""),
    ("7", "unit, rigidifier, symmetry, associativity", c7_unit_and_rigidifier, ""),
    ("8", "factorization independence and Koszul signs", c8_factorizations_and_signs, ""),
]


def run_corpus():
    """Run every clause; yields (criterion, name, passed, payload, note)."""
    for crit, name, fn, note in CORPUS:
        passed, payload = fn()
        yield crit, name, bool(passed), payload, note
