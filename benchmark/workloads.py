"""Seeded inputs for the workloads, and the operations that run them.

A workload is a sequence of parts, and one pass runs every operation of
each part once.  `make_inputs(workload, seed)` returns plain JSON data
(term lists, orders); it imports nothing from fpduality, so run.py can
build its known answers from it without loading the library.  `prepare(...)`
turns that data into library objects and returns the operations of one
pass: only the calls into the library are timed, and their results are
turned into JSON data afterwards for `checks.py` to compare with the known
answers.

A polynomial in the input data is a sorted list of [exponents, coeff]
pairs with coefficients in [1, p).
"""

import random
from itertools import combinations_with_replacement, product

# cli: what `fpdual selftest` and `fpdual run` do; engine: the Groebner and
# power layers on distinct random inputs.  Two long workloads rather than
# four short ones: see README, "Steadiness".
WORKLOADS = {
    "cli": ("corpus", "duality_ladder"),
    "engine": ("ideal_gb", "tower"),
}
PARTS = ("corpus", "duality_ladder", "ideal_gb", "tower")


def parts_of(workload):
    """The parts a workload runs; a part name alone is a one-part workload,
    for looking at one part's layers (BENCHMARK.json does not use these)."""
    if workload in WORKLOADS:
        return WORKLOADS[workload]
    if workload in PARTS:
        return (workload,)
    raise ValueError("unknown workload %r" % workload)

# ideal_gb: 10 ideals per prime, each followed by 2 member and 2 random queries
GB_PRIMES = (2, 3, 5, 7, 32003)
GB_VARS = ("x", "y", "z", "w")
GB_IDEALS_PER_PRIME = 10
GB_GENS = 3
GB_TERMS = 8

# duality_ladder: rings just beyond criterion 6 of the corpus (curves and
# surfaces in characteristic 2 and 3); see README for the rings left out
LADDER = (
    ("cusp_p3", "Fp(3)[x,y] / (y^2 - x^3)"),
    ("node_p3", "Fp(3)[x,y] / (y^2 - x^2 - x^3)"),
    ("elliptic_p3", "Fp(3)[x,y] / (y^2 - x^3 + x)"),
    ("elliptic_p2", "Fp(2)[x,y] / (y^2 + x*y + y + x^3 + x + 1)"),
    ("a1_surface_p2", "Fp(2)[x,y,z] / (x*y - z^2)"),
    ("a2_surface_p2", "Fp(2)[x,y,z] / (x*y - z^3)"),
)

# tower: q = p^e from 4 to 49
TOWER_LEVELS = ((2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2))

CORPUS_SIZE = 16


# -- plain term-dict arithmetic, shared with the checks ----------------------

def as_dict(terms):
    return {tuple(m): c for m, c in terms}


def as_terms(d):
    return sorted([list(m), c] for m, c in d.items())


def dict_add(a, b, p):
    out = dict(a)
    for m, c in b.items():
        s = (out.get(m, 0) + c) % p
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def dict_mul(a, b, p):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(i + j for i, j in zip(m1, m2))
            s = (out.get(m, 0) + c1 * c2) % p
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def frobenius(d, q):
    """f -> f^q over F_p with q a power of p: exponents times q, since c^q = c."""
    return {tuple(q * e for e in m): c for m, c in d.items()}


# -- input generation --------------------------------------------------------

def _monomials(nvars, degree):
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def _dense(rng, p, nvars, degree):
    """Every monomial of degree <= degree, each with a random unit coefficient."""
    return {m: rng.randrange(1, p) for m in product(range(degree + 1), repeat=nvars) if sum(m) <= degree}


def _sparse(rng, p, monomials, nterms):
    return {m: rng.randrange(1, p) for m in rng.sample(monomials, nterms)}


def _ideal_gb_inputs(rng):
    cubics = _monomials(len(GB_VARS), 3)
    linears = _monomials(len(GB_VARS), 1)
    upto4 = [m for d in range(5) for m in _monomials(len(GB_VARS), d)]
    ideals = []
    for p in GB_PRIMES:
        for _ in range(GB_IDEALS_PER_PRIME):
            gens = [_sparse(rng, p, cubics, GB_TERMS) for _ in range(GB_GENS)]
            queries = []
            for _ in range(2):
                member = {}
                for g in gens:
                    member = dict_add(member, dict_mul(_sparse(rng, p, linears, 2), g, p), p)
                queries.append({"kind": "member", "f": as_terms(member)})
            for _ in range(2):
                queries.append({"kind": "random", "f": as_terms(_sparse(rng, p, upto4, GB_TERMS))})
            ideals.append({"p": p, "gens": [as_terms(g) for g in gens], "queries": queries})
    return {"ideals": ideals}


def _tower_inputs(rng):
    ops = []
    for p, e in TOWER_LEVELS:
        q = p ** e
        ops.append({
            "kind": "bracket_power", "p": p, "e": e,
            # a dense linear form in x,y,z and one in x,y
            "gens": [as_terms(_dense(rng, p, 3, 1)), as_terms({m + (0,): c for m, c in _dense(rng, p, 2, 1).items()})],
        })
        ops.append({"kind": "frobenius_decompose", "p": p, "e": e, "f": as_terms(_dense(rng, p, 2, 2 * q - 1))})
        ops.append({"kind": "gabber_truncation", "p": p, "e": e, "shift": [rng.randrange(1, p), rng.randrange(1, p)]})
        # pi: F_p[X,Y] -> F_p[x], X -> x, Y -> a*x + b, kernel (Y - aX - b)
        ops.append({"kind": "verify_kernel_bracket", "p": p, "e": e, "line": [rng.randrange(1, p), rng.randrange(1, p)]})
    return {"ops": ops}


def _part_inputs(part, seed):
    rng = random.Random("%s:%d" % (part, seed))
    if part == "corpus":
        order = list(range(CORPUS_SIZE))
        rng.shuffle(order)
        return {"order": order}
    if part == "ideal_gb":
        return _ideal_gb_inputs(rng)
    if part == "duality_ladder":
        order = list(range(len(LADDER)))
        rng.shuffle(order)
        return {"order": order}
    return _tower_inputs(rng)


def make_inputs(workload, seed):
    """The workload's inputs as JSON data, by part; the same seed gives the same data."""
    return {part: _part_inputs(part, seed) for part in parts_of(workload)}


def ladder_script(index):
    name, ring = LADDER[index]
    return "ring %s = %s;\ncheck frobenius_duality(%s);\n" % (name, ring, name)


# -- library side: build objects and the operations of one pass --------------

def _poly(ring, terms):
    return ring.from_terms((tuple(m), c) for m, c in terms)


def _out_poly(f):
    return as_terms(f.terms)


def _out_polys(fs):
    return [_out_poly(f) for f in fs]


def _same(x):
    return x


def prepare(workload, inputs):
    """The operations of one pass as (part, kind, run, finish) tuples.

    Only run() is timed.  finish(result) turns its result into JSON data
    for the checks; it runs after the pass, outside the timed region."""
    return [(part,) + op for part in parts_of(workload) for op in prepare_part(part, inputs[part])]


def prepare_part(part, inputs):
    """The operations of one part as (kind, run, finish) triples."""
    return {
        "corpus": _prepare_corpus,
        "ideal_gb": _prepare_ideal_gb,
        "duality_ladder": _prepare_ladder,
        "tower": _prepare_tower,
    }[part](inputs)


def _prepare_corpus(inputs):
    import json

    from fpduality.selftest import CORPUS

    def clause(index):
        crit, name, fn, note = CORPUS[index]

        def finish(result):
            # the record exactly as `fpdual selftest --json` writes it
            passed, payload = result
            record = {"criterion": crit, "name": name, "status": "pass" if passed else "fail", "payload": payload}
            if note:
                record["note"] = note
            return json.dumps(record, sort_keys=True, separators=(",", ":"))

        return ("clause", fn, finish)

    return [clause(i) for i in inputs["order"]]


def _prepare_ideal_gb(inputs):
    from fpduality import Ideal, PolyRing

    rings = {p: PolyRing(p, GB_VARS) for p in GB_PRIMES}
    ops = []
    for spec in inputs["ideals"]:
        R = rings[spec["p"]]
        ideal = Ideal(R, [_poly(R, g) for g in spec["gens"]])
        ops.append(("build", ideal.groebner, _out_polys))
        for query in spec["queries"]:
            f = _poly(R, query["f"])
            if query["kind"] == "member":
                ops.append(("query", lambda I=ideal, f=f: I.contains(f), _same))
            else:
                ops.append(("query", lambda I=ideal, f=f: I.reduce(f), _out_poly))
    return ops


def _prepare_ladder(inputs):
    from fpduality.session import Session, execute, parse_session

    session = Session()

    def ring(index):
        text = ladder_script(index)
        # parse and execute as `fpdual run` does, in one shared session
        return ("check", lambda: [execute(session, stmt) for stmt in parse_session(text)],
                lambda reports: [r.to_dict() for r in reports])

    return [ring(i) for i in inputs["order"]]


def _prepare_tower(inputs):
    from fpduality import (
        Ideal,
        PolyRing,
        RingMap,
        bracket_power,
        frobenius_decompose,
        gabber_truncation,
        verify_kernel_bracket,
    )

    ops = []
    for spec in inputs["ops"]:
        p, e, kind = spec["p"], spec["e"], spec["kind"]
        if kind == "bracket_power":
            R = PolyRing(p, ("x", "y", "z"))
            ideal = Ideal(R, [_poly(R, g) for g in spec["gens"]])
            ops.append((kind, lambda I=ideal, e=e: bracket_power(I, e), lambda J: _out_polys(J.gens)))
        elif kind == "frobenius_decompose":
            R = PolyRing(p, ("x", "y"))
            f = _poly(R, spec["f"])
            ops.append((kind, lambda f=f, e=e: frobenius_decompose(f, e),
                        lambda parts: sorted([list(a), _out_poly(v)] for a, v in parts.items())))
        elif kind == "gabber_truncation":
            R = PolyRing(p, ("x", "y"))
            xs = [R.var(0) + spec["shift"][0], R.var(1) + spec["shift"][1]]
            # the tower ring cannot leave the process: finish reports whether
            # X_i^(p^e) = x_i + shift_i holds in it
            ops.append((kind, lambda R=R, xs=xs, e=e: gabber_truncation(R, xs, e),
                        lambda tower, spec=spec: _gabber_roots_ok(tower, spec)))
        else:
            S = PolyRing(p, ("X", "Y"))
            T = PolyRing(p, ("x",))
            a, b = spec["line"]
            pi = RingMap(S, T, [T.var(0), T.var(0) * a + b])
            ops.append((kind, lambda S=S, pi=pi, e=e: verify_kernel_bracket(S, pi, e), _same))
    return ops


def _gabber_roots_ok(tower, spec):
    q = spec["p"] ** spec["e"]
    amb = tower.ring.ambient
    if tower.level != spec["e"]:
        return False
    for i, root in enumerate(tower.pbasis_images):
        lhs = amb.from_terms(frobenius(root.terms, q).items())
        rhs = amb.var(i) + spec["shift"][i]
        if not tower.ring.reduce(lhs - rhs).is_zero():
            return False
    return True
