"""Known answers for every operation, and the comparison of a pass with them.

Answers are given per part (the pieces a workload is made of):

- corpus: the seed commit's `fpdual selftest --json` records, byte for
  byte (golden/selftest.jsonl).  The criterion-1 Nakayama clause's known
  answer is its honest "fail" record with computed 1.
- ideal_gb: sympy's reduced grevlex basis over GF(p) for each build, zero
  for members by construction, and sympy's normal form for the others.
- duality_ladder: the seed commit's reports (golden/ladder.json); the
  check reports certified true, as the paper proves.
- tower: the Frobenius map of workloads.frobenius (exponents times q, no
  call of Polynomial.__pow__) for g**q and the decomposition round trip,
  X_i^(p^e) = x_i + shift_i in each Gabber truncation, and true from
  verify_kernel_bracket, as the paper proves.

The checks run in the run.py process after the passes, never inside the
timed region and never in the pass process, whose memory is measured.
"""

import json
import os

import workloads

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GB_SYMBOLS = " ".join(workloads.GB_VARS)


def load_golden(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        if name.endswith(".jsonl"):
            return fh.read().splitlines()
        return json.load(fh)


def _canonical_basis(polys):
    return sorted(sorted(terms) for terms in polys)


def _sympy_answers(inputs):
    """Expected build and query outputs of ideal_gb, computed by sympy."""
    import sympy

    gens = sympy.symbols(GB_SYMBOLS)

    def terms(poly, p):
        return sorted([list(m), int(c) % p] for m, c in poly.terms() if int(c) % p)

    expected = []
    for spec in inputs["ideals"]:
        p = spec["p"]
        polys = [sympy.Poly.from_dict(workloads.as_dict(g), *gens, modulus=p) for g in spec["gens"]]
        basis = sympy.groebner(polys, *gens, modulus=p, order="grevlex")
        expected.append(_canonical_basis(terms(g, p) for g in basis.polys))
        for query in spec["queries"]:
            if query["kind"] == "member":
                expected.append(True)
            else:
                f = sympy.Poly.from_dict(workloads.as_dict(query["f"]), *gens, modulus=p)
                _quotients, rem = basis.reduce(f.as_expr())
                expected.append(terms(sympy.Poly(rem, *gens, modulus=p), p))
    return expected


def _decompose_round_trip(parts, q, p):
    """f = sum_a v_a^q x^a rebuilt from the parts; None if some a is not below q."""
    total = {}
    for a, v in parts:
        if any(not 0 <= e < q for e in a):
            return None
        shifted = {tuple(m + e for m, e in zip(mono, a)): c for mono, c in workloads.frobenius(workloads.as_dict(v), q).items()}
        total = workloads.dict_add(total, shifted, p)
    return workloads.as_terms(total)


def _part_answers(part, inputs):
    if part == "corpus":
        golden = load_golden("selftest.jsonl")
        return [golden[i] for i in inputs["order"]]
    if part == "ideal_gb":
        return _sympy_answers(inputs)
    if part == "duality_ladder":
        golden = load_golden("ladder.json")
        return [golden[workloads.LADDER[i][0]] for i in inputs["order"]]
    expected = []
    for spec in inputs["ops"]:
        if spec["kind"] == "bracket_power":
            q = spec["p"] ** spec["e"]
            expected.append([workloads.as_terms(workloads.frobenius(workloads.as_dict(g), q)) for g in spec["gens"]])
        elif spec["kind"] == "frobenius_decompose":
            expected.append(spec["f"])
        else:
            expected.append(True)
    return expected


class Checker:
    """Compares pass outputs with the known answers of one workload and seed.

    `expected` (one answer per operation, parts in order) is computed on
    first use and may be replaced, which is how the benchmark's own tests
    perturb a known answer."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self._expected = None

    @property
    def expected(self):
        if self._expected is None:
            self._expected = [a for part in workloads.parts_of(self.workload)
                              for a in _part_answers(part, self.inputs[part])]
        return self._expected

    @expected.setter
    def expected(self, value):
        self._expected = value

    def _normalize(self, part, index, kind, output):
        if kind == "build":
            return _canonical_basis(output)
        if kind == "frobenius_decompose":
            spec = self.inputs[part]["ops"][index]
            return _decompose_round_trip(output, spec["p"] ** spec["e"], spec["p"])
        return output

    def failures(self, result):
        """Indices of the operations of a pass that raised or answered wrongly."""
        if not result["budgets_ok"]:
            # a changed global budget invalidates the whole pass
            return list(range(len(result["outputs"])))
        bad = []
        local = {}
        for i, (part, kind, output, error) in enumerate(
                zip(result["parts"], result["kinds"], result["outputs"], result["errors"])):
            index = local[part] = local.get(part, -1) + 1
            if error is not None or self._normalize(part, index, kind, output) != self.expected[i]:
                bad.append(i)
        return bad
